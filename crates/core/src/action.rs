//! Transaction plans, actions and the data-access interface.
//!
//! A workload expresses each transaction as a [`TransactionPlan`]: a set of
//! [`Action`]s that can run independently, optionally followed by a
//! continuation that receives the actions' outputs and produces the next
//! stage (the "directed graphs" with rendezvous points of Section 3.1).
//!
//! Each action targets one table and one routing key; its body is a closure
//! over the [`DataContext`] trait.  The *same closure* runs in every design —
//! what changes is how the one context behind the trait isolates the action
//! and reaches its pages:
//!
//! * the conventional engine runs all actions inline on the client thread,
//!   with centralized locking and latched page accesses;
//! * the partitioned engines run each action under the claim of the partition
//!   that owns its routing key — on the calling thread when the partition is
//!   idle, on the partition's worker thread otherwise — with thread-local
//!   locking and (for PLP) latch-free page accesses.

use crate::catalog::TableId;
use crate::error::EngineError;

/// Data-access operations available to transaction logic.
///
/// Keys are 64-bit integers; records are opaque byte strings.  All operations
/// are logged and isolated according to the engine design behind the context.
pub trait DataContext {
    /// Read a record by primary key.
    fn read(&mut self, table: TableId, key: u64) -> Result<Option<Vec<u8>>, EngineError>;

    /// Update a record in place.  Returns `false` if the key does not exist.
    fn update(
        &mut self,
        table: TableId,
        key: u64,
        f: &mut dyn FnMut(&mut [u8]),
    ) -> Result<bool, EngineError>;

    /// Insert a record with optional secondary key.  Fails with
    /// [`EngineError::DuplicateKey`] if the key exists.
    fn insert(
        &mut self,
        table: TableId,
        key: u64,
        record: &[u8],
        secondary_key: Option<u64>,
    ) -> Result<(), EngineError>;

    /// Delete a record.  Returns `false` if the key does not exist.
    fn delete(
        &mut self,
        table: TableId,
        key: u64,
        secondary_key: Option<u64>,
    ) -> Result<bool, EngineError>;

    /// Probe a secondary index: alternate key → primary key.
    fn secondary_probe(&mut self, table: TableId, sec_key: u64)
        -> Result<Option<u64>, EngineError>;

    /// Inclusive range scan on the primary key, returning (key, record) pairs.
    fn range_read(
        &mut self,
        table: TableId,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<(u64, Vec<u8>)>, EngineError>;
}

/// Output of one action: whatever rows/values the transaction logic chose to
/// return to the coordinator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ActionOutput {
    pub rows: Vec<Vec<u8>>,
    pub values: Vec<u64>,
}

impl ActionOutput {
    pub fn empty() -> Self {
        Self::default()
    }

    pub fn with_rows(rows: Vec<Vec<u8>>) -> Self {
        Self {
            rows,
            values: Vec::new(),
        }
    }

    pub fn with_values(values: Vec<u64>) -> Self {
        Self {
            rows: Vec::new(),
            values,
        }
    }
}

/// The closure type executed by an action.
pub type ActionFn =
    Box<dyn FnOnce(&mut dyn DataContext) -> Result<ActionOutput, EngineError> + Send>;

/// One unit of work routed to a single logical partition.
pub struct Action {
    /// Table whose partitioning determines the owning worker.
    pub table: TableId,
    /// Routing key (normally the primary key the action touches).
    pub routing_key: u64,
    /// The work itself.
    pub run: ActionFn,
}

impl Action {
    pub fn new(
        table: TableId,
        routing_key: u64,
        run: impl FnOnce(&mut dyn DataContext) -> Result<ActionOutput, EngineError> + Send + 'static,
    ) -> Self {
        Self {
            table,
            routing_key,
            run: Box::new(run),
        }
    }
}

impl std::fmt::Debug for Action {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Action")
            .field("table", &self.table)
            .field("routing_key", &self.routing_key)
            .finish()
    }
}

/// Continuation invoked with the outputs of the previous stage's actions.
pub type PlanContinuation = Box<dyn FnOnce(&[ActionOutput]) -> TransactionPlan + Send>;

/// A transaction expressed as a stage of actions plus an optional next stage.
pub struct TransactionPlan {
    pub actions: Vec<Action>,
    pub then: Option<PlanContinuation>,
}

impl TransactionPlan {
    /// A plan consisting of a single action.
    pub fn single(action: Action) -> Self {
        Self {
            actions: vec![action],
            then: None,
        }
    }

    /// A plan with several independent actions and no continuation.
    pub fn parallel(actions: Vec<Action>) -> Self {
        Self {
            actions,
            then: None,
        }
    }

    /// Add a continuation stage.
    pub fn followed_by(
        mut self,
        f: impl FnOnce(&[ActionOutput]) -> TransactionPlan + Send + 'static,
    ) -> Self {
        self.then = Some(Box::new(f));
        self
    }

    /// An empty plan (used by continuations that have nothing more to do).
    pub fn empty() -> Self {
        Self {
            actions: Vec::new(),
            then: None,
        }
    }

    /// Total number of actions in this stage.
    pub fn action_count(&self) -> usize {
        self.actions.len()
    }
}

impl std::fmt::Debug for TransactionPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransactionPlan")
            .field("actions", &self.actions)
            .field("has_continuation", &self.then.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builders() {
        let a = Action::new(TableId(1), 5, |_ctx| Ok(ActionOutput::empty()));
        let plan = TransactionPlan::single(a);
        assert_eq!(plan.action_count(), 1);
        assert!(plan.then.is_none());

        let plan = TransactionPlan::parallel(vec![
            Action::new(TableId(1), 5, |_ctx| Ok(ActionOutput::empty())),
            Action::new(TableId(2), 9, |_ctx| Ok(ActionOutput::empty())),
        ])
        .followed_by(|_outputs| TransactionPlan::empty());
        assert_eq!(plan.action_count(), 2);
        assert!(plan.then.is_some());
        assert_eq!(TransactionPlan::empty().action_count(), 0);
    }

    #[test]
    fn action_output_helpers() {
        let o = ActionOutput::with_values(vec![1, 2, 3]);
        assert_eq!(o.values, vec![1, 2, 3]);
        assert!(o.rows.is_empty());
        let o = ActionOutput::with_rows(vec![b"r".to_vec()]);
        assert_eq!(o.rows.len(), 1);
        assert_eq!(ActionOutput::empty(), ActionOutput::default());
    }
}
