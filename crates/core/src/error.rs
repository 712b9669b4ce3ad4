//! Engine-level errors.

use plp_btree::tree::BTreeError;
use plp_lock::LockError;
use plp_storage::StorageError;
use plp_wal::LogFailed;

use crate::catalog::TableId;

/// Errors surfaced to transaction code and the benchmark driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The transaction must abort (lock timeout / user-requested).
    Abort(String),
    /// A unique-key violation.
    DuplicateKey { table: TableId, key: u64 },
    /// A referenced table does not exist.
    NoSuchTable(TableId),
    /// Underlying storage failure.
    Storage(StorageError),
    /// The log device failed: the commit is not durable.  Answered on the
    /// wire as [`crate::ErrorCode::Storage`].
    Log(LogFailed),
    /// The engine has been shut down.
    Shutdown,
    /// Crash recovery could not complete (unreadable log, configuration
    /// mismatch with the checkpoint, or an unreplayable record).
    Recovery(String),
    /// The engine has not finished loading: [`crate::Engine::finish_loading`]
    /// (or [`crate::Engine::recover`]) has not run yet.
    NotReady,
}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> Self {
        EngineError::Storage(e)
    }
}

impl From<LockError> for EngineError {
    fn from(e: LockError) -> Self {
        EngineError::Abort(e.to_string())
    }
}

impl EngineError {
    /// Map a B+Tree error for a specific table.
    pub fn from_btree(table: TableId, e: BTreeError) -> Self {
        match e {
            BTreeError::DuplicateKey(key) => EngineError::DuplicateKey { table, key },
            BTreeError::Storage(s) => EngineError::Storage(s),
        }
    }

    /// Whether the error is a benign transaction abort (as opposed to an
    /// engine defect).
    pub fn is_abort(&self) -> bool {
        matches!(
            self,
            EngineError::Abort(_) | EngineError::DuplicateKey { .. }
        )
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Abort(reason) => write!(f, "transaction aborted: {reason}"),
            EngineError::DuplicateKey { table, key } => {
                write!(f, "duplicate key {key} in table {table:?}")
            }
            EngineError::NoSuchTable(t) => write!(f, "no such table {t:?}"),
            EngineError::Storage(e) => write!(f, "storage error: {e}"),
            EngineError::Log(e) => write!(f, "{e}"),
            EngineError::Shutdown => write!(f, "engine is shut down"),
            EngineError::Recovery(reason) => write!(f, "recovery failed: {reason}"),
            EngineError::NotReady => write!(f, "engine has not finished loading"),
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_abort_classification() {
        let e = EngineError::from_btree(TableId(1), BTreeError::DuplicateKey(5));
        assert!(matches!(e, EngineError::DuplicateKey { key: 5, .. }));
        assert!(e.is_abort());
        let e: EngineError = StorageError::PageNotFound(plp_storage::PageId(1)).into();
        assert!(!e.is_abort());
        assert!(EngineError::Abort("timeout".into()).is_abort());
        assert!(EngineError::Abort("x".into())
            .to_string()
            .contains("aborted"));
    }
}
