//! The TPC-B benchmark (account update).
//!
//! TPC-B stresses small hot tables: every transaction updates one account,
//! its teller, its branch, and appends a history row.  Branch and teller rows
//! are few and hot; without padding several of them share a heap page, which
//! is exactly the *false sharing* scenario of Figure 7 — the conventional,
//! logical-only and PLP-Regular designs latch those heap pages and contend,
//! while PLP-Partition/PLP-Leaf place each partition's rows on their own pages
//! and are immune.
//!
//! Key encodings keep every table's key space proportional to the branch id so
//! the per-table uniform partitionings align.

use std::sync::atomic::{AtomicU64, Ordering};

use plp_core::{Action, ActionOutput, Database, EngineError, TableId, TableSpec, TransactionPlan};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

use crate::fields;
use crate::Workload;

const BRANCH: TableId = TableId(0);
const TELLER: TableId = TableId(1);
const ACCOUNT: TableId = TableId(2);
const HISTORY: TableId = TableId(3);

const TELLERS_PER_BRANCH: u64 = 10;
const ACCOUNTS_PER_BRANCH: u64 = 10_000;
/// History rows are keyed per branch: `branch * HISTORY_SLOTS + seq`.
const HISTORY_SLOTS: u64 = 1 << 24;

/// Balance field offset shared by branch/teller/account records.
const BALANCE_OFFSET: usize = 0;
const SMALL_RECORD: usize = 96;
/// Padded record size used when the engine config enables padding (one record
/// per 8 KiB page, the classic false-sharing workaround).
const PADDED_RECORD: usize = 7_800;

fn teller_key(branch: u64, teller: u64) -> u64 {
    branch * TELLERS_PER_BRANCH + teller
}

fn account_key(branch: u64, account: u64) -> u64 {
    branch * ACCOUNTS_PER_BRANCH + account
}

/// The TPC-B workload generator.
pub struct TpcB {
    branches: u64,
    history_seq: AtomicU64,
}

impl TpcB {
    pub fn new(branches: u64) -> Self {
        Self {
            branches: branches.max(1),
            history_seq: AtomicU64::new(0),
        }
    }

    fn record(db: &Database, seed: u64) -> Vec<u8> {
        let mut r = vec![0u8; SMALL_RECORD];
        fields::set_u64(&mut r, BALANCE_OFFSET, 1_000_000);
        fields::set_u64(&mut r, 8, seed);
        db.maybe_pad(r, PADDED_RECORD)
    }

    /// The TPC-B account-update transaction as a plan: three balance updates
    /// plus a history insert, decomposed per table (all actions route to the
    /// branch's partition).
    fn account_update(
        &self,
        branch: u64,
        teller: u64,
        account: u64,
        delta: i64,
    ) -> TransactionPlan {
        let t_key = teller_key(branch, teller);
        let a_key = account_key(branch, account);
        let h_key = branch * HISTORY_SLOTS
            + (self.history_seq.fetch_add(1, Ordering::Relaxed) % HISTORY_SLOTS);
        TransactionPlan::parallel(vec![
            Action::new(ACCOUNT, a_key, move |ctx| {
                let mut balance = 0;
                ctx.update(ACCOUNT, a_key, &mut |r| {
                    fields::add_u64(r, BALANCE_OFFSET, delta);
                    balance = fields::get_u64(r, BALANCE_OFFSET);
                })?;
                Ok(ActionOutput::with_values(vec![balance]))
            }),
            Action::new(TELLER, t_key, move |ctx| {
                ctx.update(TELLER, t_key, &mut |r| {
                    fields::add_u64(r, BALANCE_OFFSET, delta);
                })?;
                Ok(ActionOutput::empty())
            }),
            Action::new(BRANCH, branch, move |ctx| {
                ctx.update(BRANCH, branch, &mut |r| {
                    fields::add_u64(r, BALANCE_OFFSET, delta);
                })?;
                Ok(ActionOutput::empty())
            }),
            Action::new(HISTORY, h_key, move |ctx| {
                let mut rec = vec![0u8; 56];
                fields::set_u64(&mut rec, 0, a_key);
                fields::set_u64(&mut rec, 8, t_key);
                fields::set_u64(&mut rec, 16, branch);
                fields::set_u64(&mut rec, 24, delta as u64);
                match ctx.insert(HISTORY, h_key, &rec, None) {
                    Ok(()) | Err(EngineError::DuplicateKey { .. }) => Ok(ActionOutput::empty()),
                    Err(e) => Err(e),
                }
            }),
        ])
    }
}

impl Workload for TpcB {
    fn name(&self) -> &'static str {
        "TPC-B"
    }

    fn schema(&self) -> Vec<TableSpec> {
        let b = self.branches;
        vec![
            TableSpec::new(0, "branch", b),
            TableSpec::new(1, "teller", b * TELLERS_PER_BRANCH)
                .with_granularity(TELLERS_PER_BRANCH)
                .aligned_with(BRANCH),
            TableSpec::new(2, "account", b * ACCOUNTS_PER_BRANCH)
                .with_granularity(ACCOUNTS_PER_BRANCH)
                .aligned_with(BRANCH),
            TableSpec::new(3, "history", b * HISTORY_SLOTS)
                .with_granularity(HISTORY_SLOTS)
                .aligned_with(BRANCH),
        ]
    }

    fn load(&self, db: &Database) -> Result<(), EngineError> {
        for branch in 0..self.branches {
            db.load_record(BRANCH, branch, &Self::record(db, branch), None)?;
            for t in 0..TELLERS_PER_BRANCH {
                db.load_record(TELLER, teller_key(branch, t), &Self::record(db, t), None)?;
            }
            for a in 0..ACCOUNTS_PER_BRANCH {
                db.load_record(ACCOUNT, account_key(branch, a), &Self::record(db, a), None)?;
            }
        }
        Ok(())
    }

    fn next_transaction(&self, rng: &mut ChaCha8Rng) -> TransactionPlan {
        let branch = rng.gen_range(0..self.branches);
        let teller = rng.gen_range(0..TELLERS_PER_BRANCH);
        let account = rng.gen_range(0..ACCOUNTS_PER_BRANCH);
        let delta = rng.gen_range(-5_000i64..5_000);
        self.account_update(branch, teller, account, delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn keys_align_with_branch_partitioning() {
        assert_eq!(teller_key(3, 2), 32);
        assert_eq!(account_key(3, 17), 30_017);
        // All keys of branch 3 fall into the same quarter of their key space
        // when partitioned into 4.
        let branches = 4u64;
        let part = |key: u64, space: u64| key * branches / space;
        assert_eq!(part(3, branches), 3);
        assert_eq!(part(teller_key(3, 9), branches * TELLERS_PER_BRANCH), 3);
        assert_eq!(
            part(
                account_key(3, ACCOUNTS_PER_BRANCH - 1),
                branches * ACCOUNTS_PER_BRANCH
            ),
            3
        );
    }

    #[test]
    fn plan_shape() {
        let w = TpcB::new(2);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let plan = w.next_transaction(&mut rng);
        assert_eq!(plan.action_count(), 4);
        assert!(plan.then.is_none());
    }
}
