//! Transactions and the transaction manager.
//!
//! The transaction manager is one of the components whose critical sections
//! Figure 1 counts.  The paper classifies it as *fixed-contention*
//! communication: the critical sections serialise the handful of threads that
//! touch one transaction object's state (begin, attach actions, commit), so
//! they never become a scalability bottleneck — but they do not disappear
//! under PLP either, which is why "Xct mgr" remains the largest bar in the
//! PLP columns of Figure 1.
//!
//! This crate keeps the transaction object deliberately small: the execution
//! engines in `plp-core` orchestrate locking and logging themselves, because
//! that is exactly where the designs differ (centralized locking + SLI vs.
//! thread-local locking; latched vs. latch-free page access).

#![forbid(unsafe_code)]

pub mod manager;
pub mod xct;

pub use manager::TxnManager;
pub use xct::{Transaction, TxnState};

#[cfg(test)]
mod tests {
    use super::*;
    use plp_instrument::StatsRegistry;
    use plp_wal::{DurabilityMode, InsertProtocol, LogManager};
    use std::sync::Arc;

    #[test]
    fn end_to_end_lifecycle() {
        let stats = StatsRegistry::new_shared();
        let log = Arc::new(LogManager::new(
            InsertProtocol::Consolidated,
            DurabilityMode::Lazy,
            stats.clone(),
        ));
        let mgr = TxnManager::new(log, stats.clone());
        let mut txn = mgr.begin();
        assert_eq!(txn.state(), TxnState::Active);
        txn.log_update(0, 7, b"before", b"after-image");
        mgr.commit(&mut txn).unwrap();
        assert_eq!(txn.state(), TxnState::Committed);
        assert_eq!(stats.committed(), 1);
    }
}
