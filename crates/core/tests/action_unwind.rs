//! A transaction whose action panics is aborted when its session unwinds,
//! on every design: it leaves the active set a checkpoint records, and the
//! central locks it took go with it, so the next transaction on the same
//! key does not wait out the lock timeout.  With one session every
//! partitioned design runs the action on the session's own thread, so the
//! panic unwinds through `Session::execute` on all six.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use plp_core::{Action, ActionOutput, DataContext, Design, Engine, EngineConfig, TableId};
use plp_core::{TableSpec, TransactionPlan};

const TABLE: TableId = TableId(0);
const KEY: u64 = 3;

fn loaded_engine(design: Design) -> Engine {
    let engine = Engine::start(
        EngineConfig::new(design).with_partitions(2),
        &[TableSpec::new(0, "unwind", 64)],
    );
    for k in 0..16u64 {
        engine
            .db()
            .load_record(TABLE, k, &k.to_le_bytes(), None)
            .unwrap();
    }
    engine.finish_loading();
    engine
}

fn bump(ctx: &mut dyn DataContext) -> Result<bool, plp_core::EngineError> {
    ctx.update(TABLE, KEY, &mut |rec| rec[0] = rec[0].wrapping_add(1))
}

#[test]
fn an_unwound_transaction_is_aborted_and_its_locks_released_on_every_design() {
    for design in Design::ALL {
        let mut engine = loaded_engine(design);
        {
            let mut session = engine.session();
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                session.execute(TransactionPlan::single(Action::new(TABLE, KEY, |ctx| {
                    assert!(bump(ctx)?, "key {KEY} is loaded");
                    panic!("injected fault after an update")
                })))
            }));
            assert!(unwound.is_err(), "{design:?}: the action panicked");
        }
        let db = engine.db();
        assert_eq!(
            db.txn_manager().active_txns(),
            Vec::<u64>::new(),
            "{design:?}: the unwound transaction is still active"
        );
        assert_eq!(
            db.lock_manager().live_heads(),
            0,
            "{design:?}: the unwound transaction kept a central lock"
        );
        // The lock timeout is 100 ms; a lock left behind would cost all of it.
        let started = Instant::now();
        let next = engine
            .session()
            .execute(TransactionPlan::single(Action::new(TABLE, KEY, |ctx| {
                assert!(bump(ctx)?);
                Ok(ActionOutput::empty())
            })));
        let took = started.elapsed();
        assert!(next.is_ok(), "{design:?}: {next:?}");
        assert!(
            took < Duration::from_millis(50),
            "{design:?}: the next update took {took:?}"
        );
        engine.shutdown();
    }
}
