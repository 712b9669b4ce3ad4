//! Per-design smoke test: the same tiny, deterministic transaction batch must
//! commit on every execution design, with identical commit counts. This
//! guards the engine front-ends (inline conventional execution vs
//! worker-routed partitioned execution) against behavioural drift without
//! involving the workload crate.

use std::sync::mpsc;
use std::time::Duration;

use plp_core::{
    Action, ActionOutput, DataContext, Design, Engine, EngineConfig, EngineError, TableId,
    TableSpec, TransactionPlan,
};
use plp_instrument::obs_enabled;

const TABLE: TableId = TableId(0);
const KEY_SPACE: u64 = 256;
const BATCH: u64 = 96;

fn build_engine(design: Design) -> Engine {
    let schema = [TableSpec::new(0, "smoke", KEY_SPACE)];
    let engine = Engine::start(
        EngineConfig::new(design).with_partitions(2).with_fanout(8),
        &schema,
    );
    // Preload the even keys; odd keys stay free for insert transactions.
    for key in (0..KEY_SPACE).step_by(2) {
        engine
            .db()
            .load_record(TABLE, key, &key.to_le_bytes(), None)
            .unwrap();
    }
    engine.finish_loading();
    engine
}

/// Run `BATCH` single-action transactions (reads, updates, inserts) and
/// return (committed, aborted).
fn run_batch(engine: &Engine) -> (u64, u64) {
    let mut session = engine.session();
    let mut committed = 0u64;
    let mut aborted = 0u64;
    for i in 0..BATCH {
        let even_key = (i * 2) % KEY_SPACE;
        let plan = match i % 3 {
            0 => TransactionPlan::single(Action::new(TABLE, even_key, move |ctx| {
                let row = ctx.read(TABLE, even_key)?;
                assert!(row.is_some(), "preloaded key {even_key} must be readable");
                Ok(ActionOutput::with_rows(vec![row.unwrap()]))
            })),
            1 => TransactionPlan::single(Action::new(TABLE, even_key, move |ctx| {
                let updated = ctx.update(TABLE, even_key, &mut |rec| {
                    rec[0] = rec[0].wrapping_add(1);
                })?;
                assert!(updated, "preloaded key {even_key} must be updatable");
                Ok(ActionOutput::empty())
            })),
            _ => {
                // Each insert transaction gets a distinct odd key.
                let new_key = 2 * i + 1;
                TransactionPlan::single(Action::new(TABLE, new_key, move |ctx| {
                    ctx.insert(TABLE, new_key, &new_key.to_le_bytes(), None)?;
                    Ok(ActionOutput::empty())
                }))
            }
        };
        match session.execute(plan) {
            Ok(_) => committed += 1,
            Err(e) if e.is_abort() => aborted += 1,
            Err(e) => panic!("unexpected engine error: {e}"),
        }
    }
    (committed, aborted)
}

#[test]
fn every_design_commits_the_same_tiny_batch() {
    let mut results = Vec::new();
    for design in Design::ALL {
        let mut engine = build_engine(design);
        let counts = run_batch(&engine);
        engine.shutdown();
        results.push((design, counts));
    }
    let (_, (expected_committed, expected_aborted)) = results[0];
    assert_eq!(
        expected_committed, BATCH,
        "single-threaded batch must commit fully"
    );
    assert_eq!(expected_aborted, 0);
    for (design, (committed, aborted)) in &results {
        assert_eq!(
            (*committed, *aborted),
            (expected_committed, expected_aborted),
            "{design} diverged from {}",
            results[0].0
        );
    }
}

/// The conventional design's central locks are gone once a transaction has
/// committed or aborted: the session releases them after the log answers.
#[test]
fn conventional_session_releases_central_locks_after_commit_and_abort() {
    let mut engine = build_engine(Design::Conventional { sli: false });
    let mut session = engine.session();
    let locks = engine.db().lock_manager();
    session
        .execute(TransactionPlan::single(Action::new(TABLE, 2, |ctx| {
            ctx.update(TABLE, 2, &mut |rec| rec[0] ^= 1)?;
            Ok(ActionOutput::empty())
        })))
        .expect("update commits");
    assert_eq!(locks.live_heads(), 0, "locks held past commit");
    let duplicate = session.execute(TransactionPlan::single(Action::new(TABLE, 4, |ctx| {
        ctx.insert(TABLE, 4, b"taken", None)?;
        Ok(ActionOutput::empty())
    })));
    assert!(
        matches!(duplicate, Err(ref e) if e.is_abort()),
        "{duplicate:?}"
    );
    assert_eq!(locks.live_heads(), 0, "locks held past abort");
    drop(session);
    engine.shutdown();
}

/// SLI sessions inherit intention locks across their transactions; a dropped
/// session hands them back, so sessions that come and go (one per wire
/// connection) leave no lock heads behind.
#[test]
fn dropped_sli_sessions_release_their_inherited_locks() {
    let mut engine = build_engine(Design::Conventional { sli: true });
    let locks = engine.db().lock_manager();
    let read = || {
        TransactionPlan::single(Action::new(TABLE, 2, |ctx| {
            let row = ctx.read(TABLE, 2)?.expect("key 2 is preloaded");
            Ok(ActionOutput::with_rows(vec![row]))
        }))
    };
    for i in 0..1_000 {
        let mut session = engine.session();
        session.execute(read()).expect("read commits");
        if i == 0 {
            assert!(
                locks.live_heads() > 0,
                "the agent inherits its intention locks"
            );
        }
    }
    assert_eq!(
        locks.live_heads(),
        0,
        "inherited locks outlived their sessions"
    );
    engine.shutdown();
}

/// A conventional transaction that blocks on a central lock carries the wait
/// in its slow-log entry's `lock` phase.
#[test]
fn conventional_lock_wait_reaches_the_slow_log() {
    if !obs_enabled() {
        return;
    }
    let update_key_2 = |ctx: &mut dyn DataContext| -> Result<(), EngineError> {
        ctx.update(TABLE, 2, &mut |rec| rec[0] ^= 1)?;
        Ok(())
    };
    for design in [
        Design::Conventional { sli: false },
        Design::Conventional { sli: true },
    ] {
        let mut engine = build_engine(design);
        let (locked_tx, locked_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (asking_tx, asking_rx) = mpsc::channel();
        std::thread::scope(|scope| {
            let engine = &engine;
            // A holds key 2's X lock until released.
            scope.spawn(move || {
                let plan = TransactionPlan::single(Action::new(TABLE, 2, move |ctx| {
                    update_key_2(ctx)?;
                    locked_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Ok(ActionOutput::empty())
                }));
                engine.session().execute(plan).expect("the holder commits");
            });
            locked_rx.recv().expect("the holder has the lock");
            // B asks for the same lock and waits for A.
            scope.spawn(move || {
                let plan = TransactionPlan::single(Action::new(TABLE, 2, move |ctx| {
                    asking_tx.send(()).unwrap();
                    update_key_2(ctx)?;
                    Ok(ActionOutput::empty())
                }));
                engine.session().execute(plan).expect("the waiter commits");
            });
            asking_rx.recv().expect("the waiter asks for the lock");
            std::thread::sleep(Duration::from_millis(20));
            release_tx.send(()).unwrap();
        });
        let slow = engine.db().stats().slow().snapshot();
        assert_eq!(slow.len(), 2, "{design}: {slow:?}");
        // Transaction ids follow begin order: the holder began first.
        let holder = slow.iter().min_by_key(|t| t.txn_id).unwrap();
        let waiter = slow.iter().max_by_key(|t| t.txn_id).unwrap();
        assert_eq!(holder.phases.lock_nanos, 0, "{design}: {holder:?}");
        assert!(
            waiter.phases.lock_nanos >= 10_000_000,
            "{design}: {waiter:?}"
        );
        engine.shutdown();
    }
}

/// Before `finish_loading` no page has a latch-free owner, so a PLP design
/// used to panic on the first insert.  Every design now answers `NotReady`
/// until loading has finished, and the same request succeeds after it.
#[test]
fn requests_before_finish_loading_answer_not_ready_on_every_design() {
    use plp_core::{ErrorCode, Op, Request, Response};
    for design in Design::ALL {
        let schema = [TableSpec::new(0, "smoke", KEY_SPACE)];
        let engine = Engine::start(EngineConfig::new(design).with_partitions(2), &schema);
        let insert = || {
            Request::single(Op::Insert {
                table: TABLE,
                key: 7,
                record: 7u64.to_le_bytes().to_vec(),
                secondary_key: None,
            })
        };
        let early = engine.session().run(insert());
        assert_eq!(early.error_code(), Some(ErrorCode::NotReady), "{design:?}");
        engine.finish_loading();
        let loaded = engine.session().run(insert());
        assert_eq!(
            loaded,
            Response::Ok(vec![ActionOutput::empty()]),
            "{design:?}"
        );
    }
}
