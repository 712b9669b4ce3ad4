//! Per-design smoke test: the same tiny, deterministic transaction batch must
//! commit on every execution design, with identical commit counts. This
//! guards the engine front-ends (inline conventional execution vs
//! worker-routed partitioned execution) against behavioural drift without
//! involving the workload crate.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use plp_core::{
    Action, ActionOutput, DataContext, Design, Engine, EngineConfig, EngineError, TableId,
    TableSpec, TransactionPlan,
};
use plp_instrument::{obs_enabled, CsCategory};

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

/// Transaction-manager critical sections entered so far.
fn xct_mgr_entries(engine: &Engine) -> u64 {
    engine
        .db()
        .stats()
        .snapshot()
        .cs
        .entries(CsCategory::XctMgr)
}

/// A read of `key` that answers with the value stored there (every
/// preloaded record holds its own key).
fn read_value(key: u64) -> Action {
    Action::new(TABLE, key, move |ctx| {
        let row = ctx.read(TABLE, key)?.expect("key is preloaded");
        Ok(ActionOutput::with_values(vec![u64::from_le_bytes(
            row[..8].try_into().unwrap(),
        )]))
    })
}

/// First key of partition 1 (two partitions split the key space in half).
const P1: u64 = KEY_SPACE / 2;

/// The second stage is built from the first stage's outputs, and the result
/// is stage 1's outputs followed by stage 2's, each in action-index order.
/// A commit enters the transaction manager once at begin and once per action
/// of every stage.
#[test]
fn a_continuation_reads_the_previous_stage_on_every_design() {
    for design in Design::ALL {
        let mut engine = build_engine(design);
        let before = xct_mgr_entries(&engine);
        let plan = TransactionPlan::parallel(vec![read_value(P1 + 2), read_value(2)]).followed_by(
            |outputs: &[ActionOutput]| {
                // Stage 2 reverses stage 1 and reads each key's neighbour.
                TransactionPlan::parallel(
                    outputs
                        .iter()
                        .rev()
                        .map(|o| read_value(o.values[0] + 2))
                        .collect(),
                )
            },
        );
        let outputs = engine.session().execute(plan).expect("commits");
        let values: Vec<Vec<u64>> = outputs.into_iter().map(|o| o.values).collect();
        assert_eq!(
            values,
            vec![vec![P1 + 2], vec![2], vec![4], vec![P1 + 4]],
            "{design}"
        );
        assert_eq!(xct_mgr_entries(&engine) - before, 1 + 4, "{design}");
        engine.shutdown();
    }
}

/// A parallel stage over both partitions whose actions 1 and 2 fail with
/// different errors answers action 1's error on every design — whether the
/// design stops at the first failure or runs the whole stage — and the
/// failing stage's continuation never runs.
#[test]
fn a_failing_stage_answers_its_lowest_indexed_error_on_every_design() {
    for design in Design::ALL {
        let mut engine = build_engine(design);
        let continued = Arc::new(AtomicBool::new(false));
        let flag = continued.clone();
        let failing_stage = move |_: &[ActionOutput]| {
            TransactionPlan::parallel(vec![
                read_value(2),
                // Partition 1: a duplicate insert.
                Action::new(TABLE, P1 + 2, |ctx| {
                    ctx.insert(TABLE, P1 + 2, b"taken", None)?;
                    Ok(ActionOutput::empty())
                }),
                // Partition 0, grouped with action 0 ahead of action 1.
                Action::new(TABLE, 4, |_ctx| Err(EngineError::Abort("action 2".into()))),
            ])
            .followed_by(move |_| {
                flag.store(true, Ordering::SeqCst);
                TransactionPlan::empty()
            })
        };
        let plan = TransactionPlan::single(read_value(P1 + 4)).followed_by(failing_stage);
        let result = engine.session().execute(plan);
        assert_eq!(
            result,
            Err(EngineError::DuplicateKey {
                table: TABLE,
                key: P1 + 2
            }),
            "{design}"
        );
        assert!(
            !continued.load(Ordering::SeqCst),
            "{design}: a failing stage called its continuation"
        );
        engine.shutdown();
    }
}

/// A conventional range read takes each row's S lock before it reads the
/// row, so it never answers a value that was never committed: W writes A
/// and keeps its X lock for 20 ms (inside the lock timeout), then writes B
/// and commits; R's range read of that one key, started while A is in
/// place, answers B.
#[test]
fn a_conventional_range_read_waits_for_the_rows_lock_before_it_reads() {
    for design in [
        Design::Conventional { sli: false },
        Design::Conventional { sli: true },
    ] {
        let mut engine = build_engine(design);
        let (written_tx, written_rx) = mpsc::channel();
        let rows = std::thread::scope(|scope| {
            let engine = &engine;
            let writer = scope.spawn(move || {
                let plan = TransactionPlan::single(Action::new(TABLE, 2, move |ctx| {
                    ctx.update(TABLE, 2, &mut |rec| rec[0] = b'A')?;
                    written_tx.send(()).unwrap();
                    std::thread::sleep(Duration::from_millis(20));
                    ctx.update(TABLE, 2, &mut |rec| rec[0] = b'B')?;
                    Ok(ActionOutput::empty())
                }));
                engine.session().execute(plan).expect("the writer commits");
            });
            written_rx.recv().expect("the writer has written A");
            let plan = TransactionPlan::single(Action::new(TABLE, 2, |ctx| {
                let rows = ctx.range_read(TABLE, 2, 2)?;
                Ok(ActionOutput::with_rows(
                    rows.into_iter().map(|(_, row)| row).collect(),
                ))
            }));
            let out = engine.session().execute(plan).expect("the reader commits");
            writer.join().expect("writer thread");
            out.into_iter().next().expect("one output").rows
        });
        assert_eq!(rows.len(), 1, "{design}");
        assert_eq!(rows[0][0], b'B', "{design}: read an uncommitted value");
        engine.shutdown();
    }
}

/// Page cleaning (Appendix A.4) on every design: a round after some
/// committed updates cleans pages, and a second round right after it finds
/// nothing left to clean.
#[test]
fn page_cleaning_cleans_dirty_pages_once_on_every_design() {
    for design in Design::ALL {
        let mut engine = build_engine(design);
        let (committed, _) = run_batch(&engine);
        assert!(committed > 0, "{design}");
        assert!(engine.clean_pages() > 0, "{design}: nothing cleaned");
        assert_eq!(engine.clean_pages(), 0, "{design}: cleaned twice");
        engine.shutdown();
    }
}

/// On the PLP designs a partition's pages are cleaned under its claim: a
/// round that meets a claimed partition with dirty pages waits for the
/// holder to let go, and then cleans them.
#[test]
fn page_cleaning_waits_for_a_held_claim_on_the_plp_designs() {
    for design in Design::ALL.into_iter().filter(|d| d.latch_free_index()) {
        let mut engine = build_engine(design);
        engine.clean_pages();
        let done = AtomicBool::new(false);
        let cleaned = std::thread::scope(|scope| {
            let (engine, done) = (&engine, &done);
            // Made in here, so a failed assertion drops `release_tx` and
            // the holder is not left waiting for it.
            let (entered_tx, entered_rx) = mpsc::channel();
            let (release_tx, release_rx) = mpsc::channel::<()>();
            // The holder dirties a page of partition 0 and keeps the
            // partition's claim until released.
            let holder = scope.spawn(move || {
                let plan = TransactionPlan::single(Action::new(TABLE, 1, move |ctx| {
                    ctx.insert(TABLE, 1, b"dirty", None)?;
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Ok(ActionOutput::empty())
                }));
                engine.session().execute(plan).expect("the holder commits");
            });
            entered_rx.recv().expect("the holder has the claim");
            let cleaner = scope.spawn(move || {
                let cleaned = engine.clean_pages();
                done.store(true, Ordering::SeqCst);
                cleaned
            });
            std::thread::sleep(Duration::from_millis(50));
            assert!(
                !done.load(Ordering::SeqCst),
                "{design}: cleaned past a held claim"
            );
            release_tx.send(()).unwrap();
            holder.join().expect("holder thread");
            cleaner.join().expect("cleaner thread")
        });
        assert!(cleaned > 0, "{design}: nothing cleaned");
        assert_eq!(engine.clean_pages(), 0, "{design}: cleaned twice");
        engine.shutdown();
    }
}
