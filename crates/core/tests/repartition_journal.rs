//! Repartition-journal rollback: a failed sibling slice/meld must drive every
//! already-repartitioned table back to its old boundaries instead of leaving
//! cross-table alignment broken, and the engine must keep serving.

use std::sync::Arc;

use plp_core::{
    Action, ActionOutput, Design, Engine, EngineConfig, TableId, TableSpec, TransactionPlan,
};

const ROOT: TableId = TableId(0);
const SIBLING_A: TableId = TableId(1);
const SIBLING_B: TableId = TableId(2);

/// Two-worker engine over a three-table aligned group (granularities 1/4/8),
/// loaded with one record per root key plus matching sibling rows.
fn aligned_engine(design: Design) -> Engine {
    let keys = 512u64;
    let schema = vec![
        TableSpec::new(0, "root", keys),
        TableSpec::new(1, "sib_a", keys * 4)
            .with_granularity(4)
            .aligned_with(ROOT),
        TableSpec::new(2, "sib_b", keys * 8)
            .with_granularity(8)
            .aligned_with(ROOT),
    ];
    let engine = Engine::start(EngineConfig::new(design).with_partitions(2), &schema);
    for k in 0..keys {
        engine
            .db()
            .load_record(ROOT, k, format!("root-{k}").as_bytes(), None)
            .unwrap();
        engine
            .db()
            .load_record(SIBLING_A, k * 4, format!("a-{k}").as_bytes(), None)
            .unwrap();
        engine
            .db()
            .load_record(SIBLING_B, k * 8, format!("b-{k}").as_bytes(), None)
            .unwrap();
    }
    engine.finish_loading();
    engine
}

fn all_bounds(engine: &Engine) -> Vec<Vec<u64>> {
    let pm = engine.partition_manager().unwrap();
    [ROOT, SIBLING_A, SIBLING_B]
        .iter()
        .map(|&t| pm.bounds(t))
        .collect()
}

fn read_transaction(engine: &Engine, table: TableId, key: u64) -> Option<Vec<u8>> {
    let mut session = engine.session();
    let out = session
        .execute(TransactionPlan::single(Action::new(
            table,
            key,
            move |ctx| {
                let row = ctx.read(table, key)?;
                Ok(ActionOutput::with_rows(row.into_iter().collect()))
            },
        )))
        .expect("engine must keep serving");
    out.into_iter()
        .next()
        .and_then(|o| o.rows.into_iter().next())
}

#[test]
fn injected_sibling_failure_rolls_back_all_tables() {
    for design in [Design::PlpRegular, Design::PlpLeaf] {
        let engine = aligned_engine(design);
        let pm = engine.partition_manager().unwrap();
        let before = all_bounds(&engine);

        // Fail after the driver and the first sibling have been moved.
        pm.inject_repartition_failure_after(2);
        let err = engine.repartition(ROOT, &[0, 64]);
        assert!(err.is_err(), "{design}: injected failure must surface");

        let after = all_bounds(&engine);
        assert_eq!(
            before, after,
            "{design}: journal rollback must restore every table's boundaries"
        );
        assert_eq!(
            engine.db().stats().snapshot().dlb.rollbacks,
            1,
            "{design}: rollback must be counted"
        );

        // The engine still serves reads from every table (routing and
        // ownership are consistent again).
        for k in [0u64, 63, 64, 300, 511] {
            assert_eq!(
                read_transaction(&engine, ROOT, k).as_deref(),
                Some(format!("root-{k}").as_bytes()),
                "{design}: root key {k} must stay readable"
            );
        }
        assert!(read_transaction(&engine, SIBLING_A, 4 * 300).is_some());
        assert!(read_transaction(&engine, SIBLING_B, 8 * 63).is_some());
    }
}

#[test]
fn failure_before_any_table_changes_nothing_and_later_repartitions_work() {
    let engine = aligned_engine(Design::PlpRegular);
    let pm = engine.partition_manager().unwrap();
    let before = all_bounds(&engine);

    pm.inject_repartition_failure_after(0);
    assert!(engine.repartition(ROOT, &[0, 100]).is_err());
    assert_eq!(all_bounds(&engine), before, "nothing was touched");
    assert_eq!(
        engine.db().stats().snapshot().dlb.rollbacks,
        0,
        "an empty journal is not a rollback"
    );

    // The injection is one-shot: the next repartition succeeds and
    // propagates to the whole group.
    engine.repartition(ROOT, &[0, 100]).unwrap();
    let pm = engine.partition_manager().unwrap();
    assert_eq!(pm.bounds(ROOT), vec![0, 100]);
    assert_eq!(pm.bounds(SIBLING_A), vec![0, 400]);
    assert_eq!(pm.bounds(SIBLING_B), vec![0, 800]);
    assert!(read_transaction(&engine, ROOT, 99).is_some());
    assert!(read_transaction(&engine, SIBLING_A, 400).is_some());
}

#[test]
fn successful_repartition_keeps_group_aligned_and_data_readable() {
    let engine = aligned_engine(Design::PlpLeaf);
    let moved = engine.repartition(ROOT, &[0, 51]).unwrap();
    let pm = engine.partition_manager().unwrap();
    assert_eq!(pm.bounds(ROOT), vec![0, 51]);
    assert_eq!(pm.bounds(SIBLING_A), vec![0, 204]);
    assert_eq!(pm.bounds(SIBLING_B), vec![0, 408]);
    // PLP-Leaf relocates boundary-leaf records; the exact count depends on
    // the tree shape but the data must stay intact either way.
    let _ = moved;
    for k in [0u64, 50, 51, 52, 511] {
        assert_eq!(
            read_transaction(&engine, ROOT, k).as_deref(),
            Some(format!("root-{k}").as_bytes())
        );
        assert!(read_transaction(&engine, SIBLING_A, k * 4).is_some());
        assert!(read_transaction(&engine, SIBLING_B, k * 8).is_some());
    }
}

#[test]
fn unaligned_table_is_left_alone() {
    // Same ratios as the group but *no* declaration: the old inference would
    // have co-repartitioned this table; the declared relationship must not.
    let keys = 256u64;
    let schema = vec![
        TableSpec::new(0, "root", keys),
        TableSpec::new(1, "dependent", keys * 4)
            .with_granularity(4)
            .aligned_with(ROOT),
        // Coincidentally equal key_space/granularity ratio, not declared.
        TableSpec::new(2, "independent", keys * 4).with_granularity(4),
    ];
    let engine = Engine::start(
        EngineConfig::new(Design::PlpRegular).with_partitions(2),
        &schema,
    );
    for k in 0..keys {
        engine.db().load_record(ROOT, k, b"r", None).unwrap();
        engine
            .db()
            .load_record(TableId(1), k * 4, b"d", None)
            .unwrap();
        engine
            .db()
            .load_record(TableId(2), k * 4, b"i", None)
            .unwrap();
    }
    engine.finish_loading();
    let pm = engine.partition_manager().unwrap();
    let independent_before = pm.bounds(TableId(2));

    engine.repartition(ROOT, &[0, 32]).unwrap();
    assert_eq!(pm.bounds(ROOT), vec![0, 32]);
    assert_eq!(
        pm.bounds(TableId(1)),
        vec![0, 128],
        "declared sibling follows"
    );
    assert_eq!(
        pm.bounds(TableId(2)),
        independent_before,
        "undeclared table must not be co-repartitioned"
    );
}

#[test]
#[should_panic(expected = "driver units")]
fn inconsistent_alignment_declaration_is_rejected() {
    let schema = vec![
        TableSpec::new(0, "root", 100),
        // Wrong ratio: spans 50 driver units, root spans 100.
        TableSpec::new(1, "bad", 200)
            .with_granularity(4)
            .aligned_with(ROOT),
    ];
    let _ = plp_core::Database::create(EngineConfig::new(Design::LogicalOnly), &schema);
}

#[test]
fn dlb_failed_repartition_keeps_engine_alive_under_load() {
    // A DLB-style failure while client threads are running: inject the
    // failure, repartition from another thread, and keep executing
    // transactions throughout.
    let engine = Arc::new(aligned_engine(Design::PlpRegular));
    let pm = engine.partition_manager().unwrap();
    let before = all_bounds(&engine);
    pm.inject_repartition_failure_after(1);

    std::thread::scope(|scope| {
        let eng = &engine;
        for t in 0..2 {
            scope.spawn(move || {
                for i in 0..300u64 {
                    let key = (i * 7 + t * 131) % 512;
                    assert!(read_transaction(eng, ROOT, key).is_some());
                }
            });
        }
        scope.spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            assert!(eng.repartition(ROOT, &[0, 64]).is_err());
        });
    });
    assert_eq!(all_bounds(&engine), before);
    // And the engine still works after the dust settles.
    assert!(read_transaction(&engine, ROOT, 123).is_some());
}

#[test]
fn mid_table_failure_on_driver_restores_partial_table() {
    for design in [Design::PlpRegular, Design::PlpPartition, Design::PlpLeaf] {
        let engine = aligned_engine(design);
        let pm = engine.partition_manager().unwrap();
        let before = all_bounds(&engine);

        // Fail inside the driver's slice/meld loop after its first
        // operation: the slice at the new boundary has happened, the meld of
        // the old one has not — the table is left half-moved for the journal
        // to restore.
        pm.inject_repartition_failure_mid_table(0, 1);
        let err = engine.repartition(ROOT, &[0, 64]);
        assert!(
            err.is_err(),
            "{design}: injected mid-table failure must surface"
        );

        assert_eq!(
            all_bounds(&engine),
            before,
            "{design}: rollback must restore the partially-moved driver"
        );
        assert_eq!(
            engine.db().stats().snapshot().dlb.rollbacks,
            1,
            "{design}: mid-table rollback must be counted"
        );
        // Every record is still reachable through routing (boundary keys on
        // both sides of the attempted cut included).
        for k in [0u64, 63, 64, 65, 255, 256, 257, 511] {
            assert_eq!(
                read_transaction(&engine, ROOT, k).as_deref(),
                Some(format!("root-{k}").as_bytes()),
                "{design}: root key {k} must stay readable"
            );
        }
        // One-shot: the same repartition now succeeds.
        engine.repartition(ROOT, &[0, 64]).unwrap();
        assert_eq!(pm.bounds(ROOT), vec![0, 64]);
        assert_eq!(pm.bounds(SIBLING_A), vec![0, 256]);
        assert!(read_transaction(&engine, ROOT, 64).is_some());
    }
}

#[test]
fn mid_table_failure_on_sibling_restores_whole_group() {
    for design in [Design::PlpRegular, Design::PlpLeaf] {
        let engine = aligned_engine(design);
        let pm = engine.partition_manager().unwrap();
        let before = all_bounds(&engine);

        // The driver moves completely; the first sibling fails mid-way
        // through its own slice/meld loop.
        pm.inject_repartition_failure_mid_table(1, 1);
        assert!(engine.repartition(ROOT, &[0, 64]).is_err(), "{design}");

        assert_eq!(
            all_bounds(&engine),
            before,
            "{design}: rollback must restore the fully-moved driver AND the half-moved sibling"
        );
        for k in [0u64, 63, 64, 300, 511] {
            assert!(read_transaction(&engine, ROOT, k).is_some(), "{design}");
            assert!(
                read_transaction(&engine, SIBLING_A, k * 4).is_some(),
                "{design}"
            );
            assert!(
                read_transaction(&engine, SIBLING_B, k * 8).is_some(),
                "{design}"
            );
        }
    }
}

#[test]
fn repartition_drains_inflight_multistage_transactions() {
    for design in Design::ALL.into_iter().filter(|d| d.is_partitioned()) {
        repartition_races_every_execution_path(design);
    }
}

/// Multi-stage transactions racing controller-style repartitions and page
/// cleaning on `design`: stage 2 must always run under the same boundaries
/// its stage 1 was routed with (the drain closes the stage-2-loses-locks
/// hole).  Without the drain this trips latch-free ownership panics / lost
/// thread-local locks.  Four sessions on two partitions collide on claims,
/// so groups run both inline on the session thread and by message on the
/// worker; the ticket drain and every partition's claim must exclude both,
/// and a cleaning pass, from the window in which ownership moves.
fn repartition_races_every_execution_path(design: Design) {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    let engine = Arc::new(aligned_engine(design));
    let stop = AtomicBool::new(false);
    let committed = AtomicU64::new(0);

    let bumps: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let eng = &engine;
        let stop = &stop;
        let committed = &committed;
        let mut sessions = Vec::new();
        for t in 0..4u64 {
            sessions.push(scope.spawn(move || {
                let mut session = eng.session();
                let mut i = 0u64;
                // Acknowledged stage-2 updates per key.
                let mut bumped = vec![0u64; 512];
                while !stop.load(Ordering::Relaxed) {
                    i += 1;
                    let k1 = (i * 13 + t * 101) % 512;
                    let k2 = (i * 29 + t * 211) % 512;
                    let k3 = (i * 7 + t * 61) % 512;
                    let k4 = (i * 17 + t * 151) % 512;
                    // Stage 1 fans out over several keys — keys on the same
                    // side of the (moving) cut are batched into one worker
                    // message, keys on opposite sides dispatch separately;
                    // stage 2 (continuation) updates k4 — routed *after*
                    // stage 1 completed, under the same boundaries.
                    let reads: Vec<Action> = [k1, k2, k3]
                        .into_iter()
                        .map(|k| {
                            Action::new(ROOT, k, move |ctx| {
                                let row = ctx.read(ROOT, k)?;
                                assert!(row.is_some());
                                Ok(ActionOutput::with_values(vec![k]))
                            })
                        })
                        .collect();
                    let plan = TransactionPlan::parallel(reads).followed_by(move |outputs| {
                        // Batched replies must scatter back in stage order.
                        let echoed: Vec<u64> = outputs.iter().map(|o| o.values[0]).collect();
                        assert_eq!(echoed, vec![k1, k2, k3], "stage outputs out of order");
                        TransactionPlan::single(Action::new(ROOT, k4, move |ctx| {
                            let updated = ctx.update(ROOT, k4, &mut |rec| {
                                rec[0] = rec[0].wrapping_add(1);
                            })?;
                            assert!(updated);
                            Ok(ActionOutput::empty())
                        }))
                    });
                    session.execute(plan).expect("multi-stage txn must commit");
                    committed.fetch_add(1, Ordering::Relaxed);
                    bumped[k4 as usize] += 1;
                }
                bumped
            }));
        }
        // Page cleaning races the load and the repartitions.
        scope.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                eng.clean_pages();
                std::thread::yield_now();
            }
        });
        scope.spawn(move || {
            // Bounce the boundaries back and forth while the load runs.
            for round in 0..6 {
                std::thread::sleep(std::time::Duration::from_millis(10));
                let cut = if round % 2 == 0 { 64 } else { 256 };
                eng.repartition(ROOT, &[0, cut])
                    .expect("repartition succeeds");
            }
            stop.store(true, Ordering::Relaxed);
        });
        sessions
            .into_iter()
            .map(|s| s.join().expect("session thread"))
            .collect()
    });
    assert!(committed.load(Ordering::Relaxed) > 0, "{design}");
    // All sibling tables stayed aligned with the final cut.
    let pm = engine.partition_manager().unwrap();
    assert_eq!(pm.bounds(ROOT), vec![0, 256], "{design}");
    assert_eq!(pm.bounds(SIBLING_A), vec![0, 1024], "{design}");
    assert_eq!(pm.bounds(SIBLING_B), vec![0, 2048], "{design}");
    // The load ran on the session threads and on the workers, nothing is
    // left in flight, and no row or acknowledged update went missing while
    // ownership moved under it: byte 0 of each root row counts its stage-2
    // updates.
    let msg = engine.db().stats().snapshot().msg;
    assert!(
        msg.inline_actions > 0,
        "{design}: sessions never ran inline: {msg:?}"
    );
    assert!(
        msg.lane_hits + msg.lane_fallbacks > 0,
        "{design}: no group went by message: {msg:?}"
    );
    assert_eq!(pm.inflight_txns(), 0, "{design}");
    for k in 0..512u64 {
        let row = read_transaction(&engine, ROOT, k).expect("root row lost");
        let expected: u64 = bumps.iter().map(|b| b[k as usize]).sum();
        assert_eq!(
            row[0],
            b'r'.wrapping_add(expected as u8),
            "{design}: root key {k}"
        );
        assert_eq!(&row[1..], &format!("root-{k}").as_bytes()[1..]);
        assert!(read_transaction(&engine, SIBLING_A, k * 4).is_some());
        assert!(read_transaction(&engine, SIBLING_B, k * 8).is_some());
    }
}
