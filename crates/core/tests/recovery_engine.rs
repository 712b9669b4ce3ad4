//! Engine-level crash recovery: a Strict-durability engine whose process
//! state is thrown away must come back via `Engine::recover` with every
//! committed transaction intact, identical partition boundaries, and no
//! uncommitted effects.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use plp_core::{
    Action, ActionOutput, Design, Engine, EngineConfig, TableId, TableSpec, TransactionPlan,
};
use plp_wal::test_support::TempDir;
use plp_wal::DurabilityMode;

const TABLE: TableId = TableId(0);
const KEY_SPACE: u64 = 4096;

fn config(design: Design, dir: &Path) -> EngineConfig {
    EngineConfig::new(design)
        .with_partitions(2)
        .with_durability(DurabilityMode::Strict)
        .with_log_dir(dir)
        .with_log_segment_bytes(16 * 1024) // force segment rolling
}

fn schema() -> Vec<TableSpec> {
    vec![TableSpec::new(0, "accounts", KEY_SPACE).with_secondary()]
}

fn read_key(engine: &Engine, key: u64) -> Option<Vec<u8>> {
    let mut session = engine.session();
    let out = session
        .execute(TransactionPlan::single(Action::new(
            TABLE,
            key,
            move |ctx| {
                let row = ctx.read(TABLE, key)?;
                Ok(ActionOutput::with_rows(row.into_iter().collect()))
            },
        )))
        .expect("recovered engine must serve reads");
    out.into_iter()
        .next()
        .and_then(|o| o.rows.into_iter().next())
}

/// Run a deterministic mix of inserts, updates and deletes; return the
/// expected visible state.
fn run_mutations(engine: &Engine) -> BTreeMap<u64, Vec<u8>> {
    let mut expected: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    // Preloaded keys 0..64 (value = key bytes, padded).
    for k in 0..64u64 {
        let mut v = k.to_le_bytes().to_vec();
        v.resize(16, 0xAB);
        expected.insert(k, v);
    }
    let mut session = engine.session();
    for i in 0..120u64 {
        match i % 3 {
            // Insert a fresh key above the preloaded range.
            0 => {
                let key = 1000 + i;
                let val = format!("inserted-{i}").into_bytes();
                let v = val.clone();
                session
                    .execute(TransactionPlan::single(Action::new(
                        TABLE,
                        key,
                        move |ctx| {
                            ctx.insert(TABLE, key, &v, Some(100_000 + key))?;
                            Ok(ActionOutput::empty())
                        },
                    )))
                    .unwrap();
                expected.insert(key, val);
            }
            // Update a still-live preloaded key in place (0..32 are never
            // deleted).
            1 => {
                let key = i % 32;
                session
                    .execute(TransactionPlan::single(Action::new(
                        TABLE,
                        key,
                        move |ctx| {
                            let updated = ctx.update(TABLE, key, &mut |rec| {
                                rec[8] = rec[8].wrapping_add(1);
                                rec[9] = 0xEE;
                            })?;
                            assert!(updated);
                            Ok(ActionOutput::empty())
                        },
                    )))
                    .unwrap();
                let rec = expected.get_mut(&key).unwrap();
                rec[8] = rec[8].wrapping_add(1);
                rec[9] = 0xEE;
            }
            // Delete a preloaded key (each exactly once).
            _ => {
                let key = 32 + (i / 3) % 32;
                if expected.remove(&key).is_some() {
                    session
                        .execute(TransactionPlan::single(Action::new(
                            TABLE,
                            key,
                            move |ctx| {
                                ctx.delete(TABLE, key, None)?;
                                Ok(ActionOutput::empty())
                            },
                        )))
                        .unwrap();
                }
            }
        }
    }
    expected
}

fn build_loaded_engine(design: Design, dir: &Path) -> Engine {
    let engine = Engine::start(config(design, dir), &schema());
    for k in 0..64u64 {
        let mut v = k.to_le_bytes().to_vec();
        v.resize(16, 0xAB);
        engine
            .db()
            .load_record(TABLE, k, &v, Some(100_000 + k))
            .unwrap();
    }
    engine.finish_loading();
    engine
}

#[test]
fn recover_restores_committed_state_for_every_design() {
    for design in [
        Design::Conventional { sli: true },
        Design::LogicalOnly,
        Design::PlpRegular,
        Design::PlpLeaf,
    ] {
        let dir = TempDir::new("plp-recovery-engine-designs");
        let dir = dir.path();
        let engine = build_loaded_engine(design, dir);
        let expected = run_mutations(&engine);
        let writers = engine.db().stats().committed();
        // Read-only transactions commit too, but append no commit record.
        for key in 0..8 {
            read_key(&engine, key);
        }
        assert_eq!(engine.db().stats().committed(), writers + 8);
        // Drop without shutdown: no final checkpoint is cut; Strict already
        // made every commit durable.
        drop(engine);

        let (recovered, report) =
            Engine::recover(dir, config(design, dir), &schema()).expect("recovery");
        assert_eq!(
            report.committed_txns, writers,
            "{design}: every committed writer must be found, and only writers"
        );
        assert_eq!(report.torn_bytes, 0, "{design}: clean log has no torn tail");
        recovered.finish_loading();
        for (key, val) in &expected {
            assert_eq!(
                read_key(&recovered, *key).as_deref(),
                Some(val.as_slice()),
                "{design}: key {key} must recover"
            );
        }
        // Deleted and never-inserted keys stay gone.
        for key in [32u64, 40, 2000, 3000] {
            if !expected.contains_key(&key) {
                assert_eq!(read_key(&recovered, key), None, "{design}: key {key}");
            }
        }
        // Secondary index was rebuilt through replay.
        let t = recovered.db().table(TABLE).unwrap();
        for (key, _) in expected.iter().take(5) {
            assert_eq!(t.secondary_probe(100_000 + key).unwrap(), Some(*key));
        }
    }
}

#[test]
fn recover_restores_repartitioned_boundaries_identically() {
    let dir = TempDir::new("plp-recovery-engine-bounds");
    let dir = dir.path();
    let engine = build_loaded_engine(Design::PlpRegular, dir);
    let _ = run_mutations(&engine);
    engine.repartition(TABLE, &[0, 777]).unwrap();
    // More work after the repartition so the log tail covers both.
    let mut session = engine.session();
    session
        .execute(TransactionPlan::single(Action::new(TABLE, 3000, |ctx| {
            ctx.insert(TABLE, 3000, b"after-repartition", None)?;
            Ok(ActionOutput::empty())
        })))
        .unwrap();
    let bounds_before = engine.partition_manager().unwrap().bounds(TABLE);
    assert_eq!(bounds_before, vec![0, 777]);
    drop(session);
    drop(engine);

    let (recovered, report) =
        Engine::recover(dir, config(Design::PlpRegular, dir), &schema()).expect("recovery");
    assert_eq!(
        recovered.partition_manager().unwrap().bounds(TABLE),
        bounds_before,
        "recovered engine must route identically"
    );
    assert!(report.tables_rebounded >= 1);
    recovered.finish_loading();
    assert_eq!(
        read_key(&recovered, 3000).as_deref(),
        Some(b"after-repartition".as_slice())
    );
}

#[test]
fn background_checkpointer_cuts_fuzzy_checkpoints_that_seed_recovery() {
    let dir = TempDir::new("plp-recovery-engine-checkpointer");
    let dir = dir.path();
    let cfg = config(Design::PlpLeaf, dir).with_checkpoint_interval(Duration::from_millis(20));
    let engine = Engine::start(cfg.clone(), &schema());
    for k in 0..64u64 {
        let mut v = k.to_le_bytes().to_vec();
        v.resize(16, 0xAB);
        engine.db().load_record(TABLE, k, &v, None).unwrap();
    }
    engine.finish_loading();
    let expected = run_mutations(&engine);
    // Let the background thread cut at least one checkpoint over live state.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while engine.db().stats().wal().snapshot().checkpoints == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "checkpointer never ran"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(engine);

    let (recovered, report) = Engine::recover(dir, cfg, &schema()).expect("recovery");
    assert!(
        report.checkpoint_lsn.is_some(),
        "recovery must find the background checkpoint"
    );
    recovered.finish_loading();
    for (key, val) in expected.iter().take(20) {
        assert_eq!(read_key(&recovered, *key).as_deref(), Some(val.as_slice()));
    }
}

#[test]
fn clean_shutdown_writes_final_checkpoint() {
    let dir = TempDir::new("plp-recovery-engine-shutdown");
    let dir = dir.path();
    let mut engine = build_loaded_engine(Design::PlpRegular, dir);
    let expected = run_mutations(&engine);
    engine.shutdown();
    drop(engine);
    let scan = plp_wal::scan_log(dir).unwrap();
    assert!(
        scan.checkpoint.is_some(),
        "shutdown cuts a final checkpoint"
    );
    let (recovered, _) = Engine::recover(dir, config(Design::PlpRegular, dir), &schema()).unwrap();
    recovered.finish_loading();
    for (key, val) in expected.iter().take(10) {
        assert_eq!(read_key(&recovered, *key).as_deref(), Some(val.as_slice()));
    }
}

#[test]
fn recover_rejects_partition_count_mismatch() {
    let dir = TempDir::new("plp-recovery-engine-mismatch");
    let dir = dir.path();
    let mut engine = build_loaded_engine(Design::PlpRegular, dir);
    engine.shutdown(); // writes a checkpoint recording 2 partitions
    drop(engine);
    let bad = config(Design::PlpRegular, dir).with_partitions(4);
    let err = Engine::recover(dir, bad, &schema());
    assert!(matches!(err, Err(plp_core::EngineError::Recovery(_))));
}

#[test]
fn lazy_engine_without_log_dir_still_works_and_recovery_of_empty_dir_is_empty() {
    // No device: behaviour is unchanged (simulated durability).
    let engine = Engine::start(
        EngineConfig::new(Design::PlpRegular).with_partitions(2),
        &schema(),
    );
    engine.db().load_record(TABLE, 1, b"x", None).unwrap();
    engine.finish_loading();
    assert!(read_key(&engine, 1).is_some());
    drop(engine);
    // Recovering a never-written directory yields an empty engine.
    let dir = TempDir::new("plp-recovery-engine-empty");
    let dir = dir.path();
    let (recovered, report) =
        Engine::recover(dir, config(Design::PlpRegular, dir), &schema()).unwrap();
    assert_eq!(report.committed_txns, 0);
    assert_eq!(report.records_replayed, 0);
    recovered.finish_loading();
    assert_eq!(read_key(&recovered, 1), None);
}

/// The group-commit flusher owns an `Arc` of its `LogManager`; an engine that
/// did not stop it at shutdown would leave the thread behind, waking every
/// 100 µs for the rest of the process (six of them cost a later benchmark
/// workload 20 % of its throughput).  Once the engine is gone, nothing may
/// keep the log manager alive.
#[test]
fn shutdown_stops_the_wal_flusher() {
    let dir = TempDir::new("plp-recovery-engine-flusher");
    let dir = dir.path();
    let mut engine = Engine::start(config(Design::PlpRegular, dir), &schema());
    engine
        .db()
        .load_record(TABLE, 1, b"row", None)
        .expect("load");
    engine.finish_loading();
    assert!(read_key(&engine, 1).is_some());
    let log = std::sync::Arc::downgrade(engine.db().log_manager());
    let owners_while_running = log.strong_count();
    engine.shutdown();
    assert_eq!(
        log.strong_count(),
        owners_while_running - 1,
        "shutdown must join the flusher, the one owner that is a thread"
    );
    // Idempotent, and callable after shutdown (the benchmark does).
    engine.db().log_manager().stop_flusher();
    drop(engine);
    assert!(
        log.upgrade().is_none(),
        "the flusher thread outlived Engine::shutdown"
    );
}

/// `Engine::recover` leaves the engine loaded: it serves requests without a
/// `finish_loading` call, on the conventional and the partitioned designs.
#[test]
fn a_recovered_engine_serves_without_finish_loading() {
    for design in [Design::Conventional { sli: false }, Design::PlpLeaf] {
        let dir = TempDir::new("plp-recovery-engine-loaded");
        let dir = dir.path();
        let mut engine = Engine::start(config(design, dir), &schema());
        engine.db().load_record(TABLE, 1, b"row", None).unwrap();
        engine.finish_loading();
        engine.shutdown();
        drop(engine);
        let (recovered, _) = Engine::recover(dir, config(design, dir), &schema()).unwrap();
        assert_eq!(
            read_key(&recovered, 1).as_deref(),
            Some(&b"row"[..]),
            "{design:?}"
        );
    }
}

/// `Engine::recover` admits transactions through the same point as
/// `finish_loading`, so a recovered engine's load balancer runs too: it
/// keeps aging its histograms while the engine idles.
#[test]
fn a_recovered_engine_resumes_its_load_balancer() {
    let dir = TempDir::new("plp-recovery-engine-dlb");
    let dir = dir.path();
    let with_dlb = || config(Design::PlpRegular, dir).with_dlb();
    let mut engine = Engine::start(with_dlb(), &schema());
    engine.db().load_record(TABLE, 1, b"row", None).unwrap();
    engine.finish_loading();
    engine.shutdown();
    drop(engine);
    let (recovered, _) = Engine::recover(dir, with_dlb(), &schema()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while recovered.db().stats().snapshot().dlb.decay_rounds == 0 {
        assert!(
            Instant::now() < deadline,
            "the recovered engine's load balancer never aged its histograms"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}
