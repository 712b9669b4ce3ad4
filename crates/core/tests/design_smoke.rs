//! Per-design smoke test: the same tiny, deterministic transaction batch must
//! commit on every execution design, with identical commit counts. This
//! guards the engine front-ends (inline conventional execution vs
//! worker-routed partitioned execution) against behavioural drift without
//! involving the workload crate.

use plp_core::{
    Action, ActionOutput, Design, Engine, EngineConfig, TableId, TableSpec, TransactionPlan,
};

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
