//! One message shape: a contended action group pays exactly one message,
//! whatever its size, and the `/metrics` families count those messages the
//! way the benchmark ledger's formulas read them — `plp_msg_actions_total`
//! per message, `plp_msg_batches_total` and `plp_msg_batch_actions_total`
//! per multi-action message — so messaged actions are always
//! `actions − batches + batch_actions`.
//!
//! The message path is forced the way `flight_recorder.rs` does it: other
//! sessions hold both partitions' claims inside blocking actions while the
//! session under test dispatches a stage to them.  The same holders pin the
//! stage semantics of `design_smoke.rs` on the message path, and how
//! sessions share the engine's pooled links (a lane and a reply slot per
//! worker).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

use plp_core::{
    Action, ActionOutput, Design, Engine, EngineConfig, EngineError, TableId, TableSpec,
    TransactionPlan,
};
use plp_instrument::{parse_exposition, prometheus_exposition, CsCategory};

const TABLE: TableId = TableId(0);
const KEY_SPACE: u64 = 4096;
/// First key of partition 1 (two partitions split the key space in half).
const P1: u64 = KEY_SPACE / 2;

/// The unlabelled sample `name` of the engine's current `/metrics` text.
fn metric(engine: &Engine, name: &str) -> f64 {
    let stats = engine.db().stats();
    let text = prometheus_exposition(&stats.snapshot(), &stats.latency().snapshot());
    parse_exposition(&text)
        .expect("exposition parses")
        .into_iter()
        .find(|s| s.name == name && s.labels.is_empty())
        .unwrap_or_else(|| panic!("missing {name}"))
        .value
}

/// Messages sent so far (every message takes a lane).
fn messages_sent(engine: &Engine) -> u64 {
    engine.db().stats().snapshot().msg.lane_hits
}

/// A session sitting inside an action on one partition, holding its claim
/// until released, so every group sent to that partition meanwhile has to
/// travel as a message.
struct Holder<'scope> {
    release: mpsc::Sender<()>,
    thread: ScopedJoinHandle<'scope, Vec<ActionOutput>>,
}

impl<'scope> Holder<'scope> {
    /// Start the holder of `key`'s partition; returns once it is inside its
    /// action.
    fn start<'env>(scope: &'scope Scope<'scope, 'env>, engine: &'env Engine, key: u64) -> Self {
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release, release_rx) = mpsc::channel::<()>();
        let thread = scope.spawn(move || {
            engine
                .session()
                .execute(TransactionPlan::single(Action::new(
                    TABLE,
                    key,
                    move |_ctx| {
                        entered_tx.send(()).unwrap();
                        release_rx.recv().unwrap();
                        Ok(ActionOutput::empty())
                    },
                )))
                .expect("holder commits once released")
        });
        entered_rx.recv().expect("holder is inside its action");
        Self { release, thread }
    }

    fn release(self) {
        self.release.send(()).unwrap();
        self.thread.join().expect("holder thread");
    }
}

/// Wait until `count` more messages than `before` have been sent.
fn await_messages(engine: &Engine, before: u64, count: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while messages_sent(engine) < before + count {
        assert!(Instant::now() < deadline, "{count} messages never went out");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A two-partition PLP-Regular engine with keys `0..16` and `P1..P1 + 16`
/// loaded, each holding its own key.
fn loaded_engine() -> Engine {
    let config = EngineConfig::new(Design::PlpRegular).with_partitions(2);
    let engine = Engine::start(config, &[TableSpec::new(0, "shape", KEY_SPACE)]);
    for k in (0..16).chain(P1..P1 + 16) {
        engine
            .db()
            .load_record(TABLE, k, &k.to_le_bytes(), None)
            .unwrap();
    }
    engine.finish_loading();
    engine
}

/// A read of `key` that answers with its position in the stage.
fn read_at(key: u64, index: u64) -> Action {
    Action::new(TABLE, key, move |ctx| {
        assert!(ctx.read(TABLE, key)?.is_some(), "key {key} is loaded");
        Ok(ActionOutput::with_values(vec![index]))
    })
}

#[test]
fn a_contended_group_is_one_message_whatever_its_size() {
    let mut engine = loaded_engine();

    std::thread::scope(|scope| {
        let engine = &engine;
        let holders = [5, P1 + 5].map(|key| Holder::start(scope, engine, key));
        let names = [
            "plp_msg_actions_total",
            "plp_msg_batches_total",
            "plp_msg_batch_actions_total",
        ];
        let before = names.map(|n| metric(engine, n));
        let sent_before = messages_sent(engine);

        // One stage: a 3-action group for partition 1 interleaved with a
        // singleton group for partition 0.
        let victim = scope.spawn(move || {
            engine.session().execute(TransactionPlan::parallel(vec![
                read_at(P1 + 1, 0),
                read_at(2, 1),
                read_at(P1 + 3, 2),
                read_at(P1 + 4, 3),
            ]))
        });
        await_messages(engine, sent_before, 2);
        holders.into_iter().for_each(Holder::release);
        let outputs = victim.join().expect("victim thread").expect("commits");

        // Replies scatter back into stage order, not group order.
        let order: Vec<Vec<u64>> = outputs.into_iter().map(|o| o.values).collect();
        assert_eq!(order, vec![vec![0], vec![1], vec![2], vec![3]]);
        let after = names.map(|n| metric(engine, n));
        let delta: Vec<f64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        assert_eq!(
            delta,
            vec![2.0, 1.0, 3.0],
            "{names:?}: two messages, one of them a batch of three"
        );
    });
    engine.shutdown();
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

/// A read of `key` that answers with the value stored there (every loaded
/// record holds its own key).
fn read_value(key: u64) -> Action {
    Action::new(TABLE, key, move |ctx| {
        let row = ctx.read(TABLE, key)?.expect("key is loaded");
        Ok(ActionOutput::with_values(vec![u64::from_le_bytes(
            row[..8].try_into().unwrap(),
        )]))
    })
}

/// Execute `plan` while one holder per key in `held` keeps that key's
/// partition's claim, releasing the holders once the plan's first stage has
/// sent one message per holder.  Returns the plan's result and the
/// transaction-manager critical sections the holders and the plan entered.
fn execute_with_claims_held(
    engine: &Engine,
    held: &[u64],
    plan: TransactionPlan,
) -> (Result<Vec<ActionOutput>, EngineError>, u64) {
    let xct_before = xct_mgr_entries(engine);
    let result = std::thread::scope(|scope| {
        let holders: Vec<Holder> = held
            .iter()
            .map(|&key| Holder::start(scope, engine, key))
            .collect();
        let sent_before = messages_sent(engine);
        let victim = scope.spawn(move || engine.session().execute(plan));
        await_messages(engine, sent_before, held.len() as u64);
        holders.into_iter().for_each(Holder::release);
        victim.join().expect("victim thread")
    });
    (result, xct_mgr_entries(engine) - xct_before)
}

/// The stage semantics `design_smoke.rs` pins on the inline path, on the
/// message path of every partitioned design: a continuation reads its
/// messaged stage's outputs, results come back stage by stage in index
/// order, a commit enters the transaction manager 1 + (actions) times, and
/// a failing stage answers its lowest-indexed error without continuing.
#[test]
fn a_messaged_stage_keeps_the_stage_semantics() {
    for design in Design::ALL.into_iter().filter(|d| d.is_partitioned()) {
        let config = EngineConfig::new(design).with_partitions(2);
        let mut engine = Engine::start(config, &[TableSpec::new(0, "shape", KEY_SPACE)]);
        for k in (0..16).chain(P1..P1 + 16) {
            engine
                .db()
                .load_record(TABLE, k, &k.to_le_bytes(), None)
                .unwrap();
        }
        engine.finish_loading();

        let two_stages = TransactionPlan::parallel(vec![read_value(P1 + 1), read_value(2)])
            .followed_by(|outputs: &[ActionOutput]| {
                TransactionPlan::parallel(
                    outputs
                        .iter()
                        .rev()
                        .map(|o| read_value(o.values[0] + 1))
                        .collect(),
                )
            });
        let (result, xct) = execute_with_claims_held(&engine, &[5, P1 + 5], two_stages);
        let values: Vec<Vec<u64>> = result
            .expect("commits")
            .into_iter()
            .map(|o| o.values)
            .collect();
        assert_eq!(
            values,
            vec![vec![P1 + 1], vec![2], vec![3], vec![P1 + 2]],
            "{design}"
        );
        // Each holder: begin plus a one-action commit.
        assert_eq!(xct, 2 * 2 + 1 + 4, "{design}");

        let continued = Arc::new(AtomicBool::new(false));
        let flag = continued.clone();
        // Partition 1's group [0, 2] is sent, and answers, ahead of
        // partition 0's [1].
        let failing = TransactionPlan::parallel(vec![
            read_value(P1 + 1),
            Action::new(TABLE, 2, |ctx| {
                ctx.insert(TABLE, 2, b"taken", None)?;
                Ok(ActionOutput::empty())
            }),
            Action::new(TABLE, P1 + 3, |_ctx| {
                Err(EngineError::Abort("action 2".into()))
            }),
        ])
        .followed_by(move |_| {
            flag.store(true, Ordering::SeqCst);
            TransactionPlan::empty()
        });
        let (result, _) = execute_with_claims_held(&engine, &[5, P1 + 5], failing);
        assert_eq!(
            result,
            Err(EngineError::DuplicateKey {
                table: TABLE,
                key: 2
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

/// No message outlives its transaction's ticket: when one group's worker
/// dies, the stage still waits for every other group it sent before it
/// answers `Shutdown`, so no action of the transaction is left running
/// where a repartition could move ownership under it.
#[test]
fn a_stage_whose_worker_died_waits_for_its_other_groups() {
    let engine = loaded_engine();
    // Worker 0 dies in the stage, so the engine is leaked rather than shut
    // down around a dead thread.
    let engine: &'static Engine = Box::leak(Box::new(engine));

    let finished = Arc::new(AtomicBool::new(false));
    let flag = finished.clone();
    let stage = TransactionPlan::parallel(vec![
        Action::new(TABLE, 2, |_ctx| panic!("injected worker fault")),
        Action::new(TABLE, P1 + 2, move |_ctx| {
            std::thread::sleep(Duration::from_millis(50));
            flag.store(true, Ordering::SeqCst);
            Ok(ActionOutput::empty())
        }),
    ]);
    let (result, _) = execute_with_claims_held(engine, &[5, P1 + 5], stage);
    assert_eq!(result, Err(EngineError::Shutdown));
    assert!(
        finished.load(Ordering::SeqCst),
        "the stage answered while its partition-1 group was still running"
    );
}

/// `(allocations, reuses)` of reply rendezvous so far, as `/metrics` reads
/// them.
fn reply_slots(engine: &Engine) -> (f64, f64) {
    (
        metric(engine, "plp_msg_reply_allocs_total"),
        metric(engine, "plp_msg_reply_reuses_total"),
    )
}

/// Links are bounded by how many sessions send at once, not by how many
/// ever did: sessions that send one after another share one link, so one
/// reply slot serves them all.
#[test]
fn sequential_sessions_share_one_link() {
    let mut engine = loaded_engine();
    for i in 0..50 {
        let (result, _) =
            execute_with_claims_held(&engine, &[5], TransactionPlan::single(read_value(i % 16)));
        assert_eq!(result.expect("commits")[0].values, vec![i % 16]);
    }
    assert_eq!(reply_slots(&engine), (1.0, 49.0), "(allocations, reuses)");
    engine.shutdown();
}

/// A session that unwinds mid-stage, with a message still in flight, gives
/// its link back without the in-flight reply slot: the next session reuses
/// the link, allocates a fresh slot for that worker, and its message —
/// queued on the same lane behind the orphaned one — gets its own reply.
#[test]
fn an_unwound_session_gives_its_link_back_without_the_inflight_slot() {
    let mut engine = loaded_engine();
    // One session sends to both workers: one link, two slots.
    let (result, _) = execute_with_claims_held(
        &engine,
        &[5, P1 + 5],
        TransactionPlan::parallel(vec![read_value(1), read_value(P1 + 1)]),
    );
    result.expect("commits");
    assert_eq!(reply_slots(&engine), (2.0, 0.0));
    std::thread::scope(|scope| {
        let engine = &engine;
        let p1 = Holder::start(scope, engine, P1 + 5);
        // Partition 1's group goes out as a message, then partition 0's runs
        // inline and panics.
        let sent_before = messages_sent(engine);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            engine.session().execute(TransactionPlan::parallel(vec![
                read_value(P1 + 1),
                Action::new(TABLE, 2, |_ctx| panic!("injected inline fault")),
            ]))
        }));
        assert!(unwound.is_err(), "the inline action panicked");
        assert_eq!(messages_sent(engine), sent_before + 1);
        assert_eq!(reply_slots(engine), (2.0, 1.0));
        // Partition 1 is still held, with the orphaned message in its lane.
        let p0 = Holder::start(scope, engine, 5);
        let sent_before = messages_sent(engine);
        let next = scope.spawn(move || {
            engine.session().execute(TransactionPlan::parallel(vec![
                read_value(P1 + 3),
                read_value(3),
            ]))
        });
        await_messages(engine, sent_before, 2);
        p0.release();
        p1.release();
        let values: Vec<Vec<u64>> = next
            .join()
            .expect("next session")
            .expect("commits")
            .into_iter()
            .map(|o| o.values)
            .collect();
        assert_eq!(values, vec![vec![P1 + 3], vec![3]]);
    });
    // The pooled link's partition-0 slot was reused; its partition-1 slot
    // went down with the unwound session and was allocated afresh.
    assert_eq!(reply_slots(&engine), (3.0, 2.0), "(allocations, reuses)");
    engine.shutdown();
}
