//! One message shape: a contended action group pays exactly one message,
//! whatever its size, and the `/metrics` families count those messages the
//! way the benchmark ledger's formulas read them — `plp_msg_actions_total`
//! per message, `plp_msg_batches_total` and `plp_msg_batch_actions_total`
//! per multi-action message — so messaged actions are always
//! `actions − batches + batch_actions`.
//!
//! The message path is forced the way `flight_recorder.rs` does it: other
//! sessions hold both partitions' claims inside blocking actions while the
//! session under test dispatches a stage to them.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use plp_core::{
    Action, ActionOutput, Design, Engine, EngineConfig, TableId, TableSpec, TransactionPlan,
};
use plp_instrument::{parse_exposition, prometheus_exposition};

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

/// Messages sent so far, whichever path each took.
fn messages_sent(engine: &Engine) -> u64 {
    let msg = engine.db().stats().snapshot().msg;
    msg.lane_hits + msg.lane_fallbacks
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
    let config = EngineConfig::new(Design::PlpRegular).with_partitions(2);
    let mut engine = Engine::start(config, &[TableSpec::new(0, "shape", KEY_SPACE)]);
    for k in (0..16).chain(P1..P1 + 16) {
        engine
            .db()
            .load_record(TABLE, k, &k.to_le_bytes(), None)
            .unwrap();
    }
    engine.finish_loading();

    std::thread::scope(|scope| {
        let engine = &engine;
        // One holder per partition sits inside its action, holding the claim
        // until released, so every group sent to either partition meanwhile
        // has to travel as a message.
        let mut releases = Vec::new();
        let mut holders = Vec::new();
        for key in [5, P1 + 5] {
            let (entered_tx, entered_rx) = mpsc::channel();
            let (release_tx, release_rx) = mpsc::channel::<()>();
            holders.push(scope.spawn(move || {
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
            }));
            entered_rx.recv().expect("holder is inside its action");
            releases.push(release_tx);
        }
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
        let deadline = Instant::now() + Duration::from_secs(10);
        while messages_sent(engine) < sent_before + 2 {
            assert!(
                Instant::now() < deadline,
                "the stage's two messages never went out"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        for release in releases {
            release.send(()).unwrap();
        }
        for holder in holders {
            holder.join().expect("holder thread");
        }
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
