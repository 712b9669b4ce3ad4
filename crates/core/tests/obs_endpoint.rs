//! Live observability endpoint: scrapes under load and per-phase latency
//! attribution.
//!
//! Two properties are pinned here.  First, `/metrics` must serve a *valid*
//! Prometheus exposition at any moment of a live run — concurrent scrapers
//! race partition workers mutating every counter, and each response must
//! still parse, carry internally-consistent histogram series, and show a
//! monotonically non-decreasing committed-transaction counter.  Second, the
//! per-phase attribution must reconcile: queue + lock + execute + reply is
//! derived to equal the session-observed time of every action group —
//! messaged or run inline by the session — so the phase histogram sums must
//! equal the `action_roundtrip` sum exactly once the engine is quiesced.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use plp_core::{
    Action, ActionOutput, Design, Engine, EngineConfig, TableId, TableSpec, TransactionPlan,
};
use plp_instrument::{obs_enabled, parse_exposition, validate_histogram_series, MetricSample};

const TABLE: TableId = TableId(0);
const KEY_SPACE: u64 = 4096;

fn test_engine() -> Engine {
    let config = EngineConfig::new(Design::PlpRegular)
        .with_partitions(2)
        .with_obs_endpoint("127.0.0.1:0");
    let engine = Engine::start(config, &[TableSpec::new(0, "obs", KEY_SPACE)]);
    for k in 0..256 {
        engine
            .db()
            .load_record(TABLE, k, &k.to_le_bytes(), None)
            .unwrap();
    }
    engine.finish_loading();
    engine
}

fn read_action(key: u64) -> Action {
    Action::new(TABLE, key, move |ctx| {
        ctx.read(TABLE, key)?;
        Ok(ActionOutput::with_values(vec![key]))
    })
}

/// A plan that exercises both dispatch shapes: two actions on the same
/// worker (batched) plus one on the other (singleton).
fn mixed_plan(k: u64) -> TransactionPlan {
    TransactionPlan::parallel(vec![
        read_action(k % (KEY_SPACE / 2)),
        read_action((k + 7) % (KEY_SPACE / 2)),
        read_action(KEY_SPACE / 2 + k % (KEY_SPACE / 2)),
    ])
}

fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect obs endpoint");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("header/body separator");
    (
        head.lines().next().unwrap_or("").to_string(),
        body.to_string(),
    )
}

fn sample_value(samples: &[MetricSample], name: &str) -> f64 {
    samples
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no sample {name}"))
        .value
}

#[test]
fn concurrent_scrapes_stay_valid_during_live_run() {
    if !obs_enabled() {
        return; // obs-stub builds do not start the endpoint
    }
    let mut engine = test_engine();
    let addr = engine.obs_addr().expect("endpoint configured");
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        // Two load threads keep both workers busy while scrapers read.
        for t in 0..2u64 {
            let stop = Arc::clone(&stop);
            let engine = &engine;
            scope.spawn(move || {
                let mut session = engine.session();
                let mut k = t * 1000;
                while !stop.load(Ordering::Relaxed) {
                    session.execute(mixed_plan(k)).expect("transaction");
                    k += 1;
                }
            });
        }
        let scrapers: Vec<_> = (0..3)
            .map(|_| {
                scope.spawn(move || {
                    let mut last_committed = 0.0f64;
                    for _ in 0..10 {
                        let (status, body) = http_get(addr, "/metrics");
                        assert!(status.contains("200"), "{status}");
                        let samples = parse_exposition(&body).expect("valid exposition under load");
                        validate_histogram_series(&samples)
                            .expect("consistent histograms under load");
                        let committed = sample_value(&samples, "plp_txn_committed_total");
                        assert!(
                            committed >= last_committed,
                            "committed counter went backwards: {committed} < {last_committed}"
                        );
                        last_committed = committed;
                    }
                    last_committed
                })
            })
            .collect();
        let mut final_counts = Vec::new();
        for s in scrapers {
            final_counts.push(s.join().expect("scraper"));
        }
        stop.store(true, Ordering::Relaxed);
        // The load threads ran for the scrapers' whole lifetime, so at least
        // one scrape must have observed committed transactions.
        assert!(
            final_counts.iter().any(|c| *c > 0.0),
            "no scrape ever observed a committed transaction"
        );
    });

    // JSON routes answer during/after load too.
    let (status, body) = http_get(addr, "/slow.json");
    assert!(status.contains("200"), "{status}");
    assert!(
        body.contains("\"txn_id\""),
        "slow reservoir empty after a live run: {body}"
    );
    engine.shutdown();
    // After shutdown the listener is gone.
    assert!(
        TcpStream::connect(addr).is_err() || {
            let mut s = TcpStream::connect(addr).unwrap();
            let _ = s.write_all(b"GET /metrics HTTP/1.1\r\n\r\n");
            let mut out = String::new();
            let _ = s.read_to_string(&mut out);
            !out.contains("200 OK")
        },
        "endpoint still serving after shutdown"
    );
}

#[test]
fn phase_histograms_reconcile_with_roundtrip() {
    if !obs_enabled() {
        return;
    }
    let mut engine = test_engine();
    let stats = engine.db().stats().clone();
    // `action_roundtrip` records the session-observed time of every action
    // *group* — one per (worker, stage), whether the session ran it itself
    // or sent it as a message; each mixed plan is two groups — while the
    // phase histograms record the merged breakdown once per transaction
    // (a phase a transaction spent no time in is not recorded, so execute
    // counts transactions and the waits count those that waited).
    // Reply wait is derived as each group's remainder before merging, so
    // the four phase sums reconcile with the round-trip sum exactly.
    let reconcile = |txns: u64| {
        let latency = stats.latency().snapshot();
        assert_eq!(latency.action_roundtrip.count, 2 * txns);
        assert_eq!(latency.phase_execute.count, txns);
        assert!(latency.phase_queue_wait.count <= txns);
        assert!(latency.phase_reply_wait.count <= txns);
        assert_eq!(
            latency.phase_lock_wait.count, 0,
            "thread-local locks never block"
        );
        let phase_sum = latency.phase_queue_wait.sum
            + latency.phase_lock_wait.sum
            + latency.phase_execute.sum
            + latency.phase_reply_wait.sum;
        assert_eq!(
            phase_sum, latency.action_roundtrip.sum,
            "phase attribution must decompose the observed time exactly"
        );
        latency
    };

    // One session on an idle engine: every group runs inline — no message,
    // no queue wait, no reply wait; the whole observed time is execution.
    {
        let mut session = engine.session();
        for k in 0..200u64 {
            session.execute(mixed_plan(k)).expect("transaction");
        }
    }
    let msg = stats.snapshot().msg;
    assert_eq!(msg.actions, 0, "an idle engine sends no messages");
    assert_eq!(msg.inline_actions, 600);
    let latency = reconcile(200);
    assert_eq!(
        latency.phase_queue_wait.count + latency.phase_reply_wait.count,
        0
    );
    assert_eq!(latency.phase_execute.sum, latency.action_roundtrip.sum);

    // Four sessions on two partitions collide: some groups take the message
    // path (rounds repeat, bounded, until one has), and the same invariant
    // holds over the mix.
    for _round in 0..50 {
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let engine = &engine;
                scope.spawn(move || {
                    let mut session = engine.session();
                    for k in 0..200u64 {
                        session
                            .execute(mixed_plan(t * 1000 + k))
                            .expect("transaction");
                    }
                });
            }
        });
        if stats.snapshot().msg.actions > 0 {
            break;
        }
    }
    let snapshot = stats.snapshot();
    assert!(
        snapshot.msg.actions > 0,
        "no group was ever messaged: {:?}",
        snapshot.msg
    );
    let latency = reconcile(snapshot.committed);
    assert!(latency.phase_queue_wait.sum + latency.phase_reply_wait.sum > 0);

    // The endpoint exports the same equality.
    let addr = engine.obs_addr().expect("endpoint configured");
    let (status, body) = http_get(addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    let samples = parse_exposition(&body).expect("valid exposition");
    validate_histogram_series(&samples).expect("consistent histograms");
    let exported: f64 = [
        "plp_latency_phase_queue_wait_nanoseconds_sum",
        "plp_latency_phase_lock_wait_nanoseconds_sum",
        "plp_latency_phase_execute_nanoseconds_sum",
        "plp_latency_phase_reply_wait_nanoseconds_sum",
    ]
    .iter()
    .map(|n| sample_value(&samples, n))
    .sum();
    let roundtrip = sample_value(&samples, "plp_latency_action_roundtrip_nanoseconds_sum");
    assert_eq!(exported, roundtrip, "exported phase sums must reconcile");
    // Messages and inline runs are told apart in the exposition.
    assert_eq!(
        sample_value(&samples, "plp_msg_actions_total"),
        snapshot.msg.actions as f64
    );
    assert_eq!(
        sample_value(&samples, "plp_msg_inline_actions_total"),
        snapshot.msg.inline_actions as f64
    );
    engine.shutdown();
}
