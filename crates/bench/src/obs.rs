//! Observability-overhead benchmark (`fig_obs`): is default-on recording
//! actually free enough to leave on?
//!
//! The engine's flight recorder keeps latency histograms and trace rings hot
//! on every dispatch/reply/flush path (see `docs/observability.md`).  The
//! standing claim is that this recording is cheap enough to stay on by
//! default.  This module measures that claim instead of asserting it: the
//! same TATP burst runs once in the normal (instrumented) build and once in a
//! build with the `obs-stub` feature, which compiles every histogram and
//! trace-ring store to a no-op while leaving all control flow in place.
//!
//! The gated metric is the **stubbed/instrumented throughput ratio**: 1.0
//! means recording is free, 1.10 means it costs 10%.  Both sides run on the
//! same host in the same CI job, so the ratio is hardware-independent and can
//! be capped absolutely ([`OBS_OVERHEAD_CAP`]) on top of the usual
//! baseline-relative regression check.
//!
//! The stubbed side necessarily lives in a different compilation of the
//! workspace, so `fig_obs` re-executes itself through cargo (`--features
//! obs-stub -- --measure-only`) and parses the child's `MEASURE_TPS` line —
//! the same binary measures both sides, keeping the workloads identical.

use std::time::Duration;

use plp_core::{
    Action, ActionOutput, Design, Engine, EngineConfig, TableId, TableSpec, TransactionPlan,
};
use plp_workloads::driver::{prepare_engine, run_fixed};
use plp_workloads::tatp::Tatp;

use crate::msgcost::json_number;
use crate::Scale;

/// Hard cap on the stubbed/instrumented throughput ratio: default-on
/// recording may cost at most 10% of TATP throughput.  Applied as a floor on
/// the baseline-relative limit, mirroring the msgcost gate's
/// [`crate::msgcost::RATIO_FLOOR`] rationale: the cap absorbs cross-host
/// scheduler variance while still catching a hot-path collapse.
pub const OBS_OVERHEAD_CAP: f64 = 1.10;

/// Client threads (and partitions) for the overhead measurement; matches the
/// msgcost engine burst so the numbers describe the same hot path.
pub const OBS_THREADS: usize = 4;

/// Floor on transactions per client thread in one throughput sample.
const OBS_MIN_TXNS_PER_THREAD: u64 = 20_000;

/// Samples per side; the maximum is kept (throughput analog of msgcost's
/// min-of-N: scheduler noise only ever *lowers* throughput).
const SAMPLES: u32 = 3;

/// Scrape cadence during the instrumented measurement.  Production
/// Prometheus scrapes every 1-15 s; 500 ms is already 2-30x that rate, and
/// on a 1-vCPU runner every scrape preempts the partition workers, so an
/// unrealistically hot cadence (30 ms was tried) measures scheduler
/// thrashing, not serving cost.
const SCRAPE_INTERVAL: Duration = Duration::from_millis(500);

/// Interleaved measurement rounds (see [`measure_overhead`]).  Host speed on
/// small CI runners drifts by tens of percent over minutes, so measuring one
/// side entirely before the other folds that drift straight into the ratio.
/// Each round instead measures both sides back to back (the stubbed child
/// binary is cached after its one-off build, so they are seconds apart) and
/// the rounds' paired ratios are reduced by median.
const ROUNDS: u32 = 5;

/// Measure both sides paired: each round runs the instrumented (this
/// process) and stubbed (child re-exec) measurements back to back, so a slow
/// host epoch hits both and cancels out of that round's ratio.  The side
/// order alternates per round to cancel any residual earlier-runs-faster
/// bias, and the round with the *median* ratio is reported — a drift-robust
/// estimator that discards rounds where the host speed flipped mid-round
/// (in either direction).
pub fn measure_overhead(scale: Scale, full: bool) -> Result<ObsResult, String> {
    let mut rounds: Vec<ObsResult> = Vec::with_capacity(ROUNDS as usize);
    for round in 0..ROUNDS {
        let (instrumented_tps, stubbed_tps) = if round % 2 == 0 {
            let i = measure_tps(scale);
            let s = measure_stubbed_tps(full)?;
            (i, s)
        } else {
            let s = measure_stubbed_tps(full)?;
            let i = measure_tps(scale);
            (i, s)
        };
        let r = ObsResult {
            instrumented_tps,
            stubbed_tps,
        };
        eprintln!(
            "round {}/{ROUNDS}: instrumented {instrumented_tps:.0} tps, stubbed \
             {stubbed_tps:.0} tps, ratio {:.3}",
            round + 1,
            r.overhead_ratio()
        );
        rounds.push(r);
    }
    rounds.sort_by(|a, b| {
        a.overhead_ratio()
            .partial_cmp(&b.overhead_ratio())
            .expect("ratios are finite")
    });
    Ok(rounds[rounds.len() / 2])
}

/// One overhead measurement: TATP throughput with recording on vs stubbed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObsResult {
    pub instrumented_tps: f64,
    pub stubbed_tps: f64,
}

impl ObsResult {
    /// Stubbed over instrumented throughput: 1.0 = recording is free, above
    /// 1.0 = what turning recording on costs.
    pub fn overhead_ratio(&self) -> f64 {
        self.stubbed_tps / self.instrumented_tps.max(1e-9)
    }
}

/// Whether this build has recording compiled out (`obs-stub`).
pub fn is_stubbed() -> bool {
    !plp_instrument::obs_enabled()
}

/// Measure TATP throughput on PLP-Regular in *this* build — instrumented or
/// stubbed is decided at compile time by the `obs-stub` feature.  Max of
/// [`SAMPLES`] runs over a warmed engine.
///
/// The instrumented side is measured with the live exposition endpoint up
/// and a scraper hitting `/metrics` throughout, so the gated overhead ratio
/// prices the *whole* observability story, not just passive recording.  In
/// `obs-stub` builds the engine never starts the endpoint ([`Engine::obs_addr`]
/// returns `None`), which keeps the stubbed side an honest recording-free
/// control.
pub fn measure_tps(scale: Scale) -> f64 {
    use std::sync::atomic::{AtomicBool, Ordering};

    let tatp = Tatp::new(scale.subscribers);
    let config = EngineConfig::new(Design::PlpRegular)
        .with_partitions(OBS_THREADS)
        .with_fanout(128)
        .with_obs_endpoint("127.0.0.1:0");
    let engine = prepare_engine(config, &tatp);
    // A ratio of two ~10ms bursts is all scheduler noise; floor the sample
    // length so each one runs long enough to average over it (~0.2 s at the
    // ~400k tps caller-runs execution reaches on 2 vCPUs; the floor was
    // 2_000 when a transaction cost a worker round trip).
    let txns = scale.txns_per_thread.max(OBS_MIN_TXNS_PER_THREAD);
    // Warm-up pass keeps thread spawn, lane wiring and first-fault noise out.
    let _ = run_fixed(&engine, &tatp, OBS_THREADS, txns / 4, 0x0B5);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        if let Some(addr) = engine.obs_addr() {
            let stop = &stop;
            scope.spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    // Errors are deliberately ignored: the scraper exists to
                    // load the endpoint, never to fail the measurement.
                    let _ = scrape(addr, "/metrics");
                    std::thread::sleep(SCRAPE_INTERVAL);
                }
            });
        }
        let best = (0..SAMPLES)
            .map(|i| {
                run_fixed(&engine, &tatp, OBS_THREADS, txns, 0x0B5 ^ u64::from(i)).throughput_tps()
            })
            .fold(0.0, f64::max);
        stop.store(true, Ordering::SeqCst);
        best
    })
}

/// One blocking HTTP/1.1 GET against the engine's observability endpoint.
pub fn scrape(addr: std::net::SocketAddr, path: &str) -> std::io::Result<String> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    stream.write_all(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    Ok(response)
}

/// Run one TATP burst with the aggressive §5 load-balancer settings and
/// return `(decisions_json, slow_json)`: the DLB decision audit log and the
/// slow-transaction reservoir.  `fig_obs --audit` writes these as the
/// nightly CI artifacts, so a regression report always comes with the
/// controller's reasoning and the worst round trips attached.
pub fn audit_artifacts(scale: Scale) -> (String, String) {
    let tatp = Tatp::new(scale.subscribers);
    let config = EngineConfig::new(Design::PlpRegular)
        .with_partitions(OBS_THREADS)
        .with_dlb(plp_core::DlbConfig::aggressive());
    let engine = prepare_engine(config, &tatp);
    let _ = run_fixed(
        &engine,
        &tatp,
        OBS_THREADS,
        scale.txns_per_thread.max(2_000),
        0x0B5,
    );
    // The controller evaluates on its own thread every other aging tick
    // (~40ms aggressive); give it a few ticks past the burst so the audit
    // log holds post-load verdicts too.
    std::thread::sleep(Duration::from_millis(150));
    let stats = engine.db().stats();
    (stats.dlb_decisions().json(), stats.slow().json())
}

/// Re-run this binary's `--measure-only` mode as a fresh cargo build with the
/// `obs-stub` feature and parse the `MEASURE_TPS` line it prints.  Uses the
/// `CARGO` env var (set by cargo for anything it runs) so the child builds
/// with the same toolchain.
pub fn measure_stubbed_tps(full: bool) -> Result<f64, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut cmd = std::process::Command::new(cargo);
    cmd.args([
        "run",
        "-p",
        "plp-bench",
        "--bin",
        "fig_obs",
        "--features",
        "obs-stub",
    ]);
    // A separate target dir: the stubbed build must not clobber the
    // instrumented binaries (same names, different feature set), and the
    // next instrumented build must not have to rebuild the world back.
    cmd.args(["--target-dir", "target/obs-stub"]);
    // Match the parent's profile so the two sides are comparable.
    if !cfg!(debug_assertions) {
        cmd.arg("--release");
    }
    cmd.arg("--");
    cmd.arg("--measure-only");
    if full {
        cmd.arg("--full");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawning cargo for the stubbed build failed: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "stubbed run failed ({}):\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines() {
        if let Some(v) = line.strip_prefix("MEASURE_TPS ") {
            return v
                .trim()
                .parse()
                .map_err(|e| format!("bad MEASURE_TPS value {v:?}: {e}"));
        }
    }
    Err(format!(
        "no MEASURE_TPS line in stubbed run output:\n{stdout}"
    ))
}

/// Render the measurement as the gate's JSON document (also the shape of the
/// `"obs"` object inside `BENCH_BASELINE.json`).
pub fn obs_json(r: &ObsResult) -> String {
    format!(
        "{{\"bench\":\"obs\",\"instrumented_tps\":{:.1},\"stubbed_tps\":{:.1},\
         \"overhead_ratio\":{:.4}}}\n",
        r.instrumented_tps,
        r.stubbed_tps,
        r.overhead_ratio()
    )
}

/// Parse an [`obs_json`] document — or any document embedding its keys, such
/// as `BENCH_BASELINE.json`'s `"obs"` object.  Returns `None` when the keys
/// are absent (an old baseline without an obs entry).
pub fn parse_obs_json(doc: &str) -> Option<ObsResult> {
    Some(ObsResult {
        instrumented_tps: json_number(doc, "instrumented_tps")?,
        stubbed_tps: json_number(doc, "stubbed_tps")?,
    })
}

/// Gate the overhead ratio.  The limit is the baseline's ratio plus
/// `threshold` relative slack (and a small absolute epsilon), floored at
/// [`OBS_OVERHEAD_CAP`]; with no baseline entry the cap alone gates.
/// Returns report lines, or the failing lines as the error.
pub fn check_obs_against_baseline(
    current: &ObsResult,
    baseline: Option<&ObsResult>,
    threshold: f64,
) -> Result<Vec<String>, Vec<String>> {
    let base_limit = baseline
        .map(|b| b.overhead_ratio() * (1.0 + threshold) + 0.02)
        .unwrap_or(0.0);
    let limit = base_limit.max(OBS_OVERHEAD_CAP);
    let ratio = current.overhead_ratio();
    let line = format!(
        "obs overhead: stubbed/instrumented ratio {ratio:.3} \
         (instrumented {:.0} tps, stubbed {:.0} tps, limit {limit:.3})",
        current.instrumented_tps, current.stubbed_tps
    );
    if ratio > limit {
        Err(vec![format!("REGRESSION {line}")])
    } else {
        Ok(vec![format!("ok {line}")])
    }
}

/// Render the measurement as a one-row table.
pub fn obs_table(r: &ObsResult) -> plp_instrument::Table {
    use plp_instrument::Cell;
    let mut t = plp_instrument::Table::new(
        "Observability overhead — TATP (PLP-Regular), instrumented vs obs-stub build",
        &[
            "threads",
            "instrumented tps",
            "stubbed tps",
            "overhead ratio",
            "cap",
        ],
    );
    t.row(vec![
        Cell::from(OBS_THREADS),
        Cell::FloatPrec(r.instrumented_tps, 0),
        Cell::FloatPrec(r.stubbed_tps, 0),
        Cell::FloatPrec(r.overhead_ratio(), 3),
        Cell::FloatPrec(OBS_OVERHEAD_CAP, 2),
    ]);
    t
}

/// End-of-run instrumentation snapshot for `reproduce_all`: run one TATP
/// burst on PLP-Regular with the flight recorder on and render every counter
/// family (engine, messaging, WAL, load balancer) plus the latency-histogram
/// summaries and the recorder's per-interval time series as tables for
/// `reproduction_results.{md,json}`.
pub fn stats_snapshot_tables(scale: Scale) -> Vec<plp_instrument::Table> {
    use plp_instrument::{Cell, Table};
    let threads = OBS_THREADS.min(crate::num_threads());
    let tatp = Tatp::new(scale.subscribers);
    let config = EngineConfig::new(Design::PlpRegular)
        .with_partitions(threads)
        .with_metrics_interval(Duration::from_millis(20));
    let engine = prepare_engine(config, &tatp);
    let r = run_fixed(&engine, &tatp, threads, scale.txns_per_thread, 0x0B5);

    let mut counters = Table::new(
        "End-of-run counters — TATP (PLP-Regular), measured interval deltas",
        &["counter", "value"],
    );
    let s = &r.stats;
    for (name, v) in [
        ("committed", s.committed),
        ("aborted", s.aborted),
        ("inline actions", s.msg.inline_actions),
        ("messages", s.msg.actions),
        ("batches", s.msg.batches),
        ("batch actions", s.msg.batch_actions),
        ("lane hits", s.msg.lane_hits),
        ("lane fallbacks", s.msg.lane_fallbacks),
        ("reply reuses", s.msg.reply_reuses),
        ("reply allocs", s.msg.reply_allocs),
        ("parks", s.msg.parks),
        ("wakeups", s.msg.wakeups),
        ("wal flush batches", s.wal.flush_batches),
        ("wal flushed records", s.wal.flushed_records),
        ("wal flushed bytes", s.wal.flushed_bytes),
        ("wal fsyncs", s.wal.fsyncs),
        ("dlb evaluations", s.dlb.evaluations),
        ("dlb repartitions", s.dlb.repartitions_triggered),
    ] {
        counters.row(vec![Cell::from(name), Cell::from(v)]);
    }
    let mut rates = Table::new("End-of-run derived rates", &["metric", "value"]);
    for (name, v, prec) in [
        ("throughput tps", r.throughput_tps(), 0),
        ("inline share of actions", s.msg.inline_share(), 4),
        ("mean µs per action", s.msg.mean_action_nanos() / 1_000.0, 2),
        (
            "mean roundtrip µs per message",
            s.msg.mean_roundtrip_nanos() / 1_000.0,
            2,
        ),
        ("reply pool hit rate", s.msg.reply_pool_hit_rate(), 3),
        ("mean actions per batch", s.msg.mean_actions_per_batch(), 2),
        ("lane hit rate", s.msg.lane_hit_rate(), 3),
        ("wal mean batch size", s.wal.mean_batch_size(), 2),
    ] {
        rates.row(vec![Cell::from(name), Cell::FloatPrec(v, prec)]);
    }

    let mut tables = vec![counters, rates, r.latency.table()];
    if let Some(rec) = engine.flight_recorder() {
        rec.sample_now(engine.db().stats());
        tables.push(rec.samples_table());
    }
    tables
}

/// Trace/flight-recorder demo: run ONE three-stage transaction whose stages
/// each touch both partitions of a 2-partition PLP-Regular engine, and
/// return `(trace_json, flight_dump_json)` — the chrome://tracing document
/// and the flight recorder's autopsy dump.
///
/// The trace shows both ways an action group can run.  While stage 1 is
/// dispatched a second session still holds partition 1's claim, so that
/// group travels as a message: a `reply_wait` span on the session row over
/// an `execute` span on the `worker-1` row.  Every other group finds its
/// partition idle and runs on the session's own thread: `execute` spans
/// nested inside the stage's `dispatch` span on the session row.
pub fn trace_demo() -> (String, String) {
    const T: TableId = TableId(0);
    const KEY_SPACE: u64 = 4_096;
    let schema = vec![TableSpec::new(0, "obs_demo", KEY_SPACE)];
    let config = EngineConfig::new(Design::PlpRegular)
        .with_partitions(2)
        .with_metrics_interval(Duration::from_millis(5));
    let mut engine = Engine::start(config, &schema);
    for k in (0..KEY_SPACE).step_by(32) {
        engine
            .db()
            .load_record(T, k, &k.to_le_bytes(), None)
            .expect("load demo record");
    }
    engine.finish_loading();

    let read = |k: u64| {
        Action::new(T, k, move |ctx| {
            ctx.read(T, k)?;
            Ok(ActionOutput::with_values(vec![k]))
        })
    };
    let (entered_tx, entered_rx) = std::sync::mpsc::channel();
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    std::thread::scope(|scope| {
        // The holder: claims partition 1 (keys from KEY_SPACE/2 up) and stays
        // inside its action until the demo transaction has queued behind it.
        let engine = &engine;
        scope.spawn(move || {
            let mut session = engine.session();
            session
                .execute(TransactionPlan::single(Action::new(
                    T,
                    2_048,
                    move |_ctx| {
                        entered_tx.send(()).expect("demo is waiting");
                        release_rx.recv().expect("demo releases the holder");
                        Ok(ActionOutput::empty())
                    },
                )))
                .expect("holder transaction");
        });
        entered_rx.recv().expect("holder is inside its action");

        // Keys below/above KEY_SPACE/2 route to partitions 0/1, so every
        // stage fans out to both and waits at its rendezvous before the next
        // stage.  Stage 1 lists partition 1 first: its group is enqueued
        // (claim taken), then partition 0's runs inline and — now that the
        // message is in the queue — lets the holder go.
        let release = Action::new(T, 32, move |ctx| {
            ctx.read(T, 32)?;
            release_tx.send(()).expect("holder is waiting");
            Ok(ActionOutput::with_values(vec![32]))
        });
        let plan = TransactionPlan::parallel(vec![read(2_080), release]).followed_by(move |_| {
            TransactionPlan::parallel(vec![read(64), read(2_112)])
                .followed_by(move |_| TransactionPlan::parallel(vec![read(96), read(2_144)]))
        });
        let mut session = engine.session();
        session.execute(plan).expect("demo transaction");
    });

    // Let the sampler tick at least once so the dump's time series is
    // non-empty even on a fast machine.
    std::thread::sleep(Duration::from_millis(25));
    let trace = engine.trace_json();
    let recorder = engine.flight_recorder().expect("metrics interval set");
    recorder.sample_now(engine.db().stats());
    let dump = recorder.dump_json(engine.db().stats(), "fig_obs demo");
    engine.shutdown();
    (trace, dump)
}

#[cfg(test)]
mod tests {
    use super::*;
    use plp_instrument::json_is_valid;

    #[test]
    fn obs_json_roundtrip() {
        let r = ObsResult {
            instrumented_tps: 123_456.7,
            stubbed_tps: 130_000.0,
        };
        let doc = obs_json(&r);
        assert!(json_is_valid(&doc));
        let parsed = parse_obs_json(&doc).unwrap();
        assert!((parsed.overhead_ratio() - r.overhead_ratio()).abs() < 1e-3);
        assert_eq!(parse_obs_json("{}"), None);
    }

    #[test]
    fn obs_gate_caps_and_tracks_baseline() {
        let ok = ObsResult {
            instrumented_tps: 100_000.0,
            stubbed_tps: 105_000.0,
        };
        // Within the cap, no baseline needed.
        assert!(check_obs_against_baseline(&ok, None, 0.30).is_ok());
        // Past the cap with no baseline slack: fails.
        let bad = ObsResult {
            instrumented_tps: 100_000.0,
            stubbed_tps: 125_000.0,
        };
        let err = check_obs_against_baseline(&bad, None, 0.30).unwrap_err();
        assert!(err[0].contains("REGRESSION"));
        // A generous committed baseline raises the limit.
        let base = ObsResult {
            instrumented_tps: 100_000.0,
            stubbed_tps: 120_000.0,
        };
        assert!(check_obs_against_baseline(&bad, Some(&base), 0.30).is_ok());
    }

    #[test]
    fn audit_artifacts_are_valid_json() {
        let (decisions, slow) = audit_artifacts(Scale::quick());
        assert!(json_is_valid(&decisions), "decisions: {decisions}");
        assert!(json_is_valid(&slow), "slow: {slow}");
        // The burst commits thousands of transactions, so the reservoir must
        // hold entries with their phase breakdowns (in stub builds the
        // reservoir is inert and the array is legitimately empty).
        if !is_stubbed() {
            assert!(slow.contains("\"txn_id\""), "slow reservoir empty: {slow}");
            assert!(slow.contains("\"phases\""), "no phase breakdowns: {slow}");
        }
    }

    #[test]
    fn trace_demo_produces_valid_nested_trace() {
        let (trace, dump) = trace_demo();
        assert!(json_is_valid(&trace), "invalid trace: {trace}");
        assert!(json_is_valid(&dump), "invalid dump: {dump}");
        // Two worker rows plus the session rows, one messaged group
        // (reply_wait over a worker-side execute) and inline groups
        // (execute inside dispatch on the session row).
        for needle in [
            "\"worker-0\"",
            "\"worker-1\"",
            "\"session-",
            "\"dispatch\"",
            "\"execute\"",
            "\"reply_wait\"",
            "\"txn\"",
        ] {
            assert!(trace.contains(needle), "trace missing {needle}");
        }
        // Exactly one group was messaged (one reply_wait span); the other
        // five ran on the session's thread.
        assert_eq!(trace.matches("\"name\":\"reply_wait\"").count(), 1);
        assert_eq!(trace.matches("\"name\":\"execute\"").count(), 7);
        assert!(dump.contains("\"reason\":\"fig_obs demo\""));
        assert!(dump.contains("\"action_roundtrip\""));
    }
}
