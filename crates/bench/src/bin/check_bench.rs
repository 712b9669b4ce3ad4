//! CI perf-regression gate for the message-passing microbenchmark and the
//! observability-overhead benchmark.
//!
//! Usage: `check_bench <current.json> <baseline.json> [threshold] [obs-current.json]
//! [server-current.json]`
//!
//! Compares the lock-free/mutex cost *ratios* of a fresh `fig_msgcost
//! --json` run against the committed `BENCH_BASELINE.json` and exits
//! non-zero when any matching thread-count point regressed by more than
//! `threshold` (default 0.30 = 30%).  Ratios, not absolute nanoseconds, so
//! the gate is robust to CI-runner hardware differences; refresh the
//! baseline deliberately when the expected cost profile changes.
//!
//! With a fourth argument — a `fig_obs --json` document — the gate also
//! checks the observability-overhead ratio (stubbed/instrumented TATP
//! throughput) against the baseline's `"obs"` entry with the same relative
//! slack, never below `plp_bench::obs::OBS_OVERHEAD_FLOOR` (1.10): the
//! limit is `max(baseline × (1 + threshold) + 0.02, 1.10)`.
//!
//! With a fifth argument — a `fig_server --json` document — it also checks
//! the connection server's saturation throughput against the baseline's
//! `"server"` entry, floored at the absolute
//! `plp_bench::server::SERVER_TPS_FLOOR` so a broken front end fails even
//! without a baseline entry.
use plp_bench::msgcost::{check_against_baseline, parse_msgcost_json, DEFAULT_THRESHOLD};
use plp_bench::obs::{check_obs_against_baseline, parse_obs_json};
use plp_bench::server::{check_server_against_baseline, parse_server_json};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (current_path, baseline_path) = match (args.first(), args.get(1)) {
        (Some(c), Some(b)) => (c.clone(), b.clone()),
        _ => {
            eprintln!(
                "usage: check_bench <current.json> <baseline.json> [threshold] \
                 [obs-current.json] [server-current.json]"
            );
            std::process::exit(2);
        }
    };
    let threshold: f64 = args
        .get(2)
        .map(|t| t.parse().expect("threshold must be a number"))
        .unwrap_or(DEFAULT_THRESHOLD);

    let read = |path: &str| -> String {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("check_bench: cannot read {path}: {e}");
            std::process::exit(2);
        })
    };
    let parse = |path: &str, doc: &str| {
        parse_msgcost_json(doc).unwrap_or_else(|e| {
            eprintln!("check_bench: cannot parse {path}: {e}");
            std::process::exit(2);
        })
    };
    let current_doc = read(&current_path);
    let baseline_doc = read(&baseline_path);
    let current = parse(&current_path, &current_doc);
    let baseline = parse(&baseline_path, &baseline_doc);

    let mut report = Vec::new();
    let mut failures = Vec::new();
    match check_against_baseline(&current, &baseline, threshold) {
        Ok(lines) => report.extend(lines),
        Err(lines) => failures.extend(lines),
    }

    if let Some(obs_path) = args.get(3) {
        let obs_doc = read(obs_path);
        let obs_current = parse_obs_json(&obs_doc).unwrap_or_else(|| {
            eprintln!("check_bench: no obs measurement in {obs_path}");
            std::process::exit(2);
        });
        // An old baseline without an "obs" entry gates on the floor alone.
        let obs_baseline = parse_obs_json(&baseline_doc);
        match check_obs_against_baseline(&obs_current, obs_baseline.as_ref(), threshold) {
            Ok(lines) => report.extend(lines),
            Err(lines) => failures.extend(lines),
        }
    }

    if let Some(server_path) = args.get(4) {
        let server_doc = read(server_path);
        let server_current = parse_server_json(&server_doc).unwrap_or_else(|| {
            eprintln!("check_bench: no server measurement in {server_path}");
            std::process::exit(2);
        });
        // An old baseline without a "server" entry gates on the floor alone.
        let server_baseline = parse_server_json(&baseline_doc);
        match check_server_against_baseline(&server_current, server_baseline.as_ref(), threshold) {
            Ok(lines) => report.extend(lines),
            Err(lines) => failures.extend(lines),
        }
    }

    if failures.is_empty() {
        println!(
            "perf gate passed ({} vs {} @ {:.0}% threshold):",
            current_path,
            baseline_path,
            threshold * 100.0
        );
        for line in report {
            println!("  {line}");
        }
    } else {
        eprintln!(
            "perf gate FAILED ({} vs {} @ {:.0}% threshold):",
            current_path,
            baseline_path,
            threshold * 100.0
        );
        for line in failures {
            eprintln!("  {line}");
        }
        std::process::exit(1);
    }
}
