//! `perf_ledger`: the repository's one benchmark.
//!
//! ```text
//! perf_ledger --workload NAME --seed N --seconds S --trace 0|1   one run, one JSON line
//! perf_ledger [--seed N] [--seconds S]                           the whole ledger
//! perf_ledger --check                                            ~20 s self-test
//! ```
//!
//! See `README.md` beside this package for what the workloads and metrics
//! are and why.

#![forbid(unsafe_code)]

mod check;
mod fingerprint;
mod json;
mod names;
mod probes;
mod run;
mod scrape;
mod stats;
mod stream;
mod trace;

use std::io;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use json::Value;
use names::{END_TO_END, PER_LAYER};
use probes::{run_probes, ProbePlan};
use run::{
    run_workload, Outcome, Plan, Workload, CLIENTS, PARTITIONS, PIPELINE_DEPTH, SUBSCRIBERS,
};
use stream::{stream_hash, DEFAULT_SEED};
use trace::Name;

/// Measured seconds per workload when `--seconds` is not given; the value
/// `BENCHMARK.json` sets for the driver.
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        check: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} wants a value"));
        match flag.as_str() {
            "--check" => args.check = true,
            "--workload" => {
                let name = value()?;
                args.workload = Some(Workload::from_name(&name).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name}; one of {}", known.join(", "))
                })?);
            }
            "--seed" => {
                let v = value()?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed wants a whole number, got {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 1.0)
                    .ok_or(format!("--seconds wants a number of at least 1, got {v}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace wants 0 or 1, got {v}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Outputs go under the build directory, which is already ignored.
fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("perf_ledger")
}

fn metric_value(value: f64, unit: &str) -> Value {
    Value::object(vec![
        ("value", Value::number(value)),
        ("unit", Value::String(unit.to_string())),
    ])
}

/// The per-layer metrics of one traced run, every name present: probes
/// first, in-situ values over them; what does not apply to the workload
/// reads 0.
fn per_layer_values(outcome: &Outcome, probes: &[(&'static str, f64)]) -> Vec<(&'static str, f64)> {
    PER_LAYER
        .iter()
        .map(|metric| {
            let in_situ = outcome
                .in_situ
                .iter()
                .find(|(name, _)| *name == metric.name)
                .and_then(|(_, v)| *v);
            let probe = probes
                .iter()
                .find(|(name, _)| *name == metric.name)
                .map(|(_, v)| *v);
            (metric.name, in_situ.or(probe).unwrap_or(0.0))
        })
        .collect()
}

fn print_outcome(outcome: &Outcome) {
    let values = outcome.end_to_end();
    let spreads = outcome.window_spread();
    eprintln!("{}:", outcome.workload.name());
    let rows = END_TO_END
        .iter()
        .zip(values)
        .zip(spreads)
        .zip(outcome.samples());
    for ((((metric, bound), value), spread), samples) in rows {
        eprintln!(
            "  {:<16} {value:>12.3} {:<4} samples {samples:>8}  spread {:.3}  bound {bound}",
            metric.name, metric.unit, spread
        );
    }
    eprintln!(
        "  failed_share     {:>12.6}      attempted {} failed {}  (legal aborts {:.4}, p99.9 {:.1} us)",
        outcome.failed_share(),
        outcome.attempted,
        outcome.failed,
        outcome.legal_abort_share(),
        outcome.p999_us(),
    );
    let each: Vec<String> = outcome
        .windows
        .iter()
        .map(|w| format!("{:.0} tps {:.1}/{:.1} us", w.tps, w.p50_us, w.p99_us))
        .collect();
    eprintln!("  windows          {}", each.join(" | "));
    for note in &outcome.notes {
        eprintln!("  FAILED: {note}");
    }
    if !outcome.missing_families.is_empty() {
        eprintln!(
            "  missing families: {}",
            outcome.missing_families.join(", ")
        );
    }
}

// ---------------------------------------------------------------------
// One run for the driver
// ---------------------------------------------------------------------

fn driver_run(workload: Workload, args: &Args) -> io::Result<bool> {
    let out_dir = out_dir();
    let plan = if args.trace {
        Plan::per_layer(args.seed, args.seconds, out_dir.clone())
    } else {
        Plan::end_to_end(args.seed, args.seconds, out_dir.clone())
    };
    let outcome = run_workload(workload, &plan)?;
    print_outcome(&outcome);
    let metrics: Vec<(String, Value)> = if args.trace {
        let probes = run_probes(&ProbePlan {
            seed: args.seed,
            calls: 200_000,
            reps: 5,
            out_dir,
        })?;
        let values = per_layer_values(&outcome, &probes);
        for (name, value) in &values {
            eprintln!("  {name:<40} {value:>14.3}");
        }
        PER_LAYER
            .iter()
            .zip(values)
            .map(|(m, (_, v))| (m.name.to_string(), metric_value(v, m.unit)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(outcome.end_to_end())
            .map(|((m, _), v)| (m.name.to_string(), metric_value(v, m.unit)))
            .collect()
    };
    let all_finite = metrics
        .iter()
        .all(|(_, m)| m.get("value").and_then(Value::as_f64).is_some());
    let line = Value::object(vec![
        ("correct", Value::Bool(outcome.correct() && all_finite)),
        ("attempted", Value::Number(outcome.attempted as f64)),
        ("failed", Value::Number(outcome.failed as f64)),
        ("metrics", Value::Object(metrics)),
    ]);
    println!("{}", line.render());
    // The line carries the verdict; a printed result always exits 0.
    Ok(true)
}

// ---------------------------------------------------------------------
// The whole ledger
// ---------------------------------------------------------------------

fn workload_document(outcome: &Outcome) -> Value {
    let values = outcome.end_to_end();
    let spreads = outcome.window_spread();
    let windows = |f: fn(&run::WindowStats) -> f64| {
        Value::Array(
            outcome
                .windows
                .iter()
                .map(|w| Value::number(f(w)))
                .collect(),
        )
    };
    let per_window = [
        windows(|w| w.tps),
        windows(|w| w.p50_us),
        windows(|w| w.p99_us),
        Value::Array(outcome.setup_s.iter().map(|&s| Value::number(s)).collect()),
    ];
    let end_to_end = END_TO_END
        .iter()
        .zip(values)
        .zip(spreads)
        .zip(per_window)
        .zip(outcome.samples())
        .map(|(((((metric, bound), value), spread), each), samples)| {
            (
                metric.name.to_string(),
                Value::object(vec![
                    ("value", Value::number(value)),
                    ("unit", Value::String(metric.unit.into())),
                    ("better", Value::String(metric.better.as_str().into())),
                    ("bound", Value::Number(*bound)),
                    ("samples", Value::Number(samples as f64)),
                    ("window_spread", Value::number(spread)),
                    ("each", each),
                ]),
            )
        })
        .collect();
    let (applicable, not_applicable): (Vec<_>, Vec<_>) =
        outcome.in_situ.iter().partition(|(_, v)| v.is_some());
    let spans = outcome.span_totals.map_or(Value::Null, |totals| {
        Value::Object(
            Name::ALL
                .iter()
                .zip(totals)
                .filter(|(_, t)| t.count > 0)
                .map(|(name, t)| {
                    (
                        name.as_str().to_string(),
                        Value::object(vec![
                            ("count", Value::Number(t.count as f64)),
                            ("mean_ns", Value::number(t.mean_ns())),
                            (
                                "self_mean_ns",
                                Value::number(t.self_ns as f64 / t.count as f64),
                            ),
                        ]),
                    )
                })
                .collect(),
        )
    });
    let strings = |items: Vec<String>| Value::Array(items.into_iter().map(Value::String).collect());
    Value::object(vec![
        ("end_to_end", Value::Object(end_to_end)),
        ("failed_share", Value::number(outcome.failed_share())),
        ("attempted", Value::Number(outcome.attempted as f64)),
        ("failed", Value::Number(outcome.failed as f64)),
        (
            "legal_abort_share",
            Value::number(outcome.legal_abort_share()),
        ),
        ("latency_p999_us", Value::number(outcome.p999_us())),
        ("failures", strings(outcome.notes.clone())),
        (
            "per_layer_in_situ",
            Value::Object(
                applicable
                    .iter()
                    .map(|(name, v)| (name.to_string(), Value::number(*v)))
                    .collect(),
            ),
        ),
        (
            "not_applicable",
            strings(not_applicable.iter().map(|(n, _)| n.to_string()).collect()),
        ),
        (
            "missing_families",
            strings(outcome.missing_families.clone()),
        ),
        ("spans", spans),
        ("spans_dropped", Value::Number(outcome.spans_dropped as f64)),
        (
            "trace_file",
            outcome
                .trace_file
                .as_ref()
                .map_or(Value::Null, |p| Value::String(p.display().to_string())),
        ),
    ])
}

/// Run every workload on `plan` (which must include a traced window), then
/// the probes; returns the result document and whether every output was
/// correct.
fn ledger(plan: &Plan, probe_calls: usize, probe_reps: usize) -> io::Result<(Value, bool)> {
    let (seed, out_dir) = (plan.seed, plan.out_dir.clone());
    std::fs::create_dir_all(&out_dir)?;
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for workload in Workload::ALL {
        let outcome = run_workload(workload, plan)?;
        print_outcome(&outcome);
        all_correct &= outcome.correct();
        workloads.push((workload.name().to_string(), workload_document(&outcome)));
    }
    eprintln!("probes:");
    let probes = run_probes(&ProbePlan {
        seed,
        calls: probe_calls,
        reps: probe_reps,
        out_dir: out_dir.clone(),
    })?;
    let probe_values: Vec<(String, Value)> = PER_LAYER
        .iter()
        .filter_map(|m| {
            let (_, value) = probes.iter().find(|(name, _)| *name == m.name)?;
            eprintln!("  {:<40} {value:>14.3} {}", m.name, m.unit);
            Some((m.name.to_string(), metric_value(*value, m.unit)))
        })
        .collect();

    let mut fingerprint = fingerprint::fingerprint(&out_dir);
    fingerprint.extend([
        ("seed", Value::Number(seed as f64)),
        ("instances", Value::Number(plan.instances as f64)),
        (
            "windows_per_instance",
            Value::Number(plan.untraced_windows as f64),
        ),
        ("window_s", Value::number(plan.window.as_secs_f64())),
        (
            "traced_window_s",
            Value::number(plan.traced.map(|t| t.as_secs_f64())),
        ),
        (
            "stream_hash_tatp",
            Value::String(format!(
                "{:016x}",
                stream_hash(seed, CLIENTS, SUBSCRIBERS, false)
            )),
        ),
        (
            "stream_hash_profile",
            Value::String(format!(
                "{:016x}",
                stream_hash(seed, CLIENTS, SUBSCRIBERS, true)
            )),
        ),
    ]);
    let document = Value::object(vec![
        ("schema", Value::String("perf_ledger/1".into())),
        ("fingerprint", Value::object(fingerprint)),
        (
            "load_shape",
            Value::object(vec![
                ("loop", Value::String("closed".into())),
                ("clients", Value::Number(CLIENTS as f64)),
                ("pipeline_depth", Value::Number(PIPELINE_DEPTH as f64)),
                ("subscribers", Value::Number(SUBSCRIBERS as f64)),
                ("partitions", Value::Number(PARTITIONS as f64)),
            ]),
        ),
        ("workloads", Value::Object(workloads)),
        ("per_layer_probes", Value::Object(probe_values)),
    ]);
    Ok((document, all_correct))
}

// ---------------------------------------------------------------------
// --check
// ---------------------------------------------------------------------

/// Every name `BENCHMARK.json` lists must be in the document: each workload
/// with each end-to-end metric finite, and each per-layer name measured by
/// a probe, measured in situ on some workload, or explained by a missing
/// family.
fn validate(document: &Value, benchmark: &Value) -> Vec<String> {
    let mut problems = Vec::new();
    let names = |key: &str| -> Vec<String> {
        benchmark
            .get(key)
            .and_then(Value::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(|e| e.get("name").and_then(Value::as_str).map(str::to_string))
            .collect()
    };
    let (workloads, end_to_end, per_layer) =
        (names("workloads"), names("end_to_end"), names("per_layer"));
    if workloads.is_empty() || end_to_end.is_empty() || per_layer.is_empty() {
        problems.push("BENCHMARK.json lists no workloads, end_to_end or per_layer names".into());
    }
    let mut any_missing_family = false;
    for workload in &workloads {
        let Some(doc) = document.get("workloads").and_then(|w| w.get(workload)) else {
            problems.push(format!("workload {workload} is not in the document"));
            continue;
        };
        for metric in &end_to_end {
            let value = doc
                .get("end_to_end")
                .and_then(|e| e.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64);
            if value.is_none() {
                problems.push(format!("{workload}.{metric} is absent or not finite"));
            }
        }
        if doc.get("failed").and_then(Value::as_f64) != Some(0.0) {
            problems.push(format!("{workload} has failed requests"));
        }
        let missing = doc.get("missing_families").and_then(Value::as_array);
        any_missing_family |= missing.is_some_and(|m| !m.is_empty());
    }
    for name in &per_layer {
        let probed = document
            .get("per_layer_probes")
            .and_then(|p| p.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .is_some();
        let in_situ = workloads.iter().any(|w| {
            document
                .get("workloads")
                .and_then(|d| d.get(w))
                .and_then(|d| d.get("per_layer_in_situ"))
                .and_then(|m| m.get(name))
                .and_then(Value::as_f64)
                .is_some()
        });
        if !probed && !in_situ && !any_missing_family {
            problems.push(format!("per-layer metric {name} was measured nowhere"));
        }
    }
    problems
}

fn self_test(seed: u64) -> io::Result<bool> {
    let plan = Plan {
        instances: 2,
        warmup: Duration::from_millis(300),
        untraced_windows: 2,
        window: Duration::from_millis(250),
        traced: Some(Duration::from_millis(500)),
        ..Plan::end_to_end(seed, 1.0, out_dir())
    };
    let (document, correct) = ledger(&plan, 20_000, 3)?;
    let benchmark = std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|text| json::parse(&text))
        .ok_or_else(|| io::Error::other("BENCHMARK.json is not in the working directory"))?;
    let mut problems = validate(&document, &benchmark);
    if !correct {
        problems.push("a workload produced incorrect outputs".into());
    }
    for workload in Workload::ALL {
        let path = out_dir().join(format!("trace_{}.json", workload.name()));
        let events = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| json::parse(&text))
            .and_then(|doc| {
                doc.get("traceEvents")
                    .and_then(Value::as_array)
                    .map(<[Value]>::len)
            });
        if events.is_none_or(|n| n == 0) {
            problems.push(format!(
                "{} is not a well-formed, non-empty trace",
                path.display()
            ));
        }
    }
    for problem in &problems {
        eprintln!("check: {problem}");
    }
    println!(
        "perf_ledger --check: {}",
        if problems.is_empty() { "ok" } else { "FAILED" }
    );
    Ok(problems.is_empty())
}

fn full_ledger(args: &Args) -> io::Result<bool> {
    let plan = Plan {
        traced: Some(Duration::from_secs(3)),
        ..Plan::end_to_end(args.seed, args.seconds, out_dir())
    };
    let (document, correct) = ledger(&plan, 200_000, 5)?;
    let path = out_dir().join(format!("ledger_seed{}.json", args.seed));
    std::fs::write(&path, document.render_pretty())?;
    println!("{}", document.render_pretty());
    eprintln!("wrote {}", path.display());
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perf_ledger: {message}");
            return ExitCode::from(2);
        }
    };
    let result = if args.check {
        self_test(args.seed)
    } else if let Some(workload) = args.workload {
        driver_run(workload, &args)
    } else {
        full_ledger(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perf_ledger: {e}");
            ExitCode::from(3)
        }
    }
}
