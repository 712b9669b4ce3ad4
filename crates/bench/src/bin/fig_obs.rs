//! Observability overhead figure: TATP throughput with recording on vs a
//! build with the `obs-stub` feature, plus demo trace / flight-recorder
//! artifacts.
//!
//! Usage: `fig_obs [--full] [--json [path]] [--trace [path]] [--audit [path]]
//! [--measure-only]`
//!
//! `--measure-only` prints this build's throughput as a `MEASURE_TPS` line
//! and exits — the mode the instrumented parent invokes on the stubbed child
//! (see `plp_bench::obs::measure_stubbed_tps`).  The default mode measures
//! both sides, prints the comparison table, and with `--json` writes the gate
//! document consumed by `check_bench`.  `--trace` writes the chrome://tracing
//! document of one three-stage partitioned transaction and the flight
//! recorder's dump next to it.  `--audit` runs a DLB-enabled burst and writes
//! the decision audit log plus the slow-transaction reservoir (the nightly CI
//! artifacts).

use plp_bench::msgcost::DEFAULT_THRESHOLD;
use plp_bench::obs::{
    audit_artifacts, is_stubbed, measure_overhead, measure_tps, obs_json, obs_limit, obs_table,
    parse_obs_json, trace_demo,
};
use plp_bench::{print_tables, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let scale = if full { Scale::full() } else { Scale::quick() };

    if args.iter().any(|a| a == "--measure-only") {
        // Machine-readable: the parent fig_obs process parses this line.
        println!("MEASURE_TPS {}", measure_tps(scale));
        return;
    }
    if is_stubbed() {
        eprintln!(
            "fig_obs: this build has obs-stub enabled; the comparison mode must run \
             from the instrumented build (use --measure-only here)"
        );
        std::process::exit(2);
    }

    eprintln!("measuring instrumented vs stubbed (interleaved rounds)...");
    let result = match measure_overhead(scale, full) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fig_obs: {e}");
            std::process::exit(2);
        }
    };
    // The limit `check_bench` enforces against the committed baseline.
    let baseline = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_BASELINE.json"
    ))
    .ok()
    .and_then(|doc| parse_obs_json(&doc));
    let limit = obs_limit(baseline.as_ref(), DEFAULT_THRESHOLD);
    print_tables(&[obs_table(&result, limit)]);

    if let Some(pos) = args.iter().position(|a| a == "--json") {
        let path = args
            .get(pos + 1)
            .filter(|a| !a.starts_with("--"))
            .map(String::as_str)
            .unwrap_or("fig_obs.json");
        std::fs::write(path, obs_json(&result)).expect("write obs json");
        eprintln!("wrote {path}");
    }
    if let Some(pos) = args.iter().position(|a| a == "--trace") {
        let trace_path = args
            .get(pos + 1)
            .filter(|a| !a.starts_with("--"))
            .map(String::as_str)
            .unwrap_or("fig_obs_trace.json");
        let dump_path = format!(
            "{}_flight.json",
            trace_path.strip_suffix(".json").unwrap_or(trace_path)
        );
        let (trace, dump) = trace_demo();
        std::fs::write(trace_path, trace).expect("write trace json");
        std::fs::write(&dump_path, dump).expect("write flight dump");
        eprintln!("wrote {trace_path} and {dump_path}");
    }
    if let Some(pos) = args.iter().position(|a| a == "--audit") {
        let decisions_path = args
            .get(pos + 1)
            .filter(|a| !a.starts_with("--"))
            .map(String::as_str)
            .unwrap_or("fig_obs_decisions.json");
        let slow_path = format!(
            "{}_slow.json",
            decisions_path
                .strip_suffix("_decisions.json")
                .or_else(|| decisions_path.strip_suffix(".json"))
                .unwrap_or(decisions_path)
        );
        let (decisions, slow) = audit_artifacts(scale);
        std::fs::write(decisions_path, decisions).expect("write decision audit log");
        std::fs::write(&slow_path, slow).expect("write slow reservoir");
        eprintln!("wrote {decisions_path} and {slow_path}");
    }
}
