//! CI smoke check for the live observability endpoint.
//!
//! Usage: `obs_scrape [--full]`
//!
//! Starts a PLP-Regular engine with the TCP exposition endpoint bound to an
//! ephemeral port, drives a short TATP burst, and then scrapes every route:
//! `/metrics` must be a valid Prometheus exposition with internally
//! consistent histogram series, a nonzero committed counter and the
//! inline-execution families next to the message ones, and each JSON route
//! must parse.  Exits nonzero (with the offending payload on
//! stderr) on any violation, so the CI step fails loudly rather than
//! shipping an endpoint that serves garbage.

use plp_bench::obs::{scrape, OBS_THREADS};
use plp_bench::Scale;
use plp_core::{Design, EngineConfig};
use plp_instrument::{json_is_valid, obs_enabled, parse_exposition, validate_histogram_series};
use plp_workloads::driver::{prepare_engine, run_fixed};
use plp_workloads::tatp::Tatp;

fn fail(why: &str, payload: &str) -> ! {
    eprintln!("obs_scrape: {why}\n--- payload ---\n{payload}");
    std::process::exit(1);
}

/// Split an HTTP response into (status line, body); dies if malformed.
fn split_response<'a>(response: &'a str, route: &str) -> (&'a str, &'a str) {
    let Some((head, body)) = response.split_once("\r\n\r\n") else {
        fail(&format!("{route}: no header/body separator"), response);
    };
    let status = head.lines().next().unwrap_or("");
    if !status.contains("200") {
        fail(&format!("{route}: non-200 status {status:?}"), response);
    }
    (status, body)
}

fn main() {
    if !obs_enabled() {
        eprintln!("obs_scrape: built with obs-stub, nothing to smoke-test");
        return;
    }
    let full = std::env::args().any(|a| a == "--full");
    let scale = if full { Scale::full() } else { Scale::quick() };

    let tatp = Tatp::new(scale.subscribers);
    let config = EngineConfig::new(Design::PlpRegular)
        .with_partitions(OBS_THREADS)
        .with_dlb(plp_core::DlbConfig::aggressive())
        .with_obs_endpoint("127.0.0.1:0");
    let engine = prepare_engine(config, &tatp);
    let addr = engine.obs_addr().expect("endpoint configured");
    let result = run_fixed(
        &engine,
        &tatp,
        OBS_THREADS,
        scale.txns_per_thread.max(2_000),
        0x5C4A9E,
    );
    eprintln!(
        "obs_scrape: burst done ({} committed), scraping {addr}",
        result.stats.committed
    );

    // The exposition route: must parse, histograms must be consistent, and
    // the committed counter must reflect the burst we just ran.
    let response =
        scrape(addr, "/metrics").unwrap_or_else(|e| fail("GET /metrics failed", &e.to_string()));
    let (_, body) = split_response(&response, "/metrics");
    let samples = match parse_exposition(body) {
        Ok(s) => s,
        Err(e) => fail(&format!("/metrics does not parse: {e}"), body),
    };
    if let Err(e) = validate_histogram_series(&samples) {
        fail(&format!("/metrics histograms inconsistent: {e}"), body);
    }
    let committed = samples
        .iter()
        .find(|s| s.name == "plp_txn_committed_total")
        .unwrap_or_else(|| fail("/metrics lacks plp_txn_committed_total", body))
        .value;
    if committed <= 0.0 {
        fail(
            "/metrics shows zero committed transactions after a burst",
            body,
        );
    }

    // Caller-runs execution: messages and inline runs are separate
    // families, and a burst on a mostly idle engine must have run actions
    // inline (the message families only count messages actually sent).
    let family = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| fail(&format!("/metrics lacks {name}"), body))
            .value
    };
    let inline = family("plp_msg_inline_actions_total");
    let inline_nanos = family("plp_msg_inline_nanoseconds_total");
    let messages = family("plp_msg_actions_total");
    if inline <= 0.0 || inline_nanos <= 0.0 {
        fail("/metrics shows no inline actions after a burst", body);
    }

    // Every JSON route must serve valid JSON at any moment.
    for route in [
        "/stats.json",
        "/trace.json",
        "/flight.json",
        "/decisions.json",
        "/slow.json",
    ] {
        let response = scrape(addr, route)
            .unwrap_or_else(|e| fail(&format!("GET {route} failed"), &e.to_string()));
        let (_, body) = split_response(&response, route);
        if !json_is_valid(body) {
            fail(&format!("{route} served invalid JSON"), body);
        }
        if route == "/stats.json" && !body.contains("\"inline_actions\":") {
            fail("/stats.json lacks msg.inline_actions", body);
        }
    }
    println!(
        "obs_scrape: ok — {} samples, {committed:.0} committed, {inline:.0} actions inline, \
         {messages:.0} messages, all JSON routes valid",
        samples.len()
    );
}
