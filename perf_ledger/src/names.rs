//! The names every later issue uses: workloads, end-to-end metrics and
//! per-layer metrics, exactly as `BENCHMARK.json` lists them (a unit test
//! holds the two together).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees, per workload.  The share of failed
/// requests is end-to-end too, but it is 0 on every workload and a relative
/// bound cannot gate a metric that is 0: it travels as `failed` /
/// `attempted` beside the metrics instead.
pub const END_TO_END: [(Metric, f64); 4] = [
    (higher("throughput_tps", "1/s"), 0.20),
    (lower("latency_p50_us", "us"), 0.20),
    (lower("latency_p99_us", "us"), 0.25),
    (lower("setup_s", "s"), 0.25),
];

/// One cost table row per crate-level quantity; `<layer>.<metric>`.
pub const PER_LAYER: [Metric; 63] = [
    // plp-server: isolated codec probes, exact frame sizes, in-situ
    // counters, and the unloaded accounting of the wire tax.
    lower("server.frame_encode_request_ns", "ns"),
    lower("server.frame_decode_request_ns", "ns"),
    lower("server.frame_encode_response_ns", "ns"),
    lower("server.frame_decode_response_ns", "ns"),
    lower("server.request_frame_bytes", "B"),
    lower("server.response_frame_bytes", "B"),
    lower("server.bytes_in_per_req", "B"),
    lower("server.bytes_out_per_req", "B"),
    lower("server.request_us_mean", "us"),
    lower("server.decode_errors", "count"),
    lower("server.unloaded_rtt_us", "us"),
    lower("server.wire_tax_us", "us"),
    lower("server.unattributed_us", "us"),
    lower("server.unattributed_share", "share"),
    // plp-client: spans around the three calls a pipelined client makes.
    lower("client.send_ns", "ns"),
    lower("client.flush_ns", "ns"),
    lower("client.recv_ns", "ns"),
    // plp-core: dispatch.
    lower("core.route_ns", "ns"),
    lower("core.run_unloaded_partitioned_us", "us"),
    lower("core.run_unloaded_conventional_us", "us"),
    lower("core.dispatch_hop_us", "us"),
    lower("core.session_run_us", "us"),
    lower("core.actions_per_txn", "count"),
    lower("core.roundtrip_us_per_action", "us"),
    lower("core.phase_queue_wait_us_per_txn", "us"),
    lower("core.phase_execute_us_per_txn", "us"),
    lower("core.phase_reply_wait_us_per_txn", "us"),
    lower("core.parks_per_txn", "count"),
    lower("core.wakeups_per_txn", "count"),
    lower("core.enqueue_spins_per_txn", "count"),
    higher("core.lane_hit_share", "share"),
    higher("core.batch_actions_share", "share"),
    // plp-lock.
    lower("lock.local_acquire_release_ns", "ns"),
    lower("lock.central_acquire_release_ns", "ns"),
    lower("lock.phase_lock_wait_us_per_txn", "us"),
    // plp-btree.
    lower("btree.probe_owned_ns", "ns"),
    lower("btree.probe_latched_ns", "ns"),
    lower("btree.insert_delete_ns", "ns"),
    lower("btree.range_scan_ns", "ns"),
    lower("btree.smo_per_ktxn", "1/ktxn"),
    // plp-storage.
    lower("storage.heap_get_owned_ns", "ns"),
    lower("storage.heap_get_latched_ns", "ns"),
    lower("storage.heap_update_owned_ns", "ns"),
    lower("storage.heap_update_latched_ns", "ns"),
    lower("storage.heap_insert_delete_ns", "ns"),
    lower("storage.latches_acquired_per_txn", "count"),
    higher("storage.latches_bypassed_per_txn", "count"),
    lower("storage.latch_contended_share", "share"),
    // plp-txn.
    lower("txn.begin_commit_ns", "ns"),
    lower("txn.abort_share", "share"),
    // plp-wal.
    lower("wal.log_insert_commit_ns", "ns"),
    lower("wal.append_batch_us", "us"),
    lower("wal.fsync_us", "us"),
    lower("wal.fsyncs_per_ktxn", "1/ktxn"),
    higher("wal.records_per_fsync", "count"),
    lower("wal.bytes_per_txn", "B"),
    lower("wal.fsync_us_mean", "us"),
    lower("wal.phase_wal_flush_us_per_txn", "us"),
    lower("wal.recover_s", "s"),
    // plp-instrument, and the benchmark's own cost.
    lower("instrument.histogram_record_ns", "ns"),
    lower("instrument.metrics_scrape_ms", "ms"),
    lower("loadgen.gen_op_ns", "ns"),
    lower("loadgen.trace_overhead_ratio", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::run::Workload;

    fn names(doc: &Value, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|entry| {
                entry
                    .get("name")
                    .and_then(Value::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect()
    }

    /// `BENCHMARK.json` at the repository root lists exactly these names,
    /// units, directions and bounds.
    #[test]
    fn benchmark_json_agrees_with_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");

        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names(&doc, "workloads"), workloads);

        let listed = doc.get("end_to_end").and_then(Value::as_array).unwrap();
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, (metric, bound)) in listed.iter().zip(END_TO_END) {
            let field = |k| entry.get(k).and_then(Value::as_str);
            assert_eq!(field("name"), Some(metric.name));
            assert_eq!(field("unit"), Some(metric.unit), "{}", metric.name);
            assert_eq!(
                field("better"),
                Some(metric.better.as_str()),
                "{}",
                metric.name
            );
            assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(bound));
        }

        let listed = doc.get("per_layer").and_then(Value::as_array).unwrap();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (entry, metric) in listed.iter().zip(PER_LAYER) {
            let field = |k| entry.get(k).and_then(Value::as_str);
            assert_eq!(field("name"), Some(metric.name));
            assert_eq!(field("unit"), Some(metric.unit), "{}", metric.name);
            assert_eq!(
                field("better"),
                Some(metric.better.as_str()),
                "{}",
                metric.name
            );
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut all: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        all.extend(END_TO_END.iter().map(|(m, _)| m.name));
        all.extend(Workload::ALL.iter().map(|w| w.name()));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for name in &all {
            assert!(name.len() <= 64 && name.chars().all(ok), "{name}");
        }
        let count = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), count, "a name is used twice");
    }
}
