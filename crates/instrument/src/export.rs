//! Prometheus text exposition (and JSON) rendering of the engine's counters,
//! plus a small exposition parser used by the round-trip tests and the CI
//! scrape smoke.
//!
//! The exposition covers every [`StatsSnapshot`] counter family and renders
//! each latency histogram as a cumulative `_bucket{le="…"}` series straight
//! off the log-linear buckets (the `le` bound of a bucket is its inclusive
//! upper value from [`crate::histogram::bucket_range`]; empty buckets are
//! elided, which the format permits — cumulative counts stay monotone over
//! the emitted bounds).
//!
//! Metric naming follows the Prometheus conventions: `plp_` prefix,
//! `_total` suffix on counters, explicit `_nanoseconds` unit on every
//! duration (the engine's native clock; scrape-side `/ 1e9` converts).

use crate::histogram::bucket_range;
use crate::stats::{CsCategory, PageKind, StatsSnapshot};
use crate::LatencySnapshot;

/// Label-safe slug for a critical-section category.
fn cs_slug(cat: CsCategory) -> &'static str {
    match cat {
        CsCategory::LockMgr => "lock_mgr",
        CsCategory::PageLatch => "page_latch",
        CsCategory::Bpool => "bpool",
        CsCategory::Metadata => "metadata",
        CsCategory::LogMgr => "log_mgr",
        CsCategory::XctMgr => "xct_mgr",
        CsCategory::MessagePassing => "message_passing",
        CsCategory::Uncategorized => "uncategorized",
    }
}

/// Label-safe slug for a page kind.
fn latch_slug(kind: PageKind) -> &'static str {
    match kind {
        PageKind::Index => "index",
        PageKind::Heap => "heap",
        PageKind::CatalogSpace => "catalog_space",
    }
}

/// Upper bounds of the legacy actions-per-batch buckets (2 / 3–4 / 5–8 /
/// 9–16 / 17+), as `bucket` label values.
const BATCH_BUCKET_LABELS: [&str; 5] = ["le_2", "3_4", "5_8", "9_16", "ge_17"];

fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

struct Exposition {
    out: String,
}

impl Exposition {
    fn new() -> Self {
        Self {
            out: String::with_capacity(16 * 1024),
        }
    }

    fn family(&mut self, name: &str, kind: &str, help: &str) {
        self.out.push_str("# HELP ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(help);
        self.out.push_str("\n# TYPE ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(kind);
        self.out.push('\n');
    }

    fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: &str) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                self.out.push_str(k);
                self.out.push_str("=\"");
                for c in v.chars() {
                    match c {
                        '\\' => self.out.push_str("\\\\"),
                        '"' => self.out.push_str("\\\""),
                        '\n' => self.out.push_str("\\n"),
                        c => self.out.push(c),
                    }
                }
                self.out.push('"');
            }
            self.out.push('}');
        }
        self.out.push(' ');
        self.out.push_str(value);
        self.out.push('\n');
    }

    fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.family(name, "counter", help);
        self.sample(name, &[], &value.to_string());
    }

    fn gauge_f64(&mut self, name: &str, help: &str, value: f64) {
        self.family(name, "gauge", help);
        self.sample(name, &[], &fmt_f64(value));
    }

    fn gauge_u64(&mut self, name: &str, help: &str, value: u64) {
        self.family(name, "gauge", help);
        self.sample(name, &[], &value.to_string());
    }
}

/// Render a [`StatsSnapshot`] plus the latency histograms in the Prometheus
/// text exposition format (version 0.0.4).
pub fn prometheus_exposition(stats: &StatsSnapshot, latency: &LatencySnapshot) -> String {
    let mut e = Exposition::new();

    e.counter(
        "plp_txn_committed_total",
        "Transactions committed.",
        stats.committed,
    );
    e.counter(
        "plp_txn_aborted_total",
        "Transactions aborted.",
        stats.aborted,
    );
    e.counter(
        "plp_smo_total",
        "Structure-modification operations performed.",
        stats.smo_count,
    );
    e.counter(
        "plp_smo_wait_nanoseconds_total",
        "Time spent waiting to enter an SMO.",
        stats.smo_wait_nanos,
    );

    e.family(
        "plp_cs_entries_total",
        "counter",
        "Critical-section entries by storage-manager component.",
    );
    for cat in CsCategory::ALL {
        e.sample(
            "plp_cs_entries_total",
            &[
                ("category", cs_slug(cat)),
                ("class", cat.contention_class().name()),
            ],
            &stats.cs.entries(cat).to_string(),
        );
    }
    e.family(
        "plp_cs_contended_total",
        "counter",
        "Contended critical-section entries by component.",
    );
    for cat in CsCategory::ALL {
        e.sample(
            "plp_cs_contended_total",
            &[
                ("category", cs_slug(cat)),
                ("class", cat.contention_class().name()),
            ],
            &stats.cs.contended(cat).to_string(),
        );
    }

    e.family(
        "plp_latch_acquired_total",
        "counter",
        "Page-latch acquisitions by page kind.",
    );
    for kind in PageKind::ALL {
        e.sample(
            "plp_latch_acquired_total",
            &[("kind", latch_slug(kind))],
            &stats.latches.acquired(kind).to_string(),
        );
    }
    e.family(
        "plp_latch_contended_total",
        "counter",
        "Contended page-latch acquisitions by page kind.",
    );
    for kind in PageKind::ALL {
        e.sample(
            "plp_latch_contended_total",
            &[("kind", latch_slug(kind))],
            &stats.latches.contended(kind).to_string(),
        );
    }
    e.family(
        "plp_latch_bypassed_total",
        "counter",
        "Latch acquisitions skipped by latch-free PLP owner access.",
    );
    for kind in PageKind::ALL {
        e.sample(
            "plp_latch_bypassed_total",
            &[("kind", latch_slug(kind))],
            &stats.latches.bypassed(kind).to_string(),
        );
    }
    e.family(
        "plp_latch_wait_nanoseconds_total",
        "counter",
        "Time spent waiting on contended page latches by page kind.",
    );
    for kind in PageKind::ALL {
        e.sample(
            "plp_latch_wait_nanoseconds_total",
            &[("kind", latch_slug(kind))],
            &stats.latches.wait_nanos(kind).to_string(),
        );
    }

    e.counter(
        "plp_dlb_evaluations_total",
        "DLB controller evaluation rounds.",
        stats.dlb.evaluations,
    );
    e.counter(
        "plp_dlb_decay_rounds_total",
        "DLB histogram aging rounds.",
        stats.dlb.decay_rounds,
    );
    e.counter(
        "plp_dlb_repartitions_total",
        "Repartitions the DLB controller triggered.",
        stats.dlb.repartitions_triggered,
    );
    e.family(
        "plp_dlb_skipped_total",
        "counter",
        "DLB evaluations that did not repartition, by reason.",
    );
    for (reason, n) in [
        ("balanced", stats.dlb.skipped_balanced),
        ("cost", stats.dlb.skipped_cost),
        ("cooldown", stats.dlb.skipped_cooldown),
    ] {
        e.sample(
            "plp_dlb_skipped_total",
            &[("reason", reason)],
            &n.to_string(),
        );
    }
    e.counter(
        "plp_dlb_repartitions_failed_total",
        "Controller-triggered repartitions that failed.",
        stats.dlb.repartitions_failed,
    );
    e.counter(
        "plp_dlb_rollbacks_total",
        "Failed repartitions rolled back from the journal.",
        stats.dlb.rollbacks,
    );
    e.gauge_f64(
        "plp_dlb_observed_imbalance",
        "Most recent observed partition-load imbalance (max/mean).",
        stats.dlb.observed_imbalance,
    );
    e.gauge_f64(
        "plp_dlb_predicted_imbalance",
        "Imbalance the last accepted plan predicted after repartitioning.",
        stats.dlb.predicted_imbalance,
    );

    e.counter(
        "plp_wal_flush_batches_total",
        "Non-empty group-commit batches flushed.",
        stats.wal.flush_batches,
    );
    e.counter(
        "plp_wal_flushed_records_total",
        "Log records written across all flush batches.",
        stats.wal.flushed_records,
    );
    e.counter(
        "plp_wal_flushed_bytes_total",
        "Log bytes written to the device.",
        stats.wal.flushed_bytes,
    );
    e.counter(
        "plp_wal_fsyncs_total",
        "fsync calls issued on log segments.",
        stats.wal.fsyncs,
    );
    e.counter(
        "plp_wal_checkpoints_total",
        "Fuzzy checkpoint records written.",
        stats.wal.checkpoints,
    );
    e.gauge_u64(
        "plp_wal_recovered_txns",
        "Committed writers (transactions with a commit record) replayed by the last recovery.",
        stats.wal.recovered_txns,
    );
    e.gauge_u64(
        "plp_wal_recovered_records",
        "Redo records replayed by the last recovery.",
        stats.wal.recovered_records,
    );
    e.gauge_u64(
        "plp_wal_torn_bytes",
        "Torn-tail bytes discarded by the last recovery.",
        stats.wal.torn_bytes,
    );

    e.counter(
        "plp_msg_actions_total",
        "Action round trips measured (messages actually sent).",
        stats.msg.actions,
    );
    e.counter(
        "plp_msg_roundtrip_nanoseconds_total",
        "Total coordinator-observed round-trip time.",
        stats.msg.roundtrip_nanos,
    );
    e.counter(
        "plp_msg_reply_reuses_total",
        "Reply rendezvous taken from the session pool.",
        stats.msg.reply_reuses,
    );
    e.counter(
        "plp_msg_reply_allocs_total",
        "Reply rendezvous freshly allocated.",
        stats.msg.reply_allocs,
    );
    e.counter(
        "plp_msg_enqueue_spins_total",
        "Producer-side queue retry rounds.",
        stats.msg.enqueue_spins,
    );
    e.counter(
        "plp_msg_dequeue_spins_total",
        "Consumer-side queue retry rounds.",
        stats.msg.dequeue_spins,
    );
    e.counter(
        "plp_msg_parks_total",
        "Threads that exhausted the spin budget and blocked.",
        stats.msg.parks,
    );
    e.counter(
        "plp_msg_wakeups_total",
        "Wakeups actually issued.",
        stats.msg.wakeups,
    );
    e.counter(
        "plp_msg_batches_total",
        "Messages that carried more than one action.",
        stats.msg.batches,
    );
    e.counter(
        "plp_msg_batch_actions_total",
        "Actions carried inside multi-action messages.",
        stats.msg.batch_actions,
    );
    e.family(
        "plp_msg_batch_size_total",
        "counter",
        "Batched dispatches by actions-per-batch bucket.",
    );
    for (label, n) in BATCH_BUCKET_LABELS
        .iter()
        .zip(stats.msg.batch_size_buckets.iter())
    {
        e.sample(
            "plp_msg_batch_size_total",
            &[("bucket", label)],
            &n.to_string(),
        );
    }
    e.counter(
        "plp_msg_lane_hits_total",
        "Dispatches that took an SPSC fast lane.",
        stats.msg.lane_hits,
    );
    e.counter(
        "plp_msg_lane_fallbacks_total",
        "Dispatches that fell back to the shared MPMC queue.",
        stats.msg.lane_fallbacks,
    );
    e.counter(
        "plp_msg_inline_actions_total",
        "Actions a session ran itself on an idle partition (no message sent).",
        stats.msg.inline_actions,
    );
    e.counter(
        "plp_msg_inline_nanoseconds_total",
        "Session-observed time running inline actions.",
        stats.msg.inline_nanos,
    );

    e.counter(
        "plp_server_connections_accepted_total",
        "Client connections accepted by the network front end.",
        stats.server.connections_accepted,
    );
    e.counter(
        "plp_server_connections_closed_total",
        "Client connections closed.",
        stats.server.connections_closed,
    );
    e.gauge_u64(
        "plp_server_active_connections",
        "Client connections currently open.",
        stats.server.active_connections(),
    );
    e.counter(
        "plp_server_frames_decoded_total",
        "Request frames decoded successfully.",
        stats.server.frames_decoded,
    );
    e.counter(
        "plp_server_decode_errors_total",
        "Frames rejected by the decoder (connection kept alive).",
        stats.server.decode_errors,
    );
    e.counter(
        "plp_server_responses_sent_total",
        "Response frames written back to clients.",
        stats.server.responses_sent,
    );
    e.counter(
        "plp_server_bytes_in_total",
        "Frame bytes read off client sockets.",
        stats.server.bytes_in,
    );
    e.counter(
        "plp_server_bytes_out_total",
        "Frame bytes written back to clients.",
        stats.server.bytes_out,
    );

    for (name, h) in latency.named() {
        let family = format!("plp_latency_{name}_nanoseconds");
        e.family(&family, "histogram", "Engine latency histogram (ns).");
        let bucket = format!("{family}_bucket");
        let mut cumulative = 0u64;
        for (i, &n) in h.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            cumulative += n;
            let (_, hi) = bucket_range(i);
            e.sample(&bucket, &[("le", &hi.to_string())], &cumulative.to_string());
        }
        e.sample(&bucket, &[("le", "+Inf")], &h.count.to_string());
        e.sample(&format!("{family}_sum"), &[], &h.sum.to_string());
        e.sample(&format!("{family}_count"), &[], &h.count.to_string());
    }

    e.out
}

/// One parsed exposition sample line.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

impl MetricSample {
    /// The value of a label, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

fn valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn parse_value(s: &str) -> Result<f64, String> {
    match s {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        other => other
            .parse::<f64>()
            .map_err(|e| format!("bad value {other:?}: {e}")),
    }
}

/// Parse one `name{labels} value` sample line.
fn parse_sample_line(line: &str) -> Result<MetricSample, String> {
    let (name, rest) = match line.find(['{', ' ']) {
        Some(i) => (&line[..i], &line[i..]),
        None => return Err(format!("no value on line {line:?}")),
    };
    if !valid_metric_name(name) {
        return Err(format!("invalid metric name {name:?}"));
    }
    let mut labels = Vec::new();
    let rest = if let Some(body) = rest.strip_prefix('{') {
        let close = body
            .find('}')
            .ok_or_else(|| format!("unclosed label set on line {line:?}"))?;
        // The exposition this crate emits never escapes `}` or `,` inside
        // label values, so splitting on them is exact here.
        let label_body = &body[..close];
        if !label_body.is_empty() {
            for pair in label_body.split(',') {
                let eq = pair
                    .find('=')
                    .ok_or_else(|| format!("label without '=' in {line:?}"))?;
                let key = &pair[..eq];
                let raw = &pair[eq + 1..];
                if !valid_metric_name(key) {
                    return Err(format!("invalid label name {key:?}"));
                }
                let raw = raw
                    .strip_prefix('"')
                    .and_then(|r| r.strip_suffix('"'))
                    .ok_or_else(|| format!("unquoted label value in {line:?}"))?;
                let mut value = String::new();
                let mut chars = raw.chars();
                while let Some(c) = chars.next() {
                    if c == '\\' {
                        match chars.next() {
                            Some('\\') => value.push('\\'),
                            Some('"') => value.push('"'),
                            Some('n') => value.push('\n'),
                            other => return Err(format!("bad escape {other:?} in {line:?}")),
                        }
                    } else {
                        value.push(c);
                    }
                }
                labels.push((key.to_string(), value));
            }
        }
        &body[close + 1..]
    } else {
        rest
    };
    let mut fields = rest.split_whitespace();
    let value = parse_value(
        fields
            .next()
            .ok_or_else(|| format!("no value in {line:?}"))?,
    )?;
    // An optional trailing timestamp (integer milliseconds) is allowed.
    if let Some(ts) = fields.next() {
        ts.parse::<i64>()
            .map_err(|e| format!("bad timestamp {ts:?}: {e}"))?;
    }
    if fields.next().is_some() {
        return Err(format!("trailing garbage in {line:?}"));
    }
    Ok(MetricSample {
        name: name.to_string(),
        labels,
        value,
    })
}

/// Parse and validate a Prometheus text exposition document (format 0.0.4):
/// every line must be empty, a well-formed `# HELP` / `# TYPE` comment, or a
/// well-formed sample. Returns the samples in document order.
pub fn parse_exposition(text: &str) -> Result<Vec<MetricSample>, String> {
    let mut samples = Vec::new();
    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut fields = rest.split_whitespace();
                let name = fields.next().ok_or("TYPE without metric name")?;
                if !valid_metric_name(name) {
                    return Err(format!("TYPE names invalid metric {name:?}"));
                }
                let kind = fields.next().ok_or("TYPE without kind")?;
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!("unknown TYPE kind {kind:?}"));
                }
            } else if let Some(rest) = comment.strip_prefix("HELP ") {
                let name = rest.split_whitespace().next().ok_or("HELP without name")?;
                if !valid_metric_name(name) {
                    return Err(format!("HELP names invalid metric {name:?}"));
                }
            }
            // Other comments are permitted free text.
            continue;
        }
        samples.push(parse_sample_line(line)?);
    }
    Ok(samples)
}

/// Cross-check every histogram family in a parsed exposition: `le` bounds
/// strictly ascending, cumulative bucket counts non-decreasing, and the
/// `+Inf` bucket equal to the `_count` sample. Returns the number of
/// histogram families checked.
pub fn validate_histogram_series(samples: &[MetricSample]) -> Result<usize, String> {
    let mut families = 0usize;
    let mut i = 0;
    while i < samples.len() {
        let s = &samples[i];
        let Some(base) = s.name.strip_suffix("_bucket").map(str::to_string) else {
            i += 1;
            continue;
        };
        let mut prev_le = f64::NEG_INFINITY;
        let mut prev_cum = 0f64;
        let mut inf_value = None;
        while i < samples.len() && samples[i].name == format!("{base}_bucket") {
            let b = &samples[i];
            let le = parse_value(
                b.label("le")
                    .ok_or_else(|| format!("{base}: bucket without le"))?,
            )?;
            if le <= prev_le {
                return Err(format!("{base}: le bounds not ascending at {le}"));
            }
            if b.value < prev_cum {
                return Err(format!("{base}: cumulative count decreased at le={le}"));
            }
            prev_le = le;
            prev_cum = b.value;
            if le.is_infinite() {
                inf_value = Some(b.value);
            }
            i += 1;
        }
        let inf = inf_value.ok_or_else(|| format!("{base}: no +Inf bucket"))?;
        let sum = samples
            .get(i)
            .filter(|s| s.name == format!("{base}_sum"))
            .ok_or_else(|| format!("{base}: missing _sum after buckets"))?;
        let count = samples
            .get(i + 1)
            .filter(|s| s.name == format!("{base}_count"))
            .ok_or_else(|| format!("{base}: missing _count after _sum"))?;
        if count.value != inf {
            return Err(format!(
                "{base}: +Inf bucket {} != _count {}",
                inf, count.value
            ));
        }
        if count.value == 0.0 && sum.value != 0.0 {
            return Err(format!("{base}: zero count but non-zero sum"));
        }
        i += 2;
        families += 1;
    }
    Ok(families)
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Render the counters and latency summaries as a JSON document (the
/// `/stats.json` endpoint body).
pub fn stats_json(stats: &StatsSnapshot, latency: &LatencySnapshot) -> String {
    let mut out = String::with_capacity(4 * 1024);
    out.push('{');
    out.push_str(&format!(
        "\"committed\":{},\"aborted\":{},\"smo_count\":{},\"smo_wait_nanos\":{},",
        stats.committed, stats.aborted, stats.smo_count, stats.smo_wait_nanos
    ));
    out.push_str("\"cs\":{");
    for (i, cat) in CsCategory::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{}\":{{\"entries\":{},\"contended\":{}}}",
            cs_slug(*cat),
            stats.cs.entries(*cat),
            stats.cs.contended(*cat)
        ));
    }
    out.push_str("},\"latches\":{");
    for (i, kind) in PageKind::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{}\":{{\"acquired\":{},\"contended\":{},\"bypassed\":{},\"wait_nanos\":{}}}",
            latch_slug(*kind),
            stats.latches.acquired(*kind),
            stats.latches.contended(*kind),
            stats.latches.bypassed(*kind),
            stats.latches.wait_nanos(*kind)
        ));
    }
    out.push_str(&format!(
        "}},\"dlb\":{{\"evaluations\":{},\"decay_rounds\":{},\"repartitions_triggered\":{},\
         \"skipped_balanced\":{},\"skipped_cost\":{},\"skipped_cooldown\":{},\
         \"repartitions_failed\":{},\"rollbacks\":{},\"observed_imbalance\":{},\
         \"predicted_imbalance\":{}}},",
        stats.dlb.evaluations,
        stats.dlb.decay_rounds,
        stats.dlb.repartitions_triggered,
        stats.dlb.skipped_balanced,
        stats.dlb.skipped_cost,
        stats.dlb.skipped_cooldown,
        stats.dlb.repartitions_failed,
        stats.dlb.rollbacks,
        json_f64(stats.dlb.observed_imbalance),
        json_f64(stats.dlb.predicted_imbalance)
    ));
    out.push_str(&format!(
        "\"wal\":{{\"flush_batches\":{},\"flushed_records\":{},\"flushed_bytes\":{},\
         \"fsyncs\":{},\"checkpoints\":{},\"recovered_txns\":{},\"recovered_records\":{},\
         \"torn_bytes\":{}}},",
        stats.wal.flush_batches,
        stats.wal.flushed_records,
        stats.wal.flushed_bytes,
        stats.wal.fsyncs,
        stats.wal.checkpoints,
        stats.wal.recovered_txns,
        stats.wal.recovered_records,
        stats.wal.torn_bytes
    ));
    out.push_str(&format!(
        "\"msg\":{{\"actions\":{},\"roundtrip_nanos\":{},\"reply_reuses\":{},\
         \"reply_allocs\":{},\"parks\":{},\"wakeups\":{},\"batches\":{},\"batch_actions\":{},\
         \"lane_hits\":{},\"lane_fallbacks\":{},\"inline_actions\":{},\
         \"inline_nanos\":{}}},",
        stats.msg.actions,
        stats.msg.roundtrip_nanos,
        stats.msg.reply_reuses,
        stats.msg.reply_allocs,
        stats.msg.parks,
        stats.msg.wakeups,
        stats.msg.batches,
        stats.msg.batch_actions,
        stats.msg.lane_hits,
        stats.msg.lane_fallbacks,
        stats.msg.inline_actions,
        stats.msg.inline_nanos
    ));
    out.push_str(&format!(
        "\"server\":{{\"connections_accepted\":{},\"connections_closed\":{},\
         \"active_connections\":{},\"frames_decoded\":{},\"decode_errors\":{},\
         \"responses_sent\":{},\"bytes_in\":{},\"bytes_out\":{}}},",
        stats.server.connections_accepted,
        stats.server.connections_closed,
        stats.server.active_connections(),
        stats.server.frames_decoded,
        stats.server.decode_errors,
        stats.server.responses_sent,
        stats.server.bytes_in,
        stats.server.bytes_out
    ));
    out.push_str("\"latency\":[");
    let mut first = true;
    for (name, h) in latency.named() {
        if h.count == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":{},\"count\":{},\"sum\":{},\"mean\":{},\"p50\":{},\"p99\":{},\"max\":{}}}",
            crate::json_string_literal(name),
            h.count,
            h.sum,
            json_f64(h.mean()),
            h.p50(),
            h.p99(),
            h.max
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LatencyStats, StatsRegistry};

    fn populated_registry() -> StatsRegistry {
        let r = StatsRegistry::new();
        r.txn_committed();
        r.txn_committed();
        r.txn_aborted();
        r.cs().enter(CsCategory::LockMgr, true);
        r.cs().enter(CsCategory::MessagePassing, false);
        r.latches().acquired(PageKind::Index, true);
        r.latches().waited(PageKind::Index, 500);
        r.dlb().evaluation();
        r.dlb().set_observed_imbalance(1.75);
        r.wal().flushed(3, 96);
        r.wal().fsync();
        r.msg().roundtrip(1_500);
        r.msg().sent(4, true);
        r.msg().inline_ran(3, 900);
        r.server().connection_accepted();
        r.server().connection_accepted();
        r.server().connection_closed();
        r.server().frame_decoded(48);
        r.server().decode_error(16);
        r.server().response_sent(52);
        r.smo_performed(250);
        for v in [100u64, 1_000, 10_000, 100_000] {
            r.latency().action_roundtrip.record(v);
            r.latency().phase_execute.record(v / 2);
        }
        r
    }

    #[test]
    fn exposition_round_trips_through_parser() {
        let r = populated_registry();
        let text = prometheus_exposition(&r.snapshot(), &r.latency().snapshot());
        let samples = parse_exposition(&text).expect("exposition parses");
        let get = |name: &str| -> f64 {
            samples
                .iter()
                .find(|s| s.name == name && s.labels.is_empty())
                .unwrap_or_else(|| panic!("missing {name}"))
                .value
        };
        assert_eq!(get("plp_txn_committed_total"), 2.0);
        assert_eq!(get("plp_txn_aborted_total"), 1.0);
        assert_eq!(get("plp_msg_actions_total"), 1.0);
        assert_eq!(get("plp_msg_roundtrip_nanoseconds_total"), 1_500.0);
        assert_eq!(get("plp_msg_inline_actions_total"), 3.0);
        assert_eq!(get("plp_msg_inline_nanoseconds_total"), 900.0);
        assert_eq!(get("plp_smo_wait_nanoseconds_total"), 250.0);
        assert_eq!(get("plp_dlb_observed_imbalance"), 1.75);
        assert_eq!(get("plp_server_connections_accepted_total"), 2.0);
        assert_eq!(get("plp_server_active_connections"), 1.0);
        assert_eq!(get("plp_server_frames_decoded_total"), 1.0);
        assert_eq!(get("plp_server_decode_errors_total"), 1.0);
        assert_eq!(get("plp_server_bytes_in_total"), 64.0);
        assert_eq!(get("plp_server_bytes_out_total"), 52.0);
        let lockmgr = samples
            .iter()
            .find(|s| s.name == "plp_cs_contended_total" && s.label("category") == Some("lock_mgr"))
            .expect("lock_mgr sample");
        assert_eq!(lockmgr.value, 1.0);
        assert_eq!(lockmgr.label("class"), Some("unscalable"));
        let batch = samples
            .iter()
            .find(|s| s.name == "plp_msg_batch_size_total" && s.label("bucket") == Some("3_4"))
            .expect("batch bucket sample");
        assert_eq!(batch.value, 1.0);
    }

    #[test]
    fn histogram_series_are_cumulative_and_reconcile() {
        let r = populated_registry();
        let text = prometheus_exposition(&r.snapshot(), &r.latency().snapshot());
        let samples = parse_exposition(&text).expect("parses");
        let families = validate_histogram_series(&samples).expect("histogram series valid");
        // Every latency histogram is emitted, recorded or not.
        assert_eq!(families, r.latency().snapshot().named().len());
        let count = samples
            .iter()
            .find(|s| s.name == "plp_latency_action_roundtrip_nanoseconds_count")
            .expect("count sample");
        assert_eq!(count.value, 4.0);
        let sum = samples
            .iter()
            .find(|s| s.name == "plp_latency_action_roundtrip_nanoseconds_sum")
            .expect("sum sample");
        assert_eq!(sum.value, 111_100.0);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse_exposition("plp_ok 1\n").is_ok());
        assert!(parse_exposition("1bad_name 1\n").is_err());
        assert!(parse_exposition("plp_ok notanumber\n").is_err());
        assert!(parse_exposition("plp_ok{unclosed=\"x\" 1\n").is_err());
        assert!(parse_exposition("plp_ok{k=unquoted} 1\n").is_err());
        assert!(parse_exposition("# TYPE plp_ok frobnicator\n").is_err());
        assert!(
            parse_exposition("plp_ok 1 123456\n").is_ok(),
            "timestamps allowed"
        );
        assert!(parse_exposition("plp_ok 1 12 extra\n").is_err());
        let esc = parse_exposition("m{k=\"a\\\"b\\\\c\\nd\"} 2\n").unwrap();
        assert_eq!(esc[0].label("k"), Some("a\"b\\c\nd"));
    }

    #[test]
    fn validator_catches_broken_histograms() {
        let broken = "\
h_bucket{le=\"10\"} 5\n\
h_bucket{le=\"20\"} 3\n\
h_bucket{le=\"+Inf\"} 5\n\
h_sum 50\n\
h_count 5\n";
        let samples = parse_exposition(broken).unwrap();
        assert!(validate_histogram_series(&samples)
            .unwrap_err()
            .contains("decreased"));
        let mismatched = "\
h_bucket{le=\"+Inf\"} 5\n\
h_sum 50\n\
h_count 6\n";
        let samples = parse_exposition(mismatched).unwrap();
        assert!(validate_histogram_series(&samples)
            .unwrap_err()
            .contains("_count"));
    }

    #[test]
    fn stats_json_is_valid_json() {
        let r = populated_registry();
        let json = stats_json(&r.snapshot(), &r.latency().snapshot());
        assert!(crate::json_is_valid(&json), "bad json: {json}");
        assert!(json.contains("\"committed\":2"));
        assert!(json.contains("\"lock_mgr\""));
        assert!(json.contains("\"action_roundtrip\""));
        assert!(json.contains("\"inline_actions\":3,\"inline_nanos\":900"));
        assert!(json.contains("\"server\":{\"connections_accepted\":2"));
        assert!(json.contains("\"active_connections\":1"));
        // Empty registries also serialize cleanly.
        let empty = StatsRegistry::new();
        let json = stats_json(&empty.snapshot(), &LatencyStats::default().snapshot());
        assert!(crate::json_is_valid(&json), "bad json: {json}");
    }
}
