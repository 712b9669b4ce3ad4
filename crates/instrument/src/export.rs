//! Prometheus text exposition (and JSON) rendering of the engine's counters,
//! plus a small exposition parser used by the round-trip tests and the CI
//! scrape smoke.
//!
//! Both renderings walk the same counter table (`stats_table!` in
//! [`crate::stats`]), so `/metrics` and `/stats.json` carry the same
//! [`StatsSnapshot`] counters. The exposition also renders
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
use crate::stats::{Metric, StatsSnapshot, Value};
use crate::LatencySnapshot;

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
}

/// Render a [`StatsSnapshot`] plus the latency histograms in the Prometheus
/// text exposition format (version 0.0.4).
pub fn prometheus_exposition(stats: &StatsSnapshot, latency: &LatencySnapshot) -> String {
    let mut e = Exposition::new();
    let mut family = "";
    stats.for_each_metric(&mut |m: Metric| {
        // Entries of one labelled family are adjacent in the table.
        if m.name != family {
            e.family(m.name, m.kind, m.help);
            family = m.name;
        }
        let value = match m.value {
            Value::U64(v) => v.to_string(),
            Value::F64(v) => fmt_f64(v),
        };
        e.sample(m.name, &m.labels, &value);
    });

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

/// A JSON object under construction, keys in first-insertion order.
#[derive(Default)]
struct JsonObject(Vec<(&'static str, JsonNode)>);

enum JsonNode {
    Leaf(String),
    Object(JsonObject),
}

impl JsonObject {
    /// Put `leaf` at `path`, creating the objects on the way.
    fn insert(&mut self, path: &[&'static str], leaf: String) {
        let (&key, rest) = path.split_first().expect("a metric has a JSON key");
        if rest.is_empty() {
            self.0.push((key, JsonNode::Leaf(leaf)));
            return;
        }
        let at = match self.0.iter().position(|(k, _)| *k == key) {
            Some(at) => at,
            None => {
                self.0.push((key, JsonNode::Object(JsonObject::default())));
                self.0.len() - 1
            }
        };
        if let JsonNode::Object(child) = &mut self.0[at].1 {
            child.insert(rest, leaf);
        }
    }

    fn write(&self, out: &mut String) {
        out.push('{');
        for (i, (key, node)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{key}\":"));
            match node {
                JsonNode::Leaf(v) => out.push_str(v),
                JsonNode::Object(child) => child.write(out),
            }
        }
        out.push('}');
    }
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
    let mut root = JsonObject::default();
    stats.for_each_metric(&mut |m: Metric| {
        let value = match m.value {
            Value::U64(v) => v.to_string(),
            Value::F64(v) => json_f64(v),
        };
        root.insert(&m.path, value);
    });
    let summaries: Vec<String> = latency
        .named()
        .into_iter()
        .filter(|(_, h)| h.count > 0)
        .map(|(name, h)| {
            format!(
                "{{\"name\":{},\"count\":{},\"sum\":{},\"mean\":{},\"p50\":{},\"p99\":{},\"max\":{}}}",
                crate::json_string_literal(name),
                h.count,
                h.sum,
                json_f64(h.mean()),
                h.p50(),
                h.p99(),
                h.max
            )
        })
        .collect();
    root.insert(&["latency"], format!("[{}]", summaries.join(",")));
    let mut out = String::with_capacity(4 * 1024);
    root.write(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CsCategory, LatencyStats, PageKind, StatsRegistry};

    /// Every counter, gauge, array slot and batch bucket gets a distinct
    /// non-zero value, so a swapped or dropped field shows in the goldens
    /// (`every_sample_is_distinct_and_non_zero` pins that).
    fn populated_registry() -> StatsRegistry {
        let r = StatsRegistry::new();
        let times = |n: u64, f: &dyn Fn()| (0..n).for_each(|_| f());
        times(2, &|| r.txn_committed());
        times(1, &|| r.txn_aborted());
        r.smo_performed(100);
        r.smo_performed(150);
        r.smo_performed(0);
        for (i, cat) in (0u64..).zip(CsCategory::ALL) {
            r.cs().enter_n(cat, 1_000 + 10 * i, false);
            r.cs().enter_n(cat, 400 + i, true);
        }
        for (i, kind) in (0u64..).zip(PageKind::ALL) {
            times(60 + i, &|| r.latches().acquired(kind, false));
            times(50 + i, &|| r.latches().acquired(kind, true));
            times(70 + i, &|| r.latches().bypassed(kind));
            r.latches().waited(kind, 2_000 + 100 * i);
        }
        times(11, &|| r.dlb().evaluation());
        times(12, &|| r.dlb().decay_round());
        times(13, &|| r.dlb().triggered());
        times(14, &|| r.dlb().skipped_balanced());
        times(15, &|| r.dlb().skipped_cost());
        times(16, &|| r.dlb().skipped_cooldown());
        times(17, &|| r.dlb().failed());
        times(18, &|| r.dlb().rollback());
        r.dlb().set_observed_imbalance(1.75);
        r.dlb().set_predicted_imbalance(1.25);
        times(4, &|| r.wal().flushed(20, 300));
        times(21, &|| r.wal().fsync());
        times(22, &|| r.wal().checkpoint());
        r.wal().set_recovery(23, 24, 25);
        times(31, &|| r.msg().roundtrip(100));
        times(32, &|| r.msg().reply_reused());
        times(33, &|| r.msg().reply_allocated());
        r.msg().queue_activity(34, 35, 36, 37);
        for (n, actions) in [(41, 2), (42, 3), (43, 5), (44, 9), (45, 17)] {
            times(n, &|| r.msg().sent(actions));
        }
        times(46, &|| r.msg().sent(1));
        // Exported, but nothing records it: every dispatch takes a lane.
        r.msg()
            .lane_fallbacks
            .fetch_add(47, std::sync::atomic::Ordering::Relaxed);
        r.msg().inline_ran(48, 4_900);
        times(90, &|| r.server().connection_accepted());
        times(29, &|| r.server().connection_closed());
        times(53, &|| r.server().frame_decoded(10));
        times(54, &|| r.server().decode_error(7));
        times(55, &|| r.server().response_sent(12));
        for v in [100u64, 1_000, 10_000, 100_000] {
            r.latency().action_roundtrip.record(v);
            r.latency().phase_execute.record(v / 2);
        }
        r
    }

    /// `/stats.json` flattened to sorted `path = value` lines; arrays index
    /// their elements by position.
    fn json_leaves(json: &str) -> Vec<String> {
        fn walk(s: &[u8], i: &mut usize, path: &str, out: &mut Vec<String>) {
            let key = |i: &mut usize| {
                let start = *i + 1;
                *i = start + s[start..].iter().position(|&c| c == b'"').unwrap();
                let k = std::str::from_utf8(&s[start..*i]).unwrap().to_string();
                *i += 1;
                k
            };
            let join = |k: &str| {
                if path.is_empty() {
                    k.to_string()
                } else {
                    format!("{path}.{k}")
                }
            };
            match s[*i] {
                b'{' | b'[' => {
                    let close = if s[*i] == b'{' { b'}' } else { b']' };
                    *i += 1;
                    let mut n = 0;
                    while s[*i] != close {
                        if s[*i] == b',' {
                            *i += 1;
                        }
                        let child = if close == b'}' {
                            let k = key(i);
                            *i += 1; // ':'
                            join(&k)
                        } else {
                            join(&n.to_string())
                        };
                        walk(s, i, &child, out);
                        n += 1;
                    }
                    *i += 1;
                }
                b'"' => {
                    let v = key(i);
                    out.push(format!("{path} = \"{v}\""));
                }
                _ => {
                    let end = *i
                        + s[*i..]
                            .iter()
                            .position(|&c| matches!(c, b',' | b'}' | b']'))
                            .unwrap();
                    out.push(format!(
                        "{path} = {}",
                        std::str::from_utf8(&s[*i..end]).unwrap()
                    ));
                    *i = end;
                }
            }
        }
        let mut out = Vec::new();
        walk(json.as_bytes(), &mut 0, "", &mut out);
        out.sort();
        out
    }

    /// Byte-for-byte comparison that names the first differing line.
    fn assert_golden(actual: &str, golden: &str, what: &str) {
        if actual == golden {
            return;
        }
        let (a, g): (Vec<_>, Vec<_>) = (actual.lines().collect(), golden.lines().collect());
        let line = (0..a.len().max(g.len()))
            .find(|&i| a.get(i) != g.get(i))
            .unwrap_or(a.len());
        panic!(
            "{what} differs from its golden at line {}:\n  actual: {:?}\n  golden: {:?}",
            line + 1,
            a.get(line),
            g.get(line)
        );
    }

    #[test]
    fn exposition_matches_golden() {
        let r = populated_registry();
        let text = prometheus_exposition(&r.snapshot(), &r.latency().snapshot());
        assert_golden(&text, include_str!("../testdata/metrics.prom"), "/metrics");
    }

    #[test]
    fn stats_json_matches_golden() {
        let r = populated_registry();
        let leaves = json_leaves(&stats_json(&r.snapshot(), &r.latency().snapshot()));
        let text: String = leaves.iter().map(|l| format!("{l}\n")).collect();
        assert_golden(
            &text,
            include_str!("../testdata/stats_json.txt"),
            "/stats.json",
        );
    }

    /// Every non-histogram sample of `/metrics` is in `/stats.json` with
    /// the same value, under its area's object and keyed by its labels
    /// (values are distinct, so the value picks out one leaf).
    #[test]
    fn stats_json_carries_every_exposed_sample() {
        let r = populated_registry();
        let (stats, latency) = (r.snapshot(), r.latency().snapshot());
        let leaves = json_leaves(&stats_json(&stats, &latency));
        for s in parse_exposition(&prometheus_exposition(&stats, &latency)).unwrap() {
            if s.name.starts_with("plp_latency_") {
                continue;
            }
            // `plp_<area>_…`: txn and SMO counters sit at the top level.
            let group = match s.name.split('_').nth(1).unwrap() {
                "txn" | "smo" => "",
                "latch" => "latches",
                area => area,
            };
            let found = leaves.iter().any(|leaf| {
                let (path, value) = leaf.split_once(" = ").unwrap();
                let keys: Vec<&str> = path.split('.').collect();
                let key = keys[keys.len() - 1];
                value.parse::<f64>() == Ok(s.value)
                    && (keys.len() == 1 && group.is_empty() || keys[0] == group)
                    && s.labels
                        .iter()
                        .filter(|(k, _)| k != "class")
                        .all(|(_, v)| keys.contains(&v.as_str()) || key.ends_with(&format!("_{v}")))
            });
            assert!(
                found,
                "/stats.json lacks {} {:?} = {}",
                s.name, s.labels, s.value
            );
        }
    }

    #[test]
    fn every_sample_is_distinct_and_non_zero() {
        let r = populated_registry();
        let text = prometheus_exposition(&r.snapshot(), &r.latency().snapshot());
        let mut seen = std::collections::HashMap::new();
        for s in parse_exposition(&text).unwrap() {
            if s.name.starts_with("plp_latency_") {
                continue;
            }
            let id = format!("{}{:?}", s.name, s.labels);
            assert!(s.value != 0.0, "{id} is zero");
            if let Some(other) = seen.insert(s.value.to_bits(), id.clone()) {
                panic!("{id} and {other} share the value {}", s.value);
            }
        }
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
        assert_eq!(get("plp_msg_actions_total"), 31.0);
        assert_eq!(get("plp_msg_roundtrip_nanoseconds_total"), 3_100.0);
        assert_eq!(get("plp_msg_inline_actions_total"), 48.0);
        assert_eq!(get("plp_msg_inline_nanoseconds_total"), 4_900.0);
        assert_eq!(get("plp_smo_wait_nanoseconds_total"), 250.0);
        assert_eq!(get("plp_dlb_observed_imbalance"), 1.75);
        assert_eq!(get("plp_server_connections_accepted_total"), 90.0);
        assert_eq!(get("plp_server_active_connections"), 61.0);
        assert_eq!(get("plp_server_frames_decoded_total"), 53.0);
        assert_eq!(get("plp_server_decode_errors_total"), 54.0);
        assert_eq!(get("plp_server_bytes_in_total"), 908.0);
        assert_eq!(get("plp_server_bytes_out_total"), 660.0);
        let lockmgr = samples
            .iter()
            .find(|s| s.name == "plp_cs_contended_total" && s.label("category") == Some("lock_mgr"))
            .expect("lock_mgr sample");
        assert_eq!(lockmgr.value, 400.0);
        assert_eq!(lockmgr.label("class"), Some("unscalable"));
        let batch = samples
            .iter()
            .find(|s| s.name == "plp_msg_batch_size_total" && s.label("bucket") == Some("3_4"))
            .expect("batch bucket sample");
        assert_eq!(batch.value, 42.0);
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
        assert!(json.contains("\"inline_actions\":48,\"inline_nanos\":4900"));
        assert!(json.contains("\"server\":{\"connections_accepted\":90"));
        assert!(json.contains("\"active_connections\":61"));
        // Empty registries also serialize cleanly.
        let empty = StatsRegistry::new();
        let json = stats_json(&empty.snapshot(), &LatencyStats::default().snapshot());
        assert!(crate::json_is_valid(&json), "bad json: {json}");
    }
}
