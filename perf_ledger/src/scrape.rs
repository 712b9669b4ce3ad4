//! In-situ counters, read from outside the program: the `/metrics` text
//! exposition of the engine's observability endpoint, scraped before and
//! after a run and looked up by family name.  A family the program no longer
//! exports comes back as `None` and is listed, never guessed — the stats
//! structs behind the exposition are due to be rewritten, the names are the
//! contract.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One scrape: the sum of every sample of each metric name (labels folded,
/// so `plp_latch_acquired_total` is the total over page kinds).  Histogram
/// `_bucket` series are skipped; `_sum` and `_count` are kept.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    /// Parse exposition text.  Lines that are not `name[{labels}] value`
    /// are ignored: the lookup by name decides what is missing.
    pub fn parse(text: &str) -> Scrape {
        let mut sums = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let name_end = line.find(['{', ' ']).unwrap_or(line.len());
            let name = &line[..name_end];
            if name.ends_with("_bucket") {
                continue;
            }
            // The value follows the label block, if any; label values may
            // hold spaces but not an unescaped `}` in this exposition.
            let rest = match line[name_end..].strip_prefix('{') {
                Some(labelled) => labelled.split_once('}').map(|(_, rest)| rest),
                None => Some(&line[name_end..]),
            };
            let value = rest
                .and_then(|r| r.split_whitespace().next())
                .and_then(|v| v.parse::<f64>().ok());
            if let Some(value) = value {
                *sums.entry(name.to_string()).or_insert(0.0) += value;
            }
        }
        Scrape(sums)
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Growth of each name between two scrapes, remembering every name that
/// was asked for and not found.
#[derive(Debug)]
pub struct Delta<'a> {
    before: &'a Scrape,
    after: &'a Scrape,
    missing: Vec<String>,
}

impl<'a> Delta<'a> {
    pub fn new(before: &'a Scrape, after: &'a Scrape) -> Self {
        Delta {
            before,
            after,
            missing: Vec::new(),
        }
    }

    /// `after − before` for `name`; `None` (and noted) when either scrape
    /// lacks it.
    pub fn get(&mut self, name: &str) -> Option<f64> {
        match (self.before.get(name), self.after.get(name)) {
            (Some(before), Some(after)) => Some(after - before),
            _ => {
                if !self.missing.iter().any(|m| m == name) {
                    self.missing.push(name.to_string());
                }
                None
            }
        }
    }

    /// `Δnumerator / Δdenominator × scale`; `None` when a family is missing
    /// or the denominator did not move.
    pub fn ratio(&mut self, numerator: &str, denominator: &str, scale: f64) -> Option<f64> {
        let (n, d) = (self.get(numerator), self.get(denominator));
        match (n, d) {
            (Some(n), Some(d)) if d > 0.0 => Some(n / d * scale),
            _ => None,
        }
    }

    pub fn missing(self) -> Vec<String> {
        self.missing
    }
}

/// GET `path` from the observability endpoint; returns the body.
pub fn http_get(addr: SocketAddr, path: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(format!("GET {path} HTTP/1.1\r\nHost: perf_ledger\r\n\r\n").as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no header/body separator"))?;
    if !head.lines().next().unwrap_or("").contains("200") {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("GET {path}: {}", head.lines().next().unwrap_or("")),
        ));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "\
# HELP plp_txn_committed_total Transactions committed.
# TYPE plp_txn_committed_total counter
plp_txn_committed_total 100
plp_latch_acquired_total{kind=\"heap\"} 10
plp_latch_acquired_total{kind=\"index leaf\"} 5
plp_latency_wal_fsync_nanoseconds_bucket{le=\"1024\"} 3
plp_latency_wal_fsync_nanoseconds_sum 3000
plp_latency_wal_fsync_nanoseconds_count 3
plp_dlb_observed_imbalance 1.5
";

    const AFTER: &str = "\
plp_txn_committed_total 1100
plp_latch_acquired_total{kind=\"heap\"} 2010
plp_latch_acquired_total{kind=\"index leaf\"} 1005
plp_latency_wal_fsync_nanoseconds_bucket{le=\"1024\"} 13
plp_latency_wal_fsync_nanoseconds_sum 53000
plp_latency_wal_fsync_nanoseconds_count 13
garbage line without a number
";

    #[test]
    fn labels_fold_and_buckets_are_skipped() {
        let s = Scrape::parse(BEFORE);
        assert_eq!(s.get("plp_latch_acquired_total"), Some(15.0));
        assert_eq!(s.get("plp_latency_wal_fsync_nanoseconds_sum"), Some(3000.0));
        assert_eq!(s.get("plp_latency_wal_fsync_nanoseconds_bucket"), None);
        assert_eq!(s.get("plp_dlb_observed_imbalance"), Some(1.5));
        assert_eq!(s.get("garbage"), None);
    }

    #[test]
    fn deltas_and_ratios_by_family_name() {
        let (before, after) = (Scrape::parse(BEFORE), Scrape::parse(AFTER));
        let mut d = Delta::new(&before, &after);
        assert_eq!(d.get("plp_txn_committed_total"), Some(1000.0));
        assert_eq!(
            d.ratio("plp_latch_acquired_total", "plp_txn_committed_total", 1.0),
            Some(3.0)
        );
        assert_eq!(
            d.ratio(
                "plp_latency_wal_fsync_nanoseconds_sum",
                "plp_latency_wal_fsync_nanoseconds_count",
                1e-3
            ),
            Some(5.0)
        );
        assert!(d.missing().is_empty());
    }

    #[test]
    fn missing_families_are_none_and_listed_once() {
        let (before, after) = (Scrape::parse(BEFORE), Scrape::parse(AFTER));
        let mut d = Delta::new(&before, &after);
        assert_eq!(d.get("plp_renamed_total"), None);
        assert_eq!(
            d.ratio("plp_renamed_total", "plp_txn_committed_total", 1.0),
            None
        );
        // Present before, gone after: still missing.
        assert_eq!(d.get("plp_dlb_observed_imbalance"), None);
        assert_eq!(
            d.missing(),
            vec!["plp_renamed_total", "plp_dlb_observed_imbalance"]
        );
    }

    #[test]
    fn zero_denominator_is_none_but_not_missing() {
        let s = Scrape::parse(BEFORE);
        let mut d = Delta::new(&s, &s);
        assert_eq!(
            d.ratio("plp_latch_acquired_total", "plp_txn_committed_total", 1.0),
            None
        );
        assert!(d.missing().is_empty());
    }
}
