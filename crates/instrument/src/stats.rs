//! Critical-section and page-latch counters.
//!
//! The categories mirror the breakdown used in Figure 1 of the paper ("CSs per
//! transaction" by originating storage-manager service) and the page-kind
//! breakdown used in Figures 2 and 3.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::histogram::{bucket_index, bucket_range, Histogram, HistogramSnapshot};

/// The storage-manager component that owns a critical section.
///
/// These are exactly the categories of Figure 1 in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(usize)]
pub enum CsCategory {
    /// Centralized lock-manager critical sections (lock-head buckets, queues).
    LockMgr = 0,
    /// Page-latch acquisitions (index, heap and catalog pages).
    PageLatch = 1,
    /// Buffer-pool critical sections (frame-table buckets, cleaner handshakes).
    Bpool = 2,
    /// Catalog, free-space and other metadata latching.
    Metadata = 3,
    /// Log-manager critical sections (log-buffer inserts, flush handshakes).
    LogMgr = 4,
    /// Transaction-manager critical sections (txn object state transitions).
    XctMgr = 5,
    /// Message passing between the partition manager and worker threads.
    MessagePassing = 6,
    /// Everything else.
    Uncategorized = 7,
}

impl CsCategory {
    pub const ALL: [CsCategory; 8] = [
        CsCategory::LockMgr,
        CsCategory::PageLatch,
        CsCategory::Bpool,
        CsCategory::Metadata,
        CsCategory::LogMgr,
        CsCategory::XctMgr,
        CsCategory::MessagePassing,
        CsCategory::Uncategorized,
    ];

    /// The contention class the paper assigns to this kind of communication
    /// (Section 2.1).
    pub(crate) fn contention_class(self) -> ContentionClass {
        match self {
            CsCategory::LockMgr => ContentionClass::Unscalable,
            CsCategory::PageLatch => ContentionClass::Unscalable,
            CsCategory::Bpool => ContentionClass::Fixed,
            CsCategory::Metadata => ContentionClass::Unscalable,
            CsCategory::LogMgr => ContentionClass::Composable,
            CsCategory::XctMgr => ContentionClass::Fixed,
            CsCategory::MessagePassing => ContentionClass::Fixed,
            CsCategory::Uncategorized => ContentionClass::Unscalable,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            CsCategory::LockMgr => "Lock mgr",
            CsCategory::PageLatch => "Page Latches",
            CsCategory::Bpool => "Bpool",
            CsCategory::Metadata => "Metadata",
            CsCategory::LogMgr => "Log mgr",
            CsCategory::XctMgr => "Xct mgr",
            CsCategory::MessagePassing => "Message passing",
            CsCategory::Uncategorized => "Uncategorized",
        }
    }

    /// Label-safe slug: the `category` label and the `/stats.json` key.
    fn slug(self) -> &'static str {
        match self {
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

    fn labels(self) -> Vec<(&'static str, &'static str)> {
        vec![
            ("category", self.slug()),
            ("class", self.contention_class().name()),
        ]
    }
}

impl fmt::Display for CsCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The contention behaviour of a critical section (Section 2.1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ContentionClass {
    /// Contention independent of hardware parallelism (e.g. producer/consumer
    /// pairs, transaction-object state transitions).
    Fixed,
    /// Threads can aggregate their operations while queueing (e.g. Aether-style
    /// consolidated log inserts).
    Composable,
    /// Contention grows with the number of threads; these become bottlenecks.
    Unscalable,
}

impl ContentionClass {
    pub fn name(self) -> &'static str {
        match self {
            ContentionClass::Fixed => "fixed",
            ContentionClass::Composable => "composable",
            ContentionClass::Unscalable => "unscalable",
        }
    }
}

/// The kind of database page a latch protects (Figures 2 and 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(usize)]
pub enum PageKind {
    /// B+Tree / MRBTree interior and leaf pages.
    Index = 0,
    /// Heap-file pages holding non-clustered records.
    Heap = 1,
    /// Catalog, routing (partition-table) and free-space-management pages.
    CatalogSpace = 2,
}

impl PageKind {
    pub const ALL: [PageKind; 3] = [PageKind::Index, PageKind::Heap, PageKind::CatalogSpace];

    pub fn name(self) -> &'static str {
        match self {
            PageKind::Index => "INDEX",
            PageKind::Heap => "HEAP",
            PageKind::CatalogSpace => "CATALOG/SPACE",
        }
    }

    /// The critical-section category a latch on this page kind reports under.
    pub fn cs_category(self) -> CsCategory {
        match self {
            PageKind::Index | PageKind::Heap => CsCategory::PageLatch,
            PageKind::CatalogSpace => CsCategory::Metadata,
        }
    }

    /// Label-safe slug: the `kind` label and the `/stats.json` key.
    fn slug(self) -> &'static str {
        match self {
            PageKind::Index => "index",
            PageKind::Heap => "heap",
            PageKind::CatalogSpace => "catalog_space",
        }
    }

    fn labels(self) -> Vec<(&'static str, &'static str)> {
        vec![("kind", self.slug())]
    }
}

impl fmt::Display for PageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One exported value: a Prometheus sample and a `/stats.json` leaf.
pub(crate) struct Metric {
    pub(crate) name: &'static str,
    pub(crate) help: &'static str,
    /// Prometheus `TYPE`: `counter` or `gauge`.
    pub(crate) kind: &'static str,
    pub(crate) labels: Vec<(&'static str, &'static str)>,
    /// Keys from the `/stats.json` root down to the leaf.
    pub(crate) path: Vec<&'static str>,
    pub(crate) value: Value,
}

pub(crate) enum Value {
    U64(u64),
    F64(f64),
}

/// Declares every counter of [`StatsRegistry`] once, and derives the rest.
///
/// Each entry is `field: kind => "prometheus_name" {label = "value"} /
/// "HELP text",` (the label is optional; so is the HELP of an entry that
/// continues the family above it). Kinds:
///
/// * `counter` — cumulative `u64`; `delta` subtracts.
/// * `gauge`, `gauge_f64` — point-in-time value (an `f64` is stored as its
///   bits); `delta` keeps the later value.
/// * `per[Enum]` — one counter per slot of `Enum::ALL`, labelled and keyed
///   by the slot (`Enum::labels`, `Enum::slug`).
/// * `buckets["a", …]` — a [`Histogram`] exported as the legacy
///   actions-per-message buckets, labelled `bucket`.
/// * `derived` — no storage: a gauge read from the snapshot method of the
///   same name.
///
/// `registry` lists the counters kept on [`StatsRegistry`] itself (counters
/// only), `extras` its other members (each has a `reset`), and every group
/// after them becomes a field of the registry and of its snapshot.
///
/// From the table it generates each group's atomic struct (the fields in
/// table order) and `Copy` snapshot, their `snapshot`, `reset` and `delta`,
/// the snapshot accessors of `per` arrays, [`StatsRegistry`] and
/// [`StatsSnapshot`], and the table-order walk that `/metrics` and
/// `/stats.json` render. Recording methods and derived read-outs are
/// written by hand below the table.
macro_rules! stats_table {
    (
        registry { $($(#[$ta:meta])* $top:ident: counter => $tname:literal / $thelp:literal,)* }
        extras { $($(#[$xa:meta])* $x:ident: $X:ty,)* }
        $($(#[$ga:meta])* $group:ident: $Stats:ident / $Snap:ident { $($body:tt)* })*
    ) => {
        $(stats_table!(@split [$(#[$ga])* $group $Stats $Snap] [] []; $($body)*);)*

        /// Shared registry of all instrumentation counters for one engine
        /// instance: 1 152 bytes inline (pinned below), plus about 109 KB of
        /// boxed histogram buckets (14 histograms × 976 buckets × 8 B).
        ///
        /// Cloning the `Arc<StatsRegistry>` is how every component gains
        /// access.
        #[derive(Debug, Default)]
        pub struct StatsRegistry {
            $($group: $Stats,)*
            $($(#[$ta])* $top: AtomicU64,)*
            $($(#[$xa])* $x: $X,)*
        }

        impl StatsRegistry {
            $(pub fn $group(&self) -> &$Stats {
                &self.$group
            })*

            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($group: self.$group.snapshot(),)*
                    $($top: self.$top.load(Ordering::Relaxed),)*
                }
            }

            /// Zero every counter, histogram, trace ring and log.
            pub fn reset(&self) {
                $(self.$group.reset();)*
                $(self.$top.store(0, Ordering::Relaxed);)*
                $(self.$x.reset();)*
            }
        }

        /// A consistent-enough snapshot of every counter in a
        /// [`StatsRegistry`].
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        pub struct StatsSnapshot {
            $(pub $group: $Snap,)*
            $(pub $top: u64,)*
        }

        impl StatsSnapshot {
            /// Counter difference (`self - earlier`, saturating at zero);
            /// gauges keep the later value.
            pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $($group: self.$group.delta(&earlier.$group),)*
                    $($top: self.$top.saturating_sub(earlier.$top),)*
                }
            }

            /// Every exported value, in table order.
            pub(crate) fn for_each_metric(&self, f: &mut dyn FnMut(Metric)) {
                $(f(Metric {
                    name: $tname,
                    help: $thelp,
                    kind: "counter",
                    labels: Vec::new(),
                    path: vec![stringify!($top)],
                    value: Value::U64(self.$top),
                });)*
                $(self.$group.visit(f);)*
            }
        }
    };

    // Split a group's entries into the stored ones and the exported ones
    // (all of them, `derived` included).
    (@split $hdr:tt $stored:tt $all:tt;) => {
        stats_table!(@group $hdr $stored $all);
    };
    (@split $hdr:tt $stored:tt [$($all:tt)*];
        $field:ident: derived => $name:literal / $help:literal, $($rest:tt)*) => {
        stats_table!(@split $hdr $stored [$($all)* [$field (derived) $name [] $help]]; $($rest)*);
    };
    (@split $hdr:tt [$($stored:tt)*] [$($all:tt)*];
        $(#[$fa:meta])* $field:ident: $kind:ident $([$($arg:tt)*])? => $name:literal
        $({$lk:ident = $lv:literal})? $(/ $help:literal)?, $($rest:tt)*) => {
        stats_table!(@split $hdr
            [$($stored)* [$(#[$fa])* $field ($kind $([$($arg)*])?)]]
            [$($all)* [$field ($kind $([$($arg)*])?) $name [$($lk $lv)?] $($help)?]];
            $($rest)*);
    };

    (@group [$(#[$ga:meta])* $group:ident $Stats:ident $Snap:ident]
        [$([$(#[$fa:meta])* $field:ident $kind:tt])*]
        [$([$vfield:ident $vkind:tt $name:literal [$($lk:ident $lv:literal)?] $($help:literal)?])*]
    ) => {
        $(#[$ga])*
        #[derive(Debug, Default)]
        pub struct $Stats {
            $($(#[$fa])* pub(crate) $field: stats_table!(@atomic $kind),)*
        }

        #[doc = concat!("An immutable copy of [`", stringify!($Stats), "`].")]
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        pub struct $Snap {
            $(pub $field: stats_table!(@value $kind),)*
        }

        impl $Stats {
            pub fn snapshot(&self) -> $Snap {
                $Snap {
                    $($field: stats_table!(@load $kind self.$field),)*
                }
            }

            pub fn reset(&self) {
                $(stats_table!(@reset $kind self.$field);)*
            }
        }

        impl $Snap {
            /// Counter difference (`self - earlier`, saturating at zero);
            /// gauges keep the later value.
            pub fn delta(&self, earlier: &Self) -> Self {
                $Snap {
                    $($field: stats_table!(@delta $kind self.$field, earlier.$field),)*
                }
            }

            $(stats_table!(@accessor $kind $field);)*

            fn visit(&self, f: &mut dyn FnMut(Metric)) {
                $(stats_table!(@visit $vkind self $group $vfield $name
                    [$($lk $lv)?] concat!("" $(, $help)?), f);)*
            }
        }
    };

    (@atomic (per [$Idx:ident])) => { [AtomicU64; $Idx::ALL.len()] };
    (@atomic (buckets $labels:tt)) => { Histogram };
    (@atomic ($scalar:ident)) => { AtomicU64 };

    (@value (gauge_f64)) => { f64 };
    (@value (per [$Idx:ident])) => { [u64; $Idx::ALL.len()] };
    (@value (buckets [$($label:literal),*])) => { [u64; [$($label),*].len()] };
    (@value ($scalar:ident)) => { u64 };

    (@load (gauge_f64) $x:expr) => { f64::from_bits($x.load(Ordering::Relaxed)) };
    (@load (per $idx:tt) $x:expr) => { std::array::from_fn(|i| $x[i].load(Ordering::Relaxed)) };
    (@load (buckets $labels:tt) $x:expr) => { legacy_buckets(&$x.snapshot()) };
    (@load ($scalar:ident) $x:expr) => { $x.load(Ordering::Relaxed) };

    (@reset (per $idx:tt) $x:expr) => { $x.iter().for_each(|a| a.store(0, Ordering::Relaxed)) };
    (@reset (buckets $labels:tt) $x:expr) => { $x.reset() };
    (@reset ($scalar:ident) $x:expr) => { $x.store(0, Ordering::Relaxed) };

    (@delta (counter) $a:expr, $b:expr) => { $a.saturating_sub($b) };
    (@delta ($array:ident $arg:tt) $a:expr, $b:expr) => {
        std::array::from_fn(|i| $a[i].saturating_sub($b[i]))
    };
    (@delta ($gauge:ident) $a:expr, $b:expr) => { $a };

    (@accessor (per [$Idx:ident]) $field:ident) => {
        pub fn $field(&self, slot: $Idx) -> u64 {
            self.$field[slot as usize]
        }
    };
    (@accessor $kind:tt $field:ident) => {};

    (@visit (per [$Idx:ident]) $s:ident $group:ident $field:ident $name:literal [] $help:expr, $f:ident) => {
        for slot in $Idx::ALL {
            $f(Metric {
                name: $name,
                help: $help,
                kind: "counter",
                labels: slot.labels(),
                path: vec![stringify!($group), slot.slug(), stringify!($field)],
                value: Value::U64($s.$field[slot as usize]),
            });
        }
    };
    (@visit (buckets [$($label:literal),*]) $s:ident $group:ident $field:ident $name:literal [] $help:expr, $f:ident) => {
        for (label, &n) in [$($label),*].into_iter().zip(&$s.$field) {
            $f(Metric {
                name: $name,
                help: $help,
                kind: "counter",
                labels: vec![("bucket", label)],
                path: vec![stringify!($group), stringify!($field), label],
                value: Value::U64(n),
            });
        }
    };
    (@visit ($kind:ident) $s:ident $group:ident $field:ident $name:literal [$($lk:ident $lv:literal)?] $help:expr, $f:ident) => {
        $f(Metric {
            name: $name,
            help: $help,
            kind: if stringify!($kind) == "counter" { "counter" } else { "gauge" },
            labels: vec![$((stringify!($lk), $lv))?],
            path: vec![stringify!($group), stringify!($field)],
            value: stats_table!(@export $kind $s.$field),
        });
    };

    (@export gauge_f64 $s:ident.$field:ident) => { Value::F64($s.$field) };
    (@export derived $s:ident.$field:ident) => { Value::U64($s.$field()) };
    (@export $kind:ident $s:ident.$field:ident) => { Value::U64($s.$field) };
}

stats_table! {
    registry {
        committed: counter => "plp_txn_committed_total" / "Transactions committed.",
        aborted: counter => "plp_txn_aborted_total" / "Transactions aborted.",
        /// Structure-modification operations performed (page splits,
        /// slices, melds).
        smo_count: counter => "plp_smo_total" / "Structure-modification operations performed.",
        /// The ARIES/KVL one-SMO-at-a-time serialization the paper calls
        /// out; shown as "Latch-smo" in Figure 10.
        smo_wait_nanos: counter =>
            "plp_smo_wait_nanoseconds_total" / "Time spent waiting to enter an SMO.",
    }

    extras {
        /// Latency histograms (action round-trip, dispatch, WAL, locks,
        /// DLB), snapshotted separately from [`StatsSnapshot`] (which stays
        /// `Copy`).
        latency: crate::histogram::LatencyStats,
        /// Per-thread trace rings (see [`crate::trace`]).
        trace: crate::trace::TraceRegistry,
        /// Top-K slowest transactions with phase breakdowns (see
        /// [`crate::slowlog`]).
        slow: crate::slowlog::SlowLog,
        /// DLB controller decision audit ring (see [`crate::slowlog`]).
        decisions: crate::slowlog::DecisionLog,
    }

    /// Critical-section entry counters, one slot per [`CsCategory`].
    cs: CsStats / CsStatsSnapshot {
        entries: per[CsCategory] =>
            "plp_cs_entries_total" / "Critical-section entries by storage-manager component.",
        contended: per[CsCategory] =>
            "plp_cs_contended_total" / "Contended critical-section entries by component.",
    }

    /// Page-latch acquisition counters broken down by page kind.
    latches: LatchStats / LatchStatsSnapshot {
        acquired: per[PageKind] =>
            "plp_latch_acquired_total" / "Page-latch acquisitions by page kind.",
        contended: per[PageKind] =>
            "plp_latch_contended_total" / "Contended page-latch acquisitions by page kind.",
        bypassed: per[PageKind] => "plp_latch_bypassed_total"
            / "Latch acquisitions skipped by latch-free PLP owner access.",
        wait_nanos: per[PageKind] => "plp_latch_wait_nanoseconds_total"
            / "Time spent waiting on contended page latches by page kind.",
    }

    /// Dynamic-load-balancing counters (the paper's Section 5 controller),
    /// updated by the background load balancer in `plp-core::dlb`.
    dlb: DlbStats / DlbStatsSnapshot {
        evaluations: counter => "plp_dlb_evaluations_total" / "DLB controller evaluation rounds.",
        decay_rounds: counter => "plp_dlb_decay_rounds_total" / "DLB histogram aging rounds.",
        repartitions_triggered: counter =>
            "plp_dlb_repartitions_total" / "Repartitions the DLB controller triggered.",
        skipped_balanced: counter => "plp_dlb_skipped_total"{reason = "balanced"}
            / "DLB evaluations that did not repartition, by reason.",
        skipped_cost: counter => "plp_dlb_skipped_total"{reason = "cost"},
        skipped_cooldown: counter => "plp_dlb_skipped_total"{reason = "cooldown"},
        repartitions_failed: counter => "plp_dlb_repartitions_failed_total"
            / "Controller-triggered repartitions that failed.",
        rollbacks: counter =>
            "plp_dlb_rollbacks_total" / "Failed repartitions rolled back from the journal.",
        observed_imbalance: gauge_f64 => "plp_dlb_observed_imbalance"
            / "Most recent observed partition-load imbalance (max/mean).",
        predicted_imbalance: gauge_f64 => "plp_dlb_predicted_imbalance"
            / "Imbalance the last accepted plan predicted after repartitioning.",
    }

    /// Durability counters: group-commit flush batches, fsync calls and
    /// recovery progress, updated by the log manager's flusher and
    /// `Engine::recover`.
    wal: WalStats / WalStatsSnapshot {
        flush_batches: counter =>
            "plp_wal_flush_batches_total" / "Non-empty group-commit batches flushed.",
        flushed_records: counter =>
            "plp_wal_flushed_records_total" / "Log records written across all flush batches.",
        flushed_bytes: counter => "plp_wal_flushed_bytes_total" / "Log bytes written to the device.",
        fsyncs: counter => "plp_wal_fsyncs_total" / "fsync calls issued on log segments.",
        checkpoints: counter => "plp_wal_checkpoints_total" / "Fuzzy checkpoint records written.",
        recovered_txns: gauge => "plp_wal_recovered_txns" / "Committed writers (transactions with \
            a commit record) replayed by the last recovery.",
        recovered_records: gauge =>
            "plp_wal_recovered_records" / "Redo records replayed by the last recovery.",
        torn_bytes: gauge =>
            "plp_wal_torn_bytes" / "Torn-tail bytes discarded by the last recovery.",
    }

    /// Message-passing cost counters for the worker request/reply hot path
    /// (the paper's Figure 1 "Message passing" component, in time as well
    /// as in counts).
    ///
    /// Every counter here except the inline pair moves only when a session
    /// sends a message: one per action group it could not run itself,
    /// whatever the group's size.  The queue counters (spins, parks,
    /// wakeups) are slow-path counters folded in from the channel shim by
    /// `Database::sync_channel_metrics`.
    msg: MsgStats / MsgStatsSnapshot {
        actions: counter =>
            "plp_msg_actions_total" / "Action round trips measured (messages actually sent).",
        roundtrip_nanos: counter => "plp_msg_roundtrip_nanoseconds_total"
            / "Total coordinator-observed round-trip time.",
        reply_reuses: counter =>
            "plp_msg_reply_reuses_total" / "Reply rendezvous taken from the session pool.",
        reply_allocs: counter =>
            "plp_msg_reply_allocs_total" / "Reply rendezvous freshly allocated.",
        enqueue_spins: counter =>
            "plp_msg_enqueue_spins_total" / "Producer-side queue retry rounds.",
        dequeue_spins: counter =>
            "plp_msg_dequeue_spins_total" / "Consumer-side queue retry rounds.",
        parks: counter =>
            "plp_msg_parks_total" / "Threads that exhausted the spin budget and blocked.",
        wakeups: counter => "plp_msg_wakeups_total" / "Wakeups actually issued.",
        batches: counter =>
            "plp_msg_batches_total" / "Messages that carried more than one action.",
        batch_actions: counter =>
            "plp_msg_batch_actions_total" / "Actions carried inside multi-action messages.",
        batch_size: buckets["le_2", "3_4", "5_8", "9_16", "ge_17"] =>
            "plp_msg_batch_size_total" / "Batched dispatches by actions-per-batch bucket.",
        lane_hits: counter =>
            "plp_msg_lane_hits_total" / "Dispatches that took an SPSC fast lane.",
        lane_fallbacks: counter =>
            "plp_msg_lane_fallbacks_total" / "Dispatches that fell back to the shared MPMC queue.",
        inline_actions: counter => "plp_msg_inline_actions_total"
            / "Actions a session ran itself on an idle partition (no message sent).",
        /// Zero in `obs-stub` builds, which read no clock there.
        inline_nanos: counter => "plp_msg_inline_nanoseconds_total"
            / "Session-observed time running inline actions.",
    }

    /// Network front-end counters for the `plp-server` connection server;
    /// its per-request latency is the `server_request` histogram.
    server: ServerStats / ServerStatsSnapshot {
        connections_accepted: counter => "plp_server_connections_accepted_total"
            / "Client connections accepted by the network front end.",
        connections_closed: counter =>
            "plp_server_connections_closed_total" / "Client connections closed.",
        active_connections: derived =>
            "plp_server_active_connections" / "Client connections currently open.",
        frames_decoded: counter =>
            "plp_server_frames_decoded_total" / "Request frames decoded successfully.",
        decode_errors: counter => "plp_server_decode_errors_total"
            / "Frames rejected by the decoder (connection kept alive).",
        responses_sent: counter =>
            "plp_server_responses_sent_total" / "Response frames written back to clients.",
        bytes_in: counter => "plp_server_bytes_in_total" / "Frame bytes read off client sockets.",
        bytes_out: counter =>
            "plp_server_bytes_out_total" / "Frame bytes written back to clients.",
    }

}

// The layout the ledger's numbers were measured on (ROADMAP finding 7:
// 16 bytes of layout move `tatp_inproc` by ±20 %).
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<StatsRegistry>() == 1152);

/// Collapse the actions-per-message histogram into the legacy 2 / 3–4 /
/// 5–8 / 9–16 / 17+ buckets. Exact: below 16 every histogram bucket holds
/// one value, and value 16 has a dedicated bucket (the first of the 16–31
/// octave), so each legacy boundary coincides with a histogram bucket edge.
fn legacy_buckets(h: &HistogramSnapshot) -> [u64; 5] {
    let mut out = [0u64; 5];
    for (i, &n) in h.buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let legacy = match bucket_range(i).0 {
            0..=2 => 0,
            3..=4 => 1,
            5..=8 => 2,
            9..=16 => 3,
            _ => 4,
        };
        out[legacy] += n;
    }
    debug_assert_eq!(bucket_range(bucket_index(16)), (16, 16));
    out
}

impl CsStats {
    /// Record entry into a critical section.  `contended` means the thread had
    /// to wait (the try-acquire failed and it fell back to blocking).
    #[inline]
    pub fn enter(&self, cat: CsCategory, contended: bool) {
        self.entries[cat as usize].fetch_add(1, Ordering::Relaxed);
        if contended {
            self.contended[cat as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record `n` entries at once (used by composable critical sections where
    /// one thread performs work on behalf of many).
    #[inline]
    pub fn enter_n(&self, cat: CsCategory, n: u64, contended: bool) {
        self.entries[cat as usize].fetch_add(n, Ordering::Relaxed);
        if contended {
            self.contended[cat as usize].fetch_add(n, Ordering::Relaxed);
        }
    }
}

impl CsStatsSnapshot {
    pub fn total_entries(&self) -> u64 {
        self.entries.iter().sum()
    }

    /// Contended entries into unscalable critical sections — the paper's
    /// headline "contentious critical sections" metric.
    pub fn contentious(&self) -> u64 {
        CsCategory::ALL
            .iter()
            .filter(|c| c.contention_class() == ContentionClass::Unscalable)
            .map(|&c| self.contended(c))
            .sum()
    }

    /// Scale every counter by `1 / divisor` producing per-transaction floats.
    pub fn per_txn(&self, divisor: u64) -> Vec<(CsCategory, f64, f64)> {
        let d = divisor.max(1) as f64;
        CsCategory::ALL
            .iter()
            .map(|&c| (c, self.entries(c) as f64 / d, self.contended(c) as f64 / d))
            .collect()
    }
}

impl LatchStats {
    #[inline]
    pub fn acquired(&self, kind: PageKind, contended: bool) {
        self.acquired[kind as usize].fetch_add(1, Ordering::Relaxed);
        if contended {
            self.contended[kind as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record an acquisition *skipped* because the access was latch-free
    /// (PLP owner access).
    #[inline]
    pub fn bypassed(&self, kind: PageKind) {
        self.bypassed[kind as usize].fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn waited(&self, kind: PageKind, nanos: u64) {
        self.wait_nanos[kind as usize].fetch_add(nanos, Ordering::Relaxed);
    }
}

impl LatchStatsSnapshot {
    pub fn total_acquired(&self) -> u64 {
        self.acquired.iter().sum()
    }
}

impl DlbStats {
    #[inline]
    pub fn evaluation(&self) {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn decay_round(&self) {
        self.decay_rounds.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn triggered(&self) {
        self.repartitions_triggered.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn skipped_balanced(&self) {
        self.skipped_balanced.fetch_add(1, Ordering::Relaxed);
    }

    /// The cost model vetoed the candidate plan (predicted movement cost
    /// exceeded the predicted gain).
    #[inline]
    pub fn skipped_cost(&self) {
        self.skipped_cost.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn skipped_cooldown(&self) {
        self.skipped_cooldown.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn failed(&self) {
        self.repartitions_failed.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn rollback(&self) {
        self.rollbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Record the imbalance observed in an evaluation round.
    #[inline]
    pub fn set_observed_imbalance(&self, imbalance: f64) {
        self.observed_imbalance
            .store(imbalance.to_bits(), Ordering::Relaxed);
    }

    /// Record the imbalance the accepted plan predicts after repartitioning.
    #[inline]
    pub fn set_predicted_imbalance(&self, imbalance: f64) {
        self.predicted_imbalance
            .store(imbalance.to_bits(), Ordering::Relaxed);
    }
}

impl WalStats {
    /// Record one group-commit batch of `records` records / `bytes` bytes.
    #[inline]
    pub fn flushed(&self, records: u64, bytes: u64) {
        self.flush_batches.fetch_add(1, Ordering::Relaxed);
        self.flushed_records.fetch_add(records, Ordering::Relaxed);
        self.flushed_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    #[inline]
    pub fn fsync(&self) {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn checkpoint(&self) {
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
    }

    /// Record the outcome of a recovery pass (gauges, not cumulative).
    pub fn set_recovery(&self, txns: u64, records: u64, torn_bytes: u64) {
        self.recovered_txns.store(txns, Ordering::Relaxed);
        self.recovered_records.store(records, Ordering::Relaxed);
        self.torn_bytes.store(torn_bytes, Ordering::Relaxed);
    }
}

impl WalStatsSnapshot {
    /// Mean records per non-empty group-commit batch.
    pub fn mean_batch_size(&self) -> f64 {
        self.flushed_records as f64 / self.flush_batches.max(1) as f64
    }
}

impl ServerStats {
    #[inline]
    pub fn connection_accepted(&self) {
        self.connections_accepted.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn connection_closed(&self) {
        self.connections_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one successfully decoded request frame of `bytes` wire bytes.
    #[inline]
    pub fn frame_decoded(&self, bytes: u64) {
        self.frames_decoded.fetch_add(1, Ordering::Relaxed);
        self.bytes_in.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record one rejected frame (the `bytes` consumed resyncing past it).
    #[inline]
    pub fn decode_error(&self, bytes: u64) {
        self.decode_errors.fetch_add(1, Ordering::Relaxed);
        self.bytes_in.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record one response frame of `bytes` wire bytes written back.
    #[inline]
    pub fn response_sent(&self, bytes: u64) {
        self.responses_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_out.fetch_add(bytes, Ordering::Relaxed);
    }
}

impl ServerStatsSnapshot {
    /// Connections currently open (accepted minus closed).
    pub fn active_connections(&self) -> u64 {
        self.connections_accepted
            .saturating_sub(self.connections_closed)
    }
}

impl MsgStats {
    /// Record one action round trip.
    #[inline]
    pub fn roundtrip(&self, nanos: u64) {
        self.actions.fetch_add(1, Ordering::Relaxed);
        self.roundtrip_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    #[inline]
    pub fn reply_reused(&self) {
        self.reply_reuses.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn reply_allocated(&self) {
        self.reply_allocs.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one message carrying `actions` actions.  Every message takes
    /// a lane, so `lane_fallbacks` stays 0.  Only a message of more than one
    /// action counts as a batch.
    #[inline]
    pub fn sent(&self, actions: u64) {
        if actions > 1 {
            self.batches.fetch_add(1, Ordering::Relaxed);
            self.batch_actions.fetch_add(actions, Ordering::Relaxed);
            self.batch_size.record(actions);
        }
        self.lane_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one action group a session ran inline.
    #[inline]
    pub fn inline_ran(&self, actions: u64, nanos: u64) {
        self.inline_actions.fetch_add(actions, Ordering::Relaxed);
        self.inline_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Fold in a delta of the channel layer's slow-path counters.
    pub fn queue_activity(&self, enqueue_spins: u64, dequeue_spins: u64, parks: u64, wakeups: u64) {
        self.enqueue_spins
            .fetch_add(enqueue_spins, Ordering::Relaxed);
        self.dequeue_spins
            .fetch_add(dequeue_spins, Ordering::Relaxed);
        self.parks.fetch_add(parks, Ordering::Relaxed);
        self.wakeups.fetch_add(wakeups, Ordering::Relaxed);
    }
}

impl MsgStatsSnapshot {
    /// Mean coordinator-observed round-trip time per *message* — under
    /// caller-runs execution that is the contended tail only; see
    /// [`Self::mean_action_nanos`] for the cost of an action on either path.
    pub fn mean_roundtrip_nanos(&self) -> f64 {
        self.roundtrip_nanos as f64 / self.actions.max(1) as f64
    }

    /// Actions that travelled in a message: one per singleton message plus
    /// every action of the multi-action ones.
    fn messaged_actions(&self) -> u64 {
        self.actions.saturating_sub(self.batches) + self.batch_actions
    }

    /// Mean session-observed time per action over both paths: message round
    /// trips plus inline runs, over the actions either carried.
    pub fn mean_action_nanos(&self) -> f64 {
        (self.roundtrip_nanos + self.inline_nanos) as f64
            / (self.messaged_actions() + self.inline_actions).max(1) as f64
    }

    /// Fraction of actions a session ran itself instead of sending.
    pub fn inline_share(&self) -> f64 {
        let total = self.messaged_actions() + self.inline_actions;
        if total == 0 {
            return 0.0;
        }
        self.inline_actions as f64 / total as f64
    }

    /// Fraction of messages served from the reply pool (steady state → 1).
    pub fn reply_pool_hit_rate(&self) -> f64 {
        let total = self.reply_reuses + self.reply_allocs;
        if total == 0 {
            return 0.0;
        }
        self.reply_reuses as f64 / total as f64
    }

    /// Mean actions carried per multi-action message (0 when there were
    /// none).
    pub fn mean_actions_per_batch(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.batch_actions as f64 / self.batches as f64
    }

    /// Fraction of messages that took an SPSC fast lane.
    pub fn lane_hit_rate(&self) -> f64 {
        let total = self.lane_hits + self.lane_fallbacks;
        if total == 0 {
            return 0.0;
        }
        self.lane_hits as f64 / total as f64
    }
}

impl StatsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn new_shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// The engine's latency histograms.
    pub fn latency(&self) -> &crate::histogram::LatencyStats {
        &self.latency
    }

    /// The engine's per-thread trace rings.
    pub fn trace(&self) -> &crate::trace::TraceRegistry {
        &self.trace
    }

    /// The slow-transaction reservoir.
    pub fn slow(&self) -> &crate::slowlog::SlowLog {
        &self.slow
    }

    /// The DLB controller's decision audit ring.
    pub fn dlb_decisions(&self) -> &crate::slowlog::DecisionLog {
        &self.decisions
    }

    #[inline]
    pub fn txn_committed(&self) {
        self.committed.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn txn_aborted(&self) {
        self.aborted.fetch_add(1, Ordering::Relaxed);
    }

    pub fn committed(&self) -> u64 {
        self.committed.load(Ordering::Relaxed)
    }

    pub fn aborted(&self) -> u64 {
        self.aborted.load(Ordering::Relaxed)
    }

    /// Record one structure-modification operation and the time spent waiting
    /// to be allowed to start it.
    #[inline]
    pub fn smo_performed(&self, wait_nanos: u64) {
        self.smo_count.fetch_add(1, Ordering::Relaxed);
        if wait_nanos > 0 {
            self.smo_wait_nanos.fetch_add(wait_nanos, Ordering::Relaxed);
        }
    }

    pub fn smo_count(&self) -> u64 {
        self.smo_count.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_classes_match_paper() {
        assert_eq!(
            CsCategory::LockMgr.contention_class(),
            ContentionClass::Unscalable
        );
        assert_eq!(
            CsCategory::PageLatch.contention_class(),
            ContentionClass::Unscalable
        );
        assert_eq!(
            CsCategory::LogMgr.contention_class(),
            ContentionClass::Composable
        );
        assert_eq!(
            CsCategory::XctMgr.contention_class(),
            ContentionClass::Fixed
        );
        assert_eq!(
            CsCategory::MessagePassing.contention_class(),
            ContentionClass::Fixed
        );
    }

    #[test]
    fn cs_stats_count_and_delta() {
        let s = CsStats::default();
        s.enter(CsCategory::LockMgr, false);
        s.enter(CsCategory::LockMgr, true);
        s.enter_n(CsCategory::LogMgr, 5, false);
        let a = s.snapshot();
        assert_eq!(a.entries(CsCategory::LockMgr), 2);
        assert_eq!(a.contended(CsCategory::LockMgr), 1);
        assert_eq!(a.entries(CsCategory::LogMgr), 5);
        s.enter(CsCategory::LockMgr, false);
        let b = s.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.entries(CsCategory::LockMgr), 1);
        assert_eq!(d.entries(CsCategory::LogMgr), 0);
    }

    #[test]
    fn contentious_counts_only_unscalable() {
        let s = CsStats::default();
        s.enter(CsCategory::LockMgr, true);
        s.enter(CsCategory::XctMgr, true); // fixed: excluded
        s.enter(CsCategory::LogMgr, true); // composable: excluded
        s.enter(CsCategory::PageLatch, true);
        let snap = s.snapshot();
        assert_eq!(snap.contentious(), 2);
    }

    #[test]
    fn latch_stats_by_kind() {
        let l = LatchStats::default();
        l.acquired(PageKind::Index, false);
        l.acquired(PageKind::Index, true);
        l.acquired(PageKind::Heap, false);
        l.bypassed(PageKind::Index);
        l.waited(PageKind::Heap, 1000);
        let s = l.snapshot();
        assert_eq!(s.acquired(PageKind::Index), 2);
        assert_eq!(s.contended(PageKind::Index), 1);
        assert_eq!(s.acquired(PageKind::Heap), 1);
        assert_eq!(s.bypassed(PageKind::Index), 1);
        assert_eq!(s.wait_nanos(PageKind::Heap), 1000);
        assert_eq!(s.total_acquired(), 3);
    }

    #[test]
    fn per_txn_normalisation() {
        let s = CsStats::default();
        s.enter_n(CsCategory::PageLatch, 100, false);
        let snap = s.snapshot();
        let rows = snap.per_txn(10);
        let latch_row = rows
            .iter()
            .find(|(c, _, _)| *c == CsCategory::PageLatch)
            .unwrap();
        assert!((latch_row.1 - 10.0).abs() < f64::EPSILON);
    }

    #[test]
    fn registry_txn_counters() {
        let r = StatsRegistry::new();
        r.txn_committed();
        r.txn_committed();
        r.txn_aborted();
        assert_eq!(r.committed(), 2);
        assert_eq!(r.aborted(), 1);
        let snap = r.snapshot();
        assert_eq!(snap.committed, 2);
        r.reset();
        assert_eq!(r.committed(), 0);
    }

    #[test]
    fn dlb_stats_counters_and_gauges() {
        let d = DlbStats::default();
        d.evaluation();
        d.evaluation();
        d.decay_round();
        d.triggered();
        d.skipped_balanced();
        d.skipped_cost();
        d.skipped_cooldown();
        d.failed();
        d.rollback();
        d.set_observed_imbalance(2.5);
        d.set_predicted_imbalance(1.1);
        let a = d.snapshot();
        assert_eq!(a.evaluations, 2);
        assert_eq!(a.repartitions_triggered, 1);
        assert_eq!(a.rollbacks, 1);
        assert!((a.observed_imbalance - 2.5).abs() < f64::EPSILON);
        assert!((a.predicted_imbalance - 1.1).abs() < f64::EPSILON);
        d.evaluation();
        let b = d.snapshot();
        let delta = b.delta(&a);
        assert_eq!(delta.evaluations, 1);
        assert_eq!(delta.repartitions_triggered, 0);
        // Gauges keep the later point-in-time value.
        assert!((delta.observed_imbalance - 2.5).abs() < f64::EPSILON);
        d.reset();
        assert_eq!(d.snapshot().evaluations, 0);
        assert_eq!(d.snapshot().observed_imbalance, 0.0);
    }

    #[test]
    fn wal_stats_counters_gauges_and_batch_size() {
        let w = WalStats::default();
        w.flushed(10, 1000);
        w.flushed(20, 2000);
        w.fsync();
        w.checkpoint();
        w.set_recovery(5, 50, 7);
        let a = w.snapshot();
        assert_eq!(a.flush_batches, 2);
        assert_eq!(a.flushed_records, 30);
        assert_eq!(a.flushed_bytes, 3000);
        assert_eq!(a.fsyncs, 1);
        assert_eq!(a.checkpoints, 1);
        assert!((a.mean_batch_size() - 15.0).abs() < f64::EPSILON);
        w.flushed(2, 64);
        let b = w.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.flush_batches, 1);
        assert_eq!(d.flushed_records, 2);
        // Recovery fields are point-in-time gauges: delta keeps the later value.
        assert_eq!(d.recovered_txns, 5);
        assert_eq!(d.torn_bytes, 7);
        w.reset();
        assert_eq!(w.snapshot().flush_batches, 0);
        assert_eq!(w.snapshot().recovered_records, 0);
        // Empty stats report a 0 batch size, not NaN.
        assert_eq!(WalStats::default().snapshot().mean_batch_size(), 0.0);
    }

    #[test]
    fn msg_stats_roundtrips_pool_and_queue_activity() {
        let m = MsgStats::default();
        m.roundtrip(1_000);
        m.roundtrip(3_000);
        m.reply_reused();
        m.reply_reused();
        m.reply_reused();
        m.reply_allocated();
        m.queue_activity(5, 7, 2, 1);
        let a = m.snapshot();
        assert_eq!(a.actions, 2);
        assert!((a.mean_roundtrip_nanos() - 2_000.0).abs() < f64::EPSILON);
        assert!((a.reply_pool_hit_rate() - 0.75).abs() < f64::EPSILON);
        assert_eq!(a.enqueue_spins, 5);
        assert_eq!(a.dequeue_spins, 7);
        assert_eq!(a.parks, 2);
        assert_eq!(a.wakeups, 1);
        m.roundtrip(500);
        let b = m.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.actions, 1);
        assert_eq!(d.roundtrip_nanos, 500);
        assert_eq!(d.enqueue_spins, 0);
        m.reset();
        assert_eq!(m.snapshot().actions, 0);
        // Empty stats report 0, not NaN.
        assert_eq!(MsgStats::default().snapshot().mean_roundtrip_nanos(), 0.0);
        assert_eq!(MsgStats::default().snapshot().reply_pool_hit_rate(), 0.0);
        assert_eq!(MsgStats::default().snapshot().mean_action_nanos(), 0.0);
        assert_eq!(MsgStats::default().snapshot().inline_share(), 0.0);
    }

    #[test]
    fn msg_stats_cost_per_action_spans_both_paths() {
        let m = MsgStats::default();
        // One singleton message, one 3-action message, 4 inline actions.
        m.sent(1);
        m.roundtrip(10_000);
        m.sent(3);
        m.roundtrip(20_000);
        m.inline_ran(1, 500);
        m.inline_ran(3, 1_500);
        let s = m.snapshot();
        assert_eq!(s.actions, 2, "plp_msg_actions_total counts messages only");
        assert_eq!(
            (s.batches, s.batch_actions),
            (1, 3),
            "only the multi-action message is a batch"
        );
        assert_eq!((s.lane_hits, s.lane_fallbacks), (2, 0));
        assert_eq!(s.messaged_actions(), 4);
        assert_eq!(s.inline_actions, 4);
        assert!((s.inline_share() - 0.5).abs() < f64::EPSILON);
        assert!((s.mean_roundtrip_nanos() - 15_000.0).abs() < f64::EPSILON);
        assert!((s.mean_action_nanos() - 32_000.0 / 8.0).abs() < f64::EPSILON);
        let d = m.snapshot().delta(&s);
        assert_eq!((d.inline_actions, d.inline_nanos), (0, 0));
        m.reset();
        assert_eq!(m.snapshot().inline_actions, 0);
    }

    #[test]
    fn registry_snapshot_includes_msg() {
        let r = StatsRegistry::new();
        r.msg().roundtrip(10);
        assert_eq!(r.snapshot().msg.actions, 1);
        r.reset();
        assert_eq!(r.snapshot().msg.actions, 0);
    }

    #[test]
    fn registry_snapshot_includes_wal() {
        let r = StatsRegistry::new();
        r.wal().flushed(3, 30);
        assert_eq!(r.snapshot().wal.flush_batches, 1);
        r.reset();
        assert_eq!(r.snapshot().wal.flush_batches, 0);
    }

    #[test]
    fn registry_snapshot_includes_dlb() {
        let r = StatsRegistry::new();
        r.dlb().triggered();
        assert_eq!(r.snapshot().dlb.repartitions_triggered, 1);
        r.reset();
        assert_eq!(r.snapshot().dlb.repartitions_triggered, 0);
    }

    /// Bumps every recorder once; `round` varies the amounts and gauges.
    fn record_everything(r: &StatsRegistry, round: u64) {
        r.txn_committed();
        r.txn_aborted();
        r.smo_performed(round);
        for cat in CsCategory::ALL {
            r.cs().enter_n(cat, round, true);
        }
        for kind in PageKind::ALL {
            r.latches().acquired(kind, true);
            r.latches().bypassed(kind);
            r.latches().waited(kind, round);
        }
        let d = r.dlb();
        let bumps: [fn(&DlbStats); 8] = [
            DlbStats::evaluation,
            DlbStats::decay_round,
            DlbStats::triggered,
            DlbStats::skipped_balanced,
            DlbStats::skipped_cost,
            DlbStats::skipped_cooldown,
            DlbStats::failed,
            DlbStats::rollback,
        ];
        bumps.iter().for_each(|bump| bump(d));
        d.set_observed_imbalance(round as f64 + 0.5);
        d.set_predicted_imbalance(round as f64 + 0.25);
        r.wal().flushed(round, 10 * round);
        r.wal().fsync();
        r.wal().checkpoint();
        r.wal().set_recovery(round, round + 1, round + 2);
        let m = r.msg();
        m.roundtrip(round);
        m.reply_reused();
        m.reply_allocated();
        m.queue_activity(round, round, round, round);
        for actions in [1, 2, 3, 5, 9, 17] {
            m.sent(actions);
        }
        // Exported, but nothing records it: every dispatch takes a lane.
        m.lane_fallbacks.fetch_add(round, Ordering::Relaxed);
        m.inline_ran(round, round);
        let s = r.server();
        s.connection_accepted();
        s.connection_accepted();
        s.connection_closed();
        s.frame_decoded(round);
        s.decode_error(round);
        s.response_sent(round);
    }

    fn exported(s: &StatsSnapshot) -> Vec<(String, &'static str, f64)> {
        let mut out = Vec::new();
        s.for_each_metric(&mut |m| {
            let value = match m.value {
                Value::U64(v) => v as f64,
                Value::F64(v) => v,
            };
            out.push((m.path.join("."), m.kind, value));
        });
        out
    }

    /// The table's rules over every exported value: counters subtract,
    /// gauges keep the later value, and `reset` zeroes all of it, the batch
    /// histogram included.
    #[test]
    fn delta_and_reset_follow_each_kind() {
        let r = StatsRegistry::new();
        record_everything(&r, 1);
        let a = r.snapshot();
        record_everything(&r, 3);
        let b = r.snapshot();
        let (a, b, d) = (exported(&a), exported(&b), exported(&b.delta(&a)));
        for ((path, kind, before), ((_, _, after), (_, _, delta))) in a.iter().zip(b.iter().zip(&d))
        {
            assert!(*after > 0.0, "{path} was never recorded");
            // A `derived` gauge is its formula over the subtracted counters.
            if path == "server.active_connections" {
                assert_eq!(*delta, 1.0);
                continue;
            }
            let want = if *kind == "counter" {
                after - before
            } else {
                *after
            };
            assert_eq!(*delta, want, "{path} ({kind})");
        }
        r.reset();
        for (path, _, value) in exported(&r.snapshot()) {
            assert_eq!(value, 0.0, "{path} survived reset");
        }
        assert_eq!(r.msg().batch_size.snapshot().count, 0);
    }

    #[test]
    fn page_kind_maps_to_cs_category() {
        assert_eq!(PageKind::Index.cs_category(), CsCategory::PageLatch);
        assert_eq!(PageKind::Heap.cs_category(), CsCategory::PageLatch);
        assert_eq!(PageKind::CatalogSpace.cs_category(), CsCategory::Metadata);
    }
}
