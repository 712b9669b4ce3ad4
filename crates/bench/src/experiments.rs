//! The experiments: one function per table/figure of the paper's evaluation.

use std::time::{Duration, Instant};

use plp_core::{Design, EngineConfig, IndexKind, TableId};
use plp_instrument::StatsRegistry;
use plp_instrument::{Cell, CsCategory, PageKind, Table};
use plp_storage::{Access, BufferPool, HeapFile, PlacementHint, PlacementPolicy};
use plp_workloads::driver::{prepare_engine, run_fixed, run_timed, RunResult};
use plp_workloads::micro::{BalanceProbe, InsertDeleteHeavy, ProbeInsertMix};
use plp_workloads::tatp::Tatp;
use plp_workloads::tpcb::TpcB;
use plp_workloads::tpcc::Tpcc;
use plp_workloads::Workload;

use crate::Scale;

fn run_design(
    design: Design,
    workload: &dyn Workload,
    threads: usize,
    txns: u64,
    fanout: usize,
) -> RunResult {
    let config = EngineConfig::new(design)
        .with_partitions(threads)
        .with_fanout(fanout);
    let engine = prepare_engine(config, workload);
    run_fixed(&engine, workload, threads, txns, 0xC0FFEE)
}

/// The designs compared in Figures 1 and 3.
const FIG1_DESIGNS: [Design; 5] = [
    Design::Conventional { sli: false },
    Design::Conventional { sli: true },
    Design::LogicalOnly,
    Design::PlpRegular,
    Design::PlpLeaf,
];

/// Figure 1: critical sections per transaction, by storage-manager component.
pub fn fig1_critical_sections(scale: Scale) -> Vec<Table> {
    let tatp = Tatp::new(scale.subscribers);
    let threads = scale.max_threads.min(4);
    let mut table = Table::new(
        "Figure 1 — critical sections per transaction (TATP mix)",
        &[
            "design",
            "Lock mgr",
            "Page Latches",
            "Bpool",
            "Metadata",
            "Log mgr",
            "Xct mgr",
            "Msg passing",
            "Total",
            "Contentious",
        ],
    );
    for design in FIG1_DESIGNS {
        let r = run_design(design, &tatp, threads, scale.txns_per_thread, 128);
        let per = |c: CsCategory| Cell::FloatPrec(r.cs_per_txn(c), 2);
        table.row(vec![
            Cell::from(design.name()),
            per(CsCategory::LockMgr),
            per(CsCategory::PageLatch),
            per(CsCategory::Bpool),
            per(CsCategory::Metadata),
            per(CsCategory::LogMgr),
            per(CsCategory::XctMgr),
            per(CsCategory::MessagePassing),
            Cell::FloatPrec(
                r.stats.cs.total_entries() as f64 / r.committed.max(1) as f64,
                2,
            ),
            Cell::FloatPrec(r.contentious_cs_per_txn(), 3),
        ]);
    }
    vec![table]
}

/// Figure 2: page-latch breakdown by page type under the conventional design,
/// for TATP, TPC-B and TPC-C.
pub fn fig2_latch_breakdown(scale: Scale) -> Vec<Table> {
    let threads = scale.max_threads.min(4);
    let mut table = Table::new(
        "Figure 2 — page latches per transaction by page type (Conventional)",
        &["benchmark", "INDEX", "HEAP", "CATALOG/SPACE", "index %"],
    );
    let tatp = Tatp::new(scale.subscribers);
    let tpcb = TpcB::new(4);
    let tpcc = Tpcc::new(2).with_scale(2_000, 100);
    let workloads: [(&str, &dyn Workload); 3] =
        [("TATP", &tatp), ("TPC-B", &tpcb), ("TPC-C", &tpcc)];
    for (name, w) in workloads {
        let r = run_design(
            Design::Conventional { sli: true },
            w,
            threads,
            scale.txns_per_thread / 2,
            128,
        );
        let idx = r.latches_per_txn(PageKind::Index);
        let heap = r.latches_per_txn(PageKind::Heap);
        let cat = r.latches_per_txn(PageKind::CatalogSpace);
        table.row(vec![
            Cell::from(name),
            Cell::FloatPrec(idx, 2),
            Cell::FloatPrec(heap, 2),
            Cell::FloatPrec(cat, 2),
            Cell::FloatPrec(100.0 * idx / (idx + heap + cat).max(1e-9), 1),
        ]);
    }
    vec![table]
}

/// Figure 3: page latches acquired per design (TATP).
pub fn fig3_latches_by_design(scale: Scale) -> Vec<Table> {
    let tatp = Tatp::new(scale.subscribers);
    let threads = scale.max_threads.min(4);
    let mut table = Table::new(
        "Figure 3 — page latches per transaction by design (TATP)",
        &[
            "design",
            "INDEX",
            "HEAP",
            "CATALOG/SPACE",
            "total",
            "% of conventional",
        ],
    );
    let mut conventional_total = None;
    for design in [
        Design::Conventional { sli: true },
        Design::LogicalOnly,
        Design::PlpRegular,
        Design::PlpLeaf,
    ] {
        let r = run_design(design, &tatp, threads, scale.txns_per_thread, 128);
        let idx = r.latches_per_txn(PageKind::Index);
        let heap = r.latches_per_txn(PageKind::Heap);
        let cat = r.latches_per_txn(PageKind::CatalogSpace);
        let total = idx + heap + cat;
        let baseline = *conventional_total.get_or_insert(total);
        table.row(vec![
            Cell::from(design.name()),
            Cell::FloatPrec(idx, 2),
            Cell::FloatPrec(heap, 2),
            Cell::FloatPrec(cat, 2),
            Cell::FloatPrec(total, 2),
            Cell::FloatPrec(100.0 * total / baseline.max(1e-9), 1),
        ]);
    }
    vec![table]
}

/// Table 1: repartitioning cost for splitting a large partition in half.
pub fn table1_repartition_cost() -> Vec<Table> {
    use plp_btree::{CostModelParams, RepartitionCost};
    let params = CostModelParams::table1_scenario();
    let mut table = Table::new(
        "Table 1 — repartitioning cost, 466 MB partition split in half",
        &[
            "system",
            "records moved",
            "record MB moved",
            "index entries moved",
            "pages read",
            "pointer updates",
            "primary index changes",
            "secondary index changes",
        ],
    );
    for cost in RepartitionCost::table(&params) {
        table.row(vec![
            Cell::from(cost.system.name()),
            Cell::from(cost.records_moved),
            Cell::FloatPrec(cost.record_bytes_moved as f64 / (1024.0 * 1024.0), 2),
            Cell::from(cost.entries_moved),
            Cell::from(cost.pages_read),
            Cell::from(cost.pointer_updates),
            Cell::from(cost.primary_changes.describe()),
            Cell::from(cost.secondary_changes.describe()),
        ]);
    }
    vec![table]
}

/// Table 2: the cost model evaluated over a parameter sweep (tree heights and
/// node sizes), showing how Shared-Nothing costs explode while PLP stays flat.
pub fn table2_cost_model() -> Vec<Table> {
    use plp_btree::{CostModelParams, RepartitionCost, SystemKind};
    let mut table = Table::new(
        "Table 2 — cost model sweep (records moved when splitting in half)",
        &[
            "tree levels",
            "entries/node",
            "PLP-Regular",
            "PLP-Leaf",
            "PLP-Partition",
            "Shared-Nothing",
        ],
    );
    for levels in [2u32, 3, 4] {
        for n in [100u64, 170, 300] {
            let mut p = CostModelParams::table1_scenario();
            p.levels = levels;
            p.entries_per_node = n;
            for m in p.entries_to_move.iter_mut().take(levels as usize) {
                *m = n / 2;
            }
            let get = |s| RepartitionCost::evaluate(s, &p).records_moved;
            table.row(vec![
                Cell::from(levels as u64),
                Cell::from(n),
                Cell::from(get(SystemKind::PlpRegular)),
                Cell::from(get(SystemKind::PlpLeaf)),
                Cell::from(get(SystemKind::PlpPartition)),
                Cell::from(get(SystemKind::SharedNothing)),
            ]);
        }
    }
    vec![table]
}

/// Figure 5: read-only GetSubscriberData throughput as utilisation grows.
pub fn fig5_read_only_scaling(scale: Scale) -> Vec<Table> {
    let mut table = Table::new(
        "Figure 5 — GetSubscriberData throughput (Ktps) vs client threads",
        &["threads", "Conventional", "Logical-only", "PLP"],
    );
    struct ReadOnly(Tatp);
    impl Workload for ReadOnly {
        fn name(&self) -> &'static str {
            "TATP GetSubscriberData"
        }
        fn schema(&self) -> Vec<plp_core::TableSpec> {
            self.0.schema()
        }
        fn load(&self, db: &plp_core::Database) -> Result<(), plp_core::EngineError> {
            self.0.load(db)
        }
        fn next_transaction(&self, rng: &mut rand_chacha::ChaCha8Rng) -> plp_core::TransactionPlan {
            self.0.get_subscriber_data(self.0.pick_subscriber(rng))
        }
    }
    let workload = ReadOnly(Tatp::new(scale.subscribers));
    for threads in scale.thread_sweep() {
        let mut row = vec![Cell::from(threads)];
        for design in [
            Design::Conventional { sli: true },
            Design::LogicalOnly,
            Design::PlpRegular,
        ] {
            let r = run_design(design, &workload, threads, scale.txns_per_thread, 128);
            row.push(Cell::FloatPrec(r.throughput_tps() / 1_000.0, 1));
        }
        table.push_row(row);
    }
    vec![table]
}

fn breakdown_row(design: Design, r: &RunResult) -> Vec<Cell> {
    let txns = r.committed.max(1) as f64;
    let idx_wait = r.stats.latches.wait_nanos(PageKind::Index) as f64 / 1_000.0 / txns;
    let heap_wait = r.stats.latches.wait_nanos(PageKind::Heap) as f64 / 1_000.0 / txns;
    let smo_wait = r.stats.smo_wait_nanos as f64 / 1_000.0 / txns;
    let total = r.elapsed.as_micros() as f64 * r.threads as f64 / txns;
    let other = (total - idx_wait - heap_wait - smo_wait).max(0.0);
    vec![
        Cell::from(design.name()),
        Cell::FloatPrec(idx_wait, 2),
        Cell::FloatPrec(heap_wait, 2),
        Cell::FloatPrec(smo_wait, 2),
        Cell::FloatPrec(other, 2),
        Cell::FloatPrec(total, 2),
    ]
}

/// Figure 6: time breakdown per transaction for the insert/delete-heavy
/// microbenchmark as the thread count grows.
pub fn fig6_insdel_breakdown(scale: Scale) -> Vec<Table> {
    let mut tables = Vec::new();
    for &threads in &scale.thread_sweep()[1..] {
        let micro = InsertDeleteHeavy::new(scale.subscribers);
        let mut table = Table::new(
            format!(
                "Figure 6 — time breakdown per txn (µs), insert/delete-heavy, {threads} threads"
            ),
            &[
                "design",
                "idx latch wait",
                "heap latch wait",
                "SMO wait",
                "other",
                "total",
            ],
        );
        for design in [
            Design::Conventional { sli: true },
            Design::LogicalOnly,
            Design::PlpRegular,
        ] {
            let r = run_design(design, &micro, threads, scale.txns_per_thread, 32);
            table.push_row(breakdown_row(design, &r));
        }
        tables.push(table);
    }
    tables
}

/// Figure 7: time breakdown per transaction for TPC-B without record padding
/// (heap false sharing).
pub fn fig7_tpcb_false_sharing(scale: Scale) -> Vec<Table> {
    let mut tables = Vec::new();
    for &threads in &scale.thread_sweep()[1..] {
        let tpcb = TpcB::new((threads as u64).max(2));
        let mut table = Table::new(
            format!("Figure 7 — time breakdown per txn (µs), TPC-B no padding, {threads} threads"),
            &[
                "design",
                "idx latch wait",
                "heap latch wait",
                "SMO wait",
                "other",
                "total",
            ],
        );
        for design in [
            Design::Conventional { sli: true },
            Design::LogicalOnly,
            Design::PlpRegular,
            Design::PlpLeaf,
        ] {
            let r = run_design(design, &tpcb, threads, scale.txns_per_thread, 128);
            table.push_row(breakdown_row(design, &r));
        }
        tables.push(table);
    }
    tables
}

/// Figure 8: throughput over time while the load shifts to a hot spot and the
/// system repartitions.
pub fn fig8_repartitioning(scale: Scale) -> Vec<Table> {
    let designs = [
        Design::Conventional { sli: true },
        Design::LogicalOnly,
        Design::PlpRegular,
        Design::PlpPartition,
        Design::PlpLeaf,
    ];
    let mut table = Table::new(
        "Figure 8 — throughput (Ktps) before / during / after repartitioning",
        &["design", "before", "during", "after", "records moved"],
    );
    for design in designs {
        let workload = BalanceProbe::new(scale.subscribers);
        let config = EngineConfig::new(design)
            .with_partitions(2)
            .with_fanout(128);
        let engine = prepare_engine(config, &workload);
        let window = Duration::from_millis(400);
        let before = run_timed(&engine, &workload, 2, window, 1);
        // Load shifts: 50% of requests now hit the first 10% of the keys.
        workload.enable_hotspot();
        let moved = if design.is_partitioned() {
            let start = Instant::now();
            let hot = scale.subscribers / 10;
            // A repartition error breaks cross-table ownership alignment —
            // continuing would panic a worker mid-benchmark, so fail loudly.
            let moved = engine
                .repartition(plp_workloads::tatp::SUBSCRIBER, &[0, hot])
                .expect("repartitioning must succeed for latch-free execution");
            let _repartition_time = start.elapsed();
            moved
        } else {
            0
        };
        let during = run_timed(&engine, &workload, 2, window, 2);
        let after = run_timed(&engine, &workload, 2, window, 3);
        table.row(vec![
            Cell::from(design.name()),
            Cell::FloatPrec(before.throughput_tps() / 1_000.0, 1),
            Cell::FloatPrec(during.throughput_tps() / 1_000.0, 1),
            Cell::FloatPrec(after.throughput_tps() / 1_000.0, 1),
            Cell::from(moved),
        ]);
    }
    vec![table]
}

/// Figure 9: conventional and logical-only peak throughput with and without
/// MRBTree indexes.
pub fn fig9_mrbtree_conventional(scale: Scale) -> Vec<Table> {
    let tatp = Tatp::new(scale.subscribers);
    let threads = scale.max_threads.min(8);
    let mut table = Table::new(
        "Figure 9 — TATP throughput (Ktps) with and without MRBTree",
        &["design", "Normal B+Tree", "MRBTree", "speedup %"],
    );
    for design in [Design::Conventional { sli: true }, Design::LogicalOnly] {
        let normal = {
            let config = EngineConfig::new(design)
                .with_partitions(threads)
                .with_fanout(128)
                .with_index_kind(IndexKind::SingleBTree);
            let engine = prepare_engine(config, &tatp);
            run_fixed(&engine, &tatp, threads, scale.txns_per_thread, 5)
        };
        let mrb = {
            let config = EngineConfig::new(design)
                .with_partitions(threads)
                .with_fanout(128)
                .with_index_kind(IndexKind::MrbTree);
            let engine = prepare_engine(config, &tatp);
            run_fixed(&engine, &tatp, threads, scale.txns_per_thread, 5)
        };
        table.row(vec![
            Cell::from(design.name()),
            Cell::FloatPrec(normal.throughput_tps() / 1_000.0, 1),
            Cell::FloatPrec(mrb.throughput_tps() / 1_000.0, 1),
            Cell::FloatPrec(
                100.0 * (mrb.throughput_tps() / normal.throughput_tps() - 1.0),
                1,
            ),
        ]);
    }
    vec![table]
}

/// Figure 10: time per transaction as the insert percentage grows, with and
/// without MRBTree (parallel SMOs).
pub fn fig10_parallel_smo(scale: Scale) -> Vec<Table> {
    let threads = scale.max_threads.min(8);
    let mut table = Table::new(
        "Figure 10 — µs per txn vs insert percentage (Conventional), normal vs MRBTree",
        &[
            "insert %",
            "Normal µs/txn",
            "Normal SMO wait µs",
            "MRBT µs/txn",
            "MRBT SMO wait µs",
        ],
    );
    for pct in [0u32, 20, 40, 60, 80, 100] {
        let mut cells = vec![Cell::from(pct as u64)];
        for kind in [IndexKind::SingleBTree, IndexKind::MrbTree] {
            let workload = ProbeInsertMix::new(scale.subscribers * 4, pct);
            let config = EngineConfig::new(Design::Conventional { sli: true })
                .with_partitions(threads)
                .with_fanout(24)
                .with_index_kind(kind);
            let engine = prepare_engine(config, &workload);
            let r = run_fixed(&engine, &workload, threads, scale.txns_per_thread, 9);
            let txns = r.committed.max(1) as f64;
            let total = r.elapsed.as_micros() as f64 * threads as f64 / txns;
            let smo = r.stats.smo_wait_nanos as f64 / 1_000.0 / txns;
            cells.push(Cell::FloatPrec(total, 2));
            cells.push(Cell::FloatPrec(smo, 3));
        }
        table.push_row(cells);
    }
    vec![table]
}

/// Figure 11: heap space overhead of the PLP placement policies.
pub fn fig11_fragmentation(scale: Scale) -> Vec<Table> {
    let mut table = Table::new(
        "Figure 11 — heap pages used, normalised to the conventional layout",
        &[
            "records",
            "record size",
            "partitions",
            "Regular",
            "PLP-Partition",
            "PLP-Leaf",
        ],
    );
    for &(records, record_size) in &[(20_000u64, 100usize), (5_000, 1000)] {
        let partitions = if record_size == 100 { 100u32 } else { 10 };
        let counts: Vec<usize> = [
            PlacementPolicy::Regular,
            PlacementPolicy::PartitionOwned,
            PlacementPolicy::LeafOwned,
        ]
        .iter()
        .map(|&policy| heap_pages_used(records, record_size, partitions, policy, scale))
        .collect();
        let base = counts[0].max(1) as f64;
        table.row(vec![
            Cell::from(records),
            Cell::from(record_size),
            Cell::from(partitions as u64),
            Cell::FloatPrec(counts[0] as f64 / base, 3),
            Cell::FloatPrec(counts[1] as f64 / base, 3),
            Cell::FloatPrec(counts[2] as f64 / base, 3),
        ]);
    }
    vec![table]
}

fn heap_pages_used(
    records: u64,
    record_size: usize,
    partitions: u32,
    policy: PlacementPolicy,
    _scale: Scale,
) -> usize {
    let stats = StatsRegistry::new_shared();
    let pool = BufferPool::new_shared(stats);
    let heap = HeapFile::new(pool, policy);
    let record = vec![7u8; record_size];
    // Leaf-owned placement: model one owning leaf per ~170 records (the index
    // fan-out of the paper's scenario); partition-owned: `partitions` buckets.
    for i in 0..records {
        let hint = match policy {
            PlacementPolicy::Regular => PlacementHint::None,
            PlacementPolicy::PartitionOwned => {
                PlacementHint::Partition((i % partitions as u64) as u32)
            }
            PlacementPolicy::LeafOwned => PlacementHint::Leaf(plp_storage::PageId(1 + i / 170)),
        };
        heap.insert(&record, hint, Access::Latched).unwrap();
    }
    heap.page_count()
}

/// Figure 12: heap-scan time of the PLP placement policies, normalised to the
/// conventional layout.
pub fn fig12_heap_scan(scale: Scale) -> Vec<Table> {
    let mut table = Table::new(
        "Figure 12 — full heap scan time, normalised to the conventional layout",
        &["records", "Regular", "PLP-Partition", "PLP-Leaf"],
    );
    let records = scale.subscribers.max(10_000);
    let mut times = Vec::new();
    for &policy in &[
        PlacementPolicy::Regular,
        PlacementPolicy::PartitionOwned,
        PlacementPolicy::LeafOwned,
    ] {
        let stats = StatsRegistry::new_shared();
        let pool = BufferPool::new_shared(stats);
        let heap = HeapFile::new(pool, policy);
        let record = vec![3u8; 100];
        for i in 0..records {
            let hint = match policy {
                PlacementPolicy::Regular => PlacementHint::None,
                PlacementPolicy::PartitionOwned => PlacementHint::Partition((i % 100) as u32),
                PlacementPolicy::LeafOwned => PlacementHint::Leaf(plp_storage::PageId(1 + i / 170)),
            };
            heap.insert(&record, hint, Access::Latched).unwrap();
        }
        let start = Instant::now();
        let mut checksum = 0u64;
        heap.scan(Access::Latched, |_, bytes| checksum += bytes[0] as u64)
            .unwrap();
        times.push(start.elapsed().as_secs_f64().max(1e-9));
        assert!(checksum > 0);
    }
    let base = times[0];
    table.row(vec![
        Cell::from(records),
        Cell::FloatPrec(times[0] / base, 3),
        Cell::FloatPrec(times[1] / base, 3),
        Cell::FloatPrec(times[2] / base, 3),
    ]);
    vec![table]
}

/// Ablation: baseline vs consolidated (Aether-style) log-buffer inserts.
pub fn ablation_log_protocol(scale: Scale) -> Vec<Table> {
    use plp_wal::InsertProtocol;
    let tatp = Tatp::new(scale.subscribers);
    let threads = scale.max_threads.min(4);
    let mut table = Table::new(
        "Ablation — log-buffer insert protocol (Conventional, TATP)",
        &["protocol", "log CS/txn", "throughput Ktps"],
    );
    for (name, protocol) in [
        ("per-record (baseline)", InsertProtocol::Baseline),
        ("consolidated (Aether)", InsertProtocol::Consolidated),
    ] {
        let config = EngineConfig::new(Design::Conventional { sli: true })
            .with_partitions(threads)
            .with_log_protocol(protocol);
        let engine = prepare_engine(config, &tatp);
        let r = run_fixed(&engine, &tatp, threads, scale.txns_per_thread, 3);
        table.row(vec![
            Cell::from(name),
            Cell::FloatPrec(r.cs_per_txn(CsCategory::LogMgr), 2),
            Cell::FloatPrec(r.throughput_tps() / 1_000.0, 1),
        ]);
    }
    vec![table]
}

/// Ablation: record padding vs PLP-Leaf as answers to heap false sharing.
pub fn ablation_padding(scale: Scale) -> Vec<Table> {
    let threads = scale.max_threads.min(4);
    let mut table = Table::new(
        "Ablation — TPC-B heap false sharing: padding vs PLP-Leaf",
        &["configuration", "heap latch wait µs/txn", "throughput Ktps"],
    );
    let cases: [(&str, Design, bool); 3] = [
        (
            "Conventional, no padding",
            Design::Conventional { sli: true },
            false,
        ),
        (
            "Conventional, padded records",
            Design::Conventional { sli: true },
            true,
        ),
        ("PLP-Leaf, no padding", Design::PlpLeaf, false),
    ];
    for (name, design, pad) in cases {
        let tpcb = TpcB::new(threads as u64);
        let config = EngineConfig::new(design)
            .with_partitions(threads)
            .with_padding(pad);
        let engine = prepare_engine(config, &tpcb);
        let r = run_fixed(&engine, &tpcb, threads, scale.txns_per_thread / 2, 11);
        let heap_wait =
            r.stats.latches.wait_nanos(PageKind::Heap) as f64 / 1_000.0 / r.committed.max(1) as f64;
        table.row(vec![
            Cell::from(name),
            Cell::FloatPrec(heap_wait, 2),
            Cell::FloatPrec(r.throughput_tps() / 1_000.0, 1),
        ]);
    }
    vec![table]
}

/// TableId of the subscriber table, re-exported for the repartitioning bin.
const SUBSCRIBER_TABLE: TableId = TableId(0);

/// The DLB experiment (paper §5): a micro-TATP workload whose hotspot shifts
/// mid-run.  With the load balancer off, the shift strands 90% of the
/// traffic on one worker and throughput collapses; with it on, the aging
/// histograms localize the new hotspot and the controller repartitions the
/// alignment group until the load is spread again.
///
/// The second table demonstrates repartition-journal rollback: a deliberately
/// injected sibling failure leaves every table on its old boundaries and the
/// engine still serving transactions.
pub fn fig_dlb_skew(scale: Scale) -> Vec<Table> {
    use plp_workloads::micro::SkewedProbe;
    use plp_workloads::skew::SkewKind;

    let threads = scale.max_threads.clamp(2, 4);
    // More clients than workers: a hotspot stuck on one worker then queues,
    // which is exactly the collapse the controller is supposed to fix.
    let clients = threads * 2;
    let window = Duration::from_millis(300);
    let subscribers = scale.subscribers;
    // Shift the hot range into the middle of the last partition's territory.
    let shift_target = subscribers * 3 / 5;
    let hot = SkewKind::HotSpot {
        fraction: 0.05,
        probability: 0.9,
    };

    let mut table = Table::new(
        "DLB — hotspot shift under PLP-Regular: throughput (Ktps), load balancer off vs on",
        &[
            "configuration",
            "initial hotspot",
            "after shift",
            "after recovery window",
            "repartitions",
            "observed imb",
            "predicted imb",
            "workers sharing hot range",
        ],
    );
    // Uniform reference: what the hardware gives when nothing is hot.
    {
        let workload = SkewedProbe::new(subscribers, SkewKind::Uniform);
        let config = EngineConfig::new(Design::PlpRegular)
            .with_partitions(threads)
            .with_fanout(128);
        let engine = prepare_engine(config, &workload);
        let r = run_timed(&engine, &workload, clients, window, 31);
        table.row(vec![
            Cell::from("uniform reference"),
            Cell::FloatPrec(r.throughput_tps() / 1_000.0, 1),
            Cell::Empty,
            Cell::Empty,
            Cell::from(0u64),
            Cell::Empty,
            Cell::Empty,
            Cell::Empty,
        ]);
    }
    for dlb_on in [false, true] {
        let workload = SkewedProbe::new(subscribers, hot);
        let mut config = EngineConfig::new(Design::PlpRegular)
            .with_partitions(threads)
            .with_fanout(128);
        if dlb_on {
            config = config.with_dlb();
        }
        let engine = prepare_engine(config, &workload);
        // Settle window: with DLB on, the controller adapts to the initial
        // hotspot here; with it off, nothing changes.
        let _ = run_timed(&engine, &workload, clients, window, 32);
        let adapted = run_timed(&engine, &workload, clients, window, 33);
        workload.shift_to(shift_target);
        let after_shift = run_timed(&engine, &workload, clients, window, 34);
        // Recovery window: the controller chases the relocated hotspot.
        let _ = run_timed(&engine, &workload, clients, window, 35);
        let recovered = run_timed(&engine, &workload, clients, window, 36);
        let dlb = engine.db().stats().snapshot().dlb;
        // Hardware-independent recovery evidence: on boxes where the workers
        // cannot run in parallel the throughput columns flatten, but the
        // number of workers owning a slice of the (moved) hot range still
        // shows whether the controller spread the load.
        let spread = {
            let pm = engine.partition_manager().expect("partitioned design");
            let bounds = pm.bounds(plp_core::TableId(0));
            let (hot_lo, hot_hi) = workload.keys().hot_range();
            (0..bounds.len())
                .filter(|&i| {
                    let lo = bounds[i];
                    let hi = bounds.get(i + 1).copied().unwrap_or(u64::MAX);
                    lo < hot_hi && hi > hot_lo
                })
                .count()
        };
        table.row(vec![
            Cell::from(if dlb_on { "DLB on" } else { "DLB off" }),
            Cell::FloatPrec(adapted.throughput_tps() / 1_000.0, 1),
            Cell::FloatPrec(after_shift.throughput_tps() / 1_000.0, 1),
            Cell::FloatPrec(recovered.throughput_tps() / 1_000.0, 1),
            Cell::from(dlb.repartitions_triggered),
            Cell::FloatPrec(dlb.observed_imbalance, 2),
            Cell::FloatPrec(dlb.predicted_imbalance, 2),
            Cell::from(spread),
        ]);
    }

    vec![table, dlb_rollback_demo(scale, window)]
}

/// Inject a sibling-repartition failure into a live TATP engine and show the
/// journal rolling every table back with the engine still serving.
fn dlb_rollback_demo(scale: Scale, window: Duration) -> Table {
    let tatp = Tatp::new((scale.subscribers / 2).max(600));
    let engine = prepare_engine(EngineConfig::new(Design::PlpLeaf).with_partitions(2), &tatp);
    let pm = engine
        .partition_manager()
        .expect("PLP designs are partitioned");
    let schema = tatp.schema();
    let bounds_before: Vec<Vec<u64>> = schema.iter().map(|s| pm.bounds(s.id)).collect();
    // Fail after the driver and one sibling have been repartitioned.
    pm.inject_repartition_failure_after(2);
    let hot = tatp.subscribers() / 10;
    let result = engine.repartition(SUBSCRIBER_TABLE, &[0, hot]);
    let bounds_after: Vec<Vec<u64>> = schema.iter().map(|s| pm.bounds(s.id)).collect();
    let rolled_back = result.is_err() && bounds_before == bounds_after;
    let r = run_timed(&engine, &tatp, 2, window, 37);
    let rollbacks = engine.db().stats().snapshot().dlb.rollbacks;

    let mut table = Table::new(
        "DLB — repartition-journal rollback after an injected sibling failure (TATP, PLP-Leaf)",
        &[
            "outcome",
            "boundaries restored",
            "journal rollbacks",
            "Ktps while serving after failure",
        ],
    );
    table.row(vec![
        Cell::from(if result.is_err() {
            "repartition failed (as injected)"
        } else {
            "repartition unexpectedly succeeded"
        }),
        Cell::from(if rolled_back { "yes" } else { "NO" }),
        Cell::from(rollbacks),
        Cell::FloatPrec(r.throughput_tps() / 1_000.0, 1),
    ]);
    table
}

/// Durability ablation: the same TPC-B write-heavy workload under every
/// durability mode, with and without the file-backed log device — commit
/// latency vs group-commit batching — followed by a kill-free crash-recovery
/// demonstration (build under Strict, drop the process state, recover, and
/// compare).
pub fn fig_durability(scale: Scale) -> Vec<Table> {
    use plp_wal::DurabilityMode;

    let threads = scale.max_threads.min(4);
    let tpcb = TpcB::new((threads as u64).max(2));
    let mut throughput = Table::new(
        "Durability — TPC-B throughput by durability mode (PLP-Regular)",
        &[
            "mode",
            "log device",
            "throughput Ktps",
            "commits",
            "mean group-commit batch",
            "fsyncs",
            "log MB written",
        ],
    );
    let modes: [(&str, DurabilityMode, bool); 4] = [
        ("Lazy (memory log)", DurabilityMode::Lazy, false),
        ("Lazy", DurabilityMode::Lazy, true),
        ("Synchronous", DurabilityMode::Synchronous, true),
        ("Strict (fsync)", DurabilityMode::Strict, true),
    ];
    for (name, mode, device) in modes {
        let dir = std::env::temp_dir().join(format!(
            "plp-fig-durability-{}-{}",
            name.replace([' ', '(', ')'], ""),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = EngineConfig::new(Design::PlpRegular)
            .with_partitions(threads)
            .with_durability(mode);
        if device {
            config = config.with_log_dir(&dir);
        }
        let engine = prepare_engine(config, &tpcb);
        let r = run_fixed(&engine, &tpcb, threads, scale.txns_per_thread, 0xD0);
        throughput.row(vec![
            Cell::from(name),
            Cell::from(if device { "yes" } else { "no" }),
            Cell::FloatPrec(r.throughput_tps() / 1_000.0, 1),
            Cell::Int(r.committed as i64),
            Cell::FloatPrec(r.stats.wal.mean_batch_size(), 1),
            Cell::Int(r.stats.wal.fsyncs as i64),
            Cell::FloatPrec(r.stats.wal.flushed_bytes as f64 / (1024.0 * 1024.0), 2),
        ]);
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Crash-recovery demonstration: run Strict, abandon the engine without
    // shutdown, recover from the log alone and compare.
    let mut recovery = Table::new(
        "Durability — crash recovery (Strict, PLP-Regular)",
        &[
            "committed pre-crash",
            "recovered commits",
            "records replayed",
            "torn bytes",
            "boundaries equal",
            "recovery ms",
        ],
    );
    let dir = std::env::temp_dir().join(format!("plp-fig-durability-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = EngineConfig::new(Design::PlpRegular)
        .with_partitions(threads)
        .with_durability(plp_wal::DurabilityMode::Strict)
        .with_log_dir(&dir);
    let engine = prepare_engine(config.clone(), &tpcb);
    let r = run_fixed(&engine, &tpcb, threads, scale.txns_per_thread / 4, 0xD1);
    let bounds_before: Vec<Vec<u64>> = engine
        .db()
        .tables()
        .iter()
        .map(|t| engine.partition_manager().unwrap().bounds(t.spec().id))
        .collect();
    drop(engine); // crash: no shutdown, no final checkpoint

    let t0 = Instant::now();
    let (recovered, report) =
        plp_core::Engine::recover(&dir, config, &tpcb.schema()).expect("fig_durability recovery");
    let elapsed = t0.elapsed();
    let bounds_after: Vec<Vec<u64>> = recovered
        .db()
        .tables()
        .iter()
        .map(|t| recovered.partition_manager().unwrap().bounds(t.spec().id))
        .collect();
    recovery.row(vec![
        Cell::Int(r.committed as i64),
        Cell::Int(report.committed_txns as i64),
        Cell::Int(report.records_replayed as i64),
        Cell::Int(report.torn_bytes as i64),
        Cell::from(if bounds_before == bounds_after {
            "yes"
        } else {
            "NO"
        }),
        Cell::FloatPrec(elapsed.as_secs_f64() * 1_000.0, 1),
    ]);
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);

    vec![throughput, recovery]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figures 6, 7 and 10 at a tiny scale keep their columns and rows, and
    /// every time they report is finite and non-negative.
    #[test]
    fn time_breakdown_figures_keep_their_shape() {
        let scale = Scale {
            subscribers: 200,
            txns_per_thread: 50,
            max_threads: 2,
        };
        let breakdown = [
            "design",
            "idx latch wait",
            "heap latch wait",
            "SMO wait",
            "other",
            "total",
        ];
        let fig10 = [
            "insert %",
            "Normal µs/txn",
            "Normal SMO wait µs",
            "MRBT µs/txn",
            "MRBT SMO wait µs",
        ];
        for (tables, headers, rows) in [
            (fig6_insdel_breakdown(scale), &breakdown[..], 3),
            (fig7_tpcb_false_sharing(scale), &breakdown[..], 4),
            (fig10_parallel_smo(scale), &fig10[..], 6),
        ] {
            assert_eq!(tables.len(), 1, "one table at max_threads 2");
            let table = &tables[0];
            assert_eq!(table.headers, headers, "{}", table.title);
            assert_eq!(table.rows.len(), rows, "{}", table.title);
            for row in &table.rows {
                assert_eq!(row.len(), headers.len(), "{}", table.title);
                for cell in &row[1..] {
                    let Cell::FloatPrec(v, _) = cell else {
                        panic!("{}: {cell:?} is not a time", table.title);
                    };
                    assert!(v.is_finite() && *v >= 0.0, "{}: {v}", table.title);
                }
            }
        }
    }
}
