//! Message-cost microbenchmark: mutex+condvar vs lock-free worker exchange.
//!
//! Reproduces the communication-cost breakdown behind the paper's Figure 1:
//! once latches and centralized locks are gone, the coordinator↔worker
//! message exchange is the remaining per-action cost every workload pays.
//! The benchmark models the engine's exact topology — one request queue per
//! worker, coordinators dispatching a stage of requests and waiting at a
//! rendezvous — and measures the per-message round-trip cost under two
//! implementations:
//!
//! * **mutex+condvar**: the previous shim channel
//!   (`crossbeam::channel::mutex_baseline`) for requests, plus a freshly
//!   allocated `bounded(1)` baseline channel per reply — exactly the old hot
//!   path;
//! * **lock-free**: the Vyukov/segmented queues (`crossbeam::channel`) for
//!   requests, plus pooled [`plp_core::reply::ReplySlot`] rendezvous.
//!
//! Two shapes are measured per thread count: `pingpong` (one outstanding
//! request per coordinator — latency-bound) and `pipelined` (a stage of
//! [`PIPELINE_DEPTH`] requests dispatched before the rendezvous —
//! throughput-bound, the shape multi-action transactions and loaded systems
//! see).  Two more pipelined rows measure what the engine runs: `batched`
//! (one message per worker per stage) and `spsc lane`, which sends over the
//! engine's own worker inbox ([`plp_core::inbox`]), one lane per
//! coordinator and worker.
//!
//! The JSON this module emits/parses feeds the CI perf-regression gate
//! (`check_bench` vs the committed `BENCH_BASELINE.json`).  The gate
//! compares the **lock-free / mutex ratio**, not absolute nanoseconds, so it
//! is robust to CI-runner hardware differences; absolute numbers ride along
//! for the nightly trend artifact.

use std::time::Instant;

use plp_core::reply::{BatchReplyPromise, BatchReplySlot, ReplyPromise, ReplySlot};
use plp_instrument::{Cell, MsgStatsSnapshot, Table};

use crate::Scale;

/// Outstanding requests per coordinator in the pipelined shape.
pub const PIPELINE_DEPTH: usize = 16;

/// Default regression threshold for the CI gate: fail only when a ratio
/// regresses by more than 30% against the committed baseline.
pub const DEFAULT_THRESHOLD: f64 = 0.30;

/// Floor on the gate's per-point limit: a point never fails while the
/// lock-free path is within 10% of mutex parity (see
/// [`check_against_baseline`] for the rationale).
const RATIO_FLOOR: f64 = 1.10;

/// Hard cap on the batched/lock-free pipelined cost ratio at thread counts
/// {2, 4}: batching a stage into one message per worker must keep the
/// per-action cost at or below 0.8x the per-action dispatch.  Both sides of
/// the ratio come from the *same run*, so the cap is hardware-independent
/// and gated unconditionally (no baseline needed).
const BATCHED_RATIO_CAP: f64 = 0.8;

/// Floor for the SPSC-lane/lock-free pipelined ratio limit: the fast lane
/// never fails the gate while it is within 10% of the shared-queue path.
const SPSC_RATIO_FLOOR: f64 = 1.10;

/// Floor for the engine-TATP/lock-free pipelined ratio limit.  The engine
/// number is the session-observed cost of an *action* — execution, logging
/// and, for the contended few, a message round trip — over the raw cost of a
/// pipelined message, so it swings with host load more than the
/// microbenchmark shapes do; the floor keeps those swings from tripping the
/// gate.  With caller-runs execution most actions pay no message and the
/// committed baselines sit at ~3x (2 threads) and ~8.5x (4 sessions plus 4
/// workers oversubscribing 2 vCPUs; runs range 1.7–4.3x and 5–10.3x), so
/// the floor — not the relative rule — is the binding limit.  12x clears the
/// noisiest measured point and fails every run of the worker-hop-per-action
/// design this replaced (20–36x on the same box).  It was 15x while every
/// action paid the hop.
const ENGINE_RATIO_FLOOR: f64 = 12.0;

/// Hard cap on the engine-TATP limit.  The relative rule scales the limit
/// with the committed baseline, so a bloated baseline (refreshed on a loaded
/// box, or after an unnoticed regression) would keep rubber-stamping equally
/// bloated runs forever.  Past 30x an action costs what it did when every
/// one of them crossed two OS thread hand-offs — the caller-runs path has
/// collapsed regardless of what the baseline says, so the point fails even
/// when it is within 30% of it.  (60x before caller-runs.)
const ENGINE_RATIO_CAP: f64 = 30.0;

/// One measured thread-count point.  The `Option` fields were added after
/// the first committed baselines; parsing tolerates their absence so an old
/// baseline file still gates the mandatory shapes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MsgCostPoint {
    /// Coordinator thread count (worker count matches).
    pub threads: usize,
    pub mutex_pingpong_ns: f64,
    pub lockfree_pingpong_ns: f64,
    pub mutex_pipelined_ns: f64,
    pub lockfree_pipelined_ns: f64,
    /// Pipelined shape with per-worker batched dispatch (one message and one
    /// reply wakeup per worker per stage).
    pub batched_pipelined_ns: Option<f64>,
    /// Pipelined shape dispatching over per-coordinator SPSC fast lanes.
    pub spsc_pipelined_ns: Option<f64>,
    /// Engine-level mean session-observed time per action from a short TATP
    /// burst (threads 2 and 4 only), over both execution paths: message
    /// round trips and groups the session ran inline
    /// ([`MsgStatsSnapshot::mean_action_nanos`]).  Round trips alone would
    /// sample only the contended tail.
    pub tatp_roundtrip_ns: Option<f64>,
}

impl MsgCostPoint {
    /// Lock-free cost relative to the mutex baseline, latency shape (<1
    /// means the lock-free path is cheaper).
    fn pingpong_ratio(&self) -> f64 {
        self.lockfree_pingpong_ns / self.mutex_pingpong_ns.max(1e-9)
    }

    /// Lock-free cost relative to the mutex baseline, throughput shape.
    fn pipelined_ratio(&self) -> f64 {
        self.lockfree_pipelined_ns / self.mutex_pipelined_ns.max(1e-9)
    }

    /// Batched per-action cost relative to the same run's per-action
    /// lock-free dispatch (<1 means batching pays).
    fn batched_ratio(&self) -> Option<f64> {
        Some(self.batched_pipelined_ns? / self.lockfree_pipelined_ns.max(1e-9))
    }

    /// SPSC-lane per-action cost relative to the same run's shared-queue
    /// dispatch.
    fn spsc_ratio(&self) -> Option<f64> {
        Some(self.spsc_pipelined_ns? / self.lockfree_pipelined_ns.max(1e-9))
    }

    /// Engine-level TATP round trip relative to the same run's raw
    /// lock-free pipelined message cost (dimensionless, so it transfers
    /// across hosts better than absolute nanoseconds).
    fn tatp_ratio(&self) -> Option<f64> {
        Some(self.tatp_roundtrip_ns? / self.lockfree_pipelined_ns.max(1e-9))
    }
}

enum MutexRequest {
    Echo(u64, crossbeam::channel::mutex_baseline::Sender<u64>),
    Stop,
}

enum LockfreeRequest {
    Echo(u64, ReplyPromise<u64>),
    Stop,
}

enum BatchedRequest {
    /// A whole stage group for this worker: echo every value, reply once.
    Batch(Vec<u64>, BatchReplyPromise<u64>),
    Stop,
}

/// Run one (implementation, shape) configuration and return ns per message.
/// `threads` coordinators round-robin over `threads` workers; each
/// coordinator completes `msgs` round trips in batches of `depth`.
fn run_mutex(threads: usize, msgs: u64, depth: usize) -> f64 {
    use crossbeam::channel::mutex_baseline as chan;
    let workers: Vec<(chan::Sender<MutexRequest>, std::thread::JoinHandle<()>)> = (0..threads)
        .map(|_| {
            let (tx, rx) = chan::unbounded::<MutexRequest>();
            let handle = std::thread::spawn(move || {
                while let Ok(req) = rx.recv() {
                    match req {
                        MutexRequest::Echo(v, reply) => {
                            let _ = reply.send(v.wrapping_mul(3));
                        }
                        MutexRequest::Stop => break,
                    }
                }
            });
            (tx, handle)
        })
        .collect();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..threads {
            let senders: Vec<chan::Sender<MutexRequest>> =
                workers.iter().map(|(tx, _)| tx.clone()).collect();
            scope.spawn(move || {
                let mut sent = 0u64;
                let mut rr = c; // round-robin start offset per coordinator
                while sent < msgs {
                    let batch = depth.min((msgs - sent) as usize);
                    // The old hot path: a fresh reply channel per request.
                    let mut pending = Vec::with_capacity(batch);
                    for _ in 0..batch {
                        let (reply_tx, reply_rx) = chan::bounded::<u64>(1);
                        senders[rr % senders.len()]
                            .send(MutexRequest::Echo(sent, reply_tx))
                            .expect("worker alive");
                        rr += 1;
                        sent += 1;
                        pending.push(reply_rx);
                    }
                    for reply in pending {
                        reply.recv().expect("reply");
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed();
    for (tx, _) in &workers {
        let _ = tx.send(MutexRequest::Stop);
    }
    for (tx, handle) in workers {
        drop(tx);
        let _ = handle.join();
    }
    elapsed.as_nanos() as f64 / (msgs * threads as u64) as f64
}

fn run_lockfree(threads: usize, msgs: u64, depth: usize) -> f64 {
    use crossbeam::channel as chan;
    let workers: Vec<(chan::Sender<LockfreeRequest>, std::thread::JoinHandle<()>)> = (0..threads)
        .map(|_| {
            let (tx, rx) = chan::unbounded::<LockfreeRequest>();
            let handle = std::thread::spawn(move || {
                while let Ok(req) = rx.recv() {
                    match req {
                        LockfreeRequest::Echo(v, reply) => reply.fulfill(v.wrapping_mul(3)),
                        LockfreeRequest::Stop => break,
                    }
                }
            });
            (tx, handle)
        })
        .collect();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..threads {
            let senders: Vec<chan::Sender<LockfreeRequest>> =
                workers.iter().map(|(tx, _)| tx.clone()).collect();
            scope.spawn(move || {
                // The new hot path: pooled reply slots, allocation-free in
                // the steady state.
                let mut pool: Vec<ReplySlot<u64>> = (0..depth).map(|_| ReplySlot::new()).collect();
                let mut sent = 0u64;
                let mut rr = c;
                while sent < msgs {
                    let batch = depth.min((msgs - sent) as usize);
                    let mut pending = Vec::with_capacity(batch);
                    for _ in 0..batch {
                        let mut slot = pool.pop().expect("pool sized to depth");
                        let promise = slot.promise();
                        senders[rr % senders.len()]
                            .send(LockfreeRequest::Echo(sent, promise))
                            .expect("worker alive");
                        rr += 1;
                        sent += 1;
                        pending.push(slot);
                    }
                    for mut slot in pending {
                        slot.wait().expect("reply");
                        pool.push(slot);
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed();
    for (tx, _) in &workers {
        let _ = tx.send(LockfreeRequest::Stop);
    }
    for (tx, handle) in workers {
        drop(tx);
        let _ = handle.join();
    }
    elapsed.as_nanos() as f64 / (msgs * threads as u64) as f64
}

/// Batched dispatch: the engine's new stage shape.  Each coordinator routes
/// a stage of `depth` requests round-robin over the workers, then sends ONE
/// message per worker carrying that worker's whole group and waits on one
/// batch-reply rendezvous per worker — `depth` actions cost `threads`
/// messages and `threads` wakeups instead of `depth` of each.
fn run_lockfree_batched(threads: usize, msgs: u64, depth: usize) -> f64 {
    use crossbeam::channel as chan;
    let workers: Vec<(chan::Sender<BatchedRequest>, std::thread::JoinHandle<()>)> = (0..threads)
        .map(|_| {
            let (tx, rx) = chan::unbounded::<BatchedRequest>();
            let handle = std::thread::spawn(move || {
                while let Ok(req) = rx.recv() {
                    match req {
                        BatchedRequest::Batch(values, mut reply) => {
                            for v in values {
                                reply.push(v.wrapping_mul(3));
                            }
                            reply.finish();
                        }
                        BatchedRequest::Stop => break,
                    }
                }
            });
            (tx, handle)
        })
        .collect();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..threads {
            let senders: Vec<chan::Sender<BatchedRequest>> =
                workers.iter().map(|(tx, _)| tx.clone()).collect();
            scope.spawn(move || {
                let mut slots: Vec<BatchReplySlot<u64>> =
                    (0..threads).map(|_| BatchReplySlot::new()).collect();
                let mut groups: Vec<Vec<u64>> = vec![Vec::new(); threads];
                let mut sent = 0u64;
                let mut rr = c;
                while sent < msgs {
                    let batch = depth.min((msgs - sent) as usize);
                    for _ in 0..batch {
                        groups[rr % threads].push(sent);
                        rr += 1;
                        sent += 1;
                    }
                    let mut awaited = Vec::with_capacity(threads);
                    for (w, group) in groups.iter_mut().enumerate() {
                        if group.is_empty() {
                            continue;
                        }
                        let promise = slots[w].promise(group.len());
                        senders[w]
                            .send(BatchedRequest::Batch(std::mem::take(group), promise))
                            .expect("worker alive");
                        awaited.push(w);
                    }
                    for w in awaited {
                        let replies = slots[w].wait().expect("batch reply");
                        slots[w].recycle(replies);
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed();
    for (tx, _) in &workers {
        let _ = tx.send(BatchedRequest::Stop);
    }
    for (tx, handle) in workers {
        drop(tx);
        let _ = handle.join();
    }
    elapsed.as_nanos() as f64 / (msgs * threads as u64) as f64
}

/// Per-action dispatch over per-coordinator SPSC lanes: same request and
/// reply protocol as [`run_lockfree`], but every coordinator owns one lane
/// into every worker's [`plp_core::inbox::Inbox`] — the engine's own inbox
/// and per-link lane topology — and a worker stops on the inbox's stop flag.
fn run_lockfree_spsc(threads: usize, msgs: u64, depth: usize) -> f64 {
    use plp_core::inbox::{Inbox, LaneSender};
    let stats = plp_instrument::StatsRegistry::new_shared();
    let workers: Vec<_> = (0..threads)
        .map(|_| {
            let (inbox, rx) = Inbox::<LockfreeRequest>::new(stats.clone());
            let handle = std::thread::spawn(move || {
                while let Some(LockfreeRequest::Echo(v, reply)) = rx.recv() {
                    reply.fulfill(v.wrapping_mul(3));
                }
            });
            (inbox, handle)
        })
        .collect();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..threads {
            // Created on this thread, moved into the coordinator: each lane
            // has exactly one producer for its whole lifetime.
            let lanes: Vec<LaneSender<LockfreeRequest>> = workers
                .iter()
                .map(|(inbox, _)| inbox.lane(PIPELINE_DEPTH.max(depth).next_power_of_two()))
                .collect();
            scope.spawn(move || {
                let mut pool: Vec<ReplySlot<u64>> = (0..depth).map(|_| ReplySlot::new()).collect();
                let mut sent = 0u64;
                let mut rr = c;
                while sent < msgs {
                    let batch = depth.min((msgs - sent) as usize);
                    let mut pending = Vec::with_capacity(batch);
                    for _ in 0..batch {
                        let mut slot = pool.pop().expect("pool sized to depth");
                        lanes[rr % lanes.len()].send(LockfreeRequest::Echo(sent, slot.promise()));
                        rr += 1;
                        sent += 1;
                        pending.push(slot);
                    }
                    for mut slot in pending {
                        slot.wait().expect("reply");
                        pool.push(slot);
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed();
    for (inbox, handle) in workers {
        inbox.stop();
        let _ = handle.join();
    }
    elapsed.as_nanos() as f64 / (msgs * threads as u64) as f64
}

/// Thread counts measured.  Fixed (not derived from the host's core count)
/// so the committed baseline and a CI run always produce comparable points;
/// oversubscribed points still measure — the threads block, not busy-wait.
fn msgcost_thread_counts(full: bool) -> Vec<usize> {
    if full {
        vec![1, 2, 4, 8]
    } else {
        vec![1, 2, 4]
    }
}

/// Samples per (implementation, shape, thread-count) configuration; the
/// minimum is kept.  Scheduler noise is strictly additive for this kind of
/// microbenchmark, so min-of-N estimates the true cost and keeps one bad
/// scheduling window (observed to inflate a single sample ~4x on a busy
/// 1-vCPU host) from failing the CI gate with no code change.
const SAMPLES: u32 = 3;

fn min_of_samples(mut run: impl FnMut() -> f64) -> f64 {
    (0..SAMPLES).map(|_| run()).fold(f64::INFINITY, f64::min)
}

/// Measure every point of the sweep, including the engine-level TATP round
/// trip at thread counts 2 and 4.
pub fn measure_msgcost(scale: Scale) -> Vec<MsgCostPoint> {
    let full = scale.txns_per_thread >= Scale::full().txns_per_thread;
    let msgs: u64 = if full { 20_000 } else { 5_000 };
    let mut points: Vec<MsgCostPoint> = msgcost_thread_counts(full)
        .into_iter()
        .map(|threads| {
            // Warm-up pass keeps thread spawn + first-fault noise out.
            let _ = run_lockfree(threads, msgs / 10, PIPELINE_DEPTH);
            MsgCostPoint {
                threads,
                mutex_pingpong_ns: min_of_samples(|| run_mutex(threads, msgs, 1)),
                lockfree_pingpong_ns: min_of_samples(|| run_lockfree(threads, msgs, 1)),
                mutex_pipelined_ns: min_of_samples(|| run_mutex(threads, msgs, PIPELINE_DEPTH)),
                lockfree_pipelined_ns: min_of_samples(|| {
                    run_lockfree(threads, msgs, PIPELINE_DEPTH)
                }),
                batched_pipelined_ns: Some(min_of_samples(|| {
                    run_lockfree_batched(threads, msgs, PIPELINE_DEPTH)
                })),
                spsc_pipelined_ns: Some(min_of_samples(|| {
                    run_lockfree_spsc(threads, msgs, PIPELINE_DEPTH)
                })),
                tatp_roundtrip_ns: None,
            }
        })
        .collect();
    for (threads, msg) in measure_engine_bursts(scale) {
        if let Some(p) = points.iter_mut().find(|p| p.threads == threads) {
            p.tatp_roundtrip_ns = Some(msg.mean_action_nanos());
        }
    }
    points
}

/// Run a short TATP burst on the partitioned design at thread counts 2 and 4
/// and return each run's dispatch counters: groups the sessions ran inline
/// on idle partitions, and — for the contended rest — the message path
/// (batched dispatch over SPSC lanes with pooled replies).
fn measure_engine_bursts(scale: Scale) -> Vec<(usize, MsgStatsSnapshot)> {
    use plp_core::{Design, EngineConfig};
    use plp_workloads::driver::{prepare_engine, run_fixed};
    use plp_workloads::tatp::Tatp;

    let tatp = Tatp::new(scale.subscribers);
    [2usize, 4]
        .into_iter()
        .map(|threads| {
            let config = EngineConfig::new(Design::PlpRegular)
                .with_partitions(threads)
                .with_fanout(128);
            let engine = prepare_engine(config, &tatp);
            let r = run_fixed(&engine, &tatp, threads, scale.txns_per_thread, 0x115C);
            (threads, r.stats.msg)
        })
        .collect()
}

/// Render the sweep as the experiment's table (shared by `fig_msgcost` and
/// the `fig_msgcost` bin so the printed and reproduced copies cannot drift).
pub fn sweep_table(points: &[MsgCostPoint]) -> Table {
    let mut sweep = Table::new(
        "Message cost — per-message round trip (ns), mutex+condvar vs lock-free",
        &[
            "threads",
            "mutex pingpong",
            "lock-free pingpong",
            "ratio",
            "mutex pipelined",
            "lock-free pipelined",
            "ratio ",
            "batched",
            "vs lock-free",
            "spsc lane",
            "vs lock-free ",
        ],
    );
    let opt_ns = |v: Option<f64>| v.map_or(Cell::Empty, |ns| Cell::FloatPrec(ns, 0));
    let opt_ratio = |v: Option<f64>| v.map_or(Cell::Empty, |r| Cell::FloatPrec(r, 3));
    for p in points {
        sweep.row(vec![
            Cell::from(p.threads),
            Cell::FloatPrec(p.mutex_pingpong_ns, 0),
            Cell::FloatPrec(p.lockfree_pingpong_ns, 0),
            Cell::FloatPrec(p.pingpong_ratio(), 3),
            Cell::FloatPrec(p.mutex_pipelined_ns, 0),
            Cell::FloatPrec(p.lockfree_pipelined_ns, 0),
            Cell::FloatPrec(p.pipelined_ratio(), 3),
            opt_ns(p.batched_pipelined_ns),
            opt_ratio(p.batched_ratio()),
            opt_ns(p.spsc_pipelined_ns),
            opt_ratio(p.spsc_ratio()),
        ]);
    }
    sweep
}

/// Depth sweep: per-action cost of the per-action vs batched dispatch as the
/// stage's pipeline depth grows.  Nightly-only material (not gated): shows
/// where batching starts to pay and that depth-1 stays near the per-action
/// path's cost.
pub fn depth_sweep_table(scale: Scale) -> Table {
    let full = scale.txns_per_thread >= Scale::full().txns_per_thread;
    let msgs: u64 = if full { 20_000 } else { 2_000 };
    let mut table = Table::new(
        "Message cost — threads x pipeline depth, per-action dispatch vs batched (ns)",
        &[
            "threads",
            "depth",
            "lock-free",
            "batched",
            "ratio",
            "spsc lane",
        ],
    );
    for threads in [2usize, 4] {
        for depth in [1usize, 4, 16, 64] {
            let lockfree = min_of_samples(|| run_lockfree(threads, msgs, depth));
            let batched = min_of_samples(|| run_lockfree_batched(threads, msgs, depth));
            let spsc = min_of_samples(|| run_lockfree_spsc(threads, msgs, depth));
            table.row(vec![
                Cell::from(threads),
                Cell::from(depth),
                Cell::FloatPrec(lockfree, 0),
                Cell::FloatPrec(batched, 0),
                Cell::FloatPrec(batched / lockfree.max(1e-9), 3),
                Cell::FloatPrec(spsc, 0),
            ]);
        }
    }
    table
}

/// The experiment: the channel sweep plus an engine-level round-trip table
/// (the new instrumentation measuring the real worker hot path); at full
/// scale, also the threads x depth sweep for the nightly trend artifact.
pub fn fig_msgcost(scale: Scale) -> Vec<Table> {
    let points = measure_msgcost(scale);
    let full = scale.txns_per_thread >= Scale::full().txns_per_thread;
    let mut tables = vec![sweep_table(&points), engine_roundtrip_table(scale)];
    if full {
        tables.push(depth_sweep_table(scale));
    }
    tables
}

/// Engine-level view: run a short TATP burst on the partitioned design and
/// report what an action cost the session on either path, how many actions
/// ran inline, and for the messaged rest the per-message round trip, the
/// batching profile (actions per batch, SPSC lane hit rate), the queue
/// slow-path counters and the reply-pool hit rate.
fn engine_roundtrip_table(scale: Scale) -> Table {
    let mut table = Table::new(
        "Message cost — engine-level dispatch (PLP-Regular, TATP, caller-runs + batched messages)",
        &[
            "clients",
            "mean ns per action",
            "inline share",
            "messages",
            "mean round trip ns",
            "actions/batch",
            "lane hit rate",
            "queue spins/msg",
            "parks/msg",
            "wakeups/msg",
            "reply pool hit rate",
        ],
    );
    for (threads, m) in measure_engine_bursts(scale) {
        let messages = m.actions.max(1) as f64;
        table.row(vec![
            Cell::from(threads),
            Cell::FloatPrec(m.mean_action_nanos(), 0),
            Cell::FloatPrec(m.inline_share(), 4),
            Cell::from(m.actions),
            Cell::FloatPrec(m.mean_roundtrip_nanos(), 0),
            Cell::FloatPrec(m.mean_actions_per_batch(), 2),
            Cell::FloatPrec(m.lane_hit_rate(), 3),
            Cell::FloatPrec((m.enqueue_spins + m.dequeue_spins) as f64 / messages, 3),
            Cell::FloatPrec(m.parks as f64 / messages, 3),
            Cell::FloatPrec(m.wakeups as f64 / messages, 3),
            Cell::FloatPrec(m.reply_pool_hit_rate(), 3),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// JSON for the CI gate (emitted by `fig_msgcost --json`, consumed by
// `check_bench`).  Hand-rolled flat format: no serde in the offline build.
// ---------------------------------------------------------------------------

/// Render the sweep as the gate's JSON document.
pub fn msgcost_json(points: &[MsgCostPoint]) -> String {
    let body: Vec<String> = points
        .iter()
        .map(|p| {
            let mut obj = format!(
                "{{\"threads\":{},\"mutex_pingpong_ns\":{:.1},\"lockfree_pingpong_ns\":{:.1},\
                 \"mutex_pipelined_ns\":{:.1},\"lockfree_pipelined_ns\":{:.1},\
                 \"pingpong_ratio\":{:.4},\"pipelined_ratio\":{:.4}",
                p.threads,
                p.mutex_pingpong_ns,
                p.lockfree_pingpong_ns,
                p.mutex_pipelined_ns,
                p.lockfree_pipelined_ns,
                p.pingpong_ratio(),
                p.pipelined_ratio()
            );
            for (key, value) in [
                ("batched_pipelined_ns", p.batched_pipelined_ns),
                ("batched_ratio", p.batched_ratio()),
                ("spsc_pipelined_ns", p.spsc_pipelined_ns),
                ("spsc_ratio", p.spsc_ratio()),
                ("tatp_roundtrip_ns", p.tatp_roundtrip_ns),
                ("tatp_ratio", p.tatp_ratio()),
            ] {
                if let Some(v) = value {
                    obj.push_str(&format!(",\"{key}\":{v:.4}"));
                }
            }
            obj.push('}');
            obj
        })
        .collect();
    format!(
        "{{\"bench\":\"msgcost\",\"points\":[{}]}}\n",
        body.join(",")
    )
}

/// Extract `"key":<number>` from one flat JSON object.
pub(crate) fn json_number(obj: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = obj.find(&needle)? + needle.len();
    let rest = &obj[start..];
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parse a document produced by [`msgcost_json`].  Tolerates unknown extra
/// keys; rejects documents without a `points` array.
pub fn parse_msgcost_json(doc: &str) -> Result<Vec<MsgCostPoint>, String> {
    let start = doc
        .find("\"points\":[")
        .ok_or_else(|| "no \"points\" array".to_string())?
        + "\"points\":[".len();
    let end = doc[start..]
        .find(']')
        .ok_or_else(|| "unterminated points array".to_string())?
        + start;
    let mut points = Vec::new();
    for obj in doc[start..end].split('}') {
        if !obj.contains("\"threads\"") {
            continue;
        }
        let get = |key: &str| {
            json_number(obj, key).ok_or_else(|| format!("point missing numeric \"{key}\""))
        };
        points.push(MsgCostPoint {
            threads: get("threads")? as usize,
            mutex_pingpong_ns: get("mutex_pingpong_ns")?,
            lockfree_pingpong_ns: get("lockfree_pingpong_ns")?,
            mutex_pipelined_ns: get("mutex_pipelined_ns")?,
            lockfree_pipelined_ns: get("lockfree_pipelined_ns")?,
            // Added after the first committed baselines; absent in old docs.
            batched_pipelined_ns: json_number(obj, "batched_pipelined_ns"),
            spsc_pipelined_ns: json_number(obj, "spsc_pipelined_ns"),
            tatp_roundtrip_ns: json_number(obj, "tatp_roundtrip_ns"),
        });
    }
    if points.is_empty() {
        return Err("no points parsed".to_string());
    }
    Ok(points)
}

/// Compare a current run against the committed baseline.
///
/// The gated metric is the lock-free/mutex *ratio* per shape, which factors
/// out the runner's absolute speed.  A point fails when its ratio exceeds
/// the baseline's by more than `threshold` (relative, plus a small absolute
/// epsilon so near-zero baselines don't trip on noise) — but never while
/// the lock-free path is still roughly at parity with the mutex one: the
/// limit has a floor of `RATIO_FLOOR` (1.10, i.e. up to 10% past mutex
/// parity is tolerated).  The baseline is measured on whatever box
/// refreshed it last, and scheduler-dependent ratios do not transfer
/// exactly between hosts — on an oversubscribed shared CI runner a
/// transient swing can push a point a few percent past parity with no code
/// change.  Every *real* regression this gate exists for (livelock, lost
/// wakeup, an accidental lock on the hot path) pushes the ratio far past
/// the floor, so it removes cross-hardware false positives without letting
/// one through.  Points whose thread count exists on only
/// one side are reported but not gated (runners differ in core count).
/// Returns the per-point report lines, or the failing lines as the error.
pub fn check_against_baseline(
    current: &[MsgCostPoint],
    baseline: &[MsgCostPoint],
    threshold: f64,
) -> Result<Vec<String>, Vec<String>> {
    let mut report = Vec::new();
    let mut failures = Vec::new();
    let mut matched = 0;
    for base in baseline {
        let Some(cur) = current.iter().find(|p| p.threads == base.threads) else {
            report.push(format!(
                "threads={}: in baseline only (skipped)",
                base.threads
            ));
            continue;
        };
        matched += 1;
        for (shape, cur_ratio, base_ratio) in [
            ("pingpong", cur.pingpong_ratio(), base.pingpong_ratio()),
            ("pipelined", cur.pipelined_ratio(), base.pipelined_ratio()),
        ] {
            let limit = (base_ratio * (1.0 + threshold) + 0.02).max(RATIO_FLOOR);
            let line = format!(
                "threads={} {shape}: ratio {cur_ratio:.3} vs baseline {base_ratio:.3} (limit {limit:.3})",
                base.threads
            );
            if cur_ratio > limit {
                failures.push(format!("REGRESSION {line}"));
            } else {
                report.push(format!("ok {line}"));
            }
        }
        // Batched dispatch: both sides of the ratio come from the same run,
        // so a hard, baseline-free cap is enforceable on any hardware.  Only
        // gated at thread counts 2 and 4 (the committed perf criterion);
        // other points are reported for the trend artifact.
        if let Some(cur_ratio) = cur.batched_ratio() {
            let gated = matches!(base.threads, 2 | 4);
            let line = format!(
                "threads={} batched: ratio {cur_ratio:.3} vs same-run per-action dispatch (cap {BATCHED_RATIO_CAP:.2})",
                base.threads
            );
            if gated && cur_ratio > BATCHED_RATIO_CAP {
                failures.push(format!("REGRESSION {line}"));
            } else {
                report.push(format!("ok {line}"));
            }
        }
        // SPSC lane and engine-level TATP shapes: regression-gated against
        // the baseline when both sides measured them (each ratio is against
        // the same run's lock-free pipelined cost, so it transfers across
        // hosts), with shape-specific parity floors.  The engine shape also
        // carries a hard cap so a bloated committed baseline cannot keep
        // approving equally bloated runs (see [`ENGINE_RATIO_CAP`]).
        for (shape, cur_ratio, base_ratio, floor, cap) in [
            (
                "spsc",
                cur.spsc_ratio(),
                base.spsc_ratio(),
                SPSC_RATIO_FLOOR,
                f64::INFINITY,
            ),
            (
                "engine-tatp",
                cur.tatp_ratio(),
                base.tatp_ratio(),
                ENGINE_RATIO_FLOOR,
                ENGINE_RATIO_CAP,
            ),
        ] {
            let (Some(cur_ratio), Some(base_ratio)) = (cur_ratio, base_ratio) else {
                continue;
            };
            let limit = (base_ratio * (1.0 + threshold) + 0.02).max(floor).min(cap);
            let line = format!(
                "threads={} {shape}: ratio {cur_ratio:.3} vs baseline {base_ratio:.3} (limit {limit:.3})",
                base.threads
            );
            if cur_ratio > limit {
                failures.push(format!("REGRESSION {line}"));
            } else {
                report.push(format!("ok {line}"));
            }
        }
    }
    for cur in current {
        if !baseline.iter().any(|b| b.threads == cur.threads) {
            report.push(format!(
                "threads={}: in current run only (skipped)",
                cur.threads
            ));
        }
    }
    if matched == 0 {
        failures.push("no thread-count points in common with the baseline".to_string());
    }
    if failures.is_empty() {
        Ok(report)
    } else {
        failures.extend(report);
        Err(failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(threads: usize, ratio: f64) -> MsgCostPoint {
        MsgCostPoint {
            threads,
            mutex_pingpong_ns: 1000.0,
            lockfree_pingpong_ns: 1000.0 * ratio,
            mutex_pipelined_ns: 500.0,
            lockfree_pipelined_ns: 500.0 * ratio,
            batched_pipelined_ns: None,
            spsc_pipelined_ns: None,
            tatp_roundtrip_ns: None,
        }
    }

    /// A point with every optional shape populated: batched/spsc/tatp at the
    /// given ratios of its lock-free pipelined cost.
    fn full_point(threads: usize, batched: f64, spsc: f64, tatp: f64) -> MsgCostPoint {
        let mut p = point(threads, 0.8);
        p.batched_pipelined_ns = Some(p.lockfree_pipelined_ns * batched);
        p.spsc_pipelined_ns = Some(p.lockfree_pipelined_ns * spsc);
        p.tatp_roundtrip_ns = Some(p.lockfree_pipelined_ns * tatp);
        p
    }

    #[test]
    fn json_roundtrip() {
        let points = vec![point(1, 0.8), point(4, 0.5)];
        let doc = msgcost_json(&points);
        let parsed = parse_msgcost_json(&doc).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].threads, 1);
        assert!((parsed[0].pingpong_ratio() - 0.8).abs() < 1e-3);
        assert!((parsed[1].pipelined_ratio() - 0.5).abs() < 1e-3);
        assert_eq!(parsed[0].batched_pipelined_ns, None);
    }

    #[test]
    fn json_roundtrip_with_optional_shapes() {
        let points = vec![full_point(2, 0.4, 0.9, 12.0)];
        let parsed = parse_msgcost_json(&msgcost_json(&points)).unwrap();
        assert!((parsed[0].batched_ratio().unwrap() - 0.4).abs() < 1e-3);
        assert!((parsed[0].spsc_ratio().unwrap() - 0.9).abs() < 1e-3);
        assert!((parsed[0].tatp_ratio().unwrap() - 12.0).abs() < 1e-2);
    }

    #[test]
    fn gate_enforces_batched_cap_at_gated_thread_counts() {
        // Within the cap: passes even with no batched data in the baseline.
        let baseline = vec![point(2, 0.8)];
        let good = vec![full_point(2, 0.5, 0.9, 10.0)];
        assert!(check_against_baseline(&good, &baseline, 0.30).is_ok());
        // Past the cap at threads=2: fails regardless of the baseline.
        let bad = vec![full_point(2, 0.95, 0.9, 10.0)];
        let err = check_against_baseline(&bad, &baseline, 0.30).unwrap_err();
        assert!(err
            .iter()
            .any(|l| l.contains("REGRESSION") && l.contains("batched")));
        // Past the cap at an ungated thread count: reported, not failed.
        let ungated = vec![full_point(1, 0.95, 0.9, 10.0)];
        assert!(check_against_baseline(&ungated, &[point(1, 0.8)], 0.30).is_ok());
    }

    #[test]
    fn gate_checks_optional_shapes_only_when_both_sides_have_them() {
        let baseline = vec![full_point(2, 0.5, 0.8, 10.0)];
        // Old-format current run (no optional shapes): mandatory gating only.
        assert!(check_against_baseline(&[point(2, 0.8)], &baseline, 0.30).is_ok());
        // An engine-TATP blow-up past both the relative limit and the
        // floor fails...
        let blown = vec![full_point(2, 0.5, 0.8, 100.0)];
        let err = check_against_baseline(&blown, &baseline, 0.30).unwrap_err();
        assert!(err.iter().any(|l| l.contains("engine-tatp")));
        // ...while host-load jitter under the floor passes (the relative
        // limit is 10 x 1.3 = 13.02 here, just above the 12x floor).
        let jitter = vec![full_point(2, 0.5, 0.8, 12.5)];
        assert!(check_against_baseline(&jitter, &baseline, 0.30).is_ok());
        // The worker-hop-per-action regime (20x and up) fails even though
        // it is "only" 1.5x the baseline's relative limit.
        let crept = vec![full_point(2, 0.5, 0.8, 20.0)];
        let err = check_against_baseline(&crept, &baseline, 0.30).unwrap_err();
        assert!(err.iter().any(|l| l.contains("engine-tatp")));
        // The SPSC lane is floored at shared-queue parity.
        let lane_parity = vec![full_point(2, 0.5, 1.08, 10.0)];
        assert!(check_against_baseline(&lane_parity, &baseline, 0.30).is_ok());
        let lane_regressed = vec![full_point(2, 0.5, 1.4, 10.0)];
        let err = check_against_baseline(&lane_regressed, &baseline, 0.30).unwrap_err();
        assert!(err.iter().any(|l| l.contains("spsc")));
    }

    #[test]
    fn engine_gate_cap_overrides_a_bloated_baseline() {
        // A committed baseline of 80x would set a relative limit of 104x —
        // the cap clamps it to 30x, so a run "within 30% of baseline" still
        // fails when both sides are collapsed...
        let baseline = vec![full_point(2, 0.5, 0.8, 80.0)];
        let still_bloated = vec![full_point(2, 0.5, 0.8, 35.0)];
        let err = check_against_baseline(&still_bloated, &baseline, 0.30).unwrap_err();
        assert!(err.iter().any(|l| l.contains("engine-tatp")));
        // ...while a run back under the cap passes against the same
        // baseline (it improved, so the relative rule never trips).
        let recovered = vec![full_point(2, 0.5, 0.8, 28.0)];
        assert!(check_against_baseline(&recovered, &baseline, 0.30).is_ok());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_msgcost_json("{}").is_err());
        assert!(parse_msgcost_json("{\"points\":[]}").is_err());
        assert!(parse_msgcost_json("{\"points\":[{\"threads\":2}]}").is_err());
    }

    #[test]
    fn gate_passes_within_threshold() {
        let baseline = vec![point(1, 0.8), point(4, 0.6)];
        let current = vec![point(1, 0.9), point(4, 0.7)];
        assert!(check_against_baseline(&current, &baseline, 0.30).is_ok());
    }

    #[test]
    fn gate_fails_beyond_threshold() {
        let baseline = vec![point(1, 0.6)];
        let current = vec![point(1, 1.2)];
        let err = check_against_baseline(&current, &baseline, 0.30).unwrap_err();
        assert!(err.iter().any(|l| l.starts_with("REGRESSION")));
    }

    #[test]
    fn gate_floor_tolerates_hardware_variance_but_not_real_regressions() {
        // A very good committed ratio must not turn scheduler variance on a
        // different runner into a failure while lock-free still beats mutex…
        let baseline = vec![point(1, 0.2)];
        let near_mutex_parity = vec![point(1, 1.05)];
        assert!(check_against_baseline(&near_mutex_parity, &baseline, 0.30).is_ok());
        // …but a path that got clearly slower than the mutex baseline fails.
        let slower_than_mutex = vec![point(1, 1.2)];
        assert!(check_against_baseline(&slower_than_mutex, &baseline, 0.30).is_err());
    }

    #[test]
    fn gate_skips_unmatched_thread_counts_but_needs_one_match() {
        let baseline = vec![point(1, 0.8), point(8, 0.5)];
        let current = vec![point(1, 0.8), point(4, 0.8)];
        let report = check_against_baseline(&current, &baseline, 0.30).unwrap();
        // One-sided points are visible in the report on both sides.
        assert!(report
            .iter()
            .any(|l| l.contains("threads=8") && l.contains("baseline only")));
        assert!(report
            .iter()
            .any(|l| l.contains("threads=4") && l.contains("current run only")));
        let disjoint = vec![point(2, 0.8)];
        assert!(check_against_baseline(&disjoint, &baseline, 0.30).is_err());
    }

    #[test]
    fn tiny_sweep_measures_and_lockfree_works() {
        // Smoke-run the harness itself at a minuscule size.
        let p = MsgCostPoint {
            threads: 2,
            mutex_pingpong_ns: run_mutex(2, 50, 1),
            lockfree_pingpong_ns: run_lockfree(2, 50, 1),
            mutex_pipelined_ns: run_mutex(2, 100, 8),
            lockfree_pipelined_ns: run_lockfree(2, 100, 8),
            batched_pipelined_ns: Some(run_lockfree_batched(2, 100, 8)),
            spsc_pipelined_ns: Some(run_lockfree_spsc(2, 100, 8)),
            tatp_roundtrip_ns: None,
        };
        assert!(p.mutex_pingpong_ns > 0.0);
        assert!(p.lockfree_pingpong_ns > 0.0);
        assert!(p.mutex_pipelined_ns > 0.0);
        assert!(p.lockfree_pipelined_ns > 0.0);
        assert!(p.batched_pipelined_ns.unwrap() > 0.0);
        assert!(p.spsc_pipelined_ns.unwrap() > 0.0);
    }
}
