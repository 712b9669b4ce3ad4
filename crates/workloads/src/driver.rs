//! Multi-threaded measurement driver.
//!
//! The driver creates an [`Engine`] for a (design, workload) pair, loads the
//! database, runs client threads that submit the workload's transaction mix,
//! and returns throughput plus the instrumentation deltas of the measured
//! interval — the raw material for every figure in the paper.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use plp_core::{Engine, EngineConfig, EngineError};
use plp_instrument::{LatencySnapshot, StatsSnapshot};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::Workload;

/// Result of one measured run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub design: String,
    pub workload: String,
    pub threads: usize,
    pub committed: u64,
    pub aborted: u64,
    pub elapsed: Duration,
    pub stats: StatsSnapshot,
    /// Latency histogram deltas (action round-trip, stage dispatch, WAL
    /// fsync/flush, lock wait, repartition) covering the measured interval.
    pub latency: LatencySnapshot,
}

impl RunResult {
    pub fn throughput_tps(&self) -> f64 {
        self.committed as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Critical sections per committed transaction for a category.
    pub fn cs_per_txn(&self, cat: plp_instrument::CsCategory) -> f64 {
        self.stats.cs.entries(cat) as f64 / self.committed.max(1) as f64
    }

    /// Page latches per committed transaction for a page kind.
    pub fn latches_per_txn(&self, kind: plp_instrument::PageKind) -> f64 {
        self.stats.latches.acquired(kind) as f64 / self.committed.max(1) as f64
    }

    /// Contentious (contended + unscalable) critical sections per transaction.
    pub fn contentious_cs_per_txn(&self) -> f64 {
        self.stats.cs.contentious() as f64 / self.committed.max(1) as f64
    }
}

/// Build an engine for `workload`, load the data and return it ready to run.
pub fn prepare_engine(config: EngineConfig, workload: &dyn Workload) -> Engine {
    let engine = Engine::start(config, &workload.schema());
    workload
        .load(engine.db())
        .expect("workload loading must succeed");
    engine.finish_loading();
    engine
}

/// Run `txns_per_thread` transactions on each of `threads` client threads.
pub fn run_fixed(
    engine: &Engine,
    workload: &dyn Workload,
    threads: usize,
    txns_per_thread: u64,
    seed: u64,
) -> RunResult {
    run_inner(engine, workload, threads, Some(txns_per_thread), None, seed)
}

/// Run the workload for a wall-clock duration on `threads` client threads.
pub fn run_timed(
    engine: &Engine,
    workload: &dyn Workload,
    threads: usize,
    duration: Duration,
    seed: u64,
) -> RunResult {
    run_inner(engine, workload, threads, None, Some(duration), seed)
}

fn run_inner(
    engine: &Engine,
    workload: &dyn Workload,
    threads: usize,
    txns_per_thread: Option<u64>,
    duration: Option<Duration>,
    seed: u64,
) -> RunResult {
    let threads = threads.max(1);
    let stop = AtomicBool::new(false);
    let committed = AtomicU64::new(0);
    let aborted = AtomicU64::new(0);
    let before = engine.db().stats().snapshot();
    let latency_before = engine.db().stats().latency().snapshot();
    let start = Instant::now();

    std::thread::scope(|scope| {
        let stop = &stop;
        let committed = &committed;
        let aborted = &aborted;
        for t in 0..threads {
            scope.spawn(move || {
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9E3779B9));
                let mut session = engine.session();
                let mut done = 0u64;
                loop {
                    if let Some(limit) = txns_per_thread {
                        if done >= limit {
                            break;
                        }
                    }
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let plan = workload.next_transaction(&mut rng);
                    match session.execute(plan) {
                        Ok(_) => {
                            committed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) if e.is_abort() => {
                            aborted.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(EngineError::Shutdown) => break,
                        Err(e) => panic!("engine error during run: {e}"),
                    }
                    done += 1;
                }
            });
        }
        if let Some(d) = duration {
            scope.spawn(move || {
                std::thread::sleep(d);
                stop.store(true, Ordering::Relaxed);
            });
        }
    });

    let elapsed = start.elapsed();
    let after = engine.db().stats().snapshot();
    let latency_after = engine.db().stats().latency().snapshot();
    RunResult {
        design: engine.design().name().to_string(),
        workload: workload.name().to_string(),
        threads,
        committed: committed.load(Ordering::Relaxed),
        aborted: aborted.load(Ordering::Relaxed),
        elapsed,
        stats: after.delta(&before),
        latency: latency_after.delta(&latency_before),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tatp::Tatp;
    use plp_core::Design;

    #[test]
    fn fixed_run_commits_transactions() {
        let tatp = Tatp::new(200);
        let engine = prepare_engine(
            EngineConfig::new(Design::Conventional { sli: true }).with_partitions(2),
            &tatp,
        );
        let result = run_fixed(&engine, &tatp, 2, 50, 42);
        assert!(result.committed >= 90, "committed = {}", result.committed);
        assert!(result.throughput_tps() > 0.0);
        assert!(result.cs_per_txn(plp_instrument::CsCategory::LockMgr) > 0.0);
    }
}
