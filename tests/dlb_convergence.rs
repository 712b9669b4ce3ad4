//! Convergence of the dynamic load balancer under a shifting hotspot.
//!
//! A skewed workload concentrates 90% of its traffic on 5% of the key space;
//! mid-run the hot range jumps to a different part of the key space.  The
//! controller must (a) notice, (b) repartition so the hot range is spread
//! over more than one worker, and (c) never panic a worker while doing so —
//! controller-triggered repartitions race with live client threads here,
//! which is exactly what the ticket drain and the partition claims have to
//! make safe.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use plp_core::{Design, DlbConfig, EngineConfig, TableId};
use plp_workloads::driver::prepare_engine;
use plp_workloads::micro::SkewedProbe;
use plp_workloads::skew::SkewKind;
use plp_workloads::Workload;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const SUBSCRIBER: TableId = TableId(0);

/// How many partitions own a slice of `[hot_lo, hot_hi)`.
fn hot_range_spread(bounds: &[u64], hot_lo: u64, hot_hi: u64) -> usize {
    (0..bounds.len())
        .filter(|&i| {
            let lo = bounds[i];
            let hi = bounds.get(i + 1).copied().unwrap_or(u64::MAX);
            lo < hot_hi && hi > hot_lo
        })
        .count()
}

#[test]
fn shifting_hotspot_converges_without_panics() {
    let subscribers = 8_000u64;
    let partitions = 4usize;
    let workload = SkewedProbe::new(
        subscribers,
        SkewKind::HotSpot {
            fraction: 0.05,
            probability: 0.9,
        },
    );
    let mut dlb = DlbConfig::aggressive();
    // Tight intervals so the test converges in a couple hundred ms per phase.
    dlb.aging_interval = Duration::from_millis(10);
    dlb.min_repartition_gap = Duration::from_millis(40);
    dlb.min_samples = 64;
    let config = EngineConfig::new(Design::PlpRegular)
        .with_partitions(partitions)
        .with_dlb(dlb);
    let engine = prepare_engine(config, &workload);

    let stop = AtomicBool::new(false);
    let executed = AtomicU64::new(0);
    let shift_target = subscribers * 5 / 8;

    std::thread::scope(|scope| {
        let engine = &engine;
        let workload = &workload;
        let stop = &stop;
        let executed = &executed;
        for t in 0..partitions {
            scope.spawn(move || {
                let mut rng = ChaCha8Rng::seed_from_u64(0xD1B + t as u64);
                let mut session = engine.session();
                while !stop.load(Ordering::Relaxed) {
                    let plan = workload.next_transaction(&mut rng);
                    // Any non-abort error (dead worker, shutdown) fails the
                    // test via panic in this thread.
                    match session.execute(plan) {
                        Ok(_) => {
                            executed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) if e.is_abort() => {}
                        Err(e) => panic!("engine error during DLB convergence: {e}"),
                    }
                }
            });
        }
        scope.spawn(move || {
            let pm = engine.partition_manager().unwrap();
            let stats = || engine.db().stats().snapshot().dlb;
            // Poll until the controller has repartitioned at least
            // `min_repartitions` times *and* the current hot range is owned
            // by at least two workers.
            let converged = |min_repartitions: u64| -> bool {
                let s = stats();
                let (lo, hi) = workload.keys().hot_range();
                s.repartitions_triggered >= min_repartitions
                    && hot_range_spread(&pm.bounds(SUBSCRIBER), lo, hi) >= 2
            };
            let wait_for = |min_repartitions: u64| {
                let deadline = Instant::now() + Duration::from_secs(30);
                while !converged(min_repartitions) && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(20));
                }
            };

            // Phase 1: the controller adapts to the initial hotspot (it sits
            // inside worker 0's uniform slice).  On failure, stop the client
            // threads *before* panicking or the scope never joins.
            wait_for(1);
            let phase1 = stats();
            let (lo, hi) = workload.keys().hot_range();
            if !converged(1) {
                stop.store(true, Ordering::Relaxed);
                panic!(
                    "controller never spread the initial hot range [{lo}, {hi}): \
                     {:?} after {phase1:?}",
                    pm.bounds(SUBSCRIBER)
                );
            }

            // Phase 2: relocate the hotspot; the controller must chase it.
            let before_shift = phase1.repartitions_triggered;
            workload.shift_to(shift_target);
            wait_for(before_shift + 1);
            stop.store(true, Ordering::Relaxed);

            let final_stats = stats();
            let (lo, hi) = workload.keys().hot_range();
            assert!(
                converged(before_shift + 1),
                "controller never spread the moved hot range [{lo}, {hi}): \
                 {:?} after {final_stats:?}",
                pm.bounds(SUBSCRIBER)
            );
            assert_eq!(
                final_stats.repartitions_failed, 0,
                "no controller repartition may fail: {final_stats:?}"
            );
        });
    });

    assert!(
        executed.load(Ordering::Relaxed) > 1_000,
        "clients must have made progress throughout"
    );
    // The evaluation loop ran and recorded its imbalance observations.
    let dlb = engine.db().stats().snapshot().dlb;
    assert!(dlb.evaluations > 0);
    assert!(dlb.decay_rounds > 0);
    assert!(dlb.observed_imbalance >= 0.0);
}

#[test]
fn dlb_off_leaves_partitioning_alone() {
    let workload = SkewedProbe::new(
        2_000,
        SkewKind::HotSpot {
            fraction: 0.05,
            probability: 0.9,
        },
    );
    let config = EngineConfig::new(Design::PlpRegular).with_partitions(2);
    let engine = prepare_engine(config, &workload);
    let before = engine.partition_manager().unwrap().bounds(SUBSCRIBER);

    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let mut session = engine.session();
    for _ in 0..2_000 {
        let _ = session.execute(workload.next_transaction(&mut rng));
    }
    std::thread::sleep(Duration::from_millis(120));

    let stats = engine.db().stats().snapshot().dlb;
    assert_eq!(stats.repartitions_triggered, 0);
    assert_eq!(stats.evaluations, 0, "no controller thread when disabled");
    assert_eq!(
        engine.partition_manager().unwrap().bounds(SUBSCRIBER),
        before
    );
    assert!(engine.dlb().is_none());
}
