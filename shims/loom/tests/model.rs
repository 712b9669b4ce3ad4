//! Tests of the model checker itself: positive checks that correct
//! protocols pass, and seeded-bug negatives that MUST fail so the checker
//! cannot silently rot into a no-op (ISSUE 6 satellite).

use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::{Arc, Condvar, Mutex};
use loom::{explore, Config};

fn unpoison<T>(r: std::sync::LockResult<T>) -> T {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Positive: correct programs explore cleanly
// ---------------------------------------------------------------------------

#[test]
fn concurrent_fetch_add_sums() {
    loom::model(|| {
        let n = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let n = n.clone();
                loom::thread::spawn(move || {
                    n.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(n.load(Ordering::Relaxed), 2);
    });
}

#[test]
fn mutex_provides_mutual_exclusion() {
    loom::model(|| {
        let m = Arc::new(Mutex::new(0u32));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let m = m.clone();
                loom::thread::spawn(move || {
                    let mut g = unpoison(m.lock());
                    let read = *g;
                    *g = read + 1;
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*unpoison(m.lock()), 2);
    });
}

/// `try_lock` is a schedule point with both outcomes reachable: some
/// execution sees the lock held and backs off, none ever sees two holders.
#[test]
fn try_lock_explores_both_outcomes_and_excludes() {
    static BACKED_OFF: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
    loom::model(|| {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = m.clone();
        let holder = loom::thread::spawn(move || {
            let mut g = unpoison(m2.lock());
            let read = *g;
            loom::thread::yield_now();
            *g = read + 1;
        });
        let took = match m.try_lock() {
            Ok(mut g) => {
                let read = *g;
                loom::thread::yield_now();
                *g = read + 1;
                1
            }
            Err(_) => {
                BACKED_OFF.store(true, std::sync::atomic::Ordering::Relaxed);
                0
            }
        };
        holder.join().unwrap();
        assert_eq!(*unpoison(m.lock()), 1 + took);
    });
    assert!(
        BACKED_OFF.load(std::sync::atomic::Ordering::Relaxed),
        "no explored execution found the lock held"
    );
}

#[test]
fn release_acquire_publication_is_clean() {
    loom::model(|| {
        let data = Arc::new(AtomicUsize::new(0));
        let flag = Arc::new(AtomicUsize::new(0));
        let (d2, f2) = (data.clone(), flag.clone());
        let t = loom::thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            f2.store(1, Ordering::Release);
        });
        if flag.load(Ordering::Acquire) == 1 {
            // The Release/Acquire pair publishes the data store.
            assert_eq!(data.load(Ordering::Relaxed), 42);
        }
        t.join().unwrap();
    });
}

#[test]
fn seqcst_store_buffering_is_forbidden() {
    // Dekker core: with SeqCst both threads cannot read 0 — the pattern the
    // crossbeam Gate relies on.
    loom::model(|| {
        let x = Arc::new(AtomicUsize::new(0));
        let y = Arc::new(AtomicUsize::new(0));
        let (x2, y2) = (x.clone(), y.clone());
        let t = loom::thread::spawn(move || {
            x2.store(1, Ordering::SeqCst);
            y2.load(Ordering::SeqCst)
        });
        y.store(1, Ordering::SeqCst);
        let r_main = x.load(Ordering::SeqCst);
        let r_child = t.join().unwrap();
        assert!(
            r_main == 1 || r_child == 1,
            "both critical-section guards saw 0"
        );
    });
}

#[test]
fn condvar_handoff_completes() {
    loom::model(|| {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let t = loom::thread::spawn(move || {
            let (m, cv) = &*p2;
            *unpoison(m.lock()) = true;
            cv.notify_one();
        });
        let (m, cv) = &*pair;
        let mut g = unpoison(m.lock());
        while !*g {
            g = unpoison(cv.wait(g));
        }
        drop(g);
        t.join().unwrap();
    });
}

#[test]
fn park_unpark_token_is_not_lost() {
    loom::model(|| {
        let flag = Arc::new(AtomicUsize::new(0));
        let f2 = flag.clone();
        let me = loom::thread::current();
        let t = loom::thread::spawn(move || {
            f2.store(1, Ordering::Release);
            me.unpark();
        });
        // Even if the unpark lands before the park, the token makes park
        // return; the loop tolerates the no-token-yet case.
        while flag.load(Ordering::Acquire) == 0 {
            loom::thread::park();
        }
        t.join().unwrap();
    });
}

#[test]
fn spin_with_yield_converges() {
    loom::model(|| {
        let flag = Arc::new(AtomicUsize::new(0));
        let f2 = flag.clone();
        let t = loom::thread::spawn(move || {
            f2.store(1, Ordering::Release);
        });
        // Unbounded spin loop: only terminates under DFS because yielded
        // threads are descheduled until every peer has run.
        while flag.load(Ordering::Acquire) == 0 {
            loom::thread::yield_now();
        }
        t.join().unwrap();
    });
}

#[test]
fn exploration_is_deterministic() {
    fn run() -> loom::Stats {
        explore(Config::default(), || {
            let n = Arc::new(AtomicUsize::new(0));
            let handles: Vec<_> = (0..2)
                .map(|i| {
                    let n = n.clone();
                    loom::thread::spawn(move || {
                        n.fetch_add(i + 1, Ordering::SeqCst);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(n.load(Ordering::SeqCst), 3);
        })
        .expect("model is correct")
    }
    let a = run();
    let b = run();
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.choice_points, b.choice_points);
    assert!(a.iterations > 1, "exploration should branch on schedules");
}

// ---------------------------------------------------------------------------
// Seeded bugs: the checker MUST catch these
// ---------------------------------------------------------------------------

#[test]
fn seeded_relaxed_publish_bug_is_caught() {
    // Publication with a Relaxed flag store: a reader that observes the flag
    // may still read the pre-publication data value.
    let report = explore(Config::default(), || {
        let data = Arc::new(AtomicUsize::new(0));
        let flag = Arc::new(AtomicUsize::new(0));
        let (d2, f2) = (data.clone(), flag.clone());
        let t = loom::thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            f2.store(1, Ordering::Relaxed); // BUG: must be Release
        });
        if flag.load(Ordering::Acquire) == 1 {
            assert_eq!(data.load(Ordering::Relaxed), 42);
        }
        t.join().unwrap();
    })
    .expect_err("checker must catch the Relaxed publication");
    assert!(report.contains("failing execution"), "report: {report}");
}

#[test]
fn seeded_relaxed_store_buffering_is_caught() {
    // Dekker with Relaxed stores: both threads can read 0.
    let report = explore(Config::default(), || {
        let x = Arc::new(AtomicUsize::new(0));
        let y = Arc::new(AtomicUsize::new(0));
        let (x2, y2) = (x.clone(), y.clone());
        let t = loom::thread::spawn(move || {
            x2.store(1, Ordering::Relaxed); // BUG: Dekker needs SeqCst
            y2.load(Ordering::Relaxed)
        });
        y.store(1, Ordering::Relaxed);
        let r_main = x.load(Ordering::Relaxed);
        let r_child = t.join().unwrap();
        assert!(r_main == 1 || r_child == 1);
    })
    .expect_err("checker must catch Relaxed store buffering");
    assert!(report.contains("failing execution"), "report: {report}");
}

#[test]
fn seeded_lost_wakeup_is_caught() {
    // The flag is set and the condvar notified WITHOUT holding the mutex the
    // waiter checks under: the notify can land between the waiter's check
    // and its wait, and is then lost — a deadlock under the model.
    let report = explore(Config::default(), || {
        let flag = Arc::new(AtomicUsize::new(0));
        let pair = Arc::new((Mutex::new(()), Condvar::new()));
        let (f2, p2) = (flag.clone(), pair.clone());
        let t = loom::thread::spawn(move || {
            f2.store(1, Ordering::SeqCst);
            p2.1.notify_one(); // BUG: not synchronized with the wait
        });
        let (m, cv) = &*pair;
        let mut g = unpoison(m.lock());
        while flag.load(Ordering::SeqCst) == 0 {
            g = unpoison(cv.wait(g));
        }
        drop(g);
        t.join().unwrap();
    })
    .expect_err("checker must catch the lost wakeup");
    assert!(report.contains("deadlock"), "report: {report}");
}

#[test]
fn seeded_livelock_hits_step_cap() {
    let cfg = Config {
        max_steps: 200,
        ..Config::default()
    };
    let report = explore(cfg, || {
        let stuck = Arc::new(AtomicUsize::new(0));
        // Nobody ever sets the flag: the spin loop never exits.
        while stuck.load(Ordering::Acquire) == 0 {
            loom::thread::yield_now();
        }
    })
    .expect_err("checker must flag the livelock");
    assert!(report.contains("livelock"), "report: {report}");
}

#[test]
fn seeded_double_lock_is_caught() {
    let report = explore(Config::default(), || {
        let m = Mutex::new(());
        let _g = unpoison(m.lock());
        let _g2 = m.lock(); // BUG: self-deadlock
    })
    .expect_err("checker must catch the relock");
    assert!(report.contains("relocked"), "report: {report}");
}
