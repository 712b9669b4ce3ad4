//! Channel semantics pinned for BOTH implementations: the lock-free queues
//! (`crossbeam::channel`) and the retained mutex+condvar baseline
//! (`crossbeam::channel::mutex_baseline`).  The baseline doubles as a
//! correctness oracle: any behavioral divergence fails here, not in the
//! engine.
//!
//! Covered: multi-producer/multi-consumer no-loss/no-duplication, per-sender
//! FIFO, disconnects waking *all* blocked peers (both directions), and
//! `recv_timeout` behaviour under spurious wakeups (losing a wakeup race
//! must not turn into an early timeout or a hang).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

macro_rules! channel_semantics {
    ($module:ident, $chan:path) => {
        mod $module {
            use super::*;
            use $chan as chan;

            #[test]
            fn mpmc_unbounded_no_loss_no_duplication() {
                mpmc_transfer(chan::unbounded::<u64>(), 4, 3, 5_000);
            }

            #[test]
            fn mpmc_bounded_no_loss_no_duplication() {
                // A tiny capacity forces constant full/empty transitions —
                // the hardest case for the wakeup protocol.
                mpmc_transfer(chan::bounded::<u64>(4), 4, 3, 3_000);
            }

            fn mpmc_transfer(
                (tx, rx): (chan::Sender<u64>, chan::Receiver<u64>),
                producers: u64,
                consumers: usize,
                per_producer: u64,
            ) {
                let received = Arc::new(AtomicU64::new(0));
                let total = producers * per_producer;
                let mut counts: HashMap<u64, u64> = HashMap::new();
                std::thread::scope(|scope| {
                    let mut consumer_handles = Vec::new();
                    for _ in 0..consumers {
                        let rx = rx.clone();
                        let received = received.clone();
                        consumer_handles.push(scope.spawn(move || {
                            let mut got = Vec::new();
                            while let Ok(v) = rx.recv() {
                                got.push(v);
                                received.fetch_add(1, Ordering::Relaxed);
                            }
                            got
                        }));
                    }
                    drop(rx);
                    for p in 0..producers {
                        let tx = tx.clone();
                        scope.spawn(move || {
                            for i in 0..per_producer {
                                tx.send(p * per_producer + i).unwrap();
                            }
                        });
                    }
                    drop(tx);
                    for handle in consumer_handles {
                        for v in handle.join().unwrap() {
                            *counts.entry(v).or_default() += 1;
                        }
                    }
                });
                assert_eq!(received.load(Ordering::Relaxed), total, "message lost");
                assert_eq!(counts.len() as u64, total, "message missing");
                assert!(
                    counts.values().all(|&c| c == 1),
                    "message duplicated: {:?}",
                    counts
                        .iter()
                        .filter(|(_, &c)| c != 1)
                        .take(5)
                        .collect::<Vec<_>>()
                );
            }

            #[test]
            fn per_sender_fifo_with_single_consumer() {
                let (tx, rx) = chan::unbounded::<(u64, u64)>();
                let producers = 4u64;
                let per_producer = 5_000u64;
                std::thread::scope(|scope| {
                    for p in 0..producers {
                        let tx = tx.clone();
                        scope.spawn(move || {
                            for i in 0..per_producer {
                                tx.send((p, i)).unwrap();
                            }
                        });
                    }
                    drop(tx);
                    let mut next: HashMap<u64, u64> = HashMap::new();
                    while let Ok((p, i)) = rx.recv() {
                        let expected = next.entry(p).or_insert(0);
                        assert_eq!(i, *expected, "producer {p} reordered");
                        *expected += 1;
                    }
                    for p in 0..producers {
                        assert_eq!(next[&p], per_producer);
                    }
                });
            }

            #[test]
            fn control_messages_stay_fifo_behind_work() {
                // The engine's shutdown message rides the same queue as
                // actions and must never overtake them.
                let (tx, rx) = chan::unbounded::<&'static str>();
                for _ in 0..100 {
                    tx.send("work").unwrap();
                }
                tx.send("control").unwrap();
                let mut seen_work = 0;
                loop {
                    match rx.recv().unwrap() {
                        "work" => seen_work += 1,
                        "control" => break,
                        _ => unreachable!(),
                    }
                }
                assert_eq!(seen_work, 100, "control overtook queued work");
            }

            #[test]
            fn dropping_last_sender_wakes_all_blocked_receivers() {
                let (tx, rx) = chan::unbounded::<u64>();
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..3)
                        .map(|_| {
                            let rx = rx.clone();
                            scope.spawn(move || rx.recv())
                        })
                        .collect();
                    // Let all three reach the blocking path.
                    std::thread::sleep(Duration::from_millis(50));
                    drop(tx);
                    for h in handles {
                        assert!(h.join().unwrap().is_err(), "receiver missed the disconnect");
                    }
                });
            }

            #[test]
            fn dropping_last_receiver_wakes_all_blocked_senders() {
                let (tx, rx) = chan::bounded::<u64>(1);
                tx.send(0).unwrap();
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..3)
                        .map(|i| {
                            let tx = tx.clone();
                            scope.spawn(move || tx.send(i))
                        })
                        .collect();
                    std::thread::sleep(Duration::from_millis(50));
                    drop(rx);
                    for h in handles {
                        assert!(h.join().unwrap().is_err(), "sender missed the disconnect");
                    }
                });
            }

            #[test]
            fn recv_timeout_survives_spurious_wakeups() {
                // Four receivers wait on one channel; a single message wakes
                // (at least) one of them.  The losers' wakeups are exactly
                // the spurious case: they must go back to waiting and time
                // out no earlier than their deadline, without hanging.
                let (tx, rx) = chan::unbounded::<u64>();
                let timeout = Duration::from_millis(300);
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..4)
                        .map(|_| {
                            let rx = rx.clone();
                            scope.spawn(move || {
                                let start = Instant::now();
                                (rx.recv_timeout(timeout), start.elapsed())
                            })
                        })
                        .collect();
                    std::thread::sleep(Duration::from_millis(50));
                    tx.send(7).unwrap();
                    let mut winners = 0;
                    let mut losers = 0;
                    for h in handles {
                        match h.join().unwrap() {
                            (Ok(7), _) => winners += 1,
                            (Ok(other), _) => panic!("impossible message {other}"),
                            (Err(_), elapsed) => {
                                losers += 1;
                                assert!(
                                    elapsed >= timeout,
                                    "timed out early after a spurious wakeup: {elapsed:?}"
                                );
                            }
                        }
                    }
                    assert_eq!(winners, 1);
                    assert_eq!(losers, 3);
                });
            }

            #[test]
            fn recv_timeout_delivers_late_message_within_deadline() {
                let (tx, rx) = chan::unbounded::<u64>();
                let h = std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(40));
                    tx.send(1).unwrap();
                });
                assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(1));
                h.join().unwrap();
            }
        }
    };
}

channel_semantics!(lockfree, crossbeam::channel);
channel_semantics!(mutex_baseline, crossbeam::channel::mutex_baseline);
