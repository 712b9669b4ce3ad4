//! Model-checked protocol tests (the `loom-model` lane).
//!
//! Each test runs a small instance of one lock-free protocol under the loom
//! shim's bounded-preemption DFS, exploring every interleaving and every
//! weak-memory visibility choice within the bounds.  These pin the exact
//! races the comment proofs in [`crate::queue`] and [`crate::channel`]
//! argue about; `docs/concurrency.md` maps protocol → invariant → test.
//!
//! Run with `cargo test -p crossbeam --features loom-model model_` (or
//! `RUSTFLAGS=--cfg plp_loom`).  Under the model cfg, `BLOCK_CAP` is 3 so
//! the segmented queue's block-boundary and reclamation paths are reachable
//! within a few operations.

use loom::sync::Arc;
use loom::thread;

use crate::channel;
use crate::queue::{Bounded, Spsc, Unbounded, BLOCK_CAP};

/// A request/ack handshake: request over one `bounded(1)` channel, ack back
/// over another.  The lap-marker livelock (a `bounded(1)` consumer and
/// producer each waiting for the other's lap marker) lived exactly here.
#[test]
fn model_bounded1_quiesce_handshake() {
    loom::model(|| {
        let (req_tx, req_rx) = channel::bounded::<u32>(1);
        let (ack_tx, ack_rx) = channel::bounded::<u32>(1);
        let worker = thread::spawn(move || {
            let r = req_rx.recv().expect("request arrives");
            ack_tx.send(r + 1).expect("ack accepted");
        });
        req_tx.send(7).expect("request accepted");
        assert_eq!(ack_rx.recv(), Ok(8));
        worker.join().unwrap();
    });
}

/// Doubled-position lap encoding on a capacity-1 Vyukov queue: two
/// producers contend for the same slot across consecutive laps; no value
/// may be lost, duplicated, or reordered within a producer.
#[test]
fn model_bounded1_lap_encoding_two_producers() {
    loom::model(|| {
        let q = Arc::new(Bounded::new(1));
        let producers: Vec<_> = [10u32, 20]
            .into_iter()
            .map(|v| {
                let q = q.clone();
                thread::spawn(move || {
                    let mut v = v;
                    if let Err(back) = q.try_push(v) {
                        // Full: the other producer won the slot; retry until
                        // the consumer frees it (next lap's marker).
                        v = back;
                        while let Err(back) = q.try_push(v) {
                            v = back;
                            thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let mut got = Vec::new();
        while got.len() < 2 {
            match q.try_pop() {
                Some(v) => got.push(v),
                None => thread::yield_now(),
            }
        }
        for p in producers {
            p.join().unwrap();
        }
        got.sort_unstable();
        assert_eq!(got, [10, 20]);
        assert!(q.try_pop().is_none());
    });
}

/// Segmented-queue block reclamation: two consumers drain a run of values
/// that crosses a block boundary, so the WRITE/READ/DESTROY handoff (the
/// destruction baton between a reader that finished last and a reader still
/// in an earlier slot) is exercised under every interleaving.
#[test]
fn model_unbounded_block_reclamation() {
    loom::model(|| {
        let q = Arc::new(Unbounded::new());
        // Crosses the first block (BLOCK_CAP = 3 under the model cfg).
        let n = (BLOCK_CAP + 1) as u32;
        for v in 0..n {
            q.push(v);
        }
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = q.clone();
                thread::spawn(move || {
                    let mut got = Vec::new();
                    for _ in 0..2 {
                        loop {
                            if let Some(v) = q.try_pop() {
                                got.push(v);
                                break;
                            }
                            thread::yield_now();
                        }
                    }
                    got
                })
            })
            .collect();
        let mut got: Vec<u32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..n).collect::<Vec<_>>());
        assert!(q.is_empty());
    });
}

/// Gate sleeper-count Dekker pairing: a receiver that parks on an empty
/// channel must be woken by a concurrent send.  A lost wakeup (the sender's
/// sleeper-count load reordered before the receiver's registration)
/// manifests as a model deadlock.
#[test]
fn model_gate_send_wakes_parked_receiver() {
    loom::model(|| {
        let (tx, rx) = channel::unbounded::<u32>();
        let sender = thread::spawn(move || {
            tx.send(42).expect("receiver alive");
        });
        assert_eq!(rx.recv(), Ok(42));
        sender.join().unwrap();
    });
}

/// Disconnect-wakes-all: dropping the last sender must wake every parked
/// receiver, under every ordering of the drop and the two parks.
#[test]
fn model_disconnect_wakes_all_receivers() {
    loom::model(|| {
        let (tx, rx) = channel::unbounded::<u32>();
        let receivers: Vec<_> = (0..2)
            .map(|_| {
                let rx = rx.clone();
                thread::spawn(move || rx.recv())
            })
            .collect();
        drop(rx);
        drop(tx);
        for r in receivers {
            assert_eq!(r.join().unwrap(), Err(channel::RecvError));
        }
    });
}

/// SPSC publication: the producer's Release stamp store must make the value
/// write visible to the consumer's Acquire load, across a lap boundary
/// (capacity 1 forces slot reuse on the second push).  A missing
/// Release/Acquire pair manifests as an uninitialized or stale read.
#[test]
fn model_spsc_publication() {
    loom::model(|| {
        let q = Arc::new(Spsc::new(1));
        let producer = {
            let q = q.clone();
            thread::spawn(move || {
                for v in [11u32, 22] {
                    let mut v = v;
                    // SAFETY: this thread is the ring's unique producer.
                    while let Err(back) = unsafe { q.try_push(v) } {
                        v = back;
                        thread::yield_now();
                    }
                }
            })
        };
        let mut got = Vec::new();
        while got.len() < 2 {
            match q.try_pop() {
                Some(v) => got.push(v),
                None => thread::yield_now(),
            }
        }
        producer.join().unwrap();
        // Single producer: FIFO, no loss, no duplication.
        assert_eq!(got, [11, 22]);
        assert!(q.try_pop().is_none());
    });
}

/// Lane-side lost-wakeup freedom: a receiver parked in `wait_any` on an
/// empty channel must be woken by a concurrent *lane* send (the gate's
/// Dekker pairing extended with the `SeqCst` fence in `Shared::lane_ready`).
/// A lost wakeup manifests as a model deadlock.
#[test]
fn model_lane_send_wakes_parked_receiver() {
    loom::model(|| {
        let (tx, rx) = channel::unbounded::<u32>();
        let lane = tx.fast_lane(1);
        let sender = thread::spawn(move || {
            lane.send(42).expect("receiver alive");
        });
        loop {
            rx.wait_any();
            if let Some(v) = rx.try_recv_lane() {
                assert_eq!(v, 42);
                break;
            }
            thread::yield_now();
        }
        sender.join().unwrap();
    });
}

/// Lane-vs-control ordering handshake: a message pushed onto a fast lane
/// *before* a main-queue (control) message from the same producer must be
/// visible to a receiver that drains lanes after popping the control
/// message.  This is the invariant the engine's shutdown drain relies on
/// when actions ride lanes while `Shutdown` stays on the MPMC queue.
#[test]
fn model_lane_vs_control_ordering() {
    loom::model(|| {
        let (tx, rx) = channel::unbounded::<u32>();
        let lane = tx.fast_lane(1);
        let sender = thread::spawn(move || {
            assert!(lane.send(1).is_ok()); // "action" on the lane
            tx.send(2).expect("receiver alive"); // "control" on the main queue
        });
        // Receive the control message from the main queue first…
        let control = loop {
            match rx.try_recv() {
                Ok(v) => break v,
                Err(_) => thread::yield_now(),
            }
        };
        assert_eq!(control, 2);
        // …then the lane message must already be there: no yield-loop — a
        // single drain pass has to find it.
        assert_eq!(rx.try_recv_lane(), Some(1));
        sender.join().unwrap();
    });
}

/// Bounded backpressure: a producer that finds the queue full parks and must
/// be woken when the consumer frees the slot (the not-full side of the
/// Gate, paired with the same Dekker argument as the not-empty side).
#[test]
fn model_bounded1_full_send_wakes() {
    loom::model(|| {
        let (tx, rx) = channel::bounded::<u32>(1);
        let producer = thread::spawn(move || {
            tx.send(1).expect("receiver alive");
            tx.send(2).expect("receiver alive"); // blocks while slot is full
        });
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        producer.join().unwrap();
    });
}
