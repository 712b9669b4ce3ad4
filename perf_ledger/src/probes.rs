//! Isolated probes: one thread calling each crate's public functions with
//! inputs from the reference stream, timed from outside.
//!
//! A probe is the median over [`ProbePlan::reps`] repetitions of the mean
//! time per call.  Calls that take under a microsecond run
//! [`ProbePlan::calls`] times per repetition; slower ones (an engine round
//! trip, a batch append, an fsync) run proportionally fewer so a repetition
//! stays a fraction of a second.  These are costs with nothing else
//! contending: they bound what a faster layer can save, they do not add up
//! to a loaded round trip.

use std::hint::black_box;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use plp_btree::{MrbTree, MAX_NODE_ENTRIES};
use plp_client::Connection;
use plp_core::{Design, EngineConfig, Op, Request, Response};
use plp_instrument::{Histogram, StatsRegistry};
use plp_lock::{LocalLockTable, LockId, LockManager, LockMode};
use plp_server::frame::{read_frame, Frame, ReadOutcome};
use plp_server::{Server, ServerConfig};
use plp_storage::{Access, BufferPool, HeapFile, OwnerToken, PlacementHint, PlacementPolicy, Rid};
use plp_txn::TxnManager;
use plp_wal::{DurabilityMode, InsertProtocol, LogDevice, LogManager, LogRecord, LogRecordKind};
use plp_workloads::tatp::{call_forwarding_key, sub_fields, Tatp};

use crate::run::{loaded_engine, obs_addr, PARTITIONS, REQUEST_TIMEOUT, SUBSCRIBERS};
use crate::scrape::http_get;
use crate::stats::{mean, median};
use crate::stream::{Rng, Stream};

#[derive(Debug, Clone)]
pub struct ProbePlan {
    pub seed: u64,
    /// Calls per repetition for sub-microsecond probes.
    pub calls: usize,
    pub reps: usize,
    /// Where the WAL probes put their log directory.
    pub out_dir: PathBuf,
}

impl ProbePlan {
    /// Calls per repetition for a probe about `cost_ratio` times slower
    /// than the cheap ones; at least 20 so a mean is still a mean.
    fn calls_for(&self, cost_ratio: usize) -> usize {
        (self.calls / cost_ratio).max(20)
    }
}

/// Median over the repetitions of `one_rep`'s nanoseconds per call.
fn median_of_reps(reps: usize, mut one_rep: impl FnMut() -> f64) -> f64 {
    let per_call: Vec<f64> = (0..reps.max(1)).map(|_| one_rep()).collect();
    median(&per_call)
}

/// Time `f(0..calls)`; nanoseconds per call.
fn timed_calls(calls: usize, reps: usize, mut f: impl FnMut(usize)) -> f64 {
    median_of_reps(reps, || {
        let started = Instant::now();
        for i in 0..calls {
            f(i);
        }
        started.elapsed().as_nanos() as f64 / calls as f64
    })
}

/// Time `f` consuming each of `make()`'s items (built outside the timer,
/// so cloning an input is not charged to the layer); nanoseconds per item.
fn timed_items<T>(reps: usize, mut make: impl FnMut() -> Vec<T>, mut f: impl FnMut(T)) -> f64 {
    median_of_reps(reps, || {
        let items = make();
        let n = items.len();
        let started = Instant::now();
        for item in items {
            f(item);
        }
        started.elapsed().as_nanos() as f64 / n as f64
    })
}

/// `n` requests cycled from `ops`.
fn requests_from(ops: &[Op], n: usize) -> Vec<Request> {
    ops.iter()
        .cycle()
        .take(n)
        .cloned()
        .map(Request::single)
        .collect()
}

fn response_frame(id: u64, response: &Response) -> Frame {
    match response {
        Response::Ok(outputs) => Frame::response_ok(id, outputs),
        Response::Err { code, message } => Frame::response_err(id, *code, message),
    }
}

fn decode(bytes: &[u8]) -> Frame {
    match read_frame(&mut &bytes[..]) {
        Ok(ReadOutcome::Frame(frame)) => frame,
        other => panic!("a frame this program encoded does not decode: {other:?}"),
    }
}

/// Run every probe; `(per-layer name, value)` in the metric's own unit.
pub fn run_probes(plan: &ProbePlan) -> io::Result<Vec<(&'static str, f64)>> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let (calls, reps) = (plan.calls, plan.reps);
    let mut stream = Stream::new(plan.seed, 0, 1, SUBSCRIBERS);
    let ops: Vec<Op> = (0..calls.min(20_000)).map(|_| stream.next_op()).collect();
    let op_at = |i: usize| &ops[i % ops.len()];

    out.push((
        "loadgen.gen_op_ns",
        timed_calls(calls, reps, |_| {
            black_box(stream.next_op());
        }),
    ));

    // ---- plp-core, and the unloaded accounting of the wire tax ----------
    let config = |design| EngineConfig::new(design).with_partitions(PARTITIONS);
    let (partitioned, _) =
        loaded_engine(config(Design::PlpRegular).with_obs_endpoint("127.0.0.1:0"))?;
    let router = partitioned
        .partition_manager()
        .expect("a partitioned design routes");
    out.push((
        "core.route_ns",
        timed_calls(calls, reps, |i| {
            let op = op_at(i);
            black_box(router.route(op.table(), op.routing_key()));
        }),
    ));
    // One pass over the stream also yields real responses for the codec
    // probes below.
    let mut session = partitioned.session();
    let responses: Vec<Response> = ops
        .iter()
        .map(|op| session.run(Request::single(op.clone())))
        .collect();
    let run_partitioned_ns = timed_items(
        reps,
        || requests_from(&ops, plan.calls_for(40)),
        |request| {
            black_box(session.run(request));
        },
    );
    drop(session);

    let mut server = Server::serve(Arc::clone(&partitioned), ServerConfig::default())?;
    let mut conn = Connection::connect(server.addr())?;
    conn.stream().set_read_timeout(Some(REQUEST_TIMEOUT))?;
    let mut wire_error = None;
    let rtt_ns = timed_calls(plan.calls_for(80), reps, |i| {
        if let Err(e) = conn.call(op_at(i)) {
            wire_error.get_or_insert(e);
        }
    });
    if let Some(e) = wire_error {
        return Err(e);
    }
    drop(conn);
    server.stop();

    let obs_addr = obs_addr(&partitioned)?;
    let mut scrape_error = None;
    let scrape_ns = timed_calls(5, reps, |_| match http_get(obs_addr, "/metrics") {
        Ok(body) => {
            black_box(body);
        }
        Err(e) => {
            scrape_error.get_or_insert(e);
        }
    });
    if let Some(e) = scrape_error {
        return Err(e);
    }
    drop(partitioned);

    let (conventional, _) = loaded_engine(config(Design::Conventional { sli: false }))?;
    let mut session = conventional.session();
    let run_conventional_ns = timed_items(
        reps,
        || requests_from(&ops, plan.calls_for(8)),
        |request| {
            black_box(session.run(request));
        },
    );
    drop(session);
    drop(conventional);

    // ---- plp-server: the frame codec --------------------------------------
    let request_frames: Vec<Vec<u8>> = ops
        .iter()
        .enumerate()
        .map(|(i, op)| Frame::request(i as u64, op).encode())
        .collect();
    let response_frames: Vec<Vec<u8>> = responses
        .iter()
        .enumerate()
        .map(|(i, r)| response_frame(i as u64, r).encode())
        .collect();
    let encode_request_ns = timed_calls(calls, reps, |i| {
        black_box(Frame::request(i as u64, op_at(i)).encode());
    });
    let decode_request_ns = timed_calls(calls, reps, |i| {
        let frame = decode(&request_frames[i % request_frames.len()]);
        black_box(frame.to_op().expect("a request frame"));
    });
    let encode_response_ns = timed_calls(calls, reps, |i| {
        black_box(response_frame(i as u64, &responses[i % responses.len()]).encode());
    });
    let decode_response_ns = timed_calls(calls, reps, |i| {
        let frame = decode(&response_frames[i % response_frames.len()]);
        black_box(frame.to_response().expect("a response frame"));
    });
    let codec_us =
        (encode_request_ns + decode_request_ns + encode_response_ns + decode_response_ns) / 1e3;
    let wire_tax_us = (rtt_ns - run_partitioned_ns) / 1e3;
    let unattributed_us = wire_tax_us - codec_us;
    out.extend([
        ("server.frame_encode_request_ns", encode_request_ns),
        ("server.frame_decode_request_ns", decode_request_ns),
        ("server.frame_encode_response_ns", encode_response_ns),
        ("server.frame_decode_response_ns", decode_response_ns),
        (
            "server.request_frame_bytes",
            mean(request_frames.iter().map(|f| f.len() as f64)),
        ),
        (
            "server.response_frame_bytes",
            mean(response_frames.iter().map(|f| f.len() as f64)),
        ),
        ("server.unloaded_rtt_us", rtt_ns / 1e3),
        ("server.wire_tax_us", wire_tax_us),
        ("server.unattributed_us", unattributed_us),
        ("server.unattributed_share", unattributed_us / wire_tax_us),
        ("core.run_unloaded_partitioned_us", run_partitioned_ns / 1e3),
        (
            "core.run_unloaded_conventional_us",
            run_conventional_ns / 1e3,
        ),
        (
            "core.dispatch_hop_us",
            (run_partitioned_ns - run_conventional_ns) / 1e3,
        ),
        ("instrument.metrics_scrape_ms", scrape_ns / 1e6),
    ]);

    lock_probes(plan, &mut out);
    btree_probes(plan, &mut out);
    storage_probes(plan, &mut out);
    wal_and_txn_probes(plan, &mut out)?;

    let histogram = Histogram::new();
    out.push((
        "instrument.histogram_record_ns",
        timed_calls(calls, reps, |i| histogram.record(black_box(i as u64 * 37))),
    ));
    Ok(out)
}

fn lock_probes(plan: &ProbePlan, out: &mut Vec<(&'static str, f64)>) {
    let central = LockManager::new(StatsRegistry::new_shared());
    let mut local = LocalLockTable::new();
    let mut rng = Rng::new(plan.seed);
    let keys: Vec<u64> = (0..plan.calls).map(|_| rng.below(SUBSCRIBERS)).collect();
    out.push((
        "lock.local_acquire_release_ns",
        timed_calls(plan.calls, plan.reps, |i| {
            black_box(local.acquire(1, LockId::Key(0, keys[i]), LockMode::X));
            local.release_all(1);
        }),
    ));
    out.push((
        "lock.central_acquire_release_ns",
        timed_calls(plan.calls, plan.reps, |i| {
            let id = LockId::Key(0, keys[i]);
            central
                .acquire_hierarchical(1, id, LockMode::X, None)
                .expect("an uncontended lock is granted");
            central.release_all(1, &[id, LockId::Table(0), LockId::Database]);
        }),
    ));
}

fn btree_probes(plan: &ProbePlan, out: &mut Vec<(&'static str, f64)>) {
    let (calls, reps) = (plan.calls, plan.reps);
    let pool = BufferPool::new_shared(StatsRegistry::new_shared());
    let token = OwnerToken(1);
    // Shaped like TATP's access-info index: dense, four rows a subscriber.
    let keys = SUBSCRIBERS * 4;
    let dense = MrbTree::create_uniform(pool.clone(), MAX_NODE_ENTRIES, PARTITIONS, keys);
    for k in 0..keys {
        dense.insert(k, k, Access::Latched).expect("load index");
    }
    // Shaped like the call-forwarding index: three rows for every other
    // subscriber, in units of 32 keys.
    let sparse = MrbTree::create_uniform(pool, MAX_NODE_ENTRIES, PARTITIONS, SUBSCRIBERS * 32);
    for s_id in (0..SUBSCRIBERS).step_by(2) {
        for start in [0, 8, 16] {
            let k = call_forwarding_key(s_id, 0, start);
            sparse.insert(k, k, Access::Latched).expect("load index");
        }
    }
    let mut rng = Rng::new(plan.seed ^ 0xB7EE);
    let probes: Vec<u64> = (0..calls).map(|_| rng.below(keys)).collect();

    out.push((
        "btree.probe_latched_ns",
        timed_calls(calls, reps, |i| {
            black_box(dense.probe(probes[i], Access::Latched).expect("probe"));
        }),
    ));
    for tree in [&dense, &sparse] {
        for partition in 0..tree.partition_count() {
            tree.assign_partition_owner(partition as u32, token);
        }
    }
    let owned = Access::Owned(token);
    out.push((
        "btree.probe_owned_ns",
        timed_calls(calls, reps, |i| {
            black_box(dense.probe(probes[i], owned).expect("probe"));
        }),
    ));
    out.push((
        "btree.insert_delete_ns",
        timed_calls(calls, reps, |i| {
            // A call-forwarding slot the load left empty.
            let k = call_forwarding_key(probes[i] / 4, 1, 0);
            sparse.insert(k, k, owned).expect("insert");
            black_box(sparse.delete(k, owned).expect("delete"));
        }),
    ));
    out.push((
        "btree.range_scan_ns",
        timed_calls(calls, reps, |i| {
            let s_id = probes[i] / 4;
            let (lo, hi) = (
                call_forwarding_key(s_id, 0, 0),
                call_forwarding_key(s_id, 3, 23),
            );
            black_box(sparse.range_scan(lo, hi, owned).expect("range scan"));
        }),
    ));
}

fn storage_probes(plan: &ProbePlan, out: &mut Vec<(&'static str, f64)>) {
    let (calls, reps) = (plan.calls, plan.reps);
    let token = OwnerToken(1);
    let mut rng = Rng::new(plan.seed ^ 0x4EA9);
    let picks: Vec<usize> = (0..calls)
        .map(|_| rng.below(SUBSCRIBERS) as usize)
        .collect();
    let record = Tatp::subscriber_record(7);
    debug_assert_eq!(record.len(), sub_fields::RECORD_SIZE);

    // The same heap twice: partition-owned pages reached latch-free, and
    // regular pages reached through their latch.
    let variants = [
        (
            PlacementPolicy::PartitionOwned,
            PlacementHint::Partition(0),
            Access::Owned(token),
            "storage.heap_get_owned_ns",
            "storage.heap_update_owned_ns",
        ),
        (
            PlacementPolicy::Regular,
            PlacementHint::None,
            Access::Latched,
            "storage.heap_get_latched_ns",
            "storage.heap_update_latched_ns",
        ),
    ];
    for (policy, hint, access, get_name, update_name) in variants {
        let pool = BufferPool::new_shared(StatsRegistry::new_shared());
        let heap = HeapFile::new(pool, policy);
        let rids: Vec<Rid> = (0..SUBSCRIBERS)
            .map(|s_id| {
                heap.insert(&Tatp::subscriber_record(s_id), hint, access)
                    .expect("load heap")
            })
            .collect();
        out.push((
            get_name,
            timed_calls(calls, reps, |i| {
                black_box(heap.get(rids[picks[i]], access).expect("get"));
            }),
        ));
        out.push((
            update_name,
            timed_calls(calls, reps, |i| {
                heap.update(rids[picks[i]], &record, access)
                    .expect("update");
            }),
        ));
        if policy == PlacementPolicy::PartitionOwned {
            out.push((
                "storage.heap_insert_delete_ns",
                timed_calls(calls, reps, |_| {
                    let rid = heap.insert(&record[..40], hint, access).expect("insert");
                    heap.delete(rid, hint, access).expect("delete");
                }),
            ));
        }
    }
}

fn wal_and_txn_probes(plan: &ProbePlan, out: &mut Vec<(&'static str, f64)>) -> io::Result<()> {
    let (calls, reps) = (plan.calls, plan.reps);
    let memory_log = || {
        Arc::new(LogManager::new(
            InsertProtocol::Consolidated,
            DurabilityMode::Lazy,
            StatsRegistry::new_shared(),
        ))
    };

    // Nothing drains a memory-only Lazy log in the background, so each
    // repetition is followed by an untimed drain.
    let log = memory_log();
    out.push((
        "wal.log_insert_commit_ns",
        median_of_reps(reps, || {
            let started = Instant::now();
            for i in 0..calls {
                let mut handle = log.begin(i as u64 + 1);
                log.log(&mut handle, LogRecordKind::Update, i as u64, 2 * 100 + 4);
                black_box(log.commit(&mut handle));
            }
            let ns = started.elapsed().as_nanos() as f64 / calls as f64;
            log.flush_now();
            ns
        }),
    ));

    let log = memory_log();
    let txns = TxnManager::new(Arc::clone(&log), StatsRegistry::new_shared());
    out.push((
        "txn.begin_commit_ns",
        median_of_reps(reps, || {
            let started = Instant::now();
            for _ in 0..calls {
                let mut txn = txns.begin();
                txns.commit(&mut txn);
            }
            let ns = started.elapsed().as_nanos() as f64 / calls as f64;
            log.flush_now();
            ns
        }),
    ));

    // The device probes write real files: the numbers are this sandbox's
    // disk, not a device's data sheet.
    let dir = plan.out_dir.join("wal_probe");
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    let (device, _) = LogDevice::open_default(&dir, StatsRegistry::new_shared())?;
    let batch_of_16 = |device: &LogDevice| -> Vec<LogRecord> {
        let mut lsn = device.next_lsn();
        (0..16)
            .map(|page| {
                let mut record = LogRecord::with_payload(
                    1,
                    LogRecordKind::Update,
                    0,
                    page,
                    None,
                    vec![0xAB; 2 * 100 + 4],
                );
                record.lsn = lsn;
                lsn = lsn.advance(record.size_bytes());
                record
            })
            .collect()
    };
    let mut device_error = None;
    let mut timed_device = |calls: usize, with_sync: bool| {
        median_of_reps(reps, || {
            let mut busy = Duration::ZERO;
            for _ in 0..calls {
                let batch = batch_of_16(&device);
                let started = Instant::now();
                let appended = device.append_batch(&batch);
                if !with_sync {
                    busy += started.elapsed();
                }
                let started = Instant::now();
                let synced = if with_sync { device.sync() } else { Ok(()) };
                if with_sync {
                    busy += started.elapsed();
                }
                if let Err(e) = appended.and(synced) {
                    device_error.get_or_insert(e);
                }
            }
            busy.as_nanos() as f64 / calls as f64
        })
    };
    let append_ns = timed_device(plan.calls_for(40), false);
    let fsync_ns = timed_device(plan.calls_for(2_000), true);
    if let Some(e) = device_error {
        return Err(e);
    }
    drop(device);
    std::fs::remove_dir_all(&dir)?;
    out.push(("wal.append_batch_us", append_ns / 1e3));
    out.push(("wal.fsync_us", fsync_ns / 1e3));
    Ok(())
}
