//! SIGKILL over the wire: no reply outruns durability.
//!
//! A child process serves a `Strict` engine through the TCP server.  The
//! parent drives it with two pipelined connections of updates and inserts —
//! some inserts collide on purpose — and records every `Ok` and every
//! `DuplicateKey` it is sent.  Then it SIGKILLs the child and recovers the
//! log directory: every acknowledged update must hold its value or a later
//! one from the same connection, every acknowledged insert must exist, and
//! every key answered `DuplicateKey` must exist, because that reply says the
//! key was there.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use plp_client::Connection;
use plp_core::{
    Design, Engine, EngineConfig, ErrorCode, Op, Request, Response, TableId, TableSpec,
};
use plp_server::{Server, ServerConfig};
use plp_wal::test_support::TempDir;
use plp_wal::DurabilityMode;

const KV: TableId = TableId(0);
const CHILD_DIR_ENV: &str = "PLP_WIRE_SIGKILL_DIR";
/// Keys `0..UPDATE_KEYS` are loaded; connection `c` updates only its half.
const UPDATE_KEYS: u64 = 128;
const INSERT_BASE: u64 = 1 << 20;
const CONNECTIONS: u64 = 2;
const DEPTH: u64 = 8;
/// Acknowledgements to collect before the kill.
const ACKS_BEFORE_KILL: u64 = 3_000;

fn config(dir: &Path) -> EngineConfig {
    EngineConfig::new(Design::PlpRegular)
        .with_partitions(2)
        .with_durability(DurabilityMode::Strict)
        .with_log_dir(dir)
}

fn schema() -> Vec<TableSpec> {
    vec![TableSpec::new(0, "kv", 1 << 22)]
}

/// 16 bytes: the key, then a tag naming who wrote it (`conn << 32 | step`).
fn record(key: u64, tag: u64) -> Vec<u8> {
    let mut rec = key.to_le_bytes().to_vec();
    rec.extend_from_slice(&tag.to_le_bytes());
    rec
}

fn tag_of(rec: &[u8]) -> u64 {
    u64::from_le_bytes(rec[8..16].try_into().unwrap())
}

/// Connection `conn`'s request number `step`: updates of its own loaded keys
/// alternate with inserts.  Every fourth insert key is shared by both
/// connections, so exactly one of them gets `Ok` and the other
/// `DuplicateKey`.
fn op(conn: u64, step: u64) -> Op {
    let tag = conn << 32 | step;
    let n = step / 2;
    if step.is_multiple_of(2) {
        let key = conn * (UPDATE_KEYS / CONNECTIONS) + n % (UPDATE_KEYS / CONNECTIONS);
        return Op::Update {
            table: KV,
            key,
            record: record(key, tag),
        };
    }
    let key = if n.is_multiple_of(4) {
        INSERT_BASE + n
    } else {
        INSERT_BASE + (conn + 1) * 1_000_000 + n
    };
    Op::Insert {
        table: KV,
        key,
        record: record(key, tag),
        secondary_key: None,
    }
}

/// Child-process entry point.  A no-op unless the parent test re-runs the
/// test binary with the env var set; then it serves a loaded `Strict`
/// engine, writes its address next to the log, and serves until killed.
#[test]
fn wire_sigkill_child() {
    let Ok(dir) = std::env::var(CHILD_DIR_ENV) else {
        return;
    };
    let dir = Path::new(&dir);
    let engine = Engine::start_shared(config(&dir.join("wal")), &schema());
    for key in 0..UPDATE_KEYS {
        engine
            .db()
            .load_record(KV, key, &record(key, u64::MAX), None)
            .unwrap();
    }
    engine.finish_loading();
    let server = Server::serve(Arc::clone(&engine), ServerConfig::default()).unwrap();
    let tmp = dir.join("addr.tmp");
    std::fs::write(&tmp, server.addr().to_string()).unwrap();
    std::fs::rename(&tmp, dir.join("addr")).unwrap();
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// What the parent was told, per connection.
#[derive(Default)]
struct Acks {
    /// Update key → the highest step acknowledged.
    updates: BTreeMap<u64, u64>,
    inserted: Vec<u64>,
    duplicates: Vec<u64>,
}

/// Keep `DEPTH` requests in flight until the server goes away; record every
/// acknowledgement that arrives.
fn drive(conn_no: u64, mut conn: Connection, acks: &Mutex<Acks>, total: &AtomicU64) {
    let mut in_flight = std::collections::VecDeque::new();
    let mut step = 0u64;
    loop {
        while (in_flight.len() as u64) < DEPTH {
            let op = op(conn_no, step);
            if conn.send(&op).is_err() {
                return;
            }
            in_flight.push_back((op, step));
            step += 1;
        }
        if conn.flush().is_err() {
            return;
        }
        let Ok((_, response)) = conn.recv() else {
            return;
        };
        // Replies come back in arrival order.
        let (op, step) = in_flight.pop_front().unwrap();
        let mut acks = acks.lock().unwrap();
        match (op, response) {
            (Op::Update { key, .. }, Response::Ok(_)) => {
                acks.updates.insert(key, step);
            }
            (Op::Insert { key, .. }, Response::Ok(_)) => acks.inserted.push(key),
            (
                Op::Insert { key, .. },
                Response::Err {
                    code: ErrorCode::DuplicateKey,
                    ..
                },
            ) => acks.duplicates.push(key),
            (op, response) => panic!("{op:?} answered {response:?}"),
        }
        total.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
#[cfg(unix)]
fn sigkill_loses_no_acknowledged_reply() {
    use std::os::unix::process::ExitStatusExt;

    let dir = TempDir::new("plp-wire-sigkill");
    std::fs::create_dir_all(dir.path()).unwrap();
    let mut child = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["wire_sigkill_child", "--exact", "--test-threads=1"])
        .env(CHILD_DIR_ENV, dir.path())
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawn child");
    let deadline = Instant::now() + Duration::from_secs(120);
    let addr = loop {
        if let Ok(addr) = std::fs::read_to_string(dir.path().join("addr")) {
            break addr;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("the child never served");
        }
        std::thread::sleep(Duration::from_millis(10));
    };

    let acks: Vec<Arc<Mutex<Acks>>> = (0..CONNECTIONS).map(|_| Arc::default()).collect();
    let total = Arc::new(AtomicU64::new(0));
    let clients: Vec<_> = (0..CONNECTIONS)
        .map(|c| {
            let conn = Connection::connect(addr.as_str()).expect("connect");
            conn.stream()
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let (acks, total) = (Arc::clone(&acks[c as usize]), Arc::clone(&total));
            std::thread::spawn(move || drive(c, conn, &acks, &total))
        })
        .collect();
    while total.load(Ordering::Relaxed) < ACKS_BEFORE_KILL {
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("only {} acknowledgements", total.load(Ordering::Relaxed));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    child.kill().expect("SIGKILL child"); // no destructors, no flush
    let status = child.wait().unwrap();
    assert_eq!(status.signal(), Some(9), "the child must die by SIGKILL");
    for c in clients {
        c.join().expect("a client saw a wrong answer");
    }

    // Recovery counts as loaded: no `finish_loading` before serving reads.
    let wal = dir.path().join("wal");
    let (recovered, _) = Engine::recover(&wal, config(&wal), &schema()).expect("recovery");
    let mut session = recovered.session();
    let mut get = |key: u64| match session.run(Request::single(Op::Get { table: KV, key })) {
        Response::Ok(outputs) => outputs[0].rows.first().cloned(),
        other => panic!("get {key} after recovery: {other:?}"),
    };
    let collisions: usize = acks
        .iter()
        .map(|a| a.lock().unwrap().duplicates.len())
        .sum();
    assert!(collisions > 0, "no insert collided");
    for (conn, acks) in acks.iter().enumerate() {
        let acks = acks.lock().unwrap();
        for (&key, &step) in &acks.updates {
            let rec = get(key).unwrap_or_else(|| panic!("updated key {key} is gone"));
            let tag = tag_of(&rec);
            assert!(
                tag >> 32 == conn as u64 && tag & 0xFFFF_FFFF >= step,
                "key {key}: acknowledged step {step} of connection {conn}, recovered tag {tag:#x}"
            );
        }
        for &key in &acks.inserted {
            assert!(get(key).is_some(), "acknowledged insert {key} is gone");
        }
        for &key in &acks.duplicates {
            assert!(
                get(key).is_some(),
                "key {key} answered DuplicateKey but is gone"
            );
        }
    }
}
