//! A failed log device over the wire: a `Strict` engine behind the TCP
//! server answers every request after the failure with `ErrorCode::Storage`
//! — writers and readers alike, never `Ok` — and still shuts down.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use plp_client::Connection;
use plp_core::{Design, Engine, EngineConfig, ErrorCode, Op, Response, TableId, TableSpec};
use plp_server::{Server, ServerConfig};
use plp_wal::test_support::TempDir;
use plp_wal::DurabilityMode;

const KV: TableId = TableId(0);
const DEADLINE: Duration = Duration::from_secs(10);

fn record(key: u64) -> Vec<u8> {
    let mut rec = vec![0u8; 32];
    rec[..8].copy_from_slice(&key.to_le_bytes());
    rec
}

fn insert(key: u64) -> Op {
    Op::Insert {
        table: KV,
        key,
        record: record(key),
        secondary_key: None,
    }
}

/// Run `f` on its own thread and fail the test if it outlives `DEADLINE`.
fn within_deadline<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(f()).unwrap());
    rx.recv_timeout(DEADLINE)
        .unwrap_or_else(|_| panic!("{what} took over {DEADLINE:?}"))
}

#[test]
fn strict_server_answers_storage_after_the_log_device_fails() {
    let dir = TempDir::new("plp-log-failure");
    // The smallest segment target rolls a new segment file with every write
    // batch, so once the directory is gone the next batch cannot be written.
    let config = EngineConfig::new(Design::PlpRegular)
        .with_partitions(2)
        .with_durability(DurabilityMode::Strict)
        .with_log_dir(dir.path())
        .with_log_segment_bytes(1);
    let schema = [TableSpec::new(0, "kv", 1 << 16).with_granularity(8)];
    let engine = Engine::start_shared(config, &schema);
    engine.finish_loading();
    let mut server = Server::serve(Arc::clone(&engine), ServerConfig::default()).expect("bind");
    let mut conn = Connection::connect(server.addr()).expect("connect");

    for key in 0..8 {
        assert!(conn.call(&insert(key)).unwrap().is_ok(), "insert {key}");
    }
    assert!(conn.call(&Op::Get { table: KV, key: 3 }).unwrap().is_ok());

    std::fs::remove_dir_all(dir.path()).unwrap();
    // A writer first: its batch is the write that fails.  Everything after
    // it — reads whose tail was long synced included — answers the same.
    // (Each insert takes a fresh key: a failed commit is not undone in
    // memory, so a repeated key would abort as a duplicate instead.)
    let burst = |fresh: u64| {
        [
            insert(fresh),
            Op::Get { table: KV, key: 3 },
            Op::Update {
                table: KV,
                key: 4,
                record: record(44),
            },
            insert(fresh + 1),
            Op::Get { table: KV, key: 5 },
        ]
    };
    for op in burst(100) {
        match conn.call(&op).unwrap() {
            Response::Err { code, .. } => assert_eq!(code, ErrorCode::Storage, "{op:?}"),
            ok => panic!("{op:?} answered {ok:?} after the log device failed"),
        }
    }
    // Pipelined as well: no `Ok` slips through a burst.
    let pipelined = burst(200);
    for op in &pipelined {
        conn.send(op).unwrap();
    }
    conn.flush().unwrap();
    for _ in &pipelined {
        let (_, response) = conn.recv().unwrap();
        assert_eq!(
            response.error_code(),
            Some(ErrorCode::Storage),
            "{response:?}"
        );
    }
    drop(conn);

    within_deadline("Server::stop", move || server.stop());
    within_deadline("Engine::shutdown", move || {
        Arc::try_unwrap(engine)
            .unwrap_or_else(|_| panic!("the server still holds the engine"))
            .shutdown()
    });
}
