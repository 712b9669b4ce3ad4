//! End-to-end wire-protocol tests: a live engine behind the TCP connection
//! server, driven by pipelined clients over real sockets.

use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use plp_client::Connection;
use plp_core::{Design, Engine, EngineConfig, ErrorCode, Op, Response, TableId, TableSpec};
use plp_server::frame::{Frame, MIN_REMAINDER};
use plp_server::{Server, ServerConfig};
use plp_wal::test_support::TempDir;
use plp_wal::DurabilityMode;

const KV: TableId = TableId(0);

/// A partitioned engine with a granularity-8 KV table behind a server.
fn serve() -> (Arc<Engine>, Server) {
    let schema = vec![TableSpec::new(0, "kv", 1 << 16).with_granularity(8)];
    let config = EngineConfig::new(Design::PlpRegular).with_partitions(2);
    let engine = Engine::start_shared(config, &schema);
    engine.finish_loading();
    let server = Server::serve(Arc::clone(&engine), ServerConfig::default()).expect("bind");
    (engine, server)
}

fn record(key: u64) -> Vec<u8> {
    let mut rec = vec![0u8; 32];
    rec[..8].copy_from_slice(&key.to_le_bytes());
    rec
}

#[test]
fn pipelined_requests_come_back_matched_by_id() {
    let (_engine, mut server) = serve();
    let mut conn = Connection::connect(server.addr()).expect("connect");

    // Pipeline 64 inserts without reading a single response.
    let mut pending: Vec<u64> = Vec::new();
    for key in 0..64u64 {
        let op = Op::Insert {
            table: KV,
            key,
            record: record(key),
            secondary_key: None,
        };
        pending.push(conn.send(&op).unwrap());
    }
    conn.flush().unwrap();
    // Every request id must be answered exactly once, successfully (the
    // server answers in arrival order, but clients match replies by id).
    let mut answered: Vec<u64> = Vec::new();
    for _ in 0..pending.len() {
        let (id, response) = conn.recv().expect("response");
        assert_eq!(
            response,
            Response::Ok(vec![plp_core::ActionOutput::empty()])
        );
        answered.push(id);
    }
    answered.sort_unstable();
    pending.sort_unstable();
    assert_eq!(answered, pending);

    // Read a few back through the same pipe.
    for key in [0u64, 13, 63] {
        match conn.call(&Op::Get { table: KV, key }).unwrap() {
            Response::Ok(outputs) => assert_eq!(outputs[0].rows, vec![record(key)]),
            other => panic!("get {key}: {other:?}"),
        }
    }
    server.stop();
}

#[test]
fn every_op_kind_round_trips_over_the_wire() {
    let (_engine, mut server) = serve();
    let mut conn = Connection::connect(server.addr()).expect("connect");
    let ok = |response: Response| match response {
        Response::Ok(outputs) => outputs,
        Response::Err { code, message } => panic!("unexpected error {code}: {message}"),
    };

    for key in 40..48u64 {
        ok(conn
            .call(&Op::Insert {
                table: KV,
                key,
                record: record(key),
                secondary_key: None,
            })
            .unwrap());
    }
    // Update in place, read it back.
    let mut updated = record(44);
    updated[31] = 0xEE;
    let outputs = ok(conn
        .call(&Op::Update {
            table: KV,
            key: 44,
            record: updated.clone(),
        })
        .unwrap());
    assert_eq!(outputs[0].values, vec![1]);
    let outputs = ok(conn.call(&Op::Get { table: KV, key: 44 }).unwrap());
    assert_eq!(outputs[0].rows, vec![updated.clone()]);

    // Range over one granularity-8 unit: keys 40..=47, updated row included.
    let outputs = ok(conn
        .call(&Op::ReadRange {
            table: KV,
            lo: 40,
            hi: 47,
        })
        .unwrap());
    assert_eq!(outputs[0].values, (40..48).collect::<Vec<u64>>());
    assert_eq!(outputs[0].rows[4], updated);

    // Delete, then the row is gone.
    let outputs = ok(conn
        .call(&Op::Delete {
            table: KV,
            key: 41,
            secondary_key: None,
        })
        .unwrap());
    assert_eq!(outputs[0].values, vec![1]);
    let outputs = ok(conn.call(&Op::Get { table: KV, key: 41 }).unwrap());
    assert!(outputs[0].rows.is_empty());

    // Error paths: duplicate key, missing table, cross-unit range.
    let response = conn
        .call(&Op::Insert {
            table: KV,
            key: 40,
            record: record(40),
            secondary_key: None,
        })
        .unwrap();
    assert_eq!(response.error_code(), Some(ErrorCode::DuplicateKey));
    let response = conn
        .call(&Op::Get {
            table: TableId(9),
            key: 1,
        })
        .unwrap();
    assert_eq!(response.error_code(), Some(ErrorCode::NoSuchTable));
    let response = conn
        .call(&Op::ReadRange {
            table: KV,
            lo: 40,
            hi: 48,
        })
        .unwrap();
    assert_eq!(response.error_code(), Some(ErrorCode::BadRequest));
    server.stop();
}

#[test]
fn corrupt_frames_get_error_responses_without_losing_the_connection() {
    let (engine, mut server) = serve();
    let mut conn = Connection::connect(server.addr()).expect("connect");

    // A frame with a flipped CRC byte: rejected, request id preserved.
    let mut corrupt = Frame::request(7777, &Op::Get { table: KV, key: 1 }).encode();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0xFF;
    conn.send_bytes(&corrupt).unwrap();
    conn.flush().unwrap();
    let (id, response) = conn.recv().unwrap();
    assert_eq!(id, 7777);
    assert_eq!(response.error_code(), Some(ErrorCode::BadRequest));

    // An unknown opcode inside a well-formed frame: same, via to_op.
    let mut unknown = Frame::hello(501);
    unknown.opcode = 9;
    conn.send_frame(&unknown).unwrap();
    conn.flush().unwrap();
    let (id, response) = conn.recv().unwrap();
    assert_eq!(id, 501);
    assert_eq!(response.error_code(), Some(ErrorCode::BadRequest));

    // A runt frame (len below the header size): rejected without an id.
    let mut runt = 10u32.to_le_bytes().to_vec();
    runt.extend_from_slice(&[0u8; 10]);
    conn.send_bytes(&runt).unwrap();
    conn.flush().unwrap();
    let (id, response) = conn.recv().unwrap();
    assert_eq!(id, 0, "no salvageable request id");
    assert_eq!(response.error_code(), Some(ErrorCode::BadRequest));

    // The connection still works.
    let response = conn.call(&Op::Get { table: KV, key: 5 }).unwrap();
    assert!(response.is_ok());

    let snap = engine.db().stats().snapshot().server;
    assert_eq!(snap.decode_errors, 2, "crc + runt (unknown opcode decodes)");
    assert!(snap.frames_decoded >= 3, "hello + unknown + get");
    server.stop();
    let snap = engine.db().stats().snapshot().server;
    assert_eq!(snap.connections_accepted, 1);
    assert_eq!(snap.connections_closed, 1);
    assert_eq!(snap.active_connections(), 0);

    // Sanity: the wire's minimum-frame constant matches Frame::encode.
    assert_eq!(Frame::hello(0).encode().len(), MIN_REMAINDER + 4);
}

#[test]
fn many_connections_are_served_side_by_side() {
    let (engine, mut server) = serve();
    let addr = server.addr();
    let threads: Vec<_> = (0..4u64)
        .map(|t| {
            std::thread::spawn(move || {
                let mut conn = Connection::connect(addr).expect("connect");
                // Disjoint key stripes per connection, pipelined depth 16.
                let base = 1_000 + t * 100;
                let mut pending = Vec::new();
                for key in base..base + 16 {
                    pending.push(
                        conn.send(&Op::Insert {
                            table: KV,
                            key,
                            record: record(key),
                            secondary_key: None,
                        })
                        .unwrap(),
                    );
                }
                conn.flush().unwrap();
                for _ in &pending {
                    let (_, response) = conn.recv().expect("response");
                    assert!(response.is_ok(), "{response:?}");
                }
                for key in base..base + 16 {
                    let response = conn.call(&Op::Get { table: KV, key }).unwrap();
                    match response {
                        Response::Ok(outputs) => assert_eq!(outputs[0].rows, vec![record(key)]),
                        other => panic!("{other:?}"),
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    // The in-process path stays fully usable next to the server.
    let mut session = engine.session();
    let response = session.run(plp_core::Request::single(Op::Get {
        table: KV,
        key: 1_000,
    }));
    match response {
        Response::Ok(outputs) => assert_eq!(outputs[0].rows, vec![record(1_000)]),
        other => panic!("{other:?}"),
    }
    server.stop();
    let snap = engine.db().stats().snapshot().server;
    assert_eq!(snap.connections_accepted, 4);
    assert_eq!(snap.active_connections(), 0);
    // Per connection: HelloAck + 16 insert + 16 get responses.
    assert!(snap.responses_sent >= 4 * 33, "{snap:?}");
}

/// Run `f` on its own thread and fail the test if it outlives `deadline`.
fn within<T: Send + 'static>(
    what: &str,
    deadline: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(f()).unwrap());
    rx.recv_timeout(deadline)
        .unwrap_or_else(|_| panic!("{what} took over {deadline:?}"))
}

fn insert(key: u64) -> Op {
    Op::Insert {
        table: KV,
        key,
        record: record(key),
        secondary_key: None,
    }
}

/// The ledger's teardown: drop every client, `stop` the server, then take
/// the engine back with `Arc::try_unwrap` — which fails if any connection
/// thread (or its session) outlived `stop`.
#[test]
fn stop_releases_the_engine_whatever_the_clients_left_behind() {
    let (engine, server) = serve();
    let addr = server.addr();
    let mut clients = Vec::new();
    // Two clients with 8 pipelined requests in flight, unread.
    for c in 0..2u64 {
        let mut conn = Connection::connect(addr).expect("connect");
        for key in 0..8 {
            conn.send(&insert(10_000 + c * 100 + key)).unwrap();
        }
        conn.flush().unwrap();
        clients.push(conn);
    }
    // One idle client.
    clients.push(Connection::connect(addr).expect("connect"));
    // One that sends 64 frames and never reads a reply.
    let mut silent = Connection::connect(addr).expect("connect");
    for key in 0..64 {
        silent.send(&Op::Get { table: KV, key }).unwrap();
    }
    silent.flush().unwrap();
    clients.push(silent);

    drop(clients);
    let deadline = Duration::from_secs(5);
    within("Server::stop", deadline, move || {
        let mut server = server;
        server.stop();
    });
    assert!(
        Arc::try_unwrap(engine).is_ok(),
        "a connection thread still holds the engine after stop"
    );
}

/// Every request runs in arrival order: a pipelined `Get(k)` always sees
/// the `Insert(k)` sent just ahead of it, in every durability mode.
#[test]
fn pipelined_inserts_are_visible_to_the_gets_behind_them() {
    const PAIRS: u64 = 24_000;
    const WINDOW: u64 = 64;
    for mode in [
        DurabilityMode::Lazy,
        DurabilityMode::Synchronous,
        DurabilityMode::Strict,
    ] {
        let dir = TempDir::new("plp-server-arrival-order");
        let mut config = EngineConfig::new(Design::PlpRegular)
            .with_partitions(2)
            .with_durability(mode);
        if mode == DurabilityMode::Strict {
            config = config.with_log_dir(dir.path());
        }
        let engine = Engine::start_shared(config, &[TableSpec::new(0, "kv", 1 << 16)]);
        engine.finish_loading();
        let mut server = Server::serve(Arc::clone(&engine), ServerConfig::default()).unwrap();
        let mut conn = Connection::connect(server.addr()).unwrap();
        conn.stream()
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let op = |i: u64| match i % 2 {
            0 => insert(i / 2),
            _ => Op::Get {
                table: KV,
                key: i / 2,
            },
        };
        let (mut sent, mut misses) = (0, 0);
        for i in 0..2 * PAIRS {
            while sent < (i + WINDOW).min(2 * PAIRS) {
                conn.send(&op(sent)).unwrap();
                sent += 1;
            }
            conn.flush().unwrap();
            let (_, response) = conn.recv().unwrap();
            match (i % 2, response) {
                (0, response) => {
                    assert!(response.is_ok(), "{mode:?} insert {}: {response:?}", i / 2)
                }
                (_, Response::Ok(outputs)) if outputs[0].rows == vec![record(i / 2)] => {}
                _ => misses += 1,
            }
        }
        assert_eq!(
            misses, 0,
            "{mode:?}: {misses} of {PAIRS} gets missed their insert"
        );
        drop(conn);
        server.stop();
    }
}

/// A reply is never held across a blocking read: with one whole frame and
/// half of the next buffered, the first frame's reply arrives before the
/// client sends the rest.
#[test]
fn a_whole_frame_is_answered_while_the_next_is_still_partial() {
    let (_engine, mut server) = serve();
    let mut conn = Connection::connect(server.addr()).unwrap();
    conn.stream()
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let first = Frame::request(70, &insert(70)).encode();
    let second = Frame::request(71, &Op::Get { table: KV, key: 70 }).encode();
    let half = second.len() / 2;
    let mut bytes = first;
    bytes.extend_from_slice(&second[..half]);
    conn.send_bytes(&bytes).unwrap();
    conn.flush().unwrap();
    let (id, response) = conn
        .recv()
        .expect("the first reply before the rest is sent");
    assert_eq!((id, response.is_ok()), (70, true));
    conn.send_bytes(&second[half..]).unwrap();
    conn.flush().unwrap();
    let (id, response) = conn.recv().unwrap();
    assert_eq!(id, 71);
    assert_eq!(response.outputs().unwrap()[0].rows, vec![record(70)]);
    server.stop();
}

/// A client that half-closes gets the replies to everything it sent, then
/// EOF.
#[test]
fn a_half_closed_client_gets_its_replies_then_eof() {
    let (_engine, mut server) = serve();
    let mut conn = Connection::connect(server.addr()).unwrap();
    conn.stream()
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let sent: Vec<u64> = (0..16)
        .map(|key| conn.send(&insert(300 + key)).unwrap())
        .collect();
    conn.flush().unwrap();
    conn.stream().shutdown(Shutdown::Write).unwrap();
    for id in sent {
        let (got, response) = conn.recv().unwrap();
        assert_eq!((got, response.is_ok()), (id, true));
    }
    let end = conn.recv().expect_err("EOF after the last reply");
    assert_eq!(end.kind(), std::io::ErrorKind::UnexpectedEof, "{end}");
    server.stop();
}

/// A partial frame followed by a close ends the connection, and `stop`
/// stays bounded.
#[test]
fn a_partial_frame_then_close_ends_the_connection() {
    let (engine, server) = serve();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let frame = Frame::request(1, &insert(1)).encode();
    stream.write_all(&frame[..frame.len() - 3]).unwrap();
    drop(stream);
    let stats = Arc::clone(engine.db().stats());
    within(
        "the torn connection's end",
        Duration::from_secs(5),
        move || {
            while stats.server().snapshot().connections_closed < 1 {
                std::thread::sleep(Duration::from_millis(2));
            }
        },
    );
    within("Server::stop", Duration::from_secs(5), move || {
        let mut server = server;
        server.stop();
    });
}
