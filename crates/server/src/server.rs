//! The TCP connection server.
//!
//! Thread topology: the accept thread, plus one thread per open connection
//! that runs its requests to completion.
//!
//! ```text
//! accept thread ──► connection thread (one per connection, one Session)
//!                     read a frame ──► Session::run_deferred, reply held
//!                     (repeat while a whole frame is buffered)
//!                     burst done ──► one wait_durable(max LSN), one write
//! ```
//!
//! A connection thread decodes the frames its read buffer holds and runs
//! each through its own [`Session`] in arrival
//! order, with the commit's durability wait deferred.  Once no complete
//! frame is left buffered, it waits once for the largest LSN of the burst,
//! writes every held reply in one `write`, and only then blocks in `read`
//! again, so no reply is ever held across a blocking read.  Replies leave in
//! request order; clients still match them by request id.
//!
//! Shutdown: [`Server::stop`] stops the accept loop, shuts down every live
//! socket (which ends each connection's blocking read or write), and joins
//! every connection thread.  A thread mid-burst finishes running its
//! requests, so their engine effects land, but their replies are lost with
//! the socket.  When `stop` returns, no thread of the server holds the
//! engine or a session on it.

use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use plp_core::engine::Session;
use plp_core::{Engine, EngineError, ErrorCode, Request, Response};
use plp_instrument::trace::now_nanos;
use plp_instrument::{obs_enabled, StatsRegistry};
use plp_wal::{LogManager, Lsn};

use crate::frame::{frame_is_buffered, read_frame, Frame, OpCode, ReadOutcome};

/// How long a quiet accept loop sleeps between polls.
const ACCEPT_POLL: Duration = Duration::from_millis(2);
/// A connection thread never waits longer than this on one stuck client
/// before dropping its connection.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Connection-server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 binds an ephemeral port (see [`Server::addr`]).
    pub addr: String,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
        }
    }
}

impl ServerConfig {
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }
}

/// A running connection server.  Dropping it (or calling [`Server::stop`])
/// shuts every connection down and joins every thread.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// A clone of each open connection's socket, for `stop` to shut down.
    conns: Arc<Mutex<HashMap<u64, TcpStream>>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind the listen socket and start serving `engine`.
    ///
    /// The engine arrives as an [`Arc`] (see
    /// [`Engine::start_shared`](plp_core::Engine::start_shared)) because each
    /// connection thread clones it and opens its own session; the caller
    /// keeps its clone for direct in-process access alongside the server.
    pub fn serve(engine: Arc<Engine>, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::default();
        let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let accept_thread = {
            let conns = Arc::clone(&conns);
            let conn_threads = Arc::clone(&conn_threads);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("plp-srv-accept".to_string())
                .spawn(move || accept_loop(listener, engine, conns, conn_threads, stop))?
        };
        Ok(Server {
            addr,
            stop,
            conns,
            conn_threads,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, shut every connection down, and join every thread.
    /// Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // No connection registers after the accept thread is gone.  Shutting
        // the sockets down ends every blocking read and write.
        for stream in self.conns.lock().unwrap().values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let handles: Vec<_> = self.conn_threads.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: TcpListener,
    engine: Arc<Engine>,
    conns: Arc<Mutex<HashMap<u64, TcpStream>>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    stop: Arc<AtomicBool>,
) {
    let mut next_conn = 1u64;
    while !stop.load(Ordering::SeqCst) {
        // Join connection threads that have ended, on every accept and on
        // every idle tick: otherwise a server that saw N disconnects and no
        // new client keeps N thread handles until `stop`.
        for done in conn_threads
            .lock()
            .unwrap()
            .extract_if(.., |h| h.is_finished())
        {
            let _ = done.join();
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let conn = next_conn;
                next_conn += 1;
                // Per-connection setup failures just drop that connection.
                let _ = spawn_connection(conn, stream, &engine, &conns, &conn_threads);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

fn spawn_connection(
    conn: u64,
    stream: TcpStream,
    engine: &Arc<Engine>,
    conns: &Arc<Mutex<HashMap<u64, TcpStream>>>,
    conn_threads: &Mutex<Vec<JoinHandle<()>>>,
) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    // Registered before the thread runs, so a `stop` that follows can always
    // shut this socket down.
    conns.lock().unwrap().insert(conn, stream.try_clone()?);
    engine.db().stats().server().connection_accepted();
    let thread = {
        let engine = Arc::clone(engine);
        let conns = Arc::clone(conns);
        std::thread::Builder::new()
            .name(format!("plp-srv-conn-{conn}"))
            .spawn(move || {
                serve_connection(&engine, &stream);
                conns.lock().unwrap().remove(&conn);
                // A half-closed client sees EOF after its last reply.
                let _ = stream.shutdown(Shutdown::Both);
                engine.db().stats().server().connection_closed();
            })
    };
    match thread {
        Ok(handle) => {
            conn_threads.lock().unwrap().push(handle);
            Ok(())
        }
        Err(e) => {
            conns.lock().unwrap().remove(&conn);
            Err(e)
        }
    }
}

/// One connection, run to completion: read, run in arrival order, and
/// answer each burst with one durability wait and one write.
fn serve_connection(engine: &Engine, stream: &TcpStream) {
    let stats = engine.db().stats();
    let log = engine.db().log_manager();
    let mut session = engine.session();
    let mut reader = BufReader::new(stream);
    let mut burst = Burst::default();
    loop {
        match read_frame(&mut reader) {
            Ok(ReadOutcome::Frame(frame)) => {
                stats
                    .server()
                    .frame_decoded(48 + frame.payload.len() as u64);
                let decoded_at = now_nanos();
                burst.run(&mut session, frame, decoded_at);
            }
            Ok(ReadOutcome::Rejected {
                request_id,
                reason,
                consumed,
            }) => {
                // Soft decode error: answer (matched to the salvaged request
                // id when there was one) and keep reading — the length
                // prefix already resynchronized the stream.
                stats.server().decode_error(consumed);
                let reply = Frame::response_err(
                    request_id.unwrap_or(0),
                    ErrorCode::BadRequest,
                    &format!("undecodable frame: {reason}"),
                );
                burst.hold(reply, None, None);
            }
            Ok(ReadOutcome::Closed) | Err(_) => break,
        }
        if !frame_is_buffered(reader.buffer()) && burst.write(stream, log, stats).is_err() {
            break;
        }
    }
}

/// One reply held until its burst is written.
struct Reply {
    request_id: u64,
    bytes: Vec<u8>,
    /// `now_nanos()` when its request was decoded: the origin of the
    /// `server_request` histogram.  `None` for a rejected frame.
    decoded_at: Option<u64>,
    /// The request reached commit or abort, so the reply waits for the log.
    waits: bool,
}

/// The replies of the requests read since the last write.
#[derive(Default)]
struct Burst {
    replies: Vec<Reply>,
    /// The largest LSN a held reply waits for; `None` when none waits.
    lsn: Option<Lsn>,
    out: Vec<u8>,
}

impl Burst {
    /// Run one request frame and hold its reply.
    fn run(&mut self, session: &mut Session<'_>, frame: Frame, decoded_at: u64) {
        let request_id = frame.request_id;
        let (reply, lsn) = match OpCode::from_u8(frame.opcode) {
            Some(OpCode::Hello) => (Frame::hello_ack(request_id), None),
            _ => match frame.to_op() {
                Ok(op) => {
                    let (response, lsn) = session.run_deferred(Request::single(op));
                    // Validation rejects never reached a transaction.
                    let waits = !matches!(
                        response.error_code(),
                        Some(ErrorCode::BadRequest | ErrorCode::NoSuchTable)
                    );
                    let reply = match response {
                        Response::Ok(outputs) => Frame::response_ok(request_id, &outputs),
                        Response::Err { code, message } => {
                            Frame::response_err(request_id, code, &message)
                        }
                    };
                    (reply, waits.then_some(lsn))
                }
                Err(defect) => (
                    Frame::response_err(request_id, ErrorCode::BadRequest, &defect),
                    None,
                ),
            },
        };
        self.hold(reply, Some(decoded_at), lsn);
    }

    fn hold(&mut self, reply: Frame, decoded_at: Option<u64>, lsn: Option<Lsn>) {
        if let Some(lsn) = lsn {
            self.lsn = Some(self.lsn.map_or(lsn, |held| held.max(lsn)));
        }
        self.replies.push(Reply {
            request_id: reply.request_id,
            bytes: reply.encode(),
            decoded_at,
            waits: lsn.is_some(),
        });
    }

    /// Wait once for the burst's largest LSN, then write every held reply
    /// at once.  If the wait fails, no reply that waited may claim success:
    /// each answers `Storage` instead.
    fn write(
        &mut self,
        stream: &TcpStream,
        log: &LogManager,
        stats: &StatsRegistry,
    ) -> io::Result<()> {
        if let Some(Err(failed)) = self.lsn.take().map(|lsn| log.wait_durable(lsn)) {
            let message = EngineError::Log(failed).to_string();
            for reply in self.replies.iter_mut().filter(|r| r.waits) {
                reply.bytes =
                    Frame::response_err(reply.request_id, ErrorCode::Storage, &message).encode();
            }
        }
        self.out.clear();
        for reply in &self.replies {
            self.out.extend_from_slice(&reply.bytes);
        }
        let mut stream = stream;
        stream.write_all(&self.out)?;
        let now = now_nanos();
        for reply in self.replies.drain(..) {
            stats.server().response_sent(reply.bytes.len() as u64);
            if let (Some(decoded_at), true) = (reply.decoded_at, obs_enabled()) {
                stats
                    .latency()
                    .server_request
                    .record(now.saturating_sub(decoded_at));
            }
        }
        // Measured three times on a 2-vCPU host with 2 clients: without this
        // yield `tatp_wire` p99 is 1.6–2.0 ms (3× the pooled server this one
        // replaced); with it, 254–339 µs at −10 % p50.  A gang-scheduling
        // artefact of two vCPUs: the yield lets the client this burst
        // answered run before the thread blocks in `read` again.
        std::thread::yield_now();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plp_core::{Design, EngineConfig, TableSpec};
    use std::time::Instant;

    #[test]
    fn finished_connection_threads_are_reaped_without_new_clients() {
        let engine = Engine::start_shared(
            EngineConfig::new(Design::PlpRegular).with_partitions(2),
            &[TableSpec::new(0, "kv", 1 << 10)],
        );
        let mut server = Server::serve(Arc::clone(&engine), ServerConfig::default()).expect("bind");
        for _ in 0..8 {
            drop(TcpStream::connect(server.addr()).expect("connect"));
        }
        // Every connection is accepted, then ends; no client comes after the
        // last one, so only the accept loop's idle tick can reap its thread.
        let deadline = Instant::now() + Duration::from_secs(10);
        let stats = engine.db().stats();
        loop {
            let closed = stats.server().snapshot().connections_closed;
            let retained = server.conn_threads.lock().unwrap().len();
            if closed == 8 && retained == 0 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{closed} of 8 connections closed, {retained} connection threads retained"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        server.stop();
    }
}
