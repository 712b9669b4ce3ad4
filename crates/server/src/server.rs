//! The TCP connection server.
//!
//! Thread topology (no thread-per-request):
//!
//! ```text
//! accept thread ──► reader thread (per connection)
//!                        │  decoded frames
//!                        ▼
//!                  shared work queue ──► executor pool (fixed size)
//!                                             │ one Session each
//!                                             ▼
//!                                        response queue ──► writer thread
//! ```
//!
//! Each reader decodes frames off its socket and pipelines them into the
//! shared work queue, so a connection can have many requests in flight; the
//! executor pool runs them through [`Session::run`] in whatever order the
//! queue yields, and the single writer thread sends replies back — possibly
//! out of request order, which is why every response echoes its request id.
//!
//! Shutdown drain: [`Server::stop`] first stops the accept loop, then
//! shuts down every live socket (unblocking the readers, which close out
//! their connections), then lets the executors drain the queued requests
//! before stopping them, and finally stops the writer once its queue is
//! flushed.  Queued requests still *execute* — their engine effects land —
//! but with the sockets gone their responses are dropped, so clients should
//! collect all outstanding responses before the server is stopped.  The same
//! applies to a client that half-closes its connection: responses are only
//! deliverable while the connection is fully open.

use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use plp_core::{Engine, ErrorCode, Request, Response};
use plp_instrument::trace::now_nanos;
use plp_instrument::{obs_enabled, StatsRegistry};

use crate::frame::{read_frame, Frame, OpCode, ReadOutcome};

/// How long a quiet accept loop sleeps between polls.
const ACCEPT_POLL: Duration = Duration::from_millis(2);
/// The shared writer never waits longer than this on one stuck client
/// before dropping its connection.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Connection-server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 binds an ephemeral port (see [`Server::addr`]).
    pub addr: String,
    /// Executor-pool size: how many requests run concurrently.  This is the
    /// server-side analogue of in-process client threads, not a per-client
    /// limit — readers pipeline into the shared queue regardless.
    pub executors: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            executors: 4,
        }
    }
}

impl ServerConfig {
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    pub fn with_executors(mut self, n: usize) -> Self {
        self.executors = n.max(1);
        self
    }
}

/// One unit of executor work: a decoded request frame plus the connection to
/// answer on and the decode timestamp (for the `server_request` histogram).
enum Work {
    Request {
        conn: u64,
        frame: Frame,
        decoded_at: u64,
    },
    Stop,
}

/// Control messages for the writer thread, which owns every outbound stream.
enum WriterMsg {
    Register(u64, TcpStream),
    Frame(u64, Vec<u8>),
    Close(u64),
    Stop,
}

/// A running connection server.  Dropping it (or calling [`Server::stop`])
/// drains and joins every thread.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<HashMap<u64, TcpStream>>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    accept_thread: Option<JoinHandle<()>>,
    executor_threads: Vec<JoinHandle<()>>,
    writer_thread: Option<JoinHandle<()>>,
    work_tx: Sender<Work>,
    write_tx: Sender<WriterMsg>,
}

impl Server {
    /// Bind the listen socket and start serving `engine`.
    ///
    /// The engine arrives as an [`Arc`] (see
    /// [`Engine::start_shared`](plp_core::Engine::start_shared)) because each
    /// executor thread clones it and opens its own [`Session`]; the caller
    /// keeps its clone for direct in-process access alongside the server.
    pub fn serve(engine: Arc<Engine>, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stats = Arc::clone(engine.db().stats());
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::default();
        let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let (work_tx, work_rx) = unbounded::<Work>();
        let (write_tx, write_rx) = unbounded::<WriterMsg>();

        let writer_thread = {
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name("plp-srv-writer".to_string())
                .spawn(move || writer_loop(write_rx, stats))?
        };
        let executor_threads = (0..config.executors.max(1))
            .map(|i| {
                let engine = Arc::clone(&engine);
                let work_rx = work_rx.clone();
                let write_tx = write_tx.clone();
                let stats = Arc::clone(&stats);
                std::thread::Builder::new()
                    .name(format!("plp-srv-exec-{i}"))
                    .spawn(move || executor_loop(&engine, &work_rx, &write_tx, &stats))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let accept_thread = {
            let work_tx = work_tx.clone();
            let write_tx = write_tx.clone();
            let conns = Arc::clone(&conns);
            let readers = Arc::clone(&readers);
            let stats = Arc::clone(&stats);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("plp-srv-accept".to_string())
                .spawn(move || {
                    accept_loop(listener, work_tx, write_tx, conns, readers, stats, stop)
                })?
        };

        Ok(Server {
            addr,
            stop,
            conns,
            readers,
            accept_thread: Some(accept_thread),
            executor_threads,
            writer_thread: Some(writer_thread),
            work_tx,
            write_tx,
        })
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Drain and shut down: stop accepting, close every connection, answer
    /// every request already queued, flush every queued response, then join
    /// all threads.  Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Unblock the readers: shutting the sockets down makes their
        // blocking reads return, and each reader closes out its connection.
        for (_, stream) in self.conns.lock().unwrap().iter() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let handles: Vec<_> = self.readers.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        // The work queue now grows no more; a Stop sentinel per executor
        // lets each finish the requests queued ahead of it first.
        for _ in 0..self.executor_threads.len() {
            let _ = self.work_tx.send(Work::Stop);
        }
        for h in self.executor_threads.drain(..) {
            let _ = h.join();
        }
        // Same for the writer: every queued response precedes the sentinel.
        let _ = self.write_tx.send(WriterMsg::Stop);
        if let Some(t) = self.writer_thread.take() {
            let _ = t.join();
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
    work_tx: Sender<Work>,
    write_tx: Sender<WriterMsg>,
    conns: Arc<Mutex<HashMap<u64, TcpStream>>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    stats: Arc<StatsRegistry>,
    stop: Arc<AtomicBool>,
) {
    let mut next_conn = 1u64;
    while !stop.load(Ordering::SeqCst) {
        // Join readers whose connection has ended, on every accept and on
        // every idle tick: otherwise a server that saw N disconnects and no
        // new client keeps N thread handles until `stop`.
        for done in readers.lock().unwrap().extract_if(.., |h| h.is_finished()) {
            let _ = done.join();
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let conn = next_conn;
                next_conn += 1;
                // Per-connection setup failures just drop that connection.
                let _ =
                    spawn_connection(conn, stream, &work_tx, &write_tx, &conns, &readers, &stats);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

fn spawn_connection(
    conn: u64,
    stream: TcpStream,
    work_tx: &Sender<Work>,
    write_tx: &Sender<WriterMsg>,
    conns: &Arc<Mutex<HashMap<u64, TcpStream>>>,
    readers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    stats: &Arc<StatsRegistry>,
) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let writer_half = stream.try_clone()?;
    let shutdown_handle = stream.try_clone()?;
    stats.server().connection_accepted();
    conns.lock().unwrap().insert(conn, shutdown_handle);
    // Register before the reader runs so the writer knows the connection by
    // the time the first response is enqueued.
    let _ = write_tx.send(WriterMsg::Register(conn, writer_half));
    let handle = {
        let work_tx = work_tx.clone();
        let write_tx = write_tx.clone();
        let conns = Arc::clone(conns);
        let stats = Arc::clone(stats);
        std::thread::Builder::new()
            .name(format!("plp-srv-conn-{conn}"))
            .spawn(move || {
                reader_loop(conn, stream, &work_tx, &write_tx, &stats);
                conns.lock().unwrap().remove(&conn);
                let _ = write_tx.send(WriterMsg::Close(conn));
            })?
    };
    readers.lock().unwrap().push(handle);
    Ok(())
}

fn reader_loop(
    conn: u64,
    stream: TcpStream,
    work_tx: &Sender<Work>,
    write_tx: &Sender<WriterMsg>,
    stats: &StatsRegistry,
) {
    let mut reader = BufReader::new(stream);
    loop {
        match read_frame(&mut reader) {
            Ok(ReadOutcome::Frame(frame)) => {
                stats
                    .server()
                    .frame_decoded(48 + frame.payload.len() as u64);
                let work = Work::Request {
                    conn,
                    frame,
                    decoded_at: now_nanos(),
                };
                if work_tx.send(work).is_err() {
                    break;
                }
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
                if write_tx
                    .send(WriterMsg::Frame(conn, reply.encode()))
                    .is_err()
                {
                    break;
                }
            }
            Ok(ReadOutcome::Closed) | Err(_) => break,
        }
    }
}

fn executor_loop(
    engine: &Arc<Engine>,
    work_rx: &Receiver<Work>,
    write_tx: &Sender<WriterMsg>,
    stats: &StatsRegistry,
) {
    let mut session = engine.session();
    while let Ok(work) = work_rx.recv() {
        let (conn, frame, decoded_at) = match work {
            Work::Stop => break,
            Work::Request {
                conn,
                frame,
                decoded_at,
            } => (conn, frame, decoded_at),
        };
        let request_id = frame.request_id;
        let reply = match OpCode::from_u8(frame.opcode) {
            Some(OpCode::Hello) => Frame::hello_ack(request_id),
            _ => match frame.to_op() {
                Ok(op) => match session.run(Request::single(op)) {
                    Response::Ok(outputs) => Frame::response_ok(request_id, &outputs),
                    Response::Err { code, message } => {
                        Frame::response_err(request_id, code, &message)
                    }
                },
                Err(defect) => Frame::response_err(request_id, ErrorCode::BadRequest, &defect),
            },
        };
        if obs_enabled() {
            stats
                .latency()
                .server_request
                .record(now_nanos().saturating_sub(decoded_at));
        }
        if write_tx
            .send(WriterMsg::Frame(conn, reply.encode()))
            .is_err()
        {
            break;
        }
    }
}

fn writer_loop(write_rx: Receiver<WriterMsg>, stats: Arc<StatsRegistry>) {
    let mut streams: HashMap<u64, io::BufWriter<TcpStream>> = HashMap::new();
    let mut dirty: Vec<u64> = Vec::new();
    let mut since_flush = 0u32;
    let flush_dirty = |streams: &mut HashMap<u64, io::BufWriter<TcpStream>>,
                       dirty: &mut Vec<u64>| {
        for conn in dirty.drain(..) {
            if let Some(stream) = streams.get_mut(&conn) {
                if stream.flush().is_err() {
                    let _ = stream.get_ref().shutdown(Shutdown::Both);
                    streams.remove(&conn);
                }
            }
        }
    };
    loop {
        // Batch: drain everything already queued into the per-connection
        // buffers, and flush when the queue runs empty (or every 64
        // responses, so a quiet connection cannot starve behind busy ones)
        // — under load many responses share one syscall, when idle latency
        // stays flat.
        let msg = match write_rx.try_recv() {
            Ok(msg) => msg,
            Err(_) => {
                flush_dirty(&mut streams, &mut dirty);
                since_flush = 0;
                match write_rx.recv() {
                    Ok(msg) => msg,
                    Err(_) => break,
                }
            }
        };
        match msg {
            WriterMsg::Register(conn, stream) => {
                streams.insert(conn, io::BufWriter::new(stream));
            }
            WriterMsg::Frame(conn, bytes) => {
                // A response for a connection that already closed is simply
                // dropped — the requester is gone.
                let Some(stream) = streams.get_mut(&conn) else {
                    continue;
                };
                if stream.write_all(&bytes).is_ok() {
                    stats.server().response_sent(bytes.len() as u64);
                    if !dirty.contains(&conn) {
                        dirty.push(conn);
                    }
                    since_flush += 1;
                    if since_flush >= 64 {
                        flush_dirty(&mut streams, &mut dirty);
                        since_flush = 0;
                    }
                } else {
                    // A stuck or vanished client loses its connection; it
                    // must never wedge the shared writer.
                    let _ = stream.get_ref().shutdown(Shutdown::Both);
                    streams.remove(&conn);
                }
            }
            WriterMsg::Close(conn) => {
                streams.remove(&conn);
                stats.server().connection_closed();
            }
            WriterMsg::Stop => break,
        }
    }
    // Final drain: anything still buffered goes out before the threads join.
    for (_, stream) in streams.iter_mut() {
        let _ = stream.flush();
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
        let mut server = Server::serve(
            Arc::clone(&engine),
            ServerConfig::default().with_executors(1),
        )
        .expect("bind");
        for _ in 0..8 {
            drop(TcpStream::connect(server.addr()).expect("connect"));
        }
        // Every connection is accepted, then ends; no client comes after the
        // last one, so only the accept loop's idle tick can reap its reader.
        let deadline = Instant::now() + Duration::from_secs(10);
        let stats = engine.db().stats();
        loop {
            let closed = stats.server().snapshot().connections_closed;
            let retained = server.readers.lock().unwrap().len();
            if closed == 8 && retained == 0 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{closed} of 8 connections closed, {retained} reader handles retained"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        server.stop();
    }
}
