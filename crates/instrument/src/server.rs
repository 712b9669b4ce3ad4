//! The live observability endpoint: a minimal HTTP/1.1 exposition server on
//! a std `TcpListener`.
//!
//! One background thread owns the listener and serves connections *serially*
//! — scrapes are read-only snapshots off the atomics, so a slow or stuck
//! client delays other scrapers, never the engine, and by at most
//! `IO_TIMEOUT`: one deadline covers a connection's whole request read and
//! reply write. The accept loop polls a non-blocking listener so shutdown
//! never blocks on a quiet socket.
//!
//! Routes:
//!
//! | Path | Body |
//! |---|---|
//! | `/metrics` | Prometheus text exposition ([`crate::export`]) |
//! | `/stats.json` | Counter + latency-summary JSON |
//! | `/trace.json` | chrome://tracing document of every trace ring |
//! | `/flight.json` | Flight-recorder sample ring |
//! | `/decisions.json` | DLB decision audit log |
//! | `/slow.json` | Slow-transaction reservoir |

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::recorder::FlightRecorder;
use crate::stats::StatsRegistry;

/// How long a quiet accept loop sleeps between polls.
const ACCEPT_POLL: Duration = Duration::from_millis(5);
/// Per-connection deadline, from accept to the last byte of the reply: a
/// stalled or trickling scraper is dropped, it cannot wedge the server
/// thread (let alone a worker).
const IO_TIMEOUT: Duration = Duration::from_secs(2);
/// Maximum request head accepted before the connection is dropped.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Handle to a running observability endpoint. Dropping it (or calling
/// [`stop`](ObsServer::stop)) shuts the listener thread down gracefully.
#[derive(Debug)]
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ObsServer {
    /// Bind `addr` (e.g. `"127.0.0.1:9464"`, port 0 for an ephemeral port)
    /// and start serving. The bound address is available via
    /// [`addr`](ObsServer::addr).
    pub fn start(
        addr: &str,
        stats: Arc<StatsRegistry>,
        recorder: Option<Arc<FlightRecorder>>,
    ) -> std::io::Result<ObsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("plp-obsd".to_string())
            .spawn(move || serve_loop(listener, stats, recorder, stop2))?;
        Ok(ObsServer {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signal the listener thread and wait for it to exit. Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve_loop(
    listener: TcpListener,
    stats: Arc<StatsRegistry>,
    recorder: Option<Arc<FlightRecorder>>,
    stop: Arc<AtomicBool>,
) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Per-connection errors (client hangup, timeout) only lose
                // that scrape; the server keeps serving.
                let _ = serve_connection(stream, &stats, recorder.as_deref());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Time left before `deadline`, as a socket timeout; `TimedOut` once it has
/// passed (a zero timeout would mean "none").
fn time_left(deadline: Instant) -> std::io::Result<Option<Duration>> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(std::io::ErrorKind::TimedOut.into());
    }
    Ok(Some(left))
}

/// Read the request head (start line + headers), bounded in size and by
/// `deadline`.
fn read_request_head(stream: &mut TcpStream, deadline: Instant) -> std::io::Result<String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        stream.set_read_timeout(time_left(deadline)?)?;
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() >= MAX_REQUEST_BYTES {
            break;
        }
    }
    Ok(String::from_utf8_lossy(&buf).into_owned())
}

fn serve_connection(
    mut stream: TcpStream,
    stats: &StatsRegistry,
    recorder: Option<&FlightRecorder>,
) -> std::io::Result<()> {
    let deadline = Instant::now() + IO_TIMEOUT;
    stream.set_nonblocking(false)?;
    let head = read_request_head(&mut stream, deadline)?;
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n".to_string(),
        )
    } else {
        match path {
            "/" => (
                "200 OK",
                "text/plain; charset=utf-8",
                "plp-obsd routes: /metrics /stats.json /trace.json /flight.json \
                 /decisions.json /slow.json\n"
                    .to_string(),
            ),
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                crate::export::prometheus_exposition(
                    &stats.snapshot(),
                    &stats.latency().snapshot(),
                ),
            ),
            "/stats.json" => (
                "200 OK",
                "application/json",
                crate::export::stats_json(&stats.snapshot(), &stats.latency().snapshot()),
            ),
            "/trace.json" => ("200 OK", "application/json", stats.trace().chrome_json()),
            "/flight.json" => (
                "200 OK",
                "application/json",
                recorder.map_or_else(|| "[]".to_string(), |r| r.samples_json()),
            ),
            "/decisions.json" => ("200 OK", "application/json", stats.dlb_decisions().json()),
            "/slow.json" => ("200 OK", "application/json", stats.slow().json()),
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                format!("no route {path}\n"),
            ),
        }
    };
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    for mut bytes in [header.as_bytes(), body.as_bytes()] {
        while !bytes.is_empty() {
            stream.set_write_timeout(time_left(deadline)?)?;
            match stream.write(bytes) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => bytes = &bytes[n..],
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response
            .split_once("\r\n\r\n")
            .expect("header/body separator");
        let status = head.lines().next().unwrap_or("").to_string();
        (status, body.to_string())
    }

    fn test_server() -> (ObsServer, Arc<StatsRegistry>) {
        let stats = StatsRegistry::new_shared();
        stats.txn_committed();
        stats.latency().action_roundtrip.record(1_234);
        let server = ObsServer::start("127.0.0.1:0", Arc::clone(&stats), None).expect("bind");
        (server, stats)
    }

    #[test]
    fn serves_metrics_and_json_routes() {
        let (server, stats) = test_server();
        let (status, body) = http_get(server.addr(), "/metrics");
        assert!(status.contains("200"), "{status}");
        let samples = crate::export::parse_exposition(&body).expect("valid exposition");
        crate::export::validate_histogram_series(&samples).expect("valid histograms");
        assert!(body.contains("plp_txn_committed_total 1"));

        let (status, body) = http_get(server.addr(), "/stats.json");
        assert!(status.contains("200"), "{status}");
        assert!(crate::json_is_valid(&body), "bad json: {body}");

        let (status, body) = http_get(server.addr(), "/trace.json");
        assert!(status.contains("200"), "{status}");
        assert!(crate::json_is_valid(&body), "bad json: {body}");

        let (status, body) = http_get(server.addr(), "/decisions.json");
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "[]");

        stats.slow().offer(crate::slowlog::SlowTxn {
            txn_id: 7,
            started_at_nanos: 1,
            total_nanos: 99,
            actions: 1,
            phases: Default::default(),
        });
        let (status, body) = http_get(server.addr(), "/slow.json");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("\"txn_id\":7"), "{body}");

        // No recorder attached: the flight ring reads as empty, not an error.
        let (status, body) = http_get(server.addr(), "/flight.json");
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "[]");
    }

    #[test]
    fn unknown_route_is_404_and_post_is_405() {
        let (server, _stats) = test_server();
        let (status, _) = http_get(server.addr(), "/nope");
        assert!(status.contains("404"), "{status}");
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.contains("405"), "{response}");
    }

    #[test]
    fn stop_is_graceful_and_idempotent() {
        let (mut server, _stats) = test_server();
        let addr = server.addr();
        let (status, _) = http_get(addr, "/metrics");
        assert!(status.contains("200"));
        server.stop();
        server.stop();
        // The listener is gone: a fresh connection is refused (or, at
        // worst, immediately dropped without a response).
        match TcpStream::connect(addr) {
            Err(_) => {}
            Ok(mut s) => {
                let _ = s.write_all(b"GET /metrics HTTP/1.1\r\n\r\n");
                let mut out = String::new();
                let _ = s.read_to_string(&mut out);
                assert!(!out.contains("200 OK"), "server still answering: {out}");
            }
        }
    }

    /// A client that sends one byte every 500 ms and never ends its request
    /// head is dropped at the connection deadline, so the scrape queued
    /// behind it is answered in time.
    #[test]
    fn a_trickling_client_cannot_hold_the_endpoint() {
        let (server, _stats) = test_server();
        let addr = server.addr();
        let stop = Arc::new(AtomicBool::new(false));
        let trickler = {
            let stop = Arc::clone(&stop);
            let mut stream = TcpStream::connect(addr).expect("connect");
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) && stream.write_all(b"G").is_ok() {
                    std::thread::sleep(Duration::from_millis(500));
                }
            })
        };
        // Let the server thread take the trickler first.
        std::thread::sleep(Duration::from_millis(200));
        let started = Instant::now();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(6)))
            .unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        let read = stream.read_to_string(&mut response);
        stop.store(true, Ordering::Relaxed);
        trickler.join().unwrap();
        assert!(
            read.is_ok(),
            "no full reply after {:?}: {read:?}",
            started.elapsed()
        );
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("plp_txn_committed_total 1"), "{response}");
        assert!(started.elapsed() < Duration::from_secs(6));
    }

    #[test]
    fn concurrent_scrapes_all_get_valid_expositions() {
        let (server, stats) = test_server();
        let addr = server.addr();
        let stop = Arc::new(AtomicBool::new(false));
        // A writer thread mutates counters while scrapers read.
        let writer = {
            let stats = Arc::clone(&stats);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    stats.txn_committed();
                    stats.latency().action_roundtrip.record(500);
                }
            })
        };
        let scrapers: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(move || {
                    for _ in 0..10 {
                        let (status, body) = http_get(addr, "/metrics");
                        assert!(status.contains("200"), "{status}");
                        let samples =
                            crate::export::parse_exposition(&body).expect("valid exposition");
                        crate::export::validate_histogram_series(&samples)
                            .expect("valid histograms");
                    }
                })
            })
            .collect();
        for s in scrapers {
            s.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }
}
