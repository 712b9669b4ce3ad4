//! The five workloads: set-up, the closed-loop clients, the measured
//! windows, the traced pass and the output checks.
//!
//! Load shape, fixed so that numbers measure the program and not the
//! scheduler: one process, an in-process server on loopback, [`CLIENTS`]
//! client threads (one connection or one session each), TATP with
//! [`SUBSCRIBERS`] subscribers, [`PARTITIONS`] partitions,
//! `ServerConfig::default()`, DLB off, no pinning, instrumentation on.  The
//! loop is closed: a client sends its next request only when a response
//! frees a pipeline slot.

use std::collections::VecDeque;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use plp_client::Connection;
use plp_core::engine::Session;
use plp_core::{Design, Engine, EngineConfig, Op, Request, Response, TableSpec};
use plp_server::{Server, ServerConfig};
use plp_wal::DurabilityMode;
use plp_workloads::fields;
use plp_workloads::tatp::{sub_fields, Tatp, SUBSCRIBER};
use plp_workloads::Workload as _;

use crate::check::{judge, Expect, Verdict};
use crate::scrape::{http_get, Delta, Scrape};
use crate::stats::{median, percentile, spread};
use crate::stream::{Rng, Stream};
use crate::trace::{self, Clock, Name, NameTotals, Span, SpanBuf, SpanIndex, NO_PARENT};

/// TATP scale: tens of MB, far beyond L2, memory resident like the paper.
/// The engine has no eviction path, so there is no "larger than the
/// program's cache" case to add.
pub const SUBSCRIBERS: u64 = 100_000;
/// Client threads; never more than the box has CPUs (2 here).
pub const CLIENTS: usize = 2;
pub const PARTITIONS: usize = 4;
/// Requests each connection keeps in flight on the wire workloads.
pub const PIPELINE_DEPTH: usize = 8;
/// A response later than this fails the request and ends its connection.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);
/// Acknowledged location updates each client remembers for the durability
/// check.
const REMEMBERED_UPDATES: usize = 1_000;
/// Keys read both ways after the run.
const CROSS_CHECK_KEYS: u64 = 1_000;
/// Requests per thread written to the trace file (totals use every span).
const TRACE_FILE_REQUESTS: u32 = 5_000;
/// Most ops one request of any workload carries.
const MAX_OPS: usize = 6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TatpWire,
    TatpInproc,
    TatpConventional,
    TatpWireDurable,
    ProfileInproc,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::TatpWire,
        Workload::TatpInproc,
        Workload::TatpConventional,
        Workload::TatpWireDurable,
        Workload::ProfileInproc,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TatpWire => "tatp_wire",
            Workload::TatpInproc => "tatp_inproc",
            Workload::TatpConventional => "tatp_conventional",
            Workload::TatpWireDurable => "tatp_wire_durable",
            Workload::ProfileInproc => "profile_inproc",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn design(self) -> Design {
        match self {
            // The baseline without lock inheritance: every transaction goes
            // through the central lock manager and latches its pages.
            Workload::TatpConventional => Design::Conventional { sli: false },
            _ => Design::PlpRegular,
        }
    }

    fn over_the_wire(self) -> bool {
        matches!(self, Workload::TatpWire | Workload::TatpWireDurable)
    }

    fn durable(self) -> bool {
        self == Workload::TatpWireDurable
    }

    fn multi_op(self) -> bool {
        self == Workload::ProfileInproc
    }
}

/// How long and how often one workload runs.
#[derive(Debug, Clone)]
pub struct Plan {
    pub seed: u64,
    /// Engines set up (each timed), warmed up and measured, one after the
    /// other.
    pub instances: usize,
    /// Warm-up of every instance before its first window.
    pub warmup: Duration,
    /// Untraced windows per instance: the only source of end-to-end numbers.
    pub untraced_windows: usize,
    pub window: Duration,
    /// The last instance runs one more window, this long, with the span
    /// recorder on, and `/metrics` is scraped before and after its clients.
    pub traced: Option<Duration>,
    pub out_dir: PathBuf,
}

impl Plan {
    /// The end-to-end run: five instances, each warmed up for half a second
    /// (tens of thousands of requests: pools, lanes and caches are warm long
    /// before) and measured over six windows that together take
    /// `seconds / 5`.  The
    /// round trip through four workers and (on the wire) nine server threads
    /// on two CPUs drifts between faster and slower regimes over seconds, so
    /// many short windows over several engines give a steadier median than
    /// a few long ones over one.
    pub fn end_to_end(seed: u64, seconds: f64, out_dir: PathBuf) -> Plan {
        Plan {
            seed,
            instances: 5,
            warmup: Duration::from_millis(500),
            untraced_windows: 6,
            window: Duration::from_secs_f64(seconds / 30.0),
            traced: None,
            out_dir,
        }
    }

    /// The per-layer run: one instance, untraced windows over `0.4 ×
    /// seconds` (the reference for the recorder's overhead), then a traced
    /// window of `0.2 × seconds`.
    pub fn per_layer(seed: u64, seconds: f64, out_dir: PathBuf) -> Plan {
        Plan {
            instances: 1,
            warmup: Duration::from_secs(2),
            untraced_windows: 4,
            window: Duration::from_secs_f64(seconds / 10.0),
            traced: Some(Duration::from_secs_f64(seconds / 5.0)),
            ..Plan::end_to_end(seed, seconds, out_dir)
        }
    }
}

/// What one window of the closed loop delivered.
#[derive(Debug, Clone, Copy)]
pub struct WindowStats {
    pub completed: u64,
    pub tps: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
}

/// Everything one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    pub workload: Workload,
    pub attempted: u64,
    pub failed: u64,
    /// `DuplicateKey` on inserting requests: legal, counted as completed.
    pub legal_aborts: u64,
    /// First failure of each kind, for the reader.
    pub notes: Vec<String>,
    pub setup_s: Vec<f64>,
    pub windows: Vec<WindowStats>,
    pub traced_window: Option<WindowStats>,
    /// In-situ per-layer values; `None` = not applicable to this workload
    /// or its family is missing.
    pub in_situ: Vec<(&'static str, Option<f64>)>,
    pub missing_families: Vec<String>,
    pub span_totals: Option<[NameTotals; Name::ALL.len()]>,
    pub spans_dropped: u64,
    pub trace_file: Option<PathBuf>,
}

impl Outcome {
    fn over_windows(&self, f: impl Fn(&WindowStats) -> f64) -> Vec<f64> {
        self.windows.iter().map(f).collect()
    }

    /// The end-to-end metrics, in [`crate::names::END_TO_END`] order: each
    /// the median over the untraced windows (or the timed set-ups).
    pub fn end_to_end(&self) -> [f64; 4] {
        [
            median(&self.over_windows(|w| w.tps)),
            median(&self.over_windows(|w| w.p50_us)),
            median(&self.over_windows(|w| w.p99_us)),
            median(&self.setup_s),
        ]
    }

    /// `(max − min) / median` across the windows, per end-to-end metric.
    pub fn window_spread(&self) -> [f64; 4] {
        [
            spread(&self.over_windows(|w| w.tps)),
            spread(&self.over_windows(|w| w.p50_us)),
            spread(&self.over_windows(|w| w.p99_us)),
            spread(&self.setup_s),
        ]
    }

    /// Samples behind each end-to-end metric: requests completed in the
    /// untraced windows, or set-ups timed.
    pub fn samples(&self) -> [u64; 4] {
        let completed = self.windows.iter().map(|w| w.completed).sum();
        [completed, completed, completed, self.setup_s.len() as u64]
    }

    /// p99.9 (median over the windows): a diagnostic, not gated.
    pub fn p999_us(&self) -> f64 {
        median(&self.over_windows(|w| w.p999_us))
    }

    pub fn legal_abort_share(&self) -> f64 {
        self.legal_aborts as f64 / self.attempted.max(1) as f64
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

/// A loaded engine with its front end, ready for clients.
struct Rig {
    engine: Arc<Engine>,
    server: Option<Server>,
    conns: Vec<Connection>,
    config: EngineConfig,
    schema: Vec<TableSpec>,
    log_dir: Option<PathBuf>,
}

/// Start an engine under `config`, load TATP into it and finish loading.
pub fn loaded_engine(config: EngineConfig) -> io::Result<(Arc<Engine>, Vec<TableSpec>)> {
    let tatp = Tatp::new(SUBSCRIBERS);
    let schema = tatp.schema();
    let engine = Engine::start_shared(config, &schema);
    tatp.load(engine.db())
        .map_err(|e| io::Error::other(format!("load TATP: {e}")))?;
    engine.finish_loading();
    Ok((engine, schema))
}

/// Where `engine` serves `/metrics`.
pub fn obs_addr(engine: &Engine) -> io::Result<SocketAddr> {
    engine
        .obs_addr()
        .ok_or_else(|| io::Error::other("observability endpoint is not up (obs-stub build?)"))
}

/// Engine start + load + `finish_loading`, plus — where the workload has
/// them — log-directory creation (and the load's log on disk), server bind
/// and client connects.
fn set_up(workload: Workload, plan: &Plan) -> io::Result<Rig> {
    let mut config = EngineConfig::new(workload.design())
        .with_partitions(PARTITIONS)
        .with_obs_endpoint("127.0.0.1:0");
    let mut log_dir = None;
    if workload.durable() {
        let dir = plan.out_dir.join(format!("wal_{}", workload.name()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        config = config
            .with_durability(DurabilityMode::Strict)
            .with_log_dir(&dir);
        log_dir = Some(dir);
    }
    let (engine, schema) = loaded_engine(config.clone())?;
    if workload.durable() {
        // The load is logged too.  Set-up is over when that log is on disk,
        // not while the flusher still has a million records to write into
        // the measured windows.
        engine.db().log_manager().flush_now();
    }
    let mut rig = Rig {
        engine,
        server: None,
        conns: Vec::new(),
        config,
        schema,
        log_dir,
    };
    if workload.over_the_wire() {
        let server = Server::serve(Arc::clone(&rig.engine), ServerConfig::default())?;
        for _ in 0..CLIENTS {
            let conn = Connection::connect(server.addr())?;
            conn.stream().set_read_timeout(Some(REQUEST_TIMEOUT))?;
            rig.conns.push(conn);
        }
        rig.server = Some(server);
    }
    Ok(rig)
}

impl Rig {
    /// Stop the front end and hand back the engine alone (every other
    /// `Arc` clone lived in the server's executors).
    fn into_engine(mut self) -> (Engine, EngineConfig, Vec<TableSpec>, Option<PathBuf>) {
        self.conns.clear();
        if let Some(mut server) = self.server.take() {
            server.stop();
        }
        let engine = Arc::try_unwrap(self.engine).expect("the server held the only other clones");
        (engine, self.config, self.schema, self.log_dir)
    }

    fn tear_down(self) -> io::Result<()> {
        let (engine, _, _, log_dir) = self.into_engine();
        shut_down(engine);
        if let Some(dir) = log_dir {
            std::fs::remove_dir_all(dir)?;
        }
        Ok(())
    }

    fn scrape(&self) -> io::Result<Scrape> {
        // Queue spins, parks and wakeups are folded into the registry on
        // demand; without this the exposition would show stale zeros.
        self.engine.db().sync_channel_metrics();
        Ok(Scrape::parse(&http_get(
            obs_addr(&self.engine)?,
            "/metrics",
        )?))
    }
}

/// Shut an engine down and leave none of its threads behind.
///
/// `Engine::shutdown` does not stop the WAL group-commit flusher of an
/// engine with a log device: the flusher thread holds an `Arc` of its own
/// `LogManager`, so the manager is never dropped, and the thread keeps
/// waking every 100 µs for the rest of the process.  Six of them (five
/// instances and the recovered engine) cost the next workload of a ledger
/// run a fifth of its throughput, so the benchmark stops the flusher itself.
fn shut_down(mut engine: Engine) {
    engine.shutdown();
    engine.db().log_manager().stop_flusher();
}

// ---------------------------------------------------------------------
// Schedule and per-client log
// ---------------------------------------------------------------------

/// Warm-up, then equal untraced windows back to back, then the traced
/// window if there is one.
#[derive(Debug, Clone, Copy)]
struct Schedule {
    warmup_ns: u64,
    window_ns: u64,
    untraced: usize,
    /// Length of the traced window; 0 when the run has none.
    traced_ns: u64,
}

impl Schedule {
    fn new(plan: &Plan, traced: Option<Duration>) -> Self {
        Schedule {
            warmup_ns: plan.warmup.as_nanos() as u64,
            window_ns: plan.window.as_nanos() as u64,
            untraced: plan.untraced_windows,
            traced_ns: traced.map_or(0, |t| t.as_nanos() as u64),
        }
    }

    fn traced_from_ns(&self) -> u64 {
        self.warmup_ns + self.window_ns * self.untraced as u64
    }

    fn end_ns(&self) -> u64 {
        self.traced_from_ns() + self.traced_ns
    }

    /// Windows in all; the traced one, if any, is the last.
    fn windows(&self) -> usize {
        self.untraced + usize::from(self.traced_ns > 0)
    }

    /// The window `t_ns` falls into; `None` during warm-up and drain.
    fn window_of(&self, t_ns: u64) -> Option<usize> {
        if t_ns < self.warmup_ns || t_ns >= self.end_ns() {
            None
        } else if t_ns >= self.traced_from_ns() {
            Some(self.untraced)
        } else {
            Some(((t_ns - self.warmup_ns) / self.window_ns) as usize)
        }
    }

    fn traced_at(&self, t_ns: u64) -> bool {
        (self.traced_from_ns()..self.end_ns()).contains(&t_ns)
    }

    fn window_len(&self, window: usize) -> Duration {
        Duration::from_nanos(if window < self.untraced {
            self.window_ns
        } else {
            self.traced_ns
        })
    }
}

/// What one client thread brings back.
struct ClientLog {
    /// Client-observed latencies (ns, saturating) per window.
    windows: Vec<Vec<u32>>,
    attempted: u64,
    failed: u64,
    legal_aborts: u64,
    first_failure: Option<String>,
    /// The most recent acknowledged location updates, oldest first.
    acked_updates: VecDeque<(u64, u64)>,
    remember_updates: bool,
    spans: Option<SpanBuf>,
}

impl ClientLog {
    fn new(sched: &Schedule, remember_updates: bool) -> Self {
        // Room for ~300k requests/s per client, so pushes rarely reallocate.
        let room = |window| (sched.window_len(window).as_secs_f64() * 300_000.0) as usize;
        ClientLog {
            windows: (0..sched.windows())
                .map(|w| Vec::with_capacity(room(w)))
                .collect(),
            attempted: 0,
            failed: 0,
            legal_aborts: 0,
            first_failure: None,
            acked_updates: VecDeque::with_capacity(REMEMBERED_UPDATES + 1),
            remember_updates,
            // Three to five spans per request; 400k spans/s per client
            // covers every workload on this box, and a full buffer only
            // stops recording (counted in `spans_dropped`).
            spans: (sched.traced_ns > 0).then(|| {
                SpanBuf::with_capacity((sched.traced_ns as f64 * 1e-9 * 400_000.0) as usize)
            }),
        }
    }

    fn fail(&mut self, requests: u64, why: impl FnOnce() -> String) {
        self.failed += requests;
        if self.first_failure.is_none() {
            self.first_failure = Some(why());
        }
    }

    /// Judge one response and record its latency in the window it completed
    /// in.
    fn complete(
        &mut self,
        sched: &Schedule,
        expects: &[Expect],
        response: &Response,
        sent_ns: u64,
        done_ns: u64,
    ) {
        match judge(expects, response) {
            Verdict::Correct => {
                if self.remember_updates {
                    for expect in expects {
                        if let Expect::Updated { s_id, vlr } = *expect {
                            self.acked_updates.push_back((s_id, vlr));
                            if self.acked_updates.len() > REMEMBERED_UPDATES {
                                self.acked_updates.pop_front();
                            }
                        }
                    }
                }
            }
            Verdict::LegalAbort => self.legal_aborts += 1,
            Verdict::Failed => self.fail(1, || format!("{expects:?} answered by {response:?}")),
        }
        if let Some(window) = sched.window_of(done_ns) {
            let latency = u32::try_from(done_ns - sent_ns).unwrap_or(u32::MAX);
            self.windows[window].push(latency);
        }
    }
}

// ---------------------------------------------------------------------
// Clients
// ---------------------------------------------------------------------

/// One pipelined request on the wire.
#[derive(Clone, Copy)]
struct InFlight {
    id: u64,
    sent_ns: u64,
    expect: Expect,
    root: SpanIndex,
    request: u32,
}

/// Record a child span if its request is being traced.
fn child_span(log: &mut ClientLog, name: Name, flight: &InFlight, start_ns: u64, end_ns: u64) {
    if flight.root == NO_PARENT {
        return;
    }
    if let Some(spans) = log.spans.as_mut() {
        spans.push(Span {
            start_ns,
            end_ns,
            request_id: flight.request,
            parent: flight.root,
            name,
        });
    }
}

/// Closed loop over one connection: keep [`PIPELINE_DEPTH`] requests in
/// flight, send one more for every response until the schedule ends, then
/// collect what is still out.
fn wire_client(
    conn: &mut Connection,
    stream: &mut Stream,
    sched: &Schedule,
    clock: Clock,
    log: &mut ClientLog,
) {
    let mut flights: [Option<InFlight>; PIPELINE_DEPTH] = [None; PIPELINE_DEPTH];
    // Traced requests are numbered from 0, so the trace file's cut-off
    // keeps the first ones of the traced window.
    let mut traced_requests = 0u32;
    let mut issue = |conn: &mut Connection, log: &mut ClientLog| -> io::Result<InFlight> {
        let t0 = clock.now_ns();
        let op = stream.next_op();
        let t1 = clock.now_ns();
        let id = conn.send(&op)?;
        let mut flight = InFlight {
            id,
            sent_ns: t1,
            expect: Expect::of(&op),
            root: NO_PARENT,
            request: traced_requests,
        };
        log.attempted += 1;
        if sched.traced_at(t0) {
            let t2 = clock.now_ns();
            traced_requests += 1;
            if let Some(spans) = log.spans.as_mut() {
                flight.root = spans.open_root(flight.request, t0);
            }
            child_span(log, Name::LoadgenGen, &flight, t0, t1);
            child_span(log, Name::ClientSend, &flight, t1, t2);
        }
        Ok(flight)
    };
    let flush = |conn: &mut Connection, log: &mut ClientLog, flight: &InFlight| {
        let traced = flight.root != NO_PARENT;
        let t0 = if traced { clock.now_ns() } else { 0 };
        let result = conn.flush();
        if traced {
            child_span(log, Name::ClientFlush, flight, t0, clock.now_ns());
        }
        result
    };

    let mut run = || -> io::Result<()> {
        for slot in flights.iter_mut() {
            *slot = Some(issue(conn, log)?);
        }
        conn.flush()?;
        let mut in_flight = PIPELINE_DEPTH;
        while in_flight > 0 {
            let tracing = log.spans.is_some();
            let t0 = if tracing { clock.now_ns() } else { 0 };
            let (id, response) = conn.recv()?;
            let done_ns = clock.now_ns();
            let slot = flights
                .iter_mut()
                .find(|f| f.is_some_and(|f| f.id == id))
                .ok_or_else(|| io::Error::other(format!("response to unknown request {id}")))?;
            let flight = slot.take().expect("found above");
            log.complete(sched, &[flight.expect], &response, flight.sent_ns, done_ns);
            if flight.root != NO_PARENT {
                child_span(log, Name::ClientRecv, &flight, t0, done_ns);
                let end = clock.now_ns();
                if let Some(spans) = log.spans.as_mut() {
                    spans.close(flight.root, end);
                }
            }
            if done_ns < sched.end_ns() {
                let next = issue(conn, log)?;
                flush(conn, log, &next)?;
                *slot = Some(next);
            } else {
                in_flight -= 1;
            }
        }
        Ok(())
    };
    if let Err(e) = run() {
        // Whatever was still out is lost with the connection.
        let lost = flights.iter().flatten().count() as u64;
        log.fail(lost.max(1), || format!("connection failed: {e}"));
    }
}

/// Closed loop over one session: one request at a time.
fn inproc_client(
    session: &mut Session<'_>,
    stream: &mut Stream,
    multi_op: bool,
    sched: &Schedule,
    clock: Clock,
    log: &mut ClientLog,
) {
    let mut traced_requests = 0u32;
    let mut t0 = clock.now_ns();
    while t0 < sched.end_ns() {
        let request = if multi_op {
            stream.next_profile()
        } else {
            Request::single(stream.next_op())
        };
        let mut expects = [Expect::Deleted; MAX_OPS];
        let ops = request.ops.len();
        for (expect, op) in expects.iter_mut().zip(&request.ops) {
            *expect = Expect::of(op);
        }
        let t1 = clock.now_ns();
        let response = session.run(request);
        let t2 = clock.now_ns();
        log.attempted += 1;
        log.complete(sched, &expects[..ops], &response, t1, t2);
        if sched.traced_at(t0) {
            let end = clock.now_ns();
            if let Some(spans) = log.spans.as_mut() {
                let root = spans.open_root(traced_requests, t0);
                for (name, start_ns, end_ns) in
                    [(Name::LoadgenGen, t0, t1), (Name::CoreSessionRun, t1, t2)]
                {
                    spans.push(Span {
                        start_ns,
                        end_ns,
                        request_id: traced_requests,
                        parent: root,
                        name,
                    });
                }
                spans.close(root, end);
            }
            traced_requests += 1;
            t0 = end;
        } else {
            t0 = t2;
        }
    }
}

// ---------------------------------------------------------------------
// One workload run
// ---------------------------------------------------------------------

fn window_stats(mut latencies: Vec<u32>, window: Duration) -> WindowStats {
    latencies.sort_unstable();
    let us = |q| percentile(&latencies, q).map_or(f64::NAN, |ns| f64::from(ns) / 1e3);
    WindowStats {
        completed: latencies.len() as u64,
        tps: latencies.len() as f64 / window.as_secs_f64(),
        p50_us: us(0.50),
        p99_us: us(0.99),
        p999_us: us(0.999),
    }
}

/// Run one workload according to `plan`.  `Err` is an environment failure
/// (cannot bind, cannot write the log directory); request failures are
/// counted in the [`Outcome`].
///
/// Every instance is a full, timed set-up followed by its own warm-up and
/// windows, so a run's medians are taken over several engines, thread
/// placements and moments of the host rather than over one.
pub fn run_workload(workload: Workload, plan: &Plan) -> io::Result<Outcome> {
    std::fs::create_dir_all(&plan.out_dir)?;
    let mut outcome = Outcome {
        workload,
        attempted: 0,
        failed: 0,
        legal_aborts: 0,
        notes: Vec::new(),
        setup_s: Vec::with_capacity(plan.instances),
        windows: Vec::new(),
        traced_window: None,
        in_situ: Vec::new(),
        missing_families: Vec::new(),
        span_totals: None,
        spans_dropped: 0,
        trace_file: None,
    };
    for instance in 0..plan.instances.max(1) {
        let last = instance + 1 == plan.instances.max(1);
        let started = Instant::now();
        let mut rig = set_up(workload, plan)?;
        outcome.setup_s.push(started.elapsed().as_secs_f64());
        let traced = plan.traced.filter(|_| last);
        let acked = drive(&mut rig, plan, instance, traced, &mut outcome)?;
        if !last {
            rig.tear_down()?;
            continue;
        }
        cross_check(&mut rig, plan, &mut outcome)?;
        if workload.durable() {
            let recover_s = durability_check(rig, &acked, &mut outcome)?;
            if plan.traced.is_some() {
                outcome.in_situ.push(("wal.recover_s", Some(recover_s)));
            }
        } else {
            rig.tear_down()?;
        }
    }
    Ok(outcome)
}

/// Run the clients against one instance and fold what they bring back into
/// `outcome`.  Returns each client's remembered acknowledged updates.
fn drive(
    rig: &mut Rig,
    plan: &Plan,
    instance: usize,
    traced: Option<Duration>,
    outcome: &mut Outcome,
) -> io::Result<Vec<Vec<(u64, u64)>>> {
    let workload = outcome.workload;
    let sched = Schedule::new(plan, traced);
    let before = traced.map(|_| rig.scrape()).transpose()?;
    let mut logs: Vec<ClientLog> = (0..CLIENTS)
        .map(|_| ClientLog::new(&sched, workload.durable()))
        .collect();
    // Instance 0 runs the stream the golden hash pins; later instances run
    // streams of their own, so a run does not replay one sequence.
    let seed = plan.seed.wrapping_add(instance as u64 * 0x9E37_79B9);
    let mut streams: Vec<Stream> = (0..CLIENTS)
        .map(|c| Stream::new(seed, c, CLIENTS, SUBSCRIBERS))
        .collect();
    let clock = Clock::start();
    {
        let engine = &*rig.engine;
        let mut conns = rig.conns.iter_mut();
        std::thread::scope(|scope| {
            for (log, stream) in logs.iter_mut().zip(streams.iter_mut()) {
                let conn = conns.next();
                scope.spawn(move || match conn {
                    Some(conn) => wire_client(conn, stream, &sched, clock, log),
                    None => {
                        let mut session = engine.session();
                        inproc_client(
                            &mut session,
                            stream,
                            workload.multi_op(),
                            &sched,
                            clock,
                            log,
                        );
                    }
                });
            }
        });
    }
    let after = traced.map(|_| rig.scrape()).transpose()?;

    outcome.attempted += logs.iter().map(|l| l.attempted).sum::<u64>();
    outcome.failed += logs.iter().map(|l| l.failed).sum::<u64>();
    outcome.legal_aborts += logs.iter().map(|l| l.legal_aborts).sum::<u64>();
    outcome
        .notes
        .extend(logs.iter_mut().filter_map(|l| l.first_failure.take()));
    for window in 0..sched.windows() {
        let merged: Vec<u32> = logs
            .iter_mut()
            .flat_map(|l| std::mem::take(&mut l.windows[window]))
            .collect();
        let stats = window_stats(merged, sched.window_len(window));
        if window == sched.untraced {
            outcome.traced_window = Some(stats);
        } else {
            outcome.windows.push(stats);
        }
    }

    if let (Some(before), Some(after)) = (before, after) {
        let bufs: Vec<SpanBuf> = logs.iter_mut().filter_map(|l| l.spans.take()).collect();
        let totals = trace::totals(&bufs);
        outcome.spans_dropped = bufs.iter().map(SpanBuf::dropped).sum();
        let path = plan.out_dir.join(format!("trace_{}.json", workload.name()));
        let rows = PIPELINE_DEPTH as u32;
        std::fs::write(&path, trace::chrome_json(&bufs, TRACE_FILE_REQUESTS, rows))?;
        outcome.trace_file = Some(path);
        outcome.span_totals = Some(totals);
        let mut delta = Delta::new(&before, &after);
        outcome.in_situ = in_situ(&mut delta, &totals, outcome);
        outcome.missing_families = delta.missing();
    }
    Ok(logs
        .iter()
        .map(|l| l.acked_updates.iter().copied().collect())
        .collect())
}

/// The in-situ per-layer values of one traced run: deltas of the exposition
/// looked up by family name, and means of the benchmark's own spans.
fn in_situ(
    d: &mut Delta<'_>,
    spans: &[NameTotals; Name::ALL.len()],
    outcome: &Outcome,
) -> Vec<(&'static str, Option<f64>)> {
    const COMMITTED: &str = "plp_txn_committed_total";
    const ABORTED: &str = "plp_txn_aborted_total";
    let txns = match (d.get(COMMITTED), d.get(ABORTED)) {
        (Some(c), Some(a)) if c + a > 0.0 => Some(c + a),
        _ => None,
    };
    let per_txn = |d: &mut Delta<'_>, family: &str, scale: f64| {
        let value = d.get(family);
        Some(value? / txns? * scale)
    };
    let phase_us = |d: &mut Delta<'_>, phase: &str| {
        let sum = d.get(&format!("plp_latency_{phase}_nanoseconds_sum"));
        Some(sum? / txns? * 1e-3)
    };
    let mean_us = |d: &mut Delta<'_>, histogram: &str| {
        d.ratio(
            &format!("plp_latency_{histogram}_nanoseconds_sum"),
            &format!("plp_latency_{histogram}_nanoseconds_count"),
            1e-3,
        )
    };
    let span_mean = |name: Name, scale: f64| spans[name as usize].mean_ns().map(|ns| ns * scale);

    // `plp_msg_actions_total` counts dispatched messages; a batch message
    // carries `batch_actions / batches` actions.
    let messages = d.get("plp_msg_actions_total");
    let batches = d.get("plp_msg_batches_total");
    let batch_actions = d.get("plp_msg_batch_actions_total");
    let actions = match (messages, batches, batch_actions) {
        (Some(m), Some(b), Some(ba)) if m > 0.0 => Some(m - b + ba),
        _ => None,
    };
    let lane_hits = d.get("plp_msg_lane_hits_total");
    let lane_fallbacks = d.get("plp_msg_lane_fallbacks_total");
    let lane_hit_share = match (lane_hits, lane_fallbacks) {
        (Some(h), Some(f)) if h + f > 0.0 => Some(h / (h + f)),
        _ => None,
    };
    let trace_overhead = outcome.traced_window.and_then(|traced| {
        let untraced = median(&outcome.over_windows(|w| w.tps));
        (traced.tps > 0.0).then(|| untraced / traced.tps)
    });

    vec![
        (
            "server.bytes_in_per_req",
            d.ratio(
                "plp_server_bytes_in_total",
                "plp_server_frames_decoded_total",
                1.0,
            ),
        ),
        (
            "server.bytes_out_per_req",
            d.ratio(
                "plp_server_bytes_out_total",
                "plp_server_responses_sent_total",
                1.0,
            ),
        ),
        ("server.request_us_mean", mean_us(d, "server_request")),
        (
            "server.decode_errors",
            d.get("plp_server_decode_errors_total"),
        ),
        ("client.send_ns", span_mean(Name::ClientSend, 1.0)),
        ("client.flush_ns", span_mean(Name::ClientFlush, 1.0)),
        ("client.recv_ns", span_mean(Name::ClientRecv, 1.0)),
        ("core.session_run_us", span_mean(Name::CoreSessionRun, 1e-3)),
        (
            "core.actions_per_txn",
            actions.zip(txns).map(|(a, t)| a / t),
        ),
        (
            "core.roundtrip_us_per_action",
            d.ratio(
                "plp_msg_roundtrip_nanoseconds_total",
                "plp_msg_actions_total",
                1e-3,
            ),
        ),
        (
            "core.phase_queue_wait_us_per_txn",
            phase_us(d, "phase_queue_wait"),
        ),
        (
            "core.phase_execute_us_per_txn",
            phase_us(d, "phase_execute"),
        ),
        (
            "core.phase_reply_wait_us_per_txn",
            phase_us(d, "phase_reply_wait"),
        ),
        ("core.parks_per_txn", per_txn(d, "plp_msg_parks_total", 1.0)),
        (
            "core.wakeups_per_txn",
            per_txn(d, "plp_msg_wakeups_total", 1.0),
        ),
        (
            "core.enqueue_spins_per_txn",
            per_txn(d, "plp_msg_enqueue_spins_total", 1.0),
        ),
        ("core.lane_hit_share", lane_hit_share),
        (
            "core.batch_actions_share",
            batch_actions.zip(actions).map(|(ba, a)| ba / a),
        ),
        (
            "lock.phase_lock_wait_us_per_txn",
            phase_us(d, "phase_lock_wait"),
        ),
        ("btree.smo_per_ktxn", per_txn(d, "plp_smo_total", 1e3)),
        (
            "storage.latches_acquired_per_txn",
            per_txn(d, "plp_latch_acquired_total", 1.0),
        ),
        (
            "storage.latches_bypassed_per_txn",
            per_txn(d, "plp_latch_bypassed_total", 1.0),
        ),
        (
            "storage.latch_contended_share",
            d.ratio("plp_latch_contended_total", "plp_latch_acquired_total", 1.0),
        ),
        (
            "txn.abort_share",
            d.get(ABORTED).zip(txns).map(|(a, t)| a / t),
        ),
        (
            "wal.fsyncs_per_ktxn",
            per_txn(d, "plp_wal_fsyncs_total", 1e3),
        ),
        (
            "wal.records_per_fsync",
            d.ratio("plp_wal_flushed_records_total", "plp_wal_fsyncs_total", 1.0),
        ),
        (
            "wal.bytes_per_txn",
            per_txn(d, "plp_wal_flushed_bytes_total", 1.0),
        ),
        ("wal.fsync_us_mean", mean_us(d, "wal_fsync")),
        (
            "wal.phase_wal_flush_us_per_txn",
            phase_us(d, "phase_wal_flush"),
        ),
        ("loadgen.trace_overhead_ratio", trace_overhead),
    ]
}

// ---------------------------------------------------------------------
// Output checks after the run
// ---------------------------------------------------------------------

fn sampled_read(i: u64, s_id: u64) -> Op {
    if i.is_multiple_of(2) {
        Op::Get {
            table: SUBSCRIBER,
            key: s_id,
        }
    } else {
        Stream::call_forwarding_range(s_id)
    }
}

/// Read sampled keys through the wire and through `Session::run` on the
/// same, now idle, engine: the two paths must agree byte for byte.
fn cross_check(rig: &mut Rig, plan: &Plan, outcome: &mut Outcome) -> io::Result<()> {
    if rig.server.is_none() {
        rig.server = Some(Server::serve(
            Arc::clone(&rig.engine),
            ServerConfig::default(),
        )?);
    }
    let addr = rig.server.as_ref().expect("started above").addr();
    let mut conn = Connection::connect(addr)?;
    conn.stream().set_read_timeout(Some(REQUEST_TIMEOUT))?;
    let mut session = rig.engine.session();
    let mut rng = Rng::new(plan.seed ^ 0xC055_C4EC);
    for i in 0..CROSS_CHECK_KEYS {
        let op = sampled_read(i, rng.below(SUBSCRIBERS));
        let expect = [Expect::of(&op)];
        let direct = session.run(Request::single(op.clone()));
        let wired = conn.call(&op)?;
        outcome.attempted += 2;
        let agree = wired == direct && judge(&expect, &direct) == Verdict::Correct;
        if !agree {
            outcome.failed += 1;
            if !outcome.notes.iter().any(|n| n.starts_with("cross-check")) {
                outcome.notes.push(format!(
                    "cross-check: {op:?} reads {wired:?} over the wire, {direct:?} in process"
                ));
            }
        }
    }
    Ok(())
}

fn read_location(session: &mut Session<'_>, s_id: u64) -> Option<u64> {
    let op = Op::Get {
        table: SUBSCRIBER,
        key: s_id,
    };
    match session.run(Request::single(op)) {
        Response::Ok(outputs) => {
            let row = outputs.first()?.rows.first()?;
            (row.len() == sub_fields::RECORD_SIZE)
                .then(|| fields::get_u64(row, sub_fields::VLR_LOCATION))
        }
        Response::Err { .. } => None,
    }
}

/// Every remembered acknowledged update must be readable after the engine
/// is shut down and recovered from its log directory.  Requests of one
/// pipeline may commit in either order, so the value a key must hold is the
/// one the live engine held before shutdown — which must itself be a value
/// its owner had acknowledged.  Returns the recovery time in seconds.
fn durability_check(rig: Rig, acked: &[Vec<(u64, u64)>], outcome: &mut Outcome) -> io::Result<f64> {
    let mut keys: Vec<u64> = acked.iter().flatten().map(|&(s_id, _)| s_id).collect();
    keys.sort_unstable();
    keys.dedup();
    let mut live = Vec::with_capacity(keys.len());
    {
        let mut session = rig.engine.session();
        for &s_id in &keys {
            let value = read_location(&mut session, s_id);
            let acknowledged = acked
                .iter()
                .flatten()
                .any(|&(k, vlr)| k == s_id && Some(vlr) == value);
            outcome.attempted += 1;
            if !acknowledged {
                outcome.failed += 1;
                outcome.notes.push(format!(
                    "durability: subscriber {s_id} holds {value:?}, never acknowledged"
                ));
            }
            live.push(value);
        }
    }
    let (engine, config, schema, log_dir) = rig.into_engine();
    shut_down(engine);
    let log_dir = log_dir.expect("a durable workload has a log directory");

    let started = Instant::now();
    let (recovered, _report) = Engine::recover(&log_dir, config, &schema)
        .map_err(|e| io::Error::other(format!("recover from {}: {e}", log_dir.display())))?;
    let recover_s = started.elapsed().as_secs_f64();
    {
        let mut session = recovered.session();
        for (&s_id, &before) in keys.iter().zip(&live) {
            let value = read_location(&mut session, s_id);
            outcome.attempted += 1;
            if value != before {
                outcome.failed += 1;
                outcome.notes.push(format!(
                    "durability: subscriber {s_id} held {before:?} before shutdown, \
                     {value:?} after recovery"
                ));
            }
        }
    }
    shut_down(recovered);
    if outcome.failed == 0 {
        std::fs::remove_dir_all(&log_dir)?;
    }
    Ok(recover_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(untraced_windows: usize) -> Plan {
        Plan {
            seed: 1,
            instances: 1,
            warmup: Duration::from_millis(200),
            untraced_windows,
            window: Duration::from_millis(100),
            traced: None,
            out_dir: PathBuf::from("unused"),
        }
    }

    #[test]
    fn schedule_maps_times_to_windows() {
        let s = Schedule::new(&plan(3), Some(Duration::from_millis(250)));
        assert_eq!((s.windows(), s.end_ns()), (4, 750_000_000));
        assert_eq!(s.window_of(0), None, "warm-up");
        assert_eq!(s.window_of(199_999_999), None);
        assert_eq!(s.window_of(200_000_000), Some(0));
        assert_eq!(s.window_of(499_999_999), Some(2));
        assert_eq!(s.window_of(500_000_000), Some(3));
        assert_eq!(
            s.window_of(749_999_999),
            Some(3),
            "the traced window is longer"
        );
        assert_eq!(s.window_of(750_000_000), None, "drain");
        assert!(!s.traced_at(100_000_000) && !s.traced_at(450_000_000));
        assert!(s.traced_at(500_000_000) && s.traced_at(700_000_000));
        assert!(!s.traced_at(750_000_000));
        assert_eq!(s.window_len(2), Duration::from_millis(100));
        assert_eq!(s.window_len(3), Duration::from_millis(250));
        let untraced = Schedule::new(&plan(3), None);
        assert_eq!((untraced.windows(), untraced.end_ns()), (3, 500_000_000));
        assert!(!untraced.traced_at(450_000_000) && !untraced.traced_at(500_000_000));
        assert_eq!(untraced.window_of(500_000_000), None);
    }

    #[test]
    fn window_stats_turn_latencies_into_rates_and_percentiles() {
        let latencies: Vec<u32> = (1..=1_000).map(|i| i * 1_000).collect();
        let w = window_stats(latencies, Duration::from_millis(500));
        assert_eq!(w.completed, 1_000);
        assert_eq!(w.tps, 2_000.0);
        assert_eq!((w.p50_us, w.p99_us, w.p999_us), (500.0, 990.0, 999.0));
        assert!(window_stats(Vec::new(), Duration::from_secs(1))
            .p50_us
            .is_nan());
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("tatp"), None);
    }
}
