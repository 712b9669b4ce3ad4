//! Runtime of the offline loom-subset model checker.
//!
//! One *model run* ([`explore`]) executes the user closure many times.  Each
//! execution runs the model's threads as real OS threads, but a baton
//! protocol guarantees **exactly one runs at a time**; every visible
//! operation (atomic access, mutex, condvar, park/unpark, spawn/join, yield)
//! first reaches a *schedule point* where the runtime decides which thread
//! continues.  Every such decision — and every weak-memory value choice — is
//! funnelled through [`ExecState::choose`], so an execution is fully
//! described by its choice vector.  Exploration is a depth-first walk over
//! those vectors: re-run with the recorded prefix, take the first untried
//! alternative at the deepest unexhausted choice point, repeat until the
//! tree is exhausted.
//!
//! # Interleaving exploration
//!
//! Scheduling is *bounded-preemption* DFS: switching away from a thread that
//! could have continued costs one unit of the preemption budget
//! ([`Config::preemption_bound`]); voluntary switches (blocking, yielding,
//! finishing) are free.  This explores every execution with up to N
//! preemptions — the bug-dense region (empirically almost all concurrency
//! bugs need ≤ 2 preemptions) — while keeping the tree polynomial.
//!
//! # Memory model
//!
//! Each thread carries a vector clock; each atomic location keeps its full
//! store history in modification order.  A store records the storing
//! thread's clock (`know`) and, for `Release`/`AcqRel`/`SeqCst` stores, a
//! release clock that `Acquire` loads join.  A load may read any store not
//! *hidden* from it — a store is hidden when a modification-order-later
//! store to the same location already happens-before the loading thread —
//! and the checker branches over the candidates, which is how a `Relaxed`
//! publish bug manifests as an execution that reads stale data.
//! Read-modify-writes always read the latest store (C11 atomicity) and
//! continue the release sequence of the store they replace.
//!
//! ## Deliberate approximations (all *stronger* than C11, never weaker for
//! the protocols in this tree)
//!
//! * `SeqCst` operations synchronize through a single global clock: stores,
//!   RMWs and fences join it both ways, loads join it one way.  This gives
//!   the C++20 SC-fence guarantees the Dekker patterns in
//!   `crossbeam::channel` rely on, but orders *unrelated* SC operations more
//!   strongly than the standard requires.
//! * `Acquire`/`Release` *fences* are treated as `SeqCst` fences (the
//!   workspace only issues `SeqCst` fences).
//! * `compare_exchange_weak` never fails spuriously, condvars never wake
//!   spuriously, and `park` never returns spuriously.  All call sites loop,
//!   so these would only add interleavings equivalent to ones already
//!   explored via scheduling.
//! * Condvar `wait_timeout` never times out and `recv_timeout`-style
//!   deadlines are invisible: model tests must not rely on timeouts for
//!   progress.
//! * A thread takes at most [`STALE_BOUND`] consecutive stale loads from one
//!   location before being forced to see the newest store — C11's
//!   eventual-visibility guarantee, and what makes spin loops generate a
//!   finite choice tree.
//!
//! # Failure detection
//!
//! A panic in any model thread (assertion failure), a state where every
//! live thread is blocked (deadlock — which is also how a *lost wakeup*
//! manifests), or an execution exceeding [`Config::max_steps`] (livelock)
//! aborts the run; [`explore`] reports the failing execution's choice
//! vector so it can be reasoned about and `model` panics with it.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::{
    Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, OnceLock,
};

// ---------------------------------------------------------------------------
// Configuration and results
// ---------------------------------------------------------------------------

/// Exploration bounds.  The defaults explore every interleaving with at most
/// two preemptions, which is exhaustive for the protocol tests in this tree
/// while keeping the choice tree small.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Maximum number of *involuntary* context switches per execution.
    pub preemption_bound: usize,
    /// Hard cap on explored executions; exceeding it fails the run loudly
    /// (a silently truncated exploration would rot into a no-op check).
    pub max_iterations: u64,
    /// Hard cap on schedule points in a single execution; exceeding it is
    /// reported as a livelock.
    pub max_steps: usize,
    /// Maximum live model threads.
    pub max_threads: usize,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            preemption_bound: 2,
            max_iterations: 500_000,
            max_steps: 50_000,
            max_threads: 8,
        }
    }
}

/// Summary of a completed (bug-free) exploration.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    /// Executions (interleavings) explored.
    pub iterations: u64,
    /// Total nondeterministic choices taken across all executions.
    pub choice_points: u64,
    /// Longest choice vector seen.
    pub max_depth: usize,
}

// ---------------------------------------------------------------------------
// Vector clocks
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct VClock(Vec<u32>);

impl VClock {
    fn get(&self, i: usize) -> u32 {
        self.0.get(i).copied().unwrap_or(0)
    }

    fn set(&mut self, i: usize, v: u32) {
        if self.0.len() <= i {
            self.0.resize(i + 1, 0);
        }
        self.0[i] = v;
    }

    fn tick(&mut self, i: usize) {
        self.set(i, self.get(i) + 1);
    }

    fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a = (*a).max(*b);
        }
    }
}

// ---------------------------------------------------------------------------
// Per-location store history
// ---------------------------------------------------------------------------

struct Store {
    val: u64,
    /// Storing thread (`usize::MAX` for the initial value, which
    /// happens-before everything).
    who: usize,
    /// The storing thread's clock at store time; used for the hidden-store
    /// rule.
    know: VClock,
    /// Release clock carried to `Acquire` loads (None for `Relaxed`).
    rel: Option<VClock>,
}

/// Consecutive stale (non-newest) loads a thread may take from one location
/// before it is forced to observe the newest store.  Models C11's
/// eventual-visibility guarantee ("an implementation should ensure that the
/// latest value ... becomes visible in a finite period of time") and is what
/// keeps spin loops from generating an infinite choice tree.
const STALE_BOUND: u32 = 3;

struct Location {
    stores: Vec<Store>,
    /// Per-thread coherence floor: the lowest store index each thread may
    /// still read (raised by its own reads and writes).
    floor: HashMap<usize, usize>,
    /// Per-thread count of consecutive stale loads (see [`STALE_BOUND`]).
    streak: HashMap<usize, u32>,
}

impl Location {
    fn new(initial: u64) -> Self {
        Self {
            stores: vec![Store {
                val: initial,
                who: usize::MAX,
                know: VClock::default(),
                rel: None,
            }],
            floor: HashMap::new(),
            streak: HashMap::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BlockedOn {
    Mutex(usize),
    Condvar(usize),
    Park,
    Join(usize),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    Runnable,
    Blocked(BlockedOn),
    Done,
}

struct ThreadState {
    status: Status,
    /// Set by `yield_now`; a yielded thread is only scheduled when every
    /// runnable thread has yielded (this is what makes spin loops converge).
    yielded: bool,
    clock: VClock,
    park_token: bool,
    /// Causality carried by `unpark`, joined when `park` returns.
    unpark_clock: VClock,
    baton: Arc<Baton>,
    final_clock: Option<VClock>,
}

#[derive(Default)]
struct MutexState {
    held_by: Option<usize>,
    /// Release clock left by the last unlock.
    clock: VClock,
}

// ---------------------------------------------------------------------------
// Choice points
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
struct ChoicePoint {
    options: usize,
    chosen: usize,
    label: &'static str,
}

// ---------------------------------------------------------------------------
// Baton: hands the single execution token between model threads
// ---------------------------------------------------------------------------

pub(crate) struct Baton {
    flag: StdMutex<bool>,
    cv: StdCondvar,
}

impl Baton {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            flag: StdMutex::new(false),
            cv: StdCondvar::new(),
        })
    }

    fn wait(&self) {
        let mut g = self.flag.lock().unwrap_or_else(|e| e.into_inner());
        while !*g {
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        *g = false;
    }

    fn signal(&self) {
        *self.flag.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.cv.notify_one();
    }
}

// ---------------------------------------------------------------------------
// Execution state
// ---------------------------------------------------------------------------

struct ExecState {
    threads: Vec<ThreadState>,
    locations: HashMap<usize, Location>,
    mutexes: HashMap<usize, MutexState>,
    /// FIFO wait queues per condvar address.
    condvars: HashMap<usize, Vec<usize>>,
    sc_clock: VClock,
    path: Vec<ChoicePoint>,
    cursor: usize,
    steps: usize,
    preemptions: usize,
    live: usize,
    cfg: Config,
    failed: Option<String>,
    abort: bool,
}

impl ExecState {
    fn new(cfg: Config, path: Vec<ChoicePoint>) -> Self {
        Self {
            threads: Vec::new(),
            locations: HashMap::new(),
            mutexes: HashMap::new(),
            condvars: HashMap::new(),
            sc_clock: VClock::default(),
            path,
            cursor: 0,
            steps: 0,
            preemptions: 0,
            live: 0,
            cfg,
            failed: None,
            abort: false,
        }
    }

    /// Take (during replay) or create (at the frontier) the next choice.
    fn choose(&mut self, options: usize, label: &'static str) -> usize {
        if options <= 1 {
            return 0;
        }
        let chosen = if self.cursor < self.path.len() {
            let cp = self.path[self.cursor];
            assert_eq!(
                cp.options, options,
                "loom: nondeterministic replay at choice {} ({label} vs {}): \
                 the model closure must be deterministic apart from scheduling",
                self.cursor, cp.label
            );
            cp.chosen
        } else {
            self.path.push(ChoicePoint {
                options,
                chosen: 0,
                label,
            });
            0
        };
        self.cursor += 1;
        chosen
    }

    /// Pick the thread to run next.  `voluntary` is true when the current
    /// thread cannot or will not continue (blocked, yielding, finished):
    /// those switches don't consume the preemption budget.
    fn pick_next(&mut self, me: usize, me_schedulable: bool, voluntary: bool) -> Option<usize> {
        let runnable: Vec<usize> = self
            .threads
            .iter()
            .enumerate()
            .filter(|(i, t)| t.status == Status::Runnable && (me_schedulable || *i != me))
            .map(|(i, _)| i)
            .collect();
        if runnable.is_empty() {
            return None;
        }
        let fresh: Vec<usize> = runnable
            .iter()
            .copied()
            .filter(|&i| !self.threads[i].yielded)
            .collect();
        // When every runnable thread has yielded, the round is over: clear
        // all the flags, not just the chosen thread's, or the deterministic
        // choice-0 path re-picks the same thread forever and starves the
        // rest (their flags would never be cleared).
        let mut cands = if fresh.is_empty() {
            for &i in &runnable {
                self.threads[i].yielded = false;
            }
            runnable
        } else {
            fresh
        };
        // Preemption bound: once the budget is spent, a schedulable current
        // thread keeps running.
        if !voluntary
            && me_schedulable
            && self.preemptions >= self.cfg.preemption_bound
            && cands.contains(&me)
        {
            cands = vec![me];
        }
        // Voluntary switches (yield, block, exit) are deterministic
        // round-robin, not choice points: every atomic op already has a
        // preemptive schedule point in front of it, so branching again on
        // yields only multiplies the tree without reaching new races (the
        // module docs list this under approximations).
        let next = if voluntary {
            *cands
                .iter()
                .find(|&&i| i > me)
                .unwrap_or_else(|| cands.first().expect("cands is non-empty"))
        } else {
            let i = self.choose(cands.len(), "schedule");
            cands[i]
        };
        if !voluntary && me_schedulable && next != me {
            self.preemptions += 1;
        }
        self.threads[next].yielded = false;
        Some(next)
    }

    fn location(&mut self, addr: usize, initial: u64) -> &mut Location {
        self.locations
            .entry(addr)
            .or_insert_with(|| Location::new(initial))
    }

    fn describe_threads(&self) -> String {
        self.threads
            .iter()
            .enumerate()
            .map(|(i, t)| format!("t{i}:{:?}", t.status))
            .collect::<Vec<_>>()
            .join(" ")
    }

    fn schedule_trace(&self) -> String {
        let mut out = String::new();
        for cp in &self.path {
            out.push_str(&format!("{}:{}/{} ", cp.label, cp.chosen, cp.options));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Thread-local context
// ---------------------------------------------------------------------------

#[derive(Clone)]
pub(crate) struct Ctx {
    exec: Arc<StdMutex<ExecState>>,
    driver: Arc<Baton>,
    tid: usize,
    baton: Arc<Baton>,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// Whether the calling thread belongs to an active model execution.
pub(crate) fn ctx() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

/// Identifier of the current model thread (used by `thread::current`).
pub(crate) fn current_tid(ctx: &Ctx) -> usize {
    ctx.tid
}

fn lock_ex(ctx: &Ctx) -> StdMutexGuard<'_, ExecState> {
    ctx.exec.lock().unwrap_or_else(|e| e.into_inner())
}

/// Sentinel panic payload used to unwind model threads on abort without
/// recording a failure.
struct LoomAbort;

fn abort_unwind() -> ! {
    std::panic::panic_any(LoomAbort)
}

/// Whether the calling model thread is unwinding (assertion failure or
/// abort teardown).  Its `Drop` impls still run — and may touch model
/// atomics/mutexes — but must not schedule, make choices, or re-panic:
/// every runtime entry point degrades to a degenerate, exec-lock-serialized
/// operation in this state so teardown always completes.
fn unwinding() -> bool {
    std::thread::panicking()
}

/// Record a failure (first one wins), wake every live thread so the
/// iteration can tear down, and unwind.
fn fail(ctx: &Ctx, mut ex: StdMutexGuard<'_, ExecState>, msg: String) -> ! {
    if ex.failed.is_none() {
        let detail = format!(
            "{msg}\n  threads: {}\n  schedule: {}",
            ex.describe_threads(),
            ex.schedule_trace()
        );
        ex.failed = Some(detail);
    }
    ex.abort = true;
    let batons: Vec<Arc<Baton>> = ex
        .threads
        .iter()
        .enumerate()
        .filter(|(i, t)| *i != ctx.tid && t.status != Status::Done)
        .map(|(_, t)| t.baton.clone())
        .collect();
    drop(ex);
    for b in batons {
        b.signal();
    }
    abort_unwind()
}

/// Hand the baton to `next` and wait for it to come back to us.
fn transfer(ctx: &Ctx, next: usize) {
    if next == ctx.tid {
        return;
    }
    let baton = {
        let ex = lock_ex(ctx);
        ex.threads[next].baton.clone()
    };
    baton.signal();
    ctx.baton.wait();
    let ex = lock_ex(ctx);
    if ex.abort {
        drop(ex);
        abort_unwind();
    }
}

/// A schedule point: maybe switch to another thread.  Called before every
/// visible operation.  `voluntary` marks yields.
fn schedule_point(ctx: &Ctx, voluntary: bool) {
    if unwinding() {
        return;
    }
    let next = {
        let mut ex = lock_ex(ctx);
        if ex.abort {
            drop(ex);
            abort_unwind();
        }
        ex.steps += 1;
        if ex.steps > ex.cfg.max_steps {
            let max = ex.cfg.max_steps;
            fail(
                ctx,
                ex,
                format!("loom: execution exceeded {max} steps (livelock?)"),
            );
        }
        match ex.pick_next(ctx.tid, true, voluntary) {
            Some(next) => next,
            None => fail(ctx, ex, "loom: no runnable thread".to_string()),
        }
    };
    transfer(ctx, next);
}

/// Block the current thread on `on` and run someone else.  The waker is
/// responsible for setting our status back to `Runnable`.
fn block_and_switch(ctx: &Ctx, on: BlockedOn) {
    let next = {
        let mut ex = lock_ex(ctx);
        if ex.abort {
            drop(ex);
            abort_unwind();
        }
        ex.threads[ctx.tid].status = Status::Blocked(on);
        match ex.pick_next(ctx.tid, false, true) {
            Some(next) => next,
            None => {
                let what = format!(
                    "loom: deadlock — every live thread is blocked \
                     (this is also how a lost wakeup manifests); blocking on {on:?}"
                );
                fail(ctx, ex, what)
            }
        }
    };
    transfer(ctx, next);
}

// ---------------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------------

/// Per-operation trace to stderr, enabled by setting `PLP_LOOM_TRACE` —
/// the first debugging step when a model run fails inexplicably.
fn trace(args: std::fmt::Arguments<'_>) {
    static ON: OnceLock<bool> = OnceLock::new();
    if *ON.get_or_init(|| std::env::var_os("PLP_LOOM_TRACE").is_some()) {
        eprintln!("{args}");
    }
}

fn is_acquire(ord: Ordering) -> bool {
    matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_release(ord: Ordering) -> bool {
    matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

pub(crate) fn atomic_load(ctx: &Ctx, addr: usize, ord: Ordering, initial: u64) -> u64 {
    schedule_point(ctx, false);
    let mut ex = lock_ex(ctx);
    let me = ctx.tid;
    if ord == Ordering::SeqCst {
        // One-way: an SC load acquires everything published by earlier SC
        // stores/RMWs/fences.
        let sc = ex.sc_clock.clone();
        ex.threads[me].clock.join(&sc);
    }
    if ex.abort || unwinding() {
        // Teardown: `Drop` impls read the latest value, no branching.
        let loc = ex.location(addr, initial);
        return loc
            .stores
            .last()
            .expect("location has an initial store")
            .val;
    }
    let clock = ex.threads[me].clock.clone();
    let loc = ex.location(addr, initial);
    // Hidden-store rule: the latest store that happens-before us bounds what
    // we may still read; our own coherence floor bounds it further.
    let mut floor = 0;
    for (j, s) in loc.stores.iter().enumerate() {
        if s.who == usize::MAX || s.know.get(s.who) <= clock.get(s.who) {
            floor = j;
        }
    }
    floor = floor.max(loc.floor.get(&me).copied().unwrap_or(0));
    let newest = loc.stores.len() - 1;
    let streak = loc.streak.get(&me).copied().unwrap_or(0);
    // Branch between the newest store and at most one stale step back.  A
    // single stale step is what a missing-Acquire race reads (the value from
    // just before the publication), and capping the fan-out here keeps spin
    // loops from exploding the tree; deeper staleness is reachable across
    // successive loads anyway since the per-thread floor only ratchets on
    // values actually read.
    let options = if streak >= STALE_BOUND {
        1
    } else {
        (newest - floor + 1).min(2)
    };
    // Option 0 reads the newest store so the first execution is the
    // "expected" one; later DFS branches read progressively staler values.
    let pick = newest - ex.choose(options, "load");
    let loc = ex.locations.get_mut(&addr).expect("location just touched");
    let val = loc.stores[pick].val;
    let rel = loc.stores[pick].rel.clone();
    loc.floor.insert(me, pick.max(floor));
    loc.streak
        .insert(me, if pick == newest { 0 } else { streak + 1 });
    if is_acquire(ord) {
        if let Some(rel) = rel {
            ex.threads[me].clock.join(&rel);
        }
    }
    trace(format_args!(
        "t{me} load  {addr:#x} -> {val} (pick {pick}/{n}, floor {floor})",
        n = ex.locations[&addr].stores.len()
    ));
    val
}

pub(crate) fn atomic_store(ctx: &Ctx, addr: usize, val: u64, ord: Ordering, initial: u64) {
    schedule_point(ctx, false);
    let mut ex = lock_ex(ctx);
    let me = ctx.tid;
    ex.threads[me].clock.tick(me);
    if ord == Ordering::SeqCst {
        let sc = ex.sc_clock.clone();
        ex.threads[me].clock.join(&sc);
        let clock = ex.threads[me].clock.clone();
        ex.sc_clock.join(&clock);
    }
    let clock = ex.threads[me].clock.clone();
    let rel = is_release(ord).then(|| clock.clone());
    let loc = ex.location(addr, initial);
    loc.stores.push(Store {
        val,
        who: me,
        know: clock,
        rel,
    });
    let idx = loc.stores.len() - 1;
    loc.floor.insert(me, idx);
    trace(format_args!("t{me} store {addr:#x} <- {val} (idx {idx})"));
}

/// Shared read-modify-write path: applies `f` to the latest store (C11
/// atomicity), continues its release sequence, and returns the old value.
pub(crate) fn atomic_rmw(
    ctx: &Ctx,
    addr: usize,
    ord: Ordering,
    initial: u64,
    f: impl FnOnce(u64) -> u64,
) -> u64 {
    schedule_point(ctx, false);
    let mut ex = lock_ex(ctx);
    rmw_locked(&mut ex, ctx.tid, addr, ord, initial, f)
}

fn rmw_locked(
    ex: &mut ExecState,
    me: usize,
    addr: usize,
    ord: Ordering,
    initial: u64,
    f: impl FnOnce(u64) -> u64,
) -> u64 {
    ex.threads[me].clock.tick(me);
    if ord == Ordering::SeqCst {
        let sc = ex.sc_clock.clone();
        ex.threads[me].clock.join(&sc);
        let clock = ex.threads[me].clock.clone();
        ex.sc_clock.join(&clock);
    }
    let loc = ex.location(addr, initial);
    let last = loc.stores.last().expect("location has an initial store");
    let prev = last.val;
    let prev_rel = last.rel.clone();
    if is_acquire(ord) {
        if let Some(rel) = prev_rel.clone() {
            ex.threads[me].clock.join(&rel);
        }
    }
    let clock = ex.threads[me].clock.clone();
    // Release-sequence continuation: even a Relaxed RMW carries forward the
    // release clock of the store it replaces.
    let rel = if is_release(ord) {
        let mut c = prev_rel.unwrap_or_default();
        c.join(&clock);
        Some(c)
    } else {
        prev_rel
    };
    let val = f(prev);
    let loc = ex.location(addr, initial);
    loc.stores.push(Store {
        val,
        who: me,
        know: clock,
        rel,
    });
    let idx = loc.stores.len() - 1;
    loc.floor.insert(me, idx);
    trace(format_args!(
        "t{me} rmw   {addr:#x} {prev} -> {val} (idx {idx})"
    ));
    prev
}

pub(crate) fn atomic_cas(
    ctx: &Ctx,
    addr: usize,
    current: u64,
    new: u64,
    success: Ordering,
    failure: Ordering,
    initial: u64,
) -> Result<u64, u64> {
    schedule_point(ctx, false);
    let mut ex = lock_ex(ctx);
    let me = ctx.tid;
    let loc = ex.location(addr, initial);
    let last = loc.stores.last().expect("location has an initial store");
    let prev = last.val;
    if prev == current {
        rmw_locked(&mut ex, me, addr, success, initial, |_| new);
        Ok(prev)
    } else {
        // Failed CAS acts as a load of the latest value with the failure
        // ordering.
        let rel = last.rel.clone();
        let idx = loc.stores.len() - 1;
        loc.floor.insert(me, idx);
        if failure == Ordering::SeqCst {
            let sc = ex.sc_clock.clone();
            ex.threads[me].clock.join(&sc);
        }
        if is_acquire(failure) {
            if let Some(rel) = rel {
                ex.threads[me].clock.join(&rel);
            }
        }
        Err(prev)
    }
}

pub(crate) fn atomic_fence(ctx: &Ctx, _ord: Ordering) {
    // All fences are modeled as SeqCst fences (see the module docs).
    schedule_point(ctx, false);
    let mut ex = lock_ex(ctx);
    let me = ctx.tid;
    ex.threads[me].clock.tick(me);
    let sc = ex.sc_clock.clone();
    ex.threads[me].clock.join(&sc);
    let clock = ex.threads[me].clock.clone();
    ex.sc_clock.join(&clock);
}

/// Latest value in modification order, for `get_mut`/`into_inner` on
/// exclusively-owned atomics (no visibility branching: `&mut self` proves
/// no concurrent access).
pub(crate) fn atomic_latest(ctx: &Ctx, addr: usize, initial: u64) -> u64 {
    let mut ex = lock_ex(ctx);
    let loc = ex.location(addr, initial);
    loc.stores
        .last()
        .expect("location has an initial store")
        .val
}

// ---------------------------------------------------------------------------
// Mutex / Condvar
// ---------------------------------------------------------------------------

pub(crate) fn mutex_lock(ctx: &Ctx, addr: usize) {
    if unwinding() {
        // Teardown: the wrapped std mutex still provides real exclusion.
        return;
    }
    schedule_point(ctx, false);
    loop {
        let mut ex = lock_ex(ctx);
        if ex.abort {
            drop(ex);
            abort_unwind();
        }
        let me = ctx.tid;
        let m = ex.mutexes.entry(addr).or_default();
        match m.held_by {
            None => {
                m.held_by = Some(me);
                let mclock = m.clock.clone();
                ex.threads[me].clock.join(&mclock);
                return;
            }
            Some(holder) if holder == me => {
                fail(
                    ctx,
                    ex,
                    "loom: thread relocked a mutex it already holds".to_string(),
                );
            }
            Some(_) => {
                drop(ex);
                block_and_switch(ctx, BlockedOn::Mutex(addr));
                // Retry: the unlocker made us runnable; someone else may
                // have raced us to the lock, in which case we block again.
            }
        }
    }
}

/// Non-blocking acquire: `true` when the calling thread now holds the lock.
/// A schedule point like every other lock operation, so the checker explores
/// both outcomes wherever another thread could hold the lock.
pub(crate) fn mutex_try_lock(ctx: &Ctx, addr: usize) -> bool {
    schedule_point(ctx, false);
    let mut ex = lock_ex(ctx);
    if ex.abort {
        drop(ex);
        abort_unwind();
    }
    let me = ctx.tid;
    let m = ex.mutexes.entry(addr).or_default();
    if m.held_by.is_some() {
        return false;
    }
    m.held_by = Some(me);
    let mclock = m.clock.clone();
    ex.threads[me].clock.join(&mclock);
    true
}

fn mutex_unlock_locked(ex: &mut ExecState, me: usize, addr: usize) {
    let clock = ex.threads[me].clock.clone();
    let m = ex.mutexes.entry(addr).or_default();
    if m.held_by != Some(me) {
        // Only reachable during teardown, where `mutex_lock` degenerated to
        // a no-op; a consistent execution always unlocks its own lock.
        return;
    }
    m.held_by = None;
    m.clock.join(&clock);
    for t in ex.threads.iter_mut() {
        if t.status == Status::Blocked(BlockedOn::Mutex(addr)) {
            t.status = Status::Runnable;
        }
    }
}

pub(crate) fn mutex_unlock(ctx: &Ctx, addr: usize) {
    let mut ex = lock_ex(ctx);
    mutex_unlock_locked(&mut ex, ctx.tid, addr);
}

/// Atomically release `mutex_addr`, wait on `cv_addr`, then reacquire.
///
/// The schedule point *before* enqueueing is what exposes lost wakeups: a
/// notifier that doesn't synchronize with the waiter's predicate check can
/// be scheduled into the check→wait window, where its notification finds no
/// waiter and vanishes.
pub(crate) fn condvar_wait(ctx: &Ctx, cv_addr: usize, mutex_addr: usize) {
    if unwinding() {
        // Teardown: never block; the caller's predicate loop re-checks.
        return;
    }
    schedule_point(ctx, false);
    {
        let mut ex = lock_ex(ctx);
        if ex.abort {
            drop(ex);
            abort_unwind();
        }
        let me = ctx.tid;
        ex.condvars.entry(cv_addr).or_default().push(me);
        mutex_unlock_locked(&mut ex, me, mutex_addr);
    }
    block_and_switch(ctx, BlockedOn::Condvar(cv_addr));
    mutex_lock(ctx, mutex_addr);
}

/// Wake one (FIFO) or all waiters.  A notification with no waiter is lost —
/// exactly the semantics that lets the checker catch lost-wakeup bugs as
/// deadlocks.
pub(crate) fn condvar_notify(ctx: &Ctx, cv_addr: usize, all: bool) {
    schedule_point(ctx, false);
    let mut ex = lock_ex(ctx);
    let waiters = ex.condvars.entry(cv_addr).or_default();
    let n = if all {
        waiters.len()
    } else {
        waiters.len().min(1)
    };
    let woken: Vec<usize> = waiters.drain(..n).collect();
    for tid in woken {
        ex.threads[tid].status = Status::Runnable;
    }
}

// ---------------------------------------------------------------------------
// Park / unpark
// ---------------------------------------------------------------------------

pub(crate) fn park(ctx: &Ctx) {
    if unwinding() {
        // Teardown: never block; park loops re-check their predicate.
        return;
    }
    schedule_point(ctx, false);
    {
        let mut ex = lock_ex(ctx);
        if ex.abort {
            drop(ex);
            abort_unwind();
        }
        let me = ctx.tid;
        if ex.threads[me].park_token {
            ex.threads[me].park_token = false;
            let uc = std::mem::take(&mut ex.threads[me].unpark_clock);
            ex.threads[me].clock.join(&uc);
            return;
        }
    }
    block_and_switch(ctx, BlockedOn::Park);
    let mut ex = lock_ex(ctx);
    let me = ctx.tid;
    ex.threads[me].park_token = false;
    let uc = std::mem::take(&mut ex.threads[me].unpark_clock);
    ex.threads[me].clock.join(&uc);
}

pub(crate) fn unpark(ctx: &Ctx, target: usize) {
    schedule_point(ctx, false);
    let mut ex = lock_ex(ctx);
    let me = ctx.tid;
    ex.threads[me].clock.tick(me);
    let clock = ex.threads[me].clock.clone();
    let t = &mut ex.threads[target];
    t.unpark_clock.join(&clock);
    if t.status == Status::Blocked(BlockedOn::Park) {
        t.status = Status::Runnable;
    } else if t.status != Status::Done {
        t.park_token = true;
    }
}

// ---------------------------------------------------------------------------
// Yield
// ---------------------------------------------------------------------------

pub(crate) fn yield_now(ctx: &Ctx) {
    if unwinding() {
        return;
    }
    {
        let mut ex = lock_ex(ctx);
        if ex.abort {
            drop(ex);
            abort_unwind();
        }
        ex.threads[ctx.tid].yielded = true;
    }
    schedule_point(ctx, true);
}

// ---------------------------------------------------------------------------
// Spawn / join / thread lifecycle
// ---------------------------------------------------------------------------

/// Spawn a model thread running `f`.  Returns its model thread id.
pub(crate) fn spawn(ctx: &Ctx, f: impl FnOnce() + Send + 'static) -> usize {
    schedule_point(ctx, false);
    let (tid, baton) = {
        let mut ex = lock_ex(ctx);
        let me = ctx.tid;
        if ex.threads.len() >= ex.cfg.max_threads {
            let max = ex.cfg.max_threads;
            fail(ctx, ex, format!("loom: more than {max} model threads"));
        }
        let tid = ex.threads.len();
        ex.threads[me].clock.tick(me);
        let mut clock = ex.threads[me].clock.clone();
        clock.tick(tid);
        let baton = Baton::new();
        ex.threads.push(ThreadState {
            status: Status::Runnable,
            yielded: false,
            clock,
            park_token: false,
            unpark_clock: VClock::default(),
            baton: baton.clone(),
            final_clock: None,
        });
        ex.live += 1;
        (tid, baton)
    };
    let child_ctx = Ctx {
        exec: ctx.exec.clone(),
        driver: ctx.driver.clone(),
        tid,
        baton,
    };
    std::thread::spawn(move || run_model_thread(child_ctx, f));
    tid
}

/// Body of every model OS thread: wait to be scheduled, run, tear down.
fn run_model_thread(ctx: Ctx, f: impl FnOnce()) {
    ctx.baton.wait();
    {
        let ex = lock_ex(&ctx);
        if ex.abort {
            drop(ex);
            thread_done(&ctx, None);
            return;
        }
    }
    CTX.with(|c| *c.borrow_mut() = Some(ctx.clone()));
    let result = std::panic::catch_unwind(AssertUnwindSafe(f));
    CTX.with(|c| *c.borrow_mut() = None);
    let failure = match result {
        Ok(()) => None,
        Err(payload) => {
            if payload.is::<LoomAbort>() {
                None
            } else if let Some(s) = payload.downcast_ref::<String>() {
                Some(s.clone())
            } else if let Some(s) = payload.downcast_ref::<&'static str>() {
                Some((*s).to_string())
            } else {
                Some("model thread panicked with a non-string payload".to_string())
            }
        }
    };
    thread_done(&ctx, failure);
}

/// Mark the current thread finished, wake joiners, and pass the baton on (or
/// signal the driver when the iteration is over).
fn thread_done(ctx: &Ctx, failure: Option<String>) {
    let mut ex = lock_ex(ctx);
    let me = ctx.tid;
    if let Some(msg) = failure {
        if ex.failed.is_none() {
            let detail = format!(
                "model thread t{me} panicked: {msg}\n  threads: {}\n  schedule: {}",
                ex.describe_threads(),
                ex.schedule_trace()
            );
            ex.failed = Some(detail);
        }
        ex.abort = true;
    }
    ex.threads[me].status = Status::Done;
    ex.threads[me].final_clock = Some(ex.threads[me].clock.clone());
    ex.live -= 1;
    for t in ex.threads.iter_mut() {
        if t.status == Status::Blocked(BlockedOn::Join(me)) {
            t.status = Status::Runnable;
        }
    }
    if ex.live == 0 {
        drop(ex);
        ctx.driver.signal();
        return;
    }
    if ex.abort {
        // Teardown: release everyone; they will observe `abort` and die.
        let batons: Vec<Arc<Baton>> = ex
            .threads
            .iter()
            .filter(|t| t.status != Status::Done)
            .map(|t| t.baton.clone())
            .collect();
        drop(ex);
        for b in batons {
            b.signal();
        }
        return;
    }
    match ex.pick_next(me, false, true) {
        Some(next) => {
            let baton = ex.threads[next].baton.clone();
            drop(ex);
            baton.signal();
        }
        None => {
            // Everyone left is blocked: deadlock.  Record it and tear down;
            // we're exiting anyway so no unwind is needed.
            let detail = format!(
                "loom: deadlock at thread exit — every live thread is blocked\n  \
                 threads: {}\n  schedule: {}",
                ex.describe_threads(),
                ex.schedule_trace()
            );
            if ex.failed.is_none() {
                ex.failed = Some(detail);
            }
            ex.abort = true;
            let batons: Vec<Arc<Baton>> = ex
                .threads
                .iter()
                .filter(|t| t.status != Status::Done)
                .map(|t| t.baton.clone())
                .collect();
            drop(ex);
            for b in batons {
                b.signal();
            }
        }
    }
}

/// Join a model thread: block until it finishes, then adopt its causality.
pub(crate) fn join(ctx: &Ctx, target: usize) {
    if unwinding() {
        return;
    }
    schedule_point(ctx, false);
    loop {
        let mut ex = lock_ex(ctx);
        if ex.abort {
            drop(ex);
            abort_unwind();
        }
        if ex.threads[target].status == Status::Done {
            let fc = ex.threads[target]
                .final_clock
                .clone()
                .expect("finished thread has a final clock");
            let me = ctx.tid;
            ex.threads[me].clock.join(&fc);
            return;
        }
        drop(ex);
        block_and_switch(ctx, BlockedOn::Join(target));
    }
}

// ---------------------------------------------------------------------------
// Exploration driver
// ---------------------------------------------------------------------------

/// Run `f` under the model checker, exploring every interleaving within the
/// configured bounds.  Returns exploration statistics, or the report of the
/// first failing execution.
pub fn explore<F>(cfg: Config, f: F) -> Result<Stats, String>
where
    F: Fn() + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let mut path: Vec<ChoicePoint> = Vec::new();
    let mut stats = Stats::default();
    loop {
        stats.iterations += 1;
        if stats.iterations > cfg.max_iterations {
            return Err(format!(
                "loom: exploration exceeded {} iterations without exhausting \
                 the interleaving tree; simplify the model or raise the bound",
                cfg.max_iterations
            ));
        }
        let exec = Arc::new(StdMutex::new(ExecState::new(
            cfg,
            std::mem::take(&mut path),
        )));
        let driver = Baton::new();
        let baton = Baton::new();
        {
            let mut ex = exec.lock().unwrap_or_else(|e| e.into_inner());
            let mut clock = VClock::default();
            clock.tick(0);
            ex.threads.push(ThreadState {
                status: Status::Runnable,
                yielded: false,
                clock,
                park_token: false,
                unpark_clock: VClock::default(),
                baton: baton.clone(),
                final_clock: None,
            });
            ex.live = 1;
        }
        let main_ctx = Ctx {
            exec: exec.clone(),
            driver: driver.clone(),
            tid: 0,
            baton,
        };
        {
            let f = f.clone();
            let ctx = main_ctx.clone();
            std::thread::spawn(move || run_model_thread(ctx, move || f()));
        }
        main_ctx.baton.signal();
        driver.wait();
        let mut ex = exec.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(report) = ex.failed.take() {
            crate::metrics::record_run(&stats, true);
            return Err(format!(
                "loom: found a failing execution after {} iteration(s)\n{report}",
                stats.iterations
            ));
        }
        stats.max_depth = stats.max_depth.max(ex.path.len());
        stats.choice_points += ex.path.len() as u64;
        path = std::mem::take(&mut ex.path);
        drop(ex);
        // DFS advance: bump the deepest unexhausted choice point; drop the
        // exhausted tail.  An empty path means the tree is exhausted.
        loop {
            match path.last_mut() {
                None => {
                    crate::metrics::record_run(&stats, false);
                    return Ok(stats);
                }
                Some(cp) if cp.chosen + 1 < cp.options => {
                    cp.chosen += 1;
                    break;
                }
                Some(_) => {
                    path.pop();
                }
            }
        }
    }
}
