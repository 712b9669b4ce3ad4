//! Partition state, the claim that guards it, and the worker threads.
//!
//! PLP's invariant is that a partition's pages and lock table are touched by
//! one thread *at a time*.  It is enforced by a per-partition **claim**: the
//! partition-local state (`PartitionState`: the thread-local lock table and
//! the owner token that opens latch-free page access) sits behind one mutex
//! owned by the [`WorkerHandle`], and whoever holds that mutex *is* the
//! partition's thread for as long as it holds it.
//!
//! # Caller runs; the worker is the executor of last resort
//!
//! A session that finds its partition idle — the claim free and nothing in
//! a lane (`WorkerHandle::try_claim`) — runs the stage's action group
//! itself, on its own thread, through the same
//! `PartitionState::run_group` the worker uses, and pays no message at
//! all.  Otherwise it sends the group as one message (below), and the
//! partition's worker thread takes the claim with a blocking `lock` around
//! every group it executes.  The choice is made from what the session
//! observes, never from configuration, so the message exchange — the
//! *fixed-contention* communication of Figure 1's "Message passing"
//! component — is paid only when a partition is contended.
//!
//! The worker releases the claim *before* it publishes a reply: the session
//! it wakes finds the partition idle again and goes back to running inline
//! instead of queueing behind a claim that is about to be dropped
//! (`model_claim_free_once_reply_published`).  The lane check happens
//! *under* the claim, so a session never runs past a request it could have
//! seen queued; a worker with pending requests is not starved by inlining
//! sessions (`model_claim_session_vs_worker`).  `docs/concurrency.md` has the
//! happens-before argument.
//!
//! Repartitioning and page cleaning exclude a partition the same way: they
//! take its claim (`WorkerHandle::claim`).  A repartition first drains every
//! `TxnTicket` — after which no group is queued or running, since a stage
//! waits for all its replies and a ticket outlives its stages — and then
//! holds every partition's claim while ownership moves.  A cleaning pass
//! holds the owning partition's claim while it cleans that partition's
//! pages (Appendix A.4).
//!
//! # The message path
//!
//! A contended group pays one message of one shape: a `WorkerRequest::Run`
//! carrying the group's action closures in dispatch order plus one
//! [`BatchReplyPromise`], sent by `WorkerLink::send`.  The coordinator
//! groups a stage's actions by routed worker first, so a stage pays one
//! message per *worker*, not per action, and a singleton group is a `Run` of
//! one.  The request rides the sender's lane (below); the reply leg is a
//! recycled [`BatchReplySlot`] rendezvous whose reply `Vec` is reused across
//! rounds, so the steady state allocates nothing per message (see
//! [`crate::reply`]).  The worker executes the group strictly in order
//! through `PartitionState::run_group` — a `Run` of *n* behaves exactly
//! like *n* messages from the same sender — pushing one [`ActionReply`] per
//! action (per-action results, log records and abort outcomes survive
//! grouping), and wakes the coordinator once with `finish`.
//!
//! # Lanes, links and shutdown
//!
//! A `Run` travels only on a single-producer lane (the channel shim's SPSC
//! ring).  A sending session borrows a *link* — one lane and one reply slot
//! per worker (`WorkerLink`) — from the engine's pool the first time it
//! sends and gives it back when it drops, so lanes are bounded by how many
//! sessions send at once.  A stage sends at most one message per worker and
//! waits for every reply, so a lane holds at most one `Run` of its link,
//! plus any left by sessions that unwound mid-stage; a full lane makes the
//! sender wait for room.
//!
//! The MPMC queue carries only `WorkerRequest::Shutdown`: stopping a
//! worker through `&self` needs that message or a channel close API, and
//! the message is smaller.  On receiving it, or finding the queue
//! disconnected, the worker first drains every lane, so a group pushed onto
//! a lane before the shutdown was enqueued is still answered
//! (`model_lane_vs_control_ordering`).

use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, LaneSender, Receiver, Sender, TryRecvError};
use plp_instrument::trace::now_nanos;
use plp_instrument::{obs_enabled, CsCategory, PhaseBreakdown, TraceEvent, TraceRing};
use plp_lock::LocalLockTable;
use plp_storage::OwnerToken;
use plp_wal::LogRecord;

use crate::action::{ActionFn, ActionOutput};
use crate::catalog::Design;
use crate::ctx::ActionCtx;
use crate::database::Database;
use crate::error::EngineError;
use crate::primitives::{Mutex, MutexGuard};
use crate::reply::{BatchReplyPromise, BatchReplySlot};

/// Slots in each lane.  A link has at most one `Run` per worker in flight
/// (module docs), so a lane fills only behind messages left by sessions
/// that unwound mid-stage; a sender that finds it full waits for room.
pub(crate) const LANE_CAP: usize = 64;

/// Reply sent back to the coordinator when an action finishes.
pub struct ActionReply {
    pub result: Result<ActionOutput, EngineError>,
    /// Physiological redo records the action produced; the coordinator
    /// merges them into the transaction so the commit record covers them.
    pub log: Vec<LogRecord>,
    /// Executor-side phase attribution: queue wait (first reply of a group
    /// only; zero when the session ran the group itself) and execution time.
    /// The coordinator derives the reply-wait remainder and feeds the
    /// `phase_*` histograms; all zeros in `obs-stub` builds.
    pub phases: PhaseBreakdown,
}

/// Requests a worker can serve.
pub(crate) enum WorkerRequest {
    /// Execute one stage's action group for `txn_id` strictly in order,
    /// replying once for the whole group (see the module's "The message
    /// path").
    Run {
        txn_id: u64,
        actions: Vec<ActionFn>,
        reply: BatchReplyPromise<ActionReply>,
        /// Coordinator's [`now_nanos`] read just before the enqueue; the
        /// worker subtracts it from the timestamp at which it holds the
        /// claim to attribute queue-wait time.
        enqueued_at: u64,
    },
    /// Terminate the worker thread.
    Shutdown,
}

/// What is local to one partition: the lock table no other partition sees
/// and the owner token that opens its pages latch-free.  Only the holder of
/// the partition's claim (see the module docs) can reach it.
pub(crate) struct PartitionState {
    db: Arc<Database>,
    design: Design,
    pub(crate) token: OwnerToken,
    local_locks: LocalLockTable,
}

impl PartitionState {
    /// Execute one stage's actions for `txn_id` strictly in order, handing
    /// one [`ActionReply`] per action to `reply`; every action runs even
    /// after an earlier one failed (the coordinator aggregates the
    /// per-action results).  The one execution path of the partitioned
    /// designs: a worker calls it for a dequeued message, a session for a
    /// group it runs itself.
    ///
    /// `started` is the caller's trace-clock read from when it held the
    /// claim, and `queue_nanos` how long the group waited to get there; the
    /// wait rides on the first reply only, so the coordinator's per-group sum
    /// stays exact.  Trace timestamps are chained — each action's end is the
    /// next one's start — so a group pays one clock read per action.  Each
    /// action runs under its own span guard on `ring` (the *caller's* ring:
    /// rings are single-writer), so a panicking action's span is recorded
    /// during unwind and the autopsy dump shows what was running.  Returns
    /// the last action's end timestamp.
    pub(crate) fn run_group(
        &mut self,
        ring: &TraceRing,
        txn_id: u64,
        started: u64,
        queue_nanos: u64,
        actions: Vec<ActionFn>,
        mut reply: impl FnMut(ActionReply),
    ) -> u64 {
        let mut prev = started;
        let mut executed = 0u64;
        for run in actions {
            let mut ctx = ActionCtx::partition(
                &self.db,
                self.design,
                self.token,
                &mut self.local_locks,
                txn_id,
            );
            let span = ring.span_at(TraceEvent::ExecuteAction, txn_id, prev);
            let result = run(&mut ctx);
            let finished = span.complete();
            let phases = PhaseBreakdown {
                queue_nanos: if executed == 0 { queue_nanos } else { 0 },
                exec_nanos: finished.saturating_sub(prev),
                ..PhaseBreakdown::default()
            };
            prev = finished;
            executed += 1;
            reply(ActionReply {
                result,
                log: ctx.take_log(),
                phases,
            });
        }
        if executed > 1 && obs_enabled() {
            ring.event(TraceEvent::ExecuteBatch, executed, started, prev - started);
        }
        prev
    }
}

/// The claim decision, generic so the model checker runs the shipped code:
/// take the claim if it is free, and keep it only if nothing is waiting for
/// the worker.  The lanes are inspected *under* the claim — a request
/// visible then is one the worker has not started (it executes only while
/// holding the claim), so backing off hands the partition to it.
fn try_claim<'a, S, T>(state: &'a Mutex<S>, queue: &Sender<T>) -> Option<MutexGuard<'a, S>> {
    let claim = state.try_lock()?;
    (!queue.lane_ready()).then_some(claim)
}

/// A sending session's way to one worker (module docs): the lane it is the
/// one producer of, and the reply slot that answers its message — `None`
/// while the message is in flight, and once a session unwound with it.
pub(crate) struct WorkerLink {
    lane: LaneSender<WorkerRequest>,
    pub(crate) slot: Option<BatchReplySlot<ActionReply>>,
}

impl WorkerLink {
    /// Send one stage's action group as one `WorkerRequest::Run` (module's
    /// "The message path") on the lane, waiting for room if it is full, and
    /// return the slot its replies arrive through: out of the link until the
    /// coordinator, past the stage's rendezvous point, puts it back.  The
    /// send does all of the message's accounting: the slot's reuse or
    /// allocation, the coordinator's half of the message-passing
    /// critical-section pair and [`plp_instrument::stats::MsgStats::sent`].
    pub(crate) fn send(
        &mut self,
        txn_id: u64,
        actions: Vec<ActionFn>,
        stats: &plp_instrument::StatsRegistry,
        enqueued_at: u64,
    ) -> BatchReplySlot<ActionReply> {
        debug_assert!(!actions.is_empty(), "empty action group");
        let mut slot = match self.slot.take() {
            Some(slot) => {
                stats.msg().reply_reused();
                slot
            }
            None => {
                stats.msg().reply_allocated();
                BatchReplySlot::new()
            }
        };
        let count = actions.len() as u64;
        let req = WorkerRequest::Run {
            txn_id,
            reply: slot.promise(actions.len()),
            actions,
            enqueued_at,
        };
        stats.cs().enter(CsCategory::MessagePassing, false);
        self.lane.send(req).expect("worker alive");
        stats.msg().sent(count);
        slot
    }
}

/// Handle to one partition: its state behind the claim, and the worker
/// thread that serves whatever is enqueued for it.
pub struct WorkerHandle {
    pub token: OwnerToken,
    sender: Sender<WorkerRequest>,
    /// The claim (see the module docs).
    state: Arc<Mutex<PartitionState>>,
    /// Behind a mutex so shutdown works through a shared reference (the
    /// partition manager is shared with the DLB controller thread).
    thread: parking_lot::Mutex<Option<JoinHandle<()>>>,
}

impl WorkerHandle {
    /// Spawn a worker serving partition `index`.
    pub fn spawn(index: usize, db: Arc<Database>, design: Design) -> Self {
        let token = OwnerToken(index as u64 + 1);
        let (tx, rx) = unbounded::<WorkerRequest>();
        let state = Arc::new(Mutex::new(PartitionState {
            db: db.clone(),
            design,
            token,
            local_locks: LocalLockTable::new(),
        }));
        let worker_state = state.clone();
        let thread = std::thread::Builder::new()
            .name(format!("plp-worker-{index}"))
            .spawn(move || worker_loop(&db, index, &worker_state, rx))
            .expect("spawn partition worker");
        Self {
            token,
            sender: tx,
            state,
            thread: parking_lot::Mutex::new(Some(thread)),
        }
    }

    /// Claim the partition for the calling thread if it is idle: the claim
    /// is free and nothing is in a lane for the worker.  While the
    /// guard lives the caller is the partition's thread.
    pub(crate) fn try_claim(&self) -> Option<MutexGuard<'_, PartitionState>> {
        try_claim(&self.state, &self.sender)
    }

    /// Take the partition's claim, waiting for whoever holds it.  While the
    /// guard lives no session or worker runs anything on this partition: a
    /// cleaning pass holds it around the partition's pages, a repartition
    /// holds every partition's while ownership moves.
    pub(crate) fn claim(&self) -> MutexGuard<'_, PartitionState> {
        self.state.lock()
    }

    /// A new link's way to this worker.  Lane storage lives as long as the
    /// worker's channel, so only the engine's link pool makes these.
    pub(crate) fn link(&self) -> WorkerLink {
        WorkerLink {
            lane: self.sender.fast_lane(LANE_CAP),
            slot: None,
        }
    }

    /// Ask the worker to shut down and join its thread (idempotent).
    pub fn shutdown(&self) {
        let _ = self.sender.send(WorkerRequest::Shutdown);
        if let Some(t) = self.thread.lock().take() {
            join_unless_self(t);
        }
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Join `handle` unless it is the calling thread's own: a background thread
/// (worker, DLB controller, checkpointer) can be the one unwinding the last
/// `Arc` that owns it, and `pthread_join` of self aborts the process
/// (EDEADLK).
pub(crate) fn join_unless_self(handle: JoinHandle<()>) {
    if handle.thread().id() != std::thread::current().id() {
        let _ = handle.join();
    }
}

/// Trace-clock read for phase attribution; zero (and free) in `obs-stub`.
#[inline]
pub(crate) fn obs_now() -> u64 {
    if obs_enabled() {
        now_nanos()
    } else {
        0
    }
}

fn worker_loop(
    db: &Database,
    index: usize,
    state: &Mutex<PartitionState>,
    rx: Receiver<WorkerRequest>,
) {
    // One chrome://tracing row per worker.  The ring lives in the shared
    // stats registry, so a flight-recorder dump still sees this worker's
    // last events after the thread has died (e.g. from an action panic).
    let ring = db.stats().trace().register(format!("worker-{index}"));
    let execute = |req: WorkerRequest| {
        let WorkerRequest::Run {
            txn_id,
            actions,
            mut reply,
            enqueued_at,
        } = req
        else {
            unreachable!("`Shutdown` travels on the main queue, never on a lane")
        };
        // The group runs under the claim, which is released before the
        // reply is published (module docs).
        {
            let mut partition = state.lock();
            let started = obs_now();
            let waited = started.saturating_sub(enqueued_at);
            partition.run_group(&ring, txn_id, started, waited, actions, |r| reply.push(r));
        }
        // The reply is the worker's half of the message-passing pair: one
        // critical section and one wake per message.
        db.stats().cs().enter(CsCategory::MessagePassing, false);
        reply.finish();
    };
    loop {
        while let Some(req) = rx.try_recv_lane() {
            execute(req);
        }
        match rx.try_recv() {
            Err(TryRecvError::Empty) => rx.wait_any(),
            // `Shutdown`, the one message on the main queue, or every
            // sender gone: answer anything already in a lane so its
            // coordinator is not left waiting on a dropped promise (module
            // docs).
            Ok(_) | Err(TryRecvError::Disconnected) => {
                while let Some(req) = rx.try_recv_lane() {
                    execute(req);
                }
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{EngineConfig, TableId, TableSpec};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// An action that panics mid-group must not leave its thread-local locks
    /// behind: the partition context releases them while it unwinds, whoever
    /// the caller is.
    #[test]
    fn run_group_releases_the_actions_locks_on_unwind() {
        const T: TableId = TableId(0);
        let design = Design::LogicalOnly;
        let db = Database::create(EngineConfig::new(design), &[TableSpec::new(0, "t", 64)]);
        db.load_record(T, 1, b"row", None).unwrap();
        let ring = db.stats().trace().register("test");
        let mut partition = PartitionState {
            db: db.clone(),
            design,
            token: OwnerToken(1),
            local_locks: LocalLockTable::new(),
        };
        let faulting: Vec<ActionFn> = vec![Box::new(|ctx| {
            ctx.read(T, 1)?;
            panic!("injected fault with a lock held")
        })];
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            partition.run_group(&ring, 7, 0, 0, faulting, |_| {});
        }));
        assert!(unwound.is_err());
        assert_eq!(partition.local_locks.held_count(), 0);
        // The same state keeps executing afterwards.
        let healthy: Vec<ActionFn> = vec![Box::new(|ctx| {
            Ok(ActionOutput::with_rows(
                ctx.read(T, 1)?.into_iter().collect(),
            ))
        })];
        let mut replies = Vec::new();
        partition.run_group(&ring, 8, 0, 0, healthy, |r| replies.push(r));
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].result.as_ref().unwrap().rows[0], b"row");
        assert_eq!(partition.local_locks.held_count(), 0);
    }
}

/// Model-checked claim protocol (the `loom-model` lane); see the module docs
/// and `docs/concurrency.md`.  The session side is the shipped [`try_claim`];
/// the worker side replays `worker_loop`'s shape (drain the lanes, each
/// request under a blocking `lock`, release, publish; then `wait_any`) over
/// the same channel, lane and reply-slot code.
#[cfg(all(test, any(plp_loom, feature = "loom-model")))]
mod model_tests {
    use super::*;
    use crate::reply::{ReplyPromise, ReplySlot};
    use loom::sync::atomic::{AtomicBool, Ordering};
    use loom::sync::Arc;

    /// Partition state with nothing atomic about it: a lost update, or a
    /// bump without its log entry, shows up in the final assertions.
    #[derive(Default)]
    struct Part {
        bumps: u64,
        log: Vec<u8>,
    }

    impl Part {
        fn bump(&mut self, who: u8) -> u64 {
            let seen = self.bumps;
            loom::thread::yield_now(); // widest possible window for a second holder
            self.bumps = seen + 1;
            self.log.push(who);
            self.bumps
        }
    }

    enum Req {
        Bump(ReplyPromise<u64>),
        Stop,
    }

    /// `worker_loop` in miniature: requests come on lanes, `Stop` on the
    /// main queue (sent only once every reply is in, so there is nothing
    /// left to drain).  `publish_under_claim` seeds the reply-before-release
    /// bug.
    fn worker(state: &Mutex<Part>, rx: &Receiver<Req>, publish_under_claim: bool) {
        loop {
            while let Some(Req::Bump(reply)) = rx.try_recv_lane() {
                let mut partition = state.lock();
                let value = partition.bump(b'w');
                if publish_under_claim {
                    reply.fulfill(value);
                    drop(partition);
                } else {
                    drop(partition);
                    reply.fulfill(value);
                }
            }
            match rx.try_recv() {
                Err(TryRecvError::Empty) => rx.wait_any(),
                Ok(_) | Err(TryRecvError::Disconnected) => break,
            }
        }
    }

    fn send_bump(lane: &LaneSender<Req>, slot: &mut ReplySlot<u64>) {
        lane.send(Req::Bump(slot.promise())).expect("worker alive");
    }

    /// One session try-claims and mutates the partition while another
    /// session's request is already in its lane and the worker blocks on the
    /// claim.  `claim` is the decision under test.
    fn session_vs_worker(
        claim: for<'a> fn(&'a Mutex<Part>, &Sender<Req>) -> Option<MutexGuard<'a, Part>>,
    ) {
        let state = Arc::new(Mutex::new(Part::default()));
        let (tx, rx) = unbounded::<Req>();
        let (a_lane, b_lane) = (tx.fast_lane(1), tx.fast_lane(1));
        // Session B's request sits in its lane before anyone else runs.
        let mut b_slot = ReplySlot::new();
        send_bump(&b_lane, &mut b_slot);
        let worker_at_queue = Arc::new(AtomicBool::new(false));
        let w = {
            let (state, at_queue) = (state.clone(), worker_at_queue.clone());
            loom::thread::spawn(move || {
                at_queue.store(true, Ordering::SeqCst);
                worker(&state, &rx, false);
            })
        };
        // Session A: caller-runs if the partition is idle, else a message.
        let mut a_slot = ReplySlot::new();
        let a_value = match claim(&state, &tx) {
            Some(mut partition) => {
                // The lanes were empty under the claim, so the worker has
                // picked B's request up: A did not run past a request it
                // could have seen waiting.
                assert!(
                    worker_at_queue.load(Ordering::SeqCst),
                    "session inlined past a queued request"
                );
                partition.bump(b'a')
            }
            None => {
                send_bump(&a_lane, &mut a_slot);
                a_slot.wait().expect("worker replies")
            }
        };
        let b_value = b_slot.wait().expect("queued request is executed");
        tx.send(Req::Stop).expect("worker alive");
        w.join().unwrap();
        // Mutual exclusion and exactly-once: two bumps, two distinct values,
        // two log entries — whoever ran them, in whichever order.
        let part = state.lock();
        assert_eq!(part.bumps, 2);
        assert_eq!(part.log.len(), 2);
        assert_eq!(a_value + b_value, 3, "values {a_value} and {b_value}");
    }

    #[test]
    fn model_claim_session_vs_worker() {
        loom::model(|| session_vs_worker(try_claim));
    }

    /// Seeded bug: a claim decision that skips the lane check lets a session
    /// overtake a request that was waiting before it even started.  The
    /// checker must find that schedule.
    #[test]
    fn seeded_claim_without_queue_check_is_caught() {
        fn claim_unchecked<'a>(
            state: &'a Mutex<Part>,
            _queue: &Sender<Req>,
        ) -> Option<MutexGuard<'a, Part>> {
            state.try_lock()
        }
        let report = loom::explore(loom::Config::default(), || {
            session_vs_worker(claim_unchecked)
        })
        .expect_err("checker must catch the overtaken request");
        assert!(report.contains("inlined past"), "report: {report}");
    }

    /// With no one else around, the session that sent a message finds the
    /// partition idle the moment its reply arrives.
    fn claim_after_reply(publish_under_claim: bool) {
        let state = Arc::new(Mutex::new(Part::default()));
        let (tx, rx) = unbounded::<Req>();
        let lane = tx.fast_lane(1);
        let w = {
            let state = state.clone();
            loom::thread::spawn(move || worker(&state, &rx, publish_under_claim))
        };
        let mut slot = ReplySlot::new();
        send_bump(&lane, &mut slot);
        assert_eq!(slot.wait(), Ok(1));
        assert!(
            try_claim(&state, &tx).is_some(),
            "claim still held after the reply was published"
        );
        tx.send(Req::Stop).expect("worker alive");
        w.join().unwrap();
    }

    /// The worker releases the claim before it publishes a reply, so one
    /// message does not condemn the woken session's next stage to another.
    #[test]
    fn model_claim_free_once_reply_published() {
        loom::model(|| claim_after_reply(false));
    }

    /// Seeded bug: publishing under the claim leaves a window in which the
    /// woken session still finds the partition taken.
    #[test]
    fn seeded_reply_before_release_is_caught() {
        let report = loom::explore(loom::Config::default(), || claim_after_reply(true))
            .expect_err("checker must catch the held claim");
        assert!(report.contains("claim still held"), "report: {report}");
    }
}
