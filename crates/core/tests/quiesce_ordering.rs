//! Regression tests for control-message ordering on the worker queue.
//!
//! Quiesce/resume rides the same queue as action groups, so the
//! repartitioning protocol depends on FIFO-per-sender: every `Run` enqueued
//! before the quiesce message must execute before the worker parks and acks.
//! The lock-free queue must preserve that — these tests pin it at the engine
//! level (quiesce-while-queue-nonempty), including the park/resume cycle, for
//! singleton and 8-action `Run`s over both the MPMC queue and a fast lane.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use plp_core::action::ActionFn;
use plp_core::reply::BatchReplySlot;
use plp_core::worker::ActionReply;
use plp_core::{ActionOutput, Design, Engine, EngineConfig, TableSpec};
use plp_instrument::MsgStatsSnapshot;

fn test_engine() -> Engine {
    let schema = vec![TableSpec::new(0, "t", 4_096)];
    Engine::start(
        EngineConfig::new(Design::PlpRegular).with_partitions(2),
        &schema,
    )
}

/// An action that sleeps for `pause`, counts itself in `executed` and returns
/// `value`.
fn counted(executed: &Arc<AtomicU64>, value: u64, pause: Duration) -> ActionFn {
    let executed = executed.clone();
    Box::new(move |_ctx| {
        std::thread::sleep(pause);
        executed.fetch_add(1, Ordering::SeqCst);
        Ok(ActionOutput::with_values(vec![value]))
    })
}

/// An 8-action group whose actions return 0..8.
fn group_of_eight(executed: &Arc<AtomicU64>) -> Vec<ActionFn> {
    (0..8u64)
        .map(|i| counted(executed, i, Duration::from_millis(1)))
        .collect()
}

/// Wait for a round and check it carries one successful reply per action,
/// in dispatch order, with the given values; hand the storage back to the
/// slot for its next round.
fn expect_values(slot: &mut BatchReplySlot<ActionReply>, values: &[u64]) {
    let mut replies = slot.wait().expect("replies");
    assert_eq!(replies.len(), values.len(), "one reply per action");
    for (reply, value) in replies.drain(..).zip(values) {
        assert_eq!(reply.result.expect("action ok").values, vec![*value]);
    }
    slot.recycle(replies);
}

fn msg(engine: &Engine) -> MsgStatsSnapshot {
    engine.db().stats().snapshot().msg
}

#[test]
fn quiesce_waits_for_all_earlier_actions() {
    let engine = test_engine();
    let pm = engine.partition_manager().expect("partitioned design");
    let worker = pm.worker(0);
    let stats = engine.db().stats().clone();
    let before = msg(&engine);

    // Fill the MPMC queue with slow singleton `Run`s and one 8-action `Run`,
    // then quiesce from the same sender.
    let executed = Arc::new(AtomicU64::new(0));
    let n = 16u64;
    let mut slots: Vec<BatchReplySlot<ActionReply>> = Vec::new();
    for i in 0..n {
        let mut slot = BatchReplySlot::new();
        let run = counted(&executed, i, Duration::from_millis(2));
        worker.send(1, vec![run], &mut slot, None, &stats, 0);
        slots.push(slot);
    }
    let mut group = BatchReplySlot::new();
    worker.send(1, group_of_eight(&executed), &mut group, None, &stats, 0);

    // FIFO per sender: by the time the quiesce ack comes back, every action
    // enqueued before it has fully executed and replied.
    let resume = worker.quiesce();
    assert_eq!(
        executed.load(Ordering::SeqCst),
        n + 8,
        "quiesce overtook queued actions"
    );
    for slot in slots.iter().chain(std::iter::once(&group)) {
        assert!(slot.ready(), "reply missing at quiesce ack");
    }
    for (i, mut slot) in slots.into_iter().enumerate() {
        expect_values(&mut slot, &[i as u64]);
    }
    expect_values(&mut group, &[0, 1, 2, 3, 4, 5, 6, 7]);
    let sent = msg(&engine).delta(&before);
    assert_eq!((sent.lane_hits, sent.lane_fallbacks), (0, n + 1));
    assert_eq!((sent.batches, sent.batch_actions), (1, 8));

    // While quiesced, the worker must not execute newly enqueued actions.
    let late = Arc::new(AtomicU64::new(0));
    let mut late_slot = BatchReplySlot::new();
    let run = counted(&late, 0, Duration::ZERO);
    worker.send(2, vec![run], &mut late_slot, None, &stats, 0);
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(late.load(Ordering::SeqCst), 0, "worker ran while quiesced");
    assert!(!late_slot.ready());

    // Resume: the parked worker drains the queue again.
    resume.send(()).expect("worker parked on resume");
    expect_values(&mut late_slot, &[0]);
    assert_eq!(late.load(Ordering::SeqCst), 1);
}

#[test]
fn quiesce_resume_cycles_with_interleaved_actions() {
    let engine = test_engine();
    let pm = engine.partition_manager().expect("partitioned design");
    let worker = pm.worker(1);
    let stats = engine.db().stats().clone();
    let executed = Arc::new(AtomicU64::new(0));
    let mut slot = BatchReplySlot::new();

    for round in 0..20u64 {
        let run = counted(&executed, round, Duration::ZERO);
        worker.send(round, vec![run], &mut slot, None, &stats, 0);
        let resume = worker.quiesce();
        // The action enqueued before the quiesce is already answered, and the
        // reused slot hands this round's reply to this round.
        assert!(slot.ready(), "round {round}: reply missing at quiesce ack");
        expect_values(&mut slot, &[round]);
        drop(resume); // dropping the resume sender also resumes the worker
    }
    assert_eq!(executed.load(Ordering::SeqCst), 20);

    // The worker is alive and serving after 20 park/resume cycles.
    let run = counted(&executed, 99, Duration::ZERO);
    worker.send(99, vec![run], &mut slot, None, &stats, 0);
    expect_values(&mut slot, &[99]);
}

#[test]
fn quiesce_waits_for_batches_and_fast_lane_sends() {
    let engine = test_engine();
    let pm = engine.partition_manager().expect("partitioned design");
    let worker = pm.worker(0);
    let lane = worker.fast_lane();
    let stats = engine.db().stats().clone();

    // A whole 8-action group, delivered over the SPSC fast lane.
    let executed = Arc::new(AtomicU64::new(0));
    let mut slot = BatchReplySlot::new();
    let before = msg(&engine);
    worker.send(
        7,
        group_of_eight(&executed),
        &mut slot,
        Some(&lane),
        &stats,
        0,
    );
    let sent = msg(&engine).delta(&before);
    assert_eq!(
        (sent.lane_hits, sent.lane_fallbacks),
        (1, 0),
        "an empty lane must accept the group"
    );

    // The quiesce rides the shared MPMC queue; the worker must drain the
    // lane-delivered group before it parks and acks.
    let resume = worker.quiesce();
    assert_eq!(
        executed.load(Ordering::SeqCst),
        8,
        "quiesce overtook a lane-delivered group"
    );
    assert!(slot.ready(), "group reply missing at quiesce ack");
    // Per-action results survive grouping, in dispatch order.
    expect_values(&mut slot, &[0, 1, 2, 3, 4, 5, 6, 7]);
    drop(resume);

    // Lane-sent singletons behave the same way.
    let late = Arc::new(AtomicU64::new(0));
    let mut single = BatchReplySlot::new();
    let before = msg(&engine);
    let run = counted(&late, 8, Duration::ZERO);
    worker.send(8, vec![run], &mut single, Some(&lane), &stats, 0);
    let sent = msg(&engine).delta(&before);
    assert_eq!((sent.lane_hits, sent.lane_fallbacks), (1, 0));
    assert_eq!(sent.batches, 0, "a singleton is not a batch");
    let resume = worker.quiesce();
    assert_eq!(
        late.load(Ordering::SeqCst),
        1,
        "quiesce overtook a lane send"
    );
    assert!(single.ready());
    expect_values(&mut single, &[8]);
    drop(resume);
}
