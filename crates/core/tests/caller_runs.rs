//! Caller-runs partition execution: a session that finds its partition idle
//! claims it and runs the action group itself; everyone else pays the
//! message.  Whichever thread ends up running an action, the partition must
//! behave as if one thread owned it — and a fault on the inline path must not
//! take the partition down with it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use plp_core::{
    Action, ActionOutput, Design, Engine, EngineConfig, TableId, TableSpec, TransactionPlan,
};

const TABLE: TableId = TableId(0);
const KEY_SPACE: u64 = 4096;
/// A handful of keys that all live in partition 0 (keys below KEY_SPACE/2).
const HOT: [u64; 4] = [3, 5, 7, 11];

/// PLP-Leaf: index *and* heap pages are accessed latch-free, so nothing but
/// the partition's claim stands between two threads and the same page.
fn engine() -> Engine {
    let config = EngineConfig::new(Design::PlpLeaf).with_partitions(2);
    let engine = Engine::start(config, &[TableSpec::new(0, "hot", KEY_SPACE)]);
    for k in 0..64u64 {
        engine
            .db()
            .load_record(TABLE, k, &0u64.to_le_bytes(), None)
            .unwrap();
    }
    engine.finish_loading();
    engine
}

/// Read-modify-write of the record's counter inside ONE action, so the
/// partition's mutual exclusion is all that keeps increments from being lost.
fn increment(key: u64) -> TransactionPlan {
    TransactionPlan::single(Action::new(TABLE, key, move |ctx| {
        let found = ctx.update(TABLE, key, &mut |rec| {
            let v = u64::from_le_bytes(rec[..8].try_into().unwrap()) + 1;
            rec[..8].copy_from_slice(&v.to_le_bytes());
        })?;
        assert!(found, "hot key {key} is loaded");
        Ok(ActionOutput::empty())
    }))
}

fn counter(engine: &Engine, key: u64) -> u64 {
    let out = engine
        .session()
        .execute(TransactionPlan::single(Action::new(
            TABLE,
            key,
            move |ctx| {
                Ok(ActionOutput::with_rows(
                    ctx.read(TABLE, key)?.into_iter().collect(),
                ))
            },
        )))
        .expect("read");
    u64::from_le_bytes(out[0].rows[0][..8].try_into().unwrap())
}

#[test]
fn hot_partition_increments_are_exact_on_both_paths() {
    const SESSIONS: usize = 4;
    const PER_ROUND: u64 = 4_000;
    let mut engine = engine();
    let mut acknowledged = [0u64; HOT.len()];
    // Four sessions hammer one partition: most groups find it idle and run
    // inline, the rest collide with a claim holder and take the message
    // path.  Rounds repeat (bounded) until this run has seen both.
    for _round in 0..25 {
        let per_thread: Vec<[u64; HOT.len()]> = std::thread::scope(|scope| {
            let engine = &engine;
            let handles: Vec<_> = (0..SESSIONS)
                .map(|t| {
                    scope.spawn(move || {
                        let mut session = engine.session();
                        let mut ok = [0u64; HOT.len()];
                        for i in 0..PER_ROUND {
                            let slot = (i as usize + t) % HOT.len();
                            if session.execute(increment(HOT[slot])).is_ok() {
                                ok[slot] += 1;
                            }
                        }
                        ok
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for ok in per_thread {
            for (total, n) in acknowledged.iter_mut().zip(ok) {
                *total += n;
            }
        }
        let msg = engine.db().stats().snapshot().msg;
        if msg.inline_actions > 0 && msg.actions > 0 {
            break;
        }
    }
    for (key, expected) in HOT.into_iter().zip(acknowledged) {
        assert_eq!(
            counter(&engine, key),
            expected,
            "key {key}: every acknowledged increment must be applied exactly once"
        );
    }
    let msg = engine.db().stats().snapshot().msg;
    assert!(msg.inline_actions > 0, "no group ever ran inline: {msg:?}");
    assert!(
        msg.actions > 0,
        "no group ever took the message path: {msg:?}"
    );
    engine.shutdown();
}

#[test]
fn inline_action_panic_leaves_the_partition_serving() {
    let mut engine = engine();
    // An idle engine and one session: the group runs on this very thread, so
    // the panic unwinds through the claim guard, the partition context and
    // the session's ticket.
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        let mut session = engine.session();
        session.execute(TransactionPlan::single(Action::new(TABLE, HOT[0], |ctx| {
            ctx.update(TABLE, HOT[0], &mut |_rec| {})?; // holds a thread-local X lock
            panic!("injected inline fault")
        })))
    }));
    assert!(unwound.is_err(), "the action's panic reaches the caller");
    let msg = engine.db().stats().snapshot().msg;
    assert_eq!(msg.actions, 0, "the faulting group was never a message");

    // The claim was released and the ticket returned: another session's next
    // request to the same partition — the same key — goes through.
    let before = counter(&engine, HOT[0]);
    engine
        .session()
        .execute(increment(HOT[0]))
        .expect("partition still serves");
    assert_eq!(counter(&engine, HOT[0]), before + 1);
    assert_eq!(engine.partition_manager().unwrap().inflight_txns(), 0);
    // A repartition still drains (nothing is stuck in flight)…
    engine.repartition(TABLE, &[0, 1024]).expect("repartition");
    // …and shutdown returns.
    engine.shutdown();
}
