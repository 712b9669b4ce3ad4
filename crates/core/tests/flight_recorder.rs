//! Flight-recorder autopsy: when a thread dies from an injected panic while
//! running an action, the panic hook installed by
//! `EngineConfig::with_flight_dump` must write a dump that parses and still
//! holds that thread's last trace events — the whole point of a flight
//! recorder is surviving the crash.  One test kills a *worker* (the message
//! path, forced by holding the partition's claim from another session), the
//! other a session running its group inline.

use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use plp_core::{
    Action, ActionOutput, Design, Engine, EngineConfig, TableId, TableSpec, TransactionPlan,
};
use plp_instrument::json_is_valid;
use plp_wal::test_support::TempDir;

const TABLE: TableId = TableId(0);
const KEY_SPACE: u64 = 4096;

fn read_action(key: u64) -> Action {
    Action::new(TABLE, key, move |ctx| {
        ctx.read(TABLE, key)?;
        Ok(ActionOutput::with_values(vec![key]))
    })
}

/// The panic hook dumps *every* registered engine of the process, and these
/// tests leak theirs: run them one at a time, so the dump a test waits for
/// can only come from its own injected fault.
static ONE_PANIC_AT_A_TIME: Mutex<()> = Mutex::new(());

#[test]
fn worker_panic_writes_flight_dump_with_worker_trace() {
    let _serial = ONE_PANIC_AT_A_TIME
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // Removed with everything in it when the guard drops; the engine's
    // dump registration creates it.
    let dir = TempDir::new("plp-flight-panic");
    let dump_path = dir.path().join("flight_dump.json");
    let config = EngineConfig::new(Design::PlpRegular)
        .with_partitions(2)
        .with_metrics_interval(Duration::from_millis(5))
        .with_flight_dump(&dump_path);
    let engine = Engine::start(config, &[TableSpec::new(0, "flight", KEY_SPACE)]);
    for k in 0..64 {
        engine
            .db()
            .load_record(TABLE, k, &k.to_le_bytes(), None)
            .unwrap();
    }
    engine.finish_loading();
    // The worker dies mid-batch, so the engine is leaked rather than shut
    // down around a dead thread.
    let engine: &'static Engine = Box::leak(Box::new(engine));

    // Session A claims partition 0 (keys below KEY_SPACE/2) and sits in its
    // action until released: whoever dispatches to partition 0 meanwhile
    // finds the claim taken and has to send a message.
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let holder = std::thread::spawn(move || {
        let mut session = engine.session();
        session
            .execute(TransactionPlan::single(Action::new(
                TABLE,
                5,
                move |_ctx| {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Ok(ActionOutput::empty())
                },
            )))
            .expect("holder commits once released");
    });
    entered_rx.recv().expect("holder is inside its action");

    // Session B's stage: a healthy read and the faulting action for
    // partition 0 — one batch message, queued behind A's claim — and then an
    // action for the idle partition 1, which B runs itself *after* the
    // enqueue: it is the signal that the message is in the queue.
    let (queued_tx, queued_rx) = mpsc::channel();
    let victim = std::thread::spawn(move || {
        let mut session = engine.session();
        session.execute(TransactionPlan::parallel(vec![
            read_action(10),
            Action::new(TABLE, 20, |_ctx| panic!("injected worker fault")),
            Action::new(TABLE, KEY_SPACE / 2 + 1, move |_ctx| {
                queued_tx.send(()).unwrap();
                Ok(ActionOutput::empty())
            }),
        ]))
    });
    queued_rx.recv().expect("batch is queued for worker 0");
    release_tx.send(()).unwrap();
    holder.join().expect("holder thread");
    // Worker 0 now takes the claim, executes the read (an execute event in
    // its ring), and dies in the faulting action; B sees the closed reply.
    assert!(
        victim.join().expect("victim thread").is_err(),
        "the transaction whose worker died must not commit"
    );

    // The hook runs synchronously inside panic!, before the worker finishes
    // unwinding; poll briefly for the file to appear.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !dump_path.exists() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(dump_path.exists(), "panic hook never wrote {dump_path:?}");
    let dump = std::fs::read_to_string(&dump_path).expect("read dump");
    assert!(json_is_valid(&dump), "dump is not valid JSON: {dump}");
    assert!(dump.contains("\"reason\":\"panic\""), "dump: {dump}");
    // The dead worker's row survives in the dump, holding the execute event
    // of the batch member that ran before the fault.
    assert!(
        row_has_execute(&dump, "worker-0"),
        "worker-0 has no execute event in the dump: {dump}"
    );
    assert!(
        dump.contains("\"latency\""),
        "dump lacks histogram summaries"
    );
    let msg = engine.db().stats().snapshot().msg;
    assert_eq!(msg.batches, 1, "the faulting stage went out as one batch");

    // The leaked engine stays registered with the panic hook, so any later
    // panic in this process dumps it into the removed directory.  That write
    // must fail quietly: a panic inside the hook would abort the process.
    let removed = dir.path().to_path_buf();
    drop(dir);
    let later = std::panic::catch_unwind(|| panic!("a later, unrelated panic"));
    assert!(later.is_err(), "the later panic unwinds as usual");
    assert!(!removed.exists(), "the hook recreated {removed:?}");
}

/// Whether the chrome trace holds an `execute` span on the row labelled
/// `label`.  Rows render as
/// `{"name":"thread_name",…,"tid":N,"args":{"name":"<label>"}}` and spans as
/// `{"name":"execute","cat":"plp","ph":"X","pid":1,"tid":N,…}`.
fn row_has_execute(trace: &str, label: &str) -> bool {
    let Some(row) = trace.find(&format!("\"args\":{{\"name\":\"{label}\"}}")) else {
        return false;
    };
    let head = &trace[..row];
    let Some(tid_at) = head.rfind("\"tid\":") else {
        return false;
    };
    let tid = head[tid_at + "\"tid\":".len()..].trim_end_matches(',');
    trace.contains(&format!(
        "\"name\":\"execute\",\"cat\":\"plp\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},"
    ))
}

#[test]
fn inline_action_panic_still_records_execute_event() {
    let _serial = ONE_PANIC_AT_A_TIME
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let dir = TempDir::new("plp-flight-inline-panic");
    let dump_path = dir.path().join("flight_dump.json");
    let config = EngineConfig::new(Design::PlpRegular)
        .with_partitions(2)
        .with_flight_dump(&dump_path);
    let mut engine = Engine::start(config, &[TableSpec::new(0, "flight", KEY_SPACE)]);
    for k in 0..64 {
        engine
            .db()
            .load_record(TABLE, k, &k.to_le_bytes(), None)
            .unwrap();
    }
    engine.finish_loading();

    // NO healthy transactions: the only way an "execute" event can reach a
    // trace ring is the per-action span guard recording during the panic
    // unwind.  The engine is idle, so the session claims partition 0 and runs
    // the two-action group itself — and the FIRST member panics, so no
    // completed predecessor could have left an event either.
    let session_row = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let mut session = engine.session();
                let row = session_label(&engine);
                let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    session.execute(TransactionPlan::parallel(vec![
                        Action::new(TABLE, 10, |_ctx| panic!("injected inline fault")),
                        read_action(20),
                    ]))
                }));
                assert!(unwound.is_err(), "the fault unwinds through the session");
                row
            })
            .join()
            .expect("session thread")
    });

    // The hook ran inside panic!, before the unwind: the dump exists and is
    // well formed, but the guard-recorded event is looked for on the live
    // trace — in the *session's* row, where inline execution records.
    assert!(dump_path.exists(), "panic hook never wrote {dump_path:?}");
    let dump = std::fs::read_to_string(&dump_path).expect("read dump");
    assert!(json_is_valid(&dump), "dump is not valid JSON: {dump}");
    assert!(dump.contains("\"reason\":\"panic\""), "dump: {dump}");
    let trace = engine.trace_json();
    assert!(
        row_has_execute(&trace, &session_row),
        "panicking group member left no execute event in {session_row}: {trace}"
    );
    // Nothing died but the transaction: the engine shuts down cleanly.
    engine.shutdown();
}

/// Label of the engine's (only) session row.
fn session_label(engine: &Engine) -> String {
    engine
        .db()
        .stats()
        .trace()
        .read_all()
        .into_iter()
        .map(|(label, _)| label)
        .find(|label| label.starts_with("session-"))
        .expect("a session row is registered")
}
