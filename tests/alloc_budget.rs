//! Allocation budget per committed transaction, per design.
//!
//! One session runs a seeded TATP request stream through `Session::run` on
//! each of the six designs: 2 000 subscribers, 2 partitions, index fanout 64,
//! seed `0xBEEF`, 5 000 requests per mix.  A counting global allocator
//! records the heap allocations (`alloc`, `alloc_zeroed` and `realloc`
//! calls) and the bytes they request on the session's own thread while it is
//! inside `Session::run`, and the test divides both by the committed
//! transactions.  With one session every partitioned group runs inline, so
//! the counts are the same on every run and every host.
//!
//! The expected counts are the committed table `alloc_budget.txt`, next to
//! this file.  A change that moves a count edits that table by hand and says
//! why; there is no switch that rewrites it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;

use plp_core::{Design, EngineConfig, Op, Request};
use plp_workloads::driver::prepare_engine;
use plp_workloads::tatp::{access_info_key, call_forwarding_key, Tatp, ACCESS_INFO, SUBSCRIBER};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

struct Counting;

thread_local! {
    /// `(counting, allocations, bytes)` of this thread.
    static COUNTS: Cell<(bool, u64, u64)> = const { Cell::new((false, 0, 0)) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNTS.try_with(|c| {
        let (on, allocs, total) = c.get();
        if on {
            c.set((on, allocs + 1, total + bytes as u64));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only a thread-local `Cell` and never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const SUBSCRIBERS: u64 = 2_000;
const REQUESTS: usize = 5_000;
const SEED: u64 = 0xBEEF;

#[derive(Clone, Copy)]
enum Mix {
    /// `plp_client::TatpOpMix`: one op per request.
    Single,
    /// The profile mix: 70 % one subscriber's whole profile (six reads),
    /// 20 % two subscribers (four reads), 10 % a location update plus a
    /// call-forwarding insert or delete.
    Profile,
}

impl Mix {
    fn name(self) -> &'static str {
        match self {
            Mix::Single => "single",
            Mix::Profile => "profile",
        }
    }

    fn requests(self) -> Vec<Request> {
        let mut rng = ChaCha8Rng::seed_from_u64(SEED);
        let mix = plp_client::TatpOpMix::new(SUBSCRIBERS);
        (0..REQUESTS)
            .map(|_| match self {
                Mix::Single => Request::single(mix.next_op(&mut rng)),
                Mix::Profile => profile_request(&mix, &mut rng),
            })
            .collect()
    }
}

fn profile_request(mix: &plp_client::TatpOpMix, rng: &mut ChaCha8Rng) -> Request {
    let s_id = rng.gen_range(0..SUBSCRIBERS);
    let get = |table, key| Op::Get { table, key };
    let pct = rng.gen_range(0..100u32);
    if pct < 70 {
        let mut ops = vec![get(SUBSCRIBER, s_id)];
        ops.extend((0..4).map(|ai| get(ACCESS_INFO, access_info_key(s_id, ai))));
        ops.push(Op::ReadRange {
            table: plp_workloads::tatp::CALL_FORWARDING,
            lo: call_forwarding_key(s_id, 0, 0),
            hi: call_forwarding_key(s_id, 3, 23),
        });
        Request::new(ops)
    } else if pct < 90 {
        let other = rng.gen_range(0..SUBSCRIBERS);
        let ai = rng.gen_range(0..4);
        Request::new(vec![
            get(SUBSCRIBER, s_id),
            get(ACCESS_INFO, access_info_key(s_id, ai)),
            get(SUBSCRIBER, other),
            get(ACCESS_INFO, access_info_key(other, ai)),
        ])
    } else {
        // A location update, then one call-forwarding insert or delete:
        // draw ops from the single-op mix until each kind has come up.
        let mut update = None;
        let mut churn = None;
        while update.is_none() || churn.is_none() {
            match mix.next_op(rng) {
                op @ Op::Update { .. } => update = update.or(Some(op)),
                op @ (Op::Insert { .. } | Op::Delete { .. }) => churn = churn.or(Some(op)),
                _ => {}
            }
        }
        Request::new(vec![update.unwrap(), churn.unwrap()])
    }
}

/// `(allocations, bytes)` per committed transaction of `mix` on `design`.
fn measure(design: Design, mix: Mix) -> (f64, f64) {
    let config = EngineConfig::new(design).with_partitions(2).with_fanout(64);
    let mut engine = prepare_engine(config, &Tatp::new(SUBSCRIBERS));
    let mut session = engine.session();
    let mut committed = 0u64;
    let (mut allocs, mut bytes) = (0u64, 0u64);
    for request in mix.requests() {
        COUNTS.with(|c| c.set((true, 0, 0)));
        let response = session.run(request);
        let (_, a, b) = COUNTS.with(|c| c.replace((false, 0, 0)));
        allocs += a;
        bytes += b;
        committed += u64::from(response.is_ok());
    }
    drop(session);
    engine.shutdown();
    assert!(committed > REQUESTS as u64 / 2, "{committed} committed");
    let per = |n: u64| n as f64 / committed as f64;
    (per(allocs), per(bytes))
}

fn expected() -> Vec<(String, String, f64, f64)> {
    include_str!("alloc_budget.txt")
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let cols: Vec<&str> = l.split('|').map(str::trim).collect();
            assert_eq!(cols.len(), 4, "malformed row: {l}");
            let num = |s: &str| s.parse::<f64>().unwrap_or_else(|_| panic!("{l}"));
            (cols[0].into(), cols[1].into(), num(cols[2]), num(cols[3]))
        })
        .collect()
}

#[test]
fn allocations_per_committed_transaction_match_the_table() {
    let mut measured = Vec::new();
    for design in Design::ALL {
        for mix in [Mix::Single, Mix::Profile] {
            let (allocs, bytes) = measure(design, mix);
            measured.push((
                design.name().to_string(),
                mix.name().to_string(),
                allocs,
                bytes,
            ));
        }
    }
    let mut table = String::new();
    for (design, mix, allocs, bytes) in &measured {
        writeln!(
            table,
            "{design:<18} | {mix:<7} | {allocs:>6.2} | {bytes:>8.1}"
        )
        .unwrap();
    }
    let expected = expected();
    let same = expected.len() == measured.len()
        && expected.iter().zip(&measured).all(|(e, m)| {
            e.0 == m.0 && e.1 == m.1 && (e.2 - m.2).abs() < 0.005 && (e.3 - m.3).abs() < 0.05
        });
    assert!(
        same,
        "allocations per committed transaction moved; measured:\n{table}"
    );
}
