//! The paper's microbenchmarks.
//!
//! * [`InsertDeleteHeavy`] — every transaction inserts or deletes a
//!   Call-Forwarding row (Figure 6: index-latch contention from page splits
//!   and SMO serialization).
//! * [`ProbeInsertMix`] — a single-table microbenchmark with a configurable
//!   insert percentage (Figure 10: parallel SMOs with MRBTrees).
//! * [`BalanceProbe`] — read-only subscriber probes whose access pattern can
//!   switch from uniform to hot-spot mid-run (Figure 8: repartitioning).
//! * [`SkewedProbe`] — subscriber probes driven by a [`SkewedKeys`]
//!   distribution whose hot range can *move* mid-run (the dynamic-load-
//!   balancing experiment's adversary).

use plp_core::{
    Action, ActionOutput, Database, EngineError, Op, Request, TableId, TableSpec, TransactionPlan,
};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

use crate::skew::{SkewKind, SkewedKeys};
use crate::tatp::{
    access_info_key, call_forwarding_key, special_facility_key, Tatp, ACCESS_INFO, CALL_FORWARDING,
    SPECIAL_FACILITY, SUBSCRIBER,
};
use crate::{fields, Workload};

/// Insert/delete-heavy CallFwd microbenchmark on the TATP schema.
pub struct InsertDeleteHeavy {
    tatp: Tatp,
}

impl InsertDeleteHeavy {
    pub fn new(subscribers: u64) -> Self {
        Self {
            tatp: Tatp::new(subscribers),
        }
    }

    pub fn tatp(&self) -> &Tatp {
        &self.tatp
    }
}

impl Workload for InsertDeleteHeavy {
    fn name(&self) -> &'static str {
        "TATP insert/delete-heavy"
    }

    fn schema(&self) -> Vec<TableSpec> {
        self.tatp.schema()
    }

    fn load(&self, db: &Database) -> Result<(), EngineError> {
        self.tatp.load(db)
    }

    fn next_transaction(&self, rng: &mut ChaCha8Rng) -> TransactionPlan {
        let s_id = self.tatp.pick_subscriber(rng);
        let sf_type = rng.gen_range(0..4u64);
        let start = [0u64, 8, 16][rng.gen_range(0..3)];
        let key = call_forwarding_key(s_id, sf_type, start);
        if rng.gen_bool(0.5) {
            TransactionPlan::single(Action::new(CALL_FORWARDING, key, move |ctx| {
                let mut rec = vec![0u8; 40];
                fields::set_u64(&mut rec, 0, key);
                match ctx.insert(CALL_FORWARDING, key, &rec, None) {
                    Ok(()) | Err(EngineError::DuplicateKey { .. }) => Ok(ActionOutput::empty()),
                    Err(e) => Err(e),
                }
            }))
        } else {
            TransactionPlan::single(Action::new(CALL_FORWARDING, key, move |ctx| {
                ctx.delete(CALL_FORWARDING, key, None)?;
                Ok(ActionOutput::empty())
            }))
        }
    }
}

/// Single-table probe/insert mix used by the parallel-SMO experiment.
pub struct ProbeInsertMix {
    rows: u64,
    key_space: u64,
    insert_pct: u32,
}

/// The single table used by [`ProbeInsertMix`].
const ROWS: TableId = TableId(0);

impl ProbeInsertMix {
    /// `rows` are pre-loaded (dense keys `0..rows`); inserts draw random keys
    /// from the much larger `key_space` so they keep splitting pages.
    pub fn new(rows: u64, insert_pct: u32) -> Self {
        Self {
            rows: rows.max(100),
            key_space: (rows.max(100)) * 64,
            insert_pct: insert_pct.min(100),
        }
    }
}

impl Workload for ProbeInsertMix {
    fn name(&self) -> &'static str {
        "probe/insert mix"
    }

    fn schema(&self) -> Vec<TableSpec> {
        vec![TableSpec::new(0, "rows", self.key_space)]
    }

    fn load(&self, db: &Database) -> Result<(), EngineError> {
        // Spread the preloaded rows over the whole key space so every
        // partition starts non-empty.
        let stride = self.key_space / self.rows;
        for i in 0..self.rows {
            let key = i * stride;
            let mut rec = vec![0u8; 64];
            fields::set_u64(&mut rec, 0, key);
            db.load_record(ROWS, key, &rec, None)?;
        }
        Ok(())
    }

    fn next_transaction(&self, rng: &mut ChaCha8Rng) -> TransactionPlan {
        let insert = rng.gen_range(0..100) < self.insert_pct;
        let key = rng.gen_range(0..self.key_space);
        if insert {
            TransactionPlan::single(Action::new(ROWS, key, move |ctx| {
                let mut rec = vec![0u8; 64];
                fields::set_u64(&mut rec, 0, key);
                match ctx.insert(ROWS, key, &rec, None) {
                    Ok(()) | Err(EngineError::DuplicateKey { .. }) => Ok(ActionOutput::empty()),
                    Err(e) => Err(e),
                }
            }))
        } else {
            TransactionPlan::single(Action::new(ROWS, key, move |ctx| {
                let row = ctx.read(ROWS, key)?;
                Ok(ActionOutput::with_values(vec![u64::from(row.is_some())]))
            }))
        }
    }
}

/// Read-only subscriber balance probes with a switchable hot spot (Figure 8).
pub struct BalanceProbe {
    tatp: Tatp,
    hot: std::sync::atomic::AtomicBool,
}

impl BalanceProbe {
    pub fn new(subscribers: u64) -> Self {
        Self {
            tatp: Tatp::new(subscribers),
            hot: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Switch the access pattern: 50% of the requests now hit the first 10% of
    /// the subscribers (the paper's load shift one second into the run).
    pub fn enable_hotspot(&self) {
        self.hot.store(true, std::sync::atomic::Ordering::Release);
    }

    pub fn subscribers(&self) -> u64 {
        self.tatp.subscribers()
    }
}

impl Workload for BalanceProbe {
    fn name(&self) -> &'static str {
        "subscriber balance probe"
    }

    fn schema(&self) -> Vec<TableSpec> {
        self.tatp.schema()
    }

    fn load(&self, db: &Database) -> Result<(), EngineError> {
        self.tatp.load(db)
    }

    fn next_transaction(&self, rng: &mut ChaCha8Rng) -> TransactionPlan {
        let n = self.tatp.subscribers();
        let hot = self.hot.load(std::sync::atomic::Ordering::Acquire);
        let s_id = if hot && rng.gen_bool(0.5) {
            rng.gen_range(0..(n / 10).max(1))
        } else {
            rng.gen_range(0..n)
        };
        TransactionPlan::single(Action::new(SUBSCRIBER, s_id, move |ctx| {
            let row = ctx.read(SUBSCRIBER, s_id)?;
            Ok(ActionOutput::with_rows(row.into_iter().collect()))
        }))
    }
}

/// Subscriber-profile probes under a shiftable skewed distribution.
///
/// Unlike [`BalanceProbe`] (whose hotspot can only be switched *on*), the
/// hot range here can be relocated mid-run via [`SkewedProbe::shift_to`] —
/// the workload the dynamic load balancer has to chase.  The read
/// transaction fetches the subscriber's whole profile (subscriber row, its
/// four access-info and special-facility rows, and its call-forwarding
/// range), so per-action work is substantial enough that a worker stuck
/// with a concentrated hotspot actually saturates; every touched key lies
/// inside the subscriber's own aligned partition slice, so the action stays
/// latch-free-safe under *any* repartitioning the controller chooses.  The
/// mix is read-mostly with a small update fraction so every design
/// exercises its full action path.
pub struct SkewedProbe {
    tatp: Tatp,
    keys: SkewedKeys,
    update_pct: u32,
}

impl SkewedProbe {
    pub fn new(subscribers: u64, kind: SkewKind) -> Self {
        let tatp = Tatp::new(subscribers);
        let keys = SkewedKeys::new(tatp.subscribers(), kind);
        Self {
            tatp,
            keys,
            update_pct: 10,
        }
    }

    /// Relocate the hot range so it starts at subscriber `offset`.
    pub fn shift_to(&self, offset: u64) {
        self.keys.shift_to(offset);
    }

    pub fn keys(&self) -> &SkewedKeys {
        &self.keys
    }

    pub fn subscribers(&self) -> u64 {
        self.tatp.subscribers()
    }

    /// The declarative form of the next transaction.
    ///
    /// This is the same distribution as [`Workload::next_transaction`] (which
    /// is now just `next_request(rng).lower()`): a full-record subscriber
    /// update with probability `update_pct`, otherwise a whole-profile read.
    /// The subscriber op always comes first so the plan's routing key stays
    /// the skewed `s_id` the load balancer chases.
    ///
    /// The update op rebuilds the record from [`Tatp::subscriber_record`] and
    /// overwrites VLR_LOCATION — equivalent to the old in-place field patch
    /// because this workload never modifies any other subscriber field.
    fn next_request(&self, rng: &mut ChaCha8Rng) -> Request {
        let s_id = self.keys.sample(rng);
        if rng.gen_range(0..100) < self.update_pct {
            let location: u64 = rng.gen();
            let mut record = Tatp::subscriber_record(s_id);
            fields::set_u64(&mut record, crate::tatp::sub_fields::VLR_LOCATION, location);
            Request::single(Op::Update {
                table: SUBSCRIBER,
                key: s_id,
                record,
            })
        } else {
            let mut ops = Vec::with_capacity(10);
            ops.push(Op::Get {
                table: SUBSCRIBER,
                key: s_id,
            });
            for t in 0..4 {
                ops.push(Op::Get {
                    table: ACCESS_INFO,
                    key: access_info_key(s_id, t),
                });
                ops.push(Op::Get {
                    table: SPECIAL_FACILITY,
                    key: special_facility_key(s_id, t),
                });
            }
            ops.push(Op::ReadRange {
                table: CALL_FORWARDING,
                lo: call_forwarding_key(s_id, 0, 0),
                hi: call_forwarding_key(s_id, 3, 23),
            });
            Request::new(ops)
        }
    }
}

impl Workload for SkewedProbe {
    fn name(&self) -> &'static str {
        "skewed subscriber probe"
    }

    fn schema(&self) -> Vec<TableSpec> {
        self.tatp.schema()
    }

    fn load(&self, db: &Database) -> Result<(), EngineError> {
        self.tatp.load(db)
    }

    fn next_transaction(&self, rng: &mut ChaCha8Rng) -> TransactionPlan {
        // Fused lowering: the whole profile lives in the subscriber's aligned
        // partition slice (every TATP table is alignment-partitioned with
        // SUBSCRIBER), so one routed action is safe and keeps the dispatch
        // cost identical to the hand-written closure this replaced.
        self.next_request(rng).lower_fused()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn probe_insert_mix_ratio() {
        let w = ProbeInsertMix::new(1_000, 40);
        assert_eq!(w.insert_pct, 40);
        assert_eq!(w.schema().len(), 1);
    }

    #[test]
    fn balance_probe_hotspot_toggle() {
        let w = BalanceProbe::new(1_000);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        // Generate plans before and after the switch; both must be valid.
        let p = w.next_transaction(&mut rng);
        assert_eq!(p.action_count(), 1);
        w.enable_hotspot();
        let p = w.next_transaction(&mut rng);
        assert_eq!(p.action_count(), 1);
    }

    #[test]
    fn skewed_probe_follows_the_shifting_hotspot() {
        let w = SkewedProbe::new(
            10_000,
            SkewKind::HotSpot {
                fraction: 0.05,
                probability: 0.9,
            },
        );
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let routing_keys = |w: &SkewedProbe, rng: &mut ChaCha8Rng| -> Vec<u64> {
            (0..500)
                .map(|_| w.next_transaction(rng).actions[0].routing_key)
                .collect()
        };
        let before = routing_keys(&w, &mut rng);
        let hot_before = before.iter().filter(|&&k| k < 500).count();
        assert!(hot_before > 350, "hotspot at the front: {hot_before}");
        w.shift_to(8_000);
        let after = routing_keys(&w, &mut rng);
        let hot_after = after
            .iter()
            .filter(|&&k| (8_000..8_500).contains(&k))
            .count();
        assert!(hot_after > 350, "hotspot moved: {hot_after}");
    }

    #[test]
    fn skewed_probe_declarative_requests_route_by_subscriber() {
        let mut w = SkewedProbe::new(1_000, SkewKind::Uniform);
        w.update_pct = 50;
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let (mut updates, mut reads) = (0u32, 0u32);
        for _ in 0..200 {
            let request = w.next_request(&mut rng);
            let first = &request.ops[0];
            assert_eq!(first.table(), SUBSCRIBER);
            let s_id = first.routing_key();
            match *first {
                Op::Update { ref record, .. } => {
                    updates += 1;
                    // Full-record overwrite must agree with the loaded record
                    // everywhere except VLR_LOCATION.
                    let mut expect = Tatp::subscriber_record(s_id);
                    let loc = crate::tatp::sub_fields::VLR_LOCATION;
                    expect[loc..loc + 8].copy_from_slice(&record[loc..loc + 8]);
                    assert_eq!(*record, expect);
                }
                Op::Get { .. } => {
                    reads += 1;
                    assert_eq!(request.ops.len(), 10);
                    match *request.ops.last().unwrap() {
                        Op::ReadRange { table, lo, hi } => {
                            assert_eq!(table, CALL_FORWARDING);
                            // The whole CF profile stays inside one
                            // partition-granularity unit (g = 32), so the
                            // range passes Session::run validation on any
                            // partitioned design.
                            assert_eq!(lo / 32, hi / 32);
                        }
                        ref other => panic!("expected trailing range, got {other:?}"),
                    }
                }
                ref other => panic!("unexpected leading op {other:?}"),
            }
            // Lowering preserves the subscriber routing key the DLB chases.
            let plan = Request::new(request.ops.clone()).lower();
            assert_eq!(plan.actions[0].routing_key, s_id);
        }
        assert!(
            updates > 50 && reads > 50,
            "{updates} updates, {reads} reads"
        );
    }

    #[test]
    fn insert_delete_heavy_targets_call_forwarding() {
        let w = InsertDeleteHeavy::new(200);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for _ in 0..10 {
            let plan = w.next_transaction(&mut rng);
            assert_eq!(plan.actions[0].table, CALL_FORWARDING);
        }
    }
}
