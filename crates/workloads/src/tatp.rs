//! The TATP (Telecom Application Transaction Processing) benchmark.
//!
//! Schema (key encodings pack the composite TATP keys into 64 bits so that
//! every table's key space is proportional to the subscriber id — this keeps
//! the uniform range partitioning of all tables aligned, so a transaction's
//! actions land on the same logical partition, as the paper's partitioning
//! tool arranges):
//!
//! | table | key | record |
//! |---|---|---|
//! | Subscriber | `s_id` | 100 B (sub_nbr, bits, hex, msc/vlr location) |
//! | Access_Info | `s_id * 4 + ai_type` | 40 B |
//! | Special_Facility | `s_id * 4 + sf_type` | 40 B |
//! | Call_Forwarding | `s_id * 32 + sf_type * 8 + start_time/8` | 40 B |
//!
//! The transaction mix follows the TATP specification: 80% read transactions
//! (GetSubscriberData 35%, GetNewDestination 10%, GetAccessData 35%) and 20%
//! writes (UpdateSubscriberData 2%, UpdateLocation 14%,
//! Insert/DeleteCallForwarding 2% each).

use plp_core::{Action, ActionOutput, Database, EngineError, TableId, TableSpec, TransactionPlan};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

use crate::fields;
use crate::Workload;

pub const SUBSCRIBER: TableId = TableId(0);
pub const ACCESS_INFO: TableId = TableId(1);
pub const SPECIAL_FACILITY: TableId = TableId(2);
pub const CALL_FORWARDING: TableId = TableId(3);

/// Subscriber record layout offsets.
pub mod sub_fields {
    /// `sub_nbr` (the secondary key).
    pub const SUB_NBR: usize = 0;
    /// Packed bit flags.
    pub(crate) const BITS: usize = 8;
    /// Packed hex digits.
    pub(crate) const HEX: usize = 16;
    /// `msc_location`.
    pub(crate) const MSC_LOCATION: usize = 24;
    /// `vlr_location`.
    pub const VLR_LOCATION: usize = 32;
    pub const RECORD_SIZE: usize = 100;
}

const AI_RECORD_SIZE: usize = 40;
const SF_RECORD_SIZE: usize = 40;
const CF_RECORD_SIZE: usize = 40;

/// Offset added to `s_id` to form `sub_nbr` (keeps the two key spaces
/// distinguishable in traces while remaining a bijection).
pub const SUB_NBR_OFFSET: u64 = 1_000_000_000;

/// TATP key encodings.
pub fn access_info_key(s_id: u64, ai_type: u64) -> u64 {
    s_id * 4 + ai_type
}

pub fn special_facility_key(s_id: u64, sf_type: u64) -> u64 {
    s_id * 4 + sf_type
}

pub fn call_forwarding_key(s_id: u64, sf_type: u64, start_time: u64) -> u64 {
    s_id * 32 + sf_type * 8 + start_time / 8
}

/// The TATP workload generator.
pub struct Tatp {
    subscribers: u64,
    /// Subscriber-id distribution (uniform by default; hotspot/Zipfian for
    /// the repartitioning and DLB experiments — the skew's hot range can be
    /// shifted mid-run via [`Tatp::skew`]).
    skew: crate::skew::SkewedKeys,
}

impl Tatp {
    pub fn new(subscribers: u64) -> Self {
        let subscribers = subscribers.max(64);
        Self {
            subscribers,
            skew: crate::skew::SkewedKeys::uniform(subscribers),
        }
    }

    /// The subscriber-id sampler; shift its hot range mid-run with
    /// [`crate::skew::SkewedKeys::shift_to`].
    pub fn skew(&self) -> &crate::skew::SkewedKeys {
        &self.skew
    }

    pub fn subscribers(&self) -> u64 {
        self.subscribers
    }

    /// Pick a subscriber according to the (possibly skewed) access pattern.
    pub fn pick_subscriber(&self, rng: &mut ChaCha8Rng) -> u64 {
        self.skew.sample(rng)
    }

    /// The deterministic load-time subscriber record (also the base for
    /// declarative full-record updates, which reconstruct everything but the
    /// field they change — see `SkewedProbe::next_request`).
    pub fn subscriber_record(s_id: u64) -> Vec<u8> {
        let mut r = vec![0u8; sub_fields::RECORD_SIZE];
        fields::set_u64(&mut r, sub_fields::SUB_NBR, s_id + SUB_NBR_OFFSET);
        fields::set_u64(&mut r, sub_fields::BITS, s_id ^ 0x5555_5555);
        fields::set_u64(&mut r, sub_fields::HEX, s_id.rotate_left(13));
        fields::set_u64(&mut r, sub_fields::MSC_LOCATION, s_id * 31);
        fields::set_u64(&mut r, sub_fields::VLR_LOCATION, s_id * 17);
        r
    }

    fn small_record(size: usize, seed: u64) -> Vec<u8> {
        let mut r = vec![0u8; size];
        fields::set_u64(&mut r, 0, seed);
        fields::set_u64(&mut r, 8, seed.wrapping_mul(2654435761));
        r
    }

    // ------------------------------------------------------------------
    // The seven TATP transactions, as plans
    // ------------------------------------------------------------------

    /// GetSubscriberData: read one subscriber row (read-only).
    pub fn get_subscriber_data(&self, s_id: u64) -> TransactionPlan {
        TransactionPlan::single(Action::new(SUBSCRIBER, s_id, move |ctx| {
            let row = ctx.read(SUBSCRIBER, s_id)?;
            Ok(ActionOutput::with_rows(row.into_iter().collect()))
        }))
    }

    /// GetNewDestination: read a special facility and its active call
    /// forwarding entries (read-only).
    fn get_new_destination(&self, s_id: u64, sf_type: u64) -> TransactionPlan {
        TransactionPlan::single(Action::new(SPECIAL_FACILITY, s_id * 4, move |ctx| {
            let sf = ctx.read(SPECIAL_FACILITY, special_facility_key(s_id, sf_type))?;
            let mut out = ActionOutput::empty();
            if let Some(sf) = sf {
                out.rows.push(sf);
                let lo = call_forwarding_key(s_id, sf_type, 0);
                let hi = call_forwarding_key(s_id, sf_type, 23);
                for (_, row) in ctx.range_read(CALL_FORWARDING, lo, hi)? {
                    out.rows.push(row);
                }
            }
            Ok(out)
        }))
    }

    /// GetAccessData: read one access-info row (read-only).
    fn get_access_data(&self, s_id: u64, ai_type: u64) -> TransactionPlan {
        TransactionPlan::single(Action::new(ACCESS_INFO, s_id * 4, move |ctx| {
            let row = ctx.read(ACCESS_INFO, access_info_key(s_id, ai_type))?;
            Ok(ActionOutput::with_rows(row.into_iter().collect()))
        }))
    }

    /// UpdateSubscriberData: update subscriber bits and special-facility data
    /// (two actions, exercising the multi-action rendezvous).
    fn update_subscriber_data(&self, s_id: u64, sf_type: u64, bits: u64) -> TransactionPlan {
        TransactionPlan::parallel(vec![
            Action::new(SUBSCRIBER, s_id, move |ctx| {
                let found = ctx.update(SUBSCRIBER, s_id, &mut |r| {
                    fields::set_u64(r, sub_fields::BITS, bits);
                })?;
                Ok(ActionOutput::with_values(vec![u64::from(found)]))
            }),
            Action::new(SPECIAL_FACILITY, s_id * 4, move |ctx| {
                let found = ctx.update(
                    SPECIAL_FACILITY,
                    special_facility_key(s_id, sf_type),
                    &mut |r| fields::set_u64(r, 8, bits.rotate_left(7)),
                )?;
                Ok(ActionOutput::with_values(vec![u64::from(found)]))
            }),
        ])
    }

    /// UpdateLocation: look up the subscriber by number (secondary index) and
    /// update its VLR location.
    fn update_location(&self, sub_nbr: u64, new_location: u64) -> TransactionPlan {
        let s_id_guess = sub_nbr - SUB_NBR_OFFSET;
        TransactionPlan::single(Action::new(SUBSCRIBER, s_id_guess, move |ctx| {
            let s_id = ctx
                .secondary_probe(SUBSCRIBER, sub_nbr)?
                .ok_or_else(|| EngineError::Abort("unknown sub_nbr".into()))?;
            ctx.update(SUBSCRIBER, s_id, &mut |r| {
                fields::set_u64(r, sub_fields::VLR_LOCATION, new_location);
            })?;
            Ok(ActionOutput::empty())
        }))
    }

    /// InsertCallForwarding: secondary lookup, check the special facility
    /// exists, then insert the call-forwarding row (second stage).
    fn insert_call_forwarding(
        &self,
        sub_nbr: u64,
        sf_type: u64,
        start_time: u64,
    ) -> TransactionPlan {
        let s_id_guess = sub_nbr - SUB_NBR_OFFSET;
        TransactionPlan::single(Action::new(SUBSCRIBER, s_id_guess, move |ctx| {
            let s_id = ctx
                .secondary_probe(SUBSCRIBER, sub_nbr)?
                .ok_or_else(|| EngineError::Abort("unknown sub_nbr".into()))?;
            let sf = ctx.read(SPECIAL_FACILITY, special_facility_key(s_id, sf_type))?;
            if sf.is_none() {
                return Err(EngineError::Abort("no such special facility".into()));
            }
            Ok(ActionOutput::with_values(vec![s_id]))
        }))
        .followed_by(move |outputs| {
            let Some(s_id) = outputs.first().and_then(|o| o.values.first()).copied() else {
                return TransactionPlan::empty();
            };
            let key = call_forwarding_key(s_id, sf_type, start_time);
            TransactionPlan::single(Action::new(CALL_FORWARDING, key, move |ctx| {
                let record = Tatp::small_record(CF_RECORD_SIZE, key);
                match ctx.insert(CALL_FORWARDING, key, &record, None) {
                    Ok(()) => Ok(ActionOutput::with_values(vec![1])),
                    // The TATP spec expects ~30% of inserts to fail on an
                    // existing row; that is a valid transaction outcome.
                    Err(EngineError::DuplicateKey { .. }) => Ok(ActionOutput::with_values(vec![0])),
                    Err(e) => Err(e),
                }
            }))
        })
    }

    /// DeleteCallForwarding: secondary lookup then delete the row.
    fn delete_call_forwarding(
        &self,
        sub_nbr: u64,
        sf_type: u64,
        start_time: u64,
    ) -> TransactionPlan {
        let s_id_guess = sub_nbr - SUB_NBR_OFFSET;
        TransactionPlan::single(Action::new(SUBSCRIBER, s_id_guess, move |ctx| {
            let s_id = ctx
                .secondary_probe(SUBSCRIBER, sub_nbr)?
                .ok_or_else(|| EngineError::Abort("unknown sub_nbr".into()))?;
            Ok(ActionOutput::with_values(vec![s_id]))
        }))
        .followed_by(move |outputs| {
            let Some(s_id) = outputs.first().and_then(|o| o.values.first()).copied() else {
                return TransactionPlan::empty();
            };
            let key = call_forwarding_key(s_id, sf_type, start_time);
            TransactionPlan::single(Action::new(CALL_FORWARDING, key, move |ctx| {
                let deleted = ctx.delete(CALL_FORWARDING, key, None)?;
                Ok(ActionOutput::with_values(vec![u64::from(deleted)]))
            }))
        })
    }
}

impl Workload for Tatp {
    fn name(&self) -> &'static str {
        "TATP"
    }

    fn schema(&self) -> Vec<TableSpec> {
        let s = self.subscribers;
        vec![
            TableSpec::new(0, "subscriber", s).with_secondary(),
            TableSpec::new(1, "access_info", s * 4)
                .with_granularity(4)
                .aligned_with(SUBSCRIBER),
            TableSpec::new(2, "special_facility", s * 4)
                .with_granularity(4)
                .aligned_with(SUBSCRIBER),
            TableSpec::new(3, "call_forwarding", s * 32)
                .with_granularity(32)
                .aligned_with(SUBSCRIBER),
        ]
    }

    fn load(&self, db: &Database) -> Result<(), EngineError> {
        for s_id in 0..self.subscribers {
            db.load_record(
                SUBSCRIBER,
                s_id,
                &Self::subscriber_record(s_id),
                Some(s_id + SUB_NBR_OFFSET),
            )?;
            for ai_type in 0..4 {
                db.load_record(
                    ACCESS_INFO,
                    access_info_key(s_id, ai_type),
                    &Self::small_record(AI_RECORD_SIZE, s_id * 4 + ai_type),
                    None,
                )?;
            }
            for sf_type in 0..4 {
                db.load_record(
                    SPECIAL_FACILITY,
                    special_facility_key(s_id, sf_type),
                    &Self::small_record(SF_RECORD_SIZE, s_id * 4 + sf_type),
                    None,
                )?;
            }
            // Roughly half the subscribers get call-forwarding rows, one per
            // (sf_type 0, start_time in {0, 8, 16}).
            if s_id % 2 == 0 {
                for start in [0u64, 8, 16] {
                    db.load_record(
                        CALL_FORWARDING,
                        call_forwarding_key(s_id, 0, start),
                        &Self::small_record(CF_RECORD_SIZE, s_id * 32 + start),
                        None,
                    )?;
                }
            }
        }
        Ok(())
    }

    fn next_transaction(&self, rng: &mut ChaCha8Rng) -> TransactionPlan {
        let s_id = self.pick_subscriber(rng);
        let sub_nbr = s_id + SUB_NBR_OFFSET;
        let roll = rng.gen_range(0..100u32);
        match roll {
            0..=34 => self.get_subscriber_data(s_id),
            35..=44 => self.get_new_destination(s_id, rng.gen_range(0..4)),
            45..=79 => self.get_access_data(s_id, rng.gen_range(0..4)),
            80..=81 => self.update_subscriber_data(s_id, rng.gen_range(0..4), rng.gen()),
            82..=95 => self.update_location(sub_nbr, rng.gen()),
            96..=97 => self.insert_call_forwarding(
                sub_nbr,
                0,
                *[0u64, 8, 16].get(rng.gen_range(0..3)).unwrap(),
            ),
            _ => self.delete_call_forwarding(
                sub_nbr,
                0,
                *[0u64, 8, 16].get(rng.gen_range(0..3)).unwrap(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn key_encodings_are_disjoint_per_subscriber() {
        assert_eq!(access_info_key(10, 3), 43);
        assert_eq!(special_facility_key(10, 3), 43);
        assert!(call_forwarding_key(10, 0, 0) < call_forwarding_key(10, 0, 8));
        assert!(call_forwarding_key(10, 3, 16) < call_forwarding_key(11, 0, 0));
    }

    #[test]
    fn mix_generates_all_transaction_types() {
        let tatp = Tatp::new(100);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut multi_action = 0;
        let mut staged = 0;
        for _ in 0..500 {
            let plan = tatp.next_transaction(&mut rng);
            if plan.action_count() > 1 {
                multi_action += 1;
            }
            if plan.then.is_some() {
                staged += 1;
            }
        }
        assert!(multi_action > 0, "UpdateSubscriberData should appear");
        assert!(staged > 0, "Insert/DeleteCallForwarding should appear");
    }

    #[test]
    fn hotspot_skews_subscriber_choice() {
        let mut tatp = Tatp::new(10_000);
        tatp.skew = crate::skew::SkewedKeys::new(
            tatp.subscribers,
            crate::skew::SkewKind::HotSpot {
                fraction: 0.1,
                probability: 0.5,
            },
        );
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let hot = (0..10_000)
            .filter(|_| tatp.pick_subscriber(&mut rng) < 1_000)
            .count();
        // ~50% forced hot + ~10% of the uniform half ≈ 55%.
        assert!(hot > 4_500 && hot < 6_500, "hot fraction = {hot}");
    }
}
