//! The seeded reference request streams.
//!
//! The generator is a copy of `plp_client::TatpOpMix`'s distribution, kept
//! here with its own PRNG so that no change to `plp-client` or to the `rand`
//! shims can shift the stream the ledger's numbers were measured on: the
//! engine sees only the generated [`Op`]s.  The golden hashes at the bottom
//! pin the stream for the default seed.
//!
//! Every client draws reads over all subscribers but writes only to its own
//! residue class (`s_id % clients == client`).  That keeps the stream's shape
//! and makes "the last acknowledged write to a key" well defined per client,
//! which the durability check relies on.

use plp_core::{Op, Request};
use plp_workloads::fields;
use plp_workloads::tatp::{
    access_info_key, call_forwarding_key, sub_fields, Tatp, ACCESS_INFO, CALL_FORWARDING,
    SUBSCRIBER,
};

/// The seed used when `--seed` is not given; the golden hashes are for it.
pub const DEFAULT_SEED: u64 = 1;

/// SplitMix64: small, fast, and defined here so the stream cannot drift.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-40 for the
    /// ranges used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// One client's request generator.
#[derive(Debug, Clone)]
pub struct Stream {
    rng: Rng,
    subscribers: u64,
    client: u64,
    clients: u64,
}

impl Stream {
    /// `subscribers` must be at least `clients`, so every client owns a key.
    pub fn new(seed: u64, client: usize, clients: usize, subscribers: u64) -> Self {
        assert!(clients >= 1 && subscribers >= clients as u64);
        // Distinct, well-mixed sub-seeds per client.
        let mut seeder = Rng::new(seed ^ ((client as u64 + 1) << 32));
        Stream {
            rng: Rng::new(seeder.next_u64()),
            subscribers,
            client: client as u64,
            clients: clients as u64,
        }
    }

    /// The subscriber this client may write, nearest below or at `s_id`.
    fn owned(&self, s_id: u64) -> u64 {
        let owned = s_id - s_id % self.clients + self.client;
        if owned < self.subscribers {
            owned
        } else {
            owned - self.clients
        }
    }

    fn location_update(&mut self, s_id: u64) -> Op {
        let mut record = Tatp::subscriber_record(s_id);
        fields::set_u64(&mut record, sub_fields::VLR_LOCATION, self.rng.next_u64());
        Op::Update {
            table: SUBSCRIBER,
            key: s_id,
            record,
        }
    }

    /// Insert (`insert == true`) or delete one of the subscriber's
    /// call-forwarding rows.
    fn call_forwarding_churn(&mut self, s_id: u64, insert: bool) -> Op {
        let sf_type = self.rng.below(4);
        let start_time = [0, 8, 16][self.rng.below(3) as usize];
        let key = call_forwarding_key(s_id, sf_type, start_time);
        if insert {
            let mut record = vec![0u8; 40];
            fields::set_u64(&mut record, 0, key);
            Op::Insert {
                table: CALL_FORWARDING,
                key,
                record,
                secondary_key: None,
            }
        } else {
            Op::Delete {
                table: CALL_FORWARDING,
                key,
                secondary_key: None,
            }
        }
    }

    /// All of one subscriber's call-forwarding rows: one granularity unit.
    pub fn call_forwarding_range(s_id: u64) -> Op {
        Op::ReadRange {
            table: CALL_FORWARDING,
            lo: call_forwarding_key(s_id, 0, 0),
            hi: call_forwarding_key(s_id, 3, 23),
        }
    }

    /// The single-op reference stream: 35 % Get subscriber, 35 % Get
    /// access-info, 10 % call-forwarding range, 14 % location update,
    /// 3 % + 3 % call-forwarding insert / delete.
    pub fn next_op(&mut self) -> Op {
        let s_id = self.rng.below(self.subscribers);
        let pct = self.rng.below(100);
        if pct < 35 {
            Op::Get {
                table: SUBSCRIBER,
                key: s_id,
            }
        } else if pct < 70 {
            Op::Get {
                table: ACCESS_INFO,
                key: access_info_key(s_id, self.rng.below(4)),
            }
        } else if pct < 80 {
            Self::call_forwarding_range(s_id)
        } else if pct < 94 {
            self.location_update(self.owned(s_id))
        } else {
            self.call_forwarding_churn(self.owned(s_id), pct < 97)
        }
    }

    /// The multi-op stream: 70 % one subscriber's whole profile (6 reads,
    /// one worker), 20 % two subscribers (4 reads, at most 2 workers), 10 %
    /// profile write (location update + call-forwarding insert or delete).
    pub fn next_profile(&mut self) -> Request {
        let s_id = self.rng.below(self.subscribers);
        let pct = self.rng.below(100);
        let get = |table, key| Op::Get { table, key };
        if pct < 70 {
            let mut ops = vec![get(SUBSCRIBER, s_id)];
            ops.extend((0..4).map(|ai| get(ACCESS_INFO, access_info_key(s_id, ai))));
            ops.push(Self::call_forwarding_range(s_id));
            Request::new(ops)
        } else if pct < 90 {
            let other = self.rng.below(self.subscribers);
            let ai = self.rng.below(4);
            Request::new(vec![
                get(SUBSCRIBER, s_id),
                get(ACCESS_INFO, access_info_key(s_id, ai)),
                get(SUBSCRIBER, other),
                get(ACCESS_INFO, access_info_key(other, ai)),
            ])
        } else {
            let s_id = self.owned(s_id);
            let update = self.location_update(s_id);
            let churn = self.call_forwarding_churn(s_id, pct < 95);
            Request::new(vec![update, churn])
        }
    }
}

/// FNV-1a over a canonical encoding of ops: the stream's fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct StreamHash(u64);

impl StreamHash {
    pub fn new() -> Self {
        StreamHash(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn op(&mut self, op: &Op) {
        let (tag, key2, record): (u8, u64, &[u8]) = match op {
            Op::Get { .. } => (1, 0, &[]),
            Op::Insert { record, .. } => (2, 0, record),
            Op::Update { record, .. } => (3, 0, record),
            Op::Delete { .. } => (4, 0, &[]),
            Op::ReadRange { hi, .. } => (5, *hi, &[]),
        };
        self.bytes(&[tag]);
        self.bytes(&op.table().0.to_le_bytes());
        self.bytes(&op.routing_key().to_le_bytes());
        self.bytes(&key2.to_le_bytes());
        self.bytes(record);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// How many generated requests the golden hash covers.
pub const GOLDEN_REQUESTS: usize = 10_000;

/// Hash of client 0's first [`GOLDEN_REQUESTS`] requests: the single-op
/// stream, or the multi-op profile stream.
pub fn stream_hash(seed: u64, clients: usize, subscribers: u64, profile: bool) -> u64 {
    let mut stream = Stream::new(seed, 0, clients, subscribers);
    let mut hash = StreamHash::new();
    for _ in 0..GOLDEN_REQUESTS {
        if profile {
            for op in &stream.next_profile().ops {
                hash.op(op);
            }
        } else {
            hash.op(&stream.next_op());
        }
    }
    hash.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{CLIENTS, SUBSCRIBERS};

    /// The streams for the default seed.  A change here means every
    /// committed number was measured on a different input: re-baseline.
    #[test]
    fn golden_stream_hashes() {
        assert_eq!(
            stream_hash(DEFAULT_SEED, CLIENTS, SUBSCRIBERS, false),
            GOLDEN_TATP,
            "single-op stream drifted"
        );
        assert_eq!(
            stream_hash(DEFAULT_SEED, CLIENTS, SUBSCRIBERS, true),
            GOLDEN_PROFILE,
            "profile stream drifted"
        );
    }

    const GOLDEN_TATP: u64 = 0xD1B1_067E_EBB7_7F78;
    const GOLDEN_PROFILE: u64 = 0xC4CE_D7D4_D8D6_8335;

    #[test]
    fn mix_matches_the_stated_shares() {
        let mut stream = Stream::new(7, 1, 2, 1_000);
        let mut counts = [0u32; 6];
        for _ in 0..20_000 {
            let slot = match stream.next_op() {
                Op::Get { table, key } if table == SUBSCRIBER => {
                    assert!(key < 1_000);
                    0
                }
                Op::Get { key, .. } => {
                    assert!(key < 4_000);
                    1
                }
                Op::ReadRange { lo, hi, .. } => {
                    // One partition-granularity unit (32), so the
                    // partitioned designs accept it.
                    assert_eq!(lo / 32, hi / 32);
                    2
                }
                Op::Update { key, record, .. } => {
                    assert_eq!(key % 2, 1, "writes stay in the client's class");
                    assert_eq!(record.len(), sub_fields::RECORD_SIZE);
                    3
                }
                Op::Insert { key, .. } => {
                    assert_eq!(key / 32 % 2, 1);
                    4
                }
                Op::Delete { key, .. } => {
                    assert_eq!(key / 32 % 2, 1);
                    5
                }
            };
            counts[slot] += 1;
        }
        let share = |i: usize| f64::from(counts[i]) / 20_000.0;
        for (i, want) in [0.35, 0.35, 0.10, 0.14, 0.03, 0.03].into_iter().enumerate() {
            assert!((share(i) - want).abs() < 0.015, "op {i}: {}", share(i));
        }
    }

    #[test]
    fn same_seed_same_stream_and_clients_differ() {
        let ops = |seed, client| {
            let mut s = Stream::new(seed, client, 2, 5_000);
            (0..200).map(|_| s.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(ops(3, 0), ops(3, 0));
        assert_ne!(ops(3, 0), ops(3, 1));
        assert_ne!(ops(3, 0), ops(4, 0));
    }

    #[test]
    fn profile_requests_have_the_stated_shapes() {
        let mut stream = Stream::new(11, 0, 2, 1_000);
        let (mut six, mut four, mut two) = (0, 0, 0);
        for _ in 0..5_000 {
            match stream.next_profile().ops.len() {
                6 => six += 1,
                4 => four += 1,
                2 => two += 1,
                n => panic!("unexpected request of {n} ops"),
            }
        }
        assert!((3_300..3_700).contains(&six), "{six}");
        assert!((850..1_150).contains(&four), "{four}");
        assert!((400..600).contains(&two), "{two}");
    }

    #[test]
    fn owned_keys_stay_in_range_when_clients_do_not_divide_subscribers() {
        let stream = Stream::new(1, 2, 3, 100);
        for s_id in 0..100 {
            let owned = stream.owned(s_id);
            assert!(owned < 100 && owned % 3 == 2, "{s_id} -> {owned}");
        }
    }
}
