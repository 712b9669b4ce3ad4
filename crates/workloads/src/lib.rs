//! Benchmark workloads for the PLP reproduction.
//!
//! * [`tatp`] — the Telecom Application Transaction Processing benchmark
//!   (all seven transactions), the paper's primary workload.
//! * [`tpcb`] — TPC-B account updates, with or without record padding (the
//!   heap false-sharing experiment of Figure 7).
//! * [`tpcc`] — a TPC-C subset (NewOrder, Payment, OrderStatus), used for the
//!   page-latch profile of Figure 2.
//! * [`micro`] — the paper's microbenchmarks: insert/delete-heavy CallFwd,
//!   probe/insert mixes for the parallel-SMO experiment, and the hotspot-shift
//!   workload of the repartitioning experiment.
//! * [`skew`] — Zipfian and hotspot key distributions whose hot range can be
//!   shifted mid-run (the dynamic-load-balancing adversary).
//! * [`driver`] — multi-threaded measurement harness producing throughput and
//!   instrumentation deltas for the benchmark binaries.

#![forbid(unsafe_code)]

pub mod driver;
pub mod micro;
pub mod skew;
pub mod tatp;
pub mod tpcb;
pub mod tpcc;

pub use driver::{run_fixed, run_timed, RunResult};

use plp_core::{Database, EngineError, TransactionPlan};
use rand_chacha::ChaCha8Rng;

/// A benchmark workload: schema, loader and transaction generator.
pub trait Workload: Send + Sync {
    /// Human-readable name.
    fn name(&self) -> &'static str;

    /// Table definitions (table ids must be dense, starting at 0).
    fn schema(&self) -> Vec<plp_core::TableSpec>;

    /// Populate the database (run before measurement; statistics are reset
    /// afterwards by the driver).
    fn load(&self, db: &Database) -> Result<(), EngineError>;

    /// Produce the plan for the next transaction of the benchmark mix.
    fn next_transaction(&self, rng: &mut ChaCha8Rng) -> TransactionPlan;
}

/// Fixed-offset little-endian field helpers for byte-array records.
pub mod fields {
    /// Read a `u64` field at `offset`.
    pub fn get_u64(record: &[u8], offset: usize) -> u64 {
        u64::from_le_bytes(record[offset..offset + 8].try_into().unwrap())
    }

    /// Write a `u64` field at `offset`.
    pub fn set_u64(record: &mut [u8], offset: usize, value: u64) {
        record[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Add a signed delta to a `u64` field (wrapping; balances never go
    /// negative in the generated workloads).
    pub fn add_u64(record: &mut [u8], offset: usize, delta: i64) {
        let v = get_u64(record, offset);
        set_u64(record, offset, v.wrapping_add(delta as u64));
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn roundtrip_and_add() {
            let mut r = vec![0u8; 32];
            set_u64(&mut r, 8, 1234);
            assert_eq!(get_u64(&r, 8), 1234);
            add_u64(&mut r, 8, -234);
            assert_eq!(get_u64(&r, 8), 1000);
        }
    }
}
