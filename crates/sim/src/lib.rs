//! # hns-sim — deterministic discrete-event simulation engine
//!
//! This crate is the substrate every other `hostnet` crate is built on. It
//! provides:
//!
//! * [`SimTime`] / [`Duration`] — nanosecond-resolution simulated time with
//!   convenience constructors and Gbps/cycles arithmetic helpers,
//! * [`EventQueue`] — a priority queue of timestamped events with
//!   deterministic FIFO tie-breaking for events scheduled at the same
//!   instant, backed by a slab-based hierarchical timer wheel with O(1)
//!   cancellation ([`HeapEventQueue`] keeps the old binary heap around as
//!   the differential-testing oracle and benchmark baseline),
//! * [`SimRng`] — a small, fast, seedable PRNG (SplitMix64 seeded
//!   xoshiro256++) so simulations are bit-reproducible across platforms,
//! * [`stats`] — streaming counters, mean/variance accumulators, and
//!   fixed-resolution histograms used to build the paper's figures.
//!
//! Each *run* of the engine is intentionally single-threaded: the paper's
//! experiments are about *modeled* CPU parallelism (simulated cores), not
//! host parallelism, and single-threaded execution keeps every run exactly
//! reproducible. Host parallelism lives one level up — `hns-par` executes
//! independent runs of a figure sweep concurrently, which preserves that
//! reproducibility because no engine state is shared between runs.

pub mod event;
pub mod rng;
pub mod stats;
pub mod time;
mod wheel;

pub use event::{EventQueue, HeapEventQueue, ScheduledEvent};
pub use rng::SimRng;
pub use stats::{Counter, Histogram, MeanVar, Percentiles};
pub use time::{Duration, SimTime};

/// Frequency of the simulated CPU cores, in cycles per second.
///
/// The paper's testbed uses Intel Xeon Gold 6128 CPUs at 3.4GHz; all cycle
/// budgets in the cost model assume this clock.
pub const CPU_HZ: u64 = 3_400_000_000;

/// Convert a number of CPU cycles into simulated time at [`CPU_HZ`].
#[inline]
pub fn cycles_to_time(cycles: u64) -> Duration {
    // ns = cycles * 1e9 / hz. Use u128 to avoid overflow for large batches.
    Duration::from_nanos(((cycles as u128 * 1_000_000_000u128) / CPU_HZ as u128) as u64)
}

/// Convert a simulated duration into CPU cycles at [`CPU_HZ`].
#[inline]
pub fn time_to_cycles(d: Duration) -> u64 {
    ((d.as_nanos() as u128 * CPU_HZ as u128) / 1_000_000_000u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_time_round_trip() {
        for cycles in [0u64, 1, 340, 3_400, 1_000_000, 3_400_000_000] {
            let t = cycles_to_time(cycles);
            let back = time_to_cycles(t);
            // Round trip may lose sub-cycle precision but never more than one
            // cycle per ns of rounding.
            assert!(back <= cycles && cycles - back <= 4, "{cycles} -> {back}");
        }
    }

    #[test]
    fn one_second_of_cycles() {
        assert_eq!(cycles_to_time(CPU_HZ), Duration::from_secs(1));
    }
}
