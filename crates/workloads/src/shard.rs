//! Sharding a logical workload across `MultiBankSystem` banks.
//!
//! `MultiBankSystem` interleaves system addresses across banks on the low
//! bits (`route(la) = (la % B, la / B)`), and §IV-A manages each bank with
//! an independent scheme instance. A workload sharded the same way — one
//! independent trace stream per bank, each over the bank's in-bank address
//! space — therefore produces *exactly* the per-bank access subsequences
//! of a round-robin interleaved sequential drive, which is what makes the
//! sharded runner byte-identical to the serial one for any worker count.

use crate::{SequentialTrace, StridedTrace, TraceGenerator, UniformTrace, ZipfTrace};

/// SplitMix64 finalizer: a full-avalanche keyed draw, so per-bank seeds
/// derived from one master seed are statistically independent streams.
/// Re-exported from the workspace's shared definition in `srbsg-parallel`.
pub use srbsg_parallel::splitmix64;

/// Independent RNG seed for `bank`'s shard of a run keyed by `master`.
/// Same derivation as [`srbsg_parallel::stream_seed`] — the round-range
/// RAA engine keys its per-round streams with the identical formula.
pub fn shard_seed(master: u64, bank: usize) -> u64 {
    srbsg_parallel::stream_seed(master, bank as u64)
}

/// Declarative description of a workload, buildable per shard: the CLI
/// and serving harness name the workload once and the runner instantiates
/// one generator per bank with its own [`shard_seed`].
#[derive(Debug, Clone, Copy)]
pub enum WorkloadSpec {
    /// Uniformly random addresses.
    Uniform {
        /// Fraction of accesses that are writes.
        write_ratio: f64,
        /// Mean compute-gap cycles between accesses.
        mean_gap: u64,
    },
    /// Streaming sequential traversal.
    Sequential {
        /// Fraction of accesses that are writes.
        write_ratio: f64,
        /// Mean compute-gap cycles between accesses.
        mean_gap: u64,
    },
    /// Strided traversal.
    Strided {
        /// Address step per access.
        stride: u64,
        /// Fraction of accesses that are writes.
        write_ratio: f64,
        /// Mean compute-gap cycles between accesses.
        mean_gap: u64,
    },
    /// Zipf-distributed hot-spot traffic.
    Zipf {
        /// Zipf exponent.
        s: f64,
        /// Fraction of accesses that are writes.
        write_ratio: f64,
        /// Mean compute-gap cycles between accesses.
        mean_gap: u64,
    },
}

impl WorkloadSpec {
    /// Instantiate the described generator over `lines` addresses.
    pub fn build(&self, lines: u64, seed: u64) -> AnyTrace {
        match *self {
            WorkloadSpec::Uniform {
                write_ratio,
                mean_gap,
            } => AnyTrace::Uniform(UniformTrace::new(lines, write_ratio, mean_gap, seed)),
            WorkloadSpec::Sequential {
                write_ratio,
                mean_gap,
            } => AnyTrace::Sequential(SequentialTrace::new(lines, write_ratio, mean_gap, seed)),
            WorkloadSpec::Strided {
                stride,
                write_ratio,
                mean_gap,
            } => AnyTrace::Strided(StridedTrace::new(
                lines,
                stride,
                write_ratio,
                mean_gap,
                seed,
            )),
            WorkloadSpec::Zipf {
                s,
                write_ratio,
                mean_gap,
            } => AnyTrace::Zipf(ZipfTrace::new(lines, s, write_ratio, mean_gap, seed)),
        }
    }
}

/// A [`WorkloadSpec`]-built generator (enum dispatch, so shard workers
/// need no boxing to stay `Send`).
#[derive(Debug, Clone)]
pub enum AnyTrace {
    /// See [`UniformTrace`].
    Uniform(UniformTrace),
    /// See [`SequentialTrace`].
    Sequential(SequentialTrace),
    /// See [`StridedTrace`].
    Strided(StridedTrace),
    /// See [`ZipfTrace`].
    Zipf(ZipfTrace),
}

impl TraceGenerator for AnyTrace {
    fn next_access(&mut self) -> crate::Access {
        match self {
            AnyTrace::Uniform(t) => t.next_access(),
            AnyTrace::Sequential(t) => t.next_access(),
            AnyTrace::Strided(t) => t.next_access(),
            AnyTrace::Zipf(t) => t.next_access(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_seeds_are_distinct_and_stable() {
        let seeds: Vec<u64> = (0..64).map(|b| shard_seed(42, b)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "per-bank seeds must differ");
        assert_eq!(shard_seed(42, 0), shard_seed(42, 0), "stable");
        assert_ne!(shard_seed(42, 0), shard_seed(43, 0), "master matters");
    }

    #[test]
    fn shard_seed_stream_is_unchanged_by_the_shared_home() {
        // Values recorded before `splitmix64`/`shard_seed` moved to
        // `srbsg-parallel`: any drift here would silently re-seed every
        // sharded run in the workspace.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(shard_seed(42, 0), 0xBDD7_3226_2FEB_6E95);
        assert_eq!(shard_seed(42, 1), 0xC549_D6F3_8899_C014);
        assert_eq!(shard_seed(42, 7), 0x82DB_CC65_DE72_85E0);
    }

    #[test]
    fn spec_builds_the_described_generator() {
        let spec = WorkloadSpec::Zipf {
            s: 1.1,
            write_ratio: 1.0,
            mean_gap: 0,
        };
        let mut a = spec.build(1 << 10, 5);
        let mut b = spec.build(1 << 10, 5);
        for _ in 0..100 {
            assert_eq!(a.next_access(), b.next_access(), "same seed, same stream");
        }
        let mut c = spec.build(1 << 10, 6);
        let diverges = (0..100).any(|_| a.next_access() != c.next_access());
        assert!(diverges, "different seeds should diverge");
    }
}
