//! Recorded simulation outputs: the correctness oracle of `raa-lifetime`
//! and `trace-sim`. Both simulations are deterministic functions of their
//! inputs, so a performance-only change must reproduce these exactly.
//! `srbsg-e2ebench record` recomputes and prints both tables.

use crate::sim::{self, TraceOutcome};

/// RAA lifetime writes per (stages, trial seed).
const RAA_WRITES: [(usize, u64, u128); 24] = [
    (3, 1, 3229851844784),
    (3, 2, 3302121460877),
    (3, 3, 2982332673203),
    (3, 4, 3331405382896),
    (3, 5, 3302526966017),
    (3, 6, 3747800154416),
    (3, 7, 3436692374352),
    (3, 8, 3400610978813),
    (5, 1, 4123565754032),
    (5, 2, 4367469289172),
    (5, 3, 4300504563760),
    (5, 4, 4214944432400),
    (5, 5, 3377192501616),
    (5, 6, 4436180225244),
    (5, 7, 4683293261856),
    (5, 8, 4419772826358),
    (7, 1, 4440086221656),
    (7, 2, 4807304806442),
    (7, 3, 4548257830977),
    (7, 4, 4324437000736),
    (7, 5, 4816461366752),
    (7, 6, 4468901754997),
    (7, 7, 4843370448256),
    (7, 8, 4647489085403),
];

/// Trace-sim outcome per master seed: (seed, demand writes, failed banks,
/// wear digest).
const TRACE: [(u64, u128, usize, u64); 8] = [
    (1, 11746323, 0, 0x4a8b0fa7a8edb16c),
    (2, 11744253, 0, 0xbae8fdd922d60620),
    (3, 11744150, 0, 0x5a2950d68224864b),
    (4, 11745591, 0, 0x6d630be709ef1308),
    (5, 11746850, 0, 0xbae34a5f81762f54),
    (6, 11746701, 0, 0x42dc84f20905696d),
    (7, 11744903, 0, 0x41457ad88a81ca24),
    (8, 11744385, 0, 0xc7101a0d156b530c),
];

/// The recorded lifetime of one trial.
pub fn raa_writes(stages: usize, seed: u64) -> Option<u128> {
    RAA_WRITES
        .iter()
        .find(|&&(s, sd, _)| s == stages && sd == seed)
        .map(|&(_, _, w)| w)
}

/// The recorded outcome of one trace-sim repetition.
pub fn trace_outcome(master: u64) -> Option<TraceOutcome> {
    TRACE
        .iter()
        .find(|t| t.0 == master)
        .map(
            |&(_, demand_writes, failed_banks, wear_digest)| TraceOutcome {
                demand_writes,
                failed_banks,
                wear_digest,
            },
        )
}

/// Recompute both tables and print them as Rust source.
pub fn record() {
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = sim::raa_pool();
    println!("const RAA_WRITES: [(usize, u64, u128); {}] = [", pool.len());
    for (stages, seed) in pool {
        let w = srbsg_lifetime::srbsg_raa_lifetime_split(
            &sim::raa_params(),
            &sim::raa_cfg(stages),
            seed,
            jobs,
        )
        .writes;
        println!("    ({stages}, {seed}, {w}),");
    }
    println!("];");
    println!(
        "const TRACE: [(u64, u128, usize, u64); {}] = [",
        sim::TRACE_POOL
    );
    for master in 1..=sim::TRACE_POOL {
        let o = sim::trace_rep(master, jobs, &mut sim::SimRun::default());
        println!(
            "    ({master}, {}, {}, 0x{:016x}),",
            o.demand_writes, o.failed_banks, o.wear_digest
        );
    }
    println!("];");
}
