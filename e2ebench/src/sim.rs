//! The two in-process simulation workloads: RAA lifetime trials through
//! the split engine, and the bank-sharded trace simulator.
//!
//! Both run over a fixed pool of recorded inputs ([`crate::expected`]); the
//! benchmark seed only chooses the order in which the pool is visited. A
//! simulation's output is a deterministic function of its input, so each
//! result is checked exactly against the value recorded for it.

use std::time::{Duration, Instant};

use srbsg_core::{SecurityRbsg, SecurityRbsgConfig};
use srbsg_lifetime::{srbsg_raa_lifetime_split, PcmParams, SrbsgParams};
use srbsg_pcm::{MemoryController, MultiBankSystem, PcmBank, TimingModel, WearLeveler};
use srbsg_workloads::{ShardedTraceRunner, WorkloadSpec};

use crate::driver::{median, mix64, percentile};
use crate::expected;

/// Stage counts of the RAA sweep.
pub const RAA_STAGES: [usize; 3] = [3, 5, 7];
/// Trial seeds per stage count.
pub const RAA_SEEDS: u64 = 8;
/// Endurance of the RAA platform.
pub const RAA_ENDURANCE: u64 = 10_000_000;
/// Address width of the RAA platform.
pub const RAA_WIDTH: u32 = 20;

/// The RAA platform: 2^20 lines, endurance 1e7.
pub fn raa_params() -> PcmParams {
    PcmParams::small(RAA_WIDTH, RAA_ENDURANCE)
}

/// The RAA scheme: R = 64, ψ_in/ψ_out = 16/32, `stages` DFN stages.
pub fn raa_cfg(stages: usize) -> SrbsgParams {
    SrbsgParams {
        sub_regions: 64,
        inner_interval: 16,
        outer_interval: 32,
        stages,
    }
}

/// The recorded trial pool: (stages, trial seed).
pub fn raa_pool() -> Vec<(usize, u64)> {
    RAA_STAGES
        .iter()
        .flat_map(|&s| (1..=RAA_SEEDS).map(move |seed| (s, seed)))
        .collect()
}

/// `items` reordered by a permutation keyed on `key`.
pub fn permuted<T: Copy>(items: &[T], key: u64) -> Vec<T> {
    let mut idx: Vec<(u64, usize)> = (0..items.len())
        .map(|i| (mix64(key ^ mix64(i as u64)), i))
        .collect();
    idx.sort_unstable();
    idx.into_iter().map(|(_, i)| items[i]).collect()
}

/// One run of a simulation workload.
#[derive(Debug, Default)]
pub struct SimRun {
    /// Units of work attempted (trials, or simulated accesses).
    pub attempted: u64,
    /// Units whose output differed from the recorded value.
    pub failed: u64,
    /// Work units completed per host second, per block (a pass over the
    /// trial pool, or a repetition).
    pub block_rates: Vec<f64>,
    /// Wall time of each timed unit (a trial, or a sharded step), ms, in
    /// blocks of `block_len`.
    pub unit_ms: Vec<f64>,
    /// Timed units per block.
    pub block_len: usize,
    /// Construction times, s.
    pub setup_s: Vec<f64>,
}

/// Construct the device the RAA trials model, once per stage count: the
/// set-up a user pays before the sweep's first trial.
pub fn raa_setup() -> f64 {
    let t0 = Instant::now();
    for &stages in &RAA_STAGES {
        let c = SecurityRbsgConfig {
            width: RAA_WIDTH,
            sub_regions: 64,
            inner_interval: 16,
            outer_interval: 32,
            stages,
            seed: 1,
        };
        let mc = MemoryController::new(SecurityRbsg::new(c), RAA_ENDURANCE, TimingModel::PAPER);
        std::hint::black_box(&mc);
    }
    t0.elapsed().as_secs_f64()
}

/// RAA lifetime trials at `jobs` workers: whole passes over the pool, in a
/// seed-chosen order, until `budget` is spent (at least one pass).
pub fn run_raa(seed: u64, budget: Duration, jobs: usize) -> SimRun {
    let pool = raa_pool();
    let mut run = SimRun {
        setup_s: (0..5).map(|_| raa_setup()).collect(),
        block_len: pool.len(),
        ..SimRun::default()
    };
    let params = raa_params();
    let t0 = Instant::now();
    let mut pass = 0u64;
    loop {
        let t_pass = Instant::now();
        for (stages, trial_seed) in permuted(&pool, seed ^ (pass << 32)) {
            let t = Instant::now();
            let life = srbsg_raa_lifetime_split(&params, &raa_cfg(stages), trial_seed, jobs);
            run.unit_ms.push(t.elapsed().as_secs_f64() * 1e3);
            run.attempted += 1;
            if expected::raa_writes(stages, trial_seed) != Some(life.writes) {
                eprintln!(
                    "raa-lifetime: S={stages} seed={trial_seed} gave {} writes",
                    life.writes
                );
                run.failed += 1;
            }
        }
        run.block_rates
            .push(pool.len() as f64 / t_pass.elapsed().as_secs_f64());
        pass += 1;
        let spent = t0.elapsed();
        if spent + spent / pass as u32 > budget {
            break;
        }
    }
    run
}

/// Banks of the simulated system.
pub const TRACE_BANKS: u64 = 4;
/// Address width of each bank: 2^16 lines. At the paper's 2^22 the ~260 MB
/// working set leaves the caches and the figures follow the host's shared
/// memory system: on the recording host they drifted by up to a third
/// between two sets of runs, past any allowed bound. The paper-scale
/// per-operation costs are profiled per layer by the traced run instead.
pub const TRACE_WIDTH: u32 = 16;
/// Sharded steps per repetition.
pub const TRACE_STEPS: u64 = 8;
/// Simulated accesses per bank per sharded step.
pub const TRACE_STEP_EVENTS: u64 = 1 << 19;
/// Recorded master seeds.
pub const TRACE_POOL: u64 = 8;

/// The traffic: Zipf(1.1) over each bank's lines, 70% writes.
pub fn trace_spec() -> WorkloadSpec {
    WorkloadSpec::Zipf {
        s: 1.1,
        write_ratio: 0.7,
        mean_gap: 20,
    }
}

/// Four Security RBSG banks with the paper's parameters at [`TRACE_WIDTH`],
/// keyed from `master`, built as `MultiBankSystem::new` builds them. The
/// wear counters start as untouched zero pages, which the first writes
/// would fault in; adding zero wear to every slot faults them in here
/// instead, so the cost shows in set-up and every timed step sees resident
/// memory.
pub fn trace_system(master: u64) -> MultiBankSystem<SecurityRbsg> {
    let banks = (0..TRACE_BANKS)
        .map(|b| {
            let mut c = SecurityRbsgConfig::paper_default();
            c.width = TRACE_WIDTH;
            c.seed = mix64(master ^ b);
            let scheme = SecurityRbsg::new(c);
            let mut bank = PcmBank::new(scheme.physical_slots(), 100_000_000, TimingModel::PAPER);
            scheme.init_bank(&mut bank);
            for slot in 0..bank.slots() {
                bank.add_wear(slot, 0);
            }
            MemoryController::from_bank(scheme, bank)
        })
        .collect();
    MultiBankSystem::from_controllers(banks)
}

/// The recorded outcome of one repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOutcome {
    /// Demand writes over all steps and banks.
    pub demand_writes: u128,
    /// Banks that failed.
    pub failed_banks: usize,
    /// Hash of every bank's per-slot wear, physical write count and clock.
    pub wear_digest: u64,
}

/// Digest of a system's wear state.
pub fn wear_digest(sys: &MultiBankSystem<SecurityRbsg>) -> u64 {
    let mut h = 0u64;
    for mc in sys.banks() {
        for &w in mc.bank().wear() {
            h = mix64(h ^ w);
        }
        h = mix64(h ^ mc.bank().total_writes() as u64);
        h = mix64(h ^ mc.now_ns() as u64);
    }
    h
}

/// Construction times of five trace-sim systems built side by side, s.
/// Each is built on fresh memory, as a user's first system is; built one
/// after another and dropped, a later one may land on pages the allocator
/// kept from the last, which made the figure bimodal across runs.
fn trace_setup() -> Vec<f64> {
    let mut alive = Vec::with_capacity(5);
    let mut secs = Vec::with_capacity(5);
    for k in 0..5 {
        let t = Instant::now();
        alive.push(trace_system(k));
        secs.push(t.elapsed().as_secs_f64());
    }
    secs
}

/// One repetition: build a system for pool entry `master`, drive
/// [`TRACE_STEPS`] sharded steps through it, and return its outcome. Each
/// step's wall time is pushed onto `run`.
pub fn trace_rep(master: u64, jobs: usize, run: &mut SimRun) -> TraceOutcome {
    let mut sys = trace_system(master);
    let spec = trace_spec();
    let mut demand_writes = 0;
    let mut failed_banks = 0;
    for step in 0..TRACE_STEPS {
        let runner = ShardedTraceRunner {
            master_seed: mix64(master ^ (step + 1)),
            events_per_bank: TRACE_STEP_EVENTS,
            curve_points: 20,
            max_regions: 512,
        };
        let t = Instant::now();
        let report = runner.run(&mut sys, &|_b, lines, s| spec.build(lines, s), jobs);
        run.unit_ms.push(t.elapsed().as_secs_f64() * 1e3);
        demand_writes += report.demand_writes();
        failed_banks = failed_banks.max(report.failed_banks());
    }
    TraceOutcome {
        demand_writes,
        failed_banks,
        wear_digest: wear_digest(&sys),
    }
}

/// The sharded trace simulator at `jobs` workers: repetitions over the
/// pool, in a seed-chosen order, until `budget` is spent (at least one).
pub fn run_trace(seed: u64, budget: Duration, jobs: usize) -> SimRun {
    let mut run = SimRun {
        setup_s: trace_setup(),
        block_len: TRACE_STEPS as usize,
        ..SimRun::default()
    };
    let pool: Vec<u64> = (1..=TRACE_POOL).collect();
    let order = permuted(&pool, seed);
    let per_rep = TRACE_BANKS * TRACE_STEPS * TRACE_STEP_EVENTS;
    let t0 = Instant::now();
    for (k, &master) in order.iter().cycle().enumerate() {
        let steps_before = run.unit_ms.len();
        let outcome = trace_rep(master, jobs, &mut run);
        let busy_s = run.unit_ms[steps_before..].iter().sum::<f64>() / 1e3;
        run.block_rates.push(per_rep as f64 / busy_s);
        run.attempted += per_rep;
        if expected::trace_outcome(master) != Some(outcome) {
            eprintln!("trace-sim: master {master} gave {outcome:?}");
            run.failed += per_rep;
        }
        let spent = t0.elapsed();
        if spent + spent / (k as u32 + 1) > budget {
            break;
        }
    }
    run
}

/// Throughput, p50 and p99 of a run: the median block rate; the p50 of all
/// unit times; the p99 of each block's unit times, median over blocks (one
/// slow block moves one block's p99, not the result).
pub fn summary(run: &SimRun) -> (f64, f64, f64) {
    let ns = |units: &[f64]| {
        let mut v: Vec<u64> = units.iter().map(|ms| (ms * 1e6) as u64).collect();
        v.sort_unstable();
        v
    };
    let p99s: Vec<f64> = run
        .unit_ms
        .chunks(run.block_len)
        .map(|b| percentile(&ns(b), 0.99) as f64 / 1e6)
        .collect();
    (
        median(&run.block_rates),
        percentile(&ns(&run.unit_ms), 0.5) as f64 / 1e6,
        median(&p99s),
    )
}
