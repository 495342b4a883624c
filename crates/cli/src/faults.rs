//! `faults` — the device-robustness sweep: endurance variation ×
//! verify-retry budget × spare-pool size, plus the RTA-signature blur
//! experiment.
//!
//! Part 1 sweeps the graceful-degradation knobs and reports the full
//! degradation timeline (first correctable fault, first line retirement,
//! capacity exhaustion) of Security RBSG under RAA on a fault-injected
//! device, with the fault/retry counters behind each run.
//!
//! Part 2 quantifies an interaction between program-and-verify retries
//! and the RTA side channel: under the paper's timing model a single
//! retry on an ALL-0 write costs read + RESET = 250 ns and on a SET
//! write read + SET = 1125 ns — *exactly* the two remap-movement
//! signatures of Fig. 4(a). Every retry therefore manufactures a false
//! movement signature, diluting the timing channel the RTA needs.
//!
//! Part 3 cross-checks the fast-forward degradation engine against the
//! exact tier (`srbsg_raa_degraded_exact`: real scheme, real attack,
//! write-by-write controller) on the parallel trial engine.
//!
//! Part 4 sweeps faults across a *multi-bank* system: skewed traffic kills
//! one bank long before the others, and the per-bank
//! `SystemDegradationReport` shows the system absorbing writes on its
//! healthy banks long after the first death.

use rand::rngs::{SmallRng, StdRng};
use rand::{RngExt, SeedableRng};
use srbsg_core::{SecurityRbsg, SecurityRbsgConfig};
use srbsg_lifetime::{
    srbsg_raa_degraded_exact, srbsg_raa_degraded_lifetime, PcmParams, SrbsgParams,
};
use srbsg_pcm::{FaultConfig, LineData, MemoryController, MultiBankSystem, TimingModel};
use srbsg_wearlevel::Rbsg;

use crate::table::Table;
use crate::Opts;

pub fn run(opts: &Opts) {
    degradation_sweep(opts);
    rta_signature_blur(opts);
    exact_crosscheck(opts);
    multibank_fault_sweep(opts);
}

/// Part 1: cov × retry budget × spare pool, fast-forward RAA engine.
fn degradation_sweep(opts: &Opts) {
    // The degradation engine tracks per-line fault state, so run it on a
    // reduced platform regardless of `--quick` (the knob effects are
    // scale-free ratios against the same platform's no-fault lifetime).
    let params = if opts.quick {
        PcmParams::small(12, 50_000)
    } else {
        PcmParams::small(14, 200_000)
    };
    let cfg = SrbsgParams::paper_default();
    let covs: &[f64] = if opts.quick {
        &[0.0, 0.2]
    } else {
        &[0.0, 0.1, 0.3]
    };
    let retries: &[u32] = if opts.quick { &[0, 3] } else { &[0, 2, 6] };
    let spares: &[u64] = if opts.quick { &[0, 16] } else { &[0, 16, 64] };

    let mut t = Table::new(
        &format!(
            "faults — degradation sweep, Security RBSG under RAA \
             (2^{} lines, E={}, ECP 2, {} seed(s))",
            params.width(),
            params.endurance,
            opts.seeds
        ),
        &[
            "cov",
            "retries",
            "spares",
            "first_corr_writes",
            "first_retire_writes",
            "exhaust_writes",
            "secs",
            "transients",
            "retry_pulses",
            "retry_exhaust",
            "ecp_used",
            "retired",
        ],
    );
    // One work item per (knob config, seed); per-config aggregation folds
    // the chunk in seed order, so sums and stats merges match the serial
    // sweep exactly.
    let mut items: Vec<(f64, u32, u64, u64)> = Vec::new();
    for &cov in covs {
        for &max_retries in retries {
            for &spare_lines in spares {
                for seed in 0..opts.seeds {
                    items.push((cov, max_retries, spare_lines, seed));
                }
            }
        }
    }
    let cfg_count = items.len() / opts.seeds as usize;
    let last_seed = opts.seeds - 1;
    let trials =
        srbsg_parallel::par_map(items, opts.jobs, |(cov, max_retries, spare_lines, seed)| {
            let fcfg = FaultConfig {
                seed: 0x5EED ^ seed,
                endurance_cov: cov,
                transient_prob: 1e-5,
                wearout_boost: 1e-3,
                max_retries,
                retry_fail_ratio: 0.3,
                ecp_entries: 2,
                ecp_wear_step: params.endurance / 50,
                spare_lines,
            };
            let d = srbsg_raa_degraded_lifetime(&params, &cfg, &fcfg, seed, u128::MAX >> 1);
            if seed == last_seed {
                eprintln!("[faults] cov={cov} retries={max_retries} spares={spare_lines} done");
            }
            d
        });
    for (i, chunk) in trials.chunks(opts.seeds as usize).enumerate() {
        debug_assert!(i < cfg_count);
        let per_cov = retries.len() * spares.len();
        let cov = covs[i / per_cov];
        let max_retries = retries[(i / spares.len()) % retries.len()];
        let spare_lines = spares[i % spares.len()];
        let mut fc = 0.0f64;
        let mut fr = 0.0f64;
        let mut ex = 0.0f64;
        let mut secs = 0.0f64;
        let mut stats = srbsg_pcm::FaultStats::default();
        let mut fc_n = 0u64;
        let mut fr_n = 0u64;
        for d in chunk {
            if let Some(l) = d.first_correctable {
                fc += l.writes as f64;
                fc_n += 1;
            }
            if let Some(l) = d.first_retirement {
                fr += l.writes as f64;
                fr_n += 1;
            }
            ex += d.capacity_exhaustion.writes as f64;
            secs += d.capacity_exhaustion.secs();
            stats.merge(&d.report.stats);
        }
        let n = opts.seeds as f64;
        let opt_avg = |sum: f64, k: u64| {
            if k == 0 {
                "-".to_string()
            } else {
                format!("{:.3e}", sum / k as f64)
            }
        };
        t.row(vec![
            format!("{cov}"),
            max_retries.to_string(),
            spare_lines.to_string(),
            opt_avg(fc, fc_n),
            opt_avg(fr, fr_n),
            format!("{:.3e}", ex / n),
            format!("{:.2}", secs / n),
            stats.transient_faults.to_string(),
            stats.retries_issued.to_string(),
            stats.retry_exhaustions.to_string(),
            stats.ecp_entries_consumed.to_string(),
            stats.lines_retired.to_string(),
        ]);
    }
    t.print();
    t.write_csv(&opts.out_dir, "faults");
    println!(
        "retries=0 turns every transient into an ECP consumption (death once the \
         budget drains); spares extend exhaustion by roughly spare_lines extra \
         line-lifetimes of the hottest slots"
    );
}

/// Part 2: per-write latency deltas between a fault-free run and a
/// retry-injected run over the *same* scheme, keys, and write sequence.
/// Deltas of exactly 250 ns / 1125 ns are retry events indistinguishable
/// from the RTA's ALL-0 / SET movement signatures.
fn rta_signature_blur(opts: &Opts) {
    let writes: usize = if opts.quick { 200_000 } else { 1_000_000 };
    let probs: &[f64] = if opts.quick {
        &[1e-3, 1e-2]
    } else {
        &[1e-4, 1e-3, 1e-2]
    };
    let mut t = Table::new(
        "faults — RTA signature blur from verify-retries (RBSG, 2^10 lines, ψ=16)",
        &[
            "transient_prob",
            "writes",
            "true_250",
            "true_1125",
            "false_250",
            "false_1125",
            "multi_retry",
            "false_per_true",
            "false_1125_per_true",
        ],
    );
    // Each worker computes its own (clean, noisy) stream pair — the clean
    // baseline is deterministic, so recomputing it per probability changes
    // nothing but wall-clock.
    let rows = srbsg_parallel::par_map(probs.to_vec(), opts.jobs, move |p| {
        let clean = latency_stream(0.0, writes);
        let noisy = latency_stream(p, writes);
        // True signatures: movement extra over the demand pulse in the
        // fault-free run (data alternates Ones/Zeros, so the pulse is SET
        // on even writes and RESET on odd ones).
        let mut true_250 = 0u64;
        let mut true_1125 = 0u64;
        for (i, &l) in clean.iter().enumerate() {
            let pulse = if i % 2 == 0 { 1000 } else { 125 };
            match l - pulse {
                250 => true_250 += 1,
                1125 => true_1125 += 1,
                _ => {}
            }
        }
        // False signatures: the paired delta is pure retry noise.
        let mut false_250 = 0u64;
        let mut false_1125 = 0u64;
        let mut multi = 0u64;
        for (c, n) in clean.iter().zip(&noisy) {
            match n - c {
                0 => {}
                250 => false_250 += 1,
                1125 => false_1125 += 1,
                _ => multi += 1,
            }
        }
        let truth = (true_250 + true_1125) as f64;
        eprintln!("[faults] rta blur p={p:e} done");
        vec![
            format!("{p:e}"),
            writes.to_string(),
            true_250.to_string(),
            true_1125.to_string(),
            false_250.to_string(),
            false_1125.to_string(),
            multi.to_string(),
            format!("{:.3}", (false_250 + false_1125) as f64 / truth),
            format!("{:.1}", false_1125 as f64 / (true_1125 as f64).max(1.0)),
        ]
    });
    for row in rows {
        t.row(row);
    }
    t.print();
    t.write_csv(&opts.out_dir, "faults_rta");
    println!(
        "a single verify-retry costs read+RESET = 250 ns on an ALL-0 write and \
         read+SET = 1125 ns on a SET write — byte-identical to the Fig. 4(a) \
         movement signatures, so every false_* event is a spurious RTA detection; \
         the rare SET-movement signature the attack keys on is hit hardest \
         (false_1125_per_true)"
    );
}

/// Part 3: per-seed cross-check of the two degradation tiers on the same
/// fault knobs, both fanned out on the parallel trial engine. The exact
/// tier drives the real scheme write-by-write; the fast-forward tier
/// amortizes quiet stretches — their exhaustion points must agree within
/// the modeling gap (the ratio column), not bit-for-bit.
fn exact_crosscheck(opts: &Opts) {
    let params = if opts.quick {
        PcmParams::small(9, 8_000)
    } else {
        PcmParams::small(10, 20_000)
    };
    let cfg = SrbsgParams {
        sub_regions: 4,
        inner_interval: 4,
        outer_interval: 8,
        stages: 5,
    };
    let fcfg = FaultConfig {
        seed: 0x5EED,
        endurance_cov: 0.1,
        transient_prob: 1e-5,
        wearout_boost: 1e-3,
        max_retries: 3,
        retry_fail_ratio: 0.3,
        ecp_entries: 2,
        ecp_wear_step: params.endurance / 50,
        spare_lines: 16,
    };
    let seeds: Vec<u64> = (0..opts.seeds.max(2)).collect();
    let exact = srbsg_parallel::par_map(seeds.clone(), opts.jobs, move |s| {
        srbsg_raa_degraded_exact(&params, &cfg, &fcfg, s, u128::MAX >> 1)
    });
    let ff = srbsg_parallel::par_map(seeds.clone(), opts.jobs, move |s| {
        srbsg_raa_degraded_lifetime(&params, &cfg, &fcfg, s, u128::MAX >> 1)
    });
    let mut t = Table::new(
        &format!(
            "faults — exact-tier cross-check (2^{} lines, E={}, {} seeds)",
            params.width(),
            params.endurance,
            seeds.len()
        ),
        &[
            "seed",
            "exact_exhaust_writes",
            "ff_exhaust_writes",
            "ff_per_exact",
            "exact_retired",
            "ff_retired",
            "exact_retry_pulses",
            "ff_retry_pulses",
        ],
    );
    for ((s, e), f) in seeds.iter().zip(&exact).zip(&ff) {
        t.row(vec![
            s.to_string(),
            format!("{:.3e}", e.capacity_exhaustion.writes as f64),
            format!("{:.3e}", f.capacity_exhaustion.writes as f64),
            format!(
                "{:.3}",
                f.capacity_exhaustion.writes as f64 / e.capacity_exhaustion.writes as f64
            ),
            e.report.stats.lines_retired.to_string(),
            f.report.stats.lines_retired.to_string(),
            e.report.stats.retries_issued.to_string(),
            f.report.stats.retries_issued.to_string(),
        ]);
    }
    t.print();
    t.write_csv(&opts.out_dir, "faults_exact");
}

/// Part 4: skewed traffic over a 4-bank fault-injected system. Half the
/// writes hammer bank 0's addresses, so it exhausts its spares long before
/// the rest; the per-bank report keeps the system serving on the healthy
/// banks — the failure unit is the bank, not the system.
fn multibank_fault_sweep(opts: &Opts) {
    const B: usize = 4;
    let endurance: u64 = if opts.quick { 2_000 } else { 5_000 };
    let budget: u64 = if opts.quick { 800_000 } else { 2_500_000 };
    let spares_list: &[u64] = &[0, 4, 16];
    let mut items: Vec<(u64, u64)> = Vec::new();
    for &spare_lines in spares_list {
        for seed in 0..opts.seeds {
            items.push((spare_lines, seed));
        }
    }
    let rows = srbsg_parallel::par_map(items, opts.jobs, move |(spare_lines, seed)| {
        let schemes: Vec<SecurityRbsg> = (0..B)
            .map(|b| {
                let mut sc = SecurityRbsgConfig::small(7, 2);
                sc.seed = seed ^ ((b as u64) << 32);
                SecurityRbsg::new(sc)
            })
            .collect();
        let fcfg = FaultConfig {
            seed: 0xBA9C ^ seed,
            endurance_cov: 0.15,
            transient_prob: 1e-5,
            wearout_boost: 1e-3,
            max_retries: 2,
            retry_fail_ratio: 0.3,
            ecp_entries: 1,
            ecp_wear_step: endurance / 50,
            spare_lines,
        };
        let mut sys = MultiBankSystem::with_faults(schemes, endurance, TimingModel::PAPER, fcfg);
        let lines = sys.logical_lines();
        let mut rng = SmallRng::seed_from_u64(0x4BA9 ^ seed);
        let mut first_death: Option<u64> = None;
        let mut served_after_death = 0u64;
        let mut issued = 0u64;
        for i in 0..budget {
            // Skew: half the traffic hammers bank 0's addresses.
            let la = if rng.random_bool(0.5) {
                rng.random_range(0..lines / B as u64) * B as u64
            } else {
                rng.random_range(0..lines)
            };
            let data = LineData::Mixed(rng.random_range(0u64..=u32::MAX as u64) as u32);
            let resp = sys.try_write(la, data).expect("in-range write");
            issued = i + 1;
            if first_death.is_none() && sys.any_bank_failed() {
                first_death = Some(issued);
            }
            if first_death.is_some() && !resp.failed {
                served_after_death += 1;
            }
            if sys.failed() {
                break;
            }
        }
        // The satellite fix under test: one dead bank must not read as a
        // dead system while any bank still serves.
        assert_eq!(
            sys.failed(),
            sys.degradation_report().failed_banks.len() == B,
            "system death must mean every bank is dead"
        );
        eprintln!("[faults] multibank spares={spare_lines} seed={seed} done");
        (
            spare_lines,
            seed,
            first_death,
            served_after_death,
            issued,
            sys.degradation_report(),
        )
    });
    let mut t = Table::new(
        &format!(
            "faults — multi-bank sweep ({B} banks, 2^7 lines each, E={endurance}, \
             50% of writes on bank 0, budget {budget})"
        ),
        &[
            "spares",
            "seed",
            "first_death_writes",
            "served_after_death",
            "failed_banks",
            "worst_bank",
            "worst_pressure",
            "retired_total",
            "ecp_total",
            "sys_failed",
        ],
    );
    for (spare_lines, seed, first_death, served_after_death, issued, rep) in rows {
        t.row(vec![
            spare_lines.to_string(),
            seed.to_string(),
            first_death.map_or_else(|| "-".to_string(), |w| w.to_string()),
            served_after_death.to_string(),
            if rep.failed_banks.is_empty() {
                "-".to_string()
            } else {
                rep.failed_banks
                    .iter()
                    .map(|b| b.to_string())
                    .collect::<Vec<_>>()
                    .join(";")
            },
            rep.worst_bank.to_string(),
            format!("{:.2}", rep.worst().spare_pressure()),
            rep.totals().lines_retired.to_string(),
            rep.totals().ecp_entries_consumed.to_string(),
            (rep.failed_banks.len() == B && issued > 0).to_string(),
        ]);
    }
    t.print();
    t.write_csv(&opts.out_dir, "faults_multibank");
    println!(
        "one dead bank no longer reports the whole system dead: writes keep landing \
         on the healthy banks after first_death (served_after_death), and the \
         per-bank report pins the casualty (worst_bank, failed_banks)"
    );
}

/// One write stream: alternating SET/RESET writes to a hammered address
/// through an RBSG instance, returning each write's observed latency.
/// `p = 0` is the fault-free baseline (same scheme seed, same sequence).
fn latency_stream(p: f64, writes: usize) -> Vec<u128> {
    let mut rng = StdRng::seed_from_u64(42);
    let wl = Rbsg::with_feistel(&mut rng, 10, 4, 16);
    // Generous ECP/spare headroom: a stuck write with neither would fail
    // the bank and silence the fault stream mid-measurement.
    let fcfg = FaultConfig {
        seed: 7,
        transient_prob: p,
        max_retries: 5,
        retry_fail_ratio: 0.25,
        ecp_entries: 32,
        spare_lines: 8,
        ..FaultConfig::default()
    };
    let mut mc = MemoryController::with_faults(wl, 1_000_000_000, TimingModel::PAPER, fcfg);
    (0..writes)
        .map(|i| {
            let data = if i % 2 == 0 {
                LineData::Ones
            } else {
                LineData::Zeros
            };
            mc.write(0, data).latency_ns
        })
        .collect()
}
