//! Lifetime of Security RBSG on a *degrading* device: endurance
//! variation, verify-retries, ECP budgets, and spare lines (see
//! [`srbsg_pcm::FaultConfig`]).
//!
//! Where the ideal-device engines report a single number — writes until
//! the first line crosses its endurance — these report the degradation
//! timeline: when the device stopped being pristine, when the first line
//! was retired to a spare, and when the spare pool ran out (capacity
//! exhaustion, the fault model's notion of "failed"). Two tiers mirror
//! the rest of the crate and are cross-validated by tests:
//!
//! * [`srbsg_raa_degraded_exact`] drives the real [`SecurityRbsg`] scheme
//!   and the real RAA attack code through a fault-injected
//!   [`MemoryController`].
//! * [`srbsg_raa_degraded_lifetime`] runs the RAA round engine's rounds,
//!   depositing lap-sized wear quanta into a fault-injected
//!   [`PcmBank`] so the event machinery (retries, ECP, retirement) runs
//!   identically to the exact path, while latency is amortized
//!   analytically.

use srbsg_attacks::RepeatedAddressAttack;
use srbsg_core::{SecurityRbsg, SecurityRbsgConfig};
use srbsg_pcm::{DegradationReport, FaultConfig, MemoryController, PcmBank};

use crate::split::{round_plans, stay_quanta, Geometry};
use crate::srbsg::{finish, SrbsgParams};
use crate::{Lifetime, PcmParams};

/// The degradation timeline of one run, in attacker-visible units.
#[derive(Debug, Clone)]
pub struct DegradationLifetime {
    /// When the device stopped being pristine (first transient fault or
    /// ECP consumption); `None` if it never did before exhaustion.
    pub first_correctable: Option<Lifetime>,
    /// When the first line was retired to a spare.
    pub first_retirement: Option<Lifetime>,
    /// When the spare pool ran out — the end of the device's service life.
    /// If the run hit its write budget first, this is the budget point
    /// (check `report.capacity_exhaustion`).
    pub capacity_exhaustion: Lifetime,
    /// The bank's own report and counters.
    pub report: DegradationReport,
}

/// Exact tier: real scheme, real attack, fault-injected controller.
///
/// Runs RAA in bounded bursts so the degradation milestones can be
/// timestamped between bursts (granularity: one burst, default 1/64 of
/// the ideal write budget). Stops at capacity exhaustion or after
/// `max_writes` demand writes.
pub fn srbsg_raa_degraded_exact(
    params: &PcmParams,
    cfg: &SrbsgParams,
    fault_cfg: &FaultConfig,
    seed: u64,
    max_writes: u128,
) -> DegradationLifetime {
    let scheme = SecurityRbsg::new(SecurityRbsgConfig {
        width: params.width(),
        sub_regions: cfg.sub_regions,
        inner_interval: cfg.inner_interval,
        outer_interval: cfg.outer_interval,
        stages: cfg.stages,
        seed,
    });
    let mut mc = MemoryController::with_faults(scheme, params.endurance, params.timing, *fault_cfg);
    let attack = RepeatedAddressAttack::default();
    let burst = (max_writes / 64).max(1);
    let mut first_correctable = None;
    let mut first_retirement = None;
    while !mc.failed() && mc.demand_writes() < max_writes {
        let budget = burst.min(max_writes - mc.demand_writes());
        attack.run(&mut mc, budget);
        let report = mc.degradation_report();
        let here = Lifetime {
            ns: mc.now_ns(),
            writes: mc.demand_writes(),
        };
        if first_correctable.is_none() && report.first_correctable.is_some() {
            first_correctable = Some(here);
        }
        if first_retirement.is_none() && report.first_retirement.is_some() {
            first_retirement = Some(here);
        }
    }
    DegradationLifetime {
        first_correctable,
        first_retirement,
        capacity_exhaustion: Lifetime {
            ns: mc.now_ns(),
            writes: mc.demand_writes(),
        },
        report: mc.degradation_report(),
    }
}

/// Fast-forward tier: RAA lifetime of Security RBSG on a degrading
/// device. Runs until capacity exhaustion or until `max_writes` attack
/// writes have been spent (whichever first).
///
/// The rounds are the RAA round engine's (`split.rs`): same per-round
/// streams, same deposit schedule as [`crate::srbsg_raa_lifetime_split`].
/// Here every lap-sized quantum lands in a real [`PcmBank`] via
/// `add_wear`, and each full lap adds one background write to every slot
/// of the region, so per-line endurance draws, transient schedules, ECP
/// consumption, and spare-line retirement all fire exactly as they would
/// write-by-write; only latency is amortized (via [`finish`]). Milestones
/// are timestamped at round granularity.
pub fn srbsg_raa_degraded_lifetime(
    params: &PcmParams,
    cfg: &SrbsgParams,
    fault_cfg: &FaultConfig,
    seed: u64,
    max_writes: u128,
) -> DegradationLifetime {
    let geo = Geometry::new(params, cfg);
    let mut bank = PcmBank::with_faults(
        cfg.sub_regions * geo.slots,
        params.endurance,
        params.timing,
        *fault_cfg,
    );
    let mut total: u128 = 0;
    let mut first_correctable = None;
    let mut first_retirement = None;
    for plan in round_plans(params, cfg, seed, 0..u64::MAX) {
        let (writes, failed) =
            plan.deposit(|region, entry, w| bank_stay(&mut bank, geo, region, entry, w));
        total += writes;
        let report = bank.degradation_report();
        if first_correctable.is_none() && report.first_correctable.is_some() {
            first_correctable = Some(finish(params, cfg, total));
        }
        if first_retirement.is_none() && report.first_retirement.is_some() {
            first_retirement = Some(finish(params, cfg, total));
        }
        if failed || total >= max_writes {
            break;
        }
    }
    DegradationLifetime {
        first_correctable,
        first_retirement,
        capacity_exhaustion: finish(params, cfg, total),
        report: bank.degradation_report(),
    }
}

/// One stay on the fault-injected bank; returns (writes deposited,
/// bank failed).
fn bank_stay(
    bank: &mut PcmBank,
    geo: Geometry,
    region: u64,
    entry: u64,
    writes: u64,
) -> (u64, bool) {
    let base = region * geo.slots;
    stay_quanta(geo, entry, writes, |slot, amount| {
        bank.add_wear(base + slot, amount);
        if amount == geo.lap {
            for s in 0..geo.slots {
                bank.add_wear(base + s, 1);
                if bank.failed() {
                    break;
                }
            }
        }
        bank.failed()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::srbsg_raa_lifetime_split;

    fn small_cfg() -> SrbsgParams {
        SrbsgParams {
            sub_regions: 8,
            inner_interval: 4,
            outer_interval: 8,
            stages: 5,
        }
    }

    #[test]
    fn inert_faults_reproduce_ideal_engine_exactly() {
        // With every fault knob zero, the degraded engine must agree with
        // the ideal round engine write for write: same rounds, same
        // deposits, failure at the first endurance crossing.
        let configs = [
            (PcmParams::small(9, 20_000), small_cfg()),
            (
                PcmParams::small(8, 6_000),
                SrbsgParams {
                    sub_regions: 4,
                    ..small_cfg()
                },
            ),
        ];
        for (params, cfg) in configs {
            for seed in 0..8 {
                let ideal = srbsg_raa_lifetime_split(&params, &cfg, seed, 1);
                let degraded = srbsg_raa_degraded_lifetime(
                    &params,
                    &cfg,
                    &FaultConfig::default(),
                    seed,
                    u128::MAX >> 1,
                );
                assert!(degraded.report.capacity_exhaustion.is_some());
                assert_eq!(
                    degraded.capacity_exhaustion.writes, ideal.writes,
                    "{params:?} {cfg:?} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn spares_strictly_outlive_first_line_death() {
        let params = PcmParams::small(9, 15_000);
        let cfg = small_cfg();
        let no_spares =
            srbsg_raa_degraded_lifetime(&params, &cfg, &FaultConfig::default(), 3, u128::MAX >> 1);
        let spared_cfg = FaultConfig {
            seed: 3,
            spare_lines: 32,
            ecp_entries: 2,
            ecp_wear_step: 1_000,
            ..FaultConfig::default()
        };
        let spared = srbsg_raa_degraded_lifetime(&params, &cfg, &spared_cfg, 3, u128::MAX >> 1);
        assert!(spared.report.capacity_exhaustion.is_some());
        assert!(
            spared.capacity_exhaustion.writes > no_spares.capacity_exhaustion.writes,
            "graceful degradation must strictly outlive first-line death: {} vs {}",
            spared.capacity_exhaustion.writes,
            no_spares.capacity_exhaustion.writes
        );
        assert!(spared.first_retirement.is_some());
        assert!(spared.first_retirement.unwrap().writes <= spared.capacity_exhaustion.writes);
        assert!(spared.report.stats.lines_retired > 0);
    }

    #[test]
    fn exact_and_fast_forward_agree_on_degradation() {
        // Acceptance: both tiers see the same qualitative degradation
        // story on a small config — retirements happen, exhaustion comes
        // after first retirement, and lifetimes agree within the same
        // tolerance the ideal engines are held to.
        let params = PcmParams::small(8, 6_000);
        let cfg = SrbsgParams {
            sub_regions: 4,
            inner_interval: 4,
            outer_interval: 8,
            stages: 5,
        };
        let fcfg = FaultConfig {
            seed: 17,
            endurance_cov: 0.1,
            spare_lines: 8,
            ecp_entries: 1,
            ecp_wear_step: 100,
            ..FaultConfig::default()
        };
        let exact_avg = (0..3u64)
            .map(|s| {
                let d = srbsg_raa_degraded_exact(&params, &cfg, &fcfg, s, u128::MAX >> 1);
                assert!(
                    d.report.capacity_exhaustion.is_some(),
                    "exact run must exhaust"
                );
                assert!(d.report.stats.lines_retired > 0, "exact run must retire");
                d.capacity_exhaustion.writes as f64
            })
            .sum::<f64>()
            / 3.0;
        let ff_avg = (0..5u64)
            .map(|s| {
                let d = srbsg_raa_degraded_lifetime(&params, &cfg, &fcfg, s, u128::MAX >> 1);
                assert!(
                    d.report.capacity_exhaustion.is_some(),
                    "ff run must exhaust"
                );
                assert!(d.report.stats.lines_retired > 0, "ff run must retire");
                d.capacity_exhaustion.writes as f64
            })
            .sum::<f64>()
            / 5.0;
        let ratio = ff_avg / exact_avg;
        assert!(
            (0.4..2.5).contains(&ratio),
            "fast-forward {ff_avg} vs exact {exact_avg} (ratio {ratio})"
        );
    }

    /// Oracle for the round engine: [`srbsg_raa_lifetime_split`] against
    /// the exact tier (real scheme, real RAA attack, controller with inert
    /// faults) over seeds 0..64 at three small configs. The mean lifetimes
    /// must agree within 5% (`|mean_split / mean_exact − 1| ≤ 0.05`). The
    /// round model carries a small config-dependent bias (about +3.5%,
    /// −2.7% and −2.2% at these configs), large enough that 64-seed 95%
    /// CIs can be disjoint, so the test bounds the mean ratio instead of
    /// requiring CI overlap.
    #[test]
    #[ignore = "heavy 64-seed cross-validation vs the exact tier (~1 min release); run by the CI heavy-tests step via --ignored"]
    fn round_engine_matches_exact_tier_across_64_seeds() {
        let configs = [
            (PcmParams::small(10, 30_000), small_cfg()),
            (
                PcmParams::small(8, 6_000),
                SrbsgParams {
                    sub_regions: 4,
                    ..small_cfg()
                },
            ),
            (
                PcmParams::small(10, 30_000),
                SrbsgParams {
                    sub_regions: 16,
                    inner_interval: 8,
                    outer_interval: 16,
                    stages: 7,
                },
            ),
        ];
        let seeds: Vec<u64> = (0..64).collect();
        let jobs = srbsg_parallel::available_jobs();
        let mean = |xs: &[u128]| xs.iter().map(|&x| x as f64).sum::<f64>() / xs.len() as f64;
        for (params, cfg) in configs {
            let exact = srbsg_parallel::par_map(seeds.clone(), jobs, move |s| {
                let d = srbsg_raa_degraded_exact(
                    &params,
                    &cfg,
                    &FaultConfig::default(),
                    s,
                    u128::MAX >> 1,
                );
                assert!(d.report.capacity_exhaustion.is_some());
                d.capacity_exhaustion.writes
            });
            let split: Vec<u128> = seeds
                .iter()
                .map(|&s| srbsg_raa_lifetime_split(&params, &cfg, s, jobs).writes)
                .collect();
            let ratio = mean(&split) / mean(&exact);
            assert!(
                (ratio - 1.0).abs() <= 0.05,
                "{params:?} {cfg:?}: split/exact mean ratio {ratio:.4}"
            );
        }
    }
}
