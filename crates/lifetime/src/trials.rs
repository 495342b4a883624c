//! Batch-trial entry points: run one lifetime engine over many seeds on
//! up to `jobs` worker threads.
//!
//! Each trial owns its seed (and therefore its whole RNG stream), so the
//! per-seed results are independent of the worker count: for every
//! function here, the returned vector is **bit-for-bit identical** for
//! any `jobs >= 1` — `jobs` only changes wall-clock time. Callers that
//! average should fold the returned vector in order, which then makes the
//! *aggregate* identical too (float addition order is fixed).

use srbsg_parallel::par_map;
use srbsg_pcm::FaultConfig;

use crate::faults::{srbsg_raa_degraded_exact, srbsg_raa_degraded_lifetime, DegradationLifetime};
use crate::rbsg::rbsg_rta_lifetime;
use crate::sr2::{sr2_raa_lifetime, sr2_rta_lifetime};
use crate::srbsg::{srbsg_bpa_lifetime, srbsg_rta_lifetime, SrbsgParams};
use crate::{Lifetime, PcmParams};

/// One [`crate::srbsg_bpa_lifetime`] trial per seed, in seed order.
pub fn srbsg_bpa_lifetime_trials(
    params: &PcmParams,
    cfg: &SrbsgParams,
    seeds: &[u64],
    jobs: usize,
) -> Vec<Lifetime> {
    let (p, c) = (*params, *cfg);
    par_map(seeds.to_vec(), jobs, move |s| srbsg_bpa_lifetime(&p, &c, s))
}

/// One [`crate::srbsg_rta_lifetime`] trial per seed, in seed order.
pub fn srbsg_rta_lifetime_trials(
    params: &PcmParams,
    cfg: &SrbsgParams,
    seeds: &[u64],
    jobs: usize,
) -> Vec<Lifetime> {
    let (p, c) = (*params, *cfg);
    par_map(seeds.to_vec(), jobs, move |s| srbsg_rta_lifetime(&p, &c, s))
}

/// One [`crate::sr2_raa_lifetime`] trial per seed, in seed order.
pub fn sr2_raa_lifetime_trials(
    params: &PcmParams,
    sub_regions: u64,
    inner_interval: u64,
    outer_interval: u64,
    seeds: &[u64],
    jobs: usize,
) -> Vec<Lifetime> {
    let p = *params;
    par_map(seeds.to_vec(), jobs, move |s| {
        sr2_raa_lifetime(&p, sub_regions, inner_interval, outer_interval, s)
    })
}

/// One [`crate::sr2_rta_lifetime`] trial per seed, in seed order.
pub fn sr2_rta_lifetime_trials(
    params: &PcmParams,
    sub_regions: u64,
    inner_interval: u64,
    outer_interval: u64,
    seeds: &[u64],
    jobs: usize,
) -> Vec<Lifetime> {
    let p = *params;
    par_map(seeds.to_vec(), jobs, move |s| {
        sr2_rta_lifetime(&p, sub_regions, inner_interval, outer_interval, s)
    })
}

/// One [`crate::rbsg_rta_lifetime`] trial per seed, in seed order. (RAA on
/// RBSG is a closed form — see [`crate::rbsg_raa_lifetime`] — so it has no
/// trial batch.)
pub fn rbsg_rta_lifetime_trials(
    params: &PcmParams,
    regions: u64,
    interval: u64,
    seeds: &[u64],
    jobs: usize,
) -> Vec<Lifetime> {
    let p = *params;
    par_map(seeds.to_vec(), jobs, move |s| {
        rbsg_rta_lifetime(&p, regions, interval, s)
    })
}

/// One [`crate::srbsg_raa_degraded_lifetime`] trial per seed, in seed
/// order, on a fault-injected device.
pub fn srbsg_raa_degraded_lifetime_trials(
    params: &PcmParams,
    cfg: &SrbsgParams,
    fault_cfg: &FaultConfig,
    seeds: &[u64],
    max_writes: u128,
    jobs: usize,
) -> Vec<DegradationLifetime> {
    let (p, c, fc) = (*params, *cfg, *fault_cfg);
    par_map(seeds.to_vec(), jobs, move |s| {
        srbsg_raa_degraded_lifetime(&p, &c, &fc, s, max_writes)
    })
}

/// One [`crate::srbsg_raa_degraded_exact`] trial per seed, in seed order:
/// the exact tier (real scheme, real attack, fault-injected controller)
/// fanned out the same way as the fast-forward engines.
pub fn srbsg_raa_degraded_exact_trials(
    params: &PcmParams,
    cfg: &SrbsgParams,
    fault_cfg: &FaultConfig,
    seeds: &[u64],
    max_writes: u128,
    jobs: usize,
) -> Vec<DegradationLifetime> {
    let (p, c, fc) = (*params, *cfg, *fault_cfg);
    par_map(seeds.to_vec(), jobs, move |s| {
        srbsg_raa_degraded_exact(&p, &c, &fc, s, max_writes)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SrbsgParams {
        SrbsgParams {
            sub_regions: 8,
            inner_interval: 4,
            outer_interval: 8,
            stages: 5,
        }
    }

    /// The tentpole contract: trial batches are bit-for-bit identical to
    /// the serial per-seed loop, for every engine and any worker count.
    #[test]
    fn parallel_trials_match_serial_exactly() {
        let params = PcmParams::small(9, 20_000);
        let cfg = small_cfg();
        let seeds: Vec<u64> = (0..6).collect();

        let serial: Vec<Lifetime> = seeds
            .iter()
            .map(|&s| srbsg_rta_lifetime(&params, &cfg, s))
            .collect();
        for jobs in [1, 2, 4, 8] {
            assert_eq!(
                srbsg_rta_lifetime_trials(&params, &cfg, &seeds, jobs),
                serial,
                "srbsg rta, jobs={jobs}"
            );
        }

        let serial: Vec<Lifetime> = seeds
            .iter()
            .map(|&s| sr2_raa_lifetime(&params, 8, 4, 8, s))
            .collect();
        assert_eq!(
            sr2_raa_lifetime_trials(&params, 8, 4, 8, &seeds, 4),
            serial,
            "sr2 raa"
        );

        let serial: Vec<Lifetime> = seeds
            .iter()
            .map(|&s| sr2_rta_lifetime(&params, 8, 4, 8, s))
            .collect();
        assert_eq!(
            sr2_rta_lifetime_trials(&params, 8, 4, 8, &seeds, 3),
            serial,
            "sr2 rta"
        );

        let serial: Vec<Lifetime> = seeds
            .iter()
            .map(|&s| srbsg_bpa_lifetime(&params, &cfg, s))
            .collect();
        assert_eq!(
            srbsg_bpa_lifetime_trials(&params, &cfg, &seeds, 4),
            serial,
            "srbsg bpa"
        );
    }

    #[test]
    fn degraded_trials_match_serial_exactly() {
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
        let seeds: Vec<u64> = (0..4).collect();
        let serial: Vec<u128> = seeds
            .iter()
            .map(|&s| {
                srbsg_raa_degraded_lifetime(&params, &cfg, &fcfg, s, u128::MAX >> 1)
                    .capacity_exhaustion
                    .writes
            })
            .collect();
        let par: Vec<u128> =
            srbsg_raa_degraded_lifetime_trials(&params, &cfg, &fcfg, &seeds, u128::MAX >> 1, 4)
                .into_iter()
                .map(|d| d.capacity_exhaustion.writes)
                .collect();
        assert_eq!(par, serial);

        let serial: Vec<u128> = seeds
            .iter()
            .map(|&s| {
                srbsg_raa_degraded_exact(&params, &cfg, &fcfg, s, u128::MAX >> 1)
                    .capacity_exhaustion
                    .writes
            })
            .collect();
        let par: Vec<u128> =
            srbsg_raa_degraded_exact_trials(&params, &cfg, &fcfg, &seeds, u128::MAX >> 1, 4)
                .into_iter()
                .map(|d| d.capacity_exhaustion.writes)
                .collect();
        assert_eq!(par, serial, "exact trials");
    }
}
