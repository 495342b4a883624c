//! Lifetime of Security RBSG under BPA and RTA at paper scale (Fig. 14),
//! plus the configuration and latency amortization shared with the RAA
//! round engine in `split.rs`.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use srbsg_attacks::detection_margin;

use crate::split::srbsg_raa_lifetime_split;
use crate::{Lifetime, PcmParams};

/// Configuration of the Security RBSG lifetime engines (mirrors
/// `srbsg_core::SecurityRbsgConfig` without depending on controller state).
#[derive(Debug, Clone, Copy)]
pub struct SrbsgParams {
    /// Sub-regions `R`.
    pub sub_regions: u64,
    /// Inner Start-Gap interval ψ_in.
    pub inner_interval: u64,
    /// Outer DFN interval ψ_out.
    pub outer_interval: u64,
    /// DFN stages `S`.
    pub stages: usize,
}

impl SrbsgParams {
    /// The paper's recommended configuration.
    pub fn paper_default() -> Self {
        Self {
            sub_regions: 512,
            inner_interval: 64,
            outer_interval: 128,
            stages: 7,
        }
    }
}

/// Convert a write count into a [`Lifetime`] with the scheme's amortized
/// remap overhead: one inner move per ψ_in region writes, one outer move
/// per ψ_out bank writes.
pub(crate) fn finish(params: &PcmParams, cfg: &SrbsgParams, writes: u128) -> Lifetime {
    let t = params.timing;
    // Demand writes are attacker SETs; movements mostly move mixed/set
    // data (read + SET).
    let mv = (t.read_ns + t.set_ns) as f64;
    let per_write = (t.set_ns + t.translation_ns) as f64
        + mv / cfg.inner_interval as f64
        + mv / cfg.outer_interval as f64;
    Lifetime {
        writes,
        ns: (writes as f64 * per_write) as u128,
    }
}

/// BPA lifetime of Security RBSG (Fig. 14).
///
/// Each visit hammers a random address until its line is observed to move
/// (read+SET spike): under the inner Start-Gap that takes at most one
/// rotation lap, uniformly distributed over the entry phase. Deposits land
/// on key-random slots.
pub fn srbsg_bpa_lifetime(params: &PcmParams, cfg: &SrbsgParams, seed: u64) -> Lifetime {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n_r = params.lines / cfg.sub_regions;
    let slots_per_region = n_r + 1;
    let lap = slots_per_region * cfg.inner_interval;
    let total_slots = (cfg.sub_regions * slots_per_region) as usize;
    let mut wear: Vec<u32> = vec![0; total_slots];
    let e = params.endurance;
    let mut total_writes: u128 = 0;
    loop {
        // Visit: deposit up to one lap at a uniform phase.
        let deposit = rng.random_range(1..=lap);
        let slot = rng.random_range(0..total_slots as u64) as usize;
        wear[slot] += deposit as u32;
        total_writes += deposit as u128;
        if wear[slot] as u64 >= e {
            break;
        }
    }
    finish(params, cfg, total_writes)
}

/// Closed-form BPA lifetime via extreme-value statistics, for paper-scale
/// sweeps where the visit-by-visit engine is too slow.
///
/// Visits deposit `U(1..=lap)` wear on uniform slots: per-slot wear is
/// compound Poisson with mean `λμ` and variance `λ·lap²/3`; the first
/// failure is where the max over `M` slots reaches `E`, approximated with
/// the usual `√(2 ln M)` Gaussian-max factor.
pub fn srbsg_bpa_lifetime_analytic(params: &PcmParams, cfg: &SrbsgParams) -> Lifetime {
    let n_r = params.lines / cfg.sub_regions;
    let lap = ((n_r + 1) * cfg.inner_interval) as f64;
    let m = (cfg.sub_regions * (n_r + 1)) as f64;
    let e = params.endurance as f64;
    let mu = lap / 2.0;
    let c = (2.0 * m.ln()).sqrt();
    // Solve a·λ + b·√λ = E for λ (per-slot visit rate at failure).
    let a = mu;
    let b = c * lap / 3f64.sqrt();
    let sqrt_lambda = ((b * b + 4.0 * a * e).sqrt() - b) / (2.0 * a);
    let lambda = sqrt_lambda * sqrt_lambda;
    let total = lambda * m * mu;
    finish(params, cfg, total as u128)
}

/// RTA lifetime of Security RBSG.
///
/// When the key array outlives the observation window
/// ([`detection_margin`] > 1, i.e. `S·B > ψ_out`), the timing channel
/// yields nothing durable and the attack degenerates to RAA. Otherwise the
/// attacker can track the mapping and grind one sub-region, as against
/// two-level SR.
pub fn srbsg_rta_lifetime(params: &PcmParams, cfg: &SrbsgParams, seed: u64) -> Lifetime {
    if detection_margin(params.width(), cfg.outer_interval, cfg.stages as u64) > 1.0 {
        return srbsg_raa_lifetime_split(params, cfg, seed, 1);
    }
    // Keys are recoverable within a round: the attacker pours each round's
    // writes (minus detection) into one tracked sub-region.
    let n = params.lines as f64;
    let n_r = (params.lines / cfg.sub_regions) as f64;
    let b = params.width() as f64;
    let mut rng = SmallRng::seed_from_u64(seed);
    let round_writes = n * cfg.outer_interval as f64;
    let mut wear = 0.0f64;
    let mut total = 0.0f64;
    while wear < params.endurance as f64 {
        let detection =
            cfg.stages as f64 * b * (n / cfg.sub_regions as f64) * rng.random_range(0.5..1.0);
        let hammer = (round_writes - detection).max(0.0);
        wear += hammer / n_r;
        total += round_writes;
    }
    finish(params, cfg, total as u128)
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

    #[test]
    fn raa_achieves_large_fraction_of_ideal() {
        // Fig. 14: Security RBSG under RAA reaches a healthy fraction of
        // the ideal lifetime (the paper reports 67.2% at 7 stages).
        let params = PcmParams::small(16, 1_000_000);
        let cfg = SrbsgParams {
            sub_regions: 64,
            inner_interval: 64,
            outer_interval: 128,
            stages: 7,
        };
        let ideal = params.ideal_lifetime().writes as f64;
        let raa = srbsg_raa_lifetime_split(&params, &cfg, 1, 1).writes as f64;
        let frac = raa / ideal;
        assert!((0.3..1.0).contains(&frac), "RAA fraction of ideal: {frac}");
    }

    #[test]
    fn bpa_is_insensitive_to_stages() {
        // Fig. 14: BPA already randomizes its addresses, so the stage
        // count barely matters.
        let params = PcmParams::small(14, 200_000);
        let mut cfg = small_cfg();
        cfg.stages = 3;
        let l3 = srbsg_bpa_lifetime(&params, &cfg, 7);
        cfg.stages = 20;
        let l20 = srbsg_bpa_lifetime(&params, &cfg, 7);
        let ratio = l3.ns as f64 / l20.ns as f64;
        assert!((0.7..1.4).contains(&ratio), "BPA stage ratio {ratio}");
    }

    #[test]
    fn rta_reduces_to_raa_when_margin_holds() {
        let params = PcmParams::small(16, 500_000);
        let cfg = SrbsgParams {
            sub_regions: 64,
            inner_interval: 16,
            outer_interval: 32,
            stages: 7, // 7·16 = 112 > 32 → margin holds
        };
        let rta = srbsg_rta_lifetime(&params, &cfg, 3);
        let raa = srbsg_raa_lifetime_split(&params, &cfg, 3, 1);
        assert_eq!(rta.writes, raa.writes);
    }

    #[test]
    fn insufficient_stages_leave_rta_effective() {
        let params = PcmParams::small(16, 5_000_000);
        let cfg = SrbsgParams {
            sub_regions: 64,
            inner_interval: 16,
            outer_interval: 128,
            stages: 2, // 2·16 = 32 < 128 → keys recoverable
        };
        let rta = srbsg_rta_lifetime(&params, &cfg, 3);
        let raa = srbsg_raa_lifetime_split(&params, &cfg, 3, 1);
        assert!(
            rta.ns * 3 < raa.ns,
            "under-provisioned DFN should fall to RTA: rta {} raa {}",
            rta.ns,
            raa.ns
        );
    }

    #[test]
    fn bpa_analytic_tracks_the_engine() {
        let params = PcmParams::small(14, 300_000);
        let cfg = small_cfg();
        let engine: f64 = (0..3)
            .map(|s| srbsg_bpa_lifetime(&params, &cfg, s).writes as f64)
            .sum::<f64>()
            / 3.0;
        let analytic = srbsg_bpa_lifetime_analytic(&params, &cfg).writes as f64;
        let ratio = analytic / engine;
        assert!(
            (0.5..2.0).contains(&ratio),
            "analytic {analytic} vs engine {engine} (ratio {ratio})"
        );
    }
}
