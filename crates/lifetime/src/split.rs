//! The RAA round engine of Security RBSG (DESIGN §4g): one round model,
//! one source of round randomness, and one sink per consumer.
//!
//! **Round model.** Per outer DFN round the hammered LA maps to
//! `ENC_Kp(la)` until its remap point (≈ uniformly placed within the
//! round) and `ENC_Kc(la)` after — two sub-region *stays* per round, with
//! the keys drawn as real Feistel networks so any non-uniformity of
//! few-stage networks shows up in the visit statistics. While the LA
//! heads the cycle being migrated, its writes park in the SRAM-backed
//! spare and wear nothing. Within a stay, the inner Start-Gap parks the
//! line on one slot per rotation lap (`(n_r+1)·ψ_in` writes) and then
//! advances it to the next slot, so wear lands in lap-sized quanta on
//! consecutive slots from a key-random entry slot; every full lap also
//! rewrites one line per slot of the region (background). First-failure
//! statistics are dominated by these quanta, which every sink preserves
//! exactly.
//!
//! **Randomness.** Round `r` of trial `seed` draws all of its randomness
//! (current-round Feistel network, flip point, cycle length, park check,
//! both stay entry slots) from an independent stream seeded
//! `stream_seed(seed, r)` — the derivation `shard_seed` uses for per-bank
//! streams — in `round_draws`, the only place RAA round randomness is
//! drawn. The one piece of cross-round state, the LA's image under the
//! previous round's keys, is a pure function of stream `r-1` (or of a
//! dedicated init stream for round 0), so `round_plans` can start walking
//! at any round. Every round's draws happen up front, before any deposit,
//! so failure can never shift a later round's randomness.
//!
//! **Sinks.** `round_plans` yields each round's fully determined deposit
//! schedule; consumers fold the schedules into their own sink:
//!
//! * [`srbsg_raa_lifetime_split`]: never-failing range tallies
//!   (`RangeWear`) merged in order, then an exact replay of the crossing
//!   range (`ExactWear`);
//! * [`srbsg_raa_wear_profile_split`]: `StreamSink`, a closed-form fold
//!   into a [`WearAccumulator`];
//! * [`crate::srbsg_raa_degraded_lifetime`]: a fault-injected `PcmBank`.
//!
//! **Lifetime merge semantics.** Workers simulate disjoint round ranges
//! into private never-failing wear tallies (dense `u64` per-slot hammer
//! wear + per-region background counts). [`srbsg_parallel::par_fold`]
//! merges the tallies *in range order* into a cumulative base; because
//! wear is monotone, the first range whose merged base crosses the
//! endurance anywhere is exactly the range containing the first failure
//! — ranges before it can never have crossed at any intermediate write.
//! The engine then recovers the pre-range baseline (an exact `u64`
//! subtraction), replays that one range serially with exact failure
//! semantics (lap-quantum deposits, region-peak + background crossing
//! checks, partial final stay), and stops. The earliest crossing
//! therefore wins deterministically, and the result is bit-identical to
//! a serial execution of the same per-round streams for **any** worker
//! count and any range partition. A shared stop flag lets workers skip
//! ranges past a found crossing; skipped ranges are ignored by the
//! in-order fold, so the flag affects wall-clock only.
//!
//! **Profile merge semantics.** Wear-distribution sweeps need no failure
//! detection: each range folds its deposits in closed form into a
//! private [`WearAccumulator`] (O(points + regions) memory per worker),
//! and the accumulators merge in range order with exact `u128` sums —
//! associative and commutative, proptested in `srbsg-pcm`. The round
//! count for a write target is known a priori (every round contributes
//! exactly `N·ψ_out` demand writes, parked or not), so the range
//! partition never depends on simulation results, only on the target.

use rand::rngs::SmallRng;
use rand::RngExt;
use rand::SeedableRng;
use srbsg_feistel::{AddressPermutation, FeistelNetwork};
use srbsg_parallel::{par_fold, stream_seed};
use srbsg_pcm::WearAccumulator;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::srbsg::{finish, SrbsgParams};
use crate::{Lifetime, PcmParams};

/// Stream index of the round-0 predecessor network. Round indices are
/// bounded by the endurance horizon, far below this.
const INIT_STREAM: u64 = u64::MAX;

/// Ranges per estimated lifetime: the fixed, jobs-independent partition
/// granularity of one trial. Fine enough to keep workers busy and to
/// bound the replayed tail, coarse enough that per-range setup (one
/// dense tally + one predecessor network) stays negligible.
const RANGES_PER_TRIAL: usize = 96;

/// Slot layout of the bank under Security RBSG.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Geometry {
    /// Slots per sub-region (`n_r + 1`: lines plus the inner gap).
    pub(crate) slots: u64,
    /// Writes per inner rotation lap (`(n_r+1)·ψ_in`).
    pub(crate) lap: u64,
}

impl Geometry {
    pub(crate) fn new(params: &PcmParams, cfg: &SrbsgParams) -> Self {
        let slots = params.lines / cfg.sub_regions + 1;
        Self {
            slots,
            lap: slots * cfg.inner_interval,
        }
    }
}

/// Everything round `r` draws from its private stream, in draw order.
/// Computed before any deposit, so stream positions never depend on
/// failure state (see module docs).
struct RoundDraws {
    /// The hammered LA's image under this round's current keys.
    ia_c: u64,
    /// Where within the round the LA flips from the previous keys' image
    /// to the current one.
    flip: f64,
    /// Modeled cycle length of the round permutation at the LA.
    cycle_len: u64,
    /// Whether the LA heads its migration cycle (writes land in the
    /// SRAM-backed spare and wear nothing while parked).
    parked: bool,
    /// Entry slot of the previous-image stay.
    entry1: u64,
    /// Entry slot of the current-image stay.
    entry2: u64,
}

fn round_draws(params: &PcmParams, cfg: &SrbsgParams, seed: u64, r: u64) -> RoundDraws {
    let mut rng = SmallRng::seed_from_u64(stream_seed(seed, r));
    let enc_c = FeistelNetwork::random(&mut rng, params.width(), cfg.stages);
    let ia_c = enc_c.encrypt(0);
    let flip = rng.random_range(0.0..1.0f64);
    let cycle_len = rng.random_range(1..=params.lines);
    let parked = rng.random_range(0..cycle_len) == 0;
    let slots = params.lines / cfg.sub_regions + 1;
    let entry1 = rng.random_range(0..slots);
    let entry2 = rng.random_range(0..slots);
    RoundDraws {
        ia_c,
        flip,
        cycle_len,
        parked,
        entry1,
        entry2,
    }
}

/// The LA's image under round `r`'s *previous* keys — the one piece of
/// cross-round state, reconstructible from stream `r-1` alone (or from
/// the init stream for round 0).
fn prev_image(params: &PcmParams, cfg: &SrbsgParams, seed: u64, r: u64) -> u64 {
    if r == 0 {
        let mut rng = SmallRng::seed_from_u64(stream_seed(seed, INIT_STREAM));
        FeistelNetwork::random(&mut rng, params.width(), cfg.stages).encrypt(0)
    } else {
        round_draws(params, cfg, seed, r - 1).ia_c
    }
}

/// The fully determined deposit schedule of one round: two stays plus
/// parked traffic.
pub(crate) struct RoundPlan {
    region1: u64,
    entry1: u64,
    w1: u64,
    region2: u64,
    entry2: u64,
    w2: u64,
    parked_writes: u64,
}

impl RoundPlan {
    /// Deposit the round into a sink that can fail: `stay(region, entry,
    /// writes)` returns the writes it deposited and whether the bank has
    /// now failed. The second stay is skipped once the first fails.
    /// Returns the round's demand writes (parked traffic included) and
    /// whether the bank failed.
    pub(crate) fn deposit(
        &self,
        mut stay: impl FnMut(u64, u64, u64) -> (u64, bool),
    ) -> (u128, bool) {
        let (first, failed) = stay(self.region1, self.entry1, self.w1);
        let writes = self.parked_writes as u128 + first as u128;
        if failed {
            return (writes, true);
        }
        let (second, failed) = stay(self.region2, self.entry2, self.w2);
        (writes + second as u128, failed)
    }
}

fn round_plan(params: &PcmParams, cfg: &SrbsgParams, ia_p: u64, d: &RoundDraws) -> RoundPlan {
    let n_r = params.lines / cfg.sub_regions;
    let round_writes = params.lines * cfg.outer_interval;
    let mut w1 = (round_writes as f64 * d.flip) as u64;
    let mut w2 = round_writes - w1;
    let mut parked_writes = 0;
    // Cycle lengths of the round permutation are modeled as uniform on
    // 1..=N; the LA heads its cycle with probability 1/len and parks for
    // the cycle's migration.
    if d.parked {
        parked_writes = (d.cycle_len * cfg.outer_interval).min(round_writes);
        let taken1 = w1.min(parked_writes);
        w1 -= taken1;
        w2 -= (parked_writes - taken1).min(w2);
    }
    RoundPlan {
        region1: ia_p / n_r,
        entry1: d.entry1,
        w1,
        region2: d.ia_c / n_r,
        entry2: d.entry2,
        w2,
        parked_writes,
    }
}

/// Walk `rounds` of trial `seed` in order, yielding each round's deposit
/// schedule. Pure in its arguments: no state from rounds before
/// `rounds.start`.
pub(crate) fn round_plans<'a>(
    params: &'a PcmParams,
    cfg: &'a SrbsgParams,
    seed: u64,
    rounds: Range<u64>,
) -> impl Iterator<Item = RoundPlan> + 'a {
    let mut ia_p = prev_image(params, cfg, seed, rounds.start);
    rounds.map(move |r| {
        let d = round_draws(params, cfg, seed, r);
        let plan = round_plan(params, cfg, ia_p, &d);
        ia_p = d.ia_c;
        plan
    })
}

/// The stay deposit model, one quantum at a time: `writes` hammer writes
/// land in lap-sized quanta on consecutive slots of the region from
/// `entry` (wrapping), the last one possibly partial. `quantum(slot,
/// amount)` applies one deposit (a full-lap quantum, `amount == lap`,
/// also owes the region one background write per slot) and reports
/// whether the bank has failed, which ends the stay. Returns the writes
/// deposited and whether the bank failed.
pub(crate) fn stay_quanta(
    geo: Geometry,
    entry: u64,
    mut writes: u64,
    mut quantum: impl FnMut(u64, u64) -> bool,
) -> (u64, bool) {
    let mut slot = entry;
    let mut deposited = 0u64;
    while writes > 0 {
        let amount = writes.min(geo.lap);
        deposited += amount;
        writes -= amount;
        if quantum(slot, amount) {
            return (deposited, true);
        }
        slot = (slot + 1) % geo.slots;
    }
    (deposited, false)
}

/// Never-failing dense wear: `u64` hammer wear per slot plus background
/// laps per region. A worker's private tally for one round range, and
/// the cumulative base the in-order merge builds. `u64` because a range
/// can legitimately overshoot the endurance before the merge decides
/// where the first crossing actually was.
struct RangeWear {
    wear: Vec<u64>,
    background: Vec<u64>,
    geo: Geometry,
}

impl RangeWear {
    fn new(params: &PcmParams, cfg: &SrbsgParams) -> Self {
        let geo = Geometry::new(params, cfg);
        Self {
            wear: vec![0; (cfg.sub_regions * geo.slots) as usize],
            background: vec![0; cfg.sub_regions as usize],
            geo,
        }
    }

    /// Closed form of [`stay_quanta`] without failure checks: `f =
    /// writes/lap` full laps land on consecutive slots from `entry` (each
    /// also rewriting one line per slot of the region), then the
    /// remainder on the next slot.
    fn stay(&mut self, region: u64, entry: u64, writes: u64) {
        let Geometry { slots, lap } = self.geo;
        let base = (region * slots) as usize;
        let f = writes / lap;
        let rem = writes % lap;
        let wraps = f / slots;
        let leftover = f % slots;
        if wraps > 0 {
            for w in &mut self.wear[base..base + slots as usize] {
                *w += wraps * lap;
            }
        }
        for k in 0..leftover {
            self.wear[base + ((entry + k) % slots) as usize] += lap;
        }
        if rem > 0 {
            self.wear[base + ((entry + f) % slots) as usize] += rem;
        }
        self.background[region as usize] += f;
    }
}

/// Simulate rounds `[a, b)` into a private tally. Pure in
/// `(params, cfg, seed, a, b)` — no state from rounds before `a`.
fn simulate_range(params: &PcmParams, cfg: &SrbsgParams, seed: u64, a: u64, b: u64) -> RangeWear {
    let mut tally = RangeWear::new(params, cfg);
    for plan in round_plans(params, cfg, seed, a..b) {
        tally.stay(plan.region1, plan.entry1, plan.w1);
        tally.stay(plan.region2, plan.entry2, plan.w2);
    }
    tally
}

/// Dense wear with exact first-failure detection, checked after every
/// quantum. The effective wear of a slot is its hammer wear plus its
/// region's background, so the first crossing in a region is at
/// `region_peak + background` — which a region-wide background increment
/// can push over the limit on a slot the current deposit never touched.
struct ExactWear {
    base: RangeWear,
    /// Peak hammer wear per sub-region.
    region_peak: Vec<u64>,
    endurance: u64,
}

impl ExactWear {
    fn new(base: RangeWear, endurance: u64) -> Self {
        let slots = base.geo.slots as usize;
        let region_peak = base
            .wear
            .chunks(slots)
            .map(|region| region.iter().copied().max().unwrap_or(0))
            .collect();
        Self {
            base,
            region_peak,
            endurance,
        }
    }

    /// One stay through [`stay_quanta`]; returns (writes deposited,
    /// failed).
    fn stay(&mut self, region: u64, entry: u64, writes: u64) -> (u64, bool) {
        let geo = self.base.geo;
        let r = region as usize;
        stay_quanta(geo, entry, writes, |slot, amount| {
            let idx = (region * geo.slots + slot) as usize;
            self.base.wear[idx] += amount;
            self.region_peak[r] = self.region_peak[r].max(self.base.wear[idx]);
            if amount == geo.lap {
                self.base.background[r] += 1;
            }
            self.region_peak[r] + self.base.background[r] >= self.endurance
        })
    }
}

/// Replay rounds `[a, b)` on top of the pre-range baseline with exact
/// failure semantics, returning the total demand writes at first
/// failure. The caller guarantees the crossing lies inside `[a, b)`
/// (the merged no-failure state at `b` crosses the endurance), so the
/// replay always fails.
fn replay_crossing_range(
    params: &PcmParams,
    cfg: &SrbsgParams,
    seed: u64,
    (a, b): (u64, u64),
    baseline: RangeWear,
) -> u128 {
    let mut wear = ExactWear::new(baseline, params.endurance);
    // Every completed round contributes exactly `N·ψ_out` demand writes
    // (parked traffic replaces the deposits it displaces), so the prefix
    // total is a closed form.
    let mut total = a as u128 * (params.lines * cfg.outer_interval) as u128;
    for plan in round_plans(params, cfg, seed, a..b) {
        let (writes, failed) = plan.deposit(|region, entry, w| wear.stay(region, entry, w));
        total += writes;
        if failed {
            return total;
        }
    }
    panic!("crossing range [{a},{b}) did not fail on replay");
}

/// In-order fold state of the lifetime merge: the cumulative no-failure
/// wear image plus the first range found to cross the endurance.
struct LifetimeFold {
    base: RangeWear,
    endurance: u64,
    crossing: Option<(u64, u64)>,
}

impl LifetimeFold {
    /// Merge the next range in order. Adds the range tally into the
    /// cumulative base while scanning for an endurance crossing; on the
    /// first crossing, subtracts the tally back out (exact in `u64`) so
    /// the base is the replay baseline, and records the range.
    fn merge(&mut self, range: (u64, u64), tally: &RangeWear) {
        if self.crossing.is_some() {
            return;
        }
        let slots = tally.geo.slots as usize;
        let mut crossed = false;
        for (region, &bg) in tally.background.iter().enumerate() {
            self.base.background[region] += bg;
            let bg = self.base.background[region];
            let slice = region * slots..(region + 1) * slots;
            let mut peak = 0u64;
            for (w, t) in self.base.wear[slice.clone()]
                .iter_mut()
                .zip(&tally.wear[slice])
            {
                *w += t;
                peak = peak.max(*w);
            }
            if peak + bg >= self.endurance {
                crossed = true;
            }
        }
        if crossed {
            for (w, t) in self.base.wear.iter_mut().zip(&tally.wear) {
                *w -= t;
            }
            for (b, t) in self.base.background.iter_mut().zip(&tally.background) {
                *b -= t;
            }
            self.crossing = Some(range);
        }
    }
}

/// The fixed, jobs-independent round-range partition width of one trial.
fn range_rounds(params: &PcmParams, cfg: &SrbsgParams) -> u64 {
    // The endurance horizon in rounds: the ideal lifetime `N·E` writes at
    // `N·ψ_out` writes per round. First failures land well inside it.
    let est_rounds = (params.endurance / cfg.outer_interval).max(1);
    (est_rounds / RANGES_PER_TRIAL as u64).max(1)
}

/// RAA lifetime of Security RBSG (Figs. 14 & 15), with one trial fanned
/// over `jobs` workers.
///
/// Bit-identical for any `jobs >= 1`: the round-range partition depends
/// only on the parameters, ranges merge in order, and the earliest
/// endurance crossing is replayed exactly (see module docs). Sweeps over
/// many seeds fan across seeds instead and pass `jobs = 1`.
pub fn srbsg_raa_lifetime_split(
    params: &PcmParams,
    cfg: &SrbsgParams,
    seed: u64,
    jobs: usize,
) -> Lifetime {
    let per_range = range_rounds(params, cfg);
    let mut state = LifetimeFold {
        base: RangeWear::new(params, cfg),
        endurance: params.endurance,
        crossing: None,
    };
    let mut batch_start = 0u64;
    let crossing = loop {
        let ranges: Vec<(u64, u64)> = (0..RANGES_PER_TRIAL as u64)
            .map(|i| {
                let a = batch_start + i * per_range;
                (a, a + per_range)
            })
            .collect();
        // Once the in-order fold finds the crossing, later ranges are
        // dead weight: workers that observe the flag return a skip
        // marker instead of simulating. The flag can only be set after
        // every earlier range has been folded (the fold is strictly
        // in-order), so a skipped range is always a discarded one — the
        // output cannot depend on the race.
        let stop = AtomicBool::new(false);
        state = par_fold(
            ranges,
            jobs,
            |(a, b)| {
                if stop.load(Ordering::Relaxed) {
                    None
                } else {
                    Some(((a, b), simulate_range(params, cfg, seed, a, b)))
                }
            },
            state,
            |mut st, item| {
                if let Some((range, tally)) = item {
                    st.merge(range, &tally);
                    if st.crossing.is_some() {
                        stop.store(true, Ordering::Relaxed);
                    }
                }
                st
            },
        );
        if let Some(range) = state.crossing {
            break range;
        }
        batch_start += RANGES_PER_TRIAL as u64 * per_range;
        assert!(
            batch_start < (params.endurance / cfg.outer_interval).max(1) * 1000,
            "RAA engine found no endurance crossing within 1000 lifetimes"
        );
    };
    let total = replay_crossing_range(params, cfg, seed, crossing, state.base);
    finish(params, cfg, total)
}

/// Streaming sink: the round engine's deposits folded in closed form into
/// a [`WearAccumulator`] (O(1) ranges per stay instead of O(writes/lap)
/// slot increments). Never fails — distribution sweeps accumulate past
/// any endurance.
struct StreamSink {
    acc: WearAccumulator,
    geo: Geometry,
}

impl StreamSink {
    fn stay(&mut self, region: u64, entry: u64, writes: u64) {
        let Geometry { slots, lap } = self.geo;
        let base = region * slots;
        // `f` full-lap quanta land on consecutive slots from `entry`
        // (wrapping), then a remainder on the next slot. Each full lap
        // also rewrites one line per slot of the region (background).
        let f = writes / lap;
        let rem = writes % lap;
        let wraps = f / slots;
        let leftover = f % slots;
        // Every slot of the region: `wraps` full laps of hammer wear plus
        // `f` background writes.
        let region_wide = wraps * lap + f;
        if region_wide > 0 {
            self.acc.add_range(base, base + slots, region_wide);
        }
        if leftover > 0 {
            let end = entry + leftover;
            if end <= slots {
                self.acc.add_range(base + entry, base + end, lap);
            } else {
                self.acc.add_range(base + entry, base + slots, lap);
                self.acc.add_range(base, base + (end - slots), lap);
            }
        }
        if rem > 0 {
            self.acc.add(base + (entry + f) % slots, rem);
        }
    }
}

/// Per-line wear profile after `total_writes` RAA writes — the data
/// behind Fig. 16 — with one write target fanned over `jobs` workers.
/// See [`srbsg_raa_wear_profile_split_with`] for the progress-reporting
/// variant; output is bit-identical for any `jobs >= 1`.
pub fn srbsg_raa_wear_profile_split(
    params: &PcmParams,
    cfg: &SrbsgParams,
    total_writes: u128,
    seed: u64,
    points: usize,
    max_regions: u64,
    jobs: usize,
) -> WearAccumulator {
    srbsg_raa_wear_profile_split_with(
        params,
        cfg,
        total_writes,
        seed,
        points,
        max_regions,
        jobs,
        |_, _| {},
    )
}

/// [`srbsg_raa_wear_profile_split`] with an in-order progress callback:
/// `progress(rounds_done, rounds_total)` fires on the folding thread
/// after each range merges, strictly in range order — safe to print
/// from without interleaving.
///
/// The round count is a priori: every round contributes exactly
/// `N·ψ_out` demand writes (parked or not), so a target of `T` writes
/// runs `ceil(T / (N·ψ_out))` rounds. Each worker folds its range's
/// deposits in closed form into a private [`WearAccumulator`] (`points`
/// curve positions, at most `max_regions` Gini regions), O(points +
/// max_regions) memory regardless of the line count.
#[allow(clippy::too_many_arguments)]
pub fn srbsg_raa_wear_profile_split_with(
    params: &PcmParams,
    cfg: &SrbsgParams,
    total_writes: u128,
    seed: u64,
    points: usize,
    max_regions: u64,
    jobs: usize,
    mut progress: impl FnMut(u64, u64),
) -> WearAccumulator {
    let geo = Geometry::new(params, cfg);
    let lines = cfg.sub_regions * geo.slots;
    let round_writes = (params.lines * cfg.outer_interval) as u128;
    let rounds = total_writes.div_ceil(round_writes) as u64;
    let acc = WearAccumulator::new(lines, points, max_regions);
    if rounds == 0 {
        return acc;
    }
    // Fixed partition (independent of `jobs`): up to RANGES_PER_TRIAL
    // equal ranges over the known round count.
    let n_ranges = rounds.min(RANGES_PER_TRIAL as u64);
    let ranges: Vec<(u64, u64)> = (0..n_ranges)
        .map(|i| (rounds * i / n_ranges, rounds * (i + 1) / n_ranges))
        .collect();
    par_fold(
        ranges,
        jobs,
        |(a, b)| {
            let mut sink = StreamSink {
                acc: WearAccumulator::new(lines, points, max_regions),
                geo,
            };
            for plan in round_plans(params, cfg, seed, a..b) {
                sink.stay(plan.region1, plan.entry1, plan.w1);
                sink.stay(plan.region2, plan.entry2, plan.w2);
            }
            (b, sink.acc)
        },
        acc,
        |mut acc, (done, part)| {
            acc.merge(&part);
            progress(done, rounds);
            acc
        },
    )
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

    /// Effective per-slot wear of a dense image: hammer wear plus the
    /// region's background.
    fn dense(w: &RangeWear) -> Vec<u64> {
        let slots = w.geo.slots as usize;
        w.wear
            .iter()
            .enumerate()
            .map(|(i, &x)| x + w.background[i / slots])
            .collect()
    }

    /// Serial reference for the lifetime: the same per-round streams
    /// executed from round 0 with exact failure semantics and no range
    /// partition at all.
    fn lifetime_serial(params: &PcmParams, cfg: &SrbsgParams, seed: u64) -> Lifetime {
        let mut wear = ExactWear::new(RangeWear::new(params, cfg), params.endurance);
        let mut total: u128 = 0;
        for plan in round_plans(params, cfg, seed, 0..u64::MAX) {
            let (writes, failed) = plan.deposit(|region, entry, w| wear.stay(region, entry, w));
            total += writes;
            if failed {
                break;
            }
        }
        finish(params, cfg, total)
    }

    /// Regression: a region-wide background increment must fail a slot
    /// the current deposit never touched, not just the slot written.
    #[test]
    fn background_wear_fails_untouched_slots() {
        let params = PcmParams::small(6, 1_000);
        let cfg = SrbsgParams {
            sub_regions: 4,
            inner_interval: 4,
            outer_interval: 8,
            stages: 3,
        };
        let mut base = RangeWear::new(&params, &cfg);
        let lap = base.geo.lap; // 68 writes per full lap
                                // Pre-wear slot 5 of region 0 to E−1. A 2-lap stay entering at
                                // slot 0 touches slots 0 and 1 only, but its first full lap's
                                // background increment pushes slot 5 to E.
        base.wear[5] = params.endurance - 1;
        let mut wear = ExactWear::new(base, params.endurance);
        let (deposited, failed) = wear.stay(0, 0, 2 * lap);
        assert!(
            failed,
            "background increment crossed endurance on slot 5 but went undetected"
        );
        assert_eq!(deposited, lap, "the stay stops at the failing quantum");
    }

    /// The closed-form stays (dense tally and streaming accumulator) must
    /// reproduce the exact quantum walk, including multi-wrap stays and
    /// background accounting.
    #[test]
    fn closed_form_range_stay_matches_exact_quanta() {
        let params = PcmParams::small(8, u64::MAX);
        let cfg = small_cfg();
        let mut closed = RangeWear::new(&params, &cfg);
        let Geometry { slots, lap } = closed.geo;
        let lines = closed.wear.len() as u64;
        let mut exact = ExactWear::new(RangeWear::new(&params, &cfg), u64::MAX);
        let mut stream = StreamSink {
            acc: WearAccumulator::new(lines, 16, lines),
            geo: closed.geo,
        };
        // Stays covering: zero, sub-lap remainder, exact laps, wrap within
        // the region, and multiple full wraps of the region.
        for &(region, entry, writes) in &[
            (0u64, 0u64, 0u64),
            (0, 3, lap / 2 + 1),
            (1, slots - 1, 3 * lap),
            (2, slots - 2, slots * lap + 7),
            (3, 5, 3 * slots * lap + 2 * lap + 11),
        ] {
            closed.stay(region, entry, writes);
            stream.stay(region, entry, writes);
            let (dep, failed) = exact.stay(region, entry, writes);
            assert_eq!(dep, writes);
            assert!(!failed);
        }
        assert_eq!(closed.wear, exact.base.wear);
        assert_eq!(closed.background, exact.base.background);
        let image = dense(&closed);
        assert_eq!(
            stream.acc.total(),
            image.iter().map(|&w| w as u128).sum::<u128>()
        );
        assert_eq!(stream.acc, WearAccumulator::from_wear(&image, 16, lines));
    }

    #[test]
    fn split_lifetime_is_identical_for_any_jobs_and_matches_serial() {
        let params = PcmParams::small(10, 60_000);
        let cfg = small_cfg();
        for seed in [1u64, 7, 42] {
            let serial = lifetime_serial(&params, &cfg, seed);
            for jobs in [1usize, 2, 3, 8] {
                let split = srbsg_raa_lifetime_split(&params, &cfg, seed, jobs);
                assert_eq!(split, serial, "seed={seed} jobs={jobs}");
            }
        }
    }

    #[test]
    fn split_lifetime_handles_immediate_crossing() {
        // Endurance so small the very first round fails: the crossing is
        // in range 0 and the prefix total is zero rounds.
        let params = PcmParams::small(8, 10);
        let cfg = small_cfg();
        let serial = lifetime_serial(&params, &cfg, 3);
        for jobs in [1usize, 4] {
            assert_eq!(srbsg_raa_lifetime_split(&params, &cfg, 3, jobs), serial);
        }
    }

    #[test]
    fn split_profile_is_identical_for_any_jobs_and_matches_serial() {
        let params = PcmParams::small(10, u64::MAX >> 1);
        let cfg = small_cfg();
        let total = 1u128 << 22;
        let (points, max_regions) = (20, 256);
        // Serial reference: one sink over all rounds, no partition.
        let geo = Geometry::new(&params, &cfg);
        let round_writes = (params.lines * cfg.outer_interval) as u128;
        let rounds = total.div_ceil(round_writes) as u64;
        let mut sink = StreamSink {
            acc: WearAccumulator::new(cfg.sub_regions * geo.slots, points, max_regions),
            geo,
        };
        for plan in round_plans(&params, &cfg, 9, 0..rounds) {
            sink.stay(plan.region1, plan.entry1, plan.w1);
            sink.stay(plan.region2, plan.entry2, plan.w2);
        }
        let serial = sink.acc;
        for jobs in [1usize, 2, 4, 8] {
            let split =
                srbsg_raa_wear_profile_split(&params, &cfg, total, 9, points, max_regions, jobs);
            assert_eq!(split, serial, "jobs={jobs}");
        }
    }

    /// End to end: the streaming profile equals the digest of the dense
    /// wear image of the same rounds — at per-line Gini granularity and
    /// at the production's coarse regions.
    #[test]
    fn profile_equals_dense_image_of_the_same_rounds() {
        let params = PcmParams::small(10, u64::MAX >> 1);
        let cfg = small_cfg();
        let points = 20;
        let total = 1u128 << 22;
        let rounds = total.div_ceil((params.lines * cfg.outer_interval) as u128) as u64;
        let image = dense(&simulate_range(&params, &cfg, 9, 0, rounds));
        let lines = image.len() as u64;
        for max_regions in [lines, 256] {
            let profile =
                srbsg_raa_wear_profile_split(&params, &cfg, total, 9, points, max_regions, 2);
            assert_eq!(
                profile,
                WearAccumulator::from_wear(&image, points, max_regions)
            );
            assert_eq!(
                profile.curve(),
                srbsg_pcm::normalized_cumulative_wear(&image, points)
            );
        }
        let per_line = srbsg_raa_wear_profile_split(&params, &cfg, total, 9, points, lines, 1);
        assert!((per_line.region_gini() - srbsg_pcm::gini_coefficient(&image)).abs() < 1e-12);
    }

    #[test]
    fn wear_distribution_flattens_with_more_writes() {
        // Fig. 16: the normalized cumulative wear curve approaches the
        // diagonal as writes accumulate. Unit-width regions make the
        // region Gini the per-line Gini.
        let params = PcmParams::small(12, u64::MAX >> 1);
        let cfg = small_cfg();
        let lines = cfg.sub_regions * Geometry::new(&params, &cfg).slots;
        let gini = |total: u128| {
            srbsg_raa_wear_profile_split(&params, &cfg, total, 5, 20, lines, 2).region_gini()
        };
        let g_few = gini(1 << 22);
        let g_many = gini(1 << 28);
        assert!(
            g_many < g_few,
            "more writes should even out wear: gini {g_few} -> {g_many}"
        );
        assert!(
            g_many < 0.2,
            "long-run wear should be near-uniform: {g_many}"
        );
    }

    #[test]
    fn split_profile_progress_is_ordered_and_complete() {
        let params = PcmParams::small(10, u64::MAX >> 1);
        let cfg = small_cfg();
        let mut seen = Vec::new();
        let acc = srbsg_raa_wear_profile_split_with(
            &params,
            &cfg,
            1u128 << 22,
            9,
            20,
            256,
            4,
            |done, total| seen.push((done, total)),
        );
        assert!(!seen.is_empty());
        let total = seen[0].1;
        assert!(
            seen.windows(2).all(|w| w[0].0 < w[1].0),
            "ordered: {seen:?}"
        );
        assert_eq!(seen.last().unwrap().0, total, "ends at rounds_total");
        assert!(acc.total() > 0);
    }

    #[test]
    fn zero_target_profile_is_empty() {
        let params = PcmParams::small(8, u64::MAX);
        let cfg = small_cfg();
        let acc = srbsg_raa_wear_profile_split(&params, &cfg, 0, 1, 10, 64, 4);
        assert_eq!(acc.total(), 0);
    }
}
