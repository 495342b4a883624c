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
//! * [`srbsg_raa_lifetime_split`]: `ExactWear`, an exact-failure wear
//!   image sharded by sub-region;
//! * [`srbsg_raa_wear_profile_split`]: `StreamSink`, a closed-form fold
//!   into a [`WearAccumulator`];
//! * [`crate::srbsg_raa_degraded_lifetime`]: a fault-injected `PcmBank`.
//!
//! **Lifetime semantics.** One trial runs in one scope of `jobs` workers.
//! Each worker owns a shard of contiguous sub-regions: their slots'
//! hammer wear, background counts and peaks. Round plans are drawn in
//! parallel, a fixed-width round range per claim, and deposited in
//! batches: every worker walks every plan of a batch in round order and
//! deposits the stays that land in its shard, while drawing the next
//! batch once its deposits are done. The deposit model shares no state
//! across regions, so each shard sees exactly the wear a serial run gives
//! its regions, and its first crossing is exact. A stay is deposited in
//! closed form with peak tracking; only a stay whose end state reaches
//! the endurance is undone (an exact `u64` subtraction) and walked
//! quantum by quantum to the failing one. Each shard reports its first
//! crossing as (round, stay index, demand writes of that round so far),
//! and the trial fails at the lexicographic minimum over shards: the
//! second stay of a round counts only if the first did not fail, as in
//! `RoundPlan::deposit`. Every earlier round contributes exactly `N·ψ_out`
//! demand writes (parked traffic displaces deposits), so the total is
//! closed-form, and the result is bit-identical to a serial walk of the
//! same per-round streams for **any** worker count and batch size. A
//! shared earliest-crossing round lets shards skip ranges that start past
//! it and workers skip draws once a crossing is known; later rounds
//! cannot hold the first failure, so it affects wall-clock only.
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
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, RwLock};

use crate::srbsg::{finish, SrbsgParams};
use crate::{Lifetime, PcmParams};

/// Stream index of the round-0 predecessor network. Round indices are
/// bounded by the endurance horizon, far below this.
const INIT_STREAM: u64 = u64::MAX;

/// Ranges per estimated lifetime: the fixed partition granularity of
/// one trial (lifetime draws, profile folds). Fine enough to keep workers
/// busy, coarse enough that per-range setup (one predecessor network)
/// stays negligible.
const RANGES_PER_TRIAL: usize = 96;

/// Round ranges a lifetime trial draws and deposits between two worker
/// synchronizations.
const RANGES_PER_BATCH: usize = 8;

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

/// One sub-region stay: `writes` hammer writes entering at slot `entry`.
pub(crate) struct Stay {
    region: u64,
    entry: u64,
    writes: u64,
}

/// The fully determined deposit schedule of one round: two stays (the
/// previous-image stay, then the current-image stay) plus parked traffic.
pub(crate) struct RoundPlan {
    stays: [Stay; 2],
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
        let mut writes = self.parked_writes as u128;
        for s in &self.stays {
            let (deposited, failed) = stay(s.region, s.entry, s.writes);
            writes += deposited as u128;
            if failed {
                return (writes, true);
            }
        }
        (writes, false)
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
        stays: [
            Stay {
                region: ia_p / n_r,
                entry: d.entry1,
                writes: w1,
            },
            Stay {
                region: d.ia_c / n_r,
                entry: d.entry2,
                writes: w2,
            },
        ],
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

/// Closed form of [`stay_quanta`] without failure checks. Returns the
/// stay's full-lap count `f = writes/lap` (the background writes it owes
/// every slot of the region) and its hammer wear as runs of consecutive
/// slots, each slot of a run gaining `amount`: `f / slots` whole wraps of
/// the region, the other `f % slots` laps from `entry` (split in two where
/// they wrap), then the remainder on the next slot. Empty runs are
/// `0..0`.
fn stay_runs(geo: Geometry, entry: u64, writes: u64) -> (u64, [(Range<u64>, u64); 4]) {
    let Geometry { slots, lap } = geo;
    let f = writes / lap;
    let rem = writes % lap;
    let wraps = f / slots;
    let end = entry + f % slots;
    let tail = (entry + f) % slots;
    let runs = [
        (0..if wraps > 0 { slots } else { 0 }, wraps * lap),
        (entry..end.min(slots), lap),
        (0..end.saturating_sub(slots), lap),
        (tail..if rem > 0 { tail + 1 } else { tail }, rem),
    ];
    (f, runs)
}

/// Where a lifetime image first crosses the endurance: the round, the
/// stay within it (0 or 1), and the round's demand writes up to and
/// including the failing quantum (parked traffic, the whole first stay
/// if the second failed, and the failing stay's deposits). Ordered
/// lexicographically, so the minimum over shards is the trial's first
/// failure and reproduces [`RoundPlan::deposit`]'s rule that the second
/// stay never runs once the first fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Crossing {
    round: u64,
    stay: usize,
    writes: u128,
}

/// The lifetime sink: exact-failure wear of a contiguous run of
/// sub-regions — `u64` hammer wear per slot, background laps and peak
/// hammer wear per region. The effective wear of a slot is its hammer
/// wear plus its region's background, so the first crossing in a region
/// is at `peak + background` — which a region-wide background increment
/// can push over the limit on a slot the current deposit never touched.
/// Regions share no state, so a bank's regions can be split across
/// images that are deposited independently.
struct ExactWear {
    geo: Geometry,
    /// First sub-region of the image.
    first: u64,
    wear: Vec<u64>,
    background: Vec<u64>,
    peak: Vec<u64>,
    endurance: u64,
}

impl ExactWear {
    fn new(geo: Geometry, regions: Range<u64>, endurance: u64) -> Self {
        let n = (regions.end - regions.start) as usize;
        Self {
            geo,
            first: regions.start,
            wear: vec![0; n * geo.slots as usize],
            background: vec![0; n],
            peak: vec![0; n],
            endurance,
        }
    }

    fn owns(&self, region: u64) -> bool {
        region.wrapping_sub(self.first) < self.background.len() as u64
    }

    /// One stay in an owned region; returns (writes deposited, failed),
    /// exactly as [`stay_quanta`] with a crossing check after every
    /// quantum would. Fast path: the closed form with peak tracking. Wear
    /// is monotone, so the stay crosses at some quantum iff its end state
    /// does; only then is it undone (an exact `u64` subtraction) and
    /// walked quantum by quantum to the failing one.
    fn stay(&mut self, region: u64, entry: u64, writes: u64) -> (u64, bool) {
        let Geometry { slots, lap } = self.geo;
        let r = (region - self.first) as usize;
        let wear = &mut self.wear[r * slots as usize..(r + 1) * slots as usize];
        let (f, runs) = stay_runs(self.geo, entry, writes);
        let mut peak = self.peak[r];
        for (run, amount) in runs.clone() {
            for w in &mut wear[run.start as usize..run.end as usize] {
                *w += amount;
                peak = peak.max(*w);
            }
        }
        if peak + self.background[r] + f < self.endurance {
            self.peak[r] = peak;
            self.background[r] += f;
            return (writes, false);
        }
        for (run, amount) in runs {
            for w in &mut wear[run.start as usize..run.end as usize] {
                *w -= amount;
            }
        }
        let (peak, background, endurance) =
            (&mut self.peak[r], &mut self.background[r], self.endurance);
        stay_quanta(self.geo, entry, writes, |slot, amount| {
            let w = &mut wear[slot as usize];
            *w += amount;
            *peak = (*peak).max(*w);
            if amount == lap {
                *background += 1;
            }
            *peak + *background >= endurance
        })
    }

    /// Deposit the stays of round `round` that land in this image's
    /// regions; returns the crossing if one of them fails.
    fn round(&mut self, round: u64, plan: &RoundPlan) -> Option<Crossing> {
        let mut writes = plan.parked_writes as u128;
        for (stay, s) in plan.stays.iter().enumerate() {
            if self.owns(s.region) {
                let (deposited, failed) = self.stay(s.region, s.entry, s.writes);
                if failed {
                    return Some(Crossing {
                        round,
                        stay,
                        writes: writes + deposited as u128,
                    });
                }
            }
            writes += s.writes as u128;
        }
        None
    }
}

/// Held by each worker of a lifetime trial: if the worker panics, it
/// flags the team and takes its place at the barrier once, so the others
/// leave at the end of the batch instead of waiting for it forever; the
/// scope then re-raises the panic.
struct ReleaseOnPanic<'a>(&'a Barrier, &'a AtomicBool);

impl Drop for ReleaseOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.1.store(true, Ordering::SeqCst);
            self.0.wait();
        }
    }
}

/// The fixed round-range width of one trial: the unit of draw work a
/// worker claims.
fn range_rounds(params: &PcmParams, cfg: &SrbsgParams) -> u64 {
    // The endurance horizon in rounds: the ideal lifetime `N·E` writes at
    // `N·ψ_out` writes per round. First failures land well inside it.
    let est_rounds = (params.endurance / cfg.outer_interval).max(1);
    (est_rounds / RANGES_PER_TRIAL as u64).max(1)
}

/// RAA lifetime of Security RBSG (Figs. 14 & 15), with one trial fanned
/// over `jobs` workers.
///
/// Bit-identical for any `jobs >= 1`: every worker deposits every round
/// in order into its own shard of the regions, and the earliest crossing
/// over the shards is the trial's first failure (see module docs).
/// Sweeps over many seeds fan across seeds instead and pass `jobs = 1`.
pub fn srbsg_raa_lifetime_split(
    params: &PcmParams,
    cfg: &SrbsgParams,
    seed: u64,
    jobs: usize,
) -> Lifetime {
    lifetime_batched(params, cfg, seed, jobs, RANGES_PER_BATCH)
}

/// [`srbsg_raa_lifetime_split`] synchronizing every `batch` round ranges.
fn lifetime_batched(
    params: &PcmParams,
    cfg: &SrbsgParams,
    seed: u64,
    jobs: usize,
    batch: usize,
) -> Lifetime {
    let geo = Geometry::new(params, cfg);
    let per_range = range_rounds(params, cfg);
    let batch = batch as u64;
    let horizon = (params.endurance / cfg.outer_interval).max(1) * 1000;
    let shards = jobs.clamp(1, cfg.sub_regions as usize) as u64;
    // Plan buffers for two batches: workers deposit batch `k` while
    // drawing batch `k + 1`.
    let plans: Vec<RwLock<Vec<RoundPlan>>> =
        (0..2 * batch).map(|_| RwLock::new(Vec::new())).collect();
    let plans_of = |range: u64| &plans[(range % (2 * batch)) as usize];
    // `next_range` and `best_round` are `Relaxed`: neither publishes
    // data. Plans reach readers through their locks and the barrier,
    // crossings through the workers' return values, and the barrier
    // orders every update of `best_round` in a batch before the reads
    // that end the trial.
    let next_range = AtomicU64::new(0);
    // Earliest crossing round any shard has found (`u64::MAX`: none yet).
    // Later rounds cannot hold the first failure, so shards stop before
    // any range that starts past it.
    let best_round = AtomicU64::new(u64::MAX);
    let barrier = Barrier::new(shards as usize);
    let panicked = AtomicBool::new(false);
    // Claim and draw round ranges below `end` until none are left or a
    // crossing makes them moot.
    let draw = |end: u64| {
        while best_round.load(Ordering::Relaxed) == u64::MAX {
            let Ok(i) = next_range.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |i| {
                (i < end).then_some(i + 1)
            }) else {
                break;
            };
            let a = i * per_range;
            let mut buf = plans_of(i).write().expect("plan buffer poisoned");
            buf.clear();
            buf.extend(round_plans(params, cfg, seed, a..a + per_range));
        }
    };
    // Wait for the whole team; false if a worker has panicked.
    let sync = || {
        barrier.wait();
        !panicked.load(Ordering::SeqCst)
    };
    let worker = |w: u64| -> Option<Crossing> {
        let _release = ReleaseOnPanic(&barrier, &panicked);
        let regions = cfg.sub_regions * w / shards..cfg.sub_regions * (w + 1) / shards;
        let mut wear = ExactWear::new(geo, regions, params.endurance);
        draw(batch);
        if !sync() {
            return None;
        }
        let mut k = 0;
        loop {
            let mut crossing = None;
            'batch: for i in k * batch..(k + 1) * batch {
                if i * per_range > best_round.load(Ordering::Relaxed) {
                    break;
                }
                let buf = plans_of(i).read().expect("plan buffer poisoned");
                for (round, plan) in (i * per_range..).zip(buf.iter()) {
                    crossing = wear.round(round, plan);
                    if crossing.is_some() {
                        best_round.fetch_min(round, Ordering::Relaxed);
                        break 'batch;
                    }
                }
            }
            draw((k + 2) * batch);
            // Every shard has deposited batch `k` (or stopped at a
            // crossing) and batch `k + 1` is drawn. A crossing inside
            // batch `k` ends the trial; all workers see the same answer,
            // because later batches can only add crossings beyond it.
            let healthy = sync();
            let deposited = (k + 1) * batch * per_range;
            if !healthy || best_round.load(Ordering::Relaxed) < deposited {
                return crossing;
            }
            assert!(
                deposited < horizon,
                "RAA engine found no endurance crossing within 1000 lifetimes"
            );
            k += 1;
        }
    };
    let worker = &worker;
    // One worker scope per trial; the calling thread runs shard 0.
    let crossings = std::thread::scope(|s| {
        let others: Vec<_> = (1..shards).map(|w| s.spawn(move || worker(w))).collect();
        let mut all = vec![worker(0)];
        for h in others {
            all.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        all
    });
    let first = crossings
        .into_iter()
        .flatten()
        .min()
        .expect("the engine stops only at a crossing");
    let round_writes = (params.lines * cfg.outer_interval) as u128;
    finish(
        params,
        cfg,
        first.round as u128 * round_writes + first.writes,
    )
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
    /// The closed form of one stay, as ranges: each full lap also
    /// rewrites one line per slot of the region (background).
    fn stay(&mut self, region: u64, entry: u64, writes: u64) {
        let base = region * self.geo.slots;
        let (f, runs) = stay_runs(self.geo, entry, writes);
        self.acc.add_range(base, base + self.geo.slots, f);
        for (run, amount) in runs {
            self.acc.add_range(base + run.start, base + run.end, amount);
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
                for s in &plan.stays {
                    sink.stay(s.region, s.entry, s.writes);
                }
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
    use proptest::prelude::*;

    fn small_cfg() -> SrbsgParams {
        SrbsgParams {
            sub_regions: 8,
            inner_interval: 4,
            outer_interval: 8,
            stages: 5,
        }
    }

    /// Reference lifetime sink: the exact quantum walk over a dense image
    /// of every region, with no closed form and no sharding.
    struct Walk {
        geo: Geometry,
        wear: Vec<u64>,
        background: Vec<u64>,
        peak: Vec<u64>,
        endurance: u64,
    }

    impl Walk {
        fn new(params: &PcmParams, cfg: &SrbsgParams) -> Self {
            let geo = Geometry::new(params, cfg);
            let regions = cfg.sub_regions as usize;
            Self {
                geo,
                wear: vec![0; regions * geo.slots as usize],
                background: vec![0; regions],
                peak: vec![0; regions],
                endurance: params.endurance,
            }
        }

        fn stay(&mut self, region: u64, entry: u64, writes: u64) -> (u64, bool) {
            let geo = self.geo;
            let r = region as usize;
            stay_quanta(geo, entry, writes, |slot, amount| {
                let w = &mut self.wear[(region * geo.slots + slot) as usize];
                *w += amount;
                self.peak[r] = self.peak[r].max(*w);
                if amount == geo.lap {
                    self.background[r] += 1;
                }
                self.peak[r] + self.background[r] >= self.endurance
            })
        }

        /// Pre-wear one slot of a region's hammer image.
        fn set(&mut self, region: u64, slot: u64, wear: u64) {
            self.wear[(region * self.geo.slots + slot) as usize] = wear;
            let r = region as usize;
            self.peak[r] = self.peak[r].max(wear);
        }
    }

    impl ExactWear {
        /// Pre-wear one slot of an owned region's hammer image.
        fn set(&mut self, region: u64, slot: u64, wear: u64) {
            let r = (region - self.first) as usize;
            self.wear[r * self.geo.slots as usize + slot as usize] = wear;
            self.peak[r] = self.peak[r].max(wear);
        }
    }

    /// Effective per-slot wear of a full-bank image: hammer wear plus the
    /// region's background.
    fn dense(w: &ExactWear) -> Vec<u64> {
        let slots = w.geo.slots as usize;
        w.wear
            .iter()
            .enumerate()
            .map(|(i, &x)| x + w.background[i / slots])
            .collect()
    }

    /// Serial reference for the lifetime: the same per-round streams
    /// walked quantum by quantum from round 0 with exact failure
    /// semantics and no partition at all.
    fn lifetime_serial(params: &PcmParams, cfg: &SrbsgParams, seed: u64) -> Lifetime {
        let mut wear = Walk::new(params, cfg);
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

    fn plan(stays: [(u64, u64, u64); 2], parked_writes: u64) -> RoundPlan {
        RoundPlan {
            stays: stays.map(|(region, entry, writes)| Stay {
                region,
                entry,
                writes,
            }),
            parked_writes,
        }
    }

    /// 64 lines in 4 regions of 17 slots; 68 writes per full lap.
    fn tiny() -> (PcmParams, SrbsgParams) {
        let params = PcmParams::small(6, 1_000);
        let cfg = SrbsgParams {
            sub_regions: 4,
            inner_interval: 4,
            outer_interval: 8,
            stages: 3,
        };
        (params, cfg)
    }

    /// Regression: a region-wide background increment must fail a slot
    /// the current deposit never touched, not just the slot written.
    #[test]
    fn background_wear_fails_untouched_slots() {
        let (params, cfg) = tiny();
        let geo = Geometry::new(&params, &cfg);
        let mut wear = ExactWear::new(geo, 0..cfg.sub_regions, params.endurance);
        // Pre-wear slot 5 of region 0 to E−1. A 2-lap stay entering at
        // slot 0 touches slots 0 and 1 only, but its first full lap's
        // background increment pushes slot 5 to E.
        wear.set(0, 5, params.endurance - 1);
        let (deposited, failed) = wear.stay(0, 0, 2 * geo.lap);
        assert!(
            failed,
            "background increment crossed endurance on slot 5 but went undetected"
        );
        assert_eq!(deposited, geo.lap, "the stay stops at the failing quantum");
    }

    /// The closed-form stays (the lifetime sink's fast path and the
    /// streaming accumulator) must reproduce the exact quantum walk,
    /// including multi-wrap stays and background accounting.
    #[test]
    fn closed_form_range_stay_matches_exact_quanta() {
        let params = PcmParams::small(8, u64::MAX);
        let cfg = small_cfg();
        let geo = Geometry::new(&params, &cfg);
        let Geometry { slots, lap } = geo;
        let lines = cfg.sub_regions * slots;
        let mut fast = ExactWear::new(geo, 0..cfg.sub_regions, u64::MAX);
        let mut walk = Walk::new(&params, &cfg);
        let mut stream = StreamSink {
            acc: WearAccumulator::new(lines, 16, lines),
            geo,
        };
        // Stays covering: zero, sub-lap remainder, exact laps, wrap within
        // the region, and multiple full wraps of the region.
        for &(region, entry, writes) in &[
            (0u64, 0u64, 0u64),
            (0, 3, lap / 2 + 1),
            (1, slots - 1, 3 * lap),
            (2, slots - 2, slots * lap + 7),
            (3, 5, 3 * slots * lap + 2 * lap + 11),
            (3, 0, slots * lap),
        ] {
            assert_eq!(fast.stay(region, entry, writes), (writes, false));
            assert_eq!(walk.stay(region, entry, writes), (writes, false));
            stream.stay(region, entry, writes);
        }
        assert_eq!(fast.wear, walk.wear);
        assert_eq!(fast.background, walk.background);
        assert_eq!(fast.peak, walk.peak);
        let image = dense(&fast);
        assert_eq!(
            stream.acc.total(),
            image.iter().map(|&w| w as u128).sum::<u128>()
        );
        assert_eq!(stream.acc, WearAccumulator::from_wear(&image, 16, lines));
    }

    /// A failing stay is undone and walked: the image it leaves is exactly
    /// the quantum walk's, stopped at the failing quantum — checked after
    /// every stay of a random sequence that runs into the endurance.
    #[test]
    fn undone_stay_restores_the_wear_image_exactly() {
        let (_, cfg) = tiny();
        let params = PcmParams::small(6, 5_000);
        let geo = Geometry::new(&params, &cfg);
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..20 {
            let mut fast = ExactWear::new(geo, 0..cfg.sub_regions, params.endurance);
            let mut walk = Walk::new(&params, &cfg);
            loop {
                let region = rng.random_range(0..cfg.sub_regions);
                let entry = rng.random_range(0..geo.slots);
                let writes = rng.random_range(0..3 * geo.slots * geo.lap);
                let out = fast.stay(region, entry, writes);
                assert_eq!(out, walk.stay(region, entry, writes));
                assert_eq!(fast.wear, walk.wear);
                assert_eq!(fast.background, walk.background);
                assert_eq!(fast.peak, walk.peak);
                if out.1 {
                    break;
                }
            }
        }
    }

    /// The second stay of a round fails: the crossing counts parked
    /// traffic, the whole first stay and the second stay's deposits, as
    /// `RoundPlan::deposit` does.
    #[test]
    fn crossing_in_the_second_stay_of_a_round() {
        let (params, cfg) = tiny();
        let geo = Geometry::new(&params, &cfg);
        let lap = geo.lap;
        // Stay 2 enters region 1 at slot 2; its second quantum lands on
        // slot 3, pre-worn so that quantum (plus two background laps)
        // reaches E exactly.
        let pre = params.endurance - lap - 2;
        let p = plan([(0, 0, lap), (1, 2, 3 * lap)], 5);
        let mut fast = ExactWear::new(geo, 0..cfg.sub_regions, params.endurance);
        fast.set(1, 3, pre);
        let crossing = fast.round(7, &p).expect("stay 2 fails");
        assert_eq!(
            crossing,
            Crossing {
                round: 7,
                stay: 1,
                writes: 5 + lap as u128 + 2 * lap as u128,
            }
        );
        let mut walk = Walk::new(&params, &cfg);
        walk.set(1, 3, pre);
        assert_eq!(
            p.deposit(|region, entry, w| walk.stay(region, entry, w)),
            (crossing.writes, true)
        );
    }

    /// Two shards cross in the same round: the shard whose failing stay
    /// comes first in the round holds the trial's failure, whichever
    /// shard it is.
    #[test]
    fn same_round_crossings_in_two_shards_take_the_lower_stay() {
        let (params, cfg) = tiny();
        let geo = Geometry::new(&params, &cfg);
        let lap = geo.lap;
        let pre = params.endurance - lap - 1;
        // Stay 1 fails in region 2 (upper shard), stay 2 in region 0
        // (lower shard); each fails on its first quantum.
        let p = plan([(2, 4, 2 * lap), (0, 9, 2 * lap)], 3);
        let mut lower = ExactWear::new(geo, 0..2, params.endurance);
        let mut upper = ExactWear::new(geo, 2..4, params.endurance);
        let mut walk = Walk::new(&params, &cfg);
        for (region, slot) in [(0, 9), (2, 4)] {
            let shard = if region < 2 { &mut lower } else { &mut upper };
            shard.set(region, slot, pre);
            walk.set(region, slot, pre);
        }
        let (a, b) = (lower.round(4, &p), upper.round(4, &p));
        assert_eq!(a.map(|c| c.stay), Some(1));
        assert_eq!(b.map(|c| c.stay), Some(0));
        let first = a.into_iter().chain(b).min().unwrap();
        assert_eq!(first, b.unwrap());
        assert_eq!(
            p.deposit(|region, entry, w| walk.stay(region, entry, w)),
            (first.writes, true)
        );
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

    /// A panic in one worker reaches the caller; the other workers are
    /// not left waiting for it.
    #[test]
    #[should_panic(expected = "at least one stage")]
    fn worker_panic_propagates() {
        let cfg = SrbsgParams {
            stages: 0,
            ..small_cfg()
        };
        lifetime_batched(&PcmParams::small(8, 10_000), &cfg, 1, 3, 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The sharded, batched engine equals the serial quantum walk for
        /// any shape, worker count and batch size: from a crossing in
        /// round 0 up to many laps of endurance, including configs whose
        /// stays wrap their region (few slots, long rounds).
        #[test]
        fn engine_matches_the_serial_walk(
            width in 6u32..=12,
            r_log in 1u32..=3,
            inner in 1u64..=8,
            outer in 4u64..=32,
            stages in 1usize..=7,
            e_frac in 0.2..1.0f64,
            seed in any::<u64>(),
            batch in prop_oneof![Just(1usize), Just(7), Just(96)],
        ) {
            let cfg = SrbsgParams {
                sub_regions: 1 << r_log,
                inner_interval: inner,
                outer_interval: outer,
                stages,
            };
            let lap = Geometry::new(&PcmParams::small(width, 1), &cfg).lap;
            let endurance = ((256 * lap) as f64).powf(e_frac).clamp(1.0, 262_144.0) as u64;
            let params = PcmParams::small(width, endurance);
            let serial = lifetime_serial(&params, &cfg, seed);
            for jobs in [1usize, 2, 3, 8] {
                prop_assert_eq!(
                    lifetime_batched(&params, &cfg, seed, jobs, batch),
                    serial,
                    "jobs={}",
                    jobs
                );
            }
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
            for s in &plan.stays {
                sink.stay(s.region, s.entry, s.writes);
            }
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
        let mut sink = ExactWear::new(Geometry::new(&params, &cfg), 0..cfg.sub_regions, u64::MAX);
        for (round, plan) in (0..rounds).zip(round_plans(&params, &cfg, 9, 0..rounds)) {
            assert_eq!(sink.round(round, &plan), None);
        }
        let image = dense(&sink);
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
