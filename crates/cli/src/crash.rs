//! `experiments crash` — deterministic power-failure injection sweep over
//! the journaled wear-leveling stack (`srbsg-persist`), a preset of the
//! fault simulator ([`crate::faultsim`]) on a one-bank front-end
//! fed one write per batch.
//!
//! For every scheme, the sweep plants crashes at chosen points of the
//! write-ahead journal in every supported manner ([`CrashMode::ALL`]) — a
//! torn `Step` record, a recorded-but-unapplied step, a half-applied swap,
//! an applied step missing its commit marker, a quiet-point crash a few
//! demand writes after a clean commit, and three crashes inside a
//! checkpoint installation (torn snapshot, torn active-marker flip, and
//! snapshot-written-journal-not-truncated). Every crashing run carries a
//! `CheckpointPolicy` bounding the journal, so each trial also checks the
//! recovery-time SLO (`replayed <= max(K, 2)` steps). Each trial recovers
//! from exactly the bytes and lines that survived, and checks the full
//! contract:
//!
//! * recovery succeeds and the recovered mapping is a bijection,
//! * every write acknowledged before the crash reads back,
//! * continuing the interrupted trace ends byte-identical to a run that
//!   never crashed,
//! * the recovery replayed no more steps than the policy's SLO allows.
//!
//! A second sweep varies K for re-keyed Security RBSG and writes the
//! aggregate trade-off (journal footprint vs. replay cost) to
//! `results/crash_checkpoint.csv`.
//!
//! Security RBSG appears twice: once with plain recovery (showing that an
//! attacker's pre-crash knowledge of the mapping survives a power cycle —
//! `overlap = 1` at quiet points) and once with re-keyed recovery, which
//! reseeds the DFN keys and bursts remap rounds until the learned mapping
//! is worthless (`overlap` collapses). The sweep guarantees at least one
//! mid-remap crash and at least one crash planted mid key-rotation round.
//!
//! Trials run on `--jobs N` workers; the table and `results/crash.csv`
//! are byte-identical for any `N`.

use crate::faultsim::{
    assert_contract, drive, journaled, reissue_power_lost, Feed, Recovery, Restart, Run, Schedule,
    Sim,
};
use crate::table::Table;
use crate::Opts;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use srbsg_core::{SecurityRbsg, SecurityRbsgConfig};
use srbsg_pcm::{LineData, Ns};
use srbsg_persist::{CheckpointPolicy, CrashMode, CrashPlan, JournaledScheme};
use srbsg_serve::{Op, Request};
use srbsg_wearlevel::{MultiWaySr, Rbsg, SecurityRefresh, StartGap, TwoLevelSr};

/// The checkpoint step bound K armed for the main sweep (the dedicated
/// K-sweep below varies it).
const SWEEP_K: u64 = 8;

/// The schemes under test. Security RBSG is swept under both recovery
/// policies so the CSV carries the attacker-overlap contrast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    StartGap,
    Rbsg,
    SecurityRefresh,
    TwoLevelSr,
    MultiWaySr,
    SecurityRbsg,
    SecurityRbsgRekey,
}

const KINDS: [Kind; 7] = [
    Kind::StartGap,
    Kind::Rbsg,
    Kind::SecurityRefresh,
    Kind::TwoLevelSr,
    Kind::MultiWaySr,
    Kind::SecurityRbsg,
    Kind::SecurityRbsgRekey,
];

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::StartGap => "start_gap",
            Kind::Rbsg => "rbsg",
            Kind::SecurityRefresh => "security_refresh",
            Kind::TwoLevelSr => "two_level_sr",
            Kind::MultiWaySr => "multi_way_sr",
            Kind::SecurityRbsg => "security_rbsg",
            Kind::SecurityRbsgRekey => "security_rbsg+rekey",
        }
    }
}

/// Run `spec` on its kind's scheme — the one place each scheme is built,
/// each small on purpose (16 or 32 lines): the sweep is about protocol
/// coverage, not capacity.
fn dispatch(spec: Spec) -> Outcome {
    let seed = spec.seed;
    match spec.kind {
        Kind::StartGap => trial(spec, &|| StartGap::start_gap(16, 3), never),
        Kind::Rbsg => trial(
            spec,
            &|| Rbsg::with_feistel(&mut StdRng::seed_from_u64(seed ^ 0xA5), 5, 4, 3),
            never,
        ),
        Kind::SecurityRefresh => {
            trial(spec, &|| SecurityRefresh::new(32, 4, 3, seed ^ 0x51), never)
        }
        Kind::TwoLevelSr => trial(spec, &|| TwoLevelSr::new(32, 4, 3, 6, seed ^ 0x2D), never),
        Kind::MultiWaySr => trial(spec, &|| MultiWaySr::new(32, 4, 3, 6, seed ^ 0x3E), never),
        Kind::SecurityRbsg | Kind::SecurityRbsgRekey => trial(
            spec,
            &|| {
                SecurityRbsg::new(SecurityRbsgConfig {
                    seed: seed ^ 0x99,
                    ..SecurityRbsgConfig::small(4, 2)
                })
            },
            |s| s.dfn().parked().is_some(),
        ),
    }
}

/// The key-rotation probe of schemes without a key-rotation round.
fn never<W>(_: &W) -> bool {
    false
}

/// The same hammer-plus-spray trace the persist crate's property tests
/// use: frequent remaps in line 0's region, uniform traffic elsewhere.
fn trace(lines: u64, n: usize, seed: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let la = if rng.random::<u32>() % 3 == 0 {
                0
            } else {
                rng.random::<u64>() % lines
            };
            Request {
                la,
                op: Op::Write(LineData::Mixed(i as u32 + 1)),
                arrival_ns: 0,
                deadline_ns: Ns::MAX,
            }
        })
        .collect()
}

/// A crash point past any journal: the plan never fires, and the run is
/// the crash-free planning probe.
const NEVER: u64 = u64::MAX;

/// One crash trial: scheme × trace seed × crash point × crash mode, with
/// a checkpoint policy of "every `k` steps" armed on the crashing run.
#[derive(Debug, Clone, Copy)]
struct Spec {
    kind: Kind,
    seed: u64,
    at_step: u64,
    mode: CrashMode,
    k: u64,
    n: usize,
}

/// What one run observed; any contract violation panics the trial (and
/// `par_map` propagates it).
#[derive(Default)]
struct Outcome {
    /// Journal steps the bank logged, and the first step count that left
    /// it mid key-rotation — the planning probe's answers.
    steps: u64,
    first_mid: Option<u64>,
    /// Whether the scheme was mid key-rotation when power died.
    mid_round: bool,
    /// The attacker's prize at the instant power died: the LA → PA table.
    learned: Vec<u64>,
    run: Run,
}

impl Outcome {
    fn rec(&self) -> &Recovery {
        &self.run.recoveries[0]
    }

    /// Fraction of the attacker's pre-crash table still valid after
    /// recovery.
    fn overlap(&self) -> f64 {
        let kept = self.learned.iter().zip(&self.rec().mapping);
        kept.filter(|(a, b)| a == b).count() as f64 / self.learned.len() as f64
    }
}

/// Run `spec` on a one-bank front-end over the scheme `mk` builds, one
/// write per batch. `mid_round` tells whether the scheme is mid
/// key-rotation (a DFN line parked, the mapping split between `Kc` and
/// `Kp`).
fn trial<W: JournaledScheme + Send>(
    spec: Spec,
    mk: &dyn Fn() -> W,
    mid_round: fn(&W) -> bool,
) -> Outcome {
    let plan = CrashPlan {
        at_step: spec.at_step,
        mode: spec.mode,
    };
    let sched = Schedule {
        crash: Some((0, plan)),
        restart: match spec.kind {
            Kind::SecurityRbsgRekey => Restart::Rekeyed(0xF5E5 ^ (spec.seed << 16) ^ spec.at_step),
            _ => Restart::Journal,
        },
        ..Schedule::default()
    };
    let build = || journaled(vec![mk()], CheckpointPolicy::every_steps(spec.k));
    let reqs = trace(build().system().logical_lines(), spec.n, spec.seed);
    let mut out = Outcome::default();
    let mut on_batch = |fe: &Sim<W>| {
        let mc = &fe.system().banks()[0];
        let (steps, mid) = (mc.scheme().steps_logged(), mid_round(mc.scheme().scheme()));
        if out.first_mid.is_none() && steps > out.steps && mid {
            out.first_mid = Some(steps);
        }
        out.steps = steps;
        if !fe.crashed_banks().is_empty() {
            out.mid_round = mid;
            out.learned = (0..mc.logical_lines()).map(|la| mc.translate(la)).collect();
        }
    };
    let feed = Feed::batches(1);
    (out.run, _) = drive(
        &build,
        &reqs,
        feed,
        &sched,
        &mut reissue_power_lost,
        &mut on_batch,
    );
    out
}

/// Plan a kind's trials: `npts` crash points spread over the journal the
/// crash-free run logs — plus, with `mid`, the first step that lands mid
/// key-rotation — each in every crash mode.
fn plan(kind: Kind, seed: u64, k: u64, n: usize, npts: u64, mid: bool) -> Vec<Spec> {
    let spec = |at_step, mode| Spec {
        kind,
        seed,
        at_step,
        mode,
        k,
        n,
    };
    let probe = dispatch(spec(NEVER, CrashMode::TornRecord));
    let steps = probe.steps;
    assert!(steps >= 3, "{kind:?} trace too quiet: {steps} steps");
    let mut points: Vec<u64> = (0..npts)
        .map(|p| 1 + p * (steps - 1) / (npts - 1))
        .collect();
    if mid {
        points.push(
            probe
                .first_mid
                .expect("trace never caught the DFN mid key-rotation"),
        );
    }
    points.sort_unstable();
    points.dedup();
    points
        .into_iter()
        .flat_map(|p| CrashMode::ALL.map(|m| spec(p, m)))
        .collect()
}

/// Run the trials on `jobs` workers and keep those whose plan fired.
fn trials(specs: Vec<Spec>, jobs: usize) -> Vec<(Spec, Outcome)> {
    let results = srbsg_parallel::par_map(specs, jobs, |s| (s, dispatch(s)));
    results
        .into_iter()
        .filter(|(_, out)| !out.run.recoveries.is_empty())
        .collect()
}

pub fn run(opts: &Opts) {
    let n = if opts.quick { 400 } else { 800 };
    let npts = if opts.quick { 3 } else { 6 };
    let seeds = || (0..opts.seeds).map(|s| 31 + s * 0x9E37);

    // Plan serially: per scheme × trace seed, crash points across the
    // journal, plus the first mid key-rotation step for Security RBSG.
    let specs: Vec<Spec> = KINDS
        .into_iter()
        .flat_map(|kind| {
            let mid = matches!(kind, Kind::SecurityRbsg | Kind::SecurityRbsgRekey);
            seeds().flat_map(move |seed| plan(kind, seed, SWEEP_K, n, npts, mid))
        })
        .collect();
    let planned = specs.len();
    let fired = trials(specs, opts.jobs);

    let mut t = Table::keyed(&format!(
        "Power-failure injection sweep ({planned} planned crashes, {} crash modes, \
         recovery verified trial by trial)",
        CrashMode::ALL.len()
    ));
    for (spec, out) in &fired {
        let (rec, r) = (out.rec(), &out.rec().report);
        t.row_keyed(vec![
            ("scheme", spec.kind.name().to_string()),
            ("seed", spec.seed.to_string()),
            ("at_step", spec.at_step.to_string()),
            ("mode", spec.mode.name().to_string()),
            ("k", spec.k.to_string()),
            ("crash_write", rec.batch.to_string()),
            ("mid_round", out.mid_round.to_string()),
            ("replayed", r.replayed_steps.to_string()),
            ("skipped", r.skipped_steps.to_string()),
            ("torn_bytes", r.torn_bytes.to_string()),
            ("journal_bytes", r.journal_bytes.to_string()),
            ("snap_bytes", r.snapshot_bytes.to_string()),
            ("redone_ops", r.redone_ops.to_string()),
            ("ckpts", rec.ckpts.to_string()),
            ("fallback", r.marker_fallback.to_string()),
            ("slo_ok", rec.slo_ok.to_string()),
            ("reseeded", r.reseeded.to_string()),
            ("rekey_moves", r.rekey_movements.to_string()),
            ("acked", rec.audited.to_string()),
            ("lost_acked", out.run.lost.to_string()),
            ("overlap", format!("{:.4}", out.overlap())),
            ("equivalent", out.run.equivalent.to_string()),
        ]);
    }
    t.print();
    t.write_csv(&opts.out_dir, "crash");

    let count =
        |f: &dyn Fn(&Spec, &Outcome) -> bool| fired.iter().filter(|(s, o)| f(s, o)).count() as u64;
    let sum = |f: &dyn Fn(&Outcome) -> u64| fired.iter().map(|(_, o)| f(o)).sum::<u64>();
    let mid_remap = count(&|s, _| {
        !s.mode.is_checkpoint_phase()
            && !matches!(
                s.mode,
                CrashMode::AfterCommit { .. } | CrashMode::RecordedNotApplied
            )
    });
    let mid_rotation = count(&|_, o| o.mid_round);
    let ckpt_fired = count(&|s, _| s.mode.is_checkpoint_phase());
    let fallback_seen = count(&|_, o| o.rec().report.marker_fallback);
    let skipped_seen = count(&|_, o| o.rec().report.skipped_steps > 0);
    let redone_total = sum(&|o| o.rec().report.redone_ops);
    let replay_total = sum(&|o| o.rec().report.replayed_steps);
    let rekeyed: Vec<f64> = fired
        .iter()
        .filter(|(_, o)| o.rec().report.reseeded)
        .map(|(_, o)| o.overlap())
        .collect();
    let rekeys = rekeyed.len();
    let mean_overlap = rekeyed.iter().sum::<f64>() / rekeys.max(1) as f64;
    println!(
        "\n{} crashes fired; mean replay {:.1} records; {redone_total} ops redone from \
         uncommitted steps; {mid_remap} mid-remap crashes, {mid_rotation} mid key-rotation \
         crashes, {ckpt_fired} mid-checkpoint crashes ({fallback_seen} marker fallbacks, \
         {skipped_seen} stale-prefix skips); {rekeys} re-keyed recoveries, mean attacker \
         overlap after rekey {:.3}",
        fired.len(),
        replay_total as f64 / fired.len().max(1) as f64,
        mean_overlap
    );

    // Acceptance bars: every planned crash that fired recovered to full
    // equivalence with nothing lost and within the recovery-time SLO; the
    // sweep exercised a mid-remap crash, a mid key-rotation crash, each
    // checkpoint-phase crash path, and the redo path; rekeyed recovery
    // destroys the attacker's table while plain recovery at a quiet point
    // preserves it, bit for bit — the hole rekeying closes.
    assert!(!fired.is_empty(), "no crash plan ever fired");
    assert_contract(fired.iter().map(|(_, o)| &o.run));
    assert!(mid_remap > 0, "sweep never crashed mid-remap");
    assert!(mid_rotation > 0, "sweep never crashed mid key-rotation");
    assert!(ckpt_fired > 0, "sweep never crashed mid-checkpoint");
    assert!(fallback_seen > 0, "marker-fallback path never exercised");
    assert!(skipped_seen > 0, "stale-prefix skip never exercised");
    assert!(redone_total > 0, "redo path never exercised");
    assert!(rekeys > 0, "no re-keyed recovery ran");
    assert!(
        mean_overlap < 0.5,
        "attacker keeps {mean_overlap:.2} of the mapping despite rekey"
    );
    assert!(
        count(&|s, o| {
            s.kind == Kind::SecurityRbsg
                && matches!(s.mode, CrashMode::AfterCommit { .. })
                && o.overlap() != 1.0
        }) == 0,
        "plain quiet-point recovery should preserve the learned mapping"
    );

    // ---- Checkpoint-interval sweep: how K trades journal footprint for
    // recovery time. Re-keyed Security RBSG, crash points spread over the
    // trace, every mode; each K aggregates into one row of
    // `crash_checkpoint.csv`.
    let ks: &[u64] = if opts.quick {
        &[4, 8, 16, 32]
    } else {
        &[4, 8, 16, 32, 64, 128]
    };
    let kind = Kind::SecurityRbsgRekey;
    let kspecs = ks
        .iter()
        .flat_map(|&k| seeds().flat_map(move |seed| plan(kind, seed, k, n, npts, false)))
        .collect();
    let kfired = trials(kspecs, opts.jobs);
    let mut kt = Table::keyed(&format!(
        "Checkpoint-interval sweep (security_rbsg+rekey, K in {ks:?}, \
         replay SLO = max(K, 2) steps)"
    ));
    for &k in ks {
        let slo = CheckpointPolicy::every_steps(k)
            .slo_steps()
            .expect("every_steps policy always has an SLO");
        let outs: Vec<&Outcome> = kfired
            .iter()
            .filter(|(s, _)| s.k == k)
            .map(|(_, o)| o)
            .collect();
        let fired = outs.len() as u64;
        assert!(fired > 0, "K={k}: no crash fired");
        let replayed = outs.iter().map(|o| o.rec().report.replayed_steps);
        let max_replayed = replayed.max().unwrap_or(0);
        let mean = |digits: usize, f: &dyn Fn(&Recovery) -> u64| {
            let total = outs.iter().map(|o| f(o.rec())).sum::<u64>();
            format!("{:.*}", digits, total as f64 / fired as f64)
        };
        let slo_ok = outs.iter().all(|o| o.rec().slo_ok);
        assert_contract(outs.iter().map(|o| &o.run));
        assert!(
            max_replayed <= slo,
            "K={k}: max replay {max_replayed} exceeds SLO {slo}"
        );
        kt.row_keyed(vec![
            ("scheme", kind.name().to_string()),
            ("k", k.to_string()),
            ("slo", slo.to_string()),
            ("fired", fired.to_string()),
            ("max_replayed", max_replayed.to_string()),
            ("mean_replayed", mean(2, &|r| r.report.replayed_steps)),
            ("mean_journal_bytes", mean(1, &|r| r.report.journal_bytes)),
            ("mean_snap_bytes", mean(1, &|r| r.report.snapshot_bytes)),
            ("mean_ckpts", mean(2, &|r| r.ckpts)),
            ("slo_ok", slo_ok.to_string()),
        ]);
    }
    kt.print();
    kt.write_csv(&opts.out_dir, "crash_checkpoint");
}
