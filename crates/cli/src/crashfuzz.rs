//! `experiments crashfuzz` — seeded randomized crash-under-load fuzzing,
//! a preset of the fault simulator ([`crate::faultsim`]).
//!
//! Every iteration draws a random checkpoint interval K, a random victim
//! bank, a random crash mode (all eight, including the three
//! checkpoint-phase injection points), and a random crash step, then
//! replays a random read/write stream through the batched serving
//! front-end over three journaled Security RBSG banks with the plan
//! armed. When the victim dies mid-batch, its unacknowledged commands
//! come back as `PowerLost` faults; the simulator restarts the bank through
//! re-keyed journal recovery, resubmits the aborted writes in order, and
//! finishes the stream. Three invariants hold on every iteration, crash
//! or no crash:
//!
//! * **no lost acknowledgments** — every write the front-end acknowledged
//!   reads back intact right after the recovery and at the end;
//! * **recovery SLO** — the recovery replayed at most `max(K, 2)` journal
//!   steps (the checkpoint policy's promise);
//! * **equivalence** — the recovered-then-continued system ends
//!   byte-identical to a reference run that never crashed.
//!
//! Iterations are independent and seeded from the iteration index alone,
//! so the table and `results/crashfuzz.csv` are byte-identical for any
//! `--jobs N`. The iteration count is printed for the CI gate log.

use crate::faultsim::{
    assert_contract, drive, fuzz_trace, rbsg_banks, reissue_power_lost, Feed, Restart, Run,
    Schedule,
};
use crate::table::Table;
use crate::Opts;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use srbsg_persist::{CheckpointPolicy, CrashMode, CrashPlan};

const BANKS: usize = 3;

/// What one iteration drew: K, the victim bank, and the plan.
type Draw = (u64, usize, CrashPlan);

/// One fuzz iteration, end to end.
fn run_iter(iter: u64, n: usize) -> (Draw, Run) {
    let mut rng = StdRng::seed_from_u64(0xF022_1EAF ^ iter.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let k = [4u64, 8, 16][(rng.random::<u32>() % 3) as usize];
    let victim = (rng.random::<u32>() as usize) % BANKS;
    let mode = CrashMode::ALL[(rng.random::<u32>() as usize) % CrashMode::ALL.len()];
    let plan = CrashPlan {
        at_step: 1 + rng.random::<u64>() % 30,
        mode,
    };
    let sched = Schedule {
        crash: Some((victim, plan)),
        restart: Restart::Rekeyed(rng.random::<u64>()),
        ..Schedule::default()
    };
    let build = || rbsg_banks(0xC0FF_EE00 ^ (iter << 8), CheckpointPolicy::every_steps(k));
    let reqs = fuzz_trace(&mut rng, build().system().logical_lines(), n);
    let feed = Feed::batches(48);
    let (run, _) = drive(
        &build,
        &reqs,
        feed,
        &sched,
        &mut reissue_power_lost,
        &mut |_| {},
    );
    ((k, victim, plan), run)
}

pub fn run(opts: &Opts) {
    let iters: u64 = if opts.quick { 64 } else { 240 };
    let n = if opts.quick { 360 } else { 600 };

    let results = srbsg_parallel::par_map((0..iters).collect(), opts.jobs, |iter| {
        (iter, run_iter(iter, n))
    });

    let mut t = Table::keyed(&format!(
        "Randomized crash-under-load fuzzing ({iters} iterations, {BANKS} journaled \
         banks, {n} requests per iteration, replay SLO = max(K, 2))"
    ));
    let mut fired = 0u64;
    let mut ckpt_fired = 0u64;
    for (iter, ((k, bank, plan), run)) in &results {
        let rec = run.recoveries.first();
        if rec.is_some() {
            fired += 1;
            ckpt_fired += u64::from(plan.mode.is_checkpoint_phase());
        }
        let report = rec.map(|r| r.report).unwrap_or_default();
        t.row_keyed(vec![
            ("iter", iter.to_string()),
            ("k", k.to_string()),
            ("bank", bank.to_string()),
            ("mode", plan.mode.name().to_string()),
            ("at_step", plan.at_step.to_string()),
            ("fired", rec.is_some().to_string()),
            ("acked", run.ledger.writes().to_string()),
            ("resubmitted", run.resubmitted.to_string()),
            ("lost_acked", run.lost.to_string()),
            ("replayed", report.replayed_steps.to_string()),
            ("skipped", report.skipped_steps.to_string()),
            ("journal_bytes", report.journal_bytes.to_string()),
            ("fallback", report.marker_fallback.to_string()),
            ("ckpts", rec.map_or(0, |r| r.ckpts).to_string()),
            ("slo_ok", rec.is_none_or(|r| r.slo_ok).to_string()),
            ("equivalent", run.equivalent.to_string()),
        ]);
    }
    t.print();
    t.write_csv(&opts.out_dir, "crashfuzz");

    let journal_fired = fired - ckpt_fired;
    let lost_total: u64 = results.iter().map(|(_, (_, r))| r.lost).sum();
    let resub_total: u64 = results.iter().map(|(_, (_, r))| r.resubmitted).sum();
    println!(
        "\ncrashfuzz: {iters} iterations completed; {fired} crashes fired \
         ({journal_fired} journal-phase, {ckpt_fired} checkpoint-phase); \
         {resub_total} aborted writes resubmitted; {lost_total} acknowledged writes lost"
    );

    // Acceptance bars: the loop must actually bite (most plans fire, both
    // crash families covered), and the three invariants hold everywhere.
    assert_contract(results.iter().map(|(_, (_, r))| r));
    assert!(
        fired >= iters / 2,
        "only {fired}/{iters} plans fired — the fuzz space is miscalibrated"
    );
    assert!(ckpt_fired > 0, "no checkpoint-phase crash ever fired");
    assert!(journal_fired > 0, "no journal-phase crash ever fired");
    assert!(resub_total > 0, "no aborted write was ever resubmitted");
}
