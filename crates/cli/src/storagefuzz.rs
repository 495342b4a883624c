//! `experiments storagefuzz` — seeded storage-fault fuzzing of the
//! persistence stack under load, a preset of the fault simulator
//! ([`crate::faultsim`]).
//!
//! Every iteration replays a random read/write stream through the batched
//! serving front-end over three journaled Security RBSG banks, running the
//! server engine's durable-before-ack contract against a shelf on
//! deterministic fault-injecting media ([`Restart::Shelf`]). Iterations
//! cycle through the whole fault matrix — short write, transient EIO
//! (healed by retry or escalated to crash-restart), persistent ENOSPC
//! (typed read-only degradation), a lying fsync (materialized at the next
//! power cut), a failed commit rename, and at-rest bit rot discovered on
//! reload — plus a fault-free control that must match the never-faulted
//! reference bit for bit. Scheduled power cuts restart the stack through
//! the server's own shelf load (scrub-healing rotten copies) and re-keyed
//! `restore`, resubmitting the writes of any save that failed.
//!
//! Invariants, on every iteration:
//!
//! * **no lost acknowledgments** — a write acked only after its shelf save
//!   reads back intact at the end, across every injected fault and cut;
//! * **equivalence** — unless the iteration degraded to read-only, the
//!   recovered-then-continued system ends byte-identical to a reference
//!   run that never faulted;
//! * **typed degradation** — persistent ENOSPC sheds writes as
//!   [`Rejected::ReadOnly`] while reads keep serving; nothing panics and
//!   nothing is acked un-saved.
//!
//! Iterations are independent and seeded from the iteration index alone,
//! so the table and `results/storagefuzz.csv` are byte-identical for any
//! `--jobs N`. The iteration count is printed for the CI gate log.

use crate::faultsim::{
    assert_contract, drive, fuzz_trace, rbsg_banks, Feed, Restart, Run, Schedule,
};
use crate::table::Table;
use crate::Opts;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use srbsg_persist::{CheckpointPolicy, FaultKind, FaultPlan};
use srbsg_serve::{Completion, Rejected, Request};
use srbsg_server::SHELF_SLOTS;
use std::collections::BTreeMap;

/// Requests per batch, and so per durable-before-ack save.
const BATCH: usize = 48;

/// The fault matrix, cycled by iteration index so every kind gets equal
/// coverage; `None` is the fault-free control lane.
const KINDS: [Option<FaultKind>; 7] = [
    None,
    Some(FaultKind::ShortWrite),
    Some(FaultKind::TransientIo),
    Some(FaultKind::NoSpace),
    Some(FaultKind::SyncLie),
    Some(FaultKind::RenameFail),
    Some(FaultKind::BitRot),
];

fn kind_name(kind: Option<FaultKind>) -> &'static str {
    kind.map_or("none", |k| k.name())
}

/// What one iteration drew: the fault kind, its `at_op`, and its burst.
type Draw = (Option<FaultKind>, u64, u64);

/// One fuzz iteration, end to end.
fn run_iter(iter: u64, n: usize) -> (Draw, Run) {
    let mut rng = StdRng::seed_from_u64(0x5702_A6EF ^ iter.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let kind = KINDS[(iter as usize) % KINDS.len()];
    let dev_seed = rng.random::<u64>();
    let nb = n.div_ceil(BATCH) as u64;

    // The plan's `at_op` is an absolute 1-based index into the relevant
    // operation category; a save is 2 writes, 2 renames, and 4 syncs, and
    // one save runs per batch (plus the initial commit and any restart
    // commits), so these ranges land inside the run.
    let plan = kind.map(|k| {
        let mut p = match k {
            FaultKind::ShortWrite | FaultKind::TransientIo | FaultKind::NoSpace => {
                FaultPlan::new(k, 1 + rng.random::<u64>() % (2 * nb))
            }
            FaultKind::SyncLie => FaultPlan::new(k, 1 + rng.random::<u64>() % (4 * nb)),
            FaultKind::RenameFail => FaultPlan::new(k, 1 + rng.random::<u64>() % (2 * nb)),
            // Fires at the first power cut; a cut is always scheduled.
            FaultKind::BitRot => FaultPlan::new(k, 1),
        };
        p.seed = rng.random::<u64>();
        if k == FaultKind::TransientIo {
            // 1..=3 heals within the 4-attempt budget; 4..=6 exhausts it
            // and exercises the crash-restart path.
            p.burst = 1 + rng.random::<u64>() % 6;
        }
        if k == FaultKind::BitRot {
            p.rot_file = SHELF_SLOTS[(rng.random::<u32>() % 2) as usize].to_string();
            p.rot_bits = 1 + rng.random::<u32>() % 6;
        }
        p
    });
    // A power cut mid-stream: always for the kinds it materializes
    // (sync-lie, bit rot), occasionally everywhere else.
    let cut_after = match kind {
        Some(FaultKind::SyncLie) | Some(FaultKind::BitRot) => Some(rng.random::<u64>() % nb),
        _ => (rng.random::<u32>() % 4 == 0).then(|| rng.random::<u64>() % nb),
    };

    let build = || {
        rbsg_banks(
            0x0057_012A_6E00 ^ (iter << 8),
            CheckpointPolicy::every_steps(8),
        )
    };
    let reqs = fuzz_trace(&mut rng, build().system().logical_lines(), n);
    let draw = (
        kind,
        plan.as_ref().map_or(0, |p| p.at_op),
        plan.as_ref().map_or(0, |p| p.burst),
    );
    let sched = Schedule {
        media: plan,
        cut_after,
        restart: Restart::Shelf(dev_seed),
        ..Schedule::default()
    };
    // The only rejection allowed is the typed read-only shed, which the
    // simulator accounts for.
    let mut on_done = |_: &Request, _: u32, c: &Completion| {
        if let Err(e) = c.result {
            assert_eq!(e, Rejected::ReadOnly, "iter {iter}: unexpected rejection");
        }
        false
    };
    let feed = Feed::batches(BATCH);
    let (run, _) = drive(&build, &reqs, feed, &sched, &mut on_done, &mut |_| {});
    (draw, run)
}

pub fn run(opts: &Opts) {
    let iters: u64 = if opts.quick { 63 } else { 245 };
    let n = if opts.quick { 360 } else { 600 };

    let results = srbsg_parallel::par_map((0..iters).collect(), opts.jobs, |iter| {
        (iter, run_iter(iter, n))
    });

    let mut t = Table::keyed(&format!(
        "Deterministic storage-fault fuzzing ({iters} iterations, 3 journaled \
         banks on faulty media, {n} requests per iteration)"
    ));
    let mut fired_by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (iter, ((kind, at_op, burst), run)) in &results {
        if run.media_fired {
            *fired_by_kind.entry(kind_name(*kind)).or_insert(0) += 1;
        }
        t.row_keyed(vec![
            ("iter", iter.to_string()),
            ("kind", kind_name(*kind).to_string()),
            ("at_op", at_op.to_string()),
            ("burst", burst.to_string()),
            ("fired", run.media_fired.to_string()),
            ("saves", run.saves.to_string()),
            ("acked", run.ledger.writes().to_string()),
            ("resubmitted", run.resubmitted.to_string()),
            ("lost_acked", run.lost.to_string()),
            ("retried", run.retried.to_string()),
            ("restarts", run.restarts.to_string()),
            ("healed_slots", run.healed.to_string()),
            ("read_only", run.read_only.to_string()),
            ("shed_read_only", run.shed.to_string()),
            ("reads_after_ro", run.ro_reads.to_string()),
            ("equivalent", run.equivalent.to_string()),
        ]);
    }
    t.print();
    t.write_csv(&opts.out_dir, "storagefuzz");

    let total = |f: fn(&Run) -> u64| results.iter().map(|(_, (_, r))| f(r)).sum::<u64>();
    let fired_total: u64 = fired_by_kind.values().sum();
    let lost_total = total(|r| r.lost);
    let resub_total = total(|r| r.resubmitted);
    let retried_total = total(|r| r.retried);
    let restart_total = total(|r| r.restarts);
    let healed_total = total(|r| r.healed);
    let ro_iters = total(|r| u64::from(r.read_only));
    let shed_ro_total = total(|r| r.shed);
    let reads_after_ro_total = total(|r| r.ro_reads);
    println!(
        "\nstoragefuzz: {iters} iterations completed; {fired_total} faults fired; \
         {retried_total} transient retries healed; {restart_total} crash-restarts; \
         {resub_total} failed-save writes resubmitted; {healed_total} shelf copies \
         scrub-healed; {ro_iters} read-only degradations ({shed_ro_total} writes shed, \
         {reads_after_ro_total} reads served after); {lost_total} acknowledged writes lost"
    );

    // Acceptance bars: zero loss, equivalence outside sanctioned
    // degradation (the one sanctioned divergence), and the whole fault
    // matrix actually exercised.
    assert_contract(results.iter().map(|(_, (_, r))| r));
    for kind in KINDS.into_iter().flatten() {
        assert!(
            fired_by_kind.get(kind.name()).copied().unwrap_or(0) > 0,
            "fault kind {} never fired — the fuzz space is miscalibrated",
            kind.name()
        );
    }
    assert!(
        retried_total > 0,
        "no transient error was ever retried away"
    );
    assert!(restart_total > 0, "no crash-restart was ever taken");
    assert!(healed_total > 0, "no rotten shelf copy was ever healed");
    assert!(
        ro_iters > 0 && shed_ro_total > 0,
        "read-only degradation was never exercised"
    );
    assert!(
        reads_after_ro_total > 0,
        "no read was ever served in read-only degradation"
    );
    assert!(resub_total > 0, "no failed-save write was ever resubmitted");
}
