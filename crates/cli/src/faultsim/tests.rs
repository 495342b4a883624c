//! The composed small-scope sweep: every fault source of a [`Schedule`]
//! at once, exhaustively, on the shelf-backed preset's device.

use super::*;
use srbsg_persist::{CrashMode, FaultKind};
use srbsg_server::SHELF_SLOTS;
use std::collections::BTreeMap;

/// Eight writes to two lines of bank 0 (the crashing bank) — enough to
/// journal inner and outer remap steps — and reads of a survivor and of
/// the crashing bank, fed two per batch so every save, cut and restart
/// has something to lose.
fn requests() -> Vec<Request> {
    // (system address, is a write); bank 0 holds addresses 0 and 3.
    let ops = [
        (0, true),
        (3, true),
        (1, false),
        (0, true),
        (3, true),
        (0, true),
        (3, false),
        (0, true),
        (3, true),
        (0, true),
    ];
    ops.into_iter()
        .enumerate()
        .map(|(i, (la, write))| Request {
            la,
            op: if write {
                Op::Write(LineData::Mixed(i as u32 + 1))
            } else {
                Op::Read
            },
            arrival_ns: 100 * (i as Ns + 1),
            deadline_ns: Ns::MAX,
        })
        .collect()
}

/// Every media fault the shelf can suffer, at each of the first three
/// operations of its category after the fault-free boot commit (2 writes,
/// 2 renames, 4 syncs, no power cut), plus none. Transient EIO comes both
/// as a burst retries heal and as one that exhausts them.
fn media_plans() -> Vec<Option<FaultPlan>> {
    let kinds = [
        (FaultKind::ShortWrite, 3),
        (FaultKind::TransientIo, 3),
        (FaultKind::NoSpace, 3),
        (FaultKind::SyncLie, 5),
        (FaultKind::RenameFail, 3),
        (FaultKind::BitRot, 1),
    ];
    let mut plans = vec![None];
    for (kind, first) in kinds {
        for at_op in first..first + 3 {
            let bursts: &[u64] = if kind == FaultKind::TransientIo {
                &[1, 4]
            } else {
                &[1]
            };
            for &burst in bursts {
                let mut p = FaultPlan::new(kind, at_op);
                p.burst = burst;
                p.seed = at_op;
                p.rot_file = SHELF_SLOTS[(at_op % 2) as usize].to_string();
                plans.push(Some(p));
            }
        }
    }
    plans
}

/// Every crash step of bank 0 × every crash mode × every media fault (and
/// none) × every scheduled power cut (and none), each composed into one
/// shelf-backed [`Schedule`]: no acknowledged write is lost, and the run
/// ends equal to the never-faulted one unless the shelf degraded it to
/// read-only.
#[test]
#[ignore = "heavy: exhaustive composed sweep; covered by the CI heavy step"]
fn composed_schedules_lose_no_acknowledged_write() {
    let build = || rbsg_banks(0x5EED_C0DE, CheckpointPolicy::every_steps(2));
    let reqs = requests();
    let batches = (reqs.len() as u64).div_ceil(2);
    let steps = {
        let mut fe = build();
        fe.submit_batch(reqs.clone(), 1);
        fe.system().banks()[0].scheme().steps_logged()
    };
    assert!(
        steps >= 2,
        "the trace journals only {steps} steps on bank 0"
    );

    let started = std::time::Instant::now();
    let mut cases = 0u64;
    let mut crashed: BTreeMap<&str, u64> = BTreeMap::new();
    let mut faulted: BTreeMap<&str, u64> = BTreeMap::new();
    let mut read_only = 0u64;
    for at_step in 0..=steps {
        for mode in CrashMode::ALL {
            for media in media_plans() {
                for cut_after in std::iter::once(None).chain((0..batches).map(Some)) {
                    let sched = Schedule {
                        crash: Some((0, CrashPlan { at_step, mode })),
                        media: media.clone(),
                        cut_after,
                        restart: Restart::Shelf(0x5E1F),
                    };
                    let mut died = false;
                    // A power loss is the schedule's own crash; a typed
                    // read-only shed is the simulator's to account for.
                    let mut on_done = |_: &Request, _: u32, c: &Completion| {
                        match c.result {
                            Ok(_) | Err(Rejected::ReadOnly) => {}
                            Err(Rejected::Fault(PcmError::PowerLost)) => died = true,
                            Err(e) => panic!("unexpected rejection {e:?}"),
                        }
                        false
                    };
                    let feed = Feed::batches(2);
                    let (run, _) = drive(&build, &reqs, feed, &sched, &mut on_done, &mut |_| {});
                    let case = format!("{:?}", (at_step, mode, &media, cut_after));
                    assert_eq!(run.lost, 0, "{case}: an acknowledged write was lost");
                    assert!(
                        run.equivalent || run.read_only,
                        "{case}: diverged from never-faulted"
                    );
                    cases += 1;
                    *crashed.entry(mode.name()).or_default() += u64::from(died);
                    if let Some(p) = media.as_ref().filter(|_| run.media_fired) {
                        *faulted.entry(p.kind.name()).or_default() += 1;
                    }
                    read_only += u64::from(run.read_only);
                }
            }
        }
    }
    eprintln!(
        "composed sweep: {cases} schedules ({steps} crash steps), power losses by mode \
         {crashed:?}, media faults fired by kind {faulted:?}, {read_only} read-only \
         degradations, {:.2?}",
        started.elapsed()
    );
    assert!(crashed.values().all(|&n| n > 0), "a crash mode never fired");
    assert_eq!(faulted.len(), 6, "a media fault kind never fired");
    assert!(read_only > 0, "read-only degradation never happened");
}
