//! One deterministic fault simulator. The `crash`, `crashfuzz`,
//! `storagefuzz` and `serve` experiments are presets over it: each keeps
//! its own parameter draws, table and acceptance bars, and all of them
//! serve through [`drive`] — one batch loop over the [`FrontEnd`], one
//! [`Ledger`] of acknowledged writes, one restart path per [`Restart`]
//! kind, and one equivalence check against a never-faulted twin.
//!
//! A [`Schedule`] composes the fault sources of a run: a power-failure
//! [`CrashPlan`] on one bank's journal, a storage [`FaultPlan`] on the
//! shelf's media, and a scheduled power cut after a given batch. The
//! restart kind says how a dead system comes back: journal recovery of
//! the dead bank in place (plain or re-keyed) while the survivors keep
//! serving, or — durable-before-ack — a reload of every bank from the
//! shelf through the server's own [`restore`].
//!
//! **The ledger rule.** A write enters the ledger when it is
//! acknowledged: at completion, or on a shelf-backed run once the save
//! covering its batch lands. A write whose outcome is indeterminate
//! leaves it ([`Ledger::forget`]): a rejected write that still touched
//! the device, or a batch whose save degraded the shelf to read-only.
//! Rejections the preset carries over are resubmitted at the head of the
//! next batch, so every address sees its writes in stream order. After
//! every journal recovery and at the end of the run, every ledgered
//! address is read back; a mismatch is a lost acknowledged write. (A
//! shelf reload is audited only at the end: a failed save may have
//! committed one copy before dying, so the reloaded image can run ahead of
//! the ledger until the batch is resubmitted.)
//!
//! Everything is seeded and single-owner, so a run is a pure function of
//! its inputs for any `jobs` count.

use rand::rngs::StdRng;
use rand::RngExt;
use srbsg_core::{SecurityRbsg, SecurityRbsgConfig};
use srbsg_pcm::{LineData, MemoryController, MultiBankSystem, Ns, PcmError, TimingModel};
use srbsg_persist::{
    CheckpointPolicy, CrashPlan, FaultPlan, FaultyMedia, Journaled, JournaledScheme, Media,
    MemMedia, RecoveryReport, SharedMedia,
};
use srbsg_serve::{Completion, FrontEnd, Op, Rejected, Request, ServeConfig};
use srbsg_server::{capture, restore, save_with_healing, DiskShelf, RetryPolicy, SaveOutcome};
use std::collections::{BTreeMap, HashSet};

#[cfg(test)]
mod tests;

/// A serving front-end over journaled banks: the stack every preset runs.
pub type Sim<S> = FrontEnd<Journaled<S>>;

/// The last acknowledged value of every address.
#[derive(Debug, Default)]
pub struct Ledger {
    last: BTreeMap<u64, LineData>,
    writes: u64,
}

impl Ledger {
    /// Record an acknowledged write.
    pub fn ack(&mut self, la: u64, data: LineData) {
        self.last.insert(la, data);
        self.writes += 1;
    }

    /// Take `la` out of the audit: its last write's outcome is
    /// indeterminate.
    pub fn forget(&mut self, la: u64) {
        self.last.remove(&la);
    }

    /// Acknowledged writes so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Read every ledgered address back: `(audited addresses, lost)`.
    pub fn audit<S: JournaledScheme + Send>(&self, fe: &mut Sim<S>) -> (u64, u64) {
        let lost = self
            .last
            .iter()
            .filter(|&(&la, &data)| read(fe, la) != data)
            .count();
        (self.last.len() as u64, lost as u64)
    }
}

/// How a dead system comes back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Restart {
    /// Recover the dead bank in place from its own journal (plain
    /// recovery) while the survivors keep serving.
    #[default]
    Journal,
    /// [`Restart::Journal`] with re-keyed recovery under the given seed.
    Rekeyed(u64),
    /// Save the whole device to a shelf on fault-injecting media after
    /// every batch (the shelf seed given) and acknowledge only then; on
    /// any power loss reload every bank from the shelf.
    Shelf(u64),
}

/// The fault sources of one run.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    /// A power-failure plan armed on one bank's journal; it stays armed
    /// across shelf reloads until it fires.
    pub crash: Option<(usize, CrashPlan)>,
    /// A storage fault armed on the shelf media once the fresh-boot
    /// commit (2 writes, 2 renames, 4 syncs) has run fault-free; `at_op`
    /// counts the medium's operations from its creation.
    pub media: Option<FaultPlan>,
    /// Cut the shelf's power after this (0-based) batch's save lands.
    pub cut_after: Option<u64>,
    /// How a dead system comes back.
    pub restart: Restart,
}

/// How requests are fed to the front-end.
#[derive(Debug, Clone, Copy)]
pub struct Feed {
    /// Requests per submitted batch (carried requests come on top).
    pub batch: usize,
    /// Bank workers per batch.
    pub jobs: usize,
    /// Re-stamp carried requests to arrive with the batch they rejoin,
    /// with this deadline budget; `None` keeps their original stamps.
    pub restamp: Option<Ns>,
}

impl Feed {
    /// `batch` requests per batch on one worker, carried requests keeping
    /// their stamps.
    pub fn batches(batch: usize) -> Self {
        Self {
            batch,
            jobs: 1,
            restamp: None,
        }
    }
}

/// One journal recovery.
#[derive(Debug, Clone)]
pub struct Recovery {
    /// The batch the bank died in.
    pub batch: u64,
    /// What recovery found and did.
    pub report: RecoveryReport,
    /// Checkpoints the bank had installed before it died.
    pub ckpts: u64,
    /// Whether the replay met the policy's SLO, `replayed <= max(K, 2)`.
    pub slo_ok: bool,
    /// Ledgered addresses read back right after the recovery.
    pub audited: u64,
    /// The recovered bank's LA → PA mapping (checked injective).
    pub mapping: Vec<u64>,
}

/// What one run did.
#[derive(Debug, Default)]
pub struct Run {
    /// The acknowledged writes.
    pub ledger: Ledger,
    /// Acknowledged writes that failed an audit.
    pub lost: u64,
    /// Addresses the final audit read back.
    pub audited: u64,
    /// Carried requests resubmitted in a later batch.
    pub resubmitted: u64,
    /// Journal recoveries, in order.
    pub recoveries: Vec<Recovery>,
    /// Shelf saves that landed, the fresh-boot commit included.
    pub saves: u64,
    /// Transient-retry attempts beyond the first that landed saves used.
    pub retried: u64,
    /// Shelf reloads (failed save, power loss, or scheduled cut).
    pub restarts: u64,
    /// Shelf copies the load scrub healed.
    pub healed: u64,
    /// Whether the shelf degraded the run to read-only.
    pub read_only: bool,
    /// Writes shed while read-only (typed [`Rejected::ReadOnly`]).
    pub shed: u64,
    /// Reads served while read-only.
    pub ro_reads: u64,
    /// Whether the media plan fired.
    pub media_fired: bool,
    /// Whether every line ends equal to the never-faulted twin's (never
    /// under read-only degradation). A schedule that can neither cut power
    /// nor fault the shelf injects nothing: the run is its own twin.
    pub equivalent: bool,
}

/// Serve `reqs` through a front-end from `build` under `sched`.
///
/// `on_done` sees every completion with its request and how often it was
/// carried before, and returns whether to carry the request into the next
/// batch. `on_batch` sees the front-end after every batch, before any
/// restart — so at the instant a bank loses power, it sees the crash as
/// it happened. Returns the run and the final front-end.
pub fn drive<S: JournaledScheme + Send>(
    build: &dyn Fn() -> Sim<S>,
    reqs: &[Request],
    feed: Feed,
    sched: &Schedule,
    on_done: &mut dyn FnMut(&Request, u32, &Completion) -> bool,
    on_batch: &mut dyn FnMut(&Sim<S>),
) -> (Run, Sim<S>) {
    let mut fe = build();
    // The crash plan stays armed until it fires, across shelf reloads.
    let mut armed = sched.crash;
    arm(&mut fe, armed);
    let mut run = Run::default();
    let mut shelf = match sched.restart {
        Restart::Shelf(seed) => Some(Shelf::boot(&fe, seed, sched.media.clone(), &mut run)),
        Restart::Journal | Restart::Rekeyed(_) => None,
    };
    let mut carry: Vec<(Request, u32)> = Vec::new();
    let mut chunks = reqs.chunks(feed.batch);
    let mut last_arrival: Ns = 0;
    for bi in 0u64.. {
        let fresh = chunks.next();
        if fresh.is_none() && carry.is_empty() {
            break;
        }
        let fresh = fresh.unwrap_or(&[]);
        let mut submit = std::mem::take(&mut carry);
        if let Some(budget) = feed.restamp {
            let base = fresh
                .first()
                .map_or(last_arrival + budget, |r| r.arrival_ns);
            last_arrival = fresh.last().map_or(last_arrival + budget, |r| r.arrival_ns);
            for (req, _) in &mut submit {
                req.arrival_ns = base;
                req.deadline_ns = base + budget;
            }
        }
        run.resubmitted += submit.len() as u64;
        submit.extend(fresh.iter().map(|r| (*r, 0)));
        let batch = submit.iter().map(|(r, _)| *r).collect();
        let done = if sched.crash.is_some() {
            fe.submit_batch_crashable(batch, feed.jobs)
        } else {
            fe.submit_batch(batch, feed.jobs)
        };
        let read_only = fe.read_only();
        let mut pending = Vec::new();
        for ((req, tries), c) in submit.iter().zip(&done) {
            match (&c.result, req.op) {
                (Err(Rejected::ReadOnly), op) => {
                    let write = matches!(op, Op::Write(_));
                    assert!(read_only && write, "spurious read-only shed");
                    run.shed += 1;
                }
                (Ok(_), Op::Read) => run.ro_reads += u64::from(read_only),
                _ => {}
            }
            if on_done(req, *tries, c) {
                carry.push((*req, tries + 1));
            }
            if let Op::Write(data) = req.op {
                if c.result.is_ok() {
                    pending.push((req.la, data));
                } else if c.touched_device(true) {
                    run.ledger.forget(req.la);
                }
            }
        }
        on_batch(&fe);
        let dead = fe.crashed_banks();
        if !dead.is_empty() {
            assert_eq!(
                dead,
                sched.crash.map(|(b, _)| b).as_slice(),
                "wrong bank died"
            );
            armed = None;
        }
        let Some(sh) = shelf.as_mut() else {
            for (la, data) in pending {
                run.ledger.ack(la, data);
            }
            if let Some(&b) = dead.first() {
                fe = recover_bank(fe, b, sched.restart, bi, &mut run);
            }
            continue;
        };
        if run.read_only {
            // Degraded: reads keep serving, writes shed at admission, and
            // nothing touches the full medium.
            assert!(pending.is_empty(), "write admitted read-only");
            continue;
        }
        // A bank that lost power took the whole device down: nothing of
        // this batch can be saved.
        let acked = run.ledger.writes() + pending.len() as u64;
        match dead.is_empty().then(|| sh.save(&fe, acked)) {
            Some(SaveOutcome::Saved { attempts }) => {
                run.retried += u64::from(attempts - 1);
                run.saves += 1;
                sh.save_seq += 1;
                for (la, data) in pending {
                    run.ledger.ack(la, data);
                }
                // After a clean save nothing is in flight: the cut
                // materializes a lying fsync and at-rest bit rot.
                if sched.cut_after == Some(bi) {
                    fe = sh.reload(&mut run, armed);
                }
            }
            Some(SaveOutcome::ReadOnly(e)) => {
                assert!(e.is_no_space(), "mistyped read-only cause");
                // The batch reached the device but was never acked.
                for (la, _) in pending {
                    run.ledger.forget(la);
                }
                run.read_only = true;
                fe.set_read_only(true);
            }
            Some(SaveOutcome::Failed(_)) | None => {
                // Crash-restart: the device rolls back to the last landed
                // save and the batch's writes resubmit — unless the
                // restart degraded to read-only, when they never can and a
                // half-committed copy may already hold them.
                fe = sh.reload(&mut run, armed);
                if run.read_only {
                    for (la, _) in pending {
                        run.ledger.forget(la);
                    }
                } else {
                    carry = submit
                        .iter()
                        .filter(|(r, _)| matches!(r.op, Op::Write(_)))
                        .map(|&(r, tries)| (r, tries + 1))
                        .collect();
                }
            }
        }
    }

    run.media_fired = shelf.is_some_and(|sh| sh.media.with(|m| m.stats()).fired > 0);
    let (audited, lost) = run.ledger.audit(&mut fe);
    run.audited = audited;
    run.lost += lost;
    run.equivalent = !run.read_only;
    if sched.crash.is_some() || matches!(sched.restart, Restart::Shelf(_)) {
        let mut twin = build();
        for chunk in reqs.chunks(feed.batch) {
            for c in twin.submit_batch(chunk.to_vec(), 1) {
                assert!(c.result.is_ok(), "reference run rejected a request");
            }
        }
        let lines = fe.system().logical_lines();
        run.equivalent &= (0..lines).all(|la| read(&mut fe, la) == read(&mut twin, la));
    }
    (run, fe)
}

/// Arm `plan` on its bank; after a shelf reload its step count starts
/// afresh on the restored bank.
fn arm<S: JournaledScheme + Send>(fe: &mut Sim<S>, plan: Option<(usize, CrashPlan)>) {
    if let Some((b, plan)) = plan {
        fe.system_mut()
            .bank_mut(b)
            .scheme_mut()
            .set_crash_plan(plan);
    }
}

fn read<S: JournaledScheme + Send>(fe: &mut Sim<S>, la: u64) -> LineData {
    fe.system_mut().try_read(la).expect("read").0
}

/// Recover bank `b` in place from its own journal, audit the ledger
/// across the cut, and re-front the system.
fn recover_bank<S: JournaledScheme + Send>(
    fe: Sim<S>,
    b: usize,
    restart: Restart,
    batch: u64,
    run: &mut Run,
) -> Sim<S> {
    assert!(run.recoveries.is_empty(), "bank died twice");
    let cfg = *fe.config();
    let mut banks = fe.into_system().into_controllers();
    let (jw, mut bank) = banks.remove(b).into_parts();
    let (ckpts, policy) = (jw.checkpoints_installed(), jw.checkpoint_policy());
    let store = jw.into_store();
    let (jw, report) = match restart {
        Restart::Rekeyed(seed) => {
            Journaled::<S>::recover_rekeyed_with_policy(&store, &mut bank, seed, policy)
        }
        _ => Journaled::<S>::recover_with_policy(&store, &mut bank, policy),
    }
    .unwrap_or_else(|e| panic!("recovery failed: {e}"));
    let mc = MemoryController::from_bank(jw, bank);
    let mapping: Vec<u64> = (0..mc.logical_lines()).map(|la| mc.translate(la)).collect();
    let distinct = mapping.iter().collect::<HashSet<_>>().len();
    assert_eq!(
        distinct,
        mapping.len(),
        "mapping not injective after recovery"
    );
    banks.insert(b, mc);
    let mut fe = FrontEnd::new(MultiBankSystem::from_controllers(banks), cfg);
    let (audited, lost) = run.ledger.audit(&mut fe);
    run.lost += lost;
    run.recoveries.push(Recovery {
        batch,
        report,
        ckpts,
        slo_ok: policy
            .slo_steps()
            .is_none_or(|slo| report.replayed_steps <= slo),
        audited,
        mapping,
    });
    fe
}

/// The durable shelf of a [`Restart::Shelf`] run, on fault-injecting
/// in-memory media, with the counters its next save commits.
struct Shelf {
    media: SharedMedia<FaultyMedia<MemMedia>>,
    disk: DiskShelf,
    retry: RetryPolicy,
    seed: u64,
    save_seq: u64,
    generation: u64,
    policy: CheckpointPolicy,
    serve: ServeConfig,
}

impl Shelf {
    /// Commit the fresh device fault-free, then arm `plan`.
    fn boot<S: JournaledScheme + Send>(
        fe: &Sim<S>,
        seed: u64,
        plan: Option<FaultPlan>,
        run: &mut Run,
    ) -> Self {
        let media = SharedMedia::new(FaultyMedia::new(MemMedia::new()));
        let mut disk = DiskShelf::with_media(Box::new(media.clone()));
        disk.save(&capture(fe, 1, 0, seed, 0))
            .expect("fresh-boot save cannot fault");
        run.saves = 1;
        if let Some(p) = plan {
            media.with(|m| m.set_plan(p));
        }
        Self {
            media,
            disk,
            retry: RetryPolicy {
                sleep: false,
                ..RetryPolicy::default()
            },
            seed,
            save_seq: 1,
            generation: 0,
            policy: fe.system().banks()[0].scheme().checkpoint_policy(),
            serve: *fe.config(),
        }
    }

    fn save<S: JournaledScheme + Send>(&mut self, fe: &Sim<S>, acked: u64) -> SaveOutcome {
        let snap = capture(fe, self.save_seq + 1, self.generation, self.seed, acked);
        save_with_healing(&mut self.disk, &snap, &self.retry)
    }

    /// Power-cut the medium, reload every bank from the shelf, and commit
    /// the new generation — repeating the cycle while that commit is the
    /// save the armed fault kills (the single-fault model ends the loop).
    /// A crash plan that has not fired yet is re-armed on the reloaded
    /// device.
    fn reload<S: JournaledScheme + Send>(
        &mut self,
        run: &mut Run,
        armed: Option<(usize, CrashPlan)>,
    ) -> Sim<S> {
        loop {
            run.restarts += 1;
            self.media.with(|m| m.power_cut());
            let (state, scrub) = self
                .disk
                .load()
                .unwrap_or_else(|e| panic!("restart load failed: {e}"))
                .expect("shelf must hold state after a committed save");
            // A failed save may have committed one copy before dying, so
            // the image can run ahead of the ledger — never behind it.
            assert!(
                state.acked_writes >= run.ledger.writes(),
                "recovered shelf lost acked count"
            );
            run.healed += u64::from(scrub.healed_slot.is_some());
            let (mut fe, boot) = restore(&state, self.policy, self.serve, self.seed)
                .unwrap_or_else(|e| panic!("{e}"));
            arm(&mut fe, armed);
            let commit = capture(
                &fe,
                boot.save_seq,
                boot.generation,
                self.seed,
                run.ledger.writes(),
            );
            match save_with_healing(&mut self.disk, &commit, &self.retry) {
                SaveOutcome::Saved { attempts } => {
                    run.retried += u64::from(attempts - 1);
                    run.saves += 1;
                    (self.save_seq, self.generation) = (boot.save_seq, boot.generation);
                    return fe;
                }
                SaveOutcome::ReadOnly(e) => {
                    assert!(e.is_no_space(), "mistyped read-only cause");
                    // The shelf still holds the pre-cut image; the device
                    // serves reads and sheds writes from here on.
                    (self.save_seq, self.generation) = (state.save_seq, state.generation);
                    run.read_only = true;
                    fe.set_read_only(true);
                    return fe;
                }
                SaveOutcome::Failed(_) => {}
            }
        }
    }
}

/// The simulator's contract, asserted by each preset once its table is
/// written: no acknowledged write was lost, every run ends equal to its
/// never-faulted twin unless the shelf degraded it to read-only, and every
/// recovery met its replay SLO.
pub fn assert_contract<'a>(runs: impl IntoIterator<Item = &'a Run>) {
    for run in runs {
        assert_eq!(run.lost, 0, "an acknowledged write was lost");
        assert!(
            run.equivalent || run.read_only,
            "a recovered run diverged from never-faulted"
        );
        let slo_ok = run.recoveries.iter().all(|r| r.slo_ok);
        assert!(slo_ok, "a recovery replayed more than the SLO");
    }
}

/// The fuzz presets' serving policy: deep queues, no deadlines in play,
/// no quarantine — every rejection is an injected fault.
pub const FUZZ_SERVE: ServeConfig = ServeConfig {
    queue_depth: 512,
    max_retries: 1,
    backoff_base_ns: 500,
    backoff_cap_ns: 16_000,
    backoff_seed: 0x5E4E_5EED,
    quarantine_spare_frac: 0.0,
};

/// Journaled banks of unbounded endurance behind a [`FUZZ_SERVE`]
/// front-end.
pub fn journaled<S: JournaledScheme + Send>(schemes: Vec<S>, policy: CheckpointPolicy) -> Sim<S> {
    let banks = schemes
        .into_iter()
        .map(|s| {
            MemoryController::new(
                Journaled::with_policy(s, policy),
                u64::MAX,
                TimingModel::PAPER,
            )
        })
        .collect();
    FrontEnd::new(MultiBankSystem::from_controllers(banks), FUZZ_SERVE)
}

/// The fuzz presets' device: three small Security RBSG banks, bank `b`
/// keyed `seed ^ b`.
pub fn rbsg_banks(seed: u64, policy: CheckpointPolicy) -> Sim<SecurityRbsg> {
    let schemes = (0..3)
        .map(|b| {
            SecurityRbsg::new(SecurityRbsgConfig {
                seed: seed ^ b,
                ..SecurityRbsgConfig::small(4, 2)
            })
        })
        .collect();
    journaled(schemes, policy)
}

/// A random request stream over all banks: uniform addresses, 60/40
/// write/read, no meaningful deadlines.
pub fn fuzz_trace(rng: &mut StdRng, lines: u64, n: usize) -> Vec<Request> {
    let mut arrival: Ns = 0;
    (0..n)
        .map(|i| {
            arrival += (100 + rng.random::<u64>() % 200) as Ns;
            let la = rng.random::<u64>() % lines;
            let op = if rng.random::<u32>() % 5 < 3 {
                Op::Write(LineData::Mixed(i as u32 + 1))
            } else {
                Op::Read
            };
            Request {
                la,
                op,
                arrival_ns: arrival,
                deadline_ns: Ns::MAX,
            }
        })
        .collect()
}

/// The crash presets' completion rule: a write the power cut aborted is
/// reissued after the restart (a read is simply lost); any other
/// rejection is a harness failure.
pub fn reissue_power_lost(req: &Request, _: u32, c: &Completion) -> bool {
    match c.result {
        Ok(_) => false,
        Err(Rejected::Fault(PcmError::PowerLost)) => matches!(req.op, Op::Write(_)),
        Err(e) => panic!("unexpected rejection {e:?}"),
    }
}
