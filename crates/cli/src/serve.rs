//! `experiments serve` — chaos replay through the batched serving
//! front-end (`srbsg-serve`), a preset of the fault simulator
//! ([`crate::faultsim`]) with no injected power or storage faults.
//!
//! Eight Security-RBSG banks, three of them deliberately hostile:
//!
//! * **bank 1 (faulty)** — elevated transient write-failure rate with a
//!   weak device-level retry ladder, plus periodic arrival bursts aimed at
//!   it, so the front-end's bounded queues and retry/backoff both fire;
//! * **bank 2 (slow)** — every device latency 6×, so sustained load blows
//!   deadlines and the front-end sheds it as `DeadlineExceeded`;
//! * **bank 5 (dying)** — low endurance and a tiny spare pool, hammered by
//!   a mid-trace hot-spot, so spare pressure crosses the quarantine
//!   threshold while the trace is still running.
//!
//! Three replays share the table and CSV (`mode` column): the chaos trace
//! **open-loop** (a rejected request is simply lost, as in the original
//! harness), the chaos trace **closed-loop** (a client that resubmits
//! `QueueFull`-rejected requests at the head of the next batch, up to
//! [`RESUBMIT_CAP`] deferrals, then drops them — the CSV distinguishes
//! requests merely *deferred* from those finally *dropped*), and a
//! **benign** control: one Zipf workload sharded across the banks with
//! per-bank `shard_seed` streams, exactly as the sharded trace runner
//! splits it, with no bursts and no hot-spot.
//!
//! The banks run the server's own stack ([`srbsg_server::ServerScheme`]:
//! journaled Security RBSG) behind the plain, non-crashing write path.
//! After each replay, the simulator's ledger audits every address whose last
//! device-touching write was acknowledged by reading the line back:
//! `lost_acked` must be zero — acknowledgment means the data is on the
//! device, whatever the chaos. The replays, the table, and
//! `results/serve.csv` are byte-identical for any `--jobs N`.

use crate::faultsim::{assert_contract, drive, Feed, Run, Schedule, Sim};
use crate::table::Table;
use crate::Opts;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use srbsg_core::{SecurityRbsg, SecurityRbsgConfig};
use srbsg_pcm::{FaultConfig, LineData, MemoryController, MultiBankSystem, Ns, TimingModel};
use srbsg_persist::Journaled;
use srbsg_serve::{
    percentile_ns, Completion, FrontEnd, Op, Rejected, Request, ServeConfig, ServeStats,
};
use srbsg_workloads::{shard_seed, TraceGenerator, WorkloadSpec};

const BANKS: usize = 8;
const FAULTY_BANK: usize = 1;
const SLOW_BANK: usize = 2;
const DYING_BANK: usize = 5;

/// How many times the closed-loop client re-queues a `QueueFull`-rejected
/// request before giving up on it.
const RESUBMIT_CAP: u32 = 3;

/// Outcome accumulators of one bank — or, at index `BANKS`, of all of
/// them — folded from completions in id order.
#[derive(Debug, Clone, Default)]
struct BankAcc {
    /// Final outcomes, one per request (a deferral is not final).
    stats: ServeStats,
    /// Closed loop only: `QueueFull` rejections converted into a
    /// resubmission in a later batch.
    deferred: u64,
    /// Closed loop only: requests abandoned after [`RESUBMIT_CAP`]
    /// deferrals (every drop is also a queue-full rejection).
    dropped: u64,
    latencies: Vec<Ns>,
}

impl BankAcc {
    /// Fold one completion of a request carried `tries` times before;
    /// returns whether the closed-loop client re-queues it.
    fn note(&mut self, tries: u32, c: &Completion, closed_loop: bool) -> bool {
        let queue_full = matches!(c.result, Err(Rejected::QueueFull { .. }));
        if queue_full && closed_loop && tries < RESUBMIT_CAP {
            self.deferred += 1;
            return true;
        }
        // This harness never degrades the front-end to read-only.
        assert!(
            !matches!(c.result, Err(Rejected::ReadOnly)),
            "read-only mode is never enabled here"
        );
        self.dropped += u64::from(queue_full && closed_loop);
        self.stats.note(c);
        if let Ok(s) = &c.result {
            self.latencies.push(s.latency_ns);
        }
        false
    }
}

fn build_system(opts: &Opts, serve_cfg: ServeConfig) -> Sim<SecurityRbsg> {
    let width = if opts.quick { 8 } else { 10 };
    let healthy = 1_000_000_000;
    let dying = if opts.quick { 60 } else { 90 };
    let paper = TimingModel::PAPER;
    let slow = TimingModel {
        read_ns: paper.read_ns * 6,
        set_ns: paper.set_ns * 6,
        reset_ns: paper.reset_ns * 6,
        sram_ns: paper.sram_ns * 6,
        ..paper
    };
    let banks = (0..BANKS)
        .map(|b| {
            let scheme = SecurityRbsg::new(SecurityRbsgConfig {
                seed: 0xD00D_F00D ^ (b as u64),
                ..SecurityRbsgConfig::small(width, 2)
            });
            let faults = FaultConfig {
                endurance_cov: 0.1,
                transient_prob: 1e-4,
                max_retries: 2,
                retry_fail_ratio: 0.5,
                ecp_entries: 2,
                ecp_wear_step: 25,
                spare_lines: 16,
                seed: 0xFA17_5EED ^ ((b as u64) << 8),
                ..FaultConfig::default()
            };
            let (endurance, timing, faults) = match b {
                FAULTY_BANK => (
                    healthy,
                    paper,
                    FaultConfig {
                        transient_prob: 0.05,
                        max_retries: 1,
                        retry_fail_ratio: 0.9,
                        ..faults
                    },
                ),
                SLOW_BANK => (healthy, slow, faults),
                DYING_BANK => (
                    dying,
                    paper,
                    FaultConfig {
                        endurance_cov: 0.15,
                        ecp_entries: 1,
                        spare_lines: 4,
                        ..faults
                    },
                ),
                _ => (healthy, paper, faults),
            };
            MemoryController::with_faults(Journaled::new(scheme), endurance, timing, faults)
        })
        .collect();
    FrontEnd::new(MultiBankSystem::from_controllers(banks), serve_cfg)
}

/// The chaos schedule: a uniform read/write mix with recurring arrival
/// bursts at the faulty bank and a mid-trace hot-spot on the dying bank.
fn chaos_trace(n: usize, system_lines: u64, batch: usize) -> Vec<Request> {
    let lines_per_bank = system_lines / BANKS as u64;
    let hot: Vec<u64> = (0..4)
        .map(|k| k * BANKS as u64 + DYING_BANK as u64)
        .collect();
    let mut rng = SmallRng::seed_from_u64(0x5E4E_CA05);
    let mut arrival: Ns = 0;
    let mut reqs = Vec::with_capacity(n);
    for i in 0..n {
        arrival += rng.random_range(50u64..250) as Ns;
        let batch_idx = i / batch;
        let in_burst = batch_idx % 8 == 4;
        let in_hotspot = i >= n / 3 && i < 2 * n / 3;
        let la = if in_burst && rng.random_bool(0.7) {
            // Burst: pile onto the faulty bank until its queue overflows.
            rng.random_range(0..lines_per_bank) * BANKS as u64 + FAULTY_BANK as u64
        } else if in_hotspot && rng.random_bool(0.33) {
            // Hot-spot: hammer four lines of the dying bank.
            hot[rng.random_range(0usize..hot.len())]
        } else {
            rng.random_range(0..system_lines)
        };
        let op = if rng.random_bool(0.55) {
            Op::Write(LineData::Mixed(
                rng.random_range(0u64..u32::MAX as u64) as u32
            ))
        } else {
            Op::Read
        };
        reqs.push(Request {
            la,
            op,
            arrival_ns: arrival,
            deadline_ns: arrival + 60_000,
        });
    }
    reqs
}

/// The benign schedule: one logical Zipf workload sharded across the banks
/// the same way `ShardedTraceRunner` does it — an independent stream per
/// bank keyed by [`shard_seed`], round-robin interleaved into arrivals —
/// with no bursts and no hot-spot. The control group for the chaos rows.
fn benign_trace(n: usize, system_lines: u64) -> Vec<Request> {
    let lines_per_bank = system_lines / BANKS as u64;
    let spec = WorkloadSpec::Zipf {
        s: 1.1,
        write_ratio: 0.55,
        mean_gap: 100,
    };
    let mut gens: Vec<_> = (0..BANKS)
        .map(|b| spec.build(lines_per_bank, shard_seed(0xBE4169, b)))
        .collect();
    let mut arrival: Ns = 0;
    let mut reqs = Vec::with_capacity(n);
    for i in 0..n {
        let b = i % BANKS;
        let a = gens[b].next_access();
        arrival += (50 + a.gap_cycles) as Ns;
        let la = (a.addr % lines_per_bank) * BANKS as u64 + b as u64;
        let op = if a.is_write {
            Op::Write(LineData::Mixed(i as u32))
        } else {
            Op::Read
        };
        reqs.push(Request {
            la,
            op,
            arrival_ns: arrival,
            deadline_ns: arrival + 60_000,
        });
    }
    reqs
}

/// One full replay of a trace through a freshly built system: per-bank
/// accumulators (the total at index `BANKS`), the simulator's run, and the
/// final front-end.
struct Replay {
    acc: Vec<BankAcc>,
    run: Run,
    fe: Sim<SecurityRbsg>,
}

impl Replay {
    fn quarantined_at(&self, bank: usize) -> Option<Ns> {
        let events = self.fe.quarantine_events();
        events.iter().find(|e| e.bank == bank).map(|e| e.at_ns)
    }
}

fn replay(
    opts: &Opts,
    serve_cfg: ServeConfig,
    batch: usize,
    closed_loop: bool,
    benign: bool,
) -> Replay {
    let n = if opts.quick { 24_000 } else { 96_000 };
    let build = || build_system(opts, serve_cfg);
    let lines = build().system().logical_lines();
    let reqs = if benign {
        benign_trace(n, lines)
    } else {
        chaos_trace(n, lines, batch)
    };
    let mut acc: Vec<BankAcc> = vec![BankAcc::default(); BANKS + 1];
    // Closed loop: `QueueFull` rejects rejoin the next batch, re-stamped to
    // arrive with it (their original deadline is long blown).
    let feed = Feed {
        jobs: opts.jobs,
        restamp: Some(60_000),
        ..Feed::batches(batch)
    };
    let mut on_done = |req: &Request, tries: u32, c: &Completion| {
        let carry = acc[(req.la % BANKS as u64) as usize].note(tries, c, closed_loop);
        acc[BANKS].note(tries, c, closed_loop);
        carry
    };
    let sched = Schedule::default();
    let (run, fe) = drive(&build, &reqs, feed, &sched, &mut on_done, &mut |_| {});
    Replay { acc, run, fe }
}

pub fn run(opts: &Opts) {
    let batch = 256;
    let serve_cfg = ServeConfig {
        queue_depth: 32,
        max_retries: 3,
        backoff_base_ns: 500,
        backoff_cap_ns: 16_000,
        backoff_seed: 0x5E4E_5EED,
        quarantine_spare_frac: 0.5,
    };
    let open = replay(opts, serve_cfg, batch, false, false);
    let closed = replay(opts, serve_cfg, batch, true, false);
    let benign = replay(opts, serve_cfg, batch, false, true);

    let mut t = Table::keyed(&format!(
        "Chaos replay through the serving front-end ({} requests, batch {batch}, \
         queue {}, {} front-end retries, closed loop re-queues QueueFull up to {} times)",
        open.acc[BANKS].stats.submitted, serve_cfg.queue_depth, serve_cfg.max_retries, RESUBMIT_CAP
    ));
    let role = |b: usize| match b {
        FAULTY_BANK => "faulty",
        SLOW_BANK => "slow",
        DYING_BANK => "dying",
        BANKS => "-",
        _ => "healthy",
    };
    let modes = [("open", &open), ("closed", &closed), ("benign", &benign)];
    for (mode, r) in modes {
        for (b, a) in r.acc.iter().enumerate() {
            let total = b == BANKS;
            let mut lat = a.latencies.clone();
            lat.sort_unstable();
            let quarantined = r.quarantined_at(b).map_or("-".into(), |ns| ns.to_string());
            let lost = if total {
                r.run.lost.to_string()
            } else {
                "-".into()
            };
            t.row_keyed(vec![
                ("mode", mode.to_string()),
                ("bank", if total { "TOTAL".into() } else { b.to_string() }),
                ("role", role(b).to_string()),
                ("submitted", a.stats.submitted.to_string()),
                ("reads", a.stats.served_reads.to_string()),
                ("writes", a.stats.served_writes.to_string()),
                ("retries", a.stats.retries.to_string()),
                ("rej_queue", a.stats.rejected_queue_full.to_string()),
                ("rej_deadline", a.stats.rejected_deadline.to_string()),
                ("rej_quarantine", a.stats.rejected_quarantine.to_string()),
                ("rej_retry", a.stats.rejected_retries.to_string()),
                ("rej_fault", a.stats.rejected_fault.to_string()),
                ("deferred", a.deferred.to_string()),
                ("dropped", a.dropped.to_string()),
                ("rej_rate", format!("{:.4}", a.stats.rejection_rate())),
                ("p50_ns", percentile_ns(&lat, 50.0).to_string()),
                ("p99_ns", percentile_ns(&lat, 99.0).to_string()),
                ("p999_ns", percentile_ns(&lat, 99.9).to_string()),
                ("quarantined_at_ns", quarantined),
                ("lost_acked", lost),
            ]);
        }
    }
    t.print();
    t.write_csv(&opts.out_dir, "serve");
    let totals = [&open, &closed, &benign].map(|r| &r.acc[BANKS]);

    println!(
        "\nopen loop: audited {} acknowledged last-writers, lost {}; \
         closed loop: audited {}, lost {}, deferred {}, dropped {}; \
         benign sharded workload: audited {}, lost {}, rejected {}",
        open.run.audited,
        open.run.lost,
        closed.run.audited,
        closed.run.lost,
        totals[1].deferred,
        totals[1].dropped,
        benign.run.audited,
        benign.run.lost,
        totals[2].stats.rejected()
    );

    // The acceptance bars for this experiment: chaos must actually bite
    // (something rejected, something retried, the dying bank walled off),
    // no acknowledged write may be lost in either mode, and the closed
    // loop must actually convert queue-full rejections into deferrals —
    // ending with strictly fewer requests lost to full queues.
    assert_contract(modes.map(|(_, r)| &r.run));
    assert!(
        totals[0].stats.rejected() > 0,
        "chaos schedule produced no rejections"
    );
    assert!(
        totals[0].stats.retries > 0,
        "chaos schedule produced no retries"
    );
    assert!(
        open.quarantined_at(DYING_BANK).is_some(),
        "the dying bank never hit the quarantine threshold"
    );
    assert!(
        totals[1].deferred > 0,
        "closed loop never deferred anything"
    );
    assert!(
        totals[1].stats.rejected_queue_full < totals[0].stats.rejected_queue_full,
        "closed loop did not reduce queue-full losses ({} vs {})",
        totals[1].stats.rejected_queue_full,
        totals[0].stats.rejected_queue_full
    );
    assert!(
        totals[2].stats.rejected_queue_full == 0,
        "benign sharded traffic should never overflow a queue ({} rejections)",
        totals[2].stats.rejected_queue_full
    );
}
