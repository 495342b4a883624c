//! Bank-sharded trace execution: drive every bank of a
//! [`MultiBankSystem`] on its own worker, byte-identical to the serial
//! round-robin drive for any worker count.
//!
//! Banks share no state (each has its own scheme instance, clock, and
//! fault stream — §IV-A), so the only thing that could make a parallel
//! drive diverge from a serial one is the *order of accesses within one
//! bank*. The runner pins that order by construction: each bank gets an
//! independent generator seeded by [`shard_seed`], and the serial
//! reference drive ([`ShardedTraceRunner::run_sequential`]) interleaves
//! exactly those per-bank streams round-robin — so the per-bank access
//! subsequences are identical and every device counter, clock, and wear
//! histogram lands on the same value.

use crate::shard::shard_seed;
use crate::TraceGenerator;
use srbsg_pcm::{
    LineData, MemoryController, MultiBankSystem, Ns, SystemDegradationReport, WearAccumulator,
    WearLeveler,
};

/// Configuration of a sharded run.
#[derive(Debug, Clone, Copy)]
pub struct ShardedTraceRunner {
    /// Master seed; each bank derives its own stream via [`shard_seed`].
    pub master_seed: u64,
    /// Trace events to drive through each bank (a failed bank stops
    /// early and consumes no further events).
    pub events_per_bank: u64,
    /// Curve x-positions of the merged wear accumulator.
    pub curve_points: usize,
    /// Gini region cap of the merged wear accumulator.
    pub max_regions: u64,
}

/// Per-bank outcome of a sharded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOutcome {
    /// Bank index.
    pub bank: usize,
    /// Trace events consumed (≤ `events_per_bank`; a failed bank stops).
    pub accesses: u64,
    /// Reads served.
    pub reads: u64,
    /// Demand writes issued (including the failing one).
    pub writes: u64,
    /// Demand-write ordinal at which the bank failed, if it did.
    pub failed_at_write: Option<u64>,
    /// The bank's clock after its shard completed.
    pub now_ns: Ns,
}

/// Result of a sharded (or reference-sequential) run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedRunReport {
    /// Per-bank outcomes, in bank order.
    pub outcomes: Vec<ShardOutcome>,
    /// Merged device wear over the bank-major global slot space
    /// (bank `b`'s physical slot `s` is global index
    /// `b·slots_per_bank + s`).
    pub wear: WearAccumulator,
    /// Per-bank degradation, aggregated by the system.
    pub degradation: SystemDegradationReport,
}

impl ShardedRunReport {
    /// Total demand writes across banks.
    pub fn demand_writes(&self) -> u128 {
        self.outcomes.iter().map(|o| o.writes as u128).sum()
    }

    /// Banks that failed during the run.
    pub fn failed_banks(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.failed_at_write.is_some())
            .count()
    }

    /// The furthest-ahead bank clock.
    pub fn max_bank_ns(&self) -> Ns {
        self.outcomes.iter().map(|o| o.now_ns).max().unwrap_or(0)
    }
}

/// Read-batch window for the shard drivers: how many consecutive read
/// events are accumulated into one lane-parallel
/// [`MemoryController::read_batch`] call. Overridable via the
/// `SRBSG_READ_BATCH` environment variable; `1` selects the scalar
/// per-event path. A malformed or out-of-range value (empty, garbage,
/// `0`) is a configuration error and panics with a diagnostic naming the
/// variable — it is never silently replaced by the default (see
/// [`crate::env`]).
fn read_batch_window() -> usize {
    crate::env::usize_knob_or("SRBSG_READ_BATCH", 1, 256)
}

/// Drive one bank's shard: reads and tagged writes, clock advanced by the
/// trace's compute gaps (1 GHz core — one cycle is one nanosecond), until
/// the event budget runs out or the bank fails.
///
/// Runs of consecutive reads (up to `window` of them) are serviced by one
/// batched translation. This is outcome-identical to the per-event loop
/// for any window: reads never mutate the mapping, and clock gaps and
/// read latencies are pure sums, so deferring `advance_clock` to the
/// flush point lands every counter on the same value (asserted by
/// `read_windows_are_outcome_identical` and the CI scalar-vs-batch CSV
/// diffs).
fn drive_bank_with_window<W: WearLeveler, T: TraceGenerator>(
    bank: usize,
    mc: &mut MemoryController<W>,
    trace: &mut T,
    events: u64,
    window: usize,
) -> ShardOutcome {
    let lines = mc.logical_lines();
    let mut tag: u32 = 0;
    let (mut accesses, mut reads, mut writes) = (0u64, 0u64, 0u64);
    let mut failed_at_write = None;
    let mut pending: Vec<u64> = Vec::with_capacity(window);
    let mut pending_gap: Ns = 0;
    let mut results: Vec<(LineData, Ns)> = Vec::with_capacity(window);
    macro_rules! flush_reads {
        () => {
            if !pending.is_empty() {
                mc.advance_clock(std::mem::take(&mut pending_gap));
                mc.read_batch(&pending, &mut results);
                pending.clear();
            }
        };
    }
    for _ in 0..events {
        let a = trace.next_access();
        accesses += 1;
        // Generators emit in-bank addresses; only a stray one pays a `%`.
        let addr = if a.addr < lines {
            a.addr
        } else {
            a.addr % lines
        };
        if a.is_write {
            flush_reads!();
            mc.advance_clock(a.gap_cycles as Ns);
            tag = tag.wrapping_add(1);
            writes += 1;
            if mc.write(addr, LineData::Mixed(tag)).failed {
                failed_at_write = Some(writes);
                break;
            }
        } else {
            reads += 1;
            if window == 1 {
                mc.advance_clock(a.gap_cycles as Ns);
                let _ = mc.read(addr);
            } else {
                pending_gap += a.gap_cycles as Ns;
                pending.push(addr);
                if pending.len() >= window {
                    flush_reads!();
                }
            }
        }
    }
    flush_reads!();
    ShardOutcome {
        bank,
        accesses,
        reads,
        writes,
        failed_at_write,
        now_ns: mc.now_ns(),
    }
}

/// [`drive_bank_with_window`] at the environment-selected window.
fn drive_bank<W: WearLeveler, T: TraceGenerator>(
    bank: usize,
    mc: &mut MemoryController<W>,
    trace: &mut T,
    events: u64,
) -> ShardOutcome {
    drive_bank_with_window(bank, mc, trace, events, read_batch_window())
}

impl ShardedTraceRunner {
    fn accumulator_shape<W: WearLeveler>(&self, system: &MultiBankSystem<W>) -> (u64, u64) {
        let slots_per_bank = system.banks()[0].scheme().physical_slots();
        assert!(
            system
                .banks()
                .iter()
                .all(|b| b.scheme().physical_slots() == slots_per_bank),
            "banks must expose uniform physical slots"
        );
        (slots_per_bank, slots_per_bank * system.bank_count() as u64)
    }

    /// Drive every bank's shard on up to `jobs` workers and fold the
    /// per-bank wear into one accumulator **in bank order**.
    ///
    /// `make_trace(bank, lines_per_bank, seed)` builds bank `bank`'s
    /// generator over *in-bank* addresses. The report is byte-identical
    /// to [`ShardedTraceRunner::run_sequential`] with the same system
    /// state and arguments, for any `jobs >= 1`.
    pub fn run<W, T, F>(
        &self,
        system: &mut MultiBankSystem<W>,
        make_trace: &F,
        jobs: usize,
    ) -> ShardedRunReport
    where
        W: WearLeveler + Send,
        T: TraceGenerator,
        F: Fn(usize, u64, u64) -> T + Sync,
    {
        let nbanks = system.bank_count();
        let lines_per_bank = system.banks()[0].logical_lines();
        let (slots_per_bank, total_slots) = self.accumulator_shape(system);
        let (master, events) = (self.master_seed, self.events_per_bank);
        let (points, max_regions) = (self.curve_points, self.max_regions);
        let items: Vec<(usize, &mut MemoryController<W>)> =
            system.banks_mut().iter_mut().enumerate().collect();
        let (outcomes, wear) = srbsg_parallel::par_fold(
            items,
            jobs,
            |(bank, mc)| {
                let mut trace = make_trace(bank, lines_per_bank, shard_seed(master, bank));
                let outcome = drive_bank(bank, mc, &mut trace, events);
                // Fixed-size digest per worker; the dense histogram stays
                // on the device.
                let mut acc = WearAccumulator::new(total_slots, points, max_regions);
                acc.add_slice(bank as u64 * slots_per_bank, mc.bank().wear());
                (outcome, acc)
            },
            (
                Vec::with_capacity(nbanks),
                WearAccumulator::new(total_slots, points, max_regions),
            ),
            |(mut outcomes, mut wear), (outcome, acc)| {
                wear.merge(&acc);
                outcomes.push(outcome);
                (outcomes, wear)
            },
        );
        ShardedRunReport {
            outcomes,
            wear,
            degradation: system.degradation_report(),
        }
    }

    /// Reference drive: the same per-bank streams interleaved round-robin
    /// through the system's front door ([`MultiBankSystem::write`] /
    /// [`MultiBankSystem::read`] on system addresses), strictly serial.
    ///
    /// Exists to *prove* the sharded runner right — its report must be
    /// bit-identical to [`ShardedTraceRunner::run`] — and as the
    /// small-scale fallback where spawning workers is not worth it.
    pub fn run_sequential<W, T, F>(
        &self,
        system: &mut MultiBankSystem<W>,
        make_trace: &F,
    ) -> ShardedRunReport
    where
        W: WearLeveler,
        T: TraceGenerator,
        F: Fn(usize, u64, u64) -> T,
    {
        let nbanks = system.bank_count();
        let lines_per_bank = system.banks()[0].logical_lines();
        let (slots_per_bank, total_slots) = self.accumulator_shape(system);
        let mut traces: Vec<T> = (0..nbanks)
            .map(|b| make_trace(b, lines_per_bank, shard_seed(self.master_seed, b)))
            .collect();
        let mut outcomes: Vec<ShardOutcome> = (0..nbanks)
            .map(|bank| ShardOutcome {
                bank,
                accesses: 0,
                reads: 0,
                writes: 0,
                failed_at_write: None,
                now_ns: 0,
            })
            .collect();
        let mut tags = vec![0u32; nbanks];
        for _ in 0..self.events_per_bank {
            for (b, trace) in traces.iter_mut().enumerate() {
                let o = &mut outcomes[b];
                if o.failed_at_write.is_some() {
                    // A failed bank consumes no further trace events —
                    // exactly like its sharded worker, which broke out.
                    continue;
                }
                let a = trace.next_access();
                o.accesses += 1;
                system.bank_mut(b).advance_clock(a.gap_cycles as Ns);
                let la = (a.addr % lines_per_bank) * nbanks as u64 + b as u64;
                if a.is_write {
                    tags[b] = tags[b].wrapping_add(1);
                    o.writes += 1;
                    if system.write(la, LineData::Mixed(tags[b])).failed {
                        o.failed_at_write = Some(o.writes);
                    }
                } else {
                    o.reads += 1;
                    let _ = system.read(la);
                }
            }
        }
        let mut wear = WearAccumulator::new(total_slots, self.curve_points, self.max_regions);
        for (b, mc) in system.banks().iter().enumerate() {
            outcomes[b].now_ns = mc.now_ns();
            wear.add_slice(b as u64 * slots_per_bank, mc.bank().wear());
        }
        ShardedRunReport {
            outcomes,
            wear,
            degradation: system.degradation_report(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadSpec;
    use srbsg_pcm::TimingModel;
    use srbsg_wearlevel::StartGap;

    fn runner(events: u64) -> ShardedTraceRunner {
        ShardedTraceRunner {
            master_seed: 0xC0FFEE,
            events_per_bank: events,
            curve_points: 10,
            max_regions: 64,
        }
    }

    fn system(banks: usize, endurance: u64) -> MultiBankSystem<StartGap> {
        MultiBankSystem::new(
            (0..banks).map(|_| StartGap::start_gap(1 << 8, 8)).collect(),
            endurance,
            TimingModel::PAPER,
        )
    }

    #[test]
    fn sharded_equals_sequential_for_any_job_count() {
        let spec = WorkloadSpec::Zipf {
            s: 1.1,
            write_ratio: 0.7,
            mean_gap: 20,
        };
        let make = |_bank: usize, lines: u64, seed: u64| spec.build(lines, seed);
        let r = runner(4_000);
        let mut reference = system(4, 1_000_000_000);
        let expected = r.run_sequential(&mut reference, &make);
        for jobs in [1usize, 2, 4] {
            let mut sys = system(4, 1_000_000_000);
            let got = r.run(&mut sys, &make, jobs);
            assert_eq!(got, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn failed_bank_stops_consuming_events() {
        // Tiny endurance: every bank dies mid-shard; outcomes must agree
        // between the sharded and serial drives, including the stop point.
        let spec = WorkloadSpec::Uniform {
            write_ratio: 1.0,
            mean_gap: 0,
        };
        let make = |_bank: usize, lines: u64, seed: u64| spec.build(lines, seed);
        let r = runner(200_000);
        let mut reference = system(3, 600);
        let expected = r.run_sequential(&mut reference, &make);
        assert_eq!(expected.failed_banks(), 3, "all banks should die");
        assert!(expected.outcomes.iter().all(|o| o.accesses < 200_000));
        let mut sys = system(3, 600);
        let got = r.run(&mut sys, &make, 2);
        assert_eq!(got, expected);
    }

    #[test]
    fn read_windows_are_outcome_identical() {
        // Every window, including the scalar window 1, must land every
        // counter, clock, and wear value on the same place. The read-heavy
        // trace flushes mostly short batches; the near-read-only one also
        // flushes batches past one 64-lane chunk, up to the full window.
        for (write_ratio, events, min_run) in [(0.2, 3_000u64, 2u64), (0.01, 20_000, 256)] {
            let spec = WorkloadSpec::Zipf {
                s: 1.2,
                write_ratio,
                mean_gap: 10,
            };
            let make = |_bank: usize, lines: u64, seed: u64| spec.build(lines, seed);
            let r = runner(events);
            let lines = system(1, 1).banks()[0].logical_lines();
            let drive = |window: usize| {
                let mut sys = system(2, 1_000_000_000);
                let outcomes: Vec<ShardOutcome> = sys
                    .banks_mut()
                    .iter_mut()
                    .enumerate()
                    .map(|(b, mc)| {
                        let mut trace = make(b, lines, shard_seed(r.master_seed, b));
                        drive_bank_with_window(b, mc, &mut trace, r.events_per_bank, window)
                    })
                    .collect();
                let wear: Vec<Vec<u64>> = sys
                    .banks()
                    .iter()
                    .map(|b| b.bank().wear().to_vec())
                    .collect();
                (outcomes, wear)
            };
            let reference = drive(1);
            for window in [2usize, 3, 7, 256] {
                assert_eq!(drive(window), reference, "w={write_ratio} window={window}");
            }
            // The longest read run bank 0 sees caps its largest batch.
            let mut trace = make(0, lines, shard_seed(r.master_seed, 0));
            let (mut run, mut longest) = (0u64, 0u64);
            for _ in 0..events {
                run = if trace.next_access().is_write {
                    0
                } else {
                    run + 1
                };
                longest = longest.max(run);
            }
            assert!(
                longest >= min_run,
                "w={write_ratio}: longest read run {longest}"
            );
        }
    }

    #[test]
    fn banks_get_independent_streams() {
        let spec = WorkloadSpec::Uniform {
            write_ratio: 1.0,
            mean_gap: 50,
        };
        let make = |_bank: usize, lines: u64, seed: u64| spec.build(lines, seed);
        let r = runner(500);
        let mut sys = system(2, 1_000_000_000);
        let rep = r.run(&mut sys, &make, 1);
        // Same generator type and event count, but different shard seeds:
        // the banks' final clocks should (overwhelmingly) differ because
        // their gap draws differ.
        assert_ne!(rep.outcomes[0].now_ns, rep.outcomes[1].now_ns);
        assert_eq!(rep.demand_writes(), 1_000);
    }
}
