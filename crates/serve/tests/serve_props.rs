//! Front-end correctness: linearizability against a directly-driven
//! system, determinism across worker counts, and unit coverage of every
//! typed rejection path.

use proptest::prelude::*;
use srbsg_core::{SecurityRbsg, SecurityRbsgConfig};
use srbsg_pcm::{
    FaultConfig, LineAddr, LineData, MemoryController, MultiBankSystem, Ns, PcmBank, TimingModel,
    WearLeveler,
};
use srbsg_serve::{Completion, FrontEnd, Op, Rejected, Request, ServeConfig, ServeStats};

/// An identity (non-remapping) wear-leveler: every logical line is its own
/// physical slot, so wear concentrates exactly where the trace points it —
/// the sharpest tool for forcing retirements and quarantine on purpose.
#[derive(Debug)]
struct Fixed {
    lines: u64,
}

impl WearLeveler for Fixed {
    fn translate(&self, la: LineAddr) -> LineAddr {
        la
    }
    fn before_write(&mut self, _la: LineAddr, _bank: &mut PcmBank) -> Ns {
        0
    }
    fn writes_until_remap(&self, _la: LineAddr) -> u64 {
        u64::MAX
    }
    fn note_quiet_writes(&mut self, _la: LineAddr, _k: u64) {}
    fn logical_lines(&self) -> u64 {
        self.lines
    }
    fn physical_slots(&self) -> u64 {
        self.lines
    }
    fn name(&self) -> &'static str {
        "fixed"
    }
}

fn rbsg_system(banks: usize, endurance: u64) -> MultiBankSystem<SecurityRbsg> {
    let schemes: Vec<SecurityRbsg> = (0..banks)
        .map(|i| {
            let mut cfg = SecurityRbsgConfig::small(4, 2);
            cfg.seed = 0xC0FFEE ^ (i as u64);
            SecurityRbsg::new(cfg)
        })
        .collect();
    MultiBankSystem::new(schemes, endurance, TimingModel::PAPER)
}

/// The counters of a run of completions, folded in request order.
fn fold(done: &[Completion]) -> ServeStats {
    let mut stats = ServeStats::default();
    done.iter().for_each(|c| stats.note(c));
    stats
}

fn decode_data(d: u8) -> LineData {
    match d % 3 {
        0 => LineData::Zeros,
        1 => LineData::Ones,
        _ => LineData::Mixed(d as u32),
    }
}

/// A permissive policy: nothing rejects, so the front-end must behave as a
/// plain in-order executor.
fn inert_policy() -> ServeConfig {
    ServeConfig {
        queue_depth: usize::MAX,
        max_retries: 0,
        quarantine_spare_frac: 0.0,
        ..ServeConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Linearizability: with backpressure disabled, replaying a trace
    /// through the front-end (any worker count, any batch split) leaves
    /// the PCM in exactly the state of driving the system directly in
    /// arrival order — same per-slot wear, same data, same bank clocks.
    #[test]
    fn frontend_replay_equals_direct_drive(
        banks in 1usize..4,
        jobs in 1usize..5,
        split in 1usize..5,
        ops in prop::collection::vec((any::<u64>(), any::<u8>(), any::<bool>()), 1..80),
    ) {
        let mut fe = FrontEnd::new(rbsg_system(banks, 1_000_000), inert_policy());
        let mut direct = rbsg_system(banks, 1_000_000);
        let lines = direct.logical_lines();

        let reqs: Vec<Request> = ops
            .iter()
            .map(|&(la, d, is_write)| Request {
                la: la % lines,
                op: if is_write { Op::Write(decode_data(d)) } else { Op::Read },
                arrival_ns: 0,
                deadline_ns: Ns::MAX,
            })
            .collect();

        for r in &reqs {
            match r.op {
                Op::Write(data) => {
                    direct.try_write(r.la, data).unwrap();
                }
                Op::Read => {
                    direct.try_read(r.la).unwrap();
                }
            }
        }

        for chunk in reqs.chunks(reqs.len().div_ceil(split)) {
            for c in fe.submit_batch(chunk.to_vec(), jobs) {
                prop_assert!(c.result.is_ok(), "inert policy must serve everything");
            }
        }

        for (b, (mc_fe, mc_d)) in fe.system().banks().iter().zip(direct.banks()).enumerate() {
            prop_assert_eq!(mc_fe.now_ns(), mc_d.now_ns(), "bank {} clock", b);
            prop_assert_eq!(mc_fe.demand_writes(), mc_d.demand_writes(), "bank {}", b);
            for slot in 0..mc_fe.bank().total_slots() {
                prop_assert_eq!(
                    mc_fe.bank().wear_of(slot),
                    mc_d.bank().wear_of(slot),
                    "bank {} slot {}",
                    b,
                    slot
                );
            }
        }
        for la in 0..lines {
            prop_assert_eq!(
                fe.system_mut().try_read(la).unwrap().0,
                direct.try_read(la).unwrap().0,
                "data at {}",
                la
            );
        }
    }

    /// Determinism: the same trace through the same faulty system yields
    /// byte-identical completions, stats, and quarantine events for
    /// jobs = 1 and jobs = 4.
    #[test]
    fn completions_identical_across_worker_counts(
        seed in any::<u64>(),
        ops in prop::collection::vec((any::<u64>(), any::<u8>(), any::<bool>()), 1..60),
    ) {
        let faults = FaultConfig {
            seed,
            endurance_cov: 0.2,
            transient_prob: 0.05,
            max_retries: 1,
            retry_fail_ratio: 0.8,
            ecp_entries: 1,
            ecp_wear_step: 10,
            spare_lines: 2,
            ..FaultConfig::default()
        };
        let mk = || {
            let schemes: Vec<Fixed> = (0..3).map(|_| Fixed { lines: 8 }).collect();
            MultiBankSystem::with_faults(schemes, 150, TimingModel::PAPER, faults)
        };
        let cfg = ServeConfig {
            queue_depth: 8,
            max_retries: 2,
            quarantine_spare_frac: 0.5,
            ..ServeConfig::default()
        };
        let lines = mk().logical_lines();
        let reqs: Vec<Request> = ops
            .iter()
            .map(|&(la, d, w)| Request {
                la: la % lines,
                op: if w { Op::Write(decode_data(d)) } else { Op::Read },
                arrival_ns: 0,
                deadline_ns: Ns::MAX,
            })
            .collect();

        let run = |jobs: usize| {
            let mut fe = FrontEnd::new(mk(), cfg);
            let mut all: Vec<Completion> = Vec::new();
            // Hammer the trace a few times so wear-out paths get exercised.
            for _ in 0..4 {
                all.extend(fe.submit_batch(reqs.clone(), jobs));
            }
            (all, fe.quarantine_events().to_vec())
        };
        let (c1, e1) = run(1);
        let (c4, e4) = run(4);
        prop_assert_eq!(c1, c4);
        prop_assert_eq!(e1, e4);
    }
}

#[test]
fn queue_full_rejects_at_admission() {
    // Two banks; all even logical addresses route to bank 0.
    let mut fe = FrontEnd::new(
        rbsg_system(2, 1_000_000),
        ServeConfig {
            queue_depth: 2,
            ..ServeConfig::default()
        },
    );
    let reqs: Vec<Request> = (0..4)
        .map(|i| Request {
            la: 2 * i,
            op: Op::Write(LineData::Ones),
            arrival_ns: 0,
            deadline_ns: Ns::MAX,
        })
        .collect();
    let done = fe.submit_batch(reqs, 2);
    assert!(done[0].result.is_ok());
    assert!(done[1].result.is_ok());
    for c in &done[2..] {
        assert_eq!(
            c.result,
            Err(Rejected::QueueFull { bank: 0, depth: 2 }),
            "overflow must be rejected before touching the device"
        );
        assert!(!c.touched_device(true));
    }
    let stats = fold(&done);
    assert_eq!(stats.rejected_queue_full, 2);
    assert_eq!(stats.served_writes, 2);
}

#[test]
fn deadline_expiry_before_start_leaves_device_untouched() {
    let mut fe = FrontEnd::new(rbsg_system(1, 1_000_000), ServeConfig::default());
    // First write occupies the bank well past 10 ns (a SET is 1000 ns).
    let reqs = vec![
        Request {
            la: 0,
            op: Op::Write(LineData::Ones),
            arrival_ns: 0,
            deadline_ns: Ns::MAX,
        },
        Request {
            la: 1,
            op: Op::Write(LineData::Ones),
            arrival_ns: 0,
            deadline_ns: 10,
        },
    ];
    let done = fe.submit_batch(reqs, 1);
    assert!(done[0].result.is_ok());
    match done[1].result {
        Err(Rejected::DeadlineExceeded {
            bank: 0,
            deadline_ns: 10,
            ready_ns,
            attempts: 0,
        }) => assert!(ready_ns > 10),
        ref other => panic!("expected deadline rejection, got {other:?}"),
    }
    assert!(!done[1].touched_device(true));
    // Exactly one demand write reached the device.
    assert_eq!(fe.system().banks()[0].demand_writes(), 1);
    assert_eq!(fold(&done).rejected_deadline, 1);
}

/// A fault config where every write attempt fails verification forever:
/// infinite ECP absorbs the stuck bits so the device never self-heals, and
/// `retry_fail_ratio = 1` defeats the device-level retry ladder.
fn always_stuck() -> FaultConfig {
    FaultConfig {
        seed: 7,
        transient_prob: 1.0,
        max_retries: 2,
        retry_fail_ratio: 1.0,
        ecp_entries: u32::MAX,
        ecp_wear_step: 1_000_000,
        ..FaultConfig::default()
    }
}

#[test]
fn retry_budget_exhausts_with_backoff_then_rejects() {
    let schemes = vec![Fixed { lines: 8 }];
    let sys = MultiBankSystem::with_faults(schemes, 1_000_000, TimingModel::PAPER, always_stuck());
    let cfg = ServeConfig {
        max_retries: 3,
        backoff_base_ns: 100,
        backoff_cap_ns: 400,
        ..ServeConfig::default()
    };
    let mut fe = FrontEnd::new(sys, cfg);
    let done = fe.submit_batch(
        vec![Request {
            la: 0,
            op: Op::Write(LineData::Ones),
            arrival_ns: 0,
            deadline_ns: Ns::MAX,
        }],
        1,
    );
    assert_eq!(
        done[0].result,
        Err(Rejected::RetriesExhausted {
            bank: 0,
            attempts: 4
        })
    );
    assert!(done[0].touched_device(true), "the failed pulses did land");
    let stats = fold(&done);
    assert_eq!(stats.rejected_retries, 1);
    assert_eq!(stats.retries, 3);
    // The backoff sleeps are on the bank clock: 4 attempts' device time
    // plus 3 jittered delays, each at least half its nominal.
    let min_backoff: Ns = 50 + 100 + 200;
    let device_only = {
        let mut mc = MemoryController::with_faults(
            Fixed { lines: 8 },
            1_000_000,
            TimingModel::PAPER,
            always_stuck(),
        );
        for _ in 0..4 {
            let _ = mc.write_verified(0, LineData::Ones);
        }
        mc.now_ns()
    };
    assert!(fe.system().banks()[0].now_ns() >= device_only + min_backoff);
}

#[test]
fn deadline_mid_retry_reports_attempts() {
    let schemes = vec![Fixed { lines: 8 }];
    let sys = MultiBankSystem::with_faults(schemes, 1_000_000, TimingModel::PAPER, always_stuck());
    let cfg = ServeConfig {
        max_retries: 10,
        backoff_base_ns: 1_000,
        backoff_cap_ns: 4_000,
        ..ServeConfig::default()
    };
    let mut fe = FrontEnd::new(sys, cfg);
    // Tight enough that the budget cannot run out before the deadline
    // does: one stuck write burns >= 3 * 1000 ns of device time already.
    let done = fe.submit_batch(
        vec![Request {
            la: 0,
            op: Op::Write(LineData::Ones),
            arrival_ns: 0,
            deadline_ns: 5_000,
        }],
        1,
    );
    match done[0].result {
        Err(Rejected::DeadlineExceeded { attempts, .. }) => {
            assert!(attempts > 0, "mid-retry expiry must report its attempts");
            assert!(done[0].touched_device(true));
        }
        ref other => panic!("expected mid-retry deadline rejection, got {other:?}"),
    }
    assert_eq!(fold(&done).rejected_deadline, 1);
}

#[test]
fn quarantined_bank_serves_reads_and_rejects_writes() {
    // Two spares, no ECP, no endurance spread: hammering line 0 retires it
    // onto spare after spare until pressure hits 1.0 >= 0.75.
    let faults = FaultConfig {
        seed: 3,
        spare_lines: 2,
        ..FaultConfig::default()
    };
    let schemes = vec![Fixed { lines: 8 }, Fixed { lines: 8 }];
    let sys = MultiBankSystem::with_faults(schemes, 40, TimingModel::PAPER, faults);
    let mut fe = FrontEnd::new(sys, ServeConfig::default());

    let mut writes = 0u64;
    let mut all = Vec::new();
    while !fe.is_quarantined(0) {
        assert!(writes < 10_000, "bank 0 never quarantined");
        // la = 0 routes to bank 0; keep bank 1 idle.
        all.extend(fe.submit_batch(
            vec![Request {
                la: 0,
                op: Op::Write(LineData::Mixed(writes as u32)),
                arrival_ns: 0,
                deadline_ns: Ns::MAX,
            }],
            2,
        ));
        writes += 1;
    }

    assert_eq!(
        fe.quarantine_events().len(),
        1,
        "event recorded exactly once"
    );
    let ev = fe.quarantine_events()[0];
    assert_eq!(ev.bank, 0);
    assert!(ev.spare_pressure >= 0.75);
    assert!(!fe.is_quarantined(1));

    // Writes to the quarantined bank bounce at admission; reads still work,
    // and the other bank still accepts writes.
    let done = fe.submit_batch(
        vec![
            Request {
                la: 0,
                op: Op::Write(LineData::Ones),
                arrival_ns: 0,
                deadline_ns: Ns::MAX,
            },
            Request {
                la: 0,
                op: Op::Read,
                arrival_ns: 0,
                deadline_ns: Ns::MAX,
            },
            Request {
                la: 1,
                op: Op::Write(LineData::Ones),
                arrival_ns: 0,
                deadline_ns: Ns::MAX,
            },
        ],
        2,
    );
    assert_eq!(done[0].result, Err(Rejected::BankQuarantined { bank: 0 }));
    assert!(!done[0].touched_device(true));
    assert!(matches!(&done[1].result, Ok(s) if s.data.is_some()));
    assert!(done[2].result.is_ok());
    all.extend(done);
    assert_eq!(fold(&all).rejected_quarantine, 1);
}

#[test]
fn replenished_spares_lift_quarantine() {
    // Same setup as above: hammer bank 0 until both spares are consumed
    // and the bank quarantines at pressure 1.0.
    let faults = FaultConfig {
        seed: 3,
        spare_lines: 2,
        ..FaultConfig::default()
    };
    let schemes = vec![Fixed { lines: 8 }, Fixed { lines: 8 }];
    let sys = MultiBankSystem::with_faults(schemes, 40, TimingModel::PAPER, faults);
    let mut fe = FrontEnd::new(sys, ServeConfig::default());
    let mut writes = 0u64;
    let mut all = Vec::new();
    while !fe.is_quarantined(0) {
        assert!(writes < 10_000, "bank 0 never quarantined");
        all.extend(fe.submit_batch(
            vec![Request {
                la: 0,
                op: Op::Write(LineData::Mixed(writes as u32)),
                arrival_ns: 0,
                deadline_ns: Ns::MAX,
            }],
            2,
        ));
        writes += 1;
    }

    // A field-service top-up drops pressure to 2/8 and lifts the
    // quarantine, recording a release event.
    fe.replenish_spares(0, 6);
    assert!(!fe.is_quarantined(0));
    assert_eq!(fe.release_events().len(), 1);
    let rel = fe.release_events()[0];
    assert_eq!(rel.bank, 0);
    assert!(rel.spare_pressure < 0.75, "pressure {}", rel.spare_pressure);

    // The bank accepts writes again, and they are durable.
    let done = fe.submit_batch(
        vec![
            Request {
                la: 0,
                op: Op::Write(LineData::Mixed(424_242)),
                arrival_ns: 0,
                deadline_ns: Ns::MAX,
            },
            Request {
                la: 0,
                op: Op::Read,
                arrival_ns: 0,
                deadline_ns: Ns::MAX,
            },
        ],
        2,
    );
    assert!(done[0].result.is_ok(), "{:?}", done[0].result);
    assert!(matches!(&done[1].result, Ok(s) if s.data == Some(LineData::Mixed(424_242))));
    all.extend(done);
    assert_eq!(fold(&all).rejected_quarantine, 0);
}

#[test]
fn exhausted_bank_stays_quarantined_after_replenishment() {
    // Quarantine bank 0 at full spare pressure, then exhaust its capacity
    // behind the front-end's back (admission would block demand writes).
    // An exhausted bank reports pressure 1.0 regardless of provisioning,
    // so replenishment must not lift the quarantine.
    let faults = FaultConfig {
        seed: 5,
        spare_lines: 1,
        ..FaultConfig::default()
    };
    let schemes = vec![Fixed { lines: 8 }];
    let sys = MultiBankSystem::with_faults(schemes, 30, TimingModel::PAPER, faults);
    let mut fe = FrontEnd::new(sys, ServeConfig::default());
    let mut writes = 0u64;
    while !fe.is_quarantined(0) {
        assert!(writes < 10_000, "bank 0 never quarantined");
        fe.submit_batch(
            vec![Request {
                la: 0,
                op: Op::Write(LineData::Mixed(writes as u32)),
                arrival_ns: 0,
                deadline_ns: Ns::MAX,
            }],
            1,
        );
        writes += 1;
    }
    let mc = &mut fe.system_mut().banks_mut()[0];
    for i in 0..10_000u64 {
        if mc.degradation_report().capacity_exhaustion.is_some() {
            break;
        }
        let _ = mc.write_verified(0, LineData::Mixed(i as u32));
    }
    assert!(
        fe.system().banks()[0]
            .degradation_report()
            .capacity_exhaustion
            .is_some(),
        "bank never exhausted"
    );
    fe.replenish_spares(0, 1_000);
    assert!(
        fe.is_quarantined(0),
        "capacity exhaustion reports pressure 1.0 regardless of spares"
    );
    assert!(fe.release_events().is_empty());
}

#[test]
fn read_only_mode_sheds_writes_and_serves_reads() {
    let sys = rbsg_system(2, 1_000_000);
    let mut fe = FrontEnd::new(sys, inert_policy());
    // Land a write while the tier is healthy.
    let done = fe.submit_batch(
        vec![Request {
            la: 3,
            op: Op::Write(LineData::Mixed(7)),
            arrival_ns: 0,
            deadline_ns: Ns::MAX,
        }],
        1,
    );
    assert!(done[0].result.is_ok());
    let mut all = done;

    fe.set_read_only(true);
    assert!(fe.read_only());
    let done = fe.submit_batch(
        vec![
            Request {
                la: 3,
                op: Op::Write(LineData::Mixed(9)),
                arrival_ns: 0,
                deadline_ns: Ns::MAX,
            },
            Request {
                la: 3,
                op: Op::Read,
                arrival_ns: 0,
                deadline_ns: Ns::MAX,
            },
        ],
        1,
    );
    // The write is shed with the typed reason before touching the device;
    // the read still serves the pre-degradation value.
    assert_eq!(done[0].result, Err(Rejected::ReadOnly));
    match &done[1].result {
        Ok(s) => assert_eq!(s.data, Some(LineData::Mixed(7))),
        other => panic!("read failed in read-only mode: {other:?}"),
    }
    assert!(!done[0].result.unwrap_err().touched_device());
    all.extend(done);
    let stats = fold(&all);
    assert_eq!(stats.rejected_read_only, 1);
    assert_eq!(stats.rejected(), 1);

    // Leaving read-only restores write service.
    fe.set_read_only(false);
    let done = fe.submit_batch(
        vec![Request {
            la: 3,
            op: Op::Write(LineData::Mixed(11)),
            arrival_ns: 0,
            deadline_ns: Ns::MAX,
        }],
        1,
    );
    assert!(done[0].result.is_ok());
}
