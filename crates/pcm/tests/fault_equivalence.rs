//! Property tests: a fault-injected bank/controller must behave
//! *identically* under exact write loops and under the fast-forward bulk
//! paths — same wear, same latency, same degradation report. This is the
//! invariant that lets the lifetime engines fast-forward over a degrading
//! device without changing any observable.

use proptest::prelude::*;
use srbsg_pcm::{
    FaultConfig, LineAddr, LineData, MemoryController, Ns, PcmBank, TimingModel, WearLeveler,
};

/// Decode a compact op stream: (slot selector, data selector, run length).
fn decode_data(d: u8) -> LineData {
    match d % 3 {
        0 => LineData::Zeros,
        1 => LineData::Ones,
        _ => LineData::Mixed(d as u32),
    }
}

#[allow(clippy::too_many_arguments)]
fn fault_cfg(
    seed: u64,
    cov: f64,
    p: f64,
    boost: f64,
    retries: u32,
    ratio: f64,
    ecp: u32,
    spares: u64,
) -> FaultConfig {
    FaultConfig {
        seed,
        endurance_cov: cov,
        transient_prob: p,
        wearout_boost: boost,
        max_retries: retries,
        retry_fail_ratio: ratio,
        ecp_entries: ecp,
        ecp_wear_step: 25,
        spare_lines: spares,
    }
}

/// A minimal Start-Gap wear-leveler for controller-level equivalence: the
/// same shape as the schemes the lifetime engines drive, cheap enough for
/// a property test.
#[derive(Debug)]
struct Gap {
    lines: u64,
    interval: u64,
    counter: u64,
    gap: u64,
    start: u64,
}

impl Gap {
    fn new(lines: u64, interval: u64) -> Self {
        Self {
            lines,
            interval,
            counter: 0,
            gap: lines,
            start: 0,
        }
    }
}

impl WearLeveler for Gap {
    fn translate(&self, la: LineAddr) -> LineAddr {
        let pa = (la + self.start) % self.lines;
        if pa >= self.gap {
            pa + 1
        } else {
            pa
        }
    }
    fn before_write(&mut self, la: LineAddr, bank: &mut PcmBank) -> (Ns, LineAddr) {
        self.counter += 1;
        if self.counter < self.interval {
            return (0, self.translate(la));
        }
        self.counter = 0;
        let slots = self.lines + 1;
        let src = (self.gap + slots - 1) % slots;
        let lat = bank.move_line(src, self.gap);
        self.gap = src;
        if self.gap == self.lines {
            self.start = (self.start + 1) % self.lines;
        }
        (lat, self.translate(la))
    }
    fn writes_until_remap(&self, _la: LineAddr) -> u64 {
        self.interval - 1 - self.counter
    }
    fn note_quiet_writes(&mut self, _la: LineAddr, k: u64) {
        self.counter += k;
    }
    fn logical_lines(&self) -> u64 {
        self.lines
    }
    fn physical_slots(&self) -> u64 {
        self.lines + 1
    }
    fn name(&self) -> &'static str {
        "gap"
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bank level: a run of `count` identical writes through
    /// `write_line_bulk` equals the same writes through `write_line` one
    /// by one — wear, latency, failure record, and degradation report.
    #[test]
    fn bulk_write_equals_exact_loop(
        seed in any::<u64>(),
        cov in 0.0f64..0.4,
        p in 0.0f64..0.02,
        boost in 0.0f64..0.01,
        retries in 0u32..4,
        ratio in 0.0f64..0.9,
        ecp in 0u32..3,
        spares in 0u64..4,
        ops in prop::collection::vec((0u64..4, any::<u8>(), 1u64..120), 1..12),
    ) {
        let cfg = fault_cfg(seed, cov, p, boost, retries, ratio, ecp, spares);
        let endurance = 200;
        let mut exact = PcmBank::with_faults(4, endurance, TimingModel::PAPER, cfg);
        let mut bulk = PcmBank::with_faults(4, endurance, TimingModel::PAPER, cfg);
        for &(slot, d, count) in &ops {
            let data = decode_data(d);
            let mut lat_exact: Ns = 0;
            for _ in 0..count {
                lat_exact += exact.write_line(slot, data);
            }
            let lat_bulk = bulk.write_line_bulk(slot, data, count);
            prop_assert_eq!(lat_exact, lat_bulk);
        }
        for slot in 0..exact.total_slots() {
            prop_assert_eq!(exact.wear_of(slot), bulk.wear_of(slot), "slot {}", slot);
        }
        prop_assert_eq!(exact.total_writes(), bulk.total_writes());
        prop_assert_eq!(exact.failure(), bulk.failure());
        prop_assert_eq!(exact.degradation_report(), bulk.degradation_report());
    }

    /// Controller level: `write_repeat` (which batches quiet stretches via
    /// `bulk_safe_writes`) equals the same demand writes issued one by one
    /// through a remapping scheme — clock, wear, and degradation report.
    #[test]
    fn write_repeat_equals_exact_loop_under_faults(
        seed in any::<u64>(),
        cov in 0.0f64..0.4,
        p in 0.0f64..0.02,
        retries in 0u32..4,
        ratio in 0.0f64..0.9,
        ecp in 0u32..3,
        spares in 0u64..4,
        la in 0u64..8,
        d in any::<u8>(),
        count in 1u64..600,
    ) {
        let cfg = fault_cfg(seed, cov, p, 0.005, retries, ratio, ecp, spares);
        let endurance = 300;
        let data = decode_data(d);
        let mut exact =
            MemoryController::with_faults(Gap::new(8, 5), endurance, TimingModel::PAPER, cfg);
        let mut fast =
            MemoryController::with_faults(Gap::new(8, 5), endurance, TimingModel::PAPER, cfg);
        // write_repeat models an attacker loop that stops on the first
        // failed response; mirror that in the exact loop.
        let mut last_exact = None;
        for _ in 0..count {
            let r = exact.write(la, data);
            last_exact = Some(r);
            if r.failed {
                break;
            }
        }
        let last_fast = fast.write_repeat(la, data, count);
        prop_assert_eq!(last_exact.unwrap(), last_fast);
        prop_assert_eq!(exact.now_ns(), fast.now_ns());
        prop_assert_eq!(exact.failed(), fast.failed());
        prop_assert_eq!(exact.degradation_report(), fast.degradation_report());
        for slot in 0..exact.bank().total_slots() {
            prop_assert_eq!(
                exact.bank().wear_of(slot),
                fast.bank().wear_of(slot),
                "slot {}",
                slot
            );
        }
    }

    /// Typed address validation: any out-of-range demand access yields
    /// `PcmError::AddressOutOfRange` instead of aliasing or UB, on both
    /// the single controller and the multi-bank system.
    #[test]
    fn out_of_range_addresses_are_typed_errors(la_off in 0u64..1000, banks in 1usize..4) {
        let mut mc = MemoryController::new(Gap::new(8, 5), 1_000, TimingModel::PAPER);
        let la = 8 + la_off;
        prop_assert!(mc.try_write(la, LineData::Ones).is_err());
        prop_assert!(mc.try_read(la).is_err());
        prop_assert!(mc.try_write_repeat(la, LineData::Ones, 3).is_err());

        let schemes: Vec<Gap> = (0..banks).map(|_| Gap::new(8, 5)).collect();
        let mut sys = srbsg_pcm::MultiBankSystem::new(schemes, 1_000, TimingModel::PAPER);
        let sys_la = sys.logical_lines() + la_off;
        prop_assert!(sys.try_write(sys_la, LineData::Ones).is_err());
        prop_assert!(sys.try_read(sys_la).is_err());
        prop_assert!(sys.try_write(0, LineData::Ones).is_ok());
    }
}
