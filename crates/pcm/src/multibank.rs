//! Multi-bank composition: one wear-leveling instance per bank.
//!
//! The paper's §IV-A: Security RBSG "is implemented in the memory
//! controller and manages each bank separately to avoid bank parallelism
//! attack" — Seong et al.'s attack on RBSG exploits regions spanning
//! banks, where remap movements in one bank cannot throttle the write
//! stream arriving through the others. Managing each bank with its own
//! scheme instance (own keys, counters, and gap lines) removes the shared
//! state that attack needs.

use crate::{
    DegradationReport, FaultConfig, FaultStats, LineAddr, LineData, MemoryController, Ns, PcmError,
    TimingModel, WearLeveler, WriteResponse,
};

/// System-wide degradation, aggregated *per bank* instead of flattened:
/// the paper's §IV-A manages each bank separately precisely so banks fail
/// independently, and the report preserves that — one dead bank is one
/// dead bank, not a dead system.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemDegradationReport {
    /// Each bank's own report, in bank order.
    pub per_bank: Vec<DegradationReport>,
    /// The most-degraded bank: exhausted banks first (earliest death
    /// worst), then by spare pressure, retirements, ECP consumption, and
    /// transient count; ties break to the lowest index.
    pub worst_bank: usize,
    /// Banks whose spare pool has run out.
    pub failed_banks: Vec<usize>,
    /// Flattened view (earliest milestone per category across banks, by
    /// each bank's own write count; counters summed) — what the old
    /// single-bank-shaped report used to show.
    pub combined: DegradationReport,
}

impl SystemDegradationReport {
    /// The worst bank's report.
    pub fn worst(&self) -> &DegradationReport {
        &self.per_bank[self.worst_bank]
    }

    /// Summed counters across banks.
    pub fn totals(&self) -> &FaultStats {
        &self.combined.stats
    }
}

/// Whether report `a` is strictly more degraded than `b`.
fn more_degraded(a: &DegradationReport, b: &DegradationReport) -> bool {
    match (a.capacity_exhaustion, b.capacity_exhaustion) {
        (Some(x), Some(y)) => return x.at_write < y.at_write,
        (Some(_), None) => return true,
        (None, Some(_)) => return false,
        (None, None) => {}
    }
    let key = |r: &DegradationReport| {
        (
            r.spare_pressure(),
            r.stats.lines_retired as f64,
            r.stats.ecp_entries_consumed as f64,
            r.stats.transient_faults as f64,
        )
    };
    key(a) > key(b)
}

/// A memory system of `B` banks, each with an independent scheme instance.
///
/// Addresses interleave across banks on the low bits (`bank = la % B`),
/// the common layout for bank-level parallelism; each bank keeps its own
/// simulated clock, so concurrent streams to different banks do not
/// serialize against each other's remap movements.
#[derive(Debug, Clone)]
pub struct MultiBankSystem<W: WearLeveler> {
    banks: Vec<MemoryController<W>>,
}

impl<W: WearLeveler> MultiBankSystem<W> {
    /// Build from per-bank scheme instances (each with its own keys/seed).
    pub fn new(schemes: Vec<W>, endurance: u64, timing: TimingModel) -> Self {
        assert!(!schemes.is_empty());
        let lines = schemes[0].logical_lines();
        assert!(
            schemes.iter().all(|s| s.logical_lines() == lines),
            "banks must be uniform"
        );
        Self {
            banks: schemes
                .into_iter()
                .map(|s| MemoryController::new(s, endurance, timing))
                .collect(),
        }
    }

    /// Build a system of fault-injected banks. Each bank derives its own
    /// fault-stream seed from `cfg.seed` and its index, so banks age
    /// independently.
    pub fn with_faults(
        schemes: Vec<W>,
        endurance: u64,
        timing: TimingModel,
        cfg: FaultConfig,
    ) -> Self {
        assert!(!schemes.is_empty());
        let lines = schemes[0].logical_lines();
        assert!(
            schemes.iter().all(|s| s.logical_lines() == lines),
            "banks must be uniform"
        );
        Self {
            banks: schemes
                .into_iter()
                .enumerate()
                .map(|(i, s)| {
                    let seed = cfg
                        .seed
                        .wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    MemoryController::with_faults(s, endurance, timing, cfg.with_seed(seed))
                })
                .collect(),
        }
    }

    /// Build from pre-assembled per-bank controllers, so each bank can
    /// carry its *own* timing model, endurance, and fault configuration —
    /// the heterogeneous-device case a serving front-end must survive (one
    /// slow bank, one dying bank) rather than the uniform happy path.
    pub fn from_controllers(banks: Vec<MemoryController<W>>) -> Self {
        assert!(!banks.is_empty());
        let lines = banks[0].logical_lines();
        assert!(
            banks.iter().all(|b| b.logical_lines() == lines),
            "banks must expose a uniform logical size"
        );
        Self { banks }
    }

    /// Decompose into per-bank controllers — the first step of a simulated
    /// whole-system power cycle (recover each bank's metadata, then rebuild
    /// with [`MultiBankSystem::from_controllers`]).
    pub fn into_controllers(self) -> Vec<MemoryController<W>> {
        self.banks
    }

    /// Number of banks.
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Total logical lines across banks.
    pub fn logical_lines(&self) -> u64 {
        self.banks[0].logical_lines() * self.banks.len() as u64
    }

    /// Bank and in-bank address of a system address.
    #[inline]
    pub fn route(&self, la: LineAddr) -> (usize, LineAddr) {
        let b = self.banks.len() as u64;
        ((la % b) as usize, la / b)
    }

    #[inline]
    fn check_la(&self, la: LineAddr) -> Result<(), PcmError> {
        let lines = self.logical_lines();
        if la < lines {
            Ok(())
        } else {
            Err(PcmError::AddressOutOfRange { la, lines })
        }
    }

    /// Service a write, validating the system address; latency is the
    /// addressed bank's alone (other banks proceed in parallel).
    pub fn try_write(&mut self, la: LineAddr, data: LineData) -> Result<WriteResponse, PcmError> {
        self.check_la(la)?;
        let (bank, addr) = self.route(la);
        Ok(self.banks[bank].write(addr, data))
    }

    /// Service a write; latency is the addressed bank's alone (other banks
    /// proceed in parallel). Panics on an out-of-range address (previously
    /// the modulo routing silently aliased it onto a valid line); use
    /// [`MultiBankSystem::try_write`] for a typed error.
    pub fn write(&mut self, la: LineAddr, data: LineData) -> WriteResponse {
        self.try_write(la, data)
            .expect("demand write outside the system address space")
    }

    /// Service a read, validating the system address.
    pub fn try_read(&mut self, la: LineAddr) -> Result<(LineData, Ns), PcmError> {
        self.check_la(la)?;
        let (bank, addr) = self.route(la);
        Ok(self.banks[bank].read(addr))
    }

    /// Service a read. Panics on an out-of-range address; use
    /// [`MultiBankSystem::try_read`] for a typed error.
    pub fn read(&mut self, la: LineAddr) -> (LineData, Ns) {
        self.try_read(la)
            .expect("demand read outside the system address space")
    }

    /// Whether the *whole system* is dead: every bank has failed. One dead
    /// bank degrades the system (its addresses fail, the rest serve); use
    /// [`MultiBankSystem::bank_failed`] / [`MultiBankSystem::any_bank_failed`]
    /// for the per-bank view.
    pub fn failed(&self) -> bool {
        self.banks.iter().all(|b| b.failed())
    }

    /// Whether at least one bank has failed (the old meaning of
    /// `failed()`, which reported the whole system dead on the first bank
    /// death).
    pub fn any_bank_failed(&self) -> bool {
        self.banks.iter().any(|b| b.failed())
    }

    /// Whether bank `bank` has failed (spare pool exhausted, or first
    /// wear-out on an ideal bank).
    pub fn bank_failed(&self, bank: usize) -> bool {
        self.banks[bank].failed()
    }

    /// System-wide degradation, aggregated per bank: each bank's own
    /// report, the worst bank, the failed set, and the flattened totals.
    pub fn degradation_report(&self) -> SystemDegradationReport {
        let per_bank: Vec<DegradationReport> =
            self.banks.iter().map(|b| b.degradation_report()).collect();
        let mut combined = DegradationReport::default();
        let mut worst_bank = 0usize;
        let mut failed_banks = Vec::new();
        for (i, r) in per_bank.iter().enumerate() {
            combined.merge(r);
            if r.capacity_exhaustion.is_some() {
                failed_banks.push(i);
            }
            if more_degraded(r, &per_bank[worst_bank]) {
                worst_bank = i;
            }
        }
        SystemDegradationReport {
            per_bank,
            worst_bank,
            failed_banks,
            combined,
        }
    }

    /// System time: the furthest-ahead bank clock (banks run in parallel).
    pub fn now_ns(&self) -> Ns {
        self.banks.iter().map(|b| b.now_ns()).max().unwrap_or(0)
    }

    /// Per-bank controllers (statistics, white-box inspection).
    pub fn banks(&self) -> &[MemoryController<W>] {
        &self.banks
    }

    /// Mutable per-bank controllers, for front-end structures that drive
    /// each bank on its own worker (see `srbsg-serve`). Banks share no
    /// state, so driving them concurrently preserves determinism as long
    /// as each bank's own request order is fixed.
    pub fn banks_mut(&mut self) -> &mut [MemoryController<W>] {
        &mut self.banks
    }

    /// Mutable access to one bank's controller.
    pub fn bank_mut(&mut self, bank: usize) -> &mut MemoryController<W> {
        &mut self.banks[bank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Gap {
        lines: u64,
        interval: u64,
        counter: u64,
        gap: u64,
        start: u64,
        moves: u64,
    }

    impl Gap {
        fn new(lines: u64, interval: u64) -> Self {
            Self {
                lines,
                interval,
                counter: 0,
                gap: lines,
                start: 0,
                moves: 0,
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
        fn before_write(&mut self, la: LineAddr, bank: &mut crate::PcmBank) -> (Ns, LineAddr) {
            self.counter += 1;
            if self.counter < self.interval {
                return (0, self.translate(la));
            }
            self.counter = 0;
            self.moves += 1;
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

    fn system(banks: usize) -> MultiBankSystem<Gap> {
        MultiBankSystem::new(
            (0..banks).map(|_| Gap::new(16, 4)).collect(),
            100_000,
            TimingModel::PAPER,
        )
    }

    #[test]
    fn addresses_interleave_across_banks() {
        let s = system(4);
        assert_eq!(s.logical_lines(), 64);
        assert_eq!(s.route(0), (0, 0));
        assert_eq!(s.route(5), (1, 1));
        assert_eq!(s.route(63), (3, 15));
    }

    #[test]
    fn per_bank_counters_are_independent() {
        // The §IV-A property: writes to other banks must not advance this
        // bank's remap state — the shared-counter coupling the
        // bank-parallelism attack needs does not exist.
        let mut s = system(4);
        for i in 0..1_000u64 {
            s.write(1 + 4 * (i % 16), LineData::Ones); // bank 1 only
        }
        assert!(s.banks()[1].scheme().moves > 0);
        assert_eq!(s.banks()[0].scheme().moves, 0);
        assert_eq!(s.banks()[2].scheme().moves, 0);
    }

    #[test]
    fn bank_clocks_run_in_parallel() {
        let mut s = system(2);
        // 100 writes to each bank: system time ≈ one bank's serial time,
        // not the sum.
        for i in 0..200u64 {
            s.write(i % 2, LineData::Ones);
        }
        let t0 = s.banks()[0].now_ns();
        let t1 = s.banks()[1].now_ns();
        assert_eq!(s.now_ns(), t0.max(t1));
        assert!(s.now_ns() < t0 + t1);
    }

    #[test]
    fn one_dead_bank_does_not_report_the_system_dead() {
        let mut s = MultiBankSystem::new(
            (0..3).map(|_| Gap::new(16, 4)).collect(),
            200,
            TimingModel::PAPER,
        );
        // Hammer bank 1 only until one of its lines wears out.
        let mut i = 0u64;
        while !s.bank_failed(1) {
            s.write(1 + 3 * (i % 16), LineData::Ones);
            i += 1;
        }
        assert!(s.bank_failed(1));
        assert!(!s.bank_failed(0) && !s.bank_failed(2));
        assert!(s.any_bank_failed());
        assert!(!s.failed(), "one dead bank must not fail the system");
        let report = s.degradation_report();
        assert_eq!(report.per_bank.len(), 3);
        assert_eq!(report.failed_banks, vec![1]);
        assert_eq!(report.worst_bank, 1);
        assert!(report.worst().capacity_exhaustion.is_some());
        assert!(report.combined.capacity_exhaustion.is_some());
        // Healthy banks still serve both reads and writes.
        assert!(s.try_write(0, LineData::Zeros).is_ok());
        assert!(s.try_read(2).is_ok());
    }

    #[test]
    fn from_controllers_allows_heterogeneous_banks() {
        let slow = TimingModel {
            read_ns: TimingModel::PAPER.read_ns * 4,
            set_ns: TimingModel::PAPER.set_ns * 4,
            reset_ns: TimingModel::PAPER.reset_ns * 4,
            ..TimingModel::PAPER
        };
        let banks = vec![
            MemoryController::new(Gap::new(16, 4), 100_000, TimingModel::PAPER),
            MemoryController::new(Gap::new(16, 4), 100_000, slow),
        ];
        let mut s = MultiBankSystem::from_controllers(banks);
        assert_eq!(s.bank_count(), 2);
        assert_eq!(s.logical_lines(), 32);
        let fast = s.write(0, LineData::Ones).latency_ns; // bank 0
        let slow = s.write(1, LineData::Ones).latency_ns; // bank 1
        assert_eq!(slow, fast * 4, "per-bank timing models must be honored");
    }

    #[test]
    fn data_round_trips_across_banks() {
        let mut s = system(4);
        for la in 0..64 {
            s.write(la, LineData::Mixed(la as u32));
        }
        for i in 0..2_000u64 {
            s.write(i % 7, LineData::Mixed((i % 7) as u32));
        }
        for la in 0..64 {
            assert_eq!(s.read(la).0, LineData::Mixed(la as u32), "la={la}");
        }
    }
}
