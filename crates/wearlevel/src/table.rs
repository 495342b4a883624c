//! Table-based wear leveling (§II-A, after Zhou et al. ISCA'09 and kin):
//! track per-line write counts and periodically swap the hottest line with
//! the coldest one through an indirection table.
//!
//! The paper's §II-B point about this family: it is *deterministic*, so an
//! attacker who knows the algorithm can predict every swap and keep its
//! writes landing on one physical line (the Address Inference Attack,
//! `srbsg_attacks::AiaTableAttack`).

use srbsg_pcm::{LineAddr, Ns, PcmBank, WearLeveler};

/// Hot/cold swapping with a full indirection table.
///
/// Every `interval` writes, the logical line with the highest write count
/// since its last move is swapped with the one with the lowest (ties broken
/// by lowest address — deterministically, as real table schemes do).
#[derive(Debug, Clone)]
pub struct TableWearLeveling {
    /// LA → PA.
    table: Vec<LineAddr>,
    /// PA → LA.
    inverse: Vec<LineAddr>,
    /// Writes since last swap, per logical line.
    heat: Vec<u64>,
    counter: u64,
    interval: u64,
    lines: u64,
    swaps: u64,
}

impl TableWearLeveling {
    /// Identity-initialized table over `lines` with swap interval ψ.
    pub fn new(lines: u64, interval: u64) -> Self {
        assert!(lines >= 2 && interval >= 1);
        Self {
            table: (0..lines).collect(),
            inverse: (0..lines).collect(),
            heat: vec![0; lines as usize],
            counter: 0,
            interval,
            lines,
            swaps: 0,
        }
    }

    /// Number of hot/cold swaps performed.
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    /// The deterministic (hot, cold) pair the next swap will pick, given
    /// current heat — exposed so tests can validate the attack's mirror.
    pub fn next_swap_pair(&self) -> (LineAddr, LineAddr) {
        let hot = self
            .heat
            .iter()
            .enumerate()
            .max_by_key(|&(i, &h)| (h, std::cmp::Reverse(i)))
            .map(|(i, _)| i as u64)
            .expect("non-empty");
        let cold = self
            .heat
            .iter()
            .enumerate()
            .min_by_key(|&(i, &h)| (h, i))
            .map(|(i, _)| i as u64)
            .expect("non-empty");
        (hot, cold)
    }
}

impl WearLeveler for TableWearLeveling {
    fn translate(&self, la: LineAddr) -> LineAddr {
        self.table[la as usize]
    }

    fn before_write(&mut self, la: LineAddr, bank: &mut PcmBank) -> (Ns, LineAddr) {
        self.heat[la as usize] += 1;
        self.counter += 1;
        if self.counter < self.interval {
            return (0, self.translate(la));
        }
        self.counter = 0;
        let (hot, cold) = self.next_swap_pair();
        if hot == cold {
            return (0, self.translate(la));
        }
        let pa_hot = self.table[hot as usize];
        let pa_cold = self.table[cold as usize];
        let lat = bank.swap_lines(pa_hot, pa_cold);
        self.table.swap(hot as usize, cold as usize);
        self.inverse.swap(pa_hot as usize, pa_cold as usize);
        self.heat[hot as usize] = 0;
        self.heat[cold as usize] = 0;
        self.swaps += 1;
        (lat, self.translate(la))
    }

    fn writes_until_remap(&self, _la: LineAddr) -> u64 {
        self.interval - 1 - self.counter
    }

    fn note_quiet_writes(&mut self, la: LineAddr, k: u64) {
        self.heat[la as usize] += k;
        self.counter += k;
        debug_assert!(self.counter < self.interval);
    }

    fn logical_lines(&self) -> u64 {
        self.lines
    }

    fn physical_slots(&self) -> u64 {
        self.lines
    }

    fn name(&self) -> &'static str {
        "table"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srbsg_pcm::{LineData, MemoryController, TimingModel};

    #[test]
    fn hot_line_gets_swapped_away() {
        let mut mc =
            MemoryController::new(TableWearLeveling::new(16, 8), u64::MAX, TimingModel::PAPER);
        let before = mc.translate(3);
        // Exactly one swap fires on the 8th write (ψ = 8). (Two swaps would
        // ping-pong the line back: the cold partner is deterministically
        // LA 0 both times.)
        for _ in 0..8 {
            mc.write(3, LineData::Ones);
        }
        assert_ne!(mc.translate(3), before, "hot line must move");
    }

    #[test]
    fn data_integrity_through_swaps() {
        let mut mc =
            MemoryController::new(TableWearLeveling::new(32, 4), u64::MAX, TimingModel::PAPER);
        for la in 0..32 {
            mc.write(la, LineData::Mixed(la as u32));
        }
        for i in 0..5_000u64 {
            mc.write(i % 3, LineData::Mixed((i % 3) as u32));
        }
        for la in 0..32 {
            assert_eq!(mc.read(la).0, LineData::Mixed(la as u32), "la={la}");
        }
    }

    #[test]
    fn translation_stays_injective() {
        let mut mc =
            MemoryController::new(TableWearLeveling::new(16, 2), u64::MAX, TimingModel::PAPER);
        for i in 0..2_000u64 {
            mc.write(i % 16, LineData::Zeros);
            let mut seen = std::collections::HashSet::new();
            for la in 0..16 {
                assert!(seen.insert(mc.translate(la)));
            }
        }
    }

    #[test]
    fn write_repeat_consistency() {
        for count in [1u64, 7, 50, 333] {
            let mk = || {
                MemoryController::new(TableWearLeveling::new(16, 5), u64::MAX, TimingModel::PAPER)
            };
            let mut a = mk();
            let mut b = mk();
            for _ in 0..count {
                a.write(2, LineData::Ones);
            }
            b.write_repeat(2, LineData::Ones, count);
            assert_eq!(a.now_ns(), b.now_ns(), "count={count}");
            assert_eq!(a.bank().wear(), b.bank().wear());
        }
    }

    #[test]
    fn swap_pair_is_deterministic() {
        let mut wl = TableWearLeveling::new(8, 100);
        let mut bank = srbsg_pcm::PcmBank::new(8, 1_000, TimingModel::PAPER);
        wl.before_write(5, &mut bank);
        wl.before_write(5, &mut bank);
        wl.before_write(1, &mut bank);
        assert_eq!(wl.next_swap_pair(), (5, 0));
    }
}
