//! One-level and two-level Security Refresh schemes (Seong et al.,
//! ISCA'10), the strongest prior defence the paper attacks.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use srbsg_pcm::{ApplySink, LineAddr, Ns, PcmBank, PhysOp, StepSink, WearLeveler};
use srbsg_persist::{expect_tag, tags, Dec, Enc, JournaledScheme, MetadataState, PersistError};

use crate::SrMapping;

/// One-level Security Refresh over `regions` independent regions.
///
/// The memory is split into regions *by address sequence*; each region runs
/// its own [`SrMapping`] with an independent random key schedule. Every
/// `interval` (ψ) demand writes to a region trigger one refresh step there.
/// SR swaps lines in place, so no spare slots are needed.
#[derive(Debug, Clone)]
pub struct SecurityRefresh {
    maps: Vec<SrMapping>,
    counters: Vec<u64>,
    interval: u64,
    lines: u64,
    region_lines: u64,
    rng: SmallRng,
}

impl SecurityRefresh {
    /// Build with `lines` total lines (power of two), `regions` regions,
    /// and refresh interval ψ = `interval`. Keys are drawn from a
    /// deterministic RNG seeded with `seed`.
    pub fn new(lines: u64, regions: u64, interval: u64, seed: u64) -> Self {
        assert!(regions >= 1 && lines.is_multiple_of(regions));
        assert!(interval >= 1);
        let region_lines = lines / regions;
        assert!(region_lines.is_power_of_two() && region_lines >= 2);
        let mut rng = SmallRng::seed_from_u64(seed);
        let maps = (0..regions)
            .map(|_| SrMapping::new(region_lines, &mut rng))
            .collect();
        Self {
            maps,
            counters: vec![0; regions as usize],
            interval,
            lines,
            region_lines,
            rng,
        }
    }

    /// Refresh interval ψ.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Lines per region.
    pub fn region_lines(&self) -> u64 {
        self.region_lines
    }

    /// The mapping of region `r` (white-box inspection for tests).
    pub fn region(&self, r: u64) -> &SrMapping {
        &self.maps[r as usize]
    }

    #[inline]
    fn region_of(&self, la: u64) -> u64 {
        la / self.region_lines
    }

    /// One refresh step of region `r`: the metadata transition (including
    /// the round-end RNG draw) plus the swap it implies, if any. A skip
    /// step returns no ops but still mutates the CRP/key schedule, so the
    /// journaled path records it regardless.
    fn step_region(&mut self, r: usize) -> Vec<PhysOp> {
        let base = r as u64 * self.region_lines;
        match self.maps[r].advance(&mut self.rng) {
            Some(swap) => vec![PhysOp::Swap {
                a: base + swap.a,
                b: base + swap.b,
            }],
            None => Vec::new(),
        }
    }

    fn step_if_due(
        &mut self,
        la: LineAddr,
        bank: &mut PcmBank,
        sink: &mut dyn StepSink,
    ) -> (Ns, LineAddr) {
        let r = self.region_of(la) as usize;
        self.counters[r] += 1;
        let mut latency = 0;
        if self.counters[r] >= self.interval {
            self.counters[r] = 0;
            let ops = self.step_region(r);
            latency = sink.commit(bank, &(r as u32).to_le_bytes(), &ops);
        }
        (latency, self.translate(la))
    }
}

impl WearLeveler for SecurityRefresh {
    fn translate(&self, la: LineAddr) -> LineAddr {
        let r = self.region_of(la);
        let idx = la % self.region_lines;
        r * self.region_lines + self.maps[r as usize].translate(idx)
    }

    fn before_write(&mut self, la: LineAddr, bank: &mut PcmBank) -> (Ns, LineAddr) {
        self.step_if_due(la, bank, &mut ApplySink)
    }

    fn writes_until_remap(&self, la: LineAddr) -> u64 {
        let r = self.region_of(la) as usize;
        self.interval - 1 - self.counters[r]
    }

    fn note_quiet_writes(&mut self, la: LineAddr, k: u64) {
        let r = self.region_of(la) as usize;
        self.counters[r] += k;
        debug_assert!(self.counters[r] < self.interval);
    }

    fn logical_lines(&self) -> u64 {
        self.lines
    }

    fn physical_slots(&self) -> u64 {
        self.lines
    }

    fn name(&self) -> &'static str {
        "security-refresh"
    }
}

impl MetadataState for SecurityRefresh {
    fn encode_state(&self, enc: &mut Enc) {
        enc.u8(tags::SECURITY_REFRESH);
        enc.u64(self.lines);
        enc.u64(self.interval);
        enc.u32(self.maps.len() as u32);
        for m in &self.maps {
            m.encode_state(enc);
        }
        for &c in &self.counters {
            enc.u64(c);
        }
        self.rng.encode_state(enc);
    }

    fn decode_state(dec: &mut Dec) -> Result<Self, PersistError> {
        expect_tag(dec, tags::SECURITY_REFRESH)?;
        let lines = dec.u64()?;
        let interval = dec.u64()?;
        let region_count = dec.u32()? as u64;
        if interval < 1 || region_count < 1 || !lines.is_multiple_of(region_count) {
            return Err(PersistError::Corrupt("sr geometry out of range"));
        }
        let region_lines = lines / region_count;
        let mut maps = Vec::with_capacity(region_count as usize);
        for _ in 0..region_count {
            let m = SrMapping::decode_state(dec)?;
            if m.lines() != region_lines {
                return Err(PersistError::Corrupt("sr region size mismatch"));
            }
            maps.push(m);
        }
        let mut counters = Vec::with_capacity(region_count as usize);
        for _ in 0..region_count {
            let c = dec.u64()?;
            if c >= interval {
                return Err(PersistError::Corrupt("sr counter out of range"));
            }
            counters.push(c);
        }
        let rng = SmallRng::decode_state(dec)?;
        Ok(Self {
            maps,
            counters,
            interval,
            lines,
            region_lines,
            rng,
        })
    }
}

impl JournaledScheme for SecurityRefresh {
    fn before_write_logged(
        &mut self,
        la: LineAddr,
        bank: &mut PcmBank,
        sink: &mut dyn StepSink,
    ) -> (Ns, LineAddr) {
        self.step_if_due(la, bank, sink)
    }

    fn replay_step(&mut self, payload: &[u8]) -> Result<Vec<PhysOp>, PersistError> {
        let raw: [u8; 4] = payload
            .try_into()
            .map_err(|_| PersistError::Corrupt("sr step payload size"))?;
        let r = u32::from_le_bytes(raw) as usize;
        if r >= self.maps.len() {
            return Err(PersistError::Corrupt("sr step region out of range"));
        }
        self.counters[r] = 0;
        Ok(self.step_region(r))
    }

    fn reseed_rng(&mut self, seed: u64) {
        self.rng = SmallRng::seed_from_u64(seed);
    }
}

/// Two-level Security Refresh: an outer SR over the whole bank remaps
/// LA → IA; the IA space is divided into `sub_regions` sub-regions, each
/// managed by an inner SR translating IA → PA.
///
/// Both levels are SR instances, transparent and independent of each other
/// (paper §III-C). The outer level counts all demand writes; each inner
/// level counts the demand writes landing in its sub-region. An outer swap
/// exchanges two *logical-to-intermediate* positions, so the data movement
/// it performs is routed through the inner mappings of the affected
/// sub-regions.
#[derive(Debug, Clone)]
pub struct TwoLevelSr {
    outer: SrMapping,
    outer_counter: u64,
    outer_interval: u64,
    inner: Vec<SrMapping>,
    inner_counters: Vec<u64>,
    inner_interval: u64,
    lines: u64,
    region_lines: u64,
    rng: SmallRng,
}

impl TwoLevelSr {
    /// Build with `lines` total (power of two), `sub_regions` inner
    /// regions, inner interval ψ_in and outer interval ψ_out.
    pub fn new(
        lines: u64,
        sub_regions: u64,
        inner_interval: u64,
        outer_interval: u64,
        seed: u64,
    ) -> Self {
        assert!(lines.is_power_of_two());
        assert!(sub_regions >= 1 && lines.is_multiple_of(sub_regions));
        assert!(inner_interval >= 1 && outer_interval >= 1);
        let region_lines = lines / sub_regions;
        assert!(region_lines.is_power_of_two() && region_lines >= 2);
        let mut rng = SmallRng::seed_from_u64(seed);
        let outer = SrMapping::new(lines, &mut rng);
        let inner = (0..sub_regions)
            .map(|_| SrMapping::new(region_lines, &mut rng))
            .collect();
        Self {
            outer,
            outer_counter: 0,
            outer_interval,
            inner,
            inner_counters: vec![0; sub_regions as usize],
            inner_interval,
            lines,
            region_lines,
            rng,
        }
    }

    /// Inner refresh interval ψ_in.
    pub fn inner_interval(&self) -> u64 {
        self.inner_interval
    }

    /// Outer refresh interval ψ_out.
    pub fn outer_interval(&self) -> u64 {
        self.outer_interval
    }

    /// Number of inner sub-regions.
    pub fn sub_regions(&self) -> u64 {
        self.inner.len() as u64
    }

    /// Lines per sub-region.
    pub fn region_lines(&self) -> u64 {
        self.region_lines
    }

    /// The outer mapping (white-box inspection).
    pub fn outer(&self) -> &SrMapping {
        &self.outer
    }

    /// The inner mapping of sub-region `r` (white-box inspection).
    pub fn inner(&self, r: u64) -> &SrMapping {
        &self.inner[r as usize]
    }

    /// Map an intermediate address to its physical slot through the inner
    /// level.
    #[inline]
    fn inner_translate(&self, ia: u64) -> u64 {
        let r = ia / self.region_lines;
        r * self.region_lines + self.inner[r as usize].translate(ia % self.region_lines)
    }

    /// One outer refresh step (journal payload 0).
    fn outer_step(&mut self) -> Vec<PhysOp> {
        match self.outer.advance(&mut self.rng) {
            Some(swap) => vec![PhysOp::Swap {
                a: self.inner_translate(swap.a),
                b: self.inner_translate(swap.b),
            }],
            None => Vec::new(),
        }
    }

    /// One inner refresh step in sub-region `r` (journal payload `1 + r`).
    fn inner_step(&mut self, r: usize) -> Vec<PhysOp> {
        let base = r as u64 * self.region_lines;
        match self.inner[r].advance(&mut self.rng) {
            Some(swap) => vec![PhysOp::Swap {
                a: base + swap.a,
                b: base + swap.b,
            }],
            None => Vec::new(),
        }
    }

    fn step_if_due(
        &mut self,
        la: LineAddr,
        bank: &mut PcmBank,
        sink: &mut dyn StepSink,
    ) -> (Ns, LineAddr) {
        let mut latency = 0;
        // Outer level: one refresh per ψ_out demand writes to the bank.
        self.outer_counter += 1;
        if self.outer_counter >= self.outer_interval {
            self.outer_counter = 0;
            let ops = self.outer_step();
            latency += sink.commit(bank, &0u32.to_le_bytes(), &ops);
        }
        // Inner level: one refresh per ψ_in demand writes to the
        // sub-region this write lands in (post-outer-movement mapping).
        let ia = self.outer.translate(la);
        let r = (ia / self.region_lines) as usize;
        self.inner_counters[r] += 1;
        if self.inner_counters[r] >= self.inner_interval {
            self.inner_counters[r] = 0;
            let ops = self.inner_step(r);
            latency += sink.commit(bank, &(1 + r as u32).to_le_bytes(), &ops);
        }
        (latency, self.inner_translate(ia))
    }
}

impl WearLeveler for TwoLevelSr {
    fn translate(&self, la: LineAddr) -> LineAddr {
        self.inner_translate(self.outer.translate(la))
    }

    fn before_write(&mut self, la: LineAddr, bank: &mut PcmBank) -> (Ns, LineAddr) {
        self.step_if_due(la, bank, &mut ApplySink)
    }

    fn writes_until_remap(&self, la: LineAddr) -> u64 {
        let outer_left = self.outer_interval - 1 - self.outer_counter;
        let ia = self.outer.translate(la);
        let r = (ia / self.region_lines) as usize;
        let inner_left = self.inner_interval - 1 - self.inner_counters[r];
        outer_left.min(inner_left)
    }

    fn note_quiet_writes(&mut self, la: LineAddr, k: u64) {
        self.outer_counter += k;
        debug_assert!(self.outer_counter < self.outer_interval);
        let ia = self.outer.translate(la);
        let r = (ia / self.region_lines) as usize;
        self.inner_counters[r] += k;
        debug_assert!(self.inner_counters[r] < self.inner_interval);
    }

    fn logical_lines(&self) -> u64 {
        self.lines
    }

    fn physical_slots(&self) -> u64 {
        self.lines
    }

    fn name(&self) -> &'static str {
        "two-level-sr"
    }
}

impl MetadataState for TwoLevelSr {
    fn encode_state(&self, enc: &mut Enc) {
        enc.u8(tags::TWO_LEVEL_SR);
        enc.u64(self.lines);
        enc.u64(self.inner_interval);
        enc.u64(self.outer_interval);
        enc.u64(self.outer_counter);
        self.outer.encode_state(enc);
        enc.u32(self.inner.len() as u32);
        for m in &self.inner {
            m.encode_state(enc);
        }
        for &c in &self.inner_counters {
            enc.u64(c);
        }
        self.rng.encode_state(enc);
    }

    fn decode_state(dec: &mut Dec) -> Result<Self, PersistError> {
        expect_tag(dec, tags::TWO_LEVEL_SR)?;
        let lines = dec.u64()?;
        let inner_interval = dec.u64()?;
        let outer_interval = dec.u64()?;
        let outer_counter = dec.u64()?;
        if inner_interval < 1 || outer_interval < 1 || outer_counter >= outer_interval {
            return Err(PersistError::Corrupt("two-level-sr intervals out of range"));
        }
        let outer = SrMapping::decode_state(dec)?;
        if outer.lines() != lines {
            return Err(PersistError::Corrupt("two-level-sr outer size mismatch"));
        }
        let region_count = dec.u32()? as u64;
        if region_count < 1 || !lines.is_multiple_of(region_count) {
            return Err(PersistError::Corrupt("two-level-sr geometry out of range"));
        }
        let region_lines = lines / region_count;
        let mut inner = Vec::with_capacity(region_count as usize);
        for _ in 0..region_count {
            let m = SrMapping::decode_state(dec)?;
            if m.lines() != region_lines {
                return Err(PersistError::Corrupt("two-level-sr inner size mismatch"));
            }
            inner.push(m);
        }
        let mut inner_counters = Vec::with_capacity(region_count as usize);
        for _ in 0..region_count {
            let c = dec.u64()?;
            if c >= inner_interval {
                return Err(PersistError::Corrupt("two-level-sr counter out of range"));
            }
            inner_counters.push(c);
        }
        let rng = SmallRng::decode_state(dec)?;
        Ok(Self {
            outer,
            outer_counter,
            outer_interval,
            inner,
            inner_counters,
            inner_interval,
            lines,
            region_lines,
            rng,
        })
    }
}

impl JournaledScheme for TwoLevelSr {
    fn before_write_logged(
        &mut self,
        la: LineAddr,
        bank: &mut PcmBank,
        sink: &mut dyn StepSink,
    ) -> (Ns, LineAddr) {
        self.step_if_due(la, bank, sink)
    }

    fn replay_step(&mut self, payload: &[u8]) -> Result<Vec<PhysOp>, PersistError> {
        let raw: [u8; 4] = payload
            .try_into()
            .map_err(|_| PersistError::Corrupt("two-level-sr step payload size"))?;
        match u32::from_le_bytes(raw) {
            0 => {
                self.outer_counter = 0;
                Ok(self.outer_step())
            }
            k => {
                let r = (k - 1) as usize;
                if r >= self.inner.len() {
                    return Err(PersistError::Corrupt("two-level-sr step region"));
                }
                self.inner_counters[r] = 0;
                Ok(self.inner_step(r))
            }
        }
    }

    fn reseed_rng(&mut self, seed: u64) {
        self.rng = SmallRng::seed_from_u64(seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srbsg_pcm::{LineData, MemoryController, TimingModel};

    #[test]
    fn one_level_translation_is_injective_over_time() {
        let wl = SecurityRefresh::new(64, 4, 3, 7);
        let mut mc = MemoryController::new(wl, 1_000_000, TimingModel::PAPER);
        for step in 0..600u64 {
            let mut seen = std::collections::HashSet::new();
            for la in 0..64 {
                assert!(seen.insert(mc.translate(la)), "step {step} la collision");
            }
            mc.write(step % 64, LineData::Zeros);
        }
    }

    #[test]
    fn one_level_data_integrity() {
        let wl = SecurityRefresh::new(32, 2, 2, 3);
        let mut mc = MemoryController::new(wl, 1_000_000, TimingModel::PAPER);
        for la in 0..32 {
            mc.write(la, LineData::Mixed(la as u32));
        }
        for i in 0..3_000u64 {
            mc.write(i % 5, LineData::Mixed((i % 5) as u32));
        }
        for la in 0..32 {
            assert_eq!(mc.read(la).0, LineData::Mixed(la as u32), "la={la}");
        }
    }

    #[test]
    fn two_level_translation_is_injective_over_time() {
        let wl = TwoLevelSr::new(64, 4, 2, 3, 13);
        let mut mc = MemoryController::new(wl, 10_000_000, TimingModel::PAPER);
        for step in 0..2_000u64 {
            let mut seen = std::collections::HashSet::new();
            for la in 0..64 {
                assert!(seen.insert(mc.translate(la)), "step {step} collision");
            }
            mc.write(step % 64, LineData::Zeros);
        }
    }

    #[test]
    fn two_level_data_integrity() {
        let wl = TwoLevelSr::new(64, 8, 2, 2, 21);
        let mut mc = MemoryController::new(wl, 10_000_000, TimingModel::PAPER);
        for la in 0..64 {
            mc.write(la, LineData::Mixed(100 + la as u32));
        }
        for i in 0..10_000u64 {
            mc.write(i % 7, LineData::Mixed(100 + (i % 7) as u32));
        }
        for la in 0..64 {
            assert_eq!(mc.read(la).0, LineData::Mixed(100 + la as u32), "la={la}");
        }
    }

    #[test]
    fn swap_latency_observable_on_refresh() {
        // With ψ = 2 and ALL-0 everywhere, refresh swaps cost 500 ns
        // (Fig. 4(b)) on top of the 125 ns demand write.
        let wl = SecurityRefresh::new(16, 1, 2, 1);
        let mut mc = MemoryController::new(wl, 1_000_000, TimingModel::PAPER);
        let mut lat = Vec::new();
        for i in 0..16 {
            lat.push(mc.write(i % 16, LineData::Zeros).latency_ns);
        }
        // Every second write carries either a 500 ns swap or a skip.
        for (i, &l) in lat.iter().enumerate() {
            if i % 2 == 1 {
                assert!(l == 125 || l == 625, "write {i}: {l}");
            } else {
                assert_eq!(l, 125, "write {i}");
            }
        }
    }

    #[test]
    fn write_repeat_consistency_two_level() {
        for count in [1u64, 5, 17, 64, 300] {
            let mk = || {
                MemoryController::new(
                    TwoLevelSr::new(32, 4, 3, 5, 99),
                    10_000_000,
                    TimingModel::PAPER,
                )
            };
            let mut a = mk();
            let mut b = mk();
            for _ in 0..count {
                a.write(9, LineData::Ones);
            }
            b.write_repeat(9, LineData::Ones, count);
            assert_eq!(a.now_ns(), b.now_ns(), "count={count}");
            assert_eq!(a.bank().wear(), b.bank().wear(), "count={count}");
        }
    }
}
