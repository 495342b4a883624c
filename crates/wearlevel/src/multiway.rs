//! Multi-Way Security Refresh (Yu & Du, IEEE TC 2014) — the additional
//! scheme the paper's §III-E shows is vulnerable to the same sub-region
//! detection attack.
//!
//! Interpretation implemented (matching the paper's stated detection cost,
//! "(2N/R)·log2(R) writes to detect the remapping of the target
//! sub-region"): an outer SR whose keys are restricted to the *sub-region
//! index bits* — so lines migrate between ways but keep their offset — and
//! an inner full-key SR per sub-region.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use srbsg_pcm::{ApplySink, LineAddr, Ns, PcmBank, PhysOp, StepSink, WearLeveler};
use srbsg_persist::{expect_tag, tags, Dec, Enc, JournaledScheme, MetadataState, PersistError};

use crate::SrMapping;

/// Multi-Way Security Refresh.
#[derive(Debug, Clone)]
pub struct MultiWaySr {
    /// Outer SR over the whole LA space, keys masked to the way bits.
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

impl MultiWaySr {
    /// Build with `lines` total (power of two), `ways` sub-regions, inner
    /// interval ψ_in, outer interval ψ_out.
    pub fn new(lines: u64, ways: u64, inner_interval: u64, outer_interval: u64, seed: u64) -> Self {
        assert!(lines.is_power_of_two() && ways.is_power_of_two());
        assert!(ways >= 2 && lines.is_multiple_of(ways));
        let region_lines = lines / ways;
        assert!(region_lines >= 2);
        let mut rng = SmallRng::seed_from_u64(seed);
        // Key mask selects only the way-index (high) bits.
        let way_mask = (ways - 1) * region_lines;
        let outer = SrMapping::with_key_mask(lines, way_mask, &mut rng);
        let inner = (0..ways)
            .map(|_| SrMapping::new(region_lines, &mut rng))
            .collect();
        Self {
            outer,
            outer_counter: 0,
            outer_interval,
            inner,
            inner_counters: vec![0; ways as usize],
            inner_interval,
            lines,
            region_lines,
            rng,
        }
    }

    /// Number of ways (sub-regions).
    pub fn ways(&self) -> u64 {
        self.inner.len() as u64
    }

    /// The outer (way-level) mapping, for white-box tests.
    pub fn outer(&self) -> &SrMapping {
        &self.outer
    }

    #[inline]
    fn inner_translate(&self, ia: u64) -> u64 {
        let r = ia / self.region_lines;
        r * self.region_lines + self.inner[r as usize].translate(ia % self.region_lines)
    }

    /// One outer (way-level) refresh step (journal payload 0).
    fn outer_step(&mut self) -> Vec<PhysOp> {
        match self.outer.advance(&mut self.rng) {
            Some(swap) => vec![PhysOp::Swap {
                a: self.inner_translate(swap.a),
                b: self.inner_translate(swap.b),
            }],
            None => Vec::new(),
        }
    }

    /// One inner refresh step in way `r` (journal payload `1 + r`).
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
        self.outer_counter += 1;
        if self.outer_counter >= self.outer_interval {
            self.outer_counter = 0;
            let ops = self.outer_step();
            latency += sink.commit(bank, &0u32.to_le_bytes(), &ops);
        }
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

impl WearLeveler for MultiWaySr {
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
        "multi-way-sr"
    }
}

impl MetadataState for MultiWaySr {
    fn encode_state(&self, enc: &mut Enc) {
        enc.u8(tags::MULTI_WAY_SR);
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
        expect_tag(dec, tags::MULTI_WAY_SR)?;
        let lines = dec.u64()?;
        let inner_interval = dec.u64()?;
        let outer_interval = dec.u64()?;
        let outer_counter = dec.u64()?;
        if inner_interval < 1 || outer_interval < 1 || outer_counter >= outer_interval {
            return Err(PersistError::Corrupt("multi-way-sr intervals out of range"));
        }
        let outer = SrMapping::decode_state(dec)?;
        if outer.lines() != lines {
            return Err(PersistError::Corrupt("multi-way-sr outer size mismatch"));
        }
        let ways = dec.u32()? as u64;
        if ways < 2 || !lines.is_multiple_of(ways) {
            return Err(PersistError::Corrupt("multi-way-sr geometry out of range"));
        }
        let region_lines = lines / ways;
        let mut inner = Vec::with_capacity(ways as usize);
        for _ in 0..ways {
            let m = SrMapping::decode_state(dec)?;
            if m.lines() != region_lines {
                return Err(PersistError::Corrupt("multi-way-sr inner size mismatch"));
            }
            inner.push(m);
        }
        let mut inner_counters = Vec::with_capacity(ways as usize);
        for _ in 0..ways {
            let c = dec.u64()?;
            if c >= inner_interval {
                return Err(PersistError::Corrupt("multi-way-sr counter out of range"));
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

impl JournaledScheme for MultiWaySr {
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
            .map_err(|_| PersistError::Corrupt("multi-way-sr step payload size"))?;
        match u32::from_le_bytes(raw) {
            0 => {
                self.outer_counter = 0;
                Ok(self.outer_step())
            }
            k => {
                let r = (k - 1) as usize;
                if r >= self.inner.len() {
                    return Err(PersistError::Corrupt("multi-way-sr step region"));
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
    fn outer_keys_only_touch_way_bits() {
        let m = MultiWaySr::new(256, 8, 4, 8, 3);
        let way_mask = 7 * 32; // high 3 of 8 bits
        assert_eq!(m.outer().key_c() & !way_mask, 0);
        assert_eq!(m.outer().key_p() & !way_mask, 0);
        // Lines keep their offset within a way.
        for la in 0..256u64 {
            assert_eq!(m.outer().translate(la) % 32, la % 32);
        }
    }

    #[test]
    fn translation_injective_and_data_intact() {
        let wl = MultiWaySr::new(128, 4, 2, 5, 9);
        let mut mc = MemoryController::new(wl, u64::MAX, TimingModel::PAPER);
        for la in 0..128 {
            mc.write(la, LineData::Mixed(la as u32));
        }
        for i in 0..30_000u64 {
            mc.write(i % 11, LineData::Mixed((i % 11) as u32));
        }
        let mut seen = std::collections::HashSet::new();
        for la in 0..128 {
            assert!(seen.insert(mc.translate(la)));
            assert_eq!(mc.read(la).0, LineData::Mixed(la as u32));
        }
    }

    #[test]
    fn write_repeat_consistency() {
        for count in [1u64, 9, 100, 777] {
            let mk = || {
                MemoryController::new(
                    MultiWaySr::new(64, 4, 3, 7, 5),
                    u64::MAX,
                    TimingModel::PAPER,
                )
            };
            let mut a = mk();
            let mut b = mk();
            for _ in 0..count {
                a.write(5, LineData::Ones);
            }
            b.write_repeat(5, LineData::Ones, count);
            assert_eq!(a.now_ns(), b.now_ns(), "count={count}");
            assert_eq!(a.bank().wear(), b.bank().wear());
        }
    }

    #[test]
    fn hammered_line_migrates_between_ways() {
        let wl = MultiWaySr::new(128, 4, 2, 4, 1);
        let mut mc = MemoryController::new(wl, u64::MAX, TimingModel::PAPER);
        let mut ways = std::collections::HashSet::new();
        for _ in 0..200_000u64 {
            mc.write(0, LineData::Ones);
            ways.insert(mc.translate(0) / 32);
        }
        assert!(ways.len() >= 3, "visited only {} ways", ways.len());
    }
}
