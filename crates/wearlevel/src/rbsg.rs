//! Region-Based Start-Gap (Qureshi et al., MICRO'09), the first
//! security-aware algebraic wear-leveling scheme the paper attacks.

use srbsg_feistel::{AddressPermutation, FeistelNetwork, IdentityPermutation};
use srbsg_pcm::{ApplySink, LineAddr, Ns, PcmBank, PhysOp, StepSink, WearLeveler};
use srbsg_persist::{expect_tag, tags, Dec, Enc, JournaledScheme, MetadataState, PersistError};

use crate::GapMapping;

/// Region-Based Start-Gap.
///
/// A *static* randomizer `P` (fixed at boot) maps LA → IA to destroy the
/// spatial locality of the write stream; the IA space is then divided into
/// `R` equal regions, each wear-leveled independently by a [`GapMapping`].
/// Every `interval` (ψ) demand writes *to a region* trigger one gap
/// movement in that region.
///
/// Physical layout: region `r` owns slots
/// `[r·(n_r+1), (r+1)·(n_r+1))` where `n_r = N/R` (each region carries its
/// own gap line), so the scheme needs `N + R` physical slots.
#[derive(Debug, Clone)]
pub struct Rbsg<P: AddressPermutation> {
    randomizer: P,
    regions: Vec<GapMapping>,
    counters: Vec<u64>,
    interval: u64,
    lines: u64,
    region_lines: u64,
}

/// Plain Start-Gap: a single region, no randomizer. The building block the
/// paper's Fig. 2 illustrates.
pub type StartGap = Rbsg<IdentityPermutation>;

impl StartGap {
    /// One Start-Gap region over `lines` (a power of two) with remap
    /// interval ψ = `interval`.
    pub fn start_gap(lines: u64, interval: u64) -> Self {
        assert!(lines.is_power_of_two());
        let width = lines.trailing_zeros();
        Rbsg::new(IdentityPermutation::new(width), 1, interval)
    }
}

impl Rbsg<FeistelNetwork> {
    /// The paper's RBSG configuration: a static 3-stage Feistel randomizer
    /// over `2^width` lines, `regions` regions, remap interval ψ.
    pub fn with_feistel<R: rand::Rng + ?Sized>(
        rng: &mut R,
        width: u32,
        regions: u64,
        interval: u64,
    ) -> Self {
        Self::new(FeistelNetwork::random(rng, width, 3), regions, interval)
    }
}

impl<P: AddressPermutation> Rbsg<P> {
    /// Compose a randomizer with `regions` Start-Gap regions.
    ///
    /// # Panics
    /// Panics if the domain is not divisible by `regions` or `interval` is 0.
    pub fn new(randomizer: P, regions: u64, interval: u64) -> Self {
        let lines = randomizer.domain_size();
        assert!(regions >= 1 && lines.is_multiple_of(regions));
        assert!(interval >= 1);
        let region_lines = lines / regions;
        Self {
            randomizer,
            regions: (0..regions)
                .map(|_| GapMapping::new(region_lines))
                .collect(),
            counters: vec![0; regions as usize],
            interval,
            lines,
            region_lines,
        }
    }

    /// Remap interval ψ.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Number of regions.
    pub fn region_count(&self) -> u64 {
        self.regions.len() as u64
    }

    /// Lines per region (`N/R`).
    pub fn region_lines(&self) -> u64 {
        self.region_lines
    }

    /// The static randomizer.
    pub fn randomizer(&self) -> &P {
        &self.randomizer
    }

    /// The gap mapping of region `r` (white-box inspection).
    pub fn region(&self, r: u64) -> &GapMapping {
        &self.regions[r as usize]
    }

    #[inline]
    fn region_of(&self, ia: u64) -> u64 {
        ia / self.region_lines
    }

    #[inline]
    fn region_base(&self, r: u64) -> u64 {
        r * (self.region_lines + 1)
    }

    /// Map an intermediate address through its region's gap.
    #[inline]
    fn place(&self, ia: u64) -> LineAddr {
        let r = self.region_of(ia);
        self.region_base(r) + self.regions[r as usize].translate(ia % self.region_lines)
    }

    /// The metadata transition of one gap movement in region `r`, plus the
    /// physical copy it implies. Shared by the live path ([`WearLeveler::
    /// before_write`] via [`ApplySink`]) and journal replay so the two can
    /// never diverge.
    fn step_region(&mut self, r: usize) -> Vec<PhysOp> {
        let base = self.region_base(r as u64);
        let mv = self.regions[r].advance();
        vec![PhysOp::Move {
            src: base + mv.src,
            dst: base + mv.dst,
        }]
    }

    /// Count one demand write, step its region if due, and return the
    /// step's latency and the write's post-step slot. The randomizer is
    /// static, so its one encryption serves both.
    fn step_if_due(
        &mut self,
        la: LineAddr,
        bank: &mut PcmBank,
        sink: &mut dyn StepSink,
    ) -> (Ns, LineAddr) {
        let ia = self.randomizer.encrypt(la);
        let r = self.region_of(ia) as usize;
        self.counters[r] += 1;
        let mut latency = 0;
        if self.counters[r] >= self.interval {
            self.counters[r] = 0;
            let ops = self.step_region(r);
            latency = sink.commit(bank, &(r as u32).to_le_bytes(), &ops);
        }
        (latency, self.place(ia))
    }
}

impl<P: AddressPermutation> WearLeveler for Rbsg<P> {
    fn translate(&self, la: LineAddr) -> LineAddr {
        self.place(self.randomizer.encrypt(la))
    }

    fn translate_batch(&self, las: &[LineAddr], out: &mut Vec<LineAddr>) {
        // The static randomizer runs lane-parallel; the per-region gap
        // hop is pure arithmetic and stays scalar.
        out.clear();
        out.extend_from_slice(las);
        self.randomizer.encrypt_batch(out);
        for ia in out.iter_mut() {
            *ia = self.place(*ia);
        }
    }

    fn before_write(&mut self, la: LineAddr, bank: &mut PcmBank) -> (Ns, LineAddr) {
        self.step_if_due(la, bank, &mut ApplySink)
    }

    fn writes_until_remap(&self, la: LineAddr) -> u64 {
        let r = self.region_of(self.randomizer.encrypt(la)) as usize;
        self.interval - 1 - self.counters[r]
    }

    fn note_quiet_writes(&mut self, la: LineAddr, k: u64) {
        let r = self.region_of(self.randomizer.encrypt(la)) as usize;
        self.counters[r] += k;
        debug_assert!(self.counters[r] < self.interval);
    }

    fn logical_lines(&self) -> u64 {
        self.lines
    }

    fn physical_slots(&self) -> u64 {
        self.lines + self.region_count()
    }

    fn name(&self) -> &'static str {
        "rbsg"
    }
}

impl<P: AddressPermutation + MetadataState> MetadataState for Rbsg<P> {
    fn encode_state(&self, enc: &mut Enc) {
        enc.u8(tags::RBSG);
        self.randomizer.encode_state(enc);
        enc.u64(self.interval);
        enc.u32(self.regions.len() as u32);
        for region in &self.regions {
            region.encode_state(enc);
        }
        for &c in &self.counters {
            enc.u64(c);
        }
    }

    fn decode_state(dec: &mut Dec) -> Result<Self, PersistError> {
        expect_tag(dec, tags::RBSG)?;
        let randomizer = P::decode_state(dec)?;
        let lines = randomizer.domain_size();
        let interval = dec.u64()?;
        let region_count = dec.u32()? as u64;
        if interval < 1 || region_count < 1 || !lines.is_multiple_of(region_count) {
            return Err(PersistError::Corrupt("rbsg geometry out of range"));
        }
        let region_lines = lines / region_count;
        let mut regions = Vec::with_capacity(region_count as usize);
        for _ in 0..region_count {
            let region = GapMapping::decode_state(dec)?;
            if region.lines() != region_lines {
                return Err(PersistError::Corrupt("rbsg region size mismatch"));
            }
            regions.push(region);
        }
        let mut counters = Vec::with_capacity(region_count as usize);
        for _ in 0..region_count {
            let c = dec.u64()?;
            if c >= interval {
                return Err(PersistError::Corrupt("rbsg counter out of range"));
            }
            counters.push(c);
        }
        Ok(Self {
            randomizer,
            regions,
            counters,
            interval,
            lines,
            region_lines,
        })
    }
}

impl<P: AddressPermutation + MetadataState> JournaledScheme for Rbsg<P> {
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
            .map_err(|_| PersistError::Corrupt("rbsg step payload size"))?;
        let r = u32::from_le_bytes(raw) as usize;
        if r >= self.regions.len() {
            return Err(PersistError::Corrupt("rbsg step region out of range"));
        }
        self.counters[r] = 0;
        Ok(self.step_region(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use srbsg_pcm::{LineData, MemoryController, TimingModel};

    fn controller(regions: u64, interval: u64) -> MemoryController<Rbsg<FeistelNetwork>> {
        let mut rng = StdRng::seed_from_u64(11);
        let wl = Rbsg::with_feistel(&mut rng, 6, regions, interval);
        MemoryController::new(wl, 1_000_000, TimingModel::PAPER)
    }

    #[test]
    fn translation_is_injective_over_time() {
        let mut mc = controller(4, 3);
        for step in 0..500u64 {
            let mut seen = std::collections::HashSet::new();
            for la in 0..64 {
                assert!(seen.insert(mc.translate(la)), "step {step}");
            }
            mc.write(step % 64, LineData::Mixed(step as u32));
        }
    }

    #[test]
    fn data_integrity_across_many_rounds() {
        let mut mc = controller(2, 2);
        for la in 0..64 {
            mc.write(la, LineData::Mixed(la as u32 + 1));
        }
        // Hammer a couple of addresses through several full rotation rounds.
        for i in 0..2_000u64 {
            mc.write(i % 3, LineData::Mixed((i % 3) as u32 + 1));
        }
        for la in 0..64 {
            assert_eq!(mc.read(la).0, LineData::Mixed(la as u32 + 1), "la={la}");
        }
    }

    #[test]
    fn remap_every_interval_writes_within_region() {
        // With one region every ψ-th write stalls for a movement.
        let mut rng = StdRng::seed_from_u64(3);
        let wl = Rbsg::new(FeistelNetwork::random(&mut rng, 4, 3), 1, 5);
        let mut mc = MemoryController::new(wl, 1_000_000, TimingModel::PAPER);
        let mut slow = 0;
        for i in 0..50 {
            let lat = mc.write(i % 16, LineData::Zeros).latency_ns;
            if lat > 125 {
                slow += 1;
            }
        }
        assert_eq!(slow, 10, "50 writes / ψ=5 = 10 movements");
    }

    #[test]
    fn regions_wear_level_independently() {
        let mut mc = controller(4, 2);
        let la = 7u64;
        let before = mc.translate(la);
        // Writes to la's region advance only that region's rotation.
        for _ in 0..200 {
            mc.write(la, LineData::Zeros);
        }
        let after = mc.translate(la);
        assert_ne!(before, after, "hammered region must have rotated");
    }

    #[test]
    fn start_gap_alias_matches_plain_region() {
        let sg = StartGap::start_gap(16, 4);
        assert_eq!(sg.region_count(), 1);
        assert_eq!(sg.logical_lines(), 16);
        assert_eq!(sg.physical_slots(), 17);
        // Identity randomizer: initial mapping is the identity.
        for la in 0..16 {
            assert_eq!(sg.translate(la), la);
        }
    }

    #[test]
    fn translate_batch_matches_scalar_as_regions_rotate() {
        let mut mc = controller(4, 3);
        let las: Vec<u64> = (0..64).collect();
        let mut out = Vec::new();
        for step in 0..300u64 {
            mc.scheme().translate_batch(&las, &mut out);
            for (i, &la) in las.iter().enumerate() {
                assert_eq!(out[i], mc.translate(la), "step {step}, la {la}");
            }
            mc.write(step % 64, LineData::Zeros);
        }
    }

    #[test]
    fn lvf_is_region_size_times_interval() {
        // A hammered LA stays on one physical slot for at most
        // region_lines × ψ writes to its region (the paper's LVF): verify
        // the slot changes within that budget and wear on any single slot
        // never exceeds it.
        let mut mc = controller(1, 4);
        let la = 5;
        for _ in 0..(64 * 4 + 8) {
            mc.write(la, LineData::Ones);
        }
        let max_wear = mc.bank().wear().iter().copied().max().unwrap();
        assert!(
            max_wear <= 64 * 4 + 1,
            "wear {max_wear} exceeded the LVF bound"
        );
    }
}
