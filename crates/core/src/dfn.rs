//! The Dynamic Feistel Network (DFN) mapping — the outer level of Security
//! RBSG (paper §IV-B, Figs. 8–10).
//!
//! Unlike RBSG's *static* randomizer, the DFN re-keys itself every
//! remapping round: at any instant the LA → IA mapping is `ENC_Kc` for
//! lines already remapped this round and `ENC_Kp` for the rest, with one
//! `isRemap` bit per line recording which applies. A gap-chasing procedure
//! migrates one line per remap interval, so a round completes after ~N
//! movements and the keys roll (`Kp ← Kc`, fresh random `Kc`).
//!
//! ## Generalization over the paper (documented deviation)
//!
//! The paper's flowchart (Fig. 9) implicitly assumes the round permutation
//! `π = ENC_Kp ∘ DEC_Kc` is a single cycle: its gap chase starts at line 0's
//! slot and declares the round over when the chase returns there. For
//! arbitrary random key pairs `π` has multiple cycles, and ending the round
//! after the first one would leave lines translated with keys their data was
//! never migrated under — data corruption. This implementation follows each
//! cycle with the same park-chase-unpark procedure the paper uses for the
//! cycle containing slot 0, then *continues with the next unremapped line*
//! until every line has migrated. Fixed points of `π` (lines whose slot does
//! not change) are marked remapped with no movement. On single-cycle
//! permutations the behaviour is exactly the paper's; otherwise it is the
//! correctness-preserving completion.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use srbsg_feistel::{AddressPermutation, FeistelNetwork};
use srbsg_persist::{expect_tag, tags, Dec, Enc, MetadataState, PersistError};

/// Where a logical line currently lives in the intermediate address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IaSlot {
    /// A regular intermediate address in `0..lines`.
    Line(u64),
    /// The dedicated spare line (the paper's "extra spare line").
    Spare,
}

/// One DFN remap movement: copy the data at `src` into `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DfnMove {
    /// Source slot.
    pub src: IaSlot,
    /// Destination slot (vacant before the move).
    pub dst: IaSlot,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// The previous round finished: the next movement rolls the keys and
    /// parks the head of the first cycle.
    RoundBoundary,
    /// Mid-round with the spare vacant: the next movement parks the head of
    /// the next unfinished cycle.
    SpareFree,
    /// Chasing the gap along a cycle; `gap` holds the vacant line slot.
    Chasing,
}

/// The Dynamic Feistel Network mapping over `2^width` lines plus one spare.
#[derive(Debug, Clone)]
pub struct DfnMapping {
    lines: u64,
    width: u32,
    stages: usize,
    enc_c: FeistelNetwork,
    enc_p: FeistelNetwork,
    phase: Phase,
    /// Vacant line slot while `phase == Chasing`.
    gap: u64,
    /// LA whose data currently sits in the spare line.
    parked: Option<u64>,
    /// One bit per LA: remapped (→ `enc_c`) this round?
    is_remapped: Vec<u64>,
    remapped_count: u64,
    /// Scan position for finding the next unremapped cycle head.
    scan_cursor: u64,
    /// Cycle head resolved at the previous cycle's close, parked by the
    /// next movement while `phase == SpareFree`.
    pending_head: u64,
    rounds_completed: u64,
    movements_this_round: u64,
    rng: SmallRng,
}

impl DfnMapping {
    /// A fresh DFN over `2^width` lines with `stages` Feistel stages; keys
    /// are drawn from a deterministic RNG seeded with `seed`.
    pub fn new(width: u32, stages: usize, seed: u64) -> Self {
        assert!((2..=40).contains(&width));
        assert!(stages >= 1);
        let mut rng = SmallRng::seed_from_u64(seed);
        let enc_c = FeistelNetwork::random(&mut rng, width, stages);
        let enc_p = enc_c.clone();
        let lines = 1u64 << width;
        let words = lines.div_ceil(64) as usize;
        Self {
            lines,
            width,
            stages,
            enc_c,
            enc_p,
            phase: Phase::RoundBoundary,
            gap: 0,
            parked: None,
            is_remapped: vec![0; words],
            remapped_count: 0,
            scan_cursor: 0,
            pending_head: 0,
            rounds_completed: 0,
            movements_this_round: 0,
            rng,
        }
    }

    /// Number of logical lines `N`.
    #[inline]
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Address width `B` in bits.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of Feistel stages (the security level).
    #[inline]
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Completed remapping rounds.
    #[inline]
    pub fn rounds_completed(&self) -> u64 {
        self.rounds_completed
    }

    /// Movements performed in the current round so far.
    #[inline]
    pub fn movements_this_round(&self) -> u64 {
        self.movements_this_round
    }

    /// The LA currently parked in the spare line, if any.
    #[inline]
    pub fn parked(&self) -> Option<u64> {
        self.parked
    }

    /// The current-round encryption (white-box inspection).
    pub fn enc_c(&self) -> &FeistelNetwork {
        &self.enc_c
    }

    /// The previous-round encryption (white-box inspection).
    pub fn enc_p(&self) -> &FeistelNetwork {
        &self.enc_p
    }

    #[inline]
    fn remapped(&self, la: u64) -> bool {
        self.is_remapped[(la >> 6) as usize] >> (la & 63) & 1 == 1
    }

    #[inline]
    fn mark_remapped(&mut self, la: u64) {
        debug_assert!(!self.remapped(la));
        self.is_remapped[(la >> 6) as usize] |= 1 << (la & 63);
        self.remapped_count += 1;
    }

    /// Current LA → IA translation (paper Fig. 10, generalized to track the
    /// parked line explicitly).
    ///
    /// # Panics
    /// Panics — in release builds too — if `la` is outside the logical
    /// address space. This is a public API boundary: before the check, an
    /// out-of-range `la` silently indexed the wrong `is_remapped` word (or
    /// panicked deep inside the bitmap) and returned a bogus slot.
    #[inline]
    pub fn translate(&self, la: u64) -> IaSlot {
        self.check_la(la);
        if self.parked == Some(la) {
            return IaSlot::Spare;
        }
        if self.remapped(la) {
            IaSlot::Line(self.enc_c.encrypt(la))
        } else {
            IaSlot::Line(self.enc_p.encrypt(la))
        }
    }

    #[inline]
    fn check_la(&self, la: u64) {
        assert!(
            la < self.lines,
            "DfnMapping::translate: la {la} outside the {}-line logical space",
            self.lines
        );
    }

    /// Batch variant of [`DfnMapping::translate`], element-wise identical
    /// (asserted by the batch property tests) with the Feistel work
    /// lane-parallel: the batch is split by the `isRemap` bit into the
    /// `Kc` and `Kp` sub-batches (the parked line, if present, short-
    /// circuits to [`IaSlot::Spare`]), each sub-batch runs through
    /// [`FeistelNetwork::encrypt_batch`], and the images are scattered
    /// back in original order. `out` is cleared and refilled with one slot
    /// per input address.
    ///
    /// # Panics
    /// Panics if any address is out of range, like
    /// [`DfnMapping::translate`] — the whole batch is validated before any
    /// translation work.
    pub fn translate_batch(&self, las: &[u64], out: &mut Vec<IaSlot>) {
        out.clear();
        out.resize(las.len(), IaSlot::Spare);
        let mut kc = Vec::new();
        let mut kc_pos: Vec<u32> = Vec::new();
        let mut kp = Vec::new();
        let mut kp_pos: Vec<u32> = Vec::new();
        for (i, &la) in las.iter().enumerate() {
            self.check_la(la);
            if self.parked == Some(la) {
                // `out[i]` is already `IaSlot::Spare`.
            } else if self.remapped(la) {
                kc.push(la);
                kc_pos.push(i as u32);
            } else {
                kp.push(la);
                kp_pos.push(i as u32);
            }
        }
        self.enc_c.encrypt_batch(&mut kc);
        self.enc_p.encrypt_batch(&mut kp);
        for (j, &i) in kc_pos.iter().enumerate() {
            out[i as usize] = IaSlot::Line(kc[j]);
        }
        for (j, &i) in kp_pos.iter().enumerate() {
            out[i as usize] = IaSlot::Line(kp[j]);
        }
    }

    /// Find the next cycle head, scanning *slots* in ascending order and
    /// taking their occupant under `Kp` (so the first head of a round is
    /// `DEC_Kp(0)` — exactly the line the paper's Fig. 9 parks first).
    /// Scanning in key-random occupant order matters for security: a fixed
    /// scan over logical addresses would park the same (attacker-chosen)
    /// line every round, letting a hammer on it grind the spare slot
    /// directly. Fixed points of `ENC_Kp ∘ DEC_Kc` are marked remapped
    /// along the way (they need no movement). Returns `None` when the
    /// round is complete.
    fn next_cycle_head(&mut self) -> Option<u64> {
        while self.scan_cursor < self.lines {
            let u = self.enc_p.decrypt(self.scan_cursor);
            if !self.remapped(u) {
                if self.enc_c.encrypt(u) == self.enc_p.encrypt(u) {
                    self.mark_remapped(u);
                } else {
                    return Some(u);
                }
            }
            self.scan_cursor += 1;
        }
        None
    }

    /// Perform one remap movement, returning the data copy to execute.
    ///
    /// The caller (the Security RBSG scheme) is responsible for actually
    /// moving the data in the PCM bank; mapping state here and bank state
    /// there must advance together.
    pub fn advance(&mut self) -> DfnMove {
        match self.phase {
            Phase::RoundBoundary => {
                // Roll the key schedule: Kp ← Kc, fresh random Kc; clear
                // the isRemap bits (paper Fig. 9, top-left box).
                self.enc_p = self.enc_c.clone();
                loop {
                    self.enc_c = FeistelNetwork::random(&mut self.rng, self.width, self.stages);
                    self.is_remapped.iter_mut().for_each(|w| *w = 0);
                    self.remapped_count = 0;
                    self.scan_cursor = 0;
                    self.movements_this_round = 0;
                    match self.next_cycle_head() {
                        Some(u) => return self.park(u),
                        // Degenerate round: the new keys produced the same
                        // permutation, so every line is a fixed point. Roll
                        // again; no data movement is needed for such a
                        // round.
                        None => continue,
                    }
                }
            }
            Phase::SpareFree => {
                let u = self.pending_head;
                self.park(u)
            }
            Phase::Chasing => {
                let loc = self.enc_c.decrypt(self.gap);
                self.movements_this_round += 1;
                if self.parked == Some(loc) {
                    // Cycle closes: the parked line's new home is the gap.
                    let mv = DfnMove {
                        src: IaSlot::Spare,
                        dst: IaSlot::Line(self.gap),
                    };
                    self.mark_remapped(loc);
                    self.parked = None;
                    // Resolve the next cycle head now: the remaining
                    // unremapped lines may all be fixed points, in which
                    // case the round is over despite `remapped_count` not
                    // having reached `lines` before the scan.
                    self.phase = match self.next_cycle_head() {
                        Some(u) => {
                            self.pending_head = u;
                            Phase::SpareFree
                        }
                        None => {
                            self.rounds_completed += 1;
                            Phase::RoundBoundary
                        }
                    };
                    mv
                } else {
                    debug_assert!(!self.remapped(loc));
                    let src = self.enc_p.encrypt(loc);
                    let mv = DfnMove {
                        src: IaSlot::Line(src),
                        dst: IaSlot::Line(self.gap),
                    };
                    self.mark_remapped(loc);
                    self.gap = src;
                    mv
                }
            }
        }
    }

    /// Replace the key-generation RNG with one seeded from `seed`. Used by
    /// the recovery path to re-randomize future rounds after a power cycle.
    pub(crate) fn reseed_rng(&mut self, seed: u64) {
        self.rng = SmallRng::seed_from_u64(seed);
    }

    /// Whether a remapping round is in flight (some lines translated under
    /// `Kc`, others still under `Kp`). At a round boundary the mapping is a
    /// single pure permutation and one fresh round suffices to retire it.
    pub(crate) fn mid_round(&self) -> bool {
        self.phase != Phase::RoundBoundary
    }

    /// Park cycle head `u`: move its data into the spare, vacating its slot.
    fn park(&mut self, u: u64) -> DfnMove {
        let src = self.enc_p.encrypt(u);
        self.parked = Some(u);
        self.gap = src;
        self.phase = Phase::Chasing;
        self.movements_this_round += 1;
        DfnMove {
            src: IaSlot::Line(src),
            dst: IaSlot::Spare,
        }
    }
}

impl MetadataState for DfnMapping {
    fn encode_state(&self, enc: &mut Enc) {
        enc.u8(tags::DFN);
        enc.u32(self.width);
        enc.u32(self.stages as u32);
        self.enc_c.encode_state(enc);
        self.enc_p.encode_state(enc);
        enc.u8(match self.phase {
            Phase::RoundBoundary => 0,
            Phase::SpareFree => 1,
            Phase::Chasing => 2,
        });
        enc.u64(self.gap);
        match self.parked {
            Some(la) => {
                enc.u8(1);
                enc.u64(la);
            }
            None => {
                enc.u8(0);
                enc.u64(0);
            }
        }
        for &w in &self.is_remapped {
            enc.u64(w);
        }
        enc.u64(self.scan_cursor);
        enc.u64(self.pending_head);
        enc.u64(self.rounds_completed);
        enc.u64(self.movements_this_round);
        self.rng.encode_state(enc);
    }

    fn decode_state(dec: &mut Dec) -> Result<Self, PersistError> {
        expect_tag(dec, tags::DFN)?;
        let width = dec.u32()?;
        if !(2..=40).contains(&width) {
            return Err(PersistError::Corrupt("dfn width out of range"));
        }
        let lines = 1u64 << width;
        let stages = dec.u32()? as usize;
        if stages < 1 {
            return Err(PersistError::Corrupt("dfn stage count out of range"));
        }
        let enc_c = FeistelNetwork::decode_state(dec)?;
        let enc_p = FeistelNetwork::decode_state(dec)?;
        if enc_c.width() != width || enc_p.width() != width {
            return Err(PersistError::Corrupt("dfn key width mismatch"));
        }
        let phase = match dec.u8()? {
            0 => Phase::RoundBoundary,
            1 => Phase::SpareFree,
            2 => Phase::Chasing,
            _ => return Err(PersistError::Corrupt("dfn phase tag out of range")),
        };
        let gap = dec.u64()?;
        let parked = match dec.u8()? {
            0 => {
                dec.u64()?;
                None
            }
            1 => Some(dec.u64()?),
            _ => return Err(PersistError::Corrupt("dfn parked flag out of range")),
        };
        if gap >= lines || parked.is_some_and(|la| la >= lines) {
            return Err(PersistError::Corrupt("dfn registers out of range"));
        }
        // Cross-field invariants the stepping logic relies on: the spare is
        // occupied exactly while chasing a cycle.
        if (phase == Phase::Chasing) != parked.is_some() {
            return Err(PersistError::Corrupt("dfn phase/parked mismatch"));
        }
        let words = lines.div_ceil(64) as usize;
        let mut is_remapped = Vec::with_capacity(words);
        for _ in 0..words {
            is_remapped.push(dec.u64()?);
        }
        if !lines.is_multiple_of(64) {
            let tail_mask = !0u64 << (lines % 64);
            if is_remapped.last().is_some_and(|w| w & tail_mask != 0) {
                return Err(PersistError::Corrupt("dfn remap bitset has stray bits"));
            }
        }
        let remapped_count = is_remapped.iter().map(|w| w.count_ones() as u64).sum();
        let scan_cursor = dec.u64()?;
        let pending_head = dec.u64()?;
        if scan_cursor > lines || pending_head >= lines {
            return Err(PersistError::Corrupt("dfn scan registers out of range"));
        }
        let rounds_completed = dec.u64()?;
        let movements_this_round = dec.u64()?;
        let rng = SmallRng::decode_state(dec)?;
        Ok(Self {
            lines,
            width,
            stages,
            enc_c,
            enc_p,
            phase,
            gap,
            parked,
            is_remapped,
            remapped_count,
            scan_cursor,
            pending_head,
            rounds_completed,
            movements_this_round,
            rng,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// A model memory in IA space that executes the DFN's movements and
    /// checks the mapping invariant after every step.
    struct Model {
        dfn: DfnMapping,
        /// slot (or spare) → content tag; content tag k belongs to LA k.
        mem: HashMap<IaSlot, u64>,
    }

    impl Model {
        fn new(width: u32, stages: usize, seed: u64) -> Self {
            let dfn = DfnMapping::new(width, stages, seed);
            let mem = (0..dfn.lines()).map(|la| (dfn.translate(la), la)).collect();
            Self { dfn, mem }
        }

        fn step(&mut self) {
            let mv = self.dfn.advance();
            let data = *self
                .mem
                .get(&mv.src)
                .unwrap_or_else(|| panic!("move from vacant slot {:?}", mv.src));
            self.mem.insert(mv.dst, data);
            self.mem.remove(&mv.src);
            self.check();
        }

        fn check(&self) {
            for la in 0..self.dfn.lines() {
                let slot = self.dfn.translate(la);
                assert_eq!(
                    self.mem.get(&slot),
                    Some(&la),
                    "LA {la} translates to {slot:?} which holds {:?} (round {}, mv {})",
                    self.mem.get(&slot),
                    self.dfn.rounds_completed(),
                    self.dfn.movements_this_round(),
                );
            }
        }
    }

    #[test]
    fn mapping_tracks_data_through_many_rounds() {
        for seed in 0..6 {
            let mut m = Model::new(4, 3, seed);
            m.check();
            for _ in 0..400 {
                m.step();
            }
            assert!(
                m.dfn.rounds_completed() >= 10,
                "seed {seed}: only {} rounds in 400 movements",
                m.dfn.rounds_completed()
            );
        }
    }

    #[test]
    fn multi_stage_and_width_combinations() {
        for (width, stages) in [(2u32, 1usize), (3, 2), (5, 7), (6, 3)] {
            let mut m = Model::new(width, stages, 42);
            for _ in 0..300 {
                m.step();
            }
        }
    }

    #[test]
    fn translation_is_injective_at_every_step() {
        let mut dfn = DfnMapping::new(5, 3, 7);
        for step in 0..500 {
            let mut seen = std::collections::HashSet::new();
            for la in 0..32 {
                assert!(seen.insert(dfn.translate(la)), "step {step}");
            }
            dfn.advance();
        }
    }

    #[test]
    fn round_end_mapping_is_pure_enc_c() {
        let mut dfn = DfnMapping::new(4, 2, 3);
        let before_rounds = dfn.rounds_completed();
        while dfn.rounds_completed() == before_rounds {
            dfn.advance();
        }
        // At a round boundary every line translates under the (new) previous
        // key — i.e., the enc_c that just finished migrating.
        for la in 0..16 {
            assert_eq!(dfn.translate(la), IaSlot::Line(dfn.enc_c().encrypt(la)));
        }
        assert!(dfn.parked().is_none());
    }

    #[test]
    fn keys_change_every_round() {
        let mut dfn = DfnMapping::new(6, 3, 11);
        let mut perms: Vec<Vec<u64>> = Vec::new();
        for _ in 0..4 {
            let target = dfn.rounds_completed() + 1;
            while dfn.rounds_completed() < target {
                dfn.advance();
            }
            perms.push((0..64).map(|la| dfn.enc_c().encrypt(la)).collect());
        }
        // All four post-round permutations should be distinct (probability
        // of collision is negligible at width 6 with 3 stages).
        for i in 0..perms.len() {
            for j in i + 1..perms.len() {
                assert_ne!(perms[i], perms[j], "rounds {i} and {j} share keys");
            }
        }
    }

    /// Finding F1 (DESIGN.md): the cubing round function is a bitwise
    /// T-function, so the round permutation `ENC_Kp ∘ DEC_Kc` has vastly
    /// more cycles than a random permutation (~ln N). This test pins the
    /// measurement that motivated the SRAM-backed spare.
    #[test]
    fn round_permutation_has_many_cycles() {
        use srbsg_feistel::{AddressPermutation, FeistelNetwork};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let n = 1u64 << 12;
        let a = FeistelNetwork::random(&mut rng, 12, 7);
        let b = FeistelNetwork::random(&mut rng, 12, 7);
        let mut seen = vec![false; n as usize];
        let mut cycles = 0u64;
        for start in 0..n {
            if seen[start as usize] {
                continue;
            }
            let mut x = start;
            while !seen[x as usize] {
                seen[x as usize] = true;
                x = a.encrypt(b.decrypt(x));
            }
            cycles += 1;
        }
        // A uniform-random permutation would have ~ln(4096) ≈ 8 cycles;
        // the T-function structure forces ≥ N/64.
        assert!(
            cycles > n / 64,
            "expected a heavily fragmented cycle structure, got {cycles}"
        );
    }

    #[test]
    fn movements_per_round_near_n() {
        // Each round needs N movements plus one park per non-trivial cycle
        // minus fixed points: bounded by N + #cycles ≤ 2N, and ≥ a couple.
        let mut dfn = DfnMapping::new(6, 3, 5);
        for _ in 0..6 {
            let target = dfn.rounds_completed() + 1;
            let mut moves = 0u64;
            while dfn.rounds_completed() < target {
                dfn.advance();
                moves += 1;
            }
            assert!(
                (2..=2 * 64).contains(&moves),
                "implausible movement count {moves}"
            );
        }
    }

    /// The batched translation must agree with the scalar path at every
    /// remap phase: mid-cycle (parked line present), between cycles, and
    /// at round boundaries. Width 5 gives a batch shorter than one 64-lane
    /// chunk (only the kernels' scalar tail runs), width 7 two full chunks.
    #[test]
    fn batch_translate_matches_scalar_through_rounds() {
        for width in [5, 7] {
            let mut dfn = DfnMapping::new(width, 3, 9);
            let las: Vec<u64> = (0..dfn.lines()).collect();
            let mut out = Vec::new();
            for step in 0..10 * dfn.lines() {
                dfn.translate_batch(&las, &mut out);
                for (i, &la) in las.iter().enumerate() {
                    assert_eq!(out[i], dfn.translate(la), "w{width} step {step}, la {la}");
                }
                dfn.advance();
            }
            assert!(
                dfn.rounds_completed() >= 3,
                "w{width}: sweep crosses rounds"
            );
        }
    }

    #[test]
    #[should_panic(expected = "outside the 32-line logical space")]
    fn translate_rejects_out_of_range_la() {
        let dfn = DfnMapping::new(5, 3, 1);
        dfn.translate(32);
    }

    /// Release-profile duplicate of `translate_rejects_out_of_range_la`:
    /// the whole point of promoting the `debug_assert!` is that the check
    /// fires with debug assertions compiled out. The CI heavy step runs
    /// exactly the `#[ignore]`d tests under `--release` (`cargo test
    /// --release -- --ignored`), giving this coverage in both profiles.
    #[test]
    #[ignore = "release-profile duplicate; run by the CI heavy step via --ignored"]
    #[should_panic(expected = "outside the 32-line logical space")]
    fn translate_rejects_out_of_range_la_release() {
        let dfn = DfnMapping::new(5, 3, 1);
        dfn.translate(32);
    }

    #[test]
    #[should_panic(expected = "outside the 16-line logical space")]
    fn translate_batch_rejects_out_of_range_la() {
        let dfn = DfnMapping::new(4, 3, 1);
        let mut out = Vec::new();
        // Past one lane chunk, so the stray address sits in a batch the
        // lane kernels would take.
        let las: Vec<u64> = (0..80).map(|i| i % 16).chain([16]).collect();
        dfn.translate_batch(&las, &mut out);
    }
}
