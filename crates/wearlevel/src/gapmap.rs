//! The Start-Gap mapping primitive (Qureshi et al., MICRO'09; paper Fig. 2).

/// One remap movement of a Start-Gap region: copy `src` into `dst` (the old
/// gap). Indices are slot offsets within the region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GapMovement {
    /// Slot whose data moves.
    pub src: u64,
    /// Slot the data moves into (the previous gap location).
    pub dst: u64,
}

/// The Start-Gap rotation over `lines` logical positions and `lines + 1`
/// slots.
///
/// Mapping (Qureshi's formula): `pa = (idx + start) mod lines;
/// if pa >= gap { pa + 1 }`. One [`GapMapping::advance`] moves the line just
/// below the gap into the gap, shifting the gap down by one; when the gap
/// wraps past slot 0 back to the top, `start` increments and a new rotation
/// round begins. After `lines + 1` movements every line has shifted by one
/// slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GapMapping {
    lines: u64,
    start: u64,
    gap: u64,
}

impl GapMapping {
    /// A fresh region: identity mapping, gap in the top (extra) slot.
    pub fn new(lines: u64) -> Self {
        assert!(lines >= 1);
        Self {
            lines,
            start: 0,
            gap: lines,
        }
    }

    /// Number of logical positions.
    #[inline]
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Number of slots (`lines + 1`).
    #[inline]
    pub fn slots(&self) -> u64 {
        self.lines + 1
    }

    /// Current value of the Start register.
    #[inline]
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Current gap slot.
    #[inline]
    pub fn gap(&self) -> u64 {
        self.gap
    }

    /// Map a logical index (`0..lines`) to its slot (`0..=lines`).
    ///
    /// `(idx + start) mod lines` is a conditional subtract: both terms are
    /// below `lines` (`start` by construction and by `decode_state`), so
    /// their sum is below `2·lines`.
    #[inline]
    pub fn translate(&self, idx: u64) -> u64 {
        debug_assert!(idx < self.lines && self.start < self.lines);
        let mut pa = idx + self.start;
        if pa >= self.lines {
            pa -= self.lines;
        }
        if pa >= self.gap {
            pa + 1
        } else {
            pa
        }
    }

    /// Inverse mapping: which logical index currently occupies `slot`?
    /// Returns `None` for the gap slot.
    pub fn inverse(&self, slot: u64) -> Option<u64> {
        debug_assert!(slot <= self.lines);
        if slot == self.gap {
            return None;
        }
        let pa = if slot > self.gap { slot - 1 } else { slot };
        Some((pa + self.lines - self.start % self.lines) % self.lines)
    }

    /// Perform one gap movement, returning the slot-level copy to execute.
    pub fn advance(&mut self) -> GapMovement {
        let slots = self.slots();
        let src = (self.gap + slots - 1) % slots;
        let mv = GapMovement { src, dst: self.gap };
        self.gap = src;
        if self.gap == self.lines {
            self.start = (self.start + 1) % self.lines;
        }
        mv
    }
}

impl srbsg_persist::MetadataState for GapMapping {
    fn encode_state(&self, enc: &mut srbsg_persist::Enc) {
        enc.u8(srbsg_persist::tags::GAP_MAPPING);
        enc.u64(self.lines);
        enc.u64(self.start);
        enc.u64(self.gap);
    }

    fn decode_state(dec: &mut srbsg_persist::Dec) -> Result<Self, srbsg_persist::PersistError> {
        srbsg_persist::expect_tag(dec, srbsg_persist::tags::GAP_MAPPING)?;
        let lines = dec.u64()?;
        let start = dec.u64()?;
        let gap = dec.u64()?;
        if lines < 1 || start >= lines || gap > lines {
            return Err(srbsg_persist::PersistError::Corrupt(
                "gap mapping registers out of range",
            ));
        }
        Ok(Self { lines, start, gap })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replays the paper's Fig. 2: an 8-line region through one full
    /// remapping round.
    #[test]
    fn fig2_start_gap_round() {
        let mut m = GapMapping::new(8);
        // (a) initial: identity, gap at slot 8.
        assert_eq!(m.gap(), 8);
        for ia in 0..8 {
            assert_eq!(m.translate(ia), ia);
        }
        // (b) 1st remapping: IA7 moves 7 -> 8, gap at 7.
        let mv = m.advance();
        assert_eq!(mv, GapMovement { src: 7, dst: 8 });
        assert_eq!(m.translate(7), 8);
        assert_eq!(m.translate(6), 6);
        // (c) after the 8th remapping all lines have shifted by one.
        for _ in 1..8 {
            m.advance();
        }
        assert_eq!(m.gap(), 0);
        for ia in 0..8 {
            assert_eq!(m.translate(ia), ia + 1);
        }
        // (d) next remapping round: slot 8 (IA7) wraps into slot 0.
        let mv = m.advance();
        assert_eq!(mv, GapMovement { src: 8, dst: 0 });
        assert_eq!(m.translate(7), 0);
        assert_eq!(m.start(), 1);
        assert_eq!(m.gap(), 8);
    }

    #[test]
    fn mapping_is_injective_at_every_step() {
        let mut m = GapMapping::new(5);
        for step in 0..40 {
            let mut seen = vec![false; m.slots() as usize];
            for idx in 0..5 {
                let slot = m.translate(idx);
                assert!(!seen[slot as usize], "step {step}: collision at {slot}");
                seen[slot as usize] = true;
                assert_ne!(slot, m.gap(), "step {step}: line mapped onto gap");
            }
            m.advance();
        }
    }

    #[test]
    fn inverse_matches_translate() {
        let mut m = GapMapping::new(6);
        for _ in 0..25 {
            for idx in 0..6 {
                assert_eq!(m.inverse(m.translate(idx)), Some(idx));
            }
            assert_eq!(m.inverse(m.gap()), None);
            m.advance();
        }
    }

    #[test]
    fn every_lines_movements_shift_everything_by_one() {
        // After each block of `lines` movements, every line has advanced by
        // exactly one slot (mod lines+1) — the uniform-rotation property
        // that makes Start-Gap wear-leveling even out writes.
        let lines = 7u64;
        let mut m = GapMapping::new(lines);
        let mut before: Vec<u64> = (0..lines).map(|i| m.translate(i)).collect();
        for _block in 0..5 {
            for _ in 0..lines {
                m.advance();
            }
            let after: Vec<u64> = (0..lines).map(|i| m.translate(i)).collect();
            for i in 0..lines as usize {
                assert_eq!(after[i], (before[i] + 1) % (lines + 1));
            }
            before = after;
        }
    }

    #[test]
    fn translate_equals_the_modulo_formula_in_every_reached_state() {
        for lines in (1..=9).chain([128]) {
            let mut m = GapMapping::new(lines);
            for step in 0..=lines * (lines + 1) {
                for idx in 0..lines {
                    let pa = (idx + m.start()) % lines;
                    let want = if pa >= m.gap() { pa + 1 } else { pa };
                    assert_eq!(
                        m.translate(idx),
                        want,
                        "lines={lines} step={step} idx={idx}"
                    );
                }
                m.advance();
            }
        }
    }

    #[test]
    fn single_line_region() {
        let mut m = GapMapping::new(1);
        assert_eq!(m.translate(0), 0);
        m.advance();
        assert_eq!(m.translate(0), 1);
        m.advance();
        assert_eq!(m.translate(0), 0);
    }
}
