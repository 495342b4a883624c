#![warn(missing_docs)]

//! Prior PCM wear-leveling schemes from the literature the paper builds on
//! and attacks.
//!
//! Two *pure mapping primitives* carry the algorithmic content:
//!
//! * [`GapMapping`] — the Start-Gap rotation of Qureshi et al. (MICRO'09):
//!   `N` lines rotate through `N + 1` slots one movement at a time
//!   (paper Fig. 2).
//! * [`SrMapping`] — one Security Refresh region of Seong et al. (ISCA'10):
//!   XOR remapping with a current/previous key pair and a refresh pointer,
//!   exploiting the pairwise-swap property (paper Fig. 5).
//!
//! The schemes compose the primitives and implement
//! [`srbsg_pcm::WearLeveler`]:
//!
//! * [`NoWearLeveling`] — the unprotected baseline.
//! * [`StartGap`] — one Start-Gap region over the whole bank.
//! * [`Rbsg`] — Region-Based Start-Gap: a *static* randomizer (Feistel
//!   network) from LA to IA, then per-region Start-Gap.
//! * [`SecurityRefresh`] — one-level SR over one or more regions.
//! * [`TwoLevelSr`] — the hierarchical SR the paper evaluates: an outer SR
//!   over the whole bank and an inner SR per sub-region.
//! * [`MultiWaySr`] — Multi-Way SR (§III-E): way-bit outer keys + inner SR.
//! * [`AdaptiveRbsg`] + [`WriteStreamDetector`] — RBSG coupled to an online
//!   malicious-write-stream detector (the paper's reference \[15\]) that
//!   boosts the remap rate under attack.

mod detector;
mod gapmap;
mod multiway;
mod rbsg;
mod sr;
mod srmap;
mod table;

pub use detector::{AdaptiveRbsg, WriteStreamDetector};
pub use gapmap::{GapMapping, GapMovement};
pub use multiway::MultiWaySr;
pub use rbsg::{Rbsg, StartGap};
pub use sr::{SecurityRefresh, TwoLevelSr};
pub use srmap::{SrMapping, SrSwap};
pub use table::TableWearLeveling;

use srbsg_pcm::{LineAddr, Ns, PcmBank, WearLeveler};

/// The unprotected baseline: identity mapping, no remapping, fails under a
/// Repeated Address Attack in `endurance` writes.
#[derive(Debug, Clone)]
pub struct NoWearLeveling {
    lines: u64,
}

impl NoWearLeveling {
    /// A bank of `lines` logical lines with no translation layer.
    pub fn new(lines: u64) -> Self {
        assert!(lines > 0);
        Self { lines }
    }
}

impl WearLeveler for NoWearLeveling {
    fn translate(&self, la: LineAddr) -> LineAddr {
        la
    }
    fn before_write(&mut self, la: LineAddr, _bank: &mut PcmBank) -> (Ns, LineAddr) {
        (0, la)
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
        "none"
    }
}
