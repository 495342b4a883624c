#![warn(missing_docs)]

//! Phase Change Memory device model and memory controller.
//!
//! This crate is the simulation substrate of the Security RBSG reproduction.
//! It models a PCM memory bank at line granularity with the paper's device
//! parameters:
//!
//! * READ and RESET (write ‘0’) pulses take 125 ns, SET (write ‘1’) takes
//!   1000 ns — the *asymmetry in write time* that the Remapping Timing
//!   Attack exploits (paper §II-C, Fig. 1).
//! * A line write completes when its slowest bit completes, so writing
//!   ALL-0 data costs RESET time while any data containing a ‘1’ costs SET
//!   time (Fig. 4).
//! * Each line endures a bounded number of writes (10^8 by default); the
//!   first line to exceed its endurance fails the bank.
//!
//! The [`MemoryController`] couples a bank with a [`WearLeveler`] and exposes
//! only `write`/`read` with observable service latencies — exactly the
//! interface a malicious program has. Attack implementations in
//! `srbsg-attacks` are written against this interface so the timing side
//! channel is the *only* information they use.
//!
//! For paper-scale evaluation (2^22 lines, 10^8 endurance) the controller
//! provides [`MemoryController::write_repeat`], which batches the writes
//! between two remap events into one bulk wear update, advancing the
//! simulation in `O(remap events)` instead of `O(writes)`.

mod bank;
mod buffered;
mod controller;
mod faults;
mod multibank;
mod stats;
mod timing;

pub use bank::{FailureInfo, PcmBank};
pub use buffered::BufferedController;
pub use controller::{MemoryController, WriteResponse};
pub use faults::{DegradationReport, FaultConfig, PcmError};
pub use multibank::{MultiBankSystem, SystemDegradationReport};
pub use stats::{
    gini_coefficient, normalized_cumulative_wear, FaultStats, WearAccumulator, WearSummary,
};
pub use timing::TimingModel;

/// A logical or intermediate line address.
pub type LineAddr = u64;

/// Simulated time in nanoseconds.
pub type Ns = u128;

/// Contents of one memory line, represented compactly.
///
/// The attacks in the paper only ever write ALL-0 or ALL-1 patterns (the two
/// timing extremes); ordinary traffic writes mixed data whose worst-case bit
/// forces a SET pulse. The `Mixed` tag lets tests verify data integrity
/// across remapping without storing 256-byte payloads for 2^22 lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LineData {
    /// Every bit is ‘0’ (the paper's ALL-0): fastest possible write.
    #[default]
    Zeros,
    /// Every bit is ‘1’ (the paper's ALL-1): slowest possible write.
    Ones,
    /// Arbitrary data containing both bit values; `tag` distinguishes
    /// payloads so integrity checks can detect misplaced lines.
    Mixed(u32),
}

impl LineData {
    /// Whether writing this data requires a SET pulse somewhere in the line
    /// under the paper's model (which considers only the written data).
    #[inline]
    pub fn needs_set(self) -> bool {
        !matches!(self, LineData::Zeros)
    }
}

/// One physical movement a wear-leveling step performs on the bank.
///
/// Schemes that support journaled persistence (`srbsg-persist`) describe
/// their remap movements as values of this type so a write-ahead journal can
/// record them — together with before-images — before they touch the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhysOp {
    /// Copy the line at `src` into `dst` (Start-Gap style gap movement;
    /// `src` keeps its stale contents and becomes the new gap).
    Move {
        /// Source physical slot.
        src: LineAddr,
        /// Destination physical slot (the current gap).
        dst: LineAddr,
    },
    /// Exchange the lines at `a` and `b` (Security Refresh style swap).
    Swap {
        /// First physical slot.
        a: LineAddr,
        /// Second physical slot.
        b: LineAddr,
    },
}

/// Where a journaled wear-leveling step sends its physical operations.
///
/// A scheme's logged step path computes its metadata transition, then hands
/// the resulting [`PhysOp`]s — plus an opaque `payload` identifying *which*
/// step fired, for deterministic replay — to a sink. The default
/// [`ApplySink`] applies them to the bank directly, making the logged path
/// byte-identical to the plain `before_write`; a journaling sink (in
/// `srbsg-persist`) records them durably first and may also inject a
/// simulated power failure at any point of the record/apply/commit protocol.
pub trait StepSink {
    /// Persist (if applicable) and apply one step's operations, returning
    /// the device latency charged to the triggering demand write.
    fn commit(&mut self, bank: &mut PcmBank, payload: &[u8], ops: &[PhysOp]) -> Ns;
}

/// The trivial sink: apply every operation to the bank, journal nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct ApplySink;

impl StepSink for ApplySink {
    fn commit(&mut self, bank: &mut PcmBank, _payload: &[u8], ops: &[PhysOp]) -> Ns {
        let mut lat = 0;
        for op in ops {
            lat += match *op {
                PhysOp::Move { src, dst } => bank.move_line(src, dst),
                PhysOp::Swap { a, b } => bank.swap_lines(a, b),
            };
        }
        lat
    }
}

/// The wear-leveling interface the memory controller drives.
///
/// A scheme owns its mapping state (registers, keys, counters) and mutates
/// the bank directly when it performs remap movements, so that movement
/// latency is computed from the *actual data* being moved — the side channel
/// RTA observes.
pub trait WearLeveler {
    /// One-time bank setup hook, called by the controller at construction
    /// (e.g. to mark an SRAM-backed spare slot). Default: nothing.
    fn init_bank(&self, _bank: &mut PcmBank) {}

    /// Current mapping of a logical address to a physical slot.
    fn translate(&self, la: LineAddr) -> LineAddr;

    /// Batch variant of [`WearLeveler::translate`]: `out` is cleared and
    /// refilled with `translate(la)` for each address in order. Schemes
    /// with lane-parallel translation kernels (Security RBSG's batched
    /// Feistel network) override this; the default is the scalar loop, so
    /// every implementation stays element-wise identical to `translate`.
    fn translate_batch(&self, las: &[LineAddr], out: &mut Vec<LineAddr>) {
        out.clear();
        out.extend(las.iter().map(|&la| self.translate(la)));
    }

    /// Account one demand write to `la` and perform any remap movement that
    /// becomes due, returning the extra latency those movements impose on
    /// this request and the physical slot the demand write lands on. Called
    /// *before* the demand write is serviced, so the write observes the
    /// post-movement mapping (paper §III: “remapping halts other requests …
    /// incurs extra latency to the request which happens just following the
    /// remapping”): the returned slot equals `translate(la)` right after
    /// the call. Returning it lets a scheme resolve the address once per
    /// write instead of once for the step and again for the write.
    fn before_write(&mut self, la: LineAddr, bank: &mut PcmBank) -> (Ns, LineAddr);

    /// Number of further demand writes to `la` that are guaranteed *not* to
    /// trigger any remap movement (used by `write_repeat` batching). A
    /// conservative scheme may always return 0.
    fn writes_until_remap(&self, la: LineAddr) -> u64;

    /// Account `k` demand writes to `la` in one step, where `k` does not
    /// exceed the quiet window reported by
    /// [`WearLeveler::writes_until_remap`]. Must be observably equivalent to
    /// `k` calls to [`WearLeveler::before_write`] that all return zero
    /// latency.
    fn note_quiet_writes(&mut self, la: LineAddr, k: u64);

    /// Number of logical lines exposed to software.
    fn logical_lines(&self) -> u64;

    /// Number of physical slots the scheme requires (logical lines plus any
    /// gap/spare lines).
    fn physical_slots(&self) -> u64;

    /// Human-readable scheme name for reports.
    fn name(&self) -> &'static str;
}

impl<W: WearLeveler + ?Sized> WearLeveler for Box<W> {
    fn init_bank(&self, bank: &mut PcmBank) {
        (**self).init_bank(bank)
    }
    fn translate(&self, la: LineAddr) -> LineAddr {
        (**self).translate(la)
    }
    fn translate_batch(&self, las: &[LineAddr], out: &mut Vec<LineAddr>) {
        (**self).translate_batch(las, out)
    }
    fn before_write(&mut self, la: LineAddr, bank: &mut PcmBank) -> (Ns, LineAddr) {
        (**self).before_write(la, bank)
    }
    fn writes_until_remap(&self, la: LineAddr) -> u64 {
        (**self).writes_until_remap(la)
    }
    fn note_quiet_writes(&mut self, la: LineAddr, k: u64) {
        (**self).note_quiet_writes(la, k)
    }
    fn logical_lines(&self) -> u64 {
        (**self).logical_lines()
    }
    fn physical_slots(&self) -> u64 {
        (**self).physical_slots()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}
