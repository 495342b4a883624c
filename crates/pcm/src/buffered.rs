//! A write-coalescing buffer in front of the memory controller — the
//! Delayed Write Policy of the RBSG paper, which our paper's §III-B notes
//! "ensures that the attackers have to write more extra lines besides the
//! line attacked" (and which RTA still defeats).
//!
//! Writes land in a small controller-resident LRU buffer; rewriting a
//! buffered line costs only an SRAM update and never reaches PCM. A line
//! reaches PCM (wearing it and advancing the wear-leveling counters) only
//! when evicted by a write to a different address once the buffer is full.

use std::collections::VecDeque;

use crate::{LineAddr, LineData, MemoryController, Ns, PcmError, WearLeveler, WriteResponse};

/// A memory controller fronted by a `depth`-entry write-coalescing buffer.
#[derive(Debug, Clone)]
pub struct BufferedController<W: WearLeveler> {
    inner: MemoryController<W>,
    entries: VecDeque<(LineAddr, LineData)>,
    depth: usize,
    coalesced: u128,
}

impl<W: WearLeveler> BufferedController<W> {
    /// Front `inner` with a `depth`-entry buffer.
    pub fn new(inner: MemoryController<W>, depth: usize) -> Self {
        assert!(depth >= 1);
        Self {
            inner,
            entries: VecDeque::with_capacity(depth),
            depth,
            coalesced: 0,
        }
    }

    /// The wrapped controller (wear statistics etc.).
    pub fn inner(&self) -> &MemoryController<W> {
        &self.inner
    }

    /// Writes absorbed by the buffer without reaching PCM.
    pub fn coalesced_writes(&self) -> u128 {
        self.coalesced
    }

    /// Whether the PCM bank has failed.
    pub fn failed(&self) -> bool {
        self.inner.failed()
    }

    #[inline]
    fn check_la(&self, la: LineAddr) -> Result<(), PcmError> {
        let lines = self.inner.logical_lines();
        if la < lines {
            Ok(())
        } else {
            Err(PcmError::AddressOutOfRange { la, lines })
        }
    }

    /// Service one write through the buffer, validating the address. This
    /// is the typed entry point: an out-of-range address is rejected here,
    /// *before* it can occupy a buffer slot — unvalidated it would be
    /// accepted silently and only blow up at eviction time, deep inside
    /// the inner controller.
    pub fn try_write(&mut self, la: LineAddr, data: LineData) -> Result<WriteResponse, PcmError> {
        self.check_la(la)?;
        Ok(self.write_unchecked(la, data))
    }

    /// Service one write through the buffer. Panics on an out-of-range
    /// address; use [`BufferedController::try_write`] for a typed error.
    pub fn write(&mut self, la: LineAddr, data: LineData) -> WriteResponse {
        self.try_write(la, data)
            .expect("demand write outside the logical address space")
    }

    fn write_unchecked(&mut self, la: LineAddr, data: LineData) -> WriteResponse {
        let t = *self.inner.bank().timing();
        if let Some(pos) = self.entries.iter().position(|(a, _)| *a == la) {
            // Coalesce: refresh the entry, move it to MRU.
            self.entries.remove(pos);
            self.entries.push_back((la, data));
            self.coalesced += 1;
            let latency = (t.sram_ns + t.translation_ns) as Ns;
            self.inner.advance_clock(latency);
            return WriteResponse {
                latency_ns: latency,
                failed: self.inner.failed(),
            };
        }
        let mut latency = (t.sram_ns + t.translation_ns) as Ns;
        let mut failed = self.inner.failed();
        if self.entries.len() >= self.depth {
            // Evict the LRU entry to PCM; the requester waits for it.
            let (ela, edata) = self.entries.pop_front().expect("full buffer");
            let resp = self.inner.write(ela, edata);
            latency += resp.latency_ns;
            failed = resp.failed;
        }
        self.entries.push_back((la, data));
        self.inner
            .advance_clock((t.sram_ns + t.translation_ns) as Ns);
        WriteResponse {
            latency_ns: latency,
            failed,
        }
    }

    /// Read through the buffer (buffer hits never reach PCM), validating
    /// the address.
    pub fn try_read(&mut self, la: LineAddr) -> Result<(LineData, Ns), PcmError> {
        self.check_la(la)?;
        if let Some((_, d)) = self.entries.iter().find(|(a, _)| *a == la) {
            let t = self.inner.bank().timing();
            let lat = (t.sram_ns + t.translation_ns) as Ns;
            let d = *d;
            self.inner.advance_clock(lat);
            return Ok((d, lat));
        }
        self.inner.try_read(la)
    }

    /// Read through the buffer. Panics on an out-of-range address; use
    /// [`BufferedController::try_read`] for a typed error.
    pub fn read(&mut self, la: LineAddr) -> (LineData, Ns) {
        self.try_read(la)
            .expect("demand read outside the logical address space")
    }

    /// Drain every buffered line to PCM.
    pub fn flush(&mut self) -> Ns {
        let mut total = 0;
        while let Some((la, d)) = self.entries.pop_front() {
            total += self.inner.write(la, d).latency_ns;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TimingModel;

    /// Minimal identity scheme for buffer tests.
    #[derive(Debug)]
    struct Flat(u64);
    impl WearLeveler for Flat {
        fn translate(&self, la: LineAddr) -> LineAddr {
            la
        }
        fn before_write(&mut self, la: LineAddr, _b: &mut crate::PcmBank) -> (Ns, LineAddr) {
            (0, la)
        }
        fn writes_until_remap(&self, _la: LineAddr) -> u64 {
            u64::MAX
        }
        fn note_quiet_writes(&mut self, _la: LineAddr, _k: u64) {}
        fn logical_lines(&self) -> u64 {
            self.0
        }
        fn physical_slots(&self) -> u64 {
            self.0
        }
        fn name(&self) -> &'static str {
            "flat"
        }
    }

    fn buffered(depth: usize, endurance: u64) -> BufferedController<Flat> {
        BufferedController::new(
            MemoryController::new(Flat(64), endurance, TimingModel::PAPER),
            depth,
        )
    }

    #[test]
    fn pure_raa_is_fully_absorbed() {
        let mut bc = buffered(4, 1_000);
        for _ in 0..100_000 {
            assert!(!bc.write(7, LineData::Ones).failed);
        }
        assert_eq!(bc.inner().bank().wear_of(7), 0, "no PCM wear at all");
        assert_eq!(bc.coalesced_writes(), 99_999);
    }

    #[test]
    fn rotating_over_depth_plus_one_defeats_the_buffer() {
        let mut bc = buffered(4, 1_000);
        let mut i = 0u64;
        while !bc.failed() {
            bc.write(i % 5, LineData::Ones);
            i += 1;
        }
        // Every write evicts one line: the attack costs ~(depth+1)/1 more
        // writes than bare RAA, exactly the "more extra lines" the paper
        // describes — a constant-factor defence only.
        assert!(
            i < 1_000 * 5 + 64,
            "rotation should defeat the buffer in ~depth+1 × endurance writes: {i}"
        );
    }

    #[test]
    fn reads_see_buffered_data() {
        let mut bc = buffered(2, 1_000);
        bc.write(1, LineData::Mixed(11));
        bc.write(2, LineData::Mixed(22));
        assert_eq!(bc.read(1).0, LineData::Mixed(11));
        // Evict line 1 by writing two more addresses.
        bc.write(3, LineData::Mixed(33));
        bc.write(4, LineData::Mixed(44));
        // Line 1 now lives in PCM; still readable.
        assert_eq!(bc.read(1).0, LineData::Mixed(11));
        assert_eq!(bc.inner().bank().read_line(1), LineData::Mixed(11));
    }

    #[test]
    fn flush_drains_everything() {
        let mut bc = buffered(4, 1_000);
        for la in 0..4 {
            bc.write(la, LineData::Mixed(la as u32));
        }
        assert_eq!(bc.inner().bank().total_writes(), 0);
        bc.flush();
        for la in 0..4u64 {
            assert_eq!(bc.inner().bank().read_line(la), LineData::Mixed(la as u32));
        }
    }

    #[test]
    fn out_of_range_is_rejected_before_buffering() {
        let mut bc = buffered(4, 1_000);
        assert_eq!(
            bc.try_write(64, LineData::Ones),
            Err(PcmError::AddressOutOfRange { la: 64, lines: 64 })
        );
        assert_eq!(
            bc.try_read(99),
            Err(PcmError::AddressOutOfRange { la: 99, lines: 64 })
        );
        // The bad address must not have entered the buffer: filling the
        // buffer and flushing must not replay it into the inner controller.
        for la in 0..4 {
            bc.try_write(la, LineData::Zeros).unwrap();
        }
        bc.flush();
        assert!(!bc.failed());
    }

    #[test]
    #[should_panic(expected = "demand write outside")]
    fn panicking_write_rejects_out_of_range_immediately() {
        // Pre-fix, an out-of-range write parked in the buffer silently and
        // only panicked at eviction time (or never, if never evicted).
        let mut bc = buffered(4, 1_000);
        bc.write(64, LineData::Ones);
    }

    #[test]
    fn coalesced_writes_cost_sram_latency() {
        let mut bc = buffered(2, 1_000);
        bc.write(0, LineData::Ones);
        let r = bc.write(0, LineData::Zeros);
        assert_eq!(r.latency_ns, 10);
    }
}
