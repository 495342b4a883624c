//! A read batch shorter than one Feistel lane chunk runs the scalar
//! translation and allocates nothing beyond its caller's output: runs of
//! one to three reads are common in the sharded runner, and a batch that
//! never fills a lane chunk gains nothing from the lane-parallel kernel.
//! `SecurityRbsg::translate_batch` routes such a batch to the scalar
//! translation; the controller reuses one slot buffer across batches.
//!
//! Allocations are counted by a global allocator, so this file holds one
//! test: a second test running on another thread would count too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use srbsg_core::{SecurityRbsg, SecurityRbsgConfig};
use srbsg_feistel::LANES;
use srbsg_pcm::{LineData, MemoryController, PcmError, TimingModel};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the counter publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn short_batches_are_scalar_and_allocation_free() {
    let cfg = SecurityRbsgConfig {
        seed: 9,
        ..SecurityRbsgConfig::small(10, 8)
    };
    let mut mc = MemoryController::new(SecurityRbsg::new(cfg), u64::MAX, TimingModel::PAPER);
    // Mid-round state: some lines remapped, one parked in the spare.
    for i in 0..5_000u64 {
        mc.write((i * 37) % 1024, LineData::Mixed(i as u32));
    }
    let las: Vec<u64> = (0..2 * LANES as u64)
        .map(|i| (i * 101) % 1024)
        .chain(mc.scheme().dfn().parked())
        .collect();
    // Batches past one lane chunk take the lane kernels and match the
    // scalar translation and reads; the first also sizes the controller's
    // slot buffer for every shorter batch.
    let mut slots = Vec::with_capacity(las.len());
    let mut reads = Vec::with_capacity(las.len());
    for len in [las.len(), LANES] {
        let batch = &las[las.len() - len..];
        let scalar: Vec<u64> = batch.iter().map(|&la| mc.translate(la)).collect();
        mc.translate_batch(batch, &mut slots);
        assert_eq!(slots, scalar, "translate_batch of {len}");
        let seq: Vec<_> = batch.iter().map(|&la| mc.read(la)).collect();
        mc.read_batch(batch, &mut reads);
        assert_eq!(reads, seq, "read_batch of {len}");
    }
    for len in 1..LANES {
        let batch = &las[las.len() - len..];
        let scalar: Vec<u64> = batch.iter().map(|&la| mc.translate(la)).collect();
        let n = allocs_in(|| mc.translate_batch(batch, &mut slots));
        assert_eq!((n, &slots), (0, &scalar), "translate_batch of {len}");
        let n = allocs_in(|| {
            mc.read_batch(batch, &mut reads);
        });
        assert_eq!(n, 0, "read_batch of {len}");
    }
    // The short path keeps whole-batch rejection: nothing is read and the
    // clock stands.
    let now = mc.now_ns();
    assert!(matches!(
        mc.try_read_batch(&[0, 1, 1 << 10], &mut reads),
        Err(PcmError::AddressOutOfRange { la: 1024, .. })
    ));
    assert_eq!(mc.now_ns(), now);
}
