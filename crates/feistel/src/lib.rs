#![warn(missing_docs)]

//! Invertible address randomizers for PCM wear-leveling.
//!
//! This crate implements the address-space randomization substrate used by
//! the wear-leveling schemes in the Security RBSG paper (IPDPS 2016):
//!
//! * [`FeistelNetwork`] — a multi-stage Feistel network whose round function
//!   is the paper's *cubing* function `L' = R XOR (L XOR K)^3`. This is the
//!   static randomizer in Region-Based Start-Gap and the dynamically re-keyed
//!   permutation at the heart of Security RBSG's outer level.
//! * [`RibmPermutation`] — a random invertible binary matrix over GF(2), the
//!   alternative static randomizer mentioned by the RBSG paper.
//! * [`IdentityPermutation`] — the no-op mapping, for baselines and tests.
//!
//! All randomizers implement [`AddressPermutation`]: a bijection over the
//! `2^width` line-address space with both forward (`encrypt`) and inverse
//! (`decrypt`) directions.
//!
//! Odd address widths are supported via *cycle walking*: the value is passed
//! through a one-bit-wider balanced network repeatedly until it lands back in
//! the domain. Because the wider network is a permutation, this terminates
//! and yields a permutation of the original domain.

mod matrix;

pub use matrix::RibmPermutation;

use rand::{Rng, RngExt};

/// A bijection over the address space `0..2^width`.
///
/// `decrypt` must be the exact inverse of `encrypt` over that domain.
pub trait AddressPermutation {
    /// Number of address bits `B`. The domain is `0..(1 << B)`.
    fn width(&self) -> u32;

    /// Map a logical address to its randomized image.
    fn encrypt(&self, x: u64) -> u64;

    /// Inverse of [`AddressPermutation::encrypt`].
    fn decrypt(&self, y: u64) -> u64;

    /// Map a batch of addresses in place: element-wise identical to
    /// applying [`AddressPermutation::encrypt`] to each element. The
    /// default is the scalar loop; implementations with lane-parallel
    /// kernels (see [`FeistelNetwork::encrypt_batch`]) override it.
    fn encrypt_batch(&self, addrs: &mut [u64]) {
        for a in addrs.iter_mut() {
            *a = self.encrypt(*a);
        }
    }

    /// Batch inverse, element-wise identical to
    /// [`AddressPermutation::decrypt`].
    fn decrypt_batch(&self, addrs: &mut [u64]) {
        for a in addrs.iter_mut() {
            *a = self.decrypt(*a);
        }
    }

    /// Size of the address domain (`2^width`).
    #[inline]
    fn domain_size(&self) -> u64 {
        1u64 << self.width()
    }
}

/// The identity mapping. Used by the no-wear-leveling baseline and by
/// schemes configured without a randomizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdentityPermutation {
    width: u32,
}

impl IdentityPermutation {
    /// Create the identity over `0..2^width`.
    ///
    /// # Panics
    /// Panics if `width` is 0 or exceeds 63.
    pub fn new(width: u32) -> Self {
        assert!((1..=63).contains(&width), "address width must be 1..=63");
        Self { width }
    }
}

impl AddressPermutation for IdentityPermutation {
    fn width(&self) -> u32 {
        self.width
    }

    #[inline]
    fn encrypt(&self, x: u64) -> u64 {
        debug_assert!(x < self.domain_size());
        x
    }

    #[inline]
    fn decrypt(&self, y: u64) -> u64 {
        debug_assert!(y < self.domain_size());
        y
    }
}

/// Per-round keys of a Feistel network.
///
/// The paper stores `B` bits of key per stage (§V-C3); only the low
/// half-width bits participate in the round function, which is the part that
/// determines the permutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyArray {
    keys: Vec<u64>,
}

impl KeyArray {
    /// Draw a fresh key array of `stages` keys, each `key_bits` wide.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, stages: usize, key_bits: u32) -> Self {
        assert!(stages >= 1, "a Feistel network needs at least one stage");
        assert!((1..=63).contains(&key_bits));
        let mask = (1u64 << key_bits) - 1;
        let keys = (0..stages).map(|_| rng.random::<u64>() & mask).collect();
        Self { keys }
    }

    /// Build from explicit keys (used by tests and worked examples).
    pub fn from_keys(keys: Vec<u64>) -> Self {
        assert!(!keys.is_empty());
        Self { keys }
    }

    /// Number of stages this key array drives.
    pub fn stages(&self) -> usize {
        self.keys.len()
    }

    /// The per-stage keys.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }
}

/// Multi-stage Feistel network over a `width`-bit address space with the
/// cubing round function from the paper: `L' = R XOR (L XOR K)^3`.
///
/// For even widths the two halves are `width/2` bits each. Odd widths are
/// handled by cycle-walking a `(width+1)`-bit network.
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use srbsg_feistel::{AddressPermutation, FeistelNetwork, KeyArray};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let keys = KeyArray::random(&mut rng, 3, 11);
/// let net = FeistelNetwork::new(22, keys);
/// let la = 0x1234_5u64 & ((1 << 22) - 1);
/// assert_eq!(net.decrypt(net.encrypt(la)), la);
/// ```
#[derive(Debug, Clone)]
pub struct FeistelNetwork {
    /// External address width (the domain is `0..2^width`).
    width: u32,
    /// Internal (possibly width+1) even width actually run through the rounds.
    inner_width: u32,
    half: u32,
    half_mask: u64,
    keys: KeyArray,
}

/// Number of addresses evaluated per lane-parallel chunk of the batch
/// kernels. 64 × u32 half-words is four AVX-512 (eight AVX2) registers
/// per variable: wide enough to auto-vectorize the cubing round AND keep
/// four independent multiply chains in flight per stage, which matters
/// because the two dependent `vpmulld`s of one cube otherwise leave the
/// multiplier idle for their full latency. A batch shorter than one chunk
/// gains nothing from the kernels, so callers may route it to the scalar
/// path instead.
pub const LANES: usize = 64;

impl FeistelNetwork {
    /// The even internal width a `width`-bit network runs through its
    /// rounds: `width` itself when even, `width + 1` (cycle-walked) when
    /// odd. Both constructors route through here so the width rule cannot
    /// diverge between them.
    #[inline]
    fn inner_width_for(width: u32) -> u32 {
        if width.is_multiple_of(2) {
            width
        } else {
            width + 1
        }
    }

    /// Build a network over `width` address bits with the given keys.
    ///
    /// # Panics
    /// Panics if `width` is not in `2..=62` or `keys` is empty.
    pub fn new(width: u32, keys: KeyArray) -> Self {
        assert!((2..=62).contains(&width), "address width must be 2..=62");
        let inner_width = Self::inner_width_for(width);
        let half = inner_width / 2;
        Self {
            width,
            inner_width,
            half,
            half_mask: (1u64 << half) - 1,
            keys,
        }
    }

    /// Build with `stages` random keys drawn from `rng`.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, width: u32, stages: usize) -> Self {
        let keys = KeyArray::random(rng, stages, Self::inner_width_for(width) / 2);
        Self::new(width, keys)
    }

    /// Number of Feistel stages (the paper's security-level knob).
    pub fn stages(&self) -> usize {
        self.keys.stages()
    }

    /// The key array currently in use.
    pub fn keys(&self) -> &KeyArray {
        &self.keys
    }

    /// The cubing round function: `(L XOR K)^3 mod 2^half`.
    #[inline]
    fn round(&self, l: u64, key: u64) -> u64 {
        let v = (l ^ key) & self.half_mask;
        let v = v as u128;
        let cube = v.wrapping_mul(v).wrapping_mul(v);
        (cube as u64) & self.half_mask
    }

    /// One forward pass through all stages over the inner (even) width.
    #[inline]
    fn enc_inner(&self, x: u64) -> u64 {
        let mut l = (x >> self.half) & self.half_mask;
        let mut r = x & self.half_mask;
        for &k in self.keys.keys() {
            let new_l = r ^ self.round(l, k);
            r = l;
            l = new_l;
        }
        (l << self.half) | r
    }

    /// One inverse pass (stages in reverse order) over the inner width.
    #[inline]
    fn dec_inner(&self, y: u64) -> u64 {
        let mut l = (y >> self.half) & self.half_mask;
        let mut r = y & self.half_mask;
        for &k in self.keys.keys().iter().rev() {
            // Forward stage was (l, r) -> (r ^ F(l), l): invert it.
            let old_l = r;
            let old_r = l ^ self.round(old_l, k);
            l = old_l;
            r = old_r;
        }
        (l << self.half) | r
    }

    /// Lane-parallel forward pass: replaces every element of `addrs` with
    /// its [`FeistelNetwork::enc_inner`] image. Addresses are processed in
    /// [`LANES`]-wide chunks with the halves split into per-lane arrays and
    /// the stage loop outermost, so each stage is `LANES` independent
    /// cubing rounds — straight-line integer code the compiler
    /// auto-vectorizes. The key schedule, half shift, and half mask are
    /// hoisted out of the lane loop.
    ///
    /// Bit-identical to the scalar pass: the half-words fit 31 bits
    /// (`half <= 31`), so the lanes run the cube in `u32` wrapping
    /// arithmetic instead of the scalar path's `u128` — the low `half`
    /// bits of the wrapped 32-bit product equal the exact product's
    /// because `2^half` divides `2^32`. 32-bit lanes also double the SIMD
    /// width and map onto packed multiplies every x86-64 tier since SSE4
    /// actually has (`vpmulld`); the wrappers below re-compile this body
    /// for AVX-512 and AVX2 and dispatch on runtime CPU detection.
    #[inline(always)]
    fn enc_inner_batch_impl(&self, addrs: &mut [u64]) {
        let half = self.half;
        let mask = self.half_mask as u32;
        let keys = self.keys.keys();
        let mut chunks = addrs.chunks_exact_mut(LANES);
        for chunk in &mut chunks {
            let mut l = [0u32; LANES];
            let mut r = [0u32; LANES];
            for i in 0..LANES {
                l[i] = (chunk[i] >> half) as u32 & mask;
                r[i] = chunk[i] as u32 & mask;
            }
            for &k in keys {
                let k = k as u32;
                for i in 0..LANES {
                    let v = (l[i] ^ k) & mask;
                    let cube = v.wrapping_mul(v).wrapping_mul(v) & mask;
                    let new_l = r[i] ^ cube;
                    r[i] = l[i];
                    l[i] = new_l;
                }
            }
            for i in 0..LANES {
                chunk[i] = ((l[i] as u64) << half) | r[i] as u64;
            }
        }
        for a in chunks.into_remainder() {
            *a = self.enc_inner(*a);
        }
    }

    /// Lane-parallel inverse pass; see
    /// [`FeistelNetwork::enc_inner_batch_impl`].
    #[inline(always)]
    fn dec_inner_batch_impl(&self, addrs: &mut [u64]) {
        let half = self.half;
        let mask = self.half_mask as u32;
        let keys = self.keys.keys();
        let mut chunks = addrs.chunks_exact_mut(LANES);
        for chunk in &mut chunks {
            let mut l = [0u32; LANES];
            let mut r = [0u32; LANES];
            for i in 0..LANES {
                l[i] = (chunk[i] >> half) as u32 & mask;
                r[i] = chunk[i] as u32 & mask;
            }
            for &k in keys.iter().rev() {
                let k = k as u32;
                for i in 0..LANES {
                    let old_l = r[i];
                    let v = (old_l ^ k) & mask;
                    let cube = v.wrapping_mul(v).wrapping_mul(v) & mask;
                    r[i] = l[i] ^ cube;
                    l[i] = old_l;
                }
            }
            for i in 0..LANES {
                chunk[i] = ((l[i] as u64) << half) | r[i] as u64;
            }
        }
        for a in chunks.into_remainder() {
            *a = self.dec_inner(*a);
        }
    }

    /// # Safety
    /// Caller must have verified AVX-512F support at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn enc_inner_batch_avx512(&self, addrs: &mut [u64]) {
        self.enc_inner_batch_impl(addrs)
    }

    /// # Safety
    /// Caller must have verified AVX-512F support at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn dec_inner_batch_avx512(&self, addrs: &mut [u64]) {
        self.dec_inner_batch_impl(addrs)
    }

    /// # Safety
    /// Caller must have verified AVX2 support at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn enc_inner_batch_avx2(&self, addrs: &mut [u64]) {
        self.enc_inner_batch_impl(addrs)
    }

    /// # Safety
    /// Caller must have verified AVX2 support at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn dec_inner_batch_avx2(&self, addrs: &mut [u64]) {
        self.dec_inner_batch_impl(addrs)
    }

    /// Lane-parallel forward pass, dispatched to the widest SIMD tier the
    /// CPU supports (the `#[target_feature]` wrappers re-compile the
    /// identical safe body, so every tier is bit-identical by
    /// construction).
    fn enc_inner_batch(&self, addrs: &mut [u64]) {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                // SAFETY: feature presence checked on this line.
                return unsafe { self.enc_inner_batch_avx512(addrs) };
            }
            if is_x86_feature_detected!("avx2") {
                // SAFETY: feature presence checked on this line.
                return unsafe { self.enc_inner_batch_avx2(addrs) };
            }
        }
        self.enc_inner_batch_impl(addrs)
    }

    /// Lane-parallel inverse pass; see [`FeistelNetwork::enc_inner_batch`].
    fn dec_inner_batch(&self, addrs: &mut [u64]) {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                // SAFETY: feature presence checked on this line.
                return unsafe { self.dec_inner_batch_avx512(addrs) };
            }
            if is_x86_feature_detected!("avx2") {
                // SAFETY: feature presence checked on this line.
                return unsafe { self.dec_inner_batch_avx2(addrs) };
            }
        }
        self.dec_inner_batch_impl(addrs)
    }

    #[cold]
    #[inline(never)]
    fn walk_diverged(&self) -> ! {
        panic!(
            "FeistelNetwork cycle walk exceeded its {}-step bound \
             (width {}, inner width {}, {} stages): the inner pass is not \
             a permutation of the inner domain — corrupted width/key state",
            self.domain_size(),
            self.width,
            self.inner_width,
            self.stages(),
        );
    }

    /// Cycle-walk one already-passed value back into the external domain.
    ///
    /// For a true permutation the walk visits distinct out-of-domain
    /// values, of which an odd-width network has exactly `2^width` — so a
    /// walk longer than [`AddressPermutation::domain_size`] steps proves
    /// the state does not describe a permutation (e.g. corrupted key or
    /// width metadata) and the walk panics instead of spinning forever.
    #[inline]
    fn walk(&self, mut v: u64, inner: fn(&Self, u64) -> u64) -> u64 {
        let limit = self.domain_size();
        let mut steps = 0u64;
        while v >= limit {
            steps += 1;
            if steps > limit {
                self.walk_diverged();
            }
            v = inner(self, v);
        }
        v
    }

    /// Batch cycle walk: compacts the indices of still-out-of-domain lanes
    /// and re-walks only those through the lane-parallel inner pass,
    /// scattering results back in place. Each round advances every pending
    /// lane by one walk step, so the same `domain_size()` bound as the
    /// scalar walk applies per round.
    fn walk_batch(&self, addrs: &mut [u64], inner: fn(&Self, &mut [u64])) {
        let limit = self.domain_size();
        let mut pending: Vec<u32> = (0..addrs.len() as u32)
            .filter(|&i| addrs[i as usize] >= limit)
            .collect();
        let mut vals: Vec<u64> = Vec::with_capacity(pending.len());
        let mut steps = 0u64;
        while !pending.is_empty() {
            steps += 1;
            if steps > limit {
                self.walk_diverged();
            }
            vals.clear();
            vals.extend(pending.iter().map(|&i| addrs[i as usize]));
            inner(self, &mut vals);
            let mut kept = 0usize;
            for j in 0..pending.len() {
                let i = pending[j];
                addrs[i as usize] = vals[j];
                // Compact in place: `kept <= j`, so the write never
                // clobbers an unread entry.
                if vals[j] >= limit {
                    pending[kept] = i;
                    kept += 1;
                }
            }
            pending.truncate(kept);
        }
    }
}

impl AddressPermutation for FeistelNetwork {
    fn width(&self) -> u32 {
        self.width
    }

    fn encrypt(&self, x: u64) -> u64 {
        debug_assert!(x < self.domain_size());
        if self.inner_width == self.width {
            return self.enc_inner(x);
        }
        // Cycle-walk the one-bit-wider permutation until the image lands
        // back in the external domain. Expected two iterations.
        self.walk(self.enc_inner(x), Self::enc_inner)
    }

    fn decrypt(&self, y: u64) -> u64 {
        debug_assert!(y < self.domain_size());
        if self.inner_width == self.width {
            return self.dec_inner(y);
        }
        self.walk(self.dec_inner(y), Self::dec_inner)
    }

    /// Lane-parallel batch encryption, bit-identical to the scalar
    /// [`AddressPermutation::encrypt`] element-wise (asserted by the batch
    /// property tests). Odd widths cycle-walk by compaction: only the
    /// lanes still out of domain are gathered and re-walked.
    fn encrypt_batch(&self, addrs: &mut [u64]) {
        debug_assert!(addrs.iter().all(|&x| x < self.domain_size()));
        self.enc_inner_batch(addrs);
        if self.inner_width != self.width {
            self.walk_batch(addrs, Self::enc_inner_batch);
        }
    }

    /// Lane-parallel batch decryption; see
    /// [`AddressPermutation::encrypt_batch`].
    fn decrypt_batch(&self, addrs: &mut [u64]) {
        debug_assert!(addrs.iter().all(|&y| y < self.domain_size()));
        self.dec_inner_batch(addrs);
        if self.inner_width != self.width {
            self.walk_batch(addrs, Self::dec_inner_batch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_permutation<P: AddressPermutation>(p: &P) {
        let n = p.domain_size();
        let mut seen = vec![false; n as usize];
        for x in 0..n {
            let y = p.encrypt(x);
            assert!(y < n, "image {y} out of domain for input {x}");
            assert!(!seen[y as usize], "collision at image {y}");
            seen[y as usize] = true;
            assert_eq!(p.decrypt(y), x, "decrypt(encrypt({x})) != {x}");
        }
    }

    #[test]
    fn identity_is_identity() {
        let p = IdentityPermutation::new(6);
        for x in 0..64 {
            assert_eq!(p.encrypt(x), x);
            assert_eq!(p.decrypt(x), x);
        }
    }

    #[test]
    fn feistel_even_width_is_permutation() {
        for stages in [1, 3, 7] {
            for seed in 0..4 {
                let mut rng = StdRng::seed_from_u64(seed);
                let net = FeistelNetwork::random(&mut rng, 8, stages);
                assert_permutation(&net);
            }
        }
    }

    #[test]
    fn feistel_odd_width_is_permutation() {
        for stages in [2, 5] {
            for seed in 0..4 {
                let mut rng = StdRng::seed_from_u64(seed);
                let net = FeistelNetwork::random(&mut rng, 9, stages);
                assert_permutation(&net);
            }
        }
    }

    #[test]
    fn feistel_large_width_roundtrip() {
        let mut rng = StdRng::seed_from_u64(99);
        let net = FeistelNetwork::random(&mut rng, 22, 7);
        for x in [0u64, 1, 12345, (1 << 22) - 1, 0x2AAAAA] {
            assert_eq!(net.decrypt(net.encrypt(x)), x);
        }
    }

    #[test]
    fn different_keys_usually_differ() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = FeistelNetwork::random(&mut rng, 16, 3);
        let b = FeistelNetwork::random(&mut rng, 16, 3);
        let differs = (0u64..1 << 16).any(|x| a.encrypt(x) != b.encrypt(x));
        assert!(differs, "two independently keyed networks were identical");
    }

    #[test]
    fn single_stage_matches_formula() {
        // One stage over 8 bits: (L,R) -> (R ^ (L^K)^3 mod 16, L).
        let keys = KeyArray::from_keys(vec![0b1010]);
        let net = FeistelNetwork::new(8, keys);
        let x = 0b1101_0110u64; // L = 1101, R = 0110
        let l = 0b1101u64;
        let r = 0b0110u64;
        let f = ((l ^ 0b1010).pow(3)) & 0xF;
        let expected = ((r ^ f) << 4) | l;
        assert_eq!(net.encrypt(x), expected);
    }

    #[test]
    fn key_array_stage_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let ka = KeyArray::random(&mut rng, 6, 11);
        assert_eq!(ka.stages(), 6);
        assert!(ka.keys().iter().all(|&k| k < (1 << 11)));
    }

    /// A network with a half mask inconsistent with its half width — the
    /// shape a corrupted key/width decode produces. The masked inner pass
    /// drops bits, so it is *not* a permutation: the walk from x = 0 stays
    /// out of the claimed 4-value domain for 7 straight steps, past the
    /// 4-step bound a true width-2 cycle walk can never exceed. Pre-fix,
    /// the walk looped until it happened to re-enter the domain —
    /// unboundedly long, and forever on an orbit that never returns.
    fn corrupt_network() -> FeistelNetwork {
        FeistelNetwork {
            width: 2,
            inner_width: 10,
            half: 5,
            half_mask: 0xF,
            keys: KeyArray::from_keys(vec![0b10110, 0b01011, 0b11001]),
        }
    }

    #[test]
    #[should_panic(expected = "cycle walk exceeded")]
    fn corrupt_state_scalar_walk_panics_instead_of_spinning() {
        let net = corrupt_network();
        for x in 0..4 {
            let _ = net.encrypt(x);
        }
    }

    #[test]
    #[should_panic(expected = "cycle walk exceeded")]
    fn corrupt_state_batch_walk_panics_instead_of_spinning() {
        let net = corrupt_network();
        let mut addrs: Vec<u64> = (0..4).collect();
        net.encrypt_batch(&mut addrs);
    }

    /// Healthy odd-width walks never approach the bound: the cap must be
    /// invisible on every valid network (full-domain sweep).
    #[test]
    fn capped_walk_is_invisible_on_valid_odd_widths() {
        for width in [3u32, 5, 9, 11] {
            let mut rng = StdRng::seed_from_u64(width as u64);
            let net = FeistelNetwork::random(&mut rng, width, 5);
            assert_permutation(&net);
        }
    }

    #[test]
    fn batch_matches_scalar_including_remainder_lanes() {
        // Widths spanning even, odd (cycle-walking), and the half-width
        // extremes; batch lengths straddling the 16-lane chunk boundary.
        for width in [2u32, 8, 9, 13, 22] {
            for stages in [1usize, 3, 5] {
                let mut rng = StdRng::seed_from_u64(width as u64 * 31 + stages as u64);
                let net = FeistelNetwork::random(&mut rng, width, stages);
                let n = net.domain_size();
                for len in [0usize, 1, 15, 16, 17, 64, 100] {
                    let addrs: Vec<u64> = (0..len)
                        .map(|i| (i as u64).wrapping_mul(2654435761) % n)
                        .collect();
                    let mut enc = addrs.clone();
                    net.encrypt_batch(&mut enc);
                    for (i, &x) in addrs.iter().enumerate() {
                        assert_eq!(
                            enc[i],
                            net.encrypt(x),
                            "width {width} stages {stages} len {len} lane {i}"
                        );
                    }
                    let mut dec = enc.clone();
                    net.decrypt_batch(&mut dec);
                    assert_eq!(dec, addrs, "width {width} stages {stages} len {len}");
                }
            }
        }
    }

    #[test]
    fn default_trait_batch_matches_scalar_loop() {
        let p = IdentityPermutation::new(6);
        let mut addrs: Vec<u64> = (0..64).rev().collect();
        let expect = addrs.clone();
        p.encrypt_batch(&mut addrs);
        assert_eq!(addrs, expect);
        p.decrypt_batch(&mut addrs);
        assert_eq!(addrs, expect);
    }
}
