//! Bounded Zipf sampler (rejection-inversion, after W. Hörmann &
//! G. Derflinger, "Rejection-inversion to generate variates from monotone
//! discrete distributions").

use rand::{Rng, RngExt};

/// Ranks whose acceptance bound [`Zipf::new`] tabulates: the hot head of
/// the distribution, where nearly every draw lands. At 8 B a rank the
/// table is at most 32 KB.
const ACCEPT_TABLE_RANKS: u64 = 4096;

/// Sampler for `P(k) ∝ (k+1)^-s` over `k ∈ 0..n`.
///
/// Every quantity that does not depend on the draw is computed once in
/// [`Zipf::new`] with the same expression [`Zipf::sample`] would evaluate,
/// so the sampler returns the same ranks and consumes the same RNG draws as
/// a sampler that recomputes them per draw.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    /// `n` as a float (the rank clamp).
    n_f: f64,
    s: f64,
    /// `1 - s`.
    one_minus_s: f64,
    /// `1 / (1 - s)`, the exponent of `H⁻¹`.
    inv_one_minus_s: f64,
    /// `H(n + 1/2) - q`, the width of the inversion interval.
    span: f64,
    q: f64,
    /// The squeeze `q - H(3/2) + 1`: a draw within it of its rank is
    /// accepted without evaluating the bound.
    squeeze: f64,
    /// `accept[k - 1] = H(k + 1/2) - k^-s` for ranks `1..=min(n, 4096)`.
    accept: Vec<f64>,
}

impl Zipf {
    /// Build a sampler over `n` items with exponent `s > 0`, `s != 1`
    /// handled exactly; `s == 1` is nudged for the closed-form integral.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n >= 1);
        assert!(s > 0.0);
        let s = if (s - 1.0).abs() < 1e-9 {
            1.0 + 1e-9
        } else {
            s
        };
        let one_minus_s = 1.0 - s;
        let mut z = Self {
            n,
            n_f: n as f64,
            s,
            one_minus_s,
            inv_one_minus_s: 1.0 / one_minus_s,
            span: 0.0,
            q: 0.0,
            squeeze: 0.0,
            accept: Vec::new(),
        };
        // H(x) = x^(1-s)/(1-s), the integral of x^-s.
        z.q = z.h(1.5) - 1.0f64.powf(-s);
        z.span = z.h(n as f64 + 0.5) - z.q;
        z.squeeze = z.q - z.h(1.5) + 1.0;
        z.accept = (1..=n.min(ACCEPT_TABLE_RANKS))
            .map(|k| z.accept_bound(k as f64))
            .collect();
        z
    }

    #[inline]
    fn h(&self, x: f64) -> f64 {
        (self.one_minus_s * x.ln()).exp() / self.one_minus_s
    }

    #[inline]
    fn h_inv(&self, x: f64) -> f64 {
        (self.one_minus_s * x).powf(self.inv_one_minus_s)
    }

    /// `H(k + 1/2) - k^-s`: a draw `u` at or above it is accepted as rank
    /// `k`.
    #[inline]
    fn accept_bound(&self, k: f64) -> f64 {
        self.h(k + 0.5) - (-self.s * k.ln()).exp()
    }

    /// Draw one rank in `0..n` (0 is the hottest).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.n == 1 {
            return 0;
        }
        loop {
            let u = self.q + rng.random_range(0.0..1.0) * self.span;
            let x = self.h_inv(u);
            let k = (x + 0.5).floor().max(1.0).min(self.n_f);
            if k - x <= self.squeeze {
                return k as u64 - 1;
            }
            let bound = match self.accept.get(k as usize - 1) {
                Some(&b) => b,
                None => self.accept_bound(k),
            };
            if u >= bound {
                return k as u64 - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// The sampler as it was before its loop invariants were hoisted:
    /// every constant is re-evaluated on every draw.
    struct ReferenceZipf {
        n: u64,
        s: f64,
        h_n: f64,
        q: f64,
    }

    impl ReferenceZipf {
        fn new(n: u64, s: f64) -> Self {
            let s = if (s - 1.0).abs() < 1e-9 {
                1.0 + 1e-9
            } else {
                s
            };
            let h = |x: f64| ((1.0 - s) * x.ln()).exp() / (1.0 - s) * x.signum();
            let h_x1 = h(1.5) - 1.0f64.powf(-s);
            let h_n = h(n as f64 + 0.5);
            Self { n, s, h_n, q: h_x1 }
        }

        fn h(&self, x: f64) -> f64 {
            ((1.0 - self.s) * x.ln()).exp() / (1.0 - self.s)
        }

        fn h_inv(&self, x: f64) -> f64 {
            ((1.0 - self.s) * x).powf(1.0 / (1.0 - self.s))
        }

        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
            if self.n == 1 {
                return 0;
            }
            loop {
                let u = self.q + rng.random_range(0.0..1.0) * (self.h_n - self.q);
                let x = self.h_inv(u);
                let k = (x + 0.5).floor().max(1.0).min(self.n as f64);
                if k - x <= self.q - self.h(1.5) + 1.0
                    || u >= self.h(k + 0.5) - (-self.s * k.ln()).exp()
                {
                    return k as u64 - 1;
                }
            }
        }
    }

    #[test]
    fn sample_is_bit_identical_to_the_per_draw_reference() {
        // Same rank *and* same RNG position after every draw, on both
        // sides of the acceptance table's edge (4096) and for the nudged
        // s = 1.
        for n in [1u64, 2, 100, 4096, 4097, 1 << 16, 1 << 22] {
            for s in [0.6, 1.0, 1.1, 1.6] {
                let (fast, slow) = (Zipf::new(n, s), ReferenceZipf::new(n, s));
                let mut a = SmallRng::seed_from_u64(n ^ s.to_bits());
                let mut b = a.clone();
                for draw in 0..100_000 {
                    assert_eq!(
                        fast.sample(&mut a),
                        slow.sample(&mut b),
                        "n={n} s={s} draw {draw}"
                    );
                    assert_eq!(
                        a.clone().random::<u64>(),
                        b.clone().random::<u64>(),
                        "n={n} s={s} draw {draw}: RNG consumption differs"
                    );
                }
            }
        }
    }

    #[test]
    fn acceptance_table_is_at_most_32_kb() {
        assert_eq!(Zipf::new(100, 1.1).accept.len(), 100);
        let z = Zipf::new(1 << 22, 1.1);
        assert!(z.accept.len() * std::mem::size_of::<f64>() <= 32 << 10);
    }

    #[test]
    fn samples_in_range() {
        let z = Zipf::new(100, 1.2);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 100);
        }
    }

    #[test]
    fn rank_zero_dominates() {
        let z = Zipf::new(1_000, 1.0);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut counts = vec![0u64; 1_000];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[500]);
        // Rank 0 should carry roughly 1/H_1000 ≈ 13% of the mass.
        assert!(
            (5_000..25_000).contains(&counts[0]),
            "rank-0 count {}",
            counts[0]
        );
    }

    #[test]
    fn single_item_degenerate() {
        let z = Zipf::new(1, 2.0);
        let mut rng = SmallRng::seed_from_u64(3);
        assert_eq!(z.sample(&mut rng), 0);
    }

    #[test]
    fn heavier_exponent_more_skew() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut count_top = |s: f64| {
            let z = Zipf::new(500, s);
            (0..50_000).filter(|_| z.sample(&mut rng) == 0).count()
        };
        let light = count_top(0.6);
        let heavy = count_top(1.6);
        assert!(heavy > light, "skew should grow with s: {light} vs {heavy}");
    }
}
