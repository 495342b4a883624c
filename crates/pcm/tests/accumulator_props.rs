//! `WearAccumulator::merge` algebra, proptested: the round-range RAA
//! engine folds per-range accumulators in range order, so merge must be
//! associative, commutative over disjoint (and in fact arbitrary)
//! deposits, and agree with building one accumulator from the summed
//! dense wear — for any shape (lines/points/regions) and any split of
//! the deposits.

use proptest::prelude::*;
use srbsg_pcm::WearAccumulator;

/// A deterministic dense wear vector from a seed (xorshift, no RNG dep).
fn wear_vec(seed: u64, lines: usize) -> Vec<u64> {
    let mut st = seed | 1;
    (0..lines)
        .map(|_| {
            st ^= st << 13;
            st ^= st >> 7;
            st ^= st << 17;
            st % 1_000
        })
        .collect()
}

proptest! {
    /// merge(merge(a, b), c) == merge(a, merge(b, c)).
    #[test]
    fn merge_is_associative(
        lines in 2u64..400,
        points in 1usize..40,
        max_regions in 1u64..50,
        sa in any::<u64>(),
        sb in any::<u64>(),
        sc in any::<u64>(),
    ) {
        let built: Vec<WearAccumulator> = [sa, sb, sc]
            .iter()
            .map(|&s| {
                WearAccumulator::from_wear(&wear_vec(s, lines as usize), points, max_regions)
            })
            .collect();
        let mut left = built[0].clone();
        left.merge(&built[1]);
        left.merge(&built[2]);
        let mut bc = built[1].clone();
        bc.merge(&built[2]);
        let mut right = built[0].clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// merge(a, b) == merge(b, a), including for accumulators built from
    /// disjoint address ranges (the round-range case: each worker's
    /// deposits land wherever its rounds say, and order must not matter).
    #[test]
    fn merge_is_commutative(
        lines in 2u64..400,
        points in 1usize..40,
        max_regions in 1u64..50,
        seed in any::<u64>(),
        cut_frac in 0.0f64..1.0,
    ) {
        let wear = wear_vec(seed, lines as usize);
        // Disjoint halves of the address space...
        let cut = ((lines as f64 * cut_frac) as usize).min(lines as usize);
        let mut lo = WearAccumulator::new(lines, points, max_regions);
        lo.add_slice(0, &wear[..cut]);
        let mut hi = WearAccumulator::new(lines, points, max_regions);
        hi.add_slice(cut as u64, &wear[cut..]);
        let mut ab = lo.clone();
        ab.merge(&hi);
        let mut ba = hi.clone();
        ba.merge(&lo);
        prop_assert_eq!(&ab, &ba);
        // ...and fully overlapping deposits commute too.
        let other = WearAccumulator::from_wear(
            &wear_vec(seed ^ 0xABCD, lines as usize),
            points,
            max_regions,
        );
        let whole = WearAccumulator::from_wear(&wear, points, max_regions);
        let mut wo = whole.clone();
        wo.merge(&other);
        let mut ow = other.clone();
        ow.merge(&whole);
        prop_assert_eq!(wo, ow);
    }

    /// from_wear(a + b) == merge(from_wear(a), from_wear(b)) on random
    /// splits: summing dense wear first or merging digests last is the
    /// same accumulator, bit for bit (curve included).
    #[test]
    fn from_wear_of_sum_equals_merge_of_from_wear(
        lines in 2u64..400,
        points in 1usize..40,
        max_regions in 1u64..50,
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        let a = wear_vec(seed_a, lines as usize);
        let b = wear_vec(seed_b, lines as usize);
        let sum: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let whole = WearAccumulator::from_wear(&sum, points, max_regions);
        let mut merged = WearAccumulator::from_wear(&a, points, max_regions);
        merged.merge(&WearAccumulator::from_wear(&b, points, max_regions));
        prop_assert_eq!(&whole, &merged);
        prop_assert_eq!(whole.curve(), merged.curve());
        prop_assert_eq!(whole.total(), merged.total());
    }

    /// Splitting one dense vector at an arbitrary address boundary and
    /// merging the two shard digests rebuilds the whole digest — the
    /// exact shape of the in-order range fold.
    #[test]
    fn range_split_merge_rebuilds_the_whole(
        lines in 2u64..400,
        points in 1usize..40,
        max_regions in 1u64..50,
        seed in any::<u64>(),
        cut_frac in 0.0f64..1.0,
    ) {
        let wear = wear_vec(seed, lines as usize);
        let whole = WearAccumulator::from_wear(&wear, points, max_regions);
        let cut = ((lines as f64 * cut_frac) as usize).min(lines as usize);
        let mut merged = WearAccumulator::new(lines, points, max_regions);
        let mut lo = WearAccumulator::new(lines, points, max_regions);
        lo.add_slice(0, &wear[..cut]);
        let mut hi = WearAccumulator::new(lines, points, max_regions);
        hi.add_slice(cut as u64, &wear[cut..]);
        merged.merge(&lo);
        merged.merge(&hi);
        prop_assert_eq!(merged, whole);
    }
}
