//! Correctly rounded summation of positive `f64` terms.
//!
//! The backward sweep defines each dependency `δ[w]` as the correctly
//! rounded sum of its successor contributions: the exact real sum,
//! rounded once to nearest, ties to even. That value is a function of
//! the contribution *multiset* alone, so δ is bitwise the same whatever
//! order the successors are visited in — push or pull, any schedule,
//! any relabeling of the vertices.
//!
//! [`ExactSum`] computes it in one pass with no sort: a small
//! superaccumulator (Neal, "Fast exact summation using small and
//! large superaccumulators", arXiv:1505.05571) specialised to
//! non-negative finite terms. Every such term is an integer multiple
//! of 2^-1074, the smallest subnormal, so the sum is held exactly as a
//! fixed-point integer in units of 2^-1074: one 32-bit digit per `u64`
//! limb, with the upper 32 bits of each limb absorbing carries until
//! the sum is rounded.

/// Bits per digit; the rest of each `u64` limb holds deferred carries.
const DIGIT_BITS: u32 = 32;

const DIGIT_MASK: u64 = (1 << DIGIT_BITS) - 1;

/// Limbs spanning every non-negative finite `f64` sum of fewer than
/// 2^32 terms: a term is a 53-bit significand shifted left by at most
/// 2045 bits (digit limbs 0..=65), and up to 2^32 terms carry 32 bits
/// further, so the sum stays below 2^2131 and fits 67 digits.
const LIMBS: usize = 67;

/// Bit pattern of `+∞`; a rounded pattern at or above it overflowed.
const INFINITY_BITS: u64 = 0x7ff0_0000_0000_0000;

/// An exact running sum of non-negative finite `f64` terms, rounded to
/// the nearest `f64` (ties to even) on [`ExactSum::take`].
///
/// [`ExactSum::add`] adds a term's significand into three limbs
/// without propagating carries: each limb receives less than 2^32 per
/// term, so no limb overflows before 2^32 terms. A sum must therefore
/// take fewer than 2^32 terms between two `take`s; the engine's lists
/// are indexed by `u32` offsets, so none is that long. Only the limbs
/// a term touched are ever nonzero, and the accumulator tracks their
/// range, so rounding and clearing cost O(range), not O(67).
#[derive(Clone, Debug)]
pub(crate) struct ExactSum {
    /// `limbs[i]` holds the digit of weight 2^(32·i − 1074), plus
    /// carries not yet propagated to `limbs[i + 1]`.
    limbs: [u64; LIMBS],
    /// Lowest limb written since the last `take` (`LIMBS` if none).
    lo: usize,
    /// Highest limb written since the last `take` (0 if none).
    hi: usize,
}

impl Default for ExactSum {
    fn default() -> Self {
        ExactSum {
            limbs: [0; LIMBS],
            lo: LIMBS,
            hi: 0,
        }
    }
}

impl ExactSum {
    /// Add `x`, exactly. `x` must be `+0.0` or positive and finite.
    #[inline]
    pub(crate) fn add(&mut self, x: f64) {
        debug_assert!(x.is_sign_positive() && x.is_finite(), "term {x}");
        let bits = x.to_bits();
        let biased = (bits >> 52) as usize;
        // x = m · 2^(e − 1074) with m < 2^53: a subnormal has biased
        // exponent 0 and no hidden bit, but the same scale as biased 1.
        let normal = (biased != 0) as usize;
        let m = (bits & ((1 << 52) - 1)) | (normal as u64) << 52;
        let e = biased - normal;
        let i = e / DIGIT_BITS as usize;
        let wide = (m as u128) << (e % DIGIT_BITS as usize);
        self.limbs[i] += wide as u64 & DIGIT_MASK;
        self.limbs[i + 1] += (wide >> DIGIT_BITS) as u64 & DIGIT_MASK;
        self.limbs[i + 2] += (wide >> (2 * DIGIT_BITS)) as u64;
        self.lo = self.lo.min(i);
        self.hi = self.hi.max(i + 2);
    }

    /// The sum of every term added since the last `take`, correctly
    /// rounded (to nearest, ties to even; `+∞` once the rounded value
    /// exceeds `f64::MAX`). Clears the accumulator. The empty sum is
    /// `+0.0`.
    pub(crate) fn take(&mut self) -> f64 {
        if self.lo > self.hi {
            return 0.0;
        }
        let lo = self.lo;
        // Propagate the deferred carries: afterwards every limb holds
        // one digit. A limb is at most (2^32 − 1)² and the incoming
        // carry below 2^32, so neither the add nor the carry-out
        // overflows.
        let mut carry = 0u64;
        let mut i = lo;
        while i <= self.hi || carry != 0 {
            let v = self.limbs[i] + carry;
            self.limbs[i] = v & DIGIT_MASK;
            carry = v >> DIGIT_BITS;
            i += 1;
        }
        let hi = i - 1;
        let mut top = hi;
        while top > lo && self.limbs[top] == 0 {
            top -= 1;
        }
        let digit = |j: usize| self.limbs.get(j).map_or(0, |&d| d as u128);
        let bits = if top <= 1 && (self.limbs[1] << DIGIT_BITS | self.limbs[0]) < 1 << 53 {
            // At most 53 significant bits: exact, and the integer in
            // units of 2^-1074 is the value's own bit pattern (a
            // subnormal, or the first normal binade).
            self.limbs[1] << DIGIT_BITS | self.limbs[0]
        } else {
            // The top four digits hold the top digit's 1–32 bits and
            // at least 96 more: the 53-bit significand, the rounding
            // bit and more. Anything below them only decides ties.
            let window = digit(top) << 96
                | top.checked_sub(1).map_or(0, digit) << 64
                | top.checked_sub(2).map_or(0, digit) << 32
                | top.checked_sub(3).map_or(0, digit);
            let sticky = top > lo + 3 && self.limbs[lo..top - 3].iter().any(|&d| d != 0);
            let lz = window.leading_zeros();
            // Bits below the significand in `window`, and in the sum.
            let shift = 128 - 53 - lz;
            let scale = (DIGIT_BITS as usize * (top + 1) - lz as usize - 53) as u64;
            let m = (window >> shift) as u64;
            let rest = window & ((1 << shift) - 1);
            let half = 1 << (shift - 1);
            let round_up = rest > half || (rest == half && (sticky || m & 1 == 1));
            // m has its hidden bit set, so this is biased exponent
            // scale + 1 and fraction m − 2^52; a round-up to 2^53
            // carries into the exponent field, as it must.
            (scale << 52) + m + round_up as u64
        };
        self.limbs[lo..=hi].fill(0);
        self.lo = LIMBS;
        self.hi = 0;
        if bits >= INFINITY_BITS {
            f64::INFINITY
        } else {
            f64::from_bits(bits)
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The correctly rounded sum of `terms`, computed independently of
    /// [`ExactSum`]: the exact integer in units of 2^-1074 as 64-bit
    /// limbs with carries propagated on every add, rounded one bit at
    /// a time.
    pub(crate) fn oracle_sum(terms: &[f64]) -> f64 {
        let mut n = vec![0u64; 40];
        for &x in terms {
            assert!(x.is_sign_positive() && x.is_finite(), "term {x}");
            let bits = x.to_bits();
            let exp = bits >> 52;
            let frac = bits & ((1 << 52) - 1);
            let (m, e) = if exp == 0 {
                (frac, 0)
            } else {
                (frac + (1 << 52), exp - 1)
            };
            let wide = (m as u128) << (e % 64);
            let mut j = (e / 64) as usize;
            let (mut lo, mut hi) = (wide as u64, (wide >> 64) as u64);
            while lo != 0 || hi != 0 {
                let (sum, overflow) = n[j].overflowing_add(lo);
                n[j] = sum;
                lo = hi + overflow as u64;
                hi = 0;
                j += 1;
            }
        }
        let bit = |k: usize| (n[k / 64] >> (k % 64)) & 1 == 1;
        let Some(len) = (0..n.len() * 64).rev().find(|&k| bit(k)).map(|k| k + 1) else {
            return 0.0;
        };
        if len <= 53 {
            return f64::from_bits(n[0]);
        }
        let scale = len - 53;
        let mut m = (scale..len).rev().fold(0u64, |m, k| m << 1 | bit(k) as u64);
        let round = bit(scale - 1);
        let sticky = (0..scale - 1).any(bit);
        if round && (sticky || m & 1 == 1) {
            m += 1;
        }
        let (mut m, mut biased) = (m, scale as u64 + 1);
        if m == 1 << 53 {
            m >>= 1;
            biased += 1;
        }
        if biased >= 2047 {
            return f64::INFINITY;
        }
        f64::from_bits(biased << 52 | (m - (1 << 52)))
    }

    fn exact(terms: &[f64]) -> f64 {
        let mut acc = ExactSum::default();
        for &x in terms {
            acc.add(x);
        }
        acc.take()
    }

    fn assert_same(terms: &[f64], what: &str) {
        let (got, want) = (exact(terms), oracle_sum(terms));
        assert_eq!(got.to_bits(), want.to_bits(), "{what}: {got:e} vs {want:e}");
    }

    /// SplitMix64: a seeded stream for the random multisets.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// A positive finite value with its biased exponent in `exps`.
        fn value(&mut self, exps: std::ops::Range<u64>) -> f64 {
            let exp = exps.start + self.next() % (exps.end - exps.start);
            let frac = self.next() & ((1 << 52) - 1);
            f64::from_bits(exp << 52 | frac.max((exp == 0) as u64))
        }
    }

    #[test]
    fn hand_checked_sums() {
        let p53 = 2f64.powi(53);
        let tiny = f64::from_bits(1);
        // An adjacency-order fold loses both halves; the exact sum
        // keeps them in any order.
        let (h, one) = (2f64.powi(-53), 1.0);
        assert_eq!(exact(&[one, h, h]), 1.0 + 2f64.powi(-52));
        assert_eq!(exact(&[h, one, h]), 1.0 + 2f64.powi(-52));
        assert_eq!(exact(&[1.0; 10]), 10.0);
        // Ties round to the even significand; anything beyond the
        // tie, however small, rounds up.
        assert_eq!(exact(&[p53, 0.5, 0.5]), p53);
        assert_eq!(exact(&[p53 + 2.0, 0.5, 0.5]), p53 + 4.0);
        assert_eq!(exact(&[p53, 0.5, 0.5, tiny]), p53 + 2.0);
        // Subnormals add as integers.
        assert_eq!(exact(&[tiny; 3]).to_bits(), 3);
        let top_subnormal = f64::from_bits((1 << 52) - 1);
        assert_eq!(exact(&[top_subnormal, tiny, 0.0]), f64::MIN_POSITIVE);
        // f64::MAX plus half an ulp is a tie with an odd significand:
        // it rounds up, past the range, to +∞; a hair less stays.
        let half_ulp = 2f64.powi(970);
        assert_eq!(exact(&[f64::MAX, half_ulp, 0.0]), f64::INFINITY);
        assert_eq!(exact(&[f64::MAX, half_ulp / 2.0, half_ulp / 4.0]), f64::MAX);
        assert_eq!(exact(&[f64::MAX, f64::MAX, 1.0]), f64::INFINITY);
    }

    #[test]
    fn short_lists_equal_their_plain_sums() {
        // The engine sums 0, 1 and 2 terms directly: 0.0, c and a + b
        // are each correctly rounded, so they equal the accumulator.
        let mut rng = Mix(11);
        let mut acc = ExactSum::default();
        assert_eq!(acc.take().to_bits(), 0.0f64.to_bits());
        for _ in 0..2000 {
            let (a, b, c) = (rng.value(0..2047), rng.value(0..2047), rng.value(0..2047));
            acc.add(a);
            assert_eq!(acc.take().to_bits(), a.to_bits());
            acc.add(a);
            acc.add(b);
            assert_eq!(acc.take().to_bits(), (a + b).to_bits(), "{a:e} + {b:e}");
            acc.add(a);
            acc.add(b);
            acc.add(c);
            assert_eq!(acc.take().to_bits(), oracle_sum(&[a, b, c]).to_bits());
        }
        // Near-equal magnitudes, where two-term sums round most often.
        for _ in 0..2000 {
            let (a, b) = (rng.value(1000..1003), rng.value(1000..1003));
            acc.add(a);
            acc.add(b);
            assert_eq!(acc.take().to_bits(), (a + b).to_bits(), "{a:e} + {b:e}");
        }
    }

    #[test]
    fn random_multisets_match_the_oracle() {
        let mut rng = Mix(7);
        let ranges = [
            0..2047,    // anything finite
            0..3,       // subnormals and the first normal binades
            1010..1040, // around 1, like the engine's contributions
            2030..2047, // near f64::MAX: long lists overflow to +∞
        ];
        for (k, exps) in ranges.iter().enumerate() {
            for len in 0..200 {
                let terms: Vec<f64> = (0..len).map(|_| rng.value(exps.clone())).collect();
                assert_same(&terms, &format!("range {k}, {len} terms"));
            }
        }
        // A sum that stays finite only up to a point: MAX/8 per term.
        let eighth = f64::MAX / 8.0;
        assert_same(&[eighth; 7], "seven eighths");
        assert_eq!(exact(&[eighth; 7]), eighth * 7.0);
        assert_eq!(exact(&[eighth; 9]), f64::INFINITY);
    }

    #[test]
    fn long_sums_match_the_oracle() {
        let mut rng = Mix(3);
        // 10⁵ equal terms: the deferred carries pile up in three limbs.
        for x in [0.1, f64::from_bits(1), f64::MAX / 1e6, 1.0 + f64::EPSILON] {
            assert_same(&vec![x; 100_000], &format!("10^5 × {x:e}"));
        }
        // 10⁵ mixed terms, across the whole range and around 1.
        let wide: Vec<f64> = (0..100_000).map(|_| rng.value(0..2040)).collect();
        assert_same(&wide, "10^5 wide");
        let near: Vec<f64> = (0..100_000).map(|_| rng.value(1000..1030)).collect();
        assert_same(&near, "10^5 near 1");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn sum_is_invariant_under_permutation(
            bits in proptest::collection::vec(0u64..INFINITY_BITS, 0..96),
            seed in 0u64..=u64::MAX,
        ) {
            let terms: Vec<f64> = bits.into_iter().map(f64::from_bits).collect();
            let want = oracle_sum(&terms);
            proptest::prop_assert_eq!(exact(&terms).to_bits(), want.to_bits());
            let mut shuffled = terms.clone();
            let mut rng = Mix(seed);
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, (rng.next() % (i as u64 + 1)) as usize);
            }
            proptest::prop_assert_eq!(exact(&shuffled).to_bits(), want.to_bits());
            shuffled.reverse();
            proptest::prop_assert_eq!(exact(&shuffled).to_bits(), want.to_bits());
        }
    }
}
