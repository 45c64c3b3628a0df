//! A small, fast, seeded PRNG: xoshiro256** with SplitMix64 seeding.
//!
//! Drop-in for the subset of the `rand` API the workspace used
//! (`SmallRng::seed_from_u64`, `gen_range`, `gen_bool`), plus a
//! Fisher–Yates [`shuffle`](SmallRng::shuffle). Not cryptographic; the
//! point is statistical quality and bit-for-bit reproducibility across
//! runs and platforms.

/// SplitMix64 step — used for seed expansion and case-seed derivation.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded xoshiro256** generator. Its snapshot is the raw state, so a
/// loaded generator resumes the exact sequence.
#[derive(Clone, Debug)]
pub struct SmallRng {
    s: [u64; 4],
}
crate::snap_fields!(SmallRng(s));

impl Default for SmallRng {
    /// The generator seeded with 0.
    fn default() -> Self {
        Self::seed_from_u64(0)
    }
}

impl SmallRng {
    /// Creates a generator from a 64-bit seed (SplitMix64-expanded, as
    /// the xoshiro authors recommend).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut st = seed;
        SmallRng {
            s: [
                splitmix64(&mut st),
                splitmix64(&mut st),
                splitmix64(&mut st),
                splitmix64(&mut st),
            ],
        }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` (53 mantissa bits).
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        self.gen_f64() < p
    }

    /// Uniform draw from a range (half-open or inclusive; integer or
    /// `f64`).
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_with(self, 0)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_range(0..=i);
            xs.swap(i, j);
        }
    }

    /// Unbiased draw in `[0, span)` via Lemire's widening multiply.
    pub(crate) fn bounded(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        let mut m = self.next_u64() as u128 * span as u128;
        let mut lo = m as u64;
        if lo < span {
            let threshold = span.wrapping_neg() % span;
            while lo < threshold {
                m = self.next_u64() as u128 * span as u128;
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }
}

/// Ranges a [`SmallRng`] can sample uniformly.
///
/// `sample_with(shift)` additionally supports the property-test shrinker:
/// the drawn offset from the range start is halved `shift` times, pulling
/// values toward the range minimum while staying in-range.
pub trait SampleRange<T> {
    /// Draws a value; `shift` halves the offset from the range start
    /// (0 = plain uniform draw).
    fn sample_with(self, rng: &mut SmallRng, shift: u32) -> T;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_with(self, rng: &mut SmallRng, shift: u32) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                let off = rng.bounded(span) >> shift.min(63);
                self.start + off as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_with(self, rng: &mut SmallRng, shift: u32) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi - lo) as u64;
                // span + 1 == 0 only for the full u64 domain.
                let raw = if span == u64::MAX {
                    rng.next_u64()
                } else {
                    rng.bounded(span + 1)
                };
                let off = raw >> shift.min(63);
                lo + off as $t
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_with(self, rng: &mut SmallRng, shift: u32) -> f64 {
        assert!(self.start < self.end, "empty range");
        let scale = 0.5f64.powi(shift.min(1023) as i32);
        self.start + rng.gen_f64() * (self.end - self.start) * scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snap::Snap;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SmallRng::seed_from_u64(0xDEAD_BEEF);
        let mut b = SmallRng::seed_from_u64(0xDEAD_BEEF);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn range_draws_stay_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(3u64..17);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(5u32..=9);
            assert!((5..=9).contains(&w));
            let f = rng.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn range_distribution_is_roughly_uniform() {
        let mut rng = SmallRng::seed_from_u64(42);
        let mut counts = [0u32; 10];
        let draws = 100_000;
        for _ in 0..draws {
            counts[rng.gen_range(0usize..10)] += 1;
        }
        // Each bucket expects 10 000; allow ±5 % (many sigma for n=100k).
        for (i, &c) in counts.iter().enumerate() {
            assert!((9_500..=10_500).contains(&c), "bucket {i}: {c}");
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SmallRng::seed_from_u64(9);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((28_500..=31_500).contains(&hits), "hits {hits}");
    }

    #[test]
    fn shuffle_is_a_permutation_and_deterministic() {
        let mut a: Vec<u32> = (0..100).collect();
        let mut b = a.clone();
        SmallRng::seed_from_u64(5).shuffle(&mut a);
        SmallRng::seed_from_u64(5).shuffle(&mut b);
        assert_eq!(a, b);
        assert_ne!(a, (0..100).collect::<Vec<_>>());
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn shifted_draws_shrink_toward_range_start() {
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..1000 {
            let v: u64 = (10u64..1000).sample_with(&mut rng, 63);
            assert_eq!(v, 10);
            let f: f64 = (2.0..8.0).sample_with(&mut rng, 200);
            assert!((f - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn state_roundtrip_resumes_the_sequence() {
        let mut a = SmallRng::seed_from_u64(0xCAFE);
        for _ in 0..17 {
            a.next_u64();
        }
        let mut b = SmallRng::default();
        b.load(&a.save()).unwrap();
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn full_inclusive_u64_range_does_not_panic() {
        let mut rng = SmallRng::seed_from_u64(13);
        let _ = rng.gen_range(0u64..=u64::MAX);
    }
}
