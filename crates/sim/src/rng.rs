//! Seeded randomness with the distributions the workload generators need.
//!
//! Everything random in the reproduction flows through [`SimRng`], a
//! self-contained xoshiro256** generator seeded explicitly (via a
//! splitmix64 expansion of the 64-bit seed), with hand-rolled samplers for
//! the exponential, normal, Zipf and Pareto distributions. No external
//! crates are involved, so the streams are stable across toolchains and
//! fully reproducible offline.

use crate::snap::{Persist, RestoreError, SnapIo};

/// A deterministic random source.
///
/// # Example
///
/// ```
/// use ecoscale_sim::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.gen_range_u64(0, 100), b.gen_range_u64(0, 100));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

impl Default for SimRng {
    /// The stream of seed 0, the blank a state loaded from a snapshot
    /// overwrites.
    fn default() -> SimRng {
        SimRng::seed_from(0)
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn seed_from(seed: u64) -> SimRng {
        let mut sm = seed;
        SimRng {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The xoshiro256** core step.
    #[inline]
    fn next_raw(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Unbiased uniform draw in `[0, bound)` (Lemire's widening-multiply
    /// method with rejection).
    fn uniform_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        let mut x = self.next_raw();
        let mut m = (x as u128) * (bound as u128);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_raw();
                m = (x as u128) * (bound as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Derives an independent child RNG, e.g. one per simulated worker,
    /// so adding workers does not perturb the streams of existing ones.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let base = self.next_raw();
        SimRng::seed_from(base ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Uniform `u64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn gen_range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.uniform_below(hi - lo)
    }

    /// Uniform `usize` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn gen_range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.uniform_below((hi - lo) as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)`: the top 53 bits of a raw draw.
    #[inline]
    pub fn gen_unit(&mut self) -> f64 {
        (self.next_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is not finite.
    #[inline]
    pub fn gen_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "invalid range [{lo}, {hi})"
        );
        lo + (hi - lo) * self.gen_unit()
    }

    /// Bernoulli draw with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of [0, 1]");
        self.gen_unit() < p
    }

    /// Exponential draw with mean `mean`.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn gen_exp(&mut self, mean: f64) -> f64 {
        assert!(mean.is_finite() && mean > 0.0, "mean must be positive");
        // Inverse CDF; guard the log argument away from 0.
        let u = (1.0 - self.gen_unit()).max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// Standard-normal draw via the Box–Muller transform.
    pub fn gen_std_normal(&mut self) -> f64 {
        let u1 = self.gen_unit().max(f64::MIN_POSITIVE);
        let u2 = self.gen_unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal draw with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or either parameter is not finite.
    pub fn gen_normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(mean.is_finite() && std_dev.is_finite() && std_dev >= 0.0);
        mean + std_dev * self.gen_std_normal()
    }

    /// Zipf-distributed rank in `[0, n)` with exponent `s` (larger `s`
    /// skews harder toward rank 0): one [`ZipfTable::draw`] from a table
    /// built for this draw alone. Repeated draws over one `(n, s)` should
    /// build the table once instead.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative or not finite.
    pub fn gen_zipf(&mut self, n: usize, s: f64) -> usize {
        ZipfTable::new(n, s).draw(self)
    }

    /// Pareto draw with scale `x_min` and shape `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `x_min` or `alpha` is not positive and finite.
    pub fn gen_pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        assert!(x_min.is_finite() && x_min > 0.0, "x_min must be positive");
        assert!(alpha.is_finite() && alpha > 0.0, "alpha must be positive");
        let u = (1.0 - self.gen_unit()).max(f64::MIN_POSITIVE);
        x_min / u.powf(1.0 / alpha)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range_usize(0, i + 1);
            slice.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `slice` is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        assert!(!slice.is_empty(), "cannot choose from an empty slice");
        &slice[self.gen_range_usize(0, slice.len())]
    }

    /// Raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.next_raw()
    }

    /// Fills a byte buffer.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let bytes = self.next_raw().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

impl Persist for SimRng {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        self.state.iter_mut().try_for_each(|word| io.u64(word))
    }
}

/// The weights of a Zipf distribution over ranks `[0, n)` with exponent
/// `s`: rank `k` weighs `1 / (k + 1)^s`. Built once, it draws ranks by
/// inverse CDF, a cumulative scan of the weights, with no `powf` per draw.
///
/// # Example
///
/// ```
/// use ecoscale_sim::rng::{SimRng, ZipfTable};
///
/// let table = ZipfTable::new(8, 1.1);
/// let (mut a, mut b) = (SimRng::seed_from(3), SimRng::seed_from(3));
/// assert_eq!(table.draw(&mut a), b.gen_zipf(8, 1.1));
/// ```
#[derive(Debug, Clone)]
pub struct ZipfTable {
    weights: Vec<f64>,
    norm: f64,
}

impl ZipfTable {
    /// The table for ranks `[0, n)` and exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative or not finite.
    pub fn new(n: usize, s: f64) -> ZipfTable {
        assert!(n > 0, "zipf needs a non-empty support");
        assert!(
            s.is_finite() && s >= 0.0,
            "zipf exponent must be non-negative"
        );
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let norm = weights.iter().sum();
        ZipfTable { weights, norm }
    }

    /// Draws a rank, consuming one [`SimRng::gen_unit`].
    pub fn draw(&self, rng: &mut SimRng) -> usize {
        let mut u = rng.gen_unit() * self.norm;
        for (k, &w) in self.weights.iter().enumerate() {
            if u < w {
                return k;
            }
            u -= w;
        }
        self.weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forked_streams_differ_from_parent_and_each_other() {
        let mut root = SimRng::seed_from(1);
        let mut c1 = root.fork(0);
        let mut c2 = root.fork(1);
        let (a, b, c) = (root.next_u64(), c1.next_u64(), c2.next_u64());
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1000 {
            let v = rng.gen_range_u64(10, 20);
            assert!((10..20).contains(&v));
            let f = rng.gen_range_f64(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::seed_from(11);
        let n = 20_000;
        let mean = 5.0;
        let sum: f64 = (0..n).map(|_| rng.gen_exp(mean)).sum();
        let est = sum / n as f64;
        assert!((est - mean).abs() < 0.15, "estimated mean {est}");
    }

    #[test]
    fn normal_moments_are_close() {
        let mut rng = SimRng::seed_from(13);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.gen_normal(3.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.25, "var {var}");
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let mut rng = SimRng::seed_from(17);
        let n = 10_000;
        let mut counts = [0u32; 10];
        for _ in 0..n {
            counts[rng.gen_zipf(10, 1.2)] += 1;
        }
        assert!(counts[0] > counts[4]);
        assert!(counts[4] > counts[9]);
        // rank 0 should hold a large plurality for s=1.2
        assert!(counts[0] as f64 / n as f64 > 0.25);
    }

    #[test]
    fn zipf_table_matches_per_draw_weights() {
        // the draw before tables: weights recomputed on every draw, once
        // for the norm and again in the scan
        fn per_draw(rng: &mut SimRng, n: usize, s: f64) -> usize {
            let norm: f64 = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).sum();
            let mut u = rng.gen_unit() * norm;
            for k in 1..=n {
                let w = 1.0 / (k as f64).powf(s);
                if u < w {
                    return k - 1;
                }
                u -= w;
            }
            n - 1
        }
        let mut cases = SimRng::seed_from(23);
        for case in 0..256 {
            let n = cases.gen_range_usize(1, 600);
            let s = match case % 4 {
                0 => 0.0,
                1 => cases.gen_range_f64(0.0, 0.2),
                _ => cases.gen_range_f64(0.0, 3.0),
            };
            let seed = cases.next_u64();
            let table = ZipfTable::new(n, s);
            let (mut old, mut via_table, mut via_gen) = (
                SimRng::seed_from(seed),
                SimRng::seed_from(seed),
                SimRng::seed_from(seed),
            );
            for draw in 0..32 {
                let want = per_draw(&mut old, n, s);
                assert_eq!(table.draw(&mut via_table), want, "case {case} draw {draw}");
                assert_eq!(via_gen.gen_zipf(n, s), want, "case {case} draw {draw}");
                assert_eq!(via_table.state, old.state, "case {case} draw {draw}");
                assert_eq!(via_gen.state, old.state, "case {case} draw {draw}");
            }
        }
    }

    #[test]
    fn zipf_zero_exponent_is_uniform_ish() {
        let mut rng = SimRng::seed_from(19);
        let mut counts = [0u32; 4];
        for _ in 0..8000 {
            counts[rng.gen_zipf(4, 0.0)] += 1;
        }
        for c in counts {
            assert!((c as i64 - 2000).abs() < 300, "count {c}");
        }
    }

    #[test]
    fn pareto_respects_minimum() {
        let mut rng = SimRng::seed_from(23);
        for _ in 0..1000 {
            assert!(rng.gen_pareto(2.0, 1.5) >= 2.0);
        }
    }

    #[test]
    fn bernoulli_frequency() {
        let mut rng = SimRng::seed_from(29);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((hits as f64 / 10_000.0 - 0.3).abs() < 0.03);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seed_from(31);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "a 50-element shuffle should not be identity");
    }

    #[test]
    fn choose_covers_all_elements_eventually() {
        let mut rng = SimRng::seed_from(37);
        let opts = [1, 2, 3];
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[*rng.choose(&opts) as usize - 1] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        SimRng::seed_from(0).gen_range_u64(5, 5);
    }

    #[test]
    #[should_panic(expected = "empty slice")]
    fn choose_empty_panics() {
        SimRng::seed_from(0).choose::<u8>(&[]);
    }
}
