//! Measurement primitives: counters, online moments, histograms.

use core::fmt;

use crate::snap::{Persist, RestoreError, SnapIo};

/// A saturating event counter.
///
/// # Example
///
/// ```
/// use ecoscale_sim::Counter;
///
/// let mut c = Counter::new();
/// c.incr();
/// c.add(4);
/// assert_eq!(c.get(), 5);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Counter {
        Counter(0)
    }

    /// Adds one.
    #[inline]
    pub fn incr(&mut self) {
        self.0 = self.0.saturating_add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Current count.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }

    /// Resets to zero.
    #[inline]
    pub fn reset(&mut self) {
        self.0 = 0;
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Persist for Counter {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        io.u64(&mut self.0)
    }
}

/// Streaming mean/variance/min/max via Welford's algorithm.
///
/// # Example
///
/// ```
/// use ecoscale_sim::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 6.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), 4.0);
/// assert_eq!(s.max(), 6.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> OnlineStats {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "cannot record NaN");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (0 if empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0 if empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

// The empty-accumulator sentinels (`min = +inf`, `max = -inf`) must
// survive a round trip exactly, so the raw fields travel as bits rather
// than going through the zero-returning accessors.
impl Persist for OnlineStats {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        io.u64(&mut self.count)?;
        for v in [&mut self.mean, &mut self.m2, &mut self.min, &mut self.max] {
            io.f64(v)?;
        }
        Ok(())
    }
}

/// A log-linear histogram for long-tailed quantities (latencies,
/// message sizes). Values below 4 get exact unit bins; from 4 up, each
/// power-of-two octave `[2^o, 2^(o+1))` is split into 4 equal-width
/// sub-buckets, bounding the relative quantile error at ~25% per bucket
/// instead of the ~100% a pure power-of-two binning allows. That
/// resolution is what keeps `p50`/`p99` apart under realistic serving
/// load (pure octave bins collapse them into one bucket).
///
/// # Example
///
/// ```
/// use ecoscale_sim::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [1u64, 2, 3, 100, 100_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.percentile(50.0), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    bins: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Sub-buckets per octave (must be a power of two; 4 = 2 bits).
    const SUBS: usize = 4;

    fn bin_of(value: u64) -> usize {
        if value < Self::SUBS as u64 {
            value as usize
        } else {
            let octave = 63 - value.leading_zeros() as usize;
            let sub = ((value >> (octave - 2)) & 3) as usize;
            Self::SUBS + (octave - 2) * Self::SUBS + sub
        }
    }

    /// `(lower, upper)` inclusive bounds of bin `i`.
    fn bin_bounds(i: usize) -> (u64, u64) {
        if i < Self::SUBS {
            (i as u64, i as u64)
        } else {
            let k = i - Self::SUBS;
            let octave = k / Self::SUBS + 2;
            let sub = (k % Self::SUBS) as u64;
            let width = 1u64 << (octave - 2);
            let lower = (Self::SUBS as u64 + sub) << (octave - 2);
            (lower, lower + (width - 1))
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        let b = Self::bin_of(value);
        if self.bins.len() <= b {
            self.bins.resize(b + 1, 0);
        }
        self.bins[b] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded values (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate percentile (`p` in `[0, 100]`): returns the upper edge
    /// of the bin containing the p-th ranked sample, clamped to the
    /// observed maximum.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bin_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    /// Iterates `(bin_lower_bound, count)` for non-empty bins.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bin_bounds(i).0, c))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if self.bins.len() < other.bins.len() {
            self.bins.resize(other.bins.len(), 0);
        }
        for (i, &c) in other.bins.iter().enumerate() {
            self.bins[i] += c;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

impl Persist for Histogram {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        self.bins.persist(io)?;
        io.u64(&mut self.count)?;
        io.u128(&mut self.sum)?;
        io.u64(&mut self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.incr();
        c.add(10);
        assert_eq!(c.get(), 11);
        assert_eq!(c.to_string(), "11");
        c.reset();
        assert_eq!(c.get(), 0);
        // saturation
        c.add(u64::MAX);
        c.incr();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn online_stats_known_values() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn online_stats_empty_is_zeroed() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn online_stats_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &xs[..37] {
            left.record(x);
        }
        for &x in &xs[37..] {
            right.record(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.record(1.0);
        a.record(3.0);
        let before = a.mean();
        a.merge(&OnlineStats::new());
        assert_eq!(a.mean(), before);
        let mut e = OnlineStats::new();
        e.merge(&a);
        assert_eq!(e.count(), 2);
        assert_eq!(e.mean(), before);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        OnlineStats::new().record(f64::NAN);
    }

    #[test]
    fn histogram_binning() {
        // Values below 4 get exact unit bins.
        assert_eq!(Histogram::bin_of(0), 0);
        assert_eq!(Histogram::bin_of(1), 1);
        assert_eq!(Histogram::bin_of(2), 2);
        assert_eq!(Histogram::bin_of(3), 3);
        // Octave 2 sub-buckets are still exact (width 1).
        assert_eq!(Histogram::bin_of(4), 4);
        assert_eq!(Histogram::bin_of(7), 7);
        // Octave 3 starts at bin 8 with width-2 sub-buckets.
        assert_eq!(Histogram::bin_of(8), 8);
        assert_eq!(Histogram::bin_of(9), 8);
        assert_eq!(Histogram::bin_of(10), 9);
        assert_eq!(Histogram::bin_of(15), 11);
        assert_eq!(Histogram::bin_of(16), 12);
        assert_eq!(Histogram::bin_of(u64::MAX), 251);
        // Bounds invert bin_of: every bin's bounds map back to itself.
        for i in 0..252 {
            let (lo, hi) = Histogram::bin_bounds(i);
            assert_eq!(Histogram::bin_of(lo), i, "lower bound of bin {i}");
            assert_eq!(Histogram::bin_of(hi), i, "upper bound of bin {i}");
            assert!(lo <= hi);
        }
        assert_eq!(Histogram::bin_bounds(251).1, u64::MAX);
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::new();
        for v in [1u64, 1, 2, 4, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - (1 + 1 + 2 + 4 + 8 + 1000) as f64 / 6.0).abs() < 1e-9);
        // p100 is the observed max
        assert_eq!(h.percentile(100.0), 1000);
        // p50 is the third ranked sample's bin, which is exact here
        assert_eq!(h.percentile(50.0), 2);
        let bins: Vec<_> = h.iter().collect();
        assert!(bins.iter().any(|&(lo, c)| lo == 1 && c == 2));
    }

    #[test]
    fn percentiles_separate_under_skewed_load() {
        // A 90/10 bimodal latency mix: pure power-of-two bins would put
        // p50 and p99 only one octave apart (or collapse them); the
        // log-linear sub-buckets must keep them clearly distinct.
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(9_000);
        }
        let p50 = h.percentile(50.0);
        let p99 = h.percentile(99.0);
        assert!((896..=1_023).contains(&p50), "p50 = {p50}");
        assert!((8_192..=10_239).contains(&p99), "p99 = {p99}");
        assert!(p99 > 4 * p50, "p50 {p50} and p99 {p99} must separate");
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(500);
        b.record(5000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 5000);
    }

    #[test]
    fn percentile_on_empty_is_zero() {
        assert_eq!(Histogram::new().percentile(99.0), 0);
    }
}
