//! The Execution History store.
//!
//! §4.2: "A history of the function calls as well as their execution time
//! is stored in a History file (Execution History block). The runtime
//! scheduler/daemon will read periodically the system status and the
//! History file in order to decide at runtime what functions should be
//! loaded on the reconfiguration block."

use std::collections::HashMap;

use ecoscale_sim::{Duration, Energy, OnlineStats, Persist, RestoreError, SnapIo};

use crate::device::DeviceClass;

/// One observed execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sample {
    /// Function name.
    pub function: String,
    /// Where it ran.
    pub device: DeviceClass,
    /// The input features it ran with.
    pub features: Vec<f64>,
    /// Observed execution time.
    pub time: Duration,
    /// Observed energy.
    pub energy: Energy,
}

/// The per-worker history store, bounded per (function, device) key.
///
/// # Example
///
/// ```
/// use ecoscale_runtime::{DeviceClass, ExecutionHistory};
/// use ecoscale_sim::{Duration, Energy};
///
/// let mut h = ExecutionHistory::new(64);
/// h.record("gemm", DeviceClass::Cpu, vec![128.0], Duration::from_us(900), Energy::from_uj(50.0));
/// assert_eq!(h.call_count("gemm"), 1);
/// assert_eq!(h.samples("gemm", DeviceClass::Cpu).len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ExecutionHistory {
    capacity_per_key: usize,
    samples: HashMap<(String, DeviceClass), Vec<Sample>>,
    /// Lifetime online time statistics per key. Raw samples above are
    /// capacity-bounded (they exist for the feature-based prediction
    /// models); the aggregates answer [`ExecutionHistory::mean_time`]
    /// in O(1) without re-summing.
    time_stats: HashMap<(String, DeviceClass), OnlineStats>,
    call_counts: HashMap<String, u64>,
}

impl ExecutionHistory {
    /// Creates a history keeping at most `capacity_per_key` samples per
    /// (function, device) pair.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_per_key` is zero.
    pub fn new(capacity_per_key: usize) -> ExecutionHistory {
        assert!(capacity_per_key > 0, "history needs capacity");
        ExecutionHistory {
            capacity_per_key,
            samples: HashMap::new(),
            time_stats: HashMap::new(),
            call_counts: HashMap::new(),
        }
    }

    /// Records one execution.
    pub fn record(
        &mut self,
        function: &str,
        device: DeviceClass,
        features: Vec<f64>,
        time: Duration,
        energy: Energy,
    ) {
        *self.call_counts.entry(function.to_owned()).or_insert(0) += 1;
        let key = (function.to_owned(), device);
        self.time_stats
            .entry(key.clone())
            .or_default()
            .record(time.as_ps() as f64);
        let v = self.samples.entry(key).or_default();
        if v.len() == self.capacity_per_key {
            v.remove(0); // drop the oldest
        }
        v.push(Sample {
            function: function.to_owned(),
            device,
            features,
            time,
            energy,
        });
    }

    /// All retained samples for `(function, device)`, oldest first.
    pub fn samples(&self, function: &str, device: DeviceClass) -> &[Sample] {
        self.samples
            .get(&(function.to_owned(), device))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Total calls of `function` ever recorded (across devices, not
    /// bounded by capacity).
    pub fn call_count(&self, function: &str) -> u64 {
        self.call_counts.get(function).copied().unwrap_or(0)
    }

    /// Function names ordered by descending call count (the daemon's
    /// candidate list).
    pub fn hottest_functions(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = self
            .call_counts
            .iter()
            .map(|(k, c)| (k.clone(), *c))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Mean observed time of `(function, device)` over every execution
    /// ever recorded, if any exist. Served from the online aggregate in
    /// O(1); unlike [`ExecutionHistory::samples`] it is not bounded by
    /// the per-key capacity.
    pub fn mean_time(&self, function: &str, device: DeviceClass) -> Option<Duration> {
        self.time_stats(function, device)
            .map(|s| Duration::from_ps(s.mean().round() as u64))
    }

    /// Lifetime [`OnlineStats`] of execution time in picoseconds for
    /// `(function, device)`, if any executions were recorded.
    pub fn time_stats(&self, function: &str, device: DeviceClass) -> Option<&OnlineStats> {
        self.time_stats
            .get(&(function.to_owned(), device))
            .filter(|s| s.count() > 0)
    }
}

/// Retained samples and lifetime aggregates keyed by `(function,
/// device)` in ascending order, then the lifetime call counts. The
/// per-key capacity is structural and not in the stream: a load refuses
/// a key holding more samples.
impl Persist for ExecutionHistory {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        let cap = self.capacity_per_key;
        io.map_with(&mut self.samples, "sample keys", |io, _, v| {
            io.vec(v, "samples", IO::item)?;
            let n = v.len();
            io.ensure(n <= cap, || {
                format!("key holds {n} samples, capacity is {cap}")
            })
        })?;
        io.sorted_map(&mut self.time_stats, "aggregate keys")?;
        io.sorted_map(&mut self.call_counts, "call counts")
    }
}

impl Persist for Sample {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        io.str(&mut self.function)?;
        self.device.persist(io)?;
        self.features.persist(io)?;
        io.duration(&mut self.time)?;
        self.energy.persist(io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> ExecutionHistory {
        ExecutionHistory::new(3)
    }

    #[test]
    fn record_and_query() {
        let mut hist = h();
        hist.record(
            "f",
            DeviceClass::Cpu,
            vec![1.0],
            Duration::from_us(10),
            Energy::from_uj(1.0),
        );
        hist.record(
            "f",
            DeviceClass::FpgaLocal,
            vec![1.0],
            Duration::from_us(2),
            Energy::from_uj(0.2),
        );
        assert_eq!(hist.call_count("f"), 2);
        assert_eq!(hist.samples("f", DeviceClass::Cpu).len(), 1);
        assert_eq!(hist.samples("f", DeviceClass::FpgaLocal).len(), 1);
        assert_eq!(hist.samples("f", DeviceClass::FpgaRemote).len(), 0);
        assert_eq!(hist.call_count("g"), 0);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut hist = h();
        for i in 0..5u64 {
            hist.record(
                "f",
                DeviceClass::Cpu,
                vec![i as f64],
                Duration::from_us(i),
                Energy::ZERO,
            );
        }
        let s = hist.samples("f", DeviceClass::Cpu);
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].features, vec![2.0]);
        assert_eq!(s[2].features, vec![4.0]);
        // call count unaffected by eviction
        assert_eq!(hist.call_count("f"), 5);
    }

    #[test]
    fn hottest_functions_sorted() {
        let mut hist = h();
        for _ in 0..3 {
            hist.record(
                "hot",
                DeviceClass::Cpu,
                vec![],
                Duration::from_us(1),
                Energy::ZERO,
            );
        }
        hist.record(
            "cold",
            DeviceClass::Cpu,
            vec![],
            Duration::from_us(1),
            Energy::ZERO,
        );
        let top = hist.hottest_functions();
        assert_eq!(top[0].0, "hot");
        assert_eq!(top[0].1, 3);
        assert_eq!(top[1].0, "cold");
    }

    #[test]
    fn mean_time() {
        let mut hist = h();
        assert!(hist.mean_time("f", DeviceClass::Cpu).is_none());
        hist.record(
            "f",
            DeviceClass::Cpu,
            vec![],
            Duration::from_us(10),
            Energy::ZERO,
        );
        hist.record(
            "f",
            DeviceClass::Cpu,
            vec![],
            Duration::from_us(20),
            Energy::ZERO,
        );
        assert_eq!(
            hist.mean_time("f", DeviceClass::Cpu),
            Some(Duration::from_us(15))
        );
    }

    #[test]
    fn mean_time_covers_evicted_samples() {
        let mut hist = h(); // capacity 3
        for us in [10, 20, 30, 40, 50] {
            hist.record(
                "f",
                DeviceClass::Cpu,
                vec![],
                Duration::from_us(us),
                Energy::ZERO,
            );
        }
        // raw samples kept only for features; the mean is lifetime
        assert_eq!(hist.samples("f", DeviceClass::Cpu).len(), 3);
        assert_eq!(
            hist.mean_time("f", DeviceClass::Cpu),
            Some(Duration::from_us(30))
        );
        let s = hist.time_stats("f", DeviceClass::Cpu).unwrap();
        assert_eq!(s.count(), 5);
        assert_eq!(s.max(), Duration::from_us(50).as_ps() as f64);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        ExecutionHistory::new(0);
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let mut hist = h();
        for i in 0..5u64 {
            hist.record(
                "f",
                DeviceClass::Cpu,
                vec![i as f64, 2.0],
                Duration::from_us(10 + i),
                Energy::from_uj(i as f64),
            );
        }
        hist.record(
            "g",
            DeviceClass::FpgaLocal,
            vec![],
            Duration::from_us(3),
            Energy::ZERO,
        );
        let mut w = ecoscale_sim::SnapWriter::new();
        w.save(&mut hist);
        let bytes = w.into_bytes();

        let mut fresh = h();
        let mut r = ecoscale_sim::SnapReader::new(&bytes);
        fresh.persist(&mut r).expect("restore");
        assert!(r.is_exhausted());
        let mut w2 = ecoscale_sim::SnapWriter::new();
        w2.save(&mut fresh);
        assert_eq!(
            bytes,
            w2.into_bytes(),
            "restored history re-serializes differently"
        );
        assert_eq!(fresh.call_count("f"), 5);
        assert_eq!(fresh.samples("f", DeviceClass::Cpu).len(), 3);
        assert_eq!(
            fresh.mean_time("f", DeviceClass::Cpu),
            hist.mean_time("f", DeviceClass::Cpu)
        );

        // a smaller-capacity history must refuse keys over its capacity
        let mut small = ExecutionHistory::new(2);
        let mut r = ecoscale_sim::SnapReader::new(&bytes);
        assert!(small.persist(&mut r).is_err());

        for cut in 0..bytes.len() {
            let mut p = h();
            let mut r = ecoscale_sim::SnapReader::new(&bytes[..cut]);
            assert!(
                p.persist(&mut r).is_err() || !r.is_exhausted(),
                "truncated stream at {cut} restored fully"
            );
        }
    }
}
