//! The Execution History store.
//!
//! §4.2: "A history of the function calls as well as their execution time
//! is stored in a History file (Execution History block). The runtime
//! scheduler/daemon will read periodically the system status and the
//! History file in order to decide at runtime what functions should be
//! loaded on the reconfiguration block."

use std::collections::{vec_deque, BTreeMap, VecDeque};

use ecoscale_sim::{Duration, Energy, OnlineStats, Persist, RestoreError, SnapIo};

use crate::device::DeviceClass;

/// One observed execution of a (function, device) key.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sample {
    /// The input features it ran with.
    pub features: Vec<f64>,
    /// Observed execution time.
    pub time: Duration,
    /// Observed energy.
    pub energy: Energy,
}

/// One (function, device) key: its newest samples in a ring, oldest
/// first, the lifetime aggregate of every time it recorded, and the
/// prediction model's fit of the ring.
#[derive(Debug, Clone, Default)]
pub(crate) struct KeyHistory {
    /// At most the history's capacity; a full ring recycles its oldest
    /// sample, so an eviction moves no other sample.
    pub(crate) samples: VecDeque<Sample>,
    stats: OnlineStats,
    /// The ridge weights [`crate::model::predict_time`] fits to
    /// `samples` (`Some(None)`: the fit was refused), or `None` until
    /// it first asks. Derived state: a record drops it and a snapshot
    /// neither holds nor restores it.
    pub(crate) fit: Option<Option<Vec<f64>>>,
}

/// One function's lifetime call count and its keys, indexed by
/// `DeviceClass as usize`.
#[derive(Debug, Clone, Default)]
struct FunctionHistory {
    calls: u64,
    keys: [Option<KeyHistory>; 3],
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
/// h.record("gemm", DeviceClass::Cpu, &[128.0], Duration::from_us(900), Energy::from_uj(50.0));
/// assert_eq!(h.call_count("gemm"), 1);
/// assert_eq!(h.samples("gemm", DeviceClass::Cpu).len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ExecutionHistory {
    capacity_per_key: usize,
    /// Keyed by function name, so a lookup borrows the caller's `&str`
    /// and only a function's first record allocates its name. Raw
    /// samples are capacity-bounded (they exist for the feature-based
    /// prediction models); the per-key aggregates answer
    /// [`ExecutionHistory::mean_time`] in O(1) without re-summing.
    functions: BTreeMap<String, FunctionHistory>,
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
            functions: BTreeMap::new(),
        }
    }

    /// Records one execution, evicting the key's oldest sample when it
    /// is full.
    pub fn record(
        &mut self,
        function: &str,
        device: DeviceClass,
        features: &[f64],
        time: Duration,
        energy: Energy,
    ) {
        if !self.functions.contains_key(function) {
            self.functions
                .insert(function.to_owned(), FunctionHistory::default());
        }
        let f = self.functions.get_mut(function).expect("inserted above");
        f.calls += 1;
        let key = f.keys[device as usize].get_or_insert_with(KeyHistory::default);
        key.stats.record(time.as_ps() as f64);
        key.fit = None;
        let mut sample = if key.samples.len() == self.capacity_per_key {
            key.samples.pop_front().expect("a full key holds samples")
        } else {
            Sample::default()
        };
        sample.features.clear();
        sample.features.extend_from_slice(features);
        sample.time = time;
        sample.energy = energy;
        key.samples.push_back(sample);
    }

    fn key(&self, function: &str, device: DeviceClass) -> Option<&KeyHistory> {
        self.functions.get(function)?.keys[device as usize].as_ref()
    }

    /// The `(function, device)` key, if it ever recorded.
    pub(crate) fn key_mut(
        &mut self,
        function: &str,
        device: DeviceClass,
    ) -> Option<&mut KeyHistory> {
        self.functions.get_mut(function)?.keys[device as usize].as_mut()
    }

    /// All retained samples for `(function, device)`, oldest first.
    pub fn samples(&self, function: &str, device: DeviceClass) -> vec_deque::Iter<'_, Sample> {
        self.key(function, device)
            .map(|k| k.samples.iter())
            .unwrap_or_default()
    }

    /// Total calls of `function` ever recorded (across devices, not
    /// bounded by capacity).
    pub fn call_count(&self, function: &str) -> u64 {
        self.functions.get(function).map_or(0, |f| f.calls)
    }

    /// Function names ordered by descending call count (the daemon's
    /// candidate list).
    pub fn hottest_functions(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = self
            .functions
            .iter()
            .map(|(k, f)| (k.clone(), f.calls))
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
        self.key(function, device)
            .map(|k| &k.stats)
            .filter(|s| s.count() > 0)
    }
}

/// Three maps in ascending key order: each `(function, device)` key's
/// retained samples, oldest first (each sample repeating its key); each
/// key's lifetime aggregate; each function's lifetime call count. The
/// per-key capacity is structural and not in the stream: a load refuses
/// a key holding more samples, a sample that names another key, and
/// maps whose keys disagree. The prediction fits are not in the stream;
/// a loaded history refits on first use.
impl Persist for ExecutionHistory {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        let cap = self.capacity_per_key;
        // Saving lends the rings to the stream's maps and takes them back.
        let mut rings = BTreeMap::new();
        let mut aggregates = BTreeMap::new();
        let mut calls = BTreeMap::new();
        if !IO::LOADING {
            for (name, f) in &mut self.functions {
                calls.insert(name.clone(), f.calls);
                for (device, key) in DeviceClass::ALL.into_iter().zip(&mut f.keys) {
                    if let Some(key) = key {
                        let samples = std::mem::take(&mut key.samples);
                        rings.insert((name.clone(), device), samples);
                        aggregates.insert((name.clone(), device), key.stats.clone());
                    }
                }
            }
        }
        let mut name = String::new();
        io.map_with(&mut rings, "sample keys", |io, (function, device), ring| {
            io.vec(ring, "samples", |io, s| {
                name.clone_from(function);
                io.str(&mut name)?;
                let mut d = *device;
                d.persist(io)?;
                io.ensure(name == *function && d == *device, || {
                    format!("a sample of `{function}` on {device} names `{name}` on {d}")
                })?;
                s.features.persist(io)?;
                io.duration(&mut s.time)?;
                s.energy.persist(io)
            })?;
            let n = ring.len();
            io.ensure(n <= cap, || {
                format!("key holds {n} samples, capacity is {cap}")
            })
        })?;
        io.sorted_map(&mut aggregates, "aggregate keys")?;
        io.sorted_map(&mut calls, "call counts")?;
        if !IO::LOADING {
            for ((name, device), samples) in rings {
                let f = self.functions.get_mut(&name).expect("lent above");
                f.keys[device as usize]
                    .as_mut()
                    .expect("lent above")
                    .samples = samples;
            }
            return Ok(());
        }
        io.ensure(rings.keys().eq(aggregates.keys()), || {
            "aggregate keys differ from sample keys".to_owned()
        })?;
        let mut functions: Vec<&String> = rings.keys().map(|(f, _)| f).collect();
        functions.dedup();
        io.ensure(calls.keys().eq(functions), || {
            "call-count functions differ from sample keys".to_owned()
        })?;
        self.functions.clear();
        for (((name, device), samples), stats) in rings.into_iter().zip(aggregates.into_values()) {
            let f = self.functions.entry(name).or_default();
            f.keys[device as usize] = Some(KeyHistory {
                samples,
                stats,
                fit: None,
            });
        }
        for (f, calls) in self.functions.values_mut().zip(calls.into_values()) {
            f.calls = calls;
        }
        Ok(())
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
            &[1.0],
            Duration::from_us(10),
            Energy::from_uj(1.0),
        );
        hist.record(
            "f",
            DeviceClass::FpgaLocal,
            &[1.0],
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
                &[i as f64],
                Duration::from_us(i),
                Energy::ZERO,
            );
        }
        let s: Vec<&Sample> = hist.samples("f", DeviceClass::Cpu).collect();
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
                &[],
                Duration::from_us(1),
                Energy::ZERO,
            );
        }
        hist.record(
            "cold",
            DeviceClass::Cpu,
            &[],
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
            &[],
            Duration::from_us(10),
            Energy::ZERO,
        );
        hist.record(
            "f",
            DeviceClass::Cpu,
            &[],
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
                &[],
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
                &[i as f64, 2.0],
                Duration::from_us(10 + i),
                Energy::from_uj(i as f64),
            );
        }
        hist.record(
            "g",
            DeviceClass::FpgaLocal,
            &[],
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
