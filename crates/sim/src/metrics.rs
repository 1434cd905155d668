//! A deterministic registry of named instruments.
//!
//! [`MetricsRegistry`] maps metric names to one of the three stats
//! primitives from [`crate::stats`] — [`Counter`] (monotonic event
//! counts), [`OnlineStats`] (mean/min/max/stddev of a continuous
//! quantity) and [`Histogram`] (log-binned distributions with
//! percentiles) — or to a gauge, a sampled `u64` level such as a queue
//! depth. Domain structs keep raw instruments in their own fields for
//! the hot path and *export* into a registry at snapshot time, so
//! registry lookups never appear in inner loops.
//!
//! The registry is backed by a `BTreeMap`, so iteration, the rendered
//! [`Table`] and the JSON export are all deterministically ordered.
//! [`MetricsRegistry::merge`] folds another registry in (counters and
//! gauges add, stats and histograms merge), which lets per-thread
//! registries from [`crate::pool`] combine in input order into output
//! that is byte-identical regardless of `ECOSCALE_THREADS`.
//!
//! The registry is also the one instrument model of the telemetry
//! plane: a [`crate::TimeSeries`] is a ring of per-window registries
//! plus a lifetime registry.

use std::collections::BTreeMap;

use crate::json;
use crate::report::{fnum, Table};
use crate::snap::{malformed, Persist, RestoreError, SnapIo};
use crate::stats::{Counter, Histogram, OnlineStats};

/// One named instrument held by a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq)]
pub enum Instrument {
    /// A monotonic event count.
    Counter(Counter),
    /// Welford summary of a continuous quantity.
    Stats(OnlineStats),
    /// Log-binned distribution.
    Histogram(Histogram),
    /// A sampled level (set, not accumulated; merging adds levels).
    Gauge(u64),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Stats(_) => "stats",
            Instrument::Histogram(_) => "histogram",
            Instrument::Gauge(_) => "gauge",
        }
    }
}

/// Named instruments with deterministic iteration, merge, and export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    slots: BTreeMap<String, Instrument>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The instrument `name`, registered as `new()` on first use. The
    /// key is only allocated for a new name, so recording into an
    /// existing instrument allocates nothing.
    fn slot(&mut self, name: &str, new: fn() -> Instrument) -> &mut Instrument {
        if !self.slots.contains_key(name) {
            self.slots.insert(name.to_owned(), new());
        }
        self.slots.get_mut(name).expect("slot registered above")
    }

    fn counter_mut(&mut self, name: &str) -> &mut Counter {
        match self.slot(name, || Instrument::Counter(Counter::new())) {
            Instrument::Counter(c) => c,
            other => panic!("metric `{name}` is a {}, not a counter", other.kind()),
        }
    }

    fn stats_mut(&mut self, name: &str) -> &mut OnlineStats {
        match self.slot(name, || Instrument::Stats(OnlineStats::new())) {
            Instrument::Stats(s) => s,
            other => panic!("metric `{name}` is a {}, not stats", other.kind()),
        }
    }

    fn hist_mut(&mut self, name: &str) -> &mut Histogram {
        match self.slot(name, || Instrument::Histogram(Histogram::new())) {
            Instrument::Histogram(h) => h,
            other => panic!("metric `{name}` is a {}, not a histogram", other.kind()),
        }
    }

    fn gauge_mut(&mut self, name: &str) -> &mut u64 {
        match self.slot(name, || Instrument::Gauge(0)) {
            Instrument::Gauge(v) => v,
            other => panic!("metric `{name}` is a {}, not a gauge", other.kind()),
        }
    }

    /// Increments the counter `name` by one.
    pub fn incr(&mut self, name: &str) {
        self.counter_mut(name).incr();
    }

    /// Adds `n` to the counter `name`.
    pub fn add(&mut self, name: &str, n: u64) {
        self.counter_mut(name).add(n);
    }

    /// Records `x` into the [`OnlineStats`] instrument `name`.
    pub fn observe(&mut self, name: &str, x: f64) {
        self.stats_mut(name).record(x);
    }

    /// Records `v` into the [`Histogram`] instrument `name`.
    pub fn record(&mut self, name: &str, v: u64) {
        self.hist_mut(name).record(v);
    }

    /// Sets the gauge `name` to level `v`.
    pub fn set_gauge(&mut self, name: &str, v: u64) {
        *self.gauge_mut(name) = v;
    }

    /// Merges a pre-accumulated [`OnlineStats`] into instrument `name`.
    pub fn merge_stats(&mut self, name: &str, s: &OnlineStats) {
        self.stats_mut(name).merge(s);
    }

    /// Merges a pre-accumulated [`Histogram`] into instrument `name`.
    pub fn merge_hist(&mut self, name: &str, h: &Histogram) {
        self.hist_mut(name).merge(h);
    }

    /// Folds `other` into `self`: counters and gauges add, stats and
    /// histograms merge. Panics if a shared name holds different
    /// instrument kinds.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, inst) in &other.slots {
            match inst {
                Instrument::Counter(c) => self.add(name, c.get()),
                Instrument::Stats(s) => self.merge_stats(name, s),
                Instrument::Histogram(h) => self.merge_hist(name, h),
                Instrument::Gauge(v) => {
                    let mine = self.gauge_mut(name);
                    *mine = mine.saturating_add(*v);
                }
            }
        }
    }

    /// Starts a new accumulation window in place: counters go to 0,
    /// stats and histograms are emptied, gauges keep their level (a
    /// level outlives the window it was set in). Every name stays
    /// registered.
    pub(crate) fn begin_window(&mut self) {
        for inst in self.slots.values_mut() {
            match inst {
                Instrument::Counter(c) => *c = Counter::new(),
                Instrument::Stats(s) => *s = OnlineStats::new(),
                Instrument::Histogram(h) => *h = Histogram::new(),
                Instrument::Gauge(_) => {}
            }
        }
    }

    /// Looks up an instrument by name.
    pub fn get(&self, name: &str) -> Option<&Instrument> {
        self.slots.get(name)
    }

    /// The value of the counter `name`, if present and a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.slots.get(name) {
            Some(Instrument::Counter(c)) => Some(c.get()),
            _ => None,
        }
    }

    /// The level of the gauge `name`, if present and a gauge.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        match self.slots.get(name) {
            Some(Instrument::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The histogram `name`, if present and a histogram.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        match self.slots.get(name) {
            Some(Instrument::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Iterates instruments in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Instrument)> {
        self.slots.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of registered instruments.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no instruments are registered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Renders every instrument as one row of a [`Table`].
    pub fn to_table(&self, title: &str) -> Table {
        let mut t = Table::new(
            title,
            &["metric", "kind", "count", "mean", "p50", "p95", "max"],
        );
        for (name, inst) in &self.slots {
            match inst {
                Instrument::Counter(c) => t.row_owned(vec![
                    name.clone(),
                    "counter".into(),
                    fnum(c.get() as f64),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]),
                Instrument::Stats(s) => t.row_owned(vec![
                    name.clone(),
                    "stats".into(),
                    s.count().to_string(),
                    fnum(s.mean()),
                    "-".into(),
                    "-".into(),
                    fnum(s.max()),
                ]),
                Instrument::Histogram(h) => t.row_owned(vec![
                    name.clone(),
                    "histogram".into(),
                    h.count().to_string(),
                    fnum(h.mean()),
                    fnum(h.percentile(50.0) as f64),
                    fnum(h.percentile(95.0) as f64),
                    fnum(h.max() as f64),
                ]),
                Instrument::Gauge(v) => t.row_owned(vec![
                    name.clone(),
                    "gauge".into(),
                    fnum(*v as f64),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]),
            }
        }
        t
    }

    /// Renders the registry as a JSON object keyed by metric name.
    /// Deterministic: names are in `BTreeMap` order and numbers are
    /// formatted with the shortest round-trip form.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(32 + self.slots.len() * 64);
        out.push('{');
        let mut first = true;
        for (name, inst) in &self.slots {
            if !first {
                out.push(',');
            }
            first = false;
            json::escape(&mut out, name);
            out.push_str(":{\"kind\":\"");
            out.push_str(inst.kind());
            out.push('"');
            match inst {
                Instrument::Counter(c) => {
                    out.push_str(",\"value\":");
                    out.push_str(&c.get().to_string());
                }
                Instrument::Gauge(v) => {
                    out.push_str(",\"value\":");
                    out.push_str(&v.to_string());
                }
                Instrument::Stats(s) => {
                    out.push_str(",\"count\":");
                    out.push_str(&s.count().to_string());
                    for (key, v) in [
                        ("mean", s.mean()),
                        ("std_dev", s.std_dev()),
                        ("min", s.min()),
                        ("max", s.max()),
                    ] {
                        out.push_str(",\"");
                        out.push_str(key);
                        out.push_str("\":");
                        json::fmt_f64(&mut out, v);
                    }
                }
                Instrument::Histogram(h) => {
                    out.push_str(",\"count\":");
                    out.push_str(&h.count().to_string());
                    out.push_str(",\"mean\":");
                    json::fmt_f64(&mut out, h.mean());
                    for (key, v) in [
                        ("p50", h.percentile(50.0)),
                        ("p95", h.percentile(95.0)),
                        ("p99", h.percentile(99.0)),
                        ("max", h.max()),
                    ] {
                        out.push_str(",\"");
                        out.push_str(key);
                        out.push_str("\":");
                        out.push_str(&v.to_string());
                    }
                }
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// A one-byte variant tag, then the instrument.
impl Persist for Instrument {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        let mut tag = match self {
            Instrument::Counter(_) => 0,
            Instrument::Stats(_) => 1,
            Instrument::Histogram(_) => 2,
            Instrument::Gauge(_) => 3,
        };
        io.u8(&mut tag)?;
        if IO::LOADING {
            *self = match tag {
                0 => Instrument::Counter(Counter::default()),
                1 => Instrument::Stats(OnlineStats::default()),
                2 => Instrument::Histogram(Histogram::default()),
                3 => Instrument::Gauge(0),
                tag => return Err(malformed(format!("instrument tag {tag}"))),
            };
        }
        match self {
            Instrument::Counter(c) => c.persist(io),
            Instrument::Stats(s) => s.persist(io),
            Instrument::Histogram(h) => h.persist(io),
            Instrument::Gauge(v) => io.u64(v),
        }
    }
}

impl Default for Instrument {
    /// A zero counter.
    fn default() -> Instrument {
        Instrument::Counter(Counter::default())
    }
}

impl Persist for MetricsRegistry {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        io.sorted_map(&mut self.slots, "metrics")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reads_back() {
        let mut m = MetricsRegistry::new();
        m.incr("a.hits");
        m.add("a.hits", 4);
        m.observe("a.lat", 2.0);
        m.observe("a.lat", 4.0);
        m.record("a.hops", 3);
        m.set_gauge("a.depth", 9);
        m.set_gauge("a.depth", 4);
        assert_eq!(m.counter("a.hits"), Some(5));
        assert_eq!(m.gauge("a.depth"), Some(4), "a gauge holds its last level");
        assert_eq!(m.hist("a.hops").map(|h| h.count()), Some(1));
        assert_eq!(m.gauge("a.hits"), None);
        assert!(m.hist("a.lat").is_none());
        match m.get("a.lat") {
            Some(Instrument::Stats(s)) => assert_eq!(s.mean(), 3.0),
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(m.len(), 4);
        let mut other = MetricsRegistry::new();
        other.set_gauge("a.depth", 3);
        m.merge(&other);
        assert_eq!(m.gauge("a.depth"), Some(7), "merged gauges add");
    }

    #[test]
    #[should_panic(expected = "not a histogram")]
    fn kind_mismatch_panics() {
        let mut m = MetricsRegistry::new();
        m.incr("x");
        m.record("x", 1);
    }

    #[test]
    fn merge_matches_sequential_recording() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        let mut seq = MetricsRegistry::new();
        for v in 0..10u64 {
            let target = if v % 2 == 0 { &mut a } else { &mut b };
            target.incr("n");
            target.observe("v", v as f64);
            target.record("h", v);
            seq.incr("n");
            seq.observe("v", v as f64);
            seq.record("h", v);
        }
        a.merge(&b);
        assert_eq!(a.counter("n"), seq.counter("n"));
        assert_eq!(a.to_json(), seq.to_json());
        assert_eq!(a.to_table("m").to_string(), seq.to_table("m").to_string());
    }

    #[test]
    fn json_is_well_formed_and_ordered() {
        let mut m = MetricsRegistry::new();
        m.add("z.count", 7);
        m.observe("a.stat", 1.5);
        m.record("m.hist", 8);
        let text = m.to_json();
        let doc = crate::json::parse(&text).expect("metrics JSON must parse");
        match &doc {
            crate::json::Value::Obj(pairs) => {
                let names: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(names, vec!["a.stat", "m.hist", "z.count"]);
            }
            other => panic!("expected object, got {other:?}"),
        }
        assert_eq!(
            doc.get("z.count").unwrap().get("value").unwrap().as_f64(),
            Some(7.0)
        );
        assert_eq!(
            doc.get("a.stat").unwrap().get("mean").unwrap().as_f64(),
            Some(1.5)
        );
    }

    #[test]
    fn snapshot_round_trips_every_instrument_kind() {
        use crate::snap::{SnapReader, SnapWriter};
        let mut m = MetricsRegistry::new();
        m.add("z.count", 7);
        m.observe("a.stat", 1.5);
        m.observe("a.stat", -3.0);
        m.record("m.hist", 8);
        m.record("m.hist", 900);
        m.observe("empty.stat", 1.0);
        m.set_gauge("q.depth", 12);
        let mut w = SnapWriter::new();
        w.save(&mut m);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = r.load(MetricsRegistry::new()).expect("restore");
        assert!(r.is_exhausted());
        assert_eq!(back, m);
        assert_eq!(back.to_json(), m.to_json());
    }
}
