//! TelePlane: windowed time-series telemetry and an anomaly-triggered
//! flight recorder.
//!
//! End-of-run aggregates (PR 2's [`crate::metrics`]) answer "how much
//! in total"; an operator diagnosing an SLO breach needs "when, and
//! what else was happening". This module adds the time-resolved layer:
//!
//! * [`TimeSeries`] — named counters, gauges and histograms bucketed
//!   into fixed sim-time windows of configurable width. It adds no
//!   instrument model of its own: every window is a
//!   [`MetricsRegistry`], kept in a bounded ring of closed windows, and
//!   a lifetime registry (the infinite window) holds counter totals.
//!   Merge and [`Persist`] are the registry's; only the
//!   canonical JSON export splits a window by instrument kind.
//!   Everything is driven by simulated time, so exports are
//!   byte-identical at any `ECOSCALE_THREADS`/`ECOSCALE_SHARDS` setting.
//! * [`FlightRecorder`] — an always-on bounded ring of recent trace
//!   events. Disabled, every call is a single branch on an `Option`
//!   and allocates nothing; armed, the ring is allocated once up
//!   front. A [`TriggerPolicy`] decides which anomalies (SLO-breach
//!   windows, queue saturation, CheckPlane violations, resilience
//!   quarantine) latch a [`TriggerFire`], after which the ring plus
//!   the time-series tail form a deterministic evidence bundle.
//!
//! The conservation contract between the two layers is checkable:
//! for every windowed counter, the counts in the retained ring plus
//! the counts evicted from it plus the open window must sum to the
//! lifetime total ([`TimeSeries::check_conservation`], registered as
//! `telem.window_conserved` in the invariant catalog).

use std::collections::{BTreeMap, VecDeque};

use crate::check::{invariant, CheckPlane};
use crate::json;
use crate::metrics::{Instrument, MetricsRegistry};
use crate::snap::{malformed, Persist, RestoreError, SnapIo};
use crate::stats::Histogram;
use crate::time::{Duration, Time};

/// Telemetry plane configuration: window width, ring depths, and the
/// flight-recorder trigger policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Width of one time-series window in simulated time.
    pub window: Duration,
    /// How many closed windows the series ring retains.
    pub retain: usize,
    /// Flight-recorder ring capacity (events).
    pub flight: usize,
    /// Which anomalies latch a flight-recorder trigger.
    pub policy: TriggerPolicy,
}

impl TelemetryConfig {
    /// A config with the given window width and default ring depths
    /// (64 retained windows, 128 flight events, all triggers armed).
    pub fn new(window: Duration) -> TelemetryConfig {
        TelemetryConfig {
            window,
            retain: 64,
            flight: 128,
            policy: TriggerPolicy::default(),
        }
    }
}

/// Named instruments bucketed into fixed sim-time windows.
///
/// Callers drive the clock explicitly: [`TimeSeries::advance`] closes
/// every window that ends at or before `now`, pushing it into a bounded
/// ring; recording calls then land in the open window. Each window is a
/// [`MetricsRegistry`]: counters restart from 0 per window (their sum
/// over every window is the lifetime registry), gauges are sampled
/// levels that persist across rolls, histograms reset per window but
/// stay raw in the ring so series merge exactly. A name belongs to one
/// instrument kind: recording it as another kind panics.
///
/// # Example
///
/// ```
/// use ecoscale_sim::{Duration, Time, TimeSeries};
///
/// let mut ts = TimeSeries::new(Duration::from_us(10), 8);
/// ts.incr("req", 3);
/// ts.advance(Time::ZERO + Duration::from_us(25));
/// ts.incr("req", 1);
/// ts.finish(Time::ZERO + Duration::from_us(25));
/// assert_eq!(ts.lifetime("req"), 4);
/// assert_eq!(ts.windows().count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    width: Duration,
    retain: usize,
    /// Index of the open window.
    open: u64,
    /// Number of windows closed so far.
    rolled: u64,
    /// The open window. It keeps every name across rolls.
    current: MetricsRegistry,
    /// Counter totals over all windows: the infinite window.
    lifetime: MetricsRegistry,
    /// Counter counts of the windows evicted from the ring.
    evicted: MetricsRegistry,
    /// Closed windows by index, oldest first.
    ring: VecDeque<(u64, MetricsRegistry)>,
}

impl TimeSeries {
    /// Creates a series with the given window width, retaining up to
    /// `retain` closed windows.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or `retain` is zero.
    pub fn new(width: Duration, retain: usize) -> TimeSeries {
        assert!(!width.is_zero(), "window width must be non-zero");
        assert!(retain > 0, "must retain at least one window");
        TimeSeries {
            width,
            retain,
            open: 0,
            rolled: 0,
            current: MetricsRegistry::new(),
            lifetime: MetricsRegistry::new(),
            evicted: MetricsRegistry::new(),
            ring: VecDeque::with_capacity(retain),
        }
    }

    /// The configured window width.
    pub fn width(&self) -> Duration {
        self.width
    }

    /// Number of windows closed so far.
    pub fn rolled(&self) -> u64 {
        self.rolled
    }

    /// Adds `n` to the counter `name` in the open window.
    pub fn incr(&mut self, name: &str, n: u64) {
        self.current.add(name, n);
        self.lifetime.add(name, n);
    }

    /// Sets the gauge `name` to level `v` (persists across rolls).
    pub fn set_gauge(&mut self, name: &str, v: u64) {
        self.current.set_gauge(name, v);
    }

    /// Records `v` into the open window's histogram `name`.
    pub fn record(&mut self, name: &str, v: u64) {
        self.current.record(name, v);
    }

    /// Merges a pre-accumulated histogram into the open window's
    /// histogram `name` (how drivers hand over a window's worth of
    /// latencies in one call).
    pub fn merge_hist(&mut self, name: &str, h: &Histogram) {
        self.current.merge_hist(name, h);
    }

    /// The index of the window containing `t`.
    pub fn window_index(&self, t: Time) -> u64 {
        t.as_ps() / self.width.as_ps()
    }

    /// Lifetime total of the counter `name` across all windows.
    pub fn lifetime(&self, name: &str) -> u64 {
        self.lifetime.counter(name).unwrap_or(0)
    }

    /// Closes every window that ends at or before `now`.
    pub fn advance(&mut self, now: Time) {
        let w = self.width.as_ps();
        while (self.open + 1).saturating_mul(w) <= now.as_ps() {
            self.close_open();
        }
    }

    /// Rolls up to `now`, then closes the partial open window too.
    /// Call once at end of run so the tail is exported.
    pub fn finish(&mut self, now: Time) {
        self.advance(now);
        self.close_open();
    }

    fn close_open(&mut self) {
        let closed = self.current.clone();
        self.current.begin_window();
        self.push_window(self.open, closed);
        self.open += 1;
        self.rolled += 1;
    }

    fn push_window(&mut self, index: u64, window: MetricsRegistry) {
        if self.ring.len() == self.retain {
            let (_, old) = self.ring.pop_front().expect("ring non-empty at capacity");
            for (name, v) in counters(&old) {
                self.evicted.add(name, v);
            }
        }
        self.ring.push_back((index, window));
    }

    /// Iterates retained closed windows as `(index, instruments)`,
    /// oldest first. Window `i` covers `[i*width, (i+1)*width)`.
    pub fn windows(&self) -> impl Iterator<Item = (u64, &MetricsRegistry)> {
        self.ring.iter().map(|(i, w)| (*i, w))
    }

    /// The most recent `n` closed windows, oldest first.
    pub fn tail(&self, n: usize) -> impl Iterator<Item = (u64, &MetricsRegistry)> {
        self.windows().skip(self.ring.len().saturating_sub(n))
    }

    /// Checks `telem.window_conserved`: for every counter, ring counts
    /// plus evicted counts plus the open window equal the lifetime
    /// total.
    pub fn check_conservation(&self, cp: &mut CheckPlane) {
        for (name, total) in counters(&self.lifetime) {
            let ring_sum: u64 = self
                .ring
                .iter()
                .map(|(_, w)| w.counter(name).unwrap_or(0))
                .sum();
            let evicted = self.evicted.counter(name).unwrap_or(0);
            let open = self.current.counter(name).unwrap_or(0);
            cp.check(
                invariant::TELEM_WINDOW_CONSERVED,
                ring_sum + evicted + open == total,
                || {
                    format!(
                        "counter `{name}`: ring {ring_sum} + evicted {evicted} + open {open} != lifetime {total}"
                    )
                },
            );
        }
    }

    /// Folds another series into this one (cell-order merge). Windows
    /// merge index-by-index as registries: counters and gauges add,
    /// histograms merge raw. Lifetime and eviction registries merge
    /// too, so conservation still holds on the merged series.
    ///
    /// # Panics
    ///
    /// Panics if the window widths differ.
    pub fn merge(&mut self, other: &TimeSeries) {
        assert_eq!(
            self.width, other.width,
            "cannot merge time series with different window widths"
        );
        self.current.merge(&other.current);
        self.lifetime.merge(&other.lifetime);
        self.evicted.merge(&other.evicted);
        let mut by_index: BTreeMap<u64, MetricsRegistry> = self.ring.drain(..).collect();
        for (index, window) in &other.ring {
            by_index.entry(*index).or_default().merge(window);
        }
        for (index, window) in by_index {
            self.push_window(index, window);
        }
        self.open = self.open.max(other.open);
        self.rolled = self.rolled.max(other.rolled);
    }

    /// Renders the series as canonical JSON: window parameters,
    /// lifetime counter totals, then retained windows oldest-first with
    /// counters/gauges in name order and histogram summaries
    /// (`count`/`p50`/`p99`/`max`) computed from the raw windowed
    /// histograms. Deterministic byte-for-byte for a deterministic
    /// simulation.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.ring.len() * 128);
        out.push_str("{\"width_ns\":");
        out.push_str(&self.width.as_ns().to_string());
        out.push_str(",\"retain\":");
        out.push_str(&self.retain.to_string());
        out.push_str(",\"windows_rolled\":");
        out.push_str(&self.rolled.to_string());
        out.push_str(",\"lifetime\":");
        json_object(&mut out, counters(&self.lifetime), |out, v| {
            out.push_str(&v.to_string())
        });
        out.push_str(",\"windows\":");
        self.windows_json(&mut out, self.windows());
        out.push('}');
        out
    }

    /// Renders the last `n` retained windows (oldest-first) as a JSON
    /// array of window objects — the "series tail" a flight-recorder
    /// evidence bundle carries alongside the trace ring.
    pub fn tail_json(&self, n: usize) -> String {
        let mut out = String::with_capacity(64 + n * 128);
        self.windows_json(&mut out, self.tail(n));
        out
    }

    /// Renders windows as a JSON array, each window's registry split by
    /// instrument kind.
    fn windows_json<'a>(
        &self,
        out: &mut String,
        windows: impl Iterator<Item = (u64, &'a MetricsRegistry)>,
    ) {
        let width_ns = self.width.as_ns();
        out.push('[');
        for (wi, (index, w)) in windows.enumerate() {
            if wi > 0 {
                out.push(',');
            }
            out.push_str("{\"index\":");
            out.push_str(&index.to_string());
            out.push_str(",\"start_ns\":");
            out.push_str(&(index * width_ns).to_string());
            out.push_str(",\"end_ns\":");
            out.push_str(&((index + 1) * width_ns).to_string());
            out.push_str(",\"counters\":");
            json_object(out, counters(w), |out, v| out.push_str(&v.to_string()));
            out.push_str(",\"gauges\":");
            let gauges = w.iter().filter_map(|(name, inst)| match inst {
                Instrument::Gauge(v) => Some((name, *v)),
                _ => None,
            });
            json_object(out, gauges, |out, v| out.push_str(&v.to_string()));
            out.push_str(",\"hists\":");
            let hists = w.iter().filter_map(|(name, inst)| match inst {
                Instrument::Histogram(h) => Some((name, h)),
                _ => None,
            });
            json_object(out, hists, |out, h| {
                out.push_str("{\"count\":");
                out.push_str(&h.count().to_string());
                out.push_str(",\"p50\":");
                out.push_str(&h.percentile(50.0).to_string());
                out.push_str(",\"p99\":");
                out.push_str(&h.percentile(99.0).to_string());
                out.push_str(",\"max\":");
                out.push_str(&h.max().to_string());
                out.push('}');
            });
            out.push('}');
        }
        out.push(']');
    }
}

/// The counters of a window registry as `(name, count)`, in name order.
fn counters(w: &MetricsRegistry) -> impl Iterator<Item = (&str, u64)> {
    w.iter().filter_map(|(name, inst)| match inst {
        Instrument::Counter(c) => Some((name, c.get())),
        _ => None,
    })
}

/// Renders `"name":value` pairs as one JSON object.
fn json_object<'a, T>(
    out: &mut String,
    pairs: impl Iterator<Item = (&'a str, T)>,
    mut value: impl FnMut(&mut String, T),
) {
    out.push('{');
    for (i, (name, v)) in pairs.enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::escape(out, name);
        out.push(':');
        value(out, v);
    }
    out.push('}');
}

impl Persist for TimeSeries {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        io.duration(&mut self.width)?;
        io.ensure(!self.width.is_zero(), || {
            "time series window width is zero".to_owned()
        })?;
        io.usize(&mut self.retain)?;
        io.ensure(self.retain != 0, || {
            "time series retains zero windows".to_owned()
        })?;
        io.u64(&mut self.open)?;
        io.u64(&mut self.rolled)?;
        for registry in [&mut self.current, &mut self.lifetime, &mut self.evicted] {
            registry.persist(io)?;
        }
        io.vec(&mut self.ring, "time series ring", IO::item)?;
        if IO::LOADING {
            self.refuse_inconsistent()?;
        }
        Ok(())
    }
}

impl TimeSeries {
    /// The loaded series' shape checks: a ring within `retain`, in
    /// ascending window order before the open window, and every name
    /// keeping the kind it has in the open window, which holds every
    /// name (lifetime and evicted hold only counters). A stream that
    /// breaks these would panic on the next recording call.
    fn refuse_inconsistent(&self) -> Result<(), RestoreError> {
        let (n, retain, open) = (self.ring.len(), self.retain, self.open);
        if n > retain {
            return Err(malformed(format!(
                "ring holds {n} windows, retain is {retain}"
            )));
        }
        let kind = |name: &str| self.current.get(name).map(std::mem::discriminant);
        let counter = std::mem::discriminant(&Instrument::Counter(Default::default()));
        for (name, inst) in self.lifetime.iter().chain(self.evicted.iter()) {
            let here = std::mem::discriminant(inst);
            if here != counter || kind(name).is_some_and(|k| k != counter) {
                return Err(malformed(format!(
                    "telemetry total `{name}` is not a counter"
                )));
            }
        }
        let mut last: Option<u64> = None;
        for (index, window) in &self.ring {
            let index = *index;
            if index >= open {
                return Err(malformed(format!(
                    "ring window {index} not before open window {open}"
                )));
            }
            if last.is_some_and(|prev| index <= prev) {
                return Err(malformed("ring windows out of order"));
            }
            last = Some(index);
            if let Some((name, _)) = window
                .iter()
                .find(|(name, inst)| kind(name) != Some(std::mem::discriminant(inst)))
            {
                return Err(malformed(format!(
                    "ring window {index} instrument `{name}` differs from the open window"
                )));
            }
        }
        Ok(())
    }
}

/// Which anomaly classes latch a flight-recorder trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriggerPolicy {
    /// A closed window whose latency p99 exceeds the SLO deadline.
    pub slo_breach: bool,
    /// A closed window in which admission shed requests on a full queue.
    pub queue_saturation: bool,
    /// A CheckPlane violation observed since the last window.
    pub check_violation: bool,
    /// A resilience-layer domain quarantine since the last window.
    pub quarantine: bool,
}

impl Default for TriggerPolicy {
    /// All trigger classes armed.
    fn default() -> TriggerPolicy {
        TriggerPolicy {
            slo_breach: true,
            queue_saturation: true,
            check_violation: true,
            quarantine: true,
        }
    }
}

impl TriggerPolicy {
    /// A policy with every trigger class disarmed.
    pub fn none() -> TriggerPolicy {
        TriggerPolicy {
            slo_breach: false,
            queue_saturation: false,
            check_violation: false,
            quarantine: false,
        }
    }
}

/// An anomaly class that can fire the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerKind {
    /// Window latency p99 exceeded the deadline.
    SloBreach,
    /// Admission shed on a saturated queue this window.
    QueueSaturation,
    /// CheckPlane recorded a violation.
    CheckViolation,
    /// A resilience domain was quarantined.
    Quarantine,
}

impl TriggerKind {
    /// Stable name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            TriggerKind::SloBreach => "slo_breach",
            TriggerKind::QueueSaturation => "queue_saturation",
            TriggerKind::CheckViolation => "check_violation",
            TriggerKind::Quarantine => "quarantine",
        }
    }

    fn armed_in(self, p: &TriggerPolicy) -> bool {
        match self {
            TriggerKind::SloBreach => p.slo_breach,
            TriggerKind::QueueSaturation => p.queue_saturation,
            TriggerKind::CheckViolation => p.check_violation,
            TriggerKind::Quarantine => p.quarantine,
        }
    }
}

/// One event in the flight ring.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlightEvent {
    /// Simulated time of the event.
    pub time: Time,
    /// Short stable category (`"exemplar"`, `"window"`, ...).
    pub kind: String,
    /// Human-readable detail.
    pub detail: String,
}

/// A latched trigger: when, which window, why.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TriggerFire {
    /// Simulated time the trigger fired.
    pub time: Time,
    /// Index of the window that tripped it.
    pub window: u64,
    /// [`TriggerKind::name`] of the cause.
    pub reason: String,
    /// Human-readable detail.
    pub detail: String,
}

#[derive(Default)]
struct FlightInner {
    cap: usize,
    policy: TriggerPolicy,
    ring: VecDeque<FlightEvent>,
    dropped: u64,
    triggers: Vec<TriggerFire>,
}

/// An always-on bounded ring of recent events plus latched triggers.
///
/// The disabled recorder is a single `Option` branch per call — no
/// allocation, and detail closures are never invoked. Arming allocates
/// the ring once; a full ring drops its oldest event (counted in
/// `dropped`) so memory stays fixed.
pub struct FlightRecorder {
    inner: Option<Box<FlightInner>>,
}

impl FlightRecorder {
    /// The no-op recorder: every call is one branch.
    pub fn disabled() -> FlightRecorder {
        FlightRecorder { inner: None }
    }

    /// Arms a recorder with a ring of `cap` events and the given
    /// trigger policy.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn armed(cap: usize, policy: TriggerPolicy) -> FlightRecorder {
        assert!(cap > 0, "flight ring capacity must be non-zero");
        FlightRecorder {
            inner: Some(Box::new(FlightInner {
                cap,
                policy,
                ring: VecDeque::with_capacity(cap),
                dropped: 0,
                triggers: Vec::new(),
            })),
        }
    }

    /// True when the recorder is armed.
    #[inline]
    pub fn is_armed(&self) -> bool {
        self.inner.is_some()
    }

    /// Records an event. Disabled: one branch, `detail` never runs.
    #[inline]
    pub fn note(&mut self, time: Time, kind: &str, detail: impl FnOnce() -> String) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        if inner.ring.len() == inner.cap {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(FlightEvent {
            time,
            kind: kind.to_owned(),
            detail: detail(),
        });
    }

    /// Latches a trigger if `kind` is armed in the policy. Returns
    /// whether it fired. Disabled: one branch, `detail` never runs.
    #[inline]
    pub fn trigger(
        &mut self,
        time: Time,
        window: u64,
        kind: TriggerKind,
        detail: impl FnOnce() -> String,
    ) -> bool {
        let Some(inner) = self.inner.as_deref_mut() else {
            return false;
        };
        if !kind.armed_in(&inner.policy) {
            return false;
        }
        inner.triggers.push(TriggerFire {
            time,
            window,
            reason: kind.name().to_owned(),
            detail: detail(),
        });
        true
    }

    /// True when at least one trigger has latched.
    pub fn fired(&self) -> bool {
        self.inner
            .as_deref()
            .map(|i| !i.triggers.is_empty())
            .unwrap_or(false)
    }

    /// The earliest latched trigger, if any.
    pub fn first_trigger(&self) -> Option<&TriggerFire> {
        self.inner.as_deref().and_then(|i| i.triggers.first())
    }

    /// All latched triggers, in firing order.
    pub fn triggers(&self) -> &[TriggerFire] {
        self.inner
            .as_deref()
            .map(|i| i.triggers.as_slice())
            .unwrap_or(&[])
    }

    /// Events currently in the ring, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> {
        self.inner.iter().flat_map(|i| i.ring.iter())
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.as_deref().map(|i| i.dropped).unwrap_or(0)
    }

    /// Renders the recorder as canonical JSON: arming state, drop
    /// count, the event ring oldest-first, and latched triggers in
    /// firing order.
    pub fn to_json(&self) -> String {
        let Some(inner) = self.inner.as_deref() else {
            return "{\"armed\":false}".to_owned();
        };
        let mut out = String::with_capacity(64 + inner.ring.len() * 96);
        out.push_str("{\"armed\":true,\"cap\":");
        out.push_str(&inner.cap.to_string());
        out.push_str(",\"dropped\":");
        out.push_str(&inner.dropped.to_string());
        out.push_str(",\"events\":[");
        for (i, ev) in inner.ring.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"t_ns\":");
            out.push_str(&ev.time.as_ns().to_string());
            out.push_str(",\"kind\":");
            json::escape(&mut out, &ev.kind);
            out.push_str(",\"detail\":");
            json::escape(&mut out, &ev.detail);
            out.push('}');
        }
        out.push_str("],\"triggers\":[");
        for (i, t) in inner.triggers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"t_ns\":");
            out.push_str(&t.time.as_ns().to_string());
            out.push_str(",\"window\":");
            out.push_str(&t.window.to_string());
            out.push_str(",\"reason\":");
            json::escape(&mut out, &t.reason);
            out.push_str(",\"detail\":");
            json::escape(&mut out, &t.detail);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.inner.as_deref() {
            None => f.write_str("FlightRecorder(disabled)"),
            Some(i) => write!(
                f,
                "FlightRecorder(armed, {} events, {} triggers)",
                i.ring.len(),
                i.triggers.len()
            ),
        }
    }
}

impl Clone for FlightRecorder {
    fn clone(&self) -> FlightRecorder {
        FlightRecorder {
            inner: self.inner.as_deref().map(|i| {
                Box::new(FlightInner {
                    cap: i.cap,
                    policy: i.policy,
                    ring: i.ring.clone(),
                    dropped: i.dropped,
                    triggers: i.triggers.clone(),
                })
            }),
        }
    }
}

impl PartialEq for FlightRecorder {
    fn eq(&self, other: &FlightRecorder) -> bool {
        self.to_json() == other.to_json()
    }
}

impl Persist for TriggerPolicy {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        io.bool(&mut self.slo_breach)?;
        io.bool(&mut self.queue_saturation)?;
        io.bool(&mut self.check_violation)?;
        io.bool(&mut self.quarantine)
    }
}

/// A presence flag, then (when armed) the ring capacity, the policy,
/// the drop count, the ring and the latched triggers.
impl Persist for FlightRecorder {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        io.option(&mut self.inner, |io, i| {
            io.usize(&mut i.cap)?;
            io.ensure(i.cap != 0, || "flight ring capacity is zero".to_owned())?;
            i.policy.persist(io)?;
            io.u64(&mut i.dropped)?;
            // the ring is sized from the events the stream holds, never
            // from `cap`, which a stream may set arbitrarily high
            io.vec(&mut i.ring, "flight ring", |io, ev| {
                io.time(&mut ev.time)?;
                io.str(&mut ev.kind)?;
                io.str(&mut ev.detail)
            })?;
            let (n, cap) = (i.ring.len(), i.cap);
            io.ensure(n <= cap, || {
                format!("flight ring holds {n} events, cap is {cap}")
            })?;
            io.vec(&mut i.triggers, "flight recorder triggers", |io, t| {
                io.time(&mut t.time)?;
                io.u64(&mut t.window)?;
                io.str(&mut t.reason)?;
                io.str(&mut t.detail)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snap::{SnapReader, SnapWriter};

    fn us(n: u64) -> Time {
        Time::ZERO + Duration::from_us(n)
    }

    #[test]
    fn windows_roll_on_fixed_boundaries() {
        let mut ts = TimeSeries::new(Duration::from_us(10), 16);
        ts.incr("ev", 2);
        ts.advance(us(9)); // still inside window 0
        assert_eq!(ts.rolled(), 0);
        ts.advance(us(10)); // window 0 closes exactly at its end
        assert_eq!(ts.rolled(), 1);
        ts.incr("ev", 5);
        ts.advance(us(35)); // windows 1 and 2 close
        assert_eq!(ts.rolled(), 3);
        ts.finish(us(35)); // partial window 3 closes
        assert_eq!(ts.rolled(), 4);
        let w: Vec<_> = ts.windows().collect();
        assert_eq!(w.len(), 4);
        assert_eq!(w.iter().map(|(i, _)| *i).collect::<Vec<_>>(), [0, 1, 2, 3]);
        assert_eq!(w[0].1.counter("ev"), Some(2));
        assert_eq!(w[1].1.counter("ev"), Some(5));
        assert_eq!(w[2].1.counter("ev"), Some(0));
        assert_eq!(ts.lifetime("ev"), 7);
    }

    #[test]
    fn gauges_persist_and_hists_reset_per_window() {
        let mut ts = TimeSeries::new(Duration::from_us(10), 16);
        ts.set_gauge("queue", 3);
        ts.record("lat", 100);
        ts.advance(us(10));
        ts.record("lat", 9_000);
        ts.finish(us(15));
        let w: Vec<_> = ts.windows().map(|(_, w)| w).collect();
        assert_eq!(w[0].gauge("queue"), Some(3));
        assert_eq!(w[1].gauge("queue"), Some(3), "gauge level persists");
        assert_eq!(w[0].hist("lat").unwrap().count(), 1);
        assert_eq!(w[1].hist("lat").unwrap().count(), 1);
        assert_eq!(w[1].hist("lat").unwrap().max(), 9_000);
    }

    #[test]
    fn conservation_holds_through_ring_eviction() {
        let mut ts = TimeSeries::new(Duration::from_us(1), 4);
        for i in 0..12u64 {
            ts.incr("ev", i + 1);
            ts.advance(us(i + 1));
        }
        assert_eq!(ts.windows().count(), 4, "ring stays bounded");
        let mut cp = CheckPlane::enabled(1);
        ts.check_conservation(&mut cp);
        assert!(cp.ok(), "{:?}", cp.first());
        assert_eq!(ts.lifetime("ev"), (1..=12).sum::<u64>());
    }

    #[test]
    fn merge_equals_recording_into_one_series() {
        let mut a = TimeSeries::new(Duration::from_us(10), 8);
        let mut b = TimeSeries::new(Duration::from_us(10), 8);
        let mut whole = TimeSeries::new(Duration::from_us(10), 8);
        for i in 0..6u64 {
            a.incr("ev", i);
            b.incr("ev", 10 * i);
            whole.incr("ev", 11 * i);
            a.record("lat", 100 + i);
            b.record("lat", 5_000 + i);
            whole.record("lat", 100 + i);
            whole.record("lat", 5_000 + i);
            a.advance(us((i + 1) * 10));
            b.advance(us((i + 1) * 10));
            whole.advance(us((i + 1) * 10));
        }
        a.finish(us(60));
        b.finish(us(60));
        whole.finish(us(60));
        a.merge(&b);
        assert_eq!(a.to_json(), whole.to_json());
        let mut cp = CheckPlane::enabled(1);
        a.check_conservation(&mut cp);
        assert!(cp.ok(), "{:?}", cp.first());
    }

    #[test]
    fn json_is_well_formed_and_reruns_identically() {
        let mut ts = TimeSeries::new(Duration::from_us(10), 8);
        ts.incr("req", 3);
        ts.set_gauge("queue", 2);
        ts.record("lat", 150);
        ts.finish(us(25));
        let text = ts.to_json();
        let doc = json::parse(&text).expect("series JSON parses");
        assert_eq!(doc.get("width_ns").unwrap().as_f64(), Some(10_000.0));
        let windows = doc.get("windows").unwrap().as_arr().unwrap();
        assert_eq!(windows.len(), 3);
        assert_eq!(
            windows[0]
                .get("counters")
                .unwrap()
                .get("req")
                .unwrap()
                .as_f64(),
            Some(3.0)
        );
        assert_eq!(ts.to_json(), text, "export is stable");

        // Exact bytes, captured before the series was rebuilt on
        // registries: an evicted window (index 0), a gauge carried
        // across rolls, a counter created in the last window, and a
        // window whose histogram is registered but empty.
        let mut ts = TimeSeries::new(Duration::from_us(10), 2);
        ts.incr("req", 3);
        ts.set_gauge("queue", 2);
        ts.record("lat", 150);
        ts.advance(us(10));
        ts.incr("req", 1);
        ts.set_gauge("queue", 5);
        ts.advance(us(20));
        ts.record("lat", 9_000);
        ts.incr("drop", 2);
        ts.finish(us(25));
        let windows = concat!(
            r#"[{"index":1,"start_ns":10000,"end_ns":20000,"counters":{"req":1},"#,
            r#""gauges":{"queue":5},"hists":{"lat":{"count":0,"p50":0,"p99":0,"max":0}}},"#,
            r#"{"index":2,"start_ns":20000,"end_ns":30000,"counters":{"drop":2,"req":0},"#,
            r#""gauges":{"queue":5},"hists":{"lat":{"count":1,"p50":9000,"p99":9000,"max":9000}}}]"#,
        );
        assert_eq!(
            ts.to_json(),
            format!(
                r#"{{"width_ns":10000,"retain":2,"windows_rolled":3,"lifetime":{{"drop":2,"req":4}},"windows":{windows}}}"#
            )
        );
        assert_eq!(ts.tail_json(2), windows);
    }

    #[test]
    fn series_snapshot_round_trips() {
        let mut ts = TimeSeries::new(Duration::from_us(2), 3);
        for i in 0..8u64 {
            ts.incr("ev", i);
            ts.set_gauge("g", 100 - i);
            ts.record("lat", 1_000 * (i + 1));
            ts.advance(us(2 * (i + 1)));
        }
        let mut w = SnapWriter::new();
        w.save(&mut ts);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut back = r
            .load(TimeSeries::new(Duration::from_us(1), 1))
            .expect("restore");
        assert!(r.is_exhausted());
        assert_eq!(back, ts);
        assert_eq!(back.to_json(), ts.to_json());
        let mut w2 = SnapWriter::new();
        w2.save(&mut back);
        assert_eq!(w2.into_bytes(), bytes, "re-serialize is byte-identical");

        // A name whose kind differs between registries is refused, not
        // left to panic on the next recording call.
        let mut bad = ts.clone();
        bad.lifetime.set_gauge("g", 1);
        let mut w = SnapWriter::new();
        w.save(&mut bad);
        let bytes = w.into_bytes();
        let err = SnapReader::new(&bytes)
            .load(TimeSeries::new(Duration::from_us(1), 1))
            .unwrap_err();
        assert!(matches!(err, RestoreError::Malformed { .. }), "{err:?}");
    }

    #[test]
    fn disabled_recorder_is_inert_and_closures_never_run() {
        let mut fr = FlightRecorder::disabled();
        assert!(!fr.is_armed());
        fr.note(us(1), "x", || {
            panic!("detail must not be built when disabled")
        });
        let fired = fr.trigger(us(1), 0, TriggerKind::SloBreach, || {
            panic!("detail must not be built when disabled")
        });
        assert!(!fired);
        assert!(!fr.fired());
        assert_eq!(fr.events().count(), 0);
        assert_eq!(fr.to_json(), "{\"armed\":false}");
    }

    #[test]
    fn armed_ring_is_bounded_and_counts_drops() {
        let mut fr = FlightRecorder::armed(3, TriggerPolicy::default());
        for i in 0..5u64 {
            fr.note(us(i), "tick", || format!("event {i}"));
        }
        assert_eq!(fr.events().count(), 3);
        assert_eq!(fr.dropped(), 2);
        let kinds: Vec<u64> = fr.events().map(|e| e.time.as_ns() / 1_000).collect();
        assert_eq!(kinds, vec![2, 3, 4], "oldest events dropped first");
    }

    #[test]
    fn trigger_policy_gates_firing() {
        let mut policy = TriggerPolicy::none();
        policy.quarantine = true;
        let mut fr = FlightRecorder::armed(8, policy);
        assert!(!fr.trigger(us(1), 0, TriggerKind::SloBreach, || "p99".into()));
        assert!(fr.trigger(us(2), 1, TriggerKind::Quarantine, || "domain 3".into()));
        assert!(fr.fired());
        let t = fr.first_trigger().unwrap();
        assert_eq!(t.reason, "quarantine");
        assert_eq!(t.window, 1);
    }

    #[test]
    fn recorder_snapshot_round_trips() {
        let mut fr = FlightRecorder::armed(4, TriggerPolicy::default());
        for i in 0..6u64 {
            fr.note(us(i), "tick", || format!("event {i}"));
        }
        fr.trigger(us(9), 2, TriggerKind::CheckViolation, || "boom".into());
        let mut w = SnapWriter::new();
        w.save(&mut fr);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = r.load(FlightRecorder::disabled()).expect("restore");
        assert!(r.is_exhausted());
        assert_eq!(back.to_json(), fr.to_json());
        assert_eq!(back.dropped(), 2);

        let mut disabled = FlightRecorder::disabled();
        let mut w = SnapWriter::new();
        w.save(&mut disabled);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = r.load(FlightRecorder::disabled()).expect("restore");
        assert!(!back.is_armed());
    }

    #[test]
    fn recorder_restore_refuses_oversized_claims_without_allocating() {
        // Hand-written recorder streams: armed, a ring capacity of
        // usize::MAX / 4, all triggers armed, nothing dropped, then the
        // event count and the trigger count. Restore used to allocate the
        // ring at `cap` and panicked with "capacity overflow".
        let huge = (usize::MAX / 4) as u64;
        let stream = |events: u64, triggers: u64| -> Vec<u8> {
            let mut b = vec![1u8];
            b.extend_from_slice(&huge.to_le_bytes());
            b.extend_from_slice(&[1, 1, 1, 1]);
            b.extend_from_slice(&0u64.to_le_bytes());
            b.extend_from_slice(&events.to_le_bytes());
            b.extend_from_slice(&triggers.to_le_bytes());
            b
        };
        for (events, triggers) in [(huge, 0), (0, huge)] {
            let bytes = stream(events, triggers);
            let err = SnapReader::new(&bytes)
                .load(FlightRecorder::disabled())
                .unwrap_err();
            assert!(matches!(err, RestoreError::Malformed { .. }), "{err:?}");
        }
        // an empty ring under the huge cap restores and records
        let bytes = stream(0, 0);
        let mut r = SnapReader::new(&bytes);
        let mut fr = r.load(FlightRecorder::disabled()).expect("restore");
        assert!(r.is_exhausted());
        fr.note(us(1), "tick", || "after restore".into());
        assert_eq!(fr.events().count(), 1);
    }

    #[test]
    fn flight_json_parses() {
        let mut fr = FlightRecorder::armed(4, TriggerPolicy::default());
        fr.note(us(1), "exemplar", || "req 7 \"quoted\"".into());
        fr.trigger(us(2), 0, TriggerKind::SloBreach, || {
            "p99 300us > 250us".into()
        });
        let doc = json::parse(&fr.to_json()).expect("flight JSON parses");
        assert_eq!(
            doc.get("events").unwrap().as_arr().unwrap()[0]
                .get("kind")
                .unwrap()
                .as_str(),
            Some("exemplar")
        );
        assert_eq!(
            doc.get("triggers").unwrap().as_arr().unwrap()[0]
                .get("reason")
                .unwrap()
                .as_str(),
            Some("slo_breach")
        );
    }
}
