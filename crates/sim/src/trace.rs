//! Structured tracing with simulated-time timestamps and a Chrome
//! Trace Event exporter.
//!
//! Components record *spans* (a named interval on a track), *instant*
//! events, and *counter* samples, all stamped with sim [`Time`]. A
//! track is one horizontal lane in the viewer — one per Worker, NoC
//! link, accelerator, or fabric region.
//!
//! The API is built around [`Tracer`], a cheap clonable handle that is
//! either **disabled** (the default — every record call is a single
//! branch on an `Option`, no allocation, no locking) or **buffering**
//! into a shared [`TraceBuffer`]. Per-thread buffers produced under
//! [`crate::pool`] merge deterministically with [`TraceBuffer::merge`]
//! in input order, so exports are byte-identical regardless of
//! `ECOSCALE_THREADS`.
//!
//! [`TraceBuffer::to_chrome_json`] emits the Chrome Trace Event JSON
//! array format (`"X"` complete, `"i"` instant, `"C"` counter events
//! plus `thread_name` metadata), which Perfetto and `chrome://tracing`
//! load directly. Timestamps are microseconds with six fractional
//! digits, i.e. exact picoseconds — no float rounding, so output is
//! deterministic.

use std::borrow::Cow;
use std::sync::{Arc, Mutex};

use crate::json;
use crate::time::{Duration, Time};

/// Identifies one track (viewer lane). Obtained from
/// [`Tracer::track`] / [`TraceBuffer::track`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TrackId(pub u32);

/// What a [`TraceEvent`] records.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A span covering `[ts, ts + dur]` (Chrome phase `"X"`).
    Complete {
        /// Length of the span.
        dur: Duration,
    },
    /// A point-in-time marker (Chrome phase `"i"`).
    Instant,
    /// A sampled counter value (Chrome phase `"C"`).
    Counter {
        /// The sampled value.
        value: f64,
    },
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// The track (lane) the event belongs to.
    pub track: TrackId,
    /// Event name shown in the viewer. A literal name is borrowed, so
    /// recording it allocates nothing.
    pub name: Cow<'static, str>,
    /// Simulated start time.
    pub ts: Time,
    /// Payload: span, instant, or counter sample.
    pub kind: EventKind,
}

/// An in-memory event buffer plus its track-name table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceBuffer {
    tracks: Vec<String>,
    events: Vec<TraceEvent>,
}

impl TraceBuffer {
    /// Returns the id for the track named `name`, registering it on
    /// first use. Names are deduplicated, so merging buffers that used
    /// the same name lands their events on the same lane.
    pub fn track(&mut self, name: &str) -> TrackId {
        if let Some(i) = self.tracks.iter().position(|t| t == name) {
            return TrackId(i as u32);
        }
        self.tracks.push(name.to_owned());
        TrackId((self.tracks.len() - 1) as u32)
    }

    /// Appends an event.
    pub fn push(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    /// Appends a span of length `dur` starting at `start`: what
    /// [`Tracer::complete`] records, for a buffer its owner writes
    /// directly (one cluster of the sharded model) with no lock.
    #[inline]
    pub fn complete(
        &mut self,
        track: TrackId,
        name: impl Into<Cow<'static, str>>,
        start: Time,
        dur: Duration,
    ) {
        self.events.push(TraceEvent {
            track,
            name: name.into(),
            ts: start,
            kind: EventKind::Complete { dur },
        });
    }

    /// Registered track names, indexed by [`TrackId`].
    pub fn tracks(&self) -> &[String] {
        &self.tracks
    }

    /// All recorded events, in recording order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Folds `other` into `self`, remapping its track ids onto this
    /// buffer's name table. Merging per-thread buffers in input order
    /// yields the same result as single-threaded recording.
    pub fn merge(&mut self, other: TraceBuffer) {
        let remap: Vec<TrackId> = other.tracks.iter().map(|name| self.track(name)).collect();
        self.events.reserve(other.events.len());
        for mut ev in other.events {
            ev.track = remap[ev.track.0 as usize];
            self.events.push(ev);
        }
    }

    /// Renders the buffer as a Chrome Trace Event JSON document.
    ///
    /// Events are sorted by `(track, ts)` (stable, so same-instant
    /// events keep recording order), which guarantees per-track
    /// monotonic timestamps. Every track gets a `thread_name` metadata
    /// event; all tracks share `pid` 1.
    pub fn to_chrome_json(&self) -> String {
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by_key(|&i| (self.events[i].track, self.events[i].ts));

        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        for (i, name) in self.tracks.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"ph\":\"M\",\"pid\":1,\"tid\":");
            out.push_str(&i.to_string());
            out.push_str(",\"name\":\"thread_name\",\"args\":{\"name\":");
            json::escape(&mut out, name);
            out.push_str("}}");
        }
        for i in order {
            let ev = &self.events[i];
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"ph\":\"");
            out.push(match ev.kind {
                EventKind::Complete { .. } => 'X',
                EventKind::Instant => 'i',
                EventKind::Counter { .. } => 'C',
            });
            out.push_str("\",\"pid\":1,\"tid\":");
            out.push_str(&ev.track.0.to_string());
            out.push_str(",\"name\":");
            json::escape(&mut out, &ev.name);
            out.push_str(",\"cat\":\"sim\",\"ts\":");
            push_us(&mut out, ev.ts.as_ps());
            match &ev.kind {
                EventKind::Complete { dur } => {
                    out.push_str(",\"dur\":");
                    push_us(&mut out, dur.as_ps());
                }
                EventKind::Instant => out.push_str(",\"s\":\"t\""),
                EventKind::Counter { value } => {
                    out.push_str(",\"args\":{\"value\":");
                    json::fmt_f64(&mut out, *value);
                    out.push('}');
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Writes `ps` picoseconds as a decimal microsecond literal with six
/// fractional digits (`123.000456`). Integer arithmetic only, so the
/// rendering is exact and deterministic.
fn push_us(out: &mut String, ps: u64) {
    use std::fmt::Write as _;
    let _ = write!(out, "{}.{:06}", ps / 1_000_000, ps % 1_000_000);
}

/// Handle components use to record events.
///
/// `Tracer::default()` is disabled: record calls cost one branch and
/// touch nothing else, so instrumented hot paths stay hot. A
/// [`buffering`](Tracer::buffering) tracer shares one [`TraceBuffer`]
/// across its clones (cheap `Arc` clone), which [`take`](Tracer::take)
/// extracts at the end of a run.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    shared: Option<Arc<Mutex<TraceBuffer>>>,
}

impl Tracer {
    /// A tracer that drops every event (the default).
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// A tracer that buffers events in shared memory.
    pub fn buffering() -> Tracer {
        Tracer {
            shared: Some(Arc::new(Mutex::new(TraceBuffer::default()))),
        }
    }

    /// True when events are being recorded. Callers with non-trivial
    /// event construction (e.g. formatted names) should gate on this.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Registers (or looks up) the track named `name`. On a disabled
    /// tracer this returns a dummy id; record calls ignore it.
    pub fn track(&self, name: &str) -> TrackId {
        match &self.shared {
            Some(buf) => buf.lock().unwrap().track(name),
            None => TrackId(u32::MAX),
        }
    }

    /// Records a span of length `dur` starting at `start`.
    #[inline]
    pub fn complete(
        &self,
        track: TrackId,
        name: impl Into<Cow<'static, str>>,
        start: Time,
        dur: Duration,
    ) {
        if let Some(buf) = &self.shared {
            buf.lock()
                .expect("no recording thread panicked")
                .complete(track, name, start, dur);
        }
    }

    /// Records an instant marker at `ts`.
    #[inline]
    pub fn instant(&self, track: TrackId, name: impl Into<Cow<'static, str>>, ts: Time) {
        if let Some(buf) = &self.shared {
            buf.lock().unwrap().push(TraceEvent {
                track,
                name: name.into(),
                ts,
                kind: EventKind::Instant,
            });
        }
    }

    /// Records a counter sample at `ts`.
    #[inline]
    pub fn counter(
        &self,
        track: TrackId,
        name: impl Into<Cow<'static, str>>,
        ts: Time,
        value: f64,
    ) {
        if let Some(buf) = &self.shared {
            buf.lock().unwrap().push(TraceEvent {
                track,
                name: name.into(),
                ts,
                kind: EventKind::Counter { value },
            });
        }
    }

    /// Takes the buffered events, leaving the tracer's buffer empty.
    /// Returns an empty buffer on a disabled tracer.
    pub fn take(&self) -> TraceBuffer {
        match &self.shared {
            Some(buf) => std::mem::take(&mut *buf.lock().unwrap()),
            None => TraceBuffer::default(),
        }
    }

    /// Clones the buffered events without draining them — for post-hoc
    /// analysis (e.g. [`crate::prof::critical_path`]) that must not
    /// steal the trace from a later exporter. Returns an empty buffer on
    /// a disabled tracer.
    pub fn snapshot(&self) -> TraceBuffer {
        match &self.shared {
            Some(buf) => buf.lock().unwrap().clone(),
            None => TraceBuffer::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_buffer() -> TraceBuffer {
        let t = Tracer::buffering();
        let w0 = t.track("w0");
        let w1 = t.track("w\"1\"");
        t.complete(w0, "call", Time::from_ns(10), Duration::from_ns(5));
        t.instant(w1, "fault", Time::from_ns(3));
        t.complete(w0, "call", Time::from_ns(2), Duration::from_ns(1));
        t.counter(w1, "depth", Time::from_ns(7), 3.0);
        t.take()
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        let id = t.track("x");
        t.complete(id, "a", Time::ZERO, Duration::from_ns(1));
        t.instant(id, "b", Time::ZERO);
        assert!(!t.is_enabled());
        assert!(t.take().is_empty());
    }

    #[test]
    fn export_is_well_formed_and_per_track_time_ordered() {
        let jsn = sample_buffer().to_chrome_json();
        let doc = json::parse(&jsn).expect("trace JSON must parse");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 2 metadata + 4 payload events.
        assert_eq!(events.len(), 6);
        // Per-track timestamps must be monotonically non-decreasing.
        let mut last: std::collections::HashMap<i64, f64> = std::collections::HashMap::new();
        let mut names = Vec::new();
        for ev in events {
            let ph = ev.get("ph").unwrap().as_str().unwrap();
            if ph == "M" {
                names.push(
                    ev.get("args")
                        .unwrap()
                        .get("name")
                        .unwrap()
                        .as_str()
                        .unwrap()
                        .to_owned(),
                );
                continue;
            }
            let tid = ev.get("tid").unwrap().as_f64().unwrap() as i64;
            let ts = ev.get("ts").unwrap().as_f64().unwrap();
            let prev = last.insert(tid, ts);
            assert!(prev.is_none_or(|p| p <= ts), "track {tid} went backwards");
        }
        assert_eq!(names, vec!["w0".to_owned(), "w\"1\"".to_owned()]);
    }

    #[test]
    fn timestamps_are_exact_picoseconds() {
        let t = Tracer::buffering();
        let id = t.track("t");
        t.complete(id, "a", Time::from_ps(1_234_567), Duration::from_ps(7));
        let jsn = t.take().to_chrome_json();
        assert!(jsn.contains("\"ts\":1.234567"), "got: {jsn}");
        assert!(jsn.contains("\"dur\":0.000007"), "got: {jsn}");
    }

    #[test]
    fn merge_remaps_tracks_and_matches_sequential_recording() {
        // Two "threads" record onto identically-named tracks.
        let a = Tracer::buffering();
        let ta = a.track("shared");
        a.complete(ta, "x", Time::from_ns(1), Duration::from_ns(1));
        let b = Tracer::buffering();
        let tb_other = b.track("other");
        let tb = b.track("shared");
        b.instant(tb, "y", Time::from_ns(2));
        b.instant(tb_other, "z", Time::from_ns(9));

        let mut merged = a.take();
        merged.merge(b.take());
        assert_eq!(merged.tracks(), &["shared".to_owned(), "other".to_owned()]);
        assert_eq!(merged.len(), 3);
        // "y" landed on the same lane as "x" despite different ids.
        assert_eq!(merged.events()[1].track, merged.events()[0].track);

        // Equivalent single-buffer recording exports identically.
        let seq = Tracer::buffering();
        let s = seq.track("shared");
        let o = seq.track("other");
        seq.complete(s, "x", Time::from_ns(1), Duration::from_ns(1));
        seq.instant(s, "y", Time::from_ns(2));
        seq.instant(o, "z", Time::from_ns(9));
        assert_eq!(merged.to_chrome_json(), seq.take().to_chrome_json());
    }
}
