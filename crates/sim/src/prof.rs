//! ProfPlane: deterministic post-hoc profiling over the trace/metrics
//! exports, plus low-overhead runtime self-profiling.
//!
//! Three answers to "where did the time go?":
//!
//! 1. **Causal critical path** — [`critical_path`] reconstructs a span
//!    DAG from a recorded [`TraceBuffer`] (every Complete span, with
//!    happens-before edges implied by time: a span's predecessor is the
//!    latest span that finished at or before it started) and walks the
//!    longest chain backwards from the last span to finish. Each chain
//!    span blames its [`Layer`]; every gap between chain spans — time
//!    when nothing on the chain was running — blames scheduler wait.
//!    By construction the blame vector sums *exactly* to the critical
//!    path length, so the per-layer percentages in [`ProfileReport`]
//!    always total 100%.
//! 2. **Shard occupancy** — [`ShardOccupancy`] counts, per safe window,
//!    how many events each cluster processed and buckets them into
//!    hypothetical shard partitions ("bands"). Event counts are part of
//!    the deterministic simulation state, so unlike wall-clock profiles
//!    the export is byte-identical at any `ECOSCALE_SHARDS` setting.
//!    `events / crit_events` is the standard conservative-PDES
//!    critical-path speedup bound; the imbalance index is how much the
//!    busiest shard exceeds the mean.
//! 3. **Self-profiling** — [`Profiler`] accumulates wall-clock time per
//!    engine phase ([`Phase`]: drain/decide/process/barrier). Disabled
//!    profilers cost one branch per phase and never allocate, so the
//!    hot path stays hot. Wall numbers are host-dependent and therefore
//!    kept *out* of deterministic exports (stderr and `BENCH_*.json`
//!    only).

use std::time::Instant;

use crate::json;
use crate::metrics::MetricsRegistry;
use crate::report::Table;
use crate::time::Duration;
use crate::trace::{EventKind, TraceBuffer};

/// The layer a span blames critical-path time on.
///
/// The variant order is the canonical reporting order (scheduler wait,
/// NoC, SMMU, fabric reconfiguration, compute) used by every export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Scheduler wait: explicit wait spans plus every gap on the chain.
    Wait = 0,
    /// NoC transfers (`noc/*` tracks).
    Noc = 1,
    /// SMMU translation walks (`smmu*` tracks).
    Smmu = 2,
    /// Fabric reconfiguration (`*/fabric` tracks, repair spans).
    Reconfig = 3,
    /// Everything else: task execution, accelerator calls.
    Compute = 4,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 5;

impl Layer {
    /// Every layer, in reporting order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::Wait,
        Layer::Noc,
        Layer::Smmu,
        Layer::Reconfig,
        Layer::Compute,
    ];

    /// The export name of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Wait => "wait",
            Layer::Noc => "noc",
            Layer::Smmu => "smmu",
            Layer::Reconfig => "reconfig",
            Layer::Compute => "compute",
        }
    }
}

/// Maps a span's `(track, name)` onto a [`Layer`] using the workspace's
/// track-naming conventions: `noc/*` lanes are transfers, `smmu*` lanes
/// are translation walks, `*/fabric` lanes (and the repair spans the
/// daemon records on them) are reconfiguration, `*/wait` lanes or spans
/// named `wait` are scheduler wait, and everything else is compute.
pub fn classify(track: &str, name: &str) -> Layer {
    if name == "wait" || track.ends_with("/wait") {
        Layer::Wait
    } else if track.starts_with("noc/") {
        Layer::Noc
    } else if track.starts_with("smmu") || name == "walk" {
        Layer::Smmu
    } else if track.ends_with("/fabric") || name == "seu-repair" || name == "daemon-reconfig" {
        Layer::Reconfig
    } else {
        Layer::Compute
    }
}

/// The result of a critical-path extraction: total path length and the
/// exact per-layer blame split. `blame_ps` sums to `total_ps` by
/// construction, so percentages always total 100.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileReport {
    /// Critical-path length: last span end minus first span start (ps).
    pub total_ps: u64,
    /// Spans considered (every Complete event in the trace).
    pub spans: u64,
    /// Spans on the extracted chain.
    pub path_spans: u64,
    /// Per-layer blame in ps, indexed by [`Layer`] (reporting order).
    pub blame_ps: [u64; LAYERS],
}

impl ProfileReport {
    /// Blame charged to `layer`, in picoseconds.
    pub fn blame(&self, layer: Layer) -> u64 {
        self.blame_ps[layer as usize]
    }

    /// Blame charged to `layer` as a percentage of the critical path
    /// (0.0 on an empty profile).
    pub fn percent(&self, layer: Layer) -> f64 {
        if self.total_ps == 0 {
            0.0
        } else {
            self.blame(layer) as f64 * 100.0 / self.total_ps as f64
        }
    }

    /// Deterministic JSON rendering: fixed key order, layers in
    /// reporting order, percentages derived from the exact ps counts.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"total_ps\":");
        out.push_str(&self.total_ps.to_string());
        out.push_str(",\"spans\":");
        out.push_str(&self.spans.to_string());
        out.push_str(",\"path_spans\":");
        out.push_str(&self.path_spans.to_string());
        out.push_str(",\"blame\":[");
        for (i, layer) in Layer::ALL.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"layer\":\"");
            out.push_str(layer.name());
            out.push_str("\",\"ps\":");
            out.push_str(&self.blame(layer).to_string());
            out.push_str(",\"percent\":");
            json::fmt_f64(&mut out, self.percent(layer));
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Renders the blame attribution as a table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new("critical-path blame", &["layer", "time", "percent"]);
        for layer in Layer::ALL {
            t.row_owned(vec![
                layer.name().to_owned(),
                Duration::from_ps(self.blame(layer)).to_string(),
                format!("{:.1}%", self.percent(layer)),
            ]);
        }
        t.row_owned(vec![
            "total".to_owned(),
            Duration::from_ps(self.total_ps).to_string(),
            "100.0%".to_owned(),
        ]);
        t
    }
}

/// One span lifted out of the trace for path extraction.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u64,
    end: u64,
    layer: Layer,
}

/// [`critical_path_with`] under the default [`classify`] rules.
pub fn critical_path(trace: &TraceBuffer) -> ProfileReport {
    critical_path_with(trace, classify)
}

/// Extracts the critical path of `trace` and attributes it per layer.
///
/// The chain starts at the span with the latest end. Each step picks the
/// predecessor with the latest end among spans that finished at or
/// before the current span started (and started strictly earlier, which
/// guarantees termination); the gap between them blames [`Layer::Wait`].
/// The lead-in from the globally earliest span start to the first chain
/// span blames wait too, which makes the blame sum exactly `total_ps`.
///
/// Deterministic: ties resolve by the trace's (deterministic) recording
/// order, so byte-identical traces yield byte-identical reports.
pub fn critical_path_with(
    trace: &TraceBuffer,
    classify: impl Fn(&str, &str) -> Layer,
) -> ProfileReport {
    let tracks = trace.tracks();
    let mut spans: Vec<Span> = trace
        .events()
        .iter()
        .filter_map(|ev| match ev.kind {
            EventKind::Complete { dur } => {
                let start = ev.ts.as_ps();
                Some(Span {
                    start,
                    end: start.saturating_add(dur.as_ps()),
                    layer: classify(&tracks[ev.track.0 as usize], &ev.name),
                })
            }
            _ => None,
        })
        .collect();
    let mut report = ProfileReport {
        spans: spans.len() as u64,
        ..ProfileReport::default()
    };
    if spans.is_empty() {
        return report;
    }
    // Stable sort: ties keep recording order, so the walk is a pure
    // function of the (byte-identical) trace.
    spans.sort_by_key(|s| (s.end, s.start));
    let min_start = spans.iter().map(|s| s.start).min().expect("non-empty");
    let ends: Vec<u64> = spans.iter().map(|s| s.end).collect();
    let mut cur = spans.len() - 1;
    report.total_ps = spans[cur].end - min_start;
    loop {
        let s = spans[cur];
        report.blame_ps[s.layer as usize] += s.end - s.start;
        report.path_spans += 1;
        // Candidates end at or before s.start; scan from the latest end
        // down for one that also started strictly earlier.
        let cut = ends.partition_point(|&e| e <= s.start);
        let pred = (0..cut).rev().find(|&i| spans[i].start < s.start);
        match pred {
            Some(p) => {
                report.blame_ps[Layer::Wait as usize] += s.start - spans[p].end;
                cur = p;
            }
            None => {
                report.blame_ps[Layer::Wait as usize] += s.start - min_start;
                break;
            }
        }
    }
    debug_assert_eq!(report.blame_ps.iter().sum::<u64>(), report.total_ps);
    report
}

/// Occupancy of one hypothetical `shards`-way partition, accumulated
/// per safe window by [`ShardOccupancy::fold_window`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccupancyBand {
    /// The hypothetical shard count of this band.
    pub shards: usize,
    /// Sum over windows of the busiest shard's event count — the
    /// critical path of the window protocol in event terms.
    pub crit_events: u64,
    /// Sum over windows of the events the non-critical shards were
    /// short of the busiest (barrier-wait, in event terms).
    pub wait_events: u64,
    /// Shard-windows that processed no events at all.
    pub idle_windows: u64,
}

/// Per-window per-cluster event accounting inside the sharded engine.
///
/// Everything here is derived from event *counts*, which are part of the
/// deterministic simulation state — so unlike a wall-clock profile the
/// whole export is byte-identical at any `ECOSCALE_SHARDS` or thread
/// setting, and one run yields bounds for several hypothetical shard
/// widths at once.
#[derive(Debug, Clone)]
pub struct ShardOccupancy {
    clusters: usize,
    /// Safe windows folded (windows that processed at least one event).
    pub windows: u64,
    /// Total events across all folded windows.
    pub events: u64,
    /// Events per cluster, in cluster order.
    pub cluster_events: Vec<u64>,
    /// One band per requested shard width, ascending.
    pub bands: Vec<OccupancyBand>,
    scratch: Vec<u64>,
}

impl ShardOccupancy {
    /// An empty accumulator over `clusters` clusters with one band per
    /// width in `widths` (each clamped to `[1, clusters]`, deduplicated,
    /// ascending). Buckets use the engine's contiguous partition rule
    /// (`cluster * shards / clusters`), so a band mirrors exactly what
    /// running at that `ECOSCALE_SHARDS` would distribute.
    ///
    /// # Panics
    ///
    /// Panics if `clusters` is zero.
    pub fn new(clusters: usize, widths: &[usize]) -> ShardOccupancy {
        assert!(clusters > 0, "occupancy needs at least one cluster");
        let mut ws: Vec<usize> = widths.iter().map(|&w| w.clamp(1, clusters)).collect();
        ws.sort_unstable();
        ws.dedup();
        let max_w = ws.last().copied().unwrap_or(0);
        ShardOccupancy {
            clusters,
            windows: 0,
            events: 0,
            cluster_events: vec![0; clusters],
            bands: ws
                .into_iter()
                .map(|shards| OccupancyBand {
                    shards,
                    crit_events: 0,
                    wait_events: 0,
                    idle_windows: 0,
                })
                .collect(),
            scratch: vec![0; max_w],
        }
    }

    /// Number of clusters the accumulator was built for.
    pub fn clusters(&self) -> usize {
        self.clusters
    }

    /// Folds one window's per-cluster event counts. Windows with no
    /// events (possible before the first decision) are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `deltas` does not have one entry per cluster.
    pub fn fold_window(&mut self, deltas: &[u64]) {
        assert_eq!(deltas.len(), self.clusters, "one delta per cluster");
        let total: u64 = deltas.iter().sum();
        if total == 0 {
            return;
        }
        self.windows += 1;
        self.events += total;
        for (acc, d) in self.cluster_events.iter_mut().zip(deltas) {
            *acc += d;
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        for band in &mut self.bands {
            let b = band.shards;
            scratch[..b].fill(0);
            for (c, d) in deltas.iter().enumerate() {
                scratch[c * b / self.clusters] += d;
            }
            let crit = scratch[..b].iter().copied().max().unwrap_or(0);
            band.crit_events += crit;
            band.wait_events += crit * b as u64 - total;
            band.idle_windows += scratch[..b].iter().filter(|&&x| x == 0).count() as u64;
        }
        self.scratch = scratch;
    }

    /// The band for `shards`, if that width was requested.
    pub fn band(&self, shards: usize) -> Option<&OccupancyBand> {
        self.bands.iter().find(|b| b.shards == shards)
    }

    /// `events / crit_events` of the `shards` band: the event-count
    /// critical-path speedup bound of the window protocol (1.0 when the
    /// band is missing or empty).
    pub fn speedup(&self, shards: usize) -> f64 {
        match self.band(shards) {
            Some(b) if b.crit_events > 0 => self.events as f64 / b.crit_events as f64,
            _ => 1.0,
        }
    }

    /// How much the busiest shard exceeds the mean, summed over windows:
    /// `crit_events * shards / events - 1` (0.0 = perfectly balanced).
    pub fn imbalance(&self, shards: usize) -> f64 {
        match self.band(shards) {
            Some(b) if self.events > 0 => {
                (b.crit_events as f64 * b.shards as f64) / self.events as f64 - 1.0
            }
            _ => 0.0,
        }
    }

    /// Mean busy fraction across shard-windows of the `shards` band:
    /// `events / (crit_events * shards)` (1.0 when empty).
    pub fn occupancy(&self, shards: usize) -> f64 {
        match self.band(shards) {
            Some(b) if b.crit_events > 0 => {
                self.events as f64 / (b.crit_events as f64 * b.shards as f64)
            }
            _ => 1.0,
        }
    }

    /// The imbalance of the widest requested band — the headline
    /// "imbalance index" of a run.
    pub fn imbalance_index(&self) -> f64 {
        self.bands.last().map_or(0.0, |b| self.imbalance(b.shards))
    }

    /// Exports the accounting under `prefix` (counters for the exact
    /// event counts, observations for the derived ratios). All values
    /// are deterministic, so they are safe in byte-compared snapshots.
    pub fn export_metrics(&self, m: &mut MetricsRegistry, prefix: &str) {
        m.add(&format!("{prefix}.windows"), self.windows);
        m.add(&format!("{prefix}.events"), self.events);
        for band in &self.bands {
            let p = format!("{prefix}.s{}", band.shards);
            m.add(&format!("{p}.crit_events"), band.crit_events);
            m.add(&format!("{p}.wait_events"), band.wait_events);
            m.add(&format!("{p}.idle_windows"), band.idle_windows);
            m.observe(&format!("{p}.speedup"), self.speedup(band.shards));
            m.observe(&format!("{p}.imbalance"), self.imbalance(band.shards));
        }
    }

    /// Deterministic JSON rendering (fixed key order, bands ascending).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"clusters\":");
        out.push_str(&self.clusters.to_string());
        out.push_str(",\"windows\":");
        out.push_str(&self.windows.to_string());
        out.push_str(",\"events\":");
        out.push_str(&self.events.to_string());
        out.push_str(",\"cluster_events\":[");
        for (i, e) in self.cluster_events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&e.to_string());
        }
        out.push_str("],\"bands\":[");
        for (i, band) in self.bands.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"shards\":");
            out.push_str(&band.shards.to_string());
            out.push_str(",\"crit_events\":");
            out.push_str(&band.crit_events.to_string());
            out.push_str(",\"wait_events\":");
            out.push_str(&band.wait_events.to_string());
            out.push_str(",\"idle_windows\":");
            out.push_str(&band.idle_windows.to_string());
            out.push_str(",\"speedup\":");
            json::fmt_f64(&mut out, self.speedup(band.shards));
            out.push_str(",\"imbalance\":");
            json::fmt_f64(&mut out, self.imbalance(band.shards));
            out.push_str(",\"occupancy\":");
            json::fmt_f64(&mut out, self.occupancy(band.shards));
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Renders the per-band analytics as a table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            "shard occupancy",
            &["shards", "crit events", "speedup", "imbalance", "occupancy"],
        );
        for band in &self.bands {
            t.row_owned(vec![
                band.shards.to_string(),
                band.crit_events.to_string(),
                format!("{:.2}x", self.speedup(band.shards)),
                format!("{:.3}", self.imbalance(band.shards)),
                format!("{:.1}%", self.occupancy(band.shards) * 100.0),
            ]);
        }
        t
    }
}

/// A wall-clock phase of the sharded engine's round protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Moving mailbox messages into wheels and publishing horizons.
    Drain = 0,
    /// The leader's window decision.
    Decide = 1,
    /// Executing the window's events.
    Process = 2,
    /// Waiting on the round barrier.
    Barrier = 3,
}

/// Number of [`Phase`] variants.
pub const PHASES: usize = 4;

impl Phase {
    /// Every phase, in protocol order.
    pub const ALL: [Phase; PHASES] = [Phase::Drain, Phase::Decide, Phase::Process, Phase::Barrier];

    /// The export name of the phase.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Drain => "drain",
            Phase::Decide => "decide",
            Phase::Process => "process",
            Phase::Barrier => "barrier",
        }
    }
}

/// Wall-clock phase timers, zero-cost when disabled: [`Profiler::begin`]
/// is one branch returning `None`, [`Profiler::end`] one branch on the
/// token; no allocation on either path, ever (the accumulators are two
/// fixed arrays). Wall times are host-dependent — export them next to
/// (never inside) deterministic results.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    enabled: bool,
    ns: [u64; PHASES],
    calls: [u64; PHASES],
}

impl Profiler {
    /// A profiler that measures nothing (the default).
    pub fn disabled() -> Profiler {
        Profiler::default()
    }

    /// A profiler that accumulates wall time per phase.
    pub fn armed() -> Profiler {
        Profiler {
            enabled: true,
            ..Profiler::default()
        }
    }

    /// True when phases are being timed.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Starts timing a phase. Returns `None` (and reads no clock) when
    /// disabled.
    #[inline]
    pub fn begin(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Ends the phase started by the matching [`Profiler::begin`].
    #[inline]
    pub fn end(&mut self, phase: Phase, token: Option<Instant>) {
        if let Some(t0) = token {
            self.ns[phase as usize] += t0.elapsed().as_nanos() as u64;
            self.calls[phase as usize] += 1;
        }
    }

    /// Folds another profiler's accumulators into this one.
    pub fn merge(&mut self, other: &Profiler) {
        self.enabled |= other.enabled;
        for i in 0..PHASES {
            self.ns[i] += other.ns[i];
            self.calls[i] += other.calls[i];
        }
    }

    /// Accumulated wall nanoseconds in `phase`.
    pub fn ns(&self, phase: Phase) -> u64 {
        self.ns[phase as usize]
    }

    /// Number of timed entries into `phase`.
    pub fn phase_calls(&self, phase: Phase) -> u64 {
        self.calls[phase as usize]
    }

    /// Total wall nanoseconds across all phases.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// JSON rendering. Host-dependent — keep out of byte-compared
    /// exports.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push('{');
        for (i, phase) in Phase::ALL.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(phase.name());
            out.push_str("_ns\":");
            out.push_str(&self.ns(phase).to_string());
            out.push_str(",\"");
            out.push_str(phase.name());
            out.push_str("_calls\":");
            out.push_str(&self.phase_calls(phase).to_string());
        }
        out.push('}');
        out
    }

    /// Renders the phase timers as a table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new("engine wall phases", &["phase", "wall", "calls", "share"]);
        let total = self.total_ns().max(1);
        for phase in Phase::ALL {
            t.row_owned(vec![
                phase.name().to_owned(),
                format!("{:.3}ms", self.ns(phase) as f64 / 1e6),
                self.phase_calls(phase).to_string(),
                format!("{:.1}%", self.ns(phase) as f64 * 100.0 / total as f64),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Time;
    use crate::trace::Tracer;

    fn span(t: &Tracer, track: &str, name: &str, start_ns: u64, dur_ns: u64) {
        let id = t.track(track);
        t.complete(
            id,
            name.to_owned(),
            Time::from_ns(start_ns),
            Duration::from_ns(dur_ns),
        );
    }

    #[test]
    fn classify_follows_track_conventions() {
        assert_eq!(classify("noc/link3", "xfer"), Layer::Noc);
        assert_eq!(classify("smmu/walks", "walk"), Layer::Smmu);
        assert_eq!(classify("w2/fabric", "scale"), Layer::Reconfig);
        assert_eq!(classify("w0/fabric", "seu-repair"), Layer::Reconfig);
        assert_eq!(classify("sched0/wait", "wait"), Layer::Wait);
        assert_eq!(classify("c3/w1", "task"), Layer::Compute);
        assert_eq!(classify("w0/calls", "hot"), Layer::Compute);
    }

    #[test]
    fn linear_chain_blames_compute_entirely() {
        let t = Tracer::buffering();
        span(&t, "c0/w0", "task", 0, 10);
        span(&t, "c0/w0", "task", 10, 20);
        span(&t, "c0/w0", "task", 30, 10);
        let r = critical_path(&t.take());
        assert_eq!(r.total_ps, Duration::from_ns(40).as_ps());
        assert_eq!(r.spans, 3);
        assert_eq!(r.path_spans, 3);
        assert_eq!(r.percent(Layer::Compute), 100.0);
        assert_eq!(r.blame_ps.iter().sum::<u64>(), r.total_ps);
    }

    #[test]
    fn fork_join_takes_longest_branch_and_blames_gaps_on_wait() {
        let t = Tracer::buffering();
        // fork at 10, branches 10ns and 20ns; join starts 2ns after the
        // long branch ends -> wait = 2ns of 40ns = 5%.
        span(&t, "c0/w0", "task", 0, 10);
        span(&t, "c0/w1", "task", 10, 10);
        span(&t, "c0/w2", "task", 10, 20);
        span(&t, "c0/w0", "task", 32, 8);
        let r = critical_path(&t.take());
        assert_eq!(r.total_ps, Duration::from_ns(40).as_ps());
        assert_eq!(r.path_spans, 3, "short branch is off the path");
        assert_eq!(r.percent(Layer::Wait), 5.0);
        assert_eq!(r.percent(Layer::Compute), 95.0);
        assert_eq!(r.blame_ps.iter().sum::<u64>(), r.total_ps);
    }

    #[test]
    fn cross_shard_edge_blames_the_noc_hop() {
        let t = Tracer::buffering();
        // compute on cluster 0, a NoC transfer, compute on cluster 1.
        span(&t, "c0/w0", "task", 0, 10);
        span(&t, "noc/link0", "xfer", 10, 4);
        span(&t, "c1/w0", "task", 14, 6);
        let r = critical_path(&t.take());
        assert_eq!(r.total_ps, Duration::from_ns(20).as_ps());
        assert_eq!(r.path_spans, 3);
        assert_eq!(r.percent(Layer::Noc), 20.0);
        assert_eq!(r.percent(Layer::Compute), 80.0);
        assert_eq!(r.percent(Layer::Wait), 0.0);
    }

    #[test]
    fn leading_idle_time_blames_wait() {
        let t = Tracer::buffering();
        span(&t, "a", "early", 0, 5);
        // the chain head's own history starts at 20; 0..20 is wait
        // because nothing on the chain ran before it.
        span(&t, "b", "late", 20, 10);
        let r = critical_path(&t.take());
        assert_eq!(r.total_ps, Duration::from_ns(30).as_ps());
        // span "early" overlaps nothing before "late": end 5 <= start 20
        // and start 0 < 20, so it IS the predecessor with a 15ns gap.
        assert_eq!(r.path_spans, 2);
        assert_eq!(r.blame(Layer::Wait), Duration::from_ns(15).as_ps());
        assert_eq!(r.blame_ps.iter().sum::<u64>(), r.total_ps);
    }

    #[test]
    fn empty_trace_yields_zero_report() {
        let r = critical_path(&TraceBuffer::default());
        assert_eq!(r.total_ps, 0);
        assert_eq!(r.spans, 0);
        assert_eq!(r.percent(Layer::Compute), 0.0);
        crate::json::parse(&r.to_json()).expect("report JSON parses");
    }

    #[test]
    fn report_json_is_valid_and_percentages_total_100() {
        let t = Tracer::buffering();
        span(&t, "c0/w0", "task", 0, 7);
        span(&t, "noc/link1", "xfer", 7, 3);
        span(&t, "c1/w0", "task", 12, 8);
        let r = critical_path(&t.take());
        let doc = crate::json::parse(&r.to_json()).expect("parses");
        let blame = doc.get("blame").and_then(|v| v.as_arr()).expect("blame");
        assert_eq!(blame.len(), LAYERS);
        let total: f64 = blame
            .iter()
            .map(|b| b.get("percent").and_then(|p| p.as_f64()).unwrap())
            .sum();
        assert!((total - 100.0).abs() < 1e-9, "percentages sum to {total}");
    }

    #[test]
    fn occupancy_folds_windows_and_bounds_speedup() {
        let mut occ = ShardOccupancy::new(4, &[2, 4, 99]);
        // width 99 clamps to 4
        assert_eq!(
            occ.bands.iter().map(|b| b.shards).collect::<Vec<_>>(),
            vec![2, 4]
        );
        occ.fold_window(&[4, 0, 0, 0]); // fully imbalanced
        occ.fold_window(&[1, 1, 1, 1]); // fully balanced
        occ.fold_window(&[0, 0, 0, 0]); // ignored
        assert_eq!(occ.windows, 2);
        assert_eq!(occ.events, 8);
        assert_eq!(occ.cluster_events, vec![5, 1, 1, 1]);
        // width 2: windows contribute max(4,0)=4 and max(2,2)=2.
        let b2 = occ.band(2).expect("band 2");
        assert_eq!(b2.crit_events, 6);
        // wait = (crit*width - total) per window: (4*2-4) + (2*2-4) = 4
        assert_eq!(b2.wait_events, 4);
        assert_eq!(b2.idle_windows, 1);
        assert_eq!(occ.speedup(2), 8.0 / 6.0);
        // width 4: contributes max 4 then max 1.
        let b4 = occ.band(4).expect("band 4");
        assert_eq!(b4.crit_events, 5);
        assert_eq!(b4.idle_windows, 3);
        assert_eq!(occ.speedup(4), 8.0 / 5.0);
        assert!(occ.imbalance(4) > occ.imbalance(2) - 1e-12);
        assert_eq!(occ.imbalance_index(), occ.imbalance(4));
        crate::json::parse(&occ.to_json()).expect("occupancy JSON parses");
    }

    #[test]
    fn occupancy_exports_deterministic_metrics() {
        let mut occ = ShardOccupancy::new(4, &[2]);
        occ.fold_window(&[3, 1, 0, 2]);
        let mut m = MetricsRegistry::new();
        occ.export_metrics(&mut m, "shard.occupancy");
        assert_eq!(m.counter("shard.occupancy.windows"), Some(1));
        assert_eq!(m.counter("shard.occupancy.events"), Some(6));
        assert_eq!(m.counter("shard.occupancy.s2.crit_events"), Some(4));
        assert!(m.get("shard.occupancy.s2.speedup").is_some());
    }

    #[test]
    fn disabled_profiler_measures_nothing() {
        let mut p = Profiler::disabled();
        let t = p.begin();
        assert!(t.is_none(), "disabled begin must not read the clock");
        p.end(Phase::Process, t);
        assert_eq!(p.total_ns(), 0);
        assert_eq!(p.phase_calls(Phase::Process), 0);
    }

    #[test]
    fn armed_profiler_accumulates_and_merges() {
        let mut a = Profiler::armed();
        let t = a.begin();
        assert!(t.is_some());
        p_spin();
        a.end(Phase::Drain, t);
        assert_eq!(a.phase_calls(Phase::Drain), 1);
        let mut b = Profiler::armed();
        let t = b.begin();
        p_spin();
        b.end(Phase::Process, t);
        a.merge(&b);
        assert_eq!(a.phase_calls(Phase::Drain), 1);
        assert_eq!(a.phase_calls(Phase::Process), 1);
        crate::json::parse(&a.to_json()).expect("profiler JSON parses");
        assert!(a.to_table().to_string().contains("process"));
    }

    fn p_spin() {
        // a handful of volatile reads so elapsed() has something to see
        let x = std::hint::black_box(0u64);
        for i in 0..64 {
            std::hint::black_box(x.wrapping_add(i));
        }
    }
}
