//! Sharded conservative-parallel discrete-event engine.
//!
//! The ECOSCALE scaling argument is hierarchical partitioning: Workers
//! grouped into clusters that communicate over UNIMEM/NoC links with
//! *known, bounded minimum latency*. That bound is exactly the lookahead a
//! conservative parallel DES needs, so the simulator can partition the
//! system by cluster into per-shard event queues and run them on real
//! threads without ever risking a causality violation.
//!
//! # Protocol
//!
//! [`ShardedEngine`] owns one [`TimingWheel`] per *cluster* (the model's
//! fixed partition unit — never per shard, so the event structure is
//! independent of how clusters are packed onto threads). Execution
//! proceeds in safe windows:
//!
//! 1. **Drain**: each shard moves messages from its mailboxes into the
//!    destination clusters' wheels and publishes the minimum pending
//!    timestamp over its clusters.
//! 2. **Window**: the leader computes `gmin = min(shard horizons)` and
//!    opens the window `[gmin, gmin + lookahead)`. If nothing is pending,
//!    the budget is exhausted, or `gmin` passed the horizon, the run stops
//!    (always post-drain, so mailboxes are empty at every stop).
//! 3. **Process**: every shard executes, for each owned cluster, all
//!    events with `t < gmin + lookahead`. Cross-cluster sends must carry a
//!    delay of at least `lookahead`, so they land at or after the window
//!    end and cannot be needed by any cluster still executing this window.
//!    Sends are staged into per-shard-pair mailboxes for the next drain.
//!
//! # Determinism
//!
//! Results are **byte-identical at any shard count** by construction:
//! every event carries a canonical key `(source cluster, per-cluster send
//! sequence)`, each cluster's wheel delivers in `(time, key)` order, the
//! window sequence depends only on global minima (not the layout), and
//! clusters interact exclusively through these keyed messages. Mailboxes
//! are transport only — arrival order through them never affects delivery
//! order. [`ShardedEngine::with_shards`] selects the shard count (default
//! 1; binaries take it from `ECOSCALE_SHARDS` through
//! [`RunCtx`](crate::pool::RunCtx)); one shard is the sequential engine,
//! same code path minus the barriers.
//!
//! Shards are a *partitioning* choice, threads an *execution* choice: the
//! engine caps worker threads at the host's available parallelism and
//! assigns each worker a contiguous group of shards, so oversubscribing
//! the shard count past the core count never melts into spin-barrier
//! contention (results are unchanged either way). [`ShardedEngine::with_threads`]
//! forces a specific worker count for tests.
//!
//! # Example
//!
//! ```
//! use ecoscale_sim::shard::{ClusterCtx, ClusterModel, ShardedEngine};
//! use ecoscale_sim::{Duration, Time};
//!
//! struct Echo {
//!     heard: u64,
//! }
//!
//! impl ClusterModel for Echo {
//!     type Event = u64;
//!     fn handle(&mut self, _now: Time, ev: u64, ctx: &mut ClusterCtx<'_, u64>) {
//!         self.heard += ev;
//!         if ev > 1 {
//!             // bounce the decremented token to the next cluster
//!             let dst = (ctx.cluster() + 1) % ctx.clusters();
//!             ctx.send(dst, ctx.lookahead(), ev - 1);
//!         }
//!     }
//! }
//!
//! let models = (0..4).map(|_| Echo { heard: 0 }).collect();
//! let mut engine = ShardedEngine::new(models, Duration::from_ns(90)).with_shards(2);
//! engine.schedule(0, Time::ZERO, 8);
//! engine.run();
//! let total: u64 = (0..4).map(|c| engine.model(c).heard).sum();
//! assert_eq!(total, 8 + 7 + 6 + 5 + 4 + 3 + 2 + 1);
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::check::{invariant, CheckPlane};
use crate::pool::RoundBarrier;
use crate::prof::{Phase, Profiler, ShardOccupancy};
use crate::snap::{malformed, Restore, RestoreError, SnapReader, SnapWriter, Snapshot};
use crate::telem::TimeSeries;
use crate::time::{Duration, Time};
use crate::wheel::TimingWheel;

/// Environment variable binaries read for the shard count (default: 1).
pub const SHARDS_ENV: &str = "ECOSCALE_SHARDS";

/// Bits of the canonical event key reserved for the per-cluster sequence
/// number; the source cluster index lives above them.
const SEQ_BITS: u32 = 48;
/// Maximum number of clusters an engine can address.
pub const MAX_CLUSTERS: usize = 1 << (64 - SEQ_BITS);

/// Why a [`ShardedEngine::run_until`] call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Every cluster's wheel drained.
    QueueEmpty,
    /// The next window would open beyond the requested horizon.
    HorizonReached,
    /// The event budget was exhausted (livelock guard).
    BudgetExhausted,
}

/// Packs the canonical event key: source cluster in the high bits, the
/// per-cluster send sequence below.
fn pack_key(src: usize, seq: u64) -> u64 {
    debug_assert!(src < MAX_CLUSTERS);
    debug_assert!(seq < 1 << SEQ_BITS);
    ((src as u64) << SEQ_BITS) | seq
}

/// A partitioned model: one instance per cluster, driven by cluster-local
/// events, interacting with other clusters only through [`ClusterCtx::send`].
pub trait ClusterModel: Send {
    /// The cluster-local event type.
    type Event: Send;

    /// Handles one event delivered at `now`. New local events and
    /// cross-cluster messages are issued through `ctx`.
    fn handle(&mut self, now: Time, event: Self::Event, ctx: &mut ClusterCtx<'_, Self::Event>);
}

/// The scheduling surface a [`ClusterModel`] sees while handling an event.
pub struct ClusterCtx<'a, E> {
    now: Time,
    cluster: usize,
    clusters: usize,
    lookahead: Duration,
    wheel: &'a mut TimingWheel<E>,
    seq: &'a mut u64,
    outbox: &'a mut Vec<OutMsg<E>>,
}

impl<E> ClusterCtx<'_, E> {
    /// The timestamp of the event being handled.
    pub fn now(&self) -> Time {
        self.now
    }

    /// This cluster's index.
    pub fn cluster(&self) -> usize {
        self.cluster
    }

    /// Total number of clusters in the engine.
    pub fn clusters(&self) -> usize {
        self.clusters
    }

    /// The engine's lookahead: the minimum legal cross-cluster delay.
    pub fn lookahead(&self) -> Duration {
        self.lookahead
    }

    fn next_key(&mut self) -> u64 {
        let key = pack_key(self.cluster, *self.seq);
        *self.seq += 1;
        key
    }

    /// Schedules a cluster-local event at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before `now`.
    pub fn schedule_at(&mut self, at: Time, event: E) {
        let key = self.next_key();
        self.wheel.schedule(at, key, event);
    }

    /// Schedules a cluster-local event at `now + delay`.
    pub fn schedule_in(&mut self, delay: Duration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Sends `event` to cluster `dst`, arriving at `now + delay`.
    ///
    /// A send to this cluster itself is an ordinary local schedule (any
    /// delay). A cross-cluster send must respect the lookahead — that
    /// bound is what makes the safe-window protocol conservative.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is out of range, or if `dst` differs from this
    /// cluster and `delay` is below the engine lookahead.
    pub fn send(&mut self, dst: usize, delay: Duration, event: E) {
        assert!(
            dst < self.clusters,
            "destination cluster {dst} out of range"
        );
        if dst == self.cluster {
            self.schedule_in(delay, event);
            return;
        }
        assert!(
            delay >= self.lookahead,
            "cross-cluster delay {delay} below lookahead {}",
            self.lookahead
        );
        let key = self.next_key();
        self.outbox.push(OutMsg {
            dst: dst as u32,
            at: self.now + delay,
            key,
            event,
        });
    }
}

/// A staged cross-cluster message.
struct OutMsg<E> {
    dst: u32,
    at: Time,
    key: u64,
    event: E,
}

struct ClusterState<M: ClusterModel> {
    model: M,
    wheel: TimingWheel<M::Event>,
    seq: u64,
    clock: Time,
    events: u64,
    outbox: Vec<OutMsg<M::Event>>,
}

/// One shard's clusters, tagged with their global cluster indices.
type ShardPart<M> = Vec<(usize, ClusterState<M>)>;

/// A worker's owned shards: `(shard index, that shard's clusters)`.
type WorkerShards<M> = Vec<(usize, ShardPart<M>)>;

/// A worker's return after a parallel run.
struct WorkerResult<M: ClusterModel> {
    part: ShardPart<M>,
    stats: WorkerStats,
    reason: StopReason,
    /// Leader only: the window-end sequence.
    windows: Vec<u64>,
    /// Leader only: the folded occupancy accumulator, when armed.
    occ: Option<ShardOccupancy>,
    /// Leader only: the per-safe-window telemetry series, when armed.
    series: Option<TimeSeries>,
    /// This worker's wall-clock phase timers (disabled unless armed).
    wall: Profiler,
}

/// Per-worker counters folded into the engine after a run.
#[derive(Debug, Default, Clone, Copy)]
struct WorkerStats {
    events: u64,
    sent: u64,
    delivered: u64,
}

/// Shared coordination state for one parallel run.
struct RunShared<E> {
    barrier: RoundBarrier,
    /// Per-shard minimum pending timestamp (ps; `u64::MAX` = idle).
    next_times: Vec<AtomicU64>,
    /// Safe-window end for the current round (ps, exclusive).
    window_end: AtomicU64,
    /// 0 = keep running, else `StopReason` code (1/2/3).
    stop: AtomicU64,
    /// Events processed in finished rounds (budget checks).
    total_events: AtomicU64,
    /// Cleared by the leader if a window end ever regresses.
    windows_monotone: AtomicBool,
    /// Per-shard-pair mailboxes, indexed `src_shard * shards + dst_shard`.
    mail: Vec<Mutex<Vec<OutMsg<E>>>>,
    /// Per-cluster event counts of the current window (empty unless
    /// occupancy is armed). Workers add during process; the leader swaps
    /// them out at the next decision — the barriers in between order the
    /// accesses, so `Relaxed` suffices.
    occ_counts: Vec<AtomicU64>,
}

/// The conservative-parallel engine: per-cluster wheels, safe-window
/// synchronization, deterministic keyed messaging. See the [module
/// docs](self) for the protocol and determinism argument.
pub struct ShardedEngine<M: ClusterModel> {
    clusters: Vec<ClusterState<M>>,
    lookahead: Duration,
    shards: usize,
    threads: Option<usize>,
    occ_widths: Option<Vec<usize>>,
    occupancy: Option<ShardOccupancy>,
    series_cfg: Option<(Duration, usize)>,
    series: Option<TimeSeries>,
    self_prof: bool,
    wall: Profiler,
    events_processed: u64,
    rounds: u64,
    messages_sent: u64,
    messages_delivered: u64,
    last_window_end: Time,
    windows_monotone: bool,
}

impl<M: ClusterModel> ShardedEngine<M> {
    /// Creates an engine over one model per cluster with the given
    /// lookahead, on one shard (see [`ShardedEngine::with_shards`]).
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty or larger than [`MAX_CLUSTERS`], or if
    /// `lookahead` is zero (a conservative protocol needs strictly
    /// positive lookahead to make progress).
    pub fn new(models: Vec<M>, lookahead: Duration) -> ShardedEngine<M> {
        assert!(!models.is_empty(), "engine needs at least one cluster");
        assert!(
            models.len() <= MAX_CLUSTERS,
            "too many clusters ({} > {MAX_CLUSTERS})",
            models.len()
        );
        assert!(
            lookahead > Duration::ZERO,
            "conservative lookahead must be positive"
        );
        ShardedEngine {
            clusters: models
                .into_iter()
                .map(|model| ClusterState {
                    model,
                    wheel: TimingWheel::new(),
                    seq: 0,
                    clock: Time::ZERO,
                    events: 0,
                    outbox: Vec::new(),
                })
                .collect(),
            lookahead,
            shards: 1,
            threads: None,
            occ_widths: None,
            occupancy: None,
            series_cfg: None,
            series: None,
            self_prof: false,
            wall: Profiler::disabled(),
            events_processed: 0,
            rounds: 0,
            messages_sent: 0,
            messages_delivered: 0,
            last_window_end: Time::ZERO,
            windows_monotone: true,
        }
    }

    /// Sets the shard count (default 1, the sequential engine).
    pub fn with_shards(mut self, shards: usize) -> ShardedEngine<M> {
        self.shards = shards.max(1);
        self
    }

    /// Forces the worker-thread count for parallel runs. By default the
    /// engine spawns `min(shards, available_parallelism)` workers, each
    /// owning a contiguous group of shards; results are identical either
    /// way, so this only matters for exercising the barrier under real
    /// concurrency or benchmarking a specific width.
    pub fn with_threads(mut self, threads: usize) -> ShardedEngine<M> {
        self.threads = Some(threads.max(1));
        self
    }

    /// Arms per-window occupancy accounting with one band per width in
    /// `widths`. Occupancy is derived from deterministic event counts, so
    /// arming it never perturbs results, adds no measurable cost, and the
    /// accumulated [`ShardedEngine::occupancy`] export is byte-identical
    /// at any shard/thread layout.
    pub fn with_occupancy(mut self, widths: &[usize]) -> ShardedEngine<M> {
        self.occ_widths = Some(widths.to_vec());
        self.occupancy = None;
        self
    }

    /// Arms wall-clock self-profiling of the engine phases
    /// (drain/decide/process/barrier). Timers are host-dependent — they
    /// are exported via [`ShardedEngine::wall_profile`], never inside
    /// deterministic results.
    pub fn with_self_profiling(mut self) -> ShardedEngine<M> {
        self.self_prof = true;
        self
    }

    /// Arms the per-safe-window telemetry feed: a [`TimeSeries`] of
    /// `retain` windows of `width` simulated time, fed one safe window
    /// at a time at the leader's occupancy fold (`shard.events` counter,
    /// `shard.window_events` histogram). Derived from the same
    /// deterministic per-window event counts as occupancy, so the
    /// accumulated [`ShardedEngine::series`] export is byte-identical at
    /// any shard/thread layout.
    pub fn with_series(mut self, width: Duration, retain: usize) -> ShardedEngine<M> {
        self.series_cfg = Some((width, retain));
        self.series = None;
        self
    }

    /// The occupancy accumulated so far, when armed via
    /// [`ShardedEngine::with_occupancy`].
    pub fn occupancy(&self) -> Option<&ShardOccupancy> {
        self.occupancy.as_ref()
    }

    /// The per-safe-window series accumulated so far, when armed via
    /// [`ShardedEngine::with_series`].
    pub fn series(&self) -> Option<&TimeSeries> {
        self.series.as_ref()
    }

    /// The wall-clock phase timers (disabled and all-zero unless armed
    /// via [`ShardedEngine::with_self_profiling`]). Parallel runs merge
    /// every worker's timers, so phase totals can exceed elapsed wall
    /// time.
    pub fn wall_profile(&self) -> &Profiler {
        &self.wall
    }

    /// Lazily creates the occupancy accumulator on first use so split
    /// runs keep accumulating into one export. `clusters` is passed in
    /// because the parallel path has already moved the cluster states
    /// into shard parts by the time it takes the accumulator.
    fn take_occupancy(&mut self, clusters: usize) -> Option<ShardOccupancy> {
        match self.occupancy.take() {
            Some(occ) => Some(occ),
            None => self
                .occ_widths
                .as_ref()
                .map(|w| ShardOccupancy::new(clusters, w)),
        }
    }

    /// Lazily creates the window series on first use so split runs keep
    /// feeding one export (mirrors [`ShardedEngine::take_occupancy`]).
    fn take_series(&mut self) -> Option<TimeSeries> {
        match self.series.take() {
            Some(s) => Some(s),
            None => self.series_cfg.map(|(w, r)| TimeSeries::new(w, r)),
        }
    }

    /// The requested shard count. The effective count is capped at the
    /// number of clusters.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of clusters.
    pub fn clusters(&self) -> usize {
        self.clusters.len()
    }

    /// The engine lookahead.
    pub fn lookahead(&self) -> Duration {
        self.lookahead
    }

    /// The model of cluster `c`.
    pub fn model(&self, c: usize) -> &M {
        &self.clusters[c].model
    }

    /// Mutable model of cluster `c` (setup between runs).
    pub fn model_mut(&mut self, c: usize) -> &mut M {
        &mut self.clusters[c].model
    }

    /// Consumes the engine, returning the models in cluster order.
    pub fn into_models(self) -> Vec<M> {
        self.clusters.into_iter().map(|c| c.model).collect()
    }

    /// Total events delivered across all clusters.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Events delivered on cluster `c`.
    pub fn cluster_events(&self, c: usize) -> u64 {
        self.clusters[c].events
    }

    /// Safe windows executed. Identical at any shard count.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Cross-cluster messages sent.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Cross-cluster messages delivered (equals sent after every stop —
    /// the mailbox-conservation invariant).
    pub fn messages_delivered(&self) -> u64 {
        self.messages_delivered
    }

    /// The latest cluster clock: the timestamp of the last event any
    /// cluster processed.
    pub fn clock(&self) -> Time {
        self.clusters
            .iter()
            .map(|c| c.clock)
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// Seeds `event` on cluster `cluster` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range or `at` is in the cluster's
    /// past.
    pub fn schedule(&mut self, cluster: usize, at: Time, event: M::Event) {
        let c = &mut self.clusters[cluster];
        let key = pack_key(cluster, c.seq);
        c.seq += 1;
        c.wheel.schedule(at, key, event);
    }

    /// CheckPlane hook: safe-window monotonicity (window ends never
    /// regress, no cluster clock beyond the last window) and mailbox
    /// conservation (sent == delivered; stops happen post-drain, so no
    /// message is ever stranded). Read-only; early-outs when disabled.
    pub fn check_invariants(&self, cp: &mut CheckPlane) {
        if !cp.is_enabled() {
            return;
        }
        let clocks_ok = self
            .clusters
            .iter()
            .all(|c| c.clock <= self.last_window_end || c.events == 0);
        cp.check(
            invariant::SHARD_WINDOW_MONOTONE,
            self.windows_monotone && clocks_ok,
            || {
                format!(
                    "windows_monotone={} last_window_end={} max_clock={}",
                    self.windows_monotone,
                    self.last_window_end,
                    self.clock()
                )
            },
        );
        cp.check_monotone(
            invariant::SHARD_WINDOW_MONOTONE,
            self.last_window_end.as_ps() as f64,
        );
        cp.check(
            invariant::SHARD_MAILBOX_CONSERVED,
            self.messages_sent == self.messages_delivered,
            || {
                format!(
                    "sent {} != delivered {}",
                    self.messages_sent, self.messages_delivered
                )
            },
        );
    }

    /// Serializes the engine's deterministic state: every cluster's
    /// model, wheel, send sequence, clock and event count, plus the
    /// engine counters and window cursor. Observability attachments
    /// (occupancy accumulator, wall-clock profilers) are host- or
    /// layout-facing and are not serialized.
    ///
    /// Every stop of [`ShardedEngine::run_until`] is post-drain, so the
    /// mailboxes and outboxes are empty at every legal snapshot point —
    /// mailbox state never needs to travel.
    ///
    /// # Panics
    ///
    /// Panics if any cluster has staged outbox messages, i.e. if called
    /// from inside an event handler rather than between runs.
    pub fn snapshot_state(&self, w: &mut SnapWriter)
    where
        M: Snapshot,
        M::Event: Snapshot,
    {
        w.put_usize(self.clusters.len());
        w.put_duration(self.lookahead);
        w.put_u64(self.events_processed);
        w.put_u64(self.rounds);
        w.put_u64(self.messages_sent);
        w.put_u64(self.messages_delivered);
        w.put_time(self.last_window_end);
        w.put_bool(self.windows_monotone);
        for c in &self.clusters {
            assert!(
                c.outbox.is_empty(),
                "snapshot requires a post-drain stop (staged outbox messages exist)"
            );
            c.model.snapshot(w);
            c.wheel.snapshot(w);
            w.put_u64(c.seq);
            w.put_time(c.clock);
            w.put_u64(c.events);
        }
    }

    /// Overlays state captured by [`ShardedEngine::snapshot_state`] onto
    /// this engine. The engine must have been rebuilt with the same
    /// cluster count and lookahead (both are verified against the
    /// stream); shard/thread packing is an execution choice and may
    /// differ freely.
    ///
    /// # Errors
    ///
    /// [`RestoreError::Malformed`] on any shape mismatch; nothing is
    /// partially applied in that case only if the caller discards the
    /// engine — use a freshly built engine for restores.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), RestoreError>
    where
        M: Restore,
        M::Event: Restore,
    {
        let n = r.get_usize()?;
        if n != self.clusters.len() {
            return Err(malformed(format!(
                "snapshot has {n} clusters, engine has {}",
                self.clusters.len()
            )));
        }
        let lookahead = r.get_duration()?;
        if lookahead != self.lookahead {
            return Err(malformed(format!(
                "snapshot lookahead {lookahead} != engine lookahead {}",
                self.lookahead
            )));
        }
        self.events_processed = r.get_u64()?;
        self.rounds = r.get_u64()?;
        self.messages_sent = r.get_u64()?;
        self.messages_delivered = r.get_u64()?;
        self.last_window_end = r.get_time()?;
        self.windows_monotone = r.get_bool()?;
        for c in self.clusters.iter_mut() {
            c.model = M::restore(r)?;
            c.wheel = TimingWheel::restore(r)?;
            c.seq = r.get_u64()?;
            c.clock = r.get_time()?;
            c.events = r.get_u64()?;
            c.outbox.clear();
        }
        Ok(())
    }

    /// Runs until every wheel and mailbox drains. Returns the final
    /// simulation time (the latest cluster clock).
    pub fn run(&mut self) -> Time {
        self.run_until(Time::MAX, u64::MAX);
        self.clock()
    }

    /// Runs until everything drains, the next window would open after
    /// `horizon`, or at least `max_events` events have been delivered.
    ///
    /// Events *at* the horizon are still delivered. The budget is checked
    /// at window boundaries (windows always complete), so the stop point
    /// is identical at any shard count.
    pub fn run_until(&mut self, horizon: Time, max_events: u64) -> StopReason {
        let shards = self.shards.min(self.clusters.len()).max(1);
        if shards == 1 {
            self.run_sequential(horizon, max_events)
        } else {
            self.run_parallel(shards, horizon, max_events)
        }
    }

    fn note_window(&mut self, wend_ps: u64) {
        let wend = Time::from_ps(wend_ps);
        if wend < self.last_window_end {
            self.windows_monotone = false;
        }
        self.last_window_end = wend;
        self.rounds += 1;
    }

    fn run_sequential(&mut self, horizon: Time, max_events: u64) -> StopReason {
        let clusters = self.clusters.len();
        let lookahead = self.lookahead;
        let mut pending: Vec<OutMsg<M::Event>> = Vec::new();
        let mut occ = self.take_occupancy(clusters);
        let mut series = self.take_series();
        let count_deltas = occ.is_some() || series.is_some();
        let mut deltas: Vec<u64> = vec![0; if count_deltas { clusters } else { 0 }];
        if self.self_prof && !self.wall.is_enabled() {
            self.wall = Profiler::armed();
        }
        let mut wall = std::mem::take(&mut self.wall);
        let reason = loop {
            // Drain: staged messages land in their destination wheels.
            let t = wall.begin();
            for msg in pending.drain(..) {
                self.clusters[msg.dst as usize]
                    .wheel
                    .schedule(msg.at, msg.key, msg.event);
                self.messages_delivered += 1;
            }
            let gmin = self
                .clusters
                .iter()
                .filter_map(|c| c.wheel.peek_time())
                .map(Time::as_ps)
                .min()
                .unwrap_or(u64::MAX);
            wall.end(Phase::Drain, t);
            let t = wall.begin();
            let decision = decide(
                gmin,
                horizon,
                max_events,
                self.events_processed,
                self.lookahead,
            );
            wall.end(Phase::Decide, t);
            let wend = match decision {
                Ok(wend) => wend,
                Err(reason) => break reason,
            };
            self.note_window(wend);
            // Process: every cluster executes its slice of the window.
            let t = wall.begin();
            for idx in 0..clusters {
                let state = &mut self.clusters[idx];
                let n = process_window(idx, state, clusters, lookahead, wend);
                self.events_processed += n;
                if let Some(d) = deltas.get_mut(idx) {
                    *d = n;
                }
                self.messages_sent += state.outbox.len() as u64;
                pending.append(&mut state.outbox);
            }
            wall.end(Phase::Process, t);
            if let Some(occ) = occ.as_mut() {
                occ.fold_window(&deltas);
            }
            if let Some(s) = series.as_mut() {
                feed_window(s, &deltas, wend);
            }
        };
        self.wall = wall;
        self.occupancy = occ;
        self.series = series;
        reason
    }

    fn run_parallel(&mut self, shards: usize, horizon: Time, max_events: u64) -> StopReason {
        let clusters = self.clusters.len();
        let lookahead = self.lookahead;
        // Contiguous balanced partition: cluster c belongs to shard
        // c * shards / clusters (layout never affects results).
        let mut parts: Vec<ShardPart<M>> = (0..shards).map(|_| Vec::new()).collect();
        for (idx, state) in std::mem::take(&mut self.clusters).into_iter().enumerate() {
            parts[idx * shards / clusters].push((idx, state));
        }
        // Workers are capped at the host's parallelism; each owns a
        // contiguous group of shards (shard s → worker s * threads /
        // shards), so oversubscribed shard counts cost bookkeeping, not
        // spin-barrier contention.
        let threads = self
            .threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            })
            .clamp(1, shards);
        let mut groups: Vec<WorkerShards<M>> = (0..threads).map(|_| Vec::new()).collect();
        for (shard, part) in parts.into_iter().enumerate() {
            groups[shard * threads / shards].push((shard, part));
        }
        let occ = self.take_occupancy(clusters);
        let series = self.take_series();
        let count_deltas = occ.is_some() || series.is_some();
        let shared: RunShared<M::Event> = RunShared {
            barrier: RoundBarrier::new(threads),
            next_times: (0..shards).map(|_| AtomicU64::new(u64::MAX)).collect(),
            window_end: AtomicU64::new(0),
            stop: AtomicU64::new(0),
            total_events: AtomicU64::new(self.events_processed),
            windows_monotone: AtomicBool::new(true),
            mail: (0..shards * shards)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
            occ_counts: (0..if count_deltas { clusters } else { 0 })
                .map(|_| AtomicU64::new(0))
                .collect(),
        };
        // The leader (worker 0) needs window bookkeeping the workers don't
        // share; collected via its returned stats.
        let mut leader_windows: Vec<u64> = Vec::new();
        let base_events = self.events_processed;
        let self_prof = self.self_prof;
        let mut occ_slot = Some(occ);
        let mut series_slot = Some(series);
        let results: Vec<WorkerResult<M>> = std::thread::scope(|scope| {
            let handles: Vec<_> = groups
                .into_iter()
                .enumerate()
                .map(|(worker, mine)| {
                    let shared = &shared;
                    // Only the leader folds occupancy and the window
                    // series; it owns both for the whole run.
                    let (occ, series) = if worker == 0 {
                        (
                            occ_slot.take().expect("leader spawned once"),
                            series_slot.take().expect("leader spawned once"),
                        )
                    } else {
                        (None, None)
                    };
                    scope.spawn(move || {
                        run_worker(
                            worker, shards, clusters, lookahead, horizon, max_events, mine, shared,
                            occ, series, self_prof,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });
        let mut reason = StopReason::QueueEmpty;
        let mut reassembled: ShardPart<M> = Vec::with_capacity(clusters);
        for (worker, result) in results.into_iter().enumerate() {
            reassembled.extend(result.part);
            self.messages_sent += result.stats.sent;
            self.messages_delivered += result.stats.delivered;
            self.wall.merge(&result.wall);
            if worker == 0 {
                reason = result.reason;
                leader_windows = result.windows;
                self.occupancy = result.occ;
                self.series = result.series;
            }
        }
        reassembled.sort_by_key(|(idx, _)| *idx);
        self.clusters = reassembled.into_iter().map(|(_, s)| s).collect();
        self.events_processed = shared.total_events.load(Ordering::Acquire);
        debug_assert!(self.events_processed >= base_events);
        if !shared.windows_monotone.load(Ordering::Acquire) {
            self.windows_monotone = false;
        }
        for wend in leader_windows {
            self.note_window(wend);
        }
        reason
    }
}

/// Feeds one executed safe window's event counts into the telemetry
/// series. Every decided window delivers at least one event (the `gmin`
/// event always lands inside it), so a zero total only occurs at the
/// parallel leader's first fold — before any window ran — and is
/// skipped to keep the export identical to the sequential path.
fn feed_window(series: &mut TimeSeries, deltas: &[u64], wend_ps: u64) {
    let total: u64 = deltas.iter().sum();
    if total == 0 {
        return;
    }
    series.incr("shard.events", total);
    series.record("shard.window_events", total);
    series.advance(Time::from_ps(wend_ps));
}

/// Executes one cluster's slice of the current window; returns the number
/// of events delivered.
fn process_window<M: ClusterModel>(
    idx: usize,
    state: &mut ClusterState<M>,
    clusters: usize,
    lookahead: Duration,
    wend_ps: u64,
) -> u64 {
    let mut delivered = 0u64;
    loop {
        match state.wheel.peek_time() {
            Some(t) if t.as_ps() < wend_ps => {}
            _ => break,
        }
        let (t, _key, event) = state.wheel.pop().expect("peeked event exists");
        state.clock = t;
        delivered += 1;
        let mut ctx = ClusterCtx {
            now: t,
            cluster: idx,
            clusters,
            lookahead,
            wheel: &mut state.wheel,
            seq: &mut state.seq,
            outbox: &mut state.outbox,
        };
        state.model.handle(t, event, &mut ctx);
    }
    state.events += delivered;
    delivered
}

/// The worker loop — drain → window decision → process — over every shard
/// the worker owns.
#[allow(clippy::too_many_arguments)]
fn run_worker<M: ClusterModel>(
    worker: usize,
    shards: usize,
    clusters: usize,
    lookahead: Duration,
    horizon: Time,
    max_events: u64,
    mut mine: WorkerShards<M>,
    shared: &RunShared<M::Event>,
    mut occ: Option<ShardOccupancy>,
    mut series: Option<TimeSeries>,
    self_prof: bool,
) -> WorkerResult<M> {
    let mut stats = WorkerStats::default();
    let mut windows: Vec<u64> = Vec::new();
    let mut last_wend = 0u64;
    let mut wall = if self_prof {
        Profiler::armed()
    } else {
        Profiler::disabled()
    };
    // Leader-only scratch for the occupancy/series fold.
    let count_deltas = occ.is_some() || series.is_some();
    let mut deltas: Vec<u64> = vec![0; if count_deltas { clusters } else { 0 }];
    let reason = loop {
        // Phase A: drain each owned shard's inboxes into its clusters'
        // wheels. Each mailbox has exactly one reading worker, so the
        // locks are uncontended.
        let t = wall.begin();
        for (shard, part) in mine.iter_mut() {
            for src in 0..shards {
                let inbox = std::mem::take(
                    &mut *shared.mail[src * shards + *shard]
                        .lock()
                        .expect("mailbox poisoned"),
                );
                for msg in inbox {
                    let dst = msg.dst as usize;
                    let slot = part
                        .binary_search_by_key(&dst, |(idx, _)| *idx)
                        .expect("message routed to owning shard");
                    part[slot].1.wheel.schedule(msg.at, msg.key, msg.event);
                    stats.delivered += 1;
                }
            }
            let my_min = part
                .iter()
                .filter_map(|(_, c)| c.wheel.peek_time())
                .map(Time::as_ps)
                .min()
                .unwrap_or(u64::MAX);
            shared.next_times[*shard].store(my_min, Ordering::Release);
        }
        wall.end(Phase::Drain, t);
        let t = wall.begin();
        shared.barrier.wait();
        wall.end(Phase::Barrier, t);
        if worker == 0 {
            let t = wall.begin();
            // The previous window's event counts are complete (its
            // process phase ended at the last barrier); fold them before
            // this round's decision so every executed window — including
            // the final one before a stop — is accounted.
            if !deltas.is_empty() {
                for (d, c) in deltas.iter_mut().zip(&shared.occ_counts) {
                    *d = c.swap(0, Ordering::Relaxed);
                }
                if let Some(occ) = occ.as_mut() {
                    occ.fold_window(&deltas);
                }
                if let Some(s) = series.as_mut() {
                    feed_window(s, &deltas, last_wend);
                }
            }
            // Leader: fold shard horizons into the global window.
            let gmin = shared
                .next_times
                .iter()
                .map(|t| t.load(Ordering::Acquire))
                .min()
                .unwrap_or(u64::MAX);
            let events_so_far = shared.total_events.load(Ordering::Acquire);
            let decision = decide(gmin, horizon, max_events, events_so_far, lookahead);
            match decision {
                Ok(wend) => {
                    if wend < last_wend {
                        shared.windows_monotone.store(false, Ordering::Release);
                    }
                    last_wend = wend;
                    windows.push(wend);
                    shared.window_end.store(wend, Ordering::Release);
                    shared.stop.store(0, Ordering::Release);
                }
                Err(reason) => {
                    shared.stop.store(stop_code(reason), Ordering::Release);
                }
            }
            wall.end(Phase::Decide, t);
        }
        let t = wall.begin();
        shared.barrier.wait();
        wall.end(Phase::Barrier, t);
        let code = shared.stop.load(Ordering::Acquire);
        if code != 0 {
            break stop_reason(code);
        }
        // Phase B: process the window and stage outgoing messages.
        let t = wall.begin();
        let wend = shared.window_end.load(Ordering::Acquire);
        let mut processed = 0u64;
        let count_occ = !shared.occ_counts.is_empty();
        for (shard, part) in mine.iter_mut() {
            for (idx, state) in part.iter_mut() {
                let n = process_window(*idx, state, clusters, lookahead, wend);
                processed += n;
                if count_occ {
                    shared.occ_counts[*idx].fetch_add(n, Ordering::Relaxed);
                }
                stats.sent += state.outbox.len() as u64;
                for msg in state.outbox.drain(..) {
                    let dst_shard = msg.dst as usize * shards / clusters;
                    shared.mail[*shard * shards + dst_shard]
                        .lock()
                        .expect("mailbox poisoned")
                        .push(msg);
                }
            }
        }
        stats.events += processed;
        shared.total_events.fetch_add(processed, Ordering::AcqRel);
        wall.end(Phase::Process, t);
        // The barrier between process and the next drain keeps a fast
        // worker from draining while a slow one is still publishing.
        let t = wall.begin();
        shared.barrier.wait();
        wall.end(Phase::Barrier, t);
    };
    WorkerResult {
        part: mine.into_iter().flat_map(|(_, part)| part).collect(),
        stats,
        reason,
        windows,
        occ,
        series,
        wall,
    }
}

/// Leader decision, shared by the sequential and the parallel run: stop,
/// or open the next window. Returns the window end (ps, exclusive) or the
/// stop reason.
fn decide(
    gmin_ps: u64,
    horizon: Time,
    max_events: u64,
    events_so_far: u64,
    lookahead: Duration,
) -> Result<u64, StopReason> {
    if events_so_far >= max_events {
        return Err(StopReason::BudgetExhausted);
    }
    if gmin_ps == u64::MAX {
        return Err(StopReason::QueueEmpty);
    }
    if gmin_ps > horizon.as_ps() {
        return Err(StopReason::HorizonReached);
    }
    Ok(gmin_ps
        .saturating_add(lookahead.as_ps())
        .min(horizon.as_ps().saturating_add(1)))
}

fn stop_code(reason: StopReason) -> u64 {
    match reason {
        StopReason::QueueEmpty => 1,
        StopReason::HorizonReached => 2,
        StopReason::BudgetExhausted => 3,
    }
}

fn stop_reason(code: u64) -> StopReason {
    match code {
        1 => StopReason::QueueEmpty,
        2 => StopReason::HorizonReached,
        3 => StopReason::BudgetExhausted,
        _ => unreachable!("unknown stop code {code}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    /// A gossip model: every event re-arms locally a few times and
    /// occasionally messages a pseudo-random peer. All randomness is
    /// per-cluster, so behavior is a pure function of the event set.
    struct Gossip {
        rng: SimRng,
        log: Vec<(u64, u32)>,
        digest: u64,
    }

    impl Gossip {
        fn new(cluster: usize, seed: u64) -> Gossip {
            Gossip {
                rng: SimRng::seed_from(seed ^ ((cluster as u64) << 32)),
                log: Vec::new(),
                digest: 0xcbf29ce484222325,
            }
        }
    }

    impl ClusterModel for Gossip {
        type Event = u32;

        fn handle(&mut self, now: Time, tag: u32, ctx: &mut ClusterCtx<'_, u32>) {
            self.log.push((now.as_ps(), tag));
            self.digest = (self.digest ^ now.as_ps() ^ tag as u64).wrapping_mul(0x100000001b3);
            if tag == 0 {
                return;
            }
            if self.rng.gen_bool(0.3) && ctx.clusters() > 1 {
                let mut dst = self.rng.gen_range_usize(0, ctx.clusters() - 1);
                if dst >= ctx.cluster() {
                    dst += 1;
                }
                let extra = Duration::from_ps(self.rng.gen_range_u64(0, 5_000));
                ctx.send(dst, ctx.lookahead() + extra, tag - 1);
            } else {
                let delay = Duration::from_ps(self.rng.gen_range_u64(1, 2_000));
                ctx.schedule_in(delay, tag - 1);
            }
        }
    }

    fn gossip_engine(clusters: usize, seed: u64, shards: usize) -> ShardedEngine<Gossip> {
        let models = (0..clusters).map(|c| Gossip::new(c, seed)).collect();
        let mut engine = ShardedEngine::new(models, Duration::from_ns(90)).with_shards(shards);
        for c in 0..clusters {
            engine.schedule(c, Time::from_ns(c as u64 * 3), 12);
        }
        engine
    }

    type Fingerprint = (Vec<u64>, Vec<Vec<(u64, u32)>>, u64, u64, u64);

    fn fingerprint(engine: &ShardedEngine<Gossip>) -> Fingerprint {
        (
            (0..engine.clusters())
                .map(|c| engine.model(c).digest)
                .collect(),
            (0..engine.clusters())
                .map(|c| engine.model(c).log.clone())
                .collect(),
            engine.events_processed(),
            engine.rounds(),
            engine.messages_sent(),
        )
    }

    #[test]
    fn sharded_runs_are_byte_identical_to_sequential() {
        let mut baseline = gossip_engine(7, 42, 1);
        baseline.run();
        let want = fingerprint(&baseline);
        for shards in [2, 3, 4, 8, 16] {
            let mut engine = gossip_engine(7, 42, shards);
            engine.run();
            assert_eq!(
                fingerprint(&engine),
                want,
                "shards={shards} diverged from sequential"
            );
            assert_eq!(engine.messages_sent(), engine.messages_delivered());
        }
    }

    #[test]
    fn worker_thread_grouping_preserves_results() {
        let mut baseline = gossip_engine(7, 42, 1);
        baseline.run();
        let want = fingerprint(&baseline);
        // Threads below, equal to, and above the shard count (the last is
        // clamped); every grouping must reproduce the sequential run.
        for threads in [1, 2, 3, 4, 9] {
            let mut engine = gossip_engine(7, 42, 4).with_threads(threads);
            engine.run();
            assert_eq!(
                fingerprint(&engine),
                want,
                "threads={threads} diverged from sequential"
            );
        }
    }

    #[test]
    fn occupancy_accumulates_and_is_layout_independent() {
        let mut base = gossip_engine(6, 11, 1).with_occupancy(&[2, 4]);
        base.run();
        let occ = base.occupancy().expect("occupancy armed");
        // Every executed window delivers at least one event.
        assert_eq!(occ.windows, base.rounds());
        assert_eq!(occ.events, base.events_processed());
        assert!(occ.speedup(4) >= 1.0);
        let want_occ = occ.to_json();
        let want = fingerprint(&base);
        for shards in [2, 4] {
            let mut engine = gossip_engine(6, 11, shards).with_occupancy(&[2, 4]);
            engine.run();
            assert_eq!(fingerprint(&engine), want, "shards={shards} perturbed");
            assert_eq!(
                engine.occupancy().expect("armed").to_json(),
                want_occ,
                "occupancy diverged at shards={shards}"
            );
        }
    }

    #[test]
    fn window_series_feed_is_layout_independent() {
        let mut base = gossip_engine(6, 11, 1).with_series(Duration::from_ns(200), 32);
        base.run();
        let series = base.series().expect("series armed");
        assert_eq!(
            series.lifetime("shard.events"),
            base.events_processed(),
            "every delivered event lands in the series"
        );
        assert!(series.rolled() > 0, "run spans several windows");
        let want = series.to_json();
        let fp = fingerprint(&base);
        for (shards, threads) in [(2, 1), (4, 2), (6, 4)] {
            let mut engine = gossip_engine(6, 11, shards)
                .with_threads(threads)
                .with_series(Duration::from_ns(200), 32);
            engine.run();
            assert_eq!(fingerprint(&engine), fp, "shards={shards} perturbed");
            assert_eq!(
                engine.series().expect("armed").to_json(),
                want,
                "series diverged at shards={shards} threads={threads}"
            );
        }
    }

    #[test]
    fn window_series_survives_split_runs() {
        let mut whole = gossip_engine(4, 17, 2).with_series(Duration::from_ns(200), 32);
        whole.run();
        let want = whole.series().expect("armed").to_json();

        let mut split = gossip_engine(4, 17, 2).with_series(Duration::from_ns(200), 32);
        split.run_until(Time::from_us(1), u64::MAX);
        split.run();
        assert_eq!(split.series().expect("armed").to_json(), want);
    }

    #[test]
    fn occupancy_survives_split_runs() {
        let mut whole = gossip_engine(4, 17, 2).with_occupancy(&[2]);
        whole.run();
        let want = whole.occupancy().expect("armed").to_json();

        let mut split = gossip_engine(4, 17, 2).with_occupancy(&[2]);
        split.run_until(Time::from_us(1), u64::MAX);
        split.run();
        assert_eq!(split.occupancy().expect("armed").to_json(), want);
    }

    #[test]
    fn self_profiling_times_phases_without_perturbing_results() {
        let mut plain = gossip_engine(6, 11, 1);
        plain.run();
        let want = fingerprint(&plain);

        let mut seq = gossip_engine(6, 11, 1).with_self_profiling();
        seq.run();
        assert_eq!(fingerprint(&seq), want);
        let wall = seq.wall_profile();
        assert!(wall.is_enabled());
        assert_eq!(wall.phase_calls(crate::prof::Phase::Process), seq.rounds());
        assert_eq!(wall.phase_calls(crate::prof::Phase::Barrier), 0);

        let mut par = gossip_engine(6, 11, 4)
            .with_threads(2)
            .with_self_profiling();
        par.run();
        assert_eq!(fingerprint(&par), want);
        let wall = par.wall_profile();
        assert!(wall.phase_calls(crate::prof::Phase::Barrier) > 0);
        assert!(wall.phase_calls(crate::prof::Phase::Process) > 0);
    }

    #[test]
    fn disabled_profiling_leaves_timers_empty() {
        let mut engine = gossip_engine(4, 3, 2);
        engine.run();
        assert!(!engine.wall_profile().is_enabled());
        assert_eq!(engine.wall_profile().total_ns(), 0);
        assert!(engine.occupancy().is_none());
    }

    #[test]
    fn horizon_and_budget_stops_are_layout_independent() {
        for shards in [1, 3] {
            let mut engine = gossip_engine(5, 9, shards);
            let reason = engine.run_until(Time::from_us(2), u64::MAX);
            assert!(
                matches!(reason, StopReason::HorizonReached | StopReason::QueueEmpty),
                "got {reason:?}"
            );
        }
        let mut a = gossip_engine(5, 9, 1);
        let ra = a.run_until(Time::from_us(2), u64::MAX);
        let mut b = gossip_engine(5, 9, 4);
        let rb = b.run_until(Time::from_us(2), u64::MAX);
        assert_eq!(ra, rb);
        assert_eq!(fingerprint(&a), fingerprint(&b));

        let mut c = gossip_engine(5, 9, 1);
        let rc = c.run_until(Time::MAX, 20);
        let mut d = gossip_engine(5, 9, 4);
        let rd = d.run_until(Time::MAX, 20);
        assert_eq!(rc, rd);
        assert_eq!(rc, StopReason::BudgetExhausted);
        assert_eq!(fingerprint(&c), fingerprint(&d));
    }

    #[test]
    fn invariants_hold_after_runs() {
        for shards in [1, 4] {
            let mut engine = gossip_engine(6, 3, shards);
            engine.run();
            let mut cp = CheckPlane::enabled(1);
            engine.check_invariants(&mut cp);
            assert!(cp.ok(), "shards={shards}: {:?}", cp.first());
        }
    }

    #[test]
    fn run_resumes_after_horizon() {
        let mut whole = gossip_engine(4, 17, 2);
        whole.run();
        let want = fingerprint(&whole);

        let mut split = gossip_engine(4, 17, 2);
        split.run_until(Time::from_us(1), u64::MAX);
        split.run();
        assert_eq!(fingerprint(&split), want);
    }

    #[test]
    #[should_panic(expected = "below lookahead")]
    fn undershooting_lookahead_panics() {
        struct Bad;
        impl ClusterModel for Bad {
            type Event = ();
            fn handle(&mut self, _now: Time, _ev: (), ctx: &mut ClusterCtx<'_, ()>) {
                ctx.send(1, Duration::from_ps(1), ());
            }
        }
        let mut engine = ShardedEngine::new(vec![Bad, Bad], Duration::from_ns(50));
        engine.schedule(0, Time::ZERO, ());
        engine.run();
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_lookahead_rejected() {
        struct Noop;
        impl ClusterModel for Noop {
            type Event = ();
            fn handle(&mut self, _: Time, _: (), _: &mut ClusterCtx<'_, ()>) {}
        }
        let _ = ShardedEngine::new(vec![Noop], Duration::ZERO);
    }

    impl Snapshot for Gossip {
        fn snapshot(&self, w: &mut SnapWriter) {
            self.rng.snapshot(w);
            w.put_usize(self.log.len());
            for &(t, tag) in &self.log {
                w.put_u64(t);
                w.put_u32(tag);
            }
            w.put_u64(self.digest);
        }
    }

    impl Restore for Gossip {
        fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
            let rng = SimRng::restore(r)?;
            let n = r.get_usize()?;
            let mut log = Vec::with_capacity(n.min(r.remaining()));
            for _ in 0..n {
                log.push((r.get_u64()?, r.get_u32()?));
            }
            let digest = r.get_u64()?;
            Ok(Gossip { rng, log, digest })
        }
    }

    /// Run-to-T, snapshot, restore into a fresh engine (possibly at a
    /// different shard count), run both to the end: fingerprints must
    /// match each other and the uninterrupted run.
    #[test]
    fn snapshot_restore_resumes_identically_across_shard_counts() {
        let mut whole = gossip_engine(7, 42, 1);
        whole.run();
        let want = fingerprint(&whole);

        for (snap_shards, resume_shards) in [(1, 1), (1, 4), (4, 1), (3, 2)] {
            let mut a = gossip_engine(7, 42, snap_shards);
            a.run_until(Time::from_us(1), u64::MAX);
            let mut w = SnapWriter::new();
            a.snapshot_state(&mut w);
            let bytes = w.into_bytes();

            // Fresh engine, models in their *constructed* state: every
            // bit of progress must come from the snapshot overlay.
            let models = (0..7).map(|c| Gossip::new(c, 42)).collect();
            let mut b =
                ShardedEngine::new(models, Duration::from_ns(90)).with_shards(resume_shards);
            b.restore_state(&mut SnapReader::new(&bytes))
                .expect("restore");
            // Re-snapshot before running further: byte-identical.
            let mut w2 = SnapWriter::new();
            b.snapshot_state(&mut w2);
            assert_eq!(
                w2.into_bytes(),
                bytes,
                "re-snapshot diverged ({snap_shards}->{resume_shards})"
            );

            a.run();
            b.run();
            assert_eq!(
                fingerprint(&a),
                want,
                "uninterrupted continuation diverged (shards={snap_shards})"
            );
            assert_eq!(
                fingerprint(&b),
                want,
                "restored continuation diverged ({snap_shards}->{resume_shards})"
            );
        }
    }

    #[test]
    fn restore_rejects_shape_mismatches() {
        let mut a = gossip_engine(4, 7, 1);
        a.run_until(Time::from_us(1), u64::MAX);
        let mut w = SnapWriter::new();
        a.snapshot_state(&mut w);
        let bytes = w.into_bytes();

        // wrong cluster count
        let models = (0..5).map(|c| Gossip::new(c, 7)).collect();
        let mut b = ShardedEngine::new(models, Duration::from_ns(90));
        assert!(matches!(
            b.restore_state(&mut SnapReader::new(&bytes)),
            Err(RestoreError::Malformed { .. })
        ));

        // wrong lookahead
        let models = (0..4).map(|c| Gossip::new(c, 7)).collect();
        let mut c = ShardedEngine::new(models, Duration::from_ns(80));
        assert!(matches!(
            c.restore_state(&mut SnapReader::new(&bytes)),
            Err(RestoreError::Malformed { .. })
        ));
    }
}
