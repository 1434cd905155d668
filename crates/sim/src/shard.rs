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
//! [`RunCtx`](crate::pool::RunCtx)).
//!
//! Shards are a *partitioning* choice, workers an *execution* choice: the
//! engine caps the worker count at the host's available parallelism and
//! assigns each worker a contiguous group of shards, so oversubscribing
//! the shard count past the core count never melts into spin-barrier
//! contention (results are unchanged either way). [`ShardedEngine::with_threads`]
//! forces a specific worker count for tests. Every layout runs one loop:
//! the leader worker runs on the calling thread and the others on scoped
//! threads, so a one-worker run (one shard included) spawns no thread and
//! crosses no barrier. A worker that panics poisons the barrier, and the
//! run re-raises its panic on the calling thread.
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

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::check::{invariant, CheckPlane};
use crate::pool::{BarrierPoisoned, RoundBarrier};
use crate::prof::{Phase, Profiler, ShardOccupancy};
use crate::snap::{Persist, RestoreError, SnapIo};
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

/// Per-worker message counters folded into the engine after a run.
#[derive(Debug, Default, Clone, Copy)]
struct WorkerStats {
    sent: u64,
    delivered: u64,
}

/// The leader's record of the executed safe windows. It lives on the
/// engine, so split runs keep accumulating into it, and is lent to the
/// leader worker by `&mut` for the length of a run.
struct Windows {
    /// Events delivered in every executed window.
    events: u64,
    rounds: u64,
    last_end: Time,
    /// Cleared if a window end ever regresses.
    monotone: bool,
    occupancy: Option<ShardOccupancy>,
    series: Option<TimeSeries>,
}

impl Windows {
    /// The leader's step between drain and process: fold the last
    /// window's per-cluster event counts (loaded into `counts`), then open
    /// the next window or name the stop. Returns the window end (ps,
    /// exclusive) or the stop reason.
    fn next_window<E>(
        &mut self,
        shared: &RunShared<E>,
        counts: &mut [u64],
    ) -> Result<u64, StopReason> {
        for (n, c) in counts.iter_mut().zip(&shared.counts) {
            *n = c.load(Ordering::Relaxed);
        }
        // Every decided window delivers at least one event (the `gmin`
        // event lands inside it), so a zero total means no window has run
        // yet in this call.
        let total: u64 = counts.iter().sum();
        if total > 0 {
            self.events += total;
            if let Some(occ) = self.occupancy.as_mut() {
                occ.fold_window(counts);
            }
            if let Some(s) = self.series.as_mut() {
                s.incr("shard.events", total);
                s.record("shard.window_events", total);
                s.advance(self.last_end);
            }
        }
        let gmin = shared
            .next_times
            .iter()
            .map(|t| t.load(Ordering::Acquire))
            .min()
            .unwrap_or(u64::MAX);
        let wend = decide(
            gmin,
            shared.horizon,
            shared.max_events,
            self.events,
            shared.lookahead,
        )?;
        let end = Time::from_ps(wend);
        self.monotone &= end >= self.last_end;
        self.last_end = end;
        self.rounds += 1;
        Ok(wend)
    }
}

/// What the workers of one run share: its fixed parameters and the
/// round state.
struct RunShared<E> {
    shards: usize,
    clusters: usize,
    lookahead: Duration,
    horizon: Time,
    max_events: u64,
    /// Worker count; a single worker has nobody to wait for.
    threads: usize,
    barrier: RoundBarrier,
    /// Per-shard minimum pending timestamp (ps; `u64::MAX` = idle).
    next_times: Vec<AtomicU64>,
    /// Safe-window end for the current round (ps, exclusive).
    window_end: AtomicU64,
    /// 0 = keep running, else `StopReason` code (1/2/3).
    stop: AtomicU64,
    /// Per-shard-pair mailboxes, indexed `src_shard * shards + dst_shard`.
    mail: Vec<Mutex<Vec<OutMsg<E>>>>,
    /// Per-cluster event counts of the last window. Each cluster's owner
    /// stores its count during process; the leader loads them at the next
    /// decision. The barriers in between order the accesses, so `Relaxed`
    /// suffices.
    counts: Vec<AtomicU64>,
}

impl<E> RunShared<E> {
    /// Crosses the round barrier, timing the wait. A one-worker run skips
    /// it: its phases already run in order on one thread.
    fn sync(&self, wall: &mut Profiler) {
        if self.threads > 1 {
            let t = wall.begin();
            self.barrier.wait();
            wall.end(Phase::Barrier, t);
        }
    }
}

/// Poisons the run's barrier when its worker unwinds, so the other
/// workers stop waiting for a party that will never arrive.
struct PoisonOnUnwind<'a>(&'a RoundBarrier);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// The conservative-parallel engine: per-cluster wheels, safe-window
/// synchronization, deterministic keyed messaging. See the [module
/// docs](self) for the protocol and determinism argument.
pub struct ShardedEngine<M: ClusterModel> {
    clusters: Vec<ClusterState<M>>,
    lookahead: Duration,
    shards: usize,
    threads: Option<usize>,
    windows: Windows,
    wall: Profiler,
    messages_sent: u64,
    messages_delivered: u64,
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
            windows: Windows {
                events: 0,
                rounds: 0,
                last_end: Time::ZERO,
                monotone: true,
                occupancy: None,
                series: None,
            },
            wall: Profiler::disabled(),
            messages_sent: 0,
            messages_delivered: 0,
        }
    }

    /// Sets the shard count (default 1: one worker, on the calling
    /// thread).
    pub fn with_shards(mut self, shards: usize) -> ShardedEngine<M> {
        self.shards = shards.max(1);
        self
    }

    /// Forces the worker count of multi-shard runs, the calling thread
    /// included. By default a run uses `min(shards, available_parallelism)`
    /// workers, each owning a contiguous group of shards; results are
    /// identical either way, so this only matters for exercising the
    /// barrier under real concurrency or benchmarking a specific width.
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
        self.windows.occupancy = Some(ShardOccupancy::new(self.clusters.len(), widths));
        self
    }

    /// Arms wall-clock self-profiling of the engine phases
    /// (drain/decide/process/barrier). Timers are host-dependent — they
    /// are exported via [`ShardedEngine::wall_profile`], never inside
    /// deterministic results.
    pub fn with_self_profiling(mut self) -> ShardedEngine<M> {
        self.wall = Profiler::armed();
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
        self.windows.series = Some(TimeSeries::new(width, retain));
        self
    }

    /// The occupancy accumulated so far, when armed via
    /// [`ShardedEngine::with_occupancy`].
    pub fn occupancy(&self) -> Option<&ShardOccupancy> {
        self.windows.occupancy.as_ref()
    }

    /// The per-safe-window series accumulated so far, when armed via
    /// [`ShardedEngine::with_series`].
    pub fn series(&self) -> Option<&TimeSeries> {
        self.windows.series.as_ref()
    }

    /// The wall-clock phase timers (disabled and all-zero unless armed
    /// via [`ShardedEngine::with_self_profiling`]). A run merges every
    /// worker's timers, so with several workers the phase totals can
    /// exceed elapsed wall time.
    pub fn wall_profile(&self) -> &Profiler {
        &self.wall
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

    /// The model of cluster `c`, mutably: for draining what a model
    /// accumulated (its trace buffer, say) after a run.
    pub fn model_mut(&mut self, c: usize) -> &mut M {
        &mut self.clusters[c].model
    }

    /// Total events delivered across all clusters.
    pub fn events_processed(&self) -> u64 {
        self.windows.events
    }

    /// Events delivered on cluster `c`.
    pub fn cluster_events(&self, c: usize) -> u64 {
        self.clusters[c].events
    }

    /// Safe windows executed. Identical at any shard count.
    pub fn rounds(&self) -> u64 {
        self.windows.rounds
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
            .all(|c| c.clock <= self.windows.last_end || c.events == 0);
        cp.check(
            invariant::SHARD_WINDOW_MONOTONE,
            self.windows.monotone && clocks_ok,
            || {
                format!(
                    "windows_monotone={} last_window_end={} max_clock={}",
                    self.windows.monotone,
                    self.windows.last_end,
                    self.clock()
                )
            },
        );
        cp.check_monotone(
            invariant::SHARD_WINDOW_MONOTONE,
            self.windows.last_end.as_ps() as f64,
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
    ///
    /// Every layout runs one loop: the leader worker runs on the calling
    /// thread and the others on scoped threads, so a one-worker run (one
    /// shard, or [`ShardedEngine::with_threads`]`(1)`) never leaves the
    /// calling thread.
    ///
    /// # Panics
    ///
    /// Re-raises, on the calling thread, the first panic of a model or of
    /// the engine on any worker, once every worker has stopped. The
    /// engine's clusters are lost in that case.
    pub fn run_until(&mut self, horizon: Time, max_events: u64) -> StopReason {
        let clusters = self.clusters.len();
        let shards = self.shards.min(clusters);
        // Workers are capped at the host's parallelism; each owns a
        // contiguous group of shards (shard s → worker s * threads /
        // shards), so oversubscribed shard counts cost bookkeeping, not
        // spin-barrier contention. Asking the host costs a system call,
        // which one shard does without.
        let threads = if shards == 1 {
            1
        } else {
            self.threads
                .unwrap_or_else(|| {
                    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
                })
                .min(shards)
        };
        // Contiguous balanced partition: cluster c belongs to shard
        // c * shards / clusters (layout never affects results).
        let mut groups: Vec<WorkerShards<M>> = (0..threads).map(|_| Vec::new()).collect();
        for (idx, state) in std::mem::take(&mut self.clusters).into_iter().enumerate() {
            let shard = idx * shards / clusters;
            let group = &mut groups[shard * threads / shards];
            match group.last_mut() {
                Some((s, part)) if *s == shard => part.push((idx, state)),
                _ => group.push((shard, vec![(idx, state)])),
            }
        }
        let shared: RunShared<M::Event> = RunShared {
            shards,
            clusters,
            lookahead: self.lookahead,
            horizon,
            max_events,
            threads,
            barrier: RoundBarrier::new(threads),
            next_times: (0..shards).map(|_| AtomicU64::new(u64::MAX)).collect(),
            window_end: AtomicU64::new(0),
            stop: AtomicU64::new(0),
            mail: (0..shards * shards)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
            counts: (0..clusters).map(|_| AtomicU64::new(0)).collect(),
        };
        let mut groups = groups.into_iter();
        let mut lead = groups.next().expect("a run has at least one worker");
        let armed = self.wall.is_enabled();
        let (windows, wall) = (&mut self.windows, &mut self.wall);
        let (led, rest) = std::thread::scope(|scope| {
            let handles: Vec<_> = groups
                .map(|mut mine| {
                    let shared = &shared;
                    scope.spawn(move || {
                        let mut wall = if armed {
                            Profiler::armed()
                        } else {
                            Profiler::disabled()
                        };
                        let stats = run_worker(&mut mine, shared, None, &mut wall);
                        (mine, stats, wall)
                    })
                })
                .collect();
            let led = panic::catch_unwind(AssertUnwindSafe(|| {
                run_worker(&mut lead, &shared, Some(windows), wall)
            }));
            let rest: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            (led, rest)
        });
        let led = led.map(|stats| (Vec::new(), stats, Profiler::disabled()));
        let mut panics = Vec::new();
        for joined in std::iter::once(led).chain(rest) {
            match joined {
                Ok((mine, stats, wall)) => {
                    lead.extend(mine);
                    self.messages_sent += stats.sent;
                    self.messages_delivered += stats.delivered;
                    self.wall.merge(&wall);
                }
                Err(payload) => panics.push(payload),
            }
        }
        // A worker that unwinds poisons the barrier and every other worker
        // then unwinds with `BarrierPoisoned`: re-raise the panic that
        // started it.
        if let Some(payload) = panics.into_iter().min_by_key(|p| p.is::<BarrierPoisoned>()) {
            panic::resume_unwind(payload);
        }
        // Workers, their shards and each shard's clusters are all
        // contiguous and ascending, so concatenation restores cluster order.
        self.clusters = lead
            .into_iter()
            .flat_map(|(_, part)| part)
            .map(|(_, state)| state)
            .collect();
        stop_reason(shared.stop.into_inner())
    }
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

/// The engine's one run loop — drain → decide → process — over the shards
/// a worker owns. The leader (`windows` is `Some`) also decides every
/// window.
fn run_worker<M: ClusterModel>(
    mine: &mut WorkerShards<M>,
    shared: &RunShared<M::Event>,
    mut windows: Option<&mut Windows>,
    wall: &mut Profiler,
) -> WorkerStats {
    let _poison = PoisonOnUnwind(&shared.barrier);
    let (shards, clusters) = (shared.shards, shared.clusters);
    let mut stats = WorkerStats::default();
    let mut counts = vec![0; if windows.is_some() { clusters } else { 0 }];
    let mut inbox = Vec::new();
    let mut outgoing: Vec<Vec<OutMsg<M::Event>>> = (0..shards).map(|_| Vec::new()).collect();
    loop {
        // Drain each owned shard's inboxes into its clusters' wheels. Each
        // mailbox has exactly one reading worker, so the locks are
        // uncontended.
        let t = wall.begin();
        for (shard, part) in mine.iter_mut() {
            let first = part[0].0;
            for src in 0..shards {
                std::mem::swap(
                    &mut inbox,
                    &mut *shared.mail[src * shards + *shard]
                        .lock()
                        .expect("mailbox poisoned"),
                );
                for msg in inbox.drain(..) {
                    let (idx, state) = &mut part[msg.dst as usize - first];
                    debug_assert_eq!(*idx, msg.dst as usize, "message routed to owning shard");
                    state.wheel.schedule(msg.at, msg.key, msg.event);
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
        shared.sync(wall);
        if let Some(windows) = windows.as_deref_mut() {
            let t = wall.begin();
            match windows.next_window(shared, &mut counts) {
                Ok(wend) => shared.window_end.store(wend, Ordering::Release),
                Err(reason) => shared.stop.store(stop_code(reason), Ordering::Release),
            }
            wall.end(Phase::Decide, t);
        }
        shared.sync(wall);
        if shared.stop.load(Ordering::Acquire) != 0 {
            return stats;
        }
        // Process the window, staging outgoing messages per destination
        // shard: one mailbox lock per shard pair per round.
        let t = wall.begin();
        let wend = shared.window_end.load(Ordering::Acquire);
        for (shard, part) in mine.iter_mut() {
            for (idx, state) in part.iter_mut() {
                let n = process_window(*idx, state, clusters, shared.lookahead, wend);
                shared.counts[*idx].store(n, Ordering::Relaxed);
                stats.sent += state.outbox.len() as u64;
                // With one shard every message goes to shard 0: moving the
                // outbox in bulk instead of routing each message saves
                // about 5% of a one-shard run.
                if shards == 1 {
                    outgoing[0].append(&mut state.outbox);
                } else {
                    for msg in state.outbox.drain(..) {
                        outgoing[msg.dst as usize * shards / clusters].push(msg);
                    }
                }
            }
            for (dst, out) in outgoing.iter_mut().enumerate() {
                if !out.is_empty() {
                    shared.mail[*shard * shards + dst]
                        .lock()
                        .expect("mailbox poisoned")
                        .append(out);
                }
            }
        }
        wall.end(Phase::Process, t);
        // The barrier between process and the next drain keeps a fast
        // worker from draining while a slow one is still publishing.
        shared.sync(wall);
    }
}

/// The leader's window decision: stop, or open the next window. Returns
/// the window end (ps, exclusive) or the stop reason.
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

/// The engine's deterministic state: the cluster count and lookahead
/// (a load refuses an engine built otherwise), the engine counters and
/// window cursor, then every cluster's model, wheel, send sequence,
/// clock and event count. Shard/thread packing is an execution choice
/// and may differ freely between save and load. Observability
/// attachments (occupancy accumulator, wall-clock profilers) are host-
/// or layout-facing and are not in the stream.
///
/// Every stop of [`ShardedEngine::run_until`] is post-drain, so the
/// mailboxes and outboxes are empty at every legal save point and
/// never travel.
///
/// # Panics
///
/// Saving panics if any cluster has staged outbox messages, i.e. if
/// called from inside an event handler rather than between runs.
impl<M> Persist for ShardedEngine<M>
where
    M: ClusterModel + Persist,
    M::Event: Persist + Default,
{
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        io.expect(self.clusters.len(), "cluster count")?;
        io.expect(self.lookahead, "lookahead")?;
        io.u64(&mut self.windows.events)?;
        io.u64(&mut self.windows.rounds)?;
        io.u64(&mut self.messages_sent)?;
        io.u64(&mut self.messages_delivered)?;
        io.time(&mut self.windows.last_end)?;
        io.bool(&mut self.windows.monotone)?;
        for c in &mut self.clusters {
            assert!(
                IO::LOADING || c.outbox.is_empty(),
                "snapshot requires a post-drain stop (staged outbox messages exist)"
            );
            c.outbox.clear();
            c.model.persist(io)?;
            c.wheel.persist(io)?;
            io.u64(&mut c.seq)?;
            io.time(&mut c.clock)?;
            io.u64(&mut c.events)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::snap::{SnapReader, SnapWriter};

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

    /// A split, horizon or snapshot point inside every gossip run these
    /// tests make (they drain between 480 and 660 ns).
    const SPLIT_AT: Time = Time::from_ns(250);

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
        let first = split.run_until(SPLIT_AT, u64::MAX);
        assert_eq!(first, StopReason::HorizonReached, "the split falls mid-run");
        split.run();
        assert_eq!(split.series().expect("armed").to_json(), want);
    }

    #[test]
    fn occupancy_survives_split_runs() {
        let mut whole = gossip_engine(4, 17, 2).with_occupancy(&[2]);
        whole.run();
        let want = whole.occupancy().expect("armed").to_json();

        let mut split = gossip_engine(4, 17, 2).with_occupancy(&[2]);
        let first = split.run_until(SPLIT_AT, u64::MAX);
        assert_eq!(first, StopReason::HorizonReached, "the split falls mid-run");
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
            let reason = engine.run_until(SPLIT_AT, u64::MAX);
            assert_eq!(reason, StopReason::HorizonReached, "shards={shards}");
        }
        let mut a = gossip_engine(5, 9, 1);
        let ra = a.run_until(SPLIT_AT, u64::MAX);
        let mut b = gossip_engine(5, 9, 4);
        let rb = b.run_until(SPLIT_AT, u64::MAX);
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
        let first = split.run_until(SPLIT_AT, u64::MAX);
        assert_eq!(first, StopReason::HorizonReached, "the split falls mid-run");
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

    /// Runs a 2-shard, 2-worker engine whose cluster `culprit` sends below
    /// lookahead, on a helper thread; returns the panic message the run
    /// re-raised. A hung run fails within seconds instead of stalling.
    fn undershoot_message(culprit: usize) -> String {
        struct Undershoot {
            culprit: bool,
        }
        impl ClusterModel for Undershoot {
            type Event = ();
            fn handle(&mut self, _now: Time, _ev: (), ctx: &mut ClusterCtx<'_, ()>) {
                if self.culprit {
                    ctx.send(1 - ctx.cluster(), Duration::from_ps(1), ());
                }
            }
        }
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let models = (0..2)
                .map(|c| Undershoot {
                    culprit: c == culprit,
                })
                .collect();
            let mut engine = ShardedEngine::new(models, Duration::from_ns(50))
                .with_shards(2)
                .with_threads(2);
            engine.schedule(0, Time::ZERO, ());
            engine.schedule(1, Time::ZERO, ());
            let payload = panic::catch_unwind(AssertUnwindSafe(|| engine.run()))
                .expect_err("an undershooting send panics");
            let msg = match payload.downcast::<String>() {
                Ok(msg) => *msg,
                Err(other) => format!("non-message payload: {other:?}"),
            };
            tx.send(msg).expect("test thread is waiting");
        });
        rx.recv_timeout(std::time::Duration::from_secs(20))
            .expect("a panicking worker hung the run")
    }

    #[test]
    fn a_panic_on_the_leaders_shard_surfaces_instead_of_hanging() {
        let msg = undershoot_message(0);
        assert!(msg.contains("below lookahead"), "got {msg:?}");
    }

    #[test]
    fn a_panic_on_another_workers_shard_surfaces_instead_of_hanging() {
        let msg = undershoot_message(1);
        assert!(msg.contains("below lookahead"), "got {msg:?}");
    }

    /// A one-worker run spawns no thread: every event is handled on the
    /// thread that called `run`.
    #[test]
    fn one_worker_runs_stay_on_the_calling_thread() {
        struct Where {
            seen: Vec<std::thread::ThreadId>,
        }
        impl ClusterModel for Where {
            type Event = u32;
            fn handle(&mut self, _now: Time, hops: u32, ctx: &mut ClusterCtx<'_, u32>) {
                self.seen.push(std::thread::current().id());
                if hops > 0 {
                    let dst = (ctx.cluster() + 1) % ctx.clusters();
                    ctx.send(dst, ctx.lookahead(), hops - 1);
                }
            }
        }
        let me = std::thread::current().id();
        for (shards, threads) in [(1, None), (4, Some(1))] {
            let models = (0..4).map(|_| Where { seen: Vec::new() }).collect();
            let mut engine = ShardedEngine::new(models, Duration::from_ns(90)).with_shards(shards);
            if let Some(t) = threads {
                engine = engine.with_threads(t);
            }
            for c in 0..4 {
                engine.schedule(c, Time::ZERO, 6);
            }
            engine.run();
            assert_eq!(engine.events_processed(), 4 * 7);
            for c in 0..4 {
                assert!(
                    engine.model(c).seen.iter().all(|&id| id == me),
                    "shards={shards} threads={threads:?}: cluster {c} ran off the calling thread"
                );
            }
        }
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

    impl Persist for Gossip {
        fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
            self.rng.persist(io)?;
            self.log.persist(io)?;
            io.u64(&mut self.digest)
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
            let first = a.run_until(SPLIT_AT, u64::MAX);
            assert_eq!(
                first,
                StopReason::HorizonReached,
                "the snapshot falls mid-run"
            );
            let mut w = SnapWriter::new();
            w.save(&mut a);
            let bytes = w.into_bytes();

            // Fresh engine, models in their *constructed* state: every
            // bit of progress must come from the snapshot overlay.
            let models = (0..7).map(|c| Gossip::new(c, 42)).collect();
            let mut b =
                ShardedEngine::new(models, Duration::from_ns(90)).with_shards(resume_shards);
            b.persist(&mut SnapReader::new(&bytes)).expect("restore");
            // Re-snapshot before running further: byte-identical.
            let mut w2 = SnapWriter::new();
            w2.save(&mut b);
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

    /// The bytes of a mid-run engine snapshot, pinned by length and
    /// digest at several layouts: the stream is a function of the model
    /// state alone, and a codec change that moves a field fails here.
    #[test]
    fn snapshot_bytes_are_pinned() {
        for shards in [1, 3, 4] {
            let mut engine = gossip_engine(7, 42, shards);
            engine.run_until(SPLIT_AT, u64::MAX);
            let mut w = SnapWriter::new();
            w.save(&mut engine);
            let bytes = w.into_bytes();
            assert_eq!(
                (bytes.len(), format!("{:016x}", fnv(&bytes))),
                (1557, "1b82b630c941ffdf".to_owned()),
                "shards={shards}"
            );
        }
    }

    #[test]
    fn restore_rejects_shape_mismatches() {
        let mut a = gossip_engine(4, 7, 1);
        a.run_until(Time::from_us(1), u64::MAX);
        let mut w = SnapWriter::new();
        w.save(&mut a);
        let bytes = w.into_bytes();

        // wrong cluster count
        let models = (0..5).map(|c| Gossip::new(c, 7)).collect();
        let mut b = ShardedEngine::new(models, Duration::from_ns(90));
        assert!(matches!(
            b.persist(&mut SnapReader::new(&bytes)),
            Err(RestoreError::Malformed { .. })
        ));

        // wrong lookahead
        let models = (0..4).map(|c| Gossip::new(c, 7)).collect();
        let mut c = ShardedEngine::new(models, Duration::from_ns(80));
        assert!(matches!(
            c.persist(&mut SnapReader::new(&bytes)),
            Err(RestoreError::Malformed { .. })
        ));
    }

    /// FNV-1a, for pinning whole exports by value.
    fn fnv(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x100000001b3)
        })
    }

    /// How a pinned run drives the engine. The pinned gossip runs drain
    /// between 480 and 660 ns, so the horizons sit inside them.
    #[derive(Debug, Clone, Copy)]
    enum Mode {
        /// `run()` to the end.
        Full,
        /// `run_until(250ns)`, then `run()`.
        Split,
        /// `run_until(MAX, 20)`: the event budget stops it.
        Budget,
        /// `run_until(350ns)`.
        Horizon,
        /// `run_until(250ns)`, snapshot, restore into a fresh engine at
        /// another layout, `run()` that one.
        Snapshot,
    }

    /// `(shards, forced worker threads)`.
    type Layout = (usize, Option<usize>);

    const PIN_LAYOUTS: [Layout; 5] = [(1, None), (2, Some(1)), (3, None), (4, Some(2)), (8, None)];

    fn armed_engine(
        clusters: usize,
        seed: u64,
        (shards, threads): Layout,
    ) -> ShardedEngine<Gossip> {
        let engine = gossip_engine(clusters, seed, shards)
            .with_occupancy(&[2, 4])
            .with_series(Duration::from_ns(200), 32);
        match threads {
            Some(t) => engine.with_threads(t),
            None => engine,
        }
    }

    /// `(events, rounds, sent, reason, hash)` of one pinned case.
    type Pin = (u64, u64, u64, StopReason, u64);

    /// Runs one pinned case. The hash covers every model's log and digest,
    /// the engine counters, the final clock, the stop reason, the
    /// occupancy and series JSON and the snapshot bytes.
    fn pin_case(clusters: usize, seed: u64, mode: Mode, layout: Layout, resume: Layout) -> Pin {
        let mut e = armed_engine(clusters, seed, layout);
        let mut mid = Vec::new();
        let (reason, end) = match mode {
            Mode::Full => (StopReason::QueueEmpty, e.run()),
            Mode::Split => (e.run_until(Time::from_ns(250), u64::MAX), e.run()),
            Mode::Budget => (e.run_until(Time::MAX, 20), e.clock()),
            Mode::Horizon => (e.run_until(Time::from_ns(350), u64::MAX), e.clock()),
            Mode::Snapshot => {
                let reason = e.run_until(Time::from_ns(250), u64::MAX);
                let mut w = SnapWriter::new();
                w.save(&mut e);
                mid = w.into_bytes();
                e = armed_engine(clusters, seed, resume);
                e.persist(&mut SnapReader::new(&mid)).expect("restore");
                (reason, e.run())
            }
        };
        let mut w = SnapWriter::new();
        w.save(&mut e);
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&mid);
        let (digests, logs, events, rounds, sent) = fingerprint(&e);
        let mut words = digests;
        for log in logs {
            words.push(log.len() as u64);
            words.extend(log.into_iter().flat_map(|(t, tag)| [t, tag as u64]));
        }
        words.extend([
            events,
            rounds,
            sent,
            e.messages_delivered(),
            end.as_ps(),
            stop_code(reason),
            fnv(e.occupancy().expect("armed").to_json().as_bytes()),
            fnv(e.series().expect("armed").to_json().as_bytes()),
            fnv(&bytes),
        ]);
        let flat: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        (events, rounds, sent, reason, fnv(&flat))
    }

    /// Absolute values for the engine, pinned so that a change to the one
    /// run loop cannot hide behind the layout tests (which compare the
    /// loop against itself). Every layout must reproduce each row.
    #[test]
    fn pins_engine_golden_values() {
        use StopReason::{BudgetExhausted as B, HorizonReached as H, QueueEmpty as Q};
        #[rustfmt::skip]
        let table: [(usize, u64, Mode, Pin); 15] = [
            (7, 42, Mode::Full, (91, 8, 29, Q, 0x0a718d55c6a13e50)),
            (7, 42, Mode::Split, (91, 8, 29, H, 0x8a2ef0d2a2aec423)),
            (7, 42, Mode::Budget, (43, 2, 13, B, 0xe2957165fe3e00f7)),
            (7, 42, Mode::Horizon, (66, 4, 23, H, 0x03883c649d10a3aa)),
            (7, 42, Mode::Snapshot, (91, 8, 29, H, 0x7a03cf18b5bde75b)),
            (6, 11, Mode::Full, (78, 6, 20, Q, 0x5cf31bc01d425d2c)),
            (6, 11, Mode::Split, (78, 6, 20, H, 0x619673635fe5015b)),
            (6, 11, Mode::Budget, (21, 1, 6, B, 0x2ed5384904d1bbd5)),
            (6, 11, Mode::Horizon, (70, 4, 19, H, 0xdaf62932b15fece1)),
            (6, 11, Mode::Snapshot, (78, 6, 20, H, 0x40b79dfefc7a3a36)),
            (4, 17, Mode::Full, (52, 7, 16, Q, 0x4fca6928567ec714)),
            (4, 17, Mode::Split, (52, 7, 16, H, 0xfcb34a7e7bd06147)),
            (4, 17, Mode::Budget, (31, 3, 11, B, 0xa18db8129168e744)),
            (4, 17, Mode::Horizon, (37, 4, 14, H, 0xcb73ae995c0dcac9)),
            (4, 17, Mode::Snapshot, (52, 7, 16, H, 0x08bea761b495a581)),
        ];
        let mut got = String::new();
        let mut ok = true;
        for &(clusters, seed, mode, want) in &table {
            let mut row = None;
            for (i, &layout) in PIN_LAYOUTS.iter().enumerate() {
                let resume = PIN_LAYOUTS[(i + 2) % PIN_LAYOUTS.len()];
                let case = pin_case(clusters, seed, mode, layout, resume);
                if case != want {
                    ok = false;
                    eprintln!("({clusters}, {seed}, {mode:?}) at {layout:?}: got {case:?}");
                }
                row.get_or_insert(case);
            }
            let (events, rounds, sent, reason, hash) = row.expect("layouts run");
            got += &format!(
                "({clusters}, {seed}, Mode::{mode:?}, ({events}, {rounds}, {sent}, {reason:?}, {hash:#018x})),\n"
            );
        }
        assert!(
            ok,
            "pinned engine values moved; at layout (1, None):\n{got}"
        );
    }
}
