//! The cluster-partitioned system model driven by the sharded engine.
//!
//! [`ShardSimConfig`] describes an ECOSCALE machine as `clusters`
//! Worker-clusters (Compute Nodes) of `workers_per_cluster` Workers.
//! Each cluster becomes one [`ClusterModel`] with its own UNIMEM system,
//! intra-cluster NoC, CPU model, task trace, and seeded RNG; clusters
//! interact only through keyed cross-cluster messages (remote UNIMEM
//! requests and their replies), whose delay is the global NoC latency —
//! always at least the engine lookahead, because the lookahead *is* the
//! minimum inter-cluster NoC latency
//! ([`CostModel::min_inter_cluster_latency`]).
//!
//! [`run_shard_sim_with`] executes the model on the [`ShardedEngine`] and
//! folds every cluster's instruments into one [`ShardOutcome`] — merged
//! metrics, a merged trace buffer, and a report — all assembled in
//! cluster index order, so every export is byte-identical at any shard
//! count.

use ecoscale_mem::{CacheConfig, DramModel, GlobalAddr, UnimemSystem};
use ecoscale_noc::{CostModel, Network, NetworkConfig, NodeId, Route, Topology, TreeTopology};
use ecoscale_runtime::{partitioned_traces, CpuModel, TaskSpec};
use ecoscale_sim::check::CheckPlane;
use ecoscale_sim::prof::{Profiler, ShardOccupancy};
use ecoscale_sim::shard::{ClusterCtx, ClusterModel, ShardedEngine};
use ecoscale_sim::{
    Duration, Energy, MetricsRegistry, SimRng, StopReason, Time, TimeSeries, TraceBuffer, TrackId,
};

/// Occupancy band widths every shard run accounts for (clamped to the
/// cluster count). One run yields critical-path bounds for all of them.
pub const OCCUPANCY_WIDTHS: [usize; 3] = [2, 4, 8];

/// Shape and workload of a cluster-partitioned simulation.
#[derive(Debug, Clone)]
pub struct ShardSimConfig {
    /// Worker clusters (Compute Nodes). At least 2.
    pub clusters: usize,
    /// Workers per cluster. At least 2 (tree fanout floor).
    pub workers_per_cluster: usize,
    /// Tasks arriving at each cluster.
    pub tasks_per_cluster: usize,
    /// Work per task in flop-equivalents.
    pub flops: u64,
    /// Zipf skew of task homes inside a cluster.
    pub skew: f64,
    /// Inter-arrival spacing within a cluster, nanoseconds.
    pub spacing_ns: u64,
    /// Probability that a task needs one remote-cluster UNIMEM fetch.
    pub remote_frac: f64,
    /// Master seed; every cluster derives its streams from it by index.
    pub seed: u64,
    /// Per-safe-window telemetry feed: when set, the engine keeps a
    /// [`TimeSeries`] of `(window width, retained windows)` fed one safe
    /// window at a time ([`ShardOutcome::series`]). `None` costs one
    /// branch per window.
    pub telemetry: Option<(Duration, usize)>,
}

impl ShardSimConfig {
    /// A config with workload defaults for the given shape.
    pub fn new(clusters: usize, workers_per_cluster: usize) -> ShardSimConfig {
        ShardSimConfig {
            clusters,
            workers_per_cluster,
            tasks_per_cluster: 256,
            flops: 50_000,
            skew: 1.1,
            spacing_ns: 500,
            remote_frac: 0.15,
            seed: 0xEC05,
            telemetry: None,
        }
    }

    /// The global machine topology: one tree level inside the cluster,
    /// one across clusters.
    pub fn topology(&self) -> TreeTopology {
        TreeTopology::new(&[self.workers_per_cluster, self.clusters])
    }

    /// The engine lookahead: the minimum inter-cluster NoC latency of
    /// [`ShardSimConfig::topology`] under the default cost ladder.
    pub fn lookahead(&self) -> Duration {
        CostModel::ecoscale_defaults().min_inter_cluster_latency(&self.topology(), 1)
    }
}

/// Cluster-local events of the partitioned model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterEv {
    /// Task `i` of this cluster's trace becomes ready.
    Arrive(u32),
    /// Worker `worker` finishes task `task`.
    Finish {
        /// Executing worker (cluster-local index).
        worker: u32,
        /// Task index in the cluster's trace.
        task: u32,
    },
    /// A UNIMEM request from cluster `reply_to` for `bytes` homed here.
    RemoteReq {
        /// Requesting cluster.
        reply_to: u32,
        /// Requesting worker (index in that cluster).
        worker: u32,
        /// Requesting task (index in that cluster's trace).
        task: u32,
        /// Payload size.
        bytes: u64,
    },
    /// The reply: remote data for `task` arrived back at `worker`.
    RemoteResp {
        /// Worker waiting on the data.
        worker: u32,
        /// The task that may now execute.
        task: u32,
    },
}

/// One cluster: its Workers, memory system, intra-cluster NoC and trace.
pub struct ClusterSimModel {
    cluster: usize,
    clusters: usize,
    workers: usize,
    remote_frac: f64,
    trace: Vec<TaskSpec>,
    cpu: CpuModel,
    mem: UnimemSystem,
    net: Network<TreeTopology>,
    rng: SimRng,
    global_topo: TreeTopology,
    global_cost: CostModel,
    /// Global-NoC route to each destination cluster, computed on the
    /// first message there (`None` until then).
    transit_routes: Vec<Option<Route>>,
    next_free: Vec<Time>,
    /// This cluster's task spans. The cluster alone writes it, so it
    /// needs no lock; the outcome drains it after the run.
    spans: TraceBuffer,
    tracks: Vec<TrackId>,
    completed: u64,
    remote_requests: u64,
    remote_served: u64,
    busy: Duration,
    energy: Energy,
}

impl ClusterSimModel {
    fn new(cluster: usize, cfg: &ShardSimConfig, trace: Vec<TaskSpec>) -> ClusterSimModel {
        let mut spans = TraceBuffer::default();
        let tracks = (0..cfg.workers_per_cluster)
            .map(|w| spans.track(&format!("c{cluster}/w{w}")))
            .collect();
        ClusterSimModel {
            cluster,
            clusters: cfg.clusters,
            workers: cfg.workers_per_cluster,
            remote_frac: cfg.remote_frac,
            trace,
            cpu: CpuModel::a53_default(),
            mem: UnimemSystem::new(
                cfg.workers_per_cluster,
                CacheConfig::l1_default(),
                DramModel::default(),
            ),
            net: Network::new(
                TreeTopology::new(&[cfg.workers_per_cluster]),
                NetworkConfig::default(),
            ),
            rng: SimRng::seed_from(cfg.seed ^ 0x5AA5 ^ ((cluster as u64) << 32)),
            global_topo: cfg.topology(),
            global_cost: CostModel::ecoscale_defaults(),
            transit_routes: vec![None; cfg.clusters],
            next_free: vec![Time::ZERO; cfg.workers_per_cluster],
            spans,
            tracks,
            completed: 0,
            remote_requests: 0,
            remote_served: 0,
            busy: Duration::ZERO,
            energy: Energy::ZERO,
        }
    }

    /// Transit latency of `bytes` between this cluster and `dst` over the
    /// global NoC (representative leaf pair; in a two-level tree every
    /// inter-cluster pair crosses the same ladder).
    fn transit(&mut self, dst: usize, bytes: u64) -> Duration {
        let (topo, workers, src) = (&self.global_topo, self.workers, self.cluster);
        let route = self.transit_routes[dst]
            .get_or_insert_with(|| topo.route(NodeId(src * workers), NodeId(dst * workers)));
        self.global_cost.latency(route, bytes)
    }

    /// Execution cost of trace task `i` on a Worker CPU.
    fn exec_cost(&self, i: u32) -> (Duration, Energy) {
        let t = &self.trace[i as usize].task;
        self.cpu.exec(t.flops(), t.mem_ops())
    }

    /// The Worker that frees up first (ties to the lowest index).
    fn pick_worker(&self) -> usize {
        let mut best = 0;
        for w in 1..self.next_free.len() {
            if self.next_free[w] < self.next_free[best] {
                best = w;
            }
        }
        best
    }

    /// Starts task `i` on worker `w` at `start`; schedules its finish.
    fn start_task(&mut self, start: Time, w: usize, i: u32, ctx: &mut ClusterCtx<'_, ClusterEv>) {
        let (d, e) = self.exec_cost(i);
        // one local UNIMEM line read per task (cache-home path inside
        // the cluster)
        let spec = &self.trace[i as usize];
        let home = NodeId(spec.task.data_home().0 % self.workers);
        let addr = GlobalAddr::new(home, u64::from(i) * 64);
        let acc = self.mem.read(&mut self.net, start, NodeId(w), addr, 64);
        self.energy += acc.energy;
        let fin = start + acc.latency + d;
        self.next_free[w] = fin;
        self.energy += e;
        self.busy += fin.since(start);
        ctx.schedule_at(
            fin,
            ClusterEv::Finish {
                worker: w as u32,
                task: i,
            },
        );
    }

    fn export_metrics(&self, m: &mut MetricsRegistry) {
        m.add("shard.tasks_completed", self.completed);
        m.add("shard.remote_requests", self.remote_requests);
        m.add("shard.remote_served", self.remote_served);
        m.observe("shard.busy_ms", self.busy.as_ns_f64() / 1e6);
        m.observe("shard.energy_uj", self.energy.as_uj());
        self.mem.export_metrics(m, "unimem");
        self.net.export_metrics(m, "noc");
    }
}

impl ClusterModel for ClusterSimModel {
    type Event = ClusterEv;

    fn handle(&mut self, now: Time, ev: ClusterEv, ctx: &mut ClusterCtx<'_, ClusterEv>) {
        match ev {
            ClusterEv::Arrive(i) => {
                let needs_remote = self.clusters > 1 && self.rng.gen_bool(self.remote_frac);
                if needs_remote {
                    // fetch one remote line first; the task runs when the
                    // reply lands (its worker keeps serving other tasks)
                    let mut dst = self.rng.gen_range_usize(0, self.clusters - 1);
                    if dst >= self.cluster {
                        dst += 1;
                    }
                    self.remote_requests += 1;
                    let w = self.pick_worker() as u32;
                    ctx.send(
                        dst,
                        self.transit(dst, 16),
                        ClusterEv::RemoteReq {
                            reply_to: self.cluster as u32,
                            worker: w,
                            task: i,
                            bytes: 256,
                        },
                    );
                } else {
                    let w = self.pick_worker();
                    let start = now.max(self.next_free[w]);
                    self.start_task(start, w, i, ctx);
                }
            }
            ClusterEv::RemoteReq {
                reply_to,
                worker,
                task,
                bytes,
            } => {
                let (service, e) = self.mem.serve_remote(bytes);
                self.energy += e;
                self.remote_served += 1;
                ctx.send(
                    reply_to as usize,
                    self.transit(reply_to as usize, bytes) + service,
                    ClusterEv::RemoteResp { worker, task },
                );
            }
            ClusterEv::RemoteResp { worker, task } => {
                let w = worker as usize;
                let start = now.max(self.next_free[w]);
                self.start_task(start, w, task, ctx);
            }
            ClusterEv::Finish { worker, task } => {
                self.completed += 1;
                if let Some(&track) = self.tracks.get(worker as usize) {
                    let (d, _) = self.exec_cost(task);
                    let start = Time::from_ps(now.as_ps().saturating_sub(d.as_ps()));
                    self.spans.complete(track, "task", start, d);
                }
            }
        }
    }
}

/// Everything one sharded run produced, merged in cluster index order.
pub struct ShardOutcome {
    /// Merged per-cluster instruments (shared keys sum across clusters).
    pub metrics: MetricsRegistry,
    /// Merged trace spans from every cluster's Workers.
    pub trace: TraceBuffer,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Completion time of the last event.
    pub makespan: Time,
    /// Tasks completed across all clusters.
    pub completed: u64,
    /// Events the engine delivered.
    pub events: u64,
    /// Safe windows executed.
    pub rounds: u64,
    /// Cross-cluster messages exchanged.
    pub messages: u64,
    /// The lookahead the run synchronized on.
    pub lookahead: Duration,
    /// Per-window occupancy accounting over [`OCCUPANCY_WIDTHS`] bands.
    /// Derived from event counts, so byte-identical at any shard count;
    /// also exported under `shard.occupancy.*` in `metrics`.
    pub occupancy: ShardOccupancy,
    /// Per-safe-window telemetry series when
    /// [`ShardSimConfig::telemetry`] was set (byte-identical at any
    /// shard count, like occupancy).
    pub series: Option<TimeSeries>,
}

impl ShardOutcome {
    /// A deterministic JSON report of the run — simulation results only
    /// (no wall-clock, no shard count), so it is byte-identical at any
    /// shard count.
    pub fn report(&self) -> String {
        format!(
            concat!(
                "{{\"experiment\":\"p1\",\"completed\":{},\"events\":{},",
                "\"rounds\":{},\"messages\":{},\"lookahead_ns\":{},",
                "\"makespan_ns\":{}}}"
            ),
            self.completed,
            self.events,
            self.rounds,
            self.messages,
            self.lookahead.as_ns_f64(),
            self.makespan.as_ns_f64(),
        )
    }
}

/// Runs `cfg` on the sharded engine at `shards` shards (`None`: one),
/// absorbing the run's invariant checks into `cp`.
///
/// # Panics
///
/// Panics if the config has fewer than 2 clusters or workers per cluster.
pub fn run_shard_sim_with(
    cfg: &ShardSimConfig,
    shards: Option<usize>,
    cp: &mut CheckPlane,
) -> ShardOutcome {
    run_shard_sim_inner(cfg, shards.unwrap_or(1), false, cp).0
}

/// [`run_shard_sim_observed_with`] on one shard.
pub fn run_shard_sim_observed(
    cfg: &ShardSimConfig,
    cp: &mut CheckPlane,
) -> (ShardOutcome, Profiler) {
    run_shard_sim_observed_with(cfg, 1, cp)
}

/// [`run_shard_sim_with`] with wall-clock self-profiling armed: the
/// engine times its drain/decide/process/barrier phases and returns them
/// next to the outcome. The outcome stays byte-identical to an
/// unobserved run at any shard count; the [`Profiler`] is host-dependent
/// and must never be folded into deterministic exports.
pub fn run_shard_sim_observed_with(
    cfg: &ShardSimConfig,
    shards: usize,
    cp: &mut CheckPlane,
) -> (ShardOutcome, Profiler) {
    run_shard_sim_inner(cfg, shards, true, cp)
}

fn run_shard_sim_inner(
    cfg: &ShardSimConfig,
    shards: usize,
    observe: bool,
    cp: &mut CheckPlane,
) -> (ShardOutcome, Profiler) {
    assert!(cfg.clusters >= 2, "need at least 2 clusters");
    assert!(
        cfg.workers_per_cluster >= 2,
        "need at least 2 workers per cluster"
    );
    let traces = partitioned_traces(
        cfg.clusters,
        cfg.tasks_per_cluster,
        cfg.workers_per_cluster,
        cfg.flops,
        cfg.skew,
        cfg.spacing_ns,
        cfg.seed,
    );
    let models: Vec<ClusterSimModel> = traces
        .into_iter()
        .enumerate()
        .map(|(c, trace)| ClusterSimModel::new(c, cfg, trace))
        .collect();
    let lookahead = cfg.lookahead();
    let mut engine = ShardedEngine::new(models, lookahead)
        .with_occupancy(&OCCUPANCY_WIDTHS)
        .with_shards(shards);
    if let Some((width, retain)) = cfg.telemetry {
        engine = engine.with_series(width, retain);
    }
    if observe {
        engine = engine.with_self_profiling();
    }
    for c in 0..cfg.clusters {
        let arrivals: Vec<Time> = engine.model(c).trace.iter().map(|s| s.arrival).collect();
        for (i, at) in arrivals.into_iter().enumerate() {
            engine.schedule(c, at, ClusterEv::Arrive(i as u32));
        }
    }
    let stop = engine.run_until(Time::MAX, u64::MAX);
    engine.check_invariants(cp);

    let mut metrics = MetricsRegistry::new();
    let mut trace = TraceBuffer::default();
    let mut completed = 0;
    for c in 0..cfg.clusters {
        let model = engine.model_mut(c);
        model.export_metrics(&mut metrics);
        completed += model.completed;
        model.mem.check_invariants(cp);
        trace.merge(std::mem::take(&mut model.spans));
    }
    let occupancy = engine
        .occupancy()
        .cloned()
        .expect("occupancy is always armed");
    occupancy.export_metrics(&mut metrics, "shard.occupancy");
    let series = engine.series().cloned();
    let outcome = ShardOutcome {
        metrics,
        trace,
        stop,
        makespan: engine.clock(),
        completed,
        events: engine.events_processed(),
        rounds: engine.rounds(),
        messages: engine.messages_sent(),
        lookahead,
        occupancy,
        series,
    };
    (outcome, engine.wall_profile().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ShardSimConfig {
        let mut cfg = ShardSimConfig::new(6, 4);
        cfg.tasks_per_cluster = 64;
        cfg
    }

    fn capture(shards: usize) -> (String, String, String, u64, u64) {
        let mut cp = CheckPlane::enabled(1);
        let out = run_shard_sim_with(&small(), Some(shards), &mut cp);
        assert!(cp.ok(), "shards={shards}: {:?}", cp.first());
        (
            out.metrics.to_json(),
            out.trace.to_chrome_json(),
            out.report(),
            out.events,
            out.rounds,
        )
    }

    #[test]
    fn all_tasks_complete() {
        let mut cp = CheckPlane::enabled(1);
        let out = run_shard_sim_with(&small(), Some(1), &mut cp);
        assert_eq!(out.stop, StopReason::QueueEmpty);
        assert_eq!(out.completed, 6 * 64);
        assert!(out.makespan > Time::ZERO);
        assert!(out.messages > 0, "remote_frac must generate traffic");
        assert_eq!(out.lookahead, Duration::from_ns(90));
        assert!(cp.ok(), "{:?}", cp.first());
    }

    #[test]
    fn exports_are_identical_across_shard_counts() {
        let want = capture(1);
        for shards in [2, 4, 8] {
            assert_eq!(capture(shards), want, "shards={shards}");
        }
    }

    #[test]
    fn report_carries_simulation_results_only() {
        let mut cp = CheckPlane::enabled(1);
        let out = run_shard_sim_with(&small(), Some(2), &mut cp);
        let r = out.report();
        assert!(r.contains("\"experiment\":\"p1\""));
        assert!(r.contains(&format!("\"completed\":{}", out.completed)));
        assert!(!r.contains("shards"));
        assert!(!r.contains("wall"));
    }

    #[test]
    fn lookahead_matches_topology_floor() {
        let cfg = ShardSimConfig::new(8, 4);
        // on-chip up + board up + board down + on-chip down
        assert_eq!(cfg.lookahead(), Duration::from_ns(90));
    }

    #[test]
    fn occupancy_is_exported_in_metrics_and_layout_independent() {
        let mut cp = CheckPlane::enabled(1);
        let base = run_shard_sim_with(&small(), Some(1), &mut cp);
        assert!(cp.ok(), "{:?}", cp.first());
        let occ = &base.occupancy;
        assert_eq!(occ.windows, base.rounds);
        assert_eq!(occ.events, base.events);
        for shards in OCCUPANCY_WIDTHS {
            assert!(occ.speedup(shards) >= 1.0, "band {shards}");
        }
        // Satellite of ISSUE 7: the occupancy numbers live in the
        // standard metrics snapshot, not just a bench-only side channel.
        assert_eq!(
            base.metrics.counter("shard.occupancy.events"),
            Some(occ.events)
        );
        assert_eq!(
            base.metrics.counter("shard.occupancy.s4.crit_events"),
            Some(occ.band(4).expect("band 4").crit_events)
        );
        let mut cp = CheckPlane::enabled(1);
        let wide = run_shard_sim_with(&small(), Some(4), &mut cp);
        assert_eq!(wide.occupancy.to_json(), occ.to_json());
    }

    #[test]
    fn observed_run_matches_unobserved() {
        let cfg = small();
        let mut cp = CheckPlane::enabled(1);
        let base = run_shard_sim_with(&cfg, None, &mut cp);
        let (out, wall) = run_shard_sim_observed(&cfg, &mut cp);
        assert!(cp.ok(), "{:?}", cp.first());
        assert_eq!(base.metrics.to_json(), out.metrics.to_json());
        assert_eq!(base.report(), out.report());
        assert!(wall.is_enabled());
        assert!(
            wall.phase_calls(ecoscale_sim::prof::Phase::Process) >= out.rounds,
            "every window's process phase is timed"
        );
        let (wide, _) = run_shard_sim_observed_with(&cfg, 2, &mut cp);
        assert_eq!(base.metrics.to_json(), wide.metrics.to_json());
        assert_eq!(base.report(), wide.report());
    }
}
