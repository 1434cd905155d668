//! `des_cluster`: one op runs both event cores on seeded inputs — the P1
//! scaling model on the sharded timing-wheel engine at one shard (16
//! clusters × 4096 tasks), then a 16-worker `ClusterSim` on the
//! event-queue core over a 40k-task skewed trace. No HLS, call path or
//! serving code runs.
//!
//! The traced op arms the engine's own [`Profiler`] through
//! `run_shard_sim_observed` (one shard, from `ECOSCALE_SHARDS`) and times
//! `ClusterSim::run`. The profiler's phases are wall-clock times.
//!
//! [`Profiler`]: ecoscale_sim::Profiler

use ecoscale_bench::shard_exp::scaling_config;
use ecoscale_core::{run_shard_sim_observed, run_shard_sim_with, ShardOutcome, ShardSimConfig};
use ecoscale_runtime::{skewed_trace, ClusterSim, SchedPolicy, SchedReport, TaskSpec};
use ecoscale_sim::check::CheckPlane;
use ecoscale_sim::prof::Phase;
use ecoscale_sim::MetricsRegistry;

use crate::{op_seed, timed, Layers, Op, Workload};

const CLUSTERS: usize = 16;
const TASKS_PER_CLUSTER: usize = 4096;
const SCHED_WORKERS: usize = 16;
const SCHED_TASKS: usize = 40_000;
const SCHED_FLOPS: u64 = 2_000;
const SCHED_SKEW: f64 = 1.1;

/// The `des_cluster` workload.
pub struct DesCluster {
    seed: u64,
}

/// One op's generated inputs.
struct Inputs {
    shard: ShardSimConfig,
    trace: Vec<TaskSpec>,
    seed: u64,
}

impl DesCluster {
    /// Builds the op inputs for benchmark seed `seed`.
    pub fn new(seed: u64) -> DesCluster {
        DesCluster { seed }
    }

    fn inputs(&self, i: u64) -> Inputs {
        let seed = op_seed(self.seed, i);
        let mut shard = scaling_config(CLUSTERS, TASKS_PER_CLUSTER);
        shard.seed = seed;
        Inputs {
            shard,
            trace: skewed_trace(SCHED_TASKS, SCHED_WORKERS, SCHED_FLOPS, SCHED_SKEW, seed),
            seed,
        }
    }
}

fn cluster_sim(seed: u64) -> ClusterSim {
    ClusterSim::new(SCHED_WORKERS, SchedPolicy::LazyLocal { probes: 2 }, seed)
}

/// Output check and deterministic export of one op.
fn finish(shard: &ShardOutcome, sim: &ClusterSim, report: &SchedReport, host_s: f64) -> Op {
    let want = (CLUSTERS * TASKS_PER_CLUSTER) as u64;
    let failure = if shard.completed != want {
        Some(format!(
            "sharded engine completed {} of {want} tasks",
            shard.completed
        ))
    } else if report.completed != SCHED_TASKS as u64 || report.lost != 0 {
        Some(format!(
            "cluster scheduler completed {} of {SCHED_TASKS} tasks, lost {}",
            report.completed, report.lost
        ))
    } else {
        None
    };
    let mut m = MetricsRegistry::new();
    sim.export_metrics(&mut m, "sched");
    Op {
        host_s,
        work: shard.completed + report.completed,
        export: format!(
            "{}\n{}\n{report:?}\n{}",
            shard.report(),
            shard.metrics.to_json(),
            m.to_json()
        ),
        failure,
    }
}

impl Workload for DesCluster {
    fn op(&mut self, i: u64) -> Op {
        let inp = self.inputs(i);
        let mut sim = None;
        let ((shard, report), host_s) = timed(|| {
            let shard = run_shard_sim_with(&inp.shard, Some(1), &mut CheckPlane::disabled());
            let report = sim.insert(cluster_sim(inp.seed)).run(&inp.trace);
            (shard, report)
        });
        finish(&shard, sim.as_ref().expect("ran"), &report, host_s)
    }

    fn traced_op(&mut self, i: u64, layers: &mut Layers) -> Op {
        let inp = self.inputs(i);
        let ((shard, prof), shard_s) =
            timed(|| run_shard_sim_observed(&inp.shard, &mut CheckPlane::disabled()));
        let mut sim = None;
        let (report, sched_s) = timed(|| sim.insert(cluster_sim(inp.seed)).run(&inp.trace));
        let sim = sim.expect("ran");

        for p in Phase::ALL {
            layers.add(
                &format!("sim.shard.{}_s", p.name()),
                prof.ns(p) as f64 * 1e-9,
            );
        }
        layers.add("sim.events", shard.events as f64);
        layers.add("sim.rounds", shard.rounds as f64);
        layers.add("runtime.sched_run_s", sched_s);
        layers.add("runtime.sched_tasks", report.completed as f64);
        finish(&shard, &sim, &report, shard_s + sched_s)
    }
}
