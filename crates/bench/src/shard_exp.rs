//! P1 — the sharded conservative-parallel engine: determinism at every
//! shard count, and the scaling shape of the cluster-partitioned model.
//!
//! The *simulation results* in this table are produced by the exact same
//! event stream at any `ECOSCALE_SHARDS` setting — the experiment runs
//! each point at 1 shard and again at 4 and asserts the merged exports
//! match byte for byte. Wall-clock speedups are measured separately by
//! `bench_parallel_des` (they depend on the host and do not belong in a
//! deterministic table).

use ecoscale_core::{run_shard_sim_with, ShardSimConfig};
use ecoscale_sim::check::CheckPlane;
use ecoscale_sim::report::{fnum, Table};

use crate::ExpRun;

/// The scaling sweep `bench_parallel_des` times: many small clusters with
/// task service ≈ workers × arrival spacing, so the per-cluster queues
/// stay near saturation and every safe window carries events for every
/// shard (short tasks against a long backlog would leave most 90 ns
/// windows nearly empty).
pub fn scaling_config(clusters: usize, tasks_per_cluster: usize) -> ShardSimConfig {
    let mut cfg = ShardSimConfig::new(clusters, 4);
    cfg.tasks_per_cluster = tasks_per_cluster;
    cfg.spacing_ns = 40;
    cfg.flops = 150;
    cfg.remote_frac = 0.10;
    cfg.seed = 0x9A7_0001;
    cfg
}

/// P1 — cluster-partitioned DES over NoC-lookahead safe windows.
pub fn p1_parallel_des(run: &ExpRun) -> Table {
    let cluster_counts: &[usize] = run.scale.pick(&[4, 8][..], &[4, 8, 16, 32][..]);
    let tasks = run.scale.pick(64, 256);
    let mut t = Table::new(
        "P1: sharded conservative-parallel DES (cluster queues, NoC lookahead)",
        &[
            "clusters",
            "tasks",
            "events",
            "rounds",
            "events/round",
            "messages",
            "makespan",
            "identical@4",
        ],
    );
    for &clusters in cluster_counts {
        let cfg = scaling_config(clusters, tasks);
        let mut cp = CheckPlane::enabled(1);
        let base = run_shard_sim_with(&cfg, Some(1), &mut cp);
        assert!(cp.ok(), "invariants: {:?}", cp.first());
        let par = run_shard_sim_with(&cfg, Some(4), &mut cp);
        assert!(cp.ok(), "invariants: {:?}", cp.first());
        let identical = base.metrics.to_json() == par.metrics.to_json()
            && base.trace.to_chrome_json() == par.trace.to_chrome_json()
            && base.report() == par.report();
        assert!(identical, "{clusters} clusters: shards=4 diverged");
        t.row_owned(vec![
            clusters.to_string(),
            (clusters * tasks).to_string(),
            base.events.to_string(),
            base.rounds.to_string(),
            fnum(base.events as f64 / base.rounds.max(1) as f64),
            base.messages.to_string(),
            format!("{}", base.makespan),
            "yes".to_owned(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;
    use ecoscale_sim::RunCtx;

    #[test]
    fn p1_runs_quick_and_is_deterministic() {
        let a = p1_parallel_des(&ExpRun::new(Scale::Quick, RunCtx::SEQUENTIAL)).to_string();
        let b = p1_parallel_des(&ExpRun::new(Scale::Quick, RunCtx::SEQUENTIAL)).to_string();
        assert_eq!(a, b);
        assert!(a.contains("P1:"));
        assert!(a.contains("yes"));
    }
}
