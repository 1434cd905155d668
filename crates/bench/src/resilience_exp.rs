//! E16 — FaultPlane resilience experiments.
//!
//! E16 sweeps fault-campaign intensity × recovery policy over the
//! per-worker scheduler ([`ClusterSim`] with worker crashes and stalls)
//! and reports availability and throughput degradation. E16b runs the
//! fabric half: SEU upsets on an assembled
//! [`EcoscaleSystem`](ecoscale_core::EcoscaleSystem) with
//! scrub/repair, software fallback and quarantine.
//!
//! Both scale their intensities from [`ExpRun::campaign`], which
//! `exp_all --faults <spec>` sets, so the same sweep can be replayed
//! under any seeded fault mix.

use std::collections::HashMap;

use ecoscale_core::SystemBuilder;
use ecoscale_hls::KernelArgs;
use ecoscale_noc::NodeId;
use ecoscale_runtime::{skewed_trace, ClusterSim, ResilienceConfig, SchedPolicy};
use ecoscale_sim::report::{fnum, Table};
use ecoscale_sim::{CampaignSpec, CheckPlane, Duration};

use crate::ExpRun;

/// The built-in base campaign: crashes and stalls for the scheduler
/// half, SEUs for the fabric half.
pub fn default_campaign() -> CampaignSpec {
    let mut spec = CampaignSpec::off();
    spec.seed = 0xfa_17;
    spec.worker_crash_mtbf = Duration::from_ms(6);
    spec.worker_stall_mtbf = Duration::from_ms(3);
    spec.worker_stall_for = Duration::from_us(300);
    spec.seu_mtbf = Duration::from_us(400);
    spec.scrub_period = Duration::from_us(800);
    spec
}

fn policies() -> [(&'static str, ResilienceConfig); 3] {
    [
        ("none", ResilienceConfig::none()),
        ("retry", ResilienceConfig::retry_only()),
        ("full", ResilienceConfig::full()),
    ]
}

/// E16 — availability and throughput degradation of the per-worker
/// scheduler under worker crashes/stalls, sweeping fault intensity ×
/// recovery policy.
pub fn e16_resilience(run: &ExpRun) -> Table {
    let tasks = run.scale.pick(300, 1_500);
    let workers = 8;
    let base = &run.campaign;
    let intensities: &[(&str, f64)] = &[("off", 0.0), ("1x", 1.0), ("4x", 4.0)];
    let mut t = Table::new(
        "E16 (FaultPlane): scheduler resilience under worker crashes/stalls",
        &[
            "faults",
            "policy",
            "completed",
            "lost",
            "availability",
            "makespan",
            "retries",
            "quarantines",
        ],
    );
    let combos: Vec<(&str, f64, &str, ResilienceConfig)> = intensities
        .iter()
        .flat_map(|&(label, k)| {
            policies()
                .into_iter()
                .map(move |(p, cfg)| (label, k, p, cfg))
        })
        .collect();
    let rows = run.ctx.map(combos, move |(label, k, policy, cfg)| {
        let trace = skewed_trace(tasks, workers, 120_000, 1.2, 17);
        let mut sim = ClusterSim::new(workers, SchedPolicy::LazyLocal { probes: 2 }, 5)
            .with_checks(CheckPlane::armed(run.ctx.check));
        if k > 0.0 {
            sim = sim.with_faults(&base.scaled(k), cfg);
        }
        let r = sim.run(&trace);
        let (retries, quarantines) = match sim.resilience() {
            Some(m) => (m.retries(), m.quarantines()),
            None => (0, 0),
        };
        vec![
            label.to_owned(),
            policy.to_owned(),
            r.completed.to_string(),
            r.lost.to_string(),
            fnum(r.availability),
            format!("{}", r.makespan),
            retries.to_string(),
            quarantines.to_string(),
        ]
    });
    for row in rows {
        t.row_owned(row);
    }
    t
}

/// E16b — fabric resilience: SEU upsets on an assembled system, with
/// scrub-and-repair, software fallback and quarantine, vs no recovery.
pub fn e16b_fabric(run: &ExpRun) -> Table {
    const KERNEL: &str = "kernel scale(in float a[], out float b[], int n) {
        for (i in 0 .. n) { b[i] = sqrt(a[i] + 1.0) * 2.0; }
    }";
    let calls = run.scale.pick(150, 600);
    let n = 4_096usize;
    let base = &run.campaign;
    let mut t = Table::new(
        "E16b (FaultPlane): SEU upsets on the reconfigurable fabric",
        &[
            "faults",
            "policy",
            "upsets",
            "repairs",
            "fallbacks",
            "quarantines",
            "hw calls",
            "sw calls",
        ],
    );
    let combos: Vec<(&str, f64, &str, ResilienceConfig)> = [("off", 0.0), ("1x", 1.0), ("4x", 4.0)]
        .into_iter()
        .flat_map(|(label, k)| {
            policies()
                .into_iter()
                .map(move |(p, cfg)| (label, k, p, cfg))
        })
        .collect();
    let rows = run.ctx.map(combos, move |(label, k, policy, cfg)| {
        let mut sys = SystemBuilder::new()
            .workers_per_node(4)
            .compute_nodes(2)
            .kernel(KERNEL, HashMap::from([("n".to_owned(), n as f64)]))
            .with_checks(CheckPlane::armed(run.ctx.check))
            .build()
            .expect("kernel synthesizes");
        if k > 0.0 {
            sys.enable_faults(&base.scaled(k), cfg);
        }
        // warm the history, then pin the module so the FPGA path is live
        let args = || {
            let mut a = KernelArgs::new();
            a.bind_array("a", (0..n).map(|i| i as f64).collect())
                .bind_array("b", vec![0.0; n])
                .bind_scalar("n", n as f64);
            a
        };
        for _ in 0..10 {
            sys.call(NodeId(0), "scale", &mut args()).expect("runs");
        }
        sys.load_module(NodeId(0), "scale").expect("places");
        for _ in 0..calls {
            sys.call(NodeId(0), "scale", &mut args()).expect("runs");
            sys.fault_tick();
            // the daemon re-loads a quarantine-evicted module if it is
            // still worth accelerating
            sys.daemon_tick();
        }
        let m = sys.export_metrics();
        let g = |k: &str| m.counter(k).unwrap_or(0).to_string();
        vec![
            label.to_owned(),
            policy.to_owned(),
            g("seu.upsets"),
            g("resilience.repairs"),
            g("resilience.fallbacks"),
            g("resilience.quarantines"),
            g("system.calls_fpga_local"),
            g("system.calls_cpu"),
        ]
    });
    for row in rows {
        t.row_owned(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    fn quick() -> ExpRun {
        ExpRun::new(Scale::Quick, crate::test_ctx())
    }

    fn rows(t: &Table) -> Vec<Vec<String>> {
        (0..t.len()).map(|i| t.cells(i).unwrap().to_vec()).collect()
    }

    #[test]
    fn e16_zero_campaign_is_lossless_and_policies_differ() {
        let t = e16_resilience(&quick());
        let rows = rows(&t);
        assert_eq!(rows.len(), 9);
        // fault-free rows: everything completes, availability 1, and the
        // policy makes no difference at all
        let off: Vec<_> = rows.iter().filter(|r| r[0] == "off").collect();
        assert_eq!(off.len(), 3);
        for r in &off {
            assert_eq!(r[3], "0", "no tasks lost without faults");
            assert_eq!(r[6], "0", "no retries without faults");
        }
        assert_eq!(off[0][2..], off[1][2..]);
        assert_eq!(off[0][2..], off[2][2..]);
        // under heavy faults, bounded-backoff retry recovers completions
        // the no-recovery policy loses
        let find = |f: &str, p: &str| {
            rows.iter()
                .find(|r| r[0] == f && r[1] == p)
                .expect("row present")
                .clone()
        };
        let none = find("4x", "none");
        let retry = find("4x", "retry");
        let completed = |r: &[String]| r[2].parse::<u64>().unwrap();
        assert!(completed(&retry) >= completed(&none));
        assert!(retry[6].parse::<u64>().unwrap() > 0, "retry policy retries");
    }

    #[test]
    fn e16b_recovery_keeps_hardware_alive() {
        let t = e16b_fabric(&quick());
        let rows = rows(&t);
        assert_eq!(rows.len(), 9);
        let find = |f: &str, p: &str| {
            rows.iter()
                .find(|r| r[0] == f && r[1] == p)
                .expect("row present")
                .clone()
        };
        for r in rows.iter().filter(|r| r[0] == "off") {
            assert_eq!(r[2], "0", "no upsets without faults");
        }
        let full = find("1x", "full");
        assert!(full[2].parse::<u64>().unwrap() > 0, "upsets struck");
        assert!(full[3].parse::<u64>().unwrap() > 0, "repairs happened");
    }

    #[test]
    fn campaign_is_honoured() {
        let mut run = quick();
        let base = e16_resilience(&run).to_string();
        run.campaign.seed = 99;
        run.campaign.worker_crash_mtbf = Duration::from_ms(7);
        assert_ne!(e16_resilience(&run).to_string(), base);
    }
}
