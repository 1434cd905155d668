//! Architecture experiments: E1 (hierarchical partitioning), E2 (task vs
//! data movement), E3 (global coherence vs UNIMEM).

use ecoscale_mem::GlobalCoherence;
use ecoscale_noc::{
    CostModel, CrossbarTopology, LinkParams, Network, NetworkConfig, NodeId, Topology,
    TrafficStats, TreeTopology,
};
use ecoscale_runtime::CpuModel;
use ecoscale_sim::report::{fnum, fratio, Table};
use ecoscale_sim::{SimRng, Time};

use crate::ExpRun;

/// Tree shape for `w` workers: 8 per node, then 8 per level.
fn tree_for(w: usize) -> TreeTopology {
    let mut fanouts = Vec::new();
    let mut rest = w;
    while rest > 1 {
        let f = rest.min(8);
        fanouts.push(f);
        rest /= f;
    }
    TreeTopology::new(&fanouts)
}

/// E1 — Fig. 1: hierarchical vs flat partitioning of a halo-exchange
/// application.
///
/// Every worker exchanges one 4 KiB halo with each 1-D ring neighbour,
/// plus 5 % of messages go to uniform-random workers (the irregular
/// tail). Hierarchical placement keeps neighbours in the same subtree;
/// the flat baseline treats the machine as one crossbar whose every link
/// is a long-reach cable.
pub fn e01_hierarchy(run: &ExpRun) -> Table {
    let sizes: &[usize] = run.scale.pick(&[64, 512][..], &[64, 512, 4096, 32768][..]);
    let mut t = Table::new(
        "E1 (Fig.1): hierarchical tree vs flat interconnect, halo exchange",
        &[
            "workers",
            "topology",
            "diameter",
            "mean hops",
            "mean lat",
            "energy/sweep",
            "lat ratio",
        ],
    );
    let rows = run.ctx.map(sizes.to_vec(), |w| {
        let halo = 4096u64;
        let mut rng = SimRng::seed_from(7);
        let pairs: Vec<(usize, usize)> = (0..w)
            .flat_map(|i| {
                let mut v = vec![(i, (i + 1) % w), (i, (i + w - 1) % w)];
                if rng.gen_bool(0.05) {
                    v.push((i, rng.gen_range_usize(0, w)));
                }
                v
            })
            .collect();

        let tree = tree_for(w);
        let tree_cost = CostModel::ecoscale_defaults();
        let mut tree_stats = TrafficStats::new();
        let mut tree_lat = 0.0;
        for &(s, d) in &pairs {
            let r = tree.route(NodeId(s), NodeId(d));
            tree_lat += tree_cost.latency(&r, halo).as_ns_f64();
            tree_stats.record(&r, halo, tree_cost.energy(&r, halo));
        }

        let flat = CrossbarTopology::new(w);
        // a flat machine's crossbar links are all long-reach
        let flat_cost = CostModel::uniform(LinkParams::between_chassis());
        let mut flat_stats = TrafficStats::new();
        let mut flat_lat = 0.0;
        for &(s, d) in &pairs {
            let r = flat.route(NodeId(s), NodeId(d));
            flat_lat += flat_cost.latency(&r, halo).as_ns_f64();
            flat_stats.record(&r, halo, flat_cost.energy(&r, halo));
        }

        let n = pairs.len() as f64;
        let ratio = flat_lat / tree_lat;
        (
            vec![
                w.to_string(),
                "tree".into(),
                tree.diameter().to_string(),
                fnum(tree_stats.mean_hops()),
                format!("{}ns", fnum(tree_lat / n)),
                format!("{}", tree_stats.energy()),
                String::new(),
            ],
            vec![
                w.to_string(),
                "flat".into(),
                flat.diameter().to_string(),
                fnum(flat_stats.mean_hops()),
                format!("{}ns", fnum(flat_lat / n)),
                format!("{}", flat_stats.energy()),
                fratio(ratio),
            ],
        )
    });
    for (tree_row, flat_row) in rows {
        t.row_owned(tree_row);
        t.row_owned(flat_row);
    }
    t
}

/// E2 — §4.1: "move tasks and processes close to data instead of moving
/// data around … reduces significantly the data traffic and the
/// associated energy consumption and communication latency."
///
/// A task on worker 15 must process a working set living on worker 0
/// (4 levels away). Data-pull ships the set; task-migration ships a
/// 256-byte task descriptor, computes at the data, and returns a
/// 64-byte result.
pub fn e02_task_vs_data(run: &ExpRun) -> Table {
    let sizes: &[u64] = run.scale.pick(
        &[4 << 10, 1 << 20][..],
        &[4 << 10, 64 << 10, 1 << 20, 16 << 20, 64 << 20][..],
    );
    let mut t = Table::new(
        "E2: task-to-data (UNIMEM) vs data-to-task",
        &[
            "working set",
            "strategy",
            "net bytes",
            "latency",
            "energy",
            "win",
        ],
    );
    let cpu = CpuModel::a53_default();
    let rows = run.ctx.map(sizes.to_vec(), |ws| {
        let flops = ws / 4; // one op per word
        let (compute, _) = cpu.exec(flops, ws / 8);
        // data pull
        let mut net = Network::new(tree_for(64), NetworkConfig::default());
        let d = net.transfer(Time::ZERO, NodeId(0), NodeId(63), ws);
        let pull_lat = d.arrival.saturating_since(Time::ZERO) + compute;
        let pull_energy = d.energy;
        // task migration
        let mut net2 = Network::new(tree_for(64), NetworkConfig::default());
        let go = net2.transfer(Time::ZERO, NodeId(63), NodeId(0), 256);
        let back = net2.transfer(go.arrival + compute, NodeId(0), NodeId(63), 64);
        let mig_lat = back.arrival.saturating_since(Time::ZERO);
        let mig_energy = go.energy + back.energy;
        (
            vec![
                ecoscale_sim::report::fbytes(ws),
                "data-pull".into(),
                ecoscale_sim::report::fbytes(ws),
                format!("{pull_lat}"),
                format!("{pull_energy}"),
                String::new(),
            ],
            vec![
                ecoscale_sim::report::fbytes(ws),
                "task-migrate".into(),
                "320B".into(),
                format!("{mig_lat}"),
                format!("{mig_energy}"),
                fratio(pull_lat / mig_lat),
            ],
        )
    });
    for (pull_row, mig_row) in rows {
        t.row_owned(pull_row);
        t.row_owned(mig_row);
    }
    t
}

/// E3 — §4.1: "a global cache coherent mechanism … simply cannot scale."
///
/// N workers cache a hot page set; every epoch each reader touches the
/// page, then one worker writes it. Under a full-map directory the write
/// triggers an invalidation storm proportional to the sharer count; under
/// UNIMEM a write is at most one uncached request/response pair,
/// independent of N. (UNIMEM pays per-read instead — which is exactly why
/// the runtime migrates the cache home to the hottest reader; both sides
/// of the trade are shown.)
pub fn e03_coherence(run: &ExpRun) -> Table {
    let sizes: &[usize] = run.scale.pick(&[4, 32][..], &[4, 16, 64, 256, 1024][..]);
    let epochs = 100u64;
    let mut t = Table::new(
        "E3: directory coherence vs UNIMEM, shared page, 1 write + N-1 reads per epoch",
        &[
            "workers",
            "coh msgs/write",
            "unimem msgs/write",
            "write storm",
            "coh total",
            "unimem total",
        ],
    );
    let rows = run.ctx.map(sizes.to_vec(), |n| {
        let mut coh = GlobalCoherence::new(n);
        let mut write_msgs = 0u64;
        for _ in 0..epochs {
            for r in 1..n {
                coh.read(NodeId(r), 0x40);
            }
            let before = coh.stats().total_messages();
            coh.write(NodeId(0), 0x40);
            write_msgs += coh.stats().total_messages() - before;
        }
        let coh_total = coh.stats().total_messages();
        let coh_per_write = write_msgs as f64 / epochs as f64;
        // UNIMEM: page cacheable only at worker 0 (the writer): writes are
        // local cache hits (0 messages: report the worst case of a remote
        // writer, 2); reads are uncached request/response pairs.
        let unimem_per_write = 2.0;
        let unimem_total = epochs * (n as u64 - 1) * 2 + epochs * 2;
        vec![
            n.to_string(),
            fnum(coh_per_write),
            fnum(unimem_per_write),
            fratio(coh_per_write / unimem_per_write),
            coh_total.to_string(),
            unimem_total.to_string(),
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
    use ecoscale_sim::RunCtx;

    #[test]
    fn e01_flat_loses_at_scale() {
        let t = e01_hierarchy(&ExpRun::new(Scale::Quick, RunCtx::SEQUENTIAL));
        assert!(t.len() >= 4);
        // last flat row carries a ratio > 1
        let last = t.cells(t.len() - 1).unwrap();
        let ratio: f64 = last[6].trim_end_matches('x').parse().unwrap();
        assert!(ratio > 1.0, "flat should be slower, got {ratio}x");
    }

    #[test]
    fn e02_task_migration_wins_large_sets() {
        let t = e02_task_vs_data(&ExpRun::new(Scale::Quick, RunCtx::SEQUENTIAL));
        let last = t.cells(t.len() - 1).unwrap();
        let win: f64 = last[5].trim_end_matches('x').parse().unwrap();
        assert!(win > 2.0, "migration should win big sets, got {win}x");
    }

    #[test]
    fn e03_coherence_storm_grows() {
        let t = e03_coherence(&ExpRun::new(Scale::Quick, RunCtx::SEQUENTIAL));
        let first: f64 = t.cells(0).unwrap()[3]
            .trim_end_matches('x')
            .parse()
            .unwrap();
        let last: f64 = t.cells(t.len() - 1).unwrap()[3]
            .trim_end_matches('x')
            .parse()
            .unwrap();
        assert!(last > first, "ratio should grow with workers");
    }

    #[test]
    fn tree_for_builds_valid_trees() {
        for w in [8, 64, 512, 4096] {
            let t = tree_for(w);
            assert_eq!(t.num_nodes(), w);
        }
    }
}
