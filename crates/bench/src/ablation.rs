//! Ablations of the design decisions flagged ⚗ in `DESIGN.md` §6:
//! forwarding discipline (A1), SMMU TLB sizing (A2), and the
//! reconfiguration daemon's benefit margin (A3).

use ecoscale_fpga::{Fabric, Floorplanner, Resources};
use ecoscale_hls::ModuleLibrary;
use ecoscale_mem::{PagePerms, Smmu, SmmuConfig, VirtAddr};
use ecoscale_noc::{CostModel, Network, NetworkConfig, NodeId, TreeTopology};
use ecoscale_runtime::{DaemonConfig, DeviceClass, ExecutionHistory, ReconfigDaemon};
use ecoscale_sim::report::{fnum, fratio, Table};
use ecoscale_sim::{Duration, Energy, SimRng, Time};

use crate::ExpRun;

/// A4 — uplink multiplicity: an all-to-all burst through a plain tree
/// trunk vs a fat tree with 2/4/8 parallel trunk links.
pub fn a4_fat_tree(run: &ExpRun) -> Table {
    use ecoscale_noc::{FatTreeTopology, Topology};
    let msgs = run.scale.pick(64, 512);
    let bytes = 16_384u64;
    let mut t = Table::new(
        "A4 (ablation): trunk uplink multiplicity under an all-to-all burst",
        &["uplinks", "last arrival", "mean queueing", "speedup vs 1"],
    );
    let sweeps = run.ctx.map(vec![1u64, 2, 4, 8], |uplinks| {
        let topo = FatTreeTopology::new(&[8, 8], uplinks);
        let n = topo.num_nodes();
        let mut net = Network::new(topo, NetworkConfig::default());
        let mut rng = SimRng::seed_from(3);
        let mut last = Time::ZERO;
        let mut queueing = Duration::ZERO;
        for _ in 0..msgs {
            let s = rng.gen_range_usize(0, n);
            let mut d = rng.gen_range_usize(0, n);
            if d == s {
                d = (d + 1) % n;
            }
            let del = net.transfer(Time::ZERO, NodeId(s), NodeId(d), bytes);
            last = last.max(del.arrival);
            queueing += del.queueing;
        }
        (uplinks, last.saturating_since(Time::ZERO), queueing)
    });
    let base = sweeps.first().expect("uplink sweep non-empty").1;
    for (uplinks, span, queueing) in sweeps {
        t.row_owned(vec![
            uplinks.to_string(),
            format!("{span}"),
            format!("{}", queueing / msgs as u64),
            fratio(base / span),
        ]);
    }
    t
}

/// A1 — forwarding discipline: virtual cut-through vs store-and-forward
/// across message sizes and hop counts.
pub fn a1_cut_through(run: &ExpRun) -> Table {
    let sizes: &[u64] = run
        .scale
        .pick(&[64, 65_536][..], &[64, 4_096, 65_536, 1 << 20][..]);
    let mut t = Table::new(
        "A1 (ablation): virtual cut-through vs store-and-forward",
        &[
            "bytes",
            "hops",
            "store-and-forward",
            "cut-through",
            "speedup",
        ],
    );
    let combos: Vec<(u64, usize, u32)> = sizes
        .iter()
        .flat_map(|&bytes| [(bytes, 1usize, 2u32), (bytes, 63, 6)])
        .collect();
    let rows = run.ctx.map(combos, |(bytes, dst, hops)| {
        let mk = |cut_through| {
            Network::new(
                TreeTopology::new(&[4, 4, 4]),
                NetworkConfig {
                    cost: CostModel::ecoscale_defaults(),
                    cut_through,
                },
            )
        };
        let sf = mk(false).transfer(Time::ZERO, NodeId(0), NodeId(dst), bytes);
        let ct = mk(true).transfer(Time::ZERO, NodeId(0), NodeId(dst), bytes);
        let sf_l = sf.arrival.saturating_since(Time::ZERO);
        let ct_l = ct.arrival.saturating_since(Time::ZERO);
        vec![
            bytes.to_string(),
            hops.to_string(),
            format!("{sf_l}"),
            format!("{ct_l}"),
            fratio(sf_l / ct_l),
        ]
    });
    for row in rows {
        t.row_owned(row);
    }
    t
}

/// A2 — SMMU TLB capacity: hit rate and mean translation latency on an
/// accelerator streaming over a working set with 80/20 locality.
pub fn a2_tlb_size(run: &ExpRun) -> Table {
    let capacities: &[usize] = run.scale.pick(&[8, 64][..], &[8, 16, 32, 64, 128, 256][..]);
    let accesses = run.scale.pick(5_000, 50_000);
    let working_set_pages = 128u64;
    let mut t = Table::new(
        "A2 (ablation): SMMU TLB capacity vs hit rate (128-page set, 80/20 locality)",
        &["tlb entries", "hit rate", "mean translation", "walks"],
    );
    let rows = run.ctx.map(capacities.to_vec(), |cap| {
        let cfg = SmmuConfig {
            tlb_entries: cap,
            ..SmmuConfig::default()
        };
        let mut smmu = Smmu::new(cfg);
        for p in 0..working_set_pages {
            smmu.map(
                VirtAddr::from_page(p, 0),
                0x1000 + p,
                0x8000 + p,
                PagePerms::RW,
            )
            .expect("fresh mapping");
        }
        let mut rng = SimRng::seed_from(5);
        let mut total = Duration::ZERO;
        for _ in 0..accesses {
            // 80% of accesses hit the hottest 20% of pages
            let page = if rng.gen_bool(0.8) {
                rng.gen_range_u64(0, working_set_pages / 5)
            } else {
                rng.gen_range_u64(0, working_set_pages)
            };
            let (_, lat) = smmu
                .translate(VirtAddr::from_page(page, 8), PagePerms::READ)
                .expect("mapped");
            total += lat;
        }
        let hits = smmu.tlb_hits() as f64;
        let misses = smmu.tlb_misses() as f64;
        vec![
            cap.to_string(),
            fnum(hits / (hits + misses)),
            format!("{}", total / accesses as u64),
            fnum(misses),
        ]
    });
    for row in rows {
        t.row_owned(row);
    }
    t
}

/// A3 — daemon benefit margin: a low margin reconfigures eagerly (and
/// thrashes on bursty call patterns); a high margin leaves speedups on
/// the table. Sweeps the margin over a two-phase trace that alternates
/// between two functions that do not fit the fabric together.
pub fn a3_benefit_margin(run: &ExpRun) -> Table {
    let phases = run.scale.pick(6, 12);
    let calls_per_phase = run.scale.pick(4, 6);
    let mut t = Table::new(
        "A3 (ablation): daemon benefit margin on an alternating two-kernel trace",
        &[
            "margin",
            "reconfigs",
            "reconfig time",
            "estimated total time",
        ],
    );
    // two kernels, each ~full fabric: loading one evicts the other
    let k1 = ecoscale_hls::parse_kernel(ecoscale_apps::blackscholes::KERNEL).expect("parses");
    let k2 = ecoscale_hls::parse_kernel(ecoscale_apps::montecarlo::KERNEL).expect("parses");
    let lib = ModuleLibrary::synthesize(
        &[
            (k1, ecoscale_apps::blackscholes::kernel_hints(65_536)),
            (k2, ecoscale_apps::montecarlo::kernel_hints(65_536)),
        ],
        Resources::new(3900, 64, 200),
    )
    .expect("synthesizable");
    let names = ["blackscholes", "mc_payoff"];
    // small per-call gaps and short phases so the reconfiguration cost
    // (~0.75 ms) is commensurate with the phase benefit and the margin
    // actually gates the decision
    let sw_time = [Duration::from_us(480), Duration::from_us(420)];
    let hw_time = Duration::from_us(280);

    let rows = run.ctx.map(vec![0.2f64, 1.5, 8.0, 1000.0], |margin| {
        let mut daemon = ReconfigDaemon::new(
            DaemonConfig {
                period: Duration::from_us(1),
                benefit_margin: margin,
                ..DaemonConfig::default()
            },
            // fabric fits exactly one of the two modules
            Floorplanner::new(Fabric::zynq_like(72, 80)),
        );
        let mut history = ExecutionHistory::new(256);
        let mut now = Time::ZERO;
        let mut total = Duration::ZERO;
        for phase in 0..phases {
            let f = phase % 2;
            for _ in 0..calls_per_phase {
                let id = lib.get(names[f]).expect("in library").module.id();
                let on_hw = daemon.is_loaded(id);
                let dt = if on_hw { hw_time } else { sw_time[f] };
                history.record(
                    names[f],
                    if on_hw {
                        DeviceClass::FpgaLocal
                    } else {
                        DeviceClass::Cpu
                    },
                    &[65_536.0],
                    dt,
                    Energy::ZERO,
                );
                now += dt;
                total += dt;
                // the daemon itself evicts lower-benefit residents when
                // the fabric cannot host both modules
                daemon.evaluate(now, &history, &lib);
            }
        }
        let stats = daemon.stats();
        vec![
            fnum(margin),
            stats.loads.to_string(),
            format!("{}", stats.busy),
            format!("{}", total + stats.busy),
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

    fn parse_ratio(cell: &str) -> f64 {
        cell.trim_end_matches('x').parse().unwrap()
    }

    #[test]
    fn a4_more_uplinks_cut_queueing() {
        let t = a4_fat_tree(&ExpRun::new(Scale::Quick, RunCtx::SEQUENTIAL));
        let first = parse_ratio(&t.cells(0).unwrap()[3]);
        let last = parse_ratio(&t.cells(t.len() - 1).unwrap()[3]);
        assert!((first - 1.0).abs() < 1e-9);
        assert!(last > 1.3, "8 uplinks should beat 1: {last}");
    }

    #[test]
    fn a1_cut_through_wins_more_on_long_paths() {
        let t = a1_cut_through(&ExpRun::new(Scale::Quick, RunCtx::SEQUENTIAL));
        // big message, 6 hops is the last row: biggest win
        let last = parse_ratio(&t.cells(t.len() - 1).unwrap()[4]);
        let first = parse_ratio(&t.cells(0).unwrap()[4]);
        assert!(last > first);
        assert!(last > 1.5);
    }

    #[test]
    fn a2_bigger_tlb_helps_until_working_set_fits() {
        let t = a2_tlb_size(&ExpRun::new(Scale::Full, RunCtx::SEQUENTIAL));
        let rates: Vec<f64> = (0..t.len())
            .map(|i| t.cells(i).unwrap()[1].parse().unwrap())
            .collect();
        assert!(rates.windows(2).all(|w| w[1] >= w[0] - 1e-9));
        // 256 entries hold the whole 128-page set: near-perfect
        assert!(rates.last().unwrap() > &0.99);
        // 8 entries thrash
        assert!(rates[0] < 0.8);
    }

    #[test]
    fn a3_margin_gates_reconfiguration_rate() {
        let t = a3_benefit_margin(&ExpRun::new(Scale::Quick, RunCtx::SEQUENTIAL));
        let parse_reconfigs = |i: usize| -> u64 { t.cells(i).unwrap()[1].parse().unwrap() };
        let eager = parse_reconfigs(0); // margin 0.2
        let mid = parse_reconfigs(2); // margin 8
        let huge = parse_reconfigs(3); // margin 1000
        assert!(
            eager >= parse_reconfigs(1),
            "lower margin loads at least as often"
        );
        assert!(
            eager > mid,
            "eager ({eager}) must thrash more than mid ({mid})"
        );
        assert_eq!(huge, 0, "a huge margin never reconfigures");
    }
}
