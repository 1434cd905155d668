//! Accelerator experiments: E4 (user-level SMMU invocation), E5
//! (virtualization block), E6 (UNILOGIC access paths), E15 (speedup
//! band sanity).

use std::collections::HashMap;

use ecoscale_core::{AccessPath, SharingMode, UnilogicModel, VirtualizationBlock};
use ecoscale_fpga::Resources;
use ecoscale_hls::ModuleLibrary;
use ecoscale_mem::{InvocationModel, SmmuConfig};
use ecoscale_noc::{NodeId, TreeTopology};
use ecoscale_runtime::CpuModel;
use ecoscale_sim::report::{fnum, fratio, Table};
use ecoscale_sim::Duration;

use crate::ExpRun;

/// E4 — Fig. 4/§4.1: OS-mediated vs user-level (dual-stage SMMU)
/// accelerator invocation, sweeping the argument-buffer size.
pub fn e04_smmu(run: &ExpRun) -> Table {
    let pages: &[u64] = run.scale.pick(&[1, 64][..], &[1, 4, 16, 64, 256, 1024][..]);
    let inv = InvocationModel::default();
    let smmu = SmmuConfig::default();
    let mut t = Table::new(
        "E4 (Fig.4): accelerator invocation overhead, OS-mediated vs user-level SMMU",
        &["buffer pages", "os-mediated", "user-level", "speedup"],
    );
    let rows = run.ctx.map(pages.to_vec(), |p| {
        let os = inv.os_mediated(p);
        let user = inv.user_level(p, &smmu);
        vec![
            p.to_string(),
            format!("{os}"),
            format!("{user}"),
            fratio(os / user),
        ]
    });
    for row in rows {
        t.row_owned(row);
    }
    t
}

/// The invocation-rate view of E4: how many kernel launches per second
/// each path sustains for a given per-launch compute time.
pub fn e04_invocation_rate(run: &ExpRun) -> Table {
    let works: &[u64] = run
        .scale
        .pick(&[1, 100][..], &[1, 10, 100, 1_000, 10_000][..]);
    let inv = InvocationModel::default();
    let smmu = SmmuConfig::default();
    let mut t = Table::new(
        "E4b: sustained launch rate vs kernel granularity (1-page args)",
        &[
            "kernel work (us)",
            "os launches/s",
            "user launches/s",
            "ratio",
        ],
    );
    let rows = run.ctx.map(works.to_vec(), |us| {
        let work = Duration::from_us(us);
        let os = 1.0 / (inv.os_mediated(1) + work).as_secs_f64();
        let user = 1.0 / (inv.user_level(1, &smmu) + work).as_secs_f64();
        vec![us.to_string(), fnum(os), fnum(user), fratio(user / os)]
    });
    for row in rows {
        t.row_owned(row);
    }
    t
}

fn demo_library() -> ModuleLibrary {
    let kernel = ecoscale_hls::parse_kernel(ecoscale_apps::blackscholes::KERNEL)
        .expect("blackscholes kernel parses");
    let hints = ecoscale_apps::blackscholes::kernel_hints(65_536);
    ModuleLibrary::synthesize(&[(kernel, hints)], Resources::new(3900, 64, 200))
        .expect("synthesizable")
}

/// E5 — §4.1: the Virtualization block's fully-pipelined multi-caller
/// sharing vs exclusive time multiplexing.
pub fn e05_virtualization(run: &ExpRun) -> Table {
    let callers: &[u64] = run.scale.pick(&[1, 8][..], &[1, 2, 4, 8, 16, 32, 64][..]);
    let lib = demo_library();
    let module = lib.get("blackscholes").expect("in library").module.clone();
    let vb = VirtualizationBlock::new(module);
    let items = 4_096u64;
    let switch = SharingMode::Exclusive {
        switch: Duration::from_us(5),
    };
    let mut t = Table::new(
        "E5 (Fig.4): shared accelerator, pipelined vs exclusive time-multiplexing",
        &[
            "callers",
            "pipelined total",
            "exclusive total",
            "pipelined Mitems/s",
            "exclusive Mitems/s",
            "advantage",
        ],
    );
    let rows = run.ctx.map(callers.to_vec(), |c| {
        let p = vb.batch_completion(SharingMode::Pipelined, c, items);
        let e = vb.batch_completion(switch, c, items);
        let tp = vb.aggregate_throughput(SharingMode::Pipelined, c, items) / 1e6;
        let te = vb.aggregate_throughput(switch, c, items) / 1e6;
        vec![
            c.to_string(),
            format!("{p}"),
            format!("{e}"),
            fnum(tp),
            fnum(te),
            fratio(e / p),
        ]
    });
    for row in rows {
        t.row_owned(row);
    }
    t
}

/// E6 — §4.1: the four UNILOGIC access paths across data sizes: local
/// cached accelerator, remote uncached accelerator, DMA offload, and
/// software.
pub fn e06_unilogic(run: &ExpRun) -> Table {
    let sizes: &[u64] = run.scale.pick(
        &[1 << 10, 1 << 20][..],
        &[1 << 10, 16 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20][..],
    );
    let lib = demo_library();
    let module = &lib.get("blackscholes").expect("in library").module;
    let model = UnilogicModel::default();
    let topo = TreeTopology::new(&[8, 8]);
    let mut t = Table::new(
        "E6 (Fig.4): UNILOGIC access paths vs data size (blackscholes, remote = 4 hops)",
        &["data", "path", "latency", "energy", "net bytes"],
    );
    // the paper's "small data transfers such as messages to synchronize
    // remote threads": a 64-byte flag update (2 accesses) — the case
    // where plain loads/stores beat a DMA descriptor
    for path in [AccessPath::RemoteUncached, AccessPath::Dma] {
        let c = model.cost(&topo, path, module, NodeId(0), NodeId(63), 2, 2, 1, 64);
        t.row_owned(vec![
            "64B sync".to_owned(),
            path.to_string(),
            format!("{}", c.latency),
            format!("{}", c.energy),
            ecoscale_sim::report::fbytes(c.network_bytes),
        ]);
    }
    let blocks = run.ctx.map(sizes.to_vec(), |bytes| {
        let items = bytes / 16; // two f64 inputs per option
        AccessPath::ALL
            .into_iter()
            .map(|path| {
                let c = model.cost(
                    &topo,
                    path,
                    module,
                    NodeId(0),
                    NodeId(63),
                    items.max(1),
                    25,
                    3,
                    bytes,
                );
                vec![
                    ecoscale_sim::report::fbytes(bytes),
                    path.to_string(),
                    format!("{}", c.latency),
                    format!("{}", c.energy),
                    ecoscale_sim::report::fbytes(c.network_bytes),
                ]
            })
            .collect::<Vec<_>>()
    });
    for row in blocks.into_iter().flatten() {
        t.row_owned(row);
    }
    t
}

/// E15 — §3 sanity band: our modelled accelerator speedups over one CPU
/// core should land in the 10–50× band the paper cites (Catapult 40×,
/// Xeon+FPGA 20×) for transcendental-dense kernels, and lower for
/// lean ones.
pub fn e15_speedup_band(run: &ExpRun) -> Table {
    // (name, source, hints, items, ops/item, specials/item)
    type SpeedupCase = (
        &'static str,
        &'static str,
        HashMap<String, f64>,
        u64,
        u64,
        u64,
    );
    let cases: &[SpeedupCase] = &[
        (
            "blackscholes",
            ecoscale_apps::blackscholes::KERNEL,
            ecoscale_apps::blackscholes::kernel_hints(65_536),
            65_536,
            25,
            4, // specials per item
        ),
        (
            "mc_payoff",
            ecoscale_apps::montecarlo::KERNEL,
            ecoscale_apps::montecarlo::kernel_hints(65_536),
            65_536,
            12,
            2,
        ),
        (
            "jacobi2d",
            ecoscale_apps::stencil::KERNEL,
            ecoscale_apps::stencil::kernel_hints(256),
            256 * 256,
            8,
            0,
        ),
    ];
    let cpu = CpuModel::a53_default();
    let fpga = ecoscale_runtime::FpgaExecModel::default();
    let mut t = Table::new(
        "E15 (§3): modelled accelerator speedup over one A53 core",
        &[
            "kernel",
            "items",
            "cpu time",
            "fpga time",
            "speedup",
            "energy ratio",
        ],
    );
    let rows = run.ctx.map(
        cases.to_vec(),
        |(name, src, hints, items, ops, specials)| {
            let kernel = ecoscale_hls::parse_kernel(src).expect("kernel parses");
            let lib = ModuleLibrary::synthesize(
                &[(kernel, hints.clone())],
                Resources::new(6000, 256, 256),
            )
            .expect("synthesizable");
            let module = &lib.get(name).expect("in library").module;
            // CPU pays ~25 cycles per transcendental
            let cpu_ops = items * (ops + specials * 24);
            let (t_cpu, e_cpu) = cpu.exec(cpu_ops, items * 3);
            let (t_fpga, e_fpga) = fpga.exec(module, items, ops);
            vec![
                name.to_owned(),
                items.to_string(),
                format!("{t_cpu}"),
                format!("{t_fpga}"),
                fratio(t_cpu / t_fpga),
                fratio(e_cpu / e_fpga),
            ]
        },
    );
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
    fn e04_user_level_wins_everywhere() {
        let t = e04_smmu(&ExpRun::new(Scale::Quick, RunCtx::SEQUENTIAL));
        for i in 0..t.len() {
            let r = parse_ratio(&t.cells(i).unwrap()[3]);
            assert!(r > 1.0, "row {i}: {r}");
        }
    }

    #[test]
    fn e04_rate_gap_shrinks_with_granularity() {
        let t = e04_invocation_rate(&ExpRun::new(Scale::Full, RunCtx::SEQUENTIAL));
        let first = parse_ratio(&t.cells(0).unwrap()[3]);
        let last = parse_ratio(&t.cells(t.len() - 1).unwrap()[3]);
        assert!(
            first > last,
            "fine-grain gap {first} should exceed coarse {last}"
        );
        assert!(last >= 1.0);
    }

    #[test]
    fn e05_pipelined_always_wins_multi_caller() {
        let t = e05_virtualization(&ExpRun::new(Scale::Quick, RunCtx::SEQUENTIAL));
        let last = t.cells(t.len() - 1).unwrap();
        assert!(parse_ratio(&last[5]) > 1.0);
    }

    #[test]
    fn e06_orders_paths_correctly_at_large_size() {
        let t = e06_unilogic(&ExpRun::new(Scale::Quick, RunCtx::SEQUENTIAL));
        // for the last size block: local-cached < remote-uncached latency
        let rows: Vec<_> = (0..t.len()).map(|i| t.cells(i).unwrap().to_vec()).collect();
        let large: Vec<_> = rows.iter().rev().take(4).collect();
        let find = |p: &str| {
            large
                .iter()
                .find(|r| r[1] == p)
                .map(|r| r[2].clone())
                .expect("path present")
        };
        // just presence checks here; ordering asserted in unilogic tests
        assert!(!find("local-cached").is_empty());
        assert!(!find("dma").is_empty());
    }

    #[test]
    fn e15_dense_kernels_hit_the_band() {
        let t = e15_speedup_band(&ExpRun::new(Scale::Quick, RunCtx::SEQUENTIAL));
        let bs = parse_ratio(&t.cells(0).unwrap()[4]);
        assert!(bs > 10.0 && bs < 80.0, "blackscholes speedup {bs}");
        // energy advantage everywhere
        for i in 0..t.len() {
            assert!(parse_ratio(&t.cells(i).unwrap()[5]) > 1.0);
        }
    }
}
