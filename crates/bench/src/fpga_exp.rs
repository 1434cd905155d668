//! Reconfiguration experiments: E9 (bitstream compression), E10
//! (defragmentation), E11 (accelerator chaining), E12 (HLS DSE).

use ecoscale_core::Chain;
use ecoscale_fpga::{CompressionAlgo, Fabric, Floorplanner, ModuleId, ReconfigPort, Resources};
use ecoscale_hls::{Explorer, ModuleLibrary};
use ecoscale_sim::report::{fnum, fratio, Table};
use ecoscale_sim::SimRng;

use crate::ExpRun;

fn workload_library() -> ModuleLibrary {
    let kernels = vec![
        (
            ecoscale_hls::parse_kernel(ecoscale_apps::blackscholes::KERNEL).expect("parses"),
            ecoscale_apps::blackscholes::kernel_hints(65_536),
        ),
        (
            ecoscale_hls::parse_kernel(ecoscale_apps::gemm::KERNEL).expect("parses"),
            ecoscale_apps::gemm::kernel_hints(256),
        ),
        (
            ecoscale_hls::parse_kernel(ecoscale_apps::stencil::KERNEL).expect("parses"),
            ecoscale_apps::stencil::kernel_hints(256),
        ),
        (
            ecoscale_hls::parse_kernel(ecoscale_apps::montecarlo::KERNEL).expect("parses"),
            ecoscale_apps::montecarlo::kernel_hints(65_536),
        ),
        (
            ecoscale_hls::parse_kernel(ecoscale_apps::nbody::KERNEL).expect("parses"),
            ecoscale_apps::nbody::kernel_hints(2_048),
        ),
    ];
    ModuleLibrary::synthesize(&kernels, Resources::new(3900, 64, 200)).expect("synthesizable")
}

/// E9 — §4.3 \[11\]: configuration-data compression across the module
/// library: ratio, reconfiguration latency, energy.
pub fn e09_compression(run: &ExpRun) -> Table {
    let lib = workload_library();
    let port = ReconfigPort::default();
    let mut t = Table::new(
        "E9 (§4.3,[11]): bitstream compression vs reconfiguration cost (module library)",
        &[
            "algorithm",
            "stored KiB",
            "ratio",
            "total reconfig time",
            "total energy",
            "time vs none",
        ],
    );
    let sweeps = run.ctx.map(CompressionAlgo::ALL.to_vec(), |algo| {
        let mut stored = 0usize;
        let mut original = 0usize;
        let mut time = ecoscale_sim::Duration::ZERO;
        let mut energy = ecoscale_sim::Energy::ZERO;
        for e in lib.iter() {
            let s = algo.stats(e.module.bitstream());
            stored += s.compressed;
            original += s.original;
            let (lat, en) = port.load_cost(e.module.bitstream(), algo);
            time += lat;
            energy += en;
        }
        (algo, stored, original, time, energy)
    });
    let base = sweeps
        .iter()
        .find(|&&(algo, ..)| algo == CompressionAlgo::None)
        .map(|&(_, _, _, time, _)| time)
        .expect("uncompressed baseline present");
    for (algo, stored, original, time, energy) in sweeps {
        t.row_owned(vec![
            algo.name().to_owned(),
            fnum(stored as f64 / 1024.0),
            fratio(original as f64 / stored as f64),
            format!("{time}"),
            format!("{energy}"),
            fratio(base / time),
        ]);
    }
    t
}

/// E10 — §4.3: module churn with and without defragmentation + migration.
///
/// Poisson-ish load/unload churn of random-width modules; without the
/// middleware's defragmentation, allocation failures mount as the free
/// space shatters.
pub fn e10_defrag(run: &ExpRun) -> Table {
    let events = run.scale.pick(400, 4000);
    let mut t = Table::new(
        "E10 (§4.3): fragmentation under churn, with/without defragmentation",
        &[
            "policy",
            "placements",
            "failures",
            "failure rate",
            "migrations",
            "final fragmentation",
        ],
    );
    let rows = run.ctx.map(vec![false, true], |defrag| {
        let mut fp = Floorplanner::new(Fabric::zynq_like(60, 60));
        let mut rng = SimRng::seed_from(11);
        let mut live: Vec<ecoscale_fpga::SlotId> = Vec::new();
        let mut placements = 0u64;
        let mut failures = 0u64;
        let mut migrations = 0u64;
        for i in 0..events {
            let load = live.is_empty() || rng.gen_bool(0.52);
            if load {
                let clb = rng.gen_range_u64(150, 800) as u32;
                let need = Resources::new(clb, clb / 50, clb / 40);
                match fp.place(ModuleId(i as u32), need) {
                    Ok(slot) => {
                        placements += 1;
                        live.push(slot);
                    }
                    Err(ecoscale_fpga::PlaceError::Fragmented { .. }) if defrag => {
                        migrations += fp.defragment().len() as u64;
                        match fp.place(ModuleId(i as u32), need) {
                            Ok(slot) => {
                                placements += 1;
                                live.push(slot);
                            }
                            Err(_) => failures += 1,
                        }
                    }
                    Err(_) => failures += 1,
                }
            } else {
                let idx = rng.gen_range_usize(0, live.len());
                let slot = live.swap_remove(idx);
                fp.remove(slot);
            }
        }
        vec![
            if defrag {
                "defrag+migrate"
            } else {
                "first-fit only"
            }
            .to_owned(),
            placements.to_string(),
            failures.to_string(),
            fnum(failures as f64 / (failures + placements).max(1) as f64),
            migrations.to_string(),
            fnum(fp.fragmentation()),
        ]
    });
    for row in rows {
        t.row_owned(row);
    }
    t
}

/// E11 — §4.3: accelerator chaining vs store-and-reload, sweeping chain
/// length.
pub fn e11_chaining(run: &ExpRun) -> Table {
    let lengths: &[u32] = run.scale.pick(&[1, 4][..], &[1, 2, 3, 4, 5, 6][..]);
    let items = 500_000u64;
    let mut t = Table::new(
        "E11 (§4.3): accelerator chaining vs store-and-reload",
        &[
            "chain len",
            "fused DRAM",
            "split DRAM",
            "fused energy",
            "split energy",
            "energy win",
            "ops/DRAM-byte fused",
        ],
    );
    let lib = workload_library();
    let proto = lib.get("blackscholes").expect("in library").module.clone();
    let rows = run.ctx.map(lengths.to_vec(), |len| {
        let stages = (0..len)
            .map(|i| {
                ecoscale_fpga::AcceleratorModule::new(
                    ModuleId(i),
                    "stage",
                    proto.resources(),
                    proto.clock_hz(),
                    proto.initiation_interval(),
                    proto.pipeline_depth(),
                    proto.bitstream().clone(),
                )
            })
            .collect();
        let chain = Chain::new(stages);
        let fused = chain.chained(items, 8, 25);
        let split = chain.store_and_reload(items, 8, 25);
        vec![
            len.to_string(),
            ecoscale_sim::report::fbytes(fused.dram_bytes),
            ecoscale_sim::report::fbytes(split.dram_bytes),
            format!("{}", fused.energy),
            format!("{}", split.energy),
            fratio(split.energy / fused.energy),
            fnum(chain.ops_per_dram_byte(&fused, items, 25)),
        ]
    });
    for row in rows {
        t.row_owned(row);
    }
    t
}

/// E12 — §4.3: automated design-space exploration: the area/latency
/// Pareto front of GEMM, and the auto-picked point vs the naive
/// (no-directive) implementation.
pub fn e12_hls_dse(_run: &ExpRun) -> Table {
    let kernel = ecoscale_hls::parse_kernel(ecoscale_apps::gemm::KERNEL).expect("parses");
    let hints = ecoscale_apps::gemm::kernel_hints(256);
    let budget = Resources::new(8000, 256, 256);
    let explorer = Explorer::new(budget);
    let points = explorer.explore(&kernel, &hints).expect("resolvable");
    let front = Explorer::pareto(points.clone());
    let naive = points
        .iter()
        .find(|p| p.directives.unroll == 1 && !p.directives.pipeline && p.directives.partition == 1)
        .expect("naive point feasible");
    let best = explorer.best(&kernel, &hints).expect("ok").expect("fits");
    let mut t = Table::new(
        "E12 (§4.3): HLS DSE Pareto front, gemm 256x256 (last row: naive baseline)",
        &[
            "directives",
            "area",
            "clock MHz",
            "II",
            "cycles",
            "speedup vs naive",
        ],
    );
    for p in &front {
        t.row_owned(vec![
            p.directives.to_string(),
            p.estimate.resources.total().to_string(),
            fnum(p.estimate.clock_hz as f64 / 1e6),
            p.estimate.ii.to_string(),
            p.estimate.cycles.to_string(),
            fratio(naive.estimate.latency / p.estimate.latency),
        ]);
    }
    t.row_owned(vec![
        format!("naive {}", naive.directives),
        naive.estimate.resources.total().to_string(),
        fnum(naive.estimate.clock_hz as f64 / 1e6),
        naive.estimate.ii.to_string(),
        naive.estimate.cycles.to_string(),
        fratio(1.0),
    ]);
    t.row_owned(vec![
        format!("auto  {}", best.directives),
        best.estimate.resources.total().to_string(),
        fnum(best.estimate.clock_hz as f64 / 1e6),
        best.estimate.ii.to_string(),
        best.estimate.cycles.to_string(),
        fratio(naive.estimate.latency / best.estimate.latency),
    ]);
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
    fn e09_every_compressor_beats_none() {
        let t = e09_compression(&ExpRun::new(Scale::Quick, RunCtx::SEQUENTIAL));
        assert_eq!(t.len(), 4);
        for i in 1..t.len() {
            let r = parse_ratio(&t.cells(i).unwrap()[5]);
            assert!(r > 1.0, "algo {i} ratio {r}");
        }
    }

    #[test]
    fn e10_defrag_reduces_failures() {
        let t = e10_defrag(&ExpRun::new(Scale::Quick, RunCtx::SEQUENTIAL));
        let without: f64 = t.cells(0).unwrap()[3].parse().unwrap();
        let with: f64 = t.cells(1).unwrap()[3].parse().unwrap();
        assert!(with <= without, "defrag {with} !<= first-fit {without}");
        let migrations: u64 = t.cells(1).unwrap()[4].parse().unwrap();
        assert!(migrations > 0);
    }

    #[test]
    fn e11_energy_win_grows_with_length() {
        let t = e11_chaining(&ExpRun::new(Scale::Quick, RunCtx::SEQUENTIAL));
        let first = parse_ratio(&t.cells(0).unwrap()[5]);
        let last = parse_ratio(&t.cells(t.len() - 1).unwrap()[5]);
        assert!(last > first);
    }

    #[test]
    fn e12_auto_beats_naive() {
        let t = e12_hls_dse(&ExpRun::new(Scale::Quick, RunCtx::SEQUENTIAL));
        let auto = t.cells(t.len() - 1).unwrap();
        assert!(auto[0].starts_with("auto"));
        assert!(parse_ratio(&auto[5]) > 1.5, "auto speedup {}", auto[5]);
    }
}
