//! Wall-clock benches: every experiment's code path at [`Scale::Quick`],
//! plus microbenches of the substrate primitives the experiments are
//! built on. Run with `cargo bench -p ecoscale-bench --bench experiments`;
//! extra arguments filter by substring.

use ecoscale_bench::timing::bench;
use ecoscale_bench::{ExpRun, Scale, EXPERIMENTS};
use ecoscale_sim::RunCtx;

fn bench_experiments() {
    let quick = ExpRun::new(Scale::Quick, RunCtx::parse(None, None, None));
    for &(key, run) in EXPERIMENTS {
        bench(&format!("exp/{key}"), || run(&quick));
    }
}

fn bench_substrate() {
    use ecoscale_fpga::{Bitstream, CompressionAlgo, Resources};
    use ecoscale_mem::{PagePerms, Smmu, SmmuConfig, VirtAddr};
    use ecoscale_noc::{NodeId, Topology, TreeTopology};
    use ecoscale_sim::{Time, TimingWheel};

    bench("substrate/timing_wheel_push_pop_1k", || {
        let mut q = TimingWheel::new();
        for i in 0..1000u64 {
            q.schedule(Time::from_ns(i * 7 % 500), q.scheduled_total(), i);
        }
        let mut sum = 0u64;
        while let Some((_, _, v)) = q.pop() {
            sum += v;
        }
        sum
    });

    let topo = TreeTopology::new(&[8, 8, 8, 8]);
    bench("substrate/tree_route_4096", || {
        let mut hops = 0u32;
        for i in (0..4096).step_by(17) {
            hops += topo.route(NodeId(0), NodeId(i)).hop_count();
        }
        hops
    });

    let mut smmu = Smmu::new(SmmuConfig::default());
    smmu.map(VirtAddr(0x1000), 0x10, 0x100, PagePerms::RW)
        .unwrap();
    smmu.translate(VirtAddr(0x1000), PagePerms::READ).unwrap();
    bench("substrate/smmu_translate_hit", || {
        smmu.translate(VirtAddr(0x1008), PagePerms::READ).unwrap()
    });

    let bs = Bitstream::synthesize(Resources::new(1000, 16, 32), 9);
    bench("substrate/bitstream_lz_compress", || {
        CompressionAlgo::Lz.compress(&bs)
    });
    bench("substrate/bitstream_rle_compress", || {
        CompressionAlgo::ZeroRle.compress(&bs)
    });

    bench("substrate/hls_parse_and_analyze", || {
        let k = ecoscale_hls::parse_kernel(ecoscale_apps::blackscholes::KERNEL).unwrap();
        ecoscale_hls::KernelAnalysis::analyze(&k, &ecoscale_apps::blackscholes::kernel_hints(4096))
    });
}

fn main() {
    bench_experiments();
    bench_substrate();
}
