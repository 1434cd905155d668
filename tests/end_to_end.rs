//! End-to-end integration tests spanning every crate: a full system
//! built from application kernels, driven through the runtime, with
//! results checked against the pure-software references.

mod common;

use ecoscale::apps::{blackscholes, gemm, montecarlo, stencil};
use ecoscale::core::SystemBuilder;
use ecoscale::fpga::Resources;
use ecoscale::noc::NodeId;
use ecoscale::runtime::DeviceClass;
use ecoscale::sim::check::CheckPlane;
use ecoscale::sim::{Energy, Time};

fn build_full_system() -> ecoscale::core::EcoscaleSystem {
    SystemBuilder::new()
        .workers_per_node(4)
        .compute_nodes(4)
        .hls_budget(Resources::new(3900, 64, 200))
        .kernel(blackscholes::KERNEL, blackscholes::kernel_hints(65_536))
        .kernel(montecarlo::KERNEL, montecarlo::kernel_hints(65_536))
        .kernel(gemm::KERNEL, gemm::kernel_hints(128))
        .kernel(stencil::KERNEL, stencil::kernel_hints(128))
        .with_checks(CheckPlane::armed(common::ctx().check))
        .build()
        .expect("system builds")
}

#[test]
fn full_system_builds_with_app_library() {
    let s = build_full_system();
    assert_eq!(s.num_workers(), 16);
    assert!(s.library().len() >= 3, "most kernels synthesize");
    assert!(s.library().get("blackscholes").is_some());
    assert_eq!(s.now(), Time::ZERO);
    assert_eq!(s.energy(), Energy::ZERO);
}

#[test]
fn blackscholes_results_identical_across_devices() {
    let mut s = build_full_system();
    let (spots, strikes) = blackscholes::generate(4096, 3);
    let reference = blackscholes::reference(&spots, &strikes, 0.02, 0.3, 1.0);

    // software runs
    let mut cpu_out = Vec::new();
    for _ in 0..3 {
        let mut args = blackscholes::bind_args(&spots, &strikes, 0.02, 0.3, 1.0);
        let out = s.call(NodeId(0), "blackscholes", &mut args).expect("runs");
        assert_eq!(out.device, DeviceClass::Cpu);
        cpu_out = args.take_array("price").expect("bound");
    }
    // load hardware, run again
    s.load_module(NodeId(0), "blackscholes").expect("fits");
    let mut hw_out = Vec::new();
    for _ in 0..3 {
        let mut args = blackscholes::bind_args(&spots, &strikes, 0.02, 0.3, 1.0);
        let out = s.call(NodeId(0), "blackscholes", &mut args).expect("runs");
        if out.device == DeviceClass::FpgaLocal {
            hw_out = args.take_array("price").expect("bound");
        }
    }
    assert!(!hw_out.is_empty(), "at least one call ran in hardware");
    assert_eq!(cpu_out, hw_out, "hardware results are bit-identical");
    for (got, want) in hw_out.iter().zip(&reference) {
        assert!((got - want).abs() < 1e-9);
    }
}

#[test]
fn daemon_accelerates_hot_function_and_speeds_up_calls() {
    let mut s = build_full_system();
    let (spots, strikes) = blackscholes::generate(16_384, 1);
    let mut first_latency = None;
    let mut last_latency = None;
    for i in 0..30 {
        let mut args = blackscholes::bind_args(&spots, &strikes, 0.02, 0.3, 1.0);
        let out = s.call(NodeId(5), "blackscholes", &mut args).expect("runs");
        if i == 0 {
            first_latency = Some(out.latency);
        }
        last_latency = Some(out.latency);
        if i % 5 == 4 {
            s.daemon_tick();
        }
    }
    let first = first_latency.expect("ran");
    let last = last_latency.expect("ran");
    assert!(
        last.as_ns_f64() * 5.0 < first.as_ns_f64(),
        "hardware calls ({last}) should be >5x faster than the first software call ({first})"
    );
}

#[test]
fn multiple_kernels_coexist_on_one_fabric() {
    // a double-width fabric hosts two near-budget modules side by side
    let mut s = SystemBuilder::new()
        .workers_per_node(4)
        .compute_nodes(4)
        .fabric(160, 80)
        .hls_budget(Resources::new(3900, 64, 200))
        .kernel(gemm::KERNEL, gemm::kernel_hints(128))
        .kernel(stencil::KERNEL, stencil::kernel_hints(128))
        .build()
        .expect("system builds");
    let a = s.load_module(NodeId(0), "gemm");
    let b = s.load_module(NodeId(0), "jacobi2d");
    assert!(a.is_ok() && b.is_ok(), "both modules placed");
    let loaded = s.worker(NodeId(0)).loaded_modules();
    assert_eq!(loaded.len(), 2);
}

#[test]
fn gemm_through_system_matches_reference() {
    let mut s = build_full_system();
    let n = 32usize;
    let a = gemm::generate(n, 1);
    let b = gemm::generate(n, 2);
    let mut args = gemm::bind_args(&a, &b, n);
    s.call(NodeId(3), "gemm", &mut args).expect("runs");
    let reference = gemm::reference(&a, &b, n);
    for (got, want) in args.array("c").expect("bound").iter().zip(&reference) {
        assert!((got - want).abs() < 1e-9);
    }
}

#[test]
fn energy_and_clock_monotonically_increase() {
    let mut s = build_full_system();
    let mut last_t = Time::ZERO;
    let mut last_e = Energy::ZERO;
    for i in 0..5 {
        let (spots, strikes) = blackscholes::generate(1024, i);
        let mut args = blackscholes::bind_args(&spots, &strikes, 0.02, 0.3, 1.0);
        s.call(NodeId(0), "blackscholes", &mut args).expect("runs");
        assert!(s.now() > last_t);
        assert!(s.energy() > last_e);
        last_t = s.now();
        last_e = s.energy();
    }
}

#[test]
fn unknown_kernel_is_a_clean_error() {
    let mut s = build_full_system();
    let err = s
        .call(
            NodeId(0),
            "nonexistent",
            &mut ecoscale::hls::KernelArgs::new(),
        )
        .unwrap_err();
    assert!(err.to_string().contains("nonexistent"));
}

#[test]
fn opencl_frontend_runs_against_the_same_platform() {
    use ecoscale::runtime::{BufferScope, Distribution, KernelObject, Platform};
    let platform = Platform::new(&[4, 4]);
    assert_eq!(platform.num_devices(), 16);
    let mut ctx = platform.create_context(64 << 20);
    let q0 = ctx.create_queue(NodeId(0));
    let q1 = ctx.create_queue(NodeId(8));
    let buf = ctx
        .create_buffer(8 << 20, BufferScope::Partitioned(Distribution::Block))
        .expect("allocates");
    let k = KernelObject::new("stencil", 8, 5);
    let w = ctx.enqueue_write(q0, buf, &[]);
    let r0 = ctx.enqueue_kernel(q0, &k, 500_000, &[buf], &[w]);
    // cross-queue dependency: q1 consumes q0's output
    let r1 = ctx.enqueue_kernel(q1, &k, 500_000, &[buf], &[r0]);
    assert!(ctx.event_time(r1) > ctx.event_time(r0));
    assert!(ctx.energy().as_uj() > 0.0);
}

#[test]
fn hybrid_sort_and_system_agree_on_scale() {
    use ecoscale::apps::sort::{distributed_sort, generate, SortMode};
    let data = generate(30_000, 11);
    let out = distributed_sort(&data, 4, 4, SortMode::Hybrid, 2);
    assert!(out.sorted.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(out.sorted.len(), data.len());
}

#[test]
fn power_extrapolation_brackets_the_paper() {
    use ecoscale::core::{machine_power_for_exaflop, MachineClass};
    let gw = machine_power_for_exaflop(MachineClass::Tianhe2, 1.0, 1.9);
    assert!(gw.facility_power.as_megawatts() > 900.0);
    let eco = machine_power_for_exaflop(MachineClass::EcoscaleWorker, 1.0, 1.4);
    assert!(eco.facility_power.as_megawatts() < gw.facility_power.as_megawatts() / 10.0);
}

#[test]
fn compression_applies_to_real_library_bitstreams() {
    use ecoscale::fpga::CompressionAlgo;
    let s = build_full_system();
    for entry in s.library().iter() {
        let bs = entry.module.bitstream();
        for algo in CompressionAlgo::ALL {
            let packed = algo.compress(bs);
            let back = algo.decompress(&packed);
            assert_eq!(back.as_bytes(), bs.as_bytes());
        }
        // synthetic library bitstreams compress well
        let ratio = CompressionAlgo::Lz.stats(bs).ratio();
        assert!(ratio > 1.5, "{}: ratio {ratio}", entry.module.name());
    }
}

#[test]
fn remote_worker_borrows_accelerator_over_unilogic() {
    let mut s = build_full_system();
    // only worker 0 gets the module
    s.load_module(NodeId(0), "blackscholes").expect("fits");
    // worker 10 (different compute node) warms up CPU + gets hardware
    // history injected from worker 0's measurements
    for _ in 0..10 {
        let (spots, strikes) = blackscholes::generate(16_384, 9);
        let mut args = blackscholes::bind_args(&spots, &strikes, 0.02, 0.3, 1.0);
        s.call(NodeId(10), "blackscholes", &mut args).expect("runs");
    }
    for _ in 0..2 {
        let (spots, strikes) = blackscholes::generate(16_384, 9);
        let mut args = blackscholes::bind_args(&spots, &strikes, 0.02, 0.3, 1.0);
        s.call(NodeId(0), "blackscholes", &mut args).expect("runs");
    }
    let hw_time = s
        .worker(NodeId(0))
        .history()
        .mean_time("blackscholes", DeviceClass::FpgaLocal)
        .expect("worker 0 measured hardware");
    for _ in 0..4 {
        s.worker_mut(NodeId(10)).history_mut().record(
            "blackscholes",
            DeviceClass::FpgaLocal,
            &[0.02, 0.3, 1.0, 16_384.0], // scalar declaration order: r, sigma, t, n
            hw_time,
            Energy::ZERO,
        );
    }
    let (spots, strikes) = blackscholes::generate(16_384, 9);
    let mut args = blackscholes::bind_args(&spots, &strikes, 0.02, 0.3, 1.0);
    let out = s.call(NodeId(10), "blackscholes", &mut args).expect("runs");
    assert_eq!(out.device, DeviceClass::FpgaRemote);
    assert_eq!(out.served_by, NodeId(0));
}

#[test]
fn fork_join_graph_scales_on_the_worker_pool() {
    use ecoscale::runtime::graph::TaskGraph;
    use ecoscale::runtime::CpuModel;
    let g = TaskGraph::fork_join(64, 400_000, 16);
    let cpu = CpuModel::a53_default();
    let serial = g.execute(1, &cpu).expect("acyclic");
    let parallel = g.execute(16, &cpu).expect("acyclic");
    assert!(parallel.makespan.as_ns() * 8 < serial.makespan.as_ns());
    assert!(parallel.makespan >= g.critical_path(&cpu).expect("acyclic"));
}

#[test]
fn preemption_checkpoints_and_resumes_a_library_module() {
    use ecoscale::fpga::PreemptModel;
    let s = build_full_system();
    let module = &s.library().get("blackscholes").expect("synthesized").module;
    let pm = PreemptModel::default();
    let total = 1_000_000u64;
    let (ctx, chk_lat, chk_e) = pm.checkpoint(module, total / 2);
    assert!(chk_lat > ecoscale::sim::Duration::ZERO);
    assert!(chk_e.as_nj() > 0.0);
    let (res_lat, _) = pm.restore(module, &ctx);
    // resuming halfway beats restarting
    let resume = chk_lat + res_lat + pm.remaining_latency(module, &ctx, total);
    assert!(resume < module.batch_latency(total));
}

#[test]
fn unimem_atomics_implement_a_global_barrier() {
    use ecoscale::mem::{CacheConfig, DramModel, GlobalAddr, UnimemSystem};
    use ecoscale::noc::{Network, NetworkConfig, TreeTopology};
    let w = 16usize;
    let mut net = Network::new(TreeTopology::new(&[4, 4]), NetworkConfig::default());
    let mut mem = UnimemSystem::new(w, CacheConfig::l1_default(), DramModel::default());
    let counter = GlobalAddr::new(NodeId(0), 0x4000);
    // sense-reversing barrier, phase 1: everyone increments
    let mut t = Time::ZERO;
    for i in 0..w {
        let (old, acc) = mem.fetch_add(&mut net, t, NodeId(i), counter, 1);
        assert_eq!(old, i as i64);
        t = acc.completion;
    }
    let (val, _) = mem.fetch_add(&mut net, t, NodeId(0), counter, 0);
    assert_eq!(val as usize, w, "all arrivals observed");
}

#[test]
fn folded_kernels_run_through_the_system_identically() {
    use ecoscale::hls::{fold_kernel, parse_kernel, KernelArgs};
    let src = "kernel waste(in float a[], out float b[], int n) {
        for (i in 0 .. n) { b[i] = a[i] * (1.0 + 0.0) + sqrt(4.0) - 2.0 + 0.0; }
    }";
    let k = parse_kernel(src).expect("parses");
    let folded = fold_kernel(&k);
    let run = |kernel| {
        let mut args = KernelArgs::new();
        args.bind_array("a", (0..64).map(|i| i as f64).collect())
            .bind_array("b", vec![0.0; 64])
            .bind_scalar("n", 64.0);
        args.run(kernel).expect("executes");
        args.take_array("b").expect("bound")
    };
    assert_eq!(run(&k), run(&folded));
    // the printer round-trips the folded kernel too
    let reparsed = parse_kernel(&folded.to_string()).expect("printed source parses");
    assert_eq!(folded, reparsed);
}
