//! `check_sweep`: one op is one fuzz configuration through
//! `fuzz::run_config` at one thread and one shard — eight seeded phases
//! with every invariant armed: scheduler lanes, a NoC transfer storm,
//! SMMU translations, UNIMEM traffic, a short serving run, snapshot
//! checkpoint/resume/corruption, a telemetry run and the sharded engine.
//! Each serving run is 150 µs of simulated time, so rebuilding cells
//! dominates.
//!
//! Config shapes cycle through `FuzzConfig::from_index(0..BLOCK)`, one
//! shape per op of a block, so every run covers the same mix of
//! topologies, policies, fault campaigns and tenant counts; the op seed
//! replaces each shape's seed.
//!
//! The traced op runs each phase's public entry point on the op's inputs,
//! timing each; the phase generators below mirror `ecoscale_bench::fuzz`.
//! The mirror's invariant count must equal `run_config`'s, which proves
//! it ran the same phases and checks.
//!
//! `hls.build_s` and `fpga.load_s` are extrapolated, not measured inside
//! the serving runs: one cell build and its loads are timed separately
//! and charged to every cell of every serving run ([`SERVE_RUNS`] × cells).
//! Self-checks tie that count to what the mirrored runs show: the
//! telemetry run's cell count, and the serve run's module loads.

use ecoscale_bench::fuzz::{run_config, FaultKind, FuzzConfig, SchedKind, TopoKind};
use ecoscale_core::{
    linear_test_mix, run_serve_sim_with, run_shard_sim_with, serve_checkpoint, serve_resume_with,
    ServeSimConfig, ShardSimConfig, SystemBuilder,
};
use ecoscale_mem::{
    CacheConfig, DramModel, GlobalAddr, PagePerms, Smmu, SmmuConfig, UnimemSystem, VirtAddr,
};
use ecoscale_noc::{
    CrossbarTopology, Dragonfly, FatTreeTopology, Mesh2d, Network, NetworkConfig, NodeId, Topology,
    TreeTopology,
};
use ecoscale_runtime::{skewed_trace, ClusterSim, ResilienceConfig, SchedPolicy, ServeSpec};
use ecoscale_sim::check::{invariant, CheckPlane};
use ecoscale_sim::{Duration, MetricsRegistry, SimRng, TelemetryConfig, Time};

use crate::{op_seed, timed, Layers, Op, Workload, BLOCK};

/// The `check_sweep` workload.
pub struct CheckSweep {
    seed: u64,
    shapes: Vec<FuzzConfig>,
}

impl CheckSweep {
    /// Builds the op inputs for benchmark seed `seed`.
    pub fn new(seed: u64) -> CheckSweep {
        let shapes = (0..BLOCK)
            .map(|i| FuzzConfig {
                threads: 1,
                shards: 1,
                ..FuzzConfig::from_index(i)
            })
            .collect();
        CheckSweep { seed, shapes }
    }

    fn config(&self, i: u64) -> FuzzConfig {
        FuzzConfig {
            seed: op_seed(self.seed, i) >> 32,
            ..self.shapes[(i % BLOCK) as usize].clone()
        }
    }
}

impl Workload for CheckSweep {
    fn op(&mut self, i: u64) -> Op {
        let cfg = self.config(i);
        let (res, host_s) = timed(|| run_config(&cfg, false));
        outcome(
            &cfg,
            res.map(|r| r.checks_run).map_err(|e| e.to_string()),
            host_s,
        )
    }

    fn traced_op(&mut self, i: u64, layers: &mut Layers) -> Op {
        let cfg = self.config(i);
        let mut t = PhaseTimes::default();
        let (mirrored, host_s) = timed(|| mirror(&cfg, &mut t));

        // The serving runs' children: one cell build and its loads, timed
        // once and charged to every serving run × cell.
        let scfg = serve_sim_config(&cfg);
        let cells = scfg.cells.clamp(1, scfg.spec.tenants);
        let builds = (SERVE_RUNS * cells) as f64;
        let (build_s, load_s, loads) = cell_build(&scfg);
        if t.cells != cells {
            layers.fail(format!(
                "build drift: the telemetry run had {} cells, {cells} assumed",
                t.cells
            ));
        }
        // eager provisioning loads each cell once; fault repairs may reload
        let eager = (loads * cells) as u64;
        if t.loads < eager || (scfg.faults.is_off() && t.loads != eager) {
            layers.fail(format!(
                "build drift: the serve run loaded {} modules, {eager} assumed",
                t.loads
            ));
        }
        layers.add("hls.build_s", build_s * builds);
        layers.add("hls.builds", builds);
        layers.add("fpga.load_s", load_s * builds);
        layers.add("fpga.loads", loads as f64 * builds);

        layers.add("core.serve_run_s", t.serve);
        layers.add("core.serve_runs", t.serve_runs as f64);
        layers.add("snap.checkpoint_s", t.checkpoint);
        layers.add("snap.resume_s", t.resume);
        layers.add("sim.shard_run_s", t.shard);
        layers.add("runtime.sched_s", t.sched);
        layers.add("noc.transfer_s", t.noc);
        layers.add("mem.smmu_s", t.smmu);
        layers.add("mem.unimem_s", t.unimem);
        let phases =
            t.serve + t.checkpoint + t.resume + t.shard + t.sched + t.noc + t.smmu + t.unimem;
        layers.add("bench.fuzz_self_s", host_s - phases);
        if let Ok(checks) = mirrored {
            layers.add("checks_run", checks as f64);
        }
        outcome(&cfg, mirrored, host_s)
    }
}

/// One config's outcome from its invariant-check count or first failure.
fn outcome(cfg: &FuzzConfig, checks: Result<u64, String>, host_s: f64) -> Op {
    match checks {
        Ok(checks) => Op {
            host_s,
            work: 1,
            export: format!("{cfg} checks={checks}"),
            failure: None,
        },
        Err(e) => Op {
            host_s,
            work: 0,
            export: format!("{cfg} failed"),
            failure: Some(e),
        },
    }
}

/// Serving-cell builds per config: the serve phase, the snap phase's
/// uninterrupted run, checkpoint and resume (a corrupted stream is
/// refused before any cell is built), and the telemetry phase.
const SERVE_RUNS: usize = 5;

/// Host seconds per mirrored phase entry point, and what the serving runs
/// show of their cells.
#[derive(Default)]
struct PhaseTimes {
    /// `run_serve_sim_with` calls.
    serve_runs: u32,
    /// Cells of the telemetry run (one flight recorder each).
    cells: usize,
    /// Module loads of the serve run (`reconfig.loads`).
    loads: u64,
    sched: f64,
    noc: f64,
    smmu: f64,
    unimem: f64,
    serve: f64,
    checkpoint: f64,
    resume: f64,
    shard: f64,
}

/// Times one serving cell's system build and eager module loads:
/// (build seconds, load seconds, loads).
fn cell_build(scfg: &ServeSimConfig) -> (f64, f64, usize) {
    let mut b = SystemBuilder::new()
        .workers_per_node(scfg.workers_per_node)
        .compute_nodes(scfg.compute_nodes);
    for k in &scfg.kernels {
        b = b.kernel(k.source, k.hints.clone());
    }
    let (system, build_s) = timed(|| b.build());
    let mut system = system.expect("fuzz serving mix builds");
    let lanes = system.num_workers();
    let (_, load_s) = timed(|| {
        for lane in 0..lanes {
            for k in &scfg.kernels {
                let _ = system.load_module(NodeId(lane), k.name);
            }
        }
    });
    (build_s, load_s, lanes * scfg.kernels.len())
}

/// Runs every phase of `fuzz::run_config` at one thread and one shard,
/// timing each entry point, and returns the invariant checks run or the
/// first violation.
fn mirror(cfg: &FuzzConfig, t: &mut PhaseTimes) -> Result<u64, String> {
    let mut cp = CheckPlane::enabled(1);
    let mut m = MetricsRegistry::new();
    sched_phase(cfg, &mut cp, &mut m, t);
    noc_phase(cfg, &mut cp, &mut m, t);
    smmu_phase(cfg, &mut cp, &mut m, t);
    unimem_phase(cfg, &mut cp, &mut m, t);
    let scfg = serve_sim_config(cfg);
    let (out, s) = timed(|| run_serve_sim_with(&scfg, &mut cp));
    t.serve += s;
    t.serve_runs += 1;
    t.loads = out.metrics.counter("reconfig.loads").unwrap_or(0);
    m.merge(&out.metrics);
    std::hint::black_box(m.to_json());
    let mut checks = cp.checks_run();

    let mut cp_snap = CheckPlane::enabled(1);
    snap_phase(&scfg, &mut cp_snap, t);
    checks += cp_snap.checks_run();

    let mut tcfg = scfg;
    tcfg.telemetry = Some(TelemetryConfig::new(Duration::from_us(25)));
    let mut cp_telem = CheckPlane::enabled(1);
    let (out, s) = timed(|| run_serve_sim_with(&tcfg, &mut cp_telem));
    t.serve += s;
    t.serve_runs += 1;
    t.cells = out.telemetry.as_ref().map_or(0, |tm| tm.flights.len());
    std::hint::black_box(out.telemetry.map(|tm| tm.to_json()));
    checks += cp_telem.checks_run();

    let mut cp_shard = CheckPlane::enabled(1);
    let (out, s) = timed(|| run_shard_sim_with(&shard_sim_config(cfg), Some(1), &mut cp_shard));
    t.shard += s;
    std::hint::black_box(out);
    checks += cp_shard.checks_run();
    match [&cp, &cp_snap, &cp_telem, &cp_shard]
        .iter()
        .find_map(|p| p.first())
    {
        Some(v) => Err(v.to_string()),
        None => Ok(checks),
    }
}

fn policy(s: SchedKind) -> SchedPolicy {
    match s {
        SchedKind::Lazy(probes) => SchedPolicy::LazyLocal { probes },
        SchedKind::Central => SchedPolicy::Centralized,
        SchedKind::Random => SchedPolicy::RandomPush,
    }
}

fn sched_phase(cfg: &FuzzConfig, cp: &mut CheckPlane, m: &mut MetricsRegistry, t: &mut PhaseTimes) {
    let spec = cfg.campaign();
    for lane in [0u64, 1] {
        let trace = skewed_trace(cfg.tasks, cfg.workers, 100_000, 1.1, cfg.seed ^ lane);
        let ((), s) = timed(|| {
            let mut sim =
                ClusterSim::new(cfg.workers, policy(cfg.sched), cfg.seed.wrapping_add(lane))
                    .with_checks(CheckPlane::enabled(4));
            if !spec.is_off() {
                sim = sim.with_faults(&spec, ResilienceConfig::full());
            }
            sim.run(&trace);
            sim.export_metrics(m, &format!("sched{lane}"));
            cp.absorb(sim.checks());
        });
        t.sched += s;
    }
}

fn noc_phase(cfg: &FuzzConfig, cp: &mut CheckPlane, m: &mut MetricsRegistry, t: &mut PhaseTimes) {
    let w = cfg.workers;
    let tier = w.div_ceil(4).max(2);
    let nc = NetworkConfig::default;
    let s = match cfg.topo {
        TopoKind::Tree => drive_net(
            cfg,
            4 * tier,
            Network::new(TreeTopology::new(&[4, tier]), nc()),
            cp,
            m,
        ),
        TopoKind::Crossbar => {
            drive_net(cfg, w, Network::new(CrossbarTopology::new(w), nc()), cp, m)
        }
        TopoKind::Mesh => drive_net(
            cfg,
            4 * tier,
            Network::new(Mesh2d::new(4, tier), nc()),
            cp,
            m,
        ),
        TopoKind::Dragonfly => drive_net(
            cfg,
            4 * tier,
            Network::new(Dragonfly::new(2, 2, tier), nc()),
            cp,
            m,
        ),
        TopoKind::FatTree => drive_net(
            cfg,
            4 * tier,
            Network::new(FatTreeTopology::new(&[4, tier], 2), nc()),
            cp,
            m,
        ),
    };
    t.noc += s;
}

/// The transfer storm; returns the host seconds of the network calls.
fn drive_net<T: Topology>(
    cfg: &FuzzConfig,
    nodes: usize,
    mut net: Network<T>,
    cp: &mut CheckPlane,
    m: &mut MetricsRegistry,
) -> f64 {
    let spec = cfg.campaign();
    let mut rng = SimRng::seed_from(cfg.seed ^ 0x0c0c_0c0c);
    let ((), s) = timed(|| {
        if !spec.is_off() {
            net.set_faults(&spec);
        }
        let mut now = Time::ZERO;
        for _ in 0..cfg.tasks * 2 {
            let src = NodeId(rng.gen_range_usize(0, nodes));
            let dst = NodeId(rng.gen_range_usize(0, nodes));
            let bytes = 64 * (1 + rng.gen_range_u64(0, 16));
            net.transfer(now, src, dst, bytes);
            now += Duration::from_ns(25);
        }
        net.check_invariants(cp);
        net.export_metrics(m, "fnoc");
    });
    s
}

fn smmu_phase(cfg: &FuzzConfig, cp: &mut CheckPlane, m: &mut MetricsRegistry, t: &mut PhaseTimes) {
    const PERMS: [PagePerms; 3] = [PagePerms::READ, PagePerms::RW, PagePerms::WRITE];
    let ((), s) = timed(|| {
        let mut smmu = Smmu::new(SmmuConfig::default());
        let pages = 48u64;
        for p in 0..pages {
            smmu.map(
                VirtAddr::from_page(p, 0),
                0x1_0000 + p,
                0x2_0000 + p,
                PERMS[(p % 3) as usize],
            )
            .expect("fresh mapping");
        }
        let mut rng = SimRng::seed_from(cfg.seed ^ 0x5a5a_5a5a);
        for _ in 0..cfg.tasks * 4 {
            let page = rng.gen_range_u64(0, pages + 2);
            let need = if rng.gen_bool(0.3) {
                PagePerms::WRITE
            } else {
                PagePerms::READ
            };
            let _ = smmu.translate(VirtAddr::from_page(page, rng.gen_range_u64(0, 4096)), need);
        }
        smmu.check_invariants(cp);
        smmu.export_metrics(m, "smmu");
    });
    t.smmu += s;
}

fn unimem_phase(
    cfg: &FuzzConfig,
    cp: &mut CheckPlane,
    m: &mut MetricsRegistry,
    t: &mut PhaseTimes,
) {
    let ((), s) = timed(|| {
        let nodes = cfg.workers;
        let mut net = Network::new(TreeTopology::new(&[nodes]), NetworkConfig::default());
        let mut mem = UnimemSystem::new(nodes, CacheConfig::l1_default(), DramModel::default());
        let mut rng = SimRng::seed_from(cfg.seed ^ 0x0b5e_0b5e);
        let mut now = Time::ZERO;
        for _ in 0..cfg.tasks * 3 {
            let node = NodeId(rng.gen_range_usize(0, nodes));
            let owner = NodeId(rng.gen_zipf(nodes, 1.1));
            let addr = GlobalAddr::new(owner, rng.gen_range_u64(0, 64) * 4096);
            let bytes = 64 * (1 + rng.gen_range_u64(0, 4));
            let access = if rng.gen_bool(0.35) {
                mem.write(&mut net, now, node, addr, bytes)
            } else {
                mem.read(&mut net, now, node, addr, bytes)
            };
            now = now.max(access.completion - access.latency) + Duration::from_ns(40);
        }
        mem.check_invariants(cp);
        net.check_invariants(cp);
        mem.export_metrics(m, "unimem");
        net.export_metrics(m, "unoc");
    });
    t.unimem += s;
}

/// The serving config of a fuzz point (mirrors `fuzz::serve_sim_config`).
fn serve_sim_config(cfg: &FuzzConfig) -> ServeSimConfig {
    let spec = ServeSpec::parse(&format!(
        "seed={},tenants={},rate=60000,horizon=150us,batch=4,deadline=120us,queue=16",
        cfg.seed, cfg.tenants
    ))
    .expect("fuzz serve specs are well-formed");
    let mut scfg = ServeSimConfig::new(spec, linear_test_mix());
    scfg.items = 24;
    scfg.workers_per_node = 2;
    scfg.compute_nodes = 2;
    scfg.cells = cfg.tenants.min(2);
    scfg.cadence = Duration::from_us(25);
    if cfg.faults != FaultKind::None {
        scfg.faults = cfg.campaign();
    }
    scfg
}

/// The snap phase: uninterrupted run, checkpoint at mid-horizon, resume,
/// and refusal of a corrupted copy (mirrors `fuzz::snap_fuzz`).
fn snap_phase(scfg: &ServeSimConfig, cp: &mut CheckPlane, t: &mut PhaseTimes) {
    let at = Time::ZERO + Duration::from_us(75);
    let (full, s) = timed(|| run_serve_sim_with(scfg, &mut CheckPlane::enabled(1)));
    t.serve += s;
    t.serve_runs += 1;
    let (bytes, s) = timed(|| serve_checkpoint(scfg, at));
    t.checkpoint += s;
    let (resumed, s) = timed(|| serve_resume_with(scfg, &bytes, cp));
    t.resume += s;
    let same = resumed.as_ref().is_ok_and(|r| {
        r.serving.to_json() == full.serving.to_json()
            && r.metrics.to_json() == full.metrics.to_json()
    });
    cp.check(invariant::SNAP_RESUME_EQUIVALENT, same, || {
        format!("resume at {at} diverged from the uninterrupted run")
    });
    let mut bad = bytes;
    let tail = bad.len() - 1;
    bad[tail] ^= 0x01;
    let (refused, s) =
        timed(|| serve_resume_with(scfg, &bad, &mut CheckPlane::enabled(1)).is_err());
    t.resume += s;
    cp.check(invariant::SNAP_VERSION_REFUSED, refused, || {
        "corrupted snapshot was not refused".to_string()
    });
}

/// The shard phase's model (mirrors `fuzz::shard_sim_config`).
fn shard_sim_config(cfg: &FuzzConfig) -> ShardSimConfig {
    let mut scfg = ShardSimConfig::new(2 + cfg.workers % 5, 2 + cfg.workers % 3);
    scfg.tasks_per_cluster = cfg.tasks.clamp(8, 48);
    scfg.flops = 400;
    scfg.spacing_ns = 60;
    scfg.seed = cfg.seed ^ 0x5da2_c0de;
    scfg
}
