//! Full-stack observability capture behind `exp_all
//! --trace/--metrics/--profile`.
//!
//! Experiments return only their result tables, so this module drives a
//! representative instrumented workload through every layer the
//! tentpole instruments — SMMU translation, UNIMEM over the NoC, the
//! per-worker scheduler, the assembled system's call/reconfigure path,
//! and the sharded conservative-parallel engine — and collects one
//! merged [`TraceBuffer`] plus one [`MetricsRegistry`].
//! [`capture_profile`] additionally returns the shard run's occupancy
//! accounting and the engine's wall-clock phase timers for the ProfPlane
//! report.
//!
//! Determinism: every phase is seeded, and the scheduler phase runs its
//! lanes on the caller's [`RunCtx`] with one tracer and one registry per
//! lane, folded back **in input order**. The exported trace JSON and
//! metrics JSON are therefore byte-identical at any pool width or shard
//! count — `tests/determinism.rs` pins this.

use std::collections::HashMap;

use ecoscale_core::{
    linear_test_mix, run_serve_sim_with, run_shard_sim_observed_with, run_shard_sim_with,
    ServeSimConfig, ServeTelemetry, SystemBuilder,
};
use ecoscale_hls::KernelArgs;
use ecoscale_mem::{
    CacheConfig, DramModel, GlobalAddr, PagePerms, Smmu, SmmuConfig, UnimemSystem, VirtAddr,
};
use ecoscale_noc::{Network, NetworkConfig, NodeId, TreeTopology};
use ecoscale_runtime::{skewed_trace, ClusterSim, ResilienceConfig, SchedPolicy, ServeSpec};
use ecoscale_sim::check::CheckPlane;
use ecoscale_sim::{
    CampaignSpec, Duration, MetricsRegistry, Profiler, RunCtx, ShardOccupancy, SimRng,
    TelemetryConfig, Time, TimeSeries, TraceBuffer, Tracer, ZipfTable,
};

use crate::shard_exp::scaling_config;
use crate::Scale;

/// The combined output of one observability capture.
#[derive(Debug, Clone, Default)]
pub struct Capture {
    /// Merged trace across every phase; export with
    /// [`TraceBuffer::to_chrome_json`].
    pub trace: TraceBuffer,
    /// Merged instruments across every phase.
    pub metrics: MetricsRegistry,
}

/// A [`Capture`] plus the ProfPlane extras from the sharded-engine
/// phase: the run's deterministic occupancy accounting and the engine's
/// host-dependent wall-clock phase timers.
#[derive(Debug, Clone)]
pub struct ProfileCapture {
    /// The merged five-phase capture.
    pub capture: Capture,
    /// Shard occupancy bands from the cluster-partitioned run
    /// (deterministic: byte-identical at any shard count).
    pub occupancy: ShardOccupancy,
    /// Engine wall-clock phase timers (host-dependent — keep out of
    /// byte-compared exports).
    pub wall: Profiler,
}

/// Runs the five instrumented phases at `scale` on `ctx` and returns the
/// merged capture. Pure function of `scale`: byte-identical output at
/// any pool width and shard count (the sharded phase's exports are
/// layout-independent by the engine's contract).
pub fn capture_observability(scale: Scale, ctx: RunCtx) -> Capture {
    capture_profile(scale, ctx).capture
}

/// [`capture_observability`] keeping the sharded phase's ProfPlane
/// extras — the occupancy bands and the engine's wall-clock profile —
/// next to the merged capture. Backs `exp_all --profile`.
pub fn capture_profile(scale: Scale, ctx: RunCtx) -> ProfileCapture {
    let mut cap = Capture::default();
    smmu_phase(scale, &mut cap);
    unimem_phase(scale, &mut cap);
    sched_phase(scale, ctx, &mut cap);
    system_phase(scale, ctx, &mut cap);
    let (occupancy, wall) = shard_phase(scale, ctx, &mut cap);
    ProfileCapture {
        capture: cap,
        occupancy,
        wall,
    }
}

/// The TelePlane capture behind `exp_all --telemetry`: windowed serving
/// telemetry (series + per-cell flight recorders) from a ServePlane run
/// plus the sharded engine's per-safe-window series. Every field is
/// deterministic — byte-identical at any pool width and shard count.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryCapture {
    /// Serving-cell telemetry: merged series + per-cell flight recorders.
    pub serve: ServeTelemetry,
    /// The sharded engine's per-safe-window series.
    pub shard: TimeSeries,
}

impl TelemetryCapture {
    /// Whether any serving cell's flight recorder latched a trigger.
    pub fn fired(&self) -> bool {
        self.serve.fired()
    }

    /// Canonical telemetry export:
    /// `{"serve":{...},"shard":{...}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"serve\":");
        out.push_str(&self.serve.to_json());
        out.push_str(",\"shard\":");
        out.push_str(&self.shard.to_json());
        out.push('}');
        out
    }

    /// The flight-recorder evidence bundle written on an anomaly dump:
    /// the serving bundle (trigger rings + series tail) plus the shard
    /// series tail for cross-layer context.
    pub fn flight_dump_json(&self) -> String {
        let mut out = String::from("{\"serve\":");
        out.push_str(&self.serve.flight_dump_json(8));
        out.push_str(",\"shard_tail\":");
        out.push_str(&self.shard.tail_json(8));
        out.push('}');
        out
    }
}

/// The serving config [`capture_telemetry`] drives: the linear test mix
/// under a steady in-SLO load, telemetry armed with 50 us windows, and
/// `faults` injected into the backend when the campaign is live.
pub fn telemetry_serve_config(scale: Scale, faults: &CampaignSpec) -> ServeSimConfig {
    let spec = ServeSpec::parse(scale.pick(
        "seed=19,tenants=4,rate=200000,horizon=400us,batch=6,deadline=250us,queue=24",
        "seed=19,tenants=6,rate=250000,horizon=1ms,batch=8,deadline=250us,queue=32",
    ))
    .expect("built-in serve spec parses");
    let mut cfg = ServeSimConfig::new(spec, linear_test_mix());
    cfg.items = 32;
    cfg.telemetry = Some(TelemetryConfig::new(Duration::from_us(50)));
    if !faults.is_off() {
        cfg.faults = faults.clone();
    }
    cfg
}

/// One sharded run at `ctx.shards` with the per-safe-window series feed
/// armed; returns the series (byte-identical at any shard count).
pub fn telemetry_shard_series(scale: Scale, ctx: RunCtx) -> TimeSeries {
    let mut cfg = scaling_config(scale.pick(4, 8), scale.pick(48, 256));
    cfg.telemetry = Some((Duration::from_ns(500), 64));
    let mut cp = CheckPlane::armed(ctx.check);
    let out = run_shard_sim_with(&cfg, Some(ctx.shards), &mut cp);
    out.series.expect("series armed")
}

/// Runs the TelePlane capture on `ctx`: a telemetry-armed ServePlane
/// simulation (honoring `faults`) plus a series-armed sharded run. Pure
/// function of `(scale, faults)`.
pub fn capture_telemetry(scale: Scale, ctx: RunCtx, faults: &CampaignSpec) -> TelemetryCapture {
    let mut cfg = telemetry_serve_config(scale, faults);
    cfg.ctx = ctx;
    let out = run_serve_sim_with(&cfg, &mut CheckPlane::disabled());
    TelemetryCapture {
        serve: out.telemetry.expect("telemetry armed in config"),
        shard: telemetry_shard_series(scale, ctx),
    }
}

/// Runs a seeded fault campaign through the FaultPlane's two live
/// halves — a faulted scheduler run (worker crashes/stalls, full
/// recovery) and a faulted system run (SEU scrub/repair plus SMMU/NoC
/// injection) — and returns the merged capture. Pure function of
/// `(scale, spec)`: byte-identical at any thread count, and with an
/// all-off spec the exported JSON is byte-identical to not injecting at
/// all. Both halves self-check at `ctx`'s check cadence.
pub fn capture_fault_campaign(scale: Scale, ctx: RunCtx, spec: &CampaignSpec) -> Capture {
    let mut cap = Capture::default();
    faulted_sched_phase(scale, ctx, spec, &mut cap);
    faulted_system_phase(scale, ctx, spec, &mut cap);
    cap
}

/// A faulted [`ClusterSim`] run under the full recovery policy:
/// populates `sched.*` including `sched.resilience.*` fault tracks.
fn faulted_sched_phase(scale: Scale, ctx: RunCtx, spec: &CampaignSpec, cap: &mut Capture) {
    let tasks = scale.pick(300, 1_500);
    let tracer = Tracer::buffering();
    let trace = skewed_trace(tasks, 8, 120_000, 1.2, 17);
    let mut sim = ClusterSim::new(8, SchedPolicy::LazyLocal { probes: 2 }, 5)
        .with_checks(CheckPlane::armed(ctx.check))
        .with_faults(spec, ResilienceConfig::full())
        .with_tracer(tracer.clone(), "fsched");
    sim.run(&trace);
    sim.export_metrics(&mut cap.metrics, "sched");
    cap.trace.merge(tracer.take());
}

/// A faulted assembled-system run: SEU upsets with scrub/repair,
/// software fallback, plus the SMMU/NoC injection hooks armed from the
/// same spec. Populates `system.*`, `seu.*`, `resilience.*`.
fn faulted_system_phase(scale: Scale, ctx: RunCtx, spec: &CampaignSpec, cap: &mut Capture) {
    const KERNEL: &str = "kernel scale(in float a[], out float b[], int n) {
        for (i in 0 .. n) { b[i] = sqrt(a[i] + 1.0) * 2.0; }
    }";
    let tracer = Tracer::buffering();
    let mut sys = SystemBuilder::new()
        .workers_per_node(4)
        .compute_nodes(2)
        .kernel(KERNEL, HashMap::from([("n".to_owned(), 4096.0)]))
        .with_checks(CheckPlane::armed(ctx.check))
        .build()
        .expect("kernel synthesizes");
    sys.set_tracer(&tracer);
    sys.enable_faults(spec, ResilienceConfig::full());
    let n = scale.pick(1_024usize, 4_096);
    let args = || {
        let mut a = KernelArgs::new();
        a.bind_array("a", (0..n).map(|i| i as f64).collect())
            .bind_array("b", vec![0.0; n])
            .bind_scalar("n", n as f64);
        a
    };
    for _ in 0..12 {
        sys.call(NodeId(0), "scale", &mut args()).expect("runs");
    }
    sys.load_module(NodeId(0), "scale").expect("places");
    let calls = scale.pick(40, 160);
    for _ in 0..calls {
        sys.call(NodeId(0), "scale", &mut args()).expect("runs");
        sys.fault_tick();
        sys.daemon_tick();
    }
    cap.metrics.merge(&sys.export_metrics());
    cap.trace.merge(tracer.take());
}

/// Zipf-skewed translation stream through one dual-stage SMMU:
/// populates `smmu.*` (TLB hit/miss/MRU split, walk latencies, faults)
/// and an `smmu/walks` trace lane with one span per table walk, on a
/// synthetic clock advanced by each translation's returned latency.
fn smmu_phase(scale: Scale, cap: &mut Capture) {
    let config = SmmuConfig::default();
    let tlb_hit = config.tlb_hit;
    let mut smmu = Smmu::new(config);
    let pages = 256u64;
    for p in 0..pages {
        smmu.map(
            VirtAddr::from_page(p, 0),
            0x1_0000 + p,
            0x2_0000 + p,
            PagePerms::RW,
        )
        .expect("fresh mapping");
    }
    let tracer = Tracer::buffering();
    let walks = tracer.track("smmu/walks");
    let mut now = Time::ZERO;
    let mut rng = SimRng::seed_from(0xec05_ca1e);
    let n = scale.pick(4_000, 40_000);
    let hot_pages = ZipfTable::new(pages as usize, 1.2);
    for _ in 0..n {
        let page = hot_pages.draw(&mut rng) as u64;
        let offset = rng.gen_range_u64(0, 4096);
        if let Ok((_, latency)) = smmu.translate(VirtAddr::from_page(page, offset), PagePerms::READ)
        {
            // latency beyond the TLB-hit cost means the table walker ran
            if latency > tlb_hit {
                tracer.complete(walks, "walk", now, latency);
            }
            now += latency;
        }
    }
    // a few touches beyond the mapped range fault (and cost walks)
    for p in pages..pages + 8 {
        let _ = smmu.translate(VirtAddr::from_page(p, 0), PagePerms::READ);
    }
    smmu.export_metrics(&mut cap.metrics, "smmu");
    cap.trace.merge(tracer.take());
}

/// UNIMEM traffic over a traced tree NoC: populates `unimem.*` and
/// `noc.*` and contributes per-link `noc/link<N>` trace lanes.
fn unimem_phase(scale: Scale, cap: &mut Capture) {
    let nodes = 16usize;
    let tracer = Tracer::buffering();
    let mut net = Network::new(TreeTopology::new(&[4, 4]), NetworkConfig::default());
    net.set_tracer(tracer.clone());
    let mut mem = UnimemSystem::new(nodes, CacheConfig::l1_default(), DramModel::default());
    let mut rng = SimRng::seed_from(0x0b5e_7ab1);
    let mut now = Time::ZERO;
    let accesses = scale.pick(600, 6_000);
    let owners = ZipfTable::new(nodes, 1.1);
    for _ in 0..accesses {
        let node = NodeId(rng.gen_range_usize(0, nodes));
        // concentrate on few owners/pages so caches and links contend
        let owner = NodeId(owners.draw(&mut rng));
        let addr = GlobalAddr::new(owner, rng.gen_range_u64(0, 32) * 4096);
        let bytes = 64 * (1 + rng.gen_range_u64(0, 4));
        let access = if rng.gen_bool(0.3) {
            mem.write(&mut net, now, node, addr, bytes)
        } else {
            mem.read(&mut net, now, node, addr, bytes)
        };
        // pace arrivals below the drain rate so queues build but clear
        now = now.max(access.completion - access.latency) + ecoscale_sim::Duration::from_ns(40);
    }
    mem.export_metrics(&mut cap.metrics, "unimem");
    net.export_metrics(&mut cap.metrics, "noc");
    cap.trace.merge(tracer.take());
}

/// Scheduler lanes on `ctx`: one seeded [`ClusterSim`] per lane with a
/// private tracer and registry, folded in input order. Populates
/// `sched.*` and per-worker `sched<L>/w<N>` trace lanes.
fn sched_phase(scale: Scale, ctx: RunCtx, cap: &mut Capture) {
    let lanes: Vec<u64> = scale.pick(vec![1, 2], vec![1, 2, 3, 4]);
    let tasks = scale.pick(300, 1_500);
    let results = ctx.map(lanes, move |seed| {
        let tracer = Tracer::buffering();
        let label = format!("sched{seed}");
        let trace = skewed_trace(tasks, 8, 120_000, 1.1, seed);
        let mut sim = ClusterSim::new(8, SchedPolicy::LazyLocal { probes: 2 }, seed)
            .with_checks(CheckPlane::armed(ctx.check))
            .with_tracer(tracer.clone(), &label);
        sim.run(&trace);
        let mut m = MetricsRegistry::new();
        sim.export_metrics(&mut m, "sched");
        (tracer.take(), m)
    });
    for (trace, metrics) in results {
        cap.trace.merge(trace);
        cap.metrics.merge(&metrics);
    }
}

/// End-to-end [`SystemBuilder`] workload: CPU warm-up calls, an
/// explicit module load, accelerated calls, and a daemon tick.
/// Populates `system.*`/`reconfig.*` (and the per-worker SMMU zeros)
/// plus `w<N>/calls` and `w<N>/fabric` trace lanes.
fn system_phase(scale: Scale, ctx: RunCtx, cap: &mut Capture) {
    const KERNEL: &str = "kernel scale(in float a[], out float b[], int n) {
        for (i in 0 .. n) { b[i] = sqrt(a[i] + 1.0) * 2.0; }
    }";
    let tracer = Tracer::buffering();
    let mut sys = SystemBuilder::new()
        .workers_per_node(4)
        .compute_nodes(2)
        .kernel(KERNEL, HashMap::from([("n".to_owned(), 4096.0)]))
        .with_checks(CheckPlane::armed(ctx.check))
        .build()
        .expect("kernel synthesizes");
    sys.set_tracer(&tracer);
    let n = scale.pick(1_024usize, 4_096);
    let args = || {
        let mut a = KernelArgs::new();
        a.bind_array("a", (0..n).map(|i| i as f64).collect())
            .bind_array("b", vec![0.0; n])
            .bind_scalar("n", n as f64);
        a
    };
    for _ in 0..12 {
        sys.call(NodeId(0), "scale", &mut args())
            .expect("call runs");
    }
    sys.load_module(NodeId(0), "scale").expect("module places");
    for _ in 0..4 {
        sys.call(NodeId(0), "scale", &mut args())
            .expect("call runs");
    }
    sys.daemon_tick();
    cap.metrics.merge(&sys.export_metrics());
    cap.trace.merge(tracer.take());
}

/// One observed cluster-partitioned run through the sharded engine at
/// `ctx.shards`: populates `shard.*` (including the `shard.occupancy.*`
/// bands) and per-cluster worker trace lanes, and returns the ProfPlane
/// extras. The outcome — and therefore everything merged into `cap` — is
/// byte-identical at any shard count; only the returned [`Profiler`] is
/// host-dependent.
fn shard_phase(scale: Scale, ctx: RunCtx, cap: &mut Capture) -> (ShardOccupancy, Profiler) {
    let cfg = scaling_config(scale.pick(4, 8), scale.pick(48, 256));
    let mut cp = CheckPlane::armed(ctx.check);
    let (outcome, wall) = run_shard_sim_observed_with(&cfg, ctx.shards, &mut cp);
    cap.metrics.merge(&outcome.metrics);
    cap.trace.merge(outcome.trace);
    (outcome.occupancy, wall)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_populates_every_layer() {
        let cap = capture_observability(Scale::Quick, crate::test_ctx());
        let m = &cap.metrics;
        assert!(m.counter("smmu.tlb_hits").unwrap() > 0);
        assert!(m.counter("smmu.tlb_misses").unwrap() > 0);
        assert!(m.counter("noc.messages").unwrap() > 0);
        assert!(m.counter("unimem.cache.hits").unwrap() > 0);
        assert!(m.counter("sched.tasks").unwrap() > 0);
        assert!(m.counter("system.calls_cpu").unwrap() > 0);
        assert!(m.counter("reconfig.loads").unwrap() > 0);
        assert!(m.counter("shard.occupancy.events").unwrap() > 0);
        assert!(!cap.trace.is_empty());
        // every phase contributed lanes
        let tracks = cap.trace.tracks();
        assert!(tracks.iter().any(|t| t == "smmu/walks"));
        assert!(tracks.iter().any(|t| t.starts_with("noc/link")));
        assert!(tracks.iter().any(|t| t.starts_with("sched1/w")));
        assert!(tracks.iter().any(|t| t == "w0/calls"));
        // exports are well-formed
        ecoscale_sim::json::parse(&cap.trace.to_chrome_json()).expect("trace JSON parses");
        ecoscale_sim::json::parse(&m.to_json()).expect("metrics JSON parses");
    }

    #[test]
    fn profile_capture_returns_occupancy_and_wall_timers() {
        let pc = capture_profile(Scale::Quick, crate::test_ctx());
        // occupancy bands cover the configured widths and saw events
        assert!(pc.occupancy.events > 0);
        assert!(pc.occupancy.windows > 0);
        // widths wider than the cluster count are clamped away
        let clusters = pc.occupancy.clusters();
        for w in ecoscale_core::OCCUPANCY_WIDTHS
            .iter()
            .filter(|&&w| w <= clusters)
        {
            let band = pc.occupancy.band(*w).expect("band armed");
            assert!(band.crit_events > 0, "band {w} never saw a window");
        }
        // the observed run arms the wall profiler
        assert!(pc.wall.is_enabled());
        assert!(pc.wall.total_ns() > 0);
        // the capture itself matches the plain observability capture
        let plain = capture_observability(Scale::Quick, crate::test_ctx());
        assert_eq!(
            pc.capture.trace.to_chrome_json(),
            plain.trace.to_chrome_json()
        );
        assert_eq!(pc.capture.metrics.to_json(), plain.metrics.to_json());
    }

    #[test]
    fn telemetry_capture_is_deterministic_and_well_formed() {
        let a = capture_telemetry(Scale::Quick, crate::test_ctx(), &CampaignSpec::off());
        let b = capture_telemetry(Scale::Quick, crate::test_ctx(), &CampaignSpec::off());
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.serve.series.lifetime("serve.submitted") > 0);
        assert!(a.shard.lifetime("shard.events") > 0);
        assert!(a.shard.rolled() > 0);
        ecoscale_sim::json::parse(&a.to_json()).expect("telemetry JSON parses");
        ecoscale_sim::json::parse(&a.flight_dump_json()).expect("dump JSON parses");
    }

    #[test]
    fn fault_capture_records_recovery_tracks() {
        let spec =
            CampaignSpec::parse("seed=3,crash=1ms,seu=400us,scrub=800us").expect("spec parses");
        let cap = capture_fault_campaign(Scale::Quick, crate::test_ctx(), &spec);
        let m = &cap.metrics;
        assert!(m.counter("sched.resilience.failures").unwrap() > 0);
        assert!(m.counter("seu.upsets").unwrap() > 0);
        assert!(m.get("resilience.recovery_ns").is_some());
        ecoscale_sim::json::parse(&cap.trace.to_chrome_json()).expect("trace JSON parses");
        ecoscale_sim::json::parse(&m.to_json()).expect("metrics JSON parses");
    }

    #[test]
    fn fault_capture_with_off_spec_matches_plain_runs() {
        let off = capture_fault_campaign(Scale::Quick, crate::test_ctx(), &CampaignSpec::off());
        // no resilience/seu instruments leak into a fault-free capture
        assert!(off.metrics.counter("seu.upsets").is_none());
        assert!(off.metrics.counter("resilience.failures").is_none());
        assert!(off.metrics.counter("sched.resilience.failures").is_none());
    }
}
