//! Seeded configuration fuzzing behind the `fuzz_configs` binary.
//!
//! A [`FuzzConfig`] is one point in the (topology × scheduler policy ×
//! fault campaign × scale × thread count × shard count × tenant count)
//! space. [`FuzzConfig::from_index`] enumerates the space
//! deterministically, so `fuzz_configs --count 500` sweeps the same 500
//! configurations on every machine, and any failure is reproducible from
//! its spec string alone.
//!
//! Each configuration drives eight seeded phases — scheduler lanes on the
//! work pool, a NoC transfer storm on the configured topology, a mixed-
//! permission SMMU translation stream, UNIMEM traffic over a tree NoC,
//! a multi-tenant ServePlane run (admission, batching, SLO conservation),
//! a SnapPlane checkpoint/restore of that serving run (mid-horizon
//! snapshot, resume, byte-identity against the uninterrupted run, typed
//! refusal of a corrupted copy), a TelePlane run of the same serving
//! configuration with windowed telemetry and a fully-armed flight
//! recorder (the capture export must be byte-identical across thread
//! counts and `telem.window_conserved` must hold), and the
//! cluster-partitioned sharded simulation — with a fully-armed
//! [`CheckPlane`], then repeats the run at the configuration's thread
//! count and asserts the metrics export is **byte-identical** to the
//! single-threaded run (the snap phase runs once per config, at the
//! configuration's thread count, and resumes against the serve phase's
//! single-threaded run; resume's own thread independence is pinned by
//! `tests/determinism.rs`). Thread and shard counts are passed down as
//! values, so configurations can run concurrently in one process.
//! The shard phase additionally re-runs on the
//! sharded engine at the configuration's shard count and asserts its
//! metrics, trace, and report exports match the 1-shard run byte for
//! byte. Any invariant violation or export divergence fails the config;
//! the binary then shrinks the configuration ([`shrink_config`]) and
//! prints a one-line `fuzz_configs --repro '<spec>'` command.
//!
//! `--inject-violation` arms a deliberate [`invariant::SABOTAGE`] failure
//! for every configuration with `tasks >= 24`, proving the
//! catch → shrink → repro pipeline end to end (the shrinker converges on
//! `tasks=24`).

use ecoscale_core::{
    linear_test_mix, run_serve_sim_with, run_shard_sim_with, serve_checkpoint, serve_resume_with,
    ServeArtifacts, ServeOutcome, ServeSimConfig, ShardSimConfig,
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
use ecoscale_sim::{
    CampaignSpec, Duration, MetricsRegistry, RunCtx, SimRng, TelemetryConfig, Time, ZipfTable,
};

use core::fmt;

/// Topology axis of the fuzz space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoKind {
    /// Two-level tree (`TreeTopology`).
    Tree,
    /// Single-stage crossbar.
    Crossbar,
    /// 2-D mesh.
    Mesh,
    /// Dragonfly groups.
    Dragonfly,
    /// Folded-Clos fat tree.
    FatTree,
}

impl TopoKind {
    const ALL: [TopoKind; 5] = [
        TopoKind::Tree,
        TopoKind::Crossbar,
        TopoKind::Mesh,
        TopoKind::Dragonfly,
        TopoKind::FatTree,
    ];

    fn as_str(self) -> &'static str {
        match self {
            TopoKind::Tree => "tree",
            TopoKind::Crossbar => "xbar",
            TopoKind::Mesh => "mesh",
            TopoKind::Dragonfly => "dfly",
            TopoKind::FatTree => "fat",
        }
    }

    fn parse(s: &str) -> Option<TopoKind> {
        TopoKind::ALL.iter().copied().find(|t| t.as_str() == s)
    }
}

/// Scheduler-policy axis of the fuzz space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedKind {
    /// `SchedPolicy::LazyLocal` with this probe count.
    Lazy(u32),
    /// `SchedPolicy::Centralized`.
    Central,
    /// `SchedPolicy::RandomPush`.
    Random,
}

impl SchedKind {
    fn policy(self) -> SchedPolicy {
        match self {
            SchedKind::Lazy(probes) => SchedPolicy::LazyLocal { probes },
            SchedKind::Central => SchedPolicy::Centralized,
            SchedKind::Random => SchedPolicy::RandomPush,
        }
    }

    fn parse(s: &str) -> Option<SchedKind> {
        match s {
            "central" => Some(SchedKind::Central),
            "random" => Some(SchedKind::Random),
            _ => {
                let p = s.strip_prefix("lazy")?;
                if p.is_empty() {
                    Some(SchedKind::Lazy(2))
                } else {
                    p.parse().ok().map(SchedKind::Lazy)
                }
            }
        }
    }
}

impl fmt::Display for SchedKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedKind::Lazy(p) => write!(f, "lazy{p}"),
            SchedKind::Central => write!(f, "central"),
            SchedKind::Random => write!(f, "random"),
        }
    }
}

/// Fault-campaign axis of the fuzz space. Each kind expands to a seeded
/// [`CampaignSpec`] via [`FuzzConfig::campaign`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// No injection (`CampaignSpec::off`).
    None,
    /// Worker crashes.
    Crash,
    /// Worker stalls.
    Stall,
    /// Link degradation.
    Link,
    /// SEU upsets with scrubbing.
    Seu,
    /// Everything at once.
    Mixed,
}

impl FaultKind {
    const ALL: [FaultKind; 6] = [
        FaultKind::None,
        FaultKind::Crash,
        FaultKind::Stall,
        FaultKind::Link,
        FaultKind::Seu,
        FaultKind::Mixed,
    ];

    fn as_str(self) -> &'static str {
        match self {
            FaultKind::None => "none",
            FaultKind::Crash => "crash",
            FaultKind::Stall => "stall",
            FaultKind::Link => "link",
            FaultKind::Seu => "seu",
            FaultKind::Mixed => "mixed",
        }
    }

    fn parse(s: &str) -> Option<FaultKind> {
        FaultKind::ALL.iter().copied().find(|k| k.as_str() == s)
    }
}

/// One point in the fuzzed configuration space. The `Display` form is the
/// canonical spec string accepted by [`FuzzConfig::parse`] and the
/// binary's `--repro` flag.
///
/// Every config serves the same kernel mix, so configs that share
/// [`FuzzConfig::artifacts`] build it once between them. `Display`,
/// [`FuzzConfig::parse`] and equality see only the nine spec fields.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Root seed for every phase RNG and fault campaign.
    pub seed: u64,
    /// NoC topology driven by the transfer phase.
    pub topo: TopoKind,
    /// Scheduler policy for the cluster lanes.
    pub sched: SchedKind,
    /// Fault campaign kind.
    pub faults: FaultKind,
    /// Workload scale (tasks per scheduler lane; message/translation
    /// counts derive from it).
    pub tasks: usize,
    /// Cluster width (workers, UNIMEM nodes, topology sizing).
    pub workers: usize,
    /// `ECOSCALE_THREADS` value the run is repeated under and compared
    /// byte-for-byte against the single-threaded export.
    pub threads: usize,
    /// Shard count the cluster-partitioned phase is repeated under and
    /// compared byte-for-byte against its 1-shard export.
    pub shards: usize,
    /// Tenant count for the ServePlane phase (traffic sources over the
    /// shared accelerators; serving cells derive from it).
    pub tenants: usize,
    /// The serving mix's build, shared by the config's serving phases and
    /// by every config holding a clone of this handle.
    pub artifacts: ServeArtifacts,
}

impl PartialEq for FuzzConfig {
    fn eq(&self, other: &Self) -> bool {
        self.seed == other.seed
            && self.topo == other.topo
            && self.sched == other.sched
            && self.faults == other.faults
            && self.tasks == other.tasks
            && self.workers == other.workers
            && self.threads == other.threads
            && self.shards == other.shards
            && self.tenants == other.tenants
    }
}

impl Eq for FuzzConfig {}

impl fmt::Display for FuzzConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={},topo={},sched={},faults={},tasks={},workers={},threads={},shards={},tenants={}",
            self.seed,
            self.topo.as_str(),
            self.sched,
            self.faults.as_str(),
            self.tasks,
            self.workers,
            self.threads,
            self.shards,
            self.tenants
        )
    }
}

/// A spec-string parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzSpecError {
    pair: String,
    reason: String,
}

impl fmt::Display for FuzzSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fuzz config pair `{}`: {}", self.pair, self.reason)
    }
}

fn spec_err(pair: &str, reason: impl Into<String>) -> FuzzSpecError {
    FuzzSpecError {
        pair: pair.to_string(),
        reason: reason.into(),
    }
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0,
            topo: TopoKind::Tree,
            sched: SchedKind::Lazy(2),
            faults: FaultKind::None,
            tasks: 32,
            workers: 8,
            threads: 1,
            shards: 1,
            tenants: 2,
            artifacts: ServeArtifacts::default(),
        }
    }
}

impl FuzzConfig {
    /// The `index`-th configuration of the deterministic sweep. Pure
    /// function of `index`; every field is drawn from a salted [`SimRng`].
    pub fn from_index(index: u64) -> FuzzConfig {
        let mut rng = SimRng::seed_from(0xF022_C0DE ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let seed = rng.gen_range_u64(0, 1 << 32);
        let topo = TopoKind::ALL[rng.gen_range_usize(0, TopoKind::ALL.len())];
        let sched = match rng.gen_range_usize(0, 3) {
            0 => SchedKind::Lazy(1 + rng.gen_range_u64(0, 3) as u32),
            1 => SchedKind::Central,
            _ => SchedKind::Random,
        };
        let faults = FaultKind::ALL[rng.gen_range_usize(0, FaultKind::ALL.len())];
        let tasks = 16 + rng.gen_range_usize(0, 145);
        let workers = 4 + rng.gen_range_usize(0, 13);
        let threads = 1 + rng.gen_range_usize(0, 8);
        let shards = 1 + rng.gen_range_usize(0, 8);
        let tenants = 1 + rng.gen_range_usize(0, 4);
        FuzzConfig {
            seed,
            topo,
            sched,
            faults,
            tasks,
            workers,
            threads,
            shards,
            tenants,
            artifacts: ServeArtifacts::default(),
        }
    }

    /// Parses a spec string (`key=value,...` over the `Display` keys).
    /// Missing keys keep their [`Default`] values, so partial specs are
    /// valid; unknown keys and malformed values are errors.
    pub fn parse(s: &str) -> Result<FuzzConfig, FuzzSpecError> {
        let mut cfg = FuzzConfig::default();
        for pair in s.split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let Some((k, v)) = pair.split_once('=') else {
                return Err(spec_err(pair, "expected key=value"));
            };
            match k {
                "seed" => {
                    cfg.seed = v
                        .parse()
                        .map_err(|e| spec_err(pair, format!("bad seed: {e}")))?;
                }
                "topo" => {
                    cfg.topo = TopoKind::parse(v)
                        .ok_or_else(|| spec_err(pair, "want tree|xbar|mesh|dfly|fat"))?;
                }
                "sched" => {
                    cfg.sched = SchedKind::parse(v)
                        .ok_or_else(|| spec_err(pair, "want lazy<N>|central|random"))?;
                }
                "faults" => {
                    cfg.faults = FaultKind::parse(v)
                        .ok_or_else(|| spec_err(pair, "want none|crash|stall|link|seu|mixed"))?;
                }
                "tasks" => {
                    cfg.tasks = v
                        .parse()
                        .map_err(|e| spec_err(pair, format!("bad tasks: {e}")))?;
                    if cfg.tasks == 0 {
                        return Err(spec_err(pair, "tasks must be >= 1"));
                    }
                }
                "workers" => {
                    cfg.workers = v
                        .parse()
                        .map_err(|e| spec_err(pair, format!("bad workers: {e}")))?;
                    if cfg.workers < 2 {
                        return Err(spec_err(pair, "workers must be >= 2"));
                    }
                }
                "threads" => {
                    cfg.threads = v
                        .parse()
                        .map_err(|e| spec_err(pair, format!("bad threads: {e}")))?;
                    if cfg.threads == 0 {
                        return Err(spec_err(pair, "threads must be >= 1"));
                    }
                }
                "shards" => {
                    cfg.shards = v
                        .parse()
                        .map_err(|e| spec_err(pair, format!("bad shards: {e}")))?;
                    if cfg.shards == 0 {
                        return Err(spec_err(pair, "shards must be >= 1"));
                    }
                }
                "tenants" => {
                    cfg.tenants = v
                        .parse()
                        .map_err(|e| spec_err(pair, format!("bad tenants: {e}")))?;
                    if cfg.tenants == 0 {
                        return Err(spec_err(pair, "tenants must be >= 1"));
                    }
                }
                _ => return Err(spec_err(pair, "unknown key")),
            }
        }
        Ok(cfg)
    }

    /// The seeded fault campaign this configuration runs under.
    pub fn campaign(&self) -> CampaignSpec {
        let s = self.seed;
        let text = match self.faults {
            FaultKind::None => return CampaignSpec::off(),
            FaultKind::Crash => format!("seed={s},crash=2ms"),
            FaultKind::Stall => format!("seed={s},stall=900us,stall_for=120us"),
            FaultKind::Link => format!("seed={s},link=700us,link_for=90us,link_slowdown=3"),
            FaultKind::Seu => format!("seed={s},seu=400us,scrub=800us"),
            FaultKind::Mixed => format!(
                "seed={s},crash=2ms,stall=900us,stall_for=120us,\
                 link=700us,link_for=90us,seu=400us,scrub=800us"
            ),
        };
        CampaignSpec::parse(&text).expect("fuzz campaign specs are well-formed")
    }
}

/// Statistics from one clean configuration run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// Individual invariant checks evaluated across both thread settings.
    pub checks_run: u64,
}

/// Why a configuration failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzFailure {
    /// The failing configuration (pre-shrink).
    pub config: FuzzConfig,
    /// Violation or divergence detail.
    pub detail: String,
}

impl fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "config `{}`: {}", self.config, self.detail)
    }
}

/// Runs `cfg` with every invariant armed, then re-runs it at
/// `cfg.threads` and asserts the metrics export is byte-identical to the
/// single-threaded run. `inject` arms the test-only [`invariant::SABOTAGE`]
/// hook (fires when `cfg.tasks >= 24`).
pub fn run_config(cfg: &FuzzConfig, inject: bool) -> Result<RunReport, FuzzFailure> {
    run_config_with(cfg, inject, 0)
}

/// [`run_config`] with every serving cell's system self-checking at cadence `check`.
pub fn run_config_with(
    cfg: &FuzzConfig,
    inject: bool,
    check: u64,
) -> Result<RunReport, FuzzFailure> {
    let fail = |detail: String| FuzzFailure {
        config: cfg.clone(),
        detail,
    };
    // One serving config for every serving phase, holding a clone of
    // `cfg.artifacts`: the mix is built at most once per handle. The serve
    // phase leaves its thread count at `cfg.threads` for the snapshot
    // phase.
    let mut scfg = serve_sim_config(cfg, check);
    let ((_, full), mut checks) = at_one_and_n(
        "serve phase",
        "threads",
        cfg.threads,
        |threads| {
            scfg.ctx.threads = threads;
            let (metrics, cp, served) = run_once(cfg, &scfg, inject);
            ((metrics, served), cp)
        },
        |a, b| {
            (a.0 != b.0).then(|| format!("metrics export ({} vs {} bytes)", a.0.len(), b.0.len()))
        },
    )
    .map_err(fail)?;
    // SnapPlane phase: checkpoint/resume the serving run once per
    // config, against the serve phase's uninterrupted run (the
    // thread-count equivalence of resume itself is pinned by
    // tests/determinism.rs, so re-running it per thread setting would
    // only duplicate work).
    let mut cp_snap = CheckPlane::enabled(1);
    snap_fuzz(&scfg, &full, &mut cp_snap);
    if let Some(v) = cp_snap.first() {
        return Err(fail(format!("snap phase: {v}")));
    }
    checks += cp_snap.checks_run();
    // TelePlane phase: the serving configuration re-runs with windowed
    // telemetry and a fully-armed flight recorder; the capture export
    // (series + per-cell flight rings) must be byte-identical at 1
    // thread and at the configured thread count, and the series'
    // `telem.window_conserved` invariant must hold in both.
    let (_, telem_checks) = at_one_and_n(
        "telem phase",
        "threads",
        cfg.threads,
        |threads| telem_once(&scfg, threads),
        |a, b| (a != b).then(|| format!("capture ({} vs {} bytes)", a.len(), b.len())),
    )
    .map_err(fail)?;
    checks += telem_checks;
    // Sharded-engine phase: the cluster-partitioned simulation must
    // export byte-identically at 1 shard and at the configured count.
    let shcfg = shard_sim_config(cfg);
    let (_, shard_checks) = at_one_and_n(
        "shard sim",
        "shards",
        cfg.shards,
        |shards| {
            let mut cp = CheckPlane::enabled(1);
            (run_shard_sim_with(&shcfg, Some(shards), &mut cp), cp)
        },
        |a, b| {
            if a.metrics.to_json() != b.metrics.to_json() {
                Some("metrics".to_owned())
            } else if a.trace.to_chrome_json() != b.trace.to_chrome_json() {
                Some("trace".to_owned())
            } else {
                let (a, b) = (a.report(), b.report());
                (a != b).then(|| format!("report ({a} vs {b})"))
            }
        },
    )
    .map_err(fail)?;
    checks += shard_checks;
    Ok(RunReport { checks_run: checks })
}

/// Runs a phase at 1 and, when `n != 1`, again at `n` (threads or
/// shards, as `axis` names). Neither run may violate an invariant, and
/// `diverged` names the export, if any, that differs between the two.
/// Returns the first run's outcome and the checks both runs made.
fn at_one_and_n<T>(
    phase: &str,
    axis: &str,
    n: usize,
    mut run: impl FnMut(usize) -> (T, CheckPlane),
    diverged: impl Fn(&T, &T) -> Option<String>,
) -> Result<(T, u64), String> {
    let (base, cp) = run(1);
    if let Some(v) = cp.first() {
        return Err(format!("{phase} at {axis}=1: {v}"));
    }
    let mut checks = cp.checks_run();
    if n != 1 {
        let (alt, cp) = run(n);
        if let Some(v) = cp.first() {
            return Err(format!("{phase} at {axis}={n}: {v}"));
        }
        checks += cp.checks_run();
        if let Some(what) = diverged(&base, &alt) {
            return Err(format!("{phase} {what} diverged between {axis}=1 and {n}"));
        }
    }
    Ok((base, checks))
}

/// The cluster-partitioned simulation a configuration's shard phase runs:
/// small enough to stay cheap across a 500-config sweep, varied enough
/// (clusters, workload, seed all derive from the config) to exercise
/// uneven cluster-to-shard packings.
fn shard_sim_config(cfg: &FuzzConfig) -> ShardSimConfig {
    let mut scfg = ShardSimConfig::new(2 + cfg.workers % 5, 2 + cfg.workers % 3);
    scfg.tasks_per_cluster = cfg.tasks.clamp(8, 48);
    scfg.flops = 400;
    scfg.spacing_ns = 60;
    scfg.seed = cfg.seed ^ 0x5da2_c0de;
    scfg
}

/// Shrinks a failing configuration to a smaller one that still fails,
/// trying scale reductions and axis simplifications to a fixed point.
/// `still_fails` must be deterministic (it re-runs the candidate).
pub fn shrink_config(
    cfg: &FuzzConfig,
    mut still_fails: impl FnMut(&FuzzConfig) -> bool,
) -> FuzzConfig {
    let mut cur = cfg.clone();
    loop {
        let Some(next) = shrink_candidates(&cur).into_iter().find(|c| still_fails(c)) else {
            return cur;
        };
        cur = next;
    }
}

/// Strictly-simpler neighbours of `c`, most aggressive first.
fn shrink_candidates(c: &FuzzConfig) -> Vec<FuzzConfig> {
    let mut out = Vec::new();
    if c.tasks > 1 {
        out.push(FuzzConfig {
            tasks: (c.tasks / 2).max(1),
            ..c.clone()
        });
        out.push(FuzzConfig {
            tasks: c.tasks - 1,
            ..c.clone()
        });
    }
    if c.workers > 2 {
        out.push(FuzzConfig {
            workers: (c.workers / 2).max(2),
            ..c.clone()
        });
        out.push(FuzzConfig {
            workers: c.workers - 1,
            ..c.clone()
        });
    }
    if c.threads > 1 {
        out.push(FuzzConfig {
            threads: 1,
            ..c.clone()
        });
    }
    if c.shards > 1 {
        out.push(FuzzConfig {
            shards: 1,
            ..c.clone()
        });
    }
    if c.tenants > 1 {
        out.push(FuzzConfig {
            tenants: 1,
            ..c.clone()
        });
    }
    if c.faults != FaultKind::None {
        out.push(FuzzConfig {
            faults: FaultKind::None,
            ..c.clone()
        });
    }
    if c.topo != TopoKind::Tree {
        out.push(FuzzConfig {
            topo: TopoKind::Tree,
            ..c.clone()
        });
    }
    if c.sched != SchedKind::Lazy(2) {
        out.push(FuzzConfig {
            sched: SchedKind::Lazy(2),
            ..c.clone()
        });
    }
    if c.seed != 0 {
        out.push(FuzzConfig {
            seed: 0,
            ..c.clone()
        });
    }
    out.dedup();
    out
}

/// One full pass over the five phases at `scfg.ctx.threads`. Returns the
/// metrics export, the aggregated plane and the serve phase's outcome.
fn run_once(
    cfg: &FuzzConfig,
    scfg: &ServeSimConfig,
    inject: bool,
) -> (String, CheckPlane, ServeOutcome) {
    let mut cp = CheckPlane::enabled(1);
    let mut m = MetricsRegistry::new();
    sched_fuzz(cfg, scfg.ctx, &mut cp, &mut m);
    noc_fuzz(cfg, &mut cp, &mut m);
    smmu_fuzz(cfg, &mut cp, &mut m);
    unimem_fuzz(cfg, &mut cp, &mut m);
    let served = serve_fuzz(scfg, &mut cp, &mut m);
    if inject {
        cp.check(invariant::SABOTAGE, cfg.tasks < 24, || {
            format!(
                "deliberate violation armed at tasks >= 24 (tasks = {})",
                cfg.tasks
            )
        });
    }
    (m.to_json(), cp, served)
}

/// Two scheduler lanes on `ctx`'s threads, each a seeded [`ClusterSim`]
/// under the configured policy (and fault campaign) with an armed
/// per-lane plane, folded back in input order.
fn sched_fuzz(cfg: &FuzzConfig, ctx: RunCtx, cp: &mut CheckPlane, m: &mut MetricsRegistry) {
    let spec = cfg.campaign();
    let (tasks, workers, seed) = (cfg.tasks, cfg.workers, cfg.seed);
    let policy = cfg.sched.policy();
    let lanes: Vec<u64> = vec![0, 1];
    let results = ctx.map(lanes, move |lane| {
        let trace = skewed_trace(tasks, workers, 100_000, 1.1, seed ^ lane);
        let mut sim = ClusterSim::new(workers, policy, seed.wrapping_add(lane))
            .with_checks(CheckPlane::enabled(4));
        if !spec.is_off() {
            sim = sim.with_faults(&spec, ResilienceConfig::full());
        }
        sim.run(&trace);
        let mut lm = MetricsRegistry::new();
        sim.export_metrics(&mut lm, &format!("sched{lane}"));
        (lm, sim.checks().clone())
    });
    for (lm, lane_cp) in results {
        m.merge(&lm);
        cp.absorb(&lane_cp);
    }
}

/// Seeded transfer storm on the configured topology, link faults armed
/// when the campaign degrades links.
fn noc_fuzz(cfg: &FuzzConfig, cp: &mut CheckPlane, m: &mut MetricsRegistry) {
    let w = cfg.workers;
    let tier = w.div_ceil(4).max(2);
    match cfg.topo {
        TopoKind::Tree => drive_net(
            cfg,
            4 * tier,
            Network::new(TreeTopology::new(&[4, tier]), NetworkConfig::default()),
            cp,
            m,
        ),
        TopoKind::Crossbar => drive_net(
            cfg,
            w,
            Network::new(CrossbarTopology::new(w), NetworkConfig::default()),
            cp,
            m,
        ),
        TopoKind::Mesh => drive_net(
            cfg,
            4 * tier,
            Network::new(Mesh2d::new(4, tier), NetworkConfig::default()),
            cp,
            m,
        ),
        TopoKind::Dragonfly => drive_net(
            cfg,
            4 * tier,
            Network::new(Dragonfly::new(2, 2, tier), NetworkConfig::default()),
            cp,
            m,
        ),
        TopoKind::FatTree => drive_net(
            cfg,
            4 * tier,
            Network::new(
                FatTreeTopology::new(&[4, tier], 2),
                NetworkConfig::default(),
            ),
            cp,
            m,
        ),
    }
}

fn drive_net<T: Topology>(
    cfg: &FuzzConfig,
    nodes: usize,
    mut net: Network<T>,
    cp: &mut CheckPlane,
    m: &mut MetricsRegistry,
) {
    let spec = cfg.campaign();
    if !spec.is_off() {
        net.set_faults(&spec);
    }
    let mut rng = SimRng::seed_from(cfg.seed ^ 0x0c0c_0c0c);
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
}

/// Mixed-permission translation stream, including out-of-range and
/// permission-denied touches, through one dual-stage SMMU.
fn smmu_fuzz(cfg: &FuzzConfig, cp: &mut CheckPlane, m: &mut MetricsRegistry) {
    const PERMS: [PagePerms; 3] = [PagePerms::READ, PagePerms::RW, PagePerms::WRITE];
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
}

/// A short multi-tenant ServePlane run over the linear test mix: the
/// configured tenant count partitioned across up to two serving cells,
/// with the configuration's fault campaign injected. The serve plane's
/// conservation and queue-bound invariants are absorbed into `cp`, and
/// the `serve.*` metrics join the byte-identity comparison.
fn serve_fuzz(scfg: &ServeSimConfig, cp: &mut CheckPlane, m: &mut MetricsRegistry) -> ServeOutcome {
    let out = run_serve_sim_with(scfg, cp);
    m.merge(&out.metrics);
    out
}

/// The serving configuration a fuzz point drives, shared by the serve,
/// SnapPlane and TelePlane phases: its systems self-check at cadence
/// `check`, and it holds a clone of `cfg.artifacts`.
pub fn serve_sim_config(cfg: &FuzzConfig, check: u64) -> ServeSimConfig {
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
    scfg.ctx.check = check;
    scfg.artifacts = cfg.artifacts.clone();
    if cfg.faults != FaultKind::None {
        scfg.faults = cfg.campaign();
    }
    scfg
}

/// SnapPlane phase: checkpoint the configuration's serving run at
/// mid-horizon, restore the snapshot into freshly built cells, and
/// require the resumed serving + metrics exports to be byte-identical
/// to `full`, the serve phase's uninterrupted run
/// (`snap.resume_equivalent`). The resume path itself re-arms
/// `snap.roundtrip_identical` and `snap.version_refused` per cell, and a
/// deliberately corrupted copy of the stream must be refused with a
/// typed error rather than partially applied.
fn snap_fuzz(scfg: &ServeSimConfig, full: &ServeOutcome, cp: &mut CheckPlane) {
    let at = Time::ZERO + Duration::from_us(75);
    let bytes = serve_checkpoint(scfg, at);
    match serve_resume_with(scfg, &bytes, cp) {
        Ok(resumed) => {
            cp.check(
                invariant::SNAP_RESUME_EQUIVALENT,
                resumed.serving.to_json() == full.serving.to_json()
                    && resumed.metrics.to_json() == full.metrics.to_json(),
                || format!("resume at {at} diverged from the uninterrupted run"),
            );
        }
        Err(e) => {
            cp.check(invariant::SNAP_RESUME_EQUIVALENT, false, || {
                format!("checkpoint at {at} refused on resume: {e}")
            });
        }
    }
    let mut bad = bytes.clone();
    let tail = bad.len() - 1;
    bad[tail] ^= 0x01;
    cp.check(
        invariant::SNAP_VERSION_REFUSED,
        serve_resume_with(scfg, &bad, &mut CheckPlane::enabled(1)).is_err(),
        || "corrupted snapshot was not refused".to_string(),
    );
}

/// TelePlane phase body: one serving run on `threads` threads with 25µs
/// telemetry windows and every trigger armed, returning the capture
/// export and the plane that absorbed the run's invariants (including
/// `telem.window_conserved`).
fn telem_once(scfg: &ServeSimConfig, threads: usize) -> (String, CheckPlane) {
    let mut scfg = scfg.clone();
    scfg.telemetry = Some(TelemetryConfig::new(Duration::from_us(25)));
    scfg.ctx.threads = threads;
    let mut cp = CheckPlane::enabled(1);
    let out = run_serve_sim_with(&scfg, &mut cp);
    let telem = out.telemetry.expect("telemetry armed in the fuzz config");
    (telem.to_json(), cp)
}

/// Zipf-skewed UNIMEM traffic from `workers` nodes over a tree NoC.
fn unimem_fuzz(cfg: &FuzzConfig, cp: &mut CheckPlane, m: &mut MetricsRegistry) {
    let nodes = cfg.workers;
    let mut net = Network::new(TreeTopology::new(&[nodes]), NetworkConfig::default());
    let mut mem = UnimemSystem::new(nodes, CacheConfig::l1_default(), DramModel::default());
    let mut rng = SimRng::seed_from(cfg.seed ^ 0x0b5e_0b5e);
    let mut now = Time::ZERO;
    let owners = ZipfTable::new(nodes, 1.1);
    for _ in 0..cfg.tasks * 3 {
        let node = NodeId(rng.gen_range_usize(0, nodes));
        let owner = NodeId(owners.draw(&mut rng));
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_string_round_trips() {
        for i in 0..32 {
            let cfg = FuzzConfig::from_index(i);
            let parsed = FuzzConfig::parse(&cfg.to_string()).expect("round trip parses");
            assert_eq!(parsed, cfg, "index {i}");
        }
    }

    #[test]
    fn clones_share_the_serving_build() {
        let cfg = FuzzConfig::from_index(3);
        let early = cfg.clone();
        let stranger = FuzzConfig::from_index(3);
        assert_eq!(early, stranger, "equality sees only the spec");
        run_serve_sim_with(&serve_sim_config(&cfg, 0), &mut CheckPlane::disabled());
        assert!(
            early.artifacts.is_built(),
            "a clone made before the build shares it"
        );
        assert!(!stranger.artifacts.is_built());
    }

    #[test]
    fn from_index_is_deterministic_and_varied() {
        assert_eq!(FuzzConfig::from_index(7), FuzzConfig::from_index(7));
        let topos: std::collections::BTreeSet<&str> = (0..64)
            .map(|i| FuzzConfig::from_index(i).topo.as_str())
            .collect();
        assert!(topos.len() >= 4, "sweep covers topologies: {topos:?}");
        let faults: std::collections::BTreeSet<&str> = (0..64)
            .map(|i| FuzzConfig::from_index(i).faults.as_str())
            .collect();
        assert!(faults.len() >= 4, "sweep covers fault kinds: {faults:?}");
    }

    #[test]
    fn malformed_specs_are_rejected_with_context() {
        let e = FuzzConfig::parse("topo=ring").unwrap_err();
        assert_eq!(
            e.to_string(),
            "bad fuzz config pair `topo=ring`: want tree|xbar|mesh|dfly|fat"
        );
        assert!(FuzzConfig::parse("tasks=0").is_err());
        assert!(FuzzConfig::parse("threads=0").is_err());
        assert!(FuzzConfig::parse("shards=0").is_err());
        assert!(FuzzConfig::parse("workers=1").is_err());
        assert!(FuzzConfig::parse("bogus=1").is_err());
        assert!(FuzzConfig::parse("noequals").is_err());
        // partial specs keep defaults
        let cfg = FuzzConfig::parse("tasks=5,threads=3").unwrap();
        assert_eq!(cfg.tasks, 5);
        assert_eq!(cfg.threads, 3);
        assert_eq!(cfg.topo, TopoKind::Tree);
    }

    #[test]
    fn clean_config_runs_green_across_threads() {
        let cfg = FuzzConfig {
            seed: 11,
            topo: TopoKind::Mesh,
            sched: SchedKind::Central,
            faults: FaultKind::Mixed,
            tasks: 40,
            workers: 6,
            threads: 4,
            shards: 4,
            tenants: 3,
            ..FuzzConfig::default()
        };
        let report =
            run_config_with(&cfg, false, crate::test_ctx().check).expect("clean config passes");
        assert!(report.checks_run > 0);
    }

    #[test]
    fn shard_axis_sweeps_and_shrinks() {
        let shards: std::collections::BTreeSet<usize> =
            (0..64).map(|i| FuzzConfig::from_index(i).shards).collect();
        assert!(shards.len() >= 4, "sweep covers shard counts: {shards:?}");
        let tenants: std::collections::BTreeSet<usize> =
            (0..64).map(|i| FuzzConfig::from_index(i).tenants).collect();
        assert!(
            tenants.len() >= 3,
            "sweep covers tenant counts: {tenants:?}"
        );
        let wide = FuzzConfig {
            shards: 6,
            ..FuzzConfig::default()
        };
        assert!(shrink_candidates(&wide)
            .iter()
            .any(|c| c.shards == 1 && c.tasks == wide.tasks));
    }

    #[test]
    fn injected_violation_is_caught_and_shrinks_to_threshold() {
        let cfg = FuzzConfig {
            tasks: 97,
            threads: 1,
            ..FuzzConfig::default()
        };
        let check = crate::test_ctx().check;
        let err = run_config_with(&cfg, true, check).expect_err("sabotage fires");
        assert!(
            err.detail.contains("check.sabotage"),
            "detail: {}",
            err.detail
        );
        let min = shrink_config(&cfg, |c| run_config_with(c, true, check).is_err());
        assert_eq!(
            min.tasks, 24,
            "shrinker converges on the sabotage threshold"
        );
        assert_eq!(min.workers, 2);
        assert_eq!(min.faults, FaultKind::None);
        assert_eq!(min.tenants, 1, "the serve axis shrinks away too");
    }
}
