//! The assembled ECOSCALE system and its end-to-end call path.
//!
//! [`SystemBuilder`] wires the substrate together: a tree of Compute
//! Nodes and Workers (Fig. 3), UNIMEM across all partitions, one module
//! library synthesized from the registered kernels, and a runtime daemon
//! per Worker. [`EcoscaleSystem::call`] is the whole paper in one
//! function: the per-worker scheduler consults the execution history and
//! its prediction models, picks CPU / local accelerator / remote
//! accelerator (UNILOGIC), *functionally executes* the kernel so results
//! are real, charges the path's simulated cost, and feeds the outcome
//! back into the history that the reconfiguration daemon reads.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use ecoscale_fpga::{Resources, SeuScrubber};
use ecoscale_hls::{
    parse_kernel, ExecKernelError, Kernel, KernelAnalysis, KernelArgs, ModuleLibrary,
    ParseKernelError,
};
use ecoscale_mem::{CacheConfig, DramModel, UnimemSystem};
use ecoscale_noc::{Network, NetworkConfig, NodeId, Topology, TreeTopology};
use ecoscale_runtime::{DeviceClass, Domain, ReconfigError, ResilienceConfig, ResilienceManager};
use ecoscale_sim::check::{invariant, CheckPlane};
use ecoscale_sim::{
    fault::salt, CampaignSpec, Counter, Duration, Energy, Histogram, MetricsRegistry, Persist,
    RestoreError, SnapIo, Time, Tracer, TrackId,
};

use crate::unilogic::{AccessPath, UnilogicModel};
use crate::worker::Worker;

/// Errors building a system.
#[derive(Debug)]
pub enum BuildSystemError {
    /// A registered kernel failed to parse.
    Parse(ParseKernelError),
    /// HLS could not estimate a kernel (e.g. unresolved trip counts).
    Estimate(ecoscale_hls::EstimateError),
    /// A tree level has fewer than 2 members (the tree needs a fanout of
    /// at least 2).
    Shape {
        /// Which level: `"workers per node"` or `"compute nodes"`.
        what: &'static str,
        /// The configured count.
        got: usize,
    },
}

impl fmt::Display for BuildSystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildSystemError::Parse(e) => write!(f, "kernel parse failed: {e}"),
            BuildSystemError::Estimate(e) => write!(f, "kernel estimation failed: {e}"),
            BuildSystemError::Shape { what, got } => {
                write!(f, "need at least 2 {what}, got {got}")
            }
        }
    }
}

impl Error for BuildSystemError {}

impl From<ParseKernelError> for BuildSystemError {
    fn from(e: ParseKernelError) -> Self {
        BuildSystemError::Parse(e)
    }
}

impl From<ecoscale_hls::EstimateError> for BuildSystemError {
    fn from(e: ecoscale_hls::EstimateError) -> Self {
        BuildSystemError::Estimate(e)
    }
}

/// Errors from one call.
#[derive(Debug)]
pub enum CallError {
    /// No registered kernel has this name.
    UnknownFunction {
        /// The requested name.
        name: String,
    },
    /// The functional execution failed.
    Exec(ExecKernelError),
}

impl fmt::Display for CallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CallError::UnknownFunction { name } => write!(f, "unknown function `{name}`"),
            CallError::Exec(e) => write!(f, "kernel execution failed: {e}"),
        }
    }
}

impl Error for CallError {}

impl From<ExecKernelError> for CallError {
    fn from(e: ExecKernelError) -> Self {
        CallError::Exec(e)
    }
}

/// What one call produced (besides its array results, which land in the
/// caller's [`KernelArgs`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CallOutcome {
    /// Where the call ran.
    pub device: DeviceClass,
    /// Which Worker's accelerator served it (for the FPGA paths).
    pub served_by: NodeId,
    /// Call latency.
    pub latency: Duration,
    /// Call energy.
    pub energy: Energy,
    /// System time when the call completed.
    pub completed_at: Time,
}

/// Builder for [`EcoscaleSystem`].
///
/// # Example
///
/// ```
/// use ecoscale_core::SystemBuilder;
/// use std::collections::HashMap;
///
/// let system = SystemBuilder::new()
///     .workers_per_node(4)
///     .compute_nodes(2)
///     .kernel(
///         "kernel scale(in float a[], out float b[], int n) {
///              for (i in 0 .. n) { b[i] = 2.0 * a[i]; }
///          }",
///         HashMap::from([("n".to_string(), 4096.0)]),
///     )
///     .build()?;
/// assert_eq!(system.num_workers(), 8);
/// # Ok::<(), ecoscale_core::system::BuildSystemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    workers_per_node: usize,
    compute_nodes: usize,
    fabric_cols: u32,
    fabric_rows: u32,
    hls_budget: Resources,
    kernels: Vec<(String, HashMap<String, f64>)>,
    check: CheckPlane,
}

impl Default for SystemBuilder {
    fn default() -> Self {
        SystemBuilder {
            workers_per_node: 4,
            compute_nodes: 4,
            // roomy enough for two default-budget modules side by side
            fabric_cols: 72,
            fabric_rows: 80,
            hls_budget: Resources::new(2000, 64, 64),
            kernels: Vec::new(),
            check: CheckPlane::disabled(),
        }
    }
}

impl SystemBuilder {
    /// Creates a builder with defaults (4×4 Workers, 40×60 fabric).
    pub fn new() -> SystemBuilder {
        SystemBuilder::default()
    }

    /// Workers per Compute Node (at least 2, checked by
    /// [`SystemBuilder::build`]).
    pub fn workers_per_node(mut self, n: usize) -> SystemBuilder {
        self.workers_per_node = n;
        self
    }

    /// Number of Compute Nodes (at least 2, checked by
    /// [`SystemBuilder::build`]).
    pub fn compute_nodes(mut self, n: usize) -> SystemBuilder {
        self.compute_nodes = n;
        self
    }

    /// Reconfigurable-block geometry per Worker.
    pub fn fabric(mut self, cols: u32, rows: u32) -> SystemBuilder {
        self.fabric_cols = cols;
        self.fabric_rows = rows;
        self
    }

    /// HLS resource budget per module.
    pub fn hls_budget(mut self, budget: Resources) -> SystemBuilder {
        self.hls_budget = budget;
        self
    }

    /// Registers a kernel (source + scalar hints for HLS).
    pub fn kernel(mut self, source: &str, hints: HashMap<String, f64>) -> SystemBuilder {
        self.kernels.push((source.to_owned(), hints));
        self
    }

    /// Installs the plane [`EcoscaleSystem::daemon_tick`] self-checks with.
    pub fn with_checks(mut self, check: CheckPlane) -> SystemBuilder {
        self.check = check;
        self
    }

    /// Builds the system: parses and synthesizes every kernel, then
    /// assembles Workers, interconnect and UNIMEM around them.
    ///
    /// # Errors
    ///
    /// [`BuildSystemError`] on parse or estimation failures, then
    /// [`BuildSystemError::Shape`] when a tree level has fewer than 2
    /// members.
    pub fn build(self) -> Result<EcoscaleSystem, BuildSystemError> {
        let artifacts = self.artifacts()?;
        self.assemble(&artifacts)
    }

    /// Parses and synthesizes every registered kernel: the part of a build
    /// that depends only on the kernel sources, their hints and the HLS
    /// budget. One value can be assembled into any number of systems.
    ///
    /// # Errors
    ///
    /// [`BuildSystemError`] on parse or estimation failures.
    pub(crate) fn artifacts(&self) -> Result<SystemArtifacts, BuildSystemError> {
        let mut parsed = Vec::new();
        for (src, hints) in &self.kernels {
            parsed.push((parse_kernel(src)?, hints.clone()));
        }
        let library = ModuleLibrary::synthesize(&parsed, self.hls_budget)?;
        Ok(SystemArtifacts {
            kernels: self.kernels.clone(),
            hls_budget: self.hls_budget,
            parsed: parsed
                .into_iter()
                .map(|(k, _)| (k.name().to_owned(), Arc::new(k)))
                .collect(),
            library: Arc::new(library),
        })
    }

    /// Assembles Workers, interconnect and UNIMEM around `artifacts`,
    /// sharing its kernels and module library.
    ///
    /// # Errors
    ///
    /// [`BuildSystemError::Shape`] when a tree level has fewer than 2
    /// members.
    ///
    /// # Panics
    ///
    /// Panics if `artifacts` was not built from this builder's kernels,
    /// hints and HLS budget (see [`SystemArtifacts::built_from`]).
    pub(crate) fn assemble(
        self,
        artifacts: &SystemArtifacts,
    ) -> Result<EcoscaleSystem, BuildSystemError> {
        assert!(
            artifacts.built_from(&self),
            "system artifacts were built from other kernels, hints or HLS budget"
        );
        for (what, got) in [
            ("workers per node", self.workers_per_node),
            ("compute nodes", self.compute_nodes),
        ] {
            if got < 2 {
                return Err(BuildSystemError::Shape { what, got });
            }
        }
        let topo = TreeTopology::new(&[self.workers_per_node, self.compute_nodes]);
        let n = topo.num_nodes();
        let workers = (0..n)
            .map(|i| Worker::new(NodeId(i), self.fabric_cols, self.fabric_rows))
            .collect();
        Ok(EcoscaleSystem {
            workers,
            net: Network::new(topo, NetworkConfig::default()),
            mem: UnimemSystem::new(n, CacheConfig::l1_default(), DramModel::default()),
            library: Arc::clone(&artifacts.library),
            kernels: artifacts
                .parsed
                .iter()
                .map(|(name, kernel)| {
                    let kernel = Arc::clone(kernel);
                    let analyses = Vec::new();
                    (name.clone(), CallableKernel { kernel, analyses })
                })
                .collect(),
            unilogic: UnilogicModel::default(),
            clock: Time::ZERO,
            energy: Energy::ZERO,
            tracer: Tracer::disabled(),
            worker_tracks: Vec::new(),
            fabric_tracks: Vec::new(),
            call_ns: Histogram::new(),
            calls_cpu: Counter::new(),
            calls_fpga_local: Counter::new(),
            calls_fpga_remote: Counter::new(),
            faults: None,
            check: self.check,
        })
    }
}

/// The kernel-derived half of a build ([`SystemBuilder::artifacts`]): the
/// parsed kernels and the synthesized module library, with the sources,
/// hints and HLS budget they were built from. Systems assembled from one
/// value share its library, so each bitstream's compressed sizes are
/// computed once for all of them.
#[derive(Debug)]
pub(crate) struct SystemArtifacts {
    kernels: Vec<(String, HashMap<String, f64>)>,
    hls_budget: Resources,
    parsed: HashMap<String, Arc<Kernel>>,
    library: Arc<ModuleLibrary>,
}

impl SystemArtifacts {
    /// Whether these artifacts came from exactly `builder`'s kernel
    /// sources, hints and HLS budget (its shape does not matter).
    pub(crate) fn built_from(&self, builder: &SystemBuilder) -> bool {
        self.kernels == builder.kernels && self.hls_budget == builder.hls_budget
    }
}

/// The analyses one system memoises per kernel: enough for the distinct
/// argument sets of a serving mix (one per batch size).
const ANALYSES_PER_KERNEL: usize = 16;

/// A kernel the system calls: the shared parsed kernel, which compiles
/// itself for the interpreter on its first run, and the analyses of its
/// recent calls.
#[derive(Debug)]
struct CallableKernel {
    kernel: Arc<Kernel>,
    /// Per distinct call: the bits of each signature scalar's argument
    /// (`None` when unbound) and the analysis those arguments give,
    /// oldest first.
    analyses: Vec<(Vec<Option<u64>>, KernelAnalysis)>,
}

impl CallableKernel {
    /// The bits of `args`' binding of each signature scalar, in
    /// parameter order: what a call's analysis depends on.
    fn key(&self, args: &KernelArgs) -> Vec<Option<u64>> {
        self.kernel
            .scalars()
            .map(|p| args.scalar(&p.name).map(f64::to_bits))
            .collect()
    }

    /// The analysis for the scalar arguments `key`, as
    /// [`KernelAnalysis::analyze`] gives it with those arguments as hints.
    fn analysis(&mut self, key: Vec<Option<u64>>) -> &KernelAnalysis {
        let at = match self.analyses.iter().position(|(k, _)| *k == key) {
            Some(at) => at,
            None => {
                let hints = self
                    .kernel
                    .scalars()
                    .zip(&key)
                    .filter_map(|(p, v)| v.map(|v| (p.name.clone(), f64::from_bits(v))))
                    .collect();
                let analysis = KernelAnalysis::analyze(&self.kernel, &hints);
                if self.analyses.len() == ANALYSES_PER_KERNEL {
                    self.analyses.remove(0);
                }
                self.analyses.push((key, analysis));
                self.analyses.len() - 1
            }
        };
        &self.analyses[at].1
    }
}

/// The FaultPlane's system-level state: per-fabric SEU scrubbers plus
/// the resilience manager driving repair and fallback decisions.
#[derive(Debug)]
struct SystemFaults {
    scrubbers: Vec<SeuScrubber>,
    mgr: ResilienceManager,
}

/// The assembled system.
#[derive(Debug)]
pub struct EcoscaleSystem {
    workers: Vec<Worker>,
    net: Network<TreeTopology>,
    mem: UnimemSystem,
    library: Arc<ModuleLibrary>,
    kernels: HashMap<String, CallableKernel>,
    unilogic: UnilogicModel,
    clock: Time,
    energy: Energy,
    tracer: Tracer,
    worker_tracks: Vec<TrackId>,
    fabric_tracks: Vec<TrackId>,
    call_ns: Histogram,
    calls_cpu: Counter,
    calls_fpga_local: Counter,
    calls_fpga_remote: Counter,
    faults: Option<SystemFaults>,
    check: CheckPlane,
}

impl EcoscaleSystem {
    /// Number of Workers.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// The Worker at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn worker(&self, id: NodeId) -> &Worker {
        &self.workers[id.0]
    }

    /// Mutable Worker access.
    pub fn worker_mut(&mut self, id: NodeId) -> &mut Worker {
        &mut self.workers[id.0]
    }

    /// The synthesized module library.
    pub fn library(&self) -> &ModuleLibrary {
        &self.library
    }

    /// Current system time.
    pub fn now(&self) -> Time {
        self.clock
    }

    /// Total energy charged so far.
    pub fn energy(&self) -> Energy {
        self.energy
    }

    /// Installs a tracer: calls become spans on per-worker `w<N>/calls`
    /// tracks and partial reconfigurations become spans on `w<N>/fabric`
    /// tracks. The interconnect's per-link tracks share the same
    /// buffer. The default tracer is disabled and costs one branch per
    /// recording site.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
        self.net.set_tracer(tracer.clone());
        self.worker_tracks = self
            .workers
            .iter()
            .map(|w| tracer.track(&format!("w{}/calls", w.id().0)))
            .collect();
        self.fabric_tracks = self
            .workers
            .iter()
            .map(|w| tracer.track(&format!("w{}/fabric", w.id().0)))
            .collect();
    }

    /// The installed tracer (disabled unless
    /// [`EcoscaleSystem::set_tracer`] was called). Post-hoc analyses
    /// snapshot its buffer without draining it.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Snapshots every layer's instruments into one registry:
    /// `smmu.*` and `reconfig.*` aggregated across Workers, `unimem.*`,
    /// `noc.*`, and the system-level `system.*` call metrics (per-device
    /// call counters, call-latency histogram, fabric occupancy stats).
    pub fn export_metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        for w in &self.workers {
            w.smmu().export_metrics(&mut m, "smmu");
            w.daemon().stats().export_metrics(&mut m, "reconfig");
        }
        self.mem.export_metrics(&mut m, "unimem");
        self.net.export_metrics(&mut m, "noc");
        m.add("system.calls_cpu", self.calls_cpu.get());
        m.add("system.calls_fpga_local", self.calls_fpga_local.get());
        m.add("system.calls_fpga_remote", self.calls_fpga_remote.get());
        m.merge_hist("system.call_ns", &self.call_ns);
        for w in &self.workers {
            m.observe(
                "system.fabric_utilization",
                w.daemon().floorplan().utilization(),
            );
        }
        m.observe("system.energy_uj", self.energy.as_uj());
        if let Some(f) = &self.faults {
            for s in &f.scrubbers {
                s.export_metrics(&mut m, "seu");
            }
            f.mgr.export_metrics(&mut m, "resilience");
        }
        m
    }

    /// CheckPlane hook: verifies the whole stack's structural invariants in
    /// one read-only pass — clock and energy monotonicity (against the
    /// plane's high-watermarks), every Worker's SMMU translation caches and
    /// fabric residency, golden-bitstream availability for each resident
    /// module, SEU-scrubber bookkeeping, the NoC's memo/accounting and
    /// UNIMEM's single-home directory. Early-outs when `cp` is disabled.
    pub fn check_invariants(&self, cp: &mut CheckPlane) {
        if !cp.is_enabled() {
            return;
        }
        cp.check_monotone(invariant::SYSTEM_TIME_MONOTONE, self.clock.as_ps() as f64);
        cp.check_monotone(invariant::SYSTEM_ENERGY_MONOTONE, self.energy.as_uj());
        for w in &self.workers {
            w.smmu().check_invariants(cp);
            w.daemon().check_invariants(cp);
            for module in w.loaded_modules() {
                cp.check(
                    invariant::FABRIC_GOLDEN_BITSTREAM,
                    self.library.by_id(module).is_some(),
                    || format!("resident module {module} has no library bitstream"),
                );
            }
        }
        if let Some(f) = &self.faults {
            for s in &f.scrubbers {
                s.check_invariants(cp);
            }
        }
        self.net.check_invariants(cp);
        self.mem.check_invariants(cp);
    }

    /// Loads `function`'s module onto `worker`'s fabric explicitly.
    /// Returns the reconfiguration latency.
    ///
    /// # Errors
    ///
    /// [`ReconfigError`] when the function was never synthesized or the
    /// module cannot be placed on the Worker's fabric.
    pub fn load_module(
        &mut self,
        worker: NodeId,
        function: &str,
    ) -> Result<Duration, ReconfigError> {
        let id = self
            .library
            .get(function)
            .ok_or_else(|| ReconfigError::UnknownFunction(function.to_owned()))?
            .module
            .id();
        let start = self.clock;
        let lat = self.workers[worker.0].load_module(&self.library, id)?;
        self.clock += lat;
        if let Some(&track) = self.fabric_tracks.get(worker.0) {
            if self.tracer.is_enabled() {
                self.tracer.complete(track, function.to_owned(), start, lat);
            }
        }
        Ok(lat)
    }

    /// Arms the FaultPlane across every layer of this system from
    /// `spec`: SMMU translation-fault injection per Worker, NoC link
    /// degradation and packet corruption, and SEU upsets in each fabric
    /// with periodic scrubbing. `config` decides how
    /// [`EcoscaleSystem::fault_tick`] and [`EcoscaleSystem::call`]
    /// recover. An all-off spec installs nothing and the system stays
    /// bit-identical to an unarmed one.
    pub fn enable_faults(&mut self, spec: &CampaignSpec, config: ResilienceConfig) {
        if spec.is_off() {
            self.faults = None;
            return;
        }
        for (i, w) in self.workers.iter_mut().enumerate() {
            w.smmu_mut().set_fault_injection(
                spec.smmu_fault_p,
                spec.rng(salt::SMMU_FAULT ^ ((i as u64) << 32)),
            );
        }
        self.net.set_faults(spec);
        let scrubbers = (0..self.workers.len())
            .map(|i| SeuScrubber::from_campaign(spec, i as u64))
            .collect();
        self.faults = Some(SystemFaults {
            scrubbers,
            mgr: ResilienceManager::new(config),
        });
    }

    /// The self-check tallies (see [`SystemBuilder::with_checks`]).
    pub fn checks(&self) -> &CheckPlane {
        &self.check
    }

    /// The resilience manager's view of the campaign so far (`None`
    /// until [`EcoscaleSystem::enable_faults`] armed a live campaign).
    pub fn resilience(&self) -> Option<&ResilienceManager> {
        self.faults.as_ref().map(|f| &f.mgr)
    }

    /// Whether `worker`'s copy of `function` is currently upset by an
    /// undetected SEU (its results would be wrong). Always `false`
    /// without an armed campaign.
    pub fn module_upset(&self, worker: NodeId, function: &str) -> bool {
        let Some(f) = &self.faults else { return false };
        let Some(entry) = self.library.get(function) else {
            return false;
        };
        f.scrubbers[worker.0].is_upset(entry.module.id())
    }

    /// Advances the FaultPlane to the current clock: draws due SEU
    /// upsets on every fabric and, when a scrub pass is due, detects
    /// them and repairs via the reconfiguration daemon (a partial
    /// bitstream reload). Persistent failers are quarantined — unloaded
    /// and left off the fabric. Returns the number of repairs performed.
    /// A no-op without an armed campaign.
    pub fn fault_tick(&mut self) -> usize {
        let Some(mut faults) = self.faults.take() else {
            return 0;
        };
        let mut repairs = 0;
        for (i, w) in self.workers.iter_mut().enumerate() {
            let scrubber = &mut faults.scrubbers[i];
            if !scrubber.is_enabled() {
                continue;
            }
            let resident: Vec<_> = w.daemon().loaded().collect();
            scrubber.advance(self.clock, &resident);
            if !scrubber.scrub_due(self.clock) {
                continue;
            }
            for (module, detect_lat) in scrubber.scrub(self.clock) {
                let domain = Domain::Module(module.0);
                faults.mgr.record_failure(domain, self.clock);
                let quarantined = faults.mgr.is_quarantined(domain);
                if quarantined || !faults.mgr.config().repair_reconfig {
                    // no repair path: drop the corrupted module; calls
                    // fall back to software until the daemon reloads it
                    w.daemon_mut().unload(module);
                    scrubber.repaired(module);
                    continue;
                }
                // repair = partial reconfiguration with a clean bitstream
                w.daemon_mut().unload(module);
                match w.daemon_mut().load(&self.library, module) {
                    Ok(lat) => {
                        let start = self.clock;
                        self.clock += lat;
                        repairs += 1;
                        faults.mgr.note_repair(lat);
                        faults.mgr.note_recovery(detect_lat + lat);
                        scrubber.repaired(module);
                        if let Some(&track) = self.fabric_tracks.get(i) {
                            self.tracer.complete(track, "seu-repair", start, lat);
                        }
                    }
                    Err(_) => {
                        // can't place it back: treat as lost capacity
                        faults.mgr.note_lost();
                        scrubber.repaired(module);
                    }
                }
            }
        }
        self.faults = Some(faults);
        repairs
    }

    /// Runs every Worker's reconfiguration daemon once; returns how many
    /// module loads happened system-wide.
    pub fn daemon_tick(&mut self) -> usize {
        let mut loads = 0;
        for (i, w) in self.workers.iter_mut().enumerate() {
            let busy_before = w.daemon().stats().busy;
            let (daemon, history) = w.daemon_and_history();
            let loaded = daemon.evaluate(self.clock, history, &self.library).len();
            loads += loaded;
            if loaded > 0 {
                if let Some(&track) = self.fabric_tracks.get(i) {
                    let spent = w.daemon().stats().busy - busy_before;
                    self.tracer
                        .complete(track, "daemon-reconfig", self.clock, spent);
                }
            }
        }
        // Self-check pass at the plane's cadence when the builder armed
        // one; the take/put dance lets the hook borrow `&self` whole.
        if self.check.due() {
            let mut cp = std::mem::take(&mut self.check);
            self.check_invariants(&mut cp);
            self.check = cp;
        }
        loads
    }

    /// Finds a Worker (other than `except`) holding `function`'s module.
    fn remote_holder(&self, function: &str, except: NodeId) -> Option<NodeId> {
        let id = self.library.get(function)?.module.id();
        self.workers
            .iter()
            .filter(|w| w.id() != except && w.daemon().is_loaded(id))
            .min_by_key(|w| self.net.topology().route(except, w.id()).hop_count())
            .map(|w| w.id())
    }

    /// Calls `function` from `worker` with `args`: selects the device,
    /// executes functionally, charges costs, updates history.
    ///
    /// # Errors
    ///
    /// [`CallError`] for unknown functions or execution faults.
    pub fn call(
        &mut self,
        worker: NodeId,
        function: &str,
        args: &mut KernelArgs,
    ) -> Result<CallOutcome, CallError> {
        let callable =
            self.kernels
                .get_mut(function)
                .ok_or_else(|| CallError::UnknownFunction {
                    name: function.to_owned(),
                })?;
        let kernel = Arc::clone(&callable.kernel);

        // features and work estimate from the actual arguments
        let key = callable.key(args);
        let features: Vec<f64> = key.iter().flatten().map(|&v| f64::from_bits(v)).collect();
        let analysis = callable.analysis(key);
        let total = analysis.total().copied().unwrap_or_default();
        // A software core pays ~25 cycles per transcendental (libm on an
        // A53); a pipelined datapath pays one issue slot. Weight the CPU
        // path accordingly.
        const SPECIAL_CPU_CYCLES: u64 = 25;
        let (items, hw_ops_per_item, cpu_ops_per_item, mem_per_item) = match analysis.hot_loop() {
            Some(l) => (
                l.total_iterations.unwrap_or(1).max(1),
                l.body_census.flops().max(1) as u64,
                (l.body_census.flops() as u64
                    + l.body_census.special as u64 * (SPECIAL_CPU_CYCLES - 1))
                    .max(1),
                l.body_census.mem_ops().max(1) as u64,
            ),
            None => (
                1,
                total.flops.max(1),
                (total.flops + total.special * (SPECIAL_CPU_CYCLES - 1)).max(1),
                total.mem_ops.max(1),
            ),
        };
        let bytes = total.mem_ops * 8;

        // device selection
        let entry = self.library.get(function);
        let local_loaded = entry
            .map(|e| self.workers[worker.0].daemon().is_loaded(e.module.id()))
            .unwrap_or(false);
        let remote = self.remote_holder(function, worker);
        let device = self.workers[worker.0].daemon().select_device(
            self.workers[worker.0].history(),
            function,
            &features,
            local_loaded,
            remote.is_some(),
        );
        // downgrade if the selected hardware is not actually available
        let mut device = match device {
            DeviceClass::FpgaLocal if entry.is_none() || !local_loaded => DeviceClass::Cpu,
            DeviceClass::FpgaRemote if entry.is_none() || remote.is_none() => DeviceClass::Cpu,
            d => d,
        };
        // FaultPlane: an SEU-upset module would compute garbage. With
        // software fallback the call runs on the CPU instead; without it
        // the (wrong) hardware result is still costed on the FPGA path —
        // silent data corruption, visible only through verification.
        if let Some(f) = &mut self.faults {
            if f.mgr.config().software_fallback && entry.is_some() {
                let id = entry.map(|e| e.module.id()).expect("checked");
                let serving = match device {
                    DeviceClass::FpgaLocal => Some(worker),
                    DeviceClass::FpgaRemote => remote,
                    DeviceClass::Cpu => None,
                };
                if let Some(s) = serving {
                    if f.scrubbers[s.0].is_upset(id) {
                        f.mgr.note_fallback();
                        device = DeviceClass::Cpu;
                    }
                }
            }
        }

        // functional execution: results are real regardless of device
        args.run(&kernel)?;

        // cost the chosen path
        let (path, served_by) = match device {
            DeviceClass::Cpu => (AccessPath::Software, worker),
            DeviceClass::FpgaLocal => (AccessPath::LocalCached, worker),
            DeviceClass::FpgaRemote => (AccessPath::RemoteUncached, remote.expect("checked above")),
        };
        let ops_per_item = if path == AccessPath::Software {
            cpu_ops_per_item
        } else {
            hw_ops_per_item
        };
        let module = entry.map(|e| &e.module);
        let cost = match module {
            Some(m) => self.unilogic.cost(
                self.net.topology(),
                path,
                m,
                worker,
                served_by,
                items,
                ops_per_item,
                mem_per_item,
                bytes,
            ),
            None => {
                let cpu_flops = total.flops + total.special * (SPECIAL_CPU_CYCLES - 1);
                let (t, e) = self.workers[worker.0].cpu().exec(cpu_flops, total.mem_ops);
                crate::unilogic::PathCost {
                    latency: t,
                    energy: e,
                    network_bytes: 0,
                }
            }
        };

        let started = self.clock;
        self.clock += cost.latency;
        self.energy += cost.energy;
        self.call_ns.record(cost.latency.as_ns());
        match device {
            DeviceClass::Cpu => self.calls_cpu.incr(),
            DeviceClass::FpgaLocal => self.calls_fpga_local.incr(),
            DeviceClass::FpgaRemote => self.calls_fpga_remote.incr(),
        }
        if let Some(&track) = self.worker_tracks.get(worker.0) {
            if self.tracer.is_enabled() {
                let name = function.to_owned();
                self.tracer.complete(track, name, started, cost.latency);
            }
        }
        self.workers[worker.0].history_mut().record(
            function,
            device,
            features,
            cost.latency,
            cost.energy,
        );
        Ok(CallOutcome {
            device,
            served_by,
            latency: cost.latency,
            energy: cost.energy,
            completed_at: self.clock,
        })
    }
}

/// The system's complete mutable state: clock, energy, call accounting,
/// every Worker (SMMU + fabric residency + history), the interconnect,
/// UNIMEM, the FaultPlane (scrubbers + resilience manager, when armed)
/// and the CheckPlane tallies. Build-time configuration (topology,
/// library, cost models) and the tracer are not in the stream: load onto
/// a system built from the same [`SystemBuilder`] inputs. A load refuses
/// a stream whose Worker count or fault arming differs from this
/// system's, or whose self-check plane is not enabled, strict and at the
/// cadence of this system's, so a resume is checked as its own caller
/// asked.
impl Persist for EcoscaleSystem {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        io.time(&mut self.clock)?;
        self.energy.persist(io)?;
        self.call_ns.persist(io)?;
        for c in [
            &mut self.calls_cpu,
            &mut self.calls_fpga_local,
            &mut self.calls_fpga_remote,
        ] {
            c.persist(io)?;
        }
        io.expect(self.workers.len(), "worker count")?;
        for worker in &mut self.workers {
            worker.persist(io)?;
        }
        self.net.persist(io)?;
        self.mem.persist(io)?;
        io.expect(self.faults.is_some(), "fault campaign armed")?;
        if let Some(f) = &mut self.faults {
            io.expect(f.scrubbers.len(), "scrubber count")?;
            for s in &mut f.scrubbers {
                s.persist(io)?;
            }
            f.mgr.persist(io)?;
        }
        let arming = self.check.arming();
        self.check.persist(io)?;
        let loaded = self.check.arming();
        io.ensure(loaded == arming, || {
            format!(
                "snapshot's self-checks are armed as {loaded:?}, this system's as {arming:?} \
                 (enabled, strict, cadence)"
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCALE: &str = "kernel scale(in float a[], out float b[], int n) {
        for (i in 0 .. n) {
            b[i] = sqrt(a[i] + 1.0) * exp(0.5 * a[i] / (a[i] + 2.0)) + log(abs(a[i]) + 1.0);
        }
    }";

    fn system() -> EcoscaleSystem {
        SystemBuilder::new()
            .workers_per_node(4)
            .compute_nodes(4)
            .kernel(SCALE, HashMap::from([("n".to_owned(), 4096.0)]))
            .with_checks(CheckPlane::armed(crate::test_ctx().check))
            .build()
            .unwrap()
    }

    fn args(n: usize) -> KernelArgs {
        let mut a = KernelArgs::new();
        a.bind_array("a", (0..n).map(|i| i as f64).collect())
            .bind_array("b", vec![0.0; n])
            .bind_scalar("n", n as f64);
        a
    }

    #[test]
    fn build_shapes_system() {
        let s = system();
        assert_eq!(s.num_workers(), 16);
        assert_eq!(s.library().len(), 1);
        assert_eq!(s.now(), Time::ZERO);
        assert_eq!(s.worker(NodeId(3)).id(), NodeId(3));
    }

    #[test]
    fn artifacts_are_keyed_on_kernels_and_budget_and_shared_by_systems() {
        let hints = || HashMap::from([("n".to_owned(), 4096.0)]);
        let builder = || SystemBuilder::new().kernel(SCALE, hints());
        let artifacts = builder().artifacts().unwrap();
        assert!(artifacts.built_from(&builder()));
        assert!(artifacts.built_from(&builder().workers_per_node(3).compute_nodes(5)));
        assert!(!artifacts.built_from(&builder().hls_budget(Resources::new(500, 8, 8))));
        assert!(!artifacts.built_from(
            &SystemBuilder::new().kernel(SCALE, HashMap::from([("n".to_owned(), 8.0)]))
        ));
        assert!(!artifacts.built_from(&builder().kernel(SCALE, hints())));

        let a = builder().assemble(&artifacts).unwrap();
        let b = builder().compute_nodes(3).assemble(&artifacts).unwrap();
        assert!(std::ptr::eq(a.library(), b.library()));
        assert_eq!(b.num_workers(), 12);
        assert_eq!(a.library().len(), system().library().len());
    }

    #[test]
    #[should_panic(expected = "built from other kernels")]
    fn assembling_foreign_artifacts_panics() {
        let artifacts = SystemBuilder::new().artifacts().unwrap();
        let _ = SystemBuilder::new()
            .kernel(SCALE, HashMap::new())
            .assemble(&artifacts);
    }

    #[test]
    fn undersized_tree_levels_are_typed_build_errors() {
        let err = SystemBuilder::new()
            .workers_per_node(1)
            .build()
            .unwrap_err();
        assert!(
            matches!(
                err,
                BuildSystemError::Shape {
                    what: "workers per node",
                    got: 1
                }
            ),
            "{err:?}"
        );
        let err = SystemBuilder::new().compute_nodes(0).build().unwrap_err();
        assert!(
            matches!(
                err,
                BuildSystemError::Shape {
                    what: "compute nodes",
                    got: 0
                }
            ),
            "{err:?}"
        );
        assert_eq!(err.to_string(), "need at least 2 compute nodes, got 0");
        assert!(SystemBuilder::new().compute_nodes(2).build().is_ok());
    }

    #[test]
    fn call_computes_correct_results() {
        let mut s = system();
        let mut a = args(100);
        let out = s.call(NodeId(0), "scale", &mut a).unwrap();
        assert_eq!(out.device, DeviceClass::Cpu); // no history yet
        let b = a.array("b").unwrap();
        let expect = |x: f64| (x + 1.0).sqrt() * (0.5 * x / (x + 2.0)).exp() + (x.abs() + 1.0).ln();
        assert!((b[0] - expect(0.0)).abs() < 1e-12);
        assert!((b[99] - expect(99.0)).abs() < 1e-12);
        assert!(out.latency > Duration::ZERO);
        assert!(s.energy().as_pj() > 0.0);
        assert_eq!(s.now(), out.completed_at);
    }

    #[test]
    fn unknown_function_errors() {
        let mut s = system();
        let err = s
            .call(NodeId(0), "ghost", &mut KernelArgs::new())
            .unwrap_err();
        assert!(matches!(err, CallError::UnknownFunction { .. }));
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn exec_error_propagates() {
        let mut s = system();
        // missing bindings
        let err = s
            .call(NodeId(0), "scale", &mut KernelArgs::new())
            .unwrap_err();
        assert!(matches!(err, CallError::Exec(_)));
    }

    #[test]
    fn calls_migrate_to_hardware_once_loaded_and_measured() {
        let mut s = system();
        // warm history with CPU runs
        for _ in 0..10 {
            let mut a = args(4096);
            let out = s.call(NodeId(0), "scale", &mut a).unwrap();
            assert_eq!(out.device, DeviceClass::Cpu);
        }
        // load the module locally
        let lat = s.load_module(NodeId(0), "scale").unwrap();
        assert!(lat > Duration::ZERO);
        // first HW call measures hardware
        let mut a = args(4096);
        let first_hw = s.call(NodeId(0), "scale", &mut a).unwrap();
        assert_eq!(first_hw.device, DeviceClass::FpgaLocal);
        // now both sides have history; HW is faster, so it stays on HW
        for _ in 0..8 {
            let mut a = args(4096);
            let out = s.call(NodeId(0), "scale", &mut a).unwrap();
            assert_eq!(out.device, DeviceClass::FpgaLocal);
            // results still correct
            let expect = (2.0f64).sqrt() * (0.5f64 / 3.0).exp() + (2.0f64).ln();
            assert!((a.array("b").unwrap()[1] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn remote_unilogic_call_when_only_remote_holds_module() {
        let mut s = system();
        // history on both devices at worker 5 (so predictions exist)
        for _ in 0..10 {
            let mut a = args(4096);
            s.call(NodeId(5), "scale", &mut a).unwrap();
        }
        // module loaded only at worker 0
        s.load_module(NodeId(0), "scale").unwrap();
        // worker 0 measures CPU once (measurement-first policy), then its
        // next call lands on the local FPGA, producing an FpgaLocal sample
        // we can seed worker 5's history with.
        for _ in 0..2 {
            let mut a = args(4096);
            s.call(NodeId(0), "scale", &mut a).unwrap();
        }
        let sample_time = {
            let h = s.worker(NodeId(0)).history();
            h.mean_time("scale", DeviceClass::FpgaLocal).unwrap()
        };
        s.worker_mut(NodeId(5)).history_mut().record(
            "scale",
            DeviceClass::FpgaLocal,
            vec![4096.0],
            sample_time,
            Energy::ZERO,
        );
        // add more FpgaLocal samples so the predictor can fit
        for _ in 0..3 {
            s.worker_mut(NodeId(5)).history_mut().record(
                "scale",
                DeviceClass::FpgaLocal,
                vec![4096.0],
                sample_time,
                Energy::ZERO,
            );
        }
        let mut a = args(4096);
        let out = s.call(NodeId(5), "scale", &mut a).unwrap();
        assert_eq!(out.device, DeviceClass::FpgaRemote);
        assert_eq!(out.served_by, NodeId(0));
    }

    #[test]
    fn tracer_and_metrics_capture_call_path() {
        let tracer = ecoscale_sim::Tracer::buffering();
        let mut s = system();
        s.set_tracer(&tracer);
        for _ in 0..12 {
            let mut a = args(4096);
            s.call(NodeId(1), "scale", &mut a).unwrap();
        }
        s.load_module(NodeId(1), "scale").unwrap();
        let mut a = args(4096);
        s.call(NodeId(1), "scale", &mut a).unwrap();

        let m = s.export_metrics();
        assert_eq!(m.counter("system.calls_cpu"), Some(12));
        assert_eq!(m.counter("system.calls_fpga_local"), Some(1));
        assert_eq!(m.counter("reconfig.loads"), Some(1));
        match m.get("system.call_ns") {
            Some(ecoscale_sim::Instrument::Histogram(h)) => assert_eq!(h.count(), 13),
            other => panic!("unexpected: {other:?}"),
        }
        match m.get("system.fabric_utilization") {
            Some(ecoscale_sim::Instrument::Stats(st)) => {
                assert_eq!(st.count(), s.num_workers() as u64);
                assert!(st.max() > 0.0);
            }
            other => panic!("unexpected: {other:?}"),
        }

        let buf = tracer.take();
        assert!(buf.tracks().iter().any(|t| t == "w1/calls"));
        assert!(buf.tracks().iter().any(|t| t == "w1/fabric"));
        let spans = buf
            .events()
            .iter()
            .filter(|e| matches!(e.kind, ecoscale_sim::trace::EventKind::Complete { .. }))
            .count();
        // 13 calls + 1 reconfiguration
        assert_eq!(spans, 14);
    }

    fn seu_campaign() -> CampaignSpec {
        let mut spec = CampaignSpec::off();
        spec.seu_mtbf = Duration::from_us(200);
        spec.scrub_period = Duration::from_us(500);
        spec
    }

    #[test]
    fn off_campaign_arms_nothing() {
        let mut s = system();
        s.enable_faults(&CampaignSpec::off(), ResilienceConfig::full());
        assert!(s.resilience().is_none());
        let mut plain = system();
        for _ in 0..5 {
            let mut a = args(1024);
            let x = s.call(NodeId(0), "scale", &mut a).unwrap();
            let mut b = args(1024);
            let y = plain.call(NodeId(0), "scale", &mut b).unwrap();
            assert_eq!(x, y);
        }
        assert_eq!(s.fault_tick(), 0);
        assert_eq!(
            s.export_metrics().to_json(),
            plain.export_metrics().to_json(),
            "off campaign leaves reports byte-identical"
        );
    }

    #[test]
    fn seu_upsets_are_scrubbed_and_repaired() {
        let mut s = system();
        s.enable_faults(&seu_campaign(), ResilienceConfig::full());
        s.load_module(NodeId(0), "scale").unwrap();
        let mut repairs = 0;
        for _ in 0..200 {
            let mut a = args(1024);
            s.call(NodeId(0), "scale", &mut a).unwrap();
            repairs += s.fault_tick();
        }
        let mgr = s.resilience().unwrap();
        assert!(mgr.failures() > 0, "upsets recorded as failures");
        assert!(repairs > 0, "scrub loop repaired upset modules");
        assert_eq!(mgr.repairs(), repairs as u64);
        // a persistent failer ends up quarantined (unloaded); otherwise
        // the repair path keeps it resident
        let id = s.library().get("scale").unwrap().module.id();
        let mgr = s.resilience().unwrap();
        if mgr.quarantines() > 0 {
            assert!(!s.worker(NodeId(0)).daemon().is_loaded(id));
        } else {
            assert!(s.worker(NodeId(0)).daemon().is_loaded(id));
        }
        let mgr = s.resilience().unwrap();
        let m = s.export_metrics();
        assert!(m.counter("seu.upsets").unwrap() > 0);
        assert_eq!(m.counter("resilience.repairs"), Some(mgr.repairs()));
    }

    #[test]
    fn upset_module_falls_back_to_software() {
        let mut s = system();
        s.enable_faults(&seu_campaign(), ResilienceConfig::full());
        // make the local FPGA the preferred device
        for _ in 0..10 {
            let mut a = args(4096);
            s.call(NodeId(0), "scale", &mut a).unwrap();
        }
        s.load_module(NodeId(0), "scale").unwrap();
        {
            let mut a = args(4096);
            assert_eq!(
                s.call(NodeId(0), "scale", &mut a).unwrap().device,
                DeviceClass::FpgaLocal
            );
        }
        // run until an upset lands while the module is preferred; the
        // call between upset and scrub must fall back to the CPU
        let mut saw_fallback = false;
        for _ in 0..400 {
            let mut a = args(4096);
            let out = s.call(NodeId(0), "scale", &mut a).unwrap();
            if s.module_upset(NodeId(0), "scale") {
                assert_eq!(out.device, DeviceClass::Cpu, "upset module not used");
            }
            s.fault_tick();
            if s.resilience().unwrap().fallbacks() > 0 {
                saw_fallback = true;
                break;
            }
        }
        assert!(saw_fallback, "campaign never forced a software fallback");
    }

    #[test]
    fn faulted_system_is_deterministic() {
        let run = || {
            let mut s = system();
            s.enable_faults(&seu_campaign(), ResilienceConfig::full());
            s.load_module(NodeId(1), "scale").unwrap();
            for _ in 0..100 {
                let mut a = args(1024);
                s.call(NodeId(1), "scale", &mut a).unwrap();
                s.fault_tick();
            }
            s.export_metrics().to_json()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        let churn = |s: &mut EcoscaleSystem| {
            for _ in 0..12 {
                let mut a = args(1024);
                s.call(NodeId(1), "scale", &mut a).unwrap();
                s.fault_tick();
            }
            s.daemon_tick();
        };
        let mut orig = system();
        orig.enable_faults(&seu_campaign(), ResilienceConfig::full());
        orig.load_module(NodeId(1), "scale").unwrap();
        churn(&mut orig);

        let mut w = ecoscale_sim::SnapWriter::new();
        w.save(&mut orig);
        let bytes = w.into_bytes();

        let mut fresh = system();
        fresh.enable_faults(&seu_campaign(), ResilienceConfig::full());
        let mut r = ecoscale_sim::SnapReader::new(&bytes);
        fresh.persist(&mut r).expect("restore");
        assert!(r.is_exhausted());
        let mut w2 = ecoscale_sim::SnapWriter::new();
        w2.save(&mut fresh);
        assert_eq!(
            bytes,
            w2.into_bytes(),
            "restored system re-serializes differently"
        );
        assert_eq!(fresh.now(), orig.now());
        assert_eq!(
            fresh.export_metrics().to_json(),
            orig.export_metrics().to_json()
        );
        // continuation equivalence: both runs stay in lockstep
        churn(&mut orig);
        churn(&mut fresh);
        assert_eq!(fresh.now(), orig.now());
        assert_eq!(
            fresh.export_metrics().to_json(),
            orig.export_metrics().to_json()
        );
        let mut cp = CheckPlane::enabled(1);
        fresh.check_invariants(&mut cp);
        assert!(cp.ok(), "{:?}", cp.first());
    }

    #[test]
    fn restore_rejects_shape_and_arming_mismatch() {
        let mut orig = system();
        orig.load_module(NodeId(0), "scale").unwrap();
        let mut w = ecoscale_sim::SnapWriter::new();
        w.save(&mut orig);
        let bytes = w.into_bytes();

        // a fault-armed system must refuse an unarmed snapshot
        let mut armed = system();
        armed.enable_faults(&seu_campaign(), ResilienceConfig::full());
        let mut r = ecoscale_sim::SnapReader::new(&bytes);
        assert!(armed.persist(&mut r).is_err());

        // a differently shaped system must refuse it too
        let mut small = SystemBuilder::new()
            .workers_per_node(2)
            .compute_nodes(2)
            .kernel(SCALE, HashMap::from([("n".to_owned(), 4096.0)]))
            .build()
            .unwrap();
        let mut r = ecoscale_sim::SnapReader::new(&bytes);
        assert!(small.persist(&mut r).is_err());

        // sampled truncation sweep: no cut may restore cleanly
        for cut in (0..bytes.len()).step_by(509).chain([bytes.len() - 1]) {
            let mut s = system();
            let mut r = ecoscale_sim::SnapReader::new(&bytes[..cut]);
            assert!(
                s.persist(&mut r).is_err() || !r.is_exhausted(),
                "truncated stream at {cut} restored fully"
            );
        }
    }

    #[test]
    fn arming_is_per_value_not_per_process() {
        // Two systems side by side in one process: only the plane each
        // builder was handed decides whether it self-checks, whatever the
        // environment says.
        let run = |builder: SystemBuilder| {
            let mut s = builder
                .workers_per_node(2)
                .compute_nodes(2)
                .kernel(SCALE, HashMap::from([("n".to_owned(), 256.0)]))
                .build()
                .unwrap();
            for _ in 0..4 {
                s.call(NodeId(0), "scale", &mut args(256)).unwrap();
            }
            s.daemon_tick();
            s.checks().checks_run()
        };
        let (armed, bare) = std::thread::scope(|sc| {
            let armed = sc.spawn(|| run(SystemBuilder::new().with_checks(CheckPlane::armed(1))));
            let bare = sc.spawn(|| run(SystemBuilder::new()));
            (armed.join().unwrap(), bare.join().unwrap())
        });
        assert!(armed > 0, "the armed system ran no checks");
        assert_eq!(bare, 0, "a system built without a plane ran checks");
    }

    #[test]
    fn daemon_tick_loads_hot_functions() {
        let mut s = system();
        for _ in 0..200 {
            let mut a = args(4096);
            s.call(NodeId(2), "scale", &mut a).unwrap();
        }
        let loads = s.daemon_tick();
        assert!(loads >= 1, "daemon should load the hot kernel somewhere");
        let id = s.library().get("scale").unwrap().module.id();
        assert!(s.worker(NodeId(2)).daemon().is_loaded(id));
    }

    #[test]
    fn memoised_analyses_equal_fresh_ones_over_a_serving_run() {
        use std::cell::RefCell;

        use ecoscale_runtime::ServeSpec;
        use ecoscale_sim::RunCtx;

        use crate::{linear_test_mix, run_serve_sim_with, ServeSimConfig};

        thread_local! {
            static CALLS: RefCell<Vec<(usize, usize)>> = const { RefCell::new(Vec::new()) };
        }
        fn logged<const K: usize>(items: usize) -> KernelArgs {
            CALLS.with(|c| c.borrow_mut().push((K, items)));
            (linear_test_mix()[K].bind)(items)
        }
        // log the calls of a batching serving run (on this thread)
        let mut mix = linear_test_mix();
        mix[0].bind = logged::<0>;
        mix[1].bind = logged::<1>;
        let spec = ServeSpec::parse("seed=7,tenants=3,rate=300000,horizon=400us,batch=8").unwrap();
        let mut cfg = ServeSimConfig::new(spec, mix);
        cfg.items = 24;
        cfg.ctx = RunCtx::parse(Some("1"), Some("1"), None);
        run_serve_sim_with(&cfg, &mut CheckPlane::disabled());
        let mut calls = CALLS.with(|c| c.take());
        assert!(calls.len() > 50, "{} calls", calls.len());
        // then enough distinct sizes, twice over, to cycle the memo
        calls.extend((0..2).flat_map(|_| (1..=2 * ANALYSES_PER_KERNEL).map(|n| (n % 2, n))));

        let mut b = SystemBuilder::new().workers_per_node(2).compute_nodes(2);
        for k in linear_test_mix() {
            b = b.kernel(k.source, k.hints.clone());
        }
        let mut s = b.build().unwrap();
        let mix = linear_test_mix();
        let mut sizes = std::collections::BTreeSet::new();
        for (n, &(k, items)) in calls.iter().enumerate() {
            let mut args = (mix[k].bind)(items);
            s.call(NodeId(n % s.num_workers()), mix[k].name, &mut args)
                .unwrap();
            // the analysis the call used, against the per-call hints map
            // it replaces
            let callable = &s.kernels[mix[k].name];
            let key = callable.key(&args);
            let (_, memo) = callable
                .analyses
                .iter()
                .find(|(k, _)| *k == key)
                .expect("the call's analysis is memoised");
            let hints: HashMap<String, f64> = callable
                .kernel
                .scalars()
                .filter_map(|p| args.scalar(&p.name).map(|v| (p.name.clone(), v)))
                .collect();
            assert_eq!(
                *memo,
                KernelAnalysis::analyze(&callable.kernel, &hints),
                "call {n}"
            );
            assert!(callable.analyses.len() <= ANALYSES_PER_KERNEL);
            sizes.insert(items);
        }
        assert!(sizes.len() > ANALYSES_PER_KERNEL, "{} sizes", sizes.len());
    }
}
