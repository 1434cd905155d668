//! Driving an [`EcoscaleSystem`] from the ServePlane: open-loop
//! multi-tenant serving over the shared accelerators.
//!
//! `runtime::serve` owns the traffic side — workload generation,
//! admission, batching, SLO accounting. This module is the backend glue:
//! it partitions the spec's tenants across **serving cells** (one
//! [`EcoscaleSystem`] each, run on the [`ServeSimConfig::ctx`] pool via
//! [`RunCtx::map`] with results merged in cell order, so exports are
//! byte-identical at any width), and inside each cell runs the serving
//! event loop:
//!
//! 1. retire due completions into the plane's SLO ledger,
//! 2. generate/admit arrivals up to the current instant,
//! 3. on each cadence tick: [`EcoscaleSystem::fault_tick`] +
//!    [`EcoscaleSystem::daemon_tick`], feed resilience pressure back
//!    into admission, and check the `serve.*` CheckPlane invariants,
//! 4. dispatch ripe batches onto free worker lanes as single
//!    [`EcoscaleSystem::call`]s whose argument sizes scale with the
//!    batch (one per-dispatch overhead amortized over the whole batch),
//! 5. advance virtual time to the next arrival / completion / ripe
//!    dispatch / cadence tick.
//!
//! Under a FaultPlane campaign the system sheds load instead of
//! stalling: fresh resilience activity halves the admission queue bound
//! for the next window, and SEU fallbacks slow (but never drop) the
//! batches in flight. Every request stays accounted — the
//! `serve.request_conserved` invariant holds at every tick and at drain.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use ecoscale_hls::KernelArgs;
use ecoscale_noc::NodeId;
use ecoscale_runtime::serve::{Batch, ServePlane, ServeSpec, ServingReport};
use ecoscale_runtime::ResilienceConfig;
use ecoscale_sim::check::{invariant, CheckPlane};
use ecoscale_sim::snap::{malformed, SnapshotBuilder, SnapshotFile};
use ecoscale_sim::{
    CampaignSpec, Duration, FlightRecorder, MetricsRegistry, Persist, RestoreError, RunCtx, SnapIo,
    SnapReader, SnapWriter, TelemetryConfig, Time, TimeSeries, TriggerFire, TriggerKind,
};

use crate::report::SystemReport;
use crate::system::{EcoscaleSystem, SystemArtifacts, SystemBuilder};

/// One entry of a serving kernel mix: the HLS source to register at
/// build time plus a binder that materializes arguments for a given
/// total item count (a batch of `k` requests binds `k × items_per_req`
/// items, which is what makes batching amortize the per-dispatch
/// overhead — valid for item-linear kernels only).
#[derive(Debug, Clone)]
pub struct ServeKernel {
    /// Function name (must match the kernel source's name).
    pub name: &'static str,
    /// HLS kernel source registered with the [`SystemBuilder`].
    pub source: &'static str,
    /// Build-time scalar hints (trip-count resolution for synthesis).
    pub hints: HashMap<String, f64>,
    /// Binds arguments for `total_items` items.
    ///
    /// Must be a pure function of `total_items`: the same count gives
    /// the same arguments, bit for bit, on every call, in any process,
    /// and a call has no effect beyond its result. A serving cell calls
    /// it once per dispatch.
    pub bind: fn(usize) -> KernelArgs,
}

/// Configuration of one serving simulation.
///
/// The kernel mix is parsed and synthesized on the first run of the
/// config or of any clone of it, into the [`ServeArtifacts`] they share:
/// every later cell, checkpoint, resume and migration of any of them
/// reuses that one build. The build is keyed on the kernels' sources and
/// hints and on the HLS budget: a run after `kernels` changed builds
/// afresh (and replaces the shared build).
#[derive(Debug, Clone)]
pub struct ServeSimConfig {
    /// The serving workload and policy.
    pub spec: ServeSpec,
    /// The kernel mix tenants draw requests from (non-empty).
    pub kernels: Vec<ServeKernel>,
    /// Items per request (batch of `k` binds `k * items`).
    pub items: usize,
    /// Workers per Compute Node in each cell's system.
    pub workers_per_node: usize,
    /// Compute Nodes in each cell's system.
    pub compute_nodes: usize,
    /// Serving cells: independent systems the tenants are partitioned
    /// over round-robin (clamped to the tenant count).
    pub cells: usize,
    /// Maintenance cadence: fault/daemon ticks, pressure refresh and
    /// invariant checks fire every `cadence` of serving time.
    pub cadence: Duration,
    /// Fault campaign injected into every cell ([`CampaignSpec::off`]
    /// for a clean run).
    pub faults: CampaignSpec,
    /// Recovery policy when the campaign is active.
    pub resilience: ResilienceConfig,
    /// Telemetry plane: when set, every cell keeps a windowed
    /// [`TimeSeries`] and an armed [`FlightRecorder`], rolled on the
    /// maintenance cadence and merged in cell order into
    /// [`ServeOutcome::telemetry`]. `None` costs one branch per cadence
    /// tick and allocates nothing.
    pub telemetry: Option<TelemetryConfig>,
    /// The cells' pool width and their systems' check cadence (default
    /// [`RunCtx::SEQUENTIAL`]). Every export is byte-identical at any width.
    pub ctx: RunCtx,
    /// Where the kernel mix's build is kept. Clones of the config share
    /// it; install a clone of another config's handle to share a build
    /// across configs that serve the same mix.
    pub artifacts: ServeArtifacts,
}

/// A shared slot for the build of a serving kernel mix: the parsed
/// kernels and the synthesized module library. Clones of a handle share
/// one slot, and a run whose mix differs from the slot's build rebuilds
/// and replaces it. Exports never depend on whether a build was shared.
///
/// # Example
///
/// ```
/// use ecoscale_core::{linear_test_mix, run_serve_sim_with, ServeArtifacts, ServeSimConfig};
/// use ecoscale_runtime::ServeSpec;
/// use ecoscale_sim::check::CheckPlane;
///
/// let shared = ServeArtifacts::default();
/// let spec = ServeSpec::parse("seed=1,tenants=2,horizon=50us").unwrap();
/// let mut a = ServeSimConfig::new(spec.clone(), linear_test_mix());
/// a.artifacts = shared.clone();
/// let mut b = ServeSimConfig::new(spec, linear_test_mix());
/// b.artifacts = shared.clone();
/// assert!(!shared.is_built());
/// run_serve_sim_with(&a, &mut CheckPlane::disabled());
/// assert!(shared.is_built()); // `b`'s runs reuse `a`'s build
/// ```
#[derive(Clone, Default)]
pub struct ServeArtifacts(Arc<Mutex<Option<Arc<SystemArtifacts>>>>);

impl ServeArtifacts {
    fn slot(&self) -> MutexGuard<'_, Option<Arc<SystemArtifacts>>> {
        // Builds run outside the lock and the slot only ever takes a
        // whole value, so a poisoned slot still holds a valid one.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether the slot holds a build.
    pub fn is_built(&self) -> bool {
        self.slot().is_some()
    }

    /// The held artifacts if `builder` would build the same ones,
    /// otherwise freshly built ones, which replace them.
    fn resolve(&self, builder: &SystemBuilder) -> Arc<SystemArtifacts> {
        if let Some(hit) = self.slot().as_ref().filter(|a| a.built_from(builder)) {
            return Arc::clone(hit);
        }
        let built = Arc::new(builder.artifacts().expect("serving kernel mix must build"));
        *self.slot() = Some(Arc::clone(&built));
        built
    }
}

impl fmt::Debug for ServeArtifacts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ServeArtifacts")
    }
}

impl ServeSimConfig {
    /// A config serving `spec` over `kernels` with the default backend
    /// shape: one cell of 2×2 workers, 50 us cadence, 96-item requests,
    /// no faults.
    pub fn new(spec: ServeSpec, kernels: Vec<ServeKernel>) -> ServeSimConfig {
        ServeSimConfig {
            spec,
            kernels,
            items: 96,
            workers_per_node: 2,
            compute_nodes: 2,
            cells: 1,
            cadence: Duration::from_us(50),
            faults: CampaignSpec::off(),
            resilience: ResilienceConfig::full(),
            telemetry: None,
            ctx: RunCtx::SEQUENTIAL,
            artifacts: ServeArtifacts::default(),
        }
    }
}

/// The telemetry a serving run produced when
/// [`ServeSimConfig::telemetry`] was set: the per-cell time series
/// merged in cell order plus every cell's flight recorder (kept
/// separate — event rings are per-cell evidence, not mergeable
/// streams). Byte-identical at any pool width.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeTelemetry {
    /// Windowed series merged across cells in cell order.
    pub series: TimeSeries,
    /// One flight recorder per cell, in cell order.
    pub flights: Vec<FlightRecorder>,
}

impl ServeTelemetry {
    /// Whether any cell's recorder latched at least one trigger.
    pub fn fired(&self) -> bool {
        self.flights.iter().any(|f| f.fired())
    }

    /// The earliest trigger across cells (ties broken by cell order).
    pub fn first_trigger(&self) -> Option<&TriggerFire> {
        self.flights
            .iter()
            .filter_map(|f| f.first_trigger())
            .min_by_key(|t| t.time)
    }

    /// Canonical telemetry export: the merged series plus every cell's
    /// flight recorder.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"series\":");
        out.push_str(&self.series.to_json());
        out.push_str(",\"flights\":[");
        for (i, f) in self.flights.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&f.to_json());
        }
        out.push_str("]}");
        out
    }

    /// The flight-recorder evidence bundle: trigger totals, every
    /// cell's event/trigger rings, and the last `tail` series windows.
    /// This is what an anomaly dump writes to disk.
    pub fn flight_dump_json(&self, tail: usize) -> String {
        let fired: usize = self.flights.iter().map(|f| f.triggers().len()).sum();
        let mut out = String::from("{\"triggers_fired\":");
        out.push_str(&fired.to_string());
        out.push_str(",\"cells\":[");
        for (i, f) in self.flights.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"cell\":");
            out.push_str(&i.to_string());
            out.push_str(",\"flight\":");
            out.push_str(&f.to_json());
            out.push('}');
        }
        out.push_str("],\"series_tail\":");
        out.push_str(&self.series.tail_json(tail));
        out.push('}');
        out
    }
}

/// What one serving run produced.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// The merged SLO ledger across all cells.
    pub serving: ServingReport,
    /// Every cell's instruments (system layers + `serve.*`), merged in
    /// cell order.
    pub metrics: MetricsRegistry,
    /// Cell 0's system snapshot carrying the merged `serving` section
    /// and the merged metrics.
    pub report: SystemReport,
    /// Serving time from first arrival opportunity to full drain (the
    /// slowest cell).
    pub makespan: Duration,
    /// SEU software fallbacks across cells (resilience activity).
    pub fallbacks: u64,
    /// Requests the resilience layer lost across cells (must stay 0:
    /// ServePlane sheds at admission, it never drops accepted work).
    pub lost: u64,
    /// Invariant checks run across all cells' serve planes.
    pub checks_run: u64,
    /// Invariant violations across all cells (0 on a healthy run).
    pub violations: u64,
    /// Telemetry (merged series + per-cell flight recorders) when
    /// [`ServeSimConfig::telemetry`] was set.
    pub telemetry: Option<ServeTelemetry>,
}

struct CellResult {
    serving: ServingReport,
    metrics: MetricsRegistry,
    report: SystemReport,
    drained_at: Time,
    fallbacks: u64,
    lost: u64,
    cp: CheckPlane,
    telem: Option<CellTelem>,
}

/// One cell's telemetry state: the windowed series, the flight
/// recorder, and the delta cursors the cadence tick diffs against.
struct CellTelem {
    series: TimeSeries,
    flight: FlightRecorder,
    last_viol: u64,
    last_quar: u64,
}

/// Runs the serving simulation, absorbing every cell's invariant
/// tallies into `cp`. (Cells always check their own planes at cadence
/// 1; `cp` only controls aggregation.)
///
/// # Panics
///
/// Panics on an empty kernel mix, a zero cadence, or an unbuildable
/// system config.
pub fn run_serve_sim_with(cfg: &ServeSimConfig, cp: &mut CheckPlane) -> ServeOutcome {
    let artifacts = prepare(cfg);
    let results = cfg.ctx.map(partition_tenants(cfg), |ids| {
        let mut cell = CellSim::provisioned(cfg, ids, Arc::clone(&artifacts));
        cell.run(None);
        cell.into_result()
    });
    merge_results(results, cp)
}

/// Round-robin partition of the spec's tenants over the serving cells
/// (clamped to the tenant count).
fn partition_tenants(cfg: &ServeSimConfig) -> Vec<Vec<u32>> {
    let cells = cfg.cells.clamp(1, cfg.spec.tenants);
    (0..cells)
        .map(|c| {
            (0..cfg.spec.tenants as u32)
                .filter(|t| *t as usize % cells == c)
                .collect()
        })
        .collect()
}

/// Merges per-cell results in cell order into one [`ServeOutcome`],
/// absorbing every cell's invariant tallies into `cp`.
fn merge_results(results: Vec<CellResult>, cp: &mut CheckPlane) -> ServeOutcome {
    let mut iter = results.into_iter();
    let first = iter.next().expect("at least one cell");
    let mut serving = first.serving;
    let mut metrics = first.metrics;
    let mut report = first.report;
    let mut drained_at = first.drained_at;
    let mut fallbacks = first.fallbacks;
    let mut lost = first.lost;
    let mut checks_run = first.cp.checks_run();
    let mut violations = first.cp.violation_count();
    let mut telemetry = first.telem.map(|t| ServeTelemetry {
        series: t.series,
        flights: vec![t.flight],
    });
    cp.absorb(&first.cp);
    for cell in iter {
        serving.merge(&cell.serving);
        metrics.merge(&cell.metrics);
        drained_at = drained_at.max(cell.drained_at);
        fallbacks += cell.fallbacks;
        lost += cell.lost;
        checks_run += cell.cp.checks_run();
        violations += cell.cp.violation_count();
        if let (Some(agg), Some(t)) = (telemetry.as_mut(), cell.telem) {
            agg.series.merge(&t.series);
            agg.flights.push(t.flight);
        }
        cp.absorb(&cell.cp);
    }
    report.serving = Some(serving.clone());
    report.metrics = metrics.clone();
    ServeOutcome {
        serving,
        metrics,
        report,
        makespan: drained_at.since(Time::ZERO),
        fallbacks,
        lost,
        checks_run,
        violations,
        telemetry,
    }
}

/// The preamble of every serving entry point: checks `cfg` and resolves
/// the build artifacts its cells share.
///
/// # Panics
///
/// As [`check_cfg`], or on a kernel mix that does not build.
fn prepare(cfg: &ServeSimConfig) -> Arc<SystemArtifacts> {
    check_cfg(cfg);
    cfg.artifacts.resolve(&cell_builder(cfg))
}

/// Checks the config a serving entry point is handed.
///
/// # Panics
///
/// Panics on an empty kernel mix or a zero cadence.
fn check_cfg(cfg: &ServeSimConfig) {
    assert!(!cfg.kernels.is_empty(), "serving needs a kernel mix");
    assert!(!cfg.cadence.is_zero(), "cadence must be > 0");
}

fn cell_builder(cfg: &ServeSimConfig) -> SystemBuilder {
    let mut b = SystemBuilder::new()
        .workers_per_node(cfg.workers_per_node)
        .compute_nodes(cfg.compute_nodes);
    for k in &cfg.kernels {
        b = b.kernel(k.source, k.hints.clone());
    }
    b
}

fn build_cell_system(cfg: &ServeSimConfig, artifacts: &SystemArtifacts) -> EcoscaleSystem {
    let mut system = cell_builder(cfg)
        .with_checks(CheckPlane::armed(cfg.ctx.check))
        .assemble(artifacts)
        .expect("serving cell shape must build");
    // A serving cell provisions its mix eagerly: every lane keeps the
    // whole mix resident so steady-state requests hit the accelerator
    // path (and a fault campaign has real fabric state to upset). A
    // module that does not fit a lane's fabric is skipped — calls for
    // it fall back to software on that lane.
    for lane in 0..system.num_workers() {
        for k in &cfg.kernels {
            let _ = system.load_module(NodeId(lane), k.name);
        }
    }
    system
}

/// One serving cell's event loop held as an explicit state machine, so a
/// run can pause at a loop boundary, serialize itself through its
/// [`Persist`] impl, and continue — in this process or another
/// — from the byte-identical point. [`run_serve_sim_with`] drives each
/// cell through this type; checkpoint/resume ([`serve_checkpoint`],
/// [`serve_resume_with`]) and serving-cell migration
/// ([`serve_migrate_with`]) are the same loop paused and revived.
pub struct CellSim<'a> {
    cfg: &'a ServeSimConfig,
    artifacts: Arc<SystemArtifacts>,
    ids: Vec<u32>,
    system: EcoscaleSystem,
    plane: ServePlane,
    // the cell checks itself unconditionally; the caller's plane decides
    // whether the tallies are aggregated further
    cp: CheckPlane,
    free_at: Vec<Time>,
    // (completion time, dispatch sequence, batch): retired in
    // (time, seq) order so completions are deterministic
    in_flight: Vec<(Time, u64, Batch)>,
    seq: u64,
    now: Time,
    next_tick: Time,
    last_resil: u64,
    telem: Option<CellTelem>,
}

impl<'a> CellSim<'a> {
    /// Builds one cell hosting `ids`' tenants: a freshly provisioned
    /// system (mix resident on every lane), the fault campaign armed
    /// when `cfg` carries one, and an empty serving ledger at t = 0.
    ///
    /// # Panics
    ///
    /// As [`run_serve_sim_with`].
    pub fn new(cfg: &'a ServeSimConfig, ids: Vec<u32>) -> CellSim<'a> {
        CellSim::provisioned(cfg, ids, prepare(cfg))
    }

    /// [`CellSim::new`] on artifacts already resolved by [`prepare`].
    fn provisioned(
        cfg: &'a ServeSimConfig,
        ids: Vec<u32>,
        artifacts: Arc<SystemArtifacts>,
    ) -> CellSim<'a> {
        let mut system = build_cell_system(cfg, &artifacts);
        if !cfg.faults.is_off() {
            system.enable_faults(&cfg.faults, cfg.resilience);
        }
        let lanes = system.num_workers();
        CellSim {
            plane: ServePlane::for_tenants(&cfg.spec, cfg.kernels.len(), &ids),
            cp: CheckPlane::enabled(1),
            free_at: vec![Time::ZERO; lanes],
            in_flight: Vec::new(),
            seq: 0,
            now: Time::ZERO,
            next_tick: Time::ZERO + cfg.cadence,
            last_resil: 0,
            telem: cfg.telemetry.as_ref().map(|tc| CellTelem {
                series: TimeSeries::new(tc.window, tc.retain),
                flight: FlightRecorder::armed(tc.flight, tc.policy),
                last_viol: 0,
                last_quar: 0,
            }),
            system,
            cfg,
            artifacts,
            ids,
        }
    }

    /// Current cell time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Runs the serving loop. With `limit = None` runs to full drain;
    /// with `Some(t)` pauses before the first instant past `t` — a safe
    /// window boundary where every layer's state is self-consistent and
    /// saving the cell captures the run exactly. Returns
    /// `true` once drained. Re-entering after a pause (or a restore)
    /// continues bit-identically to an uninterrupted run.
    pub fn run(&mut self, limit: Option<Time>) -> bool {
        loop {
            // 1. retire completions due
            if self.in_flight.iter().any(|(t, _, _)| *t <= self.now) {
                let mut due: Vec<(Time, u64, Batch)> = Vec::new();
                self.in_flight.retain_mut(|entry| {
                    if entry.0 <= self.now {
                        let batch = Batch {
                            kernel: entry.2.kernel,
                            requests: std::mem::take(&mut entry.2.requests),
                        };
                        due.push((entry.0, entry.1, batch));
                        false
                    } else {
                        true
                    }
                });
                due.sort_by_key(|(t, s, _)| (*t, *s));
                for (t, _, b) in &due {
                    self.plane.complete_batch(b, *t);
                }
            }

            // 2. arrivals up to now
            self.plane.pop_arrivals(self.now);

            // 3. cadence maintenance (the advance step lands exactly on
            // tick boundaries while work remains)
            while self.next_tick <= self.now {
                self.system.fault_tick();
                self.system.daemon_tick();
                let resil = self
                    .system
                    .resilience()
                    .map(|r| r.failures() + r.fallbacks() + r.quarantines())
                    .unwrap_or(0);
                self.plane.set_pressure(resil > self.last_resil);
                self.last_resil = resil;
                self.plane.check_invariants(&mut self.cp);
                self.telem_tick(self.next_tick);
                self.next_tick += self.cfg.cadence;
            }

            // 4. dispatch ripe batches onto free lanes
            let lanes = self.free_at.len();
            while self.plane.dispatch_ready(self.now) {
                let lane = match (0..lanes).find(|&l| self.free_at[l] <= self.now) {
                    Some(l) => l,
                    None => break,
                };
                let batch = self
                    .plane
                    .take_batch(self.now)
                    .expect("ready implies queued");
                let kernel = &self.cfg.kernels[batch.kernel as usize];
                let mut args = (kernel.bind)(self.cfg.items * batch.len());
                match self.system.call(NodeId(lane), kernel.name, &mut args) {
                    Ok(out) => {
                        let done = self.now + self.cfg.spec.overhead + out.latency;
                        self.free_at[lane] = done;
                        self.in_flight.push((done, self.seq, batch));
                        self.seq += 1;
                    }
                    Err(_) => self.plane.fail_batch(&batch, self.now),
                }
            }

            // 5. advance to the next interesting instant
            let mut next: Option<Time> = None;
            let mut fold = |t: Time| next = Some(next.map_or(t, |n: Time| n.min(t)));
            if let Some(a) = self.plane.next_arrival() {
                fold(a);
            }
            for (t, _, _) in &self.in_flight {
                fold(*t);
            }
            if self.plane.queued() > 0 {
                let ripe = self.plane.ripe_at(self.now).expect("queued");
                let lane = self.free_at.iter().copied().min().expect("lanes");
                fold(ripe.max(lane));
            }
            match next {
                // while work remains, maintenance keeps firing on cadence
                Some(t) => {
                    let t = t.min(self.next_tick);
                    let target = if t > self.now {
                        t
                    } else {
                        Time::from_ps(self.now.as_ps() + 1)
                    };
                    // pause *before* stepping past the limit: steps 1-4
                    // are idempotent at a fixed `now`, so re-entering
                    // here continues exactly where we stopped
                    if limit.is_some_and(|l| target > l) {
                        return false;
                    }
                    self.now = target;
                }
                None => break,
            }
        }
        debug_assert!(self.plane.drained());
        true
    }

    /// One telemetry maintenance tick at `at` (a cadence boundary or
    /// the drain instant): rolls the serve plane's windowed SLO ledger
    /// into the series, then diffs the CheckPlane and resilience layers
    /// for trigger-worthy anomalies. One branch when telemetry is off.
    fn telem_tick(&mut self, at: Time) {
        let t = match self.telem.as_mut() {
            Some(t) => t,
            None => return,
        };
        self.plane.telemetry_tick(at, &mut t.series, &mut t.flight);
        let window = t.series.window_index(at);
        let viol = self.cp.violation_count();
        if viol > t.last_viol {
            let fresh = viol - t.last_viol;
            t.series.incr("check.violations", fresh);
            let cp = &self.cp;
            t.flight
                .trigger(at, window, TriggerKind::CheckViolation, || {
                    format!(
                        "{fresh} new invariant violation(s), first: {:?}",
                        cp.first()
                    )
                });
            t.last_viol = viol;
        }
        if let Some(r) = self.system.resilience() {
            t.series.set_gauge("resil.fallbacks", r.fallbacks());
            let q = r.quarantines();
            if q > t.last_quar {
                let fresh = q - t.last_quar;
                t.series.incr("resil.quarantines", fresh);
                t.flight.trigger(at, window, TriggerKind::Quarantine, || {
                    format!(
                        "{fresh} new quarantine(s), domains: {:?}",
                        r.quarantined_domains()
                    )
                });
                t.last_quar = q;
            }
        }
    }

    /// Finishes the cell: runs the final invariant pass, flushes the
    /// telemetry series (closing the partial window and proving window
    /// conservation), and folds the system's and the plane's
    /// instruments into one [`CellResult`].
    fn into_result(mut self) -> CellResult {
        self.plane.check_invariants(&mut self.cp);
        self.telem_tick(self.now);
        if let Some(t) = self.telem.as_mut() {
            t.series.finish(self.now);
            t.series.check_conservation(&mut self.cp);
        }
        let mut metrics = self.system.export_metrics();
        self.plane.export_metrics(&mut metrics);
        let (fallbacks, lost) = self
            .system
            .resilience()
            .map(|r| (r.fallbacks(), r.lost()))
            .unwrap_or((0, 0));
        CellResult {
            serving: self.plane.report(),
            metrics,
            report: SystemReport::capture(&self.system),
            drained_at: self.now,
            fallbacks,
            lost,
            cp: self.cp,
            telem: self.telem,
        }
    }

    /// Restores this cell like [`Persist::persist`] but then
    /// **migrates** its tenants onto healthy hardware: the restored
    /// system (with whatever upsets, quarantines and fault history it
    /// carried) is discarded and replaced by a freshly provisioned,
    /// fault-free one. The ServePlane ledger and the in-flight dispatch
    /// ledger carry every accepted request across the move, so the
    /// continuation completes them all — zero lost requests.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Persist::persist`].
    pub fn migrate_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), RestoreError> {
        self.persist(r)?;
        self.system = build_cell_system(self.cfg, &self.artifacts);
        Ok(())
    }
}

/// The cell's complete state: hosted tenants, loop cursors, lane
/// occupancy, the in-flight dispatch ledger, the ServePlane, the whole
/// [`EcoscaleSystem`], the cell's CheckPlane tallies and (when armed)
/// its telemetry. Pair with a section of a versioned [`SnapshotBuilder`]
/// stream for checksummed storage. A load refuses a snapshot that
/// disagrees with this cell's build configuration (tenant set, lane
/// count, kernel mix, fault and telemetry arming), and an in-flight
/// ledger no lane schedule could produce: a completion that is not after
/// now, or that is not a lane's `free_at` left for it by an earlier
/// batch (so also more in-flight batches than lanes).
impl Persist for CellSim<'_> {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        io.expect(self.ids.len(), "tenant count")?;
        for &id in &self.ids {
            io.expect(id, "tenant")?;
        }
        io.time(&mut self.now)?;
        io.time(&mut self.next_tick)?;
        io.u64(&mut self.seq)?;
        io.u64(&mut self.last_resil)?;
        io.expect(self.free_at.len(), "lane count")?;
        for t in &mut self.free_at {
            io.time(t)?;
        }
        let (now, seq, mix) = (self.now, self.seq, self.cfg.kernels.len());
        let (mut i, mut prev_seq) = (0, None);
        // Each in-flight batch holds its own lane until it completes, and
        // dispatch set that lane's `free_at` to the completion time.
        let free_at = &self.free_at;
        let mut held = vec![false; free_at.len()];
        io.vec(&mut self.in_flight, "in-flight batches", |io, batch| {
            let (t, s, b) = batch;
            io.time(t)?;
            let t = *t;
            io.ensure(t > now, || {
                format!("in-flight batch {i} completes at {t}, not after now")
            })?;
            let lane = (0..free_at.len()).find(|&l| !held[l] && free_at[l] == t);
            io.ensure(lane.is_some(), || {
                format!("in-flight batch {i} completes at {t}, when no unclaimed lane frees")
            })?;
            if let Some(l) = lane {
                held[l] = true;
            }
            io.u64(s)?;
            io.ensure(prev_seq.is_none_or(|p| p < *s) && *s < seq, || {
                format!("in-flight sequence unsorted at {i}")
            })?;
            prev_seq = Some(*s);
            io.u32(&mut b.kernel)?;
            let kernel = b.kernel;
            io.ensure((kernel as usize) < mix, || {
                format!("in-flight batch {i} uses kernel {kernel}, mix has {mix}")
            })?;
            io.vec(&mut b.requests, "in-flight requests", IO::item)?;
            io.ensure(!b.requests.is_empty(), || {
                format!("in-flight batch {i} claims 0 requests")
            })?;
            i += 1;
            Ok(())
        })?;
        self.plane.persist(io)?;
        self.system.persist(io)?;
        self.cp.persist(io)?;
        io.expect(self.telem.is_some(), "telemetry armed")?;
        if let Some(t) = &mut self.telem {
            t.series.persist(io)?;
            t.flight.persist(io)?;
            io.u64(&mut t.last_viol)?;
            io.u64(&mut t.last_quar)?;
        }
        Ok(())
    }
}

/// The "meta" section pinning the checkpoint's configuration: the
/// serving spec, the fault campaign, the backend shape and the
/// kernel-mix names. Saving writes `cfg`'s; a resume refuses a snapshot
/// whose meta disagrees with the caller's config.
fn persist_meta<IO: SnapIo>(
    cfg: &ServeSimConfig,
    cells: usize,
    io: &mut IO,
) -> Result<(), RestoreError> {
    io.expect(cfg.spec.to_string(), "serve spec")?;
    io.expect(cfg.faults.to_string(), "fault campaign")?;
    io.expect(cfg.items, "items per request")?;
    io.expect(cfg.workers_per_node, "workers per node")?;
    io.expect(cfg.compute_nodes, "compute nodes")?;
    io.expect(cells, "cells")?;
    io.expect(cfg.cadence, "cadence")?;
    io.expect(cfg.telemetry.is_some(), "telemetry armed")?;
    if let Some(tc) = &cfg.telemetry {
        io.expect(tc.window, "telemetry window")?;
        io.expect(tc.retain, "telemetry retain")?;
        io.expect(tc.flight, "telemetry flight cap")?;
        io.expect(tc.policy, "telemetry policy")?;
    }
    io.expect(cfg.kernels.len(), "kernel count")?;
    for k in &cfg.kernels {
        io.expect(k.name.to_owned(), "kernel name")?;
    }
    Ok(())
}

/// Runs the serving simulation up to `at` and serializes the whole run
/// into one versioned snapshot: a `meta` section pinning the config and
/// one checksummed `cell.N` section per serving cell, each paused at a
/// safe loop boundary no later than `at`. Cells already drained by `at`
/// are captured drained. Feed the bytes to [`serve_resume_with`] (same config)
/// to continue the run bit-identically, or to [`serve_migrate_with`] to move
/// one cell's tenants onto healthy hardware.
///
/// # Panics
///
/// Panics on an empty kernel mix or a zero cadence (as
/// [`run_serve_sim_with`]).
pub fn serve_checkpoint(cfg: &ServeSimConfig, at: Time) -> Vec<u8> {
    let artifacts = prepare(cfg);
    let parts = partition_tenants(cfg);
    let cells = parts.len();
    let states = cfg.ctx.map(parts, |ids| {
        let mut cell = CellSim::provisioned(cfg, ids, Arc::clone(&artifacts));
        cell.run(Some(at));
        let mut w = SnapWriter::new();
        w.save(&mut cell);
        w.into_bytes()
    });
    let mut b = SnapshotBuilder::new();
    b.section("meta", |w| {
        persist_meta(cfg, cells, w).expect("saving never refuses");
    });
    for (i, state) in states.iter().enumerate() {
        b.section(&format!("cell.{i}"), |w| w.put_bytes(state));
    }
    b.finish()
}

/// Resumes a [`serve_checkpoint`] stream to full drain under the same
/// config, absorbing every cell's invariant tallies into `cp`. The
/// continuation is bit-identical to the uninterrupted
/// [`run_serve_sim_with`] of the same config — metrics, report and
/// serving exports byte-for-byte.
///
/// # Errors
///
/// [`RestoreError`] when the stream is corrupt (bad magic, future
/// version, truncation, checksum mismatch — all refused before any
/// state is touched) or disagrees with `cfg`.
pub fn serve_resume_with(
    cfg: &ServeSimConfig,
    bytes: &[u8],
    cp: &mut CheckPlane,
) -> Result<ServeOutcome, RestoreError> {
    resume_inner(cfg, bytes, cp, None)
}

/// Restores a [`serve_checkpoint`] stream but migrates cell `victim`'s
/// tenants onto a freshly provisioned, fault-free system (the serving
/// answer to a quarantined cell): its ServePlane ledger and in-flight
/// batches move wholesale, so no accepted request is lost. The other
/// cells resume in place. Every cell's invariant tallies are absorbed
/// into `cp`.
///
/// # Errors
///
/// As [`serve_resume_with`], plus a malformed error for a `victim` index
/// out of range.
pub fn serve_migrate_with(
    cfg: &ServeSimConfig,
    bytes: &[u8],
    victim: usize,
    cp: &mut CheckPlane,
) -> Result<ServeOutcome, RestoreError> {
    resume_inner(cfg, bytes, cp, Some(victim))
}

fn resume_inner(
    cfg: &ServeSimConfig,
    bytes: &[u8],
    cp: &mut CheckPlane,
    migrate: Option<usize>,
) -> Result<ServeOutcome, RestoreError> {
    check_cfg(cfg);
    let file = SnapshotFile::parse(bytes)?;
    // snap.version_refused: every resume proves that a future-version
    // copy of this very stream is refused outright. The check runs on a
    // live plane and is absorbed with the cells' tallies.
    let mut fcp = CheckPlane::enabled(1);
    if bytes.len() >= 12 {
        let mut bumped = bytes.to_vec();
        bumped[8..12].copy_from_slice(&(file.version() + 1).to_le_bytes());
        fcp.check(
            invariant::SNAP_VERSION_REFUSED,
            matches!(
                SnapshotFile::parse(&bumped),
                Err(RestoreError::FutureVersion { .. })
            ),
            || "a future-version snapshot was not refused".to_owned(),
        );
    }
    let mut meta = file.section("meta")?;
    persist_meta(cfg, partition_tenants(cfg).len(), &mut meta)?;
    if !meta.is_exhausted() {
        return Err(malformed("meta section has trailing bytes"));
    }
    let parts: Vec<(usize, Vec<u32>)> = partition_tenants(cfg).into_iter().enumerate().collect();
    if let Some(v) = migrate {
        if v >= parts.len() {
            return Err(malformed(format!(
                "migration victim {v} out of range: {} cells",
                parts.len()
            )));
        }
    }
    // The mix is built only once the stream has passed its checks, just
    // before the first cell needs it.
    let artifacts = OnceLock::new();
    let ctx = cfg.ctx;
    let results = ctx.map(parts, |(i, ids)| -> Result<CellResult, RestoreError> {
        let mut sect = file.section(&format!("cell.{i}"))?;
        let payload = sect.get_bytes()?;
        if !sect.is_exhausted() {
            return Err(malformed(format!("cell.{i} section has trailing bytes")));
        }
        let shared = artifacts.get_or_init(|| cfg.artifacts.resolve(&cell_builder(cfg)));
        let mut cell = CellSim::provisioned(cfg, ids, Arc::clone(shared));
        let mut r = SnapReader::new(&payload);
        if migrate == Some(i) {
            cell.migrate_from(&mut r)?;
        } else {
            cell.persist(&mut r)?;
            // snap.roundtrip_identical: the restored cell re-serializes
            // to the exact bytes it was restored from
            let mut w = SnapWriter::new();
            w.save(&mut cell);
            let same = w.into_bytes() == payload;
            cell.cp
                .check(invariant::SNAP_ROUNDTRIP_IDENTICAL, same, || {
                    format!("cell {i} re-serialization differs from its snapshot")
                });
        }
        if !r.is_exhausted() {
            return Err(malformed(format!("cell.{i} state has trailing bytes")));
        }
        cell.run(None);
        Ok(cell.into_result())
    });
    let mut cells = Vec::with_capacity(results.len());
    for res in results {
        cells.push(res?);
    }
    cp.absorb(&fcp);
    let mut out = merge_results(cells, cp);
    out.checks_run += fcp.checks_run();
    out.violations += fcp.violation_count();
    Ok(out)
}

/// Convenience: builds a scalar-hint map for a [`ServeKernel`].
pub fn serve_hints(pairs: &[(&str, f64)]) -> HashMap<String, f64> {
    pairs.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect()
}

/// A minimal item-linear mix for tests and smoke runs that cannot see
/// the `apps` crate (which hosts the full mix in `apps::mix`).
pub fn linear_test_mix() -> Vec<ServeKernel> {
    fn bind_saxpy(n: usize) -> KernelArgs {
        let mut a = KernelArgs::new();
        a.bind_array("x", (0..n).map(|i| i as f64 * 0.5).collect())
            .bind_array("y", (0..n).map(|i| (i % 7) as f64).collect())
            .bind_array("z", vec![0.0; n])
            .bind_scalar("a", 3.0)
            .bind_scalar("n", n as f64);
        a
    }
    fn bind_smooth(n: usize) -> KernelArgs {
        let mut a = KernelArgs::new();
        a.bind_array("x", (0..n + 2).map(|i| (i % 11) as f64).collect())
            .bind_array("y", vec![0.0; n])
            .bind_scalar("n", n as f64);
        a
    }
    vec![
        ServeKernel {
            name: "saxpy",
            source: "kernel saxpy(in float x[], in float y[], out float z[], float a, int n) {
                for (i in 0 .. n) { z[i] = a * x[i] + y[i]; }
            }",
            hints: serve_hints(&[("a", 3.0), ("n", 96.0)]),
            bind: bind_saxpy,
        },
        ServeKernel {
            name: "smooth",
            source: "kernel smooth(in float x[], out float y[], int n) {
                for (i in 0 .. n) { y[i] = 0.25 * x[i] + 0.5 * x[i + 1] + 0.25 * x[i + 2]; }
            }",
            hints: serve_hints(&[("n", 96.0)]),
            bind: bind_smooth,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecoscale_sim::json;

    fn quick_cfg() -> ServeSimConfig {
        let spec =
            ServeSpec::parse("seed=21,tenants=4,rate=100000,horizon=500us,batch=4,deadline=200us")
                .unwrap();
        ServeSimConfig {
            ctx: crate::test_ctx(),
            ..ServeSimConfig::new(spec, linear_test_mix())
        }
    }

    /// A serving run whose aggregated tallies the test does not read.
    fn run(cfg: &ServeSimConfig) -> ServeOutcome {
        run_serve_sim_with(cfg, &mut CheckPlane::disabled())
    }

    /// [`run`] for a resume.
    fn resume(cfg: &ServeSimConfig, bytes: &[u8]) -> Result<ServeOutcome, RestoreError> {
        serve_resume_with(cfg, bytes, &mut CheckPlane::disabled())
    }

    #[test]
    fn clean_run_conserves_and_completes() {
        let cfg = quick_cfg();
        let mut cp = CheckPlane::enabled(1);
        let out = run_serve_sim_with(&cfg, &mut cp);
        assert!(cp.ok(), "{:?}", cp.first());
        assert_eq!(out.violations, 0);
        assert!(out.checks_run > 0);
        assert!(out.serving.conserved(), "drained run conserves requests");
        assert!(out.serving.completed() > 0);
        assert_eq!(out.lost, 0);
        assert!(out.makespan >= cfg.spec.horizon);
        // metrics carry both the system layers and the serve plane
        assert!(out.metrics.counter("serve.submitted").unwrap() > 0);
        assert!(out.metrics.counter("system.calls_cpu").is_some());
        // the report embeds the serving section
        let serving = out.report.serving.as_ref().expect("serving section");
        assert_eq!(serving.completed(), out.serving.completed());
        let parsed = json::parse(&out.report.to_json()).unwrap();
        assert!(parsed
            .get("serving")
            .and_then(|s| s.get("completed"))
            .is_some());
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = quick_cfg();
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.serving, b.serving);
        assert_eq!(a.metrics.to_json(), b.metrics.to_json());
        assert_eq!(a.report.to_json(), b.report.to_json());
    }

    #[test]
    fn cells_partition_tenants_without_losing_traffic() {
        let cfg = quick_cfg();
        let mut split = quick_cfg();
        split.cells = 2;
        let whole = run(&cfg);
        let split = run(&split);
        // per-tenant arrival streams are salted by global id: the
        // submitted totals agree regardless of the partition
        assert_eq!(whole.serving.submitted(), split.serving.submitted());
        assert_eq!(split.serving.tenants.len(), 4);
        assert!(split.serving.conserved());
        // cells clamp to the tenant count
        let mut over = quick_cfg();
        over.cells = 64;
        let over = run(&over);
        assert!(over.serving.conserved());
    }

    #[test]
    fn batching_on_beats_batching_off_on_goodput() {
        // saturating load: per-dispatch overhead dominates unbatched
        // service, so coalescing buys real capacity
        let spec = ServeSpec::parse(
            "seed=33,tenants=4,rate=350000,horizon=1ms,batch=8,deadline=300us,queue=32",
        )
        .unwrap();
        let mut on = ServeSimConfig::new(spec.clone(), linear_test_mix());
        on.items = 32;
        on.ctx = crate::test_ctx();
        let mut off = on.clone();
        off.spec = spec.batching_off();
        let on = run(&on);
        let off = run(&off);
        assert!(on.serving.conserved() && off.serving.conserved());
        assert!(
            on.serving.goodput() > off.serving.goodput(),
            "batching on {} must beat off {}",
            on.serving.goodput(),
            off.serving.goodput()
        );
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let mut cfg = quick_cfg();
        cfg.cells = 2;
        let full = run(&cfg);
        for at_us in [0u64, 120, 250] {
            let bytes = serve_checkpoint(&cfg, Time::from_us(at_us));
            let mut cp = CheckPlane::enabled(1);
            let resumed = serve_resume_with(&cfg, &bytes, &mut cp).expect("resume");
            assert!(cp.ok(), "{:?}", cp.first());
            assert_eq!(resumed.serving, full.serving, "at {at_us}us");
            assert_eq!(resumed.metrics.to_json(), full.metrics.to_json());
            assert_eq!(resumed.report.to_json(), full.report.to_json());
            assert_eq!(resumed.makespan, full.makespan);
        }
    }

    #[test]
    fn faulted_checkpoint_resume_is_bit_identical() {
        let mut cfg = quick_cfg();
        cfg.faults = CampaignSpec::parse("seed=5,seu=200us,smmu=0.002,scrub=400us").unwrap();
        let full = run(&cfg);
        let bytes = serve_checkpoint(&cfg, Time::from_us(200));
        let mut cp = CheckPlane::enabled(1);
        let resumed = serve_resume_with(&cfg, &bytes, &mut cp).expect("resume");
        assert!(cp.ok(), "{:?}", cp.first());
        assert_eq!(resumed.serving, full.serving);
        assert_eq!(resumed.metrics.to_json(), full.metrics.to_json());
        assert_eq!(resumed.report.to_json(), full.report.to_json());
    }

    #[test]
    fn resume_refuses_corruption_without_partial_state() {
        let cfg = quick_cfg();
        let bytes = serve_checkpoint(&cfg, Time::from_us(200));
        // bad magic
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(resume(&cfg, &bad), Err(RestoreError::BadMagic)));
        // future version
        let mut bad = bytes.clone();
        bad[8] = bad[8].wrapping_add(1);
        assert!(matches!(
            resume(&cfg, &bad),
            Err(RestoreError::FutureVersion { .. })
        ));
        // a version-2 stream predates the current serving ledger codec
        let mut bad = bytes.clone();
        bad[8..12].copy_from_slice(&2u32.to_le_bytes());
        match resume(&cfg, &bad) {
            Err(RestoreError::Malformed { context }) => {
                assert!(context.contains("older than supported"), "{context}")
            }
            other => panic!("a v2 stream gave {:?}", other.map(|_| ())),
        }
        // flip one payload bit in every section: checksum verification
        // must refuse each before anything restores
        let file = SnapshotFile::parse(&bytes).unwrap();
        let cuts: Vec<(String, usize)> = file
            .sections()
            .map(|s| (s.name.clone(), s.offset as usize))
            .collect();
        for (name, offset) in cuts {
            let mut bad = bytes.clone();
            bad[offset] ^= 0x01;
            match resume(&cfg, &bad) {
                Err(RestoreError::BadChecksum { section, .. }) => assert_eq!(section, name),
                other => panic!("corrupt `{name}` gave {other:?}"),
            }
        }
        // truncation
        assert!(matches!(
            resume(&cfg, &bytes[..bytes.len() / 2]),
            Err(RestoreError::Truncated { .. }) | Err(RestoreError::Malformed { .. })
        ));
        // a different config must be refused by the meta section
        let mut other = quick_cfg();
        other.spec.tenants = 3;
        assert!(matches!(
            resume(&other, &bytes),
            Err(RestoreError::Malformed { .. })
        ));
    }

    #[test]
    fn resume_refuses_an_in_flight_ledger_no_lane_could_hold() {
        let cfg = quick_cfg();
        let ids = partition_tenants(&cfg).swap_remove(0);
        let own = detached(&cfg);
        let mut cell = CellSim::new(&own, ids.clone());
        let mut at = Time::from_us(20);
        while {
            cell.run(Some(at));
            cell.in_flight.is_empty()
        } {
            at += Duration::from_us(5);
        }
        let load = |cell: &mut CellSim<'_>| {
            let mut w = SnapWriter::new();
            w.save(cell);
            let mut fresh = CellSim::new(&own, ids.clone());
            fresh.persist(&mut SnapReader::new(&w.into_bytes()))
        };
        let refused = |got: Result<(), RestoreError>, what: &str| match got {
            Err(RestoreError::Malformed { context }) => {
                assert!(context.contains("no unclaimed lane"), "{what}: {context}")
            }
            other => panic!("{what} gave {other:?}"),
        };
        assert!(load(&mut cell).is_ok());
        // a completion one picosecond after its lane frees
        let t = cell.in_flight[0].0;
        cell.in_flight[0].0 = t + Duration::from_ps(1);
        refused(load(&mut cell), "a completion no lane frees at");
        cell.in_flight[0].0 = t;
        // more batches in flight than lanes, all due when the first is
        let batch = cell.in_flight[0].2.clone();
        for _ in 0..cell.free_at.len() {
            cell.in_flight.push((t, cell.seq, batch.clone()));
            cell.seq += 1;
        }
        refused(load(&mut cell), "more in-flight batches than lanes");
    }

    #[test]
    fn resume_refuses_a_checkpoint_armed_otherwise() {
        // the resuming config, not the stream, says how a resumed cell's
        // systems self-check: a stream armed otherwise is refused
        for (then, now) in [(0, 1), (1, 0)] {
            let mut cfg = quick_cfg();
            cfg.ctx.check = then;
            let bytes = serve_checkpoint(&cfg, Time::from_us(200));
            assert!(resume(&cfg, &bytes).is_ok(), "armed alike at {then}");
            cfg.ctx.check = now;
            match resume(&cfg, &bytes) {
                Err(RestoreError::Malformed { context }) => {
                    assert!(context.contains("self-checks are armed"), "{context}")
                }
                other => panic!(
                    "checkpointed at check={then}, resumed at {now}: {:?}",
                    other.map(|_| ())
                ),
            }
        }
    }

    #[test]
    fn migration_moves_tenants_with_zero_lost_requests() {
        let mut cfg = quick_cfg();
        cfg.cells = 2;
        cfg.faults = CampaignSpec::parse("seed=5,seu=150us,smmu=0.002,scrub=300us").unwrap();
        let bytes = serve_checkpoint(&cfg, Time::from_us(250));
        let mut cp = CheckPlane::enabled(1);
        let out = serve_migrate_with(&cfg, &bytes, 0, &mut cp).expect("migrate");
        assert!(cp.ok(), "{:?}", cp.first());
        assert_eq!(out.lost, 0, "migration must not lose accepted work");
        assert!(
            out.serving.conserved(),
            "conservation holds across the move"
        );
        assert!(out.serving.completed() > 0);
        // out-of-range victim is a typed refusal
        assert!(matches!(
            serve_migrate_with(&cfg, &bytes, 99, &mut CheckPlane::disabled()),
            Err(RestoreError::Malformed { .. })
        ));
    }

    #[test]
    fn telemetry_series_rolls_windows_and_conserves() {
        let mut cfg = quick_cfg();
        cfg.telemetry = Some(TelemetryConfig::new(Duration::from_us(50)));
        let mut cp = CheckPlane::enabled(1);
        let out = run_serve_sim_with(&cfg, &mut cp);
        assert!(cp.ok(), "{:?}", cp.first());
        let t = out.telemetry.expect("telemetry armed");
        assert!(t.series.rolled() > 0, "horizon spans several windows");
        assert_eq!(
            t.series.lifetime("serve.submitted"),
            out.serving.submitted(),
            "series lifetime total matches the serving ledger"
        );
        assert_eq!(t.flights.len(), 1);
        assert!(!t.fired(), "a clean in-SLO run latches no trigger");
        let parsed = json::parse(&t.to_json()).unwrap();
        assert!(parsed
            .get("series")
            .and_then(|s| s.get("windows"))
            .is_some());
        assert!(parsed.get("flights").is_some());
        // disabled telemetry costs nothing and exports nothing
        let off = run(&quick_cfg());
        assert!(off.telemetry.is_none());
    }

    #[test]
    fn serving_ledger_agrees_across_series_registry_and_report() {
        // queue sheds (queue=4 at a saturating rate), throttle sheds
        // (refill under the offered rate), deadline misses (a tight
        // deadline) and a fault campaign, over two cells
        let spec = ServeSpec::parse(
            "seed=41,tenants=4,rate=400000,horizon=500us,batch=4,deadline=10us,queue=4,\
             tokens=8,refill=300000",
        )
        .unwrap();
        let mut cfg = ServeSimConfig::new(spec, linear_test_mix());
        cfg.ctx = crate::test_ctx();
        cfg.cells = 2;
        cfg.faults = CampaignSpec::parse("seed=5,seu=150us,smmu=0.002,scrub=300us").unwrap();
        cfg.telemetry = Some(TelemetryConfig::new(Duration::from_us(50)));
        let mut cp = CheckPlane::enabled(1);
        let out = run_serve_sim_with(&cfg, &mut cp);
        assert!(cp.ok(), "{:?}", cp.first());
        assert_ledger_agrees(&out);
        for name in [
            "serve.shed_queue",
            "serve.shed_throttle",
            "serve.deadline_miss",
        ] {
            assert!(out.metrics.counter(name) > Some(0), "`{name}` is exercised");
        }
    }

    #[test]
    fn failed_calls_fail_their_batches_end_to_end() {
        // a third mix entry whose binder leaves out the signature's `n`:
        // every call to it fails with a missing argument in the VM
        fn bind_without_n(n: usize) -> KernelArgs {
            let mut a = KernelArgs::new();
            a.bind_array("x", vec![1.0; n + 2])
                .bind_array("y", vec![0.0; n]);
            a
        }
        let mut mix = linear_test_mix();
        mix.push(ServeKernel {
            name: "smooth_unbound",
            source: "kernel smooth_unbound(in float x[], out float y[], int n) {
                for (i in 0 .. n) { y[i] = 0.5 * x[i] + 0.5 * x[i + 1]; }
            }",
            hints: serve_hints(&[("n", 96.0)]),
            bind: bind_without_n,
        });
        let mut args = bind_without_n(4);
        let kernel = ecoscale_hls::parse_kernel(mix[2].source).unwrap();
        assert_eq!(
            args.run(&kernel),
            Err(ecoscale_hls::ExecKernelError::MissingArg { name: "n".into() })
        );
        let spec = ServeSpec::parse("seed=43,tenants=3,rate=200000,horizon=500us,batch=4").unwrap();
        let mut cfg = ServeSimConfig::new(spec, mix);
        cfg.ctx = crate::test_ctx();
        cfg.cells = 2;
        cfg.telemetry = Some(TelemetryConfig::new(Duration::from_us(50)));
        let mut cp = CheckPlane::enabled(1);
        let out = run_serve_sim_with(&cfg, &mut cp);
        assert!(cp.ok(), "{:?}", cp.first());
        assert!(out.serving.conserved());
        assert!(out.serving.failed() > 0, "the unbound entry fails");
        assert!(out.serving.completed() > 0, "the others still serve");
        assert_eq!(
            out.metrics.counter("serve.failed"),
            Some(out.serving.failed())
        );
        assert_ledger_agrees(&out);
    }

    /// Every `serve.*` counter agrees three ways: the telemetry series'
    /// lifetime total, the metrics registry, and the serving report's
    /// per-tenant ledgers; so does the latency histogram's count.
    fn assert_ledger_agrees(out: &ServeOutcome) {
        let t = out.telemetry.as_ref().expect("telemetry armed");
        // the report's per-tenant ledgers, totalled from its JSON export
        let report = json::parse(&out.serving.to_json()).unwrap();
        let tenants = report.get("tenants").and_then(|v| v.as_arr()).unwrap();
        for name in [
            "submitted",
            "admitted",
            "completed",
            "shed_queue",
            "shed_throttle",
            "failed",
            "deadline_miss",
            "goodput",
        ] {
            let total: f64 = tenants
                .iter()
                .map(|tenant| tenant.get(name).and_then(|v| v.as_f64()).unwrap())
                .sum();
            let series = format!("serve.{name}");
            assert_eq!(
                t.series.lifetime(&series) as f64,
                total,
                "series `{series}`"
            );
            assert_eq!(
                out.metrics.counter(&series).map(|v| v as f64),
                Some(total),
                "registry `{series}`"
            );
        }
        assert_eq!(
            t.series.windows().count() as u64,
            t.series.rolled(),
            "every window is retained"
        );
        let windowed: u64 = t
            .series
            .windows()
            .filter_map(|(_, w)| w.hist("serve.latency_ns"))
            .map(|h| h.count())
            .sum();
        assert_eq!(windowed, out.serving.latency.count());
        assert_eq!(
            out.metrics.hist("serve.latency_ns").map(|h| h.count()),
            Some(windowed)
        );
    }

    #[test]
    fn telemetry_checkpoint_resume_is_bit_identical() {
        let mut cfg = quick_cfg();
        cfg.cells = 2;
        cfg.telemetry = Some(TelemetryConfig::new(Duration::from_us(50)));
        let full = run(&cfg);
        let ft = full.telemetry.as_ref().expect("telemetry armed");
        for at_us in [0u64, 120, 250] {
            let bytes = serve_checkpoint(&cfg, Time::from_us(at_us));
            let resumed = resume(&cfg, &bytes).expect("resume");
            let rt = resumed.telemetry.as_ref().expect("telemetry armed");
            assert_eq!(rt.to_json(), ft.to_json(), "at {at_us}us");
            assert_eq!(rt.flight_dump_json(8), ft.flight_dump_json(8));
        }
        // a telemetry-config mismatch is refused by the meta section
        let bytes = serve_checkpoint(&cfg, Time::from_us(120));
        let mut off = cfg.clone();
        off.telemetry = None;
        assert!(matches!(
            resume(&off, &bytes),
            Err(RestoreError::Malformed { .. })
        ));
    }

    #[test]
    fn slo_breach_fires_the_flight_recorder() {
        // an unmeetable deadline: every window's p99 breaches, so the
        // recorder must latch and the dump must name concrete journeys
        let spec =
            ServeSpec::parse("seed=21,tenants=4,rate=100000,horizon=500us,batch=4,deadline=1us")
                .unwrap();
        let mut cfg = ServeSimConfig::new(spec, linear_test_mix());
        cfg.telemetry = Some(TelemetryConfig::new(Duration::from_us(50)));
        cfg.ctx = crate::test_ctx();
        let out = run(&cfg);
        let t = out.telemetry.expect("telemetry armed");
        assert!(t.fired(), "breached SLO must latch a trigger");
        let first = t.first_trigger().expect("trigger");
        assert_eq!(first.reason, "slo_breach");
        assert!(
            t.flights[0].events().count() > 0,
            "exemplar journeys ride in the event ring"
        );
        let parsed = json::parse(&t.flight_dump_json(8)).unwrap();
        assert!(
            parsed
                .get("triggers_fired")
                .and_then(|v| v.as_f64())
                .unwrap()
                >= 1.0
        );
        assert!(parsed.get("series_tail").and_then(|v| v.as_arr()).is_some());
    }

    /// `cfg` with an empty artifact slot of its own, like a freshly
    /// constructed one.
    fn detached(cfg: &ServeSimConfig) -> ServeSimConfig {
        ServeSimConfig {
            artifacts: ServeArtifacts::default(),
            ..cfg.clone()
        }
    }

    /// Every export of one serving outcome.
    fn exports(out: &ServeOutcome) -> [String; 4] {
        [
            out.serving.to_json(),
            out.metrics.to_json(),
            out.report.to_json(),
            out.telemetry
                .as_ref()
                .map(|t| t.to_json())
                .unwrap_or_default(),
        ]
    }

    /// A run, a checkpoint at `at` and its resume, where every cell builds
    /// artifacts of its own (the build before artifacts were shared).
    fn per_cell_artifacts(cfg: &ServeSimConfig, at: Time) -> (ServeOutcome, Vec<u8>, ServeOutcome) {
        let parts = partition_tenants(cfg);
        let mut cp = CheckPlane::enabled(1);
        let mut cells = Vec::new();
        for ids in parts.clone() {
            let own = detached(cfg);
            let mut cell = CellSim::new(&own, ids);
            cell.run(None);
            cells.push(cell.into_result());
        }
        let run = merge_results(cells, &mut cp);

        let mut b = SnapshotBuilder::new();
        b.section("meta", |w| {
            persist_meta(cfg, parts.len(), w).expect("meta saves")
        });
        for (i, ids) in parts.clone().into_iter().enumerate() {
            let own = detached(cfg);
            let mut cell = CellSim::new(&own, ids);
            cell.run(Some(at));
            let mut w = SnapWriter::new();
            w.save(&mut cell);
            b.section(&format!("cell.{i}"), |s| s.put_bytes(&w.into_bytes()));
        }
        let bytes = b.finish();

        let file = SnapshotFile::parse(&bytes).expect("snapshot parses");
        let mut cells = Vec::new();
        for (i, ids) in parts.into_iter().enumerate() {
            let payload = file
                .section(&format!("cell.{i}"))
                .and_then(|mut s| s.get_bytes())
                .expect("cell section");
            let own = detached(cfg);
            let mut cell = CellSim::new(&own, ids);
            cell.persist(&mut SnapReader::new(&payload))
                .expect("cell restores");
            cell.run(None);
            cells.push(cell.into_result());
        }
        let resumed = merge_results(cells, &mut cp);
        assert!(cp.ok(), "{:?}", cp.first());
        (run, bytes, resumed)
    }

    #[test]
    fn shared_artifacts_export_like_per_cell_builds() {
        let at = Time::from_us(200);
        for cells in [1, 2] {
            let mut cfg = quick_cfg();
            cfg.cells = cells;
            cfg.faults = CampaignSpec::parse("seed=5,seu=200us,smmu=0.002,scrub=400us").unwrap();
            cfg.telemetry = Some(TelemetryConfig::new(Duration::from_us(50)));
            let (want_run, want_bytes, want_resumed) = per_cell_artifacts(&cfg, at);

            // one build, warmed by the first run, serves every later call
            // on the config and its clones
            let built = prepare(&cfg);
            let run = run_serve_sim_with(&cfg.clone(), &mut CheckPlane::enabled(1));
            let bytes = serve_checkpoint(&cfg, at);
            let mut cp = CheckPlane::enabled(1);
            let resumed = serve_resume_with(&cfg.clone(), &bytes, &mut cp).expect("resume");
            assert!(cp.ok(), "{:?}", cp.first());
            assert!(
                Arc::ptr_eq(&built, &prepare(&cfg)),
                "artifacts were rebuilt"
            );

            assert!(exports(&run) == exports(&want_run), "cells {cells}: run");
            assert!(bytes == want_bytes, "cells {cells}: snapshot bytes");
            assert!(
                exports(&resumed) == exports(&want_resumed),
                "cells {cells}: resume"
            );
            assert!(
                exports(&resumed) == exports(&run),
                "cells {cells}: resume vs run"
            );
        }
    }

    #[test]
    fn mutated_kernels_never_reuse_stale_artifacts() {
        let mut cfg = quick_cfg();
        let original = cfg.clone();
        let run = |c: &ServeSimConfig| exports(&run_serve_sim_with(c, &mut CheckPlane::enabled(1)));
        let before = run(&cfg);
        let first = prepare(&cfg);

        // new hints: a smaller synthesis of the same sources
        cfg.kernels[0].hints.insert("n".to_owned(), 1.0);
        let hinted = run(&cfg);
        assert!(hinted == run(&detached(&cfg)), "hints: stale artifacts");
        assert!(hinted != before, "hints: the mutation must be observable");
        assert!(!Arc::ptr_eq(&first, &prepare(&cfg)));

        // a new source under the same kernel name
        cfg.kernels[1].source = "kernel smooth(in float x[], out float y[], int n) {
            for (i in 0 .. n) { y[i] = 0.5 * x[i] + 0.5 * x[i + 2]; }
        }";
        let resourced = run(&cfg);
        assert!(resourced == run(&detached(&cfg)), "source: stale artifacts");
        assert!(
            resourced != hinted,
            "source: the mutation must be observable"
        );

        // the untouched clone shares the slot, which now holds the
        // mutated mix's build: it must rebuild its own mix
        assert!(run(&original) == before, "clone: stale artifacts");
    }

    #[test]
    fn refused_snapshot_builds_no_artifacts() {
        let mut bytes = serve_checkpoint(&quick_cfg(), Time::from_us(200));
        let tail = bytes.len() - 1;
        bytes[tail] ^= 0x01;
        let fresh = quick_cfg();
        assert!(serve_resume_with(&fresh, &bytes, &mut CheckPlane::enabled(1)).is_err());
        assert!(!fresh.artifacts.is_built(), "refused stream built the mix");
    }

    #[test]
    fn every_clone_shares_the_build() {
        let cfg = quick_cfg();
        let early = cfg.clone();
        let built = prepare(&cfg);
        assert!(Arc::ptr_eq(&built, &prepare(&cfg)));
        assert!(Arc::ptr_eq(&built, &prepare(&cfg.clone())));
        assert!(
            Arc::ptr_eq(&built, &prepare(&early)),
            "a clone made before the build shares it"
        );
        let other = ServeSimConfig {
            artifacts: early.artifacts.clone(),
            ..detached(&cfg)
        };
        assert!(Arc::ptr_eq(&built, &prepare(&other)), "an installed handle");
        assert!(!Arc::ptr_eq(&built, &prepare(&detached(&cfg))));
    }

    #[test]
    fn serving_keeps_only_recipes_of_the_shared_bitstreams() {
        let mut cfg = quick_cfg();
        cfg.cells = 2;
        cfg.faults = CampaignSpec::parse("seed=5,seu=200us,smmu=0.002,scrub=400us").unwrap();
        let bytes = serve_checkpoint(&cfg, Time::from_us(200));
        run(&cfg);
        serve_resume_with(&cfg, &bytes, &mut CheckPlane::disabled()).expect("resume");
        serve_migrate_with(&cfg, &bytes, 1, &mut CheckPlane::disabled()).expect("migrate");
        let built = prepare(&cfg);
        assert_eq!(built.library.len(), cfg.kernels.len());
        for entry in built.library.iter() {
            let bs = entry.module.bitstream();
            assert!(
                !bs.holds_bytes(),
                "serving materialized {}'s bitstream",
                entry.module.name()
            );
        }
    }

    #[test]
    fn faulted_campaign_sheds_but_never_loses() {
        let mut cfg = quick_cfg();
        cfg.faults = CampaignSpec::parse("seed=5,seu=200us,smmu=0.002,scrub=400us").unwrap();
        cfg.resilience = ResilienceConfig::full();
        let mut cp = CheckPlane::enabled(1);
        let out = run_serve_sim_with(&cfg, &mut cp);
        assert!(cp.ok(), "{:?}", cp.first());
        assert_eq!(out.lost, 0, "resilience must not drop accepted work");
        assert!(out.serving.conserved(), "conservation holds under faults");
        assert!(out.serving.completed() > 0, "the system must not stall");
    }
}
