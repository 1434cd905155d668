//! Per-worker scheduling: local work queues, lazy work distribution, and
//! the baselines it is measured against.
//!
//! §4.2: "we will implement local work queues per worker and infer
//! (approximately) the status of remote workers via the status of the
//! local queue, using techniques inspired by Lazy Scheduling \[9\]" — i.e.
//! tasks enqueue locally with no global coordination, and idle workers
//! pull work with cheap probes. [`ClusterSim`] simulates a Compute Node's
//! workers executing a task trace under one of three [`SchedPolicy`]s
//! (experiment E8):
//!
//! * [`SchedPolicy::LazyLocal`] — the ECOSCALE design: local queues +
//!   randomized stealing by idle workers,
//! * [`SchedPolicy::Centralized`] — one global queue behind a serializing
//!   dispatcher (what it replaces),
//! * [`SchedPolicy::RandomPush`] — blind load spreading with no stealing.
//!
//! With [`ClusterSim::with_faults`] the simulation additionally draws
//! worker crashes and stalls from a seeded
//! [`CampaignSpec`] and recovers
//! through the [`resilience`](crate::resilience) policy: queued work on a
//! dead worker is re-homed with bounded retry, persistent offenders are
//! quarantined, and the report carries completed/lost counts plus an
//! availability figure.

use std::collections::{HashSet, VecDeque};

use ecoscale_noc::NodeId;
use ecoscale_sim::check::{invariant, CheckPlane};
use ecoscale_sim::fault::{salt, CampaignSpec, FaultClock};
use ecoscale_sim::{
    Counter, Duration, Histogram, MetricsRegistry, OnlineStats, SimRng, Time, TimingWheel, Tracer,
    TrackId,
};

use crate::device::CpuModel;
use crate::resilience::{Backoff, Domain, ResilienceConfig, ResilienceManager, RetryPolicy};
use crate::task::Task;

/// A task plus its arrival time at the runtime.
#[derive(Debug, Clone)]
pub struct TaskSpec {
    /// The task.
    pub task: Task,
    /// When it becomes ready.
    pub arrival: Time,
}

/// The scheduling policy under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Local queues; idle workers steal after probing up to `probes`
    /// random victims.
    LazyLocal {
        /// Max victims probed per steal attempt.
        probes: u32,
    },
    /// One global queue; every dispatch serializes through a central
    /// dispatcher.
    Centralized,
    /// Push each arrival to a uniformly random worker; no stealing.
    RandomPush,
}

/// What one simulated run produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedReport {
    /// Completion time of the last task.
    pub makespan: Time,
    /// Total scheduler-induced overhead (probes, dispatch serialization).
    pub sched_overhead: Duration,
    /// Remote probes / dispatch messages sent.
    pub messages: u64,
    /// Max over workers of busy time divided by makespan.
    pub max_utilization: f64,
    /// Mean worker utilization.
    pub mean_utilization: f64,
    /// Coefficient of variation of per-worker busy time (imbalance).
    pub imbalance: f64,
    /// Tasks that ran to completion.
    pub completed: u64,
    /// Tasks abandoned to faults (retry budget exhausted, or no
    /// recovery armed when their worker died). Zero without faults.
    pub lost: u64,
    /// Fraction of worker-time the machine was in service: `1.0` minus
    /// crash/stall/quarantine downtime over `workers × makespan`.
    /// Exactly `1.0` when no fault campaign is installed.
    pub availability: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Arrive(usize),
    /// Worker finished its current task.
    Finish(usize),
    /// Lazy only: an idle worker wakes to try stealing again.
    Retry(usize),
    /// Centralized only: the dispatcher finished handing out a task.
    Dispatched {
        worker: usize,
        task: usize,
    },
}

/// Simulates one Compute Node's workers executing a task trace.
///
/// # Example
///
/// ```
/// use ecoscale_noc::NodeId;
/// use ecoscale_runtime::{ClusterSim, SchedPolicy, Task, TaskId, TaskSpec};
/// use ecoscale_sim::Time;
///
/// let tasks: Vec<TaskSpec> = (0..64)
///     .map(|i| TaskSpec {
///         task: Task::new(TaskId(i), "work", vec![], 200_000, 10_000, NodeId(0)),
///         arrival: Time::ZERO,
///     })
///     .collect();
/// let report = ClusterSim::new(8, SchedPolicy::LazyLocal { probes: 2 }, 42).run(&tasks);
/// // all tasks land on worker 0's queue but stealing spreads them:
/// // several workers end up busy, so the run beats serial execution
/// assert!(report.mean_utilization > 2.0 / 8.0);
/// ```
#[derive(Debug)]
pub struct ClusterSim {
    workers: usize,
    policy: SchedPolicy,
    cpu: CpuModel,
    probe_latency: Duration,
    dispatch_latency: Duration,
    rng: SimRng,
    ins: SchedInstruments,
    tracer: Tracer,
    trace_label: String,
    faults: Option<WorkerFaults>,
    check: CheckPlane,
}

/// Worker fault injection installed by [`ClusterSim::with_faults`]:
/// crash and stall arrival clocks, the victim-pick stream, and the
/// resilience manager that decides recovery.
#[derive(Debug)]
struct WorkerFaults {
    crash_clock: FaultClock,
    stall_clock: FaultClock,
    pick: SimRng,
    stall_for: Duration,
    mgr: ResilienceManager,
}

/// Scheduler instruments accumulated by [`ClusterSim::run`] and read
/// back through [`ClusterSim::export_metrics`].
#[derive(Debug, Clone, Default)]
struct SchedInstruments {
    tasks: Counter,
    steals: Counter,
    probes: Counter,
    migrations: Counter,
    wait_ns: OnlineStats,
    exec_ns: OnlineStats,
    queue_depth: Histogram,
}

impl SchedInstruments {
    /// Records one task execution: wait latency (arrival → start),
    /// exec latency, migration (executed away from its data home), a
    /// span on the executing worker's track, and — when the task waited
    /// at all — a `wait` span on the shared wait track so ProfPlane can
    /// blame scheduler queueing on the critical path.
    #[allow(clippy::too_many_arguments)]
    fn on_exec(
        &mut self,
        spec: &TaskSpec,
        w: usize,
        workers: usize,
        start: Time,
        d: Duration,
        tracer: &Tracer,
        tracks: &[TrackId],
        wait_track: Option<TrackId>,
    ) {
        self.tasks.incr();
        let waited = start.saturating_since(spec.arrival);
        self.wait_ns.record(waited.as_ns_f64());
        self.exec_ns.record(d.as_ns_f64());
        if spec.task.data_home().0 % workers != w {
            self.migrations.incr();
        }
        if let Some(&track) = tracks.get(w) {
            tracer.complete(track, spec.task.function(), start, d);
        }
        if let Some(track) = wait_track {
            if waited > Duration::ZERO {
                tracer.complete(track, "wait", spec.arrival, waited);
            }
        }
    }
}

impl ClusterSim {
    /// Creates a simulator for `workers` workers under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize, policy: SchedPolicy, seed: u64) -> ClusterSim {
        assert!(workers > 0, "need at least one worker");
        ClusterSim {
            workers,
            policy,
            cpu: CpuModel::a53_default(),
            probe_latency: Duration::from_ns(300),
            dispatch_latency: Duration::from_ns(800),
            rng: SimRng::seed_from(seed),
            ins: SchedInstruments::default(),
            tracer: Tracer::disabled(),
            trace_label: "sched".to_owned(),
            faults: None,
            check: CheckPlane::from_env(),
        }
    }

    /// Overrides the CPU model.
    pub fn with_cpu(mut self, cpu: CpuModel) -> ClusterSim {
        self.cpu = cpu;
        self
    }

    /// Installs worker fault injection from `spec` (crash and stall
    /// clocks seeded off the campaign) with `recovery` as the
    /// resilience policy. A spec with both worker fault classes
    /// disabled is a no-op, so fault-free campaigns stay byte-identical
    /// to runs without the FaultPlane at all.
    ///
    /// The campaign is one-shot: fault clocks advance across
    /// [`ClusterSim::run`]; install a fresh campaign per run to repeat
    /// one deterministically.
    pub fn with_faults(mut self, spec: &CampaignSpec, recovery: ResilienceConfig) -> ClusterSim {
        if spec.worker_crash_mtbf.is_zero() && spec.worker_stall_mtbf.is_zero() {
            return self;
        }
        self.faults = Some(WorkerFaults {
            crash_clock: FaultClock::new(spec.worker_crash_mtbf, spec.rng(salt::WORKER_CRASH)),
            stall_clock: FaultClock::new(spec.worker_stall_mtbf, spec.rng(salt::WORKER_STALL)),
            pick: spec.rng(salt::WORKER_PICK),
            stall_for: spec.worker_stall_for,
            mgr: ResilienceManager::new(recovery),
        });
        self
    }

    /// The resilience manager, when a fault campaign is installed.
    pub fn resilience(&self) -> Option<&ResilienceManager> {
        self.faults.as_ref().map(|f| &f.mgr)
    }

    /// Installs a tracer; task executions become spans on per-worker
    /// `{label}/w<N>` tracks and arrivals sample a `{label}/queued`
    /// counter track. `label` keeps lanes distinct when several
    /// simulations share one trace.
    pub fn with_tracer(mut self, tracer: Tracer, label: &str) -> ClusterSim {
        self.tracer = tracer;
        self.trace_label = label.to_owned();
        self
    }

    /// Installs a CheckPlane. [`ClusterSim::run`] then verifies, at the
    /// plane's cadence, that no task is queued or in flight twice across
    /// worker queues, the central queue and execution slots, and — at the
    /// end of each run — that every submitted task was either completed or
    /// declared lost. All checks are read-only: they draw nothing from the
    /// RNG, record no metrics and change no event ordering, so installing
    /// an (enabled or disabled) plane never perturbs golden schedules.
    pub fn with_checks(mut self, check: CheckPlane) -> ClusterSim {
        self.check = check;
        self
    }

    /// The installed CheckPlane (disabled by default); violations collected
    /// by [`ClusterSim::run`] are read back from here.
    pub fn checks(&self) -> &CheckPlane {
        &self.check
    }

    /// Folds the instruments of the most recent [`ClusterSim::run`]
    /// into `m` under `prefix`: task/steal/probe/migration counters,
    /// wait and exec latency stats, and the queue-depth histogram
    /// sampled at each arrival.
    pub fn export_metrics(&self, m: &mut MetricsRegistry, prefix: &str) {
        m.add(&format!("{prefix}.tasks"), self.ins.tasks.get());
        m.add(&format!("{prefix}.steals"), self.ins.steals.get());
        m.add(&format!("{prefix}.probes"), self.ins.probes.get());
        m.add(&format!("{prefix}.migrations"), self.ins.migrations.get());
        m.merge_stats(&format!("{prefix}.wait_ns"), &self.ins.wait_ns);
        m.merge_stats(&format!("{prefix}.exec_ns"), &self.ins.exec_ns);
        m.merge_hist(&format!("{prefix}.queue_depth"), &self.ins.queue_depth);
        // Gated on installation so fault-free captures keep the exact
        // pre-FaultPlane key set (byte-identical JSON).
        if let Some(f) = &self.faults {
            f.mgr.export_metrics(m, &format!("{prefix}.resilience"));
        }
    }

    /// Runs the trace to completion and reports.
    pub fn run(&mut self, tasks: &[TaskSpec]) -> SchedReport {
        self.ins = SchedInstruments::default();
        let tracks: Vec<TrackId> = if self.tracer.is_enabled() {
            (0..self.workers)
                .map(|w| self.tracer.track(&format!("{}/w{}", self.trace_label, w)))
                .collect()
        } else {
            Vec::new()
        };
        let queue_track = if self.tracer.is_enabled() {
            Some(self.tracer.track(&format!("{}/queued", self.trace_label)))
        } else {
            None
        };
        let wait_track = if self.tracer.is_enabled() {
            Some(self.tracer.track(&format!("{}/wait", self.trace_label)))
        } else {
            None
        };
        let mut q: TimingWheel<Ev> = TimingWheel::new();
        // The lazy scheduler's historical probe backoff, expressed as a
        // resilience retry policy: 8x, 16x, then capped at 32x the probe
        // latency — bit-identical to the old `(4 << min(k, 3))` ladder.
        let steal_policy = RetryPolicy::new(
            self.probe_latency * 8,
            self.probe_latency * 32,
            RetryPolicy::UNBOUNDED,
        );
        let mut steal_backoff: Vec<Backoff> = vec![Backoff::new(); self.workers];
        let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); self.workers];
        let mut central: VecDeque<usize> = VecDeque::new();
        let mut busy: Vec<bool> = vec![false; self.workers];
        let mut busy_time: Vec<Duration> = vec![Duration::ZERO; self.workers];
        let mut dispatcher_free = Time::ZERO;
        let mut overhead = Duration::ZERO;
        let mut messages = 0u64;
        let mut completed = 0usize;
        // FaultPlane state. All of it is inert without a campaign:
        // `retired` stays false, `stalled_until` stays ZERO, and the
        // guards below reduce to the fault-free control flow.
        let mut retired: Vec<bool> = vec![false; self.workers];
        let mut down_since: Vec<Option<Time>> = vec![None; self.workers];
        let mut stalled_until: Vec<Time> = vec![Time::ZERO; self.workers];
        let mut stall_downtime: Vec<Duration> = vec![Duration::ZERO; self.workers];
        let mut doomed: Vec<u32> = vec![0; self.workers];
        let mut current: Vec<Option<usize>> = vec![None; self.workers];
        let mut task_backoff: Vec<Backoff> = if self.faults.is_some() {
            vec![Backoff::new(); tasks.len()]
        } else {
            Vec::new()
        };
        let mut lost = 0u64;

        for (i, t) in tasks.iter().enumerate() {
            q.schedule(t.arrival, q.scheduled_total(), Ev::Arrive(i));
        }
        // Lazy workers poll from the start: without an initial wake-up, a
        // worker that never receives an arrival would never steal.
        if let SchedPolicy::LazyLocal { .. } = self.policy {
            if let Some(first) = tasks.iter().map(|t| t.arrival).min() {
                for w in 0..self.workers {
                    q.schedule(first, q.scheduled_total(), Ev::Retry(w));
                }
            }
        }

        // Helper: execution time of a task on the CPU model.
        let exec_time = |task: &Task, cpu: &CpuModel| cpu.exec(task.flops(), task.mem_ops()).0;

        while let Some((now, _, ev)) = q.pop() {
            // CheckPlane cadence gate: read-only duplicate-task scan over
            // every queue and execution slot. One branch when disabled.
            if self.check.due() {
                Self::check_no_duplicates(&mut self.check, &queues, &central, &current);
            }
            // Drain fault arrivals up to the current instant, in time
            // order across both clocks.
            while let Some(f) = self.faults.as_mut() {
                let crash_at = f.crash_clock.peek().filter(|&t| t <= now);
                let stall_at = f.stall_clock.peek().filter(|&t| t <= now);
                let (at, is_crash) = match (crash_at, stall_at) {
                    (Some(c), Some(s)) if c <= s => (f.crash_clock.pop_due(now), true),
                    (Some(_), Some(_)) => (f.stall_clock.pop_due(now), false),
                    (Some(_), None) => (f.crash_clock.pop_due(now), true),
                    (None, Some(_)) => (f.stall_clock.pop_due(now), false),
                    (None, None) => break,
                };
                let at = at.expect("peeked arrival is due");
                let in_service: Vec<usize> = (0..self.workers).filter(|&w| !retired[w]).collect();
                let Some(&v) = in_service
                    .get(f.pick.gen_range_usize(0, in_service.len().max(1)))
                    .filter(|_| !in_service.is_empty())
                else {
                    continue; // machine already fully down
                };
                if is_crash {
                    // Hard fault: the worker dies with its queue, and
                    // any in-flight task fails with it.
                    f.mgr.record_failure(Domain::Worker(v), at);
                    retired[v] = true;
                    down_since[v] = Some(at);
                    let orphans: Vec<usize> = queues[v].drain(..).collect();
                    let inflight = current[v].take();
                    if inflight.is_some() {
                        doomed[v] += 1; // swallow the pending Finish
                    }
                    for t in orphans.into_iter().chain(inflight) {
                        Self::rehome(t, at, now, &mut f.mgr, &mut task_backoff, &mut q, &mut lost);
                    }
                } else {
                    // Transient stall: no new work until it clears.
                    stalled_until[v] = stalled_until[v].max(at + f.stall_for);
                    stall_downtime[v] += f.stall_for;
                    if f.mgr.record_failure(Domain::Worker(v), at) {
                        // Persistent offender: quarantine. Unlike a
                        // crash this is graceful — the queue is drained
                        // for re-homing and in-flight work completes.
                        retired[v] = true;
                        down_since[v] = Some(at);
                        let orphans: Vec<usize> = queues[v].drain(..).collect();
                        for t in orphans {
                            Self::rehome(
                                t,
                                at,
                                now,
                                &mut f.mgr,
                                &mut task_backoff,
                                &mut q,
                                &mut lost,
                            );
                        }
                    }
                }
            }
            match ev {
                Ev::Arrive(idx) => {
                    let home = tasks[idx].task.data_home().0 % self.workers;
                    match self.policy {
                        SchedPolicy::LazyLocal { .. } => {
                            // A dead home re-routes to the next worker
                            // still in service, or the task is lost.
                            let Some(home) = Self::next_in_service(home, &retired) else {
                                lost += 1;
                                if let Some(f) = self.faults.as_mut() {
                                    f.mgr.note_lost();
                                }
                                continue;
                            };
                            queues[home].push_back(idx);
                            self.ins.queue_depth.record(queues[home].len() as u64);
                            if let Some(t) = queue_track {
                                self.tracer
                                    .counter(t, "queued", now, queues[home].len() as f64);
                            }
                            if !busy[home] {
                                if now < stalled_until[home] {
                                    q.schedule(
                                        stalled_until[home],
                                        q.scheduled_total(),
                                        Ev::Retry(home),
                                    );
                                } else {
                                    Self::start(
                                        home,
                                        &mut queues,
                                        &mut busy,
                                        &mut busy_time,
                                        &mut current,
                                        &mut q,
                                        now,
                                        tasks,
                                        &self.cpu,
                                        exec_time,
                                        &mut self.ins,
                                        &self.tracer,
                                        &tracks,
                                        wait_track,
                                    );
                                }
                            }
                        }
                        SchedPolicy::RandomPush => {
                            let w = self.rng.gen_range_usize(0, self.workers);
                            messages += 1;
                            let Some(w) = Self::next_in_service(w, &retired) else {
                                lost += 1;
                                if let Some(f) = self.faults.as_mut() {
                                    f.mgr.note_lost();
                                }
                                continue;
                            };
                            queues[w].push_back(idx);
                            self.ins.queue_depth.record(queues[w].len() as u64);
                            if let Some(t) = queue_track {
                                self.tracer
                                    .counter(t, "queued", now, queues[w].len() as f64);
                            }
                            if !busy[w] {
                                if now < stalled_until[w] {
                                    q.schedule(stalled_until[w], q.scheduled_total(), Ev::Retry(w));
                                } else {
                                    Self::start(
                                        w,
                                        &mut queues,
                                        &mut busy,
                                        &mut busy_time,
                                        &mut current,
                                        &mut q,
                                        now,
                                        tasks,
                                        &self.cpu,
                                        exec_time,
                                        &mut self.ins,
                                        &self.tracer,
                                        &tracks,
                                        wait_track,
                                    );
                                }
                            }
                        }
                        SchedPolicy::Centralized => {
                            central.push_back(idx);
                            self.ins.queue_depth.record(central.len() as u64);
                            if let Some(t) = queue_track {
                                self.tracer.counter(t, "queued", now, central.len() as f64);
                            }
                            // try to dispatch to an idle worker
                            if let Some(w) = (0..self.workers)
                                .find(|&w| !busy[w] && !retired[w] && now >= stalled_until[w])
                            {
                                if let Some(t) = central.pop_front() {
                                    busy[w] = true; // reserved while dispatching
                                    let start = dispatcher_free.max(now);
                                    let done = start + self.dispatch_latency;
                                    overhead += done - now;
                                    dispatcher_free = done;
                                    messages += 2; // request + grant
                                    q.schedule(
                                        done,
                                        q.scheduled_total(),
                                        Ev::Dispatched { worker: w, task: t },
                                    );
                                }
                            }
                        }
                    }
                }
                Ev::Dispatched { worker, task } => {
                    if retired[worker] {
                        // The worker died between grant and delivery:
                        // the dispatch fails and the task is recovered.
                        let f = self.faults.as_mut().expect("retired implies faults");
                        Self::rehome(
                            task,
                            now,
                            now,
                            &mut f.mgr,
                            &mut task_backoff,
                            &mut q,
                            &mut lost,
                        );
                        continue;
                    }
                    let d = exec_time(&tasks[task].task, &self.cpu);
                    busy_time[worker] += d;
                    current[worker] = Some(task);
                    self.ins.on_exec(
                        &tasks[task],
                        worker,
                        self.workers,
                        now,
                        d,
                        &self.tracer,
                        &tracks,
                        wait_track,
                    );
                    q.schedule(now + d, q.scheduled_total(), Ev::Finish(worker));
                }
                Ev::Finish(w) | Ev::Retry(w) => {
                    if matches!(ev, Ev::Finish(_)) {
                        if doomed[w] > 0 {
                            // the worker crashed mid-execution; the task
                            // already went through recovery
                            doomed[w] -= 1;
                            continue;
                        }
                        completed += 1;
                        current[w] = None;
                    }
                    if retired[w] {
                        continue; // crashed or quarantined: no new work
                    }
                    if matches!(ev, Ev::Retry(_)) && busy[w] {
                        continue; // stale poll: the worker found work meanwhile
                    }
                    busy[w] = false;
                    if now < stalled_until[w] {
                        // stalled: wake again once the stall clears
                        q.schedule(stalled_until[w], q.scheduled_total(), Ev::Retry(w));
                        continue;
                    }
                    match self.policy {
                        SchedPolicy::Centralized => {
                            if let Some(t) = central.pop_front() {
                                busy[w] = true;
                                let start = dispatcher_free.max(now);
                                let done = start + self.dispatch_latency;
                                overhead += done - now;
                                dispatcher_free = done;
                                messages += 2;
                                q.schedule(
                                    done,
                                    q.scheduled_total(),
                                    Ev::Dispatched { worker: w, task: t },
                                );
                            }
                        }
                        SchedPolicy::RandomPush => {
                            if !queues[w].is_empty() {
                                Self::start(
                                    w,
                                    &mut queues,
                                    &mut busy,
                                    &mut busy_time,
                                    &mut current,
                                    &mut q,
                                    now,
                                    tasks,
                                    &self.cpu,
                                    exec_time,
                                    &mut self.ins,
                                    &self.tracer,
                                    &tracks,
                                    wait_track,
                                );
                            }
                        }
                        SchedPolicy::LazyLocal { probes } => {
                            if !queues[w].is_empty() {
                                Self::start(
                                    w,
                                    &mut queues,
                                    &mut busy,
                                    &mut busy_time,
                                    &mut current,
                                    &mut q,
                                    now,
                                    tasks,
                                    &self.cpu,
                                    exec_time,
                                    &mut self.ins,
                                    &self.tracer,
                                    &tracks,
                                    wait_track,
                                );
                            } else {
                                // steal: probe random victims and take
                                // half of the richest victim's queue (the
                                // classic steal-half heuristic)
                                let mut victim = None;
                                let mut probe_cost = Duration::ZERO;
                                for _ in 0..probes {
                                    let v = self.rng.gen_range_usize(0, self.workers);
                                    probe_cost += self.probe_latency;
                                    messages += 1;
                                    self.ins.probes.incr();
                                    if v != w && queues[v].len() > 1 {
                                        victim = Some(v);
                                        break;
                                    }
                                }
                                overhead += probe_cost;
                                if let Some(v) = victim {
                                    steal_backoff[w].reset();
                                    self.ins.steals.incr();
                                    let keep = queues[v].len() / 2;
                                    let mut taken = queues[v].split_off(keep);
                                    let first = taken.pop_front().expect("len > 1");
                                    queues[w].extend(taken);
                                    let d = exec_time(&tasks[first].task, &self.cpu);
                                    busy[w] = true;
                                    busy_time[w] += d;
                                    current[w] = Some(first);
                                    self.ins.on_exec(
                                        &tasks[first],
                                        w,
                                        self.workers,
                                        now + probe_cost,
                                        d,
                                        &self.tracer,
                                        &tracks,
                                        wait_track,
                                    );
                                    q.schedule(
                                        now + probe_cost + d,
                                        q.scheduled_total(),
                                        Ev::Finish(w),
                                    );
                                }
                                // if nothing stolen the worker idles until
                                // a new arrival lands in its queue; to keep
                                // it live, retry with exponential backoff
                                // while others still hold work
                                else if queues.iter().any(|qq| qq.len() > 1)
                                    || (completed + Self::in_flight(&busy) < tasks.len()
                                        && queues.iter().any(|qq| !qq.is_empty()))
                                {
                                    // bounded backoff: stay responsive
                                    // (hot queues refill constantly) while
                                    // capping the probe storm
                                    let wait = steal_backoff[w]
                                        .next(&steal_policy)
                                        .expect("steal retry is unbounded");
                                    q.schedule(
                                        now + probe_cost + wait,
                                        q.scheduled_total(),
                                        Ev::Retry(w),
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }

        // Work still queued when the event stream dries up — possible
        // only once every worker has died — is lost.
        if let Some(f) = self.faults.as_mut() {
            let leftover: u64 =
                queues.iter().map(|qq| qq.len() as u64).sum::<u64>() + central.len() as u64;
            if leftover > 0 {
                lost += leftover;
                for _ in 0..leftover {
                    f.mgr.note_lost();
                }
            }
        }

        if self.check.is_enabled() {
            Self::check_no_duplicates(&mut self.check, &queues, &central, &current);
            self.check.check(
                invariant::SCHED_TASK_CONSERVATION,
                completed as u64 + lost == tasks.len() as u64,
                || {
                    format!(
                        "completed {completed} + lost {lost} != submitted {}",
                        tasks.len()
                    )
                },
            );
        }

        let makespan = q.now();
        let span = makespan.saturating_since(Time::ZERO);
        let utils: Vec<f64> = busy_time
            .iter()
            .map(|b| if span.is_zero() { 0.0 } else { *b / span })
            .collect();
        let mean = utils.iter().sum::<f64>() / utils.len() as f64;
        let max = utils.iter().cloned().fold(0.0, f64::max);
        let var = utils.iter().map(|u| (u - mean) * (u - mean)).sum::<f64>() / utils.len() as f64;
        let imbalance = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
        let availability = if self.faults.is_some() && !span.is_zero() {
            let mut down = Duration::ZERO;
            for (stalled, since) in stall_downtime.iter().zip(&down_since) {
                let mut d = *stalled;
                if let Some(t0) = *since {
                    d += makespan.saturating_since(t0);
                }
                down += d.min(span);
            }
            (1.0 - down / (span * self.workers as u64)).max(0.0)
        } else {
            1.0
        };
        SchedReport {
            makespan,
            sched_overhead: overhead,
            messages,
            max_utilization: max,
            mean_utilization: mean,
            imbalance,
            completed: completed as u64,
            lost,
            availability,
        }
    }

    fn in_flight(busy: &[bool]) -> usize {
        busy.iter().filter(|b| **b).count()
    }

    /// Read-only scan asserting no task index appears twice across worker
    /// queues, the central queue and in-flight execution slots.
    fn check_no_duplicates(
        cp: &mut CheckPlane,
        queues: &[VecDeque<usize>],
        central: &VecDeque<usize>,
        current: &[Option<usize>],
    ) {
        let mut seen: HashSet<usize> = HashSet::new();
        let all = queues
            .iter()
            .flatten()
            .chain(central.iter())
            .chain(current.iter().flatten());
        for &t in all {
            cp.check(invariant::SCHED_NO_DUPLICATE_TASKS, seen.insert(t), || {
                format!("task {t} queued or running twice")
            });
        }
    }

    /// First worker at or after `start` (wrapping) still in service.
    fn next_in_service(start: usize, retired: &[bool]) -> Option<usize> {
        let n = retired.len();
        (0..n).map(|k| (start + k) % n).find(|&w| !retired[w])
    }

    /// Recovers a task orphaned by a worker fault at `at`: re-injects
    /// it as a fresh arrival after the bounded-retry delay (never
    /// before `now` — the fault may predate the event being handled),
    /// or counts it lost once the budget (or the whole retry
    /// mechanism) is absent.
    #[allow(clippy::too_many_arguments)]
    fn rehome(
        task: usize,
        at: Time,
        now: Time,
        mgr: &mut ResilienceManager,
        task_backoff: &mut [Backoff],
        q: &mut TimingWheel<Ev>,
        lost: &mut u64,
    ) {
        let policy = mgr.config().retry;
        match policy.and_then(|p| task_backoff[task].next(&p)) {
            Some(delay) => {
                let fire = (at + delay).max(now);
                mgr.note_retry();
                mgr.note_recovery(fire.since(at));
                q.schedule(fire, q.scheduled_total(), Ev::Arrive(task));
            }
            None => {
                mgr.note_lost();
                *lost += 1;
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn start(
        w: usize,
        queues: &mut [VecDeque<usize>],
        busy: &mut [bool],
        busy_time: &mut [Duration],
        current: &mut [Option<usize>],
        q: &mut TimingWheel<Ev>,
        now: Time,
        tasks: &[TaskSpec],
        cpu: &CpuModel,
        exec_time: impl Fn(&Task, &CpuModel) -> Duration,
        ins: &mut SchedInstruments,
        tracer: &Tracer,
        tracks: &[TrackId],
        wait_track: Option<TrackId>,
    ) {
        if let Some(t) = queues[w].pop_front() {
            let d = exec_time(&tasks[t].task, cpu);
            busy[w] = true;
            busy_time[w] += d;
            current[w] = Some(t);
            ins.on_exec(
                &tasks[t],
                w,
                queues.len(),
                now,
                d,
                tracer,
                tracks,
                wait_track,
            );
            q.schedule(now + d, q.scheduled_total(), Ev::Finish(w));
        }
    }
}

/// Builds a synthetic task trace: `count` tasks of `flops` work arriving
/// at `home` workers round-robin-skewed by a Zipf draw (irregular load,
/// the case hierarchical HPC apps present). Arrivals are spaced so the
/// offered load slightly exceeds the machine's aggregate capacity (the
/// interesting scheduling regime).
pub fn skewed_trace(
    count: usize,
    workers: usize,
    flops: u64,
    skew: f64,
    seed: u64,
) -> Vec<TaskSpec> {
    // mean task time on an A53-class core ≈ 1.15 flops-equivalents at
    // 1.2 GHz (flops + mem ops + size jitter)
    let task_ns = (flops as f64 * 1.15 / 1.2).ceil() as u64;
    let spacing = (task_ns / workers as u64).max(1) * 9 / 10;
    skewed_trace_with_spacing(count, workers, flops, skew, spacing, seed)
}

/// [`skewed_trace`] with explicit inter-arrival spacing in nanoseconds.
pub fn skewed_trace_with_spacing(
    count: usize,
    workers: usize,
    flops: u64,
    skew: f64,
    spacing_ns: u64,
    seed: u64,
) -> Vec<TaskSpec> {
    use crate::task::TaskId;
    let mut rng = SimRng::seed_from(seed);
    (0..count)
        .map(|i| {
            let home = rng.gen_zipf(workers, skew);
            let jitter = rng.gen_range_u64(0, spacing_ns.max(2) / 2);
            TaskSpec {
                task: Task::new(
                    TaskId(i as u64),
                    "work",
                    vec![flops as f64],
                    flops + rng.gen_range_u64(0, flops / 2 + 1),
                    flops / 10,
                    NodeId(home),
                ),
                arrival: Time::from_ns(i as u64 * spacing_ns + jitter),
            }
        })
        .collect()
}

/// One [`skewed_trace_with_spacing`] per cluster, each with its own seed
/// drawn from `seed` *in cluster index order*. Every cluster's trace is a
/// pure function of `(seed, cluster index)` — independent of how clusters
/// are later packed onto shards — which is what the sharded engine's
/// byte-identity guarantee needs from its workload generator.
pub fn partitioned_traces(
    clusters: usize,
    per_cluster: usize,
    workers: usize,
    flops: u64,
    skew: f64,
    spacing_ns: u64,
    seed: u64,
) -> Vec<Vec<TaskSpec>> {
    let mut root = SimRng::seed_from(seed);
    (0..clusters)
        .map(|_| {
            let s = root.next_u64();
            skewed_trace_with_spacing(per_cluster, workers, flops, skew, spacing_ns, s)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskId;

    fn uniform_trace(count: usize, flops: u64) -> Vec<TaskSpec> {
        (0..count)
            .map(|i| TaskSpec {
                task: Task::new(TaskId(i as u64), "w", vec![], flops, flops / 10, NodeId(i)),
                arrival: Time::ZERO,
            })
            .collect()
    }

    #[test]
    fn partitioned_traces_are_per_cluster_stable() {
        let all = partitioned_traces(6, 40, 4, 50_000, 1.1, 800, 99);
        assert_eq!(all.len(), 6);
        assert!(all.iter().all(|t| t.len() == 40));
        // each cluster's trace depends only on (seed, index), so a prefix
        // regeneration reproduces the same leading clusters
        let prefix = partitioned_traces(3, 40, 4, 50_000, 1.1, 800, 99);
        for (a, b) in prefix.iter().zip(&all) {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.arrival, y.arrival);
                assert_eq!(x.task.flops(), y.task.flops());
                assert_eq!(x.task.data_home(), y.task.data_home());
            }
        }
        // distinct clusters get distinct streams
        assert!(all[0]
            .iter()
            .zip(&all[1])
            .any(|(x, y)| x.arrival != y.arrival || x.task.flops() != y.task.flops()));
    }

    #[test]
    fn all_tasks_complete_under_every_policy() {
        let trace = skewed_trace(200, 8, 100_000, 1.0, 7);
        for policy in [
            SchedPolicy::LazyLocal { probes: 2 },
            SchedPolicy::Centralized,
            SchedPolicy::RandomPush,
        ] {
            let r = ClusterSim::new(8, policy, 1).run(&trace);
            assert!(r.makespan > Time::ZERO, "{policy:?}");
            assert!(r.mean_utilization > 0.0, "{policy:?}");
            assert_eq!(r.completed, 200, "{policy:?}");
            assert_eq!(r.lost, 0, "{policy:?}");
            assert_eq!(r.availability, 1.0, "{policy:?}");
        }
    }

    #[test]
    fn lazy_balances_skewed_load() {
        let trace = skewed_trace(400, 16, 200_000, 1.2, 11);
        let lazy = ClusterSim::new(16, SchedPolicy::LazyLocal { probes: 3 }, 1).run(&trace);
        let pushy = ClusterSim::new(16, SchedPolicy::RandomPush, 1).run(&trace);
        // stealing repairs the Zipf skew that random push leaves on the
        // home distribution... random push actually spreads uniformly, so
        // compare against *no* stealing by noting lazy completes sooner
        // than the skewed home assignment would serially imply.
        assert!(lazy.imbalance < 1.0);
        assert!(lazy.makespan.as_ns() <= pushy.makespan.as_ns() * 2);
    }

    #[test]
    fn centralized_pays_dispatch_overhead() {
        let trace = uniform_trace(256, 50_000);
        let central = ClusterSim::new(16, SchedPolicy::Centralized, 1).run(&trace);
        let lazy = ClusterSim::new(16, SchedPolicy::LazyLocal { probes: 2 }, 1).run(&trace);
        assert!(central.sched_overhead > lazy.sched_overhead);
        assert!(central.messages > 0);
    }

    #[test]
    fn centralized_serializes_at_scale() {
        // with many tiny tasks the dispatcher becomes the bottleneck
        let trace = uniform_trace(2000, 5_000);
        let small = ClusterSim::new(4, SchedPolicy::Centralized, 1).run(&trace);
        let big = ClusterSim::new(64, SchedPolicy::Centralized, 1).run(&trace);
        // adding workers cannot help once the dispatcher saturates:
        // makespan stays within 3x instead of scaling by 16x
        assert!(big.makespan.as_ns() as f64 > small.makespan.as_ns() as f64 / 8.0);
    }

    #[test]
    fn single_worker_degenerate() {
        let trace = uniform_trace(10, 10_000);
        let r = ClusterSim::new(1, SchedPolicy::LazyLocal { probes: 1 }, 1).run(&trace);
        assert!(r.max_utilization > 0.9);
        assert!(r.imbalance < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let trace = skewed_trace(100, 8, 80_000, 1.0, 3);
        let a = ClusterSim::new(8, SchedPolicy::LazyLocal { probes: 2 }, 5).run(&trace);
        let b = ClusterSim::new(8, SchedPolicy::LazyLocal { probes: 2 }, 5).run(&trace);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.messages, b.messages);
    }

    /// Golden values pinning the lazy scheduler's probe-backoff timing
    /// before the resilience layer generalized it: the `RetryPolicy`
    /// rewrite must not move a single picosecond or message.
    #[test]
    fn pins_lazy_backoff_golden_values() {
        let trace = skewed_trace(300, 8, 120_000, 1.3, 21);
        let r = ClusterSim::new(8, SchedPolicy::LazyLocal { probes: 2 }, 9).run(&trace);
        assert_eq!(r.makespan.as_ps(), 5_417_607_987);
        assert_eq!(r.sched_overhead.as_ps(), 59_100_000);
        assert_eq!(r.messages, 197);

        let trace = skewed_trace(64, 4, 60_000, 1.0, 5);
        let r = ClusterSim::new(4, SchedPolicy::LazyLocal { probes: 3 }, 2).run(&trace);
        assert_eq!(r.makespan.as_ps(), 1_159_461_494);
        assert_eq!(r.sched_overhead.as_ps(), 14_700_000);
        assert_eq!(r.messages, 49);
    }

    #[test]
    fn skewed_trace_is_skewed() {
        let trace = skewed_trace(1000, 8, 1000, 1.5, 9);
        let mut counts = [0u32; 8];
        for t in &trace {
            counts[t.task.data_home().0] += 1;
        }
        assert!(counts[0] > counts[7] * 2);
    }

    #[test]
    fn instruments_and_trace_capture_executions() {
        let trace = skewed_trace(100, 8, 80_000, 1.0, 3);
        let tracer = Tracer::buffering();
        let mut sim = ClusterSim::new(8, SchedPolicy::LazyLocal { probes: 2 }, 5)
            .with_tracer(tracer, "lane0");
        sim.run(&trace);
        let mut m = MetricsRegistry::new();
        sim.export_metrics(&mut m, "sched");
        assert_eq!(m.counter("sched.tasks"), Some(100));
        assert!(m.counter("sched.probes").unwrap() > 0);
        match m.get("sched.wait_ns") {
            Some(ecoscale_sim::Instrument::Stats(s)) => assert_eq!(s.count(), 100),
            other => panic!("unexpected: {other:?}"),
        }
        // no fault campaign installed: no resilience keys appear
        assert!(m.counter("sched.resilience.failures").is_none());
        let buf = sim.tracer.take();
        let tracks = buf.tracks();
        let complete = |e: &&ecoscale_sim::trace::TraceEvent| {
            matches!(e.kind, ecoscale_sim::trace::EventKind::Complete { .. })
        };
        let exec_spans = buf
            .events()
            .iter()
            .filter(complete)
            .filter(|e| {
                let t = &tracks[e.track.0 as usize];
                t.starts_with("lane0/w") && t != "lane0/wait"
            })
            .count();
        assert_eq!(exec_spans, 100, "one exec span per task");
        // queued tasks additionally record wait spans for ProfPlane
        let wait_spans = buf
            .events()
            .iter()
            .filter(complete)
            .filter(|e| tracks[e.track.0 as usize] == "lane0/wait")
            .count();
        assert!(wait_spans > 0, "overloaded workers must record waits");
        assert!(buf
            .events()
            .iter()
            .filter(complete)
            .all(|e| { tracks[e.track.0 as usize] != "lane0/wait" || e.name == "wait" }));
        assert!(tracks.iter().any(|t| t == "lane0/w0"));
        assert!(tracks.iter().any(|t| t == "lane0/queued"));
    }

    #[test]
    fn empty_trace_is_empty_report() {
        let r = ClusterSim::new(4, SchedPolicy::RandomPush, 1).run(&[]);
        assert_eq!(r.makespan, Time::ZERO);
        assert_eq!(r.messages, 0);
        assert_eq!(r.availability, 1.0);
    }

    #[test]
    fn off_campaign_is_a_no_op() {
        let trace = skewed_trace(200, 8, 100_000, 1.1, 13);
        let base = ClusterSim::new(8, SchedPolicy::LazyLocal { probes: 2 }, 3).run(&trace);
        let mut faulted = ClusterSim::new(8, SchedPolicy::LazyLocal { probes: 2 }, 3)
            .with_faults(&CampaignSpec::off(), ResilienceConfig::full());
        let same = faulted.run(&trace);
        assert_eq!(base, same);
        assert!(faulted.resilience().is_none());
    }

    #[test]
    fn crashes_recover_through_retry() {
        let spec = CampaignSpec::parse("seed=3,crash=1ms").expect("valid spec");
        let trace = skewed_trace(300, 8, 120_000, 1.2, 7);
        let mut sim = ClusterSim::new(8, SchedPolicy::LazyLocal { probes: 2 }, 1)
            .with_faults(&spec, ResilienceConfig::full());
        let r = sim.run(&trace);
        let mgr = sim.resilience().expect("campaign installed");
        assert!(mgr.failures() > 0, "campaign produced no crashes");
        assert_eq!(r.completed + r.lost, 300, "every task accounted for");
        assert!(r.completed > 0);
        assert!(mgr.retries() > 0, "orphans were re-homed");
        assert!(r.availability < 1.0, "downtime must show up");
        assert!(r.availability > 0.5, "bounded availability loss");
    }

    #[test]
    fn no_recovery_loses_orphaned_work() {
        let spec = CampaignSpec::parse("seed=3,crash=1ms").expect("valid spec");
        let trace = skewed_trace(300, 8, 120_000, 1.2, 7);
        let mut none = ClusterSim::new(8, SchedPolicy::LazyLocal { probes: 2 }, 1)
            .with_faults(&spec, ResilienceConfig::none());
        let bare = none.run(&trace);
        let mut full = ClusterSim::new(8, SchedPolicy::LazyLocal { probes: 2 }, 1)
            .with_faults(&spec, ResilienceConfig::full());
        let recovered = full.run(&trace);
        assert_eq!(bare.completed + bare.lost, 300);
        assert!(
            bare.lost > recovered.lost,
            "recovery must save tasks: bare={} full={}",
            bare.lost,
            recovered.lost
        );
    }

    #[test]
    fn stalls_quarantine_persistent_offenders() {
        let spec = CampaignSpec::parse("seed=9,stall=100us,stall_for=200us").expect("valid spec");
        let config = ResilienceConfig {
            quarantine_after: 2,
            ..ResilienceConfig::retry_only()
        };
        let trace = skewed_trace(300, 8, 120_000, 1.2, 7);
        let mut sim =
            ClusterSim::new(8, SchedPolicy::LazyLocal { probes: 2 }, 1).with_faults(&spec, config);
        let r = sim.run(&trace);
        let mgr = sim.resilience().expect("campaign installed");
        assert!(mgr.quarantines() > 0, "repeat offenders get quarantined");
        assert_eq!(r.completed + r.lost, 300);
        assert!(r.availability < 1.0);
    }

    #[test]
    fn centralized_survives_crashes() {
        let spec = CampaignSpec::parse("seed=5,crash=2ms").expect("valid spec");
        let trace = uniform_trace(256, 50_000);
        let mut sim = ClusterSim::new(8, SchedPolicy::Centralized, 1)
            .with_faults(&spec, ResilienceConfig::full());
        let r = sim.run(&trace);
        assert_eq!(r.completed + r.lost, 256);
        assert!(r.completed > 0);
    }

    #[test]
    fn fault_campaign_is_deterministic() {
        let trace = skewed_trace(200, 8, 100_000, 1.1, 13);
        let run = || {
            let spec = CampaignSpec::parse("seed=7,crash=1ms,stall=500us,stall_for=100us")
                .expect("valid spec");
            let mut sim = ClusterSim::new(8, SchedPolicy::LazyLocal { probes: 2 }, 3)
                .with_faults(&spec, ResilienceConfig::full());
            let r = sim.run(&trace);
            let mgr = sim.resilience().expect("campaign installed");
            (r, mgr.failures(), mgr.retries(), mgr.lost())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn faulted_run_exports_resilience_metrics() {
        let spec = CampaignSpec::parse("seed=3,crash=1ms").expect("valid spec");
        let trace = skewed_trace(300, 8, 120_000, 1.2, 7);
        let mut sim = ClusterSim::new(8, SchedPolicy::LazyLocal { probes: 2 }, 1)
            .with_faults(&spec, ResilienceConfig::full());
        sim.run(&trace);
        let mut m = MetricsRegistry::new();
        sim.export_metrics(&mut m, "sched");
        assert!(m.counter("sched.resilience.failures").unwrap() > 0);
        assert!(m.counter("sched.resilience.retries").unwrap() > 0);
    }
}
