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
//!
//! A run keeps one `Lane` per worker: its queue, busy state and fault
//! state. The run state holds the lanes, the central queue and the event
//! wheel, and gives each event one handler: an arrival, a dispatch
//! delivery, a finish and a wake. Every policy starts a task through the
//! same `exec`, and crashes and quarantines retire a worker through the
//! same `retire`.

use std::borrow::Cow;
use std::collections::{HashSet, VecDeque};

use ecoscale_noc::NodeId;
use ecoscale_sim::check::{invariant, CheckPlane};
use ecoscale_sim::fault::{salt, CampaignSpec, FaultClock};
use ecoscale_sim::trace::{EventKind, TraceEvent};
use ecoscale_sim::{
    Counter, Duration, Histogram, MetricsRegistry, OnlineStats, SimRng, Time, TimingWheel, Tracer,
    TrackId, ZipfTable,
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
    /// An idle worker wakes to look for work again: a stall cleared, a
    /// lazy worker's first poll, or its steal backoff expired.
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
/// use ecoscale_sim::{CheckPlane, Time};
///
/// let tasks: Vec<TaskSpec> = (0..64)
///     .map(|i| TaskSpec {
///         task: Task::new(TaskId(i), "work", vec![], 200_000, 10_000, NodeId(0)),
///         arrival: Time::ZERO,
///     })
///     .collect();
/// let mut sim = ClusterSim::new(8, SchedPolicy::LazyLocal { probes: 2 }, 42)
///     .with_checks(CheckPlane::enabled(1));
/// // all tasks land on worker 0's queue but stealing spreads them:
/// // several workers end up busy, so the run beats serial execution
/// assert!(sim.run(&tasks).mean_utilization > 2.0 / 8.0 && sim.checks().ok());
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

impl ClusterSim {
    /// Creates a simulator for `workers` workers under `policy`, checks off.
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
            check: CheckPlane::disabled(),
        }
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

    /// The installed CheckPlane (disabled unless installed by
    /// [`ClusterSim::with_checks`]); violations collected by
    /// [`ClusterSim::run`] are read back from here.
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
        let mut run = Run::new(self, tasks);
        while let Some((now, _, ev)) = run.q.pop() {
            // CheckPlane cadence gate: one branch when disabled.
            if run.sim.check.due() {
                run.check_no_duplicates();
            }
            run.drain_faults(now);
            match ev {
                Ev::Arrive(t) => run.arrive(now, t),
                Ev::Dispatched { worker, task } => run.dispatched(now, worker, task),
                Ev::Finish(w) => run.finish(now, w),
                Ev::Retry(w) => run.wake(now, w),
            }
        }
        run.report()
    }
}

/// One worker's state during a [`ClusterSim::run`]. The fault fields
/// are inert without a campaign: `retired` stays false and
/// `stalled_until` stays zero.
#[derive(Debug, Clone, Default)]
struct Lane {
    /// Local work queue (indices into the trace).
    queue: VecDeque<usize>,
    /// Executing a task, or reserved by an in-flight central dispatch.
    busy: bool,
    busy_time: Duration,
    /// The task executing now.
    current: Option<usize>,
    /// Probe backoff of a lazy worker that found nothing to steal.
    steal_backoff: Backoff,
    /// Crashed or quarantined: takes no new work.
    retired: bool,
    down_since: Option<Time>,
    stalled_until: Time,
    stall_downtime: Duration,
    /// Pending `Finish` events to swallow: their task died in a crash
    /// and already went through recovery.
    doomed: u32,
}

/// The state of one [`ClusterSim::run`]: the event wheel, one [`Lane`]
/// per worker, the central queue, the trace tracks and the tallies that
/// become the [`SchedReport`].
struct Run<'a> {
    sim: &'a mut ClusterSim,
    tasks: &'a [TaskSpec],
    q: TimingWheel<Ev>,
    lanes: Vec<Lane>,
    central: VecDeque<usize>,
    tracks: Vec<TrackId>,
    queue_track: Option<TrackId>,
    wait_track: Option<TrackId>,
    /// This run's trace events, on the tracer's track ids: appended to
    /// the tracer once, when the run reports, instead of one lock each.
    spans: Vec<TraceEvent>,
    steal_policy: RetryPolicy,
    task_backoff: Vec<Backoff>,
    dispatcher_free: Time,
    overhead: Duration,
    messages: u64,
    completed: usize,
    lost: u64,
}

impl<'a> Run<'a> {
    /// Resets the instruments, opens the trace tracks (`w0…wN`, then
    /// `queued`, then `wait`) and schedules every arrival.
    fn new(sim: &'a mut ClusterSim, tasks: &'a [TaskSpec]) -> Run<'a> {
        sim.ins = SchedInstruments::default();
        let track = |name: &str| sim.tracer.track(&format!("{}/{name}", sim.trace_label));
        let (tracks, queue_track, wait_track) = if sim.tracer.is_enabled() {
            let tracks = (0..sim.workers).map(|w| track(&format!("w{w}"))).collect();
            (tracks, Some(track("queued")), Some(track("wait")))
        } else {
            (Vec::new(), None, None)
        };
        let mut q = TimingWheel::new();
        for (i, t) in tasks.iter().enumerate() {
            q.schedule(t.arrival, q.scheduled_total(), Ev::Arrive(i));
        }
        // Lazy workers poll from the start: without an initial wake-up, a
        // worker that never receives an arrival would never steal.
        if let SchedPolicy::LazyLocal { .. } = sim.policy {
            if let Some(first) = tasks.iter().map(|t| t.arrival).min() {
                for w in 0..sim.workers {
                    q.schedule(first, q.scheduled_total(), Ev::Retry(w));
                }
            }
        }
        Run {
            q,
            lanes: vec![Lane::default(); sim.workers],
            central: VecDeque::new(),
            tracks,
            queue_track,
            wait_track,
            spans: Vec::new(),
            // The lazy scheduler's probe backoff: 8x, 16x, then capped at
            // 32x the probe latency.
            steal_policy: RetryPolicy::new(
                sim.probe_latency * 8,
                sim.probe_latency * 32,
                RetryPolicy::UNBOUNDED,
            ),
            task_backoff: vec![Backoff::new(); tasks.len()],
            dispatcher_free: Time::ZERO,
            overhead: Duration::ZERO,
            messages: 0,
            completed: 0,
            lost: 0,
            sim,
            tasks,
        }
    }

    /// Applies every worker crash and stall due by `now`, in time order
    /// across both fault clocks.
    fn drain_faults(&mut self, now: Time) {
        while let Some(f) = self.sim.faults.as_mut() {
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
            let in_service: Vec<usize> = (0..self.lanes.len())
                .filter(|&w| !self.lanes[w].retired)
                .collect();
            let Some(&v) = in_service
                .get(f.pick.gen_range_usize(0, in_service.len().max(1)))
                .filter(|_| !in_service.is_empty())
            else {
                continue; // machine already fully down
            };
            let lane = &mut self.lanes[v];
            if is_crash {
                // Hard fault: the worker dies with its queue, and any
                // in-flight task fails with it.
                f.mgr.record_failure(Domain::Worker(v), at);
                let inflight = lane.current.take();
                if inflight.is_some() {
                    lane.doomed += 1; // swallow the pending Finish
                }
                self.retire(v, at, now, inflight);
            } else {
                // Transient stall: no new work until it clears.
                lane.stalled_until = lane.stalled_until.max(at + f.stall_for);
                lane.stall_downtime += f.stall_for;
                if f.mgr.record_failure(Domain::Worker(v), at) {
                    // Persistent offender: quarantine. Unlike a crash
                    // this is graceful — in-flight work completes.
                    self.retire(v, at, now, None);
                }
            }
        }
    }

    /// A task arrives: Centralized queues it for the dispatcher; the
    /// other policies push it onto a worker's queue — its data home
    /// (LazyLocal) or a random worker (RandomPush) — and wake the worker.
    fn arrive(&mut self, now: Time, t: usize) {
        let workers = self.lanes.len();
        let target = match self.sim.policy {
            SchedPolicy::Centralized => {
                self.central.push_back(t);
                self.enqueued(now, self.central.len());
                let idle = (0..workers).find(|&w| {
                    let lane = &self.lanes[w];
                    !lane.busy && !lane.retired && now >= lane.stalled_until
                });
                if let Some(w) = idle {
                    self.grant(now, w);
                }
                return;
            }
            SchedPolicy::LazyLocal { .. } => self.tasks[t].task.data_home().0 % workers,
            SchedPolicy::RandomPush => {
                self.messages += 1;
                self.sim.rng.gen_range_usize(0, workers)
            }
        };
        // A dead target re-routes to the next worker still in service,
        // or the task is lost.
        let Some(w) = (0..workers)
            .map(|k| (target + k) % workers)
            .find(|&w| !self.lanes[w].retired)
        else {
            self.lose();
            return;
        };
        self.lanes[w].queue.push_back(t);
        self.enqueued(now, self.lanes[w].queue.len());
        self.wake(now, w);
    }

    /// Samples the depth of the queue an arrival just joined.
    fn enqueued(&mut self, now: Time, depth: usize) {
        self.sim.ins.queue_depth.record(depth as u64);
        if let Some(track) = self.queue_track {
            self.spans.push(TraceEvent {
                track,
                name: "queued".into(),
                ts: now,
                kind: EventKind::Counter {
                    value: depth as f64,
                },
            });
        }
    }

    /// The dispatcher delivers task `t` to worker `w`.
    fn dispatched(&mut self, now: Time, w: usize, t: usize) {
        if self.lanes[w].retired {
            // The worker died between grant and delivery: the dispatch
            // fails and the task is recovered.
            self.rehome(t, now, now);
        } else {
            self.exec(now, w, t);
        }
    }

    /// Worker `w` finished its current task.
    fn finish(&mut self, now: Time, w: usize) {
        let lane = &mut self.lanes[w];
        if lane.doomed > 0 {
            lane.doomed -= 1;
            return;
        }
        self.completed += 1;
        lane.current = None;
        // A retired worker stays busy, which the steal liveness test
        // counts as in flight.
        if !lane.retired {
            lane.busy = false;
        }
        self.wake(now, w);
    }

    /// An idle worker looks for work: its own queue first, then the
    /// central dispatcher (Centralized) or a steal (LazyLocal). A stalled
    /// worker wakes again once the stall clears.
    fn wake(&mut self, now: Time, w: usize) {
        let lane = &mut self.lanes[w];
        if lane.retired || lane.busy {
            return; // dead, or a stale poll: the worker found work meanwhile
        }
        if now < lane.stalled_until {
            let at = lane.stalled_until;
            self.q.schedule(at, self.q.scheduled_total(), Ev::Retry(w));
            return;
        }
        match (self.sim.policy, lane.queue.pop_front()) {
            (SchedPolicy::Centralized, _) => self.grant(now, w),
            (_, Some(t)) => self.exec(now, w, t),
            (SchedPolicy::LazyLocal { probes }, None) => self.steal(now, w, probes),
            (SchedPolicy::RandomPush, None) => {}
        }
    }

    /// The central dispatcher hands the next queued task to worker `w`,
    /// serialized behind every earlier dispatch.
    fn grant(&mut self, now: Time, w: usize) {
        let Some(t) = self.central.pop_front() else {
            return;
        };
        self.lanes[w].busy = true; // reserved while dispatching
        let done = self.dispatcher_free.max(now) + self.sim.dispatch_latency;
        self.overhead += done - now;
        self.dispatcher_free = done;
        self.messages += 2; // request + grant
        let ev = Ev::Dispatched { worker: w, task: t };
        self.q.schedule(done, self.q.scheduled_total(), ev);
    }

    /// An idle lazy worker probes up to `probes` random victims and takes
    /// half of the first one holding more than one task (the classic
    /// steal-half heuristic). If nothing is stolen it retries with
    /// bounded backoff while others still hold work: responsive (hot
    /// queues refill constantly) without a probe storm.
    fn steal(&mut self, now: Time, w: usize, probes: u32) {
        let mut victim = None;
        let mut probe_cost = Duration::ZERO;
        for _ in 0..probes {
            let v = self.sim.rng.gen_range_usize(0, self.lanes.len());
            probe_cost += self.sim.probe_latency;
            self.messages += 1;
            self.sim.ins.probes.incr();
            if v != w && self.lanes[v].queue.len() > 1 {
                victim = Some(v);
                break;
            }
        }
        self.overhead += probe_cost;
        if let Some(v) = victim {
            self.lanes[w].steal_backoff.reset();
            self.sim.ins.steals.incr();
            let keep = self.lanes[v].queue.len() / 2;
            let mut taken = self.lanes[v].queue.split_off(keep);
            let first = taken.pop_front().expect("len > 1");
            self.lanes[w].queue.extend(taken);
            self.exec(now + probe_cost, w, first);
            return;
        }
        let in_flight = self.lanes.iter().filter(|l| l.busy).count();
        if self.lanes.iter().any(|l| l.queue.len() > 1)
            || (self.completed + in_flight < self.tasks.len()
                && self.lanes.iter().any(|l| !l.queue.is_empty()))
        {
            let wait = self.lanes[w]
                .steal_backoff
                .next(&self.steal_policy)
                .expect("steal retry is unbounded");
            let at = now + probe_cost + wait;
            self.q.schedule(at, self.q.scheduled_total(), Ev::Retry(w));
        }
    }

    /// Worker `w` starts task `t` at `start`. Records wait latency
    /// (arrival → start), exec latency, migration (executed away from its
    /// data home), a span on the worker's track, and — when the task
    /// waited at all — a `wait` span on the shared wait track so ProfPlane
    /// can blame scheduler queueing on the critical path.
    fn exec(&mut self, start: Time, w: usize, t: usize) {
        let spec = &self.tasks[t];
        let d = self.sim.cpu.exec(spec.task.flops(), spec.task.mem_ops()).0;
        let lane = &mut self.lanes[w];
        lane.busy = true;
        lane.busy_time += d;
        lane.current = Some(t);
        let ins = &mut self.sim.ins;
        ins.tasks.incr();
        let waited = start.saturating_since(spec.arrival);
        ins.wait_ns.record(waited.as_ns_f64());
        ins.exec_ns.record(d.as_ns_f64());
        if spec.task.data_home().0 % self.lanes.len() != w {
            ins.migrations.incr();
        }
        let span = |track, name: Cow<'static, str>, ts, dur| TraceEvent {
            track,
            name,
            ts,
            kind: EventKind::Complete { dur },
        };
        if let Some(&track) = self.tracks.get(w) {
            let name = spec.task.function().to_owned().into();
            self.spans.push(span(track, name, start, d));
        }
        if let Some(track) = self.wait_track.filter(|_| waited > Duration::ZERO) {
            self.spans
                .push(span(track, "wait".into(), spec.arrival, waited));
        }
        self.q
            .schedule(start + d, self.q.scheduled_total(), Ev::Finish(w));
    }

    /// Takes worker `v` out of service at `at` and recovers its queue,
    /// then `inflight`.
    fn retire(&mut self, v: usize, at: Time, now: Time, inflight: Option<usize>) {
        let lane = &mut self.lanes[v];
        lane.retired = true;
        lane.down_since = Some(at);
        let orphans = std::mem::take(&mut lane.queue);
        for t in orphans.into_iter().chain(inflight) {
            self.rehome(t, at, now);
        }
    }

    /// Recovers a task orphaned by a worker fault at `at`: re-injects it
    /// as a fresh arrival after the bounded-retry delay (never before
    /// `now` — the fault may predate the event being handled), or counts
    /// it lost once the budget (or the whole retry mechanism) is absent.
    fn rehome(&mut self, t: usize, at: Time, now: Time) {
        let mgr = &mut self
            .sim
            .faults
            .as_mut()
            .expect("only faults orphan work")
            .mgr;
        match mgr
            .config()
            .retry
            .and_then(|p| self.task_backoff[t].next(&p))
        {
            Some(delay) => {
                let fire = (at + delay).max(now);
                mgr.note_retry();
                mgr.note_recovery(fire.since(at));
                self.q
                    .schedule(fire, self.q.scheduled_total(), Ev::Arrive(t));
            }
            None => self.lose(),
        }
    }

    /// Abandons one task to faults.
    fn lose(&mut self) {
        self.lost += 1;
        if let Some(f) = self.sim.faults.as_mut() {
            f.mgr.note_lost();
        }
    }

    /// Read-only scan asserting no task index appears twice across worker
    /// queues, the central queue and in-flight execution slots.
    fn check_no_duplicates(&mut self) {
        let mut seen: HashSet<usize> = HashSet::new();
        let all = self
            .lanes
            .iter()
            .flat_map(|l| &l.queue)
            .chain(&self.central)
            .chain(self.lanes.iter().filter_map(|l| l.current.as_ref()));
        for &t in all {
            self.sim
                .check
                .check(invariant::SCHED_NO_DUPLICATE_TASKS, seen.insert(t), || {
                    format!("task {t} queued or running twice")
                });
        }
    }

    fn report(mut self) -> SchedReport {
        self.sim.tracer.append(std::mem::take(&mut self.spans));
        // Work still queued when the event stream dries up — possible
        // only once every worker has died — is lost.
        if self.sim.faults.is_some() {
            let leftover =
                self.lanes.iter().map(|l| l.queue.len()).sum::<usize>() + self.central.len();
            for _ in 0..leftover {
                self.lose();
            }
        }
        let (completed, lost, submitted) =
            (self.completed as u64, self.lost, self.tasks.len() as u64);
        if self.sim.check.is_enabled() {
            self.check_no_duplicates();
            self.sim.check.check(
                invariant::SCHED_TASK_CONSERVATION,
                completed + lost == submitted,
                || format!("completed {completed} + lost {lost} != submitted {submitted}"),
            );
        }

        let makespan = self.q.now();
        let span = makespan.saturating_since(Time::ZERO);
        let utils: Vec<f64> = self
            .lanes
            .iter()
            .map(|l| {
                if span.is_zero() {
                    0.0
                } else {
                    l.busy_time / span
                }
            })
            .collect();
        let mean = utils.iter().sum::<f64>() / utils.len() as f64;
        let max = utils.iter().cloned().fold(0.0, f64::max);
        let var = utils.iter().map(|u| (u - mean) * (u - mean)).sum::<f64>() / utils.len() as f64;
        let imbalance = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
        let availability = if self.sim.faults.is_some() && !span.is_zero() {
            let mut down = Duration::ZERO;
            for lane in &self.lanes {
                let mut d = lane.stall_downtime;
                if let Some(t0) = lane.down_since {
                    d += makespan.saturating_since(t0);
                }
                down += d.min(span);
            }
            (1.0 - down / (span * self.lanes.len() as u64)).max(0.0)
        } else {
            1.0
        };
        SchedReport {
            makespan,
            sched_overhead: self.overhead,
            messages: self.messages,
            max_utilization: max,
            mean_utilization: mean,
            imbalance,
            completed,
            lost,
            availability,
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
    let zipf = ZipfTable::new(workers, skew);
    (0..count)
        .map(|i| {
            let home = zipf.draw(&mut rng);
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
    use ecoscale_sim::check::CHECK_ENV;
    use ecoscale_sim::RunCtx;

    /// [`ClusterSim::new`] with checks armed from `ECOSCALE_CHECK`, so an
    /// armed test pass checks every run these tests make.
    fn sim(workers: usize, policy: SchedPolicy, seed: u64) -> ClusterSim {
        let check = std::env::var(CHECK_ENV).ok();
        let ctx = RunCtx::parse(Some("1"), Some("1"), check.as_deref());
        ClusterSim::new(workers, policy, seed).with_checks(CheckPlane::armed(ctx.check))
    }

    #[test]
    fn arming_is_per_value_not_per_process() {
        // An armed and a bare simulator side by side in one process: only
        // the plane each was handed decides whether it checks, whatever
        // the environment says.
        let trace = skewed_trace(200, 8, 100_000, 1.0, 7);
        let run = |mut sim: ClusterSim| {
            sim.run(&trace);
            sim.checks().checks_run()
        };
        let policy = SchedPolicy::LazyLocal { probes: 2 };
        let (armed, bare) = std::thread::scope(|s| {
            let armed =
                s.spawn(|| run(ClusterSim::new(8, policy, 1).with_checks(CheckPlane::armed(1))));
            let bare = s.spawn(|| run(ClusterSim::new(8, policy, 1)));
            (armed.join().unwrap(), bare.join().unwrap())
        });
        assert!(armed > 0, "the armed simulator ran no checks");
        assert_eq!(bare, 0, "a simulator without a plane ran checks");
    }

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
            let r = sim(8, policy, 1).run(&trace);
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
        let lazy = sim(16, SchedPolicy::LazyLocal { probes: 3 }, 1).run(&trace);
        let pushy = sim(16, SchedPolicy::RandomPush, 1).run(&trace);
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
        let central = sim(16, SchedPolicy::Centralized, 1).run(&trace);
        let lazy = sim(16, SchedPolicy::LazyLocal { probes: 2 }, 1).run(&trace);
        assert!(central.sched_overhead > lazy.sched_overhead);
        assert!(central.messages > 0);
    }

    #[test]
    fn centralized_serializes_at_scale() {
        // with many tiny tasks the dispatcher becomes the bottleneck
        let trace = uniform_trace(2000, 5_000);
        let small = sim(4, SchedPolicy::Centralized, 1).run(&trace);
        let big = sim(64, SchedPolicy::Centralized, 1).run(&trace);
        // adding workers cannot help once the dispatcher saturates:
        // makespan stays within 3x instead of scaling by 16x
        assert!(big.makespan.as_ns() as f64 > small.makespan.as_ns() as f64 / 8.0);
    }

    #[test]
    fn single_worker_degenerate() {
        let trace = uniform_trace(10, 10_000);
        let r = sim(1, SchedPolicy::LazyLocal { probes: 1 }, 1).run(&trace);
        assert!(r.max_utilization > 0.9);
        assert!(r.imbalance < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let trace = skewed_trace(100, 8, 80_000, 1.0, 3);
        let a = sim(8, SchedPolicy::LazyLocal { probes: 2 }, 5).run(&trace);
        let b = sim(8, SchedPolicy::LazyLocal { probes: 2 }, 5).run(&trace);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.messages, b.messages);
    }

    /// Golden schedules. The first two runs pin the lazy scheduler's
    /// probe-backoff timing. The table then pins every policy under no
    /// faults, crashes, and quarantining stalls, each under full and no
    /// recovery, with a buffering tracer and every check armed: each line
    /// holds the whole [`SchedReport`], the checks run, and FNV-1a-64
    /// hashes of the metrics export and of the Chrome trace, so any change
    /// to event order, RNG draws, instrument or tracer calls shows up.
    #[test]
    fn pins_golden_schedules() {
        use ecoscale_sim::snap::fnv1a64;
        let trace = skewed_trace(300, 8, 120_000, 1.3, 21);
        let r = sim(8, SchedPolicy::LazyLocal { probes: 2 }, 9).run(&trace);
        assert_eq!(r.makespan.as_ps(), 5_417_607_987);
        assert_eq!(r.sched_overhead.as_ps(), 59_100_000);
        assert_eq!(r.messages, 197);

        let trace = skewed_trace(64, 4, 60_000, 1.0, 5);
        let r = sim(4, SchedPolicy::LazyLocal { probes: 3 }, 2).run(&trace);
        assert_eq!(r.makespan.as_ps(), 1_159_461_494);
        assert_eq!(r.sched_overhead.as_ps(), 14_700_000);
        assert_eq!(r.messages, 49);

        const CASES: [(&str, &str, bool); 5] = [
            ("off", "", true),
            ("crash/full", "seed=3,crash=1ms", true),
            ("crash/none", "seed=3,crash=1ms", false),
            ("stall/full", "seed=9,stall=100us,stall_for=200us", true),
            ("stall/none", "seed=9,stall=100us,stall_for=200us", false),
        ];
        const PINNED: &[&str] = &[
            "Centralized off: makespan=5260944988 overhead=244241505 messages=600 \
             max=0.985970201139081 mean=0.9686042619716136 imbalance=0.01001448947582288 \
             completed=300 lost=0 availability=1.0 \
             checks=39240 metrics=0x46bfbecf0dd5b228 trace=0x9396aca0e1d56792",
            "Centralized crash/full: makespan=6118579152 overhead=247501668 messages=608 \
             max=0.993566044171034 mean=0.8446743320196571 imbalance=0.21033410524494411 \
             completed=300 lost=0 availability=0.8556941677241541 \
             checks=40788 metrics=0xa415f386b9cb017f trace=0x5b258c5ec0492a85",
            "Centralized crash/none: makespan=5974561985 overhead=242443000 messages=600 \
             max=0.99380674263772 mean=0.852911686274019 imbalance=0.2032914745454101 \
             completed=296 lost=4 availability=0.8642681964952448 \
             checks=39989 metrics=0x7fa986f71c69fce2 trace=0xe3d92485962f2834",
            "Centralized stall/full: makespan=3873096000 overhead=61959891 messages=152 \
             max=0.5405311825475021 mean=0.335929844851509 imbalance=0.44530797364265123 \
             completed=76 lost=224 availability=0.2634529872871728 \
             checks=33063 metrics=0x78b1fde9eda3cc3d trace=0xa9fb66d51e0344bd",
            "Centralized stall/none: makespan=3873096000 overhead=61959891 messages=152 \
             max=0.5405311825475021 mean=0.335929844851509 imbalance=0.44530797364265123 \
             completed=76 lost=224 availability=0.2634529872871728 \
             checks=33063 metrics=0x78b1fde9eda3cc3d trace=0xa9fb66d51e0344bd",
            "RandomPush off: makespan=6526446982 overhead=0 messages=300 \
             max=0.9935168400024245 mean=0.7807883449339573 imbalance=0.1380203719488053 \
             completed=300 lost=0 availability=1.0 \
             checks=30023 metrics=0x4480469783653349 trace=0x89e7e1e795f620a2",
            "RandomPush crash/full: makespan=7663392814 overhead=0 messages=335 \
             max=0.9944786857431213 mean=0.672030205239718 imbalance=0.29202788925386447 \
             completed=300 lost=0 availability=0.7661492799930483 \
             checks=33041 metrics=0x44f861a39ea23ed1 trace=0xb7571202bd57c97b",
            "RandomPush crash/none: makespan=6526446982 overhead=0 messages=300 \
             max=0.9935168400024245 mean=0.7094509720442252 imbalance=0.24482368182882944 \
             completed=269 lost=31 availability=0.8334651955539321 \
             checks=28131 metrics=0x1ec7068ce84016df trace=0x6e9657ad0997d5c7",
            "RandomPush stall/full: makespan=3873096000 overhead=0 messages=545 \
             max=0.5063203943305304 mean=0.3260069315026015 imbalance=0.45753196808827234 \
             completed=74 lost=226 availability=0.2634529872871728 \
             checks=18368 metrics=0xc4814f278c75a63d trace=0xcbccd49dfaac5b14",
            "RandomPush stall/none: makespan=3873096000 overhead=0 messages=300 \
             max=0.5114665789332359 mean=0.3231069313799606 imbalance=0.46168622222084227 \
             completed=73 lost=227 availability=0.2634529872871728 \
             checks=6719 metrics=0x4994cad635d60d8e trace=0x1c4a3ace3fa5861a",
            "LazyLocal { probes: 1 } off: makespan=5359886653 overhead=41700000 messages=139 \
             max=0.9771556113166187 mean=0.950724160281044 imbalance=0.03521768622805451 \
             completed=300 lost=0 availability=1.0 \
             checks=31912 metrics=0xbb539af1720a5990 trace=0xa3edfb9a78d2169c",
            "LazyLocal { probes: 1 } crash/full: makespan=6381659650 overhead=37800000 messages=126 \
             max=0.9849833212274177 mean=0.8085958041298864 imbalance=0.2223282760039466 \
             completed=300 lost=0 availability=0.8410308663397617 \
             checks=33945 metrics=0x3d9a894530ef316c trace=0xc839c8d058dee38c",
            "LazyLocal { probes: 1 } crash/none: makespan=5756822319 overhead=35700000 messages=119 \
             max=0.9953882543999357 mean=0.8508312738929263 imbalance=0.19387197823793334 \
             completed=284 lost=16 availability=0.8780458729709494 \
             checks=31209 metrics=0x236c8f2f752879e4 trace=0xc06f3040aadf89ed",
            "LazyLocal { probes: 1 } stall/full: makespan=3873096000 overhead=12300000 messages=41 \
             max=0.5614978291268794 mean=0.32521960916408993 imbalance=0.4741740278266916 \
             completed=74 lost=226 availability=0.2634529872871728 \
             checks=18621 metrics=0xef6f6f1e73bbaa81 trace=0x06013ea3a8e08d33",
            "LazyLocal { probes: 1 } stall/none: makespan=3873096000 overhead=12300000 messages=41 \
             max=0.5614978291268794 mean=0.3256556298565798 imbalance=0.4723327782302949 \
             completed=74 lost=226 availability=0.2634529872871728 \
             checks=7184 metrics=0x7fcc9e952b96d193 trace=0x129c7eb09d2b4dd5",
            "LazyLocal { probes: 2 } off: makespan=5396706487 overhead=66300000 messages=221 \
             max=0.9950805180782106 mean=0.9442377030602073 imbalance=0.034034205536886734 \
             completed=300 lost=0 availability=1.0 \
             checks=29443 metrics=0x0e7f57cb228e42d0 trace=0x0b4e89dd3f79c3d5",
            "LazyLocal { probes: 2 } crash/full: makespan=6195777484 overhead=33000000 messages=110 \
             max=0.9944103060367427 mean=0.8321883668256347 imbalance=0.21752813003329655 \
             completed=300 lost=0 availability=0.8512622789868094 \
             checks=31026 metrics=0x2ae62e0393490d9d trace=0x14476729ac61ec2a",
            "LazyLocal { probes: 2 } crash/none: makespan=5761972151 overhead=46500000 messages=155 \
             max=0.9768954107185513 mean=0.8504393955027292 imbalance=0.18989379178980248 \
             completed=284 lost=16 availability=0.8777079899192661 \
             checks=29155 metrics=0x5f0a856d83dc6c45 trace=0xb40009f7ed7395fc",
            "LazyLocal { probes: 2 } stall/full: makespan=3873096000 overhead=9300000 messages=31 \
             max=0.5364453044799302 mean=0.327013716513869 imbalance=0.4647075232646845 \
             completed=74 lost=226 availability=0.2634529872871728 \
             checks=17286 metrics=0xa3ba98f0966d3b57 trace=0xe8828a38f7fa0ad9",
            "LazyLocal { probes: 2 } stall/none: makespan=3873096000 overhead=12300000 messages=41 \
             max=0.5364453044799302 mean=0.3264029594476873 imbalance=0.4621455399618483 \
             completed=74 lost=226 availability=0.2634529872871728 \
             checks=7147 metrics=0x7e0c70592cc28fa9 trace=0x40e8afdeecdba1b5",
        ];
        let trace = skewed_trace(300, 8, 120_000, 1.2, 7);
        let mut actual = Vec::new();
        for policy in [
            SchedPolicy::Centralized,
            SchedPolicy::RandomPush,
            SchedPolicy::LazyLocal { probes: 1 },
            SchedPolicy::LazyLocal { probes: 2 },
        ] {
            for (name, spec, full) in CASES {
                let mut recovery = if full {
                    ResilienceConfig::full()
                } else {
                    ResilienceConfig::none()
                };
                if spec.contains("stall") {
                    recovery.quarantine_after = 2;
                }
                let spec = if spec.is_empty() {
                    CampaignSpec::off()
                } else {
                    CampaignSpec::parse(spec).expect("valid spec")
                };
                let mut sim = sim(8, policy, 1)
                    .with_faults(&spec, recovery)
                    .with_tracer(Tracer::buffering(), "pin")
                    .with_checks(CheckPlane::enabled(1));
                let r = sim.run(&trace);
                assert!(sim.checks().violations().is_empty(), "{policy:?} {name}");
                let mut m = MetricsRegistry::new();
                sim.export_metrics(&mut m, "sched");
                let trace_json = sim.tracer.take().to_chrome_json();
                actual.push(format!(
                    "{policy:?} {name}: makespan={} overhead={} messages={} \
                     max={:?} mean={:?} imbalance={:?} \
                     completed={} lost={} availability={:?} \
                     checks={} metrics={:#018x} trace={:#018x}",
                    r.makespan.as_ps(),
                    r.sched_overhead.as_ps(),
                    r.messages,
                    r.max_utilization,
                    r.mean_utilization,
                    r.imbalance,
                    r.completed,
                    r.lost,
                    r.availability,
                    sim.checks().checks_run(),
                    fnv1a64(m.to_json().as_bytes()),
                    fnv1a64(trace_json.as_bytes()),
                ));
            }
        }
        for (i, line) in actual.iter().enumerate() {
            assert_eq!(PINNED.get(i).copied(), Some(line.as_str()), "\n{actual:#?}");
        }
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
        let mut sim = sim(8, SchedPolicy::LazyLocal { probes: 2 }, 5).with_tracer(tracer, "lane0");
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
        let r = sim(4, SchedPolicy::RandomPush, 1).run(&[]);
        assert_eq!(r.makespan, Time::ZERO);
        assert_eq!(r.messages, 0);
        assert_eq!(r.availability, 1.0);
    }

    #[test]
    fn off_campaign_is_a_no_op() {
        let trace = skewed_trace(200, 8, 100_000, 1.1, 13);
        let base = sim(8, SchedPolicy::LazyLocal { probes: 2 }, 3).run(&trace);
        let mut faulted = sim(8, SchedPolicy::LazyLocal { probes: 2 }, 3)
            .with_faults(&CampaignSpec::off(), ResilienceConfig::full());
        let same = faulted.run(&trace);
        assert_eq!(base, same);
        assert!(faulted.resilience().is_none());
    }

    #[test]
    fn crashes_recover_through_retry() {
        let spec = CampaignSpec::parse("seed=3,crash=1ms").expect("valid spec");
        let trace = skewed_trace(300, 8, 120_000, 1.2, 7);
        let mut sim = sim(8, SchedPolicy::LazyLocal { probes: 2 }, 1)
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
        let mut none = sim(8, SchedPolicy::LazyLocal { probes: 2 }, 1)
            .with_faults(&spec, ResilienceConfig::none());
        let bare = none.run(&trace);
        let mut full = sim(8, SchedPolicy::LazyLocal { probes: 2 }, 1)
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
        let mut sim = sim(8, SchedPolicy::LazyLocal { probes: 2 }, 1).with_faults(&spec, config);
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
        let mut sim =
            sim(8, SchedPolicy::Centralized, 1).with_faults(&spec, ResilienceConfig::full());
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
            let mut sim = sim(8, SchedPolicy::LazyLocal { probes: 2 }, 3)
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
        let mut sim = sim(8, SchedPolicy::LazyLocal { probes: 2 }, 1)
            .with_faults(&spec, ResilienceConfig::full());
        sim.run(&trace);
        let mut m = MetricsRegistry::new();
        sim.export_metrics(&mut m, "sched");
        assert!(m.counter("sched.resilience.failures").unwrap() > 0);
        assert!(m.counter("sched.resilience.retries").unwrap() > 0);
    }
}
