//! ServePlane: multi-tenant open-loop request serving over shared
//! accelerators.
//!
//! ECOSCALE's UNILOGIC blocks are *shared*: many concurrent callers from
//! many nodes invoke the same reconfigurable functions through the
//! runtime, which must arbitrate, queue, and place the work. This module
//! is the front half of that stack — the part that faces the traffic:
//!
//! * [`ServeSpec`] — a declarative serving workload (tenants, arrival
//!   rates, burst shape, queue bounds, token buckets, batching policy,
//!   SLO deadline) with a compact `key=value` textual form that
//!   round-trips through [`ServeSpec::parse`] / `Display`, mirroring
//!   [`CampaignSpec`](ecoscale_sim::fault::CampaignSpec),
//! * [`ArrivalGen`] — a deterministic open-loop arrival process per
//!   tenant: Poisson gaps from a salted [`SimRng`] stream, optionally
//!   modulated by periodic burst windows (piecewise-exponential draws,
//!   so the process is a pure function of the spec seed),
//! * [`ServePlane`] — admission control (bounded per-tenant FIFO queues
//!   plus fair-share token buckets; a full queue or an empty bucket
//!   *sheds* the request — rejected is not lost, every request is
//!   accounted admitted/completed/shed/failed), a batching dispatcher
//!   that coalesces same-kernel requests across tenants under a
//!   batch-size/latency-budget policy, and an SLO tracker (per-tenant
//!   latency histograms, deadline misses, goodput),
//! * [`ServingReport`] — the deterministic JSON/table export of one run,
//!   embedded as the `serving` section of the core `SystemReport`.
//!
//! The plane itself is backend-agnostic: it hands out [`Batch`]es and is
//! told when they complete. `ecoscale_core::serve_model` drives it
//! against `EcoscaleSystem::call`; under a FaultPlane campaign the
//! driver feeds resilience pressure back into admission via
//! [`ServePlane::set_pressure`], so degradation means shedding, not
//! stalling. Conservation and queue bounds are CheckPlane invariants
//! ([`invariant::SERVE_REQUEST_CONSERVED`],
//! [`invariant::SERVE_QUEUE_BOUNDED`]).

use core::fmt;
use core::ops::Bound::{Excluded, Unbounded};
use std::collections::VecDeque;

use ecoscale_sim::check::{invariant, CheckPlane};
use ecoscale_sim::snap::malformed;
use ecoscale_sim::spec::{self, fmt_duration, SpecError};
use ecoscale_sim::telem::TriggerKind;
use ecoscale_sim::{
    json, Duration, FlightRecorder, Histogram, MetricsRegistry, Persist, RestoreError, SimRng,
    SnapIo, Time, TimeSeries,
};

/// Component salts for [`ServeSpec::rng`]; the tenant id is folded in by
/// shifting it into the high word, like the per-worker SMMU streams.
pub mod salt {
    /// Per-tenant arrival process.
    pub const ARRIVAL: u64 = 1;
    /// Per-tenant kernel-mix selection.
    pub const MIX: u64 = 2;
}

/// Mixes a tenant id into a component salt so every tenant's streams are
/// independent and adding a tenant never perturbs another's.
fn tenant_salt(component: u64, tenant: u32) -> u64 {
    component ^ ((tenant as u64) << 32)
}

/// A declarative multi-tenant serving workload and policy.
///
/// # Textual form
///
/// Comma-separated `key=value` pairs in the [`spec`] grammar; durations
/// take `ns`/`us`/`ms`/`s` suffixes, rates are per-second floats:
///
/// ```
/// use ecoscale_runtime::serve::ServeSpec;
///
/// let spec = ServeSpec::parse("seed=7,tenants=4,rate=250000,horizon=2ms,batch=8").unwrap();
/// assert_eq!(spec.tenants, 4);
/// let round_trip = ServeSpec::parse(&spec.to_string()).unwrap();
/// assert_eq!(spec, round_trip);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSpec {
    /// Root seed; every tenant forks independent streams from it.
    pub seed: u64,
    /// Number of tenants (independent traffic sources). At least 1.
    pub tenants: usize,
    /// Open-loop horizon: arrivals stop here, the drain continues.
    pub horizon: Duration,
    /// Mean request rate per tenant, requests/second.
    pub rate: f64,
    /// Burst factor: arrival rate multiplier inside burst windows
    /// (1 = no bursts).
    pub burst: f64,
    /// Burst window period (zero disables bursts).
    pub burst_every: Duration,
    /// Burst window length.
    pub burst_for: Duration,
    /// Per-tenant queue bound; a full queue sheds (backpressure).
    pub queue: usize,
    /// Token-bucket capacity per tenant (0 = bucket disabled).
    pub tokens: f64,
    /// Token refill rate per tenant, tokens/second.
    pub refill: f64,
    /// Maximum batch size the dispatcher coalesces (1 = batching off).
    pub batch: usize,
    /// Latency budget: a partial batch dispatches once its oldest
    /// request has waited this long.
    pub batch_wait: Duration,
    /// SLO deadline per request, measured from arrival.
    pub deadline: Duration,
    /// Fixed per-dispatch overhead (scheduling + invocation + SMMU
    /// setup), paid once per batch — what batching amortizes.
    pub overhead: Duration,
}

impl ServeSpec {
    /// The default serving workload: 4 tenants, moderate Poisson load,
    /// batching on, no bursts, no token buckets.
    pub fn base() -> ServeSpec {
        ServeSpec {
            seed: 42,
            tenants: 4,
            horizon: Duration::from_ms(2),
            rate: 150_000.0,
            burst: 1.0,
            burst_every: Duration::ZERO,
            burst_for: Duration::from_us(100),
            queue: 64,
            tokens: 0.0,
            refill: 0.0,
            batch: 8,
            batch_wait: Duration::from_us(4),
            deadline: Duration::from_us(250),
            overhead: Duration::from_us(5),
        }
    }

    /// This spec with batching disabled (batch size 1, no budget), the
    /// baseline the `bench_serve` goodput comparison runs against.
    pub fn batching_off(&self) -> ServeSpec {
        ServeSpec {
            batch: 1,
            batch_wait: Duration::ZERO,
            ..self.clone()
        }
    }

    /// Total offered load across all tenants, requests/second (mean;
    /// bursts redistribute arrivals inside the horizon, they do not add
    /// load).
    pub fn offered_per_sec(&self) -> f64 {
        self.rate * self.tenants as f64
    }

    /// Derives the independent RNG for one tenant's `component` stream
    /// (use the [`salt`] constants).
    pub fn rng(&self, component: u64, tenant: u32) -> SimRng {
        SimRng::seed_from(self.seed).fork(tenant_salt(component, tenant))
    }

    /// The keys of the textual form.
    pub const KEYS: &'static [&'static str] = &[
        "seed",
        "tenants",
        "horizon",
        "rate",
        "burst",
        "burst_every",
        "burst_for",
        "queue",
        "tokens",
        "refill",
        "batch",
        "batch_wait",
        "deadline",
        "overhead",
    ];

    /// Parses the compact `key=value[,key=value...]` form. Unspecified
    /// keys keep their [`ServeSpec::base`] defaults.
    ///
    /// # Errors
    ///
    /// A [`SpecError`] of kind `"serve spec"` names the offending pair.
    pub fn parse(s: &str) -> Result<ServeSpec, SpecError> {
        let mut spec = ServeSpec::base();
        spec::pairs("serve spec", s, |p| {
            match p.key {
                "seed" => spec.seed = p.u64()?,
                "tenants" => spec.tenants = p.count(1)?,
                "horizon" => spec.horizon = p.nonzero_duration()?,
                "rate" => spec.rate = p.float((Excluded(0.0), Unbounded), "requests/second > 0")?,
                "burst" => spec.burst = p.float(1.0.., "a factor >= 1")?,
                "burst_every" => spec.burst_every = p.duration()?,
                "burst_for" => spec.burst_for = p.duration()?,
                "queue" => spec.queue = p.count(1)?,
                "tokens" => spec.tokens = p.float(0.0.., "a bucket capacity >= 0")?,
                "refill" => spec.refill = p.float(0.0.., "tokens/second >= 0")?,
                "batch" => spec.batch = p.count(1)?,
                "batch_wait" => spec.batch_wait = p.duration()?,
                "deadline" => spec.deadline = p.nonzero_duration()?,
                "overhead" => spec.overhead = p.duration()?,
                _ => return Err(p.unknown(ServeSpec::KEYS)),
            }
            Ok(())
        })?;
        Ok(spec)
    }
}

impl Default for ServeSpec {
    fn default() -> Self {
        ServeSpec::base()
    }
}

impl fmt::Display for ServeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let base = ServeSpec::base();
        write!(
            f,
            "seed={},tenants={},horizon={},rate={}",
            self.seed,
            self.tenants,
            fmt_duration(self.horizon),
            self.rate
        )?;
        if self.burst > 1.0 && !self.burst_every.is_zero() {
            write!(
                f,
                ",burst={},burst_every={},burst_for={}",
                self.burst,
                fmt_duration(self.burst_every),
                fmt_duration(self.burst_for)
            )?;
        }
        write!(f, ",queue={}", self.queue)?;
        if self.tokens > 0.0 {
            write!(f, ",tokens={},refill={}", self.tokens, self.refill)?;
        }
        write!(f, ",batch={}", self.batch)?;
        if self.batch_wait != base.batch_wait {
            write!(f, ",batch_wait={}", fmt_duration(self.batch_wait))?;
        }
        write!(f, ",deadline={}", fmt_duration(self.deadline))?;
        if self.overhead != base.overhead {
            write!(f, ",overhead={}", fmt_duration(self.overhead))?;
        }
        Ok(())
    }
}

/// One request: a kernel call on behalf of a tenant, stamped with its
/// arrival time, SLO deadline, and the causal span timestamps the
/// telemetry plane turns into [`RequestJourney`] exemplars.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Request {
    /// Monotone per-plane id (submission order; shed requests consume
    /// ids too, so every journey — including shed ones — is nameable).
    pub id: u64,
    /// Owning tenant.
    pub tenant: u32,
    /// Index into the serving kernel mix.
    pub kernel: u32,
    /// Open-loop arrival time (admission is decided at this instant).
    pub arrival: Time,
    /// When the dispatcher batched this request ([`Time::ZERO`] while
    /// still queued); the arrival→dispatch gap is the queue span.
    pub dispatched: Time,
    /// Absolute deadline (`arrival + spec.deadline`).
    pub deadline: Time,
}

/// Every field in declaration order (a request in flight; queued
/// requests travel without their tenant and dispatch time).
impl Persist for Request {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        io.u64(&mut self.id)?;
        io.u32(&mut self.tenant)?;
        io.u32(&mut self.kernel)?;
        io.time(&mut self.arrival)?;
        io.time(&mut self.dispatched)?;
        io.time(&mut self.deadline)
    }
}

/// Why admission shed a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The tenant's bounded queue was full (backpressure).
    QueueFull,
    /// The tenant's fair-share token bucket was empty.
    Throttled,
}

/// Terminal outcome of one request journey.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum JourneyOutcome {
    /// Completed within its deadline.
    #[default]
    Completed,
    /// Completed past its deadline.
    DeadlineMiss,
    /// The backend call failed.
    Failed,
    /// Shed at admission on a full queue.
    ShedQueue,
    /// Shed at admission on an empty token bucket.
    ShedThrottle,
}

impl JourneyOutcome {
    /// Stable name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            JourneyOutcome::Completed => "completed",
            JourneyOutcome::DeadlineMiss => "deadline_miss",
            JourneyOutcome::Failed => "failed",
            JourneyOutcome::ShedQueue => "shed_queue",
            JourneyOutcome::ShedThrottle => "shed_throttle",
        }
    }

    fn tag(self) -> u8 {
        match self {
            JourneyOutcome::Completed => 0,
            JourneyOutcome::DeadlineMiss => 1,
            JourneyOutcome::Failed => 2,
            JourneyOutcome::ShedQueue => 3,
            JourneyOutcome::ShedThrottle => 4,
        }
    }

    fn from_tag(tag: u8) -> Option<JourneyOutcome> {
        Some(match tag {
            0 => JourneyOutcome::Completed,
            1 => JourneyOutcome::DeadlineMiss,
            2 => JourneyOutcome::Failed,
            3 => JourneyOutcome::ShedQueue,
            4 => JourneyOutcome::ShedThrottle,
            _ => return None,
        })
    }
}

/// The full causal record of one request: every span timestamp from
/// admission to its terminal outcome. Exemplar journeys are what the
/// flight recorder dumps when a window breaches its SLO, so an operator
/// can name the concrete requests behind an anomalous percentile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestJourney {
    /// Plane-wide request id (submission order).
    pub id: u64,
    /// Owning tenant.
    pub tenant: u32,
    /// Kernel-mix index.
    pub kernel: u32,
    /// Arrival = admission-decision instant.
    pub arrival: Time,
    /// When the dispatcher batched it (equal to `arrival` for sheds).
    pub dispatched: Time,
    /// Terminal time: completion, failure, or the shed instant.
    pub completed: Time,
    /// Absolute SLO deadline.
    pub deadline: Time,
    /// How the journey ended.
    pub outcome: JourneyOutcome,
}

impl RequestJourney {
    /// One-line human-readable journey: id, owner, outcome, and the
    /// admit→queue→dispatch→complete span breakdown.
    pub fn describe(&self) -> String {
        let queued = self.dispatched.saturating_since(self.arrival).as_ns();
        let exec = self.completed.saturating_since(self.dispatched).as_ns();
        format!(
            "req {} tenant {} kernel {} outcome={} arrival={}ns queued={}ns exec={}ns \
             complete={}ns deadline={}ns",
            self.id,
            self.tenant,
            self.kernel,
            self.outcome.name(),
            self.arrival.as_ns(),
            queued,
            exec,
            self.completed.as_ns(),
            self.deadline.as_ns()
        )
    }
}

/// The `serve.*` name of the ledger's latency histogram.
const LATENCY_NS: &str = "serve.latency_ns";

/// Bound on the anomalous journeys the SLO window keeps as exemplars.
const EXEMPLAR_CAP: usize = 4;

/// One serving ledger: how many requests reached each stage and outcome,
/// and the latencies of the completed ones. Each tenant keeps one for the
/// whole run and the SLO window keeps one for the current telemetry
/// window; [`ServePlane::account`] feeds both.
#[derive(Debug, Clone, Default, PartialEq)]
struct Ledger {
    submitted: u64,
    admitted: u64,
    completed: u64,
    shed_queue: u64,
    shed_throttle: u64,
    failed: u64,
    deadline_miss: u64,
    goodput: u64,
    latency_ns: Histogram,
}

impl Ledger {
    /// Counts a request admitted past the bucket and the queue bound.
    fn admit(&mut self) {
        self.submitted += 1;
        self.admitted += 1;
    }

    /// Counts a request's terminal outcome. A shed request is submitted
    /// and shed in the same instant, so it is counted as submitted here.
    fn record(&mut self, j: &RequestJourney) {
        match j.outcome {
            JourneyOutcome::Completed => {
                self.completed += 1;
                self.goodput += 1;
                self.latency_ns.record(j.completed.since(j.arrival).as_ns());
            }
            JourneyOutcome::DeadlineMiss => {
                self.completed += 1;
                self.deadline_miss += 1;
                self.latency_ns.record(j.completed.since(j.arrival).as_ns());
            }
            JourneyOutcome::Failed => self.failed += 1,
            JourneyOutcome::ShedQueue => {
                self.submitted += 1;
                self.shed_queue += 1;
            }
            JourneyOutcome::ShedThrottle => {
                self.submitted += 1;
                self.shed_throttle += 1;
            }
        }
    }

    fn merge(&mut self, other: &Ledger) {
        self.submitted += other.submitted;
        self.admitted += other.admitted;
        self.completed += other.completed;
        self.shed_queue += other.shed_queue;
        self.shed_throttle += other.shed_throttle;
        self.failed += other.failed;
        self.deadline_miss += other.deadline_miss;
        self.goodput += other.goodput;
        self.latency_ns.merge(&other.latency_ns);
    }

    fn shed(&self) -> u64 {
        self.shed_queue + self.shed_throttle
    }

    /// The counters under their `serve.*` names, in export order.
    fn counters(&self) -> [(&'static str, u64); 8] {
        [
            ("serve.submitted", self.submitted),
            ("serve.admitted", self.admitted),
            ("serve.completed", self.completed),
            ("serve.shed_queue", self.shed_queue),
            ("serve.shed_throttle", self.shed_throttle),
            ("serve.failed", self.failed),
            ("serve.deadline_miss", self.deadline_miss),
            ("serve.goodput", self.goodput),
        ]
    }
}

impl Persist for Ledger {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        for v in [
            &mut self.submitted,
            &mut self.admitted,
            &mut self.shed_queue,
            &mut self.shed_throttle,
            &mut self.completed,
            &mut self.failed,
            &mut self.deadline_miss,
            &mut self.goodput,
        ] {
            io.u64(v)?;
        }
        self.latency_ns.persist(io)
    }
}

/// The current telemetry window's SLO state: its [`Ledger`] and the
/// first [`EXEMPLAR_CAP`] anomalous journeys (deadline misses, sheds,
/// failures). The drive loop drains it once per window via
/// [`ServePlane::telemetry_tick`].
#[derive(Debug, Clone, Default, PartialEq)]
struct SloTracker {
    ledger: Ledger,
    exemplars: Vec<RequestJourney>,
}

impl SloTracker {
    fn record(&mut self, j: RequestJourney) {
        self.ledger.record(&j);
        if j.outcome != JourneyOutcome::Completed && self.exemplars.len() < EXEMPLAR_CAP {
            self.exemplars.push(j);
        }
    }

    /// Drains the window: returns its ledger and exemplars and resets.
    fn take_window(&mut self) -> (Ledger, Vec<RequestJourney>) {
        let w = std::mem::take(self);
        (w.ledger, w.exemplars)
    }
}

impl Persist for SloTracker {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        io.expect(EXEMPLAR_CAP, "exemplars kept per SLO window")?;
        self.ledger.persist(io)?;
        io.vec(&mut self.exemplars, "exemplars", IO::item)?;
        let n = self.exemplars.len();
        io.ensure(n <= EXEMPLAR_CAP, || {
            format!("slo window holds {n} exemplars, cap is {EXEMPLAR_CAP}")
        })
    }
}

impl Persist for RequestJourney {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        io.u64(&mut self.id)?;
        io.u32(&mut self.tenant)?;
        io.u32(&mut self.kernel)?;
        for t in [
            &mut self.arrival,
            &mut self.dispatched,
            &mut self.completed,
            &mut self.deadline,
        ] {
            io.time(t)?;
        }
        let mut tag = self.outcome.tag();
        io.u8(&mut tag)?;
        self.outcome = JourneyOutcome::from_tag(tag)
            .ok_or_else(|| malformed("unknown journey outcome tag"))?;
        Ok(())
    }
}

/// A coalesced dispatch unit: same-kernel requests batched across
/// tenants, executed as one backend call.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    /// Kernel-mix index shared by every request in the batch.
    pub kernel: u32,
    /// The coalesced requests, admission order within each tenant.
    pub requests: Vec<Request>,
}

impl Batch {
    /// Requests in the batch (always >= 1).
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the batch is empty (never, for dispatched batches).
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

/// A deterministic open-loop arrival process: Poisson inter-arrival gaps
/// with mean `1/rate`, optionally modulated by periodic burst windows.
/// Draws are piecewise-exponential — a draw that crosses a phase
/// boundary is re-drawn from the boundary at the new rate — so the
/// process is a pure function of its [`SimRng`] stream.
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    rng: SimRng,
    base_gap_ns: f64,
    burst: f64,
    every: Duration,
    dur: Duration,
    horizon: Time,
    next: Option<Time>,
}

impl ArrivalGen {
    /// The arrival stream of `tenant` under `spec`.
    pub fn new(spec: &ServeSpec, tenant: u32) -> ArrivalGen {
        let mut g = ArrivalGen {
            rng: spec.rng(salt::ARRIVAL, tenant),
            base_gap_ns: 1e9 / spec.rate,
            burst: spec.burst,
            every: spec.burst_every,
            dur: spec.burst_for,
            horizon: Time::ZERO + spec.horizon,
            next: None,
        };
        let first = g.draw_from(Time::ZERO);
        g.next = (first < g.horizon).then_some(first);
        g
    }

    fn modulated(&self) -> bool {
        self.burst > 1.0 && !self.every.is_zero()
    }

    /// Rate multiplier at `t` (inside a burst window or not).
    fn factor_at(&self, t: Time) -> f64 {
        if !self.modulated() {
            return 1.0;
        }
        let phase = t.as_ps() % self.every.as_ps();
        if phase < self.dur.as_ps() {
            self.burst
        } else {
            1.0
        }
    }

    fn draw_from(&mut self, t: Time) -> Time {
        let mut cur = t;
        loop {
            let gap = self
                .rng
                .gen_exp(self.base_gap_ns / self.factor_at(cur))
                .max(1.0);
            let cand = cur + Duration::from_ns_f64(gap);
            if !self.modulated() {
                return cand;
            }
            // piecewise: accept only draws that stay inside the phase
            let phase = cur.as_ps() % self.every.as_ps();
            let boundary_ps = if phase < self.dur.as_ps() {
                cur.as_ps() - phase + self.dur.as_ps()
            } else {
                cur.as_ps() - phase + self.every.as_ps()
            };
            if cand.as_ps() <= boundary_ps {
                return cand;
            }
            cur = Time::from_ps(boundary_ps);
        }
    }

    /// The next arrival, if the stream has not run past its horizon.
    pub fn peek(&self) -> Option<Time> {
        self.next
    }

    /// If the next arrival is at or before `now`, consumes it (drawing
    /// the follow-up; the stream ends at the horizon) and returns its
    /// time. Call in a loop to drain every arrival up to `now`.
    pub fn pop_due(&mut self, now: Time) -> Option<Time> {
        let at = self.next?;
        if at > now {
            return None;
        }
        let next = self.draw_from(at);
        self.next = (next < self.horizon).then_some(next);
        Some(at)
    }
}

/// A fair-share token bucket on simulated time. Capacity 0 disables the
/// bucket (every take succeeds without any float work).
#[derive(Debug, Clone)]
struct TokenBucket {
    level: f64,
    cap: f64,
    refill_per_ns: f64,
    last: Time,
}

impl TokenBucket {
    fn new(spec: &ServeSpec) -> TokenBucket {
        TokenBucket {
            level: spec.tokens,
            cap: spec.tokens,
            refill_per_ns: spec.refill / 1e9,
            last: Time::ZERO,
        }
    }

    fn try_take(&mut self, now: Time) -> bool {
        if self.cap <= 0.0 {
            return true;
        }
        let dt = now.saturating_since(self.last).as_ns_f64();
        self.level = (self.level + dt * self.refill_per_ns).min(self.cap);
        self.last = now;
        if self.level >= 1.0 {
            self.level -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Per-tenant serving state: arrival stream, mix stream, bounded queue,
/// token bucket, and the tenant's lifetime ledger.
#[derive(Debug, Clone)]
struct TenantSlot {
    id: u32,
    gen: ArrivalGen,
    mix_rng: SimRng,
    queue: VecDeque<Request>,
    bucket: TokenBucket,
    ledger: Ledger,
}

impl TenantSlot {
    fn new(spec: &ServeSpec, id: u32) -> TenantSlot {
        TenantSlot {
            id,
            gen: ArrivalGen::new(spec, id),
            mix_rng: spec.rng(salt::MIX, id),
            queue: VecDeque::new(),
            bucket: TokenBucket::new(spec),
            ledger: Ledger::default(),
        }
    }
}

/// The serving plane: workload generation, admission control, batching
/// and SLO accounting for one set of tenants. Backend-agnostic — a
/// driver pulls [`Batch`]es via [`ServePlane::take_batch`], runs them,
/// and reports completions via [`ServePlane::complete_batch`].
#[derive(Debug, Clone)]
pub struct ServePlane {
    spec: ServeSpec,
    mix_len: u32,
    tenants: Vec<TenantSlot>,
    cursor: usize,
    next_id: u64,
    in_flight: u64,
    pressure: bool,
    batches: u64,
    batched_requests: u64,
    batch_size: Histogram,
    slo: SloTracker,
}

impl ServePlane {
    /// A plane serving tenants `0..spec.tenants` drawing kernels from a
    /// mix of `mix_len` entries.
    ///
    /// # Panics
    ///
    /// Panics if `mix_len` is zero.
    pub fn new(spec: &ServeSpec, mix_len: usize) -> ServePlane {
        let ids: Vec<u32> = (0..spec.tenants as u32).collect();
        ServePlane::for_tenants(spec, mix_len, &ids)
    }

    /// A plane serving an explicit tenant subset (global ids), used when
    /// tenants are partitioned across serving cells. Streams are salted
    /// by global id, so a tenant's traffic is identical regardless of
    /// which cell hosts it.
    ///
    /// # Panics
    ///
    /// Panics if `mix_len` or `ids` is empty.
    pub fn for_tenants(spec: &ServeSpec, mix_len: usize, ids: &[u32]) -> ServePlane {
        assert!(mix_len > 0, "serving needs a non-empty kernel mix");
        assert!(!ids.is_empty(), "serving needs at least one tenant");
        ServePlane {
            spec: spec.clone(),
            mix_len: mix_len as u32,
            tenants: ids.iter().map(|&t| TenantSlot::new(spec, t)).collect(),
            cursor: 0,
            next_id: 0,
            in_flight: 0,
            pressure: false,
            batches: 0,
            batched_requests: 0,
            batch_size: Histogram::new(),
            slo: SloTracker::default(),
        }
    }

    /// The spec this plane serves.
    pub fn spec(&self) -> &ServeSpec {
        &self.spec
    }

    /// Effective per-tenant queue bound: halved (floor 1) under
    /// resilience pressure, so a degraded system sheds earlier instead
    /// of building deeper backlogs.
    fn effective_queue(&self) -> usize {
        if self.pressure {
            (self.spec.queue / 2).max(1)
        } else {
            self.spec.queue
        }
    }

    /// Feeds the resilience signal into admission: under pressure the
    /// queue bound halves. Degradation sheds load; it never stalls.
    pub fn set_pressure(&mut self, pressure: bool) {
        self.pressure = pressure;
    }

    /// Whether admission is currently under resilience pressure.
    pub fn pressure(&self) -> bool {
        self.pressure
    }

    /// Generates and admits every arrival at or before `now`. Admission
    /// is per-tenant (token bucket, then queue bound), each decision
    /// made at the request's own arrival instant. Every submission —
    /// shed or admitted — consumes an id, so shed journeys are nameable
    /// in flight-recorder exemplars.
    pub fn pop_arrivals(&mut self, now: Time) {
        let cap = self.effective_queue();
        for i in 0..self.tenants.len() {
            while let Some(at) = self.tenants[i].gen.pop_due(now) {
                let rid = self.next_id;
                self.next_id += 1;
                let slot = &mut self.tenants[i];
                let deadline = at + self.spec.deadline;
                let shed = if !slot.bucket.try_take(at) {
                    Some(JourneyOutcome::ShedThrottle)
                } else if slot.queue.len() >= cap {
                    Some(JourneyOutcome::ShedQueue)
                } else {
                    None
                };
                if let Some(outcome) = shed {
                    let tenant = slot.id;
                    self.account(
                        i,
                        Some(RequestJourney {
                            id: rid,
                            tenant,
                            kernel: 0,
                            arrival: at,
                            dispatched: at,
                            completed: at,
                            deadline,
                            outcome,
                        }),
                    );
                    continue;
                }
                let kernel = slot.mix_rng.gen_range_u64(0, self.mix_len as u64) as u32;
                slot.queue.push_back(Request {
                    id: rid,
                    tenant: slot.id,
                    kernel,
                    arrival: at,
                    dispatched: Time::ZERO,
                    deadline,
                });
                self.account(i, None);
            }
        }
    }

    /// Books a request in its tenant's lifetime ledger and in the SLO
    /// window's: its admission when `end` is `None`, else its terminal
    /// journey. Every arrival, shed, completion and failure is counted
    /// here and nowhere else, so the two ledgers move together.
    fn account(&mut self, slot: usize, end: Option<RequestJourney>) {
        let ledger = &mut self.tenants[slot].ledger;
        match end {
            None => {
                ledger.admit();
                self.slo.ledger.admit();
            }
            Some(j) => {
                ledger.record(&j);
                self.slo.record(j);
            }
        }
    }

    /// The earliest future arrival across tenants, if any remain.
    pub fn next_arrival(&self) -> Option<Time> {
        self.tenants.iter().filter_map(|t| t.gen.peek()).min()
    }

    /// Total requests currently queued across tenants.
    pub fn queued(&self) -> usize {
        self.tenants.iter().map(|t| t.queue.len()).sum()
    }

    /// Arrival time of the oldest queued request, if any.
    pub fn oldest_head(&self) -> Option<Time> {
        self.tenants
            .iter()
            .filter_map(|t| t.queue.front().map(|r| r.arrival))
            .min()
    }

    /// The earliest time a dispatch is allowed: immediately once a full
    /// batch has accumulated, otherwise when the oldest queued request
    /// exhausts the latency budget. `None` when nothing is queued.
    pub fn ripe_at(&self, now: Time) -> Option<Time> {
        if self.queued() == 0 {
            return None;
        }
        if self.queued() >= self.spec.batch {
            return Some(now);
        }
        Some(self.oldest_head().expect("queued > 0") + self.spec.batch_wait)
    }

    /// Whether a batch may dispatch right now.
    pub fn dispatch_ready(&self, now: Time) -> bool {
        self.ripe_at(now).is_some_and(|t| t <= now)
    }

    /// Takes the next batch: starting from a rotating tenant cursor
    /// (round-robin fairness), picks the first non-empty queue's head
    /// kernel, then coalesces head-of-line requests of that same kernel
    /// across tenants up to the batch bound. Returns `None` when nothing
    /// is queued.
    pub fn take_batch(&mut self, now: Time) -> Option<Batch> {
        let n = self.tenants.len();
        let start = (0..n)
            .map(|i| (self.cursor + i) % n)
            .find(|&i| !self.tenants[i].queue.is_empty())?;
        let kernel = self.tenants[start].queue.front().expect("non-empty").kernel;
        let mut requests = Vec::new();
        for off in 0..n {
            let i = (start + off) % n;
            while requests.len() < self.spec.batch {
                match self.tenants[i].queue.front() {
                    Some(r) if r.kernel == kernel => {
                        let mut r = self.tenants[i].queue.pop_front().expect("front");
                        r.dispatched = now;
                        requests.push(r);
                    }
                    _ => break,
                }
            }
            if requests.len() >= self.spec.batch {
                break;
            }
        }
        self.cursor = (start + 1) % n;
        self.in_flight += requests.len() as u64;
        self.batches += 1;
        self.batched_requests += requests.len() as u64;
        self.batch_size.record(requests.len() as u64);
        Some(Batch { kernel, requests })
    }

    /// Records a batch's completion at `completed_at`: per-request
    /// latency into the tenant histograms, deadline-miss vs goodput, and
    /// the in-flight ledger.
    pub fn complete_batch(&mut self, batch: &Batch, completed_at: Time) {
        self.settle(batch, completed_at, |r| {
            if completed_at <= r.deadline {
                JourneyOutcome::Completed
            } else {
                JourneyOutcome::DeadlineMiss
            }
        });
    }

    /// Records a batch whose backend call failed at `failed_at`. The
    /// requests stay accounted (failed, not lost) and leave the
    /// in-flight ledger.
    pub fn fail_batch(&mut self, batch: &Batch, failed_at: Time) {
        self.settle(batch, failed_at, |_| JourneyOutcome::Failed);
    }

    /// Ends every request of a dispatched batch at `at` with the outcome
    /// `outcome` gives it.
    fn settle(&mut self, batch: &Batch, at: Time, outcome: impl Fn(&Request) -> JourneyOutcome) {
        for r in &batch.requests {
            let slot = self
                .tenants
                .iter()
                .position(|t| t.id == r.tenant)
                .expect("request belongs to a hosted tenant");
            self.account(
                slot,
                Some(RequestJourney {
                    id: r.id,
                    tenant: r.tenant,
                    kernel: r.kernel,
                    arrival: r.arrival,
                    dispatched: r.dispatched,
                    completed: at,
                    deadline: r.deadline,
                    outcome: outcome(r),
                }),
            );
        }
        self.in_flight -= batch.requests.len() as u64;
    }

    /// Drains the current SLO window into the telemetry plane: counter
    /// deltas and the windowed latency histogram into `ts`, queue-depth
    /// and in-flight gauges, exemplar journeys into the flight ring,
    /// then the trigger checks (window p99 over the SLO deadline fires
    /// `slo_breach`; queue sheds fire `queue_saturation`) and the window
    /// roll itself. Call once per cadence tick and once at drain — this
    /// is the ServePlane half of the drive-loop telemetry contract; the
    /// driver adds its own CheckPlane/resilience triggers.
    pub fn telemetry_tick(&mut self, now: Time, ts: &mut TimeSeries, fr: &mut FlightRecorder) {
        let (w, exemplars) = self.slo.take_window();
        for (name, n) in w.counters() {
            ts.incr(name, n);
        }
        ts.merge_hist(LATENCY_NS, &w.latency_ns);
        ts.set_gauge("serve.queue_depth", self.queued() as u64);
        ts.set_gauge("serve.in_flight", self.in_flight);
        let window = ts.window_index(now);
        for j in &exemplars {
            fr.note(j.completed, "exemplar", || j.describe());
        }
        let deadline_ns = self.spec.deadline.as_ns();
        if w.latency_ns.count() > 0 {
            let p99 = w.latency_ns.percentile(99.0);
            if p99 > deadline_ns {
                fr.trigger(now, window, TriggerKind::SloBreach, || {
                    format!(
                        "window p99 {p99}ns exceeds deadline {deadline_ns}ns \
                         ({} completions, {} misses)",
                        w.completed, w.deadline_miss
                    )
                });
            }
        }
        if w.shed_queue > 0 {
            fr.trigger(now, window, TriggerKind::QueueSaturation, || {
                format!(
                    "{} requests shed on saturated queues this window",
                    w.shed_queue
                )
            });
        }
        ts.advance(now);
    }

    /// Whether the plane is fully drained: no future arrivals, empty
    /// queues, nothing in flight.
    pub fn drained(&self) -> bool {
        self.next_arrival().is_none() && self.queued() == 0 && self.in_flight == 0
    }

    /// Requests currently in flight (dispatched, not yet completed).
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// ServePlane invariants: request conservation (`submitted =
    /// admitted + shed`, `admitted = queued + in-flight + completed +
    /// failed`) and the queue bound. Call at every cadence tick and at
    /// drain.
    pub fn check_invariants(&self, cp: &mut CheckPlane) {
        if !cp.is_enabled() {
            return;
        }
        let total = self.total();
        let (submitted, admitted, shed) = (total.submitted, total.admitted, total.shed());
        let (completed, failed) = (total.completed, total.failed);
        let queued = self.queued() as u64;
        cp.check(
            invariant::SERVE_REQUEST_CONSERVED,
            submitted == admitted + shed,
            || format!("submitted {submitted} != admitted {admitted} + shed {shed}"),
        );
        cp.check(
            invariant::SERVE_REQUEST_CONSERVED,
            admitted == queued + self.in_flight + completed + failed,
            || {
                format!(
                    "admitted {admitted} != queued {queued} + in-flight {} + completed \
                     {completed} + failed {failed}",
                    self.in_flight
                )
            },
        );
        for t in &self.tenants {
            cp.check(
                invariant::SERVE_QUEUE_BOUNDED,
                t.queue.len() <= self.spec.queue,
                || {
                    format!(
                        "tenant {} queue depth {} exceeds bound {}",
                        t.id,
                        t.queue.len(),
                        self.spec.queue
                    )
                },
            );
        }
    }

    /// Exports the plane's instruments under `serve.*`. Deterministic:
    /// pure functions of the spec and the driver's dispatch schedule.
    pub fn export_metrics(&self, m: &mut MetricsRegistry) {
        let total = self.total();
        for (name, n) in total.counters() {
            m.add(name, n);
        }
        m.add("serve.batches", self.batches);
        m.add("serve.batched_requests", self.batched_requests);
        m.merge_hist("serve.batch_size", &self.batch_size);
        m.merge_hist(LATENCY_NS, &total.latency_ns);
    }

    /// Every hosted tenant's ledger, merged.
    fn total(&self) -> Ledger {
        let mut total = Ledger::default();
        for t in &self.tenants {
            total.merge(&t.ledger);
        }
        total
    }

    /// Snapshots the tenants' ledgers as a [`ServingReport`].
    pub fn report(&self) -> ServingReport {
        ServingReport {
            horizon: self.spec.horizon,
            batches: self.batches,
            batched_requests: self.batched_requests,
            latency: self.total().latency_ns,
            tenants: self
                .tenants
                .iter()
                .map(|t| TenantReport {
                    tenant: t.id,
                    ledger: t.ledger.clone(),
                })
                .collect(),
        }
    }
}

/// Dispatcher scalars, then every tenant's arrival/mix RNG streams,
/// queue contents, token bucket, and ledgers, in hosted order. The spec
/// and tenant ids are structural: load onto a plane built with
/// [`ServePlane::for_tenants`] over the same spec and ids (the system
/// snapshot embeds the spec string for exactly that). A load refuses
/// another mix length or tenant set, an out-of-range kernel index, a
/// queued request violating FIFO arrival order, or an SLO window
/// keeping another number of exemplars than this build.
impl Persist for ServePlane {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        io.expect(self.mix_len, "kernel mix length")?;
        io.usize(&mut self.cursor)?;
        let (cursor, tenants) = (self.cursor, self.tenants.len());
        io.ensure(cursor < tenants, || {
            format!("dispatch cursor {cursor} out of range for {tenants} tenants")
        })?;
        io.u64(&mut self.next_id)?;
        io.u64(&mut self.in_flight)?;
        io.bool(&mut self.pressure)?;
        io.u64(&mut self.batches)?;
        io.u64(&mut self.batched_requests)?;
        self.batch_size.persist(io)?;
        self.slo.persist(io)?;
        io.expect(tenants, "tenant count")?;
        let (next_id, mix_len) = (self.next_id, self.mix_len);
        for t in &mut self.tenants {
            io.expect(t.id, "tenant id")?;
            t.gen.rng.persist(io)?;
            t.gen.next.persist(io)?;
            t.mix_rng.persist(io)?;
            let id = t.id;
            let mut prev: Option<(Time, u64)> = None;
            io.vec(&mut t.queue, "queued requests", |io, q| {
                q.tenant = id;
                io.u64(&mut q.id)?;
                let rid = q.id;
                io.ensure(rid < next_id, || {
                    format!("queued request {rid} at/above the id counter {next_id}")
                })?;
                io.u32(&mut q.kernel)?;
                let kernel = q.kernel;
                io.ensure(kernel < mix_len, || {
                    format!("queued request {rid} draws kernel {kernel} of a {mix_len}-kernel mix")
                })?;
                io.time(&mut q.arrival)?;
                let here = (q.arrival, rid);
                io.ensure(prev.is_none_or(|p| p <= here), || {
                    format!("tenant {id} queue breaks FIFO order at request {rid}")
                })?;
                prev = Some(here);
                io.time(&mut q.deadline)
            })?;
            io.f64(&mut t.bucket.level)?;
            io.time(&mut t.bucket.last)?;
            t.ledger.persist(io)?;
        }
        Ok(())
    }
}

/// One tenant's lifetime serving ledger inside a [`ServingReport`]; its
/// counts are exported by [`ServingReport::to_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Global tenant id.
    pub tenant: u32,
    ledger: Ledger,
}

/// The deterministic serving section of a system report: aggregate and
/// per-tenant SLO accounting for one run. Mergeable across serving
/// cells (disjoint tenant sets).
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// The open-loop horizon the run offered load for.
    pub horizon: Duration,
    /// Batches dispatched.
    pub batches: u64,
    /// Requests across all dispatched batches.
    pub batched_requests: u64,
    /// Aggregate completion-latency histogram (all tenants).
    pub latency: Histogram,
    /// Per-tenant ledgers, sorted by tenant id.
    pub tenants: Vec<TenantReport>,
}

impl ServingReport {
    fn sum(&self, f: fn(&Ledger) -> u64) -> u64 {
        self.tenants.iter().map(|t| f(&t.ledger)).sum()
    }

    /// Requests generated across all tenants.
    pub fn submitted(&self) -> u64 {
        self.sum(|t| t.submitted)
    }

    /// Requests admitted across all tenants.
    pub fn admitted(&self) -> u64 {
        self.sum(|t| t.admitted)
    }

    /// Requests completed across all tenants.
    pub fn completed(&self) -> u64 {
        self.sum(|t| t.completed)
    }

    /// Requests shed across all tenants (queue + throttle).
    pub fn shed(&self) -> u64 {
        self.sum(Ledger::shed)
    }

    /// Requests failed across all tenants.
    pub fn failed(&self) -> u64 {
        self.sum(|t| t.failed)
    }

    /// Completions within deadline across all tenants.
    pub fn goodput(&self) -> u64 {
        self.sum(|t| t.goodput)
    }

    /// Deadline misses across all tenants.
    pub fn deadline_miss(&self) -> u64 {
        self.sum(|t| t.deadline_miss)
    }

    /// Goodput rate over the horizon, requests/second.
    pub fn goodput_per_sec(&self) -> f64 {
        self.goodput() as f64 / self.horizon.as_ns_f64() * 1e9
    }

    /// Shed fraction of submitted load (0 when nothing was submitted).
    pub fn shed_rate(&self) -> f64 {
        let submitted = self.submitted();
        if submitted == 0 {
            0.0
        } else {
            self.shed() as f64 / submitted as f64
        }
    }

    /// Mean requests per dispatched batch.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batches as f64
        }
    }

    /// Request conservation at drain: every submitted request is
    /// accounted exactly once (nothing lost).
    pub fn conserved(&self) -> bool {
        self.submitted() == self.admitted() + self.shed()
            && self.admitted() == self.completed() + self.failed()
    }

    /// Folds another cell's report (disjoint tenant set) into this one.
    pub fn merge(&mut self, other: &ServingReport) {
        self.batches += other.batches;
        self.batched_requests += other.batched_requests;
        self.latency.merge(&other.latency);
        self.tenants.extend(other.tenants.iter().cloned());
        self.tenants.sort_by_key(|t| t.tenant);
    }

    /// Renders the report as a JSON object. Deterministic: fixed key
    /// order, tenants sorted by id; the golden schema test under
    /// `tests/golden/` pins this shape.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\"horizon_ns\":");
        json::fmt_f64(&mut out, self.horizon.as_ns_f64());
        out.push_str(",\"submitted\":");
        out.push_str(&self.submitted().to_string());
        out.push_str(",\"admitted\":");
        out.push_str(&self.admitted().to_string());
        out.push_str(",\"completed\":");
        out.push_str(&self.completed().to_string());
        out.push_str(",\"shed\":");
        out.push_str(&self.shed().to_string());
        out.push_str(",\"failed\":");
        out.push_str(&self.failed().to_string());
        out.push_str(",\"deadline_miss\":");
        out.push_str(&self.deadline_miss().to_string());
        out.push_str(",\"goodput\":");
        out.push_str(&self.goodput().to_string());
        out.push_str(",\"goodput_per_sec\":");
        json::fmt_f64(&mut out, self.goodput_per_sec());
        out.push_str(",\"shed_rate\":");
        json::fmt_f64(&mut out, self.shed_rate());
        out.push_str(",\"batches\":");
        out.push_str(&self.batches.to_string());
        out.push_str(",\"mean_batch\":");
        json::fmt_f64(&mut out, self.mean_batch());
        out.push_str(",\"p50_ns\":");
        out.push_str(&self.latency.percentile(50.0).to_string());
        out.push_str(",\"p99_ns\":");
        out.push_str(&self.latency.percentile(99.0).to_string());
        out.push_str(",\"conserved\":");
        out.push_str(if self.conserved() { "true" } else { "false" });
        out.push_str(",\"tenants\":[");
        for (i, t) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"tenant\":");
            out.push_str(&t.tenant.to_string());
            for (name, n) in t.ledger.counters() {
                out.push_str(",\"");
                out.push_str(name.trim_start_matches("serve."));
                out.push_str("\":");
                out.push_str(&n.to_string());
            }
            let latency = &t.ledger.latency_ns;
            out.push_str(",\"p50_ns\":");
            out.push_str(&latency.percentile(50.0).to_string());
            out.push_str(",\"p99_ns\":");
            out.push_str(&latency.percentile(99.0).to_string());
            out.push_str(",\"mean_ns\":");
            json::fmt_f64(&mut out, latency.mean());
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Renders the per-tenant SLO table.
    pub fn to_table(&self) -> ecoscale_sim::report::Table {
        let mut t = ecoscale_sim::report::Table::new(
            "serving",
            &[
                "tenant",
                "submitted",
                "admitted",
                "completed",
                "shed",
                "miss",
                "goodput",
                "p50",
                "p99",
            ],
        );
        for r in &self.tenants {
            let l = &r.ledger;
            t.row_owned(vec![
                r.tenant.to_string(),
                l.submitted.to_string(),
                l.admitted.to_string(),
                l.completed.to_string(),
                l.shed().to_string(),
                l.deadline_miss.to_string(),
                l.goodput.to_string(),
                Duration::from_ns(l.latency_ns.percentile(50.0)).to_string(),
                Duration::from_ns(l.latency_ns.percentile(99.0)).to_string(),
            ]);
        }
        t.row_owned(vec![
            "all".to_string(),
            self.submitted().to_string(),
            self.admitted().to_string(),
            self.completed().to_string(),
            self.shed().to_string(),
            self.deadline_miss().to_string(),
            self.goodput().to_string(),
            Duration::from_ns(self.latency.percentile(50.0)).to_string(),
            Duration::from_ns(self.latency.percentile(99.0)).to_string(),
        ]);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive_to_drain(plane: &mut ServePlane, service: Duration) -> Time {
        // a one-lane synthetic backend: fixed service time per batch
        let mut now = Time::ZERO;
        let mut lane_free = Time::ZERO;
        let mut inflight: Vec<(Time, Batch)> = Vec::new();
        loop {
            inflight.retain(|(t, b)| {
                if *t <= now {
                    // completions retire in the retain order they were
                    // pushed, which is dispatch order — deterministic
                    plane_complete(plane, b, *t);
                    false
                } else {
                    true
                }
            });
            plane.pop_arrivals(now);
            while lane_free <= now && plane.dispatch_ready(now) {
                let batch = plane.take_batch(now).expect("ready implies queued");
                lane_free = now + plane.spec().overhead + service;
                inflight.push((lane_free, batch));
            }
            let mut next: Option<Time> = None;
            let mut fold = |t: Time| next = Some(next.map_or(t, |n: Time| n.min(t)));
            if let Some(a) = plane.next_arrival() {
                fold(a);
            }
            for (t, _) in &inflight {
                fold(*t);
            }
            if plane.queued() > 0 {
                let ripe = plane.ripe_at(now).expect("queued");
                fold(ripe.max(lane_free).max(Time::from_ps(now.as_ps() + 1)));
            }
            match next {
                Some(t) if t > now => now = t,
                Some(t) => now = Time::from_ps(t.as_ps().max(now.as_ps() + 1)),
                None => break,
            }
        }
        assert!(plane.drained());
        now
    }

    fn plane_complete(plane: &mut ServePlane, b: &Batch, at: Time) {
        plane.complete_batch(b, at);
    }

    #[test]
    fn spec_round_trips_and_base_is_default() {
        let spec = ServeSpec::base();
        assert_eq!(spec, ServeSpec::default());
        let again = ServeSpec::parse(&spec.to_string()).unwrap();
        assert_eq!(spec, again);

        let text = "seed=9,tenants=6,horizon=1ms,rate=50000,burst=4,burst_every=200us,\
                    burst_for=50us,queue=32,tokens=16,refill=40000,batch=4,batch_wait=10us,\
                    deadline=100us,overhead=2us";
        let spec = ServeSpec::parse(text).unwrap();
        assert_eq!(spec.tenants, 6);
        assert_eq!(spec.burst, 4.0);
        assert_eq!(spec.queue, 32);
        let again = ServeSpec::parse(&spec.to_string()).unwrap();
        assert_eq!(spec, again);
    }

    #[test]
    fn spec_rejects_garbage() {
        assert!(ServeSpec::parse("bogus=1").is_err());
        assert!(ServeSpec::parse("rate").is_err());
        assert!(ServeSpec::parse("rate=0").is_err());
        assert!(ServeSpec::parse("tenants=0").is_err());
        assert!(ServeSpec::parse("queue=0").is_err());
        assert!(ServeSpec::parse("batch=0").is_err());
        assert!(ServeSpec::parse("burst=0.5").is_err());
        assert!(ServeSpec::parse("horizon=fast").is_err());
        let err = ServeSpec::parse("deadline=nope").unwrap_err();
        assert!(err.to_string().contains("deadline=nope"));
    }

    #[test]
    fn batching_off_only_touches_the_batch_policy() {
        let spec = ServeSpec::base();
        let off = spec.batching_off();
        assert_eq!(off.batch, 1);
        assert_eq!(off.batch_wait, Duration::ZERO);
        assert_eq!(off.rate, spec.rate);
        assert_eq!(off.seed, spec.seed);
        assert!((off.offered_per_sec() - spec.offered_per_sec()).abs() < 1e-9);
    }

    #[test]
    fn arrivals_are_deterministic_and_respect_horizon() {
        let spec = ServeSpec::parse("seed=3,rate=100000,horizon=1ms").unwrap();
        let mut a = ArrivalGen::new(&spec, 0);
        let mut b = ArrivalGen::new(&spec, 0);
        let horizon = Time::ZERO + spec.horizon;
        let mut n = 0;
        let mut last = Time::ZERO;
        while let Some(t) = a.pop_due(Time::MAX) {
            assert_eq!(Some(t), b.pop_due(Time::MAX));
            assert!(t >= last && t < horizon);
            last = t;
            n += 1;
        }
        // 100k/s over 1ms => ~100 arrivals
        assert!(n > 50 && n < 200, "{n}");
        // a different tenant draws a different stream
        let mut c = ArrivalGen::new(&spec, 1);
        assert_ne!(
            c.pop_due(Time::MAX),
            ArrivalGen::new(&spec, 0).pop_due(Time::MAX)
        );
    }

    #[test]
    fn bursts_concentrate_arrivals_inside_windows() {
        let spec = ServeSpec::parse(
            "seed=5,rate=100000,horizon=4ms,burst=8,burst_every=1ms,burst_for=100us",
        )
        .unwrap();
        let mut g = ArrivalGen::new(&spec, 0);
        let (mut inside, mut outside) = (0u64, 0u64);
        while let Some(t) = g.pop_due(Time::MAX) {
            if t.as_ps() % spec.burst_every.as_ps() < spec.burst_for.as_ps() {
                inside += 1;
            } else {
                outside += 1;
            }
        }
        // burst windows are 10% of the time but 8x the rate: roughly
        // 8:9 of the arrivals land inside
        assert!(inside > outside / 3, "inside={inside} outside={outside}");
        assert!(inside + outside > 100);
    }

    #[test]
    fn token_bucket_throttles_only_the_heavy_tenant() {
        // tenant budget (refill 30k/s) is well under the offered rate
        // (200k/s): most of the heavy load throttles
        let spec =
            ServeSpec::parse("seed=7,tenants=2,rate=200000,horizon=2ms,tokens=8,refill=30000")
                .unwrap();
        let mut plane = ServePlane::new(&spec, 1);
        plane.pop_arrivals(Time::MAX);
        let r = plane.report();
        let heavy_shed: u64 = r.tenants.iter().map(|t| t.ledger.shed_throttle).sum();
        assert!(heavy_shed > 0, "refill below offered rate must throttle");
        // an unthrottled spec never sheds on the bucket
        let free = ServeSpec::parse("seed=7,tenants=2,rate=200000,horizon=2ms").unwrap();
        let mut plane = ServePlane::new(&free, 1);
        plane.pop_arrivals(Time::MAX);
        assert_eq!(
            plane
                .report()
                .tenants
                .iter()
                .map(|t| t.ledger.shed_throttle)
                .sum::<u64>(),
            0
        );
    }

    #[test]
    fn full_queue_sheds_and_stays_bounded() {
        let spec = ServeSpec::parse("seed=11,tenants=1,rate=500000,horizon=2ms,queue=4").unwrap();
        let mut plane = ServePlane::new(&spec, 2);
        let mut cp = CheckPlane::enabled(1);
        plane.pop_arrivals(Time::MAX);
        plane.check_invariants(&mut cp);
        assert!(cp.ok(), "{:?}", cp.first());
        assert!(plane.queued() <= 4);
        let r = plane.report();
        assert!(r.tenants[0].ledger.shed_queue > 0, "overload must shed");
        assert_eq!(r.submitted(), r.admitted() + r.shed());
    }

    #[test]
    fn pressure_halves_the_queue_bound() {
        let spec = ServeSpec::parse("seed=11,tenants=1,rate=500000,horizon=2ms,queue=8").unwrap();
        let mut plane = ServePlane::new(&spec, 1);
        plane.set_pressure(true);
        assert!(plane.pressure());
        plane.pop_arrivals(Time::MAX);
        assert!(plane.queued() <= 4, "pressure halves the bound");
        let mut cp = CheckPlane::enabled(1);
        plane.check_invariants(&mut cp);
        assert!(cp.ok(), "{:?}", cp.first());
    }

    #[test]
    fn batches_coalesce_one_kernel_across_tenants() {
        let spec = ServeSpec::parse("seed=13,tenants=4,rate=400000,horizon=1ms,batch=6").unwrap();
        let mut plane = ServePlane::new(&spec, 3);
        plane.pop_arrivals(Time::MAX);
        let mut seen_multi_tenant = false;
        while let Some(b) = plane.take_batch(Time::MAX) {
            assert!(!b.is_empty() && b.len() <= 6);
            assert!(b.requests.iter().all(|r| r.kernel == b.kernel));
            let first = b.requests[0].tenant;
            if b.requests.iter().any(|r| r.tenant != first) {
                seen_multi_tenant = true;
            }
            plane.complete_batch(&b, Time::MAX);
        }
        assert!(seen_multi_tenant, "coalescing must cross tenants");
        assert!(plane.drained());
        let r = plane.report();
        assert!(r.mean_batch() > 1.0, "batching must actually batch");
        assert!(r.conserved());
    }

    #[test]
    fn synthetic_drive_conserves_and_reports() {
        let spec =
            ServeSpec::parse("seed=17,tenants=3,rate=150000,horizon=1ms,batch=4,deadline=50us")
                .unwrap();
        let mut plane = ServePlane::new(&spec, 2);
        drive_to_drain(&mut plane, Duration::from_us(2));
        let mut cp = CheckPlane::enabled(1);
        plane.check_invariants(&mut cp);
        assert!(cp.ok(), "{:?}", cp.first());
        let r = plane.report();
        assert!(r.conserved(), "drained plane conserves requests");
        assert!(r.completed() > 0);
        assert_eq!(r.completed(), r.goodput() + r.deadline_miss());
        assert!(r.latency.count() == r.completed());
        // JSON parses and carries the aggregates
        let parsed = json::parse(&r.to_json()).unwrap();
        assert_eq!(
            parsed.get("completed").and_then(|v| v.as_f64()),
            Some(r.completed() as f64)
        );
        assert_eq!(parsed.get("conserved"), Some(&json::Value::Bool(true)));
        assert_eq!(
            parsed
                .get("tenants")
                .and_then(|v| v.as_arr())
                .map(|a| a.len()),
            Some(3)
        );
        assert!(r.to_table().to_string().contains("tenant"));
    }

    #[test]
    fn failed_batches_stay_accounted() {
        let spec = ServeSpec::parse("seed=19,tenants=1,rate=100000,horizon=1ms").unwrap();
        let mut plane = ServePlane::new(&spec, 1);
        plane.pop_arrivals(Time::MAX);
        let b = plane.take_batch(Time::MAX).unwrap();
        plane.fail_batch(&b, Time::MAX);
        while let Some(b) = plane.take_batch(Time::MAX) {
            plane.complete_batch(&b, Time::MAX);
        }
        let r = plane.report();
        assert!(r.failed() > 0);
        assert!(r.conserved(), "failed is accounted, not lost");
    }

    #[test]
    fn report_merge_keeps_disjoint_tenants_sorted() {
        let spec = ServeSpec::parse("seed=23,tenants=4,rate=100000,horizon=1ms").unwrap();
        let mut even = ServePlane::for_tenants(&spec, 1, &[0, 2]);
        let mut odd = ServePlane::for_tenants(&spec, 1, &[1, 3]);
        even.pop_arrivals(Time::MAX);
        odd.pop_arrivals(Time::MAX);
        let mut merged = even.report();
        merged.merge(&odd.report());
        let ids: Vec<u32> = merged.tenants.iter().map(|t| t.tenant).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(
            merged.submitted(),
            even.report().submitted() + odd.report().submitted()
        );
        // a tenant's stream is a function of its global id, not its cell
        let whole = ServePlane::new(&spec, 1);
        let mut whole = whole;
        whole.pop_arrivals(Time::MAX);
        assert_eq!(whole.report().submitted(), merged.submitted());
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        let spec = ServeSpec::parse(
            "seed=31,tenants=3,rate=200000,horizon=1ms,batch=4,tokens=32,refill=150000",
        )
        .unwrap();
        // run the plane mid-way: arrivals to 400us, one batch in flight
        let mid = Time::from_us(400);
        let build = || {
            let mut p = ServePlane::new(&spec, 2);
            p.pop_arrivals(mid);
            p.set_pressure(true);
            let b = p.take_batch(mid).expect("queued");
            p.complete_batch(&b, mid + Duration::from_us(20));
            let b = p.take_batch(mid).expect("queued");
            (p, b)
        };
        let (mut orig, pending) = build();

        let mut w = ecoscale_sim::SnapWriter::new();
        w.save(&mut orig);
        let bytes = w.into_bytes();

        let mut fresh = ServePlane::new(&spec, 2);
        let mut r = ecoscale_sim::SnapReader::new(&bytes);
        fresh.persist(&mut r).expect("restore");
        assert!(r.is_exhausted());
        let mut w2 = ecoscale_sim::SnapWriter::new();
        w2.save(&mut fresh);
        assert_eq!(
            bytes,
            w2.into_bytes(),
            "restored plane re-serializes differently"
        );
        assert_eq!(fresh.in_flight(), orig.in_flight());
        assert!(fresh.pressure());

        // drive both continuations identically (the in-flight batch is
        // the driver's to re-report; completions cross the snapshot)
        let (mut cont, pending2) = (orig, pending);
        cont.complete_batch(&pending2, mid + Duration::from_us(40));
        fresh.complete_batch(&pending2, mid + Duration::from_us(40));
        for p in [&mut cont, &mut fresh] {
            p.pop_arrivals(Time::MAX);
            while let Some(b) = p.take_batch(Time::MAX) {
                p.complete_batch(&b, Time::MAX);
            }
        }
        assert!(cont.drained() && fresh.drained());
        assert_eq!(cont.report(), fresh.report());
        let mut cp = CheckPlane::enabled(1);
        fresh.check_invariants(&mut cp);
        assert!(cp.ok(), "{:?}", cp.first());
    }

    #[test]
    fn restore_rejects_shape_mismatch_and_truncation() {
        let spec = ServeSpec::parse("seed=31,tenants=3,rate=200000,horizon=1ms").unwrap();
        let mut orig = ServePlane::new(&spec, 2);
        orig.pop_arrivals(Time::from_us(500));
        let mut w = ecoscale_sim::SnapWriter::new();
        w.save(&mut orig);
        let bytes = w.into_bytes();

        // wrong mix length
        let mut r = ecoscale_sim::SnapReader::new(&bytes);
        assert!(ServePlane::new(&spec, 3).persist(&mut r).is_err());
        // wrong tenant set
        let mut r = ecoscale_sim::SnapReader::new(&bytes);
        assert!(ServePlane::for_tenants(&spec, 2, &[0, 1, 5])
            .persist(&mut r)
            .is_err());

        for cut in 0..bytes.len() {
            let mut p = ServePlane::new(&spec, 2);
            let mut r = ecoscale_sim::SnapReader::new(&bytes[..cut]);
            assert!(
                p.persist(&mut r).is_err() || !r.is_exhausted(),
                "truncated stream at {cut} restored fully"
            );
        }
    }

    #[test]
    fn slo_window_refuses_a_foreign_exemplar_cap() {
        let mut w = ecoscale_sim::SnapWriter::new();
        w.save(&mut SloTracker::default());
        let mut bytes = w.into_bytes();
        let load = |b: &[u8]| ecoscale_sim::SnapReader::new(b).load(SloTracker::default());
        assert!(load(&bytes).is_ok());
        bytes[..8].copy_from_slice(&(EXEMPLAR_CAP as u64 + 1).to_le_bytes());
        match load(&bytes) {
            Err(RestoreError::Malformed { context }) => assert!(context.contains("exemplars")),
            other => panic!("a foreign exemplar cap gave {other:?}"),
        }
    }

    #[test]
    fn metrics_export_is_complete() {
        let spec = ServeSpec::parse("seed=29,tenants=2,rate=100000,horizon=1ms").unwrap();
        let mut plane = ServePlane::new(&spec, 1);
        drive_to_drain(&mut plane, Duration::from_us(1));
        let mut m = MetricsRegistry::new();
        plane.export_metrics(&mut m);
        let r = plane.report();
        assert_eq!(m.counter("serve.submitted"), Some(r.submitted()));
        assert_eq!(m.counter("serve.completed"), Some(r.completed()));
        assert_eq!(m.counter("serve.batches"), Some(r.batches));
        assert!(m.get("serve.latency_ns").is_some());
    }
}
