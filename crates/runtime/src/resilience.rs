//! Recovery policy for the FaultPlane: bounded retry, software fallback,
//! reconfig-repair, and quarantine.
//!
//! The injection hooks live with the components they fault (NoC links,
//! SMMU, DRAM ECC, fabric SEUs, workers); this module owns what the
//! runtime *does* about a fault:
//!
//! * [`RetryPolicy`] / [`Backoff`] — bounded retry with exponential
//!   backoff. This generalizes the probe backoff the lazy scheduler has
//!   always used (`sched.rs`): with `base = probe_latency × 8` and
//!   `cap = probe_latency × 32` the delay sequence is bit-identical to
//!   the hand-rolled `(backoff + 1).min(3)` shift ladder.
//! * [`ResilienceConfig`] — which recovery mechanisms are armed,
//! * [`ResilienceManager`] — strike counting, quarantine of persistently
//!   failing domains, and the fault/recovery instruments (MTTF,
//!   recovery-latency histogram, per-mechanism counters) exported
//!   through the metrics layer.

use std::collections::{BTreeMap, BTreeSet};

use ecoscale_sim::snap::malformed;
use ecoscale_sim::{
    Counter, Duration, Histogram, MetricsRegistry, OnlineStats, Persist, RestoreError, SnapIo, Time,
};

/// Bounded retry with exponential backoff.
///
/// Attempt `k` (1-based) is delayed by `min(base · 2^(k-1), cap)`; after
/// `max_attempts` failures the operation is abandoned.
///
/// # Example
///
/// The scheduler's historical shift ladder
/// `wait = probe × (4 << min(k, 3))` is this policy with
/// `base = probe × 8`, `cap = probe × 32`:
///
/// ```
/// use ecoscale_runtime::resilience::RetryPolicy;
/// use ecoscale_sim::Duration;
///
/// let probe = Duration::from_ns(300);
/// let policy = RetryPolicy::new(probe * 8, probe * 32, RetryPolicy::UNBOUNDED);
/// assert_eq!(policy.delay(1), probe * 8);
/// assert_eq!(policy.delay(2), probe * 16);
/// assert_eq!(policy.delay(3), probe * 32);
/// assert_eq!(policy.delay(9), probe * 32); // capped
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Delay before the first retry.
    pub base: Duration,
    /// Ceiling on any single delay.
    pub cap: Duration,
    /// Attempts before giving up ([`RetryPolicy::UNBOUNDED`] = never).
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// `max_attempts` value meaning "retry forever".
    pub const UNBOUNDED: u32 = u32::MAX;

    /// Creates a policy.
    ///
    /// # Panics
    ///
    /// Panics if `base` is zero or `cap < base`.
    pub fn new(base: Duration, cap: Duration, max_attempts: u32) -> RetryPolicy {
        assert!(!base.is_zero(), "base delay must be positive");
        assert!(cap >= base, "cap must be at least base");
        RetryPolicy {
            base,
            cap,
            max_attempts,
        }
    }

    /// The delay before (1-based) attempt `attempt`.
    ///
    /// # Panics
    ///
    /// Panics if `attempt` is zero.
    pub fn delay(&self, attempt: u32) -> Duration {
        assert!(attempt > 0, "attempts are 1-based");
        // Once the shift saturates the cap takes over, so clamp it to
        // keep the multiply in range.
        let shift = (attempt - 1).min(32);
        let raw = self.base * (1u64 << shift);
        raw.min(self.cap)
    }
}

/// Per-operation retry state driven by a [`RetryPolicy`].
///
/// ```
/// use ecoscale_runtime::resilience::{Backoff, RetryPolicy};
/// use ecoscale_sim::Duration;
///
/// let policy = RetryPolicy::new(Duration::from_us(1), Duration::from_us(4), 3);
/// let mut b = Backoff::new();
/// assert_eq!(b.next(&policy), Some(Duration::from_us(1)));
/// assert_eq!(b.next(&policy), Some(Duration::from_us(2)));
/// assert_eq!(b.next(&policy), Some(Duration::from_us(4)));
/// assert_eq!(b.next(&policy), None); // exhausted
/// b.reset();
/// assert_eq!(b.next(&policy), Some(Duration::from_us(1)));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Backoff {
    attempts: u32,
}

impl Backoff {
    /// Fresh state: no attempts made.
    pub fn new() -> Backoff {
        Backoff::default()
    }

    /// Attempts consumed so far.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Registers a failure and returns the delay before the next
    /// attempt, or `None` once the policy's budget is exhausted.
    pub fn next(&mut self, policy: &RetryPolicy) -> Option<Duration> {
        if self.attempts >= policy.max_attempts {
            return None;
        }
        self.attempts += 1;
        Some(policy.delay(self.attempts))
    }

    /// Clears the state after a success.
    pub fn reset(&mut self) {
        self.attempts = 0;
    }
}

/// Which recovery mechanisms are armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// Retry faulted operations with this backoff.
    pub retry: Option<RetryPolicy>,
    /// Execute on the CPU when the chosen accelerator is faulted.
    pub software_fallback: bool,
    /// Re-load upset fabric modules through the ReconfigDaemon.
    pub repair_reconfig: bool,
    /// Quarantine a domain after this many failures (0 = never).
    pub quarantine_after: u32,
}

impl ResilienceConfig {
    /// No recovery at all: faults take their full toll. The baseline
    /// policy in the resilience experiments.
    pub fn none() -> ResilienceConfig {
        ResilienceConfig {
            retry: None,
            software_fallback: false,
            repair_reconfig: false,
            quarantine_after: 0,
        }
    }

    /// Retry only, with the scheduler's historical backoff shape.
    pub fn retry_only() -> ResilienceConfig {
        ResilienceConfig {
            retry: Some(RetryPolicy::new(
                Duration::from_us(2),
                Duration::from_us(16),
                8,
            )),
            ..ResilienceConfig::none()
        }
    }

    /// Everything armed: retry, fallback, reconfig-repair, and
    /// quarantine after three strikes.
    pub fn full() -> ResilienceConfig {
        ResilienceConfig {
            retry: Some(RetryPolicy::new(
                Duration::from_us(2),
                Duration::from_us(16),
                8,
            )),
            software_fallback: true,
            repair_reconfig: true,
            quarantine_after: 3,
        }
    }
}

/// A fault domain the manager tracks strikes against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Domain {
    /// A worker (compute node slice).
    Worker(usize),
    /// A configured fabric module.
    Module(u32),
    /// A NoC link.
    Link(u64),
}

/// Tracks failures per [`Domain`], decides quarantine, and accumulates
/// the fault/recovery instruments.
///
/// Deterministic by construction: all state lives in ordered maps, so
/// metric export order is stable.
#[derive(Debug, Clone)]
pub struct ResilienceManager {
    config: ResilienceConfig,
    strikes: BTreeMap<Domain, u32>,
    quarantined: BTreeSet<Domain>,
    last_failure: Option<Time>,
    failures: Counter,
    retries: Counter,
    fallbacks: Counter,
    repairs: Counter,
    quarantines: Counter,
    lost: Counter,
    recovery_ns: Histogram,
    mtbf_ns: OnlineStats,
}

impl ResilienceManager {
    /// A manager applying `config`.
    pub fn new(config: ResilienceConfig) -> ResilienceManager {
        ResilienceManager {
            config,
            strikes: BTreeMap::new(),
            quarantined: BTreeSet::new(),
            last_failure: None,
            failures: Counter::default(),
            retries: Counter::default(),
            fallbacks: Counter::default(),
            repairs: Counter::default(),
            quarantines: Counter::default(),
            lost: Counter::default(),
            recovery_ns: Histogram::default(),
            mtbf_ns: OnlineStats::default(),
        }
    }

    /// The active config.
    pub fn config(&self) -> &ResilienceConfig {
        &self.config
    }

    /// Records a failure of `domain` at `now`. Updates the observed
    /// inter-failure gap (MTBF) and the domain's strike count; once the
    /// count reaches `quarantine_after` the domain is quarantined and
    /// `true` is returned (exactly once per domain).
    pub fn record_failure(&mut self, domain: Domain, now: Time) -> bool {
        self.failures.incr();
        if let Some(prev) = self.last_failure {
            self.mtbf_ns.record(now.saturating_since(prev).as_ns_f64());
        }
        self.last_failure = Some(now);
        let strikes = self.strikes.entry(domain).or_insert(0);
        *strikes += 1;
        if self.config.quarantine_after > 0
            && *strikes >= self.config.quarantine_after
            && self.quarantined.insert(domain)
        {
            self.quarantines.incr();
            return true;
        }
        false
    }

    /// Whether `domain` has been quarantined.
    pub fn is_quarantined(&self, domain: Domain) -> bool {
        self.quarantined.contains(&domain)
    }

    /// Every quarantined domain, in deterministic (ordered) form — the
    /// evidence the telemetry plane's quarantine trigger names in its
    /// flight-recorder dump.
    pub fn quarantined_domains(&self) -> Vec<Domain> {
        self.quarantined.iter().copied().collect()
    }

    /// Clears a domain's strikes after sustained healthy operation.
    /// Quarantine is sticky: a quarantined domain stays out.
    pub fn clear_strikes(&mut self, domain: Domain) {
        self.strikes.remove(&domain);
    }

    /// Strike count for a domain.
    pub fn strikes(&self, domain: Domain) -> u32 {
        self.strikes.get(&domain).copied().unwrap_or(0)
    }

    /// Counts one retry issued.
    pub fn note_retry(&mut self) {
        self.retries.incr();
    }

    /// Counts one software-fallback execution.
    pub fn note_fallback(&mut self) {
        self.fallbacks.incr();
    }

    /// Counts one reconfig-repair and its fault→healthy latency.
    pub fn note_repair(&mut self, recovery: Duration) {
        self.repairs.incr();
        self.recovery_ns.record(recovery.as_ns());
    }

    /// Counts recovery latency for a non-repair mechanism (e.g. a task
    /// re-homed off a crashed worker).
    pub fn note_recovery(&mut self, recovery: Duration) {
        self.recovery_ns.record(recovery.as_ns());
    }

    /// Counts one unit of work abandoned (retry budget exhausted or no
    /// recovery armed).
    pub fn note_lost(&mut self) {
        self.lost.incr();
    }

    /// Total failures observed.
    pub fn failures(&self) -> u64 {
        self.failures.get()
    }

    /// Retries issued.
    pub fn retries(&self) -> u64 {
        self.retries.get()
    }

    /// Software fallbacks taken.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks.get()
    }

    /// Reconfig repairs performed.
    pub fn repairs(&self) -> u64 {
        self.repairs.get()
    }

    /// Domains quarantined.
    pub fn quarantines(&self) -> u64 {
        self.quarantines.get()
    }

    /// Work units abandoned.
    pub fn lost(&self) -> u64 {
        self.lost.get()
    }

    /// Mean observed time between failures, if at least two failures
    /// were seen.
    pub fn mtbf(&self) -> Option<Duration> {
        (self.mtbf_ns.count() > 0).then(|| Duration::from_ns_f64(self.mtbf_ns.mean()))
    }

    /// Folds the fault/recovery instruments into `m` under `prefix`:
    /// failure/retry/fallback/repair/quarantine/lost counters, the
    /// observed MTBF stats, and the recovery-latency histogram.
    pub fn export_metrics(&self, m: &mut MetricsRegistry, prefix: &str) {
        m.add(&format!("{prefix}.failures"), self.failures.get());
        m.add(&format!("{prefix}.retries"), self.retries.get());
        m.add(&format!("{prefix}.fallbacks"), self.fallbacks.get());
        m.add(&format!("{prefix}.repairs"), self.repairs.get());
        m.add(&format!("{prefix}.quarantines"), self.quarantines.get());
        m.add(&format!("{prefix}.lost"), self.lost.get());
        m.merge_stats(&format!("{prefix}.mtbf_ns"), &self.mtbf_ns);
        m.merge_hist(&format!("{prefix}.recovery_ns"), &self.recovery_ns);
    }
}

/// Stable tagged encoding of a [`Domain`] for snapshots.
/// Strikes and quarantines per domain (ascending), the failure cursor,
/// counters, and the recovery/MTBF instruments. The config is
/// structural and not in the stream.
impl Persist for ResilienceManager {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        io.sorted_map(&mut self.strikes, "striked domains")?;
        io.sorted_set(&mut self.quarantined, "quarantined domains")?;
        self.last_failure.persist(io)?;
        for c in [
            &mut self.failures,
            &mut self.retries,
            &mut self.fallbacks,
            &mut self.repairs,
            &mut self.quarantines,
            &mut self.lost,
        ] {
            c.persist(io)?;
        }
        self.recovery_ns.persist(io)?;
        self.mtbf_ns.persist(io)
    }
}

/// A one-byte variant tag, then the variant's index.
impl Persist for Domain {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        let mut tag = match self {
            Domain::Worker(_) => 0,
            Domain::Module(_) => 1,
            Domain::Link(_) => 2,
        };
        io.u8(&mut tag)?;
        if IO::LOADING {
            *self = match tag {
                0 => Domain::Worker(0),
                1 => Domain::Module(0),
                2 => Domain::Link(0),
                other => return Err(malformed(format!("unknown domain tag {other}"))),
            };
        }
        match self {
            Domain::Worker(i) => io.usize(i),
            Domain::Module(m) => io.u32(m),
            Domain::Link(l) => io.u64(l),
        }
    }
}

impl Default for Domain {
    /// Worker 0.
    fn default() -> Domain {
        Domain::Worker(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_matches_historical_sched_ladder() {
        // sched.rs used: backoff = (backoff + 1).min(3);
        //                wait = probe * (4 << backoff)
        let probe = Duration::from_ns(300);
        let policy = RetryPolicy::new(probe * 8, probe * 32, RetryPolicy::UNBOUNDED);
        let mut legacy_backoff = 0u32;
        for attempt in 1..=10 {
            legacy_backoff = (legacy_backoff + 1).min(3);
            let legacy_wait = probe * (4u64 << legacy_backoff);
            assert_eq!(policy.delay(attempt), legacy_wait, "attempt {attempt}");
        }
    }

    #[test]
    fn delay_saturates_without_overflow() {
        let policy = RetryPolicy::new(
            Duration::from_ns(1),
            Duration::from_ms(1),
            RetryPolicy::UNBOUNDED,
        );
        assert_eq!(policy.delay(200), Duration::from_ms(1));
    }

    #[test]
    fn backoff_exhausts_at_budget() {
        let policy = RetryPolicy::new(Duration::from_us(1), Duration::from_us(8), 4);
        let mut b = Backoff::new();
        let delays: Vec<_> = std::iter::from_fn(|| b.next(&policy)).collect();
        assert_eq!(
            delays,
            vec![
                Duration::from_us(1),
                Duration::from_us(2),
                Duration::from_us(4),
                Duration::from_us(8),
            ]
        );
        assert_eq!(b.attempts(), 4);
    }

    #[test]
    fn quarantine_after_strikes_fires_once() {
        let mut mgr = ResilienceManager::new(ResilienceConfig {
            quarantine_after: 3,
            ..ResilienceConfig::none()
        });
        let w = Domain::Worker(2);
        assert!(!mgr.record_failure(w, Time::from_us(1)));
        assert!(!mgr.record_failure(w, Time::from_us(2)));
        assert!(mgr.record_failure(w, Time::from_us(3)));
        assert!(mgr.is_quarantined(w));
        // already quarantined: no second trigger
        assert!(!mgr.record_failure(w, Time::from_us(4)));
        assert_eq!(mgr.quarantines(), 1);
        assert_eq!(mgr.failures(), 4);
        assert!(!mgr.is_quarantined(Domain::Worker(3)));
    }

    #[test]
    fn quarantine_disabled_when_zero() {
        let mut mgr = ResilienceManager::new(ResilienceConfig::none());
        let m = Domain::Module(7);
        for i in 0..100 {
            mgr.record_failure(m, Time::from_us(i));
        }
        assert!(!mgr.is_quarantined(m));
        assert_eq!(mgr.quarantines(), 0);
    }

    #[test]
    fn mtbf_tracks_inter_failure_gaps() {
        let mut mgr = ResilienceManager::new(ResilienceConfig::none());
        mgr.record_failure(Domain::Link(1), Time::from_us(10));
        mgr.record_failure(Domain::Link(2), Time::from_us(30));
        mgr.record_failure(Domain::Link(1), Time::from_us(50));
        let mtbf = mgr.mtbf().expect("two gaps recorded");
        assert_eq!(mtbf, Duration::from_us(20));
    }

    #[test]
    fn clear_strikes_resets_count_but_not_quarantine() {
        let mut mgr = ResilienceManager::new(ResilienceConfig {
            quarantine_after: 2,
            ..ResilienceConfig::none()
        });
        let w = Domain::Worker(0);
        mgr.record_failure(w, Time::from_us(1));
        mgr.clear_strikes(w);
        assert_eq!(mgr.strikes(w), 0);
        assert!(!mgr.record_failure(w, Time::from_us(2)));
        assert!(mgr.record_failure(w, Time::from_us(3)));
        mgr.clear_strikes(w);
        assert!(mgr.is_quarantined(w), "quarantine is sticky");
    }

    #[test]
    fn export_metrics_has_all_instruments() {
        let mut mgr = ResilienceManager::new(ResilienceConfig::full());
        mgr.record_failure(Domain::Worker(1), Time::from_us(5));
        mgr.note_retry();
        mgr.note_fallback();
        mgr.note_repair(Duration::from_us(12));
        mgr.note_lost();
        let mut m = MetricsRegistry::new();
        mgr.export_metrics(&mut m, "resilience");
        assert_eq!(m.counter("resilience.failures"), Some(1));
        assert_eq!(m.counter("resilience.retries"), Some(1));
        assert_eq!(m.counter("resilience.fallbacks"), Some(1));
        assert_eq!(m.counter("resilience.repairs"), Some(1));
        assert_eq!(m.counter("resilience.lost"), Some(1));
        assert!(m.get("resilience.recovery_ns").is_some());
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let cfg = ResilienceConfig {
            quarantine_after: 2,
            ..ResilienceConfig::full()
        };
        let mut mgr = ResilienceManager::new(cfg);
        mgr.record_failure(Domain::Worker(1), Time::from_us(10));
        mgr.record_failure(Domain::Worker(1), Time::from_us(20));
        mgr.record_failure(Domain::Module(7), Time::from_us(30));
        mgr.record_failure(Domain::Link(9), Time::from_us(40));
        mgr.note_retry();
        mgr.note_fallback();
        mgr.note_repair(Duration::from_us(12));
        mgr.note_lost();
        let mut w = ecoscale_sim::SnapWriter::new();
        w.save(&mut mgr);
        let bytes = w.into_bytes();

        let mut fresh = ResilienceManager::new(cfg);
        let mut r = ecoscale_sim::SnapReader::new(&bytes);
        fresh.persist(&mut r).expect("restore");
        assert!(r.is_exhausted());
        let mut w2 = ecoscale_sim::SnapWriter::new();
        w2.save(&mut fresh);
        assert_eq!(
            bytes,
            w2.into_bytes(),
            "restored manager re-serializes differently"
        );
        assert!(fresh.is_quarantined(Domain::Worker(1)));
        assert_eq!(fresh.failures(), mgr.failures());
        assert_eq!(fresh.mtbf(), mgr.mtbf());
        // continuation equivalence: the next strike trips quarantine in both
        assert_eq!(
            fresh.record_failure(Domain::Module(7), Time::from_us(50)),
            mgr.record_failure(Domain::Module(7), Time::from_us(50)),
        );

        for cut in 0..bytes.len() {
            let mut p = ResilienceManager::new(cfg);
            let mut r = ecoscale_sim::SnapReader::new(&bytes[..cut]);
            assert!(
                p.persist(&mut r).is_err() || !r.is_exhausted(),
                "truncated stream at {cut} restored fully"
            );
        }
    }
}
