//! FaultPlane: seeded, deterministic fault-campaign primitives.
//!
//! Exascale machines built from thousands of Workers see component
//! faults as the steady state, not the exception. This module is the
//! substrate every layer's injection hook builds on:
//!
//! * [`CampaignSpec`] — a declarative fault campaign (per-component
//!   rates, durations and probabilities) with a compact textual form
//!   (`exp_all --faults <spec>`) that round-trips through
//!   [`CampaignSpec::parse`] / `Display`,
//! * [`FaultClock`] — a Poisson arrival process on simulated [`Time`],
//!   driven by the vendored [`SimRng`] so campaigns are pure functions
//!   of their seed,
//! * [`ProbFault`] — a per-operation Bernoulli injector (translation
//!   faults, bit errors, packet corruption) that draws **nothing** when
//!   its probability is zero, keeping disabled campaigns byte-identical
//!   to runs without the FaultPlane compiled in at all.
//!
//! Layer hooks live next to the component they fault: NoC link
//! degradation in `ecoscale-noc`, SMMU/DRAM faults in `ecoscale-mem`,
//! SEU upsets and scrubbing in `ecoscale-fpga`, worker stalls/crashes in
//! the runtime scheduler. Recovery policy lives in
//! `ecoscale_runtime::resilience`.

use core::fmt;

use crate::rng::SimRng;
use crate::snap::{Persist, RestoreError, SnapIo};
use crate::time::{Duration, Time};

/// Mixes a component salt into a campaign seed so every injector gets an
/// independent stream and adding one component never perturbs another's.
fn mix(seed: u64, salt: u64) -> u64 {
    // splitmix-style finalizer over seed ^ golden-ratio-spread salt
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A declarative fault campaign: which components fault, how often, and
/// for how long. All rates default to "off", so `CampaignSpec::off()`
/// (or any spec with every rate zero) injects nothing and costs nothing.
///
/// # Textual form
///
/// Comma-separated `key=value` pairs; durations take `ns`/`us`/`ms`/`s`
/// suffixes, probabilities are plain floats:
///
/// ```
/// use ecoscale_sim::fault::CampaignSpec;
///
/// let spec = CampaignSpec::parse("seed=7,crash=5ms,stall=2ms,stall_for=300us,smmu=0.002")
///     .unwrap();
/// assert_eq!(spec.seed, 7);
/// assert!(!spec.is_off());
/// let round_trip = CampaignSpec::parse(&spec.to_string()).unwrap();
/// assert_eq!(spec, round_trip);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Root seed; every injector forks an independent stream from it.
    pub seed: u64,
    /// Mean time between worker crashes (zero = off).
    pub worker_crash_mtbf: Duration,
    /// Mean time between worker stalls (zero = off).
    pub worker_stall_mtbf: Duration,
    /// How long a stalled worker stays unavailable.
    pub worker_stall_for: Duration,
    /// Mean time between link degradation events (zero = off).
    pub link_degrade_mtbf: Duration,
    /// How long a degraded link stays slow.
    pub link_degrade_for: Duration,
    /// Serialization slowdown factor while a link is degraded.
    pub link_slowdown: f64,
    /// Per-message payload corruption probability.
    pub packet_corrupt_p: f64,
    /// Per-translation transient SMMU fault probability.
    pub smmu_fault_p: f64,
    /// Per-bit DRAM error probability (feeds the ECC model).
    pub dram_bit_error_p: f64,
    /// Mean time between SEU upsets in configured fabric modules
    /// (zero = off).
    pub seu_mtbf: Duration,
    /// Configuration-memory scrub period (zero = never scrub).
    pub scrub_period: Duration,
}

impl CampaignSpec {
    /// The campaign that injects nothing.
    pub fn off() -> CampaignSpec {
        CampaignSpec {
            seed: 42,
            worker_crash_mtbf: Duration::ZERO,
            worker_stall_mtbf: Duration::ZERO,
            worker_stall_for: Duration::from_us(500),
            link_degrade_mtbf: Duration::ZERO,
            link_degrade_for: Duration::from_us(200),
            link_slowdown: 4.0,
            packet_corrupt_p: 0.0,
            smmu_fault_p: 0.0,
            dram_bit_error_p: 0.0,
            seu_mtbf: Duration::ZERO,
            scrub_period: Duration::ZERO,
        }
    }

    /// Returns `true` if no component can ever fault under this spec.
    pub fn is_off(&self) -> bool {
        self.worker_crash_mtbf.is_zero()
            && self.worker_stall_mtbf.is_zero()
            && self.link_degrade_mtbf.is_zero()
            && self.packet_corrupt_p == 0.0
            && self.smmu_fault_p == 0.0
            && self.dram_bit_error_p == 0.0
            && self.seu_mtbf.is_zero()
    }

    /// Scales every fault *rate* by `k` (MTBFs divide, probabilities
    /// multiply); durations of effects and the scrub period stay put.
    /// `k = 0` turns the campaign off. Used for fault-rate sweep axes.
    pub fn scaled(&self, k: f64) -> CampaignSpec {
        assert!(k.is_finite() && k >= 0.0, "scale factor must be >= 0");
        let scale_mtbf = |d: Duration| {
            if d.is_zero() || k == 0.0 {
                Duration::ZERO
            } else {
                d.mul_f64(1.0 / k)
            }
        };
        let scale_p = |p: f64| (p * k).min(1.0);
        CampaignSpec {
            seed: self.seed,
            worker_crash_mtbf: scale_mtbf(self.worker_crash_mtbf),
            worker_stall_mtbf: scale_mtbf(self.worker_stall_mtbf),
            worker_stall_for: self.worker_stall_for,
            link_degrade_mtbf: scale_mtbf(self.link_degrade_mtbf),
            link_degrade_for: self.link_degrade_for,
            link_slowdown: self.link_slowdown,
            packet_corrupt_p: scale_p(self.packet_corrupt_p),
            smmu_fault_p: scale_p(self.smmu_fault_p),
            dram_bit_error_p: scale_p(self.dram_bit_error_p),
            seu_mtbf: scale_mtbf(self.seu_mtbf),
            scrub_period: self.scrub_period,
        }
    }

    /// Derives the independent RNG for one injector. `salt` names the
    /// component (use the `SALT_*` constants) so streams never collide.
    pub fn rng(&self, salt: u64) -> SimRng {
        SimRng::seed_from(mix(self.seed, salt))
    }

    /// Parses the compact `key=value[,key=value...]` form.
    ///
    /// # Errors
    ///
    /// [`SpecParseError`] names the offending pair.
    pub fn parse(s: &str) -> Result<CampaignSpec, SpecParseError> {
        let mut spec = CampaignSpec::off();
        for pair in s.split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let (key, value) = pair.split_once('=').ok_or_else(|| SpecParseError {
                pair: pair.to_owned(),
                reason: "expected key=value".to_owned(),
            })?;
            let bad = |reason: &str| SpecParseError {
                pair: pair.to_owned(),
                reason: reason.to_owned(),
            };
            match key.trim() {
                "seed" => {
                    spec.seed = value.trim().parse().map_err(|_| bad("seed wants a u64"))?;
                }
                "crash" => {
                    spec.worker_crash_mtbf =
                        parse_duration(value).ok_or_else(|| bad("duration like 5ms"))?
                }
                "stall" => {
                    spec.worker_stall_mtbf =
                        parse_duration(value).ok_or_else(|| bad("duration like 2ms"))?
                }
                "stall_for" => {
                    spec.worker_stall_for =
                        parse_duration(value).ok_or_else(|| bad("duration like 300us"))?
                }
                "link" => {
                    spec.link_degrade_mtbf =
                        parse_duration(value).ok_or_else(|| bad("duration like 400us"))?
                }
                "link_for" => {
                    spec.link_degrade_for =
                        parse_duration(value).ok_or_else(|| bad("duration like 150us"))?
                }
                "link_slowdown" => {
                    spec.link_slowdown = parse_prob_or_factor(value, 1.0, f64::MAX)
                        .ok_or_else(|| bad("factor >= 1"))?;
                }
                "corrupt" => {
                    spec.packet_corrupt_p = parse_prob_or_factor(value, 0.0, 1.0)
                        .ok_or_else(|| bad("probability in [0,1]"))?;
                }
                "smmu" => {
                    spec.smmu_fault_p = parse_prob_or_factor(value, 0.0, 1.0)
                        .ok_or_else(|| bad("probability in [0,1]"))?;
                }
                "dram" => {
                    spec.dram_bit_error_p = parse_prob_or_factor(value, 0.0, 1.0)
                        .ok_or_else(|| bad("probability in [0,1]"))?;
                }
                "seu" => {
                    spec.seu_mtbf =
                        parse_duration(value).ok_or_else(|| bad("duration like 500us"))?
                }
                "scrub" => {
                    spec.scrub_period =
                        parse_duration(value).ok_or_else(|| bad("duration like 200us"))?
                }
                other => {
                    return Err(SpecParseError {
                        pair: pair.to_owned(),
                        reason: format!(
                            "unknown key `{other}` (want seed, crash, stall, stall_for, link, \
                             link_for, link_slowdown, corrupt, smmu, dram, seu, scrub)"
                        ),
                    });
                }
            }
        }
        Ok(spec)
    }
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec::off()
    }
}

impl fmt::Display for CampaignSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={}", self.seed)?;
        let d = |f: &mut fmt::Formatter<'_>, key: &str, v: Duration| {
            if v.is_zero() {
                Ok(())
            } else {
                write!(f, ",{key}={}", fmt_duration(v))
            }
        };
        d(f, "crash", self.worker_crash_mtbf)?;
        if !self.worker_stall_mtbf.is_zero() {
            d(f, "stall", self.worker_stall_mtbf)?;
            d(f, "stall_for", self.worker_stall_for)?;
        }
        if !self.link_degrade_mtbf.is_zero() {
            d(f, "link", self.link_degrade_mtbf)?;
            d(f, "link_for", self.link_degrade_for)?;
            write!(f, ",link_slowdown={}", self.link_slowdown)?;
        }
        if self.packet_corrupt_p > 0.0 {
            write!(f, ",corrupt={}", self.packet_corrupt_p)?;
        }
        if self.smmu_fault_p > 0.0 {
            write!(f, ",smmu={}", self.smmu_fault_p)?;
        }
        if self.dram_bit_error_p > 0.0 {
            write!(f, ",dram={}", self.dram_bit_error_p)?;
        }
        d(f, "seu", self.seu_mtbf)?;
        d(f, "scrub", self.scrub_period)?;
        Ok(())
    }
}

/// Component salts for [`CampaignSpec::rng`]. One per injection site so
/// independent layers never share a stream.
pub mod salt {
    /// Worker crash arrival process.
    pub const WORKER_CRASH: u64 = 1;
    /// Worker stall arrival process.
    pub const WORKER_STALL: u64 = 2;
    /// Victim selection for worker faults.
    pub const WORKER_PICK: u64 = 3;
    /// Link degradation arrival process.
    pub const LINK_DEGRADE: u64 = 4;
    /// Link victim selection.
    pub const LINK_PICK: u64 = 5;
    /// Packet corruption Bernoulli stream.
    pub const PACKET_CORRUPT: u64 = 6;
    /// SMMU transient fault Bernoulli stream.
    pub const SMMU_FAULT: u64 = 7;
    /// DRAM bit error stream.
    pub const DRAM_ECC: u64 = 8;
    /// SEU upset arrival process.
    pub const SEU: u64 = 9;
    /// SEU victim selection.
    pub const SEU_PICK: u64 = 10;
}

/// A malformed campaign spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecParseError {
    /// The offending `key=value` pair.
    pub pair: String,
    /// What was expected.
    pub reason: String,
}

impl fmt::Display for SpecParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault spec pair `{}`: {}", self.pair, self.reason)
    }
}

impl std::error::Error for SpecParseError {}

/// Parses a duration with an `ns`/`us`/`ms`/`s` suffix (`"300us"`,
/// `"1.5ms"`). Shared by every `key=value` spec grammar in the workspace
/// ([`CampaignSpec`], the ServePlane's `ServeSpec`).
pub fn parse_duration(s: &str) -> Option<Duration> {
    let s = s.trim();
    let (num, unit) = s.split_at(s.find(|c: char| c.is_ascii_alphabetic())?);
    let v: f64 = num.parse().ok()?;
    if !v.is_finite() || v < 0.0 {
        return None;
    }
    let ns = match unit {
        "ns" => v,
        "us" => v * 1e3,
        "ms" => v * 1e6,
        "s" => v * 1e9,
        _ => return None,
    };
    Some(Duration::from_ns_f64(ns))
}

fn parse_prob_or_factor(s: &str, lo: f64, hi: f64) -> Option<f64> {
    let v: f64 = s.trim().parse().ok()?;
    (v.is_finite() && v >= lo && v <= hi).then_some(v)
}

/// Renders a duration in the largest unit that keeps it integral, so
/// `Display` output re-parses to the same value. The inverse of
/// [`parse_duration`], shared by every spec grammar.
pub fn fmt_duration(d: Duration) -> String {
    if !d.as_ps().is_multiple_of(1_000) {
        return format!("{}ns", d.as_ns_f64());
    }
    let ns = d.as_ns();
    if ns.is_multiple_of(1_000_000_000) {
        format!("{}s", ns / 1_000_000_000)
    } else if ns.is_multiple_of(1_000_000) {
        format!("{}ms", ns / 1_000_000)
    } else if ns.is_multiple_of(1_000) {
        format!("{}us", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

/// A Poisson fault-arrival process on simulated time.
///
/// Draws exponential inter-arrival gaps with mean `mtbf` from its own
/// [`SimRng`]; a zero `mtbf` disables the clock entirely (no draws).
///
/// # Example
///
/// ```
/// use ecoscale_sim::fault::{CampaignSpec, FaultClock, salt};
/// use ecoscale_sim::{Duration, Time};
///
/// let spec = CampaignSpec::parse("seed=1").unwrap();
/// let mut clock = FaultClock::new(Duration::from_us(100), spec.rng(salt::SEU));
/// let mut faults = 0;
/// while clock.pop_due(Time::from_ms(1)).is_some() {
///     faults += 1;
/// }
/// // mean gap 100us over 1ms => ~10 arrivals
/// assert!(faults > 2 && faults < 40, "{faults}");
/// ```
#[derive(Debug, Clone)]
pub struct FaultClock {
    rng: SimRng,
    mtbf: Duration,
    next: Option<Time>,
}

impl FaultClock {
    /// A clock firing with mean gap `mtbf`, starting at [`Time::ZERO`].
    /// Zero `mtbf` yields a clock that never fires.
    pub fn new(mtbf: Duration, rng: SimRng) -> FaultClock {
        let mut c = FaultClock {
            rng,
            mtbf,
            next: None,
        };
        if !mtbf.is_zero() {
            c.next = Some(c.draw_from(Time::ZERO));
        }
        c
    }

    /// A clock that never fires and never draws.
    pub fn disabled() -> FaultClock {
        FaultClock {
            rng: SimRng::seed_from(0),
            mtbf: Duration::ZERO,
            next: None,
        }
    }

    /// Whether this clock can ever fire.
    pub fn is_enabled(&self) -> bool {
        self.next.is_some()
    }

    /// The next arrival, if any.
    pub fn peek(&self) -> Option<Time> {
        self.next
    }

    fn draw_from(&mut self, t: Time) -> Time {
        let gap = self.rng.gen_exp(self.mtbf.as_ns_f64()).max(1.0);
        t + Duration::from_ns_f64(gap)
    }

    /// If the next arrival is at or before `now`, consumes it (drawing
    /// the following one) and returns its time; otherwise `None`.
    /// Call in a loop to drain every arrival up to `now`.
    pub fn pop_due(&mut self, now: Time) -> Option<Time> {
        let at = self.next?;
        if at > now {
            return None;
        }
        self.next = Some(self.draw_from(at));
        Some(at)
    }
}

impl Persist for FaultClock {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        self.rng.persist(io)?;
        io.duration(&mut self.mtbf)?;
        self.next.persist(io)
    }
}

impl Persist for ProbFault {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        self.rng.persist(io)?;
        io.f64(&mut self.p)?;
        io.ensure((0.0..=1.0).contains(&self.p), || {
            format!("fault probability {} out of [0, 1]", self.p)
        })
    }
}

impl Default for FaultClock {
    /// The clock that never fires.
    fn default() -> FaultClock {
        FaultClock::disabled()
    }
}

impl Default for ProbFault {
    /// The injector that never strikes.
    fn default() -> ProbFault {
        ProbFault::disabled()
    }
}

/// A per-operation Bernoulli fault injector.
///
/// With probability zero it draws nothing, so a disabled injector leaves
/// every other stream in the simulation untouched.
#[derive(Debug, Clone)]
pub struct ProbFault {
    rng: SimRng,
    p: f64,
}

impl ProbFault {
    /// An injector striking each operation with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn new(p: f64, rng: SimRng) -> ProbFault {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of [0, 1]");
        ProbFault { rng, p }
    }

    /// An injector that never strikes and never draws.
    pub fn disabled() -> ProbFault {
        ProbFault {
            rng: SimRng::seed_from(0),
            p: 0.0,
        }
    }

    /// Whether this injector can ever strike.
    pub fn is_enabled(&self) -> bool {
        self.p > 0.0
    }

    /// One Bernoulli draw (no draw when disabled).
    pub fn strikes(&mut self) -> bool {
        self.p > 0.0 && self.rng.gen_bool(self.p)
    }

    /// Whether at least one of `trials` independent draws strikes,
    /// folded into a single draw with `1 - (1-p)^trials`. Used for
    /// per-bit error rates over multi-byte accesses.
    pub fn strikes_any(&mut self, trials: u64) -> bool {
        if self.p <= 0.0 || trials == 0 {
            return false;
        }
        let p_any = 1.0 - (1.0 - self.p).powf(trials as f64);
        self.rng.gen_bool(p_any.clamp(0.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_spec_is_off_and_round_trips() {
        let spec = CampaignSpec::off();
        assert!(spec.is_off());
        let again = CampaignSpec::parse(&spec.to_string()).unwrap();
        assert_eq!(spec, again);
    }

    #[test]
    fn parse_full_spec_round_trips() {
        let text = "seed=9,crash=5ms,stall=2ms,stall_for=300us,link=400us,link_for=150us,\
                    link_slowdown=4,corrupt=0.01,smmu=0.002,dram=0.0000001,seu=500us,scrub=200us";
        let spec = CampaignSpec::parse(text).unwrap();
        assert!(!spec.is_off());
        assert_eq!(spec.worker_crash_mtbf, Duration::from_ms(5));
        assert_eq!(spec.worker_stall_for, Duration::from_us(300));
        assert_eq!(spec.smmu_fault_p, 0.002);
        let again = CampaignSpec::parse(&spec.to_string()).unwrap();
        assert_eq!(spec, again);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(CampaignSpec::parse("bogus=1").is_err());
        assert!(CampaignSpec::parse("crash").is_err());
        assert!(CampaignSpec::parse("crash=fast").is_err());
        assert!(CampaignSpec::parse("corrupt=1.5").is_err());
        assert!(CampaignSpec::parse("seed=-3").is_err());
        let err = CampaignSpec::parse("smmu=nope").unwrap_err();
        assert!(err.to_string().contains("smmu=nope"));
    }

    #[test]
    fn parse_ignores_whitespace_and_empty_pairs() {
        let spec = CampaignSpec::parse(" seed=3 , crash=1ms ,, ").unwrap();
        assert_eq!(spec.seed, 3);
        assert_eq!(spec.worker_crash_mtbf, Duration::from_ms(1));
    }

    #[test]
    fn scaled_moves_rates_not_durations() {
        let spec =
            CampaignSpec::parse("seed=1,crash=4ms,stall=2ms,stall_for=100us,smmu=0.01").unwrap();
        let hot = spec.scaled(2.0);
        assert_eq!(hot.worker_crash_mtbf, Duration::from_ms(2));
        assert_eq!(hot.smmu_fault_p, 0.02);
        assert_eq!(hot.worker_stall_for, Duration::from_us(100));
        let off = spec.scaled(0.0);
        assert!(off.is_off());
    }

    #[test]
    fn rng_streams_differ_per_salt_but_are_stable() {
        let spec = CampaignSpec::parse("seed=5").unwrap();
        let a = spec.rng(salt::SEU).next_u64();
        let b = spec.rng(salt::SMMU_FAULT).next_u64();
        let a2 = spec.rng(salt::SEU).next_u64();
        assert_ne!(a, b);
        assert_eq!(a, a2);
    }

    #[test]
    fn fault_clock_is_deterministic_and_ordered() {
        let spec = CampaignSpec::parse("seed=11").unwrap();
        let mut a = FaultClock::new(Duration::from_us(50), spec.rng(salt::SEU));
        let mut b = FaultClock::new(Duration::from_us(50), spec.rng(salt::SEU));
        let horizon = Time::from_ms(1);
        let mut last = Time::ZERO;
        let mut n = 0;
        while let Some(t) = a.pop_due(horizon) {
            assert_eq!(Some(t), b.pop_due(horizon));
            assert!(t >= last);
            last = t;
            n += 1;
        }
        assert!(n > 5, "expected several arrivals, got {n}");
        assert!(a.peek().unwrap() > horizon);
    }

    #[test]
    fn disabled_clock_never_fires() {
        let mut c = FaultClock::disabled();
        assert!(!c.is_enabled());
        assert_eq!(c.pop_due(Time::from_ms(100)), None);
        let zero = FaultClock::new(Duration::ZERO, SimRng::seed_from(1));
        assert!(!zero.is_enabled());
    }

    #[test]
    fn prob_fault_frequency_and_disabled() {
        let spec = CampaignSpec::parse("seed=13").unwrap();
        let mut p = ProbFault::new(0.25, spec.rng(salt::SMMU_FAULT));
        let hits = (0..10_000).filter(|_| p.strikes()).count();
        assert!((hits as f64 / 10_000.0 - 0.25).abs() < 0.03, "{hits}");
        let mut off = ProbFault::disabled();
        assert!(!(0..1000).any(|_| off.strikes()));
        assert!(!off.strikes_any(1 << 40));
    }

    #[test]
    fn strikes_any_amplifies_with_trials() {
        let spec = CampaignSpec::parse("seed=17").unwrap();
        let mut p = ProbFault::new(1e-6, spec.rng(salt::DRAM_ECC));
        let few = (0..2000).filter(|_| p.strikes_any(8)).count();
        let mut p = ProbFault::new(1e-6, spec.rng(salt::DRAM_ECC));
        let many = (0..2000).filter(|_| p.strikes_any(1_000_000)).count();
        assert!(many > few, "many={many} few={few}");
    }
}
