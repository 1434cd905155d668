//! FaultPlane: seeded, deterministic fault-campaign primitives.
//!
//! Exascale machines built from thousands of Workers see component
//! faults as the steady state, not the exception. This module is the
//! substrate every layer's injection hook builds on:
//!
//! * [`CampaignSpec`] — a declarative fault campaign (per-component
//!   rates, durations and probabilities) with a compact textual form
//!   (`exp_all --faults <spec>`, in the [`spec`] grammar)
//!   that round-trips through [`CampaignSpec::parse`] / `Display`,
//! * [`FaultClock`] — a Poisson arrival process on simulated [`Time`],
//!   driven by the vendored [`SimRng`] so campaigns are pure functions
//!   of their seed,
//! * [`ProbFault`] — a per-operation Bernoulli injector (translation
//!   faults, bit errors, packet corruption) that draws **nothing** when
//!   its probability is zero, keeping disabled campaigns byte-identical
//!   to runs without the FaultPlane compiled in at all.
//!
//! Layer hooks live next to the component they fault: NoC link
//! degradation in `ecoscale-noc`, SMMU faults in `ecoscale-mem`,
//! SEU upsets and scrubbing in `ecoscale-fpga`, worker stalls/crashes in
//! the runtime scheduler. Recovery policy lives in
//! `ecoscale_runtime::resilience`.

use core::fmt;

use crate::rng::SimRng;
use crate::snap::{Persist, RestoreError, SnapIo};
use crate::spec::{self, fmt_duration, SpecError};
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
/// Comma-separated `key=value` pairs in the [`spec`] grammar; durations
/// take `ns`/`us`/`ms`/`s` suffixes, probabilities are plain floats:
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
            seu_mtbf: scale_mtbf(self.seu_mtbf),
            scrub_period: self.scrub_period,
        }
    }

    /// Derives the independent RNG for one injector. `salt` names the
    /// component (use the `SALT_*` constants) so streams never collide.
    pub fn rng(&self, salt: u64) -> SimRng {
        SimRng::seed_from(mix(self.seed, salt))
    }

    /// The keys of the textual form, in `Display` order.
    pub const KEYS: &'static [&'static str] = &[
        "seed",
        "crash",
        "stall",
        "stall_for",
        "link",
        "link_for",
        "link_slowdown",
        "corrupt",
        "smmu",
        "seu",
        "scrub",
    ];

    /// Parses the compact `key=value[,key=value...]` form.
    ///
    /// # Errors
    ///
    /// A [`SpecError`] of kind `"fault spec"` names the offending pair.
    pub fn parse(s: &str) -> Result<CampaignSpec, SpecError> {
        const PROBABILITY: &str = "a probability in [0,1]";
        let mut c = CampaignSpec::off();
        spec::pairs("fault spec", s, |p| {
            match p.key {
                "seed" => c.seed = p.u64()?,
                "crash" => c.worker_crash_mtbf = p.duration()?,
                "stall" => c.worker_stall_mtbf = p.duration()?,
                "stall_for" => c.worker_stall_for = p.duration()?,
                "link" => c.link_degrade_mtbf = p.duration()?,
                "link_for" => c.link_degrade_for = p.duration()?,
                "link_slowdown" => c.link_slowdown = p.float(1.0.., "a factor >= 1")?,
                "corrupt" => c.packet_corrupt_p = p.float(0.0..=1.0, PROBABILITY)?,
                "smmu" => c.smmu_fault_p = p.float(0.0..=1.0, PROBABILITY)?,
                "seu" => c.seu_mtbf = p.duration()?,
                "scrub" => c.scrub_period = p.duration()?,
                _ => return Err(p.unknown(CampaignSpec::KEYS)),
            }
            Ok(())
        })?;
        Ok(c)
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
    /// SEU upset arrival process.
    pub const SEU: u64 = 9;
    /// SEU victim selection.
    pub const SEU_PICK: u64 = 10;
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
                    link_slowdown=4,corrupt=0.01,smmu=0.002,seu=500us,scrub=200us";
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
        let mut p = ProbFault::new(1e-6, spec.rng(salt::PACKET_CORRUPT));
        let few = (0..2000).filter(|_| p.strikes_any(8)).count();
        let mut p = ProbFault::new(1e-6, spec.rng(salt::PACKET_CORRUPT));
        let many = (0..2000).filter(|_| p.strikes_any(1_000_000)).count();
        assert!(many > few, "many={many} few={few}");
    }
}
