//! Single-event upsets in configuration memory and their repair.
//!
//! SRAM-based FPGA configuration memory is susceptible to radiation- and
//! noise-induced bit flips (SEUs). At exascale node counts the aggregate
//! upset rate becomes an availability concern, so the FaultPlane models
//! the standard mitigation: periodic **configuration scrubbing** that
//! re-reads frames and flags corrupted modules, after which the
//! reconfiguration daemon repairs them with a partial-bitstream reload.
//!
//! [`SeuScrubber`] owns the upset fault clock for one Worker's fabric. It
//! draws exponentially-spaced upset times, picks a victim among the
//! currently resident modules, and marks it *upset*: the module keeps
//! producing (wrong) results until the next scrub pass detects it. The
//! runtime half (software fallback, reload, quarantine) lives in the
//! runtime crate's resilience module.

use ecoscale_sim::check::{invariant, CheckPlane};
use ecoscale_sim::{
    CampaignSpec, Counter, Duration, FaultClock, MetricsRegistry, Persist, RestoreError, SimRng,
    SnapIo, Time,
};
use std::collections::BTreeMap;

use crate::module::ModuleId;

/// Salt for the scrubber's victim-pick stream (distinct from the upset
/// clock's own stream, which uses [`ecoscale_sim::fault::salt::SEU`]).
const PICK_SALT: u64 = ecoscale_sim::fault::salt::SEU_PICK;

/// Per-fabric SEU injection plus the scrub loop that detects upsets.
#[derive(Debug)]
pub struct SeuScrubber {
    clock: FaultClock,
    pick: SimRng,
    scrub_period: Duration,
    last_scrub: Time,
    /// Upset-but-undetected modules, keyed for deterministic iteration,
    /// with the time the upset struck (for detection-latency metrics).
    upset: BTreeMap<ModuleId, Time>,
    upsets: Counter,
    detected: Counter,
    scrubs: Counter,
    masked: Counter,
}

impl SeuScrubber {
    /// Builds the scrubber for one fabric from the campaign, salted with
    /// the Worker index so per-Worker streams never collide. Disabled
    /// (zero-cost) when the campaign's SEU rate is off.
    pub fn from_campaign(spec: &CampaignSpec, worker: u64) -> SeuScrubber {
        let enabled = !spec.seu_mtbf.is_zero();
        SeuScrubber {
            clock: if enabled {
                FaultClock::new(
                    spec.seu_mtbf,
                    spec.rng(ecoscale_sim::fault::salt::SEU ^ (worker << 32)),
                )
            } else {
                FaultClock::disabled()
            },
            pick: spec.rng(PICK_SALT ^ (worker << 32)),
            scrub_period: if spec.scrub_period.is_zero() {
                Duration::from_ms(1)
            } else {
                spec.scrub_period
            },
            last_scrub: Time::ZERO,
            upset: BTreeMap::new(),
            upsets: Counter::new(),
            detected: Counter::new(),
            scrubs: Counter::new(),
            masked: Counter::new(),
        }
    }

    /// Whether SEU injection is armed at all.
    pub fn is_enabled(&self) -> bool {
        self.clock.is_enabled()
    }

    /// Advances the upset clock to `now`, striking resident modules.
    /// Each due upset picks a victim uniformly among `resident`; an upset
    /// on an empty fabric is *masked* (hits unused configuration memory).
    /// Returns the modules newly upset by this call.
    pub fn advance(&mut self, now: Time, resident: &[ModuleId]) -> Vec<ModuleId> {
        let mut struck = Vec::new();
        while let Some(at) = self.clock.pop_due(now) {
            self.upsets.incr();
            if resident.is_empty() {
                self.masked.incr();
                continue;
            }
            let victim = resident[self.pick.gen_range_usize(0, resident.len())];
            // A second hit on an already-upset module changes nothing.
            if self.upset.insert(victim, at).is_none() {
                struck.push(victim);
            }
        }
        struck
    }

    /// Whether a scrub pass is due at `now`.
    pub fn scrub_due(&self, now: Time) -> bool {
        self.is_enabled() && now.saturating_since(self.last_scrub) >= self.scrub_period
    }

    /// Runs a scrub pass at `now`: every pending upset is detected and
    /// returned with its detection latency, ordered by module id. The
    /// caller repairs each via the reconfiguration daemon and then calls
    /// [`SeuScrubber::repaired`].
    pub fn scrub(&mut self, now: Time) -> Vec<(ModuleId, Duration)> {
        self.scrubs.incr();
        self.last_scrub = now;
        let found: Vec<(ModuleId, Duration)> = self
            .upset
            .iter()
            .map(|(&m, &at)| (m, now.saturating_since(at)))
            .collect();
        self.detected.add(found.len() as u64);
        found
    }

    /// Whether `module` is currently upset (producing wrong results).
    pub fn is_upset(&self, module: ModuleId) -> bool {
        self.upset.contains_key(&module)
    }

    /// Any module currently upset?
    pub fn any_upset(&self) -> bool {
        !self.upset.is_empty()
    }

    /// Marks `module` repaired (after a bitstream reload or unload).
    pub fn repaired(&mut self, module: ModuleId) {
        self.upset.remove(&module);
    }

    /// Total upsets struck (including masked ones).
    pub fn upsets(&self) -> u64 {
        self.upsets.get()
    }

    /// Upsets that landed on unused configuration memory.
    pub fn masked(&self) -> u64 {
        self.masked.get()
    }

    /// Upsets detected by scrub passes.
    pub fn detected(&self) -> u64 {
        self.detected.get()
    }

    /// Scrub passes run.
    pub fn scrubs(&self) -> u64 {
        self.scrubs.get()
    }

    /// Folds the scrubber's instruments into `m` under `prefix`
    /// (`{prefix}.upsets`, `.masked`, `.detected`, `.scrubs`). Exported
    /// only when armed, so fault-free reports are unchanged.
    pub fn export_metrics(&self, m: &mut MetricsRegistry, prefix: &str) {
        if !self.is_enabled() {
            return;
        }
        m.add(&format!("{prefix}.upsets"), self.upsets.get());
        m.add(&format!("{prefix}.masked"), self.masked.get());
        m.add(&format!("{prefix}.detected"), self.detected.get());
        m.add(&format!("{prefix}.scrubs"), self.scrubs.get());
    }

    /// CheckPlane hook: scrubber bookkeeping consistency — every pending or
    /// masked upset traces back to an injected one. Read-only; early-outs
    /// when `cp` is disabled (or the scrubber itself is off).
    pub fn check_invariants(&self, cp: &mut CheckPlane) {
        if !cp.is_enabled() || !self.is_enabled() {
            return;
        }
        let pending = self.upset.len() as u64;
        cp.check(
            invariant::SEU_COUNTS_AGREE,
            self.masked.get() + pending <= self.upsets.get(),
            || {
                format!(
                    "masked {} + pending {pending} exceed total upsets {}",
                    self.masked.get(),
                    self.upsets.get()
                )
            },
        );
        cp.check(
            invariant::SEU_COUNTS_AGREE,
            self.scrub_period > Duration::ZERO,
            || "scrub period is zero on an armed scrubber".to_string(),
        );
    }
}

/// The upset clock and victim-pick RNG streams, the scrub cursor, the
/// pending upsets (ascending module order) and the counters. The scrub
/// period is structural (from the campaign) and not in the stream.
impl Persist for SeuScrubber {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        self.clock.persist(io)?;
        self.pick.persist(io)?;
        io.time(&mut self.last_scrub)?;
        io.sorted_map(&mut self.upset, "pending upsets")?;
        for c in [
            &mut self.upsets,
            &mut self.detected,
            &mut self.scrubs,
            &mut self.masked,
        ] {
            c.persist(io)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seu_spec() -> CampaignSpec {
        let mut s = CampaignSpec::off();
        s.seu_mtbf = Duration::from_us(50);
        s.scrub_period = Duration::from_us(200);
        s
    }

    #[test]
    fn disabled_scrubber_draws_nothing() {
        let mut s = SeuScrubber::from_campaign(&CampaignSpec::off(), 0);
        assert!(!s.is_enabled());
        assert!(s.advance(Time::from_ms(100), &[ModuleId(1)]).is_empty());
        assert!(!s.scrub_due(Time::from_ms(100)));
        assert_eq!(s.upsets(), 0);
    }

    #[test]
    fn upsets_strike_resident_modules() {
        let mut s = SeuScrubber::from_campaign(&seu_spec(), 0);
        let resident = [ModuleId(1), ModuleId(2), ModuleId(3)];
        let struck = s.advance(Time::from_ms(1), &resident);
        assert!(!struck.is_empty(), "1 ms at 50 us MTBF strikes");
        for m in &struck {
            assert!(s.is_upset(*m));
            assert!(resident.contains(m));
        }
        assert!(s.upsets() >= struck.len() as u64);
    }

    #[test]
    fn empty_fabric_masks_upsets() {
        let mut s = SeuScrubber::from_campaign(&seu_spec(), 0);
        let struck = s.advance(Time::from_ms(1), &[]);
        assert!(struck.is_empty());
        assert!(s.upsets() > 0);
        assert_eq!(s.masked(), s.upsets());
        assert!(!s.any_upset());
    }

    #[test]
    fn scrub_detects_then_repair_clears() {
        let mut s = SeuScrubber::from_campaign(&seu_spec(), 0);
        let resident = [ModuleId(7)];
        s.advance(Time::from_ms(1), &resident);
        assert!(s.is_upset(ModuleId(7)));
        assert!(s.scrub_due(Time::from_ms(1)));
        let found = s.scrub(Time::from_ms(1));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].0, ModuleId(7));
        assert!(found[0].1 > Duration::ZERO, "detection latency recorded");
        s.repaired(ModuleId(7));
        assert!(!s.is_upset(ModuleId(7)));
        assert!(s.scrub(Time::from_ms(2)).is_empty());
        assert_eq!(s.detected(), 1);
        assert_eq!(s.scrubs(), 2);
    }

    #[test]
    fn per_worker_streams_differ() {
        let spec = seu_spec();
        let mut a = SeuScrubber::from_campaign(&spec, 0);
        let mut b = SeuScrubber::from_campaign(&spec, 1);
        let resident = [ModuleId(1), ModuleId(2)];
        let sa = a.advance(Time::from_ms(5), &resident);
        let sb = b.advance(Time::from_ms(5), &resident);
        // same campaign, different workers: independent upset streams
        // (counts may coincide, full sequences must not)
        assert!(a.upsets() > 0 && b.upsets() > 0);
        assert!(sa != sb || a.upsets() != b.upsets());
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        let spec = seu_spec();
        let resident = [ModuleId(1), ModuleId(2), ModuleId(3)];
        let mut orig = SeuScrubber::from_campaign(&spec, 3);
        orig.advance(Time::from_ms(1), &resident);
        if orig.scrub_due(Time::from_ms(1)) {
            for (m, _) in orig.scrub(Time::from_ms(1)) {
                orig.repaired(m);
            }
        }
        orig.advance(Time::from_ms(2), &resident);

        let mut w = ecoscale_sim::SnapWriter::new();
        w.save(&mut orig);
        let bytes = w.into_bytes();

        let mut fresh = SeuScrubber::from_campaign(&spec, 3);
        let mut r = ecoscale_sim::SnapReader::new(&bytes);
        fresh.persist(&mut r).expect("restore");
        assert!(r.is_exhausted());
        let mut w2 = ecoscale_sim::SnapWriter::new();
        w2.save(&mut fresh);
        assert_eq!(bytes, w2.into_bytes());

        // both continuations draw the same upsets
        for ms in 3..=10 {
            let a = orig.advance(Time::from_ms(ms), &resident);
            let b = fresh.advance(Time::from_ms(ms), &resident);
            assert_eq!(a, b, "diverged at {ms} ms");
        }
        assert_eq!(
            (orig.upsets(), orig.detected(), orig.scrubs(), orig.masked()),
            (
                fresh.upsets(),
                fresh.detected(),
                fresh.scrubs(),
                fresh.masked()
            )
        );

        // truncation always fails cleanly
        for cut in 0..bytes.len() {
            let mut s = SeuScrubber::from_campaign(&spec, 3);
            let mut r = ecoscale_sim::SnapReader::new(&bytes[..cut]);
            assert!(
                s.persist(&mut r).is_err() || !r.is_exhausted(),
                "truncated stream at {cut} restored fully"
            );
        }
    }

    #[test]
    fn scrubber_is_deterministic() {
        let run = || {
            let mut s = SeuScrubber::from_campaign(&seu_spec(), 3);
            let resident = [ModuleId(1), ModuleId(2), ModuleId(3)];
            let mut log = Vec::new();
            for ms in 1..=10 {
                log.extend(s.advance(Time::from_ms(ms), &resident));
                if s.scrub_due(Time::from_ms(ms)) {
                    for (m, _) in s.scrub(Time::from_ms(ms)) {
                        s.repaired(m);
                        log.push(m);
                    }
                }
            }
            (log, s.upsets(), s.detected(), s.scrubs())
        };
        assert_eq!(run(), run());
    }
}
