//! CheckPlane — cross-layer structural invariant checking.
//!
//! The paper's central correctness claims are *structural*: UNIMEM caches any
//! page at exactly one node, the dual-stage SMMU never serves a translation
//! that disagrees with the page tables, partial reconfiguration never lets two
//! modules share a fabric region, and the scheduler neither loses nor
//! duplicates tasks across queues and migrations. The CheckPlane turns these
//! into machine-checked invariants that every layer can assert at a
//! configurable cadence.
//!
//! Like [`crate::fault`], the CheckPlane is **zero-cost when disabled**: a
//! disabled [`CheckPlane`] draws nothing from any RNG, records no metrics,
//! emits no trace events, and every `check*` call returns immediately. Layer
//! hooks (`check_invariants(&self, &mut CheckPlane)`) additionally early-out
//! on [`CheckPlane::is_enabled`] so no per-entry work happens either. This
//! keeps the determinism contract intact: exports are byte-identical with the
//! checker compiled in but switched off.
//!
//! Entry points:
//! * [`CheckPlane::enabled`] / [`CheckPlane::disabled`] — explicit.
//! * [`CheckPlane::armed`] — the caller's run context decides: its
//!   `check` cadence is 0 (off) or `N` (a strict plane checking every
//!   N-th opportunity). Binaries fill it from `ECOSCALE_CHECK`; library
//!   code never reads the variable.
//! * [`shrink`] — generic delta-debugging reducer for failing operation
//!   streams, shared by the differential-oracle property tests and the
//!   `fuzz_configs` sweep binary.

use std::collections::BTreeMap;
use std::fmt;

use crate::snap::{Persist, RestoreError, SnapIo};

/// Environment variable binaries read for the check cadence; see
/// [`RunCtx::parse`](crate::pool::RunCtx::parse).
pub const CHECK_ENV: &str = "ECOSCALE_CHECK";

/// Upper bound on retained violations; past this we only count.
const MAX_RETAINED: usize = 64;

/// Named invariants — the catalog. Names are `layer.property` so violation
/// reports are self-describing and DESIGN.md §10 can mirror this table.
pub mod invariant {
    /// TLB occupancy never exceeds the configured capacity.
    pub const SMMU_TLB_BOUNDED: &str = "smmu.tlb_bounded";
    /// Every TLB entry agrees with a fresh stage-1 ∘ stage-2 walk
    /// (both the output frame and the cached permission bits).
    pub const SMMU_TLB_CONSISTENT: &str = "smmu.tlb_consistent";
    /// The MRU fast slot mirrors a live TLB entry.
    pub const SMMU_MRU_COHERENT: &str = "smmu.mru_coherent";
    /// Directory overrides stay in range and never alias the natural home
    /// (a page is cacheable at exactly one node).
    pub const UNIMEM_SINGLE_HOME: &str = "unimem.single_home";
    /// Per-kind access counts agree with the per-node cache counters.
    pub const UNIMEM_COUNTS_AGREE: &str = "unimem.counts_agree";
    /// Every memoized route equals a fresh route computation on the
    /// (immutable) topology.
    pub const NOC_ROUTE_MEMO_FRESH: &str = "noc.route_memo_fresh";
    /// Message/packet conservation: every transfer is accounted exactly once
    /// in the hop histogram, queueing stats and route-memo counters.
    pub const NOC_CONSERVATION: &str = "noc.conservation";
    /// Link bookkeeping agreement: busy-time and free-at maps track the same
    /// link set.
    pub const NOC_LINK_BOOKKEEPING: &str = "noc.link_bookkeeping";
    /// No task index appears more than once across worker queues, the central
    /// queue and in-flight slots.
    pub const SCHED_NO_DUPLICATE_TASKS: &str = "sched.no_duplicate_tasks";
    /// Every submitted task is eventually completed or declared lost.
    pub const SCHED_TASK_CONSERVATION: &str = "sched.task_conservation";
    /// No two placements overlap and every placement fits the fabric.
    pub const FABRIC_REGION_EXCLUSIVE: &str = "fabric.region_exclusive";
    /// Each placed region still satisfies the resource demand recorded for it.
    pub const FABRIC_DEMAND_SATISFIED: &str = "fabric.demand_satisfied";
    /// The daemon's loaded-module map and the floorplanner's placements
    /// describe the same residency (bitstream bookkeeping agreement).
    pub const FABRIC_RESIDENCY_AGREES: &str = "fabric.residency_agrees";
    /// Every resident module still has a golden bitstream in the library to
    /// scrub/reconfigure against.
    pub const FABRIC_GOLDEN_BITSTREAM: &str = "fabric.golden_bitstream";
    /// SEU scrubber counters stay mutually consistent
    /// (detected + masked never exceed injected upsets).
    pub const SEU_COUNTS_AGREE: &str = "seu.counts_agree";
    /// Simulated time never moves backwards between checks.
    pub const SYSTEM_TIME_MONOTONE: &str = "system.time_monotone";
    /// Accumulated energy never decreases between checks.
    pub const SYSTEM_ENERGY_MONOTONE: &str = "system.energy_monotone";
    /// The sharded engine's safe-window end never moves backwards, and no
    /// cluster clock ever runs ahead of the window it executed under.
    pub const SHARD_WINDOW_MONOTONE: &str = "shard.window_monotone";
    /// Cross-shard mailbox conservation: every message sent through a
    /// per-pair mailbox is delivered exactly once, and no mailbox holds
    /// messages after the engine stops (stops happen post-drain).
    pub const SHARD_MAILBOX_CONSERVED: &str = "shard.mailbox_conserved";
    /// ServePlane request conservation: every submitted request is accounted
    /// exactly once (`submitted = admitted + shed` and
    /// `admitted = queued + in-flight + completed + failed`) at every cadence
    /// tick and at drain. Rejected is not lost.
    pub const SERVE_REQUEST_CONSERVED: &str = "serve.request_conserved";
    /// No ServePlane tenant queue ever exceeds its configured bound, so
    /// backpressure is explicit load-shedding rather than unbounded buffering.
    pub const SERVE_QUEUE_BOUNDED: &str = "serve.queue_bounded";
    /// A snapshot round-trip (serialize → parse → restore) reproduces the
    /// exact pre-snapshot state: re-serializing the restored state yields
    /// byte-identical snapshot bytes.
    pub const SNAP_ROUNDTRIP_IDENTICAL: &str = "snap.roundtrip_identical";
    /// Snapshots with a bad magic, future version, corrupted section or
    /// truncated body are refused with a typed error and never partially
    /// applied.
    pub const SNAP_VERSION_REFUSED: &str = "snap.version_refused";
    /// Resuming a checkpoint taken at any safe window boundary runs the
    /// rest of the simulation bit-identically: the resumed exports match
    /// the uninterrupted run byte for byte.
    pub const SNAP_RESUME_EQUIVALENT: &str = "snap.resume_equivalent";
    /// TelePlane window conservation: for every windowed counter, the
    /// counts attributed to closed windows (retained ring + evicted
    /// windows) plus the open window sum exactly to the lifetime
    /// counter — no event is double-counted or dropped by a roll.
    pub const TELEM_WINDOW_CONSERVED: &str = "telem.window_conserved";
    /// Test-only hook used by `fuzz_configs --inject-violation` to prove the
    /// catch → shrink → repro pipeline works end to end.
    pub const SABOTAGE: &str = "check.sabotage";

    /// The full catalog as `(name, description)` pairs, mirrored by the
    /// DESIGN.md §10 table.
    pub const CATALOG: &[(&str, &str)] = &[
        (SMMU_TLB_BOUNDED, "TLB occupancy <= configured capacity"),
        (
            SMMU_TLB_CONSISTENT,
            "TLB entries agree with stage-1/stage-2 walks",
        ),
        (SMMU_MRU_COHERENT, "MRU fast slot mirrors a live TLB entry"),
        (
            UNIMEM_SINGLE_HOME,
            "directory overrides in range, never identity",
        ),
        (
            UNIMEM_COUNTS_AGREE,
            "access-kind counts match cache counters",
        ),
        (
            NOC_ROUTE_MEMO_FRESH,
            "memoized routes equal fresh computations",
        ),
        (
            NOC_CONSERVATION,
            "transfers conserved across hop/queue accounting",
        ),
        (
            NOC_LINK_BOOKKEEPING,
            "busy-time and free-at track same link set",
        ),
        (SCHED_NO_DUPLICATE_TASKS, "no task queued or running twice"),
        (SCHED_TASK_CONSERVATION, "completed + lost == submitted"),
        (
            FABRIC_REGION_EXCLUSIVE,
            "placements disjoint and inside fabric",
        ),
        (
            FABRIC_DEMAND_SATISFIED,
            "placed regions still cover their demand",
        ),
        (
            FABRIC_RESIDENCY_AGREES,
            "daemon loaded map matches floorplan",
        ),
        (
            FABRIC_GOLDEN_BITSTREAM,
            "resident modules have library bitstreams",
        ),
        (SEU_COUNTS_AGREE, "scrubber counters mutually consistent"),
        (SYSTEM_TIME_MONOTONE, "simulated time never decreases"),
        (SYSTEM_ENERGY_MONOTONE, "accumulated energy never decreases"),
        (
            SHARD_WINDOW_MONOTONE,
            "safe-window end and cluster clocks monotone",
        ),
        (
            SHARD_MAILBOX_CONSERVED,
            "cross-shard messages delivered exactly once",
        ),
        (
            SERVE_REQUEST_CONSERVED,
            "admitted == queued + in-flight + completed + failed",
        ),
        (
            SERVE_QUEUE_BOUNDED,
            "tenant queues never exceed the configured cap",
        ),
        (
            SNAP_ROUNDTRIP_IDENTICAL,
            "restore(snapshot(s)) re-serializes byte-identical",
        ),
        (
            SNAP_VERSION_REFUSED,
            "bad magic/version/checksum refused, never partial",
        ),
        (
            SNAP_RESUME_EQUIVALENT,
            "resumed exports match the uninterrupted run",
        ),
        (
            TELEM_WINDOW_CONSERVED,
            "windowed counts sum to lifetime counters",
        ),
        (SABOTAGE, "test-only deliberate violation hook"),
    ];
}

/// One recorded invariant violation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Violation {
    /// Name from [`invariant`].
    pub invariant: &'static str,
    /// Human-readable detail (which entry, expected vs got).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant `{}` violated: {}",
            self.invariant, self.detail
        )
    }
}

/// Registry of declarative invariant checks with a cadence gate.
///
/// Layers take `&mut CheckPlane` in their `check_invariants` hooks; callers
/// decide cadence via [`CheckPlane::due`]. Violations are collected (up to a
/// cap) rather than panicking so a fuzz sweep can report and shrink them.
#[derive(Debug, Clone)]
pub struct CheckPlane {
    enabled: bool,
    strict: bool,
    every: u64,
    calls: u64,
    checks_run: u64,
    violation_count: u64,
    violations: Vec<Violation>,
    watermarks: BTreeMap<&'static str, f64>,
}

impl CheckPlane {
    /// A disabled plane: every method is a cheap no-op.
    pub fn disabled() -> Self {
        CheckPlane {
            enabled: false,
            strict: false,
            every: 0,
            calls: 0,
            checks_run: 0,
            violation_count: 0,
            violations: Vec::new(),
            watermarks: BTreeMap::new(),
        }
    }

    /// An enabled plane whose [`due`](Self::due) gate fires every `every`-th
    /// call (`every == 0` is treated as 1: fire always).
    pub fn enabled(every: u64) -> Self {
        CheckPlane {
            enabled: true,
            every: every.max(1),
            ..CheckPlane::disabled()
        }
    }

    /// The plane for a run's check cadence: disabled at 0, otherwise enabled
    /// and **strict** (panics on the first violation: a hard gate).
    pub fn armed(every: u64) -> Self {
        CheckPlane {
            enabled: every > 0,
            strict: every > 0,
            every,
            ..CheckPlane::disabled()
        }
    }

    /// How the plane is armed: `(enabled, strict, cadence)`. Two planes
    /// armed alike may still hold different tallies.
    pub fn arming(&self) -> (bool, bool, u64) {
        (self.enabled, self.strict, self.every)
    }

    /// Whether checks are armed. Layer hooks early-out on `false` so a
    /// disabled plane costs one branch.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Cadence gate: returns `true` when a full check pass should run now.
    /// Always `false` (and does not even count calls) when disabled.
    #[inline]
    pub fn due(&mut self) -> bool {
        if !self.enabled {
            return false;
        }
        let fire = self.calls.is_multiple_of(self.every);
        self.calls += 1;
        fire
    }

    /// Assert `cond`; on failure record a violation with `detail()`'s output.
    /// The detail closure is only evaluated on failure.
    #[inline]
    pub fn check(&mut self, invariant: &'static str, cond: bool, detail: impl FnOnce() -> String) {
        if !self.enabled {
            return;
        }
        self.checks_run += 1;
        if !cond {
            self.violation_count += 1;
            if self.strict {
                panic!(
                    "{}",
                    Violation {
                        invariant,
                        detail: detail()
                    }
                );
            }
            if self.violations.len() < MAX_RETAINED {
                self.violations.push(Violation {
                    invariant,
                    detail: detail(),
                });
            }
        }
    }

    /// Assert `value` never decreases across successive calls for the same
    /// invariant name (per-plane high-watermark).
    pub fn check_monotone(&mut self, invariant: &'static str, value: f64) {
        if !self.enabled {
            return;
        }
        let prev = self.watermarks.get(invariant).copied();
        self.check(invariant, prev.is_none_or(|p| value >= p), || {
            format!(
                "value {value} dropped below watermark {}",
                prev.unwrap_or(f64::NAN)
            )
        });
        let slot = self.watermarks.entry(invariant).or_insert(value);
        if value > *slot {
            *slot = value;
        }
    }

    /// Folds another plane's tallies into this one (checks run, violation
    /// count, retained violations up to the cap). Watermarks are *not*
    /// merged — they are per-plane local state. Used by `fuzz_configs` to
    /// aggregate the per-phase planes of one configuration run.
    pub fn absorb(&mut self, other: &CheckPlane) {
        if !self.enabled {
            return;
        }
        self.checks_run += other.checks_run;
        self.violation_count += other.violation_count;
        for v in &other.violations {
            if self.violations.len() >= MAX_RETAINED {
                break;
            }
            self.violations.push(v.clone());
        }
    }

    /// `true` when no violation has been recorded.
    pub fn ok(&self) -> bool {
        self.violation_count == 0
    }

    /// Retained violations (capped; see [`violation_count`](Self::violation_count)).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// First recorded violation, if any.
    pub fn first(&self) -> Option<&Violation> {
        self.violations.first()
    }

    /// Total number of individual checks evaluated.
    pub fn checks_run(&self) -> u64 {
        self.checks_run
    }

    /// Total violations seen (including any past the retention cap).
    pub fn violation_count(&self) -> u64 {
        self.violation_count
    }
}

impl Default for CheckPlane {
    fn default() -> Self {
        CheckPlane::disabled()
    }
}

/// Invariant names load as interned strings and are refused unless
/// [`invariant::CATALOG`] lists them.
impl Persist for CheckPlane {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        io.bool(&mut self.enabled)?;
        io.bool(&mut self.strict)?;
        for v in [
            &mut self.every,
            &mut self.calls,
            &mut self.checks_run,
            &mut self.violation_count,
        ] {
            io.u64(v)?;
        }
        io.vec(&mut self.violations, "violations", |io, v| {
            io.static_str(&mut v.invariant)?;
            io.str(&mut v.detail)
        })?;
        let kept = self.violations.len();
        io.ensure(kept <= MAX_RETAINED, || {
            format!("{kept} retained violations exceeds cap {MAX_RETAINED}")
        })?;
        io.sorted_map(&mut self.watermarks, "watermarks")?;
        let mut names =
            (self.violations.iter().map(|v| v.invariant)).chain(self.watermarks.keys().copied());
        match names.find(|n| invariant::CATALOG.iter().all(|(known, _)| known != n)) {
            Some(name) => io.ensure(false, || format!("unknown invariant `{name}`")),
            None => Ok(()),
        }
    }
}

/// Delta-debugging reducer for failing operation streams.
///
/// Given `ops` for which `still_fails(ops)` is `true`, repeatedly removes
/// chunks (halving the chunk size down to 1) keeping any reduction that still
/// fails, until a fixed point. The result is 1-minimal with respect to single
/// element removal. `still_fails` must be deterministic — re-run the exact
/// reproduction (same seed) for each candidate.
pub fn shrink<T: Clone>(ops: &[T], mut still_fails: impl FnMut(&[T]) -> bool) -> Vec<T> {
    let mut cur: Vec<T> = ops.to_vec();
    debug_assert!(still_fails(&cur), "shrink() needs a failing input");
    let mut chunk = (cur.len() / 2).max(1);
    loop {
        let mut reduced = false;
        let mut start = 0;
        while start < cur.len() && cur.len() > 1 {
            let end = (start + chunk).min(cur.len());
            let mut candidate = Vec::with_capacity(cur.len() - (end - start));
            candidate.extend_from_slice(&cur[..start]);
            candidate.extend_from_slice(&cur[end..]);
            if !candidate.is_empty() && still_fails(&candidate) {
                cur = candidate;
                reduced = true;
                // Retry the same offset: the next chunk slid into place.
            } else {
                start = end;
            }
        }
        if !reduced {
            if chunk == 1 {
                break;
            }
            chunk = (chunk / 2).max(1);
        }
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plane_is_inert() {
        let mut cp = CheckPlane::disabled();
        assert!(!cp.is_enabled());
        for _ in 0..10 {
            assert!(!cp.due());
        }
        cp.check(invariant::SABOTAGE, false, || {
            unreachable!("detail must not run")
        });
        cp.check_monotone(invariant::SYSTEM_TIME_MONOTONE, -1.0);
        assert!(cp.ok());
        assert_eq!(cp.checks_run(), 0);
        assert!(cp.violations().is_empty());
    }

    #[test]
    fn cadence_fires_every_nth() {
        let mut cp = CheckPlane::enabled(3);
        let fired: Vec<bool> = (0..9).map(|_| cp.due()).collect();
        assert_eq!(
            fired,
            [true, false, false, true, false, false, true, false, false]
        );
        assert!(CheckPlane::enabled(0).due());
    }

    #[test]
    fn violations_are_recorded_and_counted() {
        let mut cp = CheckPlane::enabled(1);
        cp.check(invariant::SMMU_TLB_BOUNDED, true, || unreachable!());
        cp.check(invariant::SMMU_TLB_BOUNDED, false, || "3 > 2".to_string());
        assert!(!cp.ok());
        assert_eq!(cp.violation_count(), 1);
        assert_eq!(cp.checks_run(), 2);
        let v = cp.first().unwrap();
        assert_eq!(v.invariant, invariant::SMMU_TLB_BOUNDED);
        assert_eq!(
            v.to_string(),
            "invariant `smmu.tlb_bounded` violated: 3 > 2"
        );
    }

    #[test]
    fn retention_caps_but_count_does_not() {
        let mut cp = CheckPlane::enabled(1);
        for i in 0..(MAX_RETAINED + 10) {
            cp.check(invariant::SABOTAGE, false, || format!("v{i}"));
        }
        assert_eq!(cp.violations().len(), MAX_RETAINED);
        assert_eq!(cp.violation_count(), (MAX_RETAINED + 10) as u64);
    }

    #[test]
    fn monotone_watermark_flags_regressions() {
        let mut cp = CheckPlane::enabled(1);
        cp.check_monotone(invariant::SYSTEM_TIME_MONOTONE, 1.0);
        cp.check_monotone(invariant::SYSTEM_TIME_MONOTONE, 2.0);
        cp.check_monotone(invariant::SYSTEM_TIME_MONOTONE, 2.0);
        assert!(cp.ok());
        cp.check_monotone(invariant::SYSTEM_TIME_MONOTONE, 1.5);
        assert!(!cp.ok());
        // Independent watermark per invariant name.
        cp.check_monotone(invariant::SYSTEM_ENERGY_MONOTONE, 0.0);
        assert_eq!(cp.violation_count(), 1);
    }

    #[test]
    fn catalog_covers_every_constant_once() {
        let names: Vec<&str> = invariant::CATALOG.iter().map(|(n, _)| *n).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate catalog entries");
        for (name, desc) in invariant::CATALOG {
            assert!(name.contains('.'), "catalog name `{name}` not layer-scoped");
            assert!(!desc.is_empty());
        }
    }

    #[test]
    fn shrink_reduces_to_minimal_failing_subset() {
        // Failure: stream contains both a 3 and a 7.
        let ops: Vec<u32> = (0..100).collect();
        let min = shrink(&ops, |s| s.contains(&3) && s.contains(&7));
        assert_eq!(min, vec![3, 7]);

        // Failure: any stream with >= 5 elements.
        let min = shrink(&ops, |s| s.len() >= 5);
        assert_eq!(min.len(), 5);

        // Single-element failing stream is already minimal.
        let min = shrink(&[42u32], |s| !s.is_empty());
        assert_eq!(min, vec![42]);
    }

    #[test]
    #[should_panic(expected = "invariant `check.sabotage` violated: boom")]
    fn strict_plane_panics_on_first_violation() {
        let mut cp = CheckPlane::armed(1);
        cp.check(invariant::SABOTAGE, true, || unreachable!());
        cp.check(invariant::SABOTAGE, false, || "boom".to_string());
    }

    #[test]
    fn snapshot_round_trips_and_rejects_unknown_invariants() {
        use crate::snap::{SnapReader, SnapWriter};
        let mut cp = CheckPlane::enabled(3);
        cp.due();
        cp.due();
        cp.check(invariant::SMMU_TLB_BOUNDED, true, || unreachable!());
        cp.check(invariant::SABOTAGE, false, || "planted".to_string());
        cp.check_monotone(invariant::SYSTEM_TIME_MONOTONE, 7.5);
        let mut w = SnapWriter::new();
        w.save(&mut cp);
        let bytes = w.into_bytes();
        let back = SnapReader::new(&bytes)
            .load(CheckPlane::disabled())
            .expect("restore");
        assert_eq!(back.is_enabled(), cp.is_enabled());
        assert_eq!(back.calls, cp.calls);
        assert_eq!(back.checks_run(), cp.checks_run());
        assert_eq!(back.violation_count(), cp.violation_count());
        assert_eq!(back.violations(), cp.violations());
        assert_eq!(back.watermarks, cp.watermarks);
        // Restored keys must be the catalog's &'static strs, so a further
        // check_monotone continues the same watermark.
        let mut back = back;
        back.check_monotone(invariant::SYSTEM_TIME_MONOTONE, 7.0);
        assert_eq!(back.violation_count(), cp.violation_count() + 1);

        // An invariant name outside the catalog is malformed, not invented.
        let mut w = SnapWriter::new();
        w.save(&mut true);
        w.save(&mut false);
        w.save(&mut 1u64);
        w.save(&mut 0u64);
        w.save(&mut 0u64);
        w.save(&mut 1u64);
        w.save(&mut 1usize);
        w.save(&mut "made.up_invariant".to_owned());
        w.save(&mut "detail".to_owned());
        w.save(&mut 0usize);
        let bytes = w.into_bytes();
        let err = SnapReader::new(&bytes)
            .load(CheckPlane::disabled())
            .unwrap_err();
        assert!(err.to_string().contains("made.up_invariant"), "{err}");
    }

    #[test]
    fn armed_is_off_at_zero_and_strict_at_its_cadence() {
        assert!(!CheckPlane::armed(0).is_enabled());
        let mut cp = CheckPlane::armed(2);
        assert!(cp.strict, "armed planes are hard gates");
        assert_eq!([cp.due(), cp.due(), cp.due()], [true, false, true]);
    }
}
