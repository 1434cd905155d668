//! The dual-stage System MMU (Fig. 4).
//!
//! ECOSCALE maps reconfigurable accelerators into the *virtual* address
//! space: an accelerator issues the same user-space pointers the
//! application holds, and a two-stage I/O MMU (stage 1: VA→IPA per
//! process, stage 2: IPA→PA per VM) translates them in hardware. This is
//! what enables **user-level access** to accelerators — no OS/hypervisor
//! trap, no page pinning, no explicit buffer mapping per call.
//!
//! [`Smmu`] models the translation data path (TLB hits, nested table
//! walks) and [`InvocationModel`] compares the two accelerator-invocation
//! paths the paper contrasts: the traditional OS-mediated path versus the
//! ECOSCALE user-level path (experiment E4).

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use ecoscale_sim::check::{invariant, CheckPlane};
use ecoscale_sim::{
    Counter, Duration, Histogram, MetricsRegistry, Persist, ProbFault, RestoreError, SimRng, SnapIo,
};

use crate::addr::{PhysAddr, VirtAddr};
use crate::page_table::{PagePerms, PageTable, TranslateError};

/// SMMU geometry and timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmmuConfig {
    /// Unified TLB capacity in entries.
    pub tlb_entries: usize,
    /// Radix levels of the stage-1 table (ARMv8: 4).
    pub stage1_levels: u32,
    /// Radix levels of the stage-2 table (ARMv8: 4).
    pub stage2_levels: u32,
    /// Latency of one page-table memory access during a walk.
    pub table_access: Duration,
    /// Latency of a TLB hit.
    pub tlb_hit: Duration,
}

impl Default for SmmuConfig {
    fn default() -> Self {
        SmmuConfig {
            tlb_entries: 64,
            stage1_levels: 4,
            stage2_levels: 4,
            table_access: Duration::from_ns(20), // table walks mostly hit L2
            tlb_hit: Duration::from_ns(1),
        }
    }
}

impl SmmuConfig {
    /// Memory accesses in a full nested (two-stage) walk.
    ///
    /// Every stage-1 table pointer is itself an IPA and must be walked
    /// through stage 2, giving the classic `n·m + n + m` accesses for
    /// `n` stage-1 and `m` stage-2 levels (24 for ARMv8's 4+4).
    pub fn nested_walk_accesses(&self) -> u32 {
        self.stage1_levels * self.stage2_levels + self.stage1_levels + self.stage2_levels
    }

    /// Latency of a full nested walk.
    pub fn walk_latency(&self) -> Duration {
        self.table_access * self.nested_walk_accesses() as u64
    }
}

/// A translation fault raised by the SMMU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmmuFault {
    /// Stage-1 (VA→IPA) fault.
    Stage1(TranslateError),
    /// Stage-2 (IPA→PA) fault.
    Stage2(TranslateError),
    /// A spurious fault injected by an active fault campaign (transient
    /// walker/table upset). The translation would otherwise have
    /// succeeded; a retry is expected to go through.
    Injected,
}

impl fmt::Display for SmmuFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmmuFault::Stage1(e) => write!(f, "stage-1 fault: {e}"),
            SmmuFault::Stage2(e) => write!(f, "stage-2 fault: {e}"),
            SmmuFault::Injected => write!(f, "injected transient translation fault"),
        }
    }
}

impl Error for SmmuFault {}

#[derive(Debug, Clone, Copy, Default)]
struct TlbEntry {
    ppn: u64,
    perms: PagePerms,
    lru: u64,
}

/// The most-recently-used translation, held in front of the TLB map.
///
/// Accelerator streams touch the same page for many consecutive accesses,
/// so this single slot absorbs most lookups without hashing. LRU
/// bookkeeping for the shadowed TLB entry is deferred: `last_used` is
/// written back to the map entry when the slot moves to another page, so
/// eviction decisions are identical to a map-only TLB.
#[derive(Debug, Clone, Copy, Default)]
struct MruSlot {
    vpn: u64,
    ppn: u64,
    perms: PagePerms,
    last_used: u64,
}

/// The dual-stage SMMU: two page tables plus a unified TLB caching the
/// combined VA→PA translation.
///
/// # Example
///
/// ```
/// use ecoscale_mem::{PagePerms, Smmu, SmmuConfig, VirtAddr};
///
/// let mut smmu = Smmu::new(SmmuConfig::default());
/// smmu.map(VirtAddr(0x5000), 0x20, 0x80, PagePerms::RW)?;
/// let (pa, walk) = smmu.translate(VirtAddr(0x5008), PagePerms::READ)?;
/// assert_eq!(pa.0, 0x80008);
/// let (_, hit) = smmu.translate(VirtAddr(0x5010), PagePerms::READ)?;
/// assert!(hit < walk, "second access hits the TLB");
/// # Ok::<(), ecoscale_mem::SmmuFault>(())
/// ```
#[derive(Debug)]
pub struct Smmu {
    config: SmmuConfig,
    stage1: PageTable,
    stage2: PageTable,
    tlb: HashMap<u64, TlbEntry>,
    mru: Option<MruSlot>,
    clock: u64,
    tlb_hits: Counter,
    tlb_misses: Counter,
    mru_hits: Counter,
    faults: Counter,
    injected: Counter,
    injection: Option<ProbFault>,
    translate_ns: Histogram,
}

impl Smmu {
    /// Creates an SMMU with empty tables.
    pub fn new(config: SmmuConfig) -> Smmu {
        Smmu {
            stage1: PageTable::new(config.stage1_levels),
            stage2: PageTable::new(config.stage2_levels),
            config,
            tlb: HashMap::with_capacity(config.tlb_entries),
            mru: None,
            clock: 0,
            tlb_hits: Counter::new(),
            tlb_misses: Counter::new(),
            mru_hits: Counter::new(),
            faults: Counter::new(),
            injected: Counter::new(),
            injection: None,
            translate_ns: Histogram::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SmmuConfig {
        &self.config
    }

    /// Arms fault injection: each translation faults spuriously with
    /// probability `p`, drawn from a stream seeded by `rng`. A `p` of
    /// zero disarms injection entirely (no draws, no behaviour change).
    pub fn set_fault_injection(&mut self, p: f64, rng: SimRng) {
        self.injection = if p > 0.0 {
            Some(ProbFault::new(p, rng))
        } else {
            None
        };
    }

    /// Spurious faults injected by an active campaign (a subset of
    /// [`Smmu::faults`]).
    pub fn injected_faults(&self) -> u64 {
        self.injected.get()
    }

    /// Stage-1 table (VA→IPA), e.g. to map process pages.
    pub fn stage1_mut(&mut self) -> &mut PageTable {
        &mut self.stage1
    }

    /// Convenience: maps `va`'s page through both stages
    /// (VA page → `ipa_page` → `pa_page`).
    ///
    /// # Errors
    ///
    /// Returns a fault if either stage already maps the page.
    pub fn map(
        &mut self,
        va: VirtAddr,
        ipa_page: u64,
        pa_page: u64,
        perms: PagePerms,
    ) -> Result<(), SmmuFault> {
        self.stage1
            .map(va.page(), ipa_page, perms)
            .map_err(|_| SmmuFault::Stage1(TranslateError::NotMapped { page: va.page() }))?;
        // Stage-2 entries may be shared between many stage-1 pages; a
        // double map of the same IPA is fine and kept as-is.
        let _ = self.stage2.map(ipa_page, pa_page, PagePerms::RW);
        Ok(())
    }

    /// Translates `va`, returning the physical address and the latency of
    /// this translation (TLB hit or nested walk).
    ///
    /// # Errors
    ///
    /// Returns the faulting stage on a missing mapping or permission
    /// violation. Faults cost a full walk.
    pub fn translate(
        &mut self,
        va: VirtAddr,
        need: PagePerms,
    ) -> Result<(PhysAddr, Duration), SmmuFault> {
        self.clock += 1;
        // Injected transient faults strike before any lookup: the walker
        // itself glitches, so even a TLB-resident page faults. Charged a
        // full walk, like architectural faults.
        if let Some(inj) = &mut self.injection {
            if inj.strikes() {
                self.faults.incr();
                self.injected.incr();
                let walk = self.config.walk_latency();
                self.translate_ns.record(walk.as_ns());
                return Err(SmmuFault::Injected);
            }
        }
        let vpn = va.page();
        // MRU fast path: repeated touches of one page skip the map.
        if let Some(m) = &mut self.mru {
            if m.vpn == vpn && m.perms.allows(need) {
                m.last_used = self.clock;
                self.tlb_hits.incr();
                self.mru_hits.incr();
                self.translate_ns.record(self.config.tlb_hit.as_ns());
                return Ok((
                    PhysAddr::from_page(m.ppn, va.page_offset()),
                    self.config.tlb_hit,
                ));
            }
        }
        // Moving to a different page: sync the shadowed entry's LRU stamp
        // so eviction order matches a map-only TLB exactly.
        if let Some(m) = self.mru.take() {
            if let Some(e) = self.tlb.get_mut(&m.vpn) {
                e.lru = e.lru.max(m.last_used);
            }
        }
        if let Some(e) = self.tlb.get_mut(&vpn) {
            if e.perms.allows(need) {
                e.lru = self.clock;
                let slot = MruSlot {
                    vpn,
                    ppn: e.ppn,
                    perms: e.perms,
                    last_used: self.clock,
                };
                self.tlb_hits.incr();
                self.mru = Some(slot);
                self.translate_ns.record(self.config.tlb_hit.as_ns());
                return Ok((
                    PhysAddr::from_page(slot.ppn, va.page_offset()),
                    self.config.tlb_hit,
                ));
            }
            // permission upgrade needs a walk; fall through
        }
        self.tlb_misses.incr();
        let walk = self.config.walk_latency();
        let ipa_page = self.stage1.translate(vpn, need).map_err(|e| {
            self.faults.incr();
            self.translate_ns.record(walk.as_ns());
            SmmuFault::Stage1(e)
        })?;
        let pa_page = self
            .stage2
            .translate(ipa_page, PagePerms::READ)
            .map_err(|e| {
                self.faults.incr();
                self.translate_ns.record(walk.as_ns());
                SmmuFault::Stage2(e)
            })?;
        // Fill the TLB with the combined translation. The cached entry must
        // carry the *stage-1* permission bits: caching RW unconditionally
        // would let a read-only page be written once TLB-resident.
        let perms = self
            .stage1
            .perms_of(vpn)
            .expect("stage-1 walk above succeeded");
        if self.tlb.len() >= self.config.tlb_entries {
            if let Some((&evict, _)) = self.tlb.iter().min_by_key(|(_, e)| e.lru) {
                self.tlb.remove(&evict);
            }
        }
        self.tlb.insert(
            vpn,
            TlbEntry {
                ppn: pa_page,
                perms,
                lru: self.clock,
            },
        );
        self.mru = Some(MruSlot {
            vpn,
            ppn: pa_page,
            perms,
            last_used: self.clock,
        });
        self.translate_ns
            .record((self.config.tlb_hit + walk).as_ns());
        Ok((
            PhysAddr::from_page(pa_page, va.page_offset()),
            self.config.tlb_hit + walk,
        ))
    }

    /// Drops every TLB entry, including the MRU fast slot (e.g. on
    /// context switch or reconfiguration of the accelerator).
    pub fn invalidate_tlb(&mut self) {
        self.tlb.clear();
        self.mru = None;
    }

    /// TLB hits so far.
    pub fn tlb_hits(&self) -> u64 {
        self.tlb_hits.get()
    }

    /// TLB misses so far.
    pub fn tlb_misses(&self) -> u64 {
        self.tlb_misses.get()
    }

    /// TLB hits served by the last-translation MRU slot (a subset of
    /// [`Smmu::tlb_hits`]).
    pub fn mru_hits(&self) -> u64 {
        self.mru_hits.get()
    }

    /// Translation faults so far.
    pub fn faults(&self) -> u64 {
        self.faults.get()
    }

    /// Folds this SMMU's instruments into `m` under `prefix`
    /// (`{prefix}.tlb_hits`, `.tlb_misses`, `.mru_hits`, `.faults`,
    /// `.translate_ns`). Exporting several SMMUs under one prefix
    /// aggregates them.
    pub fn export_metrics(&self, m: &mut MetricsRegistry, prefix: &str) {
        m.add(&format!("{prefix}.tlb_hits"), self.tlb_hits.get());
        m.add(&format!("{prefix}.tlb_misses"), self.tlb_misses.get());
        m.add(&format!("{prefix}.mru_hits"), self.mru_hits.get());
        m.add(&format!("{prefix}.faults"), self.faults.get());
        if self.injection.is_some() {
            m.add(&format!("{prefix}.injected_faults"), self.injected.get());
        }
        m.merge_hist(&format!("{prefix}.translate_ns"), &self.translate_ns);
    }

    /// CheckPlane hook: asserts the cached translation state agrees with the
    /// page tables. Read-only; early-outs when `cp` is disabled.
    ///
    /// * `smmu.tlb_bounded` — occupancy never exceeds the configured size.
    /// * `smmu.tlb_consistent` — each entry's output frame and permission
    ///   bits equal a fresh stage-1 ∘ stage-2 walk.
    /// * `smmu.mru_coherent` — the MRU fast slot mirrors a live TLB entry.
    pub fn check_invariants(&self, cp: &mut CheckPlane) {
        if !cp.is_enabled() {
            return;
        }
        cp.check(
            invariant::SMMU_TLB_BOUNDED,
            self.tlb.len() <= self.config.tlb_entries,
            || {
                format!(
                    "tlb holds {} entries, capacity {}",
                    self.tlb.len(),
                    self.config.tlb_entries
                )
            },
        );
        for (&vpn, e) in &self.tlb {
            let walk = self
                .stage1
                .translate(vpn, PagePerms::NONE)
                .ok()
                .and_then(|ipa| self.stage2.translate(ipa, PagePerms::NONE).ok());
            cp.check(invariant::SMMU_TLB_CONSISTENT, walk == Some(e.ppn), || {
                format!(
                    "vpn {vpn:#x}: cached ppn {:#x}, walk yields {walk:?}",
                    e.ppn
                )
            });
            let perms = self.stage1.perms_of(vpn);
            cp.check(
                invariant::SMMU_TLB_CONSISTENT,
                perms == Some(e.perms),
                || {
                    format!(
                        "vpn {vpn:#x}: cached perms {}, stage-1 has {perms:?}",
                        e.perms
                    )
                },
            );
        }
        if let Some(m) = &self.mru {
            let entry = self.tlb.get(&m.vpn);
            cp.check(
                invariant::SMMU_MRU_COHERENT,
                entry.is_some_and(|e| e.ppn == m.ppn && e.perms == m.perms),
                || format!("mru slot vpn {:#x} does not mirror a live TLB entry", m.vpn),
            );
        }
    }
}

/// Both page tables, the TLB (entries in ascending virtual-page order),
/// the MRU slot, the LRU clock, counters, armed fault injection and the
/// latency histogram. The [`SmmuConfig`] is structural and not in the
/// stream: a load refuses a TLB beyond its capacity.
impl Persist for Smmu {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        self.stage1.persist(io)?;
        self.stage2.persist(io)?;
        io.sorted_map(&mut self.tlb, "TLB entries")?;
        let (n, cap) = (self.tlb.len(), self.config.tlb_entries);
        io.ensure(n <= cap, || {
            format!("snapshot TLB holds {n} entries, capacity {cap}")
        })?;
        self.mru.persist(io)?;
        io.u64(&mut self.clock)?;
        for c in [
            &mut self.tlb_hits,
            &mut self.tlb_misses,
            &mut self.mru_hits,
            &mut self.faults,
            &mut self.injected,
        ] {
            c.persist(io)?;
        }
        self.injection.persist(io)?;
        self.translate_ns.persist(io)
    }
}

impl Persist for TlbEntry {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        io.u64(&mut self.ppn)?;
        self.perms.persist(io)?;
        io.u64(&mut self.lru)
    }
}

impl Persist for MruSlot {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        io.u64(&mut self.vpn)?;
        io.u64(&mut self.ppn)?;
        self.perms.persist(io)?;
        io.u64(&mut self.last_used)
    }
}

/// Costs of launching work on an accelerator via the two paths the paper
/// contrasts (experiment E4).
///
/// * **OS-mediated** (state of the art without an SMMU): a syscall into
///   the driver, per-page pinning and IOMMU programming, then the launch.
/// * **User-level** (ECOSCALE): ring a doorbell; the accelerator resolves
///   user pointers itself through the dual-stage SMMU, paying only
///   first-touch TLB walks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvocationModel {
    /// Syscall entry + exit (trap, context, return).
    pub syscall: Duration,
    /// Per-page pin + IOMMU map cost in the driver path.
    pub pin_per_page: Duration,
    /// Driver bookkeeping per call (command validation, queue setup).
    pub driver_overhead: Duration,
    /// User-level doorbell write (uncached MMIO store).
    pub doorbell: Duration,
}

impl Default for InvocationModel {
    fn default() -> Self {
        InvocationModel {
            syscall: Duration::from_ns(1_300),
            pin_per_page: Duration::from_ns(350),
            driver_overhead: Duration::from_ns(900),
            doorbell: Duration::from_ns(120),
        }
    }
}

impl InvocationModel {
    /// Launch overhead via the OS-mediated path for a buffer of `pages`.
    pub fn os_mediated(&self, pages: u64) -> Duration {
        self.syscall + self.driver_overhead + self.pin_per_page * pages
    }

    /// Launch overhead via the user-level path: doorbell plus the exposed
    /// fraction of first-touch TLB walks for `pages` through
    /// `smmu_config`. Walks overlap the accelerator pipeline; empirically
    /// ~a quarter of their latency is exposed on the critical path.
    pub fn user_level(&self, pages: u64, smmu_config: &SmmuConfig) -> Duration {
        let walks = smmu_config.walk_latency() * pages.min(smmu_config.tlb_entries as u64);
        self.doorbell + walks / 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapped_smmu(pages: u64) -> Smmu {
        let mut s = Smmu::new(SmmuConfig::default());
        for p in 0..pages {
            s.map(
                VirtAddr::from_page(p, 0),
                0x100 + p,
                0x1000 + p,
                PagePerms::RW,
            )
            .unwrap();
        }
        s
    }

    #[test]
    fn nested_walk_access_count_matches_armv8() {
        let c = SmmuConfig::default();
        assert_eq!(c.nested_walk_accesses(), 24);
        assert_eq!(c.walk_latency(), Duration::from_ns(480));
    }

    #[test]
    fn translate_walk_then_hit() {
        let mut s = mapped_smmu(4);
        let (pa, first) = s.translate(VirtAddr(0x10), PagePerms::READ).unwrap();
        assert_eq!(pa, PhysAddr::from_page(0x1000, 0x10));
        let (_, second) = s.translate(VirtAddr(0x20), PagePerms::READ).unwrap();
        assert!(second < first);
        assert_eq!(s.tlb_hits(), 1);
        assert_eq!(s.tlb_misses(), 1);
    }

    #[test]
    fn faults_on_unmapped_and_permission() {
        let mut s = mapped_smmu(1);
        let err = s
            .translate(VirtAddr::from_page(99, 0), PagePerms::READ)
            .unwrap_err();
        assert!(matches!(
            err,
            SmmuFault::Stage1(TranslateError::NotMapped { .. })
        ));
        assert_eq!(s.faults(), 1);
        assert!(err.to_string().contains("stage-1"));
    }

    #[test]
    fn tlb_fill_preserves_stage1_perms() {
        // Regression: the TLB fill used to cache RW unconditionally, so a
        // read-only page became writable once resident.
        let mut s = Smmu::new(SmmuConfig::default());
        s.map(VirtAddr::from_page(3, 0), 0x30, 0x300, PagePerms::READ)
            .unwrap();
        // Walk once (read), making the page TLB-resident.
        s.translate(VirtAddr::from_page(3, 8), PagePerms::READ)
            .unwrap();
        assert_eq!(s.tlb_misses(), 1);
        // A write must still be denied by the stage-1 permissions.
        let err = s
            .translate(VirtAddr::from_page(3, 8), PagePerms::WRITE)
            .unwrap_err();
        assert!(matches!(
            err,
            SmmuFault::Stage1(TranslateError::PermissionDenied { .. })
        ));
        let mut cp = CheckPlane::enabled(1);
        s.check_invariants(&mut cp);
        assert!(cp.ok(), "{:?}", cp.first());
    }

    #[test]
    fn check_invariants_pass_and_catch_staleness() {
        let mut s = mapped_smmu(8);
        for p in 0..8 {
            s.translate(VirtAddr::from_page(p, 0), PagePerms::RW)
                .unwrap();
        }
        let mut cp = CheckPlane::enabled(1);
        s.check_invariants(&mut cp);
        assert!(cp.ok(), "{:?}", cp.first());
        assert!(cp.checks_run() > 8);
        // Remapping stage-1 underneath the TLB (without an invalidate) must
        // be flagged as a stale cached translation.
        s.stage1_mut().unmap(2);
        s.stage1_mut().map(2, 0x999, PagePerms::RW).unwrap();
        let mut cp = CheckPlane::enabled(1);
        s.check_invariants(&mut cp);
        assert!(!cp.ok());
        assert_eq!(
            cp.first().unwrap().invariant,
            invariant::SMMU_TLB_CONSISTENT
        );
        // A disabled plane does no work on the same (inconsistent) state.
        let mut off = CheckPlane::disabled();
        s.check_invariants(&mut off);
        assert!(off.ok());
        assert_eq!(off.checks_run(), 0);
    }

    #[test]
    fn stage2_fault_detected() {
        let mut s = Smmu::new(SmmuConfig::default());
        // map stage 1 only
        s.stage1_mut().map(7, 0x70, PagePerms::RW).unwrap();
        let err = s
            .translate(VirtAddr::from_page(7, 0), PagePerms::READ)
            .unwrap_err();
        assert!(matches!(err, SmmuFault::Stage2(_)));
    }

    #[test]
    fn tlb_capacity_evicts_lru() {
        let cfg = SmmuConfig {
            tlb_entries: 2,
            ..SmmuConfig::default()
        };
        let mut s = Smmu::new(cfg);
        for p in 0..3 {
            s.map(
                VirtAddr::from_page(p, 0),
                0x100 + p,
                0x1000 + p,
                PagePerms::RW,
            )
            .unwrap();
        }
        s.translate(VirtAddr::from_page(0, 0), PagePerms::READ)
            .unwrap(); // miss
        s.translate(VirtAddr::from_page(1, 0), PagePerms::READ)
            .unwrap(); // miss
        s.translate(VirtAddr::from_page(0, 0), PagePerms::READ)
            .unwrap(); // hit; 1 is LRU
        s.translate(VirtAddr::from_page(2, 0), PagePerms::READ)
            .unwrap(); // miss, evicts 1
        s.translate(VirtAddr::from_page(1, 0), PagePerms::READ)
            .unwrap(); // miss again
        assert_eq!(s.tlb_misses(), 4);
        assert_eq!(s.tlb_hits(), 1);
    }

    #[test]
    fn mru_slot_serves_repeated_touches() {
        let mut s = mapped_smmu(4);
        s.translate(VirtAddr::from_page(0, 0), PagePerms::READ)
            .unwrap(); // walk
        for i in 0..10 {
            s.translate(VirtAddr::from_page(0, i), PagePerms::READ)
                .unwrap();
        }
        assert_eq!(s.mru_hits(), 10);
        assert_eq!(s.tlb_hits(), 10);
        // a different page misses the MRU slot but may still hit the map
        s.translate(VirtAddr::from_page(1, 0), PagePerms::READ)
            .unwrap(); // walk
        s.translate(VirtAddr::from_page(0, 0), PagePerms::READ)
            .unwrap(); // map hit
        assert_eq!(s.tlb_misses(), 2);
        assert_eq!(s.mru_hits(), 10);
        s.invalidate_tlb();
        s.translate(VirtAddr::from_page(0, 0), PagePerms::READ)
            .unwrap();
        assert_eq!(s.tlb_misses(), 3, "invalidation clears the MRU slot too");
    }

    #[test]
    fn invalidate_forces_walks() {
        let mut s = mapped_smmu(2);
        s.translate(VirtAddr(0), PagePerms::READ).unwrap();
        s.invalidate_tlb();
        s.translate(VirtAddr(0), PagePerms::READ).unwrap();
        assert_eq!(s.tlb_misses(), 2);
    }

    #[test]
    fn user_level_beats_os_for_small_buffers() {
        let inv = InvocationModel::default();
        let cfg = SmmuConfig::default();
        // 1-page argument buffer: paper's "small transfers / frequent
        // invocation" case
        assert!(inv.user_level(1, &cfg) < inv.os_mediated(1));
    }

    #[test]
    fn os_path_scales_with_pages() {
        let inv = InvocationModel::default();
        assert!(inv.os_mediated(1000) > inv.os_mediated(10) * 10);
    }

    #[test]
    fn injected_faults_strike_and_count() {
        let mut s = mapped_smmu(2);
        s.set_fault_injection(0.5, SimRng::seed_from(11));
        let mut hits = 0u64;
        let mut faults = 0u64;
        for i in 0..200 {
            match s.translate(VirtAddr::from_page(i % 2, 0), PagePerms::READ) {
                Ok(_) => hits += 1,
                Err(e) => {
                    assert_eq!(e, SmmuFault::Injected);
                    faults += 1;
                }
            }
        }
        assert!(hits > 0 && faults > 0, "both outcomes occur at p=0.5");
        assert_eq!(s.injected_faults(), faults);
        assert_eq!(s.faults(), faults, "no architectural faults here");
        // retry after an injected fault succeeds (transient)
        s.set_fault_injection(0.0, SimRng::seed_from(11));
        assert!(s
            .translate(VirtAddr::from_page(0, 0), PagePerms::READ)
            .is_ok());
    }

    #[test]
    fn zero_rate_injection_changes_nothing() {
        let mut base = mapped_smmu(4);
        let mut inj = mapped_smmu(4);
        inj.set_fault_injection(0.0, SimRng::seed_from(99));
        for i in 0..50 {
            let a = base.translate(VirtAddr::from_page(i % 4, 0), PagePerms::READ);
            let b = inj.translate(VirtAddr::from_page(i % 4, 0), PagePerms::READ);
            assert_eq!(a, b);
        }
        let mut ma = MetricsRegistry::new();
        let mut mb = MetricsRegistry::new();
        base.export_metrics(&mut ma, "smmu");
        inj.export_metrics(&mut mb, "smmu");
        assert_eq!(
            ma.to_json(),
            mb.to_json(),
            "disarmed injection is invisible"
        );
    }

    #[test]
    fn shared_stage2_pages_allowed() {
        let mut s = Smmu::new(SmmuConfig::default());
        s.map(VirtAddr::from_page(1, 0), 0x50, 0x500, PagePerms::RW)
            .unwrap();
        // second VA aliasing the same IPA page must not error
        s.map(VirtAddr::from_page(2, 0), 0x50, 0x500, PagePerms::RW)
            .unwrap();
        let (pa1, _) = s
            .translate(VirtAddr::from_page(1, 0), PagePerms::READ)
            .unwrap();
        let (pa2, _) = s
            .translate(VirtAddr::from_page(2, 0), PagePerms::READ)
            .unwrap();
        assert_eq!(pa1, pa2);
    }
}
