//! The runtime reconfiguration daemon and device selector.
//!
//! §4.2: "The runtime scheduler/daemon will read periodically the system
//! status and the History file in order to decide at runtime what
//! functions should be loaded on the reconfiguration block." The daemon
//! ranks functions by predicted benefit — calls × (software time −
//! hardware time) against the reconfiguration cost — and (un)loads
//! modules on a Worker's floorplan accordingly. The
//! [`ReconfigDaemon::select_device`] half answers the per-call question:
//! CPU, local accelerator, or a remote Worker's accelerator (UNILOGIC).

use core::fmt;
use std::collections::{BTreeMap, HashMap};

use ecoscale_fpga::{
    CompressionAlgo, Floorplanner, ModuleId, PlaceError, ReconfigPort, ReconfigStats, SlotId,
};
use ecoscale_hls::ModuleLibrary;
use ecoscale_sim::check::{invariant, CheckPlane};
use ecoscale_sim::{Duration, Persist, RestoreError, SnapIo, Time};

use crate::device::DeviceClass;
use crate::history::ExecutionHistory;
use crate::model::predict_time;

/// Why a module load on the reconfiguration path failed.
///
/// Fault-triggered reconfigurations (SEU repair, module migration) hit
/// this path at runtime, so failures must propagate as values instead of
/// panicking or collapsing into an opaque `None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconfigError {
    /// The module id has no entry in the module library.
    UnknownModule(ModuleId),
    /// The named function was never synthesized into the library.
    UnknownFunction(String),
    /// The module's resource demand exceeds the whole fabric.
    TooLarge(ModuleId),
    /// No contiguous window fits even after defragmentation.
    Fragmented(ModuleId),
}

impl fmt::Display for ReconfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReconfigError::UnknownModule(m) => write!(f, "module {m:?} is not in the library"),
            ReconfigError::UnknownFunction(name) => {
                write!(f, "function `{name}` has no synthesized module")
            }
            ReconfigError::TooLarge(m) => write!(f, "module {m:?} exceeds the fabric capacity"),
            ReconfigError::Fragmented(m) => {
                write!(f, "module {m:?} does not fit even after defragmentation")
            }
        }
    }
}

impl std::error::Error for ReconfigError {}

/// Daemon tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DaemonConfig {
    /// How often the daemon re-evaluates the loadout.
    pub period: Duration,
    /// A function must out-benefit the reconfiguration cost by this
    /// factor before the daemon loads it.
    pub benefit_margin: f64,
    /// Bitstream storage compression.
    pub compression: CompressionAlgo,
    /// Estimated latency penalty factor for calling a *remote* module
    /// (cache disabled over the UNILOGIC path).
    pub remote_penalty: f64,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            period: Duration::from_ms(10),
            benefit_margin: 1.5,
            compression: CompressionAlgo::Lz,
            remote_penalty: 3.0,
        }
    }
}

/// The per-Worker daemon: owns the floorplan of one reconfigurable block.
#[derive(Debug)]
pub struct ReconfigDaemon {
    config: DaemonConfig,
    port: ReconfigPort,
    floorplan: Floorplanner,
    // BTreeMap, not HashMap: residency is iterated by the FaultPlane
    // (SEU draws per resident module) and by eviction tie-breaking, so
    // the order must be deterministic across threads and processes.
    loaded: BTreeMap<ModuleId, SlotId>,
    stats: ReconfigStats,
    last_eval: Time,
}

impl ReconfigDaemon {
    /// Creates a daemon over an (empty) floorplan.
    pub fn new(config: DaemonConfig, floorplan: Floorplanner) -> ReconfigDaemon {
        ReconfigDaemon {
            config,
            port: ReconfigPort::default(),
            floorplan,
            loaded: BTreeMap::new(),
            stats: ReconfigStats::default(),
            last_eval: Time::ZERO,
        }
    }

    /// Currently loaded modules.
    pub fn loaded(&self) -> impl Iterator<Item = ModuleId> + '_ {
        self.loaded.keys().copied()
    }

    /// Returns `true` if `module` is resident.
    pub fn is_loaded(&self, module: ModuleId) -> bool {
        self.loaded.contains_key(&module)
    }

    /// Reconfiguration activity so far.
    pub fn stats(&self) -> ReconfigStats {
        self.stats
    }

    /// The floorplan (for fragmentation metrics).
    pub fn floorplan(&self) -> &Floorplanner {
        &self.floorplan
    }

    /// CheckPlane hook: the daemon's loaded-module map and the
    /// floorplanner's placements must describe the same residency — every
    /// loaded module occupies exactly the slot recorded for it, and every
    /// placed slot hosts a loaded module. Delegates region-exclusivity
    /// checks to [`Floorplanner::check_invariants`]. Read-only; early-outs
    /// when `cp` is disabled.
    pub fn check_invariants(&self, cp: &mut CheckPlane) {
        if !cp.is_enabled() {
            return;
        }
        self.floorplan.check_invariants(cp);
        for (&module, &slot) in &self.loaded {
            cp.check(
                invariant::FABRIC_RESIDENCY_AGREES,
                self.floorplan
                    .placement(slot)
                    .is_some_and(|p| p.module == module),
                || format!("loaded module {module} claims {slot} but the floorplan disagrees"),
            );
        }
        let placed = self.floorplan.placements().count();
        cp.check(
            invariant::FABRIC_RESIDENCY_AGREES,
            placed == self.loaded.len(),
            || {
                format!(
                    "{placed} floorplan placements for {} loaded modules",
                    self.loaded.len()
                )
            },
        );
    }

    /// Explicitly loads `module` from `library`, defragmenting on
    /// fragmentation failure. Returns the reconfiguration latency
    /// (`Duration::ZERO` when already resident).
    ///
    /// # Errors
    ///
    /// [`ReconfigError`] describing why the module cannot be placed.
    pub fn load(
        &mut self,
        library: &ModuleLibrary,
        module: ModuleId,
    ) -> Result<Duration, ReconfigError> {
        if self.loaded.contains_key(&module) {
            return Ok(Duration::ZERO);
        }
        let entry = library
            .by_id(module)
            .ok_or(ReconfigError::UnknownModule(module))?;
        let need = entry.module.resources();
        let slot = match self.floorplan.place(module, need) {
            Ok(s) => s,
            Err(PlaceError::Fragmented { .. }) => {
                // §4.3 middleware: defragment, migrating live modules.
                let migrations = self.floorplan.defragment();
                for (slot, _, _) in &migrations {
                    // each migration is one partial reconfiguration of the
                    // module occupying that slot
                    let mid = self.floorplan.placement(*slot).map(|p| p.module);
                    if let Some(mid) = mid {
                        if let Some(e) = library.by_id(mid) {
                            self.port.load(
                                e.module.bitstream(),
                                self.config.compression,
                                &mut self.stats,
                            );
                        }
                    }
                }
                self.floorplan
                    .place(module, need)
                    .map_err(|_| ReconfigError::Fragmented(module))?
            }
            Err(PlaceError::TooLarge) => return Err(ReconfigError::TooLarge(module)),
        };
        self.loaded.insert(module, slot);
        let lat = self.port.load(
            entry.module.bitstream(),
            self.config.compression,
            &mut self.stats,
        );
        Ok(lat)
    }

    /// Unloads `module`, freeing its slot.
    pub fn unload(&mut self, module: ModuleId) -> bool {
        match self.loaded.remove(&module) {
            Some(slot) => self.floorplan.remove(slot),
            None => false,
        }
    }

    /// Benefit of having `function` in hardware: recorded calls times the
    /// measured software–hardware gap (`None` if software was never
    /// measured or hardware would not help).
    fn benefit(
        &self,
        history: &ExecutionHistory,
        library: &ModuleLibrary,
        function: &str,
    ) -> Option<f64> {
        let entry = library.get(function)?;
        let t_sw = history.mean_time(function, DeviceClass::Cpu)?;
        let t_hw = history
            .mean_time(function, DeviceClass::FpgaLocal)
            .unwrap_or_else(|| entry.module.single_latency());
        if t_sw <= t_hw {
            return None;
        }
        Some(history.call_count(function) as f64 * (t_sw.as_ns_f64() - t_hw.as_ns_f64()))
    }

    /// Periodic evaluation: examines the history's hottest functions and
    /// loads the most beneficial modules, evicting lower-benefit resident
    /// modules when the fabric is full. Returns the modules (newly)
    /// loaded this round.
    pub fn evaluate(
        &mut self,
        now: Time,
        history: &ExecutionHistory,
        library: &ModuleLibrary,
    ) -> Vec<ModuleId> {
        if now.saturating_since(self.last_eval) < self.config.period && self.last_eval > Time::ZERO
        {
            return Vec::new();
        }
        self.last_eval = now;
        let mut newly = Vec::new();
        // Benefit of every synthesizable function (resident or not).
        let mut benefit_of: HashMap<ModuleId, f64> = HashMap::new();
        let mut ranked: Vec<(ModuleId, f64)> = Vec::new();
        for (function, _) in history.hottest_functions() {
            let Some(entry) = library.get(&function) else {
                continue;
            };
            let Some(benefit) = self.benefit(history, library, &function) else {
                continue;
            };
            benefit_of.insert(entry.module.id(), benefit);
            let (reconfig_cost, _) = self
                .port
                .load_cost(entry.module.bitstream(), self.config.compression);
            if benefit > reconfig_cost.as_ns_f64() * self.config.benefit_margin {
                ranked.push((entry.module.id(), benefit));
            }
        }
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("benefits are finite"));
        for (module, benefit) in ranked {
            if self.is_loaded(module) {
                continue;
            }
            if self.load(library, module).is_ok() {
                newly.push(module);
                continue;
            }
            // fabric full: evict strictly-lower-benefit residents, lowest
            // first, until the candidate fits or nothing cheap remains
            let mut residents: Vec<(ModuleId, f64)> = self
                .loaded()
                .map(|m| (m, benefit_of.get(&m).copied().unwrap_or(0.0)))
                .collect();
            residents.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("benefits are finite"));
            for (victim, victim_benefit) in residents {
                if victim_benefit >= benefit {
                    break;
                }
                self.unload(victim);
                if self.load(library, module).is_ok() {
                    newly.push(module);
                    break;
                }
            }
        }
        newly
    }

    /// Chooses the device for one call of `function` with `features`,
    /// given whether a local/remote instance of the module is resident.
    ///
    /// With history on both devices, predicted times decide; without, the
    /// call runs on the CPU (measurement-first policy, so the history
    /// fills in). The history is `&mut` because it caches each key's
    /// fitted predictor (see [`predict_time`]).
    pub fn select_device(
        &self,
        history: &mut ExecutionHistory,
        function: &str,
        features: &[f64],
        local_loaded: bool,
        remote_loaded: bool,
    ) -> DeviceClass {
        let t_cpu = predict_time(history, function, DeviceClass::Cpu, features);
        let t_hw = predict_time(history, function, DeviceClass::FpgaLocal, features);
        match (t_cpu, t_hw) {
            (Some(cpu), Some(hw)) => {
                let local = if local_loaded { Some(hw) } else { None };
                let remote = if remote_loaded {
                    Some(hw.mul_f64(self.config.remote_penalty))
                } else {
                    None
                };
                let mut best = (DeviceClass::Cpu, cpu);
                if let Some(l) = local {
                    if l < best.1 {
                        best = (DeviceClass::FpgaLocal, l);
                    }
                }
                if let Some(r) = remote {
                    if r < best.1 {
                        best = (DeviceClass::FpgaRemote, r);
                    }
                }
                best.0
            }
            (None, _) => DeviceClass::Cpu, // measure software first
            (Some(_), None) => {
                if local_loaded {
                    DeviceClass::FpgaLocal // measure hardware once loaded
                } else {
                    DeviceClass::Cpu
                }
            }
        }
    }
}

/// The floorplan, the residency map (ascending module order), the
/// reconfiguration stats and the evaluation cursor. The config and port
/// parameters are structural and not in the stream. A load refuses a
/// resident module whose slot the floorplan does not host.
impl Persist for ReconfigDaemon {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        self.floorplan.persist(io)?;
        let floorplan = &self.floorplan;
        io.map_with(&mut self.loaded, "resident modules", |io, &m, s| {
            s.persist(io)?;
            let s = *s;
            io.ensure(
                floorplan.placement(s).is_some_and(|p| p.module == m),
                || format!("resident module {m} claims slot {s} but the floorplan disagrees"),
            )
        })?;
        let (placed, resident) = (self.floorplan.placements().count(), self.loaded.len());
        io.ensure(placed == resident, || {
            format!("{placed} floorplan placements for {resident} resident modules")
        })?;
        self.stats.persist(io)?;
        io.time(&mut self.last_eval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecoscale_fpga::{Fabric, Resources};
    use ecoscale_hls::parse_kernel;
    use ecoscale_sim::Energy;

    fn library() -> ModuleLibrary {
        let k1 = parse_kernel(
            "kernel hot(in float a[], out float b[], int n) {
                 for (i in 0 .. n) { b[i] = a[i] * 2.0 + 1.0; }
             }",
        )
        .unwrap();
        let k2 = parse_kernel(
            "kernel cold(in float a[], out float b[], int n) {
                 for (i in 0 .. n) { b[i] = a[i] + 1.0; }
             }",
        )
        .unwrap();
        let hints = HashMap::from([("n".to_owned(), 4096.0)]);
        ModuleLibrary::synthesize(
            &[(k1, hints.clone()), (k2, hints)],
            Resources::new(4000, 64, 64),
        )
        .unwrap()
    }

    fn daemon() -> ReconfigDaemon {
        ReconfigDaemon::new(
            DaemonConfig::default(),
            Floorplanner::new(Fabric::zynq_like(60, 80)),
        )
    }

    #[test]
    fn explicit_load_unload() {
        let lib = library();
        let mut d = daemon();
        let id = lib.get("hot").unwrap().module.id();
        let lat = d.load(&lib, id).unwrap();
        assert!(lat > Duration::ZERO);
        assert!(d.is_loaded(id));
        assert_eq!(d.load(&lib, id), Ok(Duration::ZERO)); // already resident
        assert!(d.unload(id));
        assert!(!d.unload(id));
        assert_eq!(d.stats().loads, 1);
    }

    #[test]
    fn evaluate_loads_hot_beneficial_function() {
        let lib = library();
        let mut d = daemon();
        let mut h = ExecutionHistory::new(64);
        // hot: many slow CPU calls
        for _ in 0..5000 {
            h.record(
                "hot",
                DeviceClass::Cpu,
                &[4096.0],
                Duration::from_ms(5),
                Energy::ZERO,
            );
        }
        // cold: one call
        h.record(
            "cold",
            DeviceClass::Cpu,
            &[4096.0],
            Duration::from_us(5),
            Energy::ZERO,
        );
        let loaded = d.evaluate(Time::from_ms(100), &h, &lib);
        let hot_id = lib.get("hot").unwrap().module.id();
        assert!(loaded.contains(&hot_id));
        let cold_id = lib.get("cold").unwrap().module.id();
        assert!(
            !loaded.contains(&cold_id),
            "cold function must not be loaded"
        );
    }

    #[test]
    fn evaluate_respects_period() {
        let lib = library();
        let mut d = daemon();
        let mut h = ExecutionHistory::new(64);
        for _ in 0..5000 {
            h.record(
                "hot",
                DeviceClass::Cpu,
                &[4096.0],
                Duration::from_ms(5),
                Energy::ZERO,
            );
        }
        let first = d.evaluate(Time::from_ms(50), &h, &lib);
        assert!(!first.is_empty());
        // 1 us later: inside the period, no re-evaluation
        let second = d.evaluate(Time::from_ms(50) + Duration::from_us(1), &h, &lib);
        assert!(second.is_empty());
    }

    #[test]
    fn no_benefit_no_load() {
        let lib = library();
        let mut d = daemon();
        let mut h = ExecutionHistory::new(64);
        // CPU is already fast: microsecond calls, few of them
        for _ in 0..3 {
            h.record(
                "hot",
                DeviceClass::Cpu,
                &[16.0],
                Duration::from_us(1),
                Energy::ZERO,
            );
        }
        let loaded = d.evaluate(Time::from_ms(100), &h, &lib);
        assert!(loaded.is_empty());
    }

    #[test]
    fn select_device_prefers_measured_winner() {
        let lib = library();
        let d = daemon();
        let _ = &lib;
        let mut h = ExecutionHistory::new(64);
        for i in 1..=10u64 {
            h.record(
                "f",
                DeviceClass::Cpu,
                &[i as f64],
                Duration::from_us(10 * i),
                Energy::ZERO,
            );
            h.record(
                "f",
                DeviceClass::FpgaLocal,
                &[i as f64],
                Duration::from_us(i),
                Energy::ZERO,
            );
        }
        assert_eq!(
            d.select_device(&mut h, "f", &[5.0], true, false),
            DeviceClass::FpgaLocal
        );
        // not loaded locally but loaded remotely: remote wins only if the
        // penalty keeps it under CPU (10x gap vs 3x penalty -> remote wins)
        assert_eq!(
            d.select_device(&mut h, "f", &[5.0], false, true),
            DeviceClass::FpgaRemote
        );
        // nothing loaded: CPU
        assert_eq!(
            d.select_device(&mut h, "f", &[5.0], false, false),
            DeviceClass::Cpu
        );
    }

    #[test]
    fn select_device_measures_first() {
        let d = daemon();
        let mut h = ExecutionHistory::new(64);
        assert_eq!(
            d.select_device(&mut h, "new_fn", &[1.0], true, true),
            DeviceClass::Cpu
        );
    }

    #[test]
    fn load_defragments_when_needed() {
        // small modules (tight DSE budget) on a small fabric that
        // fragments quickly
        let k1 = parse_kernel(
            "kernel hot(in float a[], out float b[], int n) {
                 for (i in 0 .. n) { b[i] = a[i] * 2.0 + 1.0; }
             }",
        )
        .unwrap();
        let k2 = parse_kernel(
            "kernel cold(in float a[], out float b[], int n) {
                 for (i in 0 .. n) { b[i] = a[i] + 1.0; }
             }",
        )
        .unwrap();
        let hints = HashMap::from([("n".to_owned(), 4096.0)]);
        let lib = ModuleLibrary::synthesize(
            &[(k1, hints.clone()), (k2, hints)],
            Resources::new(700, 16, 16),
        )
        .unwrap();
        let mut d = ReconfigDaemon::new(
            DaemonConfig::default(),
            Floorplanner::new(Fabric::zynq_like(26, 80)),
        );
        let hot = lib.get("hot").unwrap().module.id();
        let cold = lib.get("cold").unwrap().module.id();
        d.load(&lib, hot).unwrap();
        d.load(&lib, cold).unwrap();
        // unload first, leaving a hole at the left
        d.unload(hot);
        // load again; may require compaction depending on widths — must
        // succeed either way
        assert!(d.load(&lib, hot).is_ok());
    }

    #[test]
    fn load_reports_typed_errors() {
        let mut d = daemon();
        let lib = library();
        let bogus = ModuleId(9999);
        assert_eq!(
            d.load(&lib, bogus),
            Err(ReconfigError::UnknownModule(bogus))
        );
        let err = ReconfigError::UnknownFunction("ghost".to_owned());
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let lib = library();
        let mut d = daemon();
        let hot = lib.get("hot").unwrap().module.id();
        let cold = lib.get("cold").unwrap().module.id();
        d.load(&lib, hot).unwrap();
        d.load(&lib, cold).unwrap();
        d.unload(cold);
        let mut w = ecoscale_sim::SnapWriter::new();
        w.save(&mut d);
        let bytes = w.into_bytes();

        let mut fresh = daemon();
        let mut r = ecoscale_sim::SnapReader::new(&bytes);
        fresh.persist(&mut r).expect("restore");
        assert!(r.is_exhausted());
        let mut w2 = ecoscale_sim::SnapWriter::new();
        w2.save(&mut fresh);
        assert_eq!(
            bytes,
            w2.into_bytes(),
            "restored daemon re-serializes differently"
        );
        assert!(fresh.is_loaded(hot));
        assert!(!fresh.is_loaded(cold));
        assert_eq!(fresh.stats().loads, d.stats().loads);
        // residency survived: re-load of the hot module is free
        assert_eq!(fresh.load(&lib, hot), Ok(Duration::ZERO));

        for cut in 0..bytes.len() {
            let mut p = daemon();
            let mut r = ecoscale_sim::SnapReader::new(&bytes[..cut]);
            assert!(
                p.persist(&mut r).is_err() || !r.is_exhausted(),
                "truncated stream at {cut} restored fully"
            );
        }
    }
}
