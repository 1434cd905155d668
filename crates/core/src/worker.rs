//! The ECOSCALE Worker (Fig. 4): CPU + SMMU + reconfigurable block +
//! DRAM, with the per-worker runtime pieces attached.

use ecoscale_fpga::{Fabric, Floorplanner, ModuleId};
use ecoscale_hls::ModuleLibrary;
use ecoscale_mem::{Smmu, SmmuConfig};
use ecoscale_noc::NodeId;
use ecoscale_runtime::{
    CpuModel, DaemonConfig, ExecutionHistory, FpgaExecModel, ReconfigDaemon, ReconfigError,
};
use ecoscale_sim::{Duration, Persist, RestoreError, SnapIo};

/// One Worker node.
///
/// # Example
///
/// ```
/// use ecoscale_core::Worker;
/// use ecoscale_noc::NodeId;
///
/// let w = Worker::new(NodeId(3), 40, 60);
/// assert_eq!(w.id(), NodeId(3));
/// assert_eq!(w.loaded_modules().len(), 0);
/// ```
#[derive(Debug)]
pub struct Worker {
    id: NodeId,
    cpu: CpuModel,
    fpga: FpgaExecModel,
    smmu: Smmu,
    daemon: ReconfigDaemon,
    history: ExecutionHistory,
}

impl Worker {
    /// Creates a Worker with a `fabric_cols × fabric_rows` reconfigurable
    /// block and default CPU/SMMU parameters.
    pub fn new(id: NodeId, fabric_cols: u32, fabric_rows: u32) -> Worker {
        Worker {
            id,
            cpu: CpuModel::a53_default(),
            fpga: FpgaExecModel::default(),
            smmu: Smmu::new(SmmuConfig::default()),
            daemon: ReconfigDaemon::new(
                DaemonConfig::default(),
                Floorplanner::new(Fabric::zynq_like(fabric_cols, fabric_rows)),
            ),
            history: ExecutionHistory::new(128),
        }
    }

    /// The Worker's interconnect endpoint.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The CPU cost model.
    pub fn cpu(&self) -> &CpuModel {
        &self.cpu
    }

    /// The accelerator cost model.
    pub fn fpga(&self) -> &FpgaExecModel {
        &self.fpga
    }

    /// The dual-stage SMMU.
    pub fn smmu(&self) -> &Smmu {
        &self.smmu
    }

    /// Mutable SMMU (mapping, invalidation).
    pub fn smmu_mut(&mut self) -> &mut Smmu {
        &mut self.smmu
    }

    /// The reconfiguration daemon.
    pub fn daemon(&self) -> &ReconfigDaemon {
        &self.daemon
    }

    /// Mutable daemon.
    pub fn daemon_mut(&mut self) -> &mut ReconfigDaemon {
        &mut self.daemon
    }

    /// This Worker's execution history.
    pub fn history(&self) -> &ExecutionHistory {
        &self.history
    }

    /// Mutable history.
    pub fn history_mut(&mut self) -> &mut ExecutionHistory {
        &mut self.history
    }

    /// Split borrow for the daemon, which reads the history while it
    /// mutates the floorplan (periodic evaluation) and refreshes the
    /// history's cached fits while it selects a device.
    pub fn daemon_and_history(&mut self) -> (&mut ReconfigDaemon, &mut ExecutionHistory) {
        (&mut self.daemon, &mut self.history)
    }

    /// Modules currently resident on this Worker's fabric.
    pub fn loaded_modules(&self) -> Vec<ModuleId> {
        self.daemon.loaded().collect()
    }

    /// Loads `module` from `library` onto the fabric, returning the
    /// reconfiguration latency.
    ///
    /// # Errors
    ///
    /// [`ReconfigError`] describing why the module cannot be placed.
    pub fn load_module(
        &mut self,
        library: &ModuleLibrary,
        module: ModuleId,
    ) -> Result<Duration, ReconfigError> {
        self.daemon.load(library, module)
    }
}

/// SMMU translation state, fabric residency (daemon + floorplan), and
/// execution history. The CPU/FPGA cost models are build-time
/// configuration and not in the stream: load onto an identically built
/// Worker.
impl Persist for Worker {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        self.smmu.persist(io)?;
        self.daemon.persist(io)?;
        self.history.persist(io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecoscale_fpga::Resources;
    use ecoscale_hls::parse_kernel;
    use std::collections::HashMap;

    fn library() -> ModuleLibrary {
        let k = parse_kernel(
            "kernel f(in float a[], out float b[], int n) {
                 for (i in 0 .. n) { b[i] = a[i] + 1.0; }
             }",
        )
        .unwrap();
        ModuleLibrary::synthesize(
            &[(k, HashMap::from([("n".to_owned(), 1024.0)]))],
            Resources::new(2000, 64, 64),
        )
        .unwrap()
    }

    #[test]
    fn worker_loads_and_tracks_modules() {
        let lib = library();
        let mut w = Worker::new(NodeId(0), 40, 60);
        let id = lib.get("f").unwrap().module.id();
        let lat = w.load_module(&lib, id).unwrap();
        assert!(lat > Duration::ZERO);
        assert_eq!(w.loaded_modules(), vec![id]);
        assert!(w.daemon().is_loaded(id));
    }

    #[test]
    fn worker_accessors() {
        let mut w = Worker::new(NodeId(7), 40, 60);
        assert_eq!(w.id(), NodeId(7));
        assert!(w.cpu().clock_hz > 0);
        assert_eq!(w.history().call_count("x"), 0);
        w.history_mut().record(
            "x",
            ecoscale_runtime::DeviceClass::Cpu,
            &[],
            Duration::from_us(1),
            ecoscale_sim::Energy::ZERO,
        );
        assert_eq!(w.history().call_count("x"), 1);
        // SMMU reachable
        assert_eq!(w.smmu().tlb_misses(), 0);
        let _ = w.smmu_mut();
        let _ = w.fpga();
    }
}
