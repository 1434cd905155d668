//! Execution-cost models for the devices a function can run on.
//!
//! Each ECOSCALE Worker offers (at least) two execution engines: its CPU
//! and its reconfigurable block — plus, through UNILOGIC, every *other*
//! Worker's reconfigurable block. The runtime's device-selection problem
//! (§4.2) is choosing among these per call.

use core::fmt;

use ecoscale_fpga::AcceleratorModule;
use ecoscale_sim::snap::malformed;
use ecoscale_sim::{Duration, Energy, Persist, RestoreError, SnapIo};

/// The classes of execution engine the scheduler chooses between.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum DeviceClass {
    /// The Worker's own CPU.
    #[default]
    Cpu,
    /// The Worker's own reconfigurable block (cached, coherent).
    FpgaLocal,
    /// Another Worker's reconfigurable block reached over UNILOGIC
    /// (cache disabled — ACE-lite path, Fig. 4).
    FpgaRemote,
}

impl DeviceClass {
    /// Every class, in declaration (and `Ord`) order: index `d as usize`.
    pub const ALL: [DeviceClass; 3] = [
        DeviceClass::Cpu,
        DeviceClass::FpgaLocal,
        DeviceClass::FpgaRemote,
    ];
}

impl fmt::Display for DeviceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DeviceClass::Cpu => "cpu",
            DeviceClass::FpgaLocal => "fpga-local",
            DeviceClass::FpgaRemote => "fpga-remote",
        })
    }
}

/// A one-byte tag in declaration order; a load refuses an unknown tag.
impl Persist for DeviceClass {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        let mut tag = *self as u8;
        io.u8(&mut tag)?;
        *self = *DeviceClass::ALL
            .get(usize::from(tag))
            .ok_or_else(|| malformed(format!("unknown device tag {tag}")))?;
        Ok(())
    }
}

/// An in-order-ish CPU cost model (Cortex-A53 class).
///
/// # Example
///
/// ```
/// use ecoscale_runtime::CpuModel;
///
/// let cpu = CpuModel::a53_default();
/// let (t, e) = cpu.exec(1_000_000, 200_000);
/// assert!(t.as_us_f64() > 100.0);
/// assert!(e.as_uj() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuModel {
    /// Core clock.
    pub clock_hz: u64,
    /// Sustained floating-point ops per cycle.
    pub flops_per_cycle: f64,
    /// Sustained memory ops per cycle (cache-resident).
    pub mem_ops_per_cycle: f64,
    /// Energy per executed operation.
    pub energy_per_op: Energy,
    /// Idle/static power share charged per second of busy time.
    pub static_energy_per_sec: Energy,
}

impl CpuModel {
    /// Cortex-A53-class defaults: 1.2 GHz, ~1 FLOP/cycle, ~70 pJ/op.
    pub fn a53_default() -> CpuModel {
        CpuModel {
            clock_hz: 1_200_000_000,
            flops_per_cycle: 1.0,
            mem_ops_per_cycle: 1.0,
            energy_per_op: Energy::from_pj(70.0),
            static_energy_per_sec: Energy::from_mj(150.0),
        }
    }

    /// Time and energy to execute `flops` arithmetic and `mem_ops` memory
    /// operations.
    pub fn exec(&self, flops: u64, mem_ops: u64) -> (Duration, Energy) {
        let cycles = (flops as f64 / self.flops_per_cycle + mem_ops as f64 / self.mem_ops_per_cycle)
            .ceil() as u64;
        let t = Duration::from_cycles(cycles.max(1), self.clock_hz);
        let e = self.energy_per_op * (flops + mem_ops) as f64
            + self.static_energy_per_sec * t.as_secs_f64();
        (t, e)
    }
}

impl Default for CpuModel {
    fn default() -> Self {
        CpuModel::a53_default()
    }
}

/// Accelerator execution cost derived from a synthesized module.
///
/// The FPGA datapath retires one hot-loop iteration per `II` cycles;
/// energy per operation is roughly an order of magnitude below the CPU's
/// (the premise of reconfigurable HPC).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FpgaExecModel {
    /// Energy per retired kernel operation.
    pub energy_per_op: Energy,
    /// Static energy per second of busy fabric.
    pub static_energy_per_sec: Energy,
}

impl Default for FpgaExecModel {
    fn default() -> Self {
        FpgaExecModel {
            energy_per_op: Energy::from_pj(5.0),
            static_energy_per_sec: Energy::from_mj(80.0),
        }
    }
}

impl FpgaExecModel {
    /// Time and energy for `module` to process `iterations` hot-loop
    /// iterations each performing `ops_per_iter` operations.
    pub fn exec(
        &self,
        module: &AcceleratorModule,
        iterations: u64,
        ops_per_iter: u64,
    ) -> (Duration, Energy) {
        let t = module.batch_latency(iterations);
        let e = self.energy_per_op * (iterations * ops_per_iter) as f64
            + self.static_energy_per_sec * t.as_secs_f64();
        (t, e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecoscale_fpga::{Bitstream, ModuleId, Resources};

    fn module(ii: u32) -> AcceleratorModule {
        AcceleratorModule::new(
            ModuleId(0),
            "k",
            Resources::new(500, 8, 16),
            200_000_000,
            ii,
            20,
            Bitstream::synthesize(Resources::new(500, 8, 16), 3),
        )
    }

    #[test]
    fn cpu_time_scales_with_work() {
        let cpu = CpuModel::a53_default();
        let (t1, e1) = cpu.exec(1000, 0);
        let (t2, e2) = cpu.exec(2000, 0);
        assert!(t2 > t1);
        assert!(e2 > e1);
        // 1000 cycles at 1.2 GHz ≈ 833 ns
        assert!((t1.as_ns_f64() - 833.0).abs() < 2.0);
    }

    #[test]
    fn cpu_mem_ops_cost_too() {
        let cpu = CpuModel::a53_default();
        let (t_flops, _) = cpu.exec(1000, 0);
        let (t_both, _) = cpu.exec(1000, 1000);
        assert!(t_both > t_flops);
    }

    #[test]
    fn fpga_pipelined_beats_cpu_on_throughput() {
        // The §3 claim territory: a pipelined datapath retires one
        // iteration/cycle at 200 MHz while the CPU needs tens of cycles
        // per iteration.
        let cpu = CpuModel::a53_default();
        let fpga = FpgaExecModel::default();
        let m = module(1);
        let iterations = 1_000_000u64;
        let ops_per_iter = 20u64;
        let (t_cpu, e_cpu) = cpu.exec(iterations * ops_per_iter, iterations * 2);
        let (t_fpga, e_fpga) = fpga.exec(&m, iterations, ops_per_iter);
        let speedup = t_cpu / t_fpga;
        assert!(speedup > 3.0, "speedup {speedup}");
        assert!(e_fpga < e_cpu);
    }

    #[test]
    fn unpipelined_module_is_slower() {
        let fpga = FpgaExecModel::default();
        let (t1, _) = fpga.exec(&module(1), 10_000, 10);
        let (t8, _) = fpga.exec(&module(8), 10_000, 10);
        assert!(t8 > t1 * 6);
    }

    #[test]
    fn device_class_display() {
        assert_eq!(DeviceClass::Cpu.to_string(), "cpu");
        assert_eq!(DeviceClass::FpgaLocal.to_string(), "fpga-local");
        assert_eq!(DeviceClass::FpgaRemote.to_string(), "fpga-remote");
    }

    #[test]
    fn zero_work_costs_minimum() {
        let cpu = CpuModel::a53_default();
        let (t, _) = cpu.exec(0, 0);
        assert!(t > Duration::ZERO);
    }
}
