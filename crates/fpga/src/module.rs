//! Accelerator module descriptors.
//!
//! An [`AcceleratorModule`] is the physical-implementation-tool output for
//! one synthesized function: its resource footprint, performance contract
//! (clock, initiation interval, pipeline depth) and its partial bitstream.
//! The HLS crate produces these; the floorplanner places them; the
//! reconfiguration port loads them.

use core::fmt;

use ecoscale_sim::{Duration, Persist, RestoreError, SnapIo};

use crate::bitstream::Bitstream;
use crate::fabric::Resources;

/// Identifies a module within a module library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ModuleId(pub u32);

impl Persist for ModuleId {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        io.u32(&mut self.0)
    }
}

impl fmt::Display for ModuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{}", self.0)
    }
}

/// A synthesized, placeable accelerator module.
///
/// # Example
///
/// ```
/// use ecoscale_fpga::{AcceleratorModule, Bitstream, ModuleId, Resources};
///
/// let m = AcceleratorModule::new(
///     ModuleId(1),
///     "gemm_tile",
///     Resources::new(800, 16, 32),
///     200_000_000, // 200 MHz
///     1,           // fully pipelined: II = 1
///     24,          // pipeline depth
///     Bitstream::synthesize(Resources::new(800, 16, 32), 42),
/// );
/// assert_eq!(m.name(), "gemm_tile");
/// // one result per cycle after the pipeline fills
/// assert!(m.throughput_items_per_sec() > 1.9e8);
/// ```
#[derive(Debug, Clone)]
pub struct AcceleratorModule {
    id: ModuleId,
    name: String,
    resources: Resources,
    clock_hz: u64,
    initiation_interval: u32,
    pipeline_depth: u32,
    bitstream: Bitstream,
}

impl AcceleratorModule {
    /// Creates a module descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `clock_hz` or `initiation_interval` is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: ModuleId,
        name: &str,
        resources: Resources,
        clock_hz: u64,
        initiation_interval: u32,
        pipeline_depth: u32,
        bitstream: Bitstream,
    ) -> AcceleratorModule {
        assert!(clock_hz > 0, "module clock must be positive");
        assert!(
            initiation_interval > 0,
            "initiation interval must be positive"
        );
        AcceleratorModule {
            id,
            name: name.to_owned(),
            resources,
            clock_hz,
            initiation_interval,
            pipeline_depth,
            bitstream,
        }
    }

    /// The module id.
    pub fn id(&self) -> ModuleId {
        self.id
    }

    /// The synthesized function's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The resource footprint.
    pub fn resources(&self) -> Resources {
        self.resources
    }

    /// The implementation clock.
    pub fn clock_hz(&self) -> u64 {
        self.clock_hz
    }

    /// Cycles between successive input acceptances (1 = fully pipelined).
    pub fn initiation_interval(&self) -> u32 {
        self.initiation_interval
    }

    /// Cycles from input to the corresponding output.
    pub fn pipeline_depth(&self) -> u32 {
        self.pipeline_depth
    }

    /// The partial bitstream.
    pub fn bitstream(&self) -> &Bitstream {
        &self.bitstream
    }

    /// Steady-state throughput in items per second.
    pub fn throughput_items_per_sec(&self) -> f64 {
        self.clock_hz as f64 / self.initiation_interval as f64
    }

    /// Time to process `items` in steady state: fill the pipeline once,
    /// then one item per II cycles.
    pub fn batch_latency(&self, items: u64) -> Duration {
        if items == 0 {
            return Duration::ZERO;
        }
        let cycles = self.pipeline_depth as u64 + (items - 1) * self.initiation_interval as u64 + 1;
        Duration::from_cycles(cycles, self.clock_hz)
    }

    /// Latency of one isolated invocation.
    pub fn single_latency(&self) -> Duration {
        self.batch_latency(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module(ii: u32, depth: u32) -> AcceleratorModule {
        AcceleratorModule::new(
            ModuleId(0),
            "m",
            Resources::new(100, 2, 4),
            100_000_000,
            ii,
            depth,
            Bitstream::synthesize(Resources::new(100, 2, 4), 1),
        )
    }

    #[test]
    fn throughput_follows_ii() {
        assert_eq!(module(1, 10).throughput_items_per_sec(), 1e8);
        assert_eq!(module(4, 10).throughput_items_per_sec(), 2.5e7);
    }

    #[test]
    fn batch_latency_pipelining() {
        let m = module(1, 9);
        // 1 item: depth + 1 cycles = 10 cycles @ 100 MHz = 100 ns
        assert_eq!(m.single_latency(), Duration::from_ns(100));
        // 91 more items at II=1: 101 cycles total
        assert_eq!(m.batch_latency(92), Duration::from_ns(1010));
        assert_eq!(m.batch_latency(0), Duration::ZERO);
    }

    #[test]
    fn unpipelined_batch_is_linear() {
        let m = module(10, 10);
        let one = m.batch_latency(1);
        let ten = m.batch_latency(10);
        // 10 items ≈ 10x of the II part
        assert!(ten > one * 5);
    }

    #[test]
    #[should_panic(expected = "initiation interval")]
    fn zero_ii_rejected() {
        module(0, 1);
    }

    #[test]
    fn accessors() {
        let m = module(2, 8);
        assert_eq!(m.id(), ModuleId(0));
        assert_eq!(m.name(), "m");
        assert_eq!(m.resources().total(), 106);
        assert_eq!(m.clock_hz(), 100_000_000);
        assert_eq!(m.initiation_interval(), 2);
        assert_eq!(m.pipeline_depth(), 8);
        assert!(!m.bitstream().as_bytes().is_empty());
        assert_eq!(format!("{}", m.id()), "M0");
    }
}
