//! The ECOSCALE system: the paper's primary contribution, assembled.
//!
//! An [`EcoscaleSystem`] is a hierarchy of Compute Nodes, each a PGAS
//! sub-system of Workers (CPU + reconfigurable block + DRAM, Fig. 4),
//! joined by a multi-layer tree interconnect (Fig. 3). On top of the
//! substrate crates this crate adds what UNILOGIC is actually *for*:
//!
//! * [`worker`] — the Worker: CPU model, dual-stage SMMU, reconfigurable
//!   block managed by its runtime daemon,
//! * [`system`] — the builder and the end-to-end `call` path: device
//!   selection → functional execution → cost accounting → history update,
//! * [`unilogic`] — the four ways to reach an accelerator (local cached,
//!   remote uncached load/store, DMA offload, software) and their costs,
//! * [`virtblock`] — the Virtualization block: many callers sharing one
//!   fully-pipelined accelerator vs exclusive time multiplexing,
//! * [`chain`] — accelerator chaining: "different accelerator modules
//!   \[chained\] for building longer complex processing pipelines …
//!   substantial energy savings" (§4.3),
//! * [`power`] — the exaflop power extrapolations from the introduction,
//! * [`shard_model`] — the cluster-partitioned model driven by the
//!   conservative-parallel sharded engine (one UNIMEM + NoC + trace per
//!   Compute Node, NoC-lookahead synchronization),
//! * [`serve_model`] — the ServePlane backend: multi-tenant open-loop
//!   serving cells driving `EcoscaleSystem::call` with batching,
//!   admission backpressure and SLO accounting.

pub mod chain;
pub mod power;
pub mod report;
pub mod serve_model;
pub mod shard_model;
pub mod system;
pub mod unilogic;
pub mod virtblock;
pub mod worker;

pub use chain::{Chain, ChainCost};
pub use power::{machine_power_for_exaflop, MachineClass, PowerBreakdown};
pub use report::{FunctionSummary, SystemReport};
pub use serve_model::{
    linear_test_mix, run_serve_sim_with, serve_checkpoint, serve_hints, serve_migrate_with,
    serve_resume_with, CellSim, ServeArtifacts, ServeKernel, ServeOutcome, ServeSimConfig,
    ServeTelemetry,
};
pub use shard_model::{
    run_shard_sim_observed, run_shard_sim_observed_with, run_shard_sim_with, ClusterEv,
    ClusterSimModel, ShardOutcome, ShardSimConfig, OCCUPANCY_WIDTHS,
};
pub use system::{CallOutcome, EcoscaleSystem, SystemBuilder};
pub use unilogic::{AccessPath, PathCost, UnilogicModel};
pub use virtblock::{SharingMode, VirtualizationBlock};
pub use worker::Worker;

#[cfg(test)]
/// The run context this crate's tests hand to what they build: one
/// thread, one shard, and checks armed from `ECOSCALE_CHECK`, so an armed
/// test pass checks every system and serving cell they run.
pub(crate) fn test_ctx() -> ecoscale_sim::RunCtx {
    let check = std::env::var(ecoscale_sim::check::CHECK_ENV).ok();
    ecoscale_sim::RunCtx::parse(Some("1"), Some("1"), check.as_deref())
}
