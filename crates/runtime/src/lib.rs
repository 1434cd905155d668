//! The ECOSCALE runtime system (§4.2, §4.4).
//!
//! The paper extends OpenCL in three directions — PGAS data scoping,
//! scalable inter-partition data movement, and on-demand hardware
//! acceleration — and drives them with an intelligent per-worker
//! scheduler. This crate implements that runtime against the simulation
//! substrate:
//!
//! * [`device`] — CPU and accelerator execution cost models,
//! * [`task`] — the unit of scheduled work (a kernel call with features),
//! * [`history`] — the Execution History store (Fig. 5/6),
//! * [`model`] — input-dependent execution-time/energy prediction
//!   (least-squares regression + k-NN fallback) used to "judiciously and
//!   dynamically select and distribute functions for hardware
//!   acceleration",
//! * [`sched`] — per-worker work queues, Lazy-Scheduling-style \[9\]
//!   distribution, and centralized/random baselines,
//! * [`graph`] — fork/join task graphs with locality-aware list
//!   scheduling (§4.1 "execute, fork, and join tasks"),
//! * [`daemon`] — the runtime daemon deciding which functions to load
//!   onto each reconfigurable block (benefit-cost over the history),
//! * [`resilience`] — recovery policy for injected faults: bounded
//!   retry with exponential backoff, software fallback, reconfig-repair
//!   and quarantine (the FaultPlane's runtime half),
//! * [`serve`] — ServePlane: multi-tenant open-loop request serving
//!   (deterministic workload generation, admission control with bounded
//!   queues and token buckets, a batching dispatcher, SLO accounting),
//! * [`opencl`] — the OpenCL-flavoured object model with PGAS scoping and
//!   distributed command queues,
//! * [`mpi`] — the inter-Compute-Node MPI layer (point-to-point and
//!   collectives, topology-aware costs),
//! * [`pgas`] — global arrays over UNIMEM partitions.

pub mod daemon;
pub mod device;
pub mod graph;
pub mod history;
pub mod model;
pub mod mpi;
pub mod opencl;
pub mod pgas;
pub mod resilience;
pub mod sched;
pub mod serve;
pub mod task;

pub use daemon::{DaemonConfig, ReconfigDaemon, ReconfigError};
pub use device::{CpuModel, DeviceClass, FpgaExecModel};
pub use graph::{GraphRun, TaskGraph};
pub use history::{ExecutionHistory, Sample};
pub use model::{KnnPredictor, LinearModel, Predictor};
pub use mpi::{MpiComm, MpiStats};
pub use opencl::{Buffer, BufferScope, CommandQueue, Context, KernelObject, Platform};
pub use pgas::{Distribution, GlobalArray, PgasSpace};
pub use resilience::{Backoff, Domain, ResilienceConfig, ResilienceManager, RetryPolicy};
pub use sched::{
    partitioned_traces, skewed_trace, skewed_trace_with_spacing, ClusterSim, SchedPolicy,
    SchedReport, TaskSpec,
};
pub use serve::{
    Batch, JourneyOutcome, Request, RequestJourney, ServePlane, ServeSpec, ServingReport,
};
pub use task::{Task, TaskId};
