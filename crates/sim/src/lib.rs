//! Deterministic discrete-event simulation substrate for the ECOSCALE
//! reproduction.
//!
//! The ECOSCALE paper (DATE 2016) describes a hardware/software stack that
//! in reality runs on multi-FPGA prototypes. This crate provides the
//! foundation every higher layer of the reproduction is modelled on:
//!
//! * [`Time`] / [`Duration`] — picosecond-resolution virtual time,
//! * [`Energy`] / [`Power`] — energy accounting newtypes,
//! * [`TimingWheel`] — the one event core: a hierarchical timing wheel
//!   with an arena of reusable entries and `(time, key)` tie-breaking,
//!   behind the sharded engine and the runtime's scheduler and task-graph
//!   simulations,
//! * [`shard`] — the conservative-parallel engine ([`ShardedEngine`]):
//!   cluster-partitioned wheels synchronized by NoC-lookahead safe
//!   windows, byte-identical to sequential execution at any shard
//!   count,
//! * [`SimRng`] — a seeded random source with the distributions the
//!   workload generators need (uniform, exponential, normal, Zipf, Pareto),
//! * [`snap`] — SnapPlane: a versioned, deterministic snapshot/restore
//!   codec ([`SnapshotBuilder`], one [`Persist`] body per type) with
//!   length-prefixed, checksummed sections and no external crates,
//! * [`fault`] — seeded fault-campaign primitives ([`CampaignSpec`],
//!   [`FaultClock`], [`ProbFault`]) that every layer's injection hooks
//!   build on,
//! * [`check`] — the CheckPlane: declarative cross-layer invariant
//!   checks ([`CheckPlane`]) and a delta-debugging op-stream reducer,
//!   zero-cost when disabled,
//! * [`hash`] — a small deterministic hasher for hot-path integer-keyed
//!   maps,
//! * [`stats`] — counters, online moments, and log-binned histograms,
//! * [`metrics`] — a deterministic [`MetricsRegistry`] of named
//!   instruments with snapshot/merge semantics,
//! * [`trace`] — structured tracing ([`Tracer`]) with a Chrome Trace
//!   Event JSON exporter loadable in Perfetto,
//! * [`prof`] — ProfPlane: causal critical-path extraction with
//!   per-layer blame ([`ProfileReport`]), deterministic shard occupancy
//!   analytics ([`ShardOccupancy`]), and zero-cost-when-disabled
//!   wall-clock phase timers ([`Profiler`]),
//! * [`telem`] — TelePlane: windowed time-series telemetry
//!   ([`TimeSeries`]) and an anomaly-triggered flight recorder
//!   ([`FlightRecorder`], [`TriggerPolicy`]), one branch when disabled,
//! * [`report`] — fixed-width table rendering used by the experiment
//!   binaries to print paper-style figures.
//!
//! # Determinism
//!
//! Every run of a simulation built on this crate is a pure function of its
//! configuration and seeds: the timing wheel breaks ties by an explicit
//! key (a scheduling index, or the sharded engine's packed
//! `(cluster, sequence)`), and all randomness flows through [`SimRng`].
//!
//! # Example
//!
//! Keying each event by [`TimingWheel::scheduled_total`] delivers equal
//! timestamps in scheduling order:
//!
//! ```
//! use ecoscale_sim::{Time, TimingWheel};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong, Late }
//!
//! let mut q = TimingWheel::new();
//! q.schedule(Time::from_ns(10), q.scheduled_total(), Ev::Pong);
//! q.schedule(Time::from_ns(10), q.scheduled_total(), Ev::Late);
//! q.schedule(Time::from_ns(5), q.scheduled_total(), Ev::Ping);
//! let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, ev)| ev).collect();
//! assert_eq!(order, [Ev::Ping, Ev::Pong, Ev::Late]);
//! ```

pub mod check;
pub mod energy;
pub mod fault;
pub mod hash;
pub mod json;
pub mod metrics;
pub mod pool;
pub mod prof;
pub mod report;
pub mod rng;
pub mod shard;
pub mod snap;
pub mod stats;
pub mod telem;
pub mod time;
pub mod trace;
pub mod wheel;

pub use check::{CheckPlane, Violation};
pub use energy::{Energy, EnergyMeter, Power};
pub use fault::{CampaignSpec, FaultClock, ProbFault};
pub use metrics::{Instrument, MetricsRegistry};
pub use pool::RunCtx;
pub use prof::{Layer, ProfileReport, Profiler, ShardOccupancy};
pub use rng::{SimRng, ZipfTable};
pub use shard::{ClusterCtx, ClusterModel, ShardedEngine, StopReason};
pub use snap::{
    Persist, RestoreError, SnapIo, SnapReader, SnapWriter, SnapshotBuilder, SnapshotFile,
};
pub use stats::{Counter, Histogram, OnlineStats};
pub use telem::{
    FlightRecorder, TelemetryConfig, TimeSeries, TriggerFire, TriggerKind, TriggerPolicy,
};
pub use time::{Duration, Time};
pub use trace::{TraceBuffer, TraceEvent, Tracer, TrackId};
pub use wheel::TimingWheel;
