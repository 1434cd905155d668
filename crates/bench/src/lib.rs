//! The ECOSCALE experiment harness.
//!
//! One function per experiment in `DESIGN.md` §4 (E1–E16), the §6
//! ablations (A1–A4), the §11 parallel-engine study (P1), and the §13
//! serving study (S1); each returns
//! the [`Table`] that `exp_all <key>` prints and that
//! `EXPERIMENTS.md` quotes. Wall-clock benches in `benches/` (built on
//! the dependency-free [`timing`] harness) exercise the same code paths
//! at reduced scale for regression tracking.
//!
//! Every experiment takes an [`ExpRun`]: a [`Scale`] so benches can run
//! small while `exp_all` runs the full sweeps, the [`RunCtx`] its sweep
//! points fan out on, and the base fault campaign E16/E16b scale from.

pub mod ablation;
pub mod accel;
pub mod arch;
pub mod fpga_exp;
pub mod fuzz;
pub mod obs;
pub mod regress;
pub mod resilience_exp;
pub mod runtime_exp;
pub mod scale_exp;
pub mod serve_exp;
pub mod shard_exp;
pub mod timing;

pub use ecoscale_sim::report::Table;
use ecoscale_sim::{CampaignSpec, RunCtx};

/// How big to run an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced problem sizes for benches and CI.
    Quick,
    /// The full sweeps reported in `EXPERIMENTS.md`.
    Full,
}

impl Scale {
    /// Picks `q` under [`Scale::Quick`], else `f`.
    pub fn pick<T>(self, q: T, f: T) -> T {
        match self {
            Scale::Quick => q,
            Scale::Full => f,
        }
    }
}

/// What an experiment runs with. Its table depends on `scale` and
/// `campaign` only: `ctx` decides how widely it is computed and checked.
#[derive(Debug, Clone)]
pub struct ExpRun {
    /// Sweep sizes.
    pub scale: Scale,
    /// Pool width, shard count and check cadence of the sweep points.
    pub ctx: RunCtx,
    /// The campaign E16/E16b scale their fault intensities from
    /// (`exp_all --faults`).
    pub campaign: CampaignSpec,
}

impl ExpRun {
    /// `scale` on `ctx`, with E16/E16b scaling from
    /// [`resilience_exp::default_campaign`].
    pub fn new(scale: Scale, ctx: RunCtx) -> ExpRun {
        ExpRun {
            scale,
            ctx,
            campaign: resilience_exp::default_campaign(),
        }
    }
}

/// The signature every experiment shares.
pub type ExperimentFn = fn(&ExpRun) -> Table;

/// Every experiment, keyed by the short name `exp_all` accepts as a
/// filter, in the canonical E1→A4 reporting order.
pub const EXPERIMENTS: &[(&str, ExperimentFn)] = &[
    ("e01", arch::e01_hierarchy),
    ("e02", arch::e02_task_vs_data),
    ("e03", arch::e03_coherence),
    ("e04", accel::e04_smmu),
    ("e04b", accel::e04_invocation_rate),
    ("e05", accel::e05_virtualization),
    ("e06", accel::e06_unilogic),
    ("e07", runtime_exp::e07_scheduler),
    ("e08", runtime_exp::e08_lazy),
    ("e09", fpga_exp::e09_compression),
    ("e10", fpga_exp::e10_defrag),
    ("e11", fpga_exp::e11_chaining),
    ("e12", fpga_exp::e12_hls_dse),
    ("e13", scale_exp::e13_power),
    ("e14", scale_exp::e14_hybrid),
    ("e15", accel::e15_speedup_band),
    ("e16", resilience_exp::e16_resilience),
    ("e16b", resilience_exp::e16b_fabric),
    ("a1", ablation::a1_cut_through),
    ("a2", ablation::a2_tlb_size),
    ("a3", ablation::a3_benefit_margin),
    ("a4", ablation::a4_fat_tree),
    ("p1", shard_exp::p1_parallel_des),
    ("s1", serve_exp::s1_serving),
];

#[cfg(test)]
/// The run context this crate's tests hand to what they run: one thread,
/// one shard, and checks armed from `ECOSCALE_CHECK`, so an armed test
/// pass checks every simulator and system they build.
pub(crate) fn test_ctx() -> RunCtx {
    let check = std::env::var(ecoscale_sim::check::CHECK_ENV).ok();
    RunCtx::parse(Some("1"), Some("1"), check.as_deref())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }

    #[test]
    fn experiment_registry_keys_are_unique_and_ordered() {
        assert_eq!(EXPERIMENTS.len(), 24);
        let keys: Vec<&str> = EXPERIMENTS.iter().map(|&(k, _)| k).collect();
        let mut dedup = keys.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), keys.len(), "duplicate registry key");
        assert_eq!(keys.first(), Some(&"e01"));
        assert_eq!(keys.last(), Some(&"s1"));
    }
}
