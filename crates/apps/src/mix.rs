//! The serving kernel mix: the `apps` kernels tenants draw requests
//! from in a ServePlane run.
//!
//! Only **item-linear** kernels qualify: a batch of `k` coalesced
//! requests executes as one call over `k × items` items, which models
//! the true cost only when work scales linearly in the item count (FIR
//! over `n` outputs, Black–Scholes over `n` options). Superlinear
//! kernels (GEMM is `O(n³)` in its dimension, the stencil sweeps a 2-D
//! grid) would make a coalesced batch *more* expensive than its parts,
//! so they stay out of the mix.
//!
//! Binders are pure functions of the item count — fixed generator seeds,
//! no ambient state — which keeps serving runs byte-identical across
//! thread and shard counts.

use ecoscale_core::{serve_hints, ServeKernel};
use ecoscale_hls::KernelArgs;

use crate::{blackscholes, fir};

/// Taps used by the serving FIR entry (fixed: per-request work must be
/// a function of the item count alone).
pub const FIR_TAPS: usize = 16;

fn bind_fir(n: usize) -> KernelArgs {
    let (x, h) = fir::generate(n, FIR_TAPS, 7);
    fir::bind_owned(x, h, n)
}

fn bind_blackscholes(n: usize) -> KernelArgs {
    let (spots, strikes) = blackscholes::generate(n, 11);
    blackscholes::bind_owned(spots, strikes, 0.02, 0.3, 1.0)
}

/// The default serving mix: FIR filtering and Black–Scholes pricing,
/// both item-linear and HLS-synthesizable.
pub fn serve_mix() -> Vec<ServeKernel> {
    vec![
        ServeKernel {
            name: "fir",
            source: fir::KERNEL,
            hints: serve_hints(&[("n", 96.0), ("taps", FIR_TAPS as f64)]),
            bind: bind_fir,
        },
        ServeKernel {
            name: "blackscholes",
            source: blackscholes::KERNEL,
            hints: serve_hints(&[("n", 96.0), ("r", 0.02), ("sigma", 0.3), ("t", 1.0)]),
            bind: bind_blackscholes,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecoscale_core::{run_serve_sim_with, ServeSimConfig};
    use ecoscale_runtime::ServeSpec;
    use ecoscale_sim::check::{CheckPlane, CHECK_ENV};
    use ecoscale_sim::RunCtx;

    #[test]
    fn mix_binders_match_their_kernels() {
        use ecoscale_hls::parse_kernel;
        for k in serve_mix() {
            let kernel = parse_kernel(k.source).unwrap();
            let mut args = (k.bind)(64);
            args.run(&kernel).expect("mix binder satisfies its kernel");
        }
    }

    #[test]
    fn mix_serves_end_to_end() {
        let spec = ServeSpec::parse("seed=3,tenants=2,rate=60000,horizon=400us,batch=4").unwrap();
        let mut cfg = ServeSimConfig::new(spec, serve_mix());
        cfg.items = 48;
        // checks armed from ECOSCALE_CHECK, so an armed test pass checks
        // every cell's system
        let check = std::env::var(CHECK_ENV).ok();
        cfg.ctx = RunCtx::parse(Some("1"), Some("1"), check.as_deref());
        let out = run_serve_sim_with(&cfg, &mut CheckPlane::disabled());
        assert!(out.serving.conserved());
        assert!(out.serving.completed() > 0);
        assert_eq!(out.violations, 0);
        // both mix entries actually got traffic
        let m = &out.metrics;
        assert!(m.counter("serve.batches").unwrap() > 0);
        assert!(out
            .report
            .functions
            .iter()
            .any(|f| f.function == "fir" || f.function == "blackscholes"));
    }
}
