//! Benches of the deterministic work pool: a synthetic CPU-bound sweep
//! and a real experiment table, each on one thread vs the machine's full
//! width. Prints the observed speedup and asserts nothing — wall-clock
//! ratios are environment-dependent.

use ecoscale_bench::timing::bench;
use ecoscale_bench::{arch, ExpRun, Scale};
use ecoscale_sim::RunCtx;

/// ~1 ms of integer work per item, 64 items.
fn synthetic_sweep(ctx: RunCtx) -> u64 {
    ctx.map((0..64u64).collect::<Vec<_>>(), |x| {
        let mut acc = x;
        for k in 0..200_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
        }
        acc
    })
    .into_iter()
    .fold(0, u64::wrapping_add)
}

fn main() {
    let seq = RunCtx::SEQUENTIAL;
    let wide = RunCtx::parse(None, None, None);
    let cores = wide.threads;

    let s = bench("pool/synthetic_sweep_64x1ms/seq", || synthetic_sweep(seq));
    let p = bench(&format!("pool/synthetic_sweep_64x1ms/{cores}t"), || {
        synthetic_sweep(wide)
    });
    if let (Some(s), Some(p)) = (s, p) {
        println!(
            "  -> synthetic speedup: {:.2}x on {cores} cores",
            s.as_secs_f64() / p.as_secs_f64()
        );
    }

    let (seq, wide) = (
        ExpRun::new(Scale::Quick, seq),
        ExpRun::new(Scale::Quick, wide),
    );
    let s = bench("pool/e01_hierarchy_quick/seq", || arch::e01_hierarchy(&seq));
    let p = bench(&format!("pool/e01_hierarchy_quick/{cores}t"), || {
        arch::e01_hierarchy(&wide)
    });
    if let (Some(s), Some(p)) = (s, p) {
        println!(
            "  -> e01 speedup: {:.2}x on {cores} cores",
            s.as_secs_f64() / p.as_secs_f64()
        );
    }
}
