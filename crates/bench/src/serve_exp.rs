//! S1 — ServePlane: multi-tenant serving under increasing offered load,
//! batching on vs off.
//!
//! Each point runs the same open-loop workload twice over identical
//! backends — once with the batching dispatcher (coalescing compatible
//! requests into one amortized `EcoscaleSystem::call`) and once with
//! batching disabled (`batch=1`, no coalescing wait) — and reports
//! goodput, shed rate, and tail latency side by side. Past the
//! unbatched capacity knee the batched lane keeps completing what the
//! unbatched lane sheds; the table asserts request conservation on
//! every run and a strict batching goodput win at the saturated top
//! rate.

use ecoscale_apps::mix::serve_mix;
use ecoscale_core::{run_serve_sim_with, ServeSimConfig};
use ecoscale_runtime::ServeSpec;
use ecoscale_sim::check::CheckPlane;
use ecoscale_sim::report::{fnum, Table};
use ecoscale_sim::Duration;

use crate::ExpRun;

/// The serving config the S1 sweep and `bench_serve` share: 4 tenants
/// over the `apps` serving mix at `rate` requests/sec/tenant, 32-item
/// requests, batching up to 8.
pub fn serving_config(rate: u64, horizon_us: u64) -> ServeSimConfig {
    let spec = ServeSpec::parse(&format!(
        "seed=42,tenants=4,rate={rate},horizon={horizon_us}us,batch=8,deadline=300us,queue=32"
    ))
    .expect("S1 spec is well-formed");
    let mut cfg = ServeSimConfig::new(spec, serve_mix());
    cfg.items = 32;
    cfg
}

/// S1 — goodput/shed/p99 vs offered load, batching on vs off.
pub fn s1_serving(run: &ExpRun) -> Table {
    let rates: &[u64] = run.scale.pick(
        &[150_000, 350_000][..],
        &[150_000, 250_000, 350_000, 450_000][..],
    );
    let horizon_us = run.scale.pick(500, 1000);
    let mut t = Table::new(
        "S1: multi-tenant serving (4 tenants, fir+blackscholes mix, batch<=8 vs none)",
        &[
            "rate/tenant",
            "submitted",
            "goodput",
            "goodput[nobatch]",
            "shed%",
            "shed%[nobatch]",
            "p99",
            "p99[nobatch]",
            "mean batch",
        ],
    );
    let mut last_pair = (0u64, 0u64);
    for &rate in rates {
        let mut cfg = serving_config(rate, horizon_us);
        cfg.ctx.check = run.ctx.check;
        let mut off = cfg.clone();
        off.spec = cfg.spec.batching_off();
        let mut cp = CheckPlane::enabled(1);
        let on = run_serve_sim_with(&cfg, &mut cp);
        assert!(cp.ok(), "invariants: {:?}", cp.first());
        let off = run_serve_sim_with(&off, &mut cp);
        assert!(cp.ok(), "invariants: {:?}", cp.first());
        for out in [&on, &off] {
            assert!(out.serving.conserved(), "rate {rate}: requests lost");
            assert_eq!(out.lost, 0, "rate {rate}: resilience dropped work");
        }
        assert!(
            on.serving.goodput() >= off.serving.goodput(),
            "rate {rate}: batching lost goodput"
        );
        last_pair = (on.serving.goodput(), off.serving.goodput());
        t.row_owned(vec![
            rate.to_string(),
            on.serving.submitted().to_string(),
            on.serving.goodput().to_string(),
            off.serving.goodput().to_string(),
            fnum(100.0 * on.serving.shed_rate()),
            fnum(100.0 * off.serving.shed_rate()),
            Duration::from_ns(on.serving.latency.percentile(99.0)).to_string(),
            Duration::from_ns(off.serving.latency.percentile(99.0)).to_string(),
            fnum(on.serving.mean_batch()),
        ]);
    }
    // at the top (saturated) rate the batched dispatcher must win outright
    assert!(
        last_pair.0 > last_pair.1,
        "batching did not beat no-batching at saturation: {} vs {}",
        last_pair.0,
        last_pair.1
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn s1_runs_quick_and_is_deterministic() {
        let a = s1_serving(&ExpRun::new(Scale::Quick, crate::test_ctx())).to_string();
        let b = s1_serving(&ExpRun::new(Scale::Quick, crate::test_ctx())).to_string();
        assert_eq!(a, b);
        assert!(a.contains("S1:"));
    }
}
