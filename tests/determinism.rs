//! Determinism regression tests for the parallel experiment harness.
//!
//! The contract in `ecoscale_sim::pool` is that results come back in
//! input order regardless of the pool width, so a rendered experiment
//! table must be byte-identical run-to-run and across thread counts; the
//! sharded engine makes the same promise across shard counts.
//!
//! Widths, shard counts and check cadences are passed as [`RunCtx`]
//! values, so these tests share no process state and run concurrently.

mod common;

use ecoscale::apps::mix::serve_mix;
use ecoscale::bench::fuzz::FuzzConfig;
use ecoscale::bench::{arch, obs, ExpRun, Scale};
use ecoscale::core::{
    run_serve_sim_with, run_shard_sim_with, ServeSimConfig, ShardOutcome, ShardSimConfig,
};
use ecoscale::runtime::ServeSpec;
use ecoscale::sim::check::CheckPlane;
use ecoscale::sim::{CampaignSpec, RunCtx};

fn threads(threads: usize) -> RunCtx {
    RunCtx {
        threads,
        ..common::ctx()
    }
}

fn shards(shards: usize) -> RunCtx {
    RunCtx {
        shards,
        ..common::ctx()
    }
}

fn render(ctx: RunCtx) -> String {
    arch::e01_hierarchy(&ExpRun::new(Scale::Quick, ctx)).to_string()
}

#[test]
fn repeated_runs_render_identically() {
    let a = render(threads(4));
    let b = render(threads(4));
    assert_eq!(a, b, "same-process reruns must be byte-identical");
}

#[test]
fn output_is_independent_of_thread_count() {
    let sequential = render(threads(1));
    let parallel = render(threads(4));
    assert_eq!(
        sequential, parallel,
        "1 and 4 threads must render byte-identical tables"
    );
}

/// The observability capture fans its scheduler lanes out on the pool and
/// merges per-lane tracers and registries in input order, so both exports
/// must be byte-identical at any pool width.
#[test]
fn observability_exports_are_independent_of_thread_count() {
    let capture = |ctx| {
        let cap = obs::capture_observability(Scale::Quick, ctx);
        (cap.trace.to_chrome_json(), cap.metrics.to_json())
    };
    let (trace_seq, metrics_seq) = capture(threads(1));
    let (trace_par, metrics_par) = capture(threads(8));
    assert_eq!(
        trace_seq, trace_par,
        "trace JSON must be byte-identical at 1 vs 8 threads"
    );
    assert_eq!(
        metrics_seq, metrics_par,
        "metrics JSON must be byte-identical at 1 vs 8 threads"
    );
}

/// A seeded fault campaign is part of the deterministic state: the
/// faulted capture (worker crashes/stalls, SEU scrub/repair, SMMU/NoC
/// injection under recovery) runs on the caller's thread at any pool
/// width — its run context only arms checks — and must export
/// byte-identical metrics and trace JSON on every run.
#[test]
fn fault_campaign_exports_are_independent_of_thread_count() {
    let spec = CampaignSpec::parse("seed=3,crash=1ms,seu=400us,scrub=800us,smmu=1e-3,corrupt=1e-3")
        .expect("campaign spec parses");
    let capture = || {
        let cap = obs::capture_fault_campaign(Scale::Quick, common::ctx(), &spec);
        (cap.trace.to_chrome_json(), cap.metrics.to_json())
    };
    let (trace_a, metrics_a) = capture();
    let (trace_b, metrics_b) = capture();
    assert_eq!(
        trace_a, trace_b,
        "faulted trace JSON must be byte-identical"
    );
    assert_eq!(
        metrics_a, metrics_b,
        "faulted metrics JSON must be byte-identical"
    );
}

fn shard_exports(out: &ShardOutcome) -> (String, String, String) {
    (
        out.metrics.to_json(),
        out.trace.to_chrome_json(),
        out.report(),
    )
}

/// The sharded conservative-parallel engine promises byte-identical
/// results at any shard count: metrics, trace, and report exports of the
/// cluster-partitioned simulation must match exactly between the
/// sequential run and a 4-shard run.
#[test]
fn shard_sim_exports_are_independent_of_shard_count() {
    let mut cfg = ShardSimConfig::new(6, 4);
    cfg.tasks_per_cluster = 96;
    let capture = |shards| {
        shard_exports(&run_shard_sim_with(
            &cfg,
            Some(shards),
            &mut CheckPlane::armed(common::ctx().check),
        ))
    };
    let sequential = capture(1);
    let parallel = capture(4);
    assert_eq!(
        sequential, parallel,
        "shard-sim exports must be byte-identical at 1 vs 4 shards"
    );
}

/// The ProfPlane export behind `exp_all --profile` — critical-path
/// blame over the merged capture plus the shard-occupancy bands — is a
/// pure function of the seeded workload: occupancy is event-count
/// accounting, not wall clock, so the rendered JSON must be
/// byte-identical at any shard count.
#[test]
fn profile_export_is_independent_of_shard_count() {
    let render = |ctx| {
        let pc = obs::capture_profile(Scale::Quick, ctx);
        let report = ecoscale::sim::prof::critical_path(&pc.capture.trace);
        format!(
            "{{\"profile\":{},\"occupancy\":{}}}",
            report.to_json(),
            pc.occupancy.to_json()
        )
    };
    let sequential = render(shards(1));
    let sharded = render(shards(4));
    assert_eq!(
        sequential, sharded,
        "profile export must be byte-identical at 1 vs 4 shards"
    );
}

fn serve_cfg() -> ServeSimConfig {
    let spec = ServeSpec::parse(
        "seed=19,tenants=4,rate=200000,horizon=400us,batch=6,deadline=250us,queue=24",
    )
    .expect("spec parses");
    let mut cfg = ServeSimConfig::new(spec, serve_mix());
    cfg.items = 32;
    cfg.cells = 2;
    cfg.ctx = common::ctx();
    cfg
}

fn serve_exports(cfg: &ServeSimConfig, threads: usize) -> (String, String) {
    let mut cfg = cfg.clone();
    cfg.ctx.threads = threads;
    let out = run_serve_sim_with(&cfg, &mut CheckPlane::disabled());
    (out.serving.to_json(), out.metrics.to_json())
}

/// ServePlane runs partition tenants over serving cells fanned out on
/// the pool; the merged serving report and metrics must be
/// byte-identical at any pool width.
#[test]
fn serving_exports_are_independent_of_thread_count() {
    let cfg = serve_cfg();
    let sequential = serve_exports(&cfg, 1);
    let parallel = serve_exports(&cfg, 8);
    assert_eq!(
        sequential, parallel,
        "serving exports must be byte-identical at 1 vs 8 threads"
    );
}

/// A faulted serving run (SEU + SMMU campaign through the resilience
/// layer) is part of the same deterministic state: its exports must be
/// byte-identical at any pool width too.
#[test]
fn faulted_serving_exports_are_independent_of_thread_count() {
    let mut cfg = serve_cfg();
    cfg.faults = CampaignSpec::parse("seed=5,seu=200us,smmu=0.002,scrub=400us")
        .expect("campaign spec parses");
    let sequential = serve_exports(&cfg, 1);
    let parallel = serve_exports(&cfg, 4);
    assert_eq!(
        sequential, parallel,
        "faulted serving exports must be byte-identical at 1 vs 4 threads"
    );
}

/// Sixteen fuzzed configurations (varying cluster counts, cluster widths,
/// workloads, and seeds drawn from the deterministic fuzz sweep), each
/// compared byte-for-byte between 1 and 4 shards.
#[test]
fn fuzzed_shard_sims_are_byte_identical_at_four_shards() {
    for i in 0..16 {
        let fz = FuzzConfig::from_index(i);
        let mut cfg = ShardSimConfig::new(2 + fz.workers % 5, 2 + fz.workers % 3);
        cfg.tasks_per_cluster = fz.tasks.clamp(8, 48);
        cfg.flops = 400;
        cfg.spacing_ns = 60;
        cfg.seed = fz.seed;
        let mut cp = CheckPlane::enabled(1);
        let seq = run_shard_sim_with(&cfg, Some(1), &mut cp);
        let par = run_shard_sim_with(&cfg, Some(4), &mut cp);
        assert!(cp.ok(), "config {i}: {:?}", cp.first());
        assert_eq!(
            shard_exports(&seq),
            shard_exports(&par),
            "fuzz config {i} ({fz}) diverged between shards=1 and =4"
        );
    }
}

fn telemetry_campaigns() -> Vec<(&'static str, CampaignSpec)> {
    vec![
        ("clean", CampaignSpec::off()),
        (
            "faulted",
            CampaignSpec::parse("seed=5,seu=200us,smmu=0.002,scrub=400us")
                .expect("campaign spec parses"),
        ),
    ]
}

/// The TelePlane capture behind `exp_all --telemetry` — the merged
/// serving window series, the per-cell flight recorders, and the sharded
/// engine's per-safe-window series — must export byte-identically at any
/// pool width, with and without a fault campaign injected into the
/// serving backend; the flight-dump evidence bundle rides along.
#[test]
fn telemetry_exports_are_independent_of_thread_count() {
    for (label, campaign) in telemetry_campaigns() {
        let capture = |ctx| {
            let cap = obs::capture_telemetry(Scale::Quick, ctx, &campaign);
            (cap.to_json(), cap.flight_dump_json())
        };
        assert_eq!(
            capture(threads(1)),
            capture(threads(8)),
            "{label} telemetry capture must be byte-identical at 1 vs 8 threads"
        );
    }
}

/// The shard half of the telemetry capture is fed by the sharded
/// engine's safe-window folds, so the whole export (and its flight dump)
/// must also be byte-identical at any shard count.
#[test]
fn telemetry_exports_are_independent_of_shard_count() {
    for (label, campaign) in telemetry_campaigns() {
        let capture = |ctx| {
            let cap = obs::capture_telemetry(Scale::Quick, ctx, &campaign);
            (cap.to_json(), cap.flight_dump_json())
        };
        assert_eq!(
            capture(shards(1)),
            capture(shards(4)),
            "{label} telemetry capture must be byte-identical at 1 vs 4 shards"
        );
    }
}

/// The SnapPlane restore-equivalence oracle must hold at any pool
/// width: checkpoint the faulted serving run mid-horizon at one width,
/// resume it at another, and both the resumed exports and the
/// uninterrupted run's exports must be byte-identical across the matrix.
#[test]
fn serve_resume_exports_are_independent_of_thread_count() {
    use ecoscale::core::{serve_checkpoint, serve_resume_with};
    use ecoscale::sim::Duration;
    use ecoscale::sim::Time;

    let mut cfg = serve_cfg();
    cfg.faults = CampaignSpec::parse("seed=5,seu=200us,smmu=0.002,scrub=400us")
        .expect("campaign spec parses");
    let at = Time::ZERO + Duration::from_us(180);
    let mut wide = cfg.clone();
    wide.ctx.threads = 8;

    let uninterrupted = serve_exports(&cfg, 1);
    let bytes = serve_checkpoint(&cfg, at);

    // The snapshot itself must not depend on the pool width.
    let bytes_par = serve_checkpoint(&wide, at);
    assert_eq!(
        bytes, bytes_par,
        "serve snapshot bytes must be identical at 1 vs 8 threads"
    );

    let resume_exports = |cfg: &ServeSimConfig| {
        let out =
            serve_resume_with(cfg, &bytes, &mut CheckPlane::disabled()).expect("resume succeeds");
        assert_eq!(out.violations, 0, "resume must pass invariant checks");
        (out.serving.to_json(), out.metrics.to_json())
    };
    assert_eq!(
        resume_exports(&cfg),
        uninterrupted,
        "resumed serving exports must match the uninterrupted run"
    );
    assert_eq!(
        resume_exports(&wide),
        uninterrupted,
        "resume at 8 threads must match the uninterrupted run"
    );
}
