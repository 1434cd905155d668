//! ServePlane bench artifact: batching win, SLO tails, and graceful
//! degradation under faults.
//!
//! ```text
//! bench_serve [--quick] [--out PATH]        # default PATH: BENCH_serve.json
//! ```
//!
//! Runs the S1 serving workload ([`ecoscale_bench::serve_exp::serving_config`]: 4
//! tenants over the fir+blackscholes mix at a saturating offered rate)
//! three ways — batching dispatcher on, batching off at the identical
//! offered load, and batching on under an E16-style SEU/SMMU fault
//! campaign — and writes:
//!
//! ```text
//! {"bench":"serve","scale":...,"spec":...,"spec_off":...,"faults":...,
//!  "items":...,                            // workload
//!  "batching_on":{...},"batching_off":{...},"faulted":{...},
//!  "goodput_gain":...,"p99_degradation":...,"snapshot_bytes":...}
//! ```
//!
//! Every field is a pure function of the seeded simulation — identical
//! at any `ECOSCALE_THREADS`, and with `ECOSCALE_CHECK` (read once here)
//! unset — so `bench_regress` compares the whole document exactly. The binary
//! itself enforces the serving acceptance bar: requests conserved on
//! all three runs, zero requests lost under faults, a strict batching
//! goodput win, bounded p99 growth under the campaign, and a mid-horizon
//! SnapPlane checkpoint whose resumed continuation reproduces the
//! uninterrupted serving export byte for byte (its size is the pinned
//! `snapshot_bytes` row).

use std::process::ExitCode;

use ecoscale_bench::serve_exp::serving_config;
use ecoscale_bench::Scale;
use ecoscale_core::{run_serve_sim_with, serve_checkpoint, serve_resume_with, ServeOutcome};
use ecoscale_sim::check::{CheckPlane, CHECK_ENV};
use ecoscale_sim::json::{self, escape, fmt_f64};
use ecoscale_sim::{CampaignSpec, Duration, RunCtx, Time};

/// The E16-style campaign the faulted lane runs under.
const FAULTS: &str = "seed=5,seu=200us,smmu=0.002,scrub=400us";

/// Factor the faulted p99 may grow over the clean batched p99 before
/// the run counts as a stall rather than graceful degradation.
const P99_BOUND: f64 = 10.0;

fn usage() {
    eprintln!("usage: bench_serve [--quick] [--out PATH]");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Full;
    let mut out = "BENCH_serve.json".to_owned();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--out" => match it.next() {
                Some(p) => out = p.clone(),
                None => {
                    usage();
                    return ExitCode::from(2);
                }
            },
            _ => {
                usage();
                return ExitCode::from(2);
            }
        }
    }

    let mut cfg = serving_config(350_000, scale.pick(500, 1000));
    let check = std::env::var(CHECK_ENV).ok();
    cfg.ctx = RunCtx::parse(Some("1"), Some("1"), check.as_deref());
    let mut cfg_off = cfg.clone();
    cfg_off.spec = cfg.spec.batching_off();
    let mut cfg_faulted = cfg.clone();
    cfg_faulted.faults = CampaignSpec::parse(FAULTS).expect("campaign is well-formed");

    let run = |cfg| run_serve_sim_with(cfg, &mut CheckPlane::disabled());
    let (on, off, faulted) = (run(&cfg), run(&cfg_off), run(&cfg_faulted));

    for (name, run) in [("on", &on), ("off", &off), ("faulted", &faulted)] {
        if !run.serving.conserved() || run.lost > 0 || run.violations > 0 {
            eprintln!(
                "bench_serve: `{name}` run broke conservation (lost={}, violations={})",
                run.lost, run.violations
            );
            return ExitCode::FAILURE;
        }
    }
    let goodput_gain = on.serving.goodput() as f64 / off.serving.goodput().max(1) as f64;
    if goodput_gain <= 1.0 {
        eprintln!(
            "bench_serve: batching did not beat no-batching: {} vs {}",
            on.serving.goodput(),
            off.serving.goodput()
        );
        return ExitCode::FAILURE;
    }
    let p99_degradation = faulted.serving.latency.percentile(99.0) as f64
        / on.serving.latency.percentile(99.0).max(1) as f64;
    if p99_degradation > P99_BOUND {
        eprintln!("bench_serve: faulted p99 grew {p99_degradation:.2}x (bound {P99_BOUND}x)");
        return ExitCode::FAILURE;
    }

    // SnapPlane row: checkpoint the batched lane mid-horizon. The byte
    // size is a pure function of the seeded simulation, so bench_regress
    // pins it exactly, and the resumed continuation must reproduce the
    // uninterrupted serving export byte for byte.
    let at = Time::ZERO + Duration::from_us(scale.pick(250, 500));
    let snap = serve_checkpoint(&cfg, at);
    match serve_resume_with(&cfg, &snap, &mut CheckPlane::disabled()) {
        Ok(resumed) if resumed.serving.to_json() == on.serving.to_json() => {}
        Ok(_) => {
            eprintln!("bench_serve: resume at {at} diverged from the uninterrupted run");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("bench_serve: checkpoint refused on resume: {e}");
            return ExitCode::FAILURE;
        }
    }

    let mut s = String::with_capacity(4096);
    s.push_str("{\"bench\":\"serve\",\"scale\":\"");
    s.push_str(scale.pick("quick", "full"));
    s.push_str("\",\"spec\":");
    escape(&mut s, &cfg.spec.to_string());
    s.push_str(",\"spec_off\":");
    escape(&mut s, &cfg_off.spec.to_string());
    s.push_str(",\"faults\":");
    escape(&mut s, FAULTS);
    s.push_str(",\"items\":");
    s.push_str(&cfg.items.to_string());
    for (key, run) in [
        ("batching_on", &on),
        ("batching_off", &off),
        ("faulted", &faulted),
    ] {
        s.push_str(",\"");
        s.push_str(key);
        s.push_str("\":");
        s.push_str(&run.serving.to_json());
    }
    s.push_str(",\"goodput_gain\":");
    fmt_f64(&mut s, goodput_gain);
    s.push_str(",\"p99_degradation\":");
    fmt_f64(&mut s, p99_degradation);
    s.push_str(",\"snapshot_bytes\":");
    s.push_str(&snap.len().to_string());
    s.push('}');

    if let Err(e) = std::fs::write(&out, &s) {
        eprintln!("bench_serve: write {out}: {e}");
        return ExitCode::FAILURE;
    }
    if json::parse(&s).is_err() {
        eprintln!("bench_serve: emitted invalid JSON");
        return ExitCode::FAILURE;
    }
    for (name, run) in [
        ("batching on", &on as &ServeOutcome),
        ("batching off", &off),
        ("faulted", &faulted),
    ] {
        eprintln!("-- {name} --");
        eprintln!("{}", run.serving.to_table());
    }
    eprintln!(
        "goodput gain {goodput_gain:.2}x, faulted p99 {p99_degradation:.2}x, \
         shed rate {:.1}% -> {:.1}%",
        100.0 * on.serving.shed_rate(),
        100.0 * faulted.serving.shed_rate()
    );
    eprintln!("wrote {out}");
    ExitCode::SUCCESS
}
