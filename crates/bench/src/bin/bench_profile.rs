//! ProfPlane bench artifact: critical-path blame plus shard occupancy.
//!
//! ```text
//! bench_profile [--quick] [--out PATH]      # default PATH: BENCH_profile.json
//! ```
//!
//! Runs the five-phase observability capture
//! ([`ecoscale_bench::obs::capture_profile`]), extracts the
//! critical-path blame split from the merged trace, and writes:
//!
//! ```text
//! {"bench":"profile","scale":...,       // workload
//!  "profile":{...},                     // blame per layer (deterministic)
//!  "occupancy":{...},                   // shard bands (deterministic)
//!  "imbalance_index":...,               // widest band's imbalance
//!  "wall":{...}}                        // engine phase timers (host wall clock)
//! ```
//!
//! Everything except the `wall` section is a pure function of the
//! seeded simulation — byte-identical at any `ECOSCALE_THREADS`,
//! `ECOSCALE_SHARDS` or `ECOSCALE_CHECK`, read once here — so `bench_regress`
//! compares it exactly and skips the `wall` subtree. The blame and
//! occupancy tables are printed to stderr for operators.

use std::process::ExitCode;

use ecoscale_bench::obs::capture_profile;
use ecoscale_bench::Scale;
use ecoscale_sim::check::CHECK_ENV;
use ecoscale_sim::json::{self, fmt_f64};
use ecoscale_sim::pool::THREADS_ENV;
use ecoscale_sim::shard::SHARDS_ENV;
use ecoscale_sim::{prof, RunCtx};

fn usage() {
    eprintln!("usage: bench_profile [--quick] [--out PATH]");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Full;
    let mut out = "BENCH_profile.json".to_owned();
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

    let ctx = RunCtx::parse(
        std::env::var(THREADS_ENV).ok().as_deref(),
        std::env::var(SHARDS_ENV).ok().as_deref(),
        std::env::var(CHECK_ENV).ok().as_deref(),
    );
    let pc = capture_profile(scale, ctx);
    let report = prof::critical_path(&pc.capture.trace);

    let mut s = String::with_capacity(1024);
    s.push_str("{\"bench\":\"profile\",\"scale\":\"");
    s.push_str(scale.pick("quick", "full"));
    s.push_str("\",\"profile\":");
    s.push_str(&report.to_json());
    s.push_str(",\"occupancy\":");
    s.push_str(&pc.occupancy.to_json());
    s.push_str(",\"imbalance_index\":");
    fmt_f64(&mut s, pc.occupancy.imbalance_index());
    s.push_str(",\"wall\":");
    s.push_str(&pc.wall.to_json());
    s.push('}');

    if let Err(e) = std::fs::write(&out, &s) {
        eprintln!("bench_profile: write {out}: {e}");
        return ExitCode::FAILURE;
    }
    if json::parse(&s).is_err() {
        eprintln!("bench_profile: emitted invalid JSON");
        return ExitCode::FAILURE;
    }
    eprintln!("{}", report.to_table());
    eprintln!("{}", pc.occupancy.to_table());
    eprintln!("{}", pc.wall.to_table());
    eprintln!("wrote {out}");
    ExitCode::SUCCESS
}
