//! Wall-clock scaling of the sharded conservative-parallel DES engine.
//!
//! Runs the P1 cluster-partitioned model (`shard_exp::scaling_config`)
//! at 1, 2, 4 and 8 shards, times each run, asserts the merged
//! exports stay byte-identical to the 1-shard baseline, and writes the
//! measurements to `BENCH_parallel_des.json`:
//!
//! ```text
//! bench_parallel_des [--smoke] [--out PATH] [--clusters N] [--tasks N] [--reps N]
//! ```
//!
//! Two speedups are recorded per point. `speedup` is measured wall-clock
//! vs the 1-shard run — bounded by `host_cores`, which the JSON also
//! records (a 1-core container cannot exhibit wall-clock parallel
//! speedup; the engine caps its workers at the host's parallelism, so
//! oversubscribed runs degrade gracefully instead of spinning).
//! `critical_path_speedup` is the standard conservative-PDES bound read
//! from the run's own [`ShardOccupancy`] accounting: per safe window,
//! total events over the busiest shard's slice — what the window
//! protocol yields with one core per shard. Event counts are
//! deterministic simulation state, so this bound is byte-identical at
//! any shard layout (unlike the wall-clock columns).
//!
//! [`ShardOccupancy`]: ecoscale_sim::ShardOccupancy
//!
//! `--smoke` shrinks the workload for CI, re-parses the emitted JSON and
//! validates the schema instead of chasing a speedup target. Timings are
//! host-dependent; everything else in the file is deterministic.

use std::process::ExitCode;
use std::time::Instant;

use ecoscale_bench::shard_exp::scaling_config;
use ecoscale_core::{run_shard_sim_with, ShardOutcome};
use ecoscale_sim::check::CheckPlane;
use ecoscale_sim::json::{self, fmt_f64};

const SHARD_COUNTS: &[usize] = &[1, 2, 4, 8];

fn usage() {
    eprintln!(
        "usage: bench_parallel_des [--smoke] [--out PATH] [--clusters N] [--tasks N] [--reps N]"
    );
}

struct Point {
    shards: usize,
    best_s: f64,
    events_per_sec: f64,
    speedup: f64,
    critical_path_speedup: f64,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out = "BENCH_parallel_des.json".to_owned();
    let mut clusters = 16usize;
    let mut tasks = 4096usize;
    let mut reps = 3usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => {
                smoke = true;
                clusters = 8;
                tasks = 64;
                reps = 1;
            }
            "--out" => match it.next() {
                Some(p) => out = p.clone(),
                None => {
                    usage();
                    return ExitCode::FAILURE;
                }
            },
            "--clusters" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => clusters = n,
                None => {
                    usage();
                    return ExitCode::FAILURE;
                }
            },
            "--tasks" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => tasks = n,
                None => {
                    usage();
                    return ExitCode::FAILURE;
                }
            },
            "--reps" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => reps = n.max(1),
                None => {
                    usage();
                    return ExitCode::FAILURE;
                }
            },
            _ => {
                usage();
                return ExitCode::FAILURE;
            }
        }
    }

    let cfg = scaling_config(clusters, tasks);
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut points: Vec<Point> = Vec::new();
    let mut baseline: Option<(f64, ShardOutcome)> = None;
    for &shards in SHARD_COUNTS {
        let mut best_s = f64::INFINITY;
        let mut last: Option<ShardOutcome> = None;
        for _ in 0..reps {
            let mut cp = CheckPlane::enabled(1);
            let t0 = Instant::now();
            let outcome = run_shard_sim_with(&cfg, Some(shards), &mut cp);
            let dt = t0.elapsed().as_secs_f64();
            if let Some(v) = cp.first() {
                eprintln!("bench_parallel_des: invariant violated at shards={shards}: {v:?}");
                return ExitCode::FAILURE;
            }
            best_s = best_s.min(dt);
            last = Some(outcome);
        }
        let outcome = last.expect("reps >= 1");
        let events = outcome.events;
        // Critical-path bound for this shard count, read from the run's
        // occupancy bands (shards=1 trivially has bound 1.0; occupancy
        // bands only cover widths >= 2 and `speedup` returns 1.0 for
        // anything unbanded).
        let crit = outcome.occupancy.speedup(shards);
        match &baseline {
            None => baseline = Some((best_s, outcome)),
            Some((base_s, base)) => {
                let identical = base.metrics.to_json() == outcome.metrics.to_json()
                    && base.trace.to_chrome_json() == outcome.trace.to_chrome_json()
                    && base.report() == outcome.report();
                if !identical {
                    eprintln!("bench_parallel_des: shards={shards} diverged from shards=1");
                    return ExitCode::FAILURE;
                }
                points.push(Point {
                    shards,
                    best_s,
                    events_per_sec: events as f64 / best_s,
                    speedup: base_s / best_s,
                    critical_path_speedup: crit,
                });
            }
        }
        let (base_s, _) = baseline.as_ref().expect("baseline set");
        if shards == 1 {
            points.push(Point {
                shards: 1,
                best_s: *base_s,
                events_per_sec: events as f64 / base_s,
                speedup: 1.0,
                critical_path_speedup: 1.0,
            });
        }
        eprintln!(
            "shards={shards}: {best_s:.3}s  ({:.0} events/s, wall speedup {:.2}x, critical-path {:.2}x)",
            events as f64 / best_s,
            points.last().map(|p| p.speedup).unwrap_or(1.0),
            crit,
        );
    }

    let (_, base) = baseline.expect("at least one shard count ran");
    let mut s = String::new();
    s.push_str("{\"bench\":\"parallel_des\",");
    s.push_str(&format!(
        "\"host_cores\":{host_cores},\"clusters\":{clusters},\"tasks_per_cluster\":{tasks},\"reps\":{reps},"
    ));
    s.push_str(&format!(
        "\"events\":{},\"rounds\":{},\"lookahead_ns\":{},",
        base.events,
        base.rounds,
        base.lookahead.as_ns()
    ));
    s.push_str("\"identical_exports\":true,\"points\":[");
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("{{\"shards\":{},\"wall_s\":", p.shards));
        fmt_f64(&mut s, p.best_s);
        s.push_str(",\"events_per_sec\":");
        fmt_f64(&mut s, p.events_per_sec);
        s.push_str(",\"speedup\":");
        fmt_f64(&mut s, p.speedup);
        s.push_str(",\"critical_path_speedup\":");
        fmt_f64(&mut s, p.critical_path_speedup);
        s.push('}');
    }
    s.push_str("]}");

    if let Err(e) = std::fs::write(&out, &s) {
        eprintln!("bench_parallel_des: write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {out}");

    if smoke {
        // Validate the artifact's schema by re-parsing what we wrote.
        let doc = match json::parse(&s) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("bench_parallel_des: emitted invalid JSON: {e}");
                return ExitCode::FAILURE;
            }
        };
        let ok = doc.get("bench").and_then(|v| v.as_str()) == Some("parallel_des")
            && doc.get("events").and_then(|v| v.as_f64()).unwrap_or(0.0) > 0.0
            && doc
                .get("host_cores")
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0)
                >= 1.0
            && doc
                .get("points")
                .and_then(|v| v.as_arr())
                .is_some_and(|pts| {
                    pts.len() == SHARD_COUNTS.len()
                        && pts.iter().all(|p| {
                            p.get("shards").and_then(|v| v.as_f64()).is_some()
                                && p.get("wall_s").and_then(|v| v.as_f64()).is_some()
                                && p.get("events_per_sec").and_then(|v| v.as_f64()).is_some()
                                && p.get("speedup").and_then(|v| v.as_f64()).is_some()
                                && p.get("critical_path_speedup")
                                    .and_then(|v| v.as_f64())
                                    .is_some()
                        })
                });
        if !ok {
            eprintln!("bench_parallel_des: schema check failed on {out}");
            return ExitCode::FAILURE;
        }
        eprintln!("smoke: schema ok");
    }
    ExitCode::SUCCESS
}
