//! Seeded configuration fuzzer for the whole stack.
//!
//! ```text
//! fuzz_configs [--count N] [--start N] [--inject-violation]
//! fuzz_configs --repro 'seed=..,topo=..,sched=..,faults=..,tasks=..,workers=..,threads=..'
//! ```
//!
//! Sweeps `--count` deterministic configurations (default 64, starting at
//! index `--start`) over topology × scheduler policy × fault campaign ×
//! scale × thread count × shard count × tenant count. Every configuration
//! runs with all invariants armed and its exports compared byte-for-byte
//! between one thread (one shard) and the configuration's thread (shard)
//! count. Each configuration carries its own counts; `ECOSCALE_CHECK=N`,
//! read once here, also arms every serving cell's system at cadence `N`.
//!
//! Every configuration serves the same kernel mix, so the sweep, a
//! `--repro` run and the shrinker share one build of it.
//!
//! On failure the configuration is shrunk to a minimal still-failing one
//! and a single-line `--repro` command is printed; exit code 1. Clean
//! sweeps print a one-line summary; exit code 0. Usage errors exit 2.
//!
//! `--inject-violation` arms a test-only deliberate violation
//! (`check.sabotage`, fires at `tasks >= 24`) to prove the
//! catch → shrink → repro pipeline end to end.

use std::process::ExitCode;

use ecoscale_bench::fuzz::{run_config_with, shrink_config, FuzzConfig};
use ecoscale_core::ServeArtifacts;
use ecoscale_sim::check::CHECK_ENV;
use ecoscale_sim::RunCtx;

fn usage() {
    eprintln!("usage: fuzz_configs [--count N] [--start N] [--inject-violation] [--repro SPEC]");
    eprintln!("  --count N            configurations to sweep (default 64)");
    eprintln!("  --start N            first sweep index (default 0)");
    eprintln!("  --inject-violation   arm the test-only check.sabotage invariant");
    eprintln!("  --repro SPEC         re-run one configuration from its spec string");
}

fn report_failure(cfg: &FuzzConfig, detail: &str, inject: bool, check: u64) {
    println!("FAIL config `{cfg}`: {detail}");
    let min = shrink_config(cfg, |c| run_config_with(c, inject, check).is_err());
    if min != *cfg {
        match run_config_with(&min, inject, check) {
            Err(e) => println!("shrunk to `{min}`: {}", e.detail),
            Ok(_) => println!("shrunk to `{min}` (no longer fails; reporting original)"),
        }
    }
    let flag = if inject { " --inject-violation" } else { "" };
    println!("repro: fuzz_configs --repro '{min}'{flag}");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut count = 64u64;
    let mut start = 0u64;
    let mut inject = false;
    let mut repro: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                usage();
                return ExitCode::SUCCESS;
            }
            "--inject-violation" => inject = true,
            "--count" | "--start" | "--repro" => {
                let Some(v) = it.next() else {
                    eprintln!("error: {arg} needs a value");
                    usage();
                    return ExitCode::from(2);
                };
                match arg.as_str() {
                    "--count" => match v.parse() {
                        Ok(n) => count = n,
                        Err(e) => {
                            eprintln!("error: bad --count `{v}`: {e}");
                            usage();
                            return ExitCode::from(2);
                        }
                    },
                    "--start" => match v.parse() {
                        Ok(n) => start = n,
                        Err(e) => {
                            eprintln!("error: bad --start `{v}`: {e}");
                            usage();
                            return ExitCode::from(2);
                        }
                    },
                    _ => repro = Some(v.clone()),
                }
            }
            other => {
                eprintln!("error: unknown argument `{other}`");
                usage();
                return ExitCode::from(2);
            }
        }
    }
    let check = RunCtx::parse(None, None, std::env::var(CHECK_ENV).ok().as_deref()).check;

    let artifacts = ServeArtifacts::default();

    if let Some(spec) = repro {
        let cfg = match FuzzConfig::parse(&spec) {
            Ok(cfg) => FuzzConfig {
                artifacts: artifacts.clone(),
                ..cfg
            },
            Err(e) => {
                eprintln!("error: bad --repro spec: {e}");
                usage();
                return ExitCode::from(2);
            }
        };
        return match run_config_with(&cfg, inject, check) {
            Ok(r) => {
                println!(
                    "repro `{cfg}`: clean ({} invariant checks, 0 violations)",
                    r.checks_run
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                report_failure(&cfg, &e.detail, inject, check);
                ExitCode::FAILURE
            }
        };
    }

    let mut total_checks = 0u64;
    for i in start..start.saturating_add(count) {
        let cfg = FuzzConfig {
            artifacts: artifacts.clone(),
            ..FuzzConfig::from_index(i)
        };
        match run_config_with(&cfg, inject, check) {
            Ok(r) => total_checks += r.checks_run,
            Err(e) => {
                println!("FAIL at sweep index {i}");
                report_failure(&cfg, &e.detail, inject, check);
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "fuzz_configs: {count} configs clean (indices {start}..{}, {total_checks} invariant checks, 0 violations)",
        start.saturating_add(count)
    );
    ExitCode::SUCCESS
}
