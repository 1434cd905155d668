//! Regenerates every experiment table (E1-E16, A1-A4, P1, S1).
//!
//! `cargo run --release -p ecoscale-bench --bin exp_all` produces the
//! outputs quoted in EXPERIMENTS.md. Tables are computed concurrently on
//! the `ecoscale_sim::pool` work pool and printed in the fixed E1→A4
//! order, so the output is byte-identical at any thread count. The pool
//! width (`ECOSCALE_THREADS`, default all cores), shard count
//! (`ECOSCALE_SHARDS`, default 1) and check cadence (`ECOSCALE_CHECK`,
//! default off) are read once, here, and passed down as a [`RunCtx`].
//!
//! ```text
//! exp_all [--scale quick|full] [--trace FILE] [--metrics FILE] [--profile FILE]
//!         [--telemetry FILE] [--flight-dump DIR]
//!         [--faults SPEC] [--serve SPEC] [--serve-out FILE] [KEY...]
//! exp_all --scale quick e03 e09    # just E3 and E9, reduced sweeps
//! exp_all --scale quick --trace t.json --metrics m.json e03
//! exp_all --scale quick --profile p.json e03
//! exp_all --faults seed=3,crash=1ms,seu=400us,scrub=800us e16 e16b
//! exp_all --serve seed=7,rate=200000,horizon=1ms --serve-out s.json s1
//! exp_all --serve seed=7,rate=200000,horizon=1ms --telemetry t.json --flight-dump dump
//! ```
//!
//! `--trace` writes a Chrome Trace Event JSON file (open in Perfetto or
//! `chrome://tracing`); `--metrics` writes the instrument registry as
//! JSON. Any of the three capture flags triggers one full-stack
//! observability capture (`ecoscale_bench::obs`) alongside the selected
//! experiments, so the files always cover SMMU, UNIMEM/NoC, scheduler,
//! reconfiguration, and sharded-engine activity regardless of which
//! experiment keys ran.
//!
//! `--profile` writes the ProfPlane report over that capture: the
//! critical-path blame split plus the shard-occupancy bands, as one
//! JSON object (`{"profile":...,"occupancy":...}`). Both sections are
//! deterministic — the file is byte-identical at any `ECOSCALE_THREADS`
//! or `ECOSCALE_SHARDS` — and the rendered tables go to stdout. The
//! engine's host-dependent wall-clock phase timers go to stderr only.
//!
//! `--telemetry` writes the TelePlane capture (DESIGN.md §15): the
//! merged serving window series, one flight recorder per serving cell,
//! and the sharded engine's per-safe-window series, as one
//! deterministic JSON object (`{"serve":...,"shard":...}`). When a
//! `--serve` run is present its cells are armed and provide the serving
//! half; otherwise the canonical `bench::obs` serving campaign runs.
//! `--flight-dump DIR` (requires `--telemetry`) writes the anomaly
//! evidence bundle when a flight-recorder trigger fired: `flight.json`
//! (trigger + event rings and series tails) plus, for a `--serve` run,
//! `snapshot.bin` — a SnapPlane checkpoint at the first trigger's
//! instant, restorable with `--resume`.
//!
//! `--faults` takes a seeded [`CampaignSpec`] (`key=value,...`); it
//! becomes the base campaign the E16/E16b sweeps scale from and, when
//! combined with `--trace`/`--metrics`, also folds a faulted capture
//! (`capture_fault_campaign`) into the exported files.
//!
//! `--serve` takes a seeded [`ServeSpec`] (`key=value,...`, e.g.
//! `seed=7,tenants=4,rate=200000,horizon=1ms,batch=8`) and runs one
//! ServePlane simulation over the `apps` serving mix after the selected
//! tables, printing the per-tenant SLO table. A `--faults` campaign, when
//! given, is injected into the serving backend too. `--serve-out FILE`
//! writes the run's serving report as deterministic JSON
//! (`{"spec":...,"serving":...}` — byte-identical at any
//! `ECOSCALE_THREADS`/`ECOSCALE_SHARDS`).

use std::process::ExitCode;

use ecoscale_apps::mix::serve_mix;
use ecoscale_bench::obs::{
    capture_fault_campaign, capture_observability, capture_profile, capture_telemetry,
    telemetry_shard_series, TelemetryCapture,
};
use ecoscale_bench::{ExpRun, Scale, EXPERIMENTS};
use ecoscale_core::{
    run_serve_sim_with, serve_checkpoint, serve_resume_with, ServeSimConfig, ServeTelemetry,
};
use ecoscale_runtime::ServeSpec;
use ecoscale_sim::check::{CheckPlane, CHECK_ENV};
use ecoscale_sim::fault::parse_duration;
use ecoscale_sim::pool::THREADS_ENV;
use ecoscale_sim::shard::SHARDS_ENV;
use ecoscale_sim::{prof, CampaignSpec, Duration, RunCtx, TelemetryConfig, Time};

fn usage() {
    eprintln!(
        "usage: exp_all [--scale quick|full] [--trace FILE] [--metrics FILE] [--profile FILE] [--telemetry FILE] [--flight-dump DIR] [--faults SPEC] [--serve SPEC] [--serve-out FILE] [--snapshot-at T --snapshot-out FILE | --resume FILE] [KEY...]"
    );
    eprintln!("  --scale quick|full   sweep sizes (default: full)");
    eprintln!("  --trace FILE         write a Chrome/Perfetto trace of an instrumented run");
    eprintln!("  --metrics FILE       write the metrics registry of an instrumented run as JSON");
    eprintln!("  --profile FILE       write the ProfPlane critical-path blame + shard occupancy");
    eprintln!("                       report of an instrumented run as JSON");
    eprintln!("  --telemetry FILE     write the TelePlane capture (windowed serving series +");
    eprintln!("                       flight recorders + shard window series) as JSON; with");
    eprintln!("                       --serve, the serving half comes from that run");
    eprintln!("  --flight-dump DIR    with --telemetry: when a flight-recorder trigger fired,");
    eprintln!("                       write the evidence bundle (flight.json, and snapshot.bin");
    eprintln!("                       for a --serve run) into DIR");
    eprintln!("  --faults SPEC        seeded fault campaign, e.g. `seed=3,crash=1ms,seu=400us`;");
    eprintln!("                       overrides the E16/E16b base campaign and adds a faulted");
    eprintln!("                       capture to --trace/--metrics output");
    eprintln!("  --serve SPEC         run one ServePlane simulation over the apps mix, e.g.");
    eprintln!("                       `seed=7,tenants=4,rate=200000,horizon=1ms,batch=8`;");
    eprintln!("                       a --faults campaign is injected into its backend");
    eprintln!("  --serve-out FILE     write the --serve run's serving report as JSON");
    eprintln!("  --snapshot-at T      with --serve: run every serving cell to T (e.g. `300us`),");
    eprintln!("                       pause at a safe boundary, and write a versioned,");
    eprintln!("                       checksummed snapshot instead of finishing the run");
    eprintln!("  --snapshot-out FILE  where --snapshot-at writes the snapshot");
    eprintln!("  --resume FILE        with --serve: restore a --snapshot-out file (same spec)");
    eprintln!("                       and run to drain; exports are byte-identical to the");
    eprintln!("                       uninterrupted run. Corrupt/mismatched files are refused.");
    eprintln!("  KEY                  experiment filter, e.g. `exp_all e03 e09`");
    eprint!("keys:");
    for (key, _) in EXPERIMENTS {
        eprint!(" {key}");
    }
    eprintln!();
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Full;
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut profile_path: Option<String> = None;
    let mut faults: Option<CampaignSpec> = None;
    let mut serve: Option<ServeSpec> = None;
    let mut serve_out: Option<String> = None;
    let mut snapshot_at: Option<Time> = None;
    let mut snapshot_out: Option<String> = None;
    let mut resume: Option<String> = None;
    let mut telemetry_path: Option<String> = None;
    let mut flight_dump: Option<String> = None;
    let mut filters: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                usage();
                return ExitCode::SUCCESS;
            }
            "--trace" | "--metrics" | "--profile" | "--serve-out" | "--snapshot-out"
            | "--resume" | "--telemetry" | "--flight-dump" => {
                let Some(v) = it.next() else {
                    eprintln!("error: {arg} needs a file path");
                    usage();
                    return ExitCode::from(2);
                };
                match arg.as_str() {
                    "--trace" => trace_path = Some(v.clone()),
                    "--metrics" => metrics_path = Some(v.clone()),
                    "--serve-out" => serve_out = Some(v.clone()),
                    "--snapshot-out" => snapshot_out = Some(v.clone()),
                    "--resume" => resume = Some(v.clone()),
                    "--telemetry" => telemetry_path = Some(v.clone()),
                    "--flight-dump" => flight_dump = Some(v.clone()),
                    _ => profile_path = Some(v.clone()),
                }
            }
            "--snapshot-at" => {
                let Some(v) = it.next() else {
                    eprintln!("error: --snapshot-at needs a time like `300us`");
                    usage();
                    return ExitCode::from(2);
                };
                match parse_duration(v) {
                    Some(d) => snapshot_at = Some(Time::ZERO + d),
                    None => {
                        eprintln!("error: bad --snapshot-at time `{v}` (want e.g. `300us`, `2ms`)");
                        usage();
                        return ExitCode::from(2);
                    }
                }
            }
            "--faults" => {
                let Some(v) = it.next() else {
                    eprintln!("error: --faults needs a campaign spec (key=value,...)");
                    usage();
                    return ExitCode::from(2);
                };
                match CampaignSpec::parse(v) {
                    Ok(spec) => faults = Some(spec),
                    Err(e) => {
                        eprintln!("error: bad --faults spec: {e}");
                        usage();
                        return ExitCode::from(2);
                    }
                }
            }
            "--serve" => {
                let Some(v) = it.next() else {
                    eprintln!("error: --serve needs a serving spec (key=value,...)");
                    usage();
                    return ExitCode::from(2);
                };
                match ServeSpec::parse(v) {
                    Ok(spec) => serve = Some(spec),
                    Err(e) => {
                        eprintln!("error: bad --serve spec: {e}");
                        usage();
                        return ExitCode::from(2);
                    }
                }
            }
            "--scale" => {
                let Some(v) = it.next() else {
                    eprintln!("error: --scale needs a value (quick|full)");
                    usage();
                    return ExitCode::from(2);
                };
                scale = match v.as_str() {
                    "quick" => Scale::Quick,
                    "full" => Scale::Full,
                    other => {
                        eprintln!("error: unknown scale `{other}` (want quick|full)");
                        usage();
                        return ExitCode::from(2);
                    }
                };
            }
            key => filters.push(key.to_ascii_lowercase()),
        }
    }
    for f in &filters {
        if !EXPERIMENTS.iter().any(|&(key, _)| key == f) {
            eprintln!("error: unknown experiment `{f}`");
            usage();
            return ExitCode::from(2);
        }
    }
    if serve_out.is_some() && serve.is_none() {
        eprintln!("error: --serve-out needs a --serve SPEC to export");
        usage();
        return ExitCode::from(2);
    }
    if snapshot_at.is_some() != snapshot_out.is_some() {
        eprintln!("error: --snapshot-at and --snapshot-out must be given together");
        usage();
        return ExitCode::from(2);
    }
    if (snapshot_at.is_some() || resume.is_some()) && serve.is_none() {
        eprintln!("error: --snapshot-at/--resume need a --serve SPEC");
        usage();
        return ExitCode::from(2);
    }
    if snapshot_at.is_some() && resume.is_some() {
        eprintln!("error: --snapshot-at and --resume are mutually exclusive");
        usage();
        return ExitCode::from(2);
    }
    if flight_dump.is_some() && telemetry_path.is_none() {
        eprintln!("error: --flight-dump needs a --telemetry FILE");
        usage();
        return ExitCode::from(2);
    }
    let ctx = RunCtx::parse(
        std::env::var(THREADS_ENV).ok().as_deref(),
        std::env::var(SHARDS_ENV).ok().as_deref(),
        std::env::var(CHECK_ENV).ok().as_deref(),
    );
    let mut exp = ExpRun::new(scale, ctx);
    if let Some(spec) = &faults {
        // E16/E16b scale their sweeps from this campaign instead of the
        // built-in default.
        exp.campaign = spec.clone();
    }
    let selected: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|&&(key, _)| filters.is_empty() || filters.iter().any(|f| f == key))
        .copied()
        .collect();
    // Whole tables run concurrently; printing happens afterwards in
    // registry (E1→A4) order.
    let tables = ctx.map(selected, |(_, run)| run(&exp));
    for table in tables {
        println!("{table}");
    }
    let mut serve_telem: Option<ServeTelemetry> = None;
    let mut dump_snapshot: Option<Vec<u8>> = None;
    if let Some(spec) = serve {
        let mut cfg = ServeSimConfig::new(spec, serve_mix());
        if let Some(campaign) = faults.as_ref().filter(|s| !s.is_off()) {
            cfg.faults = campaign.clone();
        }
        if telemetry_path.is_some() {
            cfg.telemetry = Some(TelemetryConfig::new(Duration::from_us(50)));
        }
        cfg.ctx = ctx;
        if let Some(at) = snapshot_at {
            let path = snapshot_out.as_ref().expect("validated above");
            let bytes = serve_checkpoint(&cfg, at);
            if let Err(e) = std::fs::write(path, &bytes) {
                eprintln!("error: cannot write snapshot to `{path}`: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "wrote serving checkpoint ({} bytes) to {path}; resume with --resume",
                bytes.len()
            );
            return ExitCode::SUCCESS;
        }
        let out = if let Some(path) = &resume {
            let bytes = match std::fs::read(path) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("error: cannot read snapshot `{path}`: {e}");
                    return ExitCode::from(2);
                }
            };
            match serve_resume_with(&cfg, &bytes, &mut CheckPlane::disabled()) {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("error: refusing snapshot `{path}`: {e}");
                    return ExitCode::from(2);
                }
            }
        } else {
            run_serve_sim_with(&cfg, &mut CheckPlane::disabled())
        };
        if telemetry_path.is_some() {
            // The serving half of the TelePlane capture comes from this
            // run; a pre-trigger snapshot joins the evidence bundle when
            // a flight recorder fired.
            serve_telem = out.telemetry.clone();
            if flight_dump.is_some() {
                if let Some(t) = serve_telem.as_ref().and_then(|t| t.first_trigger()) {
                    dump_snapshot = Some(serve_checkpoint(&cfg, t.time));
                }
            }
        }
        println!("{}", out.serving.to_table());
        if out.violations > 0 {
            eprintln!(
                "error: serving run violated {} invariant check(s)",
                out.violations
            );
            return ExitCode::FAILURE;
        }
        if let Some(path) = &serve_out {
            let mut s = String::with_capacity(1024);
            s.push_str("{\"spec\":");
            ecoscale_sim::json::escape(&mut s, &cfg.spec.to_string());
            s.push_str(",\"serving\":");
            s.push_str(&out.serving.to_json());
            s.push('}');
            if let Err(e) = std::fs::write(path, &s) {
                eprintln!("error: cannot write serving report to `{path}`: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote serving report to {path}");
        }
    }
    if trace_path.is_some() || metrics_path.is_some() || profile_path.is_some() {
        // One capture serves all three outputs; --profile additionally
        // keeps the sharded phase's occupancy bands and wall timers.
        let (mut cap, prof_extras) = if profile_path.is_some() {
            let pc = capture_profile(scale, ctx);
            (pc.capture, Some((pc.occupancy, pc.wall)))
        } else {
            (capture_observability(scale, ctx), None)
        };
        if let Some(spec) = faults.as_ref().filter(|s| !s.is_off()) {
            let fc = capture_fault_campaign(scale, ctx, spec);
            cap.trace.merge(fc.trace);
            cap.metrics.merge(&fc.metrics);
        }
        if let Some(path) = &trace_path {
            if let Err(e) = std::fs::write(path, cap.trace.to_chrome_json()) {
                eprintln!("error: cannot write trace to `{path}`: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote trace to {path} (load in https://ui.perfetto.dev)");
        }
        if let Some(path) = &metrics_path {
            if let Err(e) = std::fs::write(path, cap.metrics.to_json()) {
                eprintln!("error: cannot write metrics to `{path}`: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote metrics to {path}");
        }
        if let Some(path) = &profile_path {
            let (occupancy, wall) = prof_extras.expect("profile capture ran");
            let report = prof::critical_path(&cap.trace);
            let mut s = String::with_capacity(1024);
            s.push_str("{\"profile\":");
            s.push_str(&report.to_json());
            s.push_str(",\"occupancy\":");
            s.push_str(&occupancy.to_json());
            s.push('}');
            if let Err(e) = std::fs::write(path, &s) {
                eprintln!("error: cannot write profile to `{path}`: {e}");
                return ExitCode::FAILURE;
            }
            println!("{}", report.to_table());
            println!("{}", occupancy.to_table());
            // wall timers are host-dependent: stderr only, never in the file
            eprintln!("{}", wall.to_table());
            eprintln!("wrote profile to {path}");
        }
    }
    if let Some(path) = &telemetry_path {
        // Serving half: the --serve run when one ran with telemetry armed,
        // otherwise the canonical obs serving campaign. The shard half is
        // always the scaling run's per-safe-window series.
        let cap = match serve_telem {
            Some(serve) => TelemetryCapture {
                serve,
                shard: telemetry_shard_series(scale, ctx),
            },
            None => {
                let campaign = faults.clone().unwrap_or_else(CampaignSpec::off);
                capture_telemetry(scale, ctx, &campaign)
            }
        };
        if let Err(e) = std::fs::write(path, cap.to_json()) {
            eprintln!("error: cannot write telemetry to `{path}`: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote telemetry to {path}");
        if let Some(dir) = &flight_dump {
            if cap.fired() {
                let dir_path = std::path::Path::new(dir);
                if let Err(e) = std::fs::create_dir_all(dir_path) {
                    eprintln!("error: cannot create flight-dump dir `{dir}`: {e}");
                    return ExitCode::FAILURE;
                }
                let flight = dir_path.join("flight.json");
                if let Err(e) = std::fs::write(&flight, cap.flight_dump_json()) {
                    eprintln!("error: cannot write `{}`: {e}", flight.display());
                    return ExitCode::FAILURE;
                }
                let mut wrote = String::from("flight.json");
                if let Some(bytes) = &dump_snapshot {
                    let snap = dir_path.join("snapshot.bin");
                    if let Err(e) = std::fs::write(&snap, bytes) {
                        eprintln!("error: cannot write `{}`: {e}", snap.display());
                        return ExitCode::FAILURE;
                    }
                    wrote.push_str(" + snapshot.bin");
                }
                eprintln!("wrote flight dump ({wrote}) to {dir}");
            } else {
                eprintln!("no flight-recorder trigger fired; no dump written");
            }
        }
    }
    ExitCode::SUCCESS
}
