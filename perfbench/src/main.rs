//! Single-threaded host-throughput benchmark of the ECOSCALE simulator.
//!
//! ```text
//! perfbench --workload <serve_saturated|check_sweep|des_cluster>
//!           [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! One process runs one workload as a closed loop of seeded *ops* on a
//! single caller thread, with the simulator pinned to one thread and one
//! shard. A short fixed speed probe ([`host::probe`]) runs before every op
//! and set-up, and the end-to-end times are rescaled by it to a nominal
//! host speed, so a host that slows down for a while moves the probe and
//! the op alike and the result not at all. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` runs each op twice (plain, then
//! instrumented) on the thread's CPU clock and prints the per-layer
//! attribution. The last stdout line is one JSON object; the line before
//! it carries the run's context (digest, tail percentile, raw times,
//! host). See `README.md` beside this crate for the workloads and the
//! metric map.

mod check;
mod des;
mod host;
mod serve;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use ecoscale_sim::{check::CHECK_ENV, pool::THREADS_ENV, shard::SHARDS_ENV};

const USAGE: &str = "usage: perfbench --workload <serve_saturated|check_sweep|des_cluster> \
                     [--seed N] [--seconds S] [--trace 0|1] [--smoke]";

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["serve_saturated", "check_sweep", "des_cluster"];

/// End-to-end metrics printed by an untraced run: (name, unit).
const END_TO_END: [(&str, &str); 5] = [
    ("work_per_host_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics printed by a traced run: (name, unit). Every traced
/// run prints all of them; a layer the workload never enters reads 0.
/// Times are host seconds per traced op, counts are per traced op.
pub const PER_LAYER: [(&str, &str); 38] = [
    // serve_saturated: replayed dispatch sequence
    ("hls.build_s", "s"),
    ("hls.builds", "count"),
    ("fpga.load_s", "s"),
    ("fpga.loads", "count"),
    ("apps.bind_s", "s"),
    ("core.call_s", "s"),
    ("core.calls", "count"),
    ("core.call_items", "count"),
    ("hls.analyze_s", "s"),
    ("hls.interpret_s", "s"),
    ("core.call_self_s", "s"),
    ("runtime.serve_loop_s", "s"),
    ("serve.batch_mean", "req/batch"),
    ("serve.admit_ratio", "ratio"),
    // check_sweep: mirrored fuzz phases
    ("core.serve_run_s", "s"),
    ("core.serve_runs", "count"),
    ("snap.checkpoint_s", "s"),
    ("snap.resume_s", "s"),
    ("sim.shard_run_s", "s"),
    ("runtime.sched_s", "s"),
    ("noc.transfer_s", "s"),
    ("mem.smmu_s", "s"),
    ("mem.unimem_s", "s"),
    ("bench.fuzz_self_s", "s"),
    ("checks_run", "count"),
    // des_cluster: the engine's own profiler and the cluster scheduler
    ("sim.shard.drain_s", "s"),
    ("sim.shard.decide_s", "s"),
    ("sim.shard.process_s", "s"),
    ("sim.shard.barrier_s", "s"),
    ("sim.events", "count"),
    ("sim.rounds", "count"),
    ("runtime.sched_run_s", "s"),
    ("runtime.sched_tasks", "count"),
    // every workload: the traced run itself
    ("trace.op_ms_p50", "ms"),
    ("trace.untraced_op_ms_p50", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.ops", "count"),
    ("trace.self_check_failures", "count"),
];

/// Set-up repetitions per run, spread evenly over its time budget;
/// `setup_s` is their median.
const SETUP_REPS: u64 = 9;
/// Ops per block. A timed run ends on a block boundary, so every run
/// covers whole blocks: for `check_sweep`, whole cycles of its config
/// shapes, which `work_per_host_s` then weighs alike in every run.
pub const BLOCK: u64 = 8;
/// Ops folded into `sim_digest` (a run always executes at least these).
const DIGEST_OPS: u64 = 4;
/// Ops per workload in `--smoke` mode (no time budget): two blocks, so
/// `check_sweep` runs every config shape and a traced run's residual
/// totals stand clear of the per-op replay noise (about ±3 ms per
/// `serve_saturated` op around a mean near 3 ms).
const SMOKE_OPS: u64 = 2 * BLOCK;
/// Op indices at and above this are warm-up ops, never timed.
const WARMUP_OP: u64 = 1 << 40;

/// One op's outcome.
pub struct Op {
    /// Host seconds of the timed program calls (input generation and
    /// output checks excluded).
    pub host_s: f64,
    /// Simulated work completed: requests, configs or tasks.
    pub work: u64,
    /// The op's deterministic export, folded into `sim_digest`.
    pub export: String,
    /// Why the op failed its output check, if it did.
    pub failure: Option<String>,
}

/// A benchmark workload: a seeded family of ops.
pub trait Workload {
    /// Runs op `i` as a plain caller would.
    fn op(&mut self, i: u64) -> Op;

    /// Runs op `i` with instrumentation, attributing its host time to
    /// layers in `layers`. The returned export must equal [`Workload::op`]'s.
    fn traced_op(&mut self, i: u64, layers: &mut Layers) -> Op;
}

/// Residuals: a parent's time minus its children's. Where the children
/// are timed in a replay, one op may read below 0 from noise; a run's
/// total may not.
const RESIDUALS: [&str; 2] = ["runtime.serve_loop_s", "bench.fuzz_self_s"];

/// Per-layer accumulators of a traced run, indexed like [`PER_LAYER`].
pub struct Layers {
    sums: [f64; PER_LAYER.len()],
    /// Self-check failures: replay drift, counter mismatches, negative
    /// residuals.
    pub failures: Vec<String>,
}

impl Layers {
    fn new() -> Layers {
        Layers {
            sums: [0.0; PER_LAYER.len()],
            failures: Vec::new(),
        }
    }

    /// The running total of the per-layer metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared in [`PER_LAYER`].
    fn sum(&mut self, name: &str) -> &mut f64 {
        let i = PER_LAYER
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("per-layer metric `{name}` is not declared"));
        &mut self.sums[i]
    }

    /// Adds `v` to the per-layer metric `name`.
    pub fn add(&mut self, name: &str, v: f64) {
        *self.sum(name) += v;
    }

    /// Records a failed self-check.
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Fails the self-check for every residual whose run total is < 0.
    fn check_residuals(&mut self) {
        for name in RESIDUALS {
            let total = *self.sum(name);
            if total < 0.0 {
                self.fail(format!("residual {name} totals {total} s < 0"));
            }
        }
    }
}

/// Runs `f` and returns its result with the host seconds it took on the
/// run's clock ([`host::now`]).
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = host::now();
    let r = f();
    (r, host::now() - t)
}

/// The seed of op `i` under benchmark seed `seed` (splitmix64 mixing).
pub fn op_seed(seed: u64, i: u64) -> u64 {
    splitmix64(seed ^ splitmix64(i.wrapping_add(0x5EED)))
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn make(workload: &str, seed: u64) -> Box<dyn Workload> {
    match workload {
        "serve_saturated" => Box::new(serve::ServeSaturated::new(seed)),
        "check_sweep" => Box::new(check::CheckSweep::new(seed)),
        "des_cluster" => Box::new(des::DesCluster::new(seed)),
        _ => unreachable!("workload validated at parse"),
    }
}

/// One set-up on a fresh instance: the workload's inputs and one untimed
/// warm-up op. Returns the instance and the set-up's host seconds rescaled
/// to nominal host speed.
fn set_up(args: &Args, rep: u64, failures: &mut Vec<String>) -> (Box<dyn Workload>, f64) {
    let ((), probe_s) = timed(host::probe);
    let ((w, warm), s) = timed(|| {
        let mut w = make(&args.workload, args.seed);
        // every warm-up op has the first op's shape, with its own seed
        let warm = w.op(WARMUP_OP + rep * BLOCK);
        (w, warm)
    });
    if let Some(f) = warm.failure {
        failures.push(format!("warm-up op: {f}"));
    }
    (w, nominal(s, probe_s))
}

/// Host seconds `s`, measured while the probe took `probe_s`, rescaled to
/// nominal host speed.
fn nominal(s: f64, probe_s: f64) -> f64 {
    s * host::PROBE_NOMINAL_S / probe_s
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = value("a name")?,
            "--seed" => a.seed = value("N")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value("S")?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: want 0 or 1, got `{v}`")),
                }
            }
            "--smoke" => a.smoke = true,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload: want one of {}, got `{}`",
            WORKLOADS.join("|"),
            a.workload
        ));
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // One simulation thread and one shard for every pool, engine and
    // fuzz phase in this process, and no ambient CheckPlane arming. Set
    // before any thread exists.
    std::env::set_var(THREADS_ENV, "1");
    std::env::set_var(SHARDS_ENV, "1");
    std::env::remove_var(CHECK_ENV);
    if args.trace {
        host::use_cpu_clock();
    }
    let cpu_before = host::cpu_times();

    let mut failures: Vec<String> = Vec::new();
    let reps = if args.smoke { 1 } else { SETUP_REPS };
    let start = Instant::now();
    let (mut w, first) = set_up(&args, 0, &mut failures);
    let mut setups = vec![first];

    let budget = Duration::from_secs(args.seconds);
    let done = |i: u64| {
        if args.smoke {
            i >= SMOKE_OPS
        } else {
            i >= DIGEST_OPS && i.is_multiple_of(BLOCK) && start.elapsed() >= budget
        }
    };
    let mut digest = FNV_OFFSET;
    // (host seconds, work, probe seconds) per op; the exports are dropped
    // once folded, so memory does not grow with the run
    let mut ops: Vec<(f64, u64, f64)> = Vec::new();
    let mut failed = 0u64;
    let mut layers = Layers::new();
    let mut traced_ms = Vec::new();
    let mut i = 0;
    while !done(i) {
        // the remaining set-ups fall at even shares of the budget, between
        // blocks, so they see the same host as the ops
        let share = start.elapsed().as_secs_f64() / budget.as_secs_f64();
        let n = setups.len() as u64;
        if i.is_multiple_of(BLOCK) && n < reps && (n as f64) <= share * reps as f64 {
            setups.push(set_up(&args, n, &mut failures).1);
        }
        let ((), probe_s) = timed(host::probe);
        let op = w.op(i);
        let mut op_failed = op.failure.is_some();
        if let Some(f) = &op.failure {
            failures.push(format!("op {i}: {f}"));
        }
        if args.trace {
            let before = layers.failures.len();
            let t = w.traced_op(i, &mut layers);
            if let Some(f) = t.failure {
                layers.fail(format!("traced op {i}: {f}"));
            }
            if t.export != op.export {
                layers.fail(format!("traced op {i} drifted from its plain run"));
            }
            op_failed |= layers.failures.len() > before;
            traced_ms.push(t.host_s * 1e3);
        }
        if i < DIGEST_OPS {
            digest = fnv1a(digest, op.export.as_bytes());
        }
        failed += u64::from(op_failed);
        ops.push((op.host_s, op.work, probe_s));
        i += 1;
    }
    while (setups.len() as u64) < reps {
        setups.push(set_up(&args, setups.len() as u64, &mut failures).1);
    }
    let cpu_after = host::cpu_times();
    layers.check_residuals();

    for f in failures.iter().chain(&layers.failures) {
        eprintln!("perfbench: check failed: {f}");
    }
    let raw_ms: Vec<f64> = ops.iter().map(|(s, _, _)| s * 1e3).collect();
    let ms: Vec<f64> = ops.iter().map(|(s, _, p)| nominal(*s, *p) * 1e3).collect();
    let probe_ms: Vec<f64> = ops.iter().map(|(_, _, p)| p * 1e3).collect();
    // all work over all timed host seconds, each op rescaled by its probe
    let work: u64 = ops.iter().map(|(_, w, _)| w).sum();
    let work_per_host_s = work as f64 / (ms.iter().sum::<f64>() * 1e-3);
    let n_ops = ops.len();
    let (tail, tail_pct) = tail(&ms);
    let context = format!(
        concat!(
            "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"ops\":{},\"failed_ops\":{},",
            "\"sim_digest\":\"{:016x}\",\"digest_ops\":{},\"op_ms_tail_pct\":{},",
            "\"op_samples\":{},\"raw_op_ms_p50\":{},\"probe_ms_p50\":{},",
            "\"probe_nominal_ms\":{},\"threads\":1,\"shards\":1,\"host_cores\":{},",
            "\"steal_share\":{},\"rustc\":\"{}\"}}"
        ),
        args.workload,
        args.seed,
        u8::from(args.trace),
        n_ops,
        failed,
        digest,
        DIGEST_OPS.min(n_ops as u64),
        num(tail_pct),
        n_ops,
        num(median(&raw_ms)),
        num(median(&probe_ms)),
        num(host::PROBE_NOMINAL_S * 1e3),
        host::cores(),
        num(host::steal_share(cpu_before, cpu_after)),
        host::rustc_version().replace('"', "'"),
    );
    println!("{context}");

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let n = traced_ms.len().max(1) as f64;
        let overhead: Vec<f64> = traced_ms.iter().zip(&raw_ms).map(|(t, u)| t - u).collect();
        let mut m: Vec<(&str, &str, f64)> = PER_LAYER
            .iter()
            .zip(layers.sums)
            .map(|(&(name, unit), sum)| (name, unit, sum / n))
            .collect();
        let mut set = |name: &str, v: f64| {
            m.iter_mut().find(|e| e.0 == name).expect("declared").2 = v;
        };
        set("trace.op_ms_p50", median(&traced_ms));
        set("trace.untraced_op_ms_p50", median(&raw_ms));
        set("trace.overhead_ms", median(&overhead));
        set("trace.ops", traced_ms.len() as f64);
        set("trace.self_check_failures", layers.failures.len() as f64);
        m
    } else {
        let values = [
            work_per_host_s,
            median(&ms),
            tail,
            median(&setups),
            host::peak_rss_mb(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(*v)))
        .collect();
    let correct = failures.is_empty() && layers.failures.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{n_ops},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
    ExitCode::SUCCESS
}

/// A JSON number: finite values as Rust prints them (shortest exact
/// round-trip form, every digit kept), non-finite ones as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile of `v` with at least ten samples beyond it:
/// the 11th-largest value, at percentile `100 (n - 10) / n`. With fewer
/// than 11 samples, the maximum at percentile 100.
fn tail(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => (0.0, 0.0),
        _ if n < 11 => (s[n - 1], 100.0),
        _ => (s[n - 11], 100.0 * (n - 10) as f64 / n as f64),
    }
}
