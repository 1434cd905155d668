//! `serve_saturated`: one op is one saturated S1 serving run — 4 tenants
//! over the fir + Black–Scholes mix at 350k requests/s/tenant for 2 ms of
//! simulated time, batch ≤ 8, one cell. The simulated traffic inside an
//! op is open-loop Poisson; only the op seed changes between ops.
//!
//! The traced op serves the same config through binders that produce the
//! same arguments as `apps::mix` and log every dispatch's (kernel, items).
//! Each logged dispatch is replayed on a fresh cell from inside the next
//! binder call, just after the op made the real call, so the replayed
//! call and the real one run back to back under the same host load: a
//! layer's time is then subtracted from the op's own time without the
//! drift of host contention between two separate runs. The binders' own
//! time is taken out of the op's time, leaving what the program itself
//! spent.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::OnceLock;

use ecoscale_apps::mix::serve_mix;
use ecoscale_bench::serve_exp::serving_config;
use ecoscale_core::{
    run_serve_sim_with, EcoscaleSystem, ServeOutcome, ServeSimConfig, SystemBuilder,
};
use ecoscale_hls::{parse_kernel, Kernel, KernelAnalysis, KernelArgs};
use ecoscale_noc::NodeId;
use ecoscale_sim::check::CheckPlane;

use crate::{host, op_seed, timed, Layers, Op, Workload};

/// Offered load per tenant (requests/s): past the batching knee.
const RATE: u64 = 350_000;
/// Simulated serving horizon in microseconds.
const HORIZON_US: u64 = 2000;

type Binder = fn(usize) -> KernelArgs;

/// The `apps::mix` binders the logging binders delegate to.
fn mix_binders() -> &'static [Binder] {
    static BINDERS: OnceLock<Vec<Binder>> = OnceLock::new();
    BINDERS.get_or_init(|| serve_mix().iter().map(|k| k.bind).collect())
}

/// The replay cell one traced op drives in lockstep, and what it measured.
struct Lockstep {
    cfg: ServeSimConfig,
    parsed: Vec<Kernel>,
    /// Built at the op's first dispatch.
    system: Option<EcoscaleSystem>,
    /// Dispatches so far: (mix index, items).
    calls: Vec<(usize, usize)>,
    /// Dispatches replayed so far; the last logged one waits for the
    /// next binder call (or the op's end).
    replayed: usize,
    /// Host seconds inside the binders beyond binding: the replay.
    instrument_s: f64,
    bind_s: f64,
    build_s: f64,
    load_s: f64,
    call_s: f64,
    analyze_s: f64,
    interpret_s: f64,
    failures: Vec<String>,
}

thread_local! {
    // The simulator runs on this thread (one pool thread means inline),
    // so the binders reach the replay cell here.
    static LOCKSTEP: RefCell<Option<Lockstep>> = const { RefCell::new(None) };
}

impl Lockstep {
    fn new(cfg: ServeSimConfig, parsed: Vec<Kernel>) -> Lockstep {
        Lockstep {
            cfg,
            parsed,
            system: None,
            calls: Vec::new(),
            replayed: 0,
            instrument_s: 0.0,
            bind_s: 0.0,
            build_s: 0.0,
            load_s: 0.0,
            call_s: 0.0,
            analyze_s: 0.0,
            interpret_s: 0.0,
            failures: Vec::new(),
        }
    }

    /// Replays the logged dispatches not yet replayed on the replay cell,
    /// building and provisioning the cell first if it has none.
    fn catch_up(&mut self) {
        while self.replayed < self.calls.len() {
            let (k, items) = self.calls[self.replayed];
            self.replay(k, items);
            self.replayed += 1;
        }
    }

    fn replay(&mut self, k: usize, items: usize) {
        if self.system.is_none() {
            let mut b = SystemBuilder::new()
                .workers_per_node(self.cfg.workers_per_node)
                .compute_nodes(self.cfg.compute_nodes);
            for kernel in &self.cfg.kernels {
                b = b.kernel(kernel.source, kernel.hints.clone());
            }
            let (system, s) = timed(|| b.build());
            self.build_s += s;
            let mut system = system.expect("serving mix builds");
            for lane in 0..system.num_workers() {
                for kernel in &self.cfg.kernels {
                    // a module that does not fit a lane is skipped, as in a cell
                    let (_, s) = timed(|| system.load_module(NodeId(lane), kernel.name));
                    self.load_s += s;
                }
            }
            self.system = Some(system);
        }
        let system = self.system.as_mut().expect("built above");
        let n = self.replayed;
        let lane = NodeId(n % system.num_workers());
        let bind = mix_binders()[k];
        let mut args = bind(items);
        let (res, s) = timed(|| system.call(lane, self.cfg.kernels[k].name, &mut args));
        self.call_s += s;
        if let Err(e) = res {
            self.failures.push(format!("replayed call {n} failed: {e}"));
        }
        // the call's two heaviest parts, on the same inputs (the kernels
        // only write their outputs, so running them again reads the
        // inputs the call read)
        let kernel = &self.parsed[k];
        let hints: HashMap<String, f64> = kernel
            .scalars()
            .filter_map(|p| args.scalar(&p.name).map(|v| (p.name.clone(), v)))
            .collect();
        let (a, s) = timed(|| KernelAnalysis::analyze(kernel, &hints));
        std::hint::black_box(a);
        self.analyze_s += s;
        let (r, s) = timed(|| args.run(kernel));
        std::hint::black_box(&args);
        self.interpret_s += s;
        if let Err(e) = r {
            self.failures
                .push(format!("interpreting dispatch {n} failed: {e}"));
        }
    }
}

/// Binds exactly what mix entry `K` binds. In a traced op it first
/// replays the previous dispatch on the lockstep cell, then logs this one.
fn logged<const K: usize>(items: usize) -> KernelArgs {
    let entered = host::now();
    LOCKSTEP.with(|l| {
        let mut l = l.borrow_mut();
        let Some(ls) = l.as_mut() else {
            return (mix_binders()[K])(items);
        };
        ls.catch_up();
        ls.calls.push((K, items));
        let (args, s) = timed(|| (mix_binders()[K])(items));
        ls.bind_s += s;
        ls.instrument_s += host::now() - entered - s;
        args
    })
}

const LOGGED: [Binder; 2] = [logged::<0>, logged::<1>];

/// The `serve_saturated` workload.
pub struct ServeSaturated {
    seed: u64,
    base: ServeSimConfig,
    logged: ServeSimConfig,
    parsed: Vec<Kernel>,
}

impl ServeSaturated {
    /// Builds the op inputs for benchmark seed `seed`.
    pub fn new(seed: u64) -> ServeSaturated {
        let base = serving_config(RATE, HORIZON_US);
        assert!(
            base.kernels.len() <= LOGGED.len(),
            "mix outgrew the logging binders"
        );
        let mut logged = base.clone();
        for (k, bind) in logged.kernels.iter_mut().zip(LOGGED) {
            k.bind = bind;
        }
        let parsed = base
            .kernels
            .iter()
            .map(|k| parse_kernel(k.source).expect("serving mix parses"))
            .collect();
        ServeSaturated {
            seed,
            base,
            logged,
            parsed,
        }
    }

    fn config(&self, mut cfg: ServeSimConfig, i: u64) -> ServeSimConfig {
        cfg.spec.seed = op_seed(self.seed, i);
        cfg
    }
}

/// Host time, output check and deterministic export of one serving run.
fn finish(out: &ServeOutcome, host_s: f64) -> Op {
    let s = &out.serving;
    let failure = if !s.conserved() {
        Some("serving ledger not conserved".to_owned())
    } else if out.lost != 0 || out.violations != 0 {
        Some(format!(
            "lost {} requests, {} violations",
            out.lost, out.violations
        ))
    } else {
        None
    };
    Op {
        host_s,
        work: s.completed(),
        export: format!("{}\n{}", s.to_json(), out.metrics.to_json()),
        failure,
    }
}

impl Workload for ServeSaturated {
    fn op(&mut self, i: u64) -> Op {
        let cfg = self.config(self.base.clone(), i);
        let (out, host_s) = timed(|| run_serve_sim_with(&cfg, &mut CheckPlane::disabled()));
        finish(&out, host_s)
    }

    fn traced_op(&mut self, i: u64, layers: &mut Layers) -> Op {
        let cfg = self.config(self.logged.clone(), i);
        let armed = Lockstep::new(self.base.clone(), self.parsed.clone());
        LOCKSTEP.with(|l| *l.borrow_mut() = Some(armed));
        let (out, total_s) = timed(|| run_serve_sim_with(&cfg, &mut CheckPlane::disabled()));
        let mut ls = LOCKSTEP
            .with(|l| l.borrow_mut().take())
            .expect("armed above");
        let op_s = total_s - ls.instrument_s;
        ls.catch_up();
        for f in ls.failures {
            layers.fail(f);
        }

        // The replay must match the op it attributes.
        let m = &out.metrics;
        let op_calls: u64 = [
            "system.calls_cpu",
            "system.calls_fpga_local",
            "system.calls_fpga_remote",
        ]
        .iter()
        .map(|c| m.counter(c).unwrap_or(0))
        .sum();
        let replayed = ls.calls.len() as u64;
        if replayed != op_calls {
            layers.fail(format!(
                "replay drift: {replayed} calls replayed, op made {op_calls}"
            ));
        }
        let items: u64 = ls.calls.iter().map(|&(_, n)| n as u64).sum();
        let dispatched = out.serving.completed() + out.serving.failed();
        if items != cfg.items as u64 * dispatched {
            layers.fail(format!(
                "replay drift: {items} items logged, op dispatched {dispatched} requests of {}",
                cfg.items
            ));
        }

        let lanes = ls.system.as_ref().map_or(0, |s| s.num_workers());
        layers.add("hls.build_s", ls.build_s);
        layers.add("hls.builds", 1.0);
        layers.add("fpga.load_s", ls.load_s);
        layers.add("fpga.loads", (lanes * cfg.kernels.len()) as f64);
        layers.add("apps.bind_s", ls.bind_s);
        layers.add("core.call_s", ls.call_s);
        layers.add("core.calls", replayed as f64);
        layers.add("core.call_items", items as f64);
        layers.add("hls.analyze_s", ls.analyze_s);
        layers.add("hls.interpret_s", ls.interpret_s);
        layers.add(
            "core.call_self_s",
            ls.call_s - ls.analyze_s - ls.interpret_s,
        );
        layers.add(
            "runtime.serve_loop_s",
            op_s - ls.build_s - ls.load_s - ls.bind_s - ls.call_s,
        );
        layers.add("serve.batch_mean", out.serving.mean_batch());
        layers.add(
            "serve.admit_ratio",
            out.serving.admitted() as f64 / out.serving.submitted().max(1) as f64,
        );
        finish(&out, op_s)
    }
}
