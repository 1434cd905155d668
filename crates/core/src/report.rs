//! System-wide execution reports.
//!
//! The runtime monitoring §4.2 describes needs somewhere to surface:
//! [`SystemReport`] snapshots an [`EcoscaleSystem`]
//! — per-function call counts and devices, per-worker fabric occupancy,
//! reconfiguration activity — and renders as a fixed-width table for
//! operator consumption.

use core::fmt;

use ecoscale_runtime::serve::ServingReport;
use ecoscale_runtime::DeviceClass;
use ecoscale_sim::json;
use ecoscale_sim::prof::{self, ProfileReport};
use ecoscale_sim::report::Table;
use ecoscale_sim::{Energy, MetricsRegistry, Time};

use crate::system::EcoscaleSystem;

/// Per-function aggregate across all workers.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionSummary {
    /// Function name.
    pub function: String,
    /// Total calls recorded.
    pub calls: u64,
    /// Workers holding the function's module right now.
    pub resident_on: usize,
    /// Mean software time, if measured.
    pub mean_cpu: Option<ecoscale_sim::Duration>,
    /// Mean local-accelerator time, if measured.
    pub mean_hw: Option<ecoscale_sim::Duration>,
}

/// A point-in-time snapshot of a system.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemReport {
    /// System clock at snapshot time.
    pub now: Time,
    /// Total energy charged.
    pub energy: Energy,
    /// Number of workers.
    pub workers: usize,
    /// Modules resident across all fabrics.
    pub resident_modules: usize,
    /// Mean fabric column utilization across workers.
    pub mean_fabric_utilization: f64,
    /// Per-function aggregates, hottest first.
    pub functions: Vec<FunctionSummary>,
    /// Every layer's instruments (SMMU, UNIMEM, NoC, reconfiguration,
    /// system call path) snapshotted at capture time.
    pub metrics: MetricsRegistry,
    /// ProfPlane critical-path blame over the system's trace buffer.
    /// `None` when no tracer is installed (nothing to analyse).
    pub profile: Option<ProfileReport>,
    /// ServePlane SLO accounting. `None` unless the system was driven
    /// by a serving run (`ecoscale_core::serve_model` fills it in).
    pub serving: Option<ServingReport>,
}

impl SystemReport {
    /// Snapshots `system`.
    pub fn capture(system: &EcoscaleSystem) -> SystemReport {
        let workers = system.num_workers();
        let mut resident_modules = 0usize;
        let mut util = 0.0;
        // aggregate function stats across workers
        let mut functions: Vec<FunctionSummary> = Vec::new();
        for w in 0..workers {
            let worker = system.worker(ecoscale_noc::NodeId(w));
            resident_modules += worker.loaded_modules().len();
            util += worker.daemon().floorplan().utilization();
            for (name, calls) in worker.history().hottest_functions() {
                match functions.iter_mut().find(|f| f.function == name) {
                    Some(f) => f.calls += calls,
                    None => functions.push(FunctionSummary {
                        function: name.clone(),
                        calls,
                        resident_on: 0,
                        mean_cpu: worker.history().mean_time(&name, DeviceClass::Cpu),
                        mean_hw: worker.history().mean_time(&name, DeviceClass::FpgaLocal),
                    }),
                }
            }
        }
        // residency per function
        for f in &mut functions {
            if let Some(entry) = system.library().get(&f.function) {
                let id = entry.module.id();
                f.resident_on = (0..workers)
                    .filter(|&w| {
                        system
                            .worker(ecoscale_noc::NodeId(w))
                            .daemon()
                            .is_loaded(id)
                    })
                    .count();
            }
        }
        functions.sort_by(|a, b| b.calls.cmp(&a.calls).then(a.function.cmp(&b.function)));
        SystemReport {
            now: system.now(),
            energy: system.energy(),
            workers,
            resident_modules,
            mean_fabric_utilization: util / workers as f64,
            functions,
            metrics: system.export_metrics(),
            profile: system
                .tracer()
                .is_enabled()
                .then(|| prof::critical_path(&system.tracer().snapshot())),
            serving: None,
        }
    }

    /// Renders the snapshot as a JSON object. Deterministic: fixed key
    /// order, functions in the (sorted) capture order, and the metrics
    /// section embedded via [`MetricsRegistry::to_json`]. The golden
    /// schema test under `tests/golden/` pins this shape.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\"now_ps\":");
        out.push_str(&self.now.as_ps().to_string());
        out.push_str(",\"energy_uj\":");
        json::fmt_f64(&mut out, self.energy.as_uj());
        out.push_str(",\"workers\":");
        out.push_str(&self.workers.to_string());
        out.push_str(",\"resident_modules\":");
        out.push_str(&self.resident_modules.to_string());
        out.push_str(",\"mean_fabric_utilization\":");
        json::fmt_f64(&mut out, self.mean_fabric_utilization);
        out.push_str(",\"functions\":[");
        for (i, f) in self.functions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"function\":");
            json::escape(&mut out, &f.function);
            out.push_str(",\"calls\":");
            out.push_str(&f.calls.to_string());
            out.push_str(",\"resident_on\":");
            out.push_str(&f.resident_on.to_string());
            out.push_str(",\"mean_cpu_ns\":");
            match f.mean_cpu {
                Some(d) => json::fmt_f64(&mut out, d.as_ns_f64()),
                None => out.push_str("null"),
            }
            out.push_str(",\"mean_hw_ns\":");
            match f.mean_hw {
                Some(d) => json::fmt_f64(&mut out, d.as_ns_f64()),
                None => out.push_str("null"),
            }
            out.push('}');
        }
        out.push_str("],\"metrics\":");
        out.push_str(&self.metrics.to_json());
        out.push_str(",\"profile\":");
        match &self.profile {
            Some(p) => out.push_str(&p.to_json()),
            None => out.push_str("null"),
        }
        out.push_str(",\"serving\":");
        match &self.serving {
            Some(s) => out.push_str(&s.to_json()),
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }

    /// Renders the per-function table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            "system report",
            &["function", "calls", "resident on", "mean cpu", "mean hw"],
        );
        for f in &self.functions {
            t.row_owned(vec![
                f.function.clone(),
                f.calls.to_string(),
                f.resident_on.to_string(),
                f.mean_cpu.map_or("-".into(), |d| d.to_string()),
                f.mean_hw.map_or("-".into(), |d| d.to_string()),
            ]);
        }
        t
    }
}

impl fmt::Display for SystemReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "t = {}, energy = {}, workers = {}, resident modules = {}, fabric util = {:.1}%",
            self.now,
            self.energy,
            self.workers,
            self.resident_modules,
            self.mean_fabric_utilization * 100.0
        )?;
        writeln!(f, "{}", self.to_table())?;
        write!(f, "{}", self.metrics.to_table("metrics"))?;
        if let Some(p) = &self.profile {
            write!(f, "\n{}", p.to_table())?;
        }
        if let Some(s) = &self.serving {
            write!(f, "\n{}", s.to_table())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemBuilder;
    use ecoscale_hls::KernelArgs;
    use ecoscale_noc::NodeId;
    use ecoscale_sim::CheckPlane;
    use std::collections::HashMap;

    const K: &str = "kernel hot(in float a[], out float b[], int n) {
        for (i in 0 .. n) { b[i] = sqrt(a[i] + 1.0) * exp(a[i] / 100.0); }
    }";

    fn args(n: usize) -> KernelArgs {
        let mut a = KernelArgs::new();
        a.bind_array("a", (0..n).map(|i| i as f64).collect())
            .bind_array("b", vec![0.0; n])
            .bind_scalar("n", n as f64);
        a
    }

    #[test]
    fn report_tracks_calls_and_residency() {
        let mut s = SystemBuilder::new()
            .workers_per_node(4)
            .compute_nodes(2)
            .kernel(K, HashMap::from([("n".to_owned(), 4096.0)]))
            .with_checks(CheckPlane::armed(crate::test_ctx().check))
            .build()
            .unwrap();
        let empty = SystemReport::capture(&s);
        assert_eq!(empty.resident_modules, 0);
        assert!(empty.functions.is_empty());
        assert_eq!(empty.workers, 8);

        for _ in 0..12 {
            let mut a = args(4096);
            s.call(NodeId(0), "hot", &mut a).unwrap();
        }
        s.daemon_tick();
        let mut a = args(4096);
        s.call(NodeId(0), "hot", &mut a).unwrap();

        let r = SystemReport::capture(&s);
        assert_eq!(r.functions.len(), 1);
        assert_eq!(r.functions[0].function, "hot");
        assert_eq!(r.functions[0].calls, 13);
        assert_eq!(r.functions[0].resident_on, 1);
        assert!(r.functions[0].mean_cpu.is_some());
        assert!(r.resident_modules >= 1);
        assert!(r.mean_fabric_utilization > 0.0);
        assert!(r.energy.as_uj() > 0.0);

        let rendered = r.to_string();
        assert!(rendered.contains("hot"));
        assert!(rendered.contains("resident"));

        // the metrics section is populated and rendered
        assert!(r.metrics.counter("system.calls_cpu").unwrap() >= 12);
        assert!(r.metrics.counter("reconfig.loads").unwrap() >= 1);
        assert!(rendered.contains("== metrics =="));
        assert!(rendered.contains("system.call_ns"));

        // JSON rendering parses and carries the same aggregates.
        let parsed = json::parse(&r.to_json()).unwrap();
        assert_eq!(parsed.get("workers").and_then(|v| v.as_f64()), Some(8.0));
        let funcs = parsed.get("functions").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(funcs.len(), 1);
        assert_eq!(
            funcs[0].get("function").and_then(|v| v.as_str()),
            Some("hot")
        );
        assert!(parsed
            .get("metrics")
            .and_then(|m| m.get("system.calls_cpu"))
            .is_some());
        // no tracer installed -> no profile section; not a serving run
        assert!(r.profile.is_none());
        assert!(r.serving.is_none());
        assert!(r.to_json().ends_with(",\"profile\":null,\"serving\":null}"));
    }

    #[test]
    fn traced_system_report_carries_blame_profile() {
        let tracer = ecoscale_sim::Tracer::buffering();
        let mut s = SystemBuilder::new()
            .workers_per_node(2)
            .compute_nodes(2)
            .kernel(K, HashMap::from([("n".to_owned(), 4096.0)]))
            .with_checks(CheckPlane::armed(crate::test_ctx().check))
            .build()
            .unwrap();
        s.set_tracer(&tracer);
        for _ in 0..13 {
            let mut a = args(4096);
            s.call(NodeId(0), "hot", &mut a).unwrap();
        }
        s.daemon_tick();

        let r = SystemReport::capture(&s);
        let p = r.profile.as_ref().expect("tracer installed");
        assert!(p.total_ps > 0);
        assert_eq!(p.blame_ps.iter().sum::<u64>(), p.total_ps);
        let total: f64 = ecoscale_sim::prof::Layer::ALL
            .into_iter()
            .map(|l| p.percent(l))
            .sum();
        assert!((total - 100.0).abs() < 1e-9, "percentages sum to {total}");
        // capture() must not drain the tracer's buffer
        assert!(!tracer.snapshot().is_empty());
        assert!(r.to_string().contains("critical-path blame"));
        let parsed = json::parse(&r.to_json()).unwrap();
        let blame = parsed
            .get("profile")
            .and_then(|p| p.get("blame"))
            .and_then(|b| b.as_arr())
            .expect("profile blame array");
        assert_eq!(blame.len(), ecoscale_sim::prof::LAYERS);
    }
}
