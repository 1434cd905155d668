//! Smoke test: every workload in `--smoke` mode (two ops each) prints
//! every metric `BENCHMARK.json` declares, with its unit, passes its
//! correctness checks, and gives the same `sim_digest` twice.

use std::process::Command;

use ecoscale_sim::json::{self, Value};

const WORKLOADS: [&str; 3] = ["serve_saturated", "check_sweep", "des_cluster"];

/// The (name, unit) pairs of one metric list in `BENCHMARK.json`.
fn declared(spec: &Value, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{list}` list"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one smoke pass; returns (context line, result line).
fn smoke(workload: &str, trace: u8) -> (Value, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--trace",
            &trace.to_string(),
            "--smoke",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2,
        "{workload}: want context and result lines, got {stdout}"
    );
    let parse = |l: &str| json::parse(l).unwrap_or_else(|e| panic!("{workload}: `{l}`: {e}"));
    (parse(lines[lines.len() - 2]), parse(lines[lines.len() - 1]))
}

#[test]
fn every_workload_prints_every_metric_and_repeats_its_digest() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let spec = json::parse(&text).expect("BENCHMARK.json parses");
    let names: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
        })
        .collect();
    assert_eq!(names, WORKLOADS);
    for w in WORKLOADS {
        let mut digests = Vec::new();
        for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
            let (ctx, result) = smoke(w, trace);
            assert!(
                matches!(result.get("correct"), Some(Value::Bool(true))),
                "{w} trace {trace}: checks failed"
            );
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            let metrics = result.get("metrics").expect("metrics object");
            let Value::Obj(printed) = metrics else {
                panic!("{w}: metrics is not an object");
            };
            let want = declared(&spec, list);
            assert_eq!(printed.len(), want.len(), "{w} trace {trace}: metric count");
            for (name, unit) in &want {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{w} trace {trace}: `{name}` missing"));
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
                assert!(m
                    .get("value")
                    .and_then(Value::as_f64)
                    .is_some_and(f64::is_finite));
            }
            // the times are rescaled by a probe the context line reports
            for key in ["raw_op_ms_p50", "probe_ms_p50", "probe_nominal_ms"] {
                assert!(
                    ctx.get(key)
                        .and_then(Value::as_f64)
                        .is_some_and(|v| v > 0.0),
                    "{w} trace {trace}: context `{key}` missing or not positive"
                );
            }
            digests.push(
                ctx.get("sim_digest")
                    .and_then(Value::as_str)
                    .expect("digest")
                    .to_owned(),
            );
        }
        // the traced run's plain ops are the same ops on the same seed
        assert_eq!(
            digests[0], digests[1],
            "{w}: sim_digest differs between runs"
        );
    }
}
