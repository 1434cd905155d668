//! Golden-snapshot tests pinning the JSON *schemas* of the three export
//! surfaces — [`SystemReport::to_json`], the metrics registry and the
//! Chrome-trace exporter — against files under `tests/golden/`.
//!
//! The schema of a document is the sorted set of `path: kind` lines over
//! every value it contains (arrays contribute the union of their elements
//! under `path[]`), so adding, removing, renaming or re-typing any field —
//! including any metric key — fails the test, while changing numeric
//! values does not.
//!
//! Regenerate after an intentional schema change with
//! `scripts/ci.sh --bless` (sets `ECOSCALE_BLESS=1`).

mod common;

use std::collections::BTreeSet;
use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;

use ecoscale::bench::obs::{capture_observability, capture_profile};
use ecoscale::bench::Scale;
use ecoscale::core::{SystemBuilder, SystemReport};
use ecoscale::hls::KernelArgs;
use ecoscale::noc::NodeId;
use ecoscale::sim::check::CheckPlane;
use ecoscale::sim::json::{parse, Value};

/// Recursively collects `path: kind` lines for `v`.
fn collect_schema(v: &Value, path: &str, out: &mut BTreeSet<String>) {
    match v {
        Value::Null => {
            out.insert(format!("{path}: null"));
        }
        Value::Bool(_) => {
            out.insert(format!("{path}: bool"));
        }
        Value::Num(_) => {
            out.insert(format!("{path}: num"));
        }
        Value::Str(_) => {
            out.insert(format!("{path}: str"));
        }
        Value::Arr(items) => {
            out.insert(format!("{path}: arr"));
            for item in items {
                collect_schema(item, &format!("{path}[]"), out);
            }
        }
        Value::Obj(fields) => {
            out.insert(format!("{path}: obj"));
            for (key, val) in fields {
                collect_schema(val, &format!("{path}.{key}"), out);
            }
        }
    }
}

/// Renders the schema of a JSON document, one sorted line per path.
fn schema_of(json: &str) -> String {
    let v = parse(json).expect("document parses as JSON");
    let mut out = BTreeSet::new();
    collect_schema(&v, "$", &mut out);
    let mut s: String = out.into_iter().collect::<Vec<_>>().join("\n");
    s.push('\n');
    s
}

/// Compares `actual` against `tests/golden/<name>`, or rewrites the file
/// when `ECOSCALE_BLESS=1` is set.
fn assert_golden(name: &str, actual: &str) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden", name]
        .iter()
        .collect();
    if std::env::var("ECOSCALE_BLESS").is_ok_and(|v| v == "1") {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run scripts/ci.sh --bless",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "schema drift against {}; if intentional, run scripts/ci.sh --bless",
        path.display()
    );
}

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
fn system_report_json_schema_is_pinned() {
    let mut s = SystemBuilder::new()
        .workers_per_node(2)
        .compute_nodes(2)
        .kernel(K, HashMap::from([("n".to_owned(), 4096.0)]))
        .with_checks(CheckPlane::armed(common::ctx().check))
        .build()
        .unwrap();
    for _ in 0..12 {
        let mut a = args(4096);
        s.call(NodeId(0), "hot", &mut a).unwrap();
    }
    s.daemon_tick();
    let mut a = args(4096);
    s.call(NodeId(0), "hot", &mut a).unwrap();
    let report = SystemReport::capture(&s);
    assert_golden("system_report.schema", &schema_of(&report.to_json()));
}

/// The populated `SystemReport` profile section: same workload as the
/// plain system-report schema test, but with a tracer installed so the
/// ProfPlane critical-path extraction has spans to analyse.
#[test]
fn system_report_profile_section_schema_is_pinned() {
    let tracer = ecoscale::sim::Tracer::buffering();
    let mut s = SystemBuilder::new()
        .workers_per_node(2)
        .compute_nodes(2)
        .kernel(K, HashMap::from([("n".to_owned(), 4096.0)]))
        .with_checks(CheckPlane::armed(common::ctx().check))
        .build()
        .unwrap();
    s.set_tracer(&tracer);
    for _ in 0..12 {
        let mut a = args(4096);
        s.call(NodeId(0), "hot", &mut a).unwrap();
    }
    s.daemon_tick();
    let report = SystemReport::capture(&s);
    let profile = report.profile.expect("tracer installed");
    assert_golden(
        "system_report_profile.schema",
        &schema_of(&profile.to_json()),
    );
}

/// The `exp_all --profile` document: critical-path blame over the
/// five-phase capture plus the shard-occupancy bands, assembled exactly
/// as the binary writes it.
#[test]
fn profile_export_json_schema_is_pinned() {
    let pc = capture_profile(Scale::Quick, common::ctx());
    let report = ecoscale::sim::prof::critical_path(&pc.capture.trace);
    let doc = format!(
        "{{\"profile\":{},\"occupancy\":{}}}",
        report.to_json(),
        pc.occupancy.to_json()
    );
    assert_golden("profile.schema", &schema_of(&doc));
}

/// The `serving` section of a drained ServePlane run — per-tenant SLO
/// ledger plus the aggregate counters — as exported by
/// `exp_all --serve-out` and embedded in `SystemReport::to_json`.
#[test]
fn serving_report_json_schema_is_pinned() {
    use ecoscale::apps::mix::serve_mix;
    use ecoscale::core::{run_serve_sim_with, ServeSimConfig};
    use ecoscale::runtime::ServeSpec;
    let spec = ServeSpec::parse("seed=7,tenants=2,rate=120000,horizon=300us,batch=4")
        .expect("spec parses");
    let mut cfg = ServeSimConfig::new(spec, serve_mix());
    cfg.items = 32;
    cfg.ctx = common::ctx();
    let out = run_serve_sim_with(&cfg, &mut CheckPlane::disabled());
    assert!(out.serving.conserved());
    assert_golden("serving_report.schema", &schema_of(&out.serving.to_json()));
}

#[test]
fn metrics_export_json_schema_is_pinned() {
    let cap = capture_observability(Scale::Quick, common::ctx());
    assert_golden("metrics.schema", &schema_of(&cap.metrics.to_json()));
}

#[test]
fn chrome_trace_json_schema_is_pinned() {
    let cap = capture_observability(Scale::Quick, common::ctx());
    assert_golden(
        "chrome_trace.schema",
        &schema_of(&cap.trace.to_chrome_json()),
    );
}

/// The `exp_all --telemetry` document — the merged serving window
/// series, the per-cell flight recorders (forced to fire so the trigger
/// and event fields are populated), and the sharded engine's
/// per-safe-window series. Pins every series/flight field name and type.
#[test]
fn telemetry_json_schema_is_pinned() {
    use ecoscale::bench::obs::{telemetry_shard_series, TelemetryCapture};
    use ecoscale::core::{linear_test_mix, run_serve_sim_with, ServeSimConfig};
    use ecoscale::runtime::ServeSpec;
    use ecoscale::sim::{CampaignSpec, Duration, TelemetryConfig};
    // an unmeetable 1µs deadline guarantees a populated flight recorder
    let spec = ServeSpec::parse("seed=21,tenants=4,rate=100000,horizon=500us,batch=4,deadline=1us")
        .expect("spec parses");
    let mut cfg = ServeSimConfig::new(spec, linear_test_mix());
    cfg.items = 32;
    cfg.cells = 2;
    cfg.faults = CampaignSpec::parse("seed=5,seu=200us,smmu=0.002,scrub=400us")
        .expect("campaign spec parses");
    cfg.telemetry = Some(TelemetryConfig::new(Duration::from_us(50)));
    cfg.ctx = common::ctx();
    let out = run_serve_sim_with(&cfg, &mut CheckPlane::disabled());
    let cap = TelemetryCapture {
        serve: out.telemetry.expect("telemetry armed"),
        shard: telemetry_shard_series(Scale::Quick, common::ctx()),
    };
    assert!(cap.fired(), "breach spec must populate the flight ring");
    assert_golden("telemetry.schema", &schema_of(&cap.to_json()));
    assert_golden("flight_dump.schema", &schema_of(&cap.flight_dump_json()));
}

/// The SnapPlane snapshot header — magic, version, and the checksummed
/// section table — as rendered by [`SnapshotFile::header_json`] for a
/// two-cell serving checkpoint. Pins the on-disk container layout:
/// adding, renaming or re-typing a header field fails the test.
///
/// [`SnapshotFile::header_json`]: ecoscale::sim::snap::SnapshotFile::header_json
#[test]
fn snapshot_header_json_schema_is_pinned() {
    use ecoscale::core::{linear_test_mix, serve_checkpoint, ServeSimConfig};
    use ecoscale::runtime::ServeSpec;
    use ecoscale::sim::snap::SnapshotFile;
    use ecoscale::sim::{Duration, Time};
    let spec = ServeSpec::parse("seed=7,tenants=2,rate=120000,horizon=300us,batch=4")
        .expect("spec parses");
    let mut cfg = ServeSimConfig::new(spec, linear_test_mix());
    cfg.items = 24;
    cfg.cells = 2;
    cfg.ctx = common::ctx();
    let bytes = serve_checkpoint(&cfg, Time::ZERO + Duration::from_us(150));
    let file = SnapshotFile::parse(&bytes).expect("checkpoint parses");
    assert_golden("snapshot_header.schema", &schema_of(&file.header_json()));
}

/// The bytes of three serving checkpoints, pinned by length and FNV-1a-64
/// digest, so a codec rewrite that moves, adds or drops a single field
/// fails here. Config A is a plain two-cell run (also armed, which adds
/// the invariant tallies); B adds a fault campaign, a deadline and
/// telemetry; C adds NoC link, corruption and stall faults on top, so
/// the network fault and resilience codecs are covered too. Every
/// context is set explicitly: `ECOSCALE_CHECK` cannot move the pins, and
/// the stream is the same at one and two threads.
#[test]
fn serve_checkpoint_bytes_are_pinned() {
    use ecoscale::core::{linear_test_mix, serve_checkpoint, ServeSimConfig};
    use ecoscale::runtime::ServeSpec;
    use ecoscale::sim::snap::fnv1a64;
    use ecoscale::sim::{CampaignSpec, Duration, RunCtx, TelemetryConfig, Time};
    let config_a = || {
        let spec = ServeSpec::parse("seed=7,tenants=2,rate=120000,horizon=300us,batch=4")
            .expect("spec parses");
        let mut cfg = ServeSimConfig::new(spec, linear_test_mix());
        cfg.items = 24;
        cfg.cells = 2;
        cfg
    };
    let config_b = |faults: &str| {
        let spec =
            ServeSpec::parse("seed=21,tenants=4,rate=100000,horizon=500us,batch=4,deadline=200us")
                .expect("spec parses");
        let mut cfg = ServeSimConfig::new(spec, linear_test_mix());
        cfg.faults = CampaignSpec::parse(faults).expect("campaign spec parses");
        cfg.telemetry = Some(TelemetryConfig::new(Duration::from_us(50)));
        cfg
    };
    let faults_b = "seed=5,seu=150us,smmu=0.002,scrub=300us";
    let faults_c = "seed=9,seu=150us,smmu=0.002,scrub=300us,link=80us,link_for=40us,\
                    corrupt=0.001,stall=200us,stall_for=50us";
    let cases = [
        (
            "A",
            config_a(),
            0,
            150,
            82_929_usize,
            0xfe41_a75d_f957_cf4c_u64,
        ),
        ("A armed", config_a(), 1, 150, 83_061, 0xa869_380a_0de3_1bf8),
        (
            "B",
            config_b(faults_b),
            0,
            200,
            50_880,
            0x1918_6e4a_c583_2be2,
        ),
        (
            "C",
            config_b(faults_c),
            0,
            200,
            51_130,
            0x4ab7_4d55_a80f_fa67,
        ),
    ];
    for (name, mut cfg, check, at_us, len, digest) in cases {
        for threads in [1, 2] {
            cfg.ctx = RunCtx {
                threads,
                shards: 1,
                check,
            };
            let bytes = serve_checkpoint(&cfg, Time::ZERO + Duration::from_us(at_us));
            assert_eq!(
                (bytes.len(), format!("{:016x}", fnv1a64(&bytes))),
                (len, format!("{digest:016x}")),
                "config {name} at {threads} thread(s)"
            );
        }
    }
}
