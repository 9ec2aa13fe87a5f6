//! The benchmark's self-test: shrunken inputs through the same code path,
//! the correctness gate tripping on tampered reports, and the committed
//! `BENCHMARK.json` / `record.json` agreeing with the catalog.

use super::*;
use crate::catalog::{Engine, Workload};
use crate::pipeline::run_pipeline;
use spider_bench::{run_scheme, run_sharded_scheme_featured, Topology};
use spider_sim::ShardScheme;

/// A small instance of `workload`'s input shape, quick even in debug builds.
fn shrunk(workload: &Workload) -> ExperimentConfig {
    ExperimentConfig {
        topology: Topology::Ripple { nodes: 40 },
        num_transactions: 400,
        duration: 10.0,
        ..workload.config(3)
    }
}

fn read_json(file: &str) -> Value {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get_field(key) {
        Some(Value::Array(items)) => items,
        other => panic!("{key} is not an array: {other:?}"),
    }
}

fn string<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get_field(key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key} is not a string: {other:?}"),
    }
}

#[test]
fn every_workload_reports_every_metric_with_a_unit_on_shrunken_inputs() {
    for w in &WORKLOADS {
        let config = shrunk(w);
        for (traced, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let m = measure(w, &config, 0.01, traced);
            assert!(
                m.failures.is_empty(),
                "{} traced={traced}: {:?}",
                w.name,
                m.failures
            );
            assert!(m.attempted > 0);
            let names: Vec<&str> = m.metrics.iter().map(|(metric, _)| metric.name).collect();
            let expected: Vec<&str> = table.iter().map(|metric| metric.name).collect();
            assert_eq!(names, expected, "{} traced={traced}", w.name);

            let metrics = m
                .metrics
                .iter()
                .map(|(metric, v)| (metric.name.to_string(), metric_value(*v, metric.unit)))
                .collect();
            let line: Value = serde_json::from_str(&result_line(true, m.attempted, metrics))
                .unwrap_or_else(|e| panic!("result line is not JSON: {e}"));
            let Value::Object(fields) = &line else {
                panic!("result line is not an object");
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            for metric in table {
                let entry = line
                    .get_field("metrics")
                    .and_then(|ms| ms.get_field(metric.name));
                let entry = entry.unwrap_or_else(|| panic!("{} missing", metric.name));
                assert!(entry
                    .get_field("value")
                    .and_then(Value::as_f64)
                    .is_some_and(f64::is_finite));
                assert_eq!(string(entry, "unit"), metric.unit);
            }
        }
    }
}

#[test]
fn pipeline_reproduces_the_programs_own_runs() {
    for w in &WORKLOADS {
        let config = shrunk(w);
        let out = run_pipeline(w, &config, 2, false, &Telemetry::disabled());
        let expected = match w.engine {
            Engine::Sequential => run_scheme(&config, w.scheme),
            Engine::Sharded(features) => run_sharded_scheme_featured(
                &config,
                ShardScheme::Waterfilling,
                2,
                &Telemetry::disabled(),
                false,
                features,
            ),
        };
        assert_eq!(
            serde_json::to_string(&out.report).ok(),
            serde_json::to_string(&expected).ok(),
            "{}",
            w.name
        );
    }
}

#[test]
fn tampered_reports_trip_the_gate() {
    let w = &WORKLOADS[0];
    let config = shrunk(w);
    let out = run_pipeline(w, &config, 1, false, &Telemetry::disabled());
    let payments = out.prepared.trace.len();
    let good = out.report.clone();
    assert!(gate::check_report(&good, payments).is_empty());
    assert!(gate::check(&out.prepared, &[&good], &[]).is_empty());

    let mut broken_count = good.clone();
    broken_count.completed += 1;
    assert!(!gate::check_report(&broken_count, payments).is_empty());
    assert!(!gate::check(&out.prepared, &[&broken_count], &[]).is_empty());

    let mut broken_volume = good.clone();
    broken_volume.delivered_volume = broken_volume.attempted_volume * 2.0 + 1.0;
    assert!(!gate::check_report(&broken_volume, payments).is_empty());

    let mut drifted = good.clone();
    drifted.units_sent += 1;
    assert!(!gate::check(&out.prepared, &[&good, &drifted], &[]).is_empty());
    assert!(!gate::check(&out.prepared, &[&good], &[&drifted]).is_empty());

    let mut bad_flows = out.prepared;
    if let Some(lp) = bad_flows.lp.as_mut() {
        lp.flows[0] = f64::NAN;
    }
    assert!(!gate::check(&bad_flows, &[&good], &[]).is_empty());
}

#[test]
fn a_failed_check_fails_every_payment() {
    let line: Value =
        serde_json::from_str(&result_line(false, 1234, Vec::new())).unwrap_or(Value::Null);
    assert_eq!(line.get_field("correct"), Some(&Value::Bool(false)));
    assert_eq!(line.get_field("failed").and_then(Value::as_i64), Some(1234));
}

#[test]
fn benchmark_json_mirrors_the_catalog() {
    let bench = read_json("../BENCHMARK.json");
    let workloads = array(&bench, "workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(string(entry, "name"), w.name);
        assert_eq!(string(entry, "why"), w.why);
    }
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let entries = array(&bench, key);
        assert_eq!(entries.len(), table.len(), "{key}");
        for (entry, m) in entries.iter().zip(table) {
            assert_eq!(string(entry, "name"), m.name);
            assert_eq!(string(entry, "unit"), m.unit);
            assert_eq!(string(entry, "better"), m.better.as_str());
            if key == "end_to_end" {
                assert_eq!(
                    entry.get_field("bound").and_then(Value::as_f64),
                    Some(m.bound),
                    "{}",
                    m.name
                );
            }
        }
    }
}

#[test]
fn committed_record_is_current() {
    let record = read_json("record.json");
    let host = record
        .get_field("host_online_cpus")
        .and_then(Value::as_i64)
        .unwrap_or(0);
    assert!(host > 0);
    assert_eq!(
        serde_json::to_string(&record).ok(),
        serde_json::to_string(&describe(host as usize)).ok()
    );
}

#[test]
fn arguments_parse_and_reject() {
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    assert_eq!(
        parse_args(&args("--workload wf-ripple --seed 7 --seconds 3 --trace 1")),
        Ok(Command::Run {
            workload: "wf-ripple".to_string(),
            seed: 7,
            seconds: 3.0,
            trace: true,
        })
    );
    assert_eq!(parse_args(&args("--describe")), Ok(Command::Describe));
    for bad in [
        "",
        "--workload nope",
        "--workload wf-ripple --trace 2",
        "--workload wf-ripple --seed x",
        "--workload wf-ripple --seconds 0",
        "--workload wf-ripple --bogus 1",
        "--workload",
    ] {
        assert!(parse_args(&args(bad)).is_err(), "{bad:?} accepted");
    }
}
