//! End-to-end and per-layer benchmark of the Spider reproduction.
//!
//! ```text
//! spider-perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! spider-perfbench --describe
//! ```
//!
//! One run builds the workload's inputs from the seed and repeats the whole
//! pipeline (topology → trace → paths → LP → scheme → partition → engine)
//! for `--seconds`, then runs the correctness gate outside the timed runs.
//! `--trace 0` reports the end-to-end metrics (medians over the repeats);
//! `--trace 1` alternates untraced and traced repeats and reports the
//! per-layer metrics of the traced ones. `--workload all` runs every
//! workload one at a time, both ways, each in a child process, and adds the
//! sequential-vs-sharded row. The last line of standard output is the result as one JSON object.

mod catalog;
mod gate;
mod pipeline;
mod rss;
#[cfg(test)]
mod tests;

use catalog::{Metric, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use pipeline::{run_pipeline, RunOutcome};
use serde_json::Value;
use spider_bench::{event_count, ExperimentConfig};
use spider_routing::LpScheme;
use spider_sim::SimReport;
use spider_telemetry::Telemetry;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Repeats every untraced run makes even when `--seconds` has already
/// passed, so each median has several samples.
const MIN_REPEATS: usize = 5;

/// Untraced-and-traced repeat pairs every traced run makes at least.
const MIN_TRACED_PAIRS: usize = 3;

/// Set-up-only repeats an untraced run adds after each timed repeat...
const SETUPS_PER_REPEAT: usize = 5;

/// ...while the set-ups so far took less than this many seconds, so an
/// expensive set-up (the LP solve) is measured once per timed repeat.
const SETUP_BUDGET_S: f64 = 1.0;

const USAGE: &str = "usage: spider-perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]\n       spider-perfbench --describe";

/// Parsed command line.
#[derive(Debug, PartialEq)]
enum Command {
    Run {
        workload: String,
        seed: u64,
        seconds: f64,
        trace: bool,
    },
    Describe,
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = catalog::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--describe" {
            return Ok(Command::Describe);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value} outside (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && catalog::workload(&workload).is_none() {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Command::Run {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Median of a sample (upper median for even counts); 0 when empty.
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(0.0)
}

/// Result of measuring one workload one way.
struct Measured {
    /// Metric values by name, in catalog order.
    metrics: Vec<(&'static Metric, f64)>,
    /// Payments attempted over every timed repeat.
    attempted: u64,
    /// Correctness-gate failures (empty when the run is correct).
    failures: Vec<String>,
    /// Human-readable notes printed above the metrics.
    notes: Vec<String>,
}

/// The per-layer metrics of one traced repeat, by name. Engine phases come
/// from the profiled telemetry handle the engine ran with.
fn layer_metrics(out: &RunOutcome, telemetry: &Telemetry) -> BTreeMap<&'static str, f64> {
    let span = |name: &str| -> f64 {
        out.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.secs())
            .sum()
    };
    let report = &out.report;
    let mut m = BTreeMap::new();
    m.insert("topology.build_s", span("topology.build"));
    m.insert("topology.partition_s", span("topology.partition"));
    m.insert("workload.trace_s", span("workload.trace"));
    m.insert("workload.demand_s", span("workload.demand"));
    m.insert("paths.enumerate_s", span("paths.enumerate"));
    m.insert("routing.build_s", span("routing.build"));

    let lp = out.prepared.lp.as_ref();
    let solve_s = span("opt.solve");
    let pairs = lp.map_or(0, |lp| lp.pairs);
    let iterations = lp.map_or(0, |lp| lp.iterations);
    let active = lp.map_or(0, |lp| {
        LpScheme::from_flows(&lp.paths, &lp.flows).active_pairs()
    });
    m.insert("paths.pairs", pairs as f64);
    m.insert("paths.candidates", lp.map_or(0, |lp| lp.paths.len()) as f64);
    m.insert("opt.solve_s", solve_s);
    m.insert("opt.iterations", iterations as f64);
    m.insert(
        "opt.ms_per_iter",
        if iterations > 0 {
            solve_s * 1e3 / iterations as f64
        } else {
            0.0
        },
    );
    m.insert(
        "opt.converged",
        lp.map_or(0.0, |lp| f64::from(u8::from(lp.converged))),
    );
    m.insert("opt.objective", lp.map_or(0.0, |lp| lp.objective));
    m.insert("opt.active_pairs", active as f64);
    m.insert(
        "opt.active_pair_share",
        if pairs > 0 {
            active as f64 / pairs as f64
        } else {
            0.0
        },
    );

    let run_s = span("sim.run");
    let events = event_count(&out.prepared.config, report) as f64;
    let summary = report.telemetry.as_ref();
    let counter = |name: &str| {
        summary
            .and_then(|s| s.metrics.counter(name, ""))
            .unwrap_or(0) as f64
    };
    let refunded = counter("sim.units.refunded");
    m.insert("sim.run_s", run_s);
    m.insert("sim.events", events);
    m.insert(
        "sim.events_per_s",
        if run_s > 0.0 { events / run_s } else { 0.0 },
    );
    m.insert("sim.units_sent", report.units_sent as f64);
    m.insert(
        "sim.units_refunded_share",
        if report.units_sent > 0 {
            refunded / report.units_sent as f64
        } else {
            0.0
        },
    );
    m.insert("sim.delay_mean_s", report.mean_completion_delay);
    m.insert(
        "sim.delay_p99_s",
        report
            .completion_delay_percentiles
            .as_ref()
            .map_or(0.0, |p| p.p99),
    );
    let phases = telemetry
        .profiler()
        .map(|p| p.wall_phases())
        .unwrap_or_default();
    for (phase, secs, calls) in [
        (
            "routing_decision",
            "sim.phase.routing_decision_s",
            "sim.phase.routing_decision.calls",
        ),
        (
            "unit_dispatch",
            "sim.phase.unit_dispatch_s",
            "sim.phase.unit_dispatch.calls",
        ),
        (
            "settle_refund",
            "sim.phase.settle_refund_s",
            "sim.phase.settle_refund.calls",
        ),
        (
            "epoch_compute",
            "sim.phase.epoch_compute_s",
            "sim.phase.epoch_compute.calls",
        ),
        (
            "message_merge",
            "sim.phase.message_merge_s",
            "sim.phase.message_merge.calls",
        ),
        (
            "barrier_wait",
            "sim.phase.barrier_wait_s",
            "sim.phase.barrier_wait.calls",
        ),
        (
            "queue_drain",
            "sim.phase.queue_drain_s",
            "sim.phase.queue_drain.calls",
        ),
    ] {
        let stat = phases.iter().find(|p| p.phase == phase);
        m.insert(secs, stat.map_or(0.0, |p| p.wall_ms / 1e3));
        m.insert(calls, stat.map_or(0.0, |p| p.calls as f64));
    }
    let max_queue = summary
        .and_then(|s| s.network_series.iter().map(|n| n.max_queue_depth).max())
        .unwrap_or(0);
    m.insert("sim.units_queued", counter("sim.units.queued"));
    m.insert("sim.max_queue_depth", f64::from(max_queue));
    m.insert("sim.rebalances", report.rebalance.transactions as f64);

    let covered: f64 = out.spans.iter().map(|s| s.secs()).sum();
    m.insert("bench.traced_wall_s", out.wall_s);
    m.insert("bench.covered_s", covered);
    m.insert("bench.uncovered_s", out.wall_s - covered);
    m
}

/// Measures `workload` on the inputs `config` generates for at least
/// `seconds` of timed repeats, then runs the correctness gate.
fn measure(workload: &Workload, config: &ExperimentConfig, seconds: f64, traced: bool) -> Measured {
    let shards = workload.shards();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    // Each repeat reads its peak from a freshly reset high-water mark, so
    // one repeat's peak never carries into the next.
    let peak_isolated = rss::reset_peak();

    let mut walls = Vec::new();
    let mut setups = Vec::new();
    let mut peaks = Vec::new();
    let mut engine_plain = Vec::new();
    let mut engine_traced = Vec::new();
    let mut traced_peaks = Vec::new();
    let mut plain_reports: Vec<SimReport> = Vec::new();
    let mut traced_reports: Vec<SimReport> = Vec::new();
    let mut layer_runs: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut spans_line = String::new();
    let mut prepared: Option<pipeline::Prepared> = None;
    loop {
        drop(prepared.take());
        rss::reset_peak();
        let out = run_pipeline(workload, config, shards, false, &Telemetry::disabled());
        peaks.push(rss::peak_rss_mb().unwrap_or(0.0));
        walls.push(out.wall_s);
        setups.push(out.setup_s);
        engine_plain.push(out.engine_s);
        plain_reports.push(out.report);
        prepared = Some(out.prepared);
        if traced {
            drop(prepared.take());
            rss::reset_peak();
            let telemetry = Telemetry::profiled();
            let mut out = run_pipeline(workload, config, shards, true, &telemetry);
            traced_peaks.push(rss::peak_rss_mb().unwrap_or(0.0));
            engine_traced.push(out.engine_s);
            layer_runs.push(layer_metrics(&out, &telemetry));
            drop(telemetry);
            spans_line = out
                .spans
                .iter()
                .map(|s| format!("{}[{:.4}..{:.4}]", s.name, s.start_s, s.end_s))
                .collect::<Vec<_>>()
                .join(" ");
            out.report.telemetry = None;
            traced_reports.push(out.report);
            prepared = Some(out.prepared);
        }
        // Where set-up is cheap, set-up-only repeats between the timed ones
        // add samples spread over the whole run: the host's speed drifts,
        // and the median should see as much of that drift as `wall_s` does.
        for _ in 0..SETUPS_PER_REPEAT {
            if traced || setups.iter().sum::<f64>() >= SETUP_BUDGET_S {
                break;
            }
            setups.push(pipeline::set_up(workload, config, shards, false).setup_s);
        }
        let min = if traced {
            MIN_TRACED_PAIRS
        } else {
            MIN_REPEATS
        };
        if Instant::now() >= deadline && walls.len() >= min {
            break;
        }
    }
    let Some(prepared) = prepared else {
        unreachable!("the measuring loop runs at least once");
    };
    let plain: Vec<&SimReport> = plain_reports.iter().collect();
    let traced_refs: Vec<&SimReport> = traced_reports.iter().collect();
    let failures = gate::check(&prepared, &plain, &traced_refs);

    let report = &plain_reports[0];
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    if traced {
        for name in layer_runs[0].keys() {
            let samples: Vec<f64> = layer_runs.iter().map(|m| m[name]).collect();
            values.insert(name, median(&samples));
        }
        values.insert(
            "telemetry.overhead_ratio",
            median(&engine_traced) / median(&engine_plain),
        );
        values.insert("telemetry.peak_rss_mb", median(&traced_peaks));
    } else {
        values.insert("wall_s", median(&walls));
        values.insert("setup_s", median(&setups));
        values.insert("peak_rss_mb", median(&peaks));
        values.insert("success_ratio", report.success_ratio());
        values.insert("success_volume", report.success_volume());
    }
    let table: &'static [Metric] = if traced { &PER_LAYER } else { &END_TO_END };
    let metrics = table
        .iter()
        .map(|m| match values.get(m.name) {
            Some(v) => (m, *v),
            None => unreachable!("metric {} has no measurement", m.name),
        })
        .collect();

    let mut notes = vec![
        format!(
            "workload={} seed={} traced={traced} shards={shards} host_online_cpus={} repeats={} setups={} peak_isolated={peak_isolated}",
            workload.name,
            config.seed,
            catalog::host_online_cpus(),
            walls.len(),
            setups.len(),
        ),
        format!("wall_s per repeat: {walls:.4?}"),
        format!("setup_s samples: {setups:.5?}"),
        format!(
            "simulated: attempted={} completed={} abandoned={} pending={} units_sent={} events={}",
            report.attempted,
            report.completed,
            report.abandoned,
            report.pending_at_end,
            report.units_sent,
            event_count(config, report),
        ),
    ];
    if traced {
        notes.push(format!("spans(last traced repeat, s): {spans_line}"));
    }
    let attempted = plain_reports
        .iter()
        .chain(&traced_reports)
        .map(|r| r.attempted as u64)
        .sum();
    Measured {
        metrics,
        attempted,
        failures,
        notes,
    }
}

fn print_measured(m: &Measured) {
    for note in &m.notes {
        println!("# {note}");
    }
    for (metric, value) in &m.metrics {
        println!("{:<36} {value:>16.6} {}", metric.name, metric.unit);
    }
    for f in &m.failures {
        println!("# CHECK FAILED: {f}");
    }
}

fn metric_value(value: f64, unit: &str) -> Value {
    Value::Object(vec![
        ("value".to_string(), Value::F64(value)),
        ("unit".to_string(), Value::Str(unit.to_string())),
    ])
}

fn result_line(correct: bool, attempted: u64, metrics: Vec<(String, Value)>) -> String {
    let failed = if correct { 0 } else { attempted };
    let out = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::U64(attempted.max(1))),
        ("failed".to_string(), Value::U64(failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&out).unwrap_or_default()
}

/// The benchmark's record: workloads with their inputs, metrics with units
/// and the end-to-end metric each per-layer metric should move, seeds.
fn describe(host_online_cpus: usize) -> Value {
    let s = |v: &str| Value::Str(v.to_string());
    let metric = |m: &Metric, key: &str| {
        let mut fields = vec![
            ("name".to_string(), s(m.name)),
            ("unit".to_string(), s(m.unit)),
            ("better".to_string(), s(m.better.as_str())),
        ];
        if m.bound > 0.0 {
            fields.push(("bound".to_string(), Value::F64(m.bound)));
        }
        fields.push((key.to_string(), s(m.moves)));
        Value::Object(fields)
    };
    Value::Object(vec![
        (
            "default_seed".to_string(),
            Value::U64(catalog::DEFAULT_SEED),
        ),
        (
            "held_out_seed".to_string(),
            Value::U64(catalog::HELD_OUT_SEED),
        ),
        (
            "max_shards".to_string(),
            Value::U64(catalog::MAX_SHARDS as u64),
        ),
        (
            "host_online_cpus".to_string(),
            Value::U64(host_online_cpus as u64),
        ),
        (
            "workloads".to_string(),
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Value::Object(vec![
                            ("name".to_string(), s(w.name)),
                            ("why".to_string(), s(w.why)),
                            ("inputs".to_string(), Value::Str(w.inputs())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".to_string(),
            Value::Array(END_TO_END.iter().map(|m| metric(m, "measures")).collect()),
        ),
        (
            "per_layer".to_string(),
            Value::Array(PER_LAYER.iter().map(|m| metric(m, "moves")).collect()),
        ),
    ])
}

/// Runs every workload one at a time, untraced then traced, and adds the
/// sequential-vs-sharded row. Each run is a child process of this binary
/// with the same arguments a single-workload run takes, so one workload's
/// retained heap never shows up in the next one's peak memory.
fn run_all(seed: u64, seconds: f64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut correct = true;
    let mut attempted = 0;
    let mut metrics = Vec::new();
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for w in &WORKLOADS {
        for trace in ["0", "1"] {
            let out = std::process::Command::new(&exe)
                .args(["--workload", w.name, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", trace])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("{}: cannot run: {e}", w.name))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let (body, last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
            if !out.status.success() {
                return Err(format!("{} --trace {trace}: {}", w.name, out.status));
            }
            for line in body.lines() {
                println!("{}/{line}", w.name);
            }
            let result: Value = serde_json::from_str(last)
                .map_err(|e| format!("{} --trace {trace}: bad result line: {e}", w.name))?;
            correct &= result.get_field("correct") == Some(&Value::Bool(true));
            attempted += result
                .get_field("attempted")
                .and_then(Value::as_i64)
                .unwrap_or(0) as u64;
            let Some(Value::Object(entries)) = result.get_field("metrics") else {
                return Err(format!("{} --trace {trace}: result has no metrics", w.name));
            };
            for (name, entry) in entries {
                let name = format!("{}.{name}", w.name);
                let value = entry
                    .get_field("value")
                    .and_then(Value::as_f64)
                    .unwrap_or(f64::NAN);
                values.insert(name.clone(), value);
                metrics.push((name, entry.clone()));
            }
        }
    }
    // Not a gate: the two engines simulate different work on the same
    // inputs, so the events and success ratios sit beside the ratio.
    let get = |name: &str| values.get(name).copied().unwrap_or(f64::NAN);
    let row = [
        (
            "derived.sharded_over_sequential_wall",
            get("wf-ripple-sharded.wall_s") / get("wf-ripple.wall_s"),
            "ratio",
        ),
        (
            "derived.wf-ripple.sim.events",
            get("wf-ripple.sim.events"),
            "count",
        ),
        (
            "derived.wf-ripple-sharded.sim.events",
            get("wf-ripple-sharded.sim.events"),
            "count",
        ),
        (
            "derived.wf-ripple.success_ratio",
            get("wf-ripple.success_ratio"),
            "ratio",
        ),
        (
            "derived.wf-ripple-sharded.success_ratio",
            get("wf-ripple-sharded.success_ratio"),
            "ratio",
        ),
    ];
    for (name, value, unit) in row {
        println!("{name:<44} {value:>16.6} {unit}");
        metrics.push((name.to_string(), metric_value(value, unit)));
    }
    Ok(result_line(correct, attempted, metrics))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Command::Run {
        workload,
        seed,
        seconds,
        trace,
    } = command
    else {
        println!(
            "{}",
            serde_json::to_string_pretty(&describe(catalog::host_online_cpus()))
                .unwrap_or_default()
        );
        return ExitCode::SUCCESS;
    };
    let line = match catalog::workload(&workload) {
        None => match run_all(seed, seconds) {
            Ok(line) => line,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
        Some(w) => {
            let m = measure(w, &w.config(seed), seconds, trace);
            print_measured(&m);
            let metrics = m
                .metrics
                .iter()
                .map(|(metric, v)| (metric.name.to_string(), metric_value(*v, metric.unit)))
                .collect();
            result_line(m.failures.is_empty(), m.attempted, metrics)
        }
    };
    println!("{line}");
    ExitCode::SUCCESS
}
