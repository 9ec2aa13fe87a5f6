//! Telemetry integration tests: trace/report reconciliation, event-counter
//! reconciliation on all three engines, JSONL file round-trips, grid trace
//! determinism, and the disabled-is-free guarantee (a telemetry-off report
//! serializes byte-identically to pre-telemetry builds, pinned by
//! `tests/fixtures/simreport_pre_pr.json`).

use spider::prelude::*;
use spider::sim::{CongestionConfig, FaultConfig, FaultPlan, RebalancePolicy, ShardPolicy};
use spider::telemetry::{count_by_kind, parse_jsonl, EVENT_COUNTERS};
use spider::workload::{generate, isp_sizes};
use spider_bench::{
    run_grid_traced, run_scheme, run_scheme_traced, ExperimentConfig, GridConfig, SchemeChoice,
};

fn small_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::isp_quick();
    cfg.num_transactions = 500;
    cfg.duration = 20.0;
    cfg
}

fn kind_count(counts: &[(String, u64)], kind: &str) -> u64 {
    counts
        .iter()
        .find(|(k, _)| k == kind)
        .map(|&(_, n)| n)
        .unwrap_or(0)
}

#[test]
fn trace_events_reconcile_with_report_counters() {
    // Starved capacity so the run exercises abandonment too.
    let mut cfg = small_config();
    cfg.capacity = 300.0;
    let tel = Telemetry::enabled();
    let report = run_scheme_traced(&cfg, SchemeChoice::SpiderWaterfilling, &tel);
    let counts = count_by_kind(&tel.events());

    assert_eq!(
        kind_count(&counts, "payment_arrived"),
        report.attempted as u64
    );
    assert_eq!(
        kind_count(&counts, "payment_completed"),
        report.completed as u64
    );
    assert_eq!(
        kind_count(&counts, "payment_abandoned"),
        report.abandoned as u64
    );
    assert_eq!(kind_count(&counts, "unit_sent"), report.units_sent);
    assert!(report.abandoned > 0, "starved run should abandon payments");
    assert!(
        report.completed > 0,
        "starved run should still complete some"
    );

    // The embedded summary agrees with the raw event stream, and the
    // metrics registry agrees with both.
    let summary = report.telemetry.as_ref().expect("telemetry was enabled");
    assert_eq!(summary.events, tel.events().len() as u64);
    assert_eq!(
        summary.event_count("payment_arrived"),
        report.attempted as u64
    );
    assert_eq!(
        summary.metrics.counter("sim.units.sent", ""),
        Some(report.units_sent)
    );
    assert_eq!(
        summary.metrics.counter("sim.payments.completed", ""),
        Some(report.completed as u64)
    );
    assert!(!summary.network_series.is_empty(), "channel sampling ran");

    // Percentiles come from the completion-delay histogram and bracket the
    // mean of a successful run.
    let p = report
        .completion_delay_percentiles
        .expect("completed payments produce percentiles");
    assert!(p.p50 <= p.p95 && p.p95 <= p.p99);
    assert!(p.p50 > 0.0);
}

#[test]
fn trace_jsonl_round_trips_through_a_file() {
    let cfg = small_config();
    let tel = Telemetry::enabled();
    let report = run_scheme_traced(&cfg, SchemeChoice::ShortestPath, &tel);

    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("telemetry_trace.jsonl");
    std::fs::write(&path, tel.trace_jsonl()).expect("write trace");
    let text = std::fs::read_to_string(&path).expect("read trace back");
    let events = parse_jsonl(&text).expect("written trace parses");

    assert_eq!(
        events,
        tel.events(),
        "file round-trip preserves every event"
    );
    let counts = count_by_kind(&events);
    assert_eq!(
        kind_count(&counts, "payment_arrived"),
        report.attempted as u64
    );
    assert_eq!(kind_count(&counts, "unit_sent"), report.units_sent);
    assert_eq!(
        kind_count(&counts, "unit_settled") + kind_count(&counts, "unit_refunded"),
        report.units_sent,
        "every sent unit must settle or refund within this window"
    );
}

#[test]
fn queued_engine_traces_reconcile_and_record_queue_depths() {
    use spider::core::{Amount, NodeId, PaymentId};

    // Second hop starts empty toward node 2: units are admitted at the
    // source and must wait in router 1's queue for opposing traffic.
    let mut g = spider::core::Network::new(3);
    g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(100))
        .unwrap();
    g.add_channel_with_balances(NodeId(1), NodeId(2), Amount::ZERO, Amount::from_whole(50))
        .unwrap();
    let tx = |id, src, dst, amount, arrival| Transaction {
        id: PaymentId(id),
        src: NodeId(src),
        dst: NodeId(dst),
        amount: Amount::from_whole(amount),
        arrival,
    };
    let txs = vec![tx(0, 0, 2, 20, 0.1), tx(1, 2, 0, 20, 1.0)];
    let mut cfg = QueuedConfig::new(30.0);
    cfg.deadline = 20.0;
    cfg.telemetry = Telemetry::enabled();
    let out = run_queued(&g, &txs, &cfg);

    let counts = count_by_kind(&cfg.telemetry.events());
    assert_eq!(
        kind_count(&counts, "payment_arrived"),
        out.report.attempted as u64
    );
    assert_eq!(
        kind_count(&counts, "payment_completed"),
        out.report.completed as u64
    );
    assert_eq!(kind_count(&counts, "unit_sent"), out.report.units_sent);
    assert_eq!(
        kind_count(&counts, "unit_queued"),
        out.queues.units_queued as u64
    );
    assert!(out.queues.units_queued > 0, "scenario must exercise queues");

    // Channel samples report real queue depths while units wait.
    let max_sampled_depth = cfg
        .telemetry
        .events()
        .iter()
        .filter_map(|e| match e {
            spider::telemetry::TraceEvent::ChannelSample { queue_depth, .. } => Some(*queue_depth),
            _ => None,
        })
        .max()
        .expect("sampling ran");
    assert!(max_sampled_depth > 0, "queue depth must appear in samples");
}

#[test]
fn disabled_telemetry_report_is_byte_identical_to_pre_pr_fixture() {
    let cfg = small_config();
    let report = run_scheme(&cfg, SchemeChoice::ShortestPath);
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let fixture = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/simreport_pre_pr.json"
    ))
    .expect("fixture exists");
    assert_eq!(
        json.trim(),
        fixture.trim(),
        "telemetry-off reports must serialize exactly as before the telemetry layer"
    );
}

#[test]
fn grid_traces_are_byte_identical_at_any_worker_count() {
    let mut base = small_config();
    base.num_transactions = 200;
    base.duration = 10.0;
    let mut grid = GridConfig::new(base);
    grid.schemes = vec![SchemeChoice::ShortestPath, SchemeChoice::SpiderWaterfilling];
    grid.trials = 2;
    grid.telemetry = true;

    let (serial, serial_traces) = run_grid_traced(&grid, 1).unwrap();
    let (parallel, parallel_traces) = run_grid_traced(&grid, 4).unwrap();

    assert_eq!(serial_traces.len(), 4);
    assert_eq!(
        serial_traces, parallel_traces,
        "per-cell trace bytes must not depend on the worker count"
    );
    assert_eq!(
        serial.to_json().unwrap(),
        parallel.to_json().unwrap(),
        "grid result JSON must not depend on the worker count"
    );
    for trace in &serial_traces {
        let events = parse_jsonl(trace).expect("cell traces parse");
        assert!(!events.is_empty(), "telemetry-on cells must trace events");
    }
}

/// Checks the counter rule on one run: every `sim.*` event counter in
/// [`EVENT_COUNTERS`] equals the number of trace events of its kind, and the
/// completion-delay histogram holds one sample per completion. `must_fire`
/// names the kinds the scenario has to exercise, so a reconciliation never
/// passes vacuously at zero.
fn assert_counters_reconcile(tel: &Telemetry, report: &SimReport, must_fire: &[&str]) {
    let summary = report.telemetry.as_ref().expect("telemetry was enabled");
    let counts = count_by_kind(&tel.events());
    for (kind, counter) in EVENT_COUNTERS {
        assert_eq!(
            summary.metrics.counter(counter, "").unwrap_or(0),
            kind_count(&counts, kind),
            "{counter} must count the trace's {kind} events"
        );
    }
    for kind in must_fire {
        assert!(
            kind_count(&counts, kind) > 0,
            "scenario must exercise {kind}: {counts:?}"
        );
    }
    let delays = summary
        .metrics
        .histogram("sim.completion_delay", "")
        .map_or(0, |h| h.count);
    assert_eq!(delays, kind_count(&counts, "payment_completed"));
}

/// An ISP topology and a seeded payment trace over `duration` seconds.
fn isp_scenario(capacity: i64, payments: usize, duration: f64) -> (Network, Vec<Transaction>) {
    let network = spider::topology::isp_topology(Amount::from_whole(capacity));
    let mut trace = TraceConfig::isp_default(network.num_nodes(), payments, duration);
    trace.seed = 5;
    let txs = generate(&trace, &isp_sizes());
    (network, txs)
}

/// Every fault class at once: outages, node churn, drops, and griefing,
/// with sender retries on (the default).
fn fault_storm(network: &Network, end_time: f64) -> FaultPlan {
    let faults = FaultConfig {
        seed: 7,
        channel_outage_rate: 1.0,
        outage_duration: 2.0,
        node_churn_rate: 0.3,
        node_downtime: 2.0,
        unit_drop_prob: 0.05,
        grief_prob: 0.03,
        ..FaultConfig::default()
    };
    FaultPlan::from_config(&faults, network, end_time)
}

#[test]
fn sequential_event_counters_reconcile_under_faults() {
    let (network, txs) = isp_scenario(150, 400, 15.0);
    let mut cfg = SimConfig::new(20.0);
    cfg.faults = Some(fault_storm(&network, 20.0));
    cfg.telemetry = Telemetry::enabled();
    let report = spider::sim::run(&network, &txs, &mut WaterfillingScheme::new(), &cfg);
    assert_counters_reconcile(
        &cfg.telemetry,
        &report,
        &[
            "unit_settled",
            "unit_refunded",
            "unit_dropped",
            "unit_griefed",
            "payment_completed",
            "payment_retry",
            "channel_outage",
            "node_crashed",
        ],
    );
}

#[test]
fn queued_event_counters_reconcile_under_faults() {
    // Tight capacity so units wait in router queues.
    let (network, txs) = isp_scenario(60, 400, 15.0);
    let mut cfg = QueuedConfig::new(20.0);
    cfg.faults = Some(fault_storm(&network, 20.0));
    cfg.telemetry = Telemetry::enabled();
    let out = run_queued(&network, &txs, &cfg);
    assert_counters_reconcile(
        &cfg.telemetry,
        &out.report,
        &[
            "unit_settled",
            "unit_refunded",
            "unit_queued",
            "payment_completed",
            "payment_abandoned",
            "channel_outage",
            "node_crashed",
        ],
    );
}

#[test]
fn sharded_event_counters_reconcile_with_every_feature() {
    let (network, txs) = isp_scenario(90, 400, 14.0);
    let mut cfg = ShardedConfig::new(20.0);
    cfg.policy = ShardPolicy::Queued;
    cfg.fees = Some(spider::routing::FeeSchedule::uniform(
        &network,
        Amount::from_micros(10),
        1_000,
    ));
    cfg.congestion = Some(CongestionConfig::default());
    cfg.rebalance = Some(RebalancePolicy::aggressive());
    cfg.faults = Some(fault_storm(&network, 20.0));
    cfg.telemetry = Telemetry::enabled();
    let partition = Partition::build(&network, 2, 5);
    let report = run_sharded(&network, &txs, &partition, &cfg);
    assert_counters_reconcile(
        &cfg.telemetry,
        &report,
        &[
            "unit_settled",
            "unit_refunded",
            "unit_queued",
            "unit_dropped",
            "payment_completed",
            "payment_retry",
            "channel_outage",
            "rebalance_applied",
        ],
    );
}
