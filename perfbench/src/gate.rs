//! The correctness gate. It runs outside the timed runs; any failure marks
//! every payment of the run as failed.

use crate::pipeline::Prepared;
use spider_sim::SimReport;
use spider_telemetry::Telemetry;

/// Slack for comparing token volumes summed in different orders.
const VOLUME_EPS: f64 = 1e-6;

/// The simulated outcome of a report as canonical JSON: everything the
/// engine computed, without the fields that depend only on how it was
/// observed (telemetry, auditing).
pub fn simulated(report: &SimReport) -> String {
    let mut r = report.clone();
    r.telemetry = None;
    r.completion_delay_percentiles = None;
    r.audit_checks = 0;
    serde_json::to_string(&r).unwrap_or_else(|e| format!("unserializable report: {e}"))
}

/// Checks that need nothing but the report and the inputs it ran on.
pub fn check_report(report: &SimReport, payments: usize) -> Vec<String> {
    let mut failures = Vec::new();
    let accounted = report.completed + report.abandoned + report.pending_at_end;
    if accounted != report.attempted {
        failures.push(format!(
            "completed {} + abandoned {} + pending {} = {accounted} != attempted {}",
            report.completed, report.abandoned, report.pending_at_end, report.attempted
        ));
    }
    if report.attempted == 0 || report.attempted > payments {
        failures.push(format!(
            "attempted {} outside 1..={payments} generated payments",
            report.attempted
        ));
    }
    let volumes = [
        report.attempted_volume,
        report.delivered_volume,
        report.completed_volume,
    ];
    if volumes.iter().any(|v| !v.is_finite() || *v < 0.0) {
        failures.push(format!("volumes not finite and non-negative: {volumes:?}"));
    }
    if report.delivered_volume > report.attempted_volume + VOLUME_EPS {
        failures.push(format!(
            "delivered volume {} > attempted volume {}",
            report.delivered_volume, report.attempted_volume
        ));
    }
    if report.completed_volume > report.delivered_volume + VOLUME_EPS {
        failures.push(format!(
            "completed volume {} > delivered volume {}",
            report.completed_volume, report.delivered_volume
        ));
    }
    if !(report.mean_completion_delay.is_finite() && report.mean_completion_delay >= 0.0) {
        failures.push(format!(
            "mean completion delay {}",
            report.mean_completion_delay
        ));
    }
    failures
}

/// The full gate: static checks on every report, repeat identity, the LP
/// flows, one audited engine run, and for sharded workloads a one-shard run
/// whose report must be byte-identical to the timed one.
///
/// `untraced` are the reports of timed runs without telemetry; `traced` are
/// reports of profiled runs. All must come from the inputs in `prepared`
/// (same workload and seed).
pub fn check(prepared: &Prepared, untraced: &[&SimReport], traced: &[&SimReport]) -> Vec<String> {
    let mut failures = Vec::new();
    let payments = prepared.trace.len();
    let Some(first) = untraced.first().or(traced.first()) else {
        return vec!["no timed run finished".to_string()];
    };
    for r in untraced.iter().chain(traced) {
        failures.extend(check_report(r, payments));
    }

    let reference = simulated(first);
    let raw = serde_json::to_string(*first).unwrap_or_default();
    if untraced
        .iter()
        .any(|r| serde_json::to_string(*r).unwrap_or_default() != raw)
    {
        failures.push("untraced repeats produced different reports".to_string());
    }
    if traced.iter().any(|r| simulated(r) != reference) {
        failures.push("traced runs simulated a different outcome than untraced runs".to_string());
    }

    if let Some(lp) = &prepared.lp {
        if let Some(bad) = lp.flows.iter().find(|f| !f.is_finite() || **f < 0.0) {
            failures.push(format!("LP path flow {bad} is not finite and non-negative"));
        }
        if lp.flows.len() != lp.paths.len() {
            failures.push("LP flows and candidate paths do not align".to_string());
        }
    }

    let audited = prepared.simulate(&Telemetry::disabled(), true, false);
    if audited.audit_checks == 0 {
        failures.push("audited run performed no ledger checks".to_string());
    }
    if !audited.audit_violations.is_empty() {
        failures.push(format!(
            "ledger auditor found {} violations, first: {:?}",
            audited.audit_violations.len(),
            audited.audit_violations[0]
        ));
    }
    if simulated(&audited) != reference {
        failures.push("audited run simulated a different outcome (repeat mismatch)".to_string());
    }

    if prepared.sharded.is_some() {
        let single = prepared.simulate(&Telemetry::disabled(), false, true);
        if serde_json::to_string(&single).unwrap_or_default() != raw {
            failures.push("one-shard report differs from the sharded report".to_string());
        }
    }
    failures
}
