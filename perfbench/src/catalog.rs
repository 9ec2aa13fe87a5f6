//! What the benchmark runs and what it reports: the four workloads, the
//! end-to-end metrics with their regression bounds, and the per-layer
//! metrics with the end-to-end metric each should move.
//!
//! `BENCHMARK.json` at the repository root mirrors these tables; the unit
//! tests fail when the two drift apart.

use spider_bench::{ExperimentConfig, SchemeChoice, ShardFeatures, Topology};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// A seed never used while tuning the benchmark; later claims re-check on it.
pub const HELD_OUT_SEED: u64 = 20_261_017;

/// Sharded workloads run at the host's online CPU count, capped here so a
/// large host does not change the workload's shape.
pub const MAX_SHARDS: usize = 2;

/// Which engine simulates a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// `spider_sim::run`, one thread.
    Sequential,
    /// `spider_sim::run_sharded` at [`Workload::shards`] shards with these
    /// features.
    Sharded(ShardFeatures),
}

/// One workload: a scheme and engine over the fig6 Ripple shape.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One-line reason the workload exists.
    pub why: &'static str,
    /// Routing scheme.
    pub scheme: SchemeChoice,
    /// Engine that simulates the trace.
    pub engine: Engine,
    /// Payments generated.
    pub payments: usize,
    /// Arrival window and measurement window, seconds of simulated time.
    pub window_s: f64,
}

/// Ripple node count of every workload (the fig6 quick scale).
pub const RIPPLE_NODES: usize = 400;

/// The benchmark's workloads, in run order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "lp-ripple",
        why: "spider-lp on ripple-400, 5000 payments over 85 s, sequential engine: the primal-dual LP solve is nearly all the wall time",
        scheme: SchemeChoice::SpiderLp,
        engine: Engine::Sequential,
        payments: 5_000,
        window_s: 85.0,
    },
    Workload {
        name: "wf-ripple",
        why: "spider-waterfilling on ripple-400, 30000 payments over 85 s, sequential engine: the contended event loop is the wall time",
        scheme: SchemeChoice::SpiderWaterfilling,
        engine: Engine::Sequential,
        payments: 30_000,
        window_s: 85.0,
    },
    Workload {
        name: "wf-ripple-sharded",
        why: "wf-ripple's inputs on the sharded engine at nproc (max 2) shards: epoch compute, message merge and barrier wait",
        scheme: SchemeChoice::SpiderWaterfilling,
        engine: Engine::Sharded(ShardFeatures::NONE),
        payments: 30_000,
        window_s: 85.0,
    },
    Workload {
        name: "full-ripple-sharded",
        why: "wf-ripple's inputs sharded with queues, fees, AIMD and rebalancing on: the only workload that drains router queues",
        scheme: SchemeChoice::SpiderWaterfilling,
        engine: Engine::Sharded(ShardFeatures::ALL),
        payments: 30_000,
        window_s: 85.0,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The experiment config for `seed`: fig6 Ripple quick with this
    /// workload's payment count and window.
    pub fn config(&self, seed: u64) -> ExperimentConfig {
        ExperimentConfig {
            num_transactions: self.payments,
            duration: self.window_s,
            seed,
            topology: Topology::Ripple {
                nodes: RIPPLE_NODES,
            },
            ..ExperimentConfig::ripple_quick()
        }
    }

    /// Shard count the engine runs at (1 for the sequential engine).
    pub fn shards(&self) -> usize {
        match self.engine {
            Engine::Sequential => 1,
            Engine::Sharded(_) => host_online_cpus().min(MAX_SHARDS),
        }
    }

    /// Human-readable input description for the record.
    pub fn inputs(&self) -> String {
        let cfg = self.config(DEFAULT_SEED);
        let engine = match self.engine {
            Engine::Sequential => "sequential".to_string(),
            Engine::Sharded(f) => format!(
                "sharded at min(nproc, {MAX_SHARDS}) shards, queued={} fees={} congestion={} rebalance={}",
                f.queued, f.fees, f.congestion, f.rebalance
            ),
        };
        format!(
            "topology=ripple nodes={RIPPLE_NODES} capacity={} sender_skew={} payments={} window_s={} \
             deadline_s={} mtu={} scheme={:?} engine={engine}",
            cfg.capacity,
            cfg.sender_skew,
            cfg.num_transactions,
            cfg.duration,
            cfg.deadline,
            cfg.mtu,
            self.scheme,
        )
    }
}

/// CPUs this process may run on.
pub fn host_online_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Direction in which a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// Name as written in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name in the result JSON.
    pub name: &'static str,
    /// Unit in the result JSON.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// End-to-end metrics: share of the parent's median by which the metric
    /// may worsen. Per-layer metrics: unused (0).
    pub bound: f64,
    /// Per-layer metrics: the end-to-end metric this should move, and on
    /// which workload. End-to-end metrics: what it measures.
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        moves,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        moves,
    }
}

use Better::{Higher, Lower};

/// Metrics a user of the reproduction sees, reported from untraced runs.
pub const END_TO_END: [Metric; 5] = [
    e2e("wall_s", "s", Lower, 0.25, "host seconds for one whole pipeline run, median over the run's repeats"),
    e2e("setup_s", "s", Lower, 0.25, "host seconds before the engine call (topology, trace, paths, LP, scheme, partition), median"),
    e2e("peak_rss_mb", "MB", Lower, 0.2, "peak resident memory (VmHWM, reset before each repeat) of an untraced repeat, median"),
    e2e("success_ratio", "ratio", Higher, 0.2, "completed payments over attempted payments (simulated)"),
    e2e("success_volume", "ratio", Higher, 0.25, "delivered volume over attempted volume (simulated)"),
];

/// Metrics of single layers, reported from the traced run.
pub const PER_LAYER: [Metric; 44] = [
    layer("topology.build_s", "s", Lower, "setup_s everywhere"),
    layer(
        "topology.partition_s",
        "s",
        Lower,
        "setup_s on the sharded workloads",
    ),
    layer("workload.trace_s", "s", Lower, "setup_s everywhere"),
    layer("workload.demand_s", "s", Lower, "setup_s on lp-ripple"),
    layer("paths.enumerate_s", "s", Lower, "setup_s on lp-ripple"),
    layer("paths.pairs", "count", Lower, "setup_s on lp-ripple"),
    layer("paths.candidates", "count", Lower, "setup_s on lp-ripple"),
    layer(
        "opt.solve_s",
        "s",
        Lower,
        "wall_s and setup_s on lp-ripple; no other workload",
    ),
    layer(
        "opt.iterations",
        "count",
        Lower,
        "wall_s and setup_s on lp-ripple",
    ),
    layer(
        "opt.ms_per_iter",
        "ms",
        Lower,
        "wall_s and setup_s on lp-ripple",
    ),
    layer(
        "opt.converged",
        "flag",
        Higher,
        "wall_s and setup_s on lp-ripple",
    ),
    layer(
        "opt.objective",
        "tokens/s",
        Higher,
        "success_ratio on lp-ripple",
    ),
    layer(
        "opt.active_pairs",
        "count",
        Higher,
        "success_ratio on lp-ripple",
    ),
    layer(
        "opt.active_pair_share",
        "ratio",
        Higher,
        "success_ratio on lp-ripple",
    ),
    layer("routing.build_s", "s", Lower, "setup_s everywhere"),
    layer(
        "sim.run_s",
        "s",
        Lower,
        "wall_s on wf-ripple; not on lp-ripple",
    ),
    layer("sim.events", "count", Lower, "wall_s on wf-ripple"),
    layer("sim.events_per_s", "1/s", Higher, "wall_s on wf-ripple"),
    layer("sim.units_sent", "count", Lower, "wall_s on wf-ripple"),
    layer(
        "sim.units_refunded_share",
        "ratio",
        Lower,
        "wall_s and success_ratio on wf-ripple",
    ),
    layer(
        "sim.delay_mean_s",
        "s",
        Lower,
        "success_ratio on wf-ripple; mean completion delay, simulated seconds",
    ),
    layer(
        "sim.delay_p99_s",
        "s",
        Lower,
        "success_ratio on wf-ripple; p99 completion delay, simulated seconds",
    ),
    layer(
        "sim.phase.routing_decision_s",
        "s",
        Lower,
        "wall_s on wf-ripple",
    ),
    layer(
        "sim.phase.routing_decision.calls",
        "count",
        Lower,
        "wall_s on wf-ripple",
    ),
    layer(
        "sim.phase.unit_dispatch_s",
        "s",
        Lower,
        "wall_s on wf-ripple",
    ),
    layer(
        "sim.phase.unit_dispatch.calls",
        "count",
        Lower,
        "wall_s on wf-ripple",
    ),
    layer(
        "sim.phase.settle_refund_s",
        "s",
        Lower,
        "wall_s on wf-ripple",
    ),
    layer(
        "sim.phase.settle_refund.calls",
        "count",
        Lower,
        "wall_s on wf-ripple",
    ),
    layer(
        "sim.phase.epoch_compute_s",
        "s",
        Lower,
        "wall_s on wf-ripple-sharded and full-ripple-sharded",
    ),
    layer(
        "sim.phase.epoch_compute.calls",
        "count",
        Lower,
        "wall_s on wf-ripple-sharded and full-ripple-sharded",
    ),
    layer(
        "sim.phase.message_merge_s",
        "s",
        Lower,
        "wall_s on wf-ripple-sharded and full-ripple-sharded",
    ),
    layer(
        "sim.phase.message_merge.calls",
        "count",
        Lower,
        "wall_s on wf-ripple-sharded and full-ripple-sharded",
    ),
    layer(
        "sim.phase.barrier_wait_s",
        "s",
        Lower,
        "wall_s on wf-ripple-sharded and full-ripple-sharded",
    ),
    layer(
        "sim.phase.barrier_wait.calls",
        "count",
        Lower,
        "wall_s on wf-ripple-sharded and full-ripple-sharded",
    ),
    layer(
        "sim.phase.queue_drain_s",
        "s",
        Lower,
        "wall_s and success_ratio on full-ripple-sharded",
    ),
    layer(
        "sim.phase.queue_drain.calls",
        "count",
        Lower,
        "wall_s and success_ratio on full-ripple-sharded",
    ),
    layer(
        "sim.units_queued",
        "count",
        Lower,
        "wall_s and success_ratio on full-ripple-sharded",
    ),
    layer(
        "sim.max_queue_depth",
        "count",
        Lower,
        "wall_s and success_ratio on full-ripple-sharded",
    ),
    layer(
        "sim.rebalances",
        "count",
        Lower,
        "wall_s and success_ratio on full-ripple-sharded",
    ),
    layer(
        "telemetry.overhead_ratio",
        "ratio",
        Lower,
        "no end-to-end metric; traced over untraced engine seconds",
    ),
    layer(
        "telemetry.peak_rss_mb",
        "MB",
        Lower,
        "no end-to-end metric; peak memory of a traced repeat, median",
    ),
    layer(
        "bench.traced_wall_s",
        "s",
        Lower,
        "wall_s everywhere; traced pipeline wall time the spans must cover",
    ),
    layer(
        "bench.covered_s",
        "s",
        Lower,
        "wall_s everywhere; sum of the layer spans",
    ),
    layer(
        "bench.uncovered_s",
        "s",
        Lower,
        "wall_s everywhere; traced wall time outside every layer span",
    ),
];
