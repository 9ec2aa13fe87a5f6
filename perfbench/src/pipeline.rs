//! One run of the layered pipeline a figure waits for: topology, payment
//! trace, candidate paths, LP solve, scheme construction, partition, and
//! the engine. Each layer is entered through its public function, so the
//! benchmark can time the layers one by one from outside the program.

use crate::catalog::{Engine, Workload};
use spider_bench::{build_scheme, lp_candidate_paths, ExperimentConfig, SchemeChoice};
use spider_core::{Network, Path};
use spider_opt::primal_dual::{self, PrimalDualConfig};
use spider_routing::{LpScheme, RoutingScheme};
use spider_sim::{run, run_sharded, ShardScheme, ShardedConfig, SimReport};
use spider_telemetry::Telemetry;
use spider_topology::Partition;
use spider_workload::{demand_matrix, Transaction};
use std::time::Instant;

/// Confirmation latency `Δ` the fig6 LP is solved at.
const LP_DELTA: f64 = 0.5;

/// The primal-dual settings fig6 solves spider-lp with (see
/// `spider_bench::build_scheme`).
pub fn lp_solver_config() -> PrimalDualConfig {
    PrimalDualConfig {
        alpha: 0.05,
        eta: 0.05,
        kappa: 0.05,
        max_iters: 5_000,
        ..Default::default()
    }
}

/// A timed interval around one call into a layer, relative to the start of
/// the pipeline run. Every span's parent is the run itself.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.operation`, e.g. `opt.solve`.
    pub name: &'static str,
    /// Seconds from the run's start.
    pub start_s: f64,
    /// Seconds from the run's start.
    pub end_s: f64,
}

impl Span {
    /// Span duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// In-memory span recorder; records nothing unless enabled.
struct Spans {
    t0: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start_s = self.t0.elapsed().as_secs_f64();
        let out = f();
        let end_s = self.t0.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start_s,
            end_s,
        });
        out
    }
}

/// Outputs of the LP layers.
#[derive(Clone, Debug)]
pub struct LpPlan {
    /// Candidate paths, aligned with `flows`.
    pub paths: Vec<Path>,
    /// Primal-dual path rates.
    pub flows: Vec<f64>,
    /// Demand-bearing pairs the LP saw.
    pub pairs: usize,
    /// Sweeps the solver ran.
    pub iterations: usize,
    /// Whether the solver met its tolerance.
    pub converged: bool,
    /// Total delivered rate `Σ x_p` (tokens/s).
    pub objective: f64,
}

/// Everything the engine call needs, built by the setup layers.
pub struct Prepared {
    /// The experiment config the inputs were generated from.
    pub config: ExperimentConfig,
    /// Workload scheme.
    pub choice: SchemeChoice,
    /// Generated topology.
    pub network: Network,
    /// Generated payment trace.
    pub trace: Vec<Transaction>,
    /// LP candidate paths and flows (spider-lp only).
    pub lp: Option<LpPlan>,
    /// Sharded engine settings and partition (sharded workloads only).
    pub sharded: Option<(ShardedConfig, Partition)>,
}

impl Prepared {
    /// A fresh routing scheme for the sequential engine (schemes carry
    /// per-run state, so each engine call gets its own).
    pub fn scheme(&self) -> Box<dyn RoutingScheme> {
        match &self.lp {
            Some(lp) => Box::new(LpScheme::from_flows(&lp.paths, &lp.flows)),
            None => build_scheme(
                self.choice,
                &self.network,
                &self.trace,
                self.config.duration,
            ),
        }
    }

    /// Runs the engine once. `single_shard` replaces the partition with a
    /// one-shard one (sharded workloads only).
    pub fn simulate(&self, telemetry: &Telemetry, audit: bool, single_shard: bool) -> SimReport {
        match &self.sharded {
            None => {
                let mut scheme = self.scheme();
                self.simulate_with(scheme.as_mut(), telemetry, audit)
            }
            Some((cfg, partition)) => {
                let mut cfg = cfg.clone();
                cfg.telemetry = telemetry.clone();
                cfg.audit = audit;
                if single_shard {
                    run_sharded(
                        &self.network,
                        &self.trace,
                        &Partition::single(&self.network),
                        &cfg,
                    )
                } else {
                    run_sharded(&self.network, &self.trace, partition, &cfg)
                }
            }
        }
    }

    fn simulate_with(
        &self,
        scheme: &mut dyn RoutingScheme,
        telemetry: &Telemetry,
        audit: bool,
    ) -> SimReport {
        let mut sim = self.config.sim_config();
        sim.telemetry = telemetry.clone();
        sim.audit = audit;
        run(&self.network, &self.trace, scheme, &sim)
    }
}

/// One timed pipeline run.
pub struct RunOutcome {
    /// Host seconds from the first setup call to the engine's return.
    pub wall_s: f64,
    /// Host seconds before the engine call.
    pub setup_s: f64,
    /// Host seconds inside the engine call.
    pub engine_s: f64,
    /// Layer spans (empty unless traced).
    pub spans: Vec<Span>,
    /// The engine's report.
    pub report: SimReport,
    /// The setup layers' outputs, kept for the correctness checks.
    pub prepared: Prepared,
}

/// Builds the inputs for `config` and runs `workload`'s pipeline on them
/// once. With `traced`, records a span around every layer call and hands
/// the engine `telemetry` (callers pass a profiled handle).
pub fn run_pipeline(
    workload: &Workload,
    config: &ExperimentConfig,
    shards: usize,
    traced: bool,
    telemetry: &Telemetry,
) -> RunOutcome {
    set_up(workload, config, shards, traced).run(telemetry)
}

/// A pipeline run whose setup layers have finished and whose engine call
/// has not started.
pub struct SetUp {
    spans: Spans,
    prepared: Prepared,
    scheme: Option<Box<dyn RoutingScheme>>,
    /// Host seconds the setup layers took.
    pub setup_s: f64,
}

/// Runs the setup layers of `workload`'s pipeline on the inputs `config`
/// generates: everything before the engine call.
pub fn set_up(
    workload: &Workload,
    config: &ExperimentConfig,
    shards: usize,
    traced: bool,
) -> SetUp {
    let mut spans = Spans {
        t0: Instant::now(),
        enabled: traced,
        spans: Vec::new(),
    };
    let network = spans.time("topology.build", || config.network());
    let trace = spans.time("workload.trace", || config.trace(&network));
    // Every layer is entered on every workload. A layer the workload does
    // not use returns `None`, and its span times only that decision.
    let is_lp = workload.scheme == SchemeChoice::SpiderLp;
    let demand = spans.time("workload.demand", || {
        is_lp.then(|| demand_matrix(&trace, 0.0, config.duration))
    });
    let candidates = spans.time("paths.enumerate", || {
        demand.map(|demand| lp_candidate_paths(&network, &demand))
    });
    let lp = spans.time("opt.solve", || {
        candidates.map(|(paths, kept)| {
            let sol = primal_dual::solve(&network, &kept, &paths, LP_DELTA, &lp_solver_config());
            LpPlan {
                paths,
                flows: sol.path_flows,
                pairs: kept.len(),
                iterations: sol.iterations,
                converged: sol.converged,
                objective: sol.throughput,
            }
        })
    });
    let mut prepared = Prepared {
        config: config.clone(),
        choice: workload.scheme,
        network,
        trace,
        lp,
        sharded: None,
    };
    // The routing layer builds the sequential engine's scheme object, or
    // the sharded engine's scheme, fee schedule and feature settings.
    let (scheme, sharded) = spans.time("routing.build", || match workload.engine {
        Engine::Sequential => (Some(prepared.scheme()), None),
        Engine::Sharded(features) => {
            let mut cfg = config.sharded_config(ShardScheme::Waterfilling);
            features.apply(&mut cfg, &prepared.network);
            (None, Some(cfg))
        }
    });
    let partition = spans.time("topology.partition", || {
        sharded.is_some().then(|| {
            if shards <= 1 {
                Partition::single(&prepared.network)
            } else {
                Partition::build(&prepared.network, shards, config.seed)
            }
        })
    });
    prepared.sharded = sharded.zip(partition);
    let setup_s = spans.t0.elapsed().as_secs_f64();
    SetUp {
        spans,
        prepared,
        scheme,
        setup_s,
    }
}

impl SetUp {
    /// Runs the engine on the prepared inputs.
    pub fn run(self, telemetry: &Telemetry) -> RunOutcome {
        let SetUp {
            mut spans,
            prepared,
            mut scheme,
            setup_s,
        } = self;
        let report = spans.time("sim.run", || match scheme.as_mut() {
            Some(scheme) => prepared.simulate_with(scheme.as_mut(), telemetry, false),
            None => prepared.simulate(telemetry, false, false),
        });
        let wall_s = spans.t0.elapsed().as_secs_f64();
        RunOutcome {
            wall_s,
            setup_s,
            engine_s: wall_s - setup_s,
            spans: spans.spans,
            report,
            prepared,
        }
    }
}
