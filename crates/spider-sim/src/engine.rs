//! The discrete-event simulation engine (§6.1).
//!
//! Mirrors the paper's simulator semantics:
//!
//! - transactions arrive over time and are routed by a pluggable
//!   [`RoutingScheme`];
//! - routed value is locked along its path and settles `Δ = 0.5 s` later
//!   (funds are unavailable to everyone in between);
//! - atomic schemes deliver a payment entirely at arrival or fail it;
//! - packet-switched schemes split payments into MTU-bounded transaction
//!   units; incomplete payments sit in a global queue that is polled
//!   periodically and serviced in scheduling-policy order (SRPT by
//!   default);
//! - payments that miss their deadline are abandoned — value already
//!   settled stays delivered (non-atomic transport), but the payment does
//!   not count as a success.
//!
//! The engine is single-threaded and completely deterministic: identical
//! inputs produce identical runs.

use crate::audit::{record_release, AuditViolation, LedgerAudit};
use crate::congestion::{CongestionConfig, CongestionControl};
use crate::faults::{
    Blacklist, FaultEvent, FaultPlan, FaultState, FaultStateSnapshot, FaultView, RetryPolicy,
    UnitFate,
};
use crate::ledger::LedgerView;
use crate::metrics::{running_metrics, sample_network, SimReport};
use crate::payment::{tokens, PaymentState, PaymentStatus};
use crate::rebalancer::{RebalancePolicy, RebalanceStats};
use crate::scheduler::SchedulePolicy;
use crate::snapshot::{
    self, corrupt, CheckpointSpec, Codec, EventCore, Fingerprint, SnapshotError,
};
use spider_core::{crc32, Amount, BinError, ChannelId, Dec, Enc, Network, NodeId, Path};
use spider_routing::{fees::FeeSchedule, RoutingScheme, SchemeKind, UnitDecision};
use spider_telemetry::{Phase, Telemetry, TraceEvent};
use spider_workload::Transaction;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Hard end of the measurement window (seconds); events after this are
    /// not processed.
    pub end_time: f64,
    /// Settlement delay Δ (seconds); the paper uses 0.5.
    pub delta: f64,
    /// Maximum transaction unit for packet-switched schemes.
    pub mtu: Amount,
    /// Scheduler poll interval (seconds).
    pub poll_interval: f64,
    /// Per-payment deadline window (seconds after arrival).
    pub deadline: f64,
    /// Service order for pending payments.
    pub policy: SchedulePolicy,
    /// Record a `(time, success_ratio, success_volume)` sample at every
    /// poll tick.
    pub record_series: bool,
    /// Optional on-chain rebalancing by routers (§5.2.3 / §7 extension).
    pub rebalance: Option<RebalancePolicy>,
    /// Optional AIMD congestion control at end hosts (§4.1 extension).
    pub congestion: Option<CongestionConfig>,
    /// Atomic Multi-Path mode (§4.1, AMP \[1\]): packet-switched payments
    /// become all-or-nothing — the receiver cannot unlock any unit until
    /// every unit has arrived, so settlement is deferred until the full
    /// amount is in flight at the receiver, and everything is refunded if
    /// the deadline passes first.
    pub amp: bool,
    /// Optional routing fees (§2/§7 extension, packet-switched schemes):
    /// senders pay each relay's base + proportional fee on every unit.
    pub fees: Option<FeeSchedule>,
    /// Audit the ledger after every balance-mutating event: per-channel
    /// non-negativity and exact global conservation of funds, reported as
    /// [`SimReport::audit_violations`](crate::SimReport).
    pub audit: bool,
    /// Optional deterministic fault injection: channel outages, node churn,
    /// unit drops, settlement jitter, and HTLC griefing, plus the sender
    /// retry policy carried in the plan's [`FaultConfig`](crate::faults::FaultConfig).
    pub faults: Option<FaultPlan>,
    /// Telemetry handle. Disabled by default; when enabled the engine
    /// records payment-lifecycle trace events, a completion-delay histogram,
    /// and periodic channel samples (piggybacked on scheduler ticks so the
    /// event sequence — and therefore determinism — is unchanged).
    pub telemetry: Telemetry,
}

impl SimConfig {
    /// The paper's defaults with the given measurement window.
    pub fn new(end_time: f64) -> Self {
        SimConfig {
            end_time,
            delta: 0.5,
            mtu: Amount::from_whole(10),
            poll_interval: 0.1,
            deadline: 5.0,
            policy: SchedulePolicy::Srpt,
            record_series: false,
            rebalance: None,
            congestion: None,
            amp: false,
            fees: None,
            audit: false,
            faults: None,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// How a unit was marked to fail in flight, with the blamed channel.
#[derive(Clone, Copy, Debug)]
enum UnitFault {
    /// Dropped mid-path by the per-unit loss process.
    Dropped(ChannelId),
    /// HTLC griefed at the blamed hop: funds pinned until the hold expires.
    Griefed(ChannelId),
}

/// One in-flight (or finished) transaction unit. Units live in a slab so
/// fault events can find and refund them by scanning paths; `resolved`
/// guards against double release when a refund races a scheduled settle.
struct UnitRecord {
    payment: usize,
    path: std::sync::Arc<Path>,
    amount: Amount,
    /// Per-hop locked amounts when fees apply (upstream hops carry the
    /// delivered amount plus downstream fees); `None` = uniform.
    hop_amounts: Option<Vec<Amount>>,
    fault: Option<UnitFault>,
    resolved: bool,
}

/// What a payment timer means when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum TimerKind {
    /// The payment's deadline passed: abandon it if still pending.
    Deadline,
    /// A retry backoff expired: pump the payment again.
    Retry,
}

/// Min-heap entry for deadline and retry timers, keyed
/// `(time, payment, kind)` so expiry processing is deterministic. Replaces
/// the former O(n)-per-tick scan over all pending payments.
#[derive(Debug)]
struct Timer {
    time: f64,
    payment: usize,
    kind: TimerKind,
}

impl PartialEq for Timer {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Timer {}
impl PartialOrd for Timer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Timer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Times are finite simulation instants, so total_cmp is a total
        // order consistent with numeric comparison.
        self.time
            .total_cmp(&other.time)
            .then(self.payment.cmp(&other.payment))
            .then(self.kind.cmp(&other.kind))
    }
}

/// Live fault-injection state: the channel/node mask, the sender blacklist,
/// and per-payment retry accounting (vectors grow with arrivals).
struct FaultRuntime {
    state: FaultState,
    blacklist: Blacklist,
    retry: Option<RetryPolicy>,
    fail_count: Vec<u32>,
    not_before: Vec<f64>,
}

impl FaultRuntime {
    fn new(plan: &FaultPlan, network: &Network) -> Self {
        FaultRuntime {
            state: FaultState::new(plan, network),
            blacklist: Blacklist::new(network.num_channels()),
            retry: plan.config.retry.clone(),
            fail_count: Vec::new(),
            not_before: Vec::new(),
        }
    }
}

/// The engine's whole mutable run state: the event loop mutates it and a
/// checkpoint encodes it, field for field, as the `SEC_CORE` section.
struct SeqState {
    /// Ticks, ledger, event queue, payments, pending, and telemetry
    /// samples — the part the router-queue engine shares.
    core: EventCore<Event>,
    faults: Option<FaultRuntime>,
    /// Channels with a submitted, not-yet-confirmed rebalance.
    rebalance_pending: Vec<bool>,
    rebalance_stats: RebalanceStats,
    congestion: Option<CongestionControl>,
    /// The unit slab: every sent unit, live or finished. Fault events scan
    /// it for unresolved units whose paths cross a newly-down channel.
    units: Vec<UnitRecord>,
    /// Deadline and retry timers.
    timers: BinaryHeap<Reverse<Timer>>,
    /// AMP: unit indices that reached the receiver but whose keys are
    /// withheld until the whole payment has arrived. Indexed by payment
    /// slot, grown on demand.
    amp_held: Vec<Vec<usize>>,
    routing_fees_paid: Amount,
    /// Refused over-releases (double settle/refund), surfaced in the report
    /// even when periodic auditing is off.
    release_violations: Vec<AuditViolation>,
    units_sent: u64,
    series: Vec<(f64, f64, f64)>,
    audit: Option<LedgerAudit>,
}

enum Event {
    Arrival(usize),
    /// A unit reaches the end of its path and settles (index into the unit
    /// slab; skipped if the unit was already refunded by a fault).
    Settle {
        unit: usize,
    },
    /// A dropped or griefed unit's failure becomes visible to the sender
    /// and its locked funds are refunded.
    FaultExpire {
        unit: usize,
    },
    /// A scheduled fault transition from the [`FaultPlan`].
    Fault(FaultEvent),
    Tick,
    /// Routers inspect channel skew (cadence: `RebalancePolicy::check_interval`).
    RebalanceCheck,
    /// A submitted on-chain rebalancing transaction confirms.
    RebalanceApply {
        channel: spider_core::ChannelId,
    },
}

/// Runs one simulation of `transactions` over `network` with `scheme`.
///
/// Transactions must be sorted by arrival time; arrivals after
/// `config.end_time` are ignored.
pub fn run(
    network: &Network,
    transactions: &[Transaction],
    scheme: &mut dyn RoutingScheme,
    config: &SimConfig,
) -> SimReport {
    match run_inner(network, transactions, scheme, config, None, None) {
        Ok(report) => report,
        // No checkpoint spec and no resume state: no snapshot I/O happens,
        // so no snapshot error can arise.
        // spider-lint: allow(panic-reachability) — infallible wrapper; the Err arm is statically dead
        Err(e) => unreachable!("plain run cannot fail with a snapshot error: {e}"),
    }
}

/// Runs the simulation, writing a crash-safe snapshot into `ckpt.dir` every
/// `ckpt.every` scheduler ticks.
pub fn run_checkpointed(
    network: &Network,
    transactions: &[Transaction],
    scheme: &mut dyn RoutingScheme,
    config: &SimConfig,
    ckpt: &CheckpointSpec,
) -> Result<SimReport, SnapshotError> {
    run_inner(network, transactions, scheme, config, None, Some(ckpt))
}

/// Resumes a run from a snapshot file written by [`run_checkpointed`] and
/// carries it to completion, optionally continuing to checkpoint.
///
/// The snapshot must come from the same inputs (network, transactions,
/// scheme, config) — a recorded fingerprint guards against mixups — and the
/// completed run's report and telemetry are byte-identical to an
/// uninterrupted run.
pub fn resume(
    network: &Network,
    transactions: &[Transaction],
    scheme: &mut dyn RoutingScheme,
    config: &SimConfig,
    snapshot_path: &std::path::Path,
    ckpt: Option<&CheckpointSpec>,
) -> Result<SimReport, SnapshotError> {
    let fp = fingerprint(network, transactions, config, scheme.name());
    let state = snapshot::resume_snapshot(
        snapshot_path,
        snapshot::ENGINE_SEQ,
        fp,
        &config.telemetry,
        |snap| {
            let state = SeqState::decode(
                snap.section(snapshot::SEC_CORE)?,
                network,
                transactions,
                config,
            )?;
            scheme
                .restore_state(network, snap.section(snapshot::SEC_SCHEME)?)
                .map_err(|e| SnapshotError::Unsupported {
                    what: format!("scheme state restore: {e}"),
                })?;
            Ok(state)
        },
    )?;
    run_inner(network, transactions, scheme, config, Some(state), ckpt)
}

/// The run's fixed inputs, shared by every handler.
struct Env<'a> {
    network: &'a Network,
    transactions: &'a [Transaction],
    config: &'a SimConfig,
    tel: &'a Telemetry,
    /// Packet-switched schemes send units and service a pending queue;
    /// atomic ones deliver each payment whole at arrival or fail it.
    packet_switched: bool,
    ckpt: Option<&'a CheckpointSpec>,
    /// Input fingerprint stamped on snapshots (0 when not checkpointing).
    fp: u32,
}

/// The event loop: pops events in `(time, sequence)` order and dispatches
/// each to its handler until the measurement window closes.
fn run_inner(
    network: &Network,
    transactions: &[Transaction],
    scheme: &mut dyn RoutingScheme,
    config: &SimConfig,
    resume: Option<SeqState>,
    ckpt: Option<&CheckpointSpec>,
) -> Result<SimReport, SnapshotError> {
    assert!(config.delta > 0.0 && config.poll_interval > 0.0 && config.deadline > 0.0);
    assert!(config.mtu.is_positive(), "MTU must be positive");
    if let Some(policy) = &config.rebalance {
        policy.validate();
    }
    let env = Env {
        network,
        transactions,
        config,
        tel: &config.telemetry,
        packet_switched: scheme.kind() == SchemeKind::PacketSwitched,
        ckpt,
        fp: if ckpt.is_some() {
            fingerprint(network, transactions, config, scheme.name())
        } else {
            0
        },
    };
    // A resumed run restores the event queue (arrivals not yet processed,
    // the next tick, pending fault transitions, ...) wholesale from the
    // snapshot, so the initial pushes happen only in a fresh state.
    let mut st = resume.unwrap_or_else(|| SeqState::new(network, transactions, config));
    while let Some((now, event)) = st.core.queue.pop() {
        if now > config.end_time {
            break;
        }
        match event {
            Event::Arrival(i) => st.on_arrival(&env, scheme, now, i),
            Event::Settle { unit } => st.on_settle(&env, now, unit),
            Event::FaultExpire { unit } => st.on_fault_expire(&env, now, unit),
            Event::Fault(ev) => st.on_fault(&env, now, &ev),
            Event::Tick => st.on_tick(&env, scheme, now)?,
            Event::RebalanceCheck => st.on_rebalance_check(&env, now),
            Event::RebalanceApply { channel } => st.on_rebalance_apply(&env, now, channel),
        }
    }
    Ok(st.finish(&env, scheme))
}

impl SeqState {
    /// A payment arrives: a packet-switched one joins the pending queue
    /// with a deadline timer and sends what it can now; an atomic one is
    /// delivered whole or fails.
    fn on_arrival(&mut self, env: &Env, scheme: &mut dyn RoutingScheme, now: f64, i: usize) {
        let tel = env.tel;
        let _span = tel.span_enter(Phase::RoutingDecision);
        tel.span_sim(Phase::RoutingDecision, now);
        tel.span_items(Phase::RoutingDecision, 1);
        let config = env.config;
        let idx = self.core.payments.len();
        self.core.payments.push(PaymentState::arrive(
            &env.transactions[i],
            config.deadline,
            env.packet_switched.then_some(config.mtu),
            now,
            tel,
        ));
        if let Some(fr) = self.faults.as_mut() {
            fr.fail_count.push(0);
            fr.not_before.push(f64::NEG_INFINITY);
        }
        if env.packet_switched {
            self.core.pending.push(idx);
            self.timers.push(Reverse(Timer {
                time: self.core.payments[idx].deadline,
                payment: idx,
                kind: TimerKind::Deadline,
            }));
            self.pump(env, scheme, idx, now);
        } else {
            self.attempt_atomic(env, scheme, idx, now);
        }
    }

    /// A unit reaches the end of its path and settles — under AMP the
    /// receiver holds it until the whole payment has arrived.
    fn on_settle(&mut self, env: &Env, now: f64, unit: usize) {
        // A fault may have refunded this unit while its settle was already
        // scheduled.
        if self.units[unit].resolved {
            return;
        }
        let tel = env.tel;
        let _span = tel.span_enter(Phase::SettleRefund);
        tel.span_sim(Phase::SettleRefund, now);
        tel.span_items(Phase::SettleRefund, 1);
        let payment = self.units[unit].payment;
        if let Some(cc) = self.congestion.as_mut() {
            if env.packet_switched {
                let p = &self.core.payments[payment];
                cc.on_settle(p.src, p.dst);
            }
        }
        if env.config.amp && env.packet_switched {
            if self.core.payments[payment].status == PaymentStatus::Abandoned {
                // Deadline already passed: the sender withholds the key, so
                // this late unit bounces straight back.
                self.refund_unit(env, unit, now, "amp-bounce");
                self.check_audit(now, "amp-bounce");
                return;
            }
            self.amp_hold(env, payment, unit, now);
        } else if let Some(amount) = self.release(env.network, unit, true, now, "settle") {
            self.core.payments[payment].settle(amount, now, tel);
        }
        self.check_audit(now, "settle");
    }

    /// AMP: the receiver holds `unit` and withholds every key until the
    /// whole payment has arrived, then settles all held units at once.
    fn amp_hold(&mut self, env: &Env, payment: usize, unit: usize, now: f64) {
        if payment >= self.amp_held.len() {
            self.amp_held.resize_with(payment + 1, Vec::new);
        }
        self.amp_held[payment].push(unit);
        let units = &self.units;
        let arrived: Amount = self.amp_held[payment]
            .iter()
            .filter(|&&ui| !units[ui].resolved)
            .map(|&ui| units[ui].amount)
            .sum();
        let p = &self.core.payments[payment];
        if arrived < p.amount || p.status != PaymentStatus::Pending {
            return;
        }
        for ui in std::mem::take(&mut self.amp_held[payment]) {
            if self.units[ui].resolved {
                continue;
            }
            if let Some(amount) = self.release(env.network, ui, true, now, "settle") {
                self.core.payments[payment].settle(amount, now, env.tel);
            }
        }
    }

    /// A dropped or griefed unit's failure becomes visible to the sender:
    /// its locked funds are refunded and the sender reacts.
    fn on_fault_expire(&mut self, env: &Env, now: f64, unit: usize) {
        if self.units[unit].resolved {
            return;
        }
        let tel = env.tel;
        let _span = tel.span_enter(Phase::FaultProcessing);
        tel.span_sim(Phase::FaultProcessing, now);
        tel.span_items(Phase::FaultProcessing, 1);
        let payment = self.units[unit].payment;
        let Some(fault) = self.units[unit].fault else {
            // FaultExpire events are only scheduled for units created with
            // a fate; a fateless unit has nothing to expire.
            return;
        };
        if let Some(amount) = self.release(env.network, unit, false, now, "fault-expire") {
            let pid = self.core.payments[payment].id.0;
            let blamed = match fault {
                UnitFault::Dropped(c) => {
                    tel.emit(|| TraceEvent::UnitDropped {
                        t: now,
                        payment: pid,
                        amount: tokens(amount),
                        channel: c.index() as u32,
                    });
                    c
                }
                UnitFault::Griefed(c) => {
                    let hold = env
                        .config
                        .faults
                        .as_ref()
                        .map_or(0.0, |plan| plan.config.grief_hold);
                    tel.emit(|| TraceEvent::UnitGriefed {
                        t: now,
                        payment: pid,
                        amount: tokens(amount),
                        hold,
                    });
                    c
                }
            };
            self.core.payments[payment].refund(amount, now, tel);
            self.unit_failed(env, payment, blamed, now);
        }
        self.check_audit(now, "fault-expire");
    }

    /// A scheduled fault transition from the [`FaultPlan`]: refund every
    /// in-flight unit whose path crosses a channel that just went down.
    fn on_fault(&mut self, env: &Env, now: f64, ev: &FaultEvent) {
        let tel = env.tel;
        let _span = tel.span_enter(Phase::FaultProcessing);
        tel.span_sim(Phase::FaultProcessing, now);
        tel.span_items(Phase::FaultProcessing, 1);
        let Some(fr) = self.faults.as_mut() else {
            // Fault events are only scheduled when a plan is installed.
            return;
        };
        tel.emit(|| ev.trace_event(now));
        let newly = fr.state.apply(env.network, ev);
        if newly.is_empty() {
            return;
        }
        // A unit crossing a downed channel can no longer complete its HTLC,
        // so its locked funds bounce back hop by hop.
        for ui in 0..self.units.len() {
            let unit = &self.units[ui];
            if unit.resolved {
                continue;
            }
            let blamed = unit
                .path
                .hops()
                .iter()
                .map(|&(c, _)| c)
                .find(|c| newly.contains(c));
            let Some(blamed) = blamed else { continue };
            let Some(pidx) = self.refund_unit(env, ui, now, "fault") else {
                continue;
            };
            if let Some(fr) = self.faults.as_mut() {
                fr.state.stats.units_refunded_by_outage += 1;
            }
            self.unit_failed(env, pidx, blamed, now);
        }
        self.check_audit(now, "fault");
    }

    /// A scheduler tick: fire due deadline and retry timers, pump every
    /// pending payment in policy order, sample, and checkpoint on cadence.
    fn on_tick(
        &mut self,
        env: &Env,
        scheme: &mut dyn RoutingScheme,
        now: f64,
    ) -> Result<(), SnapshotError> {
        let tel = env.tel;
        let _span = tel.span_enter(Phase::QueueDrain);
        tel.span_sim(Phase::QueueDrain, now);
        tel.counter_add("sim.scheduler.polls", 1);
        // Expire deadlines and fire retry timers, in (time, payment) order
        // off the shared min-heap — O(log n) per expiry instead of a scan
        // over every pending payment per tick.
        while self.timers.peek().is_some_and(|Reverse(t)| t.time <= now) {
            let Some(Reverse(timer)) = self.timers.pop() else {
                break;
            };
            let i = timer.payment;
            if self.core.payments[i].status != PaymentStatus::Pending {
                continue;
            }
            match timer.kind {
                TimerKind::Deadline => self.on_deadline(env, i, now),
                // Backoff expired: give the payment first shot at liquidity
                // before the policy-ordered pump.
                TimerKind::Retry => self.pump(env, scheme, i, now),
            }
        }
        self.core.retain_pending();
        if env.packet_switched {
            env.config
                .policy
                .order(&self.core.payments, &mut self.core.pending);
            for i in self.core.pending.clone() {
                if self.core.payments[i].status == PaymentStatus::Pending {
                    self.pump(env, scheme, i, now);
                }
            }
            self.core.retain_pending();
        }
        if env.config.record_series {
            let (ratio, volume) = running_metrics(&self.core.payments);
            self.series.push((now, ratio, volume));
        }
        sample_network(&mut self.core, env.network, now, tel, &|_| 0);
        let next = now + env.config.poll_interval;
        if next <= env.config.end_time {
            self.core.queue.push(next, Event::Tick);
        }
        // Checkpoint between events: the tick (including the next-tick push
        // above) has fully completed, so the captured state is exactly what
        // an uninterrupted run holds here.
        self.core.ticks += 1;
        if let Some(ck) = env.ckpt {
            if self.core.ticks.is_multiple_of(ck.every) {
                snapshot::write_event_snapshot(
                    ck,
                    snapshot::ENGINE_SEQ,
                    env.fp,
                    self.core.ticks,
                    self.encode(),
                    Some(scheme.checkpoint_state().unwrap_or_default()),
                    tel,
                )?;
            }
        }
        Ok(())
    }

    /// A pending payment's deadline passed: abandon it. Under AMP the
    /// sender withholds the key, so everything the receiver was holding is
    /// refunded.
    fn on_deadline(&mut self, env: &Env, i: usize, now: f64) {
        self.core.payments[i].abandon(now, env.tel);
        let Some(held) = self.amp_held.get_mut(i).map(std::mem::take) else {
            return;
        };
        for ui in held {
            if !self.units[ui].resolved {
                self.refund_unit(env, ui, now, "deadline-refund");
            }
        }
        self.check_audit(now, "deadline-refund");
    }

    /// Routers inspect channel skew and submit on-chain corrections.
    fn on_rebalance_check(&mut self, env: &Env, now: f64) {
        let Some(policy) = env.config.rebalance.as_ref() else {
            // RebalanceCheck events are only seeded under a policy.
            return;
        };
        for ch in env.network.channels() {
            if self.rebalance_pending[ch.id.index()] {
                continue;
            }
            let (a, b) = self.core.ledger.balances(ch.id);
            if policy.correction(a, b).is_some() {
                self.rebalance_pending[ch.id.index()] = true;
                self.core.queue.push(
                    now + policy.confirmation_delay,
                    Event::RebalanceApply { channel: ch.id },
                );
            }
        }
        let next = now + policy.check_interval;
        if next <= env.config.end_time {
            self.core.queue.push(next, Event::RebalanceCheck);
        }
    }

    /// A submitted on-chain rebalancing transaction confirms.
    fn on_rebalance_apply(&mut self, env: &Env, now: f64, channel: ChannelId) {
        let Some(policy) = env.config.rebalance.as_ref() else {
            // RebalanceApply events descend from RebalanceCheck, which
            // requires a policy.
            return;
        };
        self.rebalance_pending[channel.index()] = false;
        // Re-evaluate at confirmation time: traffic in the interim may have
        // (partially) healed the skew.
        let (a, b) = self.core.ledger.balances(channel);
        let Some(amount) = policy.correction(a, b) else {
            return;
        };
        let network = env.network;
        let ch = network.channel(channel);
        let (rich, poor) = if a >= b { (ch.a, ch.b) } else { (ch.b, ch.a) };
        let ledger = &mut self.core.ledger;
        let taken = ledger.withdraw(network, channel, rich, amount);
        let redeposit = taken.saturating_sub(policy.fee).max(Amount::ZERO);
        if let Err(e) = ledger.deposit(network, channel, poor, redeposit) {
            // Redepositing funds just withdrawn from this same channel
            // cannot overflow its capacity; count and skip rather than
            // corrupt the ledger if it does.
            debug_assert!(false, "rebalance redeposit refused: {e}");
            env.tel.counter_add("sim.rebalance.deposit_failed", 1);
            return;
        }
        let fee_paid = taken.saturating_sub(redeposit);
        let stats = &mut self.rebalance_stats;
        stats.transactions += 1;
        stats.moved_volume += tokens(taken);
        stats.fees_paid += tokens(fee_paid);
        env.tel.emit(|| TraceEvent::RebalanceApplied {
            t: now,
            channel: channel.index() as u32,
            moved: tokens(taken),
            fee: tokens(fee_paid),
        });
        if let Some(a) = self.audit.as_mut() {
            a.on_withdraw(taken);
            a.on_deposit(redeposit);
            a.check(&self.core.ledger, now, "rebalance");
        }
    }

    /// Closes the run: the final audit, the scheme's counters, and the
    /// report.
    fn finish(mut self, env: &Env, scheme: &dyn RoutingScheme) -> SimReport {
        debug_assert!(
            self.core.ledger.conserves_all(),
            "the ledger must conserve funds"
        );
        self.check_audit(env.config.end_time, "final");
        for (name, value) in scheme.telemetry_stats() {
            env.tel.counter_add(name, value);
        }
        let audit_checks = self.audit.as_ref().map_or(0, LedgerAudit::checks);
        let mut audit_violations = self
            .audit
            .map_or_else(Vec::new, LedgerAudit::into_violations);
        audit_violations.extend(self.release_violations);
        let policy = if env.packet_switched {
            env.config.policy.name()
        } else {
            "atomic"
        };
        SimReport {
            rebalance: self.rebalance_stats,
            routing_fees_paid: tokens(self.routing_fees_paid),
            series: self.series,
            audit_checks,
            audit_violations,
            faults: self.faults.map(|fr| fr.state.stats),
            ..SimReport::from_run(
                scheme.name().to_string(),
                policy.to_string(),
                self.core,
                self.units_sent,
                env.tel,
            )
        }
    }

    /// Checks the ledger after a balance-mutating `event`, when auditing.
    fn check_audit(&mut self, now: f64, event: &str) {
        if let Some(a) = self.audit.as_mut() {
            a.check(&self.core.ledger, now, event);
        }
    }

    /// Releases unit `ui`'s locks — settling them at the receiver (the
    /// sender pays the unit's fees) or refunding them to the sender — and
    /// marks it resolved. Returns the unit's amount, or records a refused
    /// over-release under `event` and returns `None`.
    fn release(
        &mut self,
        network: &Network,
        ui: usize,
        settle: bool,
        now: f64,
        event: &str,
    ) -> Option<Amount> {
        let u = &mut self.units[ui];
        u.resolved = true;
        let ledger = &mut self.core.ledger;
        let released = match (&u.hop_amounts, settle) {
            (Some(amounts), true) => ledger
                .settle_path_amounts(network, &u.path, amounts)
                .map(|()| amounts[0].saturating_sub(u.amount)),
            (None, true) => ledger
                .settle_path(network, &u.path, u.amount)
                .map(|()| Amount::ZERO),
            (Some(amounts), false) => ledger
                .refund_path_amounts(network, &u.path, amounts)
                .map(|()| Amount::ZERO),
            (None, false) => ledger
                .refund_path(network, &u.path, u.amount)
                .map(|()| Amount::ZERO),
        };
        match released {
            Ok(fee) => {
                self.routing_fees_paid = self.routing_fees_paid.saturating_add(fee);
                Some(u.amount)
            }
            Err(e) => {
                record_release(&mut self.release_violations, now, event, &e);
                None
            }
        }
    }

    /// Refunds unit `ui` to its sender; returns its payment slot when the
    /// refund went through.
    fn refund_unit(&mut self, env: &Env, ui: usize, now: f64, event: &str) -> Option<usize> {
        let amount = self.release(env.network, ui, false, now, event)?;
        let pidx = self.units[ui].payment;
        self.core.payments[pidx].refund(amount, now, env.tel);
        Some(pidx)
    }

    /// Sender-side reaction to one failed unit under fault injection:
    /// without a retry policy the payment is abandoned on its first fault
    /// failure; with one, the blamed channel is blacklisted, the payment
    /// backs off exponentially, and a retry timer is scheduled — until the
    /// per-payment attempt budget runs out.
    fn unit_failed(&mut self, env: &Env, pidx: usize, blamed: ChannelId, now: f64) {
        let Some(fr) = self.faults.as_mut() else {
            return;
        };
        let p = &mut self.core.payments[pidx];
        if p.status != PaymentStatus::Pending {
            return;
        }
        let tel = env.tel;
        let fail = |p: &mut PaymentState, fr: &mut FaultRuntime| {
            p.abandon(now, tel);
            fr.state.stats.payments_failed += 1;
        };
        let policy = match fr.retry.clone() {
            Some(policy) if env.packet_switched => policy,
            // Atomic senders have no unit-level retry machinery: the
            // payment's all-or-nothing guarantee is already broken, so it
            // fails outright — as does any payment with retries disabled.
            _ => return fail(p, fr),
        };
        let until = now + policy.blacklist_duration;
        fr.blacklist.block(blamed, until);
        fr.state.stats.blacklistings += 1;
        tel.emit(|| TraceEvent::ChannelBlacklisted {
            t: now,
            channel: blamed.index() as u32,
            until,
        });
        fr.fail_count[pidx] += 1;
        let fails = fr.fail_count[pidx];
        if fails > policy.max_attempts {
            return fail(p, fr);
        }
        let backoff = policy.backoff_base * policy.backoff_mult.powi(fails as i32 - 1);
        fr.not_before[pidx] = fr.not_before[pidx].max(now + backoff);
        self.timers.push(Reverse(Timer {
            time: now + backoff,
            payment: pidx,
            kind: TimerKind::Retry,
        }));
        fr.state.stats.retries += 1;
        tel.emit(|| TraceEvent::PaymentRetry {
            t: now,
            payment: p.id.0,
            attempt: fails,
            backoff,
        });
    }

    /// Sends as many transaction units of one pending payment as the scheme
    /// and balances allow right now. Under fault injection the scheme
    /// routes against a masked view (downed + blacklisted channels read as
    /// empty), a retry backoff gates the whole pump, and each sent unit
    /// draws its fate (deliver / drop / grief) from the seeded fault stream.
    fn pump(&mut self, env: &Env, scheme: &mut dyn RoutingScheme, idx: usize, now: f64) {
        let SeqState {
            core,
            units,
            units_sent,
            congestion,
            faults,
            ..
        } = self;
        if faults.as_ref().is_some_and(|fr| now < fr.not_before[idx]) {
            // Backing off after a fault failure.
            return;
        }
        let (network, config, tel) = (env.network, env.config, env.tel);
        let _span = tel.span_enter(Phase::UnitDispatch);
        tel.span_sim(Phase::UnitDispatch, now);
        let p = &mut core.payments[idx];
        loop {
            let remaining = p.remaining();
            if !remaining.is_positive() {
                break;
            }
            if let Some(cc) = congestion.as_mut() {
                if !cc.may_send(p.src, p.dst) {
                    tel.counter_add("sim.congestion.blocked", 1);
                    break;
                }
            }
            let amount = remaining.min(config.mtu);
            let view = LedgerView {
                network,
                ledger: &core.ledger,
            };
            let decision = match faults.as_ref() {
                Some(fr) => {
                    let masked = FaultView {
                        inner: &view,
                        faults: &fr.state,
                        blacklist: &fr.blacklist,
                        now,
                    };
                    scheme.route_unit(network, &masked, p.src, p.dst, amount)
                }
                None => scheme.route_unit(network, &view, p.src, p.dst, amount),
            };
            let path = match decision {
                UnitDecision::Route(path) => path,
                UnitDecision::Unavailable => {
                    if let Some(cc) = congestion.as_mut() {
                        cc.on_unavailable(p.src, p.dst);
                    }
                    break;
                }
                UnitDecision::Never => {
                    // Under fault injection "no path" may just mean every
                    // route is currently masked out; keep the payment alive
                    // so it can retry once channels recover or the
                    // blacklist expires.
                    if faults.is_none() {
                        p.abandon(now, tel);
                    }
                    break;
                }
            };
            // Defensive re-check: a scheme with cached paths may ignore the
            // masked view; never lock across a dead or blacklisted channel.
            if let Some(fr) = faults.as_ref() {
                if fr.state.path_blocked(&path) || fr.blacklist.path_blocked(&path, now) {
                    break;
                }
            }
            // With fees, upstream hops carry the delivered amount plus
            // downstream fees; without, every hop carries the unit.
            let hop_amounts: Option<Vec<Amount>> = match &config.fees {
                Some(f) if !f.is_free() => Some(f.path_amounts(&path, amount)),
                _ => None,
            };
            let locked = match &hop_amounts {
                Some(amounts) => core.ledger.lock_path_amounts(network, &path, amounts),
                None => core.ledger.lock_path(network, &path, amount),
            };
            if locked.is_err() {
                // Scheme raced its own view, or fees pushed a hop over its
                // balance; treat as temporarily unavailable.
                break;
            }
            if let Some(cc) = congestion.as_mut() {
                cc.on_send(p.src, p.dst);
            }
            p.send(amount, path.len(), now, tel);
            *units_sent += 1;
            tel.span_items(Phase::UnitDispatch, 1);
            let fate = match faults.as_mut() {
                Some(fr) => fr.state.unit_fate(&path),
                None => UnitFate::Deliver { jitter: 0.0 },
            };
            let (fault, fire_at) = match fate {
                UnitFate::Deliver { jitter } => (None, now + config.delta + jitter),
                UnitFate::Drop { at_frac, hop_index } => {
                    let blamed = path.hops()[hop_index.min(path.hops().len() - 1)].0;
                    (
                        Some(UnitFault::Dropped(blamed)),
                        now + at_frac * config.delta,
                    )
                }
                UnitFate::Grief { hold } => match path.hops().last() {
                    Some(&(blamed, _)) => {
                        (Some(UnitFault::Griefed(blamed)), now + config.delta + hold)
                    }
                    // An empty path has no hop to grief; fall back to a
                    // plain delivery.
                    None => (None, now + config.delta),
                },
            };
            let unit = units.len();
            units.push(UnitRecord {
                payment: idx,
                path,
                amount,
                hop_amounts,
                fault,
                resolved: false,
            });
            core.queue.push(
                fire_at,
                match fault {
                    Some(_) => Event::FaultExpire { unit },
                    None => Event::Settle { unit },
                },
            );
        }
    }

    /// Attempts an atomic payment at arrival; fails it permanently if the
    /// scheme cannot deliver the whole value now. Under fault injection the
    /// scheme routes against the masked view, so it never plans across
    /// downed channels.
    fn attempt_atomic(&mut self, env: &Env, scheme: &mut dyn RoutingScheme, idx: usize, now: f64) {
        let (network, tel) = (env.network, env.tel);
        let _span = tel.span_enter(Phase::UnitDispatch);
        tel.span_sim(Phase::UnitDispatch, now);
        let SeqState {
            core,
            units,
            units_sent,
            faults,
            release_violations,
            ..
        } = self;
        let p = &mut core.payments[idx];
        let view = LedgerView {
            network,
            ledger: &core.ledger,
        };
        let parts = match faults.as_ref() {
            Some(fr) => {
                let masked = FaultView {
                    inner: &view,
                    faults: &fr.state,
                    blacklist: &fr.blacklist,
                    now,
                };
                scheme.route_payment(network, &masked, p.src, p.dst, p.amount)
            }
            None => scheme.route_payment(network, &view, p.src, p.dst, p.amount),
        };
        let Some(parts) = parts else {
            p.abandon(now, tel);
            return;
        };
        // Lock all parts; roll back everything if any lock fails (the
        // schemes pre-check with an overlay, so this is a defensive path).
        let mut locked: Vec<(Path, Amount)> = Vec::with_capacity(parts.len());
        for (path, amount) in parts {
            if core.ledger.lock_path(network, &path, amount).is_err() {
                for (done_path, done_amount) in locked.drain(..) {
                    if let Err(e) = core.ledger.refund_path(network, &done_path, done_amount) {
                        record_release(release_violations, now, "atomic-rollback", &e);
                    }
                }
                p.abandon(now, tel);
                return;
            }
            locked.push((path, amount));
        }
        for (path, amount) in locked {
            p.send(amount, path.len(), now, tel);
            *units_sent += 1;
            let unit = units.len();
            units.push(UnitRecord {
                payment: idx,
                path: std::sync::Arc::new(path),
                amount,
                hop_amounts: None,
                fault: None,
                resolved: false,
            });
            core.queue
                .push(now + env.config.delta, Event::Settle { unit });
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpoint/resume: the fingerprint and this engine's `SEC_CORE` codec. The
// shared types encode through `snapshot::Codec`; the field order below is the
// SPSN v2 layout tabled in DESIGN.md.

/// CRC-32 over the simulation inputs and every config field that shapes the
/// run. A resume whose recomputed fingerprint differs from the snapshot's
/// is rejected before any state is applied.
fn fingerprint(
    network: &Network,
    transactions: &[Transaction],
    config: &SimConfig,
    scheme_name: &str,
) -> u32 {
    let mut e = Enc::new();
    snapshot::enc_inputs(&mut e, network, transactions);
    e.str(scheme_name);
    (config.end_time, config.delta, config.mtu).enc(&mut e);
    (config.poll_interval, config.deadline).enc(&mut e);
    e.str(config.policy.name());
    (config.record_series, config.amp, config.audit).enc(&mut e);
    config.rebalance.fingerprint(&mut e);
    config.congestion.fingerprint(&mut e);
    config.fees.fingerprint(&mut e);
    config.faults.fingerprint(&mut e);
    config.telemetry.fingerprint(&mut e);
    crc32(&e.into_bytes())
}

impl Codec for Event {
    fn enc(&self, e: &mut Enc) {
        match self {
            Event::Arrival(i) => (0u8, *i).enc(e),
            Event::Settle { unit } => (1u8, *unit).enc(e),
            Event::FaultExpire { unit } => (2u8, *unit).enc(e),
            Event::Fault(ev) => {
                e.u8(3);
                ev.enc(e);
            }
            Event::Tick => e.u8(4),
            Event::RebalanceCheck => e.u8(5),
            Event::RebalanceApply { channel } => (6u8, *channel).enc(e),
        }
    }
    fn dec(d: &mut Dec, net: &Network) -> Result<Self, BinError> {
        Ok(match d.u8()? {
            0 => Event::Arrival(d.usize()?),
            1 => Event::Settle { unit: d.usize()? },
            2 => Event::FaultExpire { unit: d.usize()? },
            3 => Event::Fault(FaultEvent::dec(d, net)?),
            4 => Event::Tick,
            5 => Event::RebalanceCheck,
            6 => Event::RebalanceApply {
                channel: ChannelId::dec(d, net)?,
            },
            other => return Err(snapshot::invalid(d, format!("event tag {other}"))),
        })
    }
}

impl Codec for UnitRecord {
    fn enc(&self, e: &mut Enc) {
        e.usize(self.payment);
        self.path.enc(e);
        self.amount.enc(e);
        self.hop_amounts.enc(e);
        match self.fault {
            None => e.u8(0),
            Some(UnitFault::Dropped(c)) => (1u8, c).enc(e),
            Some(UnitFault::Griefed(c)) => (2u8, c).enc(e),
        }
        e.bool(self.resolved);
    }
    fn dec(d: &mut Dec, net: &Network) -> Result<Self, BinError> {
        Ok(UnitRecord {
            payment: d.usize()?,
            path: Codec::dec(d, net)?,
            amount: Amount::dec(d, net)?,
            hop_amounts: Codec::dec(d, net)?,
            fault: match d.u8()? {
                0 => None,
                1 => Some(UnitFault::Dropped(ChannelId::dec(d, net)?)),
                2 => Some(UnitFault::Griefed(ChannelId::dec(d, net)?)),
                other => return Err(snapshot::invalid(d, format!("unit fault byte {other}"))),
            },
            resolved: d.bool()?,
        })
    }
}

impl Codec for Timer {
    fn enc(&self, e: &mut Enc) {
        let kind: u8 = match self.kind {
            TimerKind::Deadline => 0,
            TimerKind::Retry => 1,
        };
        (self.time, self.payment, kind).enc(e);
    }
    fn dec(d: &mut Dec, _: &Network) -> Result<Self, BinError> {
        Ok(Timer {
            time: d.f64()?,
            payment: d.usize()?,
            kind: match d.u8()? {
                0 => TimerKind::Deadline,
                1 => TimerKind::Retry,
                other => return Err(snapshot::invalid(d, format!("timer kind byte {other}"))),
            },
        })
    }
}

/// The fault runtime's capture: the fault subsystem's own snapshot plus the
/// per-channel blacklist expiry times and the per-payment failed-attempt
/// counts and retry-backoff deadlines.
type FaultCapture = (FaultStateSnapshot, Vec<f64>, Vec<u32>, Vec<f64>);

impl SeqState {
    /// A fresh run: every arrival, the first tick, the first rebalance check,
    /// and the fault plan's transitions are queued.
    fn new(network: &Network, transactions: &[Transaction], config: &SimConfig) -> Self {
        let mut core = EventCore::new(network, &config.telemetry);
        core.payments.reserve(transactions.len());
        for (i, tx) in transactions.iter().enumerate() {
            if tx.arrival <= config.end_time {
                core.queue.push(tx.arrival, Event::Arrival(i));
            }
        }
        core.queue.push(config.poll_interval, Event::Tick);
        if let Some(policy) = &config.rebalance {
            core.queue
                .push(policy.check_interval, Event::RebalanceCheck);
        }
        if let Some(plan) = &config.faults {
            for (t, ev) in &plan.events {
                if *t <= config.end_time {
                    core.queue.push(*t, Event::Fault(ev.clone()));
                }
            }
        }
        let audit = config.audit.then(|| LedgerAudit::new(&core.ledger));
        SeqState {
            core,
            faults: config
                .faults
                .as_ref()
                .map(|plan| FaultRuntime::new(plan, network)),
            rebalance_pending: vec![false; network.num_channels()],
            rebalance_stats: RebalanceStats::default(),
            congestion: config.congestion.map(CongestionControl::new),
            units: Vec::new(),
            timers: BinaryHeap::new(),
            amp_held: Vec::new(),
            routing_fees_paid: Amount::ZERO,
            release_violations: Vec::new(),
            units_sent: 0,
            series: Vec::new(),
            audit,
        }
    }

    /// The `SEC_CORE` section.
    fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        self.core.enc_prefix(&mut e);
        let faults: Option<FaultCapture> = self.faults.as_ref().map(|fr| {
            (
                fr.state.export_state(),
                fr.blacklist.slots().to_vec(),
                fr.fail_count.clone(),
                fr.not_before.clone(),
            )
        });
        faults.enc(&mut e);
        self.rebalance_pending.enc(&mut e);
        let rs = &self.rebalance_stats;
        (rs.transactions, rs.moved_volume, rs.fees_paid).enc(&mut e);
        self.congestion
            .as_ref()
            .map(CongestionControl::export_state)
            .enc(&mut e);
        self.units.enc(&mut e);
        // Timers in their deterministic `Ord` order — heap iteration order
        // is arbitrary, so sort the capture; re-pushing restores identical
        // pops.
        let mut timers: Vec<&Timer> = self.timers.iter().map(|Reverse(t)| t).collect();
        timers.sort();
        e.seq(&timers, |e, t| t.enc(e));
        self.amp_held.enc(&mut e);
        self.routing_fees_paid.enc(&mut e);
        snapshot::enc_json(&mut e, &self.release_violations);
        e.u64(self.units_sent);
        self.series.enc(&mut e);
        self.audit.enc(&mut e);
        self.core.enc_suffix(&mut e);
        e.into_bytes()
    }

    /// Decodes a `SEC_CORE` section written by [`encode`](Self::encode),
    /// cross-checking feature presence against `config` and range-checking
    /// every index it carries.
    fn decode(
        bytes: &[u8],
        network: &Network,
        transactions: &[Transaction],
        config: &SimConfig,
    ) -> Result<Self, SnapshotError> {
        let d = &mut Dec::new(bytes);
        let core = EventCore::dec_prefix(d, network)?;
        let captured: Option<FaultCapture> = Codec::dec(d, network)?;
        snapshot::check_presence("fault", captured.is_some(), config.faults.is_some())?;
        let faults = match (captured, &config.faults) {
            (Some((snap, slots, fail_count, not_before)), Some(plan)) => {
                let mut fr = FaultRuntime::new(plan, network);
                fr.state.restore_state(snap).map_err(corrupt)?;
                fr.blacklist.restore_slots(slots).map_err(corrupt)?;
                let n = core.payments.len();
                if fail_count.len() != n || not_before.len() != n {
                    return Err(corrupt(format!(
                        "retry state covers {} / {} payments of {n}",
                        fail_count.len(),
                        not_before.len()
                    )));
                }
                fr.fail_count = fail_count;
                fr.not_before = not_before;
                Some(fr)
            }
            _ => None,
        };
        let rebalance_pending: Vec<bool> = Codec::dec(d, network)?;
        if rebalance_pending.len() != network.num_channels() {
            return Err(corrupt(format!(
                "rebalance flags cover {} channels of {}",
                rebalance_pending.len(),
                network.num_channels()
            )));
        }
        let (transactions_done, moved_volume, fees_paid) = Codec::dec(d, network)?;
        let windows: Option<Vec<(NodeId, NodeId, f64, u32)>> = Codec::dec(d, network)?;
        snapshot::check_presence("congestion", windows.is_some(), config.congestion.is_some())?;
        let congestion = config.congestion.map(|cfg| {
            let mut cc = CongestionControl::new(cfg);
            cc.restore_state(windows.as_deref().unwrap_or_default());
            cc
        });
        let units: Vec<UnitRecord> = Codec::dec(d, network)?;
        let timers: Vec<Timer> = Codec::dec(d, network)?;
        let amp_held: Vec<Vec<usize>> = Codec::dec(d, network)?;
        let routing_fees_paid = Amount::dec(d, network)?;
        let release_violations = snapshot::dec_json(d)?;
        let units_sent = d.u64()?;
        let series = Codec::dec(d, network)?;
        let audit: Option<LedgerAudit> = Codec::dec(d, network)?;
        snapshot::check_presence("audit", audit.is_some(), config.audit)?;
        let mut st = SeqState {
            core,
            faults,
            rebalance_pending,
            rebalance_stats: RebalanceStats {
                transactions: transactions_done,
                moved_volume,
                fees_paid,
            },
            congestion,
            units,
            timers: timers.into_iter().map(Reverse).collect(),
            amp_held,
            routing_fees_paid,
            release_violations,
            units_sent,
            series,
            audit,
        };
        st.core.dec_suffix(d, network)?;
        d.expect_end()?;
        st.check_indices(transactions.len())?;
        Ok(st)
    }

    /// Range-checks the payment, unit, and transaction indices the decoded
    /// state carries, so a tampered snapshot fails here instead of
    /// panicking inside the event loop.
    fn check_indices(&self, num_transactions: usize) -> Result<(), SnapshotError> {
        let payments = self.core.payments.len();
        let units = self.units.len();
        for u in &self.units {
            snapshot::check_index("unit payment", u.payment, payments)?;
            if u.hop_amounts
                .as_ref()
                .is_some_and(|h| h.len() != u.path.len())
            {
                return Err(corrupt("unit hop amounts do not match its path"));
            }
        }
        for Reverse(t) in &self.timers {
            snapshot::check_index("timer payment", t.payment, payments)?;
        }
        for &ui in self.amp_held.iter().flatten() {
            snapshot::check_index("held unit", ui, units)?;
        }
        self.core.check_events(|ev| match ev {
            Event::Arrival(i) => snapshot::check_index("arrival", *i, num_transactions),
            Event::Settle { unit } | Event::FaultExpire { unit } => {
                snapshot::check_index("event unit", *unit, units)
            }
            _ => Ok(()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_core::{NodeId, PaymentId};
    use spider_routing::{MaxFlowScheme, ShortestPathScheme, WaterfillingScheme};

    fn line3(cap: i64) -> Network {
        let mut g = Network::new(3);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(cap))
            .unwrap();
        g.add_channel(NodeId(1), NodeId(2), Amount::from_whole(cap))
            .unwrap();
        g
    }

    fn tx(id: u64, src: u32, dst: u32, amount: i64, arrival: f64) -> Transaction {
        Transaction {
            id: PaymentId(id),
            src: NodeId(src),
            dst: NodeId(dst),
            amount: Amount::from_whole(amount),
            arrival,
        }
    }

    #[test]
    fn single_payment_completes_packet_switched() {
        let g = line3(100);
        let txs = vec![tx(0, 0, 2, 30, 0.1)];
        let mut scheme = ShortestPathScheme::new();
        let report = run(&g, &txs, &mut scheme, &SimConfig::new(10.0));
        assert_eq!(report.attempted, 1);
        assert_eq!(report.completed, 1);
        assert!((report.success_volume() - 1.0).abs() < 1e-9);
        // 30 tokens at MTU 10 = 3 units.
        assert_eq!(report.units_sent, 3);
        assert!(report.mean_completion_delay >= 0.5); // at least Δ
    }

    #[test]
    fn single_payment_completes_atomic() {
        let g = line3(100);
        let txs = vec![tx(0, 0, 2, 30, 0.1)];
        let mut scheme = MaxFlowScheme::new();
        let report = run(&g, &txs, &mut scheme, &SimConfig::new(10.0));
        assert_eq!(report.completed, 1);
        assert_eq!(report.policy, "atomic");
    }

    #[test]
    fn atomic_fails_what_packet_switching_delivers() {
        // Each channel side holds 50. Two opposing 80-token payments:
        // atomic max-flow needs 80 at once in one direction (> 50) and
        // fails both; packet switching interleaves 10-token units whose
        // settlements continually refresh the opposite direction.
        let g = line3(100);
        let txs = vec![tx(0, 0, 2, 80, 0.1), tx(1, 2, 0, 80, 0.1)];
        let atomic = run(&g, &txs, &mut MaxFlowScheme::new(), &SimConfig::new(30.0));
        assert_eq!(atomic.completed, 0);
        assert_eq!(atomic.abandoned, 2);
        let mut cfg = SimConfig::new(30.0);
        cfg.deadline = 20.0;
        let packet = run(&g, &txs, &mut ShortestPathScheme::new(), &cfg);
        assert_eq!(
            packet.completed, 2,
            "packet-switched should finish: {packet:?}"
        );
    }

    #[test]
    fn deadline_abandons_but_keeps_partial_volume() {
        // Only 20 spendable toward the destination; a 100-token payment
        // can deliver at most 20 + settled-refresh before the deadline.
        let mut g = Network::new(2);
        g.add_channel_with_balances(NodeId(0), NodeId(1), Amount::from_whole(20), Amount::ZERO)
            .unwrap();
        let txs = vec![tx(0, 0, 1, 100, 0.1)];
        let mut cfg = SimConfig::new(30.0);
        cfg.deadline = 2.0;
        let report = run(&g, &txs, &mut ShortestPathScheme::new(), &cfg);
        assert_eq!(report.completed, 0);
        assert_eq!(report.abandoned, 1);
        assert!(report.delivered_volume >= 20.0 - 1e-9, "{report:?}");
        assert!(report.success_volume() > 0.0);
        assert_eq!(report.strict_success_volume(), 0.0);
    }

    #[test]
    fn settlement_delay_gates_throughput() {
        // One channel, 10 spendable per side, MTU 10: each unit must wait
        // for the previous settle (Δ = 0.5 s) to free inflight... actually
        // lock is on sender side only, so the limit is sender balance 10 -> 1
        // unit per Δ once drained; 40 tokens need ~4 settles ≈ 2 s? No:
        // settles credit the RECEIVER, they never refresh the sender.
        // One-way flow drains after 1 unit of 10: delivered = 10 only.
        let mut g = Network::new(2);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(20))
            .unwrap();
        let txs = vec![tx(0, 0, 1, 40, 0.1)];
        let mut cfg = SimConfig::new(20.0);
        cfg.deadline = 10.0;
        let report = run(&g, &txs, &mut ShortestPathScheme::new(), &cfg);
        assert_eq!(report.delivered_volume, 10.0);
        assert_eq!(report.completed, 0);
    }

    #[test]
    fn opposing_flows_sustain_each_other() {
        // Bidirectional demand keeps the channel balanced: both complete.
        let mut g = Network::new(2);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(20))
            .unwrap();
        let txs = vec![tx(0, 0, 1, 40, 0.1), tx(1, 1, 0, 40, 0.1)];
        let mut cfg = SimConfig::new(60.0);
        cfg.deadline = 50.0;
        let report = run(&g, &txs, &mut ShortestPathScheme::new(), &cfg);
        assert_eq!(report.completed, 2, "{report:?}");
    }

    #[test]
    fn waterfilling_uses_multiple_paths() {
        // Diamond: two 2-hop paths between 0 and 3.
        let mut g = Network::new(4);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(20))
            .unwrap();
        g.add_channel(NodeId(1), NodeId(3), Amount::from_whole(20))
            .unwrap();
        g.add_channel(NodeId(0), NodeId(2), Amount::from_whole(20))
            .unwrap();
        g.add_channel(NodeId(2), NodeId(3), Amount::from_whole(20))
            .unwrap();
        let txs = vec![tx(0, 0, 3, 20, 0.1)];
        let report = run(
            &g,
            &txs,
            &mut WaterfillingScheme::new(),
            &SimConfig::new(10.0),
        );
        assert_eq!(report.completed, 1);
        // 20 tokens across two paths of 10 spendable each: single-path
        // shortest-path in the same window would strand at 10.
        let sp = run(
            &g,
            &txs,
            &mut ShortestPathScheme::new(),
            &SimConfig::new(10.0),
        );
        assert!(sp.delivered_volume <= 10.0 + 1e-9);
    }

    #[test]
    fn arrivals_after_end_time_ignored() {
        let g = line3(100);
        let txs = vec![tx(0, 0, 2, 10, 0.1), tx(1, 0, 2, 10, 99.0)];
        let report = run(
            &g,
            &txs,
            &mut ShortestPathScheme::new(),
            &SimConfig::new(5.0),
        );
        assert_eq!(report.attempted, 1);
    }

    #[test]
    fn deterministic_runs() {
        let g = line3(50);
        let txs: Vec<Transaction> = (0..20)
            .map(|i| {
                tx(
                    i,
                    (i % 2) as u32 * 2,
                    2 - (i % 2) as u32 * 2,
                    15,
                    0.1 * i as f64,
                )
            })
            .collect();
        let a = run(
            &g,
            &txs,
            &mut WaterfillingScheme::new(),
            &SimConfig::new(10.0),
        );
        let b = run(
            &g,
            &txs,
            &mut WaterfillingScheme::new(),
            &SimConfig::new(10.0),
        );
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.units_sent, b.units_sent);
        assert_eq!(a.delivered_volume, b.delivered_volume);
    }

    #[test]
    fn series_recording() {
        let g = line3(100);
        let txs = vec![tx(0, 0, 2, 30, 0.1)];
        let mut cfg = SimConfig::new(5.0);
        cfg.record_series = true;
        let report = run(&g, &txs, &mut ShortestPathScheme::new(), &cfg);
        assert!(!report.series.is_empty());
        // Ratio eventually reaches 1.0 in the series.
        assert!(report.series.last().unwrap().1 > 0.99);
    }

    #[test]
    fn amp_payment_settles_atomically() {
        let g = line3(100);
        let txs = vec![tx(0, 0, 2, 30, 0.1)];
        let mut cfg = SimConfig::new(10.0);
        cfg.amp = true;
        let report = run(&g, &txs, &mut ShortestPathScheme::new(), &cfg);
        assert_eq!(report.completed, 1);
        assert!((report.delivered_volume - 30.0).abs() < 1e-9);
        // All three units settle at the same instant (when the last
        // arrives), so completion time equals the plain run's.
        let plain = run(
            &g,
            &txs,
            &mut ShortestPathScheme::new(),
            &SimConfig::new(10.0),
        );
        assert!((report.mean_completion_delay - plain.mean_completion_delay).abs() < 0.2);
    }

    #[test]
    fn amp_refunds_partial_payment_at_deadline() {
        // Only 20 of 100 tokens can ever move: in AMP mode the receiver
        // must not keep the partial amount — everything is refunded.
        let mut g = Network::new(2);
        g.add_channel_with_balances(NodeId(0), NodeId(1), Amount::from_whole(20), Amount::ZERO)
            .unwrap();
        let txs = vec![tx(0, 0, 1, 100, 0.1)];
        let mut cfg = SimConfig::new(30.0);
        cfg.deadline = 2.0;
        cfg.amp = true;
        let report = run(&g, &txs, &mut ShortestPathScheme::new(), &cfg);
        assert_eq!(report.completed, 0);
        assert_eq!(report.delivered_volume, 0.0, "AMP is all-or-nothing");
        // Contrast with the non-atomic default, which keeps the partial 20.
        let mut plain_cfg = SimConfig::new(30.0);
        plain_cfg.deadline = 2.0;
        let plain = run(&g, &txs, &mut ShortestPathScheme::new(), &plain_cfg);
        assert!(plain.delivered_volume >= 20.0 - 1e-9);
    }

    #[test]
    fn routing_fees_charged_per_relay() {
        use spider_routing::fees::FeeSchedule;
        let g = line3(100);
        // 10% proportional fee on every channel; the sender's first hop is
        // free per convention, so a 2-hop payment pays 10% once.
        let mut cfg = SimConfig::new(10.0);
        cfg.fees = Some(FeeSchedule::uniform(&g, Amount::ZERO, 100_000));
        let txs = vec![tx(0, 0, 2, 30, 0.1)];
        let report = run(&g, &txs, &mut ShortestPathScheme::new(), &cfg);
        assert_eq!(report.completed, 1);
        assert!(
            (report.delivered_volume - 30.0).abs() < 1e-9,
            "receiver gets face value"
        );
        assert!(
            (report.routing_fees_paid - 3.0).abs() < 1e-9,
            "10% of 30 = 3 in fees, got {}",
            report.routing_fees_paid
        );
    }

    #[test]
    fn relay_earns_its_fee() {
        use spider_routing::fees::FeeSchedule;
        let g = line3(100);
        let mut cfg = SimConfig::new(10.0);
        cfg.fees = Some(FeeSchedule::uniform(&g, Amount::from_whole(1), 0));
        let txs = vec![tx(0, 0, 2, 10, 0.1)];
        // One unit of 10 (default MTU): sender locks 11 on hop 0, the relay
        // locks 10 on hop 1. After settle the relay is up exactly the fee.
        let report = run(&g, &txs, &mut ShortestPathScheme::new(), &cfg);
        assert_eq!(report.completed, 1);
        assert!((report.routing_fees_paid - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fees_zero_schedule_equals_no_schedule() {
        use spider_routing::fees::FeeSchedule;
        let g = line3(100);
        let txs = vec![tx(0, 0, 2, 30, 0.1)];
        let plain = run(
            &g,
            &txs,
            &mut ShortestPathScheme::new(),
            &SimConfig::new(10.0),
        );
        let mut cfg = SimConfig::new(10.0);
        cfg.fees = Some(FeeSchedule::zero(&g));
        let free = run(&g, &txs, &mut ShortestPathScheme::new(), &cfg);
        assert_eq!(plain.completed, free.completed);
        assert_eq!(plain.units_sent, free.units_sent);
        assert_eq!(free.routing_fees_paid, 0.0);
    }

    #[test]
    fn rebalancing_rescues_one_way_traffic() {
        // One-way demand drains the channel; with on-chain rebalancing the
        // router keeps topping the sender side back up.
        let mut g = Network::new(2);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(40))
            .unwrap();
        let txs: Vec<Transaction> = (0..8)
            .map(|i| tx(i, 0, 1, 20, 1.0 + 4.0 * i as f64))
            .collect();
        let mut cfg = SimConfig::new(60.0);
        cfg.deadline = 30.0;
        let plain = run(&g, &txs, &mut ShortestPathScheme::new(), &cfg);

        cfg.rebalance = Some(crate::rebalancer::RebalancePolicy {
            check_interval: 1.0,
            imbalance_threshold: 0.4,
            correction_fraction: 1.0,
            fee: Amount::from_micros(100),
            confirmation_delay: 2.0,
        });
        let rebalanced = run(&g, &txs, &mut ShortestPathScheme::new(), &cfg);

        assert!(
            rebalanced.delivered_volume > 2.0 * plain.delivered_volume,
            "rebalancing should unlock one-way flow: {} vs {}",
            rebalanced.delivered_volume,
            plain.delivered_volume
        );
        assert!(rebalanced.rebalance.transactions > 0);
        assert!(rebalanced.rebalance.fees_paid > 0.0);
        assert_eq!(plain.rebalance.transactions, 0);
    }

    #[test]
    fn rebalancing_idle_on_balanced_traffic() {
        let g = line3(100);
        let txs = vec![tx(0, 0, 2, 20, 0.1), tx(1, 2, 0, 20, 0.1)];
        let mut cfg = SimConfig::new(20.0);
        cfg.rebalance = Some(crate::rebalancer::RebalancePolicy::aggressive());
        let report = run(&g, &txs, &mut ShortestPathScheme::new(), &cfg);
        assert_eq!(report.completed, 2);
        assert_eq!(
            report.rebalance.transactions, 0,
            "balanced flows must not trigger on-chain transactions"
        );
    }

    #[test]
    fn congestion_window_limits_inflight() {
        // Large payment, tiny initial window: only `initial_window` units in
        // flight per settle round-trip, so delivery is window-paced.
        let g = line3(1000);
        let txs = vec![tx(0, 0, 2, 200, 0.1)];
        let mut cfg = SimConfig::new(30.0);
        cfg.deadline = 25.0;
        let unlimited = run(&g, &txs, &mut ShortestPathScheme::new(), &cfg);

        cfg.congestion = Some(crate::congestion::CongestionConfig {
            initial_window: 1.0,
            additive_increase: 0.5,
            multiplicative_decrease: 0.5,
            min_window: 1.0,
            max_window: 4.0,
        });
        let windowed = run(&g, &txs, &mut ShortestPathScheme::new(), &cfg);

        assert_eq!(unlimited.completed, 1);
        assert_eq!(windowed.completed, 1, "windowing delays, not prevents");
        assert!(
            windowed.mean_completion_delay > 2.0 * unlimited.mean_completion_delay,
            "window pacing must slow the transfer: {} vs {}",
            windowed.mean_completion_delay,
            unlimited.mean_completion_delay
        );
    }

    #[test]
    fn congestion_backoff_under_contention() {
        // A drained channel generates Unavailable; the window must shrink
        // and the run must still terminate cleanly.
        let mut g = Network::new(2);
        g.add_channel_with_balances(NodeId(0), NodeId(1), Amount::from_whole(10), Amount::ZERO)
            .unwrap();
        let txs = vec![tx(0, 0, 1, 100, 0.1)];
        let mut cfg = SimConfig::new(10.0);
        cfg.deadline = 5.0;
        cfg.congestion = Some(crate::congestion::CongestionConfig::default());
        let report = run(&g, &txs, &mut ShortestPathScheme::new(), &cfg);
        assert_eq!(report.abandoned, 1);
        assert!(report.delivered_volume >= 10.0 - 1e-9);
    }

    #[test]
    fn audit_clean_across_features() {
        // Exercise settles, deadline refunds, AMP bounces, fees, and
        // rebalancing in one run each — the auditor must stay silent.
        let base_txs = vec![tx(0, 0, 2, 80, 0.1), tx(1, 2, 0, 80, 0.1)];
        let mut cfg = SimConfig::new(30.0);
        cfg.deadline = 20.0;
        cfg.audit = true;

        let g = line3(100);
        let plain = run(&g, &base_txs, &mut ShortestPathScheme::new(), &cfg);
        assert!(plain.audit_checks > 0);
        assert!(
            plain.audit_violations.is_empty(),
            "{:?}",
            plain.audit_violations
        );

        let mut amp_cfg = cfg.clone();
        amp_cfg.amp = true;
        amp_cfg.deadline = 2.0;
        let amp = run(&g, &base_txs, &mut ShortestPathScheme::new(), &amp_cfg);
        assert!(
            amp.audit_violations.is_empty(),
            "{:?}",
            amp.audit_violations
        );

        let mut fee_cfg = cfg.clone();
        fee_cfg.fees = Some(spider_routing::fees::FeeSchedule::uniform(
            &g,
            Amount::ZERO,
            100_000,
        ));
        let feed = run(&g, &base_txs, &mut ShortestPathScheme::new(), &fee_cfg);
        assert!(
            feed.audit_violations.is_empty(),
            "{:?}",
            feed.audit_violations
        );

        let mut reb_cfg = cfg.clone();
        reb_cfg.rebalance = Some(crate::rebalancer::RebalancePolicy {
            check_interval: 1.0,
            imbalance_threshold: 0.4,
            correction_fraction: 1.0,
            fee: Amount::from_micros(100),
            confirmation_delay: 2.0,
        });
        let mut g2 = Network::new(2);
        g2.add_channel(NodeId(0), NodeId(1), Amount::from_whole(40))
            .unwrap();
        let one_way: Vec<Transaction> = (0..8)
            .map(|i| tx(i, 0, 1, 20, 1.0 + 4.0 * i as f64))
            .collect();
        let reb = run(&g2, &one_way, &mut ShortestPathScheme::new(), &reb_cfg);
        assert!(reb.rebalance.transactions > 0, "rebalancing must fire");
        assert!(
            reb.audit_violations.is_empty(),
            "{:?}",
            reb.audit_violations
        );
    }

    #[test]
    fn audit_disabled_reports_zero_checks() {
        let g = line3(100);
        let txs = vec![tx(0, 0, 2, 30, 0.1)];
        let report = run(
            &g,
            &txs,
            &mut ShortestPathScheme::new(),
            &SimConfig::new(10.0),
        );
        assert_eq!(report.audit_checks, 0);
        assert!(report.audit_violations.is_empty());
    }

    #[test]
    fn unroutable_pair_abandons_immediately() {
        let mut g = Network::new(3);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(10))
            .unwrap();
        let txs = vec![tx(0, 0, 2, 5, 0.1)];
        let report = run(
            &g,
            &txs,
            &mut ShortestPathScheme::new(),
            &SimConfig::new(5.0),
        );
        assert_eq!(report.abandoned, 1);
        assert_eq!(report.units_sent, 0);
    }

    #[test]
    fn scripted_outage_refunds_inflight_then_retry_recovers() {
        use crate::faults::{FaultConfig, FaultEvent, FaultPlan};
        use spider_core::ChannelId;
        // Channel 1 (the 1–2 hop) dies at t=0.3 with three 10-token units
        // in flight (settle would land at 0.6), then recovers at 1.0. The
        // sender must refund, blacklist, back off, and resend.
        let g = line3(100);
        let txs = vec![tx(0, 0, 2, 30, 0.1)];
        let plan = FaultPlan::scripted(
            vec![
                (0.3, FaultEvent::ChannelDown(ChannelId(1))),
                (1.0, FaultEvent::ChannelUp(ChannelId(1))),
            ],
            FaultConfig::default(), // retry enabled by default
        );
        let mut cfg = SimConfig::new(15.0);
        cfg.deadline = 10.0;
        cfg.audit = true;
        cfg.faults = Some(plan);
        let report = run(&g, &txs, &mut ShortestPathScheme::new(), &cfg);
        let stats = report.faults.expect("fault stats present");
        assert_eq!(stats.outages, 1);
        assert_eq!(stats.recoveries, 1);
        assert_eq!(stats.units_refunded_by_outage, 3, "{stats:?}");
        assert!(stats.retries >= 1, "{stats:?}");
        assert!(stats.blacklistings >= 1, "{stats:?}");
        assert_eq!(report.completed, 1, "retry must recover: {report:?}");
        assert!(report.audit_checks > 0);
        assert!(
            report.audit_violations.is_empty(),
            "{:?}",
            report.audit_violations
        );
    }

    #[test]
    fn node_crash_without_retry_abandons_on_first_fault() {
        use crate::faults::{FaultConfig, FaultEvent, FaultPlan};
        // Relay node 1 crashes mid-flight and the sender has no retry
        // policy: the payment is abandoned immediately (the recovery
        // baseline for the sweep in spider-experiments).
        let g = line3(100);
        let txs = vec![tx(0, 0, 2, 30, 0.1)];
        let plan = FaultPlan::scripted(
            vec![
                (0.3, FaultEvent::NodeDown(NodeId(1))),
                (1.0, FaultEvent::NodeUp(NodeId(1))),
            ],
            FaultConfig {
                retry: None,
                ..FaultConfig::default()
            },
        );
        let mut cfg = SimConfig::new(15.0);
        cfg.deadline = 10.0;
        cfg.audit = true;
        cfg.faults = Some(plan);
        let report = run(&g, &txs, &mut ShortestPathScheme::new(), &cfg);
        let stats = report.faults.expect("fault stats present");
        assert_eq!(stats.node_crashes, 1);
        assert!(stats.units_refunded_by_outage > 0, "{stats:?}");
        assert_eq!(stats.payments_failed, 1, "{stats:?}");
        assert_eq!(report.completed, 0, "{report:?}");
        assert_eq!(report.abandoned, 1, "{report:?}");
        assert_eq!(report.delivered_volume, 0.0);
        assert!(
            report.audit_violations.is_empty(),
            "{:?}",
            report.audit_violations
        );
    }

    #[test]
    fn random_fault_storm_is_audit_clean_and_deterministic() {
        use crate::faults::{FaultConfig, FaultPlan};
        // Every fault class at once: outages, churn, drops, jitter, and
        // griefing, with auditing after every balance-mutating event. Two
        // identical runs must serialize byte-identically.
        let g = line3(200);
        let txs: Vec<Transaction> = (0..24)
            .map(|i| {
                tx(
                    i,
                    (i % 2) as u32 * 2,
                    2 - (i % 2) as u32 * 2,
                    15,
                    0.1 + 0.4 * i as f64,
                )
            })
            .collect();
        let fc = FaultConfig {
            seed: 7,
            channel_outage_rate: 1.0,
            outage_duration: 1.0,
            node_churn_rate: 0.5,
            node_downtime: 1.0,
            unit_drop_prob: 0.1,
            settle_jitter: 0.3,
            grief_prob: 0.05,
            ..FaultConfig::default()
        };
        let mut cfg = SimConfig::new(20.0);
        cfg.deadline = 8.0;
        cfg.audit = true;
        cfg.faults = Some(FaultPlan::from_config(&fc, &g, 20.0));
        let a = run(&g, &txs, &mut WaterfillingScheme::new(), &cfg);
        let b = run(&g, &txs, &mut WaterfillingScheme::new(), &cfg);
        assert!(a.audit_checks > 0);
        assert!(a.audit_violations.is_empty(), "{:?}", a.audit_violations);
        let stats = a.faults.expect("fault stats present");
        assert!(stats.outages > 0, "storm must produce outages: {stats:?}");
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "fault runs must be fully deterministic"
        );
    }

    #[test]
    fn griefed_units_pin_funds_then_refund() {
        use crate::faults::{FaultConfig, FaultPlan};
        // With grief_prob = 1 every unit is griefed: nothing settles, funds
        // stay pinned for `grief_hold` past Δ, then everything refunds with
        // exact conservation.
        let g = line3(100);
        let txs = vec![tx(0, 0, 2, 30, 0.1)];
        let fc = FaultConfig {
            seed: 3,
            grief_prob: 1.0,
            grief_hold: 1.0,
            retry: None,
            ..FaultConfig::default()
        };
        let mut cfg = SimConfig::new(10.0);
        cfg.deadline = 6.0;
        cfg.audit = true;
        cfg.faults = Some(FaultPlan::from_config(&fc, &g, 10.0));
        let report = run(&g, &txs, &mut ShortestPathScheme::new(), &cfg);
        let stats = report.faults.expect("fault stats present");
        assert!(stats.units_griefed > 0, "{stats:?}");
        assert_eq!(report.completed, 0);
        assert_eq!(report.delivered_volume, 0.0);
        assert!(
            report.audit_violations.is_empty(),
            "{:?}",
            report.audit_violations
        );
    }
}
