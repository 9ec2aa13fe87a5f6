//! Hop-by-hop transport with in-network router queues (Fig. 3 / §4.2).
//!
//! The paper's architecture has routers *queue* transaction units when a
//! payment channel temporarily lacks funds and forward them as settlements
//! replenish the channel — but its own evaluation "leave\[s\] implementing
//! in-network queues … to future work". This module implements that
//! architecture:
//!
//! - a unit is admitted at the source as soon as its *first* hop can be
//!   funded (downstream hops may be dry right now);
//! - at every router the unit either locks the next hop immediately or
//!   waits in that channel direction's queue;
//! - every settlement that credits a channel direction drains that
//!   direction's queue in policy order (FIFO, smallest-unit-first, or
//!   earliest-deadline-first — §4.2's service classes);
//! - a unit that outlives its payment's deadline while queued is dropped
//!   and its upstream locks refunded (the sender "withholds the key",
//!   §4.1).
//!
//! Compared to the source-queued engine in [`crate::engine`], router queues
//! admit optimistically and absorb transient imbalance in the network
//! instead of at the sender.

use crate::audit::{record_release, AuditViolation};
use crate::faults::{Blacklist, FaultEvent, FaultPlan, FaultState, FaultStateSnapshot, FaultView};
use crate::ledger::LedgerView;
use crate::metrics::{sample_network, SimReport};
use crate::payment::{PaymentState, PaymentStatus};
use crate::scheduler::{QueuePolicy, SOURCE_POLICY};
use crate::snapshot::{
    self, corrupt, CheckpointSpec, Codec, EventCore, Fingerprint, SnapshotError,
};
use serde::{Deserialize, Serialize};
use spider_core::{crc32, Amount, BinError, ChannelId, Dec, Direction, Enc, Network, Path};
use spider_routing::{path_bottleneck, PathCache, PathStrategy};
use spider_telemetry::{Phase, Telemetry, TraceEvent};
use spider_workload::Transaction;
use std::collections::VecDeque;

/// Per-hop propagation/processing delay (seconds).
const HOP_DELAY: f64 = 0.05;

/// Candidate paths per pair: edge-disjoint shortest paths.
const NUM_PATHS: usize = 4;

/// Configuration for the router-queue engine.
#[derive(Clone, Debug)]
pub struct QueuedConfig {
    /// Hard end of the measurement window (seconds).
    pub end_time: f64,
    /// End-to-end confirmation delay Δ before funds settle (seconds).
    pub delta: f64,
    /// Maximum transaction unit.
    pub mtu: Amount,
    /// Source scheduler poll interval (seconds).
    pub poll_interval: f64,
    /// Per-payment deadline window (seconds after arrival).
    pub deadline: f64,
    /// Router-side queue service order.
    pub queue_policy: QueuePolicy,
    /// Hard cap per channel-direction queue; beyond it units are dropped
    /// (and refunded) on arrival.
    pub max_queue_len: usize,
    /// Telemetry handle (disabled by default). Channel samples — including
    /// real router-queue depths — piggyback on scheduler ticks, so enabling
    /// telemetry never changes the event order.
    pub telemetry: Telemetry,
    /// Deterministic fault schedule (outages / node churn). Units whose
    /// locked prefix crosses a newly-downed channel are dropped and
    /// refunded; queued units simply wait for recovery (router queues
    /// absorb outages) until their payment's deadline.
    pub faults: Option<FaultPlan>,
}

impl QueuedConfig {
    /// Defaults mirroring [`crate::SimConfig::new`] plus queueing knobs.
    pub fn new(end_time: f64) -> Self {
        QueuedConfig {
            end_time,
            delta: 0.5,
            mtu: Amount::from_whole(10),
            poll_interval: 0.1,
            deadline: 5.0,
            queue_policy: QueuePolicy::Fifo,
            max_queue_len: 4_096,
            telemetry: Telemetry::disabled(),
            faults: None,
        }
    }
}

/// Router-queue statistics for a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct QueueStats {
    /// Units that ever waited in a router queue.
    pub units_queued: usize,
    /// Units dropped from queues (deadline or overflow).
    pub units_dropped: usize,
    /// Largest queue length observed on any channel direction.
    pub max_queue_len: usize,
    /// Mean time units spent waiting in queues (seconds, over dequeues).
    pub mean_wait: f64,
}

/// Result of a router-queue run: the standard report plus queue statistics.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct QueuedReport {
    /// The standard metrics.
    pub report: SimReport,
    /// Router-queue behaviour.
    pub queues: QueueStats,
}

#[derive(Clone, Debug)]
struct UnitState {
    payment: usize,
    amount: Amount,
    path: std::sync::Arc<Path>,
    /// Hops 0..locked are locked; the unit currently sits at
    /// `path.nodes()[locked]`.
    locked: usize,
    /// When the unit entered its current queue (NaN when not queued).
    queued_at: f64,
    dropped: bool,
}

enum Event {
    Arrival(usize),
    Tick,
    /// Unit finished traversing its most recently locked hop.
    HopArrive {
        unit: usize,
    },
    /// The receiver released the key; settle every locked hop.
    SettleUnit {
        unit: usize,
    },
    /// A scheduled fault (outage / recovery / node churn) fires.
    Fault(FaultEvent),
}

/// The run's fixed inputs, shared by every handler.
struct Env<'a> {
    network: &'a Network,
    transactions: &'a [Transaction],
    config: &'a QueuedConfig,
    tel: &'a Telemetry,
    /// This engine has no sender blacklist (routers absorb outages in their
    /// queues); an always-empty blacklist satisfies the masked view.
    blacklist: Blacklist,
    ckpt: Option<&'a CheckpointSpec>,
    /// Input fingerprint stamped on snapshots (0 when not checkpointing).
    fp: u32,
}

/// Runs the router-queue transport over `transactions`.
///
/// Routing is waterfilling-style over four edge-disjoint shortest paths,
/// but a unit is admitted when its *first hop* can be funded.
pub fn run_queued(
    network: &Network,
    transactions: &[Transaction],
    config: &QueuedConfig,
) -> QueuedReport {
    match run_queued_inner(network, transactions, config, None, None) {
        Ok(out) => out,
        // No checkpoint spec and no resume state: no snapshot I/O happens,
        // so no snapshot error can arise.
        // spider-lint: allow(panic-reachability) — infallible wrapper; the Err arm is statically dead
        Err(e) => unreachable!("plain run cannot fail with a snapshot error: {e}"),
    }
}

/// Runs the router-queue transport, writing a crash-safe snapshot into
/// `ckpt.dir` every `ckpt.every` scheduler ticks.
pub fn run_queued_checkpointed(
    network: &Network,
    transactions: &[Transaction],
    config: &QueuedConfig,
    ckpt: &CheckpointSpec,
) -> Result<QueuedReport, SnapshotError> {
    run_queued_inner(network, transactions, config, None, Some(ckpt))
}

/// Resumes a router-queue run from a snapshot written by
/// [`run_queued_checkpointed`] and carries it to completion, optionally
/// continuing to checkpoint. The completed run is byte-identical to an
/// uninterrupted one.
pub fn resume_queued(
    network: &Network,
    transactions: &[Transaction],
    config: &QueuedConfig,
    snapshot_path: &std::path::Path,
    ckpt: Option<&CheckpointSpec>,
) -> Result<QueuedReport, SnapshotError> {
    let fp = fingerprint_queued(network, transactions, config);
    let state = snapshot::resume_snapshot(
        snapshot_path,
        snapshot::ENGINE_QUEUED,
        fp,
        &config.telemetry,
        |snap| {
            QueuedState::decode(
                snap.section(snapshot::SEC_CORE)?,
                network,
                transactions,
                config,
            )
        },
    )?;
    run_queued_inner(network, transactions, config, Some(state), ckpt)
}

/// The event loop: pops events in `(time, sequence)` order and dispatches
/// each to its handler until the measurement window closes.
fn run_queued_inner(
    network: &Network,
    transactions: &[Transaction],
    config: &QueuedConfig,
    resume: Option<QueuedState>,
    ckpt: Option<&CheckpointSpec>,
) -> Result<QueuedReport, SnapshotError> {
    assert!(config.delta > 0.0 && config.poll_interval > 0.0);
    assert!(config.mtu.is_positive());
    let env = Env {
        network,
        transactions,
        config,
        tel: &config.telemetry,
        blacklist: Blacklist::new(network.num_channels()),
        ckpt,
        fp: if ckpt.is_some() {
            fingerprint_queued(network, transactions, config)
        } else {
            0
        },
    };
    // A resumed run restores the event queue (arrivals not yet processed,
    // the next tick, pending fault transitions, ...) wholesale from the
    // snapshot, so the initial pushes happen only in a fresh state.
    let mut st = resume.unwrap_or_else(|| QueuedState::new(network, transactions, config));
    while let Some((now, event)) = st.core.queue.pop() {
        if now > config.end_time {
            break;
        }
        match event {
            Event::Arrival(i) => st.on_arrival(&env, now, i),
            Event::Tick => st.on_tick(&env, now)?,
            Event::HopArrive { unit } => st.on_hop_arrive(&env, now, unit),
            Event::SettleUnit { unit } => st.on_settle(&env, now, unit),
            Event::Fault(ev) => st.on_fault(&env, now, &ev),
        }
    }
    Ok(st.finish(&env))
}

/// Router-queue slot of a channel direction.
fn slot(d: Direction) -> usize {
    match d {
        Direction::AtoB => 0,
        Direction::BtoA => 1,
    }
}

impl QueuedState {
    /// A payment arrives and its source sends what first-hop funding allows.
    fn on_arrival(&mut self, env: &Env, now: f64, i: usize) {
        let tel = env.tel;
        let _span = tel.span_enter(Phase::RoutingDecision);
        tel.span_sim(Phase::RoutingDecision, now);
        tel.span_items(Phase::RoutingDecision, 1);
        let idx = self.core.payments.len();
        let config = env.config;
        self.core.payments.push(PaymentState::arrive(
            &env.transactions[i],
            config.deadline,
            Some(config.mtu),
            now,
            tel,
        ));
        self.core.pending.push(idx);
        self.pump_source(env, idx, now);
    }

    /// A scheduler tick: abandon overdue payments, sweep expired units out
    /// of router queues, re-pump every pending source in policy order,
    /// sample telemetry, and checkpoint on cadence.
    fn on_tick(&mut self, env: &Env, now: f64) -> Result<(), SnapshotError> {
        let tel = env.tel;
        let _span = tel.span_enter(Phase::QueueDrain);
        tel.span_sim(Phase::QueueDrain, now);
        tel.counter_add("sim.scheduler.polls", 1);
        for &i in &self.core.pending {
            let p = &mut self.core.payments[i];
            if p.status == PaymentStatus::Pending && now >= p.deadline {
                p.abandon(now, tel);
            }
        }
        self.core.retain_pending();
        // Sweep expired units out of router queues so their upstream locks
        // are refunded promptly (not only when a settlement happens to poke
        // the queue).
        for c in 0..self.router_queues.len() {
            for s in 0..2 {
                let (units, payments) = (&self.units, &self.core.payments);
                let q = &mut self.router_queues[c][s];
                let expired: Vec<usize> = q
                    .iter()
                    .copied()
                    .filter(|&u| !units[u].dropped && payments[units[u].payment].deadline <= now)
                    .collect();
                if expired.is_empty() {
                    continue;
                }
                q.retain(|u| !expired.contains(u));
                for u in expired {
                    self.drop_unit(env, u, now);
                }
            }
        }
        SOURCE_POLICY.order(&self.core.payments, &mut self.core.pending);
        for i in self.core.pending.clone() {
            if self.core.payments[i].status == PaymentStatus::Pending {
                self.pump_source(env, i, now);
            }
        }
        self.core.retain_pending();
        let queues = &self.router_queues;
        sample_network(&mut self.core, env.network, now, tel, &|c| {
            (queues[c.index()][0].len() + queues[c.index()][1].len()) as u32
        });
        let next = now + env.config.poll_interval;
        if next <= env.config.end_time {
            self.core.queue.push(next, Event::Tick);
        }
        self.core.ticks += 1;
        if let Some(ck) = env.ckpt {
            if self.core.ticks.is_multiple_of(ck.every) {
                snapshot::write_event_snapshot(
                    ck,
                    snapshot::ENGINE_QUEUED,
                    env.fp,
                    self.core.ticks,
                    self.encode(),
                    None,
                    tel,
                )?;
            }
        }
        Ok(())
    }

    /// A unit finished a hop: at the receiver its key releases after Δ;
    /// at a router it forwards or queues.
    fn on_hop_arrive(&mut self, env: &Env, now: f64, unit: usize) {
        let u = &self.units[unit];
        if u.dropped {
            return;
        }
        let tel = env.tel;
        let _span = tel.span_enter(Phase::QueueDrain);
        tel.span_sim(Phase::QueueDrain, now);
        tel.span_items(Phase::QueueDrain, 1);
        if u.locked == u.path.len() {
            self.core
                .queue
                .push(now + env.config.delta, Event::SettleUnit { unit });
            return;
        }
        self.try_forward(env, unit, now);
    }

    /// The receiver released a unit's key: settle every hop, then drain the
    /// queues the settlement refilled.
    fn on_settle(&mut self, env: &Env, now: f64, unit: usize) {
        if self.units[unit].dropped {
            // An outage refunded this unit during its Δ-wait; the receiver
            // never got the key.
            return;
        }
        let tel = env.tel;
        let _span = tel.span_enter(Phase::SettleRefund);
        tel.span_sim(Phase::SettleRefund, now);
        tel.span_items(Phase::SettleRefund, 1);
        let u = self.units[unit].clone();
        debug_assert_eq!(u.locked, u.path.len());
        for (i, &(c, _)) in u.path.hops().iter().enumerate() {
            let to = u.path.nodes()[i + 1];
            if let Err(err) = self.core.ledger.settle_hop(env.network, c, to, u.amount) {
                record_release(&mut self.release_violations, now, "queued-settle", &err);
            }
        }
        self.core.payments[u.payment].settle(u.amount, now, tel);
        // Every hop's receiving side gained funds: drain the queues that
        // send *from* those sides.
        for &(c, d) in u.path.hops() {
            self.drain_queue(env, c, slot(d.reverse()), now);
        }
    }

    /// A scheduled fault transition: refund units whose locked prefix
    /// crosses a newly-downed channel, and service the queues of any
    /// channel it revived.
    fn on_fault(&mut self, env: &Env, now: f64, ev: &FaultEvent) {
        let tel = env.tel;
        let _span = tel.span_enter(Phase::FaultProcessing);
        tel.span_sim(Phase::FaultProcessing, now);
        tel.span_items(Phase::FaultProcessing, 1);
        let Some(fs) = self.faults.as_mut() else {
            // Fault events are only scheduled when a plan is installed.
            return;
        };
        tel.emit(|| ev.trace_event(now));
        let newly_down = fs.apply(env.network, ev);
        // A recovery re-opens the channel: its queues are serviced below.
        let revived: Vec<ChannelId> = match ev {
            FaultEvent::ChannelUp(c) if !fs.is_channel_down(*c) => vec![*c],
            FaultEvent::NodeUp(n) => env
                .network
                .neighbors(*n)
                .iter()
                .map(|&(_, c)| c)
                .filter(|&c| !fs.is_channel_down(c))
                .collect(),
            _ => Vec::new(),
        };
        if !newly_down.is_empty() {
            // Drop every unit whose *locked prefix* crosses a downed
            // channel: those in-flight locks can no longer settle and must
            // be refunded to conserve funds. Units merely queued at the
            // downed channel keep waiting for recovery.
            let mut refunded = 0;
            for u in 0..self.units.len() {
                let unit = &self.units[u];
                if unit.dropped {
                    continue;
                }
                let crosses = unit
                    .path
                    .hops()
                    .iter()
                    .take(unit.locked)
                    .any(|(c, _)| newly_down.contains(c));
                if crosses {
                    self.drop_unit(env, u, now);
                    refunded += 1;
                }
            }
            if let Some(fs) = self.faults.as_mut() {
                fs.stats.units_refunded_by_outage += refunded;
            }
            // Purge dropped units from router queues so they never block a
            // head-of-line drain.
            let units = &self.units;
            for q in self.router_queues.iter_mut().flatten() {
                q.retain(|&u| !units[u].dropped);
            }
        }
        for c in revived {
            for s in 0..2 {
                self.drain_queue(env, c, s, now);
            }
        }
    }

    /// Closes the run: queue statistics, path-cache counters, and the
    /// report.
    fn finish(self, env: &Env) -> QueuedReport {
        let mut queues = self.stats;
        queues.mean_wait = if self.dequeues > 0 {
            self.total_wait / self.dequeues as f64
        } else {
            0.0
        };
        debug_assert!(self.core.ledger.conserves_all());
        let tel = env.tel;
        let path_stats = self.paths.stats();
        tel.counter_add("routing.paths.lookups", path_stats.lookups);
        tel.counter_add("routing.paths.computed_pairs", path_stats.computed_pairs);
        tel.counter_add("routing.paths.computed", path_stats.computed_paths);
        let report = SimReport {
            audit_violations: self.release_violations,
            faults: self.faults.map(|fs| fs.stats),
            ..SimReport::from_run(
                "queued-waterfilling".to_string(),
                format!("{}+{:?}", SOURCE_POLICY.name(), env.config.queue_policy),
                self.core,
                self.units_sent,
                tel,
            )
        };
        QueuedReport { report, queues }
    }

    /// Sends as many units of one pending payment as first-hop funding
    /// allows.
    fn pump_source(&mut self, env: &Env, idx: usize, now: f64) {
        let tel = env.tel;
        let _span = tel.span_enter(Phase::UnitDispatch);
        tel.span_sim(Phase::UnitDispatch, now);
        loop {
            let p = &self.core.payments[idx];
            let remaining = p.remaining();
            if !remaining.is_positive() {
                break;
            }
            let unit_amount = remaining.min(env.config.mtu);
            let src = p.src;
            let candidates = self.paths.paths(env.network, src, p.dst);
            if candidates.is_empty() {
                self.core.payments[idx].abandon(now, tel);
                break;
            }
            // Waterfilling preference by full-path bottleneck (fault-masked
            // so downed channels look empty), but admission only requires
            // the first hop to be fundable: downstream dry spells are
            // absorbed by router queues.
            let view = LedgerView {
                network: env.network,
                ledger: &self.core.ledger,
            };
            let best = match &self.faults {
                Some(fs) => best_path(
                    candidates,
                    &FaultView {
                        inner: &view,
                        faults: fs,
                        blacklist: &env.blacklist,
                        now,
                    },
                ),
                None => best_path(candidates, &view),
            };
            let Some(best) = best else {
                break;
            };
            let (c0, _) = best.hops()[0];
            if self
                .faults
                .as_ref()
                .is_some_and(|fs| fs.is_channel_down(c0))
            {
                break;
            }
            if self
                .core
                .ledger
                .lock_hop(env.network, c0, src, unit_amount)
                .is_err()
            {
                break;
            }
            let unit = self.units.len();
            self.core.payments[idx].send(unit_amount, best.len(), now, tel);
            self.units.push(UnitState {
                payment: idx,
                amount: unit_amount,
                path: best,
                locked: 1,
                queued_at: f64::NAN,
                dropped: false,
            });
            self.units_sent += 1;
            self.core
                .queue
                .push(now + HOP_DELAY, Event::HopArrive { unit });
        }
    }

    /// A unit at an intermediate router tries to lock its next hop;
    /// otherwise it joins the channel direction's queue.
    fn try_forward(&mut self, env: &Env, unit: usize, now: f64) {
        let u = &self.units[unit];
        let (c, d) = u.path.hops()[u.locked];
        let from = u.path.nodes()[u.locked];
        let down = self.faults.as_ref().is_some_and(|fs| fs.is_channel_down(c));
        if !down
            && self
                .core
                .ledger
                .lock_hop(env.network, c, from, u.amount)
                .is_ok()
        {
            self.units[unit].locked += 1;
            self.core
                .queue
                .push(now + HOP_DELAY, Event::HopArrive { unit });
            return;
        }
        // Queue at this router (downed next hop queues too: the unit waits
        // for recovery, bounded by its payment's deadline).
        if self.router_queues[c.index()][slot(d)].len() >= env.config.max_queue_len {
            self.drop_unit(env, unit, now);
            return;
        }
        self.units[unit].queued_at = now;
        let q = &mut self.router_queues[c.index()][slot(d)];
        let pos = insert_position(
            q,
            &self.units,
            &self.core.payments,
            env.config.queue_policy,
            unit,
        );
        q.insert(pos, unit);
        self.stats.units_queued += 1;
        self.stats.max_queue_len = self.stats.max_queue_len.max(q.len());
        let depth = q.len() as u32;
        env.tel.emit(|| TraceEvent::UnitQueued {
            t: now,
            payment: self.core.payments[self.units[unit].payment].id.0,
            channel: c.index() as u32,
            depth,
        });
    }

    /// Services a channel direction's queue after its sending side gained
    /// funds.
    fn drain_queue(&mut self, env: &Env, channel: ChannelId, slot: usize, now: f64) {
        if self
            .faults
            .as_ref()
            .is_some_and(|fs| fs.is_channel_down(channel))
        {
            return; // nothing forwards over a downed channel
        }
        while let Some(&head) = self.router_queues[channel.index()][slot].front() {
            let u = &self.units[head];
            // Expired while waiting?
            if self.core.payments[u.payment].deadline <= now || u.dropped {
                self.router_queues[channel.index()][slot].pop_front();
                if !self.units[head].dropped {
                    self.drop_unit(env, head, now);
                }
                continue;
            }
            let from = u.path.nodes()[u.locked];
            if self
                .core
                .ledger
                .lock_hop(env.network, channel, from, u.amount)
                .is_err()
            {
                break; // head blocked; policy order preserved (no bypass)
            }
            self.router_queues[channel.index()][slot].pop_front();
            let u = &mut self.units[head];
            self.total_wait += now - u.queued_at;
            self.dequeues += 1;
            u.queued_at = f64::NAN;
            u.locked += 1;
            self.core
                .queue
                .push(now + HOP_DELAY, Event::HopArrive { unit: head });
        }
    }

    /// Drops a unit: refunds every upstream lock. The payment's in-flight
    /// value shrinks so the source may resend it (until its deadline).
    fn drop_unit(&mut self, env: &Env, unit: usize, now: f64) {
        let u = &mut self.units[unit];
        debug_assert!(!u.dropped);
        for (i, &(c, _)) in u.path.hops().iter().take(u.locked).enumerate() {
            let from = u.path.nodes()[i];
            if let Err(err) = self.core.ledger.refund_hop(env.network, c, from, u.amount) {
                record_release(&mut self.release_violations, now, "queued-drop", &err);
            }
        }
        u.dropped = true;
        self.stats.units_dropped += 1;
        self.core.payments[u.payment].refund(u.amount, now, env.tel);
    }
}

fn fingerprint_queued(
    network: &Network,
    transactions: &[Transaction],
    config: &QueuedConfig,
) -> u32 {
    let mut e = Enc::new();
    snapshot::enc_inputs(&mut e, network, transactions);
    e.str("queued-waterfilling");
    (config.end_time, HOP_DELAY, config.delta, config.mtu).enc(&mut e);
    (config.poll_interval, config.deadline).enc(&mut e);
    e.str(SOURCE_POLICY.name());
    config.queue_policy.fingerprint(&mut e);
    (NUM_PATHS, config.max_queue_len).enc(&mut e);
    config.faults.fingerprint(&mut e);
    config.telemetry.fingerprint(&mut e);
    crc32(&e.into_bytes())
}

impl Codec for Event {
    fn enc(&self, e: &mut Enc) {
        match self {
            Event::Arrival(i) => (0u8, *i).enc(e),
            Event::Tick => e.u8(1),
            Event::HopArrive { unit } => (2u8, *unit).enc(e),
            Event::SettleUnit { unit } => (3u8, *unit).enc(e),
            Event::Fault(ev) => {
                e.u8(4);
                ev.enc(e);
            }
        }
    }
    fn dec(d: &mut Dec, net: &Network) -> Result<Self, BinError> {
        Ok(match d.u8()? {
            0 => Event::Arrival(d.usize()?),
            1 => Event::Tick,
            2 => Event::HopArrive { unit: d.usize()? },
            3 => Event::SettleUnit { unit: d.usize()? },
            4 => Event::Fault(FaultEvent::dec(d, net)?),
            other => return Err(snapshot::invalid(d, format!("queued event tag {other}"))),
        })
    }
}

impl Codec for UnitState {
    fn enc(&self, e: &mut Enc) {
        (self.payment, self.amount).enc(e);
        self.path.enc(e);
        (self.locked, self.queued_at, self.dropped).enc(e);
    }
    fn dec(d: &mut Dec, net: &Network) -> Result<Self, BinError> {
        Ok(UnitState {
            payment: d.usize()?,
            amount: Amount::dec(d, net)?,
            path: Codec::dec(d, net)?,
            locked: d.usize()?,
            queued_at: d.f64()?,
            dropped: d.bool()?,
        })
    }
}

/// The router-queue engine's whole mutable run state: the event loop mutates
/// it and a checkpoint encodes it, field for field, as `SEC_CORE`.
struct QueuedState {
    /// Ticks, ledger, event queue, payments, pending, and telemetry
    /// samples — the part the sequential engine shares.
    core: EventCore<Event>,
    units: Vec<UnitState>,
    paths: PathCache,
    /// One queue per (channel, direction).
    router_queues: Vec<[VecDeque<usize>; 2]>,
    stats: QueueStats,
    total_wait: f64,
    dequeues: usize,
    units_sent: u64,
    faults: Option<FaultState>,
    release_violations: Vec<AuditViolation>,
}

impl QueuedState {
    /// A fresh run: every arrival, the first tick, and the fault plan's
    /// transitions are queued.
    fn new(network: &Network, transactions: &[Transaction], config: &QueuedConfig) -> Self {
        let mut core = EventCore::new(network, &config.telemetry);
        for (i, tx) in transactions.iter().enumerate() {
            if tx.arrival <= config.end_time {
                core.queue.push(tx.arrival, Event::Arrival(i));
            }
        }
        core.queue.push(config.poll_interval, Event::Tick);
        if let Some(plan) = &config.faults {
            for (t, ev) in &plan.events {
                if *t <= config.end_time {
                    core.queue.push(*t, Event::Fault(ev.clone()));
                }
            }
        }
        QueuedState {
            core,
            units: Vec::new(),
            paths: PathCache::new(PathStrategy::EdgeDisjoint(NUM_PATHS)),
            router_queues: (0..network.num_channels())
                .map(|_| [VecDeque::new(), VecDeque::new()])
                .collect(),
            stats: QueueStats::default(),
            total_wait: 0.0,
            dequeues: 0,
            units_sent: 0,
            faults: config
                .faults
                .as_ref()
                .map(|plan| FaultState::new(plan, network)),
            release_violations: Vec::new(),
        }
    }

    /// The `SEC_CORE` section.
    fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        self.core.enc_prefix(&mut e);
        self.units.enc(&mut e);
        e.bytes(&self.paths.checkpoint());
        self.router_queues.enc(&mut e);
        let s = &self.stats;
        (s.units_queued, s.units_dropped, s.max_queue_len).enc(&mut e);
        (self.total_wait, self.dequeues, self.units_sent).enc(&mut e);
        self.faults
            .as_ref()
            .map(FaultState::export_state)
            .enc(&mut e);
        snapshot::enc_json(&mut e, &self.release_violations);
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
        config: &QueuedConfig,
    ) -> Result<Self, SnapshotError> {
        let d = &mut Dec::new(bytes);
        let core = EventCore::dec_prefix(d, network)?;
        let units = Codec::dec(d, network)?;
        let mut paths = PathCache::new(PathStrategy::EdgeDisjoint(NUM_PATHS));
        paths
            .restore(network, d.bytes()?)
            .map_err(|e| corrupt(format!("path cache: {e}")))?;
        let router_queues: Vec<[VecDeque<usize>; 2]> = Codec::dec(d, network)?;
        if router_queues.len() != network.num_channels() {
            return Err(corrupt(format!(
                "snapshot has {} router queues, network has {} channels",
                router_queues.len(),
                network.num_channels()
            )));
        }
        let (units_queued, units_dropped, max_queue_len) = Codec::dec(d, network)?;
        let (total_wait, dequeues, units_sent) = Codec::dec(d, network)?;
        let captured: Option<FaultStateSnapshot> = Codec::dec(d, network)?;
        snapshot::check_presence("fault", captured.is_some(), config.faults.is_some())?;
        let faults = match (captured, &config.faults) {
            (Some(snap), Some(plan)) => {
                let mut fs = FaultState::new(plan, network);
                fs.restore_state(snap).map_err(corrupt)?;
                Some(fs)
            }
            _ => None,
        };
        let release_violations = snapshot::dec_json(d)?;
        let mut st = QueuedState {
            core,
            units,
            paths,
            router_queues,
            stats: QueueStats {
                units_queued,
                units_dropped,
                max_queue_len,
                mean_wait: 0.0,
            },
            total_wait,
            dequeues,
            units_sent,
            faults,
            release_violations,
        };
        st.core.dec_suffix(d, network)?;
        d.expect_end()?;
        st.check_indices(transactions.len())?;
        Ok(st)
    }

    /// Range-checks the payment, unit, hop, and transaction indices the
    /// decoded state carries, so a tampered snapshot fails here instead of
    /// panicking inside the event loop.
    fn check_indices(&self, num_transactions: usize) -> Result<(), SnapshotError> {
        let units = self.units.len();
        for u in &self.units {
            snapshot::check_index("unit payment", u.payment, self.core.payments.len())?;
            if u.locked > u.path.len() {
                return Err(corrupt(format!(
                    "unit locked {} hops of a {}-hop path",
                    u.locked,
                    u.path.len()
                )));
            }
        }
        for &u in self.router_queues.iter().flatten().flatten() {
            snapshot::check_index("queued unit", u, units)?;
        }
        self.core.check_events(|ev| match ev {
            Event::Arrival(i) => snapshot::check_index("arrival", *i, num_transactions),
            Event::HopArrive { unit } | Event::SettleUnit { unit } => {
                snapshot::check_index("event unit", *unit, units)
            }
            _ => Ok(()),
        })
    }
}

/// Waterfilling path preference: max bottleneck, shorter path on ties.
/// `None` only for an empty candidate set (callers check first).
fn best_path<V: spider_core::BalanceView>(
    candidates: &[std::sync::Arc<Path>],
    view: &V,
) -> Option<std::sync::Arc<Path>> {
    candidates
        .iter()
        .map(|path| (path_bottleneck(view, path), path))
        .max_by(|a, b| a.0.cmp(&b.0).then(b.1.len().cmp(&a.1.len())))
        .map(|(_, path)| std::sync::Arc::clone(path))
}

/// Position a newly queued unit according to the queue policy.
fn insert_position(
    q: &VecDeque<usize>,
    units: &[UnitState],
    payments: &[PaymentState],
    policy: QueuePolicy,
    unit: usize,
) -> usize {
    match policy {
        QueuePolicy::Fifo => q.len(),
        QueuePolicy::SmallestFirst => q
            .iter()
            .position(|&other| units[other].amount > units[unit].amount)
            .unwrap_or(q.len()),
        QueuePolicy::EarliestDeadline => q
            .iter()
            .position(|&other| {
                payments[units[other].payment].deadline > payments[units[unit].payment].deadline
            })
            .unwrap_or(q.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_core::{NodeId, PaymentId};

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
    fn simple_payment_completes() {
        let g = line3(100);
        let txs = vec![tx(0, 0, 2, 30, 0.1)];
        let out = run_queued(&g, &txs, &QueuedConfig::new(10.0));
        assert_eq!(out.report.completed, 1);
        assert_eq!(out.report.units_sent, 3);
        assert_eq!(out.queues.units_dropped, 0);
    }

    #[test]
    fn optimistic_admission_uses_router_queue() {
        // Second hop starts empty toward node 2: units are admitted on hop
        // one and must WAIT at router 1 until opposing traffic arrives.
        let mut g = Network::new(3);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(100))
            .unwrap();
        g.add_channel_with_balances(NodeId(1), NodeId(2), Amount::ZERO, Amount::from_whole(50))
            .unwrap();
        let txs = vec![
            tx(0, 0, 2, 20, 0.1), // must queue at router 1
            tx(1, 2, 0, 20, 1.0), // opposing flow refills 1->2 side at settle
        ];
        let mut cfg = QueuedConfig::new(30.0);
        cfg.deadline = 20.0;
        let out = run_queued(&g, &txs, &cfg);
        assert!(
            out.queues.units_queued > 0,
            "units should queue: {:?}",
            out.queues
        );
        assert_eq!(out.report.completed, 2, "{:?}", out.report);
        assert!(out.queues.mean_wait > 0.0);
    }

    #[test]
    fn queued_units_expire_and_refund() {
        // Downstream never refills; queued units must drop and refund their
        // first-hop locks (conservation holds, delivered = 0).
        let mut g = Network::new(3);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(100))
            .unwrap();
        g.add_channel_with_balances(NodeId(1), NodeId(2), Amount::ZERO, Amount::from_whole(50))
            .unwrap();
        let txs = vec![tx(0, 0, 2, 20, 0.1)];
        let mut cfg = QueuedConfig::new(30.0);
        cfg.deadline = 2.0;
        let out = run_queued(&g, &txs, &cfg);
        assert_eq!(out.report.completed, 0);
        assert_eq!(out.report.delivered_volume, 0.0);
        // The Tick sweep must refund expired queued units even with no
        // opposing traffic to poke the queue.
        assert!(out.queues.units_dropped > 0, "{:?}", out.queues);
    }

    #[test]
    fn queue_beats_source_queueing_under_transient_imbalance() {
        // Bursty opposing flows: optimistic admission pipelines better than
        // full-bottleneck gating. Both must complete everything eventually;
        // the queued engine should not be slower.
        let g = line3(60);
        let mut txs = Vec::new();
        for i in 0..10u64 {
            txs.push(tx(2 * i, 0, 2, 25, 0.1 + i as f64));
            txs.push(tx(2 * i + 1, 2, 0, 25, 0.6 + i as f64));
        }
        let mut cfg = QueuedConfig::new(60.0);
        cfg.deadline = 30.0;
        let queued = run_queued(&g, &txs, &cfg);
        assert!(
            queued.report.success_ratio() > 0.9,
            "queued transport should deliver nearly everything: {}",
            queued.report.summary()
        );
    }

    #[test]
    fn policies_order_queues_differently() {
        // Inspect insert_position directly.
        let units = vec![
            UnitState {
                payment: 0,
                amount: Amount::from_whole(5),
                path: {
                    let g = line3(10);
                    std::sync::Arc::new(Path::new(&g, vec![NodeId(0), NodeId(1)]).unwrap())
                },
                locked: 1,
                queued_at: 0.0,
                dropped: false,
            },
            UnitState {
                payment: 1,
                amount: Amount::from_whole(1),
                path: {
                    let g = line3(10);
                    std::sync::Arc::new(Path::new(&g, vec![NodeId(0), NodeId(1)]).unwrap())
                },
                locked: 1,
                queued_at: 0.0,
                dropped: false,
            },
        ];
        let payments = vec![
            PaymentState {
                id: PaymentId(0),
                src: NodeId(0),
                dst: NodeId(1),
                amount: Amount::from_whole(5),
                arrival: 0.0,
                deadline: 9.0,
                delivered: Amount::ZERO,
                inflight: Amount::ZERO,
                status: PaymentStatus::Pending,
                completed_at: None,
            },
            PaymentState {
                id: PaymentId(1),
                src: NodeId(0),
                dst: NodeId(1),
                amount: Amount::from_whole(1),
                arrival: 0.0,
                deadline: 2.0,
                delivered: Amount::ZERO,
                inflight: Amount::ZERO,
                status: PaymentStatus::Pending,
                completed_at: None,
            },
        ];
        let q: VecDeque<usize> = VecDeque::from([0]);
        // FIFO appends.
        assert_eq!(
            insert_position(&q, &units, &payments, QueuePolicy::Fifo, 1),
            1
        );
        // Smallest-first puts the 1-token unit ahead of the 5-token one.
        assert_eq!(
            insert_position(&q, &units, &payments, QueuePolicy::SmallestFirst, 1),
            0
        );
        // EDF puts the tighter deadline first.
        assert_eq!(
            insert_position(&q, &units, &payments, QueuePolicy::EarliestDeadline, 1),
            0
        );
    }

    #[test]
    fn outage_drops_locked_units_and_queues_absorb_recovery() {
        use crate::faults::{FaultConfig, FaultEvent, FaultPlan};
        use spider_core::ChannelId;
        // Channel 1 dies while units are mid-path: locked prefixes crossing
        // it are refunded. After recovery the source re-sends and the
        // payment still completes — router queues plus source re-pumping
        // absorb the outage.
        let g = line3(100);
        let txs = vec![tx(0, 0, 2, 30, 0.1)];
        let plan = FaultPlan::scripted(
            vec![
                (0.3, FaultEvent::ChannelDown(ChannelId(1))),
                (1.0, FaultEvent::ChannelUp(ChannelId(1))),
            ],
            FaultConfig::default(),
        );
        let mut cfg = QueuedConfig::new(20.0);
        cfg.deadline = 15.0;
        cfg.faults = Some(plan);
        let out = run_queued(&g, &txs, &cfg);
        let stats = out.report.faults.expect("fault stats present");
        assert_eq!(stats.outages, 1);
        assert_eq!(stats.recoveries, 1);
        assert_eq!(out.report.completed, 1, "{:?}", out.report);
        assert!(
            out.report.audit_violations.is_empty(),
            "{:?}",
            out.report.audit_violations
        );
        // Determinism under faults.
        let again = run_queued(&g, &txs, &cfg);
        assert_eq!(
            serde_json::to_string(&out.report).unwrap(),
            serde_json::to_string(&again.report).unwrap()
        );
    }

    #[test]
    fn deterministic() {
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
        let a = run_queued(&g, &txs, &QueuedConfig::new(15.0));
        let b = run_queued(&g, &txs, &QueuedConfig::new(15.0));
        assert_eq!(a.report.completed, b.report.completed);
        assert_eq!(a.report.units_sent, b.report.units_sent);
        assert_eq!(a.queues.units_queued, b.queues.units_queued);
    }
}
