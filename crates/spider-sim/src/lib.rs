//! Deterministic discrete-event simulator for payment channel networks.
//!
//! Reproduces the paper's evaluation substrate (§6.1):
//!
//! - [`ledger`] — live channel balances with HTLC-style in-flight locking
//!   and exact conservation of funds,
//! - [`events`] — a deterministic `(time, sequence)`-ordered event queue,
//! - [`payment`] — per-payment state and the payment lifecycle: arrival,
//!   unit send/settle/refund, completion, and abandonment, each one method
//!   that updates the payment and traces the transition,
//! - [`scheduler`] — SRPT/FIFO/LIFO/EDF service policies for pending
//!   payments and router queues,
//! - [`engine`] — the source-queued simulation loop driving any
//!   [`spider_routing::RoutingScheme`],
//! - [`engine_queued`] — the hop-by-hop transport with in-network router
//!   queues (Fig. 3 / §4.2),
//! - [`engine_sharded`] — the partition-parallel engine: one simulation
//!   split across threads by a [`spider_topology::Partition`], merged
//!   byte-identically at any shard count,
//! - [`faults`] — deterministic fault injection (outages, node churn, unit
//!   drops, jitter, griefing) and sender-side retry,
//! - [`congestion`] — AIMD congestion control at end hosts,
//! - [`rebalancer`] — on-chain rebalancing by routers,
//! - [`metrics`] — success ratio / success volume reporting,
//! - [`audit`] — opt-in ledger invariant checking after every
//!   balance-mutating event, reported as structured violations,
//! - [`snapshot`] — versioned `SPSN` checkpoints every engine resumes from
//!   byte-identically,
//! - [`wire`] — the wire encoding of transaction units.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod congestion;
pub mod engine;
pub mod engine_queued;
pub mod engine_sharded;
pub mod events;
pub mod faults;
pub mod ledger;
pub mod metrics;
pub mod payment;
pub mod rebalancer;
pub mod scheduler;
pub mod snapshot;
pub mod wire;

pub use audit::{AuditViolation, AuditViolationKind, LedgerAudit};
pub use congestion::{CongestionConfig, CongestionControl};
pub use engine::{run, SimConfig};
pub use engine_queued::{run_queued, QueueStats, QueuedConfig, QueuedReport};
pub use engine_sharded::{
    resume_sharded, run_sharded, run_sharded_checkpointed, ShardEpochMetrics, ShardObservability,
    ShardPolicy, ShardScheme, ShardedConfig,
};
pub use events::{EventQueue, Time};
pub use faults::{
    Blacklist, FaultConfig, FaultEvent, FaultPlan, FaultState, FaultStats, FaultView, RetryPolicy,
    UnitFate,
};
pub use ledger::{Ledger, LedgerView};
pub use metrics::SimReport;
pub use payment::{PaymentState, PaymentStatus};
pub use rebalancer::{RebalancePolicy, RebalanceStats};
pub use scheduler::{QueuePolicy, SchedulePolicy};
pub use snapshot::{latest_snapshot, CheckpointSpec, Snapshot, SnapshotError};
pub use wire::{HashLock, HopHeader, UnitPacket, WireError};
