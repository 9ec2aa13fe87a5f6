//! Per-payment simulation state and the payment lifecycle (§4.1).
//!
//! A payment arrives and splits into units. Each unit locks along a path,
//! then settles at the receiver or is refunded to the sender. The payment
//! completes once every token has settled, or is abandoned. Each transition
//! is one [`PaymentState`] method that updates the payment and records its
//! trace event; both event engines call these, so the state change, the
//! event, and (through [`Telemetry::emit`]) its counter happen in one place.

use spider_core::{Amount, NodeId, PaymentId};
use spider_telemetry::{Telemetry, TraceEvent};
use spider_workload::Transaction;

/// Converts an exact fixed-point amount to display tokens — the single
/// conversion point for every report/trace value the engines emit.
pub(crate) fn tokens(a: Amount) -> f64 {
    // spider-lint: allow(money-safety) — one conversion boundary for reports/traces
    a.as_tokens()
}

/// Lifecycle of a payment in the simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PaymentStatus {
    /// Still being (or waiting to be) transmitted.
    Pending,
    /// Fully delivered before its deadline.
    Completed,
    /// Given up: atomic routing failed, the scheme declared it unroutable,
    /// or the deadline passed. Partially delivered funds stay delivered.
    Abandoned,
}

/// Mutable state the engine tracks for each payment.
#[derive(Clone, Debug)]
pub struct PaymentState {
    /// The payment id from the input trace.
    pub id: PaymentId,
    /// Sender.
    pub src: NodeId,
    /// Receiver.
    pub dst: NodeId,
    /// Total payment value.
    pub amount: Amount,
    /// Arrival time (seconds).
    pub arrival: f64,
    /// Absolute deadline (seconds).
    pub deadline: f64,
    /// Value already settled at the receiver.
    pub delivered: Amount,
    /// Value locked in flight.
    pub inflight: Amount,
    /// Current lifecycle state.
    pub status: PaymentStatus,
    /// Completion time, once completed.
    pub completed_at: Option<f64>,
}

impl PaymentState {
    /// Value not yet sent (neither delivered nor in flight).
    pub fn remaining(&self) -> Amount {
        self.amount - self.delivered - self.inflight
    }

    /// `true` once every token has been settled.
    pub fn fully_delivered(&self) -> bool {
        self.delivered >= self.amount
    }

    /// Arrival: `tx` enters the simulator with a deadline `deadline`
    /// seconds out. A packet-switched payment passes the `mtu` it will be
    /// split at, which traces its planned unit count.
    pub(crate) fn arrive(
        tx: &Transaction,
        deadline: f64,
        mtu: Option<Amount>,
        now: f64,
        tel: &Telemetry,
    ) -> Self {
        tel.emit(|| TraceEvent::PaymentArrived {
            t: now,
            payment: tx.id.0,
            src: tx.src.0,
            dst: tx.dst.0,
            amount: tokens(tx.amount),
        });
        if let Some(mtu) = mtu {
            tel.emit(|| TraceEvent::PaymentSplit {
                t: now,
                payment: tx.id.0,
                // ceil(amount / mtu) in exact micro-units.
                units: (tx
                    .amount
                    .saturating_add(mtu)
                    .saturating_sub(Amount::from_micros(1))
                    .micros()
                    / mtu.micros())
                .max(0) as u64,
            });
        }
        PaymentState {
            id: tx.id,
            src: tx.src,
            dst: tx.dst,
            amount: tx.amount,
            arrival: tx.arrival,
            deadline: tx.arrival + deadline,
            delivered: Amount::ZERO,
            inflight: Amount::ZERO,
            status: PaymentStatus::Pending,
            completed_at: None,
        }
    }

    /// A unit of `amount` locked along a `hops`-hop path.
    pub(crate) fn send(&mut self, amount: Amount, hops: usize, now: f64, tel: &Telemetry) {
        self.inflight = self.inflight.saturating_add(amount);
        tel.emit(|| TraceEvent::UnitSent {
            t: now,
            payment: self.id.0,
            amount: tokens(amount),
            hops: hops as u32,
        });
    }

    /// A unit of `amount` settled at the receiver; completes the payment if
    /// that delivered its last token.
    pub(crate) fn settle(&mut self, amount: Amount, now: f64, tel: &Telemetry) {
        self.inflight = self.inflight.saturating_sub(amount);
        self.delivered = self.delivered.saturating_add(amount);
        tel.emit(|| TraceEvent::UnitSettled {
            t: now,
            payment: self.id.0,
            amount: tokens(amount),
        });
        self.complete_if_delivered(now, tel);
    }

    /// A unit of `amount` refunded to the sender: its value is no longer in
    /// flight and may be sent again.
    pub(crate) fn refund(&mut self, amount: Amount, now: f64, tel: &Telemetry) {
        self.inflight = self.inflight.saturating_sub(amount);
        tel.emit(|| TraceEvent::UnitRefunded {
            t: now,
            payment: self.id.0,
            amount: tokens(amount),
        });
    }

    /// Completion: a pending payment whose every token has settled.
    fn complete_if_delivered(&mut self, now: f64, tel: &Telemetry) {
        if self.status != PaymentStatus::Pending || !self.fully_delivered() {
            return;
        }
        self.status = PaymentStatus::Completed;
        self.completed_at = Some(now);
        let delay = now - self.arrival;
        tel.emit(|| TraceEvent::PaymentCompleted {
            t: now,
            payment: self.id.0,
            delay,
        });
    }

    /// Abandonment: the payment gives up. Value already delivered stays
    /// delivered (non-atomic transport).
    pub(crate) fn abandon(&mut self, now: f64, tel: &Telemetry) {
        self.status = PaymentStatus::Abandoned;
        tel.emit(|| TraceEvent::PaymentAbandoned {
            t: now,
            payment: self.id.0,
            delivered: tokens(self.delivered),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> PaymentState {
        PaymentState {
            id: PaymentId(1),
            src: NodeId(0),
            dst: NodeId(1),
            amount: Amount::from_whole(10),
            arrival: 0.0,
            deadline: 5.0,
            delivered: Amount::ZERO,
            inflight: Amount::ZERO,
            status: PaymentStatus::Pending,
            completed_at: None,
        }
    }

    #[test]
    fn remaining_accounts_for_inflight() {
        let mut p = state();
        assert_eq!(p.remaining(), Amount::from_whole(10));
        p.inflight = Amount::from_whole(4);
        p.delivered = Amount::from_whole(2);
        assert_eq!(p.remaining(), Amount::from_whole(4));
        assert!(!p.fully_delivered());
        p.delivered = Amount::from_whole(10);
        assert!(p.fully_delivered());
    }

    #[test]
    fn lifecycle_transitions_update_state_and_trace() {
        let tel = Telemetry::enabled();
        let tx = Transaction {
            id: PaymentId(7),
            src: NodeId(0),
            dst: NodeId(1),
            amount: Amount::from_whole(25),
            arrival: 1.0,
        };
        let ten = Amount::from_whole(10);
        let mut p = PaymentState::arrive(&tx, 5.0, Some(ten), 1.0, &tel);
        assert_eq!(p.deadline, 6.0);
        p.send(ten, 2, 1.0, &tel);
        p.send(Amount::from_whole(15), 3, 1.0, &tel);
        p.refund(ten, 1.2, &tel);
        assert_eq!(p.remaining(), ten, "a refunded unit may be sent again");
        p.settle(Amount::from_whole(15), 1.5, &tel);
        assert_eq!(p.status, PaymentStatus::Pending);
        p.send(ten, 2, 1.6, &tel);
        p.settle(ten, 2.0, &tel);
        assert_eq!(p.status, PaymentStatus::Completed);
        assert_eq!(p.completed_at, Some(2.0));

        let mut late = PaymentState::arrive(&tx, 5.0, None, 3.0, &tel);
        late.abandon(8.0, &tel);
        assert_eq!(late.status, PaymentStatus::Abandoned);

        let events = tel.events();
        let kinds: Vec<&str> = events.iter().map(TraceEvent::kind).collect();
        assert_eq!(
            kinds,
            [
                "payment_arrived",
                "payment_split",
                "unit_sent",
                "unit_sent",
                "unit_refunded",
                "unit_settled",
                "unit_sent",
                "unit_settled",
                "payment_completed",
                "payment_arrived",
                "payment_abandoned",
            ]
        );
        // 25 tokens at a 10-token MTU plan ceil(2.5) = 3 units.
        assert!(matches!(
            events[1],
            TraceEvent::PaymentSplit { units: 3, .. }
        ));
    }
}
