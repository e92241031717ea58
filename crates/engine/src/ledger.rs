//! The message ledger: the bookkeeping every network model shares.
//!
//! A network model decides *when* things happen to a message. What it
//! owes its caller for each message is the same in every model: count
//! the injection, hold the message while it is in flight, and at
//! delivery build the [`Delivery`], fold it into [`NetStats`] and —
//! while lifecycle capture is on — record its [`MsgLifecycle`].
//! [`Ledger`] is the one place that does this; a model keeps only its
//! timing rules (its events, its per-message state `T`, its
//! [`LatencyBreakdown`] arithmetic) and answers `stats`,
//! `set_lifecycle_capture`, `lifecycle_capture` and `take_lifecycles`
//! from its ledger.
//!
//! Lifecycle bins live in their own [`MsgTable`], filled only while
//! capture is on, so the path with capture off touches the in-flight
//! table and a bounds check on the empty bins table.

use crate::msgtable::MsgTable;
use crate::net::{Delivery, LatencyBreakdown, Message, MsgLifecycle, NetStats};
use crate::time::SimTime;

/// One message in flight: what every model needs back at delivery,
/// plus the model's own per-message state.
#[derive(Clone, Copy, Debug)]
pub struct InFlight<T> {
    pub msg: Message,
    pub injected_at: SimTime,
    pub state: T,
}

/// In-flight messages, statistics and lifecycle capture of one network
/// model. `T` is whatever the model keeps per message besides the
/// message and its injection time (`()` for most).
#[derive(Clone, Debug)]
pub struct Ledger<T = ()> {
    live: MsgTable<InFlight<T>>,
    /// Bins of the messages whose lifecycle is being recorded: those
    /// injected while capture is on. Empty whenever capture is off.
    bins: MsgTable<LatencyBreakdown>,
    stats: NetStats,
    capture: bool,
    lifecycles: Vec<MsgLifecycle>,
}

impl<T> Default for Ledger<T> {
    fn default() -> Self {
        Ledger {
            live: MsgTable::new(),
            bins: MsgTable::new(),
            stats: NetStats::default(),
            capture: false,
            lifecycles: Vec::new(),
        }
    }
}

impl<T> Ledger<T> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Count `msg` injected at `at` and hold it, with `state`, until
    /// [`Self::deliver`]. While capture is on, returns the message's
    /// (zeroed) lifecycle bins for the model to book what it already
    /// knows.
    pub fn inject(&mut self, at: SimTime, msg: Message, state: T) -> Option<&mut LatencyBreakdown> {
        let id = msg.id.0;
        let prev = self.live.insert(
            id,
            InFlight {
                msg,
                injected_at: at,
                state,
            },
        );
        debug_assert!(prev.is_none(), "duplicate message id {id}");
        self.book_injection(id)
    }

    /// Message `id`, or `None` once it has been delivered.
    #[inline]
    pub fn get(&self, id: u64) -> Option<&InFlight<T>> {
        self.live.get(id)
    }

    /// The lifecycle bins of message `id`, if its lifecycle is being
    /// recorded.
    #[inline]
    pub fn bins(&mut self, id: u64) -> Option<&mut LatencyBreakdown> {
        if self.capture {
            self.bins.get_mut(id)
        } else {
            None
        }
    }

    /// Retire message `id` at `at`: append its [`Delivery`] to `out`,
    /// count it, and — if its lifecycle is being recorded — let `close`
    /// book the bins only the delivery can tell (it sees the delivery
    /// and the bins so far) before the lifecycle is recorded. The bins
    /// must then sum exactly to the latency. Returns the message.
    ///
    /// Panics if `id` is not in flight: the model delivered a message
    /// twice or one it never accepted.
    pub fn deliver(
        &mut self,
        at: SimTime,
        id: u64,
        out: &mut Vec<Delivery>,
        close: impl FnOnce(&Delivery, &mut LatencyBreakdown),
    ) -> Message {
        let e = self
            .live
            .remove(id)
            .unwrap_or_else(|| panic!("delivery of message {id}, which is not in flight"));
        let d = Delivery {
            msg: e.msg,
            injected_at: e.injected_at,
            delivered_at: at,
        };
        self.book_delivery(d, out, close);
        e.msg
    }

    /// [`Self::inject`] for a model that holds its messages in flight
    /// itself: count the injection of message `id` and, while capture
    /// is on, return its bins. (The analytic model keeps each message
    /// in its delivery heap's slab, addressed by slot: an id-keyed table
    /// beside it slowed every capture, EXPERIMENTS.md §P26.)
    pub fn book_injection(&mut self, id: u64) -> Option<&mut LatencyBreakdown> {
        self.stats.injected += 1;
        if !self.capture {
            return None;
        }
        self.bins.insert(id, LatencyBreakdown::default());
        self.bins.get_mut(id)
    }

    /// [`Self::deliver`] for a model that holds its messages in flight
    /// itself: count `d`, record its lifecycle as `deliver` does, and
    /// append it to `out`.
    pub fn book_delivery(
        &mut self,
        d: Delivery,
        out: &mut Vec<Delivery>,
        close: impl FnOnce(&Delivery, &mut LatencyBreakdown),
    ) {
        self.stats.record_delivery(&d);
        // Empty unless capture is on: one bounds check otherwise.
        if let Some(mut breakdown) = self.bins.remove(d.msg.id.0) {
            close(&d, &mut breakdown);
            debug_assert_eq!(
                breakdown.total_ps(),
                d.latency().as_ps(),
                "lifecycle bins of message {} do not sum to its latency: {breakdown:?}",
                d.msg.id.0
            );
            self.lifecycles.push(MsgLifecycle {
                msg: d.msg,
                injected_at: d.injected_at,
                delivered_at: d.delivered_at,
                breakdown,
            });
        }
        out.push(d);
    }

    /// Statistics since construction.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// See [`crate::net::NetworkModel::set_lifecycle_capture`] for the
    /// rule this implements. Switching off drops the bins of the
    /// messages in flight; lifecycles already recorded stay until
    /// taken.
    pub fn set_capture(&mut self, on: bool) {
        self.capture = on;
        if !on {
            self.bins.clear();
        }
    }

    pub fn capture(&self) -> bool {
        self.capture
    }

    /// Move every lifecycle recorded since the last call into `out`.
    pub fn take_lifecycles(&mut self, out: &mut Vec<MsgLifecycle>) {
        out.append(&mut self.lifecycles);
    }
}

impl<T> std::ops::Index<u64> for Ledger<T> {
    type Output = InFlight<T>;

    /// Panics if message `id` is not in flight (a model bug).
    #[inline]
    fn index(&self, id: u64) -> &InFlight<T> {
        &self.live[id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{MsgClass, MsgId, NodeId};

    fn msg(id: u64) -> Message {
        Message {
            id: MsgId(id),
            src: NodeId(0),
            dst: NodeId(1),
            class: MsgClass::Data,
            bytes: 64,
        }
    }

    fn ps(t: u64) -> SimTime {
        SimTime::from_ps(t)
    }

    #[test]
    fn records_exactly_the_messages_injected_while_capturing() {
        let mut l: Ledger = Ledger::new();
        let mut out = Vec::new();
        assert!(l.inject(ps(0), msg(0), ()).is_none());
        l.set_capture(true);
        l.inject(ps(5), msg(1), ()).expect("capturing").overhead_ps = 10;
        l.inject(ps(5), msg(2), ()).expect("capturing").overhead_ps = 20;
        // Injected before capture: delivered, counted, not recorded.
        assert!(l.bins(0).is_none());
        l.deliver(ps(30), 0, &mut out, |_, _| unreachable!());
        l.deliver(ps(15), 1, &mut out, |_, _| {});
        l.set_capture(false);
        // Switched off in flight: its bins are gone.
        l.deliver(ps(25), 2, &mut out, |_, _| unreachable!());
        let mut lc = Vec::new();
        l.take_lifecycles(&mut lc);
        assert_eq!(lc.len(), 1);
        assert_eq!((lc[0].msg.id, lc[0].latency_ps()), (MsgId(1), 10));
        assert_eq!(l.stats().injected, 3);
        assert_eq!(l.stats().delivered, 3);
        assert_eq!(out.len(), 3);
        l.take_lifecycles(&mut lc);
        assert_eq!(lc.len(), 1, "take_lifecycles drains");
    }

    #[test]
    fn close_books_what_only_the_delivery_knows() {
        let mut l: Ledger<u8> = Ledger::new();
        l.set_capture(true);
        l.inject(ps(100), msg(7), 3);
        assert_eq!(l[7].state, 3);
        let mut out = Vec::new();
        let m = l.deliver(ps(350), 7, &mut out, |d, bd| {
            bd.queue_ps = d.latency().as_ps();
        });
        assert_eq!(m.id, MsgId(7));
        assert!(l.get(7).is_none());
        let mut lc = Vec::new();
        l.take_lifecycles(&mut lc);
        assert_eq!(lc[0].breakdown.queue_ps, 250);
        assert_eq!(out[0].latency().as_ps(), 250);
    }

    #[test]
    #[should_panic(expected = "not in flight")]
    fn delivering_twice_is_a_model_bug() {
        let mut l: Ledger = Ledger::new();
        let mut out = Vec::new();
        l.inject(ps(0), msg(1), ());
        l.deliver(ps(1), 1, &mut out, |_, _| {});
        l.deliver(ps(2), 1, &mut out, |_, _| {});
    }
}
