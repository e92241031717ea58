//! The message ledger: the bookkeeping every network model shares.
//!
//! A network model decides *when* things happen to a message. What it
//! owes its caller for each message is the same in every model: count
//! the injection, hold the message while it is in flight, and at
//! delivery build the [`Delivery`] and fold it into [`NetStats`].
//! [`Ledger`] is the one place that does this; a model keeps only its
//! timing rules (its events and its per-message state `T`) and answers
//! `stats` from its ledger.

use crate::msgtable::MsgTable;
use crate::net::{Delivery, Message, NetStats};
use crate::time::SimTime;

/// One message in flight: what every model needs back at delivery,
/// plus the model's own per-message state.
#[derive(Clone, Copy, Debug)]
pub struct InFlight<T> {
    pub msg: Message,
    pub injected_at: SimTime,
    pub state: T,
}

/// In-flight messages and statistics of one network model. `T` is
/// whatever the model keeps per message besides the message and its
/// injection time (`()` for most).
#[derive(Clone, Debug)]
pub struct Ledger<T = ()> {
    live: MsgTable<InFlight<T>>,
    stats: NetStats,
}

impl<T> Default for Ledger<T> {
    fn default() -> Self {
        Ledger {
            live: MsgTable::new(),
            stats: NetStats::default(),
        }
    }
}

impl<T> Ledger<T> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Count `msg` injected at `at` and hold it, with `state`, until
    /// [`Self::deliver`].
    pub fn inject(&mut self, at: SimTime, msg: Message, state: T) {
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
        self.book_injection();
    }

    /// Message `id`, or `None` once it has been delivered.
    #[inline]
    pub fn get(&self, id: u64) -> Option<&InFlight<T>> {
        self.live.get(id)
    }

    /// Retire message `id` at `at`: append its [`Delivery`] to `out` and
    /// count it.
    ///
    /// Panics if `id` is not in flight: the model delivered a message
    /// twice or one it never accepted.
    pub fn deliver(&mut self, at: SimTime, id: u64, out: &mut Vec<Delivery>) {
        let e = self
            .live
            .remove(id)
            .unwrap_or_else(|| panic!("delivery of message {id}, which is not in flight"));
        let d = Delivery {
            msg: e.msg,
            injected_at: e.injected_at,
            delivered_at: at,
        };
        self.book_delivery(d, out);
    }

    /// [`Self::inject`] for a model that holds its messages in flight
    /// itself: count one injection. (The analytic model keeps each
    /// message in its delivery heap's slab, addressed by slot: an
    /// id-keyed table beside it slowed every capture, EXPERIMENTS.md
    /// §P26.)
    pub fn book_injection(&mut self) {
        self.stats.injected += 1;
    }

    /// [`Self::deliver`] for a model that holds its messages in flight
    /// itself: count `d` and append it to `out`.
    pub fn book_delivery(&mut self, d: Delivery, out: &mut Vec<Delivery>) {
        self.stats.record_delivery(&d);
        out.push(d);
    }

    /// Statistics since construction.
    pub fn stats(&self) -> &NetStats {
        &self.stats
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
    fn deliver_books_the_message_and_forgets_it() {
        let mut l: Ledger<u8> = Ledger::new();
        l.inject(ps(100), msg(7), 3);
        assert_eq!(l[7].state, 3);
        let mut out = Vec::new();
        l.deliver(ps(350), 7, &mut out);
        assert_eq!(out[0].msg.id, MsgId(7));
        assert!(l.get(7).is_none());
        assert_eq!(out[0].latency().as_ps(), 250);
        assert_eq!((l.stats().injected, l.stats().delivered), (1, 1));
    }

    #[test]
    #[should_panic(expected = "not in flight")]
    fn delivering_twice_is_a_model_bug() {
        let mut l: Ledger = Ledger::new();
        let mut out = Vec::new();
        l.inject(ps(0), msg(1), ());
        l.deliver(ps(1), 1, &mut out);
        l.deliver(ps(2), 1, &mut out);
    }
}
