//! Directory coherence protocol vocabulary and capture hooks.
//!
//! The CMP uses a MESI-lite full-map directory protocol: private L1s in
//! S/M states, a home directory slice per tile, shared L2 data tags as a
//! memory-traffic filter. Every protocol hop is a [`ProtocolMsg`]
//! carried as one network message — the traffic the paper's trace model
//! captures.
//!
//! The [`TraceHook`] is the instrumentation boundary: the execution-
//! driven simulator reports every injection (with its *causal
//! dependencies* — the deliveries that enabled it) and every delivery.
//! `sctm-trace` implements the hook to build trace logs; a [`NullHook`]
//! keeps the fast path free when tracing is off.

use crate::cache::LineAddr;
use sctm_engine::net::{Message, MsgId};
use sctm_engine::time::SimTime;

/// Maximum cores supported by the fixed-width sharer bitset. 1024
/// admits the side-32 photonic meshes the §P10 trace-format experiment
/// scales to; the word-array walk in `count`/`iter` stays cheap because
/// real sharer sets are sparse.
pub const MAX_CORES: usize = 1024;

/// Fixed-size sharer set (supports up to [`MAX_CORES`] cores).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Sharers {
    words: [u64; MAX_CORES / 64],
}

impl Sharers {
    pub fn empty() -> Self {
        Self::default()
    }

    pub fn single(core: usize) -> Self {
        let mut s = Self::default();
        s.insert(core);
        s
    }

    #[inline]
    pub fn insert(&mut self, core: usize) {
        debug_assert!(core < MAX_CORES);
        self.words[core / 64] |= 1 << (core % 64);
    }

    #[inline]
    pub fn remove(&mut self, core: usize) {
        self.words[core / 64] &= !(1 << (core % 64));
    }

    #[inline]
    pub fn contains(&self, core: usize) -> bool {
        self.words[core / 64] & (1 << (core % 64)) != 0
    }

    pub fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

/// Directory state of one line at its home slice.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DirState {
    /// No L1 holds the line.
    Uncached,
    /// Read-only copies at the given cores.
    Shared(Sharers),
    /// A single L1 holds the line writable.
    Modified(u16),
}

/// The wire-visible coherence messages.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProtocolMsg {
    /// Read request: core → home.
    GetS { line: LineAddr, requester: u16 },
    /// Write/ownership request: core → home.
    GetX { line: LineAddr, requester: u16 },
    /// Cache-line fill: home → core.
    Data {
        line: LineAddr,
        to: u16,
        grant_m: bool,
    },
    /// Ownership ack without data (upgrade hit): home → core.
    UpgAck { line: LineAddr, to: u16 },
    /// Recall of a modified line: home → owner.
    Fetch { line: LineAddr, owner: u16 },
    /// Owner no longer has the line (its writeback is in flight).
    FetchMiss { line: LineAddr },
    /// Invalidate a shared copy: home → sharer.
    Inv { line: LineAddr, target: u16 },
    /// Invalidation acknowledgement: sharer → home.
    InvAck { line: LineAddr },
    /// Dirty data to home (voluntary eviction or fetch response).
    WbData { line: LineAddr },
    /// L2-miss fill request: home → memory controller.
    MemReq { line: LineAddr },
    /// Memory fill data: memory controller → home.
    MemResp { line: LineAddr },
    /// Dirty L2 victim to memory: home → memory controller.
    WbMem { line: LineAddr },
    /// Barrier arrival: core → barrier master.
    BarArrive { id: u32, core: u16 },
    /// Barrier release: master → core.
    BarRelease { id: u32 },
}

impl ProtocolMsg {
    /// Whether this message carries a cache line (data class) or just a
    /// header (control class).
    pub fn is_data(&self) -> bool {
        matches!(
            self,
            ProtocolMsg::Data { .. }
                | ProtocolMsg::WbData { .. }
                | ProtocolMsg::MemResp { .. }
                | ProtocolMsg::WbMem { .. }
        )
    }

    pub fn line(&self) -> Option<LineAddr> {
        match *self {
            ProtocolMsg::GetS { line, .. }
            | ProtocolMsg::GetX { line, .. }
            | ProtocolMsg::Data { line, .. }
            | ProtocolMsg::UpgAck { line, .. }
            | ProtocolMsg::Fetch { line, .. }
            | ProtocolMsg::FetchMiss { line }
            | ProtocolMsg::Inv { line, .. }
            | ProtocolMsg::InvAck { line }
            | ProtocolMsg::WbData { line }
            | ProtocolMsg::MemReq { line }
            | ProtocolMsg::MemResp { line }
            | ProtocolMsg::WbMem { line } => Some(line),
            ProtocolMsg::BarArrive { .. } | ProtocolMsg::BarRelease { .. } => None,
        }
    }
}

/// One instruction-stream element delivered by a workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    /// Local computation for the given number of core cycles.
    Compute(u64),
    /// Read the byte address.
    Load(u64),
    /// Write the byte address.
    Store(u64),
    /// Global barrier with a monotonically increasing id.
    Barrier(u32),
    /// Core is done.
    Halt,
}

/// A multi-threaded workload: one deterministic op stream per core.
///
/// `Send` so a simulator that owns a boxed workload may be handed to
/// a worker thread; every implementor is plain owned data.
pub trait Workload: Send {
    /// Number of cores this instance was built for.
    fn num_cores(&self) -> usize;
    /// Next op for `core`. Must eventually return [`Op::Halt`] and keep
    /// returning it afterwards. Barrier ids must be identical across
    /// cores and strictly increasing.
    fn next_op(&mut self, core: usize) -> Op;
    /// Short label for reports.
    fn name(&self) -> &'static str;
}

/// Injection-side trace record handed to the capture hook.
#[derive(Clone, Copy, Debug)]
pub struct InjectRecord<'a> {
    pub msg: Message,
    /// When the message enters the source NI.
    pub at: SimTime,
    /// Deliveries whose completion enabled this injection (full causal
    /// knowledge; may be empty for spontaneous first messages). Borrowed
    /// from the simulator for the duration of the call: a hook that
    /// keeps them copies them into storage of its own.
    pub deps: &'a [MsgId],
}

/// Capture interface implemented by `sctm-trace`.
pub trait TraceHook {
    fn on_inject(&mut self, rec: InjectRecord<'_>);
    fn on_deliver(&mut self, id: MsgId, at: SimTime);
    /// The simulator is about to process its events at `now`: every
    /// event before `now` has run, and every later injection or
    /// delivery the hook is told of happens at or after `now`. Called
    /// once per distinct event time, in increasing order.
    #[inline]
    fn on_time(&mut self, _now: SimTime) {}
}

/// Zero-cost hook for untraced runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullHook;

impl TraceHook for NullHook {
    #[inline]
    fn on_inject(&mut self, _rec: InjectRecord<'_>) {}
    #[inline]
    fn on_deliver(&mut self, _id: MsgId, _at: SimTime) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharers_insert_remove_contains() {
        let mut s = Sharers::empty();
        assert!(s.is_empty());
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(255);
        assert_eq!(s.count(), 4);
        assert!(s.contains(63));
        assert!(s.contains(64));
        assert!(!s.contains(1));
        s.remove(63);
        assert!(!s.contains(63));
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn sharers_iter_in_order() {
        let mut s = Sharers::empty();
        for c in [5usize, 70, 3, 200] {
            s.insert(c);
        }
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, vec![3, 5, 70, 200]);
    }

    #[test]
    fn sharers_single() {
        let s = Sharers::single(77);
        assert_eq!(s.count(), 1);
        assert!(s.contains(77));
    }

    #[test]
    fn data_class_split() {
        let l = LineAddr(1);
        assert!(ProtocolMsg::Data {
            line: l,
            to: 0,
            grant_m: false
        }
        .is_data());
        assert!(ProtocolMsg::WbData { line: l }.is_data());
        assert!(!ProtocolMsg::GetS {
            line: l,
            requester: 0
        }
        .is_data());
        assert!(!ProtocolMsg::InvAck { line: l }.is_data());
        assert!(!ProtocolMsg::BarArrive { id: 0, core: 0 }.is_data());
    }

    #[test]
    fn line_extraction() {
        let l = LineAddr(42);
        assert_eq!(ProtocolMsg::Fetch { line: l, owner: 1 }.line(), Some(l));
        assert_eq!(ProtocolMsg::BarRelease { id: 3 }.line(), None);
    }
}
