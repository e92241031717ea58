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

/// Maximum cores a CMP is built with. 1024 admits the side-32 photonic
/// meshes the §P10 trace-format experiment scales to.
pub const MAX_CORES: usize = 1024;

/// The sharer sets of one directory: one bitset per line in
/// [`DirState::Shared`], each `cores.div_ceil(64)` words wide, in one
/// vector. A set is named by its index; a released set goes on a free
/// list and is the next one handed out. A line's state is then a word
/// whatever the core count, and a 64-core directory stores 8 bytes a
/// shared line, not the 128 a fixed 1 024-bit set took.
#[derive(Debug)]
pub(crate) struct Sharers {
    /// Words a set.
    width: usize,
    words: Vec<u64>,
    free: Vec<u32>,
}

impl Sharers {
    pub(crate) fn new(cores: usize) -> Self {
        Sharers {
            width: cores.div_ceil(64),
            words: Vec::new(),
            free: Vec::new(),
        }
    }

    fn set(&self, s: u32) -> &[u64] {
        let at = s as usize * self.width;
        &self.words[at..at + self.width]
    }

    fn set_mut(&mut self, s: u32) -> &mut [u64] {
        let at = s as usize * self.width;
        &mut self.words[at..at + self.width]
    }

    /// A new set holding `core` alone.
    pub(crate) fn single(&mut self, core: usize) -> u32 {
        let s = self.free.pop().unwrap_or_else(|| {
            let s = self.words.len() / self.width;
            self.words.resize(self.words.len() + self.width, 0);
            u32::try_from(s).expect("more sharer sets than a u32 names")
        });
        self.insert(s, core);
        s
    }

    /// Set `s` is no longer any line's: empty it for reuse.
    pub(crate) fn release(&mut self, s: u32) {
        self.set_mut(s).fill(0);
        self.free.push(s);
    }

    /// Sets handed out and not released.
    pub(crate) fn live(&self) -> usize {
        self.words.len() / self.width - self.free.len()
    }

    #[inline]
    pub(crate) fn insert(&mut self, s: u32, core: usize) {
        self.set_mut(s)[core / 64] |= 1 << (core % 64);
    }

    #[inline]
    pub(crate) fn contains(&self, s: u32, core: usize) -> bool {
        self.set(s)[core / 64] & (1 << (core % 64)) != 0
    }

    /// The cores of set `s`, ascending.
    pub(crate) fn iter(&self, s: u32) -> impl Iterator<Item = usize> + '_ {
        self.set(s).iter().enumerate().flat_map(|(wi, &w)| {
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
pub(crate) enum DirState {
    /// No L1 holds the line.
    Uncached,
    /// Read-only copies at the cores of this set of the directory's
    /// [`Sharers`].
    Shared(u32),
    /// A single L1 holds the line writable.
    Modified(u16),
}

// A directory entry is its line and this word: 16 bytes, where a state
// that embedded a 1 024-bit set made it 144.
const _: () = assert!(size_of::<DirState>() <= 8);

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

    fn cores(s: &Sharers, set: u32) -> Vec<usize> {
        s.iter(set).collect()
    }

    #[test]
    fn a_sharer_set_iterates_ascending_at_one_and_sixteen_words() {
        for (n, width, members) in [
            (4, 1, vec![3, 2, 0]),
            (64, 1, vec![63, 40, 1, 0]),
            (1024, 16, vec![1023, 700, 64, 63, 0]),
        ] {
            let mut s = Sharers::new(n);
            assert_eq!(s.width, width, "{n} cores");
            let set = s.single(members[0]);
            for &c in &members[1..] {
                s.insert(set, c);
            }
            let mut want = members.clone();
            want.sort_unstable();
            assert_eq!(cores(&s, set), want, "{n} cores");
            assert!((0..n).all(|c| s.contains(set, c) == members.contains(&c)));
        }
    }

    #[test]
    fn sets_are_apart_and_a_released_set_is_reused_empty() {
        for n in [64, 1024] {
            let mut s = Sharers::new(n);
            let a = s.single(3);
            let b = s.single(n - 1);
            s.insert(a, n - 2);
            assert_eq!(cores(&s, a), vec![3, n - 2]);
            assert_eq!(cores(&s, b), vec![n - 1]);
            assert_eq!(s.live(), 2);
            s.release(a);
            assert_eq!(s.live(), 1);
            let c = s.single(7);
            assert_eq!(c, a, "a released set is the next one handed out");
            assert_eq!(cores(&s, c), vec![7], "a reused set starts empty");
            assert_eq!(cores(&s, b), vec![n - 1]);
            assert_eq!(s.words.len(), 2 * s.width, "reuse grows nothing");
        }
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
