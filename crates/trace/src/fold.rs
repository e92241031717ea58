//! What the self-correction loop reads of a replay, accumulated a
//! message at a time in id order.
//!
//! The loop reads three things of each iteration's pass: the pair
//! correction factors it installs in the capture model, and the mean
//! latency of each message class for its report. All three are sums
//! over the messages in id order, and f64 sums depend on their order,
//! so they are folded in that order whoever delivers the messages: a
//! streamed pass calls its fold as the front of contiguously delivered
//! ids moves ([`crate::replay::replay_sctm_stream`]), and a whole-log
//! pass is walked into the same [`ReplayFold`] once it has finished.
//!
//! `Corrections` keeps a cell only for the (src, dst, class) flows
//! that carried messages, in an open-addressed table: a dense
//! `nodes² × 2` table is 192 KiB at 64 cores, where every cell is used,
//! but 48 MiB at 1 024, where 122 k of 2.1 M are (DESIGN.md §7).

use crate::log::TraceLog;
use crate::replay::ReplayResult;
use sctm_engine::net::{Message, MsgClass};
use sctm_engine::stats::Running;
use sctm_engine::time::SimTime;

/// A slot with no cell.
const EMPTY: u32 = u32::MAX;

/// Slots of a table's first allocation.
const MIN_SLOTS: usize = 16;

/// One (src, dst, class) flow's sums: replay latency and base-model
/// latency in picoseconds, and its message count.
#[derive(Clone, Copy, Debug)]
struct Cell {
    key: u64,
    latency: f64,
    base: f64,
    count: u64,
}

/// Per-(src, dst, class) correction factors accumulated over one
/// replay: observed replay latency divided by the capture model's base
/// latency, summed a message at a time ([`Corrections::push`]).
///
/// The cells are kept in the order their flows first carried a message,
/// behind an open-addressed index of slots at most half full (the
/// idiom of `sctm_engine::msgtable`): one multiply finds a flow's home
/// slot, linear probing its cell. Each cell sums its messages in the
/// order they are pushed, so pushed in id order the factors are those
/// of a dense table walked in id order, to the bit.
#[derive(Clone, Debug)]
pub(crate) struct Corrections {
    /// Each slot's index into `cells`, or [`EMPTY`]: a power of two
    /// long (or empty), at least twice `cells.len()`.
    slots: Vec<u32>,
    cells: Vec<Cell>,
    /// `64 − log2(slots.len())`: the shift that leaves a key's home.
    shift: u32,
}

impl Default for Corrections {
    fn default() -> Self {
        Corrections {
            slots: Vec::new(),
            cells: Vec::new(),
            shift: 64,
        }
    }
}

/// A flow's key, in (src, dst, Control-before-Data) order.
#[inline]
fn key_of(msg: &Message) -> u64 {
    debug_assert!(msg.src.0 < 1 << 31, "node {} exceeds a key", msg.src.0);
    (u64::from(msg.src.0) << 33)
        | (u64::from(msg.dst.0) << 1)
        | (msg.class == MsgClass::Data) as u64
}

impl Corrections {
    /// Forget every flow, keeping the table's allocation.
    pub(crate) fn clear(&mut self) {
        self.cells.clear();
        self.slots.fill(EMPTY);
    }

    /// The slot probing for `key` starts at. The source sits in the
    /// key's top half, so it is folded down before the multiply.
    #[inline]
    fn home(&self, key: u64) -> usize {
        ((key ^ (key >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// `Ok(cell)` of `key`, or `Err(slot)`: the free slot that ends its
    /// probe.
    #[inline]
    fn probe(&self, key: u64) -> Result<usize, usize> {
        let mask = self.slots.len().wrapping_sub(1);
        if self.slots.is_empty() {
            return Err(0);
        }
        let mut s = self.home(key);
        loop {
            match self.slots[s] {
                EMPTY => return Err(s),
                c if self.cells[c as usize].key == key => return Ok(c as usize),
                _ => s = (s + 1) & mask,
            }
        }
    }

    /// Double the slots (at least [`MIN_SLOTS`]) and index every cell
    /// again.
    fn grow(&mut self) {
        let n = (2 * self.slots.len()).max(MIN_SLOTS);
        self.slots.clear();
        self.slots.resize(n, EMPTY);
        self.shift = 64 - n.trailing_zeros();
        for c in 0..self.cells.len() {
            if let Err(s) = self.probe(self.cells[c].key) {
                self.slots[s] = c as u32;
            }
        }
    }

    /// Add one message of `msg`'s flow: its replay `latency` and the
    /// capture model's `base` latency for it.
    #[inline]
    pub(crate) fn push(&mut self, msg: &Message, latency: SimTime, base: SimTime) {
        let key = key_of(msg);
        let c = loop {
            match self.probe(key) {
                Ok(c) => break c,
                Err(s) if 2 * (self.cells.len() + 1) <= self.slots.len() => {
                    self.slots[s] = self.cells.len() as u32;
                    self.cells.push(Cell {
                        key,
                        latency: 0.0,
                        base: 0.0,
                        count: 0,
                    });
                    break self.cells.len() - 1;
                }
                Err(_) => self.grow(),
            }
        };
        let cell = &mut self.cells[c];
        cell.latency += latency.as_ps() as f64;
        cell.base += base.as_ps() as f64;
        cell.count += 1;
    }

    /// The factor and message count of every flow with a positive base
    /// latency, in (src, dst, Control-before-Data) order — the order the
    /// loop installs them in and sums their movement over. The table is
    /// left empty for the next replay.
    pub(crate) fn factors(&mut self) -> Vec<((u32, u32, MsgClass), f64, u64)> {
        self.cells.sort_unstable_by_key(|c| c.key);
        let mut out = Vec::with_capacity(self.cells.len());
        out.extend((self.cells.iter().filter(|c| c.base > 0.0)).map(|c| {
            let class = if c.key & 1 == 0 {
                MsgClass::Control
            } else {
                MsgClass::Data
            };
            let (src, dst) = ((c.key >> 33) as u32, (c.key >> 1) as u32);
            ((src, dst, class), c.latency / c.base, c.count)
        }));
        self.clear();
        out
    }
}

/// Everything the self-correction loop reads of one replay besides its
/// estimate, folded a message at a time in id order: the flows'
/// correction sums and each class's mean latency.
#[derive(Clone, Debug, Default)]
pub struct ReplayFold {
    corrections: Corrections,
    control: Running,
    data: Running,
}

impl ReplayFold {
    pub fn new() -> Self {
        Self::default()
    }

    /// Start over for the next replay, keeping the table's allocation.
    pub fn clear(&mut self) {
        self.corrections.clear();
        self.control = Running::new();
        self.data = Running::new();
    }

    /// Fold the next message in id order: `msg`, injected at `inject`
    /// and delivered at `deliver` in the replay, with `base` its base
    /// latency on the capture model.
    #[inline]
    pub fn push(&mut self, msg: &Message, inject: SimTime, deliver: SimTime, base: SimTime) {
        let latency = deliver.saturating_since(inject);
        self.corrections.push(msg, latency, base);
        match msg.class {
            MsgClass::Control => &mut self.control,
            MsgClass::Data => &mut self.data,
        }
        .push(latency.as_ns_f64());
    }

    /// Fold every message of a whole-log pass over `log`, in id order.
    pub fn walk(
        &mut self,
        log: &TraceLog,
        result: &ReplayResult,
        mut base_latency: impl FnMut(&Message) -> SimTime,
    ) {
        for (msg, inject, deliver) in result.replayed(log) {
            self.push(&msg, inject, deliver, base_latency(&msg));
        }
    }

    /// [`ReplayResult::mean_latency_ns`] of one class.
    pub fn mean_latency_ns(&self, class: MsgClass) -> f64 {
        match class {
            MsgClass::Control => self.control.mean(),
            MsgClass::Data => self.data.mean(),
        }
    }

    /// [`crate::replay::pair_corrections`] of the replay folded, in
    /// (src, dst, Control-before-Data) order. The table is left empty
    /// for the next replay.
    pub fn corrections(&mut self) -> Vec<((u32, u32, MsgClass), f64, u64)> {
        self.corrections.factors()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sctm_engine::net::{MsgId, NodeId};

    fn msg(id: u64, src: u32, dst: u32, class: MsgClass) -> Message {
        Message {
            id: MsgId(id),
            src: NodeId(src),
            dst: NodeId(dst),
            class,
            bytes: 8,
        }
    }

    /// The dense table the sparse one replaced: a cell per (src, dst,
    /// class) of `nodes`, summed in push order, emitted in index order.
    fn dense(
        nodes: usize,
        pushed: &[(Message, u64, u64)],
    ) -> Vec<((u32, u32, MsgClass), f64, u64)> {
        let mut acc = vec![(0.0f64, 0.0f64, 0u64); nodes * nodes * 2];
        for (m, lat, base) in pushed {
            let c = (m.src.idx() * nodes + m.dst.idx()) * 2 + (m.class == MsgClass::Data) as usize;
            acc[c].0 += *lat as f64;
            acc[c].1 += *base as f64;
            acc[c].2 += 1;
        }
        let mut out = Vec::new();
        for (k, &(lat, base, count)) in acc.iter().enumerate() {
            if base > 0.0 {
                let class = [MsgClass::Control, MsgClass::Data][k % 2];
                let pair = k / 2;
                out.push((
                    ((pair / nodes) as u32, (pair % nodes) as u32, class),
                    lat / base,
                    count,
                ));
            }
        }
        out
    }

    /// Flows pushed in a scrambled order, some of them many times with
    /// values whose f64 sums depend on their order, across several
    /// growths of the index: the factors are the dense table's to the
    /// bit, in its order, and a cleared table starts over.
    #[test]
    fn sparse_factors_are_the_dense_tables() {
        let nodes = 37;
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut pushed = Vec::new();
        for id in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (src, dst) = ((x % nodes) as u32, ((x >> 20) % nodes) as u32);
            let class = if (x >> 40) & 1 == 0 {
                MsgClass::Control
            } else {
                MsgClass::Data
            };
            // A zero base leaves a flow out of the factors.
            let base = if src == 3 && dst == 5 {
                0
            } else {
                1 + (x >> 44) % 100_003
            };
            pushed.push((msg(id, src, dst, class), (x >> 8) % 1_000_007, base));
        }
        let mut table = Corrections::default();
        for round in 0..2 {
            for (m, lat, base) in &pushed {
                table.push(m, SimTime::from_ps(*lat), SimTime::from_ps(*base));
            }
            assert!(table.slots.len() >= 2 * table.cells.len(), "round {round}");
            let got = table.factors();
            let want = dense(nodes as usize, &pushed);
            assert_eq!(got.len(), want.len(), "round {round}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(
                    (g.0, g.1.to_bits(), g.2),
                    (w.0, w.1.to_bits(), w.2),
                    "round {round}"
                );
            }
            assert!(table.cells.is_empty());
        }
    }
}
