//! Packets, flits, and message → packet conversion.
//!
//! Every [`Message`] maps to exactly one wormhole packet. The head flit
//! carries routing state and up to [`HEAD_PAYLOAD_BYTES`] of payload
//! (enough for a bare coherence control message, which therefore fits in
//! a single head-tail flit); remaining payload is segmented into
//! [`PacketizeConfig::flit_bytes`]-sized body flits, the last marked
//! Tail. Flits carry only the message id: the message itself stays in
//! the simulator's ledger until its tail flit ejects.

use sctm_engine::net::{Message, MsgId, NodeId};

/// Payload bytes that ride inside the head flit alongside the header.
pub const HEAD_PAYLOAD_BYTES: u32 = 8;

/// Position of a flit within its packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlitKind {
    /// Head of a multi-flit packet.
    Head,
    /// Interior flit.
    Body,
    /// Last flit of a multi-flit packet.
    Tail,
    /// Entire packet in one flit.
    HeadTail,
}

impl FlitKind {
    #[inline]
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }
    #[inline]
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }
}

/// One flow-control unit.
#[derive(Clone, Copy, Debug)]
pub struct Flit {
    pub kind: FlitKind,
    /// Packet (== message) this flit belongs to.
    pub pkt: MsgId,
    pub dst: NodeId,
    /// Virtual network (0 = control, 1 = data).
    pub vnet: u8,
    /// Cycle at which this flit may next compete for the switch
    /// (models link traversal + router pipeline depth).
    pub ready_cycle: u64,
}

impl Flit {
    /// Filler for a buffer slot that holds no flit.
    pub(crate) const EMPTY_SLOT: Flit = Flit {
        kind: FlitKind::HeadTail,
        pkt: MsgId(0),
        dst: NodeId(0),
        vnet: 0,
        ready_cycle: 0,
    };
}

/// Packetisation parameters.
#[derive(Clone, Copy, Debug)]
pub struct PacketizeConfig {
    /// Payload bytes per body flit (link width × phit count).
    pub flit_bytes: u32,
}

impl Default for PacketizeConfig {
    fn default() -> Self {
        PacketizeConfig { flit_bytes: 16 }
    }
}

impl PacketizeConfig {
    /// Number of flits for a message of `bytes` payload.
    pub fn flit_count(&self, bytes: u32) -> usize {
        if bytes <= HEAD_PAYLOAD_BYTES {
            1
        } else {
            1 + ((bytes - HEAD_PAYLOAD_BYTES) as usize).div_ceil(self.flit_bytes as usize)
        }
    }

    /// The flit sequence for `msg`, head first.
    pub fn packetize(&self, msg: &Message) -> impl ExactSizeIterator<Item = Flit> {
        let n = self.flit_count(msg.bytes);
        let vnet = match msg.class {
            sctm_engine::net::MsgClass::Control => 0,
            sctm_engine::net::MsgClass::Data => 1,
        };
        let (pkt, dst) = (msg.id, msg.dst);
        (0..n).map(move |i| {
            let kind = match (i, n) {
                (0, 1) => FlitKind::HeadTail,
                (0, _) => FlitKind::Head,
                (i, n) if i + 1 == n => FlitKind::Tail,
                _ => FlitKind::Body,
            };
            Flit {
                kind,
                pkt,
                dst,
                vnet,
                ready_cycle: 0,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sctm_engine::net::MsgClass;

    fn msg(bytes: u32) -> Message {
        Message {
            id: MsgId(7),
            src: NodeId(0),
            dst: NodeId(3),
            class: if bytes > 16 {
                MsgClass::Data
            } else {
                MsgClass::Control
            },
            bytes,
        }
    }

    #[test]
    fn control_fits_in_one_flit() {
        let c = PacketizeConfig::default();
        assert_eq!(c.flit_count(0), 1);
        assert_eq!(c.flit_count(8), 1);
        let flits: Vec<Flit> = c.packetize(&msg(8)).collect();
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].kind, FlitKind::HeadTail);
    }

    #[test]
    fn cacheline_is_five_flits() {
        let c = PacketizeConfig::default();
        // 64B line: 8B in head + 56B / 16B = 4 (3.5 rounded up) body flits
        assert_eq!(c.flit_count(64), 5);
        let flits: Vec<Flit> = c.packetize(&msg(64)).collect();
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert!(flits[1..4].iter().all(|f| f.kind == FlitKind::Body));
        assert_eq!(flits[4].kind, FlitKind::Tail);
    }

    #[test]
    fn boundary_sizes() {
        let c = PacketizeConfig::default();
        assert_eq!(c.flit_count(9), 2); // head + 1 body
        assert_eq!(c.flit_count(24), 2); // 8 + 16 exactly
        assert_eq!(c.flit_count(25), 3);
    }
}
