//! Mesh topology and XY dimension-order routing.
//!
//! Coordinates are `(x, y)` with node id `y * width + x`; port order is
//! fixed (N, E, S, W, Local) and iterated in that order everywhere, which
//! is part of the determinism contract.

use sctm_engine::net::NodeId;

/// Router port indices.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum Port {
    North = 0,
    East = 1,
    South = 2,
    West = 3,
    Local = 4,
}

pub const NUM_PORTS: usize = 5;
/// The four direction ports, in fixed iteration order.
pub const DIRS: [Port; 4] = [Port::North, Port::East, Port::South, Port::West];

impl Port {
    #[inline]
    pub fn idx(self) -> usize {
        self as usize
    }

    pub fn from_idx(i: usize) -> Port {
        match i {
            0 => Port::North,
            1 => Port::East,
            2 => Port::South,
            3 => Port::West,
            4 => Port::Local,
            _ => panic!("bad port index {i}"),
        }
    }

    /// The port on the neighbouring router that this port's link feeds.
    pub fn opposite(self) -> Port {
        match self {
            Port::North => Port::South,
            Port::East => Port::West,
            Port::South => Port::North,
            Port::West => Port::East,
            Port::Local => Port::Local,
        }
    }
}

/// A rectangular mesh.
#[derive(Clone, Copy, Debug)]
pub struct Topology {
    pub width: usize,
    pub height: usize,
}

impl Topology {
    pub fn mesh(width: usize, height: usize) -> Self {
        assert!(
            width >= 2 && height >= 1,
            "degenerate mesh {width}x{height}"
        );
        Topology { width, height }
    }

    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.width * self.height
    }

    #[inline]
    pub fn coords(&self, n: NodeId) -> (usize, usize) {
        let i = n.idx();
        debug_assert!(i < self.num_nodes());
        (i % self.width, i / self.width)
    }

    #[inline]
    pub fn node_at(&self, x: usize, y: usize) -> NodeId {
        debug_assert!(x < self.width && y < self.height);
        NodeId((y * self.width + x) as u32)
    }

    /// Neighbour of `n` through direction port `p`, if the link exists.
    pub fn neighbor(&self, n: NodeId, p: Port) -> Option<NodeId> {
        let (x, y) = self.coords(n);
        let (nx, ny) = match p {
            Port::North if y > 0 => (x, y - 1),
            Port::South if y + 1 < self.height => (x, y + 1),
            Port::West if x > 0 => (x - 1, y),
            Port::East if x + 1 < self.width => (x + 1, y),
            _ => return None,
        };
        Some(self.node_at(nx, ny))
    }

    /// Minimal (Manhattan) hop distance.
    pub fn hops(&self, a: NodeId, b: NodeId) -> usize {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        ax.abs_diff(bx) + ay.abs_diff(by)
    }

    /// Deterministic output port for XY dimension-order routing: X
    /// first, then Y, then `Local` at the destination.
    pub fn route_dor(&self, here: NodeId, dst: NodeId) -> Port {
        let (hx, hy) = self.coords(here);
        let (dx, dy) = self.coords(dst);
        if hx != dx {
            if dx > hx {
                Port::East
            } else {
                Port::West
            }
        } else if hy != dy {
            if dy > hy {
                Port::South
            } else {
                Port::North
            }
        } else {
            Port::Local
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_roundtrip() {
        let t = Topology::mesh(4, 4);
        for i in 0..16u32 {
            let (x, y) = t.coords(NodeId(i));
            assert_eq!(t.node_at(x, y), NodeId(i));
        }
    }

    #[test]
    fn mesh_neighbors_and_edges() {
        let t = Topology::mesh(4, 4);
        assert_eq!(t.neighbor(NodeId(0), Port::North), None);
        assert_eq!(t.neighbor(NodeId(0), Port::West), None);
        assert_eq!(t.neighbor(NodeId(0), Port::East), Some(NodeId(1)));
        assert_eq!(t.neighbor(NodeId(0), Port::South), Some(NodeId(4)));
        assert_eq!(t.neighbor(NodeId(5), Port::North), Some(NodeId(1)));
        assert_eq!(t.neighbor(NodeId(15), Port::East), None);
    }

    #[test]
    fn opposite_ports_pair_up() {
        let t = Topology::mesh(3, 3);
        for n in 0..9u32 {
            for p in DIRS {
                if let Some(m) = t.neighbor(NodeId(n), p) {
                    assert_eq!(t.neighbor(m, p.opposite()), Some(NodeId(n)));
                }
            }
        }
    }

    #[test]
    fn hops_are_manhattan() {
        let mesh = Topology::mesh(8, 8);
        assert_eq!(mesh.hops(NodeId(0), NodeId(7)), 7);
        assert_eq!(mesh.hops(NodeId(0), NodeId(63)), 14);
        assert_eq!(mesh.hops(NodeId(0), NodeId(0)), 0);
    }

    #[test]
    fn dor_reaches_destination() {
        let topo = Topology::mesh(5, 4);
        for s in 0..topo.num_nodes() as u32 {
            for d in 0..topo.num_nodes() as u32 {
                let (src, dst) = (NodeId(s), NodeId(d));
                let mut here = src;
                let mut steps = 0;
                loop {
                    let p = topo.route_dor(here, dst);
                    if p == Port::Local {
                        break;
                    }
                    here = topo.neighbor(here, p).expect("DOR picked a dead port");
                    steps += 1;
                    assert!(steps <= topo.num_nodes(), "DOR loop {src}->{dst}");
                }
                assert_eq!(here, dst);
                assert_eq!(steps, topo.hops(src, dst), "DOR not minimal {src}->{dst}");
            }
        }
    }
}
