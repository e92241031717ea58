//! Multi-instance cache sharding.
//!
//! Several `sctmd` processes can partition the content-addressed
//! capture cache: each [`CaptureKey`] has exactly one *owner* instance,
//! chosen by consistent hashing over the key's existing FNV value. A
//! non-owner that misses forwards the capture to the owner via the
//! `fwd` verb instead of capturing locally, so a sweep over one
//! workload performs **one capture cluster-wide** — the single-flight
//! guarantee survives the network hop:
//!
//! - on the non-owner, the local `Pending` slot still dedups concurrent
//!   local requests (one forward per key, not N);
//! - on the owner, `fwd` goes through the owner's own
//!   `get_or_capture`, so racing forwards from several peers collapse
//!   onto one production there.
//!
//! A forward that fails (peer down, malformed reply) is counted
//! (`srv.shard.fwd_errors`) and the non-owner captures locally instead:
//! captures are deterministic, so the answer is the same bytes and only
//! the one-capture-per-cluster economy degrades. The owner never
//! re-forwards — it is by
//! definition the end of the chain — so there are no forwarding loops
//! and no distributed deadlock.
//!
//! The ring uses ~64 virtual nodes per peer (FNV over `"addr|vnode"`,
//! then a splitmix64 finalizer — raw FNV-1a of near-identical strings
//! clusters, because the last byte is multiplied by the prime only
//! once, and a clustered ring degenerates to one owner). The mix keeps
//! the key split within a few percent of even for small clusters while
//! staying entirely deterministic: every instance computes the same
//! ring from the same `--peers` list, no coordination protocol
//! required.

use crate::cache::CaptureKey;
use crate::proto::{fwd_line, parse_fwd_response, CacheOutcome};
use sctm_client::{Client, ClientOptions};
use sctm_core::trace::TraceLog;
use sctm_core::{Experiment, SctmError};
use std::collections::HashMap;
use std::sync::Mutex;

/// Virtual nodes per peer: enough that a two-instance ring splits keys
/// roughly evenly, cheap enough that ring construction is trivial.
const VNODES_PER_PEER: u32 = 64;

fn fnv64(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// splitmix64 finalizer. FNV-1a values of strings that differ only in
/// their last characters sit within `prime * small-delta` of each
/// other, so using them directly as ring positions collapses each
/// peer's vnodes into one tight arc. Mixing spreads both the vnode
/// positions and the key positions across the full u64 circle.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Deterministic consistent-hash ring over the peer list.
#[derive(Clone, Debug)]
pub struct ShardRing {
    /// Sorted ring points: (position, peer index).
    points: Vec<(u64, usize)>,
    peers: Vec<String>,
    self_index: usize,
}

impl ShardRing {
    /// Build the ring. `peers` is the full instance list (addresses as
    /// the clients will dial them), `self_addr` must be one of them.
    pub fn new(peers: Vec<String>, self_addr: &str) -> Result<ShardRing, SctmError> {
        if peers.is_empty() {
            return Err(SctmError::InvalidConfig("shard peer list is empty".into()));
        }
        let self_index = peers.iter().position(|p| p == self_addr).ok_or_else(|| {
            SctmError::InvalidConfig(format!(
                "shard self address '{self_addr}' is not in the peer list"
            ))
        })?;
        let mut points = Vec::with_capacity(peers.len() * VNODES_PER_PEER as usize);
        for (i, peer) in peers.iter().enumerate() {
            for v in 0..VNODES_PER_PEER {
                points.push((mix64(fnv64(&format!("{peer}|{v}"))), i));
            }
        }
        points.sort_unstable();
        points.dedup_by_key(|p| p.0);
        Ok(ShardRing {
            points,
            peers,
            self_index,
        })
    }

    pub fn peers(&self) -> &[String] {
        &self.peers
    }

    pub fn self_addr(&self) -> &str {
        &self.peers[self.self_index]
    }

    /// The owning peer of `key`: first ring point at or after the key's
    /// hash, wrapping to the first point.
    pub fn owner(&self, key: CaptureKey) -> &str {
        let (_, peer) = self.points[self.point_index(key)];
        &self.peers[peer]
    }

    /// Does this instance own `key`?
    pub fn owns(&self, key: CaptureKey) -> bool {
        self.points[self.point_index(key)].1 == self.self_index
    }

    fn point_index(&self, key: CaptureKey) -> usize {
        let pos = mix64(key.0);
        let idx = self.points.partition_point(|&(p, _)| p < pos);
        idx % self.points.len()
    }
}

/// Runtime shard state: the ring plus lazily-dialed pooled clients to
/// each peer. Peer connections are created on first forward and reused
/// through the [`Client`] pool thereafter.
pub struct Shard {
    ring: ShardRing,
    clients: Mutex<HashMap<String, std::sync::Arc<Client>>>,
    /// Dial/IO options for peer links; short-ish timeout so one hung
    /// peer degrades into local captures instead of wedging workers.
    opts: ClientOptions,
}

impl Shard {
    pub fn new(ring: ShardRing) -> Shard {
        Shard {
            ring,
            clients: Mutex::new(HashMap::new()),
            opts: ClientOptions {
                io_timeout_ms: 60_000,
                pool_cap: 4,
                max_busy_retries: 0,
            },
        }
    }

    pub fn ring(&self) -> &ShardRing {
        &self.ring
    }

    fn client_for(&self, addr: &str) -> Result<std::sync::Arc<Client>, SctmError> {
        let mut clients = self.clients.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(c) = clients.get(addr) {
            return Ok(std::sync::Arc::clone(c));
        }
        let c = std::sync::Arc::new(
            Client::connect_with(addr, self.opts)
                .map_err(|e| SctmError::Io(format!("dial shard peer {addr}: {e}")))?,
        );
        clients.insert(addr.to_string(), std::sync::Arc::clone(&c));
        Ok(c)
    }

    /// Fetch the capture for `exp` from its owning peer as an sctf frame.
    /// Called from a non-owner's capture stage as the single-flight
    /// producer, so at most one forward per key is in flight per
    /// instance. Any failure — dial, transport, malformed reply,
    /// undecodable payload — is a typed [`SctmError`]; the caller
    /// counts it and captures locally.
    pub fn fetch_from_owner(
        &self,
        owner: &str,
        exp: &Experiment,
        id: &str,
    ) -> Result<(TraceLog, CacheOutcome), SctmError> {
        let client = self.client_for(owner)?;
        let line = fwd_line(exp, id);
        let reply = client
            .call(&line)
            .map_err(|e| SctmError::Io(format!("fwd to {owner}: {e}")))?;
        parse_fwd_response(&reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring2() -> ShardRing {
        ShardRing::new(
            vec!["127.0.0.1:7001".into(), "127.0.0.1:7002".into()],
            "127.0.0.1:7001",
        )
        .unwrap()
    }

    #[test]
    fn every_instance_computes_the_same_owner() {
        let a = ring2();
        let b = ShardRing::new(a.peers().to_vec(), "127.0.0.1:7002").unwrap();
        for seed in 0..200u64 {
            let key = CaptureKey::new("fft", 4, 600, seed);
            assert_eq!(a.owner(key), b.owner(key));
            assert_eq!(a.owns(key), a.owner(key) == a.self_addr());
            assert_eq!(b.owns(key), b.owner(key) == b.self_addr());
            // Exactly one instance owns each key.
            assert_ne!(a.owns(key), b.owns(key));
        }
    }

    #[test]
    fn two_instance_split_is_roughly_even() {
        let ring = ring2();
        let owned = (0..1000u64)
            .filter(|&seed| ring.owns(CaptureKey::new("fft", 4, 600, seed)))
            .count();
        // Consistent hashing with 64 vnodes/peer: expect 50% ± a wide
        // margin; the guard is against a degenerate all-or-nothing ring.
        assert!((200..=800).contains(&owned), "owned {owned}/1000");
    }

    #[test]
    fn single_instance_ring_owns_everything() {
        let ring = ShardRing::new(vec!["a:1".into()], "a:1").unwrap();
        for seed in 0..50u64 {
            assert!(ring.owns(CaptureKey::new("lu", 8, 900, seed)));
        }
    }

    #[test]
    fn misconfigured_rings_are_rejected() {
        assert!(ShardRing::new(vec![], "a:1").is_err());
        assert!(ShardRing::new(vec!["a:1".into()], "b:2").is_err());
    }
}
