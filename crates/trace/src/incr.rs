//! What is left of the deleted incremental replay engine (DESIGN.md
//! §11): the names the frozen `benchmark/src/loops.rs` reads its
//! `trace.incr_*` metrics through. The next `[benchmark]` PR that drops
//! those metrics deletes this file; nothing else may use it.

use crate::replay::{replay_sctm_pass_with, ReplayResult, ReplayScratch};
use crate::TraceLog;
use sctm_engine::net::NetworkModel;

pub enum PassKind {
    Full,
    Spliced,
    Resumed { from_epoch: usize },
}

pub struct IncrPassStats {
    pub kind: PassKind,
    pub dirty: u64,
}

#[derive(Default)]
pub struct IncrReplayer;

impl IncrReplayer {
    pub fn new() -> Self {
        IncrReplayer
    }

    /// [`replay_sctm_pass_with`], reported as the full pass it is.
    pub fn replay(
        &mut self,
        log: &TraceLog,
        net: &mut Box<dyn NetworkModel>,
        scratch: &mut ReplayScratch,
    ) -> (ReplayResult, IncrPassStats) {
        let kind = PassKind::Full;
        let result = replay_sctm_pass_with(log, net.as_mut(), scratch);
        (result, IncrPassStats { kind, dirty: 0 })
    }
}
