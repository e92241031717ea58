//! Golden captures, pinned byte for byte.
//!
//! The hashes were first generated on commit 95964fe (the parent of the
//! 40-byte trace rows) and held unmodified until the container stopped
//! storing the children CSR; they were regenerated once then, on top of
//! commit 35b1836. The new constants were proven against the old ones:
//! putting the CSR (built from `dep_csr()`) back into each new
//! container, setting flag bit 0 and recomputing the checksum
//! reproduces the old length and hash exactly. Each hash is FNV-1a over
//! `to_sctf_bytes` of the canonical capture — rows, dependency lists,
//! per-endpoint order, kind tags, both timestamps and the container
//! checksum — so a change anywhere between `CmpSim::send` and the sctf
//! writer that moves one byte of one trace moves a hash. Regenerate
//! only with
//! `GOLDEN_PRINT=1 cargo test --test golden_capture -- --nocapture`,
//! and never to make a change to the capture path pass.

use sctm::engine::hash::fnv1a;
use sctm::prelude::*;
use sctm_trace::sctf::to_sctf_bytes;

/// `(kernel, mesh side, ops per core, container bytes, FNV-1a)`.
const GOLDEN: [(Kernel, usize, usize, usize, u64); 4] = [
    (Kernel::Fft, 4, 300, 354_296, 0x701d_5f12_2ba7_49c8),
    (Kernel::Lu, 4, 300, 90_928, 0x7bba_ab58_c46a_adf0),
    (Kernel::Barnes, 4, 300, 136_696, 0xc233_871b_cc4b_3291),
    (Kernel::Fft, 8, 300, 1_429_424, 0x2d49_c4a0_0797_dd24),
];

#[test]
fn captures_match_the_pinned_containers() {
    let print = std::env::var_os("GOLDEN_PRINT").is_some();
    for (kernel, side, ops, want_len, want_hash) in GOLDEN {
        let log = Experiment::new(SystemConfig::new(side, NetworkKind::Omesh), kernel)
            .with_ops(ops)
            .with_seed(1)
            .capture();
        let bytes = to_sctf_bytes(&log);
        let got = (bytes.len(), fnv1a(&bytes));
        if print {
            println!(
                "    (Kernel::{kernel:?}, {side}, {ops}, {}, {:#018x}),",
                got.0, got.1
            );
            continue;
        }
        assert_eq!(got, (want_len, want_hash), "{} side {side}", kernel.label());
    }
}
