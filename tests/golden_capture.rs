//! Golden captures, pinned byte for byte.
//!
//! Every constant in `GOLDEN` was generated on commit 95964fe (PR 13, the
//! parent of the 40-byte trace rows) by running this file there with
//! `GOLDEN_PRINT=1`; the file passes unmodified on that commit and on
//! every later one. Each hash is FNV-1a over `to_sctf_bytes` of the
//! canonical capture — rows, dependency lists, per-endpoint order, kind
//! tags, both timestamps, the children CSR and the container checksum —
//! so a change anywhere between `CmpSim::send` and the sctf writer that
//! moves one byte of one trace moves a hash. Regenerate only with
//! `GOLDEN_PRINT=1 cargo test --test golden_capture -- --nocapture`, and
//! never to make a change to the capture path pass.

use sctm::engine::hash::fnv1a;
use sctm::prelude::*;
use sctm_trace::sctf::to_sctf_bytes;

/// `(kernel, mesh side, ops per core, container bytes, FNV-1a)`.
const GOLDEN: [(Kernel, usize, usize, usize, u64); 4] = [
    (Kernel::Fft, 4, 300, 474_528, 0x4160_2e7c_cffd_ca4b),
    (Kernel::Lu, 4, 300, 131_488, 0x7492_e039_a4bf_8fff),
    (Kernel::Barnes, 4, 300, 183_408, 0x3e33_d04a_a873_9202),
    (Kernel::Fft, 8, 300, 1_976_128, 0xca67_27c4_328e_f39d),
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
