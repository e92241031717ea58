//! Golden captures, pinned byte for byte.
//!
//! The hashes were first generated on commit 95964fe (the parent of the
//! 40-byte trace rows) and held unmodified until the container stopped
//! storing the children CSR; they were regenerated once then, on top of
//! commit 35b1836. The constants of that time were proven against the
//! ones before: putting the CSR (built from `dep_csr()`) back into each
//! container, setting flag bit 0 and recomputing the checksum
//! reproduced the old length and hash exactly. They were regenerated
//! once more when the trace stopped keeping a protocol kind and a
//! decision-order `prev` per message, on top of commit 1f88444. Those
//! constants were proven the other way round: the four captures written
//! to containers by commit 1f88444 (whose length and hash are the
//! constants before) decode with the code that dropped the two columns,
//! and re-encode to exactly the length and hash below. Each hash is
//! FNV-1a over `to_sctf_bytes` of the canonical capture — rows,
//! dependency lists, both timestamps and the container checksum — so a
//! change anywhere between `CmpSim::send` and the sctf writer that moves
//! one byte of one trace moves a hash. Regenerate
//! only with
//! `GOLDEN_PRINT=1 cargo test --test golden_capture -- --nocapture`,
//! and never to make a change to the capture path pass.

use sctm::engine::hash::fnv1a;
use sctm::prelude::*;
use sctm_trace::sctf::to_sctf_bytes;

/// `(kernel, mesh side, ops per core, container bytes, FNV-1a)`.
const GOLDEN: [(Kernel, usize, usize, usize, u64); 4] = [
    (Kernel::Fft, 4, 300, 289_656, 0x4651_ebd8_8b00_9e52),
    (Kernel::Lu, 4, 300, 74_952, 0x9950_03f4_0dcc_1316),
    (Kernel::Barnes, 4, 300, 111_992, 0x8d06_8f35_f639_23d8),
    (Kernel::Fft, 8, 300, 1_179_824, 0x79e2_9e60_4048_3165),
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
