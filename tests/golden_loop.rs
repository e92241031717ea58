//! Golden self-correction loops, pinned byte for byte.
//!
//! Every constant in `GOLDEN` was generated on commit df8f2d1 (PR 16, the
//! parent of the incremental-replay deletion) by running this file there
//! with `GOLDEN_PRINT=1`; the file passes unmodified on that commit and
//! on every later one. Each hash is FNV-1a over the `"result"` object
//! `sctmd` would answer with — `result_json` of the loop's report:
//! estimate, message count, both mean latencies, the verdict and every
//! iteration's `est_ps`/`drift_ps`/`corrections`/`messages` — so a change
//! anywhere in capture → replay → correct → re-capture, or in one of the
//! five detailed network models, that moves one digit of one iteration
//! moves a hash. Regenerate only with
//! `GOLDEN_PRINT=1 cargo test --test golden_loop -- --nocapture`, and
//! never to make a change to the loop path pass.

use sctm::prelude::*;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const SIDE: usize = 4;
const OPS: usize = 160;

/// Per kernel, `(result bytes, FNV-1a)` on each of
/// [`NetworkKind::DETAILED`], in that order.
const GOLDEN: [(Kernel, [(usize, u64); 5]); 3] = [
    (
        Kernel::Fft,
        [
            (745, 0x1156_4573_20ca_bb85),
            (745, 0x791e_6a78_d490_7c3b),
            (745, 0xc9a7_72cc_79d7_2aa5),
            (749, 0x4603_17df_2c9c_f789),
            (744, 0x4ae4_1604_f808_fbdf),
        ],
    ),
    (
        Kernel::Lu,
        [
            (733, 0xa2d0_7acc_4db8_0338),
            (1017, 0x8ca7_1792_7576_465c),
            (743, 0x430e_e707_a727_6e91),
            (744, 0x19af_67bb_1010_7be2),
            (738, 0xb26d_5a67_c958_4f83),
        ],
    ),
    (
        Kernel::Canneal,
        [
            (758, 0x1191_5133_3edb_885e),
            (759, 0x562a_0361_5315_4348),
            (759, 0x9d09_82fc_c6f0_20ba),
            (761, 0x2526_7bfe_83d9_9e2e),
            (755, 0xe035_f4ea_f942_30e0),
        ],
    ),
];

#[test]
fn loops_match_the_pinned_results_on_every_detailed_network() {
    let print = std::env::var_os("GOLDEN_PRINT").is_some();
    for (kernel, pinned) in GOLDEN {
        for (net, want) in NetworkKind::DETAILED.into_iter().zip(pinned) {
            let exp = Experiment::new(SystemConfig::new(SIDE, net), kernel)
                .with_ops(OPS)
                .with_capture_threads(1);
            let report = exp
                .execute(&RunSpec::self_correction(4))
                .expect("valid spec")
                .report;
            let json = sctm_srv::result_json(&report, &exp);
            let got = (json.len(), fnv1a(json.as_bytes()));
            if print {
                println!("{kernel:?} {net:?}: ({}, {:#018x}),", got.0, got.1);
                continue;
            }
            assert_eq!(got, want, "{} on {}", kernel.label(), net.label());
        }
    }
}
