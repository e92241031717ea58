//! Golden runs through every detailed network, pinned byte for byte.
//!
//! Each hash is FNV-1a over the `"result"` object `sctmd` would answer
//! with — `result_json` of the run's report: estimate, message count,
//! both mean latencies and, for the loop, the verdict and every
//! iteration's `est_ps`/`drift_ps`/`corrections`/`messages`. The
//! self-correction rows were generated on commit df8f2d1 (PR 16, the
//! parent of the incremental-replay deletion); a change anywhere in
//! capture → replay → correct → re-capture, or in one of the five
//! detailed network models, that moves one digit of one iteration moves
//! a hash. The exec-driven and online rows were generated on commit
//! 291f5d0 (PR 18, the parent of the sharded-capture deletion): they
//! hold the two `CmpSim` paths no capture golden reaches — the simulator
//! stepping a detailed network, and stepping the analytic model under
//! epoch correction — which tolerance asserts alone held before. The
//! file passes unmodified on its generating commits and on every later
//! one. Regenerate only with
//! `GOLDEN_PRINT=1 cargo test --test golden_loop -- --nocapture`, and
//! never to make a change to a simulation path pass.

use sctm::engine::hash::fnv1a;
use sctm::engine::time::SimTime;
use sctm::prelude::*;

const SIDE: usize = 4;
const OPS: usize = 160;

/// Per kernel, `(result bytes, FNV-1a)` on each of
/// [`NetworkKind::DETAILED`], in that order.
type Rows = [(Kernel, [(usize, u64); 5]); 3];

/// Per run request, its rows.
const GOLDEN: [(fn() -> RunSpec, Rows); 3] = [
    (
        || RunSpec::self_correction(4),
        [
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
        ],
    ),
    (
        RunSpec::exec_driven,
        [
            (
                Kernel::Fft,
                [
                    (416, 0x29b8_380a_698e_7fcb),
                    (417, 0xaeb5_5f60_e745_4ccb),
                    (418, 0xe63c_7eb4_9d2e_5008),
                    (418, 0x985d_0ed5_659d_b062),
                    (417, 0xbd70_84e5_c466_2cc8),
                ],
            ),
            (
                Kernel::Lu,
                [
                    (416, 0xb8bf_8ce8_c117_46d2),
                    (415, 0x24ab_fd42_dec0_5d2d),
                    (414, 0x0c65_fc31_987c_90d7),
                    (416, 0x8df3_a8cc_a113_d61a),
                    (414, 0xdf4b_d716_3942_8ceb),
                ],
            ),
            (
                Kernel::Canneal,
                [
                    (419, 0x7ae3_46cd_4966_9e27),
                    (422, 0x763b_2a6b_0d31_6cc5),
                    (421, 0x6bdf_4a31_aadf_a9ef),
                    (422, 0x74cb_e1bb_ec7b_ca9a),
                    (419, 0x764f_1c1f_58fd_fa90),
                ],
            ),
        ],
    ),
    (
        || RunSpec::online(SimTime::from_us(5)),
        [
            (
                Kernel::Fft,
                [
                    (413, 0xd7a1_a688_2ade_f4ab),
                    (413, 0x4d8d_5d14_dda0_dc24),
                    (411, 0x2938_7322_ab15_022c),
                    (414, 0xefcb_3c2c_011d_e950),
                    (411, 0x1edc_5ea4_be9a_7b18),
                ],
            ),
            (
                Kernel::Lu,
                [
                    (412, 0x09a3_1a9d_5a70_a937),
                    (412, 0x74fd_351b_9aab_15dd),
                    (411, 0x46e3_73ad_a246_7486),
                    (412, 0x705f_21b9_9856_197f),
                    (410, 0x8c53_d706_792c_f597),
                ],
            ),
            (
                Kernel::Canneal,
                [
                    (409, 0x2a62_6c98_8464_118f),
                    (418, 0xf77e_e7d3_d031_972b),
                    (416, 0xc7da_4ccc_6e25_f580),
                    (418, 0x4ef1_1ed8_1490_00ff),
                    (416, 0xa7f4_f35a_9ed6_9d7b),
                ],
            ),
        ],
    ),
];

#[test]
fn loops_match_the_pinned_results_on_every_detailed_network() {
    let print = std::env::var_os("GOLDEN_PRINT").is_some();
    for (spec, rows) in GOLDEN {
        let spec = spec();
        for (kernel, pinned) in rows {
            for (net, want) in NetworkKind::DETAILED.into_iter().zip(pinned) {
                let exp = Experiment::new(SystemConfig::new(SIDE, net), kernel).with_ops(OPS);
                let report = exp.execute(&spec).expect("valid spec").report;
                let json = sctm_srv::result_json(&report, &exp);
                let got = (json.len(), fnv1a(json.as_bytes()));
                let mode = spec.mode.label();
                if print {
                    println!("{mode} {kernel:?} {net:?}: ({}, {:#018x}),", got.0, got.1);
                    continue;
                }
                assert_eq!(got, want, "{mode}: {} on {}", kernel.label(), net.label());
            }
        }
    }
}
