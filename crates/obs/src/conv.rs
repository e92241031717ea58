//! Convergence observability for the self-correction loop.
//!
//! The loop's only first-class convergence signal used to be a scalar
//! `drift` per iteration: when a run oscillated or stalled, nothing in
//! the telemetry explained *why*. This module holds the two pieces
//! that change that:
//!
//! 1. a per-iteration **drift ledger** ([`IterLedger`]) decomposing the
//!    scalar drift into per-(src,dst,class) correction-factor movement,
//!    with top-K mover extraction and per-source-node error series;
//! 2. **divergence detectors** ([`classify_unconverged`]) that turn the
//!    drift/factor-movement history into a typed
//!    [`ConvergenceVerdict`] — oscillation (sign-alternating factor
//!    deltas), stall (sub-epsilon movement without an exit), blow-up
//!    (monotone drift growth).
//!
//! The verdict itself is *always* computed — it rides on arithmetic
//! the loop already does — while the ledger is recorded only when
//! recording is enabled ([`crate::enabled`]), matching the crate's
//! disabled-path cost contract. Ledger attribution is conservative by
//! construction: each pair's share of the drift is proportional to its
//! message-weighted factor movement, so the shares (top-K movers plus
//! the `other` remainder) always sum back to the loop's scalar drift.

use crate::export::{json_escape, json_f64};
use crate::series::{CounterSeries, SeriesStore};
use crate::{enabled, lock_unpoisoned, with_global};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// How (or whether) one self-correction run converged.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ConvergenceVerdict {
    /// Exited because the estimate moved < 0.5% between iterations.
    ConvergedDrift,
    /// Exited because the correction table moved less than the
    /// configured factor epsilon.
    ConvergedFactorEpsilon,
    /// Ran out of iterations with sign-alternating factor movement:
    /// each re-capture overshoots the contention the previous
    /// correction just absorbed (the classic undamped failure mode).
    Oscillating,
    /// Ran out of iterations with sub-epsilon factor movement that
    /// never tripped an exit (factor-ε exits disabled).
    Stalled,
    /// Ran out of iterations with monotonically growing drift.
    Diverging,
    /// Ran out of iterations without matching any detector.
    Exhausted,
}

impl ConvergenceVerdict {
    /// Every verdict, in a fixed order (stable metric/report schema).
    pub const ALL: [ConvergenceVerdict; 6] = [
        ConvergenceVerdict::ConvergedDrift,
        ConvergenceVerdict::ConvergedFactorEpsilon,
        ConvergenceVerdict::Oscillating,
        ConvergenceVerdict::Stalled,
        ConvergenceVerdict::Diverging,
        ConvergenceVerdict::Exhausted,
    ];

    pub fn label(self) -> &'static str {
        match self {
            ConvergenceVerdict::ConvergedDrift => "converged-drift",
            ConvergenceVerdict::ConvergedFactorEpsilon => "converged-factor-epsilon",
            ConvergenceVerdict::Oscillating => "oscillating",
            ConvergenceVerdict::Stalled => "stalled",
            ConvergenceVerdict::Diverging => "diverging",
            ConvergenceVerdict::Exhausted => "exhausted",
        }
    }

    pub fn is_converged(self) -> bool {
        matches!(
            self,
            ConvergenceVerdict::ConvergedDrift | ConvergenceVerdict::ConvergedFactorEpsilon
        )
    }
}

/// Stall threshold when the run disabled the factor-ε exit: movement
/// this small would have tripped any reasonable epsilon.
pub const DEFAULT_STALL_EPSILON: f64 = 1e-3;

/// Signed factor movement below this is treated as noise by the
/// oscillation detector, so exactly-zero iterations never alternate.
const OSCILLATION_FLOOR: f64 = 1e-9;

/// Classify a run that exhausted its iteration budget without hitting
/// an exit, from the per-iteration drift history (ps), the
/// message-weighted *signed* factor movement history, and the final
/// (unsigned) factor movement. Detector priority: a blow-up outranks
/// oscillation outranks a stall — a diverging loop usually alternates
/// too, and naming the worse failure first is what a reader acts on.
pub fn classify_unconverged(
    drift_ps: &[u64],
    signed_moves: &[f64],
    last_factor_move: f64,
    stall_epsilon: f64,
) -> ConvergenceVerdict {
    let n = drift_ps.len();
    if n >= 3 {
        let d = &drift_ps[n - 3..];
        if d[0] < d[1] && d[1] < d[2] {
            return ConvergenceVerdict::Diverging;
        }
    }
    let m = signed_moves.len();
    if m >= 3 {
        let s = &signed_moves[m - 3..];
        if s.iter().all(|v| v.abs() > OSCILLATION_FLOOR)
            && s[0].signum() != s[1].signum()
            && s[1].signum() != s[2].signum()
        {
            return ConvergenceVerdict::Oscillating;
        }
    }
    if last_factor_move < stall_epsilon.max(0.0) {
        return ConvergenceVerdict::Stalled;
    }
    ConvergenceVerdict::Exhausted
}

/// One correction-factor update, as observed by the install loop:
/// the old installed factor, the freshly measured one, and what was
/// actually installed after damping/quantisation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PairMove {
    pub src: u32,
    pub dst: u32,
    /// Message-class label (`"ctrl"` / `"data"`).
    pub class: &'static str,
    pub factor_old: f64,
    pub factor_measured: f64,
    pub factor_new: f64,
    /// Messages this pair carried in the iteration's trace.
    pub messages: u64,
}

impl PairMove {
    /// Relative installed movement — the same quantity the loop's
    /// `factor_move` exit averages.
    fn rel_move(&self) -> f64 {
        (self.factor_new - self.factor_old).abs() / self.factor_old.abs().max(1e-12)
    }
}

/// A top-K mover in one iteration's ledger: a [`PairMove`] plus its
/// attributed share of the iteration's scalar drift.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LedgerEntry {
    pub pair: PairMove,
    /// This pair's proportional share of the iteration drift, in ps.
    pub drift_contrib_ps: f64,
}

/// Movers kept per iteration; everything else folds into
/// [`IterLedger::other_drift_ps`].
pub const TOP_K_MOVERS: usize = 8;

/// One iteration of the drift ledger.
#[derive(Clone, Debug)]
pub struct IterLedger {
    pub iteration: u32,
    pub est_ps: u64,
    pub drift_ps: u64,
    /// The damping weight the install used (constant per run, repeated
    /// here so a ledger row is self-describing).
    pub damping: f64,
    /// Message-weighted mean |relative factor movement| (the exit
    /// quantity).
    pub factor_move: f64,
    /// Message-weighted mean *signed* relative factor movement — the
    /// oscillation detector's input.
    pub signed_move: f64,
    /// Pairs whose installed factor actually changed.
    pub pairs_moved: u64,
    /// Pairs whose factor delta flipped sign against the previous
    /// iteration.
    pub sign_flips: u64,
    /// Top-[`TOP_K_MOVERS`] pairs by attributed drift, descending.
    pub movers: Vec<LedgerEntry>,
    /// Drift attributed to every pair *not* in `movers`; `movers`
    /// contributions plus this always sum to `drift_ps`.
    pub other_drift_ps: f64,
    /// Attributed drift per source node, ascending node id.
    pub node_err_ps: Vec<(u32, f64)>,
}

/// The full convergence record of one self-correction run.
#[derive(Clone, Debug)]
pub struct ConvRun {
    pub network: &'static str,
    pub workload: &'static str,
    pub verdict: ConvergenceVerdict,
    pub iterations: Vec<IterLedger>,
}

/// Per-run ledger builder, owned by the correction loop. Create one
/// only while recording is enabled; every `record_iteration` call
/// publishes the `sctm.conv.*` counters and appends a ledger row, and
/// [`ConvTracker::finish`] files the completed run into the global
/// store ([`conv_snapshot`]).
pub struct ConvTracker {
    network: &'static str,
    workload: &'static str,
    damping: f64,
    /// Last nonzero factor-delta sign per pair, for sign-flip counting.
    prev_sign: BTreeMap<(u32, u32, &'static str), i8>,
    iterations: Vec<IterLedger>,
}

impl ConvTracker {
    pub fn new(network: &'static str, workload: &'static str, damping: f64) -> Self {
        ConvTracker {
            network,
            workload,
            damping,
            prev_sign: BTreeMap::new(),
            iterations: Vec::new(),
        }
    }

    /// Fold one iteration into the ledger and publish its counters.
    pub fn record_iteration(
        &mut self,
        iteration: u32,
        est_ps: u64,
        drift_ps: u64,
        factor_move: f64,
        signed_move: f64,
        pairs: &[PairMove],
    ) {
        // Attribution weights: message-weighted relative movement, the
        // same quantity `factor_move` averages. A pair that did not
        // move gets no share; if *nothing* moved the drift cannot be
        // attributed (it came from re-capture interleaving alone) and
        // lands wholly in `other_drift_ps`.
        let weights: Vec<f64> = pairs
            .iter()
            .map(|p| p.rel_move() * p.messages as f64)
            .collect();
        let total_w: f64 = weights.iter().sum();

        let mut pairs_moved = 0u64;
        let mut sign_flips = 0u64;
        let mut node_err: BTreeMap<u32, f64> = BTreeMap::new();
        let mut entries: Vec<LedgerEntry> = Vec::with_capacity(pairs.len());
        for (p, w) in pairs.iter().zip(&weights) {
            let contrib = if total_w > 0.0 {
                drift_ps as f64 * (w / total_w)
            } else {
                0.0
            };
            let delta = p.factor_new - p.factor_old;
            let sign: i8 = match delta.partial_cmp(&0.0) {
                Some(std::cmp::Ordering::Greater) => 1,
                Some(std::cmp::Ordering::Less) => -1,
                _ => 0,
            };
            if sign != 0 {
                pairs_moved += 1;
                let key = (p.src, p.dst, p.class);
                if self.prev_sign.insert(key, sign) == Some(-sign) {
                    sign_flips += 1;
                }
            }
            *node_err.entry(p.src).or_insert(0.0) += contrib;
            entries.push(LedgerEntry {
                pair: *p,
                drift_contrib_ps: contrib,
            });
        }
        // Largest attributed drift first; full (src,dst,class) tiebreak
        // keeps the ledger deterministic under equal contributions.
        entries.sort_by(|a, b| {
            b.drift_contrib_ps
                .total_cmp(&a.drift_contrib_ps)
                .then_with(|| {
                    (a.pair.src, a.pair.dst, a.pair.class).cmp(&(
                        b.pair.src,
                        b.pair.dst,
                        b.pair.class,
                    ))
                })
        });
        let tail: f64 = entries
            .iter()
            .skip(TOP_K_MOVERS)
            .map(|e| e.drift_contrib_ps)
            .sum();
        let other_drift_ps = if total_w > 0.0 { tail } else { drift_ps as f64 };
        entries.truncate(TOP_K_MOVERS);

        self.iterations.push(IterLedger {
            iteration,
            est_ps,
            drift_ps,
            damping: self.damping,
            factor_move,
            signed_move,
            pairs_moved,
            sign_flips,
            movers: entries,
            other_drift_ps,
            node_err_ps: node_err.into_iter().collect(),
        });
    }

    /// Seal the run with its verdict: publish the `sctm.conv.*`
    /// counters and file the completed record into the global store.
    /// All registry traffic happens here, once per run, so the
    /// per-iteration path stays allocation- and lock-free on the
    /// registry side (the `conv_overhead` gate measures that).
    pub fn finish(self, verdict: ConvergenceVerdict) {
        if enabled() {
            let mut pairs_moved = 0u64;
            let mut sign_flips = 0u64;
            for it in &self.iterations {
                pairs_moved += it.pairs_moved;
                sign_flips += it.sign_flips;
            }
            with_global(|reg| {
                reg.counter_add("sctm.conv.iterations", self.iterations.len() as u64);
                reg.counter_add("sctm.conv.pairs_moved", pairs_moved);
                reg.counter_add("sctm.conv.sign_flips", sign_flips);
                if let Some(last) = self.iterations.last() {
                    reg.gauge_set("sctm.conv.last_drift_ps", last.drift_ps as f64);
                }
                reg.counter_add(format!("sctm.conv.verdict.{}", verdict.label()), 1);
            });
        }
        record_conv_run(ConvRun {
            network: self.network,
            workload: self.workload,
            verdict,
            iterations: self.iterations,
        });
    }
}

static CONV_RUNS: Mutex<Vec<ConvRun>> = Mutex::new(Vec::new());

/// File one completed run into the process-wide store.
pub fn record_conv_run(run: ConvRun) {
    lock_unpoisoned(&CONV_RUNS).push(run);
}

/// Every recorded run, in a deterministic order (network, workload;
/// same-config runs keep arrival order).
pub fn conv_snapshot() -> Vec<ConvRun> {
    let mut v = lock_unpoisoned(&CONV_RUNS).clone();
    v.sort_by(|a, b| (a.network, a.workload).cmp(&(b.network, b.workload)));
    v
}

pub fn reset_conv() {
    lock_unpoisoned(&CONV_RUNS).clear();
}

/// One "iteration tick" on the conv series timeline (1 ms of trace
/// time per iteration): iterations are ordinal, not simulated time,
/// but Perfetto counter tracks need timestamps.
pub const CONV_INTERVAL_PS: u64 = 1_000_000_000;

/// Render runs as counter series (`conv.<net>.<wl>.drift_ps`,
/// `.factor_move`, `.sign_flips`, and per-node `.node<NNN>.err_ps`)
/// for the Perfetto trace and the manifest `series` section.
pub fn conv_series(runs: &[ConvRun]) -> SeriesStore {
    let mut store = SeriesStore {
        interval_ps: CONV_INTERVAL_PS,
        series: Vec::new(),
    };
    for run in runs {
        let prefix = format!("conv.{}.{}", run.network, run.workload);
        let at = |it: u32| it as u64 * CONV_INTERVAL_PS;
        let mut drift = Vec::with_capacity(run.iterations.len());
        let mut fmove = Vec::with_capacity(run.iterations.len());
        let mut flips = Vec::with_capacity(run.iterations.len());
        let mut per_node: BTreeMap<u32, Vec<(u64, f64)>> = BTreeMap::new();
        for it in &run.iterations {
            drift.push((at(it.iteration), it.drift_ps as f64));
            fmove.push((at(it.iteration), it.factor_move));
            flips.push((at(it.iteration), it.sign_flips as f64));
            for &(node, err) in &it.node_err_ps {
                per_node
                    .entry(node)
                    .or_default()
                    .push((at(it.iteration), err));
            }
        }
        for (suffix, points) in [
            ("drift_ps", drift),
            ("factor_move", fmove),
            ("sign_flips", flips),
        ] {
            store.series.push(CounterSeries {
                name: format!("{prefix}.{suffix}"),
                node: 0,
                points,
            });
        }
        for (node, points) in per_node {
            store.series.push(CounterSeries {
                name: format!("{prefix}.node{node:03}.err_ps"),
                node,
                points,
            });
        }
    }
    store
}

/// The `convergence.json` report: every run's verdict and full ledger,
/// machine-readable. Schema kept flat and stable for the CI validator.
pub fn conv_report_json(runs: &[ConvRun]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\n  \"runs\": [");
    for (ri, run) in runs.iter().enumerate() {
        if ri > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"network\": \"{}\", \"workload\": \"{}\", \"verdict\": \"{}\", \"iterations\": [",
            json_escape(run.network),
            json_escape(run.workload),
            run.verdict.label(),
        );
        for (ii, it) in run.iterations.iter().enumerate() {
            if ii > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n      {{\"iteration\": {}, \"est_ps\": {}, \"drift_ps\": {}, \"damping\": {}, \
                 \"factor_move\": {}, \"signed_move\": {}, \"pairs_moved\": {}, \"sign_flips\": {}, \
                 \"other_drift_ps\": {}, \"movers\": [",
                it.iteration,
                it.est_ps,
                it.drift_ps,
                json_f64(it.damping),
                json_f64(it.factor_move),
                json_f64(it.signed_move),
                it.pairs_moved,
                it.sign_flips,
                json_f64(it.other_drift_ps),
            );
            for (mi, m) in it.movers.iter().enumerate() {
                if mi > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"src\": {}, \"dst\": {}, \"class\": \"{}\", \"factor_old\": {}, \
                     \"factor_measured\": {}, \"factor_new\": {}, \"messages\": {}, \
                     \"drift_contrib_ps\": {}}}",
                    m.pair.src,
                    m.pair.dst,
                    json_escape(m.pair.class),
                    json_f64(m.pair.factor_old),
                    json_f64(m.pair.factor_measured),
                    json_f64(m.pair.factor_new),
                    m.pair.messages,
                    json_f64(m.drift_contrib_ps),
                );
            }
            out.push_str("], \"node_err_ps\": [");
            for (ni, (node, err)) in it.node_err_ps.iter().enumerate() {
                if ni > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{}, {}]", node, json_f64(*err));
            }
            out.push_str("]}");
        }
        out.push_str("\n    ]}");
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pm(src: u32, dst: u32, old: f64, new: f64, messages: u64) -> PairMove {
        PairMove {
            src,
            dst,
            class: "data",
            factor_old: old,
            factor_measured: new,
            factor_new: new,
            messages,
        }
    }

    /// Drive a tracker without touching the global store/registry.
    fn ledger_for(pairs: &[PairMove], drift_ps: u64) -> IterLedger {
        let mut t = ConvTracker::new("omesh", "fft", 1.0);
        t.record_iteration(1, 10 * drift_ps.max(1), drift_ps, 0.1, 0.1, pairs);
        t.iterations.pop().expect("one iteration recorded")
    }

    #[test]
    fn ledger_attribution_sums_to_drift_exactly_when_nothing_moves() {
        let it = ledger_for(&[pm(0, 1, 1.0, 1.0, 50)], 777);
        assert!(it.movers.iter().all(|e| e.drift_contrib_ps == 0.0));
        assert_eq!(it.other_drift_ps, 777.0);
        assert_eq!(it.pairs_moved, 0);
    }

    #[test]
    fn top_k_extraction_orders_by_contribution_and_folds_the_tail() {
        let pairs: Vec<PairMove> = (0..TOP_K_MOVERS as u32 + 4)
            .map(|i| pm(i, i + 1, 1.0, 1.0 + 0.01 * (i + 1) as f64, 100))
            .collect();
        let it = ledger_for(&pairs, 1_000_000);
        assert_eq!(it.movers.len(), TOP_K_MOVERS);
        for w in it.movers.windows(2) {
            assert!(w[0].drift_contrib_ps >= w[1].drift_contrib_ps);
        }
        // The biggest mover is the pair with the largest relative move.
        assert_eq!(it.movers[0].pair.src, TOP_K_MOVERS as u32 + 3);
        assert!(it.other_drift_ps > 0.0);
    }

    #[test]
    fn sign_flips_count_alternating_pairs_across_iterations() {
        let mut t = ConvTracker::new("omesh", "fft", 1.0);
        t.record_iteration(1, 100, 50, 0.1, 0.1, &[pm(0, 1, 1.0, 1.2, 10)]);
        t.record_iteration(2, 100, 50, 0.1, -0.1, &[pm(0, 1, 1.2, 0.9, 10)]);
        t.record_iteration(3, 100, 50, 0.1, 0.1, &[pm(0, 1, 0.9, 1.1, 10)]);
        assert_eq!(
            t.iterations
                .iter()
                .map(|i| i.sign_flips)
                .collect::<Vec<_>>(),
            vec![0, 1, 1]
        );
    }

    #[test]
    fn node_error_series_attributes_by_source_node() {
        let it = ledger_for(
            &[
                pm(3, 1, 1.0, 2.0, 10),
                pm(3, 2, 1.0, 2.0, 10),
                pm(5, 1, 1.0, 2.0, 20),
            ],
            1000,
        );
        assert_eq!(it.node_err_ps.len(), 2);
        assert_eq!(it.node_err_ps[0].0, 3);
        assert_eq!(it.node_err_ps[1].0, 5);
        let total: f64 = it.node_err_ps.iter().map(|(_, e)| e).sum();
        assert!((total - 1000.0).abs() < 1e-6, "{total}");
    }

    #[test]
    fn detector_priority_diverging_beats_oscillating_beats_stall() {
        // Monotone growth wins even with alternating signs.
        assert_eq!(
            classify_unconverged(&[10, 20, 40], &[0.5, -0.5, 0.5], 0.5, 0.0),
            ConvergenceVerdict::Diverging
        );
        assert_eq!(
            classify_unconverged(&[40, 20, 40], &[0.5, -0.5, 0.5], 0.5, 0.0),
            ConvergenceVerdict::Oscillating
        );
        assert_eq!(
            classify_unconverged(&[40, 20, 10], &[0.5, 0.5, 0.5], 1e-6, DEFAULT_STALL_EPSILON),
            ConvergenceVerdict::Stalled
        );
        assert_eq!(
            classify_unconverged(&[40, 20, 10], &[0.5, 0.5, 0.5], 0.5, DEFAULT_STALL_EPSILON),
            ConvergenceVerdict::Exhausted
        );
        // Too short a history for the pattern detectors.
        assert_eq!(
            classify_unconverged(&[10, 20], &[0.5, -0.5], 0.5, 0.0),
            ConvergenceVerdict::Exhausted
        );
    }

    #[test]
    fn verdict_labels_are_unique_and_stable() {
        let labels: Vec<&str> = ConvergenceVerdict::ALL.iter().map(|v| v.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
        assert!(ConvergenceVerdict::ConvergedDrift.is_converged());
        assert!(!ConvergenceVerdict::Oscillating.is_converged());
    }

    #[test]
    fn series_and_report_cover_every_iteration() {
        let mut t = ConvTracker::new("oxbar", "lu", 0.5);
        t.record_iteration(1, 100, 50, 0.1, 0.1, &[pm(0, 1, 1.0, 1.5, 10)]);
        t.record_iteration(2, 100, 10, 0.05, -0.05, &[pm(0, 1, 1.5, 1.4, 10)]);
        let run = ConvRun {
            network: "oxbar",
            workload: "lu",
            verdict: ConvergenceVerdict::ConvergedDrift,
            iterations: t.iterations,
        };
        let store = conv_series(std::slice::from_ref(&run));
        assert_eq!(store.interval_ps, CONV_INTERVAL_PS);
        let drift = store
            .series
            .iter()
            .find(|s| s.name == "conv.oxbar.lu.drift_ps")
            .expect("drift series");
        assert_eq!(drift.points.len(), 2);
        assert!(store
            .series
            .iter()
            .any(|s| s.name == "conv.oxbar.lu.node000.err_ps"));

        let json = conv_report_json(std::slice::from_ref(&run));
        assert!(json.contains("\"verdict\": \"converged-drift\""));
        assert!(json.contains("\"iteration\": 2"));
        assert!(json.contains("\"node_err_ps\": [[0, "));
        crate::export::check_json(&json);
    }

    proptest! {
        /// The acceptance invariant: top-K mover contributions plus the
        /// folded remainder always reconstruct the loop's scalar drift.
        #[test]
        fn ledger_entries_sum_to_scalar_drift(
            drift_ps in 0u64..10_000_000_000,
            pairs in proptest::collection::vec(
                ((0u32..64, 0u32..64), (0.01f64..100.0, 0.01f64..100.0), 1u64..100_000),
                0..40,
            ),
        ) {
            let pairs: Vec<PairMove> = pairs
                .into_iter()
                .map(|((s, d), (old, new), msgs)| pm(s, d, old, new, msgs))
                .collect();
            let it = ledger_for(&pairs, drift_ps);
            let movers: f64 = it.movers.iter().map(|e| e.drift_contrib_ps).sum();
            let total = movers + it.other_drift_ps;
            let tol = 1e-9 * (drift_ps as f64).max(1.0);
            prop_assert!(
                (total - drift_ps as f64).abs() <= tol,
                "movers {movers} + other {} != drift {drift_ps}",
                it.other_drift_ps
            );
            // Node attribution is the same decomposition by source.
            let nodes: f64 = it.node_err_ps.iter().map(|(_, e)| e).sum();
            let unattributed = if it.pairs_moved == 0 && nodes == 0.0 {
                it.other_drift_ps
            } else {
                0.0
            };
            prop_assert!((nodes + unattributed - drift_ps as f64).abs() <= tol);
        }
    }
}
