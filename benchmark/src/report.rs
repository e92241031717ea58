//! What one workload run hands back, and how it is printed.

use crate::json::num;
use crate::spec::MetricDef;
use crate::stats;
use std::collections::BTreeMap;

#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the run's outputs were wrong; empty means correct.
    pub errors: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
    /// Quartiles and sample count beside a metric that is a median.
    pub spreads: BTreeMap<&'static str, (f64, f64, usize)>,
    /// FNV-1a over every result object the run produced, so a reviewer
    /// sees at once whether simulated statistics moved.
    pub sim_digest: u64,
    /// Result objects still to be folded into `sim_digest`. Windows are
    /// timed, so op counts differ between runs; the digest covers a
    /// fixed-length prefix of the op sequence so that it does not.
    pub digest_left: u64,
    /// Findings worth a line but not a failure (e.g. a thin ledger).
    pub notes: Vec<String>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Report {
    /// `digest_ops`: how many leading result objects the digest covers.
    pub fn new(digest_ops: u64) -> Self {
        Report {
            sim_digest: FNV_OFFSET,
            digest_left: digest_ops,
            ..Report::default()
        }
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    /// Record the median of `samples` under `name`, quartiles beside it.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        let (q1, q3) = stats::quartiles(samples);
        self.values.insert(name, stats::median(samples));
        self.spreads.insert(name, (q1, q3, samples.len()));
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        // Keep the first few reasons; a broken run repeats itself.
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    pub fn digest(&mut self, bytes: &[u8]) {
        if self.digest_left > 0 {
            self.digest_left -= 1;
            self.sim_digest = fnv1a(self.sim_digest, bytes);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// Every metric by name with its unit, one per line.
    pub fn human(&self, defs: &[MetricDef]) -> String {
        let mut out = String::new();
        for d in defs {
            let v = self.values.get(d.name).copied().unwrap_or(0.0);
            out.push_str(&format!("{:<28} {:>16.6} {}", d.name, v, d.unit));
            if let Some((q1, q3, n)) = self.spreads.get(d.name) {
                out.push_str(&format!("   q1 {q1:.6}  q3 {q3:.6}  n {n}"));
            }
            out.push('\n');
        }
        out
    }

    /// The result with quartiles, sample counts and the digest, for
    /// `result.json` and `--compare`.
    pub fn detail_json(&self, defs: &[MetricDef]) -> String {
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = self.values.get(d.name).copied().unwrap_or(0.0);
                let spread = match self.spreads.get(d.name) {
                    Some((q1, q3, n)) => {
                        format!(", \"q1\": {}, \"q3\": {}, \"n\": {n}", num(*q1), num(*q3))
                    }
                    None => String::new(),
                };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"{spread}}}",
                    d.name,
                    num(v),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"sim_digest\": \"{:016x}\", \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.sim_digest,
            metrics.join(", ")
        )
    }

    /// The one-line result object the gate reads.
    pub fn result_line(&self, defs: &[MetricDef]) -> String {
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    num(self.values.get(d.name).copied().unwrap_or(0.0)),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}
