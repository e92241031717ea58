//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files, around the calls
//! into each layer's public functions, kept in memory and written out
//! once at exit as Chrome-trace JSON. A layer's self time is its span
//! minus the part of it its child spans cover.

use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Which timed op the span belongs to.
    pub op_id: u32,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's spans. Threads each own a recorder sharing one epoch,
/// so their spans land on one time axis when merged for export.
pub struct Recorder {
    epoch: Instant,
    pub tid: u32,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(epoch: Instant, tid: u32) -> Self {
        Recorder {
            epoch,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; nested calls become its children.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        op_id: u32,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op_id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Time one call that records nothing itself.
    pub fn leaf<R>(&mut self, name: &'static str, op_id: u32, f: impl FnOnce() -> R) -> R {
        self.scope(name, op_id, |_| f())
    }
}

/// Self time per span: duration minus the union of its direct
/// children's intervals (children of one parent never overlap in a
/// single-threaded recorder, but the union keeps the arithmetic right
/// for any input).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            kids[p].push((
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            ));
        }
    }
    spans
        .iter()
        .zip(kids.iter_mut())
        .map(|(s, k)| {
            k.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in k.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Sum of durations of the spans named `name`, per op id, in ns.
pub fn per_op_total(spans: &[Span], name: &str) -> Vec<f64> {
    let mut by_op: std::collections::BTreeMap<u32, f64> = std::collections::BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *by_op.entry(s.op_id).or_default() += s.dur_ns() as f64;
    }
    by_op.into_values().collect()
}

/// Chrome trace-event JSON (`ph:"X"`, microsecond timestamps) of the
/// given per-thread recorders.
pub fn chrome_trace_json(recorders: &[&Recorder]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for r in recorders {
        for s in &r.spans {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"cat\":\"benchmark\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op_id\":{}}}}}",
                s.name,
                r.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.op_id
            ));
        }
    }
    out.push_str("\n]}\n");
    out
}
