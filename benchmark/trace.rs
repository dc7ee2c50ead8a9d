//! Host-time spans recorded around the calls the benchmark makes into
//! each layer's public API. The clock belongs to the benchmark, so the
//! library crates stay free of wall-clock reads (lint rule D2).
//!
//! Every span adds its *self time* (duration minus the time covered by
//! its child spans) to a per-kind total. Individual spans are kept in
//! memory only when `--trace-out` asks for them, and written as JSON
//! lines when the run ends.

use crate::json::quote;
use crate::measure::{median, Metrics};
use std::io::Write;
use std::time::Instant;

/// What a span covers: one public call (or one op of a workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One op of the workload's replay (frame, step, serve segment,
    /// chip scene).
    Op,
    /// Re-running a bundled call's public parts on captured inputs,
    /// outside the op timeline.
    Shadow,
    Sampler,
    ModelFwd,
    ModelBwd,
    EncodingFwd,
    EncodingBwd,
    MlpFwd,
    MlpBwd,
    Composite,
    CompositeBwd,
    Occupancy,
    Merge,
    Adam,
    Decode,
    RenderViews,
    TraceFrame,
    ChipSimulate,
    Observe,
}

const KINDS: usize = Kind::Observe as usize + 1;

impl Kind {
    /// Span name: the module (and call) it times.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Op => "op",
            Kind::Shadow => "shadow",
            Kind::Sampler => "nerf.sampler.sample_ray_into",
            Kind::ModelFwd => "nerf.model.forward_batch",
            Kind::ModelBwd => "nerf.model.backward_batch",
            Kind::EncodingFwd => "nerf.encoding.interpolate_batch",
            Kind::EncodingBwd => "nerf.encoding.backward_batch",
            Kind::MlpFwd => "nerf.mlp.forward_batch",
            Kind::MlpBwd => "nerf.mlp.backward_batch",
            Kind::Composite => "nerf.render.composite_into",
            Kind::CompositeBwd => "nerf.render.composite_backward_into",
            Kind::Occupancy => "nerf.occupancy.update",
            Kind::Merge => "nerf.trainer.merge",
            Kind::Adam => "nerf.adam.step",
            Kind::Decode => "nerf.io.decode_model_into",
            Kind::RenderViews => "nerf.pipeline.render_views_into",
            Kind::TraceFrame => "nerf.pipeline.trace_frame",
            Kind::ChipSimulate => "core.chip.simulate",
            Kind::Observe => "core.observe.observe_frame",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    kind: Kind,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

#[derive(Debug, Clone, Copy)]
struct Open {
    kind: Kind,
    start_ns: u64,
    child_ns: u64,
    /// Index into `spans` when spans are kept.
    index: Option<usize>,
}

/// The benchmark's span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    keep: bool,
    spans: Vec<Span>,
    open: Vec<Open>,
    self_ns: [u64; KINDS],
    total_ns: [u64; KINDS],
    count: [u64; KINDS],
    op: u64,
}

impl Tracer {
    /// A recorder that keeps individual spans when `keep` is set.
    pub fn new(keep: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            keep,
            spans: Vec::new(),
            open: Vec::new(),
            self_ns: [0; KINDS],
            total_ns: [0; KINDS],
            count: [0; KINDS],
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the op id stamped on spans begun from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span nested under the innermost open one.
    pub fn begin(&mut self, kind: Kind) {
        let index = self.keep.then(|| {
            self.spans.push(Span {
                kind,
                start_ns: 0,
                end_ns: 0,
                parent: self.open.last().and_then(|o| o.index),
                op: self.op,
            });
            self.spans.len() - 1
        });
        let start_ns = self.now_ns();
        if let Some(i) = index {
            self.spans[i].start_ns = start_ns;
        }
        self.open.push(Open { kind, start_ns, child_ns: 0, index });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let end_ns = self.now_ns();
        let Some(span) = self.open.pop() else { return };
        let duration = end_ns.saturating_sub(span.start_ns);
        let k = span.kind as usize;
        self.self_ns[k] += duration.saturating_sub(span.child_ns);
        self.total_ns[k] += duration;
        self.count[k] += 1;
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += duration;
        }
        if let Some(i) = span.index {
            self.spans[i].end_ns = end_ns;
        }
    }

    /// Times `f` as one span of `kind`.
    pub fn span<T>(&mut self, kind: Kind, f: impl FnOnce() -> T) -> T {
        self.begin(kind);
        let out = f();
        self.end();
        out
    }

    /// Total self time of every span of `kind`, in seconds.
    pub fn self_s(&self, kind: Kind) -> f64 {
        self.self_ns[kind as usize] as f64 * 1e-9
    }

    /// Total duration of every span of `kind`, children included, in
    /// seconds.
    pub fn total_s(&self, kind: Kind) -> f64 {
        self.total_ns[kind as usize] as f64 * 1e-9
    }

    /// Number of spans of `kind` recorded.
    pub fn count(&self, kind: Kind) -> u64 {
        self.count[kind as usize]
    }

    /// Writes the kept spans as JSON lines: name, start/end in ns since
    /// the recorder was created, the parent span's line index (or
    /// null) and the op id.
    pub fn write_jsonl(&self, path: &std::path::Path) -> Result<(), String> {
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
                quote(s.kind.name()),
                s.start_ns,
                s.end_ns,
                s.op
            )
            .map_err(|e| e.to_string())?;
        }
        out.flush().map_err(|e| e.to_string())
    }
}

/// A traced replay together with the untraced runs it is read against.
#[derive(Debug)]
pub struct Replay<'a> {
    pub tracer: &'a Tracer,
    /// Untraced op times at one thread, ms: the base of every share.
    pub t1_ms: &'a [f64],
    /// Untraced op median at the end-to-end thread count, ms.
    pub p50_ms: f64,
}

impl Replay<'_> {
    fn base_s(&self) -> f64 {
        self.t1_ms.iter().sum::<f64>() * 1e-3
    }

    /// Self time of `kinds` as a share of the untraced one-thread time.
    pub fn share(&self, kinds: &[Kind]) -> f64 {
        kinds.iter().map(|&k| self.tracer.self_s(k)).sum::<f64>() / self.base_s()
    }

    /// Records the metrics every traced workload reports. `layers` are
    /// the span kinds that partition the op timeline; what they leave
    /// of the untraced op time is `unattributed_share`.
    pub fn record(&self, layers: &[Kind], metrics: &mut Metrics) {
        let t1 = median(self.t1_ms);
        metrics.set("par.op_ms_1t", t1);
        metrics.set("par.speedup", t1 / self.p50_ms);
        metrics.set("unattributed_share", 1.0 - self.share(layers));
        metrics.set("trace.overhead_frac", self.tracer.total_s(Kind::Op) / self.base_s() - 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_spans_nest() {
        let mut t = Tracer::new(true);
        t.set_op(7);
        t.begin(Kind::Op);
        t.span(Kind::Sampler, || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.end();
        assert_eq!(t.count(Kind::Op), 1);
        assert!(t.self_s(Kind::Sampler) >= 0.002);
        assert!(t.self_s(Kind::Op) < t.self_s(Kind::Sampler), "child time is not self time");
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].op, 7);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
    }
}
