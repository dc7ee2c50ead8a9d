//! Span-based tracing keyed to simulated cycles.

/// Handle to a span inside a [`Trace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(pub(crate) usize);

/// One completed (or still-open) span: a named half-open interval
/// `[start_cycle, end_cycle)` of simulated time, with optional attributed
/// energy.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Span name, e.g. `"frame"` or `"frame/interp"`.
    pub name: String,
    /// First simulated cycle covered by the span.
    pub start_cycle: u64,
    /// One past the last simulated cycle covered (equal to `start_cycle`
    /// while the span is still open).
    pub end_cycle: u64,
    /// Index of the enclosing span in [`Trace::spans`], if any.
    pub parent: Option<usize>,
    /// Nesting depth (root spans are depth 0).
    pub depth: u16,
    /// Energy attributed to this span, in joules (0.0 when not modelled).
    pub energy_j: f64,
}

impl SpanRecord {
    /// Simulated cycles covered by the span.
    pub fn cycles(&self) -> u64 {
        self.end_cycle.saturating_sub(self.start_cycle)
    }
}

/// An append-only tree of spans.
///
/// Spans nest via an open-span stack: a span begun while another is open
/// becomes its child. All methods are total — mismatched or repeated
/// [`Trace::end`] calls are ignored rather than panicking, per the repo's
/// P1 (panic-freedom) rule.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// All spans in begin order; tree edges live in [`SpanRecord::parent`].
    pub spans: Vec<SpanRecord>,
    open: Vec<usize>,
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a span starting at `cycle`, nested under the innermost open
    /// span if there is one.
    pub fn begin(&mut self, name: &str, cycle: u64) -> SpanId {
        let parent = self.open.last().copied();
        let depth = match parent.and_then(|p| self.spans.get(p)) {
            Some(p) => p.depth.saturating_add(1),
            None => 0,
        };
        let idx = self.spans.len();
        // lint: allow(h2): span records are the trace's product,
        // one per span, never per sample
        self.spans.push(SpanRecord {
            // lint: allow(h2): owned span name — see above
            name: name.to_string(),
            start_cycle: cycle,
            end_cycle: cycle,
            parent,
            depth,
            energy_j: 0.0,
        });
        // lint: allow(h2): open-span stack is at most span-depth deep
        self.open.push(idx);
        SpanId(idx)
    }

    /// Close `span` at `cycle`. Closing a span also closes any of its
    /// descendants still open (at the same cycle), keeping the open stack
    /// consistent without panicking on mismatched calls.
    pub fn end(&mut self, span: SpanId, cycle: u64) {
        if let Some(pos) = self.open.iter().rposition(|&idx| idx == span.0) {
            for &idx in self.open.get(pos..).into_iter().flatten() {
                if let Some(rec) = self.spans.get_mut(idx) {
                    rec.end_cycle = cycle.max(rec.start_cycle);
                }
            }
            self.open.truncate(pos);
        }
    }

    /// Record an already-closed span `[start, end)` nested under the
    /// innermost open span. This is the common path for the simulator,
    /// which knows interval extents after the fact rather than streaming
    /// begin/end events.
    pub fn record(&mut self, name: &str, start: u64, end: u64) -> SpanId {
        let id = self.begin(name, start);
        self.end(id, end.max(start));
        id
    }

    /// Attribute `joules` of energy to `span`.
    pub fn set_energy(&mut self, span: SpanId, joules: f64) {
        if let Some(rec) = self.spans.get_mut(span.0) {
            rec.energy_j = joules;
        }
    }

    /// Look up a span record.
    pub fn get(&self, span: SpanId) -> Option<&SpanRecord> {
        self.spans.get(span.0)
    }

    /// Sum of cycles over the *direct children* of `span`. The breakdown
    /// report's exactness test asserts this equals the parent's own cycle
    /// count for attribution spans.
    pub fn child_cycles(&self, span: SpanId) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(span.0))
            .fold(0u64, |acc, s| acc.saturating_add(s.cycles()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_follows_open_stack() {
        let mut t = Trace::new();
        let frame = t.begin("frame", 0);
        let samp = t.record("sampling", 0, 10);
        let interp = t.record("interp", 10, 40);
        t.end(frame, 40);
        assert_eq!(t.get(samp).and_then(|s| s.parent), Some(frame.0));
        assert_eq!(t.get(interp).map(|s| s.depth), Some(1));
        assert_eq!(t.get(frame).map(|s| s.cycles()), Some(40));
        assert_eq!(t.child_cycles(frame), 40);
    }

    #[test]
    fn end_is_total_on_mismatch() {
        let mut t = Trace::new();
        let a = t.begin("a", 0);
        t.end(a, 5);
        t.end(a, 9); // double end: ignored
        assert_eq!(t.get(a).map(|s| s.end_cycle), Some(5));

        let outer = t.begin("outer", 0);
        let _inner = t.begin("inner", 1);
        t.end(outer, 7); // closes inner too
        assert!(t.spans.iter().all(|s| s.end_cycle >= s.start_cycle));
        assert_eq!(t.spans.iter().filter(|s| s.end_cycle == 7).count(), 2);
    }
}
