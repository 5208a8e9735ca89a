//! In-memory spans around the replay's calls into each layer, and the
//! arithmetic that turns them into per-layer self time.
//!
//! A span is `(layer, start_ns, end_ns, parent, op_id)`. Spans are kept in a
//! vector while the replay runs and written out when it ends. A layer's self
//! time is its spans' durations minus the part their child spans cover —
//! and minus what the spans themselves cost: two clock reads and a push are
//! some 60 ns, as much as the smaller calls they wrap, so that cost is
//! measured on empty spans ([`SpanCost::measure`]) and taken out.

use std::io::{self, Write};
use std::time::Instant;

use crate::metrics::Layer;

/// "No parent": the span is a root.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: u32,
    /// The replayed op the span belongs to; spans of one op share it.
    pub op: u32,
    /// How many units of work the call did (1, or the envelopes of a frame).
    pub units: u32,
}

/// Records spans, or — switched off — does nothing, so that the same replay
/// can run untraced and the difference be reported as the tracing overhead.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// The innermost open span.
    current: u32,
}

impl Tracer {
    pub fn new(on: bool, capacity: usize) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if on { capacity } else { 0 }),
            current: NO_PARENT,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a replay shorter than centuries")
    }

    /// Opens a span under the innermost open one and returns its handle.
    pub fn open(&mut self, layer: Layer, op: u32, units: u32) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.current;
        self.current = id;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
            units,
        });
        id
    }

    /// Closes the span `open` returned. Spans close innermost first.
    pub fn close(&mut self, id: u32) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        debug_assert_eq!(self.current, id, "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        self.current = span.parent;
    }

    /// Runs `f` inside a span of one unit.
    pub fn span<T>(&mut self, layer: Layer, op: u32, f: impl FnOnce() -> T) -> T {
        let id = self.open(layer, op, 1);
        let out = f();
        self.close(id);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// What recording one span adds to the times around it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpanCost {
    /// Added to the span's own duration: the tail of the opening clock read
    /// and the head of the closing one.
    pub inside_ns: f64,
    /// Added to the parent's self time, per child: the rest of both reads,
    /// and the push.
    pub outside_ns: f64,
}

impl SpanCost {
    pub const NONE: SpanCost = SpanCost {
        inside_ns: 0.0,
        outside_ns: 0.0,
    };

    /// Times empty spans: in each of several batches one parent holds a
    /// thousand empty children; a child's mean duration is the inside cost,
    /// the parent's self time per child the outside cost. The median batch
    /// counts.
    pub fn measure() -> SpanCost {
        const BATCHES: usize = 21;
        const CHILDREN: u32 = 1000;
        let mut inside = Vec::new();
        let mut outside = Vec::new();
        for _ in 0..BATCHES {
            let mut t = Tracer::new(true, CHILDREN as usize + 1);
            let parent = t.open(Layer::Op, 0, 1);
            for _ in 0..CHILDREN {
                t.span(Layer::ClientStep, 0, || ());
            }
            t.close(parent);
            let totals = &layer_totals(&t.into_spans(), 1, SpanCost::NONE)[0];
            inside.push(totals[Layer::ClientStep as usize].self_ns / f64::from(CHILDREN));
            outside.push(totals[Layer::Op as usize].self_ns / f64::from(CHILDREN));
        }
        let median = |mut v: Vec<f64>| {
            v.sort_by(|a, b| a.partial_cmp(b).expect("times are never NaN"));
            v[v.len() / 2]
        };
        SpanCost {
            inside_ns: median(inside),
            outside_ns: median(outside),
        }
    }
}

/// What the spans of one layer add up to.
#[derive(Clone, Copy, Default, Debug, PartialEq)]
pub struct LayerTotal {
    pub self_ns: f64,
    pub calls: u64,
    pub units: u64,
}

/// Per-layer totals for each chunk of `chunk_ops` consecutive ops, indexed
/// `[op / chunk_ops][Layer as usize]`: each span's duration counts for its
/// own layer and is taken back from its parent's, and `cost` is taken out of
/// both.
pub fn layer_totals(spans: &[Span], chunk_ops: u32, cost: SpanCost) -> Vec<Vec<LayerTotal>> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut children = vec![0u32; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            children[s.parent as usize] += 1;
        }
    }
    let mut chunks: Vec<Vec<LayerTotal>> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let chunk = (s.op / chunk_ops) as usize;
        if chunks.len() <= chunk {
            chunks.resize(
                chunk + 1,
                vec![LayerTotal::default(); Layer::Op as usize + 1],
            );
        }
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64;
        let t = &mut chunks[chunk][s.layer as usize];
        t.self_ns += (own - cost.inside_ns - f64::from(children[i]) * cost.outside_ns).max(0.0);
        t.calls += 1;
        t.units += u64::from(s.units);
    }
    chunks
}

/// Writes the spans of ops `0..ops` as CSV, one span per line.
pub fn write_csv(spans: &[Span], ops: u32, out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "id,name,start_ns,end_ns,parent,op_id")?;
    for (id, s) in spans.iter().enumerate().filter(|(_, s)| s.op < ops) {
        let parent = if s.parent == NO_PARENT {
            String::new()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{id},{},{},{},{parent},{}",
            s.layer.name(),
            s.start_ns,
            s.end_ns,
            s.op
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            layer,
            start_ns,
            end_ns,
            parent,
            op: 0,
            units: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_nested_and_adjacent_children() {
        // op [0,100) holds encode [10,50) and decode [50,70) side by side;
        // encode holds a socket write [20,45).
        let spans = [
            span(Layer::Op, 0, 100, NO_PARENT),
            span(Layer::FrameEncode, 10, 50, 0),
            span(Layer::ConnWriteRead, 20, 45, 1),
            span(Layer::FrameDecode, 50, 70, 0),
        ];
        let t = &layer_totals(&spans, 1, SpanCost::NONE)[0];
        assert_eq!(t[Layer::Op as usize].self_ns, 100.0 - 40.0 - 20.0);
        assert_eq!(t[Layer::FrameEncode as usize].self_ns, 40.0 - 25.0);
        assert_eq!(t[Layer::ConnWriteRead as usize].self_ns, 25.0);
        assert_eq!(t[Layer::FrameDecode as usize].self_ns, 20.0);
        let sum: f64 = t.iter().map(|l| l.self_ns).sum();
        assert_eq!(sum, 100.0, "self times partition the root span");
    }

    #[test]
    fn span_cost_comes_out_of_the_span_and_of_its_parent() {
        let spans = [
            span(Layer::Op, 0, 100, NO_PARENT),
            span(Layer::ClientStep, 10, 40, 0),
            span(Layer::ClientStep, 50, 53, 0),
        ];
        let cost = SpanCost {
            inside_ns: 5.0,
            outside_ns: 7.0,
        };
        let t = &layer_totals(&spans, 1, cost)[0];
        // 30 − 5, and 3 − 5 held at nothing.
        assert_eq!(t[Layer::ClientStep as usize].self_ns, 25.0);
        // 100 − 33 of children − 5 inside − 2 × 7 outside.
        assert_eq!(t[Layer::Op as usize].self_ns, 48.0);
    }

    #[test]
    fn calls_and_units_add_up_per_layer() {
        let mut batch = span(Layer::FrameEncode, 0, 30, NO_PARENT);
        batch.units = 3;
        let spans = [batch, span(Layer::FrameEncode, 30, 40, NO_PARENT)];
        let t = layer_totals(&spans, 1, SpanCost::NONE)[0][Layer::FrameEncode as usize];
        assert_eq!((t.self_ns, t.calls, t.units), (40.0, 2, 4));
    }

    #[test]
    fn spans_are_totalled_by_the_chunk_of_their_op() {
        let mut late = span(Layer::ClientStep, 50, 80, NO_PARENT);
        late.op = 25;
        let spans = [span(Layer::ClientStep, 0, 10, NO_PARENT), late];
        let t = layer_totals(&spans, 10, SpanCost::NONE);
        assert_eq!(t.len(), 3);
        assert_eq!(t[0][Layer::ClientStep as usize].self_ns, 10.0);
        assert_eq!(t[1][Layer::ClientStep as usize].calls, 0);
        assert_eq!(t[2][Layer::ClientStep as usize].self_ns, 30.0);
    }

    #[test]
    fn tracer_nests_spans_and_restores_the_parent_on_close() {
        let mut t = Tracer::new(true, 8);
        let root = t.open(Layer::Op, 7, 1);
        let a = t.open(Layer::ClientStep, 7, 1);
        t.close(a);
        t.span(Layer::ServerStep, 7, || ());
        t.close(root);
        let s = t.into_spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, NO_PARENT);
        assert_eq!((s[1].parent, s[2].parent), (0, 0));
        assert!(s.iter().all(|x| x.op == 7 && x.end_ns >= x.start_ns));
        assert!(s[0].end_ns >= s[2].end_ns);
    }

    #[test]
    fn a_tracer_switched_off_records_nothing() {
        let mut t = Tracer::new(false, 8);
        let id = t.open(Layer::Op, 0, 1);
        t.close(id);
        assert!(t.into_spans().is_empty());
    }
}
