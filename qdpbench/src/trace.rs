//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! The library crates carry no instrumentation, so a layer's children are
//! the calls the layer makes, issued again by the benchmark on the same
//! inputs right after it, with the same parallelism: a fan-out the layer
//! runs inside `qdp_par::par_map` is replayed inside one, as one child
//! span. A span names its logical parent; a layer's self time is its span
//! minus the spans of its children, so it carries the noise of both.

use std::time::Instant;

/// Index of a recorded span.
#[derive(Clone, Copy)]
pub struct SpanId(usize);

struct Span {
    name: &'static str,
    parent: Option<usize>,
    ns: f64,
}

/// A span recorder; spans stay in memory until the run ends.
#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    /// Runs `f` inside a span named `name`, attributed to `parent`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as f64;
        self.spans.push(Span {
            name,
            parent: parent.map(|p| p.0),
            ns,
        });
        (out, SpanId(self.spans.len() - 1))
    }

    /// Attributes the recorded span `child` to `parent`, for a child
    /// replayed before its parent.
    pub fn attribute(&mut self, child: SpanId, parent: SpanId) {
        self.spans[child.0].parent = Some(parent.0);
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns)
            .collect()
    }

    /// Self times in nanoseconds of every span named `name`: its duration
    /// minus the durations of the spans attributed to it.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns;
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.ns - c)
            .collect()
    }

    /// How many spans have been recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// The cost of recording one span around an empty call, in nanoseconds
/// (median of five batches).
pub fn span_cost_ns() -> f64 {
    const BATCH: usize = 20_000;
    let mut costs: Vec<f64> = (0..5)
        .map(|_| {
            let mut tr = Tracer::default();
            let t0 = Instant::now();
            for _ in 0..BATCH {
                tr.span("noop", None, || std::hint::black_box(0));
            }
            t0.elapsed().as_nanos() as f64 / BATCH as f64
        })
        .collect();
    crate::stats::median(&mut costs)
}
