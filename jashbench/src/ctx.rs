//! Per-run bookkeeping: the benchmark's own spans, the
//! attempted/failed tally, and notes saved with the results.

use jash_spec::json::Value;
use jash_trace::{SpanId, Tracer};

/// At most this many failure messages are kept verbatim.
const MAX_ERRORS: usize = 20;

/// State shared by every phase of one benchmark run.
pub struct Ctx {
    /// The benchmark's own spans (name, start, end, parent), kept in
    /// memory and written when the run ends. Every span carries the
    /// run's id in its `run` attribute.
    pub tracer: Tracer,
    /// Identifier shared by all spans of this run.
    pub run_id: String,
    /// The root span.
    pub root: SpanId,
    /// Checked operations.
    pub attempted: u64,
    /// Checked operations whose output or status was wrong.
    pub failed: u64,
    /// The first failure messages.
    pub errors: Vec<String>,
    /// Extra facts saved with the results (decisions, input sizes, …).
    pub notes: Vec<(String, Value)>,
}

impl Ctx {
    /// A context for one run of `workload`.
    pub fn new(workload: &str, seed: u64, trace: bool) -> Ctx {
        let tracer = Tracer::new();
        let run_id = format!(
            "{workload}-s{seed}-t{}-p{}",
            u8::from(trace),
            std::process::id()
        );
        let root = tracer.start("bench", workload, None);
        tracer.set_attr(root, "run", run_id.as_str());
        tracer.set_attr(root, "seed", seed);
        Ctx {
            tracer,
            run_id,
            root,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Opens a span named `name` under `parent` (the root when `None`).
    pub fn start(&self, name: &str, parent: Option<SpanId>) -> SpanId {
        let s = self
            .tracer
            .start("bench", name, Some(parent.unwrap_or(self.root)));
        self.tracer.set_attr(s, "run", self.run_id.as_str());
        s
    }

    /// Books one checked operation.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        self.tracer.metrics().counter("attempted").incr();
        if let Err(e) = result {
            self.failed += 1;
            self.tracer.metrics().counter("failed").incr();
            if self.errors.len() < MAX_ERRORS {
                self.errors.push(format!("{what}: {e}"));
            }
        }
    }

    /// Saves a note with the results.
    pub fn note(&mut self, key: &str, value: Value) {
        self.notes.push((key.to_string(), value));
    }
}

/// A JSON string.
pub fn jstr(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// Equal byte strings, or where they first differ.
pub fn same_bytes(what: &str, got: &[u8], want: &[u8]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let at = got
        .iter()
        .zip(want)
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(want.len()));
    Err(format!(
        "{what} differs at byte {at} ({} bytes, want {})",
        got.len(),
        want.len()
    ))
}
