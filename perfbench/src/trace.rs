//! In-memory spans around the calls into each layer.
//!
//! The engine is `pub(crate)`, so every span here is opened and closed by the
//! benchmark, outside the program, around a public call. Spans are kept in
//! memory and written once, when the traced run of a workload ends.

use std::time::Instant;

use crate::report::json_string;

/// One closed (or still open) interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `net.brite` or `core.engine.run`.
    pub name: String,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created; equals `start_ns` while open.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

/// Records the spans of one workload's traced run.
#[derive(Debug)]
pub struct Tracer {
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(workload: &str) -> Tracer {
        Tracer {
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn enter(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span opened inside it that is still open)
    /// and returns its duration in milliseconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        let end_ns = self.now_ns();
        while let Some(open) = self.open.pop() {
            self.spans[open].end_ns = end_ns;
            if open == id {
                break;
            }
        }
        (end_ns - self.spans[id].start_ns) as f64 / 1e6
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in milliseconds.
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name);
        let value = f();
        let ms = self.exit(id);
        (value, ms)
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as one JSON document: `{"workload": .., "spans": [{name,
    /// start_ns, end_ns, parent, workload}, ..]}`; `parent` is an index into
    /// the same array, or null.
    pub fn to_json(&self) -> String {
        let workload = json_string(&self.workload);
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"workload\": {workload}}}",
                    json_string(&s.name),
                    s.start_ns,
                    s.end_ns,
                )
            })
            .collect();
        format!(
            "{{\"workload\": {workload}, \"spans\": [\n{}\n]}}\n",
            spans.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locaware_bench::trajectory::{parse, Value};

    #[test]
    fn nesting_records_parents() {
        let mut tracer = Tracer::new("w");
        let outer = tracer.enter("outer");
        let (value, ms) = tracer.timed("inner", || 21 * 2);
        assert_eq!(value, 42);
        assert!(ms >= 0.0);
        tracer.timed("inner", || ());
        tracer.exit(outer);
        let (_, _) = tracer.timed("sibling", || ());

        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(outer));
        assert_eq!(spans[2].parent, Some(outer));
        assert_eq!(spans[3].parent, None);
        for span in spans {
            assert!(span.end_ns >= span.start_ns);
        }
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn exit_closes_spans_left_open_inside() {
        let mut tracer = Tracer::new("w");
        let outer = tracer.enter("outer");
        let inner = tracer.enter("inner");
        tracer.exit(outer);
        assert_eq!(tracer.spans()[inner].end_ns, tracer.spans()[outer].end_ns);
        assert_eq!(tracer.enter("next"), 2);
        assert_eq!(tracer.spans()[2].parent, None);
    }

    #[test]
    fn span_file_round_trips_through_the_json_reader() {
        let mut tracer = Tracer::new("cache-\"warm\"");
        let outer = tracer.enter("a.b");
        tracer.timed("c", || ());
        tracer.exit(outer);
        let document = parse(&tracer.to_json()).unwrap();
        assert_eq!(
            document.get("workload"),
            Some(&Value::String("cache-\"warm\"".into()))
        );
        let Some(Value::Array(spans)) = document.get("spans") else {
            panic!("spans must be an array");
        };
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("parent"), Some(&Value::Null));
        assert_eq!(spans[1].get("parent"), Some(&Value::Number(0.0)));
        assert_eq!(spans[1].get("name"), Some(&Value::String("c".into())));
    }
}
