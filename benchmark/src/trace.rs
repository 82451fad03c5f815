//! In-memory spans around every call the benchmark makes into a layer.
//!
//! Spans are recorded from the benchmark's own files only (the layers are
//! timed from outside), kept in memory, and written out once at exit. With
//! tracing off every call is a branch on one flag, so the end-to-end runs
//! pay nothing for it.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Tracer`]; [`NO_SPAN`] when tracing is off or
/// the span has no parent.
pub type SpanId = u32;

/// "No span": the parent of a root, and every id handed out while off.
pub const NO_SPAN: SpanId = u32::MAX;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran: `job`, `gen_operand`, `submit_call`, `await_result`,
    /// `verify`, or a ladder rung's name.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// The span that caused this one ([`NO_SPAN`] for a root).
    pub parent: SpanId,
    /// The product index this span belongs to; spans of one product
    /// share it.
    pub job: u64,
}

/// Self time and call count of one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    /// The span name.
    pub name: &'static str,
    /// Spans recorded under it.
    pub count: usize,
    /// Median duration, µs.
    pub median_us: f64,
    /// Summed duration minus the part child spans cover, ms.
    pub self_ms: f64,
}

/// The span recorder of one run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            origin: Instant::now(),
            on: false,
            spans: Vec::new(),
        }
    }

    /// A recording tracer with room for `capacity` spans, so the timed
    /// loop does not grow the buffer.
    pub fn on(capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            on: true,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// The recorded spans; a span's id is its index.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn stamp(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, job: u64) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        let now = self.stamp(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            job,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Ends an open span now.
    pub fn close(&mut self, id: SpanId) {
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = span.start_ns.max(self.origin.elapsed().as_nanos() as u64);
        }
    }

    /// Records a span whose start was taken before its product was known
    /// (a blocking receive learns which job it waited for on return).
    pub fn record(&mut self, name: &'static str, start: Instant, parent: SpanId, job: u64) {
        if self.on {
            let start_ns = self.stamp(start);
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns.max(self.stamp(Instant::now())),
                parent,
                job,
            });
        }
    }

    /// Per span name: count, median duration and self time (duration
    /// minus the part of it child spans cover), in first-seen order.
    pub fn summary(&self) -> Vec<SpanSummary> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(slot) = covered.get_mut(span.parent as usize) {
                *slot += span.end_ns - span.start_ns;
            }
        }
        let mut names: Vec<&'static str> = Vec::new();
        for span in &self.spans {
            if !names.contains(&span.name) {
                names.push(span.name);
            }
        }
        names
            .into_iter()
            .map(|name| {
                let mut durations = Vec::new();
                let mut self_ns = 0u64;
                for (span, covered) in self.spans.iter().zip(&covered) {
                    if span.name == name {
                        let duration = span.end_ns - span.start_ns;
                        durations.push(duration as f64 / 1e3);
                        self_ns += duration.saturating_sub(*covered);
                    }
                }
                SpanSummary {
                    name,
                    count: durations.len(),
                    median_us: crate::stats::median(&mut durations),
                    self_ms: self_ns as f64 / 1e6,
                }
            })
            .collect()
    }

    /// The trace as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"clock\": \"ns since tracer start\", \"spans\": ["
        );
        for (id, span) in self.spans.iter().enumerate() {
            let parent = match span.parent {
                NO_SPAN => "null".to_string(),
                parent => parent.to_string(),
            };
            let _ = write!(
                out,
                "{}\n{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"job\": {}}}",
                if id == 0 { "" } else { "," },
                span.name,
                span.start_ns,
                span.end_ns,
                span.job
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut tracer = Tracer::off();
        let id = tracer.open("job", NO_SPAN, 1);
        tracer.close(id);
        tracer.record("await_result", Instant::now(), id, 1);
        assert_eq!(id, NO_SPAN);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::on(4);
        let root = tracer.open("job", NO_SPAN, 9);
        let child = tracer.open("verify", root, 9);
        std::thread::sleep(std::time::Duration::from_millis(2));
        tracer.close(child);
        tracer.close(root);
        let summary = tracer.summary();
        assert_eq!(summary[0].name, "job");
        assert_eq!(summary[1].name, "verify");
        assert!(summary[1].self_ms >= 2.0);
        assert!(summary[0].self_ms < summary[1].self_ms);
        let doc = crate::json::Json::parse(&tracer.to_json("w", 1)).expect("valid JSON");
        assert_eq!(doc.get("spans").map(|s| s.items().len()), Some(2));
    }
}
