//! Host-time spans recorded around calls into the program's layers.
//!
//! Every measured call goes through [`Recorder::call`], which always takes
//! one `Instant` pair (the host time is the untraced run's metric too) and,
//! when tracing is on, also keeps a [`Span`]: name, start, end, parent span,
//! iteration id and the allocation calls made inside it. Spans stay in
//! memory and are written once, as JSON, when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

use crate::alloc;

/// One recorded interval of host time.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was called, e.g. `core.exec.pgas`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Iteration of the timed loop (0 during set-up).
    pub iteration: u64,
    /// Heap-allocation calls made inside the span.
    pub allocs: u64,
}

impl Span {
    /// Host duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What [`Recorder::call`] measured around one call.
pub struct Measured<R> {
    /// The call's return value.
    pub out: R,
    /// Host nanoseconds the call took.
    pub ns: u64,
}

/// Span recorder; records nothing but times calls while tracing is off.
pub struct Recorder {
    origin: Instant,
    tracing: bool,
    iteration: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder that keeps spans only when `tracing` is set.
    pub fn new(tracing: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            tracing,
            iteration: 0,
            spans: Vec::with_capacity(if tracing { 1 << 16 } else { 0 }),
            open: Vec::new(),
        }
    }

    /// Start or stop keeping spans.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Tag the spans that follow with iteration `i`.
    pub fn set_iteration(&mut self, i: u64) {
        self.iteration = i;
    }

    /// Time `f` (and, when tracing, record it as span `name`).
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> Measured<R> {
        let idx = self.tracing.then(|| {
            let idx = self.spans.len();
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.open.last().copied(),
                iteration: self.iteration,
                allocs: 0,
            });
            self.open.push(idx);
            idx
        });
        let a0 = alloc::count();
        let t0 = Instant::now();
        let out = f(self);
        let t1 = Instant::now();
        if let Some(i) = idx {
            let s = &mut self.spans[i];
            s.start_ns = (t0 - self.origin).as_nanos() as u64;
            s.end_ns = (t1 - self.origin).as_nanos() as u64;
            s.allocs = alloc::count() - a0;
            self.open.pop();
        }
        Measured {
            out,
            ns: (t1 - t0).as_nanos() as u64,
        }
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans named `name` recorded at or after index `from`.
    pub fn named<'a>(&'a self, name: &'a str, from: usize) -> impl Iterator<Item = &'a Span> {
        self.spans[from..].iter().filter(move |s| s.name == name)
    }

    /// Self time of every span: its duration minus the time its children
    /// cover. Children of one parent never overlap (one driving thread).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Self time summed per span name, sorted by name.
    pub fn self_ns_by_name(&self) -> Vec<(&'static str, u64, usize)> {
        let mut acc: Vec<(&'static str, u64, usize)> = Vec::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            match acc.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(e) => {
                    e.1 += own;
                    e.2 += 1;
                }
                None => acc.push((s.name, own, 1)),
            }
        }
        acc.sort_by_key(|e| e.0);
        acc
    }

    /// The span file: every span plus the per-name self-time rollup.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let own = self.self_ns();
        let mut s = String::with_capacity(128 * self.spans.len() + 256);
        let _ = write!(
            s,
            "{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n  \"spans\": ["
        );
        for (i, (sp, own)) in self.spans.iter().zip(&own).enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{}\n    {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}, \"parent\": {parent}, \"workload\": \"{workload}\", \"iteration\": {}, \"allocs\": {}}}",
                if i == 0 { "" } else { "," },
                sp.name,
                sp.start_ns,
                sp.end_ns,
                sp.iteration,
                sp.allocs,
            );
        }
        s.push_str("\n  ],\n  \"self_ns_by_name\": [");
        for (i, (name, ns, n)) in self.self_ns_by_name().into_iter().enumerate() {
            let _ = write!(
                s,
                "{}\n    {{\"name\": \"{name}\", \"self_ns\": {ns}, \"spans\": {n}}}",
                if i == 0 { "" } else { "," }
            );
        }
        s.push_str("\n  ]\n}\n");
        s
    }
}

/// Check a span file's structure with the repository's JSON validator.
pub fn validate_span_file(doc: &str) -> Result<(), String> {
    telemetry::validate_json_doc(
        doc,
        &[
            "\"workload\"",
            "\"seed\"",
            "\"spans\"",
            "\"name\"",
            "\"start_ns\"",
            "\"end_ns\"",
            "\"self_ns\"",
            "\"parent\"",
            "\"iteration\"",
            "\"self_ns_by_name\"",
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut r = Recorder::new(true);
        r.call("outer", |r| {
            r.call("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let own = r.self_ns();
        assert_eq!(own[0], spans[0].dur_ns() - spans[1].dur_ns());
        assert!(spans[1].dur_ns() >= 2_000_000);
        validate_span_file(&r.to_json("unit", 1)).expect("valid span file");
    }

    #[test]
    fn untraced_recorder_times_but_keeps_nothing() {
        let mut r = Recorder::new(false);
        let m = r.call("x", |_| {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(m.ns >= 1_000_000);
        assert!(r.spans().is_empty());
    }
}
