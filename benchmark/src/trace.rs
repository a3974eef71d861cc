//! Bench-side spans around every call into the system.
//!
//! A span is `(id, parent, name, query, start, end)`; spans stay in memory
//! and are written as JSON lines when the run ends. Spans are recorded from
//! the benchmark's own files only — spans inside the program are a later
//! change — so a layer's *self time* here is a span minus the part of it
//! its children cover, and whatever the deepest span covers is attributed
//! by the probes, not by the trace.
//!
//! With tracing off every call is a branch on a `None`.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use crate::sut::{fnum, jstr};

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Query, task set or request the span belongs to, if any.
    pub query: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Inner {
    t0: Instant,
    workload: String,
    spans: Mutex<Vec<Span>>,
}

/// The span recorder; `Tracer::off()` records nothing.
pub struct Tracer(Option<Inner>);

/// An open span; closes when dropped.
pub struct Open<'a> {
    tracer: &'a Tracer,
    id: Option<u32>,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer(None)
    }

    pub fn on(workload: &str) -> Self {
        Tracer(Some(Inner {
            t0: Instant::now(),
            workload: workload.to_string(),
            spans: Mutex::new(Vec::new()),
        }))
    }

    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Open `name` under `parent`.
    pub fn span<'a>(
        &'a self,
        name: &'static str,
        parent: Option<&Open<'_>>,
        query: Option<u64>,
    ) -> Open<'a> {
        let id = self.0.as_ref().map(|inner| {
            let start_ns = inner.t0.elapsed().as_nanos() as u64;
            let mut spans = inner
                .spans
                .lock()
                .expect("span list poisoned by a panicking recorder");
            let id = spans.len() as u32;
            spans.push(Span {
                id,
                parent: parent.and_then(|p| p.id),
                name,
                query,
                start_ns,
                end_ns: start_ns,
            });
            id
        });
        Open { tracer: self, id }
    }

    /// Record a span whose start and end the caller measured itself (for
    /// work that finishes on another thread, such as a service request).
    pub fn closed(
        &self,
        name: &'static str,
        parent: Option<&Open<'_>>,
        query: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if let Some(inner) = &self.0 {
            let since = |t: Instant| t.saturating_duration_since(inner.t0).as_nanos() as u64;
            let mut spans = inner
                .spans
                .lock()
                .expect("span list poisoned by a panicking recorder");
            let id = spans.len() as u32;
            spans.push(Span {
                id,
                parent: parent.and_then(|p| p.id),
                name,
                query,
                start_ns: since(start),
                end_ns: since(end),
            });
        }
    }

    fn close(&self, id: u32) {
        if let Some(inner) = &self.0 {
            let end = inner.t0.elapsed().as_nanos() as u64;
            inner
                .spans
                .lock()
                .expect("span list poisoned by a panicking recorder")[id as usize]
                .end_ns = end;
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.0
            .as_ref()
            .map(|i| {
                i.spans
                    .lock()
                    .expect("span list poisoned by a panicking recorder")
                    .clone()
            })
            .unwrap_or_default()
    }

    /// Per span name: `(count, total seconds, self seconds)`, self time
    /// being the span minus the interval its direct children cover.
    pub fn summary(&self) -> Vec<(&'static str, u64, f64, f64)> {
        let spans = self.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<(&'static str, u64, f64, f64)> = Vec::new();
        for s in &spans {
            let total = (s.end_ns - s.start_ns) as f64 / 1e9;
            // Children on other threads may overlap each other, so the
            // covered part is capped at the parent's own length.
            let own = total - (child_ns[s.id as usize] as f64 / 1e9).min(total);
            match out.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += total;
                    r.3 += own;
                }
                None => out.push((s.name, 1, total, own)),
            }
        }
        out
    }

    /// Write every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let Some(inner) = &self.0 else { return Ok(()) };
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                w,
                "{{\"id\": {}, \"parent\": {}, \"name\": {}, \"workload\": {}, \"query\": {}, \"start_s\": {}, \"end_s\": {}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                jstr(s.name),
                jstr(&inner.workload),
                s.query.map_or("null".to_string(), |q| q.to_string()),
                fnum(s.start_ns as f64 / 1e9),
                fnum(s.end_ns as f64 / 1e9),
            )?;
        }
        w.flush()
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            self.tracer.close(id);
        }
    }
}
