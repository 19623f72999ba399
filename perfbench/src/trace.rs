//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call into a layer's public functions in a
//! span (name, start, end, parent span, request id). Spans stay in
//! memory until the run ends; [`Tracer::write_jsonl`] then writes them
//! out with each span's self time: its duration minus the part of its
//! interval that its child spans cover.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct SpanRec {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span; `f` receives the span's id so the calls
    /// it makes can record child spans.
    pub fn span<T>(
        &self,
        name: &str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.now_ns();
        let out = f(id);
        let end = self.now_ns();
        self.spans.lock().expect("span log poisoned").push(SpanRec {
            id,
            parent,
            request,
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
        });
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Durations (ns) of every span called `name`, in completion order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span log poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span log poisoned").len()
    }

    /// Write every span as one JSON object per line, with its self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span log poisoned");
        let selfs = self_times(&spans);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in spans.iter().zip(selfs) {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request,
                s.name,
                s.start_ns,
                s.end_ns,
                self_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of each span: its duration minus the union of its
/// children's intervals, clipped to its own (children can overlap when
/// they run on parallel threads).
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let index: std::collections::HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            request: 0,
            name: "s".into(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            rec(1, None, 0, 100),
            rec(2, Some(1), 10, 40),
            rec(3, Some(1), 30, 60), // overlaps span 2
            rec(4, Some(3), 35, 45),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 20, 10]);
    }
}
