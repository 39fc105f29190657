//! The traced run's span store.
//!
//! [`Tracer`] keeps the benchmark's own spans — one per round or tick and
//! one per call the benchmark makes into a layer — in memory, each with
//! its parent and the round it belongs to, and writes them out as JSON
//! Lines when the run ends. [`DrainSink`] collects the records the
//! program's own `haccs_obs::Recorder` emits, so a workload can read a
//! round's `engine.*` / `coord.*` / `codec.*` / `persist.*` spans right
//! after the round returns.

use haccs_obs::{EventKind, EventRecord, Sink};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span, times in milliseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub name: &'static str,
    pub start_ms: f64,
    pub end_ms: f64,
    pub parent: Option<usize>,
    pub round: u64,
}

impl SpanRecord {
    pub fn dur_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

struct Inner {
    origin: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
    round: u64,
}

/// Shared, thread-safe store of the benchmark's own spans. Parents come
/// from a stack of open spans, so spans must nest (they are opened and
/// closed on the benchmark's main thread).
#[derive(Clone)]
pub struct Tracer(Arc<Mutex<Inner>>);

impl Default for Tracer {
    fn default() -> Self {
        Tracer(Arc::new(Mutex::new(Inner {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
        })))
    }
}

impl Tracer {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.0.lock().expect("a span panicked while holding the tracer")
    }

    /// Round (or tick) id stamped on every span opened from now on.
    pub fn set_round(&self, round: u64) {
        self.lock().round = round;
    }

    /// Opens a span under the innermost open one; returns its handle.
    pub fn enter(&self, name: &'static str) -> usize {
        let mut t = self.lock();
        let start_ms = t.origin.elapsed().as_secs_f64() * 1e3;
        let rec = SpanRecord {
            name,
            start_ms,
            end_ms: f64::NAN,
            parent: t.open.last().copied(),
            round: t.round,
        };
        t.spans.push(rec);
        let id = t.spans.len() - 1;
        t.open.push(id);
        id
    }

    /// Closes span `id` (which must be the innermost open one) and
    /// returns its duration in milliseconds.
    pub fn exit(&self, id: usize) -> f64 {
        let mut t = self.lock();
        let end_ms = t.origin.elapsed().as_secs_f64() * 1e3;
        assert_eq!(t.open.pop(), Some(id), "spans must nest");
        t.spans[id].end_ms = end_ms;
        t.spans[id].dur_ms()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Total milliseconds of closed spans named `name` in `round`.
    pub fn total_ms(&self, round: u64, name: &str) -> f64 {
        let t = self.lock();
        // rounds only grow, so a round's spans are contiguous
        t.spans
            .iter()
            .rev()
            .skip_while(|s| s.round > round)
            .take_while(|s| s.round == round)
            .filter(|s| s.name == name)
            .map(SpanRecord::dur_ms)
            .sum()
    }

    /// Writes every span as one JSON line (`self_ms` is the span's
    /// duration minus the time its children cover), after a header line
    /// holding `header`'s key/value pairs.
    pub fn write_jsonl(
        &self,
        path: &std::path::Path,
        header: &[(&str, String)],
    ) -> std::io::Result<()> {
        let t = self.lock();
        let mut children: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
        for s in &t.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ms, s.end_ms));
            }
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let fields: Vec<String> = header.iter().map(|(k, v)| format!("\"{k}\":\"{v}\"")).collect();
        writeln!(out, "{{{}}}", fields.join(","))?;
        for (i, s) in t.spans.iter().enumerate() {
            let kids = children.get(&i).map_or(&[][..], |v| v.as_slice());
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"round\":{},\"parent\":{parent},\"start_ms\":{:.4},\"end_ms\":{:.4},\"self_ms\":{:.4}}}",
                s.name,
                s.round,
                s.start_ms,
                s.end_ms,
                self_time((s.start_ms, s.end_ms), kids)
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span named `name` when a tracer is given.
pub fn in_span<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Self time of a span `[start, end]`: its duration minus the part of it
/// that the union of its children's intervals covers.
pub fn self_time(span: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let mut iv: Vec<(f64, f64)> = children
        .iter()
        .map(|&(a, b)| (a.max(span.0), b.min(span.1)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    (span.1 - span.0) - covered
}

/// A `haccs_obs` sink the benchmark drains after every round.
#[derive(Clone, Default)]
pub struct DrainSink(Arc<Mutex<Vec<EventRecord>>>);

impl Sink for DrainSink {
    fn record(&self, rec: &EventRecord) {
        if rec.kind == EventKind::Span {
            self.0
                .lock()
                .expect("a recorder thread panicked while holding the sink")
                .push(rec.clone());
        }
    }
}

/// The program's spans from one round, summed by name.
#[derive(Debug, Default)]
pub struct ObsRound {
    records: Vec<EventRecord>,
}

impl DrainSink {
    /// Takes every span recorded since the last drain.
    pub fn drain(&self) -> ObsRound {
        ObsRound {
            records: std::mem::take(
                &mut *self.0.lock().expect("a recorder thread panicked while holding the sink"),
            ),
        }
    }
}

impl ObsRound {
    fn interval(r: &EventRecord) -> (f64, f64) {
        let dur_s = r.dur_ms.unwrap_or(0.0) / 1e3;
        ((r.t_s - dur_s) * 1e3, r.t_s * 1e3)
    }

    /// Summed duration (ms) of every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.records.iter().filter(|r| r.name == name).filter_map(|r| r.dur_ms).sum()
    }

    /// Duration (ms) of the span named `name` (the round's root span)
    /// minus the time covered by every other span inside it.
    pub fn self_ms(&self, name: &str) -> f64 {
        let Some(root) = self.records.iter().find(|r| r.name == name) else { return 0.0 };
        let span = Self::interval(root);
        let kids: Vec<(f64, f64)> =
            self.records.iter().filter(|r| r.name != name).map(Self::interval).collect();
        self_time(span, &kids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time((0.0, 10.0), &[]), 10.0);
        assert_eq!(self_time((0.0, 10.0), &[(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)]), 5.0);
    }

    #[test]
    fn spans_nest_and_carry_rounds() {
        let t = Tracer::default();
        t.set_round(3);
        let outer = t.enter("round");
        t.span("select", || ());
        t.exit(outer);
        assert!(t.total_ms(3, "select") >= 0.0);
        let inner = t.lock().spans[1].clone();
        assert_eq!((inner.parent, inner.round), (Some(0), 3));
    }
}
