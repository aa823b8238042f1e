//! Benchmark-side spans.  A span is recorded around each call the
//! benchmark makes into a layer's public API; nothing inside the program is
//! instrumented.  Spans stay in memory until the run ends, then go to a
//! JSON-lines file and into the self-time ledger.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Request (or contract / round) the span belongs to.
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span; close it with [`Tracer::end`].
#[derive(Debug)]
pub struct Open {
    id: u32,
    parent: Option<u32>,
    req: u64,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    pub fn id(&self) -> Option<u32> {
        (self.id != u32::MAX).then_some(self.id)
    }
}

/// Span recorder.  When disabled it reads no clock and stores nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next: std::sync::atomic::AtomicU32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next: std::sync::atomic::AtomicU32::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&self, name: &'static str, parent: Option<u32>, req: u64) -> Open {
        if !self.enabled {
            return Open { id: u32::MAX, parent, req, name, start_ns: 0 };
        }
        let id = self.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Open { id, parent, req, name, start_ns: self.now_ns() }
    }

    pub fn end(&self, open: Open) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id: open.id,
            parent: open.parent,
            req: open.req,
            name: open.name,
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
        };
        self.spans.lock().expect("span store poisoned by a panicking recorder").push(span);
    }

    /// Records a span whose interval was measured by the caller.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u32>,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let id = self.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span =
            Span { id, parent, req, name, start_ns: ns(start), end_ns: ns(end).max(ns(start)) };
        self.spans.lock().expect("span store poisoned by a panicking recorder").push(span);
    }

    /// Records a span around `f`.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.begin(name, parent, req);
        let out = f();
        self.end(open);
        out
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self.spans.lock().expect("span store poisoned by a panicking recorder"),
        )
    }
}

/// Per-name totals: count, total time, and self time (a span's duration
/// minus the part of it its children cover).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LedgerRow {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn ledger(spans: &[Span]) -> BTreeMap<&'static str, LedgerRow> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut rows: BTreeMap<&'static str, LedgerRow> = BTreeMap::new();
    for s in spans {
        let covered = children.get(&s.id).map_or(0, |c| covered_ns(s, c));
        let row = rows.entry(s.name).or_default();
        row.count += 1;
        row.total_ns += s.dur_ns();
        row.self_ns += s.dur_ns() - covered;
    }
    rows
}

/// Length of the union of `kids` clipped to `span`.
fn covered_ns(span: &Span, kids: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = kids
        .iter()
        .map(|&(a, b)| (a.max(span.start_ns), b.min(span.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Durations in microseconds of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e3).collect()
}

/// Renders the ledger as aligned text.
pub fn render_ledger(rows: &BTreeMap<&'static str, LedgerRow>) -> String {
    let mut out = format!("{:<34} {:>8} {:>12} {:>12}\n", "span", "count", "total_ms", "self_ms");
    for (name, r) in rows {
        let _ = writeln!(
            out,
            "{name:<34} {:>8} {:>12.3} {:>12.3}",
            r.count,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6
        );
    }
    out
}

/// Writes every span as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, a: u64, b: u64) -> Span {
        Span { id, parent, req: 0, name, start_ns: a, end_ns: b }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "kid", 10, 40),
            span(2, Some(0), "kid", 30, 50),
            span(3, Some(0), "kid", 90, 120),
        ];
        let rows = ledger(&spans);
        assert_eq!(rows["root"].self_ns, 100 - 40 - 10);
        assert_eq!(rows["kid"].count, 3);
        assert_eq!(rows["kid"].self_ns, 30 + 20 + 30);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        t.span("x", None, 0, || ());
        assert!(t.take().is_empty());
    }
}
