//! In-memory span recorder for the traced run.
//!
//! Each span records its name, start, end, parent and operation id. The
//! benchmark opens spans around calls into the layers' public functions
//! (no tracing inside the crates), keeps them in memory, and writes them
//! out once the run ends. A span's *self time* is its duration minus the
//! part of its interval its children cover; children may overlap each
//! other (the streamed replay's decode thread runs beside the detect
//! loop), so the covered part is the union of the child intervals.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Duration, count and self time of every span sharing one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Agg {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

impl Agg {
    /// Mean duration in milliseconds (0 when the span never ran).
    pub fn mean_ms(&self) -> f64 {
        per(self.total_s * 1e3, self.count as f64)
    }

    /// Mean self time in milliseconds.
    pub fn mean_self_ms(&self) -> f64 {
        per(self.self_s * 1e3, self.count as f64)
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The span store plus named counters (work done at the same
/// boundaries: events, bytes, chunks, frames).
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, f64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    pub fn counter(&self, name: &str) -> f64 {
        let counters = self.counters.lock().expect("counter store poisoned");
        counters.get(name).copied().unwrap_or(0.0)
    }

    /// Aggregate every span by name, with self times.
    pub fn aggregate(&self) -> BTreeMap<&'static str, Agg> {
        aggregate(&self.spans())
    }

    /// The spans as JSON lines, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\
                 \"end_ns\":{}}}\n",
                s.id, s.op, s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// Where a call happens: the tracer (absent in untraced runs), the
/// operation it belongs to, and the enclosing span. Copy it into a
/// helper thread to parent that thread's spans under the same span.
#[derive(Clone, Copy)]
pub struct Ctx<'t> {
    tracer: Option<&'t Tracer>,
    op: u64,
    parent: Option<u32>,
}

impl<'t> Ctx<'t> {
    /// No tracing: `time` just runs the closure.
    pub fn off() -> Ctx<'static> {
        Ctx {
            tracer: None,
            op: 0,
            parent: None,
        }
    }

    /// A root context for operation `op`.
    pub fn root(tracer: Option<&'t Tracer>, op: u64) -> Ctx<'t> {
        Ctx {
            tracer,
            op,
            parent: None,
        }
    }

    /// Run `f` inside a span named `name`; `f` receives the child
    /// context for nested spans.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce(Ctx<'t>) -> T) -> T {
        let Some(tr) = self.tracer else {
            return f(*self);
        };
        let id = tr.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = tr.now_ns();
        let out = f(Ctx {
            tracer: Some(tr),
            op: self.op,
            parent: Some(id),
        });
        let end_ns = tr.now_ns();
        tr.spans.lock().expect("span store poisoned").push(Span {
            id,
            parent: self.parent,
            op: self.op,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Add `v` to counter `name`.
    pub fn add(&self, name: &'static str, v: f64) {
        if let Some(tr) = self.tracer {
            *tr.counters
                .lock()
                .expect("counter store poisoned")
                .entry(name)
                .or_insert(0.0) += v;
        }
    }

    /// Raise counter `name` to at least `v`.
    pub fn max(&self, name: &'static str, v: f64) {
        if let Some(tr) = self.tracer {
            let mut counters = tr.counters.lock().expect("counter store poisoned");
            let slot = counters.entry(name).or_insert(v);
            *slot = slot.max(v);
        }
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `children`
/// (each clipped to the interval first).
fn covered_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(s, e) in children.iter() {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of every span (by id): its duration minus the union of its
/// direct children's intervals.
pub fn self_times_ns(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get_mut(&s.id).map(|k| k.as_mut_slice());
            let covered = kids.map_or(0, |k| covered_ns(s.start_ns, s.end_ns, k));
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Count, total and self time per span name.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for s in spans {
        let a = out.entry(s.name).or_default();
        a.count += 1;
        a.total_s += s.dur_ns() as f64 * 1e-9;
        a.self_s += selfs[&s.id] as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // op [0,100) ⊃ a [10,30) ⊃ b [12,20); c [50,90).
        let spans = vec![
            span(0, None, "op", 0, 100),
            span(1, Some(0), "a", 10, 30),
            span(2, Some(1), "b", 12, 20),
            span(3, Some(0), "c", 50, 90),
        ];
        let st = self_times_ns(&spans);
        assert_eq!(st[&0], 100 - 20 - 40);
        assert_eq!(
            st[&1],
            20 - 8,
            "grandchildren only count against their own parent"
        );
        assert_eq!(st[&2], 8);
        assert_eq!(st[&3], 40);
    }

    #[test]
    fn overlapping_children_count_once() {
        // A decode thread's chunks overlap the detect loop's chunks.
        let spans = vec![
            span(0, None, "stream", 0, 100),
            span(1, Some(0), "decode", 0, 30),
            span(2, Some(0), "detect", 20, 60),
            span(3, Some(0), "decode", 25, 50),
            span(4, Some(0), "detect", 70, 95),
        ];
        let st = self_times_ns(&spans);
        // Covered: [0,60) ∪ [70,95) = 85.
        assert_eq!(st[&0], 15);
        let agg = aggregate(&spans);
        assert_eq!(agg["decode"].count, 2);
        assert!((agg["decode"].total_s - 55e-9).abs() < 1e-15);
        assert!((agg["stream"].self_s - 15e-9).abs() < 1e-15);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![
            span(0, None, "op", 10, 20),
            span(1, Some(0), "late", 15, 40),
        ];
        assert_eq!(self_times_ns(&spans)[&0], 5);
    }

    #[test]
    fn ctx_records_parent_and_op() {
        let tr = Tracer::default();
        let ctx = Ctx::root(Some(&tr), 7);
        let v = ctx.time("outer", |c| c.time("inner", |_| 3));
        assert_eq!(v, 3);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(spans.iter().all(|s| s.op == 7));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn untraced_ctx_records_nothing() {
        let ctx = Ctx::off();
        assert_eq!(ctx.time("x", |_| 1), 1);
        ctx.add("n", 1.0);
    }
}
