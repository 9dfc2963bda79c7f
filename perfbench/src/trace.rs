//! Outside-in spans: the benchmark wraps its own calls into each crate's
//! public functions. Spans live in a per-thread buffer and are written
//! out when the run ends; nothing is recorded while tracing is off.
//!
//! A span's name is `<layer>.<what>`; the layer is the crate the wrapped
//! call belongs to (`graph.unit_disk` → `graph`). Spans opened while an
//! op is running carry that op's id; set-up spans carry op 0.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

use crate::alloc;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Op id (0 = set-up). Ids are unique per thread.
    pub op: u64,
    /// Recording thread (0 = main).
    pub thread: u32,
    /// Index of the enclosing span in the same [`Trace`].
    pub parent: Option<usize>,
    /// Nanoseconds since process start.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocation calls and bytes made by any thread while the span was
    /// open (0 for spans synthesised from a library's own timings).
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Tracer {
    on: bool,
    thread: u32,
    op: u64,
    spans: Vec<Span>,
    /// Open spans: (index, nanoseconds already covered by synthetic
    /// children laid out from the span's start).
    open: Vec<(usize, u64)>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = const {
        RefCell::new(Tracer { on: false, thread: 0, op: 0, spans: Vec::new(), open: Vec::new() })
    };
}

fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turn recording on or off for the calling thread.
pub fn set_enabled(on: bool) {
    TRACER.with(|t| t.borrow_mut().on = on);
}

/// Tag the calling thread's spans with `thread`.
pub fn set_thread(thread: u32) {
    TRACER.with(|t| t.borrow_mut().thread = thread);
}

/// Attribute the calling thread's next spans to `op` (0 = set-up).
pub fn set_op(op: u64) {
    TRACER.with(|t| t.borrow_mut().op = op);
}

/// Run `f` inside a span named `name` (a plain call when tracing is off).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let opened = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return false;
        }
        let (allocs, alloc_bytes) = alloc::counts();
        let span = Span {
            name,
            op: t.op,
            thread: t.thread,
            parent: t.open.last().map(|&(i, _)| i),
            start_ns: now_ns(),
            end_ns: 0,
            allocs,
            alloc_bytes,
        };
        t.spans.push(span);
        let i = t.spans.len() - 1;
        t.open.push((i, 0));
        true
    });
    let out = f();
    if opened {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let (i, _) = t.open.pop().expect("span stack balanced");
            let (allocs, alloc_bytes) = alloc::counts();
            let s = &mut t.spans[i];
            s.end_ns = now_ns();
            s.allocs = allocs - s.allocs;
            s.alloc_bytes = alloc_bytes - s.alloc_bytes;
        });
    }
    out
}

/// Record a child of the innermost open span from a duration the library
/// measured itself. Synthetic children are laid end to end from the
/// parent's start, so they never overlap one another.
pub fn child(name: &'static str, ns: u64) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return;
        }
        let Some(&(parent, covered)) = t.open.last() else {
            return;
        };
        let start_ns = t.spans[parent].start_ns + covered;
        let span = Span {
            name,
            op: t.op,
            thread: t.thread,
            parent: Some(parent),
            start_ns,
            end_ns: start_ns + ns,
            allocs: 0,
            alloc_bytes: 0,
        };
        t.spans.push(span);
        t.open.last_mut().expect("checked above").1 += ns;
    });
}

/// Record a synthetic child of the calling thread's most recent span
/// named `parent`, laid out from that span's start. For durations known
/// only after the span closed (a server-side time carried in a reply).
pub fn child_of_last(parent: &'static str, name: &'static str, ns: u64) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return;
        }
        let Some(p) = t.spans.iter().rposition(|s| s.name == parent) else {
            return;
        };
        let start_ns = t.spans[p].start_ns;
        let span = Span {
            name,
            op: t.spans[p].op,
            thread: t.thread,
            parent: Some(p),
            start_ns,
            end_ns: start_ns + ns,
            allocs: 0,
            alloc_bytes: 0,
        };
        t.spans.push(span);
    });
}

/// Append spans another thread recorded to the calling thread's buffer.
pub fn absorb(other: Trace) {
    TRACER.with(|t| {
        let mut mine = Trace {
            spans: std::mem::take(&mut t.borrow_mut().spans),
        };
        mine.merge(other);
        t.borrow_mut().spans = mine.spans;
    });
}

/// Drain the calling thread's recorded spans.
pub fn take() -> Trace {
    TRACER.with(|t| Trace {
        spans: std::mem::take(&mut t.borrow_mut().spans),
    })
}

/// Spans of one run, possibly merged from several threads.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

/// Self time and self allocations of one layer, summed over spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct SelfCost {
    pub ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Trace {
    /// Append another thread's spans, re-basing their parent indices.
    pub fn merge(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .collect()
    }

    /// Per-layer self cost over the spans of ops (op ≠ 0): a span's
    /// duration minus its children's, its allocations minus theirs.
    pub fn op_self_costs(&self) -> BTreeMap<&'static str, SelfCost> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut child_allocs = vec![(0u64, 0u64); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
                child_allocs[p].0 += s.allocs;
                child_allocs[p].1 += s.alloc_bytes;
            }
        }
        let mut out: BTreeMap<&'static str, SelfCost> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.op != 0) {
            let c = out.entry(s.layer()).or_default();
            c.ns += s.ns().saturating_sub(child_ns[i]);
            c.allocs += s.allocs.saturating_sub(child_allocs[i].0);
            c.alloc_bytes += s.alloc_bytes.saturating_sub(child_allocs[i].1);
        }
        out
    }

    /// Summed duration of the top-level spans of ops: the part of op
    /// time some span covers.
    pub fn op_covered_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.op != 0 && s.parent.is_none())
            .map(Span::ns)
            .sum()
    }

    /// Render as JSON lines, one span per line.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 160);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"op\": {}, \"thread\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"allocs\": {}, \"alloc_bytes\": {}}}",
                s.name, s.op, s.thread, s.start_ns, s.end_ns, s.allocs, s.alloc_bytes
            );
        }
        out
    }
}
