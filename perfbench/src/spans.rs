//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the layers
//! and inside its own sink/source/reader wrappers — never inside the layer
//! crates, which are built without their `trace` feature. Recording is off
//! unless [`enable`] was called, and then costs one mutex acquisition per
//! span open and close; the untraced run pays one relaxed atomic load.
//! The spans stay in memory until the workload ends and are then written
//! to `.trace/<workload>.tsv` beside this crate.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Index of a span in the recorder.
pub type SpanId = u32;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.run_streaming` or `io.write`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch (0 while open).
    pub end_ns: u64,
    /// The span that caused this one, if any.
    pub parent: Option<SpanId>,
    /// Small integer naming the recording thread.
    pub thread: u32,
    /// Operation id shared by every span of one user-visible operation.
    pub op: u64,
}

impl Span {
    /// Duration in seconds (0 for a span still open).
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: Cell<u32> = Cell::new(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
    static STACK: RefCell<Vec<SpanId>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turn recording on or off for spans opened from now on.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Take every span recorded so far, leaving the recorder empty.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span recorder lock"))
}

/// Take every span recorded so far and write them to
/// `.trace/<workload>.tsv`, one line per span: id, name, start and end in
/// ns since the recorder's epoch, parent id (`-` for none), thread, op id.
pub fn finish(workload: &str) -> Result<Vec<Span>, String> {
    let spans = drain();
    let mut text = String::from("id\tname\tstart_ns\tend_ns\tparent\tthread\top\n");
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{id}\t{}\t{}\t{}\t{parent}\t{}\t{}",
            s.name, s.start_ns, s.end_ns, s.thread, s.op
        );
    }
    let dir = Path::new(".trace");
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(format!("{workload}.tsv")), text))
        .map_err(|e| format!("write the trace: {e}"))?;
    Ok(spans)
}

/// An open span; closes when dropped.
#[must_use = "a span closes when its guard is dropped"]
pub struct Guard {
    id: Option<SpanId>,
    on_stack: bool,
}

impl Guard {
    /// The span's id, for wrappers that record children on other threads.
    pub fn id(&self) -> Option<SpanId> {
        self.id
    }
}

fn open(name: &'static str, parent: Option<SpanId>, op: u64) -> SpanId {
    let thread = THREAD.with(Cell::get);
    let start_ns = now_ns();
    let mut spans = SPANS.lock().expect("span recorder lock");
    spans.push(Span {
        name,
        start_ns,
        end_ns: 0,
        parent,
        thread,
        op,
    });
    (spans.len() - 1) as SpanId
}

/// Open a span whose parent is the innermost span open on this thread.
pub fn span(name: &'static str, op: u64) -> Guard {
    if !enabled() {
        return Guard {
            id: None,
            on_stack: false,
        };
    }
    let parent = STACK.with(|s| s.borrow().last().copied());
    let id = open(name, parent, op);
    STACK.with(|s| s.borrow_mut().push(id));
    Guard {
        id: Some(id),
        on_stack: true,
    }
}

/// Open a span under an explicit parent, for code that runs on a thread
/// the layer spawned (the benchmark's sink, source and reader wrappers).
pub fn child_of(name: &'static str, parent: Option<SpanId>, op: u64) -> Guard {
    if !enabled() || parent.is_none() {
        return Guard {
            id: None,
            on_stack: false,
        };
    }
    Guard {
        id: Some(open(name, parent, op)),
        on_stack: false,
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        let end_ns = now_ns();
        if let Ok(mut spans) = SPANS.lock() {
            if let Some(s) = spans.get_mut(id as usize) {
                s.end_ns = end_ns;
            }
        }
        if self.on_stack {
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                if s.last() == Some(&id) {
                    s.pop();
                }
            });
        }
    }
}

/// Seconds of `spans[id]` not covered by any of its children: the span's
/// duration minus the length of the union of its children's intervals,
/// each clipped to the parent's interval.
pub fn self_secs(spans: &[Span], id: SpanId) -> f64 {
    let parent = &spans[id as usize];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = parent.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    parent
        .end_ns
        .saturating_sub(parent.start_ns)
        .saturating_sub(covered) as f64
        / 1e9
}

/// Sum of the durations of every span called `name`.
pub fn total_secs(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .sum()
}

/// Share of the root spans' time that no child span covers: the time the
/// benchmark spent between layer calls rather than inside one.
pub fn unattributed_frac(spans: &[Span], root: &str) -> f64 {
    let mut total = 0.0;
    let mut own = 0.0;
    for (i, s) in spans.iter().enumerate() {
        if s.name == root {
            total += s.secs();
            own += self_secs(spans, i as SpanId);
        }
    }
    if total > 0.0 {
        own / total
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            thread: 0,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let spans = vec![
            sp("root", 0, 100, None),
            // Two overlapping children (10..40 ∪ 30..50 = 40 ns) ...
            sp("a", 10, 40, Some(0)),
            sp("b", 30, 50, Some(0)),
            // ... one nested inside another (60..90 ⊇ 70..80) ...
            sp("c", 60, 90, Some(0)),
            sp("d", 70, 80, Some(0)),
            // ... and a grandchild, which only its own parent subtracts.
            sp("e", 12, 20, Some(1)),
        ];
        // Children cover 40 + 30 = 70 ns of the root's 100.
        assert!((self_secs(&spans, 0) - 30e-9).abs() < 1e-15);
        // `a` lasts 30 ns, 8 of them inside `e`.
        assert!((self_secs(&spans, 1) - 22e-9).abs() < 1e-15);
        // A leaf's self time is its duration.
        assert!((self_secs(&spans, 5) - 8e-9).abs() < 1e-15);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        // A child on another thread that outlives its parent.
        let spans = vec![sp("root", 100, 200, None), sp("late", 150, 400, Some(0))];
        assert!((self_secs(&spans, 0) - 50e-9).abs() < 1e-15);
        assert!((unattributed_frac(&spans, "root") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn recorder_tracks_parents_per_thread_and_drains() {
        set_enabled(true);
        let outer = span("outer", 7);
        let outer_id = outer.id();
        {
            let _inner = span("inner", 7);
            std::thread::scope(|s| {
                s.spawn(|| drop(child_of("worker", outer_id, 7)));
            });
        }
        drop(outer);
        set_enabled(false);
        assert!(span("ignored", 0).id().is_none());
        let spans = drain();
        let find = |n: &str| spans.iter().find(|s| s.name == n).expect("recorded");
        let outer_idx = spans.iter().position(|s| s.name == "outer").unwrap() as SpanId;
        assert_eq!(find("inner").parent, Some(outer_idx));
        assert_eq!(find("worker").parent, Some(outer_idx));
        assert_ne!(find("worker").thread, find("outer").thread);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns && s.op == 7));
    }
}
