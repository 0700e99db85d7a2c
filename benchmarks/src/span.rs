//! Span recorder for the traced run.
//!
//! One span per call from the benchmark into a layer (a `scidl-*` crate):
//! name, start, end, parent span, thread. Spans stay in memory and are
//! written as Chrome `trace_event` JSON when the run ends. A layer's self
//! time is its spans' duration minus the part their child spans cover.
//! With tracing off a span site costs one relaxed atomic load.

use crate::json::Json;
use std::cell::Cell;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The layers are the crates; `Harness` is the benchmark's own glue.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Tensor,
    Nn,
    Data,
    Comm,
    Core,
    Serve,
    Cluster,
    Trace,
    Harness,
}

impl Layer {
    pub const ALL: [Layer; 9] = [
        Layer::Tensor,
        Layer::Nn,
        Layer::Data,
        Layer::Comm,
        Layer::Core,
        Layer::Serve,
        Layer::Cluster,
        Layer::Trace,
        Layer::Harness,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Tensor => "tensor",
            Layer::Nn => "nn",
            Layer::Data => "data",
            Layer::Comm => "comm",
            Layer::Core => "core",
            Layer::Serve => "serve",
            Layer::Cluster => "cluster",
            Layer::Trace => "trace",
            Layer::Harness => "harness",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    /// 0 = no parent.
    pub parent: u32,
    pub layer: Layer,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub tid: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static T0: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static CURRENT: Cell<u32> = const { Cell::new(0) };
    static TID: Cell<u32> = const { Cell::new(0) };
}

/// Turns span recording on (traced run only).
pub fn enable() {
    T0.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns span recording off again (sites go back to one atomic load).
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Id of the span open on this thread (0 = none): pass it to
/// [`span_under`] from a thread the call fans out to.
pub fn current() -> u32 {
    CURRENT.with(Cell::get)
}

fn now_ns() -> u64 {
    T0.get().map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0)
}

fn tid() -> u32 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Runs `f` inside a span whose parent is the span open on this thread.
pub fn span<R>(layer: Layer, name: &'static str, f: impl FnOnce() -> R) -> R {
    span_under(current(), layer, name, f)
}

/// Runs `f` inside a span with an explicit parent (work a layer runs on
/// another thread on behalf of `parent`).
pub fn span_under<R>(parent: u32, layer: Layer, name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let outer = CURRENT.with(|c| c.replace(id));
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    CURRENT.with(|c| c.set(outer));
    SPANS.lock().expect("span store poisoned").push(Span {
        id,
        parent,
        layer,
        name,
        start_ns,
        end_ns,
        tid: tid(),
    });
    out
}

/// Takes every span recorded so far.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span store poisoned"))
}

/// Self time in nanoseconds per layer: each span's duration minus the
/// union of its children's intervals (clipped to the span).
pub fn self_time_ns(spans: &[Span]) -> Vec<(Layer, u64)> {
    let mut children: std::collections::BTreeMap<u32, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut per_layer = [0u64; Layer::ALL.len()];
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut edge = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(edge), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    edge = b;
                }
            }
        }
        let slot = Layer::ALL
            .iter()
            .position(|l| *l == s.layer)
            .expect("layer listed");
        per_layer[slot] += s.dur_ns() - covered;
    }
    Layer::ALL.iter().copied().zip(per_layer).collect()
}

/// Writes the spans as Chrome `trace_event` JSON (`chrome://tracing`,
/// Perfetto).
pub fn write_chrome(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let events: Vec<Json> = spans
        .iter()
        .map(|s| {
            Json::obj()
                .with("name", s.name)
                .with("cat", s.layer.name())
                .with("ph", "X")
                .with("ts", s.start_ns as f64 / 1e3)
                .with("dur", s.dur_ns() as f64 / 1e3)
                .with("pid", 1usize)
                .with("tid", s.tid as usize)
                .with(
                    "args",
                    Json::obj()
                        .with("id", s.id as usize)
                        .with("parent", s.parent as usize)
                        .with("workload", workload),
                )
        })
        .collect();
    std::fs::write(path, Json::obj().with("traceEvents", events).render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: u32, layer: Layer, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: "t",
            start_ns,
            end_ns,
            tid: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            sp(1, 0, Layer::Core, 0, 100),
            // Overlapping children (two threads) cover 10..60 once.
            sp(2, 1, Layer::Nn, 10, 50),
            sp(3, 1, Layer::Comm, 40, 60),
            // A child outliving its parent is clipped.
            sp(4, 1, Layer::Data, 90, 130),
            sp(5, 2, Layer::Tensor, 20, 30),
        ];
        let t: std::collections::BTreeMap<_, _> = self_time_ns(&spans).into_iter().collect();
        assert_eq!(t[&Layer::Core], 100 - 50 - 10);
        assert_eq!(t[&Layer::Nn], 40 - 10);
        assert_eq!(t[&Layer::Comm], 20);
        assert_eq!(t[&Layer::Data], 40);
        assert_eq!(t[&Layer::Tensor], 10);
        assert_eq!(t[&Layer::Serve], 0);
    }

    #[test]
    fn disabled_sites_record_nothing_and_nest_when_enabled() {
        // The only test that touches the global recorder.
        assert_eq!(span(Layer::Nn, "off", || 7), 7);
        assert!(drain().is_empty());
        enable();
        span(Layer::Core, "outer", || {
            let outer = current();
            assert_ne!(outer, 0);
            span(Layer::Nn, "inner", || assert_ne!(current(), outer));
            std::thread::scope(|s| {
                s.spawn(|| span_under(outer, Layer::Comm, "fanout", || ()));
            });
            assert_eq!(current(), outer);
        });
        disable();
        let spans = drain();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(outer.parent, 0);
        assert!(spans
            .iter()
            .filter(|s| s.name != "outer")
            .all(|s| s.parent == outer.id));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
