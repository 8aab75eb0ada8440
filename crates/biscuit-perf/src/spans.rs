//! The benchmark's own span recorder: one span around every call the
//! benchmark makes into a layer, kept in memory, written out at exit.
//!
//! Spans are recorded only from the set-up thread and the host fiber, never
//! from two threads at once, so the open-span stack is global. While the
//! recorder is off (the timed region) entering a span costs one relaxed
//! load. Spans inside the product crates are a later change (ROADMAP item 2).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    /// Traced iteration the span belongs to; `None` during set-up.
    pub iteration: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Recorder {
    spans: Vec<Span>,
    open: Vec<usize>,
    iteration: Option<u32>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: Mutex<Recorder> = Mutex::new(Recorder {
    spans: Vec::new(),
    open: Vec::new(),
    iteration: None,
});

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn recorder() -> MutexGuard<'static, Recorder> {
    RECORDER.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Forgets every span: a run starts from an empty recorder.
pub fn reset() {
    let mut rec = recorder();
    rec.spans.clear();
    rec.open.clear();
}

/// Turns recording on or off; `iteration` tags the spans that follow.
pub fn set_recording(on: bool, iteration: Option<u32>) {
    epoch();
    recorder().iteration = iteration;
    ENABLED.store(on, Ordering::Relaxed);
}

/// Closes its span when dropped.
pub struct Guard(Option<usize>);

/// Opens a span named `name` under the innermost open span.
pub fn enter(name: &'static str) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard(None);
    }
    let start_ns = epoch().elapsed().as_nanos() as u64;
    let mut rec = recorder();
    let id = rec.spans.len();
    let parent = rec.open.last().copied();
    let iteration = rec.iteration;
    rec.spans.push(Span {
        id,
        parent,
        name,
        iteration,
        start_ns,
        end_ns: start_ns,
    });
    rec.open.push(id);
    Guard(Some(id))
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(id) = self.0 {
            let end_ns = epoch().elapsed().as_nanos() as u64;
            let mut rec = recorder();
            rec.spans[id].end_ns = end_ns;
            rec.open.retain(|&open| open != id);
        }
    }
}

/// Runs `f` inside a span.
pub fn within<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _guard = enter(name);
    f()
}

pub fn snapshot() -> Vec<Span> {
    recorder().spans.clone()
}

/// Self time per span name, in milliseconds: a span's duration minus the
/// part of it its child spans cover. `traced` selects spans of traced
/// iterations (`true`) or of set-up (`false`).
pub fn self_ms_by_name(spans: &[Span], traced: bool) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for s in spans.iter().filter(|s| s.iteration.is_some() == traced) {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id]);
        *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
    }
    out
}

pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("id", Json::Num(s.id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("name", Json::str(s.name)),
                    (
                        "iteration",
                        s.iteration.map_or(Json::Null, |i| Json::Num(i as f64)),
                    ),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ])
            })
            .collect(),
    )
}
