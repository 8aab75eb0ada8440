//! Structured, deterministic event tracing for the simulation.
//!
//! Every layer of the Biscuit stack can record typed [`TraceEvent`]s into a
//! per-simulation [`Tracer`] — fiber scheduling, queue depths, FCFS resource
//! spans, NAND operations, pattern-matcher invocations, port traffic, and
//! the DB planner's offload verdicts. Events are stamped with [`SimTime`]
//! (integer picoseconds), so two runs with the same seed produce
//! byte-identical traces.
//!
//! A captured [`Trace`] exports as the Chrome `trace_event` format
//! ([`Trace::to_chrome_json`]), loadable in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev): fibers as one thread track each,
//! device resources (NAND dies, channel buses, pattern matchers, CPU cores,
//! the PCIe link) as span tracks, queue depths as counter tracks, and
//! port/planner activity as instants. Aggregates (busy time, operation
//! counts, bytes moved) come from the [`crate::metrics`] registry, which
//! counts every call rather than what the ring still holds.
//!
//! Tracing is **off by default** and costs one relaxed atomic load per
//! instrumentation site when disabled ([`Tracer::emit`] takes a closure, so
//! no event is even constructed). Enable it per simulation:
//!
//! ```
//! use biscuit_sim::{Simulation, trace::TraceConfig, time::SimDuration};
//!
//! let sim = Simulation::new(0);
//! sim.enable_trace(TraceConfig::default());
//! sim.spawn("worker", |ctx| ctx.sleep(SimDuration::from_micros(5)));
//! let report = sim.run();
//! assert!(!report.trace.is_empty());
//! let json = report.trace.to_chrome_json();
//! assert!(json.starts_with(r#"{"traceEvents":["#));
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::sync::Mutex;

use crate::kernel::Pid;
use crate::time::SimTime;

/// Configuration for a simulation's tracer.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Maximum buffered events. When the ring fills, the oldest events are
    /// overwritten and [`Trace::dropped`] counts what was lost.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { capacity: 1 << 20 }
    }
}

impl TraceConfig {
    /// A config with an explicit ring capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        TraceConfig { capacity }
    }
}

/// Kind of a NAND array operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NandOpKind {
    /// A page sense (`tR`).
    Read,
    /// A page program (`tPROG`).
    Program,
}

impl NandOpKind {
    fn as_str(self) -> &'static str {
        match self {
            NandOpKind::Read => "read",
            NandOpKind::Program => "program",
        }
    }
}

/// One structured simulation event.
///
/// Span-shaped events carry `(start, end)` pairs in virtual time; point
/// events carry a single `at`. Because FCFS resources are *reservation*
/// based ([`crate::resource::Shaper::enqueue`] returns a completion time in
/// the future), span ends may exceed the recording instant — the Chrome
/// export stable-sorts by start time so the result is always monotonic.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A fiber was created.
    FiberSpawn {
        /// Spawn time.
        at: SimTime,
        /// The new fiber's id.
        pid: Pid,
        /// The new fiber's name.
        name: Arc<str>,
    },
    /// The scheduler resumed a fiber.
    FiberResume {
        /// Resume time.
        at: SimTime,
        /// The fiber's id.
        pid: Pid,
    },
    /// A fiber parked (blocked on time or a synchronization primitive).
    FiberBlock {
        /// Park time.
        at: SimTime,
        /// The fiber's id.
        pid: Pid,
    },
    /// A fiber's body returned.
    FiberFinish {
        /// Finish time.
        at: SimTime,
        /// The fiber's id.
        pid: Pid,
    },
    /// An item entered a traced [`crate::queue::SimQueue`].
    QueuePush {
        /// Push time.
        at: SimTime,
        /// The queue's label.
        queue: Arc<str>,
        /// Buffered items after the push.
        depth: usize,
    },
    /// An item left a traced [`crate::queue::SimQueue`].
    QueuePop {
        /// Pop time.
        at: SimTime,
        /// The queue's label.
        queue: Arc<str>,
        /// Buffered items after the pop.
        depth: usize,
    },
    /// A reservation on a traced FCFS resource (shaper or server bank).
    ResourceSpan {
        /// The resource's label.
        resource: Arc<str>,
        /// Server index within a bank; `None` for single-pipe shapers.
        server: Option<usize>,
        /// Service start (after queueing behind earlier reservations).
        start: SimTime,
        /// Service completion.
        end: SimTime,
        /// Bytes served (zero for pure time charges).
        bytes: u64,
    },
    /// A NAND die operation.
    NandOp {
        /// Operation kind.
        kind: NandOpKind,
        /// Flash channel.
        channel: u32,
        /// Way (die within the channel).
        way: u32,
        /// Service start on the die.
        start: SimTime,
        /// Service completion.
        end: SimTime,
    },
    /// A page transfer over a flash channel bus.
    ChannelTransfer {
        /// Flash channel.
        channel: u32,
        /// Transfer start.
        start: SimTime,
        /// Transfer completion.
        end: SimTime,
        /// Bytes moved.
        bytes: u64,
    },
    /// A page streamed through a per-channel pattern-matcher IP.
    PatternScan {
        /// Flash channel.
        channel: u32,
        /// Stream start.
        start: SimTime,
        /// Stream completion.
        end: SimTime,
        /// Bytes streamed.
        bytes: u64,
        /// Whether the page matched the pattern set.
        matched: bool,
    },
    /// A message was sent on a traced port connection.
    PortSend {
        /// Send time (after send-side charges).
        at: SimTime,
        /// The connection's label.
        port: Arc<str>,
        /// Port kind (`"inter-ssdlet"`, `"d2h"`, ...).
        kind: &'static str,
        /// Encoded payload bytes (zero for native typed ports).
        bytes: u64,
    },
    /// A message was received on a traced port connection.
    PortRecv {
        /// Receive completion time (after receive-side charges).
        at: SimTime,
        /// The connection's label.
        port: Arc<str>,
        /// Port kind.
        kind: &'static str,
        /// Encoded payload bytes (zero for native typed ports).
        bytes: u64,
    },
    /// The DB planner decided whether to offload one table scan.
    OffloadVerdict {
        /// Decision time.
        at: SimTime,
        /// Table name.
        table: Arc<str>,
        /// Whether the scan was pushed to the device.
        offloaded: bool,
        /// Sampled row selectivity (1.0 when not sampled).
        est_selectivity: f64,
        /// Why the planner decided this way.
        reason: &'static str,
    },
    /// A fault was injected at an instrumented site (see
    /// [`crate::fault::FaultPlan`]).
    FaultInjected {
        /// Injection time.
        at: SimTime,
        /// Site label (`"nand_read"`, `"link_to_host"`, ...).
        site: &'static str,
        /// Free-form detail (retry counts, affected block, ...).
        detail: Arc<str>,
    },
    /// A recovery policy absorbed a previously injected fault.
    FaultRecovered {
        /// Recovery completion time.
        at: SimTime,
        /// Site label of the recovered fault.
        site: &'static str,
        /// Recovery policy (`"read_retry"`, `"link_replay"`, ...).
        action: &'static str,
    },
    /// A recovery policy exhausted its budget; a higher layer must degrade.
    FaultFailed {
        /// Failure time.
        at: SimTime,
        /// Site label of the unrecovered fault.
        site: &'static str,
        /// The policy that gave up (`"restart"`, `"host_timeout"`, ...).
        action: &'static str,
    },
    /// A free-form application marker.
    Mark {
        /// Marker time.
        at: SimTime,
        /// Marker name.
        name: Arc<str>,
        /// Extra detail.
        detail: Arc<str>,
    },
}

impl TraceEvent {
    /// The event's primary timestamp (start time for spans).
    pub fn timestamp(&self) -> SimTime {
        match self {
            TraceEvent::FiberSpawn { at, .. }
            | TraceEvent::FiberResume { at, .. }
            | TraceEvent::FiberBlock { at, .. }
            | TraceEvent::FiberFinish { at, .. }
            | TraceEvent::QueuePush { at, .. }
            | TraceEvent::QueuePop { at, .. }
            | TraceEvent::PortSend { at, .. }
            | TraceEvent::PortRecv { at, .. }
            | TraceEvent::OffloadVerdict { at, .. }
            | TraceEvent::FaultInjected { at, .. }
            | TraceEvent::FaultRecovered { at, .. }
            | TraceEvent::FaultFailed { at, .. }
            | TraceEvent::Mark { at, .. } => *at,
            TraceEvent::ResourceSpan { start, .. }
            | TraceEvent::NandOp { start, .. }
            | TraceEvent::ChannelTransfer { start, .. }
            | TraceEvent::PatternScan { start, .. } => *start,
        }
    }
}

#[derive(Debug)]
struct RingBuf {
    events: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl RingBuf {
    fn new(capacity: usize) -> Self {
        RingBuf {
            events: Vec::new(),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.events[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    fn chronological(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.events.len());
        out.extend_from_slice(&self.events[self.head..]);
        out.extend_from_slice(&self.events[..self.head]);
        out
    }
}

#[derive(Debug)]
struct TracerInner {
    enabled: AtomicBool,
    buf: Mutex<RingBuf>,
}

/// A cheaply cloneable handle to a simulation's event buffer.
///
/// Every [`crate::Simulation`] owns one (disabled by default); library code
/// shares it by clone. Instrumentation sites call [`Tracer::emit`] with a
/// closure, so a disabled tracer costs one relaxed atomic load and nothing
/// else.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// Creates a disabled tracer with the default capacity.
    pub fn new() -> Self {
        Tracer {
            inner: Arc::new(TracerInner {
                enabled: AtomicBool::new(false),
                buf: Mutex::new(RingBuf::new(TraceConfig::default().capacity)),
            }),
        }
    }

    /// Enables recording, resetting the buffer to `cfg.capacity`.
    pub fn enable(&self, cfg: TraceConfig) {
        assert!(cfg.capacity > 0, "trace capacity must be positive");
        *self.inner.buf.lock() = RingBuf::new(cfg.capacity);
        self.inner.enabled.store(true, Ordering::Release);
    }

    /// Stops recording (already-buffered events are kept).
    pub fn disable(&self) {
        self.inner.enabled.store(false, Ordering::Release);
    }

    /// True while the tracer records events.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Records the event produced by `f`, if enabled. The closure is not
    /// called when tracing is off — this is the cheap hot-path entry point.
    #[inline]
    pub fn emit<F: FnOnce() -> TraceEvent>(&self, f: F) {
        if self.is_enabled() {
            self.record(f());
        }
    }

    /// Unconditionally records an already-constructed event (still a no-op
    /// while disabled).
    pub fn record(&self, ev: TraceEvent) {
        if self.is_enabled() {
            self.inner.buf.lock().push(ev);
        }
    }

    /// Snapshots the buffered events in chronological (insertion) order.
    pub fn snapshot(&self) -> Trace {
        let buf = self.inner.buf.lock();
        Trace {
            events: buf.chronological(),
            dropped: buf.dropped,
        }
    }
}

/// A captured, immutable sequence of [`TraceEvent`]s.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    dropped: u64,
}

impl Trace {
    /// The recorded events in insertion order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events lost to ring-buffer overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Exports the Chrome `trace_event` JSON format (the object form, with
    /// a `traceEvents` array), loadable in `chrome://tracing` and Perfetto.
    ///
    /// Layout: process 1 holds one thread per fiber (run slices between
    /// resume and block), process 2 holds one thread per device resource
    /// track (NAND dies, channel buses, pattern matchers, CPU cores, link
    /// directions), and process 3 holds queue-depth counters plus port and
    /// planner instants. Timestamps are microseconds with exactly six
    /// fractional digits derived from the integer picosecond clock, and
    /// entries are stable-sorted by start time, so the output is both
    /// monotonic and byte-deterministic for a given event sequence.
    pub fn to_chrome_json(&self) -> String {
        ChromeExporter::new(self).export()
    }

    /// Writes [`Trace::to_chrome_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn write_chrome_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_json())
    }
}

// ---------------------------------------------------------------------------
// Chrome trace_event export
// ---------------------------------------------------------------------------

const PID_FIBERS: u32 = 1;
const PID_DEVICE: u32 = 2;
const PID_FLOW: u32 = 3;

/// Escapes `s` as the contents of a JSON string (without the quotes).
pub(crate) fn escape_json_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_json_into(&mut out, s);
    out.push('"');
    out
}

/// Renders picoseconds as microseconds with six fixed fractional digits —
/// exact and byte-deterministic (no float formatting involved).
fn ts_us(ps: u64) -> String {
    format!("{}.{:06}", ps / 1_000_000, ps % 1_000_000)
}

struct ChromeExporter<'a> {
    trace: &'a Trace,
    /// Data entries: (sort timestamp in ps, rendered JSON object).
    entries: Vec<(u64, String)>,
    fiber_names: BTreeMap<Pid, Arc<str>>,
    device_tids: BTreeMap<String, u32>,
    flow_tids: BTreeMap<String, u32>,
}

impl<'a> ChromeExporter<'a> {
    fn new(trace: &'a Trace) -> Self {
        ChromeExporter {
            trace,
            entries: Vec::with_capacity(trace.len()),
            fiber_names: BTreeMap::new(),
            device_tids: BTreeMap::new(),
            flow_tids: BTreeMap::new(),
        }
    }

    fn device_tid(&mut self, key: String) -> u32 {
        let next = self.device_tids.len() as u32;
        *self.device_tids.entry(key).or_insert(next)
    }

    fn flow_tid(&mut self, key: String) -> u32 {
        let next = self.flow_tids.len() as u32 + 1;
        *self.flow_tids.entry(key).or_insert(next)
    }

    fn push(&mut self, sort_ps: u64, entry: String) {
        self.entries.push((sort_ps, entry));
    }

    // One parameter per field of the Chrome "X" event it writes.
    #[allow(clippy::too_many_arguments)]
    fn complete(
        &mut self,
        name: &str,
        cat: &str,
        pid: u32,
        tid: u32,
        start: SimTime,
        end: SimTime,
        args: &str,
    ) {
        let start_ps = start.as_ps();
        let dur_ps = end.as_ps().saturating_sub(start_ps);
        let entry = format!(
            r#"{{"name":{},"cat":{},"ph":"X","ts":{},"dur":{},"pid":{},"tid":{},"args":{{{}}}}}"#,
            json_str(name),
            json_str(cat),
            ts_us(start_ps),
            ts_us(dur_ps),
            pid,
            tid,
            args
        );
        self.push(start_ps, entry);
    }

    fn instant(&mut self, name: &str, cat: &str, pid: u32, tid: u32, at: SimTime, args: &str) {
        let ps = at.as_ps();
        let entry = format!(
            r#"{{"name":{},"cat":{},"ph":"i","s":"t","ts":{},"pid":{},"tid":{},"args":{{{}}}}}"#,
            json_str(name),
            json_str(cat),
            ts_us(ps),
            pid,
            tid,
            args
        );
        self.push(ps, entry);
    }

    fn counter(&mut self, name: &str, at: SimTime, value: usize) {
        let ps = at.as_ps();
        let entry = format!(
            r#"{{"name":{},"cat":"queue","ph":"C","ts":{},"pid":{},"tid":0,"args":{{"depth":{}}}}}"#,
            json_str(name),
            ts_us(ps),
            PID_FLOW,
            value
        );
        self.push(ps, entry);
    }

    fn export(mut self) -> String {
        // First pass: learn fiber names so run slices carry them even when
        // the resume precedes a late name lookup.
        for ev in &self.trace.events {
            if let TraceEvent::FiberSpawn { pid, name, .. } = ev {
                self.fiber_names.insert(*pid, Arc::clone(name));
            }
        }
        let mut running: BTreeMap<Pid, SimTime> = BTreeMap::new();
        let events: &[TraceEvent] = &self.trace.events;
        for ev in events {
            match ev {
                TraceEvent::FiberSpawn { at, pid, name } => {
                    let args = format!(r#""name":{}"#, json_str(name));
                    self.instant("spawn", "fiber", PID_FIBERS, *pid as u32, *at, &args);
                }
                TraceEvent::FiberResume { at, pid } => {
                    running.insert(*pid, *at);
                }
                TraceEvent::FiberBlock { at, pid } | TraceEvent::FiberFinish { at, pid } => {
                    if let Some(start) = running.remove(pid) {
                        let name = self
                            .fiber_names
                            .get(pid)
                            .cloned()
                            .unwrap_or_else(|| Arc::from(format!("fiber{pid}")));
                        let finished = matches!(ev, TraceEvent::FiberFinish { .. });
                        let args = format!(r#""finished":{finished}"#);
                        self.complete(&name, "fiber", PID_FIBERS, *pid as u32, start, *at, &args);
                    }
                }
                TraceEvent::QueuePush { at, queue, depth } => {
                    self.counter(queue, *at, *depth);
                }
                TraceEvent::QueuePop { at, queue, depth } => {
                    self.counter(queue, *at, *depth);
                }
                TraceEvent::ResourceSpan {
                    resource,
                    server,
                    start,
                    end,
                    bytes,
                } => {
                    let key = match server {
                        Some(idx) => format!("{resource}.{idx}"),
                        None => resource.to_string(),
                    };
                    let tid = self.device_tid(key);
                    let args = format!(r#""bytes":{bytes}"#);
                    self.complete("busy", "resource", PID_DEVICE, tid, *start, *end, &args);
                }
                TraceEvent::NandOp {
                    kind,
                    channel,
                    way,
                    start,
                    end,
                } => {
                    let tid = self.device_tid(format!("nand.ch{channel}"));
                    let args = format!(r#""way":{way}"#);
                    self.complete(kind.as_str(), "nand", PID_DEVICE, tid, *start, *end, &args);
                }
                TraceEvent::ChannelTransfer {
                    channel,
                    start,
                    end,
                    bytes,
                } => {
                    let tid = self.device_tid(format!("bus.ch{channel}"));
                    let args = format!(r#""bytes":{bytes}"#);
                    self.complete("xfer", "bus", PID_DEVICE, tid, *start, *end, &args);
                }
                TraceEvent::PatternScan {
                    channel,
                    start,
                    end,
                    bytes,
                    matched,
                } => {
                    let tid = self.device_tid(format!("pm.ch{channel}"));
                    let args = format!(r#""bytes":{bytes},"matched":{matched}"#);
                    self.complete("scan", "pattern", PID_DEVICE, tid, *start, *end, &args);
                }
                TraceEvent::PortSend {
                    at,
                    port,
                    kind,
                    bytes,
                } => {
                    let tid = self.flow_tid(port.to_string());
                    let args = format!(r#""kind":{},"bytes":{bytes}"#, json_str(kind));
                    self.instant("send", "port", PID_FLOW, tid, *at, &args);
                }
                TraceEvent::PortRecv {
                    at,
                    port,
                    kind,
                    bytes,
                } => {
                    let tid = self.flow_tid(port.to_string());
                    let args = format!(r#""kind":{},"bytes":{bytes}"#, json_str(kind));
                    self.instant("recv", "port", PID_FLOW, tid, *at, &args);
                }
                TraceEvent::OffloadVerdict {
                    at,
                    table,
                    offloaded,
                    est_selectivity,
                    reason,
                } => {
                    let tid = self.flow_tid("planner".to_string());
                    let name = if *offloaded { "offload" } else { "host-scan" };
                    let args = format!(
                        r#""table":{},"selectivity":{est_selectivity},"reason":{}"#,
                        json_str(table),
                        json_str(reason)
                    );
                    self.instant(name, "planner", PID_FLOW, tid, *at, &args);
                }
                TraceEvent::FaultInjected { at, site, detail } => {
                    let tid = self.flow_tid("faults".to_string());
                    let args =
                        format!(r#""site":{},"detail":{}"#, json_str(site), json_str(detail));
                    self.instant("inject", "fault", PID_FLOW, tid, *at, &args);
                }
                TraceEvent::FaultRecovered { at, site, action } => {
                    let tid = self.flow_tid("faults".to_string());
                    let args =
                        format!(r#""site":{},"action":{}"#, json_str(site), json_str(action));
                    self.instant("recover", "fault", PID_FLOW, tid, *at, &args);
                }
                TraceEvent::FaultFailed { at, site, action } => {
                    let tid = self.flow_tid("faults".to_string());
                    let args =
                        format!(r#""site":{},"action":{}"#, json_str(site), json_str(action));
                    self.instant("fail", "fault", PID_FLOW, tid, *at, &args);
                }
                TraceEvent::Mark { at, name, detail } => {
                    let tid = self.flow_tid("marks".to_string());
                    let args = format!(r#""detail":{}"#, json_str(detail));
                    self.instant(name, "mark", PID_FLOW, tid, *at, &args);
                }
            }
        }

        // Stable sort: entries recorded in deterministic order keep that
        // order within a timestamp, and reservation spans with future end
        // times still start monotonically.
        self.entries.sort_by_key(|&(ps, _)| ps);

        let mut meta: Vec<String> = Vec::new();
        if !self.entries.is_empty() {
            for (pid, name) in [
                (PID_FIBERS, "fibers"),
                (PID_DEVICE, "device"),
                (PID_FLOW, "queues & ports"),
            ] {
                meta.push(format!(
                    r#"{{"name":"process_name","ph":"M","ts":0.000000,"pid":{},"tid":0,"args":{{"name":{}}}}}"#,
                    pid,
                    json_str(name)
                ));
            }
            for (pid, name) in &self.fiber_names {
                meta.push(format!(
                    r#"{{"name":"thread_name","ph":"M","ts":0.000000,"pid":{},"tid":{},"args":{{"name":{}}}}}"#,
                    PID_FIBERS,
                    *pid as u32,
                    json_str(name)
                ));
            }
            let mut tracks: Vec<(&String, &u32, u32)> = self
                .device_tids
                .iter()
                .map(|(k, v)| (k, v, PID_DEVICE))
                .chain(self.flow_tids.iter().map(|(k, v)| (k, v, PID_FLOW)))
                .collect();
            tracks.sort_by_key(|&(_, tid, pid)| (pid, *tid));
            for (key, tid, pid) in tracks {
                meta.push(format!(
                    r#"{{"name":"thread_name","ph":"M","ts":0.000000,"pid":{},"tid":{},"args":{{"name":{}}}}}"#,
                    pid,
                    tid,
                    json_str(key)
                ));
            }
        }

        let mut out = String::from(r#"{"traceEvents":["#);
        let mut first = true;
        for entry in meta.iter().chain(self.entries.iter().map(|(_, e)| e)) {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(entry);
        }
        out.push(']');
        // Surface truncation: a ring-buffer overflow silently loses the
        // oldest events, so a nonzero count must be visible in the export.
        if self.trace.dropped > 0 {
            out.push_str(&format!(r#","dropped":{}"#, self.trace.dropped));
        }
        out.push_str(r#","displayTimeUnit":"ms"}"#);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::SimQueue;
    use crate::resource::{ServerBank, Shaper};
    use crate::time::SimDuration;
    use crate::Simulation;

    /// Events of `trace` that `pred` selects.
    fn count(trace: &Trace, pred: impl Fn(&TraceEvent) -> bool) -> u64 {
        trace.events().iter().filter(|ev| pred(ev)).count() as u64
    }

    /// `(ops, bytes, busy)` of the resource spans recorded on `track`
    /// (`resource` or `resource.server`, as the Chrome export names it).
    fn track_totals(trace: &Trace, track: &str) -> (u64, u64, SimDuration) {
        let mut totals = (0, 0, SimDuration::ZERO);
        for ev in trace.events() {
            if let TraceEvent::ResourceSpan {
                resource,
                server,
                start,
                end,
                bytes,
            } = ev
            {
                let key = match server {
                    Some(idx) => format!("{resource}.{idx}"),
                    None => resource.to_string(),
                };
                if key == track {
                    totals.0 += 1;
                    totals.1 += bytes;
                    totals.2 += *end - *start;
                }
            }
        }
        totals
    }

    /// Minimal structural JSON validator: balanced braces/brackets outside
    /// strings, valid escape sequences inside them.
    fn assert_valid_json(s: &str) {
        let mut stack = Vec::new();
        let mut chars = s.chars();
        let mut in_string = false;
        while let Some(c) = chars.next() {
            if in_string {
                match c {
                    '\\' => {
                        let esc = chars.next().expect("dangling escape");
                        match esc {
                            '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' => {}
                            'u' => {
                                for _ in 0..4 {
                                    let h = chars.next().expect("short \\u escape");
                                    assert!(h.is_ascii_hexdigit(), "bad \\u digit {h:?}");
                                }
                            }
                            other => panic!("invalid escape \\{other}"),
                        }
                    }
                    '"' => in_string = false,
                    c => assert!((c as u32) >= 0x20, "raw control char in string"),
                }
            } else {
                match c {
                    '"' => in_string = true,
                    '{' => stack.push('}'),
                    '[' => stack.push(']'),
                    '}' | ']' => assert_eq!(stack.pop(), Some(c), "mismatched bracket"),
                    _ => {}
                }
            }
        }
        assert!(!in_string, "unterminated string");
        assert!(stack.is_empty(), "unbalanced brackets");
    }

    fn ts_values(json: &str) -> Vec<f64> {
        json.match_indices(r#""ts":"#)
            .map(|(i, _)| {
                let rest = &json[i + 5..];
                let end = rest
                    .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                    .unwrap();
                rest[..end].parse::<f64>().unwrap()
            })
            .collect()
    }

    #[test]
    fn empty_trace_exports_valid_json() {
        let t = Trace::default();
        let json = t.to_chrome_json();
        assert_eq!(json, r#"{"traceEvents":[],"displayTimeUnit":"ms"}"#);
        assert_valid_json(&json);
        assert!(t.is_empty());

        // A simulation that spawns nothing records nothing, and its
        // registry agrees: no fiber was spawned.
        let sim = Simulation::new(0);
        sim.enable_trace(TraceConfig::default());
        sim.enable_metrics();
        let report = sim.run();
        let spawns = |ev: &TraceEvent| matches!(ev, TraceEvent::FiberSpawn { .. });
        assert_eq!(count(&report.trace, spawns), 0);
        assert_eq!(report.trace.to_chrome_json(), json);
        let spawned = report
            .metrics
            .counter_value("sim_fibers_spawned_total", &[]);
        assert_eq!(spawned.unwrap_or(0), 0);
    }

    #[test]
    fn json_escaping_covers_specials() {
        let mut out = String::new();
        escape_json_into(&mut out, "a\"b\\c\nd\te\u{1}f — µs");
        assert_eq!(out, "a\\\"b\\\\c\\nd\\te\\u0001f — µs");
        // And through a full event round trip.
        let tracer = Tracer::new();
        tracer.enable(TraceConfig::default());
        tracer.record(TraceEvent::Mark {
            at: SimTime::from_us(1),
            name: Arc::from("weird \"name\"\n"),
            detail: Arc::from("tab\there\\"),
        });
        let json = tracer.snapshot().to_chrome_json();
        assert_valid_json(&json);
        assert!(json.contains(r#"weird \"name\"\n"#));
        assert!(json.contains(r#"tab\there\\"#));
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let tracer = Tracer::new();
        tracer.enable(TraceConfig::with_capacity(4));
        for i in 0..10u64 {
            tracer.record(TraceEvent::Mark {
                at: SimTime::from_us(i),
                name: Arc::from(format!("m{i}")),
                detail: Arc::from(""),
            });
        }
        let t = tracer.snapshot();
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 6);
        let times: Vec<u64> = t
            .events()
            .iter()
            .map(|e| e.timestamp().as_micros())
            .collect();
        assert_eq!(times, vec![6, 7, 8, 9], "oldest events dropped first");
    }

    #[test]
    fn disabled_tracer_skips_closure() {
        let tracer = Tracer::new();
        let mut called = false;
        tracer.emit(|| {
            called = true;
            TraceEvent::Mark {
                at: SimTime::ZERO,
                name: Arc::from("x"),
                detail: Arc::from(""),
            }
        });
        assert!(!called, "closure must not run while disabled");
        assert!(tracer.snapshot().is_empty());
    }

    #[test]
    fn simulation_trace_captures_fibers_and_is_monotonic() {
        let sim = Simulation::new(0);
        sim.enable_trace(TraceConfig::default());
        sim.enable_metrics();
        let q = SimQueue::labelled(4, "test.queue");
        let tx = q.clone();
        sim.spawn("producer", move |ctx| {
            for i in 0..5u32 {
                ctx.sleep(SimDuration::from_micros(3));
                tx.push(ctx, i).unwrap();
            }
            tx.close(ctx);
        });
        sim.spawn("consumer", move |ctx| while q.pop(ctx).is_some() {});
        let report = sim.run();
        report.assert_quiescent();

        let t = &report.trace;
        let spawns = count(t, |ev| matches!(ev, TraceEvent::FiberSpawn { .. }));
        let resumes = count(t, |ev| matches!(ev, TraceEvent::FiberResume { .. }));
        let on_queue = |q: &str| q == "test.queue";
        let pushes = count(
            t,
            |ev| matches!(ev, TraceEvent::QueuePush { queue, .. } if on_queue(queue)),
        );
        let pops = count(
            t,
            |ev| matches!(ev, TraceEvent::QueuePop { queue, .. } if on_queue(queue)),
        );
        assert_eq!(spawns, 2);
        assert!(resumes >= 2);
        assert_eq!((pushes, pops), (5, 5));

        // The registry counts the same run the same way.
        let m = &report.metrics;
        let queue = [("queue", "test.queue")];
        assert_eq!(
            m.counter_value("sim_fibers_spawned_total", &[]),
            Some(spawns)
        );
        assert_eq!(
            m.counter_value("sim_context_switches_total", &[]),
            Some(resumes)
        );
        assert_eq!(m.counter_value("queue_pushes_total", &queue), Some(pushes));
        assert_eq!(m.counter_value("queue_pops_total", &queue), Some(pops));

        let json = report.trace.to_chrome_json();
        assert_valid_json(&json);
        assert!(json.contains(r#""name":"producer""#));
        assert!(json.contains(r#""ph":"C""#), "queue depth counters present");
        let ts = ts_values(&json);
        // Skip the metadata header (ts 0); data entries are sorted.
        assert!(
            ts.windows(2).all(|w| w[0] <= w[1]),
            "timestamps must be monotonically non-decreasing"
        );
    }

    #[test]
    fn traced_resources_produce_spans_and_utilization() {
        let sim = Simulation::new(0);
        sim.enable_trace(TraceConfig::default());
        sim.enable_metrics();
        let [shaper] = Shaper::labelled(1e6, SimDuration::ZERO, ["test.link"]); // 1 MB/s
        let shaper = Arc::new(shaper);
        let bank = Arc::new(ServerBank::labelled(2, "test.core"));
        let s = Arc::clone(&shaper);
        let b = Arc::clone(&bank);
        sim.spawn("w", move |ctx| {
            s.transfer(ctx, 1000); // 1 ms
            b.serve(ctx, 1, SimDuration::from_micros(250));
        });
        let report = sim.run();
        report.assert_quiescent();
        let (ops, bytes, busy) = track_totals(&report.trace, "test.link");
        assert_eq!((ops, bytes, busy.as_micros()), (1, 1000, 1000));
        let (_, _, core_busy) = track_totals(&report.trace, "test.core.1");
        assert_eq!(core_busy.as_micros(), 250);
        // Shaper busy 1000us of a 1250us run = 80%.
        assert_eq!(report.end_time.as_micros(), 1250);

        // The registry counts the same run the same way.
        let m = &report.metrics;
        let link = [("resource", "test.link")];
        assert_eq!(m.counter_value("resource_ops_total", &link), Some(ops));
        assert_eq!(m.counter_value("resource_bytes_total", &link), Some(bytes));
        assert_eq!(
            m.counter_value("resource_busy_ps_total", &link),
            Some(busy.as_ps())
        );
        let core = [("resource", "test.core.1")];
        assert_eq!(
            m.counter_value("resource_busy_ps_total", &core),
            Some(core_busy.as_ps())
        );
        let json = report.trace.to_chrome_json();
        assert_valid_json(&json);
        assert!(json.contains(r#""ph":"X""#));
        assert!(json.contains("test.core.1"));
    }

    #[test]
    fn identical_event_sequences_export_identically() {
        fn run() -> String {
            let sim = Simulation::new(9);
            sim.enable_trace(TraceConfig::default());
            for i in 0..3u64 {
                sim.spawn(format!("f{i}"), move |ctx| {
                    ctx.sleep(SimDuration::from_micros(10 * (i + 1)));
                });
            }
            sim.run().trace.to_chrome_json()
        }
        assert_eq!(run(), run());
    }

    #[test]
    fn fixed_decimal_timestamps_are_exact() {
        assert_eq!(ts_us(0), "0.000000");
        assert_eq!(ts_us(1), "0.000001");
        assert_eq!(ts_us(1_000_000), "1.000000");
        assert_eq!(ts_us(90_123_456), "90.123456");
    }
}
