//! Time-shared hardware resources: FCFS bandwidth shapers and server banks.
//!
//! These model the serial hardware resources in the Biscuit platform — the
//! PCIe link, individual flash channels, device CPU cores, pattern-matcher
//! IPs — as first-come-first-served servers whose service time is derived
//! from a byte count and a rate (plus an optional fixed per-operation cost).
//! Contention and queueing emerge naturally from the `avail` bookkeeping.

use std::sync::{Arc, OnceLock};

use crate::sync::Mutex;

use crate::kernel::Ctx;
use crate::metrics::{self, MetricsRegistry};
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceEvent;

/// Throughput instruments for one labeled FCFS resource (a shaper, or one
/// server of a bank): operation and byte counters, busy virtual time, and a
/// service-span histogram. See `docs/METRICS.md` for the naming scheme.
#[derive(Debug)]
struct ResourceInstruments {
    ops: metrics::Counter,
    bytes: metrics::Counter,
    busy_ps: metrics::Counter,
    span_ps: metrics::Histogram,
}

impl ResourceInstruments {
    fn new(registry: &MetricsRegistry, label: &str) -> Self {
        let labels = [("resource", label)];
        ResourceInstruments {
            ops: registry.counter("resource_ops_total", &labels),
            bytes: registry.counter("resource_bytes_total", &labels),
            busy_ps: registry.counter("resource_busy_ps_total", &labels),
            span_ps: registry.histogram("resource_span_ps", &labels),
        }
    }

    #[inline]
    fn record(&self, service: SimDuration, bytes: u64) {
        self.ops.inc();
        self.bytes.add(bytes);
        self.busy_ps.add(service.as_ps());
        self.span_ps.record(service.as_ps());
    }
}

/// How the labelled resources of one component — the shapers of a group
/// (both directions of a link, say) or the servers of a bank — report, and
/// the handles they have registered: the first metered reservation on any
/// of them registers every one's series, so an idle sibling still exports.
#[derive(Debug)]
struct Observer {
    /// Trace track names: one per shaper of a group; a bank has a single
    /// one, shared by its servers.
    tracks: Vec<Arc<str>>,
    /// The `resource=` label of each series: one per shaper or per server.
    series: Vec<String>,
    metrics: OnceLock<Vec<ResourceInstruments>>,
}

impl Observer {
    /// Reports one reservation to the simulation of the fiber behind `ctx`.
    /// A shaper passes its index in the group as `track` and no `server`; a
    /// bank passes track 0 and the server reserved.
    fn observe(
        &self,
        ctx: &Ctx,
        track: usize,
        server: Option<usize>,
        (start, end): (SimTime, SimTime),
        bytes: u64,
    ) {
        ctx.tracer().emit(|| TraceEvent::ResourceSpan {
            resource: Arc::clone(&self.tracks[track]),
            server,
            start,
            end,
            bytes,
        });
        let registry = ctx.metrics();
        if registry.is_enabled() {
            let register = |label: &String| ResourceInstruments::new(registry, label);
            let all = self
                .metrics
                .get_or_init(|| self.series.iter().map(register).collect());
            all[server.unwrap_or(track)].record(end - start, bytes);
        }
    }
}

#[derive(Debug)]
struct ShaperState {
    avail: SimTime,
    busy_total: SimDuration,
    ops: u64,
    bytes: u64,
}

/// A single FCFS pipe with a fixed per-operation latency and a byte rate.
///
/// `transfer` charges `fixed + bytes/rate` of service time, queued behind any
/// in-flight operations, and suspends the calling fiber until the operation
/// completes.
///
/// # Examples
///
/// ```
/// use biscuit_sim::{Simulation, resource::Shaper, time::SimDuration};
///
/// let sim = Simulation::new(0);
/// // A 3.2 GB/s link with 10 us of per-command overhead.
/// let link = std::sync::Arc::new(Shaper::new(3.2e9, SimDuration::from_micros(10)));
/// let l = std::sync::Arc::clone(&link);
/// sim.spawn("dma", move |ctx| {
///     l.transfer(ctx, 4096);
///     assert!(ctx.now().as_micros() >= 11); // 10us + ~1.28us
/// });
/// sim.run().assert_quiescent();
/// ```
#[derive(Debug)]
pub struct Shaper {
    bytes_per_sec: f64,
    fixed: SimDuration,
    state: Mutex<ShaperState>,
    /// The group this shaper reports with and its index there; `None` for
    /// an unlabelled (silent) shaper.
    group: Option<(Arc<Observer>, usize)>,
}

impl Shaper {
    /// Creates an unlabelled shaper with the given rate (bytes/second) and
    /// fixed per-operation latency. It reports nothing.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not strictly positive.
    pub fn new(bytes_per_sec: f64, fixed: SimDuration) -> Self {
        assert!(
            bytes_per_sec > 0.0,
            "shaper rate must be positive, got {bytes_per_sec}"
        );
        Shaper {
            bytes_per_sec,
            fixed,
            state: Mutex::new(ShaperState {
                avail: SimTime::ZERO,
                busy_total: SimDuration::ZERO,
                ops: 0,
                bytes: 0,
            }),
            group: None,
        }
    }

    /// Creates one shaper per label, all with the same rate and fixed
    /// latency, that report to the simulation whose fiber reserves them: a
    /// `ResourceSpan` trace event per reservation and the throughput series
    /// `resource_ops_total`, `resource_bytes_total`,
    /// `resource_busy_ps_total` and `resource_span_ps`, all labeled
    /// `resource=<label>`. The series of every member are registered by
    /// the first metered reservation on any of them.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not strictly positive.
    pub fn labelled<const N: usize>(
        bytes_per_sec: f64,
        fixed: SimDuration,
        labels: [&str; N],
    ) -> [Shaper; N] {
        let group = Arc::new(Observer {
            tracks: labels.iter().map(|&l| Arc::from(l)).collect(),
            series: labels.iter().map(|&l| l.to_owned()).collect(),
            metrics: OnceLock::new(),
        });
        std::array::from_fn(|idx| Shaper {
            group: Some((Arc::clone(&group), idx)),
            ..Shaper::new(bytes_per_sec, fixed)
        })
    }

    /// The configured byte rate.
    pub fn bytes_per_sec(&self) -> f64 {
        self.bytes_per_sec
    }

    /// Moves `bytes` through the pipe, blocking the fiber until done.
    /// Returns the completion time.
    pub fn transfer(&self, ctx: &Ctx, bytes: u64) -> SimTime {
        let end = self.enqueue(ctx, ctx.now(), bytes);
        ctx.sleep_until(end);
        end
    }

    /// Reserves service for `bytes` starting no earlier than `now`, without
    /// blocking. Returns the completion time; the caller decides when (or
    /// whether) to wait. This enables asynchronous I/O modeling.
    pub fn enqueue(&self, ctx: &Ctx, now: SimTime, bytes: u64) -> SimTime {
        let service = self.fixed + SimDuration::for_bytes(bytes, self.bytes_per_sec);
        let (start, end) = {
            let mut st = self.state.lock();
            let start = st.avail.max(now);
            let end = start + service;
            st.avail = end;
            st.busy_total += service;
            st.ops += 1;
            st.bytes += bytes;
            (start, end)
        };
        if let Some((group, idx)) = &self.group {
            group.observe(ctx, *idx, None, (start, end), bytes);
        }
        end
    }

    /// Total busy time accumulated (for utilization/power accounting).
    pub fn busy_total(&self) -> SimDuration {
        self.state.lock().busy_total
    }

    /// Total operations served.
    pub fn ops(&self) -> u64 {
        self.state.lock().ops
    }

    /// Total bytes served.
    pub fn bytes(&self) -> u64 {
        self.state.lock().bytes
    }
}

/// A bank of identical FCFS servers indexed by an integer key, e.g. one
/// server per flash channel.
#[derive(Debug)]
pub struct ServerBank {
    servers: Vec<Mutex<SimTime>>,
    busy: Mutex<SimDuration>,
    /// One track named `<label>` and one series per server, labeled
    /// `resource=<label>.<idx>`; `None` for an unlabelled (silent) bank.
    observer: Option<Observer>,
}

impl ServerBank {
    /// Creates an unlabelled bank of `n` servers. It reports nothing.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "server bank must have at least one server");
        ServerBank {
            servers: (0..n).map(|_| Mutex::new(SimTime::ZERO)).collect(),
            busy: Mutex::new(SimDuration::ZERO),
            observer: None,
        }
    }

    /// Creates a bank of `n` servers that reports to the simulation whose
    /// fiber reserves it: a per-server `ResourceSpan` trace event for each
    /// reservation and per-server throughput series keyed
    /// `resource=<label>.<idx>` (same names as [`Shaper::labelled`]).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn labelled(n: usize, label: &str) -> Self {
        ServerBank {
            observer: Some(Observer {
                tracks: vec![Arc::from(label)],
                series: (0..n).map(|idx| format!("{label}.{idx}")).collect(),
                metrics: OnceLock::new(),
            }),
            ..ServerBank::new(n)
        }
    }

    /// Number of servers in the bank.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// True if the bank is empty (never; banks have ≥1 server).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Reserves `service` time on server `idx` starting no earlier than
    /// `now`; returns the completion time without blocking.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn enqueue(&self, ctx: &Ctx, now: SimTime, idx: usize, service: SimDuration) -> SimTime {
        self.enqueue_span(ctx, now, idx, service).1
    }

    /// Like [`ServerBank::enqueue`], but returns the `(start, end)` pair of
    /// the reserved service window — callers that emit their own
    /// domain-specific trace spans (e.g. NAND operations) need the start.
    pub fn enqueue_span(
        &self,
        ctx: &Ctx,
        now: SimTime,
        idx: usize,
        service: SimDuration,
    ) -> (SimTime, SimTime) {
        let (start, end) = {
            let mut avail = self.servers[idx].lock();
            let start = (*avail).max(now);
            let end = start + service;
            *avail = end;
            (start, end)
        };
        *self.busy.lock() += service;
        if let Some(observer) = &self.observer {
            observer.observe(ctx, 0, Some(idx), (start, end), 0);
        }
        (start, end)
    }

    /// Reserves service on server `idx` and blocks the fiber until complete.
    pub fn serve(&self, ctx: &Ctx, idx: usize, service: SimDuration) -> SimTime {
        let end = self.enqueue(ctx, ctx.now(), idx, service);
        ctx.sleep_until(end);
        end
    }

    /// Total busy time across all servers.
    pub fn busy_total(&self) -> SimDuration {
        *self.busy.lock()
    }

    /// The earliest-available server index and its free time.
    pub fn least_loaded(&self) -> (usize, SimTime) {
        self.servers
            .iter()
            .enumerate()
            .map(|(i, m)| (i, *m.lock()))
            .min_by_key(|&(_, t)| t)
            .expect("bank has at least one server")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulation;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn shaper_serializes_transfers() {
        let sim = Simulation::new(0);
        let link = Arc::new(Shaper::new(1e6, SimDuration::ZERO)); // 1 MB/s
        let t_done = Arc::new(AtomicU64::new(0));
        for i in 0..4 {
            let link = Arc::clone(&link);
            let t = Arc::clone(&t_done);
            sim.spawn(format!("x{i}"), move |ctx| {
                link.transfer(ctx, 1000); // 1ms each
                t.fetch_max(ctx.now().as_micros(), Ordering::SeqCst);
            });
        }
        sim.run().assert_quiescent();
        // Four 1ms transfers over a serial pipe finish at 4ms total.
        assert_eq!(t_done.load(Ordering::SeqCst), 4000);
    }

    #[test]
    fn shaper_fixed_cost_applies_per_op() {
        let sim = Simulation::new(0);
        let link = Arc::new(Shaper::new(1e9, SimDuration::from_micros(10)));
        let l = Arc::clone(&link);
        sim.spawn("x", move |ctx| {
            l.transfer(ctx, 0);
            assert_eq!(ctx.now().as_micros(), 10);
            l.transfer(ctx, 0);
            assert_eq!(ctx.now().as_micros(), 20);
        });
        sim.run().assert_quiescent();
        assert_eq!(link.ops(), 2);
    }

    #[test]
    fn shaper_accumulates_stats() {
        let sim = Simulation::new(0);
        let link = Arc::new(Shaper::new(1e6, SimDuration::ZERO));
        let l = Arc::clone(&link);
        sim.spawn("x", move |ctx| {
            l.transfer(ctx, 500);
            l.transfer(ctx, 1500);
        });
        sim.run().assert_quiescent();
        assert_eq!(link.bytes(), 2000);
        assert_eq!(link.busy_total().as_micros(), 2000);
    }

    #[test]
    fn enqueue_is_nonblocking_pipelined() {
        // Async pattern: enqueue N ops, wait only for the last completion.
        let sim = Simulation::new(0);
        let link = Arc::new(Shaper::new(1e6, SimDuration::ZERO));
        let l = Arc::clone(&link);
        sim.spawn("x", move |ctx| {
            let mut last = ctx.now();
            for _ in 0..8 {
                last = l.enqueue(ctx, ctx.now(), 1000);
            }
            ctx.sleep_until(last);
            assert_eq!(ctx.now().as_micros(), 8000);
        });
        sim.run().assert_quiescent();
    }

    #[test]
    fn server_bank_runs_in_parallel() {
        let sim = Simulation::new(0);
        let bank = Arc::new(ServerBank::new(4));
        let t_done = Arc::new(AtomicU64::new(0));
        for i in 0..4 {
            let bank = Arc::clone(&bank);
            let t = Arc::clone(&t_done);
            sim.spawn(format!("s{i}"), move |ctx| {
                bank.serve(ctx, i, SimDuration::from_micros(100));
                t.fetch_max(ctx.now().as_micros(), Ordering::SeqCst);
            });
        }
        sim.run().assert_quiescent();
        // Parallel servers: all finish at 100us, not 400us.
        assert_eq!(t_done.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn server_bank_queues_per_server() {
        let sim = Simulation::new(0);
        let bank = Arc::new(ServerBank::new(2));
        let b = Arc::clone(&bank);
        sim.spawn("x", move |ctx| {
            let now = ctx.now();
            let e1 = b.enqueue(ctx, now, 0, SimDuration::from_micros(10));
            let e2 = b.enqueue(ctx, now, 0, SimDuration::from_micros(10));
            let e3 = b.enqueue(ctx, now, 1, SimDuration::from_micros(10));
            assert_eq!(e1.as_micros(), 10);
            assert_eq!(e2.as_micros(), 20); // queued behind e1
            assert_eq!(e3.as_micros(), 10); // different server, parallel
        });
        sim.run().assert_quiescent();
    }

    #[test]
    fn least_loaded_picks_idle_server() {
        let sim = Simulation::new(0);
        sim.spawn("x", |ctx| {
            let bank = ServerBank::new(3);
            bank.enqueue(ctx, SimTime::ZERO, 0, SimDuration::from_micros(50));
            bank.enqueue(ctx, SimTime::ZERO, 1, SimDuration::from_micros(20));
            let (idx, t) = bank.least_loaded();
            assert_eq!(idx, 2);
            assert_eq!(t, SimTime::ZERO);
        });
        sim.run().assert_quiescent();
    }
}
