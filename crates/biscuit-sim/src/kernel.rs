//! The discrete-event simulation kernel.
//!
//! The kernel implements *process-interaction* simulation with cooperative
//! fibers, mirroring the cooperative multithreading the Biscuit runtime uses
//! on the SSD's ARM cores (paper §IV-B). Each simulated process ("fiber") is
//! backed by an OS thread, but **exactly one fiber runs at any instant**: a
//! fiber that parks or exits pops the next wake itself and hands the baton
//! straight to that wake's fiber (one OS thread switch, none when the wake
//! is its own), then blocks until the baton comes back.
//! Together with a deterministic `(time, sequence)` event order this makes
//! every simulation run bit-for-bit reproducible.
//!
//! Fibers interact with virtual time through a [`Ctx`] handle: they sleep,
//! spawn other fibers, and block on the synchronization primitives in
//! [`crate::queue`] and [`crate::resource`]. Wall-clock time never enters the
//! model.

use std::any::Any;
use std::collections::BinaryHeap;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Once};
use std::thread::JoinHandle;

use crate::chan::{bounded, unbounded, Receiver, Sender};
use crate::metrics::{self, MetricsRegistry, MetricsSnapshot};
use crate::qprof::{QueryProfiler, QueryProfiles};
use crate::rng::Rng;
use crate::sync::Mutex;
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceConfig, TraceEvent, Tracer};

/// Identifier of a simulated process (fiber).
pub(crate) type Pid = usize;

/// Sentinel panic payload used to unwind fibers at teardown. Filtered out of
/// the panic hook so cancellations are silent.
pub(crate) struct SimCancelled;

/// Resume message to a parked fiber: from the baton holder, or a
/// cancellation from teardown.
enum Resume {
    Go,
    Cancel,
}

/// What a baton holder tells `Simulation::run` (or, while it cancels fibers,
/// teardown).
enum YieldMsg {
    /// The heap holds no live wake.
    Drained,
    /// Dispatching the next wake would exceed the event cap.
    CapExceeded,
    /// A fiber panicked or was cancelled (a clean exit dispatches instead).
    Finished {
        pid: Pid,
        /// The panic payload; absent for a cancellation unwind.
        panic: Option<Box<dyn Any + Send>>,
    },
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum FiberState {
    Parked,
    Running,
    Finished,
}

struct FiberSlot {
    name: String,
    state: FiberState,
    /// Number of park sessions entered so far; a wake event is valid only if
    /// its generation matches the fiber's current park session. This is what
    /// makes `sleep` immune to stale wake-ups from abandoned wait-queue
    /// notifications.
    park_gen: u64,
    resume_tx: Sender<Resume>,
}

/// Work item for a pooled fiber worker thread.
enum Job {
    Run {
        kernel: Arc<Kernel>,
        pid: Pid,
        resume_rx: Receiver<Resume>,
        f: Box<dyn FnOnce(&Ctx) + Send + 'static>,
    },
    Shutdown,
}

/// Parked, reusable fiber worker threads. A fiber body borrows a worker for
/// its lifetime; on exit the worker rejoins `idle` and the next spawn reuses
/// it instead of paying OS thread creation (metered as
/// `sim_fiber_threads_reused_total`).
struct ThreadPool {
    /// Job senders of workers currently waiting for work (LIFO: the most
    /// recently parked worker is the warmest).
    idle: Vec<Sender<Job>>,
    /// Every worker ever created, for shutdown.
    workers: Vec<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
}

#[derive(PartialEq, Eq)]
struct Event {
    time: SimTime,
    seq: u64,
    pid: Pid,
    gen: u64,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct KernelInner {
    now: SimTime,
    seq: u64,
    /// Every pending wake, popped in `(time, seq)` order.
    events: BinaryHeap<Event>,
    fibers: Vec<FiberSlot>,
    rng: Rng,
    events_processed: u64,
    /// Livelock backstop shared by the dispatcher and inline sleeps (see
    /// [`Simulation::set_max_events`]).
    max_events: u64,
    /// Wakes queued (`sim_events_heap_total`, a dispatch meter).
    events_heap: metrics::Counter,
}

impl KernelInner {
    /// Enqueues a wake for `(pid, gen)` at `max(at, now)`.
    fn push_event(&mut self, at: SimTime, pid: Pid, gen: u64) {
        let seq = self.seq;
        self.seq += 1;
        self.events_heap.inc();
        self.events.push(Event {
            time: at.max(self.now),
            seq,
            pid,
            gen,
        });
    }
}

/// Pre-registered scheduler instruments (see `docs/METRICS.md`). Handles
/// share the registry's enabled flag, so each costs one relaxed atomic load
/// while metrics are off.
struct SchedMetrics {
    fibers_spawned: metrics::Counter,
    context_switches: metrics::Counter,
    runnable: metrics::Gauge,
    /// Real fiber dispatches: parks resumed through the event queue.
    /// `sim_context_switches_total` counts *logical* switches (an inline
    /// sleep counts the one its park would have made); the difference
    /// between the two is the parks inline sleeps saved.
    fiber_switches: metrics::Counter,
    /// Fiber spawns served by a parked worker thread from the free list.
    threads_reused: metrics::Counter,
}

impl SchedMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        SchedMetrics {
            fibers_spawned: registry.counter("sim_fibers_spawned_total", &[]),
            context_switches: registry.counter("sim_context_switches_total", &[]),
            runnable: registry.gauge("sim_runnable_queue_depth", &[]),
            fiber_switches: registry.counter("sim_fiber_switches_total", &[]),
            threads_reused: registry.counter("sim_fiber_threads_reused_total", &[]),
        }
    }
}

/// Shared kernel state. Fibers hold an `Arc<Kernel>` through their [`Ctx`].
// Manual Debug below (KernelInner holds non-Debug channel internals).
pub struct Kernel {
    inner: Mutex<KernelInner>,
    yield_tx: Sender<YieldMsg>,
    tracer: Tracer,
    metrics: MetricsRegistry,
    qprof: QueryProfiler,
    sched: SchedMetrics,
    pool: Mutex<ThreadPool>,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Kernel")
            .field("now", &inner.now)
            .field("fibers", &inner.fibers.len())
            .field("pending_events", &inner.events.len())
            .finish()
    }
}

impl Kernel {
    /// Current virtual time.
    pub(crate) fn now(&self) -> SimTime {
        self.inner.lock().now
    }

    /// The simulation's tracer (disabled unless
    /// [`Simulation::enable_trace`] was called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The simulation's metrics registry (disabled unless
    /// [`Simulation::enable_metrics`] was called).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The simulation's query profiler (disabled unless
    /// [`Simulation::enable_qprof`] was called).
    pub fn qprof(&self) -> &QueryProfiler {
        &self.qprof
    }

    /// The wait behind [`Ctx::sleep`]/[`Ctx::sleep_until`]: moves the
    /// *running* fiber `pid` towards `wake(now)` under one lock acquisition.
    /// Returns `true` when the fiber must park (its wake is then already
    /// queued) and `false` when the wait is already over.
    ///
    /// The inline advance is taken only when it is equivalent to a park:
    /// no pending wake (stale ones included — the dispatcher would pop and
    /// discard them, and equal timestamps would dispatch first by sequence)
    /// exists at or before the target. It then mirrors every piece of
    /// accounting the dispatcher would perform — `events_processed`, the
    /// event cap, the context-switch counter, the runnable gauge, qprof
    /// attribution, and the FiberBlock/FiberResume trace pair — so every
    /// export is what parking would have produced. The parked semantics are
    /// written down as an executable spec in this crate's
    /// `tests/kernel_spec.rs`, which checks the kernel against them on every
    /// small program.
    fn begin_sleep(&self, pid: Pid, wake: impl FnOnce(SimTime) -> SimTime) -> bool {
        let (old_now, at, pending) = {
            let mut inner = self.inner.lock();
            let old_now = inner.now;
            let at = wake(old_now);
            if at <= old_now {
                return false;
            }
            if inner.events.peek().is_some_and(|ev| ev.time <= at) {
                let gen = inner.fibers[pid].park_gen + 1;
                inner.push_event(at, pid, gen);
                return true;
            }
            inner.now = at;
            inner.events_processed += 1;
            if inner.events_processed > inner.max_events {
                drop(inner);
                // Propagates through the fiber's catch_unwind, and
                // `Simulation::run` re-raises it.
                panic!("simulation exceeded event cap");
            }
            (old_now, at, inner.events.len())
        };
        self.sched.context_switches.inc();
        self.sched.runnable.set(pending as i64);
        self.qprof.on_switch(pid);
        // The parked pair is adjacent in the trace too: a parking fiber
        // emits FiberBlock and then runs the dispatcher, which emits
        // FiberResume next.
        self.tracer
            .emit(|| TraceEvent::FiberBlock { at: old_now, pid });
        self.tracer.emit(|| TraceEvent::FiberResume { at, pid });
        false
    }

    /// The dispatcher, run by whichever thread holds the baton:
    /// `Simulation::run` for the first wake, then each parking or exiting
    /// fiber for the next. Pops the next live wake, does the dispatch
    /// accounting and resumes that wake's fiber. Returns `true` when the
    /// fiber is `me`, which then simply keeps running. When no live wake is
    /// left, or the event cap trips, it tells `Simulation::run` instead.
    fn dispatch(&self, me: Option<Pid>) -> bool {
        let next = {
            let mut inner = self.inner.lock();
            loop {
                let Some(ev) = inner.events.pop() else {
                    break Err(YieldMsg::Drained);
                };
                let slot = &inner.fibers[ev.pid];
                if slot.state == FiberState::Parked && slot.park_gen == ev.gen {
                    inner.now = ev.time;
                    inner.events_processed += 1;
                    if inner.events_processed > inner.max_events {
                        break Err(YieldMsg::CapExceeded);
                    }
                    let slot = &mut inner.fibers[ev.pid];
                    slot.state = FiberState::Running;
                    let tx = (me != Some(ev.pid)).then(|| slot.resume_tx.clone());
                    break Ok((ev.pid, ev.time, inner.events.len(), tx));
                }
                // Stale wake: generation mismatch or fiber done.
            }
        };
        let (pid, at, pending, tx) = match next {
            Ok(next) => next,
            Err(msg) => {
                self.yield_tx.send(msg).expect("scheduler hung up");
                return false;
            }
        };
        self.sched.context_switches.inc();
        self.sched.fiber_switches.inc();
        self.sched.runnable.set(pending as i64);
        self.qprof.on_switch(pid);
        self.tracer.emit(|| TraceEvent::FiberResume { at, pid });
        let Some(tx) = tx else { return true };
        tx.send(Resume::Go).expect("fiber hung up");
        false
    }

    /// Marks fiber `pid` finished and traces it; `false`, doing neither, if
    /// teardown already marked it.
    fn finish(&self, pid: Pid) -> bool {
        let now = {
            let mut inner = self.inner.lock();
            let slot = &mut inner.fibers[pid];
            if slot.state == FiberState::Finished {
                return false;
            }
            slot.state = FiberState::Finished;
            inner.now
        };
        self.tracer
            .emit(|| TraceEvent::FiberFinish { at: now, pid });
        true
    }

    fn spawn_fiber<F>(self: &Arc<Self>, name: String, f: F) -> Pid
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        let (resume_tx, resume_rx) = bounded::<Resume>(1);
        let mut inner = self.inner.lock();
        let pid = inner.fibers.len();
        let trace_name: Option<Arc<str>> = if self.tracer.is_enabled() {
            Some(Arc::from(name.as_str()))
        } else {
            None
        };
        inner.fibers.push(FiberSlot {
            name,
            state: FiberState::Parked,
            park_gen: 1,
            resume_tx,
        });
        // First resume at the current time, generation 1 (the initial park).
        let now = inner.now;
        inner.push_event(now, pid, 1);
        drop(inner);
        let job = Job::Run {
            kernel: Arc::clone(self),
            pid,
            resume_rx,
            f: Box::new(f),
        };
        // Run the body on a parked worker thread when one is free; grow the
        // pool otherwise. Reuse is deterministic: a finished fiber rejoins
        // the free list before it dispatches the next wake.
        let idle = self.pool.lock().idle.pop();
        match idle {
            Some(job_tx) => {
                self.sched.threads_reused.inc();
                job_tx.send(job).expect("fiber worker hung up");
            }
            None => {
                let (job_tx, job_rx) = unbounded::<Job>();
                let tx = job_tx.clone();
                let mut pool = self.pool.lock();
                let handle = std::thread::Builder::new()
                    .name(format!("sim-worker-{}", pool.workers.len()))
                    .stack_size(512 * 1024)
                    .spawn(move || worker_main(job_rx, tx))
                    .expect("failed to spawn fiber worker thread");
                pool.workers.push(job_tx.clone());
                pool.handles.push(handle);
                drop(pool);
                job_tx.send(job).expect("fiber worker hung up");
            }
        }
        self.sched.fibers_spawned.inc();
        // Causal inheritance: the new fiber starts under whatever query
        // context the spawning fiber carries.
        self.qprof.on_spawn(pid);
        if let Some(name) = trace_name {
            self.tracer
                .record(TraceEvent::FiberSpawn { at: now, pid, name });
        }
        pid
    }
}

fn worker_main(job_rx: Receiver<Job>, job_tx: Sender<Job>) {
    while let Ok(job) = job_rx.recv() {
        match job {
            Job::Shutdown => break,
            Job::Run {
                kernel,
                pid,
                resume_rx,
                f,
            } => fiber_main(kernel, pid, resume_rx, f, &job_tx),
        }
    }
}

fn fiber_main(
    kernel: Arc<Kernel>,
    pid: Pid,
    resume_rx: Receiver<Resume>,
    f: Box<dyn FnOnce(&Ctx) + Send + 'static>,
    job_tx: &Sender<Job>,
) {
    // Initial park: wait for the first resume.
    let outcome: std::thread::Result<()> = match resume_rx.recv() {
        Ok(Resume::Go) => {
            let ctx = Ctx {
                kernel: Arc::clone(&kernel),
                pid,
                resume_rx,
            };
            let result = panic::catch_unwind(AssertUnwindSafe(|| f(&ctx)));
            drop(ctx);
            result
        }
        Ok(Resume::Cancel) | Err(_) => Err(Box::new(SimCancelled)),
    };
    // Rejoin the free list *before* passing the baton on, so a subsequent
    // spawn observes this worker deterministically. The worker drops its
    // kernel reference on return, so it holds none while idle (no Arc cycle).
    kernel.pool.lock().idle.push(job_tx.clone());
    // A clean exit passes the baton on. A panic reports to `Simulation::run`;
    // a cancellation reports to teardown, even one the body swallowed
    // (teardown marked it finished before cancelling it).
    if outcome.is_ok() && kernel.finish(pid) {
        kernel.dispatch(None);
    } else {
        let panic = outcome
            .err()
            .filter(|p| p.downcast_ref::<SimCancelled>().is_none());
        let _ = kernel.yield_tx.send(YieldMsg::Finished { pid, panic });
    }
}

/// Handle a fiber uses to interact with virtual time.
///
/// A `Ctx` is passed by reference into every fiber body and every blocking
/// primitive. It identifies the calling fiber and carries the kernel
/// reference used to schedule and wait for events.
pub struct Ctx {
    kernel: Arc<Kernel>,
    pid: Pid,
    resume_rx: Receiver<Resume>,
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx").field("pid", &self.pid).finish()
    }
}

impl Ctx {
    /// The calling fiber's process id.
    pub(crate) fn pid(&self) -> Pid {
        self.pid
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.now()
    }

    /// Suspends the fiber for `d` of virtual time.
    ///
    /// When no other fiber could run before the wake, the clock advances
    /// inline — no park, no cross-thread hand-off. The two are
    /// observationally identical (virtual timestamps, event counts, traces,
    /// metrics, qprof attribution); see `docs/PERF.md`.
    pub fn sleep(&self, d: SimDuration) {
        if self.kernel.begin_sleep(self.pid, |now| now + d) {
            self.park();
        }
    }

    /// Suspends the fiber until absolute time `at` (no-op if `at` has passed).
    pub fn sleep_until(&self, at: SimTime) {
        if self.kernel.begin_sleep(self.pid, |_| at) {
            self.park();
        }
    }

    /// Yields to other fibers runnable at the current instant.
    pub fn yield_now(&self) {
        {
            let mut inner = self.kernel.inner.lock();
            let now = inner.now;
            let gen = inner.fibers[self.pid].park_gen + 1;
            inner.push_event(now, self.pid, gen);
        }
        self.park();
    }

    /// Spawns a new fiber that starts at the current virtual time.
    ///
    /// Returns the new fiber's `Pid`.
    pub fn spawn<F>(&self, name: impl Into<String>, f: F) -> Pid
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        self.kernel.spawn_fiber(name.into(), f)
    }

    /// Runs `f` with the simulation's deterministic random number generator.
    pub fn with_rng<R>(&self, f: impl FnOnce(&mut Rng) -> R) -> R {
        f(&mut self.kernel.inner.lock().rng)
    }

    /// The simulation's tracer. Every component called with this `Ctx`
    /// emits its events here; they are dropped (one relaxed load) unless
    /// [`Simulation::enable_trace`] switched it on.
    pub fn tracer(&self) -> &Tracer {
        self.kernel.tracer()
    }

    /// The simulation's metrics registry. Every component called with this
    /// `Ctx` counts here; a component registers its series on its first
    /// call made while [`Simulation::enable_metrics`] is in effect.
    pub fn metrics(&self) -> &MetricsRegistry {
        self.kernel.metrics()
    }

    /// The simulation's query profiler. Query entry points use this to
    /// mint [`crate::qprof::SpanContext`]s and record resource spans.
    pub fn qprof(&self) -> &QueryProfiler {
        self.kernel.qprof()
    }

    /// Registers the fiber's *next* park generation; used by wait queues to
    /// target a wake at the park the fiber is about to enter.
    pub(crate) fn next_park_gen(&self) -> u64 {
        self.kernel.inner.lock().fibers[self.pid].park_gen + 1
    }

    /// Schedules a wake for `(pid, gen)` at the current time. Used by wait
    /// queues when notifying.
    pub(crate) fn wake_at_now(&self, pid: Pid, gen: u64) {
        let mut inner = self.kernel.inner.lock();
        let now = inner.now;
        inner.push_event(now, pid, gen);
    }

    /// Schedules a wake for `(pid, gen)` at absolute time `at`. Used by
    /// deadline-aware waits to arm a timeout alongside a queue
    /// registration; whichever wake fires first wins and the loser goes
    /// stale via the generation check.
    pub(crate) fn wake_at(&self, at: SimTime, pid: Pid, gen: u64) {
        self.kernel.inner.lock().push_event(at, pid, gen);
    }

    /// Parks the calling fiber until a matching wake event fires.
    ///
    /// Callers must have arranged for a wake targeting the fiber's next park
    /// generation (via [`Ctx::sleep`], a wait queue registration, etc.),
    /// otherwise the fiber blocks until simulation teardown.
    pub(crate) fn park(&self) {
        let now = {
            let mut inner = self.kernel.inner.lock();
            let slot = &mut inner.fibers[self.pid];
            slot.park_gen += 1;
            slot.state = FiberState::Parked;
            inner.now
        };
        self.kernel.tracer.emit(|| TraceEvent::FiberBlock {
            at: now,
            pid: self.pid,
        });
        if self.kernel.dispatch(Some(self.pid)) {
            return;
        }
        match self.resume_rx.recv() {
            Ok(Resume::Go) => {}
            Ok(Resume::Cancel) | Err(_) => panic::panic_any(SimCancelled),
        }
    }
}

/// Summary returned by [`Simulation::run`].
#[derive(Debug)]
pub struct SimReport {
    /// Virtual time when the event queue drained.
    pub end_time: SimTime,
    /// Names of fibers that were still blocked when the simulation ended
    /// (normally empty for well-terminating workloads).
    pub blocked: Vec<String>,
    /// Total fibers spawned over the simulation's lifetime.
    pub fibers_spawned: usize,
    /// Total wake events processed.
    pub events_processed: u64,
    /// Snapshot of the structured event trace (empty unless
    /// [`Simulation::enable_trace`] was called). Export it with
    /// [`Trace::to_chrome_json`]; totals live in [`SimReport::metrics`].
    pub trace: Trace,
    /// Snapshot of the aggregate metrics registry (empty unless
    /// [`Simulation::enable_metrics`] was called). Export it with
    /// [`MetricsSnapshot::to_json`].
    pub metrics: MetricsSnapshot,
    /// Per-query latency profiles (empty unless
    /// [`Simulation::enable_qprof`] was called). Export with
    /// [`QueryProfiles::to_json`] or render with `QueryProfiles::to_table`.
    pub profiles: QueryProfiles,
}

/// The directory a `BISCUIT_TELEMETRY` value names: unset or empty means
/// telemetry is off.
fn telemetry_dir(value: Option<&str>) -> Option<PathBuf> {
    value.filter(|dir| !dir.is_empty()).map(PathBuf::from)
}

fn telemetry_dir_from_env() -> Option<PathBuf> {
    telemetry_dir(std::env::var("BISCUIT_TELEMETRY").ok().as_deref())
}

impl SimReport {
    /// Writes what [`Simulation::enable_from_env`] switched on into the
    /// directory `BISCUIT_TELEMETRY` names, creating it if needed:
    /// `trace.json` (the Chrome trace), `metrics.json` (the metrics
    /// snapshot) and `qprof.json` (the query profiles). Prints the
    /// per-query table and says on stdout where it wrote. Does nothing
    /// while the variable is unset or empty.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error.
    pub fn write_from_env(&self) -> std::io::Result<()> {
        let Some(dir) = telemetry_dir_from_env() else {
            return Ok(());
        };
        std::fs::create_dir_all(&dir)?;
        std::fs::write(dir.join("trace.json"), self.trace.to_chrome_json())?;
        std::fs::write(dir.join("metrics.json"), self.metrics.to_json())?;
        std::fs::write(dir.join("qprof.json"), self.profiles.to_json())?;
        println!("{}", self.profiles.to_table());
        println!(
            "telemetry written to {}: trace.json (open in chrome://tracing or Perfetto), \
             metrics.json, qprof.json",
            dir.display()
        );
        Ok(())
    }

    /// Asserts that every fiber terminated (no deadlocked/blocked fibers).
    ///
    /// # Panics
    ///
    /// Panics if any fiber was still blocked at teardown.
    pub fn assert_quiescent(&self) {
        assert!(
            self.blocked.is_empty(),
            "simulation ended with blocked fibers: {:?}",
            self.blocked
        );
    }
}

/// A discrete-event simulation instance.
///
/// # Examples
///
/// ```
/// use biscuit_sim::{Simulation, time::SimDuration};
/// use std::sync::{Arc, atomic::{AtomicU64, Ordering}};
///
/// let sim = Simulation::new(42);
/// let done_at = Arc::new(AtomicU64::new(0));
/// let d = Arc::clone(&done_at);
/// sim.spawn("worker", move |ctx| {
///     ctx.sleep(SimDuration::from_micros(10));
///     d.store(ctx.now().as_micros(), Ordering::SeqCst);
/// });
/// let report = sim.run();
/// assert_eq!(done_at.load(Ordering::SeqCst), 10);
/// report.assert_quiescent();
/// ```
pub struct Simulation {
    kernel: Arc<Kernel>,
    yield_rx: Receiver<YieldMsg>,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.kernel.now())
            .finish()
    }
}

fn install_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<SimCancelled>().is_none() {
                prev(info);
            }
        }));
    });
}

impl Simulation {
    /// Creates a simulation with the given RNG seed.
    ///
    /// The same seed always produces the same run.
    pub fn new(seed: u64) -> Self {
        install_panic_hook();
        let (yield_tx, yield_rx) = unbounded();
        let metrics = MetricsRegistry::new();
        let sched = SchedMetrics::new(&metrics);
        let kernel = Arc::new(Kernel {
            inner: Mutex::new(KernelInner {
                now: SimTime::ZERO,
                seq: 0,
                // Pre-sized so steady-state scheduling never reallocates.
                events: BinaryHeap::with_capacity(1024),
                fibers: Vec::new(),
                rng: Rng::seed_from_u64(seed),
                events_processed: 0,
                max_events: u64::MAX,
                events_heap: metrics.counter("sim_events_heap_total", &[]),
            }),
            yield_tx,
            tracer: Tracer::new(),
            metrics,
            qprof: QueryProfiler::new(),
            sched,
            pool: Mutex::new(ThreadPool {
                idle: Vec::new(),
                workers: Vec::new(),
                handles: Vec::new(),
            }),
        });
        Simulation { kernel, yield_rx }
    }

    /// Caps the number of wake events processed (a livelock backstop).
    /// Exceeding the cap aborts the run with a panic.
    #[cfg(test)]
    fn set_max_events(&mut self, max: u64) {
        self.kernel.inner.lock().max_events = max;
    }

    /// Shim for the frozen `biscuit-perf` harness: there is one engine, so
    /// there is nothing to switch. Goes with the next `benchmark` PR
    /// (ROADMAP 1(a)).
    #[doc(hidden)]
    pub fn set_fuse(&self, _on: bool) {}

    /// Shared kernel handle (needed by library code that schedules work).
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self.kernel
    }

    /// Enables structured event tracing for this simulation, resetting the
    /// trace buffer to `cfg.capacity` events. Every component a fiber of
    /// this simulation calls — kernel, queues, resources, device, link,
    /// ports, planner — records from then on; the final
    /// [`SimReport::trace`] holds the snapshot.
    pub fn enable_trace(&self, cfg: TraceConfig) {
        self.kernel.tracer.enable(cfg);
    }

    /// Enables aggregate metrics collection for this simulation. Every
    /// component a fiber of this simulation calls counts from then on; the
    /// final [`SimReport::metrics`] holds the snapshot.
    pub fn enable_metrics(&self) {
        self.kernel.metrics.enable();
    }

    /// Enables query-scoped profiling for this simulation. Query entry
    /// points mint [`crate::qprof::SpanContext`]s through the shared
    /// [`QueryProfiler`]; the final [`SimReport::profiles`] holds the
    /// derived per-query latency attributions. Pure observation: enabling
    /// it never changes simulated timing or event counts.
    pub fn enable_qprof(&self) {
        self.kernel.qprof.enable();
    }

    /// Switches on telemetry when the environment asks for it, before
    /// [`Simulation::run`]: a set, non-empty `BISCUIT_TELEMETRY` enables
    /// tracing (default ring capacity), metrics and query profiling
    /// together. Its value names the directory
    /// [`SimReport::write_from_env`] writes the three exports into after
    /// the run.
    pub fn enable_from_env(&self) {
        if telemetry_dir_from_env().is_some() {
            self.enable_trace(TraceConfig::default());
            self.enable_metrics();
            self.enable_qprof();
        }
    }

    /// Spawns a fiber that starts at the current virtual time.
    pub fn spawn<F>(&self, name: impl Into<String>, f: F) -> Pid
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        self.kernel.spawn_fiber(name.into(), f)
    }

    /// Runs the simulation until the event queue drains, then tears down any
    /// still-blocked fibers.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic that occurred inside a fiber, and panics if
    /// the configured event cap is exceeded.
    pub fn run(self) -> SimReport {
        // Hand the baton to the first wake; the fibers pass it among
        // themselves until one of them has something to report.
        self.kernel.dispatch(None);
        let first_panic = match self.yield_rx.recv().expect("all fibers hung up") {
            YieldMsg::Drained => None,
            YieldMsg::CapExceeded => panic!("simulation exceeded event cap"),
            YieldMsg::Finished { pid, panic } => {
                // The worker thread that ran this fiber has already parked
                // itself on the pool's free list; nothing to join.
                self.kernel.finish(pid);
                panic
            }
        };
        let report = self.build_report();
        // Dropping `self` (here or while unwinding) tears down.
        if let Some(p) = first_panic {
            panic::resume_unwind(p);
        }
        report
    }

    fn build_report(&self) -> SimReport {
        let trace = self.kernel.tracer.snapshot();
        // Surface ring-buffer truncation: silently dropped events would
        // otherwise make a trace look complete when it is not.
        if trace.dropped() > 0 {
            self.kernel
                .metrics
                .counter("trace_dropped_total", &[])
                .add(trace.dropped());
        }
        let inner = self.kernel.inner.lock();
        self.kernel.metrics.set_horizon(inner.now);
        SimReport {
            end_time: inner.now,
            blocked: inner
                .fibers
                .iter()
                .filter(|f| f.state == FiberState::Parked)
                .map(|f| f.name.clone())
                .collect(),
            fibers_spawned: inner.fibers.len(),
            events_processed: inner.events_processed,
            trace,
            metrics: self.kernel.metrics.snapshot(),
            profiles: self.kernel.qprof.snapshot(),
        }
    }

    /// Cancels all parked fibers, then retires the worker thread pool.
    fn teardown(&self) {
        loop {
            // Cancel parked fibers one by one. Each is marked finished first,
            // so it is never dispatched again, then unwinds and reports
            // Finished; the others are all parked, so nothing else reports.
            let tx = {
                let mut inner = self.kernel.inner.lock();
                let Some(slot) = inner
                    .fibers
                    .iter_mut()
                    .find(|f| f.state == FiberState::Parked)
                else {
                    break;
                };
                slot.state = FiberState::Finished;
                slot.resume_tx.clone()
            };
            let _ = tx.send(Resume::Cancel);
            if !matches!(self.yield_rx.recv(), Ok(YieldMsg::Finished { .. })) {
                return;
            }
        }
        // Retire the worker pool. Every fiber has finished, so each worker
        // is idle or about to be — Shutdown queues behind its last job.
        let (workers, handles) = {
            let mut pool = self.kernel.pool.lock();
            pool.idle.clear();
            (
                std::mem::take(&mut pool.workers),
                std::mem::take(&mut pool.handles),
            )
        };
        for tx in &workers {
            let _ = tx.send(Job::Shutdown);
        }
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Simulation {
    fn drop(&mut self) {
        self.teardown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::SimQueue;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn telemetry_dir_is_off_unless_named() {
        assert_eq!(telemetry_dir(None), None);
        assert_eq!(telemetry_dir(Some("")), None);
        assert_eq!(
            telemetry_dir(Some("out/tele")),
            Some(PathBuf::from("out/tele"))
        );
    }

    #[test]
    fn empty_simulation_terminates() {
        let report = Simulation::new(0).run();
        assert_eq!(report.end_time, SimTime::ZERO);
        assert_eq!(report.fibers_spawned, 0);
        report.assert_quiescent();
    }

    #[test]
    fn sleep_advances_virtual_time() {
        let sim = Simulation::new(0);
        let t = Arc::new(AtomicU64::new(0));
        let t2 = Arc::clone(&t);
        sim.spawn("a", move |ctx| {
            ctx.sleep(SimDuration::from_micros(100));
            ctx.sleep(SimDuration::from_micros(23));
            t2.store(ctx.now().as_micros(), Ordering::SeqCst);
        });
        let report = sim.run();
        assert_eq!(t.load(Ordering::SeqCst), 123);
        assert_eq!(report.end_time.as_micros(), 123);
        report.assert_quiescent();
    }

    #[test]
    fn fibers_interleave_deterministically() {
        // Two runs with the same seed produce identical schedules.
        fn trace() -> Vec<(u64, usize)> {
            let sim = Simulation::new(7);
            let log = Arc::new(Mutex::new(Vec::new()));
            for id in 0..3usize {
                let log = Arc::clone(&log);
                sim.spawn(format!("f{id}"), move |ctx| {
                    for step in 0..4u64 {
                        ctx.sleep(SimDuration::from_micros(10 * (id as u64 + 1) + step));
                        log.lock().push((ctx.now().as_micros(), id));
                    }
                });
            }
            sim.run().assert_quiescent();
            let result = log.lock().clone();
            result
        }
        let a = trace();
        let b = trace();
        assert_eq!(a, b);
        assert_eq!(a.len(), 12);
        // Timestamps are monotonically non-decreasing in schedule order.
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn spawn_from_fiber() {
        let sim = Simulation::new(0);
        let count = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&count);
        sim.spawn("parent", move |ctx| {
            for _ in 0..5 {
                let c = Arc::clone(&c);
                ctx.spawn("child", move |cctx| {
                    cctx.sleep(SimDuration::from_micros(1));
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        let report = sim.run();
        assert_eq!(count.load(Ordering::SeqCst), 5);
        assert_eq!(report.fibers_spawned, 6);
        report.assert_quiescent();
    }

    #[test]
    fn same_time_events_run_in_spawn_order() {
        let sim = Simulation::new(0);
        let log = Arc::new(Mutex::new(Vec::new()));
        for id in 0..4usize {
            let log = Arc::clone(&log);
            sim.spawn(format!("f{id}"), move |_ctx| {
                log.lock().push(id);
            });
        }
        sim.run().assert_quiescent();
        assert_eq!(*log.lock(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn blocked_fiber_is_reported_and_cancelled() {
        let sim = Simulation::new(0);
        sim.spawn("stuck", |ctx| {
            // Park with no wake source: blocks forever.
            ctx.park();
            unreachable!("cancelled fibers unwind instead of returning");
        });
        let report = sim.run();
        assert_eq!(report.blocked, vec!["stuck".to_string()]);
    }

    #[test]
    fn fiber_panic_propagates() {
        let sim = Simulation::new(0);
        sim.spawn("boom", |_ctx| panic!("exploded"));
        let err = panic::catch_unwind(AssertUnwindSafe(|| sim.run())).unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "exploded");
    }

    #[test]
    fn rng_is_deterministic() {
        fn draw() -> Vec<u64> {
            let sim = Simulation::new(99);
            let out = Arc::new(Mutex::new(Vec::new()));
            let o = Arc::clone(&out);
            sim.spawn("r", move |ctx| {
                for _ in 0..8 {
                    let v = ctx.with_rng(|r| r.next_u64());
                    o.lock().push(v);
                }
            });
            sim.run().assert_quiescent();
            let result = out.lock().clone();
            result
        }
        assert_eq!(draw(), draw());
    }

    #[test]
    fn yield_now_lets_peers_run() {
        let sim = Simulation::new(0);
        let log = Arc::new(Mutex::new(Vec::new()));
        let l1 = Arc::clone(&log);
        let l2 = Arc::clone(&log);
        sim.spawn("a", move |ctx| {
            l1.lock().push("a1");
            ctx.yield_now();
            l1.lock().push("a2");
        });
        sim.spawn("b", move |_ctx| {
            l2.lock().push("b1");
        });
        sim.run().assert_quiescent();
        assert_eq!(*log.lock(), vec!["a1", "b1", "a2"]);
    }

    #[test]
    fn event_cap_aborts() {
        // The cap binds on inline sleeps (one fiber) and on parked ones (two
        // fibers ping-ponging trip it in a dispatch made on a fiber thread).
        for fibers in 1..=2 {
            let mut sim = Simulation::new(0);
            sim.set_max_events(10);
            for _ in 0..fibers {
                sim.spawn("spin", |ctx| loop {
                    ctx.sleep(SimDuration::from_nanos(1));
                });
            }
            let err = panic::catch_unwind(AssertUnwindSafe(|| run_within(sim, LIMIT))).unwrap_err();
            let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(msg.contains("event cap"), "fibers={fibers} got: {msg}");
        }
    }

    /// A sole fiber's sleeps never leave its thread: N sleeps are N + 1
    /// logical switches and events (the spawn wake plus one per sleep) but
    /// one real hand-off.
    #[test]
    fn sole_fiber_sleeps_run_inline() {
        const N: u64 = 50;
        let sim = Simulation::new(5);
        sim.enable_metrics();
        sim.spawn("hopper", |ctx| {
            for i in 0..N {
                if i % 2 == 0 {
                    ctx.sleep(SimDuration::from_micros(3));
                } else {
                    ctx.sleep_until(ctx.now() + SimDuration::from_micros(3));
                }
            }
        });
        let report = sim.run();
        report.assert_quiescent();
        assert_eq!(report.end_time.as_micros(), 3 * N);
        assert_eq!(report.events_processed, N + 1);
        let count = |name| report.metrics.counter_value(name, &[]).unwrap();
        assert_eq!(count("sim_context_switches_total"), N + 1);
        assert_eq!(count("sim_fiber_switches_total"), 1);
    }

    #[test]
    fn finished_fiber_threads_are_reused() {
        let sim = Simulation::new(0);
        sim.enable_metrics();
        let c = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&c);
        sim.spawn("parent", move |ctx| {
            // Children run strictly one after another, so each spawn after
            // the first finds the previous child's worker on the free list.
            for i in 0..4u64 {
                let c = Arc::clone(&c2);
                ctx.spawn(format!("child{i}"), move |cctx| {
                    cctx.sleep(SimDuration::from_micros(1));
                    c.fetch_add(1, Ordering::SeqCst);
                });
                ctx.sleep(SimDuration::from_micros(10));
            }
        });
        let report = sim.run();
        report.assert_quiescent();
        assert_eq!(c.load(Ordering::SeqCst), 4);
        let reused = report
            .metrics
            .counter_value("sim_fiber_threads_reused_total", &[])
            .unwrap();
        assert!(
            reused >= 3,
            "sequential children must reuse workers: {reused}"
        );
    }

    #[test]
    fn thread_reuse_does_not_change_schedule() {
        fn run() -> (Vec<(u64, usize)>, u64) {
            let sim = Simulation::new(9);
            let log = Arc::new(Mutex::new(Vec::new()));
            let l = Arc::clone(&log);
            sim.spawn("parent", move |ctx| {
                for i in 0..6usize {
                    let l = Arc::clone(&l);
                    ctx.spawn(format!("c{i}"), move |cctx| {
                        cctx.sleep(SimDuration::from_micros(2 + i as u64));
                        l.lock().push((cctx.now().as_micros(), i));
                    });
                    ctx.sleep(SimDuration::from_micros(3));
                }
            });
            let report = sim.run();
            report.assert_quiescent();
            let out = log.lock().clone();
            (out, report.events_processed)
        }
        assert_eq!(run(), run());
    }

    /// A finished fiber's worker is back on the free list before the next
    /// fiber runs, so whether a spawn reuses a thread never depends on
    /// which OS thread gets a core first. A helper thread holds the pool
    /// lock across the child's exit: the parent must not run until the
    /// child's worker has got past it.
    #[test]
    fn finished_worker_rejoins_free_list_before_the_next_fiber_runs() {
        let sim = Simulation::new(0);
        let kernel = Arc::clone(sim.kernel());
        let (grab_tx, grab_rx) = std::sync::mpsc::channel();
        let (held_tx, held_rx) = std::sync::mpsc::channel();
        let (ran_tx, ran_rx) = std::sync::mpsc::channel();
        let holder = std::thread::spawn(move || {
            grab_rx.recv().expect("child signals");
            let pool = kernel.pool.lock();
            held_tx.send(()).expect("child waits");
            let ran_early = ran_rx
                .recv_timeout(std::time::Duration::from_millis(100))
                .is_ok();
            drop(pool);
            ran_early
        });
        sim.spawn("parent", move |ctx| {
            ctx.spawn("child", move |_| {
                grab_tx.send(()).expect("holder waits");
                held_rx.recv().expect("holder acks");
            });
            ctx.sleep(SimDuration::from_micros(1));
            let _ = ran_tx.send(());
        });
        run_within(sim, LIMIT).assert_quiescent();
        assert!(
            !holder.join().expect("holder thread"),
            "the parent ran before the child's worker rejoined the free list"
        );
    }

    /// `sim.run()` on a helper thread, re-raising its panic. A fiber left
    /// blocked on its resume channel keeps teardown from ever joining the
    /// pool, so a run that has not returned after `limit` fails the test
    /// instead of hanging it.
    fn run_within(sim: Simulation, limit: std::time::Duration) -> SimReport {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(panic::catch_unwind(AssertUnwindSafe(|| sim.run())));
        });
        match rx.recv_timeout(limit) {
            Ok(Ok(report)) => report,
            Ok(Err(payload)) => panic::resume_unwind(payload),
            Err(_) => panic!("simulation still running after {limit:?}"),
        }
    }

    const LIMIT: std::time::Duration = std::time::Duration::from_secs(10);

    /// Counts the fibers inside a user segment (the code between two
    /// blocking calls) and logs each segment's entry.
    #[derive(Default)]
    struct Baton {
        running: AtomicUsize,
        log: Mutex<Vec<(u64, usize, usize)>>,
    }

    impl Baton {
        fn enter(&self, ctx: &Ctx, id: usize, step: usize) {
            let before = self.running.fetch_add(1, Ordering::SeqCst);
            assert_eq!(before, 0, "fiber {id} step {step} entered beside another");
            self.log.lock().push((ctx.now().as_ps(), id, step));
        }

        fn leave(&self, id: usize, step: usize) {
            // Let any other runnable fiber thread get a core while we hold it.
            std::thread::yield_now();
            let before = self.running.fetch_sub(1, Ordering::SeqCst);
            assert_eq!(before, 1, "fiber {id} step {step} ran beside another");
        }
    }

    /// Whichever thread dispatches — `run` for the first wake, a parking
    /// fiber, an exiting one — exactly one fiber body runs at a time, and
    /// two runs make the same schedule.
    #[test]
    fn at_most_one_fiber_runs_at_any_instant() {
        fn run() -> Vec<(u64, usize, usize)> {
            let sim = Simulation::new(11);
            let baton = Arc::new(Baton::default());
            // Never full, so a push never blocks; pops find it empty often.
            let q: SimQueue<usize> = SimQueue::new(128);
            for id in 0..12usize {
                let (baton, q) = (Arc::clone(&baton), q.clone());
                sim.spawn(format!("f{id}"), move |ctx| {
                    for step in 0..8usize {
                        baton.enter(ctx, id, step);
                        let op = (id + step) % 6;
                        if op == 3 {
                            q.push(ctx, id).expect("queue is open");
                        }
                        if op == 5 {
                            let baton = Arc::clone(&baton);
                            let child = 100 + id;
                            ctx.spawn(format!("f{id}.{step}"), move |cctx| {
                                baton.enter(cctx, child, step);
                                baton.leave(child, step);
                                cctx.sleep(SimDuration::from_micros(child as u64 % 2));
                                baton.enter(cctx, child, step + 1);
                                baton.leave(child, step + 1);
                            });
                        }
                        baton.leave(id, step);
                        // Equal timestamps: every fiber sleeps 0-2 us from
                        // shared instants and meets the others on a 5 us
                        // grid; distinct ones: deadlines 0-3 us out.
                        let us = SimDuration::from_micros;
                        match op {
                            0 => ctx.sleep(us(id as u64 % 3)),
                            1 => ctx.sleep_until(SimTime::ZERO + us(5 * step as u64)),
                            2 => ctx.yield_now(),
                            4 => {
                                let _ = q.pop_deadline(ctx, ctx.now() + us(id as u64 % 4));
                            }
                            _ => {}
                        }
                    }
                    baton.enter(ctx, id, 8);
                    baton.leave(id, 8);
                });
            }
            run_within(sim, LIMIT).assert_quiescent();
            let log = baton.log.lock().clone();
            log
        }
        let first = run();
        // 12 fibers x 9 segments, 16 children x 2.
        assert_eq!(first.len(), 12 * 9 + 16 * 2);
        assert_eq!(first, run());
    }

    /// A panic while peers are parked — one on an empty queue with no wake
    /// at all, one on a far wake — is re-raised by `run`, and teardown
    /// cancels both and joins the pool. The queue waiter catches its
    /// cancellation and returns (as a fault-plan SSDlet supervisor does):
    /// it still reports to teardown instead of passing the baton to the
    /// sleeper's queued wake.
    #[test]
    fn fiber_panic_with_parked_peers_propagates() {
        let sim = Simulation::new(0);
        let q: SimQueue<u8> = SimQueue::new(1);
        sim.spawn("waiter", move |ctx| {
            let _ = panic::catch_unwind(AssertUnwindSafe(|| q.pop(ctx)));
        });
        let woke = Arc::new(AtomicUsize::new(0));
        let w = Arc::clone(&woke);
        sim.spawn("sleeper", move |ctx| {
            ctx.sleep(SimDuration::from_millis(1_000));
            w.fetch_add(1, Ordering::SeqCst);
        });
        sim.spawn("boom", |ctx| {
            ctx.sleep(SimDuration::from_micros(5));
            panic!("exploded at 5 us");
        });
        let err = panic::catch_unwind(AssertUnwindSafe(|| run_within(sim, LIMIT))).unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "exploded at 5 us");
        assert_eq!(woke.load(Ordering::SeqCst), 0, "a cancelled peer ran");
    }
}
