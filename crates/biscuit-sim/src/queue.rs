//! Blocking synchronization primitives for fibers.
//!
//! These are the simulation-level building blocks under Biscuit's I/O ports
//! (paper §IV-B "I/O Ports as Bounded Queues"): a condition-style
//! [`WaitQueue`], a bounded [`SimQueue`] with close semantics, and a counting
//! [`Semaphore`]. All of them suspend the calling fiber in *virtual* time.

use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

use crate::sync::Mutex;

use crate::kernel::{Ctx, Pid};
use crate::metrics;
use crate::trace::TraceEvent;

/// A FIFO list of parked fibers, analogous to a condition variable.
///
/// Always use with a predicate loop: spurious wake-ups are possible (and
/// harmless) when notifications race with re-waits.
#[derive(Debug, Default)]
pub struct WaitQueue {
    waiters: Mutex<VecDeque<(Pid, u64)>>,
}

impl WaitQueue {
    /// Creates an empty wait queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parks the calling fiber until notified.
    pub fn wait(&self, ctx: &Ctx) {
        let gen = ctx.next_park_gen();
        self.waiters.lock().push_back((ctx.pid(), gen));
        ctx.park();
    }

    /// Parks the calling fiber until notified *or* until `deadline`,
    /// whichever comes first. The caller's predicate loop distinguishes
    /// the two by re-checking state and the clock. The fiber's (possibly
    /// stale) registration is removed on wake-up, so a timeout never
    /// swallows a notification aimed at another waiter.
    pub fn wait_deadline(&self, ctx: &Ctx, deadline: crate::time::SimTime) {
        let gen = ctx.next_park_gen();
        let pid = ctx.pid();
        self.waiters.lock().push_back((pid, gen));
        ctx.wake_at(deadline, pid, gen);
        ctx.park();
        self.waiters.lock().retain(|&(p, g)| (p, g) != (pid, gen));
    }

    /// Wakes the longest-waiting fiber, if any.
    pub fn notify_one(&self, ctx: &Ctx) {
        let target = self.waiters.lock().pop_front();
        if let Some((pid, gen)) = target {
            ctx.wake_at_now(pid, gen);
        }
    }

    /// Wakes every waiting fiber.
    pub fn notify_all(&self, ctx: &Ctx) {
        let drained: Vec<_> = self.waiters.lock().drain(..).collect();
        for (pid, gen) in drained {
            ctx.wake_at_now(pid, gen);
        }
    }

    /// Number of fibers currently registered.
    pub fn len(&self) -> usize {
        self.waiters.lock().len()
    }

    /// True if no fiber is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Error returned by [`SimQueue::push`] when the queue has been closed.
///
/// Hands the rejected value back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub struct SendClosedError<T>(pub T);

impl<T> std::fmt::Display for SendClosedError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("queue is closed")
    }
}

impl<T: std::fmt::Debug> std::error::Error for SendClosedError<T> {}

#[derive(Debug)]
struct QueueState<T> {
    buf: VecDeque<T>,
    closed: bool,
}

#[derive(Debug)]
struct QueueInner<T> {
    capacity: usize,
    state: Mutex<QueueState<T>>,
    not_full: WaitQueue,
    not_empty: WaitQueue,
    /// `None` for an unlabelled (silent) queue, which pays no atomic load.
    label: Option<Arc<str>>,
    /// Aggregate instruments, registered by the first metered operation.
    metrics: OnceLock<QueueInstruments>,
}

/// Occupancy instruments for one labeled queue (see `docs/METRICS.md`).
#[derive(Debug)]
struct QueueInstruments {
    pushes: metrics::Counter,
    pops: metrics::Counter,
    depth: metrics::Gauge,
}

impl<T> QueueInner<T> {
    #[inline]
    fn trace_depth(&self, ctx: &Ctx, push: bool, depth: usize) {
        let Some(label) = &self.label else { return };
        ctx.tracer().emit(|| {
            let at = ctx.now();
            let queue = Arc::clone(label);
            if push {
                TraceEvent::QueuePush { at, queue, depth }
            } else {
                TraceEvent::QueuePop { at, queue, depth }
            }
        });
        let registry = ctx.metrics();
        if registry.is_enabled() {
            let m = self.metrics.get_or_init(|| {
                let labels = [("queue", &**label)];
                QueueInstruments {
                    pushes: registry.counter("queue_pushes_total", &labels),
                    pops: registry.counter("queue_pops_total", &labels),
                    depth: registry.gauge("queue_depth", &labels),
                }
            });
            if push {
                m.pushes.inc();
            } else {
                m.pops.inc();
            }
            m.depth.set(depth as i64);
        }
    }
}

/// A bounded multi-producer multi-consumer FIFO with close semantics.
///
/// This is the substrate for all three Biscuit port types. Determinism and
/// lock-freedom-in-spirit come from the kernel's one-fiber-at-a-time
/// execution — exactly the property the paper exploits to share queues
/// between SSDlets on the same core without locks.
///
/// # Examples
///
/// ```
/// use biscuit_sim::{Simulation, queue::SimQueue};
///
/// let sim = Simulation::new(0);
/// let q = SimQueue::new(4);
/// let tx = q.clone();
/// sim.spawn("producer", move |ctx| {
///     for i in 0..10 {
///         tx.push(ctx, i).unwrap();
///     }
///     tx.close(ctx);
/// });
/// let rx = q.clone();
/// sim.spawn("consumer", move |ctx| {
///     let mut total = 0;
///     while let Some(v) = rx.pop(ctx) {
///         total += v;
///     }
///     assert_eq!(total, 45);
/// });
/// sim.run().assert_quiescent();
/// ```
#[derive(Debug)]
pub struct SimQueue<T> {
    inner: Arc<QueueInner<T>>,
}

impl<T> Clone for SimQueue<T> {
    fn clone(&self) -> Self {
        SimQueue {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Send> SimQueue<T> {
    /// Creates an unlabelled queue holding at most `capacity` items. It
    /// reports nothing.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (a rendezvous queue is not supported).
    pub fn new(capacity: usize) -> Self {
        Self::build(capacity, None)
    }

    /// Creates a queue that reports to the simulation whose fiber pushes or
    /// pops it: `QueuePush`/`QueuePop` depth events in the trace, and the
    /// occupancy series `queue_pushes_total`, `queue_pops_total` and the
    /// `queue_depth` gauge (with high-water mark), all labeled
    /// `queue=<label>`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn labelled(capacity: usize, label: impl Into<Arc<str>>) -> Self {
        Self::build(capacity, Some(label.into()))
    }

    fn build(capacity: usize, label: Option<Arc<str>>) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        SimQueue {
            inner: Arc::new(QueueInner {
                capacity,
                state: Mutex::new(QueueState {
                    buf: VecDeque::new(),
                    closed: false,
                }),
                not_full: WaitQueue::new(),
                not_empty: WaitQueue::new(),
                label,
                metrics: OnceLock::new(),
            }),
        }
    }

    /// Maximum number of buffered items.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Current number of buffered items.
    pub fn len(&self) -> usize {
        self.inner.state.lock().buf.len()
    }

    /// True if no items are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues `v`, blocking in virtual time while the queue is full.
    ///
    /// # Errors
    ///
    /// Returns [`SendClosedError`] carrying `v` back if the queue is closed.
    pub fn push(&self, ctx: &Ctx, v: T) -> Result<(), SendClosedError<T>> {
        loop {
            {
                let mut st = self.inner.state.lock();
                if st.closed {
                    return Err(SendClosedError(v));
                }
                if st.buf.len() < self.inner.capacity {
                    st.buf.push_back(v);
                    let depth = st.buf.len();
                    drop(st);
                    self.inner.trace_depth(ctx, true, depth);
                    self.inner.not_empty.notify_one(ctx);
                    return Ok(());
                }
            }
            self.inner.not_full.wait(ctx);
        }
    }

    /// Attempts to enqueue without blocking.
    ///
    /// # Errors
    ///
    /// Returns `v` back via [`TryPushError`] if the queue is full or closed.
    pub fn try_push(&self, ctx: &Ctx, v: T) -> Result<(), TryPushError<T>> {
        let mut st = self.inner.state.lock();
        if st.closed {
            return Err(TryPushError::Closed(v));
        }
        if st.buf.len() >= self.inner.capacity {
            return Err(TryPushError::Full(v));
        }
        st.buf.push_back(v);
        let depth = st.buf.len();
        drop(st);
        self.inner.trace_depth(ctx, true, depth);
        self.inner.not_empty.notify_one(ctx);
        Ok(())
    }

    /// Dequeues the next item, blocking in virtual time while the queue is
    /// empty. Returns `None` once the queue is closed *and* drained.
    pub fn pop(&self, ctx: &Ctx) -> Option<T> {
        loop {
            {
                let mut st = self.inner.state.lock();
                if let Some(v) = st.buf.pop_front() {
                    let depth = st.buf.len();
                    drop(st);
                    self.inner.trace_depth(ctx, false, depth);
                    self.inner.not_full.notify_one(ctx);
                    return Some(v);
                }
                if st.closed {
                    return None;
                }
            }
            self.inner.not_empty.wait(ctx);
        }
    }

    /// Attempts to dequeue without blocking.
    ///
    /// Returns `Ok(None)` if the queue is closed and drained.
    ///
    /// # Errors
    ///
    /// Returns [`TryPopEmptyError`] if the queue is momentarily empty but not
    /// closed.
    pub fn try_pop(&self, ctx: &Ctx) -> Result<Option<T>, TryPopEmptyError> {
        let mut st = self.inner.state.lock();
        if let Some(v) = st.buf.pop_front() {
            let depth = st.buf.len();
            drop(st);
            self.inner.trace_depth(ctx, false, depth);
            self.inner.not_full.notify_one(ctx);
            return Ok(Some(v));
        }
        if st.closed {
            Ok(None)
        } else {
            Err(TryPopEmptyError)
        }
    }

    /// Dequeues the next item, blocking in virtual time while the queue is
    /// empty, but gives up at absolute time `deadline`. Returns `Ok(None)`
    /// once the queue is closed and drained.
    ///
    /// # Errors
    ///
    /// Returns [`PopTimedOutError`] if nothing arrived by `deadline`.
    pub fn pop_deadline(
        &self,
        ctx: &Ctx,
        deadline: crate::time::SimTime,
    ) -> Result<Option<T>, PopTimedOutError> {
        loop {
            {
                let mut st = self.inner.state.lock();
                if let Some(v) = st.buf.pop_front() {
                    let depth = st.buf.len();
                    drop(st);
                    self.inner.trace_depth(ctx, false, depth);
                    self.inner.not_full.notify_one(ctx);
                    return Ok(Some(v));
                }
                if st.closed {
                    return Ok(None);
                }
            }
            if ctx.now() >= deadline {
                return Err(PopTimedOutError);
            }
            self.inner.not_empty.wait_deadline(ctx, deadline);
        }
    }

    /// Closes the queue: producers start failing, consumers drain what is
    /// left and then observe end-of-stream. Idempotent.
    pub fn close(&self, ctx: &Ctx) {
        let mut st = self.inner.state.lock();
        if !st.closed {
            st.closed = true;
            drop(st);
            self.inner.not_empty.notify_all(ctx);
            self.inner.not_full.notify_all(ctx);
        }
    }
}

/// Error returned by [`SimQueue::try_push`].
#[derive(Debug, PartialEq, Eq)]
pub enum TryPushError<T> {
    /// The queue was at capacity; the value is handed back.
    Full(T),
    /// The queue was closed; the value is handed back.
    Closed(T),
}

impl<T> std::fmt::Display for TryPushError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TryPushError::Full(_) => f.write_str("queue is full"),
            TryPushError::Closed(_) => f.write_str("queue is closed"),
        }
    }
}

impl<T: std::fmt::Debug> std::error::Error for TryPushError<T> {}

/// Error returned by [`SimQueue::pop_deadline`] when the deadline passed
/// with the queue still empty and open.
#[derive(Debug, PartialEq, Eq)]
pub struct PopTimedOutError;

impl std::fmt::Display for PopTimedOutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("queue receive timed out")
    }
}

impl std::error::Error for PopTimedOutError {}

/// Error returned by [`SimQueue::try_pop`] when the queue is empty but open.
#[derive(Debug, PartialEq, Eq)]
pub struct TryPopEmptyError;

impl std::fmt::Display for TryPopEmptyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("queue is empty")
    }
}

impl std::error::Error for TryPopEmptyError {}

/// A counting semaphore over virtual time.
///
/// Used to model bounded concurrency such as NVMe queue depth or the number
/// of outstanding internal flash commands.
#[derive(Debug)]
pub struct Semaphore {
    state: Mutex<usize>,
    waiters: WaitQueue,
}

impl Semaphore {
    /// Creates a semaphore with `permits` initially available.
    pub fn new(permits: usize) -> Self {
        Semaphore {
            state: Mutex::new(permits),
            waiters: WaitQueue::new(),
        }
    }

    /// Acquires one permit, blocking in virtual time until available.
    pub fn acquire(&self, ctx: &Ctx) {
        loop {
            {
                let mut n = self.state.lock();
                if *n > 0 {
                    *n -= 1;
                    return;
                }
            }
            self.waiters.wait(ctx);
        }
    }

    /// Releases one permit and wakes a waiter.
    pub fn release(&self, ctx: &Ctx) {
        *self.state.lock() += 1;
        self.waiters.notify_one(ctx);
    }

    /// Permits currently available.
    pub fn available(&self) -> usize {
        *self.state.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use crate::Simulation;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fifo_order_preserved() {
        let sim = Simulation::new(0);
        let q = SimQueue::new(3);
        let tx = q.clone();
        sim.spawn("p", move |ctx| {
            for i in 0..100 {
                tx.push(ctx, i).unwrap();
            }
            tx.close(ctx);
        });
        let out = Arc::new(Mutex::new(Vec::new()));
        let o = Arc::clone(&out);
        let rx = q;
        sim.spawn("c", move |ctx| {
            while let Some(v) = rx.pop(ctx) {
                o.lock().push(v);
            }
        });
        sim.run().assert_quiescent();
        assert_eq!(*out.lock(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_capacity_blocks_producer() {
        let sim = Simulation::new(0);
        let q: SimQueue<u32> = SimQueue::new(2);
        let tx = q.clone();
        let hwm = Arc::new(AtomicUsize::new(0));
        let hwm2 = Arc::clone(&hwm);
        let watch = q.clone();
        sim.spawn("p", move |ctx| {
            for i in 0..20 {
                tx.push(ctx, i).unwrap();
                hwm2.fetch_max(watch.len(), Ordering::SeqCst);
            }
            tx.close(ctx);
        });
        let rx = q;
        sim.spawn("c", move |ctx| {
            while rx.pop(ctx).is_some() {
                ctx.sleep(SimDuration::from_micros(1));
            }
        });
        sim.run().assert_quiescent();
        assert!(hwm.load(Ordering::SeqCst) <= 2);
    }

    #[test]
    fn push_after_close_fails() {
        let sim = Simulation::new(0);
        let q: SimQueue<u32> = SimQueue::new(2);
        sim.spawn("p", move |ctx| {
            q.push(ctx, 1).unwrap();
            q.close(ctx);
            assert_eq!(q.push(ctx, 2), Err(SendClosedError(2)));
            assert_eq!(q.pop(ctx), Some(1));
            assert_eq!(q.pop(ctx), None);
        });
        sim.run().assert_quiescent();
    }

    #[test]
    fn multiple_consumers_split_work() {
        // SPMC: every item is delivered exactly once.
        let sim = Simulation::new(0);
        let q = SimQueue::new(4);
        let tx = q.clone();
        sim.spawn("p", move |ctx| {
            for i in 0..50u32 {
                tx.push(ctx, i).unwrap();
            }
            tx.close(ctx);
        });
        let seen = Arc::new(Mutex::new(Vec::new()));
        for c in 0..3 {
            let rx = q.clone();
            let seen = Arc::clone(&seen);
            sim.spawn(format!("c{c}"), move |ctx| {
                while let Some(v) = rx.pop(ctx) {
                    seen.lock().push(v);
                    ctx.sleep(SimDuration::from_micros(c as u64 + 1));
                }
            });
        }
        sim.run().assert_quiescent();
        let mut all = seen.lock().clone();
        all.sort_unstable();
        assert_eq!(all, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn multiple_producers_merge() {
        // MPSC: all items arrive, none duplicated.
        let sim = Simulation::new(0);
        let q = SimQueue::new(4);
        for p in 0..3u32 {
            let tx = q.clone();
            sim.spawn(format!("p{p}"), move |ctx| {
                for i in 0..10 {
                    tx.push(ctx, p * 100 + i).unwrap();
                    ctx.sleep(SimDuration::from_micros(1));
                }
            });
        }
        let done_marker = q.clone();
        sim.spawn("closer", move |ctx| {
            // Close after all producers are done.
            ctx.sleep(SimDuration::from_micros(100));
            done_marker.close(ctx);
        });
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = Arc::clone(&seen);
        let rx = q;
        sim.spawn("c", move |ctx| {
            while let Some(v) = rx.pop(ctx) {
                s.lock().push(v);
            }
        });
        sim.run().assert_quiescent();
        let mut all = seen.lock().clone();
        all.sort_unstable();
        let mut expect: Vec<u32> = (0..3)
            .flat_map(|p| (0..10).map(move |i| p * 100 + i))
            .collect();
        expect.sort_unstable();
        assert_eq!(all, expect);
    }

    #[test]
    fn try_variants_do_not_block() {
        let sim = Simulation::new(0);
        let q: SimQueue<u32> = SimQueue::new(1);
        sim.spawn("t", move |ctx| {
            assert_eq!(q.try_pop(ctx), Err(TryPopEmptyError));
            q.try_push(ctx, 7).unwrap();
            assert_eq!(q.try_push(ctx, 8), Err(TryPushError::Full(8)));
            assert_eq!(q.try_pop(ctx), Ok(Some(7)));
            q.close(ctx);
            assert_eq!(q.try_push(ctx, 9), Err(TryPushError::Closed(9)));
            assert_eq!(q.try_pop(ctx), Ok(None));
        });
        sim.run().assert_quiescent();
    }

    #[test]
    fn pop_deadline_times_out_then_recovers() {
        let sim = Simulation::new(0);
        let q: SimQueue<u32> = SimQueue::new(2);
        let tx = q.clone();
        sim.spawn("late-producer", move |ctx| {
            ctx.sleep(SimDuration::from_micros(100));
            tx.push(ctx, 7).unwrap();
            tx.close(ctx);
        });
        sim.spawn("consumer", move |ctx| {
            let deadline = ctx.now() + SimDuration::from_micros(10);
            assert_eq!(q.pop_deadline(ctx, deadline), Err(PopTimedOutError));
            assert_eq!(ctx.now().as_micros(), 10, "woke exactly at the deadline");
            let deadline = ctx.now() + SimDuration::from_micros(200);
            assert_eq!(q.pop_deadline(ctx, deadline), Ok(Some(7)));
            assert_eq!(ctx.now().as_micros(), 100);
            assert_eq!(q.pop_deadline(ctx, deadline), Ok(None), "closed + drained");
        });
        sim.run().assert_quiescent();
    }

    #[test]
    fn semaphore_limits_concurrency() {
        let sim = Simulation::new(0);
        let sem = Arc::new(Semaphore::new(2));
        let active = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        for i in 0..8 {
            let sem = Arc::clone(&sem);
            let active = Arc::clone(&active);
            let peak = Arc::clone(&peak);
            sim.spawn(format!("w{i}"), move |ctx| {
                sem.acquire(ctx);
                let a = active.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(a, Ordering::SeqCst);
                ctx.sleep(SimDuration::from_micros(10));
                active.fetch_sub(1, Ordering::SeqCst);
                sem.release(ctx);
            });
        }
        sim.run().assert_quiescent();
        assert_eq!(peak.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn close_wakes_blocked_consumer() {
        let sim = Simulation::new(0);
        let q: SimQueue<u32> = SimQueue::new(1);
        let rx = q.clone();
        let got_none = Arc::new(AtomicUsize::new(0));
        let g = Arc::clone(&got_none);
        sim.spawn("c", move |ctx| {
            assert_eq!(rx.pop(ctx), None);
            g.store(1, Ordering::SeqCst);
        });
        sim.spawn("closer", move |ctx| {
            ctx.sleep(SimDuration::from_micros(5));
            q.close(ctx);
        });
        sim.run().assert_quiescent();
        assert_eq!(got_none.load(Ordering::SeqCst), 1);
    }
}
