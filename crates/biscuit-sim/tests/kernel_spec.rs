//! The kernel's semantics, written down as an executable spec and checked
//! against the kernel on every small program.
//!
//! [`Spec`] is a pure interpreter of what a fiber program means: one
//! `(time, seq)` heap of `(pid, gen)` wakes, a park generation per fiber, and
//! a capacity-1 queue with FIFO `not_empty`/`not_full` waiter lists. It always
//! parks — it has no inline path — so it is the parked semantics the kernel's
//! inline sleeps must be indistinguishable from. A wake whose generation no
//! longer matches its fiber's park (a deadline that lost to a push) is
//! dropped by the dispatcher, as `Kernel::dispatch` does.
//!
//! **Domain.** Every program of 1–3 fibers, each with at least one op, and
//! at most [`MAX_OPS`] ops in total, over a 12-letter alphabet on a 3-tick
//! grid (ticks 0, 1, 2; one tick is 1 us): `sleep(0|1|2)`, `sleep_until(0|1|2)`,
//! `yield_now`, blocking `push`, `try_push`, and `pop_deadline(0|1|2)` with
//! an absolute deadline. That is 152 364 programs, enumerated smallest
//! first; fibers are not permuted away, because spawn order is the
//! tie-break. The full 3 × 4 domain (12^12 programs) is out of reach, so the
//! total op count is bounded instead. Measured: 22 s in the debug
//! `cargo test` on 2 vCPUs.
//!
//! For each program the kernel runs with trace and metrics on, and its
//! per-op `(pid, step, now)` log, end time, event count,
//! `sim_context_switches_total`, `FiberResume` `(at, pid)` sequence and
//! blocked fibers must equal the spec's.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use biscuit_sim::queue::SimQueue;
use biscuit_sim::sync::Mutex;
use biscuit_sim::time::{SimDuration, SimTime};
use biscuit_sim::{Simulation, TraceConfig, TraceEvent};

/// One step of a fiber's program. Times are ticks; deadlines are absolute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Sleep(u64),
    SleepUntil(u64),
    Yield,
    Push,
    TryPush,
    PopDeadline(u64),
}

const ALPHABET: [Op; 12] = [
    Op::Sleep(0),
    Op::Sleep(1),
    Op::Sleep(2),
    Op::SleepUntil(0),
    Op::SleepUntil(1),
    Op::SleepUntil(2),
    Op::Yield,
    Op::Push,
    Op::TryPush,
    Op::PopDeadline(0),
    Op::PopDeadline(1),
    Op::PopDeadline(2),
];

const MAX_FIBERS: usize = 3;
const MAX_OPS: usize = 4;

/// Everything the kernel and the spec are compared on.
#[derive(Debug, Default, PartialEq, Eq)]
struct Observed {
    /// `(pid, step, now)` as each op returns, in execution order.
    log: Vec<(usize, usize, u64)>,
    /// `(at, pid)` of every dispatch.
    resumes: Vec<(u64, usize)>,
    end_time: u64,
    events: u64,
    context_switches: u64,
    blocked: Vec<String>,
}

#[derive(Default)]
struct Fiber {
    gen: u64,
    parked: bool,
    /// Index of the op being run.
    pc: usize,
    /// Dispatched back into the op it parked in.
    resumed: bool,
}

/// The always-park interpreter.
#[derive(Default)]
struct Spec {
    now: u64,
    seq: u64,
    wakes: BinaryHeap<Reverse<(u64, u64, usize, u64)>>,
    fibers: Vec<Fiber>,
    /// The capacity-1 queue holds an item.
    full: bool,
    not_empty: VecDeque<(usize, u64)>,
    not_full: VecDeque<(usize, u64)>,
    out: Observed,
}

impl Spec {
    fn run(programs: &[Vec<Op>]) -> Observed {
        let mut s = Spec::default();
        for pid in 0..programs.len() {
            s.fibers.push(Fiber {
                gen: 1,
                parked: true,
                ..Fiber::default()
            });
            s.wake(0, pid, 1);
        }
        while let Some(pid) = s.dispatch() {
            s.run_fiber(pid, &programs[pid]);
        }
        s.out.end_time = s.now;
        s.out.context_switches = s.out.events;
        s.out.blocked = (0..programs.len())
            .filter(|&pid| s.fibers[pid].parked)
            .map(|pid| format!("f{pid}"))
            .collect();
        s.out
    }

    fn wake(&mut self, at: u64, pid: usize, gen: u64) {
        self.wakes
            .push(Reverse((at.max(self.now), self.seq, pid, gen)));
        self.seq += 1;
    }

    /// Wakes the waiter a queue operation popped off a waiter list, if any.
    fn notify(&mut self, waiter: Option<(usize, u64)>) {
        if let Some((pid, gen)) = waiter {
            self.wake(self.now, pid, gen);
        }
    }

    /// Pops wakes until one matches its fiber's current park.
    fn dispatch(&mut self) -> Option<usize> {
        while let Some(Reverse((at, _, pid, gen))) = self.wakes.pop() {
            let fiber = &mut self.fibers[pid];
            if fiber.parked && fiber.gen == gen {
                fiber.parked = false;
                self.now = at;
                self.out.events += 1;
                self.out.resumes.push((at, pid));
                return Some(pid);
            }
        }
        None
    }

    /// Runs `pid` until it parks or finishes.
    fn run_fiber(&mut self, pid: usize, program: &[Op]) {
        while let Some(&op) = program.get(self.fibers[pid].pc) {
            let resumed = std::mem::take(&mut self.fibers[pid].resumed);
            if !self.step(pid, op, resumed) {
                let fiber = &mut self.fibers[pid];
                fiber.gen += 1;
                fiber.parked = true;
                fiber.resumed = true;
                return;
            }
            self.out.log.push((pid, self.fibers[pid].pc, self.now));
            self.fibers[pid].pc += 1;
        }
    }

    /// One attempt at `op`: `true` when it returned, `false` when the fiber
    /// must park (its wake or waiter registration is then in place).
    fn step(&mut self, pid: usize, op: Op, resumed: bool) -> bool {
        let next = self.fibers[pid].gen + 1;
        match op {
            Op::Sleep(_) | Op::SleepUntil(_) | Op::Yield if resumed => true,
            Op::Sleep(d) if d > 0 => {
                self.wake(self.now + d, pid, next);
                false
            }
            Op::SleepUntil(t) if t > self.now => {
                self.wake(t, pid, next);
                false
            }
            Op::Sleep(_) | Op::SleepUntil(_) => true,
            Op::Yield => {
                self.wake(self.now, pid, next);
                false
            }
            Op::Push | Op::TryPush if !self.full => {
                self.full = true;
                let waiter = self.not_empty.pop_front();
                self.notify(waiter);
                true
            }
            Op::TryPush => true,
            Op::Push => {
                self.not_full.push_back((pid, next));
                false
            }
            Op::PopDeadline(deadline) => {
                let gen = self.fibers[pid].gen;
                if resumed {
                    self.not_empty.retain(|&w| w != (pid, gen));
                }
                if self.full {
                    self.full = false;
                    let waiter = self.not_full.pop_front();
                    self.notify(waiter);
                    true
                } else if self.now >= deadline {
                    true
                } else {
                    self.not_empty.push_back((pid, next));
                    self.wake(deadline, pid, next);
                    false
                }
            }
        }
    }
}

fn ticks(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_micros(n)
}

/// Runs the programs on the kernel, one fiber each, over one capacity-1
/// queue.
fn kernel(programs: &[Vec<Op>]) -> Observed {
    let sim = Simulation::new(0);
    sim.enable_trace(TraceConfig::with_capacity(1 << 10));
    sim.enable_metrics();
    let q: SimQueue<()> = SimQueue::new(1);
    let log = Arc::new(Mutex::new(Vec::new()));
    for (pid, program) in programs.iter().cloned().enumerate() {
        let (q, log) = (q.clone(), Arc::clone(&log));
        sim.spawn(format!("f{pid}"), move |ctx| {
            for (step, op) in program.into_iter().enumerate() {
                match op {
                    Op::Sleep(d) => ctx.sleep(SimDuration::from_micros(d)),
                    Op::SleepUntil(t) => ctx.sleep_until(ticks(t)),
                    Op::Yield => ctx.yield_now(),
                    Op::Push => q.push(ctx, ()).expect("the queue is never closed"),
                    Op::TryPush => {
                        let _ = q.try_push(ctx, ());
                    }
                    Op::PopDeadline(t) => {
                        let _ = q.pop_deadline(ctx, ticks(t));
                    }
                }
                log.lock().push((pid, step, ctx.now().as_micros()));
            }
        });
    }
    let report = sim.run();
    let resumes = report
        .trace
        .events()
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::FiberResume { at, pid } => Some((at.as_micros(), *pid)),
            _ => None,
        })
        .collect();
    let log = log.lock().clone();
    Observed {
        log,
        resumes,
        end_time: report.end_time.as_micros(),
        events: report.events_processed,
        context_switches: report
            .metrics
            .counter_value("sim_context_switches_total", &[])
            .expect("the kernel registers its switch counter"),
        blocked: report.blocked,
    }
}

/// Every program in the domain, fewest ops first.
fn domain() -> Vec<Vec<Vec<Op>>> {
    let mut out = Vec::new();
    for total in 1..=MAX_OPS {
        extend(&mut out, vec![Vec::new()], total);
    }
    out
}

/// Appends every program that adds `left` ops to `program`, each op either
/// joining its last fiber or starting a new one.
fn extend(out: &mut Vec<Vec<Vec<Op>>>, program: Vec<Vec<Op>>, left: usize) {
    if left == 0 {
        out.push(program);
        return;
    }
    for op in ALPHABET {
        let mut p = program.clone();
        p.last_mut().unwrap().push(op);
        extend(out, p, left - 1);
        if program.len() < MAX_FIBERS && program.last().is_some_and(|f| !f.is_empty()) {
            let mut p = program.clone();
            p.push(vec![op]);
            extend(out, p, left - 1);
        }
    }
}

/// The kernel equals the spec on every program of the domain; the smallest
/// program that differs is reported. Run unpinned, two threads share the
/// programs: one thread takes ~32 s, as the fibers' OS threads hand off
/// across cores.
#[test]
fn kernel_matches_the_spec_on_every_small_program() {
    let programs = domain();
    assert_eq!(programs.len(), 152_364);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let first_failure = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let programs = &programs;
                s.spawn(move || {
                    (t..programs.len()).step_by(threads).find_map(|i| {
                        let (want, got) = (Spec::run(&programs[i]), kernel(&programs[i]));
                        (want != got).then_some((i, want, got))
                    })
                })
            })
            .collect();
        workers
            .into_iter()
            .filter_map(|w| w.join().expect("worker"))
            .min_by_key(|(i, ..)| *i)
    });
    if let Some((i, want, got)) = first_failure {
        panic!(
            "program #{i} {:?}\n spec: {want:?}\n kernel: {got:?}",
            programs[i]
        );
    }
}
