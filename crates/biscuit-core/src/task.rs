//! The SSDlet abstraction and its execution context.
//!
//! An SSDlet is "a simple C++ program written with Biscuit APIs ... a unit
//! of execution independently scheduled" (paper §III-B). Here it is a trait
//! whose `run` executes on a device fiber. The [`TaskCtx`] hands the SSDlet
//! its typed ports, its startup arguments, its file handles, and the means
//! to charge device-CPU compute time — everything `libslet` provides on the
//! real hardware.

use std::any::Any;
use std::sync::Arc;

use biscuit_proto::HostLink;
use biscuit_sim::qprof::Stage;
use biscuit_sim::time::{SimDuration, SimTime};
use biscuit_sim::Ctx;
use biscuit_ssd::SsdDevice;

use crate::config::CoreConfig;
use crate::error::{BiscuitError, BiscuitResult};
use crate::port::Connection;

/// Startup arguments handed to an SSDlet factory (the `ARG_TYPE` of the
/// paper's `SSDLet` template).
pub type TaskArgs = Option<Box<dyn Any + Send>>;

/// Extracts a typed argument from [`TaskArgs`].
///
/// # Errors
///
/// Returns [`BiscuitError::BadArgument`] when the argument is missing or of
/// a different type.
pub fn args_as<T: Any>(args: TaskArgs) -> BiscuitResult<T> {
    match args {
        None => Err(BiscuitError::BadArgument(format!(
            "expected {} argument, got none",
            std::any::type_name::<T>()
        ))),
        Some(b) => b.downcast::<T>().map(|b| *b).map_err(|_| {
            BiscuitError::BadArgument(format!("argument is not a {}", std::any::type_name::<T>()))
        }),
    }
}

/// A device-resident task (paper Code 1's `SSDLet::run`).
pub trait Ssdlet: Send {
    /// The SSDlet body. Called once on a device fiber after all
    /// communication channels are set up (`Application::start`).
    fn run(&mut self, ctx: &mut TaskCtx<'_>);
}

/// Everything an SSDlet can reach at run time.
pub struct TaskCtx<'a> {
    pub(crate) sim: &'a Ctx,
    pub(crate) name: String,
    pub(crate) inputs: Vec<Option<Arc<Connection>>>,
    pub(crate) outputs: Vec<Option<Arc<Connection>>>,
    pub(crate) cfg: Arc<CoreConfig>,
    pub(crate) link: Arc<HostLink>,
    pub(crate) device: Arc<SsdDevice>,
    pub(crate) core: usize,
}

impl std::fmt::Debug for TaskCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskCtx")
            .field("name", &self.name)
            .field("core", &self.core)
            .finish()
    }
}

impl<'a> TaskCtx<'a> {
    /// The instance's name (application + SSDlet identifier).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The underlying simulation context, for APIs that take [`Ctx`]
    /// directly (file reads, sleeps).
    pub fn sim(&self) -> &'a Ctx {
        self.sim
    }

    /// The device this SSDlet runs inside.
    pub fn device(&self) -> &Arc<SsdDevice> {
        &self.device
    }

    fn input(&self, idx: usize) -> BiscuitResult<&Arc<Connection>> {
        self.inputs
            .get(idx)
            .ok_or_else(|| BiscuitError::PortOutOfRange {
                ssdlet: self.name.clone(),
                port: idx,
                declared: self.inputs.len(),
            })?
            .as_ref()
            .ok_or_else(|| {
                BiscuitError::InvalidState(format!(
                    "input port {idx} of '{}' is not connected",
                    self.name
                ))
            })
    }

    fn output(&self, idx: usize) -> BiscuitResult<&Arc<Connection>> {
        self.outputs
            .get(idx)
            .ok_or_else(|| BiscuitError::PortOutOfRange {
                ssdlet: self.name.clone(),
                port: idx,
                declared: self.outputs.len(),
            })?
            .as_ref()
            .ok_or_else(|| {
                BiscuitError::InvalidState(format!(
                    "output port {idx} of '{}' is not connected",
                    self.name
                ))
            })
    }

    /// Receives the next value on input port `idx`, blocking in virtual
    /// time. Returns `Ok(None)` at end-of-stream (all producers finished).
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown/unconnected port or a type mismatch.
    pub fn recv<T: Any + Send>(&self, idx: usize) -> BiscuitResult<Option<T>> {
        let conn = self.input(idx)?;
        if conn.type_id != std::any::TypeId::of::<T>() {
            return Err(BiscuitError::TypeMismatch {
                expected: conn.type_name.to_owned(),
                found: std::any::type_name::<T>().to_owned(),
            });
        }
        match conn.recv_on_device(self.sim, &self.cfg) {
            None => Ok(None),
            Some(v) => Ok(Some(
                *v.downcast::<T>()
                    .expect("connection type checked at connect"),
            )),
        }
    }

    /// Sends a value on output port `idx`, blocking while the queue is full.
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown/unconnected port, a type mismatch, or
    /// a closed connection.
    pub fn send<T: Any + Send>(&self, idx: usize, value: T) -> BiscuitResult<()> {
        let conn = self.output(idx)?;
        if conn.type_id != std::any::TypeId::of::<T>() {
            return Err(BiscuitError::TypeMismatch {
                expected: conn.type_name.to_owned(),
                found: std::any::type_name::<T>().to_owned(),
            });
        }
        conn.send_from_device(self.sim, &self.cfg, &self.link, Box::new(value))
    }

    /// Charges `d` of compute time on this application's device core.
    /// Concurrent SSDlets of other applications pinned to the same core
    /// queue behind it — the paper's per-application multi-core scheduling.
    pub fn compute(&self, d: SimDuration) {
        self.compute_charged(d, 0);
    }

    /// Charges compute for software-processing `bytes` at the device CPU
    /// scan rate (what an SSDlet pays to grovel data *without* the
    /// pattern-matcher IP).
    pub fn compute_bytes(&self, bytes: u64) {
        let rate = self.device.config().cpu_scan_rate;
        self.compute_charged(SimDuration::for_bytes(bytes, rate), bytes);
    }

    /// The charge itself plus its query-profile span. The recorded window
    /// includes queueing behind other applications on the same core; the
    /// profiler's sweep attributes overlap to the innermost span, so the
    /// queued portion surfaces as blocked time, not double-counted compute.
    fn compute_charged(&self, d: SimDuration, bytes: u64) {
        let t0 = self.sim.now();
        self.device.cores().serve(self.sim, self.core, d);
        self.sim.qprof().record(
            Stage::SsdletCompute,
            t0,
            self.sim.now(),
            bytes,
            self.core as u32,
        );
    }

    /// Cooperative yield (the paper's explicit `yield` call).
    pub fn yield_now(&self) {
        self.sim.yield_now();
    }
}
