//! Applications: groups of cooperating SSDlets and their dataflow wiring
//! (paper §III-B, Code 3).
//!
//! A host program creates an [`Application`], instantiates proxy SSDlets
//! from loaded modules, wires ports with [`Application::connect`] (typed,
//! inter-SSDlet), [`Application::connect_to`]/[`Application::connect_from`]
//! (host↔device, `Packet`-codec, SPSC only), or [`connect_apps`]
//! (inter-application, SPSC only), and calls [`Application::start`] —
//! which "makes sure that all SSDlets begin execution after their
//! communication channels are completely set up".
//!
//! Type checking is aggressive (paper §III-A): every connection validates
//! the declared port types of both endpoints against the connection's type
//! parameter, and SPSC-only topologies are enforced for boundary ports.

use std::any::{Any, TypeId};
use std::marker::PhantomData;
use std::sync::Arc;

use biscuit_sim::sync::Mutex;

use biscuit_proto::wire::Wire;
use biscuit_sim::fault::{FaultSite, SsdletDisruption};
use biscuit_sim::queue::WaitQueue;
use biscuit_sim::Ctx;
use biscuit_ssd::memory::{Arena, MemoryGrant};

use crate::error::{BiscuitError, BiscuitResult};
use crate::module::{PortDecl, SsdletSpec};
use crate::port::{Codec, Connection, HostInPort, HostOutPort, PortKind};
use crate::runtime::ModuleId;
use crate::session::Session;
use crate::ssd::Ssd;
use crate::task::{TaskArgs, TaskCtx};

/// Reference to an SSDlet's output port within one application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutRef {
    task: usize,
    port: usize,
}

/// Reference to an SSDlet's input port within one application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InRef {
    task: usize,
    port: usize,
}

/// Host-side proxy for an SSDlet instance (the `SSDLet` of `libsisc`).
#[derive(Debug, Clone, Copy)]
pub struct SsdletHandle {
    task: usize,
}

impl SsdletHandle {
    /// This SSDlet's output port `i`.
    pub fn out(&self, i: usize) -> OutRef {
        OutRef {
            task: self.task,
            port: i,
        }
    }

    /// This SSDlet's input port `i`.
    pub fn input(&self, i: usize) -> InRef {
        InRef {
            task: self.task,
            port: i,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Building,
    Started,
}

struct TaskSlot {
    mid: ModuleId,
    id: String,
    spec: SsdletSpec,
    args: TaskArgs,
    inputs: Vec<Option<Arc<Connection>>>,
    outputs: Vec<Option<Arc<Connection>>>,
}

struct AppState {
    phase: Phase,
    tasks: Vec<TaskSlot>,
    host_channels: usize,
}

/// Completion bookkeeping shared with the device fibers.
struct AppShared {
    remaining: Mutex<usize>,
    done: WaitQueue,
    grants: Mutex<Vec<MemoryGrant>>,
    /// Device user memory charged to the owning session, returned at
    /// application teardown.
    session_memory: Mutex<u64>,
    /// First SSDlet that died with its restart budget exhausted:
    /// `(fiber name, restarts attempted)`. The application still tears
    /// down cleanly — consumers see closed ports, not a hang — and the
    /// failure surfaces through [`Application::failure`] /
    /// [`Application::join_checked`].
    failed: Mutex<Option<(String, u32)>>,
}

/// A group of SSDlets that run cooperatively (paper §III-B).
pub struct Application {
    ssd: Ssd,
    name: String,
    session: Option<Session>,
    state: Mutex<AppState>,
    shared: Arc<AppShared>,
}

impl std::fmt::Debug for Application {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Application")
            .field("name", &self.name)
            .field("tasks", &self.state.lock().tasks.len())
            .finish()
    }
}

impl Application {
    /// Creates an empty application on the given SSD.
    pub fn new(ssd: &Ssd, name: impl Into<String>) -> Application {
        Self::build(ssd, name, None)
    }

    /// Creates an application owned by a user [`Session`]: its data
    /// channels and device memory draw from the session's quota (the
    /// multi-user support the paper names as its ensuing effort, §VIII).
    pub fn new_in_session(ssd: &Ssd, name: impl Into<String>, session: &Session) -> Application {
        Self::build(ssd, name, Some(session.clone()))
    }

    fn build(ssd: &Ssd, name: impl Into<String>, session: Option<Session>) -> Application {
        Application {
            ssd: ssd.clone(),
            name: name.into(),
            session,
            state: Mutex::new(AppState {
                phase: Phase::Building,
                tasks: Vec::new(),
                host_channels: 0,
            }),
            shared: Arc::new(AppShared {
                remaining: Mutex::new(0),
                done: WaitQueue::new(),
                grants: Mutex::new(Vec::new()),
                session_memory: Mutex::new(0),
                failed: Mutex::new(None),
            }),
        }
    }

    /// Reserves one data channel from the device pool and, when owned by a
    /// session, from the session's envelope too.
    fn alloc_data_channel(&self) -> BiscuitResult<()> {
        self.ssd
            .runtime()
            .alloc_channel(self.ssd.config().max_data_channels)?;
        if let Some(session) = &self.session {
            if let Err(e) = session.take_channel() {
                self.ssd.runtime().free_channels(1);
                return Err(e);
            }
        }
        Ok(())
    }

    /// Instantiates a proxy for SSDlet `id` of module `mid` with no
    /// arguments.
    ///
    /// # Errors
    ///
    /// Returns an error if the module or identifier is unknown, or if the
    /// application already started.
    pub fn ssdlet(&self, mid: ModuleId, id: &str) -> BiscuitResult<SsdletHandle> {
        self.ssdlet_args(mid, id, None)
    }

    /// Instantiates a proxy with a typed argument (paper Code 3's
    /// `make_tuple(File(...))`).
    ///
    /// # Errors
    ///
    /// Same as [`Application::ssdlet`].
    pub fn ssdlet_with<A: Any + Send>(
        &self,
        mid: ModuleId,
        id: &str,
        arg: A,
    ) -> BiscuitResult<SsdletHandle> {
        self.ssdlet_args(mid, id, Some(Box::new(arg)))
    }

    fn ssdlet_args(&self, mid: ModuleId, id: &str, args: TaskArgs) -> BiscuitResult<SsdletHandle> {
        let module = self.ssd.runtime().module(mid)?;
        let spec = module.entry(id)?.spec.clone();
        let mut st = self.state.lock();
        if st.phase != Phase::Building {
            return Err(BiscuitError::InvalidState(
                "cannot add SSDlets after start".into(),
            ));
        }
        let task = st.tasks.len();
        let n_in = spec.inputs.len();
        let n_out = spec.outputs.len();
        st.tasks.push(TaskSlot {
            mid,
            id: id.to_owned(),
            spec,
            args,
            inputs: vec![None; n_in],
            outputs: vec![None; n_out],
        });
        Ok(SsdletHandle { task })
    }

    fn decl_of_out(st: &AppState, r: OutRef) -> BiscuitResult<PortDecl> {
        let slot = st
            .tasks
            .get(r.task)
            .ok_or_else(|| BiscuitError::InvalidState("unknown task handle".into()))?;
        slot.spec
            .outputs
            .get(r.port)
            .copied()
            .ok_or_else(|| BiscuitError::PortOutOfRange {
                ssdlet: slot.id.clone(),
                port: r.port,
                declared: slot.spec.outputs.len(),
            })
    }

    fn decl_of_in(st: &AppState, r: InRef) -> BiscuitResult<PortDecl> {
        let slot = st
            .tasks
            .get(r.task)
            .ok_or_else(|| BiscuitError::InvalidState("unknown task handle".into()))?;
        slot.spec
            .inputs
            .get(r.port)
            .copied()
            .ok_or_else(|| BiscuitError::PortOutOfRange {
                ssdlet: slot.id.clone(),
                port: r.port,
                declared: slot.spec.inputs.len(),
            })
    }

    fn check_type<T: Any>(decl: PortDecl) -> BiscuitResult<()> {
        if decl.type_id != TypeId::of::<T>() {
            return Err(BiscuitError::TypeMismatch {
                expected: decl.type_name.to_owned(),
                found: std::any::type_name::<T>().to_owned(),
            });
        }
        Ok(())
    }

    fn building(&self) -> BiscuitResult<biscuit_sim::sync::MutexGuard<'_, AppState>> {
        let st = self.state.lock();
        if st.phase != Phase::Building {
            return Err(BiscuitError::InvalidState(
                "connections must be made before start".into(),
            ));
        }
        Ok(st)
    }

    /// Connects two SSDlets of this application with a typed port
    /// (paper Code 3: `wc.connect(mapper1.out(0), shuffler.in(0))`).
    ///
    /// SPSC, SPMC (one output feeding several inputs through a shared
    /// queue), and MPSC (several outputs feeding one input) are all legal,
    /// exactly as in §III-C.
    ///
    /// # Errors
    ///
    /// Returns a type mismatch, range, or state error.
    pub fn connect<T: Any + Send>(&self, out: OutRef, input: InRef) -> BiscuitResult<()> {
        let mut st = self.building()?;
        let out_decl = Self::decl_of_out(&st, out)?;
        let in_decl = Self::decl_of_in(&st, input)?;
        Self::check_type::<T>(out_decl)?;
        Self::check_type::<T>(in_decl)?;
        let existing_out = st.tasks[out.task].outputs[out.port].clone();
        let existing_in = st.tasks[input.task].inputs[input.port].clone();
        match (existing_out, existing_in) {
            (None, None) => {
                let label = format!(
                    "{}:{}.out{}->{}.in{}",
                    self.name, st.tasks[out.task].id, out.port, st.tasks[input.task].id, input.port
                );
                let conn = Connection::new(
                    PortKind::InterSsdlet,
                    out_decl.type_id,
                    out_decl.type_name,
                    self.ssd.config().port_capacity,
                    None,
                    label,
                );
                conn.add_producer();
                st.tasks[out.task].outputs[out.port] = Some(Arc::clone(&conn));
                st.tasks[input.task].inputs[input.port] = Some(conn);
            }
            (Some(conn), None) => {
                // SPMC: another consumer joins the existing queue.
                st.tasks[input.task].inputs[input.port] = Some(conn);
            }
            (None, Some(conn)) => {
                // MPSC: another producer joins the existing queue.
                if conn.kind != PortKind::InterSsdlet {
                    return Err(BiscuitError::ConnectionNotAllowed(
                        "boundary ports are SPSC only".into(),
                    ));
                }
                conn.add_producer();
                st.tasks[out.task].outputs[out.port] = Some(conn);
            }
            (Some(a), Some(b)) => {
                if Arc::ptr_eq(&a, &b) {
                    return Err(BiscuitError::ConnectionNotAllowed(
                        "ports already connected to each other".into(),
                    ));
                }
                return Err(BiscuitError::ConnectionNotAllowed(
                    "both ports already belong to different connections".into(),
                ));
            }
        }
        Ok(())
    }

    /// Connects an SSDlet output to the host program, returning the host
    /// receiving port (paper Code 3:
    /// `wc.connectTo<pair<string,uint32_t>>(reducer.out(0))`).
    ///
    /// # Errors
    ///
    /// Returns a type/state error, or [`BiscuitError::NoChannel`] when the
    /// data-channel pool is exhausted.
    pub fn connect_to<T: Wire + Any + Send>(&self, out: OutRef) -> BiscuitResult<HostInPort<T>> {
        let mut st = self.building()?;
        let decl = Self::decl_of_out(&st, out)?;
        Self::check_type::<T>(decl)?;
        if st.tasks[out.task].outputs[out.port].is_some() {
            return Err(BiscuitError::ConnectionNotAllowed(
                "device-to-host ports are SPSC only".into(),
            ));
        }
        self.alloc_data_channel()?;
        st.host_channels += 1;
        let label = format!(
            "{}:{}.out{}->host",
            self.name, st.tasks[out.task].id, out.port
        );
        let conn = Connection::new(
            PortKind::DeviceToHost,
            decl.type_id,
            decl.type_name,
            self.ssd.config().port_capacity,
            Some(Codec::of::<T>()),
            label,
        );
        conn.add_producer();
        st.tasks[out.task].outputs[out.port] = Some(Arc::clone(&conn));
        Ok(HostInPort {
            conn,
            cfg: Arc::clone(self.ssd.config()),
            _marker: PhantomData,
        })
    }

    /// Connects the host program to an SSDlet input, returning the host
    /// sending port.
    ///
    /// # Errors
    ///
    /// Returns a type/state error, or [`BiscuitError::NoChannel`] when the
    /// data-channel pool is exhausted.
    pub fn connect_from<T: Wire + Any + Send>(
        &self,
        input: InRef,
    ) -> BiscuitResult<HostOutPort<T>> {
        let mut st = self.building()?;
        let decl = Self::decl_of_in(&st, input)?;
        Self::check_type::<T>(decl)?;
        if st.tasks[input.task].inputs[input.port].is_some() {
            return Err(BiscuitError::ConnectionNotAllowed(
                "host-to-device ports are SPSC only".into(),
            ));
        }
        self.alloc_data_channel()?;
        st.host_channels += 1;
        let label = format!(
            "{}:host->{}.in{}",
            self.name, st.tasks[input.task].id, input.port
        );
        let conn = Connection::new(
            PortKind::HostToDevice,
            decl.type_id,
            decl.type_name,
            self.ssd.config().port_capacity,
            Some(Codec::of::<T>()),
            label,
        );
        conn.add_producer(); // the host port is the producer
        st.tasks[input.task].inputs[input.port] = Some(Arc::clone(&conn));
        Ok(HostOutPort {
            conn,
            cfg: Arc::clone(self.ssd.config()),
            link: Arc::clone(self.ssd.link()),
            closed: Mutex::new(false),
            _marker: PhantomData,
        })
    }

    /// Starts every SSDlet of the application: instantiates them on the
    /// device, charges their memory to the user arena, pins the application
    /// to a device core, and spawns one fiber per SSDlet.
    ///
    /// # Errors
    ///
    /// Returns an error if already started, if a factory fails, or if the
    /// device user arena cannot hold the instances.
    pub fn start(&self, ctx: &Ctx) -> BiscuitResult<()> {
        let mut st = self.state.lock();
        if st.phase != Phase::Building {
            return Err(BiscuitError::InvalidState(
                "application already started".into(),
            ));
        }
        // Control command to set up channels and kick execution.
        self.ssd.control_roundtrip(ctx);

        let device = Arc::clone(self.ssd.device());
        let cfg = Arc::clone(self.ssd.config());
        let link = Arc::clone(self.ssd.link());
        let core = self.ssd.runtime().assign_core(device.config().cores);

        // Instantiate every SSDlet and charge its memory to the user arena.
        // On any failure, roll back the grants already taken.
        let mut instances = Vec::with_capacity(st.tasks.len());
        let mut grants: Vec<MemoryGrant> = Vec::with_capacity(st.tasks.len());
        for slot in &mut st.tasks {
            let build = (|| {
                let module = self.ssd.runtime().module(slot.mid)?;
                let inst = (module.entry(&slot.id)?.factory)(slot.args.take())?;
                let mem = if slot.spec.memory_bytes > 0 {
                    slot.spec.memory_bytes
                } else {
                    cfg.default_ssdlet_memory
                };
                let grant = device.memory().allocate(Arena::User, mem)?;
                if let Some(session) = &self.session {
                    if let Err(e) = session.take_memory(mem) {
                        device.memory().free(grant);
                        return Err(e);
                    }
                }
                Ok::<_, BiscuitError>((inst, grant))
            })();
            match build {
                Ok((inst, grant)) => {
                    *self.shared.session_memory.lock() += grant.bytes();
                    instances.push(inst);
                    grants.push(grant);
                }
                Err(e) => {
                    // Roll back everything taken so far.
                    let charged = std::mem::take(&mut *self.shared.session_memory.lock());
                    if let Some(session) = &self.session {
                        session.give_memory(charged);
                    }
                    for g in grants {
                        device.memory().free(g);
                    }
                    return Err(e);
                }
            }
        }
        st.phase = Phase::Started;
        *self.shared.remaining.lock() = st.tasks.len();
        *self.shared.grants.lock() = grants;

        // One fiber per SSDlet, all pinned to this application's core.
        let host_channels = st.host_channels;
        for (slot, mut instance) in st.tasks.iter().zip(instances) {
            let name = format!("{}-{}", self.name, slot.id);
            let inputs = slot.inputs.clone();
            let outputs = slot.outputs.clone();
            let device = Arc::clone(&device);
            let cfg = Arc::clone(&cfg);
            let link = Arc::clone(&link);
            let ssd = self.ssd.clone();
            let session = self.session.clone();
            let shared = Arc::clone(&self.shared);
            let mid = slot.mid;
            ssd.runtime().task_started(mid);
            let fiber_name = name.clone();
            let plan = self.ssd.fault_plan();
            ctx.spawn(fiber_name, move |fctx| {
                let mut tc = TaskCtx {
                    sim: fctx,
                    name,
                    inputs,
                    outputs,
                    cfg,
                    link,
                    device: Arc::clone(&device),
                    core,
                };
                if plan.is_active() {
                    // Fault-injected execution: draw a disruption before
                    // each attempt, catch panics, and restart the same
                    // instance up to the plan's budget. Injected panics
                    // strike at attempt entry — before any output — so a
                    // re-run is idempotent. A fault-free plan never enters
                    // this arm, keeping panic semantics (propagate and
                    // kill the run) identical to the unfaulted platform.
                    let max_restarts = plan.max_restarts();
                    let mut restarts = 0u32;
                    loop {
                        let disruption = plan.ssdlet_disruption();
                        if let Some(SsdletDisruption::Stall(d)) = disruption {
                            plan.record_injected(
                                fctx,
                                fctx.now(),
                                FaultSite::Ssdlet,
                                &format!("{} stalled", tc.name),
                            );
                            fctx.sleep(d);
                            plan.record_recovered(fctx, fctx.now(), FaultSite::Ssdlet, "resume");
                        }
                        let inject_panic = matches!(disruption, Some(SsdletDisruption::Panic));
                        if inject_panic {
                            plan.record_injected(
                                fctx,
                                fctx.now(),
                                FaultSite::Ssdlet,
                                &format!("{} panicked", tc.name),
                            );
                        }
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                if inject_panic {
                                    panic!("injected SSDlet panic");
                                }
                                instance.run(&mut tc);
                            }));
                        match outcome {
                            Ok(()) => break,
                            Err(_) if restarts < max_restarts => {
                                restarts += 1;
                                plan.record_recovered(
                                    fctx,
                                    fctx.now(),
                                    FaultSite::Ssdlet,
                                    "restart",
                                );
                            }
                            Err(_) => {
                                plan.record_failed(fctx, fctx.now(), FaultSite::Ssdlet, "restart");
                                let mut failed = shared.failed.lock();
                                if failed.is_none() {
                                    *failed = Some((tc.name.clone(), restarts));
                                }
                                break;
                            }
                        }
                    }
                } else {
                    instance.run(&mut tc);
                }
                // End of execution: this task stops producing on all of its
                // output connections.
                for conn in tc.outputs.iter().flatten() {
                    conn.producer_done(fctx);
                }
                ssd.runtime().task_finished(mid);
                let mut remaining = shared.remaining.lock();
                *remaining -= 1;
                let last = *remaining == 0;
                drop(remaining);
                if last {
                    // Application teardown: release user-arena memory and
                    // the data channels back to the device pool and, when
                    // session-owned, to the session envelope.
                    let grants = std::mem::take(&mut *shared.grants.lock());
                    for g in grants {
                        device.memory().free(g);
                    }
                    ssd.runtime().free_channels(host_channels);
                    if let Some(session) = &session {
                        session.give_channels(host_channels);
                        let charged = std::mem::take(&mut *shared.session_memory.lock());
                        session.give_memory(charged);
                    }
                    shared.done.notify_all(fctx);
                }
            });
        }
        Ok(())
    }

    /// Waits until every SSDlet of this application has finished.
    pub fn join(&self, ctx: &Ctx) {
        loop {
            if *self.shared.remaining.lock() == 0 {
                return;
            }
            self.shared.done.wait(ctx);
        }
    }

    /// Waits for every SSDlet and reports how the application ended: `Ok`
    /// on clean completion, [`BiscuitError::SsdletPanicked`] if any SSDlet
    /// died with its restart budget exhausted.
    ///
    /// # Errors
    ///
    /// Returns the first SSDlet failure recorded during execution.
    pub fn join_checked(&self, ctx: &Ctx) -> BiscuitResult<()> {
        self.join(ctx);
        match self.failure() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// The first unrecovered SSDlet failure, if any (never set while the
    /// fault plan's restart policy still succeeds).
    pub fn failure(&self) -> Option<BiscuitError> {
        self.shared
            .failed
            .lock()
            .as_ref()
            .map(|(ssdlet, restarts)| BiscuitError::SsdletPanicked {
                ssdlet: ssdlet.clone(),
                restarts: *restarts,
            })
    }
}

/// Connects an output of one application to an input of another
/// (inter-application port: `Packet` codec, SPSC, both applications still
/// building).
///
/// # Errors
///
/// Returns type/state errors as for the intra-application connects.
pub fn connect_apps<T: Wire + Any + Send>(
    from: (&Application, OutRef),
    to: (&Application, InRef),
) -> BiscuitResult<()> {
    let (app_a, out) = from;
    let (app_b, input) = to;
    let mut st_a = app_a.building()?;
    let decl_out = Application::decl_of_out(&st_a, out)?;
    Application::check_type::<T>(decl_out)?;
    // Lock ordering: the two applications are distinct objects; take B after A.
    let mut st_b = app_b.building()?;
    let decl_in = Application::decl_of_in(&st_b, input)?;
    Application::check_type::<T>(decl_in)?;
    if st_a.tasks[out.task].outputs[out.port].is_some()
        || st_b.tasks[input.task].inputs[input.port].is_some()
    {
        return Err(BiscuitError::ConnectionNotAllowed(
            "inter-application ports are SPSC only".into(),
        ));
    }
    let label = format!(
        "{}:{}.out{}->{}:{}.in{}",
        app_a.name,
        st_a.tasks[out.task].id,
        out.port,
        app_b.name,
        st_b.tasks[input.task].id,
        input.port
    );
    let conn = Connection::new(
        PortKind::InterApp,
        decl_out.type_id,
        decl_out.type_name,
        app_a.ssd.config().port_capacity,
        Some(Codec::of::<T>()),
        label,
    );
    conn.add_producer();
    st_a.tasks[out.task].outputs[out.port] = Some(Arc::clone(&conn));
    st_b.tasks[input.task].inputs[input.port] = Some(conn);
    Ok(())
}
