//! Port plumbing: typed, data-ordered connections backed by bounded queues.
//!
//! Biscuit realizes all data transmission (except file I/O) as bounded
//! queues (paper §IV-B). Three port kinds exist (§III-C):
//!
//! - **inter-SSDlet** — native typed values between SSDlets of one
//!   application; SPSC/SPMC/MPSC all allowed (same core, no locks needed);
//! - **host-to-device / device-to-host** — [`Packet`]-only, SPSC, through
//!   the channel managers and the PCIe link;
//! - **inter-application** — [`Packet`]-only, SPSC, between SSDlets of
//!   different applications.
//!
//! Latency is charged per Table II: receive-side scheduling (all kinds),
//! type (de)abstraction (inter-SSDlet), and channel-manager + link costs
//! (boundary kinds). Boundary payloads ride the [`HostLink`] DMA shaper, so
//! result *volume* — the thing NDP reduces — costs real link time.

use std::any::{Any, TypeId};
use std::marker::PhantomData;
use std::sync::{Arc, OnceLock};

use biscuit_sim::sync::Mutex;

use biscuit_proto::wire::Wire;
use biscuit_proto::{HostLink, Packet};
use biscuit_sim::metrics;
use biscuit_sim::qprof::Stage;
use biscuit_sim::queue::SimQueue;
use biscuit_sim::time::{SimDuration, SimTime};
use biscuit_sim::trace::TraceEvent;
use biscuit_sim::Ctx;

use crate::config::CoreConfig;
use crate::error::{BiscuitError, BiscuitResult};

/// Which boundary a connection crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortKind {
    /// Between SSDlets of the same application (typed values).
    InterSsdlet,
    /// Between SSDlets of different applications (packets).
    InterApp,
    /// Host program → SSDlet (packets over PCIe).
    HostToDevice,
    /// SSDlet → host program (packets over PCIe).
    DeviceToHost,
}

/// A message in flight: the value plus the time its bits have physically
/// arrived at the receiving side (DMA completion for boundary ports).
///
/// It carries no query context: every SSDlet fiber is spawned from its
/// query's host fiber and inherits that query's context
/// (`QueryProfiler::on_spawn`), and every host receiver already holds it.
pub(crate) struct Envelope {
    pub ready_at: SimTime,
    pub value: Box<dyn Any + Send>,
}

impl std::fmt::Debug for Envelope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Envelope")
            .field("ready_at", &self.ready_at)
            .finish()
    }
}

fn kind_str(kind: PortKind) -> &'static str {
    match kind {
        PortKind::InterSsdlet => "inter-ssdlet",
        PortKind::InterApp => "inter-app",
        PortKind::HostToDevice => "h2d",
        PortKind::DeviceToHost => "d2h",
    }
}

type EncodeFn = dyn Fn(Box<dyn Any + Send>) -> Packet + Send + Sync;
type DecodeFn = dyn Fn(&Packet) -> Box<dyn Any + Send> + Send + Sync;

/// Type-erased encode/decode pair for boundary ports ([`Wire`] codec).
pub(crate) struct Codec {
    pub encode: Box<EncodeFn>,
    pub decode: Box<DecodeFn>,
    /// Whether encode shares payload bytes rather than copying them
    /// (`T::ZERO_COPY_ENCODE`); encode-side copy accounting is skipped
    /// when set.
    pub zero_copy_encode: bool,
    /// Same, for the decode side (`T::ZERO_COPY_DECODE`).
    pub zero_copy_decode: bool,
}

impl Codec {
    pub(crate) fn of<T: Wire + Any + Send>() -> Codec {
        Codec {
            zero_copy_encode: T::ZERO_COPY_ENCODE,
            zero_copy_decode: T::ZERO_COPY_DECODE,
            encode: Box::new(|v| {
                let v = v
                    .downcast::<T>()
                    .expect("codec fed a value of the wrong type");
                v.to_packet()
            }),
            decode: Box::new(|p| {
                let v = T::from_packet(p).expect("boundary packet failed to decode");
                Box::new(v)
            }),
        }
    }
}

/// Per-port counters registered as `port_sends_total` / `port_recvs_total`
/// / `port_bytes_total`, all labeled `{port=<label>, kind=<kind>}`.
pub(crate) struct PortInstruments {
    sends: metrics::Counter,
    recvs: metrics::Counter,
    bytes: metrics::Counter,
    /// `sim_bytes_copied_total{site=port_encode}` — payload bytes copied
    /// while serializing values into packets at this boundary.
    copy_encode: metrics::Counter,
    /// `sim_bytes_copied_total{site=port_decode}` — payload bytes copied
    /// while deserializing packets back into values.
    copy_decode: metrics::Counter,
}

/// One edge of the dataflow graph.
pub(crate) struct Connection {
    pub kind: PortKind,
    pub type_id: TypeId,
    pub type_name: &'static str,
    pub queue: SimQueue<Envelope>,
    pub codec: Option<Codec>,
    /// Stable display name for traces, e.g. `grep:filter->counter`.
    label: Arc<str>,
    /// Registry handles, registered by the port's first metered operation.
    metrics: OnceLock<PortInstruments>,
    /// Producer endpoints that have not yet finished; the queue closes when
    /// this reaches zero.
    producers: Mutex<usize>,
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field("kind", &self.kind)
            .field("type", &self.type_name)
            .finish()
    }
}

impl Connection {
    pub(crate) fn new(
        kind: PortKind,
        type_id: TypeId,
        type_name: &'static str,
        capacity: usize,
        codec: Option<Codec>,
        label: impl Into<Arc<str>>,
    ) -> Arc<Connection> {
        let label: Arc<str> = label.into();
        Arc::new(Connection {
            kind,
            type_id,
            type_name,
            queue: SimQueue::labelled(capacity, Arc::clone(&label)),
            codec,
            label,
            metrics: OnceLock::new(),
            producers: Mutex::new(0),
        })
    }

    /// The port's registry handles (`None` — one relaxed load — while the
    /// calling simulation's metrics are off).
    #[inline]
    fn instruments(&self, ctx: &Ctx) -> Option<&PortInstruments> {
        let reg = ctx.metrics();
        reg.is_enabled().then(|| {
            self.metrics.get_or_init(|| {
                let labels: &[(&str, &str)] = &[("port", &self.label), ("kind", self.kind_str())];
                PortInstruments {
                    sends: reg.counter("port_sends_total", labels),
                    recvs: reg.counter("port_recvs_total", labels),
                    bytes: reg.counter("port_bytes_total", labels),
                    copy_encode: reg.counter("sim_bytes_copied_total", &[("site", "port_encode")]),
                    copy_decode: reg.counter("sim_bytes_copied_total", &[("site", "port_decode")]),
                }
            })
        })
    }

    fn kind_str(&self) -> &'static str {
        kind_str(self.kind)
    }

    /// Records one send (`send == true`) or receive at the current fiber
    /// time. `bytes` is the wire size for boundary kinds, 0 for typed
    /// in-device traffic.
    #[inline]
    pub(crate) fn trace_port(&self, ctx: &Ctx, send: bool, bytes: u64) {
        if let Some(m) = self.instruments(ctx) {
            if send {
                m.sends.inc();
                m.bytes.add(bytes);
            } else {
                m.recvs.inc();
            }
        }
        ctx.tracer().emit(|| {
            let at = ctx.now();
            let port = Arc::clone(&self.label);
            let kind = self.kind_str();
            if send {
                TraceEvent::PortSend {
                    at,
                    port,
                    kind,
                    bytes,
                }
            } else {
                TraceEvent::PortRecv {
                    at,
                    port,
                    kind,
                    bytes,
                }
            }
        });
    }

    /// Counts payload bytes copied while encoding at this boundary
    /// (skipped for zero-copy codecs).
    #[inline]
    pub(crate) fn count_encode_copy(&self, ctx: &Ctx, zero_copy: bool, bytes: u64) {
        if !zero_copy {
            if let Some(m) = self.instruments(ctx) {
                m.copy_encode.add(bytes);
            }
        }
    }

    /// Counts payload bytes copied while decoding at this boundary
    /// (skipped for zero-copy codecs).
    #[inline]
    pub(crate) fn count_decode_copy(&self, ctx: &Ctx, zero_copy: bool, bytes: u64) {
        if !zero_copy {
            if let Some(m) = self.instruments(ctx) {
                m.copy_decode.add(bytes);
            }
        }
    }

    pub(crate) fn add_producer(&self) {
        *self.producers.lock() += 1;
    }

    /// Marks one producer endpoint finished; closes the queue on the last.
    pub(crate) fn producer_done(&self, ctx: &Ctx) {
        let mut n = self.producers.lock();
        debug_assert!(*n > 0, "producer_done without matching add_producer");
        *n -= 1;
        if *n == 0 {
            drop(n);
            self.queue.close(ctx);
        }
    }

    /// Device-side send (used by `TaskCtx`). Charges send-side costs and
    /// link time for boundary kinds; blocks while the queue is full.
    pub(crate) fn send_from_device(
        &self,
        ctx: &Ctx,
        cfg: &CoreConfig,
        link: &HostLink,
        value: Box<dyn Any + Send>,
    ) -> BiscuitResult<()> {
        let (ready_at, value, bytes): (SimTime, Box<dyn Any + Send>, u64) = match self.kind {
            PortKind::InterSsdlet => (ctx.now(), value, 0),
            PortKind::InterApp => {
                // Serialization is explicit for inter-app traffic; cost is
                // folded into the receiver's scheduling charge (Table II
                // shows inter-app *below* inter-SSDlet: no type machinery).
                let codec = self.codec.as_ref().expect("inter-app has codec");
                let pkt = (codec.encode)(value);
                let bytes = pkt.len() as u64;
                self.count_encode_copy(ctx, codec.zero_copy_encode, bytes);
                (ctx.now(), Box::new(pkt), bytes)
            }
            PortKind::DeviceToHost => {
                let send_start = ctx.now();
                ctx.sleep(cfg.cm_send_device);
                let codec = self.codec.as_ref().expect("boundary has codec");
                let pkt = (codec.encode)(value);
                let bytes = pkt.len() as u64;
                self.count_encode_copy(ctx, codec.zero_copy_encode, bytes);
                let dma_end = link.enqueue_dma_to_host(ctx, ctx.now(), bytes);
                let ready_at = dma_end + cfg.link_fixed;
                // Channel-manager send charge, then the full DMA window
                // (including link queueing) until the bits land host-side.
                ctx.qprof()
                    .record(Stage::SsdletCompute, send_start, ctx.now(), 0, 0);
                ctx.qprof()
                    .record(Stage::Link, ctx.now(), ready_at, bytes, 0);
                (ready_at, Box::new(pkt), bytes)
            }
            PortKind::HostToDevice => {
                return Err(BiscuitError::InvalidState(
                    "SSDlets cannot send on a host-to-device port".into(),
                ))
            }
        };
        self.queue
            .push(ctx, Envelope { ready_at, value })
            .map_err(|_| BiscuitError::PortClosed {
                port: self.label.to_string(),
            })?;
        self.trace_port(ctx, true, bytes);
        Ok(())
    }

    /// Device-side receive. Charges Table II receive-side latency.
    pub(crate) fn recv_on_device(
        &self,
        ctx: &Ctx,
        cfg: &CoreConfig,
    ) -> Option<Box<dyn Any + Send>> {
        let env = self.queue.pop(ctx)?;
        ctx.sleep_until(env.ready_at);
        let recv_start = ctx.now();
        match self.kind {
            PortKind::InterSsdlet => {
                ctx.sleep(cfg.inter_ssdlet_latency());
                ctx.qprof()
                    .record(Stage::SsdletCompute, recv_start, ctx.now(), 0, 0);
                self.trace_port(ctx, false, 0);
                Some(env.value)
            }
            PortKind::InterApp => {
                ctx.sleep(cfg.inter_app_latency());
                let pkt = env
                    .value
                    .downcast::<Packet>()
                    .expect("inter-app envelope holds a packet");
                ctx.qprof().record(
                    Stage::SsdletCompute,
                    recv_start,
                    ctx.now(),
                    pkt.len() as u64,
                    0,
                );
                self.trace_port(ctx, false, pkt.len() as u64);
                let codec = self.codec.as_ref().expect("inter-app has codec");
                self.count_decode_copy(ctx, codec.zero_copy_decode, pkt.len() as u64);
                Some((codec.decode)(&pkt))
            }
            PortKind::HostToDevice => {
                ctx.sleep(cfg.cm_recv_device);
                let pkt = env
                    .value
                    .downcast::<Packet>()
                    .expect("boundary envelope holds a packet");
                ctx.qprof().record(
                    Stage::SsdletCompute,
                    recv_start,
                    ctx.now(),
                    pkt.len() as u64,
                    0,
                );
                self.trace_port(ctx, false, pkt.len() as u64);
                let codec = self.codec.as_ref().expect("boundary has codec");
                self.count_decode_copy(ctx, codec.zero_copy_decode, pkt.len() as u64);
                Some((codec.decode)(&pkt))
            }
            PortKind::DeviceToHost => None, // devices never read their own output channel
        }
    }
}

/// Host-side receiving end of a device→host connection
/// (`Application::connect_to` — paper Code 3's `port1.get(value)`).
pub struct HostInPort<T> {
    pub(crate) conn: Arc<Connection>,
    pub(crate) cfg: Arc<CoreConfig>,
    pub(crate) _marker: PhantomData<fn() -> T>,
}

impl<T> std::fmt::Debug for HostInPort<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostInPort")
            .field("type", &self.conn.type_name)
            .finish()
    }
}

impl<T: Wire + Any + Send> HostInPort<T> {
    /// Receives the next value, blocking in virtual time. Returns `None`
    /// when every producing SSDlet has finished and the queue drained.
    pub fn get(&self, ctx: &Ctx) -> Option<T> {
        let env = self.conn.queue.pop(ctx)?;
        ctx.sleep_until(env.ready_at);
        let recv_start = ctx.now();
        ctx.sleep(self.cfg.cm_recv_host);
        ctx.qprof()
            .record(Stage::HostMerge, recv_start, ctx.now(), 0, 0);
        let pkt = env
            .value
            .downcast::<Packet>()
            .expect("boundary envelope holds a packet");
        self.conn.trace_port(ctx, false, pkt.len() as u64);
        self.conn
            .count_decode_copy(ctx, T::ZERO_COPY_DECODE, pkt.len() as u64);
        let v = (self.conn.codec.as_ref().expect("boundary has codec").decode)(&pkt);
        Some(*v.downcast::<T>().expect("codec produced declared type"))
    }

    /// Like [`HostInPort::get`], but gives up after `timeout` of virtual
    /// time with no arrival. `Ok(None)` still means end-of-stream; a
    /// [`BiscuitError::RequestTimeout`] means the producer is stalled (or
    /// dead) and the caller should trigger its recovery policy — e.g. the
    /// DB layer falls back to a host-side scan.
    ///
    /// # Errors
    ///
    /// Returns [`BiscuitError::RequestTimeout`] when the deadline passes.
    pub fn get_deadline(&self, ctx: &Ctx, timeout: SimDuration) -> BiscuitResult<Option<T>> {
        let deadline = ctx.now() + timeout;
        match self.conn.queue.pop_deadline(ctx, deadline) {
            Ok(Some(env)) => {
                ctx.sleep_until(env.ready_at);
                let recv_start = ctx.now();
                ctx.sleep(self.cfg.cm_recv_host);
                ctx.qprof()
                    .record(Stage::HostMerge, recv_start, ctx.now(), 0, 0);
                let pkt = env
                    .value
                    .downcast::<Packet>()
                    .expect("boundary envelope holds a packet");
                self.conn.trace_port(ctx, false, pkt.len() as u64);
                self.conn
                    .count_decode_copy(ctx, T::ZERO_COPY_DECODE, pkt.len() as u64);
                let v = (self.conn.codec.as_ref().expect("boundary has codec").decode)(&pkt);
                Ok(Some(
                    *v.downcast::<T>().expect("codec produced declared type"),
                ))
            }
            Ok(None) => Ok(None),
            Err(_) => Err(BiscuitError::RequestTimeout {
                port: self.conn.label.to_string(),
                timeout,
            }),
        }
    }
}

/// Host-side sending end of a host→device connection
/// (`Application::connect_from`).
pub struct HostOutPort<T> {
    pub(crate) conn: Arc<Connection>,
    pub(crate) cfg: Arc<CoreConfig>,
    pub(crate) link: Arc<HostLink>,
    pub(crate) closed: Mutex<bool>,
    pub(crate) _marker: PhantomData<fn(T)>,
}

impl<T> std::fmt::Debug for HostOutPort<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostOutPort")
            .field("type", &self.conn.type_name)
            .finish()
    }
}

impl<T: Wire + Any + Send> HostOutPort<T> {
    /// Sends a value toward the device, blocking while the channel is full.
    ///
    /// # Errors
    ///
    /// Returns an error if the port was closed.
    pub fn put(&self, ctx: &Ctx, value: T) -> BiscuitResult<()> {
        if *self.closed.lock() {
            return Err(BiscuitError::PortClosed {
                port: self.conn.label.to_string(),
            });
        }
        let send_start = ctx.now();
        ctx.sleep(self.cfg.cm_send_host);
        let pkt = value.to_packet();
        let bytes = pkt.len() as u64;
        self.conn.count_encode_copy(ctx, T::ZERO_COPY_ENCODE, bytes);
        let dma_end = self.link.enqueue_dma_to_device(ctx, ctx.now(), bytes);
        let ready_at = dma_end + self.cfg.link_fixed;
        ctx.qprof()
            .record(Stage::HostCompute, send_start, ctx.now(), 0, 0);
        ctx.qprof()
            .record(Stage::Link, ctx.now(), ready_at, bytes, 1);
        self.conn
            .queue
            .push(
                ctx,
                Envelope {
                    ready_at,
                    value: Box::new(pkt),
                },
            )
            .map_err(|_| BiscuitError::PortClosed {
                port: self.conn.label.to_string(),
            })?;
        self.conn.trace_port(ctx, true, bytes);
        Ok(())
    }

    /// Signals end-of-stream to the consuming SSDlet. Idempotent.
    pub fn close(&self, ctx: &Ctx) {
        let mut closed = self.closed.lock();
        if !*closed {
            *closed = true;
            drop(closed);
            self.conn.producer_done(ctx);
        }
    }
}
