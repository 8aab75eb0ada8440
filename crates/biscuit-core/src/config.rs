//! Biscuit runtime configuration: port latency components and channel
//! manager parameters, calibrated to Table II of the paper.
//!
//! The measured one-way port latencies are:
//!
//! | port type      | latency   |
//! |----------------|-----------|
//! | host→device    | 301.6 µs  |
//! | device→host    | 130.1 µs  |
//! | inter-SSDlet   | 31.0 µs   |
//! | inter-app      | 10.7 µs   |
//!
//! Per the paper, every latency includes the fiber scheduling cost
//! (dominant for inter-app), inter-SSDlet adds type (de)abstraction, and
//! host↔device ports add channel-manager work on both ends plus the
//! PCIe/driver path — with the receiving side doing about twice the work,
//! which on the slow device CPU makes H2D much dearer than D2H.

use biscuit_sim::time::SimDuration;

/// Runtime timing and sizing parameters.
#[derive(Debug, Clone)]
pub struct CoreConfig {
    /// Fiber scheduling latency charged on every port receive.
    pub sched_latency: SimDuration,
    /// Type abstraction + de-abstraction cost of typed inter-SSDlet ports.
    pub type_abstraction: SimDuration,
    /// Channel-manager send-side work, host CPU.
    pub cm_send_host: SimDuration,
    /// Channel-manager send-side work, device CPU.
    pub cm_send_device: SimDuration,
    /// Channel-manager receive-side work, host CPU (~2x send work).
    pub cm_recv_host: SimDuration,
    /// Channel-manager receive-side work, device CPU (~2x send work on a
    /// much slower core).
    pub cm_recv_device: SimDuration,
    /// Fixed PCIe + driver cost per boundary message, on top of DMA time.
    pub link_fixed: SimDuration,
    /// Bounded queue capacity backing each port connection.
    pub port_capacity: usize,
    /// Maximum simultaneously open host↔device data channels (channel pool).
    pub max_data_channels: usize,
    /// Fixed cost of loading a module (symbol relocation, table setup).
    pub module_link_cost: SimDuration,
    /// Device-side processing rate for module images during load, bytes/s.
    pub module_load_rate: f64,
    /// Default per-SSDlet-instance memory charged to the user arena.
    pub default_ssdlet_memory: u64,
}

impl CoreConfig {
    /// Constants calibrated to reproduce Table II exactly:
    ///
    /// - inter-app get: `sched_latency` = 10.7 µs
    /// - inter-SSDlet get: `sched_latency + type_abstraction` = 31.0 µs
    /// - D2H: `cm_send_device + link_fixed + cm_recv_host` = 130.1 µs
    /// - H2D: `cm_send_host + link_fixed + cm_recv_device` = 301.6 µs
    pub fn paper_default() -> Self {
        CoreConfig {
            sched_latency: SimDuration::from_micros_f64(10.7),
            type_abstraction: SimDuration::from_micros_f64(20.3),
            cm_send_host: SimDuration::from_micros_f64(40.0),
            cm_send_device: SimDuration::from_micros_f64(40.0),
            cm_recv_host: SimDuration::from_micros_f64(78.1),
            cm_recv_device: SimDuration::from_micros_f64(249.6),
            link_fixed: SimDuration::from_micros_f64(12.0),
            port_capacity: 64,
            max_data_channels: 16,
            module_link_cost: SimDuration::from_micros_f64(500.0),
            module_load_rate: 40.0e6,
            default_ssdlet_memory: 256 << 10,
        }
    }

    /// One-way latency of an inter-application port message.
    pub(crate) fn inter_app_latency(&self) -> SimDuration {
        self.sched_latency
    }

    /// One-way latency of an inter-SSDlet port message.
    pub(crate) fn inter_ssdlet_latency(&self) -> SimDuration {
        self.sched_latency + self.type_abstraction
    }

    /// One-way latency of a device→host message (excluding DMA payload time).
    pub(crate) fn d2h_latency(&self) -> SimDuration {
        self.cm_send_device + self.link_fixed + self.cm_recv_host
    }

    /// One-way latency of a host→device message (excluding DMA payload time).
    pub(crate) fn h2d_latency(&self) -> SimDuration {
        self.cm_send_host + self.link_fixed + self.cm_recv_device
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_match_table2() {
        let cfg = CoreConfig::paper_default();
        assert!((cfg.inter_app_latency().as_micros_f64() - 10.7).abs() < 0.01);
        assert!((cfg.inter_ssdlet_latency().as_micros_f64() - 31.0).abs() < 0.01);
        assert!((cfg.d2h_latency().as_micros_f64() - 130.1).abs() < 0.01);
        assert!((cfg.h2d_latency().as_micros_f64() - 301.6).abs() < 0.01);
    }

    #[test]
    fn h2d_receiver_does_more_work_on_slower_cpu() {
        let cfg = CoreConfig::paper_default();
        assert!(cfg.cm_recv_device > cfg.cm_recv_host * 2);
        assert!(cfg.cm_recv_host > cfg.cm_send_host);
    }
}
