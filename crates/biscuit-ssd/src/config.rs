//! SSD configuration, calibrated to the paper's target device.
//!
//! Table I of the paper specifies the hardware: PCIe Gen.3 x4 (3.2 GB/s),
//! NVMe 1.1, 1 TB of multi-bit NAND over multiple channels/ways, two ARM
//! Cortex-R7 cores @750 MHz for Biscuit, and a key-based pattern matcher per
//! channel. Section V-B gives the measured behaviour the timing parameters
//! below are calibrated against:
//!
//! - 4 KiB internal read ≈ 75.9 µs vs 90.0 µs over the host path (Table III);
//! - internal sequential bandwidth >30 % above the 3.2 GB/s host cap (Fig. 7);
//! - pattern-matched reads slightly below raw internal bandwidth, above Conv.

use biscuit_sim::time::SimDuration;

/// Geometry and timing of the simulated SSD.
#[derive(Debug, Clone)]
pub struct SsdConfig {
    /// Number of flash channels.
    pub channels: usize,
    /// Dies ("ways") per channel; reads on different dies of one channel
    /// overlap their sense time but share the channel bus.
    pub ways: usize,
    /// Flash page size in bytes. The DB engine uses the same page size.
    pub page_size: usize,
    /// Pages per erase block.
    pub pages_per_block: usize,
    /// Logical capacity exposed to the host, in bytes.
    pub logical_capacity: u64,
    /// Extra physical space for out-of-place writes, as a fraction of
    /// logical capacity (over-provisioning).
    pub over_provisioning: f64,
    /// NAND page sense time (tR).
    pub t_read: SimDuration,
    /// NAND page program time (tPROG).
    pub t_program: SimDuration,
    /// Block erase time (tBERS).
    pub t_erase: SimDuration,
    /// Per-channel bus rate, bytes/second.
    pub channel_rate: f64,
    /// Device CPU cores available to Biscuit.
    pub cores: usize,
    /// Device-software overhead charged per I/O request (FTL lookup,
    /// request marshalling on the ARM cores).
    pub request_overhead: SimDuration,
    /// Device DRAM available to Biscuit's user memory allocator, bytes.
    pub dram_bytes: u64,
    /// Rate at which device CPUs process data in software (bytes/second) —
    /// used when an SSDlet scans data *without* the pattern-matcher IP. The
    /// paper found software scanning on the embedded cores cannot keep up
    /// with the flash bandwidth; this constant is deliberately low.
    pub cpu_scan_rate: f64,
    /// Per-request software overhead for configuring the pattern-matcher IP
    /// (the reason Fig. 7 shows pattern-matched bandwidth below raw reads).
    pub pm_setup_overhead: SimDuration,
    /// Pattern matcher throughput per channel, bytes/second. The paper says
    /// raw matching throughput corresponds to channel throughput; a small
    /// derating accounts for the per-stripe handshaking.
    pub pm_rate: f64,
    /// Maximum keywords the pattern matcher accepts (paper: 3).
    pub pm_max_keys: usize,
    /// Maximum keyword length in bytes (paper: 16).
    pub pm_max_key_len: usize,
    /// Device-DRAM page frames cached for synthetic (generator-backed)
    /// pages, so repeated reads of the same logical page share one buffer
    /// instead of regenerating it. Purely a host-memory/wall-clock
    /// optimization: simulated timing always charges the full NAND sense
    /// and transfer, and eviction is FIFO in first-touch order, so results
    /// and traces are byte-identical at any setting. Zero disables caching.
    pub synth_cache_pages: usize,
    /// Journal records between L2P checkpoints. A smaller interval bounds
    /// recovery-replay work at the cost of more frequent checkpoint
    /// snapshots; see `docs/WRITEPATH.md`.
    pub journal_checkpoint_interval: usize,
}

impl SsdConfig {
    /// The paper's device (Table I), with a laptop-friendly 4 GiB logical
    /// capacity. Bump [`SsdConfig::logical_capacity`] for larger datasets.
    pub fn paper_default() -> Self {
        SsdConfig {
            channels: 16,
            ways: 4,
            page_size: 16 * 1024,
            pages_per_block: 256,
            logical_capacity: 4 << 30,
            over_provisioning: 0.125,
            // Calibration: request_overhead + t_read + 4096 B / channel_rate
            // = 7.0 + 55.25 + 13.65 = 75.9 us (Table III, internal read).
            t_read: SimDuration::from_micros_f64(55.25),
            t_program: SimDuration::from_micros_f64(660.0),
            t_erase: SimDuration::from_millis(4),
            channel_rate: 300.0e6, // 16 channels x 300 MB/s = 4.8 GB/s raw
            cores: 2,
            request_overhead: SimDuration::from_micros_f64(7.0),
            dram_bytes: 1 << 30,
            cpu_scan_rate: 220.0e6, // two R7 cores' software scan ceiling
            pm_setup_overhead: SimDuration::from_micros_f64(45.0),
            pm_rate: 235.0e6, // slightly below channel_rate: IP handshaking
            pm_max_keys: 3,
            pm_max_key_len: 16,
            synth_cache_pages: 4096, // 64 MiB of 16 KiB frames
            journal_checkpoint_interval: 8192,
        }
    }

    /// Logical pages exposed by the device.
    pub fn logical_pages(&self) -> u64 {
        self.logical_capacity / self.page_size as u64
    }

    /// Physical pages, including over-provisioned space, rounded up to whole
    /// blocks spread over every (channel, way) pair. Every die gets at least
    /// four blocks so the write frontier, GC reserve, and free pool never
    /// degenerate on small test capacities.
    pub(crate) fn physical_pages(&self) -> u64 {
        let want = (self.logical_capacity as f64 * (1.0 + self.over_provisioning)) as u64
            / self.page_size as u64;
        let per_die_pages = self.pages_per_block as u64;
        let dies = (self.channels * self.ways) as u64;
        let granule = per_die_pages * dies;
        let blocks_per_die = want.div_ceil(granule).max(4);
        blocks_per_die * granule
    }

    /// Total erase blocks on the device.
    pub(crate) fn total_blocks(&self) -> u64 {
        self.physical_pages() / self.pages_per_block as u64
    }

    /// Aggregate raw internal bandwidth (all channel buses), bytes/second.
    pub fn internal_bandwidth(&self) -> f64 {
        self.channels as f64 * self.channel_rate
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first inconsistency.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.channels == 0 || self.ways == 0 {
            return Err("channels and ways must be positive".into());
        }
        if self.page_size == 0 || !self.page_size.is_power_of_two() {
            return Err(format!(
                "page_size must be a power of two, got {}",
                self.page_size
            ));
        }
        if self.pages_per_block == 0 {
            return Err("pages_per_block must be positive".into());
        }
        if self.logical_capacity < self.page_size as u64 {
            return Err("logical capacity smaller than one page".into());
        }
        if self.over_provisioning <= 0.0 {
            return Err("over-provisioning must be positive for GC headroom".into());
        }
        if self.channel_rate <= 0.0 || self.cpu_scan_rate <= 0.0 || self.pm_rate <= 0.0 {
            return Err("rates must be positive".into());
        }
        if self.cores == 0 {
            return Err("device must have at least one core".into());
        }
        if self.pm_max_keys == 0 || self.pm_max_key_len == 0 {
            return Err("pattern matcher limits must be positive".into());
        }
        if self.journal_checkpoint_interval == 0 {
            return Err("journal checkpoint interval must be positive".into());
        }
        Ok(())
    }
}

impl Default for SsdConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid() {
        let cfg = SsdConfig::paper_default();
        cfg.validate().unwrap();
        assert_eq!(cfg.logical_pages(), (4 << 30) / (16 * 1024));
    }

    #[test]
    fn physical_exceeds_logical_by_op() {
        let cfg = SsdConfig::paper_default();
        let logical = cfg.logical_pages();
        let physical = cfg.physical_pages();
        assert!(physical as f64 >= logical as f64 * 1.125);
        // Whole blocks per die
        assert_eq!(
            physical % (cfg.pages_per_block as u64 * (cfg.channels * cfg.ways) as u64),
            0
        );
    }

    #[test]
    fn internal_bandwidth_exceeds_host_link() {
        let cfg = SsdConfig::paper_default();
        // Paper: internal bandwidth is >30% above the 3.2 GB/s host cap.
        assert!(cfg.internal_bandwidth() > 3.2e9 * 1.3);
    }

    #[test]
    fn internal_4k_read_latency_matches_table3() {
        let cfg = SsdConfig::paper_default();
        let us = cfg.request_overhead.as_micros_f64()
            + cfg.t_read.as_micros_f64()
            + 4096.0 / cfg.channel_rate * 1e6;
        assert!((75.0..77.0).contains(&us), "internal 4KiB read = {us}us");
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = SsdConfig::paper_default();
        cfg.channels = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SsdConfig::paper_default();
        cfg.page_size = 3000;
        assert!(cfg.validate().is_err());

        let mut cfg = SsdConfig::paper_default();
        cfg.over_provisioning = 0.0;
        assert!(cfg.validate().is_err());
    }
}
