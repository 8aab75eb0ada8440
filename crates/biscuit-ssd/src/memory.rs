//! Device DRAM budget tracking — the runtime's dual-allocator discipline.
//!
//! Biscuit maintains two allocators on the device (paper §IV-B): a *system*
//! allocator reserved for the runtime, and a *user* allocator backing SSDlet
//! instances. The device has no MMU, so isolation is a matter of accounting
//! and discipline. We reproduce the accounting: each arena has a byte
//! budget; exhaustion is an explicit error an SSDlet must handle, not an
//! abort of the SSD.

use biscuit_sim::sync::Mutex;

/// Which arena an allocation charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arena {
    /// Runtime-reserved memory, off-limits to SSDlets.
    System,
    /// SSDlet-accessible memory.
    User,
}

/// Error returned when an arena's budget would be exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfDeviceMemory {
    /// The arena that was exhausted.
    pub arena: Arena,
    /// Bytes requested.
    pub requested: u64,
    /// Bytes that were still available.
    pub available: u64,
}

impl std::fmt::Display for OutOfDeviceMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?} arena exhausted: requested {} bytes, {} available",
            self.arena, self.requested, self.available
        )
    }
}

impl std::error::Error for OutOfDeviceMemory {}

#[derive(Debug, Default, Clone, Copy)]
struct ArenaState {
    capacity: u64,
    used: u64,
}

/// The device DRAM budget, split into system and user arenas.
///
/// # Examples
///
/// ```
/// use biscuit_ssd::memory::Arena;
/// use biscuit_ssd::{SsdConfig, SsdDevice};
///
/// let dev = SsdDevice::new(SsdConfig {
///     dram_bytes: 4096,
///     ..SsdConfig::paper_default()
/// });
/// let mem = dev.memory();
/// let grant = mem.allocate(Arena::User, 4000).unwrap();
/// assert!(mem.allocate(Arena::User, 200).is_err());
/// mem.free(grant);
/// assert!(mem.allocate(Arena::User, 200).is_ok());
/// ```
#[derive(Debug)]
pub struct DeviceMemory {
    system: Mutex<ArenaState>,
    user: Mutex<ArenaState>,
}

/// Receipt for an allocation; hand it back to [`DeviceMemory::free`].
#[derive(Debug)]
#[must_use = "dropping a grant without freeing it leaks device memory"]
pub struct MemoryGrant {
    arena: Arena,
    bytes: u64,
}

impl MemoryGrant {
    /// Size of the granted region.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl DeviceMemory {
    /// Creates budgets for the two arenas.
    pub(crate) fn new(system_bytes: u64, user_bytes: u64) -> Self {
        DeviceMemory {
            system: Mutex::new(ArenaState {
                capacity: system_bytes,
                ..Default::default()
            }),
            user: Mutex::new(ArenaState {
                capacity: user_bytes,
                ..Default::default()
            }),
        }
    }

    fn arena(&self, which: Arena) -> &Mutex<ArenaState> {
        match which {
            Arena::System => &self.system,
            Arena::User => &self.user,
        }
    }

    /// Reserves `bytes` in `arena`.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfDeviceMemory`] if the arena's budget would be exceeded.
    pub fn allocate(&self, arena: Arena, bytes: u64) -> Result<MemoryGrant, OutOfDeviceMemory> {
        let mut st = self.arena(arena).lock();
        let available = st.capacity - st.used;
        if bytes > available {
            return Err(OutOfDeviceMemory {
                arena,
                requested: bytes,
                available,
            });
        }
        st.used += bytes;
        Ok(MemoryGrant { arena, bytes })
    }

    /// Returns a grant's bytes to its arena.
    pub fn free(&self, grant: MemoryGrant) {
        let mut st = self.arena(grant.arena).lock();
        debug_assert!(st.used >= grant.bytes, "double free of device memory");
        st.used -= grant.bytes;
    }

    /// Bytes currently used in `arena`.
    pub fn used(&self, arena: Arena) -> u64 {
        self.arena(arena).lock().used
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arenas_are_independent() {
        let mem = DeviceMemory::new(100, 100);
        let g = mem.allocate(Arena::System, 100).unwrap();
        // System full; user unaffected.
        assert!(mem.allocate(Arena::System, 1).is_err());
        assert!(mem.allocate(Arena::User, 100).is_ok());
        mem.free(g);
    }

    #[test]
    fn exhaustion_reports_availability() {
        let mem = DeviceMemory::new(0, 64);
        let _g = mem.allocate(Arena::User, 40).unwrap();
        let err = mem.allocate(Arena::User, 30).unwrap_err();
        assert_eq!(err.available, 24);
        assert_eq!(err.requested, 30);
        assert_eq!(err.arena, Arena::User);
    }

    #[test]
    fn free_restores_budget() {
        let mem = DeviceMemory::new(0, 10);
        let g = mem.allocate(Arena::User, 10).unwrap();
        mem.free(g);
        assert_eq!(mem.used(Arena::User), 0);
        assert!(mem.allocate(Arena::User, 10).is_ok());
    }

    #[test]
    fn high_water_tracks_peak() {
        let mem = DeviceMemory::new(0, 100);
        let a = mem.allocate(Arena::User, 60).unwrap();
        let b = mem.allocate(Arena::User, 30).unwrap();
        // The peak is what `used` reports while both grants are live.
        assert_eq!(mem.used(Arena::User), 90);
        mem.free(a);
        mem.free(b);
        assert_eq!(mem.used(Arena::User), 0);
    }

    #[test]
    fn zero_sized_allocation_succeeds() {
        let mem = DeviceMemory::new(0, 0);
        let g = mem.allocate(Arena::User, 0).unwrap();
        mem.free(g);
    }
}
