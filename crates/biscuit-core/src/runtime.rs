//! Device-side runtime bookkeeping: loaded modules, core assignment,
//! channel pool accounting.
//!
//! The Biscuit runtime "centrally mediates access to SSD resources and has
//! complete control over all events occurring in the framework" (paper
//! §IV-B). This module is that mediator's ledger; the timed actions (load
//! charges, command round-trips) live in `ssd`.

use std::collections::HashMap;

use biscuit_sim::sync::Mutex;

use crate::error::{BiscuitError, BiscuitResult};
use crate::module::SsdletModule;

/// Identifier of a loaded module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModuleId(pub(crate) u64);

#[derive(Default)]
struct RtState {
    next_module: u64,
    modules: HashMap<u64, SsdletModule>,
    running_tasks: HashMap<u64, usize>,
    next_core: usize,
    open_channels: usize,
}

/// The runtime ledger (one per device).
#[derive(Default)]
pub(crate) struct DeviceRuntime {
    state: Mutex<RtState>,
}

impl std::fmt::Debug for DeviceRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("DeviceRuntime")
            .field("modules", &st.modules.len())
            .field("open_channels", &st.open_channels)
            .finish()
    }
}

impl DeviceRuntime {
    /// Creates an empty ledger.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn register_module(&self, module: SsdletModule) -> ModuleId {
        let mut st = self.state.lock();
        let id = st.next_module;
        st.next_module += 1;
        st.modules.insert(id, module);
        st.running_tasks.insert(id, 0);
        ModuleId(id)
    }

    pub(crate) fn unregister_module(&self, id: ModuleId) -> BiscuitResult<()> {
        let mut st = self.state.lock();
        match st.running_tasks.get(&id.0) {
            None => return Err(BiscuitError::ModuleNotFound(id.0)),
            Some(&n) if n > 0 => return Err(BiscuitError::ModuleBusy(id.0)),
            Some(_) => {}
        }
        st.modules.remove(&id.0);
        st.running_tasks.remove(&id.0);
        Ok(())
    }

    pub(crate) fn module(&self, id: ModuleId) -> BiscuitResult<SsdletModule> {
        self.state
            .lock()
            .modules
            .get(&id.0)
            .cloned()
            .ok_or(BiscuitError::ModuleNotFound(id.0))
    }

    /// Round-robin application-to-core assignment (the paper schedules
    /// whole applications, not SSDlets, across cores).
    pub(crate) fn assign_core(&self, cores: usize) -> usize {
        let mut st = self.state.lock();
        let core = st.next_core % cores;
        st.next_core += 1;
        core
    }

    pub(crate) fn task_started(&self, id: ModuleId) {
        *self
            .state
            .lock()
            .running_tasks
            .get_mut(&id.0)
            .expect("module exists while tasks run") += 1;
    }

    pub(crate) fn task_finished(&self, id: ModuleId) {
        let mut st = self.state.lock();
        let n = st
            .running_tasks
            .get_mut(&id.0)
            .expect("module exists while tasks run");
        debug_assert!(*n > 0);
        *n -= 1;
    }

    /// Number of modules currently loaded.
    #[cfg(test)]
    pub(crate) fn loaded_modules(&self) -> usize {
        self.state.lock().modules.len()
    }

    /// Currently open host↔device data channels.
    #[cfg(test)]
    pub(crate) fn open_channels(&self) -> usize {
        self.state.lock().open_channels
    }

    pub(crate) fn alloc_channel(&self, limit: usize) -> BiscuitResult<()> {
        let mut st = self.state.lock();
        if st.open_channels >= limit {
            return Err(BiscuitError::NoChannel {
                open: st.open_channels,
                limit,
            });
        }
        st.open_channels += 1;
        Ok(())
    }

    pub(crate) fn free_channels(&self, n: usize) {
        let mut st = self.state.lock();
        debug_assert!(st.open_channels >= n, "channel pool underflow");
        st.open_channels -= n;
    }
}
