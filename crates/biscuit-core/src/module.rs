//! SSDlet modules: registration, specs, and dynamic loading units.
//!
//! An SSDlet module is the deployable unit Biscuit loads onto the SSD at run
//! time (paper §III-B, §IV-B "Dynamic Module Loading"). A module carries one
//! or more registered SSDlet classes (`RegisterSSDLet` in Code 2); the host
//! instantiates them by identifier. Because user application development is
//! decoupled from firmware, loading a module never requires recompiling the
//! device runtime — here, a module is a bundle of factory closures plus
//! declared port types, and "loading" charges the transfer + symbol
//! relocation time of the module image.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::Arc;

use crate::error::{BiscuitError, BiscuitResult};
use crate::task::{Ssdlet, TaskArgs};

/// Declared type of one port.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PortDecl {
    pub(crate) type_id: TypeId,
    pub(crate) type_name: &'static str,
}

/// Declares a port of type `T`.
pub(crate) fn port_of<T: Any>() -> PortDecl {
    PortDecl {
        type_id: TypeId::of::<T>(),
        type_name: std::any::type_name::<T>(),
    }
}

/// An SSDlet class's interface: its typed ports and memory footprint.
///
/// Mirrors the paper's `SSDLet<IN_TYPE, OUT_TYPE, ARG_TYPE>` template
/// parameters, generalized to arbitrary port counts.
#[derive(Debug, Clone, Default)]
pub struct SsdletSpec {
    /// Input port types, in index order.
    pub(crate) inputs: Vec<PortDecl>,
    /// Output port types, in index order.
    pub(crate) outputs: Vec<PortDecl>,
    /// Memory charged to the device's user arena per instance (0 = use the
    /// runtime default).
    pub memory_bytes: u64,
}

impl SsdletSpec {
    /// Creates an empty spec (no ports).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an input port of type `T`.
    #[must_use]
    pub fn input<T: Any>(mut self) -> Self {
        self.inputs.push(port_of::<T>());
        self
    }

    /// Appends an output port of type `T`.
    #[must_use]
    pub fn output<T: Any>(mut self) -> Self {
        self.outputs.push(port_of::<T>());
        self
    }

    /// Sets the per-instance memory footprint.
    #[must_use]
    pub fn memory(mut self, bytes: u64) -> Self {
        self.memory_bytes = bytes;
        self
    }
}

type Factory = Box<dyn Fn(TaskArgs) -> BiscuitResult<Box<dyn Ssdlet>> + Send + Sync>;

pub(crate) struct SsdletEntry {
    pub spec: SsdletSpec,
    pub factory: Factory,
}

/// A compiled SSDlet module, ready to be loaded onto a device.
///
/// # Examples
///
/// ```
/// use biscuit_core::module::{ModuleBuilder, SsdletSpec};
/// use biscuit_core::task::{Ssdlet, TaskCtx};
///
/// struct Doubler;
/// impl Ssdlet for Doubler {
///     fn run(&mut self, ctx: &mut TaskCtx<'_>) {
///         while let Some(v) = ctx.recv::<u64>(0).unwrap() {
///             ctx.send(0, v * 2).unwrap();
///         }
///     }
/// }
///
/// let module = ModuleBuilder::new("math")
///     .register(
///         "idDoubler",
///         SsdletSpec::new().input::<u64>().output::<u64>(),
///         |_args| Ok(Box::new(Doubler)),
///     )
///     .build();
/// ```
#[derive(Clone)]
pub struct SsdletModule {
    inner: Arc<ModuleInner>,
}

pub(crate) struct ModuleInner {
    pub name: String,
    pub binary_size: u64,
    pub entries: HashMap<String, SsdletEntry>,
}

impl std::fmt::Debug for SsdletModule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SsdletModule")
            .field("name", &self.inner.name)
            .field("ssdlets", &self.inner.entries.len())
            .finish()
    }
}

impl SsdletModule {
    /// Nominal binary image size (drives load-time charges). The paper's
    /// SSDlet modules are a few hundred KiB.
    pub(crate) fn binary_size(&self) -> u64 {
        self.inner.binary_size
    }

    pub(crate) fn entry(&self, id: &str) -> BiscuitResult<&SsdletEntry> {
        self.inner
            .entries
            .get(id)
            .ok_or_else(|| BiscuitError::SsdletNotRegistered {
                module: self.inner.name.clone(),
                id: id.to_owned(),
            })
    }
}

/// Builder for [`SsdletModule`] — the Rust analogue of `RegisterSSDLet`.
pub struct ModuleBuilder {
    name: String,
    binary_size: u64,
    entries: HashMap<String, SsdletEntry>,
}

impl std::fmt::Debug for ModuleBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModuleBuilder")
            .field("name", &self.name)
            .finish()
    }
}

impl ModuleBuilder {
    /// Starts a module with a default 128 KiB image size.
    pub fn new(name: impl Into<String>) -> Self {
        ModuleBuilder {
            name: name.into(),
            binary_size: 128 << 10,
            entries: HashMap::new(),
        }
    }

    /// Overrides the nominal binary image size.
    #[must_use]
    pub fn binary_size(mut self, bytes: u64) -> Self {
        self.binary_size = bytes;
        self
    }

    /// Registers an SSDlet class under `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already registered in this module.
    #[must_use]
    pub fn register<F>(mut self, id: impl Into<String>, spec: SsdletSpec, factory: F) -> Self
    where
        F: Fn(TaskArgs) -> BiscuitResult<Box<dyn Ssdlet>> + Send + Sync + 'static,
    {
        let id = id.into();
        let prev = self.entries.insert(
            id.clone(),
            SsdletEntry {
                spec,
                factory: Box::new(factory),
            },
        );
        assert!(prev.is_none(), "SSDlet id '{id}' registered twice");
        self
    }

    /// Finalizes the module.
    pub fn build(self) -> SsdletModule {
        SsdletModule {
            inner: Arc::new(ModuleInner {
                name: self.name,
                binary_size: self.binary_size,
                entries: self.entries,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskCtx;

    struct Nop;
    impl Ssdlet for Nop {
        fn run(&mut self, _ctx: &mut TaskCtx<'_>) {}
    }

    #[test]
    fn builder_registers_ids() {
        let m = ModuleBuilder::new("m")
            .register("a", SsdletSpec::new(), |_| Ok(Box::new(Nop)))
            .register("b", SsdletSpec::new(), |_| Ok(Box::new(Nop)))
            .build();
        assert!(m.entry("a").is_ok());
        assert!(m.entry("b").is_ok());
        assert!(matches!(
            m.entry("zzz"),
            Err(BiscuitError::SsdletNotRegistered { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_id_panics() {
        let _ = ModuleBuilder::new("m")
            .register("a", SsdletSpec::new(), |_| Ok(Box::new(Nop)))
            .register("a", SsdletSpec::new(), |_| Ok(Box::new(Nop)));
    }

    #[test]
    fn spec_collects_ports() {
        let s = SsdletSpec::new()
            .input::<String>()
            .input::<u64>()
            .output::<(String, u32)>()
            .memory(1024);
        assert_eq!(s.inputs.len(), 2);
        assert_eq!(s.outputs.len(), 1);
        assert_eq!(s.memory_bytes, 1024);
        assert_eq!(s.inputs[1].type_id, TypeId::of::<u64>());
    }
}
