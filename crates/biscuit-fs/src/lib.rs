//! # biscuit-fs — the filesystem Biscuit forces the SSD to operate under
//!
//! Paper §III-D: SSDlets may not touch logical block addresses; all device
//! data access goes through files whose handles are created host-side and
//! passed to SSDlets, inheriting the host program's access permission.
//!
//! This crate provides that volume: a flat-namespace, extent-based
//! filesystem persisted in a reserved metadata region of the simulated SSD,
//! with synchronous reads, asynchronous (queue-depth pipelined) reads,
//! pattern-matcher scans, and appends.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

mod alloc;
mod error;
mod fs;

pub use error::{FsError, FsResult};
pub use fs::{File, Fs, Mode};

// A property suite over crate internals. It sits beside the integration
// tests, in `tests/unit/`, but is not a test target of its own.
#[path = "../tests/unit/fs_proptests.rs"]
#[cfg(test)]
mod fs_proptests;
