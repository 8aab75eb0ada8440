//! # biscuit-proto — packets, wire codec, and the host-interface model
//!
//! Everything that crosses the host↔device boundary in the Biscuit
//! reproduction goes through this crate:
//!
//! - [`packet::Packet`] — the only payload type Biscuit allows on
//!   host-to-device and inter-application ports (paper §III-C).
//! - [`wire::Wire`] — explicit (de)serialization, mirroring the paper's
//!   requirement that boundary data be serializable.
//! - [`link::HostLink`] — the PCIe Gen.3 x4 / NVMe timing model whose
//!   per-command costs and 3.2 GB/s cap produce the Conv-vs-Biscuit latency
//!   and bandwidth gaps of Tables II–III and Fig. 7.
//!
//! ## Example
//!
//! ```
//! use biscuit_proto::wire::Wire;
//! use biscuit_proto::packet::Packet;
//!
//! let pair = (String::from("word"), 42u32);
//! let pkt: Packet = pair.to_packet();
//! assert_eq!(<(String, u32)>::from_packet(&pkt).unwrap().1, 42);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

mod buf;
mod link;
pub mod packet;
pub mod wire;

pub use buf::{Buf, BufPool, Frame};
pub use link::{HostLink, LinkConfig};
pub use packet::{DecodeError, Packet, PacketBuilder, PacketReader};
pub use wire::Wire;

// A property suite over crate internals. It sits beside the integration
// tests, in `tests/unit/`, but is not a test target of its own.
#[path = "../tests/unit/buf_proptests.rs"]
#[cfg(test)]
mod buf_proptests;
