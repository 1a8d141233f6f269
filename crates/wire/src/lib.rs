//! Wire formats for the `extmem` workspace.
//!
//! This crate implements byte-exact packet formats for everything that
//! crosses a simulated link in the reproduction of *Generic External Memory
//! for Switch Data Planes* (HotNets 2018):
//!
//! * Ethernet II, IPv4 and UDP headers,
//! * the RoCEv2 (RDMA over Converged Ethernet v2, IB spec annex A17)
//!   transport: BTH, RETH, AtomicETH, AETH, AtomicAckETH and the ICRC32
//!   trailer, covering the one-sided verbs the paper uses — RDMA WRITE,
//!   RDMA READ and atomic Fetch-and-Add,
//! * the remote-op request headers of [`extop`], HashProbeETH and
//!   GatherETH (both ops are answered as READs),
//! * a small application payload format used by the workload generators so
//!   that end-to-end tests can verify byte-exact, in-order delivery.
//!
//! The paper's §4 "Overhead" accounting (40 B of RoCEv2 routing/transport
//! headers plus 16 B for WRITE/READ or 28 B for Fetch-and-Add) falls directly
//! out of [`roce`]'s header sizes; experiment E5 regenerates that table from
//! these constants.
//!
//! Parsing never panics on malformed input: every decoder returns
//! [`WireError`] and is exercised with property-based fuzz tests, among
//! them `robustness_proptests::roce_parser_total_past_the_ip_checksum`,
//! which edits the lengths, opcode and extended header of valid frames
//! behind an intact IPv4 checksum. Each byte-aligned header is declared
//! once, as a field list its parser and writer are both generated from;
//! BTH, AETH and IPv4 keep hand-written bit-field code.

// Unsafe is denied crate-wide; the one exemption is the PCLMULQDQ CRC-32
// kernel in `icrc` (raw SIMD intrinsics behind a runtime feature check),
// which carries its own `allow` and safety comments.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aeth;
pub mod atomic;
pub mod bth;
pub mod bytes;
pub mod error;
pub mod ethernet;
pub mod extop;
pub mod icrc;
pub mod ipv4;
mod layout;
pub mod packet;
pub mod payload;
pub mod pool;
pub mod reth;
pub mod roce;
pub mod udp;

pub use bytes::{CounterSpan, Payload};
pub use error::WireError;
pub use ethernet::{EtherType, EthernetHeader, MacAddr};
pub use ipv4::Ipv4Header;
pub use packet::Packet;
pub use roce::RocePacket;
pub use udp::UdpHeader;

/// Result alias for wire-format operations.
pub type Result<T> = core::result::Result<T, WireError>;
