//! A deterministic discrete-event network simulator.
//!
//! This crate is the substrate on which the reproduction of *Generic
//! External Memory for Switch Data Planes* (HotNets 2018) runs: it stands in
//! for the paper's physical testbed (a Tofino switch, three servers, 40 Gbps
//! links). The design goals, in order:
//!
//! 1. **Determinism.** A simulation is a single-threaded event loop with a
//!    totally ordered event queue (`(time, sequence)` keys) and one seeded
//!    RNG. The same topology + seed always produces the identical packet
//!    trace; the integration suite asserts this on a trace digest.
//! 2. **Faithful link timing.** Links model serialization delay (at the
//!    configured rate, rounded up to the picosecond) plus propagation delay.
//!    A node may serialize only one packet per port at a time and is told
//!    when transmission completes, so *nodes* own their queues — which is
//!    exactly what lets the switch model expose queue depth to the paper's
//!    packet-buffer primitive.
//! 3. **Fault injection.** Links can drop or corrupt packets with configured
//!    probabilities (the §7 "RDMA packet drops" discussion), deterministic
//!    under the simulation seed.
//!
//! The key abstraction is the [`Node`] trait: anything attached to the
//! topology — traffic generator, RNIC-backed memory server, programmable
//! switch — implements it and reacts to packet arrivals, timer expirations
//! and transmit-complete notifications.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod event;
pub mod fabric;
pub mod link;
pub mod node;
mod partition;
pub mod queue;
pub mod trace;

pub use engine::{SimBuilder, Simulator};
pub use event::{with_sched_backend, SchedBackend, SchedStats, TimerHandle};
pub use fabric::{Fabric, FabricSpec};
pub use link::{FaultSpec, LinkSpec, LinkStats};
pub use node::{Node, NodeCtx};
pub use partition::ParStats;
pub use queue::TxQueue;
pub use trace::{TraceEvent, TraceSink};
