//! A programmable-switch model (Tofino-class).
//!
//! The paper implements its remote-memory primitives as P4 data-plane
//! programs on a Barefoot Tofino ASIC. This crate models the resources such
//! a program actually uses, with the same constraints that shape the P4
//! design:
//!
//! * [`table`] — exact-match match-action tables with **bounded capacity**
//!   (on-chip SRAM is the scarce resource the whole paper is about) and an
//!   optional LRU replacement mode for cache-style use,
//! * [`hash`] — the CRC-based hash units switches use to index tables,
//! * [`filter`] — a counting Bloom filter (SRAM counters + hash units)
//!   steering the one-RTT cuckoo lookup's bucket choice,
//! * [`tm`] — the traffic manager: per-port egress queues drawing from a
//!   **shared packet buffer** (12 MB in the paper's ToR example) with
//!   tail-drop, the resource whose exhaustion motivates §2.1,
//! * [`switch`] — the switch node itself: a fixed-latency ingress pipeline
//!   driving a user-supplied [`switch::PipelineProgram`], egress queueing,
//!   packet cloning and recirculation.
//!
//! The primitives themselves live in `extmem-core`; this crate knows
//! nothing about RDMA.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod filter;
pub mod hash;
pub mod switch;
pub mod table;
pub mod tm;

pub use filter::{ChoiceFilter, FilterStats};
pub use switch::{PipelineProgram, SwitchConfig, SwitchCtx, SwitchNode, SwitchStats};
pub use table::ExactMatchTable;
pub use tm::TrafficManager;
