//! **extmem-core** — the remote-memory primitives of *Generic External
//! Memory for Switch Data Planes* (HotNets 2018).
//!
//! The paper's thesis: a programmable switch can treat DRAM on ordinary
//! servers as a new tier of its memory hierarchy, reached purely from the
//! data plane over one-sided RDMA (RoCEv2), with zero server-CPU
//! involvement. This crate implements the three primitives the paper
//! designs, each as a [`extmem_switch::PipelineProgram`]:
//!
//! | paper §4 primitive | module | remote data structure | verbs used |
//! |---|---|---|---|
//! | packet buffer | [`packet_buffer`] | ring buffer of fixed-size entries | WRITE + READ |
//! | lookup table | [`direct_table`] | fixed-size array of (action, packet) slots | WRITE + READ |
//! | lookup table (one RTT) | [`lookup`] | two-choice cuckoo buckets of (key, action) slots | READ, or one hash-probe op |
//! | state store | [`state_store`], [`sketch`] | array of 64-bit counters | Fetch-and-Add |
//! | state store (event capture) | [`trace_store`] | ring of 32-byte packet records | WRITE |
//!
//! Supporting modules:
//!
//! * [`channel`] — the RDMA channel controller (the only control-plane /
//!   CPU-involved step): registers server memory, creates the QP, and hands
//!   the data plane the `(QPN, base address, rkey)` triple — plus
//!   [`channel::ReliableChannel`], the shared requester-side reliability
//!   layer (§7: retry, resynchronize, degrade gracefully) every primitive
//!   issues its RDMA ops through.
//! * [`fib`] — the basic L2 forwarding table every program embeds.
//! * [`l2`] — the plain L2 switch program, the paper's §5 baseline.
//! * [`faa`] — the Fetch-and-Add engine shared by the state-store and
//!   sketch programs: outstanding-request bounding, local accumulation
//!   (§4), optional batching and switch-side retransmission (§7 future
//!   work, built as extensions).
//! * [`sketch`] — Count-Min and Count Sketch over remote counters (§2.3's
//!   telemetry use case).
//! * [`lpm`] — longest-prefix matching over remote memory: the §7
//!   ternary-matching co-design, solved with one exact-match rung per
//!   prefix length.
//! * [`slow_path`] — the CPU software-fallback baseline the lookup
//!   primitive replaces (§2.2), for the A8 comparison.
//! * [`cuckoo`] — the two-choice cuckoo directory + relocation planner
//!   behind the one-RTT lookup mode (EMOMA-style filter-steered probing).
//! * [`trace_store`] — WRITE-based packet-event capture (§2.3) plus
//!   operator-side trace analysis (§7's "streaming packet trace analysis
//!   system").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod cuckoo;
pub mod direct_table;
pub mod faa;
pub mod fib;
pub mod l2;
pub mod lookup;
pub mod lpm;
pub mod packet_buffer;
pub mod pool;
pub mod shard;
pub mod sketch;
pub mod slow_path;
pub mod state_store;
pub mod trace_store;

pub use channel::{
    ChannelEvent, ChannelStats, Op, RdmaChannel, ReliableChannel, ReliableConfig, Reply,
};
pub use cuckoo::{CuckooConfig, CuckooDirectory, CuckooError};
pub use direct_table::DirectTableProgram;
pub use pool::{Health, HealthDetector, PoolConfig, PoolStats, ReplicatedPool};
pub use fib::Fib;
pub use l2::L2Program;
pub use lookup::{ActionEntry, ActionKind, LookupStats, LookupTableProgram};
pub use packet_buffer::PacketBufferProgram;
pub use shard::{ShardRing, ShardStats, ShardedStateStoreProgram};
pub use state_store::StateStoreProgram;
