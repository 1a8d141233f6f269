//! Scenario and workload library for the `extmem` reproduction.
//!
//! This crate assembles the substrate crates into the paper's three
//! motivating applications (Fig 1) plus the measurement machinery the
//! evaluation needs:
//!
//! * [`workload`] — traffic generation: the simulated stand-ins for the
//!   paper's `raw_ethernet_bw` (paced/bursty senders) and `NPtcp` (latency
//!   probes), with uniform, round-robin and Zipf flow selection,
//! * [`metrics`] — latency recorders, percentile math, throughput
//!   accounting,
//! * [`scenario`] — the paper's testbed as a builder ([`scenario::Testbed`]:
//!   a ToR, hosts and memory servers, wired in a fixed order), with the
//!   conventions for MACs and IPs used throughout the workspace,
//! * [`incast`] — §2.1 / Fig 1a: the 8-into-1 incast that motivates the
//!   remote packet buffer (experiment E4),
//! * [`baremetal`] — §2.2 / Fig 1b: VIP→PIP translation for bare-metal
//!   hosting over the remote lookup table (experiment E2 and ablation A1),
//! * [`telemetry`] — §2.3 / Fig 1c: per-flow counting and sketches over
//!   the remote state store (experiment E3 and ablation A2),
//! * [`kvcache`] — the §2.2 NetCache aside: in-network key-value serving
//!   with hot keys in switch SRAM and the full store in server DRAM.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baremetal;
pub mod cc;
pub mod incast;
pub mod kvcache;
pub mod metrics;
pub mod scenario;
pub mod telemetry;
pub mod workload;

pub use metrics::LatencySummary;
pub use scenario::{host_endpoint, host_ip, host_mac};
pub use workload::{FlowPick, FlowSet, SinkNode, TrafficGenNode, WorkloadSpec};
