//! An RDMA-capable NIC (RNIC) model.
//!
//! The paper's remote-memory architecture hinges on one property of
//! commodity RNICs: **one-sided RDMA operations (WRITE, READ, atomic
//! Fetch-and-Add) are executed entirely by the NIC**, with zero CPU
//! involvement on the host. This crate models such a NIC as a simulator
//! node:
//!
//! * [`mr`] — registered memory regions with rkey-based access checks,
//! * [`qp`] — queue pair state (RC or UC transport, connected or not,
//!   expected PSN, MSN, duplicate-replay buffers),
//! * [`responder`] — the RoCEv2 responder state machine: parse request,
//!   validate, execute DMA, emit READ responses / ACKs / NAKs,
//! * [`nic`] — the performance model: a service-time pipeline with
//!   separate write/read bandwidths and an atomic-operation rate cap,
//!   a bounded RX queue (overload ⇒ drops, reproducing the §5 "RDMA
//!   requests were occasionally dropped at the NIC" ceiling), and per-op
//!   statistics including a CPU-involvement counter that the tests assert
//!   stays at **zero**,
//! * [`requester`] — host-side requester nodes used by the E1 baseline
//!   (native server-to-server RDMA WRITE/READ).
//!
//! Calibration: the default [`nic::RnicConfig`] numbers are chosen so the
//! model reproduces the *shape* of the paper's measurements on CX-3 Pro
//! class hardware (≈34/37 Gbps lossless WRITE/READ ceilings at 1500 B, an
//! atomic rate that caps Fetch-and-Add traffic near 2.1 Gbps); see
//! EXPERIMENTS.md for the calibration story.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mr;
pub mod nic;
pub mod qp;
pub mod requester;
pub mod responder;

pub use mr::{MemoryRegion, MrTable};
pub use nic::{RnicConfig, RnicNode, RnicStats};
pub use qp::QueuePair;
pub use requester::{Operand, RemoteOp, Request, WriteBody};
