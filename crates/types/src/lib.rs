//! Common foundational types for the `extmem` workspace.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! reproduction of *Generic External Memory for Switch Data Planes*
//! (HotNets 2018): simulated time, link rates, byte quantities, entity
//! identifiers, and flow keys.
//!
//! Everything here is plain data — no I/O, no allocation beyond what the
//! types themselves own — so the crate sits at the bottom of the dependency
//! graph and is usable from tests, benches and the simulator alike.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flow;
pub mod hash;
pub mod id;
pub mod rate;
pub mod time;
pub mod units;

pub use flow::FiveTuple;
pub use hash::{IntMap, IntSet};
pub use id::{LinkId, NodeId, PortId, QpNum, Rkey};
pub use rate::Rate;
pub use time::{Time, TimeDelta};
pub use units::ByteSize;
