//! The repo benchmark: five long-run workloads, end-to-end metrics, and
//! per-crate attribution measured from outside the library.
//!
//! See `README.md` in this directory for why each workload exists, which
//! end-to-end metric each per-layer metric should move, and the noise
//! protocol. `BENCHMARK.json` at the repo root is the machine-readable
//! contract; `run.sh` is the one command.

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[allow(unsafe_code)]
pub mod alloc;
pub mod drive;
pub mod json;
pub mod metrics;
pub mod replay;
pub mod runner;
pub mod trace;
pub mod workloads;
