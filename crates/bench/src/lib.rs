//! Experiment harness for the `extmem` reproduction.
//!
//! One binary, `experiments`, over one table ([`experiments::EXPERIMENTS`]):
//! a row per paper artifact (E1–E6) or ablation (A1–A13), indexed in
//! DESIGN.md §5 and discussed in EXPERIMENTS.md. Each row writes its report
//! into a `String`, and the bytes every row produces are pinned by the
//! captures in `crates/bench/expected/`.
//!
//! The library half holds what rows and tests share: the testbeds, each
//! written once ([`rigs`], and [`e1`] for the §5 packet-buffer rig), the
//! fixed scenario library the equivalence and pin suites replay
//! ([`simperf`], built from the same rigs), and the plain-text table
//! renderer ([`table`]). Host-time performance is measured by the repo
//! benchmark (`BENCHMARK.json`, `crates/benchmark`), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod e1;
pub mod experiments;
pub mod rigs;
pub mod simperf;
pub mod table;
