//! Experiment harness for the `extmem` reproduction.
//!
//! One binary per paper artifact (see DESIGN.md §5 and EXPERIMENTS.md):
//!
//! | binary | artifact |
//! |---|---|
//! | `e1_pktbuf_rates` | §5 packet-buffer store/forward ceilings vs native RDMA |
//! | `e2_lookup_latency` | Fig 3a latency overhead of the lookup primitive |
//! | `e3_statestore_bw` | Fig 3b bandwidth overhead of the state-store primitive |
//! | `e4_incast` | §2.1 / Fig 1a incast rescue |
//! | `e5_overhead` | §4 header-overhead accounting |
//! | `e6_capacity` | §2 memory-capacity expansion factors |
//! | `a1_cache_ablation` | local-cache size × skew ablation |
//! | `a2_atomics_ablation` | outstanding-window × batching ablation |
//! | `a3_threshold_ablation` | detour-threshold ablation |
//!
//! The library half hosts the E1 rig (store/forward/native sweeps), the
//! fixed scenario library the equivalence and pin suites replay
//! ([`simperf`]), and a tiny fixed-width table printer shared by all
//! binaries. Host-time performance is measured by the repo benchmark
//! (`BENCHMARK.json`, `crates/benchmark`), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod e1;
pub mod simperf;
pub mod table;
