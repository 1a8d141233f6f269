//! Scheduler-backend equivalence at full-scenario scale: every simperf
//! scenario must produce a bit-identical trace digest whether the event
//! queue runs on the hierarchical timing wheel, the binary-heap oracle, or
//! the conservative-synchronization parallel engine.
//!
//! The structure proptests check the backends agree op-by-op on random
//! scripts; this test checks the property that actually justifies the swap —
//! the *simulations* are indistinguishable: same packet trace, same event
//! count, end to end, for all perf scenarios plus the direct-hash lookup
//! ablation (at reduced scale so the suite stays fast).
//!
//! The parallel leg runs at 1, 2 and 4 workers; each is asserted equal to
//! the wheel run, so the digests agree across thread counts too.

use extmem_bench::simperf::{
    e1_write_read_loop, fabric_fanout, fabric_shard, faa_storm, incast_scenario, insert_churn,
    lookup_miss_storm, lookup_miss_storm_direct, loss_sweep, remote_ops, server_failover,
    ScenarioResult,
};
use extmem_sim::{with_sched_backend, SchedBackend};

/// Worker counts of the parallel legs.
const PARALLEL_THREADS: [usize; 3] = [1, 2, 4];

/// `run` takes the worker count of the leg it is part of (1 on the
/// sequential backends); only the fabric scenarios, which pin their own
/// backend, look at it.
fn assert_backend_equivalent(name: &str, run: impl Fn(usize) -> ScenarioResult) {
    let wheel = with_sched_backend(SchedBackend::Wheel, || run(1));
    assert_ne!(wheel.digest, 0, "{name}: digest must fingerprint the run");
    let heap = with_sched_backend(SchedBackend::Heap, || run(1));
    assert_eq!(wheel, heap, "{name}: wheel and heap backends diverged");
    for threads in PARALLEL_THREADS {
        let par = with_sched_backend(SchedBackend::Parallel(threads), || run(threads));
        assert_eq!(wheel, par, "{name}: wheel and parallel({threads}) diverged");
    }
    println!(
        "sched_equivalence {name} digest={:016x} events={} packets={}",
        wheel.digest, wheel.events, wheel.packets
    );
}

#[test]
fn e1_write_read_loop_is_backend_invariant() {
    assert_backend_equivalent("e1_write_read_loop", |_| e1_write_read_loop(400));
}

#[test]
fn incast_is_backend_invariant() {
    assert_backend_equivalent("incast", |_| incast_scenario());
}

#[test]
fn lookup_miss_storm_is_backend_invariant() {
    assert_backend_equivalent("lookup_miss_storm", |_| lookup_miss_storm(250));
}

#[test]
fn lookup_miss_storm_direct_is_backend_invariant() {
    assert_backend_equivalent("lookup_miss_storm_direct", |_| {
        lookup_miss_storm_direct(250)
    });
}

#[test]
fn remote_ops_is_backend_invariant() {
    // The op engine adds a second service-time term (per-step cost times a
    // data-dependent step count) to the NIC's busy-until bookkeeping; any
    // backend-dependent completion ordering would show up as a digest
    // divergence here first.
    assert_backend_equivalent("remote_ops", |_| remote_ops(250));
}

#[test]
fn insert_churn_is_backend_invariant() {
    // Relocation steps, verify READs, and the churn script all ride on
    // timers interleaved with traffic, so displacement ordering would be
    // the first casualty of a backend-dependent tie-break.
    assert_backend_equivalent("insert_churn", |_| insert_churn(600));
}

#[test]
fn faa_storm_is_backend_invariant() {
    assert_backend_equivalent("faa_storm", |_| faa_storm(1_500));
}

#[test]
fn loss_sweep_is_backend_invariant() {
    // 0.1% loss needs a few thousand frames before the deterministic RNG
    // actually drops one; below that the scenario's own invariants fail.
    assert_backend_equivalent("loss_sweep", |_| loss_sweep(2_000));
}

#[test]
fn server_failover_is_backend_invariant() {
    // Crash detection, probing, and rejoin all ride on timers, so this is
    // the scenario most likely to expose backend-dependent timer ordering.
    assert_backend_equivalent("server_failover", |_| server_failover(1_200));
}

#[test]
fn fabric_fanout_is_backend_invariant() {
    // The multi-pod ring pins its own thread count (it *is* the parallel
    // workhorse), so the ambient-backend legs exercise the nested-override
    // path: whatever backend the equivalence harness sets, the scenario's
    // `with_sched_backend(Parallel(n))` wrapper must win and the digest
    // must still match the sequential baselines bit for bit.
    assert_backend_equivalent("fabric_fanout", |threads| fabric_fanout(150, threads));
}

#[test]
fn fabric_shard_is_backend_invariant() {
    // The sharded leaf–spine fabric adds two wrinkles the other scenarios
    // don't have: consistent-hash routing over a 2^20-flow synthesized
    // Zipf population (the rejection sampler draws a variable number of
    // RNG values per pick) and a mid-run program mutation (spare-shard
    // activation between run_until calls). Both must be invisible to the
    // backend choice.
    assert_backend_equivalent("fabric_shard", |threads| fabric_shard(300, threads));
}

#[test]
fn fabric_fanout_speedup_on_multicore() {
    // The parallel engine's perf claim: ≥3× events/sec at 4 workers vs 1 on
    // a box with at least 4 cores. On smaller machines the engine still has
    // to be *correct* — the digest assertions above run everywhere — but
    // the throughput claim is only meaningful with real hardware
    // parallelism, so gate on it. This is the one wall-clock assertion in
    // the crate; the benchmark (`sim.par_speedup`) reports the ratio but
    // does not bound it.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        eprintln!("fabric_fanout_speedup_on_multicore: skipped ({cores} cores < 4)");
        return;
    }
    // Best-of-3 each to shake scheduler noise, at perf scale. Both legs
    // process the same events, so events/sec compares as 1/seconds.
    let best_secs = |threads: usize| {
        (0..3)
            .map(|_| {
                let start = std::time::Instant::now();
                std::hint::black_box(fabric_fanout(2_000, threads));
                start.elapsed().as_secs_f64()
            })
            .fold(f64::MAX, f64::min)
    };
    let seq = best_secs(1);
    let par = best_secs(4);
    assert!(
        seq >= 3.0 * par,
        "parallel speedup below 3x: {seq:.3} s at 1 thread, {par:.3} s at 4"
    );
}
