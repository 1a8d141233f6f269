//! Determinism: the whole point of a simulation substrate is that runs are
//! reproducible. Same topology + same seed ⇒ byte-identical packet traces.

use extmem_apps::incast::{run_incast, IncastConfig, RemoteBufferSpec};
use extmem_apps::scenario::{host_endpoint, host_ip, host_mac, Testbed};
use extmem_apps::workload::{FlowPick, WorkloadSpec};
use extmem_core::faa::{FaaConfig, FaaEngine};
use extmem_core::ShardedStateStoreProgram;
use extmem_rnic::{RnicConfig, RnicNode};
use extmem_sim::{LinkSpec, SimBuilder, Simulator};
use extmem_types::{ByteSize, FiveTuple, PortId, Rate, Time, TimeDelta};

/// A full state-store scenario, returning the simulator for digesting.
fn statestore_sim(seed: u64) -> Simulator {
    let flows: Vec<FiveTuple> = (0..8)
        .map(|i| FiveTuple::new(host_ip(0), host_ip(1), 7000 + i, 9000, 17))
        .collect();
    let link = LinkSpec::testbed_40g();
    let mut tb = Testbed::new(seed);
    tb.gen(
        WorkloadSpec {
            src_mac: host_mac(0),
            dst_mac: host_mac(1),
            flows: flows.into(),
            pick: FlowPick::Uniform,
            frame_len: 200,
            offered: Some(Rate::from_gbps(20)),
            arrival: extmem_apps::workload::Arrival::Paced,
            count: 1_000,
            seed: seed ^ 0xfeed,
            flow_id_base: 0,
        },
        link,
    );
    tb.sink(link);
    let (_, channel) = tb.server(RnicConfig::default(), ByteSize::from_kb(8), link);
    let engine = FaaEngine::new(channel, FaaConfig::default());
    let shards = vec![(0, engine, true)];
    let prog = ShardedStateStoreProgram::new(tb.fib(), shards, 1, TimeDelta::from_micros(50));
    tb.build(extmem_switch::SwitchConfig::default(), Box::new(prog))
        .sim
}

#[test]
fn same_seed_same_trace_digest() {
    let mut a = statestore_sim(1234);
    let mut b = statestore_sim(1234);
    a.run_until(Time::from_millis(2));
    b.run_until(Time::from_millis(2));
    assert_eq!(a.trace_digest(), b.trace_digest());
    assert_eq!(a.events_processed(), b.events_processed());
    assert_ne!(
        a.trace_digest(),
        0xcbf2_9ce4_8422_2325,
        "digest never updated"
    );
}

#[test]
fn different_seed_different_digest() {
    let mut a = statestore_sim(1);
    let mut b = statestore_sim(2);
    a.run_until(Time::from_millis(2));
    b.run_until(Time::from_millis(2));
    assert_ne!(a.trace_digest(), b.trace_digest());
}

#[test]
fn incast_results_are_reproducible() {
    let r1 = run_incast(IncastConfig::small(Some(RemoteBufferSpec::default())));
    let r2 = run_incast(IncastConfig::small(Some(RemoteBufferSpec::default())));
    assert_eq!(r1.delivered, r2.delivered);
    assert_eq!(r1.completion, r2.completion);
    assert_eq!(r1.pb.stored, r2.pb.stored);
    assert_eq!(r1.peak_buffer, r2.peak_buffer);
}

#[test]
fn fault_injection_is_seed_deterministic() {
    // Two identical lossy runs must agree event-for-event.
    let run = |seed| {
        let mut nic = RnicNode::new("memsrv", RnicConfig::at(host_endpoint(1)));
        let (qp, rkey, base) = extmem_rnic::requester::setup_channel(
            host_endpoint(0),
            extmem_types::QpNum(0x42),
            &mut nic,
            ByteSize::from_mb(1),
        );
        let blaster = extmem_rnic::requester::WriteBlaster::new(
            "blaster",
            qp,
            rkey,
            base,
            1_000_000,
            1000,
            Rate::from_gbps(20),
            500,
        );
        let mut b = SimBuilder::new(seed);
        let bl = b.add_node(Box::new(blaster));
        let sv = b.add_node(Box::new(nic));
        let mut spec = LinkSpec::testbed_40g();
        spec.faults = extmem_sim::FaultSpec {
            drop_prob: 0.1,
            corrupt_prob: 0.05,
            ..extmem_sim::FaultSpec::NONE
        };
        b.connect(bl, PortId(0), sv, PortId(0), spec);
        let mut sim = b.build();
        sim.schedule_timer(bl, TimeDelta::ZERO, 1);
        sim.run_to_quiescence();
        (sim.trace_digest(), sim.node::<RnicNode>(sv).stats())
    };
    let (d1, s1) = run(99);
    let (d2, s2) = run(99);
    assert_eq!(d1, d2);
    assert_eq!(s1, s2);
    assert!(
        s1.malformed_drops > 0,
        "corruption should have been injected: {s1:?}"
    );
}
