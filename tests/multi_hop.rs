//! Remote memory across multiple switch hops.
//!
//! The paper assumes directly-attached memory servers, noting (§3,
//! footnote) that "in future work, it is possible to use any remote servers
//! in the same RoCE network after some technical challenges are addressed".
//! Because RDMA requests are "merely regular Ethernet packets" (§3), an
//! ordinary L2 switch between the ToR and the memory server should be
//! transparent to every primitive — these tests verify exactly that, at the
//! cost of one extra store-and-forward hop of latency.

use extmem_apps::scenario::{host_endpoint, host_ip, host_mac, switch_endpoint};
use extmem_apps::workload::{SinkNode, TrafficGenNode, WorkloadSpec};
use extmem_core::faa::{FaaConfig, FaaEngine};
use extmem_core::packet_buffer::{Mode, PacketBufferProgram};
use extmem_core::state_store::read_remote_counters;
use extmem_core::ShardedStateStoreProgram;
use extmem_core::{Fib, L2Program, RdmaChannel};
use extmem_rnic::{RnicConfig, RnicNode};
use extmem_sim::{LinkSpec, SimBuilder};
use extmem_switch::{SwitchConfig, SwitchNode};
use extmem_types::{ByteSize, FiveTuple, PortId, Rate, Time, TimeDelta};

/// ToR ports: 0 sender, 1 receiver, 2 → aggregation switch.
/// Agg ports: 0 → ToR, 1 → memory server.
#[test]
fn state_store_works_through_an_intermediate_switch() {
    let counters = 512u64;
    let mut nic = RnicNode::new("memsrv", RnicConfig::at(host_endpoint(3)));
    let channel = RdmaChannel::setup(
        switch_endpoint(),
        PortId(2), // the ToR-local port toward the server (via the agg)
        &mut nic,
        ByteSize::from_bytes(counters * 8),
    );
    let rkey = channel.rkey;
    let base = channel.base_va;

    let mut tor_fib = Fib::new(8);
    tor_fib.install(host_mac(0), PortId(0));
    tor_fib.install(host_mac(1), PortId(1));
    let engine = FaaEngine::new(channel, FaaConfig::default());
    let shards = vec![(0, engine, true)];
    let tor_prog = ShardedStateStoreProgram::new(tor_fib, shards, 1, TimeDelta::from_micros(30));

    // The aggregation switch is a plain L2 forwarder that knows the
    // server's MAC on port 1 and the ToR('s switch identity) on port 0.
    let mut agg_fib = Fib::new(8);
    agg_fib.install(host_endpoint(3).mac, PortId(1));
    agg_fib.install(switch_endpoint().mac, PortId(0));
    let agg_prog = L2Program {
        fib: agg_fib,
        forwarded: 0,
    };

    let mut b = SimBuilder::new(55);
    let tor = b.add_node(Box::new(SwitchNode::new(
        "tor",
        SwitchConfig::default(),
        Box::new(tor_prog),
    )));
    let agg = b.add_node(Box::new(SwitchNode::new(
        "agg",
        SwitchConfig::default(),
        Box::new(agg_prog),
    )));
    let gen = b.add_node(Box::new(TrafficGenNode::new(
        "gen",
        WorkloadSpec::simple(
            host_mac(0),
            host_mac(1),
            FiveTuple::new(host_ip(0), host_ip(1), 5000, 9000, 17),
            256,
            Rate::from_gbps(5),
            800,
        ),
    )));
    let sink = b.add_node(Box::new(SinkNode::new("sink")));
    let link = LinkSpec::testbed_40g();
    b.connect(tor, PortId(0), gen, PortId(0), link);
    b.connect(tor, PortId(1), sink, PortId(0), link);
    b.connect(tor, PortId(2), agg, PortId(0), link);
    let srv = b.add_node(Box::new(nic));
    b.connect(agg, PortId(1), srv, PortId(0), link);

    let mut sim = b.build();
    sim.schedule_timer(gen, TimeDelta::ZERO, TrafficGenNode::KICK_TOKEN);
    sim.run_until(Time::from_millis(20));

    let tor_ref: &SwitchNode = sim.node(tor);
    let prog = tor_ref.program::<ShardedStateStoreProgram>();
    assert!(prog.is_quiescent(), "{:?}", prog.engine(0).stats());
    let nic = sim.node::<RnicNode>(srv);
    let remote = read_remote_counters(nic, rkey, base, counters);
    let truth: u64 = prog.oracle.values().sum();
    assert_eq!(remote.iter().sum::<u64>(), truth);
    assert_eq!(truth, 800);
    assert_eq!(nic.stats().cpu_packets, 0);
    assert_eq!(sim.node::<SinkNode>(sink).received, 800);
}

#[test]
fn packet_buffer_works_through_an_intermediate_switch() {
    let mut nic = RnicNode::new("memsrv", RnicConfig::at(host_endpoint(3)));
    let channel = RdmaChannel::setup(switch_endpoint(), PortId(2), &mut nic, ByteSize::from_mb(4));

    let mut tor_fib = Fib::new(8);
    tor_fib.install(host_mac(0), PortId(0));
    tor_fib.install(host_mac(1), PortId(1));
    let tor_prog = PacketBufferProgram::new(
        tor_fib,
        vec![channel],
        PortId(1),
        2048,
        Mode::Auto {
            start_store_qbytes: 8_192,
            resume_load_qbytes: 4_096,
        },
        8,
        TimeDelta::from_micros(100),
    );
    let mut agg_fib = Fib::new(8);
    agg_fib.install(host_endpoint(3).mac, PortId(1));
    agg_fib.install(switch_endpoint().mac, PortId(0));
    let agg_prog = L2Program {
        fib: agg_fib,
        forwarded: 0,
    };

    let mut b = SimBuilder::new(56);
    let tor = b.add_node(Box::new(SwitchNode::new(
        "tor",
        SwitchConfig::default(),
        Box::new(tor_prog),
    )));
    let agg = b.add_node(Box::new(SwitchNode::new(
        "agg",
        SwitchConfig::default(),
        Box::new(agg_prog),
    )));
    let gen = b.add_node(Box::new(TrafficGenNode::new(
        "gen",
        WorkloadSpec::simple(
            host_mac(0),
            host_mac(1),
            FiveTuple::new(host_ip(0), host_ip(1), 5000, 9000, 17),
            1000,
            Rate::from_gbps(25),
            500,
        ),
    )));
    let sink = b.add_node(Box::new(SinkNode::new("sink")));
    b.connect(tor, PortId(0), gen, PortId(0), LinkSpec::testbed_40g());
    b.connect(
        tor,
        PortId(1),
        sink,
        PortId(0),
        LinkSpec::new(Rate::from_gbps(10), TimeDelta::from_nanos(300)),
    );
    b.connect(tor, PortId(2), agg, PortId(0), LinkSpec::testbed_40g());
    let srv = b.add_node(Box::new(nic));
    b.connect(agg, PortId(1), srv, PortId(0), LinkSpec::testbed_40g());

    let mut sim = b.build();
    sim.schedule_timer(gen, TimeDelta::ZERO, TrafficGenNode::KICK_TOKEN);
    sim.run_until(Time::from_millis(30));

    let tor_ref: &SwitchNode = sim.node(tor);
    let s = tor_ref.program::<PacketBufferProgram>().stats();
    assert!(
        s.stored > 0,
        "detour must engage through the extra hop: {s:?}"
    );
    assert_eq!(s.stored, s.loaded, "{s:?}");
    assert_eq!(s.lost_entries, 0);
    let sink = sim.node::<SinkNode>(sink);
    assert_eq!(sink.received, 500, "every packet delivered");
    assert_eq!(sink.total_reorders(), 0, "ordering survives the longer RTT");
    assert_eq!(sim.node::<RnicNode>(srv).stats().cpu_packets, 0);
}
