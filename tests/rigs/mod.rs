//! One steady-state rig per primitive, shared by the suites that count what
//! a frame costs (`alloc_budget`: heap allocations; `payload_sharing`: cold
//! content digests). Each is a generator (host 0) offering `frames` frames
//! through the switch to a sink (host 1), with the primitive's server(s)
//! behind it.

use extmem_apps::scenario::{host_ip, host_mac, Built, Testbed};
use extmem_apps::workload::{Arrival, FlowPick, SinkNode, WorkloadSpec};
use extmem_core::faa::{FaaConfig, FaaEngine};
use extmem_core::lookup::{install_cuckoo_image, ActionEntry, LookupTableProgram};
use extmem_core::packet_buffer::{Mode, PacketBufferProgram};
use extmem_core::ShardedStateStoreProgram;
use extmem_core::{CuckooConfig, CuckooDirectory, PoolConfig};
use extmem_rnic::RnicConfig;
use extmem_sim::LinkSpec;
use extmem_switch::SwitchConfig;
use extmem_types::{ByteSize, FiveTuple, PortId, Rate, TimeDelta};

/// 256 B frames over 512 installed flows, cache off: every frame pays one
/// remote miss, by bucket READ or by hash-probe op.
pub fn cuckoo_lookup(remote_ops: bool, frames: u64) -> Built {
    const DSCP: u8 = 46;
    let flows: Vec<FiveTuple> = (0..512u16)
        .map(|i| FiveTuple::new(host_ip(0), host_ip(1), 20_000 + i, 80, 17))
        .collect();
    let mut dir = CuckooDirectory::new(CuckooConfig::for_capacity(flows.len() as u64));
    for f in &flows {
        dir.install(*f, ActionEntry::set_dscp(DSCP)).unwrap();
    }
    let link = LinkSpec::testbed_40g();
    let mut tb = Testbed::new(11);
    tb.gen(
        WorkloadSpec {
            src_mac: host_mac(0),
            dst_mac: host_mac(1),
            flows: flows.into(),
            pick: FlowPick::Zipf(1.05),
            frame_len: 256,
            offered: Some(Rate::from_gbps(8)),
            arrival: Arrival::Poisson,
            count: frames,
            seed: 5,
            flow_id_base: 0,
        },
        link,
    );
    let mut sink = SinkNode::new("server");
    sink.expect_dscp = Some(DSCP);
    tb.host(sink, link);
    let (table, channel) = tb.server(
        RnicConfig::default(),
        ByteSize::from_bytes(dir.region_bytes()),
        link,
    );
    install_cuckoo_image(tb.nic_mut(table), &channel, &dir);
    let prog = LookupTableProgram::cuckoo(tb.fib(), channel, dir, None).with_remote_ops(remote_ops);
    tb.build(SwitchConfig::default(), Box::new(prog))
}

/// 800 B frames at 12 G into a 10 G port behind the packet buffer: once the
/// protected queue passes 16 KB every frame is stored to the remote ring by
/// WRITE and fetched back by READ.
pub fn packet_buffer(frames: u64) -> Built {
    const ENTRY: u64 = 816;
    let flow = FiveTuple::new(host_ip(0), host_ip(1), 7000, 9000, 17);
    let link = LinkSpec::testbed_40g();
    let mut tb = Testbed::new(12);
    tb.gen(
        WorkloadSpec::simple(
            host_mac(0),
            host_mac(1),
            flow,
            800,
            Rate::from_gbps(12),
            frames,
        ),
        link,
    );
    tb.sink(LinkSpec::new(
        Rate::from_gbps(10),
        TimeDelta::from_nanos(300),
    ));
    let (_, channel) = tb.server(
        RnicConfig::default(),
        ByteSize::from_bytes(8192 * ENTRY),
        link,
    );
    let prog = PacketBufferProgram::new(
        tb.fib(),
        vec![channel],
        PortId(1),
        ENTRY,
        Mode::Auto {
            start_store_qbytes: 16 << 10,
            resume_load_qbytes: 8 << 10,
        },
        8,
        TimeDelta::from_micros(50),
    );
    tb.build(SwitchConfig::default(), Box::new(prog))
}

/// 256 B frames, one Fetch-and-Add per frame on a two-replica pool (the
/// primary executes it, the mirror catches up by value replay). Built on
/// the ambient scheduler backend.
pub fn replicated_fetch_and_add(frames: u64) -> Built {
    let counters = 256u64;
    let region = ByteSize::from_bytes(counters * 8);
    // Eight counters: one flush replays at most eight deltas, inside the
    // mirror NIC's window of outstanding atomics (past it requests drop
    // and the channel goes back N — a storm, not a steady state).
    let flows: Vec<FiveTuple> = (0..8u16)
        .map(|i| FiveTuple::new(host_ip(0), host_ip(1), 30_000 + i, 80, 17))
        .collect();
    let link = LinkSpec::testbed_40g();
    let mut tb = Testbed::new(13);
    tb.gen(
        WorkloadSpec {
            src_mac: host_mac(0),
            dst_mac: host_mac(1),
            flows: flows.into(),
            pick: FlowPick::RoundRobin,
            frame_len: 256,
            offered: Some(Rate::from_gbps(2)),
            arrival: Arrival::Paced,
            count: frames,
            seed: 6,
            flow_id_base: 0,
        },
        link,
    );
    tb.sink(link);
    let (_, primary) = tb.server(RnicConfig::default(), region, link);
    let (_, mirror) = tb.server(RnicConfig::default(), region, link);
    let engine = FaaEngine::replicated(
        vec![primary, mirror],
        FaaConfig {
            reliable: true,
            ..Default::default()
        },
        PoolConfig::default(),
    );
    let shards = vec![(0, engine, true)];
    let prog = ShardedStateStoreProgram::new(tb.fib(), shards, 1, TimeDelta::from_micros(20));
    tb.build(SwitchConfig::default(), Box::new(prog))
}
