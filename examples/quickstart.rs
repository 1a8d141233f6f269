//! Quickstart: the whole system in one file.
//!
//! Builds the smallest interesting topology — two hosts, a ToR switch
//! running the **state-store primitive**, and one memory server — pushes a
//! thousand packets through it, and shows that (a) traffic is forwarded
//! normally, (b) per-flow counters materialize in the *server's* DRAM via
//! RDMA Fetch-and-Add, and (c) the server CPU handled zero packets.
//!
//! Run with: `cargo run --release --example quickstart`

use extmem_apps::scenario::{host_ip, host_mac, Built, Testbed};
use extmem_apps::workload::{FlowPick, SinkNode, WorkloadSpec};
use extmem_core::faa::{FaaConfig, FaaEngine};
use extmem_core::state_store::read_remote_counters;
use extmem_core::ShardedStateStoreProgram;
use extmem_rnic::{RnicConfig, RnicNode};
use extmem_sim::LinkSpec;
use extmem_switch::hash::flow_index;
use extmem_switch::{SwitchConfig, SwitchNode};
use extmem_types::{ByteSize, FiveTuple, Rate, Time, TimeDelta};

fn main() {
    // ---------------------------------------------------------------
    // 1. Topology: sender (port 0) -- switch -- receiver (port 1).
    // ---------------------------------------------------------------
    let link = LinkSpec::testbed_40g();
    let mut tb = Testbed::new(1);
    let flows: Vec<FiveTuple> = (0..4)
        .map(|i| FiveTuple::new(host_ip(0), host_ip(1), 5000 + i, 9000, 17))
        .collect();
    tb.gen(
        WorkloadSpec {
            src_mac: host_mac(0),
            dst_mac: host_mac(1),
            flows: flows.clone().into(),
            pick: FlowPick::Uniform,
            frame_len: 256,
            offered: Some(Rate::from_gbps(10)),
            arrival: extmem_apps::workload::Arrival::Paced,
            count: 1000,
            seed: 7,
            flow_id_base: 0,
        },
        link,
    );
    tb.sink(link);

    // ---------------------------------------------------------------
    // 2. Control plane (the only CPU involvement in the whole design):
    //    a memory server on port 2; register memory on it and set up the
    //    RDMA channel.
    // ---------------------------------------------------------------
    let counters = 1024u64;
    let (_, channel) = tb.server(
        RnicConfig::default(),
        ByteSize::from_bytes(counters * 8),
        link,
    );
    let (rkey, base_va) = (channel.rkey, channel.base_va);
    println!(
        "channel: qpn={} rkey={} base=0x{:x}",
        channel.qp.peer_qpn, rkey, base_va
    );

    // ---------------------------------------------------------------
    // 3. The data-plane program: L2 forwarding + remote per-flow counting,
    //    over one shard (shard 0, active) backed by that one server.
    // ---------------------------------------------------------------
    let engine = FaaEngine::new(channel, FaaConfig::default());
    let shards = vec![(0, engine, true)];
    let program = ShardedStateStoreProgram::new(tb.fib(), shards, 1, TimeDelta::from_micros(50));

    // ---------------------------------------------------------------
    // 4. Build (wires the links, starts the sender) and run. After the
    //    workload, give the switch a moment to flush its outstanding
    //    Fetch-and-Adds.
    // ---------------------------------------------------------------
    let Built {
        mut sim,
        switch,
        hosts,
        servers,
        ..
    } = tb.build(SwitchConfig::default(), Box::new(program));
    sim.run_until(Time::from_millis(5));

    // ---------------------------------------------------------------
    // 5. Inspect: end-to-end delivery, and counters in server DRAM.
    // ---------------------------------------------------------------
    let sink = sim.node::<SinkNode>(hosts[1]);
    println!(
        "forwarded {} packets end-to-end, median latency {}",
        sink.received,
        sink.latency.summarize().unwrap().median
    );

    let sw: &SwitchNode = sim.node::<SwitchNode>(switch);
    let prog = sw.program::<ShardedStateStoreProgram>();
    let nic = sim.node::<RnicNode>(servers[0]);
    let remote = read_remote_counters(nic, rkey, base_va, counters);

    println!("\nper-flow counters (read from the server's DRAM):");
    for f in &flows {
        let slot = flow_index(f, prog.counters_per_shard());
        println!(
            "  {:?} -> slot {:4}: {:4} packets",
            f, slot, remote[slot as usize]
        );
    }
    let total: u64 = remote.iter().sum();
    println!("\nremote total = {total} (sent 1000)");
    let faa = prog.engine(0).stats();
    println!(
        "FaA requests sent: {} (merged {} updates into fewer ops)",
        faa.faa_sent, faa.merged
    );
    println!(
        "server CPU packets: {} (zero CPU involvement)",
        nic.stats().cpu_packets
    );
    assert_eq!(total, 1000);
    assert_eq!(nic.stats().cpu_packets, 0);
    println!("\nOK");
}
