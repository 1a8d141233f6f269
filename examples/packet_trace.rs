//! Streaming packet-trace capture and analysis (§2.3 / §7).
//!
//! The switch mirrors every forwarded packet as a 32-byte record into a
//! ring in server DRAM via RDMA WRITE — "this eliminates the CPU cycles
//! required for capturing and parsing packets". The operator then reads the
//! trace straight out of the server's memory and runs flow accounting,
//! top-k, and microburst detection on it.
//!
//! Run with: `cargo run --release --example packet_trace`

use extmem_apps::scenario::{host_ip, host_mac, Built, Testbed};
use extmem_apps::workload::{FlowPick, WorkloadSpec};
use extmem_core::trace_store::{analysis, read_remote_trace, TraceStoreProgram};
use extmem_rnic::{RnicConfig, RnicNode};
use extmem_sim::LinkSpec;
use extmem_switch::{SwitchConfig, SwitchNode};
use extmem_types::{ByteSize, FiveTuple, Rate, Time, TimeDelta};

fn main() {
    let flows: Vec<FiveTuple> = (0..12)
        .map(|i| FiveTuple::new(host_ip(0), host_ip(1), 6000 + i, 9000, 17))
        .collect();
    let link = LinkSpec::testbed_40g();
    let mut tb = Testbed::new(2);
    tb.gen(
        WorkloadSpec {
            src_mac: host_mac(0),
            dst_mac: host_mac(1),
            flows: flows.clone().into(),
            pick: FlowPick::Zipf(1.1),
            frame_len: 400,
            offered: Some(Rate::from_gbps(8)),
            arrival: extmem_apps::workload::Arrival::Poisson,
            count: 3_000,
            seed: 11,
            flow_id_base: 0,
        },
        link,
    );
    tb.sink(link);
    // Control plane: a 1 MB trace ring on the telemetry server.
    let (_, channel) = tb.server(RnicConfig::default(), ByteSize::from_mb(1), link);
    let (rkey, base) = (channel.rkey, channel.base_va);
    // Batch 8 records per WRITE (see ablation A7 for why batching matters).
    let program = TraceStoreProgram::new(tb.fib(), channel, 8, TimeDelta::from_micros(20));
    let Built {
        mut sim,
        switch,
        servers,
        ..
    } = tb.build(SwitchConfig::default(), Box::new(program));
    sim.run_until(Time::from_millis(5));

    let sw: &SwitchNode = sim.node::<SwitchNode>(switch);
    let prog = sw.program::<TraceStoreProgram>();
    let nic = sim.node::<RnicNode>(servers[0]);
    println!(
        "captured {} events in {} RDMA WRITEs; server CPU packets: {}",
        prog.captured(),
        prog.stats().writes,
        nic.stats().cpu_packets
    );
    assert_eq!(nic.stats().cpu_packets, 0);

    // Operator side: pull the trace out of server DRAM and analyze it.
    let trace = read_remote_trace(nic, rkey, base, prog.ring_records(), prog.captured());
    println!("\ntop flows by bytes (from the remote trace):");
    for (flow, agg) in analysis::top_k_by_bytes(&trace, 5) {
        println!("  {flow:?}  {:>5} pkts  {:>8} B", agg.packets, agg.bytes);
    }
    let w = TimeDelta::from_micros(10);
    println!(
        "\nmax burst inside any {w} window: {} bytes",
        analysis::max_burst_bytes(&trace, w)
    );
    if let Some(gap) = analysis::median_interarrival(&trace, &flows[0]) {
        println!("median inter-arrival of the hottest flow: {gap}");
    }
    assert_eq!(trace.len() as u64, prog.captured().min(prog.ring_records()));
    println!("\nOK");
}
