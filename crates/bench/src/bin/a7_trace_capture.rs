//! A7 — the WRITE-based telemetry path (§2.3) and its batching knob.
//!
//! §2.3: "the switch can extract fields from original packets and perform
//! RDMA WRITE into certain remote memory address. This eliminates the CPU
//! cycles required for capturing and parsing packets in previous systems."
//!
//! Every forwarded packet becomes a 32-byte record in a remote ring. A
//! record-per-WRITE costs a 74-byte RoCE envelope per packet; batching k
//! records per WRITE amortizes it. This harness measures the capture
//! bandwidth on the switch↔server link across batch sizes at ~line rate.

use extmem_apps::scenario::{host_ip, host_mac, Built, Testbed};
use extmem_apps::workload::WorkloadSpec;
use extmem_bench::table::{f2, print_table};
use extmem_core::trace_store::{read_remote_trace, TraceStoreProgram};
use extmem_rnic::{RnicConfig, RnicNode};
use extmem_sim::LinkSpec;
use extmem_switch::{SwitchConfig, SwitchNode};
use extmem_types::{ByteSize, FiveTuple, Rate, Time, TimeDelta};

fn probe(batch: usize) -> (u64, u64, f64, f64) {
    let count = 20_000u64;
    let frame = 256usize;
    let offered = Rate::from_gbps(30);
    let flows: Vec<FiveTuple> = (0..8)
        .map(|i| FiveTuple::new(host_ip(0), host_ip(1), 20_000 + i, 9_000, 17))
        .collect();
    let link = LinkSpec::testbed_40g();
    let mut tb = Testbed::new(41);
    tb.gen(
        WorkloadSpec {
            src_mac: host_mac(0),
            dst_mac: host_mac(1),
            flows: flows.into(),
            pick: extmem_apps::workload::FlowPick::Uniform,
            frame_len: frame,
            offered: Some(offered),
            arrival: extmem_apps::workload::Arrival::Paced,
            count,
            seed: 42,
            flow_id_base: 0,
        },
        link,
    );
    tb.sink(link);
    let (_, channel) = tb.server(RnicConfig::default(), ByteSize::from_mb(4), link);
    let (rkey, base) = (channel.rkey, channel.base_va);
    let prog = TraceStoreProgram::new(tb.fib(), channel, batch, TimeDelta::from_micros(20));
    let Built {
        mut sim,
        switch,
        servers,
        links,
        ..
    } = tb.build(SwitchConfig::default(), Box::new(prog));
    let workload =
        TimeDelta::from_secs_f64(count as f64 * frame as f64 * 8.0 / offered.bps() as f64);
    sim.run_until(Time::ZERO + workload + TimeDelta::from_millis(2));

    let sw: &SwitchNode = sim.node::<SwitchNode>(switch);
    let prog = sw.program::<TraceStoreProgram>();
    let stats = prog.stats();
    let to_server = sim.link_stats(links[2], 0).delivered_bytes;
    let bw = extmem_apps::metrics::throughput(to_server, workload);
    // How much of the trace actually landed? Per-packet WRITEs can exceed
    // the NIC's message rate; lost WRITEs leave zeroed records.
    let nic = sim.node::<RnicNode>(servers[0]);
    assert_eq!(nic.stats().cpu_packets, 0);
    let trace = read_remote_trace(nic, rkey, base, prog.ring_records(), prog.captured());
    let landed = trace
        .iter()
        .enumerate()
        .filter(|(i, r)| r.seq == *i as u64 && r.frame_len != 0)
        .count() as u64;
    (
        stats.captured,
        stats.writes,
        bw.gbps_f64(),
        landed as f64 / count as f64,
    )
}

fn main() {
    println!("A7: remote trace capture at 30G of 256B frames (20000 packets)");
    let mut rows = Vec::new();
    for batch in [1usize, 4, 16, 64] {
        let (captured, writes, gbps, landed) = probe(batch);
        rows.push(vec![
            batch.to_string(),
            captured.to_string(),
            writes.to_string(),
            f2(gbps),
            format!("{:.1}%", landed * 100.0),
        ]);
        if batch >= 4 {
            assert!(landed > 0.999, "batch {batch} should capture everything");
        }
    }
    print_table(
        "capture bandwidth vs batch size",
        &[
            "records/WRITE",
            "captured",
            "WRITEs",
            "capture Gbps",
            "records landed",
        ],
        &rows,
    );
    println!("\nper-packet WRITEs (batch 1) exceed the RNIC's ~9.5 M msg/s at this packet");
    println!("rate (14.6 Mpps), so part of the trace is lost at the NIC — §2.3's design");
    println!("needs §7's batching. Batched capture lands 100% and approaches the 32 B/");
    println!("record bandwidth floor, with zero server-CPU cost throughout.");
}
