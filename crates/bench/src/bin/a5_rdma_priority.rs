//! A5 — ablation: prioritizing RDMA packets on shared links (§7).
//!
//! §7: "one may prioritize these RDMA packets so that they are less likely
//! to be dropped". In a rack, the remote-buffer servers are ordinary
//! servers that also receive bulk data, so detour WRITEs/READs share the
//! server-facing egress with that data. This ablation runs a burst through
//! the packet-buffer detour while bulk traffic hammers the same server
//! port, with and without strict priority for the RDMA packets.

use extmem_apps::scenario::{host_ip, host_mac, Built, Testbed};
use extmem_apps::workload::{SinkNode, WorkloadSpec};
use extmem_bench::table::print_table;
use extmem_core::packet_buffer::{Mode, PacketBufferProgram};
use extmem_rnic::{RnicConfig, RnicNode};
use extmem_sim::LinkSpec;
use extmem_switch::{SwitchConfig, SwitchNode};
use extmem_types::{ByteSize, FiveTuple, Rate, TimeDelta};

struct Out {
    detoured: u64,
    lost_entries: u64,
    delivered: u64,
    sent: u64,
    bulk_delivered_to_host: u64,
    reorders: u64,
    burst_completion_us: f64,
    burst_p99_us: f64,
}

/// Ports: 0 = burst sender, 1 = victim receiver (10G), 2 = memory server
/// (shared with bulk), 3 = bulk sender.
fn probe(high_priority: bool) -> Out {
    let count = 1_500u64;
    let mut tb = Testbed::new(91);
    // Burst: 20G of 1000B frames toward the 10G victim port.
    tb.gen(
        WorkloadSpec::simple(
            host_mac(0),
            host_mac(1),
            FiveTuple::new(host_ip(0), host_ip(1), 40_000, 9_000, 17),
            1000,
            Rate::from_gbps(20),
            count,
        ),
        LinkSpec::testbed_40g(),
    );
    let victim_port = tb.sink(LinkSpec::new(
        Rate::from_gbps(10),
        TimeDelta::from_nanos(300),
    ));
    let (_, channel) = tb.server(
        RnicConfig::default(),
        ByteSize::from_mb(8),
        LinkSpec::testbed_40g(),
    );
    // Bulk: 39G of 1500B frames toward the memory server's host side —
    // together with the ~20G of detour WRITEs this oversubscribes the 40G
    // server link, building a standing queue the RDMA packets either wait
    // behind (best effort) or jump (strict priority).
    tb.gen(
        WorkloadSpec {
            flow_id_base: 1000,
            ..WorkloadSpec::simple(
                host_mac(3),
                host_mac(2),
                FiveTuple::new(host_ip(3), host_ip(2), 41_000, 9_100, 17),
                1500,
                Rate::from_gbps(39),
                4_000,
            )
        },
        LinkSpec::testbed_40g(),
    );
    let mut fib = tb.fib();
    fib.install(host_mac(2), channel.server_port); // bulk data to the server's host side
    let mut prog = PacketBufferProgram::new(
        fib,
        vec![channel],
        victim_port,
        2048,
        Mode::Auto {
            start_store_qbytes: 8_000,
            resume_load_qbytes: 4_000,
        },
        8,
        TimeDelta::from_micros(100),
    );
    if high_priority {
        prog = prog.with_high_priority_rdma();
    }
    // Default 12MB buffer: contention delays, it does not drop.
    let Built {
        mut sim,
        switch,
        hosts,
        servers,
        ..
    } = tb.build(SwitchConfig::default(), Box::new(prog));
    sim.run_to_quiescence();

    let sw: &SwitchNode = sim.node::<SwitchNode>(switch);
    let s = sw.program::<PacketBufferProgram>().stats();
    let victim = sim.node::<SinkNode>(hosts[1]);
    let lat = victim.latency.summarize().expect("victim received no packets");
    Out {
        detoured: s.stored,
        lost_entries: s.lost_entries,
        delivered: victim.received,
        sent: count,
        bulk_delivered_to_host: sim.node::<RnicNode>(servers[0]).stats().cpu_packets,
        reorders: victim.total_reorders(),
        burst_completion_us: victim.last_rx.picos() as f64 / 1e6,
        burst_p99_us: lat.p99.as_micros_f64(),
    }
}

fn main() {
    println!("A5: RDMA priority on a server link shared with 39G of bulk data");
    let mut rows = Vec::new();
    for hp in [false, true] {
        let r = probe(hp);
        rows.push(vec![
            if hp { "high (strict)" } else { "best effort" }.into(),
            r.detoured.to_string(),
            r.lost_entries.to_string(),
            format!("{}/{}", r.delivered, r.sent),
            r.reorders.to_string(),
            format!("{:.0}", r.burst_completion_us),
            format!("{:.0}", r.burst_p99_us),
            r.bulk_delivered_to_host.to_string(),
        ]);
    }
    print_table(
        "RDMA priority vs detour health",
        &[
            "rdma priority",
            "detoured",
            "lost entries",
            "burst delivered",
            "reorders",
            "completion us",
            "p99 us",
            "bulk to host",
        ],
        &rows,
    );
    println!("\nexpectation: the detour's WRITEs/READs wait behind the bulk standing queue");
    println!("without priority (late completion, fat tail); strict priority lets them jump");
    println!("it, at no cost in delivery for either flow (12MB absorbs the bulk queue).");
}
