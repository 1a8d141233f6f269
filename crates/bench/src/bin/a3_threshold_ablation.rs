//! A3 — ablation: the packet-buffer detour thresholds.
//!
//! §4: "packet storing and loading starts or ends based on a pre-defined
//! condition (e.g., the current egress queue length). Depending on the
//! condition, end-to-end performance may be affected (e.g., latency
//! increases due to a packet loaded too late). Finding a right condition to
//! start loading packets from remote buffer is our ongoing work."
//!
//! This ablation does that sweep: a 30G burst drains into a 10G port with
//! a small local queue budget; we vary the store threshold and report how
//! much traffic detours, delivery, ordering and latency.

use extmem_apps::scenario::{host_ip, host_mac, Built, Testbed};
use extmem_apps::workload::{SinkNode, WorkloadSpec};
use extmem_bench::table::{f2, print_table};
use extmem_core::packet_buffer::{Mode, PacketBufferProgram};
use extmem_rnic::RnicConfig;
use extmem_sim::LinkSpec;
use extmem_switch::{SwitchConfig, SwitchNode};
use extmem_types::{ByteSize, FiveTuple, Rate, TimeDelta};

struct ProbeOut {
    direct: u64,
    stored: u64,
    lost: u64,
    delivered: u64,
    drops: u64,
    reorders: u64,
    median_us: f64,
    p99_us: f64,
}

fn probe(start_store: u64, resume_load: u64) -> ProbeOut {
    let count = 2_000u64;
    let flow = FiveTuple::new(host_ip(0), host_ip(1), 40_000, 9_000, 17);
    let mut tb = Testbed::new(71);
    tb.gen(
        WorkloadSpec::simple(
            host_mac(0),
            host_mac(1),
            flow,
            1000,
            Rate::from_gbps(30),
            count,
        ),
        LinkSpec::testbed_40g(),
    );
    let drain = tb.sink(LinkSpec::new(
        Rate::from_gbps(10),
        TimeDelta::from_nanos(300),
    ));
    let (_, channel) = tb.server(
        RnicConfig::default(),
        ByteSize::from_mb(8),
        LinkSpec::testbed_40g(),
    );
    let prog = PacketBufferProgram::new(
        tb.fib(),
        vec![channel],
        drain,
        2048,
        Mode::Auto {
            start_store_qbytes: start_store,
            resume_load_qbytes: resume_load,
        },
        8,
        TimeDelta::from_micros(100),
    );
    let Built {
        mut sim,
        switch,
        hosts,
        ..
    } = tb.build(
        // Small local budget so thresholds matter.
        SwitchConfig {
            buffer: ByteSize::from_bytes(256 * 1024),
            ..Default::default()
        },
        Box::new(prog),
    );
    sim.run_to_quiescence();

    let sink = sim.node::<SinkNode>(hosts[1]);
    let sw: &SwitchNode = sim.node::<SwitchNode>(switch);
    let s = sw.program::<PacketBufferProgram>().stats();
    let lat = sink.latency.summarize().expect("sink received no packets");
    ProbeOut {
        direct: s.direct,
        stored: s.stored,
        lost: s.lost_entries,
        delivered: sink.received,
        drops: sw.tm().total_drops(),
        reorders: sink.total_reorders(),
        median_us: lat.median.as_micros_f64(),
        p99_us: lat.p99.as_micros_f64(),
    }
}

fn main() {
    println!("A3: detour-threshold ablation (2000 x 1000B @ 30G into a 10G port)");
    let mut rows = Vec::new();
    for &(start, resume) in &[
        (8_000u64, 4_000u64),
        (16_000, 8_000),
        (32_000, 16_000),
        (64_000, 32_000),
        (128_000, 64_000),
        (u64::MAX, u64::MAX / 2), // detour disabled: local queue only
    ] {
        let r = probe(start, resume);
        rows.push(vec![
            if start == u64::MAX {
                "off".into()
            } else {
                (start / 1000).to_string()
            },
            r.direct.to_string(),
            r.stored.to_string(),
            r.delivered.to_string(),
            r.drops.to_string(),
            r.lost.to_string(),
            r.reorders.to_string(),
            f2(r.median_us),
            f2(r.p99_us),
        ]);
    }
    print_table(
        "store-threshold sweep",
        &[
            "start KB",
            "direct",
            "detoured",
            "delivered",
            "drops",
            "lost",
            "reorders",
            "median us",
            "p99 us",
        ],
        &rows,
    );
    println!("\nexpectations: lower thresholds detour more and protect the local buffer;");
    println!("the detour adds latency (remote round trips) but prevents drops; with the");
    println!("detour off, the 256KB local budget tail-drops most of the burst.");
}
