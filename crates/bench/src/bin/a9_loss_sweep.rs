//! A9 — the reliability layer under a loss sweep (§7 "handling packet
//! losses").
//!
//! §7 requires the switch itself to recover lost RDMA packets. The shared
//! `ReliableChannel` must make loss *invisible*: under 0.1% and 1% drop on
//! the memory-server link, the packet-buffer ring still releases every
//! entry in order and the state store still settles to exact counters —
//! at the price of retransmissions, not correctness. This bin prints the
//! price: retransmit volleys, NAK suppression, duplicate drops per loss
//! rate, for both a WRITE/READ-heavy primitive (packet buffer) and an
//! atomics-heavy one (state store).

use extmem_apps::scenario::{host_ip, host_mac, Built, Testbed};
use extmem_apps::workload::{SinkNode, WorkloadSpec};
use extmem_bench::table::print_table;
use extmem_core::channel::ChannelStats;
use extmem_core::faa::{FaaConfig, FaaEngine};
use extmem_core::packet_buffer::{Mode, PacketBufferProgram};
use extmem_core::state_store::{read_remote_counters, StateStoreProgram};
use extmem_core::{RdmaChannel, ReliableConfig};
use extmem_rnic::{RnicConfig, RnicNode};
use extmem_sim::{FaultSpec, LinkSpec};
use extmem_switch::{SwitchConfig, SwitchNode};
use extmem_types::{ByteSize, FiveTuple, PortId, Rate, Time, TimeDelta};

struct Out {
    channel: ChannelStats,
    delivered: u64,
    count: u64,
    exact: bool,
}

/// One paced flow into a sink behind `sink_link`, plus a memory server of
/// `region` bytes whose link drops `loss` of its packets.
fn lossy_rig(
    seed: u64,
    frame_len: usize,
    offered: Rate,
    count: u64,
    sink_link: LinkSpec,
    region: ByteSize,
    loss: f64,
) -> (Testbed, RdmaChannel) {
    let mut tb = Testbed::new(seed);
    tb.gen(
        WorkloadSpec::simple(
            host_mac(0),
            host_mac(1),
            FiveTuple::new(host_ip(0), host_ip(1), 5000, 9000, 17),
            frame_len,
            offered,
            count,
        ),
        LinkSpec::testbed_40g(),
    );
    tb.sink(sink_link);
    let mut lossy = LinkSpec::testbed_40g();
    lossy.faults = FaultSpec::drop(loss);
    let (_, channel) = tb.server(RnicConfig::default(), region, lossy);
    (tb, channel)
}

/// The packet-buffer detour: 30G in, 10G drain, every frame takes the
/// WRITE + chained-READ round trip through the lossy server link.
fn probe_packet_buffer(loss: f64, count: u64) -> Out {
    let (tb, channel) = lossy_rig(
        171,
        800,
        Rate::from_gbps(30),
        count,
        LinkSpec::new(Rate::from_gbps(10), TimeDelta::from_nanos(300)),
        ByteSize::from_mb(8),
        loss,
    );
    let prog = PacketBufferProgram::new(
        tb.fib(),
        vec![channel],
        PortId(1),
        2048,
        Mode::Auto {
            start_store_qbytes: 4096,
            resume_load_qbytes: 2048,
        },
        8,
        TimeDelta::from_micros(50),
    )
    .with_reliability(ReliableConfig {
        rto: TimeDelta::from_micros(50),
        ..Default::default()
    });
    let Built {
        mut sim,
        switch,
        hosts,
        ..
    } = tb.build(SwitchConfig::default(), Box::new(prog));
    let drain = TimeDelta::from_secs_f64(count as f64 * 800.0 * 8.0 / 10e9);
    sim.run_until(Time::ZERO + drain + TimeDelta::from_millis(40));

    let sw: &SwitchNode = sim.node(switch);
    let s = sw.program::<PacketBufferProgram>().stats();
    let sink = sim.node::<SinkNode>(hosts[1]);
    Out {
        channel: s.channel,
        delivered: sink.received,
        count,
        exact: s.lost_entries == 0
            && s.loaded == s.stored
            && sink.total_reorders() == 0
            && sink.received == count,
    }
}

/// The state store: one Fetch-and-Add per packet against the lossy link;
/// exactness is `remote counters == ground truth`.
fn probe_state_store(loss: f64, count: u64) -> Out {
    let counters = 256u64;
    let (tb, channel) = lossy_rig(
        173,
        256,
        Rate::from_gbps(2),
        count,
        LinkSpec::testbed_40g(),
        ByteSize::from_bytes(counters * 8),
        loss,
    );
    let (rkey, base) = (channel.rkey, channel.base_va);
    let engine = FaaEngine::new(
        channel,
        FaaConfig {
            reliable: true,
            rto: TimeDelta::from_micros(40),
            ..Default::default()
        },
    );
    let prog = StateStoreProgram::new(tb.fib(), engine, TimeDelta::from_micros(30));
    let Built {
        mut sim,
        switch,
        hosts,
        servers,
        ..
    } = tb.build(SwitchConfig::default(), Box::new(prog));
    sim.run_until(Time::from_millis(50));

    let sw: &SwitchNode = sim.node(switch);
    let prog = sw.program::<StateStoreProgram>();
    let s = prog.faa_stats();
    let nic = sim.node::<RnicNode>(servers[0]);
    let remote: u64 = read_remote_counters(nic, rkey, base, counters).iter().sum();
    let truth: u64 = prog.oracle.values().sum();
    let sink = sim.node::<SinkNode>(hosts[1]);
    Out {
        channel: s.channel,
        delivered: sink.received,
        count,
        exact: prog.is_quiescent() && remote == truth && sink.received == count,
    }
}

fn rows_for(name: &str, probe: impl Fn(f64, u64) -> Out, count: u64) -> Vec<Vec<String>> {
    [0.0, 0.001, 0.01]
        .iter()
        .map(|&loss| {
            let o = probe(loss, count);
            let c = o.channel;
            vec![
                format!("{name} @ {:.1}%", loss * 100.0),
                c.ops_issued.to_string(),
                c.retransmits.to_string(),
                c.naks.to_string(),
                c.naks_suppressed.to_string(),
                c.duplicate_drops.to_string(),
                format!("{}/{}", o.delivered, o.count),
                if o.exact { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect()
}

fn main() {
    println!("A9: reliability layer under loss (packet buffer 30G detour, state store 2G FaA)");
    println!();
    let mut rows = rows_for("pkt buffer", probe_packet_buffer, 2_000);
    rows.extend(rows_for("state store", probe_state_store, 2_000));
    print_table(
        "reliability cost vs loss rate",
        &[
            "primitive @ loss",
            "ops",
            "retx",
            "naks",
            "suppressed",
            "dup drops",
            "delivered",
            "exact",
        ],
        &rows,
    );
    println!();
    println!("expectation: retransmissions scale with the loss rate while delivery and");
    println!("settled state stay exact at every point — the reliability layer turns loss");
    println!("into bandwidth, never into wrong answers. NAK suppression keeps one");
    println!("go-back-N volley per loss event no matter how many packets were behind it.");
}
