//! The §2.2 / Fig 1b bare-metal hosting scenario: VIP→PIP translation via
//! the remote lookup table (experiments E2, A1).
//!
//! A customer's "blackbox" servers address virtual IPs; the ToR must
//! translate them to physical IPs without smartNICs or host vswitches. The
//! complete mapping lives in remote DRAM ("the complete virtual-to-physical
//! address mapping table on servers"), the switch fetches entries on
//! demand, and local SRAM acts as a cache.
//!
//! [`run_gateway`] drives a client that sends to `n_vips` virtual
//! destinations with configurable skew through a [`DirectTableProgram`],
//! verifies every delivered packet was translated, and reports latency and
//! cache behaviour. With `cache = None` every packet pays the remote
//! round trip — the configuration Fig 3a measures.

use crate::metrics::LatencySummary;
use crate::scenario::{host_ip, host_mac, Built, Testbed};
use crate::workload::{EchoNode, FlowPick, RttProbeNode, SinkNode, WorkloadSpec};
use extmem_core::direct_table::install_remote_action;
use extmem_core::{ActionEntry, DirectTableProgram, L2Program, LookupStats};
use extmem_rnic::{RnicConfig, RnicNode};
use extmem_sim::LinkSpec;
use extmem_switch::{SwitchConfig, SwitchNode};
use extmem_types::{ByteSize, FiveTuple, Rate, TimeDelta};

/// Gateway scenario parameters.
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// Number of distinct VIP flows the client addresses.
    pub n_vips: usize,
    /// Flow selection skew.
    pub pick: FlowPick,
    /// Frames to send.
    pub count: u64,
    /// Frame size.
    pub frame_len: usize,
    /// Offered rate.
    pub offered: Rate,
    /// Local SRAM cache capacity (`None` disables caching — every packet
    /// takes the remote path, as in the Fig 3a measurement).
    pub cache: Option<usize>,
    /// Remote table entries (slots).
    pub table_entries: u64,
    /// Remote slot size.
    pub entry_size: u64,
    /// Use the §7 recirculation alternative instead of packet bouncing
    /// (requires `cache`).
    pub recirculate: bool,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            n_vips: 64,
            pick: FlowPick::Zipf(1.1),
            count: 2000,
            frame_len: 256,
            offered: Rate::from_gbps(5),
            cache: Some(16),
            table_entries: 4096,
            entry_size: 2048,
            recirculate: false,
            seed: 7,
        }
    }
}

/// Results of a gateway run.
#[derive(Clone, Debug)]
pub struct GatewayResult {
    /// Frames sent.
    pub sent: u64,
    /// Frames delivered to the physical server.
    pub delivered: u64,
    /// One-way latency distribution.
    pub latency: LatencySummary,
    /// Lookup program counters.
    pub lookup: LookupStats,
    /// Cache hit rate.
    pub cache_hit_rate: f64,
    /// Server-NIC CPU packets (must be 0).
    pub server_cpu_packets: u64,
    /// Bytes that crossed the switch→table-server link (RDMA requests).
    pub to_server_bytes: u64,
    /// Bytes that crossed the table-server→switch link (responses).
    pub from_server_bytes: u64,
}

/// Build and run the gateway scenario.
pub fn run_gateway(cfg: GatewayConfig) -> GatewayResult {
    // The physical server's identity; every VIP translates to it (one
    // backend keeps verification simple without changing the data path).
    let pip_ip = host_ip(1);
    let pip_mac = host_mac(1);

    // VIP flows: client (host 0) → VIPs 10.1.0.x.
    let flows: Vec<FiveTuple> = (0..cfg.n_vips)
        .map(|v| {
            FiveTuple::new(
                host_ip(0),
                0x0a01_0000 + v as u32,
                40_000 + v as u16,
                80,
                17,
            )
        })
        .collect();

    // Ports: 0 = client, 1 = physical server (PIP target), 2 = table server.
    let link = LinkSpec::testbed_40g();
    let mut tb = Testbed::new(cfg.seed);
    tb.gen(
        WorkloadSpec {
            src_mac: host_mac(0),
            // VIP frames are addressed to a virtual gateway MAC that the
            // FIB does not know; the Translate action rewrites it to the
            // PIP MAC.
            dst_mac: extmem_wire::MacAddr::local(200),
            flows: flows.clone().into(),
            pick: cfg.pick.clone(),
            frame_len: cfg.frame_len,
            offered: Some(cfg.offered),
            count: cfg.count,
            seed: cfg.seed ^ 0xabc,
            arrival: crate::workload::Arrival::Paced,
            flow_id_base: 0,
        },
        link,
    );
    tb.sink(link);
    let (table, channel) = tb.server(
        RnicConfig::default(),
        ByteSize::from_bytes(cfg.table_entries * cfg.entry_size),
        link,
    );
    // Control plane: install a Translate action per VIP flow.
    for f in &flows {
        install_remote_action(
            tb.nic_mut(table),
            &channel,
            cfg.entry_size,
            f,
            ActionEntry::translate(pip_ip, pip_mac),
        );
    }
    let mut prog = DirectTableProgram::new(tb.fib(), channel, cfg.entry_size, cfg.cache);
    if cfg.recirculate {
        prog = prog.with_recirculation();
    }
    let Built {
        mut sim,
        switch,
        hosts,
        servers,
        links,
    } = tb.build(SwitchConfig::default(), Box::new(prog));
    sim.run_to_quiescence();

    let table_link = links[2];
    let to_server_bytes = sim.link_stats(table_link, 0).delivered_bytes;
    let from_server_bytes = sim.link_stats(table_link, 1).delivered_bytes;
    let sink = sim.node::<SinkNode>(hosts[1]);
    let sw: &SwitchNode = sim.node::<SwitchNode>(switch);
    let prog = sw.program::<DirectTableProgram>();
    GatewayResult {
        sent: cfg.count,
        delivered: sink.received,
        latency: sink
            .latency
            .summarize()
            .expect("gateway delivered no packets"),
        lookup: prog.stats(),
        cache_hit_rate: prog.cache_hit_rate(),
        server_cpu_packets: sim.node::<RnicNode>(servers[0]).stats().cpu_packets,
        to_server_bytes,
        from_server_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_packets_translated_and_delivered() {
        let cfg = GatewayConfig {
            count: 500,
            ..Default::default()
        };
        let r = run_gateway(cfg);
        // Every frame was translated: a VIP frame that skipped its Translate
        // action still carries the gateway MAC, which the FIB does not know
        // (`Fib::egress_for` drops it as an unknown destination), so it can
        // never reach the PIP sink. Delivering all of them, each after one
        // applied action, is the evidence.
        assert_eq!(r.delivered, 500, "{r:?}");
        assert_eq!(r.lookup.actions_applied, 500);
        assert_eq!(r.lookup.slow_path, 0);
        assert_eq!(r.server_cpu_packets, 0);
    }

    #[test]
    fn cache_absorbs_skewed_traffic() {
        let with_cache = run_gateway(GatewayConfig {
            count: 2000,
            cache: Some(32),
            pick: FlowPick::Zipf(1.3),
            ..Default::default()
        });
        let without = run_gateway(GatewayConfig {
            count: 2000,
            cache: None,
            pick: FlowPick::Zipf(1.3),
            ..Default::default()
        });
        assert!(
            with_cache.cache_hit_rate > 0.5,
            "{:?}",
            with_cache.cache_hit_rate
        );
        assert!(
            with_cache.lookup.remote_lookups < without.lookup.remote_lookups / 2,
            "cache should slash remote traffic: {} vs {}",
            with_cache.lookup.remote_lookups,
            without.lookup.remote_lookups
        );
        assert_eq!(without.lookup.remote_lookups, 2000);
        // Cache hits skip the remote RTT: median latency must improve.
        assert!(with_cache.latency.median < without.latency.median);
    }

    #[test]
    fn uncached_latency_overhead_is_microseconds() {
        // The Fig 3a claim: remote lookup adds ~1-2us over the baseline.
        let r = run_gateway(GatewayConfig {
            count: 300,
            cache: None,
            offered: Rate::from_gbps(1),
            ..Default::default()
        });
        let med = r.latency.median.as_micros_f64();
        assert!(
            med > 1.0 && med < 10.0,
            "median {med}us out of plausible range"
        );
    }
}

/// The one flow every E2 run sends: host 0 → host 1.
fn e2_flow() -> FiveTuple {
    FiveTuple::new(host_ip(0), host_ip(1), 40_000, 80, 17)
}

const E2_DSCP: u8 = 46;

/// Attach E2's table server — 4096 direct-hash slots of 2048 B holding a
/// DSCP-rewrite action for each of `flows` — and return the lookup program
/// over it.
fn dscp_table(
    tb: &mut Testbed,
    flows: &[FiveTuple],
    cache: Option<usize>,
    link: LinkSpec,
) -> DirectTableProgram {
    let (table, channel) = tb.server(
        RnicConfig::default(),
        ByteSize::from_bytes(4096 * 2048),
        link,
    );
    for f in flows {
        install_remote_action(
            tb.nic_mut(table),
            &channel,
            2048,
            f,
            ActionEntry::set_dscp(E2_DSCP),
        );
    }
    DirectTableProgram::new(tb.fib(), channel, 2048, cache)
}

/// A generator sending [`e2_flow`] on port 0 and a DSCP-checking sink on
/// port 1.
fn e2_hosts(seed: u64, frame_len: usize, count: u64, offered: Rate, dscp: Option<u8>) -> Testbed {
    let link = LinkSpec::testbed_40g();
    let mut tb = Testbed::new(seed);
    tb.gen(
        WorkloadSpec::simple(
            host_mac(0),
            host_mac(1),
            e2_flow(),
            frame_len,
            offered,
            count,
        ),
        link,
    );
    let mut sink = SinkNode::new("server");
    sink.expect_dscp = dscp;
    tb.host(sink, link);
    tb
}

/// An `NPtcp`-style prober on port 0 and an echo server on port 1.
fn e2_rtt_hosts(seed: u64, frame_len: usize, count: u64) -> Testbed {
    let link = LinkSpec::testbed_40g();
    let mut tb = Testbed::new(seed);
    tb.host(
        RttProbeNode::new(
            "nptcp",
            host_mac(0),
            host_mac(1),
            e2_flow(),
            frame_len,
            count,
        ),
        link,
    );
    tb.host(EchoNode::new("echo"), link);
    tb
}

/// Start the prober (`hosts[0]`), run to quiescence and summarize its RTTs.
fn run_rtt_probe(t: &mut Built, count: u64) -> LatencySummary {
    t.sim.schedule_timer(t.hosts[0], TimeDelta::ZERO, 0);
    t.sim.run_to_quiescence();
    let prober = t.sim.node::<RttProbeNode>(t.hosts[0]);
    assert_eq!(prober.rtt.len() as u64, count, "probe round trips lost");
    assert_eq!(prober.corrupt, 0);
    prober.rtt.summarize().expect("no round trips recorded")
}

/// Experiment E2 (Fig 3a) runner: every packet fetches a DSCP-rewrite
/// action from the remote table (no cache), mirroring the paper's "custom
/// action that modifies the value of the DSCP field". Returns the one-way
/// latency summary plus lookup stats; compare against
/// [`run_l2_baseline`].
pub fn run_dscp_lookup(
    frame_len: usize,
    count: u64,
    offered: Rate,
    cache: Option<usize>,
    seed: u64,
) -> (LatencySummary, LookupStats) {
    let mut tb = e2_hosts(seed, frame_len, count, offered, Some(E2_DSCP));
    let prog = dscp_table(&mut tb, &[e2_flow()], cache, LinkSpec::testbed_40g());
    let mut t = tb.build(SwitchConfig::default(), Box::new(prog));
    t.sim.run_to_quiescence();

    let sink = t.sim.node::<SinkNode>(t.hosts[1]);
    assert_eq!(sink.received, count, "lookup path lost packets");
    assert_eq!(sink.dscp_mismatch, 0, "action not applied");
    let sw: &SwitchNode = t.sim.node::<SwitchNode>(t.switch);
    let prog = sw.program::<DirectTableProgram>();
    (
        sink.latency.summarize().expect("no packets delivered"),
        prog.stats(),
    )
}

/// Experiment E2 baseline: "a simple P4 implementation of L2 switch
/// without doing anything special".
pub fn run_l2_baseline(frame_len: usize, count: u64, offered: Rate, seed: u64) -> LatencySummary {
    let tb = e2_hosts(seed, frame_len, count, offered, None);
    let prog = L2Program {
        fib: tb.fib(),
        forwarded: 0,
    };
    let mut t = tb.build(SwitchConfig::default(), Box::new(prog));
    t.sim.run_to_quiescence();

    let sink = t.sim.node::<SinkNode>(t.hosts[1]);
    assert_eq!(sink.received, count, "baseline lost packets");
    sink.latency.summarize().expect("no packets delivered")
}

/// Experiment E2, RTT flavour: the paper measured with `NPtcp`, a
/// request/response round trip. The probe's request crosses the lookup
/// primitive in both directions (the echoed packet's reversed flow has its
/// own table entry), so the RTT overhead is about twice the one-way figure.
pub fn run_dscp_lookup_rtt(
    frame_len: usize,
    count: u64,
    cache: Option<usize>,
    seed: u64,
) -> (LatencySummary, LookupStats) {
    let mut tb = e2_rtt_hosts(seed, frame_len, count);
    let flows = [e2_flow(), e2_flow().reversed()];
    let prog = dscp_table(&mut tb, &flows, cache, LinkSpec::testbed_40g());
    let mut t = tb.build(SwitchConfig::default(), Box::new(prog));
    let rtt = run_rtt_probe(&mut t, count);
    let sw: &SwitchNode = t.sim.node::<SwitchNode>(t.switch);
    (rtt, sw.program::<DirectTableProgram>().stats())
}

/// RTT baseline over the plain L2 switch.
pub fn run_l2_baseline_rtt(frame_len: usize, count: u64, seed: u64) -> LatencySummary {
    let tb = e2_rtt_hosts(seed, frame_len, count);
    let prog = L2Program {
        fib: tb.fib(),
        forwarded: 0,
    };
    let mut t = tb.build(SwitchConfig::default(), Box::new(prog));
    run_rtt_probe(&mut t, count)
}

#[cfg(test)]
mod e2_tests {
    use super::*;

    #[test]
    fn rtt_overhead_is_roughly_twice_the_one_way_overhead() {
        let base = run_l2_baseline_rtt(256, 200, 9);
        let (with, stats) = run_dscp_lookup_rtt(256, 200, None, 9);
        assert_eq!(stats.remote_lookups, 400, "both directions must look up");
        let overhead = with.median.as_micros_f64() - base.median.as_micros_f64();
        assert!(
            (1.5..8.0).contains(&overhead),
            "RTT overhead {overhead}us should be about twice the one-way 1-2us"
        );
    }

    #[test]
    fn recirculation_budget_prevents_livelock_under_loss() {
        // A lossy table-server link with recirculation: lost action READs
        // must end in bounded packet drops, not infinite recirculation.
        let mut tb = e2_hosts(17, 256, 200, Rate::from_gbps(1), None);
        let mut lossy = LinkSpec::testbed_40g();
        lossy.faults = extmem_sim::FaultSpec::drop(0.3);
        let prog = dscp_table(&mut tb, &[e2_flow()], Some(8), lossy).with_recirculation();
        let Built {
            mut sim,
            switch,
            hosts,
            ..
        } = tb.build(SwitchConfig::default(), Box::new(prog));
        // Must terminate (the budget bounds recirculation) within the
        // workload horizon.
        sim.run_to_quiescence();
        let sw: &SwitchNode = sim.node::<SwitchNode>(switch);
        let stats = sw.program::<DirectTableProgram>().stats();
        let delivered = sim.node::<SinkNode>(hosts[1]).received;
        assert!(
            delivered + stats.recirc_budget_drops + stats.slow_path >= 190,
            "packets unaccounted: delivered={delivered} {stats:?}"
        );
        assert!(
            delivered > 0,
            "channel must not collapse entirely: {stats:?}"
        );
    }

    #[test]
    fn recirculation_mode_translates_with_less_remote_bandwidth() {
        let bounce = run_gateway(GatewayConfig {
            count: 1500,
            cache: Some(16),
            pick: FlowPick::Zipf(0.8),
            frame_len: 512,
            ..Default::default()
        });
        let recirc = run_gateway(GatewayConfig {
            count: 1500,
            cache: Some(16),
            pick: FlowPick::Zipf(0.8),
            frame_len: 512,
            recirculate: true,
            ..Default::default()
        });
        assert_eq!(bounce.delivered, 1500);
        assert_eq!(recirc.delivered, 1500, "{recirc:?}");
        assert!(recirc.lookup.recirc_passes > 0);
        assert!(bounce.lookup.recirc_passes == 0);
        let b_bytes = bounce.to_server_bytes + bounce.from_server_bytes;
        let r_bytes = recirc.to_server_bytes + recirc.from_server_bytes;
        assert!(
            r_bytes * 2 < b_bytes,
            "recirculation must at least halve remote bytes: {r_bytes} vs {b_bytes}"
        );
        assert_eq!(recirc.server_cpu_packets, 0);
    }

    #[test]
    fn dscp_lookup_adds_small_constant_latency() {
        for &size in &[64usize, 1024] {
            let base = run_l2_baseline(size, 200, Rate::from_gbps(1), 3);
            let (with, stats) = run_dscp_lookup(size, 200, Rate::from_gbps(1), None, 3);
            assert_eq!(stats.remote_lookups, 200);
            let overhead = with.median.as_micros_f64() - base.median.as_micros_f64();
            assert!(
                overhead > 0.5 && overhead < 5.0,
                "size {size}: overhead {overhead}us out of the paper's regime"
            );
        }
    }
}
