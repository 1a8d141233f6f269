//! `lookup_verbs` / `lookup_ops`: the lookup-table primitive with the local
//! cache off, so every frame pays one remote miss.
//!
//! One client, one server, one table server behind a ToR. 4096 flows are
//! installed in the cuckoo directory; the client draws from them Zipf(1.05)
//! and sends 256 B frames as a Poisson process averaging [`OFFERED_GBPS`].
//! At that rate the table server's NIC is about 52 % busy serving bucket
//! READs and about 78 % busy serving hash-probe ops, so more than half the
//! frames queue behind another miss there: median and tail both move when
//! either miss path's service cost moves, and both depend on the arrival
//! draws. (A paced client would give every frame the identical latency
//! whatever the seed, and so does a Poisson one at 8.5 Gbps for the median
//! of `lookup_verbs`: more than half its frames then meet an idle NIC. At
//! 10 Gbps the hash-probe NIC is 87 % busy and the p99 of `lookup_ops`
//! moves 1.6 % from seed to seed; at 9 it moves 0.9 %.)
//!
//! The two workloads offer byte-identical traffic against the same table;
//! only the `RemoteOps` knob differs. Smallest frames of the five workloads:
//! per-packet header work dominates, byte kernels do little. Statistics
//! start at t = 0 with the switch cache disabled.

use super::{derive_seed, finish, fold_sink, scaled, timed, Run, Workload};
use crate::drive::run_until_done;
use crate::trace::{Layer, ProbeFactory, TraceReport, Traced, TracedProgram};
use extmem_apps::scenario::{host_endpoint, host_ip, host_mac, switch_endpoint};
use extmem_apps::workload::{Arrival, FlowPick, SinkNode, TrafficGenNode, WorkloadSpec};
use extmem_core::lookup::{install_cuckoo_image, ActionEntry, LookupTableProgram};
use extmem_core::{CuckooConfig, CuckooDirectory, Fib, RdmaChannel};
use extmem_rnic::{RnicConfig, RnicNode};
use extmem_sim::{LinkSpec, SimBuilder, Simulator};
use extmem_switch::{SwitchConfig, SwitchNode};
use extmem_types::{ByteSize, FiveTuple, LinkId, NodeId, PortId, Rate, Time, TimeDelta};
use extmem_wire::udp::ROCEV2_PORT;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Frames offered at full size.
pub const FRAMES: u64 = 1_000_000;
/// Installed flows.
const FLOWS: usize = 4096;
const FRAME_LEN: usize = 256;
/// Mean offered rate of the Poisson client.
const OFFERED_GBPS: u64 = 9;
const DSCP: u8 = 46;
const TABLE_PORT: PortId = PortId(2);

type Switch = Traced<SwitchNode>;
type Program = TracedProgram<LookupTableProgram>;

/// A built lookup topology, ready to drive.
pub struct Topology {
    sim: Simulator,
    traced: bool,
    remote_ops: bool,
    count: u64,
    switch: NodeId,
    gen: NodeId,
    server: NodeId,
    table: NodeId,
    table_link: LinkId,
    /// The table's byte image as installed on the server.
    image: Vec<u8>,
}

pub fn build(seed: u64, scale: f64, traced: bool, remote_ops: bool) -> Topology {
    let count = scaled(FRAMES, scale);
    let mut probes = ProbeFactory::new(traced);

    // 4096 distinct flows between the two hosts, ports drawn from the seed.
    // UDP destination 4791 is RoCEv2: a workload frame sent there is, by
    // definition, not a workload frame, so the draw skips it.
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 1));
    let mut ports = BTreeSet::new();
    while ports.len() < FLOWS {
        let p = rng.gen::<u32>();
        if p as u16 != ROCEV2_PORT {
            ports.insert(p);
        }
    }
    let flows: Vec<FiveTuple> = ports
        .iter()
        .map(|&p| FiveTuple::new(host_ip(0), host_ip(1), (p >> 16) as u16, p as u16, 17))
        .collect();

    let mut dir = CuckooDirectory::new(CuckooConfig::for_capacity(FLOWS as u64));
    for f in &flows {
        dir.install(*f, ActionEntry::set_dscp(DSCP))
            .expect("4096 flows fit a directory sized for 50% load");
    }
    let image = dir.encode_region();
    let mut nic = RnicNode::new("tablesrv", RnicConfig::at(host_endpoint(2)));
    let channel = RdmaChannel::setup(
        switch_endpoint(),
        TABLE_PORT,
        &mut nic,
        ByteSize::from_bytes(dir.region_bytes()),
    );
    install_cuckoo_image(&mut nic, &channel, &dir);

    let mut fib = Fib::new(8);
    fib.install(host_mac(0), PortId(0));
    fib.install(host_mac(1), PortId(1));
    let prog = LookupTableProgram::cuckoo(fib, channel, dir, None).with_remote_ops(remote_ops);

    let mut b = SimBuilder::new(derive_seed(seed, 2));
    let prog_probe = probes.probe(Layer::Core, "tor/lookup");
    let switch = b.add_node(probes.node(
        Layer::Switch,
        SwitchNode::new(
            "tor",
            SwitchConfig::default(),
            Box::new(TracedProgram::new(prog, prog_probe)),
        ),
    ));
    let spec = WorkloadSpec {
        src_mac: host_mac(0),
        dst_mac: host_mac(1),
        flows: flows.into(),
        pick: FlowPick::Zipf(1.05),
        frame_len: FRAME_LEN,
        offered: Some(Rate::from_gbps(OFFERED_GBPS)),
        arrival: Arrival::Poisson,
        count,
        seed: derive_seed(seed, 3),
        flow_id_base: 0,
    };
    let gen = b.add_node(probes.node(Layer::Apps, TrafficGenNode::new("client", spec)));
    let mut sink = SinkNode::new("server");
    sink.expect_dscp = Some(DSCP);
    let server = b.add_node(probes.node(Layer::Apps, sink));
    let link = LinkSpec::testbed_40g();
    b.connect(switch, PortId(0), gen, PortId(0), link);
    b.connect(switch, PortId(1), server, PortId(0), link);
    let table = b.add_node(probes.node(Layer::Rnic, nic));
    let table_link = b.connect(switch, TABLE_PORT, table, PortId(0), link);

    let mut sim = b.build();
    sim.schedule_timer(gen, TimeDelta::ZERO, TrafficGenNode::KICK_TOKEN);
    Topology {
        sim,
        traced,
        remote_ops,
        count,
        switch,
        gen,
        server,
        table,
        table_link,
        image,
    }
}

impl Topology {
    pub fn run(self, workload: Workload, seed: u64) -> Run {
        let Topology {
            mut sim,
            traced,
            remote_ops,
            count,
            switch,
            gen,
            server,
            table,
            table_link,
            image,
        } = self;

        // Ten times the mean send time: a Poisson schedule overruns its mean
        // by a fraction of a percent at these counts, so reaching the cap
        // means a frame was lost, not that the client was slow.
        let send = Rate::from_gbps(OFFERED_GBPS).time_to_send(FRAME_LEN) * count;
        let cap = Time::ZERO + send * 10 + TimeDelta::from_millis(1);
        let (driven, timed) = timed(|| {
            run_until_done(
                &mut sim,
                TimeDelta::from_micros(100),
                cap,
                "every frame at the server and no lookup outstanding",
                |s| {
                    s.node::<Traced<SinkNode>>(server).inner.received >= count
                        && s.node::<Switch>(switch)
                            .inner
                            .program::<Program>()
                            .inner
                            .pool()
                            .outstanding_len()
                            == 0
                },
            )
        });

        let mut run = finish(workload, seed, count, timed, &sim, &[table_link], 3);
        if let Err(e) = driven {
            run.failures.push(e.to_string());
        }
        let sink = &sim.node::<Traced<SinkNode>>(server).inner;
        let valid = fold_sink(&mut run, sink);
        let sw = &sim.node::<Switch>(switch).inner;
        let stats = sw.program::<Program>().inner.stats();
        let nic_stats = sim.node::<Traced<RnicNode>>(table).inner.stats();
        run.counters.add_switch(sw.stats());
        run.counters.add_rnic(nic_stats);
        run.counters.add_channel(stats.channel);
        run.counters.lookup_misses = stats.remote_lookups;
        run.counters.lookup_rtts = stats.lookup_rtts;
        run.counters.slow_path = stats.slow_path;

        // Oracle: every frame took exactly one remote round trip, came back
        // with its action applied, in order, and nothing touched the table
        // server's CPU.
        run.check(sink.received == count, || {
            format!("server received {} of {count} frames", sink.received)
        });
        run.check(sink.corrupt == 0 && sink.foreign == 0, || {
            format!(
                "server saw {} corrupt, {} foreign frames",
                sink.corrupt, sink.foreign
            )
        });
        run.check(sink.dscp_mismatch == 0, || {
            format!(
                "{} frames arrived without the table's action",
                sink.dscp_mismatch
            )
        });
        run.check(sink.total_reorders() == 0, || {
            format!("{} per-flow reorders", sink.total_reorders())
        });
        run.check(stats.remote_lookups == count, || {
            format!("{} remote lookups for {count} frames", stats.remote_lookups)
        });
        run.check(stats.slow_path == 0 && stats.bucket_misses == 0, || {
            format!(
                "slow path {} bucket misses {}",
                stats.slow_path, stats.bucket_misses
            )
        });
        run.check(stats.rtts_per_miss() == Some(1.0), || {
            format!(
                "{:?} round trips per miss, expected exactly 1",
                stats.rtts_per_miss()
            )
        });
        run.check(
            stats.failed_ops == 0 && stats.channel.retransmits == 0,
            || {
                format!(
                    "lossless run had failed ops or retransmits: {:?}",
                    stats.channel
                )
            },
        );
        let (reads, ops) = (nic_stats.reads, nic_stats.ext_ops);
        let want = if remote_ops { (0, count) } else { (count, 0) };
        run.check((reads, ops) == want, || {
            format!("responder served {reads} READs and {ops} ops, expected {want:?}")
        });
        run.check(nic_stats.cpu_packets == 0, || {
            format!(
                "{} packets reached the table server's CPU",
                nic_stats.cpu_packets
            )
        });
        run.settle_frames_ok(valid);

        run.replay.region_bytes = image.len() as u64;
        run.replay.region_image = Some(image);
        run.replay.server_mac = Some(host_mac(2));
        if traced {
            let mut report = TraceReport::default();
            let sw = sim.node_mut::<Switch>(switch);
            let prog = sw.inner.program_mut::<Program>().take_probe();
            report.push(sw.take_probe());
            report.push(prog);
            report.push(sim.node_mut::<Traced<TrafficGenNode>>(gen).take_probe());
            report.push(sim.node_mut::<Traced<SinkNode>>(server).take_probe());
            report.push(sim.node_mut::<Traced<RnicNode>>(table).take_probe());
            run.trace = Some(report);
        }
        run
    }
}
