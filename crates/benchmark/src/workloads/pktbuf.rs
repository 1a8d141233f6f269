//! `pktbuf_lossy`: the packet-buffer primitive in `Auto` mode over a lossy
//! memory-server link.
//!
//! A paced 12 Gbps stream of 800 B frames meets a 10 Gbps drain port, so the
//! protected queue crosses its threshold early and — by the §4 ordering
//! rule — every later frame detours: WRITTEN to the remote ring and READ
//! back. The ring (64 MB at full size) fills to 89 % and its index wraps
//! about five times. The memory server's link drops 0.1 % of packets
//! in each direction, drawn from the run's seed; the reliability layer
//! (`rto` 50 µs) must recover every one, in order. This is the only workload
//! where operations can fail, which is why its oracle is exact recovery.
//! Statistics start at t = 0 with the ring empty.
//!
//! The protected queue's thresholds hold about 200 µs of drain time, more
//! than a retransmission timeout and its first back-off, so a recovered loss
//! stalls the READ-back path without idling the drain port. Latency is then
//! the backlog of a 12-into-10 fluid, not the sum of ~1,600 timeouts: with
//! thresholds of a few frames (as `simperf::loss_sweep` has them) the port
//! idles at every loss, the idle time accumulates for the rest of the run,
//! and p50 moves 5 % from seed to seed. A recovery path that gets slower
//! than the queue is deep still shows, as a step in latency and goodput.
//!
//! A second, Poisson client adds 0.1 Gbps of the same frames. Without it
//! the paced stream through an always-busy port gives every frame a latency
//! that no seed can move; with it, how many background frames sit ahead of
//! a frame is a Poisson count, which moves the percentiles by about 0.1 %.

use super::{derive_seed, finish, fold_sink, scaled, timed, Run, Workload};
use crate::drive::run_until_done;
use crate::trace::{Layer, ProbeFactory, TraceReport, Traced, TracedProgram};
use extmem_apps::scenario::{host_endpoint, host_ip, host_mac, switch_endpoint};
use extmem_apps::workload::{Arrival, SinkNode, TrafficGenNode, WorkloadSpec};
use extmem_core::packet_buffer::{Mode, PacketBufferProgram};
use extmem_core::{Fib, RdmaChannel, ReliableConfig};
use extmem_rnic::{RnicConfig, RnicNode};
use extmem_sim::{FaultSpec, LinkSpec, SimBuilder, Simulator};
use extmem_switch::{SwitchConfig, SwitchNode};
use extmem_types::{ByteSize, FiveTuple, LinkId, NodeId, PortId, Rate, Time, TimeDelta};

/// Frames the paced client offers at full size.
const FRAMES: u64 = 400_000;
/// The paced client sends this many frames for each background frame
/// (12 Gbps against 0.1 Gbps, so both clients finish together).
const PACED_PER_BACKGROUND: u64 = 120;
const FRAME_LEN: usize = 800;
/// Ring entry: 6-byte entry header + frame, rounded up.
const ENTRY: u64 = 816;
/// Ring size at full scale.
const RING_BYTES: u64 = 64 << 20;
const OFFERED_GBPS: u64 = 12;
const BACKGROUND_MBPS: u64 = 100;
const DRAIN_GBPS: u64 = 10;
/// Protected-queue depth beyond which arrivals detour, at full size; READs
/// resume at half of it.
const START_STORE_QBYTES: u64 = 512 << 10;
/// Flow ids of the background client start here.
const BACKGROUND_FLOW_BASE: u32 = 1 << 16;
const DROP_PROB: f64 = 0.001;

type Switch = Traced<SwitchNode>;
type Program = TracedProgram<PacketBufferProgram>;

/// Frames the two clients offer at `scale`: `(paced, background)`.
fn counts(scale: f64) -> (u64, u64) {
    let paced = scaled(FRAMES, scale);
    (paced, paced / PACED_PER_BACKGROUND)
}

/// Frames offered at `scale`.
pub fn frames(scale: f64) -> u64 {
    let (paced, background) = counts(scale);
    paced + background
}

/// A built packet-buffer topology, ready to drive.
pub struct Topology {
    sim: Simulator,
    traced: bool,
    /// Frames offered, both clients.
    count: u64,
    ring_entries: u64,
    switch: NodeId,
    gens: [NodeId; 2],
    sink: NodeId,
    server: NodeId,
    mem_link: LinkId,
}

pub fn build(seed: u64, scale: f64, traced: bool) -> Topology {
    let (paced, background) = counts(scale);
    let mut probes = ProbeFactory::new(traced);

    // The ring and the queue thresholds shrink with the run, so a small run
    // still detours and still wraps the ring.
    let ring_entries = scaled(RING_BYTES / ENTRY, scale);
    let start_store_qbytes = ((START_STORE_QBYTES as f64 * scale) as u64).max(4096);
    let mut nic = RnicNode::new("memsrv", RnicConfig::at(host_endpoint(2)));
    let channel = RdmaChannel::setup(
        switch_endpoint(),
        PortId(2),
        &mut nic,
        ByteSize::from_bytes(ring_entries * ENTRY),
    );
    let mut fib = Fib::new(8);
    fib.install(host_mac(0), PortId(0));
    fib.install(host_mac(1), PortId(1));
    let rto = TimeDelta::from_micros(50);
    let prog = PacketBufferProgram::new(
        fib,
        vec![channel],
        PortId(1),
        ENTRY,
        Mode::Auto {
            start_store_qbytes,
            resume_load_qbytes: start_store_qbytes / 2,
        },
        8,
        rto,
    )
    .with_reliability(ReliableConfig {
        rto,
        ..Default::default()
    });

    // The builder seed feeds the per-direction fault streams.
    let mut b = SimBuilder::new(derive_seed(seed, 1));
    let prog_probe = probes.probe(Layer::Core, "tor/pktbuf");
    let switch = b.add_node(probes.node(
        Layer::Switch,
        SwitchNode::new(
            "tor",
            SwitchConfig::default(),
            Box::new(TracedProgram::new(prog, prog_probe)),
        ),
    ));
    // Two flows whose ports come from the seed: the frame filler, and with
    // it every ICRC and digest, differs between seeds.
    // (Destination ports stay below 4096, clear of RoCEv2's 4791.)
    let flow = |purpose: u64, src: usize| {
        let s = derive_seed(seed, purpose);
        FiveTuple::new(
            host_ip(src),
            host_ip(1),
            (s >> 16) as u16,
            s as u16 & 0x0fff,
            17,
        )
    };
    let gen = b.add_node(probes.node(
        Layer::Apps,
        TrafficGenNode::new(
            "gen",
            WorkloadSpec::simple(
                host_mac(0),
                host_mac(1),
                flow(2, 0),
                FRAME_LEN,
                Rate::from_gbps(OFFERED_GBPS),
                paced,
            ),
        ),
    ));
    let background_gen = b.add_node(probes.node(
        Layer::Apps,
        TrafficGenNode::new(
            "background",
            WorkloadSpec {
                arrival: Arrival::Poisson,
                seed: derive_seed(seed, 3),
                flow_id_base: BACKGROUND_FLOW_BASE,
                ..WorkloadSpec::simple(
                    host_mac(3),
                    host_mac(1),
                    flow(4, 3),
                    FRAME_LEN,
                    Rate::from_mbps(BACKGROUND_MBPS),
                    background,
                )
            },
        ),
    ));
    let sink = b.add_node(probes.node(Layer::Apps, SinkNode::new("sink")));
    b.connect(switch, PortId(0), gen, PortId(0), LinkSpec::testbed_40g());
    b.connect(
        switch,
        PortId(3),
        background_gen,
        PortId(0),
        LinkSpec::testbed_40g(),
    );
    b.connect(
        switch,
        PortId(1),
        sink,
        PortId(0),
        LinkSpec::new(Rate::from_gbps(DRAIN_GBPS), TimeDelta::from_nanos(300)),
    );
    let server = b.add_node(probes.node(Layer::Rnic, nic));
    let mut lossy = LinkSpec::testbed_40g();
    lossy.faults = FaultSpec::drop(DROP_PROB);
    let mem_link = b.connect(switch, PortId(2), server, PortId(0), lossy);

    let mut sim = b.build();
    for g in [gen, background_gen] {
        sim.schedule_timer(g, TimeDelta::ZERO, TrafficGenNode::KICK_TOKEN);
    }
    Topology {
        sim,
        traced,
        count: paced + background,
        ring_entries,
        switch,
        gens: [gen, background_gen],
        sink,
        server,
        mem_link,
    }
}

impl Topology {
    pub fn run(self, workload: Workload, seed: u64) -> Run {
        let Topology {
            mut sim,
            traced,
            count,
            ring_entries,
            switch,
            gens,
            sink,
            server,
            mem_link,
        } = self;

        // Three times the drain time of the whole stream, plus slack for
        // the last retransmission rounds.
        let drain = Rate::from_gbps(DRAIN_GBPS).time_to_send(FRAME_LEN) * count;
        let cap = Time::ZERO + drain * 3 + TimeDelta::from_millis(10);
        let (driven, timed) = timed(|| {
            run_until_done(
                &mut sim,
                TimeDelta::from_micros(200),
                cap,
                "every frame at the sink and the ring drained",
                |s| {
                    let p = &s.node::<Switch>(switch).inner.program::<Program>().inner;
                    s.node::<Traced<SinkNode>>(sink).inner.received >= count
                        && p.ring_occupancy() == 0
                        && p.pool(0).outstanding_len() == 0
                },
            )
        });

        let mut run = finish(workload, seed, count, timed, &sim, &[mem_link], 4);
        if let Err(e) = driven {
            run.failures.push(e.to_string());
        }
        let sk = &sim.node::<Traced<SinkNode>>(sink).inner;
        let valid = fold_sink(&mut run, sk);
        let sw = &sim.node::<Switch>(switch).inner;
        let stats = sw.program::<Program>().inner.stats();
        let nic_stats = sim.node::<Traced<RnicNode>>(server).inner.stats();
        run.counters.add_switch(sw.stats());
        run.counters.add_rnic(nic_stats);
        run.counters.add_channel(stats.channel);
        run.counters.max_ring_occupancy = stats.max_ring_occupancy;

        // Oracle: exact, in-order recovery through a ring that wrapped,
        // with the loss actually biting.
        run.check(sk.received == count, || {
            format!("sink received {} of {count} frames", sk.received)
        });
        run.check(sk.corrupt == 0 && sk.foreign == 0, || {
            format!(
                "sink saw {} corrupt, {} foreign frames",
                sk.corrupt, sk.foreign
            )
        });
        run.check(sk.total_reorders() == 0, || {
            format!(
                "{} reorders through a FIFO ring: {stats:?}",
                sk.total_reorders()
            )
        });
        run.check(
            stats.loaded == stats.stored && stats.lost_entries == 0,
            || format!("ring did not drain exactly: {stats:?}"),
        );
        run.check(stats.stored + stats.direct == count, || {
            format!("frames bypassed a full ring or went missing: {stats:?}")
        });
        run.check(stats.stored > ring_entries, || {
            format!(
                "ring of {ring_entries} entries never wrapped: stored {}",
                stats.stored
            )
        });
        run.check(!stats.channel.failed_over, || {
            "channel failed over".to_string()
        });
        let dropped = run.link_drops;
        run.check(dropped == 0 || stats.channel.retransmits > 0, || {
            format!("{dropped} packets dropped but nothing retransmitted")
        });
        run.check(sw.stats().tm_drops == 0, || {
            format!("{} traffic-manager drops", sw.stats().tm_drops)
        });
        run.check(nic_stats.cpu_packets == 0, || {
            format!(
                "{} packets reached the memory server's CPU",
                nic_stats.cpu_packets
            )
        });
        run.settle_frames_ok(valid);

        run.replay.region_bytes = ring_entries * ENTRY;
        run.replay.server_mac = Some(host_mac(2));
        if traced {
            let mut report = TraceReport::default();
            let sw = sim.node_mut::<Switch>(switch);
            let prog = sw.inner.program_mut::<Program>().take_probe();
            report.push(sw.take_probe());
            report.push(prog);
            for g in gens {
                report.push(sim.node_mut::<Traced<TrafficGenNode>>(g).take_probe());
            }
            report.push(sim.node_mut::<Traced<SinkNode>>(sink).take_probe());
            report.push(sim.node_mut::<Traced<RnicNode>>(server).take_probe());
            run.trace = Some(report);
        }
        run
    }
}
