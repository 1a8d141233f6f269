//! Payload-sharing semantics under simulation.
//!
//! The PR's zero-copy discipline rests on three properties, each pinned
//! here end to end:
//!
//! 1. **CoW isolation** — a bit flip injected into one in-flight copy of a
//!    packet must never show through to the sender's retained copy (or any
//!    other queue holding the same buffer).
//! 2. **Zero-copy forwarding** — moving a packet across store-and-forward
//!    hops must not allocate or copy payload buffers; the only allocations
//!    in a run are the per-packet construction costs, independent of hop
//!    count.
//! 3. **Determinism under load** — the high-load incast scenario produces
//!    identical statistics *and* event counts across same-seed runs.
//!
//! The alloc/CoW/digest counters in `extmem_wire` are per thread (workers
//! of the parallel backend fold theirs into the driving thread), so a
//! [`CounterSpan`] delta around a run is that run's alone, whatever the
//! other tests in this binary are doing. The frame pool is per thread the
//! same way, and the last test here pins its hand-off: workers that live
//! for one `run_until` slice still find the buffers the previous slice's
//! workers recycled.

use extmem_apps::incast::{run_incast, IncastConfig, RemoteBufferSpec};
use extmem_sim::{FaultSpec, LinkSpec, Node, NodeCtx, SimBuilder};
use extmem_types::{PortId, TimeDelta};
use extmem_wire::{CounterSpan, Packet};

mod rigs;

/// Sends pre-built packets (constructed before the run so in-run allocation
/// deltas are attributable to the engine, not the workload) and keeps a
/// clone of each — the "sender's view" the CoW tests check.
struct Sender {
    to_send: Vec<Packet>,
    kept: Vec<Packet>,
}

impl Sender {
    fn new(packets: Vec<Packet>) -> Sender {
        Sender {
            kept: packets.clone(),
            to_send: packets,
        }
    }
}

impl Node for Sender {
    fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _port: PortId, _packet: Packet) {}

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _token: u64) {
        if let Some(pkt) = self.to_send.pop() {
            ctx.start_tx(PortId(0), pkt);
        }
    }

    fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId) {
        if let Some(pkt) = self.to_send.pop() {
            ctx.start_tx(PortId(0), pkt);
        }
    }

    fn name(&self) -> &str {
        "sender"
    }
}

/// Forwards everything arriving on port 0 out port 1 (a minimal
/// store-and-forward hop).
struct Forward {
    pending: std::collections::VecDeque<Packet>,
}

impl Node for Forward {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId, packet: Packet) {
        if ctx.tx_busy(PortId(1)) {
            self.pending.push_back(packet);
        } else {
            ctx.start_tx(PortId(1), packet);
        }
    }

    fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId) {
        if let Some(pkt) = self.pending.pop_front() {
            ctx.start_tx(PortId(1), pkt);
        }
    }

    fn name(&self) -> &str {
        "forward"
    }
}

/// Collects delivered packets.
struct Capture {
    got: Vec<Packet>,
}

impl Node for Capture {
    fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _port: PortId, packet: Packet) {
        self.got.push(packet);
    }

    fn name(&self) -> &str {
        "capture"
    }
}

/// Build a sender → N forwarding hops → capture chain and run `packets`
/// pre-built 1500 B packets through it. Returns (kept sender copies,
/// received packets, alloc delta, cow delta, digest delta) measured across
/// the run only.
fn run_chain(
    hops: usize,
    packets: Vec<Packet>,
    faults: FaultSpec,
) -> (Vec<Packet>, Vec<Packet>, u64, u64, u64) {
    let n = packets.len() as u64;
    let mut b = SimBuilder::new(7);
    let sender = b.add_node(Box::new(Sender::new(packets)));
    let fwds: Vec<_> = (0..hops)
        .map(|_| {
            b.add_node(Box::new(Forward {
                pending: Default::default(),
            }))
        })
        .collect();
    let cap = b.add_node(Box::new(Capture { got: Vec::new() }));

    let mut spec = LinkSpec::testbed_40g();
    spec.faults = faults;
    // Faults only on the first link; the rest are clean.
    let mut prev = (sender, PortId(0));
    for (i, &f) in fwds.iter().enumerate() {
        let s = if i == 0 {
            spec
        } else {
            LinkSpec::testbed_40g()
        };
        b.connect(prev.0, prev.1, f, PortId(0), s);
        prev = (f, PortId(1));
    }
    let tail = if hops == 0 {
        spec
    } else {
        LinkSpec::testbed_40g()
    };
    b.connect(prev.0, prev.1, cap, PortId(0), tail);

    let mut sim = b.build();
    sim.schedule_timer(sender, TimeDelta::ZERO, 0);
    let span = CounterSpan::begin();
    sim.run_to_quiescence();
    let (allocs, cows, digests) = (span.allocs(), span.cows(), span.digests());
    let got = std::mem::take(&mut sim.node_mut::<Capture>(cap).got);
    let kept = std::mem::take(&mut sim.node_mut::<Sender>(sender).kept);
    assert_eq!(got.len() as u64, n, "all packets delivered");
    (kept, got, allocs, cows, digests)
}

fn test_packets(count: usize) -> Vec<Packet> {
    (0..count)
        .map(|i| {
            let mut bytes = vec![0u8; 1500];
            for (j, b) in bytes.iter_mut().enumerate() {
                *b = (i * 31 + j) as u8;
            }
            Packet::from_vec(bytes)
        })
        .collect()
}

#[test]
fn forwarding_does_not_allocate_or_copy() {
    // 20 packets across 4 store-and-forward hops: the engine must move the
    // shared buffers without a single new allocation or CoW copy, even
    // though the sender still holds a clone of every packet.
    let (kept, got, allocs, cows, _) = run_chain(4, test_packets(20), FaultSpec::default());
    assert_eq!(allocs, 0, "forwarding allocated payload buffers");
    assert_eq!(cows, 0, "forwarding copied payload buffers");
    for (k, g) in kept.iter().rev().zip(&got) {
        assert_eq!(k.as_slice(), g.as_slice());
    }
}

#[test]
fn hop_count_does_not_change_allocations() {
    let clean = FaultSpec::default();
    let (_, _, a1, _, _) = run_chain(1, test_packets(10), clean);
    let (_, _, a5, _, _) = run_chain(5, test_packets(10), clean);
    assert_eq!(a1, a5, "allocations must be independent of path length");
    assert_eq!(a1, 0);
}

#[test]
fn corrupting_one_in_flight_copy_is_isolated() {
    // Every packet is corrupted on the first link while the sender holds a
    // clone: the flip must CoW exactly once per packet and the sender's
    // copies must stay pristine all the way through delivery.
    let faults = FaultSpec {
        drop_prob: 0.0,
        corrupt_prob: 1.0,
        ..FaultSpec::NONE
    };
    let (kept, got, allocs, cows, _) = run_chain(2, test_packets(8), faults);
    assert_eq!(cows, 8, "one CoW per corrupted packet");
    assert_eq!(allocs, 8, "the CoW copy is the only allocation");
    // Sender pops from the back; deliveries arrive in reverse kept order.
    for (k, g) in kept.iter().rev().zip(&got) {
        let flipped: u32 = k
            .as_slice()
            .iter()
            .zip(g.as_slice())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(
            flipped, 1,
            "received copy differs by exactly the injected bit"
        );
    }
    // And the kept copies are byte-identical to what was constructed.
    for (i, k) in kept.iter().enumerate() {
        let expect = test_packets(kept.len()).remove(i);
        assert_eq!(k.as_slice(), expect.as_slice(), "sender's view mutated");
    }
}

#[test]
fn corruption_of_unshared_packet_mutates_in_place() {
    // Control for the CoW accounting: when nobody else holds the buffer,
    // the injector's flip must happen in place (no copy, no allocation).
    struct Blast {
        left: u32,
    }
    impl Node for Blast {
        fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _port: PortId, _packet: Packet) {}
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _t: u64) {
            if self.left > 0 {
                self.left -= 1;
                ctx.start_tx(PortId(0), Packet::zeroed(256));
            }
        }
        fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, _p: PortId) {
            if self.left > 0 {
                self.left -= 1;
                ctx.start_tx(PortId(0), Packet::zeroed(256));
            }
        }
        fn name(&self) -> &str {
            "blast"
        }
    }
    let mut b = SimBuilder::new(3);
    let s = b.add_node(Box::new(Blast { left: 16 }));
    let c = b.add_node(Box::new(Capture { got: Vec::new() }));
    let mut spec = LinkSpec::testbed_40g();
    spec.faults = FaultSpec {
        drop_prob: 0.0,
        corrupt_prob: 1.0,
        ..FaultSpec::NONE
    };
    b.connect(s, PortId(0), c, PortId(0), spec);
    let mut sim = b.build();
    sim.schedule_timer(s, TimeDelta::ZERO, 0);
    let span = CounterSpan::begin();
    sim.run_to_quiescence();
    assert_eq!(span.cows(), 0, "unique buffers must be flipped in place");
    assert_eq!(sim.node::<Capture>(c).got.len(), 16);
}

#[test]
fn multi_hop_forwarding_digests_each_packet_once() {
    // The trace folds every delivery's content digest, but the digest is
    // cached in the packet: 12 packets across 5 hops (6 deliveries each)
    // must cost exactly 12 cold digest computations, not 72.
    let (kept, got, _, _, digests) = run_chain(5, test_packets(12), FaultSpec::default());
    assert_eq!(digests, 12, "digest must be computed once per packet");
    drop((kept, got));

    // A CoW mutation in flight invalidates only the wire copy's cache: the
    // corrupted packet re-digests on the hop after the flip, so the cold
    // count grows by at most one extra per packet — and the digests of the
    // sender's kept copies still match the original bytes.
    let faults = FaultSpec {
        drop_prob: 0.0,
        corrupt_prob: 1.0,
        ..FaultSpec::NONE
    };
    let (kept, got, _, _, digests) = run_chain(2, test_packets(8), faults);
    assert_eq!(
        digests, 8,
        "flip happens before the first digest; one compute per packet"
    );
    for (k, g) in kept.iter().rev().zip(&got) {
        assert_ne!(
            k.digest(),
            g.digest(),
            "corrupted copy must digest differently"
        );
    }
}

/// Cold content digests per offered frame, one row per primitive, as exact
/// counts: a frame is hashed when the trace first folds it and again only
/// after a header rewrite, so a change that loses the cache (a clone taken
/// before the hash, a payload rebuilt where it could be shared) moves a
/// count here instead of hiding in host-time noise.
#[test]
fn cold_digests_per_frame_are_exact() {
    use extmem_apps::scenario::Built;
    use extmem_apps::workload::SinkNode;
    use extmem_core::packet_buffer::PacketBufferProgram;
    use extmem_core::ShardedStateStoreProgram;
    use extmem_switch::SwitchNode;
    use extmem_types::Time;
    const FRAMES: u64 = 2_000;
    let run = |mut t: Built| {
        let span = CounterSpan::begin();
        t.sim.run_until(Time::from_millis(5));
        assert_eq!(t.sim.node::<SinkNode>(t.hosts[1]).received, FRAMES);
        (span.digests(), t)
    };

    // The frame as offered, its DSCP-rewritten self on the way out, the
    // bucket READ or hash-probe op, the response.
    for remote_ops in [false, true] {
        let (digests, _) = run(rigs::cuckoo_lookup(remote_ops, FRAMES));
        assert_eq!(digests, 4 * FRAMES, "lookup, remote ops {remote_ops}");
    }

    // A frame that goes straight out is hashed once; a detoured one adds
    // the WRITE, the READ, the response, and the frame lifted back out of
    // the response (new bytes as far as the cache can tell); and each ACK a
    // store asked for is one more.
    let (digests, t) = run(rigs::packet_buffer(FRAMES));
    let sw: &SwitchNode = t.sim.node(t.switch);
    let stats = sw.program::<PacketBufferProgram>().stats();
    let (stored, acks) = (stats.stored, stats.channel.acks);
    assert!(stored > FRAMES * 9 / 10, "the run must exercise the detour");
    assert!(
        acks < stored / 2,
        "a store asks for an ACK only when it must"
    );
    assert_eq!(
        digests,
        FRAMES + 4 * stored + acks,
        "packet buffer, {stored} stored, {acks} ACKs"
    );

    // The frame (forwarded untouched), the Fetch-and-Add, its atomic ACK;
    // the same pair again for each delta replayed to the mirror.
    let (digests, t) = run(rigs::replicated_fetch_and_add(FRAMES));
    let sw: &SwitchNode = t.sim.node(t.switch);
    let faa = sw.program::<ShardedStateStoreProgram>().engine(0).stats();
    let replayed = faa.pool.delta_replayed;
    assert!(replayed > 0, "the mirror must be fed");
    assert_eq!(
        digests,
        3 * FRAMES + 2 * replayed,
        "replicated fetch-and-add, {replayed} deltas replayed"
    );
}

#[test]
fn high_load_incast_is_deterministic_event_for_event() {
    // Two same-seed runs of the 8-sender line-rate incast (with the
    // remote-buffer detour engaged) must agree on every statistic,
    // including the total event and per-hop packet counts — the strongest
    // cheap proxy for "the schedules were identical".
    let cfg = || IncastConfig::small(Some(RemoteBufferSpec::default()));
    let r1 = run_incast(cfg());
    let r2 = run_incast(cfg());
    assert_eq!(r1.sent, r2.sent);
    assert_eq!(r1.delivered, r2.delivered);
    assert_eq!(r1.tm_drops, r2.tm_drops);
    assert_eq!(r1.reorders, r2.reorders);
    assert_eq!(r1.completion, r2.completion);
    assert_eq!(r1.peak_buffer, r2.peak_buffer);
    assert_eq!(r1.pb.stored, r2.pb.stored);
    assert_eq!(r1.pb.loaded, r2.pb.loaded);
    assert_eq!(
        r1.events, r2.events,
        "event counts diverged between same-seed runs"
    );
    assert_eq!(r1.hop_packets, r2.hop_packets);
    assert!(
        r1.events > 10_000,
        "incast should be a substantial run: {}",
        r1.events
    );
    assert_eq!(r1.delivered, r1.sent, "detour keeps the incast lossless");
}

#[test]
fn parallel_workers_report_their_payload_counts() {
    // The counters are per thread and the parallel backend runs every
    // partition on a worker: the driving thread must still see the whole
    // run's counts, equal to the sequential backend's.
    use extmem_sim::{with_sched_backend, SchedBackend};
    let counts = |backend| {
        with_sched_backend(backend, || {
            let span = CounterSpan::begin();
            let r = run_incast(IncastConfig::small(Some(RemoteBufferSpec::default())));
            assert_eq!(r.delivered, r.sent);
            (span.allocs(), span.cows(), span.digests())
        })
    };
    let wheel = counts(SchedBackend::Wheel);
    assert!(
        wheel.0 > 1_000,
        "the incast builds thousands of frames: {wheel:?}"
    );
    assert_eq!(counts(SchedBackend::Parallel(2)), wheel);
}

/// Nobody consumes a frame that dies on a drop path — the traffic manager's
/// tail drop, a faulty link's loss, a duplicate response the channel throws
/// away — so nobody could hand its buffer back; they used to leave the pool
/// one by one, and every drop past the pool's slack became a miss. Eight
/// flows at 40 Gbit/s into a 10 Gbit/s sink port behind a 16 KB switch
/// buffer (three frames in four are tail-dropped, and most Fetch-and-Add
/// requests with them), each counted, reliably, on a server behind a link
/// that loses 1 % of frames in either direction.
#[test]
fn frames_that_die_on_a_drop_path_return_to_the_pool() {
    use extmem_apps::scenario::{host_ip, host_mac, Testbed};
    use extmem_apps::workload::{FlowSet, SinkNode, WorkloadSpec};
    use extmem_core::faa::{FaaConfig, FaaEngine};
    use extmem_core::ShardedStateStoreProgram;
    use extmem_rnic::RnicConfig;
    use extmem_switch::{SwitchConfig, SwitchNode};
    use extmem_types::{ByteSize, FiveTuple, Rate, Time};

    const FRAMES: u64 = 40_000;
    let link = LinkSpec::testbed_40g();
    let flows = (0..8)
        .map(|i| FiveTuple::new(host_ip(0), host_ip(1), 5000 + i, 9000, 17))
        .collect();
    let mut tb = Testbed::new(29);
    tb.gen(
        WorkloadSpec {
            flows: FlowSet::List(flows),
            ..WorkloadSpec::simple(
                host_mac(0),
                host_mac(1),
                FiveTuple::new(0, 0, 0, 0, 0),
                512,
                Rate::from_gbps(40),
                FRAMES,
            )
        },
        link,
    );
    tb.sink(LinkSpec::new(Rate::from_gbps(10), link.propagation));
    let lossy = LinkSpec {
        faults: FaultSpec::drop(0.01),
        ..link
    };
    let (_, channel) = tb.server(RnicConfig::default(), ByteSize::from_bytes(4096), lossy);
    let engine = FaaEngine::new(
        channel,
        FaaConfig {
            reliable: true,
            ..FaaConfig::default()
        },
    );
    let shards = vec![(0, engine, true)];
    let prog = ShardedStateStoreProgram::new(tb.fib(), shards, 1, TimeDelta::from_micros(20));
    let config = SwitchConfig {
        buffer: ByteSize::from_kb(16),
        ..SwitchConfig::default()
    };
    let mut t = tb.build(config, Box::new(prog));

    // Warm up on the first half of the run, measure the second: the traffic
    // is the same throughout, so the pool has seen its high-water mark.
    let half = Rate::from_gbps(40).time_to_send(512 * FRAMES as usize / 2);
    t.sim.run_until(Time::ZERO + half);
    let tm_drops = t.sim.node::<SwitchNode>(t.switch).stats().tm_drops;
    let lost = |t: &extmem_apps::scenario::Built| {
        (0..2)
            .map(|end| t.sim.link_stats(t.links[2], end).dropped_packets)
            .sum::<u64>()
    };
    let link_drops = lost(&t);
    let misses = extmem_wire::pool::miss_count();
    t.sim
        .run_until(Time::ZERO + half + half + TimeDelta::from_micros(500));

    let tm_drops = t.sim.node::<SwitchNode>(t.switch).stats().tm_drops - tm_drops;
    let link_drops = lost(&t) - link_drops;
    let received = t.sim.node::<SinkNode>(t.hosts[1]).received;
    assert!(tm_drops > 5_000, "tail drops while measuring: {tm_drops}");
    assert!(link_drops > 10, "link losses while measuring: {link_drops}");
    assert!(received > 5_000 && received < FRAMES / 2, "{received}");
    assert_eq!(
        extmem_wire::pool::miss_count() - misses,
        0,
        "{tm_drops} tail drops and {link_drops} link losses took buffers out of the pool"
    );
}

/// A 4-leaf x 2-spine fabric in the shape of the benchmark's: every leaf
/// counts each frame it forwards with a Fetch-and-Add on its pod's memory
/// server, every pod's generator sends across a spine to the next pod's
/// sink. Driven in 100 us slices, so the parallel backend re-spawns its
/// workers dozens of times. Returns the trace digest, payload allocations,
/// frame-pool `(hits, misses)` and the parallel-engine counters.
fn sliced_fabric_run(
    backend: extmem_sim::SchedBackend,
) -> (u64, u64, (u64, u64), extmem_sim::ParStats) {
    use extmem_apps::scenario::{host_endpoint, host_ip, host_mac};
    use extmem_apps::workload::{SinkNode, TrafficGenNode, WorkloadSpec};
    use extmem_core::faa::{FaaConfig, FaaEngine};
    use extmem_core::ShardedStateStoreProgram;
    use extmem_core::{Fib, L2Program, RdmaChannel};
    use extmem_rnic::{RnicConfig, RnicNode};
    use extmem_sim::FabricSpec;
    use extmem_switch::{SwitchConfig, SwitchNode};
    use extmem_types::{ByteSize, FiveTuple, Rate, Time};
    use extmem_wire::pool;

    const LEAVES: usize = 4;
    const SPINES: usize = 2;
    const FRAMES: u64 = 8_000;
    // Per pod: generator, sink, memory server.
    let spec = FabricSpec::testbed(LEAVES, SPINES, 3);
    let host = |l: usize, i: usize| l * 3 + i;
    extmem_sim::with_sched_backend(backend, || {
        let mut nics: Vec<Option<RnicNode>> = Vec::new();
        let mut progs: Vec<Option<ShardedStateStoreProgram>> = Vec::new();
        for l in 0..LEAVES {
            let mut nic =
                RnicNode::new(format!("mem{l}"), RnicConfig::at(host_endpoint(host(l, 2))));
            let leaf = extmem_wire::roce::RoceEndpoint {
                mac: extmem_wire::MacAddr::local(200 + l as u32),
                ip: 0x0a00_0100 + l as u32,
            };
            let channel = RdmaChannel::setup(
                leaf,
                spec.host_port(2),
                &mut nic,
                ByteSize::from_bytes(64 * 8),
            );
            let next = (l + 1) % LEAVES;
            let mut fib = Fib::new(8);
            fib.install(host_mac(host(l, 1)), spec.host_port(1));
            fib.install(host_mac(host(next, 1)), spec.uplink_port(next % SPINES));
            let shards = vec![(0, FaaEngine::new(channel, FaaConfig::default()), true)];
            progs.push(Some(ShardedStateStoreProgram::new(
                fib,
                shards,
                1,
                TimeDelta::from_micros(20),
            )));
            nics.push(Some(nic));
        }
        let mut b = SimBuilder::new(29);
        let fabric = spec.build(
            &mut b,
            |l| {
                let prog = progs[l].take().expect("one program per leaf");
                Box::new(SwitchNode::new(
                    format!("leaf{l}"),
                    SwitchConfig::default(),
                    Box::new(prog),
                ))
            },
            |s| {
                let mut prog = L2Program::new(8);
                for l in 0..LEAVES {
                    prog.fib.install(host_mac(host(l, 1)), spec.spine_port(l));
                }
                Box::new(SwitchNode::new(
                    format!("spine{s}"),
                    SwitchConfig::default(),
                    Box::new(prog),
                ))
            },
            |l, i| -> Box<dyn Node> {
                let next = (l + 1) % LEAVES;
                match i {
                    0 => Box::new(TrafficGenNode::new(
                        format!("gen{l}"),
                        WorkloadSpec::simple(
                            host_mac(host(l, 0)),
                            host_mac(host(next, 1)),
                            FiveTuple::new(
                                host_ip(host(l, 0)),
                                host_ip(host(next, 1)),
                                7000,
                                9000,
                                17,
                            ),
                            256,
                            Rate::from_gbps(5),
                            FRAMES,
                        ),
                    )),
                    1 => Box::new(SinkNode::coarse(format!("sink{l}"))),
                    _ => Box::new(nics[l].take().expect("one server per pod")),
                }
            },
        );
        let mut sim = b.build();
        for l in 0..LEAVES {
            sim.schedule_timer(
                fabric.hosts[l][0],
                TimeDelta::ZERO,
                TrafficGenNode::KICK_TOKEN,
            );
        }
        // The cut follows pod boundaries: hosts stay with their leaf.
        for l in 0..LEAVES {
            for &h in &fabric.hosts[l] {
                assert_eq!(sim.partition_of(h), sim.partition_of(fabric.leaves[l]));
            }
        }

        let span = CounterSpan::begin();
        let (hits0, misses0) = (pool::hit_count(), pool::miss_count());
        // 8000 x 256 B at 5 G is 3.3 ms of sending; 4 ms lets it settle.
        for slice in 1..=40 {
            sim.run_until(Time::from_micros(100 * slice));
        }
        let pool = (pool::hit_count() - hits0, pool::miss_count() - misses0);
        for l in 0..LEAVES {
            assert_eq!(sim.node::<SinkNode>(fabric.hosts[l][1]).received, FRAMES);
            let leaf: &SwitchNode = sim.node(fabric.leaves[l]);
            assert!(leaf.program::<ShardedStateStoreProgram>().is_quiescent());
        }
        let par = sim.par_stats();
        if par.partitions > 1 {
            let share = par.max_partition_events as f64 / sim.events_processed() as f64;
            assert!(
                (0.45..=0.55).contains(&share),
                "partitions out of balance: {par:?}"
            );
            assert!(
                par.cross_messages > 0 && par.min_dispatch_margin_picos >= 1,
                "{par:?}"
            );
        }
        (sim.trace_digest(), span.allocs(), pool, par)
    })
}

#[test]
fn parallel_slices_keep_the_frame_pool_warm() {
    use extmem_sim::SchedBackend;
    // The sequential run goes first and leaves its buffers in this thread's
    // pool, which is where the parallel run's workers borrow theirs from.
    let (digest, allocs, (hits, misses), _) = sliced_fabric_run(SchedBackend::Wheel);
    assert!(
        hits + misses > 50_000,
        "every frame and every FaA is a take"
    );
    let (par_digest, par_allocs, (par_hits, par_misses), par) =
        sliced_fabric_run(SchedBackend::Parallel(2));
    assert_eq!(par.partitions, 2);
    assert_eq!(par_digest, digest);
    assert_eq!(
        par_allocs, allocs,
        "payload constructions are backend-invariant"
    );
    assert_eq!(
        par_hits + par_misses,
        hits + misses,
        "and so are pool takes"
    );
    // Forty generations of worker threads, one pool: workers that started
    // each slice cold would miss on every buffer in flight, forty times
    // over (a few hundred misses here) — the warm parallel run must not
    // even repeat the sequential run's cold start.
    let hit_rate = par_hits as f64 / (par_hits + par_misses) as f64;
    assert!(
        hit_rate >= 0.99 && par_misses <= misses,
        "frame-pool hit rate {hit_rate:.4}, {par_misses} misses (sequential, cold: {misses}) \
         under {par:?}"
    );
}
