//! `fabric_shard` / `fabric_shard_p2`: the sharded leaf–spine fabric.
//!
//! Four leaves × two spines, 38 nodes. Every leaf runs the consistent-hash
//! sharded state store over two active shards plus one spare, each shard a
//! 2-way replicated Fetch-and-Add pool on its own pair of memory servers.
//! Each pod's generator draws Zipf(1.05) from a 2^20-flow synthesized
//! population and sends 256 B frames across a spine to the next pod's sink
//! as a Poisson process averaging [`OFFERED_GBPS`] — 60 % of its 25 G
//! uplink, so more than half the frames queue there and the latency
//! percentiles depend on the arrival draws. Every leaf counts its own egress
//! and its neighbour's ingress. Halfway through the mean send time every
//! leaf activates its spare shard live. The run ends when every sink has its
//! frames and every leaf `is_settled()`; then both replicas of all twelve
//! shards must equal the routing oracle.
//!
//! A shard region is [`COUNTERS`] = 16 slots because a memory server's NIC
//! admits 16 atomics at once and a pool's anti-entropy flush replays every
//! dirty slot to the mirror in one go: with the 256 slots of
//! `simperf::fabric_shard` each flush overruns the mirror's NIC, the
//! overflow drops open PSN gaps, and go-back-N storms (3.7 retransmissions
//! per op, 78 % of requests dropped at the NICs) become most of the run at
//! any offered rate. With 16 slots no request is dropped or retransmitted —
//! the run checks that — and the primaries stay saturated, so most updates
//! merge into a pending accumulator as §4 describes.
//!
//! Most nodes and lanes of the five workloads, fewest RDMA ops per frame,
//! a callback every 200 ns of host time: the engine's own time is the
//! largest layer share here (about a third, ahead of `core`), and its cost
//! per event the highest. `fabric_shard_p2` runs the same inputs on the
//! two-thread conservative-sync backend; its simulated results and digest
//! must equal the sequential ones. Statistics start at t = 0, counters zero.

use super::{derive_seed, finish, fold_sink, scaled, timed, Run, Workload};
use crate::drive::run_until_done;
use crate::trace::{Layer, ProbeFactory, TraceReport, Traced, TracedProgram};
use extmem_apps::scenario::{host_endpoint, host_ip, host_mac};
use extmem_apps::workload::{Arrival, FlowPick, FlowSet, SinkNode, TrafficGenNode, WorkloadSpec};
use extmem_core::faa::{FaaConfig, FaaEngine};
use extmem_core::state_store::read_remote_counters;
use extmem_core::{Fib, L2Program, PoolConfig, RdmaChannel, ShardedStateStoreProgram};
use extmem_rnic::{RnicConfig, RnicNode};
use extmem_sim::{
    with_sched_backend, Fabric, FabricSpec, LinkSpec, Node, SchedBackend, SimBuilder, Simulator,
};
use extmem_switch::{SwitchConfig, SwitchNode};
use extmem_types::{ByteSize, LinkId, Rate, Rkey, Time, TimeDelta};

/// Frames each generator offers at full size.
pub const FRAMES_PER_GEN: u64 = 200_000;
/// Leaf switches (pods).
pub const LEAVES: usize = 4;
const SPINES: usize = 2;
const REPLICAS: usize = 2;
/// Shards per leaf, the last one the spare.
const SHARDS: u32 = 3;
const SPARE: u32 = SHARDS - 1;
/// Counter slots per shard region: what one NIC's atomic window admits.
const COUNTERS: u64 = 16;
/// Synthesized flows per generator (above the exact-CDF threshold, so the
/// constant-space Zipf sampler runs).
const FLOWS: usize = 1 << 20;
const FRAME_LEN: usize = 256;
const OFFERED_GBPS: u64 = 15;
/// gen, sink, then `SHARDS × REPLICAS` memory servers.
const HOSTS_PER_LEAF: usize = 2 + SHARDS as usize * REPLICAS;

type Leaf = Traced<SwitchNode>;
type LeafProgram = TracedProgram<ShardedStateStoreProgram>;
type Spine = Traced<SwitchNode>;
type SpineProgram = TracedProgram<L2Program>;

/// Global host index of host `i` on leaf `l` (MAC/IP assignment).
fn host(l: usize, i: usize) -> usize {
    l * HOSTS_PER_LEAF + i
}

/// Host index, within its pod, of replica `r` of `shard`.
fn server_host(shard: u32, r: usize) -> usize {
    2 + shard as usize * REPLICAS + r
}

/// A built fabric, ready to drive. The scheduler backend was fixed when the
/// simulator was built.
pub struct Topology {
    sim: Simulator,
    traced: bool,
    threads: usize,
    count: u64,
    fabric: Fabric,
    /// `[leaf][shard][replica]` → `(rkey, base_va)`.
    keys: Vec<Vec<Vec<(Rkey, u64)>>>,
}

pub fn build(seed: u64, scale: f64, traced: bool, threads: usize) -> Topology {
    with_sched_backend(SchedBackend::Parallel(threads), || {
        build_on_ambient_backend(seed, scale, traced, threads)
    })
}

fn build_on_ambient_backend(seed: u64, scale: f64, traced: bool, threads: usize) -> Topology {
    let count = scaled(FRAMES_PER_GEN, scale);
    let mut probes = ProbeFactory::new(traced);
    let region = region();
    let leaf_endpoint = |l: usize| extmem_wire::roce::RoceEndpoint {
        mac: extmem_wire::MacAddr::local(200 + l as u32),
        ip: 0x0a00_0100 + l as u32,
    };
    let spec = FabricSpec {
        leaves: LEAVES,
        spines: SPINES,
        hosts_per_leaf: HOSTS_PER_LEAF,
        host_link: LinkSpec::asymmetric(
            Rate::from_gbps(40),
            Rate::from_gbps(25),
            TimeDelta::from_nanos(300),
        ),
        up_link: LinkSpec::testbed_40g(),
    };

    // Pre-build every leaf's NICs, channels and program; the fabric
    // factories below take() them in pod order.
    let mut progs: Vec<Option<ShardedStateStoreProgram>> = Vec::new();
    let mut nics: Vec<Vec<Option<RnicNode>>> = Vec::new();
    let mut keys = Vec::new();
    for l in 0..LEAVES {
        let mut pod_nics: Vec<Option<RnicNode>> = vec![None, None];
        let mut shards = Vec::new();
        let mut pod_keys = Vec::new();
        for shard in 0..SHARDS {
            let mut channels = Vec::new();
            let mut shard_keys = Vec::new();
            for r in 0..REPLICAS {
                let host_i = server_host(shard, r);
                let mut nic = RnicNode::new(
                    format!("mem{l}s{shard}r{r}"),
                    RnicConfig::at(host_endpoint(host(l, host_i))),
                );
                let ch =
                    RdmaChannel::setup(leaf_endpoint(l), spec.host_port(host_i), &mut nic, region);
                shard_keys.push((ch.rkey, ch.base_va));
                channels.push(ch);
                pod_nics.push(Some(nic));
            }
            pod_keys.push(shard_keys);
            let engine = FaaEngine::replicated(
                channels,
                FaaConfig {
                    reliable: true,
                    rto: TimeDelta::from_micros(50),
                    ..Default::default()
                },
                PoolConfig::default(),
            );
            shards.push((shard, engine, shard != SPARE));
        }
        keys.push(pod_keys);
        let next = (l + 1) % LEAVES;
        let mut fib = Fib::new(8);
        fib.install(host_mac(host(l, 1)), spec.host_port(1));
        fib.install(host_mac(host(next, 1)), spec.uplink_port(next % SPINES));
        progs.push(Some(ShardedStateStoreProgram::new(
            fib,
            shards,
            64,
            TimeDelta::from_micros(20),
        )));
        nics.push(pod_nics);
    }

    // Each pod's flow population sits at a seed-dependent source prefix.
    let prefix = ((derive_seed(seed, 1) & 0xfff) as u32) << 12;
    let mut b = SimBuilder::new(derive_seed(seed, 2));
    let fabric = {
        // The three factories all draw probes; FabricSpec::build calls them
        // one at a time, so a RefCell shares the factory between them.
        let probes = std::cell::RefCell::new(&mut probes);
        spec.build(
            &mut b,
            |l| {
                let mut pf = probes.borrow_mut();
                let prog = progs[l].take().expect("leaf program built once");
                let probe = pf.probe(Layer::Core, &format!("leaf{l}/shards"));
                pf.node(
                    Layer::Switch,
                    SwitchNode::new(
                        format!("leaf{l}"),
                        SwitchConfig::default(),
                        Box::new(TracedProgram::new(prog, probe)),
                    ),
                )
            },
            |s| {
                let mut pf = probes.borrow_mut();
                let mut prog = L2Program::new(8);
                for j in 0..LEAVES {
                    prog.fib.install(host_mac(host(j, 1)), spec.spine_port(j));
                }
                let probe = pf.probe(Layer::Core, &format!("spine{s}/l2"));
                pf.node(
                    Layer::Switch,
                    SwitchNode::new(
                        format!("spine{s}"),
                        SwitchConfig::default(),
                        Box::new(TracedProgram::new(prog, probe)),
                    ),
                )
            },
            |l, i| -> Box<dyn Node> {
                let mut pf = probes.borrow_mut();
                match i {
                    0 => {
                        let next = (l + 1) % LEAVES;
                        let gen = TrafficGenNode::new(
                            format!("gen{l}"),
                            WorkloadSpec {
                                src_mac: host_mac(host(l, 0)),
                                dst_mac: host_mac(host(next, 1)),
                                flows: FlowSet::synth(
                                    FLOWS,
                                    0x0a80_0000 + prefix + ((l as u32) << 8),
                                    host_ip(host(next, 1)),
                                    9_000,
                                ),
                                pick: FlowPick::Zipf(1.05),
                                frame_len: FRAME_LEN,
                                offered: Some(Rate::from_gbps(OFFERED_GBPS)),
                                arrival: Arrival::Poisson,
                                count,
                                seed: derive_seed(seed, 16 + l as u64),
                                flow_id_base: (l as u32) << 24,
                            },
                        );
                        pf.node(Layer::Apps, gen)
                    }
                    1 => pf.node(Layer::Apps, SinkNode::coarse(format!("sink{l}"))),
                    _ => pf.node(
                        Layer::Rnic,
                        nics[l][i].take().expect("server NIC built once"),
                    ),
                }
            },
        )
    };

    let mut sim = b.build();
    for l in 0..LEAVES {
        sim.schedule_timer(
            fabric.hosts[l][0],
            TimeDelta::ZERO,
            TrafficGenNode::KICK_TOKEN,
        );
    }
    Topology {
        sim,
        traced,
        threads,
        count,
        fabric,
        keys,
    }
}

fn region() -> ByteSize {
    ByteSize::from_bytes(COUNTERS * 8)
}

impl Topology {
    pub fn run(self, workload: Workload, seed: u64) -> Run {
        let Topology {
            mut sim,
            traced,
            threads,
            count,
            fabric,
            keys,
        } = self;
        let send = Rate::from_gbps(OFFERED_GBPS).time_to_send(FRAME_LEN) * count;
        let half = Time::ZERO + TimeDelta::from_picos(send.picos() / 2);
        let cap = Time::ZERO + send * 10 + TimeDelta::from_millis(50);
        let slice = TimeDelta::from_micros(100);
        let leaves = fabric.leaves.clone();
        let sinks: Vec<_> = (0..LEAVES).map(|l| fabric.hosts[l][1]).collect();
        let mut moved = Vec::new();
        let (driven, timed) = timed(|| {
            run_until_done(&mut sim, slice, half, "the halfway mark", |s| {
                s.now() >= half
            })?;
            for &leaf in &leaves {
                moved.push(
                    sim.node_mut::<Leaf>(leaf)
                        .inner
                        .program_mut::<LeafProgram>()
                        .inner
                        .activate_shard(SPARE, 1 << 16),
                );
            }
            run_until_done(
                &mut sim,
                slice,
                cap,
                "every sink complete and every leaf settled",
                |s| {
                    sinks
                        .iter()
                        .all(|&k| s.node::<Traced<SinkNode>>(k).inner.received >= count)
                        && leaves.iter().all(|&leaf| {
                            s.node::<Leaf>(leaf)
                                .inner
                                .program::<LeafProgram>()
                                .inner
                                .is_settled()
                        })
                },
            )
        });

        // Memory-server links: FabricSpec::build connects pod-major, host links
        // first, so pod l's host i is link l * HOSTS_PER_LEAF + i.
        let mem_links: Vec<LinkId> = (0..LEAVES)
            .flat_map(|l| (2..HOSTS_PER_LEAF).map(move |i| LinkId(host(l, i) as u32)))
            .collect();
        let all_links = LEAVES * HOSTS_PER_LEAF + LEAVES * SPINES;
        let total = count * LEAVES as u64;
        let mut run = finish(workload, seed, total, timed, &sim, &mem_links, all_links);
        // `half` is reached on a slice boundary at or after it; reaching the cap
        // there means `half` itself, which is fine, so only phase 2 can fail.
        if let Err(e) = driven {
            run.failures.push(e.to_string());
        }

        let mut valid = 0;
        for (l, leaf_keys) in keys.iter().enumerate() {
            let sw = &sim.node::<Leaf>(fabric.leaves[l]).inner;
            let prog = &sw.program::<LeafProgram>().inner;
            run.counters.add_switch(sw.stats());
            run.counters.add_channel(prog.channel_rollup());
            // A replicated FaA reaches its mirror as a replayed delta, a
            // replicated WRITE as a fan-out copy; both are mirror traffic.
            let pool = prog.pool_rollup();
            run.counters.mirror_writes += pool.mirror_writes + pool.delta_replayed;
            let sink = &sim.node::<Traced<SinkNode>>(fabric.hosts[l][1]).inner;
            valid += fold_sink(&mut run, sink);

            run.check(prog.is_settled() && !prog.is_degraded(), || {
                format!("leaf {l}: not settled or degraded")
            });
            // Own egress plus the previous pod's ingress.
            run.check(prog.forwarded == 2 * count, || {
                format!("leaf {l}: forwarded {} of {}", prog.forwarded, 2 * count)
            });
            run.check(sink.received == count && sink.corrupt == 0, || {
                format!(
                    "leaf {l}: sink received {} (corrupt {})",
                    sink.received, sink.corrupt
                )
            });
            run.check(
                moved.get(l).is_some_and(|m| (0.15..=0.55).contains(m)),
                || {
                    format!(
                        "leaf {l}: rebalance moved {:?} of the key space, far from 1/3",
                        moved.get(l)
                    )
                },
            );
            let stats = prog.shard_stats();
            run.check(stats.iter().all(|s| s.active), || {
                format!("leaf {l}: inactive shard at end")
            });
            for s in &stats {
                run.counters.faa_updates += s.faa.updates;
                run.counters.faa_merged += s.faa.merged;
                if s.id == SPARE {
                    run.check(s.routed > 0 && s.routed < 2 * count, || {
                        format!("leaf {l}: spare routed {} of {}", s.routed, 2 * count)
                    });
                }
            }
            // Every shard's settled counters: exact against the routing oracle,
            // on both replicas, spare included.
            for shard in 0..SHARDS {
                let mut expected = vec![0u64; COUNTERS as usize];
                for (&(s, slot), &v) in &prog.oracle {
                    if s == shard {
                        expected[slot as usize] += v;
                    }
                }
                for (r, &(rkey, base_va)) in leaf_keys[shard as usize].iter().enumerate() {
                    let nic = &sim
                        .node::<Traced<RnicNode>>(fabric.hosts[l][server_host(shard, r)])
                        .inner;
                    let dump = read_remote_counters(nic, rkey, base_va, COUNTERS);
                    run.check(dump == expected, || {
                        format!(
                            "leaf {l} shard {shard} replica {r}: counters differ from the oracle"
                        )
                    });
                }
            }
            for i in 2..HOSTS_PER_LEAF {
                let nic = &sim.node::<Traced<RnicNode>>(fabric.hosts[l][i]).inner;
                run.counters.add_rnic(nic.stats());
            }
        }
        for &s in &fabric.spines {
            run.counters.add_switch(sim.node::<Spine>(s).inner.stats());
        }
        let (dropped, resent) = (run.counters.rnic_drops(), run.counters.retransmits);
        run.check(dropped == 0 && resent == 0, || {
            format!(
                "{dropped} requests dropped at the NICs, {resent} retransmitted, on lossless links"
            )
        });
        let cpu_packets = run.counters.rnic.cpu_packets;
        run.check(cpu_packets == 0, || {
            format!("{cpu_packets} packets reached a memory server's CPU")
        });
        let want_parts = threads.clamp(1, fabric.node_count());
        let parts = run.par.partitions;
        run.check(parts == want_parts, || {
            format!("{parts} partitions, asked for {want_parts}")
        });
        run.settle_frames_ok(valid);

        run.replay.region_bytes = region().bytes();
        run.replay.server_mac = Some(host_mac(host(0, server_host(0, 0))));
        run.replay.shard_ring = Some(
            sim.node::<Leaf>(fabric.leaves[0])
                .inner
                .program::<LeafProgram>()
                .inner
                .ring()
                .clone(),
        );
        if traced {
            let mut report = TraceReport::default();
            for l in 0..LEAVES {
                let sw = sim.node_mut::<Leaf>(fabric.leaves[l]);
                let prog = sw.inner.program_mut::<LeafProgram>().take_probe();
                report.push(sw.take_probe());
                report.push(prog);
                report.push(
                    sim.node_mut::<Traced<TrafficGenNode>>(fabric.hosts[l][0])
                        .take_probe(),
                );
                report.push(
                    sim.node_mut::<Traced<SinkNode>>(fabric.hosts[l][1])
                        .take_probe(),
                );
                for i in 2..HOSTS_PER_LEAF {
                    report.push(
                        sim.node_mut::<Traced<RnicNode>>(fabric.hosts[l][i])
                            .take_probe(),
                    );
                }
            }
            for &s in &fabric.spines {
                let sw = sim.node_mut::<Spine>(s);
                let prog = sw.inner.program_mut::<SpineProgram>().take_probe();
                report.push(sw.take_probe());
                report.push(prog);
            }
            run.trace = Some(report);
        }
        run
    }
}
