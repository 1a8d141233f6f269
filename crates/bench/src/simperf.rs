//! The fixed scenario library.
//!
//! Deterministic end-to-end scenarios, each run to completion under its own
//! correctness assertions and reported as `{name, events, packets, digest}`.
//! `sched_equivalence` replays them on every scheduler backend and
//! `wire_pin` pins their digests. Host-time performance is not measured
//! here; `BENCHMARK.json` / `crates/benchmark` is where that lives.
//!
//! * `e1_write_read_loop` — the §5 packet-buffer store/drain loop: every
//!   frame is encapsulated into an RDMA WRITE, ring-buffered on the memory
//!   server, then pulled back through the READ chain (detour path),
//! * `incast` — the §2.1 rescue: 8 line-rate senders into one drain port
//!   with the detour striped over 9 memory servers (forward + detour under
//!   congestion),
//! * `lookup_miss_storm` — the one-RTT cuckoo lookup with caching
//!   disabled: every packet pays exactly one filter-steered bucket READ
//!   (the direct-hash ablation survives as `lookup_miss_storm_direct`),
//! * `remote_ops` — the same miss storm with the `RemoteOps` knob on:
//!   every miss is one hash-probe-and-fetch op through the responder's op
//!   engine, on the one bucket the switch's filter names, asserted exact at
//!   1.0 RTTs-per-miss and one memory access per probe with zero punts and
//!   every request priced through the ext-op service model,
//! * `insert_churn` — live cuckoo inserts/deletes (scripted sliding
//!   window) under Zipf traffic: the relocation machinery's READ-verify +
//!   WRITE displacements on the same wire as the lookups, with the
//!   no-transient-miss invariant asserted (zero punts, reads-per-miss
//!   exactly 1.0),
//! * `faa_storm` — the §4 state-store primitive overdriven past the NIC's
//!   atomic rate: the outstanding-atomics cap plus local accumulation
//!   (merge/flush/ACK machinery) alongside line forwarding,
//! * `loss_sweep` — the packet-buffer detour over a lossy memory-server
//!   link at 0.1% and 1% drop: the reliability layer's timeout/retransmit/
//!   dedup machinery, with exact recovery asserted,
//! * `server_failover` — a replicated state store (primary + mirror)
//!   through a primary crash, failover, restart, and rejoin under
//!   live FaA load, with both replicas asserted bit-for-bit exact,
//! * `fabric_fanout`, `fabric_shard` — the multi-switch scenarios (ring of
//!   pods; sharded leaf–spine), built on `SimBuilder` / `FabricSpec`.

use crate::e1;
use crate::rigs::{
    cuckoo_storm, faa_store, failover_store, flows, lossy_detour, one_flow, paced, program,
    reliable_faa, sink, testbed_with_server,
};
use extmem_apps::incast::{run_incast, IncastConfig, RemoteBufferSpec};
use extmem_apps::scenario::{host_endpoint, host_ip, host_mac, Built};
use extmem_apps::workload::{Arrival, FlowPick, FlowSet, SinkNode, TrafficGenNode, WorkloadSpec};
use extmem_core::direct_table::{install_remote_action, DirectTableProgram};
use extmem_core::faa::{FaaConfig, FaaEngine};
use extmem_core::lookup::{
    install_cuckoo_image, ActionEntry, ChurnScript, ControlOp, LookupTableProgram,
};
use extmem_core::packet_buffer::PacketBufferProgram;
use extmem_core::shard::ShardedStateStoreProgram;
use extmem_core::state_store::read_remote_counters;
use extmem_core::{CuckooConfig, CuckooDirectory, Fib, L2Program, PoolConfig, RdmaChannel};
use extmem_rnic::{RnicConfig, RnicNode};
use extmem_sim::{with_sched_backend, FabricSpec, LinkSpec, SchedBackend, SimBuilder, Simulator};
use extmem_switch::switch::program_token;
use extmem_switch::{SwitchConfig, SwitchNode};
use extmem_types::{ByteSize, FiveTuple, PortId, Rate, Time, TimeDelta};

/// What one scenario run did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScenarioResult {
    /// Scenario name.
    pub name: &'static str,
    /// Simulator events processed.
    pub events: u64,
    /// Per-hop packet deliveries summed over every link.
    pub packets: u64,
    /// Trace digest of the run — a determinism fingerprint, identical for
    /// any scheduler backend and any machine (multi-sim scenarios fold the
    /// per-run digests).
    pub digest: u64,
}

impl ScenarioResult {
    fn of(name: &'static str, sim: &Simulator) -> ScenarioResult {
        ScenarioResult {
            name,
            events: sim.events_processed(),
            packets: sim.packets_delivered(),
            digest: sim.trace_digest(),
        }
    }
}

/// E1 write/read loop: store `count` 1500 B frames into the remote ring
/// (Manual mode), then drain them through the READ chain.
pub fn e1_write_read_loop(count: u64) -> ScenarioResult {
    let (tb, prog) = e1::rig(21, Rate::from_gbps(25), count);
    let mut t = tb.build(SwitchConfig::default(), Box::new(prog));
    e1::store_then_drain(&mut t, count);
    ScenarioResult::of("e1_write_read_loop", &t.sim)
}

/// The CI-scale incast with the default 9-server remote buffer.
pub fn incast_scenario() -> ScenarioResult {
    let res = run_incast(IncastConfig::small(Some(RemoteBufferSpec::default())));
    assert_eq!(res.delivered, res.sent, "remote buffer must stay lossless");
    ScenarioResult {
        name: "incast",
        events: res.events,
        packets: res.hop_packets,
        digest: res.trace_digest,
    }
}

/// The cuckoo scenarios' storm: 256 installed flows at 5 Gbps, seed 31.
fn storm_256(count: u64, remote_ops: bool) -> Built {
    let cfg = CuckooConfig::for_capacity(256);
    cuckoo_storm(31, cfg, 256, Rate::from_gbps(5), count, remote_ops).0
}

/// Lookup-miss storm on the one-RTT cuckoo table: 256 installed flows, caching
/// disabled, every packet pays exactly one bucket READ (the filter steers
/// each probe to the bucket its key lives in). The run asserts the tentpole
/// metric — one READ response per miss with zero slow-path punts.
pub fn lookup_miss_storm(count: u64) -> ScenarioResult {
    let t = storm_256(count, false);
    let stats = program::<LookupTableProgram>(&t).stats();
    assert_eq!(
        stats.remote_lookups, count,
        "every packet must take the remote path"
    );
    assert_eq!(
        stats.slow_path, 0,
        "no punts from the cuckoo table: {stats:?}"
    );
    assert_eq!(
        stats.bucket_misses, 0,
        "filter misdirected a probe: {stats:?}"
    );
    assert_eq!(
        stats.reads_per_lookup(),
        Some(1.0),
        "the one-RTT property: exactly one READ per miss: {stats:?}"
    );
    ScenarioResult::of("lookup_miss_storm", &t.sim)
}

/// The paper's §4 table (`DirectTableProgram`: one flow hashed straight to
/// its slot, the packet bounced through it; no filter, no relocation). Its
/// digest pins that wire format and the backend-equivalence suite replays
/// it.
pub fn lookup_miss_storm_direct(count: u64) -> ScenarioResult {
    let spec = one_flow(40_000, 80, 256, Rate::from_gbps(5), count);
    let flow = spec.flows.get(0);
    let region = ByteSize::from_bytes(4096 * 2048);
    let (mut tb, channel) = testbed_with_server(31, spec, LinkSpec::testbed_40g(), region, 0.0);
    install_remote_action(
        tb.nic_mut(0),
        &channel,
        2048,
        &flow,
        ActionEntry::set_dscp(46),
    );
    let prog = DirectTableProgram::new(tb.fib(), channel, 2048, None);
    let mut t = tb.build(SwitchConfig::default(), Box::new(prog));
    t.sim.run_to_quiescence();
    assert_eq!(
        program::<DirectTableProgram>(&t).stats().remote_lookups,
        count,
        "every packet must take the remote path"
    );
    ScenarioResult::of("lookup_miss_storm_direct", &t.sim)
}

/// The remote-op ISA leg of the miss storm: identical traffic and table to
/// [`lookup_miss_storm`], but with the `RemoteOps` knob on — every miss
/// issues one hash-probe-and-fetch op over the slots of the bucket the
/// filter names whose fingerprint matches, which the responder's op engine
/// resolves in one memory access and one exchange.
pub fn remote_ops(count: u64) -> ScenarioResult {
    let t = storm_256(count, true);
    let stats = program::<LookupTableProgram>(&t).stats();
    assert_eq!(
        stats.remote_lookups, count,
        "every packet must take the remote path"
    );
    assert_eq!(stats.slow_path, 0, "no punts in remote-ops mode: {stats:?}");
    assert_eq!(
        stats.rtts_per_miss(),
        Some(1.0),
        "one op exchange per miss: {stats:?}"
    );
    assert_eq!(
        stats.reads_per_lookup(),
        Some(1.0),
        "one response per miss: {stats:?}"
    );
    let nic_stats = t.sim.node::<RnicNode>(t.servers[0]).stats();
    assert_eq!(
        (nic_stats.ext_op_steps, nic_stats.ext_ops),
        (count, count),
        "every miss must run in the op engine, one access per probe"
    );
    assert_eq!(nic_stats.cpu_packets, 0, "ops must bypass the server CPU");
    ScenarioResult::of("remote_ops", &t.sim)
}

/// Insert churn: live table churn under Zipf traffic. 140 resident flows
/// carry the load while a scripted sequence inserts and deletes 96 disjoint
/// keys (sliding window of 8) through the relocation machinery — every
/// displacement is a READ-verify + WRITE on the same wire as the lookups.
/// The run asserts the no-transient-miss invariant end to end: zero punts,
/// reads-per-miss exactly 1.0 throughout the storm, and the remote region
/// bit-for-bit equal to the directory image afterwards.
pub fn insert_churn(count: u64) -> ScenarioResult {
    const DSCP: u8 = 46;
    const TRAFFIC_KEYS: u16 = 140;
    const CHURN_KEYS: u16 = 96;
    const WINDOW: usize = 8;
    // 64 buckets = 256 slots: ~58% peak load, enough pressure that inserts
    // regularly land in full primary buckets and relocate residents.
    let cfg = CuckooConfig {
        buckets: 64,
        filter_cells: 2048,
        filter_hashes: 2,
        max_plan_steps: 64,
    };
    let mut dir = CuckooDirectory::new(cfg);
    let resident = flows(TRAFFIC_KEYS, 40_000, 80);
    for f in &resident {
        dir.install(*f, ActionEntry::set_dscp(DSCP))
            .expect("pre-population fits");
    }
    let churn_keys = flows(CHURN_KEYS, 50_000, 80);
    let mut ops = Vec::new();
    for (i, k) in churn_keys.iter().enumerate() {
        ops.push(ControlOp::Insert(*k, ActionEntry::set_dscp(12)));
        if i >= WINDOW {
            ops.push(ControlOp::Remove(churn_keys[i - WINDOW]));
        }
    }
    for k in &churn_keys[CHURN_KEYS as usize - WINDOW..] {
        ops.push(ControlOp::Remove(*k));
    }
    let script = ChurnScript {
        ops,
        period: TimeDelta::from_micros(2),
    };

    let spec = paced(
        resident,
        FlowPick::Zipf(1.1),
        256,
        Rate::from_gbps(5),
        count,
        13,
    );
    let region = ByteSize::from_bytes(dir.region_bytes());
    let (mut tb, channel) = testbed_with_server(37, spec, LinkSpec::testbed_40g(), region, 0.0);
    let (rkey, base_va) = (channel.rkey, channel.base_va);
    install_cuckoo_image(tb.nic_mut(0), &channel, &dir);
    let prog = LookupTableProgram::cuckoo(tb.fib(), channel, dir, None).with_churn(script);
    let mut t = tb.build(SwitchConfig::default(), Box::new(prog));
    t.sim.schedule_timer(
        t.switch,
        TimeDelta::from_micros(5),
        program_token(extmem_core::lookup::TOKEN_CHURN),
    );
    t.sim.run_to_quiescence();

    let prog = program::<LookupTableProgram>(&t);
    let stats = prog.stats();
    assert_eq!(sink(&t).received, count, "forward path lost frames");
    assert_eq!(stats.remote_lookups, count, "cacheless: all remote");
    assert_eq!(stats.slow_path, 0, "transient miss punted: {stats:?}");
    assert_eq!(
        stats.bucket_misses, 0,
        "filter misdirected a probe: {stats:?}"
    );
    assert_eq!(
        stats.reads_per_lookup(),
        Some(1.0),
        "one READ per miss: {stats:?}"
    );
    assert!(
        stats.relocation_moves > 0,
        "churn never displaced a resident: {stats:?}"
    );
    assert_eq!(
        stats.inserts_rejected, 0,
        "table full mid-script: {stats:?}"
    );
    assert_eq!(stats.inserts_applied, CHURN_KEYS as u64, "{stats:?}");
    assert_eq!(stats.removes_applied, CHURN_KEYS as u64, "{stats:?}");
    assert_eq!(stats.verify_mismatches, 0, "directory drifted: {stats:?}");
    assert!(prog.relocation_idle(), "relocation work leaked: {stats:?}");
    let dir = prog.directory();
    let image = dir.encode_region();
    let remote = t
        .sim
        .node::<RnicNode>(t.servers[0])
        .region(rkey)
        .and_then(|region| region.read(base_va, image.len() as u64))
        .expect("region in bounds");
    assert_eq!(remote, &image[..], "remote region diverged from directory");
    ScenarioResult::of("insert_churn", &t.sim)
}

/// Fetch-and-Add storm: 16 UDP flows at 10 G into the state-store primitive
/// (§4). The offered ~4.9 M updates/s exceed the NIC's 1.7 M atomics/s, so
/// the outstanding-atomics cap forces local accumulation and the engine's
/// merge/flush machinery runs hot alongside forwarding.
pub fn faa_storm(count: u64) -> ScenarioResult {
    let sixteen = flows(16, 40_000, 9_000);
    let spec = paced(
        sixteen,
        FlowPick::RoundRobin,
        256,
        Rate::from_gbps(10),
        count,
        5,
    );
    // The send time at the offered rate plus a generous settle window.
    let send_time = TimeDelta::from_secs_f64(count as f64 * 256.0 * 8.0 / 10e9);
    let (t, remote) = faa_store(
        41,
        spec,
        4096,
        0.0,
        FaaConfig::default(),
        TimeDelta::from_micros(20),
        Time::ZERO + send_time + TimeDelta::from_millis(5),
    );

    let prog = program::<ShardedStateStoreProgram>(&t);
    assert_eq!(
        prog.forwarded, count,
        "telemetry must not cost forwarded packets"
    );
    assert!(prog.is_quiescent(), "updates still pending at the deadline");
    let stats = prog.engine(0).stats();
    assert_eq!(stats.updates, count);
    assert!(
        stats.merged > 0,
        "storm must overrun the atomic rate and accumulate: {stats:?}"
    );
    assert_eq!(
        t.sim
            .node::<RnicNode>(t.servers[0])
            .stats()
            .atomic_overflow_drops,
        0,
        "outstanding cap must protect the NIC"
    );
    assert_eq!(
        remote.iter().sum::<u64>(),
        count,
        "settled counters must be exact"
    );
    ScenarioResult::of("faa_storm", &t.sim)
}

/// Loss sweep: the packet-buffer detour over a lossy memory-server link at
/// 0.1% and 1% drop, reliable mode. Every drop costs a timeout + go-back-N
/// retransmission (outstanding-op tracking, PSN serial arithmetic, dedup).
/// Each loss point must still recover *exactly* — no lost ring entries, no
/// failover — or the run asserts.
pub fn loss_sweep(count: u64) -> ScenarioResult {
    let (mut events, mut packets, mut digest) = (0u64, 0u64, 0u64);
    for (i, &loss) in [0.001f64, 0.01].iter().enumerate() {
        let t = lossy_detour(61 + i as u64, count, 816, loss, TimeDelta::from_millis(10));
        let s = program::<PacketBufferProgram>(&t).stats();
        assert!(s.stored > 0, "loss={loss}: the detour was never exercised");
        assert!(
            s.channel.retransmits > 0,
            "loss={loss}: loss never bit: {s:?}"
        );
        assert!(!s.channel.failed_over, "loss={loss}: failed over: {s:?}");
        assert_eq!(s.lost_entries, 0, "loss={loss}: lost ring entries: {s:?}");
        assert_eq!(s.loaded, s.stored, "loss={loss}: ring did not drain: {s:?}");
        assert_eq!(
            sink(&t).received,
            count,
            "loss={loss}: recovery must be exact"
        );
        events += t.sim.events_processed();
        packets += t.sim.packets_delivered();
        digest = digest.rotate_left(17) ^ t.sim.trace_digest();
    }
    ScenarioResult {
        name: "loss_sweep",
        events,
        packets,
        digest,
    }
}

/// Server failover: a replicated state store (primary + mirror) driven
/// through a primary crash, failover, restart, and rejoin while the FaA
/// workload keeps flowing: the retry-cap write-off, dirty words per server,
/// anti-entropy and catch-up WRITEs, probes. The run
/// asserts exact settled counters on *both* replicas.
pub fn server_failover(count: u64) -> ScenarioResult {
    let (t, [dump_a, dump_b]) = failover_store(71, 512, count, Some(0), true, false);
    let prog = program::<ShardedStateStoreProgram>(&t);
    let stats = prog.engine(0).stats();
    assert!(prog.is_quiescent(), "stuck window: {stats:?}");
    assert!(
        !prog.is_degraded(),
        "pool must survive the crash: {stats:?}"
    );
    assert!(stats.pool.failovers >= 1, "no failover: {stats:?}");
    assert!(stats.pool.rejoins >= 1, "no rejoin: {stats:?}");
    let truth: u64 = prog.oracle.values().sum();
    assert_eq!(truth, count);
    let total_b: u64 = dump_b.iter().sum();
    assert_eq!(total_b, truth, "survivor lost counts");
    assert_eq!(dump_a, dump_b, "rejoined replica diverges");
    ScenarioResult::of("server_failover", &t.sim)
}

/// Switch `i` of a multi-switch scenario speaks RoCE to its local servers
/// under its own identity (the shared `switch_endpoint` would alias across
/// pods).
fn fabric_switch_endpoint(i: usize) -> extmem_wire::roce::RoceEndpoint {
    extmem_wire::roce::RoceEndpoint {
        mac: extmem_wire::MacAddr::local(200 + i as u32),
        ip: 0x0a00_0100 + i as u32,
    }
}

/// Fabric fan-out: the parallel-backend workhorse. Eight pods — each a ToR
/// switch running the §4 state-store primitive against its own local
/// memory server, fed by a local-traffic generator and a cross-traffic
/// generator — joined in a ring of 300 ns switch-to-switch links. Cross
/// traffic from pod `p` is forwarded over the ring and delivered to pod
/// `p+1`'s sink, so every ring link carries live load in one direction
/// while FaA updates and ACKs keep each pod's local links busy.
///
/// The shape is deliberate: every host hangs off its pod's switch by a
/// single link, so the engine's partitioner puts whole pods on workers (at
/// 4 threads, two pods each; at 8, one each) and only the 300 ns ring
/// links cross partitions — exactly the positive-lookahead regime the conservative
/// sync needs. `threads` selects [`SchedBackend::Parallel`]; the trace
/// digest is bit-identical for every thread count (the equivalence suite
/// and the `fabric_fanout_digest_invariant_across_threads` test hold this
/// line).
///
/// Correctness gates on every run: per-pod settled counters must equal the
/// pod's oracle exactly (reliable FaA), every sink must see both its local
/// and its ring flow in full, and no pod may degrade.
pub fn fabric_fanout(count: u64, threads: usize) -> ScenarioResult {
    const PODS: usize = 8;
    with_sched_backend(SchedBackend::Parallel(threads), || {
        let counters = 256u64;
        let region = ByteSize::from_bytes(counters * 8);
        // Host index plan, 4 per pod: gen_local, sink, memsrv, gen_cross.
        let gen_local_host = |p: usize| p * 4;
        let sink_host = |p: usize| p * 4 + 1;
        let memsrv_host = |p: usize| p * 4 + 2;
        let gen_cross_host = |p: usize| p * 4 + 3;

        let mut b = SimBuilder::new(97);
        let link = LinkSpec::testbed_40g();
        let mut switches = Vec::new();
        let mut gens = Vec::new();
        let mut sinks = Vec::new();
        let mut servers = Vec::new();
        let mut keys = Vec::new();
        for p in 0..PODS {
            let next = (p + 1) % PODS;
            let mut nic = RnicNode::new(
                format!("memsrv{p}"),
                RnicConfig::at(host_endpoint(memsrv_host(p))),
            );
            let channel =
                RdmaChannel::setup(fabric_switch_endpoint(p), PortId(2), &mut nic, region);
            keys.push((channel.rkey, channel.base_va));
            let mut fib = Fib::new(8);
            fib.install(host_mac(sink_host(p)), PortId(1));
            fib.install(host_mac(sink_host(next)), PortId(4));
            let shards = vec![(0, FaaEngine::new(channel, reliable_faa(50)), true)];
            let prog = ShardedStateStoreProgram::new(fib, shards, 1, TimeDelta::from_micros(20));
            let switch = b.add_node(Box::new(SwitchNode::new(
                format!("tor{p}"),
                SwitchConfig::default(),
                Box::new(prog),
            )));
            // Local traffic stays in the pod; cross traffic takes the ring to
            // the next pod's sink.
            let [gen_local, gen_cross] = [
                ("local", gen_local_host(p), sink_host(p), 40_000),
                ("cross", gen_cross_host(p), sink_host(next), 41_000),
            ]
            .map(|(name, from, to, sport)| {
                let flow = FiveTuple::new(host_ip(from), host_ip(to), sport + p as u16, 9_000, 17);
                let (src, dst) = (host_mac(from), host_mac(to));
                let spec = WorkloadSpec::simple(src, dst, flow, 256, Rate::from_gbps(5), count);
                b.add_node(Box::new(TrafficGenNode::new(format!("{name}{p}"), spec)))
            });
            let sink = b.add_node(Box::new(SinkNode::new(format!("sink{p}"))));
            let server = b.add_node(Box::new(nic));
            b.connect(switch, PortId(0), gen_local, PortId(0), link);
            b.connect(switch, PortId(1), sink, PortId(0), link);
            b.connect(switch, PortId(2), server, PortId(0), link);
            b.connect(switch, PortId(3), gen_cross, PortId(0), link);
            switches.push(switch);
            gens.push(gen_local);
            gens.push(gen_cross);
            sinks.push(sink);
            servers.push(server);
        }
        // The ring: pod p's port 4 feeds pod p+1's port 5. 300 ns of
        // propagation per hop is the parallel engine's lookahead.
        for p in 0..PODS {
            b.connect(
                switches[p],
                PortId(4),
                switches[(p + 1) % PODS],
                PortId(5),
                link,
            );
        }

        let mut sim = b.build();
        for &g in &gens {
            sim.schedule_timer(g, TimeDelta::ZERO, TrafficGenNode::KICK_TOKEN);
        }
        // 5 Gbps × 256 B paced sends, then a settle window for the
        // reliability layer; the flush tick re-arms forever, so drive to a
        // fixed deadline like `faa_storm`.
        let send_time = TimeDelta::from_secs_f64(count as f64 * 256.0 * 8.0 / 5e9);
        let deadline = Time::ZERO + send_time + TimeDelta::from_millis(5);
        sim.run_until(deadline);
        for p in 0..PODS {
            let sw: &SwitchNode = sim.node::<SwitchNode>(switches[p]);
            let prog = sw.program::<ShardedStateStoreProgram>();
            let stats = prog.engine(0).stats();
            assert!(prog.is_quiescent(), "pod {p}: stuck window: {stats:?}");
            assert!(!prog.is_degraded(), "pod {p}: pool degraded: {stats:?}");
            // Local + locally injected cross + ring arrivals from p-1.
            assert_eq!(prog.forwarded, 3 * count, "pod {p}: forwarding lost frames");
            assert_eq!(
                sim.node::<SinkNode>(sinks[p]).received,
                2 * count,
                "pod {p}: sink must see its local and its ring flow"
            );
            let (rkey, base_va) = keys[p];
            let dump =
                read_remote_counters(sim.node::<RnicNode>(servers[p]), rkey, base_va, counters);
            let mut expected = vec![0u64; counters as usize];
            for (&(_, slot), &v) in &prog.oracle {
                expected[slot as usize] += v;
            }
            assert_eq!(dump, expected, "pod {p}: settled counters must be exact");
        }
        let par = sim.par_stats();
        assert_eq!(
            par.partitions,
            threads.clamp(1, PODS * 5),
            "builder must honor the requested thread count"
        );
        // While there are pods enough to go round, every pod keeps its
        // hosts and only ring links are cut; with more than one partition
        // at least one always is, and its traffic crosses.
        for p in (0..PODS).filter(|_| par.partitions <= PODS) {
            let pod = sim.partition_of(switches[p]);
            for host in [gens[2 * p], gens[2 * p + 1], sinks[p], servers[p]] {
                assert_eq!(sim.partition_of(host), pod, "pod {p} split from a host");
            }
        }
        let ring_cut = (0..PODS)
            .any(|p| sim.partition_of(switches[p]) != sim.partition_of(switches[(p + 1) % PODS]));
        assert_eq!(ring_cut, par.partitions > 1, "{par:?}");
        if ring_cut {
            assert!(
                par.cross_messages > 0,
                "ring traffic must cross partitions: {par:?}"
            );
            assert!(
                par.min_dispatch_margin_picos >= 1,
                "lookahead safety margin collapsed: {par:?}"
            );
        }
        ScenarioResult::of("fabric_fanout", &sim)
    })
}

/// Leaf switches in the [`fabric_shard`] scenario.
const SHARD_LEAVES: usize = 4;
/// Spine switches in the [`fabric_shard`] scenario.
const SHARD_SPINES: usize = 2;
/// Replicated servers per shard.
const SHARD_REPLICAS: usize = 2;
/// Counter slots per shard region.
const SHARD_COUNTERS: u64 = 256;
/// Synthesized flow population per generator (above the exact-CDF
/// threshold, so the constant-space Zipf sampler is on the pinned path).
const SHARD_FLOWS: usize = 1 << 20;
/// Shard id of each leaf's spare (activated mid-run).
const SPARE_SHARD: u32 = 2;

/// Hosts per leaf in [`fabric_shard`]: gen, sink, and 3 shards × 2
/// replica servers (shard 2 is the spare).
const SHARD_HOSTS_PER_LEAF: usize = 2 + 3 * SHARD_REPLICAS;

/// Global host index of host `i` on leaf `l` (MAC/IP assignment).
fn shard_host(l: usize, i: usize) -> usize {
    l * SHARD_HOSTS_PER_LEAF + i
}

/// Sharded leaf–spine fabric: the E6 capacity-expansion claim at fleet
/// shape. Four leaf switches (pods) each run the consistent-hash
/// [`ShardedStateStoreProgram`] over two active shards plus one spare,
/// every shard a 2-way [`extmem_core::pool::ReplicatedPool`]; two spines
/// join the pods. Each pod's generator sends Zipf-skewed traffic drawn
/// from a 2^20-flow synthesized population (the constant-space sampler —
/// no materialized flow vector anywhere) across the spine to the next
/// pod's sink, so every leaf counts its own egress and its neighbor's
/// ingress while FaA updates fan out to its local shard replicas. Host
/// links are asymmetric (40 G down / 25 G up) to keep the per-direction
/// fabric path priced.
///
/// Halfway through the send window every leaf activates its spare shard
/// live — the consistent-hash ring moves ≈1/3 of the key space onto it
/// (asserted within a band) without stopping traffic, and the per-shard
/// oracle stays exact because updates are attributed to the shard that
/// actually received them.
///
/// Correctness gates on every run: every pod quiescent and undegraded,
/// exact sink counts, per-(shard, slot) settled counters equal to the
/// oracle on *both* replicas of all twelve shards, and the rebalance
/// fraction in band. The digest is bit-identical across Wheel, Heap and
/// Parallel(1/2/4) — `sched_equivalence` holds the line, mid-run
/// mutation included.
pub fn fabric_shard(count: u64, threads: usize) -> ScenarioResult {
    with_sched_backend(SchedBackend::Parallel(threads), || {
        let region = ByteSize::from_bytes(SHARD_COUNTERS * 8);
        let spec = FabricSpec {
            leaves: SHARD_LEAVES,
            spines: SHARD_SPINES,
            hosts_per_leaf: SHARD_HOSTS_PER_LEAF,
            host_link: LinkSpec::asymmetric(
                Rate::from_gbps(40),
                Rate::from_gbps(25),
                TimeDelta::from_nanos(300),
            ),
            up_link: LinkSpec::testbed_40g(),
        };

        // Pre-build every leaf's NICs, channels and program: the fabric
        // factories below just take() them in pod order.
        let mut progs: Vec<Option<ShardedStateStoreProgram>> = Vec::new();
        let mut nics: Vec<Vec<Option<RnicNode>>> = Vec::new();
        let mut keys = Vec::new(); // [leaf][shard][replica] -> (rkey, base_va)
        for l in 0..SHARD_LEAVES {
            let mut pod_nics: Vec<Option<RnicNode>> = vec![None, None];
            let mut shards = Vec::new();
            let mut pod_keys = Vec::new();
            for shard in 0..3u32 {
                let mut channels = Vec::new();
                let mut shard_keys = Vec::new();
                for r in 0..SHARD_REPLICAS {
                    let host_i = 2 + shard as usize * SHARD_REPLICAS + r;
                    let mut nic = RnicNode::new(
                        format!("mem{l}s{shard}r{r}"),
                        RnicConfig::at(host_endpoint(shard_host(l, host_i))),
                    );
                    let ch = RdmaChannel::setup(
                        fabric_switch_endpoint(l),
                        spec.host_port(host_i),
                        &mut nic,
                        region,
                    );
                    shard_keys.push((ch.rkey, ch.base_va));
                    channels.push(ch);
                    pod_nics.push(Some(nic));
                }
                pod_keys.push(shard_keys);
                let engine =
                    FaaEngine::replicated(channels, reliable_faa(50), PoolConfig::default());
                shards.push((shard, engine, shard != SPARE_SHARD));
            }
            keys.push(pod_keys);
            let next = (l + 1) % SHARD_LEAVES;
            let mut fib = Fib::new(8);
            fib.install(host_mac(shard_host(l, 1)), spec.host_port(1));
            fib.install(
                host_mac(shard_host(next, 1)),
                spec.uplink_port(next % SHARD_SPINES),
            );
            progs.push(Some(ShardedStateStoreProgram::new(
                fib,
                shards,
                64,
                TimeDelta::from_micros(20),
            )));
            nics.push(pod_nics);
        }

        let mut b = SimBuilder::new(113);
        let fabric = spec.build(
            &mut b,
            |l| {
                Box::new(SwitchNode::new(
                    format!("leaf{l}"),
                    SwitchConfig::default(),
                    Box::new(progs[l].take().expect("leaf program built once")),
                ))
            },
            |s| {
                let mut fib = Fib::new(8);
                for j in 0..SHARD_LEAVES {
                    fib.install(host_mac(shard_host(j, 1)), FabricSpec::spine_port(&spec, j));
                }
                let mut prog = L2Program::new(8);
                prog.fib = fib;
                Box::new(SwitchNode::new(
                    format!("spine{s}"),
                    SwitchConfig::default(),
                    Box::new(prog),
                ))
            },
            |l, i| match i {
                0 => {
                    let next = (l + 1) % SHARD_LEAVES;
                    Box::new(TrafficGenNode::new(
                        format!("gen{l}"),
                        WorkloadSpec {
                            src_mac: host_mac(shard_host(l, 0)),
                            dst_mac: host_mac(shard_host(next, 1)),
                            flows: FlowSet::synth(
                                SHARD_FLOWS,
                                0x0a80_0000 + ((l as u32) << 8),
                                host_ip(shard_host(next, 1)),
                                9_000,
                            ),
                            pick: FlowPick::Zipf(1.05),
                            frame_len: 256,
                            offered: Some(Rate::from_gbps(5)),
                            arrival: Arrival::Paced,
                            count,
                            seed: 23 + l as u64,
                            flow_id_base: (l as u32) << 24,
                        },
                    )) as Box<dyn extmem_sim::Node>
                }
                1 => Box::new(SinkNode::coarse(format!("sink{l}"))),
                _ => Box::new(nics[l][i].take().expect("server NIC built once")),
            },
        );

        let mut sim = b.build();
        for l in 0..SHARD_LEAVES {
            sim.schedule_timer(
                fabric.hosts[l][0],
                TimeDelta::ZERO,
                TrafficGenNode::KICK_TOKEN,
            );
        }

        // 5 Gbps × 256 B paced sends; spares activate at the halfway mark,
        // then the run settles well past the last send.
        let send_time = TimeDelta::from_secs_f64(count as f64 * 256.0 * 8.0 / 5e9);
        let half = Time::ZERO + TimeDelta::from_picos(send_time.picos() / 2);
        let deadline = Time::ZERO + send_time + TimeDelta::from_millis(5);
        sim.run_until(half);
        for (l, &leaf) in fabric.leaves.iter().enumerate() {
            let sw = sim.node_mut::<SwitchNode>(leaf);
            let moved = sw
                .program_mut::<ShardedStateStoreProgram>()
                .activate_shard(SPARE_SHARD, 1 << 16);
            // Ideal movement onto the third shard is 1/3 of the key
            // space; vnode placement noise allows a band.
            assert!(
                (0.15..=0.55).contains(&moved),
                "leaf {l}: rebalance moved {moved}, far from 1/3"
            );
        }
        sim.run_until(deadline);

        for (l, leaf_keys) in keys.iter().enumerate() {
            let sw: &SwitchNode = sim.node::<SwitchNode>(fabric.leaves[l]);
            let prog = sw.program::<ShardedStateStoreProgram>();
            assert!(prog.is_quiescent(), "leaf {l}: stuck window");
            assert!(!prog.is_degraded(), "leaf {l}: pool degraded");
            // Own egress plus the previous pod's ingress.
            assert_eq!(
                prog.forwarded,
                2 * count,
                "leaf {l}: forwarding lost frames"
            );
            assert_eq!(prog.capacity_slots(), 3 * SHARD_COUNTERS);
            let sink = sim.node::<SinkNode>(fabric.hosts[l][1]);
            assert_eq!(sink.received, count, "leaf {l}: sink short");
            assert!(sink.flows.is_empty(), "coarse sink tracked flows");
            // Every shard's settled counters — exact against the routing
            // oracle, on both replicas, spare included.
            for shard in 0..3u32 {
                let mut expected = vec![0u64; SHARD_COUNTERS as usize];
                for (&(s, slot), &v) in &prog.oracle {
                    if s == shard {
                        expected[slot as usize] += v;
                    }
                }
                let dumps: Vec<Vec<u64>> = (0..SHARD_REPLICAS)
                    .map(|rep| {
                        let host_i = 2 + shard as usize * SHARD_REPLICAS + rep;
                        let (rkey, base_va) = leaf_keys[shard as usize][rep];
                        read_remote_counters(
                            sim.node::<RnicNode>(fabric.hosts[l][host_i]),
                            rkey,
                            base_va,
                            SHARD_COUNTERS,
                        )
                    })
                    .collect();
                assert_eq!(
                    dumps[0], expected,
                    "leaf {l} shard {shard}: counters must be exact"
                );
                assert_eq!(
                    dumps[0], dumps[1],
                    "leaf {l} shard {shard}: replicas diverge"
                );
            }
            // The spare only saw post-activation traffic.
            let stats = prog.shard_stats();
            assert!(stats.iter().all(|s| s.active), "all shards active at end");
            let spare_routed = stats
                .iter()
                .find(|s| s.id == SPARE_SHARD)
                .expect("spare exists")
                .routed;
            assert!(spare_routed > 0, "leaf {l}: spare shard never used");
            assert!(
                spare_routed < count,
                "leaf {l}: spare routed {spare_routed} of 2x{count}"
            );
        }
        let par = sim.par_stats();
        assert_eq!(
            par.partitions,
            threads.clamp(1, SHARD_LEAVES * (1 + SHARD_HOSTS_PER_LEAF) + SHARD_SPINES),
            "builder must honor the requested thread count"
        );
        // Pods stay whole, so the cut runs through leaf–spine links only,
        // and every frame takes one.
        for (l, &leaf) in fabric.leaves.iter().enumerate() {
            for &h in &fabric.hosts[l] {
                assert_eq!(
                    sim.partition_of(h),
                    sim.partition_of(leaf),
                    "leaf {l} split from a host"
                );
            }
        }
        let spine_cut = fabric.leaves.iter().any(|&leaf| {
            fabric
                .spines
                .iter()
                .any(|&s| sim.partition_of(s) != sim.partition_of(leaf))
        });
        assert_eq!(spine_cut, par.partitions > 1, "{par:?}");
        if spine_cut {
            assert!(
                par.cross_messages > 0,
                "spine traffic must cross partitions: {par:?}"
            );
        }
        ScenarioResult::of("fabric_shard", &sim)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_run_and_report() {
        // Smoke at reduced scale: every scenario's own assertions hold and
        // the result fingerprints the run.
        let results = [
            e1_write_read_loop(500),
            lookup_miss_storm(300),
            lookup_miss_storm_direct(300),
            remote_ops(300),
            insert_churn(600),
            faa_storm(2_000),
            loss_sweep(600),
            server_failover(1_200),
            fabric_fanout(200, 1),
        ];
        for r in &results {
            assert!(r.events > 0 && r.packets > 0, "{r:?}");
            assert_ne!(r.digest, 0, "digest must fingerprint the run: {r:?}");
        }
    }

    #[test]
    fn fabric_fanout_digest_invariant_across_threads() {
        // Same events, same per-hop deliveries, bit-identical trace digest
        // at 1, 2, 4 and 8 workers, on the scenario built to stress it.
        let base = fabric_fanout(150, 1);
        for threads in [2, 4, 8] {
            assert_eq!(fabric_fanout(150, threads), base, "t{threads} diverged");
        }
    }

    #[test]
    fn fabric_shard_digest_invariant_across_threads() {
        // Same line for the sharded fabric — and this one mutates programs
        // mid-run (spare-shard activation), so it additionally pins that
        // pause/mutate/resume is backend-invariant.
        let base = fabric_shard(300, 1);
        for threads in [2, 4] {
            assert_eq!(fabric_shard(300, threads), base, "t{threads} diverged");
        }
    }
}
