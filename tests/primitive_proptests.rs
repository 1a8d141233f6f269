//! Property-based tests of the primitives' core invariants, driven through
//! complete simulated topologies:
//!
//! * **packet buffer**: for arbitrary burst shapes and thresholds, delivery
//!   is complete and strictly in order (loss-free links),
//! * **state store**: for arbitrary traffic mixes and issuing disciplines,
//!   remote counters converge to the exact ground truth,
//! * **traffic manager**: shared-buffer accounting never over-commits,
//! * **cuckoo lookup directory**: arbitrary insert/delete/lookup
//!   interleavings (including forced relocation chains and table-full
//!   rejection) match a `HashMap` reference exactly, the filter's probe
//!   choice always points at the bucket holding each key, and replaying
//!   every plan step-by-step against a byte region plus live filter never
//!   makes a resident key transiently unfindable.

use extmem_apps::scenario::{host_ip, host_mac, Built, Testbed};
use extmem_apps::workload::{FlowPick, SinkNode, WorkloadSpec};
use extmem_core::cuckoo::{
    decode_slot, encode_slot, probe_with, slot_va, CuckooConfig, CuckooDirectory, Step,
    BUCKET_BYTES, SLOTS_PER_BUCKET, SLOT_BYTES,
};
use extmem_core::faa::{FaaConfig, FaaEngine};
use extmem_core::lookup::ActionEntry;
use extmem_core::packet_buffer::{Mode, PacketBufferProgram};
use extmem_core::state_store::{read_remote_counters, StateStoreProgram};
use extmem_switch::ChoiceFilter;
use std::collections::HashMap;
use extmem_rnic::{RnicConfig, RnicNode};
use extmem_sim::LinkSpec;
use extmem_switch::{SwitchConfig, SwitchNode, TrafficManager};
use extmem_types::{ByteSize, FiveTuple, PortId, Rate, Time, TimeDelta};
use extmem_wire::Packet;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Packet-buffer FIFO invariant under arbitrary (loss-free) conditions.
    #[test]
    fn packet_buffer_delivers_everything_in_order(
        count in 20u32..300,
        frame in 100usize..1500,
        offered_gbps in 5u64..39,
        sink_gbps in 5u64..39,
        start_kb in 2u64..64,
        window in 1u64..16,
        seed in 0u64..1000,
    ) {
        let flow = FiveTuple::new(host_ip(0), host_ip(1), 40_000, 9_000, 17);
        let mut tb = Testbed::new(seed);
        tb.gen(
            WorkloadSpec::simple(
                host_mac(0),
                host_mac(1),
                flow,
                frame,
                Rate::from_gbps(offered_gbps),
                count as u64,
            ),
            LinkSpec::testbed_40g(),
        );
        let drain = tb.sink(LinkSpec::new(
            Rate::from_gbps(sink_gbps),
            TimeDelta::from_nanos(300),
        ));
        let (_, channel) = tb.server(
            RnicConfig::default(),
            ByteSize::from_mb(4),
            LinkSpec::testbed_40g(),
        );
        let prog = PacketBufferProgram::new(
            tb.fib(),
            vec![channel],
            drain,
            2048,
            Mode::Auto {
                start_store_qbytes: start_kb * 1024,
                resume_load_qbytes: start_kb * 512,
            },
            window,
            TimeDelta::from_micros(200),
        );
        let Built { mut sim, switch, hosts, servers, .. } =
            tb.build(SwitchConfig::default(), Box::new(prog));
        sim.run_until(Time::from_millis(200));

        let sink = sim.node::<SinkNode>(hosts[1]);
        let sw: &SwitchNode = sim.node::<SwitchNode>(switch);
        let stats = sw.program::<PacketBufferProgram>().stats();
        // Offered rates below the NIC store ceiling (~34G for 1500B, lower
        // fraction of demand detours at smaller frames) may still overrun
        // the NIC at extreme combinations; only require completeness when
        // nothing was dropped anywhere.
        let nic_stats = sim.node::<RnicNode>(servers[0]).stats();
        if nic_stats.rx_overflow_drops == 0 && sw.tm().total_drops() == 0 {
            prop_assert_eq!(
                sink.received,
                count as u64,
                "lost frames without any drop being accounted; pb stats {:?}",
                stats
            );
        }
        // Ordering must hold unconditionally (drops may thin the sequence
        // but never permute it).
        prop_assert_eq!(sink.total_reorders(), 0);
        prop_assert_eq!(sink.corrupt, 0);
    }

    /// State-store conservation: remote + in-transit == ground truth at
    /// every checkpoint; exact equality after settling.
    #[test]
    fn state_store_counts_exactly(
        count in 50u32..800,
        n_flows in 1usize..24,
        offered_gbps in 1u64..38,
        window in 1usize..16,
        batch in 1u64..32,
        seed in 0u64..1000,
    ) {
        let counters = 512u64;
        let flows: Vec<FiveTuple> = (0..n_flows)
            .map(|i| FiveTuple::new(host_ip(0), host_ip(1), 6000 + i as u16, 9000, 17))
            .collect();
        let link = LinkSpec::testbed_40g();
        let mut tb = Testbed::new(seed);
        tb.gen(
            WorkloadSpec {
                src_mac: host_mac(0),
                dst_mac: host_mac(1),
                flows: flows.into(),
                pick: FlowPick::Uniform,
                frame_len: 128,
                offered: Some(Rate::from_gbps(offered_gbps)),
                arrival: extmem_apps::workload::Arrival::Paced,
                count: count as u64,
                seed: seed ^ 0xaa,
                flow_id_base: 0,
            },
            link,
        );
        tb.sink(link);
        let (_, channel) = tb.server(RnicConfig::default(), ByteSize::from_bytes(counters * 8), link);
        let rkey = channel.rkey;
        let base = channel.base_va;
        let engine = FaaEngine::new(
            channel,
            FaaConfig { max_outstanding: window, min_batch: batch, ..Default::default() },
        );
        let prog = StateStoreProgram::new(tb.fib(), engine, TimeDelta::from_micros(30));
        let Built { mut sim, switch, servers, .. } =
            tb.build(SwitchConfig::default(), Box::new(prog));
        let srv = servers[0];

        // Mid-run checkpoint: the conservation bounds hold at an arbitrary
        // instant. `remote + pending <= truth` (executed plus never-sent
        // can't exceed ground truth); `truth <= remote + in_transit`
        // (nothing vanishes — an outstanding value may overlap `remote`
        // during its execute→ACK window, so that side is an inequality).
        sim.run_until(Time::from_micros(200));
        {
            let sw: &SwitchNode = sim.node::<SwitchNode>(switch);
            let prog = sw.program::<StateStoreProgram>();
            let nic = sim.node::<RnicNode>(srv);
            let remote: u64 = read_remote_counters(nic, rkey, base, counters).iter().sum();
            let truth: u64 = prog.oracle.values().sum();
            prop_assert!(remote + prog.pending_sum() <= truth, "overcount");
            prop_assert!(truth <= remote + prog.in_transit(), "updates vanished");
        }

        // Settle and require exactness.
        sim.run_until(Time::from_millis(60));
        let sw: &SwitchNode = sim.node::<SwitchNode>(switch);
        let prog = sw.program::<StateStoreProgram>();
        prop_assert!(prog.is_quiescent(), "updates still pending: {:?}", prog.faa_stats());
        let nic = sim.node::<RnicNode>(srv);
        let remote = read_remote_counters(nic, rkey, base, counters);
        for (slot, &expect) in &prog.oracle {
            prop_assert_eq!(remote[*slot as usize], expect, "slot {} wrong", slot);
        }
        prop_assert_eq!(nic.stats().cpu_packets, 0);
    }

    /// TM shared-buffer accounting stays consistent for arbitrary
    /// enqueue/dequeue interleavings.
    #[test]
    fn tm_accounting_invariants(
        ops in proptest::collection::vec((any::<bool>(), 0u16..4, 40usize..2000), 1..400),
        cap_kb in 1u64..64,
    ) {
        let mut tm = TrafficManager::new(4, ByteSize::from_kb(cap_kb));
        for (enq, port, size) in ops {
            if enq {
                let _ = tm.enqueue(PortId(port), Packet::zeroed(size));
            } else {
                let _ = tm.dequeue(PortId(port));
            }
            tm.check_invariants();
            prop_assert!(tm.total_bytes() <= tm.capacity());
        }
    }
}

/// Execute a relocation plan against a byte region and a live filter the
/// way the data plane does (filter flips at WRITE-issue time, Move sources
/// left stale until reclaimed), asserting after **every** step that each
/// key in `must_find` resolves in exactly one filter-steered bucket probe.
fn replay_cuckoo_plan(
    region: &mut [u8],
    live: &mut ChoiceFilter,
    buckets: u64,
    steps: &[Step],
    must_find: &HashMap<extmem_types::FiveTuple, ActionEntry>,
) -> Result<(), TestCaseError> {
    for step in steps {
        match *step {
            Step::Write {
                key,
                action,
                to,
                filter_add,
            } => {
                let off = slot_va(0, to) as usize;
                region[off..off + SLOT_BYTES].copy_from_slice(&encode_slot(&key, &action));
                if filter_add {
                    live.insert(&key);
                }
            }
            Step::Move {
                key, action, to, ..
            } => {
                let off = slot_va(0, to) as usize;
                region[off..off + SLOT_BYTES].copy_from_slice(&encode_slot(&key, &action));
                live.insert(&key);
            }
            Step::Clear { at, filter_sub } => {
                let off = slot_va(0, at) as usize;
                region[off..off + SLOT_BYTES].fill(0);
                if let Some(key) = filter_sub {
                    live.remove(&key);
                }
            }
        }
        for key in must_find.keys() {
            let b = probe_with(live, key, buckets) as usize;
            let found = (0..SLOTS_PER_BUCKET).any(|s| {
                let off = b * BUCKET_BYTES + s * SLOT_BYTES;
                decode_slot(&region[off..off + SLOT_BYTES]).is_some_and(|(k, _)| k == *key)
            });
            prop_assert!(
                found,
                "key {key:?} transiently unfindable after step {step:?}"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The cuckoo directory against a `HashMap` oracle: every interleaving
    /// of inserts (fresh + in-place updates), deletes, and lookups agrees
    /// with the reference; the filter steers every probe to the bucket
    /// actually holding the key; table-full rejections mutate nothing; and
    /// the byte region replayed plan-by-plan converges to the directory's
    /// image with no key ever transiently unfindable.
    #[test]
    fn cuckoo_directory_matches_hashmap_oracle(
        small in any::<bool>(),
        ops in proptest::collection::vec((0u8..3, 0u16..48, 0u8..64), 24..80),
    ) {
        // 8 buckets = 32 slots against a 48-key universe forces relocation
        // chains and genuine table-full rejections; 16 buckets exercises
        // the sparser regime where most inserts land primary.
        let cfg = CuckooConfig {
            buckets: if small { 8 } else { 16 },
            filter_cells: 512,
            filter_hashes: 2,
            max_plan_steps: 64,
        };
        let mut dir = CuckooDirectory::new(cfg);
        let mut oracle: HashMap<FiveTuple, ActionEntry> = HashMap::new();
        let mut region = vec![0u8; dir.region_bytes() as usize];
        let mut live = dir.filter().clone();
        let buckets = dir.config().buckets;
        let key_of = |i: u16| FiveTuple::new(host_ip(0), host_ip(1), 40_000 + i, 80, 17);

        for (sel, ki, ab) in ops {
            let key = key_of(ki);
            let action = ActionEntry::set_dscp(ab & 0x3f);
            if sel < 2 {
                // Mid-plan findability covers keys resident *before* the op;
                // the inserted key itself must be findable once it completes.
                let mut must_find = oracle.clone();
                must_find.remove(&key);
                match dir.plan_insert(key, action) {
                    Ok(plan) => {
                        replay_cuckoo_plan(&mut region, &mut live, buckets, &plan.steps, &must_find)?;
                        oracle.insert(key, action);
                    }
                    Err(_) => {
                        // Rejection must leave zero net mutation — the
                        // oracle sweep below verifies the rollback. Leave a
                        // breadcrumb that the regime was actually loaded.
                        prop_assert!(
                            dir.len() * 2 >= dir.capacity(),
                            "table-full below 50% load ({} / {})",
                            dir.len(),
                            dir.capacity()
                        );
                    }
                }
            } else {
                let mut must_find = oracle.clone();
                must_find.remove(&key);
                let plan = dir.plan_remove(&key);
                prop_assert_eq!(plan.is_some(), oracle.contains_key(&key));
                if let Some(plan) = plan {
                    replay_cuckoo_plan(&mut region, &mut live, buckets, &plan.steps, &must_find)?;
                    oracle.remove(&key);
                }
            }

            dir.check_invariants();
            prop_assert_eq!(dir.len(), oracle.len());
            for (k, a) in &oracle {
                prop_assert_eq!(dir.lookup(k), Some(*a), "oracle key {:?} wrong", k);
                let pos = dir.position(k).expect("resident key has a slot");
                prop_assert_eq!(
                    dir.probe(k), pos.bucket,
                    "probe points away from {:?}'s bucket", k
                );
            }
            for i in 0..48u16 {
                let k = key_of(i);
                if !oracle.contains_key(&k) {
                    prop_assert_eq!(dir.lookup(&k), None);
                }
            }
        }

        // The replayed region and live filter converge to the directory's
        // authoritative image.
        prop_assert_eq!(&region, &dir.encode_region(), "region diverged");
        prop_assert_eq!(live.raw_counts(), dir.filter().raw_counts(), "live filter diverged");
    }
}
