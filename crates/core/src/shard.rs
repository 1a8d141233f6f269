//! **Sharded external memory**: a consistent-hash ring over
//! [`ReplicatedPool`]-backed shards.
//!
//! The paper's capacity-expansion claim (§1/§2, E6) is that table capacity
//! grows linearly with added memory servers. One switch against a handful
//! of servers demonstrates the mechanism; this module makes it a fleet
//! property: the key space is partitioned across N shards by a consistent-
//! hash ring (virtual nodes for balance), each shard is an independent
//! [`FaaEngine`] over its own replicated server pool, and adding or
//! removing a shard moves only ~1/(N+1) of the keys — the rebalance cost
//! the `a12_capacity` experiment measures.
//!
//! [`ShardedStateStoreProgram`] is the **state-store primitive** (§4) on
//! this layer: per-flow counters in remote DRAM, updated with RDMA
//! Fetch-and-Add, spread over one or more pools, with per-shard stats
//! rollups and a live add/remove path (spare shards activate mid-run
//! without stopping traffic). One shard over one server is the paper's
//! store.
//!
//! "While an original packet is processed through the regular pipeline,
//! the primitive clones the original packet and truncates the entire
//! headers and payload of cloned packet to generate a packet for an RDMA
//! Fetch-and-Add request" — here the forwarding happens first and the FaA
//! request is generated alongside; the original packet's latency is
//! unaffected (verified by experiment E3's no-throughput-degradation
//! check). The issuing discipline (outstanding bound + local accumulation)
//! lives in [`FaaEngine`].

use crate::channel::ChannelStats;
use crate::faa::{FaaEngine, FaaStats};
use crate::fib::Fib;
use crate::lookup::flow_of;
use crate::pool::{assert_distinct_ports, PoolStats};
use extmem_switch::hash::flow_index;
use extmem_switch::{PipelineProgram, SwitchCtx};
use extmem_types::{FiveTuple, IntMap, PortId, TimeDelta};
use extmem_wire::roce::RocePacket;
use extmem_wire::Packet;

/// Timer token for the program's periodic flush/retransmit tick.
const TOKEN_TICK: u64 = 0x21;

/// The 64-bit finalizer from splitmix64 — a full-avalanche mix so ring
/// point placement and key hashing are uncorrelated with the structured
/// inputs (small shard ids, sequential vnode indices, similar flows).
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A consistent-hash ring with virtual nodes.
///
/// Each shard contributes `vnodes` points; a key belongs to the shard
/// owning the first point at or clockwise-after the key's hash. Placement
/// of one shard's points never depends on the others, so membership
/// changes move only the keys in the arcs the changed shard owns —
/// expected `1/(N+1)` of the key space on add, `1/N` on remove.
#[derive(Clone, Debug)]
pub struct ShardRing {
    vnodes: usize,
    /// Ring points, sorted by position: `(point, shard_id)`.
    points: Vec<(u64, u32)>,
}

impl ShardRing {
    /// An empty ring where each shard will contribute `vnodes` points.
    pub fn new(vnodes: usize) -> ShardRing {
        assert!(vnodes > 0, "need at least one virtual node per shard");
        ShardRing {
            vnodes,
            points: Vec::new(),
        }
    }

    fn point(shard: u32, vnode: usize) -> u64 {
        mix64(((shard as u64) << 32) ^ (vnode as u64) ^ 0x5a4d_0000_0000_0000)
    }

    /// Add `shard`'s virtual nodes to the ring. Panics if already present.
    pub fn add_shard(&mut self, shard: u32) {
        assert!(
            !self.contains(shard),
            "shard {shard} is already on the ring"
        );
        for v in 0..self.vnodes {
            let p = Self::point(shard, v);
            let at = self.points.partition_point(|&(q, _)| q < p);
            self.points.insert(at, (p, shard));
        }
    }

    /// Remove `shard`'s virtual nodes. Panics if absent.
    pub fn remove_shard(&mut self, shard: u32) {
        assert!(self.contains(shard), "shard {shard} is not on the ring");
        self.points.retain(|&(_, s)| s != shard);
    }

    /// Whether `shard` is on the ring.
    pub fn contains(&self, shard: u32) -> bool {
        self.points.iter().any(|&(_, s)| s == shard)
    }

    /// Number of shards on the ring.
    pub fn shard_count(&self) -> usize {
        let mut ids: Vec<u32> = self.points.iter().map(|&(_, s)| s).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// True when no shard is on the ring.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The shard owning an already-hashed key.
    pub fn shard_for_hash(&self, h: u64) -> u32 {
        assert!(!self.is_empty(), "shard lookup on an empty ring");
        let at = self.points.partition_point(|&(q, _)| q < h);
        // Clockwise wrap: past the last point lands on the first.
        self.points[at % self.points.len()].1
    }

    /// The shard owning a raw key.
    pub fn shard_for_key(&self, key: u64) -> u32 {
        self.shard_for_hash(mix64(key))
    }

    /// The shard owning a flow.
    pub fn shard_for_flow(&self, flow: &FiveTuple) -> u32 {
        let b = flow.to_bytes();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &x in &b {
            h = (h ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.shard_for_hash(mix64(h))
    }

    /// Fraction of `samples` synthetic keys that map to a different shard
    /// here than on `other` — the measured key movement of a membership
    /// change (expected ≈ 1/(N+1) for one added shard).
    pub fn remap_fraction(&self, other: &ShardRing, samples: u64) -> f64 {
        assert!(samples > 0, "need at least one sample");
        let moved = (0..samples)
            .filter(|&i| self.shard_for_key(i) != other.shard_for_key(i))
            .count();
        moved as f64 / samples as f64
    }
}

/// One shard of the sharded store.
struct Shard {
    id: u32,
    engine: FaaEngine,
    /// On the ring (receiving new keys) or draining (spare / removed).
    active: bool,
    /// Updates routed to this shard while it was active.
    routed: u64,
}

/// Aggregate + per-shard stats snapshot.
#[derive(Clone, Debug)]
pub struct ShardStats {
    /// Shard id.
    pub id: u32,
    /// Whether the shard is on the ring.
    pub active: bool,
    /// Updates routed to the shard.
    pub routed: u64,
    /// Engine counters (includes channel + pool rollups).
    pub faa: FaaStats,
}

/// The state-store primitive over a consistent-hash ring of shards.
///
/// Traffic is forwarded by L2 first; then the packet's counter update
/// routes through the ring to one of N independent [`FaaEngine`]s, so
/// total counter capacity is the sum of the shards' regions and grows
/// linearly with added server pools.
pub struct ShardedStateStoreProgram {
    /// L2 forwarding.
    pub fib: Fib,
    ring: ShardRing,
    shards: Vec<Shard>,
    counters_per_shard: u64,
    tick_interval: TimeDelta,
    tick_armed: bool,
    /// Ground-truth `(shard, slot)` counts recorded at routing time — the
    /// oracle stays exact across rebalances because each update is
    /// attributed to the shard that actually received it.
    pub oracle: IntMap<(u32, u64), u64>,
    /// Packets forwarded.
    pub forwarded: u64,
}

impl ShardedStateStoreProgram {
    /// Build the program over `(id, engine, active)` shards with `vnodes`
    /// virtual nodes per shard. Inactive shards are spares: their servers
    /// are wired and their channels live, but they own no keys until
    /// [`Self::activate_shard`]. At least one shard must start active, and
    /// no two servers may share a switch port (a port names its server's
    /// channel and timers).
    pub fn new(
        fib: Fib,
        shards: Vec<(u32, FaaEngine, bool)>,
        vnodes: usize,
        tick_interval: TimeDelta,
    ) -> ShardedStateStoreProgram {
        assert!(!shards.is_empty(), "need at least one shard");
        assert!(
            shards.iter().any(|&(_, _, active)| active),
            "need at least one active shard"
        );
        let counters_per_shard = shards[0].1.slots();
        assert!(
            shards
                .iter()
                .all(|(_, e, _)| e.slots() == counters_per_shard),
            "all shards must have the same region geometry"
        );
        assert_distinct_ports(shards.iter().map(|(_, e, _)| e.pool()));
        let mut ring = ShardRing::new(vnodes);
        let mut built = Vec::with_capacity(shards.len());
        for (id, engine, active) in shards {
            if active {
                ring.add_shard(id);
            }
            built.push(Shard {
                id,
                engine,
                active,
                routed: 0,
            });
        }
        ShardedStateStoreProgram {
            fib,
            ring,
            shards: built,
            counters_per_shard,
            tick_interval,
            tick_armed: false,
            oracle: IntMap::default(),
            forwarded: 0,
        }
    }

    /// Put a spare shard on the ring (live scale-out). Returns the
    /// fraction of the key space that moved onto it, measured over
    /// `samples` synthetic keys — the rebalance cost.
    pub fn activate_shard(&mut self, id: u32, samples: u64) -> f64 {
        let shard = self
            .shards
            .iter_mut()
            .find(|s| s.id == id)
            .unwrap_or_else(|| panic!("activate_shard: no shard {id}"));
        assert!(!shard.active, "shard {id} is already active");
        let before = self.ring.clone();
        shard.active = true;
        self.ring.add_shard(id);
        self.ring.remap_fraction(&before, samples)
    }

    /// The ring (routing inspection).
    pub fn ring(&self) -> &ShardRing {
        &self.ring
    }

    /// Counter slots per shard.
    pub fn counters_per_shard(&self) -> u64 {
        self.counters_per_shard
    }

    /// Total counter capacity across *active* shards — the quantity E6
    /// says grows linearly with servers.
    pub fn capacity_slots(&self) -> u64 {
        self.counters_per_shard * self.shards.iter().filter(|s| s.active).count() as u64
    }

    /// Per-shard stats snapshot.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| ShardStats {
                id: s.id,
                active: s.active,
                routed: s.routed,
                faa: s.engine.stats(),
            })
            .collect()
    }

    /// Pool counters summed across every shard.
    pub fn pool_rollup(&self) -> PoolStats {
        let mut total = PoolStats::default();
        for s in &self.shards {
            total.merge(&s.engine.pool().stats());
        }
        total
    }

    /// Channel counters summed across every shard.
    pub fn channel_rollup(&self) -> ChannelStats {
        let mut total = ChannelStats::default();
        for s in &self.shards {
            total.merge(&s.engine.pool().channel_stats());
        }
        total
    }

    /// Whether every shard's updates have been flushed and acknowledged.
    pub fn is_quiescent(&self) -> bool {
        self.shards.iter().all(|s| s.engine.is_quiescent())
    }

    /// Whether any shard's reliability layer gave up.
    pub fn is_degraded(&self) -> bool {
        self.shards.iter().any(|s| s.engine.is_degraded())
    }

    /// Quiescent *and* every shard's replicas have converged (no mirror
    /// delta awaiting replay, no pool-internal op in flight) — the
    /// condition under which replica dumps may be compared to the oracle.
    pub fn is_settled(&self) -> bool {
        self.is_quiescent() && self.shards.iter().all(|s| s.engine.pool().is_synced())
    }

    /// A shard's engine (test/readback access).
    pub fn engine(&self, id: u32) -> &FaaEngine {
        &self
            .shards
            .iter()
            .find(|s| s.id == id)
            .unwrap_or_else(|| panic!("engine: no shard {id}"))
            .engine
    }
}

impl PipelineProgram for ShardedStateStoreProgram {
    fn ingress(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, in_port: PortId, pkt: Packet) {
        if !self.tick_armed {
            self.tick_armed = true;
            ctx.schedule(self.tick_interval, TOKEN_TICK);
        }
        // RoCE demux: responses route to whichever shard owns the server
        // port — including drained shards, whose in-flight ops must still
        // settle.
        for s in &mut self.shards {
            if s.engine.owns_port(in_port) {
                if let Ok(Some(roce)) = RocePacket::parse(&pkt) {
                    s.engine.on_roce(ctx, in_port, &roce);
                    return;
                }
            }
        }
        // Forward first: the original packet is never delayed by the
        // counting path.
        let flow = flow_of(&pkt);
        if let Some(port) = self.fib.egress_for(&pkt) {
            self.forwarded += 1;
            ctx.enqueue(port, pkt);
        }
        if let Some(flow) = flow {
            let shard_id = self.ring.shard_for_flow(&flow);
            let slot = flow_index(&flow, self.counters_per_shard);
            *self.oracle.entry((shard_id, slot)).or_insert(0) += 1;
            let s = self
                .shards
                .iter_mut()
                .find(|s| s.id == shard_id)
                .expect("ring routed to an unknown shard");
            s.routed += 1;
            s.engine.add(ctx, slot, 1);
        }
    }

    fn on_timer(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, token: u64) {
        if token == TOKEN_TICK {
            for s in &mut self.shards {
                s.engine.flush(ctx);
                s.engine.tick(ctx);
            }
            ctx.schedule(self.tick_interval, TOKEN_TICK);
        } else {
            for s in &mut self.shards {
                if s.engine.on_timer(ctx, token) {
                    return;
                }
            }
        }
    }

    fn program_name(&self) -> &str {
        "sharded-state-store"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_of(n: u32, vnodes: usize) -> ShardRing {
        let mut r = ShardRing::new(vnodes);
        for id in 0..n {
            r.add_shard(id);
        }
        r
    }

    /// Two shards whose servers share a port would arm one timer token
    /// for two channels: the program refuses them.
    #[test]
    #[should_panic(expected = "distinct ports")]
    fn shards_sharing_a_port_are_refused() {
        use crate::channel::RdmaChannel;
        use crate::faa::FaaConfig;
        use extmem_rnic::requester::RequesterQp;
        use extmem_types::{QpNum, Rkey};
        use extmem_wire::roce::RoceEndpoint;
        use extmem_wire::MacAddr;
        let endpoint = |i| RoceEndpoint {
            mac: MacAddr::local(i),
            ip: i,
        };
        let engine = |server| {
            let channel = RdmaChannel {
                qp: RequesterQp::new(endpoint(1), endpoint(server), QpNum(0x100)),
                rkey: Rkey(1),
                base_va: 0x1000,
                region_len: 64,
                server_port: PortId(2),
            };
            FaaEngine::new(channel, FaaConfig::default())
        };
        let shards = vec![(0, engine(2), true), (1, engine(3), true)];
        ShardedStateStoreProgram::new(Fib::new(8), shards, 4, TimeDelta::from_micros(20));
    }

    #[test]
    fn ring_routes_every_key_to_a_member() {
        let r = ring_of(5, 64);
        for k in 0..10_000u64 {
            assert!(r.shard_for_key(k) < 5);
        }
    }

    #[test]
    fn adding_a_shard_moves_about_one_over_n_plus_one() {
        let before = ring_of(4, 128);
        let mut after = before.clone();
        after.add_shard(4);
        let moved = after.remap_fraction(&before, 50_000);
        // Ideal is 1/5 = 0.20; vnode placement noise allows a band.
        assert!(
            (0.10..=0.32).contains(&moved),
            "moved fraction {moved} far from 1/5"
        );
        // And every key that moved landed on the new shard only.
        for k in 0..50_000u64 {
            let b = before.shard_for_key(k);
            let a = after.shard_for_key(k);
            assert!(
                a == b || a == 4,
                "key {k} moved {b} -> {a}, not to the new shard"
            );
        }
    }

    #[test]
    fn removing_a_shard_strands_no_keys() {
        let before = ring_of(4, 64);
        let mut after = before.clone();
        after.remove_shard(2);
        for k in 0..20_000u64 {
            let a = after.shard_for_key(k);
            assert_ne!(a, 2);
            let b = before.shard_for_key(k);
            // Keys not on the removed shard stay put.
            if b != 2 {
                assert_eq!(a, b, "unrelated key {k} moved");
            }
        }
    }

    #[test]
    fn vnodes_keep_the_ring_balanced() {
        let r = ring_of(8, 128);
        let samples = 80_000u64;
        let mut counts = [0u64; 8];
        for k in 0..samples {
            counts[r.shard_for_key(k) as usize] += 1;
        }
        let ideal = samples as f64 / 8.0;
        for (id, &c) in counts.iter().enumerate() {
            let skew = (c as f64 - ideal).abs() / ideal;
            assert!(
                skew < 0.35,
                "shard {id} holds {c} of {samples} (skew {skew:.2})"
            );
        }
    }

    #[test]
    fn flow_routing_matches_key_routing_shape() {
        let r = ring_of(4, 64);
        // Distinct flows spread across shards; same flow is stable.
        let mut seen = [false; 4];
        for i in 0..256u16 {
            let f = FiveTuple::new(0x0a000001, 0x0a000002, 4000 + i, 9000, 17);
            let s = r.shard_for_flow(&f);
            assert_eq!(s, r.shard_for_flow(&f));
            seen[s as usize] = true;
        }
        assert!(
            seen.iter().all(|&x| x),
            "256 flows missed a shard: {seen:?}"
        );
    }
}
