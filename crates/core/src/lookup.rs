//! The **one-RTT lookup table**: exact-match tables extended into remote
//! DRAM, every miss exactly one round trip — and the pieces it shares with
//! the paper's own §4 table ([`crate::direct_table`]): the 16-byte
//! [`ActionEntry`], the [`flow_of`] parser stage, the [`LookupStats`]
//! counters and the front of the pipeline up to the miss.
//!
//! [`LookupTableProgram`] keeps a two-choice cuckoo table
//! ([`crate::cuckoo`]) in remote memory plus a counting Bloom filter in
//! switch SRAM ([`extmem_switch::filter`]): the filter tells the data plane
//! *which* of the key's two buckets to READ, so every miss costs exactly one
//! bucket-sized round trip — no collisions, no second probe — while the
//! packet waits on the switch. Online inserts and deletes run through a
//! relocation planner whose steps this program executes over the reliable
//! channel (READ-verify then WRITE per displaced entry, mirror fan-out
//! preserved); the live filter flips at the instant each destination WRITE
//! is issued, so the FIFO channel guarantees any later bucket READ observes
//! the write and no resident key is ever transiently unfindable.

use crate::channel::{
    ChannelEvent, ChannelStats, Op, RdmaChannel, ReliableChannel, ReliableConfig, Reply,
};
use crate::cuckoo::{
    decode_slot, encode_slot, slot_key, slot_va, CuckooDirectory, SlotRef, Step, BUCKET_BYTES,
    SLOTS_PER_BUCKET, SLOT_BYTES,
};
use crate::fib::Fib;
use crate::pool::{PoolConfig, PoolStats, ReplicatedPool};
use extmem_rnic::{Operand, RemoteOp, RnicNode, WriteBody};
use extmem_switch::filter::ChoiceFilter;
use extmem_switch::switch::RECIRC_PORT;
use extmem_switch::table::{ExactMatchTable, Replacement};
use extmem_switch::{PipelineProgram, SwitchCtx};
use extmem_types::{FiveTuple, IntMap, PortId, TimeDelta};
use extmem_wire::extop::{EXTOP_FLAG_HIT, EXTOP_FLAG_SECONDARY};
use extmem_wire::ipv4::{internet_checksum, proto};
use extmem_wire::roce::RocePacket;
use extmem_wire::{EthernetHeader, Ipv4Header, MacAddr, Packet, UdpHeader};
use std::collections::VecDeque;

/// Timer token for the reliability-layer retransmission tick (routed to the
/// program via the switch's program-token bit).
const TOKEN_RELIABILITY_TICK: u64 = 0x31;

/// Timer token that drains queued control-plane table ops.
/// Well above the pool's per-server tick tokens (`0x31 + i`, probe at
/// `0x31 + n`).
pub const TOKEN_CONTROL: u64 = 0x3A0;

/// Timer token that steps the scripted churn driver. The program re-arms
/// it every [`ChurnScript::period`] until the script is exhausted.
pub const TOKEN_CHURN: u64 = 0x3A1;

/// Cookie bit marking control-plane (relocation/maintenance) ops. Bit 63 is
/// the pool's internal bit; data-plane lookup cookies keep bits 62..64
/// clear.
const CTRL_BIT: u64 = 1 << 62;

/// Bytes of an encoded [`ActionEntry`].
pub const ACTION_LEN: usize = 16;

/// What a table entry tells the switch to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ActionKind {
    /// Slot not populated: the flow is unknown. The paper's applications
    /// fall back to software here; we forward unmodified and count it.
    None,
    /// Rewrite the IPv4 DSCP field — the example action of §5 / Fig 3a.
    SetDscp,
    /// Rewrite destination IP and MAC — the §2.2 bare-metal VIP→PIP
    /// translation.
    Translate,
    /// Turn the request into a reply carrying an 8-byte value — the
    /// in-network key-value serving the paper motivates via NetCache
    /// ("this idea can benefit many other on-switch applications including
    /// key-value stores", §2.2). The switch swaps the L2/L3/L4 endpoints
    /// and stamps the value into the payload; the reply needs no server
    /// CPU whether it came from the local cache or remote memory.
    KvRespond,
}

/// A 16-byte table action.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ActionEntry {
    /// What to do.
    pub kind: ActionKind,
    /// New DSCP value (for [`ActionKind::SetDscp`]).
    pub dscp: u8,
    /// Egress-port override; `None` means forward by FIB.
    pub port_override: Option<PortId>,
    /// New destination IPv4 (for [`ActionKind::Translate`]).
    pub new_dst_ip: u32,
    /// New destination MAC (for [`ActionKind::Translate`]).
    pub new_dst_mac: MacAddr,
    /// The value returned by [`ActionKind::KvRespond`].
    pub kv_value: u64,
}

impl ActionEntry {
    /// The "missing entry" value (all zeroes).
    pub const NONE: ActionEntry = ActionEntry {
        kind: ActionKind::None,
        dscp: 0,
        port_override: None,
        new_dst_ip: 0,
        new_dst_mac: MacAddr::ZERO,
        kv_value: 0,
    };

    /// A DSCP-rewrite action (the §5 experiment).
    pub fn set_dscp(dscp: u8) -> ActionEntry {
        ActionEntry {
            kind: ActionKind::SetDscp,
            dscp,
            ..ActionEntry::NONE
        }
    }

    /// A VIP→PIP translation action (§2.2).
    pub fn translate(new_dst_ip: u32, new_dst_mac: MacAddr) -> ActionEntry {
        ActionEntry {
            kind: ActionKind::Translate,
            new_dst_ip,
            new_dst_mac,
            ..ActionEntry::NONE
        }
    }

    /// A key-value response action (NetCache-style in-network serving).
    pub fn kv_respond(value: u64) -> ActionEntry {
        ActionEntry {
            kind: ActionKind::KvRespond,
            kv_value: value,
            ..ActionEntry::NONE
        }
    }

    /// Encode to the 16-byte wire layout.
    pub fn to_bytes(self) -> [u8; ACTION_LEN] {
        let mut b = [0u8; ACTION_LEN];
        b[0] = match self.kind {
            ActionKind::None => 0,
            ActionKind::SetDscp => 1,
            ActionKind::Translate => 2,
            ActionKind::KvRespond => 3,
        };
        b[1] = self.dscp;
        let port = self.port_override.map_or(0xffff, |p| p.raw());
        b[2..4].copy_from_slice(&port.to_be_bytes());
        if self.kind == ActionKind::KvRespond {
            b[4..12].copy_from_slice(&self.kv_value.to_be_bytes());
        } else {
            b[4..8].copy_from_slice(&self.new_dst_ip.to_be_bytes());
            b[8..14].copy_from_slice(&self.new_dst_mac.0);
        }
        b
    }

    /// Decode from the 16-byte wire layout. Unknown kinds decode to
    /// [`ActionKind::None`] (the safe fallback).
    pub fn from_bytes(b: &[u8; ACTION_LEN]) -> ActionEntry {
        let kind = match b[0] {
            1 => ActionKind::SetDscp,
            2 => ActionKind::Translate,
            3 => ActionKind::KvRespond,
            _ => ActionKind::None,
        };
        let port = u16::from_be_bytes([b[2], b[3]]);
        let kv = kind == ActionKind::KvRespond;
        ActionEntry {
            kind,
            dscp: b[1],
            port_override: if port == 0xffff {
                None
            } else {
                Some(PortId(port))
            },
            new_dst_ip: if kv {
                0
            } else {
                u32::from_be_bytes(b[4..8].try_into().unwrap())
            },
            new_dst_mac: if kv {
                MacAddr::ZERO
            } else {
                MacAddr(b[8..14].try_into().unwrap())
            },
            kv_value: if kv {
                u64::from_be_bytes(b[4..12].try_into().unwrap())
            } else {
                0
            },
        }
    }

    /// Apply this action to a workload packet in place, fixing the IPv4
    /// checksum.
    pub fn apply(&self, pkt: &mut Packet) {
        match self.kind {
            ActionKind::None => {}
            ActionKind::SetDscp => {
                let b = pkt.as_mut_slice();
                // Keep the ECN bits, replace the DSCP bits.
                b[15] = (self.dscp << 2) | (b[15] & 0x03);
                fix_ipv4_checksum(b);
            }
            ActionKind::Translate => {
                let b = pkt.as_mut_slice();
                b[0..6].copy_from_slice(&self.new_dst_mac.0);
                b[30..34].copy_from_slice(&self.new_dst_ip.to_be_bytes());
                fix_ipv4_checksum(b);
            }
            ActionKind::KvRespond => {
                let b = pkt.as_mut_slice();
                // Turn the request into a reply: swap MACs, IPs, ports.
                for i in 0..6 {
                    b.swap(i, 6 + i);
                }
                for i in 0..4 {
                    b.swap(26 + i, 30 + i);
                }
                b.swap(34, 36);
                b.swap(35, 37);
                // Stamp the value right after the workload header (offset
                // 42 = L2/L3/L4 headers, +18 = workload header).
                const VALUE_AT: usize = 42 + 18;
                if b.len() >= VALUE_AT + 8 {
                    b[VALUE_AT..VALUE_AT + 8].copy_from_slice(&self.kv_value.to_be_bytes());
                }
                // Swaps preserve the IPv4 checksum; the payload is not
                // covered by it.
            }
        }
    }
}

/// Recompute the IPv4 header checksum of an Ethernet frame in place.
fn fix_ipv4_checksum(frame: &mut [u8]) {
    frame[24] = 0;
    frame[25] = 0;
    let csum = internet_checksum(&frame[14..34]);
    frame[24..26].copy_from_slice(&csum.to_be_bytes());
}

/// Lightweight 5-tuple extraction (no payload validation) — the parser
/// stage of the P4 program.
pub fn flow_of(pkt: &Packet) -> Option<FiveTuple> {
    let eth = EthernetHeader::parse(pkt.as_slice()).ok()?;
    if eth.ethertype != extmem_wire::EtherType::Ipv4 {
        return None;
    }
    let ip = Ipv4Header::parse(&pkt.as_slice()[EthernetHeader::LEN..]).ok()?;
    if ip.protocol != proto::UDP {
        return None;
    }
    let udp = UdpHeader::parse(&pkt.as_slice()[EthernetHeader::LEN + Ipv4Header::LEN..]).ok()?;
    Some(FiveTuple::new(
        ip.src,
        ip.dst,
        udp.src_port,
        udp.dst_port,
        proto::UDP,
    ))
}

/// A control-plane table operation, executed asynchronously by the
/// relocation machinery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControlOp {
    /// Insert `key → action` (or update the action in place).
    Insert(FiveTuple, ActionEntry),
    /// Delete the key.
    Remove(FiveTuple),
}

/// A scripted insert/delete sequence driven by [`TOKEN_CHURN`]: one op is
/// queued per firing and the timer re-arms every `period` until the script
/// is exhausted. This is how benchmarks and tests interleave live table
/// churn with data-plane traffic deterministically.
#[derive(Clone, Debug)]
pub struct ChurnScript {
    /// The ops, executed in order.
    pub ops: Vec<ControlOp>,
    /// Delay between consecutive ops.
    pub period: TimeDelta,
}

/// Counters of either table program: the first group is kept by both, the
/// recirculation group by [`DirectTableProgram`](crate::direct_table::DirectTableProgram)
/// alone, everything from `bucket_reads` to `inserts_rejected` by
/// [`LookupTableProgram`] alone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LookupStats {
    /// Packets answered by the local SRAM cache.
    pub cache_hits: u64,
    /// Packets that went to remote memory.
    pub remote_lookups: u64,
    /// READ and probe responses consumed.
    pub responses: u64,
    /// Actions applied (cache or remote).
    pub actions_applied: u64,
    /// Packets whose slot held no action (the software-fallback path the
    /// paper eliminates; with a fully provisioned remote table this is 0).
    pub slow_path: u64,
    /// Non-IP/UDP packets forwarded by plain L2.
    pub non_flow: u64,
    /// NAKs received.
    pub naks: u64,
    /// Recirculation passes taken by waiting packets.
    pub recirc_passes: u64,
    /// Action-only READs issued for recirculating packets.
    pub action_only_reads: u64,
    /// Packets dropped after exhausting the recirculation budget (their
    /// slot's READ or its response was lost).
    pub recirc_budget_drops: u64,
    /// Ops abandoned by the reliability layer (a bounced packet lost to a
    /// channel failover is gone: it lived in remote memory).
    pub failed_ops: u64,
    /// Bucket READs issued (equals `remote_lookups` — one probe per miss
    /// is the whole point).
    pub bucket_reads: u64,
    /// Bucket READs whose response held no matching key (an unknown flow,
    /// or a filter false positive steering a non-resident key to h2).
    pub bucket_misses: u64,
    /// Probes resolved against the secondary bucket (filter-steered in verb
    /// mode; responder-reported hits in remote-op mode).
    pub filter_secondary_probes: u64,
    /// Request round trips issued by the data-plane miss path (bucket READs
    /// in verb mode, hash-probe-and-fetch ops in remote-op mode; WRITE+READ
    /// bounce pairs or action-only READs on the direct table).
    pub lookup_rtts: u64,
    /// Cuckoo displacements executed on the wire (READ-verify + WRITE).
    pub relocation_moves: u64,
    /// Longest relocation chain any single insert needed.
    pub relocation_chain_max: u64,
    /// Displacements forced purely to keep a filter increment from
    /// misdirecting an h1-resident key (filter false-positive cost).
    pub filter_fp_moves: u64,
    /// Verify READs whose source slot bytes didn't match the directory
    /// (must stay 0: the directory is authoritative).
    pub verify_mismatches: u64,
    /// Control-plane inserts applied (including in-place updates).
    pub inserts_applied: u64,
    /// Control-plane removes applied.
    pub removes_applied: u64,
    /// Inserts rejected with a full table (the control plane's signal to
    /// resize; rejected inserts mutate nothing).
    pub inserts_rejected: u64,
    /// Reliability-layer counters for the underlying channel(s), merged
    /// across the pool.
    pub channel: ChannelStats,
    /// Replication-layer counters (all zero for single-server tables).
    pub pool: PoolStats,
}

impl LookupStats {
    /// Bucket READs issued per remote miss — 1.0 on the one-RTT table,
    /// meaningless (0) when no misses have happened.
    pub fn reads_per_miss(&self) -> f64 {
        if self.remote_lookups == 0 {
            0.0
        } else {
            self.bucket_reads as f64 / self.remote_lookups as f64
        }
    }

    /// Round trips per remote miss, `None` before any miss. 1.0 on the
    /// one-RTT table either way; the remote-op probe additionally covers *both*
    /// candidate buckets in that one trip, so a filter false positive can
    /// no longer punt a resident key to the slow path.
    pub fn rtts_per_miss(&self) -> Option<f64> {
        (self.remote_lookups > 0).then(|| self.lookup_rtts as f64 / self.remote_lookups as f64)
    }

    /// READ/probe responses consumed per remote miss, `None` before any
    /// miss.
    pub fn reads_per_lookup(&self) -> Option<f64> {
        (self.remote_lookups > 0).then(|| self.responses as f64 / self.remote_lookups as f64)
    }
}

/// What [`LookupTableProgram`] and
/// [`DirectTableProgram`](crate::direct_table::DirectTableProgram) are both
/// built on: forwarding, the pool of table servers, the optional SRAM cache
/// and the counters, with every pipeline step that does not depend on the
/// remote data structure.
pub(crate) struct TableFront {
    /// L2 forwarding (also the post-action forwarding step).
    fib: Fib,
    pub(crate) pool: ReplicatedPool,
    pub(crate) cache: Option<ExactMatchTable<FiveTuple, ActionEntry>>,
    /// Channel failed over: misses punt to the slow path (forward
    /// unmodified); the local cache keeps serving hits.
    pub(crate) degraded: bool,
    /// Completions the pool handed up, for the program to drain; the
    /// vector is reused across calls.
    pub(crate) events: Vec<ChannelEvent>,
    pub(crate) stats: LookupStats,
}

/// The pool under a single-server table: one reliable channel.
pub(crate) fn single_server_pool(channel: RdmaChannel) -> ReplicatedPool {
    let mut channel = ReliableChannel::new(channel, ReliableConfig::default());
    channel.set_timer_token(TOKEN_RELIABILITY_TICK);
    ReplicatedPool::single(channel)
}

impl TableFront {
    /// `cache_capacity = Some(n)` enables an n-entry local LRU cache (§4:
    /// "the switch can (optionally) cache the table entry in local SRAM").
    pub(crate) fn new(fib: Fib, pool: ReplicatedPool, cache_capacity: Option<usize>) -> TableFront {
        TableFront {
            fib,
            pool,
            cache: cache_capacity.map(|c| ExactMatchTable::new(c, Replacement::Lru)),
            degraded: false,
            events: Vec::new(),
            stats: LookupStats::default(),
        }
    }

    /// The counters, with the channel's and the pool's merged in.
    pub(crate) fn stats(&self) -> LookupStats {
        let ch = self.pool.channel_stats();
        let mut s = self.stats;
        s.naks = ch.naks;
        s.channel = ch;
        s.pool = self.pool.stats();
        s
    }

    /// RoCE demux: a frame from a table server is the pool's, and its
    /// completions are left in `events`. `false`: not such a frame.
    pub(crate) fn on_roce(
        &mut self,
        ctx: &mut SwitchCtx<'_, '_, '_>,
        in_port: PortId,
        pkt: &Packet,
    ) -> bool {
        if !self.pool.owns_port(in_port) {
            return false;
        }
        let Ok(Some(roce)) = RocePacket::parse(pkt) else {
            return false;
        };
        self.pool.on_roce(ctx, in_port, &roce, &mut self.events);
        true
    }

    /// Everything a workload packet can be answered with locally: plain L2
    /// for a non-flow, the cached action on a hit, the slow path while
    /// degraded. What comes back is a miss for the remote table to resolve.
    pub(crate) fn local_lookup(
        &mut self,
        ctx: &mut SwitchCtx<'_, '_, '_>,
        in_port: PortId,
        pkt: Packet,
    ) -> Option<(FiveTuple, Packet)> {
        let Some(flow) = flow_of(&pkt) else {
            self.stats.non_flow += 1;
            self.forward_unmodified(ctx, pkt);
            return None;
        };
        if let Some(cache) = &mut self.cache {
            if let Some(&action) = cache.lookup(&flow) {
                // A first-pass arrival is a real cache hit; a looping
                // packet finding its freshly promoted entry is not.
                if in_port != RECIRC_PORT {
                    self.stats.cache_hits += 1;
                }
                self.apply_and_forward(ctx, pkt, action);
                return None;
            }
        }
        if self.degraded {
            // §7 graceful degradation: the remote table is unreachable, so
            // misses punt to the software slow path (forward unmodified).
            self.stats.slow_path += 1;
            self.forward_unmodified(ctx, pkt);
            return None;
        }
        Some((flow, pkt))
    }

    /// Forward `pkt` by FIB alone, as plain L2 and the slow path do.
    pub(crate) fn forward_unmodified(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, pkt: Packet) {
        if let Some(port) = self.fib.egress_for(&pkt) {
            ctx.enqueue(port, pkt);
        }
    }

    /// Remember a fetched entry in the cache, if there is one.
    pub(crate) fn cache_insert(&mut self, flow: FiveTuple, action: ActionEntry) {
        if let Some(cache) = &mut self.cache {
            cache.insert(flow, action);
        }
    }

    pub(crate) fn apply_and_forward(
        &mut self,
        ctx: &mut SwitchCtx<'_, '_, '_>,
        mut pkt: Packet,
        action: ActionEntry,
    ) {
        if action.kind == ActionKind::None {
            self.stats.slow_path += 1;
        } else {
            action.apply(&mut pkt);
            self.stats.actions_applied += 1;
        }
        let port = action.port_override.or_else(|| self.fib.egress_for(&pkt));
        if let Some(port) = port {
            ctx.enqueue(port, pkt);
        }
    }
}

/// The one-RTT lookup-table pipeline program.
pub struct LookupTableProgram {
    front: TableFront,
    /// The control-plane directory: authoritative table contents, planned
    /// filter, relocation planner.
    dir: CuckooDirectory,
    /// The data plane's SRAM filter. Converges to `dir.filter()` step by
    /// step: each flip is applied at the instant its paired WRITE is issued
    /// into the FIFO channel.
    live_filter: ChoiceFilter,
    /// In-flight lookups: cookie → (flow, packet).
    pending: IntMap<u64, (FiveTuple, Packet)>,
    /// Next data-plane lookup cookie (bits 62/63 clear).
    next_lookup: u64,
    /// Next control-op cookie (CTRL_BIT set).
    next_ctrl: u64,
    /// Relocation steps awaiting wire issue, in plan order.
    steps: VecDeque<Step>,
    /// A `Move` whose source-verify READ is in flight, with its cookie.
    verify: Option<(Step, u64)>,
    /// Queued control ops; one is planned at a time, only when the step
    /// queue is drained.
    control: VecDeque<ControlOp>,
    /// Scripted churn driver, if any.
    churn: Option<ChurnScript>,
    /// Next unexecuted churn-script op.
    churn_next: usize,
    /// A directory image is being written onto a rejoining replica;
    /// control ops hold until it completes so the image cannot go stale.
    reseeding: bool,
    /// Use the RNIC remote-op engine: misses become hash-probe-and-fetch
    /// ops (responder scans both candidate buckets) and relocation `Move`s
    /// become conditional WRITEs — each one request round trip.
    remote_ops: bool,
}

impl LookupTableProgram {
    /// Create the program over a single table server. `dir` is the
    /// pre-populated control-plane directory; install its byte image on the
    /// server with [`install_cuckoo_image`] before traffic flows.
    /// `cache_capacity = Some(n)` enables an n-entry local LRU cache.
    pub fn cuckoo(
        fib: Fib,
        channel: RdmaChannel,
        dir: CuckooDirectory,
        cache_capacity: Option<usize>,
    ) -> LookupTableProgram {
        assert_bucket_geometry(&channel);
        Self::over_pool(fib, single_server_pool(channel), dir, cache_capacity)
    }

    /// Create the program over a replicated pool of table servers (index 0
    /// starts as primary). Install the directory image on **every** server
    /// before traffic flows. Rejoining replicas are reconciled from the
    /// directory (the authoritative copy), so `auto_promote`/
    /// `reseed_atomics` are forced off — promotion happens only after this
    /// program reseeds the rejoiner bit-for-bit.
    pub fn cuckoo_replicated(
        fib: Fib,
        channels: Vec<RdmaChannel>,
        dir: CuckooDirectory,
        cache_capacity: Option<usize>,
        mut pool_config: PoolConfig,
    ) -> LookupTableProgram {
        for ch in &channels {
            assert_bucket_geometry(ch);
        }
        pool_config.auto_promote = false;
        pool_config.reseed_atomics = false;
        let mut pool = ReplicatedPool::new(
            channels
                .into_iter()
                .map(|ch| ReliableChannel::new(ch, ReliableConfig::default()))
                .collect(),
            pool_config,
        );
        pool.set_timer_tokens(TOKEN_RELIABILITY_TICK);
        Self::over_pool(fib, pool, dir, cache_capacity)
    }

    fn over_pool(
        fib: Fib,
        pool: ReplicatedPool,
        dir: CuckooDirectory,
        cache_capacity: Option<usize>,
    ) -> LookupTableProgram {
        assert!(
            pool.region_len() >= dir.region_bytes(),
            "remote region smaller than the cuckoo table"
        );
        LookupTableProgram {
            front: TableFront::new(fib, pool, cache_capacity),
            live_filter: dir.filter().clone(),
            dir,
            pending: IntMap::default(),
            next_lookup: 0,
            next_ctrl: 0,
            steps: VecDeque::new(),
            verify: None,
            control: VecDeque::new(),
            churn: None,
            churn_next: 0,
            reseeding: false,
            remote_ops: false,
        }
    }

    /// Attach a scripted churn sequence. Kick it by scheduling
    /// [`TOKEN_CHURN`] (via `program_token`) at the desired start time; it
    /// then self-paces at `script.period`.
    pub fn with_churn(mut self, script: ChurnScript) -> LookupTableProgram {
        self.churn = Some(script);
        self
    }

    /// Run misses and relocations on the RNIC's remote-op engine: each miss
    /// issues one hash-probe-and-fetch that checks both candidate buckets
    /// server-side, and each relocation `Move` collapses its verify READ +
    /// destination WRITE into one conditional WRITE. Off (the default)
    /// keeps the one-sided verb wire behavior as the ablation baseline.
    pub fn with_remote_ops(mut self, on: bool) -> LookupTableProgram {
        self.remote_ops = on;
        self
    }

    /// Whether the remote-op engine is in use for misses and relocations.
    pub fn remote_ops(&self) -> bool {
        self.remote_ops
    }

    /// Override the reliability policy (before traffic flows).
    pub fn with_reliability(mut self, rc: ReliableConfig) -> LookupTableProgram {
        self.front.pool.set_config(rc);
        self
    }

    /// Counters.
    pub fn stats(&self) -> LookupStats {
        self.front.stats()
    }

    /// The replication pool underneath (health/failover inspection).
    pub fn pool(&self) -> &ReplicatedPool {
        &self.front.pool
    }

    /// Whether the reliability layer gave up and misses punt to the slow
    /// path.
    pub fn is_degraded(&self) -> bool {
        self.front.degraded
    }

    /// The control-plane cuckoo directory.
    pub fn directory(&self) -> &CuckooDirectory {
        &self.dir
    }

    /// The data plane's live filter.
    pub fn live_filter(&self) -> &ChoiceFilter {
        &self.live_filter
    }

    /// Whether no relocation step, verify READ, control op, or reseed is
    /// outstanding.
    pub fn relocation_idle(&self) -> bool {
        self.steps.is_empty() && self.verify.is_none() && self.control.is_empty() && !self.reseeding
    }

    /// Queue an insert/update for asynchronous execution. Drained on the
    /// next event or [`TOKEN_CONTROL`] firing.
    pub fn queue_insert(&mut self, key: FiveTuple, action: ActionEntry) {
        self.control.push_back(ControlOp::Insert(key, action));
    }

    /// Queue a delete for asynchronous execution.
    pub fn queue_remove(&mut self, key: FiveTuple) {
        self.control.push_back(ControlOp::Remove(key));
    }

    /// The miss path. Verb mode: probe the live filter, READ exactly one
    /// bucket. Remote-op mode: issue one hash-probe-and-fetch naming both
    /// candidate buckets — the responder scans them in place, so the SRAM
    /// filter drops off the miss path entirely and a filter false positive
    /// can no longer misdirect the probe.
    fn remote_lookup(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, flow: FiveTuple, pkt: Packet) {
        let base = self.front.pool.base_va();
        let buckets = self.dir.config().buckets;
        let bucket = crate::cuckoo::probe_with(&self.live_filter, &flow, buckets);
        let (b1, b2) = self.dir.bucket_pair(&flow);
        let secondary = bucket == b2 && b1 != b2;
        let cookie = self.next_lookup;
        self.next_lookup += 1;
        self.pending.insert(cookie, (flow, pkt));
        let stats = &mut self.front.stats;
        stats.remote_lookups += 1;
        stats.bucket_reads += 1;
        stats.lookup_rtts += 1;
        let op = if self.remote_ops {
            debug_assert!(buckets <= u32::MAX as u64, "bucket index fits the probe");
            Op::Remote(RemoteOp::HashProbe {
                base_va: base,
                b1: b1 as u32,
                b2: b2 as u32,
                bucket_bytes: BUCKET_BYTES as u16,
                slot_bytes: SLOT_BYTES as u16,
                key_off: 0,
                key: Operand::new(&slot_key(&flow)),
            })
        } else {
            if secondary {
                stats.filter_secondary_probes += 1;
            }
            let va = base + bucket * BUCKET_BYTES as u64;
            let len = BUCKET_BYTES as u32;
            Op::Read { va, len }
        };
        self.front.pool.submit(ctx, op, cookie);
    }

    /// The end of every lookup: find the parked flow's action in the answer,
    /// apply and cache it, or — an unknown flow, or in verb mode a filter
    /// false positive for a non-resident key — punt to the software slow
    /// path, forwarded unmodified. A bucket READ's slots are scanned here; a
    /// hash probe (remote-op mode) was scanned by the responder, over both
    /// candidate buckets, and on a hit `index` names the slot within the
    /// returned bucket image. Resident keys never miss (the
    /// no-transient-miss invariant), and a hash probe's miss is definitive:
    /// both buckets were checked in the one round trip.
    fn lookup_done(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, cookie: u64, reply: Reply) {
        let stats = &mut self.front.stats;
        stats.responses += 1;
        let Some((flow, pkt)) = self.pending.remove(&cookie) else {
            return;
        };
        let found = match reply {
            Reply::Data(bucket) => {
                (0..SLOTS_PER_BUCKET).find_map(|s| slot_match(&bucket, s, &flow))
            }
            Reply::Remote { flags, index, data } if flags & EXTOP_FLAG_HIT != 0 => {
                let found = slot_match(&data, index as usize, &flow);
                if found.is_some() && flags & EXTOP_FLAG_SECONDARY != 0 {
                    stats.filter_secondary_probes += 1;
                }
                found
            }
            Reply::Remote { .. } | Reply::Ack => None,
        };
        let Some(action) = found else {
            stats.bucket_misses += 1;
            stats.slow_path += 1;
            return self.front.forward_unmodified(ctx, pkt);
        };
        self.front.cache_insert(flow, action);
        self.front.apply_and_forward(ctx, pkt, action);
    }

    fn next_ctrl_cookie(&mut self) -> u64 {
        let cookie = CTRL_BIT | self.next_ctrl;
        self.next_ctrl += 1;
        cookie
    }

    /// WRITE one slot's `image` at `at` as a control op of its own,
    /// explicitly acknowledged.
    fn write_slot(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, at: SlotRef, image: &[u8]) {
        let cookie = self.next_ctrl_cookie();
        let va = slot_va(self.front.pool.base_va(), at);
        let (body, ack_req) = (WriteBody::inline(image), true);
        let write = Op::Write { va, body, ack_req };
        self.front.pool.submit(ctx, write, cookie);
    }

    /// Issue one plan step onto the wire. `Move`s first READ-verify their
    /// source slot (the WRITE + filter flip happen on the response);
    /// `Write`/`Clear` issue immediately, flipping the live filter at the
    /// same instant their WRITE enters the FIFO channel — that atomicity is
    /// what keeps redirected probes and remote bytes consistent.
    fn issue_step(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, step: Step) {
        let base = self.front.pool.base_va();
        match step {
            Step::Move {
                from,
                key,
                action,
                to,
                ..
            } => {
                let cookie = self.next_ctrl_cookie();
                let check = if self.remote_ops {
                    // The verify READ and destination WRITE collapse into
                    // one conditional WRITE: the responder compares the
                    // source slot against the directory's bytes and
                    // installs them at the destination only on a match.
                    // The filter flip and mirror fan-out happen on the
                    // response (the pool fans the *decided* image out, so
                    // mirrors never re-run the condition).
                    let expected = Operand::new(&encode_slot(&key, &action));
                    Op::Remote(RemoteOp::CondWrite {
                        cmp_va: slot_va(base, from),
                        write_va: slot_va(base, to),
                        compare: expected,
                        write: expected,
                    })
                } else {
                    let (va, len) = (slot_va(base, from), SLOT_BYTES as u32);
                    Op::Read { va, len }
                };
                self.front.pool.submit(ctx, check, cookie);
                self.verify = Some((step, cookie));
            }
            Step::Write {
                key,
                action,
                to,
                filter_add,
            } => {
                self.write_slot(ctx, to, &encode_slot(&key, &action));
                if filter_add {
                    self.live_filter.insert(&key);
                }
            }
            Step::Clear { at, filter_sub } => {
                self.write_slot(ctx, at, &[0u8; SLOT_BYTES]);
                if let Some(key) = filter_sub {
                    self.live_filter.remove(&key);
                }
            }
        }
    }

    /// A `Move`'s source check came back: a verify READ, whose bytes
    /// `matched` compares against the directory's, or (remote-op mode) a
    /// conditional WRITE that did the comparison at the responder. A
    /// matching conditional WRITE already installed the destination bytes
    /// (and the pool fanned the decided image to the mirrors); a READ never
    /// does, and on a mismatch nothing was written — the directory is
    /// authoritative, so count the drift and write the correct bytes anyway.
    fn finish_move(
        &mut self,
        ctx: &mut SwitchCtx<'_, '_, '_>,
        cookie: u64,
        matched: impl FnOnce(&[u8; SLOT_BYTES]) -> bool,
    ) {
        let Some((step, vc)) = self.verify else {
            return;
        };
        if vc != cookie {
            return;
        }
        self.verify = None;
        let Step::Move {
            key, action, to, ..
        } = step
        else {
            return;
        };
        let expected = encode_slot(&key, &action);
        let matched = matched(&expected);
        if !matched {
            self.front.stats.verify_mismatches += 1;
        }
        if !(matched && self.remote_ops) {
            self.write_slot(ctx, to, &expected);
        }
        self.live_filter.insert(&key);
        self.front.stats.relocation_moves += 1;
    }

    /// Plan the next queued control op (only with the step queue drained).
    /// Returns `false` when nothing was planned.
    fn plan_next_control(&mut self) -> bool {
        let Some(op) = self.control.pop_front() else {
            return false;
        };
        let stats = &mut self.front.stats;
        match op {
            ControlOp::Insert(key, action) => match self.dir.plan_insert(key, action) {
                Ok(plan) => {
                    stats.inserts_applied += 1;
                    stats.relocation_chain_max = stats.relocation_chain_max.max(plan.moves as u64);
                    stats.filter_fp_moves += plan.fp_moves as u64;
                    self.steps.extend(plan.steps);
                    if let Some(cache) = &mut self.front.cache {
                        // An update must not keep serving a stale action.
                        cache.remove(&key);
                    }
                }
                Err(_) => stats.inserts_rejected += 1,
            },
            ControlOp::Remove(key) => {
                if let Some(plan) = self.dir.plan_remove(&key) {
                    stats.removes_applied += 1;
                    self.steps.extend(plan.steps);
                    if let Some(cache) = &mut self.front.cache {
                        cache.remove(&key);
                    }
                }
            }
        }
        true
    }

    /// Pop one scripted churn op into the control queue and re-arm.
    fn step_churn(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>) {
        let Some(script) = &self.churn else {
            return;
        };
        let Some(&op) = script.ops.get(self.churn_next) else {
            return;
        };
        self.churn_next += 1;
        self.control.push_back(op);
        if self.churn_next < script.ops.len() {
            ctx.schedule(script.period, TOKEN_CHURN);
        }
    }

    /// Reconcile a rejoining replica from the directory: once relocations
    /// are idle, write the directory's byte image onto it and let the pool
    /// promote it. Control ops hold while the reseed is in flight so the
    /// image cannot go stale.
    fn maybe_reseed(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>) {
        let pool = &mut self.front.pool;
        if self.reseeding {
            if pool.reseed_active() {
                return;
            }
            self.reseeding = false; // finished (or aborted; a re-probe retries)
        }
        if pool.rejoin_pending() && self.verify.is_none() && self.steps.is_empty() {
            let image = self.dir.encode_writes(pool.base_va());
            self.reseeding = pool.reseed_rejoiner(ctx, image);
        }
    }

    /// The relocation pump: issue queued steps (stopping at a verify round
    /// trip), then plan further control ops, then check reseed. Called
    /// after every event batch and control/churn timer.
    fn advance(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>) {
        if self.front.degraded {
            return;
        }
        self.maybe_reseed(ctx);
        loop {
            if self.verify.is_some() {
                return;
            }
            if let Some(step) = self.steps.pop_front() {
                self.issue_step(ctx, step);
                continue;
            }
            if self.reseeding || !self.plan_next_control() {
                return;
            }
        }
    }

    /// Drain the completions in `front.events`, then pump relocations.
    fn consume_events(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>) {
        let mut events = std::mem::take(&mut self.front.events);
        for ev in events.drain(..) {
            match ev {
                // A slot WRITE's acknowledgement: nothing waits on it.
                ChannelEvent::Done {
                    reply: Reply::Ack, ..
                } => {}
                ChannelEvent::Done { cookie, reply, .. } if cookie & CTRL_BIT == 0 => {
                    self.lookup_done(ctx, cookie, reply)
                }
                // What is left is a `Move`'s source check.
                ChannelEvent::Done {
                    cookie,
                    reply: Reply::Data(slot),
                    ..
                } => self.finish_move(ctx, cookie, |expected| {
                    slot.get(..SLOT_BYTES) == Some(&expected[..])
                }),
                ChannelEvent::Done {
                    cookie,
                    reply: Reply::Remote { flags, .. },
                    ..
                } => self.finish_move(ctx, cookie, |_| flags & EXTOP_FLAG_HIT != 0),
                ChannelEvent::OpFailed { cookie, .. } => {
                    self.front.stats.failed_ops += 1;
                    if cookie & CTRL_BIT != 0 {
                        // A dying pool abandoned a control op; if it was
                        // the verify READ, drop the step (the table is
                        // degrading anyway).
                        if self.verify.is_some_and(|(_, vc)| vc == cookie) {
                            self.verify = None;
                        }
                    } else if let Some((_, pkt)) = self.pending.remove(&cookie) {
                        // The lookup is gone with the pool: punt the parked
                        // packet to the slow path unmodified.
                        self.front.stats.slow_path += 1;
                        self.front.forward_unmodified(ctx, pkt);
                    }
                }
                ChannelEvent::Failed => self.front.degraded = true,
            }
        }
        self.front.events = events;
        self.advance(ctx);
    }
}

impl PipelineProgram for LookupTableProgram {
    fn ingress(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, in_port: PortId, pkt: Packet) {
        if self.front.on_roce(ctx, in_port, &pkt) {
            self.consume_events(ctx);
        } else if let Some((flow, pkt)) = self.front.local_lookup(ctx, in_port, pkt) {
            self.remote_lookup(ctx, flow, pkt);
        }
    }

    fn on_timer(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, token: u64) {
        if token == TOKEN_CONTROL || token == TOKEN_CHURN {
            if token == TOKEN_CHURN {
                self.step_churn(ctx);
            }
            self.advance(ctx);
            return;
        }
        self.front.pool.on_timer(ctx, token, &mut self.front.events);
        self.consume_events(ctx);
    }

    fn program_name(&self) -> &str {
        "lookup-table-primitive"
    }
}

/// The action in slot `slot` of a bucket image, if that slot holds `flow`
/// (`None` too when the image is too short to have the slot).
fn slot_match(bucket: &[u8], slot: usize, flow: &FiveTuple) -> Option<ActionEntry> {
    let at = slot * SLOT_BYTES;
    let (key, action) = decode_slot(bucket.get(at..at + SLOT_BYTES)?)?;
    (key == *flow).then_some(action)
}

/// The bucket-granularity READ geometry: a cuckoo bucket must come back as
/// a single response packet (one PSN), or the "one memory access" miss
/// would still span multiple wire packets. Checked against the channel's
/// negotiated MTU.
fn assert_bucket_geometry(channel: &RdmaChannel) {
    assert!(
        channel.qp.single_packet_read_limit() as usize >= BUCKET_BYTES,
        "bucket ({BUCKET_BYTES} B) exceeds single-response READ limit ({} B)",
        channel.qp.single_packet_read_limit()
    );
}

/// Control plane: install the directory's byte image into the remote region
/// backing `channel` on `nic` (host-side pre-population, the counterpart of
/// [`install_remote_action`](crate::direct_table::install_remote_action)).
/// With replication, call once per server.
pub fn install_cuckoo_image(nic: &mut RnicNode, channel: &RdmaChannel, dir: &CuckooDirectory) {
    for (va, bytes) in dir.encode_writes(channel.base_va) {
        nic.region_mut(channel.rkey)
            .write(va, &bytes)
            .expect("image in bounds");
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::channel::tests::{behind_blackhole, impatient, Blackhole};
    use crate::direct_table::{install_remote_action, DirectTableProgram};
    use extmem_rnic::RnicConfig;
    use extmem_sim::LinkSpec;
    use extmem_switch::switch::program_token;
    use extmem_switch::SwitchNode;
    use extmem_types::{ByteSize, Time};
    use extmem_wire::payload::build_data_packet;
    use extmem_wire::roce::RoceEndpoint;

    #[test]
    fn action_entry_roundtrip() {
        for a in [
            ActionEntry::NONE,
            ActionEntry::set_dscp(46),
            ActionEntry::translate(0x0a00002a, MacAddr::local(42)),
            ActionEntry {
                port_override: Some(PortId(7)),
                ..ActionEntry::set_dscp(1)
            },
            ActionEntry::kv_respond(0xdead_beef_0bad_f00d),
        ] {
            assert_eq!(ActionEntry::from_bytes(&a.to_bytes()), a);
        }
    }

    #[test]
    fn unknown_kind_decodes_to_none() {
        let mut b = ActionEntry::set_dscp(5).to_bytes();
        b[0] = 99;
        assert_eq!(ActionEntry::from_bytes(&b).kind, ActionKind::None);
    }

    fn sample_packet() -> Packet {
        build_data_packet(
            MacAddr::local(1),
            MacAddr::local(2),
            FiveTuple::new(0x0a000001, 0x0a000002, 1111, 2222, proto::UDP),
            3,
            9,
            Time::from_nanos(5),
            128,
        )
        .unwrap()
    }

    #[test]
    fn set_dscp_rewrites_and_fixes_checksum() {
        let mut pkt = sample_packet();
        ActionEntry::set_dscp(46).apply(&mut pkt);
        let ip = Ipv4Header::parse(&pkt.as_slice()[14..]).expect("checksum must verify");
        assert_eq!(ip.dscp, 46);
        assert_eq!(ip.ecn, 0);
    }

    #[test]
    fn translate_rewrites_ip_and_mac() {
        let mut pkt = sample_packet();
        ActionEntry::translate(0xc0a80107, MacAddr::local(77)).apply(&mut pkt);
        let eth = EthernetHeader::parse(pkt.as_slice()).unwrap();
        assert_eq!(eth.dst, MacAddr::local(77));
        let ip = Ipv4Header::parse(&pkt.as_slice()[14..]).expect("checksum must verify");
        assert_eq!(ip.dst, 0xc0a80107);
    }

    #[test]
    fn kv_respond_builds_a_reply() {
        let mut pkt = sample_packet();
        ActionEntry::kv_respond(0x1122334455667788).apply(&mut pkt);
        let eth = EthernetHeader::parse(pkt.as_slice()).unwrap();
        // Endpoints swapped: the reply goes back to the requester.
        assert_eq!(eth.dst, MacAddr::local(1));
        assert_eq!(eth.src, MacAddr::local(2));
        let ip = Ipv4Header::parse(&pkt.as_slice()[14..]).expect("checksum survives swaps");
        assert_eq!(ip.src, 0x0a000002);
        assert_eq!(ip.dst, 0x0a000001);
        let udp = UdpHeader::parse(&pkt.as_slice()[34..]).unwrap();
        assert_eq!(udp.src_port, 2222);
        assert_eq!(udp.dst_port, 1111);
        // Value stamped after the workload header.
        assert_eq!(
            u64::from_be_bytes(pkt.as_slice()[60..68].try_into().unwrap()),
            0x1122334455667788
        );
    }

    pub(crate) const POKE: u64 = 1;

    pub(crate) type Poke<P> = Box<dyn FnMut(&mut P, &mut SwitchCtx<'_, '_, '_>) + Send>;

    /// A table program that, when the switch's timer [`POKE`] fires, is
    /// handed to `poke` with the switch's context; every other event is the
    /// program's own.
    pub(crate) struct Poked<P> {
        pub(crate) prog: P,
        pub(crate) poke: Poke<P>,
    }

    impl<P: PipelineProgram> PipelineProgram for Poked<P> {
        fn ingress(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, in_port: PortId, pkt: Packet) {
            self.prog.ingress(ctx, in_port, pkt);
        }

        fn on_timer(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, token: u64) {
            if token == POKE {
                (self.poke)(&mut self.prog, ctx);
            } else {
                self.prog.on_timer(ctx, token);
            }
        }
    }

    /// The FIB of a switch whose port 0 leads to everybody.
    pub(crate) fn fib() -> Fib {
        let mut fib = Fib::new(8);
        fib.install(MacAddr::local(2), PortId(0));
        fib
    }

    /// A table server for port 1 and the channel to it.
    pub(crate) fn table_server(region: u64) -> (RnicNode, RdmaChannel) {
        let endpoint = |i| RoceEndpoint {
            mac: MacAddr::local(i),
            ip: 0x0a00_0000 + i,
        };
        let mut nic = RnicNode::new("table", RnicConfig::at(endpoint(3)));
        let size = ByteSize::from_bytes(region);
        let channel = RdmaChannel::setup(endpoint(100), PortId(1), &mut nic, size);
        (nic, channel)
    }

    /// Run `prog` on a switch with `nic` on port 1 and hand it one packet
    /// of each of `flows` at time zero. Returns its `stats` and the DSCP
    /// each packet left with (port 0's black hole is where the FIB sends
    /// them).
    fn dscp_out<P: PipelineProgram>(
        prog: P,
        nic: RnicNode,
        flows: [FiveTuple; 2],
        stats: fn(&P) -> LookupStats,
    ) -> (LookupStats, [u8; 2]) {
        let poke = Box::new(move |prog: &mut P, ctx: &mut SwitchCtx<'_, '_, '_>| {
            for flow in flows {
                let (src, dst) = (MacAddr::local(1), MacAddr::local(2));
                let pkt = build_data_packet(src, dst, flow, 0, 0, Time::ZERO, 128).unwrap();
                prog.ingress(ctx, PortId(2), pkt);
            }
        });
        let (mut sim, sw, hole) = behind_blackhole(Poked { prog, poke }, |b, sw| {
            let server = b.add_node(Box::new(nic));
            b.connect(sw, PortId(1), server, PortId(0), LinkSpec::testbed_40g());
        });
        sim.schedule_timer(sw, TimeDelta::ZERO, program_token(POKE));
        sim.run_until(Time::from_micros(100));
        let frames = &sim.node::<Blackhole>(hole).frames;
        let dscp = flows.map(|flow| {
            let frame = frames.iter().find(|f| flow_of(f) == Some(flow));
            let frame = frame.expect("every packet comes out");
            Ipv4Header::parse(&frame.as_slice()[14..]).unwrap().dscp
        });
        let program = sim.node::<SwitchNode>(sw).program::<Poked<P>>();
        (stats(&program.prog), dscp)
    }

    /// A pair of distinct flows that alias under the direct table's
    /// arithmetic (`flow_index` over `entries` slots).
    fn colliding_pair(entries: u64) -> [FiveTuple; 2] {
        use extmem_switch::hash::flow_index;
        for a in 0..500u32 {
            for b2 in (a + 1)..500 {
                let fa = FiveTuple::new(0x0a000001, 0x0a000002, 1000 + a as u16, 80, 17);
                let fb = FiveTuple::new(0x0a000001, 0x0a000002, 1000 + b2 as u16, 80, 17);
                if flow_index(&fa, entries) == flow_index(&fb, entries) {
                    return [fa, fb];
                }
            }
        }
        panic!("a collision must exist in 500 flows over {entries} slots");
    }

    const ENTRIES: u64 = 64; // small table to force a collision quickly

    #[test]
    fn direct_hash_colliding_flows_share_a_slot_action() {
        // The paper's table is direct-indexed by a hash: two flows mapping
        // to the same slot get the same action — a property of the §4
        // design the control plane must manage (size the table, detect
        // collisions at install time). Only `fa` is installed; `fb` leaves
        // with its action all the same.
        let [fa, fb] = colliding_pair(ENTRIES);
        let (mut nic, channel) = table_server(ENTRIES * 2048);
        install_remote_action(&mut nic, &channel, 2048, &fa, ActionEntry::set_dscp(46));
        let prog = DirectTableProgram::new(fib(), channel, 2048, None);
        assert_eq!(prog.slot_of(&fa), prog.slot_of(&fb));
        let (stats, dscp) = dscp_out(prog, nic, [fa, fb], DirectTableProgram::stats);
        assert_eq!(dscp, [46, 46]);
        assert_eq!(
            (stats.actions_applied, stats.slow_path),
            (2, 0),
            "{stats:?}"
        );
    }

    #[test]
    fn cuckoo_mode_resolves_the_same_colliding_pair() {
        // The exact pair the direct table aliases gets two distinct entries
        // here, each found where the filter-steered probe points — one READ
        // each, no punt.
        let [fa, fb] = colliding_pair(ENTRIES);
        let mut dir = CuckooDirectory::new(crate::cuckoo::CuckooConfig {
            buckets: ENTRIES,
            filter_cells: 512,
            filter_hashes: 2,
            max_plan_steps: 64,
        });
        dir.install(fa, ActionEntry::set_dscp(46)).unwrap();
        dir.install(fb, ActionEntry::set_dscp(12)).unwrap();
        let (mut nic, channel) = table_server(dir.region_bytes());
        install_cuckoo_image(&mut nic, &channel, &dir);
        let prog = LookupTableProgram::cuckoo(fib(), channel, dir, None);
        let (stats, dscp) = dscp_out(prog, nic, [fa, fb], LookupTableProgram::stats);
        assert_eq!(dscp, [46, 12]);
        assert_eq!(
            (stats.bucket_reads, stats.bucket_misses),
            (2, 0),
            "{stats:?}"
        );
        assert_eq!(
            (stats.actions_applied, stats.slow_path),
            (2, 0),
            "{stats:?}"
        );
    }

    /// The table server never answers: the channel gives the bucket READ
    /// up, and the packet that was parked on it leaves as it came.
    #[test]
    fn failed_lookup_punts_the_parked_packet_unmodified() {
        let flow = FiveTuple::new(0x0a000001, 0x0a000002, 1111, 2222, proto::UDP);
        let mut dir = CuckooDirectory::new(crate::cuckoo::CuckooConfig::for_capacity(8));
        dir.install(flow, ActionEntry::set_dscp(46)).unwrap();
        // Port 0 is the black hole's, so that is where the channel leads;
        // the server it was set up with is never plugged in.
        let (_unplugged, mut channel) = table_server(dir.region_bytes());
        channel.server_port = PortId(0);
        let prog =
            LookupTableProgram::cuckoo(fib(), channel, dir, None).with_reliability(impatient(1));
        let poke = Box::new(
            |prog: &mut LookupTableProgram, ctx: &mut SwitchCtx<'_, '_, '_>| {
                prog.ingress(ctx, PortId(2), sample_packet());
            },
        );
        let (mut sim, sw, hole) = behind_blackhole(Poked { prog, poke }, |_, _| {});
        sim.schedule_timer(sw, TimeDelta::ZERO, program_token(POKE));
        sim.run_until(Time::from_micros(100));

        // The READ, its one retransmission, then the packet.
        let frames = &sim.node::<Blackhole>(hole).frames;
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[2], sample_packet());
        let prog = &sim
            .node::<SwitchNode>(sw)
            .program::<Poked<LookupTableProgram>>()
            .prog;
        let stats = prog.stats();
        assert_eq!((stats.failed_ops, stats.slow_path), (1, 1), "{stats:?}");
        assert_eq!(stats.actions_applied, 0, "{stats:?}");
        assert!(prog.is_degraded());
    }

    #[test]
    fn flow_of_extracts_five_tuple() {
        let pkt = sample_packet();
        assert_eq!(
            flow_of(&pkt),
            Some(FiveTuple::new(
                0x0a000001,
                0x0a000002,
                1111,
                2222,
                proto::UDP
            ))
        );
        // Non-IP frame → None.
        let mut raw = pkt.into_vec();
        raw[12] = 0x88;
        raw[13] = 0xb5;
        assert_eq!(flow_of(&Packet::from_vec(raw)), None);
    }
}
