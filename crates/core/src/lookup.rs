//! The **one-RTT lookup table**: exact-match tables extended into remote
//! DRAM, every miss exactly one round trip — and the pieces it shares with
//! the paper's own §4 table ([`crate::direct_table`]) and the LPM ladder
//! ([`crate::lpm`]): the 16-byte [`ActionEntry`], the [`flow_of`] parser
//! stage, the [`LookupStats`] counters and the front of the pipeline up to
//! the miss.
//!
//! [`LookupTableProgram`] keeps a two-choice cuckoo table
//! ([`crate::cuckoo`]) in remote memory plus a counting Bloom filter in
//! switch SRAM ([`extmem_switch::filter`]): the filter tells the data plane
//! *which* of the key's two buckets to READ (or, with remote ops, to
//! hash-probe), so every miss costs exactly one round trip to one bucket —
//! no collisions, no second probe — while the packet waits on the switch.
//! A bucket READ or probe covers only the slots whose one-byte live
//! fingerprint matches the key's, usually the one slot it sits in.
//! Online inserts and deletes run through a relocation planner whose steps
//! this program executes over the reliable channel (READ-verify then WRITE
//! per displaced entry); the live filter and the live fingerprints flip at
//! the instant each slot WRITE is issued, so any later probe observes the
//! write and no resident key is ever transiently unfindable.

use crate::channel::{
    ChannelEvent, ChannelStats, Op, RdmaChannel, ReliableChannel, ReliableConfig, Reply,
};
use crate::cuckoo::{
    decode_slot, encode_slot, slot_key, slot_va, CuckooDirectory, SlotRef, Step, BUCKET_BYTES,
    SLOTS_PER_BUCKET, SLOT_BYTES,
};
use crate::fib::Fib;
use extmem_rnic::nic::MTU;
use extmem_rnic::{Operand, RemoteOp, RnicNode, WriteBody};
use extmem_switch::filter::ChoiceFilter;
use extmem_switch::hash::{cuckoo_buckets, slot_fingerprint};
use extmem_switch::switch::RECIRC_PORT;
use extmem_switch::table::{ExactMatchTable, Replacement};
use extmem_switch::{PipelineProgram, SwitchCtx};
use extmem_types::{FiveTuple, IntMap, PortId, TimeDelta};
use extmem_wire::ipv4::{internet_checksum, proto};
use extmem_wire::roce::RocePacket;
use extmem_wire::{EthernetHeader, Ipv4Header, MacAddr, Packet, UdpHeader};
use std::collections::VecDeque;
use std::hash::Hash;

/// Timer token that drains queued control-plane table ops. Every other
/// token the program sees is its channel's.
pub const TOKEN_CONTROL: u64 = 0x3A0;

/// Timer token that steps the scripted churn driver. The program re-arms
/// it every [`ChurnScript::period`] until the script is exhausted.
pub const TOKEN_CHURN: u64 = 0x3A1;

/// Cookie bit marking control-plane (relocation/maintenance) ops;
/// data-plane lookup cookies keep it clear.
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
            new_dst_ip: if kv { 0 } else { u32::from_be_bytes(at(b, 4)) },
            new_dst_mac: if kv { MacAddr::ZERO } else { MacAddr(at(b, 8)) },
            kv_value: if kv { u64::from_be_bytes(at(b, 4)) } else { 0 },
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

/// The `N` bytes of an encoded [`ActionEntry`] from offset `from`.
fn at<const N: usize>(b: &[u8; ACTION_LEN], from: usize) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(&b[from..from + N]);
    out
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

/// Counters of the three table programs: the first group is kept by all,
/// the recirculation group by [`DirectTableProgram`](crate::direct_table::DirectTableProgram)
/// alone, everything from `bucket_misses` to `inserts_rejected` by
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
    /// Packets whose slot held no action, or (LPM) that matched no rung,
    /// or that missed while degraded: the software-fallback path the paper
    /// eliminates; with a fully provisioned, reachable remote table this
    /// is 0.
    pub slow_path: u64,
    /// Packets without a lookup key (non-IP/UDP; for LPM non-IPv4
    /// UDP/TCP) forwarded by plain L2.
    pub non_flow: u64,
    /// Recirculation passes taken by waiting packets.
    pub recirc_passes: u64,
    /// Action-only READs issued for recirculating packets.
    pub action_only_reads: u64,
    /// Packets dropped after exhausting the recirculation budget (their
    /// slot's READ or its response was lost).
    pub recirc_budget_drops: u64,
    /// Ops abandoned by the reliability layer (a bounced packet lost to a
    /// channel failover is gone: it lived in remote memory). LPM counts
    /// once per abandoned lookup, however many of its rung READs failed,
    /// and drops that lookup's packet.
    pub failed_ops: u64,
    /// Bucket READs or hash probes whose response held no matching key (an
    /// unknown flow, or a filter false positive steering a non-resident key
    /// to h2).
    pub bucket_misses: u64,
    /// Probes the live filter steered to the secondary bucket, counted at
    /// issue (a bucket READ or a hash probe alike).
    pub filter_secondary_probes: u64,
    /// Misses by the slots their access spanned, a bucket READ or a hash
    /// probe alike: entry `i` counts the misses of `i + 1` slots, from the
    /// first to the last slot whose live fingerprint matched the flow's
    /// (slot 0 alone when none did).
    pub miss_slots: [u64; SLOTS_PER_BUCKET],
    /// Request round trips issued by the data-plane miss path (bucket READs
    /// in verb mode, hash-probe-and-fetch ops in remote-op mode; WRITE+READ
    /// bounce pairs or action-only READs on the direct table; one READ per
    /// rung, or one gather op, on the LPM ladder).
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
    /// Reliability-layer counters for the underlying channel.
    pub channel: ChannelStats,
}

impl LookupStats {
    /// Round trips per remote miss, `None` before any miss. 1.0 on the
    /// one-RTT table either way: a READ or a hash probe of the one bucket
    /// the filter names.
    pub fn rtts_per_miss(&self) -> Option<f64> {
        (self.remote_lookups > 0).then(|| self.lookup_rtts as f64 / self.remote_lookups as f64)
    }

    /// READ/probe responses consumed per remote miss, `None` before any
    /// miss.
    pub fn reads_per_lookup(&self) -> Option<f64> {
        (self.remote_lookups > 0).then(|| self.responses as f64 / self.remote_lookups as f64)
    }
}

/// What the three table programs — [`LookupTableProgram`],
/// [`DirectTableProgram`](crate::direct_table::DirectTableProgram) and
/// [`RemoteLpmProgram`](crate::lpm::RemoteLpmProgram) — are built on:
/// forwarding, the channel to the table server, the optional SRAM cache
/// keyed by `K` and the counters, with every pipeline step that does not
/// depend on the remote data structure.
pub(crate) struct TableFront<K = FiveTuple> {
    /// L2 forwarding (also the post-action forwarding step).
    fib: Fib,
    pub(crate) channel: ReliableChannel,
    pub(crate) cache: Option<ExactMatchTable<K, ActionEntry>>,
    /// Completions the channel handed up, for the program to drain; the
    /// vector is reused across calls.
    pub(crate) events: Vec<ChannelEvent>,
    pub(crate) stats: LookupStats,
}

impl<K: Eq + Hash + Copy> TableFront<K> {
    /// `cache_capacity = Some(n)` enables an n-entry local LRU cache (§4:
    /// "the switch can (optionally) cache the table entry in local SRAM").
    pub(crate) fn new(fib: Fib, channel: RdmaChannel, cache_capacity: Option<usize>) -> Self {
        TableFront {
            fib,
            channel: ReliableChannel::new(channel, ReliableConfig::default()),
            cache: cache_capacity.map(|c| ExactMatchTable::new(c, Replacement::Lru)),
            events: Vec::new(),
            stats: LookupStats::default(),
        }
    }

    /// The counters, with the channel's merged in.
    pub(crate) fn stats(&self) -> LookupStats {
        LookupStats {
            channel: self.channel.stats(),
            ..self.stats
        }
    }

    /// Whether the channel failed over: misses punt to the slow path
    /// (forward unmodified); the local cache keeps serving hits.
    pub(crate) fn degraded(&self) -> bool {
        self.channel.is_failed()
    }

    /// RoCE demux: a frame from the table server is the channel's, and its
    /// completions are left in `events`. `false`: not such a frame.
    pub(crate) fn on_roce(
        &mut self,
        ctx: &mut SwitchCtx<'_, '_, '_>,
        in_port: PortId,
        pkt: &Packet,
    ) -> bool {
        if self.channel.server_port() != in_port {
            return false;
        }
        let Ok(Some(roce)) = RocePacket::parse(pkt) else {
            return false;
        };
        self.channel.on_roce(ctx, &roce, &mut self.events);
        true
    }

    /// A program timer fired: if `token` is the channel's retransmission
    /// deadline, its completions are left in `events`.
    pub(crate) fn on_timer(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, token: u64) {
        if token == self.channel.timer_token() {
            self.channel.on_timer_fired(ctx, &mut self.events);
        }
    }

    /// Everything a workload packet can be answered with locally: plain L2
    /// when it has no `key`, the cached action on a hit, the slow path
    /// while degraded. What comes back is a miss for the remote table to
    /// resolve.
    pub(crate) fn local_lookup(
        &mut self,
        ctx: &mut SwitchCtx<'_, '_, '_>,
        in_port: PortId,
        key: Option<K>,
        pkt: Packet,
    ) -> Option<(K, Packet)> {
        let Some(key) = key else {
            self.stats.non_flow += 1;
            self.forward_unmodified(ctx, pkt);
            return None;
        };
        if let Some(cache) = &mut self.cache {
            if let Some(&action) = cache.lookup(&key) {
                // A first-pass arrival is a real cache hit; a looping
                // packet finding its freshly promoted entry is not.
                if in_port != RECIRC_PORT {
                    self.stats.cache_hits += 1;
                }
                self.apply_and_forward(ctx, pkt, action);
                return None;
            }
        }
        if self.degraded() {
            // §7 graceful degradation: the remote table is unreachable, so
            // misses punt to the software slow path (forward unmodified).
            self.stats.slow_path += 1;
            self.forward_unmodified(ctx, pkt);
            return None;
        }
        Some((key, pkt))
    }

    /// Forward `pkt` by FIB alone, as plain L2 and the slow path do.
    pub(crate) fn forward_unmodified(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, pkt: Packet) {
        if let Some(port) = self.fib.egress_for(&pkt) {
            ctx.enqueue(port, pkt);
        }
    }

    /// Remember a fetched entry in the cache, if there is one.
    pub(crate) fn cache_insert(&mut self, key: K, action: ActionEntry) {
        if let Some(cache) = &mut self.cache {
            cache.insert(key, action);
        }
    }

    /// Apply `action` and forward, by its port override or the FIB; an
    /// empty action is the slow path (forwarded unmodified).
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
    /// The data plane's live fingerprints, one byte per slot, bucket by
    /// bucket: the [`slot_fingerprint`] of the key the last WRITE issued to
    /// that slot carried, 0 if it carried none. A byte changes when that
    /// WRITE enters the FIFO channel, as the live filter does, so a bucket
    /// READ issued later covers every slot its key can sit in when the READ
    /// executes.
    live_fingerprints: Vec<u8>,
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
    /// Use the RNIC remote-op engine: misses become hash-probe-and-fetch
    /// ops over their span of the one bucket the live filter names, one
    /// request round trip each.
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
        assert!(
            channel.region_len >= dir.region_bytes(),
            "remote region smaller than the cuckoo table"
        );
        LookupTableProgram {
            front: TableFront::new(fib, channel, cache_capacity),
            live_filter: dir.filter().clone(),
            live_fingerprints: dir.fingerprints(),
            dir,
            pending: IntMap::default(),
            next_lookup: 0,
            next_ctrl: 0,
            steps: VecDeque::new(),
            verify: None,
            control: VecDeque::new(),
            churn: None,
            churn_next: 0,
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

    /// Run misses on the RNIC's remote-op engine: each miss issues one
    /// hash-probe-and-fetch over the span of slots verb mode READs, answered
    /// with the matching slot alone.
    /// Relocations are verbs in both modes. Off (the default) keeps the
    /// one-sided verb wire behavior as the ablation baseline.
    pub fn with_remote_ops(mut self, on: bool) -> LookupTableProgram {
        self.remote_ops = on;
        self
    }

    /// Override the reliability policy (before traffic flows).
    pub fn with_reliability(mut self, rc: ReliableConfig) -> LookupTableProgram {
        self.front.channel.set_config(rc);
        self
    }

    /// Counters.
    pub fn stats(&self) -> LookupStats {
        self.front.stats()
    }

    /// The channel to the table server. Named `pool` for the benchmark
    /// harness, which calls it.
    pub fn pool(&self) -> &ReliableChannel {
        &self.front.channel
    }

    /// Whether the reliability layer gave up and misses punt to the slow
    /// path.
    pub fn is_degraded(&self) -> bool {
        self.front.degraded()
    }

    /// The control-plane cuckoo directory.
    pub fn directory(&self) -> &CuckooDirectory {
        &self.dir
    }

    /// The data plane's live filter.
    pub fn live_filter(&self) -> &ChoiceFilter {
        &self.live_filter
    }

    /// The data plane's live fingerprints, one byte per slot, bucket by
    /// bucket: the [`slot_fingerprint`] of the key the last WRITE issued to
    /// the slot carried, 0 if it carried none.
    pub fn live_fingerprints(&self) -> &[u8] {
        &self.live_fingerprints
    }

    /// Whether no relocation step, verify READ or control op is
    /// outstanding.
    pub fn relocation_idle(&self) -> bool {
        self.steps.is_empty() && self.verify.is_none() && self.control.is_empty()
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

    /// The miss path, on the data plane's live state alone: the live filter
    /// picks the one candidate bucket the flow can live in (h2 if the filter
    /// holds it, else h1), and the miss costs one access to it, spanning
    /// that bucket from the first to the last slot whose live fingerprint
    /// matches the flow's (usually one slot; slot 0 alone when none does).
    /// Verb mode READs the span; remote-op mode sends a hash-probe-and-fetch
    /// over it, which the responder scans in one access and answers with the
    /// matching slot.
    fn remote_lookup(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, flow: FiveTuple, pkt: Packet) {
        let base = self.front.channel.base_va();
        let live = &self.live_fingerprints;
        let (b1, b2) = cuckoo_buckets(&flow, (live.len() / SLOTS_PER_BUCKET) as u64);
        let secondary = b1 != b2 && self.live_filter.contains(&flow);
        let bucket = if secondary { b2 } else { b1 };
        let cookie = self.next_lookup;
        self.next_lookup += 1;
        self.pending.insert(cookie, (flow, pkt));
        let stats = &mut self.front.stats;
        stats.remote_lookups += 1;
        stats.lookup_rtts += 1;
        if secondary {
            stats.filter_secondary_probes += 1;
        }
        let fingerprint = slot_fingerprint(&flow);
        let at = bucket as usize * SLOTS_PER_BUCKET;
        let live = &live[at..at + SLOTS_PER_BUCKET];
        let first = live.iter().position(|&f| f == fingerprint).unwrap_or(0);
        let last = live.iter().rposition(|&f| f == fingerprint).unwrap_or(0);
        stats.miss_slots[last - first] += 1;
        let va = base + ((at + first) * SLOT_BYTES) as u64;
        let len = ((last - first + 1) * SLOT_BYTES) as u32;
        let op = if self.remote_ops {
            Op::Remote(RemoteOp::HashProbe {
                va,
                len: len as u16,
                slot_bytes: SLOT_BYTES as u16,
                key_off: 0,
                key: Operand::new(&slot_key(&flow)),
            })
        } else {
            Op::Read { va, len }
        };
        self.front.channel.submit(ctx, op, cookie);
    }

    /// The end of every lookup: find the parked flow's action in the answer,
    /// apply and cache it, or — an unknown flow, or a filter false positive
    /// steering a non-resident key to h2 — punt to the software slow path,
    /// forwarded unmodified. The answer is a run of slots, each scanned for
    /// the full key here: a bucket READ's slots from the first to the last
    /// whose fingerprint matched (a fingerprint is one byte, so another key
    /// may share it), or the one a hash probe (remote-op mode) matched at
    /// the responder (none on a miss). Resident keys never miss in either
    /// mode: the filter names the bucket each one lives in, and its slot's
    /// fingerprint is its own (the no-transient-miss invariant).
    fn lookup_done(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, cookie: u64, slots: &[u8]) {
        let stats = &mut self.front.stats;
        stats.responses += 1;
        let Some((flow, pkt)) = self.pending.remove(&cookie) else {
            return;
        };
        let found = slots.chunks_exact(SLOT_BYTES).find_map(|slot| {
            let (key, action) = decode_slot(slot)?;
            (key == flow).then_some(action)
        });
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
    /// explicitly acknowledged, and set the slot's live fingerprint to that
    /// of the key the image carries (0 for none) as the WRITE enters the
    /// channel.
    fn write_slot(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, at: SlotRef, image: &[u8]) {
        let fingerprint = decode_slot(image).map_or(0, |(key, _)| slot_fingerprint(&key));
        self.live_fingerprints[at.bucket as usize * SLOTS_PER_BUCKET + at.slot] = fingerprint;
        let cookie = self.next_ctrl_cookie();
        let va = slot_va(self.front.channel.base_va(), at);
        let (body, ack_req) = (WriteBody::inline(image), true);
        let write = Op::Write { va, body, ack_req };
        self.front.channel.submit(ctx, write, cookie);
    }

    /// Issue one plan step onto the wire. `Move`s first READ-verify their
    /// source slot (the WRITE + filter flip happen on the response);
    /// `Write`/`Clear` issue immediately, flipping the live filter at the
    /// same instant their WRITE enters the FIFO channel — that atomicity is
    /// what keeps redirected probes and remote bytes consistent.
    fn issue_step(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, step: Step) {
        let base = self.front.channel.base_va();
        match step {
            Step::Move { from, .. } => {
                let cookie = self.next_ctrl_cookie();
                let (va, len) = (slot_va(base, from), SLOT_BYTES as u32);
                self.front.channel.submit(ctx, Op::Read { va, len }, cookie);
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

    /// A `Move`'s verify READ came back with the source slot's bytes. The
    /// directory is authoritative: on a mismatch count the drift, and
    /// write the correct bytes at the destination either way.
    fn finish_move(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, cookie: u64, slot: &[u8]) {
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
        if slot != expected {
            self.front.stats.verify_mismatches += 1;
        }
        self.write_slot(ctx, to, &expected);
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

    /// The relocation pump: issue queued steps (stopping at a verify round
    /// trip), then plan further control ops. Called after every event batch
    /// and control/churn timer.
    fn advance(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>) {
        if self.front.degraded() {
            return;
        }
        loop {
            if self.verify.is_some() {
                return;
            }
            if let Some(step) = self.steps.pop_front() {
                self.issue_step(ctx, step);
                continue;
            }
            if !self.plan_next_control() {
                return;
            }
        }
    }

    /// Drain the completions in `front.events`, then pump relocations.
    fn consume_events(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>) {
        let mut events = std::mem::take(&mut self.front.events);
        for ev in events.drain(..) {
            match ev {
                // A slot WRITE's acknowledgement (the table sends no
                // atomics): nothing waits on it.
                ChannelEvent::Done {
                    reply: Reply::Ack | Reply::Fetched(_),
                    ..
                } => {}
                ChannelEvent::Done {
                    cookie,
                    reply: Reply::Data(slots),
                    ..
                } if cookie & CTRL_BIT == 0 => self.lookup_done(ctx, cookie, &slots),
                // What is left is a `Move`'s verify READ.
                ChannelEvent::Done {
                    cookie,
                    reply: Reply::Data(slot),
                    ..
                } => self.finish_move(ctx, cookie, &slot),
                ChannelEvent::OpFailed { cookie, .. } => {
                    self.front.stats.failed_ops += 1;
                    if cookie & CTRL_BIT != 0 {
                        // A dying channel abandoned a control op; if it
                        // was the verify READ, drop the step (the table is
                        // degrading anyway).
                        if self.verify.is_some_and(|(_, vc)| vc == cookie) {
                            self.verify = None;
                        }
                    } else if let Some((_, pkt)) = self.pending.remove(&cookie) {
                        // The lookup is gone with the channel: punt the
                        // parked packet to the slow path unmodified.
                        self.front.stats.slow_path += 1;
                        self.front.forward_unmodified(ctx, pkt);
                    }
                }
                // The failed channel is the degraded flag itself.
                ChannelEvent::Failed => {}
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
        } else if let Some((flow, pkt)) = self.front.local_lookup(ctx, in_port, flow_of(&pkt), pkt)
        {
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
        self.front.on_timer(ctx, token);
        self.consume_events(ctx);
    }

    fn program_name(&self) -> &str {
        "lookup-table-primitive"
    }
}

/// The miss geometry: a miss's span, at most a cuckoo bucket, fits a probe's
/// `u16` length and comes back as one response packet, the one access.
const _: () = assert!(BUCKET_BYTES <= MTU);

/// Control plane: install the directory's byte image, empty slots zeroed,
/// into the remote region backing `channel` on `nic` (host-side
/// pre-population, the counterpart of
/// [`install_remote_action`](crate::direct_table::install_remote_action)).
/// Panics when the region does not hold the table, a setup error as in
/// [`LookupTableProgram::cuckoo`].
pub fn install_cuckoo_image(nic: &mut RnicNode, channel: &RdmaChannel, dir: &CuckooDirectory) {
    let region = nic.region_mut(channel.rkey);
    let installed = region.and_then(|r| r.write(channel.base_va, &dir.encode_region()));
    assert!(
        installed.is_ok(),
        "remote region smaller than the cuckoo table"
    );
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::channel::tests::{behind_blackhole, impatient, Blackhole};
    use crate::channel::MAX_RETRIES;
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
        assert_eq!((stats.responses, stats.bucket_misses), (2, 0), "{stats:?}");
        assert_eq!(
            (stats.actions_applied, stats.slow_path),
            (2, 0),
            "{stats:?}"
        );
    }

    /// Remote-op mode probes the one bucket the live filter names, the
    /// bucket verb mode READs: an h1-resident and an h2-resident key each
    /// send one hash probe of their own slot in that bucket, only the h2
    /// probe counts as a secondary probe, and both keys are found.
    #[test]
    fn remote_op_miss_probes_the_bucket_the_filter_names() {
        use std::sync::{Arc, Mutex};
        let mut dir = CuckooDirectory::new(crate::cuckoo::CuckooConfig {
            buckets: 8,
            filter_cells: 512,
            filter_hashes: 2,
            max_plan_steps: 64,
        });
        let keys: Vec<_> = (0..24u16)
            .map(|i| FiveTuple::new(0x0a000001, 0x0a000002, 1000 + i, 80, proto::UDP))
            .collect();
        for (i, key) in keys.iter().enumerate() {
            dir.install(*key, ActionEntry::set_dscp(10 + i as u8))
                .unwrap();
        }
        // A key resident in its first (`h2 = false`) or second bucket.
        let resident = |h2: bool| {
            let found = keys.iter().copied().find(|key| {
                let (b1, b2) = dir.bucket_pair(key);
                let at = dir.position(key).unwrap().bucket;
                b1 != b2 && at == if h2 { b2 } else { b1 }
            });
            found.expect("a load of 3/4 fills both kinds of bucket")
        };
        let flows = [resident(false), resident(true)];
        let at = flows.map(|key| dir.position(&key).unwrap());
        assert_eq!(at.map(|at| at.bucket), flows.map(|key| dir.probe(&key)));
        let dscp_in = flows.map(|key| dir.lookup(&key).unwrap().dscp);

        let (mut nic, channel) = table_server(dir.region_bytes());
        install_cuckoo_image(&mut nic, &channel, &dir);
        let prog = LookupTableProgram::cuckoo(fib(), channel, dir, None).with_remote_ops(true);
        // Per flow: the span its probe named and the secondary-probe count
        // right after it was issued.
        let issued = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&issued);
        let poke = Box::new(
            move |prog: &mut LookupTableProgram, ctx: &mut SwitchCtx<'_, '_, '_>| {
                for flow in flows {
                    let (src, dst) = (MacAddr::local(1), MacAddr::local(2));
                    let pkt = build_data_packet(src, dst, flow, 0, 0, Time::ZERO, 128).unwrap();
                    prog.ingress(ctx, PortId(2), pkt);
                    let base = prog.pool().base_va();
                    let probes: Vec<_> = prog
                        .pool()
                        .ops()
                        .filter_map(|(_, op)| match op {
                            Op::Remote(RemoteOp::HashProbe { va, len, .. }) => {
                                Some((*va - base, *len))
                            }
                            _ => None,
                        })
                        .collect();
                    let secondary = prog.stats().filter_secondary_probes;
                    log.lock()
                        .unwrap()
                        .push((*probes.last().unwrap(), probes.len(), secondary));
                }
            },
        );
        let mut server = None;
        let (mut sim, sw, hole) = behind_blackhole(Poked { prog, poke }, |b, sw| {
            let id = b.add_node(Box::new(nic));
            b.connect(sw, PortId(1), id, PortId(0), LinkSpec::testbed_40g());
            server = Some(id);
        });
        sim.schedule_timer(sw, TimeDelta::ZERO, program_token(POKE));
        sim.run_until(Time::from_micros(100));

        let [h1, h2] = at.map(|at| (slot_va(0, at), SLOT_BYTES as u16));
        let issued = issued.lock().unwrap().clone();
        assert_eq!(issued, [(h1, 1, 0), (h2, 2, 1)]);
        let frames = &sim.node::<Blackhole>(hole).frames;
        let dscp_out = flows.map(|flow| {
            let frame = frames.iter().find(|f| flow_of(f) == Some(flow)).unwrap();
            Ipv4Header::parse(&frame.as_slice()[14..]).unwrap().dscp
        });
        assert_eq!(dscp_out, dscp_in);
        let program = sim
            .node::<SwitchNode>(sw)
            .program::<Poked<LookupTableProgram>>();
        let stats = program.prog.stats();
        assert_eq!(stats.filter_secondary_probes, 1, "{stats:?}");
        assert_eq!((stats.bucket_misses, stats.slow_path), (0, 0), "{stats:?}");
        let nic = sim.node::<RnicNode>(server.unwrap()).stats();
        assert_eq!((nic.ext_ops, nic.ext_op_steps), (2, 2), "{nic:?}");
    }

    /// A verb-mode miss READs its bucket from the first to the last slot
    /// whose live fingerprint matches the flow's. One bucket holds `a`, `c`
    /// and `b` in slots 0-2, where `a` and `b` share a fingerprint, and `d`
    /// is inserted into slot 3; `c` and `d` have fingerprints of their own.
    /// `c` gets a 1-slot READ at its slot, and so does `d` from the moment
    /// its WRITE is issued; `b` gets one READ of slots 0-2 and its own
    /// action; a flow that is not resident, whose fingerprint matches no
    /// slot, a 1-slot READ of slot 0 and a counted bucket miss.
    #[test]
    fn a_verb_miss_reads_only_the_slots_whose_fingerprint_matches() {
        miss_spans_only_the_slots_whose_fingerprint_matches(false);
    }

    /// A remote-op miss probes the span a verb miss READs, the same cases
    /// as the verb test: a 1-slot probe at `c`'s and at `d`'s slot, a 96 B
    /// probe of slots 0-2 for `b`, and a 1-slot probe of slot 0 that the
    /// responder answers with nothing for the flow that is not resident.
    #[test]
    fn a_probe_scans_only_the_slots_whose_fingerprint_matches() {
        miss_spans_only_the_slots_whose_fingerprint_matches(true);
    }

    fn miss_spans_only_the_slots_whose_fingerprint_matches(remote_ops: bool) {
        use std::sync::{Arc, Mutex};
        let mut dir = CuckooDirectory::new(crate::cuckoo::CuckooConfig {
            buckets: 8,
            filter_cells: 512,
            filter_hashes: 2,
            max_plan_steps: 64,
        });
        let flow = |i: u16| FiveTuple::new(0x0a000001, 0x0a000002, 1000 + i, 80, proto::UDP);
        // Flows whose first bucket is flow 0's, picked by their fingerprints.
        let b = dir.bucket_pair(&flow(0)).0;
        let same: Vec<_> = (0..2000)
            .map(flow)
            .filter(|key| dir.bucket_pair(key).0 == b)
            .collect();
        let fp = |key: &FiveTuple| slot_fingerprint(key);
        let (a, b_twin) = (same.iter().enumerate())
            .find_map(|(i, a)| Some((*a, *same[i + 1..].iter().find(|k| fp(k) == fp(a))?)))
            .expect("two of ~250 flows share one of 255 fingerprints");
        let mut others = same.iter().copied().filter(|k| fp(k) != fp(&a));
        let c = others.next().unwrap();
        let d = others.find(|k| fp(k) != fp(&c)).unwrap();
        let unknown = others.find(|k| fp(k) != fp(&c) && fp(k) != fp(&d)).unwrap();
        for (slot, key) in [a, c, b_twin].iter().enumerate() {
            dir.install(*key, ActionEntry::set_dscp(10 + slot as u8))
                .unwrap();
            assert_eq!(dir.position(key), Some(SlotRef { bucket: b, slot }));
        }

        let (mut nic, channel) = table_server(dir.region_bytes());
        install_cuckoo_image(&mut nic, &channel, &dir);
        let prog =
            LookupTableProgram::cuckoo(fib(), channel, dir, None).with_remote_ops(remote_ops);
        let spans = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&spans);
        let flows = [c, d, b_twin, unknown];
        let poke = Box::new(
            move |prog: &mut LookupTableProgram, ctx: &mut SwitchCtx<'_, '_, '_>| {
                for key in flows {
                    if key == d {
                        prog.queue_insert(d, ActionEntry::set_dscp(13));
                        prog.advance(ctx);
                    }
                    let (src, dst) = (MacAddr::local(1), MacAddr::local(2));
                    let pkt = build_data_packet(src, dst, key, 0, 0, Time::ZERO, 128).unwrap();
                    prog.ingress(ctx, PortId(2), pkt);
                    let base = prog.pool().base_va();
                    let mut issued = prog.pool().ops().filter_map(|(cookie, op)| match op {
                        _ if cookie & CTRL_BIT != 0 => None,
                        Op::Read { va, len } if !remote_ops => Some((*va - base, *len)),
                        Op::Remote(RemoteOp::HashProbe { va, len, .. }) if remote_ops => {
                            Some((*va - base, *len as u32))
                        }
                        _ => None,
                    });
                    log.lock().unwrap().push(issued.next_back().unwrap());
                }
            },
        );
        let (mut sim, sw, hole) = behind_blackhole(Poked { prog, poke }, |b, sw| {
            let server = b.add_node(Box::new(nic));
            b.connect(sw, PortId(1), server, PortId(0), LinkSpec::testbed_40g());
        });
        sim.schedule_timer(sw, TimeDelta::ZERO, program_token(POKE));
        sim.run_until(Time::from_micros(100));

        let slot = |slot| slot_va(0, SlotRef { bucket: b, slot });
        let expected = [(slot(1), 32), (slot(3), 32), (slot(0), 96), (slot(0), 32)];
        assert_eq!(*spans.lock().unwrap(), expected);
        let frames = &sim.node::<Blackhole>(hole).frames;
        let dscp = flows.map(|flow| {
            let frame = frames.iter().find(|f| flow_of(f) == Some(flow)).unwrap();
            Ipv4Header::parse(&frame.as_slice()[14..]).unwrap().dscp
        });
        // Slots 1, 3 and 2's actions; the unknown flow leaves unmodified.
        assert_eq!(dscp, [11, 13, 12, 0]);
        let prog = &sim
            .node::<SwitchNode>(sw)
            .program::<Poked<LookupTableProgram>>()
            .prog;
        assert_eq!(prog.live_fingerprints(), prog.directory().fingerprints());
        let stats = prog.stats();
        assert_eq!(stats.miss_slots, [3, 0, 1, 0], "{stats:?}");
        assert_eq!(stats.actions_applied, 3, "{stats:?}");
        assert_eq!((stats.bucket_misses, stats.slow_path), (1, 1), "{stats:?}");
        assert!(prog.relocation_idle());
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
            LookupTableProgram::cuckoo(fib(), channel, dir, None).with_reliability(impatient());
        let poke = Box::new(
            |prog: &mut LookupTableProgram, ctx: &mut SwitchCtx<'_, '_, '_>| {
                prog.ingress(ctx, PortId(2), sample_packet());
            },
        );
        let (mut sim, sw, hole) = behind_blackhole(Poked { prog, poke }, |_, _| {});
        sim.schedule_timer(sw, TimeDelta::ZERO, program_token(POKE));
        sim.run_until(Time::from_millis(1));

        // The READ, its retransmissions, then the packet.
        let frames = &sim.node::<Blackhole>(hole).frames;
        assert_eq!(frames.len(), 2 + MAX_RETRIES as usize);
        assert_eq!(frames[1 + MAX_RETRIES as usize], sample_packet());
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
