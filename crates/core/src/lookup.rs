//! The **lookup-table primitive** (§4): extend exact-match tables into
//! remote DRAM.
//!
//! On a local miss the switch (1) WRITEs the original packet into the
//! flow's remote slot — "by bouncing the original packet to and from the
//! remote buffer, the switch does not need to store the packet when waiting
//! for the table entry" — and (2) immediately READs back the
//! `(action, packet)` pair, applies the action, and optionally caches the
//! entry in local SRAM so subsequent packets of the flow hit locally.
//!
//! Remote slot layout (`entry_size` bytes, indexed by a CRC hash of the
//! 5-tuple):
//!
//! ```text
//! [ action: 16 B ][ len: u16 ][ packet bytes … ]
//! ```
//!
//! The action area is populated by the control plane (the operator's
//! table); the packet area is scratch space owned by the data plane.
//!
//! ## One-RTT cuckoo mode
//!
//! [`TableMode::Cuckoo`] replaces the direct-hash slot array with a
//! two-choice cuckoo table ([`crate::cuckoo`]) plus a counting Bloom filter
//! in switch SRAM ([`extmem_switch::filter`]): the filter tells the data
//! plane *which* of the key's two buckets to READ, so every miss costs
//! exactly one bucket-sized round trip — no collisions, no second probe.
//! Online inserts and deletes run through a relocation planner whose steps
//! this program executes over the reliable channel (READ-verify then WRITE
//! per displaced entry, mirror fan-out preserved); the live filter flips at
//! the instant each destination WRITE is issued, so the FIFO channel
//! guarantees any later bucket READ observes the write and no resident key
//! is ever transiently unfindable. The direct-hash wire behavior stays
//! available (the default constructors) as the ablation baseline.

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
use extmem_wire::extop::{EXTOP_FLAG_HIT, EXTOP_FLAG_SECONDARY};
use extmem_switch::filter::ChoiceFilter;
use extmem_switch::hash::flow_index;
use extmem_switch::switch::RECIRC_PORT;
use extmem_switch::table::{ExactMatchTable, Replacement};
use extmem_switch::{PipelineProgram, SwitchCtx};
use extmem_types::{FiveTuple, IntMap, IntSet, PortId, TimeDelta};
use extmem_wire::ipv4::{internet_checksum, proto};
use extmem_wire::roce::RocePacket;
use extmem_wire::{EthernetHeader, Ipv4Header, MacAddr, Packet, Payload, UdpHeader};
use std::collections::VecDeque;

/// Timer token for the reliability-layer retransmission tick (routed to the
/// program via the switch's program-token bit; distinct from the composite
/// program's 0x41).
const TOKEN_RELIABILITY_TICK: u64 = 0x31;

/// Timer token that drains queued control-plane table ops (cuckoo mode).
/// Well above the pool's per-server tick tokens (`0x31 + i`, probe at
/// `0x31 + n`).
pub const TOKEN_CONTROL: u64 = 0x3A0;

/// Timer token that steps the scripted churn driver (cuckoo mode). The
/// program re-arms it every [`ChurnScript::period`] until the script is
/// exhausted.
pub const TOKEN_CHURN: u64 = 0x3A1;

/// Cookie bit marking control-plane (relocation/maintenance) ops. Bit 63 is
/// the pool's internal bit; data-plane lookup cookies keep bits 62..64
/// clear.
const CTRL_BIT: u64 = 1 << 62;

/// Bytes reserved for the action at the head of each slot.
pub const ACTION_LEN: usize = 16;
/// Bytes of the packet-length field following the action.
const LEN_FIELD: usize = 2;

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

/// What to do with a packet whose flow misses the local cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MissHandling {
    /// The paper's §4 design: WRITE the packet into the remote slot and
    /// READ back `(action, packet)` — "by bouncing the original packet to
    /// and from the remote buffer, the switch does not need to store the
    /// packet when waiting for the table entry".
    #[default]
    Bounce,
    /// The §7 alternative: "recirculate the original packet locally and
    /// wait for the pulled entry, instead of depositing the original
    /// packet. This can save the bandwidth overhead to the remote memory."
    /// Only the 16-byte action is READ; the packet loops through the
    /// recirculation path until the response lands. Requires a local cache
    /// (responses are staged there for the looping packet to find).
    Recirculate,
}

/// Which remote data structure the table runs on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TableMode {
    /// The paper's §4 wire behavior: one slot per flow hash, colliding
    /// flows alias/punt. Kept as the ablation baseline.
    #[default]
    DirectHash,
    /// EMOMA-style one-RTT mode: two-choice cuckoo buckets + switch-side
    /// counting filter; every miss is exactly one bucket READ.
    Cuckoo,
}

/// A control-plane table operation (cuckoo mode), executed asynchronously
/// by the relocation machinery.
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

/// Counters for the lookup program.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LookupStats {
    /// Packets answered by the local SRAM cache.
    pub cache_hits: u64,
    /// Packets that went to remote memory (WRITE+READ issued).
    pub remote_lookups: u64,
    /// READ responses consumed.
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
    /// Recirculation passes taken by waiting packets (Recirculate mode).
    pub recirc_passes: u64,
    /// Action-only READs issued (Recirculate mode).
    pub action_only_reads: u64,
    /// Packets dropped after exhausting the recirculation budget (their
    /// slot's READ or its response was lost).
    pub recirc_budget_drops: u64,
    /// Ops abandoned by the reliability layer (a bounced packet lost to a
    /// channel failover is gone: it lived in remote memory).
    pub failed_ops: u64,
    /// Bucket READs issued (cuckoo mode; equals `remote_lookups` there —
    /// one probe per miss is the whole point).
    pub bucket_reads: u64,
    /// Bucket READs whose response held no matching key (an unknown flow,
    /// or a filter false positive steering a non-resident key to h2).
    pub bucket_misses: u64,
    /// Probes resolved against the secondary bucket (filter-steered in verb
    /// mode; responder-reported hits in remote-op mode).
    pub filter_secondary_probes: u64,
    /// Request round trips issued by the data-plane miss path (bucket READs
    /// in verb mode, hash-probe-and-fetch ops in remote-op mode, WRITE+READ
    /// bounce pairs in direct-hash mode).
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
    /// READs issued per remote miss — the tentpole metric: 1.0 in cuckoo
    /// mode, meaningless (0) when no misses have happened.
    pub fn reads_per_miss(&self) -> f64 {
        if self.remote_lookups == 0 {
            0.0
        } else {
            self.bucket_reads as f64 / self.remote_lookups as f64
        }
    }

    /// Round trips per remote miss, `None` before any miss. 1.0 in cuckoo
    /// mode either way; the remote-op probe additionally covers *both*
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

/// The lookup-table pipeline program.
pub struct LookupTableProgram {
    /// L2 forwarding (also the post-action forwarding step).
    pub fib: Fib,
    pool: ReplicatedPool,
    entry_size: u64,
    entries: u64,
    cache: Option<ExactMatchTable<FiveTuple, ActionEntry>>,
    miss_handling: MissHandling,
    /// Recirculate mode: slots with an action READ in flight (responses
    /// are attributed by cookie, so membership is all we need).
    pending_reads: IntSet<u64>,
    /// Recirculate mode: responses parked until their looping packet
    /// comes around again.
    staged: IntMap<u64, ActionEntry>,
    /// Recirculate mode: passes taken per slot since its READ was issued;
    /// packets whose slot exceeds [`RECIRC_BUDGET`] are dropped (a lost
    /// READ/response must not recirculate packets forever).
    recirc_passes: IntMap<u64, u32>,
    /// Channel failed over: misses punt to the slow path (forward
    /// unmodified); the local cache keeps serving hits.
    degraded: bool,
    /// Completion scratch, reused across calls.
    events: Vec<ChannelEvent>,
    mode: TableMode,
    /// Cuckoo-mode state (`Some` iff `mode == TableMode::Cuckoo`).
    cuckoo: Option<CuckooState>,
    /// Use the RNIC remote-op engine: misses become hash-probe-and-fetch
    /// ops (responder scans both candidate buckets) and relocation `Move`s
    /// become conditional WRITEs — each one request round trip.
    remote_ops: bool,
    stats: LookupStats,
}

/// All cuckoo-mode state of the lookup program.
struct CuckooState {
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
}

impl LookupTableProgram {
    /// Create the program. `cache_capacity = Some(n)` enables an n-entry
    /// local LRU cache (§4: "the switch can (optionally) cache the table
    /// entry in local SRAM").
    pub fn new(
        fib: Fib,
        channel: RdmaChannel,
        entry_size: u64,
        cache_capacity: Option<usize>,
    ) -> LookupTableProgram {
        let mut channel = ReliableChannel::new(channel, ReliableConfig::default());
        channel.set_timer_token(TOKEN_RELIABILITY_TICK);
        Self::over_pool(fib, ReplicatedPool::single(channel), entry_size, cache_capacity)
    }

    /// Create the program over a replicated pool of table servers (index 0
    /// starts as primary). All servers must expose identical region
    /// geometry; the control plane installs each action on every server.
    pub fn replicated(
        fib: Fib,
        channels: Vec<RdmaChannel>,
        entry_size: u64,
        cache_capacity: Option<usize>,
        pool_config: PoolConfig,
    ) -> LookupTableProgram {
        let mut pool = ReplicatedPool::new(
            channels
                .into_iter()
                .map(|ch| ReliableChannel::new(ch, ReliableConfig::default()))
                .collect(),
            pool_config,
        );
        pool.set_timer_tokens(TOKEN_RELIABILITY_TICK);
        Self::over_pool(fib, pool, entry_size, cache_capacity)
    }

    fn over_pool(
        fib: Fib,
        pool: ReplicatedPool,
        entry_size: u64,
        cache_capacity: Option<usize>,
    ) -> LookupTableProgram {
        assert!(
            entry_size as usize > ACTION_LEN + LEN_FIELD,
            "entry too small"
        );
        let entries = pool.region_len() / entry_size;
        assert!(entries > 0, "region smaller than one entry");
        LookupTableProgram {
            fib,
            pool,
            entry_size,
            entries,
            cache: cache_capacity.map(|c| ExactMatchTable::new(c, Replacement::Lru)),
            miss_handling: MissHandling::Bounce,
            pending_reads: IntSet::default(),
            staged: IntMap::default(),
            recirc_passes: IntMap::default(),
            degraded: false,
            events: Vec::new(),
            mode: TableMode::DirectHash,
            cuckoo: None,
            remote_ops: false,
            stats: LookupStats::default(),
        }
    }

    /// Create the program in one-RTT cuckoo mode over a single table
    /// server. `dir` is the pre-populated control-plane directory; install
    /// its byte image on the server with [`install_cuckoo_image`] before
    /// traffic flows.
    pub fn cuckoo(
        fib: Fib,
        channel: RdmaChannel,
        dir: CuckooDirectory,
        cache_capacity: Option<usize>,
    ) -> LookupTableProgram {
        assert_bucket_geometry(&channel);
        let mut channel = ReliableChannel::new(channel, ReliableConfig::default());
        channel.set_timer_token(TOKEN_RELIABILITY_TICK);
        Self::over_cuckoo(fib, ReplicatedPool::single(channel), dir, cache_capacity)
    }

    /// One-RTT cuckoo mode over a replicated pool of table servers (index 0
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
        Self::over_cuckoo(fib, pool, dir, cache_capacity)
    }

    fn over_cuckoo(
        fib: Fib,
        pool: ReplicatedPool,
        dir: CuckooDirectory,
        cache_capacity: Option<usize>,
    ) -> LookupTableProgram {
        assert!(
            pool.region_len() >= dir.region_bytes(),
            "remote region smaller than the cuckoo table"
        );
        let live_filter = dir.filter().clone();
        LookupTableProgram {
            fib,
            pool,
            entry_size: BUCKET_BYTES as u64,
            entries: dir.config().buckets,
            cache: cache_capacity.map(|c| ExactMatchTable::new(c, Replacement::Lru)),
            miss_handling: MissHandling::Bounce,
            pending_reads: IntSet::default(),
            staged: IntMap::default(),
            recirc_passes: IntMap::default(),
            degraded: false,
            events: Vec::new(),
            mode: TableMode::Cuckoo,
            cuckoo: Some(CuckooState {
                live_filter,
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
            }),
            remote_ops: false,
            stats: LookupStats::default(),
        }
    }

    /// Attach a scripted churn sequence (cuckoo mode). Kick it by
    /// scheduling [`TOKEN_CHURN`] (via `program_token`) at the desired
    /// start time; it then self-paces at `script.period`.
    pub fn with_churn(mut self, script: ChurnScript) -> LookupTableProgram {
        let cs = self.cuckoo.as_mut().expect("churn needs cuckoo mode");
        cs.churn = Some(script);
        self
    }

    /// Run misses and relocations on the RNIC's remote-op engine (cuckoo
    /// mode): each miss issues one hash-probe-and-fetch that checks both
    /// candidate buckets server-side, and each relocation `Move` collapses
    /// its verify READ + destination WRITE into one conditional WRITE. Off
    /// (the default) keeps the one-sided verb wire behavior as the
    /// ablation baseline.
    pub fn with_remote_ops(mut self, on: bool) -> LookupTableProgram {
        assert_eq!(self.mode, TableMode::Cuckoo, "remote ops need cuckoo mode");
        self.remote_ops = on;
        self
    }

    /// Whether the remote-op engine is in use for misses and relocations.
    pub fn remote_ops(&self) -> bool {
        self.remote_ops
    }

    /// Switch the miss path to the §7 recirculation alternative. Requires
    /// a local cache (staged actions are promoted into it).
    pub fn with_recirculation(mut self) -> LookupTableProgram {
        assert_eq!(self.mode, TableMode::DirectHash, "cuckoo mode always bounces");
        assert!(self.cache.is_some(), "Recirculate mode needs a local cache");
        self.miss_handling = MissHandling::Recirculate;
        self
    }

    /// Override the reliability policy (before traffic flows).
    pub fn with_reliability(mut self, rc: ReliableConfig) -> LookupTableProgram {
        self.pool.set_config(rc);
        self
    }

    /// Counters.
    pub fn stats(&self) -> LookupStats {
        let ch = self.pool.channel_stats();
        let mut s = self.stats;
        s.naks = ch.naks;
        s.channel = ch;
        s.pool = self.pool.stats();
        s
    }

    /// The replication pool underneath (health/failover inspection).
    pub fn pool(&self) -> &ReplicatedPool {
        &self.pool
    }

    /// Whether the reliability layer gave up and misses punt to the slow
    /// path.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Cache hit-rate so far (0 when the cache is disabled).
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache.as_ref().map_or(0.0, |c| c.hit_rate())
    }

    /// The number of remote slots.
    pub fn remote_entries(&self) -> u64 {
        self.entries
    }

    /// The remote slot a flow maps to (direct-hash mode; in cuckoo mode
    /// residency is decided by the directory, not this arithmetic).
    pub fn slot_of(&self, flow: &FiveTuple) -> u64 {
        flow_index(flow, self.entries)
    }

    /// Which remote data structure this table runs on.
    pub fn mode(&self) -> TableMode {
        self.mode
    }

    /// The control-plane cuckoo directory (cuckoo mode).
    pub fn directory(&self) -> Option<&CuckooDirectory> {
        self.cuckoo.as_ref().map(|cs| &cs.dir)
    }

    /// The data plane's live filter (cuckoo mode).
    pub fn live_filter(&self) -> Option<&ChoiceFilter> {
        self.cuckoo.as_ref().map(|cs| &cs.live_filter)
    }

    /// Whether no relocation step, verify READ, control op, or reseed is
    /// outstanding (cuckoo mode; trivially true otherwise).
    pub fn relocation_idle(&self) -> bool {
        self.cuckoo.as_ref().is_none_or(|cs| {
            cs.steps.is_empty() && cs.verify.is_none() && cs.control.is_empty() && !cs.reseeding
        })
    }

    /// Queue an insert/update for asynchronous execution (cuckoo mode).
    /// Drained on the next event or [`TOKEN_CONTROL`] firing.
    pub fn queue_insert(&mut self, key: FiveTuple, action: ActionEntry) {
        let cs = self.cuckoo.as_mut().expect("inserts need cuckoo mode");
        cs.control.push_back(ControlOp::Insert(key, action));
    }

    /// Queue a delete for asynchronous execution (cuckoo mode).
    pub fn queue_remove(&mut self, key: FiveTuple) {
        let cs = self.cuckoo.as_mut().expect("removes need cuckoo mode");
        cs.control.push_back(ControlOp::Remove(key));
    }

    /// Cuckoo miss path. Verb mode: probe the live filter, READ exactly one
    /// bucket. Remote-op mode: issue one hash-probe-and-fetch naming both
    /// candidate buckets — the responder scans them in place, so the SRAM
    /// filter drops off the miss path entirely and a filter false positive
    /// can no longer misdirect the probe.
    fn cuckoo_lookup(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, flow: FiveTuple, pkt: Packet) {
        let base = self.pool.base_va();
        let remote_ops = self.remote_ops;
        let cs = self.cuckoo.as_mut().expect("cuckoo state");
        let buckets = cs.dir.config().buckets;
        let bucket = crate::cuckoo::probe_with(&cs.live_filter, &flow, buckets);
        let (b1, b2) = cs.dir.bucket_pair(&flow);
        let secondary = bucket == b2 && b1 != b2;
        let cookie = cs.next_lookup;
        cs.next_lookup += 1;
        cs.pending.insert(cookie, (flow, pkt));
        self.stats.remote_lookups += 1;
        self.stats.bucket_reads += 1;
        self.stats.lookup_rtts += 1;
        let op = if remote_ops {
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
                self.stats.filter_secondary_probes += 1;
            }
            let va = base + bucket * BUCKET_BYTES as u64;
            let len = BUCKET_BYTES as u32;
            Op::Read { va, len }
        };
        self.pool.submit(ctx, op, cookie);
    }

    /// A lookup's response is in: take its parked flow and packet.
    fn take_pending(&mut self, cookie: u64) -> Option<(FiveTuple, Packet)> {
        self.stats.responses += 1;
        let cs = self.cuckoo.as_mut().expect("cuckoo state");
        cs.pending.remove(&cookie)
    }

    /// A bucket READ response: scan the four slots for the pending flow.
    fn cuckoo_read_done(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, cookie: u64, data: &Payload) {
        let Some((flow, pkt)) = self.take_pending(cookie) else {
            return;
        };
        let found = (0..SLOTS_PER_BUCKET).find_map(|s| slot_match(data, s, &flow));
        self.finish_lookup(ctx, flow, pkt, found);
    }

    /// A hash-probe response (remote-op mode). The responder already
    /// scanned both candidate buckets; on a hit `index` names the matching
    /// slot within the returned bucket image.
    fn cuckoo_probe_done(
        &mut self,
        ctx: &mut SwitchCtx<'_, '_, '_>,
        cookie: u64,
        flags: u8,
        index: u16,
        data: &Payload,
    ) {
        let Some((flow, pkt)) = self.take_pending(cookie) else {
            return;
        };
        let found = if flags & EXTOP_FLAG_HIT != 0 {
            slot_match(data, index as usize, &flow)
        } else {
            None
        };
        if found.is_some() && flags & EXTOP_FLAG_SECONDARY != 0 {
            self.stats.filter_secondary_probes += 1;
        }
        self.finish_lookup(ctx, flow, pkt, found);
    }

    /// The end of every cuckoo lookup, however the slot was found: apply
    /// and cache the action, or — an unknown flow, or in verb mode a filter
    /// false positive for a non-resident key — punt to the software slow
    /// path, forwarded unmodified. Resident keys never miss (the
    /// no-transient-miss invariant), and a hash probe's miss is definitive:
    /// both buckets were checked in the one round trip.
    fn finish_lookup(
        &mut self,
        ctx: &mut SwitchCtx<'_, '_, '_>,
        flow: FiveTuple,
        pkt: Packet,
        found: Option<ActionEntry>,
    ) {
        let Some(action) = found else {
            self.stats.bucket_misses += 1;
            self.stats.slow_path += 1;
            if let Some(port) = self.fib.egress_for(&pkt) {
                ctx.enqueue(port, pkt);
            }
            return;
        };
        if let Some(cache) = &mut self.cache {
            cache.insert(flow, action);
        }
        self.apply_and_forward(ctx, pkt, action);
    }

    fn next_ctrl_cookie(&mut self) -> u64 {
        let cs = self.cuckoo.as_mut().expect("cuckoo state");
        let cookie = CTRL_BIT | cs.next_ctrl;
        cs.next_ctrl += 1;
        cookie
    }

    /// WRITE one slot's `image` at `at` as a control op of its own,
    /// explicitly acknowledged.
    fn write_slot(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, at: SlotRef, image: &[u8]) {
        let cookie = self.next_ctrl_cookie();
        let va = slot_va(self.pool.base_va(), at);
        let (body, ack_req) = (WriteBody::inline(image), true);
        let write = Op::Write { va, body, ack_req };
        self.pool.submit(ctx, write, cookie);
    }

    /// Issue one plan step onto the wire. `Move`s first READ-verify their
    /// source slot (the WRITE + filter flip happen on the response);
    /// `Write`/`Clear` issue immediately, flipping the live filter at the
    /// same instant their WRITE enters the FIFO channel — that atomicity is
    /// what keeps redirected probes and remote bytes consistent.
    fn issue_step(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, step: Step) {
        let base = self.pool.base_va();
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
                self.pool.submit(ctx, check, cookie);
                self.cuckoo.as_mut().expect("cuckoo state").verify = Some((step, cookie));
            }
            Step::Write {
                key,
                action,
                to,
                filter_add,
            } => {
                self.write_slot(ctx, to, &encode_slot(&key, &action));
                if filter_add {
                    self.cuckoo
                        .as_mut()
                        .expect("cuckoo state")
                        .live_filter
                        .insert(&key);
                }
            }
            Step::Clear { at, filter_sub } => {
                self.write_slot(ctx, at, &[0u8; SLOT_BYTES]);
                if let Some(key) = filter_sub {
                    self.cuckoo
                        .as_mut()
                        .expect("cuckoo state")
                        .live_filter
                        .remove(&key);
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
        let cs = self.cuckoo.as_mut().expect("cuckoo state");
        let Some((step, vc)) = cs.verify else {
            return;
        };
        if vc != cookie {
            return;
        }
        cs.verify = None;
        let Step::Move {
            key, action, to, ..
        } = step
        else {
            return;
        };
        let expected = encode_slot(&key, &action);
        let matched = matched(&expected);
        if !matched {
            self.stats.verify_mismatches += 1;
        }
        if !(matched && self.remote_ops) {
            self.write_slot(ctx, to, &expected);
        }
        self.cuckoo
            .as_mut()
            .expect("cuckoo state")
            .live_filter
            .insert(&key);
        self.stats.relocation_moves += 1;
    }

    /// Plan the next queued control op (only with the step queue drained).
    /// Returns `false` when nothing was planned.
    fn plan_next_control(&mut self) -> bool {
        let cs = self.cuckoo.as_mut().expect("cuckoo state");
        let Some(op) = cs.control.pop_front() else {
            return false;
        };
        match op {
            ControlOp::Insert(key, action) => match cs.dir.plan_insert(key, action) {
                Ok(plan) => {
                    self.stats.inserts_applied += 1;
                    self.stats.relocation_chain_max =
                        self.stats.relocation_chain_max.max(plan.moves as u64);
                    self.stats.filter_fp_moves += plan.fp_moves as u64;
                    cs.steps.extend(plan.steps);
                    if let Some(cache) = &mut self.cache {
                        // An update must not keep serving a stale action.
                        cache.remove(&key);
                    }
                }
                Err(_) => self.stats.inserts_rejected += 1,
            },
            ControlOp::Remove(key) => {
                if let Some(plan) = cs.dir.plan_remove(&key) {
                    self.stats.removes_applied += 1;
                    cs.steps.extend(plan.steps);
                    if let Some(cache) = &mut self.cache {
                        cache.remove(&key);
                    }
                }
            }
        }
        true
    }

    /// Pop one scripted churn op into the control queue and re-arm.
    fn step_churn(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>) {
        let cs = self.cuckoo.as_mut().expect("cuckoo state");
        let Some(script) = &cs.churn else {
            return;
        };
        if cs.churn_next >= script.ops.len() {
            return;
        }
        let op = script.ops[cs.churn_next];
        let period = script.period;
        cs.churn_next += 1;
        let more = cs.churn_next < script.ops.len();
        cs.control.push_back(op);
        if more {
            ctx.schedule(period, TOKEN_CHURN);
        }
    }

    /// Reconcile a rejoining replica from the directory: once relocations
    /// are idle, write the directory's byte image onto it and let the pool
    /// promote it. Control ops hold while the reseed is in flight so the
    /// image cannot go stale.
    fn maybe_reseed(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>) {
        let active = self.pool.reseed_active();
        let pending = self.pool.rejoin_pending();
        let base = self.pool.base_va();
        let cs = self.cuckoo.as_mut().expect("cuckoo state");
        if cs.reseeding {
            if active {
                return;
            }
            cs.reseeding = false; // finished (or aborted; a re-probe retries)
        }
        if pending && cs.verify.is_none() && cs.steps.is_empty() {
            let image = cs.dir.encode_writes(base);
            if self.pool.reseed_rejoiner(ctx, image) {
                self.cuckoo.as_mut().expect("cuckoo state").reseeding = true;
            }
        }
    }

    /// The relocation pump: issue queued steps (stopping at a verify round
    /// trip), then plan further control ops, then check reseed. Called
    /// after every event batch and control/churn timer.
    fn advance(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>) {
        if self.mode != TableMode::Cuckoo || self.degraded {
            return;
        }
        self.maybe_reseed(ctx);
        loop {
            let cs = self.cuckoo.as_mut().expect("cuckoo state");
            if cs.verify.is_some() {
                return;
            }
            if let Some(step) = cs.steps.pop_front() {
                self.issue_step(ctx, step);
                continue;
            }
            if cs.reseeding || !self.plan_next_control() {
                return;
            }
        }
    }

    /// Forward `pkt` after its action was applied.
    fn forward(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, pkt: Packet, action: &ActionEntry) {
        let port = action.port_override.or_else(|| self.fib.egress_for(&pkt));
        if let Some(port) = port {
            ctx.enqueue(port, pkt);
        }
    }

    fn apply_and_forward(
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
        self.forward(ctx, pkt, &action);
    }

    /// Remote lookup: bounce the packet through the flow's slot.
    fn remote_lookup(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, flow: FiveTuple, pkt: Packet) {
        self.stats.remote_lookups += 1;
        // The WRITE and READ are issued back-to-back into the FIFO channel,
        // so the bounce pair costs one round trip of latency.
        self.stats.lookup_rtts += 1;
        let slot = self.slot_of(&flow);
        let entry_va = self.pool.base_va() + slot * self.entry_size;

        // (1) WRITE [len][packet] into the slot's scratch area: the length
        // in front of the arrival frame itself, which the outstanding WRITE
        // owns from here on. No explicit ACK: the READ right behind it
        // completes both (in-order channel), and a timeout replays the pair.
        let len = (ACTION_LEN + LEN_FIELD + pkt.len()) as u32;
        let bounce = Op::Write {
            va: entry_va + ACTION_LEN as u64,
            body: WriteBody::framed(&(pkt.len() as u16).to_be_bytes(), pkt.into_payload()),
            ack_req: false,
        };
        self.pool.submit(ctx, bounce, slot);

        // (2) READ back exactly [action][len][packet].
        self.pool.submit(ctx, Op::Read { va: entry_va, len }, slot);
    }

    /// Recirculate-mode miss: issue an action-only READ (once per slot)
    /// and send the packet around the recirculation path. A bounded
    /// per-slot pass budget keeps a lost READ (or response) from looping
    /// packets forever: once exceeded, the packet is dropped and the slot
    /// reset so the next arrival re-issues the READ.
    fn recirculate_miss(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, flow: FiveTuple, pkt: Packet) {
        /// Passes allowed before declaring the slot's READ lost. At the
        /// default 800 ns recirculation latency this is ~50 µs of waiting —
        /// far beyond any healthy response time.
        const RECIRC_BUDGET: u32 = 64;
        let slot = self.slot_of(&flow);
        if let Some(&action) = self.staged.get(&slot) {
            // The response already landed while we were looping.
            self.staged.remove(&slot);
            self.recirc_passes.remove(&slot);
            if let Some(cache) = &mut self.cache {
                cache.insert(flow, action);
            }
            self.apply_and_forward(ctx, pkt, action);
            return;
        }
        if self.pending_reads.insert(slot) {
            self.stats.remote_lookups += 1;
            self.stats.action_only_reads += 1;
            self.stats.lookup_rtts += 1;
            let va = self.pool.base_va() + slot * self.entry_size;
            let len = ACTION_LEN as u32;
            self.pool.submit(ctx, Op::Read { va, len }, slot);
        }
        let passes = self.recirc_passes.entry(slot).or_insert(0);
        *passes += 1;
        if *passes > RECIRC_BUDGET {
            self.recirc_passes.remove(&slot);
            self.pending_reads.remove(&slot);
            self.stats.recirc_budget_drops += 1;
            return; // drop the packet: best-effort under loss
        }
        self.stats.recirc_passes += 1;
        ctx.recirculate(pkt);
    }

    /// Process a complete READ-response entry (Bounce mode).
    fn consume_entry(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, entry: &Payload) {
        self.stats.responses += 1;
        if entry.len() < ACTION_LEN + LEN_FIELD {
            return;
        }
        let action = ActionEntry::from_bytes(entry[..ACTION_LEN].try_into().unwrap());
        let len = u16::from_be_bytes(
            entry[ACTION_LEN..ACTION_LEN + LEN_FIELD]
                .try_into()
                .unwrap(),
        ) as usize;
        let body = &entry[ACTION_LEN + LEN_FIELD..];
        if len == 0 || len > body.len() {
            return;
        }
        // Zero-copy: the released packet is a window into the READ
        // response's (shared) buffer.
        let body_at = ACTION_LEN + LEN_FIELD;
        let pkt = Packet::from_payload(entry.slice(body_at..body_at + len));
        // Cache under the *returned* packet's flow (the slot owner).
        if let Some(flow) = flow_of(&pkt) {
            if let Some(cache) = &mut self.cache {
                cache.insert(flow, action);
            }
        }
        self.apply_and_forward(ctx, pkt, action);
    }

    fn on_roce(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, in_port: PortId, roce: &RocePacket) {
        let mut events = std::mem::take(&mut self.events);
        self.pool.on_roce(ctx, in_port, roce, &mut events);
        self.consume_events(ctx, &mut events);
        self.events = events;
        self.advance(ctx);
    }

    fn consume_events(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, events: &mut Vec<ChannelEvent>) {
        for ev in events.drain(..) {
            match ev {
                ChannelEvent::Done {
                    cookie,
                    reply: Reply::Data(data),
                    ..
                } => match self.mode {
                    TableMode::Cuckoo => {
                        if cookie & CTRL_BIT != 0 {
                            self.finish_move(ctx, cookie, |expected| {
                                data.get(..SLOT_BYTES) == Some(&expected[..])
                            });
                        } else {
                            self.cuckoo_read_done(ctx, cookie, &data);
                        }
                    }
                    TableMode::DirectHash => match self.miss_handling {
                        MissHandling::Bounce => self.consume_entry(ctx, &data),
                        MissHandling::Recirculate => {
                            self.stats.responses += 1;
                            if data.len() >= ACTION_LEN && self.pending_reads.remove(&cookie) {
                                let action =
                                    ActionEntry::from_bytes(data[..ACTION_LEN].try_into().unwrap());
                                self.staged.insert(cookie, action);
                            }
                        }
                    },
                },
                ChannelEvent::Done {
                    cookie,
                    reply: Reply::Remote { flags, index, data },
                    ..
                } => {
                    if cookie & CTRL_BIT != 0 {
                        self.finish_move(ctx, cookie, |_| flags & EXTOP_FLAG_HIT != 0);
                    } else {
                        self.cuckoo_probe_done(ctx, cookie, flags, index, &data);
                    }
                }
                // A WRITE's acknowledgement: nothing waits on it.
                ChannelEvent::Done { .. } => {}
                ChannelEvent::OpFailed { cookie, .. } => {
                    self.stats.failed_ops += 1;
                    match self.mode {
                        TableMode::Cuckoo => {
                            let cs = self.cuckoo.as_mut().expect("cuckoo state");
                            if cookie & CTRL_BIT != 0 {
                                // A dying pool abandoned a control op; if it
                                // was the verify READ, drop the step (the
                                // table is degrading anyway).
                                if cs.verify.is_some_and(|(_, vc)| vc == cookie) {
                                    cs.verify = None;
                                }
                            } else if let Some((_, pkt)) = cs.pending.remove(&cookie) {
                                // The lookup is gone with the pool: punt the
                                // parked packet to the slow path unmodified.
                                self.stats.slow_path += 1;
                                if let Some(port) = self.fib.egress_for(&pkt) {
                                    ctx.enqueue(port, pkt);
                                }
                            }
                        }
                        TableMode::DirectHash => {
                            if self.miss_handling == MissHandling::Recirculate {
                                // Let the next arrival for this slot re-issue
                                // (or, degraded, punt to the slow path).
                                self.pending_reads.remove(&cookie);
                            }
                        }
                    }
                }
                ChannelEvent::Failed => self.degraded = true,
            }
        }
    }
}

impl PipelineProgram for LookupTableProgram {
    fn ingress(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, in_port: PortId, pkt: Packet) {
        if self.pool.owns_port(in_port) {
            if let Ok(Some(roce)) = RocePacket::parse(&pkt) {
                self.on_roce(ctx, in_port, &roce);
                return;
            }
        }
        let Some(flow) = flow_of(&pkt) else {
            self.stats.non_flow += 1;
            if let Some(port) = self.fib.egress_for(&pkt) {
                ctx.enqueue(port, pkt);
            }
            return;
        };
        if let Some(cache) = &mut self.cache {
            if let Some(&action) = cache.lookup(&flow) {
                // A first-pass arrival is a real cache hit; a looping
                // packet finding its freshly promoted entry is not.
                if in_port != RECIRC_PORT {
                    self.stats.cache_hits += 1;
                }
                self.apply_and_forward(ctx, pkt, action);
                return;
            }
        }
        if self.degraded {
            // §7 graceful degradation: the remote table is unreachable, so
            // misses punt to the software slow path (forward unmodified).
            self.stats.slow_path += 1;
            if let Some(port) = self.fib.egress_for(&pkt) {
                ctx.enqueue(port, pkt);
            }
            return;
        }
        match self.mode {
            TableMode::Cuckoo => self.cuckoo_lookup(ctx, flow, pkt),
            TableMode::DirectHash => match self.miss_handling {
                MissHandling::Bounce => self.remote_lookup(ctx, flow, pkt),
                MissHandling::Recirculate => self.recirculate_miss(ctx, flow, pkt),
            },
        }
    }

    fn on_timer(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, token: u64) {
        if self.mode == TableMode::Cuckoo && (token == TOKEN_CONTROL || token == TOKEN_CHURN) {
            if token == TOKEN_CHURN {
                self.step_churn(ctx);
            }
            self.advance(ctx);
            return;
        }
        let mut events = std::mem::take(&mut self.events);
        self.pool.on_timer(ctx, token, &mut events);
        self.consume_events(ctx, &mut events);
        self.events = events;
        self.advance(ctx);
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
/// backing `channel` on `nic` (host-side pre-population, the cuckoo-mode
/// analogue of [`install_remote_action`]). With replication, call once per
/// server.
pub fn install_cuckoo_image(nic: &mut RnicNode, channel: &RdmaChannel, dir: &CuckooDirectory) {
    for (va, bytes) in dir.encode_writes(channel.base_va) {
        nic.region_mut(channel.rkey)
            .write(va, &bytes)
            .expect("image in bounds");
    }
}

/// Control plane: install `action` for `flow` in the remote table backing
/// `channel` on `nic`. This is the operator populating the table (e.g. the
/// §2.2 VIP→PIP mappings) and runs host-side, not on the data plane.
pub fn install_remote_action(
    nic: &mut RnicNode,
    channel: &RdmaChannel,
    entry_size: u64,
    flow: &FiveTuple,
    action: ActionEntry,
) -> u64 {
    let entries = channel.region_len / entry_size;
    let slot = flow_index(flow, entries);
    let va = channel.base_va + slot * entry_size;
    nic.region_mut(channel.rkey)
        .write(va, &action.to_bytes())
        .expect("install in bounds");
    slot
}

#[cfg(test)]
mod tests {
    use super::*;
    use extmem_types::Time;
    use extmem_wire::payload::build_data_packet;

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

    /// A pair of distinct flows that alias under the direct-hash table
    /// arithmetic (`flow_index` over `entries` slots).
    fn colliding_pair(entries: u64) -> (FiveTuple, FiveTuple) {
        use extmem_switch::hash::flow_index;
        for a in 0..500u32 {
            for b2 in (a + 1)..500 {
                let fa = FiveTuple::new(0x0a000001, 0x0a000002, 1000 + a as u16, 80, 17);
                let fb = FiveTuple::new(0x0a000001, 0x0a000002, 1000 + b2 as u16, 80, 17);
                if flow_index(&fa, entries) == flow_index(&fb, entries) {
                    return (fa, fb);
                }
            }
        }
        panic!("a collision must exist in 500 flows over {entries} slots");
    }

    #[test]
    fn direct_hash_colliding_flows_share_a_slot_action() {
        // The remote table is direct-indexed by a hash: two flows mapping
        // to the same slot get the same action — a property of the §4
        // design the control plane must manage (size the table, detect
        // collisions at install time). Verify the arithmetic surfaces it.
        use extmem_switch::hash::flow_index;
        let entries = 64u64; // small table to force a collision quickly
        let (fa, fb) = colliding_pair(entries);
        assert_eq!(flow_index(&fa, entries), flow_index(&fb, entries));
        assert_ne!(fa, fb);
    }

    #[test]
    fn cuckoo_mode_resolves_the_same_colliding_pair() {
        // The exact pair the direct-hash table aliases gets two distinct
        // entries in cuckoo mode, each findable where the filter-steered
        // probe points — one READ each, no punt.
        use crate::cuckoo::{probe_with, CuckooConfig, CuckooDirectory};
        let entries = 64u64;
        let (fa, fb) = colliding_pair(entries);
        let mut dir = CuckooDirectory::new(CuckooConfig {
            buckets: entries,
            filter_cells: 512,
            filter_hashes: 2,
            max_plan_steps: 64,
        });
        dir.install(fa, ActionEntry::set_dscp(46)).unwrap();
        dir.install(fb, ActionEntry::set_dscp(12)).unwrap();
        assert_eq!(dir.lookup(&fa), Some(ActionEntry::set_dscp(46)));
        assert_eq!(dir.lookup(&fb), Some(ActionEntry::set_dscp(12)));
        for f in [&fa, &fb] {
            let probed = probe_with(dir.filter(), f, entries);
            assert_eq!(
                probed,
                dir.position(f).unwrap().bucket,
                "probe must point at residency"
            );
        }
        dir.check_invariants();
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
