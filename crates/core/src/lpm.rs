//! Longest-prefix matching over remote memory — the §7 co-design problem.
//!
//! §7: "The current design based on commodity switch and RNICs can only
//! support address-based memory access. They do not natively support
//! ternary or exact matching. Thus, we design our prototypes using the most
//! basic data structure like FIFO queues and fixed-size array. It would be
//! interesting to co-design the data structure and switch data plane for
//! supporting ternary matching."
//!
//! This module is one such co-design, for the most common ternary workload
//! (IPv4 LPM). The classic trick of hash-based LPM applies: a route table
//! over a fixed ladder of prefix lengths becomes one exact-match array per
//! length. The switch masks the destination address once per rung and
//! issues **one 16-byte action READ per rung back-to-back on the same QP**;
//! since RC responses return in issue order, the data plane just scans the
//! response burst for the longest rung that hit. The packet itself waits in
//! the (modeled) recirculation loop rather than being deposited remotely —
//! READ traffic is `16 B × rungs` per miss regardless of packet size.
//!
//! Remote layout: for rung `i` (prefix length `L_i`), an array of
//! `slots_per_level` 16-byte [`ActionEntry`]s indexed by
//! `hash(L_i ‖ masked_addr)`. An all-zero entry means "no route at this
//! rung" (the [`ActionKind::None`] encoding).
//!
//! **Response attribution:** every rung READ goes through the shared
//! [`ReliableChannel`] with a `lookup-id × rung` cookie, so responses are
//! matched to lookups by PSN rather than by position. Lost READs (or
//! responses) are retransmitted; reordered responses fill their rung slot
//! whenever they land; and if the channel fails over entirely the program
//! degrades to FIB-only forwarding — wrong routes are structurally
//! impossible, not just unlikely.

use crate::channel::{ChannelEvent, Op, RdmaChannel, ReliableConfig};
use crate::fib::Fib;
use crate::lookup::{ActionEntry, ActionKind, LookupStats, TableFront, ACTION_LEN};
use extmem_rnic::{RemoteOp, RnicNode};
use extmem_switch::hash::hash_to_index;
use extmem_switch::{PipelineProgram, SwitchCtx};
use extmem_types::{IntMap, PortId};
use extmem_wire::ipv4::proto;
use extmem_wire::{EthernetHeader, Ipv4Header, Packet};

/// One in-flight lookup: the waiting packet plus the responses collected
/// so far (one slot per rung, longest prefix first; filled in any order).
struct PendingLookup {
    pkt: Packet,
    dst: u32,
    collected: Vec<Option<ActionEntry>>,
    missing: usize,
}

/// The remote-LPM pipeline program: a table front whose cache is keyed by
/// destination address, over a ladder of per-rung remote arrays.
pub struct RemoteLpmProgram {
    front: TableFront<u32>,
    /// Prefix lengths, longest first (e.g. `[32, 24, 16, 8]`).
    levels: Vec<u8>,
    slots_per_level: u64,
    /// In-flight lookups by id; rung responses are attributed via the
    /// `id × rungs + rung` channel cookie.
    pending: IntMap<u64, PendingLookup>,
    next_id: u64,
    /// Collapse each miss's rung ladder into a single gather/walk remote
    /// op (one RTT per miss) instead of per-rung READs.
    remote_ops: bool,
}

/// The byte the control plane and data plane hash for rung `level` and
/// destination `dst`: `level ‖ masked(dst)`.
fn rung_key(level: u8, dst: u32) -> [u8; 5] {
    let masked = mask(dst, level);
    let mut k = [0u8; 5];
    k[0] = level;
    k[1..5].copy_from_slice(&masked.to_be_bytes());
    k
}

/// Normalize a prefix ladder the way [`RemoteLpmProgram::new`] does:
/// longest first, duplicates removed. The control plane must install
/// routes against the *same* normalized ladder the data plane reads
/// ([`install_remote_route`] applies this itself).
pub fn normalize_levels(levels: &mut Vec<u8>) {
    levels.sort_unstable_by(|a, b| b.cmp(a));
    levels.dedup();
}

/// Apply a prefix mask of `len` bits.
pub fn mask(addr: u32, len: u8) -> u32 {
    match len {
        0 => 0,
        32 => addr,
        l => addr & (u32::MAX << (32 - l)),
    }
}

/// The destination IPv4 address of an Ethernet/IPv4 UDP or TCP frame, the
/// key the ladder is walked with. The frame must carry its L4 ports, which
/// a `KvRespond` action swaps; a shorter one is plain L2 traffic.
fn dst_of(pkt: &Packet) -> Option<u32> {
    const L4_PORTS_END: usize = EthernetHeader::LEN + Ipv4Header::LEN + 4;
    if pkt.len() < L4_PORTS_END {
        return None;
    }
    let eth = EthernetHeader::parse(pkt.as_slice()).ok()?;
    if eth.ethertype != extmem_wire::EtherType::Ipv4 {
        return None;
    }
    let ip = Ipv4Header::parse(&pkt.as_slice()[EthernetHeader::LEN..]).ok()?;
    if ip.protocol != proto::UDP && ip.protocol != proto::TCP {
        return None;
    }
    Some(ip.dst)
}

impl RemoteLpmProgram {
    /// Create the program. `levels` is the prefix ladder (will be sorted
    /// longest-first); the channel's region is divided evenly among rungs.
    pub fn new(
        fib: Fib,
        channel: RdmaChannel,
        mut levels: Vec<u8>,
        cache_capacity: Option<usize>,
    ) -> RemoteLpmProgram {
        assert!(!levels.is_empty(), "need at least one prefix length");
        assert!(levels.iter().all(|&l| l <= 32), "IPv4 prefix lengths only");
        normalize_levels(&mut levels);
        let slots_per_level = channel.region_len / (levels.len() as u64 * ACTION_LEN as u64);
        assert!(slots_per_level > 0, "region smaller than one slot per rung");
        RemoteLpmProgram {
            front: TableFront::new(fib, channel, cache_capacity),
            levels,
            slots_per_level,
            pending: IntMap::default(),
            next_id: 0,
            remote_ops: false,
        }
    }

    /// Override the reliability policy (before traffic flows).
    pub fn with_reliability(mut self, rc: ReliableConfig) -> RemoteLpmProgram {
        self.front.channel.set_config(rc);
        self
    }

    /// Toggle the remote-op miss path: `true` collapses each miss's rung
    /// ladder into one gather/walk op executed by the responder NIC — one
    /// RTT per miss regardless of ladder depth — instead of `levels`
    /// parallel READs. Off by default (the verb baseline).
    pub fn with_remote_ops(mut self, on: bool) -> RemoteLpmProgram {
        self.remote_ops = on;
        self
    }

    /// Counters.
    pub fn stats(&self) -> LookupStats {
        self.front.stats()
    }

    /// Whether the reliability layer gave up and misses forward FIB-only.
    pub fn is_degraded(&self) -> bool {
        self.front.degraded()
    }

    /// The VA of the slot for (`level_idx`, `dst`).
    fn slot_va(&self, level_idx: usize, dst: u32) -> u64 {
        let level = self.levels[level_idx];
        let slot = hash_to_index(&rung_key(level, dst), self.slots_per_level);
        self.front.channel.base_va()
            + (level_idx as u64 * self.slots_per_level + slot) * ACTION_LEN as u64
    }

    /// Remote lookup. Verb mode: one action READ per rung, longest prefix
    /// first, each cookie-tagged so the response fills its own rung slot.
    /// Remote-op mode: the whole ladder rides in one gather/walk op (cookie
    /// `id * rungs`, so failure attribution is uniform across modes).
    fn remote_lookup(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, dst: u32, pkt: Packet) {
        self.front.stats.remote_lookups += 1;
        let rungs = self.levels.len();
        let id = self.next_id;
        self.next_id += 1;
        if self.remote_ops {
            let vas = (0..rungs).map(|i| self.slot_va(i, dst)).collect();
            let word_len = ACTION_LEN as u16;
            let ladder = Op::Remote(RemoteOp::Gather { word_len, vas });
            self.front.channel.submit(ctx, ladder, id * rungs as u64);
            self.front.stats.lookup_rtts += 1;
        } else {
            for i in 0..rungs {
                let (va, len) = (self.slot_va(i, dst), ACTION_LEN as u32);
                let cookie = id * rungs as u64 + i as u64;
                self.front.channel.submit(ctx, Op::Read { va, len }, cookie);
                self.front.stats.lookup_rtts += 1;
            }
        }
        self.pending.insert(
            id,
            PendingLookup {
                pkt,
                dst,
                collected: vec![None; rungs],
                missing: rungs,
            },
        );
    }

    /// The longest rung that holds a route wins; no route is the slow path.
    fn resolve(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, lookup: PendingLookup) {
        let route = lookup
            .collected
            .iter()
            .flatten()
            .find(|a| a.kind != ActionKind::None)
            .copied();
        if let Some(action) = route {
            self.front.cache_insert(lookup.dst, action);
        }
        let action = route.unwrap_or(ActionEntry::NONE);
        self.front.apply_and_forward(ctx, lookup.pkt, action);
    }

    /// Drain the completions in `front.events`.
    fn consume_events(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>) {
        let mut events = std::mem::take(&mut self.front.events);
        for ev in events.drain(..) {
            match ev {
                ChannelEvent::Done { cookie, reply, .. } => {
                    let Some(data) = reply.into_data() else {
                        continue;
                    };
                    self.front.stats.responses += 1;
                    let rungs = self.levels.len() as u64;
                    let (id, rung) = (cookie / rungs, (cookie % rungs) as usize);
                    let Some(lookup) = self.pending.get_mut(&id) else {
                        continue;
                    };
                    let entry_at = |at: usize| match data.as_slice().get(at..at + ACTION_LEN) {
                        Some(b) => ActionEntry::from_bytes(b.try_into().unwrap()),
                        None => ActionEntry::NONE,
                    };
                    if self.remote_ops {
                        // One gather response resolves the whole ladder:
                        // rung `i`'s action entry is bytes `i*16..(i+1)*16`.
                        for (i, slot) in lookup.collected.iter_mut().enumerate() {
                            *slot = Some(entry_at(i * ACTION_LEN));
                        }
                        lookup.missing = 0;
                    } else if lookup.collected[rung].replace(entry_at(0)).is_none() {
                        lookup.missing -= 1;
                    }
                    if lookup.missing == 0 {
                        let done = self.pending.remove(&id).unwrap();
                        self.resolve(ctx, done);
                    }
                }
                ChannelEvent::OpFailed { cookie, .. } => {
                    // One rung READ exhausted its retries: the whole lookup
                    // is abandoned (its packet dropped) — wrong-rung routes
                    // are structurally impossible, missing-rung ones aren't.
                    let id = cookie / self.levels.len() as u64;
                    if self.pending.remove(&id).is_some() {
                        self.front.stats.failed_ops += 1;
                    }
                }
                // The failed channel is the degraded flag itself.
                ChannelEvent::Failed => {}
            }
        }
        self.front.events = events;
    }
}

impl PipelineProgram for RemoteLpmProgram {
    fn ingress(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, in_port: PortId, pkt: Packet) {
        if self.front.on_roce(ctx, in_port, &pkt) {
            self.consume_events(ctx);
        } else if let Some((dst, pkt)) = self.front.local_lookup(ctx, in_port, dst_of(&pkt), pkt) {
            self.remote_lookup(ctx, dst, pkt);
        }
    }

    fn on_timer(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, token: u64) {
        self.front.on_timer(ctx, token);
        self.consume_events(ctx);
    }

    fn program_name(&self) -> &str {
        "remote-lpm"
    }
}

/// Control plane: install `(prefix, len) → action` in the remote rung
/// arrays on `nic`. The rung for `len` must be in the program's ladder.
/// `levels` is normalized here exactly as [`RemoteLpmProgram::new`]
/// normalizes its copy, so any order/duplication the caller passes yields
/// the same rung layout the data plane reads.
pub fn install_remote_route(
    nic: &mut RnicNode,
    channel: &RdmaChannel,
    levels: &[u8],
    slots_per_level: u64,
    prefix: u32,
    len: u8,
    action: ActionEntry,
) {
    let mut levels = levels.to_vec();
    normalize_levels(&mut levels);
    let level_idx = levels
        .iter()
        .position(|&l| l == len)
        .expect("prefix length not in the configured ladder");
    let masked = mask(prefix, len);
    let slot = hash_to_index(&rung_key(len, masked), slots_per_level);
    let va = channel.base_va + (level_idx as u64 * slots_per_level + slot) * ACTION_LEN as u64;
    nic.region_mut(channel.rkey)
        .and_then(|region| region.write(va, &action.to_bytes()))
        .expect("route in bounds");
}

/// The slots each rung holds for a region of `region_len` bytes over the
/// given ladder — `levels` is normalized first, exactly as
/// [`RemoteLpmProgram::new`] normalizes its copy, so callers can pass the
/// ladder in any order (with duplicates) and still agree with the data
/// plane's division of the region.
pub fn slots_per_level(region_len: u64, levels: &[u8]) -> u64 {
    let mut levels = levels.to_vec();
    normalize_levels(&mut levels);
    region_len / (levels.len() as u64 * ACTION_LEN as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::RdmaChannel;
    use extmem_rnic::RnicConfig;
    use extmem_sim::{LinkSpec, Node, NodeCtx, SimBuilder, TxQueue};
    use extmem_switch::{SwitchConfig, SwitchNode};
    use extmem_types::{ByteSize, FiveTuple, Time, TimeDelta};
    use extmem_wire::payload::{build_data_packet, parse_data_packet};
    use extmem_wire::MacAddr;

    #[test]
    fn mask_arithmetic() {
        assert_eq!(mask(0x0a0b0c0d, 32), 0x0a0b0c0d);
        assert_eq!(mask(0x0a0b0c0d, 24), 0x0a0b0c00);
        assert_eq!(mask(0x0a0b0c0d, 16), 0x0a0b0000);
        assert_eq!(mask(0x0a0b0c0d, 8), 0x0a000000);
        assert_eq!(mask(0x0a0b0c0d, 0), 0);
    }

    struct Gen {
        dsts: Vec<u32>,
        /// Each frame is cut to this many bytes (128 leaves it whole).
        len: usize,
        sent: usize,
        tx: TxQueue,
    }
    impl Node for Gen {
        fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {}
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _: u64) {
            if self.sent >= self.dsts.len() {
                return;
            }
            let dst = self.dsts[self.sent];
            let flow = FiveTuple::new(0x0a000001, dst, 5000, 9000, 17);
            let pkt = build_data_packet(
                MacAddr::local(1),
                MacAddr::local(200),
                flow,
                self.sent as u32,
                0,
                ctx.now(),
                128,
            )
            .unwrap();
            self.sent += 1;
            let frame = Packet::from_payload(pkt.view(0..self.len));
            self.tx.send(ctx, frame);
            if self.sent < self.dsts.len() {
                ctx.schedule(TimeDelta::from_micros(5), 0);
            }
        }
        fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, _: PortId) {
            self.tx.on_tx_done(ctx);
        }
        fn name(&self) -> &str {
            "gen"
        }
    }

    /// Sink that records the DSCP of each arrival (routes mark DSCP so the
    /// test can tell which rung matched).
    struct Sink {
        dscps: Vec<u8>,
    }
    impl Node for Sink {
        fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, pkt: Packet) {
            if let Ok(Some(info)) = parse_data_packet(&pkt) {
                self.dscps.push(info.ipv4.dscp);
            }
        }
        fn name(&self) -> &str {
            "sink"
        }
    }

    /// One destination per rung, one with no route, and a repeat.
    const LADDER_DSTS: [u32; 5] = [
        0x0a010203, // /32 hit → DSCP 32
        0x0a010204, // /24 hit → DSCP 24
        0x0a010300, // /16 hit → DSCP 10
        0x0a020000, // no route
        0x0a010203, // cached /32 on the repeat
    ];

    /// Three-rung ladder with one DSCP route per rung and a `KvRespond`
    /// route, frames of `len` bytes to `dsts`; returns the sink's DSCP
    /// sequence, the program stats, and the server NIC stats.
    fn run_ladder(
        remote_ops: bool,
        dsts: &[u32],
        len: usize,
    ) -> (Vec<u8>, LookupStats, extmem_rnic::RnicStats) {
        // Deliberately unsorted with a duplicate: both the program and the
        // install helper normalize, so the layouts must still agree.
        let levels = vec![16u8, 32, 24, 24];
        let switch_ep = extmem_wire::roce::RoceEndpoint {
            mac: MacAddr::local(100),
            ip: 0x0a0000fe,
        };
        let server_ep = extmem_wire::roce::RoceEndpoint {
            mac: MacAddr::local(3),
            ip: 0x0a000003,
        };
        let mut nic = RnicNode::new("routesrv", RnicConfig::at(server_ep));
        let region = ByteSize::from_mb(1);
        let channel = RdmaChannel::setup(switch_ep, PortId(2), &mut nic, region);
        let spl = slots_per_level(region.bytes(), &levels);

        // Routes: 10.1.0.0/16 → DSCP 10; 10.1.2.0/24 → DSCP 24;
        // 10.1.2.3/32 → DSCP 32; 10.9.0.0/16 → KvRespond. All forward out
        // port 1.
        let route = |mut a: ActionEntry| {
            a.port_override = Some(PortId(1));
            a
        };
        let dscp = |dscp: u8| route(ActionEntry::set_dscp(dscp));
        install_remote_route(&mut nic, &channel, &levels, spl, 0x0a010000, 16, dscp(10));
        install_remote_route(&mut nic, &channel, &levels, spl, 0x0a010200, 24, dscp(24));
        install_remote_route(&mut nic, &channel, &levels, spl, 0x0a010203, 32, dscp(32));
        let kv = route(ActionEntry::kv_respond(7));
        install_remote_route(&mut nic, &channel, &levels, spl, 0x0a090000, 16, kv);

        let mut fib = Fib::new(8);
        fib.install(MacAddr::local(1), PortId(0));
        let prog =
            RemoteLpmProgram::new(fib, channel, levels, Some(16)).with_remote_ops(remote_ops);

        let mut b = SimBuilder::new(7);
        let switch = b.add_node(Box::new(SwitchNode::new(
            "tor",
            SwitchConfig::default(),
            Box::new(prog),
        )));
        let gen = b.add_node(Box::new(Gen {
            dsts: dsts.to_vec(),
            len,
            sent: 0,
            tx: TxQueue::new(PortId(0)),
        }));
        let sink = b.add_node(Box::new(Sink { dscps: vec![] }));
        let link = LinkSpec::testbed_40g();
        b.connect(switch, PortId(0), gen, PortId(0), link);
        b.connect(switch, PortId(1), sink, PortId(0), link);
        let srv = b.add_node(Box::new(nic));
        b.connect(switch, PortId(2), srv, PortId(0), link);

        let mut sim = b.build();
        sim.schedule_timer(gen, TimeDelta::ZERO, 0);
        sim.run_until(Time::from_millis(2));

        let dscps = sim.node::<Sink>(sink).dscps.clone();
        let sw: &SwitchNode = sim.node(switch);
        let s = sw.program::<RemoteLpmProgram>().stats();
        let nic_stats = sim.node::<RnicNode>(srv).stats();
        (dscps, s, nic_stats)
    }

    #[test]
    fn longest_prefix_wins_end_to_end() {
        let (dscps, s, nic) = run_ladder(false, &LADDER_DSTS, 128);
        assert_eq!(dscps, vec![32, 24, 10, 32], "wrong rung selected");
        assert_eq!(s.remote_lookups, 4, "repeat must be a cache hit: {s:?}");
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.responses, 12, "3 rungs x 4 lookups");
        assert_eq!(s.rtts_per_miss(), Some(3.0), "one RTT per rung: {s:?}");
        assert_eq!(s.reads_per_lookup(), Some(3.0));
        assert_eq!(s.slow_path, 1, "the unrouted address: {s:?}");
        assert_eq!(s.channel.naks, 0);
        assert_eq!(nic.cpu_packets, 0);
        assert_eq!(nic.ext_ops, 0, "verb baseline must not use remote ops");
    }

    #[test]
    fn remote_ops_ladder_is_one_rtt_per_miss() {
        let (dscps, s, nic) = run_ladder(true, &LADDER_DSTS, 128);
        // Same routing outcomes as the verb baseline…
        assert_eq!(dscps, vec![32, 24, 10, 32], "wrong rung selected");
        assert_eq!(s.remote_lookups, 4, "repeat must be a cache hit: {s:?}");
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.slow_path, 1, "the unrouted address: {s:?}");
        assert_eq!(s.channel.naks, 0);
        // …but the whole ladder rides one gather/walk op per miss.
        assert_eq!(s.responses, 4, "one gather response per lookup");
        assert_eq!(s.rtts_per_miss(), Some(1.0), "the tentpole metric: {s:?}");
        assert_eq!(s.reads_per_lookup(), Some(1.0));
        assert_eq!(nic.cpu_packets, 0, "remote ops stay one-sided");
        assert_eq!(nic.ext_ops, 4, "one gather per miss");
        assert_eq!(nic.ext_op_steps, 12, "3 rung reads per gather");
    }

    /// An IPv4/UDP frame that ends with its IPv4 header has no L4 ports for
    /// a `KvRespond` route to swap: it is plain L2 traffic, never looked up,
    /// with verbs and with remote ops.
    #[test]
    fn frame_without_l4_ports_is_plain_l2() {
        for remote_ops in [false, true] {
            let len = EthernetHeader::LEN + Ipv4Header::LEN;
            let (_, s, nic) = run_ladder(remote_ops, &[0x0a090001], len);
            assert_eq!(s.non_flow, 1, "{s:?}");
            assert_eq!(s.remote_lookups, 0, "{s:?}");
            assert_eq!(nic.ext_ops, 0);
        }
    }

    #[test]
    fn derived_stats_are_none_before_traffic() {
        let s = LookupStats::default();
        assert_eq!(s.rtts_per_miss(), None);
        assert_eq!(s.reads_per_lookup(), None);
    }
}
