//! The **packet-buffer primitive** (§4): extend the switch packet buffer
//! into remote DRAM rings.
//!
//! Mechanism, as the paper describes it:
//!
//! * **Storing.** When the protected egress queue builds past a threshold
//!   (or always, in the §5 microbenchmark's manual mode), arriving packets
//!   bound for that queue are encapsulated in RDMA WRITEs into a remote
//!   ring buffer, one fixed-size entry per packet. Per §2.1 the ring can
//!   span "one or multiple servers": with `k` channels, entry `i` lives on
//!   channel `i mod k`, so an incast whose excess exceeds one server link
//!   can still be absorbed (experiment E4 uses this striping).
//! * **Loading.** When the queue drains, the switch issues an RDMA READ for
//!   the oldest entry; each READ *response* both releases the original
//!   packet into the egress queue and triggers the next READ.
//! * **Ordering.** "Until all packets in remote buffer are read, the
//!   following new packets must also be written to the remote buffer and
//!   read out in order" — enforced by detouring whenever the ring is
//!   non-empty. Responses from different servers can interleave, so a
//!   small reorder stage releases entries strictly in ring order; the
//!   property is tested end to end.
//!
//! Each ring entry is `[ring index: u32][length: u16][packet bytes…]`, and
//! storing one is the header prepend the paper describes: the WRITE's body
//! is the six header bytes, held inline in the op, in front of the arrival
//! frame itself, shared by refcount ([`WriteBody::framed`]). The packet's
//! bytes move once, into the request frame; until the WRITE is
//! confirmed the outstanding op is the arrival frame's owner (so a
//! retransmission encodes the same bytes), and its retirement recycles the
//! buffer. A WRITE the channel refuses leaves the packet with its caller, for
//! the local queue.
//!
//! A stored entry asks for no ACK of its own when an op behind it will
//! confirm it: a later store's ACK or the READ that loads it retires it
//! (the responder executes in order), and a lost one draws a NAK for the op
//! behind it. A store asks for an ACK only when its stripe's channel holds
//! nothing in flight (so the store arms the deadline, and a dead server is
//! detected as before) or when it is the sixteenth unacknowledged WRITE in
//! a row there, a quarter of the channel's window (so a detour with no
//! READs yet keeps the window turning).
//!
//! Every WRITE and READ rides a per-server [`ReliableChannel`] with the
//! ring index as its cookie: lost RDMA packets are retransmitted (§7's
//! "retransmit the packet on the switch"), responses are attributed to
//! their exact entry rather than by arrival position, and if a channel
//! exhausts its retries the program degrades gracefully — new traffic stops
//! detouring, in-ring entries on live servers still drain, and entries
//! stranded on the dead server are counted lost rather than wedging the
//! ring. With no loss the anomaly counters stay zero (asserted by tests).

use crate::channel::{
    ChannelEvent, ChannelStats, Op, RdmaChannel, ReliableChannel, ReliableConfig, MAX_WINDOW,
};
use crate::fib::Fib;
use crate::pool::assert_distinct_ports;
use extmem_rnic::nic::MTU;
use extmem_rnic::WriteBody;
use extmem_switch::{PipelineProgram, SwitchCtx};
use extmem_types::{PortId, TimeDelta};
use extmem_wire::roce::RocePacket;
use extmem_wire::{Packet, Payload};
use std::collections::BTreeMap;

/// Per-entry header: `[idx: u32][len: u16]`.
const ENTRY_HDR: usize = 6;

/// A store asks for an ACK when it would be this many stores in a row on
/// its stripe with no op the responder answers (or when its stripe holds
/// nothing in flight): a quarter of the channel's window, so a detour with
/// no READs yet retires its WRITEs long before the window fills.
const ACK_EVERY: usize = MAX_WINDOW / 4;

/// Program timer token a scenario driver fires (via
/// [`extmem_switch::switch::program_token`]) to begin manual loading.
pub const TOKEN_START_LOADING: u64 = 0x10;

/// When the primitive stores and loads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Production behaviour: detour to remote memory when the protected
    /// queue exceeds `start_store_qbytes`; pull back when it is at or below
    /// `resume_load_qbytes`.
    Auto {
        /// Queue depth (bytes) beyond which arrivals detour to the ring.
        start_store_qbytes: u64,
        /// Queue depth at or below which READs are issued.
        resume_load_qbytes: u64,
    },
    /// §5 microbenchmark behaviour: store *every* protected-port packet;
    /// load only after [`TOKEN_START_LOADING`] fires.
    Manual,
}

/// Counters exposed to the control plane and experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PacketBufferStats {
    /// Packets stored to the remote ring.
    pub stored: u64,
    /// Packets loaded back and enqueued to the protected port.
    pub loaded: u64,
    /// Packets that took the normal (non-detour) path to the protected port.
    pub direct: u64,
    /// Detour packets that fell back to the local queue because the ring
    /// was full.
    pub ring_full_fallbacks: u64,
    /// Packets too large for a ring entry (forwarded locally instead).
    pub oversize_fallbacks: u64,
    /// Ring entries given up on because their channel failed over (the §7
    /// "an RDMA packet drop would lead to dropping the original packet"
    /// case, now only reachable past the retry budget).
    pub lost_entries: u64,
    /// READ responses discarded as stale (already-released index or
    /// unreadable entry content).
    pub stale_skipped: u64,
    /// Responses held briefly for in-order release (cross-server skew).
    pub reordered_held: u64,
    /// Highest ring occupancy (entries) observed.
    pub max_ring_occupancy: u64,
    /// READ requests issued.
    pub reads_issued: u64,
    /// Reliability-layer counters, aggregated across channels.
    pub channel: ChannelStats,
}

/// The packet-buffer pipeline program. Wraps plain L2 forwarding; traffic
/// to `protected_port` gains the remote-buffer detour.
pub struct PacketBufferProgram {
    /// L2 forwarding for all traffic.
    pub fib: Fib,
    /// One channel per ring stripe, each to its own memory server.
    channels: Vec<ReliableChannel>,
    /// Entries each stripe's region holds.
    per_channel_entries: u64,
    protected_port: PortId,
    entry_size: u64,
    /// Total ring capacity across channels.
    ring_entries: u64,
    mode: Mode,
    max_outstanding_reads: u64,
    /// Manual mode: has loading been enabled?
    loading_enabled: bool,
    /// Next ring index to write (monotonic).
    widx: u64,
    /// Next ring index to issue a READ for (monotonic).
    next_read_idx: u64,
    /// Ring index up to which entries have been consumed (monotonic).
    rdone: u64,
    /// Entries awaiting in-order release: ring idx → packet, or `None` for
    /// an entry known lost (its channel failed over).
    reorder: BTreeMap<u64, Option<Packet>>,
    /// A channel failed over: stop detouring, drain what remains.
    degraded: bool,
    /// Completion scratch, reused across calls.
    events: Vec<ChannelEvent>,
    stats: PacketBufferStats,
}

impl PacketBufferProgram {
    /// Create the program over one or more remote-buffer channels.
    /// `entry_size` must hold the entry header plus a full-sized frame.
    ///
    /// `rto` is the reliability layer's retransmission timeout: an RDMA op
    /// unanswered for this long is retransmitted (with backoff), so it must
    /// comfortably exceed the switch↔server round trip (defaults in this
    /// workspace use 50–100 µs against a ~3 µs RTT).
    pub fn new(
        fib: Fib,
        channels: Vec<RdmaChannel>,
        protected_port: PortId,
        entry_size: u64,
        mode: Mode,
        max_outstanding_reads: u64,
        rto: TimeDelta,
    ) -> PacketBufferProgram {
        assert!(!channels.is_empty(), "need at least one channel");
        assert!(entry_size as usize > ENTRY_HDR, "entry too small");
        assert!(
            entry_size as usize <= MTU,
            "{entry_size} B entry exceeds the {MTU} B MTU"
        );
        assert!(
            max_outstanding_reads > 0,
            "need at least one outstanding read"
        );
        if let Mode::Auto {
            start_store_qbytes,
            resume_load_qbytes,
        } = mode
        {
            assert!(
                resume_load_qbytes <= start_store_qbytes,
                "resume threshold above start threshold would oscillate"
            );
        }
        let rc = ReliableConfig {
            rto,
            ..Default::default()
        };
        let channels: Vec<ReliableChannel> = channels
            .into_iter()
            .map(|c| ReliableChannel::new(c, rc))
            .collect();
        let per_channel_entries = channels
            .iter()
            .map(|c| c.region_len() / entry_size)
            .fold(u64::MAX, u64::min);
        assert!(per_channel_entries > 0, "region smaller than one entry");
        assert_distinct_ports(channels.iter().map(|c| c.server_port()));
        let k = channels.len() as u64;
        PacketBufferProgram {
            fib,
            channels,
            per_channel_entries,
            protected_port,
            entry_size,
            ring_entries: per_channel_entries * k,
            mode,
            max_outstanding_reads,
            loading_enabled: matches!(mode, Mode::Auto { .. }),
            widx: 0,
            next_read_idx: 0,
            rdone: 0,
            reorder: BTreeMap::new(),
            degraded: false,
            events: Vec::new(),
            stats: PacketBufferStats::default(),
        }
    }

    /// Override the reliability policy on every channel (before traffic
    /// flows). `ReliableConfig::high_priority` sends this program's RDMA
    /// requests at strict-high TM priority, so they are not stuck behind
    /// (or dropped with) bulk data sharing the server-facing ports (§7).
    pub fn with_reliability(mut self, rc: ReliableConfig) -> PacketBufferProgram {
        for channel in &mut self.channels {
            channel.set_config(rc);
        }
        self
    }

    /// Counters.
    pub fn stats(&self) -> PacketBufferStats {
        let mut s = self.stats;
        let mut agg = ChannelStats::default();
        for channel in &self.channels {
            agg.merge(&channel.stats());
        }
        s.channel = agg;
        s
    }

    /// Per-stripe reliability counters (index = stripe index).
    pub fn channel_stats(&self) -> Vec<ChannelStats> {
        self.channels.iter().map(|c| c.stats()).collect()
    }

    /// The channel behind stripe `i`. Named `pool` for the benchmark
    /// harness, which calls it.
    pub fn pool(&self, i: usize) -> &ReliableChannel {
        &self.channels[i]
    }

    /// Whether any channel failed over (new traffic no longer detours).
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Entries currently in the ring (stored, not yet consumed).
    pub fn ring_occupancy(&self) -> u64 {
        self.widx - self.rdone
    }

    /// `(stripe index, VA)` of ring entry `idx`.
    fn locate(&self, idx: u64) -> (usize, u64) {
        let k = self.channels.len() as u64;
        let ch = (idx % k) as usize;
        let slot = (idx / k) % self.per_channel_entries;
        (ch, self.channels[ch].base_va() + slot * self.entry_size)
    }

    /// The stripe whose memory server is attached to `port`.
    fn stripe_of_port(&self, port: PortId) -> Option<usize> {
        self.channels.iter().position(|c| c.server_port() == port)
    }

    /// Whether a freshly arriving protected-port packet must detour.
    fn must_detour(&self, ctx: &SwitchCtx<'_, '_, '_>) -> bool {
        if self.degraded {
            return false; // failed over: stop detouring, drain what's left
        }
        if self.ring_occupancy() > 0 {
            return true; // the §4 ordering rule
        }
        match self.mode {
            Mode::Manual => true,
            Mode::Auto {
                start_store_qbytes, ..
            } => ctx.queue_bytes(self.protected_port) >= start_store_qbytes,
        }
    }

    /// Whether READs may be issued right now.
    fn may_load(&self, ctx: &SwitchCtx<'_, '_, '_>) -> bool {
        if !self.loading_enabled {
            return false;
        }
        match self.mode {
            Mode::Manual => true,
            Mode::Auto {
                resume_load_qbytes, ..
            } => ctx.queue_bytes(self.protected_port) <= resume_load_qbytes,
        }
    }

    /// Store `pkt` into the next ring slot via a reliable RDMA WRITE. The
    /// WRITE asks for an ACK only as `ACK_EVERY` says; either way a lost
    /// one is retransmitted, on the NAK or timeout of the op behind it,
    /// rather than silently dropping the packet.
    fn store_remote(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, pkt: Packet) {
        let cap = self.entry_size as usize - ENTRY_HDR;
        if pkt.len() > cap {
            self.stats.oversize_fallbacks += 1;
            self.enqueue_protected(ctx, pkt);
            return;
        }
        if self.widx - self.rdone >= self.ring_entries {
            self.stats.ring_full_fallbacks += 1;
            self.enqueue_protected(ctx, pkt);
            return;
        }
        let idx = self.widx;
        // Encapsulation is a header prepend: the entry is `[idx][len]` in
        // front of the arrival frame, which the WRITE shares, not copies.
        let mut hdr = [0u8; ENTRY_HDR];
        hdr[..4].copy_from_slice(&(idx as u32).to_be_bytes());
        hdr[4..].copy_from_slice(&(pkt.len() as u16).to_be_bytes());
        let body = WriteBody::framed(&hdr, pkt.view(0..pkt.len()));
        let (ch, va) = self.locate(idx);
        // Ask into an idle stripe (a dead server arms the deadline at once)
        // and behind `ACK_EVERY - 1` unacknowledged WRITEs (the window keeps
        // turning); any other store is confirmed by an op behind it.
        let channel = &self.channels[ch];
        let unacked = (channel.ops().rev().take(ACK_EVERY - 1))
            .take_while(|(_, op)| !op.is_answered())
            .count();
        let ack_req = unacked == ACK_EVERY - 1 || channel.ops().next().is_none();
        if !self.channels[ch].submit(ctx, Op::Write { va, body, ack_req }, idx) {
            // Failed over between the detour decision and the write: the
            // packet takes the local queue instead.
            self.enqueue_protected(ctx, pkt);
            return;
        }
        self.widx += 1;
        self.stats.stored += 1;
        self.stats.max_ring_occupancy = self.stats.max_ring_occupancy.max(self.ring_occupancy());
        // A store may itself need to kick loading (e.g. the queue was
        // already drained when the burst began).
        self.try_issue_reads(ctx);
    }

    /// Enqueue a packet on the protected port's local queue.
    fn enqueue_protected(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, pkt: Packet) {
        ctx.enqueue(self.protected_port, pkt);
    }

    /// Issue READs while the window, ring and thresholds allow. Entries on
    /// a failed-over channel are marked lost instead of read, so the ring
    /// drains past a dead server rather than wedging.
    fn try_issue_reads(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>) {
        if !self.may_load(ctx) {
            return;
        }
        loop {
            while self.next_read_idx - self.rdone < self.max_outstanding_reads
                && self.next_read_idx < self.widx
            {
                let idx = self.next_read_idx;
                let (ch, va) = self.locate(idx);
                let len = self.entry_size as u32;
                if self.channels[ch].submit(ctx, Op::Read { va, len }, idx) {
                    self.stats.reads_issued += 1;
                } else {
                    self.reorder.entry(idx).or_insert(None);
                }
                self.next_read_idx += 1;
            }
            // Releasing known-lost heads frees window slots; keep going
            // until no further progress.
            let before = self.rdone;
            self.release_ready(ctx);
            if self.rdone == before {
                break;
            }
        }
    }

    /// A program timer other than the loading kick fired: if it is a
    /// stripe's retransmission deadline, its channel handles it.
    fn channel_timer(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, token: u64) {
        let mut events = std::mem::take(&mut self.events);
        let channel = self.channels.iter_mut().find(|c| c.timer_token() == token);
        if let Some(channel) = channel {
            channel.on_timer_fired(ctx, &mut events);
        }
        self.consume_events(ctx, &mut events);
        self.events = events;
    }

    /// Release the contiguous run of settled entries at the ring head:
    /// loaded packets go to the protected port, known-lost entries are
    /// counted and skipped.
    fn release_ready(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>) {
        while let Some(entry) = self.reorder.remove(&self.rdone) {
            self.rdone += 1;
            match entry {
                Some(pkt) => {
                    self.stats.loaded += 1;
                    self.enqueue_protected(ctx, pkt);
                }
                None => self.stats.lost_entries += 1,
            }
        }
        self.next_read_idx = self.next_read_idx.max(self.rdone);
    }

    /// Handle the settled READ response for ring entry `idx` (attribution
    /// is by channel cookie, not content). Entries are released strictly in
    /// ring order; responses ahead of the expected position (cross-server
    /// skew) wait in the reorder stage. With a loss-free channel every
    /// anomaly counter stays zero.
    fn handle_entry(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, idx: u64, data: Payload) {
        if idx < self.rdone || self.reorder.get(&idx).is_some_and(|e| e.is_some()) {
            self.stats.stale_skipped += 1;
            return;
        }
        let mut parsed = None;
        if let [t0, t1, t2, t3, l0, l1, ..] = data[..] {
            let tag = u32::from_be_bytes([t0, t1, t2, t3]);
            let len = u16::from_be_bytes([l0, l1]) as usize;
            if tag == idx as u32 && len > 0 && len <= data.len() - ENTRY_HDR {
                // Zero-copy: the loaded packet is a window into the READ
                // response's (shared) buffer.
                parsed = Some(Packet::from_payload(data.slice(ENTRY_HDR..ENTRY_HDR + len)));
            }
        }
        match parsed {
            Some(pkt) => {
                if idx > self.rdone {
                    self.stats.reordered_held += 1;
                }
                self.reorder.insert(idx, Some(pkt));
            }
            None => {
                // Unreadable content despite a settled READ — the entry is
                // unrecoverable; skip it rather than wedge the ring.
                self.stats.stale_skipped += 1;
                self.reorder.entry(idx).or_insert(None);
            }
        }
        self.release_ready(ctx);
    }

    /// Handle a RoCE packet from stripe `ch`'s memory server.
    fn on_roce(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, ch: usize, roce: &RocePacket) {
        let mut events = std::mem::take(&mut self.events);
        self.channels[ch].on_roce(ctx, roce, &mut events);
        self.consume_events(ctx, &mut events);
        self.events = events;
    }

    fn consume_events(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, events: &mut Vec<ChannelEvent>) {
        for ev in events.drain(..) {
            match ev {
                // A load's READ returns the `[idx][len][packet]` entry; a
                // store's acknowledgement carries no data.
                ChannelEvent::Done { cookie, reply, .. } => {
                    if let Some(data) = reply.into_data() {
                        self.handle_entry(ctx, cookie, data);
                    }
                }
                ChannelEvent::OpFailed { cookie, .. } => {
                    // The entry's WRITE or READ exhausted its retries: the
                    // original packet is lost (§7), but the ring moves on.
                    if cookie >= self.rdone {
                        self.reorder.entry(cookie).or_insert(None);
                    }
                }
                ChannelEvent::Failed => self.degraded = true,
            }
        }
        self.release_ready(ctx);
        self.try_issue_reads(ctx);
    }
}

impl PipelineProgram for PacketBufferProgram {
    fn ingress(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, in_port: PortId, pkt: Packet) {
        if let Some(ch) = self.stripe_of_port(in_port) {
            if let Ok(Some(roce)) = RocePacket::parse(&pkt) {
                self.on_roce(ctx, ch, &roce);
                return;
            }
        }
        match self.fib.egress_for(&pkt) {
            Some(port) if port == self.protected_port => {
                if self.must_detour(ctx) {
                    self.store_remote(ctx, pkt);
                } else {
                    self.stats.direct += 1;
                    self.enqueue_protected(ctx, pkt);
                }
            }
            Some(port) => {
                ctx.enqueue(port, pkt);
            }
            None => {}
        }
    }

    fn on_dequeue(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, port: PortId) {
        if port == self.protected_port {
            self.try_issue_reads(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, token: u64) {
        match token {
            TOKEN_START_LOADING => {
                self.loading_enabled = true;
                self.try_issue_reads(ctx);
            }
            _ => self.channel_timer(ctx, token),
        }
    }

    fn program_name(&self) -> &str {
        "packet-buffer-primitive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::RdmaChannel;
    use extmem_rnic::{RnicConfig, RnicNode};
    use extmem_sim::{LinkSpec, Node, NodeCtx, SimBuilder, Simulator, TxQueue};
    use extmem_switch::switch::program_token;
    use extmem_switch::{SwitchConfig, SwitchNode};
    use extmem_types::{ByteSize, FiveTuple, NodeId, Rate, Time};
    use extmem_wire::bth::Opcode;
    use extmem_wire::payload::{build_data_packet, parse_data_packet};
    use extmem_wire::MacAddr;

    /// Paced workload source.
    struct Source {
        mac_src: MacAddr,
        mac_dst: MacAddr,
        flow: FiveTuple,
        n: u32,
        size: usize,
        interval: TimeDelta,
        sent: u32,
        tx: TxQueue,
        /// Bytes of other data on either side of each frame in its buffer:
        /// 0 sends frames that own their buffer, more sends windows.
        margin: usize,
    }

    impl Node for Source {
        fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {}
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _: u64) {
            if self.sent >= self.n {
                return;
            }
            let pkt = build_data_packet(
                self.mac_src,
                self.mac_dst,
                self.flow,
                0,
                self.sent,
                ctx.now(),
                self.size,
            )
            .unwrap();
            let pkt = if self.margin == 0 {
                pkt
            } else {
                let mut buf = vec![0xee; self.margin];
                buf.extend_from_slice(pkt.as_slice());
                buf.resize(buf.len() + self.margin, 0xee);
                let framed = Payload::from_vec(buf);
                Packet::from_payload(framed.slice(self.margin..self.margin + pkt.len()))
            };
            self.sent += 1;
            self.tx.send(ctx, pkt);
            if self.sent < self.n {
                ctx.schedule(self.interval, 0);
            }
        }
        fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, _: PortId) {
            self.tx.on_tx_done(ctx);
        }
        fn name(&self) -> &str {
            "source"
        }
    }

    /// Receiving host: records sequence numbers in arrival order.
    struct Sink {
        seqs: Vec<u32>,
        corrupt: u64,
        /// Frames that arrived with someone else still holding their bytes.
        shared: u64,
    }

    impl Node for Sink {
        fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, packet: Packet) {
            if packet.ref_count() != 1 {
                self.shared += 1;
            }
            match parse_data_packet(&packet) {
                Ok(Some(info)) => self.seqs.push(info.data.seq),
                _ => self.corrupt += 1,
            }
        }
        fn name(&self) -> &str {
            "sink"
        }
    }

    /// A wire between the switch (port 0) and a memory server (port 1)
    /// that eats one frame: the first WRITE under PSN `psn` that asked for
    /// no ACK. It notes the PSN of every WRITE that asked for one.
    struct EatOnce {
        psn: u32,
        eaten: bool,
        asked: Vec<u32>,
        tx: [TxQueue; 2],
    }

    impl Node for EatOnce {
        fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: PortId, packet: Packet) {
            if port == PortId(0) {
                if let Ok(Some(req)) = RocePacket::parse(&packet) {
                    let bth = req.bth;
                    let write = bth.opcode == Opcode::WriteOnly;
                    if write && bth.ack_req {
                        self.asked.push(bth.psn);
                    }
                    if write && bth.psn == self.psn && !bth.ack_req && !self.eaten {
                        self.eaten = true;
                        return;
                    }
                }
            }
            self.tx[1 - port.0 as usize].send(ctx, packet);
        }
        fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, port: PortId) {
            self.tx[port.0 as usize].on_tx_done(ctx);
        }
        fn name(&self) -> &str {
            "eat-once"
        }
    }

    struct Rig {
        sim: Simulator,
        source: NodeId,
        sink: NodeId,
        switch: NodeId,
        memsrvs: Vec<NodeId>,
        /// The [`EatOnce`] in front of each memory server, if any.
        wires: Vec<NodeId>,
    }

    /// source —40G— [p0 SWITCH p1] —sink link— sink, memory servers on
    /// ports 2, 3, ….
    #[allow(clippy::too_many_arguments)]
    fn rig_full(
        mode: Mode,
        n: u32,
        size: usize,
        gap_ns: u64,
        region: ByteSize,
        sink_gbps: u64,
        n_servers: usize,
        server_drop: f64,
        seed: u64,
    ) -> Rig {
        rig_through(
            mode,
            n,
            size,
            gap_ns,
            region,
            sink_gbps,
            n_servers,
            server_drop,
            seed,
            None,
        )
    }

    /// [`rig_full`], with an [`EatOnce`] for `eat` (a PSN) on every
    /// server link when it is `Some`.
    #[allow(clippy::too_many_arguments)]
    fn rig_through(
        mode: Mode,
        n: u32,
        size: usize,
        gap_ns: u64,
        region: ByteSize,
        sink_gbps: u64,
        n_servers: usize,
        server_drop: f64,
        seed: u64,
        eat: Option<u32>,
    ) -> Rig {
        let switch_ep = extmem_wire::roce::RoceEndpoint {
            mac: MacAddr::local(100),
            ip: 0x0a0000fe,
        };
        let mut nics = Vec::new();
        let mut channels = Vec::new();
        for i in 0..n_servers {
            let ep = extmem_wire::roce::RoceEndpoint {
                mac: MacAddr::local(10 + i as u32),
                ip: 0x0a00000a + i as u32,
            };
            let mut nic = RnicNode::new(format!("memsrv{i}"), RnicConfig::at(ep));
            let channel = RdmaChannel::setup(switch_ep, PortId(2 + i as u16), &mut nic, region);
            nics.push(nic);
            channels.push(channel);
        }

        let mut fib = Fib::new(8);
        fib.install(MacAddr::local(1), PortId(0));
        fib.install(MacAddr::local(2), PortId(1));
        let prog = PacketBufferProgram::new(
            fib,
            channels,
            PortId(1),
            2048,
            mode,
            8,
            TimeDelta::from_micros(50),
        );

        let mut b = SimBuilder::new(seed);
        let source = b.add_node(Box::new(Source {
            mac_src: MacAddr::local(1),
            mac_dst: MacAddr::local(2),
            flow: FiveTuple::new(0x0a000001, 0x0a000002, 5000, 9000, 17),
            n,
            size,
            interval: TimeDelta::from_nanos(gap_ns),
            sent: 0,
            tx: TxQueue::new(PortId(0)),
            margin: 0,
        }));
        let sink = b.add_node(Box::new(Sink {
            seqs: vec![],
            corrupt: 0,
            shared: 0,
        }));
        let switch = b.add_node(Box::new(SwitchNode::new(
            "tor",
            SwitchConfig::default(),
            Box::new(prog),
        )));
        b.connect(
            switch,
            PortId(0),
            source,
            PortId(0),
            LinkSpec::testbed_40g(),
        );
        b.connect(
            switch,
            PortId(1),
            sink,
            PortId(0),
            LinkSpec::new(Rate::from_gbps(sink_gbps), TimeDelta::from_nanos(300)),
        );
        let (mut memsrvs, mut wires) = (Vec::new(), Vec::new());
        for (i, nic) in nics.into_iter().enumerate() {
            let id = b.add_node(Box::new(nic));
            let mut spec = LinkSpec::testbed_40g();
            spec.faults = extmem_sim::FaultSpec::drop(server_drop);
            let (to, to_port) = match eat {
                None => (id, PortId(0)),
                Some(psn) => {
                    let wire = b.add_node(Box::new(EatOnce {
                        psn,
                        eaten: false,
                        asked: Vec::new(),
                        tx: [TxQueue::new(PortId(0)), TxQueue::new(PortId(1))],
                    }));
                    let testbed = LinkSpec::testbed_40g();
                    b.connect(wire, PortId(1), id, PortId(0), testbed);
                    wires.push(wire);
                    (wire, PortId(0))
                }
            };
            b.connect(switch, PortId(2 + i as u16), to, to_port, spec);
            memsrvs.push(id);
        }
        let mut sim = b.build();
        sim.schedule_timer(source, TimeDelta::ZERO, 0);
        Rig {
            sim,
            source,
            sink,
            switch,
            memsrvs,
            wires,
        }
    }

    fn rig(mode: Mode, n: u32, size: usize, gap_ns: u64, region: ByteSize) -> Rig {
        rig_full(mode, n, size, gap_ns, region, 40, 1, 0.0, 7)
    }

    fn prog_stats(rig: &Rig) -> PacketBufferStats {
        rig.sim
            .node::<SwitchNode>(rig.switch)
            .program::<PacketBufferProgram>()
            .stats()
    }

    #[test]
    fn manual_mode_stores_then_loads_in_order() {
        let mut r = rig(Mode::Manual, 50, 1000, 300, ByteSize::from_mb(1));
        // Phase 1: stores only (loading disabled).
        r.sim.run_until(Time::from_micros(100));
        let s = prog_stats(&r);
        assert_eq!(s.stored, 50);
        assert_eq!(s.loaded, 0);
        assert!(r.sim.node::<Sink>(r.sink).seqs.is_empty());
        // All 50 packets physically live in the server's DRAM region now.
        let nic = r.sim.node::<RnicNode>(r.memsrvs[0]);
        assert_eq!(nic.stats().writes, 50);
        assert_eq!(nic.stats().cpu_packets, 0);

        // Phase 2: manually start loading (the §5 microbenchmark flow).
        r.sim.schedule_timer(
            r.switch,
            TimeDelta::ZERO,
            program_token(TOKEN_START_LOADING),
        );
        r.sim.run_to_quiescence();
        let s = prog_stats(&r);
        assert_eq!(s.loaded, 50);
        assert_eq!(s.lost_entries, 0);
        assert_eq!(s.stale_skipped, 0);
        assert_eq!(s.channel.naks, 0);
        let sink = r.sim.node::<Sink>(r.sink);
        assert_eq!(sink.corrupt, 0);
        assert_eq!(
            sink.seqs,
            (0..50).collect::<Vec<_>>(),
            "FIFO order violated"
        );
    }

    /// A burst stored faster than the round trip and loaded only after more
    /// than an RTO of silence: the first store asks for an ACK (nothing
    /// answered is in flight), then one in [`ACK_EVERY`] in a row, and the
    /// tail behind the last ACK waits, with no deadline, for the READs that
    /// load it. No timeout, no retransmission, FIFO order.
    #[test]
    fn a_burst_asks_one_ack_per_sixteen_stores_and_never_times_out() {
        const N: u32 = 200;
        let mut r = rig(Mode::Manual, N, 128, 20, ByteSize::from_mb(1));
        // The last store goes out by ~10 us; the RTO is 50 us.
        r.sim.run_until(Time::from_micros(100));
        let s = prog_stats(&r);
        assert_eq!(s.stored, N as u64);
        let most = (N as u64).div_ceil(ACK_EVERY as u64) + 1;
        assert!(s.channel.acks <= most, "{s:?}: at most {most} ACKs");
        r.sim.schedule_timer(
            r.switch,
            TimeDelta::ZERO,
            program_token(TOKEN_START_LOADING),
        );
        r.sim.run_to_quiescence();
        let s = prog_stats(&r);
        assert_eq!((s.loaded, s.lost_entries), (N as u64, 0), "{s:?}");
        let c = s.channel;
        assert_eq!((c.timeouts, c.retransmits, c.naks), (0, 0, 0), "{c:?}");
        let sink = r.sim.node::<Sink>(r.sink);
        assert_eq!(sink.seqs, (0..N).collect::<Vec<_>>(), "FIFO order");
    }

    /// A store asks for an ACK into an idle stripe, and as the sixteenth
    /// unacknowledged WRITE in a row; not behind fewer, even once the ACK
    /// ahead of them has retired everything before them. Stores 5 us apart
    /// each find the stripe idle, since the round trip is shorter, and each
    /// asks. Stores 200 ns apart ask at 0, 16 and 32 only: the ACK of store
    /// 0 comes back a few stores later and leaves the stripe holding only
    /// WRITEs nobody answers, and the stores behind them wait for the 16th.
    /// The loads confirm the last few, with no timeout and no retransmission.
    #[test]
    fn a_store_asks_for_an_ack_into_an_idle_stripe_and_sixteenth_in_a_row() {
        let no_psn = u32::MAX;
        for (n, gap, want) in [(10, 5_000, (0..10).collect()), (40, 200, vec![0, 16, 32])] {
            let (mode, region) = (Mode::Manual, ByteSize::from_mb(1));
            let mut r = rig_through(mode, n, 128, gap, region, 40, 1, 0.0, 7, Some(no_psn));
            r.sim.run_until(Time::from_micros(100));
            let wire = r.sim.node::<EatOnce>(r.wires[0]);
            assert_eq!(wire.asked, want, "{gap} ns apart");
            r.sim.schedule_timer(
                r.switch,
                TimeDelta::ZERO,
                program_token(TOKEN_START_LOADING),
            );
            r.sim.run_to_quiescence();
            let s = prog_stats(&r);
            assert_eq!((s.stored, s.loaded), (n as u64, n as u64), "{s:?}");
            let c = s.channel;
            assert_eq!(
                (c.acks, c.timeouts, c.retransmits),
                (want.len() as u64, 0, 0)
            );
            let sink = r.sim.node::<Sink>(r.sink);
            assert_eq!(sink.seqs, (0..n).collect::<Vec<_>>());
        }
    }

    /// One stored WRITE that asked for no ACK is lost: mid-burst, where the
    /// store behind it draws the NAK, and last, where the first READ does.
    /// The go-back-N replay restores it without a timeout, and every packet
    /// comes back once, in order.
    #[test]
    fn one_lost_unacked_write_is_recovered_in_order() {
        const N: u32 = 40;
        for psn in [5, N - 1] {
            let (mode, size, gap, region) = (Mode::Manual, 128, 20, ByteSize::from_mb(1));
            let mut r = rig_through(mode, N, size, gap, region, 40, 1, 0.0, 7, Some(psn));
            r.sim.run_until(Time::from_micros(100));
            r.sim.schedule_timer(
                r.switch,
                TimeDelta::ZERO,
                program_token(TOKEN_START_LOADING),
            );
            r.sim.run_to_quiescence();
            let wire = r.sim.node::<EatOnce>(r.wires[0]);
            assert!(wire.eaten, "PSN {psn} was not an unacknowledged WRITE");
            let s = prog_stats(&r);
            assert_eq!(
                (s.stored, s.loaded, s.lost_entries),
                (N as u64, N as u64, 0)
            );
            let c = s.channel;
            assert_eq!((c.timeouts, c.naks), (0, 1), "PSN {psn}: {c:?}");
            assert!(c.retransmits > 0, "PSN {psn}: {c:?}");
            let sink = r.sim.node::<Sink>(r.sink);
            assert_eq!(sink.seqs, (0..N).collect::<Vec<_>>(), "PSN {psn}");
        }
    }

    #[test]
    fn auto_mode_below_threshold_is_all_direct() {
        // Slow arrivals (1 per 10us) never build a queue: no detour.
        let mut r = rig(
            Mode::Auto {
                start_store_qbytes: 10_000,
                resume_load_qbytes: 2_000,
            },
            20,
            1000,
            10_000,
            ByteSize::from_mb(1),
        );
        r.sim.run_to_quiescence();
        let s = prog_stats(&r);
        assert_eq!(s.direct, 20);
        assert_eq!(s.stored, 0);
        assert_eq!(r.sim.node::<Sink>(r.sink).seqs.len(), 20);
    }

    #[test]
    fn auto_mode_detours_on_burst_and_preserves_order() {
        // 200 x 1000B at 40G draining into a 10G sink against a 4000B
        // start threshold: the queue builds, the detour kicks in, and
        // everything must still come out in order.
        let mut r = rig_full(
            Mode::Auto {
                start_store_qbytes: 4_000,
                resume_load_qbytes: 2_000,
            },
            200,
            1000,
            200,
            ByteSize::from_mb(1),
            10,
            1,
            0.0,
            7,
        );
        r.sim.run_to_quiescence();
        let s = prog_stats(&r);
        assert!(s.stored > 0, "burst should trigger the detour: {s:?}");
        assert_eq!(s.stored, s.loaded, "every stored packet must come back");
        assert_eq!(s.lost_entries, 0);
        assert_eq!(s.channel.naks, 0);
        let sink = r.sim.node::<Sink>(r.sink);
        assert_eq!(sink.seqs.len(), 200, "no packet lost");
        assert_eq!(
            sink.seqs,
            (0..200).collect::<Vec<_>>(),
            "FIFO order violated"
        );
    }

    #[test]
    fn striping_across_two_servers_preserves_order() {
        let mut r = rig_full(
            Mode::Manual,
            100,
            1000,
            300,
            ByteSize::from_mb(1),
            40,
            2,
            0.0,
            11,
        );
        r.sim.run_until(Time::from_micros(200));
        let s = prog_stats(&r);
        assert_eq!(s.stored, 100);
        // Entries alternate across the two servers.
        let w0 = r.sim.node::<RnicNode>(r.memsrvs[0]).stats().writes;
        let w1 = r.sim.node::<RnicNode>(r.memsrvs[1]).stats().writes;
        assert_eq!(w0, 50);
        assert_eq!(w1, 50);

        r.sim.schedule_timer(
            r.switch,
            TimeDelta::ZERO,
            program_token(TOKEN_START_LOADING),
        );
        r.sim.run_to_quiescence();
        let s = prog_stats(&r);
        assert_eq!(s.loaded, 100);
        assert_eq!(s.lost_entries, 0);
        let sink = r.sim.node::<Sink>(r.sink);
        assert_eq!(
            sink.seqs,
            (0..100).collect::<Vec<_>>(),
            "cross-server order violated"
        );
    }

    #[test]
    fn ring_full_falls_back_to_local_queue() {
        // Region of 8 entries; store 50 packets with loading disabled:
        // 8 fit, the rest fall back to the local queue.
        let mut r = rig(Mode::Manual, 50, 1000, 300, ByteSize::from_bytes(8 * 2048));
        r.sim.run_until(Time::from_micros(200));
        let s = prog_stats(&r);
        assert_eq!(s.stored, 8);
        assert_eq!(s.ring_full_fallbacks, 42);
        // Fallback packets were delivered directly.
        assert_eq!(r.sim.node::<Sink>(r.sink).seqs.len(), 42);
        r.sim.schedule_timer(
            r.switch,
            TimeDelta::ZERO,
            program_token(TOKEN_START_LOADING),
        );
        r.sim.run_to_quiescence();
        assert_eq!(prog_stats(&r).loaded, 8);
        assert_eq!(r.sim.node::<Sink>(r.sink).seqs.len(), 50);
    }

    #[test]
    fn oversize_packet_bypasses_ring() {
        // entry_size 2048 - 6 = 2042 capacity; send 2100B frames.
        let mut r = rig(Mode::Manual, 3, 2100, 1000, ByteSize::from_mb(1));
        r.sim.run_to_quiescence();
        let s = prog_stats(&r);
        assert_eq!(s.oversize_fallbacks, 3);
        assert_eq!(s.stored, 0);
        assert_eq!(r.sim.node::<Sink>(r.sink).seqs.len(), 3);
    }

    #[test]
    fn zero_cpu_involvement_on_server() {
        let mut r = rig(Mode::Manual, 30, 1200, 300, ByteSize::from_mb(1));
        r.sim.run_until(Time::from_micros(100));
        r.sim.schedule_timer(
            r.switch,
            TimeDelta::ZERO,
            program_token(TOKEN_START_LOADING),
        );
        r.sim.run_to_quiescence();
        let nic = r.sim.node::<RnicNode>(r.memsrvs[0]);
        assert_eq!(nic.stats().cpu_packets, 0);
        assert_eq!(nic.stats().writes, 30);
        assert_eq!(nic.stats().reads, 30);
    }

    #[test]
    fn windowed_arrival_frame_is_stored_behind_its_entry_header() {
        // Every arrival is a window into a larger buffer (as a frame lifted
        // out of an encapsulation is): the WRITE must carry exactly the
        // window, and the window's buffer must not be recycled under it.
        let mut r = rig(Mode::Manual, 30, 1000, 300, ByteSize::from_mb(1));
        r.sim.node_mut::<Source>(r.source).margin = 11;
        r.sim.run_until(Time::from_micros(100));
        assert_eq!(prog_stats(&r).stored, 30);
        let sw = r.sim.node::<SwitchNode>(r.switch);
        let pool = sw.program::<PacketBufferProgram>().pool(0);
        let (rkey, base_va) = (pool.rkey(), pool.base_va());
        let ring = r.sim.node::<RnicNode>(r.memsrvs[0]).region(rkey).unwrap();
        for idx in 0..30u32 {
            let entry = ring.read(base_va + idx as u64 * 2048, 6 + 1000).unwrap();
            assert_eq!(entry[..4], idx.to_be_bytes(), "entry {idx}: ring index");
            assert_eq!(entry[4..6], 1000u16.to_be_bytes(), "entry {idx}: length");
            let stored = Packet::from_vec(entry[6..].to_vec());
            let info = parse_data_packet(&stored)
                .unwrap()
                .expect("a workload frame");
            assert_eq!(
                info.data.seq, idx,
                "entry {idx}: the frame behind the header"
            );
        }
        r.sim.schedule_timer(
            r.switch,
            TimeDelta::ZERO,
            program_token(TOKEN_START_LOADING),
        );
        r.sim.run_to_quiescence();
        assert_eq!(prog_stats(&r).loaded, 30);
        let sink = r.sim.node::<Sink>(r.sink);
        assert_eq!(sink.corrupt, 0);
        assert_eq!(sink.seqs, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn refused_write_leaves_the_packet_on_the_protected_queue() {
        // A server link that delivers nothing: at a 400 ns RTO the first
        // store is retransmitted from 1.4 us on and abandoned 95 RTOs after
        // it went out, at ~39 us, taking the channel (and the detour) down
        // with it.
        let mut r = rig_full(
            Mode::Manual,
            20,
            1000,
            100_000,
            ByteSize::from_mb(1),
            40,
            1,
            1.0,
            7,
        );
        fn prog(r: &mut Rig) -> &mut PacketBufferProgram {
            r.sim.node_mut::<SwitchNode>(r.switch).program_mut()
        }
        prog(&mut r).channels[0].set_config(ReliableConfig {
            rto: TimeDelta::from_nanos(400),
            ..Default::default()
        });
        r.sim.run_until(Time::from_micros(50));
        let s = prog_stats(&r);
        assert!(prog(&mut r).is_degraded());
        assert_eq!((s.stored, s.lost_entries), (1, 1), "{s:?}");
        // The window between the detour decision and the write, held open:
        // from here every arrival decides to detour and is refused.
        prog(&mut r).degraded = false;
        let takes = || extmem_wire::pool::hit_count() + extmem_wire::pool::miss_count();
        let before = takes();
        r.sim.run_to_quiescence();
        // The only buffers taken are the ones the source built its 19
        // frames in: a refused store stages nothing it could then drop.
        assert_eq!(takes() - before, 19);
        let s = prog_stats(&r);
        assert_eq!((s.stored, s.direct, s.loaded), (1, 0, 0), "{s:?}");
        let sink = r.sim.node::<Sink>(r.sink);
        assert_eq!(
            sink.seqs,
            (1..20).collect::<Vec<_>>(),
            "refused stores go local"
        );
        assert_eq!((sink.corrupt, sink.shared), (0, 0), "and own their bytes");
    }

    #[test]
    fn lossy_channel_recovers_exactly() {
        let mut r = rig_full(
            Mode::Manual,
            200,
            1000,
            300,
            ByteSize::from_mb(1),
            40,
            1,
            0.05,
            1234,
        );
        r.sim.run_until(Time::from_micros(500));
        r.sim.schedule_timer(
            r.switch,
            TimeDelta::ZERO,
            program_token(TOKEN_START_LOADING),
        );
        // Bound the recovery phase instead of waiting for quiescence (the
        // reliability tick keeps the queue non-empty while it works).
        r.sim.run_until(Time::from_millis(100));

        let s = prog_stats(&r);
        let sink = r.sim.node::<Sink>(r.sink);
        // §7: "one simple solution is to retransmit the packet on the
        // switch" — with the reliability layer every stored packet comes
        // back exactly once, in order, despite 5% loss on the server link.
        assert_eq!(s.stored, 200, "every packet must be stored: {s:?}");
        assert_eq!(s.loaded, 200, "every stored packet must come back: {s:?}");
        assert_eq!(
            s.lost_entries, 0,
            "retransmission must recover losses: {s:?}"
        );
        assert!(
            s.channel.retransmits > 0,
            "5% loss must force retransmits: {s:?}"
        );
        assert!(!s.channel.failed_over, "channel must not fail over: {s:?}");
        assert_eq!(sink.corrupt, 0);
        assert_eq!(
            sink.seqs,
            (0..200).collect::<Vec<_>>(),
            "exact in-order delivery"
        );
    }

    /// Two stripes, each behind its own link dropping 1 %: each stripe's
    /// channel arms its own timer (named by its server's port) and
    /// recovers its own losses.
    #[test]
    fn striped_ring_recovers_loss_on_every_stripe() {
        let mut r = rig_full(
            Mode::Manual,
            400,
            1000,
            300,
            ByteSize::from_mb(1),
            40,
            2,
            0.01,
            99,
        );
        r.sim.run_until(Time::from_micros(500));
        r.sim.schedule_timer(
            r.switch,
            TimeDelta::ZERO,
            program_token(TOKEN_START_LOADING),
        );
        r.sim.run_until(Time::from_millis(100));

        let prog = r
            .sim
            .node::<SwitchNode>(r.switch)
            .program::<PacketBufferProgram>();
        for (i, ch) in prog.channel_stats().iter().enumerate() {
            assert!(ch.retransmits > 0, "stripe {i} saw no retransmit: {ch:?}");
        }
        let s = prog.stats();
        assert_eq!((s.stored, s.loaded, s.lost_entries), (400, 400, 0), "{s:?}");
        let sink = r.sim.node::<Sink>(r.sink);
        assert_eq!(sink.seqs, (0..400).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "distinct ports")]
    fn stripes_sharing_a_port_are_refused() {
        let endpoint = |i| extmem_wire::roce::RoceEndpoint {
            mac: MacAddr::local(i),
            ip: 0x0a00_0000 + i,
        };
        let stripe = |i| {
            let mut nic = RnicNode::new("memsrv", RnicConfig::at(endpoint(i)));
            RdmaChannel::setup(endpoint(100), PortId(2), &mut nic, ByteSize::from_mb(1))
        };
        PacketBufferProgram::new(
            Fib::new(8),
            vec![stripe(10), stripe(11)],
            PortId(1),
            2048,
            Mode::Manual,
            8,
            TimeDelta::from_micros(50),
        );
    }

    #[test]
    #[should_panic(expected = "2049 B entry exceeds the 2048 B MTU")]
    fn entries_over_the_mtu_are_refused() {
        let endpoint = |i| extmem_wire::roce::RoceEndpoint {
            mac: MacAddr::local(i),
            ip: 0x0a00_0000 + i,
        };
        let mut nic = RnicNode::new("memsrv", RnicConfig::at(endpoint(10)));
        let channel = RdmaChannel::setup(endpoint(100), PortId(2), &mut nic, ByteSize::from_mb(1));
        PacketBufferProgram::new(
            Fib::new(8),
            vec![channel],
            PortId(1),
            MTU as u64 + 1,
            Mode::Manual,
            8,
            TimeDelta::from_micros(50),
        );
    }
}
