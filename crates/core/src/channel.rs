//! The RDMA channel controller.
//!
//! §3: "An RDMA channel controller running on the switch control plane and
//! a server is responsible to allocate memory regions on the server, set up
//! an RDMA channel, and pass the channel information including a remote
//! queue pair number (QPN), a base address of the registered memory region,
//! and a remote access key (Rkey) for the region to the data plane."
//!
//! In the simulation this runs *before* events flow — exactly mirroring the
//! paper's initialization-only CPU involvement. Everything after setup is
//! pure data plane.
//!
//! [`ReliableChannel`] is that data plane's requester, and the one place an
//! in-flight op lives. An op is an [`Op`], a value: whoever wants it done
//! hands it to [`ReliableChannel::submit`] and keeps only what the answer
//! will mean to them, under a cookie. The channel holds the op from
//! acceptance until it retires or fails, encodes every transmission of it
//! — first, replayed — from that one value ([`Op::request`]), and hands it
//! back in the [`ChannelEvent`] that ends it, so a layer above (the
//! replicated pool on a failover) can send it again verbatim without
//! having kept a copy. A WRITE's bytes are a [`WriteBody`] — a head held
//! inline and a tail shared with whoever produced it (a stored packet's
//! arrival frame); the tail goes back to the frame pool when the last
//! holder of the finished op's event drops it.

use extmem_rnic::requester::{RemoteOp, Request, RequesterQp, WriteBody};
use extmem_rnic::RnicNode;
use extmem_sim::TimerHandle;
use extmem_switch::SwitchCtx;
use extmem_types::{ByteSize, PortId, QpNum, Rkey, Time, TimeDelta};
use extmem_wire::bth::{psn_before, Opcode};
use extmem_wire::roce::{RoceEndpoint, RoceExt, RocePacket};
use extmem_wire::{Packet, Payload};
use std::collections::VecDeque;
use std::fmt;

/// Everything the switch data plane needs to use one remote memory region:
/// the paper's `(QPN, base address, Rkey)` triple plus the requester-side
/// QP state and the switch port the memory server hangs off.
#[derive(Debug, Clone)]
pub struct RdmaChannel {
    /// Requester-side QP (PSN allocation, packet building).
    pub qp: RequesterQp,
    /// Remote access key of the registered region.
    pub rkey: Rkey,
    /// Base virtual address of the region.
    pub base_va: u64,
    /// Region length in bytes.
    pub region_len: u64,
    /// The switch port the memory server's RNIC is attached to.
    pub server_port: PortId,
}

/// The QPN the switch data plane presents as its own. Responses arrive
/// addressed to it; any value works since the switch demultiplexes by port.
pub const SWITCH_QPN: QpNum = QpNum(0x7700);

impl RdmaChannel {
    /// Run the control-plane setup against a memory server's RNIC:
    /// registers `region_size` bytes, creates the responder QP, and returns
    /// the assembled channel for the data plane.
    ///
    /// ```
    /// use extmem_core::RdmaChannel;
    /// use extmem_rnic::{RnicConfig, RnicNode};
    /// use extmem_types::{ByteSize, PortId};
    /// use extmem_wire::roce::RoceEndpoint;
    /// use extmem_wire::MacAddr;
    ///
    /// let server = RoceEndpoint { mac: MacAddr::local(9), ip: 0x0a000009 };
    /// let switch = RoceEndpoint { mac: MacAddr::local(1), ip: 0x0a0000fe };
    /// let mut nic = RnicNode::new("memsrv", RnicConfig::at(server));
    /// let channel = RdmaChannel::setup(switch, PortId(2), &mut nic, ByteSize::from_mb(1));
    /// // The paper's (QPN, base address, rkey) triple, ready for the data plane:
    /// assert_eq!(channel.region_len, 1_000_000);
    /// let _ = (channel.qp.peer_qpn, channel.base_va, channel.rkey);
    /// ```
    ///
    /// `switch_endpoint` is the L2/L3 identity the switch uses when
    /// crafting RDMA packets; `server_port` is where the RNIC is attached.
    pub fn setup(
        switch_endpoint: RoceEndpoint,
        server_port: PortId,
        nic: &mut RnicNode,
        region_size: ByteSize,
    ) -> RdmaChannel {
        Self::setup_at_psn(switch_endpoint, server_port, nic, region_size, 0)
    }

    /// [`RdmaChannel::setup`] starting the PSN sequence at `start_psn`
    /// instead of 0 — used by the wrap-around tests to exercise 24-bit PSN
    /// arithmetic near `2^24` without issuing sixteen million requests.
    pub fn setup_at_psn(
        switch_endpoint: RoceEndpoint,
        server_port: PortId,
        nic: &mut RnicNode,
        region_size: ByteSize,
        start_psn: u32,
    ) -> RdmaChannel {
        let (rkey, base_va) = nic.register_region(region_size);
        let qpn = nic.create_qp(switch_endpoint, SWITCH_QPN, start_psn);
        let mut qp = RequesterQp::new(switch_endpoint, nic.endpoint(), qpn);
        qp.npsn = start_psn;
        RdmaChannel {
            qp,
            rkey,
            base_va,
            region_len: region_size.bytes(),
            server_port,
        }
    }
}

// ---------------------------------------------------------------------------
// Requester-side reliability layer (§7: retry, resynchronize, degrade).
// ---------------------------------------------------------------------------

/// Timeout rounds before a reliable channel declares itself failed and
/// degrades to local-only operation. With [`MAX_BACKOFF_LEVEL`], a channel
/// facing a silent server gives up `1 + 2 + 4 + 8 + 5 × 16 = 95` RTOs after
/// its last progress.
pub const MAX_RETRIES: u32 = 8;

/// Cap on the backoff shift, bounding the effective timeout at
/// `rto << MAX_BACKOFF_LEVEL`.
pub const MAX_BACKOFF_LEVEL: u32 = 4;

/// Transmit-window cap (reliable mode only): at most this many ops in
/// flight at once; further ops queue inside the channel and go out as the
/// window drains. This is what bounds a go-back-N volley — an unbounded
/// window lets one loss trigger a retransmission burst that takes longer to
/// serialize than the RTO, which re-times-out and snowballs into a storm
/// (real QPs are bounded the same way, by their WQE count). Best-effort
/// channels ignore it: with no retransmission there is no volley to bound,
/// and windowing would flow-control a path whose whole point is to fire at
/// line rate and let the server ceiling show as loss.
pub const MAX_WINDOW: usize = 64;

/// Reliability policy for a [`ReliableChannel`].
#[derive(Clone, Copy, Debug)]
pub struct ReliableConfig {
    /// Base retransmission timeout; the effective timeout is
    /// `rto << backoff_level` (exponential backoff).
    pub rto: TimeDelta,
    /// `true`: retransmit on NAK/timeout until [`MAX_RETRIES`], then fail
    /// over. `false`: best-effort — ops age out past the RTO and NAKs fail
    /// everything in flight (the caller absorbs the loss), but the channel
    /// itself never fails over.
    pub reliable: bool,
    /// Send requests through the high-priority queue (packet-buffer detour
    /// traffic uses this so RDMA is not stuck behind the very congestion it
    /// is trying to relieve).
    pub high_priority: bool,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        ReliableConfig {
            rto: TimeDelta::from_micros(100),
            reliable: true,
            high_priority: false,
        }
    }
}

impl ReliableConfig {
    /// Best-effort flavour: age-out instead of retransmit, never fails over.
    pub fn best_effort(rto: TimeDelta) -> ReliableConfig {
        ReliableConfig {
            rto,
            reliable: false,
            ..Default::default()
        }
    }
}

/// Per-channel reliability counters, surfaced through each primitive's
/// stats struct.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Ops issued (first transmission only).
    pub ops_issued: u64,
    /// Acknowledgements consumed (plain + atomic).
    pub acks: u64,
    /// NAKs consumed.
    pub naks: u64,
    /// Request packets retransmitted (NAK- and timeout-triggered).
    pub retransmits: u64,
    /// Timeout rounds fired.
    pub timeouts: u64,
    /// Response packets that matched no outstanding op (duplicates of
    /// already-completed work) and were dropped instead of double-applied.
    pub duplicate_drops: u64,
    /// Best-effort ops dropped because their RTO expired.
    pub aged_out: u64,
    /// NAKs that repeated an epoch's expected PSN and did not trigger
    /// another go-back-N volley (every out-of-sequence packet behind one
    /// loss draws its own NAK; one volley answers them all).
    pub naks_suppressed: u64,
    /// Current backoff shift level.
    pub backoff_level: u32,
    /// High-water mark of the backoff shift level.
    pub max_backoff_level: u32,
    /// Whether the channel gave up and degraded to local-only operation at
    /// least once (historical flag — survives [`ReliableChannel::recover_at`]).
    pub failed_over: bool,
    /// Times a failed channel was re-armed via
    /// [`ReliableChannel::recover_at`] (server rejoin path).
    pub recoveries: u64,
}

impl ChannelStats {
    /// Aggregate counters across channels (multi-channel primitives).
    pub fn merge(&mut self, other: &ChannelStats) {
        self.ops_issued += other.ops_issued;
        self.acks += other.acks;
        self.naks += other.naks;
        self.retransmits += other.retransmits;
        self.timeouts += other.timeouts;
        self.duplicate_drops += other.duplicate_drops;
        self.aged_out += other.aged_out;
        self.naks_suppressed += other.naks_suppressed;
        self.backoff_level = self.backoff_level.max(other.backoff_level);
        self.max_backoff_level = self.max_backoff_level.max(other.max_backoff_level);
        self.failed_over |= other.failed_over;
        self.recoveries += other.recoveries;
    }
}

impl fmt::Display for ChannelStats {
    /// Compact one-line form: `ops=… acks=… … failed=… rec=…`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ops={} acks={} naks={} retx={} timeouts={} dups={} aged={} \
             sup={} backoff={}/{} failed={} rec={}",
            self.ops_issued,
            self.acks,
            self.naks,
            self.retransmits,
            self.timeouts,
            self.duplicate_drops,
            self.aged_out,
            self.naks_suppressed,
            self.backoff_level,
            self.max_backoff_level,
            self.failed_over,
            self.recoveries,
        )
    }
}

/// One RDMA op, as whoever wants it done describes it: addresses, flags
/// and bytes by value, no PSN and no rkey. The channel that accepts it
/// ([`ReliableChannel::submit`]) holds it until it is answered or given up
/// on and returns it in the [`ChannelEvent`] that says which, so the same
/// value can be submitted again — to a failover replica, under that
/// server's own region key — and come out as the same request.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Single-packet WRITE of `body` at `va`. With `ack_req` the responder
    /// acknowledges it explicitly, and the WRITE has a deadline of its own.
    /// Without, it is confirmed by the answer to a later op (an ACK covers
    /// the WRITEs at or before its PSN, a response the WRITEs before it),
    /// and its loss shows as that op's NAK or timeout.
    Write {
        /// Where the bytes land.
        va: u64,
        /// The bytes: an inline head and a shared tail.
        body: WriteBody,
        /// Ask the responder for an explicit ACK.
        ack_req: bool,
    },
    /// READ of `len` bytes at `va`.
    Read {
        /// Where to read.
        va: u64,
        /// How many bytes.
        len: u32,
    },
    /// Atomic Fetch-and-Add of `add` to the u64 at `va`.
    FetchAdd {
        /// The counter's address.
        va: u64,
        /// The addend.
        add: u64,
    },
    /// A remote op (hash-probe-and-fetch, gather/walk): a chain of
    /// dependent reads the responder NIC executes locally, answered like a
    /// READ, one RTT whatever its depth.
    Remote(RemoteOp),
}

impl Op {
    /// The op as the requester QP encodes it. Every transmission — first,
    /// go-back-N replay, reissue on a failover replica — is this request
    /// under some PSN and rkey.
    pub fn request(&self) -> Request<'_> {
        match self {
            Op::Write { va, body, ack_req } => Request::Write {
                va: *va,
                body: body.parts(),
                ack_req: *ack_req,
            },
            Op::Read { va, len } => Request::Read { va: *va, len: *len },
            Op::FetchAdd { va, add } => Request::FetchAdd { va: *va, add: *add },
            Op::Remote(op) => Request::Op(op),
        }
    }

    /// Whether the op is answered with data of its own (a READ, a remote
    /// op) rather than covered by any acknowledgement at or past its PSN.
    fn bears_response(&self) -> bool {
        matches!(self, Op::Read { .. } | Op::Remote(_))
    }

    /// Whether the responder answers the op with a packet of its own: data,
    /// an atomic's acknowledgement, or the ACK a WRITE asked for. Only such
    /// an op runs the channel's deadline; a WRITE that asked for no ACK
    /// neither times out nor ages out by itself.
    pub(crate) fn is_answered(&self) -> bool {
        !matches!(self, Op::Write { ack_req: false, .. })
    }
}

/// What the responder answered a finished [`Op`] with.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// A WRITE or Fetch-and-Add was acknowledged (explicitly or implicitly).
    Ack,
    /// A READ's or a remote op's response bytes (a window of the response
    /// frame, not a copy): a gather's words, a hash probe's matched slot,
    /// nothing for a probe's miss.
    Data(Payload),
}

impl Reply {
    /// The bytes that came back, whichever kind of op fetched them; `None`
    /// for a bare acknowledgement.
    pub fn into_data(self) -> Option<Payload> {
        match self {
            Reply::Ack => None,
            Reply::Data(data) => Some(data),
        }
    }
}

/// The end of an op submitted to a [`ReliableChannel`], tagged with the
/// caller-chosen cookie and carrying the op itself back. `Failed` is the
/// graceful-degradation signal: the channel gave up and the primitive must
/// fall back to local-only operation.
#[derive(Clone, Debug, PartialEq)]
pub enum ChannelEvent {
    /// The op was executed and answered.
    Done {
        /// The cookie passed to [`ReliableChannel::submit`].
        cookie: u64,
        /// The op, as submitted.
        op: Op,
        /// The responder's answer.
        reply: Reply,
    },
    /// The op was abandoned: aged out (best-effort), failed by a NAK
    /// (best-effort), or in flight or queued when the channel failed over.
    /// A volley of these comes in submit order.
    OpFailed {
        /// The cookie of the abandoned op.
        cookie: u64,
        /// The op, as submitted: whoever can still have it done submits it
        /// again.
        op: Op,
    },
    /// The retry cap was exhausted; the channel is now failed and accepts
    /// no further ops. Emitted once, after the per-op `OpFailed` events.
    Failed,
}

#[derive(Clone, Debug)]
struct Outstanding {
    /// PSN of the request packet, and of its response.
    psn: u32,
    cookie: u64,
    sent_at: Time,
    op: Op,
}

impl Outstanding {
    /// The op is finished: its completion event.
    fn retire(self, reply: Reply) -> ChannelEvent {
        ChannelEvent::Done {
            cookie: self.cookie,
            op: self.op,
            reply,
        }
    }

    /// The op is given up on: its failure event.
    fn abandon(self) -> ChannelEvent {
        ChannelEvent::OpFailed {
            cookie: self.cookie,
            op: self.op,
        }
    }
}

/// Wrap-aware `a <= b` on 24-bit PSNs.
fn psn_at_or_before(a: u32, b: u32) -> bool {
    a == b || psn_before(a, b)
}

/// The requester-side reliability layer every primitive shares: tracks
/// outstanding ops by PSN (24-bit wrap-aware), retransmits on NAK and on an
/// exponential-backoff timer, deduplicates replayed responses, and past the
/// retry cap fails over so the primitive can degrade to local-only
/// operation instead of stalling forever (§7).
///
/// Ops come in through [`ReliableChannel::submit`] and go out, each exactly
/// once, in the [`ChannelEvent`]s pushed onto the `events` buffer passed to
/// [`ReliableChannel::on_roce`] / [`ReliableChannel::on_timer_fired`]; the
/// cookie is caller-chosen and opaque to the channel.
///
/// The channel manages its own retransmission deadline: it arms a
/// cancellable timer (under [`ReliableChannel::timer_token`], which its
/// server port names: `CHANNEL_TIMER | port`) when an op the responder
/// answers (data, an atomic's acknowledgement, or an ACK a WRITE asked
/// for) goes outstanding and cancels it when the last one retires, so an
/// idle or healthy channel schedules no periodic tick events at all. The
/// deadline runs from the oldest answered op: a WRITE that asked for no
/// ACK waits, without a deadline, for the answer to an op behind it. The
/// owning program only has to route the token from its `on_timer` back
/// into [`ReliableChannel::on_timer_fired`].
#[derive(Debug)]
pub struct ReliableChannel {
    inner: RdmaChannel,
    config: ReliableConfig,
    /// In-flight ops in issue order (PSN order, wrap-aware).
    outstanding: VecDeque<Outstanding>,
    /// Ops accepted past the window cap, awaiting transmission, with
    /// their cookies. No PSN yet: PSNs are assigned at first transmission,
    /// so queued ops stay behind every in-flight op in sequence space.
    queue: VecDeque<(u64, Op)>,
    /// Current backoff shift; resets on any progress from the responder.
    backoff_level: u32,
    /// Timeout rounds since the last progress.
    retries: u32,
    /// Expected PSN of the last NAK answered with a go-back-N volley;
    /// repeats of it are suppressed (one volley per loss epoch).
    nak_epoch: Option<u32>,
    failed: bool,
    /// Program-timer token the channel arms its deadline under.
    timer_token: u64,
    /// The armed retransmission deadline, if any.
    timer: Option<TimerHandle>,
    stats: ChannelStats,
}

/// Tag of a channel's program-timer token: the channel to the server on
/// switch port `p` arms its deadline under `CHANNEL_TIMER | p`, so one
/// program's channels never share a token as long as their servers never
/// share a port. Clear of every program's own tokens (all below `1 << 32`).
pub(crate) const CHANNEL_TIMER: u64 = 1 << 32;

impl ReliableChannel {
    /// Wrap `channel` in the reliability layer.
    pub fn new(channel: RdmaChannel, config: ReliableConfig) -> ReliableChannel {
        ReliableChannel {
            timer_token: CHANNEL_TIMER | channel.server_port.0 as u64,
            inner: channel,
            config,
            outstanding: VecDeque::new(),
            queue: VecDeque::new(),
            backoff_level: 0,
            retries: 0,
            nak_epoch: None,
            failed: false,
            timer: None,
            stats: ChannelStats::default(),
        }
    }

    /// The program-timer token the channel arms its deadline under
    /// (`CHANNEL_TIMER | server port`).
    pub fn timer_token(&self) -> u64 {
        self.timer_token
    }

    /// The wrapped channel (region triple, server port, QP state).
    pub fn inner(&self) -> &RdmaChannel {
        &self.inner
    }

    /// The active reliability policy.
    pub fn config(&self) -> ReliableConfig {
        self.config
    }

    /// Replace the reliability policy. Only valid while nothing is in
    /// flight (primitives expose this as a pre-traffic builder knob).
    pub fn set_config(&mut self, config: ReliableConfig) {
        assert!(
            self.outstanding.is_empty() && self.queue.is_empty() && !self.failed,
            "reconfigure an idle channel"
        );
        self.config = config;
    }

    /// Remote access key of the region.
    pub fn rkey(&self) -> Rkey {
        self.inner.rkey
    }

    /// Base virtual address of the region.
    pub fn base_va(&self) -> u64 {
        self.inner.base_va
    }

    /// Region length in bytes.
    pub fn region_len(&self) -> u64 {
        self.inner.region_len
    }

    /// The switch port the memory server hangs off.
    pub fn server_port(&self) -> PortId {
        self.inner.server_port
    }

    /// Reliability counters.
    pub fn stats(&self) -> ChannelStats {
        let mut s = self.stats;
        s.backoff_level = self.backoff_level.min(MAX_BACKOFF_LEVEL);
        s
    }

    /// Whether the channel has failed over (degraded to local-only).
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Ops in flight.
    pub fn outstanding_len(&self) -> usize {
        self.outstanding.len()
    }

    /// The absolute time the oldest answered op times out; `None` while
    /// no op in flight is one the responder answers.
    fn deadline(&self) -> Option<Time> {
        let head = self.outstanding.iter().find(|o| o.op.is_answered())?;
        let shift = if self.config.reliable {
            self.backoff_level.min(MAX_BACKOFF_LEVEL)
        } else {
            0
        };
        Some(head.sent_at + TimeDelta::from_picos(self.config.rto.picos() << shift))
    }

    /// Reconcile the armed timer with the channel state: arm when an
    /// answered op goes outstanding, cancel when the last one retires. A
    /// deadline that moved *later* (head retired, successor is younger) is
    /// left alone — the timer fires early once and re-arms for the exact
    /// remainder, which is cheaper than re-arming on every ACK.
    fn maintain_timer(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>) {
        let deadline = if self.failed { None } else { self.deadline() };
        match (deadline, self.timer) {
            (None, Some(h)) => {
                ctx.cancel_timer(h);
                self.timer = None;
            }
            (Some(deadline), None) => {
                let delay = deadline.saturating_since(ctx.now());
                self.timer = Some(ctx.schedule_cancellable(delay, self.timer_token));
            }
            _ => {}
        }
    }

    fn send(&self, ctx: &mut SwitchCtx<'_, '_, '_>, frame: Packet) {
        if self.config.high_priority {
            ctx.enqueue_high(self.inner.server_port, frame);
        } else {
            ctx.enqueue(self.inner.server_port, frame);
        }
    }

    /// Every op held for the caller, in submit order: in flight, then
    /// queued behind the window.
    pub fn ops(&self) -> impl DoubleEndedIterator<Item = (u64, &Op)> {
        let in_flight = self.outstanding.iter().map(|o| (o.cookie, &o.op));
        in_flight.chain(self.queue.iter().map(|(cookie, op)| (*cookie, op)))
    }

    /// Admit `op` under `cookie`: transmit immediately while the window has
    /// room, park it in the queue otherwise (queued ops launch as the
    /// window drains, in acceptance order). Best-effort channels skip the
    /// window entirely. The op comes back in exactly one
    /// [`ChannelEvent::Done`] or [`ChannelEvent::OpFailed`]. Returns `false`
    /// — op not accepted, dropped — only once the channel has failed over.
    pub fn submit(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, op: Op, cookie: u64) -> bool {
        if self.failed {
            return false;
        }
        self.stats.ops_issued += 1;
        if self.config.reliable && (self.outstanding.len() >= MAX_WINDOW || !self.queue.is_empty())
        {
            self.queue.push_back((cookie, op));
        } else {
            self.launch(ctx, cookie, op);
            self.maintain_timer(ctx);
        }
        true
    }

    /// First transmission of an op: assign its PSN, record it
    /// outstanding, and put the request on the wire.
    fn launch(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, cookie: u64, op: Op) {
        let (qp, rkey) = (&mut self.inner.qp, self.inner.rkey);
        let psn = qp.npsn;
        let frame = qp.issue(rkey, &op.request());
        self.outstanding.push_back(Outstanding {
            psn,
            cookie,
            sent_at: ctx.now(),
            op,
        });
        self.send(ctx, frame);
    }

    /// Launch queued ops into whatever room the window now has.
    fn pump_queue(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>) {
        while !self.failed && self.outstanding.len() < MAX_WINDOW {
            let Some((cookie, op)) = self.queue.pop_front() else {
                break;
            };
            self.launch(ctx, cookie, op);
        }
    }

    /// Feed a RoCE packet from the memory server. Returns `true` if it was
    /// a response belonging to this channel's QP flow (completions and
    /// failures are appended to `events`).
    pub fn on_roce(
        &mut self,
        ctx: &mut SwitchCtx<'_, '_, '_>,
        roce: &RocePacket,
        events: &mut Vec<ChannelEvent>,
    ) -> bool {
        let psn = roce.bth.psn;
        let consumed = match roce.bth.opcode {
            Opcode::ReadRespOnly => {
                self.on_response(psn, Reply::Data(roce.payload.clone()), events);
                true
            }
            Opcode::AtomicAcknowledge => {
                self.stats.acks += 1;
                self.on_response(psn, Reply::Ack, events);
                true
            }
            Opcode::Acknowledge => {
                let RoceExt::Aeth(aeth) = roce.ext else {
                    return false;
                };
                if aeth.is_ack() {
                    self.on_ack(roce.bth.psn, events);
                } else {
                    self.on_nak(ctx, roce.bth.psn, events);
                }
                true
            }
            _ => false,
        };
        if consumed {
            self.pump_queue(ctx);
            self.maintain_timer(ctx);
        }
        consumed
    }

    /// Any valid response is progress: the responder is alive and moving.
    fn progress(&mut self) {
        self.backoff_level = 0;
        self.retries = 0;
        self.nak_epoch = None;
    }

    /// Retire the WRITEs and atomics among the first `n` outstanding ops:
    /// the in-order responder has executed them. The response-bearing ones
    /// stay — the responder executed those too, but their data may still be
    /// in flight (or lost, in which case the timer re-issues them). Returns
    /// how many stayed.
    fn retire_executed(&mut self, n: usize, events: &mut Vec<ChannelEvent>) -> usize {
        let mut kept = 0;
        for _ in 0..n {
            if self.outstanding[kept].op.bears_response() {
                kept += 1;
            } else if let Some(op) = self.outstanding.remove(kept) {
                events.push(op.retire(Reply::Ack));
            }
        }
        kept
    }

    /// Complete and remove the op at `idx`, answered with `reply`, plus
    /// every *earlier* WRITE and atomic (for this response to exist, the
    /// responder must have executed them).
    fn complete_at(&mut self, idx: usize, reply: Reply, events: &mut Vec<ChannelEvent>) {
        let at = self.retire_executed(idx, events);
        if let Some(op) = self.outstanding.remove(at) {
            events.push(op.retire(reply));
        }
    }

    /// A response that answers one op: a READ's data, an atomic's
    /// acknowledgement or a remote op's result. It completes the op of its
    /// kind sent under `psn` (and, as any response does, every earlier
    /// WRITE and atomic): it proves execution and carries the answer in one
    /// packet.
    fn on_response(&mut self, psn: u32, reply: Reply, events: &mut Vec<ChannelEvent>) {
        let pos = self.outstanding.iter().position(|o| {
            o.psn == psn
                && matches!(
                    (&o.op, &reply),
                    (Op::Read { .. } | Op::Remote(_), Reply::Data(_))
                        | (Op::FetchAdd { .. }, Reply::Ack)
                )
        });
        let Some(pos) = pos else {
            // A replayed duplicate of an op already completed: drop it
            // rather than apply it twice.
            self.stats.duplicate_drops += 1;
            return;
        };
        self.progress();
        self.complete_at(pos, reply, events);
    }

    /// A plain ACK of `psn` acknowledges every op through `psn`. WRITEs and
    /// atomics covered by it complete; READs do not — an ACK proves the
    /// responder *sent* their data, not that it arrived.
    fn on_ack(&mut self, psn: u32, events: &mut Vec<ChannelEvent>) {
        self.stats.acks += 1;
        if !self
            .outstanding
            .iter()
            .any(|op| psn_at_or_before(op.psn, psn))
        {
            self.stats.duplicate_drops += 1;
            return;
        }
        self.progress();
        let covered = self
            .outstanding
            .iter()
            .take_while(|op| psn_at_or_before(op.psn, psn))
            .count();
        self.retire_executed(covered, events);
    }

    /// The responder NAKed: its `epsn` (carried in the NAK's PSN field)
    /// names the next request it expects. Reliable mode replays everything
    /// still outstanding under the original PSNs; best-effort mode fails
    /// the in-flight ops and resynchronizes the sequence instead.
    fn on_nak(
        &mut self,
        ctx: &mut SwitchCtx<'_, '_, '_>,
        epsn: u32,
        events: &mut Vec<ChannelEvent>,
    ) {
        self.stats.naks += 1;
        if self.config.reliable {
            // Ops fully before the responder's expected PSN were executed;
            // complete the WRITEs/atomics among them (READ data may still
            // be lost — the timer covers those).
            let executed = self
                .outstanding
                .iter()
                .take_while(|op| psn_before(op.psn, epsn))
                .count();
            self.retire_executed(executed, events);
            if self.nak_epoch == Some(epsn) {
                // Every out-of-sequence packet behind the same loss draws
                // its own NAK; the volley already in flight answers them
                // all, and replying to each would multiply it into a storm.
                self.stats.naks_suppressed += 1;
                self.backoff_level = 0;
                self.retries = 0;
                return;
            }
            self.progress();
            self.nak_epoch = Some(epsn);
            self.retransmit_all(ctx);
        } else {
            // Best effort: everything in flight is lost. Fail the ops,
            // resynchronize the requester's PSN to what the responder
            // expects, and keep going — the caller absorbs the loss.
            events.extend(self.outstanding.drain(..).map(Outstanding::abandon));
            if self.inner.qp.npsn != epsn {
                self.inner.qp.npsn = epsn;
            }
        }
    }

    /// Go-back-N: re-send every outstanding op under its original PSN. The
    /// responder re-executes duplicate READs, replays duplicate atomics,
    /// and plain-ACKs duplicate WRITEs, so replays are idempotent.
    fn retransmit_all(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>) {
        let now = ctx.now();
        let (qp, rkey) = (&self.inner.qp, self.inner.rkey);
        for i in 0..self.outstanding.len() {
            let sent = &self.outstanding[i];
            let frame = qp.encode_at(sent.psn, rkey, &sent.op.request());
            self.send(ctx, frame);
            self.stats.retransmits += 1;
            self.outstanding[i].sent_at = now;
        }
    }

    /// The channel's retransmission deadline fired: the owning program
    /// routes its `on_timer` callback for [`ReliableChannel::timer_token`]
    /// here. If the oldest answered op moved on since the timer was armed,
    /// this re-arms for the exact remaining time; otherwise it runs the
    /// timeout action (go-back-N replay with backoff, or best-effort
    /// age-out).
    pub fn on_timer_fired(
        &mut self,
        ctx: &mut SwitchCtx<'_, '_, '_>,
        events: &mut Vec<ChannelEvent>,
    ) {
        self.timer = None;
        if self.failed {
            return;
        }
        let Some(deadline) = self.deadline() else {
            return;
        };
        let now = ctx.now();
        if now < deadline {
            // The old head retired and its successor is younger: fire was
            // premature, re-arm for the real deadline.
            let delay = deadline.saturating_since(now);
            self.timer = Some(ctx.schedule_cancellable(delay, self.timer_token));
            return;
        }
        if self.config.reliable {
            if self.retries >= MAX_RETRIES {
                self.fail(ctx, events);
                return;
            }
            self.stats.timeouts += 1;
            self.retries += 1;
            self.backoff_level += 1;
            self.stats.max_backoff_level = self
                .stats
                .max_backoff_level
                .max(self.backoff_level.min(MAX_BACKOFF_LEVEL));
            self.retransmit_all(ctx);
        } else {
            // Best effort: age out every answered op past the base RTO, and
            // the unanswered WRITEs sent before the last of them.
            let rto = self.config.rto;
            let mut aged = 0;
            for (i, sent) in self.outstanding.iter().enumerate() {
                if !sent.op.is_answered() {
                    continue;
                }
                if now.saturating_since(sent.sent_at) < rto {
                    break;
                }
                aged = i + 1;
            }
            self.stats.aged_out += aged as u64;
            events.extend(self.outstanding.drain(..aged).map(Outstanding::abandon));
            self.pump_queue(ctx);
        }
        self.maintain_timer(ctx);
    }

    /// Give up: fail every outstanding op, mark the channel failed, drop
    /// the armed deadline, and emit the degradation signal.
    fn fail(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, events: &mut Vec<ChannelEvent>) {
        events.extend(self.outstanding.drain(..).map(Outstanding::abandon));
        let queued = self.queue.drain(..);
        events.extend(queued.map(|(cookie, op)| ChannelEvent::OpFailed { cookie, op }));
        self.failed = true;
        self.stats.failed_over = true;
        if let Some(h) = self.timer.take() {
            ctx.cancel_timer(h);
        }
        events.push(ChannelEvent::Failed);
    }

    /// Force the failure path immediately (drain every op as `OpFailed`,
    /// emit `Failed`): the pool layer's health detector calls this when its
    /// consecutive-failure threshold trips before the channel's own retry
    /// cap does, so failover latency is governed by the detector, not by
    /// [`MAX_RETRIES`]. No-op on an already-failed channel.
    pub fn abort(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, events: &mut Vec<ChannelEvent>) {
        if !self.failed {
            self.fail(ctx, events);
        }
    }

    /// Re-arm a failed channel at a fresh PSN (server-rejoin path): the
    /// control plane has re-established the responder QP, which will accept
    /// whatever PSN arrives first after its restart. The fresh base must be
    /// far from the dead window so a straggling response from the old
    /// incarnation cannot alias into the new one (callers jump by at least
    /// the window size; [`crate::pool::ReplicatedPool`] jumps by `2^20`).
    ///
    /// This is the *only* place outside the best-effort NAK path allowed to
    /// move `npsn` off its issue sequence — the fault-matrix grep guard
    /// keeps ad-hoc resyncs out of the primitives.
    ///
    /// Panics unless the channel has actually failed over (`is_failed`);
    /// `fail` drained every op, so nothing is outstanding here.
    pub fn recover_at(&mut self, start_psn: u32) {
        assert!(self.failed, "recover_at on a live channel");
        debug_assert!(self.outstanding.is_empty() && self.queue.is_empty());
        self.inner.qp.npsn = start_psn & 0x00ff_ffff;
        self.failed = false;
        self.backoff_level = 0;
        self.retries = 0;
        self.nak_epoch = None;
        self.stats.recoveries += 1;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use extmem_rnic::{Operand, RnicConfig};
    use extmem_wire::MacAddr;

    #[test]
    fn setup_wires_the_triple() {
        let server = RoceEndpoint {
            mac: MacAddr::local(9),
            ip: 0x0a000009,
        };
        let switch = RoceEndpoint {
            mac: MacAddr::local(1),
            ip: 0x0a000001,
        };
        let mut nic = RnicNode::new("mem", RnicConfig::at(server));
        let ch = RdmaChannel::setup(switch, PortId(3), &mut nic, ByteSize::from_mb(1));
        assert_eq!(ch.region_len, 1_000_000);
        assert_eq!(ch.server_port, PortId(3));
        assert_eq!(ch.qp.peer, server);
        assert_eq!(ch.qp.local, switch);
        // The responder knows the switch as its peer.
        assert_eq!(nic.qp(ch.qp.peer_qpn).peer_qpn, SWITCH_QPN);
        // The region is real and zeroed.
        assert_eq!(
            nic.region(ch.rkey).read(ch.base_va, 8).unwrap(),
            &[0u8; 8][..]
        );
    }

    /// Owns one channel; when poked, sends a READ, a Fetch-and-Add and a
    /// remote op (PSNs 0, 1 and 2) and plays the responder itself.
    struct Replayer {
        channel: ReliableChannel,
        events: Vec<ChannelEvent>,
    }

    impl Replayer {
        /// Answer `psn` with a READ response carrying `data`, or with an
        /// atomic's acknowledgement if there is none.
        fn answer(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, psn: u32, data: &[u8]) {
            use extmem_wire::aeth::Aeth;
            use extmem_wire::atomic::AtomicAckEth;
            use extmem_wire::bth::Bth;
            let (opcode, ext) = if data.is_empty() {
                let ack = AtomicAckEth { original_value: 41 };
                let ext = RoceExt::AtomicAck(Aeth::ack(0), ack);
                (Opcode::AtomicAcknowledge, ext)
            } else {
                (Opcode::ReadRespOnly, RoceExt::Aeth(Aeth::ack(0)))
            };
            let payload = data.to_vec();
            let qp = &self.channel.inner().qp;
            let bth = Bth::new(opcode, SWITCH_QPN, psn);
            let resp = RocePacket::new(qp.peer, qp.local, qp.udp_src_port, bth, ext, payload);
            assert!(self.channel.on_roce(ctx, &resp, &mut self.events));
        }
    }

    impl extmem_switch::PipelineProgram for Replayer {
        fn ingress(&mut self, _: &mut SwitchCtx<'_, '_, '_>, _: PortId, _: Packet) {}

        fn on_timer(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, _token: u64) {
            let ops = [
                Op::Read { va: 0x1000, len: 8 },
                Op::FetchAdd { va: 0x2000, add: 1 },
                Op::Remote(probe_op()),
            ];
            for (cookie, op) in ops.into_iter().enumerate() {
                assert!(self.channel.submit(ctx, op, cookie as u64));
            }
            // An atomic's acknowledgement under the READ's PSN answers
            // nothing, and READ bytes under the atomic's PSN nothing either.
            self.answer(ctx, 0, &[]);
            self.answer(ctx, 1, &[6; 8]);
            assert!(self.events.is_empty());
            let answers: [&[u8]; 3] = [&[7; 8], &[], &[5; 32]];
            // Each answer completes its op; its replay is dropped.
            for _ in 0..2 {
                for (psn, data) in answers.into_iter().enumerate() {
                    self.answer(ctx, psn as u32, data);
                }
            }
        }
    }

    #[test]
    fn replayed_responses_are_dropped_not_completed_twice() {
        use extmem_rnic::requester::RequesterQp;
        use extmem_sim::SimBuilder;
        use extmem_switch::switch::program_token;
        use extmem_switch::{SwitchConfig, SwitchNode};
        use extmem_types::{QpNum, Time};

        let local = RoceEndpoint {
            mac: MacAddr::local(1),
            ip: 0x0a000001,
        };
        let peer = RoceEndpoint {
            mac: MacAddr::local(9),
            ip: 0x0a000009,
        };
        let channel = RdmaChannel {
            qp: RequesterQp::new(local, peer, QpNum(0x100)),
            rkey: Rkey(7),
            base_va: 0x1000,
            region_len: 1 << 16,
            server_port: PortId(0),
        };
        let program = Replayer {
            channel: ReliableChannel::new(channel, ReliableConfig::default()),
            events: Vec::new(),
        };
        let mut b = SimBuilder::new(1);
        let sw = b.add_node(Box::new(SwitchNode::new(
            "tor",
            SwitchConfig::default(),
            Box::new(program),
        )));
        let mut sim = b.build();
        sim.schedule_timer(sw, TimeDelta::ZERO, program_token(1));
        // Well inside the RTO: no retransmission interferes.
        sim.run_until(Time::from_micros(10));

        let program = sim.node::<SwitchNode>(sw).program::<Replayer>();
        assert_eq!(program.channel.outstanding_len(), 0);
        assert_eq!(program.channel.stats().duplicate_drops, 5);
        let replies: Vec<(u64, Reply)> = program
            .events
            .iter()
            .map(|ev| match ev {
                ChannelEvent::Done { cookie, reply, .. } => (*cookie, reply.clone()),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        let want = [
            (0, Reply::Data(vec![7; 8].into())),
            (1, Reply::Ack),
            (2, Reply::Data(vec![5; 32].into())),
        ];
        assert_eq!(replies, want);
    }

    /// Owns one channel behind a server that never answers; the test pokes
    /// it through the stages of a remote op's life.
    struct OpIssuer {
        channel: ReliableChannel,
        events: Vec<ChannelEvent>,
    }

    fn probe_op() -> RemoteOp {
        RemoteOp::HashProbe {
            base_va: 0x1000,
            bucket: 3,
            bucket_bytes: 128,
            slot_bytes: 32,
            key_off: 0,
            key: Operand::new(b"thirteen-byte"),
        }
    }

    fn gather_op() -> RemoteOp {
        RemoteOp::Gather {
            word_len: 16,
            vas: vec![0x1040, 0x1080],
        }
    }

    const ISSUE: u64 = 1;
    const ANSWER_PROBE: u64 = 2;
    const REISSUE: u64 = 3;
    const RECOVERED_PSN: u32 = 0x10_0000;
    /// The gather's cookie: the probes that fill the window take 1 to
    /// [`MAX_WINDOW`].
    const GATHER: u64 = MAX_WINDOW as u64 + 1;

    impl extmem_switch::PipelineProgram for OpIssuer {
        fn ingress(&mut self, _: &mut SwitchCtx<'_, '_, '_>, _: PortId, _: Packet) {}

        fn on_timer(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, token: u64) {
            use extmem_wire::aeth::Aeth;
            use extmem_wire::bth::Bth;
            match token {
                ISSUE => {
                    // The probes take the window; the gather queues.
                    for cookie in 1..=MAX_WINDOW as u64 {
                        assert!(self.channel.submit(ctx, Op::Remote(probe_op()), cookie));
                    }
                    assert!(self.channel.submit(ctx, Op::Remote(gather_op()), GATHER));
                    let held = self.channel.ops().count();
                    let queued = (self.channel.outstanding_len(), held);
                    assert_eq!(queued, (MAX_WINDOW, MAX_WINDOW + 1));
                }
                ANSWER_PROBE => {
                    // Every probe misses: a READ response with no bytes.
                    for psn in 0..MAX_WINDOW as u32 {
                        let qp = &self.channel.inner().qp;
                        let resp = RocePacket::new(
                            qp.peer,
                            qp.local,
                            qp.udp_src_port,
                            Bth::new(Opcode::ReadRespOnly, SWITCH_QPN, psn),
                            RoceExt::Aeth(Aeth::ack(1)),
                            vec![],
                        );
                        assert!(self.channel.on_roce(ctx, &resp, &mut self.events));
                    }
                    let held = self.channel.ops().count();
                    let launched = (self.channel.outstanding_len(), held);
                    assert_eq!(launched, (1, 1), "the gather launched");
                }
                REISSUE => {
                    // What the pool does with an op orphaned by a failover.
                    assert!(self.channel.is_failed());
                    self.channel.recover_at(RECOVERED_PSN);
                    let gather = Op::Remote(gather_op());
                    assert!(self.channel.submit(ctx, gather, GATHER));
                }
                t if t == self.channel.timer_token() => {
                    self.channel.on_timer_fired(ctx, &mut self.events);
                }
                other => panic!("unexpected token {other}"),
            }
        }
    }

    /// Records every frame the switch sends it; never answers.
    #[derive(Default)]
    pub(crate) struct Blackhole {
        pub(crate) frames: Vec<Packet>,
    }

    impl extmem_sim::Node for Blackhole {
        fn on_packet(&mut self, _: &mut extmem_sim::NodeCtx<'_>, _: PortId, packet: Packet) {
            self.frames.push(packet);
        }
        fn name(&self) -> &str {
            "blackhole"
        }
    }

    /// The policy of a channel that is to give up on a [`Blackhole`] soon:
    /// RTO 10 us, so [`MAX_RETRIES`] retransmissions and 950 us of silence.
    pub(crate) fn impatient() -> ReliableConfig {
        ReliableConfig {
            rto: TimeDelta::from_micros(10),
            ..ReliableConfig::default()
        }
    }

    /// A switch running `program` whose port 0 leads to a [`Blackhole`];
    /// `more` hangs whatever else the test needs off the switch. Returns
    /// the simulation, the switch and the blackhole.
    pub(crate) fn behind_blackhole(
        program: impl extmem_switch::PipelineProgram + 'static,
        more: impl FnOnce(&mut extmem_sim::SimBuilder, extmem_types::NodeId),
    ) -> (
        extmem_sim::Simulator,
        extmem_types::NodeId,
        extmem_types::NodeId,
    ) {
        use extmem_sim::{LinkSpec, SimBuilder};
        use extmem_switch::{SwitchConfig, SwitchNode};
        let mut b = SimBuilder::new(1);
        let sw = b.add_node(Box::new(SwitchNode::new(
            "tor",
            SwitchConfig::default(),
            Box::new(program),
        )));
        let hole = b.add_node(Box::new(Blackhole::default()));
        b.connect(sw, PortId(0), hole, PortId(0), LinkSpec::testbed_40g());
        more(&mut b, sw);
        (b.build(), sw, hole)
    }

    #[test]
    fn remote_op_operands_are_encoded_the_same_every_time() {
        use extmem_rnic::requester::RequesterQp;
        use extmem_switch::switch::program_token;
        use extmem_switch::SwitchNode;
        use extmem_types::{QpNum, Time};

        let local = RoceEndpoint {
            mac: MacAddr::local(1),
            ip: 0x0a000001,
        };
        let peer = RoceEndpoint {
            mac: MacAddr::local(9),
            ip: 0x0a000009,
        };
        let channel = RdmaChannel {
            qp: RequesterQp::new(local, peer, QpNum(0x100)),
            rkey: Rkey(7),
            base_va: 0x1000,
            region_len: 1 << 16,
            server_port: PortId(0),
        };
        let program = OpIssuer {
            channel: ReliableChannel::new(channel, impatient()),
            events: Vec::new(),
        };
        let (mut sim, sw, hole) = behind_blackhole(program, |_, _| {});
        // The probes go out at 0 and, unanswered, again at 10 us; their
        // answers at 15 us let the gather out, which times out at 30 us
        // and, retransmitted with backoff, at 970 us takes the channel down
        // with it.
        sim.schedule_timer(sw, TimeDelta::ZERO, program_token(ISSUE));
        sim.schedule_timer(sw, TimeDelta::from_micros(15), program_token(ANSWER_PROBE));
        sim.schedule_timer(sw, TimeDelta::from_micros(1000), program_token(REISSUE));
        sim.run_until(Time::from_micros(1005));

        let program = sim.node::<SwitchNode>(sw).program::<OpIssuer>();
        // The failed gather comes back whole, as it was submitted.
        let orphan = ChannelEvent::OpFailed {
            cookie: GATHER,
            op: Op::Remote(gather_op()),
        };
        assert_eq!(program.events[MAX_WINDOW..], [orphan, ChannelEvent::Failed]);
        for (i, done) in program.events[..MAX_WINDOW].iter().enumerate() {
            assert!(matches!(
                done,
                ChannelEvent::Done { cookie, op, reply: Reply::Data(miss) }
                    if *cookie == 1 + i as u64 && *op == Op::Remote(probe_op()) && miss.is_empty()
            ));
        }
        let frames = &sim.node::<Blackhole>(hole).frames;
        let sent: Vec<RocePacket> = frames
            .iter()
            .map(|f| RocePacket::parse(f).unwrap().unwrap())
            .collect();
        let seen: Vec<(Opcode, u32)> = sent.iter().map(|p| (p.bth.opcode, p.bth.psn)).collect();
        let probes = (0..MAX_WINDOW as u32).map(|psn| (Opcode::HashProbe, psn));
        let gathers = [(Opcode::GatherWalk, MAX_WINDOW as u32)].repeat(1 + MAX_RETRIES as usize);
        let want: Vec<(Opcode, u32)> = probes
            .clone()
            .chain(probes)
            .chain(gathers)
            .chain([(Opcode::GatherWalk, RECOVERED_PSN)])
            .collect();
        assert_eq!(seen, want);
        // A retransmission is the same frame, byte for byte.
        let (probes, rest) = frames.split_at(2 * MAX_WINDOW);
        assert_eq!(probes[..MAX_WINDOW], probes[MAX_WINDOW..]);
        let (reissue, gathers) = rest.split_last().unwrap();
        assert!(gathers.iter().all(|f| *f == gathers[0]));
        // The reissue differs in its PSN and in nothing the op describes.
        let gather = &sent[2 * MAX_WINDOW];
        let reissue = RocePacket::parse(reissue).unwrap().unwrap();
        assert_eq!(reissue.ext, gather.ext);
        assert_eq!(reissue.payload, gather.payload);
        assert_eq!(sent[0].payload, *b"thirteen-byte");
        let vas = [0x1040u64, 0x1080].map(u64::to_be_bytes).concat();
        assert_eq!(gather.payload, vas);
    }

    /// Owns one channel behind a server that never answers; program timer
    /// `t` submits `script[t]`, each op under its cookie.
    struct Scripted {
        channel: ReliableChannel,
        script: Vec<Vec<(u64, Op)>>,
        events: Vec<ChannelEvent>,
    }

    impl extmem_switch::PipelineProgram for Scripted {
        fn ingress(&mut self, _: &mut SwitchCtx<'_, '_, '_>, _: PortId, _: Packet) {}

        fn on_timer(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, token: u64) {
            if token == self.channel.timer_token() {
                return self.channel.on_timer_fired(ctx, &mut self.events);
            }
            for (cookie, op) in self.script[token as usize].clone() {
                assert!(self.channel.submit(ctx, op, cookie));
            }
        }
    }

    /// A WRITE that asks for no ACK, under `cookie`.
    fn unacked(cookie: u64) -> (u64, Op) {
        let body = WriteBody::inline(&[cookie as u8; 8]);
        let va = 0x1000 + 8 * cookie;
        let write = Op::Write {
            va,
            body,
            ack_req: false,
        };
        (cookie, write)
    }

    /// A READ, under `cookie`.
    fn read(cookie: u64) -> (u64, Op) {
        (cookie, Op::Read { va: 0x1000, len: 8 })
    }

    /// A switch running `script` over a channel under [`impatient`]
    /// timing (RTO 10 us), reliable or not, behind a [`Blackhole`].
    fn scripted(
        reliable: bool,
        script: Vec<Vec<(u64, Op)>>,
    ) -> (
        extmem_sim::Simulator,
        extmem_types::NodeId,
        extmem_types::NodeId,
    ) {
        use extmem_rnic::requester::RequesterQp;
        use extmem_types::QpNum;
        let channel = RdmaChannel {
            qp: RequesterQp::new(local(), peer(), QpNum(0x100)),
            rkey: Rkey(7),
            base_va: 0x1000,
            region_len: 1 << 16,
            server_port: PortId(0),
        };
        let config = ReliableConfig {
            reliable,
            ..impatient()
        };
        let program = Scripted {
            channel: ReliableChannel::new(channel, config),
            script,
            events: Vec::new(),
        };
        behind_blackhole(program, |_, _| {})
    }

    /// The cookies of the ops a [`Scripted`] program saw fail, in order.
    fn failed(events: &[ChannelEvent]) -> Vec<u64> {
        let cookie = |ev: &ChannelEvent| match ev {
            ChannelEvent::OpFailed { cookie, .. } => *cookie,
            other => panic!("unexpected {other:?}"),
        };
        events.iter().map(cookie).collect()
    }

    /// WRITEs that asked for no ACK have no deadline of their own: a
    /// channel holding only them arms no timer, retransmits nothing and,
    /// best-effort, abandons nothing, however long the server stays
    /// silent. The READ behind them arms the deadline, and its timeout
    /// covers them: reliable, the go-back-N volley re-sends all four;
    /// best-effort, all four age out together, in submit order.
    #[test]
    fn writes_that_ask_no_ack_wait_for_the_op_behind_them() {
        use extmem_switch::switch::program_token;
        use extmem_switch::SwitchNode;
        use extmem_types::Time;

        for reliable in [true, false] {
            let script = vec![vec![unacked(1), unacked(2), unacked(3)], vec![read(4)]];
            let (mut sim, sw, hole) = scripted(reliable, script);
            sim.schedule_timer(sw, TimeDelta::ZERO, program_token(0));
            // Fifty RTOs of silence.
            sim.run_until(Time::from_micros(500));
            let program = sim.node::<SwitchNode>(sw).program::<Scripted>();
            let stats = program.channel.stats();
            assert!(program.channel.timer.is_none(), "reliable {reliable}");
            assert_eq!(program.channel.outstanding_len(), 3);
            assert!(program.events.is_empty(), "{:?}", program.events);
            assert_eq!((stats.timeouts, stats.aged_out), (0, 0), "{stats:?}");
            assert_eq!(sim.node::<Blackhole>(hole).frames.len(), 3);

            sim.schedule_timer(sw, TimeDelta::ZERO, program_token(1));
            // One RTO after the READ, and a little.
            sim.run_until(Time::from_micros(515));
            let program = sim.node::<SwitchNode>(sw).program::<Scripted>();
            let stats = program.channel.stats();
            let frames = sim.node::<Blackhole>(hole).frames.len();
            if reliable {
                assert_eq!((stats.timeouts, stats.retransmits), (1, 4), "{stats:?}");
                assert_eq!(frames, 8, "the volley re-sends the WRITEs too");
                assert!(program.events.is_empty());
            } else {
                assert_eq!((stats.aged_out, frames), (4, 4), "{stats:?}");
                assert_eq!(failed(&program.events), [1, 2, 3, 4]);
                assert!(program.channel.timer.is_none());
            }
        }
    }

    /// Best-effort, a WRITE that asked for no ACK ages out with the
    /// answered op behind it, not with the one ahead of it: a READ at 0,
    /// three such WRITEs right behind it and a READ at 5 us age out as
    /// `[READ]` at 10 us, then the WRITEs and the second READ at 15 us.
    #[test]
    fn best_effort_ages_unacked_writes_out_with_the_op_behind_them() {
        use extmem_switch::switch::program_token;
        use extmem_switch::SwitchNode;
        use extmem_types::Time;

        let lead = vec![read(1), unacked(2), unacked(3), unacked(4)];
        let (mut sim, sw, _) = scripted(false, vec![lead, vec![read(5)]]);
        sim.schedule_timer(sw, TimeDelta::ZERO, program_token(0));
        sim.schedule_timer(sw, TimeDelta::from_micros(5), program_token(1));
        sim.run_until(Time::from_micros(12));
        let program = sim.node::<SwitchNode>(sw).program::<Scripted>();
        assert_eq!(failed(&program.events), [1]);
        assert_eq!(program.channel.outstanding_len(), 4);
        sim.run_until(Time::from_micros(17));
        let program = sim.node::<SwitchNode>(sw).program::<Scripted>();
        assert_eq!(failed(&program.events), [1, 2, 3, 4, 5]);
        assert_eq!(program.channel.stats().aged_out, 5);
    }

    /// Owns one channel behind a server that never answers; submits one
    /// op under cookie 1, lets it time out, be retransmitted and take the
    /// channel down, then submits it again the way the pool does after a
    /// failover. `allocs` is the payloads constructed per timer callback.
    struct Sender {
        channel: ReliableChannel,
        op: Op,
        events: Vec<ChannelEvent>,
        allocs: Vec<u64>,
    }

    impl Sender {
        fn send(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>) {
            assert!(self.channel.submit(ctx, self.op.clone(), 1));
        }
    }

    impl extmem_switch::PipelineProgram for Sender {
        fn ingress(&mut self, _: &mut SwitchCtx<'_, '_, '_>, _: PortId, _: Packet) {}

        fn on_timer(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, token: u64) {
            let span = extmem_wire::CounterSpan::begin();
            match token {
                ISSUE => self.send(ctx),
                REISSUE => {
                    assert!(self.channel.is_failed());
                    self.channel.recover_at(RECOVERED_PSN);
                    self.send(ctx);
                }
                t if t == self.channel.timer_token() => {
                    self.channel.on_timer_fired(ctx, &mut self.events);
                }
                other => panic!("unexpected token {other}"),
            }
            self.allocs.push(span.allocs());
        }
    }

    fn local() -> RoceEndpoint {
        RoceEndpoint {
            mac: MacAddr::local(1),
            ip: 0x0a000001,
        }
    }

    fn peer() -> RoceEndpoint {
        RoceEndpoint {
            mac: MacAddr::local(9),
            ip: 0x0a000009,
        }
    }

    /// A responder to replay captured frames at: registering on a fresh
    /// table hands out the same key and address every time.
    fn region() -> (extmem_rnic::MrTable, Rkey, u64) {
        let mut mrs = extmem_rnic::MrTable::new();
        let (rkey, base_va) = mrs.register(ByteSize::from_bytes(4096));
        (mrs, rkey, base_va)
    }

    /// `op`'s life on a channel to [`region`] whose server never answers:
    /// sent at 0, retransmitted [`MAX_RETRIES`] times as the RTO passes in
    /// silence (at 10 us, then with backoff), given up on at 950 us (the
    /// channel fails), reissued at 1 ms. Checks what every op has in common
    /// — one payload per transmission, the frame, and none for the callback
    /// that only gave up, which hands the op back whole; a retransmission
    /// that is the same frame; a reissue that differs in its PSN and in
    /// nothing else — and returns the simulation, the switch and every
    /// request as the blackhole parsed them, the reissue last.
    fn sent_and_reissued(op: Op) -> (extmem_sim::Simulator, extmem_types::NodeId, Vec<RocePacket>) {
        use extmem_rnic::requester::RequesterQp;
        use extmem_switch::switch::program_token;
        use extmem_switch::SwitchNode;
        use extmem_types::{QpNum, Time};

        let (_, rkey, base_va) = region();
        let channel = RdmaChannel {
            qp: RequesterQp::new(local(), peer(), QpNum(0x100)),
            rkey,
            base_va,
            region_len: 4096,
            server_port: PortId(0),
        };
        let program = Sender {
            channel: ReliableChannel::new(channel, impatient()),
            op,
            events: Vec::new(),
            allocs: Vec::new(),
        };
        let (mut sim, sw, hole) = behind_blackhole(program, |_, _| {});
        sim.schedule_timer(sw, TimeDelta::ZERO, program_token(ISSUE));
        sim.schedule_timer(sw, TimeDelta::from_micros(1000), program_token(REISSUE));
        sim.run_until(Time::from_micros(1005));

        let program = sim.node::<SwitchNode>(sw).program::<Sender>();
        let (cookie, op) = (1, program.op.clone());
        assert_eq!(
            program.events,
            [ChannelEvent::OpFailed { cookie, op }, ChannelEvent::Failed]
        );
        let transmissions = 1 + MAX_RETRIES as usize;
        let allocs = [vec![1; transmissions], vec![0, 1]].concat();
        assert_eq!(program.allocs, allocs);
        let frames = &sim.node::<Blackhole>(hole).frames;
        assert_eq!(frames.len(), transmissions + 1);
        for retransmission in &frames[1..transmissions] {
            assert_eq!(
                frames[0], *retransmission,
                "a retransmission is the same frame"
            );
        }
        let sent: Vec<RocePacket> = frames
            .iter()
            .map(|f| RocePacket::parse(f).unwrap().unwrap())
            .collect();
        let reissued = &sent[transmissions];
        assert_eq!((sent[0].bth.psn, reissued.bth.psn), (0, RECOVERED_PSN));
        let mut renumbered = reissued.clone();
        renumbered.bth.psn = 0;
        assert_eq!(renumbered.build().unwrap(), frames[0]);
        (sim, sw, sent)
    }

    #[test]
    fn framed_write_is_encoded_from_its_parts_every_time() {
        use extmem_rnic::responder::process_request;
        use extmem_rnic::QueuePair;
        use extmem_switch::SwitchNode;
        use extmem_types::QpNum;

        // The tail is a window of a larger buffer, as a stored frame that
        // was itself lifted out of another is.
        let frame = Payload::from_vec((0..200u8).collect());
        let body = WriteBody::framed(b"hdr[6]", frame.slice(20..180));
        let image = [&b"hdr[6]"[..], &frame[20..180]].concat();
        let (_, _, base_va) = region();
        let (sim, sw, sent) = sent_and_reissued(Op::Write {
            va: base_va + 64,
            body,
            ack_req: true,
        });

        let Op::Write { body, .. } = &sim.node::<SwitchNode>(sw).program::<Sender>().op else {
            unreachable!()
        };
        assert_eq!(
            body.tail.ref_count(),
            4,
            "the test, the program, the failed op in its event and the \
             reissued op share one tail"
        );
        for req in &sent {
            let RoceExt::Reth(reth) = req.ext else {
                panic!("a WRITE carries a RETH: {:?}", req.ext);
            };
            assert_eq!(reth.dma_len as usize, image.len());
            let (mut mrs, rkey, base_va) = region();
            let mut qp = QueuePair::new(QpNum(0x100), local(), SWITCH_QPN, req.bth.psn);
            process_request(peer(), &mut qp, &mut mrs, req, 2048);
            let landed = mrs
                .get(rkey)
                .unwrap()
                .read(base_va + 64, image.len() as u64);
            assert_eq!(landed.unwrap(), &image[..], "the region holds head ‖ tail");
        }
    }

    #[test]
    fn read_and_fetch_add_are_encoded_the_same_every_time() {
        use extmem_wire::atomic::AtomicEth;
        use extmem_wire::reth::Reth;

        let (_, rkey, base_va) = region();
        let va = base_va + 64;
        // A READ answered in one packet, one answered in three (its PSN
        // span is not the frame's business), and a Fetch-and-Add.
        let reth = |dma_len| RoceExt::Reth(Reth { va, rkey, dma_len });
        let atomic = RoceExt::AtomicEth(AtomicEth {
            va,
            rkey,
            swap_add: 41,
            compare: 0,
        });
        for (op, opcode, ext) in [
            (Op::Read { va, len: 300 }, Opcode::ReadRequest, reth(300)),
            (Op::Read { va, len: 5000 }, Opcode::ReadRequest, reth(5000)),
            (Op::FetchAdd { va, add: 41 }, Opcode::FetchAdd, atomic),
        ] {
            let (_, _, sent) = sent_and_reissued(op);
            for req in &sent {
                assert_eq!((req.bth.opcode, req.ext), (opcode, ext));
                assert!(req.payload.is_empty() && !req.bth.ack_req);
            }
        }
    }

    #[test]
    fn two_channels_get_distinct_resources() {
        let server = RoceEndpoint {
            mac: MacAddr::local(9),
            ip: 0x0a000009,
        };
        let switch = RoceEndpoint {
            mac: MacAddr::local(1),
            ip: 0x0a000001,
        };
        let mut nic = RnicNode::new("mem", RnicConfig::at(server));
        let a = RdmaChannel::setup(switch, PortId(3), &mut nic, ByteSize::from_kb(8));
        let b = RdmaChannel::setup(switch, PortId(3), &mut nic, ByteSize::from_kb(8));
        assert_ne!(a.rkey, b.rkey);
        assert_ne!(a.base_va, b.base_va);
        assert_ne!(a.qp.peer_qpn, b.qp.peer_qpn);
    }
}
