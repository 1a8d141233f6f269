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
use extmem_wire::bth::{psn_add, psn_before, Opcode};
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
        let mut qp = RequesterQp::new(switch_endpoint, nic.endpoint(), qpn, nic.mtu());
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

/// Reliability policy for a [`ReliableChannel`].
#[derive(Clone, Copy, Debug)]
pub struct ReliableConfig {
    /// Base retransmission timeout; the effective timeout is
    /// `rto << backoff_level` (exponential backoff).
    pub rto: TimeDelta,
    /// Timeout rounds before the channel declares itself failed and
    /// degrades to local-only operation (reliable mode only).
    pub max_retries: u32,
    /// Cap on the backoff shift, bounding the effective timeout at
    /// `rto << max_backoff_level`.
    pub max_backoff_level: u32,
    /// `true`: retransmit on NAK/timeout until `max_retries`, then fail
    /// over. `false`: best-effort — ops age out past the RTO and NAKs fail
    /// everything in flight (the caller absorbs the loss), but the channel
    /// itself never fails over.
    pub reliable: bool,
    /// Send requests through the high-priority queue (packet-buffer detour
    /// traffic uses this so RDMA is not stuck behind the very congestion it
    /// is trying to relieve).
    pub high_priority: bool,
    /// Transmit-window cap (reliable mode only): at most this many ops in
    /// flight at once; further ops queue inside the channel and go out as
    /// the window drains. This is what bounds a go-back-N volley — an
    /// unbounded window lets one loss trigger a retransmission burst that
    /// takes longer to serialize than the RTO, which re-times-out and
    /// snowballs into a storm (real QPs are bounded the same way, by their
    /// WQE count). Best-effort channels ignore it: with no retransmission
    /// there is no volley to bound, and windowing would flow-control a
    /// path whose whole point is to fire at line rate and let the server
    /// ceiling show as loss.
    pub max_window: usize,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        ReliableConfig {
            rto: TimeDelta::from_micros(100),
            max_retries: 8,
            max_backoff_level: 4,
            reliable: true,
            high_priority: false,
            max_window: 64,
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
    /// acknowledges it explicitly (loss is then recoverable even if no
    /// later op completes behind it).
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
    /// A remote op (indirect READ, hash-probe-and-fetch, conditional WRITE,
    /// gather/walk): a whole dependent-access chain the responder NIC
    /// executes locally, one RTT whatever its depth.
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
}

/// What the responder answered a finished [`Op`] with.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// A WRITE or Fetch-and-Add was acknowledged (explicitly or implicitly).
    Ack,
    /// A READ's reassembled response bytes (zero-copy for single-packet
    /// responses — the common case).
    Data(Payload),
    /// A remote op's response.
    Remote {
        /// Op-specific flags (`EXTOP_FLAG_HIT`, `EXTOP_FLAG_SECONDARY`).
        flags: u8,
        /// Op-specific index (matched slot for a hash probe).
        index: u16,
        /// Result bytes: gathered words, the matched bucket, the observed
        /// compare image, or the dereferenced entry.
        data: Payload,
    },
}

impl Reply {
    /// The bytes that came back, whichever kind of op fetched them; `None`
    /// for a bare acknowledgement.
    pub fn into_data(self) -> Option<Payload> {
        match self {
            Reply::Ack => None,
            Reply::Data(data) | Reply::Remote { data, .. } => Some(data),
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
    /// PSN of the request packet (first response PSN for READs).
    first_psn: u32,
    /// PSNs consumed: 1 for WRITE/atomic, response-packet count for READs.
    span: u32,
    cookie: u64,
    sent_at: Time,
    op: Op,
    /// The response packets of a READ longer than the MTU, by PSN offset
    /// (empty — unallocated — until the first of them arrives, and for
    /// every other op, the usual one-packet READ included, always).
    chunks: Vec<Option<Payload>>,
}

impl Outstanding {
    fn last_psn(&self) -> u32 {
        psn_add(self.first_psn, self.span - 1)
    }

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
/// cancellable timer (under [`ReliableChannel::timer_token`]) when ops go
/// outstanding and cancels it when the last one retires, so an idle or
/// healthy channel schedules no periodic tick events at all. The owning
/// program only has to route the token from its `on_timer` back into
/// [`ReliableChannel::on_timer_fired`].
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

/// Default timer token; distinct from every shipping primitive's own
/// tokens. Programs juggling several channels assign unique tokens via
/// [`ReliableChannel::set_timer_token`].
pub const DEFAULT_CHANNEL_TIMER_TOKEN: u64 = 0x7a11;

impl ReliableChannel {
    /// Wrap `channel` in the reliability layer.
    pub fn new(channel: RdmaChannel, config: ReliableConfig) -> ReliableChannel {
        assert!(config.max_window > 0, "window cap must admit at least one op");
        ReliableChannel {
            inner: channel,
            config,
            outstanding: VecDeque::new(),
            queue: VecDeque::new(),
            backoff_level: 0,
            retries: 0,
            nak_epoch: None,
            failed: false,
            timer_token: DEFAULT_CHANNEL_TIMER_TOKEN,
            timer: None,
            stats: ChannelStats::default(),
        }
    }

    /// The program-timer token the channel arms its deadline under.
    pub fn timer_token(&self) -> u64 {
        self.timer_token
    }

    /// Assign the timer token (before traffic flows). Owning programs set
    /// this so channel wakeups don't collide with their own tokens.
    pub fn set_timer_token(&mut self, token: u64) {
        assert!(self.timer.is_none(), "retoken an idle channel");
        self.timer_token = token;
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
        assert!(config.max_window > 0, "window cap must admit at least one op");
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
        s.backoff_level = self.backoff_level.min(self.config.max_backoff_level);
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

    /// Ops accepted but still parked behind the transmit window.
    pub fn queued_len(&self) -> usize {
        self.queue.len()
    }

    /// The absolute time the head-of-line op times out.
    fn deadline(&self) -> Option<Time> {
        let head = self.outstanding.front()?;
        let shift = if self.config.reliable {
            self.backoff_level.min(self.config.max_backoff_level)
        } else {
            0
        };
        Some(head.sent_at + TimeDelta::from_picos(self.config.rto.picos() << shift))
    }

    /// Reconcile the armed timer with the channel state: arm when ops go
    /// outstanding, cancel when the last one retires. A deadline that moved
    /// *later* (head retired, successor is younger) is left alone — the
    /// timer fires early once and re-arms for the exact remainder, which is
    /// cheaper than re-arming on every ACK.
    fn maintain_timer(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>) {
        let want = !self.failed && !self.outstanding.is_empty();
        match (want, self.timer) {
            (false, Some(h)) => {
                ctx.cancel_timer(h);
                self.timer = None;
            }
            (true, None) => {
                let deadline = self.deadline().expect("op outstanding");
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
    pub fn ops(&self) -> impl Iterator<Item = (u64, &Op)> {
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
        if self.config.reliable
            && (self.outstanding.len() >= self.config.max_window || !self.queue.is_empty())
        {
            self.queue.push_back((cookie, op));
        } else {
            self.launch(ctx, cookie, op);
            self.maintain_timer(ctx);
        }
        true
    }

    /// First transmission of an op: assign its PSN(s), record it
    /// outstanding, and put the request on the wire.
    fn launch(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, cookie: u64, op: Op) {
        let (qp, rkey) = (&mut self.inner.qp, self.inner.rkey);
        let first_psn = qp.npsn;
        let request = op.request();
        let span = qp.span(&request);
        let frame = qp.issue(rkey, &request);
        self.outstanding.push_back(Outstanding {
            first_psn,
            span,
            cookie,
            sent_at: ctx.now(),
            op,
            chunks: Vec::new(),
        });
        self.send(ctx, frame);
    }

    /// Launch queued ops into whatever room the window now has.
    fn pump_queue(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>) {
        while !self.failed && self.outstanding.len() < self.config.max_window {
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
        let consumed = match roce.bth.opcode {
            Opcode::ReadRespFirst
            | Opcode::ReadRespMiddle
            | Opcode::ReadRespLast
            | Opcode::ReadRespOnly => {
                self.on_read_resp(roce, events);
                true
            }
            Opcode::AtomicAcknowledge => {
                self.on_atomic_ack(roce.bth.psn, events);
                true
            }
            Opcode::ExtOpResp => {
                let RoceExt::ExtOpAck(aeth, ack) = roce.ext else {
                    return false;
                };
                if aeth.is_ack() {
                    self.on_ext_op_resp(roce.bth.psn, ack.flags, ack.index, &roce.payload, events);
                } else {
                    self.on_nak(ctx, roce.bth.psn, events);
                }
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

    fn on_read_resp(&mut self, roce: &RocePacket, events: &mut Vec<ChannelEvent>) {
        let psn = roce.bth.psn;
        let pos = self.outstanding.iter().position(|o| {
            matches!(o.op, Op::Read { .. })
                && !psn_before(psn, o.first_psn)
                && psn_before(psn, psn_add(o.first_psn, o.span))
        });
        let Some(pos) = pos else {
            // A replayed duplicate of a READ already completed: drop it
            // rather than double-applying the data.
            self.stats.duplicate_drops += 1;
            return;
        };
        self.progress();
        let op = &mut self.outstanding[pos];
        let data = if op.span == 1 {
            // Single-packet response: hand back the shared buffer.
            roce.payload.clone()
        } else {
            op.chunks.resize(op.span as usize, None);
            let at = psn.wrapping_sub(op.first_psn) & 0x00ff_ffff;
            op.chunks[at as usize] = Some(roce.payload.clone());
            if op.chunks.iter().any(|c| c.is_none()) {
                return;
            }
            let mut buf = extmem_wire::pool::take();
            for chunk in op.chunks.drain(..).flatten() {
                buf.extend_from_slice(&chunk);
            }
            Payload::from_vec(buf)
        };
        self.complete_at(pos, Reply::Data(data), events);
    }

    /// A remote op's response: completes exactly the matching op (exact-PSN
    /// match, span is always 1). Like a READ response, it proves execution
    /// *and* delivers the data in one packet.
    fn on_ext_op_resp(
        &mut self,
        psn: u32,
        flags: u8,
        index: u16,
        payload: &Payload,
        events: &mut Vec<ChannelEvent>,
    ) {
        self.stats.acks += 1;
        let pos = self
            .outstanding
            .iter()
            .position(|o| matches!(o.op, Op::Remote(_)) && o.first_psn == psn);
        let Some(pos) = pos else {
            // A replayed duplicate of an op already completed.
            self.stats.duplicate_drops += 1;
            return;
        };
        self.progress();
        let data = payload.clone();
        self.complete_at(pos, Reply::Remote { flags, index, data }, events);
    }

    fn on_atomic_ack(&mut self, psn: u32, events: &mut Vec<ChannelEvent>) {
        self.stats.acks += 1;
        let pos = self
            .outstanding
            .iter()
            .position(|o| matches!(o.op, Op::FetchAdd { .. }) && o.first_psn == psn);
        let Some(pos) = pos else {
            self.stats.duplicate_drops += 1;
            return;
        };
        self.progress();
        self.complete_at(pos, Reply::Ack, events);
    }

    /// A plain ACK of `psn` acknowledges every op through `psn`. WRITEs and
    /// atomics covered by it complete; READs do not — an ACK proves the
    /// responder *sent* their data, not that it arrived.
    fn on_ack(&mut self, psn: u32, events: &mut Vec<ChannelEvent>) {
        self.stats.acks += 1;
        if !self
            .outstanding
            .iter()
            .any(|op| psn_at_or_before(op.last_psn(), psn))
        {
            self.stats.duplicate_drops += 1;
            return;
        }
        self.progress();
        let covered = self
            .outstanding
            .iter()
            .take_while(|op| psn_at_or_before(op.last_psn(), psn))
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
                .take_while(|op| psn_before(op.last_psn(), epsn))
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
            let frame = qp.encode_at(sent.first_psn, rkey, &sent.op.request());
            self.send(ctx, frame);
            self.stats.retransmits += 1;
            self.outstanding[i].sent_at = now;
        }
    }

    /// The channel's retransmission deadline fired: the owning program
    /// routes its `on_timer` callback for [`ReliableChannel::timer_token`]
    /// here. If the head op moved on since the timer was armed, this
    /// re-arms for the exact remaining time; otherwise it runs the timeout
    /// action (go-back-N replay with backoff, or best-effort age-out).
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
            if self.retries >= self.config.max_retries {
                self.fail(ctx, events);
                return;
            }
            self.stats.timeouts += 1;
            self.retries += 1;
            self.backoff_level += 1;
            self.stats.max_backoff_level = self
                .stats
                .max_backoff_level
                .max(self.backoff_level.min(self.config.max_backoff_level));
            self.retransmit_all(ctx);
        } else {
            // Best effort: age out everything past the base RTO.
            let rto = self.config.rto;
            let aged = self
                .outstanding
                .iter()
                .take_while(|op| now.saturating_since(op.sent_at) >= rto)
                .count();
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
    /// `max_retries`. No-op on an already-failed channel.
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
        assert_eq!(ch.qp.mtu, nic.mtu());
        // The responder knows the switch as its peer.
        assert_eq!(nic.qp(ch.qp.peer_qpn).peer_qpn, SWITCH_QPN);
        // The region is real and zeroed.
        assert_eq!(
            nic.region(ch.rkey).read(ch.base_va, 8).unwrap(),
            &[0u8; 8][..]
        );
    }

    /// Owns one channel; when poked, issues READs answered by one, two and
    /// three response packets and plays the responder itself, delivering
    /// the chunks out of order and more than once.
    struct Reassembler {
        channel: ReliableChannel,
        events: Vec<ChannelEvent>,
    }

    const MTU: usize = 256;

    /// The bytes a READ of `span` response packets returns (the last chunk
    /// is five bytes short of a full MTU).
    fn read_image(span: usize) -> Vec<u8> {
        (0..span * MTU - 5).map(|i| (i * 31 + span) as u8).collect()
    }

    impl Reassembler {
        /// Deliver response packet `chunk` of the READ whose first PSN is
        /// `first_psn` and which spans `span` packets.
        fn deliver(
            &mut self,
            ctx: &mut SwitchCtx<'_, '_, '_>,
            first_psn: u32,
            span: usize,
            chunk: usize,
        ) {
            use extmem_wire::aeth::Aeth;
            use extmem_wire::bth::Bth;
            let image = read_image(span);
            let opcode = match (span, chunk) {
                (1, _) => Opcode::ReadRespOnly,
                (_, 0) => Opcode::ReadRespFirst,
                (s, c) if c == s - 1 => Opcode::ReadRespLast,
                _ => Opcode::ReadRespMiddle,
            };
            let ext = match opcode {
                Opcode::ReadRespMiddle => RoceExt::None,
                _ => RoceExt::Aeth(Aeth::ack(0)),
            };
            let qp = &self.channel.inner().qp;
            let resp = RocePacket::new(
                qp.peer,
                qp.local,
                qp.udp_src_port,
                Bth::new(opcode, SWITCH_QPN, first_psn + chunk as u32),
                ext,
                image[chunk * MTU..image.len().min((chunk + 1) * MTU)].to_vec(),
            );
            assert!(self.channel.on_roce(ctx, &resp, &mut self.events));
        }
    }

    impl extmem_switch::PipelineProgram for Reassembler {
        fn ingress(&mut self, _: &mut SwitchCtx<'_, '_, '_>, _: PortId, _: Packet) {}

        fn on_timer(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, _token: u64) {
            // PSN 0 | 1..=2 | 3..=5.
            for span in 1..=3usize {
                let len = read_image(span).len() as u32;
                let read = Op::Read { va: 0x1000, len };
                assert!(self.channel.submit(ctx, read, span as u64));
            }
            // The three-packet READ first: last chunk, first chunk twice,
            // then the middle one completes it.
            for chunk in [2, 0, 0, 1] {
                assert!(self.events.is_empty(), "completed with a chunk missing");
                self.deliver(ctx, 3, 3, chunk);
            }
            assert_eq!(self.events.len(), 1);
            // The two-packet READ back to front, its tail duplicated.
            for chunk in [1, 1, 0] {
                assert_eq!(self.events.len(), 1, "completed with a chunk missing");
                self.deliver(ctx, 1, 2, chunk);
            }
            self.deliver(ctx, 0, 1, 0);
            assert_eq!(self.events.len(), 3);
            // Replays of finished READs are dropped, not double-applied.
            let dups = self.channel.stats().duplicate_drops;
            self.deliver(ctx, 3, 3, 1);
            self.deliver(ctx, 1, 2, 0);
            self.deliver(ctx, 0, 1, 0);
            assert_eq!(self.channel.stats().duplicate_drops, dups + 3);
        }
    }

    #[test]
    fn read_reassembly_survives_reordered_and_duplicated_chunks() {
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
            qp: RequesterQp::new(local, peer, QpNum(0x100), MTU),
            rkey: Rkey(7),
            base_va: 0x1000,
            region_len: 1 << 16,
            server_port: PortId(0),
        };
        let program = Reassembler {
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

        let program = sim.node::<SwitchNode>(sw).program::<Reassembler>();
        assert_eq!(program.channel.outstanding_len(), 0);
        let done: Vec<(u64, Vec<u8>)> = program
            .events
            .iter()
            .map(|ev| match ev {
                ChannelEvent::Done {
                    cookie,
                    reply: Reply::Data(data),
                    ..
                } => (*cookie, data.to_vec()),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        // Completion order follows delivery; the bytes are each READ's
        // chunks in PSN order, once, whatever order they arrived in.
        let want: Vec<(u64, Vec<u8>)> = [3usize, 2, 1]
            .iter()
            .map(|&span| (span as u64, read_image(span)))
            .collect();
        assert_eq!(done, want);
    }

    /// Owns one channel with a one-op window behind a server that never
    /// answers; the test pokes it through the stages of a remote op's life.
    struct OpIssuer {
        channel: ReliableChannel,
        events: Vec<ChannelEvent>,
    }

    fn probe_op() -> RemoteOp {
        RemoteOp::HashProbe {
            base_va: 0x1000,
            b1: 3,
            b2: 9,
            bucket_bytes: 128,
            slot_bytes: 32,
            key_off: 0,
            key: Operand::new(b"thirteen-byte"),
        }
    }

    fn install_op() -> RemoteOp {
        RemoteOp::CondWrite {
            cmp_va: 0x1040,
            write_va: 0x1080,
            compare: Operand::new(&[0xc5; 32]),
            write: Operand::new(&[0x3a; 32]),
        }
    }

    const ISSUE: u64 = 1;
    const ANSWER_PROBE: u64 = 2;
    const REISSUE: u64 = 3;
    const RECOVERED_PSN: u32 = 0x10_0000;

    impl extmem_switch::PipelineProgram for OpIssuer {
        fn ingress(&mut self, _: &mut SwitchCtx<'_, '_, '_>, _: PortId, _: Packet) {}

        fn on_timer(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, token: u64) {
            use extmem_wire::aeth::Aeth;
            use extmem_wire::bth::Bth;
            use extmem_wire::extop::ExtOpAckEth;
            match token {
                ISSUE => {
                    // The probe takes the window; the install queues.
                    assert!(self.channel.submit(ctx, Op::Remote(probe_op()), 1));
                    assert!(self.channel.submit(ctx, Op::Remote(install_op()), 2));
                    assert_eq!(self.channel.queued_len(), 1);
                }
                ANSWER_PROBE => {
                    let qp = &self.channel.inner().qp;
                    let resp = RocePacket::new(
                        qp.peer,
                        qp.local,
                        qp.udp_src_port,
                        Bth::new(Opcode::ExtOpResp, SWITCH_QPN, 0),
                        RoceExt::ExtOpAck(
                            Aeth::ack(1),
                            ExtOpAckEth {
                                op: Opcode::HashProbe as u8,
                                flags: 0,
                                index: 0,
                            },
                        ),
                        vec![],
                    );
                    assert!(self.channel.on_roce(ctx, &resp, &mut self.events));
                    assert_eq!(self.channel.queued_len(), 0, "the install launched");
                }
                REISSUE => {
                    // What the pool does with an op orphaned by a failover.
                    assert!(self.channel.is_failed());
                    self.channel.recover_at(RECOVERED_PSN);
                    assert!(self.channel.submit(ctx, Op::Remote(install_op()), 2));
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
    /// RTO 10 us, one retry.
    pub(crate) fn impatient(max_window: usize) -> ReliableConfig {
        ReliableConfig {
            rto: TimeDelta::from_micros(10),
            max_retries: 1,
            max_window,
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
            qp: RequesterQp::new(local, peer, QpNum(0x100), 2048),
            rkey: Rkey(7),
            base_va: 0x1000,
            region_len: 1 << 16,
            server_port: PortId(0),
        };
        let program = OpIssuer {
            channel: ReliableChannel::new(channel, impatient(1)),
            events: Vec::new(),
        };
        let (mut sim, sw, hole) = behind_blackhole(program, |_, _| {});
        // The probe goes out at 0 and, unanswered, again at 10 us; its
        // answer at 15 us lets the install out, which times out at 25 us,
        // is retransmitted, and at 45 us takes the channel down with it.
        sim.schedule_timer(sw, TimeDelta::ZERO, program_token(ISSUE));
        sim.schedule_timer(sw, TimeDelta::from_micros(15), program_token(ANSWER_PROBE));
        sim.schedule_timer(sw, TimeDelta::from_micros(60), program_token(REISSUE));
        sim.run_until(Time::from_micros(65));

        let program = sim.node::<SwitchNode>(sw).program::<OpIssuer>();
        // The failed install comes back whole, as it was submitted.
        let orphan = ChannelEvent::OpFailed {
            cookie: 2,
            op: Op::Remote(install_op()),
        };
        assert_eq!(program.events[1..], [orphan, ChannelEvent::Failed]);
        assert!(matches!(
            &program.events[0],
            ChannelEvent::Done { cookie: 1, op, reply: Reply::Remote { .. } }
                if *op == Op::Remote(probe_op())
        ));
        let frames = &sim.node::<Blackhole>(hole).frames;
        let sent: Vec<RocePacket> = frames
            .iter()
            .map(|f| RocePacket::parse(f).unwrap().unwrap())
            .collect();
        let seen: Vec<(Opcode, u32)> = sent.iter().map(|p| (p.bth.opcode, p.bth.psn)).collect();
        assert_eq!(
            seen,
            [
                (Opcode::HashProbe, 0),
                (Opcode::HashProbe, 0),
                (Opcode::CondWrite, 1),
                (Opcode::CondWrite, 1),
                (Opcode::CondWrite, RECOVERED_PSN),
            ]
        );
        // A retransmission is the same frame, byte for byte.
        assert_eq!(frames[0], frames[1]);
        assert_eq!(frames[2], frames[3]);
        // The reissue differs in its PSN and in nothing the op describes.
        assert_eq!(sent[4].ext, sent[2].ext);
        assert_eq!(sent[4].payload, sent[2].payload);
        assert_eq!(sent[0].payload, *b"thirteen-byte");
        assert_eq!(sent[2].payload, [[0xc5u8; 32], [0x3a; 32]].concat());
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
    /// sent at 0, retransmitted at 10 us when the RTO passes in silence,
    /// given up on at 30 us (the channel fails), reissued at 60 us. Checks
    /// what every op has in common — one payload per transmission, the
    /// frame, and none for the callback that only gave up, which hands the
    /// op back whole; a
    /// retransmission that is the same frame; a reissue that differs in
    /// its PSN and in nothing else — and returns the simulation, the switch
    /// and the three requests as the blackhole parsed them.
    fn sent_three_times(op: Op) -> (extmem_sim::Simulator, extmem_types::NodeId, Vec<RocePacket>) {
        use extmem_rnic::requester::RequesterQp;
        use extmem_switch::switch::program_token;
        use extmem_switch::SwitchNode;
        use extmem_types::{QpNum, Time};

        let (_, rkey, base_va) = region();
        let channel = RdmaChannel {
            qp: RequesterQp::new(local(), peer(), QpNum(0x100), 2048),
            rkey,
            base_va,
            region_len: 4096,
            server_port: PortId(0),
        };
        let window = ReliableConfig::default().max_window;
        let program = Sender {
            channel: ReliableChannel::new(channel, impatient(window)),
            op,
            events: Vec::new(),
            allocs: Vec::new(),
        };
        let (mut sim, sw, hole) = behind_blackhole(program, |_, _| {});
        sim.schedule_timer(sw, TimeDelta::ZERO, program_token(ISSUE));
        sim.schedule_timer(sw, TimeDelta::from_micros(60), program_token(REISSUE));
        sim.run_until(Time::from_micros(65));

        let program = sim.node::<SwitchNode>(sw).program::<Sender>();
        let (cookie, op) = (1, program.op.clone());
        assert_eq!(
            program.events,
            [ChannelEvent::OpFailed { cookie, op }, ChannelEvent::Failed]
        );
        assert_eq!(program.allocs, [1, 1, 0, 1]);
        let frames = &sim.node::<Blackhole>(hole).frames;
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0], frames[1], "a retransmission is the same frame");
        let sent: Vec<RocePacket> = frames
            .iter()
            .map(|f| RocePacket::parse(f).unwrap().unwrap())
            .collect();
        assert_eq!((sent[0].bth.psn, sent[2].bth.psn), (0, RECOVERED_PSN));
        let mut renumbered = sent[2].clone();
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
        let (sim, sw, sent) = sent_three_times(Op::Write {
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
            let (_, _, sent) = sent_three_times(op);
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
