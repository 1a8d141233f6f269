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

use extmem_rnic::qp::{Transport, ATOMIC_RESULTS};
use extmem_rnic::requester::{RemoteOp, Request, RequesterQp, WriteBody};
use extmem_rnic::RnicNode;
use extmem_sim::TimerHandle;
use extmem_switch::SwitchCtx;
use extmem_types::{ByteSize, PortId, QpNum, Rkey, Time, TimeDelta};
use extmem_wire::aeth::{NakCode::PsnSequenceError, Syndrome};
use extmem_wire::bth::{psn_before, Opcode};
use extmem_wire::roce::{RoceEndpoint, RoceExt, RocePacket};
use extmem_wire::{Packet, Payload, WireError};
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
    /// The responder QP's transport, which only
    /// [`ReliableChannel::set_config`] sets.
    pub(crate) transport: Transport,
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
        let (qpn, transport) = nic.create_qp(switch_endpoint, SWITCH_QPN, start_psn);
        let mut qp = RequesterQp::new(switch_endpoint, nic.endpoint(), qpn);
        qp.npsn = start_psn;
        RdmaChannel {
            qp,
            rkey,
            base_va,
            region_len: region_size.bytes(),
            server_port,
            transport,
        }
    }
}

// ---------------------------------------------------------------------------
// Requester-side reliability layer (§7: retry, resynchronize, degrade).
// ---------------------------------------------------------------------------

/// Timeout rounds before a reliable channel declares itself failed and
/// degrades to local-only operation, unless a replicated pool gives it a
/// cap of its own. With [`MAX_BACKOFF_LEVEL`], a channel facing a silent
/// server gives up `1 + 2 + 4 + 8 + 5 × 16 = 95` RTOs after its last
/// progress.
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
    /// `true`: an RC responder QP; retransmit on NAK/timeout until the
    /// channel's retry cap ([`MAX_RETRIES`]), then fail over. `false`: best
    /// effort — a UC one, so a lost request costs only itself; ops age out
    /// past the RTO (the caller absorbs the loss), and the channel never
    /// fails over.
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
    /// Fetch-and-Add requests put on the wire: first sends and re-sends.
    pub faa_sent: u64,
    /// Acknowledgements consumed (plain + atomic).
    pub acks: u64,
    /// NAKs consumed.
    pub naks: u64,
    /// Request packets retransmitted (go-back-N volleys and implicit NAKs).
    pub retransmits: u64,
    /// Ops re-sent alone because the answer to an op sent after them came
    /// first (an implicit NAK).
    pub implicit_resends: u64,
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
    /// least once (historical flag — survives [`ReliableChannel::reconnect`]).
    pub failed_over: bool,
}

impl ChannelStats {
    /// Aggregate counters across channels (multi-channel primitives).
    pub fn merge(&mut self, other: &ChannelStats) {
        self.ops_issued += other.ops_issued;
        self.faa_sent += other.faa_sent;
        self.acks += other.acks;
        self.naks += other.naks;
        self.retransmits += other.retransmits;
        self.implicit_resends += other.implicit_resends;
        self.timeouts += other.timeouts;
        self.duplicate_drops += other.duplicate_drops;
        self.aged_out += other.aged_out;
        self.naks_suppressed += other.naks_suppressed;
        self.backoff_level = self.backoff_level.max(other.backoff_level);
        self.max_backoff_level = self.max_backoff_level.max(other.max_backoff_level);
        self.failed_over |= other.failed_over;
    }
}

impl fmt::Display for ChannelStats {
    /// Compact one-line form: `ops=… acks=… … failed=…`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ops={} acks={} naks={} retx={} timeouts={} dups={} aged={} \
             sup={} backoff={}/{} failed={}",
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
    /// and its loss shows as that op's NAK (or, if the NAK is lost, timeout).
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
    /// Connect the responder QP at this op's PSN, answered by a plain ACK:
    /// the first op after [`ReliableChannel::reconnect`].
    Connect,
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
            Op::Connect => Request::Connect,
        }
    }

    /// Whether only an answer of its own completes the op, not any
    /// acknowledgement at or past its PSN: a READ's or remote op's data, or
    /// a Fetch-and-Add's value. (A best-effort channel's UC responder jumps
    /// gaps, so there a later answer does not even prove the op ran.)
    fn bears_response(&self) -> bool {
        match self {
            Op::Read { .. } | Op::Remote(_) | Op::FetchAdd { .. } => true,
            Op::Write { .. } | Op::Connect => false,
        }
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
    /// A WRITE was acknowledged, explicitly or by the answer to an op behind
    /// it, or a connect was. A Fetch-and-Add completes with
    /// [`Reply::Fetched`] only.
    Ack,
    /// A Fetch-and-Add's own atomic acknowledgement: the word's value just
    /// before the add.
    Fetched(u64),
    /// A READ's or a remote op's response bytes (a window of the response
    /// frame, not a copy): a gather's words, a hash probe's matched slot,
    /// nothing for a probe's miss.
    Data(Payload),
}

impl Reply {
    /// The bytes that came back, whichever kind of op fetched them; `None`
    /// for an acknowledgement.
    pub fn into_data(self) -> Option<Payload> {
        match self {
            Reply::Ack | Reply::Fetched(_) => None,
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
    /// The op was abandoned: aged out (best-effort), or in flight or queued
    /// when the channel failed over.
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
    /// Its latest transmission's place in the channel's send order (serial
    /// arithmetic: ops in flight are far fewer than `2^31` sends apart).
    sent_nr: u32,
    op: Op,
    /// A reliable Fetch-and-Add's value, when its answer overtook an older
    /// one's: held until that one is answered.
    fetched: Option<u64>,
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

/// How many PSNs `to` lies past `from`, on the 24-bit circle.
fn psn_distance(from: u32, to: u32) -> u32 {
    to.wrapping_sub(from) & 0x00ff_ffff
}

/// All [`ReliableChannel`] asks of the world it runs in: a clock, a way out
/// to its server's port, and cancellable timers that come back under a
/// token. A switch program's [`SwitchCtx`] is that world; a test can be
/// another, and drive the channel with no simulator behind it.
pub trait ChannelIo {
    /// Current time.
    fn now(&self) -> Time;
    /// Put `frame` out on `port`, ahead of normal traffic if `high`.
    fn send(&mut self, port: PortId, frame: Packet, high: bool);
    /// Fire `token` back at the channel's owner after `delay`.
    fn arm(&mut self, delay: TimeDelta, token: u64) -> TimerHandle;
    /// Cancel an armed timer; a stale handle is a no-op.
    fn cancel(&mut self, handle: TimerHandle);
}

impl ChannelIo for SwitchCtx<'_, '_, '_> {
    fn now(&self) -> Time {
        SwitchCtx::now(self)
    }
    fn send(&mut self, port: PortId, frame: Packet, high: bool) {
        if high {
            self.enqueue_high(port, frame);
        } else {
            self.enqueue(port, frame);
        }
    }
    fn arm(&mut self, delay: TimeDelta, token: u64) -> TimerHandle {
        self.schedule_cancellable(delay, token)
    }
    fn cancel(&mut self, handle: TimerHandle) {
        self.cancel_timer(handle);
    }
}

/// The requester-side reliability layer every primitive shares: tracks
/// outstanding ops by PSN (24-bit wrap-aware), retransmits on NAK, on an
/// answer that overtook a lost one (an implicit NAK) and on an
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
    /// Timeout rounds past which the next fire fails the channel: the one
    /// rule that gives up on a server, as a verbs QP's `retry_cnt`.
    retry_cap: u32,
    /// Expected PSN of the last NAK answered with a go-back-N volley;
    /// repeats of it are suppressed (one volley per loss epoch).
    nak_epoch: Option<u32>,
    failed: bool,
    /// Program-timer token the channel arms its deadline under.
    timer_token: u64,
    /// The armed retransmission timer, if any, and the deadline it was
    /// armed for.
    timer: Option<(TimerHandle, Time)>,
    /// Requests put on the wire so far: the send order's counter.
    sends: u32,
    stats: ChannelStats,
}

/// Tag of a channel's program-timer token: the channel to the server on
/// switch port `p` arms its deadline under `CHANNEL_TIMER | p`, so one
/// program's channels never share a token as long as their servers never
/// share a port. Clear of every program's own tokens (all below `1 << 32`).
pub(crate) const CHANNEL_TIMER: u64 = 1 << 32;

impl ReliableChannel {
    /// Wrap `channel` in the reliability layer, under `config`
    /// ([`ReliableChannel::set_config`]).
    pub fn new(channel: RdmaChannel, config: ReliableConfig) -> ReliableChannel {
        let mut channel = ReliableChannel {
            timer_token: CHANNEL_TIMER | channel.server_port.0 as u64,
            inner: channel,
            config,
            outstanding: VecDeque::new(),
            queue: VecDeque::new(),
            backoff_level: 0,
            retries: 0,
            retry_cap: MAX_RETRIES,
            nak_epoch: None,
            failed: false,
            timer: None,
            sends: 0,
            stats: ChannelStats::default(),
        };
        channel.set_config(config);
        channel
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
    /// flight (primitives expose this as a pre-traffic builder knob). This
    /// is the one place the responder QP's transport is set: RC when
    /// `reliable`, UC otherwise.
    pub fn set_config(&mut self, config: ReliableConfig) {
        assert!(
            self.outstanding.is_empty() && self.queue.is_empty() && !self.failed,
            "reconfigure an idle channel"
        );
        self.config = config;
        self.inner.transport.set_reliable(config.reliable);
    }

    /// Fail on the fire after `cap` timeout rounds with no progress, in
    /// place of [`MAX_RETRIES`]: a replicated pool's write-off rule.
    pub(crate) fn set_retry_cap(&mut self, cap: u32) {
        self.retry_cap = cap;
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
    /// answered op goes outstanding, cancel when the last one retires, and
    /// pull the timer in when the deadline moved *earlier* (progress reset
    /// the backoff). A deadline that moved *later* (head retired, successor
    /// is younger) is left alone — the timer fires early once and re-arms
    /// for the exact remainder, which is cheaper than re-arming on every
    /// ACK.
    fn maintain_timer(&mut self, io: &mut impl ChannelIo) {
        let deadline = if self.failed { None } else { self.deadline() };
        match (deadline, self.timer) {
            (None, Some((h, _))) => {
                io.cancel(h);
                self.timer = None;
            }
            (Some(deadline), Some((h, armed))) if deadline < armed => {
                io.cancel(h);
                self.arm(io, deadline);
            }
            (Some(deadline), None) => self.arm(io, deadline),
            _ => {}
        }
    }

    /// Arm the retransmission timer for `deadline` (at once, if it has
    /// passed).
    fn arm(&mut self, io: &mut impl ChannelIo, deadline: Time) {
        let delay = deadline.saturating_since(io.now());
        let handle = io.arm(delay, self.timer_token);
        self.timer = Some((handle, deadline));
    }

    /// Put a request on the wire; one that did not encode is lost, as on
    /// the wire, and found the same way.
    fn send(&self, io: &mut impl ChannelIo, frame: Result<Packet, WireError>) {
        if let Ok(frame) = frame {
            io.send(self.inner.server_port, frame, self.config.high_priority);
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
    pub fn submit(&mut self, io: &mut impl ChannelIo, op: Op, cookie: u64) -> bool {
        if self.failed {
            return false;
        }
        self.stats.ops_issued += 1;
        if self.config.reliable && (!self.has_room() || !self.queue.is_empty()) {
            self.queue.push_back((cookie, op));
        } else {
            self.launch(io, cookie, op);
            self.maintain_timer(io);
        }
        true
    }

    /// Whether a reliable channel may launch another op: its window has
    /// room, and the op's PSN is fewer than [`ATOMIC_RESULTS`] past that of
    /// every Fetch-and-Add still unanswered, so the responder still holds
    /// the result a re-send of one would be answered with.
    fn has_room(&self) -> bool {
        let npsn = self.inner.qp.npsn;
        let far = |o: &&Outstanding| psn_distance(o.psn, npsn) >= ATOMIC_RESULTS as u32;
        self.outstanding.len() < MAX_WINDOW
            && !(self.outstanding.iter().take_while(far))
                .any(|o| matches!(o.op, Op::FetchAdd { .. }))
    }

    /// First transmission of an op: assign its PSN, record it
    /// outstanding, and put the request on the wire.
    fn launch(&mut self, io: &mut impl ChannelIo, cookie: u64, op: Op) {
        let (qp, rkey) = (&mut self.inner.qp, self.inner.rkey);
        let psn = qp.npsn;
        let frame = qp.issue(rkey, &op.request());
        self.stats.faa_sent += matches!(op, Op::FetchAdd { .. }) as u64;
        self.sends = self.sends.wrapping_add(1);
        self.outstanding.push_back(Outstanding {
            psn,
            cookie,
            sent_at: io.now(),
            sent_nr: self.sends,
            op,
            fetched: None,
        });
        self.send(io, frame);
    }

    /// Launch queued ops into whatever room the window now has.
    fn pump_queue(&mut self, io: &mut impl ChannelIo) {
        while !self.failed && self.has_room() {
            let Some((cookie, op)) = self.queue.pop_front() else {
                break;
            };
            self.launch(io, cookie, op);
        }
    }

    /// Feed a RoCE packet from the memory server. Returns `true` if it was
    /// a response belonging to this channel's QP flow (completions and
    /// failures are appended to `events`).
    pub fn on_roce(
        &mut self,
        io: &mut impl ChannelIo,
        roce: &RocePacket,
        events: &mut Vec<ChannelEvent>,
    ) -> bool {
        let psn = roce.bth.psn;
        let consumed = match roce.bth.opcode {
            Opcode::ReadRespOnly => {
                self.on_response(io, psn, Reply::Data(roce.payload.clone()), events);
                true
            }
            Opcode::AtomicAcknowledge => {
                let RoceExt::AtomicAck(_, ack) = roce.ext else {
                    return false;
                };
                self.stats.acks += 1;
                self.on_response(io, psn, Reply::Fetched(ack.original_value), events);
                true
            }
            Opcode::Acknowledge => {
                let RoceExt::Aeth(aeth) = roce.ext else {
                    return false;
                };
                match aeth.syndrome {
                    Syndrome::Ack { .. } => self.on_ack(io, psn, events),
                    // A refused request would be refused again, and a
                    // restarted responder's QP is gone: fail over, as an RC
                    // QP enters its error state. The restart NAK may find
                    // the channel failed already.
                    Syndrome::Nak(code) if code != PsnSequenceError && self.config.reliable => {
                        self.stats.naks += 1;
                        self.fail(io, events);
                    }
                    _ => self.on_nak(io, psn, events),
                }
                true
            }
            _ => false,
        };
        if consumed {
            self.pump_queue(io);
            self.maintain_timer(io);
        }
        consumed
    }

    /// Any valid response is progress: the responder is alive and moving.
    fn progress(&mut self) {
        self.backoff_level = 0;
        self.retries = 0;
        self.nak_epoch = None;
    }

    /// Retire the WRITEs and connects among the first `n` outstanding ops:
    /// the in-order responder has executed them (or, UC, jumped them). The
    /// response-bearing ones stay — the responder executed those too, but
    /// their answer may still be in flight (or lost, in which case
    /// [`Self::resend_overtaken`] re-sends them). Returns how many stayed.
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
    /// every *earlier* op [`Self::retire_executed`] retires (for this
    /// response to exist, the responder must have executed them).
    fn complete_at(&mut self, idx: usize, reply: Reply, events: &mut Vec<ChannelEvent>) {
        let at = self.retire_executed(idx, events);
        if let Some(op) = self.outstanding.remove(at) {
            events.push(op.retire(reply));
        }
    }

    /// A response that answers one op: a READ's data, an atomic's
    /// acknowledgement or a remote op's result. It completes the op of its
    /// kind sent under `psn` (and, as any response does, every earlier op
    /// that needs no answer of its own): it proves execution and carries the
    /// answer in one packet.
    ///
    /// A reliable channel completes its Fetch-and-Adds in PSN order, so the
    /// value each brings back holds the adds of every one completed before
    /// it and of none still outstanding. An atomic's acknowledgement that
    /// overtook an older one's lost answer is held on its op until the
    /// re-send of the older one ([`Self::resend_overtaken`]) is answered
    /// from the responder's saved results.
    fn on_response(
        &mut self,
        io: &mut impl ChannelIo,
        psn: u32,
        reply: Reply,
        events: &mut Vec<ChannelEvent>,
    ) {
        let pos = self.outstanding.iter().position(|o| {
            o.psn == psn
                && o.fetched.is_none()
                && matches!(
                    (&o.op, &reply),
                    (Op::Read { .. } | Op::Remote(_), Reply::Data(_))
                        | (Op::FetchAdd { .. }, Reply::Fetched(_))
                )
        });
        let Some(pos) = pos else {
            // A replayed duplicate of an op already completed: drop it
            // rather than apply it twice.
            self.stats.duplicate_drops += 1;
            return;
        };
        self.progress();
        self.resend_overtaken(io, pos);
        match reply {
            Reply::Fetched(original) if self.config.reliable => {
                self.outstanding[pos].fetched = Some(original);
                let is_faa = |o: &Outstanding| matches!(o.op, Op::FetchAdd { .. });
                while let Some(oldest) = self.outstanding.iter().position(is_faa) {
                    let Some(original) = self.outstanding[oldest].fetched else {
                        break;
                    };
                    self.complete_at(oldest, Reply::Fetched(original), events);
                }
            }
            reply => self.complete_at(pos, reply, events),
        }
    }

    /// A plain ACK of `psn` acknowledges every op through `psn`. The WRITEs
    /// (and connects) covered by it complete; the ops that bear
    /// a response do not — an ACK proves the responder *sent* their answer,
    /// not that it arrived. As the answer to the op sent under `psn`, it
    /// re-sends the ones whose answer it overtook.
    fn on_ack(&mut self, io: &mut impl ChannelIo, psn: u32, events: &mut Vec<ChannelEvent>) {
        self.stats.acks += 1;
        let covered = self
            .outstanding
            .iter()
            .take_while(|op| psn_at_or_before(op.psn, psn))
            .count();
        if covered == 0 {
            self.stats.duplicate_drops += 1;
            return;
        }
        self.progress();
        if self.outstanding[covered - 1].psn == psn {
            self.resend_overtaken(io, covered - 1);
        }
        self.retire_executed(covered, events);
    }

    /// Implicit NAK: the op at `idx` was just answered, and the in-order
    /// responder's answers come back over FIFO links, so every unanswered
    /// response-bearing op ahead of it that was last sent before it lost its
    /// answer: re-send each alone. The timer is left to catch silence.
    fn resend_overtaken(&mut self, io: &mut impl ChannelIo, idx: usize) {
        let answered_nr = self.outstanding[idx].sent_nr;
        for i in 0..idx {
            let o = &self.outstanding[i];
            let earlier = (answered_nr.wrapping_sub(o.sent_nr) as i32) > 0;
            if self.config.reliable && earlier && o.fetched.is_none() && o.op.bears_response() {
                self.stats.implicit_resends += 1;
                self.resend(io, i);
            }
        }
    }

    /// The responder NAKed a PSN gap: its `epsn` (carried in the NAK's PSN
    /// field) names the next request it expects. A reliable channel replays
    /// everything still outstanding under the original PSNs. A best-effort
    /// channel's UC responder jumps gaps and sends no such NAK; a refusal of
    /// one of its ops comes here too, and the op ages out.
    fn on_nak(&mut self, io: &mut impl ChannelIo, epsn: u32, events: &mut Vec<ChannelEvent>) {
        self.stats.naks += 1;
        if !self.config.reliable {
            return;
        }
        // Ops fully before the responder's expected PSN were executed;
        // complete the WRITEs among them (an answer of its own may still be
        // lost — the volley below re-sends those).
        let executed = self
            .outstanding
            .iter()
            .take_while(|op| psn_before(op.psn, epsn))
            .count();
        self.retire_executed(executed, events);
        if self.nak_epoch == Some(epsn) {
            // Every out-of-sequence packet behind the same loss draws its
            // own NAK; the volley already in flight answers them all, and
            // replying to each would multiply it into a storm.
            self.stats.naks_suppressed += 1;
            self.backoff_level = 0;
            self.retries = 0;
            return;
        }
        self.progress();
        self.nak_epoch = Some(epsn);
        self.retransmit_all(io);
    }

    /// Go-back-N: re-send every outstanding op under its original PSN,
    /// except a Fetch-and-Add whose answer is held. The responder
    /// re-executes duplicate READs, answers duplicate atomics from its
    /// saved results, and does not re-execute duplicate WRITEs (it ACKs
    /// one only if it asks: the answer to an op behind it confirms the
    /// rest), so replays are idempotent.
    fn retransmit_all(&mut self, io: &mut impl ChannelIo) {
        for i in 0..self.outstanding.len() {
            // A held answer is in; only an older op's answer is awaited.
            if self.outstanding[i].fetched.is_none() {
                self.resend(io, i);
            }
        }
    }

    /// Re-send the outstanding op at `idx` under its original PSN.
    fn resend(&mut self, io: &mut impl ChannelIo, idx: usize) {
        let sent = &self.outstanding[idx];
        let frame = (self.inner.qp).encode_at(sent.psn, self.inner.rkey, &sent.op.request());
        self.stats.faa_sent += matches!(sent.op, Op::FetchAdd { .. }) as u64;
        self.stats.retransmits += 1;
        self.sends = self.sends.wrapping_add(1);
        let sent = &mut self.outstanding[idx];
        sent.sent_at = io.now();
        sent.sent_nr = self.sends;
        self.send(io, frame);
    }

    /// The channel's retransmission deadline fired: the owning program
    /// routes its `on_timer` callback for [`ReliableChannel::timer_token`]
    /// here. If the oldest answered op moved on since the timer was armed,
    /// this re-arms for the exact remaining time; otherwise it runs the
    /// timeout action (go-back-N replay with backoff, or best-effort
    /// age-out).
    pub fn on_timer_fired(&mut self, io: &mut impl ChannelIo, events: &mut Vec<ChannelEvent>) {
        self.timer = None;
        if self.failed {
            return;
        }
        let Some(deadline) = self.deadline() else {
            return;
        };
        let now = io.now();
        if now < deadline {
            // The old head retired and its successor is younger: fire was
            // premature, re-arm for the real deadline.
            self.arm(io, deadline);
            return;
        }
        if self.config.reliable {
            if self.retries >= self.retry_cap {
                self.fail(io, events);
                return;
            }
            self.stats.timeouts += 1;
            self.retries += 1;
            self.backoff_level += 1;
            self.stats.max_backoff_level = self
                .stats
                .max_backoff_level
                .max(self.backoff_level.min(MAX_BACKOFF_LEVEL));
            self.retransmit_all(io);
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
            self.pump_queue(io);
        }
        self.maintain_timer(io);
    }

    /// Give up: fail every outstanding op, mark the channel failed, drop
    /// the armed deadline, and emit the degradation signal. The retry cap
    /// and a refusal NAK both end here; nothing happens on a channel that
    /// has already failed.
    pub(crate) fn fail(&mut self, io: &mut impl ChannelIo, events: &mut Vec<ChannelEvent>) {
        if self.failed {
            return;
        }
        events.extend(self.outstanding.drain(..).map(Outstanding::abandon));
        let queued = self.queue.drain(..);
        events.extend(queued.map(|(cookie, op)| ChannelEvent::OpFailed { cookie, op }));
        self.failed = true;
        self.stats.failed_over = true;
        if let Some((h, _)) = self.timer.take() {
            io.cancel(h);
        }
        events.push(ChannelEvent::Failed);
    }

    /// Re-arm a failed channel to reconnect (server-rejoin path). Its first
    /// op must be an [`Op::Connect`], at the channel's own next PSN, past
    /// every PSN it used: an unconnected QP connects there, a live one
    /// re-anchors there. Nothing else moves `npsn`. The channel comes back
    /// with no retries left: a connect not answered within one RTO fails
    /// it again on that fire, unsent a second time.
    ///
    /// Panics unless the channel has actually failed over (`is_failed`);
    /// `fail` drained every op, so nothing is outstanding here.
    pub fn reconnect(&mut self) {
        assert!(self.failed, "reconnect on a live channel");
        debug_assert!(self.outstanding.is_empty() && self.queue.is_empty());
        self.failed = false;
        self.backoff_level = 0;
        self.retries = self.retry_cap;
        self.nak_epoch = None;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use extmem_rnic::nic::MTU;
    use extmem_rnic::responder::{process_request, Outcome};
    use extmem_rnic::{MrTable, Operand, QueuePair, RnicConfig};
    use extmem_sim::event::{EventKind, EventQueue};
    use extmem_types::{NodeId, QpNum};
    use extmem_wire::aeth::{Aeth, NakCode};
    use extmem_wire::atomic::AtomicAckEth;
    use extmem_wire::bth::Bth;
    use extmem_wire::{CounterSpan, MacAddr};

    /// A channel over `qp` to the region `(rkey, base_va, region_len)` behind
    /// `server_port`, with no NIC set up behind it: its transport reaches no
    /// responder QP.
    pub(crate) fn unplugged(
        qp: RequesterQp,
        rkey: Rkey,
        base_va: u64,
        region_len: u64,
        server_port: PortId,
    ) -> RdmaChannel {
        RdmaChannel {
            qp,
            rkey,
            base_va,
            region_len,
            server_port,
            transport: Transport::default(),
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

    /// A memory server that also records every frame the switch sends it.
    pub(crate) struct Tap {
        pub(crate) nic: RnicNode,
        pub(crate) frames: Vec<Packet>,
    }

    impl extmem_sim::Node for Tap {
        fn on_packet(&mut self, ctx: &mut extmem_sim::NodeCtx<'_>, port: PortId, packet: Packet) {
            self.frames.push(packet.clone());
            self.nic.on_packet(ctx, port, packet);
        }
        fn on_timer(&mut self, ctx: &mut extmem_sim::NodeCtx<'_>, token: u64) {
            self.nic.on_timer(ctx, token);
        }
        fn on_tx_done(&mut self, ctx: &mut extmem_sim::NodeCtx<'_>, port: PortId) {
            self.nic.on_tx_done(ctx, port);
        }
        fn name(&self) -> &str {
            "tap"
        }
    }

    /// The policy of a channel that is to give up on a silent server soon:
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
        more: impl FnOnce(&mut extmem_sim::SimBuilder, NodeId),
    ) -> (extmem_sim::Simulator, NodeId, NodeId) {
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

    /// Host `i`'s L2/L3 identity: the switch is 1, the memory server 9.
    fn endpoint(i: u32) -> RoceEndpoint {
        RoceEndpoint {
            mac: MacAddr::local(i),
            ip: 0x0a00_0000 + i,
        }
    }

    #[test]
    fn setup_wires_the_triple() {
        let (server, switch) = (endpoint(9), endpoint(1));
        let mut nic = RnicNode::new("mem", RnicConfig::at(server));
        let ch = RdmaChannel::setup(switch, PortId(3), &mut nic, ByteSize::from_mb(1));
        assert_eq!(ch.region_len, 1_000_000);
        assert_eq!(ch.server_port, PortId(3));
        assert_eq!(ch.qp.peer, server);
        assert_eq!(ch.qp.local, switch);
        // The responder knows the switch as its peer.
        assert_eq!(nic.qp(ch.qp.peer_qpn).unwrap().peer_qpn, SWITCH_QPN);
        // The region is real and zeroed.
        assert_eq!(
            nic.region(ch.rkey).unwrap().read(ch.base_va, 8).unwrap(),
            &[0u8; 8][..]
        );
        // The responder QP is RC until the channel's policy says best
        // effort, which makes it UC.
        let uc = |nic: &RnicNode| nic.qp(ch.qp.peer_qpn).unwrap().transport.is_uc();
        assert!(!uc(&nic));
        let mut channel = ReliableChannel::new(ch.clone(), ReliableConfig::default());
        assert!(!uc(&nic));
        channel.set_config(ReliableConfig::best_effort(TimeDelta::from_micros(10)));
        assert!(uc(&nic));
    }

    #[test]
    fn two_channels_get_distinct_resources() {
        let mut nic = RnicNode::new("mem", RnicConfig::at(endpoint(9)));
        let a = RdmaChannel::setup(endpoint(1), PortId(3), &mut nic, ByteSize::from_kb(8));
        let b = RdmaChannel::setup(endpoint(1), PortId(3), &mut nic, ByteSize::from_kb(8));
        assert_ne!(a.rkey, b.rkey);
        assert_ne!(a.base_va, b.base_va);
        assert_ne!(a.qp.peer_qpn, b.qp.peer_qpn);
    }

    /// The channel's world in a test: a clock, every frame the channel sent,
    /// in order, and its timers on a real event queue.
    #[derive(Default)]
    struct FakeIo {
        now: Time,
        sent: Vec<Packet>,
        timers: EventQueue,
    }

    impl ChannelIo for FakeIo {
        fn now(&self) -> Time {
            self.now
        }
        fn send(&mut self, _: PortId, frame: Packet, _: bool) {
            self.sent.push(frame);
        }
        fn arm(&mut self, delay: TimeDelta, token: u64) -> TimerHandle {
            self.timers.push_timer(self.now + delay, NodeId(0), token)
        }
        fn cancel(&mut self, handle: TimerHandle) {
            self.timers.cancel(handle);
        }
    }

    /// A channel on a [`FakeIo`] and the responder at its far end: the NIC's
    /// in-order RC/UC state machine ([`process_request`]) on a QP that
    /// shares the channel's transport, without the NIC's service timing. A
    /// test that serves no frame has a server that never answers.
    struct Rig {
        ch: ReliableChannel,
        io: FakeIo,
        qp: QueuePair,
        mrs: MrTable,
        /// The PSN of every request served, and what the responder did.
        served: Vec<(u32, Outcome)>,
        events: Vec<ChannelEvent>,
    }

    /// The region every [`Rig`] talks to: a fresh table hands out the same
    /// key and address every time.
    fn region() -> (MrTable, Rkey, u64) {
        let mut mrs = MrTable::new();
        let (rkey, base_va) = mrs.register(ByteSize::from_bytes(4096));
        (mrs, rkey, base_va)
    }

    impl Rig {
        /// A channel under `config` from PSN `start` to [`region`].
        fn new(config: ReliableConfig, start: u32) -> Rig {
            let (mrs, rkey, base_va) = region();
            let qp = QueuePair::new(QpNum(0x100), endpoint(1), SWITCH_QPN, start);
            let mut requester = RequesterQp::new(endpoint(1), endpoint(9), qp.qpn);
            requester.npsn = start;
            let transport = qp.transport.clone();
            let channel = RdmaChannel {
                transport,
                ..unplugged(requester, rkey, base_va, 4096, PortId(0))
            };
            Rig {
                ch: ReliableChannel::new(channel, config),
                io: FakeIo::default(),
                qp,
                mrs,
                served: Vec::new(),
                events: Vec::new(),
            }
        }

        /// Submit each `(cookie, op)`.
        fn script(&mut self, ops: impl IntoIterator<Item = (u64, Op)>) {
            for (cookie, op) in ops {
                assert!(self.ch.submit(&mut self.io, op, cookie));
            }
        }

        /// Reconnect the failed channel and submit `op` behind the connect.
        fn reissue(&mut self, op: Op, cookie: u64) {
            assert!(self.ch.is_failed());
            self.ch.reconnect();
            self.script([(0, Op::Connect), (cookie, op)]);
        }

        /// Run the clock to `t`, firing every timer due by then.
        fn until(&mut self, t: Time) {
            while let Some(fired) = self.io.timers.pop_if_at_or_before(t) {
                let EventKind::Timer { token, .. } = fired.kind else {
                    unreachable!("only timers are queued")
                };
                assert_eq!(token, self.ch.timer_token());
                self.io.now = fired.at;
                self.ch.on_timer_fired(&mut self.io, &mut self.events);
            }
            self.io.now = t;
        }

        fn feed(&mut self, resp: &RocePacket) {
            assert!(self.ch.on_roce(&mut self.io, resp, &mut self.events));
        }

        /// A response under `psn`, made by hand.
        fn crafted(&self, opcode: Opcode, psn: u32, ext: RoceExt, body: Vec<u8>) -> RocePacket {
            let qp = &self.ch.inner().qp;
            let bth = Bth::new(opcode, SWITCH_QPN, psn);
            RocePacket::new(qp.peer, qp.local, qp.udp_src_port, bth, ext, body)
        }

        /// The responder's answer to the request `frame`, if any.
        fn serve(&mut self, frame: &Packet) -> Option<Packet> {
            let req = RocePacket::parse(frame).unwrap().unwrap();
            let done = process_request(endpoint(9), &mut self.qp, &mut self.mrs, &req, MTU);
            self.served.push((req.bth.psn, done.outcome));
            done.response
        }

        /// The PSN of every request served, in order.
        fn psns(&self) -> Vec<u32> {
            self.served.iter().map(|s| s.0).collect()
        }

        /// How many requests the responder met with an outcome `f` picks.
        fn count(&self, f: impl Fn(&Outcome) -> bool) -> usize {
            self.served.iter().filter(|(_, o)| f(o)).count()
        }

        /// Every op's end, in order: its cookie, and its reply if done.
        fn ends(&self) -> Vec<(u64, Option<Reply>)> {
            let end = |ev: &ChannelEvent| match ev {
                ChannelEvent::Done { cookie, reply, .. } => (*cookie, Some(reply.clone())),
                ChannelEvent::OpFailed { cookie, .. } => (*cookie, None),
                ChannelEvent::Failed => panic!("the channel failed"),
            };
            self.events.iter().map(end).collect()
        }

        /// Play the network until `t`. Requests reach the responder in the
        /// order sent, each before any answer still in flight reaches the
        /// channel, and answers come back in order; one answer (data or an
        /// atomic's acknowledgement) under each PSN in `eat` is lost, in
        /// order of arrival. With nothing in flight, the clock runs to the
        /// next timer.
        fn run(&mut self, eat: &[u32], t: Time) {
            let (mut eat, mut next, mut answers) = (eat.to_vec(), 0, VecDeque::new());
            loop {
                if let Some(frame) = self.io.sent.get(next).cloned() {
                    next += 1;
                    answers.extend(self.serve(&frame));
                } else if let Some(frame) = answers.pop_front() {
                    let resp = RocePacket::parse(&frame).unwrap().unwrap();
                    let answer = resp.bth.opcode != Opcode::Acknowledge;
                    match eat.iter().position(|&psn| psn == resp.bth.psn) {
                        Some(i) if answer => drop(eat.remove(i)),
                        _ => self.feed(&resp),
                    }
                } else {
                    match self.io.timers.peek_time() {
                        Some(at) if at <= t => self.until(at),
                        _ => break,
                    }
                }
            }
            self.until(t);
            assert_eq!(eat, [], "every answer named was lost");
        }
    }

    fn us(us: u64) -> Time {
        Time::from_micros(us)
    }

    /// A READ, under `cookie`.
    fn read(cookie: u64) -> (u64, Op) {
        let va = region().2 + 8 * cookie;
        (cookie, Op::Read { va, len: 8 })
    }

    /// A WRITE that asks for no ACK, under `cookie`.
    fn unacked(cookie: u64) -> (u64, Op) {
        let (va, body) = (
            region().2 + 8 * cookie,
            WriteBody::inline(&[cookie as u8; 8]),
        );
        let ack_req = false;
        (cookie, Op::Write { va, body, ack_req })
    }

    /// A READ, a Fetch-and-Add and a remote op (PSNs 0, 1 and 2), answered
    /// by hand.
    #[test]
    fn replayed_responses_are_dropped_not_completed_twice() {
        let mut rig = Rig::new(ReliableConfig::default(), 0);
        let faa = Op::FetchAdd { va: 0x2000, add: 1 };
        rig.script([read(0), (1, faa), (2, Op::Remote(probe_op()))]);
        // Answer `psn` with READ bytes `data`, or with an atomic's
        // acknowledgement if there are none.
        let answer = |rig: &mut Rig, psn: u32, data: &[u8]| {
            let ack = RoceExt::AtomicAck(Aeth::ack(0), AtomicAckEth { original_value: 41 });
            let (opcode, ext) = match data {
                [] => (Opcode::AtomicAcknowledge, ack),
                _ => (Opcode::ReadRespOnly, RoceExt::Aeth(Aeth::ack(0))),
            };
            let resp = rig.crafted(opcode, psn, ext, data.to_vec());
            rig.feed(&resp);
        };
        // An atomic's acknowledgement under the READ's PSN answers nothing,
        // and READ bytes under the atomic's PSN nothing either.
        answer(&mut rig, 0, &[]);
        answer(&mut rig, 1, &[6; 8]);
        assert!(rig.events.is_empty());
        let answers: [&[u8]; 3] = [&[7; 8], &[], &[5; 32]];
        // Each answer completes its op; its replay is dropped.
        for _ in 0..2 {
            for (psn, data) in answers.into_iter().enumerate() {
                answer(&mut rig, psn as u32, data);
            }
        }
        assert_eq!(rig.ch.outstanding_len(), 0);
        assert_eq!(rig.ch.stats().duplicate_drops, 5);
        let want = [
            (0, Some(Reply::Data(vec![7; 8].into()))),
            (1, Some(Reply::Fetched(41))),
            (2, Some(Reply::Data(vec![5; 32].into()))),
        ];
        assert_eq!(rig.ends(), want);
    }

    fn probe_op() -> RemoteOp {
        RemoteOp::HashProbe {
            va: 0x1180,
            len: 128,
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

    #[test]
    fn remote_op_operands_are_encoded_the_same_every_time() {
        // The probes take cookies 1 to MAX_WINDOW and the window; the
        // gather queues.
        const GATHER: u64 = MAX_WINDOW as u64 + 1;
        let mut rig = Rig::new(impatient(), 0);
        let probes = (1..=MAX_WINDOW as u64).map(|cookie| (cookie, Op::Remote(probe_op())));
        rig.script(probes.chain([(GATHER, Op::Remote(gather_op()))]));
        let held = (rig.ch.outstanding_len(), rig.ch.ops().count());
        assert_eq!(held, (MAX_WINDOW, MAX_WINDOW + 1));
        // The probes go out at 0 and, unanswered, again at 10 us. At 15 us
        // every one misses (a READ response with no bytes), which lets the
        // gather out; it times out at 25 us and, retransmitted with
        // backoff, at 965 us takes the channel down with it.
        rig.until(us(15));
        for psn in 0..MAX_WINDOW as u32 {
            let ext = RoceExt::Aeth(Aeth::ack(1));
            let miss = rig.crafted(Opcode::ReadRespOnly, psn, ext, vec![]);
            rig.feed(&miss);
        }
        let held = (rig.ch.outstanding_len(), rig.ch.ops().count());
        assert_eq!(held, (1, 1), "the gather launched");
        rig.until(us(1000));
        // A failed channel reconnects and sends the orphaned op again,
        // behind the connect.
        rig.reissue(Op::Remote(gather_op()), GATHER);

        // The failed gather comes back whole, as it was submitted.
        let orphan = ChannelEvent::OpFailed {
            cookie: GATHER,
            op: Op::Remote(gather_op()),
        };
        assert_eq!(rig.events[MAX_WINDOW..], [orphan, ChannelEvent::Failed]);
        for (i, done) in rig.events[..MAX_WINDOW].iter().enumerate() {
            assert!(matches!(
                done,
                ChannelEvent::Done { cookie, op, reply: Reply::Data(miss) }
                    if *cookie == 1 + i as u64 && *op == Op::Remote(probe_op()) && miss.is_empty()
            ));
        }
        let frames = &rig.io.sent;
        let sent: Vec<RocePacket> = (frames.iter())
            .map(|f| RocePacket::parse(f).unwrap().unwrap())
            .collect();
        let seen: Vec<(Opcode, u32)> = sent.iter().map(|p| (p.bth.opcode, p.bth.psn)).collect();
        let probes = (0..MAX_WINDOW as u32).map(|psn| (Opcode::HashProbe, psn));
        let gathers = [(Opcode::GatherWalk, MAX_WINDOW as u32)].repeat(1 + MAX_RETRIES as usize);
        let want: Vec<(Opcode, u32)> = probes
            .clone()
            .chain(probes)
            .chain(gathers)
            .chain([(Opcode::Connect, MAX_WINDOW as u32 + 1)])
            .chain([(Opcode::GatherWalk, MAX_WINDOW as u32 + 2)])
            .collect();
        assert_eq!(seen, want);
        // A retransmission is the same frame, byte for byte.
        let (probes, rest) = frames.split_at(2 * MAX_WINDOW);
        assert_eq!(probes[..MAX_WINDOW], probes[MAX_WINDOW..]);
        let (reissue, rest) = rest.split_last().unwrap();
        let (_connect, gathers) = rest.split_last().unwrap();
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

    /// WRITEs that asked for no ACK have no deadline of their own: a
    /// channel holding only them arms no timer, retransmits nothing and,
    /// best-effort, abandons nothing, however long the server stays
    /// silent. The READ behind them arms the deadline, and its timeout
    /// covers them: reliable, the go-back-N volley re-sends all four;
    /// best-effort, all four age out together, in submit order.
    #[test]
    fn writes_that_ask_no_ack_wait_for_the_op_behind_them() {
        for reliable in [true, false] {
            let mut config = impatient();
            config.reliable = reliable;
            let mut rig = Rig::new(config, 0);
            rig.script([unacked(1), unacked(2), unacked(3)]);
            // Fifty RTOs of silence.
            rig.until(us(500));
            let stats = rig.ch.stats();
            assert!(rig.ch.timer.is_none(), "reliable {reliable}");
            assert_eq!(rig.ch.outstanding_len(), 3);
            assert!(rig.events.is_empty(), "{:?}", rig.events);
            assert_eq!((stats.timeouts, stats.aged_out), (0, 0), "{stats:?}");
            assert_eq!(rig.io.sent.len(), 3);

            rig.script([read(4)]);
            // One RTO after the READ, and a little.
            rig.until(us(515));
            let stats = rig.ch.stats();
            let frames = rig.io.sent.len();
            if reliable {
                assert_eq!((stats.timeouts, stats.retransmits), (1, 4), "{stats:?}");
                assert_eq!(frames, 8, "the volley re-sends the WRITEs too");
                assert!(rig.events.is_empty());
            } else {
                assert_eq!((stats.aged_out, frames), (4, 4), "{stats:?}");
                assert_eq!(rig.ends(), [1, 2, 3, 4].map(|c| (c, None)));
                assert!(rig.ch.timer.is_none());
            }
        }
    }

    /// Best-effort, a WRITE that asked for no ACK ages out with the
    /// answered op behind it, not with the one ahead of it: a READ at 0,
    /// three such WRITEs right behind it and a READ at 5 us age out as
    /// `[READ]` at 10 us, then the WRITEs and the second READ at 15 us.
    #[test]
    fn best_effort_ages_unacked_writes_out_with_the_op_behind_them() {
        let mut rig = Rig::new(ReliableConfig::best_effort(impatient().rto), 0);
        rig.script([read(1), unacked(2), unacked(3), unacked(4)]);
        rig.until(us(5));
        rig.script([read(5)]);
        rig.until(us(12));
        assert_eq!(rig.ends(), [(1, None)]);
        assert_eq!(rig.ch.outstanding_len(), 4);
        rig.until(us(17));
        assert_eq!(rig.ends(), [1, 2, 3, 4, 5].map(|c| (c, None)));
        assert_eq!(rig.ch.stats().aged_out, 5);
    }

    /// A NAK is progress: it resets the backoff, and the timer armed at
    /// the backed-off deadline is pulled in. A READ at 0 times out at 10 us
    /// and, backed off, at 30 us, which arms the next round for 70 us; a
    /// NAK at 35 us replays it, and the next timeout comes one RTO later,
    /// at 45 us, not at 70 us.
    #[test]
    fn progress_pulls_a_backed_off_timer_in() {
        let mut rig = Rig::new(impatient(), 0);
        rig.script([read(1)]);
        rig.until(us(35));
        let nak = RoceExt::Aeth(Aeth::nak(NakCode::PsnSequenceError, 0));
        let nak = rig.crafted(Opcode::Acknowledge, 0, nak, vec![]);
        rig.feed(&nak);
        rig.until(us(44));
        assert_eq!(rig.ch.stats().timeouts, 2);
        assert_eq!(rig.ch.timer.map(|(_, at)| at), Some(us(45)));

        rig.until(us(46));
        let stats = rig.ch.stats();
        assert_eq!((stats.timeouts, stats.naks), (3, 1), "{stats:?}");
        // Sent at 0, 10 and 30 us, replayed for the NAK at 35 us and for
        // the timeout at 45 us.
        assert_eq!(rig.io.sent.len(), 5);
        let armed = rig.ch.timer.map(|(_, at)| at);
        assert_eq!(armed, Some(us(65)), "45 us + 2 RTOs");
    }

    /// The channel's one timer, as its I/O sees it: a READ arms it once at
    /// submit, and its answer cancels it; a WRITE that asks for no ACK arms
    /// none; and a fire that comes early (the op it was armed for was
    /// answered, a younger one now leads) re-arms for the exact remainder.
    #[test]
    fn a_deadline_arms_one_timer_and_an_early_fire_re_arms_for_the_rest() {
        let mut rig = Rig::new(impatient(), 0);
        // Timers armed so far, and armed still: every arm takes a slot.
        let timers = |rig: &Rig| {
            let s = rig.io.timers.stats();
            (s.slab_hits + s.slab_misses, rig.io.timers.len())
        };
        rig.script([read(0)]);
        assert_eq!(timers(&rig), (1, 1));
        let answer = rig.serve(&rig.io.sent[0].clone()).unwrap();
        rig.feed(&RocePacket::parse(&answer).unwrap().unwrap());
        assert_eq!(timers(&rig), (1, 0), "cancelled at the answer");
        assert!(rig.ch.timer.is_none());
        rig.script([unacked(1)]);
        assert_eq!(timers(&rig), (1, 0), "no deadline");

        rig.script([read(2)]);
        rig.until(us(5));
        rig.script([read(3)]);
        // The first READ is answered at 6 us: the timer armed for it, due
        // at 10 us, stays, and fires early.
        let frames = rig.io.sent.clone();
        let answers: Vec<Packet> = frames[1..].iter().flat_map(|f| rig.serve(f)).collect();
        rig.until(us(6));
        rig.feed(&RocePacket::parse(&answers[0]).unwrap().unwrap());
        assert_eq!(rig.ch.timer.map(|(_, at)| at), Some(us(10)));
        rig.until(us(10));
        assert_eq!(rig.ch.timer.map(|(_, at)| at), Some(us(15)), "5 us left");
        assert_eq!(rig.io.timers.peek_time(), Some(us(15)));
        assert_eq!(timers(&rig), (3, 1));
        assert_eq!((rig.ch.stats().timeouts, rig.io.sent.len()), (0, 4));
        rig.until(us(15));
        assert_eq!(rig.ch.stats().timeouts, 1);
    }

    /// `op`'s life on a channel under [`impatient`] timing whose server
    /// never answers: sent at 0, retransmitted [`MAX_RETRIES`] times as the
    /// RTO passes in silence (at 10 us, then with backoff), given up on at
    /// 950 us (the channel fails), reissued at 1 ms behind a connect.
    /// Checks what every op has in common — one payload per transmission,
    /// the frame, and none for the fire that only gave up, which hands the
    /// op back whole; a retransmission that is the same frame; a reissue
    /// that differs in its PSN and in nothing else — and returns the rig
    /// and every request but the connect, parsed, the reissue last.
    fn sent_and_reissued(op: &Op) -> (Rig, Vec<RocePacket>) {
        let mut rig = Rig::new(impatient(), 0);
        let span = CounterSpan::begin();
        rig.script([(1, op.clone())]);
        let mut allocs = vec![span.allocs()];
        while let Some(at) = rig.io.timers.peek_time() {
            let span = CounterSpan::begin();
            rig.until(at);
            allocs.push(span.allocs());
        }
        assert_eq!(rig.io.now, us(950));
        rig.until(us(1000));
        let span = CounterSpan::begin();
        rig.reissue(op.clone(), 1);
        allocs.push(span.allocs());

        let (cookie, op) = (1, op.clone());
        let failed = [ChannelEvent::OpFailed { cookie, op }, ChannelEvent::Failed];
        assert_eq!(rig.events, failed);
        let transmissions = 1 + MAX_RETRIES as usize;
        assert_eq!(allocs, [vec![1; transmissions], vec![0, 2]].concat());
        let frames = &rig.io.sent;
        assert_eq!(frames.len(), transmissions + 2);
        for f in &frames[1..transmissions] {
            assert_eq!(frames[0], *f, "a retransmission is the same frame");
        }
        let mut sent: Vec<RocePacket> = (frames.iter())
            .map(|f| RocePacket::parse(f).unwrap().unwrap())
            .collect();
        let connect = sent.remove(transmissions);
        assert_eq!((connect.bth.opcode, connect.bth.psn), (Opcode::Connect, 1));
        let reissued = &sent[transmissions];
        assert_eq!((sent[0].bth.psn, reissued.bth.psn), (0, 2));
        let mut renumbered = reissued.clone();
        renumbered.bth.psn = 0;
        assert_eq!(renumbered.build().unwrap(), frames[0]);
        (rig, sent)
    }

    #[test]
    fn framed_write_is_encoded_from_its_parts_every_time() {
        // The tail is a window of a larger buffer, as a stored frame that
        // was itself lifted out of another is.
        let frame = Payload::from_vec((0..200u8).collect());
        let body = WriteBody::framed(b"hdr[6]", frame.slice(20..180));
        let image = [&b"hdr[6]"[..], &frame[20..180]].concat();
        let (va, ack_req) = (region().2 + 64, true);
        let op = Op::Write { va, body, ack_req };
        let (_rig, sent) = sent_and_reissued(&op);

        let Op::Write { body, .. } = &op else {
            unreachable!()
        };
        assert_eq!(
            body.tail.ref_count(),
            4,
            "the test, its op, the failed op in its event and the reissued \
             op share one tail"
        );
        for req in &sent {
            let RoceExt::Reth(reth) = req.ext else {
                panic!("a WRITE carries a RETH: {:?}", req.ext);
            };
            assert_eq!(reth.dma_len as usize, image.len());
            let (mut mrs, rkey, _) = region();
            let mut qp = QueuePair::new(QpNum(0x100), endpoint(1), SWITCH_QPN, req.bth.psn);
            process_request(endpoint(9), &mut qp, &mut mrs, req, MTU);
            let landed = mrs.get(rkey).unwrap().read(va, image.len() as u64);
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
            let (_, sent) = sent_and_reissued(&op);
            for req in &sent {
                assert_eq!((req.bth.opcode, req.ext), (opcode, ext));
                assert!(req.payload.is_empty() && !req.bth.ack_req);
            }
        }
    }

    /// A reliable Fetch-and-Add at PSN 0 loses its acknowledgement, and its
    /// first re-send loses its own. Behind it, past [`ATOMIC_RESULTS`]
    /// PSNs, every eighth op is another Fetch-and-Add on its word and the
    /// rest are READs (few enough atomics that the server's atomic window
    /// never overflows). PSN 1's answer re-sends PSN 0 at once; the answers
    /// to PSNs 2 to 63, sent before that re-send, do not re-send it again.
    /// The READs complete; the answers of the Fetch-and-Adds, which
    /// overtook PSN 0's, are held; and no op launches at PSN 64 or later,
    /// which would push PSN 0's result out of the server's ring, until PSN
    /// 0 is answered. The timer, which now only has silence to catch,
    /// re-sends PSN 0 alone once more, and every Fetch-and-Add completes,
    /// in order, with the value its own execution saw: never a bare ACK,
    /// never a NAK.
    #[test]
    fn a_lost_atomic_ack_is_answered_again_with_its_value() {
        const OPS: u64 = 81;
        let mut rig = Rig::new(ReliableConfig::default(), 0);
        let va = rig.ch.base_va();
        let op = |psn| match psn % 8 {
            0 => (psn, Op::FetchAdd { va, add: 1 }),
            _ => (psn, read(1).1),
        };
        rig.script((0..OPS).map(op));
        rig.run(&[0, 0], us(400));

        assert_eq!(rig.events.len(), OPS as usize);
        let mut want_faa = 0;
        for ev in &rig.events {
            let ChannelEvent::Done { op, reply, .. } = ev else {
                panic!("unexpected {ev:?}");
            };
            if matches!(op, Op::FetchAdd { .. }) {
                assert_eq!(*reply, Reply::Fetched(want_faa), "{ev:?}");
                want_faa += 1;
            } else {
                assert!(matches!(reply, Reply::Data(_)), "{ev:?}");
            }
        }
        assert_eq!(want_faa, OPS.div_ceil(8));
        let stats = rig.ch.stats();
        assert_eq!((stats.timeouts, stats.naks), (1, 0), "{stats}");
        assert_eq!(stats.retransmits, 2, "{stats}");
        assert_eq!(rig.count(|o| matches!(o, Outcome::Nak(_))), 0);
        // The ring's worth, PSN 0's two re-sends, then the rest.
        let ring = 0..ATOMIC_RESULTS as u32;
        let rest = ATOMIC_RESULTS as u32..OPS as u32;
        assert_eq!(
            rig.psns(),
            ring.chain([0, 0]).chain(rest).collect::<Vec<_>>()
        );
    }

    /// Two READs; the first one's data is lost. The second's answer shows
    /// it (the responder answers in order): the first is re-sent alone at
    /// once, long before the RTO, and completes from the responder's
    /// re-execution. One retransmission, no timeout, no NAK.
    #[test]
    fn a_lost_read_response_is_resent_alone_by_the_next_answer() {
        let mut rig = Rig::new(ReliableConfig::default(), 0);
        rig.script((0..2).map(read));
        rig.run(&[0], us(400));
        let data = Some(Reply::Data(vec![0; 8].into()));
        assert_eq!(rig.ends(), [(1, data.clone()), (0, data)]);
        let stats = rig.ch.stats();
        let st = (stats.retransmits, stats.timeouts, stats.naks);
        assert_eq!(st, (1, 0, 0), "{stats}");
        assert_eq!(stats.duplicate_drops, 0, "{stats}");
        let duplicates = rig.count(|o| *o == Outcome::Duplicate);
        assert_eq!((rig.psns(), duplicates), (vec![0, 1, 0], 1));
    }

    /// Four READs; the first one's data is lost. PSN 1's answer re-sends
    /// it; the answers to PSNs 2 and 3, sent before that re-send, do not
    /// re-send it again, for its answer is still on the way. When that
    /// answer is lost too, nothing is answered behind the re-send: the
    /// timer catches the silence and re-sends it once more.
    #[test]
    fn a_resend_in_flight_is_not_resent_by_answers_to_ops_sent_before_it() {
        for (eat, timeouts, want) in [
            (&[0][..], 0, vec![0, 1, 2, 3, 0]),
            (&[0, 0][..], 1, vec![0, 1, 2, 3, 0, 0]),
        ] {
            let mut rig = Rig::new(ReliableConfig::default(), 0);
            rig.script((0..4).map(read));
            rig.run(eat, us(400));
            assert_eq!(rig.events.len(), 4);
            let stats = rig.ch.stats();
            let st = (stats.retransmits, stats.timeouts);
            assert_eq!(st, (timeouts + 1, timeouts), "{eat:?}: {stats}");
            assert_eq!(rig.psns(), want, "{eat:?}");
        }
    }

    /// Best effort, a Fetch-and-Add completes only with its own answer: its
    /// responder is UC, which jumps a gap, so the answer to the op behind it
    /// is no proof that it ran. One whose answer is lost ages out.
    #[test]
    fn a_best_effort_fetch_and_add_completes_only_with_its_own_answer() {
        let mut rig = Rig::new(ReliableConfig::best_effort(TimeDelta::from_micros(100)), 0);
        let va = rig.ch.base_va();
        let faa = |i: u64, add| {
            (
                i,
                Op::FetchAdd {
                    va: va + 8 * i,
                    add,
                },
            )
        };
        rig.script([faa(0, 5), faa(1, 7)]);
        rig.run(&[0], us(150));
        assert_eq!(rig.ends(), [(1, Some(Reply::Fetched(0))), (0, None)]);
        let stats = rig.ch.stats();
        assert_eq!((stats.timeouts, stats.aged_out, stats.faa_sent), (0, 1, 2));
    }

    /// A READ past the region's end is refused, and a re-send of it would
    /// be refused again: the reliable channel fails over at the NAK, inside
    /// one RTO, instead of re-sending it for ever.
    #[test]
    fn a_refused_read_fails_the_channel_within_one_rto() {
        let config = ReliableConfig::default();
        let mut rig = Rig::new(config, 0);
        let va = rig.ch.base_va() + 4096 - 4;
        let op = Op::Read { va, len: 8 };
        rig.script([(0, op.clone())]);
        rig.run(&[], us(config.rto.as_micros_f64() as u64));
        let failed = ChannelEvent::OpFailed { cookie: 0, op };
        assert_eq!(rig.events, [failed, ChannelEvent::Failed]);
        let stats = rig.ch.stats();
        let st = (stats.naks, stats.retransmits, stats.timeouts);
        assert_eq!(st, (1, 0, 0), "{stats}");
        let naks = rig.count(|o| matches!(o, Outcome::Nak(_)));
        assert_eq!((naks, rig.psns()), (1, vec![0]));
    }

    /// A reconnected channel comes back with no retries left: its connect,
    /// unanswered for one RTO, fails it on that fire without being sent
    /// again, and hands back the op queued behind it.
    #[test]
    fn an_unanswered_reconnect_fails_on_the_first_fire_unsent_again() {
        let op = read(0).1;
        // Given up on at 950 us; reconnected at 1,000 us, due at 1,010 us.
        let (mut rig, _) = sent_and_reissued(&op);
        rig.until(us(1100));
        assert!(rig.ch.is_failed());
        let failed = |cookie, op| ChannelEvent::OpFailed { cookie, op };
        let want = [
            failed(1, op.clone()),
            ChannelEvent::Failed,
            failed(0, Op::Connect),
            failed(1, op),
            ChannelEvent::Failed,
        ];
        assert_eq!(rig.events, want);
        let frames = rig.io.sent.len();
        assert_eq!(frames, 1 + MAX_RETRIES as usize + 2, "connect and op once");
        assert_eq!(rig.ch.stats().timeouts, MAX_RETRIES as u64);
    }

    /// What the enumerator's wire does to one frame.
    #[derive(Clone, Copy, Debug)]
    enum Fault {
        Drop,
        Duplicate,
        /// Held back a microsecond, past the frames sent just after it.
        Reorder,
        /// Held back past the RTO.
        Delay,
    }

    /// The enumerator's wire: one microsecond each way, doing `faults[i].1`
    /// to the `faults[i].0`-th frame put on it, in either direction.
    struct Wire<'a> {
        faults: &'a [(usize, Fault)],
        put: usize,
        /// Frames in flight: arrival, whether to the responder, the frame.
        flights: Vec<(Time, bool, Packet)>,
    }

    impl Wire<'_> {
        fn put(&mut self, now: Time, to_server: bool, frame: Packet) {
            let fault = self.faults.iter().find(|f| f.0 == self.put);
            self.put += 1;
            let at = now + TimeDelta::from_micros(1);
            let at = match fault.map(|f| f.1) {
                None => at,
                Some(Fault::Drop) => return,
                Some(Fault::Duplicate) => {
                    self.flights.push((at, to_server, frame.clone()));
                    at
                }
                Some(Fault::Reorder) => at + TimeDelta::from_micros(1),
                Some(Fault::Delay) => at + impatient().rto + TimeDelta::from_micros(1),
            };
            self.flights.push((at, to_server, frame));
        }

        /// The next frame to arrive, if it arrives by `t`: the earliest,
        /// and at a tie the first put.
        fn next(&mut self, t: Option<Time>) -> Option<(Time, bool, Packet)> {
            let i = (0..self.flights.len()).min_by_key(|&i| self.flights[i].0)?;
            let due = t.is_none_or(|t| self.flights[i].0 <= t);
            due.then(|| self.flights.remove(i))
        }
    }

    /// Op `kind` of the enumerator, the `i`-th of its run: a READ, a WRITE
    /// that asks for an ACK, one that does not, or a Fetch-and-Add of `2^i`
    /// to the word at `base`.
    fn nth_op(kind: u8, i: usize, base: u64) -> Op {
        match kind {
            0 => Op::Read {
                va: base + 8,
                len: 8,
            },
            1 | 2 => Op::Write {
                va: base + 16,
                body: WriteBody::inline(&[i as u8; 8]),
                ack_req: kind == 1,
            },
            _ => Op::FetchAdd {
                va: base,
                add: 1 << i,
            },
        }
    }

    /// One schedule: `kinds` submitted at once, from PSN `2^24 - 2`, to a
    /// channel under [`impatient`] timing, reliable or not, over a
    /// [`Wire`] doing `faults`, run until nothing is in flight or armed.
    /// Checks that every op ends exactly once, done or handed back as it
    /// was submitted; that the responder executes each Fetch-and-Add at
    /// most once and the op completes with the value that execution saw,
    /// in PSN order when reliable; and that every op re-sent alone on an
    /// answer was last sent before the op answered. Returns how many frames
    /// went on the wire, and the channel's counters.
    fn schedule(reliable: bool, kinds: &[u8], faults: &[(usize, Fault)]) -> (usize, ChannelStats) {
        let mut config = impatient();
        config.reliable = reliable;
        let mut rig = Rig::new(config, (1 << 24) - 2);
        let base = rig.ch.base_va();
        let ops: Vec<Op> = (kinds.iter().enumerate())
            .map(|(i, &kind)| nth_op(kind, i, base))
            .collect();
        rig.script((0..).zip(ops.iter().cloned()));
        let what = || format!("reliable {reliable}, ops {ops:?}, faults {faults:?}");
        let word = |rig: &Rig| {
            let word = rig.mrs.get(rig.ch.rkey()).unwrap().read(base, 8).unwrap();
            u64::from_be_bytes(word.try_into().unwrap())
        };
        let mut wire = Wire {
            faults,
            put: 0,
            flights: Vec::new(),
        };
        // The PSN of every request, in the order sent; each Fetch-and-Add
        // executed, as its addend and the word it found.
        let (mut psns, mut executed) = (Vec::new(), Vec::new());
        loop {
            for frame in rig.io.sent[psns.len()..].iter().cloned() {
                psns.push(RocePacket::parse(&frame).unwrap().unwrap().bth.psn);
                wire.put(rig.io.now, true, frame);
            }
            let timer = rig.io.timers.peek_time();
            let Some((at, to_server, frame)) = wire.next(timer) else {
                match timer {
                    Some(at) => rig.until(at),
                    None => break,
                }
                continue;
            };
            rig.io.now = at;
            if to_server {
                let found = word(&rig);
                if let Some(answer) = rig.serve(&frame) {
                    wire.put(at, false, answer);
                }
                if rig.served.last().unwrap().1 == Outcome::AtomicExecuted {
                    executed.push((word(&rig) - found, found));
                }
                continue;
            }
            let answer = RocePacket::parse(&frame).unwrap().unwrap();
            let (sent, before) = (psns.len(), rig.ch.stats().implicit_resends);
            rig.feed(&answer);
            let resent = (rig.ch.stats().implicit_resends - before) as usize;
            let last_sent = |psn: u32| psns.iter().rposition(|&p| p == psn);
            for frame in &rig.io.sent[sent..sent + resent] {
                let psn = RocePacket::parse(frame).unwrap().unwrap().bth.psn;
                let (p, q) = (last_sent(psn), last_sent(answer.bth.psn));
                assert!(p < q, "{}: {psn:#x} re-sent on {answer:?}", what());
            }
        }
        assert_eq!(rig.ch.ops().count(), 0, "{}", what());
        let (mut ends, mut faa_done) = (vec![0; ops.len()], Vec::new());
        for ev in &rig.events {
            let (cookie, op, reply) = match ev {
                ChannelEvent::Done { cookie, op, reply } => (*cookie, op, Some(reply)),
                ChannelEvent::OpFailed { cookie, op } if !reliable => (*cookie, op, None),
                _ => panic!("{}: {ev:?}", what()),
            };
            assert_eq!(*op, ops[cookie as usize], "{}", what());
            ends[cookie as usize] += 1;
            if let (Op::FetchAdd { add, .. }, Some(reply)) = (op, reply) {
                let ran = (executed.iter()).any(|&(a, v)| a == *add && *reply == Reply::Fetched(v));
                assert!(ran, "{}: {ev:?} after {executed:?}", what());
                faa_done.push(cookie);
            }
        }
        assert!(ends.iter().all(|&n| n == 1), "{}: {:?}", what(), rig.events);
        let mut adds: Vec<u64> = executed.iter().map(|e| e.0).collect();
        adds.sort_unstable();
        adds.dedup();
        assert_eq!(adds.len(), executed.len(), "{}: {executed:?}", what());
        if reliable {
            assert!(faa_done.is_sorted(), "{}: {:?}", what(), rig.events);
        }
        (wire.put, rig.ch.stats())
    }

    /// Every schedule within these bounds: one to three ops (four in a
    /// release build), each a READ, a WRITE with or without an ACK or a
    /// Fetch-and-Add, the last answered;
    /// up to two faults from drop, duplicate, reorder by a microsecond and
    /// delay past the RTO, each on any frame in either direction; a
    /// reliable or best-effort channel from PSN `2^24 - 2`. A fault at
    /// frame `k` leaves the run before `k` as it was, so each schedule's
    /// extensions are the faults on the frames its own run put on the
    /// wire after its last fault.
    #[test]
    fn every_small_schedule_ends_each_op_once_and_resends_alone_only_behind_a_later_answer() {
        const MAX_OPS: usize = if cfg!(debug_assertions) { 3 } else { 4 };
        const FAULTS: [Fault; 4] = [Fault::Drop, Fault::Duplicate, Fault::Reorder, Fault::Delay];
        let mut runs: Vec<Vec<u8>> = vec![vec![]];
        let mut sequences = Vec::new();
        while let Some(kinds) = runs.pop() {
            if kinds.len() < MAX_OPS {
                runs.extend((0..4).map(|kind| [&kinds[..], &[kind]].concat()));
            }
            if kinds.last().is_some_and(|&kind| kind != 2) {
                sequences.push(kinds);
            }
        }
        let (mut explored, mut seen) = (0, ChannelStats::default());
        for reliable in [true, false] {
            for kinds in &sequences {
                let mut schedules = vec![Vec::new()];
                while let Some(faults) = schedules.pop() {
                    let (frames, stats) = schedule(reliable, kinds, &faults);
                    seen.merge(&stats);
                    explored += 1;
                    if faults.len() == 2 {
                        continue;
                    }
                    let from = faults.last().map_or(0, |f: &(usize, Fault)| f.0 + 1);
                    for f in (from..frames).flat_map(|k| FAULTS.map(|fault| (k, fault))) {
                        schedules.push([&faults[..], &[f]].concat());
                    }
                }
            }
        }
        println!(
            "every_small_schedule: {} op sequences of 1 to {MAX_OPS} ops, up to 2 faults, \
             reliable and best effort, from PSN 2^24 - 2: {explored} schedules explored \
             ({} ops re-sent alone, {} timeouts, {} aged out)",
            sequences.len(),
            seen.implicit_resends,
            seen.timeouts,
            seen.aged_out,
        );
    }
}
