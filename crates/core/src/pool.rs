//! Replicated remote-memory pools: N servers behind one channel-shaped API.
//!
//! The paper assumes the memory server stays up; the reliability layer
//! already survives packet loss but treats a dead server as terminal. This
//! module makes server death survivable for the one primitive whose remote
//! state is a sum of its own updates: the state store's Fetch-and-Add
//! engine binds to a *pool* of N symmetric servers (one primary, N−1
//! mirrors) instead of one [`ReliableChannel`]. A replicated pool carries
//! caller Fetch-and-Adds and nothing else (any other caller op panics).
//! The pool:
//!
//! * sends each Fetch-and-Add to the primary only, accumulating its delta
//!   per mirror once it completes so a mirror's counters are reconciled by
//!   replay (an anti-entropy flush, [`ReplicatedPool::sync_mirrors`],
//!   keeps live mirrors converged between failovers);
//! * watches each server with a [`HealthDetector`] (`Healthy → Suspect →
//!   Down → Rejoining`) driven by the channel's timeout/ACK counters, and
//!   aborts the primary's channel the moment the detector trips — failover
//!   latency is the detector threshold, not the channel retry cap;
//! * on primary failure promotes the best mirror, replays its outstanding
//!   delta, and reissues the caller ops that were in flight (same cookies,
//!   so the owning engine never notices) — the very [`Op`] values the
//!   dying channel hands back in its `OpFailed` events, in its order. The
//!   pool keeps no list of caller ops: a Fetch-and-Add's delta is read off
//!   the event that completes it;
//! * probes Down servers with periodic 8-byte READs over a channel re-armed
//!   at a fresh PSN ([`ReliableChannel::recover_at`]); an answered probe
//!   moves the server to `Rejoining`, and the pool promotes it itself:
//!   after re-seeding every counter a Fetch-and-Add has touched from the
//!   current primary, or at once if none has (every replica still holds
//!   zeros).
//!
//! A single-server pool ([`ReplicatedPool::single`]) is a strict
//! passthrough with no tracking overhead, so the single-server primitives
//! pay nothing and may submit any op.

use crate::channel::{ChannelEvent, Op, ReliableChannel, Reply};
use extmem_switch::SwitchCtx;
use extmem_types::{IntMap, IntSet, PortId, Rkey, TimeDelta};
use extmem_wire::bth::psn_add;
use std::collections::BTreeSet;
use std::fmt;

/// Cookie-space split: the pool's internal ops (probes, delta replays,
/// reseed copies) carry the top bit; caller cookies must leave it clear.
const INTERNAL_BIT: u64 = 1 << 63;

/// How far `recover_at` jumps the PSN past the dead window. Far larger
/// than any transmit window ([`crate::channel::MAX_WINDOW`]), so a straggler
/// response from the old incarnation can never alias into the recovered
/// window's dedup horizon.
const PSN_JUMP: u32 = 1 << 20;

/// Health of one pool server, as judged by its [`HealthDetector`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Health {
    /// Responding normally.
    Healthy,
    /// Missed at least one timeout round; not yet written off.
    Suspect,
    /// Past the consecutive-failure threshold (or its channel failed).
    /// Owed deltas but sent none; probed for recovery.
    Down,
    /// A probe answered: the server is back but its state is stale; it
    /// rejoins the mirror set once reconciliation completes.
    Rejoining,
}

/// Per-server failure detector: a pure state machine over timeout/ACK/probe
/// observations, deliberately free of channel plumbing so it can be
/// property-tested exhaustively (`tests/robustness_proptests.rs`).
///
/// Transitions:
///
/// * `on_timeout`: `Healthy → Suspect`; at `threshold` *consecutive*
///   timeouts, `Suspect → Down`. Never reaches `Down` earlier.
/// * `on_ack`: resets the consecutive count; `Suspect → Healthy`.
/// * `on_channel_failed`: forced `Down` from any state (the reliability
///   layer exhausted its retries or was aborted).
/// * `on_probe_success`: `Down → Rejoining` — the only way in.
/// * `on_rejoin_complete`: `Rejoining → Healthy`.
/// * `on_rejoin_aborted`: `Rejoining → Down` (reconciliation failed).
#[derive(Clone, Copy, Debug)]
pub struct HealthDetector {
    state: Health,
    consecutive_failures: u32,
    threshold: u32,
}

impl HealthDetector {
    /// A detector declaring `Down` after `threshold` consecutive timeouts.
    pub fn new(threshold: u32) -> HealthDetector {
        assert!(threshold > 0, "a zero threshold would start servers Down");
        HealthDetector {
            state: Health::Healthy,
            consecutive_failures: 0,
            threshold,
        }
    }

    /// Current health state.
    pub fn state(&self) -> Health {
        self.state
    }

    /// Consecutive timeout rounds without progress.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// A retransmission-timeout round fired with no response.
    pub fn on_timeout(&mut self) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        match self.state {
            Health::Healthy => self.state = Health::Suspect,
            Health::Suspect => {
                if self.consecutive_failures >= self.threshold {
                    self.state = Health::Down;
                }
            }
            // Down stays Down (probes decide recovery); a Rejoining server's
            // fate is decided by its reconciliation traffic, not raw timeouts.
            Health::Down | Health::Rejoining => {}
        }
    }

    /// The server responded (ACK or NAK — either proves liveness).
    pub fn on_ack(&mut self) {
        self.consecutive_failures = 0;
        if self.state == Health::Suspect {
            self.state = Health::Healthy;
        }
    }

    /// The reliability layer gave up on this server.
    pub fn on_channel_failed(&mut self) {
        self.consecutive_failures = self.consecutive_failures.max(self.threshold);
        self.state = Health::Down;
    }

    /// A probe READ completed against the restarted server.
    pub fn on_probe_success(&mut self) {
        if self.state == Health::Down {
            self.state = Health::Rejoining;
        }
    }

    /// Reconciliation finished; the server is a live mirror again.
    pub fn on_rejoin_complete(&mut self) {
        if self.state == Health::Rejoining {
            self.state = Health::Healthy;
            self.consecutive_failures = 0;
        }
    }

    /// Reconciliation was cut short (e.g. the reseed source died).
    pub fn on_rejoin_aborted(&mut self) {
        if self.state == Health::Rejoining {
            self.state = Health::Down;
        }
    }
}

/// Policy knobs for a replicated pool.
#[derive(Clone, Copy, Debug)]
pub struct PoolConfig {
    /// Consecutive timeout rounds before a server is declared `Down`. The
    /// pool aborts the primary's channel when this trips, so failover
    /// happens within `threshold` RTO rounds even if the channel's own
    /// retry cap is higher.
    pub down_threshold: u32,
    /// Period of the probe timer while any server is `Down`.
    pub probe_interval: TimeDelta,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            down_threshold: 3,
            probe_interval: TimeDelta::from_micros(200),
        }
    }
}

/// Probes a pool sends before it gives up on its Down servers: a bound
/// keeps a `run_to_quiescence` simulation terminating when a server never
/// comes back.
const MAX_PROBES: u64 = 64;

/// Pool-level counters, surfaced next to [`crate::channel::ChannelStats`]
/// in the FaA engine's stats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Servers in the pool.
    pub servers: u32,
    /// Servers currently `Down` or `Rejoining`.
    pub unavailable: u32,
    /// Primary promotions (a mirror took over).
    pub failovers: u64,
    /// Probe READs issued at Down servers.
    pub probes: u64,
    /// Servers promoted back to mirror after a crash.
    pub rejoins: u64,
    /// WRITE copies issued to mirrors: always 0, since a replicated pool
    /// carries Fetch-and-Adds only and mirrors catch up by delta replay.
    /// Kept because the benchmark harness (`crates/benchmark`) and A10's
    /// "mirror wr" column read it.
    pub mirror_writes: u64,
    /// FaA deltas recorded for later mirror replay.
    pub delta_accumulated: u64,
    /// Delta FaAs replayed onto mirrors (anti-entropy + promotion).
    pub delta_replayed: u64,
    /// Reseed copy ops (READ from survivor + WRITE to rejoiner).
    pub reseed_ops: u64,
    /// In-flight caller ops transparently reissued on a new primary.
    pub reissued_ops: u64,
}

impl PoolStats {
    /// Aggregate across pools (the sharded state store's
    /// `pool_rollup`).
    pub fn merge(&mut self, other: &PoolStats) {
        self.servers += other.servers;
        self.unavailable += other.unavailable;
        self.failovers += other.failovers;
        self.probes += other.probes;
        self.rejoins += other.rejoins;
        self.mirror_writes += other.mirror_writes;
        self.delta_accumulated += other.delta_accumulated;
        self.delta_replayed += other.delta_replayed;
        self.reseed_ops += other.reseed_ops;
        self.reissued_ops += other.reissued_ops;
    }
}

impl fmt::Display for PoolStats {
    /// Compact one-line form mirroring `ChannelStats`'s.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "servers={}/{} failovers={} probes={} rejoins={} mirror_wr={} \
             delta={}+{} reseed={} reissued={}",
            self.servers - self.unavailable,
            self.servers,
            self.failovers,
            self.probes,
            self.rejoins,
            self.mirror_writes,
            self.delta_accumulated,
            self.delta_replayed,
            self.reseed_ops,
            self.reissued_ops,
        )
    }
}

/// A pool-internal op (top cookie bit set).
#[derive(Clone, Debug)]
enum InternalOp {
    /// Recovery probe READ at a Down server.
    Probe { server: usize },
    /// A FaA delta being replayed onto a mirror; re-accumulated on failure.
    DeltaFaa { server: usize, va: u64, add: u64 },
    /// Reseed: READ of a touched word from the current primary.
    ReseedRead { target: usize, va: u64 },
    /// Reseed: WRITE of that word into the rejoining server.
    ReseedWrite { target: usize },
}

/// Reconciliation of one rejoining server (at most one at a time).
#[derive(Debug)]
struct Reseed {
    target: usize,
    /// Words whose copy (READ→WRITE round trip) hasn't landed yet.
    pending: usize,
}

struct PoolServer {
    channel: ReliableChannel,
    health: HealthDetector,
    /// Channel-stat watermarks for deriving detector inputs.
    seen_timeouts: u64,
    seen_progress: u64,
    /// FaA updates applied to the primary but not yet to this server:
    /// `(va, sum)` in ascending `va`, the order a flush replays them in.
    /// Small (one entry per counter touched since the last flush), so a
    /// sorted vector that keeps its capacity across flushes.
    delta: Vec<(u64, u64)>,
}

impl PoolServer {
    /// Owe this server `add` more at `va`.
    fn accumulate(&mut self, va: u64, add: u64) {
        match self.delta.binary_search_by_key(&va, |&(at, _)| at) {
            Ok(i) => self.delta[i].1 += add,
            Err(i) => self.delta.insert(i, (va, add)),
        }
    }
}

impl fmt::Debug for PoolServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PoolServer")
            .field("health", &self.health.state())
            .field("port", &self.channel.server_port())
            .finish()
    }
}

/// N symmetric remote-memory servers behind the same channel-shaped API
/// the primitives already speak (`submit`/`on_roce`/`on_timer`), plus
/// health monitoring, failover and rejoin. See the module docs for the
/// replication rules.
#[derive(Debug)]
pub struct ReplicatedPool {
    servers: Vec<PoolServer>,
    primary: usize,
    config: PoolConfig,
    /// Channel-event scratch for [`Self::on_roce`] / [`Self::on_timer`],
    /// reused across calls.
    raw: Vec<ChannelEvent>,
    /// Pool-internal ops in flight anywhere.
    internal: IntMap<u64, InternalOp>,
    next_internal: u64,
    /// `(server, cookie)`: caller atomics already covered by that server's
    /// in-progress reseed snapshot — their deltas must not double-apply.
    delta_skip: IntSet<(usize, u64)>,
    /// Every word ever touched by a caller FaA (the reseed copy list).
    touched: BTreeSet<u64>,
    reseed: Option<Reseed>,
    probe_armed: bool,
    failed: bool,
    stats: PoolStats,
}

/// Tag of a pool's probe-timer token: `PROBE_TIMER | p`, where `p` is the
/// switch port of the pool's first server (whose channel's timer is
/// `CHANNEL_TIMER | p`).
pub(crate) const PROBE_TIMER: u64 = 1 << 33;

/// Panics unless no two servers of `pools` share a switch port. A server's
/// port names its channel, for the frames it answers with and for the
/// channel's and the pool's timers, so a program's servers must each have
/// their own.
pub(crate) fn assert_distinct_ports<'a>(pools: impl IntoIterator<Item = &'a ReplicatedPool>) {
    let mut ports: Vec<PortId> = pools
        .into_iter()
        .flat_map(|p| p.servers.iter().map(|s| s.channel.server_port()))
        .collect();
    let n = ports.len();
    ports.sort_unstable();
    ports.dedup();
    assert_eq!(ports.len(), n, "memory servers must sit on distinct ports");
}

impl ReplicatedPool {
    /// A single-server pool: a strict passthrough to `channel` with zero
    /// tracking overhead. Every single-server constructor wraps its channel
    /// this way.
    pub(crate) fn single(channel: ReliableChannel) -> ReplicatedPool {
        Self::build(vec![channel], PoolConfig::default())
    }

    /// A replicated pool over `channels` (index 0 starts as primary). All
    /// servers must present the same region geometry — the controller
    /// registers identical layouts on each. Only the FaA engine builds one
    /// ([`crate::faa::FaaEngine::replicated`]).
    pub(crate) fn new(channels: Vec<ReliableChannel>, config: PoolConfig) -> ReplicatedPool {
        assert!(!channels.is_empty(), "a pool needs at least one server");
        if channels.len() > 1 {
            let (rkey, va, len) = (
                channels[0].rkey(),
                channels[0].base_va(),
                channels[0].region_len(),
            );
            for ch in &channels[1..] {
                assert!(
                    ch.rkey() == rkey && ch.base_va() == va && ch.region_len() == len,
                    "pool servers must expose identical region triples"
                );
                assert!(
                    ch.config().reliable,
                    "replicated pools require reliable channels"
                );
            }
        }
        let pool = Self::build(channels, config);
        assert_distinct_ports([&pool]);
        pool
    }

    fn build(channels: Vec<ReliableChannel>, config: PoolConfig) -> ReplicatedPool {
        let n = channels.len() as u32;
        ReplicatedPool {
            servers: channels
                .into_iter()
                .map(|channel| PoolServer {
                    channel,
                    health: HealthDetector::new(config.down_threshold),
                    seen_timeouts: 0,
                    seen_progress: 0,
                    delta: Vec::new(),
                })
                .collect(),
            primary: 0,
            config,
            raw: Vec::new(),
            internal: IntMap::default(),
            next_internal: 0,
            delta_skip: IntSet::default(),
            touched: BTreeSet::new(),
            reseed: None,
            probe_armed: false,
            failed: false,
            stats: PoolStats {
                servers: n,
                ..PoolStats::default()
            },
        }
    }

    fn probe_token(&self) -> u64 {
        PROBE_TIMER | self.servers[0].channel.server_port().0 as u64
    }

    /// Health of server `i`.
    pub fn health(&self, i: usize) -> Health {
        self.servers[i].health.state()
    }

    /// Whether `port` belongs to any of this pool's servers.
    pub fn owns_port(&self, port: PortId) -> bool {
        self.servers.iter().any(|s| s.channel.server_port() == port)
    }

    /// The current primary's switch port.
    pub fn server_port(&self) -> PortId {
        self.servers[self.primary].channel.server_port()
    }

    /// Remote access key (identical across servers).
    pub fn rkey(&self) -> Rkey {
        self.servers[0].channel.rkey()
    }

    /// Base VA of the region (identical across servers).
    pub fn base_va(&self) -> u64 {
        self.servers[0].channel.base_va()
    }

    /// Region length in bytes (identical across servers).
    pub fn region_len(&self) -> u64 {
        self.servers[0].channel.region_len()
    }

    /// Override the reliability policy on every server's channel (before
    /// traffic flows). Replicated pools must stay reliable — mirror
    /// reconciliation replays completions.
    pub fn set_config(&mut self, rc: crate::channel::ReliableConfig) {
        assert!(
            rc.reliable || self.servers.len() == 1,
            "replicated pools require reliable channels"
        );
        for s in &mut self.servers {
            s.channel.set_config(rc);
        }
    }

    /// Whether the pool as a whole has degraded: every server is gone (or
    /// the lone server of a passthrough pool failed). Mirrors
    /// [`ReliableChannel::is_failed`] for the primitives' fallback logic.
    pub fn is_failed(&self) -> bool {
        if self.servers.len() == 1 {
            return self.servers[0].channel.is_failed();
        }
        self.failed
    }

    /// Merged reliability counters across every server's channel.
    pub fn channel_stats(&self) -> crate::channel::ChannelStats {
        let mut out = crate::channel::ChannelStats::default();
        for s in &self.servers {
            out.merge(&s.channel.stats());
        }
        out
    }

    /// Pool-level counters.
    pub fn stats(&self) -> PoolStats {
        let mut s = self.stats;
        s.unavailable = self
            .servers
            .iter()
            .filter(|sv| matches!(sv.health.state(), Health::Down | Health::Rejoining))
            .count() as u32;
        s
    }

    /// Ops in flight on the primary's channel (the issuing-window gauge the
    /// FaA engine's outstanding bound reads).
    pub fn outstanding_len(&self) -> usize {
        self.servers[self.primary].channel.outstanding_len()
    }

    /// Whether the replicas have converged: no mirror holds an unreplayed
    /// FaA delta and no pool-internal op (delta replay, probe, reseed
    /// step) is in flight. Quiescence on the caller side plus this is the
    /// "fully settled" condition replica-equality audits should wait for.
    pub fn is_synced(&self) -> bool {
        self.internal.is_empty()
            && self.reseed.is_none()
            && self.servers.iter().all(|s| s.delta.is_empty())
    }

    /// The caller's ops the primary's channel holds, in submit order (in
    /// flight, then queued behind its window). The pool keeps no list of
    /// its own: this is the channel's, minus the pool-internal ops.
    pub fn caller_ops(&self) -> impl DoubleEndedIterator<Item = (u64, &Op)> {
        let ops = self.servers[self.primary].channel.ops();
        ops.filter(|(cookie, _)| cookie & INTERNAL_BIT == 0)
    }

    /// Submit a pool-internal `op` to `server`, under a fresh internal
    /// cookie that remembers `what` it is for.
    fn submit_internal(
        &mut self,
        ctx: &mut SwitchCtx<'_, '_, '_>,
        server: usize,
        what: InternalOp,
        op: Op,
    ) {
        let cookie = INTERNAL_BIT | self.next_internal;
        self.next_internal += 1;
        self.internal.insert(cookie, what);
        self.servers[server].channel.submit(ctx, op, cookie);
    }

    /// Submit `op` under `cookie`, which must leave the top bit clear (it
    /// marks the pool's own ops). A single-server pool passes any op
    /// through; a replicated one takes Fetch-and-Adds only and panics on
    /// anything else. The op runs on the primary, and the event that ends
    /// it — on this primary or, after a failover reissued it, the next —
    /// carries it back under the same cookie; its delta is then owed to
    /// the mirrors and reconciled by replay.
    ///
    /// Returns `false` — op dropped — once the pool has wholly degraded.
    pub fn submit(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, op: Op, cookie: u64) -> bool {
        debug_assert!(cookie & INTERNAL_BIT == 0, "caller cookies use bits 0..63");
        if self.servers.len() == 1 {
            return self.servers[0].channel.submit(ctx, op, cookie);
        }
        let Op::FetchAdd { va, .. } = op else {
            panic!("a replicated pool carries Fetch-and-Adds only, not {op:?}");
        };
        if self.failed {
            return false;
        }
        self.touched.insert(va);
        self.servers[self.primary].channel.submit(ctx, op, cookie)
    }

    /// Feed a RoCE packet from `in_port`. Returns `true` if some server's
    /// channel consumed it; caller-visible completions land in `events`.
    pub fn on_roce(
        &mut self,
        ctx: &mut SwitchCtx<'_, '_, '_>,
        in_port: PortId,
        roce: &extmem_wire::roce::RocePacket,
        events: &mut Vec<ChannelEvent>,
    ) -> bool {
        if self.servers.len() == 1 {
            if self.servers[0].channel.server_port() != in_port {
                return false;
            }
            return self.servers[0].channel.on_roce(ctx, roce, events);
        }
        let Some(i) = self
            .servers
            .iter()
            .position(|s| s.channel.server_port() == in_port)
        else {
            return false;
        };
        let mut raw = std::mem::take(&mut self.raw);
        let consumed = self.servers[i].channel.on_roce(ctx, roce, &mut raw);
        self.after_channel_activity(ctx, i, &mut raw, events);
        self.raw = raw;
        consumed
    }

    /// Route a program timer token. Returns `true` if it was one of this
    /// pool's (per-channel retransmission deadlines or the probe timer).
    pub fn on_timer(
        &mut self,
        ctx: &mut SwitchCtx<'_, '_, '_>,
        token: u64,
        events: &mut Vec<ChannelEvent>,
    ) -> bool {
        if self.servers.len() == 1 {
            if token != self.servers[0].channel.timer_token() {
                return false;
            }
            self.servers[0].channel.on_timer_fired(ctx, events);
            return true;
        }
        if token == self.probe_token() {
            self.on_probe_timer(ctx);
            return true;
        }
        let Some(i) = self
            .servers
            .iter()
            .position(|s| s.channel.timer_token() == token)
        else {
            return false;
        };
        let mut raw = std::mem::take(&mut self.raw);
        if self.servers[i].health.state() == Health::Down && !self.servers[i].channel.is_failed() {
            // An unanswered op (typically a probe) on a written-off server
            // timed out. Abort instead of retransmitting: a stale
            // retransmit arriving just after the server restarts would
            // consume its one-shot PSN resync and poison the fresh PSN
            // chain the next probe recovers at.
            self.servers[i].channel.abort(ctx, &mut raw);
        } else {
            self.servers[i].channel.on_timer_fired(ctx, &mut raw);
        }
        self.after_channel_activity(ctx, i, &mut raw, events);
        self.raw = raw;
        true
    }

    /// Post-activity bookkeeping for server `i`: derive detector inputs
    /// from the channel's counters, abort a primary the detector wrote
    /// off, then absorb the channel's events.
    fn after_channel_activity(
        &mut self,
        ctx: &mut SwitchCtx<'_, '_, '_>,
        i: usize,
        raw: &mut Vec<ChannelEvent>,
        out: &mut Vec<ChannelEvent>,
    ) {
        let st = self.servers[i].channel.stats();
        let progress = st.acks + st.naks;
        let timeouts = st.timeouts;
        let new_timeouts = timeouts > self.servers[i].seen_timeouts;
        {
            let s = &mut self.servers[i];
            for _ in s.seen_timeouts..timeouts {
                s.health.on_timeout();
            }
            s.seen_timeouts = timeouts;
            if progress > s.seen_progress {
                s.health.on_ack();
                s.seen_progress = progress;
            }
        }
        if new_timeouts
            && self.servers[i].health.state() == Health::Down
            && !self.servers[i].channel.is_failed()
        {
            // The detector tripped before the channel's retry cap: force
            // the failure path now so failover latency is the detector's.
            // Gated on *fresh* timeouts so a channel recovered for probing
            // (detector still Down until the probe completes) is not
            // re-aborted by unrelated activity.
            self.servers[i].channel.abort(ctx, raw);
        }
        self.absorb(ctx, i, raw, out);
        self.ensure_probe_timer(ctx);
    }

    fn absorb(
        &mut self,
        ctx: &mut SwitchCtx<'_, '_, '_>,
        i: usize,
        raw: &mut Vec<ChannelEvent>,
        out: &mut Vec<ChannelEvent>,
    ) {
        // Caller ops the dying primary handed back, in the order it did:
        // held for the `Failed` that ends the same volley, which reissues
        // them on a promoted mirror or passes them on.
        let mut orphans = Vec::new();
        for ev in raw.drain(..) {
            match ev {
                ChannelEvent::Done { cookie, reply, .. } if cookie & INTERNAL_BIT != 0 => {
                    self.internal_done(ctx, cookie, reply);
                }
                ChannelEvent::OpFailed { cookie, .. } if cookie & INTERNAL_BIT != 0 => {
                    self.internal_failed(cookie);
                }
                ChannelEvent::Done { cookie, op, reply } => {
                    if let Op::FetchAdd { va, add } = op {
                        for j in 0..self.servers.len() {
                            if j == i || self.delta_skip.remove(&(j, cookie)) {
                                continue;
                            }
                            self.servers[j].accumulate(va, add);
                            self.stats.delta_accumulated += 1;
                        }
                    }
                    out.push(ChannelEvent::Done { cookie, op, reply });
                }
                ChannelEvent::OpFailed { cookie, op } => orphans.push((cookie, op)),
                ChannelEvent::Failed => {
                    self.server_failed(ctx, i, std::mem::take(&mut orphans), out)
                }
            }
        }
        debug_assert!(orphans.is_empty(), "orphans outlived their batch");
    }

    fn internal_done(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, cookie: u64, reply: Reply) {
        let Some(op) = self.internal.remove(&cookie) else {
            return;
        };
        match op {
            InternalOp::DeltaFaa { .. } => {}
            InternalOp::Probe { server } => {
                self.servers[server].health.on_probe_success();
                self.begin_rejoin(ctx, server);
            }
            InternalOp::ReseedRead { target, va } => {
                let Reply::Data(data) = reply else {
                    unreachable!("a READ is answered with data");
                };
                let copy = Op::Write {
                    va,
                    body: data.into(),
                    ack_req: true,
                };
                self.submit_internal(ctx, target, InternalOp::ReseedWrite { target }, copy);
                self.stats.reseed_ops += 1;
            }
            InternalOp::ReseedWrite { target } => {
                let done = match &mut self.reseed {
                    Some(rs) if rs.target == target => {
                        rs.pending -= 1;
                        rs.pending == 0
                    }
                    _ => false,
                };
                if done {
                    self.reseed = None;
                    self.finish_rejoin(ctx, target);
                }
            }
        }
    }

    fn internal_failed(&mut self, cookie: u64) {
        let Some(op) = self.internal.remove(&cookie) else {
            return;
        };
        match op {
            // Probe unanswered: the server stays Down, the timer re-probes.
            InternalOp::Probe { .. } => {}
            InternalOp::DeltaFaa { server, va, add } => {
                // Replay didn't land; put the delta back for the next flush.
                self.servers[server].accumulate(va, add);
            }
            InternalOp::ReseedRead { target, .. } | InternalOp::ReseedWrite { target } => {
                if self.reseed.as_ref().is_some_and(|r| r.target == target) {
                    self.reseed = None;
                    self.servers[target].health.on_rejoin_aborted();
                }
            }
        }
    }

    fn server_failed(
        &mut self,
        ctx: &mut SwitchCtx<'_, '_, '_>,
        i: usize,
        orphans: Vec<(u64, Op)>,
        out: &mut Vec<ChannelEvent>,
    ) {
        self.servers[i].health.on_channel_failed();
        if self.reseed.as_ref().is_some_and(|r| r.target == i) {
            self.reseed = None;
        }
        if i != self.primary {
            debug_assert!(orphans.is_empty(), "caller ops never run on mirrors");
            return;
        }
        // Promote the healthiest mirror, preferring fully Healthy ones.
        let candidate = (0..self.servers.len())
            .filter(|&j| j != i)
            .find(|&j| self.servers[j].health.state() == Health::Healthy)
            .or_else(|| {
                (0..self.servers.len())
                    .filter(|&j| j != i)
                    .find(|&j| self.servers[j].health.state() == Health::Suspect)
            });
        let Some(new_primary) = candidate else {
            self.failed = true;
            let orphans = orphans.into_iter();
            out.extend(orphans.map(|(cookie, op)| ChannelEvent::OpFailed { cookie, op }));
            out.push(ChannelEvent::Failed);
            return;
        };
        self.primary = new_primary;
        self.stats.failovers += 1;
        // The new primary first catches up on the FaA deltas it missed,
        // then the orphaned caller ops are replayed under their original
        // cookies, in the order the old primary's channel held them.
        // Channel FIFO ordering makes the catch-up happen first. An op
        // carries no rkey, so it reissues verbatim under the new primary's
        // own region key.
        self.replay_delta(ctx, new_primary);
        for (cookie, op) in orphans {
            self.servers[new_primary].channel.submit(ctx, op, cookie);
            self.stats.reissued_ops += 1;
        }
    }

    /// Drain `server`'s accumulated FaA delta into replay ops on it, in
    /// ascending `va`.
    fn replay_delta(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, server: usize) {
        // Issuing an op completes none, so nothing accumulates on `server`
        // while its list is out; it goes back empty, capacity intact.
        let mut delta = std::mem::take(&mut self.servers[server].delta);
        for (va, add) in delta.drain(..) {
            let what = InternalOp::DeltaFaa { server, va, add };
            self.submit_internal(ctx, server, what, Op::FetchAdd { va, add });
            self.stats.delta_replayed += 1;
        }
        debug_assert!(self.servers[server].delta.is_empty());
        self.servers[server].delta = delta;
    }

    /// Anti-entropy flush: replay pending FaA deltas onto every live
    /// mirror so replicas converge between failovers, and start the
    /// reconciliation of a rejoiner that queued behind one cut short. The
    /// FaA engine calls this from its periodic tick; cheap when nothing is
    /// pending.
    pub fn sync_mirrors(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>) {
        if self.servers.len() == 1 || self.failed {
            return;
        }
        self.next_rejoin(ctx);
        for j in 0..self.servers.len() {
            if j == self.primary
                || self.servers[j].delta.is_empty()
                || !matches!(
                    self.servers[j].health.state(),
                    Health::Healthy | Health::Suspect
                )
            {
                continue;
            }
            self.replay_delta(ctx, j);
        }
    }

    /// Re-seed a probe-answered `server` from the primary — every word a
    /// caller Fetch-and-Add has touched is copied, then the server is
    /// promoted. A pool that never carried one has nothing to copy: every
    /// replica still holds zeros, so the server is promoted at once.
    fn begin_rejoin(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, server: usize) {
        if self.reseed.is_some() {
            // One reconciliation at a time: a second rejoiner stays
            // `Rejoining` and is picked up when the current one ends.
            return;
        }
        if self.touched.is_empty() {
            self.finish_rejoin(ctx, server);
            return;
        }
        // Caller atomics currently in flight on the primary will be
        // captured by the snapshot READs behind them (FIFO channel), so
        // their deltas must not be applied to the rejoiner again.
        for (cookie, op) in self.servers[self.primary].channel.ops() {
            if cookie & INTERNAL_BIT == 0 && matches!(op, Op::FetchAdd { .. }) {
                self.delta_skip.insert((server, cookie));
            }
        }
        self.servers[server].delta.clear();
        let vas: Vec<u64> = self.touched.iter().copied().collect();
        self.reseed = Some(Reseed {
            target: server,
            pending: vas.len(),
        });
        for va in vas {
            let what = InternalOp::ReseedRead { target: server, va };
            self.submit_internal(ctx, self.primary, what, Op::Read { va, len: 8 });
            self.stats.reseed_ops += 1;
        }
    }

    fn finish_rejoin(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, server: usize) {
        self.servers[server].health.on_rejoin_complete();
        self.stats.rejoins += 1;
        // Deltas that accumulated while reseeding (post-snapshot atomics)
        // flush now; afterwards the server is a mirror like any other.
        self.replay_delta(ctx, server);
        // Chain any rejoiner that was queued behind this reconciliation.
        self.next_rejoin(ctx);
    }

    /// Start reconciling the first `Rejoining` server, if there is one and
    /// no reconciliation is under way.
    fn next_rejoin(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>) {
        let next =
            (0..self.servers.len()).find(|&j| self.servers[j].health.state() == Health::Rejoining);
        if let Some(j) = next {
            self.begin_rejoin(ctx, j);
        }
    }

    fn ensure_probe_timer(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>) {
        if self.probe_armed
            || self.failed
            || self.servers.len() == 1
            || self.stats.probes >= MAX_PROBES
        {
            return;
        }
        if !self
            .servers
            .iter()
            .any(|s| s.health.state() == Health::Down)
        {
            return;
        }
        ctx.schedule(self.config.probe_interval, self.probe_token());
        self.probe_armed = true;
    }

    fn on_probe_timer(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>) {
        self.probe_armed = false;
        if self.failed {
            return;
        }
        for i in 0..self.servers.len() {
            if self.servers[i].health.state() != Health::Down || self.stats.probes >= MAX_PROBES {
                continue;
            }
            // A live (non-failed) channel here means the previous probe is
            // still being timed out; let it conclude before re-arming.
            if !self.servers[i].channel.is_failed() {
                continue;
            }
            let fresh = psn_add(self.servers[i].channel.inner().qp.npsn, PSN_JUMP);
            self.servers[i].channel.recover_at(fresh);
            let va = self.servers[i].channel.base_va();
            let probe = Op::Read { va, len: 8 };
            self.submit_internal(ctx, i, InternalOp::Probe { server: i }, probe);
            self.stats.probes += 1;
        }
        self.ensure_probe_timer(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::tests::{behind_blackhole, impatient, Blackhole};
    use crate::channel::{RdmaChannel, ReliableConfig, MAX_WINDOW};
    use extmem_rnic::{RnicConfig, RnicNode, WriteBody};
    use extmem_sim::{LinkSpec, Node, NodeCtx};
    use extmem_switch::switch::program_token;
    use extmem_switch::{PipelineProgram, SwitchNode};
    use extmem_types::{ByteSize, Time};
    use extmem_wire::roce::{RoceEndpoint, RocePacket};
    use extmem_wire::{MacAddr, Packet};

    /// A memory server that also records every frame the switch sends it.
    struct Tap {
        nic: RnicNode,
        frames: Vec<Packet>,
    }

    impl Node for Tap {
        fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: PortId, packet: Packet) {
            self.frames.push(packet.clone());
            self.nic.on_packet(ctx, port, packet);
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
            self.nic.on_timer(ctx, token);
        }
        fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, port: PortId) {
            self.nic.on_tx_done(ctx, port);
        }
        fn name(&self) -> &str {
            "tap"
        }
    }

    /// Owns a pool; submits `ops` under cookies 10, 11, … when poked and
    /// keeps every event the pool hands up.
    struct Submitter {
        pool: ReplicatedPool,
        ops: Vec<Op>,
        events: Vec<ChannelEvent>,
    }

    const SUBMIT: u64 = 1;
    /// Write server 1 off as the detector does when its channel goes
    /// silent: abort the channel and let the pool absorb the failure.
    const WRITE_OFF: u64 = 2;
    /// The FaA engine's tick: an anti-entropy flush.
    const SYNC: u64 = 3;

    impl PipelineProgram for Submitter {
        fn ingress(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, port: PortId, pkt: Packet) {
            let roce = RocePacket::parse(&pkt).unwrap().unwrap();
            assert!(self.pool.on_roce(ctx, port, &roce, &mut self.events));
        }

        fn on_timer(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, token: u64) {
            match token {
                SUBMIT => {
                    for (i, op) in self.ops.iter().enumerate() {
                        assert!(self.pool.submit(ctx, op.clone(), 10 + i as u64));
                    }
                }
                WRITE_OFF => {
                    let mut raw = Vec::new();
                    self.pool.servers[1].channel.abort(ctx, &mut raw);
                    self.pool
                        .after_channel_activity(ctx, 1, &mut raw, &mut self.events);
                }
                SYNC => self.pool.sync_mirrors(ctx),
                _ => assert!(self.pool.on_timer(ctx, token, &mut self.events)),
            }
        }
    }

    fn endpoint(i: u32) -> RoceEndpoint {
        RoceEndpoint {
            mac: MacAddr::local(i),
            ip: 0x0a00_0000 + i,
        }
    }

    /// `N` memory servers with the same region triple and their channels,
    /// the channel to server `i` on switch port `i`.
    fn servers<const N: usize>() -> ([RnicNode; N], [RdmaChannel; N]) {
        let mut nics =
            std::array::from_fn(|i| RnicNode::new("mem", RnicConfig::at(endpoint(10 + i as u32))));
        let channels = std::array::from_fn(|i| {
            let size = ByteSize::from_bytes(4096);
            RdmaChannel::setup(endpoint(1), PortId(i as u16), &mut nics[i], size)
        });
        (nics, channels)
    }

    /// A pool of `channels` under `rc`, detector threshold two rounds.
    fn submitter(
        channels: impl IntoIterator<Item = RdmaChannel>,
        rc: ReliableConfig,
        ops: Vec<Op>,
    ) -> Submitter {
        let pool_config = PoolConfig {
            down_threshold: 2,
            ..PoolConfig::default()
        };
        let channels = channels.into_iter().map(|ch| ReliableChannel::new(ch, rc));
        Submitter {
            pool: ReplicatedPool::new(channels.collect(), pool_config),
            ops,
            events: Vec::new(),
        }
    }

    /// The primary of a three-server pool never answers. Fetch-and-Adds to
    /// distinct counters fill its window and three more queue behind it
    /// when the detector writes it off; the pool has kept no copy of them.
    /// What reaches the promoted mirror is what the failed channel handed
    /// back: the same requests, in submit order, each answered once under
    /// its own cookie.
    #[test]
    fn failover_reissues_what_the_failed_channel_hands_back() {
        // The server on port 0 is never plugged in — a black hole sits there.
        let (nics, channels) = servers::<3>();
        let (rkey, base) = (channels[1].rkey, channels[1].base_va);
        let promoted_qp = channels[1].qp.clone();
        let ops: Vec<Op> = (0..MAX_WINDOW as u64 + 3)
            .map(|i| Op::FetchAdd {
                va: base + 8 * i,
                add: 1 + i,
            })
            .collect();
        // The detector (two silent rounds) is to trip before the channel's
        // own retry cap does.
        let program = submitter(channels, impatient(), ops.clone());
        let mut servers = Vec::new();
        let (mut sim, sw, hole) = behind_blackhole(program, |b, sw| {
            let [_unplugged, nic, spare] = nics;
            let frames = Vec::new();
            servers.push(b.add_node(Box::new(Tap { nic, frames })));
            servers.push(b.add_node(Box::new(spare)));
            for (i, &server) in servers.iter().enumerate() {
                let port = PortId(1 + i as u16);
                b.connect(sw, port, server, PortId(0), LinkSpec::testbed_40g());
            }
        });
        // Silence at 10 us and again at 30 us; well before the first probe.
        sim.schedule_timer(sw, TimeDelta::ZERO, program_token(SUBMIT));
        sim.run_until(Time::from_micros(100));

        let program = sim.node::<SwitchNode>(sw).program::<Submitter>();
        let stats = program.pool.stats();
        assert_eq!(
            (program.pool.server_port(), stats.failovers),
            (PortId(1), 1)
        );
        assert_eq!(stats.reissued_ops, ops.len() as u64);
        // Only the window ever reached the dead primary: sent, and sent
        // again in each of the two silent rounds.
        assert_eq!(sim.node::<Blackhole>(hole).frames.len(), MAX_WINDOW * 3);

        // At the promoted mirror: a window of ops in submit order, each
        // exactly as `Op::request` lowers it under consecutive PSNs. The
        // NIC admits only so many atomics at once, so go-back-N resends
        // some, and the three that queued follow: each at its own PSN too.
        let reissued: Vec<Packet> = (ops.iter().enumerate())
            .map(|(i, op)| promoted_qp.encode_at(i as u32, rkey, &op.request()))
            .collect();
        let tap = sim.node::<Tap>(servers[0]);
        assert_eq!(tap.frames[..MAX_WINDOW], reissued[..MAX_WINDOW]);
        for frame in &tap.frames[MAX_WINDOW..] {
            assert!(reissued.contains(frame), "a frame no op lowers to");
        }

        // Every op came back once, under its cookie.
        let want: Vec<ChannelEvent> = (ops.iter().enumerate())
            .map(|(i, op)| ChannelEvent::Done {
                cookie: 10 + i as u64,
                op: op.clone(),
                reply: Reply::Ack,
            })
            .collect();
        assert_eq!(program.events, want);

        // No Fetch-and-Add completed on the old primary, so none is owed
        // to anybody as a delta: the new primary applied each once, as the
        // reissued op, and nothing was replayed onto it. The two servers
        // it did not run on are owed it.
        for (i, op) in ops.iter().enumerate() {
            let Op::FetchAdd { va, add } = *op else {
                unreachable!()
            };
            let counter = tap.nic.region(rkey).read(va, 8).unwrap();
            assert_eq!(counter, add.to_be_bytes(), "counter {i}");
        }
        assert_eq!(stats.delta_replayed, 0);
        assert_eq!(stats.delta_accumulated, 2 * ops.len() as u64);
    }

    /// A replicated pool keeps its mirrors by Fetch-and-Add delta replay
    /// alone, so any other caller op is refused.
    #[test]
    #[should_panic(expected = "carries Fetch-and-Adds only")]
    fn replicated_pool_carries_fetch_and_add_only() {
        let (_nics, channels) = servers::<2>();
        let write = Op::Write {
            va: channels[0].base_va,
            body: WriteBody::inline(b"hd"),
            ack_req: true,
        };
        let program = submitter(channels, ReliableConfig::default(), vec![write]);
        let (mut sim, sw, _) = behind_blackhole(program, |_, _| {});
        sim.schedule_timer(sw, TimeDelta::ZERO, program_token(SUBMIT));
        sim.run_until(Time::from_micros(10));
    }

    /// The mirror of a two-server pool crashes and is written off before
    /// anything is counted, then restarts. Its probe is answered, and with
    /// no counter to copy the pool promotes it at once; nobody else is
    /// asked. The first Fetch-and-Add after that reaches both replicas.
    #[test]
    fn mirror_rejoining_before_the_first_count_is_promoted_by_the_pool() {
        // Port 0 leads to the black hole; the servers sit on ports 1 and 2.
        let (nics, [_, primary, mirror]) = servers::<3>();
        let (rkey, base) = (primary.rkey, primary.base_va);
        let count = Op::FetchAdd { va: base, add: 5 };
        let program = submitter([primary, mirror], impatient(), vec![count]);
        let mut servers = Vec::new();
        let (mut sim, sw, _) = behind_blackhole(program, |b, sw| {
            let [_unplugged, nics @ ..] = nics;
            for (i, nic) in nics.into_iter().enumerate() {
                let server = b.add_node(Box::new(nic));
                let port = PortId(1 + i as u16);
                b.connect(sw, port, server, PortId(0), LinkSpec::testbed_40g());
                servers.push(server);
            }
        });
        let mirror = servers[1];
        sim.schedule_crash(mirror, TimeDelta::ZERO);
        sim.schedule_timer(sw, TimeDelta::from_micros(5), program_token(WRITE_OFF));
        sim.schedule_restart(mirror, TimeDelta::from_micros(100));
        // The first probe goes out 200 us after the write-off.
        sim.run_until(Time::from_micros(300));
        let pool = &sim.node::<SwitchNode>(sw).program::<Submitter>().pool;
        assert_eq!([pool.health(0), pool.health(1)], [Health::Healthy; 2]);
        let stats = pool.stats();
        assert_eq!((stats.probes, stats.rejoins, stats.reseed_ops), (1, 1, 0));

        sim.schedule_timer(sw, TimeDelta::ZERO, program_token(SUBMIT));
        sim.schedule_timer(sw, TimeDelta::from_micros(20), program_token(SYNC));
        sim.run_until(Time::from_micros(400));
        let pool = &sim.node::<SwitchNode>(sw).program::<Submitter>().pool;
        assert!(pool.is_synced());
        assert_eq!(pool.stats().delta_replayed, 1);
        for server in servers {
            let counter = sim
                .node::<RnicNode>(server)
                .region(rkey)
                .read(base, 8)
                .unwrap();
            assert_eq!(counter, 5u64.to_be_bytes());
        }
    }

    /// A server's port names its channel's timer: two servers on one port
    /// would arm the same token, so the pool refuses them.
    #[test]
    #[should_panic(expected = "distinct ports")]
    fn servers_sharing_a_port_are_refused() {
        use extmem_rnic::requester::RequesterQp;
        use extmem_types::QpNum;
        let channel = || RdmaChannel {
            qp: RequesterQp::new(endpoint(1), endpoint(2), QpNum(0x100)),
            rkey: Rkey(1),
            base_va: 0x1000,
            region_len: 64,
            server_port: PortId(3),
        };
        let rc = ReliableConfig::default();
        let channels = vec![
            ReliableChannel::new(channel(), rc),
            ReliableChannel::new(channel(), rc),
        ];
        ReplicatedPool::new(channels, PoolConfig::default());
    }

    #[test]
    fn detector_needs_threshold_consecutive_timeouts() {
        let mut d = HealthDetector::new(3);
        assert_eq!(d.state(), Health::Healthy);
        d.on_timeout();
        assert_eq!(d.state(), Health::Suspect);
        d.on_ack();
        assert_eq!(d.state(), Health::Healthy);
        d.on_timeout();
        d.on_timeout();
        assert_eq!(d.state(), Health::Suspect);
        d.on_timeout();
        assert_eq!(d.state(), Health::Down);
    }

    #[test]
    fn rejoin_only_from_down() {
        let mut d = HealthDetector::new(2);
        d.on_probe_success();
        assert_eq!(
            d.state(),
            Health::Healthy,
            "probe success is not a promotion"
        );
        d.on_channel_failed();
        assert_eq!(d.state(), Health::Down);
        d.on_probe_success();
        assert_eq!(d.state(), Health::Rejoining);
        d.on_timeout();
        assert_eq!(
            d.state(),
            Health::Rejoining,
            "raw timeouts don't demote a rejoiner"
        );
        d.on_rejoin_complete();
        assert_eq!(d.state(), Health::Healthy);
        assert_eq!(d.consecutive_failures(), 0);
    }

    #[test]
    fn rejoin_abort_returns_to_down() {
        let mut d = HealthDetector::new(1);
        d.on_channel_failed();
        d.on_probe_success();
        d.on_rejoin_aborted();
        assert_eq!(d.state(), Health::Down);
    }

    #[test]
    fn pool_stats_merge() {
        let mut a = PoolStats {
            servers: 2,
            failovers: 1,
            probes: 3,
            ..PoolStats::default()
        };
        let b = PoolStats {
            servers: 2,
            rejoins: 1,
            ..PoolStats::default()
        };
        a.merge(&b);
        assert_eq!(a.servers, 4);
        assert_eq!(a.failovers, 1);
        assert_eq!(a.rejoins, 1);
        assert!(format!("{a}").contains("failovers=1"));
    }
}
