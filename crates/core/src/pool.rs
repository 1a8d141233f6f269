//! Replicated remote-memory pools: N servers behind one channel-shaped API.
//!
//! The paper assumes the memory server stays up; the reliability layer
//! (PR 3) already survives packet loss but treats a dead server as
//! terminal. This module makes server death survivable: a primitive binds
//! to a *pool* of N symmetric servers (one primary, N−1 mirrors) instead of
//! one [`ReliableChannel`]. The pool:
//!
//! * fans WRITEs out to the primary and every live mirror (the caller's
//!   completion tracks the primary);
//! * sends READs and Fetch-and-Adds to the primary only, accumulating each
//!   FaA's delta per mirror so a mirror's counters can be reconciled by
//!   replay (an anti-entropy flush, [`ReplicatedPool::sync_mirrors`],
//!   keeps live mirrors converged between failovers);
//! * watches each server with a [`HealthDetector`] (`Healthy → Suspect →
//!   Down → Rejoining`) driven by the channel's timeout/ACK counters, and
//!   aborts the primary's channel the moment the detector trips — failover
//!   latency is the detector threshold, not the channel retry cap;
//! * on primary failure promotes the best mirror, replays its outstanding
//!   delta, and reissues the caller ops that were in flight (same cookies,
//!   so the owning primitive never notices) — the very [`Op`] values the
//!   dying channel hands back in its `OpFailed` events, in its order. The
//!   pool keeps no list of caller ops: what it needs of one (a
//!   Fetch-and-Add's delta, a conditional WRITE's decided image) it reads
//!   off the event that completes it;
//! * probes Down servers with periodic 8-byte READs over a channel re-armed
//!   at a fresh PSN ([`ReliableChannel::recover_at`]); a answered probe
//!   moves the server to `Rejoining`, after which its state is re-seeded
//!   (counters copied from the current primary) or — for primitives with
//!   their own drain discipline, like the packet buffer — promotion waits
//!   for the caller's [`ReplicatedPool::complete_rejoin`].
//!
//! A single-server pool ([`ReplicatedPool::single`]) is a strict
//! passthrough with no tracking overhead, so existing single-server
//! primitives pay nothing.

use crate::channel::{ChannelEvent, Op, ReliableChannel, Reply};
use extmem_rnic::{RemoteOp, WriteBody};
use extmem_switch::SwitchCtx;
use extmem_wire::extop::EXTOP_FLAG_HIT;
use extmem_types::{IntMap, IntSet, PortId, Rkey, TimeDelta};
use extmem_wire::bth::psn_add;
use std::collections::BTreeSet;
use std::fmt;

/// Cookie-space split: the pool's internal ops (mirror writes, probes,
/// delta replays, reseed copies) carry the top bit; caller cookies must
/// leave it clear.
const INTERNAL_BIT: u64 = 1 << 63;

/// How far `recover_at` jumps the PSN past the dead window. Far larger
/// than any transmit window (`max_window` ≤ a few hundred), so a straggler
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
    /// Excluded from fanout; probed for recovery.
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
    /// Give up probing after this many probes (`None` = keep trying). A
    /// bound keeps `run_to_quiescence`-style drivers terminating when a
    /// server never comes back.
    pub max_probes: Option<u32>,
    /// Promote a `Rejoining` server back to mirror as soon as
    /// reconciliation (if any) completes. Primitives with their own drain
    /// discipline (the packet buffer: ring must empty first) set this
    /// `false` and call [`ReplicatedPool::complete_rejoin`] themselves.
    pub auto_promote: bool,
    /// Re-seed a rejoining server's atomically-updated words by copying
    /// them from the current primary (state-store counters). Without it a
    /// rejoiner comes back cold (packet buffer, lookup).
    pub reseed_atomics: bool,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            down_threshold: 3,
            probe_interval: TimeDelta::from_micros(200),
            max_probes: Some(64),
            auto_promote: true,
            reseed_atomics: false,
        }
    }
}

/// Pool-level counters, surfaced next to [`crate::channel::ChannelStats`]
/// in every primitive's stats.
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
    /// Fan-out WRITE copies issued to mirrors.
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
    /// Aggregate across pools (multi-pool primitives, e.g. the striped
    /// packet buffer).
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
    /// Fan-out WRITE copy on a mirror.
    MirrorWrite,
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
    timer_base: u64,
    failed: bool,
    stats: PoolStats,
}

impl ReplicatedPool {
    /// A single-server pool: a strict passthrough to `channel` with zero
    /// tracking overhead. Every existing single-server constructor wraps
    /// its channel this way.
    pub fn single(channel: ReliableChannel) -> ReplicatedPool {
        Self::build(vec![channel], PoolConfig::default())
    }

    /// A replicated pool over `channels` (index 0 starts as primary). All
    /// servers must present the same region geometry — the controller
    /// registers identical layouts on each.
    pub fn new(channels: Vec<ReliableChannel>, config: PoolConfig) -> ReplicatedPool {
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
        Self::build(channels, config)
    }

    fn build(mut channels: Vec<ReliableChannel>, config: PoolConfig) -> ReplicatedPool {
        let timer_base = channels[0].timer_token();
        // Every channel needs its own retransmission-timer token; lay them
        // out consecutively from the first channel's (a no-op for N=1).
        for (i, ch) in channels.iter_mut().enumerate().skip(1) {
            ch.set_timer_token(timer_base + i as u64);
        }
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
            timer_base,
            failed: false,
            stats: PoolStats {
                servers: n,
                ..PoolStats::default()
            },
        }
    }

    /// Assign the pool's timer-token range: channel `i` arms `base + i`,
    /// and the probe timer uses `base + server_count`. Call before traffic.
    pub fn set_timer_tokens(&mut self, base: u64) {
        for (i, s) in self.servers.iter_mut().enumerate() {
            s.channel.set_timer_token(base + i as u64);
        }
        self.timer_base = base;
    }

    fn probe_token(&self) -> u64 {
        self.timer_base + self.servers.len() as u64
    }

    /// Number of servers.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Index of the current primary.
    pub fn primary(&self) -> usize {
        self.primary
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

    /// The reliability config in force (shared by every replica).
    pub fn config(&self) -> crate::channel::ReliableConfig {
        self.servers[0].channel.config()
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
    /// FaA delta and no pool-internal op (mirror write, delta replay,
    /// probe, reseed step) is in flight. Quiescence on the caller side
    /// plus this is the "fully settled" condition replica-equality audits
    /// should wait for.
    pub fn is_synced(&self) -> bool {
        self.internal.is_empty()
            && self.reseed.is_none()
            && self.servers.iter().all(|s| s.delta.is_empty())
    }

    /// Whether any server has answered a probe and now waits for the
    /// caller's promotion gate (packet buffer: ring drained).
    pub fn rejoin_pending(&self) -> bool {
        self.reseed.is_none()
            && self
                .servers
                .iter()
                .any(|s| s.health.state() == Health::Rejoining)
    }

    /// The caller's ops the primary's channel holds, in submit order (in
    /// flight, then queued behind its window). The pool keeps no list of
    /// its own: this is the channel's, minus the pool-internal ops.
    pub fn caller_ops(&self) -> impl Iterator<Item = (u64, &Op)> {
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
    /// marks the pool's own ops). Every op runs on the primary, and the
    /// event that ends it — on this primary or, after a failover reissued
    /// it, the next — carries it back under the same cookie:
    ///
    /// * a WRITE also goes, as a copy sharing `body`'s tail, to every live
    ///   mirror;
    /// * a Fetch-and-Add's delta is owed to the mirrors once it completes
    ///   and reconciled by replay;
    /// * a remote op must not fan out — each replica could observe a
    ///   different compare value and the replica images would diverge — so
    ///   a *conditional WRITE*'s side effect is mirrored after the fact,
    ///   when its completion reports a hit (DESIGN §4g).
    ///
    /// Returns `false` — op dropped — once the pool has wholly degraded.
    pub fn submit(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, op: Op, cookie: u64) -> bool {
        debug_assert!(cookie & INTERNAL_BIT == 0, "caller cookies use bits 0..63");
        if self.servers.len() == 1 {
            return self.servers[0].channel.submit(ctx, op, cookie);
        }
        if self.failed {
            return false;
        }
        match &op {
            Op::Write { va, body, .. } => self.mirror_write(ctx, *va, body),
            Op::FetchAdd { va, .. } => {
                self.touched.insert(*va);
            }
            Op::Read { .. } | Op::Remote(_) => {}
        }
        self.servers[self.primary].channel.submit(ctx, op, cookie)
    }

    /// Copy a WRITE of `body` at `va` to every mirror currently
    /// eligible for fanout (live and not the primary), each under its own
    /// internal cookie. Mirror copies always request an explicit ACK: with
    /// no caller traffic behind them on that channel, an implicit
    /// completion might never come and the retransmission timer would
    /// wrongly fail the mirror.
    fn mirror_write(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, va: u64, body: &WriteBody) {
        for j in 0..self.servers.len() {
            let live = matches!(
                self.servers[j].health.state(),
                Health::Healthy | Health::Suspect
            );
            if j == self.primary || !live {
                continue;
            }
            let copy = Op::Write {
                va,
                body: body.clone(),
                ack_req: true,
            };
            self.submit_internal(ctx, j, InternalOp::MirrorWrite, copy);
            self.stats.mirror_writes += 1;
        }
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
        let n = self.servers.len() as u64;
        if token == self.probe_token() {
            self.on_probe_timer(ctx);
            return true;
        }
        if token < self.timer_base || token >= self.timer_base + n {
            return false;
        }
        let i = (token - self.timer_base) as usize;
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
                    match (&op, &reply) {
                        (Op::FetchAdd { va, add }, _) => {
                            for j in 0..self.servers.len() {
                                if j == i || self.delta_skip.remove(&(j, cookie)) {
                                    continue;
                                }
                                self.servers[j].accumulate(*va, *add);
                                self.stats.delta_accumulated += 1;
                            }
                        }
                        // The primary took the conditional write: propagate
                        // the decided image to the mirrors as plain WRITEs
                        // (re-running the *condition* there could decide
                        // differently).
                        (
                            Op::Remote(RemoteOp::CondWrite {
                                write_va, write, ..
                            }),
                            Reply::Remote { flags, .. },
                        ) if flags & EXTOP_FLAG_HIT != 0 => {
                            self.mirror_write(ctx, *write_va, &WriteBody::inline(write));
                        }
                        _ => {}
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
            InternalOp::MirrorWrite | InternalOp::DeltaFaa { .. } => {}
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
            // The mirror is dying; its channel `Failed` handles the rest.
            InternalOp::MirrorWrite => {}
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
    /// mirror so replicas converge between failovers. Primitives with a
    /// periodic tick (the state store) call this from it; cheap when
    /// nothing is pending.
    pub fn sync_mirrors(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>) {
        if self.servers.len() == 1 || self.failed {
            return;
        }
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

    fn begin_rejoin(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, server: usize) {
        if self.config.reseed_atomics && !self.touched.is_empty() {
            if self.reseed.is_some() {
                // One reconciliation at a time; this server stays
                // `Rejoining` and is picked up when the current one ends.
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
        } else if self.config.auto_promote {
            self.finish_rejoin(ctx, server);
        }
        // Otherwise: wait for the caller's `complete_rejoin` gate.
    }

    fn finish_rejoin(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, server: usize) {
        self.servers[server].health.on_rejoin_complete();
        self.stats.rejoins += 1;
        // Deltas that accumulated while reseeding (post-snapshot atomics)
        // flush now; afterwards the server takes normal WRITE fanout.
        self.replay_delta(ctx, server);
        // Chain any rejoiner that was queued behind this reconciliation.
        if self.reseed.is_none() {
            let next = (0..self.servers.len())
                .find(|&j| self.servers[j].health.state() == Health::Rejoining);
            if let Some(j) = next {
                self.begin_rejoin(ctx, j);
            }
        }
    }

    /// Caller-side promotion gate (pools built with `auto_promote: false`):
    /// promote every probe-answered server back to mirror. The packet
    /// buffer calls this once its ring has drained, so a rejoined replica
    /// never holds a stale ring window.
    pub fn complete_rejoin(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>) {
        for i in 0..self.servers.len() {
            if self.servers[i].health.state() == Health::Rejoining
                && self.reseed.as_ref().is_none_or(|r| r.target != i)
            {
                self.finish_rejoin(ctx, i);
            }
        }
    }

    /// Whether a rejoin reconciliation (pool-driven snapshot or
    /// caller-driven [`ReplicatedPool::reseed_rejoiner`] image) is in
    /// flight.
    pub fn reseed_active(&self) -> bool {
        self.reseed.is_some()
    }

    /// Caller-driven rejoin reconciliation: write `image` — `(va, bytes)`
    /// pairs regenerated from the caller's authoritative copy (e.g. the
    /// cuckoo directory) — onto the first `Rejoining` server, then promote
    /// it. An empty image promotes immediately (the restarted server's
    /// zeroed region already matches). Returns `true` when a reseed (or the
    /// immediate promotion) started; callers should stop issuing state
    /// mutations until [`ReplicatedPool::reseed_active`] goes false so the
    /// image cannot go stale mid-reseed.
    pub fn reseed_rejoiner(
        &mut self,
        ctx: &mut SwitchCtx<'_, '_, '_>,
        image: Vec<(u64, Vec<u8>)>,
    ) -> bool {
        if self.failed || self.reseed.is_some() {
            return false;
        }
        let Some(target) = (0..self.servers.len())
            .find(|&j| self.servers[j].health.state() == Health::Rejoining)
        else {
            return false;
        };
        if image.is_empty() {
            self.finish_rejoin(ctx, target);
            return true;
        }
        self.reseed = Some(Reseed {
            target,
            pending: image.len(),
        });
        for (va, bytes) in image {
            let copy = Op::Write {
                va,
                body: bytes.into(),
                ack_req: true,
            };
            self.submit_internal(ctx, target, InternalOp::ReseedWrite { target }, copy);
            self.stats.reseed_ops += 1;
        }
        true
    }

    fn ensure_probe_timer(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>) {
        if self.probe_armed || self.failed || self.servers.len() == 1 {
            return;
        }
        if let Some(max) = self.config.max_probes {
            if self.stats.probes >= max as u64 {
                return;
            }
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
            if self.servers[i].health.state() != Health::Down {
                continue;
            }
            if let Some(max) = self.config.max_probes {
                if self.stats.probes >= max as u64 {
                    continue;
                }
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
    use crate::channel::{RdmaChannel, ReliableConfig};
    use extmem_rnic::{Operand, RnicConfig, RnicNode};
    use extmem_sim::{LinkSpec, Node, NodeCtx};
    use extmem_switch::switch::program_token;
    use extmem_switch::{PipelineProgram, SwitchNode};
    use extmem_types::{ByteSize, Time};
    use extmem_wire::roce::{RoceEndpoint, RocePacket};
    use extmem_wire::{MacAddr, Packet, Payload};

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

    impl PipelineProgram for Submitter {
        fn ingress(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, port: PortId, pkt: Packet) {
            let roce = RocePacket::parse(&pkt).unwrap().unwrap();
            assert!(self.pool.on_roce(ctx, port, &roce, &mut self.events));
        }

        fn on_timer(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, token: u64) {
            if token != SUBMIT {
                assert!(self.pool.on_timer(ctx, token, &mut self.events));
                return;
            }
            for (i, op) in self.ops.iter().enumerate() {
                assert!(self.pool.submit(ctx, op.clone(), 10 + i as u64));
            }
        }
    }

    /// The primary of a three-server pool never answers. One op of each
    /// kind and a fifth, three of the five still queued behind a two-op
    /// window, are in the primary's channel when the detector writes it
    /// off; the pool has kept no copy of them. What reaches the promoted
    /// mirror is what the failed channel handed back: the same five
    /// requests, in submit order, each answered once under its own cookie.
    #[test]
    fn failover_reissues_what_the_failed_channel_hands_back() {
        let endpoint = |i| RoceEndpoint {
            mac: MacAddr::local(i),
            ip: 0x0a00_0000 + i,
        };
        // Three servers with the same region triple, on ports 0, 1 and 2;
        // the one on port 0 is never plugged in — a black hole sits there.
        let mut nics = [10, 11, 12].map(|i| RnicNode::new("mem", RnicConfig::at(endpoint(i))));
        let channels: [RdmaChannel; 3] = std::array::from_fn(|i| {
            let size = ByteSize::from_bytes(4096);
            RdmaChannel::setup(endpoint(1), PortId(i as u16), &mut nics[i], size)
        });
        let (rkey, base) = (channels[1].rkey, channels[1].base_va);
        let promoted_qp = channels[1].qp.clone();

        let tail = Payload::from_vec((0..30).collect());
        let ops = vec![
            Op::Write {
                va: base,
                body: WriteBody::framed(b"hd", tail.clone()),
                ack_req: true,
            },
            Op::Read {
                va: base + 64,
                len: 16,
            },
            Op::FetchAdd {
                va: base + 128,
                add: 7,
            },
            // The region is zeroed, so the compare matches: a hit.
            Op::Remote(RemoteOp::CondWrite {
                cmp_va: base + 192,
                write_va: base + 256,
                compare: Operand::new(&[0; 8]),
                write: Operand::new(&[0xab; 8]),
            }),
            // Reads the WRITE back: the order survived the failover.
            Op::Read { va: base, len: 32 },
        ];
        // The detector (two silent rounds) is to trip before the channel's
        // own retry cap does.
        let rc = ReliableConfig {
            max_retries: 8,
            ..impatient(2)
        };
        let pool_config = PoolConfig {
            down_threshold: 2,
            ..PoolConfig::default()
        };
        let channels = channels.into_iter().map(|ch| ReliableChannel::new(ch, rc));
        let program = Submitter {
            pool: ReplicatedPool::new(channels.collect(), pool_config),
            ops: ops.clone(),
            events: Vec::new(),
        };
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
        assert_eq!((program.pool.primary(), stats.failovers), (1, 1));
        assert_eq!(stats.reissued_ops, 5);
        // Only the window ever reached the dead primary: sent, and sent
        // again in each of the two silent rounds.
        assert_eq!(sim.node::<Blackhole>(hole).frames.len(), 2 * 3);

        // At the promoted mirror: its copy of the WRITE, from before the
        // failover, then the five ops exactly as `Op::request` lowers
        // them, under consecutive PSNs.
        let tap = sim.node::<Tap>(servers[0]);
        assert_eq!(tap.frames.len(), 6);
        for (i, (frame, op)) in tap.frames[1..].iter().zip(&ops).enumerate() {
            let want = promoted_qp.encode_at(1 + i as u32, rkey, &op.request());
            assert_eq!(*frame, want, "reissued op {i}");
        }

        // Every op came back once, under its cookie, with its answer.
        let image = [&b"hd"[..], &tail[..]].concat();
        let replies = [
            Reply::Ack,
            Reply::Data(Payload::from_vec(vec![0; 16])),
            Reply::Ack,
            Reply::Remote {
                flags: EXTOP_FLAG_HIT,
                index: 0,
                data: Payload::from_vec(vec![0; 8]),
            },
            Reply::Data(Payload::from_vec(image.clone())),
        ];
        let done = ops.iter().zip(replies).enumerate();
        let want: Vec<ChannelEvent> = done
            .map(|(i, (op, reply))| ChannelEvent::Done {
                cookie: 10 + i as u64,
                op: op.clone(),
                reply,
            })
            .collect();
        assert_eq!(program.events, want);

        // The Fetch-and-Add never completed on the old primary, so it is
        // owed to nobody as a delta: the new primary applied it once, as
        // the reissued op, and nothing was replayed onto it.
        let counter = |nic: &RnicNode| nic.region(rkey).read(base + 128, 8).unwrap().to_vec();
        assert_eq!(counter(&tap.nic), 7u64.to_be_bytes());
        assert_eq!(stats.delta_replayed, 0);
        // The conditional WRITE hit on the new primary, and its decided
        // image went on to the one mirror still alive (as the WRITE's copy
        // had, at submit time, to both).
        let spare = sim.node::<RnicNode>(servers[1]);
        assert_eq!(stats.mirror_writes, 3);
        for nic in [&tap.nic, spare] {
            assert_eq!(nic.region(rkey).read(base + 256, 8).unwrap(), [0xab; 8]);
            assert_eq!(nic.region(rkey).read(base, 32).unwrap(), &image[..]);
        }
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
        assert_eq!(d.state(), Health::Healthy, "probe success is not a promotion");
        d.on_channel_failed();
        assert_eq!(d.state(), Health::Down);
        d.on_probe_success();
        assert_eq!(d.state(), Health::Rejoining);
        d.on_timeout();
        assert_eq!(d.state(), Health::Rejoining, "raw timeouts don't demote a rejoiner");
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
