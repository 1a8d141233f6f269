//! Replicated remote-memory pools: N servers behind one channel-shaped API.
//!
//! The paper assumes the memory server stays up; the reliability layer
//! already survives packet loss but treats a dead server as terminal. This
//! module makes server death survivable for the one primitive whose remote
//! state is a sum of its own updates: the state store's Fetch-and-Add
//! engine binds to a *pool* of N symmetric servers (one primary, N−1
//! mirrors) instead of one [`ReliableChannel`]. A pool carries caller
//! Fetch-and-Adds and nothing else (any other caller op panics).
//! The pool:
//!
//! * sends each Fetch-and-Add to the primary only. Its own atomic
//!   acknowledgement completes it, in PSN order, with the word's value just
//!   before the add: with the add, the primary's value. The pool keeps that
//!   value for every word a completed Fetch-and-Add counted, and marks the
//!   word dirty on every other server. A word whose adds all came back
//!   unanswered is kept as zero;
//! * brings a server up to date one way: one WRITE per run of dirty words
//!   at consecutive addresses (at most an MTU of them), carrying their kept
//!   values, in ascending address. That is the anti-entropy flush
//!   ([`ReplicatedPool::sync_mirrors`]), the catch-up of a promoted mirror
//!   and a rejoin, for which every kept word is dirty. A WRITE that fails
//!   leaves each of its words dirty. A duplicate WRITE is not re-executed
//!   and a channel executes in order, so a replica's word never goes back
//!   to an older value but at a rejoin;
//! * writes a server off by one rule, its channel's retry cap: the pool
//!   gives every server's channel a cap of `down_threshold − 1`, so the
//!   channel fails on its `down_threshold`-th timeout round with no
//!   progress (1 + 2 + 4 RTOs for the default of 3) and the server is
//!   `Down` from that `Failed` until a reconnect is answered. A server whose
//!   channel is backing off is `Suspect`; [`Health`] is that view, and no
//!   more;
//! * on primary failure promotes the best mirror, catches it up, and
//!   reissues the caller ops that were in flight (same cookies, so the
//!   owning engine never notices) — the very [`Op`] values the dying
//!   channel hands back in its `OpFailed` events, in its order. None of
//!   them has completed, so none is in a kept value;
//! * probes Down servers by reconnecting them: an [`Op::Connect`] at the
//!   failed channel's own next PSN ([`ReliableChannel::reconnect`]), which
//!   comes back with no retries left: a connect unanswered for one RTO
//!   fails it again, and the next probe is a `probe_interval` later. A
//!   connect refused by a server that is up (a restart's NAK) is re-sent
//!   at once, once per write-off. An answered connect makes the server a
//!   mirror again at once, with every kept word dirty on it: its catch-up rides its own
//!   FIFO channel, ahead of anything it is sent later. It rewrites what a wipe lost, and undoes
//!   the adds the server ran without answering, which are sent again. A pool
//!   that lost every server keeps reconnecting; the first back is primary.
//!
//! The single-server primitives hold their [`ReliableChannel`] directly;
//! only the FaA engine builds a pool. A non-replicated engine's pool has one
//! server and takes the same path, under one rule: a best-effort give-up
//! goes straight to the caller. Such a channel ages ops out without ever
//! failing, so an `OpFailed` that no `Failed` follows in the same batch is
//! handed up as it is, not kept for a failover that will not come.

use crate::channel::{ChannelEvent, Op, ReliableChannel, Reply, MAX_WINDOW};
use extmem_rnic::nic::MTU;
use extmem_rnic::{Operand, WriteBody};
use extmem_switch::SwitchCtx;
use extmem_types::{IntMap, PortId, TimeDelta};
use extmem_wire::Payload;
use std::collections::BTreeMap;
use std::fmt;

/// Cookie-space split: the pool's internal ops (probes, catch-up WRITEs)
/// carry the top bit; caller cookies must leave it clear.
const INTERNAL_BIT: u64 = 1 << 63;

/// The longest run of catch-up WRITEs that asks for no ACK: every
/// this-many-th one asks, as does a volley's last, so a volley longer than
/// the channel's window keeps it turning instead of filling it with WRITEs
/// nothing would ever confirm.
const ACK_EVERY: usize = MAX_WINDOW / 4;

/// Health of one pool server, as [`ReplicatedPool::health`] reads it off
/// its channel. Ordered best first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Health {
    /// Responding normally.
    Healthy,
    /// Its channel is backing off: at least one timeout round since its
    /// last progress.
    Suspect,
    /// Its channel failed, and no reconnect has been answered since.
    /// Words turn dirty on it, but it is sent nothing except reconnects.
    Down,
}

/// Policy knobs for a replicated pool.
#[derive(Clone, Copy, Debug)]
pub struct PoolConfig {
    /// The timeout round, counted from a server's last progress, on which
    /// its channel fails and the server is `Down`: every channel's retry
    /// cap is one less.
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

/// The reconnect budget: probes a pool sends before it gives up on its
/// Down servers, so a `run_to_quiescence` simulation terminates when a
/// server never comes back.
const MAX_PROBES: u64 = 64;

/// Pool-level counters, surfaced next to [`crate::channel::ChannelStats`]
/// in the FaA engine's stats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Servers in the pool.
    pub servers: u32,
    /// Servers currently `Down`.
    pub unavailable: u32,
    /// Primary promotions (a mirror took over).
    pub failovers: u64,
    /// Reconnects (probes) sent to Down servers.
    pub probes: u64,
    /// Servers taken back after a write-off (answered reconnects).
    pub rejoins: u64,
    /// Caller WRITEs fanned out to mirrors: always 0, since a replicated
    /// pool carries Fetch-and-Adds only and servers catch up by value
    /// WRITEs (counted in `delta_replayed`). Kept because the benchmark
    /// harness (`crates/benchmark`) and A10's "mirror wr" column read it.
    pub mirror_writes: u64,
    /// Words marked dirty on another server by a completed caller
    /// Fetch-and-Add, one per op per server.
    pub delta_accumulated: u64,
    /// Words written by catch-up WRITEs (anti-entropy, promotion and
    /// rejoin), each with the primary's value; one WRITE carries a run of
    /// them. The name is the one the benchmark harness reads.
    pub delta_replayed: u64,
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
        self.reissued_ops += other.reissued_ops;
    }
}

impl fmt::Display for PoolStats {
    /// Compact one-line form mirroring `ChannelStats`'s.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "servers={}/{} failovers={} probes={} rejoins={} mirror_wr={} \
             delta={}+{} reissued={}",
            self.servers - self.unavailable,
            self.servers,
            self.failovers,
            self.probes,
            self.rejoins,
            self.mirror_writes,
            self.delta_accumulated,
            self.delta_replayed,
            self.reissued_ops,
        )
    }
}

/// A pool-internal op (top cookie bit set).
#[derive(Clone, Debug)]
enum InternalOp {
    /// The connect that reconnects a Down server.
    Probe { server: usize },
    /// A catch-up WRITE of the `words` words from `va`; each is dirty again
    /// if it fails.
    CatchUp {
        server: usize,
        va: u64,
        words: usize,
    },
}

struct PoolServer {
    channel: ReliableChannel,
    /// Written off: its channel failed, and no reconnect has been answered
    /// since.
    down: bool,
    /// A reconnect was refused since the write-off, and re-sent at once.
    refused: bool,
    /// Words whose kept value this server has not been sent since it
    /// changed, in ascending `va`, the order a catch-up writes them in.
    /// Small (one entry per counter touched since the last flush), so a
    /// sorted vector that keeps its capacity across flushes.
    dirty: Vec<u64>,
}

impl PoolServer {
    /// Mark the word at `va` dirty on this server.
    fn mark_dirty(&mut self, va: u64) {
        if let Err(i) = self.dirty.binary_search(&va) {
            self.dirty.insert(i, va);
        }
    }
}

impl fmt::Debug for PoolServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PoolServer")
            .field("down", &self.down)
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
    /// The primary's value of every word a completed caller Fetch-and-Add
    /// counted, as of the last one to complete, and zero for a word whose
    /// adds all came back unanswered: what a catch-up writes.
    known: BTreeMap<u64, u64>,
    probe_armed: bool,
    failed: bool,
    stats: PoolStats,
}

/// Tag of a pool's probe-timer token: `PROBE_TIMER | p`, where `p` is the
/// switch port of the pool's first server (whose channel's timer is
/// `CHANNEL_TIMER | p`).
pub(crate) const PROBE_TIMER: u64 = 1 << 33;

/// Panics unless no two of `ports` are the same. A memory server's port
/// names its channel, for the frames it answers with and for the channel's
/// and the pool's timers, so a program's servers must each have their own.
pub(crate) fn assert_distinct_ports(ports: impl IntoIterator<Item = PortId>) {
    let mut ports: Vec<PortId> = ports.into_iter().collect();
    let n = ports.len();
    ports.sort_unstable();
    ports.dedup();
    assert_eq!(ports.len(), n, "memory servers must sit on distinct ports");
}

impl ReplicatedPool {
    /// A pool over `channels` (index 0 starts as primary). All servers must
    /// present the same region geometry — the controller registers
    /// identical layouts on each — and a mirror's channel must be reliable.
    /// Only the FaA engine builds one ([`crate::faa::FaaEngine`]).
    pub(crate) fn new(channels: Vec<ReliableChannel>, config: PoolConfig) -> ReplicatedPool {
        assert!(!channels.is_empty(), "a pool needs at least one server");
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
        assert_distinct_ports(channels.iter().map(|c| c.server_port()));
        assert!(
            config.down_threshold > 0,
            "a server is down only after a fire"
        );
        let n = channels.len() as u32;
        ReplicatedPool {
            servers: channels
                .into_iter()
                .map(|mut channel| {
                    channel.set_retry_cap(config.down_threshold - 1);
                    PoolServer {
                        channel,
                        down: false,
                        refused: false,
                        dirty: Vec::new(),
                    }
                })
                .collect(),
            primary: 0,
            config,
            raw: Vec::new(),
            internal: IntMap::default(),
            next_internal: 0,
            known: BTreeMap::new(),
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

    /// Health of server `i`: `Down` from its channel's failure until a
    /// reconnect is answered, `Suspect` while its channel backs off.
    pub fn health(&self, i: usize) -> Health {
        let s = &self.servers[i];
        if s.down {
            Health::Down
        } else if s.channel.stats().backoff_level > 0 {
            Health::Suspect
        } else {
            Health::Healthy
        }
    }

    /// The switch ports of this pool's servers, in server order.
    pub(crate) fn ports(&self) -> impl Iterator<Item = PortId> + '_ {
        self.servers.iter().map(|s| s.channel.server_port())
    }

    /// Whether `port` belongs to any of this pool's servers.
    pub fn owns_port(&self, port: PortId) -> bool {
        self.ports().any(|p| p == port)
    }

    /// The current primary's switch port.
    pub fn server_port(&self) -> PortId {
        self.servers[self.primary].channel.server_port()
    }

    /// Base VA of the region (identical across servers).
    pub fn base_va(&self) -> u64 {
        self.servers[0].channel.base_va()
    }

    /// Region length in bytes (identical across servers).
    pub fn region_len(&self) -> u64 {
        self.servers[0].channel.region_len()
    }

    /// Whether the pool as a whole has degraded: every server is gone, until
    /// one is reconnected. Mirrors [`ReliableChannel::is_failed`] for the
    /// FaA engine's fallback logic.
    pub fn is_failed(&self) -> bool {
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
        s.unavailable = self.servers.iter().filter(|sv| sv.down).count() as u32;
        s
    }

    /// Ops in flight on the primary's channel (the issuing-window gauge the
    /// FaA engine's outstanding bound reads).
    pub fn outstanding_len(&self) -> usize {
        self.servers[self.primary].channel.outstanding_len()
    }

    /// Whether the replicas have converged: no server has a dirty word and
    /// no pool-internal op (catch-up WRITE, probe) is in flight.
    /// Quiescence on the caller side plus this is the "fully settled"
    /// condition replica-equality audits should wait for.
    pub fn is_synced(&self) -> bool {
        self.internal.is_empty() && self.servers.iter().all(|s| s.dirty.is_empty())
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
    /// marks the pool's own ops). A pool takes Fetch-and-Adds only and
    /// panics on anything else. The op runs on the primary, and the event
    /// that ends it — on this primary or, after a failover reissued it, the
    /// next — carries it back under the same cookie; the word's new value
    /// is then kept, and the word marked dirty on the other servers.
    ///
    /// Returns `false` — op dropped — once the pool has wholly degraded.
    pub fn submit(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, op: Op, cookie: u64) -> bool {
        debug_assert!(cookie & INTERNAL_BIT == 0, "caller cookies use bits 0..63");
        assert!(
            matches!(op, Op::FetchAdd { .. }),
            "a pool carries Fetch-and-Adds only, not {op:?}"
        );
        if self.failed {
            return false;
        }
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
        let Some(i) = self.ports().position(|p| p == in_port) else {
            return false;
        };
        let mut raw = std::mem::take(&mut self.raw);
        let server = &mut self.servers[i];
        let reconnecting = server.down && !server.channel.is_failed();
        let consumed = server.channel.on_roce(ctx, roce, &mut raw);
        // An answer that fails a reconnect is a refusal by a server that is
        // up (a restart's NAK): reconnect at once, once per write-off.
        let refused = reconnecting && server.channel.is_failed() && !server.refused;
        self.absorb(ctx, i, &mut raw, events);
        self.raw = raw;
        if refused && self.stats.probes < MAX_PROBES {
            self.servers[i].refused = true;
            self.reconnect(ctx, i);
        }
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
        self.servers[i].channel.on_timer_fired(ctx, &mut raw);
        self.absorb(ctx, i, &mut raw, events);
        self.raw = raw;
        true
    }

    /// Take in the events server `i`'s channel just emitted: caller
    /// completions go to `out`, a `Failed` writes the server off.
    fn absorb(
        &mut self,
        ctx: &mut SwitchCtx<'_, '_, '_>,
        i: usize,
        raw: &mut Vec<ChannelEvent>,
        out: &mut Vec<ChannelEvent>,
    ) {
        // Caller ops the channel handed back, in the order it did: held
        // for the `Failed` that ends a dying channel's volley, then
        // reissued on a promoted mirror or passed on.
        let mut orphans = Vec::new();
        for ev in raw.drain(..) {
            match ev {
                ChannelEvent::Done { cookie, .. } if cookie & INTERNAL_BIT != 0 => {
                    if let Some(InternalOp::Probe { server }) = self.internal.remove(&cookie) {
                        self.rejoin(ctx, server);
                    }
                }
                ChannelEvent::Done { cookie, op, reply } => {
                    // A reliable channel completes a Fetch-and-Add with its
                    // own value, in PSN order: the word as it was just
                    // before the add, which holds every add completed
                    // before it and none still in flight.
                    if let (Op::FetchAdd { va, add }, Reply::Fetched(old)) = (&op, &reply) {
                        self.known.insert(*va, old.wrapping_add(*add));
                        for j in (0..self.servers.len()).filter(|&j| j != i) {
                            self.servers[j].mark_dirty(*va);
                            self.stats.delta_accumulated += 1;
                        }
                    }
                    out.push(ChannelEvent::Done { cookie, op, reply });
                }
                ChannelEvent::OpFailed { cookie, .. } if cookie & INTERNAL_BIT != 0 => {
                    // An unanswered probe leaves its server Down, and the
                    // timer probes again; a catch-up WRITE that did not
                    // land leaves its word dirty.
                    let what = self.internal.remove(&cookie);
                    if let Some(InternalOp::CatchUp { server, va, words }) = what {
                        for word in (0..words as u64).map(|w| va + 8 * w) {
                            self.servers[server].mark_dirty(word);
                        }
                    }
                }
                ChannelEvent::OpFailed { cookie, op } => {
                    // An add that came back unanswered may have run: a rejoin
                    // rewrites its word (zero if never counted) first.
                    if let Op::FetchAdd { va, .. } = op {
                        self.known.entry(va).or_insert(0);
                    }
                    orphans.push((cookie, op));
                }
                ChannelEvent::Failed => {
                    self.server_failed(ctx, i, std::mem::take(&mut orphans), out)
                }
            }
        }
        // No `Failed` followed: a best-effort channel aged these out or had
        // them NAKed. Its give-ups are the caller's.
        let orphans = orphans.into_iter();
        out.extend(orphans.map(|(cookie, op)| ChannelEvent::OpFailed { cookie, op }));
        self.ensure_probe_timer(ctx);
    }

    fn server_failed(
        &mut self,
        ctx: &mut SwitchCtx<'_, '_, '_>,
        i: usize,
        orphans: Vec<(u64, Op)>,
        out: &mut Vec<ChannelEvent>,
    ) {
        self.servers[i].down = true;
        if i != self.primary || self.failed {
            debug_assert!(orphans.is_empty(), "caller ops never run on mirrors");
            return;
        }
        // Promote the healthiest live mirror, the first of its health.
        let candidate = (0..self.servers.len())
            .map(|j| (self.health(j), j))
            .filter(|&(health, _)| health != Health::Down)
            .min();
        let Some((_, new_primary)) = candidate else {
            self.failed = true;
            let orphans = orphans.into_iter();
            out.extend(orphans.map(|(cookie, op)| ChannelEvent::OpFailed { cookie, op }));
            out.push(ChannelEvent::Failed);
            return;
        };
        self.primary = new_primary;
        self.stats.failovers += 1;
        // The new primary first catches up on its dirty words, then the
        // orphaned caller ops are replayed under their original cookies,
        // in the order the old primary's channel held them. Channel FIFO
        // ordering makes the catch-up happen first. An op carries no rkey,
        // so it reissues verbatim under the new primary's own region key.
        self.catch_up(ctx, new_primary);
        for (cookie, op) in orphans {
            self.servers[new_primary].channel.submit(ctx, op, cookie);
            self.stats.reissued_ops += 1;
        }
    }

    /// Write `server` the kept value of each of its dirty words: one WRITE
    /// per run of words at consecutive addresses, at most an MTU of them,
    /// its body their values in address order; runs go out in ascending
    /// `va`. A WRITE asks for an ACK when it is the volley's last or the
    /// [`ACK_EVERY`]-th in a row; every other one is confirmed by the answer
    /// to an op behind it.
    fn catch_up(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, server: usize) {
        // Issuing an op completes none, so no word turns dirty on `server`
        // while its list is out; it goes back empty, capacity intact.
        let mut dirty = std::mem::take(&mut self.servers[server].dirty);
        let mut left = &dirty[..];
        let mut bytes = [0u8; MTU];
        for k in 1.. {
            let Some(&va) = left.first() else { break };
            let adjacent = left.windows(2).take(MTU / 8 - 1);
            let words = 1 + adjacent.take_while(|w| w[1] == w[0] + 8).count();
            left = &left[words..];
            // Every dirty word is a kept one. The first values ride inline
            // in the op, the rest in a pooled buffer.
            let values = self.known.range(va..va + 8 * words as u64);
            for (at, (_, value)) in bytes.chunks_exact_mut(8).zip(values) {
                at.copy_from_slice(&value.to_be_bytes());
            }
            let (head, rest) = bytes[..8 * words].split_at((8 * words).min(Operand::MAX_LEN));
            let mut tail = Payload::empty();
            if !rest.is_empty() {
                let mut buf = extmem_wire::pool::take();
                buf.extend_from_slice(rest);
                tail = Payload::from_vec(buf);
            }
            let body = WriteBody::framed(head, tail);
            let ack_req = left.is_empty() || k % ACK_EVERY == 0;
            let write = Op::Write { va, body, ack_req };
            let what = InternalOp::CatchUp { server, va, words };
            self.submit_internal(ctx, server, what, write);
            self.stats.delta_replayed += words as u64;
        }
        dirty.clear();
        debug_assert!(self.servers[server].dirty.is_empty());
        self.servers[server].dirty = dirty;
    }

    /// Anti-entropy flush: catch every live mirror up on its dirty words,
    /// so replicas converge between failovers. The FaA engine calls this
    /// from its periodic tick; cheap when nothing is dirty.
    pub fn sync_mirrors(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>) {
        if self.failed {
            return;
        }
        for j in 0..self.servers.len() {
            let live = !self.servers[j].down;
            if j != self.primary && live && !self.servers[j].dirty.is_empty() {
                self.catch_up(ctx, j);
            }
        }
    }

    /// The reconnect of Down `server` was answered: it is a mirror again, or
    /// the primary if every server was gone, and its catch-up of every kept
    /// word goes out now on its own channel, ahead of anything sent later.
    fn rejoin(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, server: usize) {
        self.servers[server].down = false;
        self.servers[server].refused = false;
        self.stats.rejoins += 1;
        let dirty = &mut self.servers[server].dirty;
        dirty.clear();
        dirty.extend(self.known.keys());
        if self.failed {
            // Every server was gone: the first one back is the primary.
            self.failed = false;
            self.primary = server;
        }
        self.catch_up(ctx, server);
    }

    fn ensure_probe_timer(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>) {
        if self.probe_armed || self.stats.probes >= MAX_PROBES {
            return;
        }
        if !self.servers.iter().any(|s| s.down) {
            return;
        }
        ctx.schedule(self.config.probe_interval, self.probe_token());
        self.probe_armed = true;
    }

    fn on_probe_timer(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>) {
        self.probe_armed = false;
        for i in 0..self.servers.len() {
            if !self.servers[i].down || self.stats.probes >= MAX_PROBES {
                continue;
            }
            // A live (non-failed) channel here means the previous connect is
            // still being timed out; let it conclude before reconnecting.
            if self.servers[i].channel.is_failed() {
                self.reconnect(ctx, i);
            }
        }
        self.ensure_probe_timer(ctx);
    }

    /// Probe Down server `i`: reconnect its failed channel.
    fn reconnect(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, i: usize) {
        self.servers[i].channel.reconnect();
        self.submit_internal(ctx, i, InternalOp::Probe { server: i }, Op::Connect);
        self.stats.probes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::tests::{behind_blackhole, impatient, unplugged, Blackhole, Tap};
    use crate::channel::{RdmaChannel, ReliableConfig};
    use extmem_rnic::{RnicConfig, RnicNode};
    use extmem_sim::LinkSpec;
    use extmem_switch::switch::program_token;
    use extmem_switch::{PipelineProgram, SwitchNode};
    use extmem_types::NodeId;
    use extmem_types::{ByteSize, Rkey, Time};
    use extmem_wire::bth::Opcode;
    use extmem_wire::roce::{RoceEndpoint, RoceExt, RocePacket};
    use extmem_wire::{MacAddr, Packet};

    /// Owns a pool; submits `ops` under cookies 10, 11, … when poked and
    /// keeps every event the pool hands up.
    struct Submitter {
        pool: ReplicatedPool,
        ops: Vec<Op>,
        events: Vec<ChannelEvent>,
    }

    const SUBMIT: u64 = 1;
    /// Write server 1 off as its retry cap does when its channel goes
    /// silent: fail the channel and let the pool absorb the failure.
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
                    self.pool.servers[1].channel.fail(ctx, &mut raw);
                    self.pool.absorb(ctx, 1, &mut raw, &mut self.events);
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

    /// A pool of `channels` under `rc`, a server down on its second silent
    /// round.
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
    /// when its retry cap writes it off; the pool has kept no copy of them.
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
        // The pool's cap: the channel fails on its second silent round.
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
        // again at the first silent round; the second fails the channel.
        assert_eq!(sim.node::<Blackhole>(hole).frames.len(), MAX_WINDOW * 2);

        // At the promoted mirror: a window of ops in submit order, each
        // exactly as `Op::request` lowers it under consecutive PSNs. The
        // NIC admits only so many atomics at once, so go-back-N resends
        // some, and the three that queued follow: each at its own PSN too.
        let reissued: Vec<Packet> = (ops.iter().enumerate())
            .map(|(i, op)| {
                promoted_qp
                    .encode_at(i as u32, rkey, &op.request())
                    .unwrap()
            })
            .collect();
        let tap = sim.node::<Tap>(servers[0]);
        assert_eq!(tap.frames[..MAX_WINDOW], reissued[..MAX_WINDOW]);
        for frame in &tap.frames[MAX_WINDOW..] {
            assert!(reissued.contains(frame), "a frame no op lowers to");
        }

        // Every op came back once, under its cookie, with the value its
        // counter held before it: zero, on the promoted mirror.
        let want: Vec<ChannelEvent> = (ops.iter().enumerate())
            .map(|(i, op)| ChannelEvent::Done {
                cookie: 10 + i as u64,
                op: op.clone(),
                reply: Reply::Fetched(0),
            })
            .collect();
        assert_eq!(program.events, want);

        // No Fetch-and-Add completed on the old primary, so no word was
        // dirty on the new one: it applied each op once, as the reissued
        // op, and was written nothing. The word of each is dirty on the
        // two servers it did not run on.
        for (i, op) in ops.iter().enumerate() {
            let Op::FetchAdd { va, add } = *op else {
                unreachable!()
            };
            let counter = tap.nic.region(rkey).unwrap().read(va, 8).unwrap();
            assert_eq!(counter, add.to_be_bytes(), "counter {i}");
        }
        assert_eq!(stats.delta_replayed, 0);
        assert_eq!(stats.delta_accumulated, 2 * ops.len() as u64);
    }

    /// A replicated pool keeps its mirrors by replaying the words its
    /// Fetch-and-Adds count, so any other caller op is refused.
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

    /// A primary on switch port 1 and a mirror on port 2 (port 0 leads to
    /// the black hole) under [`impatient`] channels; the pool's one caller
    /// op is `op`. The mirror crashes at once, is written off at 5 us and
    /// restarts at `restart`; the first probe goes out 200 us after the
    /// write-off. Runs to 300 us and returns the simulation, the switch and
    /// the two servers.
    fn a_mirror_back_from_a_crash(
        op: Op,
        restart: TimeDelta,
    ) -> (extmem_sim::Simulator, NodeId, [NodeId; 2]) {
        let (nics, [_, primary, mirror]) = servers::<3>();
        let program = submitter([primary, mirror], impatient(), vec![op]);
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
        sim.schedule_crash(servers[1], TimeDelta::ZERO);
        sim.schedule_timer(sw, TimeDelta::from_micros(5), program_token(WRITE_OFF));
        sim.schedule_restart(servers[1], restart);
        sim.run_until(Time::from_micros(300));
        (sim, sw, [servers[0], servers[1]])
    }

    /// The mirror of a two-server pool crashes and is written off before
    /// anything is counted, then restarts. Its probe is answered, and with
    /// no counter to write the pool makes it a mirror again at once; nobody
    /// else is asked. The first Fetch-and-Add after that reaches both
    /// replicas.
    #[test]
    fn mirror_rejoining_before_the_first_count_is_promoted_by_the_pool() {
        let (_, [ch, ..]) = servers::<1>();
        let (rkey, base) = (ch.rkey, ch.base_va);
        let count = Op::FetchAdd { va: base, add: 5 };
        let (mut sim, sw, servers) = a_mirror_back_from_a_crash(count, TimeDelta::from_micros(100));
        let pool = &sim.node::<SwitchNode>(sw).program::<Submitter>().pool;
        assert_eq!([pool.health(0), pool.health(1)], [Health::Healthy; 2]);
        let stats = pool.stats();
        assert_eq!(
            (stats.probes, stats.rejoins, stats.delta_replayed),
            (1, 1, 0)
        );

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
                .unwrap()
                .read(base, 8)
                .unwrap();
            assert_eq!(counter, 5u64.to_be_bytes());
        }
    }

    /// The mirror restarts while the first probe's connect is out (it went
    /// out at 205 us to a server still down). The restart's NAK refuses
    /// that reconnect, which proves the server up: the pool reconnects at
    /// once and takes it back, without waiting 200 us for the next probe.
    #[test]
    fn a_refused_reconnect_is_sent_again_at_once() {
        let (_, [ch, ..]) = servers::<1>();
        let count = Op::FetchAdd {
            va: ch.base_va,
            add: 5,
        };
        let restart = TimeDelta::from_micros(207);
        let (sim, sw, _) = a_mirror_back_from_a_crash(count, restart);
        let pool = &sim.node::<SwitchNode>(sw).program::<Submitter>().pool;
        assert_eq!([pool.health(0), pool.health(1)], [Health::Healthy; 2]);
        let stats = pool.stats();
        assert_eq!((stats.probes, stats.rejoins), (2, 1), "{stats}");
    }

    /// A server taken back is written off by the same rule as any other:
    /// the mirror rejoins after its crash, crashes again, and leaves the
    /// catch-up WRITE of the next count unanswered. Its channel fails on
    /// its second silent round and the mirror is Down; the primary serves
    /// on.
    #[test]
    fn a_rejoined_server_whose_channel_fails_again_is_down() {
        let (_, [ch, ..]) = servers::<1>();
        let count = Op::FetchAdd {
            va: ch.base_va,
            add: 5,
        };
        let (mut sim, sw, [_, mirror]) =
            a_mirror_back_from_a_crash(count, TimeDelta::from_micros(100));
        let pool = &sim.node::<SwitchNode>(sw).program::<Submitter>().pool;
        assert_eq!((pool.health(1), pool.stats().rejoins), (Health::Healthy, 1));

        sim.schedule_crash(mirror, TimeDelta::ZERO);
        sim.schedule_timer(sw, TimeDelta::ZERO, program_token(SUBMIT));
        // The catch-up WRITE goes out at 320 us and times out at 330 us
        // and 350 us; the next probe would be due 200 us later.
        sim.schedule_timer(sw, TimeDelta::from_micros(20), program_token(SYNC));
        sim.run_until(Time::from_micros(400));
        let pool = &sim.node::<SwitchNode>(sw).program::<Submitter>().pool;
        assert_eq!(
            [pool.health(0), pool.health(1)],
            [Health::Healthy, Health::Down]
        );
        let stats = pool.stats();
        assert_eq!((stats.unavailable, stats.failovers), (1, 0), "{stats}");
        assert_eq!(pool.channel_stats().timeouts, 1);
        assert_eq!(pool.server_port(), PortId(1));
    }

    /// One step of a [`Driven`] program: what it does to the pool when its
    /// program timer fires.
    type Step = Box<dyn FnMut(&mut ReplicatedPool, &mut SwitchCtx<'_, '_, '_>) + Send>;

    /// Owns a pool; program timer `t` runs `steps[t]` on it. Feeds every
    /// response to the pool, except the atomic acknowledgement `eat` names
    /// by its PSN, which it loses once.
    struct Driven {
        pool: ReplicatedPool,
        steps: Vec<Step>,
        eat: Option<u32>,
        events: Vec<ChannelEvent>,
    }

    impl PipelineProgram for Driven {
        fn ingress(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, port: PortId, pkt: Packet) {
            let roce = RocePacket::parse(&pkt).unwrap().unwrap();
            let atomic_ack = roce.bth.opcode == Opcode::AtomicAcknowledge;
            if atomic_ack && self.eat == Some(roce.bth.psn) {
                self.eat = None;
                return;
            }
            assert!(self.pool.on_roce(ctx, port, &roce, &mut self.events));
        }

        fn on_timer(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, token: u64) {
            match self.steps.get_mut(token as usize) {
                Some(step) => step(&mut self.pool, ctx),
                None => assert!(self.pool.on_timer(ctx, token, &mut self.events)),
            }
        }
    }

    /// A step that submits `ops` as caller ops, under cookies from 10.
    fn submit(ops: Vec<Op>) -> Step {
        Box::new(move |pool, ctx| {
            for (i, op) in ops.iter().enumerate() {
                assert!(pool.submit(ctx, op.clone(), 10 + i as u64));
            }
        })
    }

    /// A step that runs the anti-entropy flush.
    fn flush() -> Step {
        Box::new(|pool, ctx| pool.sync_mirrors(ctx))
    }

    /// A primary on switch port 1 and a recorded mirror on port 2 (port 0
    /// leads to a black hole) under `steps`, each run at its time in us;
    /// the primary's word at `va` starts as `preset`. Runs to `until` us
    /// and returns the simulation, the switch, the two servers and the
    /// region key.
    fn primary_and_mirror(
        steps: Vec<(u64, Step)>,
        eat: Option<u32>,
        preset: (u64, u64),
        until: u64,
    ) -> (extmem_sim::Simulator, NodeId, [NodeId; 2], Rkey) {
        let (mut nics, [_, primary, mirror]) = servers::<3>();
        let rkey = primary.rkey;
        let (va, value) = preset;
        nics[1]
            .region_mut(rkey)
            .unwrap()
            .write(va, &value.to_be_bytes())
            .unwrap();
        let rc = ReliableConfig::default();
        let channels = [primary, mirror].map(|ch| ReliableChannel::new(ch, rc));
        let (times, steps): (Vec<u64>, Vec<Step>) = steps.into_iter().unzip();
        let program = Driven {
            pool: ReplicatedPool::new(channels.into(), PoolConfig::default()),
            steps,
            eat,
            events: Vec::new(),
        };
        let mut servers = Vec::new();
        let (mut sim, sw, _) = behind_blackhole(program, |b, sw| {
            let [_unplugged, primary, nic] = nics;
            servers.push(b.add_node(Box::new(primary)));
            let frames = Vec::new();
            servers.push(b.add_node(Box::new(Tap { nic, frames })));
            for (i, &server) in servers.iter().enumerate() {
                let port = PortId(1 + i as u16);
                b.connect(sw, port, server, PortId(0), LinkSpec::testbed_40g());
            }
        });
        for (t, at) in times.into_iter().enumerate() {
            sim.schedule_timer(sw, TimeDelta::from_micros(at), program_token(t as u64));
        }
        sim.run_until(Time::from_micros(until));
        (sim, sw, [servers[0], servers[1]], rkey)
    }

    /// The first `words` counters of the primary's and the mirror's
    /// regions, as [`primary_and_mirror`] built them.
    fn both_regions(
        sim: &extmem_sim::Simulator,
        [primary, mirror]: [NodeId; 2],
        rkey: Rkey,
        words: u64,
    ) -> [Vec<u8>; 2] {
        let regions = [
            sim.node::<RnicNode>(primary).region(rkey).unwrap(),
            sim.node::<Tap>(mirror).nic.region(rkey).unwrap(),
        ];
        regions.map(|r| r.read(r.base_va(), 8 * words).unwrap().to_vec())
    }

    /// Every request the mirror received, parsed.
    fn mirror_requests(sim: &extmem_sim::Simulator, mirror: NodeId) -> Vec<RocePacket> {
        let frames = &sim.node::<Tap>(mirror).frames;
        frames
            .iter()
            .map(|f| RocePacket::parse(f).unwrap().unwrap())
            .collect()
    }

    /// Every WRITE the mirror received, as (offset from `base`, ACK asked,
    /// body).
    fn mirror_writes(
        sim: &extmem_sim::Simulator,
        mirror: NodeId,
        base: u64,
    ) -> Vec<(u64, bool, Vec<u8>)> {
        let sent = mirror_requests(sim, mirror);
        (sent.iter())
            .map(|p| {
                let RoceExt::Reth(reth) = p.ext else {
                    panic!("not a WRITE: {p:?}");
                };
                assert_eq!(p.bth.opcode, Opcode::WriteOnly);
                (reth.va - base, p.bth.ack_req, p.payload.to_vec())
            })
            .collect()
    }

    /// The WRITE of `values` from slot `slot`, as [`mirror_writes`] reads it.
    fn write_of(slot: u64, ack: bool, values: &[u64]) -> (u64, bool, Vec<u8>) {
        let bytes = values.iter().flat_map(|v| v.to_be_bytes()).collect();
        (8 * slot, ack, bytes)
    }

    /// Counts at the primary, completed with their own acknowledgements,
    /// reach the mirror as the primary's values: one WRITE per dirty word
    /// (no two of them are neighbours), in ascending address, the last
    /// alone asking for an ACK. The primary's first word started at 100 and
    /// the mirror's at 0, so only a value, not a replayed add, makes the two
    /// regions equal.
    #[test]
    fn a_flush_writes_each_dirty_word_the_primary_value_with_one_ack() {
        let (_, [ch, ..]) = servers::<1>();
        let base = ch.base_va;
        let count = |slot: u64, add: u64| Op::FetchAdd {
            va: base + 8 * slot,
            add,
        };
        let ops = vec![count(0, 1), count(2, 2), count(0, 3), count(4, 4)];
        let steps = vec![(0, submit(ops)), (20, flush())];
        let (sim, sw, servers, rkey) = primary_and_mirror(steps, None, (base, 100), 60);

        let pool = &sim.node::<SwitchNode>(sw).program::<Driven>().pool;
        assert!(pool.is_synced());
        assert_eq!(pool.stats().delta_replayed, 3);
        let want = [
            write_of(0, false, &[104]),
            write_of(2, false, &[2]),
            write_of(4, true, &[4]),
        ];
        assert_eq!(mirror_writes(&sim, servers[1], base), want);
        let [primary, mirror] = both_regions(&sim, servers, rkey, 5);
        assert_eq!(mirror, primary);
    }

    /// Dirty words at consecutive addresses go out as one WRITE, their
    /// values in address order, and a word that is kept but clean ends a
    /// run: after a flush of slots 0..5, counts on every slot but 2 are
    /// written as two runs, not one WRITE over the clean slot.
    #[test]
    fn a_run_never_spans_a_clean_word() {
        let (_, [ch, ..]) = servers::<1>();
        let base = ch.base_va;
        let count = |slot: u64| Op::FetchAdd {
            va: base + 8 * slot,
            add: slot + 1,
        };
        let first = (0..5).map(count).collect();
        let again = [0, 1, 3, 4].map(count).into();
        let steps = vec![
            (0, submit(first)),
            (10, flush()),
            (20, submit(again)),
            (30, flush()),
        ];
        let (sim, sw, servers, rkey) = primary_and_mirror(steps, None, (base, 0), 60);

        let pool = &sim.node::<SwitchNode>(sw).program::<Driven>().pool;
        assert!(pool.is_synced());
        assert_eq!(pool.stats().delta_replayed, 9);
        let want = [
            write_of(0, true, &[1, 2, 3, 4, 5]),
            write_of(0, false, &[2, 4]),
            write_of(3, true, &[8, 10]),
        ];
        assert_eq!(mirror_writes(&sim, servers[1], base), want);
        let [primary, mirror] = both_regions(&sim, servers, rkey, 5);
        assert_eq!(mirror, primary);
    }

    /// A run longer than the MTU holds splits at it: 300 consecutive dirty
    /// words go out as a WRITE of 256 and one of the 44 after them.
    #[test]
    fn a_run_longer_than_the_mtu_splits() {
        const WORDS: u64 = 300;
        let (_, [ch, ..]) = servers::<1>();
        let base = ch.base_va;
        let ops = (0..WORDS)
            .map(|slot| Op::FetchAdd {
                va: base + 8 * slot,
                add: slot + 1,
            })
            .collect();
        let steps = vec![(0, submit(ops)), (1000, flush())];
        let (sim, sw, servers, rkey) = primary_and_mirror(steps, None, (base, 0), 2000);

        let pool = &sim.node::<SwitchNode>(sw).program::<Driven>().pool;
        assert!(pool.is_synced());
        assert_eq!(pool.stats().delta_replayed, WORDS);
        let values: Vec<u64> = (1..=WORDS).collect();
        let run = MTU / 8;
        let want = [
            write_of(0, false, &values[..run]),
            write_of(run as u64, true, &values[run..]),
        ];
        assert_eq!(mirror_writes(&sim, servers[1], base), want);
        assert_eq!(want[0].2.len(), MTU);
        let [primary, mirror] = both_regions(&sim, servers, rkey, WORDS);
        assert_eq!(mirror, primary);
    }

    /// The atomic acknowledgement of the first of three counts is lost; the
    /// second, on the same word, and the third overtake it and are held.
    /// The second's answer re-sends the first at once, with no timeout,
    /// and that re-send's answer completes all three, in order, each with
    /// its own value. Completed the other way round, the first count's
    /// value, 5, would overwrite the second's, 12, as the word's newest.
    /// The mirror is written the values alone, and ends equal to the
    /// primary.
    #[test]
    fn a_count_whose_acknowledgement_is_lost_completes_with_its_own_value() {
        let (_, [ch, ..]) = servers::<1>();
        let base = ch.base_va;
        let count = |slot: u64, add: u64| Op::FetchAdd {
            va: base + 8 * slot,
            add,
        };
        let ops = vec![count(0, 5), count(0, 7), count(2, 9)];
        // The re-send is answered within a round trip, long before the
        // flush.
        let steps = vec![(0, submit(ops)), (150, flush())];
        let (sim, sw, servers, rkey) = primary_and_mirror(steps, Some(0), (base, 0), 200);

        let program = sim.node::<SwitchNode>(sw).program::<Driven>();
        assert_eq!(program.eat, None, "the acknowledgement was lost");
        let fetched: Vec<(u64, u64)> = (program.events.iter())
            .map(|ev| match ev {
                ChannelEvent::Done {
                    cookie,
                    reply: Reply::Fetched(old),
                    ..
                } => (*cookie, *old),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(fetched, [(10, 0), (11, 5), (12, 0)]);
        let st = program.pool.channel_stats();
        assert_eq!((st.timeouts, st.retransmits, st.naks), (0, 1, 0), "{st}");
        assert!(program.pool.is_synced());
        let want = [write_of(0, false, &[12]), write_of(2, true, &[9])];
        assert_eq!(mirror_writes(&sim, servers[1], base), want);
        let [primary, mirror] = both_regions(&sim, servers, rkey, 3);
        assert_eq!(primary, [12u64, 0, 9].map(u64::to_be_bytes).concat());
        assert_eq!(mirror, primary);
    }

    /// A volley of 256 WRITEs, four channel windows' worth (every other
    /// word, so no two make a run): every sixteenth asks for an ACK, which
    /// lets the next sixteen out, so the volley drains instead of filling
    /// the window with WRITEs nothing confirms.
    #[test]
    fn a_volley_longer_than_the_window_settles() {
        const WORDS: u64 = 256;
        let (_, [ch, ..]) = servers::<1>();
        let base = ch.base_va;
        let ops = (0..WORDS)
            .map(|i| Op::FetchAdd {
                va: base + 16 * i,
                add: i + 1,
            })
            .collect();
        let steps = vec![(0, submit(ops)), (1000, flush())];
        let (sim, sw, servers, rkey) = primary_and_mirror(steps, None, (base, 0), 2000);

        let pool = &sim.node::<SwitchNode>(sw).program::<Driven>().pool;
        assert!(pool.is_synced());
        assert_eq!(pool.stats().delta_replayed, WORDS);
        let sent = mirror_writes(&sim, servers[1], base);
        assert_eq!(sent.len() as u64, WORDS);
        let asked = sent.iter().filter(|(_, ack, _)| *ack).count();
        assert_eq!(asked as u64, WORDS / ACK_EVERY as u64);
        let [primary, mirror] = both_regions(&sim, servers, rkey, 2 * WORDS);
        assert_eq!(mirror, primary);
    }

    /// A primary on switch port 1 and a mirror on port 0, behind the black
    /// hole, under `steps`, each run at its time in us; the last step
    /// writes the mirror off. Runs to `until` us and returns the simulation,
    /// the switch and the black hole.
    fn behind_a_silent_mirror(
        mut steps: Vec<(u64, Step)>,
        until: u64,
    ) -> (extmem_sim::Simulator, NodeId, NodeId) {
        let ([_, nic, _], [mirror, primary, _]) = servers::<3>();
        let write_off: Step = Box::new(|pool, ctx| {
            let mut raw = Vec::new();
            pool.servers[1].channel.fail(ctx, &mut raw);
            pool.absorb(ctx, 1, &mut raw, &mut Vec::new());
        });
        steps.push((until - 1, write_off));
        let (times, steps): (Vec<u64>, Vec<Step>) = steps.into_iter().unzip();
        let rc = ReliableConfig::default();
        let channels = [primary, mirror].map(|ch| ReliableChannel::new(ch, rc));
        let program = Driven {
            pool: ReplicatedPool::new(channels.into(), PoolConfig::default()),
            steps,
            eat: None,
            events: Vec::new(),
        };
        let (mut sim, sw, hole) = behind_blackhole(program, |b, sw| {
            let server = b.add_node(Box::new(nic));
            b.connect(sw, PortId(1), server, PortId(0), LinkSpec::testbed_40g());
        });
        for (t, at) in times.into_iter().enumerate() {
            sim.schedule_timer(sw, TimeDelta::from_micros(at), program_token(t as u64));
        }
        sim.run_until(Time::from_micros(until));
        (sim, sw, hole)
    }

    /// Value WRITEs to a mirror that goes silent come back failed and
    /// leave their words dirty, next to the words counted since: the next
    /// catch-up writes each once, with the newest value kept for it.
    #[test]
    fn a_failed_value_write_is_owed_again_under_what_came_since() {
        let (_, [ch, ..]) = servers::<1>();
        let base = ch.base_va;
        let count = |slot: u64, add: u64| Op::FetchAdd {
            va: base + 8 * slot,
            add,
        };
        let steps = vec![
            // WRITEs of 5, 7 and 2, then of 8 to word 0; a count on word
            // 4 since makes it 3.
            (0, submit(vec![count(0, 5), count(2, 7), count(4, 2)])),
            (10, flush()),
            (11, submit(vec![count(0, 3)])),
            (20, flush()),
            (21, submit(vec![count(4, 1)])),
        ];
        let (sim, sw, hole) = behind_a_silent_mirror(steps, 31);

        assert_eq!(sim.node::<Blackhole>(hole).frames.len(), 4);
        let pool = &sim.node::<SwitchNode>(sw).program::<Driven>().pool;
        assert_eq!(pool.health(1), Health::Down);
        let words = [base, base + 16, base + 32];
        assert_eq!(pool.servers[1].dirty, words);
        let known: Vec<(u64, u64)> = pool.known.iter().map(|(&va, &v)| (va, v)).collect();
        assert_eq!(known, [(base, 8), (base + 16, 7), (base + 32, 3)]);
        assert!(!pool.is_synced());
    }

    /// A run's WRITE that fails leaves every word it carried dirty: three
    /// neighbours and a fourth word go out as two WRITEs into the silence,
    /// and all four words are owed again.
    #[test]
    fn a_failed_run_makes_each_of_its_words_dirty_again() {
        let (_, [ch, ..]) = servers::<1>();
        let base = ch.base_va;
        let count = |slot: u64| Op::FetchAdd {
            va: base + 8 * slot,
            add: slot + 1,
        };
        let ops = [0, 1, 2, 5].map(count).into();
        let steps = vec![(0, submit(ops)), (10, flush())];
        let (sim, sw, hole) = behind_a_silent_mirror(steps, 21);

        assert_eq!(sim.node::<Blackhole>(hole).frames.len(), 2);
        let pool = &sim.node::<SwitchNode>(sw).program::<Driven>().pool;
        assert_eq!(pool.health(1), Health::Down);
        let words = [0, 1, 2, 5].map(|slot| base + 8 * slot);
        assert_eq!(pool.servers[1].dirty, words);
        assert!(!pool.is_synced());
    }

    /// A mirror that is written off while it stays up still expects the
    /// PSN it was at. The probe is a connect at the channel's own next PSN,
    /// past every PSN the written-off channel used: the live QP re-anchors
    /// there and acknowledges it, and the rejoin's catch-up WRITEs behind it
    /// execute, so the mirror comes back Healthy with the true count, not
    /// stale.
    #[test]
    fn a_mirror_written_off_while_up_is_never_taken_back_stale() {
        let (_, [ch, ..]) = servers::<1>();
        let base = ch.base_va;
        let count = |add: u64| submit(vec![Op::FetchAdd { va: base, add }]);
        let write_off: Step = Box::new(|pool, ctx| {
            let mut raw = Vec::new();
            pool.servers[1].channel.fail(ctx, &mut raw);
            pool.absorb(ctx, 1, &mut raw, &mut Vec::new());
        });
        let steps = vec![
            (0, count(5)),
            (20, flush()),
            (40, write_off),
            (60, count(7)),
            (80, flush()),
        ];
        let (sim, sw, servers, rkey) = primary_and_mirror(steps, None, (base, 0), 3000);

        let pool = &sim.node::<SwitchNode>(sw).program::<Driven>().pool;
        let stats = pool.stats();
        let back = (pool.health(1), stats.probes, stats.rejoins);
        assert_eq!(back, (Health::Healthy, 1, 1), "{stats}");
        assert!(pool.is_synced());
        let [primary, mirror] = both_regions(&sim, servers, rkey, 1);
        assert_eq!(
            [primary, mirror],
            [12u64, 12].map(|v| v.to_be_bytes().to_vec())
        );
    }

    /// A server's port names its channel's timer: two servers on one port
    /// would arm the same token, so the pool refuses them.
    #[test]
    #[should_panic(expected = "distinct ports")]
    fn servers_sharing_a_port_are_refused() {
        use extmem_rnic::requester::RequesterQp;
        use extmem_types::QpNum;
        let channel = || {
            unplugged(
                RequesterQp::new(endpoint(1), endpoint(2), QpNum(0x100)),
                Rkey(1),
                0x1000,
                64,
                PortId(3),
            )
        };
        let rc = ReliableConfig::default();
        let channels = vec![
            ReliableChannel::new(channel(), rc),
            ReliableChannel::new(channel(), rc),
        ];
        ReplicatedPool::new(channels, PoolConfig::default());
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
