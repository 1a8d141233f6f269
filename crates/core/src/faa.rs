//! The Fetch-and-Add engine behind each shard of the state-store program
//! ([`crate::shard::ShardedStateStoreProgram`]).
//!
//! §4: "Since there is a maximum limit of outstanding RDMA atomic requests
//! that an RNIC can handle, we design this primitive to maintain the number
//! of outstanding requests and issue a Fetch-and-Add request only if there
//! is a room to issue more requests. Otherwise, it accumulates the counter
//! value and uses the accumulated value when it can issue a new operation."
//!
//! Extensions beyond the paper's prototype, both flagged as §7 future work
//! and implemented here as config options (ablation experiment A2):
//!
//! * **Batching** (`min_batch`): hold updates until a slot has accumulated
//!   at least `min_batch`, trading update delay for bandwidth — "combine
//!   multiple counter updates into a single operation, at the cost of some
//!   delay in updates".
//! * **Reliability** (`reliable`): issue through a [`ReliableChannel`] in
//!   reliable mode, making the remote counters exact even over a lossy
//!   channel — "implement parsing and handling of RDMA ACKs/NACKs to make
//!   certain remote memory reliable, e.g., in the remote counter case".
//!   Past the channel's retry cap the engine degrades gracefully: it keeps
//!   accumulating locally, so no update is ever silently dropped.
//!
//! The engine's own state is what has *not* been sent (`pending`). A value
//! in flight lives in its op, in the channel that may have to send it
//! again; an abandoned op comes back in `OpFailed` and its value goes back
//! to `pending`.

use crate::channel::{
    ChannelEvent, ChannelStats, Op, RdmaChannel, ReliableChannel, ReliableConfig, MAX_RETRIES,
};
use crate::pool::{PoolConfig, PoolStats, ReplicatedPool};
use extmem_switch::SwitchCtx;
use extmem_types::{IntMap, IntSet, PortId, TimeDelta};
use extmem_wire::roce::RocePacket;
use std::collections::VecDeque;

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct FaaConfig {
    /// Maximum Fetch-and-Adds in flight (the switch-side bound that keeps
    /// the RNIC's own atomic limit from being hit).
    pub max_outstanding: usize,
    /// Minimum accumulated value before a slot is eligible to issue
    /// (1 = paper behaviour; >1 = §7 batching extension).
    pub min_batch: u64,
    /// Track and retransmit lost requests (§7 reliability extension).
    pub reliable: bool,
    /// Retransmit timeout (reliable) / age-out horizon (best-effort),
    /// checked on [`FaaEngine::tick`].
    pub rto: TimeDelta,
}

impl Default for FaaConfig {
    fn default() -> Self {
        FaaConfig {
            max_outstanding: 8,
            min_batch: 1,
            reliable: false,
            rto: TimeDelta::from_micros(100),
        }
    }
}

/// Engine counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaaStats {
    /// Logical updates requested by the program.
    pub updates: u64,
    /// Fetch-and-Add requests put on the wire: first sends, re-sends and
    /// reissues on a promoted mirror. A replicated pool's catch-up WRITEs
    /// and reconnects are not among them.
    pub faa_sent: u64,
    /// Updates merged into a pending accumulator instead of sent
    /// immediately.
    pub merged: u64,
    /// Updates given up without their own answer (best-effort mode: aged
    /// out). An upper bound on the remote counters' undercount: the UC
    /// responder ran an add whose answer alone was lost.
    pub lost_updates: u64,
    /// High-water mark of slots with pending accumulation.
    pub max_pending_slots: u64,
    /// Reliability-layer counters for the underlying channel(s), merged
    /// across the pool.
    pub channel: ChannelStats,
    /// Replication-layer counters (`servers = 1` for a single-server
    /// engine, which never fails over).
    pub pool: PoolStats,
}

/// The Fetch-and-Add issuing engine, over a [`ReplicatedPool`] of one
/// server or more (a replicated engine's mirrors catch up through the
/// pool's WRITEs of the counted words' values).
#[derive(Debug)]
pub struct FaaEngine {
    pool: ReplicatedPool,
    config: FaaConfig,
    next_cookie: u64,
    /// Accumulated-but-unsent values per slot.
    pending: IntMap<u64, u64>,
    /// Slots whose pending value has reached `min_batch`, FIFO.
    ready: VecDeque<u64>,
    /// Membership guard for `ready` (keeps periodic flushes from growing
    /// the queue without bound while the outstanding window is full).
    ready_set: IntSet<u64>,
    /// Completion scratch, reused across calls.
    events: Vec<ChannelEvent>,
    stats: FaaStats,
}

impl FaaEngine {
    /// Create an engine over `channel`. The channel's region is an array of
    /// 64-bit counters; `slot` arguments index into it.
    pub fn new(channel: RdmaChannel, config: FaaConfig) -> FaaEngine {
        assert!(
            config.max_outstanding > 0,
            "need at least one outstanding slot"
        );
        assert!(config.min_batch > 0, "min_batch must be positive");
        let rc = if config.reliable {
            ReliableConfig {
                rto: config.rto,
                ..Default::default()
            }
        } else {
            ReliableConfig::best_effort(config.rto)
        };
        let lone = PoolConfig {
            down_threshold: MAX_RETRIES + 1,
            ..PoolConfig::default()
        };
        let pool = ReplicatedPool::new(vec![ReliableChannel::new(channel, rc)], lone);
        Self::over_pool(pool, config)
    }

    /// Create an engine over a replicated pool of `channels` (one per
    /// memory server; index 0 starts as primary). Requires reliable mode —
    /// mirror reconciliation is meaningless over a best-effort channel.
    pub fn replicated(
        channels: Vec<RdmaChannel>,
        config: FaaConfig,
        pool_config: PoolConfig,
    ) -> FaaEngine {
        assert!(
            config.reliable,
            "replicated engines require reliable mode (mirrors are \
             written the value each Fetch-and-Add completes with)"
        );
        let rc = ReliableConfig {
            rto: config.rto,
            ..Default::default()
        };
        let pool = ReplicatedPool::new(
            channels
                .into_iter()
                .map(|ch| ReliableChannel::new(ch, rc))
                .collect(),
            pool_config,
        );
        Self::over_pool(pool, config)
    }

    fn over_pool(pool: ReplicatedPool, config: FaaConfig) -> FaaEngine {
        FaaEngine {
            pool,
            config,
            next_cookie: 0,
            pending: IntMap::default(),
            ready: VecDeque::new(),
            ready_set: IntSet::default(),
            events: Vec::new(),
            stats: FaaStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> FaaStats {
        let ch = self.pool.channel_stats();
        FaaStats {
            faa_sent: ch.faa_sent,
            channel: ch,
            pool: self.pool.stats(),
            ..self.stats
        }
    }

    /// The switch port of the (current primary) memory server.
    pub fn server_port(&self) -> PortId {
        self.pool.server_port()
    }

    /// Whether `port` belongs to any memory server in this engine's pool.
    pub fn owns_port(&self, port: PortId) -> bool {
        self.pool.owns_port(port)
    }

    /// The replication pool underneath (health/failover inspection).
    pub fn pool(&self) -> &ReplicatedPool {
        &self.pool
    }

    /// The number of counter slots the region holds.
    pub fn slots(&self) -> u64 {
        self.pool.region_len() / 8
    }

    /// Whether every server is unreachable (single-server: retry cap
    /// exhausted) and the engine is accumulating locally only, until the
    /// pool reconnects one.
    pub fn is_degraded(&self) -> bool {
        self.pool.is_failed()
    }

    /// Sum (wrapping, i.e. modulo 2^64, as NIC Fetch-and-Add adds) of
    /// values accumulated locally and not yet sent.
    pub fn pending_sum(&self) -> u64 {
        self.pending.values().fold(0u64, |a, &v| a.wrapping_add(v))
    }

    /// Sum (wrapping) of values sent but not yet acknowledged. An
    /// outstanding value may or may not have executed remotely yet — that
    /// ambiguity is resolved only by its ACK.
    ///
    /// The engine keeps no record of these: they are the ops the pool's
    /// primary channel holds for it, every one a Fetch-and-Add.
    pub fn outstanding_sum(&self) -> u64 {
        self.pool.caller_ops().fold(0u64, |a, (_, op)| match op {
            Op::FetchAdd { add, .. } => a.wrapping_add(*add),
            _ => a,
        })
    }

    /// [`FaaEngine::pending_sum`] plus [`FaaEngine::outstanding_sum`]: every
    /// update not yet *settled*. The conservation invariants on a loss-free
    /// channel (property-tested):
    ///
    /// * `remote + pending_sum() <= truth` — executed plus never-sent can
    ///   never exceed the ground truth,
    /// * `truth <= remote + in_transit()` — nothing vanishes (an
    ///   outstanding value may be double-counted with `remote` during its
    ///   execute→ACK window, which is why this is an inequality),
    /// * at quiescence, `remote == truth` exactly.
    pub fn in_transit(&self) -> u64 {
        self.pending_sum().wrapping_add(self.outstanding_sum())
    }

    /// Whether everything has been flushed and acknowledged.
    pub fn is_quiescent(&self) -> bool {
        self.pending.is_empty() && self.pool.caller_ops().next().is_none()
    }

    /// Record a logical `+value` on `slot` and issue what the window allows.
    pub fn add(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, slot: u64, value: u64) {
        assert!(slot < self.slots(), "slot out of range");
        self.stats.updates += 1;
        let entry = self.pending.entry(slot).or_insert(0);
        let was_below = *entry < self.config.min_batch;
        if *entry > 0 {
            self.stats.merged += 1;
        }
        // Wrapping: a NIC Fetch-and-Add adds modulo 2^64, and so does the
        // local accumulation that stands in for it.
        *entry = entry.wrapping_add(value);
        if was_below && *entry >= self.config.min_batch && self.ready_set.insert(slot) {
            self.ready.push_back(slot);
        }
        self.stats.max_pending_slots = self.stats.max_pending_slots.max(self.pending.len() as u64);
        self.pump(ctx);
    }

    /// Force every accumulator to become eligible: a sub-threshold one (the
    /// batching extension's delay bound), or one a pool handed back with
    /// every server gone. Call from a periodic timer.
    pub fn flush(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>) {
        for (&slot, &v) in self.pending.iter() {
            if v > 0 && self.ready_set.insert(slot) {
                self.ready.push_back(slot);
            }
        }
        self.pump(ctx);
    }

    /// Periodic maintenance: re-issue anything the window now has room for
    /// and write the mirrors their dirty words (anti-entropy, replicated
    /// pools). The channel's retransmission/age-out deadline runs on its
    /// own cancellable timer (see [`FaaEngine::on_timer`]).
    pub fn tick(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>) {
        self.pump(ctx);
        self.pool.sync_mirrors(ctx);
    }

    /// Feed a timer expiration. Returns `true` if `token` was one of the
    /// pool's (a channel's retransmission deadline or the probe timer).
    pub fn on_timer(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, token: u64) -> bool {
        let mut events = std::mem::take(&mut self.events);
        let consumed = self.pool.on_timer(ctx, token, &mut events);
        self.consume_events(&mut events);
        self.events = events;
        if consumed {
            self.pump(ctx);
        }
        consumed
    }

    /// Issue ready slots while the outstanding window has room.
    fn pump(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>) {
        while !self.pool.is_failed() && self.pool.outstanding_len() < self.config.max_outstanding {
            let Some(slot) = self.ready.pop_front() else {
                break;
            };
            self.ready_set.remove(&slot);
            let Some(value) = self.pending.remove(&slot) else {
                continue;
            };
            if value == 0 {
                continue;
            }
            let va = self.pool.base_va() + slot * 8;
            let cookie = self.next_cookie;
            self.next_cookie += 1;
            let op = Op::FetchAdd { va, add: value };
            let accepted = self.pool.submit(ctx, op, cookie);
            debug_assert!(accepted, "the loop guard saw a live pool");
        }
    }

    fn consume_events(&mut self, events: &mut Vec<ChannelEvent>) {
        for ev in events.drain(..) {
            // A completion settles its value and the op goes with the
            // event; only an abandoned Fetch-and-Add has anything to give
            // back, and it brings its own `(va, add)`.
            let ChannelEvent::OpFailed {
                op: Op::FetchAdd { va, add },
                ..
            } = ev
            else {
                continue;
            };
            if self.config.reliable {
                // Every server is gone: keep accumulating locally — the
                // update is preserved in `pending`, never silently lost, and
                // the next flush after a server is back issues it.
                let slot = (va - self.pool.base_va()) / 8;
                let e = self.pending.entry(slot).or_insert(0);
                *e = e.wrapping_add(add);
            } else {
                // Best effort: the remote counter undercounts.
                self.stats.lost_updates = self.stats.lost_updates.wrapping_add(add);
            }
        }
    }

    /// Feed a RoCE packet that arrived on `in_port`. Returns `true` if it
    /// was consumed (an ACK or NAK for one of this engine's servers).
    pub fn on_roce(
        &mut self,
        ctx: &mut SwitchCtx<'_, '_, '_>,
        in_port: PortId,
        roce: &RocePacket,
    ) -> bool {
        let mut events = std::mem::take(&mut self.events);
        let consumed = self.pool.on_roce(ctx, in_port, roce, &mut events);
        self.consume_events(&mut events);
        self.events = events;
        if consumed {
            self.pump(ctx);
        }
        consumed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // FaaEngine's behaviour with a real responder is covered by the
    // state-store program tests and the integration suite; these unit tests
    // cover the accumulator logic that needs no simulator.

    use crate::channel::tests::unplugged;
    use crate::channel::RdmaChannel;
    use extmem_rnic::requester::RequesterQp;
    use extmem_types::{PortId, QpNum, Rkey};
    use extmem_wire::roce::RoceEndpoint;
    use extmem_wire::MacAddr;

    fn dummy_channel(slots: u64) -> RdmaChannel {
        let a = RoceEndpoint {
            mac: MacAddr::local(1),
            ip: 1,
        };
        let b = RoceEndpoint {
            mac: MacAddr::local(2),
            ip: 2,
        };
        unplugged(
            RequesterQp::new(a, b, QpNum(0x100)),
            Rkey(1),
            0x1000,
            slots * 8,
            PortId(0),
        )
    }

    /// Owns a replicated engine whose servers never answer; issues four
    /// Fetch-and-Adds when poked and notes `outstanding_sum()` right after
    /// and again once the first server has been given up on.
    struct Adder {
        engine: FaaEngine,
        outstanding: Vec<u64>,
    }

    const ADD: u64 = 1;
    const LOOK: u64 = 2;
    const VALUES: [u64; 4] = [5, u64::MAX, 1 << 40, 9];

    impl extmem_switch::PipelineProgram for Adder {
        fn ingress(&mut self, _: &mut SwitchCtx<'_, '_, '_>, _: PortId, _: extmem_wire::Packet) {}

        fn on_timer(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, token: u64) {
            match token {
                ADD => {
                    for (slot, value) in VALUES.into_iter().enumerate() {
                        self.engine.add(ctx, slot as u64, value);
                    }
                }
                LOOK => {}
                _ => {
                    assert!(self.engine.on_timer(ctx, token));
                    return;
                }
            }
            self.outstanding.push(self.engine.outstanding_sum());
        }
    }

    /// The engine keeps no record of what it has in flight; the values are
    /// in the ops. They follow the ops to the second server when the first
    /// is written off, and come back in `OpFailed` when the second is too.
    #[test]
    fn in_flight_values_come_back_with_their_ops() {
        use crate::channel::tests::{behind_blackhole, Blackhole};
        use extmem_sim::LinkSpec;
        use extmem_switch::switch::program_token;
        use extmem_switch::SwitchNode;
        use extmem_types::Time;

        let config = FaaConfig {
            max_outstanding: VALUES.len(),
            reliable: true,
            rto: TimeDelta::from_micros(10),
            ..FaaConfig::default()
        };
        // The primary sits behind the black hole on port 0, the mirror
        // behind a second one on port 1.
        let mut mirror = dummy_channel(16);
        mirror.server_port = PortId(1);
        let channels = vec![dummy_channel(16), mirror];
        let engine = FaaEngine::replicated(channels, config, PoolConfig::default());
        let program = Adder {
            engine,
            outstanding: Vec::new(),
        };
        let (mut sim, sw, _) = behind_blackhole(program, |b, sw| {
            let hole = b.add_node(Box::new(Blackhole::default()));
            b.connect(sw, PortId(1), hole, PortId(0), LinkSpec::testbed_40g());
        });
        // Three silent rounds (10, 30, 70 us) write the primary off and the
        // ops go to the mirror; three more (80, 100, 140 us) and the pool
        // has nobody left.
        sim.schedule_timer(sw, TimeDelta::ZERO, program_token(ADD));
        sim.schedule_timer(sw, TimeDelta::from_micros(75), program_token(LOOK));
        sim.run_until(Time::from_micros(150));

        let program = sim.node::<SwitchNode>(sw).program::<Adder>();
        let sum = VALUES.iter().fold(0u64, |a, &v| a.wrapping_add(v));
        assert_eq!(program.outstanding, [sum, sum]);
        let engine = &program.engine;
        assert_eq!(engine.stats().pool.reissued_ops, VALUES.len() as u64);
        assert!(engine.is_degraded() && !engine.is_quiescent());
        assert_eq!((engine.outstanding_sum(), engine.pending_sum()), (0, sum));
    }

    #[test]
    fn slots_and_quiescence() {
        let e = FaaEngine::new(dummy_channel(16), FaaConfig::default());
        assert_eq!(e.slots(), 16);
        assert!(e.is_quiescent());
        assert_eq!(e.in_transit(), 0);
        assert!(!e.is_degraded());
    }

    #[test]
    #[should_panic(expected = "min_batch must be positive")]
    fn zero_batch_rejected() {
        FaaEngine::new(
            dummy_channel(1),
            FaaConfig {
                min_batch: 0,
                ..Default::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "at least one outstanding")]
    fn zero_window_rejected() {
        FaaEngine::new(
            dummy_channel(1),
            FaaConfig {
                max_outstanding: 0,
                ..Default::default()
            },
        );
    }
}
