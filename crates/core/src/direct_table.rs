//! The paper's **lookup-table primitive** (§4): extend exact-match tables
//! into remote DRAM, one slot per flow hash.
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
//! Colliding flows alias: they share the slot's action, which the control
//! plane must manage by sizing the table. [`crate::lookup`] holds the
//! one-RTT table that resolves them, and the pieces the two tables share.
//!
//! [`DirectTableProgram::with_recirculation`] switches the miss path to the
//! §7 alternative: "recirculate the original packet locally and wait for
//! the pulled entry, instead of depositing the original packet. This can
//! save the bandwidth overhead to the remote memory." Only the 16-byte
//! action is READ; the packet loops through the recirculation path until
//! the response lands.

use crate::channel::{ChannelEvent, Op, RdmaChannel, ReliableConfig, Reply};
use crate::fib::Fib;
use crate::lookup::{
    flow_of, single_server_pool, ActionEntry, LookupStats, TableFront, ACTION_LEN,
};
use extmem_rnic::{RnicNode, WriteBody};
use extmem_switch::hash::flow_index;
use extmem_switch::{PipelineProgram, SwitchCtx};
use extmem_types::{FiveTuple, IntMap, PortId};
use extmem_wire::{Packet, Payload};

/// Bytes of the packet-length field following the action.
const LEN_FIELD: usize = 2;

/// Passes a looping packet's slot is allowed before its READ is declared
/// lost. At the default 800 ns recirculation latency this is ~50 µs of
/// waiting — far beyond any healthy response time.
const RECIRC_BUDGET: u32 = 64;

/// A slot that looping packets wait on: its action READ is in flight, or
/// back and `staged`.
struct Waiting {
    /// Passes taken since the READ was issued; a packet arriving past
    /// [`RECIRC_BUDGET`] is dropped (a lost READ or response must not
    /// recirculate packets forever).
    passes: u32,
    /// The response, parked until a looping packet comes around again.
    staged: Option<ActionEntry>,
}

/// The §4 lookup-table pipeline program.
pub struct DirectTableProgram {
    front: TableFront,
    entry_size: u64,
    entries: u64,
    /// §7 recirculation, by slot (responses are attributed by cookie, and
    /// the cookie is the slot). `None`: misses bounce, the §4 design.
    recirc: Option<IntMap<u64, Waiting>>,
}

impl DirectTableProgram {
    /// Create the program. `cache_capacity = Some(n)` enables an n-entry
    /// local LRU cache (§4: "the switch can (optionally) cache the table
    /// entry in local SRAM").
    pub fn new(
        fib: Fib,
        channel: RdmaChannel,
        entry_size: u64,
        cache_capacity: Option<usize>,
    ) -> DirectTableProgram {
        assert!(
            entry_size as usize > ACTION_LEN + LEN_FIELD,
            "entry too small"
        );
        let entries = channel.region_len / entry_size;
        assert!(entries > 0, "region smaller than one entry");
        DirectTableProgram {
            front: TableFront::new(fib, single_server_pool(channel), cache_capacity),
            entry_size,
            entries,
            recirc: None,
        }
    }

    /// Switch the miss path to the §7 recirculation alternative. Requires
    /// a local cache (staged actions are promoted into it).
    pub fn with_recirculation(mut self) -> DirectTableProgram {
        assert!(
            self.front.cache.is_some(),
            "recirculation needs a local cache"
        );
        self.recirc = Some(IntMap::default());
        self
    }

    /// Override the reliability policy (before traffic flows).
    pub fn with_reliability(mut self, rc: ReliableConfig) -> DirectTableProgram {
        self.front.pool.set_config(rc);
        self
    }

    /// Counters.
    pub fn stats(&self) -> LookupStats {
        self.front.stats()
    }

    /// Whether the reliability layer gave up and misses punt to the slow
    /// path.
    pub fn is_degraded(&self) -> bool {
        self.front.degraded
    }

    /// Cache hit-rate so far (0 when the cache is disabled).
    pub fn cache_hit_rate(&self) -> f64 {
        self.front.cache.as_ref().map_or(0.0, |c| c.hit_rate())
    }

    /// The remote slot a flow maps to.
    pub fn slot_of(&self, flow: &FiveTuple) -> u64 {
        flow_index(flow, self.entries)
    }

    /// Bounce `pkt` through its slot. The WRITE and READ are issued
    /// back-to-back into the FIFO channel, so the pair costs one round trip
    /// of latency.
    fn bounce(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, slot: u64, entry_va: u64, pkt: Packet) {
        self.front.stats.remote_lookups += 1;
        self.front.stats.lookup_rtts += 1;

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
        self.front.pool.submit(ctx, bounce, slot);

        // (2) READ back exactly [action][len][packet].
        self.front
            .pool
            .submit(ctx, Op::Read { va: entry_va, len }, slot);
    }

    /// Resolve a miss through the flow's remote slot: bounce the packet, or
    /// (§7) READ the action alone, once per slot, and send the packet around
    /// the recirculation path until the response is in.
    fn remote_lookup(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, flow: FiveTuple, pkt: Packet) {
        let slot = self.slot_of(&flow);
        let entry_va = self.front.pool.base_va() + slot * self.entry_size;
        let Some(waiting) = &mut self.recirc else {
            return self.bounce(ctx, slot, entry_va, pkt);
        };

        if let Some(action) = waiting.get(&slot).and_then(|w| w.staged) {
            // The response landed while we were looping.
            waiting.remove(&slot);
            self.front.cache_insert(flow, action);
            self.front.apply_and_forward(ctx, pkt, action);
            return;
        }
        if !waiting.contains_key(&slot) {
            self.front.stats.remote_lookups += 1;
            self.front.stats.action_only_reads += 1;
            self.front.stats.lookup_rtts += 1;
            let len = ACTION_LEN as u32;
            let read = Op::Read { va: entry_va, len };
            self.front.pool.submit(ctx, read, slot);
        }
        let w = waiting.entry(slot).or_insert(Waiting {
            passes: 0,
            staged: None,
        });
        w.passes += 1;
        if w.passes > RECIRC_BUDGET {
            // Drop the packet (best-effort under loss) and reset the slot,
            // so the next arrival re-issues the READ.
            waiting.remove(&slot);
            self.front.stats.recirc_budget_drops += 1;
            return;
        }
        self.front.stats.recirc_passes += 1;
        ctx.recirculate(pkt);
    }

    /// A READ's response: `[action]` for a looping packet to find, or the
    /// bounced `[action][len][packet]`.
    fn read_done(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, slot: u64, entry: &Payload) {
        let Some((action, rest)) = entry.split_first_chunk::<ACTION_LEN>() else {
            return;
        };
        let action = ActionEntry::from_bytes(action);
        if let Some(waiting) = &mut self.recirc {
            // A slot nobody waits on any more (its budget ran out) keeps
            // nothing; a second response never replaces the first.
            if let Some(w) = waiting.get_mut(&slot) {
                w.staged.get_or_insert(action);
            }
            return;
        }
        let Some((len, body)) = rest.split_first_chunk::<LEN_FIELD>() else {
            return;
        };
        let len = u16::from_be_bytes(*len) as usize;
        if len == 0 || len > body.len() {
            return;
        }
        // Zero-copy: the released packet is a window into the READ
        // response's (shared) buffer.
        let body_at = ACTION_LEN + LEN_FIELD;
        let pkt = Packet::from_payload(entry.slice(body_at..body_at + len));
        // Cache under the *returned* packet's flow (the slot owner).
        if let Some(flow) = flow_of(&pkt) {
            self.front.cache_insert(flow, action);
        }
        self.front.apply_and_forward(ctx, pkt, action);
    }

    /// Drain the completions in `front.events`.
    fn consume_events(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>) {
        let mut events = std::mem::take(&mut self.front.events);
        for ev in events.drain(..) {
            match ev {
                // A bounce WRITE's acknowledgement: nothing waits on it.
                ChannelEvent::Done {
                    reply: Reply::Ack, ..
                } => {}
                ChannelEvent::Done { cookie, reply, .. } => {
                    self.front.stats.responses += 1;
                    // Only a READ's bytes are an entry, and READs are all
                    // this table issues.
                    if let Reply::Data(entry) = reply {
                        self.read_done(ctx, cookie, &entry);
                    }
                }
                ChannelEvent::OpFailed { cookie, .. } => {
                    self.front.stats.failed_ops += 1;
                    if let Some(waiting) = &mut self.recirc {
                        // Let the next arrival for this slot re-issue (or,
                        // degraded, punt to the slow path).
                        if waiting.get(&cookie).is_some_and(|w| w.staged.is_none()) {
                            waiting.remove(&cookie);
                        }
                    }
                }
                ChannelEvent::Failed => self.front.degraded = true,
            }
        }
        self.front.events = events;
    }
}

impl PipelineProgram for DirectTableProgram {
    fn ingress(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, in_port: PortId, pkt: Packet) {
        if self.front.on_roce(ctx, in_port, &pkt) {
            self.consume_events(ctx);
        } else if let Some((flow, pkt)) = self.front.local_lookup(ctx, in_port, pkt) {
            self.remote_lookup(ctx, flow, pkt);
        }
    }

    fn on_timer(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, token: u64) {
        self.front.pool.on_timer(ctx, token, &mut self.front.events);
        self.consume_events(ctx);
    }

    fn program_name(&self) -> &str {
        "lookup-table-primitive"
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
    use crate::channel::tests::{behind_blackhole, Blackhole};
    use crate::lookup::tests::{fib, table_server, Poked, POKE};
    use extmem_switch::switch::program_token;
    use extmem_switch::SwitchNode;
    use extmem_types::{Time, TimeDelta};
    use extmem_wire::extop::EXTOP_FLAG_HIT;

    /// This table READs and WRITEs and nothing else, and names its ops by
    /// slot. A remote op's completion, or the failure of an op on a slot
    /// nobody waits on, has no way to reach it short of a bug elsewhere;
    /// if one does, it is counted and that is all — bouncing or
    /// recirculating.
    #[test]
    fn stray_completions_are_counted_and_ignored() {
        for recirculate in [false, true] {
            let (_unplugged, channel) = table_server(64 * 2048);
            let mut prog = DirectTableProgram::new(fib(), channel, 2048, Some(8));
            if recirculate {
                prog = prog.with_recirculation();
            }
            let poke = Box::new(
                |prog: &mut DirectTableProgram, ctx: &mut SwitchCtx<'_, '_, '_>| {
                    // An image that would forward a packet, were it taken for a
                    // READ's: an action, a length and that many bytes.
                    let mut image = ActionEntry::set_dscp(46).to_bytes().to_vec();
                    image.extend([0, 64]);
                    image.extend([0; 64]);
                    let op = Op::Read { va: 0, len: 82 };
                    prog.front.events.push(ChannelEvent::Done {
                        cookie: 7,
                        op: op.clone(),
                        reply: Reply::Remote {
                            flags: EXTOP_FLAG_HIT,
                            index: 0,
                            data: Payload::from_vec(image),
                        },
                    });
                    prog.front
                        .events
                        .push(ChannelEvent::OpFailed { cookie: 7, op });
                    prog.consume_events(ctx);
                },
            );
            let (mut sim, sw, hole) = behind_blackhole(Poked { prog, poke }, |_, _| {});
            sim.schedule_timer(sw, TimeDelta::ZERO, program_token(POKE));
            sim.run_until(Time::from_micros(10));

            assert_eq!(sim.node::<Blackhole>(hole).frames, []);
            let switch = sim.node::<SwitchNode>(sw);
            let prog = &switch.program::<Poked<DirectTableProgram>>().prog;
            let stats = prog.stats();
            assert_eq!((stats.responses, stats.failed_ops), (1, 1), "{stats:?}");
            assert_eq!(
                (stats.actions_applied, stats.slow_path),
                (0, 0),
                "{stats:?}"
            );
            assert!(!prog.is_degraded());
            assert!(prog
                .recirc
                .as_ref()
                .is_none_or(|waiting| waiting.is_empty()));
        }
    }
}
