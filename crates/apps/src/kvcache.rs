//! In-network key-value serving over the lookup primitive — the NetCache
//! use case the paper motivates: "this idea can benefit many other
//! on-switch applications including key-value stores (e.g., NetCache) …
//! These applications typically fall back to the software whenever the
//! memory in the data plane is insufficient for the size of their working
//! set. With the remote lookup table, however, such slow-path forwarding
//! through the software can be eliminated" (§2.2).
//!
//! Model: every key has an 8-byte value in a
//! [`extmem_core::lookup::ActionKind::KvRespond`]
//! action. GETs for hot keys are answered from the switch's SRAM cache;
//! GETs for cold keys are answered after the switch fetches the action
//! from *server DRAM via RDMA* — still with zero server-CPU involvement,
//! which is exactly what distinguishes this from NetCache's software
//! fallback.

use crate::metrics::{LatencyRecorder, LatencySummary};
use crate::scenario::{host_ip, host_mac, Built, Testbed};
use extmem_core::{ActionEntry, DirectTableProgram, LookupStats};
use extmem_rnic::{RnicConfig, RnicNode};
use extmem_sim::{LinkSpec, Node, NodeCtx, TxQueue};
use extmem_types::{ByteSize, FiveTuple, PortId, Time, TimeDelta};
use extmem_wire::payload::build_data_packet;
use extmem_wire::{MacAddr, Packet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The deterministic value stored under key `k` (lets the client verify
/// replies without carrying state).
pub fn value_of(key: u32) -> u64 {
    (key as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5bd1_e995
}

/// The flow a GET for `key` travels on (one slot per key).
pub fn key_flow(key: u32) -> FiveTuple {
    FiveTuple::new(
        host_ip(0),
        0x0a02_0000 + (key >> 8),
        10_000 + (key & 0xff) as u16,
        9_999,
        17,
    )
}

const GET_FRAME: usize = 128;
/// Offset of the stamped value in a reply frame.
const VALUE_AT: usize = 42 + 18;

/// A closed-loop KV client: keeps one GET outstanding, verifies each
/// reply's value, records latency.
pub struct KvClientNode {
    name: String,
    keys: u32,
    zipf_cdf: Vec<f64>,
    rng: StdRng,
    remaining: u64,
    in_flight_key: Option<u32>,
    seq: u32,
    tx: TxQueue,
    /// GET latency samples.
    pub latency: LatencyRecorder,
    /// Replies with the correct value.
    pub correct: u64,
    /// Replies with a wrong value (must stay 0).
    pub wrong: u64,
}

impl KvClientNode {
    /// A client issuing `count` GETs over `keys` keys with Zipf(`skew`).
    pub fn new(
        name: impl Into<String>,
        keys: u32,
        skew: f64,
        count: u64,
        seed: u64,
    ) -> KvClientNode {
        assert!(keys > 0 && count > 0);
        let weights: Vec<f64> = (1..=keys).map(|k| 1.0 / (k as f64).powf(skew)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let zipf_cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        KvClientNode {
            name: name.into(),
            keys,
            zipf_cdf,
            rng: StdRng::seed_from_u64(seed),
            remaining: count,
            in_flight_key: None,
            seq: 0,
            tx: TxQueue::new(PortId(0)),
            latency: LatencyRecorder::new(),
            correct: 0,
            wrong: 0,
        }
    }

    fn next_get(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        let u: f64 = self.rng.gen();
        let key = self
            .zipf_cdf
            .partition_point(|&c| c < u)
            .min(self.keys as usize - 1) as u32;
        self.in_flight_key = Some(key);
        let pkt = build_data_packet(
            host_mac(0),
            MacAddr::local(200), // the KV service MAC (virtual)
            key_flow(key),
            key,
            self.seq,
            ctx.now(),
            GET_FRAME,
        )
        .expect("GET encodes");
        self.seq += 1;
        self.tx.send(ctx, pkt);
    }
}

impl Node for KvClientNode {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId, packet: Packet) {
        let Some(key) = self.in_flight_key.take() else {
            return;
        };
        let b = packet.as_slice();
        if b.len() >= VALUE_AT + 8 {
            let got = u64::from_be_bytes(b[VALUE_AT..VALUE_AT + 8].try_into().unwrap());
            if got == value_of(key) {
                self.correct += 1;
            } else {
                self.wrong += 1;
            }
            // One-way request + in-switch turn + one-way reply = RTT; the
            // workload header still carries the GET's send time.
            let sent = u64::from_be_bytes(b[42 + 10..42 + 18].try_into().unwrap());
            self.latency
                .record(ctx.now().saturating_since(Time::from_picos(sent)));
        } else {
            self.wrong += 1;
        }
        self.next_get(ctx);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _token: u64) {
        self.next_get(ctx);
    }

    fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId) {
        self.tx.on_tx_done(ctx);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// KV scenario results.
#[derive(Clone, Debug)]
pub struct KvResult {
    /// GETs answered with the correct value.
    pub correct: u64,
    /// GETs answered with a wrong value (must be 0).
    pub wrong: u64,
    /// GET RTT distribution.
    pub latency: LatencySummary,
    /// Lookup program counters (cache hits = switch-served GETs).
    pub lookup: LookupStats,
    /// Server CPU packets (must be 0 — the whole point).
    pub server_cpu_packets: u64,
}

/// Run the KV scenario: `count` Zipf(`skew`) GETs over `keys` keys, with a
/// `cache`-entry switch cache backed by the remote table.
pub fn run_kv(keys: u32, skew: f64, count: u64, cache: Option<usize>, seed: u64) -> KvResult {
    let entry_size = 2048u64;
    let entries = (keys as u64 * 8).next_power_of_two().max(4096);
    let link = LinkSpec::testbed_40g();
    let mut tb = Testbed::new(seed);
    tb.host(
        KvClientNode::new("client", keys, skew, count, seed ^ 0x6b76),
        link,
    );
    let (kv, channel) = tb.server(
        RnicConfig::default(),
        ByteSize::from_bytes(entries * entry_size),
        link,
    );
    for key in 0..keys {
        extmem_core::direct_table::install_remote_action(
            tb.nic_mut(kv),
            &channel,
            entry_size,
            &key_flow(key),
            ActionEntry::kv_respond(value_of(key)),
        );
    }
    let prog = DirectTableProgram::new(tb.fib(), channel, entry_size, cache);
    let Built {
        mut sim,
        switch,
        hosts,
        servers,
        ..
    } = tb.build(extmem_switch::SwitchConfig::default(), Box::new(prog));
    sim.schedule_timer(hosts[0], TimeDelta::ZERO, 0);
    sim.run_to_quiescence();

    let client = sim.node::<KvClientNode>(hosts[0]);
    let sw: &extmem_switch::SwitchNode = sim.node(switch);
    KvResult {
        correct: client.correct,
        wrong: client.wrong,
        latency: client.latency.summarize().expect("no GET completed"),
        lookup: sw.program::<DirectTableProgram>().stats(),
        server_cpu_packets: sim.node::<RnicNode>(servers[0]).stats().cpu_packets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_get_is_answered_correctly() {
        let r = run_kv(64, 1.1, 1000, Some(16), 3);
        assert_eq!(r.correct, 1000, "{r:?}");
        assert_eq!(r.wrong, 0);
        assert_eq!(
            r.server_cpu_packets, 0,
            "misses must be served by RDMA, not CPU"
        );
        assert!(
            r.lookup.cache_hits > 0,
            "hot keys should hit the switch cache"
        );
    }

    #[test]
    fn cache_hits_are_faster_than_remote_gets() {
        let cached = run_kv(4, 0.0, 400, Some(8), 5); // everything fits
        let uncached = run_kv(4, 0.0, 400, None, 5); // every GET goes remote
        assert_eq!(cached.wrong + uncached.wrong, 0);
        assert!(
            cached.latency.median < uncached.latency.median,
            "switch-served GETs must be faster: {:?} vs {:?}",
            cached.latency.median,
            uncached.latency.median
        );
    }

    #[test]
    fn values_are_deterministic_and_distinct() {
        assert_eq!(value_of(7), value_of(7));
        assert_ne!(value_of(7), value_of(8));
        assert_ne!(key_flow(1), key_flow(2));
    }
}
