//! Experiment E1: the §5 packet-buffer microbenchmark.
//!
//! Reproduces the three numbers of "Packet buffer primitive":
//!
//! * max **store** rate without loss — 1500 B frames arrive, the switch
//!   encapsulates every one into an RDMA WRITE to the remote ring (manual
//!   mode); beyond the ceiling "RDMA requests were occasionally dropped at
//!   the NIC" (the NIC RX queue overflows),
//! * max **forward** (load) rate — the ring is pre-loaded, then drained
//!   through the response-triggered READ chain to the destination port,
//! * the **native** server-to-server RDMA WRITE / READ baseline, which the
//!   paper found "only 4.4% faster".

use crate::rigs::{one_flow, sink, testbed_with_server};
use extmem_apps::scenario::{host_endpoint, Built, Testbed};
use extmem_core::packet_buffer::{Mode, PacketBufferProgram, TOKEN_START_LOADING};
use extmem_core::ReliableConfig;
use extmem_rnic::requester::{setup_channel, ReadLooper, RequesterQp, WriteBlaster};
use extmem_rnic::{RnicConfig, RnicNode};
use extmem_sim::{LinkSpec, Node, SimBuilder, Simulator};
use extmem_switch::switch::program_token;
use extmem_switch::SwitchConfig;
use extmem_types::{ByteSize, NodeId, PortId, QpNum, Rate, Rkey, Time, TimeDelta};

/// Ring entry size for E1: header (6) plus a full 1500 B frame, rounded to
/// the 4 B RoCE pad boundary — the paper's "allocate the buffer to store
/// full-sized Ethernet frame in each entry".
pub const E1_ENTRY: u64 = 1516;

/// Frames per measurement run. Large enough that a small service deficit
/// accumulates past the NIC RX queue and shows up as loss.
pub const E1_COUNT: u64 = 40_000;

/// The E1 rig: a generator offering `count` 1500 B frames at `offered`, a
/// sink, and one memory server behind a manual-mode packet buffer draining
/// to the sink.
pub fn rig(seed: u64, offered: Rate, count: u64) -> (Testbed, PacketBufferProgram) {
    let spec = one_flow(40_000, 9_000, 1500, offered, count);
    let region = ByteSize::from_bytes((count + 8) * E1_ENTRY);
    let (tb, channel) = testbed_with_server(seed, spec, LinkSpec::testbed_40g(), region, 0.0);
    let prog = PacketBufferProgram::new(
        tb.fib(),
        vec![channel],
        PortId(1),
        E1_ENTRY,
        Mode::Manual,
        8,
        TimeDelta::from_millis(10),
    );
    (tb, prog)
}

/// Run a 25 Gbps [`rig`] until every frame is in the ring, then start
/// loading and drain it to the sink.
pub fn store_then_drain(t: &mut Built, count: u64) {
    let store_time = TimeDelta::from_secs_f64(count as f64 * 1500.0 * 8.0 / 25e9 + 1e-3);
    t.sim.run_until(Time::ZERO + store_time);
    t.sim.schedule_timer(
        t.switch,
        TimeDelta::ZERO,
        program_token(TOKEN_START_LOADING),
    );
    t.sim.run_to_quiescence();
    assert_eq!(sink(t).received, count, "forward path lost frames");
}

/// Drive the store path at `offered` payload rate; returns the frames lost
/// anywhere (switch TM or NIC).
///
/// The paper's prototype had no switch-side retransmission, and the number
/// being reproduced is the raw NIC ceiling ("RDMA requests were
/// occasionally dropped at the NIC"), so this probe runs the channel in
/// best-effort mode — reliable mode would retransmit the over-ceiling
/// drops and report every rate as lossless.
pub fn probe_store(offered: Rate, count: u64) -> u64 {
    let (tb, prog) = rig(21, offered, count);
    let prog = prog.with_reliability(ReliableConfig {
        reliable: false,
        ..Default::default()
    });
    let mut t = tb.build(SwitchConfig::default(), Box::new(prog));
    t.sim.run_to_quiescence();
    count - t.sim.node::<RnicNode>(t.servers[0]).stats().writes
}

/// Pre-load `count` frames into the ring at a safe rate, then drain and
/// measure the forwarding goodput at the destination.
pub fn measure_forward_rate(count: u64) -> Rate {
    let (tb, prog) = rig(22, Rate::from_gbps(25), count);
    let mut t = tb.build(SwitchConfig::default(), Box::new(prog));
    store_then_drain(&mut t, count);
    let sink = sink(&t);
    let elapsed = sink
        .last_rx
        .saturating_since(sink.first_rx.expect("frames delivered"));
    extmem_apps::metrics::throughput((count - 1) * 1500, elapsed)
}

/// Server-to-server RDMA with no switch in between: `client`, built from the
/// channel to an 8 MB region on the memory server, on one end of a 40 G link
/// and the server on the other. Kicks the client with timer `token`, runs to
/// quiescence and returns the simulation with the client's and the server's
/// node ids.
fn run_native<C: Node>(
    seed: u64,
    qpn: u32,
    token: u64,
    client: impl FnOnce(RequesterQp, Rkey, u64) -> C,
) -> (Simulator, NodeId, NodeId) {
    let mut nic = RnicNode::new("memsrv", RnicConfig::at(host_endpoint(1)));
    let region = ByteSize::from_mb(8);
    let (qp, rkey, base) = setup_channel(host_endpoint(0), QpNum(qpn), &mut nic, region);
    let mut b = SimBuilder::new(seed);
    let cl = b.add_node(Box::new(client(qp, rkey, base)));
    let srv = b.add_node(Box::new(nic));
    b.connect(cl, PortId(0), srv, PortId(0), LinkSpec::testbed_40g());
    let mut sim = b.build();
    sim.schedule_timer(cl, TimeDelta::ZERO, token);
    sim.run_to_quiescence();
    (sim, cl, srv)
}

/// Native server-to-server WRITE probe (no switch data-plane logic): a host
/// blasts `count` 1500 B WRITEs at `offered` payload rate straight into the
/// RNIC; returns the WRITEs the NIC dropped.
pub fn probe_native_write(offered: Rate, count: u64) -> u64 {
    // Pace by *payload* rate to stay comparable with probe_store.
    let wire_rate = offered.scaled(1576.0 / 1500.0);
    let (sim, _, srv) = run_native(23, 0x900, 1, |qp, rkey, base| {
        WriteBlaster::new("blaster", qp, rkey, base, 8_000_000, 1500, wire_rate, count)
    });
    count - sim.node::<RnicNode>(srv).stats().writes
}

/// Native server-to-server READ goodput: closed loop, window 8.
pub fn measure_native_read(count: u64) -> Rate {
    let (sim, lo, _) = run_native(24, 0x901, 0, |qp, rkey, base| {
        ReadLooper::new("looper", qp, rkey, base, 8_000_000, 1500, 8, count)
    });
    let lo = sim.node::<ReadLooper>(lo);
    assert_eq!(lo.completed, count);
    extmem_apps::metrics::throughput(lo.bytes, lo.last_completion.saturating_since(Time::ZERO))
}

/// Sweep offered rates through `probe` (frames lost at a rate) and return
/// the highest lossless one.
pub fn max_lossless(mut probe: impl FnMut(Rate) -> u64, rates_gbps: &[f64]) -> Rate {
    rates_gbps
        .iter()
        .map(|&g| Rate::from_gbps_f64(g))
        .filter(|&rate| probe(rate) == 0)
        .fold(Rate::ZERO, Rate::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_is_lossless_below_ceiling_and_lossy_above() {
        assert_eq!(probe_store(Rate::from_gbps(30), 5_000), 0);
        assert!(
            probe_store(Rate::from_gbps(40), 40_000) > 0,
            "line rate must exceed the NIC ceiling"
        );
    }

    #[test]
    fn forward_rate_in_paper_regime() {
        let r = measure_forward_rate(5_000);
        let g = r.gbps_f64();
        assert!(
            (34.0..40.0).contains(&g),
            "forward rate {g} Gbps out of regime"
        );
    }

    #[test]
    fn native_write_slightly_faster_than_store_path() {
        assert_eq!(probe_native_write(Rate::from_gbps(34), 5_000), 0);
    }

    #[test]
    fn native_read_in_regime() {
        let g = measure_native_read(3_000).gbps_f64();
        assert!(
            (34.0..40.5).contains(&g),
            "native read {g} Gbps out of regime"
        );
    }
}
