//! End-to-end congestion control (DCTCP-style) — the paper's backstop for
//! *persistent* congestion.
//!
//! §2.1: "Before that >10 GB remote memory is all filled, any bursty incast
//! conditions should have passed, or (in the case of persistent congestion)
//! end-to-end congestion control based on ECN or delay should have slowed
//! traffic." The remote packet buffer absorbs transients; ECN slows what
//! never ends. This module provides the minimal sender/receiver pair to
//! close that loop in simulation:
//!
//! * [`DctcpSource`] — a rate-based DCTCP-like sender: marks its packets
//!   ECN-capable, tracks the marked fraction α (EWMA), multiplicatively
//!   decreases its rate by `α/2` per window and additively increases
//!   otherwise,
//! * [`FeedbackEcho`] — the receiver: reflects each data packet's CE bit
//!   back to the sender in a small feedback frame (the stand-in for TCP
//!   ACKs with ECE).

use extmem_sim::{Node, NodeCtx, TxQueue};
use extmem_types::{FiveTuple, PortId, Rate, Time};
use extmem_wire::ipv4::internet_checksum;
use extmem_wire::payload::{build_data_packet, parse_data_packet};
use extmem_wire::{MacAddr, Packet};

/// Set the IPv4 ECN field of a built frame, fixing the header checksum.
fn set_ecn(pkt: &mut Packet, ecn: u8) {
    let b = pkt.as_mut_slice();
    b[15] = (b[15] & !0x03) | (ecn & 0x03);
    b[24] = 0;
    b[25] = 0;
    let csum = internet_checksum(&b[14..34]);
    b[24..26].copy_from_slice(&csum.to_be_bytes());
}

/// Read the IPv4 ECN field of a frame.
fn get_ecn(pkt: &Packet) -> u8 {
    pkt.as_slice()[15] & 0x03
}

const TOKEN_SEND: u64 = 1;

/// DCTCP parameters.
#[derive(Clone, Copy, Debug)]
pub struct DctcpConfig {
    /// Initial sending rate.
    pub initial: Rate,
    /// Floor (rate never drops below this).
    pub min: Rate,
    /// Ceiling (usually the access-link rate).
    pub max: Rate,
    /// EWMA gain for α (DCTCP's g, typically 1/16).
    pub gain: f64,
    /// Feedback frames per control window.
    pub window: u32,
    /// Additive increase per unmarked window.
    pub step: Rate,
}

impl Default for DctcpConfig {
    fn default() -> Self {
        DctcpConfig {
            initial: Rate::from_gbps(40),
            min: Rate::from_gbps_f64(0.5),
            max: Rate::from_gbps(40),
            gain: 1.0 / 16.0,
            window: 32,
            step: Rate::from_gbps_f64(0.5),
        }
    }
}

/// The ECN-reacting sender.
pub struct DctcpSource {
    name: String,
    cfg: DctcpConfig,
    src_mac: MacAddr,
    dst_mac: MacAddr,
    flow: FiveTuple,
    frame_len: usize,
    remaining: u64,
    seq: u32,
    rate_bps: f64,
    alpha: f64,
    acks_in_window: u32,
    marks_in_window: u32,
    tx: TxQueue,
    /// `(time, rate)` samples taken at each window boundary.
    pub rate_trace: Vec<(Time, Rate)>,
    /// Total CE marks seen.
    pub total_marks: u64,
    /// Total feedback frames seen.
    pub total_feedback: u64,
}

impl DctcpSource {
    /// A sender pushing `count` frames of `frame_len` bytes along `flow`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        cfg: DctcpConfig,
        src_mac: MacAddr,
        dst_mac: MacAddr,
        flow: FiveTuple,
        frame_len: usize,
        count: u64,
    ) -> DctcpSource {
        assert!(cfg.window > 0 && cfg.gain > 0.0 && cfg.gain <= 1.0);
        DctcpSource {
            name: name.into(),
            src_mac,
            dst_mac,
            flow,
            frame_len,
            remaining: count,
            seq: 0,
            rate_bps: cfg.initial.bps() as f64,
            cfg,
            alpha: 0.0,
            acks_in_window: 0,
            marks_in_window: 0,
            tx: TxQueue::new(PortId(0)),
            rate_trace: Vec::new(),
            total_marks: 0,
            total_feedback: 0,
        }
    }

    /// The current sending rate.
    pub fn current_rate(&self) -> Rate {
        Rate::from_bps(self.rate_bps as u64)
    }

    /// The current α estimate.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    fn send_one(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        let mut pkt = build_data_packet(
            self.src_mac,
            self.dst_mac,
            self.flow,
            0,
            self.seq,
            ctx.now(),
            self.frame_len,
        )
        .expect("frame encodes");
        set_ecn(&mut pkt, 0b01); // ECT(1)
        self.seq += 1;
        self.tx.send(ctx, pkt);
        if self.remaining > 0 {
            let gap = Rate::from_bps(self.rate_bps.max(1.0) as u64).time_to_send(self.frame_len);
            ctx.schedule(gap, TOKEN_SEND);
        }
    }

    fn window_update(&mut self, ctx: &mut NodeCtx<'_>) {
        let frac = self.marks_in_window as f64 / self.acks_in_window as f64;
        self.alpha = (1.0 - self.cfg.gain) * self.alpha + self.cfg.gain * frac;
        if self.marks_in_window > 0 {
            self.rate_bps *= 1.0 - self.alpha / 2.0;
        } else {
            self.rate_bps += self.cfg.step.bps() as f64;
        }
        self.rate_bps = self
            .rate_bps
            .clamp(self.cfg.min.bps() as f64, self.cfg.max.bps() as f64);
        self.acks_in_window = 0;
        self.marks_in_window = 0;
        self.rate_trace.push((ctx.now(), self.current_rate()));
    }
}

impl Node for DctcpSource {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId, packet: Packet) {
        // Feedback frame: its DSCP carries the reflected CE bit.
        let Ok(Some(info)) = parse_data_packet(&packet) else {
            return;
        };
        self.total_feedback += 1;
        self.acks_in_window += 1;
        if info.ipv4.dscp & 1 == 1 {
            self.total_marks += 1;
            self.marks_in_window += 1;
        }
        if self.acks_in_window >= self.cfg.window {
            self.window_update(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _token: u64) {
        self.send_one(ctx);
    }

    fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId) {
        self.tx.on_tx_done(ctx);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// The receiver: reflects each data packet's CE bit in a 64-byte feedback
/// frame whose DSCP low bit carries the mark.
pub struct FeedbackEcho {
    name: String,
    tx: TxQueue,
    /// Data frames received.
    pub received: u64,
    /// Data frames that arrived CE-marked.
    pub marked: u64,
}

impl FeedbackEcho {
    /// A feedback receiver.
    pub fn new(name: impl Into<String>) -> FeedbackEcho {
        FeedbackEcho {
            name: name.into(),
            tx: TxQueue::new(PortId(0)),
            received: 0,
            marked: 0,
        }
    }
}

impl Node for FeedbackEcho {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId, packet: Packet) {
        let Ok(Some(info)) = parse_data_packet(&packet) else {
            return;
        };
        self.received += 1;
        let ce = get_ecn(&packet) == 0b11;
        if ce {
            self.marked += 1;
        }
        let mut fb = build_data_packet(
            info.eth.dst,
            info.eth.src,
            info.five_tuple().reversed(),
            info.data.flow_id,
            info.data.seq,
            info.data.sent_at, // carry the original send time through
            64,
        )
        .expect("feedback encodes");
        // DSCP low bit = CE reflection.
        let b = fb.as_mut_slice();
        b[15] = (b[15] & 0x03) | ((ce as u8) << 2);
        b[24] = 0;
        b[25] = 0;
        let csum = internet_checksum(&b[14..34]);
        b[24..26].copy_from_slice(&csum.to_be_bytes());
        self.tx.send(ctx, fb);
    }

    fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId) {
        self.tx.on_tx_done(ctx);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{host_ip, host_mac, Built, Testbed};
    use extmem_core::L2Program;
    use extmem_sim::LinkSpec;
    use extmem_switch::{SwitchConfig, SwitchNode};
    use extmem_types::{ByteSize, TimeDelta};

    /// A DCTCP source (host 0) sending `count` 1000 B frames to a
    /// feedback echo (host 1) behind `bottleneck`, over an L2 switch
    /// configured by `switch`; the source is started.
    fn dctcp_testbed(
        seed: u64,
        switch: SwitchConfig,
        dctcp: DctcpConfig,
        count: u64,
        bottleneck: LinkSpec,
    ) -> Built {
        let flow = FiveTuple::new(host_ip(0), host_ip(1), 40_000, 9_000, 17);
        let mut tb = Testbed::new(seed);
        tb.host(
            DctcpSource::new("dctcp", dctcp, host_mac(0), host_mac(1), flow, 1000, count),
            LinkSpec::testbed_40g(),
        );
        tb.host(FeedbackEcho::new("rx"), bottleneck);
        let prog = L2Program {
            fib: tb.fib(),
            forwarded: 0,
        };
        let mut t = tb.build(switch, Box::new(prog));
        t.sim
            .schedule_timer(t.hosts[0], TimeDelta::ZERO, TOKEN_SEND);
        t
    }

    /// DCTCP source at 40G into a 10G bottleneck with ECN marking:
    /// the rate must converge near the bottleneck with zero drops.
    #[test]
    fn dctcp_converges_to_the_bottleneck_rate() {
        let Built {
            mut sim,
            switch,
            hosts,
            ..
        } = dctcp_testbed(
            13,
            SwitchConfig {
                buffer: ByteSize::from_mb(12),
                ecn_threshold: Some(ByteSize::from_bytes(30_000)),
                ..Default::default()
            },
            DctcpConfig::default(),
            60_000,
            LinkSpec::new(Rate::from_gbps(10), TimeDelta::from_nanos(300)),
        );
        sim.run_until(Time::from_millis(40));

        let s = sim.node::<DctcpSource>(hosts[0]);
        let rx = sim.node::<FeedbackEcho>(hosts[1]);
        assert!(rx.marked > 0, "ECN never marked");
        assert!(s.total_feedback > 1000, "feedback loop broken");
        // Average rate over the last quarter of the trace ≈ bottleneck.
        let tail = &s.rate_trace[s.rate_trace.len() * 3 / 4..];
        let avg: f64 = tail.iter().map(|(_, r)| r.gbps_f64()).sum::<f64>() / tail.len() as f64;
        assert!(
            (7.0..13.0).contains(&avg),
            "rate failed to converge near 10G: {avg:.1}G (alpha {})",
            s.alpha()
        );
        // The 12MB buffer + ECN keeps it lossless.
        let sw: &SwitchNode = sim.node(switch);
        assert_eq!(sw.tm().total_drops(), 0);
    }

    /// Heavy marking can never push the rate below the configured floor.
    #[test]
    fn dctcp_respects_the_rate_floor() {
        let floor = Rate::from_gbps(2);
        let mut t = dctcp_testbed(
            15,
            SwitchConfig {
                // Mark everything: the queue threshold is zero.
                ecn_threshold: Some(ByteSize::ZERO),
                ..Default::default()
            },
            DctcpConfig {
                min: floor,
                ..Default::default()
            },
            20_000,
            LinkSpec::new(Rate::from_gbps(5), TimeDelta::from_nanos(300)),
        );
        t.sim.run_until(Time::from_millis(30));
        let s = t.sim.node::<DctcpSource>(t.hosts[0]);
        assert!(s.total_marks > 0);
        for &(_, r) in &s.rate_trace {
            assert!(r >= floor, "rate {r} fell below the floor");
        }
    }

    /// Without congestion the sender climbs to its ceiling and stays there.
    #[test]
    fn dctcp_uncongested_runs_at_line_rate() {
        let mut t = dctcp_testbed(
            14,
            SwitchConfig {
                ecn_threshold: Some(ByteSize::from_bytes(30_000)),
                ..Default::default()
            },
            DctcpConfig {
                initial: Rate::from_gbps(20),
                ..Default::default()
            },
            10_000,
            LinkSpec::testbed_40g(),
        );
        t.sim.run_to_quiescence();
        let s = t.sim.node::<DctcpSource>(t.hosts[0]);
        assert_eq!(s.total_marks, 0, "uncongested path must not mark");
        let last = s.rate_trace.last().expect("windows elapsed").1;
        assert!(last.gbps_f64() > 20.0, "rate should climb: {last}");
    }
}
