//! Reliable-connection queue pair state (responder side).

use extmem_types::QpNum;
use extmem_wire::roce::RoceEndpoint;

/// Responder-side state for one RC queue pair.
///
/// The paper's channel controller creates one QP per switch↔server channel
/// at initialization and hands the switch the triple `(QPN, base address,
/// rkey)`. After that the QP is driven entirely by the NIC.
#[derive(Debug)]
pub struct QueuePair {
    /// This QP's number (what remote BTHs carry in `dest_qp`).
    pub qpn: QpNum,
    /// The peer's L2/L3 identity, used to address responses.
    pub peer: RoceEndpoint,
    /// The peer's QP number, placed in response BTHs.
    pub peer_qpn: QpNum,
    /// UDP source port used for responses (flow entropy).
    pub udp_src_port: u16,
    /// Next expected request PSN.
    pub epsn: u32,
    /// Message sequence number: completed request messages.
    pub msn: u32,
    /// The last executed atomic, for duplicate replay.
    pub last_atomic: Option<(u32, u64)>,
    /// Whether a sequence-error NAK has been sent and not yet cleared by an
    /// in-order packet (NAKs are sent once per gap, per IB spec).
    pub nak_outstanding: bool,
    /// Relaxed PSN checking: requests *ahead* of the expected PSN are
    /// accepted (the expected PSN jumps forward) instead of NAK'd. This
    /// models unreliable-connection-style best-effort semantics for
    /// channels that tolerate loss (the paper's packet-buffer primitive,
    /// §7 "Since Ethernet itself is best-effort, applications … should
    /// tolerate the packet drops"). Strict RC behaviour is the default.
    pub relaxed_psn: bool,
    /// One-shot resynchronization: accept the *next* request at whatever
    /// PSN it carries and continue strictly from there. The control plane
    /// sets this after a server restart (the re-handshake of a real QP
    /// teardown/re-create, collapsed to a flag) so a recovered requester
    /// can resume at a fresh PSN without a NAK livelock.
    pub resync_next: bool,
}

impl QueuePair {
    /// Create a QP expecting the first request at `start_psn`.
    pub fn new(qpn: QpNum, peer: RoceEndpoint, peer_qpn: QpNum, start_psn: u32) -> QueuePair {
        QueuePair {
            qpn,
            peer,
            peer_qpn,
            udp_src_port: 0xc000 + (qpn.raw() & 0xfff) as u16,
            epsn: start_psn,
            msn: 0,
            last_atomic: None,
            nak_outstanding: false,
            relaxed_psn: false,
            resync_next: false,
        }
    }

    /// Arm the one-shot PSN resync (see [`QueuePair::resync_next`]).
    pub fn mark_resync(&mut self) {
        self.resync_next = true;
    }

    /// Switch this QP to relaxed PSN checking (see [`QueuePair::relaxed_psn`]).
    pub fn relaxed(mut self) -> QueuePair {
        self.relaxed_psn = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extmem_wire::MacAddr;

    #[test]
    fn construction_defaults() {
        let peer = RoceEndpoint {
            mac: MacAddr::local(1),
            ip: 10,
        };
        let qp = QueuePair::new(QpNum(0x100), peer, QpNum(0x200), 77);
        assert_eq!(qp.epsn, 77);
        assert_eq!(qp.msn, 0);
        assert!(qp.last_atomic.is_none());
        assert!(!qp.nak_outstanding);
        assert_eq!(qp.peer_qpn, QpNum(0x200));
    }

    #[test]
    fn udp_source_ports_differ_across_qps() {
        let peer = RoceEndpoint {
            mac: MacAddr::local(1),
            ip: 10,
        };
        let a = QueuePair::new(QpNum(0x100), peer, QpNum(1), 0);
        let b = QueuePair::new(QpNum(0x101), peer, QpNum(1), 0);
        assert_ne!(a.udp_src_port, b.udp_src_port);
    }
}
