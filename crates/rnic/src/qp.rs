//! Queue pair state (responder side).

use extmem_types::QpNum;
use extmem_wire::roce::RoceEndpoint;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Atomic results a responder QP keeps for duplicate replay, in a ring
/// indexed by PSN. A reliable requester launches nothing this many PSNs past
/// its oldest unanswered Fetch-and-Add, so every re-send finds its result.
pub const ATOMIC_RESULTS: usize = 64;

/// A QP's transport: RC NAKs a PSN gap once and drops until the requester
/// goes back; UC loses the gap (a message is one packet) and resyncs at the
/// next. Clones share the setting, which only the requester's reliability
/// policy picks, before traffic (`ReliableChannel::set_config`).
#[derive(Clone, Debug, Default)]
pub struct Transport(Arc<AtomicBool>);

impl Transport {
    /// Whether the QP is UC: a PSN gap is jumped, not NAKed.
    pub fn is_uc(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }

    /// Make the QP RC (`reliable`) or UC.
    pub fn set_reliable(&self, reliable: bool) {
        self.0.store(!reliable, Ordering::Relaxed);
    }
}

/// Responder-side state for one queue pair.
///
/// The paper's channel controller creates one QP per switch↔server channel
/// at initialization and hands the switch the triple `(QPN, base address,
/// rkey)`. After that the QP is driven entirely by the NIC, until a crash
/// leaves an RC QP unconnected ([`QueuePair::connected`]).
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
    /// `(psn, original)` of the last [`ATOMIC_RESULTS`] executed atomics,
    /// at `psn % ATOMIC_RESULTS`, for duplicate replay.
    pub atomic_results: Box<[Option<(u32, u64)>; ATOMIC_RESULTS]>,
    /// Whether a sequence-error NAK has been sent and not yet cleared by an
    /// in-order packet (NAKs are sent once per gap, per IB spec).
    pub nak_outstanding: bool,
    /// RC or UC.
    pub transport: Transport,
    /// Created connected; a crash clears it on an RC QP, and only a connect
    /// request ([`extmem_wire::bth::Opcode::Connect`]) sets it again.
    pub connected: bool,
}

impl QueuePair {
    /// Create a connected RC QP expecting the first request at `start_psn`.
    pub fn new(qpn: QpNum, peer: RoceEndpoint, peer_qpn: QpNum, start_psn: u32) -> QueuePair {
        QueuePair {
            qpn,
            peer,
            peer_qpn,
            udp_src_port: 0xc000 + (qpn.raw() & 0xfff) as u16,
            epsn: start_psn,
            msn: 0,
            atomic_results: Box::new([None; ATOMIC_RESULTS]),
            nak_outstanding: false,
            transport: Transport::default(),
            connected: true,
        }
    }

    /// This QP as UC (see [`Transport`]): a PSN gap is jumped, not NAKed.
    pub fn relaxed(self) -> QueuePair {
        self.transport.set_reliable(false);
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
        assert!(qp.atomic_results.iter().all(Option::is_none));
        assert!(!qp.nak_outstanding);
        assert!(qp.connected && !qp.transport.is_uc());
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
