//! The RoCEv2 responder state machine.
//!
//! Given a parsed inbound request and the QP + memory-region state, decide
//! what DMA to perform and which response frame to emit. This is pure
//! protocol logic — the timing model lives in [`crate::nic`] — so it is
//! directly unit-testable.
//!
//! Responses leave here already encoded. A READ response — and a remote
//! op's, which only reads and is answered as a READ is — is written once,
//! from the [`crate::mr::MemoryRegion`] slices it returns straight into a
//! pooled frame buffer ([`RoceHeaders::encode`]): the region
//! bytes are never copied into an intermediate payload, and every response
//! — data, ACK or NAK — costs exactly one payload construction, the frame
//! itself. The NIC only queues what it is handed.

use crate::mr::MrTable;
use crate::qp::{QueuePair, ATOMIC_RESULTS};
use extmem_wire::aeth::{Aeth, NakCode};
use extmem_wire::atomic::AtomicAckEth;
use extmem_wire::bth::{psn_add, psn_before, Bth, Opcode};
use extmem_wire::roce::{RoceEndpoint, RoceExt, RoceHeaders, RocePacket};
use extmem_wire::{Packet, WireError};

/// Upper bound on dependent reads a single gather/walk op may perform. Keeps
/// the modeled NIC op engine line-rate: a request can occupy the execution
/// unit for at most this many memory accesses.
pub const MAX_GATHER: usize = 16;

/// What the responder did with a request (for statistics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Payload bytes written to a region.
    WriteExecuted {
        /// Bytes DMA'd.
        bytes: u64,
    },
    /// A READ served: one response packet of this many payload bytes.
    ReadServed {
        /// Payload bytes returned.
        bytes: u64,
    },
    /// An atomic executed.
    AtomicExecuted,
    /// A remote op executed in the NIC op engine.
    ExtOpExecuted {
        /// Dependent memory accesses the op engine performed.
        steps: u32,
        /// Response payload bytes returned.
        bytes: u64,
    },
    /// A duplicate request was re-acknowledged, replayed or re-read without
    /// effect.
    Duplicate,
    /// The request was handled but its response did not encode, and was
    /// dropped.
    ResponseDropped,
    /// A NAK was sent.
    Nak(NakCode),
    /// An out-of-sequence packet was dropped silently (NAK already
    /// outstanding for this gap).
    OutOfSequenceDropped,
    /// A connect request connected (or re-anchored) the QP.
    Connected,
    /// A request reached an unconnected QP, and was dropped.
    Unconnected,
}

/// The result of processing one request packet.
#[derive(Debug)]
pub struct ResponderResult {
    /// The frame to transmit back to the requester: every request is
    /// answered by at most one (none for an unacknowledged WRITE or a
    /// dropped request).
    pub response: Option<Packet>,
    /// What happened, for the NIC's statistics.
    pub outcome: Outcome,
}

/// Process one inbound request on `qp` against `mrs`.
///
/// `local` is this NIC's endpoint identity (source of responses); `mtu` is
/// the most payload one packet may carry. Every message is one packet, so a
/// WRITE or READ longer than `mtu` is refused with an `InvalidRequest` NAK.
pub fn process_request(
    local: RoceEndpoint,
    qp: &mut QueuePair,
    mrs: &mut MrTable,
    req: &RocePacket,
    mtu: usize,
) -> ResponderResult {
    debug_assert!(req.bth.opcode.is_request(), "responder got a non-request");
    let psn = req.bth.psn;

    if req.bth.opcode == Opcode::Connect {
        return connect(local, qp, psn);
    }
    if !qp.connected {
        return silent(Outcome::Unconnected);
    }
    if psn_before(psn, qp.epsn) {
        return duplicate(local, qp, mrs, req, mtu);
    }
    if psn != qp.epsn {
        if qp.transport.is_uc() {
            // UC: the requests in the gap are lost; resync at this one.
            qp.epsn = psn;
        } else {
            // RC: NAK once, then drop until the requester goes back.
            if qp.nak_outstanding {
                return silent(Outcome::OutOfSequenceDropped);
            }
            qp.nak_outstanding = true;
            return nak(local, qp, NakCode::PsnSequenceError);
        }
    }
    qp.nak_outstanding = false;

    match req.bth.opcode {
        Opcode::WriteOnly => {
            let RoceExt::Reth(reth) = req.ext else {
                return refuse(local, qp, NakCode::InvalidRequest);
            };
            if reth.dma_len as usize != req.payload.len() || req.payload.len() > mtu {
                return refuse(local, qp, NakCode::InvalidRequest);
            }
            match mrs
                .get_mut(reth.rkey)
                .and_then(|r| r.write(reth.va, &req.payload))
            {
                Ok(()) => {
                    qp.epsn = psn_add(qp.epsn, 1);
                    qp.msn = (qp.msn + 1) & 0xff_ffff;
                    write_ack(local, qp, req.bth.ack_req, req.payload.len() as u64, psn)
                }
                Err(e) => refuse(local, qp, e.into()),
            }
        }
        Opcode::ReadRequest | Opcode::HashProbe | Opcode::GatherWalk => {
            serve_read(local, qp, mrs, req, mtu, false)
        }
        Opcode::FetchAdd => {
            let RoceExt::AtomicEth(a) = req.ext else {
                return refuse(local, qp, NakCode::InvalidRequest);
            };
            match mrs
                .get_mut(a.rkey)
                .and_then(|r| r.fetch_add(a.va, a.swap_add))
            {
                Ok(original) => {
                    qp.epsn = psn_add(qp.epsn, 1);
                    qp.msn = (qp.msn + 1) & 0xff_ffff;
                    qp.atomic_results[psn as usize % ATOMIC_RESULTS] = Some((psn, original));
                    answered(
                        atomic_ack(local, qp, psn, original),
                        Outcome::AtomicExecuted,
                    )
                }
                Err(e) => refuse(local, qp, e.into()),
            }
        }
        _ => refuse(local, qp, NakCode::InvalidRequest),
    }
}

/// A connect at `psn`, answered by a plain ACK: the QP expects the next
/// request past it, with no NAK outstanding and no atomic result kept. A
/// connect behind a connected QP's expected PSN (a re-send) is a duplicate.
fn connect(local: RoceEndpoint, qp: &mut QueuePair, psn: u32) -> ResponderResult {
    if qp.connected && psn_before(psn, qp.epsn) {
        return answered(plain_ack(local, qp, psn), Outcome::Duplicate);
    }
    qp.connected = true;
    qp.epsn = psn_add(psn, 1);
    qp.nak_outstanding = false;
    qp.atomic_results.fill(None);
    answered(plain_ack(local, qp, psn), Outcome::Connected)
}

/// Handle a request whose PSN is in the past.
fn duplicate(
    local: RoceEndpoint,
    qp: &mut QueuePair,
    mrs: &MrTable,
    req: &RocePacket,
    mtu: usize,
) -> ResponderResult {
    let response = match req.bth.opcode {
        // Duplicate reads and remote ops (which only read) are re-executed
        // per spec: their response data may have been lost in flight.
        Opcode::ReadRequest | Opcode::HashProbe | Opcode::GatherWalk => {
            let mut r = serve_read(local, qp, mrs, req, mtu, true);
            if r.outcome != Outcome::ResponseDropped {
                r.outcome = Outcome::Duplicate;
            }
            return r;
        }
        // Duplicate atomics replay their saved original value; one whose
        // result has left the ring is refused, and moves nothing.
        Opcode::FetchAdd => match qp.atomic_results[req.bth.psn as usize % ATOMIC_RESULTS] {
            Some((psn, original)) if psn == req.bth.psn => atomic_ack(local, qp, psn, original),
            _ => return nak(local, qp, NakCode::InvalidRequest),
        },
        // Duplicate writes are not re-executed, and are acknowledged only
        // when they ask: in a go-back-N volley, the answer to an op behind
        // them covers the rest, as an ACK of PSN n covers every earlier PSN.
        _ if !req.bth.ack_req => return silent(Outcome::Duplicate),
        _ => plain_ack(local, qp, req.bth.psn),
    };
    answered(response, Outcome::Duplicate)
}

/// The region bytes a READ or remote op returns, in order, and the memory
/// accesses the op engine made to find them.
struct Read<'a> {
    steps: u32,
    /// The first `n_parts` are meaningful.
    parts: [&'a [u8]; MAX_GATHER],
    n_parts: usize,
}

impl<'a> Read<'a> {
    fn of(steps: u32, data: &[&'a [u8]]) -> Read<'a> {
        let mut parts: [&[u8]; MAX_GATHER] = [&[]; MAX_GATHER];
        parts[..data.len()].copy_from_slice(data);
        Read {
            steps,
            parts,
            n_parts: data.len(),
        }
    }

    fn body(&self) -> &[&'a [u8]] {
        &self.parts[..self.n_parts]
    }
}

/// Serve a READ or a remote op (shared by the fresh and duplicate paths):
/// one `ReadRespOnly` packet, encoded straight from the region bytes the
/// request resolved to, under the MSN from before the request completed.
fn serve_read(
    local: RoceEndpoint,
    qp: &mut QueuePair,
    mrs: &MrTable,
    req: &RocePacket,
    mtu: usize,
    is_duplicate: bool,
) -> ResponderResult {
    let read = match resolve_read(mrs, req, mtu) {
        Ok(read) => read,
        // A bad duplicate must not perturb the live sequence state.
        Err(code) if is_duplicate => return nak(local, qp, code),
        Err(code) => return refuse(local, qp, code),
    };
    let bth = Bth::new(Opcode::ReadRespOnly, qp.peer_qpn, req.bth.psn);
    let ext = RoceExt::Aeth(Aeth::ack(qp.msn));
    let response = respond(local, qp, bth, ext, read.body());
    if !is_duplicate {
        qp.epsn = psn_add(qp.epsn, 1);
        qp.msn = (qp.msn + 1) & 0xff_ffff;
    }
    let bytes = read.body().iter().map(|part| part.len() as u64).sum();
    let outcome = match req.ext {
        RoceExt::Reth(_) => Outcome::ReadServed { bytes },
        _ => Outcome::ExtOpExecuted {
            steps: read.steps,
            bytes,
        },
    };
    answered(response, outcome)
}

/// Resolve a READ, or a remote op — the chain of dependent reads the
/// requester would otherwise issue as separate verbs, run NIC-side —
/// against the MR table. The result borrows the region bytes the response
/// will carry: a READ's window, a hash probe's one matched slot (none on a
/// miss), or a gather's words.
fn resolve_read<'a>(mrs: &'a MrTable, req: &RocePacket, mtu: usize) -> Result<Read<'a>, NakCode> {
    match req.ext {
        RoceExt::Reth(reth) => {
            if reth.dma_len as usize > mtu {
                return Err(NakCode::InvalidRequest);
            }
            let data = mrs.get(reth.rkey)?.read(reth.va, reth.dma_len as u64)?;
            Ok(Read::of(0, &[data]))
        }
        RoceExt::HashProbe(h) => {
            let key = &req.payload;
            let key_len = h.key_len as usize;
            let key_off = h.key_off as usize;
            let len = h.len as usize;
            let slot_bytes = h.slot_bytes as usize;
            if key.len() != key_len
                || key_len == 0
                || slot_bytes == 0
                || len == 0
                || key_off + key_len > slot_bytes
                || !len.is_multiple_of(slot_bytes)
                || len > mtu
            {
                return Err(NakCode::InvalidRequest);
            }
            let span = mrs.get(h.rkey)?.read(h.va, len as u64)?;
            let hit = span
                .chunks_exact(slot_bytes)
                .find(|slot| slot[key_off..key_off + key_len] == key[..]);
            Ok(Read::of(1, hit.as_slice()))
        }
        RoceExt::Gather(h) => {
            let count = h.count as usize;
            let word_len = h.word_len as usize;
            if count == 0
                || count > MAX_GATHER
                || word_len == 0
                || req.payload.len() != count * 8
                || count * word_len > mtu
            {
                return Err(NakCode::InvalidRequest);
            }
            let region = mrs.get(h.rkey)?;
            let mut read = Read::of(count as u32, &[]);
            let (vas, _) = req.payload.as_chunks::<8>();
            for (word, va) in read.parts.iter_mut().zip(vas) {
                *word = region.read(u64::from_be_bytes(*va), word_len as u64)?;
            }
            read.n_parts = count;
            Ok(read)
        }
        _ => Err(NakCode::InvalidRequest),
    }
}

/// Encode one response frame from this QP to its peer.
fn respond(
    local: RoceEndpoint,
    qp: &QueuePair,
    bth: Bth,
    ext: RoceExt,
    body: &[&[u8]],
) -> Result<Packet, WireError> {
    RoceHeaders::new(local, qp.peer, qp.udp_src_port, bth, ext).encode(body)
}

/// A request's result: its response frame, if it encoded. None the
/// responder builds fails to (every body is at most one MTU); one that did
/// would be dropped and counted, like a response lost on the wire, and the
/// requester's retransmission would recover it.
fn answered(response: Result<Packet, WireError>, outcome: Outcome) -> ResponderResult {
    match response {
        Ok(frame) => ResponderResult {
            response: Some(frame),
            outcome,
        },
        Err(_) => silent(Outcome::ResponseDropped),
    }
}

/// A request's result when nothing goes back.
fn silent(outcome: Outcome) -> ResponderResult {
    ResponderResult {
        response: None,
        outcome,
    }
}

fn write_ack(
    local: RoceEndpoint,
    qp: &QueuePair,
    ack_req: bool,
    bytes: u64,
    psn: u32,
) -> ResponderResult {
    let outcome = Outcome::WriteExecuted { bytes };
    if !ack_req {
        return silent(outcome);
    }
    answered(plain_ack(local, qp, psn), outcome)
}

fn plain_ack(local: RoceEndpoint, qp: &QueuePair, psn: u32) -> Result<Packet, WireError> {
    respond(
        local,
        qp,
        Bth::new(Opcode::Acknowledge, qp.peer_qpn, psn),
        RoceExt::Aeth(Aeth::ack(qp.msn)),
        &[],
    )
}

fn atomic_ack(
    local: RoceEndpoint,
    qp: &QueuePair,
    psn: u32,
    original: u64,
) -> Result<Packet, WireError> {
    respond(
        local,
        qp,
        Bth::new(Opcode::AtomicAcknowledge, qp.peer_qpn, psn),
        RoceExt::AtomicAck(
            Aeth::ack(qp.msn),
            AtomicAckEth {
                original_value: original,
            },
        ),
        &[],
    )
}

pub(crate) fn nak(local: RoceEndpoint, qp: &QueuePair, code: NakCode) -> ResponderResult {
    let response = respond(
        local,
        qp,
        Bth::new(Opcode::Acknowledge, qp.peer_qpn, qp.epsn),
        RoceExt::Aeth(Aeth::nak(code, qp.msn)),
        &[],
    );
    answered(response, Outcome::Nak(code))
}

/// Refuse a fresh request with `code`, past which the QP expects the next
/// PSN (a real QP would enter the error state; see DESIGN.md for this
/// divergence: the requester's channel fails over on the NAK anyway).
fn refuse(local: RoceEndpoint, qp: &mut QueuePair, code: NakCode) -> ResponderResult {
    qp.epsn = psn_add(qp.epsn, 1);
    nak(local, qp, code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nic::MTU;
    use extmem_types::{ByteSize, QpNum, Rkey};
    use extmem_wire::aeth::Syndrome;
    use extmem_wire::extop::{GatherEth, HashProbeEth};
    use extmem_wire::reth::Reth;
    use extmem_wire::{CounterSpan, MacAddr};

    /// What a request was answered with, as its sender sees it: the
    /// response frames parsed back into packets.
    struct Served {
        responses: Vec<RocePacket>,
        outcome: Outcome,
    }

    /// [`super::process_request`] with every response frame parsed, and a
    /// check that each frame cost exactly one payload construction — the
    /// frame itself, never a copy of the region bytes beside it.
    fn process_request(
        local: RoceEndpoint,
        qp: &mut QueuePair,
        mrs: &mut MrTable,
        req: &RocePacket,
        mtu: usize,
    ) -> Served {
        let span = CounterSpan::begin();
        let r = super::process_request(local, qp, mrs, req, mtu);
        assert_eq!(
            span.allocs(),
            r.response.is_some() as u64,
            "{:?}: one payload per response frame",
            r.outcome
        );
        Served {
            responses: r
                .response
                .iter()
                .map(|frame| {
                    RocePacket::parse(frame)
                        .expect("well-formed response")
                        .expect("a RoCE frame")
                })
                .collect(),
            outcome: r.outcome,
        }
    }

    fn setup() -> (RoceEndpoint, QueuePair, MrTable, Rkey, u64) {
        let local = RoceEndpoint {
            mac: MacAddr::local(1),
            ip: 0x0a000001,
        };
        let peer = RoceEndpoint {
            mac: MacAddr::local(2),
            ip: 0x0a000002,
        };
        let qp = QueuePair::new(QpNum(0x100), peer, QpNum(0x200), 0);
        let mut mrs = MrTable::new();
        let (rkey, base) = mrs.register(ByteSize::from_kb(64));
        (local, qp, mrs, rkey, base)
    }

    fn write_req(qp: &QueuePair, psn: u32, rkey: Rkey, va: u64, payload: Vec<u8>) -> RocePacket {
        RocePacket::new(
            qp.peer,
            RoceEndpoint {
                mac: MacAddr::local(1),
                ip: 0x0a000001,
            },
            100,
            Bth::new(Opcode::WriteOnly, qp.qpn, psn),
            RoceExt::Reth(Reth {
                va,
                rkey,
                dma_len: payload.len() as u32,
            }),
            payload,
        )
    }

    fn read_req(qp: &QueuePair, psn: u32, rkey: Rkey, va: u64, len: u32) -> RocePacket {
        RocePacket::new(
            qp.peer,
            RoceEndpoint {
                mac: MacAddr::local(1),
                ip: 0x0a000001,
            },
            100,
            Bth::new(Opcode::ReadRequest, qp.qpn, psn),
            RoceExt::Reth(Reth {
                va,
                rkey,
                dma_len: len,
            }),
            vec![],
        )
    }

    #[test]
    fn write_only_executes_and_advances() {
        let (local, mut qp, mut mrs, rkey, base) = setup();
        let req = write_req(&qp, 0, rkey, base + 8, vec![7; 100]);
        let r = process_request(local, &mut qp, &mut mrs, &req, 2048);
        assert_eq!(r.outcome, Outcome::WriteExecuted { bytes: 100 });
        assert!(r.responses.is_empty(), "no ACK unless requested");
        assert_eq!(qp.epsn, 1);
        assert_eq!(qp.msn, 1);
        assert_eq!(
            mrs.get(rkey).unwrap().read(base + 8, 100).unwrap(),
            &[7u8; 100][..]
        );
    }

    #[test]
    fn write_with_ack_req_is_acked() {
        let (local, mut qp, mut mrs, rkey, base) = setup();
        let mut req = write_req(&qp, 0, rkey, base, vec![1; 8]);
        req.bth.ack_req = true;
        let r = process_request(local, &mut qp, &mut mrs, &req, 2048);
        assert_eq!(r.responses.len(), 1);
        let ack = &r.responses[0];
        assert_eq!(ack.bth.opcode, Opcode::Acknowledge);
        assert_eq!(ack.bth.dest_qp, qp.peer_qpn);
        assert!(matches!(ack.ext, RoceExt::Aeth(a) if a.is_ack()));
    }

    #[test]
    fn read_single_packet() {
        let (local, mut qp, mut mrs, rkey, base) = setup();
        mrs.get_mut(rkey).unwrap().write(base, &[9; 300]).unwrap();
        let req = read_req(&qp, 0, rkey, base, 300);
        let r = process_request(local, &mut qp, &mut mrs, &req, 2048);
        assert_eq!(r.outcome, Outcome::ReadServed { bytes: 300 });
        assert_eq!(r.responses.len(), 1);
        assert_eq!(r.responses[0].bth.opcode, Opcode::ReadRespOnly);
        assert_eq!(r.responses[0].payload, vec![9; 300]);
        assert_eq!(r.responses[0].bth.psn, 0);
        assert_eq!(qp.epsn, 1);
    }

    fn is_nak(resp: &RocePacket, code: NakCode) -> bool {
        matches!(resp.ext, RoceExt::Aeth(a) if a.syndrome == Syndrome::Nak(code))
    }

    #[test]
    fn read_over_the_mtu_is_invalid() {
        // Every message is one packet: a READ one byte over the MTU is
        // refused whole, and consumes its PSN once.
        let (local, mut qp, mut mrs, rkey, base) = setup();
        let req = read_req(&qp, 0, rkey, base, MTU as u32 + 1);
        let r = process_request(local, &mut qp, &mut mrs, &req, MTU);
        assert_eq!(r.outcome, Outcome::Nak(NakCode::InvalidRequest));
        assert!(is_nak(&r.responses[0], NakCode::InvalidRequest));
        assert_eq!((qp.epsn, qp.msn), (1, 0));
        // Its duplicate is refused the same way and moves nothing.
        let r = process_request(local, &mut qp, &mut mrs, &req, MTU);
        assert_eq!(r.outcome, Outcome::Duplicate);
        assert!(is_nak(&r.responses[0], NakCode::InvalidRequest));
        assert_eq!((qp.epsn, qp.msn), (1, 0));
        // A READ of exactly the MTU is one response packet.
        let req = read_req(&qp, 1, rkey, base, MTU as u32);
        let r = process_request(local, &mut qp, &mut mrs, &req, MTU);
        assert_eq!(r.outcome, Outcome::ReadServed { bytes: MTU as u64 });
        assert_eq!(r.responses[0].bth.opcode, Opcode::ReadRespOnly);
        assert_eq!((qp.epsn, qp.msn), (2, 1));
    }

    #[test]
    fn write_over_the_mtu_is_invalid() {
        // A WRITE one byte over the MTU is refused whole: none of it lands,
        // and it consumes its PSN once.
        let (local, mut qp, mut mrs, rkey, base) = setup();
        let req = write_req(&qp, 0, rkey, base, vec![7; MTU + 1]);
        let r = process_request(local, &mut qp, &mut mrs, &req, MTU);
        assert_eq!(r.outcome, Outcome::Nak(NakCode::InvalidRequest));
        assert!(is_nak(&r.responses[0], NakCode::InvalidRequest));
        assert_eq!((qp.epsn, qp.msn), (1, 0));
        let region = mrs.get(rkey).unwrap();
        assert_eq!(
            region.read(base, MTU as u64 + 1).unwrap(),
            &[0u8; MTU + 1][..]
        );
        // A WRITE of exactly the MTU executes.
        let req = write_req(&qp, 1, rkey, base, vec![7; MTU]);
        let r = process_request(local, &mut qp, &mut mrs, &req, MTU);
        assert_eq!(r.outcome, Outcome::WriteExecuted { bytes: MTU as u64 });
        assert_eq!((qp.epsn, qp.msn), (2, 1));
    }

    #[test]
    fn fetch_add_returns_original_and_updates() {
        let (local, mut qp, mut mrs, rkey, base) = setup();
        mrs.get_mut(rkey)
            .unwrap()
            .write(base, &10u64.to_be_bytes())
            .unwrap();
        let req = RocePacket::new(
            qp.peer,
            local,
            100,
            Bth::new(Opcode::FetchAdd, qp.qpn, 0),
            RoceExt::AtomicEth(extmem_wire::atomic::AtomicEth {
                va: base,
                rkey,
                swap_add: 32,
                compare: 0,
            }),
            vec![],
        );
        let r = process_request(local, &mut qp, &mut mrs, &req, 2048);
        assert_eq!(r.outcome, Outcome::AtomicExecuted);
        assert!(matches!(r.responses[0].ext, RoceExt::AtomicAck(_, a) if a.original_value == 10));
        let now = mrs.get(rkey).unwrap().read(base, 8).unwrap();
        assert_eq!(u64::from_be_bytes(now.try_into().unwrap()), 42);
    }

    #[test]
    fn sequence_gap_naks_once_then_drops() {
        let (local, mut qp, mut mrs, rkey, base) = setup();
        let req = write_req(&qp, 5, rkey, base, vec![1; 4]);
        let r = process_request(local, &mut qp, &mut mrs, &req, 2048);
        assert!(matches!(r.outcome, Outcome::Nak(NakCode::PsnSequenceError)));
        assert!(matches!(
            r.responses[0].ext,
            RoceExt::Aeth(a) if !a.is_ack()
        ));
        // Second out-of-order packet: silent drop.
        let req = write_req(&qp, 6, rkey, base, vec![1; 4]);
        let r = process_request(local, &mut qp, &mut mrs, &req, 2048);
        assert_eq!(r.outcome, Outcome::OutOfSequenceDropped);
        // In-order packet clears the NAK state and executes.
        let req = write_req(&qp, 0, rkey, base, vec![1; 4]);
        let r = process_request(local, &mut qp, &mut mrs, &req, 2048);
        assert_eq!(r.outcome, Outcome::WriteExecuted { bytes: 4 });
        assert!(!qp.nak_outstanding);
    }

    /// A connect request at `psn`, from `qp`'s peer.
    fn connect_req(qp: &QueuePair, local: RoceEndpoint, psn: u32) -> RocePacket {
        let bth = Bth::new(Opcode::Connect, qp.qpn, psn);
        RocePacket::new(qp.peer, local, 100, bth, RoceExt::None, vec![])
    }

    #[test]
    fn an_unconnected_qp_drops_every_request_but_a_connect() {
        let (local, mut qp, mut mrs, rkey, base) = setup();
        qp.connected = false;
        let requests = [
            write_req(&qp, 0, rkey, base, vec![1; 8]),
            read_req(&qp, 0, rkey, base, 8),
            add_one(&qp, local, rkey, base, 0),
        ];
        for req in &requests {
            let r = process_request(local, &mut qp, &mut mrs, req, 2048);
            assert_eq!(r.outcome, Outcome::Unconnected);
            assert!(r.responses.is_empty());
        }
        assert_eq!(mrs.get(rkey).unwrap().read(base, 8).unwrap(), &[0; 8]);
        // A connect at any PSN connects it, just past that PSN.
        let connect = connect_req(&qp, local, 900);
        let r = process_request(local, &mut qp, &mut mrs, &connect, 2048);
        assert_eq!(r.outcome, Outcome::Connected);
        assert_eq!(r.responses[0].bth.opcode, Opcode::Acknowledge);
        assert_eq!(r.responses[0].bth.psn, 900);
        assert!(matches!(r.responses[0].ext, RoceExt::Aeth(a) if a.is_ack()));
        assert!(qp.connected && qp.epsn == 901);
        let add = add_one(&qp, local, rkey, base, 901);
        let r = process_request(local, &mut qp, &mut mrs, &add, 2048);
        assert_eq!(
            (r.outcome, original(&r)),
            (Outcome::AtomicExecuted, Some(0))
        );
    }

    #[test]
    fn a_connect_re_anchors_a_live_qp_and_what_lies_behind_it_is_a_duplicate() {
        let (local, mut qp, mut mrs, rkey, base) = setup();
        for psn in 0..2 {
            let req = add_one(&qp, local, rkey, base, psn);
            process_request(local, &mut qp, &mut mrs, &req, 2048);
        }
        // The QP NAKed a gap at PSN 2 and expects it still.
        let ahead = write_req(&qp, 5, rkey, base + 8, vec![1; 8]);
        process_request(local, &mut qp, &mut mrs, &ahead, 2048);
        assert!(qp.nak_outstanding);
        let connect = connect_req(&qp, local, 7);
        let r = process_request(local, &mut qp, &mut mrs, &connect, 2048);
        assert_eq!(r.outcome, Outcome::Connected);
        assert_eq!((qp.epsn, qp.nak_outstanding), (8, false));
        assert!(qp.atomic_results.iter().all(Option::is_none));
        // A straggler from behind the old expected PSN is a duplicate, not a
        // gap to NAK: it moves nothing, and asks no ACK, so draws none.
        let straggler = write_req(&qp, 3, rkey, base + 8, vec![2; 8]);
        let r = process_request(local, &mut qp, &mut mrs, &straggler, 2048);
        assert_eq!(r.outcome, Outcome::Duplicate);
        assert!(r.responses.is_empty());
        // So is a re-send of the connect itself, acknowledged again.
        let r = process_request(local, &mut qp, &mut mrs, &connect, 2048);
        assert_eq!((r.outcome, r.responses[0].bth.psn), (Outcome::Duplicate, 7));
        assert_eq!(qp.epsn, 8);
        let region = mrs.get(rkey).unwrap().read(base, 16).unwrap();
        assert_eq!(region, [2u64.to_be_bytes(), [0; 8]].concat());
        let next = write_req(&qp, 8, rkey, base + 8, vec![3; 8]);
        let r = process_request(local, &mut qp, &mut mrs, &next, 2048);
        assert_eq!(r.outcome, Outcome::WriteExecuted { bytes: 8 });
    }

    #[test]
    fn a_uc_qp_executes_the_request_after_a_gap_without_a_nak() {
        let (local, qp, mut mrs, rkey, base) = setup();
        let mut qp = qp.relaxed();
        let req = add_one(&qp, local, rkey, base, 0);
        process_request(local, &mut qp, &mut mrs, &req, 2048);
        // PSNs 1 and 2 were lost: PSN 3 runs, and so does everything after.
        for psn in 3..5 {
            let req = add_one(&qp, local, rkey, base, psn);
            let r = process_request(local, &mut qp, &mut mrs, &req, 2048);
            assert_eq!(r.outcome, Outcome::AtomicExecuted);
            assert_eq!(r.responses[0].bth.opcode, Opcode::AtomicAcknowledge);
        }
        assert_eq!((qp.epsn, qp.nak_outstanding), (5, false));
        let now = mrs.get(rkey).unwrap().read(base, 8).unwrap();
        assert_eq!(now, 3u64.to_be_bytes());
    }

    #[test]
    fn duplicate_write_is_acked_without_effect() {
        let (local, mut qp, mut mrs, rkey, base) = setup();
        let req = write_req(&qp, 0, rkey, base, vec![1; 4]);
        process_request(local, &mut qp, &mut mrs, &req, 2048);
        // Same PSN again with different payload, asking for an ACK: no
        // effect, gets one.
        let mut dup = write_req(&qp, 0, rkey, base, vec![9; 4]);
        dup.bth.ack_req = true;
        let r = process_request(local, &mut qp, &mut mrs, &dup, 2048);
        assert_eq!(r.outcome, Outcome::Duplicate);
        assert_eq!(r.responses.len(), 1);
        assert_eq!(mrs.get(rkey).unwrap().read(base, 4).unwrap(), &[1, 1, 1, 1]);
    }

    /// A go-back-N volley re-sends n WRITEs the responder already executed,
    /// only the last asking for an ACK: that one ACK, of the last PSN,
    /// confirms them all, so the others draw none, and none runs again.
    #[test]
    fn duplicate_writes_draw_one_ack_for_the_one_that_asked() {
        let (local, mut qp, mut mrs, rkey, base) = setup();
        const N: u32 = 5;
        let write = |qp: &QueuePair, psn: u32, byte: u8| {
            let mut req = write_req(qp, psn, rkey, base + 4 * psn as u64, vec![byte; 4]);
            req.bth.ack_req = psn == N;
            req
        };
        for psn in 0..=N {
            let req = write(&qp, psn, 1);
            process_request(local, &mut qp, &mut mrs, &req, 2048);
        }
        let acks: Vec<RocePacket> = (0..=N)
            .flat_map(|psn| {
                let dup = write(&qp, psn, 9);
                let r = process_request(local, &mut qp, &mut mrs, &dup, 2048);
                assert_eq!(r.outcome, Outcome::Duplicate);
                r.responses
            })
            .collect();
        assert_eq!(acks.len(), 1, "{acks:?}");
        assert_eq!(acks[0].bth.opcode, Opcode::Acknowledge);
        assert_eq!(acks[0].bth.psn, N);
        let region = mrs
            .get(rkey)
            .unwrap()
            .read(base, 4 * (N as u64 + 1))
            .unwrap();
        assert!(region.iter().all(|&b| b == 1), "a duplicate ran again");
    }

    #[test]
    fn duplicate_atomic_replays_original_value() {
        let (local, mut qp, mut mrs, rkey, base) = setup();
        let qpn = qp.qpn;
        let peer = qp.peer;
        let fa = move |psn| {
            RocePacket::new(
                peer,
                local,
                100,
                Bth::new(Opcode::FetchAdd, qpn, psn),
                RoceExt::AtomicEth(extmem_wire::atomic::AtomicEth {
                    va: base,
                    rkey,
                    swap_add: 1,
                    compare: 0,
                }),
                vec![],
            )
        };
        process_request(local, &mut qp, &mut mrs, &fa(0), 2048);
        let r = process_request(local, &mut qp, &mut mrs, &fa(0), 2048);
        assert_eq!(r.outcome, Outcome::Duplicate);
        // Replay carries the original value 0, and memory is NOT re-added.
        assert!(matches!(r.responses[0].ext, RoceExt::AtomicAck(_, a) if a.original_value == 0));
        let now = mrs.get(rkey).unwrap().read(base, 8).unwrap();
        assert_eq!(u64::from_be_bytes(now.try_into().unwrap()), 1);
    }

    /// A Fetch-and-Add of 1 at `base` under `psn`, from `qp`'s peer.
    fn add_one(qp: &QueuePair, local: RoceEndpoint, rkey: Rkey, base: u64, psn: u32) -> RocePacket {
        let atomic = extmem_wire::atomic::AtomicEth {
            va: base,
            rkey,
            swap_add: 1,
            compare: 0,
        };
        let bth = Bth::new(Opcode::FetchAdd, qp.qpn, psn);
        RocePacket::new(qp.peer, local, 100, bth, RoceExt::AtomicEth(atomic), vec![])
    }

    /// The original value a response carries, if it is an atomic's
    /// acknowledgement.
    fn original(r: &Served) -> Option<u64> {
        match r.responses[..] {
            [RocePacket {
                ext: RoceExt::AtomicAck(_, ack),
                ..
            }] => Some(ack.original_value),
            _ => None,
        }
    }

    #[test]
    fn a_duplicate_of_an_older_atomic_replays_its_own_value() {
        let (local, mut qp, mut mrs, rkey, base) = setup();
        for psn in 0..3 {
            let req = add_one(&qp, local, rkey, base, psn);
            process_request(local, &mut qp, &mut mrs, &req, 2048);
        }
        // The second-newest atomic's re-send gets the value it saw, 1, and
        // adds nothing.
        let dup = add_one(&qp, local, rkey, base, 1);
        let r = process_request(local, &mut qp, &mut mrs, &dup, 2048);
        assert_eq!((r.outcome, original(&r)), (Outcome::Duplicate, Some(1)));
        assert_eq!(r.responses[0].bth.psn, 1);
        let now = mrs.get(rkey).unwrap().read(base, 8).unwrap();
        assert_eq!(now, 3u64.to_be_bytes());
    }

    #[test]
    fn a_duplicate_older_than_the_ring_is_refused_without_moving_the_sequence() {
        let (local, mut qp, mut mrs, rkey, base) = setup();
        let n = ATOMIC_RESULTS as u32 + 1;
        for psn in 0..n {
            let req = add_one(&qp, local, rkey, base, psn);
            process_request(local, &mut qp, &mut mrs, &req, 2048);
        }
        // PSN 0's result was overwritten by PSN 64's; PSN 1's is still held.
        let stale = add_one(&qp, local, rkey, base, 0);
        let r = process_request(local, &mut qp, &mut mrs, &stale, 2048);
        assert_eq!(r.outcome, Outcome::Nak(NakCode::InvalidRequest));
        assert!(is_nak(&r.responses[0], NakCode::InvalidRequest));
        assert_eq!(r.responses[0].bth.psn, n, "the NAK names the expected PSN");
        assert_eq!((qp.epsn, qp.msn), (n, n));
        let held = add_one(&qp, local, rkey, base, 1);
        let r = process_request(local, &mut qp, &mut mrs, &held, 2048);
        assert_eq!(original(&r), Some(1));
        assert_eq!((qp.epsn, qp.msn), (n, n));
        let now = mrs.get(rkey).unwrap().read(base, 8).unwrap();
        assert_eq!(now, u64::from(n).to_be_bytes());
    }

    #[test]
    fn access_violation_naks() {
        let (local, mut qp, mut mrs, rkey, base) = setup();
        let req = write_req(&qp, 0, rkey, base + 64_000, vec![1; 128]);
        let r = process_request(local, &mut qp, &mut mrs, &req, 2048);
        assert!(matches!(
            r.outcome,
            Outcome::Nak(NakCode::RemoteAccessError)
        ));
        // Unknown rkey too.
        let req = write_req(&qp, 1, Rkey(999), base, vec![1; 4]);
        let r = process_request(local, &mut qp, &mut mrs, &req, 2048);
        assert!(matches!(
            r.outcome,
            Outcome::Nak(NakCode::RemoteAccessError)
        ));
    }

    #[test]
    fn psn_sequence_wraps_across_2_24() {
        // Start 2 PSNs before the 24-bit wrap; three in-order writes must
        // all execute, with epsn wrapping to 1.
        let (local, _qp, mut mrs, rkey, base) = setup();
        let peer = RoceEndpoint {
            mac: MacAddr::local(2),
            ip: 0x0a000002,
        };
        let mut qp = QueuePair::new(QpNum(0x100), peer, QpNum(0x200), 0xff_fffe);
        for (i, psn) in [0xff_fffeu32, 0xff_ffff, 0].into_iter().enumerate() {
            let req = write_req(&qp, psn, rkey, base + i as u64 * 8, vec![i as u8 + 1; 8]);
            let r = process_request(local, &mut qp, &mut mrs, &req, 2048);
            assert!(
                matches!(r.outcome, Outcome::WriteExecuted { .. }),
                "psn {psn:#x}: {:?}",
                r.outcome
            );
        }
        assert_eq!(qp.epsn, 1);
        assert_eq!(qp.msn, 3);
        // And a duplicate from before the wrap is recognized as such.
        let dup = write_req(&qp, 0xff_ffff, rkey, base, vec![9; 8]);
        let r = process_request(local, &mut qp, &mut mrs, &dup, 2048);
        assert_eq!(r.outcome, Outcome::Duplicate);
    }

    fn remote_req(qpn: QpNum, psn: u32, ext: RoceExt, payload: Vec<u8>) -> RocePacket {
        let opcode = match ext {
            RoceExt::HashProbe(_) => Opcode::HashProbe,
            RoceExt::Gather(_) => Opcode::GatherWalk,
            _ => panic!("not a remote op ext"),
        };
        let ep = RoceEndpoint {
            mac: extmem_wire::MacAddr::local(1),
            ip: 0x0a000001,
        };
        RocePacket::new(ep, ep, 100, Bth::new(opcode, qpn, psn), ext, payload)
    }

    #[test]
    fn gather_walk_concatenates_in_request_order() {
        let (local, mut qp, mut mrs, rkey, base) = setup();
        let qpn = qp.qpn;
        let region = mrs.get_mut(rkey).unwrap();
        for i in 0..4u8 {
            region.write(base + 100 * i as u64, &[i + 1; 16]).unwrap();
        }
        let vas = [base + 300, base, base + 100, base + 200];
        let mut payload = Vec::new();
        for va in vas {
            payload.extend_from_slice(&va.to_be_bytes());
        }
        let req = remote_req(
            qpn,
            0,
            RoceExt::Gather(GatherEth {
                rkey,
                word_len: 16,
                count: 4,
            }),
            payload,
        );
        let r = process_request(local, &mut qp, &mut mrs, &req, 2048);
        assert_eq!(
            r.outcome,
            Outcome::ExtOpExecuted {
                steps: 4,
                bytes: 64
            }
        );
        assert_eq!(r.responses.len(), 1, "one RTT regardless of depth");
        let resp = &r.responses[0];
        assert_eq!(resp.bth.opcode, Opcode::ReadRespOnly);
        assert_eq!(resp.bth.psn, 0);
        let mut want = vec![4u8; 16];
        want.extend_from_slice(&[1; 16]);
        want.extend_from_slice(&[2; 16]);
        want.extend_from_slice(&[3; 16]);
        assert_eq!(resp.payload, want);
        assert_eq!(qp.epsn, 1, "a remote op consumes exactly one PSN");
        assert_eq!(qp.msn, 1);
    }

    #[test]
    fn gather_walk_over_bound_is_invalid() {
        let (local, mut qp, mut mrs, rkey, base) = setup();
        let qpn = qp.qpn;
        let count = MAX_GATHER + 1;
        let mut payload = Vec::new();
        for _ in 0..count {
            payload.extend_from_slice(&base.to_be_bytes());
        }
        let req = remote_req(
            qpn,
            0,
            RoceExt::Gather(GatherEth {
                rkey,
                word_len: 16,
                count: count as u16,
            }),
            payload,
        );
        let r = process_request(local, &mut qp, &mut mrs, &req, 2048);
        assert!(matches!(r.outcome, Outcome::Nak(NakCode::InvalidRequest)));
    }

    #[test]
    fn hash_probe_returns_the_matched_slot_or_nothing() {
        let (local, mut qp, mut mrs, rkey, base) = setup();
        let qpn = qp.qpn;
        // 2 buckets of 4 x 32 B slots; key field is bytes 0..14 of a slot,
        // the rest of each slot its own ramp.
        let key_a = [0xaau8; 14];
        let key_b = [0xbbu8; 14];
        let region = mrs.get_mut(rkey).unwrap();
        let ramp: Vec<u8> = (0..256u32).map(|i| i as u8).collect();
        region.write(base, &ramp).unwrap();
        region.write(base + 2 * 32, &key_a).unwrap(); // bucket 0, slot 2
        region.write(base + 128 + 32, &key_b).unwrap(); // bucket 1, slot 1
        let slot = |at: usize, key: [u8; 14]| [&key[..], &ramp[at + 14..at + 32]].concat();
        let mut probe = |psn, key: [u8; 14], bucket: u64| {
            let ext = RoceExt::HashProbe(HashProbeEth {
                va: base + bucket * 128,
                rkey,
                len: 128,
                slot_bytes: 32,
                key_off: 0,
                key_len: key.len() as u8,
            });
            let req = remote_req(qpn, psn, ext, key.to_vec());
            let r = process_request(local, &mut qp, &mut mrs, &req, 2048);
            assert_eq!(r.responses.len(), 1);
            assert_eq!(r.responses[0].bth.opcode, Opcode::ReadRespOnly);
            (r.outcome, r.responses[0].payload.to_vec())
        };
        // A hit in either bucket: one access, and exactly the 32 matching
        // slot bytes back.
        let hit = |at, key| {
            (
                Outcome::ExtOpExecuted {
                    steps: 1,
                    bytes: 32,
                },
                slot(at, key),
            )
        };
        assert_eq!(probe(0, key_a, 0), hit(2 * 32, key_a));
        assert_eq!(probe(1, key_b, 1), hit(128 + 32, key_b));
        // A key in the other bucket, or in neither: a miss, answered with no
        // bytes at all.
        let miss = (Outcome::ExtOpExecuted { steps: 1, bytes: 0 }, vec![]);
        assert_eq!(probe(2, key_b, 0), miss);
        assert_eq!(probe(3, [0xcc; 14], 1), miss);
    }

    /// A probe of one slot in the middle of a bucket (a span of one slot,
    /// as the cuckoo lookup names it) answers from that slot alone: a key
    /// one slot over is a miss.
    #[test]
    fn a_one_slot_probe_scans_that_slot_alone() {
        let (local, mut qp, mut mrs, rkey, base) = setup();
        let qpn = qp.qpn;
        let (key_a, key_b) = ([0xaau8; 14], [0xbbu8; 14]);
        let region = mrs.get_mut(rkey).unwrap();
        let ramp: Vec<u8> = (0..128u32).map(|i| i as u8).collect();
        region.write(base, &ramp).unwrap();
        region.write(base + 2 * 32, &key_a).unwrap(); // slot 2
        region.write(base + 3 * 32, &key_b).unwrap(); // slot 3
        let mut probe = |psn, key: [u8; 14]| {
            let ext = RoceExt::HashProbe(HashProbeEth {
                va: base + 2 * 32,
                rkey,
                len: 32,
                slot_bytes: 32,
                key_off: 0,
                key_len: key.len() as u8,
            });
            let req = remote_req(qpn, psn, ext, key.to_vec());
            let r = process_request(local, &mut qp, &mut mrs, &req, 2048);
            (r.outcome, r.responses[0].payload.to_vec())
        };
        let slot_a = [&key_a[..], &ramp[2 * 32 + 14..3 * 32]].concat();
        let hit = Outcome::ExtOpExecuted {
            steps: 1,
            bytes: 32,
        };
        assert_eq!(probe(0, key_a), (hit, slot_a));
        let miss = (Outcome::ExtOpExecuted { steps: 1, bytes: 0 }, vec![]);
        assert_eq!(probe(1, key_b), miss);
    }

    #[test]
    fn hash_probe_past_the_end_of_the_address_space_is_an_access_error() {
        // A span whose end would overflow names no region, and is NAKed
        // like any other address outside one.
        let (local, mut qp, mut mrs, rkey, _) = setup();
        let ext = RoceExt::HashProbe(HashProbeEth {
            va: u64::MAX - 8,
            rkey,
            len: 128,
            slot_bytes: 32,
            key_off: 0,
            key_len: 13,
        });
        let req = remote_req(qp.qpn, 0, ext, vec![7; 13]);
        let r = process_request(local, &mut qp, &mut mrs, &req, 2048);
        assert_eq!(r.outcome, Outcome::Nak(NakCode::RemoteAccessError));
        assert!(is_nak(&r.responses[0], NakCode::RemoteAccessError));
        assert_eq!((qp.epsn, qp.msn), (1, 0));
    }

    #[test]
    fn duplicate_gather_reexecutes_like_a_read() {
        let (local, mut qp, mut mrs, rkey, base) = setup();
        let qpn = qp.qpn;
        mrs.get_mut(rkey).unwrap().write(base, &[3u8; 16]).unwrap();
        let mk = |psn| {
            remote_req(
                qpn,
                psn,
                RoceExt::Gather(GatherEth {
                    rkey,
                    word_len: 16,
                    count: 1,
                }),
                base.to_be_bytes().to_vec(),
            )
        };
        let fresh = mk(0);
        process_request(local, &mut qp, &mut mrs, &fresh, 2048);
        let dup = mk(0);
        let r = process_request(local, &mut qp, &mut mrs, &dup, 2048);
        assert_eq!(r.outcome, Outcome::Duplicate);
        assert_eq!(r.responses[0].bth.opcode, Opcode::ReadRespOnly);
        assert_eq!(r.responses[0].payload, vec![3u8; 16]);
        assert_eq!(qp.epsn, 1, "duplicate must not advance the sequence");
    }

    /// The frame the pre-encoding responder would have handed the NIC: a
    /// `RocePacket` from this QP to its peer, built by the packet encoder.
    fn built(
        local: RoceEndpoint,
        qp: &QueuePair,
        opcode: Opcode,
        psn: u32,
        ext: RoceExt,
        data: &[u8],
    ) -> Packet {
        RocePacket::new(
            local,
            qp.peer,
            qp.udp_src_port,
            Bth::new(opcode, qp.peer_qpn, psn),
            ext,
            data.to_vec(),
        )
        .build()
        .unwrap()
    }

    #[test]
    fn response_frames_are_what_the_packet_builder_would_have_built() {
        let (local, mut qp, mut mrs, rkey, base) = setup();
        let image: Vec<u8> = (0..4096u32).map(|i| (i * 5 + 1) as u8).collect();
        mrs.get_mut(rkey).unwrap().write(base, &image).unwrap();
        let qpn = qp.qpn;
        const MTU: usize = 1024;
        let serve = |qp: &mut QueuePair, mrs: &mut MrTable, req: &RocePacket| {
            let span = CounterSpan::begin();
            let r = super::process_request(local, qp, mrs, req, MTU);
            let frames = Vec::from_iter(r.response);
            assert_eq!(span.allocs(), frames.len() as u64, "{:?}", r.outcome);
            frames
        };
        let nak = |qp: &QueuePair, code| {
            built(
                local,
                qp,
                Opcode::Acknowledge,
                qp.epsn,
                RoceExt::Aeth(Aeth::nak(code, qp.msn)),
                &[],
            )
        };
        // A READ response, or a remote op's: the AETH carries the MSN from
        // before the request completed.
        let read_resp = |qp: &QueuePair, psn, data: &[u8]| {
            let ext = RoceExt::Aeth(Aeth::ack(qp.msn));
            [built(local, qp, Opcode::ReadRespOnly, psn, ext, data)]
        };

        // READ answered by one packet.
        let read1 = read_req(&qp, 0, rkey, base + 10, 300);
        let want = read_resp(&qp, 0, &image[10..310]);
        assert_eq!(serve(&mut qp, &mut mrs, &read1), want);

        // A READ over the MTU is refused whole, and so is its duplicate,
        // which leaves the sequence alone.
        let long = read_req(&qp, 1, rkey, base, MTU as u32 + 1);
        let got = serve(&mut qp, &mut mrs, &long);
        assert_eq!(got, [nak(&qp, NakCode::InvalidRequest)]);
        let got = serve(&mut qp, &mut mrs, &long);
        assert_eq!(got, [nak(&qp, NakCode::InvalidRequest)]);

        // A READ of exactly the MTU is one packet. Its duplicate is
        // re-executed, under the MSN of the moment.
        let full = read_req(&qp, 2, rkey, base, MTU as u32);
        let want = read_resp(&qp, 2, &image[..MTU]);
        assert_eq!(serve(&mut qp, &mut mrs, &full), want);
        let want = read_resp(&qp, 2, &image[..MTU]);
        assert_eq!(serve(&mut qp, &mut mrs, &full), want);

        // A WRITE over the MTU is refused whole.
        let long = write_req(&qp, 3, rkey, base, vec![9; MTU + 1]);
        let got = serve(&mut qp, &mut mrs, &long);
        assert_eq!(got, [nak(&qp, NakCode::InvalidRequest)]);
        assert_eq!((qp.epsn, qp.msn), (4, 2));

        // Each remote op: one READ response of the bytes it fetched.
        let gather = remote_req(
            qpn,
            4,
            RoceExt::Gather(GatherEth {
                rkey,
                word_len: 8,
                count: 3,
            }),
            [base + 800, base + 8, base + 64]
                .iter()
                .flat_map(|va| va.to_be_bytes())
                .collect(),
        );
        let words = [&image[800..808], &image[8..16], &image[64..72]].concat();
        let want = read_resp(&qp, 4, &words);
        assert_eq!(serve(&mut qp, &mut mrs, &gather), want);

        let probe = |psn, key: &[u8]| {
            remote_req(
                qpn,
                psn,
                RoceExt::HashProbe(HashProbeEth {
                    va: base + 352,
                    rkey,
                    len: 32,
                    slot_bytes: 16,
                    key_off: 2,
                    key_len: key.len() as u8,
                }),
                key.to_vec(),
            )
        };
        // Slot 1 of bucket 3: that slot alone comes back; a miss, nothing.
        let hit = probe(5, &image[352 + 18..352 + 22]);
        let want = read_resp(&qp, 5, &image[368..384]);
        assert_eq!(serve(&mut qp, &mut mrs, &hit), want);
        let want = read_resp(&qp, 6, &[]);
        assert_eq!(serve(&mut qp, &mut mrs, &probe(6, &[0xee; 4])), want);

        // Every NAK path: a request the op engine refuses, an access
        // outside the region, and a gap in the sequence (answered once).
        let over = remote_req(
            qpn,
            7,
            RoceExt::Gather(GatherEth {
                rkey,
                word_len: 8,
                count: 2,
            }),
            base.to_be_bytes().to_vec(), // one address short
        );
        let got = serve(&mut qp, &mut mrs, &over);
        assert_eq!(got, [nak(&qp, NakCode::InvalidRequest)]);
        let beyond = read_req(&qp, 8, rkey, base + 65_000, 1024);
        let got = serve(&mut qp, &mut mrs, &beyond);
        assert_eq!(got, [nak(&qp, NakCode::RemoteAccessError)]);
        let late = read_req(&qp, 11, rkey, base, 8);
        let got = serve(&mut qp, &mut mrs, &late);
        assert_eq!(got, [nak(&qp, NakCode::PsnSequenceError)]);
        assert!(serve(&mut qp, &mut mrs, &late).is_empty());

        // Duplicates of the ops above: a probe is re-executed like a READ,
        // under the MSN of the moment; a bad duplicate is NAKed without
        // touching the sequence.
        let want = read_resp(&qp, 5, &image[368..384]);
        assert_eq!(serve(&mut qp, &mut mrs, &hit), want);
        let got = serve(&mut qp, &mut mrs, &over);
        assert_eq!(got, [nak(&qp, NakCode::InvalidRequest)]);
        let got = serve(&mut qp, &mut mrs, &beyond);
        assert_eq!(got, [nak(&qp, NakCode::RemoteAccessError)]);
        assert_eq!((qp.epsn, qp.msn), (9, 5));
    }

    #[test]
    fn write_len_mismatch_is_invalid() {
        let (local, mut qp, mut mrs, rkey, base) = setup();
        let mut req = write_req(&qp, 0, rkey, base, vec![1; 16]);
        if let RoceExt::Reth(ref mut r) = req.ext {
            r.dma_len = 32;
        }
        let r = process_request(local, &mut qp, &mut mrs, &req, 2048);
        assert!(matches!(r.outcome, Outcome::Nak(NakCode::InvalidRequest)));
    }
}
