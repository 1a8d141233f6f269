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

use crate::mr::{AccessError, MrTable};
use crate::qp::QueuePair;
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

    if qp.resync_next {
        // Post-restart re-handshake: adopt the first arriving PSN as the
        // expected sequence and check strictly from there.
        qp.resync_next = false;
        qp.epsn = psn;
        qp.nak_outstanding = false;
    }
    if psn_before(psn, qp.epsn) {
        return duplicate(local, qp, mrs, req, mtu);
    }
    if psn != qp.epsn {
        if qp.relaxed_psn {
            // Best-effort channel: jump forward over the gap (the lost
            // requests are simply lost) and process this one in order.
            qp.epsn = psn;
        } else {
            // Strict RC: NAK once, then drop until the requester resyncs.
            if qp.nak_outstanding {
                return ResponderResult {
                    response: None,
                    outcome: Outcome::OutOfSequenceDropped,
                };
            }
            qp.nak_outstanding = true;
            return nak(local, qp, NakCode::PsnSequenceError);
        }
    }
    qp.nak_outstanding = false;

    match req.bth.opcode {
        Opcode::WriteOnly => {
            let RoceExt::Reth(reth) = req.ext else {
                return invalid(local, qp);
            };
            if reth.dma_len as usize != req.payload.len() || req.payload.len() > mtu {
                return invalid(local, qp);
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
                Err(e) => access_nak(local, qp, e),
            }
        }
        Opcode::ReadRequest | Opcode::HashProbe | Opcode::GatherWalk => {
            serve_read(local, qp, mrs, req, mtu, false)
        }
        Opcode::FetchAdd => {
            let RoceExt::AtomicEth(a) = req.ext else {
                return invalid(local, qp);
            };
            match mrs
                .get_mut(a.rkey)
                .and_then(|r| r.fetch_add(a.va, a.swap_add))
            {
                Ok(original) => {
                    qp.epsn = psn_add(qp.epsn, 1);
                    qp.msn = (qp.msn + 1) & 0xff_ffff;
                    qp.last_atomic = Some((psn, original));
                    answered(
                        atomic_ack(local, qp, psn, original),
                        Outcome::AtomicExecuted,
                    )
                }
                Err(e) => access_nak(local, qp, e),
            }
        }
        _ => invalid(local, qp),
    }
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
        // Duplicate atomics replay the saved original value when possible.
        Opcode::FetchAdd => match qp.last_atomic {
            Some((psn, original)) if psn == req.bth.psn => atomic_ack(local, qp, psn, original),
            _ => plain_ack(local, qp, req.bth.psn),
        },
        // Duplicate writes: acknowledge, do not re-execute.
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
        Err(code) => {
            // A bad duplicate must not perturb the live sequence state.
            if !is_duplicate {
                qp.epsn = psn_add(qp.epsn, 1);
            }
            return nak(local, qp, code);
        }
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
            let bucket_bytes = h.bucket_bytes as usize;
            let slot_bytes = h.slot_bytes as usize;
            if key.len() != key_len
                || key_len == 0
                || slot_bytes == 0
                || bucket_bytes == 0
                || key_off + key_len > slot_bytes
                || !bucket_bytes.is_multiple_of(slot_bytes)
                || bucket_bytes > mtu
            {
                return Err(NakCode::InvalidRequest);
            }
            let region = mrs.get(h.rkey)?;
            // An address past the end of the VA space names no region.
            let va = h
                .base_va
                .checked_add(h.bucket as u64 * bucket_bytes as u64)
                .ok_or(NakCode::RemoteAccessError)?;
            let bucket = region.read(va, bucket_bytes as u64)?;
            let hit = bucket
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
        Err(_) => ResponderResult {
            response: None,
            outcome: Outcome::ResponseDropped,
        },
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
        return ResponderResult {
            response: None,
            outcome,
        };
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

fn nak(local: RoceEndpoint, qp: &QueuePair, code: NakCode) -> ResponderResult {
    let response = respond(
        local,
        qp,
        Bth::new(Opcode::Acknowledge, qp.peer_qpn, qp.epsn),
        RoceExt::Aeth(Aeth::nak(code, qp.msn)),
        &[],
    );
    answered(response, Outcome::Nak(code))
}

fn invalid(local: RoceEndpoint, qp: &mut QueuePair) -> ResponderResult {
    // Advance past the broken request so the channel keeps flowing (a real
    // QP would enter the error state; see DESIGN.md for this divergence).
    qp.epsn = psn_add(qp.epsn, 1);
    nak(local, qp, NakCode::InvalidRequest)
}

fn access_nak(local: RoceEndpoint, qp: &mut QueuePair, err: AccessError) -> ResponderResult {
    let _ = err;
    qp.epsn = psn_add(qp.epsn, 1);
    nak(local, qp, NakCode::RemoteAccessError)
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

    #[test]
    fn duplicate_write_is_acked_without_effect() {
        let (local, mut qp, mut mrs, rkey, base) = setup();
        let req = write_req(&qp, 0, rkey, base, vec![1; 4]);
        process_request(local, &mut qp, &mut mrs, &req, 2048);
        // Same PSN again with different payload: no effect, gets an ACK.
        let dup = write_req(&qp, 0, rkey, base, vec![9; 4]);
        let r = process_request(local, &mut qp, &mut mrs, &dup, 2048);
        assert_eq!(r.outcome, Outcome::Duplicate);
        assert_eq!(r.responses.len(), 1);
        assert_eq!(mrs.get(rkey).unwrap().read(base, 4).unwrap(), &[1, 1, 1, 1]);
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
        let mut probe = |psn, key: [u8; 14], bucket| {
            let ext = RoceExt::HashProbe(HashProbeEth {
                base_va: base,
                rkey,
                bucket,
                bucket_bytes: 128,
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

    #[test]
    fn hash_probe_past_the_end_of_the_address_space_is_an_access_error() {
        // The bucket's address is computed from request fields: one that
        // would overflow names no region, and is NAKed like any other
        // address outside one.
        let (local, mut qp, mut mrs, rkey, _) = setup();
        let ext = RoceExt::HashProbe(HashProbeEth {
            base_va: u64::MAX - 8,
            rkey,
            bucket: 1,
            bucket_bytes: 128,
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
                    base_va: base + 256,
                    rkey,
                    bucket: 3,
                    bucket_bytes: 32,
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
