//! The RoCEv2 responder state machine.
//!
//! Given a parsed inbound request and the QP + memory-region state, decide
//! what DMA to perform and which response frames to emit. This is pure
//! protocol logic — the timing model lives in [`crate::nic`] — so it is
//! directly unit-testable.
//!
//! Responses leave here already encoded. A READ or remote-op response is
//! written once, from the [`crate::mr::MemoryRegion`] slice it returns
//! straight into a pooled frame buffer ([`RoceHeaders::encode`]): the region
//! bytes are never copied into an intermediate payload, and every response
//! — data, ACK or NAK — costs exactly one payload construction, the frame
//! itself. The NIC only queues what it is handed.

use crate::mr::{AccessError, MrTable};
use crate::qp::{QueuePair, WriteCursor};
use extmem_wire::aeth::{Aeth, NakCode};
use extmem_wire::atomic::AtomicAckEth;
use extmem_wire::bth::{psn_add, psn_before, Bth, Opcode};
use extmem_wire::extop::{ExtOpAckEth, IndirectMode, EXTOP_FLAG_HIT, EXTOP_FLAG_SECONDARY};
use extmem_wire::roce::{RoceEndpoint, RoceExt, RoceHeaders, RocePacket, ROCEV2_BASE_OVERHEAD};
use extmem_wire::{EthernetHeader, Packet};

/// Upper bound on dependent reads a single gather/walk op may perform. Keeps
/// the modeled NIC op engine line-rate: a request can occupy the execution
/// unit for at most this many memory accesses.
pub const MAX_GATHER: usize = 16;

/// Depth of the per-QP conditional-WRITE replay buffer (duplicate-request
/// replay, mirroring the bounded responder resources real RNICs dedicate to
/// atomic replay).
pub const COND_REPLAY_DEPTH: usize = 16;

/// What the responder did with a request (for statistics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Payload bytes written to a region.
    WriteExecuted {
        /// Bytes DMA'd.
        bytes: u64,
    },
    /// A READ served with this many response packets / payload bytes.
    ReadServed {
        /// Response packets emitted.
        packets: u32,
        /// Payload bytes returned.
        bytes: u64,
    },
    /// An atomic executed.
    AtomicExecuted,
    /// A remote op executed in the NIC op engine.
    ExtOpExecuted {
        /// The request opcode.
        op: Opcode,
        /// Dependent memory accesses the op engine performed.
        steps: u32,
        /// Response payload bytes returned.
        bytes: u64,
    },
    /// A duplicate request was re-acknowledged (or replayed) without effect.
    Duplicate,
    /// A NAK was sent.
    Nak(NakCode),
    /// An out-of-sequence packet was dropped silently (NAK already
    /// outstanding for this gap).
    OutOfSequenceDropped,
}

/// The encoded response frames of one request, in order. Every request but
/// a READ longer than the MTU is answered by at most one frame, which is
/// held inline; reads as a slice either way.
#[derive(Debug)]
pub enum Responses {
    /// Nothing to send (an unacknowledged WRITE, a dropped request).
    None,
    /// The single response.
    One(Packet),
    /// A multi-packet READ response.
    Many(Vec<Packet>),
}

impl std::ops::Deref for Responses {
    type Target = [Packet];
    fn deref(&self) -> &[Packet] {
        match self {
            Responses::None => &[],
            Responses::One(p) => std::slice::from_ref(p),
            Responses::Many(v) => v,
        }
    }
}

impl IntoIterator for Responses {
    type Item = Packet;
    type IntoIter = std::iter::Chain<std::option::IntoIter<Packet>, std::vec::IntoIter<Packet>>;
    fn into_iter(self) -> Self::IntoIter {
        let (one, many) = match self {
            Responses::None => (None, Vec::new()),
            Responses::One(p) => (Some(p), Vec::new()),
            Responses::Many(v) => (None, v),
        };
        one.into_iter().chain(many)
    }
}

impl<'a> IntoIterator for &'a Responses {
    type Item = &'a Packet;
    type IntoIter = std::slice::Iter<'a, Packet>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// The result of processing one request packet.
#[derive(Debug)]
pub struct ResponderResult {
    /// Frames to transmit back to the requester, in order.
    pub responses: Responses,
    /// What happened, for the NIC's statistics.
    pub outcome: Outcome,
}

/// Process one inbound request on `qp` against `mrs`.
///
/// `local` is this NIC's endpoint identity (source of responses); `mtu` is
/// the maximum READ-response payload per packet.
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
        qp.write_cursor = None;
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
            qp.write_cursor = None; // a torn multi-packet write is void
        } else {
            // Strict RC: NAK once, then drop until the requester resyncs.
            if qp.nak_outstanding {
                return ResponderResult {
                    responses: Responses::None,
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
            if reth.dma_len as usize != req.payload.len() {
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
        Opcode::WriteFirst => {
            let RoceExt::Reth(reth) = req.ext else {
                return invalid(local, qp);
            };
            if (req.payload.len() as u64) >= reth.dma_len as u64 {
                return invalid(local, qp); // a First implies more to come
            }
            match mrs
                .get_mut(reth.rkey)
                .and_then(|r| r.write(reth.va, &req.payload))
            {
                Ok(()) => {
                    qp.write_cursor = Some(WriteCursor {
                        rkey: reth.rkey,
                        va: reth.va + req.payload.len() as u64,
                        remaining: reth.dma_len as u64 - req.payload.len() as u64,
                    });
                    qp.epsn = psn_add(qp.epsn, 1);
                    // MSN advances only when the message completes.
                    write_ack(local, qp, req.bth.ack_req, req.payload.len() as u64, psn)
                }
                Err(e) => access_nak(local, qp, e),
            }
        }
        Opcode::WriteMiddle | Opcode::WriteLast => {
            let Some(cursor) = qp.write_cursor else {
                return invalid(local, qp);
            };
            let len = req.payload.len() as u64;
            let fits = if req.bth.opcode == Opcode::WriteLast {
                len == cursor.remaining
            } else {
                len < cursor.remaining
            };
            if !fits {
                return invalid(local, qp);
            }
            match mrs
                .get_mut(cursor.rkey)
                .and_then(|r| r.write(cursor.va, &req.payload))
            {
                Ok(()) => {
                    qp.epsn = psn_add(qp.epsn, 1);
                    if req.bth.opcode == Opcode::WriteLast {
                        qp.write_cursor = None;
                        qp.msn = (qp.msn + 1) & 0xff_ffff;
                    } else {
                        qp.write_cursor = Some(WriteCursor {
                            va: cursor.va + len,
                            remaining: cursor.remaining - len,
                            ..cursor
                        });
                    }
                    write_ack(local, qp, req.bth.ack_req, len, psn)
                }
                Err(e) => access_nak(local, qp, e),
            }
        }
        Opcode::ReadRequest => serve_read(local, qp, mrs, req, mtu, false),
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
                    ResponderResult {
                        responses: Responses::One(atomic_ack(local, qp, psn, original)),
                        outcome: Outcome::AtomicExecuted,
                    }
                }
                Err(e) => access_nak(local, qp, e),
            }
        }
        Opcode::IndirectRead | Opcode::HashProbe | Opcode::CondWrite | Opcode::GatherWalk => {
            serve_ext_op(local, qp, mrs, req, mtu, false)
        }
        _ => invalid(local, qp),
    }
}

/// Handle a request whose PSN is in the past.
fn duplicate(
    local: RoceEndpoint,
    qp: &mut QueuePair,
    mrs: &mut MrTable,
    req: &RocePacket,
    mtu: usize,
) -> ResponderResult {
    match req.bth.opcode {
        // Duplicate reads are re-executed per spec (the data may have been
        // lost in flight).
        Opcode::ReadRequest => {
            let mut r = serve_read(local, qp, mrs, req, mtu, true);
            r.outcome = Outcome::Duplicate;
            r
        }
        // Duplicate atomics replay the saved original value when possible.
        Opcode::FetchAdd => {
            let response = match qp.last_atomic {
                Some((psn, original)) if psn == req.bth.psn => atomic_ack(local, qp, psn, original),
                _ => plain_ack(local, qp, req.bth.psn),
            };
            ResponderResult {
                responses: Responses::One(response),
                outcome: Outcome::Duplicate,
            }
        }
        // Duplicate read-like remote ops are re-executed like READs: their
        // response data may have been lost in flight.
        Opcode::IndirectRead | Opcode::HashProbe | Opcode::GatherWalk => {
            let mut r = serve_ext_op(local, qp, mrs, req, mtu, true);
            r.outcome = Outcome::Duplicate;
            r
        }
        // Duplicate conditional WRITEs must NOT re-execute (the original
        // write may have changed the compared bytes); replay the saved
        // response when it is still in the replay buffer.
        Opcode::CondWrite => {
            let response = match qp
                .cond_replay
                .iter()
                .find(|(psn, _, _)| *psn == req.bth.psn)
            {
                Some((psn, flags, observed)) => ext_op_resp(
                    local,
                    qp,
                    *psn,
                    Opcode::CondWrite,
                    *flags,
                    0,
                    &[observed.as_slice()],
                ),
                None => plain_ack(local, qp, req.bth.psn),
            };
            ResponderResult {
                responses: Responses::One(response),
                outcome: Outcome::Duplicate,
            }
        }
        // Duplicate writes: acknowledge, do not re-execute.
        _ => ResponderResult {
            responses: Responses::One(plain_ack(local, qp, req.bth.psn)),
            outcome: Outcome::Duplicate,
        },
    }
}

/// Offset of the body in a remote-op response frame.
const EXT_OP_RESP_BODY_AT: usize =
    EthernetHeader::LEN + ROCEV2_BASE_OVERHEAD + Aeth::LEN + ExtOpAckEth::LEN;

/// How a remote op failed.
enum ExtOpError {
    /// Malformed request (inconsistent lengths/counts).
    Invalid,
    /// A memory access faulted.
    Access,
}

impl From<AccessError> for ExtOpError {
    fn from(_: AccessError) -> ExtOpError {
        ExtOpError::Access
    }
}

/// What a remote op resolved to: every access checked and performed except
/// a conditional WRITE's install, which waits until the response — a view
/// of memory *before* the write — has been encoded.
struct ExtOpPlan<'a> {
    flags: u8,
    index: u16,
    steps: u32,
    /// The region bytes the response returns, in order; the first `n_parts`
    /// are meaningful.
    parts: [&'a [u8]; MAX_GATHER],
    n_parts: usize,
}

impl<'a> ExtOpPlan<'a> {
    fn new(flags: u8, index: u16, steps: u32, data: &[&'a [u8]]) -> ExtOpPlan<'a> {
        let mut parts: [&[u8]; MAX_GATHER] = [&[]; MAX_GATHER];
        parts[..data.len()].copy_from_slice(data);
        ExtOpPlan {
            flags,
            index,
            steps,
            parts,
            n_parts: data.len(),
        }
    }

    fn body(&self) -> &[&'a [u8]] {
        &self.parts[..self.n_parts]
    }
}

/// Serve a remote-op request (shared by the fresh and duplicate paths).
fn serve_ext_op(
    local: RoceEndpoint,
    qp: &mut QueuePair,
    mrs: &mut MrTable,
    req: &RocePacket,
    mtu: usize,
    is_duplicate: bool,
) -> ResponderResult {
    let op = req.bth.opcode;
    let psn = req.bth.psn;
    let plan = match resolve_ext_op(mrs, req, mtu) {
        Ok(plan) => plan,
        Err(e) => {
            let code = match e {
                ExtOpError::Invalid => NakCode::InvalidRequest,
                ExtOpError::Access => NakCode::RemoteAccessError,
            };
            // A bad duplicate must not perturb the live sequence state.
            if !is_duplicate {
                qp.epsn = psn_add(qp.epsn, 1);
            }
            return nak(local, qp, code);
        }
    };
    if !is_duplicate {
        qp.epsn = psn_add(qp.epsn, 1);
        qp.msn = (qp.msn + 1) & 0xff_ffff;
    }
    let (flags, steps) = (plan.flags, plan.steps);
    let bytes: usize = plan.body().iter().map(|part| part.len()).sum();
    let response = ext_op_resp(local, qp, psn, op, flags, plan.index, plan.body());
    if let RoceExt::CondWrite(h) = req.ext {
        debug_assert!(!is_duplicate, "duplicate conditional WRITEs replay");
        // The replay buffer keeps the observed bytes as a window of the
        // response frame: no second copy out of the region.
        if qp.cond_replay.len() >= COND_REPLAY_DEPTH {
            qp.cond_replay.pop_front();
        }
        let observed = response.view(EXT_OP_RESP_BODY_AT..EXT_OP_RESP_BODY_AT + bytes);
        qp.cond_replay.push_back((psn, flags, observed));
        if flags & EXTOP_FLAG_HIT != 0 {
            mrs.get_mut(h.rkey)
                .and_then(|r| r.write(h.write_va, &req.payload[h.cmp_len as usize..]))
                .expect("conditional write target was bounds-checked");
        }
    }
    ResponderResult {
        responses: Responses::One(response),
        outcome: Outcome::ExtOpExecuted {
            op,
            steps,
            bytes: bytes as u64,
        },
    }
}

/// Resolve one remote op against the MR table: the dependent-access chain
/// the requester would otherwise issue as separate verbs, run NIC-side. The
/// result borrows the region bytes the response will carry.
fn resolve_ext_op<'a>(
    mrs: &'a MrTable,
    req: &RocePacket,
    mtu: usize,
) -> Result<ExtOpPlan<'a>, ExtOpError> {
    match req.ext {
        RoceExt::Indirect(h) => {
            let region = mrs.get(h.rkey)?;
            let data = match h.mode {
                IndirectMode::Pointer => {
                    if h.max_len as usize > mtu {
                        return Err(ExtOpError::Invalid);
                    }
                    let ptr_bytes = region.read(h.va, 8)?;
                    let ptr = u64::from_be_bytes(ptr_bytes.try_into().unwrap());
                    region.read(ptr, h.max_len as u64)?
                }
                IndirectMode::LengthPrefixed => {
                    let hdr_len = h.hdr_len as usize;
                    if hdr_len < h.len_off as usize + 2 {
                        return Err(ExtOpError::Invalid);
                    }
                    let hdr = region.read(h.va, hdr_len as u64)?;
                    let off = h.len_off as usize;
                    let body = u16::from_be_bytes(hdr[off..off + 2].try_into().unwrap()) as usize;
                    if body > h.max_len as usize || hdr_len + body > mtu {
                        return Err(ExtOpError::Invalid);
                    }
                    region.read(h.va, (hdr_len + body) as u64)?
                }
            };
            Ok(ExtOpPlan::new(EXTOP_FLAG_HIT, 0, 2, &[data]))
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
                return Err(ExtOpError::Invalid);
            }
            let region = mrs.get(h.rkey)?;
            let mut steps = 0u32;
            for (nth, bucket) in [h.b1, h.b2].into_iter().enumerate() {
                if nth == 1 && h.b2 == h.b1 {
                    break;
                }
                let va = h.base_va + bucket as u64 * bucket_bytes as u64;
                let data = region.read(va, bucket_bytes as u64)?;
                steps += 1;
                for slot in 0..bucket_bytes / slot_bytes {
                    let at = slot * slot_bytes + key_off;
                    if data[at..at + key_len] == key[..] {
                        let mut flags = EXTOP_FLAG_HIT;
                        if nth == 1 {
                            flags |= EXTOP_FLAG_SECONDARY;
                        }
                        return Ok(ExtOpPlan::new(flags, slot as u16, steps, &[data]));
                    }
                }
            }
            Ok(ExtOpPlan::new(0, 0, steps, &[]))
        }
        RoceExt::CondWrite(h) => {
            let cmp_len = h.cmp_len as usize;
            if cmp_len == 0 || cmp_len > req.payload.len() || cmp_len > mtu {
                return Err(ExtOpError::Invalid);
            }
            let region = mrs.get(h.rkey)?;
            let observed = region.read(h.cmp_va, cmp_len as u64)?;
            if observed[..] != req.payload[..cmp_len] {
                return Ok(ExtOpPlan::new(0, 0, 1, &[observed]));
            }
            // The caller installs the write once the response is encoded;
            // a target out of bounds fails the op here, before any effect.
            region.read(h.write_va, (req.payload.len() - cmp_len) as u64)?;
            Ok(ExtOpPlan::new(EXTOP_FLAG_HIT, 0, 2, &[observed]))
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
                return Err(ExtOpError::Invalid);
            }
            let region = mrs.get(h.rkey)?;
            let mut plan = ExtOpPlan::new(EXTOP_FLAG_HIT, 0, count as u32, &[]);
            for (word, va) in plan.parts.iter_mut().zip(req.payload.chunks_exact(8)) {
                let va = u64::from_be_bytes(va.try_into().unwrap());
                *word = region.read(va, word_len as u64)?;
            }
            plan.n_parts = count;
            Ok(plan)
        }
        _ => Err(ExtOpError::Invalid),
    }
}

/// Encode one response frame from this QP to its peer.
fn respond(local: RoceEndpoint, qp: &QueuePair, bth: Bth, ext: RoceExt, body: &[&[u8]]) -> Packet {
    RoceHeaders::new(local, qp.peer, qp.udp_src_port, bth, ext)
        .encode(body)
        .expect("response packet must encode")
}

/// Encode the single-packet remote-op response.
fn ext_op_resp(
    local: RoceEndpoint,
    qp: &QueuePair,
    psn: u32,
    op: Opcode,
    flags: u8,
    index: u16,
    data: &[&[u8]],
) -> Packet {
    respond(
        local,
        qp,
        Bth::new(Opcode::ExtOpResp, qp.peer_qpn, psn),
        RoceExt::ExtOpAck(
            Aeth::ack(qp.msn),
            ExtOpAckEth {
                op: op as u8,
                flags,
                index,
            },
        ),
        data,
    )
}

/// Serve a READ request (shared by the fresh and duplicate paths).
fn serve_read(
    local: RoceEndpoint,
    qp: &mut QueuePair,
    mrs: &mut MrTable,
    req: &RocePacket,
    mtu: usize,
    is_duplicate: bool,
) -> ResponderResult {
    let RoceExt::Reth(reth) = req.ext else {
        return invalid(local, qp);
    };
    assert!(mtu > 0, "RoCE MTU must be positive");
    // No copy out of the MR: each per-MTU response chunk is encoded from
    // its window of the region.
    let data = match mrs
        .get(reth.rkey)
        .and_then(|r| r.read(reth.va, reth.dma_len as u64))
    {
        Ok(d) => d,
        Err(e) if is_duplicate => {
            // A bad duplicate must not perturb the live sequence state.
            let _ = e;
            return nak(local, qp, NakCode::RemoteAccessError);
        }
        Err(e) => return access_nak(local, qp, e),
    };
    let n_packets = data.len().div_ceil(mtu).max(1) as u32;
    let chunk = |i: u32| {
        let opcode = if n_packets == 1 {
            Opcode::ReadRespOnly
        } else if i == 0 {
            Opcode::ReadRespFirst
        } else if i == n_packets - 1 {
            Opcode::ReadRespLast
        } else {
            Opcode::ReadRespMiddle
        };
        let ext = if opcode == Opcode::ReadRespMiddle {
            RoceExt::None
        } else {
            RoceExt::Aeth(Aeth::ack(qp.msn))
        };
        let bth = Bth::new(opcode, qp.peer_qpn, psn_add(req.bth.psn, i));
        let start = i as usize * mtu;
        let end = (start + mtu).min(data.len());
        respond(local, qp, bth, ext, &[&data[start..end]])
    };
    let responses = if n_packets == 1 {
        Responses::One(chunk(0))
    } else {
        Responses::Many((0..n_packets).map(chunk).collect())
    };
    let bytes = data.len() as u64;
    if !is_duplicate {
        qp.epsn = psn_add(qp.epsn, n_packets);
        qp.msn = (qp.msn + 1) & 0xff_ffff;
    }
    ResponderResult {
        responses,
        outcome: Outcome::ReadServed {
            packets: n_packets,
            bytes,
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
    let responses = if ack_req {
        Responses::One(plain_ack(local, qp, psn))
    } else {
        Responses::None
    };
    ResponderResult {
        responses,
        outcome: Outcome::WriteExecuted { bytes },
    }
}

fn plain_ack(local: RoceEndpoint, qp: &QueuePair, psn: u32) -> Packet {
    respond(
        local,
        qp,
        Bth::new(Opcode::Acknowledge, qp.peer_qpn, psn),
        RoceExt::Aeth(Aeth::ack(qp.msn)),
        &[],
    )
}

fn atomic_ack(local: RoceEndpoint, qp: &QueuePair, psn: u32, original: u64) -> Packet {
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
    let pkt = respond(
        local,
        qp,
        Bth::new(Opcode::Acknowledge, qp.peer_qpn, qp.epsn),
        RoceExt::Aeth(Aeth::nak(code, qp.msn)),
        &[],
    );
    ResponderResult {
        responses: Responses::One(pkt),
        outcome: Outcome::Nak(code),
    }
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
    use extmem_types::{ByteSize, QpNum, Rkey};
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
            r.responses.len() as u64,
            "{:?}: one payload per response frame",
            r.outcome
        );
        Served {
            responses: r
                .responses
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
        assert_eq!(
            r.outcome,
            Outcome::ReadServed {
                packets: 1,
                bytes: 300
            }
        );
        assert_eq!(r.responses.len(), 1);
        assert_eq!(r.responses[0].bth.opcode, Opcode::ReadRespOnly);
        assert_eq!(r.responses[0].payload, vec![9; 300]);
        assert_eq!(r.responses[0].bth.psn, 0);
        assert_eq!(qp.epsn, 1);
    }

    #[test]
    fn read_fragments_by_mtu() {
        let (local, mut qp, mut mrs, rkey, base) = setup();
        let data: Vec<u8> = (0..2500u32).map(|i| i as u8).collect();
        mrs.get_mut(rkey).unwrap().write(base, &data).unwrap();
        let req = read_req(&qp, 0, rkey, base, 2500);
        let r = process_request(local, &mut qp, &mut mrs, &req, 1024);
        assert_eq!(
            r.outcome,
            Outcome::ReadServed {
                packets: 3,
                bytes: 2500
            }
        );
        let ops: Vec<Opcode> = r.responses.iter().map(|p| p.bth.opcode).collect();
        assert_eq!(
            ops,
            vec![
                Opcode::ReadRespFirst,
                Opcode::ReadRespMiddle,
                Opcode::ReadRespLast
            ]
        );
        let psns: Vec<u32> = r.responses.iter().map(|p| p.bth.psn).collect();
        assert_eq!(psns, vec![0, 1, 2]);
        // Middle packets carry no AETH.
        assert!(matches!(r.responses[1].ext, RoceExt::None));
        // READ consumes one PSN per response packet.
        assert_eq!(qp.epsn, 3);
        // Reassembly matches.
        let mut got = Vec::new();
        for p in &r.responses {
            got.extend_from_slice(&p.payload);
        }
        assert_eq!(got, data);
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
    fn multi_packet_write_assembles() {
        let (local, mut qp, mut mrs, rkey, base) = setup();
        let total = 2500u32;
        let first = RocePacket::new(
            qp.peer,
            local,
            100,
            Bth::new(Opcode::WriteFirst, qp.qpn, 0),
            RoceExt::Reth(Reth {
                va: base,
                rkey,
                dma_len: total,
            }),
            vec![1; 1024],
        );
        let middle = RocePacket::new(
            qp.peer,
            local,
            100,
            Bth::new(Opcode::WriteMiddle, qp.qpn, 1),
            RoceExt::None,
            vec![2; 1024],
        );
        let last = RocePacket::new(
            qp.peer,
            local,
            100,
            Bth::new(Opcode::WriteLast, qp.qpn, 2),
            RoceExt::None,
            vec![3; 452],
        );
        for (req, expect_msn) in [(&first, 0), (&middle, 0), (&last, 1)] {
            let r = process_request(local, &mut qp, &mut mrs, req, 2048);
            assert!(matches!(r.outcome, Outcome::WriteExecuted { .. }));
            assert_eq!(qp.msn, expect_msn);
        }
        let data = mrs.get(rkey).unwrap().read(base, 2500).unwrap();
        assert_eq!(&data[..1024], &[1u8; 1024][..]);
        assert_eq!(&data[1024..2048], &[2u8; 1024][..]);
        assert_eq!(&data[2048..], &[3u8; 452][..]);
        assert!(qp.write_cursor.is_none());
    }

    #[test]
    fn middle_without_first_is_invalid() {
        let (local, mut qp, mut mrs, _rkey, _base) = setup();
        let middle = RocePacket::new(
            qp.peer,
            local,
            100,
            Bth::new(Opcode::WriteMiddle, qp.qpn, 0),
            RoceExt::None,
            vec![2; 64],
        );
        let r = process_request(local, &mut qp, &mut mrs, &middle, 2048);
        assert!(matches!(r.outcome, Outcome::Nak(NakCode::InvalidRequest)));
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
            RoceExt::Indirect(_) => Opcode::IndirectRead,
            RoceExt::HashProbe(_) => Opcode::HashProbe,
            RoceExt::CondWrite(_) => Opcode::CondWrite,
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
            RoceExt::Gather(extmem_wire::extop::GatherEth {
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
                op: Opcode::GatherWalk,
                steps: 4,
                bytes: 64
            }
        );
        assert_eq!(r.responses.len(), 1, "one RTT regardless of depth");
        let resp = &r.responses[0];
        assert_eq!(resp.bth.opcode, Opcode::ExtOpResp);
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
            RoceExt::Gather(extmem_wire::extop::GatherEth {
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
    fn hash_probe_finds_in_either_bucket_or_misses() {
        let (local, mut qp, mut mrs, rkey, base) = setup();
        let qpn = qp.qpn;
        // 2 buckets of 4 x 32 B slots; key field is bytes 0..14 of a slot.
        let key_a = [0xaau8; 14];
        let key_b = [0xbbu8; 14];
        let region = mrs.get_mut(rkey).unwrap();
        region.write(base + 2 * 32, &key_a).unwrap(); // bucket 0, slot 2
        region.write(base + 128 + 32, &key_b).unwrap(); // bucket 1, slot 1
        let probe = |key: [u8; 14], b1: u32, b2: u32| {
            RoceExt::HashProbe(extmem_wire::extop::HashProbeEth {
                base_va: base,
                rkey,
                b1,
                b2,
                bucket_bytes: 128,
                slot_bytes: 32,
                key_off: 0,
                key_len: key.len() as u8,
            })
        };
        // Hit in the primary bucket: one probe step.
        let r = process_request(
            local,
            &mut qp,
            &mut mrs,
            &remote_req(qpn, 0, probe(key_a, 0, 1), key_a.to_vec()),
            2048,
        );
        assert_eq!(
            r.outcome,
            Outcome::ExtOpExecuted {
                op: Opcode::HashProbe,
                steps: 1,
                bytes: 128
            }
        );
        let RoceExt::ExtOpAck(_, ack) = r.responses[0].ext else {
            panic!("expected ExtOpAck");
        };
        assert_eq!(ack.flags, EXTOP_FLAG_HIT);
        assert_eq!(ack.index, 2);
        // Hit in the secondary: two probe steps, still one response.
        let r = process_request(
            local,
            &mut qp,
            &mut mrs,
            &remote_req(qpn, 1, probe(key_b, 0, 1), key_b.to_vec()),
            2048,
        );
        assert_eq!(
            r.outcome,
            Outcome::ExtOpExecuted {
                op: Opcode::HashProbe,
                steps: 2,
                bytes: 128
            }
        );
        let RoceExt::ExtOpAck(_, ack) = r.responses[0].ext else {
            panic!("expected ExtOpAck");
        };
        assert_eq!(ack.flags, EXTOP_FLAG_HIT | EXTOP_FLAG_SECONDARY);
        assert_eq!(ack.index, 1);
        // Miss in both: empty payload, no flags.
        let r = process_request(
            local,
            &mut qp,
            &mut mrs,
            &remote_req(qpn, 2, probe([0xcc; 14], 0, 1), vec![0xcc; 14]),
            2048,
        );
        assert_eq!(
            r.outcome,
            Outcome::ExtOpExecuted {
                op: Opcode::HashProbe,
                steps: 2,
                bytes: 0
            }
        );
        let RoceExt::ExtOpAck(_, ack) = r.responses[0].ext else {
            panic!("expected ExtOpAck");
        };
        assert_eq!(ack.flags, 0);
        assert!(r.responses[0].payload.is_empty());
    }

    #[test]
    fn cond_write_executes_only_on_match_and_replays_duplicates() {
        let (local, mut qp, mut mrs, rkey, base) = setup();
        let qpn = qp.qpn;
        mrs.get_mut(rkey).unwrap().write(base, &[7u8; 8]).unwrap();
        let ext = RoceExt::CondWrite(extmem_wire::extop::CondWriteEth {
            cmp_va: base,
            write_va: base + 64,
            rkey,
            cmp_len: 8,
        });
        // Matching compare: write executes.
        let mut payload = vec![7u8; 8];
        payload.extend_from_slice(&[0x11; 16]);
        let r = process_request(
            local,
            &mut qp,
            &mut mrs,
            &remote_req(qpn, 0, ext, payload.clone()),
            2048,
        );
        assert_eq!(
            r.outcome,
            Outcome::ExtOpExecuted {
                op: Opcode::CondWrite,
                steps: 2,
                bytes: 8
            }
        );
        let RoceExt::ExtOpAck(_, ack) = r.responses[0].ext else {
            panic!("expected ExtOpAck");
        };
        assert_eq!(ack.flags, EXTOP_FLAG_HIT);
        assert_eq!(r.responses[0].payload, vec![7u8; 8]);
        assert_eq!(
            mrs.get(rkey).unwrap().read(base + 64, 16).unwrap(),
            &[0x11u8; 16][..]
        );
        // Mismatching compare: no write, observed bytes returned.
        let mut miss = vec![9u8; 8];
        miss.extend_from_slice(&[0x22; 16]);
        let r = process_request(
            local,
            &mut qp,
            &mut mrs,
            &remote_req(qpn, 1, ext, miss),
            2048,
        );
        assert_eq!(
            r.outcome,
            Outcome::ExtOpExecuted {
                op: Opcode::CondWrite,
                steps: 1,
                bytes: 8
            }
        );
        let RoceExt::ExtOpAck(_, ack) = r.responses[0].ext else {
            panic!("expected ExtOpAck");
        };
        assert_eq!(ack.flags, 0);
        assert_eq!(
            mrs.get(rkey).unwrap().read(base + 64, 16).unwrap(),
            &[0x11u8; 16][..],
            "mismatch must not write"
        );
        // Duplicate of the first CondWrite: replayed from the buffer, NOT
        // re-executed (memory would now compare differently).
        mrs.get_mut(rkey).unwrap().write(base, &[1u8; 8]).unwrap();
        let r = process_request(
            local,
            &mut qp,
            &mut mrs,
            &remote_req(qpn, 0, ext, payload),
            2048,
        );
        assert_eq!(r.outcome, Outcome::Duplicate);
        let RoceExt::ExtOpAck(_, ack) = r.responses[0].ext else {
            panic!("expected replayed ExtOpAck");
        };
        assert_eq!(ack.flags, EXTOP_FLAG_HIT, "replay keeps the original flags");
        assert_eq!(
            r.responses[0].payload,
            vec![7u8; 8],
            "replay returns the originally observed bytes"
        );
    }

    #[test]
    fn indirect_read_follows_pointer_and_length_prefix() {
        let (local, mut qp, mut mrs, rkey, base) = setup();
        let qpn = qp.qpn;
        let region = mrs.get_mut(rkey).unwrap();
        // Pointer mode: slot at base holds a pointer to base+512.
        region.write(base, &(base + 512).to_be_bytes()).unwrap();
        region.write(base + 512, &[0x5a; 32]).unwrap();
        let req = remote_req(
            qpn,
            0,
            RoceExt::Indirect(extmem_wire::extop::IndirectEth {
                va: base,
                rkey,
                mode: IndirectMode::Pointer,
                len_off: 0,
                hdr_len: 0,
                max_len: 32,
            }),
            vec![],
        );
        let r = process_request(local, &mut qp, &mut mrs, &req, 2048);
        assert_eq!(
            r.outcome,
            Outcome::ExtOpExecuted {
                op: Opcode::IndirectRead,
                steps: 2,
                bytes: 32
            }
        );
        assert_eq!(r.responses[0].payload, vec![0x5a; 32]);
        // Length-prefixed mode: entry header [idx:4][len:2] then body.
        let region = mrs.get_mut(rkey).unwrap();
        let mut entry = 9u32.to_be_bytes().to_vec();
        entry.extend_from_slice(&40u16.to_be_bytes());
        entry.extend_from_slice(&[0xc3; 40]);
        region.write(base + 1024, &entry).unwrap();
        let req = remote_req(
            qpn,
            1,
            RoceExt::Indirect(extmem_wire::extop::IndirectEth {
                va: base + 1024,
                rkey,
                mode: IndirectMode::LengthPrefixed,
                len_off: 4,
                hdr_len: 6,
                max_len: 1500,
            }),
            vec![],
        );
        let r = process_request(local, &mut qp, &mut mrs, &req, 2048);
        assert_eq!(
            r.outcome,
            Outcome::ExtOpExecuted {
                op: Opcode::IndirectRead,
                steps: 2,
                bytes: 46
            }
        );
        assert_eq!(r.responses[0].payload, entry);
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
                RoceExt::Gather(extmem_wire::extop::GatherEth {
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
        assert_eq!(r.responses[0].bth.opcode, Opcode::ExtOpResp);
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

    fn ext_ack(qp: &QueuePair, op: Opcode, flags: u8, index: u16) -> RoceExt {
        RoceExt::ExtOpAck(
            Aeth::ack(qp.msn),
            ExtOpAckEth {
                op: op as u8,
                flags,
                index,
            },
        )
    }

    #[test]
    fn response_frames_are_what_the_packet_builder_would_have_built() {
        use extmem_wire::extop::{CondWriteEth, GatherEth, HashProbeEth, IndirectEth};
        let (local, mut qp, mut mrs, rkey, base) = setup();
        let image: Vec<u8> = (0..4096u32).map(|i| (i * 5 + 1) as u8).collect();
        mrs.get_mut(rkey).unwrap().write(base, &image).unwrap();
        let qpn = qp.qpn;
        const MTU: usize = 1024;
        let serve = |qp: &mut QueuePair, mrs: &mut MrTable, req: &RocePacket| {
            let span = CounterSpan::begin();
            let r = super::process_request(local, qp, mrs, req, MTU);
            assert_eq!(span.allocs(), r.responses.len() as u64, "{:?}", r.outcome);
            r.responses.to_vec()
        };

        // READ answered by one packet: the AETH carries the MSN from before
        // the READ completed.
        let read1 = read_req(&qp, 0, rkey, base + 10, 300);
        let want = built(
            local,
            &qp,
            Opcode::ReadRespOnly,
            0,
            RoceExt::Aeth(Aeth::ack(0)),
            &image[10..310],
        );
        assert_eq!(serve(&mut qp, &mut mrs, &read1), [want]);

        // READ answered by three: PSNs 1..=3, no AETH in the middle.
        let read3 = read_req(&qp, 1, rkey, base, 2500);
        let chunks = |qp: &QueuePair| {
            [
                (
                    Opcode::ReadRespFirst,
                    RoceExt::Aeth(Aeth::ack(qp.msn)),
                    0..1024,
                ),
                (Opcode::ReadRespMiddle, RoceExt::None, 1024..2048),
                (
                    Opcode::ReadRespLast,
                    RoceExt::Aeth(Aeth::ack(qp.msn)),
                    2048..2500,
                ),
            ]
            .into_iter()
            .zip(1u32..)
            .map(|((op, ext, range), psn)| built(local, qp, op, psn, ext, &image[range]))
            .collect::<Vec<_>>()
        };
        let want = chunks(&qp);
        assert_eq!(serve(&mut qp, &mut mrs, &read3), want);
        // Its duplicate is re-executed, under the MSN of the moment.
        let want = chunks(&qp);
        assert_eq!(serve(&mut qp, &mut mrs, &read3), want);
        assert_eq!((qp.epsn, qp.msn), (4, 2));

        // Each remote op: one ExtOpResp, MSN already counting the op.
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
        let got = serve(&mut qp, &mut mrs, &gather);
        let words = [&image[800..808], &image[8..16], &image[64..72]].concat();
        let ext = ext_ack(&qp, Opcode::GatherWalk, EXTOP_FLAG_HIT, 0);
        assert_eq!(got, [built(local, &qp, Opcode::ExtOpResp, 4, ext, &words)]);

        let probe = |psn, key: &[u8]| {
            remote_req(
                qpn,
                psn,
                RoceExt::HashProbe(HashProbeEth {
                    base_va: base + 256,
                    rkey,
                    b1: 3,
                    b2: 0,
                    bucket_bytes: 32,
                    slot_bytes: 16,
                    key_off: 2,
                    key_len: key.len() as u8,
                }),
                key.to_vec(),
            )
        };
        // Slot 1 of bucket 0, reached second.
        let got = serve(&mut qp, &mut mrs, &probe(5, &image[256 + 18..256 + 22]));
        let ext = ext_ack(
            &qp,
            Opcode::HashProbe,
            EXTOP_FLAG_HIT | EXTOP_FLAG_SECONDARY,
            1,
        );
        assert_eq!(
            got,
            [built(
                local,
                &qp,
                Opcode::ExtOpResp,
                5,
                ext,
                &image[256..288]
            )]
        );
        let got = serve(&mut qp, &mut mrs, &probe(6, &[0xee; 4]));
        let ext = ext_ack(&qp, Opcode::HashProbe, 0, 0);
        assert_eq!(got, [built(local, &qp, Opcode::ExtOpResp, 6, ext, &[])]);

        let indirect = remote_req(
            qpn,
            7,
            RoceExt::Indirect(IndirectEth {
                va: base + 1200,
                rkey,
                mode: IndirectMode::LengthPrefixed,
                len_off: 0,
                hdr_len: 2,
                max_len: 64,
            }),
            vec![],
        );
        mrs.get_mut(rkey)
            .unwrap()
            .write(base + 1200, &20u16.to_be_bytes())
            .unwrap();
        let entry = mrs
            .get(rkey)
            .unwrap()
            .read(base + 1200, 22)
            .unwrap()
            .to_vec();
        let got = serve(&mut qp, &mut mrs, &indirect);
        let ext = ext_ack(&qp, Opcode::IndirectRead, EXTOP_FLAG_HIT, 0);
        assert_eq!(got, [built(local, &qp, Opcode::ExtOpResp, 7, ext, &entry)]);

        // A conditional WRITE over its own compare bytes: the response
        // shows memory as it was before the write landed.
        let cond = remote_req(
            qpn,
            8,
            RoceExt::CondWrite(CondWriteEth {
                cmp_va: base + 700,
                write_va: base + 702,
                rkey,
                cmp_len: 4,
            }),
            [&image[700..704], &[9u8; 12][..]].concat(),
        );
        let got = serve(&mut qp, &mut mrs, &cond);
        let ext = ext_ack(&qp, Opcode::CondWrite, EXTOP_FLAG_HIT, 0);
        assert_eq!(
            got,
            [built(
                local,
                &qp,
                Opcode::ExtOpResp,
                8,
                ext,
                &image[700..704]
            )]
        );
        assert_eq!(
            mrs.get(rkey).unwrap().read(base + 700, 14).unwrap(),
            [&image[700..702], &[9u8; 12][..]].concat()
        );

        // Every NAK path: a request the op engine refuses, an access
        // outside the region, and a gap in the sequence (answered once).
        let over = remote_req(
            qpn,
            9,
            RoceExt::Gather(GatherEth {
                rkey,
                word_len: 8,
                count: 2,
            }),
            base.to_be_bytes().to_vec(), // one address short
        );
        let got = serve(&mut qp, &mut mrs, &over);
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
        assert_eq!(got, [nak(&qp, NakCode::InvalidRequest)]);
        let beyond = read_req(&qp, 10, rkey, base + 65_000, 4096);
        let got = serve(&mut qp, &mut mrs, &beyond);
        assert_eq!(got, [nak(&qp, NakCode::RemoteAccessError)]);
        let late = read_req(&qp, 13, rkey, base, 8);
        let got = serve(&mut qp, &mut mrs, &late);
        assert_eq!(got, [nak(&qp, NakCode::PsnSequenceError)]);
        assert!(serve(&mut qp, &mut mrs, &late).is_empty());

        // Duplicates of the ops above: the conditional WRITE replays its
        // first answer (memory has moved on), a bad duplicate is NAKed
        // without touching the sequence.
        let got = serve(&mut qp, &mut mrs, &cond);
        let ext = ext_ack(&qp, Opcode::CondWrite, EXTOP_FLAG_HIT, 0);
        assert_eq!(
            got,
            [built(
                local,
                &qp,
                Opcode::ExtOpResp,
                8,
                ext,
                &image[700..704]
            )]
        );
        let got = serve(&mut qp, &mut mrs, &over);
        assert_eq!(got, [nak(&qp, NakCode::InvalidRequest)]);
        let got = serve(&mut qp, &mut mrs, &beyond);
        assert_eq!(got, [nak(&qp, NakCode::RemoteAccessError)]);
        assert_eq!((qp.epsn, qp.msn), (11, 7));
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
