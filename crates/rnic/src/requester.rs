//! Requester-side building blocks.
//!
//! [`RequesterQp`] is the small state machine any RDMA requester needs: it
//! allocates PSNs and builds correctly-formed request packets. The paper's
//! switch primitives embed one per channel; the E1 baseline ("native
//! server-to-server RDMA") uses the two traffic nodes defined here,
//! [`WriteBlaster`] and [`ReadLooper`].
//!
//! A request is described once, as a [`Request`] borrowing its bytes from
//! where their owner keeps them — a remote op's operands ride inline in the
//! [`RemoteOp`], a WRITE's bytes are a [`WriteBody`], an inline head and a
//! shared tail — and becomes a frame in one function,
//! [`RequesterQp::encode_at`]. No request has a payload built around its
//! bytes first, and no transmission of it has an encoder of its own.

use crate::nic::RnicNode;
use extmem_sim::{Node, NodeCtx, TxQueue};
use extmem_types::{PortId, QpNum, Rate, Rkey, Time, TimeDelta};
use extmem_wire::atomic::AtomicEth;
use extmem_wire::bth::{psn_add, Bth, Opcode};
use extmem_wire::extop::{CondWriteEth, GatherEth, HashProbeEth, IndirectEth, IndirectMode};
use extmem_wire::reth::Reth;
use extmem_wire::roce::{RoceEndpoint, RoceExt, RoceHeaders, RocePacket};
use extmem_wire::{Packet, Payload};

/// A remote op's byte operand (a probe key, a compare or write image), held
/// inline in the op: up to [`Operand::MAX_LEN`] bytes, no heap buffer. The
/// op owns its operands outright, so it can be queued, retransmitted and
/// reissued to a failover replica by value, and every transmission encodes
/// them straight into the request frame.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Operand {
    len: u8,
    /// Zero past `len`, so derived equality sees only the operand.
    bytes: [u8; Operand::MAX_LEN],
}

impl Operand {
    /// Largest operand: one cuckoo slot image, the biggest any primitive
    /// sends (a probe key is 13 bytes).
    pub const MAX_LEN: usize = 32;

    /// Copy `bytes` into an operand.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is longer than [`Operand::MAX_LEN`].
    pub fn new(bytes: &[u8]) -> Operand {
        assert!(
            bytes.len() <= Self::MAX_LEN,
            "remote-op operand of {} bytes exceeds the inline limit of {}",
            bytes.len(),
            Self::MAX_LEN
        );
        let mut op = Operand {
            len: bytes.len() as u8,
            bytes: [0; Self::MAX_LEN],
        };
        op.bytes[..bytes.len()].copy_from_slice(bytes);
        op
    }
}

impl std::ops::Deref for Operand {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }
}

impl std::fmt::Debug for Operand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Operand({:02x?})", &self[..])
    }
}

/// The bytes of an RDMA WRITE, in the two parts a switch has them in: a
/// short `head` it composes itself (a ring entry's `[idx][len]`, a slot
/// image), held inline like a remote op's operands, and a `tail` it only
/// forwards — the arrival frame being stored, shared by refcount, never
/// copied into a buffer of its own. The responder sees `head ‖ tail` at the
/// WRITE's address: encapsulating a packet is prepending a header to it.
///
/// Whoever queues the WRITE for retransmission owns the body by value, and
/// every transmission encodes the frame from the two parts
/// ([`RequesterQp::encode_at`]). Nothing can change the tail meanwhile:
/// a [`Payload`] mutates only through copy-on-write, which leaves the
/// shared bytes alone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WriteBody {
    /// Bytes the requester composed, first at the WRITE's address.
    pub head: Operand,
    /// Bytes it forwards, right behind the head.
    pub tail: Payload,
}

impl WriteBody {
    /// A body of at most [`Operand::MAX_LEN`] bytes, with no heap buffer.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is longer than [`Operand::MAX_LEN`].
    pub fn inline(bytes: &[u8]) -> WriteBody {
        WriteBody::framed(bytes, Payload::empty())
    }

    /// `head` (at most [`Operand::MAX_LEN`] bytes, copied inline) in front
    /// of `tail` (shared, not copied).
    ///
    /// # Panics
    ///
    /// Panics if `head` is longer than [`Operand::MAX_LEN`].
    pub fn framed(head: &[u8], tail: Payload) -> WriteBody {
        WriteBody {
            head: Operand::new(head),
            tail,
        }
    }

    /// The body as the frame encoder takes it.
    pub fn parts(&self) -> [&[u8]; 2] {
        [&self.head, &self.tail]
    }
}

impl From<Payload> for WriteBody {
    fn from(tail: Payload) -> WriteBody {
        WriteBody::framed(&[], tail)
    }
}

impl From<Vec<u8>> for WriteBody {
    fn from(bytes: Vec<u8>) -> WriteBody {
        Payload::from_vec(bytes).into()
    }
}

/// A remote op the requester wants executed in the responder's NIC op
/// engine: the whole dependent-access chain, described once, costing one
/// PSN and one response packet. The rkey is supplied at build time (by the
/// channel that owns the region triple), so the same description can be
/// reissued verbatim to a failover replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoteOp {
    /// Indexed/indirect READ: fetch the slot at `va`, then return what it
    /// addresses (see [`IndirectMode`]).
    Indirect {
        /// First-hop virtual address.
        va: u64,
        /// Pointer vs. length-prefixed interpretation.
        mode: IndirectMode,
        /// Offset of the big-endian u16 length inside the header.
        len_off: u8,
        /// Header bytes read at `va` (length-prefixed mode).
        hdr_len: u16,
        /// Second-hop byte count / body-length cap.
        max_len: u32,
    },
    /// Hash-probe-and-fetch: probe bucket `b1` then `b2` for `key`, return
    /// the matching bucket.
    HashProbe {
        /// Base virtual address of the bucket array.
        base_va: u64,
        /// First candidate bucket index.
        b1: u32,
        /// Second candidate bucket index.
        b2: u32,
        /// Bytes per bucket.
        bucket_bytes: u16,
        /// Bytes per slot within a bucket.
        slot_bytes: u16,
        /// Byte offset of the key field inside a slot.
        key_off: u8,
        /// The key bytes to match.
        key: Operand,
    },
    /// Conditional WRITE: iff the bytes at `cmp_va` equal `compare`, write
    /// `write` at `write_va`. The response returns the observed bytes.
    CondWrite {
        /// Address the condition inspects.
        cmp_va: u64,
        /// Address the write lands at.
        write_va: u64,
        /// Expected bytes at `cmp_va`.
        compare: Operand,
        /// Bytes to write on success.
        write: Operand,
    },
    /// Bounded gather/walk: read `word_len` bytes at each address, return
    /// the concatenation.
    Gather {
        /// Bytes read per address.
        word_len: u16,
        /// The addresses, in response order.
        vas: Vec<u64>,
    },
}

/// One RDMA request, as its owner describes it: the addresses and flags by
/// value, the bytes borrowed from wherever they are kept. This is what
/// [`RequesterQp::encode_at`] turns into a frame; nothing about a request
/// exists outside it.
#[derive(Clone, Copy, Debug)]
pub enum Request<'a> {
    /// Single-packet RDMA WRITE of `body[0] ‖ body[1]` at `va` (a
    /// [`WriteBody`]'s head and tail; either may be empty).
    Write {
        /// Where the bytes land.
        va: u64,
        /// The bytes, in two parts.
        body: [&'a [u8]; 2],
        /// Ask the responder for an explicit ACK.
        ack_req: bool,
    },
    /// RDMA READ of `len` bytes at `va`; one response packet (and one PSN)
    /// per MTU of it.
    Read {
        /// Where to read.
        va: u64,
        /// How many bytes.
        len: u32,
    },
    /// Atomic Fetch-and-Add of `add` to the u64 at `va`.
    FetchAdd {
        /// The counter's address.
        va: u64,
        /// The addend.
        add: u64,
    },
    /// A remote op: one PSN, one response packet, whatever the chain depth.
    Op(&'a RemoteOp),
}

/// Requester-side queue pair state: where requests go and which PSN is next.
#[derive(Debug, Clone)]
pub struct RequesterQp {
    /// Our identity (source of requests).
    pub local: RoceEndpoint,
    /// The responder NIC's identity.
    pub peer: RoceEndpoint,
    /// The responder's QPN (goes in `dest_qp`).
    pub peer_qpn: QpNum,
    /// UDP source port for flow entropy.
    pub udp_src_port: u16,
    /// The responder's RoCE MTU (READ PSN accounting needs it).
    pub mtu: usize,
    /// Next PSN to assign.
    pub npsn: u32,
}

impl RequesterQp {
    /// Create a requester QP starting at PSN 0.
    pub fn new(
        local: RoceEndpoint,
        peer: RoceEndpoint,
        peer_qpn: QpNum,
        mtu: usize,
    ) -> RequesterQp {
        RequesterQp {
            local,
            peer,
            peer_qpn,
            udp_src_port: 0x9000,
            mtu,
            npsn: 0,
        }
    }

    /// Response packets a READ of `len` bytes will generate (one PSN each,
    /// per the IB spec).
    pub fn read_span(&self, len: u32) -> u32 {
        (len as usize).div_ceil(self.mtu).max(1) as u32
    }

    /// Largest READ whose response is a single packet: the path MTU. Remote
    /// data structures that want one-RTT, one-response-packet probes (the
    /// cuckoo lookup's 128-byte buckets) size their read unit against this.
    pub fn single_packet_read_limit(&self) -> u32 {
        self.mtu as u32
    }

    /// PSNs `req` consumes: one per response packet for a READ, one for
    /// everything else.
    pub fn span(&self, req: &Request<'_>) -> u32 {
        match req {
            Request::Read { len, .. } => self.read_span(*len),
            _ => 1,
        }
    }

    /// Encode `req` at the next PSN and advance past its span: a first
    /// transmission.
    pub fn issue(&mut self, rkey: Rkey, req: &Request<'_>) -> Packet {
        let frame = self.encode_at(self.npsn, rkey, req);
        self.npsn = psn_add(self.npsn, self.span(req));
        frame
    }

    /// Encode `req` as the frame that carries it under `psn`, without
    /// touching `npsn`. This is the only place a request becomes bytes:
    /// a first transmission ([`RequesterQp::issue`]), a retransmission
    /// under the op's original PSN and a reissue to a failover replica
    /// under another rkey all come through here, so they cannot differ in
    /// anything but what they are given. The bytes go from where `req`
    /// borrows them into the frame; no payload is built around them.
    pub fn encode_at(&self, psn: u32, rkey: Rkey, req: &Request<'_>) -> Packet {
        let encode = |opcode, ack_req, ext, body: &[&[u8]]| {
            let mut bth = Bth::new(opcode, self.peer_qpn, psn);
            bth.ack_req = ack_req;
            RoceHeaders::new(self.local, self.peer, self.udp_src_port, bth, ext)
                .encode(body)
                .expect("RDMA request encodes")
        };
        match *req {
            Request::Write { va, body, ack_req } => {
                let dma_len = (body[0].len() + body[1].len()) as u32;
                let reth = Reth { va, rkey, dma_len };
                encode(Opcode::WriteOnly, ack_req, RoceExt::Reth(reth), &body)
            }
            Request::Read { va, len } => encode(
                Opcode::ReadRequest,
                false,
                RoceExt::Reth(Reth {
                    va,
                    rkey,
                    dma_len: len,
                }),
                &[],
            ),
            Request::FetchAdd { va, add } => encode(
                Opcode::FetchAdd,
                false,
                RoceExt::AtomicEth(AtomicEth {
                    va,
                    rkey,
                    swap_add: add,
                    compare: 0,
                }),
                &[],
            ),
            Request::Op(RemoteOp::Indirect {
                va,
                mode,
                len_off,
                hdr_len,
                max_len,
            }) => encode(
                Opcode::IndirectRead,
                false,
                RoceExt::Indirect(IndirectEth {
                    va: *va,
                    rkey,
                    mode: *mode,
                    len_off: *len_off,
                    hdr_len: *hdr_len,
                    max_len: *max_len,
                }),
                &[],
            ),
            Request::Op(RemoteOp::HashProbe {
                base_va,
                b1,
                b2,
                bucket_bytes,
                slot_bytes,
                key_off,
                key,
            }) => encode(
                Opcode::HashProbe,
                false,
                RoceExt::HashProbe(HashProbeEth {
                    base_va: *base_va,
                    rkey,
                    b1: *b1,
                    b2: *b2,
                    bucket_bytes: *bucket_bytes,
                    slot_bytes: *slot_bytes,
                    key_off: *key_off,
                    key_len: key.len() as u8,
                }),
                &[key],
            ),
            Request::Op(RemoteOp::CondWrite {
                cmp_va,
                write_va,
                compare,
                write,
            }) => encode(
                Opcode::CondWrite,
                false,
                RoceExt::CondWrite(CondWriteEth {
                    cmp_va: *cmp_va,
                    write_va: *write_va,
                    rkey,
                    cmp_len: compare.len() as u16,
                }),
                &[compare, write],
            ),
            Request::Op(RemoteOp::Gather { word_len, vas }) => {
                // The address list has no byte form in the op; it is spelt
                // out in a scratch buffer borrowed from the pool.
                let mut be = extmem_wire::pool::take();
                for va in vas {
                    be.extend_from_slice(&va.to_be_bytes());
                }
                let frame = encode(
                    Opcode::GatherWalk,
                    false,
                    RoceExt::Gather(GatherEth {
                        rkey,
                        word_len: *word_len,
                        count: vas.len() as u16,
                    }),
                    &[&be],
                );
                extmem_wire::pool::give(be);
                frame
            }
        }
    }
}

/// Convenience: perform the whole control-plane channel setup between a
/// requester identity and an [`RnicNode`] *before* the simulation starts —
/// the moral equivalent of the paper's "RDMA channel controller" running on
/// the switch control plane and the server.
///
/// Returns the requester QP plus the `(rkey, base_va)` of a freshly
/// registered region of `region_size` bytes.
pub fn setup_channel(
    requester: RoceEndpoint,
    requester_qpn: QpNum,
    nic: &mut RnicNode,
    region_size: extmem_types::ByteSize,
) -> (RequesterQp, Rkey, u64) {
    let (rkey, base) = nic.register_region(region_size);
    let qpn = nic.create_qp(requester, requester_qpn, 0);
    let qp = RequesterQp::new(requester, nic.endpoint(), qpn, nic.mtu());
    (qp, rkey, base)
}

const TOKEN_SEND: u64 = 1;

/// A paced one-sided WRITE generator: writes `msg_size`-byte messages round
/// and round a remote ring at `offered` (wire) rate until `count` messages
/// have been sent. The E1 baseline measures the responder's lossless intake.
pub struct WriteBlaster {
    name: String,
    qp: RequesterQp,
    rkey: Rkey,
    base_va: u64,
    region_len: u64,
    msg_size: usize,
    interval: TimeDelta,
    remaining: u64,
    cursor: u64,
    tx: TxQueue,
    /// Messages handed to the wire.
    pub sent: u64,
}

impl WriteBlaster {
    /// Create a blaster sending `count` messages at `offered` wire rate.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        qp: RequesterQp,
        rkey: Rkey,
        base_va: u64,
        region_len: u64,
        msg_size: usize,
        offered: Rate,
        count: u64,
    ) -> WriteBlaster {
        assert!(msg_size as u64 <= region_len, "message larger than region");
        // Pace by the on-wire size of the encapsulated message.
        let wire = extmem_wire::ethernet::EthernetHeader::LEN
            + extmem_wire::roce::ROCEV2_BASE_OVERHEAD
            + extmem_wire::roce::WRITE_READ_OP_OVERHEAD
            + msg_size
            + extmem_wire::roce::pad_len(msg_size)
            + extmem_wire::icrc::ICRC_LEN;
        WriteBlaster {
            name: name.into(),
            qp,
            rkey,
            base_va,
            region_len,
            msg_size,
            interval: offered.time_to_send(wire),
            remaining: count,
            cursor: 0,
            tx: TxQueue::new(PortId(0)),
            sent: 0,
        }
    }

    fn send_one(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        if self.cursor + self.msg_size as u64 > self.region_len {
            self.cursor = 0;
        }
        let mut message = extmem_wire::pool::take();
        message.resize(self.msg_size, (self.sent & 0xff) as u8);
        let write = Request::Write {
            va: self.base_va + self.cursor,
            body: [&message, &[]],
            ack_req: false,
        };
        let frame = self.qp.issue(self.rkey, &write);
        extmem_wire::pool::give(message);
        self.cursor += self.msg_size as u64;
        self.tx.send(ctx, frame);
        self.sent += 1;
        if self.remaining > 0 {
            ctx.schedule(self.interval, TOKEN_SEND);
        }
    }
}

impl Node for WriteBlaster {
    fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _port: PortId, _packet: Packet) {
        // ACKs/NAKs are ignored: the blaster is open-loop.
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        debug_assert_eq!(token, TOKEN_SEND);
        self.send_one(ctx);
    }

    fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId) {
        self.tx.on_tx_done(ctx);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A closed-loop READ client: keeps `window` READs outstanding until `count`
/// have completed; measures payload goodput.
pub struct ReadLooper {
    name: String,
    qp: RequesterQp,
    rkey: Rkey,
    base_va: u64,
    region_len: u64,
    msg_size: usize,
    window: usize,
    remaining_to_issue: u64,
    outstanding: usize,
    cursor: u64,
    tx: TxQueue,
    /// Completed reads.
    pub completed: u64,
    /// Payload bytes received.
    pub bytes: u64,
    /// Completion time of the last read.
    pub last_completion: Time,
}

impl ReadLooper {
    /// Create a looper issuing `count` reads with `window` outstanding.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        qp: RequesterQp,
        rkey: Rkey,
        base_va: u64,
        region_len: u64,
        msg_size: usize,
        window: usize,
        count: u64,
    ) -> ReadLooper {
        assert!(window > 0, "window must be positive");
        ReadLooper {
            name: name.into(),
            qp,
            rkey,
            base_va,
            region_len,
            msg_size,
            window,
            remaining_to_issue: count,
            outstanding: 0,
            cursor: 0,
            tx: TxQueue::new(PortId(0)),
            completed: 0,
            bytes: 0,
            last_completion: Time::ZERO,
        }
    }

    fn fill_window(&mut self, ctx: &mut NodeCtx<'_>) {
        while self.outstanding < self.window && self.remaining_to_issue > 0 {
            self.remaining_to_issue -= 1;
            self.outstanding += 1;
            if self.cursor + self.msg_size as u64 > self.region_len {
                self.cursor = 0;
            }
            let read = Request::Read {
                va: self.base_va + self.cursor,
                len: self.msg_size as u32,
            };
            self.cursor += self.msg_size as u64;
            let frame = self.qp.issue(self.rkey, &read);
            self.tx.send(ctx, frame);
        }
    }
}

impl Node for ReadLooper {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId, packet: Packet) {
        let Ok(Some(resp)) = RocePacket::parse(&packet) else {
            return;
        };
        let payload_len = resp.payload.len() as u64;
        match resp.bth.opcode {
            Opcode::ReadRespOnly | Opcode::ReadRespLast => {
                self.bytes += payload_len;
                self.completed += 1;
                self.outstanding = self.outstanding.saturating_sub(1);
                self.last_completion = ctx.now();
                self.fill_window(ctx);
            }
            Opcode::ReadRespFirst | Opcode::ReadRespMiddle => {
                self.bytes += payload_len;
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _token: u64) {
        self.fill_window(ctx);
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
    use crate::nic::RnicConfig;
    use extmem_sim::{LinkSpec, SimBuilder};
    use extmem_types::ByteSize;
    use extmem_wire::MacAddr;

    fn host() -> RoceEndpoint {
        RoceEndpoint {
            mac: MacAddr::local(1),
            ip: 0x0a000001,
        }
    }

    fn server() -> RoceEndpoint {
        RoceEndpoint {
            mac: MacAddr::local(2),
            ip: 0x0a000002,
        }
    }

    #[test]
    fn requester_qp_psn_accounting() {
        let mut qp = RequesterQp::new(host(), server(), QpNum(7), 1024);
        let mut issue = |req: Request<'_>| {
            let frame = qp.issue(Rkey(1), &req);
            (RocePacket::parse(&frame).unwrap().unwrap().bth.psn, qp.npsn)
        };
        let write = Request::Write {
            va: 0x1000,
            body: [&[0; 10], &[]],
            ack_req: false,
        };
        assert_eq!(issue(write), (0, 1));
        // 3 response packets at 1024 MTU.
        let read = Request::Read {
            va: 0x1000,
            len: 3000,
        };
        assert_eq!(issue(read), (1, 4));
        let add = Request::FetchAdd { va: 0x1000, add: 1 };
        assert_eq!(issue(add), (4, 5));
        let op = RemoteOp::Gather {
            word_len: 8,
            vas: vec![0x1000, 0x2000],
        };
        assert_eq!(issue(Request::Op(&op)), (5, 6));
    }

    #[test]
    fn bucket_sized_reads_are_single_response() {
        // The one-RTT lookup's bucket READ geometry: a 128-byte cuckoo
        // bucket must come back as exactly one response packet (one PSN) at
        // every MTU the model supports.
        for mtu in [256, 512, 1024, 2048, 4096] {
            let qp = RequesterQp::new(host(), server(), QpNum(9), mtu);
            assert!(qp.single_packet_read_limit() >= 128, "mtu {mtu}");
            assert_eq!(qp.read_span(128), 1, "mtu {mtu}");
            assert_eq!(qp.read_span(qp.single_packet_read_limit()), 1);
            assert_eq!(qp.read_span(qp.single_packet_read_limit() + 1), 2);
        }
    }

    #[test]
    fn write_blaster_delivers_losslessly_below_capacity() {
        let mut nic = RnicNode::new("rnic", RnicConfig::at(server()));
        let (qp, rkey, base) = setup_channel(host(), QpNum(0x55), &mut nic, ByteSize::from_mb(1));
        let blaster = WriteBlaster::new(
            "blaster",
            qp,
            rkey,
            base,
            1_000_000,
            1500,
            Rate::from_gbps(30), // below the ~34G write-path ceiling
            500,
        );
        let mut b = SimBuilder::new(2);
        let bl = b.add_node(Box::new(blaster));
        let rn = b.add_node(Box::new(nic));
        b.connect(bl, PortId(0), rn, PortId(0), LinkSpec::testbed_40g());
        let mut sim = b.build();
        sim.schedule_timer(bl, TimeDelta::ZERO, TOKEN_SEND);
        sim.run_to_quiescence();
        let stats = sim.node::<RnicNode>(rn).stats();
        assert_eq!(stats.writes, 500);
        assert_eq!(stats.write_bytes, 500 * 1500);
        assert_eq!(stats.rx_overflow_drops, 0);
        assert_eq!(stats.cpu_packets, 0);
    }

    #[test]
    fn write_blaster_overload_drops_at_nic() {
        let mut nic = RnicNode::new(
            "rnic",
            RnicConfig {
                rx_queue_cap: 16,
                ..RnicConfig::at(server())
            },
        );
        let (qp, rkey, base) = setup_channel(host(), QpNum(0x55), &mut nic, ByteSize::from_mb(1));
        // 40G offered into a ~34G write path with a small queue → drops.
        let blaster = WriteBlaster::new(
            "blaster",
            qp,
            rkey,
            base,
            1_000_000,
            1500,
            Rate::from_gbps(40),
            2000,
        );
        let mut b = SimBuilder::new(2);
        let bl = b.add_node(Box::new(blaster));
        let rn = b.add_node(Box::new(nic));
        b.connect(bl, PortId(0), rn, PortId(0), LinkSpec::testbed_40g());
        let mut sim = b.build();
        sim.schedule_timer(bl, TimeDelta::ZERO, TOKEN_SEND);
        sim.run_to_quiescence();
        let stats = sim.node::<RnicNode>(rn).stats();
        assert!(
            stats.rx_overflow_drops > 0,
            "expected NIC drops at overload"
        );
    }

    #[test]
    fn read_looper_completes_all() {
        let mut nic = RnicNode::new("rnic", RnicConfig::at(server()));
        let (qp, rkey, base) = setup_channel(host(), QpNum(0x55), &mut nic, ByteSize::from_mb(1));
        let looper = ReadLooper::new("looper", qp, rkey, base, 1_000_000, 1500, 4, 100);
        let mut b = SimBuilder::new(2);
        let lo = b.add_node(Box::new(looper));
        let rn = b.add_node(Box::new(nic));
        b.connect(lo, PortId(0), rn, PortId(0), LinkSpec::testbed_40g());
        let mut sim = b.build();
        sim.schedule_timer(lo, TimeDelta::ZERO, 0);
        sim.run_to_quiescence();
        let lo = sim.node::<ReadLooper>(lo);
        assert_eq!(lo.completed, 100);
        assert_eq!(lo.bytes, 100 * 1500);
        let stats = sim.node::<RnicNode>(rn).stats();
        assert_eq!(stats.reads, 100);
        assert_eq!(stats.cpu_packets, 0);
    }
}
