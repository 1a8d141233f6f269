//! Property-based tests for the wire formats: every codec must round-trip
//! arbitrary field values, and the ICRC must catch arbitrary single-byte
//! corruption anywhere in its coverage.

use extmem_types::{QpNum, Rkey};
use extmem_wire::aeth::{Aeth, NakCode, Syndrome};
use extmem_wire::atomic::{AtomicAckEth, AtomicEth};
use extmem_wire::bth::{Bth, Opcode};
use extmem_wire::payload::{build_data_packet, parse_data_packet, MIN_DATA_FRAME};
use extmem_wire::reth::Reth;
use extmem_wire::roce::{RoceEndpoint, RoceExt, RocePacket};
use extmem_wire::{MacAddr, Packet};
use proptest::prelude::*;

fn arb_opcode() -> impl Strategy<Value = Opcode> {
    prop_oneof![
        Just(Opcode::WriteOnly),
        Just(Opcode::ReadRequest),
        Just(Opcode::ReadRespOnly),
        Just(Opcode::Acknowledge),
        Just(Opcode::AtomicAcknowledge),
        Just(Opcode::FetchAdd),
    ]
}

fn arb_endpoint() -> impl Strategy<Value = RoceEndpoint> {
    (any::<[u8; 6]>(), any::<u32>()).prop_map(|(mac, ip)| {
        // Force unicast so frames are realistic.
        let mut mac = mac;
        mac[0] &= 0xfe;
        RoceEndpoint {
            mac: MacAddr(mac),
            ip,
        }
    })
}

proptest! {
    #[test]
    fn bth_roundtrip(
        op in arb_opcode(),
        solicited: bool,
        ack_req: bool,
        pad in 0u8..4,
        pkey: u16,
        qpn in 0u32..0x0100_0000,
        psn in 0u32..0x0100_0000,
    ) {
        let bth = Bth {
            opcode: op,
            solicited,
            mig_req: false,
            pad_count: pad,
            tver: 0,
            pkey,
            dest_qp: QpNum(qpn),
            ack_req,
            psn,
        };
        let mut buf = [0u8; Bth::LEN];
        bth.write(&mut buf).unwrap();
        prop_assert_eq!(Bth::parse(&buf).unwrap(), bth);
    }

    #[test]
    fn reth_roundtrip(va: u64, rkey: u32, len: u32) {
        let r = Reth { va, rkey: Rkey(rkey), dma_len: len };
        let mut buf = [0u8; Reth::LEN];
        r.write(&mut buf).unwrap();
        prop_assert_eq!(Reth::parse(&buf).unwrap(), r);
    }

    #[test]
    fn atomic_roundtrip(va: u64, rkey: u32, add: u64, cmp: u64, orig: u64) {
        let a = AtomicEth { va, rkey: Rkey(rkey), swap_add: add, compare: cmp };
        let mut buf = [0u8; AtomicEth::LEN];
        a.write(&mut buf).unwrap();
        prop_assert_eq!(AtomicEth::parse(&buf).unwrap(), a);

        let ack = AtomicAckEth { original_value: orig };
        let mut buf = [0u8; AtomicAckEth::LEN];
        ack.write(&mut buf).unwrap();
        prop_assert_eq!(AtomicAckEth::parse(&buf).unwrap(), ack);
    }

    #[test]
    fn aeth_roundtrip(msn in 0u32..0x0100_0000, pick in 0u8..6, low in 0u8..32) {
        let syndrome = match pick {
            0 => Syndrome::Ack { credits: low },
            1 => Syndrome::RnrNak { timer: low },
            2 => Syndrome::Nak(NakCode::PsnSequenceError),
            3 => Syndrome::Nak(NakCode::InvalidRequest),
            4 => Syndrome::Nak(NakCode::RemoteAccessError),
            _ => Syndrome::Nak(NakCode::RemoteOperationalError),
        };
        let a = Aeth { syndrome, msn };
        let mut buf = [0u8; Aeth::LEN];
        a.write(&mut buf).unwrap();
        prop_assert_eq!(Aeth::parse(&buf).unwrap(), a);
    }

    #[test]
    fn roce_write_roundtrip(
        src in arb_endpoint(),
        dst in arb_endpoint(),
        sport: u16,
        qpn in 0u32..0x0100_0000,
        psn in 0u32..0x0100_0000,
        va: u64,
        rkey: u32,
        payload in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        let pkt = RocePacket::new(
            src,
            dst,
            sport,
            Bth::new(Opcode::WriteOnly, QpNum(qpn), psn),
            RoceExt::Reth(Reth { va, rkey: Rkey(rkey), dma_len: payload.len() as u32 }),
            payload,
        );
        let wire = pkt.build().unwrap();
        let parsed = RocePacket::parse(&wire).unwrap().expect("is roce");
        prop_assert_eq!(parsed.payload, pkt.payload);
        prop_assert_eq!(parsed.bth.psn, psn);
        prop_assert_eq!(parsed.bth.dest_qp, QpNum(qpn));
        prop_assert_eq!(parsed.ipv4.src, src.ip);
        prop_assert_eq!(parsed.eth.dst, dst.mac);
        prop_assert_eq!(parsed.ext, pkt.ext);
    }

    /// Flipping any single bit in the IP-and-beyond region must be caught
    /// by either the IPv4 checksum, the ICRC, or a structural check —
    /// unless the flipped field is one the ICRC deliberately excludes
    /// (ToS, TTL, checksums, resv8a) in which case parsing may still
    /// succeed.
    #[test]
    fn corruption_is_detected_or_in_mutable_field(
        payload in proptest::collection::vec(any::<u8>(), 1..512),
        byte_sel in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let src = RoceEndpoint { mac: MacAddr::local(1), ip: 0x0a000001 };
        let dst = RoceEndpoint { mac: MacAddr::local(2), ip: 0x0a000002 };
        let pkt = RocePacket::new(
            src,
            dst,
            0x9000,
            Bth::new(Opcode::WriteOnly, QpNum(5), 9),
            RoceExt::Reth(Reth { va: 64, rkey: Rkey(3), dma_len: payload.len() as u32 }),
            payload,
        );
        let wire = pkt.build().unwrap();
        let n = wire.len();
        // Corrupt somewhere in the IP..end region (Ethernet header is not
        // covered by any checksum — as on real wires, where the FCS we do
        // not model would catch it).
        let at = 14 + byte_sel.index(n - 14);
        let mut bytes = wire.into_vec();
        bytes[at] ^= 1 << bit;
        let mutable = matches!(at, 15 | 22 | 24 | 25 | 40 | 41 | 46); // ToS,TTL,IP csum,UDP csum,resv8a
        match RocePacket::parse(&Packet::from_vec(bytes)) {
            Err(_) => {} // detected: good
            Ok(None) => {} // no longer classified as RoCE (e.g. proto bit): fine
            Ok(Some(parsed)) => {
                prop_assert!(
                    mutable,
                    "undetected corruption at offset {} (not a mutable field)",
                    at
                );
                // Mutable-field flips must not corrupt the payload.
                prop_assert_eq!(parsed.payload, pkt.payload);
            }
        }
    }

    #[test]
    fn data_packet_roundtrip(
        flow_id: u32,
        seq: u32,
        len in MIN_DATA_FRAME..4096usize,
        sport: u16,
        dport in 1u16..4791,
    ) {
        let flow = extmem_types::FiveTuple::new(1, 2, sport, dport, 17);
        let pkt = build_data_packet(
            MacAddr::local(1),
            MacAddr::local(2),
            flow,
            flow_id,
            seq,
            extmem_types::Time::from_nanos(42),
            len,
        ).unwrap();
        prop_assert_eq!(pkt.len(), len);
        let info = parse_data_packet(&pkt).unwrap().expect("workload frame");
        prop_assert_eq!(info.data.flow_id, flow_id);
        prop_assert_eq!(info.data.seq, seq);
        prop_assert_eq!(info.five_tuple(), flow);
    }

    /// The filler is written and checked a block at a time against a static
    /// byte ramp; the oracle is the byte-at-a-time definition. Every filler
    /// length from none to a full frame's, then one byte flipped anywhere
    /// behind the magic: the workload header (a different flow or sequence
    /// number moves the whole ramp) or the filler itself.
    #[test]
    fn filler_blocks_match_the_bytewise_oracle(
        flow_id: u32,
        seq: u32,
        filler_len in 0usize..1501,
        flip_at in any::<prop::sample::Index>(),
        flip in 0u8..255,
    ) {
        fn oracle(flow_id: u32, seq: u32, offset: usize) -> u8 {
            ((flow_id as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add((seq as u64).rotate_left(17))
                .wrapping_add(offset as u64)) as u8
        }
        /// The first filler byte of `frame` that is not what its own
        /// header says it should be.
        fn first_bad_byte(frame: &[u8]) -> Option<u8> {
            let word = |at: usize| u32::from_be_bytes(frame[at..at + 4].try_into().unwrap());
            let (flow_id, seq) = (word(44), word(48));
            frame[MIN_DATA_FRAME..]
                .iter()
                .enumerate()
                .find(|&(off, &b)| b != oracle(flow_id, seq, off))
                .map(|(_, &b)| b)
        }
        let flow = extmem_types::FiveTuple::new(1, 2, 3, 4, 17);
        let pkt = build_data_packet(
            MacAddr::local(1),
            MacAddr::local(2),
            flow,
            flow_id,
            seq,
            extmem_types::Time::from_nanos(42),
            MIN_DATA_FRAME + filler_len,
        ).unwrap();
        let built = &pkt.as_slice()[MIN_DATA_FRAME..];
        let want: Vec<u8> = (0..filler_len).map(|off| oracle(flow_id, seq, off)).collect();
        prop_assert_eq!(built, &want[..]);
        prop_assert!(parse_data_packet(&pkt).unwrap().is_some());

        // Behind the magic: flow id, sequence number, timestamp, filler.
        let mut bytes = pkt.into_vec();
        let at = 44 + flip_at.index(bytes.len() - 44);
        bytes[at] ^= flip + 1;
        let want = first_bad_byte(&bytes);
        match (parse_data_packet(&Packet::from_vec(bytes)), want) {
            (Ok(Some(_)), None) => {}
            (Err(extmem_wire::WireError::InvalidField { field, value }), Some(bad)) => {
                prop_assert_eq!(field, "workload filler");
                prop_assert_eq!(value, bad as u64, "flip at {}", at);
            }
            (got, want) => prop_assert!(false, "flip at {}: {:?}, oracle {:?}", at, got, want),
        }
    }

    /// Serialize → corrupt an arbitrary set of bits anywhere in the frame
    /// (including the Ethernet header) → parse. Any outcome is acceptable
    /// except a panic.
    #[test]
    fn parse_never_panics_on_arbitrary_corruption(
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        flips in proptest::collection::vec((any::<prop::sample::Index>(), 0u8..8), 1..8),
        truncate in any::<prop::sample::Index>(),
    ) {
        let src = RoceEndpoint { mac: MacAddr::local(1), ip: 0x0a000001 };
        let dst = RoceEndpoint { mac: MacAddr::local(2), ip: 0x0a000002 };
        let pkt = RocePacket::new(
            src,
            dst,
            0x9000,
            Bth::new(Opcode::WriteOnly, QpNum(5), 9),
            RoceExt::Reth(Reth { va: 64, rkey: Rkey(3), dma_len: payload.len() as u32 }),
            payload,
        );
        let mut bytes = pkt.build().unwrap().into_vec();
        for (sel, bit) in flips {
            let at = sel.index(bytes.len());
            bytes[at] ^= 1 << bit;
        }
        // Also exercise truncated frames: drop an arbitrary-length tail.
        bytes.truncate(truncate.index(bytes.len() + 1));
        let _ = RocePacket::parse(&Packet::from_vec(bytes)); // must not panic
    }

    /// [`Payload::slice`] for any in-bounds window: correct length, correct
    /// bytes, shares (not copies) the parent's buffer, parent unaffected.
    #[test]
    fn payload_slice_window_invariants(
        data in proptest::collection::vec(any::<u8>(), 0..256),
        a in any::<prop::sample::Index>(),
        b in any::<prop::sample::Index>(),
    ) {
        use extmem_wire::Payload;
        let p = Payload::from_vec(data.clone());
        let (mut s, mut e) = (a.index(data.len() + 1), b.index(data.len() + 1));
        if s > e {
            std::mem::swap(&mut s, &mut e);
        }
        let w = p.slice(s..e);
        prop_assert_eq!(w.len(), e - s);
        prop_assert_eq!(w.as_slice(), &data[s..e]);
        prop_assert_eq!(p.as_slice(), &data[..], "parent view unchanged");
        if !w.is_empty() {
            prop_assert!(p.ref_count() >= 2, "non-empty windows share the buffer");
        }
    }

    /// Copy-on-write isolation: flipping any bit through one clone leaves
    /// every other holder's view untouched, and changes exactly that bit in
    /// the mutated clone.
    #[test]
    fn payload_cow_isolation(
        data in proptest::collection::vec(any::<u8>(), 1..256),
        sel in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        use extmem_wire::Payload;
        let p = Payload::from_vec(data.clone());
        let mut q = p.clone();
        let at = sel.index(data.len());
        q.make_mut()[at] ^= 1 << bit;
        prop_assert_eq!(&p, &data, "original holder's view mutated");
        prop_assert_eq!(q.len(), data.len());
        let diff: Vec<usize> =
            (0..data.len()).filter(|&i| q.as_slice()[i] != data[i]).collect();
        prop_assert_eq!(diff, vec![at]);
        prop_assert_eq!(q.as_slice()[at] ^ data[at], 1 << bit);
    }

    /// The content digest on arbitrary bytes: any one flipped bit, any two
    /// distinct words exchanged (whichever lanes, blocks or tail they sit
    /// in) and any run of appended zero bytes changes it, and a packet's
    /// cached digest is `digest64` of its bytes.
    #[test]
    fn digest64_tells_flips_swaps_and_zero_padding_apart(
        data in proptest::collection::vec(any::<u8>(), 16..600),
        bit in any::<prop::sample::Index>(),
        a in any::<prop::sample::Index>(),
        b in any::<prop::sample::Index>(),
        zeros in 1usize..80,
    ) {
        use extmem_wire::packet::digest64;
        let h = digest64(&data);
        prop_assert_eq!(Packet::from_vec(data.clone()).digest(), h);

        let mut flipped = data.clone();
        let at = bit.index(data.len() * 8);
        flipped[at / 8] ^= 1 << (at % 8);
        prop_assert_ne!(digest64(&flipped), h, "bit {} of {} B", at, data.len());

        let (a, b) = (a.index(data.len() / 8) * 8, b.index(data.len() / 8) * 8);
        if data[a..a + 8] != data[b..b + 8] {
            let mut swapped = data.clone();
            for i in 0..8 {
                swapped.swap(a + i, b + i);
            }
            prop_assert_ne!(digest64(&swapped), h, "words at {} and {} of {} B", a, b, data.len());
        }

        let mut padded = data.clone();
        padded.resize(data.len() + zeros, 0);
        prop_assert_ne!(digest64(&padded), h, "{} B + {} zero bytes", data.len(), zeros);
    }

    /// The slice-by-8 CRC must be bit-identical to the byte-at-a-time
    /// oracle for any data, any starting state, and any split point (the
    /// masked-prefix ICRC path feeds the CRC in two runs).
    #[test]
    fn slice_by_8_crc_matches_bytewise_oracle(
        data in proptest::collection::vec(any::<u8>(), 0..300),
        state: u32,
        split in any::<prop::sample::Index>(),
    ) {
        use extmem_wire::icrc::{crc32_update, crc32_update_bytewise};
        prop_assert_eq!(crc32_update(state, &data), crc32_update_bytewise(state, &data));
        // Streaming in two arbitrary chunks must agree too (exercises the
        // scalar tail of the first run feeding the stride of the second).
        let at = split.index(data.len() + 1);
        let two_step = crc32_update(crc32_update(state, &data[..at]), &data[at..]);
        prop_assert_eq!(two_step, crc32_update_bytewise(state, &data));
    }

    /// The masked-prefix ICRC must equal the straightforward byte-at-a-time
    /// reference for arbitrary well-formed frames.
    #[test]
    fn icrc_fast_path_matches_bytewise_oracle(
        src in arb_endpoint(),
        dst in arb_endpoint(),
        sport: u16,
        qpn in 0u32..0x0100_0000,
        psn in 0u32..0x0100_0000,
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        use extmem_wire::ethernet::EthernetHeader;
        use extmem_wire::icrc::{icrc_rocev2, icrc_rocev2_bytewise};
        let pkt = RocePacket::new(
            src,
            dst,
            sport,
            Bth::new(Opcode::WriteOnly, QpNum(qpn), psn),
            RoceExt::Reth(Reth { va: 64, rkey: Rkey(3), dma_len: payload.len() as u32 }),
            payload,
        );
        let wire = pkt.build().unwrap();
        let ip_and_later = &wire.as_slice()[EthernetHeader::LEN..wire.len() - 4];
        prop_assert_eq!(icrc_rocev2(ip_and_later), icrc_rocev2_bytewise(ip_and_later));
    }

    #[test]
    fn psn_serial_arithmetic_is_antisymmetric(a in 0u32..0x0100_0000, d in 1u32..0x0080_0000) {
        use extmem_wire::bth::{psn_add, psn_before};
        let b = psn_add(a, d);
        prop_assert!(psn_before(a, b));
        prop_assert!(!psn_before(b, a));
        prop_assert!(!psn_before(a, a));
    }

    /// `psn_add` is addition modulo 2^24: the result is always a valid
    /// 24-bit PSN and equals the plain modular sum, for any increments
    /// (including ones that themselves exceed the PSN space).
    #[test]
    fn psn_add_is_modular_24bit(a in 0u32..0x0100_0000, n: u32) {
        use extmem_wire::bth::psn_add;
        let r = psn_add(a, n);
        prop_assert!(r < 0x0100_0000, "result must stay 24-bit");
        prop_assert_eq!(u64::from(r), (u64::from(a) + u64::from(n)) % (1 << 24));
    }

    /// Advancing in two hops equals advancing once by the sum: where the
    /// sequence ends does not depend on how the advance was split.
    #[test]
    fn psn_add_composes(a in 0u32..0x0100_0000, m in 0u32..0x0080_0000, n in 0u32..0x0080_0000) {
        use extmem_wire::bth::psn_add;
        prop_assert_eq!(psn_add(psn_add(a, m), n), psn_add(a, m + n));
    }

    /// Against an unwrapped 64-bit oracle: for any two serial numbers on a
    /// long stream whose distance is within the comparison horizon (2^23),
    /// `psn_before` on the truncated 24-bit values agrees with plain `<`
    /// on the untruncated ones — no matter how many times the stream has
    /// wrapped.
    #[test]
    fn psn_before_matches_unwrapped_oracle(s: u64, d in 1u64..0x0080_0000) {
        use extmem_wire::bth::psn_before;
        let t = s + d;
        let (sp, tp) = ((s & 0x00ff_ffff) as u32, (t & 0x00ff_ffff) as u32);
        prop_assert!(psn_before(sp, tp));
        prop_assert!(!psn_before(tp, sp));
    }

    /// The retransmit-window model across the wrap: a window of `w` ops is
    /// outstanding starting at `base` (chosen so the window may straddle
    /// 0xffffff → 0x000000), the responder acks the first `k`. Every
    /// retired PSN must compare strictly before the new window head, the
    /// head must not compare before any still-outstanding PSN, and
    /// cumulative-ack retirement leaves exactly `w - k` outstanding.
    #[test]
    fn psn_window_retirement_across_wrap(
        off in 0u32..64,
        w in 1u32..48,
        kf in any::<prop::sample::Index>(),
    ) {
        use extmem_wire::bth::{psn_add, psn_before};
        // Place the window so it can straddle the 24-bit wrap point.
        let base = psn_add(0x00ff_ffe0, off);
        let k = kf.index(w as usize + 1) as u32;
        let head = psn_add(base, k);
        let mut outstanding = 0u32;
        for i in 0..w {
            let psn = psn_add(base, i);
            if psn_before(psn, head) {
                // Retired by the cumulative ack at `head`.
                prop_assert!(i < k, "retired an op past the ack point");
            } else {
                prop_assert!(i >= k, "ack at head={head:#x} skipped psn={psn:#x}");
                outstanding += 1;
            }
        }
        prop_assert_eq!(outstanding, w - k);
    }
}

/// Round-trip through the full packet codec for every remote-op opcode:
/// the two request formats (extension header + op-specific payload).
/// Payloads are generated consistent with their headers, as the requester
/// builds them; the answer to either is a READ response, covered with the
/// verbs.
mod extop_roundtrips {
    use extmem_types::{QpNum, Rkey};
    use extmem_wire::bth::{Bth, Opcode};
    use extmem_wire::extop::{GatherEth, HashProbeEth};
    use extmem_wire::roce::{RoceEndpoint, RoceExt, RocePacket};
    use extmem_wire::MacAddr;
    use proptest::prelude::*;

    pub fn arb_ext_op() -> impl Strategy<Value = (Opcode, RoceExt, Vec<u8>)> {
        prop_oneof![
            (
                (any::<u64>(), any::<u32>()),
                (
                    any::<u16>(),
                    any::<u16>(),
                    any::<u8>(),
                    proptest::collection::vec(any::<u8>(), 1..33),
                ),
            )
                .prop_map(|((va, rkey), (len, slot_bytes, key_off, key))| (
                    Opcode::HashProbe,
                    RoceExt::HashProbe(HashProbeEth {
                        va,
                        rkey: Rkey(rkey),
                        len,
                        slot_bytes,
                        key_off,
                        key_len: key.len() as u8,
                    }),
                    key,
                )),
            (
                any::<u32>(),
                any::<u16>(),
                proptest::collection::vec(any::<u64>(), 1..17),
            )
                .prop_map(|(rkey, word_len, vas)| {
                    let mut payload = Vec::with_capacity(vas.len() * 8);
                    for va in &vas {
                        payload.extend_from_slice(&va.to_be_bytes());
                    }
                    (
                        Opcode::GatherWalk,
                        RoceExt::Gather(GatherEth {
                            rkey: Rkey(rkey),
                            word_len,
                            count: vas.len() as u16,
                        }),
                        payload,
                    )
                }),
        ]
    }

    proptest! {
        #[test]
        fn ext_op_packet_roundtrip(
            (op, ext, payload) in arb_ext_op(),
            qpn in 0u32..0x0100_0000,
            psn in 0u32..0x0100_0000,
            sport: u16,
        ) {
            let src = RoceEndpoint { mac: MacAddr::local(1), ip: 0x0a000001 };
            let dst = RoceEndpoint { mac: MacAddr::local(2), ip: 0x0a000002 };
            let pkt = RocePacket::new(
                src,
                dst,
                sport,
                Bth::new(op, QpNum(qpn), psn),
                ext,
                payload,
            );
            let wire = pkt.build().unwrap();
            let parsed = RocePacket::parse(&wire).unwrap().expect("is roce");
            prop_assert_eq!(parsed.bth.opcode, op);
            prop_assert_eq!(parsed.bth.psn, psn);
            prop_assert_eq!(parsed.bth.dest_qp, QpNum(qpn));
            prop_assert_eq!(parsed.ext, pkt.ext);
            prop_assert_eq!(parsed.payload, pkt.payload);
        }
    }
}

/// There is one frame encoder, [`RoceHeaders::encode_into`], fed borrowed
/// body parts; `RocePacket::build_into` is that encoder with the payload as
/// the only part. Both must produce, byte for byte, what the encoder they
/// replaced produced: every header written by its own codec at its fixed
/// offset into a zeroed frame, the payload copied behind them, zero pad,
/// ICRC over everything after the Ethernet header — kept here as the
/// reference, for every opcode/extension pairing and however the body is
/// cut into parts.
mod one_encoder {
    use super::{arb_endpoint, extop_roundtrips::arb_ext_op};
    use extmem_rnic::requester::{Operand, RemoteOp, Request, RequesterQp};
    use extmem_types::{QpNum, Rkey};
    use extmem_wire::aeth::Aeth;
    use extmem_wire::atomic::{AtomicAckEth, AtomicEth};
    use extmem_wire::bth::{Bth, Opcode};
    use extmem_wire::icrc::{icrc_rocev2, ICRC_LEN};
    use extmem_wire::reth::Reth;
    use extmem_wire::roce::{pad_len, RoceExt, RocePacket};
    use extmem_wire::{EthernetHeader, Ipv4Header, UdpHeader};
    use proptest::prelude::*;

    /// The pre-refactor `build_into`, written the slow obvious way.
    fn reference_build(pkt: &RocePacket) -> Vec<u8> {
        let pad = pad_len(pkt.payload.len());
        let mut out = vec![0u8; pkt.wire_len()];
        let total = out.len();
        pkt.eth.write(&mut out).unwrap();
        let ip_at = EthernetHeader::LEN;
        let mut ipv4 = pkt.ipv4;
        ipv4.total_len = (total - ip_at) as u16;
        ipv4.write(&mut out[ip_at..]).unwrap();
        let udp_at = ip_at + Ipv4Header::LEN;
        let mut udp = pkt.udp;
        udp.length = (total - udp_at) as u16;
        udp.write(&mut out[udp_at..]).unwrap();
        let bth_at = udp_at + UdpHeader::LEN;
        let mut bth = pkt.bth;
        bth.pad_count = pad as u8;
        bth.write(&mut out[bth_at..]).unwrap();
        let ext = &mut out[bth_at + Bth::LEN..];
        match &pkt.ext {
            RoceExt::Reth(h) => h.write(ext).unwrap(),
            RoceExt::Aeth(h) => h.write(ext).unwrap(),
            RoceExt::AtomicEth(h) => h.write(ext).unwrap(),
            RoceExt::AtomicAck(aeth, ack) => {
                aeth.write(ext).unwrap();
                ack.write(&mut ext[Aeth::LEN..]).unwrap();
            }
            RoceExt::HashProbe(h) => h.write(ext).unwrap(),
            RoceExt::Gather(h) => h.write(ext).unwrap(),
            RoceExt::None => {}
        }
        let body_at = bth_at + Bth::LEN + pkt.ext.encoded_len();
        out[body_at..body_at + pkt.payload.len()].copy_from_slice(&pkt.payload);
        let icrc = icrc_rocev2(&out[ip_at..total - ICRC_LEN]);
        out[total - ICRC_LEN..].copy_from_slice(&icrc.to_le_bytes());
        out
    }

    /// A request that owns its bytes, to lend to a [`Request`].
    #[derive(Debug, Clone)]
    enum Owned {
        Write {
            va: u64,
            body: Vec<u8>,
            cut: prop::sample::Index,
            ack_req: bool,
        },
        Read {
            va: u64,
            len: u32,
        },
        FetchAdd {
            va: u64,
            add: u64,
        },
        Op(RemoteOp),
    }

    impl Owned {
        /// The request as the encoder takes it, and the same thing spelt
        /// out as the opcode, extension header and payload of its frame.
        fn spelt_out(&self, rkey: Rkey) -> (Request<'_>, Opcode, RoceExt, Vec<u8>) {
            use extmem_wire::extop::{GatherEth, HashProbeEth};
            match self {
                Owned::Write {
                    va,
                    body,
                    cut,
                    ack_req,
                } => {
                    let (head, tail) = body.split_at(cut.index(body.len() + 1));
                    let reth = Reth {
                        va: *va,
                        rkey,
                        dma_len: body.len() as u32,
                    };
                    let req = Request::Write {
                        va: *va,
                        body: [head, tail],
                        ack_req: *ack_req,
                    };
                    (req, Opcode::WriteOnly, RoceExt::Reth(reth), body.clone())
                }
                &Owned::Read { va, len } => {
                    let reth = Reth {
                        va,
                        rkey,
                        dma_len: len,
                    };
                    let req = Request::Read { va, len };
                    (req, Opcode::ReadRequest, RoceExt::Reth(reth), vec![])
                }
                &Owned::FetchAdd { va, add } => {
                    let atomic = AtomicEth {
                        va,
                        rkey,
                        swap_add: add,
                        compare: 0,
                    };
                    let req = Request::FetchAdd { va, add };
                    (req, Opcode::FetchAdd, RoceExt::AtomicEth(atomic), vec![])
                }
                Owned::Op(op) => {
                    let (opcode, ext, payload) = match op {
                        &RemoteOp::HashProbe {
                            va,
                            len,
                            slot_bytes,
                            key_off,
                            key,
                        } => (
                            Opcode::HashProbe,
                            RoceExt::HashProbe(HashProbeEth {
                                va,
                                rkey,
                                len,
                                slot_bytes,
                                key_off,
                                key_len: key.len() as u8,
                            }),
                            key.to_vec(),
                        ),
                        RemoteOp::Gather { word_len, vas } => (
                            Opcode::GatherWalk,
                            RoceExt::Gather(GatherEth {
                                rkey,
                                word_len: *word_len,
                                count: vas.len() as u16,
                            }),
                            vas.iter().flat_map(|va| va.to_be_bytes()).collect(),
                        ),
                    };
                    (Request::Op(op), opcode, ext, payload)
                }
            }
        }
    }

    fn arb_request() -> impl Strategy<Value = Owned> {
        use proptest::collection::vec;
        let operand = |len| vec(any::<u8>(), len).prop_map(|bytes| Operand::new(&bytes));
        prop_oneof![
            (
                any::<u64>(),
                vec(any::<u8>(), 0..700),
                any::<prop::sample::Index>(),
                any::<bool>(),
            )
                .prop_map(|(va, body, cut, ack_req)| Owned::Write {
                    va,
                    body,
                    cut,
                    ack_req,
                }),
            (any::<u64>(), any::<u32>()).prop_map(|(va, len)| Owned::Read { va, len }),
            (any::<u64>(), any::<u64>()).prop_map(|(va, add)| Owned::FetchAdd { va, add }),
            (
                (any::<u64>(), any::<u16>()),
                (any::<u16>(), any::<u8>(), operand(1..33)),
            )
                .prop_map(|((va, len), (slot_bytes, key_off, key))| {
                    Owned::Op(RemoteOp::HashProbe {
                        va,
                        len,
                        slot_bytes,
                        key_off,
                        key,
                    })
                }),
            (any::<u16>(), vec(any::<u64>(), 1..17))
                .prop_map(|(word_len, vas)| Owned::Op(RemoteOp::Gather { word_len, vas })),
        ]
    }

    /// Every verb opcode with the extension header it requires, and a body
    /// of any length (the encoder does not police which opcodes carry one).
    fn arb_verb() -> impl Strategy<Value = (Opcode, RoceExt, Vec<u8>)> {
        let reth = (any::<u64>(), any::<u32>(), any::<u32>()).prop_map(|(va, rkey, dma_len)| {
            RoceExt::Reth(Reth {
                va,
                rkey: Rkey(rkey),
                dma_len,
            })
        });
        let aeth = (0u32..0x0100_0000).prop_map(|msn| RoceExt::Aeth(Aeth::ack(msn)));
        let exts = prop_oneof![
            (
                prop::sample::select(vec![Opcode::WriteOnly, Opcode::ReadRequest]),
                reth
            ),
            (
                prop::sample::select(vec![Opcode::ReadRespOnly, Opcode::Acknowledge]),
                aeth
            ),
            (
                Just(Opcode::FetchAdd),
                (any::<u64>(), any::<u32>(), any::<u64>(), any::<u64>()).prop_map(
                    |(va, rkey, swap_add, compare)| RoceExt::AtomicEth(AtomicEth {
                        va,
                        rkey: Rkey(rkey),
                        swap_add,
                        compare
                    })
                )
            ),
            (
                Just(Opcode::AtomicAcknowledge),
                (0u32..0x0100_0000, any::<u64>()).prop_map(|(msn, original_value)| {
                    RoceExt::AtomicAck(Aeth::ack(msn), AtomicAckEth { original_value })
                })
            ),
        ];
        (exts, proptest::collection::vec(any::<u8>(), 0..700))
            .prop_map(|((op, ext), body)| (op, ext, body))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]
        #[test]
        fn borrowed_parts_encode_what_the_old_builder_did(
            (op, ext, body) in prop_oneof![arb_verb(), arb_ext_op()],
            src in arb_endpoint(),
            dst in arb_endpoint(),
            sport: u16,
            qpn in 0u32..0x0100_0000,
            psn in 0u32..0x0100_0000,
            (solicited, ack_req, pkey) in (any::<bool>(), any::<bool>(), any::<u16>()),
            (dscp, ecn, ttl, identification) in (0u8..0x40, 0u8..4, any::<u8>(), any::<u16>()),
            cuts in proptest::collection::vec(any::<u16>(), 0..5),
            stale in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let mut bth = Bth::new(op, QpNum(qpn), psn);
            bth.solicited = solicited;
            bth.ack_req = ack_req;
            bth.pkey = pkey;
            let mut pkt = RocePacket::new(src, dst, sport, bth, ext, body.clone());
            pkt.ipv4.dscp = dscp;
            pkt.ipv4.ecn = ecn;
            pkt.ipv4.ttl = ttl;
            pkt.ipv4.identification = identification;
            let want = reference_build(&pkt);

            // Cut the body anywhere, any number of times; repeated cut
            // points make empty parts, no cuts and no body make `&[]`.
            let mut at: Vec<usize> = cuts.iter().map(|c| *c as usize % (body.len() + 1)).collect();
            at.sort_unstable();
            let mut parts: Vec<&[u8]> = Vec::new();
            let mut from = 0;
            for cut in at {
                parts.push(&body[from..cut]);
                from = cut;
            }
            if from < body.len() {
                parts.push(&body[from..]);
            }
            // Whatever the buffer held before is gone.
            let mut out = stale;
            pkt.headers().encode_into(&parts, &mut out).unwrap();
            prop_assert_eq!(&out, &want, "parts {:?}", parts.iter().map(|p| p.len()).collect::<Vec<_>>());
            pkt.build_into(&mut out).unwrap();
            prop_assert_eq!(&out, &want);
            // The pooled entry point is the same bytes in a `Packet`.
            let frame = pkt.headers().encode(&parts).unwrap();
            prop_assert_eq!(frame.as_slice(), &want[..]);
            prop_assert_eq!(RocePacket::parse(&frame).unwrap().unwrap().payload, body);
        }

        /// A WRITE's body is an inline head and a shared tail; the frame
        /// must be the one a WRITE of their concatenation is, wherever the
        /// split falls — no head, no tail, neither — and whether or not
        /// the tail is a window of a larger buffer.
        #[test]
        fn write_head_and_tail_encode_their_concatenation(
            body in proptest::collection::vec(any::<u8>(), 0..700),
            cut in any::<prop::sample::Index>(),
            margin in 0usize..9,
            src in arb_endpoint(),
            dst in arb_endpoint(),
            (va, rkey, psn) in (any::<u64>(), any::<u32>(), 0u32..0x0100_0000),
            ack_req: bool,
        ) {
            use extmem_rnic::requester::WriteBody;
            use extmem_wire::Payload;
            let cut = cut.index(body.len().min(Operand::MAX_LEN) + 1);
            let mut buffer = vec![0xee; margin];
            buffer.extend_from_slice(&body[cut..]);
            buffer.resize(buffer.len() + margin, 0xee);
            let tail = Payload::from_vec(buffer).slice(margin..margin + body.len() - cut);
            let framed = WriteBody::framed(&body[..cut], tail);

            let mut qp = RequesterQp::new(src, dst, QpNum(0x100));
            qp.npsn = psn;
            let mut bth = Bth::new(Opcode::WriteOnly, QpNum(0x100), psn);
            bth.ack_req = ack_req;
            let reth = Reth { va, rkey: Rkey(rkey), dma_len: body.len() as u32 };
            let whole = RocePacket::new(src, dst, qp.udp_src_port, bth, RoceExt::Reth(reth), body.clone());
            let want = reference_build(&whole);

            fn write(va: u64, body: &WriteBody, ack_req: bool) -> Request<'_> {
                Request::Write { va, body: body.parts(), ack_req }
            }
            let frame = qp.issue(Rkey(rkey), &write(va, &framed, ack_req)).unwrap();
            prop_assert_eq!(frame.as_slice(), &want[..], "split at {}", cut);
            prop_assert_eq!(qp.npsn, (psn + 1) & 0x00ff_ffff);
            if body.len() <= Operand::MAX_LEN {
                let inline = WriteBody::inline(&body);
                prop_assert!(inline.tail.is_empty());
                let frame = qp.encode_at(psn, Rkey(rkey), &write(va, &inline, ack_req)).unwrap();
                prop_assert_eq!(frame.as_slice(), &want[..]);
            }
        }

        /// The one request encoder against the slow reference, for all four
        /// kinds of request: whatever the PSN, rkey and operands, the frame
        /// is the one `RocePacket::new(..)` with the same fields builds,
        /// and `issue` is that frame at `npsn`, which moves on by one.
        #[test]
        fn every_request_kind_is_encoded_as_the_reference_builds_it(
            owned in arb_request(),
            src in arb_endpoint(),
            dst in arb_endpoint(),
            (rkey, psn) in (any::<u32>(), 0u32..0x0100_0000),
        ) {
            let rkey = Rkey(rkey);
            let mut qp = RequesterQp::new(src, dst, QpNum(0x4242));
            let (req, opcode, ext, payload) = owned.spelt_out(rkey);
            let mut bth = Bth::new(opcode, qp.peer_qpn, psn);
            bth.ack_req = matches!(req, Request::Write { ack_req: true, .. });
            let want = reference_build(&RocePacket::new(src, dst, qp.udp_src_port, bth, ext, payload));

            let frame = qp.encode_at(psn, rkey, &req).unwrap();
            prop_assert_eq!(frame.as_slice(), &want[..]);
            prop_assert_eq!(qp.npsn, 0, "encode_at leaves the sequence alone");
            qp.npsn = psn;
            let frame = qp.issue(rkey, &req).unwrap();
            prop_assert_eq!(frame.as_slice(), &want[..]);
            prop_assert_eq!(qp.npsn, (psn + 1) & 0x00ff_ffff);
        }

        #[test]
        fn both_entry_points_refuse_a_mismatched_extension(
            (op, _, body) in arb_verb(),
        ) {
            let src = extmem_wire::roce::RoceEndpoint { mac: extmem_wire::MacAddr::local(1), ip: 1 };
            // A Gather header belongs to none of the verb opcodes.
            let wrong = RoceExt::Gather(extmem_wire::extop::GatherEth { rkey: Rkey(1), word_len: 8, count: 1 });
            let pkt = RocePacket::new(src, src, 7, Bth::new(op, QpNum(1), 0), wrong, body.clone());
            let mut out = Vec::new();
            prop_assert!(pkt.build_into(&mut out).is_err());
            prop_assert!(pkt.headers().encode_into(&[&body], &mut out).is_err());
        }
    }
}
