//! Robustness properties: parsers never panic on arbitrary bytes, the
//! event queue is a total order, and the arithmetic types round-trip.

use extmem_types::{Rate, Time, TimeDelta};
use extmem_wire::payload::parse_data_packet;
use extmem_wire::{Packet, RocePacket};
use proptest::prelude::*;

proptest! {
    /// Arbitrary bytes must never panic the RoCE parser — at worst they are
    /// "not RoCE" or an error.
    #[test]
    fn roce_parser_total_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = RocePacket::parse(&Packet::from_vec(bytes));
    }

    /// Same for the workload-frame parser.
    #[test]
    fn data_parser_total_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = parse_data_packet(&Packet::from_vec(bytes));
    }

    /// Mutating any prefix of a valid RoCE frame still never panics.
    #[test]
    fn roce_parser_total_on_truncations(cut in 0usize..134) {
        use extmem_types::{QpNum, Rkey};
        use extmem_wire::bth::{Bth, Opcode};
        use extmem_wire::reth::Reth;
        use extmem_wire::roce::{RoceEndpoint, RoceExt};
        use extmem_wire::MacAddr;
        let src = RoceEndpoint { mac: MacAddr::local(1), ip: 1 };
        let dst = RoceEndpoint { mac: MacAddr::local(2), ip: 2 };
        let full = RocePacket::new(
            src,
            dst,
            9,
            Bth::new(Opcode::WriteOnly, QpNum(3), 4),
            RoceExt::Reth(Reth { va: 0, rkey: Rkey(1), dma_len: 60 }),
            vec![7u8; 60],
        )
        .build()
        .unwrap();
        let cut = cut.min(full.len());
        let truncated = Packet::from_vec(full.as_slice()[..cut].to_vec());
        let _ = RocePacket::parse(&truncated);
    }

    /// Rate arithmetic: `bytes_in(time_to_send(n)) == n` for any positive
    /// rate and size (time_to_send rounds up, so the inverse can only
    /// overshoot by the sub-picosecond remainder — i.e. never undershoot).
    #[test]
    fn rate_send_time_inverts(bps in 1_000u64..1_000_000_000_000, bytes in 1usize..1_000_000) {
        let r = Rate::from_bps(bps);
        let t = r.time_to_send(bytes);
        let back = r.bytes_in(t);
        prop_assert!(back >= bytes as u64, "{back} < {bytes}");
        // Overshoot is bounded by the bytes one picosecond carries, plus one.
        let slack = bps / 8 / 1_000_000_000_000 + 1;
        prop_assert!(back - bytes as u64 <= slack, "overshoot {} > {slack}", back - bytes as u64);
    }

    /// Time arithmetic is associative with deltas and display never panics.
    #[test]
    fn time_arithmetic(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4, c in 0u64..u64::MAX / 4) {
        let t = Time::from_picos(a);
        let d1 = TimeDelta::from_picos(b);
        let d2 = TimeDelta::from_picos(c);
        prop_assert_eq!((t + d1) + d2, t + (d1 + d2));
        prop_assert_eq!((t + d1) - t, d1);
        let _ = format!("{t} {d1}");
    }
}

/// A valid RoCEv2 frame for `opcode`, with the extended header it requires.
fn valid_roce_frame(opcode: extmem_wire::bth::Opcode, payload: Vec<u8>) -> Vec<u8> {
    use extmem_types::{QpNum, Rkey};
    use extmem_wire::aeth::Aeth;
    use extmem_wire::atomic::{AtomicAckEth, AtomicEth};
    use extmem_wire::bth::{Bth, Opcode::*};
    use extmem_wire::extop::{GatherEth, HashProbeEth};
    use extmem_wire::reth::Reth;
    use extmem_wire::roce::{RoceEndpoint, RoceExt};
    use extmem_wire::MacAddr;
    let rkey = Rkey(7);
    let ext = match opcode {
        WriteOnly | ReadRequest => RoceExt::Reth(Reth {
            va: 0x1000,
            rkey,
            dma_len: 64,
        }),
        ReadRespOnly | Acknowledge => RoceExt::Aeth(Aeth::ack(1)),
        FetchAdd => RoceExt::AtomicEth(AtomicEth {
            va: 0x1000,
            rkey,
            swap_add: 1,
            compare: 0,
        }),
        AtomicAcknowledge => RoceExt::AtomicAck(Aeth::ack(1), AtomicAckEth { original_value: 9 }),
        HashProbe => RoceExt::HashProbe(HashProbeEth {
            base_va: 0x1000,
            rkey,
            bucket: 1,
            bucket_bytes: 64,
            slot_bytes: 16,
            key_off: 0,
            key_len: 8,
        }),
        GatherWalk => RoceExt::Gather(GatherEth {
            rkey,
            word_len: 8,
            count: 2,
        }),
    };
    let src = RoceEndpoint {
        mac: MacAddr::local(1),
        ip: 1,
    };
    let dst = RoceEndpoint {
        mac: MacAddr::local(2),
        ip: 2,
    };
    RocePacket::new(src, dst, 9, Bth::new(opcode, QpNum(3), 4), ext, payload)
        .build()
        .unwrap()
        .into_vec()
}

/// Every BTH opcode the parser knows.
const OPCODES: [extmem_wire::bth::Opcode; 8] = {
    use extmem_wire::bth::Opcode::*;
    [
        WriteOnly,
        ReadRequest,
        ReadRespOnly,
        Acknowledge,
        AtomicAcknowledge,
        FetchAdd,
        HashProbe,
        GatherWalk,
    ]
};

/// One field of a valid frame overwritten, each a length or selector the
/// parser trusts once the IPv4 checksum holds.
#[derive(Clone, Copy, Debug)]
enum FrameEdit {
    /// IPv4 `total_len`: where the parser thinks the datagram ends.
    IpTotalLen(u16),
    /// UDP `length`.
    UdpLength(u16),
    /// The BTH opcode byte: another known opcode or any byte.
    Opcode(u8),
    /// The BTH pad count (0..=3).
    PadCount(u8),
    /// One byte of the extended header, at `at % its length`.
    ExtByte { at: usize, value: u8 },
}

fn frame_edit() -> impl Strategy<Value = FrameEdit> {
    // `total_len` mostly near real frame sizes, where it ends the datagram
    // inside or before the headers; sometimes anywhere.
    prop_oneof![
        (0u16..200).prop_map(FrameEdit::IpTotalLen),
        any::<u16>().prop_map(FrameEdit::IpTotalLen),
        any::<u16>().prop_map(FrameEdit::UdpLength),
        (0usize..OPCODES.len()).prop_map(|i| FrameEdit::Opcode(OPCODES[i] as u8)),
        any::<u8>().prop_map(FrameEdit::Opcode),
        (0u8..4).prop_map(FrameEdit::PadCount),
        (any::<usize>(), any::<u8>()).prop_map(|(at, value)| FrameEdit::ExtByte { at, value }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

    /// Random bytes almost never carry a valid IPv4 checksum and the RoCEv2
    /// port, so they stop before the RoCE layer. This starts from a valid
    /// frame of every opcode, overwrites one field the RoCE layer trusts,
    /// re-seals the IPv4 checksum (and, half the time, the ICRC where the
    /// parser will look for it), and requires `Ok` or `Err`, never a panic.
    #[test]
    fn roce_parser_total_past_the_ip_checksum(
        op in 0usize..OPCODES.len(),
        payload in proptest::collection::vec(any::<u8>(), 0..48),
        edit in frame_edit(),
        reseal_icrc: bool,
    ) {
        use extmem_wire::icrc::{icrc_rocev2, ICRC_LEN};
        use extmem_wire::ipv4::internet_checksum;
        const IP_AT: usize = 14;
        const BTH_AT: usize = IP_AT + 20 + 8;
        const EXT_AT: usize = BTH_AT + 12;
        let opcode = OPCODES[op];
        let mut bytes = valid_roce_frame(opcode, payload.clone());
        let ext_len = valid_roce_frame(opcode, Vec::new()).len() - EXT_AT - ICRC_LEN;
        match edit {
            FrameEdit::IpTotalLen(v) => bytes[IP_AT + 2..IP_AT + 4].copy_from_slice(&v.to_be_bytes()),
            FrameEdit::UdpLength(v) => bytes[IP_AT + 24..IP_AT + 26].copy_from_slice(&v.to_be_bytes()),
            FrameEdit::Opcode(v) => bytes[BTH_AT] = v,
            FrameEdit::PadCount(v) => bytes[BTH_AT + 1] = (bytes[BTH_AT + 1] & !0x30) | (v << 4),
            FrameEdit::ExtByte { at, value } if ext_len > 0 => bytes[EXT_AT + at % ext_len] = value,
            FrameEdit::ExtByte { .. } => {}
        }
        bytes[IP_AT + 10..IP_AT + 12].fill(0);
        let csum = internet_checksum(&bytes[IP_AT..IP_AT + 20]);
        bytes[IP_AT + 10..IP_AT + 12].copy_from_slice(&csum.to_be_bytes());
        let ip_end = IP_AT + u16::from_be_bytes([bytes[IP_AT + 2], bytes[IP_AT + 3]]) as usize;
        if reseal_icrc && ip_end <= bytes.len() && ip_end >= EXT_AT + ICRC_LEN {
            let icrc = icrc_rocev2(&bytes[IP_AT..ip_end - ICRC_LEN]);
            bytes[ip_end - ICRC_LEN..ip_end].copy_from_slice(&icrc.to_le_bytes());
        }
        let parsed = std::panic::catch_unwind(|| RocePacket::parse(&Packet::from_vec(bytes)));
        prop_assert!(
            parsed.is_ok(),
            "parser panicked: {:?} frame ({}-byte payload) with {:?}, ICRC resealed: {}",
            opcode,
            payload.len(),
            edit,
            reseal_icrc
        );
    }
}

/// A remote-op request, header and payload, with every field the responder
/// trusts drawn from near the edges: addresses by the region, past it and by
/// the end of the address space, lengths and counts around their bounds.
/// Half are consistent, and get as far as the memory accesses: a probe's key
/// is `key_len` bytes inside a slot and its bucket whole slots, a gather
/// carries `count` addresses by the region.
fn remote_op_request(
    rkey: extmem_types::Rkey,
    base: u64,
) -> impl Strategy<Value = (extmem_wire::roce::RoceExt, Vec<u8>)> {
    use extmem_types::Rkey;
    use extmem_wire::extop::{GatherEth, HashProbeEth};
    use extmem_wire::roce::RoceExt;
    let va = prop_oneof![
        (0u64..0x2_0000).prop_map(move |off| base + off),
        (0u64..0x1000).prop_map(|off| u64::MAX - off),
        any::<u64>(),
    ];
    let rkeys = move || prop_oneof![Just(rkey), any::<u32>().prop_map(Rkey)];
    let small = || prop_oneof![0u16..300, any::<u16>()];
    let bytes = || proptest::collection::vec(any::<u8>(), 0..80);
    let probe = (
        (va, rkeys(), prop_oneof![0u32..64, any::<u32>()]),
        (small(), small(), 0u16..9),
        (any::<u8>(), any::<u8>()),
        (any::<bool>(), bytes()),
    )
        .prop_map(
            |(
                (base_va, rkey, bucket),
                (bucket_bytes, slot_bytes, slots),
                (key_off, key_len),
                (consistent, mut key),
            )| {
                let mut h = HashProbeEth {
                    base_va,
                    rkey,
                    bucket,
                    bucket_bytes,
                    slot_bytes,
                    key_off,
                    key_len,
                };
                if consistent {
                    h.slot_bytes = 1 + slot_bytes % 64;
                    h.bucket_bytes = h.slot_bytes * slots;
                    h.key_len = (1 + key_len as u16 % h.slot_bytes) as u8;
                    h.key_off = (key_off as u16 % (h.slot_bytes - h.key_len as u16 + 1)) as u8;
                    key.resize(h.key_len as usize, 0);
                }
                (RoceExt::HashProbe(h), key)
            },
        );
    let gather = (
        (rkeys(), small(), prop_oneof![0u16..20, any::<u16>()]),
        (any::<bool>(), bytes()),
    )
        .prop_map(
            move |((rkey, word_len, mut count), (consistent, mut payload))| {
                if consistent {
                    count = (payload.len() / 4) as u16;
                    let offsets = payload
                        .chunks_exact(4)
                        .map(|c| u32::from_le_bytes(c.try_into().unwrap()) % 0x1_2000);
                    payload = offsets
                        .flat_map(|off| (base + off as u64).to_be_bytes())
                        .collect();
                }
                (
                    RoceExt::Gather(GatherEth {
                        rkey,
                        word_len,
                        count,
                    }),
                    payload,
                )
            },
        );
    prop_oneof![probe, gather]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

    /// The responder's op engine computes addresses and lengths from
    /// request fields. Whatever they say, a remote op is answered by one
    /// frame, a NAK or a READ response of at most the MTU, never a panic;
    /// it moves the expected PSN by at most one, and its duplicate moves it
    /// not at all.
    #[test]
    fn remote_op_responder_total_on_arbitrary_headers(
        (ext, payload) in remote_op_request(extmem_types::Rkey(1), 0x1000_0000),
    ) {
        use extmem_rnic::nic::MTU;
        use extmem_rnic::responder::process_request;
        use extmem_rnic::{MrTable, QueuePair};
        use extmem_types::{ByteSize, QpNum};
        use extmem_wire::aeth::Syndrome;
        use extmem_wire::bth::{Bth, Opcode};
        use extmem_wire::roce::{RoceEndpoint, RoceExt};
        use extmem_wire::MacAddr;
        let ep = |i| RoceEndpoint { mac: MacAddr::local(i), ip: i };
        let mut mrs = MrTable::new();
        let (rkey, base) = mrs.register(ByteSize::from_kb(64));
        prop_assert_eq!((rkey, base), (extmem_types::Rkey(1), 0x1000_0000));
        let image: Vec<u8> = (0..64_000u32).map(|i| (i % 7) as u8).collect();
        mrs.get_mut(rkey).unwrap().write(base, &image).unwrap();
        let mut qp = QueuePair::new(QpNum(0x100), ep(2), QpNum(0x200), 0);
        let opcode = match ext {
            RoceExt::HashProbe(_) => Opcode::HashProbe,
            _ => Opcode::GatherWalk,
        };
        let req = RocePacket::new(ep(2), ep(1), 9, Bth::new(opcode, qp.qpn, 0), ext, payload);
        for round in 0..2u32 {
            let r = process_request(ep(1), &mut qp, &mut mrs, &req, MTU);
            let frame = r.response.expect("every remote op is answered");
            let resp = RocePacket::parse(&frame).unwrap().unwrap();
            match (resp.bth.opcode, resp.ext) {
                (Opcode::Acknowledge, RoceExt::Aeth(a)) => {
                    prop_assert!(matches!(a.syndrome, Syndrome::Nak(_)), "{:?}", a);
                }
                (Opcode::ReadRespOnly, RoceExt::Aeth(a)) => {
                    prop_assert!(a.is_ack());
                    prop_assert!(resp.payload.len() <= MTU, "{} B", resp.payload.len());
                    prop_assert_eq!(resp.bth.psn, 0);
                }
                other => prop_assert!(false, "answered with {:?}", other),
            }
            // The fresh request consumes its PSN once; its duplicate none.
            prop_assert_eq!(qp.epsn, 1, "round {}", round);
        }
    }
}

/// The event queue pops in exact `(time, insertion)` order for arbitrary
/// schedules (this drives the whole simulator's determinism).
#[test]
fn event_queue_total_order() {
    use extmem_sim::event::{EventKind, EventQueue};
    use extmem_types::NodeId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(99);
    let mut q = EventQueue::new();
    let mut expected: Vec<(u64, u64)> = Vec::new(); // (time, seq)
    for seq in 0..5_000u64 {
        let t = rng.gen_range(0..500u64);
        q.push(
            Time::from_picos(t),
            EventKind::Timer {
                node: NodeId(0),
                token: seq,
            },
        );
        expected.push((t, seq));
    }
    expected.sort();
    for (want_t, want_seq) in expected {
        let got = q.pop().unwrap();
        assert_eq!(got.at.picos(), want_t);
        match got.kind {
            EventKind::Timer { token, .. } => assert_eq!(token, want_seq),
            _ => unreachable!(),
        }
    }
    assert!(q.pop().is_none());
}

// ---------------------------------------------------------------------------
// Health detector (PR 5): the pool's failure detector is a pure state
// machine, so its safety properties can be checked over arbitrary
// observation sequences.
// ---------------------------------------------------------------------------

/// One observation fed to a [`extmem_core::HealthDetector`].
#[derive(Clone, Copy, Debug)]
enum Obs {
    Timeout,
    Ack,
    ChannelFailed,
    ProbeSuccess,
    RejoinComplete,
    RejoinAborted,
}

fn obs_strategy() -> impl Strategy<Value = Obs> {
    // Weighted by bucket: timeouts and ACKs dominate real traces; the rare
    // events still get enough weight to compose full recovery cycles.
    (0u8..14).prop_map(|n| match n {
        0..=4 => Obs::Timeout,
        5..=9 => Obs::Ack,
        10 => Obs::ChannelFailed,
        11 => Obs::ProbeSuccess,
        12 => Obs::RejoinComplete,
        _ => Obs::RejoinAborted,
    })
}

proptest! {
    /// Safety: the detector never declares `Down` on timeouts alone unless
    /// `threshold` *consecutive* timeouts occurred — a single ACK anywhere
    /// in the window resets the count. (`ChannelFailed` is the explicit
    /// exception: the reliability layer already exhausted its retries.)
    #[test]
    fn detector_never_down_below_threshold(
        threshold in 1u32..8,
        trace in proptest::collection::vec(obs_strategy(), 0..200),
    ) {
        use extmem_core::{Health, HealthDetector};
        let mut d = HealthDetector::new(threshold);
        let mut consecutive = 0u32;
        let mut forced = false;
        for ob in trace {
            let before = d.state();
            match ob {
                Obs::Timeout => {
                    d.on_timeout();
                    consecutive += 1;
                }
                Obs::Ack => {
                    d.on_ack();
                    consecutive = 0;
                    forced = false;
                }
                Obs::ChannelFailed => {
                    d.on_channel_failed();
                    forced = true;
                }
                Obs::ProbeSuccess => d.on_probe_success(),
                Obs::RejoinComplete => {
                    d.on_rejoin_complete();
                    if d.state() == Health::Healthy {
                        consecutive = 0;
                        forced = false;
                    }
                }
                Obs::RejoinAborted => d.on_rejoin_aborted(),
            }
            // A fresh transition into Down must be justified: either the
            // channel gave up explicitly, or `threshold` consecutive
            // timeouts accumulated with no ACK in between.
            if d.state() == Health::Down && before != Health::Down && before != Health::Rejoining {
                prop_assert!(
                    forced || consecutive >= threshold,
                    "Down after {consecutive} consecutive timeouts (threshold {threshold})"
                );
            }
        }
    }

    /// Safety: `Rejoining` is only ever entered from `Down` (a probe
    /// answered), and only `on_probe_success` performs that transition.
    #[test]
    fn detector_rejoining_only_from_down(
        threshold in 1u32..8,
        trace in proptest::collection::vec(obs_strategy(), 0..200),
    ) {
        use extmem_core::{Health, HealthDetector};
        let mut d = HealthDetector::new(threshold);
        for ob in trace {
            let before = d.state();
            match ob {
                Obs::Timeout => d.on_timeout(),
                Obs::Ack => d.on_ack(),
                Obs::ChannelFailed => d.on_channel_failed(),
                Obs::ProbeSuccess => d.on_probe_success(),
                Obs::RejoinComplete => d.on_rejoin_complete(),
                Obs::RejoinAborted => d.on_rejoin_aborted(),
            }
            if d.state() == Health::Rejoining && before != Health::Rejoining {
                prop_assert_eq!(before, Health::Down, "entered Rejoining from {:?}", before);
                prop_assert!(matches!(ob, Obs::ProbeSuccess), "entered Rejoining via {ob:?}");
            }
        }
    }

    /// The recovery PSN jump clears any plausible outstanding window: for
    /// any starting PSN and any window of up to 512 consecutive ops, the
    /// recovered PSN (`npsn + 2^20` in 24-bit arithmetic) never lands
    /// inside the span a straggler response from the old incarnation could
    /// occupy, so late responses can never alias into the fresh window.
    #[test]
    fn recovery_psn_jump_clears_outstanding_window(
        base in 0u32..(1 << 24),
        window in 1u32..512,
    ) {
        use extmem_wire::bth::psn_add;
        let fresh = psn_add(base, 1 << 20);
        for off in 0..window {
            // Old-incarnation PSNs run backwards from npsn-1 over the window.
            let old = psn_add(base, (1 << 24) - 1 - off);
            prop_assert_ne!(fresh, old, "jump aliases old window at offset {}", off);
        }
    }
}
