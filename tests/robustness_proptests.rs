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
            va: 0x1040,
            rkey,
            len: 64,
            slot_bytes: 16,
            key_off: 0,
            key_len: 8,
        }),
        GatherWalk => RoceExt::Gather(GatherEth {
            rkey,
            word_len: 8,
            count: 2,
        }),
        Connect => RoceExt::None,
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
const OPCODES: [extmem_wire::bth::Opcode; 9] = {
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
        Connect,
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
/// is `key_len` bytes inside a slot and its span whole slots, a gather
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
        (va, rkeys()),
        (small(), small(), 0u16..9),
        (any::<u8>(), any::<u8>()),
        (any::<bool>(), bytes()),
    )
        .prop_map(
            |((va, rkey), (len, slot_bytes, slots), (key_off, key_len), (consistent, mut key))| {
                let mut h = HashProbeEth {
                    va,
                    rkey,
                    len,
                    slot_bytes,
                    key_off,
                    key_len,
                };
                if consistent {
                    h.slot_bytes = 1 + slot_bytes % 64;
                    h.len = h.slot_bytes * slots;
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

/// A switch program that drives one replicated FaA engine, the primary's
/// answers lost as a [`Muted`] wire says, and checks its retry cap at every
/// event until the primary is first written off: each timer fire that is a
/// timeout round adds one to the silent rounds, each answer that is
/// progress (an acknowledgement or NAK that is not a duplicate) clears
/// them, and the primary goes `Down` on a fire after exactly `cap` silent
/// rounds, on no other fire and on no answer.
struct CapChecked {
    engine: extmem_core::faa::FaaEngine,
    /// Program timer `i < counts` counts on slot `i % 16`.
    counts: u64,
    cap: u32,
    silent: u32,
    /// Silent rounds at the fire that wrote the primary off.
    failed_after: Option<u32>,
    /// Timeout rounds seen before the write-off.
    rounds: u64,
}

impl CapChecked {
    /// The primary's progress so far: answers that were not duplicates.
    fn progress(&self) -> u64 {
        let s = self.engine.stats().channel;
        s.acks + s.naks - s.duplicate_drops
    }

    fn down(&self) -> bool {
        self.engine.pool().health(0) == extmem_core::Health::Down
    }

    /// Whether the primary has not yet been written off.
    fn checking(&self) -> bool {
        self.failed_after.is_none()
    }
}

impl extmem_switch::PipelineProgram for CapChecked {
    fn ingress(
        &mut self,
        ctx: &mut extmem_switch::SwitchCtx<'_, '_, '_>,
        port: extmem_types::PortId,
        pkt: Packet,
    ) {
        let Ok(Some(roce)) = RocePacket::parse(&pkt) else {
            return;
        };
        let (checking, before) = (self.checking(), self.progress());
        self.engine.on_roce(ctx, port, &roce);
        if checking {
            assert!(!self.down(), "written off on an answer");
            if self.progress() > before {
                self.silent = 0;
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut extmem_switch::SwitchCtx<'_, '_, '_>, token: u64) {
        if token < self.counts {
            return self.engine.add(ctx, token % 16, 1);
        }
        let (checking, before) = (self.checking(), self.engine.stats().channel.timeouts);
        self.engine.on_timer(ctx, token);
        if !checking {
            return;
        }
        if self.down() {
            self.failed_after = Some(self.silent);
        } else if self.engine.stats().channel.timeouts > before {
            self.silent += 1;
            self.rounds += 1;
            assert!(self.silent <= self.cap, "{} silent rounds", self.silent);
        }
    }
}

/// A replicated pool's server is written off by its channel's retry cap
/// alone. Random schedules: a cap `k` of 1 to [`extmem_core::channel::MAX_RETRIES`]
/// (`down_threshold` `k + 1`), up to 48 counts in the first 400 us and one
/// at 450 us, and the primary's answers lost at random until, from a
/// random time before that last count, all are. Every schedule ends with
/// the primary written off, on the fire after `k` timeout rounds with no
/// progress in between, never earlier (checked at every event by
/// [`CapChecked`]).
#[test]
fn a_channel_with_cap_k_fails_on_the_fire_after_k_silent_rounds() {
    use extmem_core::channel::{RdmaChannel, MAX_RETRIES};
    use extmem_core::faa::{FaaConfig, FaaEngine};
    use extmem_core::PoolConfig;
    use extmem_rnic::{RnicConfig, RnicNode};
    use extmem_sim::{LinkSpec, SimBuilder, TxQueue};
    use extmem_switch::switch::program_token;
    use extmem_switch::{SwitchConfig, SwitchNode};
    use extmem_types::{ByteSize, PortId};
    use extmem_wire::roce::RoceEndpoint;
    use extmem_wire::MacAddr;
    use proptest::strategy::Strategy;
    use proptest::test_runner::TestRng;

    const CASES: u32 = 2_000;
    // Long enough for the longest give-up, 1 + 2 + 4 + 8 + 5 × 16 RTOs
    // after the last count.
    const RUN_US: u64 = 5_000;
    let endpoint = |i: u32| RoceEndpoint {
        mac: MacAddr::local(i),
        ip: 0x0a00_0000 + i,
    };
    let schedule = (
        1..MAX_RETRIES + 1,
        proptest::collection::vec(0u64..400, 0..48),
        any::<u64>(),
        0u64..450,
    );
    let mut rng = TestRng::for_test("a_channel_with_cap_k_fails");
    let mut rounds = 0;
    for case in 0..CASES {
        let (cap, mut times, lose, mute_from) = schedule.new_value(&mut rng);
        times.push(450);
        let mut nics: Vec<RnicNode> = (0..2)
            .map(|i| RnicNode::new("mem", RnicConfig::at(endpoint(10 + i))))
            .collect();
        let region = ByteSize::from_bytes(8 * 16);
        let channels: Vec<RdmaChannel> = (nics.iter_mut().enumerate())
            .map(|(i, nic)| RdmaChannel::setup(endpoint(1), PortId(i as u16), nic, region))
            .collect();
        let config = FaaConfig {
            reliable: true,
            rto: TimeDelta::from_micros(CHANNEL_RTO_US),
            ..FaaConfig::default()
        };
        let pool_config = PoolConfig {
            down_threshold: cap + 1,
            ..PoolConfig::default()
        };
        let program = CapChecked {
            engine: FaaEngine::replicated(channels, config, pool_config),
            counts: times.len() as u64,
            cap,
            silent: 0,
            failed_after: None,
            rounds: 0,
        };
        let mut b = SimBuilder::new(case as u64);
        let sw = b.add_node(Box::new(SwitchNode::new(
            "tor",
            SwitchConfig::default(),
            Box::new(program),
        )));
        let wire = b.add_node(Box::new(Muted {
            from: mute_from,
            until: RUN_US,
            lose,
            seen: 0,
            tx: [TxQueue::new(PortId(0)), TxQueue::new(PortId(1))],
        }));
        let [primary, mirror] = [0, 1].map(|_| nics.remove(0));
        let primary = b.add_node(Box::new(primary));
        let mirror = b.add_node(Box::new(mirror));
        b.connect(sw, PortId(0), wire, PortId(0), LinkSpec::testbed_40g());
        b.connect(wire, PortId(1), primary, PortId(0), LinkSpec::testbed_40g());
        b.connect(sw, PortId(1), mirror, PortId(0), LinkSpec::testbed_40g());
        let mut sim = b.build();
        for (i, &at) in times.iter().enumerate() {
            let delay = TimeDelta::from_micros(at);
            sim.schedule_timer(sw, delay, program_token(i as u64));
        }
        sim.run_until(Time::from_micros(RUN_US));

        let program = sim.node::<SwitchNode>(sw).program::<CapChecked>();
        let what =
            format!("case {case}: cap {cap}, counts {times:?}, lose {lose:#x}, {mute_from} us");
        assert_eq!(program.failed_after, Some(cap), "{what}");
        rounds += program.rounds;
    }
    println!(
        "a_channel_with_cap_k_fails_on_the_fire_after_k_silent_rounds: \
         {CASES} cases explored, {rounds} timeout rounds"
    );
}

/// Counters in the replicated pool schedules below: the fabric's shard
/// shape, so catch-up runs form.
const POOL_WORDS: u64 = 16;

/// A memory server that checks its own counters after everything it does:
/// while it stays up, no word may go back to an older value (counts only
/// add, so older is smaller). It loses the WRITEs `lose` names by their
/// order of arrival (bit `i`: the `i`-th), before its NIC sees them.
struct Watched {
    nic: extmem_rnic::RnicNode,
    rkey: extmem_types::Rkey,
    base: u64,
    words: Vec<u64>,
    writes: u32,
    lose: u64,
    went_back: Option<String>,
}

impl Watched {
    fn check(&mut self, ctx: &extmem_sim::NodeCtx<'_>) {
        use extmem_core::state_store::read_remote_counters;
        let now = read_remote_counters(&self.nic, self.rkey, self.base, POOL_WORDS);
        for (slot, (&was, &is)) in self.words.iter().zip(&now).enumerate() {
            if is < was && self.went_back.is_none() {
                self.went_back = Some(format!("slot {slot}: {was} -> {is} at {:?}", ctx.now()));
            }
        }
        self.words = now;
    }
}

impl extmem_sim::Node for Watched {
    fn on_packet(
        &mut self,
        ctx: &mut extmem_sim::NodeCtx<'_>,
        port: extmem_types::PortId,
        packet: Packet,
    ) {
        use extmem_wire::bth::Opcode;
        let roce = RocePacket::parse(&packet).ok().flatten();
        if roce.is_some_and(|r| r.bth.opcode == Opcode::WriteOnly) {
            self.writes += 1;
            if self.writes <= 64 && self.lose >> (self.writes - 1) & 1 == 1 {
                return;
            }
        }
        self.nic.on_packet(ctx, port, packet);
        self.check(ctx);
    }
    fn on_timer(&mut self, ctx: &mut extmem_sim::NodeCtx<'_>, token: u64) {
        self.nic.on_timer(ctx, token);
        self.check(ctx);
    }
    fn on_tx_done(&mut self, ctx: &mut extmem_sim::NodeCtx<'_>, port: extmem_types::PortId) {
        self.nic.on_tx_done(ctx, port);
        self.check(ctx);
    }
    fn on_crash(&mut self, ctx: &mut extmem_sim::NodeCtx<'_>) {
        // The DRAM is gone: the words start over from zero.
        self.nic.on_crash(ctx);
        self.words.fill(0);
    }
    fn on_restart(&mut self, ctx: &mut extmem_sim::NodeCtx<'_>) {
        self.nic.on_restart(ctx);
    }
    fn name(&self) -> &str {
        "watched"
    }
}

/// One step of a pool schedule, run by [`Counting`] when its timer fires.
#[derive(Clone, Copy, Debug)]
enum PoolStep {
    /// Count `add` on `slot`.
    Count { slot: u64, add: u64 },
    /// The engine's tick: flush the accumulators, write the mirrors.
    Flush,
}

/// A switch program that drives one replicated FaA engine through its
/// steps (program timer `i` runs step `i`) and keeps the true counts.
struct Counting {
    engine: extmem_core::faa::FaaEngine,
    steps: Vec<PoolStep>,
    truth: Vec<u64>,
}

impl extmem_switch::PipelineProgram for Counting {
    fn ingress(
        &mut self,
        ctx: &mut extmem_switch::SwitchCtx<'_, '_, '_>,
        port: extmem_types::PortId,
        pkt: Packet,
    ) {
        if let Ok(Some(roce)) = RocePacket::parse(&pkt) {
            self.engine.on_roce(ctx, port, &roce);
        }
    }

    fn on_timer(&mut self, ctx: &mut extmem_switch::SwitchCtx<'_, '_, '_>, token: u64) {
        match self.steps.get(token as usize) {
            Some(&PoolStep::Count { slot, add }) => {
                self.truth[slot as usize] += add;
                self.engine.add(ctx, slot, add);
            }
            Some(PoolStep::Flush) => {
                self.engine.flush(ctx);
                self.engine.tick(ctx);
            }
            None => {
                self.engine.on_timer(ctx, token);
            }
        }
    }
}

/// A wire between the switch (port 0) and a memory server (port 1) that
/// loses every frame the server sends in `[from, until)` us, and its
/// `k`-th frame when bit `k` of `lose` is set: the server runs what it is
/// sent, but those answers are lost.
struct Muted {
    from: u64,
    until: u64,
    lose: u64,
    seen: usize,
    tx: [extmem_sim::TxQueue; 2],
}

impl extmem_sim::Node for Muted {
    fn on_packet(
        &mut self,
        ctx: &mut extmem_sim::NodeCtx<'_>,
        port: extmem_types::PortId,
        packet: Packet,
    ) {
        if port.0 == 1 {
            let (now, k) = (ctx.now(), self.seen);
            self.seen += 1;
            let muted = now >= Time::from_micros(self.from) && now < Time::from_micros(self.until);
            if muted || (k < 64 && self.lose >> k & 1 == 1) {
                return;
            }
        }
        self.tx[1 - port.0 as usize].send(ctx, packet);
    }
    fn on_tx_done(&mut self, ctx: &mut extmem_sim::NodeCtx<'_>, port: extmem_types::PortId) {
        self.tx[port.0 as usize].on_tx_done(ctx);
    }
    fn name(&self) -> &str {
        "muted"
    }
}

/// The faults [`pool_settles_equal`] runs a pool under.
#[derive(Clone, Copy, Debug, Default)]
struct PoolFaults {
    /// Server `i` loses the catch-up WRITEs `lose[i]` names.
    lose: [u64; 3],
    /// `(server, at, down_for)`: the server crashes at `at` us and restarts
    /// `down_for` us later with its DRAM wiped.
    crash: Option<(usize, u64, u64)>,
    /// `(from, until)`: server 0's answers are lost in that window, while it
    /// stays up, behind a [`Muted`] wire.
    mute: Option<(u64, u64)>,
}

/// Runs a FaA engine over `n` servers of a 16-word region through the
/// `timed` steps, under `faults`: a replicated pool, or with `n == 1` a lone
/// reliable engine. At `settle` every server must be Healthy and hold the
/// true counts, the pool synced, and no replica word may ever have gone
/// back to an older value, bar on a muted server: its rejoin rewrites the
/// words its unanswered adds moved, and the adds are sent again.
fn pool_settles_equal(
    seed: u64,
    n: usize,
    timed: &[(u64, PoolStep)],
    faults: PoolFaults,
    settle: u64,
    what: &str,
) -> extmem_core::PoolStats {
    use extmem_core::channel::RdmaChannel;
    use extmem_core::faa::{FaaConfig, FaaEngine};
    use extmem_core::{Health, PoolConfig};
    use extmem_rnic::{RnicConfig, RnicNode};
    use extmem_sim::{LinkSpec, SimBuilder};
    use extmem_switch::switch::program_token;
    use extmem_switch::{SwitchConfig, SwitchNode};
    use extmem_types::{ByteSize, NodeId, PortId};
    use extmem_wire::roce::RoceEndpoint;
    use extmem_wire::MacAddr;

    let endpoint = |i: u32| RoceEndpoint {
        mac: MacAddr::local(i),
        ip: 0x0a00_0000 + i,
    };
    use extmem_sim::TxQueue;
    let mut nics: Vec<RnicNode> = (0..n as u32)
        .map(|i| RnicNode::new("mem", RnicConfig::at(endpoint(10 + i))))
        .collect();
    let region = ByteSize::from_bytes(8 * POOL_WORDS);
    let mut channels: Vec<RdmaChannel> = (nics.iter_mut().enumerate())
        .map(|(i, nic)| RdmaChannel::setup(endpoint(1), PortId(i as u16), nic, region))
        .collect();
    let (rkey, base) = (channels[0].rkey, channels[0].base_va);
    let config = FaaConfig {
        reliable: true,
        rto: extmem_types::TimeDelta::from_micros(20),
        ..FaaConfig::default()
    };
    let pool_config = PoolConfig {
        down_threshold: 2,
        probe_interval: extmem_types::TimeDelta::from_micros(100),
    };
    let engine = match n {
        1 => FaaEngine::new(channels.remove(0), config),
        _ => FaaEngine::replicated(channels, config, pool_config),
    };
    let program = Counting {
        engine,
        steps: timed.iter().map(|&(_, s)| s).collect(),
        truth: vec![0; POOL_WORDS as usize],
    };
    let mut b = SimBuilder::new(seed);
    let sw = b.add_node(Box::new(SwitchNode::new(
        "tor",
        SwitchConfig::default(),
        Box::new(program),
    )));
    let servers: Vec<NodeId> = (nics.into_iter().enumerate())
        .map(|(i, nic)| {
            let server = b.add_node(Box::new(Watched {
                nic,
                rkey,
                base,
                words: vec![0; POOL_WORDS as usize],
                writes: 0,
                lose: faults.lose[i],
                went_back: None,
            }));
            let mut at = (sw, PortId(i as u16));
            if let (0, Some((from, until))) = (i, faults.mute) {
                let tx = [TxQueue::new(PortId(0)), TxQueue::new(PortId(1))];
                let wire = b.add_node(Box::new(Muted {
                    from,
                    until,
                    lose: 0,
                    seen: 0,
                    tx,
                }));
                b.connect(sw, at.1, wire, PortId(0), LinkSpec::testbed_40g());
                at = (wire, PortId(1));
            }
            b.connect(at.0, at.1, server, PortId(0), LinkSpec::testbed_40g());
            server
        })
        .collect();
    let mut sim = b.build();
    for (i, &(t, _)) in timed.iter().enumerate() {
        let delay = extmem_types::TimeDelta::from_micros(t);
        sim.schedule_timer(sw, delay, program_token(i as u64));
    }
    if let Some((i, at, down_for)) = faults.crash {
        sim.schedule_crash(servers[i], extmem_types::TimeDelta::from_micros(at));
        let back = extmem_types::TimeDelta::from_micros(at + down_for);
        sim.schedule_restart(servers[i], back);
    }
    sim.run_until(Time::from_micros(settle));

    let program = sim.node::<SwitchNode>(sw).program::<Counting>();
    let pool = program.engine.pool();
    for i in 0..n {
        assert_eq!(pool.health(i), Health::Healthy, "{what}: server {i}");
    }
    assert!(program.engine.is_quiescent() && pool.is_synced(), "{what}");
    for (i, &server) in servers.iter().enumerate() {
        let watched = sim.node::<Watched>(server);
        if i > 0 || faults.mute.is_none() {
            assert_eq!(watched.went_back, None, "{what}: server {i}");
        }
        assert_eq!(watched.words, program.truth, "{what}: server {i}");
    }
    pool.stats()
}

/// The tick every 20 us from `from` until `settle`.
fn ticks(from: u64, settle: u64) -> impl Iterator<Item = (u64, PoolStep)> {
    (from..settle).step_by(20).map(|t| (t, PoolStep::Flush))
}

/// A replicated pool of 2-3 servers under a random schedule: counts and
/// flushes at random times, each mirror losing the catch-up WRITEs a random
/// mask names, and maybe the primary crashing and coming back with its DRAM
/// wiped, at once or up to 400 us later. It settles equal
/// ([`pool_settles_equal`]): a server written off, whether it crashed or
/// its losses got it written off while it stayed up, is reconnected and
/// caught up.
#[test]
fn replicated_pool_replicas_never_go_back_and_settle_equal() {
    use proptest::strategy::Strategy;
    use proptest::test_runner::TestRng;

    const CASES: u32 = 1000;
    let step = (0u64..10, 0u64..POOL_WORDS + 6, 1u64..1000);
    let schedule = (
        2usize..4,
        proptest::collection::vec(step, 5..60),
        any::<[u64; 6]>(),
        any::<bool>(),
        (0u64..1000, 0u64..400),
    );
    let mut rng = TestRng::for_test("replicated_pool_replicas_never_go_back_and_settle_equal");
    for case in 0..CASES {
        let (n, steps, masks, crash, (crash_at, down_for)) = schedule.new_value(&mut rng);
        // A slot past the region is a flush; the rest count.
        let mut at = 0;
        let mut timed: Vec<(u64, PoolStep)> = (steps.iter())
            .map(|&(gap, slot, add)| {
                at += gap;
                let step = match slot < POOL_WORDS {
                    true => PoolStep::Count { slot, add },
                    false => PoolStep::Flush,
                };
                (at, step)
            })
            .collect();
        // A crash lands among the steps.
        let crash_at = crash_at % (at + 1);
        // Then the tick runs on until everything settles.
        let settle = at.max(crash_at + down_for) + 1000;
        timed.extend(ticks(at, settle));
        // About one WRITE in eight is lost, never at the primary.
        let lose = [
            0,
            masks[0] & masks[1] & masks[4],
            masks[2] & masks[3] & masks[4],
        ];
        let crash = crash.then_some((0, crash_at, down_for));
        let what = format!("case {case}: {n} servers, crash {crash:?}, {timed:?}");
        let faults = PoolFaults {
            lose,
            crash,
            mute: None,
        };
        pool_settles_equal(case as u64, n, &timed, faults, settle, &what);
    }
    println!("replicated_pool_replicas_never_go_back_and_settle_equal: {CASES} cases explored");
}

/// Counts on every word, one every 3 us from `from` until `until`, adding
/// 50.
fn steady_counts(from: u64, until: u64) -> impl Iterator<Item = (u64, PoolStep)> {
    (from..until).step_by(3).map(|t| {
        let slot = t / 3 % POOL_WORDS;
        (t, PoolStep::Count { slot, add: 50 })
    })
}

/// Three servers; the primary crashes while nothing is in flight and is
/// back 53 us later with its DRAM wiped, before counts come again. Its QP
/// is unconnected: it tells the switch its connection is gone and drops
/// the counts until the pool reconnects it and catches it up by value. The
/// defect this guards against: a QP that takes whatever PSN comes first
/// after a restart lets the wiped primary count on from zero, unnoticed.
#[test]
fn a_primary_back_wiped_before_the_next_count_is_caught_up() {
    let timed: Vec<_> = (steady_counts(0, 100).chain(steady_counts(170, 300)))
        .chain(ticks(300, 1300))
        .collect();
    let faults = PoolFaults {
        crash: Some((0, 110, 53)),
        ..PoolFaults::default()
    };
    pool_settles_equal(1, 3, &timed, faults, 1300, "primary down 53 us");
}

/// Two servers; the mirror loses the catch-up WRITEs of the first flushes
/// and their re-sends, so its retry cap writes it off while it stays up and
/// its QP still expects the PSN it was at. The reconnect goes out at the
/// channel's own next PSN, past all of those, so the live QP re-anchors
/// there and the mirror is caught up. The defect this guards against: a
/// probe at a jumped PSN is NAKed once and then dropped as out of
/// sequence, and the mirror stays Down.
#[test]
fn a_mirror_written_off_while_it_stays_up_is_caught_up() {
    let mut timed: Vec<_> = steady_counts(0, 300).chain(ticks(0, 1300)).collect();
    timed.sort_by_key(|&(t, _)| t);
    let faults = PoolFaults {
        lose: [0, 0x3ff, 0],
        ..PoolFaults::default()
    };
    pool_settles_equal(7, 2, &timed, faults, 1300, "mirror written off while up");
}

/// Counts on slots 0-7 until 100 us; then, from 150 us to 250 us, counts
/// on all sixteen slots (the tests below lose their answers: slots 8-15
/// have never been counted before); the tick runs on until `settle`.
fn counts_then_lost_answers(settle: u64) -> Vec<(u64, PoolStep)> {
    let first = (0..100).step_by(6).map(|t| {
        let slot = t / 6 % 8;
        (t, PoolStep::Count { slot, add: 50 })
    });
    let mut timed: Vec<_> = (first.chain(steady_counts(150, 250)))
        .chain(ticks(0, settle))
        .collect();
    timed.sort_by_key(|&(t, _)| t);
    timed
}

/// A lone reliable engine whose server stays up while its answers are lost
/// past the channel's retry cap: the pool is written off and hands its
/// adds back to the engine, which keeps them. When the answers come back,
/// the reconnect is answered, the server is primary again and is caught up
/// before the adds are sent again: every word, counted before or never,
/// holds the true count once. The defect this guards against: a rejoin
/// that rewrote only the words an answered add had counted left the
/// never-counted ones holding the adds that ran unanswered, and the re-sent
/// adds counted them twice.
#[test]
fn a_lone_engine_whose_answers_were_lost_counts_each_add_once() {
    let (until, settle) = (2_500, 6_000);
    let timed = counts_then_lost_answers(settle);
    let faults = PoolFaults {
        mute: Some((150, until)),
        ..PoolFaults::default()
    };
    let stats = pool_settles_equal(3, 1, &timed, faults, settle, "lone engine, answers lost");
    assert_eq!((stats.failovers, stats.rejoins), (0, 1), "{stats}");
}

/// Two servers. The mirror crashes at 140 us, before anything is sent to
/// it; from 150 us the primary's answers are lost while it stays up, so the
/// retry cap writes it off, and the promoted mirror answers nothing either:
/// the pool has lost every server, and its engine keeps the adds handed
/// back. The primary's answers come back at 600 us, before the mirror
/// restarts at 1,100 us: the former primary is reconnected first and is
/// primary again, caught up before the adds are sent again, and the mirror
/// is caught up after it. Every word holds the true count once.
#[test]
fn a_former_primary_written_off_while_up_and_back_first_counts_each_add_once() {
    let (until, settle) = (600, 3_000);
    let timed = counts_then_lost_answers(settle);
    let faults = PoolFaults {
        crash: Some((1, 140, 960)),
        mute: Some((150, until)),
        ..PoolFaults::default()
    };
    let what = "former primary back first";
    let stats = pool_settles_equal(5, 2, &timed, faults, settle, what);
    assert_eq!((stats.failovers, stats.rejoins), (1, 2), "{stats}");
}

/// What a [`FaultyWire`] does to one frame.
#[derive(Clone, Copy, Debug)]
enum Fault {
    Drop,
    Duplicate,
    /// Held back a microsecond, so a frame sent just after it passes it.
    Reorder,
    /// Held back past the channel's RTO.
    Delay,
}

/// The RTO of the channels in the schedules below.
const CHANNEL_RTO_US: u64 = 10;

/// A wire between a switch (port 0) and a memory server (port 1) that
/// does each of `faults` to the frame it names — `(direction, k)`: the
/// `k`-th frame from port `direction` — and logs the PSN of every request
/// in the order the switch sent them.
struct FaultyWire {
    faults: Vec<(usize, usize, Fault)>,
    seen: [usize; 2],
    held: Vec<Option<(usize, Packet)>>,
    requests: Vec<u32>,
    tx: [extmem_sim::TxQueue; 2],
}

impl extmem_sim::Node for FaultyWire {
    fn on_packet(
        &mut self,
        ctx: &mut extmem_sim::NodeCtx<'_>,
        port: extmem_types::PortId,
        packet: Packet,
    ) {
        let from = port.0 as usize;
        let k = self.seen[from];
        self.seen[from] += 1;
        if from == 0 {
            let roce = RocePacket::parse(&packet).ok().flatten();
            self.requests.push(roce.map_or(u32::MAX, |r| r.bth.psn));
        }
        let to = 1 - from;
        let fault = self.faults.iter().find(|f| (f.0, f.1) == (from, k));
        let hold = match fault.map(|f| f.2) {
            None => TimeDelta::ZERO,
            Some(Fault::Drop) => return,
            Some(Fault::Duplicate) => {
                self.tx[to].send(ctx, packet.clone());
                TimeDelta::ZERO
            }
            Some(Fault::Reorder) => TimeDelta::from_micros(1),
            Some(Fault::Delay) => TimeDelta::from_micros(CHANNEL_RTO_US + 1),
        };
        if hold == TimeDelta::ZERO {
            self.tx[to].send(ctx, packet);
        } else {
            ctx.schedule(hold, self.held.len() as u64);
            self.held.push(Some((to, packet)));
        }
    }
    fn on_timer(&mut self, ctx: &mut extmem_sim::NodeCtx<'_>, token: u64) {
        if let Some((to, packet)) = self.held[token as usize].take() {
            self.tx[to].send(ctx, packet);
        }
    }
    fn on_tx_done(&mut self, ctx: &mut extmem_sim::NodeCtx<'_>, port: extmem_types::PortId) {
        self.tx[port.0 as usize].on_tx_done(ctx);
    }
    fn name(&self) -> &str {
        "faulty-wire"
    }
}

/// A switch program that submits `ops[i]` under cookie `i` when its
/// program timer `i` fires, and notes, for every answer after which its
/// channel re-sent ops alone, the answer's PSN, how many requests the
/// channel had sent before it, and how many it re-sent.
struct ChannelRunner {
    channel: extmem_core::ReliableChannel,
    ops: Vec<extmem_core::Op>,
    events: Vec<extmem_core::ChannelEvent>,
    resends: Vec<(u32, usize, usize)>,
}

impl ChannelRunner {
    /// Requests the channel has put on the wire: first sends and re-sends.
    fn sent(&self) -> usize {
        let s = self.channel.stats();
        let queued = self.channel.ops().count() - self.channel.outstanding_len();
        (s.ops_issued + s.retransmits) as usize - queued
    }
}

impl extmem_switch::PipelineProgram for ChannelRunner {
    fn ingress(
        &mut self,
        ctx: &mut extmem_switch::SwitchCtx<'_, '_, '_>,
        _: extmem_types::PortId,
        pkt: Packet,
    ) {
        let Ok(Some(roce)) = RocePacket::parse(&pkt) else {
            panic!("not RoCE: {pkt:?}");
        };
        let (sent, before) = (self.sent(), self.channel.stats().implicit_resends);
        assert!(self.channel.on_roce(ctx, &roce, &mut self.events));
        let resent = (self.channel.stats().implicit_resends - before) as usize;
        if resent > 0 {
            self.resends.push((roce.bth.psn, sent, resent));
        }
    }

    fn on_timer(&mut self, ctx: &mut extmem_switch::SwitchCtx<'_, '_, '_>, token: u64) {
        if token == self.channel.timer_token() {
            return self.channel.on_timer_fired(ctx, &mut self.events);
        }
        let op = self.ops[token as usize].clone();
        assert!(self.channel.submit(ctx, op, token));
    }
}

/// A reliable channel under random schedules: up to four ops (READs,
/// WRITEs with and without an ACK, Fetch-and-Adds on one word) submitted
/// within a few hundred nanoseconds from a PSN within four of the 2^24
/// wrap, and up to two faults on the wire — a drop, a duplicate, a reorder
/// or a delay past the RTO — each on a random frame in either direction.
/// Every op completes exactly once; the Fetch-and-Adds complete in PSN
/// order, each with the value the responder's single execution of it saw;
/// and every op the channel re-sends alone on an answer was last sent
/// before the op that answer is for (an implicit NAK never fires on an
/// answer to an op sent earlier).
#[test]
fn channel_completes_every_op_once_and_resends_alone_only_behind_a_later_answer() {
    use extmem_core::channel::RdmaChannel;
    use extmem_core::{ChannelEvent, Op, ReliableChannel, ReliableConfig, Reply};
    use extmem_rnic::{RnicConfig, RnicNode, WriteBody};
    use extmem_sim::{LinkSpec, SimBuilder, TxQueue};
    use extmem_switch::switch::program_token;
    use extmem_switch::{SwitchConfig, SwitchNode};
    use extmem_types::{ByteSize, PortId};
    use extmem_wire::roce::RoceEndpoint;
    use extmem_wire::MacAddr;
    use proptest::strategy::Strategy;
    use proptest::test_runner::TestRng;

    const CASES: u32 = 10_000;
    let endpoint = |i: u32| RoceEndpoint {
        mac: MacAddr::local(i),
        ip: 0x0a00_0000 + i,
    };
    let fault = (0usize..2, 0usize..5, 0u8..4);
    let schedule = (
        proptest::collection::vec((0u8..4, 0u64..4), 1..5),
        proptest::collection::vec(fault, 0..3),
        0u32..4,
    );
    let mut rng = TestRng::for_test("channel_completes_every_op_once");
    let (mut implicit, mut timeouts) = (0, 0);
    for case in 0..CASES {
        let (kinds, faults, below_wrap) = schedule.new_value(&mut rng);
        let mut nic = RnicNode::new("mem", RnicConfig::at(endpoint(9)));
        let start = (1 << 24) - 1 - below_wrap;
        let region = ByteSize::from_bytes(64);
        let channel = RdmaChannel::setup_at_psn(endpoint(1), PortId(0), &mut nic, region, start);
        let (rkey, base) = (channel.rkey, channel.base_va);
        let ops: Vec<Op> = (kinds.iter().enumerate())
            .map(|(i, &(kind, _))| match kind {
                0 => Op::Read {
                    va: base + 8,
                    len: 8,
                },
                // A WRITE that asks for no ACK waits for an op behind it:
                // the last op always has an answer.
                1 | 2 => Op::Write {
                    va: base + 16,
                    body: WriteBody::inline(&[i as u8; 8]),
                    ack_req: kind == 2 || i + 1 == kinds.len(),
                },
                _ => Op::FetchAdd {
                    va: base,
                    add: 1 << i,
                },
            })
            .collect();
        let faults: Vec<(usize, usize, Fault)> = (faults.iter())
            .map(|&(from, k, kind)| {
                let all = [Fault::Drop, Fault::Duplicate, Fault::Reorder, Fault::Delay];
                (from, k, all[kind as usize])
            })
            .collect();
        let config = ReliableConfig {
            rto: TimeDelta::from_micros(CHANNEL_RTO_US),
            ..ReliableConfig::default()
        };
        let program = ChannelRunner {
            channel: ReliableChannel::new(channel, config),
            ops: ops.clone(),
            events: Vec::new(),
            resends: Vec::new(),
        };
        let mut b = SimBuilder::new(case as u64);
        let sw = b.add_node(Box::new(SwitchNode::new(
            "tor",
            SwitchConfig::default(),
            Box::new(program),
        )));
        let wire = b.add_node(Box::new(FaultyWire {
            faults: faults.clone(),
            seen: [0; 2],
            held: Vec::new(),
            requests: Vec::new(),
            tx: [TxQueue::new(PortId(0)), TxQueue::new(PortId(1))],
        }));
        let server = b.add_node(Box::new(nic));
        b.connect(sw, PortId(0), wire, PortId(0), LinkSpec::testbed_40g());
        b.connect(wire, PortId(1), server, PortId(0), LinkSpec::testbed_40g());
        let mut sim = b.build();
        let mut at = 0;
        for (i, &(_, gap)) in kinds.iter().enumerate() {
            at += 100 * gap;
            let delay = TimeDelta::from_nanos(at);
            sim.schedule_timer(sw, delay, program_token(i as u64));
        }
        sim.run_until(Time::from_millis(2));

        let what = format!("case {case}: start {start:#x}, ops {ops:?}, faults {faults:?}");
        let program = sim.node::<SwitchNode>(sw).program::<ChannelRunner>();
        assert_eq!(program.channel.ops().count(), 0, "{what}: ops left");
        let mut done: Vec<u64> = Vec::new();
        let mut want_faa = 0;
        for ev in &program.events {
            let ChannelEvent::Done { cookie, op, reply } = ev else {
                panic!("{what}: {ev:?}");
            };
            done.push(*cookie);
            if let Op::FetchAdd { add, .. } = op {
                assert_eq!(
                    *reply,
                    Reply::Fetched(want_faa),
                    "{what}: {:?}",
                    program.events
                );
                want_faa += add;
            }
        }
        done.sort_unstable();
        assert_eq!(done, (0..ops.len() as u64).collect::<Vec<_>>(), "{what}");
        let word = sim
            .node::<RnicNode>(server)
            .region(rkey)
            .and_then(|region| region.read(base, 8))
            .unwrap();
        assert_eq!(word, want_faa.to_be_bytes(), "{what}: a count ran twice");
        // The requests in the order the switch sent them; the last time
        // before `sent` that `psn` went out.
        let requests = &sim.node::<FaultyWire>(wire).requests;
        assert_eq!(requests.len(), program.sent(), "{what}");
        let last_sent = |psn: u32, sent: usize| requests[..sent].iter().rposition(|&p| p == psn);
        for &(answered, sent, resent) in &program.resends {
            for &psn in &requests[sent..sent + resent] {
                let (p, q) = (last_sent(psn, sent), last_sent(answered, sent));
                assert!(
                    p < q,
                    "{what}: {psn:#x} re-sent on the answer to {answered:#x}"
                );
            }
        }
        implicit += program.resends.iter().map(|r| r.2).sum::<usize>();
        timeouts += program.channel.stats().timeouts;
    }
    println!(
        "channel_completes_every_op_once_and_resends_alone_only_behind_a_later_answer: \
         {CASES} cases explored, {implicit} ops re-sent alone, {timeouts} timeouts"
    );
}

/// A best-effort channel sends eight Fetch-and-Adds back to back, and the
/// first is lost before the responder. The responder's QP is UC, so it
/// jumps the gap: it executes the seven behind the loss, NAKs nothing and
/// drops nothing, and the lost one ages out. The defect this guards
/// against: an RC QP NAKs the gap once and drops every request behind it
/// as out of sequence.
#[test]
fn a_best_effort_loss_costs_only_the_request_lost() {
    use extmem_core::channel::RdmaChannel;
    use extmem_core::{ChannelEvent, Op, ReliableChannel, ReliableConfig};
    use extmem_rnic::{RnicConfig, RnicNode};
    use extmem_sim::{LinkSpec, SimBuilder, TxQueue};
    use extmem_switch::switch::program_token;
    use extmem_switch::{SwitchConfig, SwitchNode};
    use extmem_types::{ByteSize, PortId};
    use extmem_wire::roce::RoceEndpoint;
    use extmem_wire::MacAddr;

    let endpoint = |i: u32| RoceEndpoint {
        mac: MacAddr::local(i),
        ip: 0x0a00_0000 + i,
    };
    let mut nic = RnicNode::new("mem", RnicConfig::at(endpoint(9)));
    let region = ByteSize::from_bytes(64);
    let channel = RdmaChannel::setup(endpoint(1), PortId(0), &mut nic, region);
    let base = channel.base_va;
    let ops: Vec<Op> = (0..8)
        .map(|i| Op::FetchAdd {
            va: base + 8 * i,
            add: 1,
        })
        .collect();
    let config = ReliableConfig::best_effort(TimeDelta::from_micros(CHANNEL_RTO_US));
    let program = ChannelRunner {
        channel: ReliableChannel::new(channel, config),
        ops,
        events: Vec::new(),
        resends: Vec::new(),
    };
    let mut b = SimBuilder::new(3);
    let sw = b.add_node(Box::new(SwitchNode::new(
        "tor",
        SwitchConfig::default(),
        Box::new(program),
    )));
    let wire = b.add_node(Box::new(FaultyWire {
        faults: vec![(0, 0, Fault::Drop)],
        seen: [0; 2],
        held: Vec::new(),
        requests: Vec::new(),
        tx: [TxQueue::new(PortId(0)), TxQueue::new(PortId(1))],
    }));
    let server = b.add_node(Box::new(nic));
    b.connect(sw, PortId(0), wire, PortId(0), LinkSpec::testbed_40g());
    b.connect(wire, PortId(1), server, PortId(0), LinkSpec::testbed_40g());
    let mut sim = b.build();
    for i in 0..8 {
        sim.schedule_timer(sw, TimeDelta::ZERO, program_token(i));
    }
    sim.run_until(Time::from_micros(100));

    let nic = sim.node::<RnicNode>(server).stats();
    let seen = (nic.atomics, nic.naks, nic.out_of_sequence_drops);
    assert_eq!(seen, (7, 0, 0), "{nic:?}");
    let program = sim.node::<SwitchNode>(sw).program::<ChannelRunner>();
    let ends: Vec<(u64, bool)> = (program.events.iter())
        .map(|ev| match ev {
            ChannelEvent::Done { cookie, .. } => (*cookie, true),
            ChannelEvent::OpFailed { cookie, .. } => (*cookie, false),
            ChannelEvent::Failed => panic!("a best-effort channel never fails over"),
        })
        .collect();
    let want: Vec<(u64, bool)> = (1..8).map(|c| (c, true)).chain([(0, false)]).collect();
    assert_eq!(ends, want);
    assert_eq!(program.channel.stats().aged_out, 1);
}
