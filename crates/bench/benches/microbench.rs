//! Microbenchmarks for the hot paths of the reproduction: packet codecs,
//! ICRC, switch table/hash units, the event engine and the RNIC responder.
//! These gate performance regressions in the substrate that every
//! experiment stands on.
//!
//! Self-timed (`harness = false`): the container has no crates.io access, so
//! instead of criterion each benchmark is measured with a warmup pass and a
//! fixed-iteration timed pass, reporting ns/iter. Run with
//! `cargo bench -p extmem-bench`.

use std::hint::black_box;
use std::time::Instant;

use extmem_switch::hash::{flow_index, salted_flow_index};
use extmem_switch::table::{ExactMatchTable, Replacement};
use extmem_types::{ByteSize, FiveTuple, PortId, QpNum, Rate, Rkey, Time, TimeDelta};
use extmem_wire::bth::{Bth, Opcode};
use extmem_wire::icrc::{crc32, icrc_rocev2};
use extmem_wire::payload::{build_data_packet, parse_data_packet};
use extmem_wire::reth::Reth;
use extmem_wire::roce::{RoceEndpoint, RoceExt, RocePacket};
use extmem_wire::MacAddr;

/// Time `f` over `iters` iterations after a short warmup; print ns/iter.
fn bench<T>(group: &str, name: &str, iters: u64, mut f: impl FnMut() -> T) {
    for _ in 0..iters / 10 + 1 {
        black_box(f());
    }
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let elapsed = start.elapsed();
    let ns_per_iter = elapsed.as_nanos() as f64 / iters as f64;
    println!("{group}/{name:<28} {ns_per_iter:>12.1} ns/iter  ({iters} iters)");
}

/// Time `f` over `iters` passes of a `bytes`-long input; print throughput
/// in MB/s alongside ns/iter (the unit the DESIGN.md kernel table quotes).
fn bench_mb<T>(group: &str, name: &str, iters: u64, bytes: usize, mut f: impl FnMut() -> T) {
    for _ in 0..iters / 10 + 1 {
        black_box(f());
    }
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let elapsed = start.elapsed().as_secs_f64();
    let mbps = (iters as f64 * bytes as f64) / elapsed / 1e6;
    let ns_per_iter = elapsed * 1e9 / iters as f64;
    println!("{group}/{name:<28} {ns_per_iter:>12.1} ns/iter  {mbps:>9.0} MB/s");
}

fn endpoints() -> (RoceEndpoint, RoceEndpoint) {
    (
        RoceEndpoint {
            mac: MacAddr::local(1),
            ip: 0x0a000001,
        },
        RoceEndpoint {
            mac: MacAddr::local(2),
            ip: 0x0a000002,
        },
    )
}

fn write_packet(payload: usize) -> RocePacket {
    let (s, d) = endpoints();
    RocePacket::new(
        s,
        d,
        0x9000,
        Bth::new(Opcode::WriteOnly, QpNum(0x11), 5),
        RoceExt::Reth(Reth {
            va: 0x1000,
            rkey: Rkey(7),
            dma_len: payload as u32,
        }),
        vec![0xab; payload],
    )
}

fn bench_wire() {
    for &size in &[64usize, 1500] {
        let pkt = write_packet(size);
        bench("wire", &format!("build_write_{size}"), 20_000, || {
            black_box(&pkt).build().unwrap()
        });
        let wire = pkt.build().unwrap();
        bench("wire", &format!("parse_write_{size}"), 20_000, || {
            RocePacket::parse(black_box(&wire)).unwrap().unwrap()
        });
    }
    let frame = vec![0x5au8; 1514];
    bench("wire", "crc32_1514", 20_000, || crc32(black_box(&frame)));
    let roce = write_packet(1500).build().unwrap();
    let inner = roce.as_slice()[14..roce.len() - 4].to_vec();
    bench("wire", "icrc_1500", 20_000, || {
        icrc_rocev2(black_box(&inner))
    });

    let flow = FiveTuple::new(0x0a000001, 0x0a000002, 40_000, 9_000, 17);
    let data = build_data_packet(
        MacAddr::local(1),
        MacAddr::local(2),
        flow,
        0,
        0,
        Time::ZERO,
        1500,
    )
    .unwrap();
    bench("wire", "parse_data_1500", 20_000, || {
        parse_data_packet(black_box(&data)).unwrap().unwrap()
    });
}

/// Raw kernel throughput: word-parallel vs byte-at-a-time, in MB/s.
fn bench_kernels() {
    use extmem_sim::link::Endpoint;
    use extmem_sim::TraceSink;
    use extmem_types::NodeId;
    use extmem_wire::icrc::{crc32_update, crc32_update_bytewise};
    use extmem_wire::packet::{digest64, fnv1a};
    let frame = vec![0x5au8; 1500];
    bench_mb("kernel", "crc32_slice8_1500", 50_000, frame.len(), || {
        crc32_update(!0, black_box(&frame))
    });
    bench_mb("kernel", "crc32_bytewise_1500", 50_000, frame.len(), || {
        crc32_update_bytewise(!0, black_box(&frame))
    });
    // 256 and 850 B are the repo benchmark's frame sizes: a lookup or
    // fabric frame, and about what an 800 B packet-buffer frame measures
    // inside its WRITE or its READ response.
    for len in [256, 850, 1500] {
        let name = format!("digest64_{len}");
        bench_mb("kernel", &name, 50_000, len, || {
            digest64(black_box(&frame[..len]))
        });
    }
    bench_mb("kernel", "fnv1a_1500", 50_000, frame.len(), || {
        fnv1a(black_box(&frame))
    });
    // What every delivery costs on top of its (cached) content digest.
    let end = |node| Endpoint {
        node: NodeId(node),
        port: PortId(0),
    };
    let mut sink = TraceSink::disabled([(end(0), end(1))]);
    let mut at = Time::ZERO;
    bench("kernel", "trace_fold", 1_000_000, || {
        at += TimeDelta::from_nanos(200);
        sink.record_delivery(0, at, 256, black_box(0x1234_5678_9abc_def0));
        sink.dir_digest(0)
    });
}

fn bench_switch_units() {
    let flows: Vec<FiveTuple> = (0..1024)
        .map(|i| FiveTuple::new(0x0a000000 + i, 0x0a630001, 1000, 80, 6))
        .collect();
    let mut i = 0;
    bench("switch", "flow_index", 100_000, || {
        i = (i + 1) % flows.len();
        flow_index(black_box(&flows[i]), 65_536)
    });
    let mut i = 0;
    bench("switch", "salted_flow_index", 100_000, || {
        i = (i + 1) % flows.len();
        salted_flow_index(black_box(&flows[i]), 3, 65_536)
    });

    let mut table: ExactMatchTable<FiveTuple, u64> = ExactMatchTable::new(4096, Replacement::Lru);
    for (n, f) in flows.iter().enumerate() {
        table.insert(*f, n as u64);
    }
    let mut i = 0;
    bench("switch", "table_lookup_hit", 100_000, || {
        i = (i + 1) % flows.len();
        table.lookup(black_box(&flows[i])).copied()
    });
}

/// Engine throughput: a sender pushing 1001 frames of 256 B through a
/// `TxQueue` to a sink, measured per run. Two pacings cover the engine's
/// two transmit paths: `blast` sends each frame from the last one's
/// completion, so every completion is an event; `paced` sends from a timer
/// at 30 ns intervals onto an idle port (256 B take 20.48 ns at 100G), so
/// no completion is.
fn bench_engine() {
    use extmem_sim::{LinkSpec, Node, NodeCtx, SimBuilder, TxQueue};
    use extmem_wire::Packet;

    const FRAMES: u64 = 1001;

    struct Sender {
        left: u64,
        tx: TxQueue,
        /// Send the next frame this long after the last; `None` sends it
        /// when the last one completes.
        gap: Option<TimeDelta>,
    }
    impl Sender {
        fn send_next(&mut self, ctx: &mut NodeCtx<'_>) {
            if self.left == 0 {
                return;
            }
            self.left -= 1;
            self.tx.send(ctx, Packet::zeroed(256));
            if self.left > 0 {
                match self.gap {
                    Some(gap) => ctx.schedule(gap, 0),
                    None => ctx.watch_tx_done(PortId(0)),
                }
            }
        }
    }
    impl Node for Sender {
        fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {}
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _: u64) {
            self.send_next(ctx);
        }
        fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, _: PortId) {
            self.tx.on_tx_done(ctx);
            if self.gap.is_none() {
                self.send_next(ctx);
            }
        }
        fn name(&self) -> &str {
            "sender"
        }
    }
    struct Sink {
        rx: u64,
    }
    impl Node for Sink {
        fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {
            self.rx += 1;
        }
        fn name(&self) -> &str {
            "sink"
        }
    }

    let run = |gap: Option<TimeDelta>| {
        let mut builder = SimBuilder::new(1);
        let tx = builder.add_node(Box::new(Sender {
            left: FRAMES,
            tx: TxQueue::new(PortId(0)),
            gap,
        }));
        let sk = builder.add_node(Box::new(Sink { rx: 0 }));
        builder.connect(
            tx,
            PortId(0),
            sk,
            PortId(0),
            LinkSpec::new(Rate::from_gbps(100), TimeDelta::from_nanos(100)),
        );
        let mut sim = builder.build();
        sim.schedule_timer(tx, TimeDelta::ZERO, 0);
        sim.run_to_quiescence();
        assert_eq!(sim.node::<Sink>(sk).rx, FRAMES, "the run sent every frame");
        sim.events_processed()
    };
    bench("engine", "blast_1000_packets", 200, || run(None));
    bench("engine", "paced_1000_packets", 200, || {
        run(Some(TimeDelta::from_nanos(30)))
    });
}

fn bench_rnic_responder() {
    use extmem_rnic::responder::process_request;
    use extmem_rnic::{MrTable, QueuePair};

    let (client, server) = endpoints();
    let mut mrs = MrTable::new();
    let (rkey, base) = mrs.register(ByteSize::from_mb(1));
    let mut qp = QueuePair::new(QpNum(0x100), client, QpNum(0x55), 0).relaxed();
    let req = RocePacket::new(
        client,
        server,
        0x9000,
        Bth::new(Opcode::WriteOnly, QpNum(0x100), 0),
        RoceExt::Reth(Reth {
            va: base,
            rkey,
            dma_len: 1500,
        }),
        vec![0xcd; 1500],
    );
    bench("rnic", "responder_write_1500", 20_000, || {
        qp.epsn = 0; // measure the fresh-write path, not duplicate handling
        let r = process_request(server, &mut qp, &mut mrs, black_box(&req), 2048);
        black_box(r.outcome)
    });
}

fn main() {
    // `cargo bench` passes harness flags like `--bench`; ignore them.
    bench_wire();
    bench_kernels();
    bench_switch_units();
    bench_engine();
    bench_rnic_responder();
}
