//! E1–E6: the numbers, figures and worked examples the paper itself reports.

use crate::e1::{
    max_lossless, measure_forward_rate, measure_native_read, probe_native_write, probe_store,
    E1_COUNT,
};
use crate::table::{f1, f2, f3, human, table};
use extmem_apps::baremetal::{
    run_dscp_lookup, run_dscp_lookup_rtt, run_l2_baseline, run_l2_baseline_rtt,
};
use extmem_apps::incast::{run_incast, IncastConfig, IncastResult, RemoteBufferSpec};
use extmem_apps::scenario::host_endpoint;
use extmem_apps::telemetry::{run_counting, CountingConfig};
use extmem_apps::workload::FlowPick;
use extmem_types::{ByteSize, QpNum, Rate, Rkey, TimeDelta};
use extmem_wire::atomic::AtomicEth;
use extmem_wire::bth::{Bth, Opcode};
use extmem_wire::ethernet::EthernetHeader;
use extmem_wire::icrc::ICRC_LEN;
use extmem_wire::reth::Reth;
use extmem_wire::roce::{
    RoceExt, RocePacket, FETCH_ADD_OP_OVERHEAD, ROCEV1_BASE_OVERHEAD, ROCEV2_BASE_OVERHEAD,
    WRITE_READ_OP_OVERHEAD,
};

/// Packet sizes of Fig 3a and Fig 3b.
const SIZES: [usize; 5] = [64, 128, 256, 512, 1024];

/// E1 — §5 "Packet buffer primitive": maximum lossless store / forward
/// rates through the remote ring vs native server-to-server RDMA.
///
/// Paper reports (1500 B MTU frames, 40 Gbps links, CX-3 Pro):
/// store 34.1 Gbps, forward 37.4 Gbps, native baseline "only 4.4% faster".
pub fn e1_pktbuf_rates(out: &mut String) {
    // Sweep payload rates around the expected ceiling.
    let sweep: Vec<f64> = (0..=20).map(|i| 30.0 + i as f64 * 0.5).collect();

    out.push_str(&format!(
        "E1: packet-buffer microbenchmark (1500B frames, {E1_COUNT} per probe)\n"
    ));
    let store = max_lossless(|r| probe_store(r, E1_COUNT), &sweep);
    let forward = measure_forward_rate(20_000);
    let native_w = max_lossless(|r| probe_native_write(r, E1_COUNT), &sweep);
    let native_r = measure_native_read(20_000);

    let rows = vec![
        vec![
            "store (switch→remote ring)".into(),
            f1(store.gbps_f64()),
            "34.1".into(),
        ],
        vec![
            "forward (ring→destination)".into(),
            f1(forward.gbps_f64()),
            "37.4".into(),
        ],
        vec![
            "native RDMA WRITE (server→server)".into(),
            f1(native_w.gbps_f64()),
            "~35.6 (\"4.4% faster\")".into(),
        ],
        vec![
            "native RDMA READ (server→server)".into(),
            f1(native_r.gbps_f64()),
            "~39 (\"4.4% faster\")".into(),
        ],
    ];
    table(
        out,
        "max lossless rate (Gbps of payload)",
        &["path", "measured", "paper"],
        &rows,
    );

    let gap_store = native_w.gbps_f64() / store.gbps_f64() - 1.0;
    out.push_str(&format!(
        "\nnative WRITE vs primitive store: native is {}% faster (paper: 4.4%)\n",
        f2(gap_store * 100.0)
    ));

    // The drop behaviour above the ceiling, for the record.
    let over = probe_store(Rate::from_gbps(40), E1_COUNT);
    out.push_str(&format!(
            "at 40.0 Gbps offered: {} of {} frames dropped at the NIC (paper: \"RDMA requests were occasionally dropped at the NIC\")\n",
            over, E1_COUNT
        ));
}

/// E2 — Fig 3a: "Latency overhead of lookup table primitive".
///
/// Median end-to-end latency for packet sizes 64–1024 B through (a) the
/// baseline L2 switch and (b) the lookup-table primitive fetching a
/// DSCP-rewrite action from remote memory for every packet. The paper's
/// claim: the primitive "only adds 1-2 us latency on average".
pub fn e2_lookup_latency(out: &mut String) {
    let count = 1_000;
    let offered = Rate::from_gbps(1); // light load: latency, not queueing
    out.push_str("E2: Fig 3a — median end-to-end latency, baseline vs lookup primitive\n");
    let row = |size: usize, base: TimeDelta, with: TimeDelta| {
        vec![
            size.to_string(),
            f2(base.as_micros_f64()),
            f2(with.as_micros_f64()),
            f2(with.as_micros_f64() - base.as_micros_f64()),
        ]
    };
    let headers = [
        "pkt size (B)",
        "baseline L2",
        "lookup primitive",
        "overhead",
    ];

    let mut rows = Vec::new();
    for size in SIZES {
        let base = run_l2_baseline(size, count, offered, 31);
        let (with, stats) = run_dscp_lookup(size, count, offered, None, 31);
        assert_eq!(stats.remote_lookups, count);
        rows.push(row(size, base.median, with.median));
    }
    table(out, "median one-way latency (us)", &headers, &rows);

    // The paper's actual instrument was NPtcp, a round-trip measure; the
    // echoed packet traverses the primitive in both directions.
    let mut rows = Vec::new();
    for size in SIZES {
        let base = run_l2_baseline_rtt(size, 300, 31);
        let (with, _) = run_dscp_lookup_rtt(size, 300, None, 31);
        rows.push(row(size, base.median, with.median));
    }
    table(
        out,
        "median round-trip latency, NPtcp-style (us)",
        &headers,
        &rows,
    );
    out.push_str(
        "\npaper: one-way overhead of 1-2 us across all sizes (Fig 3a);\n\
         the RTT overhead is ~2x that, since both directions take the lookup.\n",
    );
}

/// The Fig 3b workload: 20000 frames of `frame_len` bytes over 16 flows,
/// offered close to line rate, each counted into one of 4096 remote slots.
pub(super) fn line_rate_counting(frame_len: usize, seed: u64) -> CountingConfig {
    CountingConfig {
        n_flows: 16,
        pick: FlowPick::Uniform,
        count: 20_000,
        frame_len,
        offered: Rate::from_gbps(38),
        counters: 4096,
        settle: TimeDelta::from_millis(3),
        seed,
        ..Default::default()
    }
}

/// E3 — Fig 3b: "Bandwidth overhead of state-store primitive".
///
/// Line-rate traffic of varying packet size crosses the switch while every
/// packet increments a remote counter via Fetch-and-Add. The paper measures
/// ≈2.1 Gbps of FaA request+response traffic on the switch↔RNIC link —
/// "capped by RNIC Fetch-and-Add throughput" — flat across packet sizes,
/// with the counter "100% accurate" and no end-to-end throughput
/// degradation.
pub fn e3_statestore_bw(out: &mut String) {
    out.push_str("E3: Fig 3b — FaA bandwidth overhead of the state-store primitive\n");

    let mut rows = Vec::new();
    for size in SIZES {
        let r = run_counting(line_rate_counting(size, 33));
        let accurate = r.remote_total == r.truth_total;
        rows.push(vec![
            size.to_string(),
            f2(r.faa_request_bw.gbps_f64()),
            f2(r.faa_response_bw.gbps_f64()),
            f2(r.faa_request_bw.gbps_f64() + r.faa_response_bw.gbps_f64()),
            if accurate {
                "100%".into()
            } else {
                format!("{}/{}", r.remote_total, r.truth_total)
            },
            f1(r.goodput.gbps_f64()),
        ]);
        assert_eq!(r.server_cpu_packets, 0, "CPU involvement detected!");
    }
    table(
        out,
        "switch↔RNIC FaA traffic at ~line-rate offered load",
        &[
            "pkt size (B)",
            "req Gbps",
            "resp Gbps",
            "total Gbps",
            "counter accuracy",
            "goodput Gbps",
        ],
        &rows,
    );
    out.push_str(
        "\npaper: ~2.1 Gbps total across sizes, 100% accurate, no goodput degradation (Fig 3b)\n",
    );
}

/// E4 — §2.1 / Fig 1a: the 8-into-1 incast, baseline vs remote packet
/// buffer.
///
/// The paper's arithmetic: 8 × 40 Gbps senders, one 40 Gbps receiver,
/// 50 MB aggregate burst, 12 MB switch buffer. The buffer fills in
/// `12 MB / (8−1) / 40 Gbps = 0.34 ms` and the switch starts dropping;
/// draining the whole burst takes at least `50 MB / 40 Gbps = 10 ms`.
/// With the remote packet buffer striped over the servers under the ToR,
/// the burst is absorbed and delivery is lossless.
pub fn e4_incast(out: &mut String) {
    out.push_str("E4: incast rescue — 8x40G -> 1x40G, 50MB burst, 12MB switch buffer\n");

    let baseline = run_incast(IncastConfig::paper_scale(None));
    let remote = run_incast(IncastConfig::paper_scale(Some(RemoteBufferSpec::default())));

    let row = |name: &str, r: &IncastResult| {
        vec![
            name.into(),
            r.sent.to_string(),
            r.delivered.to_string(),
            r.tm_drops.to_string(),
            f3(r.delivery_ratio),
            f2(r.completion.as_millis_f64()),
            format!("{:.1}", r.peak_buffer as f64 / 1e6),
            r.pb.stored.to_string(),
            r.pb.max_ring_occupancy.to_string(),
        ]
    };
    table(
        out,
        "incast outcome",
        &[
            "config",
            "sent",
            "delivered",
            "drops",
            "ratio",
            "completion ms",
            "peak buf MB",
            "detoured",
            "peak ring",
        ],
        &[
            row("baseline (drop-tail)", &baseline),
            row("remote packet buffer", &remote),
        ],
    );

    out.push_str(
        "\npaper §2.1 expectations:\n  \
         baseline: buffer fills within ~0.34 ms; most of the burst beyond ~12MB drops\n  \
         remote buffer: zero drops; completion bounded by the 40G drain (>= 10 ms)\n",
    );
    assert_eq!(
        remote.delivered, remote.sent,
        "remote buffer failed to absorb the burst"
    );
    assert!(baseline.tm_drops > 0, "baseline unexpectedly lossless");

    // Provisioning sweep (CI-scale burst): how many servers does the
    // detour need? 280G of excess divided by the per-server intake ceiling
    // (~34.3G payload, E1) says 9.
    let mut rows = Vec::new();
    for servers in [1usize, 4, 7, 8, 9, 12] {
        let r = run_incast(IncastConfig::small(Some(RemoteBufferSpec {
            servers,
            ..Default::default()
        })));
        rows.push(vec![
            servers.to_string(),
            f3(r.delivery_ratio),
            r.tm_drops.to_string(),
            (r.pb.lost_entries + r.pb.ring_full_fallbacks).to_string(),
            f2(r.completion.as_millis_f64()),
        ]);
    }
    table(
        out,
        "provisioning sweep (1/10-scale burst): memory servers vs outcome",
        &[
            "servers",
            "delivery ratio",
            "switch drops",
            "ring losses/fallbacks",
            "completion ms",
        ],
        &rows,
    );
    out.push_str(
        "\nthe knee sits at 8-9 servers, not the naive 280/40 = 7: encapsulation\n\
         overhead and the NIC write ceiling both shave per-server intake. (At this\n\
         1/10-scale burst 8 suffice — the small deficit hides in the NIC RX queue;\n\
         the full 50MB burst above needs 9.)\n",
    );
}

/// Bytes on the wire of one RoCE frame with `payload` bytes behind `ext`.
fn wire_len(op: Opcode, ext: RoceExt, payload: usize) -> usize {
    RocePacket::new(
        host_endpoint(0),
        host_endpoint(1),
        0x9000,
        Bth::new(op, QpNum(1), 0),
        ext,
        vec![0u8; payload],
    )
    .build()
    .expect("encodes")
    .len()
}

/// E5 — §4 "Overhead": the per-operation header-byte accounting.
///
/// "In an RDMA packet, RoCEv2 protocol adds 40 bytes (52 bytes in the case
/// of RoCEv1) of headers containing routing and transport information in
/// addition to an RDMA operation-specific header of 16 (WRITE/READ) or 28
/// bytes (Fetch-and-Add)."
///
/// This row regenerates the numbers from the wire-format structs by
/// actually *building* packets and measuring them, rather than quoting
/// constants — if the codecs drift, this table drifts.
pub fn e5_overhead(out: &mut String) {
    out.push_str("E5: §4 overhead accounting (regenerated from the packet codecs)\n");

    let reth = |dma_len| {
        RoceExt::Reth(Reth {
            va: 0,
            rkey: Rkey(1),
            dma_len,
        })
    };
    let write_empty = wire_len(Opcode::WriteOnly, reth(0), 0);
    let write_1500 = wire_len(Opcode::WriteOnly, reth(1500), 1500);
    let read_req = wire_len(Opcode::ReadRequest, reth(0), 0);
    let faa = wire_len(
        Opcode::FetchAdd,
        RoceExt::AtomicEth(AtomicEth {
            va: 0,
            rkey: Rkey(1),
            swap_add: 1,
            compare: 0,
        }),
        0,
    );

    let eth = EthernetHeader::LEN;
    let rows = vec![
        vec![
            "RoCEv2 routing+transport (IP+UDP+BTH)".into(),
            ROCEV2_BASE_OVERHEAD.to_string(),
            "40".into(),
        ],
        vec![
            "RoCEv1 routing+transport (GRH+BTH)".into(),
            ROCEV1_BASE_OVERHEAD.to_string(),
            "52".into(),
        ],
        vec![
            "WRITE/READ op-specific (RETH)".into(),
            WRITE_READ_OP_OVERHEAD.to_string(),
            "16".into(),
        ],
        vec![
            "Fetch-and-Add op-specific (AtomicETH)".into(),
            FETCH_ADD_OP_OVERHEAD.to_string(),
            "28".into(),
        ],
    ];
    table(
        out,
        "header overhead (bytes)",
        &["component", "measured", "paper"],
        &rows,
    );

    let rows = vec![
        vec!["RDMA WRITE, empty payload".into(), write_empty.to_string()],
        vec![
            "RDMA WRITE, 1500B payload (stored frame)".into(),
            write_1500.to_string(),
        ],
        vec!["RDMA READ request".into(), read_req.to_string()],
        vec!["Fetch-and-Add request".into(), faa.to_string()],
    ];
    table(
        out,
        "full frame sizes on the wire (bytes, incl. Eth+ICRC)",
        &["packet", "bytes"],
        &rows,
    );

    out.push_str(&format!(
            "\nper-stored-frame tax: {} B of encapsulation on a 1500 B packet ({:.1}% of link bandwidth)\n",
            write_1500 - 1500 - eth,
            (write_1500 as f64 / (1500 + eth) as f64 - 1.0) * 100.0
        ));
    assert_eq!(ROCEV2_BASE_OVERHEAD, 40);
    assert_eq!(WRITE_READ_OP_OVERHEAD, 16);
    assert_eq!(FETCH_ADD_OP_OVERHEAD, 28);
    assert_eq!(write_empty, eth + 40 + 16 + ICRC_LEN);
}

/// E6 — the paper's capacity-expansion claims (§1, §2):
///
/// * packet buffer: "increase the switch buffer size from O(10 MB) to
///   O(10 GB), or by 1000x",
/// * lookup tables: "increases the exact-matching table size by 1000x or
///   more",
/// * counters: "can increase by 10^5x (e.g., 100 GB DRAM vs. less than
///   100 MB switch SRAM)".
///
/// The factors are computed from the actual data-structure layouts used by
/// this implementation (ring entries, table slots, counter words), so the
/// claims are grounded in the bytes the primitives really spend.
pub fn e6_capacity(out: &mut String) {
    out.push_str("E6: memory-hierarchy expansion factors (from implemented layouts)\n");

    // On-chip resources of a Tofino-class ToR (paper: "tens of MB").
    let sram_buffer = ByteSize::from_mb(12); // packet buffer
    let sram_tables = ByteSize::from_mb(20); // match-action SRAM
    let sram_counters = ByteSize::from_mb(1); // register/counter budget

    // Remote pools: the paper suggests O(1 GB) per server; a rack has
    // dozens of servers. Use 16 servers x 4 GB as the worked example and
    // 100 GB for the paper's counter example.
    let remote_buffer = ByteSize::from_gb(16 * 4);
    let remote_tables = ByteSize::from_gb(16 * 4);
    let remote_counters = ByteSize::from_gb(100);

    // Implemented layouts.
    let ring_entry = 2048u64; // 6B header + full frame, rounded
    let table_entry = 2048u64; // 16B action + 2B len + bounced packet
    let counter = 8u64;

    let row = |name: &str, sram: ByteSize, remote: ByteSize, sram_entry: u64, remote_entry: u64| {
        let local_entries = sram.bytes() / sram_entry;
        let remote_entries = remote.bytes() / remote_entry;
        vec![
            name.into(),
            sram.to_string(),
            human(local_entries),
            remote.to_string(),
            human(remote_entries),
            format!("x{}", human(remote_entries / local_entries.max(1))),
        ]
    };
    let rows = vec![
        row(
            "packet buffer (1500B frames)",
            sram_buffer,
            remote_buffer,
            1500,
            ring_entry,
        ),
        row(
            "exact-match table entries",
            sram_tables,
            remote_tables,
            64,
            table_entry,
        ),
        row(
            "64-bit counters",
            sram_counters,
            remote_counters,
            counter,
            counter,
        ),
    ];
    table(
        out,
        "capacity: on-chip SRAM vs remote DRAM",
        &[
            "resource",
            "SRAM",
            "entries",
            "remote DRAM",
            "entries",
            "factor",
        ],
        &rows,
    );

    out.push_str(
        "\npaper: buffer x1000 (10MB->10GB), tables x1000+, counters 100MB->100GB class\n\
         note: remote table/buffer entries cost more bytes than SRAM entries (they embed\n\
         the bounced packet / full frame), which is why the factor is below the raw byte ratio.\n",
    );
}
