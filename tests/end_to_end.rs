//! Cross-crate integration tests: full scenarios through real topologies.

use extmem_apps::baremetal::{run_dscp_lookup, run_gateway, run_l2_baseline, GatewayConfig};
use extmem_apps::incast::{run_incast, IncastConfig, RemoteBufferSpec};
use extmem_apps::telemetry::{run_counting, run_sketch, CountingConfig};
use extmem_apps::workload::FlowPick;
use extmem_core::sketch::{SketchGeometry, SketchKind};
use extmem_types::{Rate, TimeDelta};

#[test]
fn incast_baseline_matches_paper_arithmetic() {
    // §2.1: with an 8:1 incast at 40G the 12MB buffer fills in ~0.34 ms.
    // At small scale the same shape holds: buffer ≪ burst ⇒ drops ≈
    // burst − buffer − drain·completion.
    let mut cfg = IncastConfig::small(None);
    cfg.switch_buffer = extmem_types::ByteSize::from_bytes(120_000);
    let r = run_incast(cfg);
    assert!(r.delivery_ratio < 0.7, "expected heavy loss: {r:?}");
    assert_eq!(r.delivered + r.tm_drops, r.sent);
    // The peak buffer must be pinned at (close to) the configured cap.
    assert!(r.peak_buffer > 100_000, "buffer never filled: {r:?}");
}

#[test]
fn incast_with_remote_buffer_is_lossless_and_ordered() {
    let r = run_incast(IncastConfig::small(Some(RemoteBufferSpec::default())));
    assert_eq!(r.delivered, r.sent);
    assert_eq!(r.tm_drops, 0);
    assert_eq!(r.reorders, 0);
    assert_eq!(r.pb.lost_entries, 0);
    assert_eq!(r.pb.stale_skipped, 0);
    // The local buffer stayed tiny: that's the point of the primitive.
    assert!(
        r.peak_buffer < 120_000,
        "local buffer should stay below the detour threshold region: {r:?}"
    );
}

#[test]
fn lookup_latency_overhead_matches_fig3a_shape() {
    // Fig 3a: the lookup primitive adds 1–2 us over the L2 baseline across
    // packet sizes, and the overhead grows gently with size (two extra
    // serializations of the bounced packet).
    let mut overheads = Vec::new();
    for &size in &[64usize, 256, 1024] {
        let base = run_l2_baseline(size, 300, Rate::from_gbps(1), 5);
        let (with, stats) = run_dscp_lookup(size, 300, Rate::from_gbps(1), None, 5);
        assert_eq!(stats.remote_lookups, 300);
        assert_eq!(stats.naks, 0);
        overheads.push(with.median.as_micros_f64() - base.median.as_micros_f64());
    }
    for &o in &overheads {
        assert!(
            (0.5..5.0).contains(&o),
            "overhead {o}us out of the paper regime"
        );
    }
    assert!(
        overheads.windows(2).all(|w| w[0] <= w[1] + 0.05),
        "overhead should grow (weakly) with packet size: {overheads:?}"
    );
}

#[test]
fn statestore_accuracy_and_goodput_match_fig3b_claims() {
    let r = run_counting(CountingConfig {
        count: 5_000,
        offered: Rate::from_gbps(30),
        frame_len: 512,
        settle: TimeDelta::from_millis(3),
        ..Default::default()
    });
    // "the updated value is 100% accurate"
    assert_eq!(r.remote_total, r.truth_total);
    assert_eq!(r.exact_slots, r.truth_slots);
    // "no end-to-end throughput degradation"
    assert!(
        r.goodput.gbps_f64() > 29.0,
        "goodput {} below offered",
        r.goodput
    );
    // zero CPU involvement
    assert_eq!(r.server_cpu_packets, 0);
}

#[test]
fn gateway_translates_under_heavy_skew_with_tiny_cache() {
    let r = run_gateway(GatewayConfig {
        n_vips: 256,
        pick: FlowPick::Zipf(1.4),
        count: 5_000,
        cache: Some(16),
        ..Default::default()
    });
    assert_eq!(r.delivered, r.sent);
    assert!(r.cache_hit_rate > 0.6, "hit rate {}", r.cache_hit_rate);
    assert_eq!(r.lookup.slow_path, 0);
}

#[test]
fn sketches_detect_heavy_hitters_end_to_end() {
    let g = SketchGeometry {
        rows: 5,
        cols: 1024,
    };
    for kind in [SketchKind::CountMin, SketchKind::CountSketch] {
        let r = run_sketch(kind, g, 48, 4_000, 250, 17);
        assert!(
            r.heavy_hitters.contains(&0),
            "{kind:?} missed the Zipf head: {:?}",
            r.heavy_hitters
        );
        // No mice (tail half of the rank distribution) should appear.
        for &hh in &r.heavy_hitters {
            assert!(hh < 24, "{kind:?} flagged mouse flow {hh}");
        }
    }
}

#[test]
fn counting_exactness_across_issuing_configs() {
    use extmem_core::faa::FaaConfig;
    for (window, batch) in [(1usize, 1u64), (2, 8), (16, 2)] {
        let r = run_counting(CountingConfig {
            count: 2_000,
            faa: FaaConfig {
                max_outstanding: window,
                min_batch: batch,
                ..Default::default()
            },
            settle: TimeDelta::from_millis(5),
            seed: window as u64 * 100 + batch,
            ..Default::default()
        });
        assert_eq!(
            r.remote_total, r.truth_total,
            "window={window} batch={batch} lost counts"
        );
    }
}

/// The complete §2.1 story: the remote packet buffer absorbs the *transient*
/// part of an overload while ECN-based end-to-end congestion control slows
/// the *persistent* part — "in the case of persistent congestion, end-to-end
/// congestion control based on ECN … should have slowed traffic".
#[test]
fn remote_buffer_plus_ecn_tames_persistent_congestion() {
    use extmem_apps::cc::{DctcpConfig, DctcpSource, FeedbackEcho};
    use extmem_apps::scenario::{host_ip, host_mac, Built, Testbed};
    use extmem_core::packet_buffer::{Mode, PacketBufferProgram};
    use extmem_rnic::{RnicConfig, RnicNode};
    use extmem_sim::LinkSpec;
    use extmem_switch::{SwitchConfig, SwitchNode};
    use extmem_types::{ByteSize, FiveTuple, Time, TimeDelta};

    let flow = FiveTuple::new(host_ip(0), host_ip(1), 40_000, 9_000, 17);
    let mut tb = Testbed::new(23);
    tb.host(
        DctcpSource::new(
            "dctcp",
            // A persistent 2.5x overload of the 10G bottleneck. (Staying
            // under the ~30G NIC write ceiling for 1000B frames keeps the
            // detour itself lossless; E1/E4 cover what happens beyond it.)
            DctcpConfig {
                initial: Rate::from_gbps(25),
                max: Rate::from_gbps(25),
                ..Default::default()
            },
            host_mac(0),
            host_mac(1),
            flow,
            1000,
            60_000,
        ),
        LinkSpec::testbed_40g(),
    );
    let bottleneck = tb.host(
        FeedbackEcho::new("rx"),
        LinkSpec::new(Rate::from_gbps(10), TimeDelta::from_nanos(300)),
    );
    let (_, channel) = tb.server(
        RnicConfig::default(),
        ByteSize::from_mb(8),
        LinkSpec::testbed_40g(),
    );
    let prog = PacketBufferProgram::new(
        tb.fib(),
        vec![channel],
        bottleneck,
        2048,
        Mode::Auto {
            start_store_qbytes: 8_192,
            resume_load_qbytes: 4_096,
        },
        8,
        TimeDelta::from_micros(100),
    );
    let Built {
        mut sim,
        switch,
        hosts,
        servers,
        ..
    } = tb.build(
        SwitchConfig {
            ecn_threshold: Some(ByteSize::from_bytes(4_096)),
            ..Default::default()
        },
        Box::new(prog),
    );
    let (src, dst, server) = (hosts[0], hosts[1], servers[0]);
    sim.schedule_timer(src, TimeDelta::ZERO, 1);
    sim.run_until(Time::from_millis(40));

    let sw: &SwitchNode = sim.node(switch);
    let s = sw.program::<PacketBufferProgram>().stats();
    let src_node = sim.node::<DctcpSource>(src);
    let rx = sim.node::<FeedbackEcho>(dst);

    // The transient was absorbed remotely, not dropped.
    assert!(s.stored > 0, "detour never engaged: {s:?}");
    assert_eq!(sw.tm().total_drops(), 0, "nothing may drop: {s:?}");
    assert_eq!(
        sim.node::<RnicNode>(server).stats().rx_overflow_drops,
        0,
        "the NIC must keep up below its ceiling"
    );
    assert_eq!(s.lost_entries, 0);
    // The persistent part was slowed by ECN toward the bottleneck.
    let tail = &src_node.rate_trace[src_node.rate_trace.len() * 3 / 4..];
    let avg: f64 = tail.iter().map(|(_, r)| r.gbps_f64()).sum::<f64>() / tail.len() as f64;
    assert!(
        (6.0..14.0).contains(&avg),
        "rate did not converge near 10G: {avg:.1}G"
    );
    // Once the sender slowed, the ring drained back to (near) empty.
    let prog = sw.program::<PacketBufferProgram>();
    assert!(
        prog.ring_occupancy() < 64,
        "ring should drain under steady state: {} entries",
        prog.ring_occupancy()
    );
    // Feedback kept flowing throughout.
    assert!(rx.received > 10_000, "receiver starved: {}", rx.received);
    assert!(src_node.total_feedback > 10_000, "feedback loop starved");
}
