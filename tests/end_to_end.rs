//! Cross-crate integration tests: full scenarios through real topologies.

use extmem_apps::baremetal::{run_dscp_lookup, run_gateway, run_l2_baseline, GatewayConfig};
use extmem_apps::incast::{run_incast, IncastConfig, RemoteBufferSpec};
use extmem_apps::telemetry::{run_counting, CountingConfig};
use extmem_apps::workload::FlowPick;
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
        assert_eq!(stats.channel.naks, 0);
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
