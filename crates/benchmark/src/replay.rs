//! Replay kernels: the wire and responder functions timed in isolation on
//! frames captured from the traced run itself.
//!
//! `wire` has no callbacks of its own — it runs inside `core` and `rnic`
//! spans — so its cost is estimated as (packets it handled) × (cost of
//! handling one such packet here). The kernels take at most
//! [`CAPTURE_MAX`] captured frames and loop over them until at
//! least [`MIN_KERNEL_NS`] has elapsed, so each figure averages tens of
//! thousands of calls on real traffic rather than on a synthetic packet.

use crate::trace::{Layer, TraceReport, CAPTURE_MAX};
use crate::workloads::ReplayContext;
use extmem_core::lookup::flow_of;
use extmem_rnic::responder::process_request;
use extmem_rnic::{MrTable, QueuePair};
use extmem_types::{ByteSize, FiveTuple, QpNum};
use extmem_wire::icrc::{icrc_rocev2, ICRC_LEN};
use extmem_wire::roce::RoceEndpoint;
use extmem_wire::{Packet, RocePacket};
use std::hint::black_box;
use std::time::Instant;

/// Each kernel runs at least this long.
const MIN_KERNEL_NS: u64 = 20_000_000;

/// Per-call costs measured by the kernels (0 where the run captured
/// nothing to replay).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReplayCosts {
    /// `RocePacket::parse` per captured RoCE frame (ICRC check included).
    pub parse_ns: f64,
    /// `RocePacket::build_into` per captured RoCE frame (ICRC included).
    pub build_ns: f64,
    /// `icrc_rocev2` per KB of covered bytes.
    pub icrc_ns_per_kb: f64,
    /// `process_request` per captured request.
    pub process_request_ns: f64,
    /// `ShardRing::shard_for_flow` per captured workload frame.
    pub shard_lookup_ns: f64,
    /// RoCE frames the wire kernels ran on.
    pub roce_frames: usize,
    /// Requests the responder kernel ran on.
    pub requests: usize,
}

/// Loop `pass` (which returns how many items it handled) until
/// [`MIN_KERNEL_NS`] has elapsed; returns nanoseconds per item.
fn per_item_ns(mut pass: impl FnMut() -> usize) -> f64 {
    let start = Instant::now();
    let mut items = 0usize;
    loop {
        items += pass();
        let ns = start.elapsed().as_nanos() as u64;
        if ns >= MIN_KERNEL_NS {
            return ns as f64 / items.max(1) as f64;
        }
    }
}

/// Run every kernel the captures allow.
pub fn run(trace: &TraceReport, ctx: &ReplayContext) -> ReplayCosts {
    let mut costs = ReplayCosts::default();
    // Half requests (as they reached the NICs), half responses (as they
    // reached the switches): the mix the wire crate actually handles.
    let captured = |layer: Layer| {
        trace
            .probes
            .iter()
            .filter(move |p| p.layer == layer)
            .flat_map(|p| &p.captured_roce)
            .take(CAPTURE_MAX / 2)
    };
    let roce: Vec<&Packet> = captured(Layer::Rnic)
        .chain(captured(Layer::Switch))
        .collect();
    let parsed: Vec<RocePacket> = roce
        .iter()
        .filter_map(|p| RocePacket::parse(p).ok().flatten())
        .collect();
    costs.roce_frames = parsed.len();
    if !parsed.is_empty() {
        costs.parse_ns = per_item_ns(|| {
            for p in &roce {
                black_box(RocePacket::parse(black_box(p)).ok());
            }
            roce.len()
        });
        let mut buf = Vec::with_capacity(4096);
        costs.build_ns = per_item_ns(|| {
            for p in &parsed {
                black_box(p)
                    .build_into(&mut buf)
                    .expect("a parsed packet re-encodes");
                black_box(&buf);
            }
            parsed.len()
        });
        // ICRC covers the frame from the IP header up to the trailer.
        let covered: usize = roce.iter().map(|p| p.len() - 14 - ICRC_LEN).sum();
        let per_frame = per_item_ns(|| {
            for p in &roce {
                let b = p.as_slice();
                black_box(icrc_rocev2(black_box(&b[14..b.len() - ICRC_LEN])));
            }
            roce.len()
        });
        costs.icrc_ns_per_kb = per_frame * roce.len() as f64 / (covered as f64 / 1024.0);
    }

    // The responder kernel replays one server's requests, in arrival order,
    // against a scratch QP and a region of the same size and initial image.
    // A relaxed QP accepts whatever PSN comes first; a fresh one per pass
    // keeps every pass on the execute path instead of the duplicate path.
    let requests: Vec<&RocePacket> = parsed
        .iter()
        .filter(|p| p.bth.opcode.is_request() && Some(p.eth.dst) == ctx.server_mac)
        .collect();
    costs.requests = requests.len();
    if !requests.is_empty() && ctx.region_bytes > 0 {
        let local = RoceEndpoint {
            mac: requests[0].eth.dst,
            ip: requests[0].ipv4.dst,
        };
        let peer = RoceEndpoint {
            mac: requests[0].eth.src,
            ip: requests[0].ipv4.src,
        };
        let mut mrs = MrTable::new();
        let (rkey, base_va) = mrs.register(ByteSize::from_bytes(ctx.region_bytes));
        if let Some(image) = &ctx.region_image {
            mrs.get_mut(rkey)
                .and_then(|r| r.write(base_va, image))
                .expect("the image fits the region it was encoded for");
        }
        costs.process_request_ns = per_item_ns(|| {
            let mut qp = QueuePair::new(requests[0].bth.dest_qp, peer, QpNum(0x7700), 0).relaxed();
            for r in &requests {
                black_box(process_request(
                    local,
                    &mut qp,
                    &mut mrs,
                    black_box(r),
                    2048,
                ));
            }
            requests.len()
        });
    }

    if let Some(ring) = &ctx.shard_ring {
        let flows: Vec<FiveTuple> = trace
            .probes
            .iter()
            .flat_map(|p| &p.captured_data)
            .take(CAPTURE_MAX)
            .filter_map(flow_of)
            .collect();
        if !flows.is_empty() {
            costs.shard_lookup_ns = per_item_ns(|| {
                for f in &flows {
                    black_box(ring.shard_for_flow(black_box(f)));
                }
                flows.len()
            });
        }
    }
    costs
}
