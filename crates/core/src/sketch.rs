//! Sketching over the state-store primitive (§2.3's telemetry use case).
//!
//! "One can easily implement sketching algorithm such as Count Sketch using
//! the primitive even for a large number of flows" — this module does
//! exactly that: Count-Min Sketch and Count Sketch whose counter arrays
//! live in remote DRAM and are updated with Fetch-and-Add through the
//! [`crate::faa::FaaEngine`]. The operator-side estimators (run over the
//! remote counters from the control plane) live here too, including the
//! heavy-hitter detection the paper mentions.

use crate::faa::{FaaEngine, FaaStats};
use crate::fib::Fib;
use crate::lookup::flow_of;
use extmem_switch::hash::{flow_sign, salted_flow_index};
use extmem_switch::{PipelineProgram, SwitchCtx};
use extmem_types::{FiveTuple, IntMap, PortId, TimeDelta};
use extmem_wire::roce::RocePacket;
use extmem_wire::Packet;

const TOKEN_TICK: u64 = 0x22;

/// Which sketch the program maintains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SketchKind {
    /// Count-Min: `rows` counters incremented by 1, estimate = min.
    CountMin,
    /// Count Sketch: signed updates, estimate = median of signed reads.
    CountSketch,
}

/// Geometry of a remote sketch: `rows × cols` 64-bit counters.
#[derive(Clone, Copy, Debug)]
pub struct SketchGeometry {
    /// Independent hash rows.
    pub rows: u32,
    /// Buckets per row.
    pub cols: u64,
}

impl SketchGeometry {
    /// Bytes of remote memory the sketch occupies.
    pub fn region_bytes(&self) -> u64 {
        self.rows as u64 * self.cols * 8
    }

    /// The flat counter index for `(row, flow)`.
    pub fn slot(&self, row: u32, flow: &FiveTuple) -> u64 {
        row as u64 * self.cols + salted_flow_index(flow, row, self.cols)
    }
}

/// A pipeline program that forwards traffic and feeds a remote sketch.
pub struct SketchProgram {
    /// L2 forwarding.
    pub fib: Fib,
    engine: FaaEngine,
    kind: SketchKind,
    geometry: SketchGeometry,
    tick_interval: TimeDelta,
    tick_armed: bool,
    /// Exact per-flow ground truth (test oracle only).
    pub oracle: IntMap<FiveTuple, u64>,
}

impl SketchProgram {
    /// Create the program. The engine's region must be at least
    /// `geometry.region_bytes()`.
    pub fn new(
        fib: Fib,
        engine: FaaEngine,
        kind: SketchKind,
        geometry: SketchGeometry,
        tick_interval: TimeDelta,
    ) -> SketchProgram {
        assert!(
            engine.slots() >= geometry.rows as u64 * geometry.cols,
            "region too small for sketch geometry"
        );
        SketchProgram {
            fib,
            engine,
            kind,
            geometry,
            tick_interval,
            tick_armed: false,
            oracle: IntMap::default(),
        }
    }

    /// Engine counters.
    pub fn faa_stats(&self) -> FaaStats {
        self.engine.stats()
    }

    /// Whether all updates have settled remotely.
    pub fn is_quiescent(&self) -> bool {
        self.engine.is_quiescent()
    }

    /// The sketch geometry.
    pub fn geometry(&self) -> SketchGeometry {
        self.geometry
    }
}

impl PipelineProgram for SketchProgram {
    fn ingress(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, in_port: PortId, pkt: Packet) {
        if !self.tick_armed {
            self.tick_armed = true;
            ctx.schedule(self.tick_interval, TOKEN_TICK);
        }
        if self.engine.owns_port(in_port) {
            if let Ok(Some(roce)) = RocePacket::parse(&pkt) {
                self.engine.on_roce(ctx, in_port, &roce);
                return;
            }
        }
        let flow = flow_of(&pkt);
        if let Some(port) = self.fib.egress_for(&pkt) {
            ctx.enqueue(port, pkt);
        }
        if let Some(flow) = flow {
            *self.oracle.entry(flow).or_insert(0) += 1;
            for row in 0..self.geometry.rows {
                let slot = self.geometry.slot(row, &flow);
                let value = match self.kind {
                    SketchKind::CountMin => 1u64,
                    // -1 encodes as two's-complement; Fetch-and-Add wraps.
                    SketchKind::CountSketch => flow_sign(&flow, row) as u64,
                };
                self.engine.add(ctx, slot, value);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, token: u64) {
        if token == TOKEN_TICK {
            self.engine.flush(ctx);
            self.engine.tick(ctx);
            ctx.schedule(self.tick_interval, TOKEN_TICK);
        } else {
            self.engine.on_timer(ctx, token);
        }
    }

    fn program_name(&self) -> &str {
        "sketch-telemetry"
    }
}

/// Control-plane estimator over a counter dump (as returned by
/// [`crate::state_store::read_remote_counters`]).
pub fn estimate(
    kind: SketchKind,
    geometry: &SketchGeometry,
    counters: &[u64],
    flow: &FiveTuple,
) -> i64 {
    assert!(
        counters.len() as u64 >= geometry.rows as u64 * geometry.cols,
        "dump too small"
    );
    let mut per_row: Vec<i64> = (0..geometry.rows)
        .map(|row| {
            let v = counters[geometry.slot(row, flow) as usize];
            match kind {
                SketchKind::CountMin => v as i64,
                SketchKind::CountSketch => flow_sign(flow, row) * (v as i64),
            }
        })
        .collect();
    match kind {
        SketchKind::CountMin => per_row.into_iter().min().unwrap_or(0),
        SketchKind::CountSketch => {
            per_row.sort_unstable();
            let n = per_row.len();
            if n % 2 == 1 {
                per_row[n / 2]
            } else {
                (per_row[n / 2 - 1] + per_row[n / 2]) / 2
            }
        }
    }
}

/// Flows from `candidates` whose estimate meets `threshold` — the paper's
/// "network operators can run any estimation algorithms (e.g., heavy-hitter
/// detection) on the remote counter".
pub fn heavy_hitters(
    kind: SketchKind,
    geometry: &SketchGeometry,
    counters: &[u64],
    candidates: &[FiveTuple],
    threshold: i64,
) -> Vec<(FiveTuple, i64)> {
    let mut out: Vec<(FiveTuple, i64)> = candidates
        .iter()
        .map(|f| (*f, estimate(kind, geometry, counters, f)))
        .filter(|&(_, est)| est >= threshold)
        .collect();
    out.sort_by_key(|&(_, est)| std::cmp::Reverse(est));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(n: u32) -> FiveTuple {
        FiveTuple::new(0x0a000000 + n, 0x0a630001, 4000 + (n % 1000) as u16, 80, 17)
    }

    /// Simulate sketch state locally (no network) by applying updates the
    /// same way the program would, then check estimator properties.
    fn local_sketch(kind: SketchKind, g: &SketchGeometry, truth: &[(FiveTuple, u64)]) -> Vec<u64> {
        let mut counters = vec![0u64; (g.rows as u64 * g.cols) as usize];
        for &(f, n) in truth {
            for _ in 0..n {
                for row in 0..g.rows {
                    let slot = g.slot(row, &f) as usize;
                    let v = match kind {
                        SketchKind::CountMin => 1u64,
                        SketchKind::CountSketch => flow_sign(&f, row) as u64,
                    };
                    counters[slot] = counters[slot].wrapping_add(v);
                }
            }
        }
        counters
    }

    #[test]
    fn count_min_never_underestimates() {
        let g = SketchGeometry { rows: 4, cols: 64 };
        let truth: Vec<(FiveTuple, u64)> =
            (0..100).map(|i| (flow(i), (i % 7 + 1) as u64)).collect();
        let counters = local_sketch(SketchKind::CountMin, &g, &truth);
        for &(f, n) in &truth {
            let est = estimate(SketchKind::CountMin, &g, &counters, &f);
            assert!(est >= n as i64, "CMS underestimated: {est} < {n}");
        }
    }

    #[test]
    fn count_min_is_tight_without_collisions() {
        let g = SketchGeometry {
            rows: 4,
            cols: 4096,
        };
        let truth = vec![(flow(1), 10), (flow(2), 20)];
        let counters = local_sketch(SketchKind::CountMin, &g, &truth);
        assert_eq!(estimate(SketchKind::CountMin, &g, &counters, &flow(1)), 10);
        assert_eq!(estimate(SketchKind::CountMin, &g, &counters, &flow(2)), 20);
    }

    #[test]
    fn count_sketch_recovers_heavy_flows() {
        let g = SketchGeometry { rows: 5, cols: 256 };
        // One elephant among mice.
        let mut truth: Vec<(FiveTuple, u64)> = (0..200).map(|i| (flow(i), 2)).collect();
        truth.push((flow(999), 500));
        let counters = local_sketch(SketchKind::CountSketch, &g, &truth);
        let est = estimate(SketchKind::CountSketch, &g, &counters, &flow(999));
        let err = (est - 500).abs();
        assert!(err <= 25, "Count Sketch estimate {est} too far from 500");
    }

    #[test]
    fn heavy_hitters_ranks_correctly() {
        let g = SketchGeometry {
            rows: 4,
            cols: 1024,
        };
        let truth = vec![(flow(1), 100), (flow(2), 300), (flow(3), 5)];
        let counters = local_sketch(SketchKind::CountMin, &g, &truth);
        let candidates: Vec<FiveTuple> = truth.iter().map(|&(f, _)| f).collect();
        let hh = heavy_hitters(SketchKind::CountMin, &g, &counters, &candidates, 50);
        assert_eq!(hh.len(), 2);
        assert_eq!(hh[0].0, flow(2));
        assert_eq!(hh[1].0, flow(1));
    }

    #[test]
    fn geometry_accounting() {
        let g = SketchGeometry { rows: 3, cols: 128 };
        assert_eq!(g.region_bytes(), 3 * 128 * 8);
        let f = flow(7);
        for row in 0..3 {
            let s = g.slot(row, &f);
            assert!(
                s >= row as u64 * 128 && s < (row as u64 + 1) * 128,
                "slot outside its row"
            );
        }
    }
}
