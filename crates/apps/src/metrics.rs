//! Measurement utilities: latency distributions and throughput accounting.

use extmem_types::{Rate, TimeDelta};
use std::cell::RefCell;

/// Samples per block (512 KB of near samples, 1 MB of far ones): large
/// enough that a million-sample run calls the allocator less often than a
/// doubling vector would.
const BLOCK: usize = 1 << 17;

/// A collected latency distribution, exact to the picosecond.
///
/// A sample below 2^32 ps (~4.3 ms) is kept as a `u32`, a larger one as a
/// `u64`, each kind in fixed-size blocks that are allocated once and never
/// grown or copied. [`LatencyRecorder::summarize`] sorts every block where
/// it lies and finds each rank across the sorted blocks, so a
/// million-sample run holds four bytes a sample and never a second,
/// contiguous copy of them.
#[derive(Debug, Default, Clone)]
pub struct LatencyRecorder {
    /// Samples below 2^32 ps. Every one of them is smaller than every far
    /// sample, so a rank below `near.len()` is a near sample.
    near: RefCell<Blocks<u32>>,
    /// Samples of 2^32 ps and more.
    far: RefCell<Blocks<u64>>,
}

impl LatencyRecorder {
    /// An empty recorder.
    pub fn new() -> LatencyRecorder {
        LatencyRecorder::default()
    }

    /// Record one latency sample.
    pub fn record(&mut self, d: TimeDelta) {
        let ps = d.picos();
        match u32::try_from(ps) {
            Ok(near) => self.near.get_mut().push(near),
            Err(_) => self.far.get_mut().push(ps),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.near.borrow().len() + self.far.borrow().len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Summarize into percentiles, or `None` if nothing was recorded (an
    /// experiment where every probe was lost should report that, not
    /// crash the whole run).
    pub fn summarize(&self) -> Option<LatencySummary> {
        let (mut near, mut far) = (self.near.borrow_mut(), self.far.borrow_mut());
        near.sort();
        far.sort();
        let (near_len, count) = (near.len(), near.len() + far.len());
        if count == 0 {
            return None;
        }
        let rank = |k: usize| -> TimeDelta {
            TimeDelta::from_picos(if k < near_len {
                near.kth(k)
            } else {
                far.kth(k - near_len)
            })
        };
        let pct = |p: f64| rank(((count as f64 - 1.0) * p).round() as usize);
        Some(LatencySummary {
            count,
            min: rank(0),
            median: pct(0.5),
            p99: pct(0.99),
            max: rank(count - 1),
            mean: TimeDelta::from_picos(((near.sum() + far.sum()) / count as u128) as u64),
        })
    }
}

/// Samples of one width in blocks of [`BLOCK`] capacity. A full block is
/// never grown: the next sample starts a new one.
#[derive(Debug, Default, Clone)]
struct Blocks<T> {
    blocks: Vec<Vec<T>>,
}

impl<T: Copy + Ord + Into<u64>> Blocks<T> {
    fn push(&mut self, v: T) {
        match self.blocks.last_mut() {
            // Capacity, not BLOCK: a cloned block is allocated at its
            // length and must not grow either.
            Some(b) if b.len() < b.capacity() => b.push(v),
            _ => {
                let mut b = Vec::with_capacity(BLOCK);
                b.push(v);
                self.blocks.push(b);
            }
        }
    }

    fn len(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }

    fn sort(&mut self) {
        for b in &mut self.blocks {
            b.sort_unstable();
        }
    }

    fn sum(&self) -> u128 {
        self.blocks
            .iter()
            .flatten()
            .map(|&v| u128::from(v.into()))
            .sum()
    }

    /// The `k`-th smallest sample (from 0), blocks sorted: the least value
    /// with more than `k` samples at or below it, found by bisecting on
    /// the value and counting each block's share with a binary search.
    fn kth(&self, k: usize) -> u64 {
        let at_or_below = |v: u64| -> usize {
            self.blocks
                .iter()
                .map(|b| b.partition_point(|&x| x.into() <= v))
                .sum()
        };
        let (mut lo, mut hi) = (0, u64::MAX);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if at_or_below(mid) > k {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }
}

/// Percentile summary of a latency distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    /// Sample count.
    pub count: usize,
    /// Minimum.
    pub min: TimeDelta,
    /// Median (the statistic Fig 3a reports).
    pub median: TimeDelta,
    /// 99th percentile.
    pub p99: TimeDelta,
    /// Maximum.
    pub max: TimeDelta,
    /// Arithmetic mean.
    pub mean: TimeDelta,
}

/// Average rate of `bytes` transferred over `elapsed`.
///
/// ```
/// use extmem_apps::metrics::throughput;
/// use extmem_types::{Rate, TimeDelta};
/// // The paper's §2.1 arithmetic: 50 MB in 10 ms is 40 Gbps.
/// assert_eq!(throughput(50_000_000, TimeDelta::from_millis(10)), Rate::from_gbps(40));
/// ```
pub fn throughput(bytes: u64, elapsed: TimeDelta) -> Rate {
    assert!(elapsed > TimeDelta::ZERO, "zero elapsed time");
    let bps = (bytes as u128 * 8 * 1_000_000_000_000) / elapsed.picos() as u128;
    Rate::from_bps(u64::try_from(bps).expect("rate overflow"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_percentiles() {
        let mut r = LatencyRecorder::new();
        for us in 1..=100u64 {
            r.record(TimeDelta::from_micros(us));
        }
        let s = r.summarize().unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, TimeDelta::from_micros(1));
        assert_eq!(s.max, TimeDelta::from_micros(100));
        // Nearest-rank on 0..99: median index 50 → 51us.
        assert_eq!(s.median, TimeDelta::from_micros(51));
        assert_eq!(s.p99, TimeDelta::from_micros(99));
        assert_eq!(s.mean, TimeDelta::from_nanos(50_500));
    }

    #[test]
    fn summaries_repeat_and_keep_accepting_samples() {
        // The first summary leaves the samples sorted in place; later
        // records and summaries must not notice.
        let mut r = LatencyRecorder::new();
        for ns in [900u64, 100, 500, 300, 700] {
            r.record(TimeDelta::from_nanos(ns));
        }
        let first = r.summarize().unwrap();
        assert_eq!(first.median, TimeDelta::from_nanos(500));
        assert_eq!(r.summarize().unwrap(), first);
        r.record(TimeDelta::from_nanos(200));
        r.record(TimeDelta::from_nanos(50));
        let s = r.summarize().unwrap();
        assert_eq!((s.count, r.len()), (7, 7));
        assert_eq!(s.min, TimeDelta::from_nanos(50));
        assert_eq!(s.median, TimeDelta::from_nanos(300));
        assert_eq!(s.max, TimeDelta::from_nanos(900));
    }

    #[test]
    fn single_sample() {
        let mut r = LatencyRecorder::new();
        r.record(TimeDelta::from_nanos(700));
        let s = r.summarize().unwrap();
        assert_eq!(s.median, TimeDelta::from_nanos(700));
        assert_eq!(s.p99, TimeDelta::from_nanos(700));
    }

    #[test]
    fn empty_summary_is_none() {
        assert!(LatencyRecorder::new().summarize().is_none());
    }

    /// The summary of `samples` the plain way: one sorted `Vec<u64>`.
    fn oracle(samples: &[u64]) -> LatencySummary {
        let mut s = samples.to_vec();
        s.sort_unstable();
        let pct = |p: f64| TimeDelta::from_picos(s[((s.len() as f64 - 1.0) * p).round() as usize]);
        LatencySummary {
            count: s.len(),
            min: TimeDelta::from_picos(s[0]),
            median: pct(0.5),
            p99: pct(0.99),
            max: TimeDelta::from_picos(s[s.len() - 1]),
            mean: TimeDelta::from_picos(
                (s.iter().map(|&v| v as u128).sum::<u128>() / s.len() as u128) as u64,
            ),
        }
    }

    /// `n` samples from a splitmix64 stream, mostly below 2^32 ps; every
    /// `far_every`-th one (0: none) is a far sample up to 2^62 ps.
    fn samples(n: usize, seed: u64, far_every: usize) -> Vec<u64> {
        let mut x = seed;
        (0..n)
            .map(|i| {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                if far_every != 0 && i % far_every == 0 {
                    z >> 2
                } else {
                    z % (1 << 32)
                }
            })
            .collect()
    }

    fn check(samples: &[u64]) {
        let mut r = LatencyRecorder::new();
        for &ps in samples {
            r.record(TimeDelta::from_picos(ps));
        }
        assert_eq!(r.len(), samples.len());
        let want = oracle(samples);
        assert_eq!(r.summarize(), Some(want), "{} samples", samples.len());
        assert_eq!(r.summarize(), Some(want), "second summary");
        assert_eq!(r.clone().summarize(), Some(want), "a clone");
    }

    #[test]
    fn blocks_agree_with_a_sorted_vec() {
        for n in [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7] {
            check(&samples(n, n as u64, 0));
            check(&samples(n, n as u64 + 1, 97));
        }
    }

    #[test]
    fn blocks_agree_at_the_width_boundary() {
        let edge = [(1 << 32) - 1, 1 << 32, (1 << 32) + 1];
        for v in edge {
            check(&[v]);
        }
        check(&edge);
        check(&[1 << 32, (1 << 32) - 1, (1 << 32) - 1, (1 << 32) + 1]);
        // A u64-scale tail behind a near body, and a far-only run.
        let mut tail = samples(BLOCK + 3, 5, 0);
        tail.extend([u64::MAX, u64::MAX - 1, 1 << 63, 1 << 40]);
        tail.extend(edge);
        check(&tail);
        check(&[u64::MAX, 1 << 32, u64::MAX, (1 << 32) + 1]);
    }

    #[test]
    fn near_samples_cost_four_bytes_each() {
        for n in [1, BLOCK, BLOCK + 1, 2 * BLOCK + 7] {
            let mut r = LatencyRecorder::new();
            for ps in samples(n, 3, 0) {
                r.record(TimeDelta::from_picos(ps));
            }
            r.summarize();
            let near = r.near.borrow();
            let held: usize = near.blocks.iter().map(|b| 4 * b.capacity()).sum();
            assert!(held <= 4 * n + 4 * BLOCK, "{n} samples hold {held} B");
            // Full blocks were not grown: a new one took the next sample.
            assert_eq!(near.blocks.len(), n.div_ceil(BLOCK));
            assert!(r.far.borrow().blocks.is_empty());
        }
    }

    #[test]
    fn throughput_math() {
        // 50 MB in 10 ms = 40 Gbps (the §2.1 arithmetic).
        let r = throughput(50_000_000, TimeDelta::from_millis(10));
        assert_eq!(r, Rate::from_gbps(40));
    }
}
