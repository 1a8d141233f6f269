//! Measurement utilities: latency distributions and throughput accounting.

use extmem_types::{Rate, TimeDelta};
use std::cell::RefCell;

/// A collected latency distribution (picosecond samples).
#[derive(Debug, Default, Clone)]
pub struct LatencyRecorder {
    /// In arrival order until the first [`LatencyRecorder::summarize`],
    /// which sorts them where they lie: nothing in the API exposes sample
    /// order, and a million-sample run should not hold a second copy of
    /// the vector just to take percentiles of it.
    samples: RefCell<Vec<u64>>,
}

impl LatencyRecorder {
    /// An empty recorder.
    pub fn new() -> LatencyRecorder {
        LatencyRecorder::default()
    }

    /// Record one latency sample.
    pub fn record(&mut self, d: TimeDelta) {
        self.samples.get_mut().push(d.picos());
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.borrow().len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.borrow().is_empty()
    }

    /// Summarize into percentiles, or `None` if nothing was recorded (an
    /// experiment where every probe was lost should report that, not
    /// crash the whole run).
    pub fn summarize(&self) -> Option<LatencySummary> {
        let mut s = self.samples.borrow_mut();
        if s.is_empty() {
            return None;
        }
        s.sort_unstable();
        let pct = |p: f64| -> TimeDelta {
            let idx = ((s.len() as f64 - 1.0) * p).round() as usize;
            TimeDelta::from_picos(s[idx])
        };
        Some(LatencySummary {
            count: s.len(),
            min: TimeDelta::from_picos(s[0]),
            median: pct(0.5),
            p99: pct(0.99),
            max: TimeDelta::from_picos(*s.last().unwrap()),
            mean: TimeDelta::from_picos(
                (s.iter().map(|&v| v as u128).sum::<u128>() / s.len() as u128) as u64,
            ),
        })
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

    #[test]
    fn throughput_math() {
        // 50 MB in 10 ms = 40 Gbps (the §2.1 arithmetic).
        let r = throughput(50_000_000, TimeDelta::from_millis(10));
        assert_eq!(r, Rate::from_gbps(40));
    }
}
