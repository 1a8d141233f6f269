//! Point-to-point links: rate, propagation delay, fault injection, stats.

use extmem_types::{NodeId, PortId, Rate, TimeDelta};

/// Fault-injection parameters for one link (both directions), mirroring the
/// smoltcp example knobs: random drop, random single-byte corruption, and
/// random reordering (an extra delivery delay letting later packets
/// overtake).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultSpec {
    /// Probability in `[0, 1]` that a packet is silently dropped.
    pub drop_prob: f64,
    /// Probability in `[0, 1]` that one random byte of a packet is flipped.
    pub corrupt_prob: f64,
    /// Probability in `[0, 1]` that a delivered packet is held for an extra
    /// [`FaultSpec::reorder_delay`], so packets sent just after it arrive
    /// first.
    pub reorder_prob: f64,
    /// Extra delivery delay applied to reordered packets. A delay shorter
    /// than one serialization time cannot actually reorder anything.
    pub reorder_delay: TimeDelta,
    /// Probability in `[0, 1]` that a delivered packet is delivered *twice*
    /// (the duplicate arrives immediately after the original, as a replayed
    /// frame would). Exercises the requesters' duplicate-response dedup and
    /// the responders' duplicate-PSN path.
    pub duplicate_prob: f64,
}

impl FaultSpec {
    /// No faults (the default).
    pub const NONE: FaultSpec = FaultSpec {
        drop_prob: 0.0,
        corrupt_prob: 0.0,
        reorder_prob: 0.0,
        reorder_delay: TimeDelta::ZERO,
        duplicate_prob: 0.0,
    };

    /// Drop-only faults at probability `p`.
    pub fn drop(p: f64) -> FaultSpec {
        FaultSpec {
            drop_prob: p,
            ..FaultSpec::NONE
        }
    }

    /// Whether any fault injection is enabled.
    pub fn is_active(&self) -> bool {
        self.drop_prob > 0.0
            || self.corrupt_prob > 0.0
            || self.reorder_prob > 0.0
            || self.duplicate_prob > 0.0
    }

    /// Panic if probabilities are outside `[0, 1]`.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.drop_prob)
                && (0.0..=1.0).contains(&self.corrupt_prob)
                && (0.0..=1.0).contains(&self.reorder_prob)
                && (0.0..=1.0).contains(&self.duplicate_prob),
            "fault probabilities must be within [0, 1]"
        );
    }
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::NONE
    }
}

/// Static description of a link used at topology-build time.
#[derive(Clone, Copy, Debug)]
pub struct LinkSpec {
    /// Line rate (serialization speed), e.g. 40 Gbps in the paper testbed.
    pub rate: Rate,
    /// One-way propagation delay. Data-center ToR-to-server cables are short;
    /// the default scenario uses 300 ns (~60 m of fiber plus PHY latency).
    pub propagation: TimeDelta,
    /// Fault injection for this link.
    pub faults: FaultSpec,
    /// Optional distinct rate for the B→A direction (`None` = symmetric).
    /// Fabric topologies use this for per-direction bandwidth — e.g. an
    /// oversubscribed downlink paired with a full-rate uplink.
    pub reverse_rate: Option<Rate>,
}

impl LinkSpec {
    /// A fault-free link at `rate` with the given propagation delay.
    pub fn new(rate: Rate, propagation: TimeDelta) -> LinkSpec {
        LinkSpec {
            rate,
            propagation,
            faults: FaultSpec::NONE,
            reverse_rate: None,
        }
    }

    /// An asymmetric fault-free link: `rate` serializes A→B traffic,
    /// `reverse` serializes B→A.
    pub fn asymmetric(rate: Rate, reverse: Rate, propagation: TimeDelta) -> LinkSpec {
        LinkSpec {
            rate,
            propagation,
            faults: FaultSpec::NONE,
            reverse_rate: Some(reverse),
        }
    }

    /// The serialization rate for traffic leaving link end `end` (0 = the
    /// `a` side of `connect`, 1 = the `b` side).
    pub fn rate_from(&self, end: usize) -> Rate {
        if end == 1 {
            self.reverse_rate.unwrap_or(self.rate)
        } else {
            self.rate
        }
    }

    /// The standard testbed link: 40 Gbps, 300 ns propagation.
    pub fn testbed_40g() -> LinkSpec {
        LinkSpec::new(Rate::from_gbps(40), TimeDelta::from_nanos(300))
    }
}

/// One endpoint of a link: which node and which of its ports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Endpoint {
    /// The attached node.
    pub node: NodeId,
    /// The node-local port index.
    pub port: PortId,
}

/// Per-direction delivery statistics, kept by the engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets handed to the link for transmission.
    pub tx_packets: u64,
    /// Bytes handed to the link for transmission.
    pub tx_bytes: u64,
    /// Packets delivered to the far end.
    pub delivered_packets: u64,
    /// Bytes delivered to the far end.
    pub delivered_bytes: u64,
    /// Packets dropped by fault injection.
    pub dropped_packets: u64,
    /// Packets corrupted by fault injection (still delivered).
    pub corrupted_packets: u64,
    /// Packets delayed by reorder injection (still delivered).
    pub reordered_packets: u64,
    /// Extra copies delivered by duplicate injection.
    pub duplicated_packets: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_spec_defaults_and_validation() {
        assert!(!FaultSpec::default().is_active());
        FaultSpec::NONE.validate();
        let f = FaultSpec {
            drop_prob: 0.1,
            corrupt_prob: 0.0,
            ..FaultSpec::NONE
        };
        assert!(f.is_active());
        f.validate();
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn invalid_probability_panics() {
        FaultSpec {
            drop_prob: 1.5,
            corrupt_prob: 0.0,
            ..FaultSpec::NONE
        }
        .validate();
    }

    #[test]
    fn testbed_link_matches_paper() {
        let l = LinkSpec::testbed_40g();
        assert_eq!(l.rate, Rate::from_gbps(40));
        assert_eq!(l.propagation, TimeDelta::from_nanos(300));
        assert!(!l.faults.is_active());
    }
}
