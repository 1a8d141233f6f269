//! Packet traces and the determinism digest.
//!
//! The digest is kept **per link direction** rather than as one global
//! rolling hash. Deliveries on one direction are recorded at transmit time,
//! in transmit order — a sequence that is a function of the simulation
//! alone, not of how the event loop interleaves work — so each direction's
//! rolling fold is reproducible even when partitions dispatch concurrently.
//! [`TraceSink::combined_digest`] then folds the per-direction digests in a
//! fixed canonical order (ascending direction id), which is what makes the
//! wheel, heap, and parallel backends produce bit-identical fingerprints.
//!
//! Every fold is [`fold_word`], the round the content digest is made of. A
//! direction's two endpoints never change, so they are folded into its
//! state once, when the sink is built; a delivery then costs three rounds
//! (time, length, content digest). It runs on every delivered packet of
//! every run, traced or not: after the content digest itself it is the
//! determinism guarantee's whole host-time cost.

use crate::link::Endpoint;
use extmem_types::Time;
use extmem_wire::packet::fold_word;

/// One delivered packet, as seen by the trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Delivery time at the receiver.
    pub at: Time,
    /// Transmitting endpoint.
    pub from: Endpoint,
    /// Receiving endpoint.
    pub to: Endpoint,
    /// Packet length in bytes.
    pub len: usize,
    /// Content digest ([`extmem_wire::Packet::digest`] of the delivered
    /// bytes).
    pub digest: u64,
}

/// FNV-1a offset basis; every fold starts here.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One link direction's rolling state.
struct DirTrace {
    from: Endpoint,
    to: Endpoint,
    digest: u64,
    count: u64,
    events: Vec<TraceEvent>,
}

/// Collects trace events and maintains per-direction rolling digests.
///
/// The digests are always maintained; full event recording is opt-in
/// because it grows with traffic volume. In a partitioned simulation each
/// partition owns the sink entries for the link directions it transmits
/// on; the engine folds them canonically at read time.
pub struct TraceSink {
    record: bool,
    dirs: Vec<DirTrace>,
}

impl TraceSink {
    /// A sink that only maintains digests, with one direction per
    /// `(from, to)` pair of `ends`, in direction-id order.
    pub fn disabled(ends: impl IntoIterator<Item = (Endpoint, Endpoint)>) -> TraceSink {
        let word = |e: Endpoint| (e.node.raw() as u64) << 16 | e.port.raw() as u64;
        let dirs = ends.into_iter().map(|(from, to)| DirTrace {
            from,
            to,
            digest: [word(from), word(to)]
                .into_iter()
                .fold(FNV_OFFSET, fold_word),
            count: 0,
            events: Vec::new(),
        });
        TraceSink {
            record: false,
            dirs: dirs.collect(),
        }
    }

    /// A sink that also records every event.
    pub fn recording(ends: impl IntoIterator<Item = (Endpoint, Endpoint)>) -> TraceSink {
        TraceSink {
            record: true,
            ..TraceSink::disabled(ends)
        }
    }

    /// Fold one delivery on direction `dir` into its rolling digest. This
    /// is the hot path (it runs on every delivered packet): three rounds, no
    /// allocation, and when recording is disabled no [`TraceEvent`] is ever
    /// materialized; a recorded one takes its endpoints from the pair the
    /// sink was built with.
    pub fn record_delivery(&mut self, dir: usize, at: Time, len: usize, digest: u64) {
        let d = &mut self.dirs[dir];
        d.digest = [at.picos(), len as u64, digest]
            .into_iter()
            .fold(d.digest, fold_word);
        d.count += 1;
        if self.record {
            d.events.push(TraceEvent {
                at,
                from: d.from,
                to: d.to,
                len,
                digest,
            });
        }
    }

    /// Recorded events for one direction (empty unless recording).
    pub fn dir_events(&self, dir: usize) -> &[TraceEvent] {
        &self.dirs[dir].events
    }

    /// The rolling digest and delivery count of one direction.
    pub fn dir_digest(&self, dir: usize) -> (u64, u64) {
        (self.dirs[dir].digest, self.dirs[dir].count)
    }

    /// Fold per-direction digests in canonical (ascending direction id)
    /// order into one fingerprint. `pick` maps each direction id to the
    /// sink owning it — in a partitioned engine, the transmitting
    /// partition's sink; in a single-partition engine, always the same one.
    pub fn combined_digest<'a>(dirs: usize, pick: impl Fn(usize) -> &'a TraceSink) -> u64 {
        (0..dirs).fold(FNV_OFFSET, |acc, dir| {
            let (digest, count) = pick(dir).dir_digest(dir);
            [digest, count].into_iter().fold(acc, fold_word)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extmem_types::{NodeId, PortId};

    fn end(node: u32) -> Endpoint {
        Endpoint {
            node: NodeId(node),
            port: PortId(0),
        }
    }

    /// `dirs` directions, all running node 0 -> node 1 (what [`ev`] says).
    fn ends(dirs: usize) -> Vec<(Endpoint, Endpoint)> {
        vec![(end(0), end(1)); dirs]
    }

    fn ev(t: u64, d: u64) -> TraceEvent {
        TraceEvent {
            at: Time::from_picos(t),
            from: end(0),
            to: end(1),
            len: 64,
            digest: d,
        }
    }

    fn record(sink: &mut TraceSink, dir: usize, e: TraceEvent) {
        sink.record_delivery(dir, e.at, e.len, e.digest);
    }

    #[test]
    fn digest_depends_on_order_and_content() {
        let mut a = TraceSink::disabled(ends(2));
        record(&mut a, 0, ev(1, 10));
        record(&mut a, 0, ev(2, 20));
        let mut b = TraceSink::disabled(ends(2));
        record(&mut b, 0, ev(2, 20));
        record(&mut b, 0, ev(1, 10));
        assert_ne!(a.dir_digest(0), b.dir_digest(0));

        let mut c = TraceSink::disabled(ends(2));
        record(&mut c, 0, ev(1, 10));
        record(&mut c, 0, ev(2, 20));
        assert_eq!(a.dir_digest(0), c.dir_digest(0));
    }

    #[test]
    fn combined_digest_separates_directions() {
        // The same deliveries on different directions must not collide.
        let mut a = TraceSink::disabled(ends(2));
        record(&mut a, 0, ev(1, 10));
        let mut b = TraceSink::disabled(ends(2));
        record(&mut b, 1, ev(1, 10));
        let da = TraceSink::combined_digest(2, |_| &a);
        let db = TraceSink::combined_digest(2, |_| &b);
        assert_ne!(da, db);
    }

    #[test]
    fn combined_digest_is_fold_order_stable() {
        // Folding the same per-direction state from two sinks (as the
        // partitioned engine does) equals folding it from one.
        let mut whole = TraceSink::disabled(ends(2));
        record(&mut whole, 0, ev(1, 10));
        record(&mut whole, 1, ev(2, 20));
        let mut p0 = TraceSink::disabled(ends(2));
        record(&mut p0, 0, ev(1, 10));
        let mut p1 = TraceSink::disabled(ends(2));
        record(&mut p1, 1, ev(2, 20));
        let split = TraceSink::combined_digest(2, |d| if d == 0 { &p0 } else { &p1 });
        assert_eq!(TraceSink::combined_digest(2, |_| &whole), split);
    }

    #[test]
    fn a_directions_endpoints_are_part_of_its_digest() {
        // The endpoints are folded when the sink is built, not per delivery:
        // sinks fed the same (at, len, digest) stream must still tell apart
        // every pair of endpoints — reversed, another node, another port.
        let port1 = Endpoint {
            node: NodeId(1),
            port: PortId(1),
        };
        let pairs = [
            (end(0), end(1)),
            (end(1), end(0)),
            (end(0), end(2)),
            (end(0), port1),
        ];
        let run = |mut sink: TraceSink| {
            record(&mut sink, 0, ev(1, 10));
            record(&mut sink, 0, ev(2, 20));
            sink.dir_digest(0)
        };
        let digests = pairs.map(|pair| run(TraceSink::disabled([pair])));
        for (i, d) in digests.iter().enumerate() {
            assert!(!digests[..i].contains(d), "{:?} collides", pairs[i]);
            assert_eq!(*d, run(TraceSink::recording([pairs[i]])));
        }
    }

    #[test]
    fn recording_flag_controls_storage_not_digest() {
        let mut rec = TraceSink::recording(ends(1));
        let mut dis = TraceSink::disabled(ends(1));
        record(&mut rec, 0, ev(5, 7));
        record(&mut dis, 0, ev(5, 7));
        assert_eq!(rec.dir_events(0), [ev(5, 7)], "endpoints from the sink");
        assert_eq!(dis.dir_events(0).len(), 0);
        assert_eq!(rec.dir_digest(0), dis.dir_digest(0));
    }
}
