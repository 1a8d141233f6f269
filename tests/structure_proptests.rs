//! Property-based tests for the switch-side data structures and the sketch
//! estimators, checked against reference models.

use extmem_core::sketch::{estimate, SketchGeometry, SketchKind};
use extmem_core::trace_store::{TraceRecord, RECORD_LEN};
use extmem_switch::hash::{flow_sign, salted_flow_index};
use extmem_switch::table::{ExactMatchTable, Replacement};
use extmem_switch::{ChoiceFilter, RegisterArray};
use extmem_types::{FiveTuple, Time};
use proptest::prelude::*;
use std::collections::HashMap;

/// Reference LRU: a map plus an explicit recency list.
struct ModelLru {
    cap: usize,
    entries: Vec<(u32, u64)>, // most-recent last
}

impl ModelLru {
    fn lookup(&mut self, k: u32) -> Option<u64> {
        let pos = self.entries.iter().position(|&(ek, _)| ek == k)?;
        let e = self.entries.remove(pos);
        self.entries.push(e);
        Some(e.1)
    }

    fn insert(&mut self, k: u32, v: u64) {
        if let Some(pos) = self.entries.iter().position(|&(ek, _)| ek == k) {
            self.entries.remove(pos);
        } else if self.entries.len() >= self.cap {
            self.entries.remove(0); // least recently used
        }
        self.entries.push((k, v));
    }
}

proptest! {
    /// The LRU table behaves exactly like the reference model for any
    /// interleaving of lookups and inserts.
    #[test]
    fn lru_table_matches_reference_model(
        cap in 1usize..12,
        ops in proptest::collection::vec((any::<bool>(), 0u32..24, any::<u64>()), 1..300),
    ) {
        let mut real: ExactMatchTable<u32, u64> = ExactMatchTable::new(cap, Replacement::Lru);
        let mut model = ModelLru { cap, entries: Vec::new() };
        for (is_insert, k, v) in ops {
            if is_insert {
                prop_assert!(real.insert(k, v), "LRU insert can never fail");
                model.insert(k, v);
            } else {
                let got = real.lookup(&k).copied();
                let want = model.lookup(k);
                prop_assert_eq!(got, want, "lookup({}) diverged", k);
            }
            prop_assert_eq!(real.len(), model.entries.len());
        }
    }

    /// Register-array ops agree with plain u64 arithmetic.
    #[test]
    fn register_array_matches_scalar_model(
        size in 1usize..16,
        ops in proptest::collection::vec((0u8..4, any::<prop::sample::Index>(), any::<u64>()), 1..200),
    ) {
        let mut real = RegisterArray::new("prop", size);
        let mut model = vec![0u64; size];
        for (op, idx, v) in ops {
            let i = idx.index(size);
            match op {
                0 => {
                    real.write(i, v);
                    model[i] = v;
                }
                1 => prop_assert_eq!(real.add(i, v), {
                    model[i] = model[i].wrapping_add(v);
                    model[i]
                }),
                2 => prop_assert_eq!(real.exchange(i, v), {
                    let old = model[i];
                    model[i] = v;
                    old
                }),
                _ => prop_assert_eq!(real.read(i), model[i]),
            }
        }
        prop_assert_eq!(real.sum(), model.iter().fold(0u64, |a, &b| a.wrapping_add(b)));
    }

    /// Count-Min never underestimates, for arbitrary flow multisets.
    #[test]
    fn count_min_never_underestimates(
        flows in proptest::collection::vec((0u32..64, 1u64..50), 1..40),
        rows in 2u32..6,
        cols in 16u64..256,
    ) {
        let g = SketchGeometry { rows, cols };
        let mut counters = vec![0u64; (rows as u64 * cols) as usize];
        let mut truth: HashMap<u32, u64> = HashMap::new();
        for &(f, n) in &flows {
            *truth.entry(f).or_insert(0) += n;
            let ft = key(f);
            for row in 0..rows {
                counters[g.slot(row, &ft) as usize] += n;
            }
        }
        for (&f, &n) in &truth {
            let est = estimate(SketchKind::CountMin, &g, &counters, &key(f));
            prop_assert!(est >= n as i64, "flow {} est {} < truth {}", f, est, n);
        }
    }

    /// Count Sketch applied to a single flow returns it exactly
    /// (sign * sign = 1 in every row).
    #[test]
    fn count_sketch_single_flow_is_exact(f in 0u32..1000, n in 1u64..1000) {
        let g = SketchGeometry { rows: 5, cols: 64 };
        let mut counters = vec![0u64; (5 * 64) as usize];
        let ft = key(f);
        for row in 0..5 {
            let v = flow_sign(&ft, row) as u64;
            let slot = g.slot(row, &ft) as usize;
            for _ in 0..n {
                counters[slot] = counters[slot].wrapping_add(v);
            }
        }
        prop_assert_eq!(estimate(SketchKind::CountSketch, &g, &counters, &ft), n as i64);
    }

    /// Trace records round-trip for arbitrary field values.
    #[test]
    fn trace_record_roundtrip(
        seq: u64,
        ps: u64,
        src: u32,
        dst: u32,
        sp: u16,
        dp: u16,
        proto: u8,
        len: u16,
    ) {
        let r = TraceRecord {
            seq,
            at: Time::from_picos(ps),
            flow: FiveTuple::new(src, dst, sp, dp, proto),
            frame_len: len,
        };
        let b = r.to_bytes();
        prop_assert_eq!(b.len(), RECORD_LEN);
        prop_assert_eq!(TraceRecord::from_bytes(&b), r);
    }

    /// Salted row hashes resolve (almost all) single-salt collisions and
    /// stay in range.
    #[test]
    fn salted_hashes_are_bounded_and_salt_sensitive(a in 0u32..5000, b2 in 0u32..5000, cols in 8u64..512) {
        prop_assume!(a != b2);
        let (fa, fb) = (key(a), key(b2));
        for salt in 0..4 {
            prop_assert!(salted_flow_index(&fa, salt, cols) < cols);
        }
        // If they collide under every one of 6 salts, something is linear.
        let all_collide = (0..6).all(|s| {
            salted_flow_index(&fa, s, cols) == salted_flow_index(&fb, s, cols)
        });
        prop_assert!(!all_collide, "flows {:?} vs {:?} collide under all salts", fa, fb);
    }
}

/// Remote-LPM layout vs a reference software LPM: for random route sets
/// and random addresses, reading the rung arrays longest-first must agree
/// with the obvious longest-prefix scan (hash collisions avoided by sizing
/// the rungs generously and skipping colliding route sets).
mod lpm_model {
    use extmem_apps::scenario::Testbed;
    use extmem_core::lookup::{ActionEntry, ActionKind, ACTION_LEN};
    use extmem_core::lpm::{install_remote_route, mask, slots_per_level};
    use extmem_rnic::RnicConfig;
    use extmem_sim::LinkSpec;
    use extmem_switch::hash::hash_to_index;
    use extmem_types::ByteSize;
    use proptest::prelude::*;

    const LEVELS: [u8; 3] = [32, 24, 16];

    fn rung_key(level: u8, dst: u32) -> [u8; 5] {
        let mut k = [0u8; 5];
        k[0] = level;
        k[1..5].copy_from_slice(&mask(dst, level).to_be_bytes());
        k
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]
        #[test]
        fn remote_layout_agrees_with_reference_lpm(
            routes in proptest::collection::vec(
                (any::<u32>(), prop::sample::select(vec![32u8, 24, 16]), 1u8..63),
                1..12,
            ),
            probes in proptest::collection::vec(any::<u32>(), 1..24),
        ) {
            // Control plane only: the testbed is never built or run.
            let mut tb = Testbed::new(0);
            let region = ByteSize::from_mb(2);
            let (srv, channel) = tb.server(RnicConfig::default(), region, LinkSpec::testbed_40g());
            let nic = tb.nic_mut(srv);
            let spl = slots_per_level(region.bytes(), &LEVELS);

            // Skip route sets with intra-rung slot collisions between
            // *different* prefixes (direct-indexed tables can't hold both).
            let mut slot_owner: std::collections::HashMap<(u8, u64), u32> = Default::default();
            let mut deduped: Vec<(u32, u8, u8)> = Vec::new();
            for &(p, l, d) in &routes {
                let m = mask(p, l);
                let slot = hash_to_index(&rung_key(l, m), spl);
                match slot_owner.get(&(l, slot)) {
                    Some(&owner) if owner != m => prop_assume!(false),
                    Some(_) => {} // same prefix re-installed: last write wins
                    None => {
                        slot_owner.insert((l, slot), m);
                    }
                }
                deduped.push((m, l, d));
            }
            for &(m, l, d) in &deduped {
                install_remote_route(nic, &channel, &LEVELS, spl, m, l, ActionEntry::set_dscp(d));
            }

            for &addr in &probes {
                // Reference: longest prefix among installed routes.
                let expect = LEVELS
                    .iter()
                    .filter_map(|&l| {
                        deduped
                            .iter()
                            .rev() // last install wins
                            .find(|&&(m, rl, _)| rl == l && mask(addr, l) == m)
                            .map(|&(_, _, d)| d)
                    })
                    .next();
                // "Data plane": read the rung arrays longest-first.
                let got = LEVELS.iter().enumerate().find_map(|(i, &l)| {
                    let slot = hash_to_index(&rung_key(l, addr), spl);
                    let va = channel.base_va
                        + (i as u64 * spl + slot) * ACTION_LEN as u64;
                    let b = nic.region(channel.rkey).read(va, ACTION_LEN as u64).unwrap();
                    let a = ActionEntry::from_bytes(b.try_into().unwrap());
                    (a.kind != ActionKind::None).then_some(a.dscp)
                });
                // A probe may alias an installed slot by hash collision;
                // only require agreement when the reference has an answer
                // or the slot scan found nothing (false positives from
                // collisions are an accepted property of direct-indexed
                // tables, filtered here).
                match (expect, got) {
                    (Some(e), Some(g)) => prop_assert_eq!(e, g, "wrong rung for {:#x}", addr),
                    (Some(_), None) => prop_assert!(false, "missed route for {:#x}", addr),
                    _ => {}
                }
            }
        }
    }
}

fn key(f: u32) -> FiveTuple {
    FiveTuple::new(
        0x0a00_0000 + f,
        0x0a63_0001,
        (2000 + f % 30000) as u16,
        80,
        17,
    )
}

mod event_queue {
    use extmem_sim::event::{EventKind, EventQueue};
    use extmem_types::{NodeId, Time};
    use proptest::prelude::*;

    /// Reference model: a plain sorted list popped at the `(at, seq)`
    /// minimum — the total order the indexed queue must preserve exactly.
    #[derive(Default)]
    struct ModelQueue {
        pending: Vec<(Time, u64, u64)>, // (at, seq, token)
        next_seq: u64,
    }

    impl ModelQueue {
        fn push(&mut self, at: Time, token: u64) {
            self.pending.push((at, self.next_seq, token));
            self.next_seq += 1;
        }

        fn pop(&mut self) -> Option<(Time, u64, u64)> {
            let min = self
                .pending
                .iter()
                .enumerate()
                .min_by_key(|(_, &(at, seq, _))| (at, seq))?
                .0;
            Some(self.pending.remove(min))
        }

        /// Drop the pending event carrying `token`, as cancelling its timer
        /// does; `false` once it has popped.
        fn remove(&mut self, token: u64) -> bool {
            let Some(i) = self.pending.iter().position(|p| p.2 == token) else {
                return false;
            };
            self.pending.remove(i);
            true
        }
    }

    fn timer(token: u64) -> EventKind {
        EventKind::Timer {
            node: NodeId(0),
            token,
        }
    }

    fn token_of(kind: EventKind) -> u64 {
        let EventKind::Timer { token, .. } = kind else {
            panic!("queue returned a non-timer event");
        };
        token
    }

    /// Pop one event from each and check they agree; returns the pop time.
    fn pop_both(q: &mut EventQueue, model: &mut ModelQueue) -> Result<Option<Time>, TestCaseError> {
        match (q.pop(), model.pop()) {
            (None, None) => Ok(None),
            (Some(got), Some((at, seq, tok))) => {
                prop_assert_eq!((got.at, got.seq), (at, seq));
                prop_assert_eq!(token_of(got.kind), tok);
                Ok(Some(at))
            }
            (a, b) => Err(TestCaseError::fail(format!(
                "emptiness diverged: queue={} model={}",
                a.is_some(),
                b.is_some()
            ))),
        }
    }

    /// Picoseconds per wheel granule.
    const GRANULE: u64 = 4096;

    /// A time in one of the wheel's regimes, counted from `now` (the last
    /// popped time, whose granule the cursor has reached): the granule of
    /// `now` itself (forced ties), inside the 256-granule ring, 255, 256 or
    /// 257 granules ahead (the far boundary), far, and very far.
    fn time_for(class: u8, r: u64, now: Time) -> Time {
        let base = now.picos() / GRANULE * GRANULE;
        let ahead = match class % 5 {
            0 => r % GRANULE,
            1 => r % (256 * GRANULE),
            2 => (255 + r % 3) * GRANULE + (r >> 2) % GRANULE,
            3 => 1_000_000 + r % 500_000_000,          // 1 us .. 0.5 ms
            _ => 1_000_000_000_000 * (1 + r % 3) + r % GRANULE, // seconds
        };
        Time::from_picos(base + ahead)
    }

    /// [`time_for`], plus a sixth regime: the granule of a pending event —
    /// its very instant or another one in it — so that a key pushed after
    /// the cursor moved on ties with one that went far before it did.
    fn model_time(class: u8, r: u64, now: Time, model: &ModelQueue) -> Time {
        if class % 6 != 5 || model.pending.is_empty() {
            return time_for(class, r, now);
        }
        let at = model.pending[(r as usize) % model.pending.len()].0.picos();
        let same_granule = at / GRANULE * GRANULE + (r >> 1) % GRANULE;
        Time::from_picos(if r & 1 == 0 { at } else { same_granule })
    }

    proptest! {
        /// Any interleaving of pushes (with deliberately colliding times)
        /// and pops yields the identical pop sequence — times, seqs, and
        /// payload tokens — from the slab-indexed queue and the reference.
        #[test]
        fn indexed_queue_matches_reference_pop_order(
            ops in proptest::collection::vec((any::<bool>(), 0u64..8), 1..400),
        ) {
            let mut q = EventQueue::new();
            let mut model = ModelQueue::default();
            let mut token = 0u64;
            for (push, t) in ops {
                if push {
                    // Times drawn from 8 values force heavy (at,) ties so
                    // the seq tie-break is actually exercised.
                    q.push(Time::from_nanos(t), timer(token));
                    model.push(Time::from_nanos(t), token);
                    token += 1;
                } else {
                    pop_both(&mut q, &mut model)?;
                }
            }
            // Drain both: the tails must agree too.
            while pop_both(&mut q, &mut model)?.is_some() {}
            prop_assert!(q.is_empty());
        }

        /// The production queue against the reference model across the
        /// ring's edge: pushes 255/256/257 granules past the last pop, far
        /// keys joined later by near ones in the same granule (same instant
        /// or not), and cancel-then-reschedule, interleaved with pops.
        #[test]
        fn queue_matches_model_across_the_ring_boundary(
            ops in proptest::collection::vec((0u8..4, any::<u8>(), any::<u64>()), 1..400),
        ) {
            let mut q = EventQueue::new();
            let mut model = ModelQueue::default();
            let mut handles = Vec::new();
            let mut now = Time::ZERO;
            let mut token = 0u64;
            for (kind, class, r) in ops {
                let at = model_time(class, r, now, &model);
                match kind {
                    0 => {
                        q.push(at, timer(token));
                        model.push(at, token);
                        token += 1;
                    }
                    1 => {
                        handles.push((q.push_timer(at, NodeId(0), token), token));
                        model.push(at, token);
                        token += 1;
                    }
                    // Cancel a random handle (stale once it fired), then
                    // re-arm at another time.
                    2 if !handles.is_empty() => {
                        let (h, tok) = handles.remove((r as usize) % handles.len());
                        prop_assert_eq!(q.cancel(h), model.remove(tok));
                        let at = model_time(class.wrapping_add(1), r ^ 0x5555, now, &model);
                        handles.push((q.push_timer(at, NodeId(0), token), token));
                        model.push(at, token);
                        token += 1;
                    }
                    _ => {
                        if let Some(at) = pop_both(&mut q, &mut model)? {
                            now = at;
                        }
                    }
                }
            }
            while pop_both(&mut q, &mut model)?.is_some() {}
            prop_assert!(q.is_empty());
        }
    }

    use extmem_sim::{with_sched_backend, SchedBackend};

    /// Run one op script against a chosen scheduler backend and log every
    /// observable: pop results (time, seq, token), pop-empty, and cancel
    /// outcomes. Equal logs ⇒ the backends are observationally identical.
    fn run_script(backend: SchedBackend, ops: &[(u8, u8, u64)]) -> Vec<(u64, u64, u64)> {
        with_sched_backend(backend, || {
            let mut q = EventQueue::new();
            let mut handles = Vec::new();
            let mut log = Vec::new();
            let mut now = Time::ZERO;
            let mut token = 0u64;
            for &(kind, class, r) in ops {
                match kind % 4 {
                    // Plain push (no handle kept).
                    0 => {
                        q.push(time_for(class, r, now), timer(token));
                        token += 1;
                    }
                    // Cancellable push.
                    1 => {
                        handles.push(q.push_timer(time_for(class, r, now), NodeId(0), token));
                        token += 1;
                    }
                    // Cancel-then-reschedule: revoke a random live handle
                    // (possibly already fired — then a stale no-op) and
                    // immediately re-arm at a different time.
                    2 if !handles.is_empty() => {
                        let h = handles.remove((r as usize) % handles.len());
                        let cancelled = q.cancel(h);
                        log.push((u64::MAX, cancelled as u64, u64::MAX));
                        handles.push(q.push_timer(
                            time_for(class.wrapping_add(1), r ^ 0x5555, now),
                            NodeId(0),
                            token,
                        ));
                        token += 1;
                    }
                    _ => match q.pop() {
                        Some(s) => {
                            now = s.at;
                            log.push((s.at.picos(), s.seq, token_of(s.kind)));
                        }
                        None => log.push((0, 0, u64::MAX - 1)),
                    },
                }
            }
            while let Some(s) = q.pop() {
                log.push((s.at.picos(), s.seq, token_of(s.kind)));
            }
            log
        })
    }

    proptest! {
        /// The timing wheel and the binary-heap oracle are observationally
        /// identical for any interleaving of pushes across every wheel
        /// regime — same-granule ties, the ring, its far boundary, far and
        /// very far keys — plus pops and cancel-then-reschedule.
        #[test]
        fn wheel_matches_heap_oracle(
            ops in proptest::collection::vec((0u8..8, any::<u8>(), any::<u64>()), 1..400),
        ) {
            let wheel = run_script(SchedBackend::Wheel, &ops);
            let heap = run_script(SchedBackend::Heap, &ops);
            prop_assert_eq!(wheel, heap);
        }

        /// Far-future events only: everything lands in the far heap and
        /// must still drain in exact (at, seq) order on both backends.
        #[test]
        fn far_future_overflow_matches_oracle(
            times in proptest::collection::vec(0u64..10_000, 1..200),
        ) {
            let ops: Vec<(u8, u8, u64)> = times
                .iter()
                .map(|&t| (1u8, 3 + (t % 2) as u8, t))
                .collect();
            let wheel = run_script(SchedBackend::Wheel, &ops);
            let heap = run_script(SchedBackend::Heap, &ops);
            prop_assert_eq!(wheel, heap);
        }
    }
}

/// Unwatched transmit completions against the always-watched contract: a
/// sender queueing through `TxQueue`, whose starts onto an idle port are
/// unwatched, and one queueing for itself with `start_tx` must put the same
/// frames on the wire at the same instants and read their port the same at
/// every callback both receive.
mod tx_completions {
    use extmem_sim::{LinkSpec, Node, NodeCtx, SimBuilder, TraceEvent, TxQueue};
    use extmem_types::{PortId, Rate, Time, TimeDelta};
    use extmem_wire::Packet;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// One timer firing: these frames back to back, then the next step
    /// this many nanoseconds later.
    type Step = (Vec<usize>, u64);

    enum Queue {
        Tx(TxQueue),
        Own(VecDeque<Packet>),
    }

    /// Sends its script to port 0 and echoes nothing; logs `tx_busy(0)` at
    /// each timer, after each send, and at each arrival.
    struct Sender {
        steps: Vec<Step>,
        next: usize,
        queue: Queue,
        log: Vec<(Time, bool)>,
    }

    impl Sender {
        fn note(&mut self, ctx: &NodeCtx<'_>) {
            self.log.push((ctx.now(), ctx.tx_busy(PortId(0))));
        }

        fn send(&mut self, ctx: &mut NodeCtx<'_>, pkt: Packet) {
            match &mut self.queue {
                Queue::Tx(q) => {
                    q.send(ctx, pkt);
                }
                Queue::Own(q) if ctx.tx_busy(PortId(0)) => q.push_back(pkt),
                Queue::Own(_) => ctx.start_tx(PortId(0), pkt),
            }
        }
    }

    impl Node for Sender {
        fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _: PortId, _: Packet) {
            self.note(ctx);
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _: u64) {
            let (frames, gap) = self.steps[self.next].clone();
            self.next += 1;
            self.note(ctx);
            for len in frames {
                self.send(ctx, Packet::zeroed(len));
                self.note(ctx);
            }
            if self.next < self.steps.len() {
                ctx.schedule(TimeDelta::from_nanos(gap), 0);
            }
        }
        fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, _: PortId) {
            match &mut self.queue {
                Queue::Tx(q) => q.on_tx_done(ctx),
                Queue::Own(q) => {
                    if let Some(pkt) = q.pop_front() {
                        ctx.start_tx(PortId(0), pkt);
                    }
                }
            }
        }
        fn name(&self) -> &str {
            "sender"
        }
    }

    /// Echoes every frame back with `start_tx`, so the sender also reads
    /// its port at deliveries, some of them at its completion instants.
    struct Echo {
        queue: VecDeque<Packet>,
    }

    impl Node for Echo {
        fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: PortId, pkt: Packet) {
            if ctx.tx_busy(port) {
                self.queue.push_back(pkt);
            } else {
                ctx.start_tx(port, pkt);
            }
        }
        fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, port: PortId) {
            if let Some(pkt) = self.queue.pop_front() {
                ctx.start_tx(port, pkt);
            }
        }
        fn name(&self) -> &str {
            "echo"
        }
    }

    /// The delivery trace, the sender's readings, the end time and the
    /// event count of one run.
    fn run(
        steps: &[Step],
        gbps: u64,
        prop_ns: u64,
        queue: Queue,
    ) -> (Vec<TraceEvent>, Vec<(Time, bool)>, Time, u64) {
        let mut b = SimBuilder::new(3);
        b.keep_trace(true);
        let sender = b.add_node(Box::new(Sender {
            steps: steps.to_vec(),
            next: 0,
            queue,
            log: Vec::new(),
        }));
        let echo = b.add_node(Box::new(Echo {
            queue: VecDeque::new(),
        }));
        let spec = LinkSpec::new(Rate::from_gbps(gbps), TimeDelta::from_nanos(prop_ns));
        b.connect(sender, PortId(0), echo, PortId(0), spec);
        let mut sim = b.build();
        sim.schedule_timer(sender, TimeDelta::ZERO, 0);
        let events = sim.run_to_quiescence();
        let log = std::mem::take(&mut sim.node_mut::<Sender>(sender).log);
        (sim.trace(), log, sim.now(), events)
    }

    fn frame_len() -> impl Strategy<Value = usize> {
        prop_oneof![Just(0usize), 1usize..1600]
    }

    fn gap_ns() -> impl Strategy<Value = u64> {
        prop_oneof![Just(0u64), 0u64..400]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        #[test]
        fn unwatched_completions_change_nothing_but_events(
            steps in proptest::collection::vec(
                (proptest::collection::vec(frame_len(), 0..4), gap_ns()),
                1..24,
            ),
            gbps in prop::sample::select(vec![10u64, 40, 100]),
            prop_ns in prop_oneof![Just(0u64), 1u64..400],
        ) {
            let tx = run(&steps, gbps, prop_ns, Queue::Tx(TxQueue::new(PortId(0))));
            let own = run(&steps, gbps, prop_ns, Queue::Own(VecDeque::new()));
            prop_assert_eq!(&tx.0, &own.0, "delivery traces differ");
            prop_assert_eq!(&tx.1, &own.1, "tx_busy readings differ");
            prop_assert_eq!(tx.2, own.2, "quiescence instants differ");
            prop_assert!(tx.3 <= own.3, "more events with unwatched completions");
        }
    }
}

/// The conservative parallel engine on random topologies: the lookahead
/// safety margin must never collapse, and the trace must be bit-identical
/// to the sequential wheel for any shape, propagation mix, and thread
/// count.
mod parallel_engine {
    use extmem_apps::workload::{SinkNode, TrafficGenNode, WorkloadSpec};
    use extmem_sim::{with_sched_backend, LinkSpec, SchedBackend, SimBuilder};
    use extmem_types::{FiveTuple, PortId, Rate, TimeDelta};
    use extmem_wire::MacAddr;
    use proptest::prelude::*;

    /// One generator→sink pair with its own frame count, size, and link
    /// propagation delay (always ≥ 1 ps — the lookahead precondition).
    #[derive(Clone, Copy, Debug)]
    struct Pair {
        count: u64,
        frame_len: usize,
        prop_ns: u64,
        gbps: u64,
    }

    fn pair_strategy() -> impl Strategy<Value = Pair> {
        (1u64..30, 64usize..1200, 1u64..1000, 1u64..40).prop_map(
            |(count, frame_len, prop_ns, gbps)| Pair {
                count,
                frame_len,
                prop_ns,
                gbps,
            },
        )
    }

    /// Build the topology with all generators first and all sinks last.
    /// The partitioner keeps a generator with its sink while it can: with
    /// more worker threads than pairs it cannot, every node is dealt out
    /// singly and each gen→sink link is a cross-partition channel — the
    /// premise the caller states with `splits`. Returns digest, events,
    /// packets, the parallel counters and how many pairs were split.
    fn run(
        pairs: &[Pair],
        seed: u64,
        threads: usize,
    ) -> (u64, u64, u64, extmem_sim::ParStats, usize) {
        with_sched_backend(SchedBackend::Parallel(threads), || {
            let mut b = SimBuilder::new(seed);
            let gens: Vec<_> = pairs
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let flow = FiveTuple::new(
                        0x0a00_0001 + i as u32,
                        0x0a00_1001 + i as u32,
                        4000 + i as u16,
                        9000,
                        17,
                    );
                    b.add_node(Box::new(TrafficGenNode::new(
                        format!("gen{i}"),
                        WorkloadSpec::simple(
                            MacAddr::local(1 + i as u32),
                            MacAddr::local(101 + i as u32),
                            flow,
                            p.frame_len,
                            Rate::from_gbps(p.gbps),
                            p.count,
                        ),
                    )))
                })
                .collect();
            let sinks: Vec<_> = (0..pairs.len())
                .map(|i| b.add_node(Box::new(SinkNode::new(format!("sink{i}")))))
                .collect();
            for (i, p) in pairs.iter().enumerate() {
                b.connect(
                    gens[i],
                    PortId(0),
                    sinks[i],
                    PortId(0),
                    LinkSpec::new(
                        Rate::from_gbps(p.gbps),
                        TimeDelta::from_nanos(p.prop_ns),
                    ),
                );
            }
            let mut sim = b.build();
            for &g in &gens {
                sim.schedule_timer(g, TimeDelta::ZERO, TrafficGenNode::KICK_TOKEN);
            }
            sim.run_to_quiescence();
            for (i, p) in pairs.iter().enumerate() {
                assert_eq!(
                    sim.node::<SinkNode>(sinks[i]).received,
                    p.count,
                    "pair {i} lost frames"
                );
            }
            let split = gens
                .iter()
                .zip(&sinks)
                .filter(|(g, s)| sim.partition_of(**g) != sim.partition_of(**s))
                .count();
            (
                sim.trace_digest(),
                sim.events_processed(),
                sim.packets_delivered(),
                sim.par_stats(),
                split,
            )
        })
    }

    /// How many of `pairs` pairs `threads` workers split: all of them once
    /// there are more workers than pairs, none before.
    fn splits(pairs: usize, threads: usize) -> usize {
        if threads > pairs {
            pairs
        } else {
            0
        }
    }

    proptest! {
        // Each case spawns real worker threads; keep the case count modest.
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// Lookahead safety: for any topology whose cross links have
        /// positive propagation, no partition ever dispatches an event at
        /// or past its safe bound — the measured dispatch margin stays
        /// ≥ 1 ps. One or two workers more than pairs, so every frame
        /// crosses a partition boundary.
        #[test]
        fn lookahead_margin_never_collapses(
            pairs in proptest::collection::vec(pair_strategy(), 2..5),
            seed in 0u64..1_000,
            extra in 1usize..3,
        ) {
            let threads = pairs.len() + extra;
            let (_, _, packets, par, split) = run(&pairs, seed, threads);
            prop_assert_eq!(par.partitions, threads.min(2 * pairs.len()));
            prop_assert_eq!(split, pairs.len(), "premise: every pair is split");
            prop_assert_eq!(par.cross_messages, packets, "every delivery crosses");
            prop_assert!(
                par.min_dispatch_margin_picos >= 1,
                "dispatch margin collapsed: {par:?}"
            );
        }

        /// Digest equivalence: the parallel engine's trace is bit-identical
        /// to the sequential wheel for any random topology and any worker
        /// count, event-for-event — whether the workers keep the pairs
        /// whole (no more workers than pairs) or split every one.
        #[test]
        fn parallel_matches_wheel_digest(
            pairs in proptest::collection::vec(pair_strategy(), 2..6),
            seed in 0u64..1_000,
            threads in 2usize..7,
        ) {
            let (wd, we, wp, _, _) = run(&pairs, seed, 1);
            let (pd, pe, pp, par, split) = run(&pairs, seed, threads);
            prop_assert_eq!(split, splits(pairs.len(), threads), "premise: {:?}", par);
            prop_assert_eq!(par.cross_messages > 0, split > 0);
            prop_assert_eq!(wd, pd, "trace digests diverged at {} threads", threads);
            prop_assert_eq!(we, pe, "event counts diverged");
            prop_assert_eq!(wp, pp, "delivered packets diverged");
        }
    }

    /// A node that does nothing: the partitioner sees links, not behaviour.
    struct Idle;

    impl extmem_sim::Node for Idle {
        fn on_packet(
            &mut self,
            _: &mut extmem_sim::NodeCtx<'_>,
            _: PortId,
            _: extmem_wire::Packet,
        ) {
        }
        fn name(&self) -> &str {
            "idle"
        }
    }

    /// Partition ids of a graph on `n` nodes with `edges` `(a, b, zero
    /// propagation?)` under `threads` workers.
    fn partition(n: usize, edges: &[(usize, usize, bool)], threads: usize) -> Vec<usize> {
        with_sched_backend(SchedBackend::Parallel(threads), || {
            let mut b = SimBuilder::new(0);
            let ids: Vec<_> = (0..n).map(|_| b.add_node(Box::new(Idle))).collect();
            let mut ports = vec![0u16; n];
            for &(x, y, zero) in edges {
                let prop = TimeDelta::from_nanos(if zero { 0 } else { 300 });
                let spec = LinkSpec::new(Rate::from_gbps(40), prop);
                b.connect(ids[x], PortId(ports[x]), ids[y], PortId(ports[y]), spec);
                ports[x] += 1;
                ports[y] += 1;
            }
            let sim = b.build();
            assert_eq!(sim.par_stats().partitions, threads.min(n));
            ids.iter().map(|&id| sim.partition_of(id)).collect()
        })
    }

    /// Connected components of `n` nodes under the edges `keep` selects.
    fn components(
        n: usize,
        edges: &[(usize, usize, bool)],
        keep: impl Fn(&(usize, usize, bool)) -> bool,
    ) -> Vec<usize> {
        let mut comp: Vec<usize> = (0..n).collect();
        for _ in 0..n {
            for e in edges.iter().filter(|e| keep(e)) {
                let low = comp[e.0].min(comp[e.1]);
                comp[e.0] = low;
                comp[e.1] = low;
            }
        }
        comp
    }

    fn distinct(labels: &[usize]) -> usize {
        let mut seen = labels.to_vec();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

        /// The partitioner's contract on random connected graphs (a random
        /// spanning tree plus chords, a quarter of the links without
        /// propagation delay): exactly `min(threads, nodes)` non-empty
        /// partitions; the same graph always cut the same way; a
        /// zero-propagation link cut only when no legal cut exists (those
        /// graphs are refused by the builder and skipped here); and a
        /// single-link node kept with its neighbour whenever the groups so
        /// formed are enough to fill every partition.
        #[test]
        fn partitioner_contract_on_random_graphs(
            tree in proptest::collection::vec((any::<prop::sample::Index>(), 0u8..4), 1..12),
            chords in proptest::collection::vec(
                (any::<prop::sample::Index>(), any::<prop::sample::Index>(), 0u8..4),
                0..6,
            ),
            threads in 1usize..7,
        ) {
            let n = tree.len() + 1;
            let mut edges: Vec<(usize, usize, bool)> = tree
                .iter()
                .enumerate()
                .map(|(i, (parent, z))| (parent.index(i + 1), i + 1, *z == 0))
                .collect();
            for (a, b, z) in &chords {
                let (a, b) = (a.index(n), b.index(n));
                if a != b {
                    edges.push((a, b, *z == 0));
                }
            }
            let k = threads.min(n);
            let welded = components(n, &edges, |e| e.2);
            prop_assume!(distinct(&welded) >= k);

            let parts = partition(n, &edges, threads);
            prop_assert_eq!(&parts, &partition(n, &edges, threads), "not a pure function");
            let mut used = parts.clone();
            used.sort_unstable();
            used.dedup();
            prop_assert_eq!(used, (0..k).collect::<Vec<_>>(), "{:?}", parts);
            for &(a, b, zero) in &edges {
                prop_assert!(!zero || parts[a] == parts[b], "cut {}-{}: {:?}", a, b, parts);
            }

            let degree = |x: usize| edges.iter().filter(|e| e.0 == x || e.1 == x).count();
            let stub = |e: &(usize, usize, bool)| e.2 || degree(e.0) == 1 || degree(e.1) == 1;
            if distinct(&components(n, &edges, stub)) >= k {
                for e in edges.iter().filter(|e| stub(e)) {
                    prop_assert_eq!(parts[e.0], parts[e.1], "stub {:?} split: {:?}", e, parts);
                }
            }
        }
    }
}

mod choice_filter {
    use super::*;

    fn key_of(i: u16) -> FiveTuple {
        FiveTuple::new(0x0a00_0001, 0x0a00_0002, 40_000 + i, 80, 17)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Counting semantics under churn: as long as removes only target
        /// currently-inserted copies, no counter ever underflows and every
        /// key with a surviving copy still queries positive (a counting
        /// Bloom filter has no false negatives).
        #[test]
        fn churn_never_underflows_a_counter(
            cells in 64usize..512,
            ops in proptest::collection::vec((any::<bool>(), 0u16..32), 1..400),
        ) {
            let mut filter = ChoiceFilter::new(cells, 2);
            let mut model: HashMap<u16, u32> = HashMap::new();
            for (insert, ki) in ops {
                let key = key_of(ki);
                if insert {
                    filter.insert(&key);
                    *model.entry(ki).or_insert(0) += 1;
                } else if model.get(&ki).copied().unwrap_or(0) > 0 {
                    filter.remove(&key);
                    *model.get_mut(&ki).unwrap() -= 1;
                }
                prop_assert_eq!(filter.stats().underflows, 0);
                for (&k, &n) in &model {
                    if n > 0 {
                        prop_assert!(filter.contains(&key_of(k)), "false negative for {}", k);
                    }
                }
            }
        }

        /// Deleting a batch of keys restores the exact pre-insert state:
        /// every counter returns to its old value, so the false-positive
        /// set over an arbitrary probe universe is bit-for-bit restored.
        #[test]
        fn delete_restores_the_false_positive_set(
            cells in 64usize..512,
            base_raw in proptest::collection::vec(0u16..24, 0..12),
            batch_raw in proptest::collection::vec(24u16..48, 1..16),
        ) {
            // Dedup: the restore property is about sets (each key inserted
            // once, removed once).
            let base: std::collections::BTreeSet<u16> = base_raw.into_iter().collect();
            let batch: std::collections::BTreeSet<u16> = batch_raw.into_iter().collect();
            let mut filter = ChoiceFilter::new(cells, 2);
            for &k in &base {
                filter.insert(&key_of(k));
            }
            let counts_before = filter.raw_counts().to_vec();
            let fp_before: Vec<bool> = (0..256).map(|i| filter.contains(&key_of(i))).collect();
            for &k in &batch {
                filter.insert(&key_of(k));
            }
            for &k in &batch {
                filter.remove(&key_of(k));
            }
            prop_assert_eq!(filter.raw_counts(), &counts_before[..], "counters drifted");
            let fp_after: Vec<bool> = (0..256).map(|i| filter.contains(&key_of(i))).collect();
            prop_assert_eq!(fp_before, fp_after, "false-positive set drifted");
            prop_assert_eq!(filter.stats().underflows, 0);
        }

        /// At the sizing the cuckoo directory uses (16 cells per key, two
        /// hashes), the measured false-positive rate over a disjoint probe
        /// universe stays under the configured bound — the estimate is
        /// occupancy², about 1.6% at this load, asserted with headroom.
        #[test]
        fn false_positive_rate_is_within_bound(keys in 16usize..64) {
            let filter_cells = keys * 16;
            let mut filter = ChoiceFilter::new(filter_cells, 2);
            for i in 0..keys as u16 {
                filter.insert(&key_of(i));
            }
            let probes = 512u16;
            let fps = (0..probes)
                .filter(|&i| filter.contains(&key_of(1000 + i)))
                .count();
            let measured = fps as f64 / probes as f64;
            prop_assert!(
                measured <= 0.06,
                "measured FP rate {:.4} above bound (estimate {:.4})",
                measured,
                filter.fp_estimate()
            );
        }

        /// `cells_of` walks its cells instead of collecting them. The
        /// oracle is the collecting body it replaced, applied to a plain
        /// counter array: insert, remove and contains must agree with it
        /// on every counter and every query, duplicates included.
        #[test]
        fn iterator_cells_agree_with_the_collected_cells(
            cells in 1usize..512,
            hashes in 1u32..5,
            ops in proptest::collection::vec((any::<bool>(), any::<u32>(), any::<u16>()), 1..200),
        ) {
            let collected_cells = |key: &FiveTuple| -> Vec<u32> {
                (0..hashes)
                    .map(|i| salted_flow_index(key, 0x50 + i, cells as u64) as u32)
                    .collect()
            };
            let mut filter = ChoiceFilter::new(cells, hashes);
            let mut model = vec![0u16; cells];
            for (insert, ip, port) in ops {
                let key = FiveTuple::new(ip, 0x0a00_0002, port, 80, 17);
                let want = collected_cells(&key);
                prop_assert_eq!(filter.cells_of(&key).collect::<Vec<_>>(), want.clone());
                // Only remove what was inserted, as the directory does;
                // the clamp at zero is covered by the filter's own tests.
                let present = want.iter().all(|&c| model[c as usize] > 0);
                if insert {
                    filter.insert(&key);
                    for &c in &want {
                        model[c as usize] += 1;
                    }
                } else if present {
                    filter.remove(&key);
                    for &c in &want {
                        model[c as usize] = model[c as usize].saturating_sub(1);
                    }
                }
                prop_assert_eq!(filter.raw_counts(), &model[..]);
                prop_assert_eq!(
                    filter.contains(&key),
                    want.iter().all(|&c| model[c as usize] > 0)
                );
            }
        }
    }
}

mod shard_ring {
    //! Consistent-hash ring properties at realistic vnode counts: routing
    //! is a pure function of ring membership (unrelated churn moves no
    //! key), scale-out moves about 1/(N+1) of the key space and only onto
    //! the newcomer, scale-in strands nothing, and vnodes keep per-member
    //! load near its fair share.

    use extmem_core::ShardRing;
    use proptest::prelude::*;
    use std::collections::{BTreeSet, HashMap};

    fn ring_of(members: &BTreeSet<u32>, vnodes: usize) -> ShardRing {
        let mut ring = ShardRing::new(vnodes);
        for &m in members {
            ring.add_shard(m);
        }
        ring
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Add-then-remove of an unrelated shard restores routing exactly:
        /// no key observes a membership change it wasn't part of.
        #[test]
        fn unrelated_churn_never_moves_a_key(
            raw in proptest::collection::vec(0u32..64, 2..9),
            churn in 64u32..128,
        ) {
            let members: BTreeSet<u32> = raw.into_iter().collect();
            prop_assume!(members.len() >= 2);
            let mut ring = ring_of(&members, 64);
            let before: Vec<u32> = (0..2048u64).map(|k| ring.shard_for_key(k)).collect();
            ring.add_shard(churn);
            ring.remove_shard(churn);
            let after: Vec<u32> = (0..2048u64).map(|k| ring.shard_for_key(k)).collect();
            prop_assert_eq!(before, after, "unrelated add/remove moved keys");
        }

        /// Scale-out movement: adding one member moves roughly 1/(N+1) of
        /// the key space — never more than 2.5x the ideal at 128 vnodes —
        /// and every key that moves lands on the newcomer, so rebalance
        /// cost is bounded by the newcomer's fair share.
        #[test]
        fn scale_out_moves_about_one_over_n_plus_one(
            raw in proptest::collection::vec(0u32..64, 2..9),
            newcomer in 64u32..128,
        ) {
            let members: BTreeSet<u32> = raw.into_iter().collect();
            prop_assume!(members.len() >= 2);
            let before = ring_of(&members, 128);
            let mut ring = before.clone();
            ring.add_shard(newcomer);
            let ideal = 1.0 / (members.len() as f64 + 1.0);
            let moved = before.remap_fraction(&ring, 1 << 14);
            prop_assert!(moved > 0.0, "newcomer owns nothing");
            prop_assert!(
                moved <= (2.5 * ideal).min(1.0),
                "moved {} of the key space, ideal {}", moved, ideal
            );
            for k in 0..4096u64 {
                let (a, b) = (before.shard_for_key(k), ring.shard_for_key(k));
                if a != b {
                    prop_assert_eq!(b, newcomer, "key {} moved between old members", k);
                }
            }
        }

        /// Scale-in strands nothing: after removing a member every key maps
        /// to a survivor, and keys the victim didn't own never move.
        #[test]
        fn scale_in_strands_no_keys(
            raw in proptest::collection::vec(0u32..64, 3..9),
            pick in any::<prop::sample::Index>(),
        ) {
            let members: BTreeSet<u32> = raw.into_iter().collect();
            prop_assume!(members.len() >= 3);
            let victim = *members.iter().nth(pick.index(members.len())).unwrap();
            let before = ring_of(&members, 64);
            let mut ring = before.clone();
            ring.remove_shard(victim);
            for k in 0..4096u64 {
                let a = before.shard_for_key(k);
                let b = ring.shard_for_key(k);
                prop_assert!(b != victim, "key {} still routed to the removed shard", k);
                if a != victim {
                    prop_assert_eq!(a, b, "survivor key {} moved on scale-in", k);
                }
            }
        }

        /// At 128 vnodes the ring stays balanced: every member owns
        /// something and none owns more than ~2.2x its fair share of a
        /// large key sample.
        #[test]
        fn vnodes_bound_the_load_skew(
            raw in proptest::collection::vec(0u32..256, 2..13),
        ) {
            let members: BTreeSet<u32> = raw.into_iter().collect();
            prop_assume!(members.len() >= 2);
            let ring = ring_of(&members, 128);
            let samples = 1u64 << 14;
            let mut counts: HashMap<u32, u64> = HashMap::new();
            for k in 0..samples {
                *counts.entry(ring.shard_for_key(k)).or_insert(0) += 1;
            }
            prop_assert_eq!(counts.len(), members.len(), "some member owns nothing");
            let fair = samples as f64 / members.len() as f64;
            for (&m, &c) in &counts {
                prop_assert!(
                    (c as f64) <= 2.2 * fair,
                    "shard {} owns {} of {} (fair share {})", m, c, samples, fair
                );
            }
        }
    }
}

/// The remote-op engine against a step-by-step verb oracle: for random op
/// programs over random initial memory, executing each op in the
/// responder's op engine must produce the same returned bytes, the same
/// hit/index decision, and the same final memory image as decomposing it
/// into plain READ/WRITE verbs on a second identical responder. Every op
/// is also delivered twice (as a retransmitted duplicate would be) and
/// must replay the identical response without perturbing memory.
mod remote_op_oracle {
    use extmem_rnic::requester::RequesterQp;
    use extmem_rnic::responder::{process_request, Outcome};
    use extmem_rnic::{MrTable, Operand, QueuePair, RemoteOp, Request};
    use extmem_types::{ByteSize, QpNum, Rkey};
    use extmem_wire::extop::{IndirectMode, EXTOP_FLAG_HIT, EXTOP_FLAG_SECONDARY};
    use extmem_wire::roce::{RoceEndpoint, RoceExt};
    use extmem_wire::{MacAddr, Packet, RocePacket};
    use proptest::prelude::*;

    const REGION: u64 = 4096;
    const MTU: usize = 2048;

    /// One remote op described with region-relative offsets, plus the plain
    /// WRITEs that must precede it so the dependent chain is well-formed
    /// (pointers in bounds, length prefixes within their caps).
    #[derive(Clone, Debug)]
    enum OpSpec {
        Gather {
            word_len: u16,
            offs: Vec<u64>,
        },
        IndirectPtr {
            slot_off: u64,
            target_off: u64,
            max_len: u32,
        },
        IndirectLen {
            off: u64,
            len_off: u8,
            hdr_len: u16,
            max_len: u32,
            body_raw: u16,
        },
        HashProbe {
            base_off: u64,
            n_buckets: u32,
            b1: u32,
            b2: u32,
            slot_bytes: u16,
            slots: u16,
            key_off: u8,
            key: Vec<u8>,
            plant: Option<(bool, u16)>,
        },
        CondWrite {
            cmp_off: u64,
            write_off: u64,
            compare: Vec<u8>,
            write: Vec<u8>,
            plant_match: bool,
        },
    }

    impl OpSpec {
        /// Resolve offsets against the region base: the setup WRITEs (applied
        /// identically to both rigs) and the op itself.
        fn materialize(&self, base: u64) -> (Vec<(u64, Vec<u8>)>, RemoteOp) {
            match self {
                OpSpec::Gather { word_len, offs } => (
                    vec![],
                    RemoteOp::Gather {
                        word_len: *word_len,
                        vas: offs.iter().map(|o| base + o).collect(),
                    },
                ),
                OpSpec::IndirectPtr {
                    slot_off,
                    target_off,
                    max_len,
                } => (
                    vec![(base + slot_off, (base + target_off).to_be_bytes().to_vec())],
                    RemoteOp::Indirect {
                        va: base + slot_off,
                        mode: IndirectMode::Pointer,
                        len_off: 0,
                        hdr_len: 0,
                        max_len: *max_len,
                    },
                ),
                OpSpec::IndirectLen {
                    off,
                    len_off,
                    hdr_len,
                    max_len,
                    body_raw,
                } => {
                    let body = (*body_raw as u32 % (max_len + 1)) as u16;
                    (
                        vec![(base + off + *len_off as u64, body.to_be_bytes().to_vec())],
                        RemoteOp::Indirect {
                            va: base + off,
                            mode: IndirectMode::LengthPrefixed,
                            len_off: *len_off,
                            hdr_len: *hdr_len,
                            max_len: *max_len,
                        },
                    )
                }
                OpSpec::HashProbe {
                    base_off,
                    n_buckets,
                    b1,
                    b2,
                    slot_bytes,
                    slots,
                    key_off,
                    key,
                    plant,
                } => {
                    let bucket_bytes = slot_bytes * slots;
                    let b1 = b1 % n_buckets;
                    let b2 = b2 % n_buckets;
                    let mut plants = vec![];
                    if let Some((in_b2, slot)) = plant {
                        let bucket = if *in_b2 { b2 } else { b1 };
                        let va = base
                            + base_off
                            + bucket as u64 * bucket_bytes as u64
                            + (slot % slots) as u64 * *slot_bytes as u64
                            + *key_off as u64;
                        plants.push((va, key.clone()));
                    }
                    (
                        plants,
                        RemoteOp::HashProbe {
                            base_va: base + base_off,
                            b1,
                            b2,
                            bucket_bytes,
                            slot_bytes: *slot_bytes,
                            key_off: *key_off,
                            key: Operand::new(key),
                        },
                    )
                }
                OpSpec::CondWrite {
                    cmp_off,
                    write_off,
                    compare,
                    write,
                    plant_match,
                } => {
                    let mut plants = vec![];
                    if *plant_match {
                        plants.push((base + cmp_off, compare.clone()));
                    }
                    (
                        plants,
                        RemoteOp::CondWrite {
                            cmp_va: base + cmp_off,
                            write_va: base + write_off,
                            compare: Operand::new(compare),
                            write: Operand::new(write),
                        },
                    )
                }
            }
        }
    }

    fn arb_spec() -> impl Strategy<Value = OpSpec> {
        prop_oneof![
            (1u16..33, prop::collection::vec(0u64..REGION - 32, 1..17))
                .prop_map(|(word_len, offs)| OpSpec::Gather { word_len, offs }),
            (0u64..REGION - 8, 0u64..REGION - 64, 1u32..65).prop_map(
                |(slot_off, target_off, max_len)| OpSpec::IndirectPtr {
                    slot_off,
                    target_off,
                    max_len,
                }
            ),
            (0u64..REGION - 80, 0u8..7, 0u16..9, 1u32..65, any::<u16>()).prop_map(
                |(off, len_off, extra, max_len, body_raw)| OpSpec::IndirectLen {
                    off,
                    len_off,
                    hdr_len: len_off as u16 + 2 + extra,
                    max_len,
                    body_raw,
                }
            ),
            (
                (0u64..REGION - 1024, 1u32..9, any::<u32>(), any::<u32>()),
                (
                    prop::sample::select(vec![8u16, 16, 32]),
                    1u16..5,
                    0u8..5,
                    prop::collection::vec(any::<u8>(), 1..5),
                    (any::<bool>(), any::<bool>(), any::<u16>())
                        .prop_map(|(p, in_b2, slot)| p.then_some((in_b2, slot))),
                ),
            )
                .prop_map(
                    |(
                        (base_off, n_buckets, b1, b2),
                        (slot_bytes, slots, key_off, key, plant),
                    )| OpSpec::HashProbe {
                        base_off,
                        n_buckets,
                        b1,
                        b2,
                        slot_bytes,
                        slots,
                        key_off,
                        key,
                        plant,
                    }
                ),
            (
                0u64..REGION - 8,
                0u64..REGION - 24,
                prop::collection::vec(any::<u8>(), 1..9),
                prop::collection::vec(any::<u8>(), 1..25),
                any::<bool>(),
            )
                .prop_map(|(cmp_off, write_off, compare, write, plant_match)| {
                    OpSpec::CondWrite {
                        cmp_off,
                        write_off,
                        compare,
                        write,
                        plant_match,
                    }
                }),
        ]
    }

    /// A frame as the node at the other end of the link sees it.
    fn parsed(frame: &Packet) -> RocePacket {
        RocePacket::parse(frame)
            .expect("well-formed")
            .expect("a RoCE frame")
    }

    /// A requester + responder pair over one registered region.
    struct Rig {
        server: RoceEndpoint,
        req: RequesterQp,
        qp: QueuePair,
        mrs: MrTable,
        rkey: Rkey,
        base: u64,
    }

    impl Rig {
        fn new(image: &[u8]) -> Rig {
            let switch = RoceEndpoint {
                mac: MacAddr::local(1),
                ip: 0x0a000001,
            };
            let server = RoceEndpoint {
                mac: MacAddr::local(2),
                ip: 0x0a000002,
            };
            let mut mrs = MrTable::new();
            let (rkey, base) = mrs.register(ByteSize::from_bytes(REGION));
            mrs.get_mut(rkey).unwrap().write(base, image).unwrap();
            Rig {
                server,
                req: RequesterQp::new(switch, server, QpNum(0x100), MTU),
                qp: QueuePair::new(QpNum(0x100), switch, QpNum(0x200), 0),
                mrs,
                rkey,
                base,
            }
        }

        /// The next request on the rig's QP, as the responder receives it.
        fn issue(&mut self, req: Request<'_>) -> extmem_wire::RocePacket {
            parsed(&self.req.issue(self.rkey, &req))
        }

        fn write(&mut self, va: u64, bytes: &[u8]) {
            let pkt = self.issue(Request::Write {
                va,
                body: [bytes, &[]],
                ack_req: false,
            });
            let r = process_request(self.server, &mut self.qp, &mut self.mrs, &pkt, MTU);
            assert!(
                matches!(r.outcome, Outcome::WriteExecuted { .. }),
                "{:?}",
                r.outcome
            );
        }

        fn read(&mut self, va: u64, len: u32) -> Vec<u8> {
            let pkt = self.issue(Request::Read { va, len });
            let r = process_request(self.server, &mut self.qp, &mut self.mrs, &pkt, MTU);
            assert!(
                matches!(r.outcome, Outcome::ReadServed { .. }),
                "{:?}",
                r.outcome
            );
            let mut out = Vec::new();
            for p in &r.responses {
                out.extend_from_slice(&parsed(p).payload[..]);
            }
            out
        }

        /// Execute a remote op, then deliver the identical packet again (a
        /// retransmitted duplicate) and demand a byte-identical replay.
        fn remote(&mut self, op: &RemoteOp) -> (u8, u16, Vec<u8>) {
            let pkt = self.issue(Request::Op(op));
            let r = process_request(self.server, &mut self.qp, &mut self.mrs, &pkt, MTU);
            assert!(
                matches!(r.outcome, Outcome::ExtOpExecuted { .. }),
                "{:?}",
                r.outcome
            );
            let resp = parsed(&r.responses[0]);
            let RoceExt::ExtOpAck(_, eth) = &resp.ext else {
                panic!("not an ext-op response: {:?}", resp.ext)
            };
            let first = (eth.flags, eth.index, resp.payload[..].to_vec());
            let before = self.image();
            let r2 = process_request(self.server, &mut self.qp, &mut self.mrs, &pkt, MTU);
            assert!(matches!(r2.outcome, Outcome::Duplicate), "{:?}", r2.outcome);
            let resp2 = parsed(&r2.responses[0]);
            let RoceExt::ExtOpAck(_, eth2) = &resp2.ext else {
                panic!("duplicate replay is not an ext-op response")
            };
            assert_eq!(
                (eth2.flags, eth2.index, resp2.payload[..].to_vec()),
                first,
                "duplicate replay diverged"
            );
            assert_eq!(self.image(), before, "duplicate perturbed memory");
            first
        }

        /// The verb oracle: the same op decomposed into dependent plain
        /// READ / WRITE verbs, reproducing the engine's decision logic.
        fn oracle(&mut self, op: &RemoteOp) -> (u8, u16, Vec<u8>) {
            match op {
                RemoteOp::Gather { word_len, vas } => {
                    let mut out = Vec::new();
                    for va in vas {
                        out.extend_from_slice(&self.read(*va, *word_len as u32));
                    }
                    (EXTOP_FLAG_HIT, 0, out)
                }
                RemoteOp::Indirect {
                    va,
                    mode: IndirectMode::Pointer,
                    max_len,
                    ..
                } => {
                    let ptr = u64::from_be_bytes(self.read(*va, 8).try_into().unwrap());
                    (EXTOP_FLAG_HIT, 0, self.read(ptr, *max_len))
                }
                RemoteOp::Indirect {
                    va,
                    mode: IndirectMode::LengthPrefixed,
                    len_off,
                    hdr_len,
                    ..
                } => {
                    let hdr = self.read(*va, *hdr_len as u32);
                    let off = *len_off as usize;
                    let body =
                        u16::from_be_bytes(hdr[off..off + 2].try_into().unwrap()) as u32;
                    (EXTOP_FLAG_HIT, 0, self.read(*va, *hdr_len as u32 + body))
                }
                RemoteOp::HashProbe {
                    base_va,
                    b1,
                    b2,
                    bucket_bytes,
                    slot_bytes,
                    key_off,
                    key,
                } => {
                    for (nth, bucket) in [*b1, *b2].into_iter().enumerate() {
                        if nth == 1 && b2 == b1 {
                            break;
                        }
                        let va = base_va + bucket as u64 * *bucket_bytes as u64;
                        let data = self.read(va, *bucket_bytes as u32);
                        for slot in 0..(bucket_bytes / slot_bytes) as usize {
                            let at = slot * *slot_bytes as usize + *key_off as usize;
                            if data[at..at + key.len()] == key[..] {
                                let mut flags = EXTOP_FLAG_HIT;
                                if nth == 1 {
                                    flags |= EXTOP_FLAG_SECONDARY;
                                }
                                return (flags, slot as u16, data);
                            }
                        }
                    }
                    (0, 0, vec![])
                }
                RemoteOp::CondWrite {
                    cmp_va,
                    write_va,
                    compare,
                    write,
                } => {
                    let observed = self.read(*cmp_va, compare.len() as u32);
                    let mut flags = 0;
                    if observed[..] == compare[..] {
                        let img = write[..].to_vec();
                        self.write(*write_va, &img);
                        flags = EXTOP_FLAG_HIT;
                    }
                    (flags, 0, observed)
                }
            }
        }

        fn image(&self) -> Vec<u8> {
            self.mrs
                .get(self.rkey)
                .unwrap()
                .read(self.base, REGION)
                .unwrap()
                .to_vec()
        }
    }

    /// Every kind of response the responder emits — READ (one packet and
    /// three), WRITE with and without an ACK, Fetch-and-Add, each remote op,
    /// a sequence-error NAK, an access NAK, and the duplicate of each —
    /// as wire bytes, folded into one digest. The digest was taken when the
    /// responder still returned unencoded packets whose payloads were
    /// copies out of the region; encoding each frame straight from the
    /// region may not change a byte on the wire.
    #[test]
    fn response_encodings_are_pinned() {
        const PINNED: u64 = 0x6cea_7d41_e188_b0ba;
        let image: Vec<u8> = (0..REGION).map(|i| (i * 7 + 3) as u8).collect();
        // A small MTU so a 300-byte READ is answered in three packets.
        const MTU: usize = 128;
        let mut rig = Rig::new(&image);
        rig.req.mtu = MTU;
        let base = rig.base;
        // A length-prefixed entry for the indirect READ: 20 bytes follow
        // the 2-byte header.
        rig.write(base + 1200, &20u16.to_be_bytes());
        let probe_key = image[256 + 16 + 2..256 + 16 + 6].to_vec();
        let requests = [
            rig.issue(Request::Write {
                va: base + 64,
                body: [&[0xa5; 100], &[]],
                ack_req: true,
            }),
            rig.issue(Request::Write {
                va: base + 200,
                body: [&[0x5a; 24], &[]],
                ack_req: false,
            }),
            rig.issue(Request::Read {
                va: base + 32,
                len: 100,
            }),
            rig.issue(Request::Read { va: base, len: 300 }),
            rig.issue(Request::FetchAdd {
                va: base + 512,
                add: 41,
            }),
            rig.issue(Request::Op(&RemoteOp::Gather {
                word_len: 8,
                vas: vec![base + 8, base + 1024, base + 40],
            })),
            rig.issue(Request::Op(&RemoteOp::HashProbe {
                base_va: base + 256,
                b1: 3,
                b2: 0,
                bucket_bytes: 32,
                slot_bytes: 16,
                key_off: 2,
                key: Operand::new(&probe_key),
            })),
            rig.issue(Request::Op(&RemoteOp::CondWrite {
                cmp_va: base + 700,
                write_va: base + 900,
                compare: Operand::new(&image[700..704]),
                write: Operand::new(&[9; 12]),
            })),
            rig.issue(Request::Op(&RemoteOp::Indirect {
                va: base + 1200,
                mode: IndirectMode::LengthPrefixed,
                len_off: 0,
                hdr_len: 2,
                max_len: 64,
            })),
            // The same op over bytes that are no entry header: the length
            // they spell exceeds `max_len`, an invalid-request NAK.
            rig.issue(Request::Op(&RemoteOp::Indirect {
                va: base + 1300,
                mode: IndirectMode::LengthPrefixed,
                len_off: 0,
                hdr_len: 2,
                max_len: 64,
            })),
            // Past the end of the region: an access NAK.
            rig.issue(Request::Read {
                va: base + REGION - 4,
                len: 64,
            }),
        ];
        let mut wire = Vec::new();
        let mut serve = |rig: &mut Rig, req: &extmem_wire::RocePacket| {
            let r = process_request(rig.server, &mut rig.qp, &mut rig.mrs, req, MTU);
            wire.extend_from_slice(format!("{:?}", r.outcome).as_bytes());
            for frame in &r.responses {
                wire.extend_from_slice(&(frame.len() as u32).to_be_bytes());
                wire.extend_from_slice(frame.as_slice());
            }
        };
        for req in &requests {
            serve(&mut rig, req);
        }
        // Every request again, as a retransmitted duplicate.
        for req in &requests {
            serve(&mut rig, req);
        }
        // A gap in the sequence: NAK once, then silence.
        let _skipped = rig.issue(Request::Read { va: base, len: 8 });
        let late = rig.issue(Request::Read { va: base, len: 8 });
        serve(&mut rig, &late);
        serve(&mut rig, &late);
        assert_eq!(
            extmem_wire::packet::fnv1a(&wire),
            PINNED,
            "{:#018x}: a response changed on the wire",
            extmem_wire::packet::fnv1a(&wire)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]
        #[test]
        fn remote_ops_match_verb_oracle(
            image in prop::collection::vec(any::<u8>(), REGION as usize..REGION as usize + 1),
            specs in prop::collection::vec(arb_spec(), 1..8),
        ) {
            let mut remote = Rig::new(&image);
            let mut oracle = Rig::new(&image);
            prop_assert_eq!(remote.base, oracle.base);
            for spec in &specs {
                let (plants, op) = spec.materialize(remote.base);
                for (va, bytes) in &plants {
                    remote.write(*va, bytes);
                    oracle.write(*va, bytes);
                }
                let got = remote.remote(&op);
                let want = oracle.oracle(&op);
                prop_assert_eq!(got, want, "engine vs oracle diverged on {:?}", op);
            }
            // Same final memory image: every op's side effects agree.
            prop_assert_eq!(remote.image(), oracle.image());
        }
    }
}
