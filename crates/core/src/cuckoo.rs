//! A two-choice cuckoo directory for the one-RTT lookup table.
//!
//! The paper's lookup primitive (§4) hashes a 5-tuple straight into a remote
//! slot and punts colliding flows to the software slow path. EMOMA ("Exact
//! Match in One Memory Access") removes both the collisions and the
//! second-choice probe: keys live in one of **two** candidate buckets of a
//! cuckoo table in remote memory, and a counting Bloom filter in switch SRAM
//! ([`extmem_switch::filter::ChoiceFilter`]) holds exactly the keys resident
//! in their *secondary* bucket. The data plane probes the filter and issues a
//! single bucket READ — h2 on a positive query, h1 otherwise — so every miss
//! costs exactly one round trip.
//!
//! This module is the **control-plane directory**: the authoritative local
//! copy of the remote table plus the planner that turns inserts and deletes
//! into ordered [`Step`] lists (relocations, writes, clears, filter flips)
//! whose step-by-step execution never leaves a resident key unfindable. The
//! wire execution of plans lives in [`crate::lookup`].
//!
//! ## Layout
//!
//! A bucket is sized to one READ response: [`SLOTS_PER_BUCKET`] = 4 slots of
//! [`SLOT_BYTES`] = 32 bytes (`[tag:1][key:13][pad:2][action:16]`, zeroed =
//! empty), so a bucket is one 128-byte "remote cacheline" and always fits a
//! single RoCE response packet.
//!
//! The switch keeps one fingerprint byte per slot: 0 for an empty slot,
//! else the key's [`slot_fingerprint`] in `1..=255`
//! ([`CuckooDirectory::fingerprints`] is where it starts; byte `s` of a
//! bucket follows the last slot WRITE issued to slot `s`). A verb-path miss
//! READs its bucket from the first to the last slot whose fingerprint
//! matches the key's, usually the one slot the key sits in, and slot 0
//! alone when none does. A hash probe (remote-op mode) names the whole
//! bucket and is answered with the one slot it matched.
//!
//! ## Invariants (checked by [`CuckooDirectory::check_invariants`])
//!
//! For every resident key `k` with distinct candidates `h1(k) != h2(k)`:
//!
//! * `k` resident in its h2 bucket ⇒ the filter query for `k` is positive
//!   (it was inserted; counting semantics keep it positive under unrelated
//!   churn),
//! * `k` resident in its h1 bucket ⇒ the filter query for `k` is negative
//!   (otherwise the data plane would probe h2 and miss — `k` would be
//!   *misdirected*).
//!
//! Keys whose two hashes coincide are pinned to that single bucket, never
//! filter-inserted and never relocated; the data plane probes their one
//! bucket unconditionally, so filter state cannot misdirect them.
//!
//! ## Relocations are one-way
//!
//! Displacements only ever move a key from its h1 bucket to its h2 bucket.
//! An h2→h1 move could strand the key query-positive (other keys' counter
//! contributions keep its cells non-zero after the decrement), violating the
//! second invariant with no local fix; restricting direction removes that
//! case entirely. The cost is a lower achievable load factor than a full
//! cuckoo table — acceptable at the ≤60% occupancies the lookup runs at.
//!
//! Before the planner increments filter cells for a key (a `filter_add`
//! attached to that key's destination write), it *first* relocates every
//! h1-resident key whose query those increments would flip to positive, so
//! the emitted step order never misdirects a key mid-plan. Cycles (key A's
//! fix needs key B moved first and vice versa) are detected and make the
//! insert fail cleanly with no directory mutation.

use crate::lookup::{ActionEntry, ACTION_LEN};
use extmem_switch::filter::ChoiceFilter;
use extmem_switch::hash::{cuckoo_buckets, slot_fingerprint};
use extmem_types::FiveTuple;
use std::collections::{BTreeMap, BTreeSet};

/// Slots per bucket (one bucket = one READ response).
pub const SLOTS_PER_BUCKET: usize = 4;
/// Bytes per slot: `[tag:1][key:13][pad:2][action:16]`.
pub const SLOT_BYTES: usize = 32;
/// Bytes per bucket: the longest data-plane READ, and the span a hash
/// probe scans.
pub const BUCKET_BYTES: usize = SLOTS_PER_BUCKET * SLOT_BYTES;

const KEY_AT: usize = 1;
const KEY_LEN: usize = 13;
const ACTION_AT: usize = 16;

/// Encode an occupied slot to its 32-byte wire form.
pub fn encode_slot(key: &FiveTuple, action: &ActionEntry) -> [u8; SLOT_BYTES] {
    let mut b = [0u8; SLOT_BYTES];
    b[0] = 1;
    b[KEY_AT..KEY_AT + KEY_LEN].copy_from_slice(&key.to_bytes());
    b[ACTION_AT..ACTION_AT + ACTION_LEN].copy_from_slice(&action.to_bytes());
    b
}

/// Length of the slot prefix that identifies a key on the wire:
/// `[tag:1][key:13]`. The remote-op hash probe matches exactly these bytes;
/// the nonzero tag means an all-zero (empty) slot can never match.
pub const SLOT_KEY_LEN: usize = 1 + KEY_LEN;

/// The `[tag][key]` slot prefix a remote-op hash probe matches against.
pub fn slot_key(key: &FiveTuple) -> [u8; SLOT_KEY_LEN] {
    let mut b = [0u8; SLOT_KEY_LEN];
    b[0] = 1;
    b[1..].copy_from_slice(&key.to_bytes());
    b
}

/// Decode a 32-byte slot; `None` when the slot is empty (tag byte zero).
pub fn decode_slot(b: &[u8]) -> Option<(FiveTuple, ActionEntry)> {
    if b.len() < SLOT_BYTES || b[0] == 0 {
        return None;
    }
    let mut kb = [0u8; KEY_LEN];
    kb.copy_from_slice(&b[KEY_AT..KEY_AT + KEY_LEN]);
    let mut ab = [0u8; ACTION_LEN];
    ab.copy_from_slice(&b[ACTION_AT..ACTION_AT + ACTION_LEN]);
    Some((FiveTuple::from_bytes(&kb), ActionEntry::from_bytes(&ab)))
}

/// The bucket the data plane probes for `key` under `filter`: h2 on a
/// positive query (the key was placed in its secondary bucket), h1
/// otherwise. Keys with coinciding hashes always probe their one bucket.
pub fn probe_with(filter: &ChoiceFilter, key: &FiveTuple, buckets: u64) -> u64 {
    let (b1, b2) = cuckoo_buckets(key, buckets);
    if b1 != b2 && filter.contains(key) {
        b2
    } else {
        b1
    }
}

/// Virtual address of a slot given the region base.
pub fn slot_va(base_va: u64, at: SlotRef) -> u64 {
    base_va + at.bucket * BUCKET_BYTES as u64 + (at.slot * SLOT_BYTES) as u64
}

/// Geometry and planner limits of a [`CuckooDirectory`].
#[derive(Clone, Copy, Debug)]
pub struct CuckooConfig {
    /// Number of buckets (capacity = `buckets * SLOTS_PER_BUCKET` keys).
    pub buckets: u64,
    /// Counting-filter cells.
    pub filter_cells: usize,
    /// Counting-filter hash functions.
    pub filter_hashes: u32,
    /// Budget on relocation attempts per insert; exceeding it fails the
    /// insert with [`CuckooError::TableFull`] and no directory mutation.
    pub max_plan_steps: usize,
}

impl CuckooConfig {
    /// A geometry comfortably holding `keys` entries: bucket count for a
    /// ≤50% design load, and a filter sized so the false-positive rate at
    /// that load stays low (~1% at 8 cells/key with two hashes).
    pub fn for_capacity(keys: u64) -> Self {
        let buckets = (keys * 2).div_ceil(SLOTS_PER_BUCKET as u64).max(4);
        CuckooConfig {
            buckets,
            filter_cells: (keys as usize * 8).max(64),
            filter_hashes: 2,
            max_plan_steps: 64,
        }
    }
}

/// A slot position in the remote table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SlotRef {
    /// Bucket index.
    pub bucket: u64,
    /// Slot within the bucket (`0..SLOTS_PER_BUCKET`).
    pub slot: usize,
}

/// Why a plan could not be built.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CuckooError {
    /// No placement was found within the relocation budget (or a relocation
    /// cycle was detected). The directory is left exactly as it was.
    TableFull,
}

/// One wire operation of a relocation plan, to be executed **in order**.
///
/// `filter_add` flips are applied to the data plane's live filter at the
/// instant the corresponding destination WRITE is issued into the reliable
/// channel: the channel executes ops in issue order at the responder, so any
/// bucket READ the (now-redirected) data plane issues afterwards observes
/// the write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Write `key`/`action` into slot `to` (a fresh insert or an in-place
    /// action update). `filter_add` is set when `to` is the key's secondary
    /// bucket.
    Write {
        /// Key being written.
        key: FiveTuple,
        /// Its action.
        action: ActionEntry,
        /// Destination slot.
        to: SlotRef,
        /// Insert `key` into the live filter when issuing this write.
        filter_add: bool,
    },
    /// Relocate `key` from its h1 slot `from` to its h2 slot `to`
    /// (READ-verify the source, WRITE the destination, filter-add the key).
    /// The source copy is left in place — it keeps the key findable until
    /// the filter add lands — and is reclaimed by a later step.
    Move {
        /// Key being relocated.
        key: FiveTuple,
        /// Its action (travels with it).
        action: ActionEntry,
        /// Source slot (in the key's h1 bucket).
        from: SlotRef,
        /// Destination slot (in the key's h2 bucket).
        to: SlotRef,
    },
    /// Zero slot `at`. `filter_sub` removes the named key from the live
    /// filter (set when deleting a secondary-resident key).
    Clear {
        /// Slot to zero.
        at: SlotRef,
        /// Key to remove from the live filter, if any.
        filter_sub: Option<FiveTuple>,
    },
}

/// An ordered step list realizing one insert or delete, plus its cost.
#[derive(Clone, Debug, Default)]
pub struct Plan {
    /// Wire steps in execution order.
    pub steps: Vec<Step>,
    /// Cuckoo displacements in the plan (relocation chain length).
    pub moves: u32,
    /// Displacements forced purely to keep filter increments from
    /// misdirecting an h1-resident key (EMOMA's consistency moves).
    pub fp_moves: u32,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Slot {
    key: FiveTuple,
    action: ActionEntry,
}

/// Undo-log entry for planner backtracking.
enum Mut {
    SlotSet { at: SlotRef, prev: Option<Slot> },
    FilterAdd(FiveTuple),
}

#[derive(Clone, Copy)]
struct Mark {
    log: usize,
    steps: usize,
    moves: u32,
    fp_moves: u32,
}

#[derive(Default)]
struct PlanCtx {
    steps: Vec<Step>,
    moves: u32,
    fp_moves: u32,
    log: Vec<Mut>,
    charged: usize,
    in_flight: BTreeSet<FiveTuple>,
}

impl PlanCtx {
    fn mark(&self) -> Mark {
        Mark {
            log: self.log.len(),
            steps: self.steps.len(),
            moves: self.moves,
            fp_moves: self.fp_moves,
        }
    }
}

/// The control-plane cuckoo directory: authoritative table contents, the
/// planned filter, and the relocation planner.
///
/// The directory is the source of truth: [`CuckooDirectory::encode_region`]
/// generates the exact byte image the remote region must hold.
#[derive(Clone)]
pub struct CuckooDirectory {
    cfg: CuckooConfig,
    buckets: Vec<[Option<Slot>; SLOTS_PER_BUCKET]>,
    index: BTreeMap<FiveTuple, SlotRef>,
    filter: ChoiceFilter,
    /// h1-resident keys (with distinct hashes) grouped by each filter cell
    /// they touch: the candidate set for misdirection when a cell goes 0→1.
    h1_by_cell: BTreeMap<u32, BTreeSet<FiveTuple>>,
}

impl CuckooDirectory {
    /// An empty directory with the given geometry.
    pub fn new(cfg: CuckooConfig) -> Self {
        assert!(cfg.buckets > 0, "need at least one bucket");
        CuckooDirectory {
            buckets: vec![[None; SLOTS_PER_BUCKET]; cfg.buckets as usize],
            index: BTreeMap::new(),
            filter: ChoiceFilter::new(cfg.filter_cells, cfg.filter_hashes),
            h1_by_cell: BTreeMap::new(),
            cfg,
        }
    }

    /// The directory's geometry.
    pub fn config(&self) -> &CuckooConfig {
        &self.cfg
    }

    /// Resident key count.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no keys are resident.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Total slot capacity.
    pub fn capacity(&self) -> usize {
        self.cfg.buckets as usize * SLOTS_PER_BUCKET
    }

    /// Size of the remote region backing this table, in bytes.
    pub fn region_bytes(&self) -> u64 {
        self.cfg.buckets * BUCKET_BYTES as u64
    }

    /// The planned filter (what the data plane's live filter converges to).
    pub fn filter(&self) -> &ChoiceFilter {
        &self.filter
    }

    /// The key's two candidate buckets.
    pub fn bucket_pair(&self, key: &FiveTuple) -> (u64, u64) {
        cuckoo_buckets(key, self.cfg.buckets)
    }

    /// The bucket the data plane would probe for `key` under the *planned*
    /// filter.
    pub fn probe(&self, key: &FiveTuple) -> u64 {
        probe_with(&self.filter, key, self.cfg.buckets)
    }

    /// Current action for `key`, if resident.
    pub fn lookup(&self, key: &FiveTuple) -> Option<ActionEntry> {
        let at = self.index.get(key)?;
        self.buckets[at.bucket as usize][at.slot].map(|s| s.action)
    }

    /// Where `key` currently resides, if anywhere.
    pub fn position(&self, key: &FiveTuple) -> Option<SlotRef> {
        self.index.get(key).copied()
    }

    /// Insert or update `key`, discarding the wire plan (offline population
    /// before a region image is installed).
    pub fn install(&mut self, key: FiveTuple, action: ActionEntry) -> Result<(), CuckooError> {
        self.plan_insert(key, action).map(|_| ())
    }

    /// Plan an insert (or in-place action update) of `key`. On success the
    /// directory and planned filter are already updated and the returned
    /// steps realize the change on the wire; on failure the directory is
    /// untouched.
    pub fn plan_insert(
        &mut self,
        key: FiveTuple,
        action: ActionEntry,
    ) -> Result<Plan, CuckooError> {
        let mut pc = PlanCtx::default();
        let zero = pc.mark();
        match self.plan_insert_inner(key, action, &mut pc) {
            Ok(()) => {
                add_stale_clears(&mut pc.steps);
                Ok(Plan {
                    steps: pc.steps,
                    moves: pc.moves,
                    fp_moves: pc.fp_moves,
                })
            }
            Err(e) => {
                self.rollback_to(&mut pc, zero);
                Err(e)
            }
        }
    }

    /// Plan a delete of `key`; `None` when the key is not resident. Deletes
    /// never relocate: the slot is zeroed and, for a secondary-resident key,
    /// the filter is decremented (a decrement can only turn queries
    /// negative, which never misdirects an h1-resident key).
    pub fn plan_remove(&mut self, key: &FiveTuple) -> Option<Plan> {
        let at = *self.index.get(key)?;
        let (b1, b2) = self.bucket_pair(key);
        let secondary = at.bucket == b2 && b1 != b2;
        let mut pc = PlanCtx::default();
        self.set_slot(at, None, &mut pc);
        let filter_sub = if secondary {
            self.filter.remove(key);
            Some(*key)
        } else {
            None
        };
        pc.steps.push(Step::Clear { at, filter_sub });
        Some(Plan {
            steps: pc.steps,
            moves: 0,
            fp_moves: 0,
        })
    }

    fn plan_insert_inner(
        &mut self,
        key: FiveTuple,
        action: ActionEntry,
        pc: &mut PlanCtx,
    ) -> Result<(), CuckooError> {
        if let Some(at) = self.index.get(&key).copied() {
            // In-place action update: residency and filter are unchanged.
            self.set_slot(at, Some(Slot { key, action }), pc);
            pc.steps.push(Step::Write {
                key,
                action,
                to: at,
                filter_add: false,
            });
            return Ok(());
        }
        let (b1, b2) = self.bucket_pair(&key);
        loop {
            self.charge(pc)?;
            if b1 != b2 && self.filter.contains(&key) {
                // The data plane's query for this key is already positive
                // (aliasing on other keys' counters): it will probe h2 no
                // matter what, so the key must live there.
                return self.place_secondary(key, action, pc);
            }
            if let Some(slot) = self.free_slot(b1) {
                let to = SlotRef { bucket: b1, slot };
                self.set_slot(to, Some(Slot { key, action }), pc);
                pc.steps.push(Step::Write {
                    key,
                    action,
                    to,
                    filter_add: false,
                });
                return Ok(());
            }
            if b1 != b2 && self.free_slot(b2).is_some() {
                return self.place_secondary(key, action, pc);
            }
            // Both candidates full: make room in h1 (preferred — the key
            // stays primary-resident and needs no filter entry), falling
            // back to displacing into h2.
            let mark = pc.mark();
            match self.make_room(b1, pc) {
                // Re-check from the top: the displacement's filter adds may
                // have flipped this key's own query positive.
                Ok(_) => continue,
                Err(e) => {
                    self.rollback_to(pc, mark);
                    if b1 == b2 {
                        return Err(e);
                    }
                    let mark = pc.mark();
                    let r = self.place_secondary(key, action, pc);
                    if r.is_err() {
                        self.rollback_to(pc, mark);
                    }
                    return r;
                }
            }
        }
    }

    /// Place `key` in its secondary bucket: pre-relocate every h1-resident
    /// key the filter add would misdirect, make room if needed, then write
    /// and filter-add.
    fn place_secondary(
        &mut self,
        key: FiveTuple,
        action: ActionEntry,
        pc: &mut PlanCtx,
    ) -> Result<(), CuckooError> {
        let (_, b2) = self.bucket_pair(&key);
        loop {
            self.charge(pc)?;
            self.fix_new_positives(&key, pc)?;
            // No filter mutation can happen between the fix above and the
            // placement below, so the add is safe once a slot is free.
            if let Some(slot) = self.free_slot(b2) {
                let to = SlotRef { bucket: b2, slot };
                self.set_slot(to, Some(Slot { key, action }), pc);
                self.filter_add(&key, pc);
                pc.steps.push(Step::Write {
                    key,
                    action,
                    to,
                    filter_add: true,
                });
                return Ok(());
            }
            self.make_room(b2, pc)?;
        }
    }

    /// Relocate `key` from its h1 bucket to its h2 bucket (the only move
    /// direction). Emits the fix-up moves its filter add forces *first*, so
    /// executing the steps in order never misdirects any resident key.
    fn move_to_secondary(&mut self, key: FiveTuple, pc: &mut PlanCtx) -> Result<(), CuckooError> {
        self.charge(pc)?;
        if !pc.in_flight.insert(key) {
            // Relocation cycle: this key's move is already in progress
            // higher up the chain. No emission order can satisfy both
            // constraints; fail this branch.
            return Err(CuckooError::TableFull);
        }
        let r = self.move_to_secondary_inner(key, pc);
        pc.in_flight.remove(&key);
        r
    }

    fn move_to_secondary_inner(
        &mut self,
        key: FiveTuple,
        pc: &mut PlanCtx,
    ) -> Result<(), CuckooError> {
        // Only a resident key moves: every caller found it in a bucket.
        let (Some(&from), Some(action)) = (self.index.get(&key), self.lookup(&key)) else {
            return Err(CuckooError::TableFull);
        };
        let (b1, b2) = self.bucket_pair(&key);
        debug_assert!(from.bucket == b1 && b1 != b2, "one-way move precondition");
        loop {
            self.charge(pc)?;
            self.fix_new_positives(&key, pc)?;
            if let Some(slot) = self.free_slot(b2) {
                let to = SlotRef { bucket: b2, slot };
                self.set_slot(from, None, pc);
                self.set_slot(to, Some(Slot { key, action }), pc);
                self.filter_add(&key, pc);
                pc.steps.push(Step::Move {
                    key,
                    action,
                    from,
                    to,
                });
                pc.moves += 1;
                return Ok(());
            }
            self.make_room(b2, pc)?;
        }
    }

    /// Free one slot in bucket `b` by relocating an h1-resident occupant to
    /// its secondary bucket, trying victims in slot order and backtracking
    /// on failure.
    fn make_room(&mut self, b: u64, pc: &mut PlanCtx) -> Result<usize, CuckooError> {
        self.charge(pc)?;
        for slot in 0..SLOTS_PER_BUCKET {
            let Some(occ) = self.buckets[b as usize][slot] else {
                return Ok(slot);
            };
            let (k1, k2) = self.bucket_pair(&occ.key);
            if k1 != b || k2 == b {
                // Secondary-resident or degenerate occupants cannot move
                // (moves are strictly h1→h2).
                continue;
            }
            let mark = pc.mark();
            match self.move_to_secondary(occ.key, pc) {
                Ok(()) => return Ok(slot),
                Err(_) => self.rollback_to(pc, mark),
            }
        }
        Err(CuckooError::TableFull)
    }

    /// Relocate, one at a time and re-evaluating after each, every
    /// h1-resident key whose filter query would flip positive if `key`'s
    /// cells were incremented.
    fn fix_new_positives(&mut self, key: &FiveTuple, pc: &mut PlanCtx) -> Result<(), CuckooError> {
        loop {
            let victims = self.new_positives(key);
            let Some(victim) = victims.first().copied() else {
                return Ok(());
            };
            self.move_to_secondary(victim, pc)?;
            pc.fp_moves += 1;
        }
    }

    /// h1-resident keys (other than `key` itself) whose query turns
    /// positive under a hypothetical `filter.insert(key)`, in deterministic
    /// (sorted) order.
    fn new_positives(&self, key: &FiveTuple) -> Vec<FiveTuple> {
        // Only cells going 0→1 can flip another key's query.
        let flipping: BTreeSet<u32> = self
            .filter
            .cells_of(key)
            .filter(|&c| self.filter.count(c) == 0)
            .collect();
        if flipping.is_empty() {
            return Vec::new();
        }
        let mut out = BTreeSet::new();
        for c in &flipping {
            let Some(candidates) = self.h1_by_cell.get(c) else {
                continue;
            };
            for cand in candidates {
                if cand == key || out.contains(cand) {
                    continue;
                }
                let positive = self
                    .filter
                    .cells_of(cand)
                    .all(|cc| self.filter.count(cc) > 0 || flipping.contains(&cc));
                if positive {
                    out.insert(*cand);
                }
            }
        }
        out.into_iter().collect()
    }

    fn charge(&self, pc: &mut PlanCtx) -> Result<(), CuckooError> {
        pc.charged += 1;
        if pc.charged > self.cfg.max_plan_steps * 4 {
            return Err(CuckooError::TableFull);
        }
        Ok(())
    }

    fn free_slot(&self, b: u64) -> Option<usize> {
        self.buckets[b as usize].iter().position(|s| s.is_none())
    }

    /// Set a slot, maintaining `index` and `h1_by_cell`, logging for undo.
    fn set_slot(&mut self, at: SlotRef, val: Option<Slot>, pc: &mut PlanCtx) {
        let prev = self.set_slot_raw(at, val);
        pc.log.push(Mut::SlotSet { at, prev });
    }

    fn set_slot_raw(&mut self, at: SlotRef, val: Option<Slot>) -> Option<Slot> {
        let prev = self.buckets[at.bucket as usize][at.slot];
        if let Some(old) = prev {
            self.index.remove(&old.key);
            self.track_h1(&old.key, at.bucket, false);
        }
        if let Some(new) = val {
            self.index.insert(new.key, at);
            self.track_h1(&new.key, at.bucket, true);
        }
        self.buckets[at.bucket as usize][at.slot] = val;
        prev
    }

    /// Maintain the cell→h1-resident-keys reverse map for a key entering or
    /// leaving residency at `bucket`.
    fn track_h1(&mut self, key: &FiveTuple, bucket: u64, present: bool) {
        let (b1, b2) = self.bucket_pair(key);
        if bucket != b1 || b1 == b2 {
            return;
        }
        for c in self.filter.cells_of(key) {
            if present {
                self.h1_by_cell.entry(c).or_default().insert(*key);
            } else if let Some(set) = self.h1_by_cell.get_mut(&c) {
                set.remove(key);
                if set.is_empty() {
                    self.h1_by_cell.remove(&c);
                }
            }
        }
    }

    fn filter_add(&mut self, key: &FiveTuple, pc: &mut PlanCtx) {
        self.filter.insert(key);
        pc.log.push(Mut::FilterAdd(*key));
    }

    fn rollback_to(&mut self, pc: &mut PlanCtx, mark: Mark) {
        for undo in pc.log.drain(mark.log.min(pc.log.len())..).rev() {
            match undo {
                Mut::SlotSet { at, prev } => {
                    self.set_slot_raw(at, prev);
                }
                Mut::FilterAdd(key) => self.filter.remove(&key),
            }
        }
        pc.steps.truncate(mark.steps);
        pc.moves = mark.moves;
        pc.fp_moves = mark.fp_moves;
    }

    /// The byte image of one bucket.
    pub fn encode_bucket(&self, bucket: u64) -> [u8; BUCKET_BYTES] {
        let mut b = [0u8; BUCKET_BYTES];
        for (slot, occ) in self.buckets[bucket as usize].iter().enumerate() {
            if let Some(s) = occ {
                b[slot * SLOT_BYTES..(slot + 1) * SLOT_BYTES]
                    .copy_from_slice(&encode_slot(&s.key, &s.action));
            }
        }
        b
    }

    /// The byte image of the whole remote region (zeroed empty slots).
    pub fn encode_region(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.region_bytes() as usize);
        for b in 0..self.cfg.buckets {
            out.extend_from_slice(&self.encode_bucket(b));
        }
        out
    }

    /// One byte per slot, bucket by bucket: 0 for an empty slot, else its
    /// key's [`slot_fingerprint`]. The fingerprints of the image
    /// [`crate::lookup::install_cuckoo_image`] installs, which the data
    /// plane's live fingerprints start from.
    pub fn fingerprints(&self) -> Vec<u8> {
        let fingerprint = |occ: &Option<Slot>| occ.map_or(0, |s| slot_fingerprint(&s.key));
        self.buckets.iter().flatten().map(fingerprint).collect()
    }

    /// Panic unless every structural and filter invariant holds (see module
    /// docs). Test-suite instrumentation; O(keys · cells/key).
    pub fn check_invariants(&self) {
        // index ↔ buckets agreement.
        let mut seen = 0usize;
        for (b, bucket) in self.buckets.iter().enumerate() {
            for (slot, occ) in bucket.iter().enumerate() {
                let Some(s) = occ else { continue };
                seen += 1;
                let at = SlotRef {
                    bucket: b as u64,
                    slot,
                };
                assert_eq!(self.index.get(&s.key), Some(&at), "index mismatch");
                let (b1, b2) = self.bucket_pair(&s.key);
                assert!(at.bucket == b1 || at.bucket == b2, "key outside candidates");
                if b1 != b2 {
                    if at.bucket == b2 {
                        assert!(self.filter.contains(&s.key), "secondary key not positive");
                    } else {
                        assert!(!self.filter.contains(&s.key), "misdirected h1 key");
                    }
                } else {
                    assert_eq!(at.bucket, b1, "degenerate key off its bucket");
                }
            }
        }
        assert_eq!(seen, self.index.len(), "index size mismatch");
        // The planned filter is exactly the multiset of secondary residents.
        let mut rebuilt = ChoiceFilter::new(self.cfg.filter_cells, self.cfg.filter_hashes);
        let mut h1_rebuilt: BTreeMap<u32, BTreeSet<FiveTuple>> = BTreeMap::new();
        for (key, at) in &self.index {
            let (b1, b2) = self.bucket_pair(key);
            if b1 == b2 {
                continue;
            }
            if at.bucket == b2 {
                rebuilt.insert(key);
            } else {
                for c in rebuilt.cells_of(key) {
                    h1_rebuilt.entry(c).or_default().insert(*key);
                }
            }
        }
        assert_eq!(
            self.filter.raw_counts(),
            rebuilt.raw_counts(),
            "filter counters drifted from secondary residency"
        );
        assert_eq!(self.h1_by_cell, h1_rebuilt, "h1 reverse map drifted");
    }
}

/// Append `Clear`s for `Move` sources no later step overwrites: the executor
/// leaves source bytes in place (they keep the key findable until its filter
/// add lands), so unclaimed sources must be zeroed for the remote region to
/// converge to the directory image.
fn add_stale_clears(steps: &mut Vec<Step>) {
    let mut extra = Vec::new();
    for (i, s) in steps.iter().enumerate() {
        if let Step::Move { from, .. } = s {
            let claimed = steps[i + 1..].iter().any(|later| match later {
                Step::Write { to, .. } | Step::Move { to, .. } => to == from,
                Step::Clear { at, .. } => at == from,
            });
            if !claimed {
                extra.push(Step::Clear {
                    at: *from,
                    filter_sub: None,
                });
            }
        }
    }
    steps.extend(extra);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(n: u32) -> FiveTuple {
        FiveTuple::new(
            0x0a00_0000 + n,
            0x0a63_0001,
            1000 + (n % 60_000) as u16,
            80,
            6,
        )
    }

    fn small() -> CuckooDirectory {
        CuckooDirectory::new(CuckooConfig {
            buckets: 16,
            filter_cells: 256,
            filter_hashes: 2,
            max_plan_steps: 64,
        })
    }

    /// Execute a plan against a byte image + live filter the way the wire
    /// executor would, checking the no-transient-miss invariant after every
    /// step for the given resident keys.
    fn replay(
        region: &mut [u8],
        live: &mut ChoiceFilter,
        plan: &Plan,
        buckets: u64,
        must_stay_findable: &[(FiveTuple, ActionEntry)],
    ) {
        let find = |region: &[u8], live: &ChoiceFilter, key: &FiveTuple| -> Option<ActionEntry> {
            let b = probe_with(live, key, buckets);
            let base = b as usize * BUCKET_BYTES;
            for s in 0..SLOTS_PER_BUCKET {
                let at = base + s * SLOT_BYTES;
                if let Some((k, a)) = decode_slot(&region[at..at + SLOT_BYTES]) {
                    if k == *key {
                        return Some(a);
                    }
                }
            }
            None
        };
        for step in &plan.steps {
            match *step {
                Step::Write {
                    key,
                    action,
                    to,
                    filter_add,
                } => {
                    let va = slot_va(0, to) as usize;
                    region[va..va + SLOT_BYTES].copy_from_slice(&encode_slot(&key, &action));
                    if filter_add {
                        live.insert(&key);
                    }
                }
                Step::Move {
                    key, action, to, ..
                } => {
                    let va = slot_va(0, to) as usize;
                    region[va..va + SLOT_BYTES].copy_from_slice(&encode_slot(&key, &action));
                    live.insert(&key);
                }
                Step::Clear { at, filter_sub } => {
                    let va = slot_va(0, at) as usize;
                    region[va..va + SLOT_BYTES].fill(0);
                    if let Some(k) = filter_sub {
                        live.remove(&k);
                    }
                }
            }
            for (k, a) in must_stay_findable {
                assert_eq!(
                    find(region, live, k),
                    Some(*a),
                    "key lost mid-plan at step {step:?}"
                );
            }
        }
    }

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let mut dir = small();
        for n in 0..20 {
            dir.plan_insert(flow(n), ActionEntry::set_dscp(n as u8))
                .unwrap();
            dir.check_invariants();
        }
        assert_eq!(dir.len(), 20);
        for n in 0..20 {
            assert_eq!(dir.lookup(&flow(n)), Some(ActionEntry::set_dscp(n as u8)));
            let at = dir.position(&flow(n)).unwrap();
            assert_eq!(dir.probe(&flow(n)), at.bucket, "probe must hit residency");
        }
        for n in 0..20 {
            assert!(dir.plan_remove(&flow(n)).is_some());
            dir.check_invariants();
        }
        assert!(dir.is_empty());
        assert_eq!(dir.filter().occupied_cells(), 0);
        assert_eq!(dir.filter().stats().underflows, 0);
    }

    #[test]
    fn update_in_place_keeps_position() {
        let mut dir = small();
        dir.plan_insert(flow(1), ActionEntry::set_dscp(10)).unwrap();
        let at = dir.position(&flow(1)).unwrap();
        let plan = dir.plan_insert(flow(1), ActionEntry::set_dscp(20)).unwrap();
        assert_eq!(plan.steps.len(), 1);
        assert_eq!(plan.moves, 0);
        assert_eq!(dir.position(&flow(1)), Some(at));
        assert_eq!(dir.lookup(&flow(1)), Some(ActionEntry::set_dscp(20)));
    }

    #[test]
    fn displacement_chains_preserve_findability() {
        // Load a small table far enough that displacements must happen, and
        // replay every plan byte-for-byte checking no key is ever lost.
        let mut dir = small(); // 64 slots
        let mut region = vec![0u8; dir.region_bytes() as usize];
        let mut live = dir.filter().clone();
        let mut resident: Vec<(FiveTuple, ActionEntry)> = Vec::new();
        let mut moves = 0;
        for n in 0..52 {
            let a = ActionEntry::set_dscp((n % 60) as u8);
            match dir.plan_insert(flow(n), a) {
                Ok(plan) => {
                    moves += plan.moves;
                    replay(&mut region, &mut live, &plan, 16, &resident);
                    resident.push((flow(n), a));
                    dir.check_invariants();
                }
                Err(CuckooError::TableFull) => {}
            }
        }
        assert!(moves > 0, "52/64 load never displaced anything");
        assert_eq!(region, dir.encode_region(), "wire image diverged");
        assert_eq!(
            live.raw_counts(),
            dir.filter().raw_counts(),
            "live filter diverged"
        );
    }

    #[test]
    fn table_full_rejects_without_mutation() {
        let mut dir = CuckooDirectory::new(CuckooConfig {
            buckets: 2,
            filter_cells: 64,
            filter_hashes: 2,
            max_plan_steps: 16,
        });
        let mut held = Vec::new();
        let mut rejected = 0;
        for n in 0..64 {
            let before_len = dir.len();
            let before_counts = dir.filter().raw_counts().to_vec();
            match dir.plan_insert(flow(n), ActionEntry::set_dscp(1)) {
                Ok(_) => held.push(flow(n)),
                Err(CuckooError::TableFull) => {
                    rejected += 1;
                    assert_eq!(dir.len(), before_len, "reject mutated len");
                    assert_eq!(
                        dir.filter().raw_counts(),
                        &before_counts[..],
                        "reject mutated filter"
                    );
                    dir.check_invariants();
                }
            }
        }
        assert!(rejected > 0, "8-slot table accepted 64 keys");
        for k in &held {
            assert!(dir.lookup(k).is_some(), "accepted key lost");
        }
    }

    #[test]
    fn degenerate_keys_stay_primary_and_unfiltered() {
        let buckets = 8u64;
        let mut dir = CuckooDirectory::new(CuckooConfig {
            buckets,
            filter_cells: 128,
            filter_hashes: 2,
            max_plan_steps: 64,
        });
        let degenerate = (0..3000u32)
            .map(flow)
            .find(|f| {
                let (a, b) = cuckoo_buckets(f, buckets);
                a == b
            })
            .expect("no degenerate key in 3000 at 8 buckets");
        dir.plan_insert(degenerate, ActionEntry::set_dscp(1))
            .unwrap();
        let (b1, _) = cuckoo_buckets(&degenerate, buckets);
        assert_eq!(dir.position(&degenerate).unwrap().bucket, b1);
        assert_eq!(dir.probe(&degenerate), b1);
        assert_eq!(dir.filter().stats().inserts, 0, "degenerate key filtered");
        dir.check_invariants();
    }

    #[test]
    fn remove_restores_filter_exactly() {
        let mut dir = small();
        for n in 0..40 {
            let _ = dir.plan_insert(flow(n), ActionEntry::set_dscp(5));
        }
        let before = dir.filter().raw_counts().to_vec();
        let extra: Vec<FiveTuple> = (100..130).map(flow).collect();
        let mut added = Vec::new();
        for k in &extra {
            if dir.plan_insert(*k, ActionEntry::set_dscp(9)).is_ok() {
                added.push(*k);
            }
        }
        for k in added.iter().rev() {
            // Note: removing the batch can't restore `before` exactly if
            // the inserts displaced pre-existing keys (those keep their new
            // secondary residency) — so only assert the invariants, and
            // exact restoration when nothing was displaced.
            dir.plan_remove(k).unwrap();
        }
        dir.check_invariants();
        let after = dir.filter().raw_counts().to_vec();
        // Every pre-existing key must still be found where the probe says.
        for n in 0..40 {
            if let Some(at) = dir.position(&flow(n)) {
                assert_eq!(dir.probe(&flow(n)), at.bucket);
            }
        }
        // Counters can only have grown (displaced keys), never shrunk below.
        for (b, a) in before.iter().zip(after.iter()) {
            assert!(a >= b, "counter shrank below pre-churn value");
        }
    }
}
