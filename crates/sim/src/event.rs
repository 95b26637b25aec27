//! Deterministic event queue.
//!
//! An arena-backed two-tier bucket ("calendar") queue keyed by
//! `(time, sequence)`. The sequence number makes pops of simultaneous
//! events FIFO in push order, which is the property that keeps the whole
//! simulator deterministic: two runs of the same program produce identical
//! resource-acquisition orders and therefore identical virtual timings.
//!
//! Layout: a near-future ring of fixed-width time buckets (width
//! `2^BUCKET_SHIFT` ps) holds events close to the current clock; events
//! beyond the ring land in a far-future overflow heap. Buckets partition
//! the time axis, so the first occupied bucket always contains the global
//! near minimum; within a bucket, nodes are kept in `(time, seq)`-stable
//! append order so the first node carrying the bucket's minimum timestamp
//! is also the lowest-sequence one. The far heap only drains into the ring
//! ("migration") when the ring is empty, re-anchoring the ring base; every
//! far event then lives in a bucket at or beyond the new base, so far
//! events are never earlier than near ones.
//!
//! Node storage is struct-of-arrays (`at` / `next` / `slot` indexed by a
//! `u32` arena id); near nodes carry no sequence number at all because
//! bucket append order *is* sequence order — only the far heap keeps
//! explicit sequences in its tuples. Pops are batch-drained: one pass over
//! the first occupied bucket extracts every event sharing the minimal
//! timestamp, and subsequent pops serve from that batch in O(1) without
//! touching the bitmap or bucket lists.
//!
//! Pushes at exactly the current timestamp — the dominant pattern in
//! dependency-driven programs, where finishing one op readies the next at
//! the same instant — append straight onto the live batch: a refill takes
//! *every* pending event at the minimum timestamp with it, so nothing at
//! `now` remains in the buckets or the far heap, and an appended event's
//! sequence number is by construction larger than everything already in
//! the batch. The append is therefore exact FIFO order at O(1), skipping
//! node allocation, the bucket list and the next bitmap scan entirely.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::Time;

/// log2 of the bucket width in picoseconds (2^16 ps ≈ 65.5 ns).
const BUCKET_SHIFT: u32 = 16;
/// Number of near-future buckets; the ring spans `NBUCKETS << BUCKET_SHIFT`
/// picoseconds (≈ 67 µs) past its base.
const NBUCKETS: usize = 1024;
const OCC_WORDS: usize = NBUCKETS / 64;
const NIL: u32 = u32::MAX;

/// Engine counters accumulated over the queue's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct EngineStats {
    /// Events scheduled.
    pub pushes: u64,
    /// Events processed.
    pub pops: u64,
    /// Events scheduled in the past and clamped to `now` (release builds
    /// only — debug builds panic instead). Nonzero means a simulator bug.
    pub clamped: u64,
    /// High-water mark of pending events.
    pub max_depth: u64,
    /// Pops served from a same-timestamp batch beyond its first event,
    /// i.e. pops that skipped the bitmap scan and bucket walk entirely.
    pub batched_pops: u64,
    /// Largest same-timestamp batch drained in one bucket pass.
    pub max_batch: u64,
}

impl EngineStats {
    /// Accumulate another engine's counters (max-merges the high-water
    /// marks `max_depth` and `max_batch`).
    pub fn merge(&mut self, other: &EngineStats) {
        self.pushes += other.pushes;
        self.pops += other.pops;
        self.clamped += other.clamped;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.batched_pops += other.batched_pops;
        self.max_batch = self.max_batch.max(other.max_batch);
    }
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
    /// Exact minimum timestamp over the bucket's list (valid when occupied).
    min_at: Time,
}

const EMPTY_BUCKET: Bucket = Bucket {
    head: NIL,
    tail: NIL,
    min_at: Time::ZERO,
};

/// An event queue over payloads of type `E`.
///
/// Node state lives in parallel arrays indexed by `u32` arena slot; freed
/// slots are threaded through `next` as a free list, so steady-state churn
/// allocates nothing. [`EventQueue::reset`] rewinds the queue for reuse
/// across simulations while keeping every allocation.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Timestamp of each arena slot (SoA with `next` / `slot`).
    at: Vec<Time>,
    /// Intrusive bucket list / free list link of each arena slot.
    next: Vec<u32>,
    /// Payload of each arena slot (`None` while on the free list).
    slot: Vec<Option<E>>,
    free: u32,
    buckets: Vec<Bucket>,
    occ: [u64; OCC_WORDS],
    /// Bucket index (absolute, `time >> BUCKET_SHIFT`) of ring slot 0.
    base: u64,
    near_len: usize,
    /// Lower bound on the first occupied ring slot. Pushes never land
    /// before `now`, so after a drain at slot `r` the next occupied slot is
    /// `>= r` until a migration or empty-queue re-anchor resets the ring;
    /// the bitmap scan starts here instead of word 0.
    cursor: usize,
    /// Far-future overflow: min-heap on `(time, seq)`; the `u32` is the
    /// arena slot holding the payload.
    far: BinaryHeap<Reverse<(Time, u64, u32)>>,
    seq: u64,
    now: Time,
    /// Same-timestamp batch being served, in pop order (front to back).
    /// All events are at `batch_at`; pushes at `now` append at the back.
    batch: VecDeque<E>,
    batch_at: Time,
    stats: EngineStats,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            at: Vec::new(),
            next: Vec::new(),
            slot: Vec::new(),
            free: NIL,
            buckets: vec![EMPTY_BUCKET; NBUCKETS],
            occ: [0; OCC_WORDS],
            base: 0,
            near_len: 0,
            cursor: NBUCKETS,
            far: BinaryHeap::new(),
            seq: 0,
            now: Time::ZERO,
            batch: VecDeque::new(),
            batch_at: Time::ZERO,
            stats: EngineStats::default(),
        }
    }

    /// Rewind to the just-constructed state while keeping every arena,
    /// bucket and batch allocation — the per-worker "bump arena" pattern:
    /// one queue per thread, `reset()` between simulations. When the queue
    /// already drained to empty (the normal end of a run) this touches no
    /// bucket memory at all.
    pub fn reset(&mut self) {
        if self.near_len > 0 {
            let mut w = 0;
            while w < OCC_WORDS {
                let mut bits = self.occ[w];
                while bits != 0 {
                    let r = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    self.buckets[r] = EMPTY_BUCKET;
                }
                self.occ[w] = 0;
                w += 1;
            }
            self.near_len = 0;
        }
        self.at.clear();
        self.next.clear();
        self.slot.clear();
        self.free = NIL;
        self.base = 0;
        self.cursor = NBUCKETS;
        self.far.clear();
        self.seq = 0;
        self.now = Time::ZERO;
        self.batch.clear();
        self.stats = EngineStats::default();
    }

    fn alloc(&mut self, at: Time, payload: E) -> u32 {
        if self.free != NIL {
            let i = self.free;
            self.free = self.next[i as usize];
            self.at[i as usize] = at;
            self.next[i as usize] = NIL;
            self.slot[i as usize] = Some(payload);
            i
        } else {
            self.at.push(at);
            self.next.push(NIL);
            self.slot.push(Some(payload));
            (self.at.len() - 1) as u32
        }
    }

    /// Append an arena node to ring slot `r`, maintaining append order and
    /// the bucket's exact minimum.
    fn bucket_append(&mut self, r: usize, i: u32) {
        let at = self.at[i as usize];
        let b = &mut self.buckets[r];
        if b.head == NIL {
            b.head = i;
            b.tail = i;
            b.min_at = at;
            self.occ[r / 64] |= 1u64 << (r % 64);
            self.cursor = self.cursor.min(r);
        } else {
            let t = b.tail;
            b.tail = i;
            b.min_at = b.min_at.min(at);
            self.next[t as usize] = i;
        }
        self.near_len += 1;
    }

    /// Slot of the first occupied bucket, if any. Starts the bitmap scan
    /// at the monotone cursor (no occupied slot can be below it).
    fn first_occupied(&self) -> Option<usize> {
        for w in self.cursor / 64..OCC_WORDS {
            let bits = self.occ[w];
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Refill the batch from the first occupied bucket: one pass over its
    /// list moves *every* node carrying the bucket minimum into the batch
    /// (in FIFO append order), relinks the rest in place, and recomputes
    /// the remainder's exact minimum. Returns `false` when the queue is
    /// exhausted.
    fn refill_batch(&mut self) -> bool {
        debug_assert!(self.batch.is_empty());
        if self.near_len == 0 {
            self.migrate();
        }
        let Some(r) = self.first_occupied() else {
            return false;
        };
        self.cursor = r;
        let min_at = self.buckets[r].min_at;
        let mut head = NIL;
        let mut tail = NIL;
        let mut rest_min = Time::MAX;
        let mut cur = self.buckets[r].head;
        let mut k = 0u64;
        while cur != NIL {
            let i = cur as usize;
            let nxt = self.next[i];
            if self.at[i] == min_at {
                let payload = self.slot[i].take().expect("node already released");
                self.batch.push_back(payload);
                self.next[i] = self.free;
                self.free = cur;
                k += 1;
            } else {
                rest_min = rest_min.min(self.at[i]);
                if head == NIL {
                    head = cur;
                } else {
                    self.next[tail as usize] = cur;
                }
                tail = cur;
            }
            cur = nxt;
        }
        self.near_len -= k as usize;
        if head == NIL {
            self.buckets[r] = EMPTY_BUCKET;
            self.occ[r / 64] &= !(1u64 << (r % 64));
        } else {
            self.next[tail as usize] = NIL;
            self.buckets[r] = Bucket {
                head,
                tail,
                min_at: rest_min,
            };
        }
        self.batch_at = min_at;
        self.stats.batched_pops += k - 1;
        self.stats.max_batch = self.stats.max_batch.max(k);
        true
    }

    /// Drain every far-heap event that now fits the ring, re-anchoring the
    /// ring base at the far minimum. Only called when the ring is empty, so
    /// re-anchoring cannot reorder near events. The heap yields events in
    /// `(time, seq)` order, preserving stable append order in each bucket.
    fn migrate(&mut self) {
        debug_assert_eq!(self.near_len, 0);
        let Some(&Reverse((t, _, _))) = self.far.peek() else {
            return;
        };
        self.base = t.as_ps() >> BUCKET_SHIFT;
        self.cursor = NBUCKETS;
        let horizon = self.base + NBUCKETS as u64;
        while let Some(&Reverse((t, _, i))) = self.far.peek() {
            let b = t.as_ps() >> BUCKET_SHIFT;
            if b >= horizon {
                break;
            }
            self.far.pop();
            self.bucket_append((b - self.base) as usize, i);
        }
    }

    /// Schedule `payload` at absolute virtual time `at`.
    ///
    /// Scheduling in the past is a simulator bug; it panics in debug builds
    /// and is clamped to `now` (and counted in [`EngineStats::clamped`]) in
    /// release builds.
    pub fn push(&mut self, at: Time, payload: E) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: at={at:?} now={:?}",
            self.now
        );
        let at = if at < self.now {
            self.stats.clamped += 1;
            self.now
        } else {
            at
        };
        self.stats.pushes += 1;
        if at == self.now {
            // Same-instant fast path: nothing at `now` can remain outside
            // the batch (a refill takes every minimal-timestamp event with
            // it, later buckets and the far heap hold strictly later
            // times), and this push's sequence number exceeds everything
            // already batched — appending IS exact (time, seq) FIFO order.
            self.batch_at = at;
            self.batch.push_back(payload);
        } else {
            self.push_inner(at, payload);
        }
        // Every push adds one pending event and every pop removes one, so
        // `pushes - pops` IS the current depth — no need to recount.
        let depth = self.stats.pushes - self.stats.pops;
        if depth > self.stats.max_depth {
            self.stats.max_depth = depth;
        }
    }

    /// Insert into the bucket ring or the far heap (no stats accounting).
    fn push_inner(&mut self, at: Time, payload: E) {
        let seq = self.seq;
        self.seq += 1;
        if self.near_len == 0 && self.far.is_empty() {
            // Queue is empty: re-anchor the ring so the event lands near
            // slot 0 and the ring window stays useful as time advances.
            self.base = at.as_ps() >> BUCKET_SHIFT;
            self.cursor = NBUCKETS;
        }
        let b = at.as_ps() >> BUCKET_SHIFT;
        if b >= self.base + NBUCKETS as u64 {
            let i = self.alloc(at, payload);
            self.far.push(Reverse((at, seq, i)));
        } else {
            // `b < base` can only happen transiently right after a far
            // migration re-anchored the ring ahead of a not-yet-advanced
            // clock; slot 0 is still the earliest bucket, and its exact
            // `min_at` keeps ordering correct.
            let r = b.saturating_sub(self.base) as usize;
            let i = self.alloc(at, payload);
            self.bucket_append(r, i);
        }
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        if self.batch.is_empty() && !self.refill_batch() {
            return None;
        }
        let payload = self.batch.pop_front().expect("batch refilled");
        let at = self.batch_at;
        debug_assert!(at >= self.now, "event queue went backwards");
        self.now = at;
        self.stats.pops += 1;
        Some((at, payload))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<Time> {
        if !self.batch.is_empty() {
            // The batch holds the globally minimal timestamp: everything
            // pushed since the drain is at or after `now == batch_at`.
            Some(self.batch_at)
        } else if self.near_len > 0 {
            // Buckets partition time: the first occupied bucket holds the
            // global near minimum, and (ring empty ⇒ migration) far events
            // are never earlier than near ones.
            let r = self.first_occupied().expect("near_len > 0");
            Some(self.buckets[r].min_at)
        } else {
            self.far.peek().map(|&Reverse((t, _, _))| t)
        }
    }

    /// Current virtual time (timestamp of the last popped event).
    pub fn now(&self) -> Time {
        self.now
    }

    pub fn is_empty(&self) -> bool {
        self.batch.is_empty() && self.near_len == 0 && self.far.is_empty()
    }

    pub fn len(&self) -> usize {
        self.batch.len() + self.near_len + self.far.len()
    }

    /// Total number of events processed so far (engine statistic).
    pub fn processed(&self) -> u64 {
        self.stats.pops
    }

    /// Lifetime engine counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(30), "c");
        q.push(Time::from_ns(10), "a");
        q.push(Time::from_ns(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = Time::from_ns(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(10), ());
        q.push(Time::from_ns(10), ());
        q.push(Time::from_ns(25), ());
        let mut last = Time::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            assert_eq!(q.now(), t);
            last = t;
        }
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(7), ());
        assert_eq!(q.peek_time(), Some(Time::from_ns(7)));
        assert_eq!(q.now(), Time::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_sees_batch_remainder() {
        let mut q = EventQueue::new();
        let t = Time::from_ns(3);
        q.push(t, 0);
        q.push(t, 1);
        assert_eq!(q.pop(), Some((t, 0)));
        // One event is still batched; peek/len must reflect it.
        assert_eq!(q.peek_time(), Some(t));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some((t, 1)));
        assert!(q.is_empty());
    }

    /// Reference check: the calendar queue must pop in exactly the
    /// `(time, seq)` order a plain sorted list would.
    fn assert_matches_reference(pushes: &[u64]) {
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, usize)> = Vec::new();
        for (i, &ps) in pushes.iter().enumerate() {
            q.push(Time::from_ps(ps), i);
            reference.push((ps, i));
        }
        reference.sort();
        let got: Vec<(u64, usize)> = std::iter::from_fn(|| q.pop())
            .map(|(t, p)| (t.as_ps(), p))
            .collect();
        assert_eq!(got, reference);
    }

    #[test]
    fn cross_bucket_ordering_matches_reference() {
        // Times straddling bucket boundaries, duplicates included.
        let w = 1u64 << BUCKET_SHIFT;
        assert_matches_reference(&[
            3 * w + 1,
            w - 1,
            w,
            w + 1,
            0,
            w - 1,
            5 * w,
            2 * w - 1,
            2 * w,
            w,
        ]);
    }

    #[test]
    fn far_future_events_migrate_in_order() {
        let w = 1u64 << BUCKET_SHIFT;
        let ring = NBUCKETS as u64 * w;
        // Mix of near events and events far beyond the ring horizon, with
        // equal-time pairs on both sides of the migration boundary.
        assert_matches_reference(&[
            5,
            3 * ring + 7,
            ring + 1,
            5,
            3 * ring + 7,
            10 * ring,
            2 * ring + w,
            2 * ring + w,
            0,
        ]);
    }

    #[test]
    fn interleaved_push_pop_across_migrations() {
        let w = 1u64 << BUCKET_SHIFT;
        let ring = NBUCKETS as u64 * w;
        let mut q = EventQueue::new();
        q.push(Time::from_ps(1), 0u32);
        q.push(Time::from_ps(2 * ring), 1);
        assert_eq!(q.pop().unwrap().1, 0);
        // After this pop the ring is empty; the next pop migrates the far
        // event, re-anchoring base ahead of `now`. A push landing between
        // `now` and the new base must still pop first.
        q.push(Time::from_ps(2 * ring + 5), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(Time::from_ps(2 * ring + 5), 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.is_empty());
    }

    #[test]
    fn same_time_flood_within_one_bucket() {
        // Large same-timestamp bursts exercise the batch-drain path.
        let mut q = EventQueue::new();
        let t = Time::from_ps(12345);
        for i in 0..1000 {
            q.push(t, i);
        }
        // A later, earlier-within-bucket event must pop before the flood's
        // tail but after nothing (it is the new minimum).
        q.push(Time::from_ps(12000), 5000);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        let mut expect: Vec<i32> = vec![5000];
        expect.extend(0..1000);
        assert_eq!(order, expect);
        // The flood drained as one 1000-event batch (999 batched pops).
        assert_eq!(q.stats().max_batch, 1000);
        assert_eq!(q.stats().batched_pops, 999);
    }

    #[test]
    fn same_time_push_during_batch_drain_orders_after() {
        let mut q = EventQueue::new();
        let t = Time::from_ns(4);
        q.push(t, 0);
        q.push(t, 1);
        assert_eq!(q.pop(), Some((t, 0)));
        // Pushed while event 1 is still batched: must pop after it.
        q.push(t, 2);
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 2)));
        assert!(q.is_empty());
    }

    #[test]
    fn stats_track_pushes_pops_and_depth() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.push(Time::from_ns(i), i);
        }
        assert_eq!(q.stats().pushes, 10);
        assert_eq!(q.stats().max_depth, 10);
        for _ in 0..4 {
            q.pop();
        }
        assert_eq!(q.stats().pops, 4);
        assert_eq!(q.stats().clamped, 0);
        assert_eq!(q.len(), 6);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn past_events_are_clamped_and_counted() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(10), 0);
        q.pop();
        q.push(Time::from_ns(5), 1); // in the past: clamped to now
        let (t, p) = q.pop().unwrap();
        assert_eq!(t, Time::from_ns(10));
        assert_eq!(p, 1);
        assert_eq!(q.stats().clamped, 1);
    }

    #[test]
    fn arena_slots_are_recycled() {
        let mut q = EventQueue::new();
        for round in 0..50u64 {
            for i in 0..8u64 {
                q.push(Time::from_ns(round * 100 + i), i);
            }
            while q.pop().is_some() {}
        }
        // Steady-state churn must not grow the arena past the peak depth.
        assert!(q.at.len() <= 8, "arena grew to {}", q.at.len());
    }

    #[test]
    fn reset_rewinds_but_keeps_capacity() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.push(Time::from_ns(i), i);
        }
        for _ in 0..40 {
            q.pop();
        }
        let cap = q.at.capacity();
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.now(), Time::ZERO);
        assert_eq!(q.stats(), EngineStats::default());
        assert_eq!(q.at.capacity(), cap);
        // The queue behaves exactly like a fresh one.
        q.push(Time::from_ns(2), 200u64);
        q.push(Time::from_ns(1), 100u64);
        assert_eq!(q.pop(), Some((Time::from_ns(1), 100)));
        assert_eq!(q.pop(), Some((Time::from_ns(2), 200)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn stats_merge_accumulates() {
        let a = EngineStats {
            pushes: 3,
            pops: 2,
            clamped: 1,
            max_depth: 5,
            batched_pops: 1,
            max_batch: 4,
        };
        let mut b = EngineStats {
            pushes: 10,
            pops: 10,
            clamped: 0,
            max_depth: 2,
            batched_pops: 6,
            max_batch: 2,
        };
        b.merge(&a);
        assert_eq!(
            b,
            EngineStats {
                pushes: 13,
                pops: 12,
                clamped: 1,
                max_depth: 5,
                batched_pops: 7,
                max_batch: 4,
            }
        );
    }
}
