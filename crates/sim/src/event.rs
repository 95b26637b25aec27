//! Deterministic event queue.
//!
//! A monotone radix heap keyed by `(time, push order)`. Pops of
//! simultaneous events come out FIFO in push order, which is the property
//! that keeps the whole simulator deterministic: two runs of the same
//! program produce identical resource-acquisition orders and therefore
//! identical virtual timings.
//!
//! Layout: bucket `b` holds the pending events whose timestamp first
//! differs from the clock `now` at bit `b - 1`, so a push goes to bucket
//! `64 - lzcnt(at ^ now)`. Bucket 0 holds the events at exactly `now`:
//! it is the live same-instant batch, served FIFO. Every timestamp in a
//! lower bucket is smaller than every timestamp in a higher one.
//!
//! A pop from an empty batch refills it: it takes the first non-empty
//! bucket, advances `now` to that bucket's minimum and redistributes the
//! bucket's events, in order, into the lower buckets (all empty at that
//! point, since it was the first non-empty one). Events in higher buckets
//! keep their bucket, because the new clock agrees with the old one on
//! every bit above the refilled bucket. Hence each bucket stays in push
//! order, equal timestamps always share a bucket, and pops come out in
//! exact `(time, push order)` order with no sequence numbers stored.
//!
//! Pushes at exactly `now` — the dominant pattern in dependency-driven
//! programs, where finishing one op readies the next at the same instant —
//! land in bucket 0 behind everything already batched, which is exact
//! FIFO order at O(1).

use std::collections::VecDeque;

use crate::time::Time;

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
    /// i.e. pops that skipped the bucket refill entirely.
    pub batched_pops: u64,
    /// Largest same-timestamp batch moved into the batch by one refill.
    pub max_batch: u64,
}

/// An event queue over payloads of type `E`.
///
/// [`EventQueue::reset`] rewinds the queue for reuse across simulations
/// while keeping every bucket allocation, so a bucket's capacity is
/// bounded by the peak queue depth.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Bucket 0: the events at `now`, in pop order (front to back).
    batch: VecDeque<E>,
    /// Buckets 1..=64: `buckets[b - 1]` holds events whose timestamp first
    /// differs from `now` at bit `b - 1`, in push order.
    buckets: [Vec<(Time, E)>; 64],
    /// Bit `b - 1` is set iff bucket `b` is non-empty.
    occ: u64,
    now: Time,
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
            batch: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            occ: 0,
            now: Time::ZERO,
            stats: EngineStats::default(),
        }
    }

    /// Rewind to the just-constructed state while keeping every bucket
    /// allocation: one queue per thread, `reset()` between simulations.
    pub fn reset(&mut self) {
        while self.occ != 0 {
            let b = self.occ.trailing_zeros() as usize;
            self.buckets[b].clear();
            self.occ &= self.occ - 1;
        }
        self.batch.clear();
        self.now = Time::ZERO;
        self.stats = EngineStats::default();
    }

    /// Bucket of a timestamp `at >= now` (0 for `at == now`).
    #[inline]
    fn bucket_of(&self, at: Time) -> usize {
        (64 - (at.as_ps() ^ self.now.as_ps()).leading_zeros()) as usize
    }

    /// Append to bucket `b` (>= 1).
    #[inline]
    fn bucket_push(&mut self, b: usize, at: Time, payload: E) {
        self.buckets[b - 1].push((at, payload));
        self.occ |= 1 << (b - 1);
    }

    /// Refill the empty batch from the first non-empty bucket: advance
    /// `now` to its minimum and redistribute its events, in order, into
    /// the lower buckets. Returns `false` when the queue is exhausted.
    fn refill_batch(&mut self) -> bool {
        debug_assert!(self.batch.is_empty());
        if self.occ == 0 {
            return false;
        }
        let i = self.occ.trailing_zeros() as usize;
        self.occ &= !(1 << i);
        let mut events = std::mem::take(&mut self.buckets[i]);
        self.now = events.iter().map(|e| e.0).min().expect("occupied bucket");
        for (at, payload) in events.drain(..) {
            match self.bucket_of(at) {
                0 => self.batch.push_back(payload),
                b => self.bucket_push(b, at, payload),
            }
        }
        // Hand the (now empty) allocation back to the refilled bucket.
        self.buckets[i] = events;
        let k = self.batch.len() as u64;
        self.stats.batched_pops += k - 1;
        self.stats.max_batch = self.stats.max_batch.max(k);
        true
    }

    /// Schedule `payload` at absolute virtual time `at`.
    ///
    /// Scheduling in the past is a simulator bug; it panics in debug builds
    /// and is clamped to `now` (and counted in [`EngineStats::clamped`]) in
    /// release builds.
    #[inline]
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
        match self.bucket_of(at) {
            0 => self.batch.push_back(payload),
            b => self.bucket_push(b, at, payload),
        }
        // Every push adds one pending event and every pop removes one, so
        // `pushes - pops` IS the current depth — no need to recount.
        let depth = self.stats.pushes - self.stats.pops;
        if depth > self.stats.max_depth {
            self.stats.max_depth = depth;
        }
    }

    /// Pop the next event, advancing the clock to its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        if self.batch.is_empty() && !self.refill_batch() {
            return None;
        }
        let payload = self.batch.pop_front().expect("batch refilled");
        self.stats.pops += 1;
        Some((self.now, payload))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<Time> {
        if !self.batch.is_empty() {
            return Some(self.now);
        }
        // The first non-empty bucket holds the global minimum.
        let b = self.occ.trailing_zeros() as usize;
        self.buckets.get(b)?.iter().map(|e| e.0).min()
    }

    /// Current virtual time (timestamp of the last popped event).
    pub fn now(&self) -> Time {
        self.now
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn len(&self) -> usize {
        (self.stats.pushes - self.stats.pops) as usize
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
        assert_eq!(q.stats().pops, 3);
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
        assert_eq!(q.peek_time(), None);
    }

    /// Reference check: the radix heap must pop in exactly the
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
        // Times straddling radix bucket boundaries (one below, at and one
        // above a power of two), duplicates included.
        let mut pushes = Vec::new();
        for k in [1u32, 2, 3, 7, 16, 17, 33] {
            let p = 1u64 << k;
            pushes.extend([p + 1, p - 1, p, p - 1]);
        }
        pushes.extend([0, 3, 0]);
        assert_matches_reference(&pushes);
    }

    #[test]
    fn far_future_events_redistribute_in_order() {
        // Events in the top buckets, including the highest timestamp, with
        // equal-time pairs that must stay FIFO through every refill that
        // carries them down towards bucket 0.
        let top = u64::MAX;
        let far = 1u64 << 50;
        assert_matches_reference(&[
            5,
            top,
            3 * far + 7,
            far + 1,
            5,
            3 * far + 7,
            top,
            10 * far,
            2 * far + 1,
            2 * far + 1,
            0,
            top - 1,
        ]);
        // Every event lands in a different bucket first.
        let spread: Vec<u64> = (0..64).rev().map(|k| 1u64 << k).collect();
        assert_matches_reference(&spread);
    }

    #[test]
    fn interleaved_push_pop_across_redistributions() {
        let far = 1u64 << 40;
        let mut q = EventQueue::new();
        q.push(Time::from_ps(1), 0u32);
        q.push(Time::from_ps(2 * far), 1);
        q.push(Time::from_ps(2 * far + 9), 2);
        assert_eq!(q.pop().unwrap().1, 0);
        // The far events still sit in a high bucket; a push between `now`
        // and them lands in a lower bucket and must pop first.
        q.push(Time::from_ps(far), 3);
        assert_eq!(q.pop().unwrap().1, 3);
        // Popping event 1 redistributes event 2 into a low bucket relative
        // to the new clock. A later push at the same time must follow it,
        // and a push at the clock must precede both.
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(Time::from_ps(2 * far + 9), 4);
        q.push(Time::from_ps(2 * far), 5);
        assert_eq!(q.pop().unwrap(), (Time::from_ps(2 * far), 5));
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 4);
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
        // A later-pushed, earlier event must pop first (it is the new
        // minimum, in the same bucket as the flood).
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
    fn bucket_capacity_is_bounded_by_peak_depth() {
        let mut q = EventQueue::new();
        for round in 0..50u64 {
            for i in 0..8u64 {
                q.push(Time::from_ns(round * 100 + i), i);
            }
            while q.pop().is_some() {}
        }
        // Steady-state churn moves events between buckets but never grows
        // a bucket past what the peak depth needs.
        let peak = q.stats().max_depth as usize;
        assert_eq!(peak, 8);
        let buckets = q.buckets.iter().map(Vec::capacity);
        let cap = buckets.chain([q.batch.capacity()]).max().unwrap();
        assert!(cap <= 2 * peak, "a bucket grew to {cap}");
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
        let caps: Vec<usize> = q.buckets.iter().map(Vec::capacity).collect();
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.now(), Time::ZERO);
        assert_eq!(q.stats(), EngineStats::default());
        assert_eq!(q.occ, 0);
        assert!(q.buckets.iter().all(Vec::is_empty));
        assert_eq!(
            q.buckets.iter().map(Vec::capacity).collect::<Vec<_>>(),
            caps
        );
        // The queue behaves exactly like a fresh one.
        q.push(Time::from_ns(2), 200u64);
        q.push(Time::from_ns(1), 100u64);
        assert_eq!(q.pop(), Some((Time::from_ns(1), 100)));
        assert_eq!(q.pop(), Some((Time::from_ns(2), 200)));
        assert!(q.pop().is_none());
    }
}
