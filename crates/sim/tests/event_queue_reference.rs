//! Property test: the radix-heap event queue is observationally equivalent
//! to a plain `BinaryHeap` ordered by `(time, seq)` under arbitrary
//! interleavings of pushes, pops and resets — including pushes one below,
//! at and one above every power-of-two offset from the clock (the radix
//! bucket boundaries) up to 2^50 ps, and (release builds only) pushes into
//! the past, which must clamp to the current clock exactly like the
//! reference model.

use han_sim::{EngineStats, EventQueue, Time};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Largest power-of-two offset the generators aim at.
const MAX_POW: u64 = 50;

/// `2^k - 1`, `2^k` or `2^k + 1` for `k = sel / 3 % (MAX_POW + 1)`.
fn pow2_offset(sel: u64) -> u64 {
    let k = (sel / 3) % (MAX_POW + 1);
    (1u64 << k) + (sel % 3) - 1
}

/// Reference model: min-heap on `(time_ps, seq)` plus the popped clock,
/// and the engine counters the queue must report. A pop that finds no
/// event left at the clock refills a batch with every pending event at the
/// minimum timestamp; pushes at the clock join the current batch.
#[derive(Default)]
struct Model {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    seq: u64,
    now: u64,
    /// Pending events at `now`.
    batch: u64,
    stats: EngineStats,
}

impl Model {
    fn push(&mut self, at_ps: u64) {
        self.heap.push(Reverse((at_ps, self.seq)));
        self.seq += 1;
        self.batch += u64::from(at_ps == self.now);
        self.stats.pushes += 1;
        self.stats.max_depth = self.stats.max_depth.max(self.heap.len() as u64);
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        let Reverse((t, s)) = *self.heap.peek()?;
        if self.batch == 0 {
            let k = self.heap.iter().filter(|e| e.0 .0 == t).count() as u64;
            self.stats.batched_pops += k - 1;
            self.stats.max_batch = self.stats.max_batch.max(k);
            self.batch = k;
        }
        self.heap.pop();
        self.batch -= 1;
        self.stats.pops += 1;
        self.now = t;
        Some((t, s))
    }
}

/// One generated operation: `kind` selects push-near / push-at-a-power-
/// of-two / pop / reset, `off` selects the time offset from the current
/// virtual clock.
fn arb_ops() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..9, 0u64..1 << 20), 1..250)
}

fn run_against_reference(ops: &[(u64, u64)], past_pushes: bool) {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut model = Model::default();
    for &(kind, off) in ops {
        match kind {
            // Frequent near pushes, duplicates likely.
            0..=2 => {
                let at = model.now + off % 64;
                q.push(Time::from_ps(at), model.seq);
                model.push(at);
            }
            // Pushes at the radix bucket boundaries relative to the clock.
            3..=4 => {
                let at = model.now + pow2_offset(off);
                q.push(Time::from_ps(at), model.seq);
                model.push(at);
            }
            // Reset in the middle: the queue must behave like a fresh one,
            // whatever it still held.
            5 if off % 8 == 0 => {
                q.reset();
                model = Model::default();
            }
            // Release builds clamp past events to `now`; model likewise.
            6 if past_pushes => {
                let at = model.now.saturating_sub(pow2_offset(off));
                if at < model.now {
                    model.stats.clamped += 1;
                }
                q.push(Time::from_ps(at), model.seq);
                model.push(at.max(model.now));
            }
            _ => {
                let got = q.pop();
                let want = model.pop();
                assert_eq!(
                    got.map(|(t, p)| (t.as_ps(), p)),
                    want,
                    "pop diverged from reference"
                );
                assert_eq!(q.now().as_ps(), model.now);
            }
        }
        assert_eq!(q.len(), model.heap.len());
        assert_eq!(
            q.peek_time().map(Time::as_ps),
            model.heap.peek().map(|r| r.0 .0)
        );
    }
    // Drain: every remaining event pops in exact (time, seq) order.
    while let Some(want) = model.pop() {
        let (t, p) = q.pop().expect("queue drained before reference");
        assert_eq!((t.as_ps(), p), want);
    }
    assert!(q.pop().is_none());
    assert!(q.is_empty());
    assert_eq!(q.stats(), model.stats);
    assert_eq!(model.stats.pops, model.seq);
}

/// Burst generator: interleave same-timestamp bursts (the batch-drain
/// fast path pops these without another bucket refill) with single
/// pushes at fresh times and pops. `(kind, burst_len, off)` per op.
fn arb_burst_ops() -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    proptest::collection::vec((0u64..8, 1u64..32, 0u64..1 << 20), 1..200)
}

/// Same-timestamp bursts must pop in exact push (seq) order even when a
/// refill redistributes them from a higher bucket, and the
/// `batched_pops`/`max_batch` counters must match the model's exactly.
fn run_bursts_against_reference(ops: &[(u64, u64, u64)]) {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut model = Model::default();
    for &(kind, burst, off) in ops {
        match kind {
            // A burst of events sharing one timestamp, possibly at the
            // current clock (drainable immediately), possibly ahead.
            0..=3 => {
                let at = if off % 4 == 0 {
                    model.now
                } else {
                    model.now + pow2_offset(off)
                };
                for _ in 0..burst {
                    q.push(Time::from_ps(at), model.seq);
                    model.push(at);
                }
            }
            // A single event at a fresh time, splitting bursts.
            4..=5 => {
                let at = model.now + off;
                q.push(Time::from_ps(at), model.seq);
                model.push(at);
            }
            // Pop a whole burst's worth, crossing batch boundaries.
            _ => {
                for _ in 0..burst {
                    let got = q.pop();
                    let want = model.pop();
                    assert_eq!(
                        got.map(|(t, p)| (t.as_ps(), p)),
                        want,
                        "burst pop diverged from reference"
                    );
                }
            }
        }
    }
    while let Some(want) = model.pop() {
        let (t, p) = q.pop().expect("queue drained before reference");
        assert_eq!((t.as_ps(), p), want);
    }
    assert!(q.pop().is_none());
    // Batching is an internal accounting of the same pops, never extra
    // ones: each refill of k events contributes k-1 batched pops.
    assert_eq!(q.stats(), model.stats);
    assert_eq!(model.stats.pops, model.seq);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn radix_queue_matches_binary_heap(ops in arb_ops()) {
        run_against_reference(&ops, false);
    }

    /// Same-timestamp bursts exercise the batch-drain fast path; FIFO
    /// order within a timestamp must match the `(time, seq)` heap.
    #[test]
    fn batch_drain_matches_binary_heap(ops in arb_burst_ops()) {
        run_bursts_against_reference(&ops);
    }

    /// Past-time pushes panic under `debug_assert`, so the clamp branch is
    /// only reachable — and only modeled — in release builds.
    #[test]
    #[cfg(not(debug_assertions))]
    fn radix_queue_matches_binary_heap_with_clamps(ops in arb_ops()) {
        run_against_reference(&ops, true);
    }
}
