//! Allocation budget of program construction: building through
//! `ProgramBuilder` grows a handful of flat vectors, so the number of heap
//! allocations is logarithmic in the op count, not one per op.
//!
//! This file is its own test binary with a counting global allocator; it
//! holds a single test so no other test allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use han_mpi::{OpId, OpKind, ProgramBuilder};
use han_sim::Time;

struct Counting;

thread_local! {
    /// Allocations made by this thread while counting is on.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn bump() {
    COUNT.with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

// SAFETY: every method forwards to `System` unchanged; the thread-local
// counter has no destructor and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (including reallocations) made by `f` on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    COUNT.with(|c| c.set(Some(0)));
    f();
    COUNT.with(|c| c.replace(None)).expect("counting was on")
}

/// A 4-rank program of `n` ops mixing every builder entry point, with
/// dependency slices on the caller's stack.
fn build(n: usize) {
    let mut b = ProgramBuilder::new(4);
    let bufs = b.alloc_all(64);
    let mut prev = b.nop(0, &[]);
    while b.num_ops() < n {
        let r = b.num_ops() % 4;
        let a = b.delay(r, Time::from_ns(1), &[prev]);
        let c = b.sleep(r, Time::from_ns(1), &[]);
        let copy = OpKind::Copy {
            src: bufs[0],
            dst: bufs[0],
        };
        let d = b.op(0, copy, &[a, c, prev]);
        let peer = 1 + r % 3;
        let (s, _) = b.send_recv(0, peer, bufs[0], bufs[peer], &[d], &[]);
        let (_, t) = b.signal(peer, 0, 8, &[], &[s]);
        prev = t;
    }
    let p = std::hint::black_box(b.build());
    assert!(p.len() >= n);
    assert_eq!(p.deps(OpId(3)).len(), 3);
}

#[test]
fn building_makes_logarithmically_many_allocations() {
    let n = 10_000;
    let allocs = allocations(|| build(n));
    // Four growing vectors (ops, dep_off, dep, msgs) need ~14 doublings
    // apiece to reach 10k entries; one allocation per op would be 10k.
    let log2n = u64::from(usize::BITS - n.leading_zeros());
    assert!(
        allocs <= 6 * log2n,
        "{allocs} allocations to build {n} ops (budget {})",
        6 * log2n
    );
    // Ten times the ops adds only a few growths per vector.
    let allocs10 = allocations(|| build(10 * n));
    assert!(
        allocs10 <= allocs + 6 * 4,
        "{allocs10} allocations for {} ops vs {allocs} for {n}",
        10 * n
    );
}
