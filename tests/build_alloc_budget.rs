//! Allocation and storage budget of HAN program construction at paper
//! scale: building the Fig. 10/13 Bcast and Allreduce on 4096 ranks makes
//! O(ranks + log ops) heap allocations, not one or more per op, and the
//! built program stores a bounded number of bytes per op.
//!
//! This file is its own test binary with a counting global allocator; it
//! holds a single test so no other test allocates while it counts.

use han::mpi::program::{MsgMeta, Op, OpId, Operands, Program};
use han::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;
use std::path::PathBuf;
use std::sync::Arc;

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

/// Heap allocations (including reallocations) made by `f` on this thread,
/// and `f`'s result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    COUNT.with(|c| c.set(Some(0)));
    let out = f();
    (
        COUNT.with(|c| c.replace(None)).expect("counting was on"),
        out,
    )
}

/// Allocations per built op allowed. A 4096-rank build needs a handful of
/// per-rank and per-communicator vectors; one allocation per op would be
/// 1.0.
const BUDGET_PER_OP: f64 = 0.1;

/// Program storage per op allowed, in bytes. A 16-byte op record, a
/// 32-byte operands entry for about half the ops, about two and a half
/// 4-byte dependency edges and one offset per op, and a few messages come
/// to 43.5–45.8 bytes per op on these programs. The 128 MiB programs have
/// the same op mix (43.8–46.0 B/op) but are eight times larger, so this
/// debug-profile test stops at 16 MiB.
const STORAGE_PER_OP: f64 = 48.0;

/// Bytes held by `p`'s per-op and per-message vectors: `len × size_of`
/// summed over ops, operands, the dependency CSR and messages.
fn storage_bytes(p: &Program) -> usize {
    p.ops.len() * size_of::<Op>()
        + p.operands.len() * size_of::<Operands>()
        + p.dep.len() * size_of::<OpId>()
        + p.dep_off.len() * size_of::<u32>()
        + p.msgs.len() * size_of::<MsgMeta>()
}

#[test]
fn paper_scale_han_build_allocates_per_rank_not_per_op() {
    let table = LookupTable::load(
        &PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results/table_shaheen.json"),
    )
    .expect("results/table_shaheen.json loads");
    let han = Han::tuned(Arc::new(table));
    let preset = shaheen2_ppn(128, 32);
    let mut report = Vec::new();
    let (mut worst, mut widest) = (0.0f64, 0.0f64);
    for coll in [Coll::Bcast, Coll::Allreduce] {
        for m in [1u64 << 20, 16 << 20] {
            let (allocs, prog) = allocations(|| build_coll(&han, &preset, coll, m, 0));
            let prog = prog.expect("HAN builds Bcast and Allreduce");
            let ops = prog.ops.len();
            let per_op = allocs as f64 / ops as f64;
            let bytes_per_op = storage_bytes(&prog) as f64 / ops as f64;
            report.push(format!(
                "{} {m} B: {allocs} allocations for {ops} ops ({per_op:.3}/op), \
                 {bytes_per_op:.1} B/op stored",
                coll.name()
            ));
            worst = worst.max(per_op);
            widest = widest.max(bytes_per_op);
        }
    }
    assert!(
        worst <= BUDGET_PER_OP,
        "over the {BUDGET_PER_OP}/op budget:\n{}",
        report.join("\n")
    );
    assert!(
        widest <= STORAGE_PER_OP,
        "over the {STORAGE_PER_OP} B/op storage budget:\n{}",
        report.join("\n")
    );
    println!("{}", report.join("\n"));
}
