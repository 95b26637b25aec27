//! Allocation and storage budget of HAN program construction and
//! execution at paper scale: building the Fig. 10/13 Bcast and Allreduce
//! on 4096 ranks makes O(ranks + log ops) heap allocations, not one or
//! more per op, the built program stores a bounded number of bytes per
//! op (as does the largest program of the Fig. 9 sweep), each distinct
//! data-op range about once and each dependency edge in two bytes (while
//! Open MPI's Fig. 10 Bcast keeps four), a build after a dropped one refills its
//! arrays instead of growing new ones, a first execution holds a bounded
//! number of bytes per op, and an execution after a dropped report
//! refills that report's per-op records.
//!
//! This file is its own test binary with a counting global allocator.
//! The counters are per thread, so a test counts only its own
//! allocations.

use han::colls::TunedOpenMpi;
use han::mpi::execute;
use han::mpi::program::{MsgMeta, Op, OpId, OpKind, Operands, Program};
use han::prelude::*;
use han::tuner::space::pow2_range;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;
use std::path::PathBuf;
use std::sync::Arc;

struct Counting;

/// What one thread allocated while counting was on.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    /// Heap allocations, reallocations included.
    allocs: u64,
    /// Bytes requested: each allocation's size, plus what each
    /// reallocation grew by.
    bytes: u64,
    /// Bytes still held: `bytes`, less what reallocations shrank by and
    /// what was freed.
    held: i64,
}

thread_local! {
    /// This thread's counts while counting is on.
    static COUNT: Cell<Option<Counts>> = const { Cell::new(None) };
}

/// Count one allocator call that took `old` bytes and left `new`.
fn bump(old: usize, new: usize) {
    COUNT.with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(Counts {
                allocs: n.allocs + u64::from(new > 0),
                bytes: n.bytes + new.saturating_sub(old) as u64,
                held: n.held + new as i64 - old as i64,
            }));
        }
    });
}

// SAFETY: every method forwards to `System` unchanged; the thread-local
// counter has no destructor and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(0, layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(0, layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(layout.size(), new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(layout.size(), 0);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` allocated on this thread, and `f`'s result.
fn allocations<T>(f: impl FnOnce() -> T) -> (Counts, T) {
    COUNT.with(|c| c.set(Some(Counts::default())));
    let out = f();
    (
        COUNT.with(|c| c.replace(None)).expect("counting was on"),
        out,
    )
}

/// HAN configured from the committed Shaheen II table, and the 4096-rank
/// machine of Figs. 10/13.
fn paper_han() -> (Han, MachinePreset) {
    let table = LookupTable::load(
        &PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results/table_shaheen.json"),
    )
    .expect("results/table_shaheen.json loads");
    (Han::tuned(Arc::new(table)), shaheen2_ppn(128, 32))
}

/// The largest program of the Fig. 9 sweep, at 1 MiB rather than
/// 16 MiB: Allreduce on the 64-node, 12-per-node tuning machine in 4 KiB
/// segments, binomial Libnbc trees between nodes and SM within them. Its
/// SM reduce alternates a `Copy` and a `ReduceFrom` over two ranges.
fn fig9_largest() -> (Han, MachinePreset) {
    let cfg = HanConfig::default()
        .with_fs(4096)
        .with_inter(InterModule::Libnbc, InterAlg::Binomial)
        .with_intra(IntraModule::Sm);
    (Han::with_config(cfg), shaheen2_ppn(64, 12))
}

/// Allocations per built op allowed. A 4096-rank build needs a handful of
/// per-rank and per-communicator vectors; one allocation per op would be
/// 1.0.
const BUDGET_PER_OP: f64 = 0.1;

/// Program storage per op allowed, in bytes. A 16-byte op record, two
/// to two and a half 2-byte dependency edges, one 4-byte offset per op
/// and a few messages come to 24.5–26.8 bytes per op on these programs,
/// 128 MiB included; the Fig. 9 program is the widest. The operands table
/// adds little, 24 bytes per distinct range triple: 256 entries for the
/// 1,015,808 data ops of the 128 MiB Bcast, and 39,117 for the 573,184
/// of the Fig. 9 program. The margin is about one byte per op. Four-byte
/// edges would come to 28.7–31.0 bytes per op.
const STORAGE_PER_OP: f64 = 28.0;

/// Operands entries allowed per data op in a Fig. 10/13 program. The
/// hierarchy repeats each range on every rank of a node and in every
/// segment, so they read at most 0.0009; one entry per data op is 1.0.
const OPERANDS_PER_DATA_OP: f64 = 0.01;

/// The message sizes whose programs the storage budget covers. The
/// 128 MiB programs have the same op mix as the 16 MiB ones but are eight
/// times larger, so a debug build stops at 16 MiB.
fn budget_sizes() -> &'static [u64] {
    if cfg!(debug_assertions) {
        &[1 << 20, 16 << 20]
    } else {
        &[1 << 20, 16 << 20, 128 << 20]
    }
}

/// Bytes held by `p`'s per-op and per-message vectors: `len × size_of`
/// summed over ops, operands, the dependency CSR (at its width) and
/// messages.
fn storage_bytes(p: &Program) -> usize {
    p.ops.len() * size_of::<Op>()
        + p.operands.len() * size_of::<Operands>()
        + p.dep.len() * p.dep.bytes_per_edge()
        + p.dep_off.len() * size_of::<u32>()
        + p.msgs.len() * size_of::<MsgMeta>()
}

/// The most ops back that any edge of `p` reaches.
fn longest_edge(p: &Program) -> u32 {
    (0..p.ops.len() as u32)
        .flat_map(|i| p.deps(OpId(i)).map(move |d| i - d.0))
        .max()
        .unwrap_or(0)
}

/// How many of `p`'s ops are data ops, which index the operands table.
fn data_ops(p: &Program) -> usize {
    (0..p.ops.len() as u32)
        .filter(|&i| {
            matches!(
                p.kind(OpId(i)),
                OpKind::Copy { .. }
                    | OpKind::CrossCopy { .. }
                    | OpKind::Reduce { .. }
                    | OpKind::ReduceFrom { .. }
            )
        })
        .count()
}

#[test]
fn paper_scale_han_build_allocates_per_rank_not_per_op() {
    let (han, preset) = paper_han();
    let (fig9_han, fig9_preset) = fig9_largest();
    let mut builds = Vec::new();
    for coll in [Coll::Bcast, Coll::Allreduce] {
        for &m in budget_sizes() {
            builds.push(("Fig. 10/13", &han, &preset, coll, m));
        }
    }
    builds.push(("Fig. 9", &fig9_han, &fig9_preset, Coll::Allreduce, 1 << 20));
    let mut report = Vec::new();
    let (mut worst, mut widest) = (0.0f64, 0.0f64);
    for (figure, han, preset, coll, m) in builds {
        let (counts, prog) = allocations(|| build_coll(han, preset, coll, m, 0));
        let prog = prog.expect("HAN builds Bcast and Allreduce");
        let allocs = counts.allocs;
        let ops = prog.ops.len();
        let per_op = allocs as f64 / ops as f64;
        let bytes_per_op = storage_bytes(&prog) as f64 / ops as f64;
        report.push(format!(
            "{figure} {} {m} B: {allocs} allocations for {ops} ops ({per_op:.3}/op), \
             {} operands entries, {} edges (longest {}), {bytes_per_op:.2} B/op stored",
            coll.name(),
            prog.operands.len(),
            prog.dep.len(),
            longest_edge(&prog)
        ));
        assert!(
            prog.dep.is_narrow(),
            "{figure} {} {m} B is wide",
            coll.name()
        );
        worst = worst.max(per_op);
        widest = widest.max(bytes_per_op);
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

#[test]
fn paper_scale_programs_store_each_range_about_once() {
    let (han, preset) = paper_han();
    let top = *budget_sizes().last().expect("a size");
    let mut report = Vec::new();
    let mut widest = 0.0f64;
    for coll in [Coll::Bcast, Coll::Allreduce] {
        for m in pow2_range(4, top) {
            let prog = build_coll(&han, &preset, coll, m, 0).expect("HAN builds");
            assert!(prog.dep.is_narrow(), "{} {m} B is wide", coll.name());
            let (entries, data) = (prog.operands.len(), data_ops(&prog));
            let per_data_op = entries as f64 / data as f64;
            report.push(format!(
                "{} {m} B: {entries} operands entries for {data} data ops ({per_data_op:.4}), \
                 longest edge {} ops",
                coll.name(),
                longest_edge(&prog)
            ));
            widest = widest.max(per_data_op);
        }
    }
    assert!(
        widest <= OPERANDS_PER_DATA_OP,
        "over {OPERANDS_PER_DATA_OP} operands entries per data op:\n{}",
        report.join("\n")
    );
    println!("{}", report.join("\n"));
}

/// Edges of Open MPI's 16 MiB Bcast on the 4096 ranks of Fig. 10 that
/// are 65,536 or more ops long: its program must stay wide.
const OPEN_MPI_BCAST_LONG_EDGES: usize = 458_752;

#[test]
fn fig10s_open_mpi_bcast_keeps_four_byte_edges() {
    let (_, preset) = paper_han();
    let prog = build_coll(&TunedOpenMpi, &preset, Coll::Bcast, 16 << 20, 0).expect("builds");
    assert!(!prog.dep.is_narrow());
    assert_eq!(prog.dep.bytes_per_edge(), 4);
    let long = (0..prog.ops.len() as u32)
        .map(|i| prog.deps(OpId(i)).filter(|d| i - d.0 > 65_535).count())
        .sum::<usize>();
    assert_eq!(
        long,
        OPEN_MPI_BCAST_LONG_EDGES,
        "of {} edges",
        prog.dep.len()
    );
}

/// Bytes per op a build may newly hold when its thread has already
/// dropped a program at least as large. Only the memory sizes and a few
/// per-rank vectors may be new; the program's arrays are the dropped
/// ones. (The builders' transient scratch, such as the frontier each
/// intra-node phase returns per node and segment, is allocated and freed
/// within the build and comes to about 5.5 B/op requested.)
const REFILL_BYTES_PER_OP: f64 = 1.0;

#[test]
fn a_build_after_a_dropped_one_refills_its_arrays() {
    let (han, preset) = paper_han();
    let build = || build_coll(&han, &preset, Coll::Allreduce, 16 << 20, 0).unwrap();
    let (first, prog) = allocations(build);
    let (ops, stored) = (prog.ops.len(), storage_bytes(&prog));
    drop(prog);
    let (second, prog) = allocations(build);
    assert_eq!(prog.ops.len(), ops);
    let per_op = |b: i64| b as f64 / ops as f64;
    let report = format!(
        "Allreduce 16 MiB, {ops} ops storing {stored} B: the first build requested \
         {} B and holds {} B ({:.1} B/op); the second requested {} B and holds {} B \
         ({:.2} B/op)",
        first.bytes,
        first.held,
        per_op(first.held),
        second.bytes,
        second.held,
        per_op(second.held)
    );
    assert!(per_op(second.held) < REFILL_BYTES_PER_OP, "{report}");
    println!("{report}");
}

/// Bytes per op a first execution may request on a thread that has run
/// nothing. On the 16 MiB Allreduce (2.39 dependency edges per op) a
/// 16-byte record per op, a 2-byte child entry per edge and a 4-byte
/// child offset per op come to 24.8; 40 bytes of state per message, the
/// event queue's buckets and the per-rank vectors add 2.2, for 27.0.
/// Four-byte child entries would come to 31.8, and a second 5-byte
/// dispatch array, or records grown by doubling, would be over too.
const FIRST_EXEC_BYTES_PER_OP: f64 = 28.0;

#[test]
fn a_first_execution_holds_one_record_per_op() {
    let (han, preset) = paper_han();
    let prog = build_coll(&han, &preset, Coll::Allreduce, 16 << 20, 0).unwrap();
    let opts = ExecOpts::timing(han.flavor().p2p());
    let mut machine = Machine::from_preset(&preset);
    // A fresh thread: no executor, and no dropped report to refill.
    let first = std::thread::scope(|s| {
        s.spawn(|| allocations(|| execute(&mut machine, &prog, &opts).makespan).0)
            .join()
            .unwrap()
    });
    let ops = prog.ops.len();
    let per_op = first.bytes as f64 / ops as f64;
    let report = format!(
        "Allreduce 16 MiB, {ops} ops, {} edges, {} messages: a first execution \
         requested {} B ({per_op:.2} B/op)",
        prog.dep.len(),
        prog.msgs.len(),
        first.bytes
    );
    assert!(per_op <= FIRST_EXEC_BYTES_PER_OP, "{report}");
    println!("{report}");
}

/// Bytes per op a second execution may request when its thread has
/// dropped the report of the first. The per-op records are the dropped
/// report's; only per-rank vectors, such as the report's rank finishes,
/// are new. A copy of every op's finish time would be 8.
const REEXEC_BYTES_PER_OP: f64 = 1.0;

#[test]
fn an_execution_after_a_dropped_report_refills_its_records() {
    let (han, preset) = paper_han();
    let prog = build_coll(&han, &preset, Coll::Allreduce, 16 << 20, 0).unwrap();
    let opts = ExecOpts::timing(han.flavor().p2p());
    let mut machine = Machine::from_preset(&preset);
    let mut run = || execute(&mut machine, &prog, &opts).makespan;
    let (first, makespan) = allocations(&mut run);
    let (second, again) = allocations(&mut run);
    assert_eq!(again, makespan);
    let ops = prog.ops.len();
    let per_op = second.bytes as f64 / ops as f64;
    let report = format!(
        "Allreduce 16 MiB, {ops} ops: the first execution requested {} B, the \
         second {} B ({per_op:.2} B/op)",
        first.bytes, second.bytes
    );
    assert!(per_op < REEXEC_BYTES_PER_OP, "{report}");
    println!("{report}");
}
