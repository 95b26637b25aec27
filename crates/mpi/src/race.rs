//! Happens-before race checking over a [`Program`].
//!
//! A legal execution may run two ops in either order, or at once, unless
//! a chain of edges orders them. The edges are the dependency lists plus
//! one edge per message, from its send to its receive. Two ops *race*
//! when they touch overlapping bytes of one rank's memory, at least one
//! of them writes, and neither happens before the other (two commuting
//! accumulates excepted, see below). [`check_races`]
//! reports the first race; a race-free program reads and writes the same
//! bytes in every execution order its edges allow.
//!
//! The accesses are the ones seeded execution performs:
//!
//! * `Copy` and `CrossCopy` read `src` (on `from` for `CrossCopy`) and
//!   write `dst`;
//! * `Reduce` and `ReduceFrom` read `src` and *accumulate* into `dst`;
//! * when a message carries a payload, its send reads the send range on
//!   the sender and its receive writes the receive range on the receiver.
//!
//! An accumulate reads and writes, so it conflicts with every other
//! access but one: another accumulate with the same operator and element
//! type. A reduction runs on the CPU of the rank that owns `dst`, which
//! runs one op at a time, and such updates commute. This is what a tree
//! reduce does at every node with two or more children: it adds each
//! child's contribution as it arrives, in no fixed order.
//!
//! Op ids are a topological order of the happens-before relation:
//! [`Program::validate`] rejects forward dependencies, and the checker
//! rejects a receive that precedes its send (the builder always creates
//! the send first). So one pass in id order builds every op's ancestor
//! set as a bitset over op ids. Long programs take several passes, each
//! over one block of ancestor ids, so the bitsets stay within 4 MiB (or
//! one word per op, if that is more). Only candidate pairs are looked
//! up: a per-rank interval sweep finds every pair of overlapping
//! accesses that conflict.

use crate::buffer::BufRange;
use crate::datatype::{DataType, ReduceOp};
use crate::program::{OpId, OpKind, Program};
use crate::trace::op_name;

/// Most bytes of ancestor bitsets held at once. A program of up to
/// ~5,800 ops fits in one pass.
const ANCESTOR_BUDGET_BYTES: usize = 4 << 20;

/// How an op touches memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Read,
    Write,
    /// `dst = op(dst, src)` elementwise over `DataType`.
    Accumulate(ReduceOp, DataType),
}

impl Mode {
    /// Whether two accesses to the same bytes must be ordered.
    fn conflicts(self, other: Mode) -> bool {
        match (self, other) {
            (Mode::Read, Mode::Read) => false,
            (Mode::Accumulate(..), Mode::Accumulate(..)) => self != other,
            _ => true,
        }
    }
}

/// One op's access to bytes `[off, end)` of one rank's memory.
#[derive(Debug, Clone, Copy)]
struct Access {
    off: u64,
    end: u64,
    op: u32,
    mode: Mode,
}

/// Two ops with conflicting accesses to overlapping bytes on `rank`;
/// `lo < hi`. `[off, end)` is where they first overlap.
#[derive(Debug, Clone, Copy)]
struct Pair {
    lo: u32,
    hi: u32,
    rank: u32,
    off: u64,
    end: u64,
}

/// Check that `prog` is well formed and race-free: every two ops whose
/// accesses conflict are ordered by happens-before. Returns the first race
/// (lowest earlier op id, then lowest later op id) or the first
/// structural problem as `Err`; never panics.
pub fn check_races(prog: &Program) -> Result<(), String> {
    prog.validate()?;
    let send_op = send_ops(prog)?;
    let pairs = candidate_pairs(prog);
    let n = prog.ops.len();
    let words = n
        .div_ceil(64)
        .min((ANCESTOR_BUDGET_BYTES / 8 / n.max(1)).max(1));
    let block = words * 64;
    let mut anc: Vec<u64> = Vec::new();
    let mut k = 0;
    while k < pairs.len() {
        // Ancestors among ids [c0, c0 + block) of every op up to the
        // last one a pair in this block asks about.
        let c0 = pairs[k].lo as usize / block * block;
        let c1 = c0 + block;
        let in_block = pairs[k..].partition_point(|p| (p.lo as usize) < c1);
        let batch = &pairs[k..k + in_block];
        let last = batch.iter().map(|p| p.hi as usize).max().unwrap_or(c0);
        anc.clear();
        anc.resize((last + 1 - c0) * words, 0);
        for i in c0 + 1..=last {
            let (before, rest) = anc.split_at_mut((i - c0) * words);
            let row = &mut rest[..words];
            let msg_edge = match prog.kind(OpId(i as u32)) {
                OpKind::Recv { msg } => Some(OpId(send_op[msg.0 as usize])),
                _ => None,
            };
            for p in prog.deps(OpId(i as u32)).chain(msg_edge) {
                let p = p.0 as usize;
                if p < c0 {
                    continue;
                }
                let prow = &before[(p - c0) * words..][..words];
                for (w, pw) in row.iter_mut().zip(prow) {
                    *w |= pw;
                }
                if p < c1 {
                    row[(p - c0) / 64] |= 1 << ((p - c0) % 64);
                }
            }
        }
        for p in batch {
            let bit = p.lo as usize - c0;
            if anc[(p.hi as usize - c0) * words + bit / 64] >> (bit % 64) & 1 == 0 {
                return Err(format!(
                    "race on rank {}: op {} ({}) and op {} ({}) both touch bytes [{}, {}), \
                     at least one writes, and neither happens before the other",
                    p.rank,
                    p.lo,
                    op_name(prog, p.lo as usize),
                    p.hi,
                    op_name(prog, p.hi as usize),
                    p.off,
                    p.end
                ));
            }
        }
        k += in_block;
    }
    Ok(())
}

/// The send op of every message, after checking that each send precedes
/// its receive in id order (so ids stay a topological order once message
/// edges are added; a receive first is how a cycle through a message
/// shows up).
fn send_ops(prog: &Program) -> Result<Vec<u32>, String> {
    const NONE: u32 = u32::MAX;
    let mut send_op = vec![NONE; prog.msgs.len()];
    for i in 0..prog.ops.len() {
        match prog.kind(OpId(i as u32)) {
            OpKind::Send { msg } => send_op[msg.0 as usize] = i as u32,
            OpKind::Recv { msg } if send_op[msg.0 as usize] == NONE => {
                return Err(format!(
                    "msg {}: recv op {i} precedes its send, so op ids are not a \
                     topological order (a dependency cycle through the message)",
                    msg.0
                ));
            }
            _ => {}
        }
    }
    Ok(send_op)
}

/// Every op's memory accesses, bucketed by the rank whose memory they
/// touch. Empty ranges touch nothing and are left out.
fn accesses(prog: &Program) -> Vec<Vec<Access>> {
    let mut out: Vec<Vec<Access>> = vec![Vec::new(); prog.nranks];
    for (i, op) in prog.ops.iter().enumerate() {
        let mut push = |rank: u32, r: BufRange, mode: Mode| {
            if r.len > 0 {
                out[rank as usize].push(Access {
                    off: r.off,
                    end: r.end(),
                    op: i as u32,
                    mode,
                });
            }
        };
        match prog.kind(OpId(i as u32)) {
            OpKind::Copy { src, dst } => {
                push(op.rank, src, Mode::Read);
                push(op.rank, dst, Mode::Write);
            }
            OpKind::CrossCopy { from, src, dst } => {
                push(from, src, Mode::Read);
                push(op.rank, dst, Mode::Write);
            }
            OpKind::Reduce {
                op: rop,
                dtype,
                src,
                dst,
                ..
            } => {
                push(op.rank, src, Mode::Read);
                push(op.rank, dst, Mode::Accumulate(rop, dtype));
            }
            OpKind::ReduceFrom {
                from,
                op: rop,
                dtype,
                src,
                dst,
                ..
            } => {
                push(from, src, Mode::Read);
                push(op.rank, dst, Mode::Accumulate(rop, dtype));
            }
            OpKind::Send { msg } => {
                let meta = prog.msg(msg);
                if let Some((s, _)) = meta.payload {
                    push(meta.src, s, Mode::Read);
                }
            }
            OpKind::Recv { msg } => {
                let meta = prog.msg(msg);
                if let Some((_, d)) = meta.payload {
                    push(meta.dst, d, Mode::Write);
                }
            }
            _ => {}
        }
    }
    out
}

/// Every pair of distinct ops whose accesses overlap and conflict on some
/// rank, sorted by `(lo, hi)` with duplicates removed. A sweep
/// over each rank's accesses in offset order keeps the accesses still
/// open at the current offset.
fn candidate_pairs(prog: &Program) -> Vec<Pair> {
    let mut pairs = Vec::new();
    let mut open: Vec<Access> = Vec::new();
    for (rank, mut acc) in accesses(prog).into_iter().enumerate() {
        acc.sort_unstable_by_key(|a| (a.off, a.end, a.op));
        open.clear();
        for a in acc {
            open.retain(|b| b.end > a.off);
            for b in &open {
                if a.op != b.op && a.mode.conflicts(b.mode) {
                    pairs.push(Pair {
                        lo: a.op.min(b.op),
                        hi: a.op.max(b.op),
                        rank: rank as u32,
                        off: a.off,
                        end: a.end.min(b.end),
                    });
                }
            }
            open.push(a);
        }
    }
    pairs.sort_by_key(|p| (p.lo, p.hi));
    pairs.dedup_by_key(|p| (p.lo, p.hi));
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    fn copy(src: BufRange, dst: BufRange) -> OpKind {
        OpKind::Copy { src, dst }
    }

    #[test]
    fn ordered_accesses_are_not_races() {
        let mut b = ProgramBuilder::new(2);
        let x = b.alloc(0, 8);
        let y = b.alloc(0, 8);
        let z = b.alloc(1, 8);
        let w = b.op(0, copy(x, y), &[]);
        // Reads of `y` after the write, one through a message edge.
        b.send_recv(0, 1, y, z, &[w], &[]);
        let r = b.op(0, copy(y, x), &[w]);
        // Two readers of `x`'s old contents never conflict with each other.
        b.nop(0, &[r]);
        assert_eq!(check_races(&b.build()), Ok(()));
    }

    #[test]
    fn unordered_write_and_read_race() {
        let mut b = ProgramBuilder::new(1);
        let x = b.alloc(0, 8);
        let y = b.alloc(0, 8);
        let z = b.alloc(0, 8);
        b.op(0, copy(x, y), &[]);
        // Reads half of `y` with no edge from the writer.
        b.op(0, copy(y.slice(4, 4), z.slice(0, 4)), &[]);
        let err = check_races(&b.build()).unwrap_err();
        assert!(err.contains("race on rank 0: op 0"), "{err}");
        assert!(err.contains("op 1") && err.contains("[12, 16)"), "{err}");
    }

    #[test]
    fn message_edges_order_the_receiver_after_the_sender() {
        // Rank 1 pulls `x` from rank 0 after a zero-payload message that
        // rank 0 sends once it has written `x`.
        let build = |pull_waits: bool| {
            let mut b = ProgramBuilder::new(2);
            let u = b.alloc(0, 8);
            let x = b.alloc(0, 8);
            let y = b.alloc(1, 8);
            let w = b.op(0, copy(u, x), &[]);
            let (_, r) = b.signal(0, 1, 0, &[w], &[]);
            let pull = OpKind::CrossCopy {
                from: 0,
                src: x,
                dst: y,
            };
            let deps = if pull_waits { vec![r] } else { vec![] };
            b.op(1, pull, &deps);
            b.build()
        };
        assert_eq!(check_races(&build(true)), Ok(()));
        let err = check_races(&build(false)).unwrap_err();
        assert!(err.contains("race on rank 0: op 0 (copy 8B)"), "{err}");
        // A signal writes nothing, so a copy on its receiver races with
        // nothing.
        let mut b = ProgramBuilder::new(2);
        let y = b.alloc(1, 8);
        let z = b.alloc(1, 8);
        b.signal(0, 1, 8, &[], &[]);
        b.op(1, copy(y, z), &[]);
        assert_eq!(check_races(&b.build()), Ok(()));
    }

    #[test]
    fn two_unordered_receives_into_one_buffer_race() {
        let mut b = ProgramBuilder::new(3);
        let s0 = b.alloc(0, 8);
        let s1 = b.alloc(1, 8);
        let d = b.alloc(2, 8);
        b.send_recv(0, 2, s0, d, &[], &[]);
        b.send_recv(1, 2, s1, d, &[], &[]);
        let err = check_races(&b.build()).unwrap_err();
        assert!(err.contains("race on rank 2: op 1 (recv"), "{err}");
    }

    #[test]
    fn unordered_accumulates_commute_only_with_each_other() {
        // Rank 0 adds two received operands into `acc` in either order;
        // `extra` is one more access to `acc` with no edge.
        let build = |extra: Option<OpKind>| {
            let mut b = ProgramBuilder::new(3);
            let acc = b.alloc(0, 8);
            let (t1, t2) = (b.alloc(0, 8), b.alloc(0, 8));
            let (s1, s2) = (b.alloc(1, 8), b.alloc(2, 8));
            b.alloc(0, 8);
            let sum = |src| OpKind::Reduce {
                vectorized: true,
                op: ReduceOp::Sum,
                dtype: DataType::Float32,
                src,
                dst: acc,
            };
            let (_, r1) = b.send_recv(1, 0, s1, t1, &[], &[]);
            let (_, r2) = b.send_recv(2, 0, s2, t2, &[], &[]);
            b.op(0, sum(t1), &[r1]);
            b.op(0, sum(t2), &[r2]);
            if let Some(k) = extra {
                b.op(0, k, &[]);
            }
            b.build()
        };
        assert_eq!(check_races(&build(None)), Ok(()));
        let max = OpKind::Reduce {
            vectorized: true,
            op: ReduceOp::Max,
            dtype: DataType::Float32,
            src: BufRange::new(24, 8),
            dst: BufRange::new(0, 8),
        };
        let read = copy(BufRange::new(0, 8), BufRange::new(24, 8));
        for extra in [max, read] {
            let err = check_races(&build(Some(extra))).unwrap_err();
            assert!(err.contains("op 4 (reduce 8B) and op 6"), "{err}");
        }
    }

    #[test]
    fn recv_before_send_is_an_error() {
        let mut p = {
            let mut b = ProgramBuilder::new(2);
            b.signal(0, 1, 8, &[], &[]);
            b.build()
        };
        p.ops.swap(0, 1);
        let err = check_races(&p).unwrap_err();
        assert!(err.contains("recv op 0 precedes its send"), "{err}");
    }

    #[test]
    fn length_mismatched_message_is_an_error() {
        let mut b = ProgramBuilder::new(2);
        let s = b.alloc(0, 8);
        let d = b.alloc(1, 8);
        b.send_recv(0, 1, s, d, &[], &[]);
        let mut p = b.build();
        p.msgs[0].payload = Some((s, d.slice(0, 4)));
        let err = check_races(&p).unwrap_err();
        assert!(
            err.contains("msg 0: payload ranges of 8 and 4 bytes"),
            "{err}"
        );
    }

    #[test]
    fn multi_pass_reachability_matches_one_pass() {
        // A chain long enough to need several ancestor blocks: op i copies
        // slot i into slot i + 1, after op i - 1. Then one reader per
        // `(slot, dep)` of `readers` copies that slot out after `dep`.
        let n: usize = 12_000;
        assert!(n * n.div_ceil(64) * 8 > ANCESTOR_BUDGET_BYTES);
        let chain = |readers: &[(usize, usize)]| {
            let mut b = ProgramBuilder::new(1);
            let slots = b.alloc(0, 8 * (n as u64 + 1));
            let out = b.alloc(0, 8);
            let slot = |i: usize| slots.slice(8 * i as u64, 8);
            for i in 0..n {
                let prev = i.checked_sub(1).map(|p| OpId(p as u32));
                b.op(0, copy(slot(i), slot(i + 1)), prev.as_slice());
            }
            for &(s, d) in readers {
                b.op(0, copy(slot(s), out), &[OpId(d as u32)]);
            }
            b.build()
        };
        // Slot 1, written by op 0, is read after op n - 2: ordered only
        // through the whole chain, across every block.
        assert_eq!(check_races(&chain(&[(1, n - 2)])), Ok(()));
        // Slot n, written by op n - 1, is read after op n - 2: the race
        // sits in the last block.
        let err = check_races(&chain(&[(n, n - 2)])).unwrap_err();
        assert!(
            err.contains(&format!("op {} (copy 8B) and op {n} (copy 8B)", n - 1)),
            "{err}"
        );
    }
}
