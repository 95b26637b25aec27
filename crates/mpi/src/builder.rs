//! Program construction.
//!
//! The builder is the API collective modules program against: it bump-
//! allocates per-rank buffers, creates ops with dependencies, and creates
//! pre-matched send/recv pairs. Because both halves of every message are
//! created together, there is no tag ambiguity anywhere in the system.
//!
//! Each [`ProgramBuilder::op`] encodes the op into a 16-byte record and
//! appends it and its dependency slice to the program's flat arrays, so a
//! build makes O(log n) amortized vector growths rather than one
//! allocation per op:
//!
//! | array | bytes | per |
//! |---|---|---|
//! | `ops` | 16 | op |
//! | `operands` | 24 | distinct range triple of a data op |
//! | `dep_off` | 4 | op |
//! | `dep` | 2, or 4 once an edge does not fit | dependency edge |
//! | `msgs` | 56 | send/recv pair |
//!
//! A data op's two offsets and one length go to the program's operands
//! side table, 24 bytes per distinct range triple: an op whose ranges
//! equal one of the last few entries indexes it, which is how the
//! hierarchy's primitive, repeated on every rank and segment, stores its
//! ranges once. Each dependency is stored as its distance back in two
//! bytes until one is 65,536 or more ops back, or not back at all; the
//! program's edges are then rewritten as four-byte ids (see
//! [`crate::program::Edges`]). A program holds at most 2^29 ops and 2^29
//! messages, and the builder panics on a larger one, since the executor
//! packs each id with a 3-bit tag.
//! [`ProgramBuilder::new`] starts from the arrays of the largest program
//! dropped on its thread (see [`crate::program`]), so a thread that
//! builds programs in a row grows them only when a build outgrows every
//! earlier one.

use crate::buffer::BufRange;
use crate::program::{MsgId, MsgMeta, OpId, OpKind, Program, ID_LIMIT};
use han_sim::Time;

/// Incremental builder for a [`Program`].
#[derive(Debug)]
pub struct ProgramBuilder {
    prog: Program,
}

impl ProgramBuilder {
    /// A builder for a program over `nranks` ranks, refilling the arrays
    /// of the largest program dropped on this thread.
    pub fn new(nranks: usize) -> Self {
        assert!(nranks > 0);
        ProgramBuilder {
            prog: Program::recycled(nranks),
        }
    }

    pub fn nranks(&self) -> usize {
        self.prog.nranks
    }

    pub fn num_ops(&self) -> usize {
        self.prog.ops.len()
    }

    /// Bump-allocate `bytes` in `rank`'s address space.
    pub fn alloc(&mut self, rank: usize, bytes: u64) -> BufRange {
        let off = self.prog.mem_size[rank];
        self.prog.mem_size[rank] += bytes;
        BufRange::new(off, bytes)
    }

    /// Allocate the same number of bytes on every rank (e.g. the user
    /// buffer of a collective). Offsets may differ across ranks.
    pub fn alloc_all(&mut self, bytes: u64) -> Vec<BufRange> {
        (0..self.prog.nranks)
            .map(|r| self.alloc(r, bytes))
            .collect()
    }

    /// Add an op owned by `rank`, runnable after `deps`.
    #[inline]
    pub fn op(&mut self, rank: usize, kind: OpKind, deps: &[OpId]) -> OpId {
        debug_assert!(rank < self.prog.nranks, "rank {rank} out of range");
        self.prog.push_op(rank as u32, kind, deps)
    }

    pub fn nop(&mut self, rank: usize, deps: &[OpId]) -> OpId {
        self.op(rank, OpKind::Nop, deps)
    }

    pub fn delay(&mut self, rank: usize, dur: Time, deps: &[OpId]) -> OpId {
        self.op(rank, OpKind::Delay { dur }, deps)
    }

    pub fn sleep(&mut self, rank: usize, dur: Time, deps: &[OpId]) -> OpId {
        self.op(rank, OpKind::Sleep { dur }, deps)
    }

    /// Create a matched send/recv pair moving the bytes of `sbuf` (on
    /// `src`) into `dbuf` (on `dst`); the two ranges have equal lengths.
    ///
    /// Returns `(send_op, recv_op)`. The send depends on `sdeps` (data must
    /// be ready), the recv on `rdeps` (receive buffer must be free).
    pub fn send_recv(
        &mut self,
        src: usize,
        dst: usize,
        sbuf: BufRange,
        dbuf: BufRange,
        sdeps: &[OpId],
        rdeps: &[OpId],
    ) -> (OpId, OpId) {
        self.message(src, dst, sbuf.len, Some((sbuf, dbuf)), sdeps, rdeps)
    }

    /// Create a matched send/recv pair that costs `bytes` on the wire but
    /// moves no data: a flag, a token or a timing probe.
    pub fn signal(
        &mut self,
        src: usize,
        dst: usize,
        bytes: u64,
        sdeps: &[OpId],
        rdeps: &[OpId],
    ) -> (OpId, OpId) {
        self.message(src, dst, bytes, None, sdeps, rdeps)
    }

    fn message(
        &mut self,
        src: usize,
        dst: usize,
        bytes: u64,
        payload: Option<(BufRange, BufRange)>,
        sdeps: &[OpId],
        rdeps: &[OpId],
    ) -> (OpId, OpId) {
        assert_ne!(src, dst, "self-message from rank {src}");
        let n = self.prog.msgs.len();
        assert!(n < ID_LIMIT, "more than 2^29 messages");
        let msg = MsgId(n as u32);
        self.prog.msgs.push(MsgMeta {
            src: src as u32,
            dst: dst as u32,
            bytes,
            payload,
        });
        let s = self.op(src, OpKind::Send { msg }, sdeps);
        let r = self.op(dst, OpKind::Recv { msg }, rdeps);
        (s, r)
    }

    pub fn build(self) -> Program {
        debug_assert_eq!(self.prog.validate(), Ok(()));
        self.prog
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_bump_per_rank() {
        let mut b = ProgramBuilder::new(2);
        let a = b.alloc(0, 16);
        let c = b.alloc(0, 8);
        let d = b.alloc(1, 4);
        assert_eq!(a, BufRange::new(0, 16));
        assert_eq!(c, BufRange::new(16, 8));
        assert_eq!(d, BufRange::new(0, 4));
        let p = b.build();
        assert_eq!(p.mem_size, vec![24, 4]);
    }

    #[test]
    fn alloc_all_same_size() {
        let mut b = ProgramBuilder::new(3);
        b.alloc(1, 7); // skew rank 1's offsets
        let bufs = b.alloc_all(10);
        assert_eq!(bufs.len(), 3);
        assert_eq!(bufs[0], BufRange::new(0, 10));
        assert_eq!(bufs[1], BufRange::new(7, 10));
        for r in &bufs {
            assert_eq!(r.len, 10);
        }
    }

    #[test]
    fn send_recv_creates_matched_pair() {
        let mut b = ProgramBuilder::new(2);
        let (sbuf, dbuf) = (b.alloc(0, 64), b.alloc(1, 64));
        let (s, r) = b.send_recv(0, 1, sbuf, dbuf, &[], &[]);
        b.signal(1, 0, 8, &[r], &[]);
        let p = b.build();
        assert!(p.validate().is_ok());
        match (p.kind(s), p.kind(r)) {
            (OpKind::Send { msg: m1 }, OpKind::Recv { msg: m2 }) => assert_eq!(m1, m2),
            other => panic!("unexpected kinds {other:?}"),
        }
        assert_eq!(p.msgs.len(), 2);
        assert_eq!(p.msg(MsgId(0)).bytes, 64);
        assert_eq!(p.msg(MsgId(0)).payload, Some((sbuf, dbuf)));
        assert_eq!(p.msg(MsgId(1)).bytes, 8);
        assert_eq!(p.msg(MsgId(1)).payload, None);
    }

    #[test]
    #[should_panic]
    fn self_send_panics() {
        let mut b = ProgramBuilder::new(2);
        b.signal(1, 1, 8, &[], &[]);
    }

    #[test]
    fn dependency_chain_builds_valid_program() {
        let mut b = ProgramBuilder::new(1);
        let a = b.nop(0, &[]);
        let c = b.delay(0, Time::from_ns(5), &[a]);
        let d = b.sleep(0, Time::from_ns(5), &[a, c]);
        let p = b.build();
        assert_eq!(p.validate(), Ok(()));
        assert!(p.deps(d).eq([a, c]));
        assert_eq!(p.deps(a).len(), 0);
    }
}
