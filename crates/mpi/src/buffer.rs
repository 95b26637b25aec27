//! Per-rank linear memories and buffer ranges.
//!
//! Each rank owns a flat virtual address space. Collective builders
//! allocate ranges out of it (user buffers, shared-memory slots, pipeline
//! scratch) with a bump allocator in [`crate::builder::ProgramBuilder`].
//! Backing bytes are only materialized by seeded execution
//! ([`crate::execute_seeded`]); plain `execute` never allocates payloads, which is what makes 4096-rank ×
//! 128 MB experiments feasible.

use crate::datatype::{apply_reduce, DataType, ReduceOp};

/// A byte range within one rank's address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufRange {
    pub off: u64,
    pub len: u64,
}

impl BufRange {
    pub const EMPTY: BufRange = BufRange { off: 0, len: 0 };

    pub fn new(off: u64, len: u64) -> Self {
        BufRange { off, len }
    }

    #[inline]
    pub fn end(&self) -> u64 {
        self.off + self.len
    }

    /// A sub-range `[start, start+len)` relative to this range.
    ///
    /// Panics if the slice escapes the parent range — segmentation bugs in
    /// collective builders show up here instead of as silent corruption.
    pub fn slice(&self, start: u64, len: u64) -> BufRange {
        assert!(
            start + len <= self.len,
            "slice [{start}, {}) escapes range of len {}",
            start + len,
            self.len
        );
        BufRange {
            off: self.off + start,
            len,
        }
    }

    /// Split into `n` contiguous segments of `seg` bytes (last may be
    /// short), the unit of HAN's pipelining.
    pub fn segments(&self, seg: u64) -> Vec<BufRange> {
        (0..self.nsegments(seg))
            .map(|i| self.segment(seg, i))
            .collect()
    }

    /// How many segments [`BufRange::segments`] yields (1 for an empty
    /// range).
    pub fn nsegments(&self, seg: u64) -> usize {
        assert!(seg > 0, "segment size must be positive");
        if self.len == 0 {
            1
        } else {
            self.len.div_ceil(seg) as usize
        }
    }

    /// Segment `i` of [`BufRange::segments`], without building the list.
    pub fn segment(&self, seg: u64, i: usize) -> BufRange {
        if self.len == 0 {
            return *self;
        }
        let off = i as u64 * seg;
        self.slice(off, seg.min(self.len - off))
    }
}

/// The materialized memories of all ranks (seeded execution only).
#[derive(Debug, Clone)]
pub struct Memory {
    mems: Vec<Vec<u8>>,
}

impl Memory {
    /// Allocate zeroed memories with the given per-rank sizes.
    pub fn new(sizes: &[u64]) -> Self {
        Memory {
            mems: sizes.iter().map(|&s| vec![0u8; s as usize]).collect(),
        }
    }

    pub fn ranks(&self) -> usize {
        self.mems.len()
    }

    pub fn read(&self, rank: usize, r: BufRange) -> &[u8] {
        &self.mems[rank][r.off as usize..r.end() as usize]
    }

    pub fn write(&mut self, rank: usize, r: BufRange, data: &[u8]) {
        assert_eq!(data.len() as u64, r.len, "write length mismatch");
        self.range_mut(rank, r).copy_from_slice(data);
    }

    /// Mutable view of a range in one rank's memory.
    pub fn range_mut(&mut self, rank: usize, r: BufRange) -> &mut [u8] {
        &mut self.mems[rank][r.off as usize..r.end() as usize]
    }

    /// Borrow `src` on `src_rank` and `dst` on `dst_rank` at once, in
    /// place: `None` when both are on one rank and overlap.
    fn split(
        &mut self,
        src_rank: usize,
        src: BufRange,
        dst_rank: usize,
        dst: BufRange,
    ) -> Option<(&[u8], &mut [u8])> {
        let s = src.off as usize..src.end() as usize;
        let d = dst.off as usize..dst.end() as usize;
        if src_rank == dst_rank {
            let mem = &mut self.mems[src_rank];
            if s.end <= d.start {
                let (lo, hi) = mem.split_at_mut(d.start);
                Some((&lo[s], &mut hi[..d.len()]))
            } else if d.end <= s.start {
                let (lo, hi) = mem.split_at_mut(s.start);
                Some((&hi[..s.len()], &mut lo[d]))
            } else {
                None
            }
        } else if src_rank < dst_rank {
            let (lo, hi) = self.mems.split_at_mut(dst_rank);
            Some((&lo[src_rank][s], &mut hi[0][d]))
        } else {
            let (lo, hi) = self.mems.split_at_mut(src_rank);
            Some((&hi[0][s], &mut lo[dst_rank][d]))
        }
    }

    /// Copy within a rank (may not overlap).
    pub fn copy_within_rank(&mut self, rank: usize, src: BufRange, dst: BufRange) {
        self.copy_across(rank, src, rank, dst);
    }

    /// Copy across ranks (shared-memory window / message delivery), or
    /// within one rank when `src_rank == dst_rank`. Ranges on one rank
    /// must not overlap unless they are the same range.
    pub fn copy_across(&mut self, src_rank: usize, src: BufRange, dst_rank: usize, dst: BufRange) {
        assert_eq!(src.len, dst.len);
        if src_rank == dst_rank && src.off == dst.off {
            return;
        }
        let (s, d) = self
            .split(src_rank, src, dst_rank, dst)
            .expect("overlapping copy");
        d.copy_from_slice(s);
    }

    /// Reduce `dst` on `dst_rank` with `src` on `src_rank` in place:
    /// `dst[i] = op(dst[i], src[i])`. Only ranges that overlap on one rank
    /// copy the operand first.
    pub(crate) fn reduce(
        &mut self,
        dtype: DataType,
        op: ReduceOp,
        src_rank: usize,
        src: BufRange,
        dst_rank: usize,
        dst: BufRange,
    ) {
        match self.split(src_rank, src, dst_rank, dst) {
            Some((s, d)) => apply_reduce(dtype, op, s, d),
            None => {
                let s = self.read(src_rank, src).to_vec();
                apply_reduce(dtype, op, &s, self.range_mut(dst_rank, dst));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_and_end() {
        let r = BufRange::new(100, 50);
        assert_eq!(r.end(), 150);
        let s = r.slice(10, 20);
        assert_eq!(s, BufRange::new(110, 20));
    }

    #[test]
    #[should_panic]
    fn slice_out_of_bounds() {
        BufRange::new(0, 10).slice(5, 6);
    }

    #[test]
    fn segmentation() {
        let r = BufRange::new(0, 10);
        let segs = r.segments(4);
        assert_eq!(
            segs,
            vec![
                BufRange::new(0, 4),
                BufRange::new(4, 4),
                BufRange::new(8, 2)
            ]
        );
        // Segment larger than the buffer: one segment.
        assert_eq!(r.segments(100), vec![BufRange::new(0, 10)]);
        // Zero-length buffer still produces one (empty) segment so
        // zero-byte collectives have a pipeline to run.
        assert_eq!(BufRange::new(5, 0).segments(4).len(), 1);
    }

    #[test]
    fn memory_read_write() {
        let mut m = Memory::new(&[16, 8]);
        assert_eq!(m.ranks(), 2);
        m.write(0, BufRange::new(4, 3), &[1, 2, 3]);
        assert_eq!(m.read(0, BufRange::new(4, 3)), &[1, 2, 3]);
        assert_eq!(m.read(0, BufRange::new(0, 4)), &[0, 0, 0, 0]);
    }

    #[test]
    fn copy_within_both_directions() {
        let mut m = Memory::new(&[16]);
        m.write(0, BufRange::new(0, 4), &[9, 8, 7, 6]);
        m.copy_within_rank(0, BufRange::new(0, 4), BufRange::new(8, 4));
        assert_eq!(m.read(0, BufRange::new(8, 4)), &[9, 8, 7, 6]);
        m.write(0, BufRange::new(12, 2), &[1, 2]);
        m.copy_within_rank(0, BufRange::new(12, 2), BufRange::new(0, 2));
        assert_eq!(m.read(0, BufRange::new(0, 2)), &[1, 2]);
    }

    #[test]
    fn copy_across_ranks() {
        let mut m = Memory::new(&[8, 8]);
        m.write(1, BufRange::new(0, 4), &[5, 6, 7, 8]);
        m.copy_across(1, BufRange::new(0, 4), 0, BufRange::new(4, 4));
        assert_eq!(m.read(0, BufRange::new(4, 4)), &[5, 6, 7, 8]);
        // And low→high rank order.
        m.copy_across(0, BufRange::new(4, 2), 1, BufRange::new(6, 2));
        assert_eq!(m.read(1, BufRange::new(6, 2)), &[5, 6]);
    }

    #[test]
    #[should_panic(expected = "overlapping copy")]
    fn overlapping_copy_panics() {
        let mut m = Memory::new(&[16]);
        m.copy_within_rank(0, BufRange::new(0, 8), BufRange::new(4, 8));
    }

    fn i32s(xs: &[i32]) -> Vec<u8> {
        xs.iter().flat_map(|x| x.to_le_bytes()).collect()
    }

    /// Rank `r` holds `[100r, 100r + 1, ...]` as i32s.
    fn counting(ranks: usize, elems: usize) -> Memory {
        let mut m = Memory::new(&vec![4 * elems as u64; ranks]);
        for r in 0..ranks {
            let xs: Vec<i32> = (0..elems as i32).map(|i| 100 * r as i32 + i).collect();
            m.write(r, BufRange::new(0, 4 * elems as u64), &i32s(&xs));
        }
        m
    }

    fn sum(m: &mut Memory, src_rank: usize, src: BufRange, dst_rank: usize, dst: BufRange) {
        m.reduce(DataType::Int32, ReduceOp::Sum, src_rank, src, dst_rank, dst);
    }

    #[test]
    fn reduce_within_rank_both_directions() {
        let mut m = counting(1, 8);
        // Source before destination: elements 0..2 into 4..6.
        sum(&mut m, 0, BufRange::new(0, 8), 0, BufRange::new(16, 8));
        assert_eq!(m.read(0, BufRange::new(16, 8)), i32s(&[4, 6]).as_slice());
        // Destination before source: elements 6..8 into 1..3.
        sum(&mut m, 0, BufRange::new(24, 8), 0, BufRange::new(4, 8));
        assert_eq!(m.read(0, BufRange::new(4, 8)), i32s(&[7, 9]).as_slice());
        // The sources are untouched.
        assert_eq!(m.read(0, BufRange::new(0, 4)), i32s(&[0]).as_slice());
        assert_eq!(m.read(0, BufRange::new(24, 8)), i32s(&[6, 7]).as_slice());
    }

    #[test]
    fn reduce_across_ranks_both_directions() {
        let mut m = counting(3, 4);
        // The lower rank reads from a higher one.
        sum(&mut m, 2, BufRange::new(4, 8), 0, BufRange::new(0, 8));
        assert_eq!(m.read(0, BufRange::new(0, 8)), i32s(&[201, 203]).as_slice());
        // The higher rank reads from a lower one.
        sum(&mut m, 0, BufRange::new(8, 8), 1, BufRange::new(8, 8));
        assert_eq!(m.read(1, BufRange::new(8, 8)), i32s(&[104, 106]).as_slice());
        assert_eq!(
            m.read(2, BufRange::new(0, 16)),
            i32s(&[200, 201, 202, 203]).as_slice()
        );
    }

    #[test]
    fn overlapping_reduce_reads_the_operand_before_writing() {
        let mut m = counting(1, 4);
        // The same range: every element doubles.
        sum(&mut m, 0, BufRange::new(0, 8), 0, BufRange::new(0, 8));
        assert_eq!(
            m.read(0, BufRange::new(0, 16)),
            i32s(&[0, 2, 2, 3]).as_slice()
        );
        // Overlapping by one element: dst[i] += the old src[i].
        sum(&mut m, 0, BufRange::new(4, 8), 0, BufRange::new(8, 8));
        assert_eq!(
            m.read(0, BufRange::new(0, 16)),
            i32s(&[0, 2, 4, 5]).as_slice()
        );
    }
}
