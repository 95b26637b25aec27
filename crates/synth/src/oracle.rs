//! Symbolic correctness oracle for synthesized schedules.
//!
//! [`verify_schedule`] proves that a schedule delivers the right data in
//! *every* execution order its dependencies allow, without moving a byte
//! of payload. It runs in two steps over the compiled [`Program`]:
//!
//! 1. **Race freedom** ([`han_mpi::check_races`]). The program is well
//!    formed, and every two ops that touch overlapping bytes of one rank,
//!    one of them writing, are ordered by dependency and message edges.
//! 2. **Chunk provenance.** One walk over the ops in id order, a
//!    topological order, tracks what every byte holds as an abstract
//!    value: ⊥ (never written), or the sum over a set of ranks of the
//!    byte at one offset of each rank's original user buffer. Copies and
//!    messages move values, reductions union disjoint rank sets at equal
//!    offsets, and the final user buffers must match the collective's
//!    postcondition.
//!
//! Race freedom makes the walk's order stand for all of them: any two
//! linear extensions of the happens-before order differ by swaps of
//! adjacent unordered ops, which touch no common written byte and so
//! commute. The abstract values make the result independent of the
//! payload and of the order of summation, so one walk covers every
//! payload and every reduction tree. Cost grows with ops × intervals
//! and does not depend on the message size.

use han_colls::stack::build_coll;
use han_colls::Coll;
use han_core::{Han, HanConfig};
use han_machine::MachinePreset;
use han_mpi::{check_races, BufRange, DataType, OpId, OpKind, Program, ReduceOp};
use std::collections::{BTreeMap, HashMap};

/// What a run of bytes holds: the sum over the ranks of set `ranks` of
/// their original user-buffer bytes, at message offset `x + shift` for
/// the byte at position `x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Chunk {
    ranks: u32,
    shift: i64,
}

/// `len` bytes holding `val` (`None` is ⊥). Read out of memory, `shift`
/// is relative to the start of the range read.
#[derive(Debug, Clone, Copy)]
struct Seg {
    len: u64,
    val: Option<Chunk>,
}

/// One rank's memory: written pieces `start -> (end, chunk)`, with
/// `shift` relative to address 0. Bytes outside every piece are ⊥.
type Mem = BTreeMap<u64, (u64, Chunk)>;

/// Interned rank sets, so a [`Chunk`] is `Copy` and compares in O(1).
#[derive(Default)]
struct RankSets {
    sets: Vec<Vec<u64>>,
    ids: HashMap<Vec<u64>, u32>,
}

impl RankSets {
    fn intern(&mut self, bits: Vec<u64>) -> u32 {
        if let Some(&id) = self.ids.get(&bits) {
            return id;
        }
        let id = self.sets.len() as u32;
        self.sets.push(bits.clone());
        self.ids.insert(bits, id);
        id
    }

    /// The set of ranks `rs` over a world of `n` ranks.
    fn of(&mut self, n: usize, rs: impl IntoIterator<Item = usize>) -> u32 {
        let mut bits = vec![0u64; n.div_ceil(64)];
        for r in rs {
            bits[r / 64] |= 1 << (r % 64);
        }
        self.intern(bits)
    }

    /// The union of two disjoint sets, or `None` when they share a rank.
    fn union(&mut self, a: u32, b: u32) -> Option<u32> {
        let (x, y) = (&self.sets[a as usize], &self.sets[b as usize]);
        if x.iter().zip(y).any(|(p, q)| p & q != 0) {
            return None;
        }
        let bits = x.iter().zip(y).map(|(p, q)| p | q).collect();
        Some(self.intern(bits))
    }

    fn describe(&self, id: u32) -> String {
        let ranks: Vec<String> = self.sets[id as usize]
            .iter()
            .enumerate()
            .flat_map(|(w, &bits)| {
                (0..64)
                    .filter(move |b| bits >> b & 1 == 1)
                    .map(move |b| (w * 64 + b).to_string())
            })
            .collect();
        format!("{{{}}}", ranks.join(","))
    }
}

/// The bytes of `r` as runs, with shifts relative to `r.off`.
fn read(mem: &Mem, r: BufRange) -> Vec<Seg> {
    let mut out = Vec::new();
    if r.len == 0 {
        return out;
    }
    let mut pos = r.off;
    let first = match mem.range(..=r.off).next_back() {
        Some((&s, &(e, _))) if e > r.off => s,
        _ => r.off,
    };
    for (&s, &(e, c)) in mem.range(first..r.end()) {
        let (s, e) = (s.max(r.off), e.min(r.end()));
        if s > pos {
            out.push(Seg {
                len: s - pos,
                val: None,
            });
        }
        out.push(Seg {
            len: e - s,
            val: Some(Chunk {
                ranks: c.ranks,
                shift: c.shift + r.off as i64,
            }),
        });
        pos = e;
    }
    if pos < r.end() {
        out.push(Seg {
            len: r.end() - pos,
            val: None,
        });
    }
    out
}

/// Overwrite `r` with `segs` (shifts relative to `r.off`).
fn write(mem: &mut Mem, r: BufRange, segs: &[Seg]) {
    if r.len == 0 {
        return;
    }
    // Cut the pieces that straddle either end of `r`, then drop the ones
    // inside.
    if let Some((&s, &(e, c))) = mem.range(..r.off).next_back() {
        if e > r.off {
            mem.insert(s, (r.off, c));
            if e > r.end() {
                mem.insert(r.end(), (e, c));
            }
        }
    }
    let inside: Vec<u64> = mem.range(r.off..r.end()).map(|(&s, _)| s).collect();
    for s in inside {
        let (e, c) = mem.remove(&s).expect("piece just listed");
        if e > r.end() {
            mem.insert(r.end(), (e, c));
        }
    }
    let mut pos = r.off;
    for seg in segs {
        if let Some(c) = seg.val {
            let c = Chunk {
                ranks: c.ranks,
                shift: c.shift - r.off as i64,
            };
            mem.insert(pos, (pos + seg.len, c));
        }
        pos += seg.len;
    }
}

/// `f` over the common refinement of two run lists of equal total length:
/// `f(rel_start, len, a, b)` for each stretch where neither changes.
fn zip_segs(
    a: &[Seg],
    b: &[Seg],
    mut f: impl FnMut(u64, u64, Option<Chunk>, Option<Chunk>) -> Result<Seg, String>,
) -> Result<Vec<Seg>, String> {
    let (mut i, mut j, mut ai, mut bj, mut pos) = (0, 0, 0, 0, 0);
    let mut out = Vec::with_capacity(a.len().max(b.len()));
    while i < a.len() && j < b.len() {
        let len = (a[i].len - ai).min(b[j].len - bj);
        out.push(f(pos, len, a[i].val, b[j].val)?);
        pos += len;
        ai += len;
        bj += len;
        if ai == a[i].len {
            (i, ai) = (i + 1, 0);
        }
        if bj == b[j].len {
            (j, bj) = (j + 1, 0);
        }
    }
    Ok(out)
}

/// Every rank's abstract memory after the ops of `prog` ran in id order,
/// starting from each rank holding its own contribution at identity
/// offset in `bufs[rank]` and ⊥ everywhere else. Reductions must be
/// `Sum` over `Float32`, like the collective's.
fn provenance(prog: &Program, bufs: &[BufRange], sets: &mut RankSets) -> Result<Vec<Mem>, String> {
    let n = prog.nranks;
    let mut mem: Vec<Mem> = vec![Mem::new(); n];
    for (r, b) in bufs.iter().enumerate() {
        if b.len > 0 {
            let ranks = sets.of(n, [r]);
            mem[r].insert(
                b.off,
                (
                    b.end(),
                    Chunk {
                        ranks,
                        shift: -(b.off as i64),
                    },
                ),
            );
        }
    }
    let mut in_flight: Vec<Option<Vec<Seg>>> = vec![None; prog.msgs.len()];
    for (i, op) in prog.ops.iter().enumerate() {
        let rank = op.rank as usize;
        match prog.kind(OpId(i as u32)) {
            OpKind::Copy { src: s, dst: d } => copy(&mut mem, i, (rank, s), (rank, d))?,
            OpKind::CrossCopy {
                from,
                src: s,
                dst: d,
            } => copy(&mut mem, i, (from as usize, s), (rank, d))?,
            OpKind::Reduce {
                op: rop,
                dtype,
                src: s,
                dst: d,
                ..
            } => reduce(&mut mem, sets, i, (rop, dtype), (rank, s), (rank, d))?,
            OpKind::ReduceFrom {
                from,
                op: rop,
                dtype,
                src: s,
                dst: d,
                ..
            } => reduce(
                &mut mem,
                sets,
                i,
                (rop, dtype),
                (from as usize, s),
                (rank, d),
            )?,
            OpKind::Send { msg } => {
                let meta = prog.msg(msg);
                if let Some((s, _)) = meta.payload {
                    in_flight[msg.0 as usize] = Some(read(&mem[meta.src as usize], s));
                }
            }
            OpKind::Recv { msg } => {
                let meta = prog.msg(msg);
                if let (Some((_, d)), Some(segs)) = (meta.payload, in_flight[msg.0 as usize].take())
                {
                    write(&mut mem[meta.dst as usize], d, &segs);
                }
            }
            _ => {}
        }
    }
    Ok(mem)
}

/// Op `i` copies `s` on `from` to `d` on `to`. Overlapping distinct
/// ranges on one rank are an error, as in seeded execution.
fn copy(
    mem: &mut [Mem],
    i: usize,
    (from, s): (usize, BufRange),
    (to, d): (usize, BufRange),
) -> Result<(), String> {
    if from == to && s != d && s.off < d.end() && d.off < s.end() {
        return Err(format!("op {i}: overlapping copy on rank {to}"));
    }
    let segs = read(&mem[from], s);
    write(&mut mem[to], d, &segs);
    Ok(())
}

/// Op `i` reduces `s` on `from` into `d` on `to` with `(op, dtype)`.
fn reduce(
    mem: &mut [Mem],
    sets: &mut RankSets,
    i: usize,
    (op, dtype): (ReduceOp, DataType),
    (from, s): (usize, BufRange),
    (to, d): (usize, BufRange),
) -> Result<(), String> {
    if (op, dtype) != (ReduceOp::Sum, DataType::Float32) {
        return Err(format!(
            "op {i}: reduces with {op:?} over {dtype}, but the collective sums f32"
        ));
    }
    let esize = dtype.size() as i64;
    let operand = read(&mem[from], s);
    let acc = read(&mem[to], d);
    let out = zip_segs(&acc, &operand, |pos, len, a, b| {
        let at = || {
            format!(
                "op {i}: rank {to} bytes [{}, {})",
                d.off + pos,
                d.off + pos + len
            )
        };
        let (Some(a), Some(b)) = (a, b) else {
            return Err(format!("{}: reduces memory the schedule never wrote", at()));
        };
        if a.shift != b.shift {
            return Err(format!(
                "{}: adds message offset {} into offset {}",
                at(),
                pos as i64 + b.shift,
                pos as i64 + a.shift
            ));
        }
        if (
            pos as i64 % esize,
            (pos as i64 + a.shift) % esize,
            len as i64 % esize,
        ) != (0, 0, 0)
        {
            return Err(format!("{}: not aligned to {dtype} elements", at()));
        }
        let Some(ranks) = sets.union(a.ranks, b.ranks) else {
            return Err(format!(
                "{}: adds ranks {} into ranks {}, counting some twice",
                at(),
                sets.describe(b.ranks),
                sets.describe(a.ranks)
            ));
        };
        Ok(Seg {
            len,
            val: Some(Chunk {
                ranks,
                shift: a.shift,
            }),
        })
    })?;
    write(&mut mem[to], d, &out);
    Ok(())
}

/// Check `prog` for `coll` at `m` bytes from `root`, where `bufs[r]` is
/// rank `r`'s user buffer.
fn check(prog: &Program, bufs: &[BufRange], coll: Coll, m: u64, root: usize) -> Result<(), String> {
    if coll != Coll::Bcast && m % 4 != 0 {
        return Err(format!(
            "reduction payload must be 4-byte aligned, got m={m}"
        ));
    }
    check_races(prog)?;
    let n = prog.nranks;
    let mut sets = RankSets::default();
    let mem = provenance(prog, bufs, &mut sets)?;
    let (want, ranks): (u32, Vec<usize>) = match coll {
        Coll::Bcast => (sets.of(n, [root]), (0..n).collect()),
        Coll::Reduce => (sets.of(n, 0..n), vec![root]),
        _ => (sets.of(n, 0..n), (0..n).collect()),
    };
    for r in ranks {
        let mut pos = 0;
        for seg in read(&mem[r], bufs[r]) {
            let held = match seg.val {
                Some(c) if c.ranks == want && c.shift == 0 => {
                    pos += seg.len;
                    continue;
                }
                Some(c) => format!(
                    "ranks {} at message offset {}",
                    sets.describe(c.ranks),
                    pos as i64 + c.shift
                ),
                None => "never-written memory".to_string(),
            };
            return Err(format!(
                "{} m={m} root={root}: rank {r} bytes [{pos}, {}) of its buffer hold {held}, \
                 not ranks {} at offset {pos}",
                coll.name(),
                pos + seg.len,
                sets.describe(want)
            ));
        }
    }
    Ok(())
}

/// Compile `cfg`'s schedule for `coll` at `m` bytes from `root`.
/// [`build_coll`] allocates every rank's user buffer first, so it is
/// `[0, m)` on every rank.
fn build(
    preset: &MachinePreset,
    cfg: &HanConfig,
    coll: Coll,
    m: u64,
    root: usize,
) -> Result<(Program, Vec<BufRange>), String> {
    if !matches!(coll, Coll::Bcast | Coll::Allreduce | Coll::Reduce) {
        return Err(format!("oracle does not model {}", coll.name()));
    }
    let prog = build_coll(&Han::with_config(*cfg), preset, coll, m, root)
        .map_err(|e| format!("{cfg}: {} unsupported: {e:?}", coll.name()))?;
    let bufs = vec![BufRange::new(0, m); prog.nranks];
    Ok((prog, bufs))
}

/// Check that `cfg`'s schedule for `coll` at `m` bytes from `root`
/// delivers the collective's result on every rank in every execution
/// order its dependencies allow. `Ok(())` means race-free and correct;
/// a malformed program is an `Err`, never a panic.
pub fn verify_schedule(
    preset: &MachinePreset,
    cfg: &HanConfig,
    coll: Coll,
    m: u64,
    root: usize,
) -> Result<(), String> {
    let (prog, bufs) = build(preset, cfg, coll, m, root)?;
    check(&prog, &bufs, coll, m, root).map_err(|e| format!("{cfg}: {e}"))
}

/// The full-payload oracle this module replaced, kept for one release as
/// a differential check: it executes a schedule with seeded memory on
/// deterministic payloads and compares every delivered buffer with the
/// naive reference. It checks the one order the simulator picks.
#[cfg(test)]
mod bytes {
    use super::*;
    use han_colls::MpiStack;
    use han_machine::Machine;
    use han_mpi::{execute_seeded, ExecOpts};

    /// Element `j` of rank `rank`'s reduction payload, a small integer
    /// as `f32` (so every partial sum is exact in any order). It repeats
    /// every 29 elements.
    fn reduce_elem(rank: usize, j: usize) -> f32 {
        ((rank * 13 + j * 7) % 29) as f32
    }

    /// Byte `i` of the broadcast payload. It repeats every 251 bytes.
    fn bcast_byte(i: usize) -> u8 {
        (i.wrapping_mul(131).wrapping_add(17) % 251) as u8
    }

    /// Payloads and references are built from tiles of this many periods.
    const TILE_PERIODS: usize = 64;

    pub(super) fn reduce_tile(rank: usize) -> Vec<u8> {
        (0..29 * TILE_PERIODS)
            .flat_map(|j| reduce_elem(rank, j).to_le_bytes())
            .collect()
    }

    /// The elementwise sum of `n` ranks' reduction payloads.
    pub(super) fn sum_tile(n: usize) -> Vec<u8> {
        (0..29 * TILE_PERIODS)
            .flat_map(|j| (0..n).map(|r| reduce_elem(r, j)).sum::<f32>().to_le_bytes())
            .collect()
    }

    pub(super) fn bcast_tile() -> Vec<u8> {
        (0..251 * TILE_PERIODS).map(bcast_byte).collect()
    }

    /// Fill `dst` with `tile` repeated, the last copy cut short.
    pub(super) fn fill(dst: &mut [u8], tile: &[u8]) {
        for c in dst.chunks_mut(tile.len()) {
            c.copy_from_slice(&tile[..c.len()]);
        }
    }

    /// Whether `buf` equals `tile` repeated, the last copy cut short.
    pub(super) fn is_filled(buf: &[u8], tile: &[u8]) -> bool {
        buf.chunks(tile.len()).all(|c| c == &tile[..c.len()])
    }

    /// Execute `prog` (built from `cfg`) with real data and compare every
    /// delivered buffer with the naive reference.
    pub(super) fn check(
        preset: &MachinePreset,
        cfg: &HanConfig,
        prog: &Program,
        bufs: &[BufRange],
        coll: Coll,
        m: u64,
        root: usize,
    ) -> Result<(), String> {
        let opts = ExecOpts::timing(Han::with_config(*cfg).flavor().p2p());
        let mut machine = Machine::from_preset(preset);
        if coll == Coll::Bcast {
            let tile = bcast_tile();
            let (_, mem) = execute_seeded(&mut machine, prog, &opts, |mm| {
                fill(mm.range_mut(root, bufs[root]), &tile)
            });
            for (r, buf) in bufs.iter().enumerate() {
                if !is_filled(mem.read(r, *buf), &tile) {
                    return Err(format!("bcast m={m}: rank {r} differs from root payload"));
                }
            }
            return Ok(());
        }
        let (_, mem) = execute_seeded(&mut machine, prog, &opts, |mm| {
            for (r, buf) in bufs.iter().enumerate() {
                fill(mm.range_mut(r, *buf), &reduce_tile(r));
            }
        });
        let expect = sum_tile(bufs.len());
        let ranks: Vec<usize> = if coll == Coll::Allreduce {
            (0..bufs.len()).collect()
        } else {
            vec![root]
        };
        for r in ranks {
            if !is_filled(mem.read(r, bufs[r]), &expect) {
                return Err(format!(
                    "{} m={m}: rank {r} differs from the sum",
                    coll.name()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_machine::{dgx_like, mini, mini3};
    use han_mpi::program::{MsgId, MsgMeta};
    use han_mpi::{Edges, ProgramBuilder};

    #[test]
    fn accepts_known_good_schedules() {
        let preset = mini(3, 2);
        for coll in [Coll::Bcast, Coll::Allreduce, Coll::Reduce] {
            verify_schedule(
                &preset,
                &HanConfig::default().with_fs(4096),
                coll,
                16 * 1024,
                0,
            )
            .unwrap();
        }
        // Routed + sub-segmented broadcast.
        let routed = HanConfig::default()
            .with_fs(2048)
            .with_route(4, han_colls::InterAlg::Chain);
        verify_schedule(&preset, &routed, Coll::Bcast, 16 * 1024, 3).unwrap();
    }

    #[test]
    fn rejects_unmodeled_collectives_and_misaligned_payloads() {
        let preset = mini(2, 2);
        let cfg = HanConfig::default();
        assert!(verify_schedule(&preset, &cfg, Coll::Barrier, 1024, 0).is_err());
        assert!(verify_schedule(&preset, &cfg, Coll::Allreduce, 1022, 0).is_err());
    }

    #[test]
    fn tiles_equal_the_per_element_closed_forms() {
        use bytes::{bcast_tile, fill, is_filled, reduce_tile, sum_tile};
        let n = 16;
        for len in [4, 116, 1000, 16 * 1024 + 4] {
            let tiled = |tile: &[u8]| {
                let mut buf = vec![0u8; len];
                fill(&mut buf, tile);
                assert!(is_filled(&buf, tile));
                buf
            };
            let nelem = len / 4;
            for rank in [0, 1, 5, n - 1] {
                let want: Vec<u8> = (0..nelem)
                    .flat_map(|j| (((rank * 13 + j * 7) % 29) as f32).to_le_bytes())
                    .collect();
                assert_eq!(tiled(&reduce_tile(rank)), want, "rank {rank} len {len}");
            }
            let want: Vec<u8> = (0..nelem)
                .flat_map(|j| {
                    let s: f32 = (0..n).map(|r| ((r * 13 + j * 7) % 29) as f32).sum();
                    s.to_le_bytes()
                })
                .collect();
            assert_eq!(tiled(&sum_tile(n)), want, "sum len {len}");
            let want: Vec<u8> = (0..len as u64)
                .map(|i| (i.wrapping_mul(131).wrapping_add(17) % 251) as u8)
                .collect();
            assert_eq!(tiled(&bcast_tile()), want, "bcast len {len}");
            let mut bad = want.clone();
            bad[len - 1] ^= 1;
            assert!(!is_filled(&bad, &bcast_tile()));
        }
    }

    #[test]
    fn memory_map_reads_back_what_was_written() {
        let c = |ranks, shift| Some(Chunk { ranks, shift });
        let seg = |len, val| Seg { len, val };
        let runs = |segs: Vec<Seg>| -> Vec<(u64, Option<Chunk>)> {
            segs.into_iter().map(|s| (s.len, s.val)).collect()
        };
        let mut mem = Mem::new();
        write(&mut mem, BufRange::new(10, 20), &[seg(20, c(1, 0))]);
        // Overwrite the middle with ⊥ and a second run.
        write(
            &mut mem,
            BufRange::new(14, 8),
            &[seg(4, None), seg(4, c(2, 100))],
        );
        assert_eq!(
            runs(read(&mem, BufRange::new(0, 40))),
            vec![
                (10, None),
                (4, c(1, -10)),
                (4, None),
                (4, c(2, 86)),
                (8, c(1, -10)),
                (10, None),
            ]
        );
        // A read inside one piece is relative to its own start.
        assert_eq!(runs(read(&mem, BufRange::new(25, 3))), vec![(3, c(1, 15))]);
        // Writing what was read elsewhere moves the shifts with it.
        let moved = read(&mem, BufRange::new(10, 8));
        write(&mut mem, BufRange::new(100, 8), &moved);
        assert_eq!(
            runs(read(&mem, BufRange::new(100, 8))),
            vec![(4, c(1, 0)), (4, None)]
        );
    }

    /// A two-rank program where rank 1 reduces its buffer into rank 0's
    /// with `op` (twice when `twice`), for the reduction rules.
    fn two_rank_reduce(op: ReduceOp, twice: bool) -> (Program, Vec<BufRange>) {
        let mut b = ProgramBuilder::new(2);
        let bufs = b.alloc_all(16);
        let red = OpKind::ReduceFrom {
            from: 1,
            vectorized: false,
            op,
            dtype: DataType::Float32,
            src: bufs[1],
            dst: bufs[0],
        };
        let first = b.op(0, red, &[]);
        if twice {
            b.op(0, red, &[first]);
        }
        (b.build(), bufs)
    }

    #[test]
    fn reduction_rules() {
        let (p, bufs) = two_rank_reduce(ReduceOp::Sum, false);
        assert_eq!(check(&p, &bufs, Coll::Reduce, 16, 0), Ok(()));
        // Rank 1 never receives the sum.
        let err = check(&p, &bufs, Coll::Allreduce, 16, 0).unwrap_err();
        assert!(
            err.contains("rank 1 bytes [0, 16) of its buffer hold ranks {1}"),
            "{err}"
        );
        let (p, _) = two_rank_reduce(ReduceOp::Sum, true);
        let err = check(&p, &bufs, Coll::Reduce, 16, 0).unwrap_err();
        assert!(err.contains("counting some twice"), "{err}");
        let (p, _) = two_rank_reduce(ReduceOp::Max, false);
        let err = check(&p, &bufs, Coll::Reduce, 16, 0).unwrap_err();
        assert!(err.contains("Max over f32"), "{err}");

        // Into never-written scratch, and at mismatched offsets.
        let mut b = ProgramBuilder::new(2);
        let bufs = b.alloc_all(16);
        let scratch = b.alloc(0, 16);
        let red = |src: BufRange, dst: BufRange| OpKind::Reduce {
            vectorized: true,
            op: ReduceOp::Sum,
            dtype: DataType::Float32,
            src,
            dst,
        };
        b.op(0, red(bufs[0], scratch), &[]);
        let err = check(&b.build(), &bufs, Coll::Reduce, 16, 0).unwrap_err();
        assert!(
            err.contains("reduces memory the schedule never wrote"),
            "{err}"
        );
        let mut b = ProgramBuilder::new(2);
        let bufs = b.alloc_all(16);
        b.op(0, red(bufs[0].slice(0, 8), bufs[0].slice(8, 8)), &[]);
        let err = check(&b.build(), &bufs, Coll::Reduce, 16, 0).unwrap_err();
        assert!(err.contains("adds message offset 0 into offset 8"), "{err}");
    }

    // ---- Tampers. Each takes a well-formed schedule and breaks it. ----

    type Tamper = fn(&mut Program);

    /// Move the first receive with a payload by one segment (its own
    /// length) within the receiving rank's memory.
    fn shift_recv(prog: &mut Program) {
        let (d, size) = first_recv_range(prog);
        d.off = if d.end() + d.len <= size {
            d.off + d.len
        } else {
            d.off - d.len
        };
    }

    /// The receive range of the first message with a non-empty payload,
    /// and the size of the receiver's memory.
    fn first_recv_range(prog: &mut Program) -> (&mut BufRange, u64) {
        let Program { msgs, mem_size, .. } = prog;
        msgs.iter_mut()
            .find_map(|m| match &mut m.payload {
                Some((_, d)) if d.len > 0 => Some((d, mem_size[m.dst as usize])),
                _ => None,
            })
            .expect("a message with a payload")
    }

    /// The id and kind of every op whose kind `pick` selects, in id order.
    fn ops_where(
        prog: &Program,
        pick: fn(&OpKind) -> bool,
    ) -> impl Iterator<Item = (OpId, OpKind)> + '_ {
        (0..prog.len() as u32)
            .map(|i| (OpId(i), prog.kind(OpId(i))))
            .filter(move |(_, k)| pick(k))
    }

    /// Turn the first reduction into a no-op: its contribution is lost.
    fn nop_first_reduce(prog: &mut Program) {
        let (id, _) = ops_where(prog, |k| {
            matches!(k, OpKind::Reduce { .. } | OpKind::ReduceFrom { .. })
        })
        .next()
        .expect("a reduction");
        prog.set_kind(id, OpKind::Nop);
    }

    /// Append a second copy of the first `ReduceFrom`, after every other
    /// op of its rank: its source is added into the destination twice.
    fn duplicate_reduce_from(prog: &mut Program) {
        let (id, kind) = ops_where(prog, |k| matches!(k, OpKind::ReduceFrom { .. }))
            .next()
            .expect("a ReduceFrom");
        let rank = prog.op(id).rank;
        let own: Vec<OpId> = (0..prog.ops.len() as u32)
            .map(OpId)
            .filter(|&i| prog.op(i).rank == rank)
            .collect();
        prog.push_op(rank, kind, &own);
    }

    /// Make the first reduction compute a maximum instead of a sum.
    fn reduce_with_max(prog: &mut Program) {
        let (id, mut kind) = ops_where(prog, |k| {
            matches!(k, OpKind::Reduce { .. } | OpKind::ReduceFrom { .. })
        })
        .next()
        .expect("a reduction");
        if let OpKind::Reduce { op, .. } | OpKind::ReduceFrom { op, .. } = &mut kind {
            *op = ReduceOp::Max;
        }
        prog.set_kind(id, kind);
    }

    /// Turn the first receive into a no-op: its message is unmatched.
    fn unmatch_recv(prog: &mut Program) {
        let (id, _) = ops_where(prog, |k| matches!(k, OpKind::Recv { .. }))
            .next()
            .expect("a receive");
        prog.set_kind(id, OpKind::Nop);
    }

    /// Turn the last send into a no-op: its message is unmatched.
    fn unmatch_send(prog: &mut Program) {
        let (id, _) = ops_where(prog, |k| matches!(k, OpKind::Send { .. }))
            .last()
            .expect("a send");
        prog.set_kind(id, OpKind::Nop);
    }

    /// Append a message whose send waits for its own receive.
    fn message_cycle(prog: &mut Program) {
        let msg = MsgId(prog.msgs.len() as u32);
        prog.msgs.push(MsgMeta {
            src: 0,
            dst: 1,
            bytes: 0,
            payload: None,
        });
        let recv = prog.push_op(1, OpKind::Recv { msg }, &[]);
        prog.push_op(0, OpKind::Send { msg }, &[recv]);
    }

    /// Point the first receive buffer past the end of its rank's memory.
    fn recv_out_of_range(prog: &mut Program) {
        let (d, size) = first_recv_range(prog);
        d.off = size;
    }

    /// Remove op `op`'s `k`-th dependency edge.
    fn drop_dep(prog: &mut Program, op: usize, k: usize) {
        // A narrow edge is a distance from its own op, so removing one
        // leaves every other edge's word as it was.
        let edge = prog.dep_off[op] as usize + k;
        match &mut prog.dep {
            Edges::Narrow(words) => drop(words.drain(edge..edge + 1)),
            Edges::Wide(words) => drop(words.drain(2 * edge..2 * edge + 2)),
        }
        for off in &mut prog.dep_off[op + 1..] {
            *off -= 1;
        }
    }

    /// An op's rank and kind, as an edge picker sees it.
    type Side = (u32, OpKind);

    /// The first dependency edge `(op, k)` whose op and dependency satisfy
    /// `pick(op, dep)`.
    fn find_edge(prog: &Program, pick: fn(Side, Side) -> bool) -> (usize, usize) {
        let side = |id: OpId| (prog.op(id).rank, prog.kind(id));
        (0..prog.ops.len())
            .find_map(|i| {
                let id = OpId(i as u32);
                let k = prog.deps(id).position(|d| pick(side(id), side(d)))?;
                Some((i, k))
            })
            .expect("a matching dependency edge")
    }

    /// The oracles' verdicts on `cfg`'s schedule after `tamper`:
    /// `(symbolic, bytes)`, `bytes` only when `run_bytes` (a malformed
    /// program makes the executor panic).
    fn verdicts(
        preset: &MachinePreset,
        cfg: &HanConfig,
        coll: Coll,
        tamper: &dyn Fn(&mut Program),
        run_bytes: bool,
    ) -> (Result<(), String>, Option<Result<(), String>>) {
        let (m, root) = (16 * 1024, 1);
        let (mut prog, bufs) = build(preset, cfg, coll, m, root).unwrap();
        assert_eq!(check(&prog, &bufs, coll, m, root), Ok(()));
        assert_eq!(
            bytes::check(preset, cfg, &prog, &bufs, coll, m, root),
            Ok(())
        );
        tamper(&mut prog);
        let sym = check(&prog, &bufs, coll, m, root);
        let byt = run_bytes.then(|| bytes::check(preset, cfg, &prog, &bufs, coll, m, root));
        (sym, byt)
    }

    #[test]
    fn rejects_tampered_programs() {
        let cfg = HanConfig::default().with_fs(4096);
        // (collective, tamper, what the error says, whether the byte
        // oracle can run it: a malformed program makes the executor panic)
        let mut cases: Vec<(Coll, Tamper, &str, bool)> = Vec::new();
        for coll in [Coll::Bcast, Coll::Allreduce, Coll::Reduce] {
            cases.push((coll, shift_recv, "", true));
            cases.push((coll, unmatch_recv, "missing send or recv", false));
            cases.push((coll, unmatch_send, "missing send or recv", false));
            cases.push((coll, message_cycle, "precedes its send", false));
            cases.push((coll, recv_out_of_range, "receive range out of range", false));
        }
        for coll in [Coll::Allreduce, Coll::Reduce] {
            cases.push((coll, nop_first_reduce, "", true));
            cases.push((coll, duplicate_reduce_from, "counting some twice", true));
            cases.push((coll, reduce_with_max, "reduces with Max", true));
        }
        for preset in [mini(3, 2), mini3(2, 2, 2)] {
            for (i, &(coll, tamper, want, run_bytes)) in cases.iter().enumerate() {
                let (sym, byt) = verdicts(&preset, &cfg, coll, &tamper, run_bytes);
                let ctx = format!("{}: tamper #{i} on {}", preset.name, coll.name());
                let err = sym.expect_err(&ctx);
                assert!(err.contains(want), "{ctx}: {err}");
                if let Some(byt) = byt {
                    assert!(byt.is_err(), "{ctx}: the byte oracle accepts it ({err})");
                }
            }
        }
    }

    /// Dropping a dependency edge that orders a write before a read (or
    /// two writes) is a race, whatever order the simulator happens to
    /// pick. The byte oracle sees only that order, so it misses some.
    #[test]
    fn dropped_data_edges_are_races() {
        let sm = HanConfig::default().with_fs(4096);
        let solo = sm.with_intra(han_colls::IntraModule::Solo);
        type Pick = fn(Side, Side) -> bool;
        // (what, collective, config, edge `(op, dep)` to drop)
        let cases: [(&str, Coll, HanConfig, Pick); 4] = [
            (
                "SM bcast copy-in -> consumer flag",
                Coll::Bcast,
                sm,
                |(rank, op), (dep_rank, dep)| {
                    matches!(op, OpKind::Delay { .. })
                        && matches!(dep, OpKind::Copy { .. })
                        && rank != dep_rank
                },
            ),
            (
                "SM reduce copy-in -> own flag",
                Coll::Reduce,
                sm,
                |(rank, op), (dep_rank, dep)| {
                    matches!(op, OpKind::Delay { .. })
                        && matches!(dep, OpKind::Copy { .. })
                        && rank == dep_rank
                },
            ),
            (
                "tree_bcast recv -> forwarding send",
                Coll::Bcast,
                solo,
                |(_, op), (_, dep)| {
                    matches!(op, OpKind::Send { .. }) && matches!(dep, OpKind::Recv { .. })
                },
            ),
            (
                "tree reduce recv -> reduce",
                Coll::Reduce,
                solo,
                |(_, op), (_, dep)| {
                    matches!(op, OpKind::Reduce { .. }) && matches!(dep, OpKind::Recv { .. })
                },
            ),
        ];
        let preset = mini(4, 3);
        for (what, coll, cfg, pick) in cases {
            let (sym, byt) = drop_edge(&preset, &cfg, coll, pick);
            let err = sym.expect_err(what);
            assert!(err.contains("race on rank"), "{what}: {err}");
            // The simulator happens to run the child's copy-in before the
            // root reads the slot: the byte oracle sees nothing wrong.
            if what == "SM reduce copy-in -> own flag" {
                assert_eq!(byt, Ok(()), "{what}");
            }
        }
        // Dropping the SM reduce's `last_red` chain only lets the root add
        // its children in another order: accumulates commute, and both
        // oracles accept.
        let last_red: Pick = |(_, op), (_, dep)| {
            matches!(op, OpKind::ReduceFrom { .. }) && matches!(dep, OpKind::ReduceFrom { .. })
        };
        assert_eq!(
            drop_edge(&preset, &sm, Coll::Reduce, last_red),
            (Ok(()), Ok(()))
        );
    }

    /// Both oracles' verdicts on `cfg`'s schedule without the first
    /// dependency edge `pick` selects.
    fn drop_edge(
        preset: &MachinePreset,
        cfg: &HanConfig,
        coll: Coll,
        pick: fn(Side, Side) -> bool,
    ) -> (Result<(), String>, Result<(), String>) {
        let edge = {
            let (prog, _) = build(preset, cfg, coll, 16 * 1024, 1).unwrap();
            find_edge(&prog, pick)
        };
        let tamper = move |p: &mut Program| drop_dep(p, edge.0, edge.1);
        let (sym, byt) = verdicts(preset, cfg, coll, &tamper, true);
        (sym, byt.expect("byte oracle ran"))
    }

    /// Both oracles accept every front point `repro synth --scale mini`
    /// emits.
    #[test]
    fn oracles_agree_on_mini_synth_fronts() {
        let colls = [Coll::Bcast, Coll::Allreduce, Coll::Reduce];
        let mut checked = 0;
        for preset in [mini(4, 4), mini3(2, 2, 2), dgx_like(2, 4)] {
            let r = crate::synthesize(&preset, &crate::default_space(), &colls, Default::default());
            for f in &r.fronts {
                for p in &f.points {
                    let (prog, bufs) = build(&preset, &p.cfg, f.coll, f.m, 0).unwrap();
                    let ctx = format!("{} {} m={} {}", preset.name, f.coll.name(), f.m, p.cfg);
                    assert_eq!(check(&prog, &bufs, f.coll, f.m, 0), Ok(()), "{ctx}");
                    let byt = bytes::check(&preset, &p.cfg, &prog, &bufs, f.coll, f.m, 0);
                    assert_eq!(byt, Ok(()), "{ctx}");
                    checked += 1;
                }
            }
        }
        assert!(checked > 0);
    }
}
