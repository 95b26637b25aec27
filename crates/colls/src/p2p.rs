//! Point-to-point collective algorithms.
//!
//! Compiles classic collective algorithms into op-DAG programs over a
//! communicator: segmented tree broadcast/reduce (the building blocks the
//! ADAPT and Libnbc submodules expose), recursive-doubling and Rabenseifner
//! allreduce (what `coll_tuned` and the vendor stacks use), ring allgather
//! and linear gather/scatter.
//!
//! All functions take and return [`Frontier`]s in *communicator-local*
//! indexing, so they compose freely — HAN's hierarchical collectives are
//! literally frontier-chained calls into this module and the shared-memory
//! modules.

use crate::frontier::Frontier;
use crate::tree::{children_into, TreeShape};
use han_mpi::{BufRange, Comm, DataType, OpId, OpKind, ProgramBuilder, ReduceOp};

/// Segmented tree broadcast from comm-local `root`.
///
/// `bufs[l]` is local rank `l`'s buffer for this message (same length on
/// all ranks). `seg` is the *internal* segmentation (ADAPT's `ibs`);
/// `None` sends the whole message as one unit (Libnbc style).
pub fn tree_bcast(
    b: &mut ProgramBuilder,
    comm: &Comm,
    root: usize,
    bufs: &[BufRange],
    deps: &Frontier,
    shape: TreeShape,
    seg: Option<u64>,
) -> Frontier {
    let n = comm.size();
    assert_eq!(bufs.len(), n);
    assert_eq!(deps.len(), n);
    if n == 1 {
        return deps.clone();
    }
    let msg = bufs[0].len;
    let seg = seg.unwrap_or(msg).max(1);
    let nseg = bufs[0].nsegments(seg);
    let local = |v: usize| (v + root) % n;

    // recv_done[v * nseg + s]: completion of segment s at vrank v (unused
    // for the root). Every parent has a lower vrank than its children, so
    // a rank's receives exist before it forwards.
    let mut recv_done = vec![OpId(0); n * nseg];
    let mut out = Frontier::empty(n);
    let mut kids = Vec::new();
    let mut sdeps = Vec::new();

    for v in 0..n {
        let lv = local(v);
        let wv = comm.world_rank(lv);
        children_into(shape, n, v, &mut kids);
        for &c in &kids {
            let lc = local(c);
            let wc = comm.world_rank(lc);
            for s in 0..nseg {
                sdeps.clear();
                sdeps.extend_from_slice(deps.get(lv));
                if v != 0 {
                    sdeps.push(recv_done[v * nseg + s]);
                }
                let seg_v = bufs[lv].segment(seg, s);
                let (snd, rcv) = b.send_recv(
                    wv,
                    wc,
                    seg_v,
                    bufs[lc].segment(seg, s),
                    &sdeps,
                    deps.get(lc),
                );
                recv_done[c * nseg + s] = rcv;
                out.push(lv, snd);
            }
        }
        if v != 0 {
            // A leaf completes with its receives. An interior rank's sends
            // already depend on its receives, but the *last* segment's
            // receive may finish after the last send is posted, so its
            // receives complete the frontier too.
            out.extend(lv, &recv_done[v * nseg..(v + 1) * nseg]);
        }
    }
    out
}

/// Segmented tree reduce to comm-local `root`, in place: on completion,
/// `bufs[root]` holds `op` over all ranks' initial buffers; interior
/// ranks' buffers are clobbered with partial results.
#[allow(clippy::too_many_arguments)]
pub fn tree_reduce(
    b: &mut ProgramBuilder,
    comm: &Comm,
    root: usize,
    bufs: &[BufRange],
    deps: &Frontier,
    shape: TreeShape,
    seg: Option<u64>,
    op: ReduceOp,
    dtype: DataType,
    vectorized: bool,
) -> Frontier {
    let n = comm.size();
    assert_eq!(bufs.len(), n);
    if n == 1 {
        return deps.clone();
    }
    let msg = bufs[0].len;
    let seg_sz = seg.unwrap_or(msg).max(1);
    let nseg = bufs[0].nsegments(seg_sz);
    let local = |v: usize| (v + root) % n;

    // Vrank v's local reductions, child-major: the merge of its k-th
    // child's segment s is `reduces[merged[v].0 + k * nseg + s]`, and
    // `merged[v].1` is its child count. Segment s at v is fully reduced
    // once all of v's merges of segment s complete.
    let mut reduces: Vec<OpId> = Vec::new();
    let mut merged: Vec<(usize, usize)> = vec![(0, 0); n];
    let mut out = Frontier::empty(n);
    let mut kids = Vec::new();
    let mut sdeps = Vec::new();
    let mut rdeps = Vec::new();

    // Process parents in descending vrank order so a child's local
    // reductions exist before the edge to its parent is created.
    for v in (0..n).rev() {
        let lv = local(v);
        let wv = comm.world_rank(lv);
        children_into(shape, n, v, &mut kids);
        merged[v] = (reduces.len(), kids.len());
        for &c in &kids {
            let lc = local(c);
            let wc = comm.world_rank(lc);
            let (c_start, c_kids) = merged[c];
            // One scratch slot per (parent, child), reused across segments.
            let scratch = b.alloc(wv, seg_sz.min(msg.max(1)));
            let mut prev_reduce: Option<OpId> = None;
            for s in 0..nseg {
                // Child's send: its own subtree must be merged first.
                sdeps.clear();
                sdeps.extend_from_slice(deps.get(lc));
                sdeps.extend((0..c_kids).map(|k| reduces[c_start + k * nseg + s]));
                // Parent's recv: scratch slot must be free.
                rdeps.clear();
                rdeps.extend_from_slice(deps.get(lv));
                rdeps.extend(prev_reduce);
                let seg_c = bufs[lc].segment(seg_sz, s);
                let bytes = seg_c.len;
                let slot = scratch.slice(0, bytes);
                let (snd, rcv) = b.send_recv(wc, wv, seg_c, slot, &sdeps, &rdeps);
                let red = b.op(
                    wv,
                    OpKind::Reduce {
                        vectorized,
                        op,
                        dtype,
                        src: slot,
                        dst: bufs[lv].segment(seg_sz, s),
                    },
                    &[rcv],
                );
                prev_reduce = Some(red);
                reduces.push(red);
                out.push(lc, snd);
            }
        }
    }
    // Root's completion: all its reduces, segment by segment.
    let (r_start, r_kids) = merged[0];
    for s in 0..nseg {
        for k in 0..r_kids {
            out.push(local(0), reduces[r_start + k * nseg + s]);
        }
    }
    out
}

/// Largest power of two `<= n`.
fn pow2_floor(n: usize) -> usize {
    let mut p = 1;
    while p * 2 <= n {
        p *= 2;
    }
    p
}

/// Recursive-doubling allreduce (in place over `bufs`). The classic
/// latency-optimal algorithm `coll_tuned` uses for small messages; handles
/// non-power-of-two sizes with the standard fold/unfold pre/post phases.
pub fn rd_allreduce(
    b: &mut ProgramBuilder,
    comm: &Comm,
    bufs: &[BufRange],
    deps: &Frontier,
    op: ReduceOp,
    dtype: DataType,
    vectorized: bool,
) -> Frontier {
    let n = comm.size();
    assert_eq!(bufs.len(), n);
    if n == 1 {
        return deps.clone();
    }
    let msg = bufs[0].len;
    let p2 = pow2_floor(n);
    let rem = n - p2;

    // Per-local-rank frontier as the algorithm progresses.
    let mut cur = deps.clone();
    let mut scratch: Vec<BufRange> = (0..n)
        .map(|l| b.alloc(comm.world_rank(l), msg.max(1)))
        .collect();
    for s in &mut scratch {
        *s = s.slice(0, msg);
    }

    // Fold: the first 2*rem ranks pair up (even donates to odd).
    for i in 0..rem {
        let (even, odd) = (2 * i, 2 * i + 1);
        let (we, wo) = (comm.world_rank(even), comm.world_rank(odd));
        let (snd, rcv) = b.send_recv(
            we,
            wo,
            bufs[even],
            scratch[odd],
            cur.get(even),
            cur.get(odd),
        );
        let red = b.op(
            wo,
            OpKind::Reduce {
                vectorized,
                op,
                dtype,
                src: scratch[odd],
                dst: bufs[odd],
            },
            &[rcv],
        );
        cur.set(even, &[snd]);
        cur.set(odd, &[red]);
    }

    // Active set: odd ranks of the folded pairs + ranks >= 2*rem.
    // newrank -> local rank.
    let active: Vec<usize> = (0..rem).map(|i| 2 * i + 1).chain(2 * rem..n).collect();
    debug_assert_eq!(active.len(), p2);

    let mut dist = 1;
    while dist < p2 {
        // Each active rank is in exactly one pair per round, so a pair's
        // results can replace its two frontiers at once.
        for (nr, &l) in active.iter().enumerate() {
            let pnr = nr ^ dist;
            if pnr < nr {
                continue; // handled when we visited pnr (create both directions there)
            }
            let pl = active[pnr];
            let (wl, wp) = (comm.world_rank(l), comm.world_rank(pl));
            // l -> pl
            let (s1, r1) = b.send_recv(wl, wp, bufs[l], scratch[pl], cur.get(l), cur.get(pl));
            // pl -> l
            let (s2, r2) = b.send_recv(wp, wl, bufs[pl], scratch[l], cur.get(pl), cur.get(l));
            // Reduce after both the local send snapshot and the recv.
            let red_l = b.op(
                wl,
                OpKind::Reduce {
                    vectorized,
                    op,
                    dtype,
                    src: scratch[l],
                    dst: bufs[l],
                },
                &[r2, s1],
            );
            let red_p = b.op(
                wp,
                OpKind::Reduce {
                    vectorized,
                    op,
                    dtype,
                    src: scratch[pl],
                    dst: bufs[pl],
                },
                &[r1, s2],
            );
            cur.set(l, &[red_l]);
            cur.set(pl, &[red_p]);
        }
        dist *= 2;
    }

    // Unfold: odd ranks send the result back to their even partners.
    for i in 0..rem {
        let (even, odd) = (2 * i, 2 * i + 1);
        let (we, wo) = (comm.world_rank(even), comm.world_rank(odd));
        let (snd, rcv) = b.send_recv(wo, we, bufs[odd], bufs[even], cur.get(odd), cur.get(even));
        cur.push(odd, snd);
        cur.set(even, &[rcv]);
    }

    cur
}

/// Rabenseifner allreduce: recursive-halving reduce-scatter followed by a
/// recursive-doubling allgather. Bandwidth-optimal; what `coll_tuned` (and
/// the vendor stacks' inter-node phase) use for large messages.
pub fn rabenseifner_allreduce(
    b: &mut ProgramBuilder,
    comm: &Comm,
    bufs: &[BufRange],
    deps: &Frontier,
    op: ReduceOp,
    dtype: DataType,
    vectorized: bool,
) -> Frontier {
    let n = comm.size();
    assert_eq!(bufs.len(), n);
    if n == 1 {
        return deps.clone();
    }
    let msg = bufs[0].len;
    let el = dtype.size() as u64;
    if n == 2 || msg < 2 * el {
        // Halving needs at least one element per half; fall back to RD.
        return rd_allreduce(b, comm, bufs, deps, op, dtype, vectorized);
    }
    let p2 = pow2_floor(n);
    let rem = n - p2;

    let mut cur = deps.clone();
    let scratch: Vec<BufRange> = (0..n)
        .map(|l| b.alloc(comm.world_rank(l), msg.max(1)).slice(0, msg))
        .collect();

    // Fold (same as recursive doubling).
    for i in 0..rem {
        let (even, odd) = (2 * i, 2 * i + 1);
        let (we, wo) = (comm.world_rank(even), comm.world_rank(odd));
        let (snd, rcv) = b.send_recv(
            we,
            wo,
            bufs[even],
            scratch[odd],
            cur.get(even),
            cur.get(odd),
        );
        let red = b.op(
            wo,
            OpKind::Reduce {
                vectorized,
                op,
                dtype,
                src: scratch[odd],
                dst: bufs[odd],
            },
            &[rcv],
        );
        cur.set(even, &[snd]);
        cur.set(odd, &[red]);
    }
    let active: Vec<usize> = (0..rem).map(|i| 2 * i + 1).chain(2 * rem..n).collect();

    // Byte range [lo, hi) each active rank currently owns, element-aligned.
    let elems = msg / el;
    let mut own: Vec<(u64, u64)> = vec![(0, elems); p2];

    // Reduce-scatter by recursive halving.
    let mut dist = p2 / 2;
    while dist >= 1 {
        for nr in 0..p2 {
            let pnr = nr ^ dist;
            if pnr < nr {
                continue;
            }
            let (l, pl) = (active[nr], active[pnr]);
            let (wl, wp) = (comm.world_rank(l), comm.world_rank(pl));
            let (lo, hi) = own[nr];
            debug_assert_eq!(own[pnr], own[nr]);
            let mid = lo + (hi - lo) / 2;
            // In the pair, the lower newrank keeps [lo, mid), the higher
            // keeps [mid, hi). (nr < pnr here.)
            let keep_l = (lo, mid);
            let keep_p = (mid, hi);
            let give_l = keep_p; // l sends the part pl keeps
            let give_p = keep_l;
            let r_of = |buf: BufRange, (a, z): (u64, u64)| buf.slice(a * el, (z - a) * el);
            // l -> pl: l's copy of pl's kept range.
            let (s1, r1) = b.send_recv(
                wl,
                wp,
                r_of(bufs[l], give_l),
                r_of(scratch[pl], keep_p),
                cur.get(l),
                cur.get(pl),
            );
            let (s2, r2) = b.send_recv(
                wp,
                wl,
                r_of(bufs[pl], give_p),
                r_of(scratch[l], keep_l),
                cur.get(pl),
                cur.get(l),
            );
            let red_l = b.op(
                wl,
                OpKind::Reduce {
                    vectorized,
                    op,
                    dtype,
                    src: r_of(scratch[l], keep_l),
                    dst: r_of(bufs[l], keep_l),
                },
                &[r2, s1],
            );
            let red_p = b.op(
                wp,
                OpKind::Reduce {
                    vectorized,
                    op,
                    dtype,
                    src: r_of(scratch[pl], keep_p),
                    dst: r_of(bufs[pl], keep_p),
                },
                &[r1, s2],
            );
            cur.set(l, &[red_l]);
            cur.set(pl, &[red_p]);
            own[nr] = keep_l;
            own[pnr] = keep_p;
        }
        dist /= 2;
    }

    // Allgather by recursive doubling: exchange owned ranges, growing back.
    let mut dist = 1;
    while dist < p2 {
        let mut next_own = own.clone();
        for nr in 0..p2 {
            let pnr = nr ^ dist;
            if pnr < nr {
                continue;
            }
            let (l, pl) = (active[nr], active[pnr]);
            let (wl, wp) = (comm.world_rank(l), comm.world_rank(pl));
            let (lo_l, hi_l) = own[nr];
            let (lo_p, hi_p) = own[pnr];
            let r_of = |buf: BufRange, (a, z): (u64, u64)| buf.slice(a * el, (z - a) * el);
            // Exchange owned ranges; received data lands directly in place.
            let (s1, r1) = b.send_recv(
                wl,
                wp,
                r_of(bufs[l], (lo_l, hi_l)),
                r_of(bufs[pl], (lo_l, hi_l)),
                cur.get(l),
                cur.get(pl),
            );
            let (s2, r2) = b.send_recv(
                wp,
                wl,
                r_of(bufs[pl], (lo_p, hi_p)),
                r_of(bufs[l], (lo_p, hi_p)),
                cur.get(pl),
                cur.get(l),
            );
            let merged = (lo_l.min(lo_p), hi_l.max(hi_p));
            cur.set(l, &[s1, r2]);
            cur.set(pl, &[s2, r1]);
            next_own[nr] = merged;
            next_own[pnr] = merged;
        }
        own = next_own;
        dist *= 2;
    }

    // Unfold: odd folded ranks return the full result to even partners.
    for i in 0..rem {
        let (even, odd) = (2 * i, 2 * i + 1);
        let (we, wo) = (comm.world_rank(even), comm.world_rank(odd));
        let (snd, rcv) = b.send_recv(wo, we, bufs[odd], bufs[even], cur.get(odd), cur.get(even));
        cur.push(odd, snd);
        cur.set(even, &[rcv]);
    }

    cur
}

/// Ring allgather: each local rank `l` contributes `block` bytes at offset
/// `l * block` of its (n·block)-sized buffer; after n-1 steps everyone has
/// every block.
pub fn ring_allgather(
    b: &mut ProgramBuilder,
    comm: &Comm,
    bufs: &[BufRange],
    block: u64,
    deps: &Frontier,
) -> Frontier {
    let n = comm.size();
    assert_eq!(bufs.len(), n);
    if n == 1 {
        return deps.clone();
    }
    for buf in bufs {
        assert_eq!(
            buf.len,
            block * n as u64,
            "allgather buffer must be n*block"
        );
    }
    let mut cur = deps.clone();
    let mut next = Frontier::empty(n);
    for step in 0..n - 1 {
        next.reset(n);
        for l in 0..n {
            let right = (l + 1) % n;
            // l sends the block it received `step` steps ago (its own at 0).
            let send_block = (l + n - step) % n;
            let (wl, wr) = (comm.world_rank(l), comm.world_rank(right));
            let sbuf = bufs[l].slice(send_block as u64 * block, block);
            let dbuf = bufs[right].slice(send_block as u64 * block, block);
            let (snd, rcv) = b.send_recv(wl, wr, sbuf, dbuf, cur.get(l), cur.get(right));
            next.push(l, snd);
            next.push(right, rcv);
        }
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// Linear gather to comm-local `root`: every rank sends its `src` block;
/// the root's `dst` is an n·block array in local-rank order (root's own
/// block is copied locally).
pub fn linear_gather(
    b: &mut ProgramBuilder,
    comm: &Comm,
    root: usize,
    src: &[BufRange],
    dst_root: BufRange,
    deps: &Frontier,
) -> Frontier {
    let n = comm.size();
    let block = src[0].len;
    assert_eq!(dst_root.len, block * n as u64);
    let wroot = comm.world_rank(root);
    let mut out = Frontier::empty(n);
    for l in 0..n {
        let slot = dst_root.slice(l as u64 * block, block);
        if l == root {
            let cp = b.op(
                wroot,
                OpKind::Copy {
                    src: src[l],
                    dst: slot,
                },
                deps.get(l),
            );
            out.push(l, cp);
        } else {
            let (snd, rcv) = b.send_recv(
                comm.world_rank(l),
                wroot,
                src[l],
                slot,
                deps.get(l),
                deps.get(root),
            );
            out.push(l, snd);
            out.push(root, rcv);
        }
    }
    out
}

/// Linear scatter from comm-local `root` (inverse of [`linear_gather`]).
pub fn linear_scatter(
    b: &mut ProgramBuilder,
    comm: &Comm,
    root: usize,
    src_root: BufRange,
    dst: &[BufRange],
    deps: &Frontier,
) -> Frontier {
    let n = comm.size();
    let block = dst[0].len;
    assert_eq!(src_root.len, block * n as u64);
    let wroot = comm.world_rank(root);
    let mut out = Frontier::empty(n);
    for l in 0..n {
        let slot = src_root.slice(l as u64 * block, block);
        if l == root {
            let cp = b.op(
                wroot,
                OpKind::Copy {
                    src: slot,
                    dst: dst[l],
                },
                deps.get(l),
            );
            out.push(l, cp);
        } else {
            let (snd, rcv) = b.send_recv(
                wroot,
                comm.world_rank(l),
                slot,
                dst[l],
                deps.get(root),
                deps.get(l),
            );
            out.push(root, snd);
            out.push(l, rcv);
        }
    }
    out
}

/// Dissemination barrier: in round `k` every rank signals `(l + 2^k) mod n`
/// and waits for `(l - 2^k) mod n`; after ⌈log₂ n⌉ rounds everyone has
/// transitively heard from everyone. The classic flat barrier
/// (`coll_tuned`'s default for medium communicators).
pub fn dissemination_barrier(b: &mut ProgramBuilder, comm: &Comm, deps: &Frontier) -> Frontier {
    let n = comm.size();
    if n == 1 {
        return deps.clone();
    }
    let mut cur = deps.clone();
    let mut next = Frontier::empty(n);
    let mut dist = 1;
    while dist < n {
        next.reset(n);
        for l in 0..n {
            let to = (l + dist) % n;
            let (snd, rcv) = b.signal(
                comm.world_rank(l),
                comm.world_rank(to),
                1,
                cur.get(l),
                cur.get(to),
            );
            next.push(l, snd);
            next.push(to, rcv);
        }
        std::mem::swap(&mut cur, &mut next);
        dist *= 2;
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_machine::{mini, Flavor, Machine};
    use han_mpi::{execute_seeded, Comm, ExecOpts, ProgramBuilder};

    fn setup(nodes: usize, ppn: usize) -> (Machine, Comm) {
        let m = Machine::from_preset(&mini(nodes, ppn));
        let n = m.topo.world_size();
        (m, Comm::world(n))
    }

    fn run_data(
        m: &mut Machine,
        b: ProgramBuilder,
        seed: impl FnOnce(&mut han_mpi::Memory),
    ) -> han_mpi::Memory {
        let p = b.build();
        let o = ExecOpts::timing(Flavor::OpenMpi.p2p());
        let (_, mem) = execute_seeded(m, &p, &o, seed);
        mem
    }

    fn i32s(xs: &[i32]) -> Vec<u8> {
        xs.iter().flat_map(|x| x.to_le_bytes()).collect()
    }

    fn check_bcast(shape: TreeShape, nodes: usize, ppn: usize, root: usize, seg: Option<u64>) {
        let (mut m, comm) = setup(nodes, ppn);
        let n = comm.size();
        let mut b = ProgramBuilder::new(n);
        let msg = 40u64; // 10 i32s, odd segment boundaries with seg=16
        let bufs = b.alloc_all(msg);
        let bufs_root = bufs[root];
        let f = tree_bcast(&mut b, &comm, root, &bufs, &Frontier::empty(n), shape, seg);
        assert_eq!(f.len(), n);
        let data: Vec<i32> = (0..10).map(|i| i * 3 + root as i32).collect();
        let mem = run_data(&mut m, b, |mm| mm.write(root, bufs_root, &i32s(&data)));
        for r in 0..n {
            assert_eq!(
                mem.read(r, bufs[r]),
                i32s(&data).as_slice(),
                "{shape:?} rank {r} (root {root}, seg {seg:?})"
            );
        }
    }

    #[test]
    fn bcast_all_shapes_deliver() {
        for shape in [
            TreeShape::Flat,
            TreeShape::Chain,
            TreeShape::Binary,
            TreeShape::Binomial,
            TreeShape::Kary(3),
        ] {
            check_bcast(shape, 2, 3, 0, None);
            check_bcast(shape, 2, 3, 4, None);
            check_bcast(shape, 3, 2, 2, Some(16));
        }
    }

    fn check_reduce(shape: TreeShape, nodes: usize, ppn: usize, root: usize, seg: Option<u64>) {
        let (mut m, comm) = setup(nodes, ppn);
        let n = comm.size();
        let mut b = ProgramBuilder::new(n);
        let msg = 24u64; // 6 i32s
        let bufs = b.alloc_all(msg);
        let all_bufs = bufs.clone();
        let _ = tree_reduce(
            &mut b,
            &comm,
            root,
            &bufs,
            &Frontier::empty(n),
            shape,
            seg,
            ReduceOp::Sum,
            DataType::Int32,
            true,
        );
        let mem = run_data(&mut m, b, |mm| {
            for r in 0..n {
                let vals: Vec<i32> = (0..6).map(|i| (r as i32 + 1) * (i + 1)).collect();
                mm.write(r, all_bufs[r], &i32s(&vals));
            }
        });
        // Sum over r of (r+1)*(i+1) = (i+1) * n(n+1)/2
        let total = (n * (n + 1) / 2) as i32;
        let expect: Vec<i32> = (0..6).map(|i| (i + 1) * total).collect();
        assert_eq!(
            mem.read(root, all_bufs[root]),
            i32s(&expect).as_slice(),
            "{shape:?} root {root} seg {seg:?}"
        );
    }

    #[test]
    fn reduce_all_shapes_sum() {
        for shape in [
            TreeShape::Flat,
            TreeShape::Chain,
            TreeShape::Binary,
            TreeShape::Binomial,
        ] {
            check_reduce(shape, 2, 3, 0, None);
            check_reduce(shape, 2, 3, 3, None);
            check_reduce(shape, 3, 2, 1, Some(8));
        }
    }

    fn check_allreduce(
        f: impl Fn(
            &mut ProgramBuilder,
            &Comm,
            &[BufRange],
            &Frontier,
            ReduceOp,
            DataType,
            bool,
        ) -> Frontier,
        nodes: usize,
        ppn: usize,
        nelem: usize,
    ) {
        let (mut m, comm) = setup(nodes, ppn);
        let n = comm.size();
        let mut b = ProgramBuilder::new(n);
        let msg = (nelem * 4) as u64;
        let bufs = b.alloc_all(msg);
        let all_bufs = bufs.clone();
        let fr = f(
            &mut b,
            &comm,
            &bufs,
            &Frontier::empty(n),
            ReduceOp::Sum,
            DataType::Int32,
            true,
        );
        assert_eq!(fr.len(), n);
        let mem = run_data(&mut m, b, |mm| {
            for r in 0..n {
                let vals: Vec<i32> = (0..nelem).map(|i| (r * 100 + i) as i32).collect();
                mm.write(r, all_bufs[r], &i32s(&vals));
            }
        });
        let expect: Vec<i32> = (0..nelem)
            .map(|i| (0..n).map(|r| (r * 100 + i) as i32).sum())
            .collect();
        for r in 0..n {
            assert_eq!(
                mem.read(r, all_bufs[r]),
                i32s(&expect).as_slice(),
                "n={n} rank {r}"
            );
        }
    }

    #[test]
    fn rd_allreduce_pow2_and_non_pow2() {
        check_allreduce(rd_allreduce, 2, 2, 5); // n=4
        check_allreduce(rd_allreduce, 3, 2, 5); // n=6 (fold)
        check_allreduce(rd_allreduce, 7, 1, 3); // n=7 (fold, odd)
        check_allreduce(rd_allreduce, 1, 2, 4); // n=2
    }

    #[test]
    fn rabenseifner_allreduce_matches() {
        check_allreduce(rabenseifner_allreduce, 2, 2, 8); // n=4
        check_allreduce(rabenseifner_allreduce, 3, 2, 16); // n=6 fold
        check_allreduce(rabenseifner_allreduce, 5, 1, 8); // n=5 fold
        check_allreduce(rabenseifner_allreduce, 8, 1, 64); // n=8 deeper
        check_allreduce(rabenseifner_allreduce, 2, 1, 3); // n=2 -> RD fallback
    }

    #[test]
    fn rabenseifner_beats_rd_for_large_messages() {
        // Bandwidth-optimality sanity check: on 8 single-rank nodes with a
        // 4 MiB message, Rabenseifner should be clearly faster than RD.
        let (mut m, comm) = setup(8, 1);
        let n = comm.size();
        let msg = 4u64 << 20;
        #[allow(clippy::type_complexity)]
        let time_of = |m: &mut Machine,
                       f: &dyn Fn(
            &mut ProgramBuilder,
            &Comm,
            &[BufRange],
            &Frontier,
            ReduceOp,
            DataType,
            bool,
        ) -> Frontier| {
            let mut b = ProgramBuilder::new(n);
            let bufs = b.alloc_all(msg);
            f(
                &mut b,
                &comm,
                &bufs,
                &Frontier::empty(n),
                ReduceOp::Sum,
                DataType::Float32,
                true,
            );
            let p = b.build();
            han_mpi::execute(m, &p, &ExecOpts::timing(Flavor::OpenMpi.p2p())).makespan
        };
        let t_rd = time_of(&mut m, &rd_allreduce);
        let t_rab = time_of(&mut m, &rabenseifner_allreduce);
        assert!(
            t_rab.as_ps() * 3 < t_rd.as_ps() * 2,
            "rabenseifner {t_rab} should be well under rd {t_rd}"
        );
    }

    #[test]
    fn ring_allgather_delivers_all_blocks() {
        let (mut m, comm) = setup(3, 2);
        let n = comm.size();
        let block = 8u64; // 2 i32
        let mut b = ProgramBuilder::new(n);
        let bufs = b.alloc_all(block * n as u64);
        let all = bufs.clone();
        ring_allgather(&mut b, &comm, &bufs, block, &Frontier::empty(n));
        let mem = run_data(&mut m, b, |mm| {
            for r in 0..n {
                let mine = all[r].slice(r as u64 * block, block);
                mm.write(r, mine, &i32s(&[r as i32, r as i32 * 10]));
            }
        });
        for r in 0..n {
            let expect: Vec<i32> = (0..n).flat_map(|q| [q as i32, q as i32 * 10]).collect();
            assert_eq!(mem.read(r, all[r]), i32s(&expect).as_slice(), "rank {r}");
        }
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let (mut m, comm) = setup(2, 2);
        let n = comm.size();
        let block = 4u64;
        let root = 1usize;
        let mut b = ProgramBuilder::new(n);
        let src: Vec<_> = (0..n).map(|r| b.alloc(r, block)).collect();
        let gathered = b.alloc(root, block * n as u64);
        let dst: Vec<_> = (0..n).map(|r| b.alloc(r, block)).collect();
        let f = linear_gather(&mut b, &comm, root, &src, gathered, &Frontier::empty(n));
        linear_scatter(&mut b, &comm, root, gathered, &dst, &f);
        let (src_c, dst_c) = (src.clone(), dst.clone());
        let mem = run_data(&mut m, b, |mm| {
            for r in 0..n {
                mm.write(r, src_c[r], &[r as u8; 4]);
            }
        });
        for r in 0..n {
            assert_eq!(mem.read(r, dst_c[r]), &[r as u8; 4], "rank {r}");
        }
        assert_eq!(
            mem.read(root, gathered),
            &[0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]
        );
    }

    #[test]
    fn chain_bcast_pipelines_segments() {
        // With segmentation, a chain over 4 nodes should take far less than
        // 3x the single-hop time for a multi-segment message.
        let (mut m, comm) = setup(4, 1);
        let n = comm.size();
        let msg = 4u64 << 20;
        let mut time_with_seg = |seg: Option<u64>| {
            let mut b = ProgramBuilder::new(n);
            let bufs = b.alloc_all(msg);
            tree_bcast(
                &mut b,
                &comm,
                0,
                &bufs,
                &Frontier::empty(n),
                TreeShape::Chain,
                seg,
            );
            let p = b.build();
            han_mpi::execute(&mut m, &p, &ExecOpts::timing(Flavor::OpenMpi.p2p())).makespan
        };
        let unsegmented = time_with_seg(None);
        let segmented = time_with_seg(Some(256 * 1024));
        assert!(
            segmented.as_ps() * 2 < unsegmented.as_ps(),
            "pipelined chain {segmented} should be <0.5x of store-and-forward {unsegmented}"
        );
    }
}
