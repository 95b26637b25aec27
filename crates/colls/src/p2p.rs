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
use crate::tree::{children, TreeShape};
use han_mpi::{BufRange, Comm, DataType, OpKind, ProgramBuilder, ReduceOp};

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
    let nseg = bufs[0].segments(seg).len();
    let local = |v: usize| (v + root) % n;

    // recv_done[v][s]: completion of segment s at vrank v (root: None).
    let mut recv_done: Vec<Vec<han_mpi::OpId>> = vec![Vec::new(); n];
    let mut out = Frontier::empty(n);

    for v in 0..n {
        let lv = local(v);
        let wv = comm.world_rank(lv);
        let kids = children(shape, n, v);
        let segs_v = bufs[lv].segments(seg);
        for &c in &kids {
            let lc = local(c);
            let wc = comm.world_rank(lc);
            let segs_c = bufs[lc].segments(seg);
            for s in 0..nseg {
                let mut sdeps: Vec<han_mpi::OpId> = deps.get(lv).to_vec();
                if v != 0 {
                    sdeps.push(recv_done[v][s]);
                }
                let rdeps = deps.get(lc).to_vec();
                let (snd, rcv) = b.send_recv(
                    wv,
                    wc,
                    segs_v[s].len,
                    Some(segs_v[s]),
                    Some(segs_c[s]),
                    &sdeps,
                    &rdeps,
                );
                if recv_done[c].is_empty() {
                    recv_done[c] = Vec::with_capacity(nseg);
                }
                recv_done[c].push(rcv);
                out.push(lv, snd);
            }
        }
        if kids.is_empty() && v != 0 {
            // Leaf: completion is all its receives.
            for &rcv in &recv_done[v] {
                out.push(lv, rcv);
            }
        } else if v != 0 {
            // Interior ranks' sends already depend on their receives, but
            // the *last* segment's receive may finish after the last send
            // is posted; include receives so the frontier is complete.
            for &rcv in &recv_done[v] {
                out.push(lv, rcv);
            }
        }
    }
    // The root's frontier is its sends (already pushed). Ranks with no ops
    // (n==1 handled above) cannot occur: every non-root receives.
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
    let nseg = bufs[0].segments(seg_sz).len();
    let local = |v: usize| (v + root) % n;

    // reduce_done[v][s]: ops that must complete before vrank v's segment s
    // is fully reduced locally (its own children merged in).
    let mut reduce_done: Vec<Vec<Vec<han_mpi::OpId>>> = vec![vec![Vec::new(); nseg]; n];
    let mut out = Frontier::empty(n);

    // Process parents in descending vrank order so a child's local
    // reductions exist before the edge to its parent is created.
    for v in (0..n).rev() {
        let lv = local(v);
        let wv = comm.world_rank(lv);
        let segs_v = bufs[lv].segments(seg_sz);
        for &c in &children(shape, n, v) {
            let lc = local(c);
            let wc = comm.world_rank(lc);
            let segs_c = bufs[lc].segments(seg_sz);
            // One scratch slot per (parent, child), reused across segments.
            let scratch = b.alloc(wv, seg_sz.min(msg.max(1)));
            let mut prev_reduce: Option<han_mpi::OpId> = None;
            for s in 0..nseg {
                // Child's send: its own subtree must be merged first.
                let mut sdeps: Vec<han_mpi::OpId> = deps.get(lc).to_vec();
                sdeps.extend_from_slice(&reduce_done[c][s]);
                // Parent's recv: scratch slot must be free.
                let mut rdeps: Vec<han_mpi::OpId> = deps.get(lv).to_vec();
                if let Some(pr) = prev_reduce {
                    rdeps.push(pr);
                }
                let bytes = segs_c[s].len;
                let slot = scratch.slice(0, bytes);
                let (snd, rcv) =
                    b.send_recv(wc, wv, bytes, Some(segs_c[s]), Some(slot), &sdeps, &rdeps);
                let red = b.op(
                    wv,
                    OpKind::Reduce {
                        bytes,
                        vectorized,
                        op,
                        dtype,
                        src: Some(slot),
                        dst: Some(segs_v[s]),
                    },
                    &[rcv],
                );
                prev_reduce = Some(red);
                reduce_done[v][s].push(red);
                out.push(lc, snd);
            }
        }
        if v != 0 && children(shape, n, v).is_empty() {
            // Leaf completion = its sends, pushed at the parent's turn
            // (which happened earlier in this reversed loop). Nothing to do.
        }
    }
    // Root's completion: all its reduces (or, for a root with no children
    // in a 1-rank tree, handled above).
    for s in 0..nseg {
        for &r in &reduce_done[0][s] {
            out.push(local(0), r);
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
    let mut cur: Vec<Vec<han_mpi::OpId>> = (0..n).map(|l| deps.get(l).to_vec()).collect();
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
            msg,
            Some(bufs[even]),
            Some(scratch[odd]),
            &cur[even],
            &cur[odd],
        );
        let red = b.op(
            wo,
            OpKind::Reduce {
                bytes: msg,
                vectorized,
                op,
                dtype,
                src: Some(scratch[odd]),
                dst: Some(bufs[odd]),
            },
            &[rcv],
        );
        cur[even] = vec![snd];
        cur[odd] = vec![red];
    }

    // Active set: odd ranks of the folded pairs + ranks >= 2*rem.
    // newrank -> local rank.
    let active: Vec<usize> = (0..rem).map(|i| 2 * i + 1).chain(2 * rem..n).collect();
    debug_assert_eq!(active.len(), p2);

    let mut dist = 1;
    while dist < p2 {
        let mut next: Vec<Vec<han_mpi::OpId>> = vec![Vec::new(); p2];
        for (nr, &l) in active.iter().enumerate() {
            let pnr = nr ^ dist;
            if pnr < nr {
                continue; // handled when we visited pnr (create both directions there)
            }
            let pl = active[pnr];
            let (wl, wp) = (comm.world_rank(l), comm.world_rank(pl));
            // l -> pl
            let (s1, r1) = b.send_recv(
                wl,
                wp,
                msg,
                Some(bufs[l]),
                Some(scratch[pl]),
                &cur[l],
                &cur[pl],
            );
            // pl -> l
            let (s2, r2) = b.send_recv(
                wp,
                wl,
                msg,
                Some(bufs[pl]),
                Some(scratch[l]),
                &cur[pl],
                &cur[l],
            );
            // Reduce after both the local send snapshot and the recv.
            let red_l = b.op(
                wl,
                OpKind::Reduce {
                    bytes: msg,
                    vectorized,
                    op,
                    dtype,
                    src: Some(scratch[l]),
                    dst: Some(bufs[l]),
                },
                &[r2, s1],
            );
            let red_p = b.op(
                wp,
                OpKind::Reduce {
                    bytes: msg,
                    vectorized,
                    op,
                    dtype,
                    src: Some(scratch[pl]),
                    dst: Some(bufs[pl]),
                },
                &[r1, s2],
            );
            next[nr] = vec![red_l];
            next[pnr] = vec![red_p];
        }
        for (nr, &l) in active.iter().enumerate() {
            cur[l] = std::mem::take(&mut next[nr]);
        }
        dist *= 2;
    }

    // Unfold: odd ranks send the result back to their even partners.
    for i in 0..rem {
        let (even, odd) = (2 * i, 2 * i + 1);
        let (we, wo) = (comm.world_rank(even), comm.world_rank(odd));
        let mut rdeps = cur[even].clone();
        rdeps.extend_from_slice(&[]);
        let (snd, rcv) = b.send_recv(
            wo,
            we,
            msg,
            Some(bufs[odd]),
            Some(bufs[even]),
            &cur[odd],
            &rdeps,
        );
        cur[odd].push(snd);
        cur[even] = vec![rcv];
    }

    let mut out = Frontier::empty(n);
    for (l, ops) in cur.into_iter().enumerate() {
        out.set(l, ops);
    }
    out
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

    let mut cur: Vec<Vec<han_mpi::OpId>> = (0..n).map(|l| deps.get(l).to_vec()).collect();
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
            msg,
            Some(bufs[even]),
            Some(scratch[odd]),
            &cur[even],
            &cur[odd],
        );
        let red = b.op(
            wo,
            OpKind::Reduce {
                bytes: msg,
                vectorized,
                op,
                dtype,
                src: Some(scratch[odd]),
                dst: Some(bufs[odd]),
            },
            &[rcv],
        );
        cur[even] = vec![snd];
        cur[odd] = vec![red];
    }
    let active: Vec<usize> = (0..rem).map(|i| 2 * i + 1).chain(2 * rem..n).collect();

    // Byte range [lo, hi) each active rank currently owns, element-aligned.
    let elems = msg / el;
    let mut own: Vec<(u64, u64)> = vec![(0, elems); p2];

    // Reduce-scatter by recursive halving.
    let mut dist = p2 / 2;
    while dist >= 1 {
        let mut next: Vec<Vec<han_mpi::OpId>> = vec![Vec::new(); p2];
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
                (give_l.1 - give_l.0) * el,
                Some(r_of(bufs[l], give_l)),
                Some(r_of(scratch[pl], keep_p)),
                &cur[l],
                &cur[pl],
            );
            let (s2, r2) = b.send_recv(
                wp,
                wl,
                (give_p.1 - give_p.0) * el,
                Some(r_of(bufs[pl], give_p)),
                Some(r_of(scratch[l], keep_l)),
                &cur[pl],
                &cur[l],
            );
            let red_l = b.op(
                wl,
                OpKind::Reduce {
                    bytes: (keep_l.1 - keep_l.0) * el,
                    vectorized,
                    op,
                    dtype,
                    src: Some(r_of(scratch[l], keep_l)),
                    dst: Some(r_of(bufs[l], keep_l)),
                },
                &[r2, s1],
            );
            let red_p = b.op(
                wp,
                OpKind::Reduce {
                    bytes: (keep_p.1 - keep_p.0) * el,
                    vectorized,
                    op,
                    dtype,
                    src: Some(r_of(scratch[pl], keep_p)),
                    dst: Some(r_of(bufs[pl], keep_p)),
                },
                &[r1, s2],
            );
            next[nr] = vec![red_l];
            next[pnr] = vec![red_p];
            own[nr] = keep_l;
            own[pnr] = keep_p;
        }
        for nr in 0..p2 {
            if !next[nr].is_empty() {
                cur[active[nr]] = std::mem::take(&mut next[nr]);
            }
        }
        dist /= 2;
    }

    // Allgather by recursive doubling: exchange owned ranges, growing back.
    let mut dist = 1;
    while dist < p2 {
        let mut next: Vec<Vec<han_mpi::OpId>> = vec![Vec::new(); p2];
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
                (hi_l - lo_l) * el,
                Some(r_of(bufs[l], (lo_l, hi_l))),
                Some(r_of(bufs[pl], (lo_l, hi_l))),
                &cur[l],
                &cur[pl],
            );
            let (s2, r2) = b.send_recv(
                wp,
                wl,
                (hi_p - lo_p) * el,
                Some(r_of(bufs[pl], (lo_p, hi_p))),
                Some(r_of(bufs[l], (lo_p, hi_p))),
                &cur[pl],
                &cur[l],
            );
            let merged = (lo_l.min(lo_p), hi_l.max(hi_p));
            next[nr] = vec![s1, r2];
            next[pnr] = vec![s2, r1];
            next_own[nr] = merged;
            next_own[pnr] = merged;
        }
        for nr in 0..p2 {
            if !next[nr].is_empty() {
                cur[active[nr]] = std::mem::take(&mut next[nr]);
            }
        }
        own = next_own;
        dist *= 2;
    }

    // Unfold: odd folded ranks return the full result to even partners.
    for i in 0..rem {
        let (even, odd) = (2 * i, 2 * i + 1);
        let (we, wo) = (comm.world_rank(even), comm.world_rank(odd));
        let (snd, rcv) = b.send_recv(
            wo,
            we,
            msg,
            Some(bufs[odd]),
            Some(bufs[even]),
            &cur[odd],
            &cur[even],
        );
        cur[odd].push(snd);
        cur[even] = vec![rcv];
    }

    let mut out = Frontier::empty(n);
    for (l, ops) in cur.into_iter().enumerate() {
        out.set(l, ops);
    }
    out
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
    let mut cur: Vec<Vec<han_mpi::OpId>> = (0..n).map(|l| deps.get(l).to_vec()).collect();
    for step in 0..n - 1 {
        let mut next: Vec<Vec<han_mpi::OpId>> = vec![Vec::new(); n];
        for l in 0..n {
            let right = (l + 1) % n;
            // l sends the block it received `step` steps ago (its own at 0).
            let send_block = (l + n - step) % n;
            let (wl, wr) = (comm.world_rank(l), comm.world_rank(right));
            let sbuf = bufs[l].slice(send_block as u64 * block, block);
            let dbuf = bufs[right].slice(send_block as u64 * block, block);
            let (snd, rcv) =
                b.send_recv(wl, wr, block, Some(sbuf), Some(dbuf), &cur[l], &cur[right]);
            next[l].push(snd);
            next[right].push(rcv);
        }
        cur = next;
    }
    let mut out = Frontier::empty(n);
    for (l, ops) in cur.into_iter().enumerate() {
        out.set(l, ops);
    }
    out
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
                    bytes: block,
                    src: Some(src[l]),
                    dst: Some(slot),
                },
                deps.get(l),
            );
            out.push(l, cp);
        } else {
            let (snd, rcv) = b.send_recv(
                comm.world_rank(l),
                wroot,
                block,
                Some(src[l]),
                Some(slot),
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
                    bytes: block,
                    src: Some(slot),
                    dst: Some(dst[l]),
                },
                deps.get(l),
            );
            out.push(l, cp);
        } else {
            let (snd, rcv) = b.send_recv(
                wroot,
                comm.world_rank(l),
                block,
                Some(slot),
                Some(dst[l]),
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
    let mut cur: Vec<Vec<han_mpi::OpId>> = (0..n).map(|l| deps.get(l).to_vec()).collect();
    let mut dist = 1;
    while dist < n {
        let mut next: Vec<Vec<han_mpi::OpId>> = vec![Vec::new(); n];
        for l in 0..n {
            let to = (l + dist) % n;
            let (snd, rcv) = b.send_recv(
                comm.world_rank(l),
                comm.world_rank(to),
                1,
                None,
                None,
                &cur[l],
                &cur[to],
            );
            next[l].push(snd);
            next[to].push(rcv);
        }
        cur = next;
        dist *= 2;
    }
    let mut out = Frontier::empty(n);
    for (l, ops) in cur.into_iter().enumerate() {
        out.set(l, ops);
    }
    out
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
