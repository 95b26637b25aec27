//! The pre-generalization two-level pipelines, kept **verbatim** as
//! regression oracles.
//!
//! The N-level refactor rewrote [`crate::bcast`], [`crate::allreduce`]
//! and [`crate::extend`] to chain segment frontiers recursively through
//! the topology's level list. Its non-negotiable invariant is that every
//! two-level machine produces bit-identical virtual times and tuned
//! winners before and after the refactor — so the exact pre-refactor
//! builders live on here, changed only to return just their frontier, and
//! `tests/hierarchy_equivalence.rs` pins the generalized path against them
//! config by config. They keep their own copy of the segmentation rule,
//! so the agreement also checks [`crate::HanConfig::segmentation`].
//! Nothing else should call this module.

use crate::allreduce::{inter_reduce, intra_reduce};
use crate::bcast::{inter_bcast, intra_bcast};
use crate::config::HanConfig;
use han_colls::p2p::{dissemination_barrier, ring_allgather};
use han_colls::stack::{split_with_root, BuildCtx, RankIndex};
use han_colls::Frontier;
use han_mpi::{BufRange, Comm, DataType, OpId, OpKind, ReduceOp};

/// Build the HAN broadcast from comm-local `root` over `comm`.
pub fn build_bcast(
    cx: &mut BuildCtx,
    cfg: &HanConfig,
    comm: &Comm,
    root: usize,
    bufs: &[BufRange],
    deps: &Frontier,
) -> Frontier {
    let n = comm.size();
    assert_eq!(bufs.len(), n);
    if n == 1 {
        return deps.clone();
    }
    let root_world = comm.world_rank(root);
    let (low, up) = split_with_root(comm, &cx.topo, root_world);
    let index = RankIndex::new(comm);
    let up_locals = index.locals(&up);
    let low_locals: Vec<Vec<usize>> = low.iter().map(|lc| index.locals(lc)).collect();
    let up_root = up.local_rank(root_world).expect("root leads its node");

    let node = cx.node;
    let lvl = *cx.levels.innermost();
    let fs = han_machine::coarsen_fs(cfg.fs, bufs[0].len, &node, &cx.levels);
    let segs: Vec<Vec<BufRange>> = bufs.iter().map(|bf| bf.segments(fs)).collect();
    let u = segs[0].len();

    // Per-leader current boundary (dependency list for the next task) and
    // per-rank intra-broadcast chains.
    let mut boundary: Vec<Vec<OpId>> = up_locals.iter().map(|&l| deps.get(l).to_vec()).collect();
    let mut sb_chain: Vec<Vec<OpId>> = (0..n).map(|l| deps.get(l).to_vec()).collect();
    // All node ops of the previous segment's sb, per leader (flow control:
    // the leader's task joins the whole node's intra broadcast).
    let mut sb_node_prev: Vec<Vec<OpId>> = vec![Vec::new(); up.size()];

    for i in 0..u {
        // ib(i) over the leaders, from each leader's current boundary.
        let mut up_deps = Frontier::empty(up.size());
        for (ul, dep) in boundary.iter().enumerate() {
            up_deps.set(ul, dep);
        }
        let up_bufs: Vec<BufRange> = up_locals.iter().map(|&l| segs[l][i]).collect();
        let f_ib = inter_bcast(cx.b, cfg, &up, up_root, &up_bufs, &up_deps, i as u64);

        // Task boundary: join ib(i) with sb(i-1) on each leader.
        for ul in 0..up.size() {
            let mut ops: Vec<OpId> = f_ib.get(ul).to_vec();
            ops.extend_from_slice(&sb_node_prev[ul]);
            let j = cx.b.nop(up.world_rank(ul), &ops);
            boundary[ul] = vec![j];
        }

        // sb(i) on each node: leader starts from the fresh boundary,
        // non-leaders from their own chains.
        for (ni, lc) in low.iter().enumerate() {
            let locals = &low_locals[ni];
            let sub_bufs: Vec<BufRange> = locals.iter().map(|&l| segs[l][i]).collect();
            let mut sub_deps = Frontier::empty(lc.size());
            sub_deps.set(0, &boundary[ni]);
            for (j, &l) in locals.iter().enumerate().skip(1) {
                sub_deps.set(j, &sb_chain[l]);
            }
            let f_sb = intra_bcast(cx.b, cfg, &node, &lvl, lc, &sub_bufs, &sub_deps);
            let mut node_ops = Vec::new();
            for (j, &l) in locals.iter().enumerate() {
                sb_chain[l] = f_sb.get(j).to_vec();
                node_ops.extend_from_slice(f_sb.get(j));
            }
            sb_node_prev[ni] = node_ops;
        }
    }

    // Final task sb(u-1): leaders join the last intra broadcast.
    for ul in 0..up.size() {
        let mut ops = boundary[ul].clone();
        ops.extend_from_slice(&sb_node_prev[ul]);
        let j = cx.b.nop(up.world_rank(ul), &ops);
        boundary[ul] = vec![j];
    }

    let mut frontier = Frontier::empty(n);
    for (ul, &l) in up_locals.iter().enumerate() {
        frontier.set(l, &boundary[ul]);
    }
    for l in 0..n {
        if frontier.get(l).is_empty() {
            frontier.set(l, &sb_chain[l]);
        }
    }
    frontier
}

/// Build the HAN allreduce (in place over `bufs`, commutative `op`).
pub fn build_allreduce(
    cx: &mut BuildCtx,
    cfg: &HanConfig,
    comm: &Comm,
    bufs: &[BufRange],
    op: ReduceOp,
    dtype: DataType,
    deps: &Frontier,
) -> Frontier {
    let n = comm.size();
    assert_eq!(bufs.len(), n);
    if n == 1 {
        return deps.clone();
    }
    let (low, up) = comm.split_node(&cx.topo);
    let index = RankIndex::new(comm);
    let up_locals = index.locals(&up);
    let low_locals: Vec<Vec<usize>> = low.iter().map(|lc| index.locals(lc)).collect();
    let up_root = 0; // same root for ir and ib (paper section III-B)

    // Segment at datatype granularity: a reduction segment must hold a
    // whole number of elements.
    let node = cx.node;
    let lvl = *cx.levels.innermost();
    let el = dtype.size() as u64;
    let fs = han_machine::coarsen_fs((cfg.fs / el).max(1) * el, bufs[0].len, &node, &cx.levels);
    let segs: Vec<Vec<BufRange>> = bufs.iter().map(|bf| bf.segments(fs)).collect();
    let u = segs[0].len();
    let nl = up.size();

    let mut boundary: Vec<Vec<OpId>> = up_locals.iter().map(|&l| deps.get(l).to_vec()).collect();
    let mut child_chain: Vec<Vec<OpId>> = (0..n).map(|l| deps.get(l).to_vec()).collect();

    // Per-segment phase completions needed by the next phase.
    let mut sr_leader: Vec<Vec<Vec<OpId>>> = vec![vec![Vec::new(); nl]; u]; // [seg][ul]
    let mut ir_f: Vec<Option<Frontier>> = vec![None; u]; // over up
    let mut ib_f: Vec<Option<Frontier>> = vec![None; u]; // over up

    for t in 0..u + 3 {
        // Ops issued in this task, per leader and per non-leader rank.
        let mut issued_leader: Vec<Vec<OpId>> = vec![Vec::new(); nl];
        let mut issued_child: Vec<Vec<OpId>> = vec![Vec::new(); n];

        // sr(t): intra-node reduce of segment t.
        if t < u {
            for (ni, lc) in low.iter().enumerate() {
                let locals = &low_locals[ni];
                let sub_bufs: Vec<BufRange> = locals.iter().map(|&l| segs[l][t]).collect();
                let mut sub_deps = Frontier::empty(lc.size());
                sub_deps.set(0, &boundary[ni]);
                for (j, &l) in locals.iter().enumerate().skip(1) {
                    sub_deps.set(j, &child_chain[l]);
                }
                let f = intra_reduce(cx.b, cfg, &node, &lvl, lc, &sub_bufs, &sub_deps, op, dtype);
                sr_leader[t][ni] = f.get(0).to_vec();
                issued_leader[ni].extend_from_slice(f.get(0));
                for (j, &l) in locals.iter().enumerate().skip(1) {
                    issued_child[l].extend_from_slice(f.get(j));
                }
            }
        }

        // ir(t-1): inter-node reduce of segment t-1 to the up-root.
        if t >= 1 && t - 1 < u {
            let i = t - 1;
            let up_bufs: Vec<BufRange> = up_locals.iter().map(|&l| segs[l][i]).collect();
            let mut up_deps = Frontier::empty(nl);
            for ul in 0..nl {
                let mut d = boundary[ul].clone();
                d.extend_from_slice(&sr_leader[i][ul]);
                up_deps.set(ul, &d);
            }
            let f = inter_reduce(cx.b, cfg, &up, up_root, &up_bufs, &up_deps, op, dtype);
            for ul in 0..nl {
                issued_leader[ul].extend_from_slice(f.get(ul));
            }
            ir_f[i] = Some(f);
        }

        // ib(t-2): inter-node broadcast of the reduced segment t-2.
        if t >= 2 && t - 2 < u {
            let i = t - 2;
            let up_bufs: Vec<BufRange> = up_locals.iter().map(|&l| segs[l][i]).collect();
            let prev = ir_f[i].take().expect("ir before ib");
            let mut up_deps = Frontier::empty(nl);
            for ul in 0..nl {
                let mut d = boundary[ul].clone();
                d.extend_from_slice(prev.get(ul));
                up_deps.set(ul, &d);
            }
            let f = inter_bcast(cx.b, cfg, &up, up_root, &up_bufs, &up_deps, i as u64);
            for ul in 0..nl {
                issued_leader[ul].extend_from_slice(f.get(ul));
            }
            ib_f[i] = Some(f);
        }

        // sb(t-3): intra-node broadcast of the final segment t-3.
        if t >= 3 && t - 3 < u {
            let i = t - 3;
            let prev = ib_f[i].take().expect("ib before sb");
            for (ni, lc) in low.iter().enumerate() {
                let locals = &low_locals[ni];
                let sub_bufs: Vec<BufRange> = locals.iter().map(|&l| segs[l][i]).collect();
                let mut sub_deps = Frontier::empty(lc.size());
                let mut d = boundary[ni].clone();
                d.extend_from_slice(prev.get(ni));
                sub_deps.set(0, &d);
                for (j, &l) in locals.iter().enumerate().skip(1) {
                    sub_deps.set(j, &child_chain[l]);
                }
                let f = intra_bcast(cx.b, cfg, &node, &lvl, lc, &sub_bufs, &sub_deps);
                for (j, &l) in locals.iter().enumerate() {
                    if j == 0 {
                        issued_leader[ni].extend_from_slice(f.get(0));
                    } else {
                        issued_child[l].extend_from_slice(f.get(j));
                        // Leader's task joins the whole node's sb (bounce
                        // pool flow control), as in bcast.
                        issued_leader[ni].extend_from_slice(f.get(j));
                    }
                }
            }
        }

        // Task boundary joins.
        for ul in 0..nl {
            let j = if issued_leader[ul].is_empty() {
                // Degenerate (u < 3 drains some steps early): carry over.
                cx.b.nop(up.world_rank(ul), &boundary[ul])
            } else {
                cx.b.nop(up.world_rank(ul), &issued_leader[ul])
            };
            boundary[ul] = vec![j];
        }
        for l in 0..n {
            if !issued_child[l].is_empty() {
                child_chain[l] = std::mem::take(&mut issued_child[l]);
            }
        }
    }

    let mut frontier = Frontier::empty(n);
    for (ul, &l) in up_locals.iter().enumerate() {
        frontier.set(l, &boundary[ul]);
    }
    for l in 0..n {
        if frontier.get(l).is_empty() {
            frontier.set(l, &child_chain[l]);
        }
    }
    frontier
}

/// Hierarchical `MPI_Reduce` to comm-local `root`: a pipelined `sr` → `ir`
/// chain (in place at the root; interior buffers clobbered).
#[allow(clippy::too_many_arguments)]
pub fn build_reduce(
    cx: &mut BuildCtx,
    cfg: &HanConfig,
    comm: &Comm,
    root: usize,
    bufs: &[BufRange],
    op: ReduceOp,
    dtype: DataType,
    deps: &Frontier,
) -> Frontier {
    let n = comm.size();
    if n == 1 {
        return deps.clone();
    }
    let root_world = comm.world_rank(root);
    let (low, up) = split_with_root(comm, &cx.topo, root_world);
    let index = RankIndex::new(comm);
    let up_locals = index.locals(&up);
    let low_locals: Vec<Vec<usize>> = low.iter().map(|lc| index.locals(lc)).collect();
    let up_root = up.local_rank(root_world).expect("root leads its node");
    let nl = up.size();
    let node = cx.node;
    let lvl = *cx.levels.innermost();

    // Segment at datatype granularity: a reduction segment must hold a
    // whole number of elements.
    let el = dtype.size() as u64;
    let fs = han_machine::coarsen_fs((cfg.fs / el).max(1) * el, bufs[0].len, &node, &cx.levels);
    let segs: Vec<Vec<BufRange>> = bufs.iter().map(|bf| bf.segments(fs)).collect();
    let u = segs[0].len();

    let mut boundary: Vec<Vec<OpId>> = up_locals.iter().map(|&l| deps.get(l).to_vec()).collect();
    let mut child_chain: Vec<Vec<OpId>> = (0..n).map(|l| deps.get(l).to_vec()).collect();
    let mut sr_leader: Vec<Vec<Vec<OpId>>> = vec![vec![Vec::new(); nl]; u];

    for t in 0..u + 1 {
        let mut issued_leader: Vec<Vec<OpId>> = vec![Vec::new(); nl];

        if t < u {
            for (ni, lc) in low.iter().enumerate() {
                let locals = &low_locals[ni];
                let sub_bufs: Vec<BufRange> = locals.iter().map(|&l| segs[l][t]).collect();
                let mut sub_deps = Frontier::empty(lc.size());
                sub_deps.set(0, &boundary[ni]);
                for (j, &l) in locals.iter().enumerate().skip(1) {
                    sub_deps.set(j, &child_chain[l]);
                }
                let f = intra_reduce(cx.b, cfg, &node, &lvl, lc, &sub_bufs, &sub_deps, op, dtype);
                sr_leader[t][ni] = f.get(0).to_vec();
                issued_leader[ni].extend_from_slice(f.get(0));
                for (j, &l) in locals.iter().enumerate().skip(1) {
                    child_chain[l] = f.get(j).to_vec();
                }
            }
        }
        if t >= 1 {
            let i = t - 1;
            let up_bufs: Vec<BufRange> = up_locals.iter().map(|&l| segs[l][i]).collect();
            let mut up_deps = Frontier::empty(nl);
            for ul in 0..nl {
                let mut d = boundary[ul].clone();
                d.extend_from_slice(&sr_leader[i][ul]);
                up_deps.set(ul, &d);
            }
            let f = inter_reduce(cx.b, cfg, &up, up_root, &up_bufs, &up_deps, op, dtype);
            for ul in 0..nl {
                issued_leader[ul].extend_from_slice(f.get(ul));
            }
        }
        for ul in 0..nl {
            if !issued_leader[ul].is_empty() {
                let j = cx.b.nop(up.world_rank(ul), &issued_leader[ul]);
                boundary[ul] = vec![j];
            }
        }
    }

    let mut frontier = Frontier::empty(n);
    for (ul, &l) in up_locals.iter().enumerate() {
        frontier.set(l, &boundary[ul]);
    }
    for l in 0..n {
        if frontier.get(l).is_empty() {
            frontier.set(l, &child_chain[l]);
        }
    }
    frontier
}

/// Hierarchical `MPI_Allgather`: intra-node gather to leaders, ring
/// allgather of node arrays across leaders, intra-node broadcast of the
/// assembled array. Requires equal node populations (true for world
/// communicators) and ascending ranks.
pub fn build_allgather(
    cx: &mut BuildCtx,
    cfg: &HanConfig,
    comm: &Comm,
    bufs: &[BufRange],
    block: u64,
    deps: &Frontier,
) -> Frontier {
    let n = comm.size();
    if n == 1 {
        return deps.clone();
    }
    assert!(
        comm.ranks().windows(2).all(|w| w[0] < w[1]),
        "allgather requires an ascending-rank communicator"
    );
    let (low, up) = comm.split_node(&cx.topo);
    let index = RankIndex::new(comm);
    let ppn = low[0].size();
    assert!(
        low.iter().all(|lc| lc.size() == ppn),
        "allgather requires equal node populations"
    );
    let node_bytes = block * ppn as u64;

    // Phase 1: gather node blocks into each leader's slice of its own
    // (full-size) buffer.
    let up_locals = index.locals(&up);
    let mut leader_ready: Vec<Vec<OpId>> = Vec::with_capacity(low.len());
    let mut out = Frontier::empty(n);
    for (ni, lc) in low.iter().enumerate() {
        let locals = index.locals(lc);
        let wleader = lc.world_rank(0);
        let leader_l = up_locals[ni];
        let node_slice = bufs[leader_l].slice(ni as u64 * node_bytes, node_bytes);
        let mut ready = Vec::new();
        for (j, &l) in locals.iter().enumerate() {
            let w = lc.world_rank(j);
            let slot = node_slice.slice(j as u64 * block, block);
            let my_block = bufs[l].slice(l as u64 * block, block);
            let op = if j == 0 {
                // Leader's own block is already in place.
                cx.b.nop(wleader, deps.get(l))
            } else {
                let expose = cx.b.nop(w, deps.get(l));
                out.push(l, expose);
                cx.b.op(
                    wleader,
                    OpKind::CrossCopy {
                        from: w as u32,
                        src: my_block,
                        dst: slot,
                    },
                    &[expose],
                )
            };
            ready.push(op);
        }
        leader_ready.push(ready);
    }

    // Phase 2: ring allgather of node arrays across leaders, directly in
    // the leaders' full-size buffers.
    let up_bufs: Vec<BufRange> = up_locals.iter().map(|&l| bufs[l]).collect();
    let mut up_deps = Frontier::empty(up.size());
    for (ul, r) in leader_ready.iter().enumerate() {
        up_deps.set(ul, r);
    }
    let f_up = ring_allgather(cx.b, &up, &up_bufs, node_bytes, &up_deps);

    // Phase 3: intra-node broadcast of the full array.
    for (ni, lc) in low.iter().enumerate() {
        let locals = index.locals(lc);
        let sub_bufs: Vec<BufRange> = locals.iter().map(|&l| bufs[l]).collect();
        let mut sub_deps = Frontier::empty(lc.size());
        sub_deps.set(0, f_up.get(ni));
        for (j, &l) in locals.iter().enumerate().skip(1) {
            sub_deps.set(j, deps.get(l));
        }
        let lvl = *cx.levels.innermost();
        let f = intra_bcast(cx.b, cfg, &cx.node, &lvl, lc, &sub_bufs, &sub_deps);
        for (j, &l) in locals.iter().enumerate() {
            let mut v = out.get(l).to_vec();
            v.extend_from_slice(f.get(j));
            out.set(l, &v);
        }
    }
    out
}
/// Hierarchical `MPI_Barrier`: intra-node arrival (children signal the
/// leader), inter-node dissemination across leaders, intra-node release.
/// Three flag hops instead of `coll_tuned`'s ⌈log₂(n·p)⌉ network rounds.
pub fn build_barrier(cx: &mut BuildCtx, comm: &Comm, deps: &Frontier) -> Frontier {
    let n = comm.size();
    if n == 1 {
        return deps.clone();
    }
    let (low, up) = comm.split_node(&cx.topo);
    let index = RankIndex::new(comm);

    // Phase 1: arrival — each leader joins its node's members.
    let mut up_deps = Frontier::empty(up.size());
    for (ni, lc) in low.iter().enumerate() {
        let locals = index.locals(lc);
        let wleader = lc.world_rank(0);
        let mut arrive = deps.get(locals[0]).to_vec();
        for (j, &l) in locals.iter().enumerate().skip(1) {
            let w = lc.world_rank(j);
            let flag = cx.b.nop(w, deps.get(l));
            arrive.push(flag);
        }
        let joined = cx.b.nop(wleader, &arrive);
        up_deps.set(ni, &[joined]);
    }

    // Phase 2: inter-node dissemination across leaders.
    let f_up = dissemination_barrier(cx.b, &up, &up_deps);

    // Phase 3: release — children wait on their leader's exit.
    let mut out = Frontier::empty(n);
    for (ni, lc) in low.iter().enumerate() {
        let locals = index.locals(lc);
        let wleader = lc.world_rank(0);
        let leader_exit = cx.b.nop(wleader, f_up.get(ni));
        out.set(locals[0], &[leader_exit]);
        for (j, &l) in locals.iter().enumerate().skip(1) {
            let w = lc.world_rank(j);
            let release = cx.b.nop(w, &[leader_exit]);
            out.set(l, &[release]);
        }
    }
    out
}
