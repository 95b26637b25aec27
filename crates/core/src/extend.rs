//! Extension collectives: Gather, Scatter, Allgather, Barrier.
//!
//! The paper: "Similar designs can be extended to other collective
//! operations, such as MPI_Reduce, MPI_Gather, and MPI_Allgather, as long
//! as the collective operations can be divided into a serial of tasks."
//! `MPI_Reduce` is the first two stages (`sr`/`ir`) of the Allreduce task
//! pipeline and lives beside it in [`crate::allreduce`]; the
//! block-redistribution collectives here use the two-level composition
//! without segmentation (their per-rank blocks are the natural pipeline
//! unit).

use crate::bcast::descend_bcast;
use crate::config::HanConfig;
use crate::levels::{GroupPlan, NodeSplit};
use han_colls::p2p::{dissemination_barrier, ring_allgather};
use han_colls::stack::BuildCtx;
use han_colls::Frontier;
use han_mpi::{BufRange, Comm, OpId, OpKind, ProgramBuilder};

/// Recursive arrival: fold a group's members up to its leader along its
/// [`GroupPlan`], one flag join per level. At the innermost level this is
/// the classic per-node arrive (child flags + one leader join); above it
/// the subgroup joins chain upward. `locals[j]` is the comm-local index of
/// the group's local rank `j`. Returns the group leader's join op.
fn arrive_level(
    b: &mut ProgramBuilder,
    plan: &GroupPlan,
    gc: &Comm,
    locals: &[usize],
    deps: &Frontier,
) -> OpId {
    let wleader = gc.world_rank(0);
    let subs = match plan {
        GroupPlan::Flat { .. } => {
            let mut arrive = deps.get(locals[0]).to_vec();
            for (j, &l) in locals.iter().enumerate().skip(1) {
                let w = gc.world_rank(j);
                let flag = b.nop(w, deps.get(l));
                arrive.push(flag);
            }
            return b.nop(wleader, &arrive);
        }
        GroupPlan::Split { subs, .. } => subs,
    };
    let mut arrive = Vec::with_capacity(subs.len());
    for sub in subs {
        let sc_locals: Vec<usize> = sub.locals.iter().map(|&l| locals[l]).collect();
        arrive.push(arrive_level(b, &sub.plan, &sub.comm, &sc_locals, deps));
    }
    b.nop(wleader, &arrive)
}

/// Recursive release: the group leader's exit fans out level by level —
/// subgroup leaders wait on it, then release their own members.
fn release_level(
    b: &mut ProgramBuilder,
    plan: &GroupPlan,
    gc: &Comm,
    locals: &[usize],
    entry: &[OpId],
    out: &mut Frontier,
) {
    match plan {
        GroupPlan::Flat { .. } => {
            let wleader = gc.world_rank(0);
            let leader_exit = b.nop(wleader, entry);
            out.set(locals[0], &[leader_exit]);
            for (j, &l) in locals.iter().enumerate().skip(1) {
                let w = gc.world_rank(j);
                let release = b.nop(w, &[leader_exit]);
                out.set(l, &[release]);
            }
        }
        GroupPlan::Split { subs, .. } => {
            for sub in subs {
                let sc_locals: Vec<usize> = sub.locals.iter().map(|&l| locals[l]).collect();
                release_level(b, &sub.plan, &sub.comm, &sc_locals, entry, out);
            }
        }
    }
}

/// Hierarchical `MPI_Barrier`: arrival flags chain up the level list to
/// each node leader, the leaders run an inter-node dissemination, and the
/// release fans back down — one flag hop per hierarchy level instead of
/// `coll_tuned`'s ⌈log₂(n·p)⌉ network rounds. On two-level topologies
/// this is exactly the classic arrive / disseminate / release barrier.
pub fn build_barrier(cx: &mut BuildCtx, comm: &Comm, deps: &Frontier) -> Frontier {
    let n = comm.size();
    if n == 1 {
        return deps.clone();
    }
    let split = NodeSplit::node(comm, &cx.topo);

    // Phase 1: arrival — each leader joins its node's members, level by
    // level.
    let mut up_deps = Frontier::empty(split.up.size());
    for (ni, lc) in split.low.iter().enumerate() {
        let locals = &split.low_locals[ni];
        let joined = arrive_level(cx.b, &split.plans[ni], lc, locals, deps);
        up_deps.set(ni, &[joined]);
    }

    // Phase 2: inter-node dissemination across leaders.
    let f_up = dissemination_barrier(cx.b, &split.up, &up_deps);

    // Phase 3: release — members wait on their leaders' exits, level by
    // level.
    let mut out = Frontier::empty(n);
    for (ni, lc) in split.low.iter().enumerate() {
        let locals = &split.low_locals[ni];
        release_level(cx.b, &split.plans[ni], lc, locals, f_up.get(ni), &mut out);
    }
    out
}

/// World-rank-ordered slot index of `world` within its node's members.
fn node_slot(members: &[usize], world: usize) -> usize {
    let mut sorted = members.to_vec();
    sorted.sort_unstable();
    sorted.iter().position(|&r| r == world).expect("member")
}

/// Hierarchical `MPI_Gather`: node leaders pull their node's blocks into a
/// node array, then an inter-node gather assembles the root's full array
/// (comm-local-rank order; comm ranks must be ascending).
#[allow(clippy::too_many_arguments)]
pub fn build_gather(
    cx: &mut BuildCtx,
    _cfg: &HanConfig,
    comm: &Comm,
    root: usize,
    src: &[BufRange],
    dst_root: BufRange,
    deps: &Frontier,
) -> Frontier {
    let n = comm.size();
    let block = src[0].len;
    assert_eq!(dst_root.len, block * n as u64);
    assert!(
        comm.ranks().windows(2).all(|w| w[0] < w[1]),
        "gather requires an ascending-rank communicator"
    );
    if n == 1 {
        let cp = cx.b.op(
            comm.world_rank(0),
            OpKind::Copy {
                src: src[0],
                dst: dst_root,
            },
            deps.get(0),
        );
        return Frontier::from_ops(&[cp]);
    }
    let root_world = comm.world_rank(root);
    let split = NodeSplit::rooted(comm, &cx.topo, root_world);
    let low = &split.low;
    let mut out = Frontier::empty(n);

    // Phase 1: each leader pulls its node's blocks into a node array.
    let mut node_arrays = Vec::with_capacity(low.len());
    let mut leader_ready: Vec<Vec<OpId>> = Vec::with_capacity(low.len());
    for (lc, locals) in low.iter().zip(&split.low_locals) {
        let wleader = lc.world_rank(0);
        let members: Vec<usize> = lc.ranks().to_vec();
        let arr =
            cx.b.alloc(wleader, block * lc.size() as u64)
                .slice(0, block * lc.size() as u64);
        let mut ready = Vec::new();
        for (j, &l) in locals.iter().enumerate() {
            let w = lc.world_rank(j);
            let slot = arr.slice(node_slot(&members, w) as u64 * block, block);
            let op = if j == 0 {
                cx.b.op(
                    wleader,
                    OpKind::Copy {
                        src: src[l],
                        dst: slot,
                    },
                    deps.get(l),
                )
            } else {
                // Leader pulls the child's block (child's data must be
                // ready: cross-rank dep through the child's frontier).
                let mut d: Vec<OpId> = deps.get(l).to_vec();
                let expose = cx.b.nop(w, &d);
                out.push(l, expose);
                d = vec![expose];
                cx.b.op(
                    wleader,
                    OpKind::CrossCopy {
                        from: w as u32,
                        src: src[l],
                        dst: slot,
                    },
                    &d,
                )
            };
            ready.push(op);
        }
        node_arrays.push(arr);
        leader_ready.push(ready);
    }

    // Phase 2: inter-node gather of node arrays into the root's dst.
    // Comm-local order is node-major (ascending ranks), so each node's
    // array lands contiguously.
    let mut offset = 0u64;
    let mut up_dst_slots = Vec::with_capacity(low.len());
    for lc in low {
        let sz = block * lc.size() as u64;
        up_dst_slots.push(dst_root.slice(offset, sz));
        offset += sz;
    }
    for (ul, lc) in low.iter().enumerate() {
        let wleader = lc.world_rank(0);
        let leader_comm_local = split.up_locals[ul];
        if wleader == root_world {
            let cp = cx.b.op(
                root_world,
                OpKind::Copy {
                    src: node_arrays[ul],
                    dst: up_dst_slots[ul],
                },
                &leader_ready[ul],
            );
            out.push(leader_comm_local, cp);
        } else {
            let (snd, rcv) = cx.b.send_recv(
                wleader,
                root_world,
                node_arrays[ul],
                up_dst_slots[ul],
                &leader_ready[ul],
                deps.get(root),
            );
            out.push(leader_comm_local, snd);
            out.push(root, rcv);
        }
    }
    out
}

/// Hierarchical `MPI_Scatter` (inverse of gather): the root sends each
/// node's slice to its leader; children pull their blocks.
#[allow(clippy::too_many_arguments)]
pub fn build_scatter(
    cx: &mut BuildCtx,
    _cfg: &HanConfig,
    comm: &Comm,
    root: usize,
    src_root: BufRange,
    dst: &[BufRange],
    deps: &Frontier,
) -> Frontier {
    let n = comm.size();
    let block = dst[0].len;
    assert_eq!(src_root.len, block * n as u64);
    assert!(
        comm.ranks().windows(2).all(|w| w[0] < w[1]),
        "scatter requires an ascending-rank communicator"
    );
    if n == 1 {
        let cp = cx.b.op(
            comm.world_rank(0),
            OpKind::Copy {
                src: src_root,
                dst: dst[0],
            },
            deps.get(0),
        );
        return Frontier::from_ops(&[cp]);
    }
    let root_world = comm.world_rank(root);
    let split = NodeSplit::rooted(comm, &cx.topo, root_world);
    let low = &split.low;
    let mut out = Frontier::empty(n);

    // Phase 1: root sends each node's slice to its leader.
    let mut offset = 0u64;
    let mut node_arrays = Vec::with_capacity(low.len());
    let mut leader_have: Vec<Vec<OpId>> = Vec::with_capacity(low.len());
    for (lc, &leader_local) in low.iter().zip(&split.up_locals) {
        let sz = block * lc.size() as u64;
        let slice = src_root.slice(offset, sz);
        offset += sz;
        let wleader = lc.world_rank(0);
        if wleader == root_world {
            node_arrays.push(slice);
            leader_have.push(deps.get(root).to_vec());
        } else {
            let arr = cx.b.alloc(wleader, sz).slice(0, sz);
            let (snd, rcv) = cx.b.send_recv(
                root_world,
                wleader,
                slice,
                arr,
                deps.get(root),
                deps.get(leader_local),
            );
            out.push(root, snd);
            node_arrays.push(arr);
            leader_have.push(vec![rcv]);
        }
    }

    // Phase 2: each rank takes its block from the leader's array.
    for (ni, lc) in low.iter().enumerate() {
        let wleader = lc.world_rank(0);
        let members: Vec<usize> = lc.ranks().to_vec();
        for (j, &l) in split.low_locals[ni].iter().enumerate() {
            let w = lc.world_rank(j);
            let slot = node_arrays[ni].slice(node_slot(&members, w) as u64 * block, block);
            let op = if j == 0 {
                cx.b.op(
                    wleader,
                    OpKind::Copy {
                        src: slot,
                        dst: dst[l],
                    },
                    &leader_have[ni],
                )
            } else {
                let mut d: Vec<OpId> = deps.get(l).to_vec();
                d.extend_from_slice(&leader_have[ni]);
                cx.b.op(
                    w,
                    OpKind::CrossCopy {
                        from: wleader as u32,
                        src: slot,
                        dst: dst[l],
                    },
                    &d,
                )
            };
            out.push(l, op);
        }
    }
    out
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
    let split = NodeSplit::node(comm, &cx.topo);
    let (low, up, up_locals) = (&split.low, &split.up, &split.up_locals);
    let ppn = low[0].size();
    assert!(
        low.iter().all(|lc| lc.size() == ppn),
        "allgather requires equal node populations"
    );
    let node_bytes = block * ppn as u64;

    // Phase 1: gather node blocks into each leader's slice of its own
    // (full-size) buffer.
    let mut leader_ready: Vec<Vec<OpId>> = Vec::with_capacity(low.len());
    let mut out = Frontier::empty(n);
    for (ni, lc) in low.iter().enumerate() {
        let locals = &split.low_locals[ni];
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
    let f_up = ring_allgather(cx.b, up, &up_bufs, node_bytes, &up_deps);

    // Phase 3: intra-node broadcast of the full array.
    for (ni, lc) in low.iter().enumerate() {
        let locals = &split.low_locals[ni];
        let sub_bufs: Vec<BufRange> = locals.iter().map(|&l| bufs[l]).collect();
        let mut sub_deps = deps.project(locals);
        sub_deps.set(0, f_up.get(ni));
        let levels = cx.levels;
        let f = descend_bcast(
            cx.b,
            cfg,
            &cx.node,
            &levels,
            &split.plans[ni],
            lc,
            &sub_bufs,
            &sub_deps,
        );
        for (j, &l) in locals.iter().enumerate() {
            out.extend(l, f.get(j));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_machine::{mini, Flavor, Machine};
    use han_mpi::ProgramBuilder;
    use han_mpi::{execute_seeded, ExecOpts};

    #[test]
    fn gather_collects_in_rank_order() {
        let preset = mini(2, 3);
        let n = 6;
        let root = 4; // non-leader root
        let comm = Comm::world(n);
        let mut b = ProgramBuilder::new(n);
        let src: Vec<BufRange> = (0..n).map(|r| b.alloc(r, 4)).collect();
        let dst = b.alloc(root, 24);
        let mut cx = BuildCtx::new(&mut b, &preset);
        build_gather(
            &mut cx,
            &HanConfig::default(),
            &comm,
            root,
            &src,
            dst,
            &Frontier::empty(n),
        );
        let prog = b.build();
        let mut m = Machine::from_preset(&preset);
        let src2 = src.clone();
        let (_, mem) = execute_seeded(
            &mut m,
            &prog,
            &ExecOpts::timing(Flavor::OpenMpi.p2p()),
            |mm| {
                for r in 0..n {
                    mm.write(r, src2[r], &[r as u8; 4]);
                }
            },
        );
        let expect: Vec<u8> = (0..n).flat_map(|r| [r as u8; 4]).collect();
        assert_eq!(mem.read(root, dst), expect.as_slice());
    }

    #[test]
    fn scatter_distributes_in_rank_order() {
        let preset = mini(2, 3);
        let n = 6;
        let root = 1;
        let comm = Comm::world(n);
        let mut b = ProgramBuilder::new(n);
        let src = b.alloc(root, 24);
        let dst: Vec<BufRange> = (0..n).map(|r| b.alloc(r, 4)).collect();
        let mut cx = BuildCtx::new(&mut b, &preset);
        build_scatter(
            &mut cx,
            &HanConfig::default(),
            &comm,
            root,
            src,
            &dst,
            &Frontier::empty(n),
        );
        let prog = b.build();
        let mut m = Machine::from_preset(&preset);
        let (_, mem) = execute_seeded(
            &mut m,
            &prog,
            &ExecOpts::timing(Flavor::OpenMpi.p2p()),
            |mm| {
                let all: Vec<u8> = (0..n).flat_map(|r| [(r * 11) as u8; 4]).collect();
                mm.write(root, src, &all);
            },
        );
        for r in 0..n {
            assert_eq!(mem.read(r, dst[r]), &[(r * 11) as u8; 4], "rank {r}");
        }
    }

    #[test]
    fn barrier_synchronizes_under_skew() {
        use han_mpi::{execute, OpId};
        // Every rank's barrier exit must be at or after every rank's
        // arrival — the defining property — even with arrival imbalance.
        let preset = mini(3, 3);
        let n = 9;
        let comm = Comm::world(n);
        let mut b = ProgramBuilder::new(n);
        let mut cx = BuildCtx::new(&mut b, &preset);
        let f = build_barrier(&mut cx, &comm, &Frontier::empty(n));
        let exits: Vec<OpId> = (0..n).map(|l| f.get(l)[0]).collect();
        let prog = b.build();
        let mut m = Machine::from_preset(&preset);
        let skew: Vec<han_sim::Time> = (0..n)
            .map(|r| han_sim::Time::from_us((r as u64 * 137) % 900))
            .collect();
        let max_arrival = *skew.iter().max().unwrap();
        let rep = execute(
            &mut m,
            &prog,
            &han_mpi::ExecOpts::timing(Flavor::OpenMpi.p2p()).with_skew(skew),
        );
        for (l, &e) in exits.iter().enumerate() {
            assert!(
                rep.finish(e) >= max_arrival,
                "rank {l} exited at {} before the last arrival {max_arrival}",
                rep.finish(e)
            );
        }
    }

    #[test]
    fn hierarchical_barrier_beats_flat_dissemination() {
        use crate::Han;
        use han_colls::stack::{time_coll, Coll};
        use han_colls::TunedOpenMpi;
        // With fat nodes, three flag hops + leader dissemination should
        // beat log2(n*p) full network rounds.
        let preset = mini(4, 8);
        let han = Han::with_config(crate::HanConfig::default());
        let t_han = time_coll(&han, &preset, Coll::Barrier, 0, 0).unwrap();
        let t_tuned = time_coll(&TunedOpenMpi, &preset, Coll::Barrier, 0, 0).unwrap();
        assert!(
            t_han < t_tuned,
            "hierarchical barrier {t_han} vs flat {t_tuned}"
        );
    }

    #[test]
    fn allgather_assembles_everywhere() {
        let preset = mini(3, 2);
        let n = 6;
        let block = 4u64;
        let comm = Comm::world(n);
        let mut b = ProgramBuilder::new(n);
        let bufs = b.alloc_all(block * n as u64);
        let mut cx = BuildCtx::new(&mut b, &preset);
        build_allgather(
            &mut cx,
            &HanConfig::default(),
            &comm,
            &bufs,
            block,
            &Frontier::empty(n),
        );
        let prog = b.build();
        let mut m = Machine::from_preset(&preset);
        let bufs2 = bufs.clone();
        let (_, mem) = execute_seeded(
            &mut m,
            &prog,
            &ExecOpts::timing(Flavor::OpenMpi.p2p()),
            |mm| {
                for r in 0..n {
                    let mine = bufs2[r].slice(r as u64 * block, block);
                    mm.write(r, mine, &[(r + 1) as u8; 4]);
                }
            },
        );
        let expect: Vec<u8> = (0..n).flat_map(|r| [(r + 1) as u8; 4]).collect();
        for r in 0..n {
            assert_eq!(mem.read(r, bufs[r]), expect.as_slice(), "rank {r}");
        }
    }
}
