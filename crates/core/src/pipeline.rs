//! One HAN pipeline (paper section III): every hierarchical collective is
//! an ordered list of stages run by one step loop.
//!
//! A stage is a `(phase, lag)` pair: step `t` runs `phase` on segment
//! `t − lag`, for the segments that exist. A step issues its stages in
//! list order and ends in one join op per node leader. The list order is
//! part of each collective's definition: the executor serves simultaneous
//! requests in issue order, so reordering a list moves makespans.
//!
//! * Bcast, [`BCAST`]: `sb` lag 1, then `ib` lag 0. Leaders run
//!   `ib, sbib…, sb` (eq. 3).
//! * Reduce, [`REDUCE`]: `sr` lag 0, then `ir` lag 1, toward the root's
//!   node. Leaders run `sr, irsr…, ir`.
//! * Allreduce, [`ALLREDUCE`]: `sr` 0, `ir` 1, `ib` 2, `sb` 3. Leaders
//!   run `sr, irsr, ibirsr, sbibirsr…, sbibir, sbib, sb` (eq. 4).
//!
//! The task-based cost model in `han-tuner` reads the same lists, through
//! [`steps`] and [`step`].

use crate::allreduce::{ascend_reduce, inter_reduce};
use crate::bcast::{descend_bcast, inter_bcast};
use crate::config::HanConfig;
use crate::levels::NodeSplit;
use han_colls::stack::BuildCtx;
use han_colls::Frontier;
use han_mpi::{BufRange, DataType, ReduceOp};

/// One phase of a HAN collective on one message segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Intra-node reduce toward each node leader.
    Sr,
    /// Inter-node reduce among the leaders toward the up-root.
    Ir,
    /// Inter-node broadcast among the leaders from the up-root.
    Ib,
    /// Intra-node broadcast from each node leader.
    Sb,
}

/// A pipeline stage: step `t` runs the phase on segment `t − lag`.
pub type Stage = (Phase, usize);

/// `MPI_Bcast` (Fig. 1): `sb(t−1)`, then `ib(t)`.
pub const BCAST: &[Stage] = &[(Phase::Sb, 1), (Phase::Ib, 0)];

/// `MPI_Reduce`: `sr(t)`, then `ir(t−1)` toward the root's node.
pub const REDUCE: &[Stage] = &[(Phase::Sr, 0), (Phase::Ir, 1)];

/// `MPI_Allreduce` (Fig. 5): `sr(t)`, `ir(t−1)`, `ib(t−2)`, `sb(t−3)`.
pub const ALLREDUCE: &[Stage] = &[
    (Phase::Sr, 0),
    (Phase::Ir, 1),
    (Phase::Ib, 2),
    (Phase::Sb, 3),
];

/// The number of steps `stages` take over `u` segments.
pub fn steps(stages: &[Stage], u: usize) -> usize {
    u + stages.iter().map(|&(_, lag)| lag).max().unwrap_or(0)
}

/// The phases step `t` runs over `u` segments, in issue order, each with
/// its segment: every stage with `0 ≤ t − lag < u`.
pub fn step(stages: &[Stage], u: usize, t: usize) -> impl Iterator<Item = (Phase, usize)> + '_ {
    stages.iter().filter_map(move |&(phase, lag)| {
        let i = t.checked_sub(lag).filter(|&i| i < u)?;
        Some((phase, i))
    })
}

/// Run `stages` over `split`: the only step loop behind the HAN Bcast,
/// Reduce and Allreduce. `ir` reduces to and `ib` broadcasts from the
/// root's leader, `split.up_root`. `dtype` segments the message; `op` is
/// the reduction of the `sr` and `ir` phases, and `None` for a list
/// without them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pipeline(
    cx: &mut BuildCtx,
    cfg: &HanConfig,
    stages: &[Stage],
    split: &NodeSplit,
    bufs: &[BufRange],
    dtype: DataType,
    op: Option<ReduceOp>,
    deps: &Frontier,
) -> Frontier {
    let n = bufs.len();
    let (up, up_root) = (&split.up, split.up_root);
    let nl = up.size();
    let (node, levels) = (cx.node, cx.levels);
    let (fs, u) = cfg.segmentation(dtype, bufs[0].len, &node, &levels);
    let reduction = || op.expect("a reduction phase needs a reduction op");

    // Each leader's join of its previous step. It takes every op the
    // leader issued there, so a segment's next phase, issued in a later
    // step, is ordered after its last one through this join alone.
    let mut boundary = deps.project(&split.up_locals);
    let mut child_chain = deps.clone();
    // Scratch reused by every step: ops issued in the step, per leader and
    // per non-leader rank, and one phase's buffers and dependencies.
    let mut issued_leader = Frontier::empty(nl);
    let mut issued_child = Frontier::empty(n);
    let mut seg_bufs: Vec<BufRange> = Vec::new();
    let mut sub_deps = Frontier::default();

    for t in 0..steps(stages, u) {
        issued_leader.reset(nl);
        let mut intra = false;
        for (phase, i) in step(stages, u, t) {
            if let Phase::Ir | Phase::Ib = phase {
                seg_bufs.clear();
                seg_bufs.extend(split.up_locals.iter().map(|&l| bufs[l].segment(fs, i)));
                let f = if phase == Phase::Ir {
                    let op = reduction();
                    inter_reduce(cx.b, cfg, up, up_root, &seg_bufs, &boundary, op, dtype)
                } else {
                    inter_bcast(cx.b, cfg, up, up_root, &seg_bufs, &boundary, i as u64)
                };
                for ul in 0..nl {
                    issued_leader.extend(ul, f.get(ul));
                }
                continue;
            }
            if !intra {
                issued_child.reset(n);
                intra = true;
            }
            // sr: intra-node reduce; sb: intra-node broadcast of a
            // segment, which the leader starts once it holds it.
            for (ni, lc) in split.low.iter().enumerate() {
                let locals = &split.low_locals[ni];
                seg_bufs.clear();
                seg_bufs.extend(locals.iter().map(|&l| bufs[l].segment(fs, i)));
                sub_deps.reset(lc.size());
                sub_deps.set(0, boundary.get(ni));
                for (j, &l) in locals.iter().enumerate().skip(1) {
                    sub_deps.set(j, child_chain.get(l));
                }
                let plan = &split.plans[ni];
                let f = if phase == Phase::Sr {
                    let op = reduction();
                    ascend_reduce(
                        cx.b, cfg, &node, &levels, plan, lc, &seg_bufs, &sub_deps, op, dtype,
                    )
                } else {
                    descend_bcast(cx.b, cfg, &node, &levels, plan, lc, &seg_bufs, &sub_deps)
                };
                for (j, &l) in locals.iter().enumerate().skip(1) {
                    issued_child.extend(l, f.get(j));
                }
                // The leader's task joins its own sr, but the whole node's
                // sb: the bounce pool's flow control.
                let joined = if phase == Phase::Sr { 1 } else { locals.len() };
                for j in 0..joined {
                    issued_leader.extend(ni, f.get(j));
                }
            }
        }

        // Task boundary joins: each leader's next step starts from one op
        // joining everything it issued in this one. For u ≥ 1 every step
        // issues a phase on every leader, and a phase of a one-rank group
        // hands back its dependencies, so a leader's list is empty only at
        // step 0 on a node with one rank and no incoming dependencies,
        // where the join has none either.
        for ul in 0..nl {
            let j = cx.b.nop(up.world_rank(ul), issued_leader.get(ul));
            boundary.set(ul, &[j]);
        }
        // A step with an intra phase gives every non-leader its ops: an
        // intra phase hands a rank's dependencies back when it issues
        // nothing for it. A step without one leaves the chains as they are.
        if intra {
            std::mem::swap(&mut child_chain, &mut issued_child);
        }
    }

    // Leaders end at their last join, everyone else at its own chain.
    let mut frontier = child_chain;
    for (ul, &l) in split.up_locals.iter().enumerate() {
        frontier.set(l, boundary.get(ul));
    }
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allreduce::{build_allreduce, build_reduce};
    use crate::bcast::build_bcast;
    use han_machine::{mini, MachinePreset};
    use han_mpi::{Comm, OpId, OpKind, Program, ProgramBuilder};

    /// Build `stages`' collective of `bytes` per rank from rank 0 over
    /// the world of `preset`, returning the program and the user buffers.
    fn build(
        preset: &MachinePreset,
        cfg: &HanConfig,
        stages: &[Stage],
        bytes: u64,
    ) -> (Program, Vec<BufRange>) {
        let n = preset.topology.world_size();
        let comm = Comm::world(n);
        let mut b = ProgramBuilder::new(n);
        let bufs = b.alloc_all(bytes);
        let mut cx = BuildCtx::new(&mut b, preset);
        let deps = Frontier::empty(n);
        let (op, dtype) = (ReduceOp::Sum, DataType::Int32);
        if stages == BCAST {
            build_bcast(&mut cx, cfg, &comm, 0, &bufs, &deps);
        } else if stages == REDUCE {
            build_reduce(&mut cx, cfg, &comm, 0, &bufs, op, dtype, &deps);
        } else {
            build_allreduce(&mut cx, cfg, &comm, &bufs, op, dtype, &deps);
        }
        (b.build(), bufs)
    }

    #[test]
    fn a_bcast_step_issues_sb_then_the_next_ib_then_the_join() {
        // 3 nodes of 3 ranks, 4 segments of 64 B (the last one short).
        let preset = mini(3, 3);
        let topo = preset.topology;
        let cfg = HanConfig::default().with_fs(64);
        let (prog, bufs) = build(&preset, &cfg, BCAST, 200);
        // The segment a range of `rank`'s user buffer lies in.
        let seg_of = |rank: u32, r: BufRange| {
            let buf = bufs[rank as usize];
            (r.off >= buf.off && r.off + r.len <= buf.off + buf.len)
                .then(|| ((r.off - buf.off) / 64) as usize)
        };
        // Each op as its phase and, where it touches a user buffer, the
        // segment; runs of one phase fold into one entry.
        let mut runs: Vec<(&str, Vec<usize>)> = Vec::new();
        for (id, op) in prog.ops.iter().enumerate() {
            let (phase, seg) = match prog.kind(OpId(id as u32)) {
                OpKind::Nop => ("join", None),
                OpKind::Send { msg } | OpKind::Recv { msg } => {
                    let m = prog.msg(msg);
                    let inter = topo.node_of(m.src as usize) != topo.node_of(m.dst as usize);
                    let seg = m.payload.and_then(|(src, _)| seg_of(m.src, src));
                    (if inter { "ib" } else { "sb" }, seg)
                }
                OpKind::Copy { src, dst } => ("sb", seg_of(op.rank, dst).or(seg_of(op.rank, src))),
                OpKind::CrossCopy { from, src, dst } => {
                    ("sb", seg_of(op.rank, dst).or(seg_of(from, src)))
                }
                _ => ("sb", None),
            };
            if runs.last().is_none_or(|(p, _)| *p != phase) {
                runs.push((phase, Vec::new()));
            }
            let segs = &mut runs.last_mut().unwrap().1;
            if let Some(s) = seg.filter(|s| !segs.contains(s)) {
                segs.push(s);
            }
        }
        // Step 0 is ib(0) and its join; step t issues sb(t-1), then
        // ib(t), then the join; the last step sb(3) and its join.
        let mut want = vec![("ib", vec![0]), ("join", vec![])];
        for i in 0..4 {
            want.push(("sb", vec![i]));
            if i + 1 < 4 {
                want.push(("ib", vec![i + 1]));
            }
            want.push(("join", vec![]));
        }
        assert_eq!(runs, want);
    }

    #[test]
    fn every_leader_joins_once_per_model_step() {
        // Rank 0 leads node 0, and each node's first rank leads it.
        let preset = mini(3, 3);
        let topo = preset.topology;
        let cfg = HanConfig::default().with_fs(64);
        for stages in [BCAST, REDUCE, ALLREDUCE] {
            for u in 1..=6 {
                let (bytes, levels) = (64 * u as u64, preset.level_params());
                let dtype = if stages == BCAST {
                    DataType::Uint8
                } else {
                    DataType::Int32
                };
                assert_eq!(cfg.segmentation(dtype, bytes, &preset.node, &levels).1, u);
                let (prog, _) = build(&preset, &cfg, stages, bytes);
                let mut joins = vec![0; topo.world_size()];
                for (id, op) in prog.ops.iter().enumerate() {
                    if prog.kind(OpId(id as u32)) == OpKind::Nop {
                        joins[op.rank as usize] += 1;
                    }
                }
                for node in 0..topo.nodes() {
                    for (j, r) in topo.node_ranks(node).enumerate() {
                        let want = if j == 0 { steps(stages, u) } else { 0 };
                        assert_eq!(joins[r], want, "{stages:?} u={u} rank {r}");
                    }
                }
            }
        }
    }
}
