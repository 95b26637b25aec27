//! Hierarchical task-pipelined `MPI_Allreduce` (paper Fig. 5).
//!
//! Four phases per segment — `sr` (intra-node reduce), `ir` (inter-node
//! reduce), `ib` (inter-node broadcast), `sb` (intra-node broadcast) —
//! with the inter-node allreduce deliberately broken into explicit `ir` +
//! `ib` "to further increase the pipeline" (section III-B), using the same
//! algorithm and root so the two overlap on opposite directions of the
//! full-duplex network (Fig. 6).
//!
//! The leader task sequence is `sr(0), irsr(1), ibirsr(2),
//! sbibirsr(3..u-1), sbibir, sbib, sb` — a 4-stage software pipeline.
//! Non-leaders run the `sbsr` chain. As in [`crate::bcast`], each
//! pipeline step ends in an explicit join op on every leader.

use crate::bcast::{descend_bcast, inter_bcast};
use crate::config::HanConfig;
use crate::levels::{GroupPlan, NodeSplit};
use han_colls::stack::BuildCtx;
use han_colls::{Frontier, InterModule, IntraModule, Libnbc, Sm, Solo};
use han_machine::LevelVec;
use han_mpi::{BufRange, Comm, DataType, ProgramBuilder, ReduceOp};

/// Dispatch an inter-node reduce (to up-local `root`) through the
/// configured submodule.
#[allow(clippy::too_many_arguments)]
pub(crate) fn inter_reduce(
    b: &mut ProgramBuilder,
    cfg: &HanConfig,
    up: &Comm,
    root: usize,
    bufs: &[BufRange],
    deps: &Frontier,
    op: ReduceOp,
    dtype: DataType,
) -> Frontier {
    match cfg.imod {
        InterModule::Libnbc => Libnbc.ireduce(b, up, root, bufs, deps, op, dtype),
        InterModule::Adapt => cfg.adapt().ireduce(b, up, root, bufs, deps, op, dtype),
    }
}

/// Flat shared-memory reduce (to local 0) through an explicit submodule —
/// the leaf operation of the level recursion.
#[allow(clippy::too_many_arguments)]
pub(crate) fn flat_reduce(
    b: &mut ProgramBuilder,
    smod: IntraModule,
    node: &han_machine::NodeParams,
    low: &Comm,
    bufs: &[BufRange],
    deps: &Frontier,
    op: ReduceOp,
    dtype: DataType,
) -> Frontier {
    match smod {
        IntraModule::Sm => Sm.reduce(b, low, node, 0, bufs, deps, op, dtype),
        IntraModule::Solo => Solo.reduce(b, low, node, 0, bufs, deps, op, dtype),
    }
}

/// Reduce within a group toward its local rank 0, following the group's
/// [`GroupPlan`] — the ascending mirror of
/// [`crate::bcast::descend_bcast`]: each subgroup first folds its own
/// partial down to its leader, then the leaders run a flat
/// `smod_at(level)` reduce across the subgroups. On depth-2
/// topologies this collapses to exactly the two-level intra reduce.
#[allow(clippy::too_many_arguments)]
pub(crate) fn ascend_reduce(
    b: &mut ProgramBuilder,
    cfg: &HanConfig,
    node: &han_machine::NodeParams,
    levels: &LevelVec,
    plan: &GroupPlan,
    gc: &Comm,
    bufs: &[BufRange],
    deps: &Frontier,
    op: ReduceOp,
    dtype: DataType,
) -> Frontier {
    let (level, leaders, leader_locals, subs) = match plan {
        GroupPlan::Flat { level } => {
            let lnode = node.at_level(levels.get(*level));
            return flat_reduce(b, cfg.smod_at(*level), &lnode, gc, bufs, deps, op, dtype);
        }
        GroupPlan::Split {
            level,
            leaders,
            leader_locals,
            subs,
        } => (*level, leaders, leader_locals, subs),
    };
    let mut out = Frontier::empty(gc.size());
    let mut ldeps = Frontier::empty(leaders.size());
    for (si, sub) in subs.iter().enumerate() {
        let sub_bufs: Vec<BufRange> = sub.locals.iter().map(|&l| bufs[l]).collect();
        let f = ascend_reduce(
            b,
            cfg,
            node,
            levels,
            &sub.plan,
            &sub.comm,
            &sub_bufs,
            &deps.project(&sub.locals),
            op,
            dtype,
        );
        // The subgroup's partial (at its leader) feeds the cross-subgroup
        // reduce; non-leader members are done after their own phase.
        ldeps.set(si, f.get(0));
        for (j, &l) in sub.locals.iter().enumerate().skip(1) {
            out.set(l, f.get(j));
        }
    }
    let leader_bufs: Vec<BufRange> = leader_locals.iter().map(|&l| bufs[l]).collect();
    let lnode = node.at_level(levels.get(level));
    let f_lead = flat_reduce(
        b,
        cfg.smod_at(level),
        &lnode,
        leaders,
        &leader_bufs,
        &ldeps,
        op,
        dtype,
    );
    for (i, &l) in leader_locals.iter().enumerate() {
        out.set(l, f_lead.get(i));
    }
    out
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
    let split = NodeSplit::node(comm, &cx.topo);
    let up = &split.up;
    let up_root = 0; // same root for ir and ib (paper section III-B)
    let nl = up.size();

    let node = cx.node;
    let levels = cx.levels;
    let (fs, u) = cfg.segmentation(dtype, bufs[0].len, &node, &levels);

    let mut boundary = deps.project(&split.up_locals);
    let mut child_chain = deps.clone();

    // Per-segment phase completions needed by the next phase, over up.
    let mut sr_f: Vec<Option<Frontier>> = vec![None; u];
    let mut ir_f: Vec<Option<Frontier>> = vec![None; u];
    let mut ib_f: Vec<Option<Frontier>> = vec![None; u];
    // Scratch reused by every step: ops issued in the step, per leader and
    // per non-leader rank, and one phase's buffers and dependencies.
    let mut issued_leader = Frontier::empty(nl);
    let mut issued_child = Frontier::empty(n);
    let mut seg_bufs: Vec<BufRange> = Vec::new();
    let mut sub_deps = Frontier::default();
    let mut up_deps = Frontier::default();

    for t in 0..u + 3 {
        issued_leader.reset(nl);
        issued_child.reset(n);

        // sr(t): intra-node reduce of segment t.
        if t < u {
            let mut sr = Frontier::empty(nl);
            for (ni, lc) in split.low.iter().enumerate() {
                let locals = &split.low_locals[ni];
                seg_bufs.clear();
                seg_bufs.extend(locals.iter().map(|&l| bufs[l].segment(fs, t)));
                sub_deps.reset(lc.size());
                sub_deps.set(0, boundary.get(ni));
                for (j, &l) in locals.iter().enumerate().skip(1) {
                    sub_deps.set(j, child_chain.get(l));
                }
                let f = ascend_reduce(
                    cx.b,
                    cfg,
                    &node,
                    &levels,
                    &split.plans[ni],
                    lc,
                    &seg_bufs,
                    &sub_deps,
                    op,
                    dtype,
                );
                sr.set(ni, f.get(0));
                issued_leader.extend(ni, f.get(0));
                for (j, &l) in locals.iter().enumerate().skip(1) {
                    issued_child.extend(l, f.get(j));
                }
            }
            sr_f[t] = Some(sr);
        }

        // ir(t-1): inter-node reduce of segment t-1 to the up-root.
        if t >= 1 && t - 1 < u {
            let i = t - 1;
            seg_bufs.clear();
            seg_bufs.extend(split.up_locals.iter().map(|&l| bufs[l].segment(fs, i)));
            let prev = sr_f[i].take().expect("sr before ir");
            up_deps.reset(nl);
            for ul in 0..nl {
                up_deps.set(ul, boundary.get(ul));
                up_deps.extend(ul, prev.get(ul));
            }
            let f = inter_reduce(cx.b, cfg, up, up_root, &seg_bufs, &up_deps, op, dtype);
            for ul in 0..nl {
                issued_leader.extend(ul, f.get(ul));
            }
            ir_f[i] = Some(f);
        }

        // ib(t-2): inter-node broadcast of the reduced segment t-2.
        if t >= 2 && t - 2 < u {
            let i = t - 2;
            seg_bufs.clear();
            seg_bufs.extend(split.up_locals.iter().map(|&l| bufs[l].segment(fs, i)));
            let prev = ir_f[i].take().expect("ir before ib");
            up_deps.reset(nl);
            for ul in 0..nl {
                up_deps.set(ul, boundary.get(ul));
                up_deps.extend(ul, prev.get(ul));
            }
            let f = inter_bcast(cx.b, cfg, up, up_root, &seg_bufs, &up_deps, i as u64);
            for ul in 0..nl {
                issued_leader.extend(ul, f.get(ul));
            }
            ib_f[i] = Some(f);
        }

        // sb(t-3): intra-node broadcast of the final segment t-3.
        if t >= 3 && t - 3 < u {
            let i = t - 3;
            let prev = ib_f[i].take().expect("ib before sb");
            for (ni, lc) in split.low.iter().enumerate() {
                let locals = &split.low_locals[ni];
                seg_bufs.clear();
                seg_bufs.extend(locals.iter().map(|&l| bufs[l].segment(fs, i)));
                sub_deps.reset(lc.size());
                sub_deps.set(0, boundary.get(ni));
                sub_deps.extend(0, prev.get(ni));
                for (j, &l) in locals.iter().enumerate().skip(1) {
                    sub_deps.set(j, child_chain.get(l));
                }
                let f = descend_bcast(
                    cx.b,
                    cfg,
                    &node,
                    &levels,
                    &split.plans[ni],
                    lc,
                    &seg_bufs,
                    &sub_deps,
                );
                issued_leader.extend(ni, f.get(0));
                for (j, &l) in locals.iter().enumerate().skip(1) {
                    issued_child.extend(l, f.get(j));
                }
                // Leader's task joins the whole node's sb (bounce pool
                // flow control), as in bcast.
                for j in 1..locals.len() {
                    issued_leader.extend(ni, f.get(j));
                }
            }
        }

        // Task boundary joins.
        for ul in 0..nl {
            let w = up.world_rank(ul);
            let j = if issued_leader.get(ul).is_empty() {
                // Degenerate (u < 3 drains some steps early): carry over.
                cx.b.nop(w, boundary.get(ul))
            } else {
                cx.b.nop(w, issued_leader.get(ul))
            };
            boundary.set(ul, &[j]);
        }
        for l in 0..n {
            if !issued_child.get(l).is_empty() {
                child_chain.set(l, issued_child.get(l));
            }
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
    use han_machine::{mini, Flavor, Machine};
    use han_mpi::{execute, execute_seeded, ExecOpts};

    fn build(
        preset: &han_machine::MachinePreset,
        cfg: &HanConfig,
        bytes: u64,
    ) -> (han_mpi::Program, Vec<BufRange>) {
        let n = preset.topology.world_size();
        let comm = Comm::world(n);
        let mut b = ProgramBuilder::new(n);
        let bufs = b.alloc_all(bytes);
        let mut cx = BuildCtx::new(&mut b, preset);
        build_allreduce(
            &mut cx,
            cfg,
            &comm,
            &bufs,
            ReduceOp::Sum,
            DataType::Int32,
            &Frontier::empty(n),
        );
        (b.build(), bufs)
    }

    fn check_sum(cfg: &HanConfig, nodes: usize, ppn: usize, bytes: u64) {
        let preset = mini(nodes, ppn);
        let n = nodes * ppn;
        let (prog, bufs) = build(&preset, cfg, bytes);
        let mut m = Machine::from_preset(&preset);
        let o = ExecOpts::timing(Flavor::OpenMpi.p2p());
        let nelem = (bytes / 4) as usize;
        let bufs2 = bufs.clone();
        let (_, mem) = execute_seeded(&mut m, &prog, &o, |mm| {
            for r in 0..n {
                let vals: Vec<u8> = (0..nelem)
                    .flat_map(|i| ((r * 7 + i) as i32).to_le_bytes())
                    .collect();
                mm.write(r, bufs2[r], &vals);
            }
        });
        let expect: Vec<u8> = (0..nelem)
            .flat_map(|i| {
                let s: i32 = (0..n).map(|r| (r * 7 + i) as i32).sum();
                s.to_le_bytes()
            })
            .collect();
        for r in 0..n {
            assert_eq!(
                mem.read(r, bufs[r]),
                expect.as_slice(),
                "cfg {cfg} rank {r} ({nodes}x{ppn}, {bytes}B)"
            );
        }
    }

    #[test]
    fn sums_across_configs() {
        use han_colls::{InterAlg, InterModule, IntraModule};
        for imod in InterModule::ALL {
            for smod in IntraModule::ALL {
                let cfg = HanConfig {
                    fs: 64,
                    imod,
                    smod,
                    ..HanConfig::default()
                };
                check_sum(&cfg, 3, 3, 256); // 4 segments: full pipeline
            }
        }
        for alg in InterAlg::ALL {
            let cfg = HanConfig {
                fs: 48,
                ibalg: alg,
                iralg: alg,
                irs: Some(16),
                ibs: Some(16),
                ..HanConfig::default()
            };
            check_sum(&cfg, 4, 2, 400);
        }
    }

    #[test]
    fn routed_configs_sum() {
        // The reduce direction always stays on `iralg`; only the ib phase
        // switches trees per segment. Sums must be exact either way.
        use han_colls::{InterAlg, InterModule};
        for alt in InterAlg::ALL {
            if alt == InterAlg::Binomial {
                continue;
            }
            let cfg = HanConfig {
                fs: 48,
                imod: InterModule::Adapt,
                ibalg: InterAlg::Binomial,
                iralg: InterAlg::Binomial,
                ..HanConfig::default()
            }
            .with_route(2, alt);
            check_sum(&cfg, 4, 2, 480); // 10 segments, both route windows
        }
    }

    #[test]
    fn short_pipelines_drain_correctly() {
        // u = 1 and u = 2 exercise the drain-only steps.
        let cfg = HanConfig::default().with_fs(1 << 20);
        check_sum(&cfg, 2, 2, 64); // u = 1
        let cfg = HanConfig::default().with_fs(64);
        check_sum(&cfg, 2, 2, 128); // u = 2
    }

    #[test]
    fn ir_ib_overlap_helps() {
        // Breaking inter-node allreduce into ir+ib and pipelining must beat
        // the unsegmented variant for large messages (paper section III-B).
        let preset = mini(4, 4);
        let bytes = 8 << 20;
        let time_of = |fs: u64| {
            let cfg = HanConfig {
                fs,
                smod: han_colls::IntraModule::Solo,
                ..HanConfig::default()
            };
            let (prog, _) = build(&preset, &cfg, bytes);
            let mut m = Machine::from_preset(&preset);
            execute(&mut m, &prog, &ExecOpts::timing(Flavor::OpenMpi.p2p())).makespan
        };
        let pipelined = time_of(512 * 1024);
        let monolithic = time_of(bytes);
        assert!(
            pipelined.as_ps() * 3 < monolithic.as_ps() * 2,
            "pipelined {pipelined} should be well under monolithic {monolithic}"
        );
    }

    #[test]
    fn single_rank_trivial() {
        let preset = mini(1, 1);
        let (prog, _) = build(&preset, &HanConfig::default(), 64);
        assert_eq!(prog.len(), 0);
    }
}
