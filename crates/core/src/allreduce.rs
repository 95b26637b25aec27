//! Hierarchical task-pipelined `MPI_Allreduce` (paper Fig. 5) and
//! `MPI_Reduce`, and their reduction phases.
//!
//! Four phases per segment — `sr` (intra-node reduce), `ir` (inter-node
//! reduce), `ib` (inter-node broadcast), `sb` (intra-node broadcast) —
//! with the inter-node allreduce deliberately broken into explicit `ir` +
//! `ib` "to further increase the pipeline" (section III-B), using the same
//! algorithm and root so the two overlap on opposite directions of the
//! full-duplex network (Fig. 6).
//!
//! [`build_allreduce`] runs the stage list [`ALLREDUCE`] through the one
//! HAN pipeline ([`crate::pipeline`]), as [`crate::bcast`] runs Bcast's:
//! step `t` issues `sr(t)`, `ir(t-1)`, `ib(t-2)`, `sb(t-3)`, then a join
//! op on every leader. The leader task sequence is `sr(0), irsr(1),
//! ibirsr(2), sbibirsr(3..u-1), sbibir, sbib, sb` — a 4-stage software
//! pipeline. Non-leaders run the `sbsr` chain. [`build_reduce`] runs
//! [`REDUCE`], the first two stages, `sr(0), irsr(1..u-1), ir`, toward
//! the root's node — the paper's extension of the design to "other
//! collective operations … divided into a serial of tasks".
//!
//! This module also holds the reduction phases the pipeline and the task
//! programs share: `ir` ([`inter_reduce`]) and `sr` ([`ascend_reduce`]).

use crate::config::HanConfig;
use crate::levels::{GroupPlan, NodeSplit};
use crate::pipeline::{pipeline, ALLREDUCE, REDUCE};
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

/// Build the HAN allreduce (in place over `bufs`, commutative `op`): the
/// four stages of [`ALLREDUCE`], with the same root for `ir` and `ib`
/// (paper section III-B).
pub fn build_allreduce(
    cx: &mut BuildCtx,
    cfg: &HanConfig,
    comm: &Comm,
    bufs: &[BufRange],
    op: ReduceOp,
    dtype: DataType,
    deps: &Frontier,
) -> Frontier {
    assert_eq!(bufs.len(), comm.size());
    if comm.size() == 1 {
        return deps.clone();
    }
    let split = NodeSplit::node(comm, &cx.topo);
    pipeline(cx, cfg, ALLREDUCE, &split, bufs, dtype, Some(op), deps)
}

/// Build the HAN `MPI_Reduce` to comm-local `root`: the two stages of
/// [`REDUCE`], `sr` and `ir`, with the root leading its node and the
/// up-communicator (in place at the root; interior buffers clobbered).
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
    assert_eq!(bufs.len(), comm.size());
    if comm.size() == 1 {
        return deps.clone();
    }
    let split = NodeSplit::rooted(comm, &cx.topo, comm.world_rank(root));
    pipeline(cx, cfg, REDUCE, &split, bufs, dtype, Some(op), deps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_machine::{mini, Flavor, Machine};
    use han_mpi::{execute, execute_seeded, ExecOpts, Memory, Program, Report};

    /// Build over the world of `preset` with `bytes` per rank through
    /// `coll`, which gets the context, the world, the buffers and no
    /// dependencies.
    fn build_with(
        preset: &han_machine::MachinePreset,
        bytes: u64,
        coll: impl FnOnce(&mut BuildCtx, &Comm, &[BufRange], &Frontier),
    ) -> (Program, Vec<BufRange>) {
        let n = preset.topology.world_size();
        let mut b = ProgramBuilder::new(n);
        let bufs = b.alloc_all(bytes);
        coll(
            &mut BuildCtx::new(&mut b, preset),
            &Comm::world(n),
            &bufs,
            &Frontier::empty(n),
        );
        (b.build(), bufs)
    }

    fn build(
        preset: &han_machine::MachinePreset,
        cfg: &HanConfig,
        bytes: u64,
    ) -> (Program, Vec<BufRange>) {
        build_with(preset, bytes, |cx, comm, bufs, deps| {
            build_allreduce(cx, cfg, comm, bufs, ReduceOp::Sum, DataType::Int32, deps);
        })
    }

    /// Execute `prog` with element `i` of rank `r` seeded to `7r + i`
    /// (Int32); returns the report, the memory and the expected sums.
    fn run_summing(
        preset: &han_machine::MachinePreset,
        prog: &Program,
        bufs: &[BufRange],
    ) -> (Report, Memory, Vec<u8>) {
        let n = bufs.len();
        let nelem = bufs[0].len as usize / 4;
        let (rep, mem) = execute_seeded(
            &mut Machine::from_preset(preset),
            prog,
            &ExecOpts::timing(Flavor::OpenMpi.p2p()),
            |mm| {
                for r in 0..n {
                    let vals: Vec<u8> = (0..nelem)
                        .flat_map(|i| ((r * 7 + i) as i32).to_le_bytes())
                        .collect();
                    mm.write(r, bufs[r], &vals);
                }
            },
        );
        let expect = (0..nelem)
            .flat_map(|i| {
                let s: i32 = (0..n).map(|r| (r * 7 + i) as i32).sum();
                s.to_le_bytes()
            })
            .collect();
        (rep, mem, expect)
    }

    fn check_sum(cfg: &HanConfig, nodes: usize, ppn: usize, bytes: u64) {
        let preset = mini(nodes, ppn);
        let (prog, bufs) = build(&preset, cfg, bytes);
        let (_, mem, expect) = run_summing(&preset, &prog, &bufs);
        for r in 0..nodes * ppn {
            assert_eq!(
                mem.read(r, bufs[r]),
                expect.as_slice(),
                "cfg {cfg} rank {r} ({nodes}x{ppn}, {bytes}B)"
            );
        }
    }

    #[test]
    fn reduce_pipeline_sums() {
        use han_machine::mini3;
        // Root sums on two-level, one-rank-per-node, single-node and
        // three-level machines, from the first, a middle and the last
        // rank. `mini(6,1)` also pins its makespans (ps) per size.
        let cases = [
            (mini(3, 2), None),
            (mini(6, 1), Some([4_014_199, 5_244_796, 8_893_990])),
            (mini(1, 6), None),
            (mini3(2, 2, 2), None),
        ];
        let cfg = HanConfig::default().with_fs(32);
        // Sizes giving 1, 2 and 5 segments.
        let sizes = [(16u64, 1), (64, 2), (160, 5)];
        for (preset, pinned) in &cases {
            let n = preset.topology.world_size();
            for root in [0, (n - 1) / 2, n - 1] {
                for (si, &(bytes, segs)) in sizes.iter().enumerate() {
                    let case = format!(
                        "{}{:?} root {root} {bytes} B",
                        preset.name,
                        preset.topology.levels()
                    );
                    let (prog, bufs) = build_with(preset, bytes, |cx, comm, bufs, deps| {
                        let (_, u) = cfg.segmentation(DataType::Int32, bytes, &cx.node, &cx.levels);
                        assert_eq!(u, segs, "{case}");
                        let (op, dtype) = (ReduceOp::Sum, DataType::Int32);
                        build_reduce(cx, &cfg, comm, root, bufs, op, dtype, deps);
                    });
                    let (rep, mem, expect) = run_summing(preset, &prog, &bufs);
                    assert_eq!(mem.read(root, bufs[root]), expect.as_slice(), "{case}");
                    if let Some(ps) = pinned {
                        assert_eq!(rep.makespan.as_ps(), ps[si], "{case}");
                    }
                }
            }
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
