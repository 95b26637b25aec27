//! Hierarchical task-pipelined `MPI_Bcast` (paper Fig. 1) and its phases.
//!
//! [`build_bcast`] runs the stage list [`BCAST`] through the one HAN
//! pipeline ([`crate::pipeline`]): step `t` issues `sb(t-1)`, then
//! `ib(t)`, then a join op on each node leader. Node leaders execute
//! `ib(0), sbib(1), …, sbib(u-1), sb(u-1)`; every other rank executes
//! `sb(0) … sb(u-1)`. A task completes on a leader when *all* of its
//! component operations complete — `sbib(i)` joins the intra-node
//! broadcast of segment `i-1` (including the consumers' copies, the
//! shared bounce pool's flow control) with the inter-node broadcast of
//! segment `i` — and the next task starts from that join. The autotuner
//! times individual tasks (Figs. 2 and 3) through standalone task
//! programs ([`crate::task`]), not through these joins.
//!
//! This module also holds the broadcast phases the pipeline and the task
//! programs share: `ib` ([`inter_bcast`]) and `sb` ([`descend_bcast`]).

use crate::config::HanConfig;
use crate::levels::{GroupPlan, NodeSplit};
use crate::pipeline::{pipeline, BCAST};
use han_colls::stack::BuildCtx;
use han_colls::{Frontier, InterModule, IntraModule, Libnbc, Sm, Solo};
use han_machine::LevelVec;
use han_mpi::{BufRange, Comm, DataType, ProgramBuilder};

/// Dispatch an inter-node broadcast of HAN segment `seg` through the
/// configured submodule. ADAPT honours the config's segment routing:
/// routed segments ride the alternate tree (see
/// [`HanConfig::adapt_for_segment`]); Libnbc and route-less configs are
/// segment-index-oblivious.
pub(crate) fn inter_bcast(
    b: &mut ProgramBuilder,
    cfg: &HanConfig,
    up: &Comm,
    root: usize,
    bufs: &[BufRange],
    deps: &Frontier,
    seg: u64,
) -> Frontier {
    match cfg.imod {
        InterModule::Libnbc => Libnbc.ibcast(b, up, root, bufs, deps),
        InterModule::Adapt => cfg.adapt_for_segment(seg).ibcast(b, up, root, bufs, deps),
    }
}

/// Flat shared-memory broadcast (root = local 0) through an explicit
/// submodule — the leaf operation of the level recursion.
pub(crate) fn flat_bcast(
    b: &mut ProgramBuilder,
    smod: IntraModule,
    node: &han_machine::NodeParams,
    low: &Comm,
    bufs: &[BufRange],
    deps: &Frontier,
) -> Frontier {
    match smod {
        IntraModule::Sm => Sm.bcast(b, low, node, 0, bufs, deps),
        IntraModule::Solo => Solo.bcast(b, low, node, 0, bufs, deps),
    }
}

/// Broadcast within a group whose local rank 0 holds the data, following
/// the group's [`GroupPlan`] through the remaining levels.
///
/// At the innermost level this is exactly the flat submodule broadcast of
/// the two-level design — so on depth-2 topologies the recursion is
/// structurally identical to the paper's intra phase. Above it, the
/// subgroup leaders run a flat `smod_at(level)` broadcast, and each
/// subgroup recurses: the segment frontier chains leader-first through
/// the ordered level list, level by level.
#[allow(clippy::too_many_arguments)]
pub(crate) fn descend_bcast(
    b: &mut ProgramBuilder,
    cfg: &HanConfig,
    node: &han_machine::NodeParams,
    levels: &LevelVec,
    plan: &GroupPlan,
    gc: &Comm,
    bufs: &[BufRange],
    deps: &Frontier,
) -> Frontier {
    let (level, leaders, leader_locals, subs) = match plan {
        GroupPlan::Flat { level } => {
            let lnode = node.at_level(levels.get(*level));
            return flat_bcast(b, cfg.smod_at(*level), &lnode, gc, bufs, deps);
        }
        GroupPlan::Split {
            level,
            leaders,
            leader_locals,
            subs,
        } => (*level, leaders, leader_locals, subs),
    };
    // Cross-subgroup hop among the leaders (gc-local 0 leads subgroup 0,
    // so the leader comm's root is the data holder).
    let leader_bufs: Vec<BufRange> = leader_locals.iter().map(|&l| bufs[l]).collect();
    let lnode = node.at_level(levels.get(level));
    let f_lead = flat_bcast(
        b,
        cfg.smod_at(level),
        &lnode,
        leaders,
        &leader_bufs,
        &deps.project(leader_locals),
    );
    // Recurse into each subgroup from its freshly supplied leader.
    let mut out = Frontier::empty(gc.size());
    for (si, sub) in subs.iter().enumerate() {
        let sub_bufs: Vec<BufRange> = sub.locals.iter().map(|&l| bufs[l]).collect();
        let mut sdeps = deps.project(&sub.locals);
        sdeps.set(0, f_lead.get(si));
        let f = descend_bcast(
            b, cfg, node, levels, &sub.plan, &sub.comm, &sub_bufs, &sdeps,
        );
        for (j, &l) in sub.locals.iter().enumerate() {
            out.set(l, f.get(j));
        }
    }
    out
}

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
    let split = NodeSplit::rooted(comm, &cx.topo, comm.world_rank(root));
    pipeline(cx, cfg, BCAST, &split, bufs, DataType::Uint8, None, deps)
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
        root: usize,
    ) -> (han_mpi::Program, Vec<BufRange>) {
        let n = preset.topology.world_size();
        let comm = Comm::world(n);
        let mut b = ProgramBuilder::new(n);
        let bufs = b.alloc_all(bytes);
        let mut cx = BuildCtx::new(&mut b, preset);
        build_bcast(&mut cx, cfg, &comm, root, &bufs, &Frontier::empty(n));
        (b.build(), bufs)
    }

    fn check_delivery(cfg: &HanConfig, nodes: usize, ppn: usize, bytes: u64, root: usize) {
        let preset = mini(nodes, ppn);
        let (prog, bufs) = build(&preset, cfg, bytes, root);
        let mut m = Machine::from_preset(&preset);
        let o = ExecOpts::timing(Flavor::OpenMpi.p2p());
        let data: Vec<u8> = (0..bytes).map(|i| (i % 251) as u8).collect();
        let root_buf = bufs[root];
        let (_, mem) = execute_seeded(&mut m, &prog, &o, |mm| mm.write(root, root_buf, &data));
        for r in 0..nodes * ppn {
            assert_eq!(
                mem.read(r, bufs[r]),
                data.as_slice(),
                "cfg {cfg} rank {r} root {root}"
            );
        }
    }

    #[test]
    fn delivers_across_configs() {
        use han_colls::{InterAlg, InterModule, IntraModule};
        for imod in InterModule::ALL {
            for smod in IntraModule::ALL {
                let cfg = HanConfig {
                    fs: 64,
                    imod,
                    smod,
                    ..HanConfig::default()
                };
                check_delivery(&cfg, 3, 3, 200, 0); // multi-segment, uneven tail
            }
        }
        for alg in InterAlg::ALL {
            let cfg = HanConfig {
                fs: 128,
                ibalg: alg,
                iralg: alg,
                ibs: Some(32),
                ..HanConfig::default()
            };
            check_delivery(&cfg, 4, 2, 500, 0);
        }
    }

    #[test]
    fn non_leader_root_works() {
        // Root 5 is not the lowest rank of its node.
        check_delivery(&HanConfig::default().with_fs(64), 3, 3, 150, 5);
    }

    #[test]
    fn routed_configs_deliver() {
        // Segment routing splits the ib traffic across two tree shapes;
        // every (primary, alternate) pairing must still deliver every byte.
        use han_colls::{InterAlg, InterModule};
        for pri_alg in InterAlg::ALL {
            for alt in InterAlg::ALL {
                if alt == pri_alg {
                    continue;
                }
                let cfg = HanConfig {
                    fs: 64,
                    imod: InterModule::Adapt,
                    ibalg: pri_alg,
                    ..HanConfig::default()
                }
                .with_route(3, alt);
                // 9 segments: both the primary window (i%8 < 3) and the
                // alternate window exercised, plus an uneven tail.
                check_delivery(&cfg, 4, 2, 550, 0);
            }
        }
        // pri = 0 sends everything down the alternate tree.
        let all_alt = HanConfig {
            fs: 64,
            imod: InterModule::Adapt,
            ibalg: InterAlg::Binomial,
            ..HanConfig::default()
        }
        .with_route(0, InterAlg::Chain);
        check_delivery(&all_alt, 3, 3, 500, 4);
    }

    #[test]
    fn pipelining_beats_sequential_phases() {
        // The same message broadcast with one giant segment (no pipeline)
        // must be slower than with segments (overlapped ib/sb), for a
        // message large enough to amortize per-task overhead.
        let preset = mini(4, 8);
        let bytes = 8 << 20;
        let time_of = |fs: u64| {
            let cfg = HanConfig::default().with_fs(fs);
            let (prog, _) = build(&preset, &cfg, bytes, 0);
            let mut m = Machine::from_preset(&preset);
            execute(&mut m, &prog, &ExecOpts::timing(Flavor::OpenMpi.p2p())).makespan
        };
        let pipelined = time_of(512 * 1024);
        let monolithic = time_of(bytes);
        assert!(
            pipelined < monolithic,
            "pipelined {pipelined} should beat monolithic {monolithic}"
        );
    }

    #[test]
    fn single_rank_comm_is_trivial() {
        let preset = mini(1, 1);
        let (prog, _) = build(&preset, &HanConfig::default(), 1024, 0);
        assert_eq!(prog.len(), 0);
    }
}
