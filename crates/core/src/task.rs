//! Standalone task programs for the autotuner's benchmarks.
//!
//! The paper's key idea is to benchmark *tasks* rather than whole
//! collectives (section III-A2): `ib(0)` and `sb(0)` are timed directly;
//! composite tasks like `sbib` or `sbibirsr` are timed by issuing their
//! component operations concurrently (each on its own segment-sized
//! buffer) and joining them per node leader — optionally with per-rank
//! start skews to "simulate the different starting time" left by previous
//! tasks (the red bars of Fig. 2).
//!
//! A task is described by a [`TaskSpec`] — which of the four phase
//! components (`sb`, `ib`, `ir`, `sr`) it contains — which covers every
//! task in the paper's Bcast (3 kinds) and Allreduce (8 kinds: `sr`, `sb`,
//! `irsr`, `ibirsr`, `sbibirsr`, `sbibir`, `sbib`, `sbsr`) designs plus
//! the overlap probes of Figs. 2 and 6 (`ib∥sb`, `ib∥ir`).

use crate::allreduce::{ascend_reduce, inter_reduce};
use crate::bcast::{descend_bcast, inter_bcast};
use crate::config::HanConfig;
use crate::levels::NodeSplit;
use han_colls::stack::BuildCtx;
use han_colls::Frontier;
use han_machine::MachinePreset;
use han_mpi::{BufRange, Comm, DataType, OpId, Program, ProgramBuilder, ReduceOp};

/// Which phase components a task contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TaskSpec {
    pub sb: bool,
    pub ib: bool,
    pub ir: bool,
    pub sr: bool,
}

impl TaskSpec {
    pub const IB: TaskSpec = TaskSpec {
        ib: true,
        ..TaskSpec::NONE
    };
    pub const SB: TaskSpec = TaskSpec {
        sb: true,
        ..TaskSpec::NONE
    };
    pub const SR: TaskSpec = TaskSpec {
        sr: true,
        ..TaskSpec::NONE
    };
    pub const IR: TaskSpec = TaskSpec {
        ir: true,
        ..TaskSpec::NONE
    };
    pub const SBIB: TaskSpec = TaskSpec {
        sb: true,
        ib: true,
        ..TaskSpec::NONE
    };
    pub const IBIR: TaskSpec = TaskSpec {
        ib: true,
        ir: true,
        ..TaskSpec::NONE
    };
    pub const IRSR: TaskSpec = TaskSpec {
        ir: true,
        sr: true,
        ..TaskSpec::NONE
    };
    pub const IBIRSR: TaskSpec = TaskSpec {
        ib: true,
        ir: true,
        sr: true,
        ..TaskSpec::NONE
    };
    pub const SBIBIR: TaskSpec = TaskSpec {
        sb: true,
        ib: true,
        ir: true,
        ..TaskSpec::NONE
    };
    pub const SBIBIRSR: TaskSpec = TaskSpec {
        sb: true,
        ib: true,
        ir: true,
        sr: true,
    };
    pub const SBSR: TaskSpec = TaskSpec {
        sb: true,
        sr: true,
        ..TaskSpec::NONE
    };
    const NONE: TaskSpec = TaskSpec {
        sb: false,
        ib: false,
        ir: false,
        sr: false,
    };

    /// Paper-style task name, e.g. `sbibirsr`.
    pub fn name(&self) -> String {
        let mut s = String::new();
        if self.sb {
            s.push_str("sb");
        }
        if self.ib {
            s.push_str("ib");
        }
        if self.ir {
            s.push_str("ir");
        }
        if self.sr {
            s.push_str("sr");
        }
        if s.is_empty() {
            s.push_str("nop");
        }
        s
    }
}

/// A built task program plus the observation points the tuner reads.
#[derive(Debug)]
pub struct TaskProgram {
    pub program: Program,
    /// `(leader world rank, join op)` per node leader, in node order.
    pub observers: Vec<(usize, OpId)>,
}

/// Build a standalone program that executes one task over the whole
/// machine: each enabled component runs on its own `seg`-byte buffers,
/// all components start concurrently (no cross dependencies), and a join
/// nop per node leader observes the task completion time — "issue an ib
/// with an sb simultaneously and wait for them to complete".
pub fn task_program(
    preset: &MachinePreset,
    cfg: &HanConfig,
    spec: TaskSpec,
    seg: u64,
    root_world: usize,
) -> TaskProgram {
    let n = preset.topology.world_size();
    let comm = Comm::world(n);
    let mut b = ProgramBuilder::new(n);
    let mut cx = BuildCtx::new(&mut b, preset);
    let levels = cx.levels;
    let split = NodeSplit::rooted(&comm, &cx.topo, root_world);
    let (low, up, up_locals) = (&split.low, &split.up, &split.up_locals);
    let up_root = up.local_rank(root_world).expect("root leads its node");
    let nl = up.size();
    let node = preset.node;
    let empty_up = Frontier::empty(nl);

    // Per-leader accumulated ops to join; per-node intra ops included for
    // sb/sr (the leader waits for the node, as in the real pipeline).
    let mut leader_ops: Vec<Vec<OpId>> = vec![Vec::new(); nl];

    let alloc_bufs = |cx: &mut BuildCtx| -> Vec<BufRange> {
        (0..n)
            .map(|r| cx.b.alloc(r, seg.max(1)).slice(0, seg))
            .collect()
    };

    if spec.sr {
        let bufs = alloc_bufs(&mut cx);
        for (ni, lc) in low.iter().enumerate() {
            let locals = &split.low_locals[ni];
            let sub_bufs: Vec<BufRange> = locals.iter().map(|&l| bufs[l]).collect();
            let sub_deps = Frontier::empty(lc.size());
            let f = ascend_reduce(
                cx.b,
                cfg,
                &node,
                &levels,
                &split.plans[ni],
                lc,
                &sub_bufs,
                &sub_deps,
                ReduceOp::Sum,
                DataType::Float32,
            );
            for j in 0..lc.size() {
                leader_ops[ni].extend_from_slice(f.get(j));
            }
        }
    }
    if spec.ir {
        let bufs = alloc_bufs(&mut cx);
        let up_bufs: Vec<BufRange> = up_locals.iter().map(|&l| bufs[l]).collect();
        let f = inter_reduce(
            cx.b,
            cfg,
            up,
            up_root,
            &up_bufs,
            &empty_up,
            ReduceOp::Sum,
            DataType::Float32,
        );
        for ul in 0..nl {
            leader_ops[ul].extend_from_slice(f.get(ul));
        }
    }
    if spec.ib {
        let bufs = alloc_bufs(&mut cx);
        let up_bufs: Vec<BufRange> = up_locals.iter().map(|&l| bufs[l]).collect();
        // Task benchmarking probes the primary tree; route-dependent
        // alternates differ only in shape, which the ib task model
        // already captures through the tree-cost terms.
        let f = inter_bcast(cx.b, cfg, up, up_root, &up_bufs, &empty_up, 0);
        for ul in 0..nl {
            leader_ops[ul].extend_from_slice(f.get(ul));
        }
    }
    if spec.sb {
        let bufs = alloc_bufs(&mut cx);
        for (ni, lc) in low.iter().enumerate() {
            let locals = &split.low_locals[ni];
            let sub_bufs: Vec<BufRange> = locals.iter().map(|&l| bufs[l]).collect();
            let sub_deps = Frontier::empty(lc.size());
            let f = descend_bcast(
                cx.b,
                cfg,
                &node,
                &levels,
                &split.plans[ni],
                lc,
                &sub_bufs,
                &sub_deps,
            );
            for j in 0..lc.size() {
                leader_ops[ni].extend_from_slice(f.get(j));
            }
        }
    }

    let mut observers = Vec::with_capacity(nl);
    for ul in 0..nl {
        let w = up.world_rank(ul);
        let j = cx.b.nop(w, &leader_ops[ul]);
        observers.push((w, j));
    }
    TaskProgram {
        program: b.build(),
        observers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_machine::{mini, Flavor, Machine};
    use han_mpi::{execute, ExecOpts};
    use han_sim::Time;

    #[test]
    fn names_match_paper() {
        assert_eq!(TaskSpec::IB.name(), "ib");
        assert_eq!(TaskSpec::SB.name(), "sb");
        assert_eq!(TaskSpec::SBIB.name(), "sbib");
        assert_eq!(TaskSpec::IRSR.name(), "irsr");
        assert_eq!(TaskSpec::IBIRSR.name(), "ibirsr");
        assert_eq!(TaskSpec::SBIBIRSR.name(), "sbibirsr");
        assert_eq!(TaskSpec::SBIBIR.name(), "sbibir");
        assert_eq!(TaskSpec::SBSR.name(), "sbsr");
    }

    fn run_task(spec: TaskSpec, seg: u64) -> Vec<Time> {
        let preset = mini(4, 4);
        let cfg = HanConfig::default();
        let tp = task_program(&preset, &cfg, spec, seg, 0);
        let mut m = Machine::from_preset(&preset);
        let rep = execute(
            &mut m,
            &tp.program,
            &ExecOpts::timing(Flavor::OpenMpi.p2p()),
        );
        tp.observers.iter().map(|&(_, op)| rep.finish(op)).collect()
    }

    #[test]
    fn ib_cost_varies_per_leader() {
        // A binomial ib finishes at different times on different leaders
        // (the paper's Fig. 2 observation).
        let times = run_task(TaskSpec::IB, 64 * 1024);
        assert_eq!(times.len(), 4);
        let min = times.iter().min().unwrap();
        let max = times.iter().max().unwrap();
        assert!(max > min, "leaders should finish ib at different times");
    }

    #[test]
    fn overlap_is_significant_but_not_perfect() {
        // T(sbib) < T(ib) + T(sb) (overlap exists) but
        // T(sbib) > max(T(ib), T(sb)) (not perfect) — paper section III-A2.
        let seg = 512 * 1024;
        let ib: Vec<_> = run_task(TaskSpec::IB, seg);
        let sb: Vec<_> = run_task(TaskSpec::SB, seg);
        let sbib: Vec<_> = run_task(TaskSpec::SBIB, seg);
        // Compare on the slowest leader.
        let tib = *ib.iter().max().unwrap();
        let tsb = *sb.iter().max().unwrap();
        let tsbib = *sbib.iter().max().unwrap();
        assert!(
            tsbib < tib + tsb,
            "no overlap at all: sbib={tsbib} ib={tib} sb={tsb}"
        );
        assert!(
            tsbib > tib.max(tsb),
            "perfect overlap is unrealistic: sbib={tsbib} ib={tib} sb={tsb}"
        );
    }

    #[test]
    fn ir_ib_overlap_on_full_duplex() {
        // Fig. 6: concurrent ib and ir overlap highly (opposite directions).
        let seg = 1 << 20;
        let ib = *run_task(TaskSpec::IB, seg).iter().max().unwrap();
        let ir = *run_task(TaskSpec::IR, seg).iter().max().unwrap();
        let both = *run_task(TaskSpec::IBIR, seg).iter().max().unwrap();
        assert!(both < ib + ir, "some overlap required");
        // High overlap: within 1.5x of the slower component.
        let floor = ib.max(ir);
        assert!(
            both.as_ps() < floor.as_ps() * 3 / 2,
            "expected strong ib/ir overlap: both={both} floor={floor}"
        );
    }

    #[test]
    fn start_skew_changes_task_cost() {
        // The red vs green bars of Fig. 2: delaying each leader by its
        // ib(0) completion time changes the measured sbib cost.
        let preset = mini(4, 4);
        let cfg = HanConfig::default();
        let seg = 256 * 1024;
        let tp_ib = task_program(&preset, &cfg, TaskSpec::IB, seg, 0);
        let mut m = Machine::from_preset(&preset);
        let rep = execute(
            &mut m,
            &tp_ib.program,
            &ExecOpts::timing(Flavor::OpenMpi.p2p()),
        );
        let mut skew = vec![Time::ZERO; preset.topology.world_size()];
        for &(w, op) in &tp_ib.observers {
            skew[w] = rep.finish(op);
        }
        let tp = task_program(&preset, &cfg, TaskSpec::SBIB, seg, 0);
        let plain = execute(
            &mut m,
            &tp.program,
            &ExecOpts::timing(Flavor::OpenMpi.p2p()),
        );
        let skewed = execute(
            &mut m,
            &tp.program,
            &ExecOpts::timing(Flavor::OpenMpi.p2p()).with_skew(skew.clone()),
        );
        let t_plain: Vec<_> = tp.observers.iter().map(|&(_, o)| plain.finish(o)).collect();
        let t_skewed: Vec<_> = tp
            .observers
            .iter()
            .map(|&(w, o)| skewed.finish(o).saturating_sub(skew[w]))
            .collect();
        assert_ne!(t_plain, t_skewed, "skew must affect per-leader task costs");
    }
}
