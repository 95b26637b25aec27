//! The full-MPI-stack abstraction and benchmark runner.
//!
//! Everything the paper compares — HAN, default Open MPI (`tuned`), Cray
//! MPI, Intel MPI, MVAPICH2 — is an [`MpiStack`]: a named object that can
//! compile each collective into an op-DAG program and declares which P2P
//! protocol parameters it runs over. The IMB-style harness in `han-bench`
//! and the applications in `han-apps` are generic over this trait, so every
//! figure's "lines" are just different `MpiStack` values.
//!
//! [`build_coll`] compiles one collective over a whole machine;
//! [`time_coll`] and [`time_coll_on`] build it and time it. Every build
//! refills the arrays of the largest program its thread has dropped (see
//! [`han_mpi::program`]), so a sweep that builds, runs and drops thousands
//! of programs keeps nothing between calls but its [`Machine`].

use crate::frontier::Frontier;
use han_machine::{Flavor, LevelVec, Machine, MachinePreset, NodeParams, Topology};
use han_mpi::{execute, BufRange, Comm, DataType, ExecOpts, Program, ProgramBuilder, ReduceOp};
use han_sim::Time;

/// Build-time context handed to stack implementations.
pub struct BuildCtx<'a> {
    pub b: &'a mut ProgramBuilder,
    pub topo: Topology,
    pub node: NodeParams,
    /// Per-level link parameters, outermost first. Builders recursing
    /// through the hierarchy consult the level they are working at (via
    /// [`NodeParams::at_level`] views); on uniform machines every level
    /// carries the classic `node`/`net` values, so built programs are
    /// unchanged.
    pub levels: LevelVec,
}

impl<'a> BuildCtx<'a> {
    /// Context for building over a whole preset machine.
    pub fn new(b: &'a mut ProgramBuilder, preset: &MachinePreset) -> Self {
        BuildCtx {
            b,
            topo: preset.topology,
            node: preset.node,
            levels: preset.level_params(),
        }
    }
}

/// Collective operation selector (the `t` input of autotuning, Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Coll {
    Bcast,
    Allreduce,
    Reduce,
    Gather,
    Scatter,
    Allgather,
    Barrier,
}

impl Coll {
    /// Every collective the framework knows, in canonical order. Sweep
    /// harnesses iterate this list so a newly added collective cannot be
    /// silently skipped.
    pub const ALL: [Coll; 7] = [
        Coll::Bcast,
        Coll::Allreduce,
        Coll::Reduce,
        Coll::Gather,
        Coll::Scatter,
        Coll::Allgather,
        Coll::Barrier,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            Coll::Bcast => "bcast",
            Coll::Allreduce => "allreduce",
            Coll::Reduce => "reduce",
            Coll::Gather => "gather",
            Coll::Scatter => "scatter",
            Coll::Allgather => "allgather",
            Coll::Barrier => "barrier",
        }
    }
}

/// A stack was asked for a collective it does not implement. Sweeps and
/// benches treat this as "skip and report", never as a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unsupported {
    /// Display name of the stack (or model) that declined.
    pub stack: String,
    pub coll: Coll,
}

impl std::fmt::Display for Unsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {} not implemented", self.stack, self.coll.name())
    }
}

impl std::error::Error for Unsupported {}

/// A complete MPI implementation under test.
pub trait MpiStack {
    /// Display name for report rows ("HAN", "Cray MPI", ...).
    fn name(&self) -> String;

    /// The P2P protocol parameter set this stack runs over.
    fn flavor(&self) -> Flavor;

    /// `MPI_Bcast` from comm-local `root`; `bufs[l]` is rank `l`'s buffer.
    fn bcast(
        &self,
        cx: &mut BuildCtx,
        comm: &Comm,
        root: usize,
        bufs: &[BufRange],
        deps: &Frontier,
    ) -> Frontier;

    /// `MPI_Allreduce` in place over `bufs`.
    fn allreduce(
        &self,
        cx: &mut BuildCtx,
        comm: &Comm,
        bufs: &[BufRange],
        op: ReduceOp,
        dtype: DataType,
        deps: &Frontier,
    ) -> Frontier;

    /// `MPI_Reduce` to comm-local `root`, in place at the root.
    #[allow(clippy::too_many_arguments)]
    fn reduce(
        &self,
        _cx: &mut BuildCtx,
        _comm: &Comm,
        _root: usize,
        _bufs: &[BufRange],
        _op: ReduceOp,
        _dtype: DataType,
        _deps: &Frontier,
    ) -> Result<Frontier, Unsupported> {
        Err(Unsupported {
            stack: self.name(),
            coll: Coll::Reduce,
        })
    }

    /// `MPI_Gather` of equal `block`-sized contributions to `root`.
    /// `src[l]` is each rank's block; `dst_root` is the root's n·block
    /// array.
    #[allow(clippy::too_many_arguments)]
    fn gather(
        &self,
        _cx: &mut BuildCtx,
        _comm: &Comm,
        _root: usize,
        _src: &[BufRange],
        _dst_root: BufRange,
        _deps: &Frontier,
    ) -> Result<Frontier, Unsupported> {
        Err(Unsupported {
            stack: self.name(),
            coll: Coll::Gather,
        })
    }

    /// `MPI_Scatter` from `root` (inverse of gather).
    #[allow(clippy::too_many_arguments)]
    fn scatter(
        &self,
        _cx: &mut BuildCtx,
        _comm: &Comm,
        _root: usize,
        _src_root: BufRange,
        _dst: &[BufRange],
        _deps: &Frontier,
    ) -> Result<Frontier, Unsupported> {
        Err(Unsupported {
            stack: self.name(),
            coll: Coll::Scatter,
        })
    }

    /// `MPI_Barrier`: no rank may exit before every rank has entered.
    fn barrier(
        &self,
        _cx: &mut BuildCtx,
        _comm: &Comm,
        _deps: &Frontier,
    ) -> Result<Frontier, Unsupported> {
        Err(Unsupported {
            stack: self.name(),
            coll: Coll::Barrier,
        })
    }

    /// `MPI_Allgather`: `bufs[l]` is an n·block array with rank `l`'s
    /// contribution pre-placed at offset `l*block`.
    fn allgather(
        &self,
        _cx: &mut BuildCtx,
        _comm: &Comm,
        _bufs: &[BufRange],
        _block: u64,
        _deps: &Frontier,
    ) -> Result<Frontier, Unsupported> {
        Err(Unsupported {
            stack: self.name(),
            coll: Coll::Allgather,
        })
    }
}

/// The local index of every member of a parent communicator, indexed by
/// world rank: built once per collective build, it maps any
/// sub-communicator's members back to parent-local indices in
/// O(sub size), with one dense vector over the parent's rank span.
#[derive(Debug)]
pub struct RankIndex {
    /// Lowest world rank of the parent.
    base: usize,
    /// `pos[w - base]`: parent-local index of world rank `w`, or
    /// `u32::MAX` for a non-member.
    pos: Vec<u32>,
}

impl RankIndex {
    pub fn new(parent: &Comm) -> Self {
        let ranks = parent.ranks();
        let base = ranks.iter().copied().min().unwrap_or(0);
        let span = ranks.iter().copied().max().map_or(0, |m| m - base + 1);
        let mut pos = vec![u32::MAX; span];
        for (l, &w) in ranks.iter().enumerate() {
            pos[w - base] = l as u32;
        }
        RankIndex { base, pos }
    }

    /// Parent-local index of world rank `world`; panics for a non-member.
    pub fn local(&self, world: usize) -> usize {
        let p = world
            .checked_sub(self.base)
            .and_then(|i| self.pos.get(i))
            .copied()
            .unwrap_or(u32::MAX);
        assert!(p != u32::MAX, "sub comm must be a subset of parent");
        p as usize
    }

    /// For each local rank of `sub`, its local index within the parent.
    pub fn locals(&self, sub: &Comm) -> Vec<usize> {
        sub.ranks().iter().map(|&w| self.local(w)).collect()
    }
}

/// `split_node`, but the leader of the root's node is the root itself —
/// the convention HAN and the hierarchical vendor stacks use so rooted
/// collectives need no extra intra-node hop at the root.
pub fn split_with_root(comm: &Comm, topo: &Topology, root_world: usize) -> (Vec<Comm>, Comm) {
    let (mut low, up) = comm.split_node(topo);
    let root_node = topo.node_of(root_world);
    let mut leaders: Vec<usize> = up.ranks().to_vec();
    for (i, c) in low.iter_mut().enumerate() {
        if topo.node_of(c.world_rank(0)) == root_node {
            // Reorder the low comm so the root is its rank 0 (leader).
            let mut ranks: Vec<usize> = c.ranks().to_vec();
            if let Some(pos) = ranks.iter().position(|&r| r == root_world) {
                ranks.swap(0, pos);
                leaders[i] = root_world;
                *c = Comm::from_ranks(ranks);
            }
        }
    }
    (low, Comm::from_ranks(leaders))
}

/// Build one collective as a standalone program over the whole machine.
pub fn build_coll(
    stack: &dyn MpiStack,
    preset: &MachinePreset,
    coll: Coll,
    bytes: u64,
    root: usize,
) -> Result<Program, Unsupported> {
    let n = preset.topology.world_size();
    let comm = Comm::world(n);
    // The builder refills the arrays of the largest program this thread
    // has dropped; a sweep's builds after its first grow nothing.
    let mut b = ProgramBuilder::new(n);
    let deps = Frontier::empty(n);
    let mut cx = BuildCtx::new(&mut b, preset);
    match coll {
        Coll::Bcast => {
            let bufs = cx.b.alloc_all(bytes);
            stack.bcast(&mut cx, &comm, root, &bufs, &deps);
        }
        Coll::Allreduce => {
            let bufs = cx.b.alloc_all(bytes);
            stack.allreduce(
                &mut cx,
                &comm,
                &bufs,
                ReduceOp::Sum,
                DataType::Float32,
                &deps,
            );
        }
        Coll::Reduce => {
            let bufs = cx.b.alloc_all(bytes);
            stack.reduce(
                &mut cx,
                &comm,
                root,
                &bufs,
                ReduceOp::Sum,
                DataType::Float32,
                &deps,
            )?;
        }
        Coll::Gather => {
            let src: Vec<BufRange> = (0..n).map(|r| cx.b.alloc(r, bytes)).collect();
            let dst = cx.b.alloc(root, bytes * n as u64);
            stack.gather(&mut cx, &comm, root, &src, dst, &deps)?;
        }
        Coll::Scatter => {
            let src = cx.b.alloc(root, bytes * n as u64);
            let dst: Vec<BufRange> = (0..n).map(|r| cx.b.alloc(r, bytes)).collect();
            stack.scatter(&mut cx, &comm, root, src, &dst, &deps)?;
        }
        Coll::Allgather => {
            let bufs = cx.b.alloc_all(bytes * n as u64);
            stack.allgather(&mut cx, &comm, &bufs, bytes, &deps)?;
        }
        Coll::Barrier => {
            stack.barrier(&mut cx, &comm, &deps)?;
        }
    }
    Ok(b.build())
}

/// Time one collective on a fresh machine: the IMB cost (max over ranks).
pub fn time_coll(
    stack: &dyn MpiStack,
    preset: &MachinePreset,
    coll: Coll,
    bytes: u64,
    root: usize,
) -> Result<Time, Unsupported> {
    let mut machine = Machine::from_preset(preset);
    time_coll_on(stack, &mut machine, preset, coll, bytes, root)
}

/// Time one collective on an existing machine: [`build_coll`] plus a
/// timing-only [`execute`].
pub fn time_coll_on(
    stack: &dyn MpiStack,
    machine: &mut Machine,
    preset: &MachinePreset,
    coll: Coll,
    bytes: u64,
    root: usize,
) -> Result<Time, Unsupported> {
    let prog = build_coll(stack, preset, coll, bytes, root)?;
    let opts = ExecOpts::timing(stack.flavor().p2p());
    Ok(execute(machine, &prog, &opts).makespan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TunedOpenMpi;
    use han_machine::mini;

    #[test]
    fn building_in_a_larger_dropped_programs_arrays_matches_a_fresh_thread() {
        let (big, small) = (mini(3, 4), mini(2, 2));
        let colls = [Coll::Bcast, Coll::Allreduce, Coll::Reduce];
        // Each collective built and timed on a thread that has dropped no
        // program, so its arrays start empty.
        let fresh: Vec<(Program, Time)> = colls
            .iter()
            .map(|&coll| {
                std::thread::spawn(move || {
                    let p = build_coll(&TunedOpenMpi, &small, coll, 4096, 1).unwrap();
                    (p, time_coll(&TunedOpenMpi, &small, coll, 4096, 1).unwrap())
                })
                .join()
                .unwrap()
            })
            .collect();
        let mut m = Machine::from_preset(&small);
        for (&coll, (want_prog, want_t)) in colls.iter().zip(&fresh) {
            // This thread's slot now holds the larger program's arrays.
            let larger = build_coll(&TunedOpenMpi, &big, Coll::Allreduce, 1 << 16, 0).unwrap();
            let cap = larger.ops.capacity();
            assert!(cap > want_prog.ops.len());
            drop(larger);
            let got = build_coll(&TunedOpenMpi, &small, coll, 4096, 1).unwrap();
            assert_eq!(&got, want_prog, "{}", coll.name());
            assert_eq!(got.ops.capacity(), cap, "{}", coll.name());
            drop(got);
            let t = time_coll_on(&TunedOpenMpi, &mut m, &small, coll, 4096, 1);
            assert_eq!(t, Ok(*want_t), "{}", coll.name());
            assert_eq!(time_coll(&TunedOpenMpi, &small, coll, 4096, 1), Ok(*want_t));
        }
    }

    #[test]
    fn rank_index_maps_subset() {
        let parent = Comm::from_ranks(vec![9, 5, 7, 3]);
        let index = RankIndex::new(&parent);
        assert_eq!(index.locals(&Comm::from_ranks(vec![7, 3])), vec![2, 3]);
        assert_eq!(index.local(9), 0);
    }

    #[test]
    #[should_panic(expected = "subset")]
    fn rank_index_rejects_a_non_member() {
        let index = RankIndex::new(&Comm::from_ranks(vec![3, 5]));
        index.local(4);
    }

    #[test]
    fn split_with_root_promotes_root_to_leader() {
        let preset = mini(3, 4);
        let comm = Comm::world(12);
        // Root 6 lives on node 1 (ranks 4-7).
        let (low, up) = split_with_root(&comm, &preset.topology, 6);
        assert_eq!(up.ranks(), &[0, 6, 8]);
        let node1 = &low[1];
        assert_eq!(node1.world_rank(0), 6, "root must lead its node");
        let mut sorted = node1.ranks().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![4, 5, 6, 7]);
    }

    #[test]
    fn split_with_root_noop_when_root_is_lowest() {
        let preset = mini(2, 3);
        let comm = Comm::world(6);
        let (low, up) = split_with_root(&comm, &preset.topology, 0);
        assert_eq!(up.ranks(), &[0, 3]);
        assert_eq!(low[0].ranks(), &[0, 1, 2]);
    }

    #[test]
    fn coll_names() {
        assert_eq!(Coll::Bcast.name(), "bcast");
        assert_eq!(Coll::Allgather.name(), "allgather");
    }
}
