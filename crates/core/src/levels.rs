//! The ordered hierarchy-level list (implemented N-level design).
//!
//! The paper limits HAN to the two levels exposed by the portable
//! `MPI_Comm_split_type` API — inter-node and intra-node — and names more
//! hardware levels (NUMA/socket/switch) as future work. This reproduction
//! implements that extension: a machine's hierarchy is no longer the
//! hardcoded `[InterNode, IntraNode]` pair but an **ordered level list**
//! derived from the topology's extent vector
//! ([`han_machine::Topology::levels`]), outermost first.
//!
//! How the levels thread through the framework:
//!
//! * **Splitting** — [`han_mpi::Comm::split_level`] decomposes any
//!   communicator by the topology's level-`k` groups, generalizing the
//!   `split_type(COMM_TYPE_SHARED)` two-level split (level 0 ≡ nodes).
//! * **Composition** — the builders in [`crate::bcast`] and
//!   [`crate::allreduce`] (one HAN pipeline, [`crate::pipeline`], for
//!   Bcast, Reduce and Allreduce) keep the paper's task pipeline at level 0
//!   (`ib`/`ir` over node leaders) and treat everything below as one
//!   *composite deep phase*: `descend_bcast` / `ascend_reduce` recurse
//!   through levels `1..depth`, moving each segment across one level's
//!   subgroup leaders before recursing into the subgroups. On a depth-2
//!   topology the recursion bottoms out immediately and is structurally
//!   identical to the paper's intra phase (pinned op for op by the
//!   golden program digests of `tests/golden_programs.rs`).
//! * **Configuration** — [`crate::HanConfig::smod_at`] selects the
//!   submodule per level: level 1 is the Table-II `smod`, deeper levels
//!   use the `deep` entries and fall back to `smod`, so every two-level
//!   configuration remains valid at any depth.
//! * **Cost** — the simulated machine charges transfers that cross a
//!   shared-memory-domain boundary (`Topology::sm_domain_of`) the
//!   `xsocket_bus_factor` derating, so deeper levels are observable in
//!   virtual time, and the tuner's per-level sums (eqs. 1–4 generalized)
//!   see them.
//!
//! Builders split a communicator once per build: `NodeSplit` holds the
//! node groups, their leaders, every member's comm-local index and each
//! group's `GroupPlan` through the deeper levels. The per-segment loops
//! walk these instead of re-splitting every subgroup for every segment.

use han_colls::stack::{split_with_root, RankIndex};
use han_machine::Topology;
use han_mpi::Comm;

/// A communicator split into its node groups (the two-level
/// `split_type` decomposition), computed once per build.
pub(crate) struct NodeSplit {
    /// One intra-node communicator per node with members; local 0 leads.
    pub low: Vec<Comm>,
    /// The node leaders; up-local `i` leads `low[i]`.
    pub up: Comm,
    /// Comm-local index of each leader, in up-local order.
    pub up_locals: Vec<usize>,
    /// `low_locals[i][j]`: comm-local index of `low[i]`'s local rank `j`.
    pub low_locals: Vec<Vec<usize>>,
    /// `plans[i]`: how `low[i]` recurses through levels `1..depth`.
    pub plans: Vec<GroupPlan>,
    /// Up-local index of the root's leader (0 for [`NodeSplit::node`]).
    pub up_root: usize,
}

impl NodeSplit {
    /// Split by node, each node led by its lowest-local member.
    pub fn node(comm: &Comm, topo: &Topology) -> Self {
        let (low, up) = comm.split_node(topo);
        Self::index(comm, topo, low, up, 0)
    }

    /// Split by node with the root leading its own node (see
    /// [`split_with_root`]).
    pub fn rooted(comm: &Comm, topo: &Topology, root_world: usize) -> Self {
        let (low, up) = split_with_root(comm, topo, root_world);
        let up_root = up.local_rank(root_world).expect("root leads its node");
        Self::index(comm, topo, low, up, up_root)
    }

    fn index(comm: &Comm, topo: &Topology, low: Vec<Comm>, up: Comm, up_root: usize) -> Self {
        let index = RankIndex::new(comm);
        NodeSplit {
            up_locals: index.locals(&up),
            low_locals: low.iter().map(|lc| index.locals(lc)).collect(),
            plans: low.iter().map(|lc| GroupPlan::new(topo, 1, lc)).collect(),
            low,
            up,
            up_root,
        }
    }
}

/// How a level-`level` group whose local rank 0 holds (or receives) the
/// data moves it through the remaining levels — split once per build and
/// walked by every segment.
pub(crate) enum GroupPlan {
    /// The innermost level: one flat submodule operation at `level`.
    Flat { level: usize },
    /// A cross-subgroup hop among the subgroup leaders at `level`, then
    /// each subgroup recurses.
    Split {
        level: usize,
        leaders: Comm,
        /// Group-local index of each subgroup's leader.
        leader_locals: Vec<usize>,
        subs: Vec<SubGroup>,
    },
}

/// One subgroup of a [`GroupPlan::Split`].
pub(crate) struct SubGroup {
    pub comm: Comm,
    /// Group-local index of each member; member 0 leads.
    pub locals: Vec<usize>,
    pub plan: GroupPlan,
}

impl GroupPlan {
    /// Plan group `gc` from level `level` down. A level with a single
    /// subgroup moves nothing and is skipped.
    pub fn new(topo: &Topology, level: usize, gc: &Comm) -> Self {
        if level + 1 >= topo.depth() {
            return GroupPlan::Flat { level };
        }
        let (subs, leaders) = gc.split_level(topo, level);
        if subs.len() == 1 {
            return GroupPlan::new(topo, level + 1, gc);
        }
        let index = RankIndex::new(gc);
        let subs: Vec<SubGroup> = subs
            .into_iter()
            .map(|comm| SubGroup {
                locals: index.locals(&comm),
                plan: GroupPlan::new(topo, level + 1, &comm),
                comm,
            })
            .collect();
        GroupPlan::Split {
            level,
            leaders,
            leader_locals: subs.iter().map(|s| s.locals[0]).collect(),
            subs,
        }
    }
}
