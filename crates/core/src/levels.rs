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
//!   [`crate::allreduce`] keep the paper's task pipeline at level 0
//!   (`ib`/`ir` over node leaders) and treat everything below as one
//!   *composite deep phase*: `descend_bcast` / `ascend_reduce` recurse
//!   through levels `1..depth`, moving each segment across one level's
//!   subgroup leaders before recursing into the subgroups. On a depth-2
//!   topology the recursion bottoms out immediately and is structurally
//!   identical to the classic intra phase (pinned by
//!   `tests/hierarchy_equivalence.rs` against [`crate::classic`]).
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
//! [`order`] materializes the list for dispatch, reporting, and docs.

use han_machine::Topology;

/// What medium a hierarchy level communicates over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LevelKind {
    /// Across nodes, over the interconnect (Libnbc / ADAPT submodules).
    Network,
    /// Within a node, over shared memory (SM / SOLO submodules).
    SharedMemory,
}

/// One level of the machine hierarchy, outermost first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Level {
    /// Index into the topology's level list (0 = outermost).
    pub index: usize,
    /// Number of level-`index` units inside one unit of the parent level.
    pub extent: usize,
    pub kind: LevelKind,
}

/// The ordered level list for a topology: data descends through it for
/// one-to-all collectives and ascends for reductions. Level 0 is always
/// the network; every deeper level is shared memory.
pub fn order(topo: &Topology) -> Vec<Level> {
    topo.levels()
        .iter()
        .enumerate()
        .map(|(index, &extent)| Level {
            index,
            extent,
            kind: if index == 0 {
                LevelKind::Network
            } else {
                LevelKind::SharedMemory
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_level_order_matches_paper() {
        let topo = Topology::new(4, 8);
        let levels = order(&topo);
        assert_eq!(levels.len(), 2);
        assert_eq!(levels[0].kind, LevelKind::Network);
        assert_eq!(levels[1].kind, LevelKind::SharedMemory);
    }

    #[test]
    fn deep_order_is_data_driven() {
        let topo = Topology::from_levels(&[4, 2, 16]);
        let levels = order(&topo);
        assert_eq!(levels.len(), 3);
        assert_eq!(
            levels.iter().map(|l| l.extent).collect::<Vec<_>>(),
            vec![4, 2, 16]
        );
        assert!(levels[1].kind == LevelKind::SharedMemory);
    }
}
