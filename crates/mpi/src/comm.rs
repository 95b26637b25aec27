//! Communicators.
//!
//! HAN "groups processes based on their physical locations" using the only
//! portable MPI 3.1 mechanism, `MPI_Comm_split_type(MPI_COMM_TYPE_SHARED)`,
//! which yields exactly two levels: intra-node communicators (the "low"
//! comms) and an inter-node communicator of node leaders (the "up" comm).
//! [`Comm::split_node`] reproduces that structure.

use han_machine::Topology;
use std::sync::Arc;

/// An ordered group of world ranks.
#[derive(Debug, Clone)]
pub struct Comm {
    ranks: Arc<Vec<usize>>,
}

impl Comm {
    /// The world communicator over `n` ranks.
    pub fn world(n: usize) -> Self {
        Comm {
            ranks: Arc::new((0..n).collect()),
        }
    }

    /// A communicator over an explicit rank list (must be non-empty and
    /// duplicate-free).
    pub fn from_ranks(ranks: Vec<usize>) -> Self {
        assert!(!ranks.is_empty(), "empty communicator");
        debug_assert!(
            {
                let mut s = ranks.clone();
                s.sort_unstable();
                s.windows(2).all(|w| w[0] != w[1])
            },
            "duplicate ranks in communicator"
        );
        Comm {
            ranks: Arc::new(ranks),
        }
    }

    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// World rank of local rank `i`.
    pub fn world_rank(&self, i: usize) -> usize {
        self.ranks[i]
    }

    /// Local rank of a world rank, if a member.
    pub fn local_rank(&self, world: usize) -> Option<usize> {
        self.ranks.iter().position(|&r| r == world)
    }

    pub fn ranks(&self) -> &[usize] {
        &self.ranks
    }

    /// `MPI_Comm_split_type(COMM_TYPE_SHARED)` + leader comm, the two-level
    /// decomposition HAN uses.
    ///
    /// Returns `(low_comms, up_comm)`: one intra-node communicator per node
    /// that has members (in node order), and the inter-node communicator of
    /// node leaders (the lowest-local-rank member on each node). If some
    /// node holds no member of `self`, it simply has no low comm.
    pub fn split_node(&self, topo: &Topology) -> (Vec<Comm>, Comm) {
        let mut per_node: Vec<Vec<usize>> = vec![Vec::new(); topo.nodes()];
        for &r in self.ranks.iter() {
            per_node[topo.node_of(r)].push(r);
        }
        let mut low = Vec::new();
        let mut leaders = Vec::new();
        for node_ranks in per_node.into_iter().filter(|v| !v.is_empty()) {
            leaders.push(node_ranks[0]);
            low.push(Comm::from_ranks(node_ranks));
        }
        (low, Comm::from_ranks(leaders))
    }

    /// Split this communicator by the topology's level-`k` groups — the
    /// per-level generalization of [`Comm::split_node`] (level 0 ≡ nodes).
    ///
    /// Returns `(sub_comms, leader_comm)`: one communicator per level-`k`
    /// group with members, in order of each group's **first appearance in
    /// this communicator's rank order** (so a root-reordered comm keeps
    /// its data-holder's group first), and the communicator of group
    /// leaders (each group's first member in that same order).
    pub fn split_level(&self, topo: &Topology, k: usize) -> (Vec<Comm>, Comm) {
        let mut order: Vec<usize> = Vec::new(); // group ids, first-appearance order
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for &r in self.ranks.iter() {
            let g = topo.group_of(r, k);
            match order.iter().position(|&x| x == g) {
                Some(i) => groups[i].push(r),
                None => {
                    order.push(g);
                    groups.push(vec![r]);
                }
            }
        }
        let leaders: Vec<usize> = groups.iter().map(|g| g[0]).collect();
        let subs = groups.into_iter().map(Comm::from_ranks).collect();
        (subs, Comm::from_ranks(leaders))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_comm() {
        let c = Comm::world(6);
        assert_eq!(c.size(), 6);
        assert_eq!(c.world_rank(3), 3);
        assert_eq!(c.local_rank(5), Some(5));
        assert_eq!(c.local_rank(6), None);
    }

    #[test]
    fn split_node_two_levels() {
        let topo = Topology::new(3, 4);
        let world = Comm::world(12);
        let (low, up) = world.split_node(&topo);
        assert_eq!(low.len(), 3);
        assert_eq!(up.size(), 3);
        assert_eq!(up.ranks(), &[0, 4, 8]);
        assert_eq!(low[1].ranks(), &[4, 5, 6, 7]);
    }

    #[test]
    fn split_node_subset_comm() {
        // A communicator covering only parts of two nodes.
        let topo = Topology::new(3, 4);
        let c = Comm::from_ranks(vec![2, 3, 9, 11]);
        let (low, up) = c.split_node(&topo);
        assert_eq!(low.len(), 2);
        assert_eq!(low[0].ranks(), &[2, 3]);
        assert_eq!(low[1].ranks(), &[9, 11]);
        assert_eq!(up.ranks(), &[2, 9]);
    }

    #[test]
    #[should_panic]
    fn empty_comm_rejected() {
        Comm::from_ranks(vec![]);
    }

    #[test]
    fn split_level_zero_matches_split_node() {
        let topo = Topology::new(3, 4);
        let world = Comm::world(12);
        let (low, up) = world.split_node(&topo);
        let (subs, leaders) = world.split_level(&topo, 0);
        assert_eq!(low.len(), subs.len());
        for (a, b) in low.iter().zip(&subs) {
            assert_eq!(a.ranks(), b.ranks());
        }
        assert_eq!(up.ranks(), leaders.ranks());
    }

    #[test]
    fn split_level_groups_sockets() {
        // 2 nodes × 2 sockets × 2 cores; split one node comm by sockets.
        let topo = Topology::from_levels(&[2, 2, 2]);
        let node0 = Comm::from_ranks(vec![0, 1, 2, 3]);
        let (subs, leaders) = node0.split_level(&topo, 1);
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[0].ranks(), &[0, 1]);
        assert_eq!(subs[1].ranks(), &[2, 3]);
        assert_eq!(leaders.ranks(), &[0, 2]);
    }

    #[test]
    fn split_level_respects_comm_order() {
        // A root-reordered node comm: the root's socket group comes first
        // and the root leads it, mirroring split_with_root's convention.
        let topo = Topology::from_levels(&[2, 2, 2]);
        let reordered = Comm::from_ranks(vec![3, 1, 0, 2]);
        let (subs, leaders) = reordered.split_level(&topo, 1);
        assert_eq!(subs[0].ranks(), &[3, 2]);
        assert_eq!(subs[1].ranks(), &[1, 0]);
        assert_eq!(leaders.ranks(), &[3, 1]);
    }
}
