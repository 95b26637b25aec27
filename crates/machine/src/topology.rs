//! Cluster topology: an ordered list of hardware levels.
//!
//! The paper restricts HAN to the two levels exposed portably by
//! `MPI_Comm_split_type` (intra-node / inter-node); this type keeps that
//! two-level form as the common case (`Topology::new(nodes, ppn)`) but is
//! built from a general **level-extent vector** — e.g. `[nodes, sockets,
//! cores]` — so the hierarchy the paper names as future work (NUMA,
//! sockets, switches) is first-class. Rank placement is block-major at
//! every level (the `--map-by core` default the paper's experiments use):
//! rank `r` lives on node `r / ppn` with local index `r % ppn`, and more
//! generally the level-`k` group of `r` is `r / stride(k)` where
//! `stride(k)` is the number of ranks under one level-`k` group.
//!
//! Serialization keeps the historical two-level `{nodes, ppn}` JSON form
//! for depth-2 topologies (so existing preset fingerprints and tuned
//! tables stay valid) and uses `{levels: [...]}`
//! only for deeper hierarchies; deserialization accepts both.

use serde::{Deserialize, Error, Serialize, Value};

/// Maximum supported hierarchy depth (e.g. racks, nodes, boards, sockets,
/// NUMA, GPUs, tiles, cores).
pub const MAX_LEVELS: usize = 8;

/// A cluster layout described by per-level extents. Depth-2 instances
/// behave exactly like the original `nodes × ppn` grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Topology {
    /// Extents per level, outermost first; unused tail entries are 1.
    extents: [usize; MAX_LEVELS],
    depth: usize,
}

impl Topology {
    /// Create the classic two-level topology; panics on zero nodes or
    /// zero ppn (an empty machine cannot run any program).
    pub fn new(nodes: usize, ppn: usize) -> Self {
        assert!(nodes > 0, "topology needs at least one node");
        assert!(ppn > 0, "topology needs at least one rank per node");
        Topology::from_levels(&[nodes, ppn])
    }

    /// Create a topology from an ordered level-extent list (outermost
    /// first, e.g. `[nodes, sockets, cores_per_socket]`). Panics on an
    /// empty list, a zero extent, or more than [`MAX_LEVELS`] levels.
    pub fn from_levels(levels: &[usize]) -> Self {
        assert!(!levels.is_empty(), "topology needs at least one level");
        assert!(
            levels.len() <= MAX_LEVELS,
            "topology supports at most {MAX_LEVELS} levels, got {}",
            levels.len()
        );
        assert!(
            levels.iter().all(|&e| e > 0),
            "every level extent must be positive: {levels:?}"
        );
        let mut extents = [1usize; MAX_LEVELS];
        extents[..levels.len()].copy_from_slice(levels);
        Topology {
            extents,
            depth: levels.len(),
        }
    }

    /// Number of hierarchy levels.
    #[inline]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The level-extent vector, outermost first.
    #[inline]
    pub fn levels(&self) -> &[usize] {
        &self.extents[..self.depth]
    }

    /// Extent of level `k` (0 = outermost).
    #[inline]
    pub fn extent(&self, k: usize) -> usize {
        self.extents[k]
    }

    #[inline]
    pub fn nodes(&self) -> usize {
        self.extents[0]
    }

    /// Ranks per node: the product of all intra-node extents.
    #[inline]
    pub fn ppn(&self) -> usize {
        self.extents[1..self.depth].iter().product()
    }

    #[inline]
    pub fn world_size(&self) -> usize {
        self.extents[..self.depth].iter().product()
    }

    /// Number of ranks under one level-`k` group (the group "stride").
    #[inline]
    pub fn group_size(&self, k: usize) -> usize {
        self.extents[k + 1..self.depth].iter().product()
    }

    /// Index of the level-`k` group containing `rank`. Level-0 groups are
    /// nodes; level-`depth-1` groups are individual ranks. Group indices
    /// are global (distinct across parent groups).
    #[inline]
    pub fn group_of(&self, rank: usize, k: usize) -> usize {
        rank / self.group_size(k)
    }

    /// Do two world ranks share their level-`k` group?
    #[inline]
    pub fn same_group(&self, a: usize, b: usize, k: usize) -> bool {
        self.group_of(a, k) == self.group_of(b, k)
    }

    /// The innermost shared-memory domain of a rank (the level just above
    /// individual ranks: the socket on a 3-level machine, the whole node
    /// on a 2-level one). Transfers between ranks on the same node but in
    /// different domains pay the cross-socket bus penalty.
    #[inline]
    pub fn sm_domain_of(&self, rank: usize) -> usize {
        self.group_of(rank, self.depth.saturating_sub(2))
    }

    #[inline]
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.ppn()
    }

    /// Are two world ranks on the same node?
    #[inline]
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// The hierarchy level whose link two ranks communicate over: the
    /// outermost (smallest-index) level at which they sit in *different*
    /// groups. Ranks on different nodes link at level 0; ranks sharing the
    /// innermost domain (including a rank with itself) link at the
    /// innermost level `depth - 1`.
    #[inline]
    pub fn link_level(&self, a: usize, b: usize) -> usize {
        for k in 0..self.depth - 1 {
            if self.group_of(a, k) != self.group_of(b, k) {
                return k;
            }
        }
        self.depth - 1
    }

    /// World ranks living on `node`, in local order.
    pub fn node_ranks(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        let base = node * self.ppn();
        base..base + self.ppn()
    }
}

impl Serialize for Topology {
    fn to_value(&self) -> Value {
        if self.depth == 2 {
            // Historical form: keeps preset fingerprints (and therefore
            // tuned tables) stable for two-level machines.
            Value::Map(vec![
                ("nodes".to_string(), Value::UInt(self.nodes() as u64)),
                ("ppn".to_string(), Value::UInt(self.ppn() as u64)),
            ])
        } else {
            let levels = self
                .levels()
                .iter()
                .map(|&e| Value::UInt(e as u64))
                .collect();
            Value::Map(vec![("levels".to_string(), Value::Seq(levels))])
        }
    }
}

impl Deserialize for Topology {
    fn from_value(v: &Value) -> Result<Self, Error> {
        if let Some(seq) = v.get("levels").and_then(|l| l.as_array()) {
            let levels: Vec<usize> = seq
                .iter()
                .map(|e| {
                    e.as_u64()
                        .map(|x| x as usize)
                        .ok_or_else(|| Error::custom("level extent must be an integer"))
                })
                .collect::<Result<_, _>>()?;
            if levels.is_empty() || levels.len() > MAX_LEVELS || levels.contains(&0) {
                return Err(Error::custom("invalid level-extent vector"));
            }
            return Ok(Topology::from_levels(&levels));
        }
        let nodes = v
            .get("nodes")
            .and_then(|x| x.as_u64())
            .ok_or_else(|| Error::custom("topology needs nodes or levels"))?
            as usize;
        let ppn = v
            .get("ppn")
            .and_then(|x| x.as_u64())
            .ok_or_else(|| Error::custom("topology needs ppn"))? as usize;
        if nodes == 0 || ppn == 0 {
            return Err(Error::custom("topology extents must be positive"));
        }
        Ok(Topology::new(nodes, ppn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_placement() {
        let t = Topology::new(4, 3);
        assert_eq!(t.world_size(), 12);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(5), 1);
        assert_eq!(t.node_of(11), 3);
    }

    #[test]
    fn same_node_detection() {
        let t = Topology::new(2, 4);
        assert!(t.same_node(0, 3));
        assert!(!t.same_node(3, 4));
        assert!(t.same_node(4, 7));
    }

    #[test]
    fn node_ranks_iterates_locals() {
        let t = Topology::new(3, 2);
        assert_eq!(t.node_ranks(1).collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    #[should_panic]
    fn zero_nodes_rejected() {
        Topology::new(0, 4);
    }

    #[test]
    #[should_panic]
    fn zero_ppn_rejected() {
        Topology::new(4, 0);
    }

    #[test]
    fn two_level_is_depth_two() {
        let t = Topology::new(4, 8);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.levels(), &[4, 8]);
        assert_eq!(t, Topology::from_levels(&[4, 8]));
        // Innermost SM domain of a two-level machine is the whole node.
        assert_eq!(t.sm_domain_of(9), t.node_of(9));
    }

    #[test]
    fn three_level_grouping() {
        // 2 nodes × 2 sockets × 3 cores.
        let t = Topology::from_levels(&[2, 2, 3]);
        assert_eq!(t.depth(), 3);
        assert_eq!(t.nodes(), 2);
        assert_eq!(t.ppn(), 6);
        assert_eq!(t.world_size(), 12);
        // Level-0 groups are nodes.
        assert_eq!(t.group_of(7, 0), 1);
        assert_eq!(t.group_of(7, 0), t.node_of(7));
        // Level-1 groups are sockets (global indices).
        assert_eq!(t.group_of(2, 1), 0);
        assert_eq!(t.group_of(3, 1), 1);
        assert_eq!(t.group_of(7, 1), 2);
        // Level-2 groups are individual ranks.
        assert_eq!(t.group_of(7, 2), 7);
        // Same node, different socket.
        assert!(t.same_node(2, 3));
        assert!(!t.same_group(2, 3, 1));
        assert_eq!(t.sm_domain_of(2), 0);
        assert_eq!(t.sm_domain_of(3), 1);
    }

    #[test]
    #[should_panic]
    fn zero_level_extent_rejected() {
        Topology::from_levels(&[2, 0, 3]);
    }

    #[test]
    #[should_panic]
    fn too_many_levels_rejected() {
        Topology::from_levels(&[2; MAX_LEVELS + 1]);
    }

    #[test]
    fn eight_levels_supported() {
        let t = Topology::from_levels(&[2; 8]);
        assert_eq!(t.depth(), 8);
        assert_eq!(t.world_size(), 256);
        assert_eq!(t.ppn(), 128);
    }

    #[test]
    fn link_level_picks_outermost_split() {
        // 2 nodes × 2 sockets × 3 cores.
        let t = Topology::from_levels(&[2, 2, 3]);
        assert_eq!(t.link_level(0, 6), 0, "different nodes");
        assert_eq!(t.link_level(2, 3), 1, "same node, different sockets");
        assert_eq!(t.link_level(0, 2), 2, "same socket");
        assert_eq!(t.link_level(5, 5), 2, "a rank with itself is innermost");
        // Two-level: inter-node = 0, intra-node = 1.
        let flat = Topology::new(2, 4);
        assert_eq!(flat.link_level(0, 4), 0);
        assert_eq!(flat.link_level(0, 3), 1);
    }

    #[test]
    fn serde_keeps_two_level_form() {
        let t = Topology::new(4, 8);
        let json = serde_json::to_string(&t).expect("serialize");
        assert_eq!(json, r#"{"nodes":4,"ppn":8}"#);
        let back: Topology = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, t);
    }

    #[test]
    fn serde_three_level_roundtrip() {
        let t = Topology::from_levels(&[2, 2, 4]);
        let json = serde_json::to_string(&t).expect("serialize");
        assert!(json.contains("levels"), "deep form: {json}");
        let back: Topology = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, t);
    }
}
