//! Communication tree shapes.
//!
//! These are the algorithm menu the paper's submodules expose: ADAPT offers
//! chain, binary and binomial trees for `MPI_Ibcast`/`MPI_Ireduce`; Libnbc
//! uses binomial; the tuned baseline adds flat and k-ary variants. Trees
//! are expressed in *virtual ranks* (`vrank = (local - root) mod n`) so the
//! root is always vrank 0.

/// Tree shape for rooted collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TreeShape {
    /// Root sends to everyone directly.
    Flat,
    /// A linear pipeline 0 → 1 → … → n-1; maximum segment overlap, worst
    /// latency. ADAPT's "chain".
    Chain,
    /// Complete binary tree.
    Binary,
    /// Binomial tree: log₂(n) rounds, the classic small-message tree.
    Binomial,
    /// k-ary tree.
    Kary(u32),
}

impl TreeShape {
    pub const ALL_BASIC: [TreeShape; 3] =
        [TreeShape::Chain, TreeShape::Binary, TreeShape::Binomial];

    pub fn name(&self) -> String {
        match self {
            TreeShape::Flat => "flat".into(),
            TreeShape::Chain => "chain".into(),
            TreeShape::Binary => "binary".into(),
            TreeShape::Binomial => "binomial".into(),
            TreeShape::Kary(k) => format!("{k}-ary"),
        }
    }
}

/// Children of `vrank` in an `n`-rank tree, in send order (earliest-started
/// subtree first, matching Open MPI's convention of sending to the
/// farthest/biggest subtree first for binomial).
pub fn children(shape: TreeShape, n: usize, vrank: usize) -> Vec<usize> {
    let mut c = Vec::new();
    children_into(shape, n, vrank, &mut c);
    c
}

/// [`children`] written into a caller-owned buffer (cleared first), so a
/// builder walking every rank of a tree reuses one vector.
pub(crate) fn children_into(shape: TreeShape, n: usize, vrank: usize, c: &mut Vec<usize>) {
    debug_assert!(vrank < n);
    c.clear();
    match shape {
        TreeShape::Flat => {
            if vrank == 0 {
                c.extend(1..n);
            }
        }
        TreeShape::Chain => {
            if vrank + 1 < n {
                c.push(vrank + 1);
            }
        }
        TreeShape::Binary => {
            for child in [2 * vrank + 1, 2 * vrank + 2] {
                if child < n {
                    c.push(child);
                }
            }
        }
        TreeShape::Binomial => {
            // vrank v's children are v + 2^k for every 2^k strictly below
            // v's lowest set bit (all powers of two for the root), largest
            // subtree first.
            let bound = if vrank == 0 {
                usize::MAX
            } else {
                vrank & vrank.wrapping_neg()
            };
            let mut k = 1usize;
            while k < n {
                k <<= 1;
            }
            k >>= 1;
            while k > 0 {
                if k < bound {
                    let child = vrank + k;
                    if child < n {
                        c.push(child);
                    }
                }
                k >>= 1;
            }
        }
        TreeShape::Kary(kk) => {
            let k = kk as usize;
            for i in 0..k {
                let child = vrank * k + i + 1;
                if child < n {
                    c.push(child);
                }
            }
        }
    }
}

/// Parent of `vrank`, or `None` for the root.
pub fn parent(shape: TreeShape, n: usize, vrank: usize) -> Option<usize> {
    debug_assert!(vrank < n);
    if vrank == 0 {
        return None;
    }
    Some(match shape {
        TreeShape::Flat => 0,
        TreeShape::Chain => vrank - 1,
        TreeShape::Binary => (vrank - 1) / 2,
        TreeShape::Binomial => vrank - (vrank & vrank.wrapping_neg()),
        TreeShape::Kary(k) => (vrank - 1) / k as usize,
    })
}

/// Depth of `vrank` (root = 0); the latency-critical path length.
pub fn depth(shape: TreeShape, n: usize, mut vrank: usize) -> usize {
    let mut d = 0;
    while let Some(p) = parent(shape, n, vrank) {
        vrank = p;
        d += 1;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_consistency(shape: TreeShape, n: usize) {
        // Every non-root has exactly one parent, and parent/children agree.
        let mut seen = vec![false; n];
        seen[0] = true;
        for v in 0..n {
            for c in children(shape, n, v) {
                assert!(c < n);
                assert_eq!(parent(shape, n, c), Some(v), "{shape:?} n={n} child {c}");
                assert!(!seen[c], "{shape:?} n={n}: {c} reached twice");
                seen[c] = true;
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "{shape:?} n={n}: not all ranks reachable"
        );
    }

    #[test]
    fn all_shapes_are_spanning_trees() {
        for n in [1, 2, 3, 4, 5, 7, 8, 12, 16, 31, 32, 33, 100] {
            for shape in [
                TreeShape::Flat,
                TreeShape::Chain,
                TreeShape::Binary,
                TreeShape::Binomial,
                TreeShape::Kary(3),
                TreeShape::Kary(4),
            ] {
                check_consistency(shape, n);
            }
        }
    }

    #[test]
    fn binomial_structure() {
        // n=8: root's children are 4, 2, 1 (largest subtree first).
        assert_eq!(children(TreeShape::Binomial, 8, 0), vec![4, 2, 1]);
        assert_eq!(children(TreeShape::Binomial, 8, 4), vec![6, 5]);
        assert_eq!(children(TreeShape::Binomial, 8, 6), vec![7]);
        assert_eq!(children(TreeShape::Binomial, 8, 1), Vec::<usize>::new());
        assert_eq!(parent(TreeShape::Binomial, 8, 7), Some(6));
        assert_eq!(parent(TreeShape::Binomial, 8, 5), Some(4));
    }

    #[test]
    fn binomial_depth_is_logarithmic() {
        for n in [2usize, 4, 8, 16, 64, 128] {
            let max_depth = (0..n)
                .map(|v| depth(TreeShape::Binomial, n, v))
                .max()
                .unwrap();
            assert_eq!(max_depth, n.trailing_zeros() as usize, "n={n}");
        }
    }

    #[test]
    fn chain_depth_is_linear() {
        assert_eq!(depth(TreeShape::Chain, 10, 9), 9);
    }

    #[test]
    fn binary_depth() {
        assert_eq!(depth(TreeShape::Binary, 7, 6), 2);
        assert_eq!(depth(TreeShape::Binary, 15, 14), 3);
    }

    #[test]
    fn single_rank_tree() {
        for shape in TreeShape::ALL_BASIC {
            assert!(children(shape, 1, 0).is_empty());
            assert_eq!(parent(shape, 1, 0), None);
        }
    }

    #[test]
    fn names() {
        assert_eq!(TreeShape::Binomial.name(), "binomial");
        assert_eq!(TreeShape::Kary(4).name(), "4-ary");
    }
}
