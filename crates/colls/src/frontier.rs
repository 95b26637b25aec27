//! Per-rank dependency frontiers.
//!
//! Collective builders compose by frontier: a [`Frontier`] carries, for each
//! *communicator-local* rank, the set of ops that must complete before that
//! rank may start the next piece of work. HAN's task pipeline is exactly a
//! sequence of frontier-to-frontier compositions — `sbib(i)` starts from the
//! frontier left by `sbib(i-1)`.

use han_mpi::OpId;

/// A dependency frontier over the `n` local ranks of a communicator.
#[derive(Debug, Clone, Default)]
pub struct Frontier {
    deps: Vec<Vec<OpId>>,
}

impl Frontier {
    /// An empty frontier (no prerequisites) over `n` local ranks.
    pub fn empty(n: usize) -> Self {
        Frontier {
            deps: vec![Vec::new(); n],
        }
    }

    /// A frontier from exactly one op per rank.
    pub fn from_ops(ops: Vec<OpId>) -> Self {
        Frontier {
            deps: ops.into_iter().map(|o| vec![o]).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.deps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.deps.is_empty()
    }

    /// Dependency list for local rank `i`.
    pub fn get(&self, i: usize) -> &[OpId] {
        &self.deps[i]
    }

    /// Replace rank `i`'s dependencies.
    pub fn set(&mut self, i: usize, ops: Vec<OpId>) {
        self.deps[i] = ops;
    }

    /// Add one op to rank `i`'s frontier.
    pub fn push(&mut self, i: usize, op: OpId) {
        self.deps[i].push(op);
    }

    /// Union another frontier into this one (same size required).
    pub fn merge(&mut self, other: &Frontier) {
        assert_eq!(self.len(), other.len(), "frontier size mismatch");
        for (mine, theirs) in self.deps.iter_mut().zip(&other.deps) {
            mine.extend_from_slice(theirs);
        }
    }

    /// Project this frontier (over a parent comm) onto a sub-communicator:
    /// `locals[i]` is the parent-local index of sub-local rank `i`.
    pub fn project(&self, locals: &[usize]) -> Frontier {
        Frontier {
            deps: locals.iter().map(|&l| self.deps[l].clone()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_push() {
        let mut f = Frontier::empty(3);
        assert_eq!(f.len(), 3);
        assert!(f.get(1).is_empty());
        f.push(1, OpId(7));
        assert_eq!(f.get(1), &[OpId(7)]);
    }

    #[test]
    fn from_ops_one_each() {
        let f = Frontier::from_ops(vec![OpId(1), OpId(2)]);
        assert_eq!(f.get(0), &[OpId(1)]);
        assert_eq!(f.get(1), &[OpId(2)]);
    }

    #[test]
    fn merge_unions() {
        let mut a = Frontier::from_ops(vec![OpId(1), OpId(2)]);
        let b = Frontier::from_ops(vec![OpId(3), OpId(4)]);
        a.merge(&b);
        assert_eq!(a.get(0), &[OpId(1), OpId(3)]);
        assert_eq!(a.get(1), &[OpId(2), OpId(4)]);
    }

    #[test]
    fn project_selects_locals() {
        let f = Frontier::from_ops(vec![OpId(10), OpId(11), OpId(12), OpId(13)]);
        let locals = vec![1, 3];
        let sub = f.project(&locals);
        assert_eq!(sub.get(0), &[OpId(11)]);
        assert_eq!(sub.get(1), &[OpId(13)]);
    }

    #[test]
    #[should_panic]
    fn merge_size_mismatch_panics() {
        let mut a = Frontier::empty(2);
        a.merge(&Frontier::empty(3));
    }
}
