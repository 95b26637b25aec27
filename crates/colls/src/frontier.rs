//! Per-rank dependency frontiers.
//!
//! Collective builders compose by frontier: a [`Frontier`] carries, for each
//! *communicator-local* rank, the ops that must complete before that rank
//! may start the next piece of work. HAN's task pipeline is exactly a
//! sequence of frontier-to-frontier compositions — `sbib(i)` starts from the
//! frontier left by `sbib(i-1)`.
//!
//! # Representation
//!
//! Almost every rank's frontier is a single op (the last op it issued), so
//! each rank owns one 8-byte slot holding that op inline. Only ranks with
//! several ops — a leader joining its whole node, a rank whose sends and
//! receives both complete a phase — spill into one arena shared by the
//! whole frontier. A spilled list occupies a power-of-two block of the
//! arena, so pushing onto it moves it at most once per doubling, and
//! [`Frontier::set`] rewrites it in place when the new list fits. Building,
//! projecting and updating a frontier therefore costs one or two vector
//! allocations per frontier, never one per rank or per op.

use han_mpi::OpId;
use std::fmt;

/// One rank's frontier: empty (`len == 0`), the op `head` itself
/// (`len == 1`), or `len` ops starting at arena index `head.0`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    head: OpId,
    len: u32,
}

impl Slot {
    const EMPTY: Slot = Slot {
        head: OpId(0),
        len: 0,
    };
}

/// Arena block size reserved for a spilled list of `len` ops.
fn block(len: usize) -> usize {
    len.next_power_of_two()
}

/// A dependency frontier over the `n` local ranks of a communicator.
#[derive(Clone, Default)]
pub struct Frontier {
    slots: Vec<Slot>,
    /// Spilled lists of ranks with two or more ops.
    spill: Vec<OpId>,
}

impl Frontier {
    /// An empty frontier (no prerequisites) over `n` local ranks.
    pub fn empty(n: usize) -> Self {
        Frontier {
            slots: vec![Slot::EMPTY; n],
            spill: Vec::new(),
        }
    }

    /// A frontier from exactly one op per rank.
    pub fn from_ops(ops: &[OpId]) -> Self {
        Frontier {
            slots: ops.iter().map(|&head| Slot { head, len: 1 }).collect(),
            spill: Vec::new(),
        }
    }

    /// Empty every rank and resize to `n` ranks, keeping the storage — the
    /// way a builder reuses one scratch frontier across calls.
    pub fn reset(&mut self, n: usize) {
        self.slots.clear();
        self.slots.resize(n, Slot::EMPTY);
        self.spill.clear();
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Dependency list for local rank `i`.
    pub fn get(&self, i: usize) -> &[OpId] {
        let s = &self.slots[i];
        match s.len {
            0 => &[],
            1 => std::slice::from_ref(&s.head),
            n => &self.spill[s.head.0 as usize..][..n as usize],
        }
    }

    /// Replace rank `i`'s dependencies.
    pub fn set(&mut self, i: usize, ops: &[OpId]) {
        let s = &mut self.slots[i];
        match *ops {
            [] => *s = Slot::EMPTY,
            [head] => *s = Slot { head, len: 1 },
            _ => {
                let start = if s.len > 1 && ops.len() <= block(s.len as usize) {
                    // The new list fits the rank's current block.
                    s.head.0 as usize
                } else {
                    let start = self.spill.len();
                    self.spill.resize(start + block(ops.len()), OpId(0));
                    start
                };
                self.spill[start..start + ops.len()].copy_from_slice(ops);
                *s = Slot {
                    head: OpId(start as u32),
                    len: ops.len() as u32,
                };
            }
        }
    }

    /// Add one op to rank `i`'s frontier.
    pub fn push(&mut self, i: usize, op: OpId) {
        let s = &mut self.slots[i];
        let len = s.len as usize;
        match len {
            0 => *s = Slot { head: op, len: 1 },
            1 => {
                let start = self.spill.len();
                self.spill.extend_from_slice(&[s.head, op]);
                *s = Slot {
                    head: OpId(start as u32),
                    len: 2,
                };
            }
            _ => {
                let mut start = s.head.0 as usize;
                if len == block(len) {
                    // Block full: double it, in place when it ends the arena.
                    if start + len != self.spill.len() {
                        let moved = self.spill.len();
                        self.spill.extend_from_within(start..start + len);
                        start = moved;
                    }
                    self.spill.resize(start + 2 * len, OpId(0));
                }
                self.spill[start + len] = op;
                *s = Slot {
                    head: OpId(start as u32),
                    len: len as u32 + 1,
                };
            }
        }
    }

    /// Append `ops` to rank `i`'s frontier; an empty rank takes them in
    /// one copy.
    pub fn extend(&mut self, i: usize, ops: &[OpId]) {
        if self.slots[i].len == 0 {
            return self.set(i, ops);
        }
        for &op in ops {
            self.push(i, op);
        }
    }

    /// Union another frontier into this one (same size required).
    pub fn merge(&mut self, other: &Frontier) {
        assert_eq!(self.len(), other.len(), "frontier size mismatch");
        for i in 0..other.len() {
            self.extend(i, other.get(i));
        }
    }

    /// Project this frontier (over a parent comm) onto a sub-communicator:
    /// `locals[i]` is the parent-local index of sub-local rank `i`.
    pub fn project(&self, locals: &[usize]) -> Frontier {
        let mut out = Frontier::empty(locals.len());
        for (i, &l) in locals.iter().enumerate() {
            out.set(i, self.get(l));
        }
        out
    }
}

impl fmt::Debug for Frontier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries((0..self.len()).map(|i| self.get(i)))
            .finish()
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
        let f = Frontier::from_ops(&[OpId(1), OpId(2)]);
        assert_eq!(f.get(0), &[OpId(1)]);
        assert_eq!(f.get(1), &[OpId(2)]);
    }

    #[test]
    fn merge_unions() {
        let mut a = Frontier::from_ops(&[OpId(1), OpId(2)]);
        let b = Frontier::from_ops(&[OpId(3), OpId(4)]);
        a.merge(&b);
        assert_eq!(a.get(0), &[OpId(1), OpId(3)]);
        assert_eq!(a.get(1), &[OpId(2), OpId(4)]);
    }

    #[test]
    fn project_selects_locals() {
        let f = Frontier::from_ops(&[OpId(10), OpId(11), OpId(12), OpId(13)]);
        let locals = vec![1, 3];
        let sub = f.project(&locals);
        assert_eq!(sub.get(0), &[OpId(11)]);
        assert_eq!(sub.get(1), &[OpId(13)]);
    }

    #[test]
    fn interleaved_pushes_keep_each_rank_in_order() {
        let mut f = Frontier::empty(2);
        for k in 0..20 {
            f.push(k % 2, OpId(k as u32));
        }
        let even: Vec<OpId> = (0..20).step_by(2).map(OpId).collect();
        let odd: Vec<OpId> = (1..20).step_by(2).map(OpId).collect();
        assert_eq!(f.get(0), even.as_slice());
        assert_eq!(f.get(1), odd.as_slice());
    }

    #[test]
    fn set_rewrites_a_fitting_list_in_place() {
        let mut f = Frontier::empty(2);
        f.set(0, &[OpId(1), OpId(2), OpId(3)]);
        let used = f.spill.len();
        f.set(0, &[OpId(4), OpId(5), OpId(6), OpId(7)]);
        f.set(0, &[OpId(8), OpId(9)]);
        assert_eq!(f.spill.len(), used, "a list that fits its block reuses it");
        assert_eq!(f.get(0), &[OpId(8), OpId(9)]);
        assert!(f.get(1).is_empty());
    }

    #[test]
    fn reset_empties_and_resizes() {
        let mut f = Frontier::empty(2);
        f.set(1, &[OpId(1), OpId(2)]);
        f.reset(3);
        assert_eq!(f.len(), 3);
        assert!((0..3).all(|i| f.get(i).is_empty()));
    }

    #[test]
    #[should_panic]
    fn merge_size_mismatch_panics() {
        let mut a = Frontier::empty(2);
        a.merge(&Frontier::empty(3));
    }
}
