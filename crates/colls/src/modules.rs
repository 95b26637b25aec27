//! The collective submodules HAN composes (paper section III).
//!
//! Inter-node (must support non-blocking operation):
//! * [`Libnbc`] — "a default legacy module": static binomial schedules, no
//!   internal segmentation, scalar reductions.
//! * [`Adapt`] — "a new module with an event-driven design": a menu of
//!   chain / binary / binomial algorithms, internal segmentation
//!   (`ibs`/`irs` in Table II), AVX reductions.
//!
//! Intra-node:
//! * [`Sm`] — shared-memory bounce buffers: one copy-in by the producer,
//!   one copy-out per consumer, with a flag synchronization per bounce
//!   fragment. Cheap for small segments, fragment overhead for large —
//!   "SM has better performance for small messages".
//! * [`Solo`] — one-sided (RMA): a window-synchronization epoch per
//!   operation but a single direct copy and AVX reductions — "SOLO
//!   performs significantly better as the communication size increases".
//!
//! All builders follow the frontier-composition convention of
//! [`crate::p2p`] so HAN's task pipeline can chain them.

use crate::frontier::Frontier;
use crate::p2p::{tree_bcast, tree_reduce};
use crate::tree::TreeShape;
use han_machine::NodeParams;
use han_mpi::{BufRange, Comm, DataType, OpKind, ProgramBuilder, ReduceOp};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Inter-node submodule selector (`imod` in Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InterModule {
    Libnbc,
    Adapt,
}

impl InterModule {
    pub const ALL: [InterModule; 2] = [InterModule::Libnbc, InterModule::Adapt];
}

impl fmt::Display for InterModule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            InterModule::Libnbc => "libnbc",
            InterModule::Adapt => "adapt",
        })
    }
}

/// Intra-node submodule selector (`smod` in Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IntraModule {
    Sm,
    Solo,
}

impl IntraModule {
    pub const ALL: [IntraModule; 2] = [IntraModule::Sm, IntraModule::Solo];
}

impl fmt::Display for IntraModule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IntraModule::Sm => "sm",
            IntraModule::Solo => "solo",
        })
    }
}

/// Inter-node algorithm selector (`ibalg`/`iralg` in Table II). Only ADAPT
/// honours it; Libnbc always uses binomial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InterAlg {
    Chain,
    Binary,
    Binomial,
}

impl InterAlg {
    pub const ALL: [InterAlg; 3] = [InterAlg::Chain, InterAlg::Binary, InterAlg::Binomial];

    pub fn shape(self) -> TreeShape {
        match self {
            InterAlg::Chain => TreeShape::Chain,
            InterAlg::Binary => TreeShape::Binary,
            InterAlg::Binomial => TreeShape::Binomial,
        }
    }
}

impl fmt::Display for InterAlg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            InterAlg::Chain => "chain",
            InterAlg::Binary => "binary",
            InterAlg::Binomial => "binomial",
        })
    }
}

/// Libnbc: binomial trees, whole-message (no internal segmentation),
/// scalar reductions, plus a fixed schedule-construction overhead per call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Libnbc;

/// Cost of building/initiating a Libnbc schedule on each participant: a
/// CPU delay every participant pays at the start of every call.
pub const LIBNBC_SETUP: han_sim::Time = han_sim::Time::from_ns(600);

impl Libnbc {
    pub fn ibcast(
        &self,
        b: &mut ProgramBuilder,
        comm: &Comm,
        root: usize,
        bufs: &[BufRange],
        deps: &Frontier,
    ) -> Frontier {
        let pre = setup_frontier(b, comm, deps, LIBNBC_SETUP);
        tree_bcast(b, comm, root, bufs, &pre, TreeShape::Binomial, None)
    }

    #[allow(clippy::too_many_arguments)]
    pub fn ireduce(
        &self,
        b: &mut ProgramBuilder,
        comm: &Comm,
        root: usize,
        bufs: &[BufRange],
        deps: &Frontier,
        op: ReduceOp,
        dtype: DataType,
    ) -> Frontier {
        let pre = setup_frontier(b, comm, deps, LIBNBC_SETUP);
        // Libnbc reductions do not use AVX (paper section IV-A2).
        tree_reduce(
            b,
            comm,
            root,
            bufs,
            &pre,
            TreeShape::Binomial,
            None,
            op,
            dtype,
            false,
        )
    }
}

/// ADAPT: event-driven, algorithm menu + internal segmentation, AVX
/// reductions.
#[derive(Debug, Clone, Copy)]
pub struct Adapt {
    /// Inter-node broadcast algorithm (`ibalg`).
    pub balg: InterAlg,
    /// Inter-node reduce algorithm (`iralg`).
    pub ralg: InterAlg,
    /// Internal broadcast segment size (`ibs`), `None` = whole message.
    pub ibs: Option<u64>,
    /// Internal reduce segment size (`irs`).
    pub irs: Option<u64>,
}

impl Default for Adapt {
    fn default() -> Self {
        Adapt {
            balg: InterAlg::Binomial,
            ralg: InterAlg::Binomial,
            ibs: None,
            irs: None,
        }
    }
}

impl Adapt {
    pub fn ibcast(
        &self,
        b: &mut ProgramBuilder,
        comm: &Comm,
        root: usize,
        bufs: &[BufRange],
        deps: &Frontier,
    ) -> Frontier {
        tree_bcast(b, comm, root, bufs, deps, self.balg.shape(), self.ibs)
    }

    #[allow(clippy::too_many_arguments)]
    pub fn ireduce(
        &self,
        b: &mut ProgramBuilder,
        comm: &Comm,
        root: usize,
        bufs: &[BufRange],
        deps: &Frontier,
        op: ReduceOp,
        dtype: DataType,
    ) -> Frontier {
        tree_reduce(
            b,
            comm,
            root,
            bufs,
            deps,
            self.ralg.shape(),
            self.irs,
            op,
            dtype,
            true,
        )
    }
}

/// SM: intra-node shared-memory bounce-buffer collectives.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sm;

impl Sm {
    /// Per-fragment synchronization cost paid by each consumer: the
    /// producer raises a flag and the consumer polls it, one coherence
    /// round each way.
    fn frag_penalty(node: &NodeParams, bytes: u64) -> han_sim::Time {
        node.flag_latency * (2 * node.sm_fragments(bytes))
    }

    /// Intra-node broadcast: root copies into the shared bounce buffer;
    /// every other rank copies out.
    pub fn bcast(
        &self,
        b: &mut ProgramBuilder,
        comm: &Comm,
        node: &NodeParams,
        root: usize,
        bufs: &[BufRange],
        deps: &Frontier,
    ) -> Frontier {
        let n = comm.size();
        if n == 1 {
            return deps.clone();
        }
        let mut out = Frontier::empty(n);
        let bytes = bufs[0].len;
        let wroot = comm.world_rank(root);
        // Root's copy-in to the bounce buffer.
        let bounce = b.alloc(wroot, bytes.max(1)).slice(0, bytes);
        let cp_in = b.op(
            wroot,
            OpKind::Copy {
                src: bufs[root],
                dst: bounce,
            },
            deps.get(root),
        );
        out.push(root, cp_in);
        let mut ldeps = Vec::new();
        for l in 0..n {
            if l == root {
                continue;
            }
            let wl = comm.world_rank(l);
            // Fragment flags, then the copy-out (depends on the producer's
            // copy-in via a cross-rank flag edge).
            ldeps.clear();
            ldeps.extend_from_slice(deps.get(l));
            ldeps.push(cp_in);
            let flags = b.delay(wl, Sm::frag_penalty(node, bytes), &ldeps);
            let cp_out = b.op(
                wl,
                OpKind::CrossCopy {
                    from: wroot as u32,
                    src: bounce,
                    dst: bufs[l],
                },
                &[flags],
            );
            out.push(l, cp_out);
        }
        out
    }

    /// Intra-node reduce to `root` (in place at the root): children copy
    /// their contributions into per-child bounce slots; the root merges
    /// them at the *scalar* rate (SM does not use AVX — paper IV-A2).
    #[allow(clippy::too_many_arguments)]
    pub fn reduce(
        &self,
        b: &mut ProgramBuilder,
        comm: &Comm,
        node: &NodeParams,
        root: usize,
        bufs: &[BufRange],
        deps: &Frontier,
        op: ReduceOp,
        dtype: DataType,
    ) -> Frontier {
        let n = comm.size();
        if n == 1 {
            return deps.clone();
        }
        let bytes = bufs[0].len;
        let wroot = comm.world_rank(root);
        let mut out = Frontier::empty(n);
        let mut last_red: Option<han_mpi::OpId> = None;
        let mut rdeps = Vec::new();
        for l in 0..n {
            if l == root {
                continue;
            }
            let wl = comm.world_rank(l);
            // Child copy-in to its bounce slot (+ fragment flags).
            let slot = b.alloc(wl, bytes.max(1)).slice(0, bytes);
            let cp = b.op(
                wl,
                OpKind::Copy {
                    src: bufs[l],
                    dst: slot,
                },
                deps.get(l),
            );
            let flags = b.delay(wl, Sm::frag_penalty(node, bytes), &[cp]);
            out.push(l, flags);
            // Root merges this child's slot (scalar rate), serialized with
            // its other merges by the dependency chain.
            rdeps.clear();
            rdeps.extend_from_slice(deps.get(root));
            rdeps.push(flags);
            rdeps.extend(last_red);
            let red = b.op(
                wroot,
                OpKind::ReduceFrom {
                    from: wl as u32,
                    vectorized: false,
                    op,
                    dtype,
                    src: slot,
                    dst: bufs[root],
                },
                &rdeps,
            );
            last_red = Some(red);
        }
        if let Some(r) = last_red {
            out.push(root, r);
        }
        out
    }
}

/// SOLO: intra-node one-sided collectives — a window-synchronization epoch
/// per operation, then direct single copies / AVX reductions.
#[derive(Debug, Clone, Copy, Default)]
pub struct Solo;

impl Solo {
    /// Intra-node broadcast: consumers read the root's buffer directly.
    pub fn bcast(
        &self,
        b: &mut ProgramBuilder,
        comm: &Comm,
        node: &NodeParams,
        root: usize,
        bufs: &[BufRange],
        deps: &Frontier,
    ) -> Frontier {
        let n = comm.size();
        if n == 1 {
            return deps.clone();
        }
        let wroot = comm.world_rank(root);
        let mut out = Frontier::empty(n);
        // Root exposes its buffer (window epoch).
        let expose = b.delay(wroot, node.solo_setup, deps.get(root));
        out.push(root, expose);
        let mut ldeps = Vec::new();
        for l in 0..n {
            if l == root {
                continue;
            }
            let wl = comm.world_rank(l);
            ldeps.clear();
            ldeps.extend_from_slice(deps.get(l));
            ldeps.push(expose);
            let sync = b.delay(wl, node.solo_setup, &ldeps);
            let get = b.op(
                wl,
                OpKind::CrossCopy {
                    from: wroot as u32,
                    src: bufs[root],
                    dst: bufs[l],
                },
                &[sync],
            );
            out.push(l, get);
        }
        out
    }

    /// Intra-node reduce to `root` (in place): the root reads children's
    /// buffers directly and merges at the AVX rate.
    #[allow(clippy::too_many_arguments)]
    pub fn reduce(
        &self,
        b: &mut ProgramBuilder,
        comm: &Comm,
        node: &NodeParams,
        root: usize,
        bufs: &[BufRange],
        deps: &Frontier,
        op: ReduceOp,
        dtype: DataType,
    ) -> Frontier {
        let n = comm.size();
        if n == 1 {
            return deps.clone();
        }
        let wroot = comm.world_rank(root);
        let mut out = Frontier::empty(n);
        let mut last: Option<han_mpi::OpId> = None;
        // Root's own window-sync epoch.
        let root_sync = b.delay(wroot, node.solo_setup, deps.get(root));
        let mut rdeps = Vec::new();
        for l in 0..n {
            if l == root {
                continue;
            }
            let wl = comm.world_rank(l);
            // Child exposes its buffer.
            let expose = b.delay(wl, node.solo_setup, deps.get(l));
            out.push(l, expose);
            rdeps.clear();
            rdeps.extend_from_slice(&[root_sync, expose]);
            rdeps.extend(last);
            let red = b.op(
                wroot,
                OpKind::ReduceFrom {
                    from: wl as u32,
                    vectorized: true,
                    op,
                    dtype,
                    src: bufs[l],
                    dst: bufs[root],
                },
                &rdeps,
            );
            last = Some(red);
        }
        if let Some(r) = last {
            out.push(root, r);
        }
        out
    }
}

/// Prefix every rank's dependency frontier with a fixed setup delay
/// (Libnbc's schedule construction).
fn setup_frontier(
    b: &mut ProgramBuilder,
    comm: &Comm,
    deps: &Frontier,
    dur: han_sim::Time,
) -> Frontier {
    let n = comm.size();
    let mut out = Frontier::empty(n);
    for l in 0..n {
        let d = b.delay(comm.world_rank(l), dur, deps.get(l));
        out.push(l, d);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_machine::{mini, Flavor, Machine};
    use han_mpi::{execute, execute_seeded, ExecOpts};

    fn single_node(ppn: usize) -> (Machine, Comm) {
        let m = Machine::from_preset(&mini(1, ppn));
        let c = Comm::world(ppn);
        (m, c)
    }

    fn time_intra_bcast(module: IntraModule, ppn: usize, bytes: u64) -> han_sim::Time {
        let (mut m, comm) = single_node(ppn);
        let mut b = ProgramBuilder::new(ppn);
        let bufs = b.alloc_all(bytes);
        let deps = Frontier::empty(ppn);
        match module {
            IntraModule::Sm => Sm.bcast(&mut b, &comm, &m.node.clone(), 0, &bufs, &deps),
            IntraModule::Solo => Solo.bcast(&mut b, &comm, &m.node.clone(), 0, &bufs, &deps),
        };
        let p = b.build();
        execute(&mut m, &p, &ExecOpts::timing(Flavor::OpenMpi.p2p())).makespan
    }

    #[test]
    fn sm_beats_solo_small_solo_beats_sm_large() {
        // The paper's heuristic: SOLO only pays off above ~512 KB segments.
        let small = 8 * 1024;
        let large = 4 << 20;
        assert!(
            time_intra_bcast(IntraModule::Sm, 8, small)
                < time_intra_bcast(IntraModule::Solo, 8, small),
            "SM should win at {small}B"
        );
        assert!(
            time_intra_bcast(IntraModule::Solo, 8, large)
                < time_intra_bcast(IntraModule::Sm, 8, large),
            "SOLO should win at {large}B"
        );
    }

    #[test]
    fn sm_bcast_delivers_data() {
        let (mut m, comm) = single_node(4);
        let mut b = ProgramBuilder::new(4);
        let bufs = b.alloc_all(16);
        let node = m.node;
        Sm.bcast(&mut b, &comm, &node, 1, &bufs, &Frontier::empty(4));
        let p = b.build();
        let bufs2 = bufs.clone();
        let (_, mem) = execute_seeded(&mut m, &p, &ExecOpts::timing(Flavor::OpenMpi.p2p()), |mm| {
            mm.write(1, bufs2[1], &[7u8; 16])
        });
        for r in 0..4 {
            assert_eq!(mem.read(r, bufs[r]), &[7u8; 16], "rank {r}");
        }
    }

    #[test]
    fn solo_bcast_delivers_data() {
        let (mut m, comm) = single_node(3);
        let mut b = ProgramBuilder::new(3);
        let bufs = b.alloc_all(8);
        let node = m.node;
        Solo.bcast(&mut b, &comm, &node, 0, &bufs, &Frontier::empty(3));
        let p = b.build();
        let bufs2 = bufs.clone();
        let (_, mem) = execute_seeded(&mut m, &p, &ExecOpts::timing(Flavor::OpenMpi.p2p()), |mm| {
            mm.write(0, bufs2[0], &[1, 2, 3, 4, 5, 6, 7, 8])
        });
        for r in 0..3 {
            assert_eq!(mem.read(r, bufs[r]), &[1, 2, 3, 4, 5, 6, 7, 8]);
        }
    }

    fn check_intra_reduce(module: IntraModule, ppn: usize, root: usize) {
        let (mut m, comm) = single_node(ppn);
        let mut b = ProgramBuilder::new(ppn);
        let bufs = b.alloc_all(8);
        let node = m.node;
        let deps = Frontier::empty(ppn);
        match module {
            IntraModule::Sm => Sm.reduce(
                &mut b,
                &comm,
                &node,
                root,
                &bufs,
                &deps,
                ReduceOp::Sum,
                DataType::Int32,
            ),
            IntraModule::Solo => Solo.reduce(
                &mut b,
                &comm,
                &node,
                root,
                &bufs,
                &deps,
                ReduceOp::Sum,
                DataType::Int32,
            ),
        };
        let p = b.build();
        let bufs2 = bufs.clone();
        let (_, mem) = execute_seeded(&mut m, &p, &ExecOpts::timing(Flavor::OpenMpi.p2p()), |mm| {
            for r in 0..ppn {
                let v = [(r + 1) as i32, ((r + 1) * 10) as i32];
                let bytes: Vec<u8> = v.iter().flat_map(|x| x.to_le_bytes()).collect();
                mm.write(r, bufs2[r], &bytes);
            }
        });
        let total = (ppn * (ppn + 1) / 2) as i32;
        let expect: Vec<u8> = [total, total * 10]
            .iter()
            .flat_map(|x| x.to_le_bytes())
            .collect();
        assert_eq!(mem.read(root, bufs[root]), expect.as_slice(), "{module}");
    }

    #[test]
    fn intra_reduce_sums_correctly() {
        check_intra_reduce(IntraModule::Sm, 4, 0);
        check_intra_reduce(IntraModule::Sm, 5, 2);
        check_intra_reduce(IntraModule::Solo, 4, 0);
        check_intra_reduce(IntraModule::Solo, 3, 1);
    }

    #[test]
    fn solo_reduce_uses_avx_and_is_faster_for_large() {
        let bytes = 8 << 20;
        let ppn = 8;
        let time_of = |module: IntraModule| {
            let (mut m, comm) = single_node(ppn);
            let mut b = ProgramBuilder::new(ppn);
            let bufs = b.alloc_all(bytes);
            let node = m.node;
            let deps = Frontier::empty(ppn);
            match module {
                IntraModule::Sm => Sm.reduce(
                    &mut b,
                    &comm,
                    &node,
                    0,
                    &bufs,
                    &deps,
                    ReduceOp::Sum,
                    DataType::Float32,
                ),
                IntraModule::Solo => Solo.reduce(
                    &mut b,
                    &comm,
                    &node,
                    0,
                    &bufs,
                    &deps,
                    ReduceOp::Sum,
                    DataType::Float32,
                ),
            };
            let p = b.build();
            execute(&mut m, &p, &ExecOpts::timing(Flavor::OpenMpi.p2p())).makespan
        };
        let (sm, solo) = (time_of(IntraModule::Sm), time_of(IntraModule::Solo));
        assert!(
            solo.as_ps() * 2 < sm.as_ps(),
            "solo {solo} should be <0.5x sm {sm} at 8 MiB"
        );
    }

    #[test]
    fn adapt_algorithms_produce_different_timings() {
        // Inter-node: 8 single-rank nodes, 1 MiB, segmented.
        let preset = mini(8, 1);
        let time_of = |alg: InterAlg| {
            let mut m = Machine::from_preset(&preset);
            let comm = Comm::world(8);
            let mut b = ProgramBuilder::new(8);
            let bufs = b.alloc_all(1 << 20);
            let adapt = Adapt {
                balg: alg,
                ralg: alg,
                ibs: Some(128 * 1024),
                irs: Some(128 * 1024),
            };
            adapt.ibcast(&mut b, &comm, 0, &bufs, &Frontier::empty(8));
            let p = b.build();
            execute(&mut m, &p, &ExecOpts::timing(Flavor::OpenMpi.p2p())).makespan
        };
        let chain = time_of(InterAlg::Chain);
        let binary = time_of(InterAlg::Binary);
        let binomial = time_of(InterAlg::Binomial);
        // All three must be distinct configurations with distinct costs.
        assert_ne!(chain, binary);
        assert_ne!(binary, binomial);
        // With enough segments, chain (max pipeline) should beat binomial
        // (log-depth but each rank forwards log(n) copies).
        assert!(chain < binomial, "chain {chain} vs binomial {binomial}");
    }

    #[test]
    fn libnbc_has_setup_overhead_vs_adapt() {
        let preset = mini(4, 1);
        let bytes = 1024u64;
        let time_libnbc = {
            let mut m = Machine::from_preset(&preset);
            let comm = Comm::world(4);
            let mut b = ProgramBuilder::new(4);
            let bufs = b.alloc_all(bytes);
            Libnbc.ibcast(&mut b, &comm, 0, &bufs, &Frontier::empty(4));
            let p = b.build();
            execute(&mut m, &p, &ExecOpts::timing(Flavor::OpenMpi.p2p())).makespan
        };
        let time_adapt = {
            let mut m = Machine::from_preset(&preset);
            let comm = Comm::world(4);
            let mut b = ProgramBuilder::new(4);
            let bufs = b.alloc_all(bytes);
            Adapt::default().ibcast(&mut b, &comm, 0, &bufs, &Frontier::empty(4));
            let p = b.build();
            execute(&mut m, &p, &ExecOpts::timing(Flavor::OpenMpi.p2p())).makespan
        };
        assert!(time_libnbc > time_adapt);
    }
}
