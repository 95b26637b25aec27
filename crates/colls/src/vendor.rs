//! Vendor MPI stand-ins: Cray MPI, Intel MPI, MVAPICH2.
//!
//! The paper compares HAN against the system MPIs of its two testbeds.
//! None is available here, so each is modeled as a *hierarchical,
//! phase-synchronized* stack: topology-aware two-level collectives with
//! high-quality intra-node primitives and its own P2P parameter set
//! ([`han_machine::Flavor`]), but **no cross-level pipelining** — the
//! decisive structural difference from HAN, and the reason HAN overtakes
//! them on large messages (up to 2.32x vs Cray MPI in Fig. 10) while they
//! can win on small ones through cheaper P2P (Fig. 11).
//!
//! MVAPICH2 additionally uses a multi-leader design for very large
//! allreduce (its DPML/SALaR lineage, paper refs [2, 20]), which is why it
//! matches HAN above 64 MB in Fig. 14.

use crate::frontier::Frontier;
use crate::p2p::{rabenseifner_allreduce, rd_allreduce, tree_bcast};
use crate::stack::{split_with_root, BuildCtx, MpiStack, RankIndex};
use crate::tree::TreeShape;
use han_machine::{Flavor, NodeParams};
use han_mpi::{BufRange, Comm, DataType, OpKind, ProgramBuilder, ReduceOp};

/// A vendor MPI implementation, parameterized by flavor.
#[derive(Debug, Clone, Copy)]
pub struct VendorMpi {
    pub flavor: Flavor,
}

impl VendorMpi {
    pub fn cray() -> Self {
        VendorMpi {
            flavor: Flavor::CrayMpi,
        }
    }

    pub fn intel() -> Self {
        VendorMpi {
            flavor: Flavor::IntelMpi,
        }
    }

    pub fn mvapich2() -> Self {
        VendorMpi {
            flavor: Flavor::Mvapich2,
        }
    }

    /// Leaders per node for allreduce: MVAPICH2 goes multi-leader on very
    /// large messages (data-partitioned multi-leader reduction).
    fn allreduce_leaders(&self, bytes: u64) -> usize {
        if self.flavor == Flavor::Mvapich2 && bytes >= 4 << 20 {
            2
        } else {
            1
        }
    }

    fn inter_bcast_decision(bytes: u64) -> (TreeShape, Option<u64>) {
        if bytes < 16 * 1024 {
            (TreeShape::Binomial, None)
        } else {
            (TreeShape::Binary, Some(128 * 1024))
        }
    }
}

/// Vendor-quality intra-node broadcast from local rank 0: consumers read
/// the producer's buffer directly (kernel-assisted single copy).
fn intra_bcast(
    b: &mut ProgramBuilder,
    comm: &Comm,
    _node: &NodeParams,
    bufs: &[BufRange],
    deps: &Frontier,
) -> Frontier {
    let n = comm.size();
    if n == 1 {
        return deps.clone();
    }
    let w0 = comm.world_rank(0);
    let mut out = Frontier::empty(n);
    let ready = b.nop(w0, deps.get(0));
    out.push(0, ready);
    let mut ldeps = Vec::new();
    for l in 1..n {
        let wl = comm.world_rank(l);
        ldeps.clear();
        ldeps.extend_from_slice(deps.get(l));
        ldeps.push(ready);
        let get = b.op(
            wl,
            OpKind::CrossCopy {
                from: w0 as u32,
                src: bufs[0],
                dst: bufs[l],
            },
            &ldeps,
        );
        out.push(l, get);
    }
    out
}

/// Vendor-quality intra-node reduce to local rank 0 (in place, AVX).
#[allow(clippy::too_many_arguments)]
fn intra_reduce(
    b: &mut ProgramBuilder,
    comm: &Comm,
    _node: &NodeParams,
    bufs: &[BufRange],
    deps: &Frontier,
    op: ReduceOp,
    dtype: DataType,
) -> Frontier {
    let n = comm.size();
    if n == 1 {
        return deps.clone();
    }
    let w0 = comm.world_rank(0);
    let mut out = Frontier::empty(n);
    let mut last: Option<han_mpi::OpId> = None;
    let mut rdeps = Vec::new();
    for l in 1..n {
        let wl = comm.world_rank(l);
        let expose = b.nop(wl, deps.get(l));
        out.push(l, expose);
        rdeps.clear();
        rdeps.extend_from_slice(deps.get(0));
        rdeps.push(expose);
        rdeps.extend(last);
        let red = b.op(
            w0,
            OpKind::ReduceFrom {
                from: wl as u32,
                vectorized: true,
                op,
                dtype,
                src: bufs[l],
                dst: bufs[0],
            },
            &rdeps,
        );
        last = Some(red);
    }
    if let Some(r) = last {
        out.push(0, r);
    }
    out
}

impl MpiStack for VendorMpi {
    fn name(&self) -> String {
        self.flavor.to_string()
    }

    fn flavor(&self) -> Flavor {
        self.flavor
    }

    fn bcast(
        &self,
        cx: &mut BuildCtx,
        comm: &Comm,
        root: usize,
        bufs: &[BufRange],
        deps: &Frontier,
    ) -> Frontier {
        let n = comm.size();
        let root_world = comm.world_rank(root);
        let (low, up) = split_with_root(comm, &cx.topo, root_world);
        let index = RankIndex::new(comm);
        let bytes = bufs[0].len;
        let (shape, seg) = Self::inter_bcast_decision(bytes);

        // Phase 1: inter-node broadcast over the leaders.
        let up_locals = index.locals(&up);
        let up_bufs: Vec<BufRange> = up_locals.iter().map(|&l| bufs[l]).collect();
        let up_deps = deps.project(&up_locals);
        let up_root = up.local_rank(root_world).expect("root leads its node");
        let f_up = tree_bcast(cx.b, &up, up_root, &up_bufs, &up_deps, shape, seg);

        // Phase 2 (no overlap with phase 1): intra-node broadcast.
        let mut mid = deps.clone();
        for (i, &l) in up_locals.iter().enumerate() {
            mid.set(l, f_up.get(i));
        }
        let mut out = Frontier::empty(n);
        for lc in &low {
            let locals = index.locals(lc);
            let sub_bufs: Vec<BufRange> = locals.iter().map(|&l| bufs[l]).collect();
            let sub_deps = mid.project(&locals);
            let f = intra_bcast(cx.b, lc, &cx.node, &sub_bufs, &sub_deps);
            for (i, &l) in locals.iter().enumerate() {
                out.set(l, f.get(i));
            }
        }
        out
    }

    fn allreduce(
        &self,
        cx: &mut BuildCtx,
        comm: &Comm,
        bufs: &[BufRange],
        op: ReduceOp,
        dtype: DataType,
        deps: &Frontier,
    ) -> Frontier {
        let n = comm.size();
        let bytes = bufs[0].len;
        let nleaders = self.allreduce_leaders(bytes);
        let (low, _up) = comm.split_node(&cx.topo);
        let index = RankIndex::new(comm);
        let mut out = Frontier::empty(n);

        // Partition the message across leaders (multi-leader design); each
        // partition runs the full reduce/allreduce/bcast chain and the
        // partitions proceed concurrently.
        let el = dtype.size() as u64;
        let elems = bytes / el;
        let part_elems = elems / nleaders as u64;
        for k in 0..nleaders {
            let lo = k as u64 * part_elems * el;
            let hi = if k == nleaders - 1 {
                bytes
            } else {
                (k as u64 + 1) * part_elems * el
            };
            if hi <= lo {
                continue;
            }
            let part = |buf: BufRange| buf.slice(lo, hi - lo);

            // Leader for partition k on each node: local index k*ppn/nleaders.
            let mut leaders = Vec::with_capacity(low.len());
            for lc in &low {
                let idx = (k * lc.size()) / nleaders;
                leaders.push(lc.world_rank(idx.min(lc.size() - 1)));
            }
            let up_k = Comm::from_ranks(leaders);

            // Phase 1: intra-node reduce of this partition to the k-leader.
            let mut mid = deps.clone();
            for lc in &low {
                let idx = (k * lc.size()) / nleaders;
                let idx = idx.min(lc.size() - 1);
                // Reorder so the k-leader is local 0.
                let mut ranks = lc.ranks().to_vec();
                ranks.swap(0, idx);
                let lc_k = Comm::from_ranks(ranks);
                let locals = index.locals(&lc_k);
                let sub_bufs: Vec<BufRange> = locals.iter().map(|&l| part(bufs[l])).collect();
                let sub_deps = deps.project(&locals);
                let f = intra_reduce(cx.b, &lc_k, &cx.node, &sub_bufs, &sub_deps, op, dtype);
                for (i, &l) in locals.iter().enumerate() {
                    mid.extend(l, f.get(i));
                }
            }

            // Phase 2: allreduce across the k-leaders.
            let up_locals = index.locals(&up_k);
            let up_bufs: Vec<BufRange> = up_locals.iter().map(|&l| part(bufs[l])).collect();
            let up_deps = mid.project(&up_locals);
            let f_up = if hi - lo <= 16 * 1024 {
                rd_allreduce(cx.b, &up_k, &up_bufs, &up_deps, op, dtype, true)
            } else {
                rabenseifner_allreduce(cx.b, &up_k, &up_bufs, &up_deps, op, dtype, true)
            };
            for (i, &l) in up_locals.iter().enumerate() {
                mid.set(l, f_up.get(i));
            }

            // Phase 3: intra-node broadcast of the partition result.
            for lc in &low {
                let idx = (k * lc.size()) / nleaders;
                let idx = idx.min(lc.size() - 1);
                let mut ranks = lc.ranks().to_vec();
                ranks.swap(0, idx);
                let lc_k = Comm::from_ranks(ranks);
                let locals = index.locals(&lc_k);
                let sub_bufs: Vec<BufRange> = locals.iter().map(|&l| part(bufs[l])).collect();
                let sub_deps = mid.project(&locals);
                let f = intra_bcast(cx.b, &lc_k, &cx.node, &sub_bufs, &sub_deps);
                for (i, &l) in locals.iter().enumerate() {
                    out.extend(l, f.get(i));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::{build_coll, time_coll, Coll};
    use crate::tuned::TunedOpenMpi;
    use han_machine::{mini, Machine};
    use han_mpi::{execute_seeded, ExecOpts};

    fn check_bcast_data(stack: &VendorMpi, nodes: usize, ppn: usize, root: usize) {
        let preset = mini(nodes, ppn);
        let n = nodes * ppn;
        let prog = build_coll(stack, &preset, Coll::Bcast, 32, root).unwrap();
        let mut m = Machine::from_preset(&preset);
        let o = ExecOpts::timing(stack.flavor().p2p());
        let buf = BufRange::new(0, 32);
        let (_, mem) = execute_seeded(&mut m, &prog, &o, |mm| {
            mm.write(root, buf, &[9u8; 32]);
        });
        for r in 0..n {
            assert_eq!(mem.read(r, buf), &[9u8; 32], "{} rank {r}", stack.name());
        }
    }

    #[test]
    fn vendor_bcast_delivers() {
        for stack in [VendorMpi::cray(), VendorMpi::intel(), VendorMpi::mvapich2()] {
            check_bcast_data(&stack, 3, 4, 0);
            check_bcast_data(&stack, 3, 4, 5); // non-leader root
        }
    }

    fn check_allreduce_data(stack: &VendorMpi, nodes: usize, ppn: usize, bytes: u64) {
        let preset = mini(nodes, ppn);
        let n = nodes * ppn;
        let prog = build_coll(stack, &preset, Coll::Allreduce, bytes, 0).unwrap();
        let mut m = Machine::from_preset(&preset);
        let o = ExecOpts::timing(stack.flavor().p2p());
        let buf = BufRange::new(0, bytes);
        let nelem = (bytes / 4) as usize;
        let (_, mem) = execute_seeded(&mut m, &prog, &o, |mm| {
            for r in 0..n {
                // Values exact in f32 and index-mixed (i % 8) so partition
                // offsets are still exercised without rounding differences.
                let vals: Vec<u8> = (0..nelem)
                    .flat_map(|i| (((r + 1) * (i % 8 + 1)) as f32).to_le_bytes())
                    .collect();
                mm.write(r, buf, &vals);
            }
        });
        let total = (n * (n + 1) / 2) as f32;
        for r in 0..n {
            let got: Vec<f32> = mem
                .read(r, buf)
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                .collect();
            let expect: Vec<f32> = (0..nelem).map(|i| total * (i % 8 + 1) as f32).collect();
            assert_eq!(got, expect, "{} rank {r} bytes {bytes}", stack.name());
        }
    }

    #[test]
    fn vendor_allreduce_correct() {
        for stack in [VendorMpi::cray(), VendorMpi::intel()] {
            check_allreduce_data(&stack, 2, 3, 64);
            check_allreduce_data(&stack, 3, 2, 256);
        }
    }

    #[test]
    fn mvapich_multileader_allreduce_correct() {
        // Above the 4 MiB threshold MVAPICH2 splits across two leaders.
        check_allreduce_data(&VendorMpi::mvapich2(), 2, 4, 8 << 20);
        // And below it, single leader.
        check_allreduce_data(&VendorMpi::mvapich2(), 2, 4, 128);
    }

    #[test]
    fn vendors_beat_tuned_on_fat_nodes() {
        // Topology awareness must pay off: 4 nodes x 8 ranks, 1 MiB bcast.
        let preset = mini(4, 8);
        let t_tuned = time_coll(&TunedOpenMpi, &preset, Coll::Bcast, 1 << 20, 0).unwrap();
        for v in [VendorMpi::cray(), VendorMpi::intel(), VendorMpi::mvapich2()] {
            let t = time_coll(&v, &preset, Coll::Bcast, 1 << 20, 0).unwrap();
            assert!(
                t < t_tuned,
                "{} ({t}) should beat tuned ({t_tuned})",
                v.name()
            );
        }
    }

    #[test]
    fn cray_beats_openmpi_flavors_on_small_messages() {
        let preset = mini(4, 4);
        let t_cray = time_coll(&VendorMpi::cray(), &preset, Coll::Bcast, 4096, 0).unwrap();
        let t_tuned = time_coll(&TunedOpenMpi, &preset, Coll::Bcast, 4096, 0).unwrap();
        assert!(t_cray < t_tuned);
    }
}
