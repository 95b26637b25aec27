//! Default Open MPI: the `coll_tuned` baseline.
//!
//! "Tuned \[29\], the current default collective selection mechanism in Open
//! MPI, built its decision functions long ago, on hardware with completely
//! different parameters than most today's HPC machines (a cluster of AMD64
//! processors using Gigabit Ethernet and Myricom interconnect)."
//!
//! The decision rules below mirror the fixed `coll_tuned` decision
//! functions: size- and comm-size-based switches between flat/binomial/
//! binary/pipeline broadcast and recursive-doubling/Rabenseifner
//! allreduce, with the ca.-2006 segment sizes. Crucially, the trees span
//! the *flat world communicator* — no topology awareness — so on a modern
//! fat-node cluster most tree edges cross nodes, which is exactly why HAN
//! beats it by 4.7–7.4x in Figs. 10 and 12–14.

use crate::frontier::Frontier;
use crate::p2p::{
    dissemination_barrier, linear_gather, linear_scatter, rabenseifner_allreduce, rd_allreduce,
    ring_allgather, tree_bcast, tree_reduce,
};
use crate::stack::{BuildCtx, MpiStack, Unsupported};
use crate::tree::TreeShape;
use han_machine::Flavor;
use han_mpi::{BufRange, Comm, DataType, ReduceOp};

/// Default Open MPI 4.0.0 with the `tuned` collective component.
#[derive(Debug, Clone, Copy, Default)]
pub struct TunedOpenMpi;

impl TunedOpenMpi {
    /// The fixed bcast decision: small → binomial; medium → binary with
    /// 32 KB segments; large → pipeline (chain) on small communicators,
    /// split-binary with 128 KB segments on large ones (a chain's fill
    /// time is linear in the communicator size, so `coll_tuned` only
    /// pipelines flat chains on modest process counts).
    fn bcast_decision(bytes: u64, comm_size: usize) -> (TreeShape, Option<u64>) {
        if comm_size < 4 {
            (TreeShape::Flat, None)
        } else if bytes < 2 * 1024 {
            (TreeShape::Binomial, None)
        } else if bytes < 512 * 1024 {
            (TreeShape::Binary, Some(32 * 1024))
        } else if comm_size <= 64 {
            (TreeShape::Chain, Some(128 * 1024))
        } else {
            (TreeShape::Binary, Some(128 * 1024))
        }
    }
}

impl MpiStack for TunedOpenMpi {
    fn name(&self) -> String {
        "default Open MPI".into()
    }

    fn flavor(&self) -> Flavor {
        Flavor::OpenMpi
    }

    fn bcast(
        &self,
        cx: &mut BuildCtx,
        comm: &Comm,
        root: usize,
        bufs: &[BufRange],
        deps: &Frontier,
    ) -> Frontier {
        let (shape, seg) = Self::bcast_decision(bufs[0].len, comm.size());
        tree_bcast(cx.b, comm, root, bufs, deps, shape, seg)
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
        // No AVX: default Open MPI reduction kernels are scalar (the paper
        // notes preliminary AVX work had not landed in 4.0.0).
        if bufs[0].len <= 16 * 1024 {
            rd_allreduce(cx.b, comm, bufs, deps, op, dtype, false)
        } else {
            rabenseifner_allreduce(cx.b, comm, bufs, deps, op, dtype, false)
        }
    }

    fn reduce(
        &self,
        cx: &mut BuildCtx,
        comm: &Comm,
        root: usize,
        bufs: &[BufRange],
        op: ReduceOp,
        dtype: DataType,
        deps: &Frontier,
    ) -> Result<Frontier, Unsupported> {
        let seg = if bufs[0].len >= 512 * 1024 {
            Some(128 * 1024)
        } else {
            None
        };
        Ok(tree_reduce(
            cx.b,
            comm,
            root,
            bufs,
            deps,
            TreeShape::Binomial,
            seg,
            op,
            dtype,
            false,
        ))
    }

    fn gather(
        &self,
        cx: &mut BuildCtx,
        comm: &Comm,
        root: usize,
        src: &[BufRange],
        dst_root: BufRange,
        deps: &Frontier,
    ) -> Result<Frontier, Unsupported> {
        Ok(linear_gather(cx.b, comm, root, src, dst_root, deps))
    }

    fn scatter(
        &self,
        cx: &mut BuildCtx,
        comm: &Comm,
        root: usize,
        src_root: BufRange,
        dst: &[BufRange],
        deps: &Frontier,
    ) -> Result<Frontier, Unsupported> {
        Ok(linear_scatter(cx.b, comm, root, src_root, dst, deps))
    }

    fn allgather(
        &self,
        cx: &mut BuildCtx,
        comm: &Comm,
        bufs: &[BufRange],
        block: u64,
        deps: &Frontier,
    ) -> Result<Frontier, Unsupported> {
        Ok(ring_allgather(cx.b, comm, bufs, block, deps))
    }

    fn barrier(
        &self,
        cx: &mut BuildCtx,
        comm: &Comm,
        deps: &Frontier,
    ) -> Result<Frontier, Unsupported> {
        // Flat dissemination over the whole communicator, topology-blind.
        Ok(dissemination_barrier(cx.b, comm, deps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::{build_coll, time_coll, Coll};
    use han_machine::mini;
    use han_mpi::{execute_seeded, ExecOpts};

    #[test]
    fn decision_switches_with_size() {
        assert_eq!(
            TunedOpenMpi::bcast_decision(512, 64),
            (TreeShape::Binomial, None)
        );
        assert_eq!(
            TunedOpenMpi::bcast_decision(64 * 1024, 64),
            (TreeShape::Binary, Some(32 * 1024))
        );
        assert_eq!(
            TunedOpenMpi::bcast_decision(4 << 20, 64),
            (TreeShape::Chain, Some(128 * 1024))
        );
        assert_eq!(
            TunedOpenMpi::bcast_decision(4 << 20, 4096),
            (TreeShape::Binary, Some(128 * 1024))
        );
        assert_eq!(TunedOpenMpi::bcast_decision(1 << 20, 2).0, TreeShape::Flat);
    }

    #[test]
    fn tuned_bcast_correct_end_to_end() {
        let preset = mini(2, 3);
        let prog = build_coll(&TunedOpenMpi, &preset, Coll::Bcast, 64, 0).unwrap();
        let mut m = han_machine::Machine::from_preset(&preset);
        let o = ExecOpts::timing(Flavor::OpenMpi.p2p());
        // Buffers were allocated rank-major starting at offset 0.
        let buf0 = BufRange::new(0, 64);
        let (_, mem) = execute_seeded(&mut m, &prog, &o, |mm| {
            mm.write(0, buf0, &[42u8; 64]);
        });
        for r in 0..6 {
            assert_eq!(mem.read(r, BufRange::new(0, 64)), &[42u8; 64], "rank {r}");
        }
    }

    #[test]
    fn tuned_allreduce_correct_end_to_end() {
        let preset = mini(2, 2);
        let prog = build_coll(&TunedOpenMpi, &preset, Coll::Allreduce, 16, 0).unwrap();
        let mut m = han_machine::Machine::from_preset(&preset);
        let o = ExecOpts::timing(Flavor::OpenMpi.p2p());
        let (_, mem) = execute_seeded(&mut m, &prog, &o, |mm| {
            for r in 0..4 {
                let vals: Vec<u8> = (0..4)
                    .flat_map(|i| (((r + 1) * (i + 1)) as f32).to_le_bytes())
                    .collect();
                mm.write(r, BufRange::new(0, 16), &vals);
            }
        });
        for r in 0..4 {
            let out = mem.read(r, BufRange::new(0, 16));
            let got: Vec<f32> = out
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                .collect();
            assert_eq!(got, vec![10.0, 20.0, 30.0, 40.0], "rank {r}");
        }
    }

    #[test]
    fn cost_grows_with_message_size() {
        let preset = mini(4, 2);
        let t_small = time_coll(&TunedOpenMpi, &preset, Coll::Bcast, 1024, 0).unwrap();
        let t_large = time_coll(&TunedOpenMpi, &preset, Coll::Bcast, 1 << 20, 0).unwrap();
        assert!(t_large > t_small * 5);
    }
}
