//! Composed reference collectives for guideline verification.
//!
//! Performance-guideline checking (Hunold & Träff) compares a library's
//! specialized collective against a semantically equivalent *composition*
//! of other collectives it also ships: a tuned `MPI_Allreduce` should
//! never lose to `MPI_Reduce` followed by `MPI_Bcast`, and `MPI_Bcast`
//! should never lose to `MPI_Scatter` followed by `MPI_Allgather`. These
//! mock-ups chain the existing HAN builders through their completion
//! frontiers — they are upper-bound reference implementations, not
//! production paths, and `han-verify` simulates both sides of each
//! inequality on the same machine.

use crate::allreduce::build_reduce;
use crate::bcast::build_bcast;
use crate::config::HanConfig;
use crate::extend::{build_allgather, build_scatter};
use han_colls::stack::{BuildCtx, Coll};
use han_colls::Frontier;
use han_machine::{Machine, MachinePreset};
use han_mpi::{execute, BufRange, Comm, DataType, ExecOpts, ProgramBuilder, ReduceOp};
use han_sim::Time;

/// `Allreduce` as `Reduce`-to-rank-0 chained into `Bcast`-from-rank-0 via
/// the reduce frontier. Semantically equivalent to [`build_allreduce`]
/// (every rank ends with the reduction), but without its cross-phase
/// pipeline overlap — the specialized builder must never be slower.
///
/// [`build_allreduce`]: crate::allreduce::build_allreduce
#[allow(clippy::too_many_arguments)]
pub fn composed_allreduce(
    cx: &mut BuildCtx,
    cfg: &HanConfig,
    comm: &Comm,
    bufs: &[BufRange],
    op: ReduceOp,
    dtype: DataType,
    deps: &Frontier,
) -> Frontier {
    let f = build_reduce(cx, cfg, comm, 0, bufs, op, dtype, deps);
    build_bcast(cx, cfg, comm, 0, bufs, &f)
}

/// `Bcast` as `Scatter` chained into `Allgather`: the root scatters one
/// `block`-byte slice of its buffer to each rank's own slot, then the
/// allgather reassembles the full array everywhere. Every `bufs[l]` must
/// hold `block · n` bytes; the broadcast payload is the root's buffer.
pub fn composed_bcast(
    cx: &mut BuildCtx,
    cfg: &HanConfig,
    comm: &Comm,
    root: usize,
    bufs: &[BufRange],
    block: u64,
    deps: &Frontier,
) -> Frontier {
    let n = comm.size();
    if n == 1 {
        return deps.clone();
    }
    let dst: Vec<BufRange> = (0..n)
        .map(|l| bufs[l].slice(l as u64 * block, block))
        .collect();
    let f = build_scatter(cx, cfg, comm, root, bufs[root], &dst, deps);
    build_allgather(cx, cfg, comm, bufs, block, &f)
}

/// Simulated makespan of the composed mock-up for `coll` moving `m`
/// payload bytes, or `None` when no composition is defined. The Bcast
/// composition rounds the payload up to a whole number of per-rank blocks
/// (`n · ⌈m/n⌉` bytes), so it is a weakly pessimistic — hence still
/// sound — upper-bound reference.
pub fn time_composed(preset: &MachinePreset, cfg: &HanConfig, coll: Coll, m: u64) -> Option<Time> {
    let n = preset.topology.world_size();
    let comm = Comm::world(n);
    let mut b = ProgramBuilder::new(n);
    match coll {
        Coll::Allreduce => {
            let bufs = b.alloc_all(m.max(1));
            let mut cx = BuildCtx::new(&mut b, preset);
            composed_allreduce(
                &mut cx,
                cfg,
                &comm,
                &bufs,
                ReduceOp::Sum,
                DataType::Float32,
                &Frontier::empty(n),
            );
        }
        Coll::Bcast => {
            let block = m.div_ceil(n as u64).max(1);
            let bufs = b.alloc_all(block * n as u64);
            let mut cx = BuildCtx::new(&mut b, preset);
            composed_bcast(&mut cx, cfg, &comm, 0, &bufs, block, &Frontier::empty(n));
        }
        _ => return None,
    }
    let prog = b.build();
    let mut machine = Machine::from_preset(preset);
    let opts = ExecOpts::timing(han_machine::Flavor::OpenMpi.p2p());
    Some(execute(&mut machine, &prog, &opts).makespan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_machine::mini;
    use han_mpi::execute_seeded;

    #[test]
    fn composed_allreduce_sums_everywhere() {
        let preset = mini(2, 3);
        let n = 6;
        let comm = Comm::world(n);
        let cfg = HanConfig::default().with_fs(64);
        let mut b = ProgramBuilder::new(n);
        let bufs = b.alloc_all(256);
        let mut cx = BuildCtx::new(&mut b, &preset);
        composed_allreduce(
            &mut cx,
            &cfg,
            &comm,
            &bufs,
            ReduceOp::Sum,
            DataType::Int32,
            &Frontier::empty(n),
        );
        let prog = b.build();
        let mut m = Machine::from_preset(&preset);
        let bufs2 = bufs.clone();
        let (_, mem) = execute_seeded(
            &mut m,
            &prog,
            &ExecOpts::timing(han_machine::Flavor::OpenMpi.p2p()),
            |mm| {
                for r in 0..n {
                    let vals: Vec<u8> = (0..64)
                        .flat_map(|i| ((r * 7 + i) as i32).to_le_bytes())
                        .collect();
                    mm.write(r, bufs2[r], &vals);
                }
            },
        );
        let expect: Vec<u8> = (0..64)
            .flat_map(|i| {
                let s: i32 = (0..n).map(|r| (r * 7 + i) as i32).sum();
                s.to_le_bytes()
            })
            .collect();
        for r in 0..n {
            assert_eq!(mem.read(r, bufs[r]), expect.as_slice(), "rank {r}");
        }
    }

    #[test]
    fn composed_bcast_delivers_everywhere() {
        let preset = mini(3, 2);
        let n = 6;
        let comm = Comm::world(n);
        let cfg = HanConfig::default();
        let block = 8u64;
        let mut b = ProgramBuilder::new(n);
        let bufs = b.alloc_all(block * n as u64);
        let mut cx = BuildCtx::new(&mut b, &preset);
        composed_bcast(&mut cx, &cfg, &comm, 0, &bufs, block, &Frontier::empty(n));
        let prog = b.build();
        let mut m = Machine::from_preset(&preset);
        let payload: Vec<u8> = (0..block * n as u64).map(|i| (i % 251) as u8).collect();
        let bufs2 = bufs.clone();
        let (_, mem) = execute_seeded(
            &mut m,
            &prog,
            &ExecOpts::timing(han_machine::Flavor::OpenMpi.p2p()),
            |mm| mm.write(0, bufs2[0], &payload),
        );
        for r in 0..n {
            assert_eq!(mem.read(r, bufs[r]), payload.as_slice(), "rank {r}");
        }
    }

    #[test]
    fn time_composed_covers_only_defined_compositions() {
        let preset = mini(2, 2);
        let cfg = HanConfig::default().with_fs(16 * 1024);
        assert!(time_composed(&preset, &cfg, Coll::Allreduce, 100_000).is_some());
        assert!(time_composed(&preset, &cfg, Coll::Bcast, 100_000).is_some());
        assert!(time_composed(&preset, &cfg, Coll::Gather, 100_000).is_none());
    }
}
