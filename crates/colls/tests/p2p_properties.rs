//! Property-based tests over the raw collective algorithms: every
//! algorithm must deliver/reduce exact data for arbitrary communicator
//! shapes, roots, message sizes and segmentations — including subset
//! communicators with non-contiguous ranks.

// Verification loops index several per-rank buffers by rank on purpose.
#![allow(clippy::needless_range_loop)]

use han_colls::p2p::{
    dissemination_barrier, rabenseifner_allreduce, rd_allreduce, ring_allgather, tree_bcast,
    tree_reduce,
};
use han_colls::{Frontier, TreeShape};
use han_machine::{mini, Flavor, Machine};
use han_mpi::{execute_seeded, BufRange, Comm, DataType, ExecOpts, ProgramBuilder, ReduceOp};
use proptest::prelude::*;

fn arb_shape() -> impl Strategy<Value = TreeShape> {
    prop_oneof![
        Just(TreeShape::Flat),
        Just(TreeShape::Chain),
        Just(TreeShape::Binary),
        Just(TreeShape::Binomial),
        (2u32..5).prop_map(TreeShape::Kary),
    ]
}

/// A random subset communicator over a 4x4 machine (>= 2 members).
fn arb_subset_comm() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(any::<bool>(), 16).prop_filter_map("at least two members", |mask| {
        let ranks: Vec<usize> = mask
            .iter()
            .enumerate()
            .filter(|(_, &m)| m)
            .map(|(i, _)| i)
            .collect();
        (ranks.len() >= 2).then_some(ranks)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn tree_bcast_delivers_on_subset_comms(
        ranks in arb_subset_comm(),
        shape in arb_shape(),
        bytes in 1u64..2000,
        seg in prop_oneof![Just(None), (8u64..512).prop_map(Some)],
        root_seed in 0usize..16,
    ) {
        let preset = mini(4, 4);
        let comm = Comm::from_ranks(ranks.clone());
        let n = comm.size();
        let root = root_seed % n;
        let mut b = ProgramBuilder::new(16);
        let bufs: Vec<BufRange> = (0..n).map(|l| b.alloc(comm.world_rank(l), bytes)).collect();
        tree_bcast(&mut b, &comm, root, &bufs, &Frontier::empty(n), shape, seg);
        let prog = b.build();
        let mut m = Machine::from_preset(&preset);
        let payload: Vec<u8> = (0..bytes).map(|i| (i % 247) as u8).collect();
        let root_buf = bufs[root];
        let root_world = comm.world_rank(root);
        let (_, mem) = execute_seeded(
            &mut m,
            &prog,
            &ExecOpts::timing(Flavor::OpenMpi.p2p()),
            |mm| mm.write(root_world, root_buf, &payload),
        );
        for l in 0..n {
            prop_assert_eq!(mem.read(comm.world_rank(l), bufs[l]), payload.as_slice());
        }
    }

    #[test]
    fn tree_reduce_sums_on_subset_comms(
        ranks in arb_subset_comm(),
        shape in arb_shape(),
        nelem in 1usize..64,
        seg in prop_oneof![Just(None), (8u64..256).prop_map(|s| Some(s / 4 * 4))],
        root_seed in 0usize..16,
    ) {
        let seg = seg.filter(|&s| s >= 4);
        let preset = mini(4, 4);
        let comm = Comm::from_ranks(ranks.clone());
        let n = comm.size();
        let root = root_seed % n;
        let bytes = (nelem * 4) as u64;
        let mut b = ProgramBuilder::new(16);
        let bufs: Vec<BufRange> = (0..n).map(|l| b.alloc(comm.world_rank(l), bytes)).collect();
        tree_reduce(
            &mut b, &comm, root, &bufs, &Frontier::empty(n), shape, seg,
            ReduceOp::Sum, DataType::Int32, true,
        );
        let prog = b.build();
        let mut m = Machine::from_preset(&preset);
        let bufs2 = bufs.clone();
        let comm2 = comm.clone();
        let (_, mem) = execute_seeded(
            &mut m,
            &prog,
            &ExecOpts::timing(Flavor::OpenMpi.p2p()),
            |mm| {
                for l in 0..n {
                    let vals: Vec<u8> = (0..nelem)
                        .flat_map(|i| ((l * 17 + i) as i32).to_le_bytes())
                        .collect();
                    mm.write(comm2.world_rank(l), bufs2[l], &vals);
                }
            },
        );
        let expect: Vec<u8> = (0..nelem)
            .flat_map(|i| {
                let s: i32 = (0..n).map(|l| (l * 17 + i) as i32).sum();
                s.to_le_bytes()
            })
            .collect();
        prop_assert_eq!(mem.read(comm.world_rank(root), bufs[root]), expect.as_slice());
    }

    #[test]
    fn allreduce_variants_agree(
        ranks in arb_subset_comm(),
        nelem in 1usize..64,
    ) {
        let preset = mini(4, 4);
        let comm = Comm::from_ranks(ranks.clone());
        let n = comm.size();
        let bytes = (nelem * 4) as u64;
        let expect: Vec<u8> = (0..nelem)
            .flat_map(|i| {
                let s: i32 = (0..n).map(|l| (l * 5 + i) as i32).sum();
                s.to_le_bytes()
            })
            .collect();
        for which in 0..2 {
            let mut b = ProgramBuilder::new(16);
            let bufs: Vec<BufRange> =
                (0..n).map(|l| b.alloc(comm.world_rank(l), bytes)).collect();
            if which == 0 {
                rd_allreduce(&mut b, &comm, &bufs, &Frontier::empty(n), ReduceOp::Sum, DataType::Int32, true);
            } else {
                rabenseifner_allreduce(&mut b, &comm, &bufs, &Frontier::empty(n), ReduceOp::Sum, DataType::Int32, true);
            }
            let prog = b.build();
            let mut m = Machine::from_preset(&preset);
            let bufs2 = bufs.clone();
            let comm2 = comm.clone();
            let (_, mem) = execute_seeded(
                &mut m,
                &prog,
                &ExecOpts::timing(Flavor::OpenMpi.p2p()),
                |mm| {
                    for l in 0..n {
                        let vals: Vec<u8> = (0..nelem)
                            .flat_map(|i| ((l * 5 + i) as i32).to_le_bytes())
                            .collect();
                        mm.write(comm2.world_rank(l), bufs2[l], &vals);
                    }
                },
            );
            for l in 0..n {
                prop_assert_eq!(
                    mem.read(comm.world_rank(l), bufs[l]),
                    expect.as_slice(),
                    "variant {} local {}", which, l
                );
            }
        }
    }

    #[test]
    fn allgather_delivers_on_subset_comms(
        ranks in arb_subset_comm(),
        block in 1u64..64,
    ) {
        let preset = mini(4, 4);
        let comm = Comm::from_ranks(ranks.clone());
        let n = comm.size();
        let mut b = ProgramBuilder::new(16);
        let bufs: Vec<BufRange> = (0..n)
            .map(|l| b.alloc(comm.world_rank(l), block * n as u64))
            .collect();
        ring_allgather(&mut b, &comm, &bufs, block, &Frontier::empty(n));
        let prog = b.build();
        let mut m = Machine::from_preset(&preset);
        let bufs2 = bufs.clone();
        let comm2 = comm.clone();
        let (_, mem) = execute_seeded(
            &mut m,
            &prog,
            &ExecOpts::timing(Flavor::OpenMpi.p2p()),
            |mm| {
                for l in 0..n {
                    let mine = bufs2[l].slice(l as u64 * block, block);
                    mm.write(comm2.world_rank(l), mine, &vec![(l + 1) as u8; block as usize]);
                }
            },
        );
        let expect: Vec<u8> = (0..n)
            .flat_map(|l| vec![(l + 1) as u8; block as usize])
            .collect();
        for l in 0..n {
            prop_assert_eq!(mem.read(comm.world_rank(l), bufs[l]), expect.as_slice());
        }
    }

    #[test]
    fn barrier_is_a_synchronization_point(
        ranks in arb_subset_comm(),
        skew_seed in 0u64..1000,
    ) {
        let preset = mini(4, 4);
        let comm = Comm::from_ranks(ranks.clone());
        let n = comm.size();
        let mut b = ProgramBuilder::new(16);
        let f = dissemination_barrier(&mut b, &comm, &Frontier::empty(n));
        let exits: Vec<_> = (0..n).map(|l| f.get(l).to_vec()).collect();
        let prog = b.build();
        let mut m = Machine::from_preset(&preset);
        let mut skews = vec![han_sim::Time::ZERO; 16];
        for (i, &w) in ranks.iter().enumerate() {
            skews[w] = han_sim::Time::from_us((skew_seed * (i as u64 + 3)) % 700);
        }
        let max_member_skew = ranks.iter().map(|&w| skews[w]).max().unwrap();
        let rep = han_mpi::execute(
            &mut m,
            &prog,
            &ExecOpts::timing(Flavor::OpenMpi.p2p()).with_skew(skews),
        );
        for (l, ops) in exits.iter().enumerate() {
            // A rank exits the barrier when ALL its frontier ops complete
            // (individual eager sends may finish locally earlier).
            let exit = ops.iter().map(|&op| rep.finish(op)).max().unwrap();
            prop_assert!(
                exit >= max_member_skew,
                "local {} exited at {} before last arrival {}",
                l, exit, max_member_skew
            );
        }
    }
}
