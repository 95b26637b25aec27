//! Property-based tests over the core invariants.
//!
//! Random machine shapes, message sizes, roots and configurations must
//! always (a) deliver/reduce correct data, (b) be deterministic, and
//! (c) respect basic cost monotonicities.

// Verification loops index several per-rank buffers by rank on purpose.
#![allow(clippy::needless_range_loop)]

use han::colls::stack::build_coll;
use han::mpi::{execute_seeded, BufRange};
use han::prelude::{
    mini, time_coll, Coll, Comm, DataType, ExecOpts, Flavor, Frontier, Han, HanConfig, InterAlg,
    InterModule, IntraModule, Machine, MpiStack, ProgramBuilder, ReduceOp, TunedOpenMpi,
};
use proptest::prelude::*;

fn arb_config() -> impl proptest::strategy::Strategy<Value = HanConfig> {
    (
        1u64..=4096,
        prop_oneof![Just(InterModule::Libnbc), Just(InterModule::Adapt)],
        prop_oneof![Just(IntraModule::Sm), Just(IntraModule::Solo)],
        prop_oneof![
            Just(InterAlg::Chain),
            Just(InterAlg::Binary),
            Just(InterAlg::Binomial)
        ],
    )
        .prop_map(|(fs, imod, smod, alg)| HanConfig {
            fs,
            imod,
            smod,
            ibalg: alg,
            iralg: alg,
            ibs: None,
            irs: None,
            deep: [None; han::core::MAX_DEEP],
            route: None,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// HAN bcast delivers the exact payload for arbitrary shapes, roots,
    /// sizes and configurations.
    #[test]
    fn han_bcast_always_delivers(
        nodes in 1usize..5,
        ppn in 1usize..5,
        bytes in 1u64..3000,
        root_seed in 0usize..100,
        cfg in arb_config(),
    ) {
        let preset = mini(nodes, ppn);
        let n = nodes * ppn;
        let root = root_seed % n;
        let stack = Han::with_config(cfg);
        let prog = build_coll(&stack, &preset, Coll::Bcast, bytes, root).unwrap();
        let mut m = Machine::from_preset(&preset);
        let buf = BufRange::new(0, bytes);
        let payload: Vec<u8> = (0..bytes).map(|i| (i % 251) as u8).collect();
        let (_, mem) = execute_seeded(
            &mut m,
            &prog,
            &ExecOpts::timing(Flavor::OpenMpi.p2p()),
            |mm| mm.write(root, buf, &payload),
        );
        for r in 0..n {
            prop_assert_eq!(mem.read(r, buf), payload.as_slice());
        }
    }

    /// HAN allreduce computes the exact elementwise sum (i32, exact).
    #[test]
    fn han_allreduce_always_sums(
        nodes in 1usize..4,
        ppn in 1usize..4,
        nelem in 1usize..200,
        cfg in arb_config(),
    ) {
        let preset = mini(nodes, ppn);
        let n = nodes * ppn;
        let bytes = (nelem * 4) as u64;
        let comm = Comm::world(n);
        let mut b = ProgramBuilder::new(n);
        let bufs = b.alloc_all(bytes);
        let mut cx = han::colls::stack::BuildCtx::new(&mut b, &preset);
        let stack = Han::with_config(cfg);
        stack.allreduce(
            &mut cx,
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
            &ExecOpts::timing(Flavor::OpenMpi.p2p()),
            |mm| {
                for r in 0..n {
                    let vals: Vec<u8> = (0..nelem)
                        .flat_map(|i| ((r * 31 + i) as i32).to_le_bytes())
                        .collect();
                    mm.write(r, bufs2[r], &vals);
                }
            },
        );
        let expect: Vec<u8> = (0..nelem)
            .flat_map(|i| {
                let s: i32 = (0..n).map(|r| (r * 31 + i) as i32).sum();
                s.to_le_bytes()
            })
            .collect();
        for r in 0..n {
            prop_assert_eq!(mem.read(r, bufs[r]), expect.as_slice());
        }
    }

    /// Determinism: two identical runs produce identical makespans.
    #[test]
    fn execution_is_deterministic(
        nodes in 1usize..4,
        ppn in 1usize..4,
        bytes in 1u64..100_000,
        cfg in arb_config(),
    ) {
        let preset = mini(nodes, ppn);
        let stack = Han::with_config(cfg);
        let a = time_coll(&stack, &preset, Coll::Bcast, bytes, 0).unwrap();
        let b = time_coll(&stack, &preset, Coll::Bcast, bytes, 0).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Cost grows (weakly) with message size, all else equal.
    #[test]
    fn cost_monotone_in_message_size(
        nodes in 2usize..4,
        ppn in 1usize..4,
        base in 64u64..32_768,
    ) {
        let preset = mini(nodes, ppn);
        let stack = Han::with_config(HanConfig::default().with_fs(16 * 1024));
        let t1 = time_coll(&stack, &preset, Coll::Bcast, base, 0).unwrap();
        let t2 = time_coll(&stack, &preset, Coll::Bcast, base * 4, 0).unwrap();
        prop_assert!(t2 >= t1, "4x message can't be cheaper: {} vs {}", t2, t1);
    }

    /// A heterogeneous twin whose per-level overrides restate the uniform
    /// derivation exactly is cost-identical for arbitrary shapes, sizes
    /// and configurations — the heterogeneous code path degenerates to
    /// the uniform model bit for bit.
    #[test]
    fn self_override_hetero_twin_is_cost_identical(
        nodes in 1usize..4,
        ppn in 1usize..5,
        bytes in 1u64..300_000,
        cfg in arb_config(),
    ) {
        let preset = mini(nodes, ppn);
        let lv = preset.level_params();
        let mut twin = preset;
        for k in 0..preset.topology.depth() {
            twin = twin.with_level_override(k, *lv.get(k));
        }
        prop_assert!(twin.is_heterogeneous());
        let stack = Han::with_config(cfg);
        for coll in [Coll::Bcast, Coll::Allreduce] {
            let a = time_coll(&stack, &preset, coll, bytes, 0).unwrap();
            let b = time_coll(&stack, &twin, coll, bytes, 0).unwrap();
            prop_assert_eq!(a, b, "{:?} diverged on the self-override twin", coll);
        }
    }

    /// The tuned baseline is correct for arbitrary sizes too.
    #[test]
    fn tuned_bcast_always_delivers(
        nodes in 1usize..4,
        ppn in 1usize..4,
        bytes in 1u64..600_000,
        root_seed in 0usize..16,
    ) {
        let preset = mini(nodes, ppn);
        let n = nodes * ppn;
        let root = root_seed % n;
        let prog = build_coll(&TunedOpenMpi, &preset, Coll::Bcast, bytes, root).unwrap();
        let mut m = Machine::from_preset(&preset);
        let buf = BufRange::new(0, bytes);
        let payload: Vec<u8> = (0..bytes).map(|i| (i % 253) as u8).collect();
        let (_, mem) = execute_seeded(
            &mut m,
            &prog,
            &ExecOpts::timing(Flavor::OpenMpi.p2p()),
            |mm| mm.write(root, buf, &payload),
        );
        for r in 0..n {
            prop_assert_eq!(mem.read(r, buf), payload.as_slice());
        }
    }
}
