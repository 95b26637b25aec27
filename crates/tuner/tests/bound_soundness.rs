//! Admissibility of the analytic lower bound: on random HAN configurations
//! over every preset family, `lower_bound` never exceeds the simulated
//! cost.
//!
//! The configurations cover every axis the bound follows: `fs` (including
//! segments of exactly the eager limit, 4096 B, and one byte past it,
//! `m < fs`, and non-power-of-two messages), both inter modules, every
//! `InterAlg` for both trees, ADAPT's `ibs`/`irs` pieces, segment routing
//! and per-level submodule overrides. The presets cover two- and
//! three-level machines, a socketized node, heterogeneous levels with
//! `launch` costs, and multi-rail NICs under both rail policies.

use han_colls::stack::{time_coll, Coll};
use han_colls::{InterAlg, InterModule, IntraModule};
use han_core::{Han, HanConfig, MAX_DEEP};
use han_machine::{dgx_like, gpu_hier, mini, mini3, socketize, MachinePreset, RailPolicy};
use han_tuner::lower_bound;
use proptest::prelude::*;

fn preset(kind: usize, a: usize, b: usize) -> MachinePreset {
    match kind {
        0 => mini(a, b),
        1 => mini3(a, 2, b),
        2 => socketize(mini(2, 8), 2, 0.6),
        3 => dgx_like(a, b),
        4 => dgx_like(a, b).with_rails(4, RailPolicy::RoundRobin),
        _ => gpu_hier(&[a, 2, b]),
    }
}

fn alg() -> impl Strategy<Value = InterAlg> {
    prop_oneof![
        Just(InterAlg::Chain),
        Just(InterAlg::Binary),
        Just(InterAlg::Binomial)
    ]
}

fn smod() -> impl Strategy<Value = IntraModule> {
    prop_oneof![Just(IntraModule::Sm), Just(IntraModule::Solo)]
}

/// Message sizes: tiny, around the eager limit, and arbitrary.
fn msg() -> impl Strategy<Value = u64> {
    prop_oneof![
        1u64..64,
        prop_oneof![Just(4095u64), Just(4096), Just(4097), Just(8193)],
        1u64..300_000,
    ]
}

/// Segment widths: the eager limit and one past it, and arbitrary.
fn width() -> impl Strategy<Value = u64> {
    prop_oneof![Just(4096u64), Just(4097), 512u64..200_000]
}

/// A sub-segment width as a fraction of `fs`, or none.
fn sub() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![
        Just(None),
        Just(Some(4096u64)),
        Just(Some(4097)),
        (1u64..5).prop_map(Some)
    ]
}

fn config() -> impl Strategy<Value = HanConfig> {
    (
        (
            width(),
            prop_oneof![Just(InterModule::Libnbc), Just(InterModule::Adapt)],
            smod(),
        ),
        (alg(), alg(), sub(), sub()),
        (
            prop_oneof![Just(None), (1u64..8, alg()).prop_map(Some)],
            smod(),
            smod(),
            0u64..4,
        ),
    )
        .prop_map(
            |((fs, imod, smod), (ibalg, iralg, ibs, irs), (route, d0, d1, deep_mask))| {
                // Fractional sub-widths (1..5 encodes fs/2..fs/5) keep the
                // piece count small.
                let sub =
                    |s: Option<u64>| s.map(|x| if x < 5 { (fs / (x + 1)).max(512) } else { x });
                let mut deep = [None; MAX_DEEP];
                if deep_mask & 1 != 0 {
                    deep[0] = Some(d0);
                }
                if deep_mask & 2 != 0 {
                    deep[1] = Some(d1);
                }
                HanConfig {
                    fs,
                    imod,
                    smod,
                    ibalg,
                    iralg,
                    ibs: sub(ibs),
                    irs: sub(irs),
                    deep,
                    route: route.map(|(pri, alt)| han_core::SegRoute {
                        pri: pri as u8,
                        alt,
                    }),
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// `lower_bound ≤ time_coll` for Bcast, Allreduce and Reduce.
    #[test]
    fn bound_never_exceeds_simulated_cost(
        kind in 0usize..6,
        a in 1usize..5,
        b in 1usize..5,
        coll in prop_oneof![Just(Coll::Bcast), Just(Coll::Allreduce), Just(Coll::Reduce)],
        m in msg(),
        cfg in config(),
    ) {
        let preset = preset(kind, a, b);
        let lb = lower_bound(&preset, &cfg, coll, m).expect("bounded collective");
        let t = time_coll(&Han::with_config(cfg), &preset, coll, m, 0).unwrap();
        prop_assert!(
            lb <= t,
            "{} {:?} {coll:?} m={m} cfg={cfg:?}: bound {lb} > cost {t}",
            preset.name,
            preset.topology.levels()
        );
    }
}
