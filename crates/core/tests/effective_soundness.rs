//! Soundness of [`HanConfig::effective`]: on random configurations over
//! every preset family, a configuration and its effective configuration
//! build the same program.
//!
//! The configurations cover every field a rule resets: non-power-of-two
//! `fs` at, above and below the message size; `ibs`/`irs` above, at and
//! below both `fs` and `m`; segment routing with any `pri` and `alt`; and
//! `deep` overrides at every level, including levels the topology lacks.
//! Messages include 0, 1 and odd sizes, roots range over the whole
//! machine, and the presets cover two-level machines with 2–5 nodes,
//! three-level ones, a socketized node, heterogeneous levels with
//! `launch` costs (which widen segments past `fs`) and multi-rail NICs
//! under both rail policies.

use han_colls::stack::{build_coll, Coll};
use han_colls::{InterAlg, InterModule, IntraModule};
use han_core::{Han, HanConfig, SegRoute, MAX_DEEP};
use han_machine::{dgx_like, gpu_hier, mini, mini3, socketize, MachinePreset, RailPolicy};
use proptest::prelude::*;

fn preset(kind: usize, a: usize, b: usize) -> MachinePreset {
    match kind {
        0 => mini(a + 1, b),
        1 => mini3(a, 2, b),
        2 => socketize(mini(a, 4), 2, 0.6),
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

/// Message sizes: empty, one byte, odd, and arbitrary.
fn msg() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(1u64),
        (0u64..40_000).prop_map(|x| 2 * x + 1),
        1u64..120_000,
    ]
}

/// A width relative to a reference size `r`: at it, just above or below
/// it, about a k-th of it (often the exact split `⌈r/k⌉`, as synthesis
/// enumerates), or arbitrary.
fn relative(pick: u64, x: u64, r: u64) -> u64 {
    match pick {
        0 => r,
        1 => r + 1 + x % 3,
        2 => r.saturating_sub(1 + x % 3),
        3 => r.div_ceil(2 + x % 6) + (x / 8) % 2 * (x % 7),
        _ => 256 + x % 150_000,
    }
    .max(1)
}

/// A sub-segment width relative to `fs` or `m`, or none.
fn sub(pick: u64, x: u64, fs: u64, m: u64) -> Option<u64> {
    match pick {
        0 => None,
        p if p < 6 => Some(relative(p - 1, x, fs)),
        p => Some(relative(p - 6, x, m)),
    }
    // Keep the sub-segment count small.
    .map(|s| s.max(fs / 16).max(64))
}

fn module(pick: u64) -> Option<IntraModule> {
    match pick {
        0 => None,
        1 => Some(IntraModule::Sm),
        _ => Some(IntraModule::Solo),
    }
}

/// A message size and a configuration for it.
fn case() -> impl Strategy<Value = (u64, HanConfig)> {
    (
        msg(),
        (0u64..5, 0u64..1_000_000),
        (
            prop_oneof![Just(InterModule::Libnbc), Just(InterModule::Adapt)],
            smod(),
            alg(),
            alg(),
        ),
        (0u64..11, 0u64..11, 0u64..1_000_000),
        prop_oneof![
            Just(None),
            (0u64..10, alg()).prop_map(Some),
            (10u64..13, alg()).prop_map(Some)
        ],
        proptest::collection::vec(0u64..3, MAX_DEEP),
    )
        .prop_map(
            |(m, (fs_pick, fx), (imod, smod, ibalg, iralg), (ibs, irs, sx), route, deep)| {
                // Keep the HAN segment count small.
                let fs = relative(fs_pick, fx, m).max(m / 64);
                let mut d = [None; MAX_DEEP];
                for (k, &p) in deep.iter().enumerate() {
                    d[k] = module(p);
                }
                let cfg = HanConfig {
                    fs,
                    imod,
                    smod,
                    ibalg,
                    iralg,
                    ibs: sub(ibs, sx, fs, m),
                    irs: sub(irs, sx / 7, fs, m),
                    deep: d,
                    // `pri` anywhere in 0..10, or one off the segment
                    // count `fs` alone gives (which a reduction's element
                    // rounding can raise, and coarsening lower).
                    route: route.map(|(pri, alt)| SegRoute {
                        pri: if pri < 10 {
                            pri as u8
                        } else {
                            (m.div_ceil(fs) + pri).saturating_sub(11) as u8
                        },
                        alt,
                    }),
                };
                (m, cfg)
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    /// `build_coll(cfg) == build_coll(cfg.effective(..))` for every
    /// collective and root, and the effective config is a fixed point.
    #[test]
    fn effective_config_builds_the_same_program(
        kind in 0usize..6,
        a in 1usize..5,
        b in 1usize..5,
        coll in prop_oneof![
            Just(Coll::Bcast),
            Just(Coll::Allreduce),
            Just(Coll::Reduce),
            prop_oneof![
                Just(Coll::Gather),
                Just(Coll::Scatter),
                Just(Coll::Allgather),
                Just(Coll::Barrier)
            ]
        ],
        (m, cfg) in case(),
        root_seed in 0usize..64,
    ) {
        let preset = preset(kind, a, b);
        let topo = &preset.topology;
        let root = root_seed % topo.world_size();
        let eff = cfg.effective(topo, coll, m);
        prop_assert_eq!(eff.effective(topo, coll, m), eff);
        let build = |c: HanConfig| build_coll(&Han::with_config(c), &preset, coll, m, root);
        prop_assert!(
            build(cfg) == build(eff),
            "{} {:?} {coll:?} m={m} root={root}: {cfg:?} and its effective {eff:?} build different programs",
            preset.name,
            topo.levels()
        );
    }
}
