//! Correctness wall: every schedule synthesis emits must pass the
//! symbolic oracle (race-free, and correct in every legal execution
//! order), on two-level, three-level, and heterogeneous (dgx-like)
//! machines.

use han_colls::{Coll, InterAlg, InterModule, IntraModule};
use han_core::HanConfig;
use han_machine::{dgx_like, mini, mini3};
use han_synth::{candidates, synthesize, verify_schedule, SynthOpts};
use han_tuner::SearchSpace;
use proptest::prelude::*;

fn small_space() -> SearchSpace {
    SearchSpace {
        msg_sizes: vec![4 * 1024, 64 * 1024, 512 * 1024],
        seg_sizes: vec![8 * 1024, 64 * 1024],
        inter: vec![
            (InterModule::Libnbc, InterAlg::Binomial),
            (InterModule::Adapt, InterAlg::Binomial),
            (InterModule::Adapt, InterAlg::Chain),
        ],
        intra: vec![IntraModule::Sm, IntraModule::Solo],
    }
}

/// Every point of every emitted Pareto front passes the oracle (the
/// `repro synth` gate, in miniature).
#[test]
fn emitted_fronts_pass_the_oracle() {
    let presets = [mini(2, 2), mini3(2, 2, 2), dgx_like(2, 4)];
    let space = small_space();
    for preset in &presets {
        let r = synthesize(
            preset,
            &space,
            &[Coll::Bcast, Coll::Allreduce],
            SynthOpts::default(),
        );
        assert!(r.skipped.is_empty(), "{:?}", r.skipped);
        let mut checked = 0;
        for f in &r.fronts {
            for p in &f.points {
                verify_schedule(preset, &p.cfg, f.coll, f.m, 0).unwrap();
                checked += 1;
            }
        }
        assert!(checked > 0);
    }
}

/// Synthesized winners stay correct for non-leader roots too.
#[test]
fn winners_deliver_from_any_root() {
    let preset = mini3(2, 2, 2);
    let space = small_space();
    let r = synthesize(&preset, &space, &[Coll::Bcast], SynthOpts::default());
    let n = preset.topology.world_size();
    for f in &r.fronts {
        let w = f.winner().unwrap();
        for root in [1, n - 1] {
            verify_schedule(&preset, &w.cfg, Coll::Bcast, f.m, root).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any candidate the synthesis space enumerates — routed,
    /// sub-segmented, decoupled-tree, non-pow2 — is correct, not just
    /// the ones that end up on a front.
    #[test]
    fn any_candidate_is_buildable_and_correct(
        preset_pick in 0usize..3,
        coll_pick in 0usize..3,
        m_exp in 12u32..19,
        pick in 0usize..1000,
        root_seed in 0usize..64,
    ) {
        let preset = match preset_pick {
            0 => mini(2, 2),
            1 => mini3(2, 2, 2),
            _ => dgx_like(2, 4),
        };
        let coll = [Coll::Bcast, Coll::Allreduce, Coll::Reduce][coll_pick];
        let m = 1u64 << m_exp;
        let space = small_space();
        let cands = candidates(&space, &preset, coll, m);
        let cfg = cands[pick % cands.len()].cfg;
        let root = root_seed % preset.topology.world_size();
        verify_schedule(&preset, &cfg, coll, m, root).unwrap();
    }

    /// Routed configurations deliver across the whole (pri, alt) grid on
    /// payloads that exercise both route windows and an uneven tail.
    #[test]
    fn routed_schedules_deliver(
        pri in 0u32..8,
        alt_pick in 0usize..3,
        nseg in 2u64..24,
        tail in 0u64..4096,
    ) {
        let alt = [InterAlg::Chain, InterAlg::Binary, InterAlg::Binomial][alt_pick];
        let fs = 4096u64;
        let m = ((fs * nseg + tail) / 4) * 4; // reduction-aligned
        let cfg = HanConfig {
            fs,
            imod: InterModule::Adapt,
            ..HanConfig::default()
        }
        .with_route(pri as u8, alt);
        let preset = mini(3, 2);
        verify_schedule(&preset, &cfg, Coll::Bcast, m, 0).unwrap();
        verify_schedule(&preset, &cfg, Coll::Allreduce, m, 0).unwrap();
    }
}
