//! Determinism wall: the emitted Pareto fronts are bit-identical across
//! worker counts.

use han_colls::{Coll, InterAlg, InterModule, IntraModule};
use han_machine::{mini, mini3, MachinePreset};
use han_synth::{synthesize, SynthOpts, SynthResult};
use han_tuner::SearchSpace;

fn space() -> SearchSpace {
    SearchSpace {
        msg_sizes: vec![16 * 1024, 256 * 1024],
        seg_sizes: vec![16 * 1024, 128 * 1024],
        inter: vec![
            (InterModule::Libnbc, InterAlg::Binomial),
            (InterModule::Adapt, InterAlg::Binomial),
            (InterModule::Adapt, InterAlg::Chain),
        ],
        intra: vec![IntraModule::Sm, IntraModule::Solo],
    }
}

const COLLS: [Coll; 3] = [Coll::Bcast, Coll::Allreduce, Coll::Reduce];

fn run(preset: &MachinePreset, opts: SynthOpts) -> SynthResult {
    synthesize(preset, &space(), &COLLS, opts)
}

fn assert_same_fronts(a: &SynthResult, b: &SynthResult, what: &str) {
    assert_eq!(a.fronts.len(), b.fronts.len(), "{what}: front count");
    for (fa, fb) in a.fronts.iter().zip(&b.fronts) {
        assert_eq!(fa, fb, "{what}: front for ({:?}, {})", fa.coll, fa.m);
    }
}

#[test]
fn fronts_are_identical_across_worker_counts() {
    for preset in [mini(2, 2), mini3(2, 2, 2)] {
        let run_on = |workers| {
            run(
                &preset,
                SynthOpts {
                    workers: Some(workers),
                },
            )
        };
        let one = run_on(1);
        for workers in [2, 3, 8] {
            let many = run_on(workers);
            let what = format!("{}: 1 vs {workers} workers", preset.name);
            assert_same_fronts(&one, &many, &what);
            // The scan itself is deterministic too, not just the front.
            assert_eq!(one.simulated, many.simulated, "{what}");
            assert_eq!(one.runs, many.runs, "{what}");
            assert_eq!(one.beamed, many.beamed, "{what}");
            assert_eq!(one.skipped, many.skipped, "{what}");
            assert_eq!(one.samples.len(), many.samples.len(), "{what}");
            for (sa, sb) in one.samples.iter().zip(&many.samples) {
                assert_eq!(
                    (
                        sa.coll,
                        sa.m,
                        sa.cfg,
                        sa.lat,
                        sa.bw,
                        sa.bound_lat,
                        sa.bound_bw
                    ),
                    (
                        sb.coll,
                        sb.m,
                        sb.cfg,
                        sb.lat,
                        sb.bw,
                        sb.bound_lat,
                        sb.bound_bw
                    ),
                    "{what}"
                );
            }
        }
    }
}
