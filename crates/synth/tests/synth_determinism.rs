//! Determinism wall: the emitted Pareto fronts, the samples, the pruned
//! set and every counter are bit-identical across worker counts.

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
            assert_eq!(one.pruned, many.pruned, "{what}");
            assert_eq!(one.beamed, 0, "{what}");
            assert_eq!(many.beamed, 0, "{what}");
            assert_eq!(one.skipped, many.skipped, "{what}");
            let samples = |r: &SynthResult| -> Vec<_> {
                r.samples
                    .iter()
                    .map(|s| {
                        let objectives = (s.lat, s.bw, s.bound_lat, s.bound_bw);
                        (s.coll, s.m, s.cfg, s.menu, objectives)
                    })
                    .collect()
            };
            assert_eq!(samples(&one), samples(&many), "{what}");
            let pruned = |r: &SynthResult| -> Vec<_> {
                r.pruned_candidates
                    .iter()
                    .map(|p| (p.coll, p.m, p.cfg, p.menu, p.lat, p.bound_lat, p.bound_bw))
                    .collect()
            };
            assert_eq!(pruned(&one), pruned(&many), "{what}");
        }
        assert!(one.pruned > 0, "{}: the scan pruned nothing", preset.name);
    }
}
