//! Every candidate synthesis enumerates builds the same program as its
//! effective configuration ([`HanConfig::effective`]), at the full
//! message size and at the latency probe. This is the contract that lets
//! `synthesize` simulate each distinct program once: it is checked here
//! over the paper-scale benchmark space and `default_space`, on every
//! preset family.

use han_colls::stack::build_coll;
use han_colls::{Coll, IntraModule};
use han_core::{Han, HanConfig};
use han_machine::{dgx_like, gpu_hier, mini, mini3, socketize, MachinePreset, RailPolicy};
use han_mpi::Program;
use han_synth::search::LAT_PROBE;
use han_synth::{candidates, default_space};
use han_tuner::SearchSpace;
use std::collections::HashMap;

/// The space `repro synth` and the `synth` benchmark search at paper
/// scale.
fn paper_space() -> SearchSpace {
    SearchSpace {
        msg_sizes: vec![16 * 1024, 256 * 1024, 2 << 20, 8 << 20],
        seg_sizes: vec![32 * 1024, 256 * 1024, 1 << 20],
        inter: SearchSpace::standard().inter,
        intra: vec![IntraModule::Sm, IntraModule::Solo],
    }
}

/// Build every candidate whose effective config differs from it, at
/// both sizes, and compare it with its effective config's program.
fn check(preset: &MachinePreset) {
    let topo = &preset.topology;
    let build = |cfg: HanConfig, coll: Coll, m: u64| {
        build_coll(&Han::with_config(cfg), preset, coll, m, 0).unwrap()
    };
    let mut collapsed = 0;
    for space in [default_space(), paper_space()] {
        for coll in [Coll::Bcast, Coll::Allreduce, Coll::Reduce] {
            for &m in &space.msg_sizes {
                let cands = candidates(&space, preset, coll, m);
                for size in [m, m.clamp(1, LAT_PROBE)] {
                    let mut built: HashMap<HanConfig, Program> = HashMap::new();
                    for c in &cands {
                        let eff = c.cfg.effective(topo, coll, size);
                        // A canonical candidate builds its own program.
                        if eff == c.cfg {
                            continue;
                        }
                        collapsed += 1;
                        let want = built.entry(eff).or_insert_with(|| build(eff, coll, size));
                        assert!(
                            build(c.cfg, coll, size) == *want,
                            "{} {coll:?} m={size}: {} and its effective {eff} differ",
                            preset.name,
                            c.cfg
                        );
                    }
                }
            }
        }
    }
    assert!(collapsed > 0, "{}: no candidate collapsed", preset.name);
}

#[test]
fn two_level() {
    check(&mini(4, 4));
}

#[test]
fn three_level() {
    check(&mini3(2, 2, 2));
    check(&mini3(3, 2, 2));
}

#[test]
fn socketized() {
    check(&socketize(mini(3, 4), 2, 0.6));
}

#[test]
fn multi_rail() {
    check(&dgx_like(2, 4));
    check(&dgx_like(3, 2).with_rails(4, RailPolicy::RoundRobin));
}

#[test]
fn heterogeneous() {
    check(&gpu_hier(&[3, 2, 2]));
}
