//! The task-based cost model is a pure function of its inputs.
//!
//! On two- and three-level presets over `SearchSpace::small()`, a
//! prediction made on a fresh `TaskBench` must equal the same prediction
//! made after a random walk over other `(coll, m, cfg)` triples, and the
//! benchmark runs and virtual time a walk charges must not depend on the
//! order of the walk. Half of each walk shares the target's configuration,
//! the only way an earlier walk could reach the measurements it reuses.

use han_colls::stack::Coll;
use han_core::HanConfig;
use han_machine::{mini, mini3, shaheen2_ppn, MachinePreset};
use han_tuner::model::predict;
use han_tuner::{SearchSpace, TaskBench};
use proptest::prelude::*;

type Triple = (Coll, u64, HanConfig);

fn preset(kind: usize) -> MachinePreset {
    match kind {
        0 => mini(4, 4),
        1 => shaheen2_ppn(8, 4),
        _ => mini3(2, 2, 2),
    }
}

/// Every triple the task-based tuner predicts on `preset`.
fn triples(preset: &MachinePreset) -> Vec<Triple> {
    let space = SearchSpace::small();
    let mut out = Vec::new();
    for coll in [Coll::Bcast, Coll::Allreduce] {
        for &m in &space.msg_sizes {
            for cfg in space.configs_for(m, &preset.topology, false) {
                out.push((coll, m, cfg));
            }
        }
    }
    out
}

fn run(tb: &mut TaskBench, &(coll, m, cfg): &Triple) -> u64 {
    predict(tb, &cfg, coll, m).unwrap().as_ps()
}

/// Walk `walk` on a fresh bench; return the bench and what it charged.
fn walked(preset: &MachinePreset, all: &[Triple], walk: &[usize]) -> (TaskBench, u64, u64) {
    let mut tb = TaskBench::new(preset);
    for &i in walk {
        run(&mut tb, &all[i]);
    }
    let (runs, spent) = (tb.runs, tb.spent.as_ps());
    (tb, runs, spent)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn predictions_do_not_depend_on_history(
        kind in 0usize..3,
        target in any::<u64>(),
        steps in proptest::collection::vec((any::<bool>(), any::<u64>(), any::<u64>()), 1..16),
    ) {
        let preset = preset(kind);
        let all = triples(&preset);
        let t = (target % all.len() as u64) as usize;
        let kin: Vec<usize> = (0..all.len())
            .filter(|&i| i != t && all[i].2 == all[t].2)
            .collect();
        let others: Vec<usize> = (0..all.len()).filter(|&i| i != t).collect();
        let mut walk: Vec<(u64, usize)> = steps
            .iter()
            .map(|&(same_cfg, pick, key)| {
                let pool = if same_cfg && !kin.is_empty() { &kin } else { &others };
                (key, pool[(pick % pool.len() as u64) as usize])
            })
            .collect();
        let order: Vec<usize> = walk.iter().map(|&(_, i)| i).collect();

        let fresh = run(&mut TaskBench::new(&preset), &all[t]);
        let (mut tb, runs, spent) = walked(&preset, &all, &order);
        prop_assert_eq!(
            run(&mut tb, &all[t]),
            fresh,
            "{} {:?}: prediction of {:?} changed after walking {:?}",
            preset.name,
            preset.topology,
            all[t],
            order
        );

        walk.sort();
        let shuffled: Vec<usize> = walk.iter().map(|&(_, i)| i).collect();
        let (_, runs2, spent2) = walked(&preset, &all, &shuffled);
        prop_assert_eq!((runs, spent), (runs2, spent2), "walk order changed the charge");
    }
}
