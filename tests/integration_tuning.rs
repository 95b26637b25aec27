//! End-to-end autotuning integration: tune a machine, persist the table,
//! serve decisions through the HAN facade, and verify the tuned stack
//! outperforms untuned choices.

use han::prelude::*;
use han::tuner::search::achieved_latency;
use han::tuner::space::pow2_range;
use han::tuner::CostCache;
use std::sync::Arc;

fn test_space() -> SearchSpace {
    SearchSpace {
        msg_sizes: pow2_range(4 * 1024, 8 << 20),
        seg_sizes: pow2_range(32 * 1024, 1 << 20),
        inter: vec![
            (InterModule::Libnbc, InterAlg::Binomial),
            (InterModule::Adapt, InterAlg::Binomial),
            (InterModule::Adapt, InterAlg::Chain),
        ],
        intra: vec![IntraModule::Sm, IntraModule::Solo],
    }
}

#[test]
fn tuned_table_round_trips_and_serves_han() {
    let preset = mini(4, 4);
    let result = tune(
        &preset,
        &test_space(),
        &[Coll::Bcast, Coll::Allreduce],
        Strategy::TaskBasedHeuristic,
    );
    // Persist and reload.
    let dir = std::env::temp_dir().join("han_integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tuned.json");
    result.table.save(&path).unwrap();
    let table = LookupTable::load(&path).unwrap();
    assert_eq!(table.entries.len(), result.table.entries.len());

    // Drive HAN through the tuned decision source, including sizes never
    // sampled (each is served the sample nearest it in log space).
    let han = Han::tuned(Arc::new(table));
    for bytes in [4 * 1024u64, 100_000, 3 << 20, 32 << 20] {
        let t = time_coll(&han, &preset, Coll::Bcast, bytes, 0).unwrap();
        assert!(t > Time::ZERO, "{bytes}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn tuned_beats_single_fixed_config_overall() {
    // A single fixed configuration cannot win everywhere; the tuned table
    // must be at least as good across the size range in aggregate.
    let preset = mini(4, 4);
    let result = tune(&preset, &test_space(), &[Coll::Bcast], Strategy::TaskBased);
    let fixed = Han::with_config(HanConfig::default().with_fs(64 * 1024));
    let cache = CostCache::new(&preset);
    let mut tuned_total = 0f64;
    let mut fixed_total = 0f64;
    for &m in &test_space().msg_sizes {
        tuned_total += achieved_latency(&cache, &result.table, Coll::Bcast, m)
            .unwrap()
            .as_secs_f64();
        fixed_total += time_coll(&fixed, &preset, Coll::Bcast, m, 0)
            .unwrap()
            .as_secs_f64();
    }
    assert!(
        tuned_total <= fixed_total * 1.02,
        "tuned {tuned_total:.6}s vs fixed {fixed_total:.6}s"
    );
}

#[test]
fn tuned_config_switches_with_message_size() {
    // The decision table must actually vary: small messages pick SM and
    // small segments; large messages pick bigger segments (and usually
    // SOLO under the heuristics).
    let preset = mini(4, 4);
    let result = tune(
        &preset,
        &test_space(),
        &[Coll::Bcast],
        Strategy::TaskBasedHeuristic,
    );
    let small = result.table.resolve(Coll::Bcast, 4 * 1024).unwrap().cfg;
    let large = result.table.resolve(Coll::Bcast, 8 << 20).unwrap().cfg;
    assert!(small.fs <= large.fs, "small {small} vs large {large}");
    assert_ne!(small, large, "table must differentiate sizes");
}

#[test]
fn exhaustive_and_task_based_agree_on_winners() {
    // Fig. 9's claim: the task-based pick achieves (nearly) the exhaustive
    // best in most cases. Tuned with Allreduce first, so a cost measured
    // in one collective's pipeline would leak into the other's picks:
    // allow 3% slack per size and 1% in aggregate, per collective.
    let preset = mini(4, 4);
    let space = test_space();
    let colls = [Coll::Allreduce, Coll::Bcast];
    let ex = tune(&preset, &space, &colls, Strategy::Exhaustive);
    let tk = tune(&preset, &space, &colls, Strategy::TaskBased);
    let cache = CostCache::new(&preset);
    for coll in colls {
        let mut ex_total = 0f64;
        let mut tk_total = 0f64;
        for &m in &space.msg_sizes {
            let best = achieved_latency(&cache, &ex.table, coll, m).unwrap();
            let got = achieved_latency(&cache, &tk.table, coll, m).unwrap();
            assert!(
                got.as_ps() as f64 <= best.as_ps() as f64 * 1.03,
                "{coll:?} m={m}: task pick {got} vs best {best}"
            );
            ex_total += best.as_secs_f64();
            tk_total += got.as_secs_f64();
        }
        assert!(
            tk_total <= ex_total * 1.01,
            "{coll:?}: {tk_total:.6} vs {ex_total:.6}"
        );
    }
}

#[test]
fn heuristic_tuning_is_cheaper_but_no_better() {
    let preset = mini(4, 4);
    let space = test_space();
    let plain = tune(&preset, &space, &[Coll::Bcast], Strategy::TaskBased);
    let heur = tune(
        &preset,
        &space,
        &[Coll::Bcast],
        Strategy::TaskBasedHeuristic,
    );
    assert!(heur.tuning_time <= plain.tuning_time);
    assert!(heur.searches <= plain.searches);
}
