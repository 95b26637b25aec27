//! Execution-mode and cost-cache equivalence guarantees.
//!
//! `ExecMode::TimingOnly` exists purely to save host wall-clock: it skips
//! every payload read/copy but must leave the simulated schedule — and
//! therefore every virtual timestamp — untouched. Likewise a warm
//! `CostCache` must return exactly what a cold simulation would have
//! produced. These tests pin both guarantees.

use han::prelude::*;
use han::tuner::{tune_with_opts, CostCache, TuneOpts};
use han_tuner::search::achieved_latency_with_cache;
use std::sync::Arc;

const ALL_COLLS: [Coll; 7] = [
    Coll::Bcast,
    Coll::Allreduce,
    Coll::Reduce,
    Coll::Gather,
    Coll::Scatter,
    Coll::Allgather,
    Coll::Barrier,
];

/// TimingOnly and Full executions of the same program must agree on the
/// makespan and the number of simulated events — across every collective,
/// both machine flavors, and multiple message sizes.
#[test]
fn timing_only_matches_full_virtual_times() {
    let presets = [shaheen2_ppn(4, 4), stampede2_ppn(3, 4), mini(2, 8)];
    let stack = Han::with_config(HanConfig::default().with_fs(64 * 1024));
    for preset in &presets {
        for coll in ALL_COLLS {
            for bytes in [4u64, 64 * 1024, 1 << 20] {
                let prog = build_coll(&stack, preset, coll, bytes, 0)
                    .expect("HAN implements all collectives");
                let p2p = stack.flavor().p2p();
                let mut m1 = Machine::from_preset(preset);
                let timing = han::mpi::execute(
                    &mut m1,
                    &prog,
                    &ExecOpts::with_mode(p2p, ExecMode::TimingOnly),
                );
                let mut m2 = Machine::from_preset(preset);
                let full =
                    han::mpi::execute(&mut m2, &prog, &ExecOpts::with_mode(p2p, ExecMode::Full));
                assert_eq!(
                    timing.makespan, full.makespan,
                    "{} {coll:?} {bytes}B: TimingOnly makespan must equal Full",
                    preset.name
                );
                assert_eq!(
                    timing.events, full.events,
                    "{} {coll:?} {bytes}B: event counts must match",
                    preset.name
                );
            }
        }
    }
}

fn tiny_space() -> SearchSpace {
    let mut space = SearchSpace::standard();
    space.msg_sizes = vec![64 * 1024, 1 << 20];
    space.seg_sizes = vec![64 * 1024, 256 * 1024];
    space
}

fn assert_same_result(a: &han_tuner::TuneResult, b: &han_tuner::TuneResult, what: &str) {
    assert_eq!(a.tuning_time, b.tuning_time, "{what}: tuning_time differs");
    assert_eq!(a.searches, b.searches, "{what}: search count differs");
    assert_eq!(a.samples, b.samples, "{what}: samples differ");
    for coll in [Coll::Bcast, Coll::Allreduce] {
        for &m in &a.table.sampled_sizes(coll) {
            let ea = a.table.get(coll, m).expect("entry in a");
            let eb = b.table.get(coll, m).expect("entry in b");
            assert_eq!(ea.cfg, eb.cfg, "{what}: {coll:?}@{m} picked config differs");
            assert_eq!(ea.cost_ps, eb.cost_ps, "{what}: {coll:?}@{m} cost differs");
        }
    }
}

/// A warm cache must reproduce the cold run bit-for-bit: same winning
/// configurations, same virtual tuning time, same search count — for both
/// the exhaustive and the task-based strategies.
#[test]
fn warm_cache_returns_same_winners() {
    let preset = mini(4, 4);
    let space = tiny_space();
    let colls = [Coll::Bcast, Coll::Allreduce];
    for strategy in Strategy::ALL {
        let run = |cache: Option<Arc<CostCache>>| {
            tune_with_opts(
                &preset,
                &space,
                &colls,
                strategy,
                cache,
                TuneOpts::default(),
            )
        };
        let uncached = run(None);
        let cache = Arc::new(CostCache::new(&preset));
        let cold = run(Some(cache.clone()));
        let warm = run(Some(cache.clone()));
        assert!(
            cache.stats().hits > 0,
            "{strategy:?}: second run should hit the cache"
        );
        assert_same_result(&uncached, &cold, &format!("{strategy:?} uncached vs cold"));
        assert_same_result(&cold, &warm, &format!("{strategy:?} cold vs warm"));
    }
}

/// Achieved-latency probes must also be cache-transparent, including when
/// the hit comes from entries recorded by a prior exhaustive sweep.
#[test]
fn achieved_latency_is_cache_transparent() {
    let preset = mini(4, 4);
    let space = tiny_space();
    let colls = [Coll::Bcast, Coll::Allreduce];
    let cache = Arc::new(CostCache::new(&preset));
    let tuned = tune_with_opts(
        &preset,
        &space,
        &colls,
        Strategy::Exhaustive,
        Some(cache.clone()),
        TuneOpts::default(),
    );
    for coll in colls {
        for &m in &space.msg_sizes {
            let plain = achieved_latency_with_cache(&preset, &tuned.table, coll, m, None);
            let hits_before = cache.stats().hits;
            let cached = achieved_latency_with_cache(&preset, &tuned.table, coll, m, Some(&cache));
            assert_eq!(plain, cached, "{coll:?}@{m}: cached probe must match");
            assert!(
                cache.stats().hits > hits_before,
                "{coll:?}@{m}: probe should reuse the sweep's recorded cost"
            );
        }
    }
}
