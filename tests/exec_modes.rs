//! Data-path and cost-cache equivalence guarantees.
//!
//! `execute` moves no payload bytes; `execute_seeded` moves every byte
//! through simulated memory. Payload movement must leave the simulated
//! schedule — and therefore every virtual timestamp — untouched. Likewise
//! a warm `CostCache` must return exactly what a cold simulation would
//! have produced. These tests pin both guarantees.

use han::mpi::program::{OpId, Program};
use han::mpi::{execute, execute_seeded, Report};
use han::prelude::*;
use han::tuner::{achieved_latency, tune_with_opts, CostCache, TuneOpts};
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

/// Executions with and without payload bytes must agree on the makespan,
/// the number of simulated events and every op's finish time — across
/// every collective, both machine flavors, and multiple message sizes.
#[test]
fn timing_only_matches_full_virtual_times() {
    let presets = [shaheen2_ppn(4, 4), stampede2_ppn(3, 4), mini(2, 8)];
    let stack = Han::with_config(HanConfig::default().with_fs(64 * 1024));
    for preset in &presets {
        for coll in ALL_COLLS {
            for bytes in [4u64, 64 * 1024, 1 << 20] {
                let prog = build_coll(&stack, preset, coll, bytes, 0)
                    .expect("HAN implements all collectives");
                let opts = ExecOpts::timing(stack.flavor().p2p());
                let mut machine = Machine::from_preset(preset);
                let timing = execute(&mut machine, &prog, &opts);
                let (data, _) = execute_seeded(&mut machine, &prog, &opts, |_| {});
                let what = format!("{} {coll:?} {bytes}B", preset.name);
                assert_eq!(timing.makespan, data.makespan, "{what}: makespan");
                assert_eq!(timing.events, data.events, "{what}: event counts");
                assert!(
                    timing.op_finishes().eq(data.op_finishes()),
                    "{what}: op finish times"
                );
                for report in [&timing, &data] {
                    assert_rank_finishes_are_op_maxima(&prog, report, &what);
                }
            }
        }
    }
}

/// `r`'s rank finishes are the latest op finish on each rank of `prog`,
/// and its makespan the latest of all.
fn assert_rank_finishes_are_op_maxima(prog: &Program, r: &Report, what: &str) {
    let mut latest = vec![Time::ZERO; prog.nranks];
    for (i, t) in r.op_finishes().enumerate() {
        let rank = prog.op(OpId(i as u32)).rank as usize;
        latest[rank] = latest[rank].max(t);
    }
    assert_eq!(r.rank_finish, latest, "{what}: rank finishes");
    assert_eq!(
        r.makespan,
        latest.into_iter().max().unwrap_or(Time::ZERO),
        "{what}: makespan"
    );
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
    assert_eq!(a.pruned, b.pruned, "{what}: pruned count differs");
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
            let plain = achieved_latency(&preset, &tuned.table, coll, m, None);
            let hits_before = cache.stats().hits;
            let cached = achieved_latency(&preset, &tuned.table, coll, m, Some(&cache));
            assert_eq!(plain, cached, "{coll:?}@{m}: cached probe must match");
            assert!(
                cache.stats().hits > hits_before,
                "{coll:?}@{m}: probe should reuse the sweep's recorded cost"
            );
        }
    }
}
