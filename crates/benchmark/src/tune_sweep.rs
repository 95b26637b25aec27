//! `tune-sweep`: the paper's tuning-cost experiment (Fig. 8).
//!
//! All four strategies tune Bcast and Allreduce on a 16 × 12 Shaheen II
//! slice over the standard search space, sharing one in-memory
//! `CostCache`, with bound pruning and delta re-simulation on (the
//! `repro fig8` defaults). Messages stop at 1 MiB: the sweep's template
//! store grows with the largest message, and 4 MiB would already need
//! ~3.8 GB per process.
//!
//! The traced run then replays the exhaustive candidate set on one
//! thread through the same public calls the tuner makes (`lower_bound`,
//! `TemplateStore::build_into`, `DeltaSim::time`), timing each, to split
//! the exhaustive strategy's time into bound, build and simulation.

use crate::child::{ratio, Child, Rep};
use crate::stats::geomean;
use han_colls::{Coll, MpiStack, TemplateStore};
use han_core::Han;
use han_machine::{shaheen2_ppn, Machine, MachinePreset};
use han_mpi::{engine_totals, ExecOpts, Program};
use han_sim::Time;
use han_tuner::space::pow2_range;
use han_tuner::{
    lower_bound, tune_with_opts, CostCache, DeltaSim, SearchSpace, Strategy, TuneOpts, TuneResult,
};
use std::sync::Arc;

const NODES: usize = 16;
const PPN: usize = 12;
const MAX_MSG: u64 = 1 << 20;
const COLLS: [Coll; 2] = [Coll::Bcast, Coll::Allreduce];

/// Span and per-layer metric names per strategy, in `Strategy::ALL`
/// order.
const STRATEGY_NAMES: [(&str, &str); 4] = [
    ("tune_with_opts:exhaustive", "tuner.strategy_s.exhaustive"),
    (
        "tune_with_opts:exhaustive_heuristic",
        "tuner.strategy_s.exhaustive_heuristic",
    ),
    ("tune_with_opts:task_based", "tuner.strategy_s.task_based"),
    (
        "tune_with_opts:task_based_heuristic",
        "tuner.strategy_s.task_based_heuristic",
    ),
];

pub fn run(cx: &mut Child) -> Option<Rep> {
    let preset = shaheen2_ppn(NODES, PPN);
    let mut space = SearchSpace::standard();
    space.msg_sizes = pow2_range(4, MAX_MSG);
    let cache = Arc::new(CostCache::new(&preset));
    let opts = TuneOpts {
        prune: true,
        delta: true,
    };

    let t0 = cx.setup_done()?;
    let before = engine_totals();
    let root = cx.tracer.open("tune-sweep");
    let results: Vec<TuneResult> = Strategy::ALL
        .iter()
        .zip(STRATEGY_NAMES)
        .map(|(&s, (span, _))| {
            cx.tracer.span(span, || {
                tune_with_opts(&preset, &space, &COLLS, s, Some(cache.clone()), opts)
            })
        })
        .collect();
    cx.tracer.close(root);
    let wall_s = t0.elapsed().as_secs_f64();
    let after = engine_totals();

    for r in &results {
        cx.check(r.skipped.is_empty(), || {
            format!("{}: skipped {:?}", r.strategy.name(), r.skipped)
        });
        for coll in COLLS {
            for &m in &space.msg_sizes {
                cx.check(r.table.get(coll, m).is_some(), || {
                    format!("{}: no {} entry at m={m}", r.strategy.name(), coll.name())
                });
            }
        }
    }
    let winners: Vec<f64> = results[0]
        .table
        .entries
        .iter()
        .map(|e| e.cost_ps as f64 / 1e6)
        .collect();
    let sim_latency_us = geomean(&winners).unwrap_or(0.0);

    cx.engine(&before, &after);
    if cx.tracer.enabled() {
        for (span, metric) in STRATEGY_NAMES {
            let s = cx.tracer.total_s(span);
            cx.layer(metric, s);
        }
        let exhaustive = &results[..2];
        let candidates: u64 = exhaustive.iter().map(|r| r.searches + r.pruned).sum();
        let pruned: u64 = exhaustive.iter().map(|r| r.pruned).sum();
        cx.layer("tuner.candidates", candidates as f64);
        cx.layer("tuner.simulated", (candidates - pruned) as f64);
        cx.layer("tuner.pruned", pruned as f64);
        cx.layer("tuner.prune_ratio", ratio(pruned, candidates));
        let cs = cache.stats();
        cx.layer("tuner.cache_hit_ratio", ratio(cs.hits, cs.hits + cs.misses));
        replay(cx, &preset, &space, &results[0]);
    }
    Some(Rep {
        wall_s,
        sim_latency_us,
    })
}

/// Replay the exhaustive strategy's scan on one thread, group by group in
/// the tuner's order (cheapest bound first, strict-inequality pruning
/// against the running best), timing each public call it makes.
fn replay(cx: &mut Child, preset: &MachinePreset, space: &SearchSpace, swept: &TuneResult) {
    let store = TemplateStore::new();
    let mut ds = DeltaSim::new();
    let mut machine = Machine::from_preset(preset);
    let mut scratch = Program::default();
    let (mut simulated, mut pruned, mut ops, mut events) = (0u64, 0u64, 0u64, 0u64);
    let root = cx.tracer.open("replay");
    for coll in COLLS {
        for &m in &space.msg_sizes {
            let cfgs = space.configs_for(m, &preset.topology, false);
            let order = cx.tracer.span("lower_bound", || {
                let mut order: Vec<(Option<Time>, usize)> = cfgs
                    .iter()
                    .enumerate()
                    .map(|(i, cfg)| (lower_bound(preset, cfg, coll, m), i))
                    .collect();
                order.sort_by_key(|&(b, i)| (b.unwrap_or(Time::ZERO), i));
                order
            });
            let mut best: Option<Time> = None;
            for (bound, i) in order {
                if let (Some(b), Some(inc)) = (bound, best) {
                    if b > inc {
                        pruned += 1;
                        continue;
                    }
                }
                let han = Han::with_config(cfgs[i]);
                let built = cx.tracer.span("TemplateStore::build_into", || {
                    store.build_into(&han, preset, coll, m, 0, &mut scratch)
                });
                let Ok(key) = built else {
                    cx.check(false, || format!("replay: {} unsupported", coll.name()));
                    continue;
                };
                let opts = ExecOpts::timing(han.flavor().p2p());
                let e0 = engine_totals().pops;
                let t = cx.tracer.span("DeltaSim::time", || {
                    ds.time(&mut machine, &scratch, &opts, key)
                });
                events += engine_totals().pops - e0;
                ops += scratch.ops.len() as u64;
                simulated += 1;
                best = Some(best.map_or(t, |b| b.min(t)));
            }
            let want = swept.table.get(coll, m).map(|e| e.cost_ps);
            cx.check(best.map(|t| t.as_ps()) == want, || {
                format!(
                    "replay winner for {} m={m} differs from the sweep",
                    coll.name()
                )
            });
        }
    }
    cx.tracer.close(root);
    cx.check(
        simulated == swept.searches && pruned == swept.pruned,
        || {
            format!(
                "replay simulated/pruned {simulated}/{pruned}, sweep {}/{}",
                swept.searches, swept.pruned
            )
        },
    );

    let bound_s = cx.tracer.total_s("lower_bound");
    let build_s = cx.tracer.total_s("TemplateStore::build_into");
    let delta_s = cx.tracer.total_s("DeltaSim::time");
    let ts = store.stats();
    let st = ds.stats();
    cx.layer("tuner.bound_s", bound_s);
    cx.layer("tuner.delta_s", delta_s);
    cx.layer(
        "tuner.delta_hit_ratio",
        ratio(
            st.delta_hits,
            st.delta_hits + st.recorded_runs + st.full_runs,
        ),
    );
    cx.layer("colls.build_s", build_s);
    cx.layer("colls.build_ns_per_op", 1e9 * build_s / ops.max(1) as f64);
    cx.layer(
        "colls.template_hit_ratio",
        ratio(ts.hits, ts.hits + ts.misses),
    );
    cx.layer("mpi.exec_s", delta_s);
    cx.layer("mpi.exec_events_per_s", events as f64 / delta_s.max(1e-9));
    cx.layer("mpi.ops", ops as f64);
    // The sweep ran on every worker; the replay on one. Coverage is the
    // replayed layer time over the sweep's worker-seconds.
    let groups = COLLS.len() * space.msg_sizes.len();
    let workers = std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(groups);
    let exhaustive_s = cx.tracer.total_s(STRATEGY_NAMES[0].0);
    cx.layer(
        "tuner.replay_coverage",
        (bound_s + build_s + delta_s) / (exhaustive_s * workers as f64).max(1e-9),
    );
}
