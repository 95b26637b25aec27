//! The four tuning strategies compared in Figs. 8 and 9.
//!
//! * **Exhaustive** — benchmark every configuration of the whole
//!   collective at every message size: search space `M×S×A` (per machine
//!   shape), guaranteed optimal, extremely expensive.
//! * **Exhaustive + heuristics** — the same with the section III-C
//!   pruning rules.
//! * **Task-based** (HAN) — benchmark tasks once per configuration
//!   (`T×S×A`), then evaluate the eq. (3)/(4) cost model per message
//!   size. Task costs are reused across message sizes *and* collectives.
//! * **Task-based + heuristics** — both reductions combined.
//!
//! Tuning cost is measured in *virtual benchmark time* (what the cluster
//! would spend) plus the run count; both are reported per strategy.

use crate::bound::lower_bound;
use crate::cache::CostCache;
use crate::model::predict;
use crate::space::SearchSpace;
use crate::taskbench::{TaskBench, BENCH_ITERS};
use han_colls::stack::{time_coll_on, Coll, Unsupported};
use han_core::{Han, HanConfig};
use han_decide::LookupTable;
use han_machine::{Machine, MachinePreset};
use han_sim::Time;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Tuning strategy selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    Exhaustive,
    ExhaustiveHeuristic,
    TaskBased,
    TaskBasedHeuristic,
}

impl Strategy {
    pub const ALL: [Strategy; 4] = [
        Strategy::Exhaustive,
        Strategy::ExhaustiveHeuristic,
        Strategy::TaskBased,
        Strategy::TaskBasedHeuristic,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Exhaustive => "exhaustive",
            Strategy::ExhaustiveHeuristic => "exhaustive+heuristics",
            Strategy::TaskBased => "task-based",
            Strategy::TaskBasedHeuristic => "task-based+heuristics",
        }
    }

    pub fn heuristic(&self) -> bool {
        matches!(
            self,
            Strategy::ExhaustiveHeuristic | Strategy::TaskBasedHeuristic
        )
    }

    pub fn task_based(&self) -> bool {
        matches!(self, Strategy::TaskBased | Strategy::TaskBasedHeuristic)
    }
}

/// The outcome of one tuning run.
#[derive(Debug)]
pub struct TuneResult {
    pub strategy: Strategy,
    pub table: LookupTable,
    /// Total virtual benchmark time (the Fig. 8 metric).
    pub tuning_time: Time,
    /// Number of benchmark runs executed.
    pub searches: u64,
    /// For the exhaustive strategies: every measured `(coll, m, cfg, cost)`
    /// sample, enabling best/median/average analysis (Fig. 9).
    pub samples: Vec<(Coll, u64, HanConfig, Time)>,
    /// Collectives the stack or cost model declined, deduplicated — the
    /// sweep skips them and reports here instead of panicking.
    pub skipped: Vec<Unsupported>,
    /// Candidate configurations skipped because their analytic lower bound
    /// already exceeded the incumbent best (see [`crate::bound`]); always
    /// zero unless [`TuneOpts::prune`] is set.
    pub pruned: u64,
}

/// Knobs for [`tune_with_opts`] beyond strategy and cache.
#[derive(Debug, Clone, Copy, Default)]
pub struct TuneOpts {
    /// Skip simulating candidates whose analytic lower bound strictly
    /// exceeds the incumbent best for the same `(coll, m)` group. Winners
    /// are provably identical; `tuning_time`/`searches`/`samples` shrink
    /// to the simulated subset.
    pub prune: bool,
    /// Ignored: delta re-simulation was removed. Kept only so the
    /// benchmark's `TuneOpts` literal compiles.
    pub delta: bool,
}

fn note_skip(skipped: &mut Vec<Unsupported>, e: Unsupported) {
    if !skipped.contains(&e) {
        skipped.push(e);
    }
}

/// Run autotuning over `space` for the given collectives.
pub fn tune(
    preset: &MachinePreset,
    space: &SearchSpace,
    colls: &[Coll],
    strategy: Strategy,
) -> TuneResult {
    tune_with_opts(preset, space, colls, strategy, None, TuneOpts::default())
}

/// [`tune`], optionally memoizing simulated costs in a shared
/// [`CostCache`], with explicit [`TuneOpts`]. Results (tables, samples,
/// virtual tuning times) are identical with or without a cache — only
/// host wall-clock differs. With `prune` enabled the exhaustive strategies
/// skip provably-losing candidates; the selected winners are identical
/// either way.
///
/// # Panics
///
/// If `cache` was built for a different machine preset.
pub fn tune_with_opts(
    preset: &MachinePreset,
    space: &SearchSpace,
    colls: &[Coll],
    strategy: Strategy,
    cache: Option<Arc<CostCache>>,
    opts: TuneOpts,
) -> TuneResult {
    if let Some(c) = &cache {
        c.assert_for(preset);
    }
    if strategy.task_based() {
        tune_task_based(preset, space, colls, strategy, cache)
    } else {
        tune_exhaustive(preset, space, colls, strategy, cache, opts)
    }
}

/// Simulate (or recall) the latency of one HAN collective configuration.
fn coll_cost(
    machine: &mut Machine,
    preset: &MachinePreset,
    coll: Coll,
    m: u64,
    cfg: HanConfig,
    cache: Option<&CostCache>,
) -> Result<Time, Unsupported> {
    if let Some(t) = cache.and_then(|c| c.lookup_coll(coll, &cfg, m)) {
        return Ok(t);
    }
    let t = time_coll_on(&Han::with_config(cfg), machine, preset, coll, m, 0)?;
    if let Some(c) = cache {
        c.record_coll(coll, &cfg, m, t);
    }
    Ok(t)
}

/// Per-config outcome within one `(coll, m)` group.
enum Outcome {
    Cost(Result<Time, Unsupported>),
    Pruned,
}

/// Run `f` over every group on `workers` threads (`None` = available
/// parallelism) and return the outputs in group order.
///
/// Parallelism is work-stealing over *groups* via an atomic cursor: large
/// message sizes cost orders of magnitude more than small ones, so static
/// striping load-imbalances badly. Each worker owns one [`Machine`] (the
/// executor resets it between jobs), and outputs are merged by group
/// index, so as long as `f` is deterministic per group the result is
/// bit-identical for every worker count.
pub fn sweep_groups<G: Sync, O: Send>(
    preset: &MachinePreset,
    groups: &[G],
    workers: Option<usize>,
    f: impl Fn(&mut Machine, &G) -> O + Sync,
) -> Vec<O> {
    let workers = workers
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
        })
        .min(groups.len())
        .max(1);
    let next = AtomicUsize::new(0);
    let mut merged: Vec<Option<O>> = (0..groups.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let (next, f) = (&next, &f);
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(move || {
                    let mut machine = Machine::from_preset(preset);
                    let mut out = Vec::new();
                    loop {
                        let g = next.fetch_add(1, Ordering::Relaxed);
                        let Some(group) = groups.get(g) else { break };
                        out.push((g, f(&mut machine, group)));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            for (g, r) in h.join().unwrap() {
                merged[g] = Some(r);
            }
        }
    });
    merged
        .into_iter()
        .map(|r| r.expect("every group ran"))
        .collect()
}

fn tune_exhaustive(
    preset: &MachinePreset,
    space: &SearchSpace,
    colls: &[Coll],
    strategy: Strategy,
    cache: Option<Arc<CostCache>>,
    opts: TuneOpts,
) -> TuneResult {
    let mut table = LookupTable::for_topology(&preset.topology);
    let mut tuning_time = Time::ZERO;
    let mut searches = 0u64;
    let mut pruned = 0u64;
    let mut skipped: Vec<Unsupported> = Vec::new();

    // Enumerate every `(coll, m)` group with its candidate configs up
    // front, in deterministic order, and sweep them with `sweep_groups`.
    // Within a group, candidates run sequentially in ascending
    // `(lower bound, enumeration index)` order against a running
    // incumbent, so bound pruning is deterministic — the visit order, and
    // therefore the pruned set, never depends on worker count or
    // completion timing.
    let mut groups: Vec<(Coll, u64, Vec<HanConfig>)> = Vec::new();
    for &coll in colls {
        for &m in &space.msg_sizes {
            let cfgs = space.configs_for(m, &preset.topology, strategy.heuristic());
            groups.push((coll, m, cfgs));
        }
    }
    let cache = cache.as_deref();
    let outcomes = sweep_groups(preset, &groups, None, |machine, (coll, m, cfgs)| {
        run_group(machine, preset, *coll, *m, cfgs, cache, opts)
    });

    let mut samples = Vec::new();
    for ((coll, m, cfgs), results) in groups.iter().zip(&outcomes) {
        for (cfg, r) in cfgs.iter().zip(results) {
            match r {
                Outcome::Cost(Ok(t)) => {
                    tuning_time += *t * BENCH_ITERS;
                    searches += 1;
                    samples.push((*coll, *m, *cfg, *t));
                }
                Outcome::Cost(Err(e)) => note_skip(&mut skipped, e.clone()),
                Outcome::Pruned => pruned += 1,
            }
        }
    }

    for &coll in colls {
        for &m in &space.msg_sizes {
            if let Some((_, _, cfg, cost)) = samples
                .iter()
                .filter(|(c, mm, _, _)| *c == coll && *mm == m)
                .min_by_key(|(_, _, _, t)| *t)
            {
                table.insert(coll, m, *cfg, *cost);
            }
        }
    }

    TuneResult {
        strategy,
        table,
        tuning_time,
        searches,
        samples,
        skipped,
        pruned,
    }
}

/// Benchmark one `(coll, m)` group, optionally pruning candidates whose
/// analytic lower bound exceeds the incumbent best.
///
/// Soundness of the winner set: the true optimum `c*` has
/// `bound(c*) ≤ cost(c*) ≤ incumbent` at every point of the scan, so it is
/// never pruned (the comparison is strict); conversely any pruned `c` has
/// `cost(c) ≥ bound(c) > incumbent ≥ min cost`, so it can neither win nor
/// tie. The surviving minimum — and, because candidates keep their
/// enumeration order in the output, the tie-broken winner — is identical
/// to the unpruned sweep's.
fn run_group(
    machine: &mut Machine,
    preset: &MachinePreset,
    coll: Coll,
    m: u64,
    cfgs: &[HanConfig],
    cache: Option<&CostCache>,
    opts: TuneOpts,
) -> Vec<Outcome> {
    // Visit candidates cheapest-bound-first: tight early incumbents
    // maximize later prunes, and the fixed `(bound, index)` key keeps the
    // scan deterministic. Without pruning the visit order is irrelevant
    // (results are keyed by index), so skip the bound computation
    // entirely — it would be pure overhead on warm-cache sweeps.
    let order: Vec<(Option<Time>, usize)> = if opts.prune {
        let mut order: Vec<(Option<Time>, usize)> = cfgs
            .iter()
            .enumerate()
            .map(|(i, cfg)| (lower_bound(preset, cfg, coll, m), i))
            .collect();
        order.sort_by_key(|&(b, i)| (b.unwrap_or(Time::ZERO), i));
        order
    } else {
        (0..cfgs.len()).map(|i| (None, i)).collect()
    };

    let mut results: Vec<Option<Outcome>> = (0..cfgs.len()).map(|_| None).collect();
    let mut incumbent: Option<Time> = None;
    for (bound, i) in order {
        if opts.prune {
            if let (Some(b), Some(inc)) = (bound, incumbent) {
                if b > inc {
                    results[i] = Some(Outcome::Pruned);
                    continue;
                }
            }
        }
        let r = coll_cost(machine, preset, coll, m, cfgs[i], cache);
        if let Ok(t) = &r {
            incumbent = Some(incumbent.map_or(*t, |inc| inc.min(*t)));
        }
        results[i] = Some(Outcome::Cost(r));
    }
    results
        .into_iter()
        .map(|r| r.expect("every candidate visited"))
        .collect()
}

fn tune_task_based(
    preset: &MachinePreset,
    space: &SearchSpace,
    colls: &[Coll],
    strategy: Strategy,
    cache: Option<Arc<CostCache>>,
) -> TuneResult {
    let mut table = LookupTable::for_topology(&preset.topology);
    let mut tb = TaskBench::new(preset);
    if let Some(cache) = cache {
        tb = tb.with_shared_cache(cache);
    }
    let mut samples = Vec::new();
    let mut skipped: Vec<Unsupported> = Vec::new();

    for &coll in colls {
        for &m in &space.msg_sizes {
            let mut best: Option<(HanConfig, Time)> = None;
            for cfg in space.configs_for(m, &preset.topology, strategy.heuristic()) {
                let t = match predict(&mut tb, &cfg, coll, m) {
                    Ok(t) => t,
                    Err(e) => {
                        note_skip(&mut skipped, e);
                        continue;
                    }
                };
                samples.push((coll, m, cfg, t));
                if best.map(|(_, bt)| t < bt).unwrap_or(true) {
                    best = Some((cfg, t));
                }
            }
            if let Some((cfg, cost)) = best {
                table.insert(coll, m, cfg, cost);
            }
        }
    }

    TuneResult {
        strategy,
        table,
        tuning_time: tb.spent,
        searches: tb.runs,
        samples,
        skipped,
        pruned: 0,
    }
}

/// Simulate every candidate configuration `space` enumerates for one
/// `(coll, m)` group — unpruned, in enumeration order. This is the ground
/// truth a tuned table must dominate: `han_verify`'s table-dominance
/// guideline checks the table winner against every `(cfg, cost)` pair
/// returned here, pinning bound-pruning soundness end-to-end.
pub fn candidate_costs(
    preset: &MachinePreset,
    space: &SearchSpace,
    coll: Coll,
    m: u64,
    heuristic: bool,
) -> Vec<(HanConfig, Result<Time, Unsupported>)> {
    let mut machine = Machine::from_preset(preset);
    space
        .configs_for(m, &preset.topology, heuristic)
        .into_iter()
        .map(|cfg| {
            let r = coll_cost(&mut machine, preset, coll, m, cfg, None);
            (cfg, r)
        })
        .collect()
}

/// Measure the *achieved* collective latency of a tuned table: run the
/// collective with the configuration the table selects (the red/green
/// bars of Fig. 9), optionally recalling the measurement from a shared
/// [`CostCache`] instead of re-simulating it.
///
/// # Panics
///
/// If `cache` was built for a different machine preset.
pub fn achieved_latency(
    preset: &MachinePreset,
    table: &LookupTable,
    coll: Coll,
    m: u64,
    cache: Option<&CostCache>,
) -> Result<Time, Unsupported> {
    if let Some(c) = cache {
        c.assert_for(preset);
    }
    let cfg = table.nearest(coll, m).map(|e| e.cfg).unwrap_or_default();
    let mut machine = Machine::from_preset(preset);
    coll_cost(&mut machine, preset, coll, m, cfg, cache)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::pow2_range;
    use han_machine::mini;

    fn tiny_space() -> SearchSpace {
        SearchSpace {
            msg_sizes: pow2_range(4 * 1024, 16 << 20),
            seg_sizes: pow2_range(64 * 1024, 512 * 1024),
            inter: vec![
                (han_colls::InterModule::Adapt, han_colls::InterAlg::Binomial),
                (han_colls::InterModule::Adapt, han_colls::InterAlg::Chain),
            ],
            intra: vec![han_colls::IntraModule::Sm],
        }
    }

    #[test]
    fn task_based_is_much_cheaper_than_exhaustive() {
        let preset = mini(4, 4);
        let space = tiny_space();
        let ex = tune(&preset, &space, &[Coll::Bcast], Strategy::Exhaustive);
        let tk = tune(&preset, &space, &[Coll::Bcast], Strategy::TaskBased);
        assert!(
            tk.tuning_time < ex.tuning_time,
            "task-based {} must beat exhaustive {}",
            tk.tuning_time,
            ex.tuning_time
        );
        assert!(tk.searches < ex.searches);
        // Both produce a full table.
        assert_eq!(
            tk.table.sampled_sizes(Coll::Bcast).len(),
            space.msg_sizes.len()
        );
        assert_eq!(
            ex.table.sampled_sizes(Coll::Bcast).len(),
            space.msg_sizes.len()
        );
    }

    #[test]
    fn task_based_achieves_near_optimal_latency() {
        let preset = mini(4, 4);
        let space = tiny_space();
        let ex = tune(&preset, &space, &[Coll::Bcast], Strategy::Exhaustive);
        let tk = tune(&preset, &space, &[Coll::Bcast], Strategy::TaskBased);
        for &m in &space.msg_sizes {
            let best = ex.table.get(Coll::Bcast, m).unwrap();
            let achieved = achieved_latency(&preset, &tk.table, Coll::Bcast, m, None).unwrap();
            let optimal = achieved_latency(&preset, &ex.table, Coll::Bcast, m, None).unwrap();
            assert_eq!(
                Time::from_ps(best.cost_ps),
                optimal,
                "exhaustive is measured"
            );
            assert!(
                achieved.as_ps() as f64 <= optimal.as_ps() as f64 * 1.25,
                "m={m}: task-based pick {achieved} vs optimal {optimal}"
            );
        }
    }

    #[test]
    fn heuristics_reduce_searches() {
        let preset = mini(4, 4);
        let mut space = tiny_space();
        space.intra = vec![han_colls::IntraModule::Sm, han_colls::IntraModule::Solo];
        let plain = tune(&preset, &space, &[Coll::Bcast], Strategy::Exhaustive);
        let heur = tune(
            &preset,
            &space,
            &[Coll::Bcast],
            Strategy::ExhaustiveHeuristic,
        );
        assert!(heur.searches < plain.searches);
        assert!(heur.tuning_time < plain.tuning_time);
    }

    #[test]
    fn unmodelled_collectives_skip_and_report() {
        let preset = mini(2, 2);
        let space = tiny_space();
        let tk = tune(
            &preset,
            &space,
            &[Coll::Bcast, Coll::Reduce],
            Strategy::TaskBased,
        );
        // Bcast tunes normally; Reduce (no task model) is skipped once,
        // reported, and never reaches the table.
        assert!(!tk.table.sampled_sizes(Coll::Bcast).is_empty());
        assert!(tk.table.sampled_sizes(Coll::Reduce).is_empty());
        assert_eq!(tk.skipped.len(), 1);
        assert_eq!(tk.skipped[0].coll, Coll::Reduce);
    }

    #[test]
    fn pruned_sweep_selects_identical_winners() {
        // Pruning may only skip candidates that provably cannot win or
        // tie, so the resulting lookup table — winner configs *and*
        // costs — must be byte-for-byte the unpruned table's, on both
        // two- and three-level machines.
        for preset in [mini(2, 4), han_machine::mini3(2, 2, 2)] {
            let mut space = tiny_space();
            space.intra = vec![han_colls::IntraModule::Sm, han_colls::IntraModule::Solo];
            let colls = [Coll::Bcast, Coll::Allreduce, Coll::Reduce];
            let plain = tune_with_opts(
                &preset,
                &space,
                &colls,
                Strategy::Exhaustive,
                None,
                TuneOpts {
                    prune: false,
                    ..TuneOpts::default()
                },
            );
            let fast = tune_with_opts(
                &preset,
                &space,
                &colls,
                Strategy::Exhaustive,
                None,
                TuneOpts {
                    prune: true,
                    ..TuneOpts::default()
                },
            );
            assert_eq!(plain.pruned, 0);
            assert!(
                fast.pruned > 0,
                "{}: pruning should fire on this space",
                preset.name
            );
            assert_eq!(fast.searches + fast.pruned, plain.searches);
            for &coll in &colls {
                for &m in &space.msg_sizes {
                    let a = plain.table.get(coll, m);
                    let b = fast.table.get(coll, m);
                    assert_eq!(
                        a.map(|e| (e.cfg, e.cost_ps)),
                        b.map(|e| (e.cfg, e.cost_ps)),
                        "{} {coll:?} m={m}: pruned winner differs",
                        preset.name
                    );
                }
            }
        }
    }

    #[test]
    fn sweep_costs_match_cold_built_ground_truth() {
        // The parallel sweep must not change a single sample: every
        // `(coll, m, cfg)` cost — not just the winners — is compared
        // bit-for-bit against `candidate_costs`, which builds and times
        // each program on one thread.
        for preset in [mini(2, 4), han_machine::mini3(2, 2, 2)] {
            let space = tiny_space();
            let colls = [Coll::Bcast, Coll::Allreduce];
            let swept = tune(&preset, &space, &colls, Strategy::Exhaustive);
            let mut truth = Vec::new();
            for &coll in &colls {
                for &m in &space.msg_sizes {
                    for (cfg, r) in candidate_costs(&preset, &space, coll, m, false) {
                        truth.push((coll, m, cfg, r.unwrap()));
                    }
                }
            }
            assert_eq!(swept.pruned, 0, "{}", preset.name);
            assert_eq!(swept.samples, truth, "{}", preset.name);
        }
    }

    /// Tune `mini(4, 4)` against a cache built for `mini(2, 4)`.
    fn tune_with_foreign_cache(strategy: Strategy) {
        let cache = Arc::new(CostCache::new(&mini(2, 4)));
        let preset = mini(4, 4);
        let (space, colls) = (tiny_space(), [Coll::Bcast]);
        tune_with_opts(
            &preset,
            &space,
            &colls,
            strategy,
            Some(cache),
            TuneOpts::default(),
        );
    }

    #[test]
    #[should_panic(expected = "different machine preset")]
    fn foreign_cache_panics_exhaustive() {
        tune_with_foreign_cache(Strategy::Exhaustive);
    }

    #[test]
    #[should_panic(expected = "different machine preset")]
    fn foreign_cache_panics_exhaustive_heuristic() {
        tune_with_foreign_cache(Strategy::ExhaustiveHeuristic);
    }

    #[test]
    #[should_panic(expected = "different machine preset")]
    fn foreign_cache_panics_task_based() {
        tune_with_foreign_cache(Strategy::TaskBased);
    }

    #[test]
    #[should_panic(expected = "different machine preset")]
    fn foreign_cache_panics_task_based_heuristic() {
        tune_with_foreign_cache(Strategy::TaskBasedHeuristic);
    }

    #[test]
    #[should_panic(expected = "different machine preset")]
    fn foreign_cache_panics_achieved_latency() {
        let cache = CostCache::new(&mini(2, 4));
        let table = LookupTable::for_topology(&mini(4, 4).topology);
        let _ = achieved_latency(&mini(4, 4), &table, Coll::Bcast, 4096, Some(&cache));
    }

    #[test]
    fn strategy_metadata() {
        assert!(Strategy::TaskBasedHeuristic.heuristic());
        assert!(Strategy::TaskBasedHeuristic.task_based());
        assert!(!Strategy::Exhaustive.heuristic());
        assert_eq!(Strategy::ALL.len(), 4);
    }
}
