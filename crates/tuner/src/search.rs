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
use han_core::{ConfigSource, Han, HanConfig};
use han_decide::LookupTable;
use han_machine::{Machine, MachinePreset};
use han_sim::Time;
use std::collections::HashMap;
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
    /// Collectives the stack or cost model declined, deduplicated — the
    /// sweep skips them and reports here instead of panicking.
    pub skipped: Vec<Unsupported>,
    /// Candidate configurations skipped because their analytic lower bound
    /// already exceeded the incumbent best (see [`crate::bound`]); always
    /// zero for the task-based strategies.
    pub pruned: u64,
}

/// Former knobs of [`tune_with_opts`], both ignored. Kept only so the
/// benchmark's `TuneOpts` literal compiles.
#[derive(Debug, Clone, Copy, Default)]
pub struct TuneOpts {
    /// Ignored: the exhaustive strategies always bound-prune. The full
    /// candidate set is measured by [`candidate_costs`].
    pub prune: bool,
    /// Ignored: delta re-simulation was removed.
    pub delta: bool,
}

/// Run autotuning over `space` for the given collectives. The exhaustive
/// strategies bound-prune: they skip simulating every candidate whose
/// analytic lower bound strictly exceeds the incumbent best of its
/// `(coll, m)` group, which provably leaves the winners unchanged, so
/// `tuning_time` and `searches` count the simulated subset.
pub fn tune(
    preset: &MachinePreset,
    space: &SearchSpace,
    colls: &[Coll],
    strategy: Strategy,
) -> TuneResult {
    tune_with_opts(preset, space, colls, strategy, None, TuneOpts::default())
}

/// [`tune`], optionally memoizing simulated costs in a shared
/// [`CostCache`]. Results (tables, virtual tuning times, counters) are
/// identical with or without a cache — only host wall-clock differs.
/// `opts` is ignored.
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
    _opts: TuneOpts,
) -> TuneResult {
    tune_on(preset, space, colls, strategy, cache, None)
}

/// [`tune_with_opts`] on `workers` sweep threads (`None` = available
/// parallelism). Every result is bit-identical for every worker count;
/// the tests pin that.
fn tune_on(
    preset: &MachinePreset,
    space: &SearchSpace,
    colls: &[Coll],
    strategy: Strategy,
    cache: Option<Arc<CostCache>>,
    workers: Option<usize>,
) -> TuneResult {
    if let Some(c) = &cache {
        c.assert_for(preset);
    }
    if strategy.task_based() {
        tune_task_based(preset, space, colls, strategy, cache, workers)
    } else {
        tune_exhaustive(preset, space, colls, strategy, cache, workers)
    }
}

/// Simulate (or recall) the latency of one HAN collective configuration
/// on a worker's machine.
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

/// Run `f` over every job on `workers` threads (`None` = available
/// parallelism) and return the outputs in job order.
///
/// A job is whatever unit the caller can run independently: a whole
/// bound-pruned `(coll, m)` group, a single distinct program, or one
/// task-based configuration. Workers claim jobs from one atomic cursor
/// walking `order`, a permutation of the job indices the caller chooses
/// so that expensive jobs start first and the sweep does not tail on
/// them. Each worker owns one state built by `init` (typically a
/// [`Machine`], which the executor resets between jobs), and outputs are
/// merged by job index, so as long as `f` is deterministic per job the
/// result is bit-identical for every worker count and claim order.
///
/// # Panics
///
/// If `order` is not a permutation of `0..jobs.len()`.
fn sweep_groups<J: Sync, S, O: Send>(
    jobs: &[J],
    order: &[usize],
    workers: Option<usize>,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, &J) -> O + Sync,
) -> Vec<O> {
    assert_eq!(order.len(), jobs.len(), "claim order must cover every job");
    let workers = workers
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
        })
        .min(jobs.len())
        .max(1);
    let next = AtomicUsize::new(0);
    let mut merged: Vec<Option<O>> = (0..jobs.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let (next, init, f) = (&next, &init, &f);
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(move || {
                    let mut state = init();
                    let mut out = Vec::new();
                    while let Some(&j) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                        out.push((j, f(&mut state, &jobs[j])));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            for (j, r) in h.join().unwrap() {
                assert!(merged[j].replace(r).is_none(), "job {j} claimed twice");
            }
        }
    });
    merged
        .into_iter()
        .map(|r| r.expect("every job ran"))
        .collect()
}

/// The claim order that starts the largest message sizes first (ties in
/// job order): simulation cost grows with `m` by orders of magnitude.
fn largest_first(sizes: impl IntoIterator<Item = u64>) -> Vec<usize> {
    let mut order: Vec<(u64, usize)> = sizes.into_iter().zip(0..).collect();
    order.sort_by_key(|&(m, j)| (std::cmp::Reverse(m), j));
    order.into_iter().map(|(_, j)| j).collect()
}

/// Simulate (or recall) the cost of every `(coll, m, cfg)` job, in job
/// order, plus the number of distinct programs simulated.
///
/// Jobs whose effective configs ([`HanConfig::effective`]) agree build
/// the same program, so they share one run: jobs are deduplicated by
/// `(coll, m, effective config)` in first-occurrence order, each distinct
/// program is simulated once with its first job's config (one
/// `sweep_groups` job, claimed largest message first) and the result is
/// fanned back out to every job that shares it. The output is
/// bit-identical for every worker count.
///
/// # Panics
///
/// If `cache` was built for a different machine preset.
pub fn cost_each(
    preset: &MachinePreset,
    jobs: &[(Coll, u64, HanConfig)],
    cache: Option<&CostCache>,
    workers: Option<usize>,
) -> (Vec<Result<Time, Unsupported>>, u64) {
    if let Some(c) = cache {
        c.assert_for(preset);
    }
    let mut distinct: Vec<(Coll, u64, HanConfig)> = Vec::new();
    let mut index: HashMap<(Coll, u64, HanConfig), usize> = HashMap::new();
    let slots: Vec<usize> = jobs
        .iter()
        .map(|&(coll, m, cfg)| {
            let key = (coll, m, cfg.effective(&preset.topology, coll, m));
            *index.entry(key).or_insert_with(|| {
                distinct.push((coll, m, cfg));
                distinct.len() - 1
            })
        })
        .collect();
    let costs = sweep_groups(
        &distinct,
        &largest_first(distinct.iter().map(|j| j.1)),
        workers,
        || Machine::from_preset(preset),
        |machine, &(coll, m, cfg)| coll_cost(machine, preset, coll, m, cfg, cache),
    );
    let out = slots.into_iter().map(|k| costs[k].clone()).collect();
    (out, distinct.len() as u64)
}

fn tune_exhaustive(
    preset: &MachinePreset,
    space: &SearchSpace,
    colls: &[Coll],
    strategy: Strategy,
    cache: Option<Arc<CostCache>>,
    workers: Option<usize>,
) -> TuneResult {
    // Enumerate every `(coll, m)` group with its candidate configs up
    // front, in deterministic order. A group is one job: its candidates
    // run sequentially in ascending `(lower bound, enumeration index)`
    // order against a running incumbent, so the pruned set never depends
    // on worker count or completion timing, and outcomes come back in
    // enumeration order.
    let mut groups: Vec<(Coll, u64, Vec<HanConfig>)> = Vec::new();
    for &coll in colls {
        for &m in &space.msg_sizes {
            let cfgs = space.configs_for(m, &preset.topology, strategy.heuristic());
            groups.push((coll, m, cfgs));
        }
    }
    let cache = cache.as_deref();
    let outcomes = sweep_groups(
        &groups,
        &largest_first(groups.iter().map(|g| g.1)),
        workers,
        || Machine::from_preset(preset),
        |machine, (coll, m, cfgs)| run_group(machine, preset, *coll, *m, cfgs, cache),
    );

    let mut result = TuneResult {
        strategy,
        table: LookupTable::for_topology(&preset.topology),
        tuning_time: Time::ZERO,
        searches: 0,
        skipped: Vec::new(),
        pruned: 0,
    };
    for ((coll, m, cfgs), outcomes) in groups.iter().zip(outcomes) {
        let mut best: Option<(HanConfig, Time)> = None;
        for (&cfg, r) in cfgs.iter().zip(outcomes) {
            match r {
                Outcome::Cost(Ok(t)) => {
                    result.tuning_time += t * BENCH_ITERS;
                    result.searches += 1;
                    if best.map(|(_, bt)| t < bt).unwrap_or(true) {
                        best = Some((cfg, t));
                    }
                }
                Outcome::Cost(Err(e)) => e.note_in(&mut result.skipped),
                Outcome::Pruned => result.pruned += 1,
            }
        }
        if let Some((cfg, cost)) = best {
            result.table.insert(*coll, *m, cfg, cost);
        }
    }
    result
}

/// Benchmark one `(coll, m)` group, pruning candidates whose analytic
/// lower bound exceeds the incumbent best.
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
) -> Vec<Outcome> {
    // Visit candidates cheapest-bound-first: tight early incumbents
    // maximize later prunes, and the fixed `(bound, index)` key keeps the
    // scan deterministic.
    let mut order: Vec<(Option<Time>, usize)> = cfgs
        .iter()
        .enumerate()
        .map(|(i, cfg)| (lower_bound(preset, cfg, coll, m), i))
        .collect();
    order.sort_by_key(|&(b, i)| (b.unwrap_or(Time::ZERO), i));

    let mut results: Vec<Option<Outcome>> = (0..cfgs.len()).map(|_| None).collect();
    let mut incumbent: Option<Time> = None;
    for (bound, i) in order {
        if let (Some(b), Some(inc)) = (bound, incumbent) {
            if b > inc {
                results[i] = Some(Outcome::Pruned);
                continue;
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

/// One task-based job: a configuration and every `(coll, m)` predicted
/// for it.
struct ConfigJob {
    cfg: HanConfig,
    calls: Vec<(Coll, u64)>,
}

/// One job's predictions plus the benchmark time and runs it charged.
struct ConfigOut {
    predicted: Vec<Result<Time, Unsupported>>,
    spent: Time,
    runs: u64,
}

fn tune_task_based(
    preset: &MachinePreset,
    space: &SearchSpace,
    colls: &[Coll],
    strategy: Strategy,
    cache: Option<Arc<CostCache>>,
    workers: Option<usize>,
) -> TuneResult {
    // One job per configuration: every task measurement belongs to one
    // configuration, so each is taken, and charged, exactly once.
    let mut groups: Vec<(Coll, u64, Vec<usize>)> = Vec::new();
    let mut jobs: Vec<ConfigJob> = Vec::new();
    let mut job_of: HashMap<HanConfig, usize> = HashMap::new();
    for &coll in colls {
        for &m in &space.msg_sizes {
            let mut cands = Vec::new();
            for cfg in space.configs_for(m, &preset.topology, strategy.heuristic()) {
                let j = *job_of.entry(cfg).or_insert_with(|| {
                    jobs.push(ConfigJob {
                        cfg,
                        calls: Vec::new(),
                    });
                    jobs.len() - 1
                });
                jobs[j].calls.push((coll, m));
                cands.push(j);
            }
            groups.push((coll, m, cands));
        }
    }
    let order: Vec<usize> = (0..jobs.len()).collect();
    let outs = sweep_groups(
        &jobs,
        &order,
        workers,
        || {
            let tb = TaskBench::new(preset);
            match &cache {
                Some(c) => tb.with_shared_cache(c.clone()),
                None => tb,
            }
        },
        |tb, job| {
            let (spent, runs) = (tb.spent, tb.runs);
            let predicted = job
                .calls
                .iter()
                .map(|&(coll, m)| predict(tb, &job.cfg, coll, m))
                .collect();
            ConfigOut {
                predicted,
                spent: tb.spent - spent,
                runs: tb.runs - runs,
            }
        },
    );

    let tuning_time = outs.iter().fold(Time::ZERO, |acc, o| acc + o.spent);
    let searches = outs.iter().map(|o| o.runs).sum();
    let mut predicted: Vec<_> = outs.into_iter().map(|o| o.predicted.into_iter()).collect();
    let mut table = LookupTable::for_topology(&preset.topology);
    let mut skipped: Vec<Unsupported> = Vec::new();
    for (coll, m, cands) in groups {
        let mut best: Option<(HanConfig, Time)> = None;
        for j in cands {
            let cfg = jobs[j].cfg;
            match predicted[j].next().expect("one prediction per call") {
                Ok(t) => {
                    if best.map(|(_, bt)| t < bt).unwrap_or(true) {
                        best = Some((cfg, t));
                    }
                }
                Err(e) => e.note_in(&mut skipped),
            }
        }
        if let Some((cfg, cost)) = best {
            table.insert(coll, m, cfg, cost);
        }
    }

    TuneResult {
        strategy,
        table,
        tuning_time,
        searches,
        skipped,
        pruned: 0,
    }
}

/// Simulate (or recall from `cache`) every candidate configuration
/// `space` enumerates for one `(coll, m)` group — unpruned, in
/// enumeration order, duplicates included. This is the full space: the
/// ground truth a tuned table must dominate (`han_verify`'s
/// table-dominance guideline checks the table winner against every
/// `(cfg, cost)` pair returned here, pinning bound-pruning soundness
/// end-to-end) and the exhaustive distribution of Fig. 9.
///
/// # Panics
///
/// If `cache` was built for a different machine preset.
pub fn candidate_costs(
    preset: &MachinePreset,
    space: &SearchSpace,
    coll: Coll,
    m: u64,
    heuristic: bool,
    cache: Option<&CostCache>,
) -> Vec<(HanConfig, Result<Time, Unsupported>)> {
    let cfgs = space.configs_for(m, &preset.topology, heuristic);
    let jobs: Vec<(Coll, u64, HanConfig)> = cfgs.iter().map(|&cfg| (coll, m, cfg)).collect();
    let (costs, _) = cost_each(preset, &jobs, cache, None);
    cfgs.into_iter().zip(costs).collect()
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
    let cfg = table.config(coll, m);
    let mut machine = Machine::from_preset(preset);
    coll_cost(&mut machine, preset, coll, m, cfg, cache)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::pow2_range;
    use han_colls::stack::time_coll;
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
        // tie, so every table entry — winner config *and* cost — must be
        // the first minimum of the full candidate set, on both two- and
        // three-level machines, and every candidate is either simulated
        // or pruned.
        for preset in [mini(2, 4), han_machine::mini3(2, 2, 2)] {
            let mut space = tiny_space();
            space.intra = vec![han_colls::IntraModule::Sm, han_colls::IntraModule::Solo];
            let colls = [Coll::Bcast, Coll::Allreduce, Coll::Reduce];
            let fast = tune(&preset, &space, &colls, Strategy::Exhaustive);
            assert!(
                fast.pruned > 0,
                "{}: pruning should fire on this space",
                preset.name
            );
            let mut candidates = 0;
            for &coll in &colls {
                for &m in &space.msg_sizes {
                    let mut best: Option<(HanConfig, u64)> = None;
                    for (cfg, r) in candidate_costs(&preset, &space, coll, m, false, None) {
                        let t = r.unwrap().as_ps();
                        candidates += 1;
                        if best.map(|(_, bt)| t < bt).unwrap_or(true) {
                            best = Some((cfg, t));
                        }
                    }
                    assert_eq!(
                        fast.table.get(coll, m).map(|e| (e.cfg, e.cost_ps)),
                        best,
                        "{} {coll:?} m={m}: pruned winner differs",
                        preset.name
                    );
                }
            }
            assert_eq!(fast.searches + fast.pruned, candidates, "{}", preset.name);
        }
    }

    #[test]
    fn sweep_costs_match_cold_built_ground_truth() {
        // The parallel, deduplicating sweep must not change a single
        // cost: every `(coll, m, cfg)` cost `candidate_costs` returns —
        // cold, and recalled from a cache a pruned sweep warmed — is
        // compared bit-for-bit against building and timing that
        // candidate's own program.
        for preset in [mini(2, 4), han_machine::mini3(2, 2, 2)] {
            let space = tiny_space();
            let colls = [Coll::Bcast, Coll::Allreduce];
            let cache = Arc::new(CostCache::new(&preset));
            let swept = tune_with_opts(
                &preset,
                &space,
                &colls,
                Strategy::Exhaustive,
                Some(cache.clone()),
                TuneOpts::default(),
            );
            assert!(swept.pruned > 0, "{}", preset.name);
            for &coll in &colls {
                for &m in &space.msg_sizes {
                    let cold = candidate_costs(&preset, &space, coll, m, false, None);
                    let warm = candidate_costs(&preset, &space, coll, m, false, Some(&cache));
                    assert_eq!(cold, warm, "{} {coll:?} m={m}", preset.name);
                    for (cfg, r) in cold {
                        let truth = time_coll(&Han::with_config(cfg), &preset, coll, m, 0);
                        assert_eq!(r, truth, "{} {coll:?} m={m} {cfg}", preset.name);
                    }
                }
            }
        }
    }

    #[test]
    fn results_are_identical_for_every_worker_count() {
        // Jobs are merged by index, never in completion order, so every
        // strategy's table, virtual tuning time and counters — and every
        // cost of the full-space sweep — must not depend on how many
        // workers claimed the jobs.
        type Fingerprint = (
            Vec<usize>,
            Vec<(String, u64, HanConfig, u64)>,
            Time,
            u64,
            u64,
            Vec<Unsupported>,
        );
        fn fingerprint(r: TuneResult) -> Fingerprint {
            let entries = r.table.entries;
            (
                r.table.levels,
                entries
                    .into_iter()
                    .map(|e| (e.coll, e.m, e.cfg, e.cost_ps))
                    .collect(),
                r.tuning_time,
                r.searches,
                r.pruned,
                r.skipped,
            )
        }
        let mut space = tiny_space();
        space.msg_sizes = pow2_range(4 * 1024, 4 << 20);
        space.intra = vec![han_colls::IntraModule::Sm, han_colls::IntraModule::Solo];
        let colls = [Coll::Bcast, Coll::Allreduce, Coll::Reduce];
        for preset in [mini(2, 4), han_machine::mini3(2, 2, 2)] {
            for strategy in Strategy::ALL {
                let run =
                    |w| fingerprint(tune_on(&preset, &space, &colls, strategy, None, Some(w)));
                let one = run(1);
                assert!(!one.1.is_empty());
                for w in [2, 3, 8] {
                    assert!(
                        run(w) == one,
                        "{} {}: {w} workers differ from 1",
                        preset.name,
                        strategy.name()
                    );
                }
            }
            let mut jobs = Vec::new();
            for &coll in &colls {
                for &m in &space.msg_sizes {
                    for cfg in space.configs_for(m, &preset.topology, false) {
                        jobs.push((coll, m, cfg));
                    }
                }
            }
            let one = cost_each(&preset, &jobs, None, Some(1));
            assert_eq!(one.0.len(), jobs.len());
            for w in [2, 3, 8] {
                assert!(
                    cost_each(&preset, &jobs, None, Some(w)) == one,
                    "{}: cost_each on {w} workers differs from 1",
                    preset.name
                );
            }
        }
    }

    #[test]
    fn collective_order_is_invisible_to_the_task_based_tuner() {
        // Every task cost is measured in a context fixed by the task, so
        // tuning `[Bcast, Allreduce, Reduce]` or its reverse must pick the
        // same entries and charge the same runs and virtual time.
        let mut space = tiny_space();
        space.msg_sizes = pow2_range(4, 4 << 20);
        space.intra = vec![han_colls::IntraModule::Sm, han_colls::IntraModule::Solo];
        let colls = [Coll::Bcast, Coll::Allreduce, Coll::Reduce];
        let mut reversed = colls;
        reversed.reverse();
        for preset in [mini(2, 4), han_machine::shaheen2_ppn(8, 4)] {
            for strategy in [Strategy::TaskBased, Strategy::TaskBasedHeuristic] {
                let a = tune(&preset, &space, &colls, strategy);
                let b = tune(&preset, &space, &reversed, strategy);
                for &coll in &colls {
                    for &m in &space.msg_sizes {
                        assert_eq!(
                            a.table.get(coll, m).map(|e| (e.cfg, e.cost_ps)),
                            b.table.get(coll, m).map(|e| (e.cfg, e.cost_ps)),
                            "{} {} {coll:?} m={m}: entry depends on the order",
                            preset.name,
                            strategy.name()
                        );
                    }
                }
                assert_eq!(
                    (a.searches, a.tuning_time),
                    (b.searches, b.tuning_time),
                    "{} {}",
                    preset.name,
                    strategy.name()
                );
            }
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
