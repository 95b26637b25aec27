//! Task benchmarking (paper section III-A2).
//!
//! Measures the cost of HAN tasks on each node leader, reproducing the
//! paper's methodology:
//!
//! * each task type is benchmarked once per `(config, segment size)`
//!   ([`TaskBench::task_cost`]), and that cost is reused for every message
//!   size and collective;
//! * a task that follows other tasks is timed with *delayed
//!   participation*: each node starts at the virtual time its leader
//!   finished the tasks that [`context`] puts before it ("we need to delay
//!   the participation of each process by the duration of the ib(0) step
//!   to simulate the different starting time of sbib(1)"). The context
//!   depends only on the task, so a cost never depends on what the bench
//!   measured before;
//! * [`TaskBench::occurrence_trace`] re-measures a repeated task
//!   occurrence by occurrence until its cost stabilizes (Fig. 3).
//!
//! Every measurement is taken through the session's [`CostCache`], which
//! may be shared with other sessions. The first time a session uses a
//! measurement it adds the run's virtual duration (× the repetition count
//! a real harness would use) to [`TaskBench::spent`] — the quantity
//! Fig. 8 compares across tuning strategies — whether the cache simulated
//! it or recalled it. Later uses cost nothing, which is exactly how task
//! reuse across message sizes and collectives saves tuning time.

use crate::cache::{CostCache, TaskEntry, TaskKey};
use han_core::task::{task_program, TaskSpec};
use han_core::HanConfig;
use han_machine::{Flavor, Machine, MachinePreset};
use han_mpi::{execute, ExecOpts};
use han_sim::Time;
use std::collections::HashSet;
use std::sync::Arc;

/// Repetitions a real offline tuner would run per measurement (IMB-style).
pub const BENCH_ITERS: u64 = 10;

/// Relative change (of the slowest leader's cost) below which two
/// consecutive occurrence measurements count as stabilized.
const STABLE_TOL: f64 = 0.03;

/// Bcast's steady pipeline: the place of every task without a reduce
/// phase.
const BCAST_STEADY: [TaskSpec; 3] = [TaskSpec::IB, TaskSpec::SBIB, TaskSpec::SB];

/// Allreduce's steady pipeline: the place of every other task.
const ALLREDUCE_STEADY: [TaskSpec; 5] = [
    TaskSpec::SR,
    TaskSpec::IRSR,
    TaskSpec::IBIRSR,
    TaskSpec::SBIBIRSR,
    TaskSpec::SBIBIR,
];

/// The tasks that run before `spec` when it is benchmarked: its
/// predecessors in the steady pipeline it belongs to. `ir` and `ibir`
/// appear only in 1- and 2-segment Allreduces, and follow `sr` and
/// `sr, irsr` as they do there. A task in neither pipeline runs alone.
///
/// Every context is a prefix of one pipeline, and each task in it has the
/// shorter prefix before it as its own context.
pub fn context(spec: TaskSpec) -> &'static [TaskSpec] {
    let pipeline: &'static [TaskSpec] = if spec.ir || spec.sr {
        &ALLREDUCE_STEADY
    } else {
        &BCAST_STEADY
    };
    let at = match spec {
        TaskSpec::IR => 1,
        TaskSpec::IBIR => 2,
        _ => pipeline.iter().position(|&p| p == spec).unwrap_or(0),
    };
    &pipeline[..at]
}

/// The relative start skew pattern of a measurement's key: costs are
/// invariant under a uniform shift of all nodes, but not under changes of
/// the inter-node skew shape — that is the whole point of the
/// delayed-participation benchmark.
fn skew_key(skew: &[Time]) -> Vec<u64> {
    let min = skew.iter().copied().min().unwrap_or(Time::ZERO);
    skew.iter().map(|s| (*s - min).as_ps()).collect()
}

fn delay(skew: &mut [Time], cost: &[Time]) {
    for (s, d) in skew.iter_mut().zip(cost) {
        *s += *d;
    }
}

/// A benchmarking session over one machine preset.
pub struct TaskBench {
    cache: Arc<CostCache>,
    machine: Machine,
    /// Every measurement this session has charged to `spent` and `runs`.
    charged: HashSet<TaskKey>,
    /// Total virtual time spent in actual benchmark runs.
    pub spent: Time,
    /// Number of distinct measurements this session has used.
    pub runs: u64,
}

impl TaskBench {
    /// A session measuring through a cache of its own.
    pub fn new(preset: &MachinePreset) -> Self {
        Self::with_cache(Arc::new(CostCache::new(preset)))
    }

    /// A session on `cache`'s machine that measures through `cache`.
    /// Measurements found there skip the simulation but are charged
    /// (`spent`, `runs`) exactly as if they had run, so virtual
    /// tuning-time figures are cache-independent.
    pub fn with_cache(cache: Arc<CostCache>) -> Self {
        TaskBench {
            machine: Machine::from_preset(cache.preset()),
            cache,
            charged: HashSet::new(),
            spent: Time::ZERO,
            runs: 0,
        }
    }

    pub fn preset(&self) -> &MachinePreset {
        self.cache.preset()
    }

    /// Number of node leaders (= nodes).
    pub fn leaders(&self) -> usize {
        self.preset().topology.nodes()
    }

    /// Run `spec` with per-node start skew and return each leader's cost
    /// (finish − its skew). The first use of each measurement is charged
    /// to `spent` and `runs`; a later one is free.
    fn measured(&mut self, cfg: &HanConfig, spec: TaskSpec, seg: u64, skew: &[Time]) -> Vec<Time> {
        let key = (*cfg, spec, seg, skew_key(skew));
        let (cache, machine) = (&self.cache, &mut self.machine);
        let (cost, window) = cache.task_cost(&key, || {
            simulate(machine, cache.preset(), cfg, spec, seg, skew)
        });
        if self.charged.insert(key) {
            self.spent += window * BENCH_ITERS;
            self.runs += 1;
        }
        cost
    }

    /// Each leader's finish time after running `leadin` in order from a
    /// common start, each task delayed by the ones before it.
    fn after(&mut self, cfg: &HanConfig, leadin: &[TaskSpec], seg: u64) -> Vec<Time> {
        let mut skew = vec![Time::ZERO; self.leaders()];
        for &pre in leadin {
            let c = self.measured(cfg, pre, seg, &skew);
            delay(&mut skew, &c);
        }
        skew
    }

    /// The cost of `spec` on each leader, benchmarked once per
    /// `(cfg, seg)` after the tasks of its [`context`] — each of which,
    /// having the prefix before it as its own context, is priced by
    /// `task_cost` too. A pure function of its arguments.
    pub fn task_cost(&mut self, cfg: &HanConfig, spec: TaskSpec, seg: u64) -> Vec<Time> {
        let skew = self.after(cfg, context(spec), seg);
        self.measured(cfg, spec, seg, &skew)
    }

    /// Direct cost of a task with no predecessor (e.g. `ib(0)`, the blue
    /// bars of Fig. 2).
    pub fn first_cost(&mut self, cfg: &HanConfig, spec: TaskSpec, seg: u64) -> Vec<Time> {
        let skew = self.after(cfg, &[], seg);
        self.measured(cfg, spec, seg, &skew)
    }

    /// The per-occurrence cost trace of a repeated task following a
    /// lead-in sequence — the data of Fig. 3. Returns `count` cost vectors.
    /// Once two consecutive occurrences agree within 3 %, later
    /// occurrences reuse the stabilized cost instead of being measured.
    pub fn occurrence_trace(
        &mut self,
        cfg: &HanConfig,
        leadin: &[TaskSpec],
        spec: TaskSpec,
        seg: u64,
        count: u32,
    ) -> Vec<Vec<Time>> {
        let mut skew = self.after(cfg, leadin, seg);
        let mut out: Vec<Vec<Time>> = Vec::with_capacity(count as usize);
        let mut stable = false;
        for _ in 0..count {
            let c = match out.last() {
                Some(prev) if stable => prev.clone(),
                prev => {
                    let c = self.measured(cfg, spec, seg, &skew);
                    stable = prev.is_some_and(|p| agree(p, &c));
                    c
                }
            };
            delay(&mut skew, &c);
            out.push(c);
        }
        out
    }
}

/// Simulate one measurement: each leader's cost plus the window the
/// benchmark occupies the cluster.
fn simulate(
    machine: &mut Machine,
    preset: &MachinePreset,
    cfg: &HanConfig,
    spec: TaskSpec,
    seg: u64,
    skew: &[Time],
) -> TaskEntry {
    let tp = task_program(preset, cfg, spec, seg, 0);
    let topo = preset.topology;
    let mut start = vec![Time::ZERO; topo.world_size()];
    for (node, &s) in skew.iter().enumerate() {
        for r in topo.node_ranks(node) {
            start[r] = s;
        }
    }
    let opts = ExecOpts::timing(Flavor::OpenMpi.p2p()).with_skew(start);
    let rep = execute(machine, &tp.program, &opts);
    // The benchmark occupies the cluster from the first participant's
    // start to the last completion; the lead-in skew itself is not
    // re-paid per measurement (a real tuner injects delays relative to
    // the benchmark's own clock).
    let window = rep
        .makespan
        .saturating_sub(skew.iter().copied().min().unwrap_or(Time::ZERO));
    let cost = tp
        .observers
        .iter()
        .enumerate()
        .map(|(ul, &(_, op))| rep.finish(op).saturating_sub(skew[ul]))
        .collect();
    (cost, window)
}

/// Whether two occurrences' slowest-leader costs agree within
/// [`STABLE_TOL`].
fn agree(prev: &[Time], cost: &[Time]) -> bool {
    let a = prev.iter().max().copied().unwrap_or(Time::ZERO);
    let b = cost.iter().max().copied().unwrap_or(Time::ZERO);
    (a.as_ps() as f64 - b.as_ps() as f64).abs() / (b.as_ps().max(1) as f64) < STABLE_TOL
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_machine::mini;

    fn bench() -> TaskBench {
        TaskBench::new(&mini(4, 4))
    }

    #[test]
    fn ib_costs_differ_across_leaders() {
        let mut tb = bench();
        let c = tb.first_cost(&HanConfig::default(), TaskSpec::IB, 64 * 1024);
        assert_eq!(c.len(), 4);
        // The root finishes when its sends complete; deeper leaders later.
        assert!(c.iter().max() > c.iter().min());
        assert!(c.iter().all(|&t| t > Time::ZERO));
    }

    #[test]
    fn cache_avoids_reruns() {
        let mut tb = bench();
        let cfg = HanConfig::default();
        tb.first_cost(&cfg, TaskSpec::IB, 64 * 1024);
        let runs = tb.runs;
        let spent = tb.spent;
        tb.first_cost(&cfg, TaskSpec::IB, 64 * 1024);
        assert_eq!(tb.runs, runs, "cache hit must not re-run");
        assert_eq!(tb.spent, spent);
    }

    #[test]
    fn shared_cache_hits_are_charged_like_runs() {
        // A second session on the same cache simulates nothing, yet pays
        // exactly what the first one paid.
        let cache = Arc::new(CostCache::new(&mini(4, 4)));
        let cfg = HanConfig::default();
        let mut a = TaskBench::with_cache(cache.clone());
        let mut b = TaskBench::with_cache(cache.clone());
        let cost = a.task_cost(&cfg, TaskSpec::SB, 64 * 1024);
        let misses = cache.stats().misses;
        assert_eq!(b.task_cost(&cfg, TaskSpec::SB, 64 * 1024), cost);
        assert_eq!(cache.stats().misses, misses, "b recalls every measurement");
        assert_eq!((b.runs, b.spent), (a.runs, a.spent));
    }

    #[test]
    fn different_configs_are_benchmarked_separately() {
        let mut tb = bench();
        let a = tb.first_cost(&HanConfig::default(), TaskSpec::IB, 64 * 1024);
        let cfg2 = HanConfig::default()
            .with_inter(han_colls::InterModule::Adapt, han_colls::InterAlg::Chain);
        let b = tb.first_cost(&cfg2, TaskSpec::IB, 64 * 1024);
        assert_ne!(a, b, "chain and binomial must differ");
        assert_eq!(tb.runs, 2);
    }

    #[test]
    fn occurrence_trace_stabilizes() {
        let mut tb = bench();
        let cfg = HanConfig::default();
        let trace = tb.occurrence_trace(&cfg, &[TaskSpec::IB], TaskSpec::SBIB, 128 * 1024, 8);
        assert_eq!(trace.len(), 8);
        // Once two consecutive occurrences agree, the rest reuse the
        // stabilized cost and are not measured.
        let at = (1..8)
            .find(|&i| agree(&trace[i - 1], &trace[i]))
            .expect("sbib stabilizes within 8 occurrences");
        assert!(trace[at..].iter().all(|c| *c == trace[at]));
        assert_eq!(tb.runs, 1 + at as u64 + 1, "one ib plus sbib(1..=at)");
    }

    #[test]
    fn each_task_is_benchmarked_once_in_its_fixed_context() {
        // The paper's scheme: one benchmark per task type, the
        // delayed-participation skew standing in for its predecessors, so
        // the single `sbib` measurement *is* `sbib(1)` after `ib(0)`.
        let mut tb = bench();
        let cfg = HanConfig::default();
        let seg = 128 * 1024;
        let sbib = tb.task_cost(&cfg, TaskSpec::SBIB, seg);
        assert_eq!(tb.runs, 2, "one ib + one sbib measurement");
        assert_eq!(
            sbib,
            tb.occurrence_trace(&cfg, &[TaskSpec::IB], TaskSpec::SBIB, seg, 1)[0]
        );
        let sb = tb.task_cost(&cfg, TaskSpec::SB, seg);
        assert_eq!(tb.runs, 3, "sb after ib, sbib adds one measurement");
        assert_eq!(
            sb,
            tb.occurrence_trace(&cfg, &[TaskSpec::IB, TaskSpec::SBIB], TaskSpec::SB, seg, 1)[0]
        );
        let spent = tb.spent;
        for spec in [TaskSpec::IB, TaskSpec::SBIB, TaskSpec::SB] {
            tb.task_cost(&cfg, spec, seg);
        }
        assert_eq!((tb.runs, tb.spent), (3, spent), "later calls are memo hits");
    }

    #[test]
    fn contexts_are_pipeline_prefixes() {
        let names = |spec| context(spec).iter().map(|s| s.name()).collect::<Vec<_>>();
        assert!(names(TaskSpec::IB).is_empty());
        assert_eq!(names(TaskSpec::SB), ["ib", "sbib"]);
        assert!(names(TaskSpec::SR).is_empty());
        assert_eq!(names(TaskSpec::IR), ["sr"]);
        assert_eq!(names(TaskSpec::IBIR), ["sr", "irsr"]);
        assert_eq!(
            names(TaskSpec::SBIBIR),
            ["sr", "irsr", "ibirsr", "sbibirsr"]
        );
        // Each context task's own context is the prefix before it, so
        // `task_cost` prices every predecessor by `task_cost` too.
        for spec in crate::model::allreduce_sequence(3) {
            let ctx = context(spec);
            for (i, &pre) in ctx.iter().enumerate() {
                assert_eq!(context(pre), &ctx[..i], "{}", spec.name());
            }
        }
    }

    #[test]
    fn spent_accumulates_virtual_time() {
        let mut tb = bench();
        tb.first_cost(&HanConfig::default(), TaskSpec::SB, 64 * 1024);
        assert!(tb.spent > Time::ZERO);
        assert_eq!(tb.runs, 1);
    }
}
