//! Task benchmarking (paper section III-A2).
//!
//! Measures the cost of HAN tasks on each node leader, reproducing the
//! paper's methodology:
//!
//! * simple tasks (`ib(0)`, `sb(0)`) are timed by running them alone —
//!   "a simple benchmark using a loop around a timed task";
//! * tasks that follow other tasks are timed with *delayed participation*:
//!   each node starts at the virtual time its leader finished the
//!   preceding tasks ("we need to delay the participation of each process
//!   by the duration of the ib(0) step to simulate the different starting
//!   time of sbib(1)");
//! * repeated tasks are re-measured occurrence by occurrence until their
//!   cost stabilizes (Fig. 3), and the stabilized cost is reused.
//!
//! Every actual benchmark run adds its virtual duration (× the repetition
//! count a real harness would use) to [`TaskBench::spent`] — the quantity
//! Fig. 8 compares across tuning strategies. Cache hits cost nothing,
//! which is exactly how task reuse across message sizes and collectives
//! saves tuning time.

use crate::cache::CostCache;
use han_core::task::{task_program, TaskSpec};
use han_core::HanConfig;
use han_machine::{Flavor, Machine, MachinePreset};
use han_mpi::{execute, ExecOpts};
use han_sim::Time;
use std::collections::HashMap;
use std::sync::Arc;

/// Repetitions a real offline tuner would run per measurement (IMB-style).
pub const BENCH_ITERS: u64 = 10;

/// Relative change (of the slowest leader's cost) below which two
/// consecutive occurrence measurements count as stabilized.
const STABLE_TOL: f64 = 0.03;

/// Cache key: configuration, task, segment size, and the *relative* start
/// skew pattern (costs are invariant under a uniform shift of all nodes,
/// but not under changes of the inter-node skew shape — that is the whole
/// point of the delayed-participation benchmark).
type Key = (HanConfig, TaskSpec, u64, Vec<u64>);

fn skew_key(skew: &[Time]) -> Vec<u64> {
    let min = skew.iter().copied().min().unwrap_or(Time::ZERO);
    skew.iter().map(|s| (*s - min).as_ps()).collect()
}

/// A benchmarking session over one machine preset.
pub struct TaskBench {
    preset: MachinePreset,
    machine: Machine,
    cache: HashMap<Key, Vec<Time>>,
    /// `(cfg, spec, seg)` → `(occurrence threshold, stabilized cost)`:
    /// occurrences at or beyond the threshold reuse the stabilized cost.
    frozen: HashMap<(HanConfig, TaskSpec, u64), (u32, Vec<Time>)>,
    /// Last actually-measured occurrence per task, for the stabilization
    /// comparison.
    last_measured: HashMap<(HanConfig, TaskSpec, u64), (u32, Vec<Time>)>,
    /// Global occurrence counter per task across all cost-model walks:
    /// once a task type has been benchmarked (to `max_occurrences` depth),
    /// every later pipeline — any message size, any collective — reuses
    /// its cost, exactly the paper's reuse argument.
    global_occ: HashMap<(HanConfig, TaskSpec, u64), u32>,
    /// Occurrence index at which a repeated task's cost is frozen as
    /// stabilized even if still drifting. The default (1) is the paper's
    /// scheme — each task type is benchmarked once, with the
    /// delayed-participation skew standing in for its predecessors (so the
    /// single `sbib` measurement *is* `sbib(1)`), giving exactly `T`
    /// benchmark types per configuration (3 for Bcast, 8 for Allreduce).
    /// Raise it to study the Fig. 3 stabilization trend.
    pub max_occurrences: u32,
    /// Total virtual time spent in actual benchmark runs.
    pub spent: Time,
    /// Number of actual benchmark runs (cache misses).
    pub runs: u64,
    /// Optional cross-run memo: measurements found here skip the
    /// simulation but are accounted (`spent`, `runs`) exactly as if they
    /// had run, so virtual tuning-time figures are cache-independent.
    shared: Option<Arc<CostCache>>,
}

impl TaskBench {
    pub fn new(preset: &MachinePreset) -> Self {
        TaskBench {
            preset: *preset,
            machine: Machine::from_preset(preset),
            cache: HashMap::new(),
            frozen: HashMap::new(),
            last_measured: HashMap::new(),
            global_occ: HashMap::new(),
            max_occurrences: 1,
            spent: Time::ZERO,
            runs: 0,
            shared: None,
        }
    }

    /// Attach a shared [`CostCache`] (must be for the same preset).
    pub fn with_shared_cache(mut self, cache: Arc<CostCache>) -> Self {
        cache.assert_for(&self.preset);
        self.shared = Some(cache);
        self
    }

    /// Measure repeated tasks up to `n` occurrences before freezing
    /// (Fig. 3 studies; the tuner default is 1).
    pub fn with_max_occurrences(mut self, n: u32) -> Self {
        self.max_occurrences = n.max(1);
        self
    }

    pub fn preset(&self) -> &MachinePreset {
        &self.preset
    }

    /// Number of node leaders (= nodes).
    pub fn leaders(&self) -> usize {
        self.preset.topology.nodes()
    }

    /// Measure one task occurrence: run `spec` with per-node start skew
    /// and return each leader's cost (finish − its skew).
    fn measure(&mut self, cfg: &HanConfig, spec: TaskSpec, seg: u64, skew: &[Time]) -> Vec<Time> {
        // Warm path: a prior run (possibly a previous process) already
        // simulated this exact measurement. Account for it identically.
        let rel = skew_key(skew);
        if let Some(shared) = &self.shared {
            if let Some((cost, window)) = shared.lookup_task(cfg, spec, seg, &rel) {
                self.spent += window * BENCH_ITERS;
                self.runs += 1;
                return cost;
            }
        }
        let tp = task_program(&self.preset, cfg, spec, seg, 0);
        let topo = self.preset.topology;
        let mut start = vec![Time::ZERO; topo.world_size()];
        for (node, &s) in skew.iter().enumerate() {
            for r in topo.node_ranks(node) {
                start[r] = s;
            }
        }
        let opts = ExecOpts::timing(Flavor::OpenMpi.p2p()).with_skew(start);
        let rep = execute(&mut self.machine, &tp.program, &opts);
        // The benchmark occupies the cluster from the first participant's
        // start to the last completion; the lead-in skew itself is not
        // re-paid per measurement (a real tuner injects delays relative to
        // the benchmark's own clock).
        let window = rep
            .makespan
            .saturating_sub(skew.iter().copied().min().unwrap_or(Time::ZERO));
        self.spent += window * BENCH_ITERS;
        self.runs += 1;
        let cost: Vec<Time> = tp
            .observers
            .iter()
            .enumerate()
            .map(|(ul, &(_, op))| rep.finish(op).saturating_sub(skew[ul]))
            .collect();
        if let Some(shared) = &self.shared {
            shared.record_task(cfg, spec, seg, rel, &cost, window);
        }
        cost
    }

    /// Cost of the `occ`-th occurrence of `spec` within a task pipeline
    /// whose preceding tasks account for `skew` virtual time per node.
    ///
    /// Occurrences at or beyond the stabilization point reuse the frozen
    /// stabilized cost (Fig. 3). Identical `(cfg, spec, seg, relative
    /// skew)` combinations are served from cache — this is the task-cost
    /// reuse across message sizes and collectives.
    pub fn occurrence_cost(
        &mut self,
        cfg: &HanConfig,
        spec: TaskSpec,
        seg: u64,
        occ: u32,
        skew: &[Time],
    ) -> Vec<Time> {
        let fkey = (*cfg, spec, seg);
        if let Some((at, cost)) = self.frozen.get(&fkey) {
            if occ >= *at {
                return cost.clone();
            }
        }
        let key = (*cfg, spec, seg, skew_key(skew));
        if let Some(c) = self.cache.get(&key) {
            return c.clone();
        }
        let cost = self.measure(cfg, spec, seg, skew);
        // Stabilization: freeze after the configured number of
        // occurrences, or earlier if consecutive measurements agree. The
        // threshold never reaches down to occurrence 0, so first
        // occurrences in a *different* skew context (e.g. the unskewed
        // `ib∥sb` probe of Fig. 2 vs the pipeline's `sbib(1)`) are always
        // measured on their own terms.
        if occ + 1 >= self.max_occurrences {
            self.frozen.insert(fkey, (occ.max(1), cost.clone()));
        } else if let Some((prev_occ, prev)) = self.last_measured.get(&fkey) {
            if occ == prev_occ + 1 {
                let a = prev.iter().max().copied().unwrap_or(Time::ZERO);
                let b = cost.iter().max().copied().unwrap_or(Time::ZERO);
                let rel = (a.as_ps() as f64 - b.as_ps() as f64).abs() / (b.as_ps().max(1) as f64);
                if rel < STABLE_TOL {
                    self.frozen.insert(fkey, (occ, cost.clone()));
                }
            }
        }
        self.last_measured.insert(fkey, (occ, cost.clone()));
        self.cache.insert(key, cost.clone());
        cost
    }

    /// Cost of the next pipeline occurrence of `spec`, with a global
    /// per-task occurrence counter: the cost-model walks in
    /// [`crate::model::predict`] call this, so task costs are benchmarked
    /// once and reused across message sizes and collectives.
    pub fn pipeline_cost(
        &mut self,
        cfg: &HanConfig,
        spec: TaskSpec,
        seg: u64,
        skew: &[Time],
    ) -> Vec<Time> {
        let fkey = (*cfg, spec, seg);
        let occ = self.global_occ.get(&fkey).copied().unwrap_or(0);
        let cost = self.occurrence_cost(cfg, spec, seg, occ, skew);
        self.global_occ.insert(fkey, occ + 1);
        cost
    }

    /// Direct cost of a task with no predecessor (e.g. `ib(0)`, the blue
    /// bars of Fig. 2).
    pub fn first_cost(&mut self, cfg: &HanConfig, spec: TaskSpec, seg: u64) -> Vec<Time> {
        let skew = vec![Time::ZERO; self.leaders()];
        self.occurrence_cost(cfg, spec, seg, 0, &skew)
    }

    /// The per-occurrence cost trace of a repeated task following a
    /// lead-in sequence — the data of Fig. 3. Returns `count` cost vectors.
    pub fn occurrence_trace(
        &mut self,
        cfg: &HanConfig,
        leadin: &[TaskSpec],
        spec: TaskSpec,
        seg: u64,
        count: u32,
    ) -> Vec<Vec<Time>> {
        let nl = self.leaders();
        let mut skew = vec![Time::ZERO; nl];
        for (occ, &pre) in leadin.iter().enumerate() {
            let c = self.occurrence_cost(cfg, pre, seg, occ as u32, &skew);
            for (s, d) in skew.iter_mut().zip(&c) {
                *s += *d;
            }
        }
        let mut out = Vec::with_capacity(count as usize);
        for occ in 0..count {
            let c = self.occurrence_cost(cfg, spec, seg, occ, &skew);
            for (s, d) in skew.iter_mut().zip(&c) {
                *s += *d;
            }
            out.push(c);
        }
        out
    }
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
        let mut tb = bench().with_max_occurrences(4);
        let cfg = HanConfig::default();
        let trace = tb.occurrence_trace(&cfg, &[TaskSpec::IB], TaskSpec::SBIB, 128 * 1024, 8);
        assert_eq!(trace.len(), 8);
        // Later occurrences must be identical (frozen stabilized cost).
        assert_eq!(trace[6], trace[7], "stabilized cost reused");
        // And the whole trace costs at most max_occurrences runs of sbib
        // plus one ib run.
        assert!(tb.runs <= 4 + 1, "runs={}", tb.runs);
    }

    #[test]
    fn default_freezes_after_single_measurement() {
        // The paper's scheme: one benchmark per task type — T=3 for bcast.
        let mut tb = bench();
        let cfg = HanConfig::default();
        let trace = tb.occurrence_trace(&cfg, &[TaskSpec::IB], TaskSpec::SBIB, 128 * 1024, 8);
        assert_eq!(trace.len(), 8);
        assert_eq!(trace[0], trace[7], "sbib(1) reused as sbib(s)");
        assert_eq!(tb.runs, 2, "one ib + one sbib measurement");
    }

    #[test]
    fn spent_accumulates_virtual_time() {
        let mut tb = bench();
        tb.first_cost(&HanConfig::default(), TaskSpec::SB, 64 * 1024);
        assert!(tb.spent > Time::ZERO);
        assert_eq!(tb.runs, 1);
    }
}
