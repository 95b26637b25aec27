//! Cross-run memoization of simulated costs (the sweep fast path).
//!
//! The paper's tuning-time argument is that measured task costs are
//! *reused* across message sizes and collectives. [`TaskBench`] already
//! reuses each measurement within one session (one memo, keyed like the
//! task key below); this module extends the same idea across sessions and
//! strategies, for the simulator's wall-clock: a [`CostCache`] memoizes
//!
//! * **collective costs** — `(collective, config, message size)` → virtual
//!   latency, the unit of work of the exhaustive sweeps behind Figs. 8/9;
//! * **task costs** — `(config, task spec, segment size, relative skew)` →
//!   per-leader virtual costs plus the benchmark window, the unit of work
//!   of task-based tuning.
//!
//! The cache is shared across message sizes, collectives, and search
//! strategies within a run (the heuristic search space is a subset of the
//! full one, so a full sweep warms every heuristic sweep for free). It
//! lives in memory only, for one run.
//!
//! Every cache is bound to a fingerprint — a stable hash of the complete
//! machine preset (topology, node, and network parameters, floats hashed
//! by shortest decimal representation).
//!
//! **Fidelity rule:** a cache hit must be observationally identical to a
//! simulation. Hits return the exact virtual times a simulation would
//! produce and are accounted identically (`spent`/`runs` in
//! [`TaskBench`], `tuning_time`/`searches` in the search strategies) —
//! only host wall-clock is saved, never virtual time.
//!
//! [`TaskBench`]: crate::taskbench::TaskBench

use han_colls::Coll;
use han_core::task::TaskSpec;
use han_core::HanConfig;
use han_machine::MachinePreset;
use han_sim::Time;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

type CollKey = (Coll, HanConfig, u64);
type TaskKey = (HanConfig, TaskSpec, u64, Vec<u64>);

/// A memoized task measurement: per-leader costs plus the cluster-occupancy
/// window the benchmark charged (both in picoseconds).
#[derive(Debug, Clone)]
struct TaskEntry {
    cost_ps: Vec<u64>,
    window_ps: u64,
}

#[derive(Default)]
struct Inner {
    coll: HashMap<CollKey, u64>,
    task: HashMap<TaskKey, TaskEntry>,
}

/// Shared, thread-safe cost memo bound to one machine preset.
pub struct CostCache {
    fingerprint: u64,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Hit/miss/size counters for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub coll_entries: usize,
    pub task_entries: usize,
}

impl CostCache {
    pub fn new(preset: &MachinePreset) -> Self {
        CostCache {
            fingerprint: han_decide::preset_fingerprint(preset),
            inner: Mutex::new(Inner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Panic unless this cache was built for `preset`: its costs would
    /// otherwise silently stand in for another machine's.
    pub(crate) fn assert_for(&self, preset: &MachinePreset) {
        assert_eq!(
            self.fingerprint,
            han_decide::preset_fingerprint(preset),
            "cost cache belongs to a different machine preset"
        );
    }

    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coll_entries: inner.coll.len(),
            task_entries: inner.task.len(),
        }
    }

    /// Memoized full-collective latency, if present.
    pub fn lookup_coll(&self, coll: Coll, cfg: &HanConfig, m: u64) -> Option<Time> {
        let found = self
            .inner
            .lock()
            .unwrap()
            .coll
            .get(&(coll, *cfg, m))
            .copied();
        match found {
            Some(ps) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Time::from_ps(ps))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    pub fn record_coll(&self, coll: Coll, cfg: &HanConfig, m: u64, cost: Time) {
        self.inner
            .lock()
            .unwrap()
            .coll
            .insert((coll, *cfg, m), cost.as_ps());
    }

    /// Memoized task measurement: `(per-leader costs, benchmark window)`.
    pub fn lookup_task(
        &self,
        cfg: &HanConfig,
        spec: TaskSpec,
        seg: u64,
        skew_key: &[u64],
    ) -> Option<(Vec<Time>, Time)> {
        let found = self
            .inner
            .lock()
            .unwrap()
            .task
            .get(&(*cfg, spec, seg, skew_key.to_vec()))
            .cloned();
        match found {
            Some(e) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some((
                    e.cost_ps.iter().map(|&p| Time::from_ps(p)).collect(),
                    Time::from_ps(e.window_ps),
                ))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    pub fn record_task(
        &self,
        cfg: &HanConfig,
        spec: TaskSpec,
        seg: u64,
        skew_key: Vec<u64>,
        costs: &[Time],
        window: Time,
    ) {
        self.inner.lock().unwrap().task.insert(
            (*cfg, spec, seg, skew_key),
            TaskEntry {
                cost_ps: costs.iter().map(|t| t.as_ps()).collect(),
                window_ps: window.as_ps(),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_machine::mini;

    #[test]
    fn coll_memo_round_trip() {
        let preset = mini(2, 2);
        let cache = CostCache::new(&preset);
        let cfg = HanConfig::default();
        assert_eq!(cache.lookup_coll(Coll::Bcast, &cfg, 1024), None);
        cache.record_coll(Coll::Bcast, &cfg, 1024, Time::from_us(7));
        assert_eq!(
            cache.lookup_coll(Coll::Bcast, &cfg, 1024),
            Some(Time::from_us(7))
        );
        // Other keys stay cold.
        assert_eq!(cache.lookup_coll(Coll::Allreduce, &cfg, 1024), None);
        assert_eq!(cache.lookup_coll(Coll::Bcast, &cfg, 2048), None);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.coll_entries), (1, 3, 1));
    }

    #[test]
    fn task_memo_round_trip() {
        let preset = mini(2, 2);
        let cache = CostCache::new(&preset);
        let cfg = HanConfig::default();
        let skew = vec![0u64, 500];
        assert!(cache.lookup_task(&cfg, TaskSpec::IB, 4096, &skew).is_none());
        cache.record_task(
            &cfg,
            TaskSpec::IB,
            4096,
            skew.clone(),
            &[Time::from_us(1), Time::from_us(2)],
            Time::from_us(3),
        );
        let (costs, window) = cache.lookup_task(&cfg, TaskSpec::IB, 4096, &skew).unwrap();
        assert_eq!(costs, vec![Time::from_us(1), Time::from_us(2)]);
        assert_eq!(window, Time::from_us(3));
        // A different skew shape is a different measurement.
        assert!(cache
            .lookup_task(&cfg, TaskSpec::IB, 4096, &[0, 501])
            .is_none());
    }
}
