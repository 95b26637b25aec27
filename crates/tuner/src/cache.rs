//! The one memo of simulated costs.
//!
//! The paper's tuning-time argument is that a measured cost is *reused*
//! across message sizes, collectives and search strategies. A
//! [`CostCache`] is the only place the tuner and the synthesizer keep a
//! cost: every collective simulation goes through
//! [`CostCache::coll_cost`] and every task measurement through
//! [`CostCache::task_cost`]. It memoizes
//!
//! * **collective costs**, keyed by [`CostCache::key`]: `(collective,
//!   message size, effective config)`. Configs whose
//!   [`HanConfig::effective`] forms agree build the same program, so the
//!   key names the program simulated and every config that builds it
//!   shares one run. The entry is the `Result`, so an unsupported build
//!   is remembered too;
//! * **task costs** — `(config, task spec, segment size, relative skew)` →
//!   per-leader costs plus the benchmark window, the unit of work of
//!   task-based tuning ([`TaskBench`]).
//!
//! A cache belongs to one machine preset, which it stores; the costing
//! entry points read the machine from the cache they are given, so a
//! cache never answers for another machine. It lives in memory only, for
//! one run.
//!
//! **Fidelity rule:** a cache hit must be observationally identical to a
//! simulation. Hits return the exact virtual times a simulation would
//! produce and are accounted identically (`spent`/`runs` in
//! [`TaskBench`], `tuning_time`/`searches` in the search strategies) —
//! only host wall-clock is saved, never virtual time.
//!
//! [`TaskBench`]: crate::taskbench::TaskBench

use han_colls::stack::{time_coll_on, Unsupported};
use han_colls::Coll;
use han_core::task::TaskSpec;
use han_core::{Han, HanConfig};
use han_machine::{Machine, MachinePreset};
use han_sim::Time;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The program a collective cost belongs to: `(coll, m, effective cfg)`.
pub type CollKey = (Coll, u64, HanConfig);
/// One task measurement: `(cfg, task, segment size, relative skew in ps)`.
pub type TaskKey = (HanConfig, TaskSpec, u64, Vec<u64>);
/// A task measurement's per-leader costs and benchmark window.
pub type TaskEntry = (Vec<Time>, Time);

const POISONED: &str = "a thread panicked while holding the cost cache";

/// Shared, thread-safe cost memo bound to one machine preset.
pub struct CostCache {
    preset: MachinePreset,
    coll: Mutex<HashMap<CollKey, Result<Time, Unsupported>>>,
    task: Mutex<HashMap<TaskKey, TaskEntry>>,
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
            preset: *preset,
            coll: Mutex::default(),
            task: Mutex::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The machine every cost in this cache was simulated on.
    pub fn preset(&self) -> &MachinePreset {
        &self.preset
    }

    /// Panic unless this cache was built for `preset`: its costs would
    /// otherwise silently stand in for another machine's.
    pub(crate) fn assert_for(&self, preset: &MachinePreset) {
        assert_eq!(
            han_decide::preset_fingerprint(&self.preset),
            han_decide::preset_fingerprint(preset),
            "cost cache belongs to a different machine preset"
        );
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coll_entries: self.coll.lock().expect(POISONED).len(),
            task_entries: self.task.lock().expect(POISONED).len(),
        }
    }

    /// The key of the program `cfg` builds for `coll` at `m` bytes on
    /// this cache's machine.
    pub fn key(&self, coll: Coll, m: u64, cfg: &HanConfig) -> CollKey {
        (coll, m, cfg.effective(&self.preset.topology, coll, m))
    }

    /// The latency of HAN `coll` at `m` bytes under `cfg`: recalled, or
    /// simulated on `machine` (built from [`CostCache::preset`]) and
    /// recorded.
    pub fn coll_cost(
        &self,
        machine: &mut Machine,
        coll: Coll,
        m: u64,
        cfg: HanConfig,
    ) -> Result<Time, Unsupported> {
        let key = self.key(coll, m, &cfg);
        if let Some(r) = self.recall(&self.coll, &key) {
            return r;
        }
        let r = time_coll_on(&Han::with_config(cfg), machine, &self.preset, coll, m, 0);
        self.coll.lock().expect(POISONED).insert(key, r.clone());
        r
    }

    /// The task measurement `key`: recalled, or taken by `measure` and
    /// recorded.
    pub fn task_cost(&self, key: &TaskKey, measure: impl FnOnce() -> TaskEntry) -> TaskEntry {
        if let Some(e) = self.recall(&self.task, key) {
            return e;
        }
        let e = measure();
        self.task
            .lock()
            .expect(POISONED)
            .insert(key.clone(), e.clone());
        e
    }

    /// `map[key]`, counted as a hit or a miss.
    fn recall<K: Eq + Hash, V: Clone>(&self, map: &Mutex<HashMap<K, V>>, key: &K) -> Option<V> {
        let found = map.lock().expect(POISONED).get(key).cloned();
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_machine::mini;

    #[test]
    fn coll_memo_round_trip() {
        let preset = mini(2, 4);
        let cache = CostCache::new(&preset);
        let mut machine = Machine::from_preset(&preset);
        let cfg = HanConfig::default();
        let t = cache.coll_cost(&mut machine, Coll::Bcast, 1024, cfg);
        assert!(t.is_ok());
        assert_eq!(cache.coll_cost(&mut machine, Coll::Bcast, 1024, cfg), t);
        // Other keys stay cold.
        for (coll, m) in [(Coll::Allreduce, 1024), (Coll::Bcast, 2048)] {
            assert!(cache.coll_cost(&mut machine, coll, m, cfg).is_ok());
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.coll_entries), (1, 3, 3));
    }

    #[test]
    fn configs_that_build_one_program_share_its_entry() {
        // Every `fs` past a 1 KiB message is one segment: one program.
        let preset = mini(2, 4);
        let cache = CostCache::new(&preset);
        let mut machine = Machine::from_preset(&preset);
        let a = HanConfig::default().with_fs(64 * 1024);
        let b = HanConfig::default().with_fs(1 << 20);
        assert_eq!(
            cache.key(Coll::Bcast, 1024, &a),
            cache.key(Coll::Bcast, 1024, &b)
        );
        let t = cache.coll_cost(&mut machine, Coll::Bcast, 1024, a);
        assert_eq!(cache.coll_cost(&mut machine, Coll::Bcast, 1024, b), t);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.coll_entries), (1, 1, 1));
    }

    #[test]
    fn task_memo_round_trip() {
        let preset = mini(2, 2);
        let cache = CostCache::new(&preset);
        let key = (HanConfig::default(), TaskSpec::IB, 4096, vec![0u64, 500]);
        let entry = (vec![Time::from_us(1), Time::from_us(2)], Time::from_us(3));
        assert_eq!(cache.task_cost(&key, || entry.clone()), entry);
        // A hit never measures.
        assert_eq!(cache.task_cost(&key, || unreachable!()), entry);
        // A different skew shape is a different measurement.
        let other = (key.0, key.1, key.2, vec![0u64, 501]);
        assert_eq!(cache.task_cost(&other, || (vec![], Time::ZERO)).0, vec![]);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.task_entries), (1, 2, 2));
    }
}
