//! The autotuning lookup table and decision function.
//!
//! Step 1 of autotuning (section III-C) produces, for each sampled input
//! `(n, p, m, t)`, the estimated-best configuration — "stores the
//! estimated best configuration for each input to a lookup table in a
//! file". Step 2 serves arbitrary inputs from the table; this
//! implementation picks the nearest sample in log space, ties to the
//! smaller sample, the simplest of the schemes the paper cites (quadtree
//! encoding and decision trees are refinements of this step, which the
//! paper explicitly does not focus on). The rule is computed exactly in
//! integers, as one size bucket per sample: see [`crate::resolve`].

use han_colls::Coll;
use han_core::{ConfigSource, HanConfig};
use han_sim::Time;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// One tuned entry: inputs (t, m) → output configuration (+ the cost the
/// tuner attributed to it, for reporting).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Entry {
    pub coll: String,
    pub m: u64,
    pub cfg: HanConfig,
    pub cost_ps: u64,
}

/// The tuning output for one machine shape — `(n, p)` plus, on machines
/// with more than two hierarchy levels, the full level-extent vector the
/// table was tuned for.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct LookupTable {
    pub nodes: usize,
    pub ppn: usize,
    /// The topology's level extents, outermost first (`[nodes, ppn]` on a
    /// two-level machine; e.g. `[nodes, sockets, cores]` on three).
    pub levels: Vec<usize>,
    pub entries: Vec<Entry>,
}

impl LookupTable {
    pub fn new(nodes: usize, ppn: usize) -> Self {
        LookupTable {
            nodes,
            ppn,
            levels: vec![nodes, ppn],
            entries: Vec::new(),
        }
    }

    /// A table keyed to an N-level topology (equals [`LookupTable::new`]
    /// on two-level machines).
    pub fn for_topology(topo: &han_machine::Topology) -> Self {
        LookupTable {
            nodes: topo.nodes(),
            ppn: topo.ppn(),
            levels: topo.levels().to_vec(),
            entries: Vec::new(),
        }
    }

    pub fn insert(&mut self, coll: Coll, m: u64, cfg: HanConfig, cost: Time) {
        self.entries.push(Entry {
            coll: coll.name().to_string(),
            m,
            cfg,
            cost_ps: cost.as_ps(),
        });
    }

    /// Insert-or-improve: replace the existing `(coll, m)` entry when the
    /// new cost is strictly cheaper, insert when the sample is new, and
    /// leave the table untouched otherwise. Returns whether the table
    /// changed. This is how synthesized schedules merge into a tuned
    /// table without ever regressing an entry.
    pub fn upsert(&mut self, coll: Coll, m: u64, cfg: HanConfig, cost: Time) -> bool {
        let cost_ps = cost.as_ps();
        match self
            .entries
            .iter_mut()
            .find(|e| e.coll == coll.name() && e.m == m)
        {
            Some(e) => {
                if cost_ps < e.cost_ps {
                    e.cfg = cfg;
                    e.cost_ps = cost_ps;
                    true
                } else {
                    false
                }
            }
            None => {
                self.insert(coll, m, cfg, cost);
                true
            }
        }
    }

    /// Exact-sample lookup.
    pub fn get(&self, coll: Coll, m: u64) -> Option<&Entry> {
        self.entries
            .iter()
            .find(|e| e.coll == coll.name() && e.m == m)
    }

    /// All sampled message sizes for a collective, ascending.
    pub fn sampled_sizes(&self, coll: Coll) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .entries
            .iter()
            .filter(|e| e.coll == coll.name())
            .map(|e| e.m)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, serde_json::to_string_pretty(self).expect("serialize"))
    }

    pub fn load(path: &Path) -> std::io::Result<Self> {
        let s = std::fs::read_to_string(path)?;
        serde_json::from_str(&s)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

impl ConfigSource for LookupTable {
    fn config(&self, coll: Coll, bytes: u64) -> HanConfig {
        self.resolve(coll, bytes).map(|r| r.cfg).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn table() -> LookupTable {
        let mut t = LookupTable::new(4, 8);
        t.insert(
            Coll::Bcast,
            1024,
            HanConfig::default().with_fs(1024),
            Time::from_us(10),
        );
        t.insert(
            Coll::Bcast,
            1 << 20,
            HanConfig::default().with_fs(128 * 1024),
            Time::from_us(500),
        );
        t.insert(
            Coll::Allreduce,
            1 << 20,
            HanConfig::default().with_fs(512 * 1024),
            Time::from_ms(1),
        );
        t
    }

    #[test]
    fn exact_and_resolved_lookup() {
        let t = table();
        assert_eq!(t.get(Coll::Bcast, 1024).unwrap().cfg.fs, 1024);
        assert!(t.get(Coll::Bcast, 2048).is_none());
        // 8 KB is nearer (log-space) to 1 KB than to 1 MB.
        assert_eq!(t.resolve(Coll::Bcast, 8 * 1024).unwrap().m, 1024);
        // 512 KB is nearer to 1 MB.
        assert_eq!(t.resolve(Coll::Bcast, 512 * 1024).unwrap().m, 1 << 20);
        // Collectives do not bleed into each other.
        assert_eq!(t.resolve(Coll::Allreduce, 4).unwrap().m, 1 << 20);
    }

    #[test]
    fn config_source_serves_decisions() {
        let t = table();
        let cfg = t.config(Coll::Bcast, 2 << 20);
        assert_eq!(cfg.fs, 128 * 1024);
        // Unknown collective: falls back to the default config.
        let cfg = t.config(Coll::Gather, 64);
        assert_eq!(cfg, HanConfig::default());
    }

    #[test]
    fn upsert_improves_without_regressing() {
        let mut t = table();
        // Worse cost: no change.
        assert!(!t.upsert(
            Coll::Bcast,
            1024,
            HanConfig::default().with_fs(4096),
            Time::from_us(20),
        ));
        assert_eq!(t.get(Coll::Bcast, 1024).unwrap().cfg.fs, 1024);
        // Equal cost: keep the incumbent (stability under re-merge).
        assert!(!t.upsert(
            Coll::Bcast,
            1024,
            HanConfig::default().with_fs(4096),
            Time::from_us(10),
        ));
        assert_eq!(t.get(Coll::Bcast, 1024).unwrap().cfg.fs, 1024);
        // Strictly better: replace in place, no duplicate entry.
        assert!(t.upsert(
            Coll::Bcast,
            1024,
            HanConfig::default().with_fs(4096),
            Time::from_us(5),
        ));
        assert_eq!(t.get(Coll::Bcast, 1024).unwrap().cfg.fs, 4096);
        assert_eq!(t.entries.iter().filter(|e| e.m == 1024).count(), 1);
        // New sample: plain insert.
        assert!(t.upsert(Coll::Allreduce, 64, HanConfig::default(), Time::from_us(1),));
        assert_eq!(t.entries.len(), 4);
    }

    #[test]
    fn save_load_roundtrip() {
        let t = table();
        let dir = std::env::temp_dir().join("han_tuner_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("table.json");
        t.save(&path).unwrap();
        let back = LookupTable::load(&path).unwrap();
        assert_eq!(back.entries.len(), 3);
        assert_eq!(back.nodes, 4);
        assert_eq!(
            back.get(Coll::Bcast, 1024).unwrap().cfg,
            HanConfig::default().with_fs(1024)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn levels_track_topology() {
        let two = LookupTable::new(4, 8);
        assert_eq!(two.levels, vec![4, 8]);
        let topo = han_machine::Topology::from_levels(&[4, 2, 16]);
        let three = LookupTable::for_topology(&topo);
        assert_eq!(three.nodes, 4);
        assert_eq!(three.ppn, 32);
        assert_eq!(three.levels, vec![4, 2, 16]);
    }

    #[test]
    fn sampled_sizes_sorted() {
        let t = table();
        assert_eq!(t.sampled_sizes(Coll::Bcast), vec![1024, 1 << 20]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A table file cut short anywhere (a torn write) is an error,
        /// never a panic or a silently smaller table.
        #[test]
        fn every_strict_prefix_of_a_table_is_an_error(
            levels in proptest::collection::vec(1usize..64, 2..4),
            rows in proptest::collection::vec(
                (0..Coll::ALL.len(), 0u32..30, 1u64..(1 << 22), any::<u64>()),
                0..5,
            ),
        ) {
            let topo = han_machine::Topology::from_levels(&levels);
            let mut t = LookupTable::for_topology(&topo);
            for (c, log_m, fs, cost) in rows {
                let cfg = HanConfig::default().with_fs(fs);
                t.upsert(Coll::ALL[c], 1 << log_m, cfg, Time::from_ps(cost));
            }
            for text in [
                serde_json::to_string_pretty(&t).unwrap(),
                serde_json::to_string(&t).unwrap(),
            ] {
                let back: LookupTable = serde_json::from_str(&text).unwrap();
                prop_assert_eq!(back.entries.len(), t.entries.len());
                for k in 0..text.len() {
                    prop_assert!(serde_json::from_str::<LookupTable>(&text[..k]).is_err());
                }
            }
        }
    }
}
