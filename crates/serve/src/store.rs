//! The authoritative table store: one `RwLock<HashMap>` from preset
//! fingerprint to the current [`TableGen`].
//!
//! Publishing takes the write lock and replaces the map entry with a new
//! `Arc` one generation up; a snapshot takes the read lock and clones the
//! `Arc`. Both hold the lock only for a map probe, so the lock is never
//! held across a lookup. A reader keeps its snapshot's generation for as
//! long as it holds the `Arc`, and a retired generation is freed when its
//! last snapshot drops.

use crate::proto::TableRow;
use han_decide::LookupTable;
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// One published table version: the generation counter is per
/// fingerprint, starts at 1, and increments on every hot-swap.
#[derive(Debug)]
pub struct TableGen {
    pub fingerprint: u64,
    pub generation: u64,
    pub table: LookupTable,
}

/// The table store (see module docs).
#[derive(Default)]
pub struct TableStore {
    tables: RwLock<HashMap<u64, Arc<TableGen>>>,
}

impl TableStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish a table under a fingerprint: first publish inserts at
    /// generation 1, subsequent ones hot-swap. Returns the generation.
    pub fn publish(&self, fingerprint: u64, table: LookupTable) -> u64 {
        let mut tables = self.tables.write().unwrap();
        let generation = tables.get(&fingerprint).map_or(0, |g| g.generation) + 1;
        tables.insert(
            fingerprint,
            Arc::new(TableGen {
                fingerprint,
                generation,
                table,
            }),
        );
        generation
    }

    /// Snapshot of the current generation for a fingerprint. Batched
    /// readers take one per batch so every answer in the batch comes
    /// from one generation.
    pub fn snapshot(&self, fingerprint: u64) -> Option<Arc<TableGen>> {
        self.tables.read().unwrap().get(&fingerprint).cloned()
    }

    /// Number of distinct fingerprints stored.
    pub fn len(&self) -> usize {
        self.tables.read().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Listing of every stored table at its current generation.
    pub fn tables(&self) -> Vec<TableRow> {
        let mut out: Vec<TableRow> = self
            .tables
            .read()
            .unwrap()
            .values()
            .map(|g| TableRow {
                fingerprint: g.fingerprint,
                generation: g.generation,
                levels: g.table.levels.clone(),
                entries: g.table.entries.len() as u64,
            })
            .collect();
        out.sort_by_key(|t| t.fingerprint);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_colls::Coll;
    use han_core::HanConfig;
    use han_sim::Time;

    fn table(fs: u64) -> LookupTable {
        let mut t = LookupTable::new(2, 2);
        t.insert(
            Coll::Bcast,
            1024,
            HanConfig::default().with_fs(fs),
            Time::from_us(1),
        );
        t
    }

    #[test]
    fn publish_bumps_generations() {
        let store = TableStore::new();
        assert!(store.is_empty());
        assert_eq!(store.publish(7, table(1024)), 1);
        assert_eq!(store.publish(7, table(2048)), 2);
        assert_eq!(store.publish(9, table(4096)), 1);
        assert_eq!(store.len(), 2);
        let snap = store.snapshot(7).unwrap();
        assert_eq!(snap.generation, 2);
        assert_eq!(snap.table.entries[0].cfg.fs, 2048);
        assert!(store.snapshot(8).is_none());
    }

    #[test]
    fn readers_keep_their_generation_across_swaps() {
        let store = TableStore::new();
        store.publish(1, table(1024));
        let old = store.snapshot(1).unwrap();
        store.publish(1, table(2048));
        // The old snapshot is still fully readable at its own version.
        assert_eq!(old.generation, 1);
        assert_eq!(old.table.entries[0].cfg.fs, 1024);
        let new = store.snapshot(1).unwrap();
        assert_eq!(new.generation, 2);
        assert_eq!(new.table.entries[0].cfg.fs, 2048);
    }

    #[test]
    fn retired_generation_is_freed_with_its_last_snapshot() {
        let store = TableStore::new();
        store.publish(1, table(1024));
        let old = store.snapshot(1).unwrap();
        let weak = Arc::downgrade(&old);
        drop(old);
        store.publish(1, table(2048));
        assert!(
            weak.upgrade().is_none(),
            "generation 1 outlived its readers"
        );
        assert_eq!(store.snapshot(1).unwrap().generation, 2);
    }

    #[test]
    fn tables_listing_is_sorted_and_current() {
        let store = TableStore::new();
        for fp in [5u64, 3, 21] {
            store.publish(fp, table(fp * 64));
        }
        store.publish(3, table(9999));
        let infos = store.tables();
        assert_eq!(
            infos.iter().map(|t| t.fingerprint).collect::<Vec<_>>(),
            vec![3, 5, 21]
        );
        assert_eq!(infos[0].generation, 2);
        assert_eq!(infos[0].entries, 1);
        assert_eq!(infos[0].levels, vec![2, 2]);
    }

    #[test]
    fn concurrent_publish_and_load() {
        let store = Arc::new(TableStore::new());
        store.publish(42, table(4));
        let mut threads = Vec::new();
        for i in 0..4u64 {
            let s = Arc::clone(&store);
            threads.push(std::thread::spawn(move || {
                for j in 0..50 {
                    s.publish(42, table(4 << (i % 3)));
                    let snap = s.snapshot(42).unwrap();
                    assert_eq!(snap.fingerprint, 42);
                    assert!(snap.generation > j, "generations move forward");
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        let snap = store.snapshot(42).unwrap();
        assert_eq!(snap.generation, 201);
    }
}
