//! Background re-tuning: rebuild a preset's table through the existing
//! exhaustive-sweep path and hand it to the store for an atomic hot-swap.
//!
//! The worker runs the same pruned exhaustive sweep the verify suite
//! trusts (a pruned table is pinned to dominate every candidate of its
//! space by the `table-dominance` guideline), over a compact serving
//! space. Tuning is CPU-bound and can take seconds; readers keep
//! resolving against the previous generation until the swap lands.
//!
//! The daemon starts its workers through `Retuning`, which runs at
//! most one worker per fingerprint: a retune asked for while the same
//! preset is being tuned starts nothing, since the running worker will
//! publish the same table.

use crate::store::TableStore;
use han_colls::Coll;
use han_decide::{preset_fingerprint, LookupTable};
use han_machine::MachinePreset;
use han_tuner::{tune, SearchSpace, Strategy};
use std::collections::HashSet;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Collectives a served table covers by default: the ones the paper
/// tunes (and the verify suite's dominance set).
pub const SERVE_COLLS: [Coll; 3] = [Coll::Bcast, Coll::Allreduce, Coll::Reduce];

/// The compact space served tables are tuned over: wide enough to give
/// every collective several size buckets, small enough that a re-tune
/// completes in interactive time.
pub fn serve_space() -> SearchSpace {
    SearchSpace {
        msg_sizes: vec![4 * 1024, 64 * 1024, 512 * 1024, 4 << 20],
        seg_sizes: vec![32 * 1024, 256 * 1024],
        ..SearchSpace::small()
    }
}

/// Tune a fresh table for `preset` over [`serve_space`].
pub fn tune_table(preset: &MachinePreset) -> LookupTable {
    tune(preset, &serve_space(), &SERVE_COLLS, Strategy::Exhaustive).table
}

/// Tune `preset` on a detached worker thread and hot-swap the result
/// into `store`. Returns the fingerprint the table will land under and
/// the worker handle (joinable for deterministic tests; the daemon lets
/// it detach).
pub fn spawn_retune(
    store: Arc<TableStore>,
    preset: MachinePreset,
) -> (u64, std::thread::JoinHandle<u64>) {
    let fingerprint = preset_fingerprint(&preset);
    let handle = std::thread::spawn(move || {
        let table = tune_table(&preset);
        store.publish(fingerprint, table)
    });
    (fingerprint, handle)
}

/// The fingerprints a retune worker is tuning now. The preset determines
/// the fingerprint and tuning is deterministic, so a second worker for a
/// fingerprint in the set would only publish the same table again.
#[derive(Debug, Default)]
pub(crate) struct Retuning(Mutex<HashSet<u64>>);

impl Retuning {
    /// Tune `preset` on a detached worker and hot-swap the result into
    /// `store`, unless a worker is already tuning its fingerprint.
    /// Returns the fingerprint the table will land under.
    pub(crate) fn start(self: &Arc<Self>, store: &Arc<TableStore>, preset: MachinePreset) -> u64 {
        let fingerprint = preset_fingerprint(&preset);
        if let Some(claim) = self.claim(fingerprint) {
            let store = Arc::clone(store);
            std::thread::spawn(move || claim.publish(&store, tune_table(&preset)));
        }
        fingerprint
    }

    /// Enter `fingerprint` into the set; `None` if it is already there.
    fn claim(self: &Arc<Self>, fingerprint: u64) -> Option<Claim> {
        self.lock().insert(fingerprint).then(|| Claim {
            retuning: Arc::clone(self),
            fingerprint,
        })
    }

    /// Every update is one insert or remove, so a set poisoned by a
    /// panic is still valid; and [`Claim`]'s `drop` must not panic.
    fn lock(&self) -> MutexGuard<'_, HashSet<u64>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A worker's place in [`Retuning`]. Dropping it without publishing (a
/// worker that panicked) frees the fingerprint too.
struct Claim {
    retuning: Arc<Retuning>,
    fingerprint: u64,
}

impl Claim {
    /// Publish `table` and leave the set under one lock, so a retune
    /// asked for meanwhile finds either a worker that has yet to publish
    /// or no worker at all.
    fn publish(self, store: &TableStore, table: LookupTable) -> u64 {
        let mut tuning = self.retuning.lock();
        let generation = store.publish(self.fingerprint, table);
        tuning.remove(&self.fingerprint);
        generation
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        self.retuning.lock().remove(&self.fingerprint);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_machine::mini;

    #[test]
    fn retune_publishes_under_the_preset_fingerprint() {
        let store = Arc::new(TableStore::new());
        let preset = mini(2, 2);
        let (fp, handle) = spawn_retune(Arc::clone(&store), preset);
        assert_eq!(fp, preset_fingerprint(&preset));
        let generation = handle.join().unwrap();
        assert_eq!(generation, 1);
        let snap = store.snapshot(fp).unwrap();
        assert!(!snap.table.entries.is_empty());
        // Every serve collective gets sampled at every space size.
        for coll in SERVE_COLLS {
            assert_eq!(
                snap.table.sampled_sizes(coll),
                serve_space().msg_sizes,
                "{coll:?}"
            );
        }
        // A second retune hot-swaps to generation 2.
        let (_, handle) = spawn_retune(Arc::clone(&store), preset);
        assert_eq!(handle.join().unwrap(), 2);
        assert_eq!(store.snapshot(fp).unwrap().generation, 2);
    }

    #[test]
    fn one_claim_per_fingerprint_until_it_publishes() {
        let retuning = Arc::new(Retuning::default());
        let store = TableStore::new();
        let table = LookupTable::new(2, 2);
        let first = retuning
            .claim(7)
            .expect("an empty set takes any fingerprint");
        assert!(retuning.claim(7).is_none(), "7 is being tuned");
        let other = retuning.claim(8).expect("8 is not being tuned");
        assert_eq!(first.publish(&store, table.clone()), 1);
        assert_eq!(store.snapshot(7).unwrap().generation, 1);
        // Published, so a retune of 7 may start a worker again.
        let again = retuning.claim(7).expect("7 published");
        assert_eq!(again.publish(&store, table), 2);
        // A claim dropped without publishing (a panicked worker) frees
        // its fingerprint and publishes nothing.
        drop(other);
        assert!(store.snapshot(8).is_none());
        assert!(retuning.claim(8).is_some());
        assert!(retuning.lock().is_empty());
    }
}
