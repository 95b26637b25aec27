//! Background re-tuning: rebuild a preset's table through the existing
//! exhaustive-sweep path and hand it to the store for an atomic hot-swap.
//!
//! The worker runs the same pruned exhaustive sweep the verify suite
//! trusts (a pruned table is pinned to dominate every candidate of its
//! space by the `table-dominance` guideline), over a compact serving
//! space. Tuning is CPU-bound and can take seconds; readers keep
//! resolving against the previous generation until the swap lands.

use crate::store::TableStore;
use han_colls::Coll;
use han_decide::{preset_fingerprint, LookupTable};
use han_machine::MachinePreset;
use han_tuner::{tune, SearchSpace, Strategy};
use std::sync::Arc;

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
}
