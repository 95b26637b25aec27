//! Shim for the benchmark's traced sweep replay. Program templates were
//! removed; [`TemplateStore::build_into`] assigns a plain
//! [`build_coll`] result to the caller's program. Nothing else in the
//! workspace calls it.

use std::cell::Cell;

use han_machine::MachinePreset;
use han_mpi::Program;

use crate::stack::{build_coll, Coll, MpiStack, Unsupported};

/// [`TemplateStore`] counters; only `misses` ever moves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TemplateStats {
    pub hits: u64,
    pub misses: u64,
}

#[derive(Debug, Default)]
pub struct TemplateStore(Cell<u64>);

impl TemplateStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// `*out = build_coll(..)`; counts a miss and returns no template key.
    /// An unsupported collective leaves `out` as it was.
    pub fn build_into(
        &self,
        stack: &dyn MpiStack,
        preset: &MachinePreset,
        coll: Coll,
        bytes: u64,
        root: usize,
        out: &mut Program,
    ) -> Result<Option<u64>, Unsupported> {
        *out = build_coll(stack, preset, coll, bytes, root)?;
        self.0.set(self.0.get() + 1);
        Ok(None)
    }

    pub fn stats(&self) -> TemplateStats {
        TemplateStats {
            hits: 0,
            misses: self.0.get(),
        }
    }
}
