//! Shim for the benchmark's traced sweep replay. Delta re-simulation was
//! removed; [`DeltaSim::time`] is a plain full simulation.

use han_machine::Machine;
use han_mpi::{execute, ExecOpts, Program};
use han_sim::Time;

/// [`DeltaSim`] counters; only `full_runs` ever moves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    pub full_runs: u64,
    pub recorded_runs: u64,
    pub delta_hits: u64,
}

#[derive(Debug, Default)]
pub struct DeltaSim(DeltaStats);

impl DeltaSim {
    pub fn new() -> Self {
        Self::default()
    }

    /// `execute(..).makespan`; the template key is ignored.
    pub fn time(&mut self, m: &mut Machine, p: &Program, o: &ExecOpts, _: Option<u64>) -> Time {
        self.0.full_runs += 1;
        execute(m, p, o).makespan
    }

    pub fn stats(&self) -> DeltaStats {
        self.0
    }
}
