//! # HAN — a Hierarchical AutotuNed Collective Communication Framework
//!
//! A full-system Rust reproduction of *"HAN: a Hierarchical AutotuNed
//! Collective Communication Framework"* (Luo et al., IEEE CLUSTER 2020),
//! including every substrate the paper depends on: a deterministic
//! discrete-event cluster simulator, an MPI-like runtime, the collective
//! submodules HAN composes (Libnbc, ADAPT, SM, SOLO), the `tuned` Open MPI
//! baseline and vendor-MPI stand-ins, the task-based autotuner, and the
//! evaluation applications (ASP, a Horovod-style trainer).
//!
//! This crate is the facade: it re-exports the layered crates under one
//! namespace. See `README.md` for the architecture and `DESIGN.md` for the
//! paper-to-module mapping.
//!
//! ## Quickstart
//!
//! ```
//! use han::prelude::*;
//!
//! // A 4-node × 8-rank simulated cluster.
//! let preset = machine::mini(4, 8);
//!
//! // HAN with a fixed configuration vs default Open MPI.
//! let hcfg = HanConfig::default().with_fs(128 * 1024);
//! let t_han = time_coll(&Han::with_config(hcfg), &preset, Coll::Bcast, 1 << 20, 0).unwrap();
//! let t_tuned = time_coll(&TunedOpenMpi, &preset, Coll::Bcast, 1 << 20, 0).unwrap();
//! assert!(t_han < t_tuned);
//! ```

pub use han_apps as apps;
pub use han_colls as colls;
pub use han_core as core;
pub use han_decide as decide;
pub use han_machine as machine;
pub use han_mpi as mpi;
pub use han_serve as serve;
pub use han_sim as sim;
pub use han_synth as synth;
pub use han_tuner as tuner;
pub use han_verify as verify;

/// The items most programs need.
pub mod prelude {
    pub use han_colls::stack::{
        build_coll, time_coll, time_coll_on, BuildCtx, Coll, MpiStack, Unsupported,
    };
    pub use han_colls::{
        Adapt, Frontier, InterAlg, InterModule, IntraModule, Libnbc, Sm, Solo, TreeShape,
        TunedOpenMpi, VendorMpi,
    };
    pub use han_core::{ConfigSource, Han, HanConfig, MAX_DEEP};
    pub use han_decide::{preset_fingerprint, LookupTable, Resolution};
    pub use han_machine::{
        self as machine, mini, mini3, shaheen2, shaheen2_ppn, shaheen2_sockets, socketize,
        stampede2, stampede2_ppn, Flavor, Machine, MachinePreset, Topology,
    };
    pub use han_mpi::{Comm, DataType, ExecOpts, ProgramBuilder, ReduceOp};
    pub use han_serve::{Client, Query, TableStore};
    pub use han_sim::Time;
    pub use han_synth::{synthesize, SynthOpts, SynthResult};
    pub use han_tuner::{tune, SearchSpace, Strategy, TaskBench};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn facade_reexports_work() {
        let preset = mini(2, 2);
        let t = time_coll(
            &Han::with_config(HanConfig::default()),
            &preset,
            Coll::Bcast,
            4096,
            0,
        )
        .unwrap();
        assert!(t > Time::ZERO);
    }
}
