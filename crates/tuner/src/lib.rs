//! # han-tuner — task-based autotuning (paper sections III-A2/B2/C)
//!
//! The paper's second contribution: instead of benchmarking whole
//! collectives for every message size (exhaustive search, cost
//! `M×S×N×P×A`) or trusting analytic cost models (Hockney/LogP/LogGP/
//! PLogP — inaccurate on hierarchical hardware), HAN benchmarks *tasks*
//! (cost `T×S×N×P×A`, with `T` a small constant — 3 task types for Bcast,
//! 8 for Allreduce) and combines the measured task costs with the simple
//! per-collective cost models of equations (1)–(4).
//!
//! * [`space`] — the autotuning inputs (Table I) and configuration
//!   enumeration (Table II outputs).
//! * [`taskbench`] — task benchmarking: each task once per configuration
//!   and segment size, with the delayed-start technique ("we need to
//!   delay the participation of each process by the duration of the ib(0)
//!   step") in a context fixed by the task, plus the per-occurrence
//!   stabilization trace of Fig. 3.
//! * [`model`] — the cost model: eq. (3) for Bcast, eq. (4) for
//!   Allreduce, generalized to short pipelines.
//! * [`analytic`] — conventional cost models (Hockney, LogP, LogGP,
//!   PLogP, perfect-overlap hierarchical) for the accuracy comparison the
//!   paper's introduction makes.
//! * [`search`] — the four tuning strategies of Figs. 8/9: exhaustive,
//!   exhaustive+heuristics, task-based (HAN), task-based+heuristics.
//! * [`heuristics`] — the pruning rules of section III-C (SOLO only above
//!   512 KB segments; chain only with enough segments).
//! * [`cache`] — an in-memory memo table for simulated task and
//!   collective costs, shared across message sizes, collectives and
//!   strategies within a run.
//!
//! The tuning output, [`LookupTable`], lives in the dependency-light
//! [`han_decide`] crate, shared with the serving daemon.

pub mod analytic;
pub mod bound;
pub mod cache;
pub mod delta;
pub mod heuristics;
pub mod model;
pub mod search;
pub mod space;
pub mod taskbench;

pub use bound::lower_bound;
pub use cache::CostCache;
pub use delta::{DeltaSim, DeltaStats};
pub use han_decide::LookupTable;
pub use search::{
    achieved_latency, candidate_costs, cost_each, tune, tune_with_opts, Strategy, TuneOpts,
    TuneResult,
};
pub use space::SearchSpace;
pub use taskbench::TaskBench;
