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
//! * [`taskbench`] — task benchmarking, including the delayed-start
//!   technique ("we need to delay the participation of each process by
//!   the duration of the ib(0) step") and stabilized-cost iteration
//!   (Fig. 3).
//! * [`model`] — the cost model: eq. (3) for Bcast, eq. (4) for
//!   Allreduce, generalized to short pipelines.
//! * [`analytic`] — conventional cost models (Hockney, LogP, LogGP,
//!   PLogP, perfect-overlap hierarchical) for the accuracy comparison the
//!   paper's introduction makes.
//! * [`search`] — the four tuning strategies of Figs. 8/9: exhaustive,
//!   exhaustive+heuristics, task-based (HAN), task-based+heuristics.
//! * [`heuristics`] — the pruning rules of section III-C (SOLO only above
//!   512 KB segments; chain only with enough segments).
//! * [`table`]/[`decision`] — the lookup table (tuning output) and its
//!   distilled decision tree now live in the dependency-light
//!   [`han_decide`] crate, shared with the serving daemon; they are
//!   re-exported here under their historical paths.
//! * [`cache`] — a memo table for simulated task and collective costs,
//!   shared across message sizes, collectives and strategies within a
//!   run and optionally persisted for warm-started repeated runs.

pub mod analytic;
pub mod bound;
pub mod cache;
pub mod calibrate;
pub mod delta;
pub mod heuristics;
pub mod model;
pub mod search;
pub mod space;
pub mod taskbench;

// The decision-logic modules moved to `han-decide`; keep the historical
// `han_tuner::table` / `han_tuner::decision` paths working.
pub use han_decide::{decision, fingerprint, resolve, table};

pub use bound::lower_bound;
pub use cache::{preset_fingerprint, CostCache};
pub use decision::DecisionTree;
pub use delta::{DeltaSim, DeltaStats};
pub use resolve::Resolution;
pub use search::{
    achieved_latency, achieved_latency_with_cache, candidate_costs, tune, tune_with_opts, Strategy,
    TuneOpts, TuneResult,
};
pub use space::SearchSpace;
pub use table::LookupTable;
pub use taskbench::TaskBench;
