//! # han-verify — performance-guideline verification with differential
//! oracles
//!
//! The autotuner's value claim is self-referential: it picks winners by
//! simulating candidates, so a bug in the sweep engine (bound pruning,
//! the cost cache, the radix-heap event queue) can silently corrupt
//! both the measurements *and* the baseline they are compared against.
//! This crate breaks the loop with machine-checkable **performance
//! guidelines** — self-consistency inequalities in the tradition of
//! Hunold & Träff's "Tuning MPI Collectives by Verifying Performance
//! Guidelines" and PICO — plus **differential oracles** that compare
//! independent implementations of the same semantics.
//!
//! The catalog ([`guidelines`]) currently checks:
//!
//! | id | property |
//! |----|----------|
//! | `msg-monotonicity` | cost non-decreasing in message size |
//! | `rank-monotonicity` | cost non-decreasing in node count |
//! | `allreduce-composition` | Allreduce ≤ Reduce + Bcast |
//! | `bcast-composition` | Bcast ≤ Scatter + Allgather |
//! | `reduce-vs-allreduce` | Reduce ≤ Allreduce |
//! | `table-dominance` | tuned winner ≤ every candidate in its space |
//! | `bound-soundness` | pruning lower bound ≤ simulated cost |
//! | `task-model-band` | task model within the relative error band |
//! | `analytic-envelope` | analytic models within a bounded factor |
//! | `serve-agreement` | han-serve daemon answers ≡ direct table lookups, across hot-swaps |
//! | `synth-dominance` | synthesized front winners ≤ the Table-II menu winner |
//! | `synth-bound-soundness` | the synthesis lower bound ≤ simulated cost, both objectives, every candidate |
//! | `synth-prune-exact` | every pruned synthesis candidate is strictly beaten by an emitted sample |
//! | `schedule-race-free` | no happens-before race in any corner or front-point schedule |
//!
//! Every failed inequality becomes a structured [`Violation`] (guideline
//! id, preset, collective, config, sizes, observed vs bound, relative
//! slack); [`suite::run_suite`] aggregates them into a [`VerifyReport`]
//! that `repro verify` writes to `results/verify.json` and CI gates on.

pub mod guidelines;
pub mod report;
pub mod suite;

pub use report::{GuidelineReport, VerifyReport, Violation};
pub use suite::{corner_configs, run_suite, run_suite_with, standard_presets, SuiteOpts};
