//! # han-core — HAN: Hierarchical AutotuNed collective operations
//!
//! The paper's primary contribution, reproduced over the simulated
//! substrate: hierarchical collectives decomposed into *tasks* whose
//! fine-grained operations come from interchangeable submodules
//! (Libnbc/ADAPT inter-node, SM/SOLO intra-node), pipelined over message
//! segments so communication on different hardware levels overlaps.
//!
//! ## Task structure (paper section III)
//!
//! `MPI_Bcast` (Fig. 1): each segment flows through an inter-node
//! broadcast (`ib`) to the node leaders, then an intra-node broadcast
//! (`sb`). Node leaders execute `ib(0), sbib(1), …, sbib(u-1), sb(u-1)`
//! where task `sbib(i)` runs `sb(i-1)` and `ib(i)` *concurrently* and
//! joins them before the next task; other ranks execute `sb(0) … sb(u-1)`.
//!
//! `MPI_Allreduce` (Fig. 5): four phases per segment — intra-node reduce
//! (`sr`), inter-node reduce (`ir`), inter-node broadcast (`ib`),
//! intra-node broadcast (`sb`) — with `ir` and `ib` deliberately using the
//! same algorithm and root so they overlap on opposite directions of the
//! full-duplex network. The steady-state leader task is `sbibirsr(i)`:
//! `sb(i-3) ∥ ib(i-2) ∥ ir(i-1) ∥ sr(i)`. `MPI_Reduce` runs the first two
//! stages of that pipeline, `irsr(i)`: `ir(i-1) ∥ sr(i)`, toward the
//! root's node.
//!
//! Each collective is one ordered stage list — `(phase, lag)` pairs, in
//! the order a step issues them — run by one step loop, [`pipeline`].
//! The list order is part of the collective: Bcast issues `sb(i-1)`
//! before `ib(i)` in each step. Every step ends in an explicit join op on
//! each node leader, and the builders return only their completion
//! frontier. The task-based cost model in `han-tuner` derives its task
//! sequences from the same lists. All segment the message by one rule, [`HanConfig::segmentation`], which the task-based
//! cost model and the lower bound in `han-tuner` share. The autotuner
//! benchmarks tasks rather than whole collectives, as the paper does,
//! through the standalone task programs in [`task`].
//!
//! ## N-level hierarchy
//!
//! The pipeline's intra phase is generalized beyond the paper's two
//! levels: a topology is an ordered extent vector (`[nodes, sockets,
//! cores]`, …) and the `sb`/`sr` phases recurse through levels `1..depth`
//! via `descend_bcast`/`ascend_reduce` — each level moves segments across
//! its subgroup leaders with a per-level submodule
//! ([`config::HanConfig::smod_at`]), then recurses into the subgroups.
//! On two-level machines the recursion is structurally identical to the
//! paper's intra phase; the golden program digests of
//! `tests/golden_programs.rs` are the two-level reference, pinning every
//! corner configuration op for op. See [`levels`] for the design.
//!
//! ## Modules
//!
//! * [`config`] — [`config::HanConfig`], the tuned parameter set of
//!   Table II (`fs`, `imod`, `smod`, `ibalg`, `iralg`, `ibs`, `irs`).
//! * [`pipeline`] — the stage lists of Bcast, Reduce and Allreduce and
//!   the one step loop that runs them.
//! * [`bcast`] / [`allreduce`] — the builders, which hand the step loop
//!   their stage lists, and the phases the loop and [`task`] share.
//! * [`extend`] — Gather / Scatter / Allgather / Barrier via the same
//!   two-level composition (the paper: "similar designs can be extended to
//!   other collective operations").
//! * [`task`] — standalone single-task programs for the autotuner's
//!   benchmarks (Figs. 2, 3, 6).
//! * [`han`] — the [`han::Han`] facade implementing
//!   [`han_colls::MpiStack`], with either a fixed configuration or a
//!   pluggable decision source (the autotuner's lookup table).
//! * [`levels`] — the ordered hierarchy-level list and how it threads
//!   through splitting, composition, configuration and cost.
//! * [`composed`] — composed reference collectives (Reduce+Bcast,
//!   Scatter+Allgather) backing `han-verify`'s composition guidelines.

// Collective builders iterate ranks/leaders by index into several
// parallel per-rank buffer arrays at once; iterator rewrites of those
// loops obscure the rank arithmetic.
#![allow(clippy::needless_range_loop)]

pub mod allreduce;
pub mod bcast;
pub mod composed;
pub mod config;
pub mod extend;
pub mod han;
pub mod levels;
pub mod pipeline;
pub mod task;

pub use config::{HanConfig, SegRoute, MAX_DEEP, ROUTE_PERIOD};
pub use han::{ConfigSource, Han};
