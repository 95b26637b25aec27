//! # han-colls — collective submodules and baseline MPI stacks
//!
//! HAN's design principle (paper section III) is to *reuse* existing
//! collective infrastructure: it selects homogeneous collective modules as
//! submodules per hardware level and composes their fine-grained operations
//! into tasks. This crate provides that infrastructure for the
//! reproduction:
//!
//! * [`tree`] + [`p2p`] — the raw algorithm library: binomial / binary /
//!   chain / k-ary / flat trees with optional internal segmentation,
//!   recursive doubling, Rabenseifner reduce-scatter/allgather, ring
//!   allgather — all compiled to op-DAG programs over a communicator.
//! * [`modules`] — the four Open MPI submodules HAN draws from:
//!   - [`modules::Libnbc`]: the legacy non-blocking module — binomial
//!     trees, no internal segmentation, scalar (non-AVX) reductions;
//!   - [`modules::Adapt`]: the event-driven module — chain / binary /
//!     binomial algorithm menu, internal segmentation (`ibs`/`irs`),
//!     AVX reductions;
//!   - [`modules::Sm`]: intra-node shared-memory bounce buffers — cheap
//!     for small segments, fragment-synchronization cost for large ones;
//!   - [`modules::Solo`]: intra-node one-sided — expensive window setup,
//!     single-copy data path and AVX reductions that win for large
//!     segments (the paper's ≥512 KB heuristic).
//! * [`tuned`] — default Open MPI's `coll_tuned`: non-hierarchical,
//!   decision functions frozen for ca.-2006 hardware; the paper's primary
//!   baseline.
//! * [`vendor`] — Cray MPI / Intel MPI / MVAPICH2 stand-ins: hierarchical
//!   two-level collectives *without* HAN's cross-level pipelining, over
//!   their own P2P parameter sets.
//! * [`stack`] — the [`stack::MpiStack`] trait every full MPI
//!   implementation (including HAN itself, in `han-core`) implements, plus
//!   the benchmark runner used by IMB-style harnesses.
//! * [`template`] — a build shim kept only for the benchmark's traced
//!   sweep replay.

// Collective builders iterate ranks/leaders by index into several
// parallel per-rank buffer arrays at once; iterator rewrites of those
// loops obscure the rank arithmetic.
#![allow(clippy::needless_range_loop)]

pub mod frontier;
pub mod modules;
pub mod p2p;
pub mod stack;
pub mod template;
pub mod tree;
pub mod tuned;
pub mod vendor;

pub use frontier::Frontier;
pub use modules::{Adapt, InterAlg, InterModule, IntraModule, Libnbc, Sm, Solo};
pub use stack::{BuildCtx, Coll, MpiStack};
pub use template::{TemplateStats, TemplateStore};
pub use tree::TreeShape;
pub use tuned::TunedOpenMpi;
pub use vendor::VendorMpi;
