//! Schedule synthesis beyond the Table-II menu.
//!
//! The autotuner ([`han_tuner`]) picks the best entry of a *fixed* menu:
//! the Table-II cross product of segment sizes and (submodule, algorithm)
//! pairs. SCCL-style synthesis searches the schedule space directly — it
//! composes schedules the menu never enumerates and keeps every point on
//! the latency/bandwidth Pareto frontier, not just the single
//! bandwidth-optimal winner.
//!
//! This crate searches three axes the menu ties together:
//!
//! * **Decoupled reduce/bcast trees** — the menu forces `iralg == ibalg`;
//!   synthesis splits them (a reduction can gather down a binomial tree
//!   and broadcast back down a chain).
//! * **Explicit sub-segmentation** — the menu leaves `ibs`/`irs` to the
//!   stack default; synthesis sweeps explicit wire sub-segment sizes.
//! * **Segment routing** ([`han_core::SegRoute`]) — a periodic split of
//!   the inter-node broadcast traffic across *two* tree shapes, so deep
//!   segments ride a pipeline-friendly chain while the head of the
//!   message takes the low-latency binomial tree.
//!
//! Plus non-power-of-two segment sizes (exact k-way splits of the
//! message), which the pow-2 menu cannot express.
//!
//! The search is exact: every emitted front is the Pareto front of the
//! full candidate set. It costs every candidate's latency probe, then
//! scans each group with the tuner's bound-ordered group search
//! ([`han_tuner::run_group`]), using the [`han_tuner::bound`] analytic
//! lower bound and the simulator as the exact cost oracle. A candidate's
//! bandwidth run is skipped only when a costed sample with no higher
//! latency provably beats it (a menu candidate also needs a menu sample
//! that beats it, so the menu's best cost stays exact). Candidates whose
//! [`han_core::HanConfig::effective`] configs agree build the same
//! program and share one simulation, through the one
//! [`han_tuner::CostCache`] the search costs with. At paper scale 3,578 of the 5,568
//! candidates skip their bandwidth run, and the whole search simulates
//! 928 distinct programs. See [`search`].
//!
//! Every emitted schedule is expected to pass the symbolic correctness
//! oracle ([`oracle::verify_schedule`]: race-free, and delivering the
//! collective's result in every execution order its dependencies allow)
//! and the `han-verify` guideline wall; `repro synth` wires both gates.

pub mod oracle;
pub mod pareto;
pub mod search;
pub mod space;

pub use oracle::verify_schedule;
pub use pareto::{pareto_front, Front, FrontPoint};
pub use search::{synthesize, PrunedCandidate, SynthOpts, SynthResult, SynthSample};
pub use space::{candidates, default_space, Candidate};
