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
//! The search uses the [`han_tuner::bound`] analytic lower bound as an
//! admissible heuristic and the simulator as the exact cost oracle. It
//! simulates every menu candidate, then the beyond-menu extras cheapest
//! bound first; when the extras outgrow [`search::BEAM`], only the
//! cheapest-bounded are simulated. Menu candidates are *always*
//! simulated, so the emitted front can never lose to the menu. Each
//! candidate is costed at two sizes, and candidates whose
//! [`han_core::HanConfig::effective`] configs agree build the same
//! program, so the tuner's full-space sweep ([`han_tuner::cost_each`])
//! simulates each distinct program once: 1,780 runs for the 3,840
//! paper-scale candidates instead of 7,680. See [`search`].
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
pub use search::{synthesize, SynthOpts, SynthResult, SynthSample};
pub use space::{candidates, default_space, Candidate};
