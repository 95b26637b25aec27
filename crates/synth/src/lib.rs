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
//! The search is branch-and-bound with the [`han_tuner::bound`] analytic
//! lower bound as an admissible heuristic and the simulator as the exact
//! oracle; when the beyond-menu space outgrows
//! [`SynthOpts::beam`] it degrades to beam search over the
//! cheapest-bounded candidates (menu candidates are *always* simulated,
//! so the emitted front can never lose to the menu). See
//! [`search::synthesize`] for the pruning-soundness argument.
//!
//! Every emitted schedule is expected to pass the full-payload
//! correctness oracle ([`oracle::verify_schedule`]) and the `han-verify`
//! guideline wall; `repro synth` wires both gates.

pub mod oracle;
pub mod pareto;
pub mod search;
pub mod space;

pub use oracle::verify_schedule;
pub use pareto::{pareto_front, Front, FrontPoint};
pub use search::{synthesize, SynthOpts, SynthResult, SynthSample};
pub use space::{candidates, default_space, Candidate};
