//! # han-sim — discrete-event simulation engine
//!
//! The bottom layer of the HAN reproduction stack. The paper evaluates HAN on
//! two supercomputers (Shaheen II, Stampede2); this crate provides the
//! deterministic virtual-time substrate on which `han-machine` models those
//! systems and `han-mpi` executes communication programs.
//!
//! The engine is intentionally small and explicit:
//!
//! * [`time`] — a picosecond-resolution virtual clock type ([`time::Time`])
//!   with exact integer arithmetic, plus bandwidth/duration conversions.
//! * [`event`] — a deterministic event queue ([`event::EventQueue`]): a
//!   monotone radix heap over picosecond timestamps whose bucket 0 is the
//!   batch of events at the current instant, with FIFO tie-breaking for
//!   simultaneous events and no stored sequence numbers.
//! * [`resource`] — FIFO-serialized resources ([`resource::Resource`]): the
//!   primitive from which CPUs, memory buses and NICs are built. Resource
//!   serialization is what produces the paper's key observation that
//!   communications on different levels overlap *imperfectly* (section
//!   III-A2): concurrent `ib` and `sb` compete for the memory bus and the
//!   single-threaded MPI progression engine.
//! * [`rng`] — a seeded RNG wrapper so every run is reproducible.
//! * [`stats`] — a retained-sample summary (best/median/average/worst)
//!   used by benchmarking harnesses.
//!
//! Everything is single-threaded and deterministic: the same inputs always
//! produce bit-identical virtual timings, which is what makes the
//! autotuning-accuracy experiments (Figs. 8 and 9) meaningful.

pub mod event;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::{EngineStats, EventQueue};
pub use resource::{Resource, ResourcePool};
pub use rng::SimRng;
pub use stats::Summary;
pub use time::Time;
