//! # han-mpi — an MPI-like runtime over the simulated machine
//!
//! HAN (the paper) is implemented inside Open MPI and drives existing
//! collective *submodules* through non-blocking operations. This crate is
//! the reproduction's equivalent of that MPI substrate: collective
//! algorithms are compiled into **programs** — per-rank DAGs of operations
//! (sends, receives, shared-memory copies, local reductions) — and a
//! deterministic discrete-event **executor** runs a program against a
//! [`han_machine::Machine`], producing virtual completion times and,
//! optionally, real data movement for correctness checking.
//!
//! The split mirrors how the paper reasons about collectives:
//!
//! * a *task* (paper section III) is simply a subgraph of ops plus the
//!   dependency edges linking it to the previous task — so HAN's pipelining
//!   falls out of DAG construction rather than being special-cased;
//! * the *cost* of a collective is the maximum completion time across
//!   ranks, exactly the IMB/OSU definition the paper adopts;
//! * the transport implements both **eager** and **rendezvous** protocols
//!   with per-library parameters ([`han_machine::P2pParams`]), which is
//!   what produces the Netpipe curves of Fig. 11.
//!
//! Modules:
//!
//! * [`datatype`] — element types and reduction operators (`MPI_Op`).
//! * [`buffer`] — per-rank linear memories and buffer ranges.
//! * [`program`] — ops, messages, and the validated [`program::Program`].
//! * [`builder`] — ergonomic program construction with automatic message
//!   matching (each send/recv pair shares a unique tag by construction).
//! * [`comm`] — communicators, including the `MPI_Comm_split_type`
//!   node-split HAN relies on.
//! * [`exec`] — the discrete-event executor.
//! * [`race`] — the happens-before race checker: a program is correct in
//!   every execution order its edges allow only if it is race-free.

pub mod buffer;
pub mod builder;
pub mod comm;
pub mod datatype;
pub mod exec;
pub mod program;
pub mod race;
pub mod trace;

pub use buffer::{BufRange, Memory};
pub use builder::ProgramBuilder;
pub use comm::Comm;
pub use datatype::{DataType, ReduceOp};
pub use exec::{engine_totals, execute, execute_seeded, reset_engine_totals, ExecOpts, Report};
pub use program::{Edges, Op, OpId, OpKind, Operands, Program};
pub use race::check_races;
pub use trace::{trace_execution, Span, Trace};
