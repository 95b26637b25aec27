//! # han-bench — measurement harnesses and paper-figure regeneration
//!
//! * [`imb`] — an Intel-MPI-Benchmarks-style sweep: collective latency
//!   (max across ranks) over a message-size range, for any set of
//!   [`han_colls::MpiStack`]s. Drives Figs. 10, 12, 13, 14.
//! * [`netpipe`] — a Netpipe-style point-to-point bandwidth sweep
//!   (Fig. 11).
//! * [`report`] — plain-text table rendering and JSON result persistence
//!   shared by the `repro` binary.
//! * [`gate`] — exit-code gating: unexpected `Unsupported` skips and
//!   guideline violations turn into a nonzero exit for CI.
//!
//! The `repro` binary (`cargo run -p han-bench --release --bin repro -- <fig>`)
//! regenerates every table and figure of the paper's evaluation; see
//! `EXPERIMENTS.md` for the recorded outputs.

pub mod gate;
pub mod imb;
pub mod netpipe;
pub mod report;

pub use imb::{imb_sweep, ImbRow};
pub use netpipe::{netpipe_sweep, NetpipeRow};
pub use report::Table;
