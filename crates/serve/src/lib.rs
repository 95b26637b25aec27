//! # han-serve — tuning-as-a-service
//!
//! HAN's payoff is not the sweep itself but *serving* its decisions:
//! every collective call must resolve `(machine, collective, message
//! size)` → configuration at memory speed. This crate is the serving
//! half of that split (the pure decision logic lives in [`han_decide`]):
//!
//! * [`store`] — the authoritative in-memory table store: sharded by
//!   preset fingerprint, with per-table generation counters and
//!   arc-swap-style epoch pointers so re-tuned tables hot-swap in
//!   atomically while readers never take a lock.
//! * [`proto`] — the wire protocol: length-prefixed JSON frames over
//!   TCP, batched `Resolve` requests, `Publish`/`Retune` for table
//!   management.
//! * [`server`] — the daemon: std-thread-per-connection accept loop,
//!   per-batch generation snapshots (a batch never mixes generations
//!   for a fingerprint).
//! * [`client`] — the caching client: one cache entry per size *bucket*
//!   (served answers carry the maximal interval they hold on),
//!   invalidated by generation counters, bit-identical to direct
//!   [`han_decide::LookupTable`] lookups.
//! * [`retune`] — background re-tuning workers driving the existing
//!   pruned exhaustive sweep, publishing results through the
//!   store's hot-swap path.

pub mod client;
pub mod proto;
pub mod retune;
pub mod server;
pub mod store;

pub use client::Client;
pub use proto::{Answer, Query, ServerStats};
pub use retune::{serve_space, spawn_retune, tune_table, SERVE_COLLS};
pub use server::{resolve_batch, serve, ServerHandle};
pub use store::{EpochCell, TableGen, TableInfo, TableStore};
