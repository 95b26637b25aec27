//! # han-serve — tuning-as-a-service
//!
//! HAN's payoff is not the sweep itself but *serving* its decisions:
//! every collective call must resolve `(machine, collective, message
//! size)` → configuration at memory speed. This crate is the serving
//! half of that split (the pure decision logic lives in [`han_decide`]):
//!
//! * [`store`] — the authoritative in-memory table store: one locked
//!   map from preset fingerprint to the current generation of its table,
//!   so a re-tuned table hot-swaps in atomically; a retired generation
//!   is freed once its last snapshot drops. A lookup is
//!   [`han_decide::LookupTable::resolve`] on the snapshot's table.
//! * [`proto`] — the wire protocol: length-prefixed frames over TCP,
//!   fixed-width binary bodies for batched `Resolve` requests and their
//!   answers, JSON for the rest (`Publish`/`Retune` for table
//!   management, listings, counters).
//! * [`server`] — the daemon: std-thread-per-connection accept loop,
//!   per-batch generation snapshots (a batch never mixes generations
//!   for a fingerprint). A connection whose requests arrive back to back
//!   polls for the next one; an idle one blocks.
//! * [`client`] — the client: one round trip per batch, no cache, and
//!   it polls for each response. Every answer carries its size bucket
//!   `[lo, hi]` and generation, so a caller may cache it exactly.
//! * [`spin`] — the spin-then-block frame reader both ends use, and the
//!   rule for who may poll: never on one core, never more threads than
//!   cores.
//! * [`retune`] — background re-tuning workers driving the existing
//!   pruned exhaustive sweep, publishing results through the
//!   store's hot-swap path; the daemon runs at most one per preset.

pub mod client;
pub mod proto;
pub mod retune;
pub mod server;
pub mod spin;
pub mod store;

pub use client::Client;
pub use proto::{Answer, Query, ServerStats};
pub use retune::{serve_space, spawn_retune, tune_table, SERVE_COLLS};
pub use server::{resolve_batch, serve, ServerHandle};
pub use store::{TableGen, TableStore};
