//! # han-decide — pure decision logic (autotuning step 2)
//!
//! The sweep (`han-tuner`) *produces* decisions; everything downstream —
//! the serving daemon (`han-serve`), the verify suite, applications —
//! only *consumes* them. This crate is that consumption surface, split
//! out of the tuner so servers and clients link the decision function
//! without dragging in the search machinery or task benchmarks:
//!
//! * [`table`] — the lookup table (tuning output), implementing
//!   [`han_core::ConfigSource`] through [`LookupTable::resolve`].
//! * [`fingerprint`] — stable FNV-1a fingerprints of machine presets:
//!   the key under which tables are served, and the check that a cost
//!   cache belongs to the machine it is used on.
//! * [`resolve`] — the decision function: nearest sample in log space,
//!   ties to the smaller sample, computed exactly in integers as one
//!   size bucket `[lo, hi]` per sample. Every answer carries its bucket,
//!   so clients can cache one answer per bucket instead of one per byte
//!   count, bit-identically.

pub mod fingerprint;
pub mod resolve;
pub mod table;

pub use fingerprint::preset_fingerprint;
pub use resolve::Resolution;
pub use table::LookupTable;
