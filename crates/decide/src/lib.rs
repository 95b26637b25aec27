//! # han-decide — pure decision logic (autotuning step 2)
//!
//! The sweep (`han-tuner`) *produces* decisions; everything downstream —
//! the serving daemon (`han-serve`), the verify suite, applications —
//! only *consumes* them. This crate is that consumption surface, split
//! out of the tuner so servers and clients link the decision function
//! without dragging in the search machinery or task benchmarks:
//!
//! * [`table`] — the lookup table (tuning output) and the
//!   nearest-sample-in-log-space decision function, implementing
//!   [`han_core::ConfigSource`].
//! * [`decision`] — decision trees distilled from the table: adjacent
//!   samples tuning to the same configuration merge into range rules.
//! * [`fingerprint`] — stable FNV-1a fingerprints of machine presets,
//!   the key under which tables and cost caches are stored and the
//!   invalidation token for anything persisted.
//! * [`resolve`] — size-bucket resolution: for a query, the *maximal
//!   interval* of message sizes that resolve to the same table entry,
//!   so clients can cache one answer per bucket instead of one per
//!   byte count, bit-identically.

pub mod decision;
pub mod fingerprint;
pub mod resolve;
pub mod table;

pub use decision::DecisionTree;
pub use fingerprint::preset_fingerprint;
pub use resolve::Resolution;
pub use table::LookupTable;
