#![warn(missing_docs)]

//! # txtime — a relational algebra extended with transaction time
//!
//! An implementation of McKenzie & Snodgrass, *Extending the Relational
//! Algebra to Support Transaction Time* (SIGMOD 1987): a command language
//! with denotational semantics whose expressions are a (slightly extended)
//! relational algebra, supporting snapshot, rollback, historical, and
//! temporal relations.
//!
//! This umbrella crate re-exports the workspace crates:
//!
//! * [`snapshot`] — the conventional relational model and the snapshot
//!   algebra (∪, −, ×, π, σ plus derived operators).
//! * [`historical`] — an historical algebra supporting valid time
//!   (historical states, ∪̂ −̂ ×̂ π̂ σ̂, and the valid-time operator δ).
//! * [`core`] — the paper's contribution: expressions with the rollback
//!   operators ρ/ρ̂, commands (`define_relation`, `modify_state`, …),
//!   sentences, and their denotational semantics.
//! * [`parser`] — a concrete surface syntax for sentences.
//! * [`storage`] — an efficient storage backend (a forward delta chain
//!   with checkpoints) observationally equivalent to the full-copy
//!   reference semantics, plus a WAL-backed engine.
//! * [`analyze`] — the static checker: expression typing (the paper's
//!   FINDTYPE, statically), command well-formedness, and structured
//!   `E0xx` diagnostics with source spans.
//! * [`optimizer`] — algebraic rewrite rules, all equivalence-preserving.
//! * [`txn`] — atomic transactions and a concurrency front-end preserving
//!   the paper's sequential commit-time semantics.
//! * [`benzvi`] — Ben-Zvi's time-relational model and Time-View operator,
//!   the baseline the paper compares against.
//! * [`server`] — `txtime serve`: a multi-session TCP front end with
//!   MVCC snapshot reads, group commit, and admission control.
//!
//! See `examples/quickstart.rs` for a guided tour.

pub use txtime_analyze as analyze;
pub use txtime_benzvi as benzvi;
pub use txtime_core as core;
pub use txtime_historical as historical;
pub use txtime_optimizer as optimizer;
pub use txtime_parser as parser;
pub use txtime_server as server;
pub use txtime_snapshot as snapshot;
pub use txtime_storage as storage;
pub use txtime_txn as txn;
