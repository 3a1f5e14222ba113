#![warn(missing_docs)]

//! Snapshot relational model and algebra.
//!
//! This crate implements the *snapshot algebra* substrate that McKenzie &
//! Snodgrass's transaction-time language (SIGMOD 1987) is built on: the
//! conventional relational model in the style of Maier's *The Theory of
//! Relational Databases* (1983).
//!
//! A [`SnapshotState`] is a set of [`Tuple`]s over a [`Schema`]; it models
//! "the current reality as is currently best known" — an instantaneous
//! snapshot. The five primitive operators that define the snapshot algebra
//! (union, difference, cartesian product, projection, selection) are
//! provided as methods on [`SnapshotState`], together with the usual
//! derived operators (intersection, joins, rename, division).
//!
//! Selection predicates come from the domain 𝓕 of boolean expressions over
//! attribute identifiers, constants, the relational comparison operators,
//! and the logical connectives; see [`Predicate`].
//!
//! # Example
//!
//! ```
//! use txtime_snapshot::{Schema, DomainType, SnapshotState, Tuple, Value, Predicate};
//!
//! let schema = Schema::new(vec![
//!     ("name", DomainType::Str),
//!     ("sal", DomainType::Int),
//! ]).unwrap();
//! let state = SnapshotState::from_rows(schema, vec![
//!     vec![Value::str("alice"), Value::Int(100)],
//!     vec![Value::str("bob"), Value::Int(200)],
//! ]).unwrap();
//!
//! let highly_paid = state.select(&Predicate::gt_const("sal", Value::Int(150))).unwrap();
//! assert_eq!(highly_paid.len(), 1);
//! ```

pub mod domain;
pub mod encode;
pub mod error;
pub mod generate;
pub mod intern;
pub mod ops;
pub mod predicate;
pub mod reference;
pub mod rng;
pub mod run;
pub mod schema;
pub mod state;
pub mod tuple;
pub mod value;

pub use domain::DomainType;
pub use error::SnapshotError;
pub use intern::StrInterner;
pub use ops::join::{JoinPhysical, JoinSpec};
pub use predicate::{CompOp, CompiledPredicate, Operand, Predicate};
pub use schema::{Attribute, Schema};
pub use state::SnapshotState;
pub use tuple::Tuple;
pub use value::{Real, Value};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SnapshotError>;
