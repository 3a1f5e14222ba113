#![warn(missing_docs)]

//! An historical algebra supporting valid time.
//!
//! Section 4 of the paper shows that its transaction-time extension
//! "applies to any historical algebra"; this crate provides the historical
//! algebra we plug in. It is a *tuple-timestamped* algebra in which every
//! tuple of an [`HistoricalState`] carries a [`TemporalElement`] — a
//! finite union of disjoint [`Period`]s of [`Chronon`]s — recording when
//! the tuple's fact was valid in the modeled reality.
//!
//! The operators mirror the snapshot algebra (∪̂, −̂, ×̂, π̂, σ̂; paper §4)
//! plus the new valid-time operator **δ_{G,V}**, which "performs
//! functions, similar to those of the selection and projection operators
//! in the snapshot algebra, on the valid-time components of historical
//! tuples": `G` (a [`TemporalPred`] from the domain 𝓖) selects tuples by
//! their valid time, and `V` (a [`TemporalExpr`] from the domain 𝓥)
//! rewrites each surviving tuple's valid time.
//!
//! # Example
//!
//! ```
//! use txtime_historical::{HistoricalState, Period, TemporalElement, TemporalExpr, TemporalPred};
//! use txtime_snapshot::{Schema, DomainType, Tuple, Value};
//!
//! let schema = Schema::new(vec![("name", DomainType::Str)]).unwrap();
//! let state = HistoricalState::new(schema, vec![
//!     (Tuple::new(vec![Value::str("alice")]), TemporalElement::period(0, 10)),
//!     (Tuple::new(vec![Value::str("bob")]), TemporalElement::period(20, 30)),
//! ]).unwrap();
//!
//! // Keep tuples valid during [0,15), clipping their valid time to it.
//! let window = TemporalElement::period(0, 15);
//! let clipped = state.delta(
//!     &TemporalPred::overlaps(TemporalExpr::ValidTime, TemporalExpr::constant(window.clone())),
//!     &TemporalExpr::intersect(TemporalExpr::ValidTime, TemporalExpr::constant(window)),
//! ).unwrap();
//! assert_eq!(clipped.len(), 1);
//! ```

pub mod chronon;
pub mod element;
pub mod encode;
pub mod error;
pub mod generate;
pub mod ops;
pub mod period;
pub mod reference;
pub mod state;
pub mod texpr;
pub mod tpred;

pub use chronon::{Chronon, FOREVER};
pub use element::TemporalElement;
pub use error::HistoricalError;
pub use period::Period;
pub use state::{Entry, HistoricalState};
pub use texpr::TemporalExpr;
pub use tpred::TemporalPred;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, HistoricalError>;
