#![warn(missing_docs)]

//! Concrete surface syntax for the txtime language.
//!
//! The paper gives the language's abstract syntax in BNF (§3.1, §4); this
//! crate provides a concrete rendering of it, so that sentences can be
//! written as text, stored in scripts, and fed to the engine:
//!
//! ```text
//! define_relation(emp, rollback);
//! modify_state(emp, {(name: str, sal: int): ("alice", 100), ("bob", 200)});
//! modify_state(emp, rho(emp, inf) union {(name: str, sal: int): ("carol", 50)});
//! display(project[name](select[sal > 100](rho(emp, inf))));
//! ```
//!
//! Historical constants carry valid times:
//!
//! ```text
//! modify_state(h, historical {(name: str): ("alice") @ {[0, 10)}, ("bob") @ {[5, forever)}});
//! display(delta[valid overlaps {[3, 7)}; valid intersect {[3, 7)}](hrho(h, inf)));
//! ```
//!
//! The [`print`] module renders every AST back to this syntax;
//! `parse(print(x)) == x` is property-tested.
//!
//! # Example
//!
//! ```
//! use txtime_parser::parse_sentence;
//!
//! let db = parse_sentence(r#"
//!     define_relation(emp, rollback);
//!     modify_state(emp, {(name: str): ("alice")});
//!     modify_state(emp, rho(emp, inf) union {(name: str): ("bob")});
//! "#).unwrap().eval().unwrap();
//! assert_eq!(db.tx.0, 3);
//! ```

pub mod error;
pub mod lexer;
pub mod parser;
pub mod print;
pub mod token;

/// The char-vector lexer the byte lexer replaced: the front end's
/// differential reference.
#[cfg(test)]
mod reference;

/// The sentence generators `tests/round_trip.rs` uses, shared with the
/// differential tests in `reference`.
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod generate;

pub use error::ParseError;

use txtime_core::{Command, CommandSpans, Expr, ExprSpans, Sentence, SentenceSpans};

/// Parses a full sentence (one or more `;`-terminated commands).
pub fn parse_sentence(input: &str) -> Result<Sentence, ParseError> {
    parser::Parser::new(input)?.parse_sentence()
}

/// Parses a single command (without a trailing `;`).
pub fn parse_command(input: &str) -> Result<Command, ParseError> {
    parser::Parser::new(input)?.parse_single_command()
}

/// Parses a single expression.
pub fn parse_expr(input: &str) -> Result<Expr, ParseError> {
    parser::Parser::new(input)?.parse_single_expr()
}

/// Parses a full sentence and returns its span table alongside, so
/// diagnostics can cite source positions.
pub fn parse_sentence_spanned(input: &str) -> Result<(Sentence, SentenceSpans), ParseError> {
    parser::Parser::new(input)?.parse_sentence_spanned()
}

/// Parses a single command together with its span table.
pub fn parse_command_spanned(input: &str) -> Result<(Command, CommandSpans), ParseError> {
    parser::Parser::new(input)?.parse_single_command_spanned()
}

/// Parses a single expression together with its span table.
pub fn parse_expr_spanned(input: &str) -> Result<(Expr, ExprSpans), ParseError> {
    parser::Parser::new(input)?.parse_single_expr_spanned()
}
