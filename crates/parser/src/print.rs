//! Pretty-printer: AST → parseable surface syntax.
//!
//! Every printer here produces text that the parser maps back to an equal
//! AST; `tests/round_trip.rs` property-tests this for randomly generated
//! sentences.

use std::fmt::Write;

use txtime_core::{Command, Expr, SchemeChange, Sentence, TxSpec};
use txtime_historical::{HistoricalState, TemporalElement, TemporalExpr, TemporalPred, FOREVER};
use txtime_snapshot::{Operand, Predicate, Schema, SnapshotState, Value};

/// Renders a sentence, one command per line.
pub fn print_sentence(s: &Sentence) -> String {
    let mut out = String::new();
    for c in s.commands() {
        let _ = writeln!(out, "{};", print_command(c));
    }
    out
}

/// Renders a command.
pub fn print_command(c: &Command) -> String {
    match c {
        Command::DefineRelation(i, y) => format!("define_relation({i}, {})", y.keyword()),
        Command::ModifyState(i, e) => format!("modify_state({i}, {})", print_expr(e)),
        Command::DeleteRelation(i) => format!("delete_relation({i})"),
        Command::EvolveScheme(i, ch) => {
            format!("evolve_scheme({i}, {})", print_scheme_change(ch))
        }
        Command::Display(e) => format!("display({})", print_expr(e)),
    }
}

/// Renders a scheme change.
pub fn print_scheme_change(c: &SchemeChange) -> String {
    match c {
        SchemeChange::AddAttribute {
            name,
            domain,
            default,
        } => format!(
            "add {name}: {} default {}",
            domain.keyword(),
            print_value(default)
        ),
        SchemeChange::DropAttribute(name) => format!("drop {name}"),
        SchemeChange::RenameAttribute { from, to } => format!("rename {from} to {to}"),
    }
}

/// Renders an expression.
pub fn print_expr(e: &Expr) -> String {
    match e {
        Expr::SnapshotConst(s) => print_snapshot_state(s),
        Expr::HistoricalConst(h) => format!("historical {}", print_historical_state(h)),
        Expr::Union(a, b) => format!("({} union {})", print_expr(a), print_expr(b)),
        Expr::Difference(a, b) => format!("({} minus {})", print_expr(a), print_expr(b)),
        Expr::Product(a, b) => format!("({} times {})", print_expr(a), print_expr(b)),
        Expr::Project(attrs, e) => format!("project[{}]({})", attrs.join(", "), print_expr(e)),
        Expr::Select(p, e) => format!("select[{}]({})", print_predicate(p), print_expr(e)),
        Expr::Rollback(i, n) => format!("rho({i}, {})", print_tx_spec(n)),
        Expr::HUnion(a, b) => format!("({} hunion {})", print_expr(a), print_expr(b)),
        Expr::HDifference(a, b) => format!("({} hminus {})", print_expr(a), print_expr(b)),
        Expr::HProduct(a, b) => format!("({} htimes {})", print_expr(a), print_expr(b)),
        Expr::HProject(attrs, e) => {
            format!("hproject[{}]({})", attrs.join(", "), print_expr(e))
        }
        Expr::HSelect(p, e) => format!("hselect[{}]({})", print_predicate(p), print_expr(e)),
        Expr::Delta(g, v, e) => format!(
            "delta[{}; {}]({})",
            print_temporal_pred(g),
            print_temporal_expr(v),
            print_expr(e)
        ),
        Expr::HRollback(i, n) => format!("hrho({i}, {})", print_tx_spec(n)),
        // Physical joins have no surface syntax (only the plan search
        // constructs them); render them in the plan/explain notation.
        Expr::Join(spec, a, b) => format!("join[{spec}]({}, {})", print_expr(a), print_expr(b)),
        Expr::HJoin(spec, a, b) => format!("hjoin[{spec}]({}, {})", print_expr(a), print_expr(b)),
    }
}

fn print_tx_spec(spec: &TxSpec) -> String {
    match spec {
        TxSpec::At(n) => n.0.to_string(),
        TxSpec::Current => "inf".to_string(),
    }
}

/// Renders a snapshot state as `{(schema): tuple, …}`.
pub fn print_snapshot_state(s: &SnapshotState) -> String {
    let mut out = String::from("{");
    out.push_str(&print_schema(s.schema()));
    out.push_str(": ");
    let tuples: Vec<String> = s
        .iter()
        .map(|t| {
            let vals: Vec<String> = t.values().iter().map(print_value).collect();
            format!("({})", vals.join(", "))
        })
        .collect();
    out.push_str(&tuples.join(", "));
    out.push('}');
    out
}

/// Renders an historical state as `{(schema): tuple @ element, …}`.
pub fn print_historical_state(h: &HistoricalState) -> String {
    let mut out = String::from("{");
    out.push_str(&print_schema(h.schema()));
    out.push_str(": ");
    let entries: Vec<String> = h
        .iter()
        .map(|(t, e)| {
            let vals: Vec<String> = t.values().iter().map(print_value).collect();
            format!("({}) @ {}", vals.join(", "), print_temporal_element(e))
        })
        .collect();
    out.push_str(&entries.join(", "));
    out.push('}');
    out
}

fn print_schema(s: &Schema) -> String {
    let attrs: Vec<String> = s
        .attributes()
        .iter()
        .map(|a| format!("{}: {}", a.name, a.domain.keyword()))
        .collect();
    format!("({})", attrs.join(", "))
}

/// Renders a value literal.
pub fn print_value(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        // {} prints the shortest digits that round-trip, and never an
        // exponent (which the lexer has no syntax for: {:?} would print
        // 1e-7, and the journal line would not parse back). The lexer
        // wants `d.d`, so a whole number gets `.0`.
        Value::Real(r) => {
            let s = r.get().to_string();
            if s.contains('.') {
                s
            } else {
                format!("{s}.0")
            }
        }
        Value::Bool(b) => b.to_string(),
        Value::Str(s) => {
            let mut out = String::from("\"");
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    other => out.push(other),
                }
            }
            out.push('"');
            out
        }
    }
}

/// Renders a predicate.
pub fn print_predicate(p: &Predicate) -> String {
    match p {
        Predicate::True => "true".into(),
        Predicate::False => "false".into(),
        Predicate::Comp(l, op, r) => {
            format!("{} {} {}", print_operand(l), op.symbol(), print_operand(r))
        }
        Predicate::And(a, b) => format!("({} and {})", print_predicate(a), print_predicate(b)),
        Predicate::Or(a, b) => format!("({} or {})", print_predicate(a), print_predicate(b)),
        Predicate::Not(a) => format!("(not {})", print_predicate(a)),
    }
}

fn print_operand(o: &Operand) -> String {
    match o {
        Operand::Attr(a) => a.to_string(),
        Operand::Const(v) => print_value(v),
    }
}

/// Renders a temporal element as `{[s, e), …}`.
pub fn print_temporal_element(e: &TemporalElement) -> String {
    let parts: Vec<String> = e
        .periods()
        .iter()
        .map(|p| {
            if p.end() == FOREVER {
                format!("[{}, forever)", p.start())
            } else {
                format!("[{}, {})", p.start(), p.end())
            }
        })
        .collect();
    format!("{{{}}}", parts.join(", "))
}

/// Renders a temporal expression.
pub fn print_temporal_expr(e: &TemporalExpr) -> String {
    match e {
        TemporalExpr::ValidTime => "valid".into(),
        TemporalExpr::Const(el) => print_temporal_element(el),
        TemporalExpr::Union(a, b) => format!(
            "({} union {})",
            print_temporal_expr(a),
            print_temporal_expr(b)
        ),
        TemporalExpr::Intersect(a, b) => format!(
            "({} intersect {})",
            print_temporal_expr(a),
            print_temporal_expr(b)
        ),
        TemporalExpr::Difference(a, b) => format!(
            "({} minus {})",
            print_temporal_expr(a),
            print_temporal_expr(b)
        ),
        TemporalExpr::First(a) => format!("first({})", print_temporal_expr(a)),
        TemporalExpr::Last(a) => format!("last({})", print_temporal_expr(a)),
    }
}

/// Renders a temporal predicate.
pub fn print_temporal_pred(p: &TemporalPred) -> String {
    match p {
        TemporalPred::True => "true".into(),
        TemporalPred::False => "false".into(),
        TemporalPred::Equals(a, b) => {
            format!("{} = {}", print_temporal_expr(a), print_temporal_expr(b))
        }
        TemporalPred::Subset(a, b) => {
            format!(
                "{} subset {}",
                print_temporal_expr(a),
                print_temporal_expr(b)
            )
        }
        TemporalPred::Overlaps(a, b) => format!(
            "{} overlaps {}",
            print_temporal_expr(a),
            print_temporal_expr(b)
        ),
        TemporalPred::Precedes(a, b) => format!(
            "{} precedes {}",
            print_temporal_expr(a),
            print_temporal_expr(b)
        ),
        TemporalPred::And(a, b) => format!(
            "({} and {})",
            print_temporal_pred(a),
            print_temporal_pred(b)
        ),
        TemporalPred::Or(a, b) => {
            format!("({} or {})", print_temporal_pred(a), print_temporal_pred(b))
        }
        TemporalPred::Not(a) => format!("(not {})", print_temporal_pred(a)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_command, parse_expr};
    use txtime_core::RelationType;

    #[test]
    fn command_round_trip() {
        let cmds = [
            Command::define_relation("emp", RelationType::Temporal),
            Command::delete_relation("emp"),
            Command::display(Expr::current("emp")),
        ];
        for c in cmds {
            assert_eq!(parse_command(&print_command(&c)).unwrap(), c);
        }
    }

    #[test]
    fn value_printing_round_trips() {
        for v in [
            Value::Int(-42),
            Value::real(2.5),
            Value::real(3.0),
            Value::Bool(true),
            Value::str("he said \"hi\"\n\tok\\done"),
        ] {
            let printed = print_value(&v);
            let e =
                parse_expr(&format!("{{(x: {}): ({})}}", v.domain().keyword(), printed)).unwrap();
            match e {
                Expr::SnapshotConst(s) => {
                    assert_eq!(s.iter().next().unwrap().get(0), &v, "printed: {printed}")
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn reals_that_debug_prints_with_an_exponent_round_trip() {
        for x in [
            1e-7,
            -1e-7,
            1e20,
            1.2345678901234568e16,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
        ] {
            let v = Value::real(x);
            let printed = print_value(&v);
            let e = parse_expr(&format!("{{(x: real): ({printed})}}"))
                .unwrap_or_else(|err| panic!("{printed} does not parse: {err}"));
            match e {
                Expr::SnapshotConst(s) => {
                    assert_eq!(s.iter().next().unwrap().get(0), &v, "printed: {printed}")
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn temporal_element_round_trips() {
        use txtime_historical::Period;
        let e = TemporalElement::from_periods([
            Period::new(0, 5).unwrap(),
            Period::new(9, FOREVER).unwrap(),
        ]);
        assert_eq!(print_temporal_element(&e), "{[0, 5), [9, forever)}");
    }
}
