//! Pretty-printer: AST → parseable surface syntax.
//!
//! Every printer here produces text that the parser maps back to an equal
//! AST; `tests/round_trip.rs` property-tests this for randomly generated
//! sentences.
//!
//! The printers append to one `String` sink, so a command costs one
//! buffer however deep its tree: [`write_command`] is what the journal
//! uses, and each `print_*` function is a wrapper that returns a fresh
//! `String`.

use std::fmt::Write;

use txtime_core::{Command, Expr, SchemeChange, Sentence, TxSpec};
use txtime_historical::{HistoricalState, TemporalElement, TemporalExpr, TemporalPred, FOREVER};
use txtime_snapshot::{Operand, Predicate, Schema, SnapshotState, Tuple, Value};

/// Runs one printer into a fresh `String`.
fn render(print: impl FnOnce(&mut String)) -> String {
    let mut out = String::new();
    print(&mut out);
    out
}

/// Appends each of `parts`.
fn push_all(out: &mut String, parts: &[&str]) {
    for part in parts {
        out.push_str(part);
    }
}

/// Appends `n` in decimal, as `{n}` would, without the formatter.
fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut k = digits.len();
    loop {
        k -= 1;
        digits[k] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[k..]).expect("decimal digits are ASCII"));
}

/// Renders a sentence, one command per line.
pub fn print_sentence(s: &Sentence) -> String {
    render(|out| {
        for c in s.commands() {
            write_command(out, c);
            out.push_str(";\n");
        }
    })
}

/// Renders a command.
pub fn print_command(c: &Command) -> String {
    render(|out| write_command(out, c))
}

/// Appends a command to `out`.
pub fn write_command(out: &mut String, c: &Command) {
    match c {
        Command::DefineRelation(i, y) => {
            push_all(out, &["define_relation(", i, ", ", y.keyword(), ")"]);
        }
        Command::ModifyState(i, e) => {
            push_all(out, &["modify_state(", i, ", "]);
            expr(out, e);
            out.push(')');
        }
        Command::DeleteRelation(i) => push_all(out, &["delete_relation(", i, ")"]),
        Command::EvolveScheme(i, ch) => {
            push_all(out, &["evolve_scheme(", i, ", "]);
            scheme_change(out, ch);
            out.push(')');
        }
        Command::Display(e) => {
            out.push_str("display(");
            expr(out, e);
            out.push(')');
        }
    }
}

fn scheme_change(out: &mut String, c: &SchemeChange) {
    match c {
        SchemeChange::AddAttribute {
            name,
            domain,
            default,
        } => {
            push_all(out, &["add ", name, ": ", domain.keyword(), " default "]);
            value(out, default);
        }
        SchemeChange::DropAttribute(name) => push_all(out, &["drop ", name]),
        SchemeChange::RenameAttribute { from, to } => {
            push_all(out, &["rename ", from, " to ", to]);
        }
    }
}

/// Renders an expression.
pub fn print_expr(e: &Expr) -> String {
    render(|out| expr(out, e))
}

/// Appends `name[attr, …](e)`.
fn project(out: &mut String, name: &str, attrs: &[String], e: &Expr) {
    out.push_str(name);
    out.push('[');
    out.push_str(&attrs.join(", "));
    out.push_str("](");
    expr(out, e);
    out.push(')');
}

/// Appends `name[p](e)`.
fn select(out: &mut String, name: &str, p: &Predicate, e: &Expr) {
    out.push_str(name);
    out.push('[');
    predicate(out, p);
    out.push_str("](");
    expr(out, e);
    out.push(')');
}

fn expr(out: &mut String, e: &Expr) {
    match e {
        Expr::SnapshotConst(s) => snapshot_state(out, s),
        Expr::HistoricalConst(h) => {
            out.push_str("historical ");
            historical_state(out, h);
        }
        Expr::Union(a, b) => connective(out, expr, a, "union", b),
        Expr::Difference(a, b) => connective(out, expr, a, "minus", b),
        Expr::Product(a, b) => connective(out, expr, a, "times", b),
        Expr::Project(attrs, e) => project(out, "project", attrs, e),
        Expr::Select(p, e) => select(out, "select", p, e),
        Expr::Rollback(i, n) => rollback(out, "rho", i, n),
        Expr::HUnion(a, b) => connective(out, expr, a, "hunion", b),
        Expr::HDifference(a, b) => connective(out, expr, a, "hminus", b),
        Expr::HProduct(a, b) => connective(out, expr, a, "htimes", b),
        Expr::HProject(attrs, e) => project(out, "hproject", attrs, e),
        Expr::HSelect(p, e) => select(out, "hselect", p, e),
        Expr::Delta(g, v, e) => {
            out.push_str("delta[");
            temporal_pred(out, g);
            out.push_str("; ");
            temporal_expr(out, v);
            out.push_str("](");
            expr(out, e);
            out.push(')');
        }
        Expr::HRollback(i, n) => rollback(out, "hrho", i, n),
        // Physical joins have no surface syntax (only the plan search
        // constructs them); render them in the plan/explain notation.
        Expr::Join(spec, a, b) => join(out, "join", spec, a, b),
        Expr::HJoin(spec, a, b) => join(out, "hjoin", spec, a, b),
    }
}

/// Appends `name[spec](a, b)`.
fn join(out: &mut String, name: &str, spec: &impl std::fmt::Display, a: &Expr, b: &Expr) {
    let _ = write!(out, "{name}[{spec}](");
    expr(out, a);
    out.push_str(", ");
    expr(out, b);
    out.push(')');
}

fn rollback(out: &mut String, name: &str, ident: &str, spec: &TxSpec) {
    push_all(out, &[name, "(", ident, ", "]);
    match spec {
        TxSpec::At(n) => push_u64(out, n.0),
        TxSpec::Current => out.push_str("inf"),
    }
    out.push(')');
}

/// Renders a snapshot state as `{(schema): tuple, …}`.
pub fn print_snapshot_state(s: &SnapshotState) -> String {
    render(|out| snapshot_state(out, s))
}

fn snapshot_state(out: &mut String, s: &SnapshotState) {
    out.push('{');
    schema(out, s.schema());
    out.push_str(": ");
    for (k, t) in s.iter().enumerate() {
        if k > 0 {
            out.push_str(", ");
        }
        tuple(out, t);
    }
    out.push('}');
}

/// Renders an historical state as `{(schema): tuple @ element, …}`.
pub fn print_historical_state(h: &HistoricalState) -> String {
    render(|out| historical_state(out, h))
}

fn historical_state(out: &mut String, h: &HistoricalState) {
    out.push('{');
    schema(out, h.schema());
    out.push_str(": ");
    for (k, (t, e)) in h.iter().enumerate() {
        if k > 0 {
            out.push_str(", ");
        }
        tuple(out, t);
        out.push_str(" @ ");
        temporal_element(out, e);
    }
    out.push('}');
}

fn schema(out: &mut String, s: &Schema) {
    out.push('(');
    for (k, a) in s.attributes().iter().enumerate() {
        if k > 0 {
            out.push_str(", ");
        }
        push_all(out, &[&a.name, ": ", a.domain.keyword()]);
    }
    out.push(')');
}

fn tuple(out: &mut String, t: &Tuple) {
    out.push('(');
    for (k, v) in t.values().iter().enumerate() {
        if k > 0 {
            out.push_str(", ");
        }
        value(out, v);
    }
    out.push(')');
}

/// Renders a value literal.
pub fn print_value(v: &Value) -> String {
    render(|out| value(out, v))
}

fn value(out: &mut String, v: &Value) {
    match v {
        Value::Int(i) => {
            if *i < 0 {
                out.push('-');
            }
            push_u64(out, i.unsigned_abs());
        }
        // {} prints the shortest digits that round-trip, and never an
        // exponent (which the lexer has no syntax for: {:?} would print
        // 1e-7, and the journal line would not parse back). The lexer
        // wants `d.d`, so a whole number gets `.0`.
        Value::Real(r) => {
            let start = out.len();
            let _ = write!(out, "{}", r.get());
            if !out[start..].contains('.') {
                out.push_str(".0");
            }
        }
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Str(s) => {
            out.push('"');
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
        }
    }
}

fn predicate(out: &mut String, p: &Predicate) {
    match p {
        Predicate::True => out.push_str("true"),
        Predicate::False => out.push_str("false"),
        Predicate::Comp(l, op, r) => {
            operand(out, l);
            out.push(' ');
            out.push_str(op.symbol());
            out.push(' ');
            operand(out, r);
        }
        Predicate::And(a, b) => connective(out, predicate, a, "and", b),
        Predicate::Or(a, b) => connective(out, predicate, a, "or", b),
        Predicate::Not(a) => {
            out.push_str("(not ");
            predicate(out, a);
            out.push(')');
        }
    }
}

/// Appends `(a op b)`, printing each side with `side`.
fn connective<T>(out: &mut String, side: fn(&mut String, &T), a: &T, op: &str, b: &T) {
    out.push('(');
    side(out, a);
    out.push(' ');
    out.push_str(op);
    out.push(' ');
    side(out, b);
    out.push(')');
}

fn operand(out: &mut String, o: &Operand) {
    match o {
        Operand::Attr(a) => out.push_str(a),
        Operand::Const(v) => value(out, v),
    }
}

/// Renders a temporal element as `{[s, e), …}`.
pub fn print_temporal_element(e: &TemporalElement) -> String {
    render(|out| temporal_element(out, e))
}

fn temporal_element(out: &mut String, e: &TemporalElement) {
    out.push('{');
    for (k, p) in e.periods().iter().enumerate() {
        if k > 0 {
            out.push_str(", ");
        }
        out.push('[');
        push_u64(out, p.start().into());
        out.push_str(", ");
        if p.end() == FOREVER {
            out.push_str("forever");
        } else {
            push_u64(out, p.end().into());
        }
        out.push(')');
    }
    out.push('}');
}

fn temporal_expr(out: &mut String, e: &TemporalExpr) {
    match e {
        TemporalExpr::ValidTime => out.push_str("valid"),
        TemporalExpr::Const(el) => temporal_element(out, el),
        TemporalExpr::Union(a, b) => connective(out, temporal_expr, a, "union", b),
        TemporalExpr::Intersect(a, b) => connective(out, temporal_expr, a, "intersect", b),
        TemporalExpr::Difference(a, b) => connective(out, temporal_expr, a, "minus", b),
        TemporalExpr::First(a) => {
            out.push_str("first(");
            temporal_expr(out, a);
            out.push(')');
        }
        TemporalExpr::Last(a) => {
            out.push_str("last(");
            temporal_expr(out, a);
            out.push(')');
        }
    }
}

fn temporal_pred(out: &mut String, p: &TemporalPred) {
    let (a, op, b) = match p {
        TemporalPred::True => return out.push_str("true"),
        TemporalPred::False => return out.push_str("false"),
        TemporalPred::And(a, b) => return connective(out, temporal_pred, a, "and", b),
        TemporalPred::Or(a, b) => return connective(out, temporal_pred, a, "or", b),
        TemporalPred::Not(a) => {
            out.push_str("(not ");
            temporal_pred(out, a);
            return out.push(')');
        }
        TemporalPred::Equals(a, b) => (a, "=", b),
        TemporalPred::Subset(a, b) => (a, "subset", b),
        TemporalPred::Overlaps(a, b) => (a, "overlaps", b),
        TemporalPred::Precedes(a, b) => (a, "precedes", b),
    };
    // A comparison has no parentheses of its own.
    temporal_expr(out, a);
    out.push(' ');
    out.push_str(op);
    out.push(' ');
    temporal_expr(out, b);
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
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
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
