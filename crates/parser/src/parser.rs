//! Recursive-descent parser for the surface syntax.
//!
//! The grammar follows the paper's BNF (§3.1, §4) with a concrete
//! rendering chosen in this crate; see the crate docs for examples. The
//! parser is hand-written recursive descent with single-token lookahead
//! plus bounded backtracking at the one genuinely ambiguous point
//! (parenthesized temporal predicates vs parenthesized temporal
//! expressions inside δ's guard).
//!
//! Tokens borrow from the source and are never copied: stepping over one
//! moves a cursor, and only what the AST keeps is allocated — an owned
//! name from an identifier's slice, an `Arc<str>` from a string literal.

use txtime_core::{
    Command, CommandSpans, Expr, ExprSpans, RelationType, SchemeChange, Sentence, SentenceSpans,
    Span, TransactionNumber, TxSpec,
};
use txtime_historical::{
    HistoricalState, Period, TemporalElement, TemporalExpr, TemporalPred, FOREVER,
};
use txtime_snapshot::{
    CompOp, DomainType, Operand, Predicate, Schema, SnapshotState, Tuple, Value,
};

use crate::error::ParseError;
use crate::lexer::lex;
use crate::token::{Spanned, Token};

/// The parser state: the token buffer of one input and a cursor.
pub struct Parser<'a> {
    tokens: Vec<Spanned<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    /// Lexes `input` and prepares a parser over it.
    pub fn new(input: &'a str) -> Result<Parser<'a>, ParseError> {
        Ok(Parser {
            tokens: lex(input)?,
            pos: 0,
        })
    }

    fn peek(&self) -> &Spanned<'a> {
        &self.tokens[self.pos]
    }

    fn peek2(&self) -> &Spanned<'a> {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)]
    }

    /// Steps over the next token; the cursor stays on the final `Eof`.
    fn advance(&mut self) {
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
    }

    /// The source position of the next token.
    fn here(&self) -> Span {
        let t = self.peek();
        Span::new(t.line, t.col)
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        let here = self.peek();
        ParseError::new(
            format!("{} (found `{}`)", msg.into(), here.token),
            here.line,
            here.col,
        )
    }

    /// Steps over the next token if it is `token`.
    fn eat(&mut self, token: &Token<'_>) -> bool {
        let found = self.peek().token == *token;
        if found {
            self.advance();
        }
        found
    }

    fn expect(&mut self, token: Token<'_>) -> Result<(), ParseError> {
        if self.eat(&token) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{token}`")))
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{kw}`")))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        self.eat(&Token::Ident(kw))
    }

    fn ident(&mut self) -> Result<&'a str, ParseError> {
        match self.peek().token {
            Token::Ident(s) => {
                self.advance();
                Ok(s)
            }
            _ => Err(self.error("expected an identifier")),
        }
    }

    // ----- sentences and commands -------------------------------------

    /// `sentence := (command ';')+`
    pub fn parse_sentence(&mut self) -> Result<Sentence, ParseError> {
        self.parse_sentence_spanned().map(|(s, _)| s)
    }

    /// Like [`Parser::parse_sentence`], but also returns the span table
    /// used by diagnostics.
    pub fn parse_sentence_spanned(&mut self) -> Result<(Sentence, SentenceSpans), ParseError> {
        let mut commands = Vec::new();
        let mut spans = Vec::new();
        while self.peek().token != Token::Eof {
            let (c, csp) = self.command()?;
            commands.push(c);
            spans.push(csp);
            self.expect(Token::Semicolon)?;
        }
        if commands.is_empty() {
            return Err(self.error("a sentence requires at least one command"));
        }
        let sentence = Sentence::new(commands).map_err(|e| self.error(e.to_string()))?;
        Ok((sentence, SentenceSpans { commands: spans }))
    }

    /// Parses exactly one command and requires end of input.
    pub fn parse_single_command(&mut self) -> Result<Command, ParseError> {
        self.parse_single_command_spanned().map(|(c, _)| c)
    }

    /// Like [`Parser::parse_single_command`], but also returns the span
    /// table used by diagnostics.
    pub fn parse_single_command_spanned(&mut self) -> Result<(Command, CommandSpans), ParseError> {
        let (c, csp) = self.command()?;
        // Tolerate one optional trailing semicolon.
        self.eat(&Token::Semicolon);
        self.expect(Token::Eof)?;
        Ok((c, csp))
    }

    /// Parses exactly one expression and requires end of input.
    pub fn parse_single_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_single_expr_spanned().map(|(e, _)| e)
    }

    /// Like [`Parser::parse_single_expr`], but also returns the span
    /// table used by diagnostics.
    pub fn parse_single_expr_spanned(&mut self) -> Result<(Expr, ExprSpans), ParseError> {
        let (e, esp) = self.expr()?;
        self.expect(Token::Eof)?;
        Ok((e, esp))
    }

    fn command(&mut self) -> Result<(Command, CommandSpans), ParseError> {
        let head = self.here();
        let kw = self.ident()?;
        let no_expr = |c: Command| (c, CommandSpans { head, expr: None });
        let with_expr = |c: Command, esp: ExprSpans| {
            (
                c,
                CommandSpans {
                    head,
                    expr: Some(esp),
                },
            )
        };
        match kw {
            "define_relation" => {
                self.expect(Token::LParen)?;
                let ident = self.ident()?;
                self.expect(Token::Comma)?;
                let ty_name = self.ident()?;
                let rtype = RelationType::from_keyword(ty_name)
                    .ok_or_else(|| self.error(format!("unknown relation type `{ty_name}`")))?;
                self.expect(Token::RParen)?;
                Ok(no_expr(Command::define_relation(ident, rtype)))
            }
            "modify_state" => {
                self.expect(Token::LParen)?;
                let ident = self.ident()?;
                self.expect(Token::Comma)?;
                let (expr, esp) = self.expr()?;
                self.expect(Token::RParen)?;
                Ok(with_expr(Command::modify_state(ident, expr), esp))
            }
            "delete_relation" => {
                self.expect(Token::LParen)?;
                let ident = self.ident()?;
                self.expect(Token::RParen)?;
                Ok(no_expr(Command::delete_relation(ident)))
            }
            "evolve_scheme" => {
                self.expect(Token::LParen)?;
                let ident = self.ident()?;
                self.expect(Token::Comma)?;
                let change = self.scheme_change()?;
                self.expect(Token::RParen)?;
                Ok(no_expr(Command::evolve_scheme(ident, change)))
            }
            "display" => {
                self.expect(Token::LParen)?;
                let (expr, esp) = self.expr()?;
                self.expect(Token::RParen)?;
                Ok(with_expr(Command::display(expr), esp))
            }
            other => Err(self.error(format!("unknown command `{other}`"))),
        }
    }

    /// `scheme_change := add I ':' domain default literal | drop I
    ///                  | rename I to I`
    fn scheme_change(&mut self) -> Result<SchemeChange, ParseError> {
        if self.eat_kw("add") {
            let name = self.ident()?.to_owned();
            self.expect(Token::Colon)?;
            let domain = self.domain()?;
            self.expect_kw("default")?;
            let default = self.literal()?;
            Ok(SchemeChange::AddAttribute {
                name,
                domain,
                default,
            })
        } else if self.eat_kw("drop") {
            Ok(SchemeChange::DropAttribute(self.ident()?.to_owned()))
        } else if self.eat_kw("rename") {
            let from = self.ident()?.to_owned();
            self.expect_kw("to")?;
            let to = self.ident()?.to_owned();
            Ok(SchemeChange::RenameAttribute { from, to })
        } else {
            Err(self.error("expected `add`, `drop`, or `rename`"))
        }
    }

    // ----- expressions -------------------------------------------------

    /// `expr := unary (binop unary)*` with the six binary operators at a
    /// single (left-associative) precedence level.
    ///
    /// Returns the expression together with its span table; a binary
    /// node's span is its operator token, a unary node's the operator
    /// keyword, a constant's its opening token.
    fn expr(&mut self) -> Result<(Expr, ExprSpans), ParseError> {
        let (mut left, mut lsp) = self.unary_expr()?;
        loop {
            let combine: fn(Expr, Expr) -> Expr = match self.peek().token {
                Token::Ident("union") => Expr::union,
                Token::Ident("minus") => Expr::difference,
                Token::Ident("times") => Expr::product,
                Token::Ident("hunion") => Expr::hunion,
                Token::Ident("hminus") => Expr::hdifference,
                Token::Ident("htimes") => Expr::hproduct,
                _ => break,
            };
            let opsp = self.here();
            self.advance();
            let (right, rsp) = self.unary_expr()?;
            left = combine(left, right);
            lsp = ExprSpans::node(opsp, vec![lsp, rsp]);
        }
        Ok((left, lsp))
    }

    fn unary_expr(&mut self) -> Result<(Expr, ExprSpans), ParseError> {
        let start = self.here();
        let kw = match self.peek().token {
            Token::LParen => {
                self.advance();
                let e = self.expr()?;
                self.expect(Token::RParen)?;
                return Ok(e);
            }
            Token::LBrace => {
                return Ok((
                    Expr::snapshot_const(self.snapshot_state()?),
                    ExprSpans::leaf(start),
                ))
            }
            Token::Ident(kw) => kw,
            _ => return Err(self.error("expected an expression")),
        };
        match kw {
            "historical" => {
                self.advance();
                Ok((
                    Expr::historical_const(self.historical_state()?),
                    ExprSpans::leaf(start),
                ))
            }
            "project" | "hproject" => {
                self.advance();
                self.expect(Token::LBracket)?;
                let mut attrs = vec![self.ident()?.to_owned()];
                while self.eat(&Token::Comma) {
                    attrs.push(self.ident()?.to_owned());
                }
                self.expect(Token::RBracket)?;
                let (e, esp) = self.parenthesized_expr()?;
                Ok((
                    if kw == "project" {
                        e.project(attrs)
                    } else {
                        e.hproject(attrs)
                    },
                    ExprSpans::node(start, vec![esp]),
                ))
            }
            "select" | "hselect" => {
                self.advance();
                self.expect(Token::LBracket)?;
                let p = self.predicate()?;
                self.expect(Token::RBracket)?;
                let (e, esp) = self.parenthesized_expr()?;
                Ok((
                    if kw == "select" {
                        e.select(p)
                    } else {
                        e.hselect(p)
                    },
                    ExprSpans::node(start, vec![esp]),
                ))
            }
            "delta" => {
                self.advance();
                self.expect(Token::LBracket)?;
                let g = self.temporal_pred()?;
                self.expect(Token::Semicolon)?;
                let v = self.temporal_expr()?;
                self.expect(Token::RBracket)?;
                let (e, esp) = self.parenthesized_expr()?;
                Ok((e.delta(g, v), ExprSpans::node(start, vec![esp])))
            }
            // `asof[N](E)` — sugar for the rollback-completeness
            // transformer: every ρ(I, ∞)/ρ̂(I, ∞) leaf of E is
            // rewritten to ρ(I, N)/ρ̂(I, N) at parse time. The
            // rewrite only changes rollback arguments, never the
            // tree's shape, so E's span table carries over.
            "asof" => {
                self.advance();
                self.expect(Token::LBracket)?;
                let spec = self.tx_spec()?;
                let TxSpec::At(n) = spec else {
                    return Err(self.error("asof requires a specific transaction number"));
                };
                self.expect(Token::RBracket)?;
                let (e, esp) = self.parenthesized_expr()?;
                Ok((txtime_core::as_of(&e, n), esp))
            }
            "rho" | "hrho" => {
                self.advance();
                self.expect(Token::LParen)?;
                let ident = self.ident()?;
                self.expect(Token::Comma)?;
                let spec = self.tx_spec()?;
                self.expect(Token::RParen)?;
                Ok((
                    if kw == "rho" {
                        Expr::rollback(ident, spec)
                    } else {
                        Expr::hrollback(ident, spec)
                    },
                    ExprSpans::leaf(start),
                ))
            }
            other => Err(self.error(format!("unknown operator `{other}`"))),
        }
    }

    /// `'(' expr ')'`, an operator's operand.
    fn parenthesized_expr(&mut self) -> Result<(Expr, ExprSpans), ParseError> {
        self.expect(Token::LParen)?;
        let e = self.expr()?;
        self.expect(Token::RParen)?;
        Ok(e)
    }

    /// `numeral := non-negative integer | inf`
    fn tx_spec(&mut self) -> Result<TxSpec, ParseError> {
        let spec = match self.peek().token {
            Token::Int(n) if n >= 0 => TxSpec::At(TransactionNumber(n as u64)),
            Token::Ident("inf") => TxSpec::Current,
            _ => return Err(self.error("expected a transaction number or `inf`")),
        };
        self.advance();
        Ok(spec)
    }

    // ----- constant states ----------------------------------------------

    /// `'{' schema ':' [tuple (',' tuple)*] '}'`
    fn snapshot_state(&mut self) -> Result<SnapshotState, ParseError> {
        self.expect(Token::LBrace)?;
        let schema = self.schema()?;
        self.expect(Token::Colon)?;
        let mut tuples = Vec::new();
        if self.peek().token != Token::RBrace {
            tuples.push(self.tuple(schema.arity())?);
            while self.eat(&Token::Comma) {
                tuples.push(self.tuple(schema.arity())?);
            }
        }
        self.expect(Token::RBrace)?;
        SnapshotState::new(schema, tuples).map_err(|e| self.error(e.to_string()))
    }

    /// `'{' schema ':' [tuple '@' element (',' …)*] '}'`
    fn historical_state(&mut self) -> Result<HistoricalState, ParseError> {
        self.expect(Token::LBrace)?;
        let schema = self.schema()?;
        self.expect(Token::Colon)?;
        let mut entries = Vec::new();
        if self.peek().token != Token::RBrace {
            loop {
                let t = self.tuple(schema.arity())?;
                self.expect(Token::At)?;
                let e = self.temporal_element()?;
                entries.push((t, e));
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        self.expect(Token::RBrace)?;
        HistoricalState::new(schema, entries).map_err(|e| self.error(e.to_string()))
    }

    /// `'(' I ':' domain (',' I ':' domain)* ')'`
    fn schema(&mut self) -> Result<Schema, ParseError> {
        self.expect(Token::LParen)?;
        let mut attrs = Vec::new();
        loop {
            let name = self.ident()?;
            self.expect(Token::Colon)?;
            let domain = self.domain()?;
            attrs.push((name, domain));
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect(Token::RParen)?;
        Schema::new(attrs).map_err(|e| self.error(e.to_string()))
    }

    fn domain(&mut self) -> Result<DomainType, ParseError> {
        let name = self.ident()?;
        DomainType::from_keyword(name).ok_or_else(|| self.error(format!("unknown domain `{name}`")))
    }

    /// `'(' literal (',' literal)* ')'`, read into a buffer sized for the
    /// schema's `arity`.
    fn tuple(&mut self, arity: usize) -> Result<Tuple, ParseError> {
        self.expect(Token::LParen)?;
        let mut values = Vec::with_capacity(arity);
        values.push(self.literal()?);
        while self.eat(&Token::Comma) {
            values.push(self.literal()?);
        }
        self.expect(Token::RParen)?;
        Ok(Tuple::new(values))
    }

    /// A literal value; a string's one allocation is its `Arc<str>`.
    fn literal(&mut self) -> Result<Value, ParseError> {
        let value = match &self.peek().token {
            Token::Int(n) => Value::Int(*n),
            Token::Real(r) => Value::real(*r),
            Token::Str(s) => Value::str(s),
            Token::Ident("true") => Value::Bool(true),
            Token::Ident("false") => Value::Bool(false),
            _ => return Err(self.error("expected a literal value")),
        };
        self.advance();
        Ok(value)
    }

    // ----- predicates (𝓕) ------------------------------------------------

    /// `pred := and_pred ('or' and_pred)*`
    fn predicate(&mut self) -> Result<Predicate, ParseError> {
        let mut left = self.and_pred()?;
        while self.eat_kw("or") {
            let right = self.and_pred()?;
            left = left.or(right);
        }
        Ok(left)
    }

    fn and_pred(&mut self) -> Result<Predicate, ParseError> {
        let mut left = self.not_pred()?;
        while self.eat_kw("and") {
            let right = self.not_pred()?;
            left = left.and(right);
        }
        Ok(left)
    }

    fn not_pred(&mut self) -> Result<Predicate, ParseError> {
        if self.eat_kw("not") {
            Ok(self.not_pred()?.not())
        } else {
            self.primary_pred()
        }
    }

    fn primary_pred(&mut self) -> Result<Predicate, ParseError> {
        // `true`/`false` are predicate constants unless followed by a
        // comparison operator (in which case they are Bool operands).
        if !is_comp_op(&self.peek2().token) {
            if self.eat_kw("true") {
                return Ok(Predicate::True);
            }
            if self.eat_kw("false") {
                return Ok(Predicate::False);
            }
        }
        if self.eat(&Token::LParen) {
            let p = self.predicate()?;
            self.expect(Token::RParen)?;
            return Ok(p);
        }
        let left = self.operand()?;
        let op = self.comp_op()?;
        let right = self.operand()?;
        Ok(Predicate::Comp(left, op, right))
    }

    fn operand(&mut self) -> Result<Operand, ParseError> {
        match self.peek().token {
            Token::Ident(s) if s != "true" && s != "false" => {
                self.advance();
                Ok(Operand::attr(s))
            }
            _ => Ok(Operand::Const(self.literal()?)),
        }
    }

    fn comp_op(&mut self) -> Result<CompOp, ParseError> {
        let op = match self.peek().token {
            Token::Eq => CompOp::Eq,
            Token::Ne => CompOp::Ne,
            Token::Lt => CompOp::Lt,
            Token::Le => CompOp::Le,
            Token::Gt => CompOp::Gt,
            Token::Ge => CompOp::Ge,
            _ => return Err(self.error("expected a comparison operator")),
        };
        self.advance();
        Ok(op)
    }

    // ----- temporal predicates (𝓖) and expressions (𝓥) -------------------

    /// `tpred := tand ('or' tand)*`
    fn temporal_pred(&mut self) -> Result<TemporalPred, ParseError> {
        let mut left = self.temporal_and()?;
        while self.eat_kw("or") {
            let right = self.temporal_and()?;
            left = left.or(right);
        }
        Ok(left)
    }

    fn temporal_and(&mut self) -> Result<TemporalPred, ParseError> {
        let mut left = self.temporal_not()?;
        while self.eat_kw("and") {
            let right = self.temporal_not()?;
            left = left.and(right);
        }
        Ok(left)
    }

    fn temporal_not(&mut self) -> Result<TemporalPred, ParseError> {
        if self.eat_kw("not") {
            Ok(self.temporal_not()?.not())
        } else {
            self.temporal_primary()
        }
    }

    fn temporal_primary(&mut self) -> Result<TemporalPred, ParseError> {
        if self.eat_kw("true") {
            return Ok(TemporalPred::True);
        }
        if self.eat_kw("false") {
            return Ok(TemporalPred::False);
        }
        if self.peek().token == Token::LParen {
            // Ambiguity: '(' tpred ')' vs a comparison whose left operand
            // is a parenthesized temporal expression. Try the comparison
            // first; backtrack on failure. Stepping over a token leaves it
            // in the buffer, so the rewound cursor reads the same tokens.
            let save = self.pos;
            if let Ok(p) = self.try_temporal_comparison() {
                return Ok(p);
            }
            self.pos = save;
            self.advance(); // '('
            let p = self.temporal_pred()?;
            self.expect(Token::RParen)?;
            return Ok(p);
        }
        self.try_temporal_comparison()
    }

    fn try_temporal_comparison(&mut self) -> Result<TemporalPred, ParseError> {
        let left = self.temporal_expr()?;
        if self.eat(&Token::Eq) {
            let right = self.temporal_expr()?;
            return Ok(TemporalPred::equals(left, right));
        }
        for (kw, ctor) in [
            ("subset", TemporalPred::subset as fn(_, _) -> _),
            ("overlaps", TemporalPred::overlaps as fn(_, _) -> _),
            ("precedes", TemporalPred::precedes as fn(_, _) -> _),
        ] {
            if self.eat_kw(kw) {
                let right = self.temporal_expr()?;
                return Ok(ctor(left, right));
            }
        }
        Err(self.error("expected `=`, `subset`, `overlaps`, or `precedes`"))
    }

    /// `texpr := tterm (('union'|'intersect'|'minus') tterm)*`
    fn temporal_expr(&mut self) -> Result<TemporalExpr, ParseError> {
        let mut left = self.temporal_term()?;
        loop {
            if self.eat_kw("union") {
                left = TemporalExpr::union(left, self.temporal_term()?);
            } else if self.eat_kw("intersect") {
                left = TemporalExpr::intersect(left, self.temporal_term()?);
            } else if self.eat_kw("minus") {
                left = TemporalExpr::difference(left, self.temporal_term()?);
            } else {
                break;
            }
        }
        Ok(left)
    }

    fn temporal_term(&mut self) -> Result<TemporalExpr, ParseError> {
        match self.peek().token {
            Token::Ident("valid") => {
                self.advance();
                Ok(TemporalExpr::ValidTime)
            }
            Token::Ident(s @ ("first" | "last")) => {
                self.advance();
                self.expect(Token::LParen)?;
                let inner = self.temporal_expr()?;
                self.expect(Token::RParen)?;
                Ok(if s == "first" {
                    TemporalExpr::first(inner)
                } else {
                    TemporalExpr::last(inner)
                })
            }
            Token::LBrace => Ok(TemporalExpr::constant(self.temporal_element()?)),
            Token::LParen => {
                self.advance();
                let e = self.temporal_expr()?;
                self.expect(Token::RParen)?;
                Ok(e)
            }
            _ => Err(self.error("expected a temporal expression")),
        }
    }

    /// `telement := '{' [period (',' period)*] '}'`
    fn temporal_element(&mut self) -> Result<TemporalElement, ParseError> {
        self.expect(Token::LBrace)?;
        let mut periods = Vec::new();
        if self.peek().token != Token::RBrace {
            periods.push(self.period()?);
            while self.eat(&Token::Comma) {
                periods.push(self.period()?);
            }
        }
        self.expect(Token::RBrace)?;
        Ok(TemporalElement::from_periods(periods))
    }

    /// `period := '[' int ',' (int|'forever') ')'`
    fn period(&mut self) -> Result<Period, ParseError> {
        self.expect(Token::LBracket)?;
        let start = self.chronon()?;
        self.expect(Token::Comma)?;
        let end = if self.eat_kw("forever") {
            FOREVER
        } else {
            self.chronon()?
        };
        self.expect(Token::RParen)?;
        Period::new(start, end).map_err(|e| self.error(e.to_string()))
    }

    fn chronon(&mut self) -> Result<u32, ParseError> {
        match self.peek().token {
            Token::Int(n) if n >= 0 && n <= u32::MAX as i64 => {
                self.advance();
                Ok(n as u32)
            }
            _ => Err(self.error("expected a chronon (non-negative integer)")),
        }
    }
}

fn is_comp_op(t: &Token<'_>) -> bool {
    matches!(
        t,
        Token::Eq | Token::Ne | Token::Lt | Token::Le | Token::Gt | Token::Ge
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_command, parse_expr, parse_sentence};

    #[test]
    fn parses_define_and_modify() {
        let s = parse_sentence(
            r#"
            define_relation(emp, rollback);
            modify_state(emp, {(name: str, sal: int): ("alice", 100)});
            "#,
        )
        .unwrap();
        assert_eq!(s.commands().len(), 2);
        let db = s.eval().unwrap();
        assert_eq!(db.tx.0, 2);
    }

    #[test]
    fn parses_algebra_expressions() {
        let e = parse_expr("project[name](select[sal > 100](rho(emp, inf)))").unwrap();
        assert_eq!(
            e.to_string(),
            "project[name](select[sal > 100](rho(emp, inf)))"
        );
    }

    #[test]
    fn binary_operators_are_left_associative() {
        let e = parse_expr("rho(a, inf) union rho(b, inf) minus rho(c, inf)").unwrap();
        assert_eq!(
            e.to_string(),
            "((rho(a, inf) union rho(b, inf)) minus rho(c, inf))"
        );
    }

    #[test]
    fn parentheses_override_associativity() {
        let e = parse_expr("rho(a, inf) union (rho(b, inf) minus rho(c, inf))").unwrap();
        assert_eq!(
            e.to_string(),
            "(rho(a, inf) union (rho(b, inf) minus rho(c, inf)))"
        );
    }

    #[test]
    fn parses_rollback_at_transaction() {
        let e = parse_expr("rho(emp, 42)").unwrap();
        assert_eq!(e, Expr::rollback("emp", TxSpec::At(TransactionNumber(42))));
    }

    #[test]
    fn parses_empty_state() {
        let e = parse_expr("{(x: int):}").unwrap();
        match e {
            Expr::SnapshotConst(s) => assert!(s.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_all_literal_kinds() {
        let e =
            parse_expr(r#"{(i: int, r: real, b: bool, s: str): (-3, 2.5, true, "hi")}"#).unwrap();
        match e {
            Expr::SnapshotConst(s) => {
                let t = s.iter().next().unwrap();
                assert_eq!(t.get(0), &Value::Int(-3));
                assert_eq!(t.get(1), &Value::real(2.5));
                assert_eq!(t.get(2), &Value::Bool(true));
                assert_eq!(t.get(3), &Value::str("hi"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_predicates_with_precedence() {
        // `or` binds looser than `and`.
        let e = parse_expr("select[a = 1 or b = 2 and c = 3](rho(r, inf))").unwrap();
        assert_eq!(
            e.to_string(),
            "select[(a = 1 or (b = 2 and c = 3))](rho(r, inf))"
        );
    }

    #[test]
    fn parses_bool_operand_vs_pred_constant() {
        let e = parse_expr("select[flag = true and true](rho(r, inf))").unwrap();
        assert_eq!(e.to_string(), "select[(flag = true and true)](rho(r, inf))");
    }

    #[test]
    fn parses_historical_constant() {
        let e = parse_expr(
            r#"historical {(name: str): ("alice") @ {[0, 10)}, ("bob") @ {[5, forever)}}"#,
        )
        .unwrap();
        match e {
            Expr::HistoricalConst(h) => {
                assert_eq!(h.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_delta() {
        let e =
            parse_expr("delta[valid overlaps {[3, 7)}; valid intersect {[3, 7)}](hrho(h, inf))")
                .unwrap();
        match &e {
            Expr::Delta(g, v, _) => {
                assert!(matches!(g, TemporalPred::Overlaps(..)));
                assert!(matches!(v, TemporalExpr::Intersect(..)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_parenthesized_temporal_predicate() {
        let e = parse_expr(
            "delta[(valid overlaps {[0, 5)}) and not valid precedes {[9, 10)}; valid](hrho(h, inf))",
        )
        .unwrap();
        assert!(matches!(e, Expr::Delta(TemporalPred::And(..), _, _)));
    }

    #[test]
    fn parses_parenthesized_temporal_expr_comparison() {
        let e = parse_expr("delta[(valid union {[0, 2)}) subset {[0, 50)}; valid](hrho(h, inf))")
            .unwrap();
        assert!(matches!(e, Expr::Delta(TemporalPred::Subset(..), _, _)));
    }

    #[test]
    fn parses_first_last() {
        let e =
            parse_expr("delta[first(valid) precedes last(valid); valid](hrho(h, inf))").unwrap();
        assert!(matches!(e, Expr::Delta(TemporalPred::Precedes(..), _, _)));
    }

    #[test]
    fn asof_sugar_rewrites_current_leaves() {
        let e = parse_expr("asof[5](select[x > 1](rho(r, inf) union rho(q, 3)))").unwrap();
        assert_eq!(e.to_string(), "select[x > 1]((rho(r, 5) union rho(q, 3)))");
        // ∞ is not a valid asof target.
        assert!(parse_expr("asof[inf](rho(r, inf))").is_err());
    }

    #[test]
    fn parses_extension_commands() {
        assert!(matches!(
            parse_command("delete_relation(emp)").unwrap(),
            Command::DeleteRelation(_)
        ));
        assert!(matches!(
            parse_command(r#"evolve_scheme(emp, add dept: str default "unknown")"#).unwrap(),
            Command::EvolveScheme(_, SchemeChange::AddAttribute { .. })
        ));
        assert!(matches!(
            parse_command("evolve_scheme(emp, drop sal)").unwrap(),
            Command::EvolveScheme(_, SchemeChange::DropAttribute(_))
        ));
        assert!(matches!(
            parse_command("evolve_scheme(emp, rename sal to salary)").unwrap(),
            Command::EvolveScheme(_, SchemeChange::RenameAttribute { .. })
        ));
        assert!(matches!(
            parse_command("display(rho(emp, inf))").unwrap(),
            Command::Display(_)
        ));
    }

    #[test]
    fn error_positions_are_reported() {
        let e = parse_sentence("define_relation(emp rollback);").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("expected"));
    }

    #[test]
    fn span_tables_record_operator_positions() {
        use crate::parse_expr_spanned;
        // Columns:  1        10        20        30
        //           |        |         |         |
        let src = "project[x](rho(a, inf) union rho(b, inf))";
        let (e, sp) = parse_expr_spanned(src).unwrap();
        assert!(matches!(e, Expr::Project(..)));
        assert_eq!((sp.span.line, sp.span.col), (1, 1)); // `project`
        let union = &sp.children[0];
        assert_eq!((union.span.line, union.span.col), (1, 24)); // `union`
        assert_eq!(
            (union.children[0].span.line, union.children[0].span.col),
            (1, 12)
        ); // `rho(a, …)`
        assert_eq!(
            (union.children[1].span.line, union.children[1].span.col),
            (1, 30)
        ); // `rho(b, …)`
    }

    #[test]
    fn span_tables_follow_lines_and_mirror_shape() {
        use crate::parse_sentence_spanned;
        let src = "define_relation(emp, rollback);\nmodify_state(emp,\n  rho(emp, inf));\n";
        let (s, sp) = parse_sentence_spanned(src).unwrap();
        assert_eq!(s.commands().len(), 2);
        assert_eq!(sp.commands.len(), 2);
        assert_eq!((sp.commands[0].head.line, sp.commands[0].head.col), (1, 1));
        assert!(sp.commands[0].expr.is_none());
        assert_eq!((sp.commands[1].head.line, sp.commands[1].head.col), (2, 1));
        let esp = sp.commands[1].expr.as_ref().unwrap();
        assert_eq!((esp.span.line, esp.span.col), (3, 3)); // `rho` on line 3
        assert!(esp.children.is_empty());
    }

    #[test]
    fn parens_are_transparent_and_asof_preserves_spans() {
        use crate::parse_expr_spanned;
        let (_, sp) = parse_expr_spanned("(rho(a, inf))").unwrap();
        assert_eq!((sp.span.line, sp.span.col), (1, 2)); // inner `rho`
        let (e, sp) = parse_expr_spanned("asof[3](rho(a, inf) union rho(b, inf))").unwrap();
        // asof rewrites rollback arguments without changing tree shape…
        assert!(matches!(e, Expr::Union(..)));
        // …so the span table is the inner expression's.
        assert_eq!((sp.span.line, sp.span.col), (1, 21)); // `union`
        assert_eq!(sp.children.len(), 2);
    }

    #[test]
    fn rejects_unknown_relation_type() {
        let e = parse_sentence("define_relation(emp, versioned);").unwrap_err();
        assert!(e.message.contains("versioned"));
    }

    #[test]
    fn rejects_missing_semicolon() {
        assert!(parse_sentence("define_relation(emp, rollback)").is_err());
    }

    #[test]
    fn rejects_trailing_garbage_in_expr() {
        assert!(parse_expr("rho(a, inf) rho(b, inf)").is_err());
    }

    #[test]
    fn comments_are_allowed_between_commands() {
        let s = parse_sentence("-- set up\ndefine_relation(emp, rollback); -- done\n").unwrap();
        assert_eq!(s.commands().len(), 1);
    }

    #[test]
    fn invalid_period_is_reported() {
        let e = parse_expr("historical {(x: int): (1) @ {[5, 5)}}").unwrap_err();
        assert!(e.message.contains("empty"));
    }
}
