//! Tokens of the surface syntax.

use std::borrow::Cow;
use std::fmt;

/// A lexical token, borrowing from the source text it was read from.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// An identifier or keyword (keywords are not reserved; the parser
    /// matches them contextually).
    Ident(&'a str),
    /// An integer literal (sign included).
    Int(i64),
    /// A real literal (sign included; contains a decimal point).
    Real(f64),
    /// A double-quoted string literal (escapes resolved): borrowed from
    /// the source unless it had an escape to resolve.
    Str(Cow<'a, str>),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `,`
    Comma,
    /// `;`
    Semicolon,
    /// `:`
    Colon,
    /// `@`
    At,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// End of input.
    Eof,
}

impl Token<'_> {
    /// Whether this token is the identifier/keyword `kw`.
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if *s == kw)
    }
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(i) => write!(f, "{i}"),
            Token::Real(r) => write!(f, "{r}"),
            Token::Str(s) => write!(f, "{s:?}"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::LBracket => write!(f, "["),
            Token::RBracket => write!(f, "]"),
            Token::LBrace => write!(f, "{{"),
            Token::RBrace => write!(f, "}}"),
            Token::Comma => write!(f, ","),
            Token::Semicolon => write!(f, ";"),
            Token::Colon => write!(f, ":"),
            Token::At => write!(f, "@"),
            Token::Eq => write!(f, "="),
            Token::Ne => write!(f, "<>"),
            Token::Lt => write!(f, "<"),
            Token::Le => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::Ge => write!(f, ">="),
            Token::Eof => write!(f, "<eof>"),
        }
    }
}

/// A token plus its source position (for diagnostics).
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned<'a> {
    /// The token.
    pub token: Token<'a>,
    /// 1-based line.
    pub line: usize,
    /// 1-based column, counted in chars.
    pub col: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_check() {
        assert!(Token::Ident("union").is_kw("union"));
        assert!(!Token::Ident("union").is_kw("minus"));
        assert!(!Token::Comma.is_kw("union"));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Token::Le.to_string(), "<=");
        assert_eq!(Token::Str("a\"b".into()).to_string(), "\"a\\\"b\"");
    }
}
