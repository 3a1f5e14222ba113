//! The lexer: source text → token stream.
//!
//! It walks the input's bytes. Every token but a string literal is
//! ASCII, so a char is decoded only inside a string, for Unicode
//! whitespace and for the unexpected-character error; columns still
//! count chars. Tokens borrow from the input: an identifier is a slice
//! of it, and so is a string literal without escapes.

use std::borrow::Cow;

use crate::error::ParseError;
use crate::token::{Spanned, Token};

/// Tokenizes `input`; comments run from `--` to end of line.
pub fn lex(input: &str) -> Result<Vec<Spanned<'_>>, ParseError> {
    let bytes = input.as_bytes();
    // Journal lines run about one token to two bytes.
    let mut tokens = Vec::with_capacity(input.len() / 2 + 1);
    let (mut i, mut line, mut col) = (0, 1, 1);
    while let Some(&b) = bytes.get(i) {
        let (token, len) = match b {
            b'\n' => {
                i += 1;
                line += 1;
                col = 1;
                continue;
            }
            b' ' | b'\t' | b'\r' | 0x0b | 0x0c => {
                i += 1;
                col += 1;
                continue;
            }
            b'-' if bytes.get(i + 1) == Some(&b'-') => {
                // A line comment. The column stays put: the newline that
                // ends the comment resets it.
                i = bytes[i..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(bytes.len(), |n| i + n);
                continue;
            }
            b'(' => (Token::LParen, 1),
            b')' => (Token::RParen, 1),
            b'[' => (Token::LBracket, 1),
            b']' => (Token::RBracket, 1),
            b'{' => (Token::LBrace, 1),
            b'}' => (Token::RBrace, 1),
            b',' => (Token::Comma, 1),
            b';' => (Token::Semicolon, 1),
            b':' => (Token::Colon, 1),
            b'@' => (Token::At, 1),
            b'=' => (Token::Eq, 1),
            b'<' => match bytes.get(i + 1) {
                Some(b'>') => (Token::Ne, 2),
                Some(b'=') => (Token::Le, 2),
                _ => (Token::Lt, 1),
            },
            b'>' => match bytes.get(i + 1) {
                Some(b'=') => (Token::Ge, 2),
                _ => (Token::Gt, 1),
            },
            b'"' => {
                let (body, end, width) =
                    string(input, i + 1).map_err(|msg| ParseError::new(msg, line, col))?;
                tokens.push(Spanned {
                    token: Token::Str(body),
                    line,
                    col,
                });
                col += width;
                i = end;
                continue;
            }
            b'0'..=b'9' | b'-' if b != b'-' || bytes.get(i + 1).is_some_and(u8::is_ascii_digit) => {
                // The first byte is a sign or a digit; `d+` or `d+.d+`
                // follows.
                let mut j = digits_end(bytes, i + 1);
                let is_real =
                    bytes.get(j) == Some(&b'.') && bytes.get(j + 1).is_some_and(u8::is_ascii_digit);
                if is_real {
                    j = digits_end(bytes, j + 1);
                }
                let text = &input[i..j];
                let token = if is_real {
                    Token::Real(text.parse().map_err(|_| {
                        ParseError::new(format!("invalid real literal {text}"), line, col)
                    })?)
                } else {
                    Token::Int(text.parse().map_err(|_| {
                        ParseError::new(format!("invalid integer literal {text}"), line, col)
                    })?)
                };
                (token, j - i)
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let len = bytes[i..]
                    .iter()
                    .position(|&b| !(b.is_ascii_alphanumeric() || b == b'_'))
                    .unwrap_or(bytes.len() - i);
                (Token::Ident(&input[i..i + len]), len)
            }
            _ => {
                // Bytes only ever advance by whole chars, so `i` is on a
                // char boundary.
                let c = input[i..].chars().next().expect("not at end of input");
                if c.is_whitespace() {
                    i += c.len_utf8();
                    col += 1;
                    continue;
                }
                return Err(ParseError::new(
                    format!("unexpected character {c:?}"),
                    line,
                    col,
                ));
            }
        };
        // Every token but a string literal is ASCII: as many chars as bytes.
        tokens.push(Spanned { token, line, col });
        i += len;
        col += len;
    }
    tokens.push(Spanned {
        token: Token::Eof,
        line,
        col,
    });
    Ok(tokens)
}

/// The index of the first non-digit byte at or after `from`.
fn digits_end(bytes: &[u8], from: usize) -> usize {
    bytes[from..]
        .iter()
        .position(|b| !b.is_ascii_digit())
        .map_or(bytes.len(), |n| from + n)
}

/// Reads the body of a string literal that starts at `start`, just past
/// its opening quote. Returns the body with its escapes resolved, the
/// index just past the closing quote, and the literal's width in chars,
/// quotes included. The body is borrowed from `input` unless it has an
/// escape.
fn string(input: &str, start: usize) -> Result<(Cow<'_, str>, usize, usize), String> {
    let bytes = input.as_bytes();
    let mut owned: Option<String> = None;
    // The start of the run of plain bytes not yet copied into `owned`.
    let mut run = start;
    let mut j = start;
    // The opening quote; then one per byte that starts a char.
    let mut width = 1;
    loop {
        match bytes.get(j) {
            None | Some(b'\n') => return Err("unterminated string literal".into()),
            Some(b'"') => {
                let body = match owned {
                    None => Cow::Borrowed(&input[start..j]),
                    Some(mut s) => {
                        s.push_str(&input[run..j]);
                        Cow::Owned(s)
                    }
                };
                return Ok((body, j + 1, width + 1));
            }
            Some(b'\\') => {
                let Some(esc) = input[j + 1..].chars().next() else {
                    return Err("unterminated escape in string".into());
                };
                let s = owned.get_or_insert_with(String::new);
                s.push_str(&input[run..j]);
                s.push(match esc {
                    'n' => '\n',
                    't' => '\t',
                    '\\' => '\\',
                    '"' => '"',
                    other => return Err(format!("unknown escape \\{other}")),
                });
                j += 1 + esc.len_utf8();
                width += 2;
                run = j;
            }
            // A UTF-8 continuation byte (10xxxxxx) does not start a char.
            Some(&b) => {
                width += usize::from(b & 0xc0 != 0x80);
                j += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<Token<'_>> {
        lex(s).unwrap().into_iter().map(|t| t.token).collect()
    }

    #[test]
    fn punctuation_and_operators() {
        assert_eq!(
            toks("( ) [ ] { } , ; : @ = <> < <= > >="),
            vec![
                Token::LParen,
                Token::RParen,
                Token::LBracket,
                Token::RBracket,
                Token::LBrace,
                Token::RBrace,
                Token::Comma,
                Token::Semicolon,
                Token::Colon,
                Token::At,
                Token::Eq,
                Token::Ne,
                Token::Lt,
                Token::Le,
                Token::Gt,
                Token::Ge,
                Token::Eof,
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            toks("42 -7 3.25 -0.5"),
            vec![
                Token::Int(42),
                Token::Int(-7),
                Token::Real(3.25),
                Token::Real(-0.5),
                Token::Eof
            ]
        );
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            toks(r#""hello" "a\"b" "tab\tend""#),
            vec![
                Token::Str("hello".into()),
                Token::Str("a\"b".into()),
                Token::Str("tab\tend".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn identifiers_and_keywords() {
        assert_eq!(
            toks("rho emp_2 union"),
            vec![
                Token::Ident("rho"),
                Token::Ident("emp_2"),
                Token::Ident("union"),
                Token::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("a -- comment ; with stuff\nb"),
            vec![Token::Ident("a"), Token::Ident("b"), Token::Eof]
        );
    }

    #[test]
    fn positions_track_lines() {
        let ts = lex("a\n  b").unwrap();
        assert_eq!((ts[0].line, ts[0].col), (1, 1));
        assert_eq!((ts[1].line, ts[1].col), (2, 3));
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(lex("\"abc").is_err());
        assert!(lex("\"ab\nc\"").is_err());
    }

    #[test]
    fn unknown_character_is_an_error() {
        let e = lex("a $ b").unwrap_err();
        assert!(e.message.contains('$'));
    }

    #[test]
    fn minus_without_digit_is_error_unless_comment() {
        // A single '-' (not '--', not a negative number) is not a token.
        assert!(lex("a - b").is_err());
    }
}
