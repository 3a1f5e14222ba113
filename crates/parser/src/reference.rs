//! The char-vector lexer the byte lexer replaced, kept as the reference
//! the front end is tested against: the same tokens at the same lines and
//! columns, or the same error. It collects the input into a `Vec<char>`
//! and owns every identifier and string, so it is deliberately slow and
//! compiled for tests only.

use crate::error::ParseError;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// An identifier or keyword (keywords are not reserved; the parser
    /// matches them contextually).
    Ident(String),
    /// An integer literal (sign included).
    Int(i64),
    /// A real literal (sign included; contains a decimal point).
    Real(f64),
    /// A double-quoted string literal (escapes resolved).
    Str(String),
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

/// A token plus its source position (for diagnostics).
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// The token.
    pub token: Token,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

/// Tokenizes `input`; comments run from `--` to end of line.
pub fn lex(input: &str) -> Result<Vec<Spanned>, ParseError> {
    let mut tokens = Vec::new();
    let chars: Vec<char> = input.chars().collect();
    let mut i = 0;
    let mut line = 1;
    let mut col = 1;

    macro_rules! push {
        ($tok:expr, $len:expr) => {{
            tokens.push(Spanned {
                token: $tok,
                line,
                col,
            });
            i += $len;
            col += $len;
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                i += 1;
                line += 1;
                col = 1;
            }
            c if c.is_whitespace() => {
                i += 1;
                col += 1;
            }
            '-' if chars.get(i + 1) == Some(&'-') => {
                // Line comment.
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
            }
            '(' => push!(Token::LParen, 1),
            ')' => push!(Token::RParen, 1),
            '[' => push!(Token::LBracket, 1),
            ']' => push!(Token::RBracket, 1),
            '{' => push!(Token::LBrace, 1),
            '}' => push!(Token::RBrace, 1),
            ',' => push!(Token::Comma, 1),
            ';' => push!(Token::Semicolon, 1),
            ':' => push!(Token::Colon, 1),
            '@' => push!(Token::At, 1),
            '=' => push!(Token::Eq, 1),
            '<' => match chars.get(i + 1) {
                Some('>') => push!(Token::Ne, 2),
                Some('=') => push!(Token::Le, 2),
                _ => push!(Token::Lt, 1),
            },
            '>' => match chars.get(i + 1) {
                Some('=') => push!(Token::Ge, 2),
                _ => push!(Token::Gt, 1),
            },
            '"' => {
                let start_col = col;
                let mut s = String::new();
                let mut j = i + 1;
                let mut closed = false;
                while j < chars.len() {
                    match chars[j] {
                        '"' => {
                            closed = true;
                            break;
                        }
                        '\\' => {
                            let esc = chars.get(j + 1).copied().ok_or_else(|| {
                                ParseError::new("unterminated escape in string", line, start_col)
                            })?;
                            s.push(match esc {
                                'n' => '\n',
                                't' => '\t',
                                '\\' => '\\',
                                '"' => '"',
                                other => {
                                    return Err(ParseError::new(
                                        format!("unknown escape \\{other}"),
                                        line,
                                        start_col,
                                    ))
                                }
                            });
                            j += 2;
                        }
                        '\n' => {
                            return Err(ParseError::new(
                                "unterminated string literal",
                                line,
                                start_col,
                            ))
                        }
                        other => {
                            s.push(other);
                            j += 1;
                        }
                    }
                }
                if !closed {
                    return Err(ParseError::new(
                        "unterminated string literal",
                        line,
                        start_col,
                    ));
                }
                let len = j + 1 - i;
                push!(Token::Str(s), len);
            }
            c if c.is_ascii_digit()
                || (c == '-' && chars.get(i + 1).is_some_and(|d| d.is_ascii_digit())) =>
            {
                let start = i;
                let start_col = col;
                let mut j = i;
                if chars[j] == '-' {
                    j += 1;
                }
                while j < chars.len() && chars[j].is_ascii_digit() {
                    j += 1;
                }
                let mut is_real = false;
                if j + 1 < chars.len() && chars[j] == '.' && chars[j + 1].is_ascii_digit() {
                    is_real = true;
                    j += 1;
                    while j < chars.len() && chars[j].is_ascii_digit() {
                        j += 1;
                    }
                }
                let text: String = chars[start..j].iter().collect();
                let token = if is_real {
                    Token::Real(text.parse().map_err(|_| {
                        ParseError::new(format!("invalid real literal {text}"), line, start_col)
                    })?)
                } else {
                    Token::Int(text.parse().map_err(|_| {
                        ParseError::new(format!("invalid integer literal {text}"), line, start_col)
                    })?)
                };
                let len = j - i;
                push!(token, len);
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                let mut j = i;
                while j < chars.len() && (chars[j].is_ascii_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                let text: String = chars[start..j].iter().collect();
                let len = j - i;
                push!(Token::Ident(text), len);
            }
            other => {
                return Err(ParseError::new(
                    format!("unexpected character {other:?}"),
                    line,
                    col,
                ))
            }
        }
    }
    tokens.push(Spanned {
        token: Token::Eof,
        line,
        col,
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use txtime_core::generate::{random_commands, CmdGenConfig};
    use txtime_core::Sentence;
    use txtime_snapshot::rng::rngs::StdRng;
    use txtime_snapshot::rng::{Rng, SeedableRng};

    use crate::generate::{cfg, random_expr, schema};
    use crate::print::{print_expr, print_sentence};
    use crate::{lexer, parse_command, parse_expr, parse_sentence, ParseError};

    /// Asserts that the byte lexer and the reference agree on `input`: the
    /// same tokens at the same lines and columns, or the same error. A
    /// lexical error outranks any syntax error, so on one every entry point
    /// of the parser must report exactly it; otherwise they must not panic.
    fn agree(input: &str) {
        let entry_points = || {
            [
                parse_sentence(input).map(drop),
                parse_expr(input).map(drop),
                parse_command(input).map(drop),
            ]
        };
        match (lexer::lex(input), super::lex(input)) {
            // The two token types differ only in who owns the text, and
            // print alike under `Debug`.
            (Ok(new), Ok(old)) => {
                assert_eq!(format!("{new:?}"), format!("{old:?}"), "input: {input:?}");
                let _ = entry_points();
            }
            (Err(new), Err(old)) => {
                assert_eq!(new, old, "input: {input:?}");
                for got in entry_points() {
                    assert_eq!(got, Err(old.clone()), "input: {input:?}");
                }
            }
            (new, old) => panic!("input {input:?}: byte lexer {new:?}, reference {old:?}"),
        }
    }

    /// Chars a mutation inserts: one of each class the lexer branches on,
    /// and non-ASCII text, whitespace and control characters.
    const ALPHABET: &[char] = &[
        '(', ')', '[', ']', '{', '}', ',', ';', ':', '@', '=', '<', '>', '"', '\\', '-', '.', '0',
        '9', 'a', 'Z', '_', 'n', ' ', '\t', '\r', '\n', '\u{b}', '$', '\u{1}', 'é', '\u{a0}',
        '\u{2028}', '𝓕',
    ];

    /// `text` with one char deleted, inserted or swapped with its
    /// successor, at a random char boundary.
    fn mutate(text: &str, rng: &mut StdRng) -> String {
        let mut chars: Vec<char> = text.chars().collect();
        let n = chars.len();
        let k = rng.gen_range(0..=n);
        match rng.gen_range(0..3u32) {
            0 if k < n => {
                chars.remove(k);
            }
            1 if k + 1 < n => chars.swap(k, k + 1),
            _ => chars.insert(k, ALPHABET[rng.gen_range(0..ALPHABET.len())]),
        }
        chars.into_iter().collect()
    }

    /// Printed sentences and expressions of both kinds.
    fn corpus(rng: &mut StdRng, len: usize, depth: usize) -> Vec<String> {
        let cmds = random_commands(
            rng,
            &schema(),
            &CmdGenConfig {
                values: cfg(),
                relations: vec!["r0".into(), "r1".into()],
                churn: 0.3,
            },
            len,
        );
        vec![
            print_sentence(&Sentence::new(cmds).unwrap()),
            print_expr(&random_expr(rng, depth, false)),
            print_expr(&random_expr(rng, depth, true)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn byte_lexer_matches_reference(seed in any::<u64>(), len in 1usize..8, depth in 0usize..4) {
            let mut rng = StdRng::seed_from_u64(seed);
            for text in corpus(&mut rng, len, depth) {
                agree(&text);
                let mut near_miss = text.clone();
                for _ in 0..24 {
                    near_miss = mutate(&near_miss, &mut rng);
                    agree(&near_miss);
                    agree(&mutate(&text, &mut rng));
                }
            }
        }
    }

    #[test]
    fn byte_lexer_matches_reference_on_edge_cases() {
        for input in [
            "",
            "--",
            "a --",
            "a --\n",
            "a -- é \u{a0}",
            "-",
            "a -",
            "a - b",
            "--x\n-",
            "a\r\nb\tc\r\n\t d\u{b}e\u{c}f",
            "a\r\n$",
            "9223372036854775807 -9223372036854775808",
            "9223372036854775808",
            "-9223372036854775809",
            "00012 -0 1.5 -0.25 1. 1.x 1.2.3 .5 -.5",
            "1e5 0x10",
            "\"abc",
            "\"ab\\",
            "\"ab\\\"",
            "\"a\\q\"",
            "\"a\\é\"",
            "\"a\\\nb\"",
            "\\q",
            "\"\" \"é\u{a0}\" \"\\n\\t\\\\\\\"\"",
            "\u{a0}a\u{2028}b\u{3000}c",
            "é",
            "a é",
            "\"é\" é",
            "\u{1}",
            "𝓕(a)",
            "<><=>=<>=",
            "rho(r, inf)\r\n-- c\r\n",
        ] {
            agree(input);
        }
    }

    /// The exact message, line and column of representative lexical and
    /// syntax errors: `(entry point, input, message, line, column)`.
    #[test]
    fn error_goldens() {
        let goldens = [
            (
                "sentence",
                "define_relation(emp rollback);",
                "expected `,` (found `rollback`)",
                1,
                21,
            ),
            (
                "sentence",
                "define_relation(emp, versioned);",
                "unknown relation type `versioned` (found `)`)",
                1,
                31,
            ),
            (
                "sentence",
                "define_relation(emp, rollback)",
                "expected `;` (found `<eof>`)",
                1,
                31,
            ),
            (
                "sentence",
                "display(rho(a, inf)) $",
                "unexpected character '$'",
                1,
                22,
            ),
            (
                "sentence",
                "display(rho(a, inf));\r\n\t-- note\r\n  display(rho(b, inf)) $;",
                "unexpected character '$'",
                3,
                24,
            ),
            (
                "expr",
                "{(s: str): (\"abc)}",
                "unterminated string literal",
                1,
                13,
            ),
            (
                "expr",
                "{(s: str): (\"ab\nc\")}",
                "unterminated string literal",
                1,
                13,
            ),
            (
                "expr",
                "{(s: str): (\"a\\qb\")}",
                "unknown escape \\q",
                1,
                13,
            ),
            (
                "expr",
                "{(s: str): (\"ab\\",
                "unterminated escape in string",
                1,
                13,
            ),
            (
                "expr",
                "{(x: int): (9223372036854775808)}",
                "invalid integer literal 9223372036854775808",
                1,
                13,
            ),
            (
                "expr",
                "{(x: int): (-9223372036854775809)}",
                "invalid integer literal -9223372036854775809",
                1,
                13,
            ),
            (
                "expr",
                "select[x - 1](rho(r, inf))",
                "unexpected character '-'",
                1,
                10,
            ),
            (
                "expr",
                "{(s: str): (\"hé\u{a0}\")} \u{a0}union é",
                "unexpected character 'é'",
                1,
                28,
            ),
            (
                "expr",
                "rho(r, -1)",
                "expected a transaction number or `inf` (found `-1`)",
                1,
                8,
            ),
            (
                "expr",
                "project[](rho(r, inf))",
                "expected an identifier (found `]`)",
                1,
                9,
            ),
            (
                "expr",
                "historical {(x: int): (1) @ {[5, 5)}}",
                "period [5, 5) is empty (found `}`)",
                1,
                36,
            ),
            (
                "expr",
                "delta[valid overlaps; valid](hrho(h, inf))",
                "expected a temporal expression (found `;`)",
                1,
                21,
            ),
            (
                "expr",
                "asof[inf](rho(r, inf))",
                "asof requires a specific transaction number (found `]`)",
                1,
                9,
            ),
            (
                "command",
                "frobnicate(r)",
                "unknown command `frobnicate` (found `(`)",
                1,
                11,
            ),
            (
                "command",
                "evolve_scheme(r, add x: int default)",
                "expected a literal value (found `)`)",
                1,
                36,
            ),
        ];
        for (entry, input, message, line, col) in goldens {
            let got = match entry {
                "sentence" => parse_sentence(input).map(drop),
                "expr" => parse_expr(input).map(drop),
                _ => parse_command(input).map(drop),
            };
            assert_eq!(
                got,
                Err(ParseError::new(message, line, col)),
                "input: {input:?}"
            );
        }
        // A trailing comment is not an error.
        assert!(parse_expr("rho(r, inf) --").is_ok());
    }
}
