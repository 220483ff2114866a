//! SQL tokenizer.

use crate::error::{DbError, DbResult};
use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier or keyword; the parser decides by context. Stored as
    /// written, compared case-insensitively.
    Word(String),
    Int(i64),
    Float(f64),
    Str(String),
    Comma,
    LParen,
    RParen,
    Dot,
    Star,
    Semicolon,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Plus,
    Minus,
    Slash,
    Percent,
}

impl Token {
    /// True if this is the given keyword (case-insensitive).
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Word(w) if w.eq_ignore_ascii_case(kw))
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Word(w) => write!(f, "{w}"),
            Token::Int(i) => write!(f, "{i}"),
            Token::Float(x) => write!(f, "{x}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::Comma => f.write_str(","),
            Token::LParen => f.write_str("("),
            Token::RParen => f.write_str(")"),
            Token::Dot => f.write_str("."),
            Token::Star => f.write_str("*"),
            Token::Semicolon => f.write_str(";"),
            Token::Eq => f.write_str("="),
            Token::NotEq => f.write_str("<>"),
            Token::Lt => f.write_str("<"),
            Token::LtEq => f.write_str("<="),
            Token::Gt => f.write_str(">"),
            Token::GtEq => f.write_str(">="),
            Token::Plus => f.write_str("+"),
            Token::Minus => f.write_str("-"),
            Token::Slash => f.write_str("/"),
            Token::Percent => f.write_str("%"),
        }
    }
}

/// The first byte at or after `i` that is neither whitespace nor part of a
/// `--` line comment: where the next token starts.
pub(crate) fn skip_trivia(bytes: &[u8], mut i: usize) -> usize {
    loop {
        match bytes.get(i) {
            Some(&b) if (b as char).is_whitespace() => i += 1,
            Some(b'-') if bytes.get(i + 1) == Some(&b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            _ => return i,
        }
    }
}

/// Length of the identifier-or-keyword characters `bytes` starts with.
pub(crate) fn word_len(bytes: &[u8]) -> usize {
    bytes.iter().take_while(|b| b.is_ascii_alphanumeric() || **b == b'_').count()
}

/// Tokenize SQL text. String literals use single quotes with `''` escaping;
/// `--` starts a line comment.
pub fn lex(input: &str) -> DbResult<Vec<Token>> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = skip_trivia(bytes, 0);
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            '.' => {
                tokens.push(Token::Dot);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            ';' => {
                tokens.push(Token::Semicolon);
                i += 1;
            }
            '+' => {
                tokens.push(Token::Plus);
                i += 1;
            }
            '-' => {
                tokens.push(Token::Minus);
                i += 1;
            }
            '/' => {
                tokens.push(Token::Slash);
                i += 1;
            }
            '%' => {
                tokens.push(Token::Percent);
                i += 1;
            }
            '=' => {
                tokens.push(Token::Eq);
                i += 1;
            }
            '!' if bytes.get(i + 1) == Some(&b'=') => {
                tokens.push(Token::NotEq);
                i += 2;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::LtEq);
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'>') {
                    tokens.push(Token::NotEq);
                    i += 2;
                } else {
                    tokens.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::GtEq);
                    i += 2;
                } else {
                    tokens.push(Token::Gt);
                    i += 1;
                }
            }
            '\'' => {
                let mut s = String::new();
                i += 1;
                loop {
                    // Decode chars, not bytes: multi-byte UTF-8 must survive.
                    match input[i..].chars().next() {
                        None => return Err(DbError::Parse("unterminated string literal".into())),
                        Some('\'') if input[i + 1..].starts_with('\'') => {
                            s.push('\'');
                            i += 2;
                        }
                        Some('\'') => {
                            i += 1;
                            break;
                        }
                        Some(ch) => {
                            s.push(ch);
                            i += ch.len_utf8();
                        }
                    }
                }
                tokens.push(Token::Str(s));
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let mut is_float = false;
                if i < bytes.len()
                    && bytes[i] == b'.'
                    && i + 1 < bytes.len()
                    && (bytes[i + 1] as char).is_ascii_digit()
                {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    let mut j = i + 1;
                    if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                        j += 1;
                    }
                    if j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                        is_float = true;
                        i = j;
                        while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let text = &input[start..i];
                if is_float {
                    tokens.push(Token::Float(
                        text.parse()
                            .map_err(|_| DbError::Parse(format!("bad float literal {text:?}")))?,
                    ));
                } else {
                    tokens.push(Token::Int(text.parse().map_err(|_| {
                        DbError::Parse(format!("integer literal {text:?} out of range"))
                    })?));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let len = word_len(&bytes[i..]);
                tokens.push(Token::Word(input[i..i + len].to_string()));
                i += len;
            }
            other => return Err(DbError::Parse(format!("unexpected character {other:?}"))),
        }
        i = skip_trivia(bytes, i);
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_statement() {
        let toks = lex("SELECT id, name FROM t WHERE x >= 1.5 AND y <> 'it''s'").unwrap();
        assert!(toks.contains(&Token::Word("SELECT".into())));
        assert!(toks.contains(&Token::GtEq));
        assert!(toks.contains(&Token::Float(1.5)));
        assert!(toks.contains(&Token::NotEq));
        assert!(toks.contains(&Token::Str("it's".into())));
    }

    #[test]
    fn numbers() {
        assert_eq!(lex("42").unwrap(), vec![Token::Int(42)]);
        assert_eq!(lex("4.25").unwrap(), vec![Token::Float(4.25)]);
        assert_eq!(lex("1e3").unwrap(), vec![Token::Float(1000.0)]);
        assert_eq!(lex("2E-2").unwrap(), vec![Token::Float(0.02)]);
        // A trailing dot is member access, not a float.
        assert_eq!(lex("1.x").unwrap().len(), 3);
    }

    #[test]
    fn comments_and_whitespace() {
        let toks = lex("SELECT -- the projection\n  1").unwrap();
        assert_eq!(toks, vec![Token::Word("SELECT".into()), Token::Int(1)]);
        // A comment ends a token with no space before it; a lone `-` does not.
        let toks = lex("-- lead\nx--tail\n- 1").unwrap();
        assert_eq!(toks, vec![Token::Word("x".into()), Token::Minus, Token::Int(1)]);
    }

    #[test]
    fn operators() {
        let toks = lex("= != <> < <= > >= + - * / %").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Eq,
                Token::NotEq,
                Token::NotEq,
                Token::Lt,
                Token::LtEq,
                Token::Gt,
                Token::GtEq,
                Token::Plus,
                Token::Minus,
                Token::Star,
                Token::Slash,
                Token::Percent,
            ]
        );
    }

    #[test]
    fn errors() {
        assert!(lex("'unterminated").is_err());
        assert!(lex("@").is_err());
        assert!(lex("a ! b").is_err());
        assert!(lex("99999999999999999999999").is_err());
    }

    #[test]
    fn unicode_string_literals() {
        assert_eq!(lex("'héllo'").unwrap(), vec![Token::Str("héllo".into())]);
        assert_eq!(lex("'αβ''γ'").unwrap(), vec![Token::Str("αβ'γ".into())]);
        assert_eq!(lex("'🧬'").unwrap(), vec![Token::Str("🧬".into())]);
        assert!(lex("'é").is_err());
    }

    #[test]
    fn keyword_check_case_insensitive() {
        let toks = lex("select").unwrap();
        assert!(toks[0].is_kw("SELECT"));
        assert!(!toks[0].is_kw("FROM"));
    }
}
