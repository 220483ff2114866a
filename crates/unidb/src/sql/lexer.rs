//! SQL tokenizer.

use crate::error::{DbError, DbResult};
use std::fmt::{self, Write};

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

    /// A punctuation token's text; empty for words and literals.
    fn symbol(&self) -> &'static str {
        match self {
            Token::Word(_) | Token::Int(_) | Token::Float(_) | Token::Str(_) => "",
            Token::Comma => ",",
            Token::LParen => "(",
            Token::RParen => ")",
            Token::Dot => ".",
            Token::Star => "*",
            Token::Semicolon => ";",
            Token::Eq => "=",
            Token::NotEq => "<>",
            Token::Lt => "<",
            Token::LtEq => "<=",
            Token::Gt => ">",
            Token::GtEq => ">=",
            Token::Plus => "+",
            Token::Minus => "-",
            Token::Slash => "/",
            Token::Percent => "%",
        }
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Word(w) => write!(f, "{w}"),
            Token::Int(i) => write!(f, "{i}"),
            Token::Float(x) => write!(f, "{x}"),
            Token::Str(s) => write!(f, "'{s}'"),
            punct => f.write_str(punct.symbol()),
        }
    }
}

/// Words that terminate expressions/aliases and may not be identifiers.
const RESERVED: &[&str] = &[
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT", "OFFSET", "AS", "JOIN",
    "INNER", "LEFT", "OUTER", "CROSS", "ON", "AND", "OR", "NOT", "SET", "VALUES", "ASC", "DESC",
    "IS", "IN", "BETWEEN", "LIKE", "ESCAPE", "DISTINCT", "INSERT", "INTO", "UPDATE", "DELETE",
    "CREATE", "DROP", "TABLE", "INDEX", "UNIQUE", "SPACE", "NULL", "TRUE", "FALSE", "BEGIN",
    "COMMIT", "ROLLBACK", "EXPLAIN",
];

pub(crate) fn is_reserved(word: &str) -> bool {
    RESERVED.iter().any(|r| word.eq_ignore_ascii_case(r))
}

/// Render a statement's tokens twice in one walk: as its cache key, and as
/// its fingerprint (the key with every literal replaced by `?`). Words are
/// lower-cased, trailing semicolons dropped, and tokens single-spaced except
/// around `.`, inside parentheses, before `,` and between a function name
/// and its `(` — so `SELECT  Name FROM public.genes WHERE id=2;` renders
/// `select name from public.genes where id = 2`. Literals keep their type in
/// the key (`1`, `1.0` and `'1'` differ) and lexing a key gives back its
/// tokens, so two token streams never share a key.
pub fn render(tokens: &[Token]) -> (String, String) {
    let end = tokens.iter().rposition(|t| *t != Token::Semicolon).map_or(0, |i| i + 1);
    let mut key = String::with_capacity(8 * end);
    let mut fingerprint = String::with_capacity(8 * end);
    let numeric = |t: &Token| matches!(t, Token::Int(_) | Token::Float(_));
    for (i, tok) in tokens[..end].iter().enumerate() {
        let glued = i == 0 || {
            let prev = &tokens[i - 1];
            matches!(tok, Token::Comma | Token::RParen)
                || *prev == Token::LParen
                || (*prev == Token::Dot && !numeric(tok))
                || (*tok == Token::Dot && !numeric(prev))
                || (*tok == Token::LParen && matches!(prev, Token::Word(w) if !is_reserved(w)))
        };
        if !glued {
            key.push(' ');
            fingerprint.push(' ');
        }
        let start = key.len();
        match tok {
            Token::Word(w) => {
                key.push_str(w);
                key[start..].make_ascii_lowercase();
            }
            Token::Int(i) => {
                let _ = write!(key, "{i}");
            }
            // `{:?}` keeps the point or exponent; an overflowed literal would
            // print as `inf`, which lexes as a word.
            Token::Float(x) if x.is_finite() => {
                let _ = write!(key, "{x:?}");
            }
            Token::Float(_) => key.push_str("1e999"),
            Token::Str(s) => {
                key.push('\'');
                for (i, part) in s.split('\'').enumerate() {
                    key.push_str(if i == 0 { "" } else { "''" });
                    key.push_str(part);
                }
                key.push('\'');
            }
            punct => key.push_str(punct.symbol()),
        }
        let literal = matches!(tok, Token::Int(_) | Token::Float(_) | Token::Str(_));
        fingerprint.push_str(if literal { "?" } else { &key[start..] });
    }
    (key, fingerprint)
}

/// The first byte at or after `i` that is neither whitespace nor part of a
/// `--` line comment: where the next token starts.
fn skip_trivia(bytes: &[u8], mut i: usize) -> usize {
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
                let len = bytes[i..]
                    .iter()
                    .take_while(|b| b.is_ascii_alphanumeric() || **b == b'_')
                    .count();
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

    fn fingerprint(sql: &str) -> String {
        render(&lex(sql).unwrap()).1
    }

    #[test]
    fn literals_collapse_but_identifiers_survive() {
        assert_eq!(fingerprint("select v from hot where k = 17"), "select v from hot where k = ?");
        assert_eq!(fingerprint("SELECT v FROM hot WHERE k=903;"), "select v from hot where k = ?");
        // Digits glued to identifiers are part of the name, not a literal.
        assert_eq!(fingerprint("select c1 from t2 where c1 = 5"), "select c1 from t2 where c1 = ?");
        // Strings (with '' escapes), floats, and exponents all collapse.
        assert_eq!(
            fingerprint("select * from t where name = 'o''brien' and x > 1.5e-3"),
            "select * from t where name = ? and x > ?"
        );
        assert_eq!(
            fingerprint("INSERT INTO t VALUES (1,'a') ,(2, 'b')"),
            "insert into t values (?, ?), (?, ?)"
        );
        assert_eq!(
            fingerprint("select count ( * ), contains(s, 'AC') from public . t -- it's hot"),
            "select count(*), contains(s, ?) from public.t"
        );
    }

    #[test]
    fn keys_keep_literal_types_and_lex_back_to_their_tokens() {
        let key = |sql: &str| render(&lex(sql).unwrap()).0;
        let twins = ["k = 1", "k = 1.0", "k = '1'", "k = NULL", "k = 'it''s'", "k = 'it'' s'"];
        let keys: Vec<String> = twins.iter().map(|t| key(t)).collect();
        for (i, a) in keys.iter().enumerate() {
            assert!(keys[i + 1..].iter().all(|b| a != b), "{a} is shared");
        }
        assert_eq!(key("SELECT 'MiXeD' -- it's\n ;;"), "select 'MiXeD'");
        for sql in [
            "SELECT a.b, f(1) , - -2, 1 . 5, 1.5, t.*, 'x''y' 'z' FROM t WHERE a <= 3e300 + 1e999",
            "select (1), x(y), in (1), a.1, 1.a, 7 . 8.5e-3 ; ; select",
        ] {
            let tokens = lex(sql).unwrap();
            let end = tokens.iter().rposition(|t| *t != Token::Semicolon).unwrap() + 1;
            let lower = |t: &Token| match t {
                Token::Word(w) => Token::Word(w.to_ascii_lowercase()),
                other => other.clone(),
            };
            let relexed = lex(&render(&tokens).0).unwrap();
            assert_eq!(relexed, tokens[..end].iter().map(lower).collect::<Vec<_>>(), "{sql}");
        }
    }
}
