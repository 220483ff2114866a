//! The SQL front-end: lexer, abstract syntax tree, and parser.
//!
//! The supported dialect covers what the paper needs the Unifying Database
//! to express (§6.3): `SELECT` with joins, `WHERE`, `GROUP BY`, `HAVING`,
//! `ORDER BY`, `LIMIT`, `DISTINCT`; `INSERT`/`UPDATE`/`DELETE`; DDL for
//! tables, secondary indexes, and user spaces; transactions; `EXPLAIN` —
//! and crucially, *user-defined operators callable wherever expressions
//! occur*, which is how the Genomics Algebra enters the language.

pub mod ast;
pub mod lexer;
pub mod parser;

pub use ast::{Expr, FromClause, Join, JoinKind, Projection, SelectStmt, Stmt, TableRef};
pub use lexer::{lex, render, Token};
pub use parser::{parse, parse_tokens, statement_kind, StmtKind};
