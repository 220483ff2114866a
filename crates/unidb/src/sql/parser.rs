//! Recursive-descent SQL parser.
//!
//! # Operator precedence
//!
//! Expressions are parsed with one function per precedence level; the table
//! below lists them from loosest-binding to tightest-binding. Each level is
//! left-associative except where noted.
//!
//! | level | operators                                        | notes |
//! |-------|--------------------------------------------------|-------|
//! | 1     | `OR`                                             | left-assoc |
//! | 2     | `AND`                                            | left-assoc |
//! | 3     | `NOT`                                            | prefix; applies to the whole comparison below it, so `NOT a = 1` is `NOT (a = 1)` |
//! | 4     | `=` `<>` `!=` `<` `<=` `>` `>=`, `IS [NOT] NULL`, `[NOT] IN`, `[NOT] BETWEEN … AND …`, `[NOT] LIKE … [ESCAPE 'c']` | **non-associative**: `a = b = c` is a parse error, and a `BETWEEN`/`LIKE`/`IN` form cannot be chained with another comparison without parentheses |
//! | 5     | `+` `-` (binary)                                 | left-assoc; `BETWEEN` bounds parse at this level, so `a BETWEEN 1 AND 2 AND b` keeps the trailing `AND b` at level 2 |
//! | 6     | `*` `/` `%`                                      | left-assoc |
//! | 7     | `-` (unary)                                      | prefix; binds tighter than any binary operator: `-a * b` is `(-a) * b`, `-1 + 2` is `(-1) + 2` |
//! | 8     | literals, columns, `f(args)`, `( expr )`         | |

use crate::datum::Datum;
use crate::error::{DbError, DbResult};
use crate::index::BTREE;
use crate::sql::ast::*;
use crate::sql::lexer::{is_reserved, lex, Token};

/// Parse a single SQL statement.
pub fn parse(sql: &str) -> DbResult<Stmt> {
    parse_tokens(lex(sql)?)
}

/// Parse a single statement from tokens [`lex`] already produced.
pub fn parse_tokens(tokens: Vec<Token>) -> DbResult<Stmt> {
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.parse_stmt()?;
    p.eat_semicolons();
    if !p.at_end() {
        return Err(DbError::Parse(format!("unexpected trailing token {}", p.peek_display())));
    }
    Ok(stmt)
}

/// Parse a semicolon-separated script.
pub fn parse_many(sql: &str) -> DbResult<Vec<Stmt>> {
    let tokens = lex(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut stmts = Vec::new();
    loop {
        p.eat_semicolons();
        if p.at_end() {
            return Ok(stmts);
        }
        stmts.push(p.parse_stmt()?);
    }
}

/// What a statement is, as a front end routes it before parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StmtKind {
    Select,
    Explain,
    /// Anything else the engine runs: DML, DDL, and text that will not parse.
    Write,
    Begin,
    Commit,
    Rollback,
    /// The `SHOW` family, which a server answers itself.
    Show,
}

impl StmtKind {
    /// `SELECT` and `EXPLAIN` only read.
    pub fn is_read(self) -> bool {
        matches!(self, StmtKind::Select | StmtKind::Explain)
    }
}

/// Classify a statement by its first token; keyword case is ignored.
/// `BEGIN`, `COMMIT` and `ROLLBACK` count only when nothing but semicolons
/// follows them — followed by anything else they are a `Write` the parser
/// will reject.
pub fn statement_kind(tokens: &[Token]) -> StmtKind {
    let Some((Token::Word(word), rest)) = tokens.split_first() else { return StmtKind::Write };
    let alone = rest.iter().all(|t| *t == Token::Semicolon);
    match word.to_ascii_uppercase().as_str() {
        "SELECT" => StmtKind::Select,
        "EXPLAIN" => StmtKind::Explain,
        "SHOW" => StmtKind::Show,
        "BEGIN" if alone => StmtKind::Begin,
        "COMMIT" if alone => StmtKind::Commit,
        "ROLLBACK" if alone => StmtKind::Rollback,
        _ => StmtKind::Write,
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_display(&self) -> String {
        self.peek().map_or("end of input".into(), |t| format!("{t}"))
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> DbResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(DbError::Parse(format!("expected {kw}, found {}", self.peek_display())))
        }
    }

    fn eat_tok(&mut self, tok: &Token) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_tok(&mut self, tok: &Token) -> DbResult<()> {
        if self.eat_tok(tok) {
            Ok(())
        } else {
            Err(DbError::Parse(format!("expected {tok}, found {}", self.peek_display())))
        }
    }

    fn eat_semicolons(&mut self) {
        while self.eat_tok(&Token::Semicolon) {}
    }

    /// A non-reserved identifier.
    fn ident(&mut self) -> DbResult<String> {
        match self.peek() {
            Some(Token::Word(w)) if !is_reserved(w) => {
                let w = w.clone();
                self.pos += 1;
                Ok(w)
            }
            _ => Err(DbError::Parse(format!("expected identifier, found {}", self.peek_display()))),
        }
    }

    /// A possibly qualified table name (`t` or `space.t`).
    fn table_name(&mut self) -> DbResult<String> {
        let mut name = self.ident()?;
        if self.eat_tok(&Token::Dot) {
            name.push('.');
            name.push_str(&self.ident()?);
        }
        Ok(name)
    }

    fn parse_stmt(&mut self) -> DbResult<Stmt> {
        if self.eat_kw("EXPLAIN") {
            // ANALYZE is contextual (valid only right after EXPLAIN), not
            // reserved — `analyze` stays usable as an identifier.
            let analyze = self.eat_kw("ANALYZE");
            return Ok(Stmt::Explain { stmt: Box::new(self.parse_stmt()?), analyze });
        }
        if self.peek().is_some_and(|t| t.is_kw("SELECT")) {
            return Ok(Stmt::Select(self.parse_select()?));
        }
        if self.eat_kw("INSERT") {
            return self.parse_insert();
        }
        if self.eat_kw("UPDATE") {
            return self.parse_update();
        }
        if self.eat_kw("DELETE") {
            self.expect_kw("FROM")?;
            let table = self.table_name()?;
            let filter = if self.eat_kw("WHERE") { Some(self.parse_expr()?) } else { None };
            return Ok(Stmt::Delete { table, filter });
        }
        if self.eat_kw("CREATE") {
            return self.parse_create();
        }
        if self.eat_kw("DROP") {
            self.expect_kw("TABLE")?;
            return Ok(Stmt::DropTable { table: self.table_name()? });
        }
        if self.eat_kw("BEGIN") {
            return Ok(Stmt::Begin);
        }
        if self.eat_kw("COMMIT") {
            return Ok(Stmt::Commit);
        }
        if self.eat_kw("ROLLBACK") {
            return Ok(Stmt::Rollback);
        }
        Err(DbError::Parse(format!("unexpected {}", self.peek_display())))
    }

    fn parse_create(&mut self) -> DbResult<Stmt> {
        if self.eat_kw("TABLE") {
            let table = self.table_name()?;
            self.expect_tok(&Token::LParen)?;
            let mut columns = Vec::new();
            loop {
                let name = self.ident()?;
                let ty = match self.advance() {
                    Some(Token::Word(w)) => w,
                    other => {
                        return Err(DbError::Parse(format!(
                            "expected a type name, found {}",
                            other.map_or("end of input".into(), |t| format!("{t}"))
                        )))
                    }
                };
                let mut nullable = true;
                if self.eat_kw("NOT") {
                    self.expect_kw("NULL")?;
                    nullable = false;
                } else {
                    let _ = self.eat_kw("NULL");
                }
                columns.push((name, ty, nullable));
                if !self.eat_tok(&Token::Comma) {
                    break;
                }
            }
            self.expect_tok(&Token::RParen)?;
            return Ok(Stmt::CreateTable { table, columns });
        }
        if self.eat_kw("SPACE") {
            return Ok(Stmt::CreateSpace { name: self.ident()? });
        }
        let mut params = Vec::new();
        if self.eat_kw("UNIQUE") {
            params.push(("unique".to_string(), Datum::Bool(true)));
        }
        self.expect_kw("INDEX")?;
        self.expect_kw("ON")?;
        let table = self.table_name()?;
        let kind = if self.eat_kw("USING") { self.ident()? } else { BTREE.to_string() };
        self.expect_tok(&Token::LParen)?;
        let column = self.ident()?;
        self.expect_tok(&Token::RParen)?;
        if self.eat_kw("WITH") {
            self.expect_tok(&Token::LParen)?;
            loop {
                let name = self.ident()?.to_ascii_lowercase();
                self.expect_tok(&Token::Eq)?;
                let not_literal =
                    || DbError::Parse(format!("index parameter {name} is no literal"));
                let value = match self.parse_unary()? {
                    Expr::Literal(d) => d,
                    Expr::Unary { op: UnaryOp::Neg, expr } => match *expr {
                        Expr::Literal(Datum::Int(i)) => Datum::Int(i.wrapping_neg()),
                        Expr::Literal(Datum::Float(x)) => Datum::Float(-x),
                        _ => return Err(not_literal()),
                    },
                    _ => return Err(not_literal()),
                };
                params.push((name, value));
                if !self.eat_tok(&Token::Comma) {
                    break;
                }
            }
            self.expect_tok(&Token::RParen)?;
        }
        Ok(Stmt::CreateIndex { table, column, kind, params })
    }

    fn parse_insert(&mut self) -> DbResult<Stmt> {
        self.expect_kw("INTO")?;
        let table = self.table_name()?;
        let columns = if self.eat_tok(&Token::LParen) {
            let mut cols = vec![self.ident()?];
            while self.eat_tok(&Token::Comma) {
                cols.push(self.ident()?);
            }
            self.expect_tok(&Token::RParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_tok(&Token::LParen)?;
            let mut row = vec![self.parse_expr()?];
            while self.eat_tok(&Token::Comma) {
                row.push(self.parse_expr()?);
            }
            self.expect_tok(&Token::RParen)?;
            rows.push(row);
            if !self.eat_tok(&Token::Comma) {
                break;
            }
        }
        Ok(Stmt::Insert { table, columns, rows })
    }

    fn parse_update(&mut self) -> DbResult<Stmt> {
        let table = self.table_name()?;
        self.expect_kw("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_tok(&Token::Eq)?;
            assignments.push((col, self.parse_expr()?));
            if !self.eat_tok(&Token::Comma) {
                break;
            }
        }
        let filter = if self.eat_kw("WHERE") { Some(self.parse_expr()?) } else { None };
        Ok(Stmt::Update { table, assignments, filter })
    }

    fn parse_select(&mut self) -> DbResult<SelectStmt> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        let mut projections = vec![self.parse_projection()?];
        while self.eat_tok(&Token::Comma) {
            projections.push(self.parse_projection()?);
        }
        let from = if self.eat_kw("FROM") { Some(self.parse_from()?) } else { None };
        let filter = if self.eat_kw("WHERE") { Some(self.parse_expr()?) } else { None };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            group_by.push(self.parse_expr()?);
            while self.eat_tok(&Token::Comma) {
                group_by.push(self.parse_expr()?);
            }
        }
        let having = if self.eat_kw("HAVING") { Some(self.parse_expr()?) } else { None };
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.parse_expr()?;
                let asc = if self.eat_kw("DESC") {
                    false
                } else {
                    let _ = self.eat_kw("ASC");
                    true
                };
                order_by.push((expr, asc));
                if !self.eat_tok(&Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("LIMIT") { Some(self.nonneg_int("LIMIT")?) } else { None };
        let offset = if self.eat_kw("OFFSET") { Some(self.nonneg_int("OFFSET")?) } else { None };
        Ok(SelectStmt {
            distinct,
            projections,
            from,
            filter,
            group_by,
            having,
            order_by,
            limit,
            offset,
        })
    }

    fn nonneg_int(&mut self, clause: &str) -> DbResult<u64> {
        match self.advance() {
            Some(Token::Int(n)) if n >= 0 => Ok(n as u64),
            other => Err(DbError::Parse(format!(
                "{clause} expects a non-negative integer, found {}",
                other.map_or("end of input".into(), |t| format!("{t}"))
            ))),
        }
    }

    fn parse_projection(&mut self) -> DbResult<Projection> {
        if self.eat_tok(&Token::Star) {
            return Ok(Projection::Star);
        }
        let expr = self.parse_expr()?;
        let aliasable =
            self.eat_kw("AS") || matches!(self.peek(), Some(Token::Word(w)) if !is_reserved(w));
        let alias = if aliasable { Some(self.ident()?) } else { None };
        Ok(Projection::Expr { expr, alias })
    }

    fn parse_from(&mut self) -> DbResult<FromClause> {
        let base = self.parse_table_ref()?;
        let mut joins = Vec::new();
        loop {
            if self.eat_tok(&Token::Comma) {
                joins.push(Join {
                    kind: JoinKind::Cross,
                    table: self.parse_table_ref()?,
                    on: None,
                });
            } else if self.eat_kw("CROSS") {
                self.expect_kw("JOIN")?;
                joins.push(Join {
                    kind: JoinKind::Cross,
                    table: self.parse_table_ref()?,
                    on: None,
                });
            } else if self
                .peek()
                .is_some_and(|t| t.is_kw("JOIN") || t.is_kw("INNER") || t.is_kw("LEFT"))
            {
                let kind = if self.eat_kw("LEFT") {
                    let _ = self.eat_kw("OUTER");
                    JoinKind::Left
                } else {
                    let _ = self.eat_kw("INNER");
                    JoinKind::Inner
                };
                self.expect_kw("JOIN")?;
                let table = self.parse_table_ref()?;
                self.expect_kw("ON")?;
                let on = Some(self.parse_expr()?);
                joins.push(Join { kind, table, on });
            } else {
                break;
            }
        }
        Ok(FromClause { base, joins })
    }

    fn parse_table_ref(&mut self) -> DbResult<TableRef> {
        let name = self.table_name()?;
        let aliasable =
            self.eat_kw("AS") || matches!(self.peek(), Some(Token::Word(w)) if !is_reserved(w));
        let alias = if aliasable { Some(self.ident()?) } else { None };
        Ok(TableRef { name, alias })
    }

    // -- expressions -----------------------------------------------------

    fn parse_expr(&mut self) -> DbResult<Expr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> DbResult<Expr> {
        let mut left = self.parse_and()?;
        while self.eat_kw("OR") {
            let right = self.parse_and()?;
            left = Expr::Binary { op: BinOp::Or, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> DbResult<Expr> {
        let mut left = self.parse_not()?;
        while self.eat_kw("AND") {
            let right = self.parse_not()?;
            left = Expr::Binary { op: BinOp::And, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> DbResult<Expr> {
        if self.eat_kw("NOT") {
            let inner = self.parse_not()?;
            return Ok(Expr::Unary { op: UnaryOp::Not, expr: Box::new(inner) });
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> DbResult<Expr> {
        let left = self.parse_additive()?;
        // IS [NOT] NULL
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull { expr: Box::new(left), negated });
        }
        // [NOT] IN / BETWEEN / LIKE
        let negated = self.eat_kw("NOT");
        if self.eat_kw("IN") {
            self.expect_tok(&Token::LParen)?;
            let mut list = vec![self.parse_expr()?];
            while self.eat_tok(&Token::Comma) {
                list.push(self.parse_expr()?);
            }
            self.expect_tok(&Token::RParen)?;
            return Ok(Expr::InList { expr: Box::new(left), list, negated });
        }
        if self.eat_kw("BETWEEN") {
            let low = self.parse_additive()?;
            self.expect_kw("AND")?;
            let high = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_kw("LIKE") {
            let pattern = self.parse_additive()?;
            let escape = if self.eat_kw("ESCAPE") {
                match self.advance() {
                    Some(Token::Str(s)) if s.chars().count() == 1 => s.chars().next(),
                    other => {
                        return Err(DbError::Parse(format!(
                            "ESCAPE expects a single-character string, found {}",
                            other.map_or("end of input".into(), |t| format!("{t}"))
                        )))
                    }
                }
            } else {
                None
            };
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated,
                escape,
            });
        }
        if negated {
            return Err(DbError::Parse("NOT must be followed by IN, BETWEEN, or LIKE here".into()));
        }
        let op = match self.peek() {
            Some(Token::Eq) => Some(BinOp::Eq),
            Some(Token::NotEq) => Some(BinOp::NotEq),
            Some(Token::Lt) => Some(BinOp::Lt),
            Some(Token::LtEq) => Some(BinOp::LtEq),
            Some(Token::Gt) => Some(BinOp::Gt),
            Some(Token::GtEq) => Some(BinOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.parse_additive()?;
            return Ok(Expr::Binary { op, left: Box::new(left), right: Box::new(right) });
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> DbResult<Expr> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let right = self.parse_multiplicative()?;
            left = Expr::Binary { op, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> DbResult<Expr> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                Some(Token::Percent) => BinOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let right = self.parse_unary()?;
            left = Expr::Binary { op, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> DbResult<Expr> {
        if self.eat_tok(&Token::Minus) {
            let inner = self.parse_unary()?;
            return Ok(Expr::Unary { op: UnaryOp::Neg, expr: Box::new(inner) });
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> DbResult<Expr> {
        match self.peek().cloned() {
            Some(Token::Int(i)) => {
                self.pos += 1;
                Ok(Expr::Literal(Datum::Int(i)))
            }
            Some(Token::Float(x)) => {
                self.pos += 1;
                Ok(Expr::Literal(Datum::Float(x)))
            }
            Some(Token::Str(s)) => {
                self.pos += 1;
                Ok(Expr::Literal(Datum::Text(s)))
            }
            Some(Token::LParen) => {
                self.pos += 1;
                let e = self.parse_expr()?;
                self.expect_tok(&Token::RParen)?;
                Ok(e)
            }
            Some(Token::Word(w)) => {
                if w.eq_ignore_ascii_case("NULL") {
                    self.pos += 1;
                    return Ok(Expr::Literal(Datum::Null));
                }
                if w.eq_ignore_ascii_case("TRUE") {
                    self.pos += 1;
                    return Ok(Expr::Literal(Datum::Bool(true)));
                }
                if w.eq_ignore_ascii_case("FALSE") {
                    self.pos += 1;
                    return Ok(Expr::Literal(Datum::Bool(false)));
                }
                if is_reserved(&w) {
                    return Err(DbError::Parse(format!("unexpected keyword {w}")));
                }
                self.pos += 1;
                // Function call?
                if self.peek() == Some(&Token::LParen) {
                    self.pos += 1;
                    let distinct = self.eat_kw("DISTINCT");
                    let mut args = Vec::new();
                    if self.peek() != Some(&Token::RParen) {
                        if self.eat_tok(&Token::Star) {
                            args.push(Expr::Wildcard);
                        } else {
                            args.push(self.parse_expr()?);
                            while self.eat_tok(&Token::Comma) {
                                args.push(self.parse_expr()?);
                            }
                        }
                    }
                    self.expect_tok(&Token::RParen)?;
                    return Ok(Expr::Func { name: w.to_ascii_lowercase(), args, distinct });
                }
                // Qualified column?
                if self.eat_tok(&Token::Dot) {
                    let col = self.ident()?;
                    return Ok(Expr::Column { table: Some(w), name: col });
                }
                Ok(Expr::Column { table: None, name: w })
            }
            other => Err(DbError::Parse(format!(
                "expected an expression, found {}",
                other.map_or("end of input".into(), |t| format!("{t}"))
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_flagship_query() {
        // §6.3's example, verbatim modulo the string literal.
        let stmt =
            parse("SELECT id FROM DNAFragments WHERE contains(fragment, 'ATTGCCATA')").unwrap();
        let Stmt::Select(s) = stmt else { panic!("not a select") };
        assert_eq!(s.projections.len(), 1);
        assert_eq!(s.from.unwrap().base.name, "DNAFragments");
        let Some(Expr::Func { name, args, .. }) = s.filter else { panic!("no func filter") };
        assert_eq!(name, "contains");
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn full_select_clauses() {
        let stmt = parse(
            "SELECT DISTINCT g.id, count(*) AS n FROM genes g \
             INNER JOIN proteins p ON g.id = p.gene_id \
             WHERE g.len > 100 AND p.name LIKE 'kin%' \
             GROUP BY g.id HAVING count(*) >= 2 \
             ORDER BY n DESC, g.id LIMIT 10",
        )
        .unwrap();
        let Stmt::Select(s) = stmt else { panic!() };
        assert!(s.distinct);
        assert_eq!(s.projections.len(), 2);
        let from = s.from.unwrap();
        assert_eq!(from.joins.len(), 1);
        assert_eq!(from.joins[0].kind, JoinKind::Inner);
        assert!(s.filter.is_some());
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert_eq!(s.order_by.len(), 2);
        assert!(!s.order_by[0].1, "DESC");
        assert!(s.order_by[1].1, "implicit ASC");
        assert_eq!(s.limit, Some(10));
    }

    #[test]
    fn joins_variants() {
        let s = parse("SELECT * FROM a, b CROSS JOIN c LEFT JOIN d ON a.x = d.x").unwrap();
        let Stmt::Select(sel) = s else { panic!() };
        let from = sel.from.unwrap();
        assert_eq!(from.joins.len(), 3);
        assert_eq!(from.joins[0].kind, JoinKind::Cross);
        assert_eq!(from.joins[1].kind, JoinKind::Cross);
        assert_eq!(from.joins[2].kind, JoinKind::Left);
    }

    #[test]
    fn insert_forms() {
        let s = parse("INSERT INTO t VALUES (1, 'a'), (2, 'b')").unwrap();
        let Stmt::Insert { columns, rows, .. } = s else { panic!() };
        assert!(columns.is_none());
        assert_eq!(rows.len(), 2);
        let s = parse("INSERT INTO t (id, name) VALUES (1, upper('x'))").unwrap();
        let Stmt::Insert { columns, .. } = s else { panic!() };
        assert_eq!(columns.unwrap(), vec!["id", "name"]);
    }

    #[test]
    fn update_delete() {
        let s = parse("UPDATE t SET a = a + 1, b = 'x' WHERE id = 3").unwrap();
        let Stmt::Update { assignments, filter, .. } = s else { panic!() };
        assert_eq!(assignments.len(), 2);
        assert!(filter.is_some());
        let s = parse("DELETE FROM t").unwrap();
        assert!(matches!(s, Stmt::Delete { filter: None, .. }));
    }

    #[test]
    fn ddl() {
        let s =
            parse("CREATE TABLE public.genes (id INT NOT NULL, seq dna, note TEXT NULL)").unwrap();
        let Stmt::CreateTable { table, columns } = s else { panic!() };
        assert_eq!(table, "public.genes");
        assert_eq!(columns.len(), 3);
        assert!(!columns[0].2);
        assert!(columns[1].2);
        assert_eq!(columns[1].1, "dna");

        assert!(matches!(parse("DROP TABLE t").unwrap(), Stmt::DropTable { .. }));
        let s = parse("CREATE UNIQUE INDEX ON t (id)").unwrap();
        let unique = vec![("unique".to_string(), Datum::Bool(true))];
        assert!(
            matches!(&s, Stmt::CreateIndex { kind, params, .. } if kind == "btree" && *params == unique)
        );
        let s = parse("CREATE INDEX ON t USING kmer (seq) WITH (K = 8, note = 'x', shift = -2)")
            .unwrap();
        let Stmt::CreateIndex { table, column, kind, params } = s else { panic!() };
        assert_eq!((table.as_str(), column.as_str(), kind.as_str()), ("t", "seq", "kmer"));
        assert_eq!(
            params,
            vec![
                ("k".to_string(), Datum::Int(8)),
                ("note".to_string(), Datum::Text("x".into())),
                ("shift".to_string(), Datum::Int(-2)),
            ]
        );
        assert!(parse("CREATE INDEX ON t USING kmer (seq) WITH (k = seq)").is_err());
        assert!(matches!(parse("CREATE SPACE lab").unwrap(), Stmt::CreateSpace { .. }));
    }

    #[test]
    fn transactions_and_explain() {
        assert_eq!(parse("BEGIN").unwrap(), Stmt::Begin);
        assert_eq!(parse("COMMIT;").unwrap(), Stmt::Commit);
        assert_eq!(parse("ROLLBACK").unwrap(), Stmt::Rollback);
        for (sql, kind) in [
            ("BEGIN -- x", StmtKind::Begin),
            ("-- y\n  commit ;;", StmtKind::Commit),
            (" RollBack;", StmtKind::Rollback),
            ("-- begin\nSELECT 1", StmtKind::Select),
            ("select*from t", StmtKind::Select),
            ("\t-- a\n-- b\n explain SELECT 1", StmtKind::Explain),
            ("SHOW STATS -- x", StmtKind::Show),
            ("BEGIN x", StmtKind::Write),
            ("COMMIT; ROLLBACK", StmtKind::Write),
            ("beginning", StmtKind::Write),
            ("selected", StmtKind::Write),
            ("-- SELECT\nDELETE FROM t", StmtKind::Write),
            ("", StmtKind::Write),
            ("-- only a comment", StmtKind::Write),
            ("(SELECT 1)", StmtKind::Write),
            (" -- user's query\n SELECT 'x' -- y", StmtKind::Select),
        ] {
            assert_eq!(statement_kind(&lex(sql).unwrap()), kind, "{sql:?}");
        }
        assert!(StmtKind::Explain.is_read() && !StmtKind::Show.is_read());
        let s = parse("EXPLAIN SELECT 1").unwrap();
        assert!(matches!(s, Stmt::Explain { analyze: false, .. }));
        let s = parse("EXPLAIN ANALYZE SELECT 1").unwrap();
        assert!(matches!(s, Stmt::Explain { analyze: true, .. }));
        // ANALYZE is contextual, not reserved: still fine as a column name.
        assert!(parse("SELECT analyze FROM t").is_ok());
    }

    #[test]
    fn expression_precedence() {
        let s = parse("SELECT 1 + 2 * 3").unwrap();
        let Stmt::Select(sel) = s else { panic!() };
        let Projection::Expr { expr, .. } = &sel.projections[0] else { panic!() };
        // 1 + (2 * 3)
        assert_eq!(expr.render(), "(1 + (2 * 3))");

        let s = parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3").unwrap();
        let Stmt::Select(sel) = s else { panic!() };
        // OR is the outermost operator.
        assert_eq!(sel.filter.unwrap().render(), "((a = 1) OR ((b = 2) AND (c = 3)))");
    }

    #[test]
    fn special_predicates() {
        let s = parse("SELECT * FROM t WHERE a IS NOT NULL AND b IN (1,2) AND c NOT BETWEEN 1 AND 5 AND d NOT LIKE 'x%'").unwrap();
        let Stmt::Select(sel) = s else { panic!() };
        let factors = sel.filter.unwrap().conjuncts();
        assert_eq!(factors.len(), 4);
        assert!(matches!(factors[0], Expr::IsNull { negated: true, .. }));
        assert!(matches!(factors[1], Expr::InList { negated: false, .. }));
        assert!(matches!(factors[2], Expr::Between { negated: true, .. }));
        assert!(matches!(factors[3], Expr::Like { negated: true, .. }));
    }

    #[test]
    fn count_star_and_distinct_agg() {
        let s = parse("SELECT count(*), sum(DISTINCT x) FROM t").unwrap();
        let Stmt::Select(sel) = s else { panic!() };
        let Projection::Expr { expr: Expr::Func { name, args, .. }, .. } = &sel.projections[0]
        else {
            panic!()
        };
        assert_eq!(name, "count");
        assert_eq!(args, &[Expr::Wildcard]);
        let Projection::Expr { expr: Expr::Func { distinct, .. }, .. } = &sel.projections[1] else {
            panic!()
        };
        assert!(*distinct);
    }

    #[test]
    fn select_without_from() {
        let s = parse("SELECT 1 + 1 AS two").unwrap();
        let Stmt::Select(sel) = s else { panic!() };
        assert!(sel.from.is_none());
        let Projection::Expr { alias, .. } = &sel.projections[0] else { panic!() };
        assert_eq!(alias.as_deref(), Some("two"));
    }

    #[test]
    fn parse_errors() {
        assert!(parse("SELECT FROM").is_err());
        assert!(parse("SELEKT 1").is_err());
        assert!(parse("SELECT 1 extra garbage ,").is_err());
        assert!(parse("INSERT INTO t VALUES").is_err());
        assert!(parse("SELECT * FROM t LIMIT 'x'").is_err());
        assert!(parse("SELECT * FROM t WHERE a NOT = 1").is_err());
    }

    #[test]
    fn parse_many_script() {
        let stmts = parse_many("CREATE TABLE t (a INT); INSERT INTO t VALUES (1);;").unwrap();
        assert_eq!(stmts.len(), 2);
    }

    #[test]
    fn negative_numbers_and_unary() {
        let s = parse("SELECT -3, -(1 + 2)").unwrap();
        let Stmt::Select(sel) = s else { panic!() };
        assert_eq!(sel.projections.len(), 2);
    }

    /// Golden parses pinning the precedence table in the module doc: each
    /// input must render to exactly the parenthesization documented there.
    #[test]
    fn golden_precedence_renders() {
        let golden: &[(&str, &str)] = &[
            // NOT applies to the whole comparison, not just the left operand.
            ("NOT a = 1", "NOT (a = 1)"),
            ("NOT a LIKE 'x%'", "NOT a LIKE 'x%'"),
            ("NOT a = 1 OR b = 2", "(NOT (a = 1) OR (b = 2))"),
            ("NOT NOT a", "NOT NOT a"),
            // Unary minus binds tighter than every binary operator, on
            // literals and columns alike.
            ("-a * b", "((-a) * b)"),
            ("-1 + 2", "((-1) + 2)"),
            ("2 - -3", "(2 - (-3))"),
            ("-a.b + c", "((-a.b) + c)"),
            // BETWEEN bounds parse at the additive level, so a trailing AND
            // belongs to the conjunction, and arithmetic stays inside.
            ("a BETWEEN 1 + 1 AND 2 * 3 AND b", "(a BETWEEN (1 + 1) AND (2 * 3) AND b)"),
            ("a NOT BETWEEN -1 AND c - 1", "a NOT BETWEEN (-1) AND (c - 1)"),
            // AND binds tighter than OR.
            ("a OR b AND c", "(a OR (b AND c))"),
            // Comparison chains with arithmetic on both sides.
            ("a + 1 < b * 2", "((a + 1) < (b * 2))"),
            // != is an alias for <>.
            ("a != 1", "(a <> 1)"),
            // LIKE with an escape clause round-trips through render().
            ("a LIKE '100\\%' ESCAPE '\\'", "a LIKE '100\\%' ESCAPE '\\'"),
        ];
        for (input, want) in golden {
            let s = parse(&format!("SELECT * FROM t WHERE {input}")).unwrap();
            let Stmt::Select(sel) = s else { panic!() };
            assert_eq!(&sel.filter.unwrap().render(), want, "input: {input}");
        }
    }

    /// Comparisons are non-associative: chaining them without parentheses
    /// is a parse error rather than a silent left-fold.
    #[test]
    fn comparison_non_associative() {
        assert!(parse("SELECT * FROM t WHERE a = b = c").is_err());
        assert!(parse("SELECT * FROM t WHERE a < b < c").is_err());
        assert!(parse("SELECT * FROM t WHERE a BETWEEN 1 AND 2 BETWEEN 3 AND 4").is_err());
        // ...but explicit parentheses make the intent parseable.
        assert!(parse("SELECT * FROM t WHERE (a = b) = c").is_ok());
    }

    #[test]
    fn limit_offset() {
        let s = parse("SELECT * FROM t ORDER BY a LIMIT 10 OFFSET 5").unwrap();
        let Stmt::Select(sel) = s else { panic!() };
        assert_eq!(sel.limit, Some(10));
        assert_eq!(sel.offset, Some(5));
        let s = parse("SELECT * FROM t LIMIT 3").unwrap();
        let Stmt::Select(sel) = s else { panic!() };
        assert_eq!(sel.offset, None);
        assert!(parse("SELECT * FROM t OFFSET 2").unwrap() != Stmt::Begin); // OFFSET without LIMIT parses
        assert!(parse("SELECT * FROM t LIMIT 10 OFFSET 'x'").is_err());
        assert!(parse("SELECT * FROM t LIMIT 10 OFFSET -1").is_err());
    }

    #[test]
    fn like_escape_clause() {
        let s = parse("SELECT * FROM t WHERE a LIKE 'x#%%' ESCAPE '#'").unwrap();
        let Stmt::Select(sel) = s else { panic!() };
        let Some(Expr::Like { escape, negated, .. }) = sel.filter else { panic!() };
        assert_eq!(escape, Some('#'));
        assert!(!negated);
        // ESCAPE requires a single-character string literal.
        assert!(parse("SELECT * FROM t WHERE a LIKE 'x' ESCAPE 'ab'").is_err());
        assert!(parse("SELECT * FROM t WHERE a LIKE 'x' ESCAPE ''").is_err());
        assert!(parse("SELECT * FROM t WHERE a LIKE 'x' ESCAPE 5").is_err());
    }
}
