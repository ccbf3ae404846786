//! Recursive-descent parser for the supported SQL subset.

use gmdj_relation::error::{Error, Result};

use crate::lexer::{tokenize, Token};

/// A parsed `SELECT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    pub distinct: bool,
    pub items: Vec<SelectItem>,
    /// `(table, alias)` pairs; the alias defaults to the table name.
    pub from: Vec<(String, String)>,
    /// `ON` conditions of explicit `JOIN` syntax (conjoined with WHERE
    /// during lowering — the engine re-derives equi-joins from conjuncts).
    pub join_conditions: Vec<SqlExpr>,
    pub where_clause: Option<SqlExpr>,
    /// GROUP BY columns.
    pub group_by: Vec<SqlExpr>,
    /// HAVING predicate (requires GROUP BY).
    pub having: Option<SqlExpr>,
    /// ORDER BY `(expr, ascending)` keys.
    pub order_by: Vec<(SqlExpr, bool)>,
    /// LIMIT row count.
    pub limit: Option<usize>,
}

/// One entry of a select list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Star,
    /// An expression with an optional `AS` alias.
    Expr {
        expr: SqlExpr,
        alias: Option<String>,
    },
}

/// Quantifier of a quantified comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqlQuantifier {
    Any,
    All,
}

/// Aggregate functions in select lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqlAggFunc {
    CountStar,
    Count,
    CountDistinct,
    Sum,
    Min,
    Max,
    Avg,
}

/// SQL expression AST.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlExpr {
    Column {
        qualifier: Option<String>,
        name: String,
    },
    Number(f64),
    Str(String),
    Null,
    Bool(bool),
    /// Arithmetic: `+ - * /`.
    Arith {
        op: char,
        left: Box<SqlExpr>,
        right: Box<SqlExpr>,
    },
    /// Comparison: `= <> < <= > >=`, possibly against a scalar subquery
    /// operand.
    Cmp {
        op: String,
        left: Box<SqlExpr>,
        right: Box<SqlExpr>,
    },
    And(Box<SqlExpr>, Box<SqlExpr>),
    Or(Box<SqlExpr>, Box<SqlExpr>),
    Not(Box<SqlExpr>),
    IsNull {
        expr: Box<SqlExpr>,
        negated: bool,
    },
    /// `EXISTS (SELECT …)` / `NOT EXISTS (…)`.
    Exists {
        query: Box<SelectStmt>,
        negated: bool,
    },
    /// `x [NOT] IN (SELECT …)`.
    InSubquery {
        expr: Box<SqlExpr>,
        query: Box<SelectStmt>,
        negated: bool,
    },
    /// `x op ANY/SOME/ALL (SELECT …)`.
    QuantCmp {
        left: Box<SqlExpr>,
        op: String,
        quantifier: SqlQuantifier,
        query: Box<SelectStmt>,
    },
    /// `(SELECT …)` as a scalar operand.
    ScalarSubquery(Box<SelectStmt>),
    /// Aggregate call (select lists of subqueries / single-agg queries).
    Agg {
        func: SqlAggFunc,
        arg: Option<Box<SqlExpr>>,
    },
    /// `CASE WHEN p THEN e [...] [ELSE e] END`.
    Case {
        branches: Vec<(SqlExpr, SqlExpr)>,
        otherwise: Option<Box<SqlExpr>>,
    },
}

/// Deepest nesting the parser accepts. Every expression (the `WHERE`
/// clause, each parenthesized operand, subquery condition, aggregate
/// argument and `CASE` part) and each link of a `NOT` or unary-minus
/// chain counts one level; past the cap parsing fails with an error
/// instead of overflowing the stack. The deepest accepted query of each
/// kind still parses and lowers on a default 2 MiB thread stack.
pub const MAX_DEPTH: usize = 64;

/// Parse one SELECT statement from SQL text.
pub fn parse_statement(input: &str) -> Result<SelectStmt> {
    let tokens = tokenize(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let stmt = p.select_stmt()?;
    p.expect_eof()?;
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Current nesting level ([`MAX_DEPTH`]).
    depth: usize,
}

impl Parser {
    /// Run `f` one nesting level deeper, or fail past [`MAX_DEPTH`].
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth == MAX_DEPTH {
            return Err(Error::invalid(format!(
                "query nests deeper than {MAX_DEPTH} levels"
            )));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek2(&self) -> &Token {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)]
    }

    fn next(&mut self) -> Token {
        let t = self.peek().clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Token::Keyword(k) if k == kw) {
            self.next();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(Error::invalid(format!(
                "expected {kw}, found {}",
                self.peek()
            )))
        }
    }

    fn expect(&mut self, t: &Token) -> Result<()> {
        if self.peek() == t {
            self.next();
            Ok(())
        } else {
            Err(Error::invalid(format!(
                "expected {t}, found {}",
                self.peek()
            )))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if matches!(self.peek(), Token::Eof) {
            Ok(())
        } else {
            Err(Error::invalid(format!("trailing input at {}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Token::Ident(s) => Ok(s),
            other => Err(Error::invalid(format!(
                "expected identifier, found {other}"
            ))),
        }
    }

    fn select_stmt(&mut self) -> Result<SelectStmt> {
        self.expect_keyword("SELECT")?;
        let distinct = self.eat_keyword("DISTINCT");
        let mut items = vec![self.select_item()?];
        while matches!(self.peek(), Token::Comma) {
            self.next();
            items.push(self.select_item()?);
        }
        self.expect_keyword("FROM")?;
        let mut from = vec![self.table_ref()?];
        let mut join_conditions = Vec::new();
        loop {
            if matches!(self.peek(), Token::Comma) {
                self.next();
                from.push(self.table_ref()?);
            } else if matches!(self.peek(), Token::Keyword(k) if k == "JOIN" || k == "INNER") {
                self.eat_keyword("INNER");
                self.expect_keyword("JOIN")?;
                from.push(self.table_ref()?);
                self.expect_keyword("ON")?;
                join_conditions.push(self.expr()?);
            } else {
                break;
            }
        }
        let where_clause = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            group_by.push(self.expr()?);
            while matches!(self.peek(), Token::Comma) {
                self.next();
                group_by.push(self.expr()?);
            }
        }
        let having = if self.eat_keyword("HAVING") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let e = self.expr()?;
                let asc = if self.eat_keyword("DESC") {
                    false
                } else {
                    self.eat_keyword("ASC");
                    true
                };
                order_by.push((e, asc));
                if matches!(self.peek(), Token::Comma) {
                    self.next();
                } else {
                    break;
                }
            }
        }
        let limit = if self.eat_keyword("LIMIT") {
            match self.next() {
                Token::Number(n) if n >= 0.0 && n.fract() == 0.0 => Some(n as usize),
                other => {
                    return Err(Error::invalid(format!(
                        "LIMIT expects a non-negative integer, found {other}"
                    )))
                }
            }
        } else {
            None
        };
        Ok(SelectStmt {
            distinct,
            items,
            from,
            join_conditions,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if matches!(self.peek(), Token::Star) {
            self.next();
            return Ok(SelectItem::Star);
        }
        let expr = self.expr()?;
        let alias = if self.eat_keyword("AS") {
            Some(self.ident()?)
        } else if let Token::Ident(_) = self.peek() {
            // Bare alias after an expression.
            Some(self.ident()?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> Result<(String, String)> {
        let table = self.ident()?;
        let alias = if self.eat_keyword("AS") {
            self.ident()?
        } else if let Token::Ident(_) = self.peek() {
            self.ident()?
        } else {
            table.clone()
        };
        Ok((table, alias))
    }

    // Precedence: OR < AND < NOT < predicate < additive < multiplicative
    // < unary < primary.
    fn expr(&mut self) -> Result<SqlExpr> {
        self.nested(Self::or_expr)
    }

    fn or_expr(&mut self) -> Result<SqlExpr> {
        let mut left = self.and_expr()?;
        while self.eat_keyword("OR") {
            let right = self.and_expr()?;
            left = SqlExpr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<SqlExpr> {
        let mut left = self.not_expr()?;
        while self.eat_keyword("AND") {
            let right = self.not_expr()?;
            left = SqlExpr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<SqlExpr> {
        if self.eat_keyword("NOT") {
            // NOT EXISTS folds directly.
            if matches!(self.peek(), Token::Keyword(k) if k == "EXISTS") {
                self.next();
                let query = self.parenthesized_select()?;
                return Ok(SqlExpr::Exists {
                    query: Box::new(query),
                    negated: true,
                });
            }
            return Ok(SqlExpr::Not(Box::new(self.nested(Self::not_expr)?)));
        }
        self.predicate()
    }

    fn predicate(&mut self) -> Result<SqlExpr> {
        if matches!(self.peek(), Token::Keyword(k) if k == "EXISTS") {
            self.next();
            let query = self.parenthesized_select()?;
            return Ok(SqlExpr::Exists {
                query: Box::new(query),
                negated: false,
            });
        }
        let left = self.additive()?;
        // IS [NOT] NULL
        if self.eat_keyword("IS") {
            let negated = self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            return Ok(SqlExpr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        // [NOT] IN (SELECT …)
        let not_in = matches!(self.peek(), Token::Keyword(k) if k == "NOT")
            && matches!(self.peek2(), Token::Keyword(k) if k == "IN");
        if not_in {
            self.next();
        }
        if self.eat_keyword("IN") {
            let query = self.parenthesized_select()?;
            return Ok(SqlExpr::InSubquery {
                expr: Box::new(left),
                query: Box::new(query),
                negated: not_in,
            });
        }
        // BETWEEN a AND b — sugar for two comparisons.
        if self.eat_keyword("BETWEEN") {
            let lo = self.additive()?;
            self.expect_keyword("AND")?;
            let hi = self.additive()?;
            let ge = SqlExpr::Cmp {
                op: ">=".into(),
                left: Box::new(left.clone()),
                right: Box::new(lo),
            };
            let le = SqlExpr::Cmp {
                op: "<=".into(),
                left: Box::new(left),
                right: Box::new(hi),
            };
            return Ok(SqlExpr::And(Box::new(ge), Box::new(le)));
        }
        // Comparison, possibly quantified.
        if let Token::Op(op) = self.peek().clone() {
            if matches!(op.as_str(), "=" | "<>" | "<" | "<=" | ">" | ">=") {
                self.next();
                // ANY / SOME / ALL (SELECT …)
                if matches!(self.peek(), Token::Keyword(k) if k == "ANY" || k == "SOME") {
                    self.next();
                    let query = self.parenthesized_select()?;
                    return Ok(SqlExpr::QuantCmp {
                        left: Box::new(left),
                        op,
                        quantifier: SqlQuantifier::Any,
                        query: Box::new(query),
                    });
                }
                if self.eat_keyword("ALL") {
                    let query = self.parenthesized_select()?;
                    return Ok(SqlExpr::QuantCmp {
                        left: Box::new(left),
                        op,
                        quantifier: SqlQuantifier::All,
                        query: Box::new(query),
                    });
                }
                let right = self.additive()?;
                return Ok(SqlExpr::Cmp {
                    op,
                    left: Box::new(left),
                    right: Box::new(right),
                });
            }
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<SqlExpr> {
        let mut left = self.multiplicative()?;
        loop {
            match self.peek() {
                Token::Op(o) if o == "+" || o == "-" => {
                    let op = o.chars().next().unwrap();
                    self.next();
                    let right = self.multiplicative()?;
                    left = SqlExpr::Arith {
                        op,
                        left: Box::new(left),
                        right: Box::new(right),
                    };
                }
                _ => break,
            }
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<SqlExpr> {
        let mut left = self.unary()?;
        loop {
            match self.peek() {
                Token::Star => {
                    self.next();
                    let right = self.unary()?;
                    left = SqlExpr::Arith {
                        op: '*',
                        left: Box::new(left),
                        right: Box::new(right),
                    };
                }
                Token::Op(o) if o == "/" => {
                    self.next();
                    let right = self.unary()?;
                    left = SqlExpr::Arith {
                        op: '/',
                        left: Box::new(left),
                        right: Box::new(right),
                    };
                }
                _ => break,
            }
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<SqlExpr> {
        if matches!(self.peek(), Token::Op(o) if o == "-") {
            self.next();
            let inner = self.nested(Self::unary)?;
            return Ok(SqlExpr::Arith {
                op: '-',
                left: Box::new(SqlExpr::Number(0.0)),
                right: Box::new(inner),
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<SqlExpr> {
        match self.next() {
            Token::Number(n) => Ok(SqlExpr::Number(n)),
            Token::Str(s) => Ok(SqlExpr::Str(s)),
            Token::Keyword(k) if k == "NULL" => Ok(SqlExpr::Null),
            Token::Keyword(k) if k == "TRUE" => Ok(SqlExpr::Bool(true)),
            Token::Keyword(k) if k == "FALSE" => Ok(SqlExpr::Bool(false)),
            Token::Keyword(k) if matches!(k.as_str(), "COUNT" | "SUM" | "MIN" | "MAX" | "AVG") => {
                self.agg_call(&k)
            }
            Token::Keyword(k) if k == "CASE" => self.case_expr(),
            Token::LParen => {
                if matches!(self.peek(), Token::Keyword(k) if k == "SELECT") {
                    let stmt = self.select_stmt()?;
                    self.expect(&Token::RParen)?;
                    return Ok(SqlExpr::ScalarSubquery(Box::new(stmt)));
                }
                let inner = self.expr()?;
                self.expect(&Token::RParen)?;
                Ok(inner)
            }
            Token::Ident(first) => {
                if matches!(self.peek(), Token::Dot) {
                    self.next();
                    let name = self.ident()?;
                    Ok(SqlExpr::Column {
                        qualifier: Some(first),
                        name,
                    })
                } else {
                    Ok(SqlExpr::Column {
                        qualifier: None,
                        name: first,
                    })
                }
            }
            other => Err(Error::invalid(format!("unexpected token {other}"))),
        }
    }

    /// `COUNT|SUM|MIN|MAX|AVG ( [DISTINCT] expr | * )`, the keyword
    /// already consumed. Kept out of [`Self::primary`] so the frames of
    /// the operator-precedence chain a parenthesis recurses through stay
    /// small.
    fn agg_call(&mut self, k: &str) -> Result<SqlExpr> {
        self.expect(&Token::LParen)?;
        if k == "COUNT" && matches!(self.peek(), Token::Star) {
            self.next();
            self.expect(&Token::RParen)?;
            return Ok(SqlExpr::Agg {
                func: SqlAggFunc::CountStar,
                arg: None,
            });
        }
        let count_distinct = k == "COUNT" && self.eat_keyword("DISTINCT");
        let arg = self.expr()?;
        self.expect(&Token::RParen)?;
        let func = match k {
            "COUNT" if count_distinct => SqlAggFunc::CountDistinct,
            "COUNT" => SqlAggFunc::Count,
            "SUM" => SqlAggFunc::Sum,
            "MIN" => SqlAggFunc::Min,
            "MAX" => SqlAggFunc::Max,
            "AVG" => SqlAggFunc::Avg,
            _ => unreachable!(),
        };
        Ok(SqlExpr::Agg {
            func,
            arg: Some(Box::new(arg)),
        })
    }

    /// `CASE WHEN p THEN e [...] [ELSE e] END`, `CASE` already consumed.
    fn case_expr(&mut self) -> Result<SqlExpr> {
        let mut branches = Vec::new();
        while self.eat_keyword("WHEN") {
            let cond = self.expr()?;
            self.expect_keyword("THEN")?;
            let then = self.expr()?;
            branches.push((cond, then));
        }
        if branches.is_empty() {
            return Err(Error::invalid("CASE needs at least one WHEN branch"));
        }
        let otherwise = if self.eat_keyword("ELSE") {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        self.expect_keyword("END")?;
        Ok(SqlExpr::Case {
            branches,
            otherwise,
        })
    }

    fn parenthesized_select(&mut self) -> Result<SelectStmt> {
        self.expect(&Token::LParen)?;
        let stmt = self.select_stmt()?;
        self.expect(&Token::RParen)?;
        Ok(stmt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_select() {
        let s = parse_statement("SELECT c.name, c.bal FROM customer c WHERE c.bal > 10").unwrap();
        assert_eq!(s.items.len(), 2);
        assert_eq!(s.from, vec![("customer".to_string(), "c".to_string())]);
        assert!(s.where_clause.is_some());
        assert!(!s.distinct);
    }

    #[test]
    fn parses_distinct_star_and_aliases() {
        let s = parse_statement("SELECT DISTINCT * FROM orders AS o, lineitem l").unwrap();
        assert!(s.distinct);
        assert_eq!(s.items, vec![SelectItem::Star]);
        assert_eq!(s.from.len(), 2);
        assert_eq!(s.from[1], ("lineitem".to_string(), "l".to_string()));
    }

    #[test]
    fn parses_exists_and_not_exists() {
        let s = parse_statement(
            "SELECT * FROM customer c WHERE EXISTS (SELECT * FROM orders o WHERE o.ck = c.ck) \
             AND NOT EXISTS (SELECT * FROM orders o2 WHERE o2.ck = c.ck AND o2.p > 5)",
        )
        .unwrap();
        let Some(SqlExpr::And(a, b)) = s.where_clause else {
            panic!()
        };
        assert!(matches!(*a, SqlExpr::Exists { negated: false, .. }));
        assert!(matches!(*b, SqlExpr::Exists { negated: true, .. }));
    }

    #[test]
    fn parses_quantified_and_in() {
        let s = parse_statement(
            "SELECT * FROM p WHERE p.x >= ALL (SELECT q.y FROM q) \
             AND p.z IN (SELECT r.w FROM r) AND p.v NOT IN (SELECT t.u FROM t)",
        )
        .unwrap();
        let text = format!("{:?}", s.where_clause);
        assert!(text.contains("QuantCmp"));
        assert!(text.contains("All"));
        assert!(text.contains("InSubquery"));
        assert!(text.contains("negated: true"));
    }

    #[test]
    fn parses_scalar_subquery_comparison() {
        let s = parse_statement(
            "SELECT * FROM c WHERE c.bal < (SELECT AVG(o.total) FROM o WHERE o.ck = c.ck)",
        )
        .unwrap();
        let Some(SqlExpr::Cmp { right, .. }) = s.where_clause else {
            panic!()
        };
        assert!(matches!(*right, SqlExpr::ScalarSubquery(_)));
    }

    #[test]
    fn parses_arithmetic_with_precedence() {
        let s = parse_statement("SELECT * FROM t WHERE t.a + t.b * 2 > 10").unwrap();
        let Some(SqlExpr::Cmp { left, .. }) = s.where_clause else {
            panic!()
        };
        // a + (b * 2), not (a + b) * 2.
        let SqlExpr::Arith { op: '+', right, .. } = *left else {
            panic!("{left:?}")
        };
        assert!(matches!(*right, SqlExpr::Arith { op: '*', .. }));
    }

    #[test]
    fn parses_between_and_is_null() {
        let s = parse_statement("SELECT * FROM t WHERE t.a BETWEEN 1 AND 5 AND t.b IS NOT NULL")
            .unwrap();
        let text = format!("{:?}", s.where_clause);
        assert!(text.contains(">="));
        assert!(text.contains("<="));
        assert!(text.contains("IsNull"));
    }

    #[test]
    fn rejects_trailing_tokens_and_missing_from() {
        assert!(parse_statement("SELECT * FROM t WHERE 1 = 1 extra garbage (").is_err());
        assert!(parse_statement("SELECT *").is_err());
    }

    #[test]
    fn count_star_parses() {
        let s = parse_statement("SELECT COUNT(*) FROM t").unwrap();
        assert!(matches!(
            s.items[0],
            SelectItem::Expr {
                expr: SqlExpr::Agg {
                    func: SqlAggFunc::CountStar,
                    ..
                },
                ..
            }
        ));
    }

    /// Nesting past [`MAX_DEPTH`] is an error, not a stack overflow, and
    /// the deepest accepted query of each kind parses and lowers on a
    /// spawned thread's default 2 MiB stack.
    #[test]
    fn nesting_is_capped_before_the_stack_runs_out() {
        type Query = fn(usize) -> String;
        let parens: Query = |d| {
            let (open, close) = ("(".repeat(d - 1), ")".repeat(d - 1));
            format!("SELECT * FROM t WHERE {open}t.a = 1{close}")
        };
        let nots: Query = |d| format!("SELECT * FROM t WHERE {}t.a = 1", "NOT ".repeat(d - 1));
        let negs: Query = |d| format!("SELECT * FROM t WHERE t.a = {}1", "- ".repeat(d - 1));
        let subqueries: Query = |d| {
            let mut q = "SELECT * FROM t WHERE t.a = 1".to_string();
            for _ in 1..d {
                q = format!("SELECT * FROM t WHERE EXISTS ({q})");
            }
            q
        };
        std::thread::spawn(move || {
            let kinds = [
                ("parens", parens),
                ("NOT", nots),
                ("unary -", negs),
                ("subqueries", subqueries),
            ];
            for (kind, query) in kinds {
                crate::parse_query(&query(MAX_DEPTH))
                    .unwrap_or_else(|e| panic!("{kind} at the cap: {e}"));
                let err = parse_statement(&query(MAX_DEPTH + 1)).unwrap_err();
                assert!(err.to_string().contains("nests deeper"), "{kind}: {err}");
            }
            for query in [parens, nots, negs] {
                assert!(parse_statement(&query(100_000)).is_err());
            }
        })
        .join()
        .unwrap();
    }
}
