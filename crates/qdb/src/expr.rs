//! Scalar expressions over tuples.
//!
//! Expressions are written against column *names* and bound to column
//! *indices* once per operator ([`Expr::bind`]), so per-row evaluation never
//! performs string lookups.

use std::borrow::Cow;

use crate::{QdbError, Schema, Value};

/// Binary operators supported in predicates and projections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
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
    /// Logical AND.
    And,
    /// Logical OR.
    Or,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to a column by name.
    Col(String),
    /// A literal value.
    Lit(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Logical negation.
    Not(Box<Expr>),
    /// SQL `LIKE` with `%` and `_` wildcards; operand must evaluate to a string.
    Like {
        /// String operand.
        expr: Box<Expr>,
        /// Pattern with `%` / `_` wildcards.
        pattern: String,
    },
    /// `expr BETWEEN low AND high` (inclusive).
    Between {
        /// Tested operand.
        expr: Box<Expr>,
        /// Lower bound.
        low: Box<Expr>,
        /// Upper bound.
        high: Box<Expr>,
    },
    /// `expr IN (v1, v2, ...)`.
    InList {
        /// Tested operand.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Value>,
    },
    /// `expr IS NULL`.
    IsNull(Box<Expr>),
}

impl Expr {
    /// Column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Col(name.into())
    }

    /// Literal value.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    fn binary(self, op: BinOp, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(self),
            right: Box::new(rhs),
        }
    }

    /// `self = rhs`
    pub fn eq(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Eq, rhs)
    }
    /// `self <> rhs`
    pub fn ne(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Ne, rhs)
    }
    /// `self < rhs`
    pub fn lt(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Lt, rhs)
    }
    /// `self <= rhs`
    pub fn le(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Le, rhs)
    }
    /// `self > rhs`
    pub fn gt(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Gt, rhs)
    }
    /// `self >= rhs`
    pub fn ge(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Ge, rhs)
    }
    /// Logical conjunction.
    pub fn and(self, rhs: Expr) -> Expr {
        self.binary(BinOp::And, rhs)
    }
    /// Logical disjunction.
    pub fn or(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Or, rhs)
    }
    /// Arithmetic `+` (a query-DSL builder, deliberately not `std::ops`
    /// — operands are plan fragments, not values).
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Add, rhs)
    }
    /// Arithmetic `-` (a query-DSL builder, deliberately not `std::ops`
    /// — operands are plan fragments, not values).
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Sub, rhs)
    }
    /// Arithmetic `*` (a query-DSL builder, deliberately not `std::ops`
    /// — operands are plan fragments, not values).
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Mul, rhs)
    }
    /// Arithmetic `/` (a query-DSL builder, deliberately not `std::ops`
    /// — operands are plan fragments, not values).
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Div, rhs)
    }
    /// Logical negation (a query-DSL builder, deliberately not `std::ops`).
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }
    /// SQL `LIKE`.
    pub fn like(self, pattern: impl Into<String>) -> Expr {
        Expr::Like {
            expr: Box::new(self),
            pattern: pattern.into(),
        }
    }
    /// SQL `BETWEEN ... AND ...` (inclusive).
    pub fn between(self, low: Expr, high: Expr) -> Expr {
        Expr::Between {
            expr: Box::new(self),
            low: Box::new(low),
            high: Box::new(high),
        }
    }
    /// SQL `IN (...)`.
    pub fn in_list(self, list: Vec<Value>) -> Expr {
        Expr::InList {
            expr: Box::new(self),
            list,
        }
    }
    /// SQL `IS NULL`.
    pub fn is_null(self) -> Expr {
        Expr::IsNull(Box::new(self))
    }

    /// Column names referenced anywhere in the expression.
    pub fn referenced_columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Col(c) => out.push(c),
            Expr::Lit(_) => {}
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::Not(e) | Expr::IsNull(e) => e.collect_columns(out),
            Expr::Like { expr, .. } => expr.collect_columns(out),
            Expr::Between { expr, low, high } => {
                expr.collect_columns(out);
                low.collect_columns(out);
                high.collect_columns(out);
            }
            Expr::InList { expr, .. } => expr.collect_columns(out),
        }
    }

    /// Resolves column names against `schema`, producing an executable
    /// [`BoundExpr`].
    pub(crate) fn bind(&self, schema: &Schema) -> Result<BoundExpr, QdbError> {
        Ok(match self {
            Expr::Col(name) => BoundExpr::Col(schema.index_of(name)?),
            Expr::Lit(v) => BoundExpr::Lit(v.clone()),
            Expr::Binary { op, left, right } => BoundExpr::Binary {
                op: *op,
                left: Box::new(left.bind(schema)?),
                right: Box::new(right.bind(schema)?),
            },
            Expr::Not(e) => BoundExpr::Not(Box::new(e.bind(schema)?)),
            Expr::Like { expr, pattern } => BoundExpr::Like {
                expr: Box::new(expr.bind(schema)?),
                pattern: pattern.clone(),
            },
            Expr::Between { expr, low, high } => BoundExpr::Between {
                expr: Box::new(expr.bind(schema)?),
                low: Box::new(low.bind(schema)?),
                high: Box::new(high.bind(schema)?),
            },
            Expr::InList { expr, list } => BoundExpr::InList {
                expr: Box::new(expr.bind(schema)?),
                list: list.clone(),
            },
            Expr::IsNull(e) => BoundExpr::IsNull(Box::new(e.bind(schema)?)),
        })
    }
}

/// An expression with column references resolved to indices.
#[derive(Debug, Clone)]
pub(crate) enum BoundExpr {
    /// Column by index.
    Col(usize),
    /// Literal.
    Lit(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<BoundExpr>,
        /// Right operand.
        right: Box<BoundExpr>,
    },
    /// Negation.
    Not(Box<BoundExpr>),
    /// LIKE.
    Like {
        /// String operand.
        expr: Box<BoundExpr>,
        /// Wildcard pattern.
        pattern: String,
    },
    /// BETWEEN.
    Between {
        /// Tested operand.
        expr: Box<BoundExpr>,
        /// Lower bound.
        low: Box<BoundExpr>,
        /// Upper bound.
        high: Box<BoundExpr>,
    },
    /// IN list.
    InList {
        /// Tested operand.
        expr: Box<BoundExpr>,
        /// Candidate values.
        list: Vec<Value>,
    },
    /// IS NULL.
    IsNull(Box<BoundExpr>),
}

impl BoundExpr {
    /// Evaluates the expression on a row. Columns and literals are borrowed,
    /// so only arithmetic and predicates build a value.
    pub(crate) fn eval<'r>(&'r self, row: &'r [Value]) -> Cow<'r, Value> {
        match self {
            BoundExpr::Col(i) => Cow::Borrowed(&row[*i]),
            BoundExpr::Lit(v) => Cow::Borrowed(v),
            BoundExpr::Binary {
                op: op @ (BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div),
                left,
                right,
            } => Cow::Owned(arithmetic(*op, &left.eval(row), &right.eval(row))),
            _ => Cow::Owned(Value::Bool(self.eval_bool(row))),
        }
    }

    /// Evaluates the expression as a boolean predicate (SQL three-valued
    /// logic collapses to `false` for NULL).
    pub(crate) fn eval_bool(&self, row: &[Value]) -> bool {
        match self {
            BoundExpr::Col(_) | BoundExpr::Lit(_) => self.eval(row).is_truthy(),
            BoundExpr::Binary { op, left, right } => match op {
                BinOp::And => left.eval_bool(row) && right.eval_bool(row),
                BinOp::Or => left.eval_bool(row) || right.eval_bool(row),
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => self.eval(row).is_truthy(),
                _ => compare(*op, &left.eval(row), &right.eval(row)),
            },
            BoundExpr::Not(e) => !e.eval_bool(row),
            BoundExpr::Like { expr, pattern } => expr
                .eval(row)
                .as_str()
                .is_some_and(|s| like_match(s, pattern)),
            BoundExpr::Between { expr, low, high } => {
                let (v, lo, hi) = (expr.eval(row), low.eval(row), high.eval(row));
                !v.is_null() && !lo.is_null() && !hi.is_null() && v >= lo && v <= hi
            }
            BoundExpr::InList { expr, list } => list.contains(&expr.eval(row)),
            BoundExpr::IsNull(e) => e.eval(row).is_null(),
        }
    }
}

/// A comparison; NULL on either side compares false.
fn compare(op: BinOp, l: &Value, r: &Value) -> bool {
    if l.is_null() || r.is_null() {
        return false;
    }
    match op {
        BinOp::Eq => l == r,
        BinOp::Ne => l != r,
        BinOp::Lt => l < r,
        BinOp::Le => l <= r,
        BinOp::Gt => l > r,
        BinOp::Ge => l >= r,
        _ => unreachable!("not a comparison: {op:?}"),
    }
}

/// Arithmetic; NULL or a non-numeric operand yields NULL.
fn arithmetic(op: BinOp, l: &Value, r: &Value) -> Value {
    let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
        return Value::Null;
    };
    let x = match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => {
            // float-eq: exact division-by-zero guard (SQL semantics: x / 0
            // is NULL, including -0.0).
            if b == 0.0 {
                return Value::Null;
            }
            a / b
        }
        _ => unreachable!("not arithmetic: {op:?}"),
    };
    // Preserve integer typing for exact integer arithmetic.
    if matches!((l, r), (Value::Int(_), Value::Int(_)))
        && !matches!(op, BinOp::Div)
        // float-eq: fract() of an integral f64 is exactly 0.0.
        && x.fract() == 0.0
        && x.abs() < i64::MAX as f64
    {
        Value::Int(x as i64)
    } else {
        Value::Float(x)
    }
}

/// SQL `LIKE` matcher supporting `%` (any run) and `_` (single char).
///
/// Greedy with backtracking to the last `%` only: a later `%` can absorb
/// anything an earlier one could, so earlier ones never need revisiting.
/// Time O(|s|·|pattern|), no allocation.
pub fn like_match(s: &str, pattern: &str) -> bool {
    let (mut si, mut pi) = (0, 0);
    // After the last `%` seen: the pattern position past it, and the string
    // position it is currently assumed to stretch to.
    let mut star: Option<(usize, usize)> = None;
    loop {
        let sc = s[si..].chars().next();
        match (pattern[pi..].chars().next(), sc) {
            (Some('%'), _) => {
                pi += 1;
                star = Some((pi, si));
                continue;
            }
            (Some(p), Some(c)) if p == '_' || p == c => {
                pi += p.len_utf8();
                si += c.len_utf8();
                continue;
            }
            (None, None) => return true,
            _ => {}
        }
        // Mismatch: let the last `%` absorb one more character.
        match star {
            Some((sp, ss)) => match s[ss..].chars().next() {
                Some(c) => {
                    star = Some((sp, ss + c.len_utf8()));
                    (pi, si) = (sp, ss + c.len_utf8());
                }
                None => return false,
            },
            None => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ColumnType;

    fn schema() -> Schema {
        Schema::new(vec![
            ("name", ColumnType::Str),
            ("age", ColumnType::Int),
            ("score", ColumnType::Float),
        ])
    }

    fn row() -> Vec<Value> {
        vec!["Alice".into(), Value::Int(30), Value::Float(7.5)]
    }

    #[test]
    fn comparisons() {
        let s = schema();
        let e = Expr::col("age").ge(Expr::lit(18)).bind(&s).unwrap();
        assert!(e.eval_bool(&row()));
        let e = Expr::col("age").lt(Expr::lit(18)).bind(&s).unwrap();
        assert!(!e.eval_bool(&row()));
        let e = Expr::col("name").eq(Expr::lit("Alice")).bind(&s).unwrap();
        assert!(e.eval_bool(&row()));
        let e = Expr::col("name").ne(Expr::lit("Bob")).bind(&s).unwrap();
        assert!(e.eval_bool(&row()));
    }

    #[test]
    fn logical_connectives() {
        let s = schema();
        let e = Expr::col("age")
            .gt(Expr::lit(18))
            .and(Expr::col("name").eq(Expr::lit("Alice")))
            .bind(&s)
            .unwrap();
        assert!(e.eval_bool(&row()));
        let e = Expr::col("age")
            .gt(Expr::lit(100))
            .or(Expr::col("score").gt(Expr::lit(5.0)))
            .bind(&s)
            .unwrap();
        assert!(e.eval_bool(&row()));
        let e = Expr::col("age").gt(Expr::lit(100)).not().bind(&s).unwrap();
        assert!(e.eval_bool(&row()));
    }

    #[test]
    fn arithmetic_preserves_int_typing() {
        let s = schema();
        let e = Expr::col("age").add(Expr::lit(5)).bind(&s).unwrap();
        assert_eq!(*e.eval(&row()), Value::Int(35));
        let e = Expr::col("age").mul(Expr::lit(2)).bind(&s).unwrap();
        assert_eq!(*e.eval(&row()), Value::Int(60));
        let e = Expr::col("score").add(Expr::lit(0.5)).bind(&s).unwrap();
        assert_eq!(*e.eval(&row()), Value::Float(8.0));
        // Division always yields float; division by zero yields NULL.
        let e = Expr::col("age").div(Expr::lit(4)).bind(&s).unwrap();
        assert_eq!(*e.eval(&row()), Value::Float(7.5));
        let e = Expr::col("age").div(Expr::lit(0)).bind(&s).unwrap();
        assert!(e.eval(&row()).is_null());
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("Alice", "A%"));
        assert!(like_match("Alice", "%ice"));
        assert!(like_match("Alice", "%lic%"));
        assert!(like_match("Alice", "Al_ce"));
        assert!(!like_match("Alice", "B%"));
        assert!(!like_match("Alice", "A_ce"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        let s = schema();
        let e = Expr::col("name").like("A%").bind(&s).unwrap();
        assert!(e.eval_bool(&row()));
        // LIKE on a non-string evaluates to false rather than erroring.
        let e = Expr::col("age").like("3%").bind(&s).unwrap();
        assert!(!e.eval_bool(&row()));
    }

    /// The recursive matcher `like_match` replaced: tries every split at
    /// each `%`, exponential in the number of wildcards. Kept as an oracle.
    fn like_oracle(s: &[char], p: &[char]) -> bool {
        match p.split_first() {
            None => s.is_empty(),
            Some(('%', rest)) => (0..=s.len()).any(|k| like_oracle(&s[k..], rest)),
            Some(('_', rest)) => !s.is_empty() && like_oracle(&s[1..], rest),
            Some((c, rest)) => s.first() == Some(c) && like_oracle(&s[1..], rest),
        }
    }

    #[test]
    fn like_matches_the_recursive_oracle() {
        // Every string over {a, b, é} up to length 5 against every pattern
        // over {a, é, %, _} up to length 4, from a fixed LCG for the rest.
        let alphabet = ['a', 'b', 'é'];
        let wild = ['a', 'é', '%', '_'];
        let words = |alpha: &[char], max: usize| -> Vec<String> {
            let mut out = vec![String::new()];
            let mut frontier = vec![String::new()];
            for _ in 0..max {
                frontier = frontier
                    .iter()
                    .flat_map(|w| alpha.iter().map(move |c| format!("{w}{c}")))
                    .collect();
                out.extend(frontier.iter().cloned());
            }
            out
        };
        let (strings, patterns) = (words(&alphabet, 5), words(&wild, 4));
        let mut checked = 0;
        for p in &patterns {
            let pc: Vec<char> = p.chars().collect();
            for s in &strings {
                let sc: Vec<char> = s.chars().collect();
                assert_eq!(like_match(s, p), like_oracle(&sc, &pc), "{s:?} LIKE {p:?}");
                checked += 1;
            }
        }
        assert!(checked > 100_000);
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let mut next = |n: usize| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (x >> 33) as usize % n
        };
        for _ in 0..5_000 {
            let s: String = (0..next(12)).map(|_| alphabet[next(3)]).collect();
            let p: String = (0..next(9)).map(|_| wild[next(4)]).collect();
            let (sc, pc): (Vec<char>, Vec<char>) = (s.chars().collect(), p.chars().collect());
            assert_eq!(
                like_match(&s, &p),
                like_oracle(&sc, &pc),
                "{s:?} LIKE {p:?}"
            );
        }
    }

    #[test]
    fn like_is_fast_on_many_wildcards() {
        // The recursive matcher takes time exponential in the number of `%`:
        // 42 ms for six of them on a 40-character string.
        let s = "a".repeat(1_000);
        let p = format!("{}b", "%a".repeat(20));
        let start = std::time::Instant::now();
        assert!(!like_match(&s, &p));
        assert!(like_match(&format!("{s}b"), &p));
        let elapsed = start.elapsed();
        assert!(elapsed.as_millis() < 100, "took {elapsed:?}");
    }

    #[test]
    fn between_and_in_list() {
        let s = schema();
        let e = Expr::col("age")
            .between(Expr::lit(20), Expr::lit(40))
            .bind(&s)
            .unwrap();
        assert!(e.eval_bool(&row()));
        let e = Expr::col("age")
            .between(Expr::lit(31), Expr::lit(40))
            .bind(&s)
            .unwrap();
        assert!(!e.eval_bool(&row()));
        let e = Expr::col("name")
            .in_list(vec!["Bob".into(), "Alice".into()])
            .bind(&s)
            .unwrap();
        assert!(e.eval_bool(&row()));
        let e = Expr::col("name")
            .in_list(vec!["Bob".into()])
            .bind(&s)
            .unwrap();
        assert!(!e.eval_bool(&row()));
    }

    #[test]
    fn null_semantics() {
        let s = schema();
        let null_row = vec![Value::Null, Value::Null, Value::Null];
        let e = Expr::col("age").gt(Expr::lit(5)).bind(&s).unwrap();
        assert!(!e.eval_bool(&null_row));
        let e = Expr::col("age").add(Expr::lit(5)).bind(&s).unwrap();
        assert!(e.eval(&null_row).is_null());
        let e = Expr::col("age").is_null().bind(&s).unwrap();
        assert!(e.eval_bool(&null_row));
        assert!(!e.eval_bool(&row()));
    }

    #[test]
    fn binding_unknown_column_errors() {
        let s = schema();
        assert!(Expr::col("missing").bind(&s).is_err());
    }

    #[test]
    fn referenced_columns_are_collected() {
        let e = Expr::col("a")
            .gt(Expr::lit(1))
            .and(Expr::col("b").like("x%"))
            .or(Expr::col("c").between(Expr::lit(0), Expr::col("d")));
        let mut cols = e.referenced_columns();
        cols.sort();
        assert_eq!(cols, vec!["a", "b", "c", "d"]);
    }
}
