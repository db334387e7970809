//! Logical query plans.
//!
//! A [`Query`] is a small relational-algebra tree — the formal counterpart of
//! the SQL workloads in the paper (selection, projection, equi-join, grouping
//! and aggregation, `DISTINCT`, `LIMIT`). Plans are built with a fluent API
//! and evaluated against any [`crate::Instance`].

use crate::{eval, Expr, Instance, QdbError, Relation};

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` when the column is `None`, `COUNT(col)` otherwise
    /// (NULLs excluded).
    Count,
    /// `COUNT(DISTINCT col)`.
    CountDistinct,
    /// `SUM(col)`.
    Sum,
    /// `AVG(col)`.
    Avg,
    /// `MIN(col)`.
    Min,
    /// `MAX(col)`.
    Max,
}

/// A single aggregate expression `func(column) AS alias`.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// The aggregate function.
    pub func: AggFunc,
    /// The input column (`None` only for `COUNT(*)`).
    pub column: Option<String>,
    /// Output column name.
    pub alias: String,
}

/// A logical query plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Scan a base table.
    Scan {
        /// Table name.
        table: String,
    },
    /// Filter rows by a predicate.
    Filter {
        /// Input plan.
        input: Box<Query>,
        /// Boolean predicate.
        predicate: Expr,
    },
    /// Project expressions, producing named output columns.
    Project {
        /// Input plan.
        input: Box<Query>,
        /// `(expression, output name)` pairs.
        exprs: Vec<(Expr, String)>,
    },
    /// Equi-join of two plans.
    Join {
        /// Left input.
        left: Box<Query>,
        /// Right input.
        right: Box<Query>,
        /// Join keys as `(left column, right column)` pairs.
        on: Vec<(String, String)>,
    },
    /// Grouping and aggregation.
    Aggregate {
        /// Input plan.
        input: Box<Query>,
        /// Grouping columns (may be empty for a global aggregate).
        group_by: Vec<String>,
        /// Aggregates to compute.
        aggs: Vec<Aggregate>,
    },
    /// Duplicate elimination.
    Distinct {
        /// Input plan.
        input: Box<Query>,
    },
    /// Keep only the first `n` rows (input order).
    Limit {
        /// Input plan.
        input: Box<Query>,
        /// Maximum number of rows.
        n: usize,
    },
}

impl Query {
    /// Starts a plan with a table scan.
    pub fn scan(table: impl Into<String>) -> Query {
        Query::Scan {
            table: table.into(),
        }
    }

    /// Adds a filter on top of this plan.
    pub fn filter(self, predicate: Expr) -> Query {
        Query::Filter {
            input: Box::new(self),
            predicate,
        }
    }

    /// Adds a projection with explicit output names.
    pub fn project(self, exprs: Vec<(Expr, impl Into<String>)>) -> Query {
        Query::Project {
            input: Box::new(self),
            exprs: exprs.into_iter().map(|(e, n)| (e, n.into())).collect(),
        }
    }

    /// Convenience projection of plain columns.
    pub fn project_cols(self, cols: &[&str]) -> Query {
        Query::Project {
            input: Box::new(self),
            exprs: cols
                .iter()
                .map(|c| (Expr::col(*c), (*c).to_string()))
                .collect(),
        }
    }

    /// Joins this plan with another on equality of the given column pairs.
    pub fn join(self, right: Query, on: Vec<(&str, &str)>) -> Query {
        Query::Join {
            left: Box::new(self),
            right: Box::new(right),
            on: on
                .into_iter()
                .map(|(l, r)| (l.to_string(), r.to_string()))
                .collect(),
        }
    }

    /// Adds grouping and aggregation. Each aggregate is given as
    /// `(function, input column, output alias)`.
    pub fn aggregate(self, group_by: Vec<&str>, aggs: Vec<(AggFunc, Option<&str>, &str)>) -> Query {
        Query::Aggregate {
            input: Box::new(self),
            group_by: group_by.into_iter().map(|s| s.to_string()).collect(),
            aggs: aggs
                .into_iter()
                .map(|(func, column, alias)| Aggregate {
                    func,
                    column: column.map(|s| s.to_string()),
                    alias: alias.to_string(),
                })
                .collect(),
        }
    }

    /// Adds duplicate elimination.
    pub fn distinct(self) -> Query {
        Query::Distinct {
            input: Box::new(self),
        }
    }

    /// Adds a row limit.
    pub fn limit(self, n: usize) -> Query {
        Query::Limit {
            input: Box::new(self),
            n,
        }
    }

    /// Evaluates the plan against a database instance.
    pub fn evaluate<I: Instance + ?Sized>(&self, db: &I) -> Result<Relation, QdbError> {
        eval::evaluate(self, db)
    }

    /// Names of all base tables referenced by the plan (with duplicates
    /// removed, in first-reference order).
    pub fn tables_referenced(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_tables(&mut out);
        out
    }

    fn collect_tables(&self, out: &mut Vec<String>) {
        match self {
            Query::Scan { table } => {
                if !out.iter().any(|t| t == table) {
                    out.push(table.clone());
                }
            }
            Query::Filter { input, .. }
            | Query::Project { input, .. }
            | Query::Aggregate { input, .. }
            | Query::Distinct { input }
            | Query::Limit { input, .. } => input.collect_tables(out),
            Query::Join { left, right, .. } => {
                left.collect_tables(out);
                right.collect_tables(out);
            }
        }
    }

    /// The table of a `[Filter | Project]*` chain over one `Scan`, or `None`
    /// if the plan has any other operator. Such a chain maps each row of
    /// the table on its own (see [`crate::RowPath`]).
    pub fn chain_table(&self) -> Option<&str> {
        match self {
            Query::Scan { table } => Some(table),
            Query::Filter { input, .. } | Query::Project { input, .. } => input.chain_table(),
            _ => None,
        }
    }

    /// True if the plan reads a single base table exactly once (no joins).
    pub fn is_single_table(&self) -> bool {
        self.count_scans() == 1
    }

    fn count_scans(&self) -> usize {
        match self {
            Query::Scan { .. } => 1,
            Query::Filter { input, .. }
            | Query::Project { input, .. }
            | Query::Aggregate { input, .. }
            | Query::Distinct { input }
            | Query::Limit { input, .. } => input.count_scans(),
            Query::Join { left, right, .. } => left.count_scans() + right.count_scans(),
        }
    }

    /// True if the plan contains an aggregation operator.
    pub fn has_aggregate(&self) -> bool {
        match self {
            Query::Aggregate { .. } => true,
            Query::Scan { .. } => false,
            Query::Filter { input, .. }
            | Query::Project { input, .. }
            | Query::Distinct { input }
            | Query::Limit { input, .. } => input.has_aggregate(),
            Query::Join { left, right, .. } => left.has_aggregate() || right.has_aggregate(),
        }
    }

    /// True if the plan contains a `LIMIT` operator.
    pub fn has_limit(&self) -> bool {
        match self {
            Query::Limit { .. } => true,
            Query::Scan { .. } => false,
            Query::Filter { input, .. }
            | Query::Project { input, .. }
            | Query::Distinct { input }
            | Query::Aggregate { input, .. } => input.has_limit(),
            Query::Join { left, right, .. } => left.has_limit() || right.has_limit(),
        }
    }

    /// True if the plan contains a `DISTINCT` operator.
    pub fn has_distinct(&self) -> bool {
        match self {
            Query::Distinct { .. } => true,
            Query::Scan { .. } => false,
            Query::Filter { input, .. }
            | Query::Project { input, .. }
            | Query::Limit { input, .. }
            | Query::Aggregate { input, .. } => input.has_distinct(),
            Query::Join { left, right, .. } => left.has_distinct() || right.has_distinct(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_constructs_expected_shape() {
        let q = Query::scan("Country")
            .filter(Expr::col("Continent").eq(Expr::lit("Asia")))
            .aggregate(vec![], vec![(AggFunc::Count, Some("Name"), "cnt")]);
        assert!(q.is_single_table());
        assert!(q.has_aggregate());
        assert!(!q.has_limit());
        assert_eq!(q.tables_referenced(), vec!["Country".to_string()]);
    }

    #[test]
    fn join_plans_reference_both_tables() {
        let q = Query::scan("Country").join(Query::scan("City"), vec![("Code", "CountryCode")]);
        assert!(!q.is_single_table());
        assert_eq!(
            q.tables_referenced(),
            vec!["Country".to_string(), "City".to_string()]
        );
    }

    #[test]
    fn chain_table_names_the_scan_of_filter_project_chains_only() {
        let chain = Query::scan("T")
            .filter(Expr::col("a").gt(Expr::lit(1)))
            .project_cols(&["a"]);
        assert_eq!(chain.chain_table(), Some("T"));
        assert_eq!(chain.clone().distinct().chain_table(), None);
        assert_eq!(chain.limit(1).chain_table(), None);
        let join = Query::scan("T").join(Query::scan("U"), vec![("a", "a")]);
        assert_eq!(join.chain_table(), None);
    }

    #[test]
    fn flags_detect_operators() {
        let q = Query::scan("T").distinct().limit(5);
        assert!(q.has_distinct());
        assert!(q.has_limit());
        assert!(!q.has_aggregate());
    }

    #[test]
    fn duplicate_table_references_are_deduped() {
        let q = Query::scan("T").join(Query::scan("T"), vec![("a", "a")]);
        assert_eq!(q.tables_referenced(), vec!["T".to_string()]);
        assert_eq!(q.count_scans(), 2);
    }
}
