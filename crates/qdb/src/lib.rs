//! # qp-qdb — a minimal in-memory relational engine
//!
//! The query-pricing framework of Chawla et al. (VLDB 2019) needs to evaluate
//! deterministic relational queries on a base database `D` and on a set of
//! *support* databases `S` (small perturbations of `D`) in order to compute
//! conflict sets `C_S(Q, D) = {D' ∈ S | Q(D) ≠ Q(D')}`. The paper used MySQL;
//! this crate provides the equivalent substrate: typed relations, a logical
//! query plan covering selection / projection / equi-join / grouping /
//! aggregation / `DISTINCT` / `LIMIT`, a deterministic evaluator, and
//! single-tuple **deltas** which represent support databases without copying
//! the base instance.
//!
//! ## Example
//!
//! ```
//! use qp_qdb::{Database, Relation, Schema, ColumnType, Value, Query, Expr, AggFunc};
//!
//! let schema = Schema::new(vec![
//!     ("name", ColumnType::Str),
//!     ("gender", ColumnType::Str),
//!     ("age", ColumnType::Int),
//! ]);
//! let mut users = Relation::new(schema);
//! users.push(vec!["Abe".into(), "m".into(), Value::Int(18)]).unwrap();
//! users.push(vec!["Alice".into(), "f".into(), Value::Int(20)]).unwrap();
//!
//! let mut db = Database::new();
//! db.add_table("User", users);
//!
//! // SELECT count(*) FROM User WHERE gender = 'f'
//! let q = Query::scan("User")
//!     .filter(Expr::col("gender").eq(Expr::lit("f")))
//!     .aggregate(vec![], vec![(AggFunc::Count, None, "cnt")]);
//!
//! let out = q.evaluate(&db).unwrap();
//! assert_eq!(out.rows()[0][0], Value::Int(1));
//! ```

mod database;
mod delta;
mod error;
mod expr;
mod instance;
mod plan;
mod relation;
mod schema;
mod value;

pub mod eval;
pub mod pretty;

pub use database::Database;
pub use delta::{CellChange, Delta, DeltaInstance};
pub use error::QdbError;
pub use eval::RowPath;
pub use expr::{BinOp, Expr};
pub use instance::{BaseInstance, Instance};
pub use plan::{AggFunc, Aggregate, Query};
pub use relation::{Relation, Tuple};
pub use schema::{ColumnType, Schema};
pub use value::Value;

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn doc_example_runs() {
        let schema = Schema::new(vec![
            ("name", ColumnType::Str),
            ("gender", ColumnType::Str),
            ("age", ColumnType::Int),
        ]);
        let mut users = Relation::new(schema);
        users
            .push(vec!["Abe".into(), "m".into(), Value::Int(18)])
            .unwrap();
        users
            .push(vec!["Alice".into(), "f".into(), Value::Int(20)])
            .unwrap();
        let mut db = Database::new();
        db.add_table("User", users);
        let q = Query::scan("User")
            .filter(Expr::col("gender").eq(Expr::lit("f")))
            .aggregate(vec![], vec![(AggFunc::Count, None, "cnt")]);
        let out = q.evaluate(&db).unwrap();
        assert_eq!(out.rows()[0][0], Value::Int(1));
    }
}
