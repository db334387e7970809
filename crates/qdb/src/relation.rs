//! Relations (tables) and result sets.

use crate::{QdbError, Schema, Value};

/// A tuple is an ordered list of values matching a schema.
pub type Tuple = Vec<Value>;

/// An in-memory relation: a schema plus a bag of tuples.
///
/// Relations double as query results. Result comparison — the core operation
/// of conflict-set computation — uses *bag semantics*: two results are equal
/// iff they contain the same multiset of tuples, regardless of row order.
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    schema: Schema,
    rows: Vec<Tuple>,
}

impl Relation {
    /// Creates an empty relation with the given schema.
    pub fn new(schema: Schema) -> Self {
        Relation {
            schema,
            rows: Vec::new(),
        }
    }

    /// Creates a relation from a schema and pre-built rows.
    ///
    /// Returns an error if any row's arity disagrees with the schema.
    pub fn from_rows(schema: Schema, rows: Vec<Tuple>) -> Result<Self, QdbError> {
        for row in &rows {
            if row.len() != schema.arity() {
                return Err(QdbError::ArityMismatch {
                    expected: schema.arity(),
                    got: row.len(),
                });
            }
        }
        Ok(Relation { schema, rows })
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The rows of the relation in insertion order.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Mutable access to the rows (used by the delta machinery).
    pub fn rows_mut(&mut self) -> &mut Vec<Tuple> {
        &mut self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends a tuple, checking arity.
    pub fn push(&mut self, tuple: Tuple) -> Result<(), QdbError> {
        if tuple.len() != self.schema.arity() {
            return Err(QdbError::ArityMismatch {
                expected: self.schema.arity(),
                got: tuple.len(),
            });
        }
        self.rows.push(tuple);
        Ok(())
    }

    /// The rows sorted into a canonical order. Two results are equal under
    /// bag semantics iff their canonical forms are identical.
    pub fn canonical_rows(&self) -> Vec<&Tuple> {
        let mut rows: Vec<&Tuple> = self.rows.iter().collect();
        rows.sort();
        rows
    }

    /// The schema and rows, by value.
    pub(crate) fn into_parts(self) -> (Schema, Vec<Tuple>) {
        (self.schema, self.rows)
    }

    /// Bag-semantics equality with another result set.
    ///
    /// Returns `false` if the schemas have different arity (results of
    /// structurally different queries are never considered equal).
    pub fn same_answer(&self, other: &Relation) -> bool {
        if self.schema.arity() != other.schema.arity() || self.len() != other.len() {
            return false;
        }
        self.canonical_rows() == other.canonical_rows()
    }

    /// A stable 64-bit fingerprint of the canonicalized result, used to
    /// compare query answers cheaply across many support databases.
    pub fn fingerprint(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        self.schema.arity().hash(&mut h);
        for row in self.canonical_rows() {
            for v in row {
                v.hash(&mut h);
            }
            0xfeed_u16.hash(&mut h);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ColumnType;

    fn schema2() -> Schema {
        Schema::new(vec![("a", ColumnType::Int), ("b", ColumnType::Str)])
    }

    #[test]
    fn push_checks_arity() {
        let mut r = Relation::new(schema2());
        assert!(r.push(vec![Value::Int(1), "x".into()]).is_ok());
        assert!(matches!(
            r.push(vec![Value::Int(1)]),
            Err(QdbError::ArityMismatch {
                expected: 2,
                got: 1
            })
        ));
        assert_eq!(r.len(), 1);
        assert!(!r.is_empty());
    }

    #[test]
    fn from_rows_validates() {
        let ok = Relation::from_rows(schema2(), vec![vec![Value::Int(1), "x".into()]]);
        assert!(ok.is_ok());
        let bad = Relation::from_rows(schema2(), vec![vec![Value::Int(1)]]);
        assert!(bad.is_err());
    }

    #[test]
    fn bag_equality_ignores_order() {
        let r1 = Relation::from_rows(
            schema2(),
            vec![
                vec![Value::Int(1), "x".into()],
                vec![Value::Int(2), "y".into()],
            ],
        )
        .unwrap();
        let r2 = Relation::from_rows(
            schema2(),
            vec![
                vec![Value::Int(2), "y".into()],
                vec![Value::Int(1), "x".into()],
            ],
        )
        .unwrap();
        assert!(r1.same_answer(&r2));
        assert_eq!(r1.fingerprint(), r2.fingerprint());
    }

    #[test]
    fn bag_equality_respects_multiplicity() {
        let r1 = Relation::from_rows(
            schema2(),
            vec![
                vec![Value::Int(1), "x".into()],
                vec![Value::Int(1), "x".into()],
            ],
        )
        .unwrap();
        let r2 = Relation::from_rows(schema2(), vec![vec![Value::Int(1), "x".into()]]).unwrap();
        assert!(!r1.same_answer(&r2));
        assert_ne!(r1.fingerprint(), r2.fingerprint());
    }

    #[test]
    fn different_contents_differ() {
        let r1 = Relation::from_rows(schema2(), vec![vec![Value::Int(1), "x".into()]]).unwrap();
        let r2 = Relation::from_rows(schema2(), vec![vec![Value::Int(2), "x".into()]]).unwrap();
        assert!(!r1.same_answer(&r2));
        assert_ne!(r1.fingerprint(), r2.fingerprint());
    }
}
