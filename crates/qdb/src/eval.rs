//! Query-plan evaluation.
//!
//! Rows pass between operators as `Cow<'_, Tuple>`, so the evaluator copies
//! only what it builds: `Scan` borrows rows from the instance, `Filter`,
//! `Distinct` and `Limit` pass them on without copying, and only `Project`,
//! `Join` and `Aggregate` build new rows. Predicates compare columns and
//! literals by reference. Each operator still collects its output before the
//! next one runs, and only the final [`Relation`] owns its rows.
//!
//! Joins are hash joins, grouping uses a hash map keyed by the grouping
//! values, and aggregate results are emitted in sorted group-key order, so
//! evaluation is fully deterministic for a given instance.
//!
//! [`RowPath`] applies a filter/project chain to one row at a time with the
//! same bound expressions, and [`aggregate`] aggregates any sequence of
//! rows; the delta conflict engine uses both on single perturbed tuples.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

use crate::expr::BoundExpr;
use crate::plan::{AggFunc, Aggregate};
use crate::relation::Tuple;
use crate::{ColumnType, Expr, Instance, QdbError, Query, Relation, Schema, Value};

/// Rows flowing between operators: borrowed from the instance where an
/// operator passes them on unchanged, owned where it builds them.
type Rows<'a> = Vec<Cow<'a, Tuple>>;

/// Evaluates a query plan against a database instance.
pub fn evaluate<I: Instance + ?Sized>(q: &Query, db: &I) -> Result<Relation, QdbError> {
    let (schema, rows) = eval_rows(q, db)?;
    Relation::from_rows(
        schema.into_owned(),
        rows.into_iter().map(Cow::into_owned).collect(),
    )
}

/// The output schema and rows of `q`, borrowing from `db` what the plan
/// does not change.
fn eval_rows<'a, I: Instance + ?Sized>(
    q: &Query,
    db: &'a I,
) -> Result<(Cow<'a, Schema>, Rows<'a>), QdbError> {
    Ok(match q {
        Query::Scan { table } => (
            Cow::Borrowed(db.table_schema(table)?),
            db.scan(table)?.collect(),
        ),
        Query::Filter { input, predicate } => {
            let (schema, mut rows) = eval_rows(input, db)?;
            let bound = predicate.bind(&schema)?;
            rows.retain(|r| bound.eval_bool(r));
            (schema, rows)
        }
        Query::Project { input, exprs } => {
            let (schema, rows) = eval_rows(input, db)?;
            let (bound, out) = bind_projection(exprs, &schema)?;
            let rows = rows
                .iter()
                .map(|r| Cow::Owned(project(&bound, r)))
                .collect();
            (Cow::Owned(out), rows)
        }
        Query::Join { left, right, on } => {
            let (ls, lrows) = eval_rows(left, db)?;
            let (rs, rrows) = eval_rows(right, db)?;
            let (schema, rows) = hash_join(&ls, &lrows, &rs, &rrows, on)?;
            (Cow::Owned(schema), rows)
        }
        Query::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let (schema, rows) = eval_rows(input, db)?;
            let (schema, rows) =
                aggregate(&schema, rows.iter().map(|r| &**r), group_by, aggs)?.into_parts();
            (
                Cow::Owned(schema),
                rows.into_iter().map(Cow::Owned).collect(),
            )
        }
        Query::Distinct { input } => {
            let (schema, mut rows) = eval_rows(input, db)?;
            let mut seen: HashSet<&Tuple> = HashSet::with_capacity(rows.len());
            let first: Vec<bool> = rows.iter().map(|r| seen.insert(&**r)).collect();
            let mut first = first.into_iter();
            rows.retain(|_| first.next() == Some(true));
            (schema, rows)
        }
        Query::Limit { input, n } => {
            let (schema, mut rows) = eval_rows(input, db)?;
            rows.truncate(*n);
            (schema, rows)
        }
    })
}

/// Binds projection expressions to `schema`, with the output schema.
fn bind_projection(
    exprs: &[(Expr, String)],
    schema: &Schema,
) -> Result<(Vec<BoundExpr>, Schema), QdbError> {
    let mut bound = Vec::with_capacity(exprs.len());
    let mut out = Schema::empty();
    for (e, name) in exprs {
        bound.push(e.bind(schema)?);
        out.push(name.clone(), projected_type(e, schema));
    }
    Ok((bound, out))
}

/// One projected row.
fn project(bound: &[BoundExpr], row: &[Value]) -> Tuple {
    bound.iter().map(|b| b.eval(row).into_owned()).collect()
}

/// Output type of a projected expression.
fn projected_type(e: &Expr, schema: &Schema) -> ColumnType {
    match e {
        Expr::Col(name) => schema
            .index_of(name)
            .map(|i| schema.column_type(i))
            .unwrap_or(ColumnType::Str),
        Expr::Lit(Value::Int(_)) => ColumnType::Int,
        Expr::Lit(Value::Float(_)) => ColumnType::Float,
        Expr::Lit(Value::Bool(_)) => ColumnType::Bool,
        Expr::Lit(_) => ColumnType::Str,
        Expr::Binary { op, .. } => match op {
            crate::BinOp::Add | crate::BinOp::Sub | crate::BinOp::Mul | crate::BinOp::Div => {
                ColumnType::Float
            }
            _ => ColumnType::Bool,
        },
        Expr::Not(_)
        | Expr::Like { .. }
        | Expr::Between { .. }
        | Expr::InList { .. }
        | Expr::IsNull(_) => ColumnType::Bool,
    }
}

/// A `[Filter | Project]*` chain over one `Scan`, bound once to the scanned
/// table's schema and applied to one row at a time.
///
/// Applying the path to every row of the table, in order, yields exactly
/// the rows that evaluating the chain does. A row that passes every filter
/// untouched stays borrowed.
#[derive(Debug)]
pub struct RowPath {
    /// Steps from the scan upwards.
    steps: Vec<Step>,
    schema: Schema,
}

#[derive(Debug)]
enum Step {
    Filter(BoundExpr),
    Project(Vec<BoundExpr>),
}

impl RowPath {
    /// Binds `chain` to `base`, the schema of the table it scans. Fails
    /// where evaluating the chain would: on a column that is not in scope,
    /// or on a plan that is not a filter/project chain over one scan (see
    /// [`Query::chain_table`]).
    pub fn new(chain: &Query, base: &Schema) -> Result<RowPath, QdbError> {
        match chain {
            Query::Scan { .. } => Ok(RowPath {
                steps: Vec::new(),
                schema: base.clone(),
            }),
            Query::Filter { input, predicate } => {
                let mut path = RowPath::new(input, base)?;
                path.steps.push(Step::Filter(predicate.bind(&path.schema)?));
                Ok(path)
            }
            Query::Project { input, exprs } => {
                let mut path = RowPath::new(input, base)?;
                let (bound, schema) = bind_projection(exprs, &path.schema)?;
                path.steps.push(Step::Project(bound));
                path.schema = schema;
                Ok(path)
            }
            _ => Err(QdbError::TypeError(
                "a row path binds only filter/project chains over one scan".into(),
            )),
        }
    }

    /// The schema of the chain's output.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The chain's output for the single input `row`: `None` if a filter
    /// drops it.
    pub fn apply<'r>(&self, row: &'r Tuple) -> Option<Cow<'r, Tuple>> {
        let mut row = Cow::Borrowed(row);
        for step in &self.steps {
            match step {
                Step::Filter(p) => {
                    if !p.eval_bool(&row) {
                        return None;
                    }
                }
                Step::Project(exprs) => row = Cow::Owned(project(exprs, &row)),
            }
        }
        Some(row)
    }
}

/// Hash equi-join. Builds the index on the right input and probes it with
/// each left row in order, so output rows follow the left input's order,
/// and for each left row the right input's order.
fn hash_join<'a>(
    ls: &Schema,
    lrows: &[Cow<'_, Tuple>],
    rs: &Schema,
    rrows: &[Cow<'_, Tuple>],
    on: &[(String, String)],
) -> Result<(Schema, Rows<'a>), QdbError> {
    let mut l_keys = Vec::with_capacity(on.len());
    let mut r_keys = Vec::with_capacity(on.len());
    for (lc, rc) in on {
        l_keys.push(ls.index_of(lc)?);
        r_keys.push(rs.index_of(rc)?);
    }

    let mut index: HashMap<Vec<&Value>, Vec<usize>> = HashMap::with_capacity(rrows.len());
    let mut key: Vec<&Value> = Vec::with_capacity(on.len());
    for (i, row) in rrows.iter().enumerate() {
        key.clear();
        key.extend(r_keys.iter().map(|&k| &row[k]));
        if key.iter().any(|v| v.is_null()) {
            continue; // NULL keys never join.
        }
        match index.get_mut(key.as_slice()) {
            Some(matches) => matches.push(i),
            None => {
                index.insert(key.clone(), vec![i]);
            }
        }
    }

    let schema = ls.join(rs, "r");
    let mut rows = Vec::new();
    for lrow in lrows {
        key.clear();
        key.extend(l_keys.iter().map(|&k| &lrow[k]));
        if key.iter().any(|v| v.is_null()) {
            continue;
        }
        if let Some(matches) = index.get(key.as_slice()) {
            for &ri in matches {
                let mut out = Vec::with_capacity(schema.arity());
                out.extend_from_slice(lrow);
                out.extend_from_slice(&rrows[ri]);
                rows.push(Cow::Owned(out));
            }
        }
    }
    Ok((schema, rows))
}

/// Running state of a single aggregate over rows that live for `'r`.
#[derive(Debug, Clone)]
enum AggState<'r> {
    Count(i64),
    CountDistinct(HashSet<&'r Value>),
    Sum {
        total: f64,
        all_int: bool,
        seen: bool,
    },
    Avg {
        total: f64,
        count: i64,
    },
    Min(Option<&'r Value>),
    Max(Option<&'r Value>),
}

impl<'r> AggState<'r> {
    fn new(func: AggFunc) -> AggState<'r> {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::CountDistinct => AggState::CountDistinct(HashSet::new()),
            AggFunc::Sum => AggState::Sum {
                total: 0.0,
                all_int: true,
                seen: false,
            },
            AggFunc::Avg => AggState::Avg {
                total: 0.0,
                count: 0,
            },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    fn update(&mut self, value: Option<&'r Value>) {
        match self {
            AggState::Count(c) => {
                // COUNT(*) gets `None` as the column and counts every row;
                // COUNT(col) skips NULLs.
                match value {
                    None => *c += 1,
                    Some(v) if !v.is_null() => *c += 1,
                    _ => {}
                }
            }
            AggState::CountDistinct(set) => {
                if let Some(v) = value {
                    if !v.is_null() {
                        set.insert(v);
                    }
                }
            }
            AggState::Sum {
                total,
                all_int,
                seen,
            } => {
                if let Some(v) = value {
                    if let Some(x) = v.as_f64() {
                        *total += x;
                        *seen = true;
                        if !matches!(v, Value::Int(_) | Value::Bool(_)) {
                            *all_int = false;
                        }
                    }
                }
            }
            AggState::Avg { total, count } => {
                if let Some(v) = value {
                    if let Some(x) = v.as_f64() {
                        *total += x;
                        *count += 1;
                    }
                }
            }
            AggState::Min(best) => {
                if let Some(v) = value {
                    if !v.is_null() && best.map(|b| v < b).unwrap_or(true) {
                        *best = Some(v);
                    }
                }
            }
            AggState::Max(best) => {
                if let Some(v) = value {
                    if !v.is_null() && best.map(|b| v > b).unwrap_or(true) {
                        *best = Some(v);
                    }
                }
            }
        }
    }

    fn finish(self) -> Value {
        match self {
            AggState::Count(c) => Value::Int(c),
            AggState::CountDistinct(set) => Value::Int(set.len() as i64),
            AggState::Sum {
                total,
                all_int,
                seen,
            } => {
                if !seen {
                    Value::Null
                // float-eq: fract() of an integral f64 is exactly 0.0 —
                // the standard integral-valued test.
                } else if all_int && total.fract() == 0.0 && total.abs() < i64::MAX as f64 {
                    Value::Int(total as i64)
                } else {
                    Value::Float(total)
                }
            }
            AggState::Avg { total, count } => {
                if count == 0 {
                    Value::Null
                } else {
                    Value::Float(total / count as f64)
                }
            }
            AggState::Min(best) | AggState::Max(best) => best.cloned().unwrap_or(Value::Null),
        }
    }
}

/// Output column type of an aggregate.
fn agg_output_type(func: AggFunc, input_type: Option<ColumnType>) -> ColumnType {
    match func {
        AggFunc::Count | AggFunc::CountDistinct => ColumnType::Int,
        AggFunc::Avg => ColumnType::Float,
        AggFunc::Sum => input_type.unwrap_or(ColumnType::Float),
        AggFunc::Min | AggFunc::Max => input_type.unwrap_or(ColumnType::Str),
    }
}

/// Grouping + aggregation of `rows`, whose columns `schema` names: the
/// `Aggregate` operator. Each group folds its rows in the order given, which
/// fixes the last bits of a float `SUM` or `AVG`; groups come out sorted by
/// key.
pub fn aggregate<'r>(
    schema: &Schema,
    rows: impl IntoIterator<Item = &'r Tuple>,
    group_by: &[String],
    aggs: &[Aggregate],
) -> Result<Relation, QdbError> {
    let key_idx: Vec<usize> = group_by
        .iter()
        .map(|c| schema.index_of(c))
        .collect::<Result<_, _>>()?;
    let agg_idx: Vec<Option<usize>> = aggs
        .iter()
        .map(|a| match &a.column {
            Some(c) => schema.index_of(c).map(Some),
            None => Ok(None),
        })
        .collect::<Result<_, _>>()?;

    // Output schema: group columns followed by aggregate aliases.
    let mut out_schema = Schema::empty();
    for (name, &i) in group_by.iter().zip(&key_idx) {
        out_schema.push(name.clone(), schema.column_type(i));
    }
    for (a, idx) in aggs.iter().zip(&agg_idx) {
        out_schema.push(
            a.alias.clone(),
            agg_output_type(a.func, idx.map(|i| schema.column_type(i))),
        );
    }

    // Groups in order of first appearance, and each key's group index.
    let mut groups: Vec<(Vec<&Value>, Vec<AggState>)> = Vec::new();
    let mut index: HashMap<Vec<&Value>, usize> = HashMap::new();
    let mut key: Vec<&Value> = Vec::with_capacity(key_idx.len());
    for row in rows {
        key.clear();
        key.extend(key_idx.iter().map(|&i| &row[i]));
        let g = match index.get(key.as_slice()) {
            Some(&g) => g,
            None => {
                index.insert(key.clone(), groups.len());
                groups.push((
                    key.clone(),
                    aggs.iter().map(|a| AggState::new(a.func)).collect(),
                ));
                groups.len() - 1
            }
        };
        for (state, idx) in groups[g].1.iter_mut().zip(&agg_idx) {
            state.update(idx.map(|i| &row[i]));
        }
    }

    // A global aggregate over an empty input still produces one row.
    if groups.is_empty() && group_by.is_empty() {
        groups.push((
            Vec::new(),
            aggs.iter().map(|a| AggState::new(a.func)).collect(),
        ));
    }

    groups.sort_by(|a, b| a.0.cmp(&b.0));
    let rows = groups
        .into_iter()
        .map(|(key, states)| {
            key.into_iter()
                .cloned()
                .chain(states.into_iter().map(AggState::finish))
                .collect()
        })
        .collect();
    Relation::from_rows(out_schema, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AggFunc, ColumnType, Database, Expr, Query, Schema, Value};

    /// The `User` relation from Figure 1 of the paper.
    fn paper_db() -> Database {
        let mut rel = Relation::new(Schema::new(vec![
            ("uid", ColumnType::Int),
            ("name", ColumnType::Str),
            ("gender", ColumnType::Str),
            ("age", ColumnType::Int),
        ]));
        rel.push(vec![
            Value::Int(1),
            "Abe".into(),
            "m".into(),
            Value::Int(18),
        ])
        .unwrap();
        rel.push(vec![
            Value::Int(2),
            "Alice".into(),
            "f".into(),
            Value::Int(20),
        ])
        .unwrap();
        rel.push(vec![
            Value::Int(3),
            "Bob".into(),
            "m".into(),
            Value::Int(25),
        ])
        .unwrap();
        rel.push(vec![
            Value::Int(4),
            "Cathy".into(),
            "f".into(),
            Value::Int(22),
        ])
        .unwrap();
        let mut db = Database::new();
        db.add_table("User", rel);
        db
    }

    #[test]
    fn q1_count_female_users() {
        // Q1 = SELECT count(*) FROM User WHERE gender = 'f'
        let db = paper_db();
        let q = Query::scan("User")
            .filter(Expr::col("gender").eq(Expr::lit("f")))
            .aggregate(vec![], vec![(AggFunc::Count, None, "cnt")]);
        let out = q.evaluate(&db).unwrap();
        assert_eq!(out.rows(), &[vec![Value::Int(2)]]);
    }

    #[test]
    fn q2_group_by_gender() {
        // Q2 = SELECT gender, count(*) FROM User GROUP BY gender
        let db = paper_db();
        let q = Query::scan("User").aggregate(vec!["gender"], vec![(AggFunc::Count, None, "cnt")]);
        let out = q.evaluate(&db).unwrap();
        assert_eq!(out.len(), 2);
        // Sorted by group key: 'f' before 'm'.
        assert_eq!(out.rows()[0], vec![Value::from("f"), Value::Int(2)]);
        assert_eq!(out.rows()[1], vec![Value::from("m"), Value::Int(2)]);
    }

    #[test]
    fn q3_avg_age_of_female_users() {
        // Q3 = SELECT AVG(age) FROM User WHERE gender = 'f'
        let db = paper_db();
        let q = Query::scan("User")
            .filter(Expr::col("gender").eq(Expr::lit("f")))
            .aggregate(vec![], vec![(AggFunc::Avg, Some("age"), "avg_age")]);
        let out = q.evaluate(&db).unwrap();
        assert_eq!(out.rows()[0][0], Value::Float(21.0));
    }

    #[test]
    fn sum_min_max_and_count_distinct() {
        let db = paper_db();
        let q = Query::scan("User").aggregate(
            vec![],
            vec![
                (AggFunc::Sum, Some("age"), "s"),
                (AggFunc::Min, Some("age"), "mn"),
                (AggFunc::Max, Some("age"), "mx"),
                (AggFunc::CountDistinct, Some("gender"), "g"),
            ],
        );
        let out = q.evaluate(&db).unwrap();
        assert_eq!(
            out.rows()[0],
            vec![
                Value::Int(85),
                Value::Int(18),
                Value::Int(25),
                Value::Int(2)
            ]
        );
    }

    #[test]
    fn projection_and_selection() {
        let db = paper_db();
        let q = Query::scan("User")
            .filter(Expr::col("name").like("A%"))
            .project_cols(&["name"]);
        let out = q.evaluate(&db).unwrap();
        let mut names: Vec<String> = out.rows().iter().map(|r| r[0].to_string()).collect();
        names.sort();
        assert_eq!(names, vec!["Abe", "Alice"]);
        assert_eq!(out.schema().column_name(0), "name");
        assert_eq!(out.schema().column_type(0), ColumnType::Str);
    }

    #[test]
    fn distinct_and_limit() {
        let db = paper_db();
        let q = Query::scan("User").project_cols(&["gender"]).distinct();
        let out = q.evaluate(&db).unwrap();
        assert_eq!(out.len(), 2);

        let q = Query::scan("User").limit(3);
        let out = q.evaluate(&db).unwrap();
        assert_eq!(out.len(), 3);

        let q = Query::scan("User").limit(0);
        assert_eq!(q.evaluate(&db).unwrap().len(), 0);
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let db = paper_db();
        let q = Query::scan("User")
            .filter(Expr::col("age").gt(Expr::lit(1000)))
            .aggregate(
                vec![],
                vec![
                    (AggFunc::Count, None, "c"),
                    (AggFunc::Sum, Some("age"), "s"),
                    (AggFunc::Min, Some("age"), "m"),
                    (AggFunc::Avg, Some("age"), "a"),
                ],
            );
        let out = q.evaluate(&db).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0], Value::Int(0));
        assert!(out.rows()[0][1].is_null());
        assert!(out.rows()[0][2].is_null());
        assert!(out.rows()[0][3].is_null());
    }

    #[test]
    fn grouped_aggregate_over_empty_input_is_empty() {
        let db = paper_db();
        let q = Query::scan("User")
            .filter(Expr::col("age").gt(Expr::lit(1000)))
            .aggregate(vec!["gender"], vec![(AggFunc::Count, None, "c")]);
        assert_eq!(q.evaluate(&db).unwrap().len(), 0);
    }

    fn two_table_db() -> Database {
        let mut db = paper_db();
        let mut lang = Relation::new(Schema::new(vec![
            ("uid", ColumnType::Int),
            ("lang", ColumnType::Str),
        ]));
        lang.push(vec![Value::Int(1), "en".into()]).unwrap();
        lang.push(vec![Value::Int(2), "en".into()]).unwrap();
        lang.push(vec![Value::Int(2), "fr".into()]).unwrap();
        lang.push(vec![Value::Int(9), "de".into()]).unwrap();
        db.add_table("Lang", lang);
        db
    }

    #[test]
    fn hash_join_basic() {
        let db = two_table_db();
        let q = Query::scan("User")
            .join(Query::scan("Lang"), vec![("uid", "uid")])
            .project_cols(&["name", "lang"]);
        let out = q.evaluate(&db).unwrap();
        let mut pairs: Vec<(String, String)> = out
            .rows()
            .iter()
            .map(|r| (r[0].to_string(), r[1].to_string()))
            .collect();
        pairs.sort();
        assert_eq!(
            pairs,
            vec![
                ("Abe".to_string(), "en".to_string()),
                ("Alice".to_string(), "en".to_string()),
                ("Alice".to_string(), "fr".to_string()),
            ]
        );
    }

    #[test]
    fn join_column_name_collisions_are_prefixed() {
        let db = two_table_db();
        let q = Query::scan("User").join(Query::scan("Lang"), vec![("uid", "uid")]);
        let out = q.evaluate(&db).unwrap();
        assert_eq!(out.schema().column_name(4), "r.uid");
    }

    #[test]
    fn join_then_aggregate() {
        let db = two_table_db();
        // SELECT lang, count(*) FROM User JOIN Lang USING (uid) GROUP BY lang
        let q = Query::scan("User")
            .join(Query::scan("Lang"), vec![("uid", "uid")])
            .aggregate(vec!["lang"], vec![(AggFunc::Count, None, "c")]);
        let out = q.evaluate(&db).unwrap();
        assert_eq!(out.rows()[0], vec![Value::from("en"), Value::Int(2)]);
        assert_eq!(out.rows()[1], vec![Value::from("fr"), Value::Int(1)]);
    }

    #[test]
    fn null_join_keys_do_not_match() {
        let mut db = Database::new();
        let mut l = Relation::new(Schema::new(vec![("k", ColumnType::Int)]));
        l.push(vec![Value::Null]).unwrap();
        l.push(vec![Value::Int(1)]).unwrap();
        let mut r = Relation::new(Schema::new(vec![("k", ColumnType::Int)]));
        r.push(vec![Value::Null]).unwrap();
        r.push(vec![Value::Int(1)]).unwrap();
        db.add_table("L", l);
        db.add_table("R", r);
        let q = Query::scan("L").join(Query::scan("R"), vec![("k", "k")]);
        assert_eq!(q.evaluate(&db).unwrap().len(), 1);
    }

    #[test]
    fn row_path_applies_a_chain_one_row_at_a_time() {
        let db = paper_db();
        let rel = db.table("User").unwrap();
        let chain = Query::scan("User")
            .filter(Expr::col("age").gt(Expr::lit(18)))
            .project(vec![
                (Expr::col("name"), "n"),
                (Expr::col("age").add(Expr::lit(1)), "next"),
            ])
            .filter(Expr::col("next").lt(Expr::lit(25)));
        let path = RowPath::new(&chain, rel.schema()).unwrap();
        let rows: Vec<Tuple> = rel
            .rows()
            .iter()
            .filter_map(|r| path.apply(r))
            .map(Cow::into_owned)
            .collect();
        let out = chain.evaluate(&db).unwrap();
        assert_eq!(rows, out.rows());
        assert_eq!(path.schema(), out.schema());

        // A row that only passes filters stays borrowed.
        let filter = Query::scan("User").filter(Expr::col("gender").eq(Expr::lit("f")));
        let path = RowPath::new(&filter, rel.schema()).unwrap();
        assert!(matches!(path.apply(&rel.rows()[1]), Some(Cow::Borrowed(_))));
        assert!(path.apply(&rel.rows()[0]).is_none());

        // Binding fails where evaluation does, and on anything but a chain.
        let unknown = Query::scan("User").filter(Expr::col("nope").eq(Expr::lit(1)));
        assert!(RowPath::new(&unknown, rel.schema()).is_err());
        assert!(RowPath::new(&Query::scan("User").distinct(), rel.schema()).is_err());
    }

    #[test]
    fn aggregate_folds_each_group_in_the_order_given() {
        let schema = Schema::new(vec![("g", ColumnType::Str), ("x", ColumnType::Float)]);
        let rows: Vec<Tuple> = [1e16, 1.0, -1e16, 1.0]
            .into_iter()
            .map(|x| vec!["a".into(), Value::Float(x)])
            .collect();
        let sum = |order: &[usize]| {
            let out = aggregate(
                &schema,
                order.iter().map(|&i| &rows[i]),
                &["g".to_string()],
                &[Aggregate {
                    func: AggFunc::Sum,
                    column: Some("x".into()),
                    alias: "s".into(),
                }],
            )
            .unwrap();
            out.rows()[0][1].clone()
        };
        // Float addition is not associative: the order of the rows decides.
        assert_eq!(sum(&[0, 1, 2, 3]), Value::Float(1.0));
        assert_eq!(sum(&[0, 2, 1, 3]), Value::Float(2.0));
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let db = paper_db();
        assert!(Query::scan("Nope").evaluate(&db).is_err());
        let q = Query::scan("User").filter(Expr::col("nope").eq(Expr::lit(1)));
        assert!(q.evaluate(&db).is_err());
        let q = Query::scan("User").aggregate(vec!["nope"], vec![(AggFunc::Count, None, "c")]);
        assert!(q.evaluate(&db).is_err());
    }
}
