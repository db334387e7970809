//! Property-based equivalence of the two conflict engines, plus structural
//! invariants of conflict sets.
//!
//! The delta-aware engine takes incremental shortcuts for single-table query
//! shapes; these tests pit it against the naive engine (full re-evaluation)
//! on randomized databases, support sets, and a pool of query shapes covering
//! every fast path and the fallback.

use proptest::prelude::*;
use qp_market::{
    ConflictEngine, DeltaConflictEngine, NaiveConflictEngine, ParallelConflictEngine,
    SupportConfig, SupportSet,
};
use qp_qdb::{AggFunc, ColumnType, Database, Expr, Query, Relation, Schema, Value};

#[derive(Debug, Clone)]
struct RandomDb {
    rows: Vec<(u8, i64, u8, f64)>,
    seed: u64,
    support: usize,
}

fn db_strategy() -> impl Strategy<Value = RandomDb> {
    (
        proptest::collection::vec((0u8..4, -30i64..30, 0u8..3, -50.0f64..50.0), 4..30),
        0u64..1000,
        5usize..40,
    )
        .prop_map(|(rows, seed, support)| RandomDb {
            rows,
            seed,
            support,
        })
}

fn build(rdb: &RandomDb) -> Database {
    let schema = Schema::new(vec![
        ("category", ColumnType::Str),
        ("amount", ColumnType::Int),
        ("region", ColumnType::Str),
        ("price", ColumnType::Float),
    ]);
    let mut rel = Relation::new(schema);
    for (c, a, r, p) in &rdb.rows {
        rel.push(vec![
            format!("cat{c}").into(),
            Value::Int(*a),
            format!("region{r}").into(),
            Value::Float(*p),
        ])
        .unwrap();
    }
    let mut db = Database::new();
    db.add_table("Sales", rel);
    db
}

fn query_pool() -> Vec<Query> {
    vec![
        Query::scan("Sales"),
        Query::scan("Sales")
            .filter(Expr::col("amount").ge(Expr::lit(0)))
            .project_cols(&["category", "amount"]),
        Query::scan("Sales")
            .filter(Expr::col("category").eq(Expr::lit("cat1")))
            .project_cols(&["amount"]),
        Query::scan("Sales").project_cols(&["region"]).distinct(),
        Query::scan("Sales")
            .filter(Expr::col("amount").between(Expr::lit(-10), Expr::lit(10)))
            .project_cols(&["category"])
            .distinct(),
        Query::scan("Sales").aggregate(
            vec![],
            vec![
                (AggFunc::Count, None, "c"),
                (AggFunc::Sum, Some("amount"), "s"),
                (AggFunc::Min, Some("amount"), "mn"),
                (AggFunc::Max, Some("amount"), "mx"),
            ],
        ),
        Query::scan("Sales").aggregate(
            vec!["category"],
            vec![
                (AggFunc::Avg, Some("amount"), "a"),
                (AggFunc::Count, None, "c"),
            ],
        ),
        Query::scan("Sales")
            .filter(Expr::col("region").ne(Expr::lit("region0")))
            .aggregate(
                vec!["region"],
                vec![(AggFunc::CountDistinct, Some("category"), "d")],
            ),
        // Float sums and averages depend on summation order, so these pin
        // the aggregate path to the overlay's row order.
        Query::scan("Sales").aggregate(
            vec![],
            vec![
                (AggFunc::Sum, Some("price"), "s"),
                (AggFunc::Avg, Some("price"), "a"),
            ],
        ),
        Query::scan("Sales")
            .filter(Expr::col("price").gt(Expr::lit(-25.0)))
            .aggregate(
                vec!["region"],
                vec![
                    (AggFunc::Sum, Some("price"), "s"),
                    (AggFunc::Avg, Some("price"), "a"),
                ],
            ),
        // Join shape exercises the naive fallback inside the delta engine.
        Query::scan("Sales")
            .join(Query::scan("Sales"), vec![("category", "category")])
            .aggregate(vec![], vec![(AggFunc::Count, None, "c")]),
        Query::scan("Sales").limit(3),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn delta_engine_agrees_with_naive_engine(rdb in db_strategy(), qi in 0usize..12) {
        let db = build(&rdb);
        let support = SupportSet::generate(
            &db,
            &SupportConfig { size: rdb.support, seed: rdb.seed, ..Default::default() },
        );
        let naive = NaiveConflictEngine::new(&db, &support);
        let fast = DeltaConflictEngine::new(&db, &support);
        let q = &query_pool()[qi];
        prop_assert_eq!(naive.conflict_set(q), fast.conflict_set(q));
    }

    #[test]
    fn conflict_sets_iterate_ascending_and_in_range(rdb in db_strategy(), qi in 0usize..12) {
        let db = build(&rdb);
        let support = SupportSet::generate(
            &db,
            &SupportConfig { size: rdb.support, seed: rdb.seed, ..Default::default() },
        );
        let fast = DeltaConflictEngine::new(&db, &support);
        let set = fast.conflict_set(&query_pool()[qi]);
        let items = set.to_vec();
        prop_assert!(items.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(items.iter().all(|&i| i < support.len()));
        prop_assert_eq!(items.len(), set.len());
        prop_assert!(items.iter().all(|&i| set.contains(i)));
    }

    #[test]
    fn full_scan_dominates_every_single_table_query(rdb in db_strategy(), qi in 0usize..10) {
        // Information monotonicity: the full relation determines every query
        // over it, so its conflict set contains every other conflict set.
        let db = build(&rdb);
        let support = SupportSet::generate(
            &db,
            &SupportConfig { size: rdb.support, seed: rdb.seed, ..Default::default() },
        );
        let fast = DeltaConflictEngine::new(&db, &support);
        let full = fast.conflict_set(&Query::scan("Sales"));
        let other = fast.conflict_set(&query_pool()[qi]);
        prop_assert!(other.is_subset(&full));
    }

    #[test]
    fn parallel_engine_agrees_with_serial_engine(rdb in db_strategy(), threads in 1usize..6) {
        let db = build(&rdb);
        let support = SupportSet::generate(
            &db,
            &SupportConfig { size: rdb.support, seed: rdb.seed, ..Default::default() },
        );
        let serial = DeltaConflictEngine::new(&db, &support);
        // Forced: `with_threads` clamps to hardware parallelism, which on a
        // single-core runner would quietly make this serial-vs-serial.
        let parallel = ParallelConflictEngine::with_threads_forced(&db, &support, threads);
        let qs = query_pool();
        prop_assert_eq!(parallel.conflict_sets(&qs), serial.conflict_sets(&qs));
    }
}
