//! Quickstart: price a handful of queries over a tiny dataset, end to end.
//!
//! ```bash
//! cargo run --example quickstart
//! ```
//!
//! Walks through the full pipeline of the paper using the builder API: give
//! the broker the seller's database, the anticipated buyer queries with
//! their valuations, and the name of a registry algorithm; it samples the
//! support set, computes conflict sets, runs the algorithm, and quotes
//! arbitrage-free prices.

use query_pricing::market::{Broker, SupportConfig};
use query_pricing::qdb::{AggFunc, ColumnType, Database, Expr, Query, Relation, Schema, Value};

fn main() {
    // 1. The seller's dataset: the User relation from Figure 1 of the paper.
    let mut users = Relation::new(Schema::new(vec![
        ("uid", ColumnType::Int),
        ("name", ColumnType::Str),
        ("gender", ColumnType::Str),
        ("age", ColumnType::Int),
    ]));
    for (uid, name, gender, age) in [
        (1, "Abe", "m", 18),
        (2, "Alice", "f", 20),
        (3, "Bob", "m", 25),
        (4, "Cathy", "f", 22),
        (5, "Dan", "m", 31),
        (6, "Eve", "f", 27),
    ] {
        users
            .push(vec![
                Value::Int(uid),
                name.into(),
                gender.into(),
                Value::Int(age),
            ])
            .unwrap();
    }
    let mut db = Database::new();
    db.add_table("User", users);

    // 2. Anticipated buyer queries and their valuations (from market research).
    let buyers: Vec<(Query, f64)> = vec![
        (
            Query::scan("User")
                .filter(Expr::col("gender").eq(Expr::lit("f")))
                .aggregate(vec![], vec![(AggFunc::Count, None, "cnt")]),
            10.0,
        ),
        (
            Query::scan("User").aggregate(vec!["gender"], vec![(AggFunc::Avg, Some("age"), "avg")]),
            25.0,
        ),
        (Query::scan("User").project_cols(&["name"]), 18.0),
        (Query::scan("User"), 60.0),
    ];

    // 3. Database -> support -> algorithm (by registry name) -> broker.
    let broker = Broker::builder(db)
        .support_config(SupportConfig::with_size(200))
        .algorithm("LPIP")
        .anticipate_all(buyers.iter().cloned())
        .build()
        .expect("LPIP is a registered algorithm");

    // 4. Quote each buyer's query — more informative queries always cost at
    //    least as much.
    for (q, v) in &buyers {
        let quote = broker.quote(q);
        println!(
            "bundle of {:>3} support DBs, valuation {:>5.1} -> price {:>6.2}  {}",
            quote.conflict_set.len(),
            v,
            quote.price,
            if quote.price <= *v {
                "(buyer purchases)"
            } else {
                "(too expensive)"
            }
        );
    }
}
