//! A small data marketplace over the `world` dataset.
//!
//! ```bash
//! cargo run --release --example data_market
//! ```
//!
//! Recreates the setting that motivates the paper's introduction: a seller
//! lists the `world` database, buyers ask aggregate and lookup queries with
//! different willingness to pay, and the broker A/B-tests registry pricing
//! algorithms — swapping the live pricing through `set_pricing(&self, ...)`
//! — before selling. The example also runs the empirical arbitrage checks
//! and prints the per-sale revenue ledger.

use query_pricing::market::{check_all, Broker, PurchaseOutcome, SupportConfig};
use query_pricing::pricing::{algorithms, bounds, Hypergraph, ItemSet};
use query_pricing::qdb::pretty;
use query_pricing::qdb::{AggFunc, Expr, Query};
use query_pricing::workloads::world::{self, WorldConfig};
use query_pricing::workloads::Scale;

fn main() {
    // The seller's dataset.
    let db = world::generate(&WorldConfig::at_scale(Scale::Test));
    println!(
        "world dataset: {} tables, {} tuples",
        db.num_tables(),
        db.total_rows()
    );

    // Buyers: a data analyst, a journalist, a hedge fund, a student.
    let buyers: Vec<(&str, Query, f64)> = vec![
        (
            "analyst: population by continent",
            Query::scan("Country").aggregate(
                vec!["Continent"],
                vec![(AggFunc::Sum, Some("Population"), "pop")],
            ),
            40.0,
        ),
        (
            "journalist: Caribbean countries",
            Query::scan("Country")
                .filter(Expr::col("Region").eq(Expr::lit("Caribbean")))
                .project_cols(&["Name", "Population"]),
            15.0,
        ),
        (
            "hedge fund: the full Country table",
            Query::scan("Country"),
            120.0,
        ),
        (
            "student: number of distinct government forms",
            Query::scan("Country").aggregate(
                vec![],
                vec![(AggFunc::CountDistinct, Some("GovernmentForm"), "g")],
            ),
            5.0,
        ),
        (
            "NGO: average life expectancy in Africa",
            Query::scan("Country")
                .filter(Expr::col("Continent").eq(Expr::lit("Africa")))
                .aggregate(vec![], vec![(AggFunc::Avg, Some("LifeExpectancy"), "le")]),
            12.0,
        ),
    ];

    // Broker + one conflict set per buyer query.
    let broker = Broker::new(db, &SupportConfig::with_size(300));
    let conflict_sets: Vec<ItemSet> = buyers
        .iter()
        .map(|(_, q, _)| broker.conflict_set(q))
        .collect();
    let mut h = Hypergraph::new(broker.support().len());
    for (cs, (_, _, v)) in conflict_sets.iter().zip(&buyers) {
        h.add_edge_set(cs.clone(), *v);
    }

    // A/B the registry roster on the anticipated workload; install the best.
    let sum = bounds::sum_of_valuations(&h);
    println!("\nrevenue (out of {sum:.1}):");
    let mut best: Option<(f64, String, query_pricing::pricing::Pricing)> = None;
    for algo in algorithms::all() {
        let out = algo.run(&h);
        println!("  {:<9} {:>7.2}", algo.name(), out.revenue);
        // The swap happens on a shared broker: set_pricing takes &self, so
        // this could just as well be done while other threads quote.
        broker.set_pricing(out.pricing.clone());
        if best.as_ref().is_none_or(|(r, _, _)| out.revenue > *r) {
            best = Some((out.revenue, algo.name().to_string(), out.pricing));
        }
    }
    let (best_revenue, best_name, best_pricing) = best.expect("registry is not empty");
    let report = check_all(&conflict_sets, &best_pricing);
    println!(
        "installing {best_name} (revenue {best_revenue:.2}); arbitrage-free: {}",
        report.is_arbitrage_free()
    );
    broker.set_pricing(best_pricing);

    // Sell.
    println!();
    for (who, q, budget) in &buyers {
        match broker.purchase(q, *budget).unwrap() {
            PurchaseOutcome::Sold { price, answer } => {
                println!("SOLD  {who} for {price:.2}");
                if answer.len() <= 4 {
                    print!("{}", pretty::render_relation(&answer, 4));
                }
            }
            PurchaseOutcome::Declined { price } => {
                println!("PASS  {who}: quoted {price:.2} > budget {budget:.2}");
            }
        }
    }
    let ledger = broker.ledger();
    println!(
        "\nrealized revenue: {:.2} from {}/{} buyers",
        ledger.total(),
        ledger.len(),
        buyers.len()
    );
    for sale in ledger.sales() {
        println!(
            "  sold a bundle of {:>3} support DBs at {:>6.2}",
            sale.conflict_set_len, sale.price
        );
    }
}
