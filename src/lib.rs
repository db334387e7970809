//! # query-pricing
//!
//! A reproduction of **"Revenue Maximization for Query Pricing"**
//! (Chawla, Deep, Koutris, Teng — PVLDB 13(1), 2019) as a Rust library.
//!
//! The crate is a thin facade over the workspace members:
//!
//! * [`ItemSet`] (`qp-core`) — the compact bitset over support-database
//!   indices that conflict sets and hyperedges are made of.
//! * [`lp`] — a dense two-phase simplex LP solver (primal + dual).
//! * [`qdb`] — a minimal in-memory relational engine with tuple deltas.
//! * [`pricing`] — hypergraphs, pricing-function classes, and the
//!   [`pricing::algorithms`] registry: every algorithm of the paper (UBP,
//!   UIP, LPIP, CIP, Layering, XOS) as a [`PricingAlgorithm`] trait object,
//!   discoverable with `algorithms::all()` / `algorithms::by_name("LPIP")`,
//!   plus revenue upper bounds.
//! * [`market`] — the Qirana-style query-pricing framework: support sets,
//!   conflict sets, arbitrage-freeness, and the concurrent [`market::Broker`]
//!   engine (assembled with [`market::BrokerBuilder`], re-priceable under
//!   live read traffic, batch quoting, per-sale revenue ledger).
//! * [`workloads`] — dataset generators (world, TPC-H, SSB), the four query
//!   workloads of the paper, buyer-valuation models, and buyer arrival
//!   processes.
//! * [`sim`] — the discrete-event market simulator: buyer populations,
//!   tick-based arrivals, concurrent quote-and-settle through the
//!   transport-agnostic settle driver, pluggable live-repricing policies,
//!   and the four-scenario library (`steady_state`, `flash_crowd`,
//!   `shifting_demand`, `arbitrage_probe`).
//! * [`server`] — the sharded TCP quote-serving front-end: a
//!   length-prefixed binary protocol (`QUOTE`/`PURCHASE`/`STATS`/
//!   `REPRICE`, see `PROTOCOL.md`), broker replicas routed by bundle hash,
//!   per-shard quote caches invalidated by the broker's pricing epoch, and
//!   the `loadgen`/`serve` binaries.
//!
//! ## Quickstart
//!
//! ```
//! use query_pricing::pricing::{Hypergraph, algorithms};
//!
//! // Three support databases (items 0,1,2) and two query bundles.
//! let mut h = Hypergraph::new(3);
//! h.add_edge([1usize], 10.0);      // conflict set {D2}, valuation 10
//! h.add_edge([0usize, 1], 20.0);   // conflict set {D1,D2}, valuation 20
//!
//! // Pick an algorithm from the registry — or iterate algorithms::all().
//! let ubp = algorithms::by_name("UBP").expect("registered").run(&h);
//! assert!(ubp.revenue >= 20.0);
//! ```
//!
//! ## A broker in four lines
//!
//! ```no_run
//! use query_pricing::market::{Broker, SupportConfig};
//! use query_pricing::pricing::Pricing;
//! use query_pricing::qdb::{Database, Query};
//!
//! # let db = Database::new();
//! let broker = Broker::builder(db)
//!     .support_config(SupportConfig::with_size(500))
//!     .algorithm("LPIP")                       // any registry name
//!     .anticipate(Query::scan("User"), 25.0)   // expected buyers
//!     .build()
//!     .unwrap();
//! let quote = broker.quote(&Query::scan("User"));
//! // Re-price through &self — safe while other threads keep quoting.
//! broker.set_pricing(Pricing::UniformBundle { price: quote.price });
//! ```
pub use qp_core::ItemSet;
pub use qp_lp as lp;
pub use qp_market as market;
pub use qp_pricing as pricing;
pub use qp_pricing::algorithms::PricingAlgorithm;
pub use qp_qdb as qdb;
pub use qp_server as server;
pub use qp_sim as sim;
pub use qp_workloads as workloads;

/// Version of the library (mirrors the crate version).
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_exist() {
        assert!(!super::VERSION.is_empty());
    }
}
