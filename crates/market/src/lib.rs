//! # qp-market — the query-based pricing framework (Qirana-style)
//!
//! This crate implements the framework of §3 of *Revenue Maximization for
//! Query Pricing* (Chawla et al., VLDB 2019), originally realized by the
//! Qirana system:
//!
//! 1. **Support sets** ([`support`]): sample "neighbouring" databases
//!    `S ⊆ I` that differ from the seller's instance `D` in a few cells of a
//!    single tuple; each support database is stored as a compact
//!    [`qp_qdb::Delta`].
//! 2. **Conflict sets** ([`conflict`]): for every buyer query vector `Q`,
//!    compute `C_S(Q, D) = {D' ∈ S | Q(D) ≠ Q(D')}` — the hyperedge (bundle)
//!    that the pricing algorithms operate on, represented as a
//!    [`qp_core::ItemSet`] bitset. Three engines are provided: a naive
//!    engine that re-evaluates the query on every support database, a
//!    delta-aware engine with incremental fast paths for the common
//!    single-table query shapes, and a parallel engine that fans query
//!    batches across scoped worker threads.
//! 3. **Arbitrage-freeness** ([`arbitrage`]): empirical verification of the
//!    information- and combination-arbitrage conditions for a pricing
//!    function applied through conflict sets (Theorem 1).
//! 4. **Broker** ([`broker`]): a concurrent end-to-end engine a data
//!    marketplace would embed — assemble with [`broker::BrokerBuilder`]
//!    (database → support → pricing algorithm by registry name), quote
//!    queries singly or in batches, swap the pricing function under live
//!    read traffic, sell queries, and inspect the per-sale revenue ledger.

//! 5. **Durability** ([`durability`]): glue to `qp-store` — the broker can
//!    append every settle and repricing to a write-ahead log and be
//!    recovered bit-identically after a crash (see that module's docs and
//!    the repository's `STORAGE.md`).

pub mod arbitrage;
pub mod broker;
pub mod conflict;
pub mod durability;
pub mod parallel;
pub mod support;

pub use arbitrage::{
    check_all, check_combination_arbitrage, check_information_arbitrage, ArbitrageReport,
};
pub use broker::{
    Broker, BrokerBuildError, BrokerBuilder, PurchaseOutcome, QuotedQuery, RevenueLedger, Sale,
};
pub use conflict::{
    build_hypergraph, ConflictEngine, DeltaConflictEngine, NaiveConflictEngine,
    ParallelConflictEngine,
};
pub use durability::{broker_snapshot, ledger_from_snapshot, ledger_to_snapshot, recover_broker};
pub use parallel::claim_map;
pub use support::{SupportConfig, SupportSet};
