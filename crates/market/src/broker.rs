//! The broker: a concurrent, end-to-end query-pricing engine.
//!
//! A [`Broker`] owns the seller's database, a sampled support set, and a
//! pricing function, and exposes the operations a data marketplace needs:
//! quote a price for an incoming query, execute a purchase (returning the
//! answer when the buyer can afford it), and keep a per-sale revenue ledger.
//! The pricing function lives behind a [`parking_lot::RwLock`], so a live
//! broker can be **re-priced under read traffic**: `set_pricing(&self, ...)`
//! takes a shared reference and swaps the function atomically while other
//! threads keep quoting.
//!
//! Brokers are assembled with [`BrokerBuilder`]: database → support set →
//! pricing algorithm selected from the [`qp_pricing::algorithms`] registry
//! by name → anticipated buyer queries with valuations. `build()` computes
//! the conflict-set hypergraph of the anticipated queries (fanned across the
//! [`ParallelConflictEngine`]'s workers), runs the selected algorithm on it,
//! and installs the resulting pricing. Quotes carry their conflict set as a
//! [`qp_core::ItemSet`] bitset and are priced through
//! [`BundlePricing::price_set`] without materializing index vectors.
//!
//! # Conflict memo
//!
//! [`Broker::conflict_set`] (and with it every quote) answers a plan it has
//! seen before from a memo instead of recomputing the set.
//!
//! * **An entry never goes stale.** A conflict set depends only on the
//!   query, the database `D` and the support `S`, and a broker never
//!   changes `D` or `S`. Repricing changes prices, not conflict sets, so
//!   the memo needs no epoch and no invalidation.
//! * **The key is exact.** Entries are keyed by the plan's whole `Debug`
//!   text. It is deliberately not `Query: PartialEq` (or `Value: Hash`):
//!   those call `Int(7)` and `Float(7.0)`, or `0.0` and `-0.0`, equal, but
//!   plans differing only there can answer differently. The derived
//!   `Debug` names every plan node, expression node and literal variant,
//!   prints `-0.0` apart from `0.0`, prints floats so they round-trip and
//!   quotes strings with escapes. It only folds NaN payloads together,
//!   which no answer can tell apart (`Value` compares every NaN as one).
//!   The full key is stored, not a hash of it, so a hash collision cannot
//!   return another plan's set.
//! * **Filling.** A miss computes the set with the [`DeltaConflictEngine`]
//!   while holding no lock, then inserts it; when two threads race on the
//!   same plan the first insert wins (both computed the same set).
//!   [`BrokerBuilder::build`] seeds the memo with the sets it computes for
//!   the anticipated queries.
//! * **Capacity.** The memo holds at most a fixed number of entries
//!   (4096). An insert into a full memo clears it and the memo refills
//!   from later misses; there is no LRU bookkeeping on the hit path.
//! * **Locking.** The memo sits behind its own `RwLock`: lookups take the
//!   read lock, inserts the write lock. It is a leaf like the pricing lock
//!   — never held while a conflict set is computed, and never held together
//!   with the pricing lock.
//!
//! # The pricing epoch and the cache-invalidation contract
//!
//! Every observable change to the installed pricing — a wholesale
//! [`Broker::set_pricing`] swap or an incremental [`Broker::apply_delta`]
//! patch (other than `PricingPatch::Keep`, which changes nothing) —
//! increments a monotone **pricing epoch**, readable with
//! [`Broker::pricing_epoch`]. The counter is bumped *while holding the same
//! write lock* that guards the pricing, which gives layered caches (e.g.
//! `qp-server`'s per-shard quote caches) a precise contract:
//!
//! 1. A cached price tagged with epoch `e` may be served as long as
//!    `pricing_epoch() == e`. Any repricing strictly increases the epoch,
//!    so a tag mismatch detects **every** pricing change — there is no
//!    ABA window.
//! 2. [`Broker::versioned_price`] returns a `(price, epoch)` pair that is
//!    *atomically consistent*: it reads the epoch while holding the pricing
//!    read lock, and writers bump the epoch while holding the write lock,
//!    so the pair can never mix one epoch's price with another's tag. Fill
//!    caches only from this method.
//! 3. The epoch says nothing about *quotes already issued*: a quote is
//!    honored at its quoted price ([`Broker::settle`]) even if the epoch
//!    has moved on. Invalidation applies to caches, not to contracts with
//!    buyers.
//!
//! # Lock-order and epoch discipline (machine-checked)
//!
//! The rules this module relies on — verified by the `qp-verify` model
//! checker (`cargo run --release -p qp-verify`, models `no-stale-quote`
//! and `rw-atomicity`) and enforced going forward by `qp-lint`:
//!
//! * **The epoch moves only inside the pricing write-lock critical
//!   section** (`set_pricing` / `apply_delta`). Bumping it anywhere else
//!   reopens the stale-quote race the checker's seeded-bug model
//!   demonstrates (lint rule `epoch-outside-lock`).
//! * **Epoch reads that tag a price must happen under the pricing read
//!   lock** — that is what makes `versioned_price`'s pair consistent.
//!   A bare `pricing_epoch()` is only a freshness hint.
//! * **Lock order**: the pricing lock is a leaf — no other lock in this
//!   crate is acquired while it is held. Callers layering caches on top
//!   (e.g. `qp-server`'s shards) must release their cache locks before
//!   calling into the broker, or take them strictly after the broker call
//!   returns. The conflict memo's lock is a leaf too (see "Conflict memo";
//!   the model checker does not model it).
//! * **Synchronization goes through the `parking_lot` facade** (including
//!   its `atomic` module), never `std::sync` directly, so
//!   `--cfg qp_verify` builds can interpose the checker's instrumented
//!   shims on production code (lint rule `std-sync`).

use std::collections::HashMap;

use parking_lot::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, RwLock, RwLockReadGuard};

use qp_core::ItemSet;
use qp_pricing::algorithms::{self, CipConfig, LpipConfig, PricingPatch};
use qp_pricing::{BundlePricing, Hypergraph, Pricing};
use qp_qdb::{Database, QdbError, Query, Relation};
use qp_store::{SharedStore, WalRecord};
use qp_telemetry::{Counter, SpanHandle, TelemetrySink};

use crate::conflict::{ConflictEngine, DeltaConflictEngine, ParallelConflictEngine};
use crate::support::{SupportConfig, SupportSet};

/// Most conflict sets the memo holds; an insert into a full memo clears it
/// first (see "Conflict memo" in the module docs).
const MEMO_CAPACITY: usize = 4096;

/// The conflict memo's exact key for `query`: its whole `Debug` text (see
/// "Conflict memo" in the module docs for why not `Query: PartialEq`).
fn memo_key(query: &Query) -> String {
    format!("{query:?}")
}

/// A priced query quote.
#[derive(Debug, Clone)]
pub struct QuotedQuery {
    /// The conflict set of the query (the bundle being priced).
    pub conflict_set: ItemSet,
    /// The quoted price.
    pub price: f64,
}

/// The result of a purchase attempt.
#[derive(Debug, Clone)]
pub enum PurchaseOutcome {
    /// The buyer's budget covered the price; the answer is released.
    Sold {
        /// The price charged.
        price: f64,
        /// The query answer.
        answer: Relation,
    },
    /// The quoted price exceeded the buyer's budget; nothing is released.
    Declined {
        /// The price that was quoted.
        price: f64,
    },
}

/// One completed sale, as recorded by the broker's [`RevenueLedger`].
#[derive(Debug, Clone, PartialEq)]
pub struct Sale {
    /// Size of the sold query's conflict set (the bundle size `|e|`).
    pub conflict_set_len: usize,
    /// The price the buyer paid.
    pub price: f64,
    /// The simulation tick at which the sale closed; 0 for purchases made
    /// outside a simulator (see [`Broker::purchase_at`]). Stamping sales
    /// with their tick lets revenue-over-time be reconstructed from the
    /// ledger alone.
    pub tick: u64,
}

/// The broker's record of demand: one [`Sale`] per purchase, plus the count
/// and forgone revenue of declined quotes.
///
/// Keeping `(conflict_set_len, price, tick)` per sale instead of a single
/// running total lets operators ask distributional questions after the fact —
/// e.g. how revenue splits between broad and narrow queries, or how it
/// accrued over a simulated traffic stream — without re-running the
/// workload. Declines are aggregated (count + sum of quoted prices) rather
/// than itemized: they exist to measure conversion and the revenue left on
/// the table, not to audit individual buyers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RevenueLedger {
    sales: Vec<Sale>,
    declined_count: usize,
    declined_total: f64,
}

impl RevenueLedger {
    /// Records a completed sale outside any simulation (tick 0).
    pub fn record(&mut self, conflict_set_len: usize, price: f64) {
        self.record_at(conflict_set_len, price, 0);
    }

    /// Records a completed sale at a simulation tick.
    pub fn record_at(&mut self, conflict_set_len: usize, price: f64, tick: u64) {
        self.sales.push(Sale {
            conflict_set_len,
            price,
            tick,
        });
    }

    /// Records a declined quote: the buyer walked away from `price`.
    pub fn record_decline(&mut self, price: f64) {
        self.declined_count += 1;
        self.declined_total += price;
    }

    /// Total revenue across all recorded sales.
    pub fn total(&self) -> f64 {
        self.sales.iter().map(|s| s.price).sum()
    }

    /// Number of recorded sales.
    pub fn len(&self) -> usize {
        self.sales.len()
    }

    /// True if nothing has been sold yet.
    pub fn is_empty(&self) -> bool {
        self.sales.is_empty()
    }

    /// The recorded sales, in purchase order.
    pub fn sales(&self) -> &[Sale] {
        &self.sales
    }

    /// Number of declined quotes.
    pub fn declined_count(&self) -> usize {
        self.declined_count
    }

    /// Sum of the prices buyers declined to pay (revenue left on the table).
    pub fn declined_total(&self) -> f64 {
        self.declined_total
    }

    /// Reconstructs a ledger from recovered parts: the sales in their
    /// original order (`total()` re-sums float prices in insertion order,
    /// so preserving it makes the total bit-identical) plus the aggregated
    /// decline tallies. Crash recovery uses this; see `qp-store`.
    pub fn from_parts(sales: Vec<Sale>, declined_count: usize, declined_total: f64) -> Self {
        RevenueLedger {
            sales,
            declined_count,
            declined_total,
        }
    }

    /// Fraction of purchase attempts that closed, or `None` before any
    /// attempt has been recorded.
    pub fn conversion_rate(&self) -> Option<f64> {
        let attempts = self.sales.len() + self.declined_count;
        if attempts == 0 {
            None
        } else {
            Some(self.sales.len() as f64 / attempts as f64)
        }
    }
}

/// Errors from [`BrokerBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrokerBuildError {
    /// The requested pricing algorithm is not in the registry.
    UnknownAlgorithm(String),
}

impl std::fmt::Display for BrokerBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BrokerBuildError::UnknownAlgorithm(name) => {
                write!(f, "unknown pricing algorithm {name:?}; see qp_pricing::algorithms::PAPER_ALGORITHMS")
            }
        }
    }
}

impl std::error::Error for BrokerBuildError {}

/// Step-by-step construction of a [`Broker`].
///
/// ```no_run
/// # use qp_market::{Broker, SupportConfig};
/// # use qp_qdb::{Database, Query};
/// # let db = Database::new();
/// let broker = Broker::builder(db)
///     .support_config(SupportConfig::with_size(500))
///     .algorithm("LPIP")
///     .anticipate(Query::scan("User"), 25.0)
///     .build()
///     .expect("LPIP is a registered algorithm");
/// ```
pub struct BrokerBuilder {
    db: Database,
    support: Option<SupportSet>,
    support_config: SupportConfig,
    algorithm: Option<String>,
    lpip: LpipConfig,
    cip: CipConfig,
    anticipated: Vec<(Query, f64)>,
    telemetry: TelemetrySink,
    store: Option<SharedStore>,
}

impl BrokerBuilder {
    /// Starts a builder over the seller's database.
    pub fn new(db: Database) -> BrokerBuilder {
        BrokerBuilder {
            db,
            support: None,
            support_config: SupportConfig::default(),
            algorithm: None,
            lpip: LpipConfig::default(),
            cip: CipConfig::default(),
            anticipated: Vec::new(),
            telemetry: TelemetrySink::Disabled,
            store: None,
        }
    }

    /// Attaches a durability store: once the broker is built, every settle
    /// and every observable repricing appends a WAL record **before** the
    /// call returns (see `qp-store`). The builder's own initial pricing
    /// install is deliberately *not* logged — it is deterministic from the
    /// build inputs, and recovery re-derives it by rebuilding the broker
    /// the same way before replaying the log.
    pub fn store(mut self, store: SharedStore) -> BrokerBuilder {
        self.store = Some(store);
        self
    }

    /// Attaches a telemetry sink: quote/reprice/settle stages record spans
    /// and counters into it. The default is `TelemetrySink::Disabled`,
    /// whose handles are inert (no clock reads, no atomics) — telemetry is
    /// strictly out-of-band either way and never affects prices, RNG, or
    /// revenue.
    pub fn telemetry(mut self, sink: TelemetrySink) -> BrokerBuilder {
        self.telemetry = sink;
        self
    }

    /// Samples the support set with `config` (ignored if [`Self::support`]
    /// provides a pre-generated one).
    pub fn support_config(mut self, config: SupportConfig) -> BrokerBuilder {
        self.support_config = config;
        self
    }

    /// Uses a pre-generated support set instead of sampling one.
    pub fn support(mut self, support: SupportSet) -> BrokerBuilder {
        self.support = Some(support);
        self
    }

    /// Selects the pricing algorithm by its registry name (e.g. `"LPIP"`;
    /// see [`algorithms::PAPER_ALGORITHMS`]). Without an algorithm the broker
    /// starts with the all-zero pricing.
    pub fn algorithm(mut self, name: impl Into<String>) -> BrokerBuilder {
        self.algorithm = Some(name.into());
        self
    }

    /// Tunes the LP-based algorithms (LPIP / CIP / XOS) selected by
    /// [`Self::algorithm`].
    pub fn lp_configs(mut self, lpip: LpipConfig, cip: CipConfig) -> BrokerBuilder {
        self.lpip = lpip;
        self.cip = cip;
        self
    }

    /// Registers an anticipated buyer query and its expected valuation; the
    /// selected algorithm prices against the hypergraph of these queries.
    pub fn anticipate(mut self, query: Query, valuation: f64) -> BrokerBuilder {
        self.anticipated.push((query, valuation));
        self
    }

    /// Registers many anticipated `(query, valuation)` pairs at once.
    pub fn anticipate_all(
        mut self,
        queries: impl IntoIterator<Item = (Query, f64)>,
    ) -> BrokerBuilder {
        self.anticipated.extend(queries);
        self
    }

    /// Builds the broker: samples the support (unless given), computes the
    /// conflict-set hypergraph of the anticipated queries, runs the selected
    /// algorithm, and installs its pricing.
    pub fn build(self) -> Result<Broker, BrokerBuildError> {
        let algorithm = match &self.algorithm {
            Some(name) => Some(
                algorithms::by_name_with(name, &self.lpip, &self.cip)
                    .ok_or_else(|| BrokerBuildError::UnknownAlgorithm(name.clone()))?,
            ),
            None => None,
        };

        let support = match self.support {
            Some(s) => s,
            None => SupportSet::generate(&self.db, &self.support_config),
        };
        let broker = Broker::with_support(self.db, support).with_telemetry(self.telemetry);

        if let Some(algo) = algorithm {
            // The anticipated workload is a batch, so the conflict sets fan
            // out across the parallel engine's workers.
            let engine = ParallelConflictEngine::new(&broker.db, &broker.support);
            let queries: Vec<Query> = self.anticipated.iter().map(|(q, _)| q.clone()).collect();
            let conflict_sets = engine.conflict_sets(&queries);
            let mut h = Hypergraph::new(broker.support().len());
            for (set, (q, v)) in conflict_sets.into_iter().zip(&self.anticipated) {
                broker.memo_insert(memo_key(q), set.clone());
                h.add_edge_set(set, *v);
            }
            broker.set_pricing(algo.run(&h).pricing);
        }
        // Attached only after the initial install so the seed pricing is
        // never logged (recovery rebuilds it deterministically instead).
        let broker = match self.store {
            Some(store) => broker.with_store(store),
            None => broker,
        };
        Ok(broker)
    }
}

/// A data-market broker for a single dataset.
///
/// All operations take `&self`; the broker is `Sync` and safe to share
/// across threads (e.g. behind an `Arc`), with pricing swaps serialized
/// against in-flight quotes by an internal reader–writer lock.
pub struct Broker {
    db: Database,
    support: SupportSet,
    pricing: RwLock<Pricing>,
    /// Monotone count of observable pricing changes; bumped under the
    /// `pricing` write lock (see the module docs for the invalidation
    /// contract this gives layered caches).
    epoch: AtomicU64,
    ledger: Mutex<RevenueLedger>,
    /// Conflict sets already computed, keyed by [`memo_key`]. A leaf
    /// lock, bounded by `MEMO_CAPACITY` (see "Conflict memo" in the module
    /// docs).
    memo: RwLock<HashMap<Box<str>, ItemSet>>,
    /// Durability hook: when present, settles and observable repricings
    /// append WAL records before returning. Settle appends happen under
    /// the `ledger` lock so the WAL's record order always equals the
    /// ledger's insertion order (float totals re-sum bit-identically on
    /// replay); repricing appends happen under the `pricing` write lock so
    /// the WAL's patch order equals the epoch order.
    store: Option<SharedStore>,
    /// Pre-registered observability handles (inert on a disabled sink).
    telemetry: BrokerTelemetry,
}

/// The broker's pre-registered telemetry handles: span sites resolved once
/// at construction so the quote hot path never touches a registration
/// lock, plus outcome counters. With a `Disabled` sink every field is an
/// inert `None`-backed handle — entering a span or bumping a counter is a
/// branch, with no clock read and no atomic.
#[derive(Debug, Clone, Default)]
struct BrokerTelemetry {
    sink: TelemetrySink,
    /// `broker.conflict` — conflict-set computation inside a quote.
    conflict: SpanHandle,
    /// `broker.price` — pricing-function read inside a quote.
    price: SpanHandle,
    /// `reprice.apply` — installing a pricing swap or patch.
    reprice: SpanHandle,
    /// `settle.ledger` — settling a quote into the revenue ledger.
    settle: SpanHandle,
    /// `broker.quote` / `broker.sale` / `broker.decline` totals.
    quotes: Counter,
    sales: Counter,
    declines: Counter,
    /// `broker.memo.hit` / `broker.memo.miss`: `conflict_set` calls answered
    /// from the memo, and calls that computed the set.
    memo_hits: Counter,
    memo_misses: Counter,
}

impl BrokerTelemetry {
    fn new(sink: TelemetrySink) -> BrokerTelemetry {
        BrokerTelemetry {
            conflict: sink.span_handle("broker.conflict"),
            price: sink.span_handle("broker.price"),
            reprice: sink.span_handle("reprice.apply"),
            settle: sink.span_handle("settle.ledger"),
            quotes: sink.counter("broker.quote"),
            sales: sink.counter("broker.sale"),
            declines: sink.counter("broker.decline"),
            memo_hits: sink.counter("broker.memo.hit"),
            memo_misses: sink.counter("broker.memo.miss"),
            sink,
        }
    }
}

impl Broker {
    /// Starts a [`BrokerBuilder`] over `db`.
    pub fn builder(db: Database) -> BrokerBuilder {
        BrokerBuilder::new(db)
    }

    /// Creates a broker over `db`, sampling a fresh support set.
    pub fn new(db: Database, support_config: &SupportConfig) -> Broker {
        let support = SupportSet::generate(&db, support_config);
        Broker::with_support(db, support)
    }

    /// Creates a broker with a pre-generated support set.
    pub fn with_support(db: Database, support: SupportSet) -> Broker {
        let n = support.len();
        Broker {
            db,
            support,
            pricing: RwLock::new(Pricing::zero_items(n)),
            epoch: AtomicU64::new(0),
            ledger: Mutex::new(RevenueLedger::default()),
            memo: RwLock::new(HashMap::new()),
            store: None,
            telemetry: BrokerTelemetry::default(),
        }
    }

    /// Attaches a durability store to an already-constructed broker. From
    /// here on every settle and every observable repricing appends a WAL
    /// record before returning; see [`BrokerBuilder::store`] for why the
    /// initial pricing install is expected to happen *before* this.
    pub fn with_store(mut self, store: SharedStore) -> Broker {
        self.store = Some(store);
        self
    }

    /// Appends a WAL record, honoring the append-before-ack contract: a
    /// failed append aborts the operation (panics) rather than acking
    /// state the log does not hold.
    fn log(&self, record: &WalRecord) {
        if let Some(store) = &self.store {
            if let Err(e) = store.append(record) {
                panic!("WAL append failed, refusing to ack an unlogged settle: {e}");
            }
        }
    }

    /// Logs and records a declined quote under one ledger-lock hold.
    fn log_decline(&self, price: f64, tick: u64) {
        let mut ledger = self.ledger.lock();
        self.log(&WalRecord::Decline {
            quote_id: 0,
            shard: 0,
            price,
            tick,
            evicted: false,
        });
        ledger.record_decline(price);
    }

    /// Attaches a telemetry sink to an already-constructed broker,
    /// pre-registering its span sites and counters. See
    /// [`BrokerBuilder::telemetry`].
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> Broker {
        self.telemetry = BrokerTelemetry::new(sink);
        self
    }

    /// The telemetry sink this broker records into (`Disabled` unless one
    /// was attached). Layered components (shards, simulators) share it so
    /// one registry aggregates the whole stack.
    pub fn telemetry_sink(&self) -> &TelemetrySink {
        &self.telemetry.sink
    }

    /// The seller's database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The support set backing the prices.
    pub fn support(&self) -> &SupportSet {
        &self.support
    }

    /// Installs the pricing function to quote against (usually the output of
    /// a registry algorithm).
    ///
    /// Takes `&self`: a broker shared across threads can be re-priced while
    /// other threads quote. In-flight quotes that already read the old
    /// pricing complete against it; quotes that start after the swap see the
    /// new one.
    pub fn set_pricing(&self, pricing: Pricing) {
        let _span = self.telemetry.reprice.enter();
        let mut installed = self.pricing.write();
        self.log(&WalRecord::Reprice {
            patch: PricingPatch::Replace(pricing.clone()),
        });
        *installed = pricing;
        // Bumped while the write lock is held: no reader can observe the
        // new pricing with the old epoch (or vice versa).
        // ordering: Release — pairs with the Acquire loads in
        // pricing_epoch()/versioned_price(), publishing the new pricing to
        // epoch observers.
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Patches the installed pricing **in place** under the same write lock
    /// as [`Broker::set_pricing`] — the incremental-repricing hot path.
    ///
    /// Where a full repricing constructs a fresh [`Pricing`] and swaps it,
    /// an incremental repricer (see [`qp_pricing::algorithms::Repricer`])
    /// usually changes one float (UBP's uniform price, UIP's uniform
    /// weight); this applies that change directly to the installed value,
    /// reusing its allocation where shapes line up. The lock discipline is
    /// identical to `set_pricing`: in-flight quotes that already hold the
    /// read lock finish against the old pricing, quotes that start after
    /// the patch see the new one, and workers keep quoting throughout —
    /// `PricingPatch::Keep` never takes the write lock at all.
    pub fn apply_delta(&self, patch: &PricingPatch) {
        if matches!(patch, PricingPatch::Keep) {
            return; // nothing changes, so the epoch must not move either
        }
        let _span = self.telemetry.reprice.enter();
        let mut installed = self.pricing.write();
        self.log(&WalRecord::Reprice {
            patch: patch.clone(),
        });
        patch.apply(&mut installed);
        // ordering: Release — same pairing as set_pricing's bump.
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// The installed pricing and its epoch as one atomically consistent
    /// pair — the snapshot a durability layer persists.
    pub fn pricing_snapshot(&self) -> (Pricing, u64) {
        let pricing = self.pricing.read();
        // ordering: Acquire — pairs with the Release bumps; consistency of
        // the (pricing, epoch) pair comes from holding the read lock.
        let epoch = self.epoch.load(Ordering::Acquire);
        ((*pricing).clone(), epoch)
    }

    /// Installs recovered pricing state with an **absolute** epoch, for
    /// crash recovery only: unlike [`Broker::set_pricing`] this does not
    /// bump the epoch (recovery reproduces the pre-crash counter exactly,
    /// so epoch-validated caches re-validate against the same values) and
    /// does not append to the WAL (the state being installed came *from*
    /// the log; logging it again would double it on the next recovery).
    pub fn restore_pricing(&self, pricing: Pricing, epoch: u64) {
        let mut installed = self.pricing.write();
        *installed = pricing;
        // ordering: Release — published under the write lock like every
        // other epoch move, pairing with the Acquire loads in
        // pricing_epoch()/versioned_price().
        self.epoch.store(epoch, Ordering::Release);
    }

    /// Replaces the revenue ledger with recovered contents (crash
    /// recovery only; see [`RevenueLedger::from_parts`]).
    pub fn restore_ledger(&self, ledger: RevenueLedger) {
        *self.ledger.lock() = ledger;
    }

    /// The current pricing epoch: a monotone counter of observable pricing
    /// changes (`set_pricing`, and every `apply_delta` except
    /// `PricingPatch::Keep`). See the module docs for the invalidation
    /// contract; cache fills must pair prices with epochs through
    /// [`Broker::versioned_price`], not through two separate reads.
    pub fn pricing_epoch(&self) -> u64 {
        // ordering: Acquire — pairs with the Release bumps under the write
        // lock; an observed epoch implies the matching pricing is visible.
        self.epoch.load(Ordering::Acquire)
    }

    /// Prices a bundle and returns the epoch the price belongs to, as one
    /// atomically consistent pair.
    ///
    /// The epoch is read while the pricing read lock is held; since writers
    /// bump the epoch while holding the write lock, the returned pair can
    /// never combine epoch `e` with a price from epoch `e' ≠ e` — the
    /// property a quote cache needs to tag entries safely.
    pub fn versioned_price(&self, bundle: &ItemSet) -> (f64, u64) {
        let pricing = self.pricing.read();
        // ordering: Acquire — pairs with the Release bumps; consistency of
        // the (price, epoch) pair comes from holding the read lock, since
        // writers only move the epoch inside the write-lock section.
        let epoch = self.epoch.load(Ordering::Acquire);
        (pricing.price_set(bundle), epoch)
    }

    /// Read access to the currently installed pricing function.
    ///
    /// The returned guard blocks [`Broker::set_pricing`] until dropped; hold
    /// it only briefly.
    pub fn pricing(&self) -> RwLockReadGuard<'_, Pricing> {
        self.pricing.read()
    }

    /// The conflict set of `query` against the support: from the memo when
    /// an identical plan was seen before, otherwise computed by the
    /// [`DeltaConflictEngine`] and memoised.
    pub fn conflict_set(&self, query: &Query) -> ItemSet {
        let key = memo_key(query);
        if let Some(set) = self.memo.read().get(key.as_str()) {
            self.telemetry.memo_hits.inc();
            return set.clone();
        }
        self.telemetry.memo_misses.inc();
        // Computed with no lock held: the memo lock is a leaf.
        let set = DeltaConflictEngine::new(&self.db, &self.support).conflict_set(query);
        self.memo_insert(key, set.clone());
        set
    }

    /// Memoises `set` as the conflict set of the plan whose [`memo_key`] is
    /// `key`. The first insert wins: a racing computation of the same plan
    /// produced the same set. A full memo is cleared before the insert.
    fn memo_insert(&self, key: String, set: ItemSet) {
        let mut memo = self.memo.write();
        if memo.len() >= MEMO_CAPACITY && !memo.contains_key(key.as_str()) {
            memo.clear();
        }
        memo.entry(key.into_boxed_str()).or_insert(set);
    }

    /// Quotes a price for `query` without selling it.
    pub fn quote(&self, query: &Query) -> QuotedQuery {
        self.telemetry.quotes.inc();
        let conflict_set = {
            let _span = self.telemetry.conflict.enter();
            self.conflict_set(query)
        };
        let price = {
            let _span = self.telemetry.price.enter();
            self.pricing.read().price_set(&conflict_set)
        };
        QuotedQuery {
            conflict_set,
            price,
        }
    }

    /// Attempts to sell `query` to a buyer with the given `budget`.
    ///
    /// On success the query is evaluated on the real database and the answer
    /// returned; the sale is recorded in the revenue ledger with tick 0.
    /// Declined quotes are recorded too (count + forgone price), so the
    /// ledger's [`RevenueLedger::conversion_rate`] reflects every attempt.
    pub fn purchase(&self, query: &Query, budget: f64) -> Result<PurchaseOutcome, QdbError> {
        self.purchase_at(query, budget, 0)
    }

    /// [`Broker::purchase`] with an explicit simulation tick stamped on the
    /// resulting ledger entry. Simulators use this so revenue-over-time can
    /// be reconstructed from the ledger; direct API purchases use tick 0.
    pub fn purchase_at(
        &self,
        query: &Query,
        budget: f64,
        tick: u64,
    ) -> Result<PurchaseOutcome, QdbError> {
        let quote = self.quote(query);
        self.settle(&quote, query, budget, tick)
    }

    /// Settles an already-quoted query: sells at the quoted price if the
    /// budget covers it (recording the sale at `tick`), otherwise records
    /// the decline. The quote is honored as issued — callers that quoted
    /// before a [`Broker::set_pricing`] swap settle at the old price, which
    /// is exactly the guarantee a marketplace quote carries.
    ///
    /// A covered quote whose query then fails to evaluate is recorded as a
    /// decline (the buyer paid nothing and walked away empty-handed) before
    /// the error propagates, so every settlement attempt — sold, declined,
    /// or failed — leaves exactly one ledger mark and
    /// [`RevenueLedger::conversion_rate`] stays faithful to the traffic.
    pub fn settle(
        &self,
        quote: &QuotedQuery,
        query: &Query,
        budget: f64,
        tick: u64,
    ) -> Result<PurchaseOutcome, QdbError> {
        let _span = self.telemetry.settle.enter();
        if quote.price <= budget + 1e-9 {
            match query.evaluate(&self.db) {
                Ok(answer) => {
                    {
                        // WAL append and ledger mark under one lock hold:
                        // log order must equal ledger order (see `store`).
                        let mut ledger = self.ledger.lock();
                        self.log(&WalRecord::Sale {
                            quote_id: 0,
                            shard: 0,
                            bundle_len: quote.conflict_set.len() as u32,
                            price: quote.price,
                            tick,
                        });
                        ledger.record_at(quote.conflict_set.len(), quote.price, tick);
                    }
                    self.telemetry.sales.inc();
                    Ok(PurchaseOutcome::Sold {
                        price: quote.price,
                        answer,
                    })
                }
                Err(e) => {
                    self.telemetry.declines.inc();
                    self.log_decline(quote.price, tick);
                    Err(e)
                }
            }
        } else {
            self.telemetry.declines.inc();
            self.log_decline(quote.price, tick);
            Ok(PurchaseOutcome::Declined { price: quote.price })
        }
    }

    /// Total revenue realized so far through [`Broker::purchase`].
    pub fn realized_revenue(&self) -> f64 {
        self.ledger.lock().total()
    }

    /// A snapshot of the per-sale revenue ledger.
    pub fn ledger(&self) -> RevenueLedger {
        self.ledger.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qp_qdb::{AggFunc, ColumnType, Expr, Relation, Schema, Value};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    fn db() -> Database {
        let mut rel = Relation::new(Schema::new(vec![
            ("name", ColumnType::Str),
            ("gender", ColumnType::Str),
            ("age", ColumnType::Int),
        ]));
        let names = ["Abe", "Alice", "Bob", "Cathy", "Dan", "Eve"];
        for (i, n) in names.iter().enumerate() {
            rel.push(vec![
                (*n).into(),
                if i % 2 == 0 { "m".into() } else { "f".into() },
                Value::Int(18 + i as i64 * 3),
            ])
            .unwrap();
        }
        let mut d = Database::new();
        d.add_table("User", rel);
        d
    }

    fn buyer_queries() -> Vec<Query> {
        vec![
            Query::scan("User")
                .filter(Expr::col("gender").eq(Expr::lit("f")))
                .aggregate(vec![], vec![(AggFunc::Count, None, "c")]),
            Query::scan("User").project_cols(&["name"]),
            Query::scan("User").aggregate(vec![], vec![(AggFunc::Avg, Some("age"), "a")]),
        ]
    }

    fn priced_broker() -> Broker {
        Broker::builder(db())
            .support_config(SupportConfig::with_size(80))
            .algorithm("LPIP")
            .anticipate_all(buyer_queries().into_iter().map(|q| (q, 10.0)))
            .build()
            .expect("LPIP is registered")
    }

    #[test]
    fn builder_selects_algorithms_from_the_registry() {
        let broker = priced_broker();
        // The anticipated queries are priced: at least one quote is positive.
        assert!(buyer_queries().iter().any(|q| broker.quote(q).price > 0.0));

        let Err(err) = Broker::builder(db()).algorithm("nope").build() else {
            panic!("unknown algorithm must fail the build");
        };
        assert_eq!(err, BrokerBuildError::UnknownAlgorithm("nope".into()));
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn quote_is_consistent_with_installed_pricing() {
        let broker = priced_broker();
        for q in buyer_queries() {
            let quote = broker.quote(&q);
            assert!(quote.price >= 0.0);
            assert_eq!(quote.price, broker.pricing().price_set(&quote.conflict_set));
        }
    }

    #[test]
    fn purchase_respects_budget_and_records_sales() {
        let broker = priced_broker();
        let q = &buyer_queries()[0];
        let quote = broker.quote(q);

        match broker.purchase(q, quote.price + 1.0).unwrap() {
            PurchaseOutcome::Sold { price, answer } => {
                assert!((price - quote.price).abs() < 1e-9);
                assert_eq!(answer.rows()[0][0], Value::Int(3));
            }
            PurchaseOutcome::Declined { .. } => panic!("budget covers the quote"),
        }
        assert!((broker.realized_revenue() - quote.price).abs() < 1e-9);
        let ledger = broker.ledger();
        assert_eq!(ledger.len(), 1);
        assert_eq!(ledger.sales()[0].conflict_set_len, quote.conflict_set.len());
        assert!((ledger.sales()[0].price - quote.price).abs() < 1e-9);

        // A zero budget cannot buy a positively priced query; the decline
        // adds no sale but is counted (with its forgone price) so the
        // conversion rate reflects it.
        if quote.price > 0.0 {
            match broker.purchase(q, 0.0).unwrap() {
                PurchaseOutcome::Declined { price } => assert!(price > 0.0),
                PurchaseOutcome::Sold { .. } => panic!("should have been declined"),
            }
            let ledger = broker.ledger();
            assert_eq!(ledger.len(), 1);
            assert_eq!(ledger.declined_count(), 1);
            assert!((ledger.declined_total() - quote.price).abs() < 1e-9);
            assert_eq!(ledger.conversion_rate(), Some(0.5));
        }
    }

    #[test]
    fn purchases_stamp_ticks_and_direct_purchases_use_tick_zero() {
        let broker = priced_broker();
        let q = &buyer_queries()[1];
        let quote = broker.quote(q);
        broker.purchase(q, quote.price + 1.0).unwrap();
        broker.purchase_at(q, quote.price + 1.0, 17).unwrap();
        let ledger = broker.ledger();
        assert_eq!(ledger.len(), 2);
        assert_eq!(ledger.sales()[0].tick, 0);
        assert_eq!(ledger.sales()[1].tick, 17);
        // The budget never covers a price above the quote by less than the
        // shortfall below: a hard decline stays a decline at any tick.
        match broker.purchase_at(q, quote.price - 1.0, 18).unwrap() {
            PurchaseOutcome::Declined { price } => assert!((price - quote.price).abs() < 1e-9),
            PurchaseOutcome::Sold { .. } => panic!("budget is below the quote"),
        }
        assert_eq!(broker.ledger().len(), 2);
        assert_eq!(broker.ledger().declined_count(), 1);
    }

    #[test]
    fn failed_evaluations_leave_a_decline_mark_not_a_sale() {
        // A query over a missing table quotes at 0 (empty conflict set), so
        // the budget covers it — but evaluation fails. The attempt must
        // still leave exactly one ledger mark, as a decline.
        let broker = priced_broker();
        let bad = Query::scan("NoSuchTable");
        assert!(broker.purchase(&bad, 10.0).is_err());
        let ledger = broker.ledger();
        assert_eq!(ledger.len(), 0);
        assert_eq!(ledger.declined_count(), 1);
        assert_eq!(ledger.conversion_rate(), Some(0.0));
    }

    #[test]
    fn settle_honors_the_quoted_price_across_a_repricing() {
        // Quote, swap the pricing, then settle: the buyer pays the quoted
        // price, not the new one.
        let broker = priced_broker();
        let q = &buyer_queries()[1];
        let quote = broker.quote(q);
        let n = broker.support().len();
        broker.set_pricing(Pricing::Item {
            weights: vec![1000.0; n],
        });
        match broker.settle(&quote, q, quote.price + 1.0, 3).unwrap() {
            PurchaseOutcome::Sold { price, .. } => assert!((price - quote.price).abs() < 1e-9),
            PurchaseOutcome::Declined { .. } => panic!("the old quote must be honored"),
        }
        let ledger = broker.ledger();
        assert_eq!(ledger.sales()[0].tick, 3);
        assert!((ledger.total() - quote.price).abs() < 1e-9);
    }

    #[test]
    fn repricing_a_shared_broker_while_another_thread_quotes() {
        let broker = priced_broker();
        let q = buyer_queries().remove(1);
        let n = broker.support().len();

        // Two pricings the writer alternates between; every quote must see
        // exactly one of them, never a mix or a poisoned lock.
        let low = Pricing::Item {
            weights: vec![1.0; n],
        };
        let high = Pricing::Item {
            weights: vec![2.0; n],
        };
        broker.set_pricing(low.clone());
        let edge = broker.conflict_set(&q).len() as f64;
        let stop = AtomicBool::new(false);
        let quotes_done = AtomicUsize::new(0);

        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut seen_low = 0usize;
                let mut seen_high = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let price = broker.quote(&q).price;
                    if (price - edge).abs() < 1e-9 {
                        seen_low += 1;
                    } else if (price - 2.0 * edge).abs() < 1e-9 {
                        seen_high += 1;
                    } else {
                        panic!("quote {price} matches neither installed pricing");
                    }
                    quotes_done.fetch_add(1, Ordering::Relaxed);
                }
                (seen_low, seen_high)
            });

            // Keep swapping until the reader has quoted against the broker a
            // few times (at least one swap happens concurrently with a quote;
            // the writer must not outrun thread-spawn latency and stop before
            // the reader's first quote).
            let mut i = 0usize;
            while (quotes_done.load(Ordering::Relaxed) < 3 || i < 200) && !reader.is_finished() {
                // set_pricing through &self — this is the interior-mutability
                // swap under read traffic that the engine API promises.
                broker.set_pricing(if i.is_multiple_of(2) {
                    high.clone()
                } else {
                    low.clone()
                });
                i += 1;
            }
            stop.store(true, Ordering::Relaxed);
            let (seen_low, seen_high) = reader.join().expect("reader must not panic");
            assert!(seen_low + seen_high > 0, "reader never completed a quote");
        });

        // The writer's last swap installed one of the two pricings; the final
        // quote must match it exactly.
        let final_price = broker.quote(&q).price;
        assert!(
            (final_price - edge).abs() < 1e-9 || (final_price - 2.0 * edge).abs() < 1e-9,
            "final quote {final_price} matches neither installed pricing"
        );
    }

    #[test]
    fn apply_delta_patches_the_live_pricing_in_place() {
        let broker = priced_broker();
        let q = &buyer_queries()[1];
        let n = broker.support().len();
        broker.set_pricing(Pricing::UniformBundle { price: 4.0 });
        assert_eq!(broker.quote(q).price, 4.0);

        // The UBP one-float patch lands under the write lock.
        broker.apply_delta(&PricingPatch::SetUniformPrice(9.0));
        assert_eq!(broker.quote(q).price, 9.0);

        // Keep is a no-op (and never takes the lock).
        broker.apply_delta(&PricingPatch::Keep);
        assert_eq!(broker.quote(q).price, 9.0);

        // A shape-changing patch replaces the pricing wholesale.
        broker.apply_delta(&PricingPatch::SetUniformWeight {
            weight: 2.0,
            num_items: n,
        });
        let edge = broker.conflict_set(q).len() as f64;
        assert!((broker.quote(q).price - 2.0 * edge).abs() < 1e-9);

        broker.apply_delta(&PricingPatch::Replace(Pricing::zero_items(n)));
        assert_eq!(broker.quote(q).price, 0.0);
    }

    #[test]
    fn pricing_epoch_counts_observable_changes_only() {
        let broker = priced_broker();
        let e0 = broker.pricing_epoch();
        broker.set_pricing(Pricing::UniformBundle { price: 4.0 });
        assert_eq!(broker.pricing_epoch(), e0 + 1);
        // Keep is a no-op: no change, no bump.
        broker.apply_delta(&PricingPatch::Keep);
        assert_eq!(broker.pricing_epoch(), e0 + 1);
        broker.apply_delta(&PricingPatch::SetUniformPrice(9.0));
        assert_eq!(broker.pricing_epoch(), e0 + 2);
        broker.apply_delta(&PricingPatch::Replace(Pricing::zero_items(3)));
        assert_eq!(broker.pricing_epoch(), e0 + 3);
    }

    #[test]
    fn versioned_price_pairs_are_atomically_consistent() {
        // A repricer thread walks the uniform price in lockstep with the
        // epoch; every (price, epoch) pair a reader sees must line up
        // exactly. Two separate reads would fail this under load.
        let broker = priced_broker();
        broker.set_pricing(Pricing::UniformBundle { price: 1000.0 });
        let e0 = broker.pricing_epoch();
        let bundle: ItemSet = [0usize, 2].into_iter().collect();
        let stop = AtomicBool::new(false);
        let sampled = AtomicU64::new(0);

        // Keep repricing until the reader has raced us at least a few
        // times — a fixed patch count can complete before the reader
        // thread is even scheduled on a loaded single-core box.
        let mut repricings = 0u64;
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut checked = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let (price, epoch) = broker.versioned_price(&bundle);
                    let step = epoch - e0;
                    assert_eq!(
                        price,
                        1000.0 + step as f64,
                        "price from epoch {epoch} served under the wrong tag"
                    );
                    checked += 1;
                    // ordering: Relaxed — progress counter, no data published.
                    sampled.fetch_add(1, Ordering::Relaxed);
                }
                checked
            });
            while repricings < 400 || sampled.load(Ordering::Relaxed) < 10 {
                repricings += 1;
                broker.apply_delta(&PricingPatch::SetUniformPrice(1000.0 + repricings as f64));
            }
            stop.store(true, Ordering::Relaxed);
            assert!(reader.join().unwrap() > 0, "reader never sampled");
        });
        assert_eq!(broker.pricing_epoch(), e0 + repricings);
    }

    #[test]
    fn more_informative_queries_never_cost_less() {
        // Information arbitrage at the broker level: the full scan determines
        // every other query, so it must be at least as expensive.
        let broker = priced_broker();
        let full = broker.quote(&Query::scan("User"));
        for q in buyer_queries() {
            let quote = broker.quote(&q);
            assert!(quote.price <= full.price + 1e-9);
        }
    }

    #[test]
    fn default_pricing_is_free() {
        let broker = Broker::new(db(), &SupportConfig::with_size(30));
        let quote = broker.quote(&Query::scan("User"));
        assert_eq!(quote.price, 0.0);
    }

    #[test]
    fn ledger_totals_accumulate_over_sales_and_declines() {
        let mut ledger = RevenueLedger::default();
        assert!(ledger.is_empty());
        assert_eq!(ledger.conversion_rate(), None);
        ledger.record(3, 2.5);
        ledger.record_at(1, 4.0, 9);
        ledger.record_decline(7.5);
        ledger.record_decline(0.5);
        assert_eq!(ledger.len(), 2);
        assert!((ledger.total() - 6.5).abs() < 1e-12);
        assert_eq!(
            ledger.sales()[1],
            Sale {
                conflict_set_len: 1,
                price: 4.0,
                tick: 9
            }
        );
        assert_eq!(ledger.sales()[0].tick, 0);
        assert_eq!(ledger.declined_count(), 2);
        assert!((ledger.declined_total() - 8.0).abs() < 1e-12);
        assert_eq!(ledger.conversion_rate(), Some(0.5));
    }

    #[test]
    fn telemetry_observes_without_changing_quotes() {
        use qp_telemetry::TelemetrySink;

        let plain = priced_broker();
        let sink = TelemetrySink::enabled();
        let instrumented = Broker::builder(db())
            .support_config(SupportConfig::with_size(80))
            .algorithm("LPIP")
            .anticipate_all(buyer_queries().into_iter().map(|q| (q, 10.0)))
            .telemetry(sink.clone())
            .build()
            .expect("LPIP is registered");

        // Out-of-band: identical quotes bit for bit, telemetry on or off.
        let queries = buyer_queries();
        for q in &queries {
            let a = plain.quote(q);
            let b = instrumented.quote(q);
            assert_eq!(a.conflict_set, b.conflict_set);
            assert_eq!(a.price.to_bits(), b.price.to_bits());
        }
        let q = &queries[0];
        let quote = instrumented.quote(q);
        instrumented.purchase(q, quote.price + 1.0).unwrap();
        instrumented.purchase(q, -1.0).unwrap();
        instrumented.set_pricing(Pricing::zero_items(instrumented.support().len()));

        let snap = sink.snapshot();
        // quote() ran len + 2 more times on the instrumented broker, and
        // purchase() quotes internally.
        assert_eq!(snap.counter("broker.quote"), Some(queries.len() as u64 + 3));
        assert_eq!(snap.counter("broker.sale"), Some(1));
        assert_eq!(snap.counter("broker.decline"), Some(1));
        for name in [
            "broker.conflict",
            "broker.price",
            "reprice.apply",
            "settle.ledger",
        ] {
            let count = snap.histogram(name).map(|h| h.count()).unwrap_or(0);
            assert!(count > 0, "no observations for {name}");
        }

        // The disabled default hands out a disabled sink.
        assert!(!plain.telemetry_sink().is_enabled());
        assert!(instrumented.telemetry_sink().is_enabled());
    }

    /// Number of conflict sets the memo holds.
    fn memo_len(broker: &Broker) -> usize {
        broker.memo.read().len()
    }

    #[test]
    fn memo_key_tells_apart_plans_sql_equality_merges() {
        let divided_by =
            |v: Value| Query::scan("T").project(vec![(Expr::col("x").div(Expr::Lit(v)), "y")]);
        for (a, b) in [
            (Value::Int(7), Value::Float(7.0)),
            (Value::Float(0.0), Value::Float(-0.0)),
            (Value::Int((1 << 53) + 1), Value::Float((1u64 << 53) as f64)),
        ] {
            let (qa, qb) = (divided_by(a), divided_by(b));
            assert_eq!(qa, qb, "the pair must be equal under Query: PartialEq");
            assert_ne!(memo_key(&qa), memo_key(&qb));
        }
        // Floats print so they round-trip: neighbours keep apart.
        let next = f64::from_bits(0.1f64.to_bits() + 1);
        assert_ne!(
            memo_key(&divided_by(Value::Float(0.1))),
            memo_key(&divided_by(Value::Float(next)))
        );

        let q = || {
            Query::scan("T")
                .filter(Expr::col("a").in_list(vec![Value::Null, "s".into(), 1.5.into()]))
                .aggregate(vec!["b"], vec![(AggFunc::Sum, Some("a"), "s")])
                .limit(3)
        };
        assert_eq!(memo_key(&q()), memo_key(&q()));

        // Strings are quoted and escaped, so no split or embedded quote
        // makes two lists print alike.
        let listed = |items: &[&str]| {
            let items = items.iter().map(|&s| s.into()).collect();
            Query::scan("T").filter(Expr::col("a").in_list(items))
        };
        assert_ne!(
            memo_key(&listed(&["ab", "c"])),
            memo_key(&listed(&["a", "bc"]))
        );
        assert_ne!(
            memo_key(&listed(&["a\", \"b"])),
            memo_key(&listed(&["a", "b"]))
        );

        let base = Query::scan("T");
        let keys = [
            memo_key(&base),
            memo_key(&base.clone().distinct()),
            memo_key(&base.clone().limit(0)),
            memo_key(&base.clone().filter(Expr::lit(true))),
            memo_key(&base.clone().filter(Expr::lit(true).not())),
            memo_key(&base.filter(Expr::col("a").is_null())),
        ];
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "plans {i} and {j} share a key");
            }
        }
    }

    #[test]
    fn memo_keys_are_exact_not_sql_equal() {
        use crate::conflict::NaiveConflictEngine;

        // `big` holds 2^53 and 2^53 + 1, two i64 values that round to the
        // same f64: `big = Int(2^53 + 1)` matches one row, while
        // `big = Float(2^53)` matches both.
        let mut rel = Relation::new(Schema::new(vec![
            ("name", ColumnType::Str),
            ("big", ColumnType::Int),
            ("age", ColumnType::Int),
        ]));
        let big = 1i64 << 53;
        for (i, (n, b)) in [("a", big), ("b", big + 1), ("c", 5), ("d", 6)]
            .into_iter()
            .enumerate()
        {
            rel.push(vec![n.into(), Value::Int(b), Value::Int(20 + 3 * i as i64)])
                .unwrap();
        }
        let mut d = Database::new();
        d.add_table("T", rel);
        let broker = Broker::new(d, &SupportConfig::with_size(80));
        broker.set_pricing(Pricing::Item {
            weights: (1..=broker.support().len()).map(|w| w as f64).collect(),
        });
        let naive = NaiveConflictEngine::new(broker.database(), broker.support());

        let divided_by = |v: Value| {
            Query::scan("T")
                .filter(Expr::col("age").div(Expr::Lit(v)).gt(Expr::lit(3)))
                .project_cols(&["name"])
        };
        let big_equals = |v: Value| {
            Query::scan("T")
                .filter(Expr::col("big").eq(Expr::Lit(v)))
                .project_cols(&["name"])
        };
        let pairs = [
            (divided_by(Value::Int(7)), divided_by(Value::Float(7.0))),
            (
                divided_by(Value::Float(0.0)),
                divided_by(Value::Float(-0.0)),
            ),
            (
                big_equals(Value::Int(big + 1)),
                big_equals(Value::Float(big as f64)),
            ),
        ];
        for (i, (a, b)) in pairs.iter().enumerate() {
            assert_eq!(a, b, "pair {i} must be equal under Query: PartialEq");
            let before = memo_len(&broker);
            for q in [a, b, a, b] {
                let quote = broker.quote(q);
                let expected = naive.conflict_set(q);
                assert_eq!(quote.conflict_set, expected, "pair {i}");
                assert_eq!(quote.price, broker.pricing().price_set(&expected));
            }
            assert_eq!(memo_len(&broker), before + 2, "pair {i} shares an entry");
        }
        // The last pair answers differently, so a PartialEq-keyed memo
        // would have served one of them the other's price.
        let (a, b) = &pairs[2];
        assert_ne!(naive.conflict_set(a), naive.conflict_set(b));
    }

    #[test]
    fn builder_seeds_the_memo_with_the_anticipated_sets() {
        let sink = TelemetrySink::enabled();
        let broker = Broker::builder(db())
            .support_config(SupportConfig::with_size(80))
            .algorithm("LPIP")
            .anticipate_all(buyer_queries().into_iter().map(|q| (q, 10.0)))
            .telemetry(sink.clone())
            .build()
            .expect("LPIP is registered");
        let fresh = DeltaConflictEngine::new(broker.database(), broker.support());
        assert_eq!(memo_len(&broker), buyer_queries().len());
        for q in buyer_queries() {
            assert_eq!(broker.quote(&q).conflict_set, fresh.conflict_set(&q));
        }
        let snap = sink.snapshot();
        assert_eq!(
            snap.counter("broker.memo.hit"),
            Some(buyer_queries().len() as u64)
        );
        assert_eq!(snap.counter("broker.memo.miss"), Some(0));
    }

    #[test]
    fn memo_is_bounded_and_refills_after_a_clear() {
        let broker = Broker::new(db(), &SupportConfig::with_size(8));
        let fresh = DeltaConflictEngine::new(broker.database(), broker.support());
        let query = |i: usize| {
            Query::scan("User")
                .filter(Expr::col("age").ge(Expr::lit(i as i64)))
                .project_cols(&["name"])
        };
        let distinct = MEMO_CAPACITY + 50;
        for i in 0..distinct {
            let q = query(i);
            assert_eq!(broker.conflict_set(&q), fresh.conflict_set(&q), "query {i}");
            assert!(memo_len(&broker) <= MEMO_CAPACITY);
        }
        // Full at MEMO_CAPACITY, cleared by the next insert, then refilled.
        assert_eq!(memo_len(&broker), distinct - MEMO_CAPACITY);
        for i in (0..distinct).step_by(97) {
            let q = query(i);
            assert_eq!(broker.conflict_set(&q), fresh.conflict_set(&q), "query {i}");
        }
    }

    #[test]
    fn concurrent_quotes_on_a_fresh_broker_get_the_serial_sets() {
        let queries = buyer_queries();
        let serial: Vec<ItemSet> = {
            let broker = Broker::new(db(), &SupportConfig::with_size(80));
            let engine = DeltaConflictEngine::new(broker.database(), broker.support());
            queries.iter().map(|q| engine.conflict_set(q)).collect()
        };
        let shared = Broker::new(db(), &SupportConfig::with_size(80));
        // Both threads start each query together, so the first round races
        // two misses on the same plan into the memo.
        let start = std::sync::Barrier::new(2);
        let quoted: Vec<Vec<ItemSet>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let mut sets = Vec::new();
                        for _ in 0..20 {
                            for q in &queries {
                                start.wait();
                                sets.push(shared.quote(q).conflict_set);
                            }
                        }
                        sets
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for sets in quoted {
            for (got, expected) in sets.iter().zip(serial.iter().cycle()) {
                assert_eq!(got, expected);
            }
        }
        assert_eq!(memo_len(&shared), queries.len());
    }

    #[test]
    fn memo_counters_split_conflict_set_calls_into_hits_and_misses() {
        let sink = TelemetrySink::enabled();
        let broker = Broker::new(db(), &SupportConfig::with_size(30)).with_telemetry(sink.clone());
        let queries = buyer_queries();
        let repeated = &queries[0];
        let mut calls = 0u64;
        broker.conflict_set(repeated);
        calls += 1;
        let snap = sink.snapshot();
        assert_eq!(snap.counter("broker.memo.miss"), Some(1));
        assert_eq!(snap.counter("broker.memo.hit"), Some(0));
        for _ in 0..3 {
            broker.conflict_set(repeated);
            calls += 1;
        }
        let snap = sink.snapshot();
        assert_eq!(snap.counter("broker.memo.miss"), Some(1));
        assert_eq!(snap.counter("broker.memo.hit"), Some(3));

        for q in queries.iter().cycle().take(7) {
            broker.quote(q);
            calls += 1;
        }
        let snap = sink.snapshot();
        let (hits, misses) = (
            snap.counter("broker.memo.hit").unwrap(),
            snap.counter("broker.memo.miss").unwrap(),
        );
        assert_eq!(hits + misses, calls);
        assert_eq!(misses, queries.len() as u64);
    }
}
