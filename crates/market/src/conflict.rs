//! Conflict-set computation.
//!
//! For a buyer query `Q`, the conflict set `C_S(Q, D) = {D' ∈ S | Q(D) ≠ Q(D')}`
//! is the bundle of support databases the buyer can rule out after seeing the
//! answer. Conflict sets are the hyperedges handed to the pricing algorithms,
//! and they are represented as [`ItemSet`] bitsets (`qp-core`): one bit per
//! support database, so membership tests are O(1) and the downstream pricing
//! algebra (union, subset, popcount) is block-wise over u64 words.
//!
//! Three engines are provided:
//!
//! * [`NaiveConflictEngine`] re-evaluates the query on every support database
//!   (lazily overlaid, never copied). Always correct; cost `O(|S| · eval)`.
//!   An evaluation error counts as "answers differ" only when **exactly one**
//!   of `Q(D)` / `Q(D')` fails; when both sides fail, the buyer learns
//!   nothing that distinguishes them, so the delta is not a conflict.
//! * [`DeltaConflictEngine`] exploits the fact that every support database
//!   differs from `D` in a *single tuple*. For the single-table query shapes
//!   that dominate the paper's workloads (selection/projection chains, with
//!   or without `DISTINCT`, and grouping/aggregation on top of such chains)
//!   it decides membership by evaluating the chain on just the old and new
//!   versions of the perturbed tuple, falling back to the naive engine for
//!   joins, `LIMIT`, and other shapes. The two engines are proven equivalent
//!   by the property tests in `tests/proptest_conflict.rs`.
//! * [`ParallelConflictEngine`] fans a query batch across scoped worker
//!   threads, each running its own [`DeltaConflictEngine`]; workers claim
//!   queries from a shared `parking_lot`-guarded ledger so expensive queries
//!   do not serialize behind a static partition. Single-query calls and the
//!   degenerate one-thread case take the serial path unchanged.

use std::borrow::Cow;
use std::collections::HashMap;

use qp_core::ItemSet;
use qp_pricing::Hypergraph;
use qp_qdb::eval::aggregate;
use qp_qdb::{
    Aggregate, Database, Delta, DeltaInstance, QdbError, Query, Relation, RowPath, Tuple, Value,
};

use crate::parallel::claim_map;
use crate::support::SupportSet;

/// A conflict-set engine bound to a database and a support set.
pub trait ConflictEngine {
    /// The indices (into the support set) of the databases in conflict with
    /// `query`'s answer on the base database.
    fn conflict_set(&self, query: &Query) -> ItemSet;

    /// Number of support databases.
    fn support_size(&self) -> usize;

    /// Conflict sets for a batch of queries, in query order.
    ///
    /// The default maps [`ConflictEngine::conflict_set`] serially;
    /// [`ParallelConflictEngine`] overrides it to fan the batch across
    /// threads.
    fn conflict_sets(&self, queries: &[Query]) -> Vec<ItemSet> {
        queries.iter().map(|q| self.conflict_set(q)).collect()
    }
}

/// Builds the pricing hypergraph for a batch of buyer queries: one hyperedge
/// per query, with a placeholder valuation of 0 (valuations are assigned by
/// the caller, typically from one of the paper's generative models). Goes
/// through [`ConflictEngine::conflict_sets`], so a parallel engine
/// parallelizes hypergraph construction for free.
pub fn build_hypergraph<E: ConflictEngine + ?Sized>(engine: &E, queries: &[Query]) -> Hypergraph {
    let mut h = Hypergraph::new(engine.support_size());
    for edge in engine.conflict_sets(queries) {
        h.add_edge_set(edge, 0.0);
    }
    h
}

// ---------------------------------------------------------------------------
// Naive engine
// ---------------------------------------------------------------------------

/// The baseline engine: evaluate `Q` on every (lazily overlaid) support
/// database and compare answers under bag semantics.
pub struct NaiveConflictEngine<'a> {
    db: &'a Database,
    support: &'a SupportSet,
}

impl<'a> NaiveConflictEngine<'a> {
    /// Creates an engine over `db` and `support`.
    pub fn new(db: &'a Database, support: &'a SupportSet) -> Self {
        NaiveConflictEngine { db, support }
    }
}

impl ConflictEngine for NaiveConflictEngine<'_> {
    fn conflict_set(&self, query: &Query) -> ItemSet {
        let mut out = ItemSet::with_capacity(self.support.len());
        let base = query.evaluate(self.db);
        let tables = query.tables_referenced();
        for (i, delta) in self.support.deltas().iter().enumerate() {
            if !tables.contains(&delta.table) {
                continue; // the perturbation cannot influence the answer
            }
            let overlay = DeltaInstance::new(self.db, delta);
            if answers_differ(&base, &query.evaluate(&overlay)) {
                out.insert(i);
            }
        }
        out
    }

    fn support_size(&self) -> usize {
        self.support.len()
    }
}

/// Decides `Q(D) ≠ Q(D')` from the two evaluation results, treating
/// evaluation errors symmetrically: an error counts as "answers differ" only
/// when exactly one side fails. When both sides fail, the buyer observes the
/// same failure either way and cannot distinguish the instances.
///
/// (Before this was factored out, a failing base evaluation produced an empty
/// conflict set while a failing overlay evaluation counted as a conflict —
/// the asymmetry fixed by this helper.)
fn answers_differ(base: &Result<Relation, QdbError>, overlay: &Result<Relation, QdbError>) -> bool {
    match (base, overlay) {
        (Ok(b), Ok(o)) => !o.same_answer(b),
        (Err(_), Err(_)) => false,
        _ => true,
    }
}

// ---------------------------------------------------------------------------
// Delta-aware engine
// ---------------------------------------------------------------------------

/// Structural classification of a query for the incremental fast paths.
/// A *chain* is a `[Filter|Project]*` over one `Scan` ([`Query::chain_table`]).
enum Shape<'q> {
    /// A chain, no aggregate/distinct/limit: membership depends only on the
    /// per-row contribution of the perturbed tuple.
    Chain { table: &'q str },
    /// `Distinct` on top of a chain: additionally needs the multiplicity
    /// of each output row over the base database.
    DistinctChain { table: &'q str, chain: &'q Query },
    /// `Aggregate` (group-by + aggregates) on top of a chain.
    AggregateChain {
        table: &'q str,
        /// The chain below the aggregate (produces the aggregation input).
        chain: &'q Query,
        group_by: &'q [String],
        aggs: &'q [Aggregate],
    },
    /// Anything else (joins, LIMIT, nested aggregates, …).
    Other,
}

fn classify(q: &Query) -> Shape<'_> {
    match q {
        Query::Distinct { input } => match input.chain_table() {
            Some(table) => Shape::DistinctChain {
                table,
                chain: input,
            },
            None => Shape::Other,
        },
        Query::Aggregate {
            input,
            group_by,
            aggs,
        } => match input.chain_table() {
            Some(table) => Shape::AggregateChain {
                table,
                chain: input,
                group_by,
                aggs,
            },
            None => Shape::Other,
        },
        other => match other.chain_table() {
            Some(table) => Shape::Chain { table },
            None => Shape::Other,
        },
    }
}

/// The delta-aware engine.
pub struct DeltaConflictEngine<'a> {
    db: &'a Database,
    support: &'a SupportSet,
    naive: NaiveConflictEngine<'a>,
}

impl<'a> DeltaConflictEngine<'a> {
    /// Creates an engine over `db` and `support`.
    pub fn new(db: &'a Database, support: &'a SupportSet) -> Self {
        DeltaConflictEngine {
            db,
            support,
            naive: NaiveConflictEngine::new(db, support),
        }
    }

    /// `chain` bound to the schema of `table`, with the table's rows.
    ///
    /// `None` where evaluating the chain on the base database fails. Such
    /// errors come from binding, and overlays share the base schema, so the
    /// chain then fails identically on every support database and (per the
    /// symmetric error rule of `answers_differ`) nothing is in conflict.
    fn bind(&self, chain: &Query, table: &str) -> Option<(RowPath, &'a [Tuple])> {
        let rel = self.db.table(table).ok()?;
        let path = RowPath::new(chain, rel.schema()).ok()?;
        Some((path, rel.rows()))
    }

    /// The support databases that perturb `table`: each one's index and
    /// delta, with the perturbed tuple before and after the change.
    fn perturbations<'s>(
        &'s self,
        table: &'s str,
    ) -> impl Iterator<Item = (usize, &'a Delta, &'a Tuple, Tuple)> + 's {
        let db = self.db;
        self.support
            .deltas()
            .iter()
            .enumerate()
            .filter(move |(_, d)| d.table == table)
            .filter_map(move |(i, d)| Some((i, d, d.old_tuple(db).ok()?, d.new_tuple(db).ok()?)))
    }
}

impl ConflictEngine for DeltaConflictEngine<'_> {
    fn conflict_set(&self, query: &Query) -> ItemSet {
        let mut out = ItemSet::with_capacity(self.support.len());
        match classify(query) {
            Shape::Chain { table } => self.chain_conflicts(query, table, &mut out),
            Shape::DistinctChain { table, chain } => {
                self.distinct_conflicts(chain, table, &mut out)
            }
            Shape::AggregateChain {
                table,
                chain,
                group_by,
                aggs,
            } => self.aggregate_conflicts(chain, group_by, aggs, table, &mut out),
            Shape::Other => return self.naive.conflict_set(query),
        }
        out
    }

    fn support_size(&self) -> usize {
        self.support.len()
    }
}

impl DeltaConflictEngine<'_> {
    /// Fast path for plain filter/project chains: the answer changes iff the
    /// perturbed tuple's contribution changes. Fills the empty set `out`.
    fn chain_conflicts(&self, chain: &Query, table: &str, out: &mut ItemSet) {
        let Some((path, _)) = self.bind(chain, table) else {
            return;
        };
        for (i, _, old, new) in self.perturbations(table) {
            if path.apply(old) != path.apply(&new) {
                out.insert(i);
            }
        }
    }

    /// Fast path for `DISTINCT` over a chain: the distinct set changes iff
    /// the old contribution loses its last copy or the new one gains its
    /// first. Fills the empty set `out`.
    fn distinct_conflicts(&self, chain: &Query, table: &str, out: &mut ItemSet) {
        let Some((path, rows)) = self.bind(chain, table) else {
            return;
        };
        // Multiplicity of every output row of the chain over the base data.
        let mut counts: HashMap<Cow<Tuple>, usize> = HashMap::with_capacity(rows.len());
        for r in rows.iter().filter_map(|r| path.apply(r)) {
            *counts.entry(r).or_insert(0) += 1;
        }
        let count = |r: &Tuple| counts.get(r).copied().unwrap_or(0);

        for (i, _, old, new) in self.perturbations(table) {
            let (c_old, c_new) = (path.apply(old), path.apply(&new));
            if c_old == c_new {
                continue;
            }
            let removed = c_old.as_deref().is_some_and(|r| count(r) == 1);
            let added = c_new.as_deref().is_some_and(|r| count(r) == 0);
            if removed || added {
                out.insert(i);
            }
        }
    }

    /// Fast path for aggregation over a chain: only the groups touched by the
    /// perturbed tuple can change; recompute exactly those groups. Fills the
    /// empty set `out`.
    ///
    /// Each affected group is recomputed over its rows in the order the
    /// overlay evaluation sees them: base-table order, with the perturbed
    /// row's new contribution at [`Delta::row`]. Float `SUM`/`AVG` depend on
    /// summation order, so any other order can differ from `Q(D')` in the
    /// last bits and report a false conflict.
    fn aggregate_conflicts(
        &self,
        chain: &Query,
        group_by: &[String],
        aggs: &[Aggregate],
        table: &str,
        out: &mut ItemSet,
    ) {
        let Some((path, rows)) = self.bind(chain, table) else {
            return;
        };
        let schema = path.schema();
        // The aggregation input over the base table: each chain output row
        // with the index of the base row that produced it.
        let input: Vec<(usize, Cow<Tuple>)> = rows
            .iter()
            .enumerate()
            .filter_map(|(i, r)| Some((i, path.apply(r)?)))
            .collect();
        // Fails on the base database (an unknown grouping or aggregated
        // column) exactly when it fails on every support database.
        let Ok(base) = aggregate(schema, input.iter().map(|(_, r)| &**r), group_by, aggs) else {
            return;
        };
        let key_idx: Vec<usize> = group_by
            .iter()
            .map(|c| schema.index_of(c).expect("bound by the base aggregate"))
            .collect();
        fn key<'r>(key_idx: &[usize], row: &'r Tuple) -> Vec<&'r Value> {
            key_idx.iter().map(|&k| &row[k]).collect()
        }

        // Positions in `input` by group key; each group in base-table order.
        let mut groups: HashMap<Vec<&Value>, Vec<usize>> = HashMap::new();
        for (pos, (_, r)) in input.iter().enumerate() {
            groups.entry(key(&key_idx, r)).or_default().push(pos);
        }
        // Base output rows by key (key columns come first, see the
        // evaluator).
        let k = group_by.len();
        let base_by_key: HashMap<Vec<&Value>, &Tuple> = base
            .rows()
            .iter()
            .map(|r| (r[..k].iter().collect(), r))
            .collect();

        for (i, delta, old, new) in self.perturbations(table) {
            let (c_old, c_new) = (path.apply(old), path.apply(&new));
            if c_old == c_new {
                continue;
            }
            // Affected group keys. A global aggregate (no group-by) has the
            // single key [].
            let mut keys: Vec<Vec<&Value>> = Vec::with_capacity(2);
            for r in c_old.iter().chain(&c_new) {
                let key = key(&key_idx, r);
                if !keys.contains(&key) {
                    keys.push(key);
                }
            }

            let changed = keys.iter().any(|k| {
                // The group's rows as the overlay sees them: base rows before
                // the perturbed one, its new contribution, then the rest.
                let members = groups.get(k).map_or(&[][..], Vec::as_slice);
                let split = members.partition_point(|&p| input[p].0 < delta.row);
                let before = members[..split].iter().map(|&p| &*input[p].1);
                let new_row = c_new.as_deref().filter(|r| key(&key_idx, r) == *k);
                let after = members[split..]
                    .iter()
                    .filter(|&&p| input[p].0 != delta.row)
                    .map(|&p| &*input[p].1);
                let recomputed =
                    aggregate(schema, before.chain(new_row).chain(after), group_by, aggs)
                        .expect("bound by the base aggregate");
                match (recomputed.rows().first(), base_by_key.get(k)) {
                    (Some(a), Some(b)) => a != *b,
                    (None, None) => false,
                    // A group appeared or disappeared.
                    _ => true,
                }
            });
            if changed {
                out.insert(i);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Parallel engine
// ---------------------------------------------------------------------------

/// A batch-parallel conflict engine: [`ConflictEngine::conflict_sets`] fans
/// the queries across `std::thread::scope` workers, each running its own
/// [`DeltaConflictEngine`] over the shared (read-only) database and support.
///
/// Work distribution is dynamic: workers claim the next unprocessed query
/// from a shared ledger guarded by a `parking_lot` mutex, so a few expensive
/// queries (e.g. naive-fallback joins) do not leave the other threads idle.
/// Results land in the ledger at the query's index, preserving order.
///
/// Batches whose total work (queries × support size) is below a small
/// threshold take the serial path directly — thread spawn and ledger
/// round-trips would cost more than they save. The same reasoning clamps the
/// worker count to the hardware parallelism: whenever the effective thread
/// count is 1 (single-query calls, one-core machines, tiny batches), the
/// engine is exactly the serial [`DeltaConflictEngine`], regardless of work
/// size.
pub struct ParallelConflictEngine<'a> {
    db: &'a Database,
    support: &'a SupportSet,
    threads: usize,
}

impl<'a> ParallelConflictEngine<'a> {
    /// Creates an engine over `db` and `support` with one worker per
    /// available hardware thread.
    pub fn new(db: &'a Database, support: &'a SupportSet) -> Self {
        ParallelConflictEngine::with_threads(db, support, usize::MAX)
    }

    /// Creates an engine with at most `threads` workers (must be positive).
    ///
    /// The requested count is clamped to the available hardware parallelism:
    /// asking for more workers than the machine can run concurrently only
    /// adds spawn and ledger overhead (`BENCH_conflict.json` puts the forced
    /// 4-thread path at ≤1.06× serial — often *below* 1× — on a 1-core
    /// container), so the effective count on such a machine is 1 and batches
    /// take the serial path. Use
    /// [`ParallelConflictEngine::with_threads_forced`] to bypass the clamp
    /// for overhead measurements.
    pub fn with_threads(db: &'a Database, support: &'a SupportSet, threads: usize) -> Self {
        assert!(threads > 0, "at least one worker thread is required");
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ParallelConflictEngine::with_threads_forced(db, support, threads.min(hw))
    }

    /// Creates an engine with an *exact* worker count, bypassing the
    /// hardware-parallelism clamp of [`ParallelConflictEngine::with_threads`].
    ///
    /// This exists for benchmarks that measure threading overhead on
    /// undersized machines and for tests that must exercise the threaded
    /// path regardless of where they run; production callers should let the
    /// clamp do its job.
    pub fn with_threads_forced(db: &'a Database, support: &'a SupportSet, threads: usize) -> Self {
        assert!(threads > 0, "at least one worker thread is required");
        ParallelConflictEngine {
            db,
            support,
            threads,
        }
    }

    /// Number of worker threads a batch call will spawn (at most).
    pub fn threads(&self) -> usize {
        self.threads
    }
}

/// Minimum batch work (queries × support databases) before spawning worker
/// threads pays for itself; smaller batches take the serial path.
const PARALLEL_WORK_THRESHOLD: usize = 4096;

impl ConflictEngine for ParallelConflictEngine<'_> {
    /// Single-query calls take the serial delta-engine path; spawning threads
    /// for one conflict set would only add overhead.
    fn conflict_set(&self, query: &Query) -> ItemSet {
        DeltaConflictEngine::new(self.db, self.support).conflict_set(query)
    }

    fn support_size(&self) -> usize {
        self.support.len()
    }

    /// One effective worker takes the serial path no matter how large the
    /// batch is — a second thread cannot exist to share the work, so spawn +
    /// ledger overhead would be pure loss. Multi-worker batches still fall
    /// back to serial below the work threshold.
    fn conflict_sets(&self, queries: &[Query]) -> Vec<ItemSet> {
        let workers = self.threads.min(queries.len());
        if queries.len() * self.support.len() < PARALLEL_WORK_THRESHOLD {
            return DeltaConflictEngine::new(self.db, self.support).conflict_sets(queries);
        }
        claim_map(
            queries,
            workers,
            || DeltaConflictEngine::new(self.db, self.support),
            |engine, query| engine.conflict_set(query),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::support::SupportConfig;
    use qp_qdb::{AggFunc, ColumnType, Expr, Schema};

    fn world_like_db() -> Database {
        let mut rel = Relation::new(Schema::new(vec![
            ("name", ColumnType::Str),
            ("continent", ColumnType::Str),
            ("population", ColumnType::Int),
        ]));
        let continents = ["Asia", "Europe", "Africa"];
        for i in 0..60 {
            rel.push(vec![
                format!("country{i}").into(),
                continents[i % 3].into(),
                Value::Int(1000 + (i as i64) * 37),
            ])
            .unwrap();
        }
        let mut db = Database::new();
        db.add_table("Country", rel);
        db
    }

    fn queries() -> Vec<Query> {
        vec![
            // Selection + projection chain.
            Query::scan("Country")
                .filter(Expr::col("continent").eq(Expr::lit("Asia")))
                .project_cols(&["name"]),
            // Distinct chain.
            Query::scan("Country")
                .project_cols(&["continent"])
                .distinct(),
            // Global aggregate.
            Query::scan("Country")
                .filter(Expr::col("population").gt(Expr::lit(1500)))
                .aggregate(vec![], vec![(AggFunc::Count, None, "c")]),
            // Group-by aggregate.
            Query::scan("Country").aggregate(
                vec!["continent"],
                vec![(AggFunc::Max, Some("population"), "mx")],
            ),
            // Full scan.
            Query::scan("Country"),
        ]
    }

    #[test]
    fn delta_engine_matches_naive_engine() {
        let db = world_like_db();
        let support = SupportSet::generate(&db, &SupportConfig::with_size(120));
        let naive = NaiveConflictEngine::new(&db, &support);
        let fast = DeltaConflictEngine::new(&db, &support);
        for q in queries() {
            let a = naive.conflict_set(&q);
            let b = fast.conflict_set(&q);
            assert_eq!(
                a,
                b,
                "engines disagree on {:?}",
                qp_qdb::pretty::render_plan(&q)
            );
        }
    }

    #[test]
    fn join_queries_fall_back_to_naive() {
        let mut db = world_like_db();
        let mut city = Relation::new(Schema::new(vec![
            ("cname", ColumnType::Str),
            ("country", ColumnType::Str),
        ]));
        for i in 0..30 {
            city.push(vec![
                format!("city{i}").into(),
                format!("country{}", i * 2).into(),
            ])
            .unwrap();
        }
        db.add_table("City", city);
        let support = SupportSet::generate(&db, &SupportConfig::with_size(80));
        let q = Query::scan("Country")
            .join(Query::scan("City"), vec![("name", "country")])
            .aggregate(vec![], vec![(AggFunc::Count, None, "c")]);
        let naive = NaiveConflictEngine::new(&db, &support);
        let fast = DeltaConflictEngine::new(&db, &support);
        assert_eq!(naive.conflict_set(&q), fast.conflict_set(&q));
    }

    #[test]
    fn deltas_on_unrelated_tables_never_conflict() {
        let mut db = world_like_db();
        let mut other = Relation::new(Schema::new(vec![("x", ColumnType::Int)]));
        for i in 0..20 {
            other.push(vec![Value::Int(i)]).unwrap();
        }
        db.add_table("Other", other);
        let support = SupportSet::generate(&db, &SupportConfig::with_size(100));
        let q = Query::scan("Other").aggregate(vec![], vec![(AggFunc::Sum, Some("x"), "s")]);
        let naive = NaiveConflictEngine::new(&db, &support);
        for i in naive.conflict_set(&q).iter() {
            assert_eq!(support.deltas()[i].table, "Other");
        }
    }

    #[test]
    fn aggregates_naming_the_origin_column_match_naive() {
        // A name an engine could reserve for bookkeeping, such as a row-index
        // column, is an ordinary column name: a base column and a projection
        // output named so must give the naive engine's sets.
        const ORIGIN: &str = "\u{0}origin";
        let mut db = world_like_db();
        let mut named = Relation::new(Schema::new(vec![(ORIGIN, ColumnType::Int)]));
        for i in 0..60 {
            named.push(vec![Value::Int(1000 + i * 37)]).unwrap();
        }
        db.add_table("Named", named);
        let support = SupportSet::generate(&db, &SupportConfig::with_size(120));
        let count_over_2000 = |q: Query| {
            q.project(vec![(Expr::col(ORIGIN), "p")])
                .filter(Expr::col("p").gt(Expr::lit(2000)))
                .aggregate(vec![], vec![(AggFunc::Count, None, "c")])
        };
        let naive = NaiveConflictEngine::new(&db, &support);
        let fast = DeltaConflictEngine::new(&db, &support);
        for q in [
            count_over_2000(Query::scan("Named")),
            count_over_2000(
                Query::scan("Country").project(vec![(Expr::col("population"), ORIGIN)]),
            ),
        ] {
            assert!(!naive.conflict_set(&q).is_empty());
            assert_eq!(naive.conflict_set(&q), fast.conflict_set(&q));
        }
    }

    #[test]
    fn evaluation_errors_are_treated_symmetrically() {
        // Regression: a failing base evaluation used to yield an empty
        // conflict set while a failing overlay evaluation counted as a
        // conflict. The decision is now symmetric — "answers differ" iff
        // exactly one side fails.
        let ok = |v: i64| -> Result<Relation, qp_qdb::QdbError> {
            let mut rel = Relation::new(Schema::new(vec![("x", ColumnType::Int)]));
            rel.push(vec![Value::Int(v)]).unwrap();
            Ok(rel)
        };
        let err = || -> Result<Relation, qp_qdb::QdbError> {
            Err(qp_qdb::QdbError::UnknownColumn("nope".into()))
        };
        assert!(!answers_differ(&ok(1), &ok(1)));
        assert!(answers_differ(&ok(1), &ok(2)));
        assert!(answers_differ(&ok(1), &err()), "only overlay fails");
        assert!(answers_differ(&err(), &ok(1)), "only base fails");
        assert!(!answers_differ(&err(), &err()), "both fail the same way");
    }

    #[test]
    fn queries_that_always_fail_have_empty_conflict_sets_in_both_engines() {
        // An unknown column fails on the base database and on every overlay
        // (deltas never change the schema), so under the symmetric rule the
        // conflict set is empty — and the delta engine agrees.
        let db = world_like_db();
        let support = SupportSet::generate(&db, &SupportConfig::with_size(50));
        let q = Query::scan("Country").filter(Expr::col("no_such_column").eq(Expr::lit(1)));
        let naive = NaiveConflictEngine::new(&db, &support);
        let fast = DeltaConflictEngine::new(&db, &support);
        assert!(naive.conflict_set(&q).is_empty());
        assert_eq!(naive.conflict_set(&q), fast.conflict_set(&q));
    }

    #[test]
    fn parallel_engine_matches_serial_engines_query_by_query() {
        let db = world_like_db();
        // Large enough that queries × support clears the serial-fallback
        // threshold: the threaded path itself is under test.
        let support = SupportSet::generate(&db, &SupportConfig::with_size(900));
        let serial = DeltaConflictEngine::new(&db, &support);
        for threads in [1, 2, 5] {
            // Forced thread counts so the threaded path is exercised even on
            // a single-core machine, where `with_threads` would clamp to 1.
            let parallel = ParallelConflictEngine::with_threads_forced(&db, &support, threads);
            assert_eq!(parallel.support_size(), support.len());
            let qs = queries();
            let batch = parallel.conflict_sets(&qs);
            assert_eq!(batch.len(), qs.len());
            for (q, set) in qs.iter().zip(&batch) {
                assert_eq!(set, &serial.conflict_set(q), "threads={threads}");
                assert_eq!(set, &parallel.conflict_set(q), "threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_hypergraph_matches_the_serial_hypergraph() {
        let db = world_like_db();
        let support = SupportSet::generate(&db, &SupportConfig::with_size(850));
        let qs = queries();
        let serial = build_hypergraph(&DeltaConflictEngine::new(&db, &support), &qs);
        let parallel = build_hypergraph(
            &ParallelConflictEngine::with_threads_forced(&db, &support, 4),
            &qs,
        );
        assert_eq!(serial.num_items(), parallel.num_items());
        assert_eq!(serial.num_edges(), parallel.num_edges());
        for i in 0..serial.num_edges() {
            assert_eq!(serial.edge(i).items, parallel.edge(i).items);
        }
    }

    #[test]
    fn requested_threads_are_clamped_to_hardware_parallelism() {
        let db = world_like_db();
        let support = SupportSet::generate(&db, &SupportConfig::with_size(20));
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        // `new` and over-asking `with_threads` both land on the hardware
        // count; `with_threads_forced` keeps the exact request.
        assert_eq!(ParallelConflictEngine::new(&db, &support).threads(), hw);
        assert_eq!(
            ParallelConflictEngine::with_threads(&db, &support, usize::MAX).threads(),
            hw
        );
        assert_eq!(
            ParallelConflictEngine::with_threads(&db, &support, 1).threads(),
            1
        );
        assert_eq!(
            ParallelConflictEngine::with_threads_forced(&db, &support, 64).threads(),
            64
        );
    }

    #[test]
    fn build_hypergraph_has_one_edge_per_query() {
        let db = world_like_db();
        let support = SupportSet::generate(&db, &SupportConfig::with_size(60));
        let engine = DeltaConflictEngine::new(&db, &support);
        let qs = queries();
        let h = build_hypergraph(&engine, &qs);
        assert_eq!(h.num_edges(), qs.len());
        assert_eq!(h.num_items(), 60);
        // The full-table scan conflicts with every delta on Country.
        let full_scan_edge = h.edge(4);
        let country_deltas = support
            .deltas()
            .iter()
            .filter(|d| d.table == "Country")
            .count();
        assert_eq!(full_scan_edge.size(), country_deltas);
    }

    #[test]
    fn selective_queries_have_smaller_conflict_sets() {
        let db = world_like_db();
        let support = SupportSet::generate(&db, &SupportConfig::with_size(150));
        let engine = DeltaConflictEngine::new(&db, &support);
        let narrow = Query::scan("Country")
            .filter(Expr::col("name").eq(Expr::lit("country3")))
            .project_cols(&["population"]);
        let broad = Query::scan("Country");
        let narrow_set = engine.conflict_set(&narrow);
        let broad_set = engine.conflict_set(&broad);
        assert!(narrow_set.len() < broad_set.len());
        // Everything that conflicts with the narrow query also conflicts with
        // the full scan (information monotonicity at the conflict-set level).
        assert!(narrow_set.is_subset(&broad_set));
    }
}
