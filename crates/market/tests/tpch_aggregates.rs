//! Workload-level oracle for the delta engine's aggregate path: on TPC-H,
//! whose single-table aggregates `SUM`/`AVG` float columns, the delta engine
//! must report exactly the conflict sets of the naive engine. A float sum
//! recomputed in any order but the overlay's can differ in the last bits
//! and show up here as a false conflict.

use qp_market::{
    ConflictEngine, DeltaConflictEngine, NaiveConflictEngine, SupportConfig, SupportSet,
};
use qp_qdb::Query;
use qp_workloads::tpch::{self, TpchConfig};
use qp_workloads::Scale;

/// An `Aggregate` directly over a filter/project chain on one table: the
/// shape the delta engine answers on its aggregate path.
fn on_aggregate_path(q: &Query) -> bool {
    matches!(q, Query::Aggregate { input, .. } if input.chain_table().is_some())
}

#[test]
fn delta_matches_naive_on_every_tpch_aggregate() {
    let db = tpch::generate(&TpchConfig::at_scale(Scale::Test));
    let support = SupportSet::generate(&db, &SupportConfig::with_size(60));
    let naive = NaiveConflictEngine::new(&db, &support);
    let delta = DeltaConflictEngine::new(&db, &support);
    let workload = tpch::workload();
    let aggregates: Vec<(usize, &Query)> = workload.queries[..120]
        .iter()
        .enumerate()
        .filter(|(_, q)| on_aggregate_path(q))
        .collect();
    assert!(
        aggregates.len() >= 15,
        "only {} aggregate-path queries",
        aggregates.len()
    );
    for (i, q) in aggregates {
        assert_eq!(delta.conflict_set(q), naive.conflict_set(q), "query {i}");
    }
}
