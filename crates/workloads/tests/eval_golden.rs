//! Golden answers for the evaluator: the `Debug` text of every answer (or
//! error), in row order, hashed over each of the paper's four workloads at
//! test scale. Each query is evaluated on the base database and on an
//! overlay that sets the first cell of every table to NULL, so both borrowed
//! and perturbed rows pass through every operator. Row order matters because
//! `LIMIT` and float `SUM`/`AVG` depend on it: a change to the evaluator
//! that reorders rows or re-associates a float sum changes the hash.

use qp_qdb::{Database, Delta, DeltaInstance, Query, Value};
use qp_workloads::queries::{skewed, uniform};
use qp_workloads::ssb::{self, SsbConfig};
use qp_workloads::tpch::{self, TpchConfig};
use qp_workloads::world::{self, WorldConfig};
use qp_workloads::Scale;

/// FNV-1a: a hash whose value is fixed by its definition, not by the
/// standard library's hasher.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Hash of every query's answer on `db` and on the overlay, in query order.
fn answers_hash(db: &Database, queries: &[Query]) -> u64 {
    let deltas: Vec<Delta> = db
        .table_names()
        .map(|t| Delta::cell(t, 0, 0, Value::Null))
        .collect();
    let overlay = DeltaInstance::with_deltas(db, deltas.iter().collect());
    let mut h = 0xcbf2_9ce4_8422_2325;
    for q in queries {
        h = fnv1a(h, format!("{:?}", q.evaluate(db)).as_bytes());
        h = fnv1a(h, format!("{:?}", q.evaluate(&overlay)).as_bytes());
    }
    h
}

#[test]
fn evaluator_answers_match_the_golden_hashes() {
    let world_cfg = WorldConfig::at_scale(Scale::Test);
    let world = world::generate(&world_cfg);
    let ssb_db = ssb::generate(&SsbConfig::at_scale(Scale::Test));
    let tpch_db = tpch::generate(&TpchConfig::at_scale(Scale::Test));
    let hashes = [
        answers_hash(
            &world,
            &skewed::workload(&world, world_cfg.countries).queries,
        ),
        answers_hash(&world, &uniform::workload(&world, 150).queries),
        answers_hash(&ssb_db, &ssb::workload().queries),
        answers_hash(&tpch_db, &tpch::workload().queries),
    ];
    assert_eq!(
        hashes,
        [
            14125079898257028260,
            2705358718339126282,
            11008584600198101044,
            4267059307909688690,
        ],
        "skewed, uniform, SSB, TPC-H"
    );
}
