//! Whole-workload oracle for the delta engine: on each of the paper's four
//! workloads at test scale (skewed, uniform, SSB, TPC-H), at supports 60
//! and 150, the delta engine must report exactly the conflict sets of the
//! naive engine, which re-evaluates every query on every support database.
//!
//! The tier-1 test checks a fixed subset of each workload's queries, cut so
//! that the debug build stays fast. The ignored test checks every skewed,
//! uniform and TPC-H query and a prefix of SSB; run it in release with
//! `cargo test --release -p qp-market --test workload_oracle -- --ignored`.

use qp_market::{
    ConflictEngine, DeltaConflictEngine, NaiveConflictEngine, SupportConfig, SupportSet,
};
use qp_qdb::{Database, Query};
use qp_workloads::queries::{skewed, uniform};
use qp_workloads::ssb::{self, SsbConfig};
use qp_workloads::tpch::{self, TpchConfig};
use qp_workloads::world::{self, WorldConfig};
use qp_workloads::Scale;

const SUPPORTS: [usize; 2] = [60, 150];

/// A workload's database and queries at test scale.
struct Workload {
    name: &'static str,
    db: Database,
    queries: Vec<Query>,
}

/// The four workloads, in the order skewed, uniform, SSB, TPC-H.
fn workloads() -> [Workload; 4] {
    let cfg = WorldConfig::at_scale(Scale::Test);
    let world = world::generate(&cfg);
    let skewed = skewed::workload(&world, cfg.countries).queries;
    let uniform = uniform::workload(&world, 150).queries;
    [
        Workload {
            name: "skewed",
            db: world.clone(),
            queries: skewed,
        },
        Workload {
            name: "uniform",
            db: world,
            queries: uniform,
        },
        Workload {
            name: "ssb",
            db: ssb::generate(&SsbConfig::at_scale(Scale::Test)),
            queries: ssb::workload().queries,
        },
        Workload {
            name: "tpch",
            db: tpch::generate(&TpchConfig::at_scale(Scale::Test)),
            queries: tpch::workload().queries,
        },
    ]
}

/// Asserts delta == naive at every support size on the queries of `w`
/// picked by `pick` (a query index filter).
fn check(w: &Workload, pick: impl Fn(usize) -> bool) {
    let picked: Vec<(usize, &Query)> = w
        .queries
        .iter()
        .enumerate()
        .filter(|&(i, _)| pick(i))
        .collect();
    assert!(!picked.is_empty(), "{}: no queries picked", w.name);
    for size in SUPPORTS {
        let support = SupportSet::generate(&w.db, &SupportConfig::with_size(size));
        let naive = NaiveConflictEngine::new(&w.db, &support);
        let delta = DeltaConflictEngine::new(&w.db, &support);
        for &(i, q) in &picked {
            assert_eq!(
                delta.conflict_set(q),
                naive.conflict_set(q),
                "{} query {i} at support {size}",
                w.name
            );
        }
    }
}

#[test]
fn delta_matches_naive_on_a_subset_of_every_workload() {
    // Strides coprime to the template periods, so each subset mixes
    // templates; SSB's joins make every query a full naive evaluation.
    let [skewed, uniform, ssb, tpch] = workloads();
    check(&skewed, |i| i % 7 == 0);
    check(&uniform, |i| i % 10 == 0);
    check(&ssb, |i| i % 61 == 0);
    check(&tpch, |i| i % 7 == 0);
}

#[test]
#[ignore = "full workloads: about a minute in release"]
fn delta_matches_naive_on_every_workload_query() {
    let [skewed, uniform, ssb, tpch] = workloads();
    check(&skewed, |_| true);
    check(&uniform, |_| true);
    check(&ssb, |i| i < SSB_PREFIX);
    check(&tpch, |_| true);
}

/// SSB queries checked by the full oracle: every year, region and nation
/// template and half of the per-city ones.
const SSB_PREFIX: usize = 350;
