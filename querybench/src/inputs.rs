//! Seeded inputs: the dataset, the query streams, valuations, budgets and
//! repricing patches.
//!
//! Every input is a pure function of `(seed, request index)`, so a replay
//! can regenerate request `i` without the run's state.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qp_qdb::{Database, Expr, Query};
use qp_workloads::queries::{skewed, uniform};
use qp_workloads::world::{self, WorldConfig};
use qp_workloads::Scale;

const VALUATION: u64 = 1;
const REQUEST: u64 = 2;
const PATCH: u64 = 3;
const PERMUTATION: u64 = 4;

/// Buyer valuations and budgets are drawn from `[1, VALUE_MAX]`.
const VALUE_MAX: f64 = 50.0;

/// An independent generator for one `(stream, index)` pair of a seed.
fn rng(seed: u64, stream: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ index.wrapping_mul(0xd1b5_4a32_d192_ed03),
    )
}

/// The world dataset at the paper's test scale (60 countries, 120 cities).
/// Fixed across seeds: it is the seller's data, not a buyer input.
pub fn world_db() -> Database {
    world::generate(&WorldConfig::at_scale(Scale::Test))
}

/// The skewed workload with per-query valuations, and a Zipf(1) request
/// stream over it. Ranks follow the workload's published order, so the hot
/// set is the same for every seed.
///
/// The rank variates are a golden-ratio (Weyl) sequence from a seeded
/// offset, not independent draws: any stretch of consecutive requests
/// holds every rank at its Zipf frequency to within a request or two, so
/// each window of a run, and each seed, carries the same mix of cheap
/// delta-path and expensive fallback queries. Independent draws made the
/// mix, and with it throughput, vary by several percent between seeds. The
/// seed moves the offset (reordering the stream) and drives valuations and
/// budgets.
pub struct SkewedStream {
    pub queries: Vec<Query>,
    pub valuations: Vec<f64>,
    /// Zipf(1) cumulative distribution over ranks `1..=queries.len()`.
    cdf: Vec<f64>,
    offset: f64,
    seed: u64,
}

/// `1/φ`: the additive step of the most evenly spread Weyl sequence.
const GOLDEN_STEP: f64 = 0.618_033_988_749_894_8;

impl SkewedStream {
    /// The workload over `db`, cut to its first `limit` queries if given.
    pub fn new(db: &Database, seed: u64, limit: Option<usize>) -> SkewedStream {
        let mut queries =
            skewed::workload(db, WorldConfig::at_scale(Scale::Test).countries).queries;
        if let Some(limit) = limit {
            queries.truncate(limit);
        }
        let valuations = (0..queries.len() as u64)
            .map(|q| rng(seed, VALUATION, q).gen_range(1.0..=VALUE_MAX))
            .collect();
        let mut cdf: Vec<f64> = (1..=queries.len())
            .scan(0.0, |acc, k| {
                *acc += 1.0 / k as f64;
                Some(*acc)
            })
            .collect();
        let total = cdf.last().copied().unwrap_or(1.0);
        cdf.iter_mut().for_each(|c| *c /= total);
        SkewedStream {
            queries,
            valuations,
            cdf,
            offset: rng(seed, PERMUTATION, 0).gen::<f64>(),
            seed,
        }
    }

    /// Request `i`: the query index and the buyer's budget, which is the
    /// query's valuation scaled by a factor in `[0.5, 1.5)`.
    pub fn request(&self, i: u64) -> (usize, f64) {
        let u = (self.offset + i as f64 * GOLDEN_STEP).fract();
        let q = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1);
        let budget = self.valuations[q] * rng(self.seed, REQUEST, i).gen_range(0.5..1.5);
        (q, budget)
    }
}

/// Columns of `City`; each uniform query projects a non-empty subset.
const CITY_COLUMNS: [&str; 5] = ["ID", "Name", "CountryCode", "District", "Population"];
const PROJECTIONS: u64 = (1 << CITY_COLUMNS.len()) - 1;

/// Distinct equal-selectivity queries over `City`.
///
/// Query `j` selects two disjoint, non-adjacent `ID` windows whose lengths
/// add up to the workload's window width (40 % of the table), then projects
/// a non-empty column subset. The parameter space `(first start, first
/// length, gap, projection)` holds about 3.8 million points; `j` maps onto
/// it through a seeded affine permutation, so indices `0..n` give `n`
/// pairwise distinct queries (distinct row sets or distinct columns).
pub struct UniformStream {
    /// `(first window start, gap between windows)` pairs that fit the table.
    placements: Vec<(i64, i64)>,
    width: i64,
    len: u64,
    mult: u64,
    offset: u64,
    seed: u64,
}

impl UniformStream {
    pub fn new(db: &Database, seed: u64) -> UniformStream {
        let cities = db.table("City").expect("world dataset has City").len() as i64;
        let width = (cities as f64 * uniform::WINDOW_FRACTION).round() as i64;
        let mut placements = Vec::new();
        for start in 0..cities - width {
            for gap in 1..=cities - width - start {
                placements.push((start, gap));
            }
        }
        let len = placements.len() as u64 * (width as u64 - 1) * PROJECTIONS;
        let mut r = rng(seed, PERMUTATION, 0);
        let mult = loop {
            let m = r.gen_range(1..len);
            if gcd(m, len) == 1 {
                break m;
            }
        };
        UniformStream {
            placements,
            width,
            len,
            mult,
            offset: r.gen_range(0..len),
            seed,
        }
    }

    /// Query `j` of the stream; distinct for distinct `j`.
    pub fn query(&self, j: u64) -> Query {
        assert!(j < self.len, "uniform stream exhausted at {j}");
        let idx = ((self.mult as u128 * j as u128 + self.offset as u128) % self.len as u128) as u64;
        let projection = idx % PROJECTIONS + 1;
        let rest = idx / PROJECTIONS;
        let lengths = self.width as u64 - 1;
        let first = (rest % lengths) as i64 + 1;
        let (start, gap) = self.placements[(rest / lengths) as usize];
        let second = start + first + gap;
        let window = |lo: i64, hi: i64| {
            Expr::col("ID")
                .ge(Expr::lit(lo))
                .and(Expr::col("ID").lt(Expr::lit(hi)))
        };
        let columns: Vec<&str> = CITY_COLUMNS
            .iter()
            .enumerate()
            .filter(|(k, _)| projection >> k & 1 == 1)
            .map(|(_, c)| *c)
            .collect();
        Query::scan("City")
            .filter(window(start, start + first).or(window(second, second + self.width - first)))
            .project_cols(&columns)
    }

    /// The seller's expected valuation of query `j` (anticipated queries).
    pub fn valuation(&self, j: u64) -> f64 {
        rng(self.seed, VALUATION, j).gen_range(1.0..=VALUE_MAX)
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Request `i` of the wire workload: a bundle index below `bundles` and a
/// budget.
pub fn bundle_request(seed: u64, i: u64, bundles: usize) -> (usize, f64) {
    let mut r = rng(seed, REQUEST, i);
    (r.gen_range(0..bundles), r.gen_range(1.0..=VALUE_MAX))
}

/// The uniform item weight of repricing `k`: the installed weight scaled by
/// a factor in `[0.8, 1.2)`.
pub fn patch_weight(seed: u64, k: u64, base: f64) -> f64 {
    base * rng(seed, PATCH, k).gen_range(0.8..1.2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn uniform_queries_are_pairwise_distinct_and_equally_selective() {
        let db = world_db();
        let stream = UniformStream::new(&db, 7);
        let mut seen = HashSet::new();
        let cities = db.table("City").unwrap().len() as f64;
        for j in 0..4000 {
            let q = stream.query(j);
            assert!(q.is_single_table() && !q.has_limit());
            assert!(seen.insert(format!("{q:?}")), "query {j} repeats");
            if j < 50 {
                let rows = q.evaluate(&db).unwrap().len() as f64;
                assert_eq!(rows, (cities * uniform::WINDOW_FRACTION).round());
            }
        }
    }

    #[test]
    fn streams_are_functions_of_seed_and_index() {
        let db = world_db();
        let (a, b) = (
            SkewedStream::new(&db, 3, None),
            SkewedStream::new(&db, 3, None),
        );
        assert_eq!(a.queries.len(), 338);
        for i in 0..200 {
            let (qa, ba) = a.request(i);
            let (qb, bb) = b.request(i);
            assert_eq!((qa, ba.to_bits()), (qb, bb.to_bits()));
        }
        let other = SkewedStream::new(&db, 4, None);
        assert!((0..200).any(|i| other.request(i).1 != a.request(i).1));
    }

    #[test]
    fn skewed_ranks_follow_zipf_in_every_stretch() {
        let stream = SkewedStream::new(&world_db(), 9, None);
        let h: f64 = (1..=338).map(|k| 1.0 / k as f64).sum();
        for start in [0u64, 1000, 5000] {
            let mut counts = [0u32; 338];
            for i in start..start + 2000 {
                counts[stream.request(i).0] += 1;
            }
            for (rank, &c) in counts.iter().enumerate().take(10) {
                let expected = 2000.0 / ((rank + 1) as f64 * h);
                assert!(
                    (c as f64 - expected).abs() <= 3.0,
                    "rank {rank}: {c} vs {expected}"
                );
            }
        }
    }
}
