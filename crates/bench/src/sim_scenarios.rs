//! Market-simulator benchmark artifact.
//!
//! Runs the `qp-sim` scenario library (`steady_state`, `flash_crowd`,
//! `shifting_demand`, `arbitrage_probe`) over at least two of the paper's
//! query workloads, each against a freshly-built live broker, and writes the
//! per-scenario metrics — revenue over time, conversion rate, quotes/sec,
//! repricing latency — to `BENCH_sim.json`:
//!
//! ```bash
//! cargo run --release -p qp-bench -- sim_scenarios
//! cargo run --release -p qp-bench -- sim_scenarios \
//!     --workloads skewed,uniform --seed 42 --ticks 40 --out BENCH_sim.json
//! cargo run --release -p qp-bench -- sim_scenarios --smoke   # CI-sized
//! ```
//!
//! Every run re-executes the first scenario on a second identically-built
//! broker and asserts bit-identical total revenue — the simulator's
//! same-seed determinism guarantee is checked on every artifact, the same
//! way `bench_conflict` asserts engine equivalence.

use std::time::Instant;

use qp_core::cli::{Args, CliError, Flag};
use qp_market::{Broker, SupportConfig};
use qp_pricing::algorithms;
use qp_qdb::{Database, Query};
use qp_sim::{bench_json, library, SimConfig, SimReport};
use qp_workloads::Scale;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{dataset_and_queries, WorkloadKind, WorkloadKind::*};

struct Sizing {
    /// Support-set size behind every broker.
    support: usize,
    /// Cap on the per-workload query pool.
    pool: usize,
    /// Simulation horizon per scenario.
    ticks: u64,
}

/// Builds a fresh, deterministically-priced broker for a query pool:
/// seeded support, seeded anticipated valuations, registry algorithm.
fn build_broker(
    db: &Database,
    pool: &[Query],
    sizing: &Sizing,
    algorithm: &str,
    seed: u64,
) -> Broker {
    let mut rng = StdRng::seed_from_u64(seed);
    Broker::builder(db.clone())
        .support_config(SupportConfig::with_size(sizing.support))
        .algorithm(algorithm)
        .anticipate_all(pool.iter().map(|q| (q.clone(), rng.gen_range(1.0..=50.0))))
        .build()
        .unwrap_or_else(|e| panic!("broker build failed: {e}"))
}

/// The flags `qp-bench sim_scenarios` accepts.
#[rustfmt::skip]
pub const FLAGS: &[Flag] = &[
    ("--smoke", "CI-sized run (support 80, 60 queries, 12 ticks)"),
    ("--workloads W,W,...", "skewed, uniform, ssb, tpch (default skewed,uniform)"),
    ("--seed N", "simulation seed (default 42)"),
    ("--algorithm NAME", "registered pricing algorithm (default UIP)"),
    ("--ticks N", "horizon per scenario (default 40)"),
    ("--out PATH", "artifact path (default BENCH_sim.json)"),
];

/// Runs the scenario library over every workload and writes the artifact.
pub fn run(args: &Args) -> Result<(), CliError> {
    let smoke = args.switch("--smoke");
    let workloads: Vec<(String, WorkloadKind)> = args
        .list_with("--workloads", |name| match WorkloadKind::parse(name) {
            Some(kind) => Ok((name.to_string(), kind)),
            None => Err("expected skewed, uniform, ssb or tpch".to_string()),
        })?
        .unwrap_or_else(|| vec![("skewed".into(), Skewed), ("uniform".into(), Uniform)]);
    let seed: u64 = args.value("--seed")?.unwrap_or(42);
    let algorithm = args
        .value_with("--algorithm", algorithms::check_name)?
        .unwrap_or_else(|| "UIP".to_string());
    let out_path = args.raw("--out").unwrap_or("BENCH_sim.json");
    let mut sizing = if smoke {
        Sizing {
            support: 80,
            pool: 60,
            ticks: 12,
        }
    } else {
        Sizing {
            support: 150,
            pool: 160,
            ticks: 40,
        }
    };
    sizing.ticks = args.value("--ticks")?.unwrap_or(sizing.ticks);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!(
        "sim_scenarios: {} workloads, seed {seed}, {} ticks, {threads} hardware threads{}",
        workloads.len(),
        sizing.ticks,
        if smoke { " (smoke)" } else { "" }
    );

    let cfg = SimConfig {
        seed,
        algorithm: algorithm.clone(),
        ..SimConfig::default()
    };
    let mut runs: Vec<SimReport> = Vec::new();
    for (name, kind) in &workloads {
        let started = Instant::now();
        let (db, workload) = dataset_and_queries(*kind, Scale::Test);
        let mut pool: Vec<Query> = workload.queries;
        pool.truncate(sizing.pool);
        println!(
            "  {name}: {} queries, support {}, built in {:.1}s",
            pool.len(),
            sizing.support,
            started.elapsed().as_secs_f64()
        );

        for scenario in library(&pool, sizing.ticks) {
            // A fresh broker per scenario: runs are independent, and the
            // ledger/pricing state of one scenario never leaks into another.
            let broker = build_broker(&db, &pool, &sizing, &algorithm, seed);
            let mut report = scenario.run(&broker, &cfg);
            report.workload = name.clone();
            println!("    {}", report.summary());
            runs.push(report);
        }

        // Same-seed determinism self-check: rebuild and re-run the first
        // scenario; total revenue must be bit-identical.
        let scenario = library(&pool, sizing.ticks)
            .into_iter()
            .next()
            .expect("library is non-empty");
        let broker = build_broker(&db, &pool, &sizing, &algorithm, seed);
        let again = scenario.run(&broker, &cfg);
        let first = runs
            .iter()
            .find(|r| r.workload == *name && r.scenario == scenario.name)
            .expect("the scenario just ran");
        assert_eq!(
            first.total_revenue().to_bits(),
            again.total_revenue().to_bits(),
            "same-seed reruns of {}/{} diverged",
            name,
            scenario.name
        );
    }

    let json = bench_json(seed, threads, &runs);
    std::fs::write(out_path, json).expect("writing the benchmark artifact");
    println!(
        "wrote {out_path}: {} runs ({} scenarios x {} workloads), determinism check passed",
        runs.len(),
        runs.len() / workloads.len(),
        workloads.len()
    );
    Ok(())
}
