//! Incremental vs full-rebuild repricing latency → `BENCH_delta.json`.
//!
//! Simulates the live-repricing hot path over a sliding demand window of
//! `m` observed quotes: each measured repricing first absorbs a delta of
//! `pct`% fresh observations (evicting the oldest), then either
//!
//! * **full** — rebuilds the demand hypergraph from the window in arrival
//!   order and re-runs the full algorithm (the pre-delta path,
//!   `RepricingMode::FullRebuild`), or
//! * **incremental** — applies the accumulated `HypergraphDelta` to the
//!   live hypergraph in O(|delta|) and lets the algorithm's incremental
//!   rule patch the pricing in place (`RepricingMode::Incremental`).
//!
//! Both paths run over the *same* observation stream, and for the exact
//! algorithms (UBP, UIP) every repricing asserts the two installed
//! pricings are identical — the benchmark self-checks the equivalence it
//! is measuring. Neither UBP nor UIP queries the `ItemIndex`, so neither
//! path builds one — exactly like the simulator's hot path. (Index-using
//! algorithms have no incremental rule; their repricing cost is their own
//! full run — ~650 ms for Layering at m = 10k — which makes graph
//! maintenance noise by comparison.)
//!
//! ```bash
//! cargo run --release -p qp-bench -- bench_delta
//! cargo run --release -p qp-bench -- bench_delta \
//!     --sizes 1000,5000,10000 --deltas 1,5,20 --reps 15 --out BENCH_delta.json
//! cargo run --release -p qp-bench -- bench_delta --smoke   # CI-sized
//! ```

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qp_core::cli::{self, Args, CliError, Flag};
use qp_core::ItemSet;
use qp_pricing::algorithms::{self, Repricer};
use qp_sim::DemandWindow;

use crate::{median, write_artifact};

/// Support size and observed-bundle shape of the synthetic demand stream
/// (thousands of support databases, as in the paper's experiments).
const NUM_ITEMS: usize = 2048;
const MAX_BUNDLE: usize = 24;

struct Row {
    algorithm: &'static str,
    edges: usize,
    delta_pct: usize,
    full_ms: f64,
    incremental_ms: f64,
}

/// One observed quote: a random conflict set and the buyer's bid.
fn observation(rng: &mut StdRng) -> (ItemSet, f64) {
    let size = rng.gen_range(1..=MAX_BUNDLE);
    let set: ItemSet = (0..size).map(|_| rng.gen_range(0..NUM_ITEMS)).collect();
    let bid: f64 = rng.gen_range(0.0..50.0);
    (set, bid)
}

/// Measures one (algorithm, m, pct) cell: median per-repricing latency of the
/// full and incremental paths over `reps` window slides each.
fn measure(algorithm: &'static str, m: usize, pct: usize, reps: usize, seed: u64) -> Row {
    let k = (m * pct).div_ceil(100).max(1);

    // Two windows fed the identical observation stream: one repriced by
    // full rebuilds, one by incremental deltas.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut full_window = DemandWindow::new(NUM_ITEMS, m);
    let mut inc_window = DemandWindow::new(NUM_ITEMS, m);
    let mut feed = |full: &mut DemandWindow, inc: &mut DemandWindow, count: usize| {
        for _ in 0..count {
            let (set, bid) = observation(&mut rng);
            full.observe(set.clone(), bid);
            inc.observe(set, bid);
        }
    };
    feed(&mut full_window, &mut inc_window, m);

    let mut repricer = Repricer::new(
        algorithms::by_name(algorithm).expect("benchmarked algorithms are registered"),
    );
    let exact = repricer.is_incremental() && matches!(algorithm, "UBP" | "UIP");

    // Prime outside the timed region: build the incremental graph and the
    // repricer state, and install the initial pricings.
    let (demand, ops) = inc_window.flush();
    let (out, patch) = repricer.reprice(demand, &ops);
    let mut inc_pricing = out.pricing;
    patch.apply(&mut inc_pricing);
    full_window.flush();

    let mut full_samples = Vec::with_capacity(reps);
    let mut incremental_samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        feed(&mut full_window, &mut inc_window, k);

        // Full rebuild: window → fresh hypergraph → full algorithm run.
        let t0 = Instant::now();
        full_window.flush();
        let h = full_window.rebuild_in_arrival_order();
        let full_pricing = repricer.run_full(&h).pricing;
        full_samples.push(t0.elapsed().as_secs_f64() * 1e3);

        // Incremental: delta → live hypergraph → in-place pricing patch.
        let t0 = Instant::now();
        let (demand, ops) = inc_window.flush();
        let (_, patch) = repricer.reprice(demand, &ops);
        patch.apply(&mut inc_pricing);
        incremental_samples.push(t0.elapsed().as_secs_f64() * 1e3);

        if exact {
            assert_eq!(
                inc_pricing, full_pricing,
                "{algorithm}: incremental and full pricings diverged at m={m}, delta={pct}%"
            );
        }
    }

    Row {
        algorithm,
        edges: m,
        delta_pct: pct,
        full_ms: median(&mut full_samples),
        incremental_ms: median(&mut incremental_samples),
    }
}

/// The flags `qp-bench bench_delta` accepts.
#[rustfmt::skip]
pub const FLAGS: &[Flag] = &[
    ("--smoke", "CI-sized defaults (window 300, delta 5%, 3 reps)"),
    ("--sizes N,N,...", "window sizes m (default 1000,5000,10000)"),
    ("--deltas P,P,...", "delta percentages (default 1,5,20)"),
    ("--reps N", "repricings per cell (default 15)"),
    ("--out PATH", "artifact path (default BENCH_delta.json)"),
];

/// Runs every (algorithm, m, delta) cell and writes the artifact.
pub fn run(args: &Args) -> Result<(), CliError> {
    let smoke = args.switch("--smoke");
    let (sizes, deltas, reps) = if smoke {
        (vec![300], vec![5], 3)
    } else {
        (vec![1000, 5000, 10_000], vec![1, 5, 20], 15)
    };
    let sizes: Vec<usize> = args.list("--sizes")?.unwrap_or(sizes);
    let deltas: Vec<usize> = args.list("--deltas")?.unwrap_or(deltas);
    let reps = args.value_with("--reps", cli::positive)?.unwrap_or(reps);
    let out_path = args.raw("--out").unwrap_or("BENCH_delta.json");

    println!(
        "delta repricing{}: {NUM_ITEMS} support items, windows {sizes:?}, deltas {deltas:?}%, {reps} reps",
        if smoke { " (smoke)" } else { "" }
    );
    let mut rows = Vec::new();
    for &algorithm in &["UBP", "UIP"] {
        for &m in &sizes {
            for &pct in &deltas {
                let row = measure(algorithm, m, pct, reps, 0xDE17A + m as u64);
                println!(
                    "  {:<4} m {:>6}  delta {:>3}%: full {:>9.3} ms   incremental {:>9.3} ms   speedup {:>6.1}x",
                    row.algorithm,
                    row.edges,
                    row.delta_pct,
                    row.full_ms,
                    row.incremental_ms,
                    row.full_ms / row.incremental_ms
                );
                rows.push(format!(
                    "{{\"algorithm\": \"{}\", \"edges\": {}, \"delta_pct\": {}, \"full_ms\": {:.4}, \"incremental_ms\": {:.4}, \"speedup\": {:.2}}}",
                    row.algorithm,
                    row.edges,
                    row.delta_pct,
                    row.full_ms,
                    row.incremental_ms,
                    row.full_ms / row.incremental_ms,
                ));
            }
        }
    }

    let workload = "synthetic sliding demand window";
    let fields = [
        ("benchmark", "\"delta_repricing\"".to_string()),
        ("workload", format!("\"{workload}\"")),
        ("support_items", NUM_ITEMS.to_string()),
        ("reps", reps.to_string()),
    ];
    write_artifact(out_path, &fields, &rows);
    Ok(())
}
