//! Conflict-engine scaling benchmark artifact.
//!
//! Measures wall-clock hypergraph construction (one conflict set per query)
//! with the serial `DeltaConflictEngine` and the `ParallelConflictEngine`
//! at increasing support sizes, verifies the two engines produce identical
//! conflict sets, and writes the trajectory to `BENCH_conflict.json`:
//!
//! ```bash
//! cargo run --release -p qp-bench -- bench_conflict
//! cargo run --release -p qp-bench -- bench_conflict \
//!     --sizes 1000,5000,10000 --queries 40 --out BENCH_conflict.json
//! ```
//!
//! The recorded `threads` field is `std::thread::available_parallelism()` at
//! the time of the run — parallel speedups only materialize on multi-core
//! hardware, and the artifact makes the machine shape part of the record.

use std::time::Instant;

use qp_core::cli::{Args, CliError, Flag};
use qp_market::{
    ConflictEngine, DeltaConflictEngine, ParallelConflictEngine, SupportConfig, SupportSet,
};
use qp_workloads::Scale;

use crate::{dataset_and_queries, write_artifact, WorkloadKind};

/// The flags `qp-bench bench_conflict` accepts.
#[rustfmt::skip]
pub const FLAGS: &[Flag] = &[
    ("--sizes N,N,...", "support sizes (default 1000,5000,10000)"),
    ("--queries N", "skewed-workload queries (default 40)"),
    ("--out PATH", "artifact path (default BENCH_conflict.json)"),
];

/// Runs the scaling sweep and writes the artifact.
pub fn run(args: &Args) -> Result<(), CliError> {
    let sizes: Vec<usize> = args
        .list("--sizes")?
        .unwrap_or_else(|| vec![1000, 5000, 10_000]);
    let num_queries: usize = args.value("--queries")?.unwrap_or(40);
    let out_path = args.raw("--out").unwrap_or("BENCH_conflict.json");

    let (db, workload) = dataset_and_queries(WorkloadKind::Skewed, Scale::Test);
    let queries = &workload.queries[..num_queries.min(workload.queries.len())];
    let max_support = sizes.iter().copied().max().expect("lists are non-empty");
    let support = SupportSet::generate(&db, &SupportConfig::with_size(max_support));
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!(
        "conflict-engine scaling: {} queries, {threads} hardware threads",
        queries.len()
    );
    let mut rows = Vec::new();
    for &n in &sizes {
        let s = support.truncate(n);

        let serial = DeltaConflictEngine::new(&db, &s);
        let start = Instant::now();
        let serial_sets = serial.conflict_sets(queries);
        let serial_ms = start.elapsed().as_secs_f64() * 1e3;

        let parallel = ParallelConflictEngine::new(&db, &s);
        let start = Instant::now();
        let parallel_sets = parallel.conflict_sets(queries);
        let parallel_ms = start.elapsed().as_secs_f64() * 1e3;

        // Forced 4 workers regardless of core count (bypassing the engine's
        // hardware clamp): on single-core hardware this measures threading
        // overhead, on ≥4 cores it is the speedup.
        let forced = ParallelConflictEngine::with_threads_forced(&db, &s, 4);
        let start = Instant::now();
        let forced_sets = forced.conflict_sets(queries);
        let forced_4t_ms = start.elapsed().as_secs_f64() * 1e3;

        assert_eq!(
            serial_sets, parallel_sets,
            "engines diverged at support {n}"
        );
        assert_eq!(
            serial_sets, forced_sets,
            "forced-thread engine diverged at support {n}"
        );
        println!(
            "  support {n:>6}: serial {serial_ms:>9.1} ms   parallel {parallel_ms:>9.1} ms   4-thread {forced_4t_ms:>9.1} ms   speedup {:.2}x",
            serial_ms / parallel_ms
        );
        rows.push(format!(
            "{{\"support\": {}, \"serial_ms\": {serial_ms:.1}, \"parallel_ms\": {parallel_ms:.1}, \"parallel_4threads_ms\": {forced_4t_ms:.1}, \"speedup\": {:.3}}}",
            s.len(),
            serial_ms / parallel_ms,
        ));
    }

    let workload = "skewed (world dataset, test scale)";
    let fields = [
        ("benchmark", "\"conflict_engine_scaling\"".to_string()),
        ("workload", format!("\"{workload}\"")),
        ("queries", queries.len().to_string()),
        ("threads", threads.to_string()),
    ];
    write_artifact(out_path, &fields, &rows);
    Ok(())
}
