//! Cache-hot kernel micro-benchmarks → `BENCH_kernels.json`.
//!
//! Pits each rewritten hot kernel against its scalar reference — the
//! pre-optimization implementation kept verbatim in [`qp_core::reference`]
//! and [`qp_pricing::algorithms::reference`] — on the operand shapes the
//! pricing hot paths actually see:
//!
//! * **small_set** — conflict-set algebra on inline-sized sets (≤ 2 blocks,
//!   the overwhelmingly common case in quoting): the reference allocates a
//!   fresh heap `Vec<u64>` per op and walks one block at a time; the fast
//!   path stays on the stack and takes the single-block early arms.
//! * **large_set** — the same algebra on ~32-block sets (wide support
//!   databases): reference scalar walk vs the 4-blocks-per-iteration
//!   chunked loops.
//! * **uip_merge** — the incremental repricer's rate-multiset merge at
//!   m = 10k distinct rates with a 1% delta: reference entry-at-a-time
//!   walk (fresh allocation per merge) vs the galloping, bulk-copying
//!   [`RateTable::merge_batch`] into a reused double buffer.
//! * **telemetry** — the observability zero-overhead contract: the same
//!   inline-set fold bare vs instrumented the way the quote path is — one
//!   `TelemetrySink::Disabled` span + counter touch per 32-op batch (a
//!   quote wraps a whole conflict-set fold in one span, it does not span
//!   each set op). Here `before` is the bare fold and `after` the
//!   instrumented one, so CI can gate on `after_ns <= 1.02 * before_ns`
//!   (the ≤ 2 % overhead budget for the disabled sink).
//! * **tracing** — the live-tracing overhead contract: a broker
//!   quote+settle on the default `Disabled` sink (`before`) vs the same
//!   broker on an `Enabled` sink with a trace id stamped per settle, the
//!   way a `TRACED` frame dispatches (`after`). CI bounds the quotient at
//!   ≤ 3 % (`after_ns <= 1.03 * before_ns`).
//! * **wal** — the durability overhead contract: a broker quote+settle
//!   (`Broker::purchase_at`) bare (`before`) vs identically built but
//!   `FileStore`-backed with the default group-commit fsync policy
//!   (`after`) — every settle appends a CRC-framed WAL record before it
//!   returns. CI bounds the quotient at ≤ 10 % (`after_ns <= 1.10 *
//!   before_ns`).
//!
//! Every measured pair is also *checked* — each timed round asserts the
//! fast path and the reference produce identical results, so the benchmark
//! cannot drift from the differential test suites it mirrors.
//!
//! ```bash
//! cargo run --release -p qp-bench -- bench_kernels
//! cargo run --release -p qp-bench -- bench_kernels \
//!     --reps 15 --iters 200 --out BENCH_kernels.json
//! cargo run --release -p qp-bench -- bench_kernels --smoke   # CI-sized
//! ```

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qp_core::cli::{self, Args, CliError, Flag};
use qp_core::{reference, ItemSet};
use qp_market::{Broker, PurchaseOutcome, SupportConfig};
use qp_pricing::algorithms::{reference as rate_reference, RateTable};
use qp_qdb::{ColumnType, Database, Query, Relation, Schema, Value};
use qp_store::{FileStore, SharedStore};
use qp_telemetry::TelemetrySink;

use crate::{median, write_artifact};

/// Operand pool sizes: enough pairs to defeat branch-predictor lock-in,
/// small enough to stay cache-resident (the kernels, not the RAM, are
/// under test).
const PAIRS: usize = 256;

/// Item universe for the small (inline-sized) sets: 2 blocks.
const SMALL_UNIVERSE: usize = 128;
/// Item universe for the large (chunked-loop) sets: 32 blocks.
const LARGE_UNIVERSE: usize = 2048;

struct Row {
    group: &'static str,
    kernel: &'static str,
    before_ns: f64,
    after_ns: f64,
}

/// A random set of `size` items drawn from `universe`.
fn random_set(rng: &mut StdRng, universe: usize, size: usize) -> ItemSet {
    (0..size).map(|_| rng.gen_range(0..universe)).collect()
}

/// Operand pairs for one group: sizes span the group's range so the pools
/// exercise subset/overlap/disjoint shapes alike.
fn pairs(rng: &mut StdRng, universe: usize, max_size: usize) -> Vec<(ItemSet, ItemSet)> {
    (0..PAIRS)
        .map(|_| {
            let size_a = rng.gen_range(1..=max_size);
            let a = random_set(rng, universe, size_a);
            // Half the pairs share a base with `a` so subset/overlap paths
            // are exercised, not just the disjoint fast exits.
            let size_b = rng.gen_range(1..=max_size);
            let b = if rng.gen_bool(0.5) {
                let mut b = a.clone();
                b.union_with(&random_set(rng, universe, size_b));
                b
            } else {
                random_set(rng, universe, size_b)
            };
            (a, b)
        })
        .collect()
}

/// Median per-op nanoseconds of `f` run over the pool, `iters` sweeps per
/// sample and `reps` samples.
fn time_ns<F: FnMut() -> u64>(reps: usize, iters: usize, ops_per_iter: usize, mut f: F) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    let mut sink = 0u64;
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..iters {
            sink = sink.wrapping_add(f());
        }
        let per_op = t0.elapsed().as_nanos() as f64 / (iters * ops_per_iter) as f64;
        samples.push(per_op);
    }
    black_box(sink);
    median(&mut samples)
}

/// Times two workloads A/B-interleaved: each rep measures `before` then
/// `after` back to back, so slow drift (CPU frequency, page cache state)
/// lands on both sides of the ratio instead of biasing one. Used by the
/// wal row, where the gated quantity *is* the after/before quotient.
fn time_ns_paired<F: FnMut() -> u64, G: FnMut() -> u64>(
    reps: usize,
    iters: usize,
    ops_per_iter: usize,
    mut before: F,
    mut after: G,
) -> (f64, f64) {
    let mut before_samples = Vec::with_capacity(reps);
    let mut after_samples = Vec::with_capacity(reps);
    let mut sink = 0u64;
    let ops = (iters * ops_per_iter) as f64;
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..iters {
            sink = sink.wrapping_add(before());
        }
        before_samples.push(t0.elapsed().as_nanos() as f64 / ops);
        let t1 = Instant::now();
        for _ in 0..iters {
            sink = sink.wrapping_add(after());
        }
        after_samples.push(t1.elapsed().as_nanos() as f64 / ops);
    }
    black_box(sink);
    (median(&mut before_samples), median(&mut after_samples))
}

/// Measures one set-algebra kernel over an operand pool: `before` is the
/// scalar reference, `after` the fast path; both are folded to a `u64` so
/// results feed the timing sink (and are cross-checked once up front).
fn set_kernel(
    group: &'static str,
    kernel: &'static str,
    pool: &[(ItemSet, ItemSet)],
    reps: usize,
    iters: usize,
    before: impl Fn(&ItemSet, &ItemSet) -> u64,
    after: impl Fn(&ItemSet, &ItemSet) -> u64,
) -> Row {
    for (a, b) in pool {
        assert_eq!(
            before(a, b),
            after(a, b),
            "{group}/{kernel}: fast path diverged from the reference"
        );
    }
    let before_ns = time_ns(reps, iters, pool.len(), || {
        pool.iter()
            .map(|(a, b)| before(black_box(a), black_box(b)))
            .fold(0u64, u64::wrapping_add)
    });
    let after_ns = time_ns(reps, iters, pool.len(), || {
        pool.iter()
            .map(|(a, b)| after(black_box(a), black_box(b)))
            .fold(0u64, u64::wrapping_add)
    });
    Row {
        group,
        kernel,
        before_ns,
        after_ns,
    }
}

/// The set-algebra rows for one operand-shape group.
fn set_rows(
    group: &'static str,
    pool: &[(ItemSet, ItemSet)],
    reps: usize,
    iters: usize,
) -> Vec<Row> {
    // Result sets fold to their stable hash so construction cost (the
    // allocation the fast path avoids) stays inside the timed region.
    vec![
        set_kernel(
            group,
            "union",
            pool,
            reps,
            iters,
            |a, b| reference::union(a, b).stable_hash(),
            |a, b| a.union(b).stable_hash(),
        ),
        set_kernel(
            group,
            "intersection",
            pool,
            reps,
            iters,
            |a, b| reference::intersection(a, b).stable_hash(),
            |a, b| a.intersection(b).stable_hash(),
        ),
        set_kernel(
            group,
            "difference",
            pool,
            reps,
            iters,
            |a, b| reference::difference(a, b).stable_hash(),
            |a, b| a.difference(b).stable_hash(),
        ),
        set_kernel(
            group,
            "intersection_len",
            pool,
            reps,
            iters,
            |a, b| reference::intersection_len(a, b) as u64,
            |a, b| a.intersection_len(b) as u64,
        ),
        set_kernel(
            group,
            "is_subset",
            pool,
            reps,
            iters,
            |a, b| reference::is_subset(a, b) as u64,
            |a, b| a.is_subset(b) as u64,
        ),
        set_kernel(
            group,
            "is_disjoint",
            pool,
            reps,
            iters,
            |a, b| reference::is_disjoint(a, b) as u64,
            |a, b| a.is_disjoint(b) as u64,
        ),
    ]
}

/// The UIP rate-merge row: m distinct rates, `pct`% delta (half fresh
/// insertions, half removals of tracked rates).
fn uip_merge_row(m: usize, pct: usize, reps: usize, iters: usize, seed: u64) -> Row {
    let mut rng = StdRng::seed_from_u64(seed);
    let base: Vec<(u64, rate_reference::RateEntry)> = (0..m)
        .map(|i| {
            let count = rng.gen_range(1..4usize);
            let sizes = count * rng.gen_range(1..24usize);
            // Keys spaced out so delta keys can land between them.
            (
                (i as u64 + 1) * 1000,
                rate_reference::RateEntry { count, sizes },
            )
        })
        .collect();
    let k = (m * pct).div_ceil(100).max(1);
    let mut ins: Vec<(u64, usize)> = (0..k)
        .map(|_| {
            let slot = rng.gen_range(0..m as u64);
            (
                slot * 1000 + rng.gen_range(1..1000u64),
                rng.gen_range(1..24usize),
            )
        })
        .collect();
    ins.sort_unstable_by_key(|e| e.0);
    let mut rem: Vec<(u64, usize)> = (0..k)
        .map(|_| {
            let (key, e) = base[rng.gen_range(0..m)];
            // Remove at most one bundle per key; sizes drawn from what the
            // entry holds so the merge never underflows.
            (key, e.sizes / e.count)
        })
        .collect();
    rem.sort_unstable_by_key(|e| e.0);
    // Duplicate removals at one key could exceed its count; thin them out.
    rem.dedup_by_key(|e| e.0);

    let table = rate_reference::table_from_entries(&base);
    let expected = rate_reference::merge_rates(&base, &ins, &rem);
    let mut out = RateTable::new();
    table.merge_batch(&ins, &rem, &mut out);
    assert_eq!(
        rate_reference::entries_from_table(&out),
        expected,
        "uip_merge: batch merge diverged from the reference walk"
    );

    let before_ns = time_ns(reps, iters, 1, || {
        let merged = rate_reference::merge_rates(black_box(&base), &ins, &rem);
        merged.len() as u64
    });
    let after_ns = time_ns(reps, iters, 1, || {
        table.merge_batch(black_box(&ins), &rem, &mut out);
        out.len() as u64
    });
    Row {
        group: "uip_merge",
        kernel: "merge_rates",
        before_ns,
        after_ns,
    }
}

/// The disabled-sink overhead row: the inline-set `intersection_len` fold
/// bare (`before`) vs instrumented at quote-path granularity (`after`) —
/// one span guard + counter increment per 32-op batch, every handle handed
/// out by a [`TelemetrySink::Disabled`] sink. The quotient `after/before`
/// is the overhead the CI telemetry job bounds at 2 %.
fn telemetry_overhead_row(pool: &[(ItemSet, ItemSet)], reps: usize, iters: usize) -> Row {
    let sink = TelemetrySink::default();
    assert!(
        !sink.is_enabled(),
        "overhead row measures the Disabled sink"
    );
    let batch_span = sink.span_handle("bench.batch");
    let batch_ops = sink.counter("bench.ops");
    let before_ns = time_ns(reps, iters, pool.len(), || {
        pool.iter()
            .map(|(a, b)| black_box(a).intersection_len(black_box(b)) as u64)
            .fold(0u64, u64::wrapping_add)
    });
    let after_ns = time_ns(reps, iters, pool.len(), || {
        let mut acc = 0u64;
        for batch in pool.chunks(32) {
            let _guard = batch_span.enter();
            batch_ops.inc();
            for (a, b) in batch {
                acc = acc.wrapping_add(black_box(a).intersection_len(black_box(b)) as u64);
            }
        }
        acc
    });
    Row {
        group: "telemetry",
        kernel: "disabled_sink",
        before_ns,
        after_ns,
    }
}

/// The tracing-enabled overhead row: `Broker::purchase_at` on two
/// identically built brokers, one on the default `Disabled` sink
/// (`before`) and one on an `Enabled` sink with a fresh trace id stamped
/// into the thread-local context before every settle — exactly what a
/// `TRACED` envelope does on dispatch (`after`). The quotient
/// `after/before` is the cost of *live* tracing on the quote path; the
/// CI tracing job bounds it at 3 %.
fn tracing_overhead_row(reps: usize, iters: usize) -> Row {
    let q = Query::scan("T");
    let bare = tiny_broker(TelemetrySink::default(), None);
    let traced = tiny_broker(TelemetrySink::enabled(), None);
    assert_eq!(
        bare.quote(&q).price.to_bits(),
        traced.quote(&q).price.to_bits(),
        "tracing: the sink must not change pricing"
    );

    let settle_sweep = |broker: &Broker, stamp_trace: bool| {
        let mut acc = 0u64;
        for i in 0..WAL_OPS as u64 {
            if stamp_trace {
                // Deterministic worker-style ids, like NetTransport mints.
                qp_telemetry::set_current_trace_id((1u64 << 32) | (i + 1));
            }
            let budget = if i % 2 == 0 { 1e9 } else { 0.0 };
            match broker.purchase_at(black_box(&q), budget, i).expect("eval") {
                PurchaseOutcome::Sold { price, .. } => acc = acc.wrapping_add(price.to_bits()),
                PurchaseOutcome::Declined { price } => acc = acc.wrapping_add(!price.to_bits()),
            }
        }
        acc
    };
    // Untimed warmup on both sides: first-touch journal/registry growth is
    // setup cost a live server amortizes, not per-quote tracing cost.
    black_box(settle_sweep(&bare, false));
    black_box(settle_sweep(&traced, true));
    // Like the wal row, this gates a ratio of two µs-scale composites:
    // paired interleaving + extra reps keep the median honest.
    let (before_ns, after_ns) = time_ns_paired(
        reps * 2 - 1,
        iters,
        WAL_OPS,
        || settle_sweep(&bare, false),
        || settle_sweep(&traced, true),
    );
    assert_eq!(
        bare.ledger().total().to_bits(),
        traced.ledger().total().to_bits(),
        "tracing: both brokers settled identical traffic"
    );
    Row {
        group: "tracing",
        kernel: "traced_quote_settle",
        before_ns,
        after_ns,
    }
}

/// The one-table broker the tracing and WAL rows settle against: UBP over
/// 32 rows at support 40, on `sink`, and logging to `store` if given.
fn tiny_broker(sink: TelemetrySink, store: Option<SharedStore>) -> Broker {
    let mut rel = Relation::new(Schema::new(vec![
        ("name", ColumnType::Str),
        ("size", ColumnType::Int),
    ]));
    for i in 0..32 {
        rel.push(vec![format!("row{i}").into(), Value::Int(i)])
            .expect("schema matches");
    }
    let mut db = Database::new();
    db.add_table("T", rel);
    let mut builder = Broker::builder(db)
        .support_config(SupportConfig::with_size(40))
        .algorithm("UBP")
        .anticipate(Query::scan("T"), 30.0)
        .telemetry(sink);
    if let Some(store) = store {
        builder = builder.store(store);
    }
    builder.build().expect("UBP is registered")
}

/// Settles per timing iteration on the WAL row — alternating sold/declined
/// so both ledger paths (and both WAL record kinds) are in the measurement.
const WAL_OPS: usize = 64;

/// The WAL-append overhead row: `Broker::purchase_at` (quote + settle) on
/// two identically built brokers, one bare and one backed by a `FileStore`
/// with the default group-commit fsync policy. The quotient `after/before`
/// is the durability tax on the quote path that the CI durability job
/// bounds at 10 %.
fn wal_append_row(reps: usize, iters: usize) -> Row {
    let q = Query::scan("T");
    let bare = tiny_broker(TelemetrySink::default(), None);
    let dir = std::env::temp_dir().join(format!("qp-bench-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store: SharedStore =
        Arc::new(FileStore::open(&dir).expect("opening the WAL bench scratch dir"));
    let durable = tiny_broker(TelemetrySink::default(), Some(store));
    assert_eq!(
        bare.quote(&q).price.to_bits(),
        durable.quote(&q).price.to_bits(),
        "wal: the store must not change pricing"
    );

    let settle_sweep = |broker: &Broker| {
        let mut acc = 0u64;
        for i in 0..WAL_OPS as u64 {
            // Even ops sell, odd ops decline: both WAL record kinds count.
            let budget = if i % 2 == 0 { 1e9 } else { 0.0 };
            match broker.purchase_at(black_box(&q), budget, i).expect("eval") {
                PurchaseOutcome::Sold { price, .. } => acc = acc.wrapping_add(price.to_bits()),
                PurchaseOutcome::Declined { price } => acc = acc.wrapping_add(!price.to_bits()),
            }
        }
        acc
    };
    // Untimed warmup: the durable broker's first sweep pays WAL file
    // growth and first-touch page faults that a live server amortizes
    // over its whole run — they are setup, not quote-path cost.
    black_box(settle_sweep(&bare));
    black_box(settle_sweep(&durable));
    // Extra reps: this row gates a ratio of two ~35 µs composites, so its
    // median needs more samples than the nanosecond kernel rows.
    let (before_ns, after_ns) = time_ns_paired(
        reps * 2 - 1,
        iters,
        WAL_OPS,
        || settle_sweep(&bare),
        || settle_sweep(&durable),
    );
    assert_eq!(
        bare.ledger().total().to_bits(),
        durable.ledger().total().to_bits(),
        "wal: both brokers settled identical traffic"
    );
    let _ = std::fs::remove_dir_all(&dir);
    Row {
        group: "wal",
        kernel: "quote_settle_append",
        before_ns,
        after_ns,
    }
}

/// The flags `qp-bench bench_kernels` accepts.
#[rustfmt::skip]
pub const FLAGS: &[Flag] = &[
    ("--smoke", "CI-sized defaults (5 reps x 20 iters)"),
    ("--reps N", "timing samples per row (default 15)"),
    ("--iters N", "sweeps per sample (default 200)"),
    ("--out PATH", "artifact path (default BENCH_kernels.json)"),
];

/// Times every kernel pair and writes the artifact.
pub fn run(args: &Args) -> Result<(), CliError> {
    let smoke = args.switch("--smoke");
    let (reps, iters) = if smoke { (5, 20) } else { (15, 200) };
    let reps = args.value_with("--reps", cli::positive)?.unwrap_or(reps);
    let iters = args.value_with("--iters", cli::positive)?.unwrap_or(iters);
    let out_path = args.raw("--out").unwrap_or("BENCH_kernels.json");

    println!(
        "kernel micro-benchmarks{}: {PAIRS} operand pairs/group, {reps} reps x {iters} iters",
        if smoke { " (smoke)" } else { "" }
    );

    let mut rng = StdRng::seed_from_u64(0x5E7B17);
    let small_pool = pairs(&mut rng, SMALL_UNIVERSE, 24);
    let large_pool = pairs(&mut rng, LARGE_UNIVERSE, 512);

    let mut rows = Vec::new();
    rows.extend(set_rows("small_set", &small_pool, reps, iters));
    rows.extend(set_rows("large_set", &large_pool, reps, iters));
    let (merge_m, merge_iters) = if smoke { (1000, iters) } else { (10_000, 50) };
    rows.push(uip_merge_row(merge_m, 1, reps, merge_iters, 0x0417E5));
    rows.push(telemetry_overhead_row(&small_pool, reps, iters));
    // Fewer sweeps: each op is a full quote+settle with query evaluation.
    rows.push(tracing_overhead_row(reps, if smoke { iters } else { 50 }));
    rows.push(wal_append_row(reps, if smoke { iters } else { 50 }));

    for r in &rows {
        println!(
            "  {:<10} {:<16}: before {:>9.2} ns   after {:>9.2} ns   speedup {:>5.2}x",
            r.group,
            r.kernel,
            r.before_ns,
            r.after_ns,
            r.before_ns / r.after_ns
        );
    }

    let rows: Vec<String> = rows
        .iter()
        .map(|r| format!(
            "{{\"group\": \"{}\", \"kernel\": \"{}\", \"before_ns\": {:.2}, \"after_ns\": {:.2}, \"speedup\": {:.2}}}",
            r.group,
            r.kernel,
            r.before_ns,
            r.after_ns,
            r.before_ns / r.after_ns,
        ))
        .collect();
    let workload = "set algebra on inline- and chunked-sized operands; UIP rate-multiset merge";
    let fields = [
        ("benchmark", "\"pricing_kernels\"".to_string()),
        ("workload", format!("\"{workload}\"")),
        ("reps", reps.to_string()),
    ];
    write_artifact(out_path, &fields, &rows);
    Ok(())
}
