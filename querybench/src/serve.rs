//! The wire workload `serve-uniform`: one `QuoteClient` connection in a
//! closed loop against a loopback `QuoteServer` over a one-broker
//! `ShardSet` with a `FileStore` write-ahead log. A request is a QUOTE of
//! a precomputed uniform conflict-set bundle followed by a PURCHASE; every
//! `reprice_every` requests a REPRICE patch changes the uniform item
//! weight, invalidating the shard cache and landing in the WAL.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qp_core::ItemSet;
use qp_market::{Broker, SupportSet};
use qp_pricing::algorithms::PricingPatch;
use qp_pricing::Pricing;
use qp_qdb::{Database, Query};
use qp_server::{
    QuoteClient, QuoteReply, QuoteServer, Request, SettleOutcome, ShardSet, ShardStats,
    DEFAULT_SNAPSHOT_EVERY,
};
use qp_store::{FileStore, FsyncPolicy, WAL_FILE_NAME};
use qp_telemetry::TelemetrySink;

use crate::inputs::{bundle_request, patch_weight, world_db, UniformStream};
use crate::quote::{price, Priced, SetupTimes, Stop};
use crate::stats::{loop_metrics, nanos, peak_rss_mb, share, Quantiles, Timing};
use crate::{affinity, Args, Report, SETUP_REPS};

/// Requests whose QUOTE frame is encoded and decoded again, timed, for
/// the `codec.*` metrics.
const CODEC_SAMPLES: usize = 2000;

/// The shape of the wire workload.
pub struct Spec {
    pub support: usize,
    /// Uniform queries whose conflict sets are the bundles; the pricing is
    /// fitted to them.
    pub bundles: usize,
    pub reprice_every: u64,
    /// Untimed requests before the timed loop.
    pub warmup: u64,
}

impl Spec {
    pub fn standard() -> Spec {
        Spec {
            support: 1000,
            bundles: 400,
            reprice_every: 500,
            warmup: 5000,
        }
    }
}

/// A running server with its client, and what a replay needs to rebuild
/// an identical shard set.
struct Served {
    server: QuoteServer,
    client: QuoteClient,
    dir: PathBuf,
    db: Database,
    support: SupportSet,
    pricing: Pricing,
    bundles: Vec<ItemSet>,
    base_weight: f64,
    /// Worker threads of the set-up conflict build.
    conflict_threads: usize,
}

/// Builds the market and starts the server. The conflict build runs on
/// every CPU the process started with; the server, its store and the
/// calling thread are then confined to one CPU, before the server spawns
/// its threads.
fn setup(
    spec: &Spec,
    seed: u64,
    dir: &Path,
    sink: TelemetrySink,
) -> Result<(Served, SetupTimes), String> {
    affinity::unpin();
    let t0 = Instant::now();
    let db = world_db();
    let stream = UniformStream::new(&db, seed);
    let anticipated: Vec<(Query, f64)> = (0..spec.bundles as u64)
        .map(|j| (stream.query(j), stream.valuation(j)))
        .collect();
    let mut times = SetupTimes {
        generate: t0.elapsed().as_secs_f64(),
        ..SetupTimes::default()
    };
    let Priced {
        support,
        sets: bundles,
        pricing,
        conflict_threads,
    } = price(&db, &anticipated, spec.support, "UIP", &mut times)?;
    affinity::pin();
    // Kept for the replay; copied outside the timed phases.
    let (db_copy, support_copy, pricing_copy) = (db.clone(), support.clone(), pricing.clone());
    let base_weight = *pricing
        .item_weights()
        .and_then(|w| w.first())
        .ok_or("UIP installed no item weights")?;
    let t1 = Instant::now();
    let broker = Broker::with_support(db, support);
    broker.set_pricing(pricing);
    let _ = std::fs::remove_dir_all(dir);
    let store = FileStore::open_with(dir, FsyncPolicy::default(), &sink)
        .map_err(|e| format!("opening {}: {e}", dir.display()))?;
    let shards = ShardSet::new(vec![Arc::new(broker)])
        .with_store(Arc::new(store), DEFAULT_SNAPSHOT_EVERY)
        .with_telemetry(sink);
    let server = QuoteServer::bind("127.0.0.1:0", shards).map_err(|e| format!("bind: {e}"))?;
    let client = QuoteClient::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    times.install = t1.elapsed().as_secs_f64();
    let served = Served {
        server,
        client,
        dir: dir.to_path_buf(),
        db: db_copy,
        support: support_copy,
        pricing: pricing_copy,
        bundles,
        base_weight,
        conflict_threads,
    };
    Ok((served, times))
}

/// The repricing sent before request `i`, if any.
fn patch_before(spec: &Spec, seed: u64, served: &Served, i: u64) -> Option<PricingPatch> {
    (i > 0 && i.is_multiple_of(spec.reprice_every)).then(|| PricingPatch::SetUniformWeight {
        weight: patch_weight(seed, i / spec.reprice_every, served.base_weight),
        num_items: served.support.len(),
    })
}

/// One request as the client saw it.
struct WireRecord {
    /// Completion time since the loop started.
    done_ns: u64,
    quote_ns: u64,
    purchase_ns: u64,
    outcome: Option<SettleOutcome>,
}

struct WireRun {
    records: Vec<WireRecord>,
    reprice_ns: Vec<u64>,
    elapsed: Duration,
}

impl WireRun {
    fn ok(r: &WireRecord) -> bool {
        matches!(r.outcome, Some(SettleOutcome::Settled { .. }))
    }

    fn throughput(&self) -> f64 {
        share(self.records.len() as f64, self.elapsed.as_secs_f64())
    }
}

/// Sends requests `first..` until `stop`.
fn drive(
    spec: &Spec,
    seed: u64,
    served: &mut Served,
    first: u64,
    stop: Stop,
) -> Result<WireRun, String> {
    let start = Instant::now();
    let (deadline, limit) = match stop {
        Stop::After(d) => (Some(start + d), u64::MAX),
        Stop::Requests(n) => (None, first + n),
    };
    let mut records = Vec::new();
    let mut reprice_ns = Vec::new();
    let mut i = first;
    while i < limit && deadline.is_none_or(|d| Instant::now() < d) {
        if let Some(patch) = patch_before(spec, seed, served, i) {
            let t = Instant::now();
            served
                .client
                .reprice(&patch)
                .map_err(|e| format!("REPRICE before {i}: {e}"))?;
            reprice_ns.push(nanos(t.elapsed()));
        }
        let (bundle, budget) = bundle_request(seed, i, served.bundles.len());
        let t0 = Instant::now();
        let quote = served.client.quote(&served.bundles[bundle]);
        let t1 = Instant::now();
        let outcome = match quote {
            Ok(QuoteReply { quote_id, .. }) => served.client.try_purchase(quote_id, budget, i).ok(),
            Err(_) => None,
        };
        let t2 = Instant::now();
        records.push(WireRecord {
            done_ns: nanos(t2 - start),
            quote_ns: nanos(t1 - t0),
            purchase_ns: nanos(t2 - t1),
            outcome,
        });
        i += 1;
    }
    Ok(WireRun {
        records,
        reprice_ns,
        elapsed: start.elapsed(),
    })
}

/// The same request sequence replayed in-process on an identically built
/// shard set, with `ShardSet::quote` and `ShardSet::settle` timed.
struct Replay {
    outcomes: Vec<SettleOutcome>,
    stats: ShardStats,
    quote: Quantiles,
    settle: Quantiles,
}

fn replay(spec: &Spec, seed: u64, served: &Served, requests: usize) -> Replay {
    let broker = Broker::with_support(served.db.clone(), served.support.clone());
    broker.set_pricing(served.pricing.clone());
    let shards = ShardSet::new(vec![Arc::new(broker)]);
    let (mut outcomes, mut quote_ns, mut settle_ns) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..requests as u64 {
        if let Some(patch) = patch_before(spec, seed, served, i) {
            shards.apply_patch(&patch);
        }
        let (bundle, budget) = bundle_request(seed, i, served.bundles.len());
        let t0 = Instant::now();
        let quote = shards.quote(&served.bundles[bundle]);
        let t1 = Instant::now();
        outcomes.push(shards.settle(quote.quote_id, budget, i));
        settle_ns.push(nanos(t1.elapsed()));
        quote_ns.push(nanos(t1 - t0));
    }
    Replay {
        outcomes,
        stats: shards.stats().remove(0),
        quote: Quantiles::new(quote_ns),
        settle: Quantiles::new(settle_ns),
    }
}

/// Output checks of one loop: every outcome and the server's revenue are
/// bit-identical to the in-process replay, and the server's revenue equals
/// the benchmark's own tally of sold prices (one connection, so the tally
/// sums in the ledger's order).
fn check(m: &Measured, failures: &mut Vec<String>) {
    let (server, replay) = (&m.stats, &m.replay);
    let records = || m.warm.records.iter().chain(&m.run.records);
    let differing = records()
        .zip(&replay.outcomes)
        .filter(|(r, o)| match (r.outcome, o) {
            (
                Some(SettleOutcome::Settled { sold, price }),
                SettleOutcome::Settled { sold: s, price: p },
            ) => sold != *s || price.to_bits() != p.to_bits(),
            _ => true,
        })
        .count();
    if differing > 0 {
        failures.push(format!(
            "{differing} wire outcomes differ from the in-process replay"
        ));
    }
    let tally: f64 = records()
        .filter_map(|r| match r.outcome {
            Some(SettleOutcome::Settled { sold: true, price }) => Some(price),
            _ => None,
        })
        .sum();
    if server.revenue.to_bits() != replay.stats.revenue.to_bits()
        || server.sales != replay.stats.sales
        || server.declines != replay.stats.declines
    {
        failures.push(format!(
            "server revenue {} ({} sales) differs from replay {} ({} sales)",
            server.revenue, server.sales, replay.stats.revenue, replay.stats.sales
        ));
    }
    if server.revenue != tally {
        failures.push(format!(
            "server revenue {} differs from the tally {tally}",
            server.revenue
        ));
    }
}

/// A warm-up and a measured loop with their server-side results.
struct Measured {
    warm: WireRun,
    /// Peak RSS after the warm-up.
    rss_mb: f64,
    run: WireRun,
    stats: ShardStats,
    replay: Replay,
    wal_bytes: u64,
}

fn measure(spec: &Spec, seed: u64, served: &mut Served, stop: Stop) -> Result<Measured, String> {
    let warm = drive(spec, seed, served, 0, Stop::Requests(spec.warmup))?;
    let rss_mb = peak_rss_mb();
    let run = drive(spec, seed, served, spec.warmup, stop)?;
    let stats = served
        .client
        .stats()
        .map_err(|e| format!("STATS: {e}"))?
        .into_iter()
        .next()
        .ok_or("STATS returned no shard")?;
    let replay = replay(spec, seed, served, warm.records.len() + run.records.len());
    let wal_bytes = std::fs::metadata(served.dir.join(WAL_FILE_NAME)).map_or(0, |m| m.len());
    Ok(Measured {
        warm,
        rss_mb,
        run,
        stats,
        replay,
        wal_bytes,
    })
}

fn teardown(served: Served) {
    let Served {
        mut server, client, ..
    } = served;
    drop(client);
    server.shutdown();
}

/// Where run `k` of this process keeps its WAL: inside the benchmark's
/// directory, removed when the run ends.
fn data_dir(k: usize) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("run")
        .join(format!("wal-{}-{k}", std::process::id()))
}

/// One benchmark run of `serve-uniform`.
pub fn run(spec: &Spec, args: &Args) -> Result<Report, String> {
    let mut dirs = Vec::new();
    let result = run_in(spec, args, &mut dirs);
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    // Succeeds only once no other run is using the directory.
    if let Some(parent) = dirs.first().and_then(|d| d.parent()) {
        let _ = std::fs::remove_dir(parent);
    }
    result
}

fn run_in(spec: &Spec, args: &Args, dirs: &mut Vec<PathBuf>) -> Result<Report, String> {
    let mut report = Report::default();
    let mut times = Vec::new();
    let mut served: Option<Served> = None;
    for k in 0..SETUP_REPS {
        if let Some(old) = served.take() {
            teardown(old);
        }
        dirs.push(data_dir(k));
        let (s, t) = setup(spec, args.seed, &dirs[k], TelemetrySink::Disabled)?;
        times.push(t);
        served = Some(s);
    }
    let mut served = served.expect("at least one set-up");
    let conflict_threads = served.conflict_threads;
    let seconds = Duration::from_secs(args.seconds);
    let plain = measure(spec, args.seed, &mut served, Stop::After(seconds))?;
    check(&plain, &mut report.failures);
    teardown(served);

    let traced = if args.trace {
        // A fresh server with telemetry on, outside the set-up timings.
        dirs.push(data_dir(dirs.len()));
        let dir = dirs.last().expect("just pushed").clone();
        let (mut served, _) = setup(spec, args.seed, &dir, TelemetrySink::enabled())?;
        let traced = measure(spec, args.seed, &mut served, Stop::After(seconds))?;
        check(&traced, &mut report.failures);
        let metrics = served
            .client
            .metrics()
            .map_err(|e| format!("METRICS: {e}"))?;
        let codec = codec_samples(&served, args.seed);
        if codec.mismatches > 0 {
            report.failures.push(format!(
                "{} QUOTE frames did not decode to themselves",
                codec.mismatches
            ));
        }
        teardown(served);
        Some((traced, metrics, codec))
    } else {
        None
    };

    let mut runs = vec![&plain.warm, &plain.run];
    runs.extend(
        traced
            .as_ref()
            .into_iter()
            .flat_map(|(t, ..)| [&t.warm, &t.run]),
    );
    report.attempted = runs.iter().map(|r| r.records.len() as u64).sum();
    report.failed = runs
        .iter()
        .flat_map(|r| &r.records)
        .filter(|r| !WireRun::ok(r))
        .count() as u64;

    let ms = |ns: f64| ns / 1e6;
    let us = |ns: f64| ns / 1e3;
    let e = &mut report.end_to_end;
    e.insert("setup_s", SetupTimes::median_total(&times));
    e.insert("peak_rss_mb", plain.rss_mb);
    let timings: Vec<Timing> = plain
        .run
        .records
        .iter()
        .map(|r| Timing {
            done_ns: r.done_ns,
            quote_ns: r.quote_ns,
            request_ns: r.quote_ns + r.purchase_ns,
            ok: WireRun::ok(r),
        })
        .collect();
    loop_metrics(&timings, plain.run.elapsed, e);

    if let Some((traced, metrics, codec)) = &traced {
        let l = &mut report.layers;
        SetupTimes::layer_values(&times, l);
        let t = &traced.run.records;
        let n = t.len() as f64;
        let quote_rtt = Quantiles::new(t.iter().map(|r| r.quote_ns).collect());
        let purchase_rtt = Quantiles::new(t.iter().map(|r| r.purchase_ns).collect());
        l.insert("wire.quote_rtt_p50_us", us(quote_rtt.at(0.5)));
        l.insert("wire.quote_rtt_p99_us", us(quote_rtt.at(0.99)));
        l.insert("wire.purchase_rtt_p50_us", us(purchase_rtt.at(0.5)));
        l.insert("wire.purchase_rtt_p99_us", us(purchase_rtt.at(0.99)));
        l.insert(
            "wire.reprice_rtt_p50_ms",
            ms(Quantiles::new(traced.run.reprice_ns.clone()).at(0.5)),
        );
        l.insert("shard.quote_p50_us", us(traced.replay.quote.at(0.5)));
        l.insert("shard.settle_p50_us", us(traced.replay.settle.at(0.5)));
        l.insert(
            "shard.cache_hit_share",
            share(traced.stats.cache_hits as f64, traced.stats.quotes as f64),
        );
        // The server's counters and the WAL cover the warm-up too.
        let all = n + traced.warm.records.len() as f64;
        l.insert("settle.sold_share", share(traced.stats.sales as f64, all));
        l.insert("codec.quote_bytes", codec.bytes);
        l.insert("codec.encode_p50_ns", codec.encode.at(0.5));
        l.insert("codec.decode_p50_ns", codec.decode.at(0.5));
        l.insert("wal.bytes_per_request", share(traced.wal_bytes as f64, all));
        l.insert(
            "wal.fsyncs",
            metrics.counter("wal.fsyncs").unwrap_or(0) as f64,
        );
        l.insert(
            "wal.snapshots",
            metrics.counter("store.snapshots").unwrap_or(0) as f64,
        );
        let request = Quantiles::new(timings.iter().map(|r| r.request_ns).collect());
        l.insert("request.p99_ms", ms(request.at(0.99)));
        l.insert(
            "trace.overhead_share",
            1.0 - share(traced.run.throughput(), plain.run.throughput()),
        );
    }

    report.notes = vec![
        ("client_threads", "1".into()),
        ("conflict_threads", conflict_threads.to_string()),
        ("loop_cpus", format!("{:?}", affinity::current())),
        ("fsync", format!("{:?}", FsyncPolicy::default())),
        ("snapshot_every", DEFAULT_SNAPSHOT_EVERY.to_string()),
        ("reprice_every", spec.reprice_every.to_string()),
        ("support", spec.support.to_string()),
        ("warmup_requests", spec.warmup.to_string()),
        ("requests", plain.run.records.len().to_string()),
        ("reprices", plain.run.reprice_ns.len().to_string()),
        ("setup_reps", times.len().to_string()),
    ];
    Ok(report)
}

/// QUOTE frame size, and encode/decode times of the frames the run sent.
struct Codec {
    bytes: f64,
    mismatches: usize,
    encode: Quantiles,
    decode: Quantiles,
}

fn codec_samples(served: &Served, seed: u64) -> Codec {
    let (mut bytes, mut mismatches) = (0, 0);
    let (mut encode, mut decode) = (Vec::new(), Vec::new());
    for i in 0..CODEC_SAMPLES as u64 {
        let (bundle, _) = bundle_request(seed, i, served.bundles.len());
        let request = Request::Quote(served.bundles[bundle].clone());
        let t0 = Instant::now();
        let frame = std::hint::black_box(request.encode());
        let t1 = Instant::now();
        let decoded = std::hint::black_box(Request::decode(&frame));
        let t2 = Instant::now();
        if decoded.as_ref().ok() != Some(&request) {
            mismatches += 1;
        }
        bytes += frame.len();
        encode.push(nanos(t1 - t0));
        decode.push(nanos(t2 - t1));
    }
    Codec {
        bytes: share(bytes as f64, CODEC_SAMPLES as f64),
        mismatches,
        encode: Quantiles::new(encode),
        decode: Quantiles::new(decode),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_revenue_matches_replay_and_repeats_per_seed() {
        let spec = Spec {
            support: 120,
            bundles: 20,
            reprice_every: 25,
            warmup: 30,
        };
        let mut revenue = Vec::new();
        for k in 0..2 {
            let dir = data_dir(100 + k);
            let (mut served, _) = setup(&spec, 3, &dir, TelemetrySink::Disabled).unwrap();
            let m = measure(&spec, 3, &mut served, Stop::Requests(120)).unwrap();
            teardown(served);
            let _ = std::fs::remove_dir_all(&dir);
            let _ = std::fs::remove_dir(dir.parent().expect("data dirs have a parent"));
            let mut failures = Vec::new();
            check(&m, &mut failures);
            assert!(failures.is_empty(), "{failures:?}");
            assert_eq!(m.run.records.len(), 120);
            assert_eq!(m.warm.reprice_ns.len() + m.run.reprice_ns.len(), 5);
            assert!(m.wal_bytes > 0);
            revenue.push((m.stats.revenue.to_bits(), m.stats.sales));
        }
        assert_eq!(revenue[0], revenue[1]);
    }
}
