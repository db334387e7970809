//! A standalone quote server over a generated workload.
//!
//! Builds `--shards` identically-priced broker replicas for the world/
//! skewed workload, binds `--addr`, and serves until a `SHUTDOWN` frame
//! arrives (e.g. `QuoteClient::shutdown_server`) or the process is killed:
//!
//! ```bash
//! cargo run --release -p qp-server --bin serve -- --addr 127.0.0.1:7979 --shards 2
//! ```
//!
//! With `--data-dir DIR` the server is **durable**: every settle and
//! repricing is WAL-logged to `DIR` before it is acknowledged, snapshots
//! are written every `--snapshot-every` repricings (default 8), and on
//! startup any existing state in `DIR` is recovered — newest valid
//! snapshot plus WAL suffix — before the listener binds. `--fsync`
//! selects the flush policy (`always`, `never`, `group:<N>`; default
//! `group:32`). Kill the process mid-run and restart with the same
//! `--data-dir` and flags: every acknowledged sale survives.
//!
//! Telemetry is always on: clients can pull the live registry with a
//! `METRICS` frame, and `--metrics-dump` additionally prints the final
//! registry as Prometheus text on shutdown.

use std::sync::Arc;

use qp_core::cli::{self, CliError, Spec};
use qp_market::{Broker, SupportConfig};
use qp_pricing::algorithms;
use qp_server::{
    FlightRecorder, QuoteServer, ShardSet, DEFAULT_CACHE_CAPACITY, DEFAULT_SNAPSHOT_EVERY,
};
use qp_store::{FileStore, FsyncPolicy, SharedStore};
use qp_telemetry::{FlightDump, TelemetrySink};
use qp_workloads::queries::skewed;
use qp_workloads::world::{self, WorldConfig};
use qp_workloads::Scale;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[rustfmt::skip]
const SPEC: Spec = Spec {
    name: "serve",
    about: "Serves the world/skewed workload until a SHUTDOWN frame arrives.",
    flags: &[
        ("--addr HOST:PORT", "listen address (default 127.0.0.1:7979)"),
        ("--shards N", "broker replicas (default 2)"),
        ("--support N", "support-set size (default 120)"),
        ("--pool N", "anticipated queries (default 100)"),
        ("--algorithm NAME", "registered pricing algorithm (default UIP)"),
        ("--seed N", "valuation seed (default 42)"),
        ("--metrics-dump", "print the final registry as Prometheus text"),
        ("--data-dir DIR", "durable mode: WAL and snapshots in DIR"),
        ("--fsync POLICY", "always | never | group:<N> (default group:32)"),
        ("--snapshot-every N", "repricings between snapshots (default 8)"),
    ],
};

struct Options {
    addr: String,
    shards: usize,
    support: usize,
    pool_size: usize,
    algorithm: String,
    seed: u64,
    metrics_dump: bool,
    data_dir: Option<String>,
    fsync: FsyncPolicy,
    snapshot_every: u64,
}

fn parse_args(args: &[String]) -> Result<Options, CliError> {
    let args = SPEC.parse(args)?;
    let fsync_policy = |s: &str| FsyncPolicy::parse(s).ok_or("expected always, never or group:<N>");
    Ok(Options {
        addr: args.raw("--addr").unwrap_or("127.0.0.1:7979").to_string(),
        shards: args.value_with("--shards", cli::positive)?.unwrap_or(2),
        support: args.value("--support")?.unwrap_or(120),
        pool_size: args.value("--pool")?.unwrap_or(100),
        algorithm: args
            .value_with("--algorithm", algorithms::check_name)?
            .unwrap_or_else(|| "UIP".to_string()),
        seed: args.value("--seed")?.unwrap_or(42),
        metrics_dump: args.switch("--metrics-dump"),
        data_dir: args.raw("--data-dir").map(str::to_string),
        fsync: args
            .value_with("--fsync", fsync_policy)?
            .unwrap_or_default(),
        snapshot_every: args
            .value("--snapshot-every")?
            .unwrap_or(DEFAULT_SNAPSHOT_EVERY),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Options {
        addr,
        shards,
        support,
        pool_size,
        algorithm,
        seed,
        metrics_dump,
        data_dir,
        fsync,
        snapshot_every,
    } = parse_args(&args).unwrap_or_else(|e| cli::exit(&e, &SPEC.usage()));

    let world_cfg = WorldConfig::at_scale(Scale::Test);
    let db = world::generate(&world_cfg);
    let mut pool = skewed::workload(&db, world_cfg.countries).queries;
    pool.truncate(pool_size);
    println!(
        "serve: building {shards} {algorithm} shard(s), support {support}, {} anticipated queries",
        pool.len()
    );

    let telemetry = TelemetrySink::enabled();
    let brokers: Vec<Arc<Broker>> = (0..shards)
        .map(|_| {
            let mut rng = StdRng::seed_from_u64(seed);
            Arc::new(
                Broker::builder(db.clone())
                    .support_config(SupportConfig::with_size(support))
                    .algorithm(&algorithm)
                    .anticipate_all(pool.iter().map(|q| (q.clone(), rng.gen_range(1.0..=50.0))))
                    .telemetry(telemetry.clone())
                    .build()
                    .unwrap_or_else(|e| panic!("broker build failed: {e}")),
            )
        })
        .collect();

    let (shard_set, recorder) = if let Some(dir) = &data_dir {
        // A previous crash leaves `flight.dump` in the data directory:
        // report its black-box summary (the dump stays on disk for
        // `qp_top --postmortem` until the next crash overwrites it).
        match FlightDump::read_from(dir.as_ref()) {
            Ok(Some(dump)) => println!(
                "previous crash: {} (wal_seq {}, {} proto events, {} root spans{})",
                dump.reason,
                dump.wal_seq,
                dump.protocol_events.len(),
                dump.roots.len(),
                if dump.truncated { ", tail torn" } else { "" }
            ),
            Ok(None) => {}
            Err(e) => println!("unreadable flight dump in {dir}: {e}"),
        }
        // Durable mode: recovery first (a fresh directory recovers to the
        // brokers' own initial state), then keep logging into the same
        // store. Recovery must finish before the listener binds so no
        // client ever sees pre-recovery state.
        let store: SharedStore = Arc::new(
            FileStore::open_with(dir, fsync, &telemetry)
                .unwrap_or_else(|e| panic!("opening data dir {dir}: {e}")),
        );
        let recorder =
            FlightRecorder::new(dir.clone(), telemetry.clone(), Some(Arc::clone(&store)));
        // Any panic from here on writes the flight dump before unwinding.
        FlightRecorder::install_panic_hook(&recorder);
        let (set, state) =
            ShardSet::restore(brokers, DEFAULT_CACHE_CAPACITY, store, snapshot_every)
                .unwrap_or_else(|e| panic!("recovering {dir}: {e}"));
        // `+ 0.0` only normalizes an empty ledger's -0.0 for display.
        println!(
            "recovered {dir}: epoch {}, {} sales / {} declines, revenue {:.2}",
            state.epoch,
            state.sales(),
            state.declines(),
            state.revenue() + 0.0
        );
        (set.with_telemetry(telemetry.clone()), Some(recorder))
    } else {
        (
            ShardSet::new(brokers).with_telemetry(telemetry.clone()),
            None,
        )
    };
    let mut server = QuoteServer::bind_with_options(addr.as_str(), shard_set, None, recorder)
        .unwrap_or_else(|e| panic!("binding {addr}: {e}"));
    println!(
        "serving on {} — send a SHUTDOWN frame to stop",
        server.local_addr()
    );
    server.wait();
    // Parting snapshot (no-op without a store): the next recovery replays
    // an empty WAL suffix instead of everything since the last cadence.
    server.shards().snapshot_now();
    if metrics_dump {
        print!(
            "{}",
            qp_telemetry::expose::prometheus_text(&telemetry.snapshot())
        );
    }
    println!("shut down");
}
