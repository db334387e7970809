//! The discrete-event market loop.
//!
//! [`run`] drives a live [`Broker`] with a seeded, deterministic stream of
//! buyers. Each tick:
//!
//! 1. The arrival process draws how many buyers show up; the active
//!    population (schedules may shift populations mid-run) samples each
//!    buyer's segment, query, and budget. All randomness happens here, on
//!    the coordinating thread, from one seeded RNG.
//! 2. The buyers fan out across scoped **worker threads** through the
//!    transport-agnostic settle driver ([`crate::driver`]), each quoting
//!    and settling at the quoted price — against the shared broker
//!    in-process (the concurrent read traffic the broker's `RwLock`ed
//!    pricing exists for), or against a remote shard set when the
//!    transport is `qp-server`'s network client. Workers claim buyers from
//!    a work ledger and write outcomes back by arrival index.
//! 3. The coordinator folds outcomes **in arrival order** into the tick's
//!    statistics, so revenue totals are bit-identical for a fixed seed no
//!    matter how the workers interleaved.
//! 4. Every observed quote (conflict set plus the buyer's bid as the
//!    valuation) lands in a sliding [`DemandWindow`] that accumulates a
//!    `HypergraphDelta` instead of storing raw quotes. When the repricing
//!    policy fires, the delta is applied to the **live** demand hypergraph
//!    in O(|delta|) and the algorithm's incremental rule (when it has one —
//!    see `qp_pricing::algorithms::Repricer`) patches the broker's pricing
//!    in place through `Broker::apply_delta`; algorithms without the
//!    capability re-run in full on the maintained graph. The pre-delta
//!    behavior — rebuild the window's hypergraph from scratch and re-run the
//!    full algorithm — remains available as
//!    [`RepricingMode::FullRebuild`], and for UBP/UIP the two modes install
//!    identical prices (their incremental rules are exact).
//!
//! Because pricing swaps land on tick boundaries and within-tick pricing is
//! fixed, every buyer's outcome is a pure function of the seed — worker
//! threads affect wall-clock only, never revenue.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use qp_market::Broker;
use qp_pricing::algorithms::{self, Repricer};
use qp_telemetry::{HistogramSnapshot, TelemetrySink};
use qp_workloads::arrivals::ArrivalProcess;

use crate::demand::DemandWindow;
use crate::driver::{self, BrokerTransport, SettleTransport};
use crate::metrics::{RepricingEvent, SimReport, TickStats};
use crate::population::{Buyer, Population};
use crate::repricing::RepricingPolicy;

/// How a firing repricing policy turns observed demand into a new pricing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RepricingMode {
    /// Apply the accumulated demand delta to the live hypergraph and let
    /// the algorithm's incremental rule patch the pricing in place (full
    /// recompute only for algorithms without the capability). The default.
    #[default]
    Incremental,
    /// Rebuild the demand hypergraph from the window in arrival order and
    /// re-run the full algorithm — the pre-delta hot path, kept as the
    /// benchmark baseline.
    FullRebuild,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of ticks to simulate.
    pub ticks: u64,
    /// RNG seed; two runs with the same seed (and the same broker build)
    /// report identical revenue.
    pub seed: u64,
    /// Quote worker threads per tick; 0 uses the available hardware
    /// parallelism. Any value yields the same revenue — only throughput
    /// changes.
    pub workers: usize,
    /// Registry algorithm re-run on observed demand at each repricing.
    pub algorithm: String,
    /// How many of the most recent observed quotes feed a repricing;
    /// 0 keeps every observation (unbounded).
    pub demand_window: usize,
    /// Incremental delta application vs full rebuild at each repricing.
    pub repricing_mode: RepricingMode,
    /// Telemetry sink the run reports into (tick latency histograms,
    /// sold/declined counters, repricing durations). The default
    /// [`TelemetrySink::Disabled`] costs nothing; enabling it never
    /// changes sampling, arrival order, or revenue.
    pub telemetry: TelemetrySink,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            ticks: 60,
            seed: 0xC0FFEE,
            workers: 0,
            algorithm: "UBP".to_string(),
            demand_window: 2048,
            repricing_mode: RepricingMode::Incremental,
            telemetry: TelemetrySink::default(),
        }
    }
}

/// Runs a simulation against a live broker — the in-process
/// [`BrokerTransport`] instantiation of [`run_with`].
///
/// `schedule` is a list of `(from_tick, population)` phases sorted by start
/// tick; the first phase must start at tick 0. A single-population run is
/// `&[(0, population)]`.
///
/// # Panics
///
/// Panics if the schedule is empty, does not start at tick 0, or is not
/// sorted by start tick, or if `cfg.algorithm` is not in the pricing
/// registry — configuration errors a simulation must fail loudly on.
pub fn run(
    broker: &Broker,
    schedule: &[(u64, Population)],
    arrivals: &ArrivalProcess,
    policy: &mut dyn RepricingPolicy,
    cfg: &SimConfig,
) -> SimReport {
    run_with(&BrokerTransport { broker }, schedule, arrivals, policy, cfg)
}

/// Runs a simulation against any [`SettleTransport`] — the same seeded
/// event loop whether quotes are answered by an in-process broker or a
/// remote shard set over the wire.
///
/// All sampling happens on this (the coordinating) thread from one seeded
/// RNG; the transport only answers quotes and applies repricings, so two
/// transports fronting the same pricing state produce **bit-identical
/// revenue** for the same seed. `qp-server`'s loadgen leans on exactly this
/// to check its network path against an in-process baseline.
///
/// # Panics
///
/// As [`run`].
pub fn run_with<T: SettleTransport>(
    transport: &T,
    schedule: &[(u64, Population)],
    arrivals: &ArrivalProcess,
    policy: &mut dyn RepricingPolicy,
    cfg: &SimConfig,
) -> SimReport {
    assert!(
        !schedule.is_empty(),
        "simulation needs at least one population"
    );
    assert_eq!(
        schedule[0].0, 0,
        "the population schedule must start at tick 0"
    );
    assert!(
        schedule.windows(2).all(|w| w[0].0 <= w[1].0),
        "the population schedule must be sorted by start tick"
    );
    let algo = algorithms::by_name(&cfg.algorithm)
        .unwrap_or_else(|| panic!("unknown repricing algorithm {:?}", cfg.algorithm));
    let workers = if cfg.workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        cfg.workers
    };

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut repricer = Repricer::new(algo);
    let mut window = DemandWindow::new(transport.num_items(), cfg.demand_window);
    let mut ticks = Vec::with_capacity(cfg.ticks as usize);
    let mut repricings = Vec::new();
    // The sampled buyers, hoisted so steady-state ticks reuse capacity.
    let mut buyers: Vec<Buyer> = Vec::new();
    // Run-level latency histograms (always kept — they feed the report's
    // quantiles) and the optional live telemetry feed. The sink handles
    // are resolved once; with a disabled sink every call below is a
    // no-op branch.
    let mut quote_latency_us = HistogramSnapshot::new();
    let mut repricing_latency_ns = HistogramSnapshot::new();
    let sink_quote_hist = cfg.telemetry.histogram("sim.quote.us");
    let sink_reprice_hist = cfg.telemetry.histogram("sim.reprice.ns");
    let sink_sold = cfg.telemetry.counter("sim.sold");
    let sink_declined = cfg.telemetry.counter("sim.declined");
    let reprice_span = cfg.telemetry.span_handle("sim.reprice");
    // timing: run wall clock for the report's throughput figure.
    let started = Instant::now();

    for tick in 0..cfg.ticks {
        let phase = active_phase(schedule, tick);
        let population = &schedule[phase].1;
        let n = arrivals.arrivals_at(tick, &mut rng);
        buyers.clear();
        buyers.extend((0..n).map(|_| population.sample(&mut rng)));

        let outcomes = driver::settle_batch(transport, population, phase, &buyers, tick, workers);

        let mut stats = TickStats {
            tick,
            arrivals: n,
            ..TickStats::default()
        };
        let mut tick_latency = HistogramSnapshot::new();
        for o in outcomes {
            if o.sold {
                stats.sold += 1;
                stats.revenue += o.price;
                sink_sold.inc();
            } else {
                stats.declined += 1;
                stats.forgone_revenue += o.budget;
                sink_declined.inc();
            }
            tick_latency.record(o.latency_us);
            sink_quote_hist.record(o.latency_us);
            window.observe(o.conflict_set, o.budget);
        }
        let (p50, p95, p99) = tick_latency.percentiles();
        stats.latency_us_p50 = p50;
        stats.latency_us_p95 = p95;
        stats.latency_us_p99 = p99;
        quote_latency_us.merge(&tick_latency);

        if policy.should_reprice(&stats) && !window.is_empty() {
            let _reprice_guard = reprice_span.enter();
            // timing: repricing duration feeds the report's latency
            // histogram; it never feeds the repricing decision itself.
            let t0 = Instant::now();
            let observed_edges = window.len();
            match cfg.repricing_mode {
                RepricingMode::Incremental => {
                    let (demand, ops) = window.flush();
                    let (_, patch) = repricer.reprice(demand, &ops);
                    transport.apply_patch(&patch);
                }
                RepricingMode::FullRebuild => {
                    window.flush();
                    let demand = window.rebuild_in_arrival_order();
                    transport.install_pricing(repricer.run_full(&demand).pricing);
                }
            }
            let latency = t0.elapsed();
            repricing_latency_ns.record(latency.as_nanos() as u64);
            sink_reprice_hist.record(latency.as_nanos() as u64);
            repricings.push(RepricingEvent {
                tick,
                latency,
                observed_edges,
            });
        }
        ticks.push(stats);
    }

    SimReport {
        scenario: String::new(),
        workload: String::new(),
        seed: cfg.seed,
        algorithm: cfg.algorithm.clone(),
        policy: policy.label(),
        arrivals_label: arrivals.label(),
        ticks,
        repricings,
        quote_latency_us,
        repricing_latency_ns,
        wall: started.elapsed(),
    }
}

/// The index of the schedule phase governing `tick`: the last entry whose
/// start is not after it.
fn active_phase(schedule: &[(u64, Population)], tick: u64) -> usize {
    let mut current = 0;
    for (i, (start, _)) in schedule.iter().enumerate() {
        if *start <= tick {
            current = i;
        } else {
            break;
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{BudgetModel, BuyerSegment};
    use crate::repricing::{EveryNTicks, Never};
    use qp_market::SupportConfig;
    use qp_qdb::{ColumnType, Database, Query, Relation, Schema, Value};

    fn tiny_broker() -> Broker {
        let mut rel = Relation::new(Schema::new(vec![
            ("name", ColumnType::Str),
            ("size", ColumnType::Int),
        ]));
        for i in 0..12 {
            rel.push(vec![format!("row{i}").into(), Value::Int(i)])
                .unwrap();
        }
        let mut db = Database::new();
        db.add_table("T", rel);
        Broker::builder(db)
            .support_config(SupportConfig::with_size(40))
            .algorithm("UBP")
            .anticipate(Query::scan("T"), 30.0)
            .build()
            .expect("UBP is registered")
    }

    fn population() -> Population {
        Population::new(vec![BuyerSegment::new(
            "all",
            vec![Query::scan("T")],
            BudgetModel::Uniform { lo: 0.0, hi: 60.0 },
        )])
    }

    #[test]
    fn run_produces_one_stats_row_per_tick() {
        let broker = tiny_broker();
        let report = run(
            &broker,
            &[(0, population())],
            &ArrivalProcess::Poisson { rate: 3.0 },
            &mut Never,
            &SimConfig {
                ticks: 10,
                seed: 1,
                ..SimConfig::default()
            },
        );
        assert_eq!(report.ticks.len(), 10);
        assert_eq!(report.quotes(), report.sales() + report.declines());
        assert!(report.repricings.is_empty());
        // The broker's ledger saw the same traffic the report did.
        let ledger = broker.ledger();
        assert_eq!(ledger.len(), report.sales());
        assert_eq!(ledger.declined_count(), report.declines());
        assert!((ledger.total() - report.total_revenue()).abs() < 1e-6);
        // Sales are tick-stamped within the simulated horizon.
        assert!(ledger.sales().iter().all(|s| s.tick < 10));
    }

    #[test]
    fn repricing_policy_fires_and_records_latency() {
        let broker = tiny_broker();
        let report = run(
            &broker,
            &[(0, population())],
            &ArrivalProcess::Poisson { rate: 4.0 },
            &mut EveryNTicks::new(3),
            &SimConfig {
                ticks: 9,
                seed: 2,
                ..SimConfig::default()
            },
        );
        // Fires after ticks 2, 5, 8 (skipping any with no demand yet).
        assert!(!report.repricings.is_empty());
        assert!(report.repricings.len() <= 3);
        for r in &report.repricings {
            assert!((r.tick + 1) % 3 == 0);
            assert!(r.observed_edges > 0);
        }
    }

    #[test]
    fn schedules_shift_the_active_population() {
        let rich = Population::new(vec![BuyerSegment::new(
            "rich",
            vec![Query::scan("T")],
            BudgetModel::Uniform { lo: 1e6, hi: 2e6 },
        )]);
        let broke = Population::new(vec![BuyerSegment::new(
            "broke",
            vec![Query::scan("T")],
            BudgetModel::Uniform { lo: 0.0, hi: 1e-9 },
        )]);
        let broker = tiny_broker();
        let report = run(
            &broker,
            &[(0, rich), (5, broke)],
            &ArrivalProcess::Poisson { rate: 5.0 },
            &mut Never,
            &SimConfig {
                ticks: 10,
                seed: 3,
                ..SimConfig::default()
            },
        );
        let early: usize = report.ticks[..5].iter().map(|t| t.declined).sum();
        let late: usize = report.ticks[5..].iter().map(|t| t.sold).sum();
        assert_eq!(early, 0, "rich buyers never decline");
        assert_eq!(late, 0, "broke buyers never buy a priced scan");
    }

    #[test]
    fn incremental_and_full_rebuild_install_identical_ubp_prices() {
        // UBP's incremental rule is exact, so the two repricing modes must
        // produce bit-identical revenue trajectories for the same seed.
        let run_mode = |mode: RepricingMode| {
            let broker = tiny_broker();
            run(
                &broker,
                &[(0, population())],
                &ArrivalProcess::Poisson { rate: 5.0 },
                &mut EveryNTicks::new(2),
                &SimConfig {
                    ticks: 12,
                    seed: 11,
                    demand_window: 16, // small window forces evictions
                    repricing_mode: mode,
                    ..SimConfig::default()
                },
            )
        };
        let inc = run_mode(RepricingMode::Incremental);
        let full = run_mode(RepricingMode::FullRebuild);
        assert!(!inc.repricings.is_empty(), "the policy fired");
        assert_eq!(
            inc.total_revenue().to_bits(),
            full.total_revenue().to_bits()
        );
        for (a, b) in inc.ticks.iter().zip(&full.ticks) {
            assert_eq!(a.sold, b.sold);
            assert_eq!(a.revenue.to_bits(), b.revenue.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "unknown repricing algorithm")]
    fn unknown_algorithms_fail_loudly() {
        let broker = tiny_broker();
        run(
            &broker,
            &[(0, population())],
            &ArrivalProcess::Poisson { rate: 1.0 },
            &mut Never,
            &SimConfig {
                algorithm: "nope".to_string(),
                ..SimConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "sorted by start tick")]
    fn unsorted_schedules_are_rejected() {
        let broker = tiny_broker();
        run(
            &broker,
            &[(0, population()), (10, population()), (5, population())],
            &ArrivalProcess::Poisson { rate: 1.0 },
            &mut Never,
            &SimConfig::default(),
        );
    }

    #[test]
    #[should_panic(expected = "start at tick 0")]
    fn schedules_must_start_at_tick_zero() {
        let broker = tiny_broker();
        run(
            &broker,
            &[(3, population())],
            &ArrivalProcess::Poisson { rate: 1.0 },
            &mut Never,
            &SimConfig::default(),
        );
    }
}
