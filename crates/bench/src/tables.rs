//! Tables 3–6, the §6.3 UBP refinement, and the conflict-engine ablation.

use std::time::{Duration, Instant};

use qp_market::{
    build_hypergraph, DeltaConflictEngine, NaiveConflictEngine, SupportConfig, SupportSet,
};
use qp_pricing::algorithms::{refine_uniform_bundle_price, uniform_bundle_price, PAPER_ALGORITHMS};
use qp_pricing::bounds;
use qp_workloads::valuations::{assign_valuations, ValuationModel};
use qp_workloads::Scale;

use crate::{
    build_instance, dataset_and_queries, hypergraph_for_support, run_with_model, secs,
    support_sweep, AlgoConfig, WorkloadKind,
};

/// Table 3: hypergraph characteristics of the four query workloads
/// (number of queries m, maximum degree B, average edge size), plus the
/// empty-edge and unique-item counts discussed in §6.2.
pub fn table3_hypergraph_stats(scale: Scale) {
    println!("Table 3: Hypergraph Characteristics (scale: {scale:?})");
    println!(
        "{:<10} {:>12} {:>14} {:>16} {:>14} {:>20}",
        "Workload",
        "# Queries(m)",
        "Max degree(B)",
        "Avg edge size",
        "Empty edges",
        "Edges w/ unique item"
    );
    for kind in WorkloadKind::all() {
        let inst = build_instance(kind, scale);
        let stats = inst.hypergraph.stats();
        println!(
            "{:<10} {:>12} {:>14} {:>16.2} {:>14} {:>20}",
            kind.name(),
            stats.num_edges,
            stats.max_degree,
            stats.avg_edge_size,
            stats.empty_edges,
            stats.edges_with_unique_item
        );
    }
}

/// Table 4: wall-clock running time (seconds) of every pricing algorithm on
/// the four workloads, with the hypergraph-construction (conflict-set) time
/// reported separately — the paper folds it into the item-pricing columns.
///
/// The algorithm roster comes from the `qp_pricing::algorithms` registry, so
/// adding an algorithm there adds a column here.
pub fn table4_runtimes(scale: Scale) {
    println!("Table 4: algorithm running times in seconds (scale: {scale:?})");
    print!("{:<10} {:>12}", "Workload", "construction");
    for name in PAPER_ALGORITHMS {
        print!(" {name:>10}");
    }
    println!();

    let cfg = AlgoConfig::at_scale(scale);
    for kind in WorkloadKind::all() {
        let inst = build_instance(kind, scale);
        let (runs, _, _) = run_with_model(
            &inst.hypergraph,
            &ValuationModel::SampledUniform { k: 100.0 },
            41,
            &cfg,
        );
        print!("{:<10} {:>12}", kind.name(), secs(inst.construction_time));
        for name in PAPER_ALGORITHMS {
            let cell = runs.iter().find(|r| r.name == name).map(|r| secs(r.time));
            print!(" {:>10}", cell.unwrap_or_else(|| "-".into()));
        }
        println!();
    }
}

/// Table 5: running times (seconds) on the skewed workload as a function of
/// the support-set size, *including* hypergraph-construction time, as in the
/// paper.
pub fn table5_runtime_vs_support(scale: Scale) {
    println!("Table 5: skewed workload running times vs support size, construction included (scale: {scale:?})");
    runtime_vs_support(WorkloadKind::Skewed, scale, 43, true);
}

/// Table 6: running times (seconds) on the SSB workload as a function of the
/// support-set size, *excluding* hypergraph-construction time, as in the
/// paper.
pub fn table6_runtime_vs_support(scale: Scale) {
    println!("Table 6: SSB workload running times vs support size, construction excluded (scale: {scale:?})");
    runtime_vs_support(WorkloadKind::Ssb, scale, 47, false);
}

/// The rows of Tables 5–6. With `construction`, the hypergraph-construction
/// time gets its own column and is added to every algorithm that needs the
/// conflict sets — all but UBP (paper §6.4).
fn runtime_vs_support(kind: WorkloadKind, scale: Scale, seed: u64, construction: bool) {
    let cfg = AlgoConfig::at_scale(scale);
    let inst = build_instance(kind, scale);
    let names = ["LPIP", "UBP", "UIP", "CIP", "Layering"];
    print!("{:<12}", "|S|");
    if construction {
        print!(" {:>12}", "construction");
    }
    names.iter().for_each(|name| print!(" {name:>10}"));
    println!();
    for s in support_sweep(inst.support.len()) {
        let (h, build_time) = hypergraph_for_support(&inst, s);
        let (runs, _, _) =
            run_with_model(&h, &ValuationModel::SampledUniform { k: 100.0 }, seed, &cfg);
        print!("{s:<12}");
        if construction {
            print!(" {:>12}", secs(build_time));
        }
        for name in names {
            let extra = if construction && name != "UBP" {
                build_time
            } else {
                Duration::ZERO
            };
            let cell = runs
                .iter()
                .find(|r| r.name == name)
                .map(|r| secs(r.time + extra));
            print!(" {:>10}", cell.unwrap_or_else(|| "-".into()));
        }
        println!();
    }
}

/// §6.3 UBP refinement: the LP post-processing step that lifts the best
/// uniform bundle price into a non-uniform item pricing constrained to keep
/// every UBP-sold bundle sold (the paper reports 0.78 → 0.99 on TPC-H with
/// the additive model, k = 1).
pub fn ubp_refinement(scale: Scale) {
    println!("UBP refinement (paper §6.3), additive model D~ = Uniform[1,1] (scale: {scale:?})");
    println!(
        "{:<10} {:>18} {:>22}",
        "Workload", "UBP (normalized)", "UBP-refined (normalized)"
    );
    for kind in WorkloadKind::all() {
        let inst = build_instance(kind, scale);
        let mut h = inst.hypergraph.clone();
        assign_valuations(&mut h, &ValuationModel::AdditiveUniform { k: 1 }, 53);
        let sum = bounds::sum_of_valuations(&h);
        let normalized = |revenue: f64| if sum > 0.0 { revenue / sum } else { 0.0 };
        let ubp = normalized(uniform_bundle_price(&h).revenue);
        let refined = normalized(refine_uniform_bundle_price(&h).revenue);
        println!("{:<10} {:>18.3} {:>22.3}", kind.name(), ubp, refined);
    }
}

/// Ablation: naive vs delta-aware conflict-set computation.
///
/// The paper's Qirana substrate makes conflict-set computation tractable by
/// exploiting the single-tuple structure of support databases; this
/// quantifies how much that matters in our reimplementation by timing both
/// engines on the same workload and verifying they agree.
pub fn ablation_conflict_eval(scale: Scale) {
    println!("Ablation: conflict-set computation, naive vs delta-aware (scale: {scale:?})");

    let (db, workload) = dataset_and_queries(WorkloadKind::Skewed, scale);
    // Keep the naive pass tractable: cap the number of queries at test scale.
    let queries = &workload.queries[..workload.queries.len().min(200)];
    let support = SupportSet::generate(&db, &SupportConfig::with_size(scale.default_support() / 3));

    let naive = NaiveConflictEngine::new(&db, &support);
    let fast = DeltaConflictEngine::new(&db, &support);

    let start = Instant::now();
    let h_fast = build_hypergraph(&fast, queries);
    let fast_time = start.elapsed();

    let start = Instant::now();
    let h_naive = build_hypergraph(&naive, queries);
    let naive_time = start.elapsed();

    let agree = (0..h_fast.num_edges()).all(|i| h_fast.edge(i).items == h_naive.edge(i).items);
    println!(
        "{} queries ({}) x support {}:",
        queries.len(),
        WorkloadKind::Skewed.name(),
        support.len()
    );
    println!("  naive engine      : {:?}", naive_time);
    println!("  delta-aware engine: {:?}", fast_time);
    println!(
        "  speedup           : {:.2}x   (identical conflict sets: {agree})",
        naive_time.as_secs_f64() / fast_time.as_secs_f64().max(1e-9)
    );
    assert!(agree, "conflict engines disagree");
}
