//! Figures 4–8 of the paper.
//!
//! The revenue drivers of Figures 5–7 build the requested workload instances
//! once, then sweep the valuation-model parameters, reusing the conflict-set
//! hypergraph across parameter values (only the valuations change — exactly
//! as in the paper's setup).

use qp_workloads::valuations::{assign_valuations, ValuationModel};
use qp_workloads::Scale;

use crate::{
    build_instance, print_panel, run_all_algorithms, run_with_model, support_sweep, AlgoConfig,
    WorkloadKind,
};

use WorkloadKind::{Skewed, Ssb, Tpch, Uniform};

/// Figure 4: the hyperedge-size distribution of each workload, printed as a
/// bucketed histogram (size bucket → number of hyperedges).
pub fn fig4_edge_size_distribution(scale: Scale) {
    println!("Figure 4: Hyperedge size distribution (scale: {scale:?})");
    for kind in WorkloadKind::all() {
        let inst = build_instance(kind, scale);
        let stats = inst.hypergraph.stats();
        println!(
            "\n-- {} workload: {} queries, support {} (avg edge size {:.2}) --",
            kind.name(),
            stats.num_edges,
            inst.support.len(),
            stats.avg_edge_size
        );
        println!("{:>12} {:>12}", "edge size >=", "#hyperedges");
        for (bucket_start, count) in inst.hypergraph.edge_size_histogram(20) {
            if count > 0 {
                println!("{bucket_start:>12} {count:>12}");
            }
        }
    }
}

/// Figure 5a: sampled bundle valuations on the skewed and uniform workloads.
pub fn fig5a_sampled_valuations(scale: Scale) {
    println!("Figure 5a: sampled bundle valuations, skewed + uniform workloads (scale: {scale:?})");
    revenue_panels(&[Skewed, Uniform], scale, sampled);
}

/// Figure 5b: scaled bundle valuations on the skewed and uniform workloads.
pub fn fig5b_scaled_valuations(scale: Scale) {
    println!("Figure 5b: scaled bundle valuations, skewed + uniform workloads (scale: {scale:?})");
    revenue_panels(&[Skewed, Uniform], scale, scaled);
}

/// Figure 6a: sampled bundle valuations on the SSB and TPC-H workloads.
pub fn fig6a_sampled_valuations_ssb_tpch(scale: Scale) {
    println!("Figure 6a: sampled bundle valuations, SSB + TPC-H workloads (scale: {scale:?})");
    revenue_panels(&[Ssb, Tpch], scale, sampled);
}

/// Figure 6b: scaled bundle valuations on the SSB and TPC-H workloads.
pub fn fig6b_scaled_valuations_ssb_tpch(scale: Scale) {
    println!("Figure 6b: scaled bundle valuations, SSB + TPC-H workloads (scale: {scale:?})");
    revenue_panels(&[Ssb, Tpch], scale, scaled);
}

/// Figure 7a: the additive item-price model on the skewed and uniform
/// workloads.
pub fn fig7a_item_price_model(scale: Scale) {
    println!(
        "Figure 7a: additive item-price valuations, skewed + uniform workloads (scale: {scale:?})"
    );
    revenue_panels(&[Skewed, Uniform], scale, item_price);
}

/// Figure 7b: the additive item-price model on the SSB and TPC-H workloads.
pub fn fig7b_item_price_model_ssb_tpch(scale: Scale) {
    println!("Figure 7b: additive item-price valuations, SSB + TPC-H workloads (scale: {scale:?})");
    revenue_panels(&[Ssb, Tpch], scale, item_price);
}

/// Figure 8: revenue extracted as the support-set size shrinks, on the
/// skewed and SSB workloads with Uniform\[1,100\] valuations.
///
/// The hypergraph over the largest support is built once; smaller supports
/// are prefixes of it, so their hyperedges are obtained by restricting each
/// conflict set to the first `|S|` items (identical to recomputing, since the
/// support databases are sampled independently).
pub fn fig8_support_size_revenue(scale: Scale) {
    println!("Figure 8: revenue vs support-set size, Uniform[1,100] valuations (scale: {scale:?})");
    let cfg = AlgoConfig::at_scale(scale);
    for kind in [Skewed, Ssb] {
        let inst = build_instance(kind, scale);
        let full = inst.support.len();
        println!(
            "\n#### {} workload: {} queries, full support {} ####",
            kind.name(),
            inst.workload.len(),
            full
        );
        for s in support_sweep(full) {
            let mut h = inst.hypergraph.restrict_items(s);
            assign_valuations(&mut h, &ValuationModel::SampledUniform { k: 100.0 }, 31);
            let (runs, sum, sub) = run_all_algorithms(&h, &cfg);
            print_panel(
                &format!("{} workload; |S| = {s}", kind.name()),
                &runs,
                sum,
                sub,
            );
        }
    }
}

/// One revenue panel: the valuation model, its seed, and the panel title.
type Panel = (ValuationModel, u64, String);

/// Builds each workload once and prints one panel per entry of `panels`
/// (given the workload name and query count), reusing the hypergraph.
fn revenue_panels(kinds: &[WorkloadKind], scale: Scale, panels: fn(&str, usize) -> Vec<Panel>) {
    let cfg = AlgoConfig::at_scale(scale);
    for &kind in kinds {
        let inst = build_instance(kind, scale);
        let m = inst.workload.len();
        let support = inst.support.len();
        println!(
            "\n#### {} workload: {m} queries, support {support} ####",
            kind.name()
        );
        for (model, seed, title) in panels(kind.name(), m) {
            let (runs, sum, sub) = run_with_model(&inst.hypergraph, &model, seed, &cfg);
            print_panel(&title, &runs, sum, sub);
        }
    }
}

/// Figures 5a / 6a: *sampled* bundle valuations — Uniform[1, k] for
/// k ∈ {100, …, 500} and Zipf(a) for a ∈ {1.5, …, 2.5}.
fn sampled(kind: &str, m: usize) -> Vec<Panel> {
    let uniform = [100.0, 200.0, 300.0, 400.0, 500.0].map(|k| {
        let title = format!("{m} queries, {kind} workload; uniform dist. k = {k}");
        (ValuationModel::SampledUniform { k }, 11, title)
    });
    let zipf = [1.5, 1.75, 2.0, 2.25, 2.5].map(|a| {
        let title = format!("{m} queries, {kind} workload; zipfian dist. a = {a}");
        (
            ValuationModel::SampledZipf {
                a,
                max_rank: 10_000,
            },
            13,
            title,
        )
    });
    uniform.into_iter().chain(zipf).collect()
}

/// Figures 5b / 6b: *scaled* bundle valuations — Exponential(|e|^k) and
/// Normal(|e|^k, 10) for k ∈ {2, 3/2, 1, 1/2, 1/4}.
fn scaled(kind: &str, _: usize) -> Vec<Panel> {
    let ks = [2.0, 1.5, 1.0, 0.5, 0.25];
    let exponential = ks.map(|k| {
        let title = format!("{kind} workload; exponential dist. beta = |e|^{k}");
        (ValuationModel::ScaledExponential { k }, 17, title)
    });
    let normal = ks.map(|k| {
        let title = format!("{kind} workload; normal dist. mu = |e|^{k}, sigma^2 = 10");
        (
            ValuationModel::ScaledNormal { k, variance: 10.0 },
            19,
            title,
        )
    });
    exponential.into_iter().chain(normal).collect()
}

/// Figures 7a / 7b: the additive item-price model with
/// D̃ ∈ {Uniform[1, k], Binomial(k, ½)} and k ∈ {1, 10, 10², 10³, 5·10³, 10⁴}.
fn item_price(kind: &str, _: usize) -> Vec<Panel> {
    let ks = [1usize, 10, 100, 1000, 5000, 10_000];
    let uniform = ks.map(|k| {
        let title = format!("{kind} workload; D~ = Uniform[1,{k}]");
        (ValuationModel::AdditiveUniform { k }, 23, title)
    });
    let binomial = ks.map(|k| {
        let title = format!("{kind} workload; D~ = Binomial({k}, 0.5)");
        (ValuationModel::AdditiveBinomial { k }, 29, title)
    });
    uniform.into_iter().chain(binomial).collect()
}
