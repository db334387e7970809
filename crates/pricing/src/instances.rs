//! Worst-case instances from the paper's lower bounds (Lemmas 2–4, Appendix A).
//!
//! These constructions witness the Ω(log m) separations summarized in
//! Figure 3: instances where uniform bundle pricing, item pricing, or both
//! lose a logarithmic factor against the optimal monotone subadditive
//! pricing. They are used by the test suite and by `qp-bench
//! lower_bound_gaps` (whose claims `crates/bench/tests/paper_claims.rs`
//! checks) to verify that the implemented algorithms actually exhibit the
//! predicted gaps.

use crate::Hypergraph;

/// Lemma 2: `m` buyers, buyer `i` (1-indexed) wants its own item at valuation
/// `1/i`. Item pricing extracts the full harmonic sum `H_m = Θ(log m)`, while
/// any uniform bundle price earns `O(1)`.
pub fn harmonic_singletons(m: usize) -> Hypergraph {
    let mut h = Hypergraph::new(m);
    for i in 0..m {
        h.add_edge(vec![i], 1.0 / (i + 1) as f64);
    }
    h
}

/// Lemma 3: customer classes `C_i`, `i = 1..=n`, over a shared ground set of
/// `n` items. Class `C_i` has `⌈n/i⌉` customers, each assigned a block of `i`
/// items so that no two customers in the class share an item. All valuations
/// are 1. A uniform bundle price of 1 extracts everything (`Θ(n log n)`),
/// while any item pricing earns only `O(n)`.
pub fn partition_classes(n: usize) -> Hypergraph {
    let mut h = Hypergraph::new(n);
    for class in 1..=n {
        let mut start = 0usize;
        while start < n {
            let end = (start + class).min(n);
            h.add_edge(start..end, 1.0);
            start = end;
        }
    }
    h
}

/// Lemma 4: the laminar binary-tree family over `n = 2^t` items. Depth `ℓ`
/// holds `2^ℓ` sets of size `n / 2^ℓ`, each with valuation `(3/4)^ℓ` and
/// `⌈(2/3)^ℓ · 3^t⌉` copies. The optimal subadditive (indeed submodular)
/// pricing extracts `(t+1)·3^t`, while both uniform bundle pricing and item
/// pricing are stuck at `O(3^t)`.
pub fn laminar_family(t: u32) -> Hypergraph {
    let n = 1usize << t;
    let mut h = Hypergraph::new(n);
    let copies_base = 3f64.powi(t as i32);
    for depth in 0..=t {
        let sets_at_depth = 1usize << depth;
        let set_size = n >> depth;
        let valuation = 0.75f64.powi(depth as i32);
        let copies = ((2f64 / 3f64).powi(depth as i32) * copies_base).ceil() as usize;
        for s in 0..sets_at_depth {
            let start = s * set_size;
            for _ in 0..copies {
                h.add_edge(start..start + set_size, valuation);
            }
        }
    }
    h
}

/// The optimal revenue of the laminar family (pricing every bundle at its
/// value): `(t+1) · 3^t` up to the rounding of copy counts.
pub fn laminar_optimal_revenue(t: u32) -> f64 {
    let mut total = 0.0;
    let copies_base = 3f64.powi(t as i32);
    for depth in 0..=t {
        let sets_at_depth = (1usize << depth) as f64;
        let valuation = 0.75f64.powi(depth as i32);
        let copies = ((2f64 / 3f64).powi(depth as i32) * copies_base).ceil();
        total += sets_at_depth * copies * valuation;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{
        layering, lp_item_price, uniform_bundle_price, uniform_item_price, LpipConfig,
    };

    #[test]
    fn harmonic_instance_separates_ubp_from_item_pricing() {
        let m = 128;
        let h = harmonic_singletons(m);
        let sum = h.total_valuation(); // H_128 ≈ 5.43
        assert!(sum > 4.8);

        let ubp = uniform_bundle_price(&h);
        assert!(ubp.revenue <= 1.0 + 1e-9, "UBP is O(1) on Lemma 2");

        // Item pricing (already found by LPIP or even the layering algorithm)
        // extracts the full harmonic sum.
        let lpip = lp_item_price(&h, &LpipConfig::default());
        assert!((lpip.revenue - sum).abs() < 1e-6);
        let lay = layering(&h);
        assert!((lay.revenue - sum).abs() < 1e-6);
    }

    #[test]
    fn partition_classes_separates_item_pricing_from_ubp() {
        let n = 32;
        let h = partition_classes(n);
        // m = Σ_i ceil(n/i) ≈ n ln n edges, all with valuation 1.
        let m = h.num_edges();
        assert!(m > n * 3);
        let sum = h.total_valuation();
        assert_eq!(sum, m as f64);

        // Uniform bundle price 1 extracts everything.
        let ubp = uniform_bundle_price(&h);
        assert!((ubp.revenue - sum).abs() < 1e-9);

        // Any item pricing is O(n): check that the best uniform item pricing
        // (a representative item pricing) is at most a constant multiple of n.
        let uip = uniform_item_price(&h);
        assert!(
            uip.revenue <= 4.0 * n as f64,
            "UIP revenue {} should be O(n) = O({})",
            uip.revenue,
            n
        );
        assert!(
            uip.revenue < 0.7 * sum,
            "item pricing must lose a log factor"
        );
    }

    #[test]
    fn laminar_family_hurts_both_classes() {
        let t = 3; // 8 items
        let h = laminar_family(t);
        let opt = laminar_optimal_revenue(t);
        assert!(h.total_valuation() >= opt - 1e-9);

        let ubp = uniform_bundle_price(&h);
        let uip = uniform_item_price(&h);
        let lpip = lp_item_price(&h, &LpipConfig::default());

        // Both succinct classes lose a constant fraction at t=3 already; the
        // asymptotic statement is Ω(t). With t=3, OPT = 4·27 = 108 while
        // bundle/item pricing stay near 3^t·Θ(1).
        assert!(
            ubp.revenue < 0.8 * opt,
            "UBP {} vs OPT {}",
            ubp.revenue,
            opt
        );
        assert!(
            uip.revenue < 0.8 * opt,
            "UIP {} vs OPT {}",
            uip.revenue,
            opt
        );
        assert!(
            lpip.revenue < 0.95 * opt,
            "LPIP {} vs OPT {}",
            lpip.revenue,
            opt
        );
    }

    #[test]
    fn construction_sizes_match_the_paper() {
        let h = laminar_family(2); // n = 4 items
                                   // Depth 0: 1 set × 9 copies; depth 1: 2 × 6; depth 2: 4 × 4 = 16.
        assert_eq!(h.num_items(), 4);
        assert_eq!(h.num_edges(), 9 + 12 + 16);

        let h = harmonic_singletons(10);
        assert_eq!(h.num_edges(), 10);
        assert_eq!(h.num_items(), 10);

        let h = partition_classes(6);
        // classes: 6 + 3 + 2 + 2 + 2 + 1 = 16 edges
        assert_eq!(h.num_edges(), 16);
    }
}
