//! The [`PricingAlgorithm`] trait and the algorithm registry.
//!
//! The paper's experiments (§5, §7) run six pricing algorithms over the same
//! hypergraphs and compare revenue. The registry makes that roster a first-
//! class object: every algorithm is a config struct implementing
//! [`PricingAlgorithm`], [`all`] returns the full roster, and [`by_name`]
//! resolves an algorithm from its paper name — so harnesses, brokers, and
//! examples iterate or select algorithms without hardcoding six call sites.
//!
//! ```
//! use qp_pricing::{algorithms, Hypergraph};
//!
//! let mut h = Hypergraph::new(3);
//! h.add_edge(vec![0], 8.0);
//! h.add_edge(vec![1, 2], 5.0);
//!
//! for algo in algorithms::all() {
//!     let out = algo.run(&h);
//!     assert!(out.revenue <= 13.0 + 1e-6, "{} overshot", algo.name());
//! }
//! let lpip = algorithms::by_name("LPIP").expect("LPIP is registered");
//! assert!(lpip.run(&h).revenue >= 12.9);
//! ```

use crate::{Hypergraph, PricingOutcome};

use super::{
    capacity_item_price, layering, lp_item_price, refine_uniform_bundle_price,
    uniform_bundle_price, uniform_item_price, xos_pricing, CipConfig, IncrementalRepricer,
    LpipConfig, UbpIncremental, UipIncremental, XosIncremental,
};

/// A revenue-maximization algorithm producing an arbitrage-free pricing.
///
/// Implementors are the per-algorithm config structs ([`Ubp`], [`Uip`],
/// [`Lpip`], [`Cip`], [`Layering`], [`Xos`]); the free functions of
/// [`crate::algorithms`] remain available as the underlying implementations.
/// Trait objects are `Send + Sync` so a registry can be shared across the
/// threads of a broker.
pub trait PricingAlgorithm: Send + Sync {
    /// The algorithm's name as used in the paper's figures (e.g. `"LPIP"`).
    fn name(&self) -> &str;

    /// Runs the algorithm on `h` and returns the pricing it found together
    /// with the revenue that pricing earns on `h`.
    fn run(&self, h: &Hypergraph) -> PricingOutcome;

    /// The `RepriceIncremental` capability: algorithms whose optimum has a
    /// cheap update rule return a stateful [`IncrementalRepricer`] that
    /// patches the pricing in place as demand deltas land; the default
    /// (`None`) makes callers — e.g. [`super::Repricer`] — fall back to a
    /// full recompute transparently.
    fn reprice_incremental(&self) -> Option<Box<dyn IncrementalRepricer>> {
        None
    }
}

/// UBP — optimal uniform bundle pricing (§5.1).
#[derive(Debug, Clone, Copy, Default)]
pub struct Ubp;

impl PricingAlgorithm for Ubp {
    fn name(&self) -> &str {
        "UBP"
    }
    fn run(&self, h: &Hypergraph) -> PricingOutcome {
        uniform_bundle_price(h)
    }
    fn reprice_incremental(&self) -> Option<Box<dyn IncrementalRepricer>> {
        Some(Box::new(UbpIncremental::new()))
    }
}

/// UIP — uniform item pricing (Guruswami et al., §5.2).
#[derive(Debug, Clone, Copy, Default)]
pub struct Uip;

impl PricingAlgorithm for Uip {
    fn name(&self) -> &str {
        "UIP"
    }
    fn run(&self, h: &Hypergraph) -> PricingOutcome {
        uniform_item_price(h)
    }
    fn reprice_incremental(&self) -> Option<Box<dyn IncrementalRepricer>> {
        Some(Box::new(UipIncremental::new()))
    }
}

/// LPIP — LP-based non-uniform item pricing (§5.2).
#[derive(Debug, Clone, Default)]
pub struct Lpip {
    /// Tuning knobs forwarded to [`lp_item_price`].
    pub config: LpipConfig,
}

impl PricingAlgorithm for Lpip {
    fn name(&self) -> &str {
        "LPIP"
    }
    fn run(&self, h: &Hypergraph) -> PricingOutcome {
        lp_item_price(h, &self.config)
    }
}

/// CIP — capacity-constrained item pricing (Cheung–Swamy, §5.2).
#[derive(Debug, Clone, Default)]
pub struct Cip {
    /// Tuning knobs forwarded to [`capacity_item_price`].
    pub config: CipConfig,
}

impl PricingAlgorithm for Cip {
    fn name(&self) -> &str {
        "CIP"
    }
    fn run(&self, h: &Hypergraph) -> PricingOutcome {
        capacity_item_price(h, &self.config)
    }
}

/// Layering — Algorithm 1 of the paper, a `B`-approximation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layering;

impl PricingAlgorithm for Layering {
    fn name(&self) -> &str {
        "Layering"
    }
    fn run(&self, h: &Hypergraph) -> PricingOutcome {
        layering(h)
    }
}

/// XOS — the max of the LPIP and CIP price vectors (§5.2).
#[derive(Debug, Clone, Default)]
pub struct Xos {
    /// LPIP component configuration.
    pub lpip: LpipConfig,
    /// CIP component configuration.
    pub cip: CipConfig,
}

impl PricingAlgorithm for Xos {
    fn name(&self) -> &str {
        "XOS"
    }
    fn run(&self, h: &Hypergraph) -> PricingOutcome {
        xos_pricing(h, &self.lpip, &self.cip)
    }
    fn reprice_incremental(&self) -> Option<Box<dyn IncrementalRepricer>> {
        Some(Box::new(XosIncremental::new(
            self.lpip.clone(),
            self.cip.clone(),
        )))
    }
}

/// UBP refinement (§6.3) — not part of the paper's six-algorithm roster, but
/// registered under `"UBP-refined"` for [`by_name`] callers.
#[derive(Debug, Clone, Copy, Default)]
pub struct UbpRefined;

impl PricingAlgorithm for UbpRefined {
    fn name(&self) -> &str {
        "UBP-refined"
    }
    fn run(&self, h: &Hypergraph) -> PricingOutcome {
        refine_uniform_bundle_price(h)
    }
}

/// The paper names of the six-algorithm roster, in presentation order.
pub const PAPER_ALGORITHMS: [&str; 6] = ["UBP", "UIP", "LPIP", "CIP", "Layering", "XOS"];

/// The paper's six algorithms with default configurations.
pub fn all() -> Vec<Box<dyn PricingAlgorithm>> {
    all_with(&LpipConfig::default(), &CipConfig::default())
}

/// The paper's six algorithms with explicit LPIP / CIP tuning (the two
/// LP-based algorithms are the only configurable ones; XOS inherits both).
pub fn all_with(lpip: &LpipConfig, cip: &CipConfig) -> Vec<Box<dyn PricingAlgorithm>> {
    vec![
        Box::new(Ubp),
        Box::new(Uip),
        Box::new(Lpip {
            config: lpip.clone(),
        }),
        Box::new(Cip {
            config: cip.clone(),
        }),
        Box::new(Layering),
        Box::new(Xos {
            lpip: lpip.clone(),
            cip: cip.clone(),
        }),
    ]
}

/// Resolves an algorithm by name with default configuration.
///
/// Matching is case-insensitive and accepts the historical output label
/// `"XOS-LPIP+CIP"` as an alias for `"XOS"`. Returns `None` for unknown
/// names.
pub fn by_name(name: &str) -> Option<Box<dyn PricingAlgorithm>> {
    by_name_with(name, &LpipConfig::default(), &CipConfig::default())
}

/// Checks an algorithm name given on a command line: `Ok` with the name
/// unchanged when [`by_name`] resolves it, otherwise the reason to report.
pub fn check_name(name: &str) -> Result<String, &'static str> {
    let known = by_name(name).ok_or("no registered pricing algorithm has this name");
    known.map(|_| name.to_string())
}

/// Resolves an algorithm by name with explicit LPIP / CIP tuning.
///
/// Derived from the [`all_with`] roster (plus the off-roster
/// [`UbpRefined`]), so a registered algorithm is resolvable by construction.
pub fn by_name_with(
    name: &str,
    lpip: &LpipConfig,
    cip: &CipConfig,
) -> Option<Box<dyn PricingAlgorithm>> {
    let wanted = match name.to_ascii_lowercase().as_str() {
        // Historical output label of the XOS heuristic.
        "xos-lpip+cip" => "xos".to_string(),
        other => other.to_string(),
    };
    all_with(lpip, cip)
        .into_iter()
        .chain([Box::new(UbpRefined) as Box<dyn PricingAlgorithm>])
        .find(|a| a.name().eq_ignore_ascii_case(&wanted))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::test_support;
    use crate::revenue;

    #[test]
    fn all_exposes_the_six_paper_algorithms_in_order() {
        let names: Vec<String> = all().iter().map(|a| a.name().to_string()).collect();
        assert_eq!(names, PAPER_ALGORITHMS);
    }

    #[test]
    fn by_name_round_trips_every_registered_name() {
        for algo in all() {
            let resolved = by_name(algo.name())
                .unwrap_or_else(|| panic!("{} not resolvable by name", algo.name()));
            assert_eq!(resolved.name(), algo.name());
        }
        // The refinement is registered too, outside the six-name roster.
        assert_eq!(by_name("UBP-refined").unwrap().name(), "UBP-refined");
    }

    #[test]
    fn by_name_is_case_insensitive_and_knows_the_xos_alias() {
        assert_eq!(by_name("lpip").unwrap().name(), "LPIP");
        assert_eq!(by_name("LAYERING").unwrap().name(), "Layering");
        assert_eq!(by_name("XOS-LPIP+CIP").unwrap().name(), "XOS");
        assert!(by_name("no-such-algorithm").is_none());
    }

    #[test]
    fn registry_outcomes_match_the_free_functions() {
        let h = test_support::small();
        for algo in all() {
            let out = algo.run(&h);
            let recomputed = revenue::revenue(&h, &out.pricing);
            assert!(
                (recomputed - out.revenue).abs() < 1e-6,
                "{}: reported {} but pricing earns {}",
                algo.name(),
                out.revenue,
                recomputed
            );
        }
        let ubp = by_name("UBP").unwrap().run(&h);
        assert_eq!(ubp.revenue, uniform_bundle_price(&h).revenue);
    }

    #[test]
    fn configured_registry_respects_the_configs() {
        let h = test_support::star(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let tight = LpipConfig {
            max_lps: Some(2),
            ..Default::default()
        };
        let full = by_name("LPIP").unwrap().run(&h);
        let sampled = by_name_with("LPIP", &tight, &CipConfig::default())
            .unwrap()
            .run(&h);
        assert!(sampled.revenue <= full.revenue + 1e-6);
    }
}
