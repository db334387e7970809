//! Figure 3 / Lemmas 1–4: the revenue gaps between pricing-function classes
//! on the paper's worst-case constructions.
//!
//! * Lemma 2 (harmonic singletons): item pricing wins by Θ(log m) over any
//!   uniform bundle price.
//! * Lemma 3 (partition classes): uniform bundle pricing wins by Θ(log n)
//!   over item pricing.
//! * Lemma 4 (laminar family): both succinct classes lose Ω(log m) against
//!   the optimal subadditive pricing.

use qp_core::cli::{Args, CliError, Flag};
use qp_pricing::algorithms::{self, CipConfig, LpipConfig};
use qp_pricing::{bounds, instances};

/// `qp-bench lower_bound_gaps` takes no flags.
pub const FLAGS: &[Flag] = &[];

/// Runs the paper's sizes: m = 64, 256, 1024; n = 32, 64, 128; t = 2, 3, 4.
pub fn run(_: &Args) -> Result<(), CliError> {
    gaps(&[64, 256, 1024], &[32, 64, 128], &[2, 3, 4]);
    Ok(())
}

/// A Lemma 2 or 3 row: `(size, sum of valuations, winner, loser)`, where
/// the winner is LPIP item pricing (Lemma 2) or UBP (Lemma 3) and the loser
/// UBP (Lemma 2) or UIP (Lemma 3); the gap is `winner / loser`.
pub type GapRow = (usize, f64, f64, f64);

/// A Lemma 4 row: `(t, OPT, UBP, UIP, LPIP)` revenues.
pub type LaminarRow = (u32, f64, f64, f64, f64);

/// `winner / loser` of a Lemma 2 or 3 row.
pub fn gap(&(_, _, winner, loser): &GapRow) -> f64 {
    winner / loser.max(1e-9)
}

/// Runs Lemma 2 at each `m`, Lemma 3 at each `n` and Lemma 4 at each tree
/// depth `t`, printing every row as it is computed, and returns the rows.
pub fn gaps(ms: &[usize], ns: &[usize], ts: &[u32]) -> (Vec<GapRow>, Vec<GapRow>, Vec<LaminarRow>) {
    println!("Lower-bound constructions (Lemmas 2-4, Figure 3)\n");

    let ubp = algorithms::by_name("UBP").expect("UBP is registered");
    let uip = algorithms::by_name("UIP").expect("UIP is registered");
    let lpip = algorithms::by_name("LPIP").expect("LPIP is registered");

    let mut lemma2 = Vec::new();
    for &m in ms {
        let h = instances::harmonic_singletons(m);
        let row = (
            m,
            bounds::sum_of_valuations(&h),
            lpip.run(&h).revenue,
            ubp.run(&h).revenue,
        );
        println!(
            "Lemma 2, m = {m:>5}: sum = {:.2}  item pricing = {:.2}  best uniform bundle = {:.2}  (gap {:.2}x)",
            row.1, row.2, row.3, gap(&row)
        );
        lemma2.push(row);
    }
    println!();

    let mut lemma3 = Vec::new();
    for &n in ns {
        let h = instances::partition_classes(n);
        let row = (
            n,
            bounds::sum_of_valuations(&h),
            ubp.run(&h).revenue,
            uip.run(&h).revenue,
        );
        println!(
            "Lemma 3, n = {n:>4}: sum = {:.0}  uniform bundle = {:.0}  uniform item pricing = {:.2}  (gap {:.2}x)",
            row.1, row.2, row.3, gap(&row)
        );
        lemma3.push(row);
    }
    println!();

    // The capped-LP LPIP keeps the sweep fast on the larger laminar
    // instances.
    let capped_lpip = algorithms::by_name_with(
        "LPIP",
        &LpipConfig {
            max_lps: Some(8),
            max_lp_iterations: 200_000,
        },
        &CipConfig::default(),
    )
    .expect("LPIP is registered");
    let mut lemma4 = Vec::new();
    for &t in ts {
        let h = instances::laminar_family(t);
        let (opt, bundle) = (instances::laminar_optimal_revenue(t), ubp.run(&h).revenue);
        let (item, lp) = (uip.run(&h).revenue, capped_lpip.run(&h).revenue);
        println!(
            "Lemma 4, t = {t}: OPT = {opt:.0}  uniform bundle = {bundle:.1}  uniform item = {item:.1}  LPIP = {lp:.1}"
        );
        lemma4.push((t, opt, bundle, item, lp));
    }
    (lemma2, lemma3, lemma4)
}
