//! The paper's lower-bound claims (Lemmas 2–4), checked on the constructions
//! `qp-bench lower_bound_gaps` prints, at smaller sizes so the check stays
//! fast in a debug build.

use qp_bench::lower_bound_gaps::{gap, gaps};

#[test]
fn lower_bound_gaps_grow_and_opt_beats_the_succinct_classes() {
    let (lemma2, lemma3, lemma4) = gaps(&[16, 64, 256], &[8, 16, 32], &[2, 3, 4]);
    // Lemma 2: item pricing beats any uniform bundle price by Θ(log m), and
    // Lemma 3: uniform bundle pricing beats item pricing by Θ(log n).
    for (lemma, rows) in [(2, lemma2), (3, lemma3)] {
        let gaps: Vec<f64> = rows.iter().map(gap).collect();
        assert!(
            gaps.windows(2).all(|w| w[1] > w[0]),
            "Lemma {lemma} gaps {gaps:?}"
        );
    }
    // Lemma 4: the optimal subadditive pricing beats both succinct classes.
    for (t, opt, ubp, uip, lpip) in lemma4 {
        assert!(
            opt > ubp.max(uip).max(lpip),
            "t = {t}: {opt} vs {ubp}, {uip}, {lpip}"
        );
    }
}
