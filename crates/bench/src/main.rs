//! `qp-bench <artifact> [flags]`: regenerates one table or figure of the
//! paper, or writes one benchmark artifact.
//!
//! ```bash
//! cargo run --release -p qp-bench -- table4_runtimes --scale quick
//! cargo run --release -p qp-bench -- bench_kernels --smoke
//! ```

use qp_bench::figures::*;
use qp_bench::tables::*;
use qp_bench::{bench_conflict, bench_delta, bench_kernels, lower_bound_gaps, sim_scenarios};
use qp_bench::{scale_arg, SCALE_FLAGS};
use qp_core::cli::{self, Args, CliError, Spec};

/// One subcommand: its usage, and what it runs once every flag parsed.
type Artifact = (Spec, fn(&Args) -> Result<(), CliError>);

/// A paper artifact: a function of `--scale`, named after the function.
macro_rules! scaled {
    ($f:ident, $about:literal) => {
        (spec!($f, $about, SCALE_FLAGS), |args| {
            $f(scale_arg(args)?);
            Ok(())
        })
    };
}

/// A benchmark artifact: a module with `FLAGS` and `run`.
macro_rules! module {
    ($m:ident, $about:literal) => {
        (spec!($m, $about, $m::FLAGS), $m::run)
    };
}

macro_rules! spec {
    ($name:ident, $about:literal, $flags:expr) => {
        Spec {
            name: concat!("qp-bench ", stringify!($name)),
            about: $about,
            flags: $flags,
        }
    };
}

#[rustfmt::skip]
const ARTIFACTS: &[Artifact] = &[
    scaled!(table3_hypergraph_stats, "Table 3: hypergraph characteristics of the four workloads"),
    scaled!(table4_runtimes, "Table 4: per-algorithm running times (registry roster)"),
    scaled!(table5_runtime_vs_support, "Table 5: runtime vs support size, skewed workload"),
    scaled!(table6_runtime_vs_support, "Table 6: runtime vs support size, SSB workload"),
    scaled!(fig4_edge_size_distribution, "Figure 4: hyperedge size distribution"),
    scaled!(fig5a_sampled_valuations, "Figure 5a: sampled valuations, skewed + uniform"),
    scaled!(fig5b_scaled_valuations, "Figure 5b: scaled valuations, skewed + uniform"),
    scaled!(fig6a_sampled_valuations_ssb_tpch, "Figure 6a: sampled valuations, SSB + TPC-H"),
    scaled!(fig6b_scaled_valuations_ssb_tpch, "Figure 6b: scaled valuations, SSB + TPC-H"),
    scaled!(fig7a_item_price_model, "Figure 7a: additive item-price model, skewed + uniform"),
    scaled!(fig7b_item_price_model_ssb_tpch, "Figure 7b: additive item-price model, SSB + TPC-H"),
    scaled!(fig8_support_size_revenue, "Figure 8: revenue vs support size"),
    module!(lower_bound_gaps, "Figure 3 / Lemmas 2-4: worst-case gaps between pricing classes"),
    scaled!(ubp_refinement, "Section 6.3: the UBP -> item-pricing LP refinement"),
    scaled!(ablation_conflict_eval, "Naive vs delta-aware conflict-set engines"),
    module!(bench_conflict, "Serial vs parallel conflict engines -> BENCH_conflict.json"),
    module!(bench_delta, "Incremental vs full repricing latency -> BENCH_delta.json"),
    module!(bench_kernels, "Kernels vs references; tracing + WAL cost -> BENCH_kernels.json"),
    module!(sim_scenarios, "The qp-sim scenario library over >= 2 workloads -> BENCH_sim.json"),
];

/// The top-level usage: one line per artifact.
fn usage() -> String {
    let mut out = String::from("usage: qp-bench <artifact> [flags]\n\n");
    for (spec, _) in ARTIFACTS {
        let name = spec.name.trim_start_matches("qp-bench ");
        out.push_str(&format!("  {name:<34} {}\n", spec.about));
    }
    out + "\n`qp-bench <artifact> --help` lists an artifact's flags.\n"
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, flags) = match args.split_first() {
        None => cli::exit(&CliError::MissingCommand, &usage()),
        Some((c, _)) if c == "--help" || c == "-h" => cli::exit(&CliError::Help, &usage()),
        Some(split) => split,
    };
    let name = format!("qp-bench {command}");
    let Some((spec, run)) = ARTIFACTS.iter().find(|(spec, _)| spec.name == name) else {
        cli::exit(&CliError::Unknown(command.clone()), &usage());
    };
    if let Err(e) = spec.parse(flags).and_then(|args| run(&args)) {
        cli::exit(&e, &spec.usage());
    }
}
