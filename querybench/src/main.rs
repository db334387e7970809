//! `querybench` — the query-level benchmark of the pricing pipeline.
//!
//! One run builds a market through the crates' public APIs, drives a
//! seeded closed-loop workload for `--seconds`, checks the outputs, and
//! prints every metric by name with its unit. The last line of standard
//! output is the result object; the line before it records the
//! environment. `--trace 0` prints the end-to-end metrics, measured with
//! no timers inside a request; `--trace 1` adds a second, traced loop
//! timed around each layer call and prints the per-layer metrics. See
//! `README.md` next to this file for the workloads and the metric map.
//!
//! ```text
//! cargo run --release --manifest-path querybench/Cargo.toml -- \
//!     --workload quote-skewed --seed 1 --seconds 10 --trace 0
//! ```

mod inputs;
mod quote;
mod serve;
mod stats;

use std::fmt::Write as _;
use std::process::ExitCode;

use stats::Values;

const USAGE: &str = "usage: querybench --workload <quote-skewed|serve-uniform> \
[--seed <u64>] [--seconds <1..=600>] [--trace <0|1>]
       querybench --help";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process broker, Zipf(1) requests over the skewed workload.
    QuoteSkewed,
    /// Loopback server with a WAL, precomputed uniform bundles.
    ServeUniform,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::QuoteSkewed, Workload::ServeUniform];

    fn name(self) -> &'static str {
        match self {
            Workload::QuoteSkewed => "quote-skewed",
            Workload::ServeUniform => "serve-uniform",
        }
    }
}

/// Parsed command line of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

#[derive(Debug, PartialEq)]
enum Command {
    Help,
    Run(Args),
}

/// Strict parser: an unknown or repeated flag, a missing or unparsable
/// value, or an unknown workload is an error.
fn parse_args(args: &[String]) -> Result<Command, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(Command::Help);
        }
        let slot: &mut Option<String> = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            other => return Err(format!("unknown argument {other:?}")),
        };
        if slot.is_some() {
            return Err(format!("{flag} given twice"));
        }
        *slot = Some(
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .clone(),
        );
    }
    let workload = workload.ok_or("--workload is required")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == workload)
        .ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = match seed {
        Some(s) => s
            .parse()
            .map_err(|_| format!("--seed {s:?} is not a u64"))?,
        None => 1,
    };
    let seconds = match seconds {
        Some(s) => match s.parse() {
            Ok(n @ 1..=600) => n,
            _ => return Err(format!("--seconds {s:?} is not a whole number in 1..=600")),
        },
        None => 10,
    };
    let trace = match trace.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other:?} is not 0 or 1")),
    };
    Ok(Command::Run(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("quote_p50_ms", "ms"),
    ("quote_p90_ms", "ms"),
    ("request_p50_ms", "ms"),
    ("request_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. A layer a
/// workload does not exercise reports 0 (e.g. `conflict.*` on
/// `serve-uniform`, `wire.*` on the in-process workloads).
pub const PER_LAYER: [(&str, &str); 42] = [
    ("setup.generate_s", "s"),
    ("setup.support_s", "s"),
    ("setup.hypergraph_s", "s"),
    ("setup.algorithm_s", "s"),
    ("setup.server_s", "s"),
    ("conflict.calls", "count"),
    ("conflict.p50_ms", "ms"),
    ("conflict.p99_ms", "ms"),
    ("conflict.share", "share"),
    ("conflict.items_mean", "count"),
    ("conflict.fallback.calls", "count"),
    ("conflict.fallback.p50_ms", "ms"),
    ("conflict.fallback.p99_ms", "ms"),
    ("conflict.delta.calls", "count"),
    ("conflict.delta.p50_ms", "ms"),
    ("conflict.delta.p99_ms", "ms"),
    ("conflict.distinct_share", "share"),
    ("conflict.oracle_checked", "count"),
    ("conflict.oracle_mismatches", "count"),
    ("price.p50_us", "us"),
    ("price.p99_us", "us"),
    ("eval.p50_ms", "ms"),
    ("eval.p99_ms", "ms"),
    ("settle.p50_ms", "ms"),
    ("settle.p99_ms", "ms"),
    ("settle.sold_share", "share"),
    ("codec.quote_bytes", "bytes"),
    ("codec.encode_p50_ns", "ns"),
    ("codec.decode_p50_ns", "ns"),
    ("wire.quote_rtt_p50_us", "us"),
    ("wire.quote_rtt_p99_us", "us"),
    ("wire.purchase_rtt_p50_us", "us"),
    ("wire.purchase_rtt_p99_us", "us"),
    ("wire.reprice_rtt_p50_ms", "ms"),
    ("shard.quote_p50_us", "us"),
    ("shard.settle_p50_us", "us"),
    ("shard.cache_hit_share", "share"),
    ("wal.bytes_per_request", "bytes"),
    ("wal.fsyncs", "count"),
    ("wal.snapshots", "count"),
    ("request.p99_ms", "ms"),
    ("trace.overhead_share", "share"),
];

/// What a workload run hands back for printing.
#[derive(Default)]
pub struct Report {
    /// Requests attempted and requests that did not complete `ok`, over
    /// every measured loop of the run.
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed, one line each.
    pub failures: Vec<String>,
    pub end_to_end: Values,
    pub layers: Values,
    /// Extra environment facts (fsync policy, affinity) and sample counts.
    pub notes: Vec<(&'static str, String)>,
}

/// Renders one metric list as a JSON object; errors on a value the run
/// did not declare, or on a non-finite value.
fn metrics_json(declared: &[(&str, &str)], values: &Values) -> Result<String, String> {
    if let Some(extra) = values
        .keys()
        .find(|k| !declared.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric {extra} is not declared"));
    }
    let mut out = String::from("{");
    for (i, (name, unit)) in declared.iter().enumerate() {
        let value = values.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    out.push('}');
    Ok(out)
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The commit of the checkout, read from `.git` without running git;
/// `unknown` outside a repository.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| head.clone()),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

/// Set-up repetitions per run; `setup_s` and the `setup.*` metrics are
/// their medians.
pub const SETUP_REPS: usize = 5;

/// CPU affinity. Set-up runs on every CPU the process started with, so
/// the parallel conflict build uses all of them; the timed loops run
/// confined to one CPU, because on a shared two-vCPU machine unpinned
/// loops spread two to three times wider from one process to the next
/// (see `README.md`). Affinity is per thread and inherited by threads
/// spawned afterwards, so a workload pins before it starts any thread
/// its loops talk to.
pub mod affinity {
    use std::sync::OnceLock;

    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// CPUs the calling thread may run on.
    pub fn current() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: the kernel writes at most `size_of_val(&mask)` bytes into
        // `mask`, which outlives the call; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    fn set(cpus: &[usize]) -> bool {
        let mut mask = [0u64; WORDS];
        for &c in cpus.iter().filter(|&&c| c < WORDS * 64) {
            mask[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: the kernel reads `size_of_val(&mask)` bytes of `mask`,
        // which outlives the call; pid 0 names the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
        rc == 0
    }

    /// CPUs the process could run on when it started; the first call
    /// records them, so `main` makes it before anything pins.
    pub fn initial() -> &'static [usize] {
        static INITIAL: OnceLock<Vec<usize>> = OnceLock::new();
        INITIAL.get_or_init(current)
    }

    /// Confines the calling thread, and every thread it spawns afterwards,
    /// to the first initial CPU.
    pub fn pin() {
        if let Some(&cpu) = initial().first() {
            set(&[cpu]);
        }
    }

    /// Lets the calling thread, and every thread it spawns afterwards, run
    /// on every initial CPU again.
    pub fn unpin() {
        if !initial().is_empty() {
            set(initial());
        }
    }
}

fn run(args: &Args) -> Result<Report, String> {
    match args.workload {
        Workload::QuoteSkewed => quote::run(&quote::Spec::standard(), args),
        Workload::ServeUniform => serve::run(&serve::Spec::standard(), args),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Command::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Ok(Command::Run(args)) => args,
        Err(msg) => {
            eprintln!("querybench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpus = affinity::initial();
    let report = match run(&args) {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("querybench: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let (declared, values): (&[(&str, &str)], _) = if args.trace {
        (&PER_LAYER, &report.layers)
    } else {
        (&END_TO_END, &report.end_to_end)
    };
    let metrics = match metrics_json(declared, values) {
        Ok(m) => m,
        Err(msg) => {
            eprintln!("querybench: {msg}");
            return ExitCode::FAILURE;
        }
    };
    for failure in &report.failures {
        eprintln!("querybench: check failed: {failure}");
    }

    let mut env = format!(
        "{{\"env\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"cores\": {cores}, \"cpu_affinity\": {}, \"profile\": {}, \"git_rev\": {}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&format!("{cpus:?}")),
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        json_str(&git_rev()),
    );
    for (key, value) in &report.notes {
        write!(env, ", \"{key}\": {}", json_str(value)).expect("writing to a String cannot fail");
    }
    env.push_str("}}");
    println!("{env}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        report.failures.is_empty(),
        report.attempted,
        report.failed,
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn cli_is_strict() {
        assert_eq!(
            parse(&[
                "--workload",
                "serve-uniform",
                "--seed",
                "9",
                "--seconds",
                "3",
                "--trace",
                "1"
            ]),
            Ok(Command::Run(Args {
                workload: Workload::ServeUniform,
                seed: 9,
                seconds: 3,
                trace: true
            }))
        );
        assert_eq!(
            parse(&["--workload", "quote-skewed", "--help"]),
            Ok(Command::Help)
        );
        for bad in [
            &["--workload", "tpch"][..],
            &["--workload", "quote-uniform"],
            &["--workload", "quote-skewed", "--sed", "1"],
            &["--workload", "quote-skewed", "--seed", "x"],
            &["--workload", "quote-skewed", "--seconds", "0"],
            &["--workload", "quote-skewed", "--trace", "2"],
            &["--workload", "quote-skewed", "--seed"],
            &["--workload", "quote-skewed", "--seed", "1", "--seed", "2"],
            &["--seed", "1"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} was accepted");
        }
    }

    /// The metric lists printed here are exactly the ones `BENCHMARK.json`
    /// declares, and every name is `[A-Za-z0-9_.-]+`.
    #[test]
    fn metric_names_match_the_declaration() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to querybench/");
        let names_in = |section: &str| -> Vec<String> {
            let start = json
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section is a list")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').unwrap()].to_string())
                .collect()
        };
        for (section, declared) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let ours: Vec<String> = declared.iter().map(|(n, _)| n.to_string()).collect();
            assert_eq!(names_in(section), ours, "{section}");
            for (name, unit) in declared {
                assert!(
                    name.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "{name}"
                );
                assert!(json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")));
            }
        }
        for name in names_in("workloads") {
            assert!(Workload::ALL.iter().any(|w| w.name() == name), "{name}");
        }
    }

    #[test]
    fn undeclared_or_non_finite_metrics_are_refused() {
        let mut values = Values::new();
        values.insert("setup_s", 1.5);
        assert!(metrics_json(&END_TO_END, &values)
            .unwrap()
            .contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        values.insert("conflict.calls", 3.0);
        assert!(metrics_json(&END_TO_END, &values).is_err());
        let mut nan = Values::new();
        nan.insert("setup_s", f64::NAN);
        assert!(metrics_json(&END_TO_END, &nan).is_err());
    }
}
