//! A bad `qp-bench` command line exits 2 with usage before anything runs
//! (every artifact prints its header before building an instance), and
//! `--help` exits 0.

use std::process::Command;

#[test]
fn bad_command_lines_exit_2_before_running_and_help_exits_0() {
    for (args, code) in [
        (&["table3_hypergraph_stats", "--scale", "quik"][..], 2),
        (&["table3_hypergraph_stat"], 2),
        (&[], 2),
        (&["bench_conflict", "--sizes", "100,x"], 2),
        (&["bench_delta", "--reps"], 2),
        (&["bench_kernels", "--smoke", "--smoke"], 2),
        (&["sim_scenarios", "--workloads", "skewed,nope"], 2),
        (&["sim_scenarios", "--algorithm", "NOPE"], 2),
        (&["lower_bound_gaps", "--scale", "test"], 2),
        (&["--help"], 0),
        (&["sim_scenarios", "--help", "--smoke"], 0),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_qp-bench"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(code), "{args:?}");
        let (usage, other) = match code {
            0 => (out.stdout, out.stderr),
            _ => (out.stderr, out.stdout),
        };
        let usage = String::from_utf8_lossy(&usage);
        assert!(usage.contains("usage: qp-bench"), "{args:?}: {usage}");
        assert!(other.is_empty(), "{args:?} ran");
    }
}
