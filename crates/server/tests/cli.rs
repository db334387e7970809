//! The server binaries exit 2 with usage on a bad command line and 0 on
//! `--help`, and in both cases build, bind and write nothing.

use std::process::Command;

#[test]
fn bad_command_lines_exit_2_and_help_exits_0_without_side_effects() {
    let loadgen = env!("CARGO_BIN_EXE_loadgen");
    let (serve, top) = (env!("CARGO_BIN_EXE_serve"), env!("CARGO_BIN_EXE_qp_top"));
    for (i, (bin, args, code)) in [
        (loadgen, &["--help"][..], 0),
        (loadgen, &["--help", "--shard", "7", "--smoke"], 0),
        (loadgen, &["--shard", "7"], 2),
        (loadgen, &["--shards", "1,x"], 2),
        (loadgen, &["--shards", "0"], 2),
        (loadgen, &["--smoke", "--out"], 2),
        (loadgen, &["--seed", "1", "--seed", "2"], 2),
        (loadgen, &["--kill-after", "20,"], 2),
        (serve, &["--shards", "0"], 2),
        (serve, &["--fsync", "sometimes"], 2),
        (serve, &["--algorithm", "NOPE"], 2),
        (top, &["--frames", "x"], 2),
        (top, &["--addr", "localhost"], 2),
    ]
    .into_iter()
    .enumerate()
    {
        // A fresh empty working directory: an artifact would land here.
        let dir = std::env::temp_dir().join(format!("qp-cli-{}-{i}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = Command::new(bin)
            .args(args)
            .current_dir(&dir)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(code), "{bin} {args:?}");
        let usage = if code == 0 { &out.stdout } else { &out.stderr };
        assert!(
            String::from_utf8_lossy(usage).contains("usage: "),
            "{bin} {args:?}"
        );
        if code != 0 {
            assert!(out.stdout.is_empty(), "{bin} {args:?} started running");
        }
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "{bin} {args:?} wrote"
        );
        std::fs::remove_dir(&dir).unwrap();
    }
}
