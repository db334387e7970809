//! `qp-top` — a dependency-free live terminal dashboard for a running
//! quote server, plus a post-mortem viewer for crash flight dumps.
//!
//! Live mode polls the server's `METRICS` and `STATS` frames on an
//! interval, feeds each cumulative snapshot into a rolling window, and
//! redraws rates/quantiles **over the last window** (so a quiet server
//! shows zeros, not its lifetime averages):
//!
//! ```text
//! qp_top --addr 127.0.0.1:7171 --interval-ms 1000 --frames 0
//! ```
//!
//! `--frames N` stops after N redraws (0 = run until the server goes
//! away); CI smokes use `--frames 2 --no-clear` to capture a parseable
//! frame. Post-mortem mode never touches the network:
//!
//! ```text
//! qp_top --postmortem path/to/data-dir
//! ```

use std::net::SocketAddr;
use std::time::Duration;

use qp_core::cli::{self, CliError, Spec};
use qp_server::client::QuoteClient;
use qp_server::top::{render_dashboard, render_postmortem};
use qp_telemetry::{FlightDump, RollingWindows};

#[rustfmt::skip]
const SPEC: Spec = Spec {
    name: "qp_top",
    about: "Live dashboard for a quote server, or a post-mortem of its flight dump.",
    flags: &[
        ("--addr HOST:PORT", "server address (default 127.0.0.1:7171)"),
        ("--interval-ms N", "redraw interval (default 1000)"),
        ("--frames N", "stop after N redraws (default 0: until the server goes away)"),
        ("--no-clear", "append frames instead of clearing the screen"),
        ("--postmortem DATA_DIR", "render DATA_DIR's flight dump and exit"),
    ],
};

struct Options {
    addr: SocketAddr,
    interval: Duration,
    frames: u64,
    no_clear: bool,
    postmortem: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Options, CliError> {
    let args = SPEC.parse(args)?;
    Ok(Options {
        addr: args
            .value("--addr")?
            .unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 7171))),
        interval: Duration::from_millis(args.value("--interval-ms")?.unwrap_or(1000)),
        frames: args.value("--frames")?.unwrap_or(0),
        no_clear: args.switch("--no-clear"),
        postmortem: args.raw("--postmortem").map(str::to_string),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args).unwrap_or_else(|e| cli::exit(&e, &SPEC.usage()));

    if let Some(dir) = &opts.postmortem {
        match FlightDump::read_from(dir.as_ref()) {
            Ok(Some(dump)) => print!("{}", render_postmortem(&dump)),
            Ok(None) => {
                eprintln!("no flight dump in {dir}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("reading flight dump in {dir}: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let mut client = match QuoteClient::connect(opts.addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("qp-top: connect {}: {e}", opts.addr);
            std::process::exit(1);
        }
    };
    // Keep ~10 s of windows around; `merged()` would give p99-over-last-10s
    // if a future flag wants a longer horizon than one interval.
    let window_count = (Duration::from_secs(10).as_millis() / opts.interval.as_millis().max(1))
        .clamp(1, 60) as usize;
    let mut windows = RollingWindows::new(window_count);

    let mut drawn = 0u64;
    loop {
        let (snapshot, stats) = match (client.metrics(), client.stats()) {
            (Ok(m), Ok(s)) => (m, s),
            _ => {
                eprintln!("qp-top: server went away");
                std::process::exit(1);
            }
        };
        let window = windows.observe(snapshot).clone();
        let body = render_dashboard(&window, &stats, opts.interval.as_secs_f64());
        if opts.no_clear {
            print!("{body}");
        } else {
            // ANSI clear + home; no TTY library needed.
            print!("\x1b[2J\x1b[H{body}");
        }
        use std::io::Write;
        let _ = std::io::stdout().flush();
        drawn += 1;
        if opts.frames != 0 && drawn >= opts.frames {
            return;
        }
        std::thread::sleep(opts.interval);
    }
}
