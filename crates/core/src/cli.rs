//! Strict command-line parsing for every workspace binary that takes flags
//! (`qp-bench`, `serve`, `loadgen`, `qp_top`).
//!
//! [`Spec::parse`] is a pure function from the arguments to [`Args`] or a
//! [`CliError`], and the typed getters on [`Args`] return `Result`s too. An
//! unknown flag, a missing value, a value or list element that does not
//! parse, an empty list and a repeated flag are all errors: nothing falls
//! back to a default. Callers read every flag before doing any work, then
//! [`exit`] turns an error into usage on stderr and exit code 2 (`--help`:
//! usage on stdout, exit 0), so a rejected command line has no side effect.

use std::fmt;
use std::str::FromStr;

/// One accepted flag as `(usage, help)`: the usage is `--name` for a switch
/// or `--name PLACEHOLDER` for a flag that takes a value.
pub type Flag = (&'static str, &'static str);

/// A command: its name, what it does, and every flag it accepts.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Command name as shown in usage text.
    pub name: &'static str,
    /// One line on what the command does.
    pub about: &'static str,
    /// Every accepted flag; anything else is rejected.
    pub flags: &'static [Flag],
}

/// Why a command line was rejected, or [`CliError::Help`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help` or `-h`: print usage and run nothing.
    Help,
    /// A binary that needs a subcommand got none.
    MissingCommand,
    /// An argument that is not one of the accepted flags.
    Unknown(String),
    /// A value flag at the end of the line or followed by another flag.
    MissingValue(&'static str),
    /// A flag given twice.
    Repeated(&'static str),
    /// A value or list element that does not parse (or a value given to a
    /// switch): the flag, the value, and why.
    BadValue(&'static str, String, String),
    /// A list flag with no elements.
    EmptyList(&'static str),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Help => write!(f, "help requested"),
            CliError::MissingCommand => write!(f, "no command given"),
            CliError::Unknown(arg) => write!(f, "unknown argument `{arg}`"),
            CliError::MissingValue(flag) => write!(f, "`{flag}` needs a value"),
            CliError::Repeated(flag) => write!(f, "`{flag}` given more than once"),
            CliError::BadValue(flag, value, why) => write!(f, "`{flag} {value}`: {why}"),
            CliError::EmptyList(flag) => write!(f, "`{flag}` needs at least one element"),
        }
    }
}

impl Spec {
    /// The usage line, the description, and one line per flag.
    pub fn usage(&self) -> String {
        let brackets: Vec<String> = self.flags.iter().map(|f| format!(" [{}]", f.0)).collect();
        let mut out = format!(
            "usage: {}{}\n\n{}\n\n",
            self.name,
            brackets.concat(),
            self.about
        );
        let width = self.flags.iter().map(|f| f.0.len()).max().unwrap_or(0);
        for (usage, help) in self.flags {
            out.push_str(&format!("  {usage:<width$}  {help}\n"));
        }
        out
    }

    /// Parses `args` (without the program or command name).
    pub fn parse(&self, args: &[String]) -> Result<Args, CliError> {
        let mut given: Vec<(&'static str, Option<String>)> = Vec::new();
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            if arg == "--help" || arg == "-h" {
                return Err(CliError::Help);
            }
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) if name.starts_with("--") => (name, Some(value)),
                _ => (arg.as_str(), None),
            };
            let (usage, _) = self
                .flags
                .iter()
                .find(|f| f.0.split(' ').next() == Some(name))
                .ok_or_else(|| CliError::Unknown(arg.clone()))?;
            let (flag, takes_value) = match usage.split_once(' ') {
                Some((flag, _)) => (flag, true),
                None => (*usage, false),
            };
            if given.iter().any(|(n, _)| *n == flag) {
                return Err(CliError::Repeated(flag));
            }
            let value = match (takes_value, inline) {
                (false, None) => None,
                (false, Some(v)) => return Err(bad(flag, v, "this flag takes no value")),
                (true, Some(v)) => Some(v.to_string()),
                (true, None) => match rest.next() {
                    Some(v) if !v.starts_with("--") => Some(v.clone()),
                    _ => return Err(CliError::MissingValue(flag)),
                },
            };
            given.push((flag, value));
        }
        Ok(Args { given })
    }
}

/// The flags a command line gave, checked against a [`Spec`].
#[derive(Debug, Clone)]
pub struct Args {
    given: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Whether a switch was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.given.iter().any(|(n, _)| *n == flag)
    }

    /// The unparsed value of a flag, if given.
    pub fn raw(&self, flag: &str) -> Option<&str> {
        let (_, value) = self.given.iter().find(|(n, _)| *n == flag)?;
        value.as_deref()
    }

    /// The value of a flag parsed with `FromStr`, if given.
    pub fn value<T: FromStr>(&self, flag: &'static str) -> Result<Option<T>, CliError>
    where
        T::Err: fmt::Display,
    {
        self.value_with(flag, from_str)
    }

    /// The value of a flag parsed with `parse`, if given.
    pub fn value_with<T, E: Into<String>>(
        &self,
        flag: &'static str,
        parse: impl Fn(&str) -> Result<T, E>,
    ) -> Result<Option<T>, CliError> {
        let parse_one = |v: &str| parse(v).map_err(|why| bad(flag, v, why));
        self.raw(flag).map(parse_one).transpose()
    }

    /// A comma-separated list flag, each element parsed with `FromStr`.
    pub fn list<T: FromStr>(&self, flag: &'static str) -> Result<Option<Vec<T>>, CliError>
    where
        T::Err: fmt::Display,
    {
        self.list_with(flag, from_str)
    }

    /// A comma-separated list flag, each trimmed element parsed with
    /// `parse`; a list with no elements is rejected.
    pub fn list_with<T, E: Into<String>>(
        &self,
        flag: &'static str,
        parse: impl Fn(&str) -> Result<T, E>,
    ) -> Result<Option<Vec<T>>, CliError> {
        let Some(raw) = self.raw(flag) else {
            return Ok(None);
        };
        if raw.trim().is_empty() {
            return Err(CliError::EmptyList(flag));
        }
        let parse_one = |v: &str| parse(v.trim()).map_err(|why| bad(flag, v.trim(), why));
        raw.split(',')
            .map(parse_one)
            .collect::<Result<_, _>>()
            .map(Some)
    }
}

fn from_str<T: FromStr<Err: fmt::Display>>(v: &str) -> Result<T, String> {
    v.parse().map_err(|e: T::Err| e.to_string())
}

fn bad(flag: &'static str, value: &str, why: impl Into<String>) -> CliError {
    CliError::BadValue(flag, value.to_string(), why.into())
}

/// Parses a count that must be at least 1 (for the `_with` getters).
pub fn positive(v: &str) -> Result<usize, String> {
    match from_str(v)? {
        0 => Err("must be positive".to_string()),
        n => Ok(n),
    }
}

/// Ends the process for a rejected command line: `--help` prints `usage`
/// to stdout and exits 0; any other error prints itself and `usage` to
/// stderr and exits 2.
pub fn exit(err: &CliError, usage: &str) -> ! {
    if *err == CliError::Help {
        print!("{usage}");
        std::process::exit(0);
    }
    eprintln!("error: {err}\n\n{usage}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec = Spec {
        name: "demo",
        about: "A demo command.",
        flags: &[
            ("--smoke", "CI-sized"),
            ("--seed N", "seed"),
            ("--sizes N,N", "sizes"),
        ],
    };

    type Parsed = (bool, Option<u64>, Option<Vec<usize>>);

    /// Parses `line` and reads every flag the way a command does.
    fn run(line: &[&str]) -> Result<Parsed, CliError> {
        let args: Vec<String> = line.iter().map(|s| s.to_string()).collect();
        let a = SPEC.parse(&args)?;
        Ok((
            a.switch("--smoke"),
            a.value("--seed")?,
            a.list_with("--sizes", positive)?,
        ))
    }

    #[test]
    fn parses_good_lines_and_rejects_every_malformed_one() {
        let want = (true, Some(7), Some(vec![100, 400]));
        assert_eq!(
            run(&["--smoke", "--seed=7", "--sizes", "100, 400"]),
            Ok(want)
        );
        assert_eq!(run(&[]), Ok((false, None, None)));
        let unknown = |arg: &str| CliError::Unknown(arg.to_string());
        let cases = [
            (&["--help", "--bogus"][..], CliError::Help),
            (&["-h"], CliError::Help),
            (&["--shard", "7", "--help"], unknown("--shard")),
            (&["--sed=1"], unknown("--sed=1")),
            (&["--seed", "1", "extra"], unknown("extra")),
            (&["--seed"], CliError::MissingValue("--seed")),
            (&["--seed", "--smoke"], CliError::MissingValue("--seed")),
            (&["--smoke", "--smoke"], CliError::Repeated("--smoke")),
            (&["--seed", "1", "--seed=2"], CliError::Repeated("--seed")),
            (
                &["--smoke=yes"],
                bad("--smoke", "yes", "this flag takes no value"),
            ),
            (&["--sizes", ""], CliError::EmptyList("--sizes")),
            (&["--sizes= "], CliError::EmptyList("--sizes")),
            (&["--sizes", "2,0"], bad("--sizes", "0", "must be positive")),
        ];
        for (line, want) in cases {
            assert_eq!(run(line), Err(want), "{line:?}");
        }
        // Values and list elements that do not parse name the offender.
        for (line, flag, value) in [
            (&["--seed", "x"][..], "--seed", "x"),
            (&["--seed="], "--seed", ""),
            (&["--seed=-3"], "--seed", "-3"),
            (&["--sizes", "1,x"], "--sizes", "x"),
            (&["--sizes", "1,,2"], "--sizes", ""),
            (&["--sizes", "1,2,"], "--sizes", ""),
        ] {
            match run(line) {
                Err(CliError::BadValue(f, v, _)) => assert_eq!((f, v.as_str()), (flag, value)),
                other => panic!("{line:?} gave {other:?}"),
            }
        }
    }

    #[test]
    fn usage_lists_every_flag() {
        let usage = SPEC.usage();
        assert!(usage.starts_with("usage: demo [--smoke] [--seed N] [--sizes N,N]\n"));
        assert!(usage.contains("  --sizes N,N  sizes\n"), "{usage}");
    }
}
