//! The one argument parser behind every bench binary.
//!
//! The usage line is the specification: every `--name` it mentions is
//! accepted, and one followed by a placeholder (`--seed N`,
//! `--preset quick|full`) takes a value while any other is a flag.
//!
//! ```no_run
//! let args = r2c_bench::cli::parse("usage: profile [--seed N] [--large]");
//! let seed: u64 = args.get_or("--seed", 1);
//! let large = args.flag("--large");
//! ```
//!
//! `--help` prints the usage to stdout and exits 0. An unknown
//! argument, an option without its value, or a value that does not
//! parse prints the problem and the usage to stderr and exits 2, as
//! does [`Args::fail`] for a value the binary itself rejects. Binaries
//! read every argument before running anything, so a bad command line
//! never starts a workload. A repeated option keeps its last value.

use std::str::FromStr;

/// A parsed command line.
#[derive(Debug)]
pub struct Args {
    usage: &'static str,
    flags: Vec<&'static str>,
    values: Vec<(&'static str, String)>,
}

/// Parses the process arguments against `usage`; exits on `--help` or
/// a bad argument.
pub fn parse(usage: &'static str) -> Args {
    match parse_from(usage, std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{usage}");
            std::process::exit(0)
        }
        Err(problem) => fail(usage, &problem),
    }
}

/// Prints `problem` and the usage on stderr, then exits with status 2.
fn fail(usage: &str, problem: &str) -> ! {
    eprintln!("error: {problem}\n{usage}");
    std::process::exit(2)
}

/// The options `usage` names, each with whether it takes a value.
fn spec(usage: &'static str) -> Vec<(&'static str, bool)> {
    let words: Vec<&str> = usage
        .split(|c: char| c.is_whitespace() || c == '[' || c == ']')
        .filter(|w| !w.is_empty())
        .collect();
    let takes_value = |next: Option<&&str>| next.is_some_and(|n| !n.starts_with("--") && *n != "|");
    (0..words.len())
        .filter(|&i| words[i].starts_with("--"))
        .map(|i| (words[i], takes_value(words.get(i + 1))))
        .collect()
}

/// `Ok(None)` asks for the usage (`--help`).
fn parse_from(
    usage: &'static str,
    argv: impl IntoIterator<Item = String>,
) -> Result<Option<Args>, String> {
    let spec = spec(usage);
    let mut args = Args {
        usage,
        flags: Vec::new(),
        values: Vec::new(),
    };
    let mut argv = argv.into_iter();
    while let Some(a) = argv.next() {
        if a == "--help" {
            return Ok(None);
        }
        match spec.iter().find(|(name, _)| *name == a) {
            Some(&(name, false)) => args.flags.push(name),
            Some(&(name, true)) => {
                let v = argv
                    .next()
                    .ok_or_else(|| format!("{name} requires a value"))?;
                args.values.push((name, v));
            }
            None => return Err(format!("unknown argument {a:?}")),
        }
    }
    Ok(Some(args))
}

fn parse_value<T: FromStr>(name: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{name}: cannot parse {v:?}"))
}

impl Args {
    /// Whether flag `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        debug_assert!(
            spec(self.usage).contains(&(name, false)),
            "{name} is no flag"
        );
        self.flags.contains(&name)
    }

    /// The raw value of option `name`, if given.
    pub fn value(&self, name: &str) -> Option<&str> {
        debug_assert!(
            spec(self.usage).contains(&(name, true)),
            "{name} takes no value"
        );
        let mut given = self.values.iter().rev();
        given.find(|(o, _)| *o == name).map(|(_, v)| v.as_str())
    }

    /// The value of option `name` parsed as `T`, if given; exits 2 if
    /// it does not parse.
    pub fn get<T: FromStr>(&self, name: &str) -> Option<T> {
        self.value(name)
            .map(|v| parse_value(name, v).unwrap_or_else(|e| self.fail(&e)))
    }

    /// [`Args::get`] with a default for an absent option.
    pub fn get_or<T: FromStr>(&self, name: &str, default: T) -> T {
        self.get(name).unwrap_or(default)
    }

    /// Rejects the command line: `problem` and the usage on stderr,
    /// exit status 2.
    pub fn fail(&self, problem: &str) -> ! {
        fail(self.usage, problem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const USAGE: &str = "usage: t --bless | --verify [--smoke] [--seed N] [--name a|b] [--large]";

    fn run(argv: &[&str]) -> Result<Option<Args>, String> {
        parse_from(USAGE, argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_usage_names_flags_and_options() {
        let expected = [
            ("--bless", false),
            ("--verify", false),
            ("--smoke", false),
            ("--seed", true),
            ("--name", true),
            ("--large", false),
        ];
        assert_eq!(spec(USAGE), expected);
    }

    #[test]
    fn flags_and_values_are_read_back() {
        let args = run(&["--seed", "7", "--smoke", "--name", "x", "--seed", "9"])
            .unwrap()
            .unwrap();
        assert!(args.flag("--smoke"));
        assert!(!args.flag("--large"));
        assert_eq!(args.get::<u64>("--seed"), Some(9), "last value wins");
        assert_eq!(args.value("--name"), Some("x"));
        assert_eq!(run(&[]).unwrap().unwrap().get_or::<u64>("--seed", 3), 3);
    }

    #[test]
    fn help_asks_for_the_usage() {
        assert!(run(&["--smoke", "--help"]).unwrap().is_none());
        assert!(run(&["--help", "--bogus"]).unwrap().is_none());
    }

    #[test]
    fn bad_arguments_are_errors() {
        for (argv, problem) in [
            (&["--bogus"][..], "unknown argument \"--bogus\""),
            (&["positional"], "unknown argument \"positional\""),
            (&["N"], "unknown argument \"N\""),
            (&["--seed"], "--seed requires a value"),
        ] {
            assert_eq!(run(argv).unwrap_err(), problem);
        }
        assert_eq!(
            parse_value::<u64>("--seed", "x").unwrap_err(),
            "--seed: cannot parse \"x\""
        );
        assert_eq!(parse_value::<f64>("--r", "0.5"), Ok(0.5));
    }
}
