//! Command-line parsing. Bad arguments are a usage error (exit 2),
//! never a panic.

use std::time::Duration;

/// The four workloads, by the names `BENCHMARK.json` uses.
pub const WORKLOADS: [&str; 4] = [
    "steady-exec",
    "reseed-sweep",
    "fleet-respawn",
    "fuzz-oracle",
];

pub const USAGE: &str =
    "usage: perfbench --workload <steady-exec|reseed-sweep|fleet-respawn|fuzz-oracle> \
--seed <u64> --seconds <1..=600> --trace <0|1>";

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    pub fn duration(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// Parses `--flag value` pairs; every flag is required exactly once.
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let slot_taken = match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}"));
                }
                workload.replace(value.clone()).is_some()
            }
            "--seed" => seed
                .replace(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed {value:?}"))?,
                )
                .is_some(),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
                seconds.replace(s).is_some()
            }
            "--trace" => {
                let t = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                };
                trace.replace(t).is_some()
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        };
        if slot_taken {
            return Err(format!("{flag} given twice"));
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse(&argv(
            "--workload fleet-respawn --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "fleet-respawn");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload fuzz-oracle --seed x --seconds 1 --trace 0",
            "--workload fuzz-oracle --seed 1 --seconds 0 --trace 0",
            "--workload fuzz-oracle --seed 1 --seconds 1 --trace 2",
            "--workload fuzz-oracle --seed 1 --seconds 1",
            "--workload fuzz-oracle --seed 1 --seed 2 --seconds 1 --trace 0",
            "--workload fuzz-oracle --seed 1 --seconds 1 --trace 0 --extra",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad:?} must be rejected");
        }
    }
}
