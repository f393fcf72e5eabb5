//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The lines before it carry the host fingerprint, the exact
//! simulated-clock results, the workload-specific layer breakdown and
//! the reconciliation rows. Exit status: 0 when every output check
//! passed, 1 when one failed, 2 on a usage error.

use std::process::ExitCode;

use perfbench::cli::{self, Args, USAGE};
use perfbench::fleet::FleetRespawn;
use perfbench::fuzz::FuzzOracle;
use perfbench::host::{self, Fingerprint};
use perfbench::reseed::ReseedSweep;
use perfbench::run::{execute, Outcome};
use perfbench::steady::SteadyExec;
use perfbench::Metric;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(knob) = host::reference_knob_set() {
        eprintln!(
            "perfbench: {knob} is set; it switches the VM or fleet to a reference path \
             and would be measured instead of the real one. Unset it.\n{USAGE}"
        );
        return ExitCode::from(2);
    }
    let outcome = run(&args);
    report(&args, &outcome)
}

fn run(args: &Args) -> Outcome {
    let (seed, window, trace) = (args.seed, args.duration(), args.trace);
    match args.workload.as_str() {
        "steady-exec" => execute(&SteadyExec { seed }, window, trace),
        "reseed-sweep" => execute(&ReseedSweep { seed }, window, trace),
        "fleet-respawn" => execute(&FleetRespawn { seed }, window, trace),
        "fuzz-oracle" => execute(&FuzzOracle { seed }, window, trace),
        other => unreachable!("cli accepted unknown workload {other}"),
    }
}

/// The end-to-end metrics of `BENCHMARK.json`, in its order.
fn end_to_end(o: &Outcome) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", o.setup_s(), "s"),
        Metric::new("ops_per_s", o.ops_per_s, "1/s"),
        Metric::new("host_peak_rss_mib", o.peak_rss_mib, "MiB"),
    ]
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn join(xs: impl Iterator<Item = f64>) -> String {
    xs.map(|x| format!("{x:.4}")).collect::<Vec<_>>().join(" ")
}

fn report(args: &Args, o: &Outcome) -> ExitCode {
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("{}", Fingerprint::collect().line());
    println!("setup_s_samples {}", join(o.setup_samples.iter().copied()));
    println!("op_wall_s {}", join(o.ops.iter().map(|op| op.wall_s)));
    println!("op_host_speed {}", join(o.ops.iter().map(|op| op.speed)));
    let e2e = end_to_end(o);
    let print = |kind: &str, ms: &[Metric]| {
        for m in ms {
            println!("{kind} {} {} {}", m.name, json_number(m.value), m.unit);
        }
    };
    print("metric", &e2e);
    print("rate", &o.rates);
    print("exact", &o.exact);
    print("layer", &o.layers);
    print("detail", &o.details);
    for r in &o.reconciliations {
        println!("{}", r.line());
    }
    for n in &o.checks.notes {
        println!("check-failed {n}");
    }

    let shown = if args.trace { &o.layers } else { &e2e };
    let finite = shown.iter().all(|m| m.value.is_finite());
    let correct = o.checks.failed == 0 && o.checks.attempted > 0 && finite;
    let metrics: Vec<String> = shown
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.checks.attempted.max(1),
        o.checks.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
