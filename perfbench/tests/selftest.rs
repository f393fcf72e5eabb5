//! Self-tests of the benchmark, on the configuration it ships: each
//! workload is built from its seed alone. Run them in release mode,
//! like the benchmark itself:
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::process::Command;
use std::time::Duration;

use perfbench::fleet::FleetRespawn;
use perfbench::fuzz::FuzzOracle;
use perfbench::reseed::ReseedSweep;
use perfbench::run::{execute, Outcome, Workload, LAYER_METRICS};
use perfbench::stats::geomean;
use perfbench::steady::{spec_overhead_pct, SteadyExec};
use perfbench::trace::Tracer;
use perfbench::Checks;

const WINDOW: Duration = Duration::from_secs(1);

/// Runs `w` untraced twice and traced once; every run must pass its
/// output checks and report bit-identical exact metrics.
fn exact_metrics_are_stable<W: Workload>(w: &W) -> Outcome {
    let first = execute(w, WINDOW, false);
    let second = execute(w, WINDOW, false);
    let traced = execute(w, WINDOW, true);
    for o in [&first, &second, &traced] {
        assert!(o.checks.attempted > 0);
        assert_eq!(o.checks.failed, 0, "{:?}", o.checks.notes);
    }
    assert!(!first.exact.is_empty());
    assert_eq!(
        first.exact, second.exact,
        "exact metrics differ between runs"
    );
    assert_eq!(
        first.exact, traced.exact,
        "exact metrics differ traced vs untraced"
    );
    let names: Vec<&str> = traced.layers.iter().map(|m| m.name.as_str()).collect();
    let want: Vec<&str> = LAYER_METRICS.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, want, "the traced run reports every per-layer metric");
    for m in &traced.layers {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
    assert_eq!(
        traced.reconciliations.len(),
        3,
        "setup, timed and probe rows"
    );
    for r in &traced.reconciliations {
        let sum = r.layer_sum_ms() + r.other_ms;
        assert!(
            (sum - r.wall_ms).abs() < 1e-6 * r.wall_ms.max(1.0),
            "{}",
            r.line()
        );
    }
    first
}

#[test]
fn steady_exec_exact_metrics_repeat() {
    let o = exact_metrics_are_stable(&SteadyExec { seed: 3 });
    assert!(o.exact.iter().any(|m| m.name == "sim_overhead_pct"));
}

#[test]
fn reseed_sweep_exact_metrics_repeat() {
    exact_metrics_are_stable(&ReseedSweep { seed: 3 });
}

#[test]
fn fleet_respawn_exact_metrics_repeat() {
    let o = exact_metrics_are_stable(&FleetRespawn { seed: 11 });
    let get = |n: &str| o.exact.iter().find(|m| m.name == n).unwrap().value;
    assert!(get("fleet_availability") > 0.0 && get("fleet_availability") <= 1.0);
    assert!(get("fleet_sim_capacity") > 0.0);
}

#[test]
fn fuzz_oracle_cases_pass() {
    exact_metrics_are_stable(&FuzzOracle { seed: 11 });
}

#[test]
fn different_seeds_give_different_variants() {
    let a = execute(&ReseedSweep { seed: 1 }, WINDOW, false);
    let b = execute(&ReseedSweep { seed: 2 }, WINDOW, false);
    assert_ne!(a.exact, b.exact);
}

/// The paper's aggregate covers its 12 SPEC profiles only; the `cap-*`
/// captures must not leak into it.
#[test]
fn sim_overhead_is_computed_over_spec_profiles_only() {
    let w = SteadyExec { seed: 5 };
    let st = w.setup(&mut Tracer::new(false), &mut Checks::default());
    let full: Vec<_> = st.cells.iter().filter(|c| c.full).collect();
    assert_eq!(full.len(), 17, "12 SPEC profiles + 5 captures");
    assert_eq!(full.iter().filter(|c| c.spec).count(), 12);
    assert!(full
        .iter()
        .filter(|c| !c.spec)
        .all(|c| c.name.starts_with("cap-")));
    let ratio = |spec_only: bool| {
        let rs: Vec<f64> = full
            .iter()
            .filter(|f| f.spec || !spec_only)
            .map(|f| {
                let module = f.name.split('/').next().unwrap();
                let base = st
                    .cells
                    .iter()
                    .find(|b| !b.full && b.name.split('/').next().unwrap() == module)
                    .unwrap();
                f.warm.cycles as f64 / base.warm.cycles as f64
            })
            .collect();
        100.0 * (geomean(&rs) - 1.0)
    };
    let got = spec_overhead_pct(&st.cells, |s| s.cycles as f64);
    assert_eq!(got, ratio(true));
    assert_ne!(got, ratio(false), "the captures would move the aggregate");
}

fn perfbench(args: &[&str], env: &[(&str, &str)]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(args)
        .env_remove("R2C_NO_FUSE")
        .env_remove("R2C_NO_COW");
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("run perfbench")
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    let ok = [
        "--workload",
        "reseed-sweep",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ];
    let bad: [&[&str]; 6] = [
        &[],
        &["--help"],
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "reseed-sweep",
            "--seed",
            "-1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "reseed-sweep",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "yes",
        ],
        &[
            "--workload",
            "reseed-sweep",
            "--seed",
            "1",
            "--seconds",
            "1",
        ],
    ];
    for args in bad {
        let out = perfbench(args, &[]);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    }
    for knob in ["R2C_NO_FUSE", "R2C_NO_COW"] {
        let out = perfbench(&ok, &[(knob, "1")]);
        assert_eq!(out.status.code(), Some(2), "{knob} must be refused");
        assert!(out.stdout.is_empty());
    }
}

#[test]
fn result_line_is_the_last_line() {
    let out = perfbench(
        &[
            "--workload",
            "reseed-sweep",
            "--seed",
            "4",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[],
    );
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().unwrap();
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    for name in ["setup_s", "ops_per_s", "host_peak_rss_mib"] {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name}"
        );
    }
    assert!(stdout.lines().any(|l| l.starts_with("host cpu=")));
}
