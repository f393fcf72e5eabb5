//! Command-line robustness of every bench binary: `--help` prints the
//! usage on stdout and exits 0 without running anything; a bad
//! argument prints the problem and the usage on stderr and exits 2 —
//! it never panics and never runs the workload.

use std::process::{Command, Output};

const BINARIES: [&str; 17] = [
    env!("CARGO_BIN_EXE_bench_vm"),
    env!("CARGO_BIN_EXE_calibrate"),
    env!("CARGO_BIN_EXE_capture"),
    env!("CARGO_BIN_EXE_check"),
    env!("CARGO_BIN_EXE_fuzz"),
    env!("CARGO_BIN_EXE_profile"),
    env!("CARGO_BIN_EXE_report_ablation"),
    env!("CARGO_BIN_EXE_report_fig6"),
    env!("CARGO_BIN_EXE_report_fleet"),
    env!("CARGO_BIN_EXE_report_memory"),
    env!("CARGO_BIN_EXE_report_scale"),
    env!("CARGO_BIN_EXE_report_security"),
    env!("CARGO_BIN_EXE_report_serve"),
    env!("CARGO_BIN_EXE_report_table1"),
    env!("CARGO_BIN_EXE_report_table2"),
    env!("CARGO_BIN_EXE_report_table3"),
    env!("CARGO_BIN_EXE_report_webserver"),
];

fn run(bin: &str, args: &[&str]) -> (Output, String, String) {
    // Run in the target's scratch directory, so a binary that wrongly
    // ran its workload would not overwrite the repository's artifacts.
    let out = Command::new(bin)
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out, stdout, stderr)
}

fn assert_rejected(bin: &str, args: &[&str]) -> String {
    let (out, stdout, stderr) = run(bin, args);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains("usage: "), "{bin} {args:?}: {stderr}");
    assert!(stdout.is_empty(), "{bin} {args:?} ran anyway: {stdout}");
    stderr
}

#[test]
fn every_binary_answers_help_and_unknown_arguments() {
    for bin in BINARIES {
        let name = bin
            .rsplit(['/', '\\'])
            .next()
            .unwrap()
            .trim_end_matches(".exe");
        let (out, usage, stderr) = run(bin, &["--help"]);
        assert_eq!(out.status.code(), Some(0), "{bin} --help: {stderr}");
        assert!(
            usage.starts_with(&format!("usage: {name}")),
            "{bin} --help printed: {usage}"
        );
        // The help output is the usage and nothing else: the same text
        // a bad argument prints after naming the problem.
        let rejected = assert_rejected(bin, &["--bogus"]);
        assert_eq!(
            rejected,
            format!("error: unknown argument \"--bogus\"\n{usage}"),
            "{bin}"
        );
    }
}

#[test]
fn bad_values_exit_2_without_panicking() {
    let cases: &[(&str, &[&str])] = &[
        (env!("CARGO_BIN_EXE_fuzz"), &["--preset", "bogus"]),
        (env!("CARGO_BIN_EXE_fuzz"), &["--mutate-ratio", "bogus"]),
        (env!("CARGO_BIN_EXE_fuzz"), &["--time-budget", "bogus"]),
        (env!("CARGO_BIN_EXE_fuzz"), &["--cases"]),
        (env!("CARGO_BIN_EXE_profile"), &["--workload", "bogus"]),
        (env!("CARGO_BIN_EXE_profile"), &["--seed", "bogus"]),
        (env!("CARGO_BIN_EXE_profile"), &["--requests", "x"]),
        (env!("CARGO_BIN_EXE_profile"), &["--machine", "bogus"]),
        (env!("CARGO_BIN_EXE_capture"), &[]),
        (env!("CARGO_BIN_EXE_bench_vm"), &["--bogus", "--smoke"]),
    ];
    for (bin, args) in cases {
        assert_rejected(bin, args);
    }
}
