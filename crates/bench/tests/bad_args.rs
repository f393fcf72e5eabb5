//! Command-line robustness: a bad argument to a report binary prints
//! usage and exits with status 2 — it never panics.

use std::process::Command;

#[test]
fn bad_arguments_exit_2_without_panicking() {
    let cases: &[(&str, &[&str])] = &[
        (env!("CARGO_BIN_EXE_report_fleet"), &["--bogus"]),
        (env!("CARGO_BIN_EXE_report_serve"), &["--bogus"]),
        (env!("CARGO_BIN_EXE_fuzz"), &["--bogus"]),
        (env!("CARGO_BIN_EXE_fuzz"), &["--preset", "bogus"]),
        (env!("CARGO_BIN_EXE_fuzz"), &["--mutate-ratio", "bogus"]),
        (env!("CARGO_BIN_EXE_fuzz"), &["--time-budget", "bogus"]),
        (env!("CARGO_BIN_EXE_fuzz"), &["--cases"]),
        (env!("CARGO_BIN_EXE_profile"), &["--workload", "bogus"]),
    ];
    for (bin, args) in cases {
        let out = Command::new(bin).args(*args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
        assert!(
            stderr.contains("usage") || stderr.contains("expected"),
            "{bin} {args:?}: {stderr}"
        );
    }
}
