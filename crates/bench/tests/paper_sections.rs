//! The paper's aggregates compare like with like: Figure 6's geomean
//! row is the geomean of exactly the 12 SPEC-profiled rows printed
//! above it, and the captured `cap-*` workloads sit in a section of
//! their own.

use std::process::Command;

use r2c_workloads::{spec_workloads, Scale};

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "Figure 6 at bench scale is too slow unoptimized; covered by the release CI job"
)]
fn fig6_geomean_covers_the_spec_rows_only() {
    let out = Command::new(env!("CARGO_BIN_EXE_report_fig6"))
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let (paper, captured) = stdout
        .split_once("Captured workloads")
        .expect("captured workloads get their own section");
    assert!(captured.contains("cap-"), "{captured}");

    let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
    let mut geomean_row = None;
    for line in paper.lines() {
        let mut cols = line.split_whitespace();
        let Some(name) = cols.next() else { continue };
        let pcts: Option<Vec<f64>> = cols
            .map(|c| c.strip_suffix('%').and_then(|p| p.parse().ok()))
            .collect();
        match pcts {
            Some(p) if p.len() == 4 && name == "geomean" => geomean_row = Some(p),
            Some(p) if p.len() == 4 => rows.push((name.to_string(), p)),
            _ => {}
        }
    }
    let names: Vec<&str> = rows.iter().map(|(n, _)| n.as_str()).collect();
    let spec: Vec<&str> = spec_workloads(Scale::Test).iter().map(|w| w.name).collect();
    assert_eq!(names, spec, "the paper section holds the 12 SPEC rows only");

    let geomean_row = geomean_row.expect("geomean row");
    for (mi, printed) in geomean_row.iter().enumerate() {
        let ln_sum: f64 = rows.iter().map(|(_, p)| (1.0 + p[mi] / 100.0).ln()).sum();
        let expected = ((ln_sum / rows.len() as f64).exp() - 1.0) * 100.0;
        // Rows and geomean are printed to 0.1 pp.
        assert!(
            (printed - expected).abs() <= 0.1,
            "machine column {mi}: geomean row {printed}% vs {expected:.2}% over the SPEC rows"
        );
    }
}
