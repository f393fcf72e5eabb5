//! Regenerates **Table 2**: median dynamic call frequencies of the
//! SPEC CPU 2017 benchmarks (tail calls excluded — our code generator
//! emits none, matching the paper's instrumentation which ignores them
//! because they push no return address).
//!
//! Our workloads run at a 1:10⁶ scale of the paper's counts by
//! construction; the check here is that the *measured* (not generated)
//! dynamic call counts preserve the paper's ordering and relative
//! magnitudes.

use r2c_bench::{measure_once, parallel_map, TablePrinter};
use r2c_core::R2cConfig;
use r2c_vm::MachineKind;
use r2c_workloads::{spec_workloads, Scale};

fn main() {
    let large = r2c_bench::cli::parse("usage: report_table2 [--large]").flag("--large");
    let scale = if large { Scale::Large } else { Scale::Bench };
    let factor: u64 = match scale {
        Scale::Large => 100_000,
        _ => 1_000_000,
    };
    let workloads = spec_workloads(scale);
    println!("Table 2: dynamic call frequencies (measured in the VM, baseline build)\n");
    let t = TablePrinter::new(&[11, 14, 16, 18]);
    t.row(&[
        "benchmark".into(),
        "measured".into(),
        "x scale (1:10^6)".into(),
        "paper (Table 2)".into(),
    ]);
    t.sep();
    let rows: Vec<(String, u64, u64, u64)> = parallel_map(&workloads, |w| {
        let m = measure_once(&w.module, R2cConfig::baseline(0), MachineKind::EpycRome, 1);
        (
            w.name.to_string(),
            m.stats.calls,
            m.stats.calls * factor,
            w.table2_calls,
        )
    });
    for (name, measured, scaled, paper) in &rows {
        t.row(&[
            name.clone(),
            format!("{measured}"),
            format!("{scaled}"),
            format!("{paper}"),
        ]);
    }
    // Ordering check against the paper.
    let mut by_measured = rows.clone();
    by_measured.sort_by_key(|r| std::cmp::Reverse(r.1));
    let mut by_paper = rows.clone();
    by_paper.sort_by_key(|r| std::cmp::Reverse(r.3));
    let same_order = by_measured.iter().zip(&by_paper).all(|(a, b)| a.0 == b.0);
    println!(
        "\nordering vs paper: {}",
        if same_order {
            "IDENTICAL"
        } else {
            "differs (scaled counts quantize small benchmarks)"
        }
    );
}
