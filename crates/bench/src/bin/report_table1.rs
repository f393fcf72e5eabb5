//! Regenerates **Table 1**: maximum and geometric-mean overhead of
//! R²C's isolated components across the SPEC-like workloads, plus the
//! §6.2.1 offset-invariant-addressing measurement.
//!
//! Paper values (EPYC Rome, §6.2.1–6.2.3):
//!
//! | component | max | geomean |
//! |---|---|---|
//! | Push | 1.21 | 1.06 |
//! | AVX | 1.10 | 1.04 |
//! | BTDP | 1.05 | 1.02 |
//! | Prolog | 1.06 | 1.02 |
//! | Layout | 1.02 | 1.00 |
//! | (OIA alone: geomean +0.79%, max +3.61%) |

use r2c_bench::{baseline_cycles, geomean, median_cycles, parallel_map, TablePrinter};
use r2c_core::{Component, R2cConfig};
use r2c_vm::MachineKind;
use r2c_workloads::{captured_workloads, spec_workloads, Scale};

fn main() {
    let large = r2c_bench::cli::parse("usage: report_table1 [--large]").flag("--large");
    let scale = if large { Scale::Large } else { Scale::Bench };
    let runs = 3;
    let machine = MachineKind::EpycRome; // the paper's component-analysis machine

    // The paper's aggregates cover its 12 SPEC profiles; the
    // replay-captured workloads (`cap-*`, minted by `capture --bless`
    // from recorded traces) follow in a table of their own.
    let mut workloads = spec_workloads(scale);
    let n_spec = workloads.len();
    workloads.extend(captured_workloads());

    println!(
        "Table 1: component overheads (machine: {}, {n_spec} SPEC workloads, median of {runs} seeds)\n",
        machine.name(),
    );
    let paper = [
        (Component::Push, "1.21 / 1.06"),
        (Component::Avx, "1.10 / 1.04"),
        (Component::Btdp, "1.05 / 1.02"),
        (Component::Prolog, "1.06 / 1.02"),
        (Component::Layout, "1.02 / 1.00"),
        (Component::Oia, "1.04 / 1.008"),
    ];
    // Every (component, workload) cell is independent; each divides by
    // the shared per-workload baseline, which `baseline_cycles`
    // measures once and memoizes.
    let cells: Vec<(Component, usize)> = paper
        .iter()
        .flat_map(|&(c, _)| (0..workloads.len()).map(move |wi| (c, wi)))
        .collect();
    let all_ratios = parallel_map(&cells, |&(component, wi)| {
        let w = &workloads[wi];
        let base = baseline_cycles(&w.module, machine, runs, 10);
        let prot = median_cycles(
            &w.module,
            R2cConfig::component(component, 0),
            machine,
            runs,
            20,
        );
        prot / base
    });
    let t = TablePrinter::new(&[10, 8, 8, 14]);
    let table = |rows: std::ops::Range<usize>, with_paper: bool| {
        let paper_col = |v: &str| String::from(if with_paper { v } else { "" });
        let header = ["component", "max", "geomean"].map(String::from);
        t.row(&[header.as_slice(), &[paper_col("paper (max/geo)")]].concat());
        t.sep();
        for (ci, (component, paper_val)) in paper.into_iter().enumerate() {
            let ratios = &all_ratios[ci * workloads.len()..][rows.clone()];
            let max = ratios.iter().cloned().fold(f64::MIN, f64::max);
            t.row(&[
                component.name().into(),
                format!("{max:.2}"),
                format!("{:.2}", geomean(ratios)),
                paper_col(paper_val),
            ]);
        }
    };
    table(0..n_spec, true);
    println!("\n(OIA row corresponds to §6.2.1: offset-invariant addressing alone,");
    println!(" paper: geomean +0.79%, max +3.61%.)");
    println!(
        "\nCaptured workloads (cap-*, not in the paper's set; {} workloads):\n",
        workloads.len() - n_spec
    );
    table(n_spec..workloads.len(), false);
}
