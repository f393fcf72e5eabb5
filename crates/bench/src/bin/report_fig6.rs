//! Regenerates **Figure 6**: the performance impact of full R²C
//! protection per benchmark on the four evaluation machines.
//!
//! Paper shape (§6.2.4): geometric means between 6.6% and 8.5%, with
//! the Xeon highest at 8.5%; omnetpp worst-case 21% on the Xeon;
//! call-heavy benchmarks (omnetpp, xalancbmk, nab) hurt most;
//! compute-bound ones (lbm, xz, imagick, x264) barely move.

use r2c_bench::{baseline_cycles, geomean, median_cycles, parallel_map, pct, TablePrinter};
use r2c_core::R2cConfig;
use r2c_vm::MachineKind;
use r2c_workloads::{captured_workloads, spec_workloads, Scale};

fn main() {
    let large = r2c_bench::cli::parse("usage: report_fig6 [--large]").flag("--large");
    let scale = if large { Scale::Large } else { Scale::Bench };
    let runs = 3;
    // The paper's aggregate covers its 12 SPEC profiles; the
    // replay-captured workloads (`cap-*`, minted by `capture --bless`
    // from recorded traces) follow in a section with their own geomean.
    let mut workloads = spec_workloads(scale);
    let n_spec = workloads.len();
    workloads.extend(captured_workloads());
    let t = TablePrinter::new(&[11, 9, 9, 9, 9]);
    let mut header = vec!["benchmark".to_string()];
    header.extend(MachineKind::ALL.iter().map(|m| m.name().to_string()));

    // One measurement cell per (workload, machine); cells are
    // independent, so fan them out and print in input order.
    let cells: Vec<(usize, MachineKind)> = (0..workloads.len())
        .flat_map(|wi| MachineKind::ALL.into_iter().map(move |m| (wi, m)))
        .collect();
    let ratios = parallel_map(&cells, |&(wi, machine)| {
        let w = &workloads[wi];
        let base = baseline_cycles(&w.module, machine, runs, 30);
        let prot = median_cycles(&w.module, R2cConfig::full(0), machine, runs, 40);
        prot / base
    });

    let sections = [
        (
            format!(
                "Figure 6: full R2C performance impact per benchmark (median of {runs} seeds per cell)"
            ),
            0..n_spec,
            "\npaper: geometric mean 6.6%-8.5% across machines (Xeon highest);\n\
             omnetpp up to 21% on Xeon; lbm/xz/x264/imagick near baseline.\n",
        ),
        (
            "Captured workloads (cap-*, not in the paper's set):".to_string(),
            n_spec..workloads.len(),
            "",
        ),
    ];
    for (heading, rows, footer) in sections {
        println!("{heading}\n");
        t.row(&header);
        t.sep();
        let mut per_machine: Vec<Vec<f64>> = vec![Vec::new(); MachineKind::ALL.len()];
        for wi in rows {
            let mut row = vec![workloads[wi].name.to_string()];
            for (mi, column) in per_machine.iter_mut().enumerate() {
                let ratio = ratios[wi * MachineKind::ALL.len() + mi];
                column.push(ratio);
                row.push(pct(ratio));
            }
            t.row(&row);
        }
        t.sep();
        let mut geo_row = vec!["geomean".to_string()];
        geo_row.extend(per_machine.iter().map(|column| pct(geomean(column))));
        t.row(&geo_row);
        println!("{footer}");
    }
}
