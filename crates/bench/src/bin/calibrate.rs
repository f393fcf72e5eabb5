//! Internal calibration tool: prints per-workload baseline
//! cycles-per-call and component overheads so the cost model and
//! workload profiles can be checked against the paper's anchors
//! (not one of the report binaries; kept for reproducibility of the
//! calibration process described in DESIGN.md).

use r2c_bench::{baseline_cycles, median_cycles, parallel_map, TablePrinter};
use r2c_core::{Component, R2cConfig};
use r2c_vm::MachineKind;
use r2c_workloads::{spec_workloads, Scale};

fn main() {
    r2c_bench::cli::parse("usage: calibrate");
    let machine = MachineKind::EpycRome;
    let runs = 2;
    let workloads = spec_workloads(Scale::Bench);
    let t = TablePrinter::new(&[11, 10, 9, 7, 7, 7, 7, 7, 7]);
    t.row(&[
        "bench".into(),
        "cycles".into(),
        "cyc/call".into(),
        "push".into(),
        "avx".into(),
        "btdp".into(),
        "prolog".into(),
        "oia".into(),
        "full".into(),
    ]);
    t.sep();
    // Each workload's row is an independent bundle of measurements;
    // fan the rows out and print them in table order.
    let rows = parallel_map(&workloads, |w| {
        let m = r2c_bench::measure_once(&w.module, R2cConfig::baseline(0), machine, 1);
        let base = baseline_cycles(&w.module, machine, runs, 1);
        let ratio = |cfg: R2cConfig| median_cycles(&w.module, cfg, machine, runs, 2) / base;
        vec![
            w.name.to_string(),
            format!("{:.2e}", base),
            format!("{:.0}", m.cycles / m.stats.calls.max(1) as f64),
            format!("{:.3}", ratio(R2cConfig::component(Component::Push, 0))),
            format!("{:.3}", ratio(R2cConfig::component(Component::Avx, 0))),
            format!("{:.3}", ratio(R2cConfig::component(Component::Btdp, 0))),
            format!("{:.3}", ratio(R2cConfig::component(Component::Prolog, 0))),
            format!("{:.3}", ratio(R2cConfig::component(Component::Oia, 0))),
            format!("{:.3}", ratio(R2cConfig::full(0))),
        ]
    });
    for row in &rows {
        t.row(row);
    }
}
