//! Regenerates the **§6.2.4 web-server measurement**: throughput of
//! nginx- and Apache-like servers with full R²C versus baseline, on
//! the Intel i9-9900K and the AMD machines.
//!
//! Paper: i9-9900K throughput decrease 13% (nginx) and 12% (Apache);
//! 3–4% on the AMD machines for both.

use r2c_bench::{parallel_map, TablePrinter};
use r2c_core::R2cConfig;
use r2c_vm::MachineKind;
use r2c_workloads::{webserver::run_webserver, ServerKind};

fn main() {
    let large = r2c_bench::cli::parse("usage: report_webserver [--large]").flag("--large");
    let requests: u64 = if large { 20_000 } else { 4_000 };
    println!("Webserver throughput under full R2C (paper §6.2.4), {requests} requests/run\n");
    let t = TablePrinter::new(&[8, 11, 14, 14, 10, 16]);
    t.row(&[
        "server".into(),
        "machine".into(),
        "baseline rps".into(),
        "R2C rps".into(),
        "drop".into(),
        "paper".into(),
    ]);
    t.sep();
    let cells: Vec<(ServerKind, MachineKind)> = [ServerKind::Nginx, ServerKind::Apache]
        .into_iter()
        .flat_map(|kind| {
            [
                MachineKind::I9_9900K,
                MachineKind::EpycRome,
                MachineKind::Tr3970X,
            ]
            .into_iter()
            .map(move |machine| (kind, machine))
        })
        .collect();
    let results = parallel_map(&cells, |&(kind, machine)| {
        let base = run_webserver(kind, requests, R2cConfig::baseline(1), machine);
        let prot = run_webserver(kind, requests, R2cConfig::full(1), machine);
        (base, prot)
    });
    {
        for (&(kind, machine), (base, prot)) in cells.iter().zip(&results) {
            let drop = 1.0 - prot.throughput_rps / base.throughput_rps;
            let paper = match (kind, machine) {
                (ServerKind::Nginx, MachineKind::I9_9900K) => "-13%",
                (ServerKind::Apache, MachineKind::I9_9900K) => "-12%",
                _ => "-3..4% (AMD)",
            };
            t.row(&[
                kind.name().into(),
                machine.name().into(),
                format!("{:.3e}", base.throughput_rps),
                format!("{:.3e}", prot.throughput_rps),
                format!("-{:.1}%", 100.0 * drop),
                paper.into(),
            ]);
        }
    }
}
