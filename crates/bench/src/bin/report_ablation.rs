//! Ablation study of R²C's main design parameters (beyond the paper's
//! tables, supporting the §7.1/§7.2 trade-off discussion):
//!
//! * **BTRA count R** — performance cost vs the 1/(R+1) guessing bound,
//!   including the paper's AVX-512 remark (§7.1: with 512-bit moves one
//!   could "either halve the BTRA performance impact, or use twice as
//!   many BTRAs" — i.e. security scales with R at a cost that scales
//!   with the number of vector moves).
//! * **BTDPs per function** — heap-harvest dilution vs cost.
//! * **Booby-trap density** — Blind-ROP probes-to-detection vs text
//!   size.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use r2c_attacks::victim::{build_victim, run_victim};
use r2c_bench::{baseline_cycles, median_cycles, parallel_map, pct, TablePrinter};
use r2c_core::analysis::p_guess_return_address;
use r2c_core::{BtdpConfig, BtraConfig, BtraMode, R2cConfig};
use r2c_vm::MachineKind;
use r2c_workloads::{spec_workloads, Scale};

fn main() {
    r2c_bench::cli::parse("usage: report_ablation");
    let machine = MachineKind::EpycRome;
    let workloads = spec_workloads(Scale::Bench);
    let omnetpp = workloads.iter().find(|w| w.name == "omnetpp").unwrap();
    let base = baseline_cycles(&omnetpp.module, machine, 2, 1);

    println!("Ablation 1: BTRA count R (omnetpp-profile workload, AVX2 setup)\n");
    let t = TablePrinter::new(&[6, 10, 12, 16]);
    t.row(&[
        "R".into(),
        "overhead".into(),
        "P(guess RA)".into(),
        "P(4-chain)".into(),
    ]);
    t.sep();
    let totals = [2u8, 4, 6, 10, 16, 20];
    let rows = parallel_map(&totals, |&total| {
        let mut cfg = R2cConfig::full(0);
        cfg.diversify.btra = Some(BtraConfig {
            mode: BtraMode::Avx2,
            total,
            omit_vzeroupper: false,
        });
        let cycles = median_cycles(&omnetpp.module, cfg, machine, 2, 2);
        let p = p_guess_return_address(total as u32);
        vec![
            format!("{total}"),
            pct(cycles / base),
            format!("{p:.4}"),
            format!("{:.2e}", p.powi(4)),
        ]
    });
    for row in &rows {
        t.row(row);
    }
    println!("\n(§7.1: an AVX-512 setup doubles the BTRAs per vector move — compare");
    println!(" R=10 with R=20: the security bound squares while the cost roughly");
    println!(" doubles in moves; on AVX-512 hardware it would stay at R=10 cost.)\n");

    println!("Ablation 2: BTDPs per function (xalancbmk-profile workload)\n");
    let xalanc = workloads.iter().find(|w| w.name == "xalancbmk").unwrap();
    let xbase = baseline_cycles(&xalanc.module, machine, 2, 3);
    let t2 = TablePrinter::new(&[12, 10, 22]);
    t2.row(&[
        "max BTDP/fn".into(),
        "overhead".into(),
        "harvest detection rate".into(),
    ]);
    t2.sep();
    let densities = [0u8, 2, 5, 10];
    let rows2 = parallel_map(&densities, |&max_per_fn| {
        let mut cfg = R2cConfig::full(0);
        cfg.diversify.btdp = if max_per_fn == 0 {
            None
        } else {
            Some(BtdpConfig {
                max_per_fn,
                ..BtdpConfig::default()
            })
        };
        let cycles = median_cycles(&xalanc.module, cfg, machine, 2, 4);
        // Detection rate of the heap harvest against the victim. The
        // attack RNG is seeded per cell, so rows stay independent.
        let mut rng = SmallRng::seed_from_u64(5);
        let mut detected = 0;
        let trials = 16;
        for seed in 0..trials {
            let v = build_victim(cfg.with_seed(seed));
            let mut vm = run_victim(&v.image);
            let (out, _) = r2c_attacks::aocr::harvest_heap_pointer(&mut vm, &mut rng);
            if out.is_detected() {
                detected += 1;
            }
        }
        vec![
            format!("{max_per_fn}"),
            pct(cycles / xbase),
            format!("{detected}/{trials}"),
        ]
    });
    for row in &rows2 {
        t2.row(row);
    }

    println!("\nAblation 3: booby-trap function count vs Blind-ROP detection\n");
    let t3 = TablePrinter::new(&[12, 22, 22]);
    t3.row(&[
        "bt funcs".into(),
        "avg probes to detect".into(),
        "campaigns detected".into(),
    ]);
    t3.sep();
    let bt_counts = [8u16, 32, 64, 128];
    let rows3 = parallel_map(&bt_counts, |&bts| {
        let mut cfg = R2cConfig::full(0);
        cfg.diversify.booby_trap_funcs = bts;
        // Isolate the booby-trap-function contribution: without this,
        // prolog trap runs and call-site instrumentation catch the scan
        // on the first probes regardless of density.
        cfg.diversify.prolog_traps = None;
        cfg.diversify.nop_insertion = None;
        let mut detected = 0;
        let mut probes = Vec::new();
        let n = 5;
        for seed in 0..n {
            let v = build_victim(cfg.with_seed(seed));
            let r = r2c_attacks::blindrop::blind_rop(&v.image, 4000);
            if r.outcome == r2c_attacks::blindrop::BlindOutcome::Detected {
                detected += 1;
                probes.push(r.probes);
            }
        }
        let avg = if probes.is_empty() {
            f64::NAN
        } else {
            probes.iter().map(|&p| p as f64).sum::<f64>() / probes.len() as f64
        };
        vec![
            format!("{bts}"),
            format!("{avg:.0}"),
            format!("{detected}/{n}"),
        ]
    });
    for row in &rows3 {
        t3.row(row);
    }
}
