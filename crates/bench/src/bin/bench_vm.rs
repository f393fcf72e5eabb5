//! Host-side VM throughput benchmark: how fast the simulator itself
//! runs, independent of the simulated cycle model.
//!
//! Measures guest MIPS (million simulated instructions per host second)
//! and wall-clock over the `Scale::Test` workloads, for baseline and
//! full-R²C builds, and writes the results to `BENCH_vm.json`.
//!
//! Methodology: one warm-up `Vm::new` + run per cell (decodes the
//! image, allocates pages), then `REPS` timed `reset_to_image` + run
//! iterations. That matches how the serve fleet and the variant pool
//! actually execute — a pooled worker is reset to its image, not
//! rebuilt — and so isolates steady-state interpreter throughput from
//! one-time setup. The decoded program is shared by all repetitions
//! through the decode cache.
//!
//! Simulated cycle counts are a pure function of the seed; this binary
//! exists to track the *host-side* cost of producing them, which the
//! decoded-IR engine (superinstruction fusion, block runs, batched
//! icache accounting), the software TLB, and the dense dispatch table
//! optimize.
//!
//! `--smoke` is the CI perf gate: fewer reps, and exit non-zero unless
//! aggregate MIPS ≥ [`SMOKE_FLOOR_MIPS`] (set well below the recorded
//! number to absorb noisy shared runners). Comparisons between runs
//! belong to `perfbench`, which repeats and measures on one host.

use std::time::Instant;

use r2c_bench::{cli, json::Json, obj};
use r2c_core::{R2cCompiler, R2cConfig};
use r2c_ir::Module;
use r2c_vm::{ExitStatus, MachineKind, Vm, VmConfig};
use r2c_workloads::{captured_workloads, spec_workloads, Scale};

/// Repetitions per (workload, config) cell — Scale::Test programs run
/// in milliseconds, so repetition is needed for a stable wall-clock.
const REPS: u32 = 30;

/// Repetitions in `--smoke` mode: enough to warm the branch predictor
/// and get a stable-ish number, small enough for a CI gate.
const SMOKE_REPS: u32 = 5;

/// `--smoke` fails below this aggregate MIPS. The recorded full-run
/// number is ~3x higher; the floor only exists to catch order-of-
/// magnitude regressions (a disabled fast path, an accidental
/// per-instruction allocation) without flaking on loaded runners.
const SMOKE_FLOOR_MIPS: f64 = 150.0;

struct Cell {
    name: String,
    insns: u64,
    wall_s: f64,
}

impl Cell {
    fn mips(&self) -> f64 {
        self.insns as f64 / self.wall_s / 1e6
    }
}

fn run_cell(name: &str, module: &Module, cfg: R2cConfig, machine: MachineKind, reps: u32) -> Cell {
    let image = R2cCompiler::new(cfg).build(module).expect("compile failed");
    let vm_cfg = VmConfig::new(machine.config());
    // Warm-up run, excluded from timing: decodes the image, allocates
    // and dirties pages, trains the host branch predictor.
    let mut vm = Vm::new(&image, vm_cfg);
    assert!(matches!(vm.run().status, ExitStatus::Exited(_)));
    let mut insns = 0u64;
    let start = Instant::now();
    for _ in 0..reps {
        vm.reset_to_image();
        let out = vm.run();
        assert!(matches!(out.status, ExitStatus::Exited(_)));
        insns += out.stats.instructions;
    }
    Cell {
        name: name.to_string(),
        insns,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

fn main() {
    let smoke = cli::parse("usage: bench_vm [--smoke]").flag("--smoke");
    let reps = if smoke { SMOKE_REPS } else { REPS };

    let machine = MachineKind::EpycRome;
    let mut workloads = spec_workloads(Scale::Test);
    // The replay-captured workloads (`cap-*`) ride along: standalone
    // programs minted by `capture --bless` from recorded traces.
    workloads.extend(captured_workloads());
    let mut cells = Vec::new();
    for w in &workloads {
        cells.push(run_cell(
            &format!("{}/baseline", w.name),
            &w.module,
            R2cConfig::baseline(1),
            machine,
            reps,
        ));
        cells.push(run_cell(
            &format!("{}/full", w.name),
            &w.module,
            R2cConfig::full(1),
            machine,
            reps,
        ));
    }

    let total_insns: u64 = cells.iter().map(|c| c.insns).sum();
    let total_wall: f64 = cells.iter().map(|c| c.wall_s).sum();
    let total_mips = total_insns as f64 / total_wall / 1e6;

    println!(
        "VM host-side throughput ({} reps per cell, {}):",
        reps,
        machine.name()
    );
    for c in &cells {
        println!(
            "  {:<16} {:>12} insns  {:>8.1} ms  {:>7.2} MIPS",
            c.name,
            c.insns,
            c.wall_s * 1e3,
            c.mips()
        );
    }
    println!(
        "  total: {total_insns} guest insns in {:.1} ms => {total_mips:.2} MIPS",
        total_wall * 1e3
    );

    let cells = cells.iter().map(|c| {
        obj! {
            "name": c.name.as_str(), "guest_insns": c.insns,
            "wall_ms": Json::Fixed(c.wall_s * 1e3, 3), "mips": Json::Fixed(c.mips(), 3),
        }
    });
    let json = obj! {
        "machine": machine.name(),
        "reps_per_cell": reps,
        "cells": Json::arr(cells),
        "guest_insns_total": total_insns,
        "wall_ms_total": Json::Fixed(total_wall * 1e3, 3),
        "guest_mips_total": Json::Fixed(total_mips, 3),
    };
    let out = if smoke {
        "BENCH_vm_smoke.json"
    } else {
        "BENCH_vm.json"
    };
    std::fs::write(out, json.render()).expect("write bench json");
    println!("wrote {out}");

    if smoke && total_mips < SMOKE_FLOOR_MIPS {
        eprintln!(
            "PERF SMOKE FAIL: aggregate {total_mips:.2} MIPS < floor {SMOKE_FLOOR_MIPS:.0} MIPS"
        );
        std::process::exit(1);
    }
}
