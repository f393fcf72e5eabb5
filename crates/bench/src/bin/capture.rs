//! `capture` — drives the record-reduce-replay workload pipeline.
//!
//! ```text
//! capture --bless             # regenerate every checked-in artifact
//! capture --verify [--smoke]  # CI gate: re-reduce + replay everything
//! capture --census            # dynamic-pair census over all workloads
//! ```
//!
//! * `--bless` records, reduces and replay-verifies each workload
//!   archetype plus the webserver run, rewriting
//!   `crates/replay/workloads/*.r2cir`, the golden traces under
//!   `crates/replay/tests/traces/`, and the captured corpus entry in
//!   `crates/fuzz/corpus/`.
//! * `--verify` re-reduces the `cap-interp` golden from source and
//!   byte-compares it against the checked-in artifacts, then replays
//!   every checked-in workload across all four machine models with a
//!   per-machine three-way `ExecStats` identity check (fused vs
//!   `no_fuse` vs traced). Writes `BENCH_replay.json` and exits
//!   non-zero on any mismatch. `--smoke` restricts the replay sweep to
//!   one machine for the debug-build CI lane.
//! * `--census` runs the DESIGN.md §11 dynamic-pair census over the 12
//!   SPEC-profiled workloads *and* the captured workloads, printing
//!   per-pair counts and the fusion-catalogue coverage.

use std::path::{Path, PathBuf};

use r2c_bench::{json::Json, obj, TablePrinter};
use r2c_core::{R2cCompiler, R2cConfig};
use r2c_ir::Module;
use r2c_replay::{
    capture_pipeline, capture_pipeline_with_arrivals, default_env, record::schedule_arrivals,
    source, sources, verify_trace, Captured, CapturedTrace, RecordConfig, ReplayStub,
};
use r2c_serve::Schedule;
use r2c_vm::{ExecStats, ExitStatus, MachineKind, PairCensus, TraceConfig, Vm, VmConfig};
use r2c_workloads::{captured_workloads, spec_workloads, Scale, ServerKind};

/// Webserver requests in the recorded run (kept small: the captured
/// module replays in every debug-mode suite).
const WEBSRV_REQUESTS: u64 = 24;
/// Delta-debugging rounds for the archetype sources.
const REDUCE_ROUNDS: usize = 3;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn workload_path(name: &str) -> PathBuf {
    repo_root().join(format!("crates/replay/workloads/{name}.r2cir"))
}

fn trace_path(name: &str) -> PathBuf {
    repo_root().join(format!("crates/replay/tests/traces/{name}.r2ct"))
}

/// Builds all five captures from their sources (the bless/verify
/// ground truth).
fn build_all() -> Vec<(String, Captured)> {
    let rc = RecordConfig::default();
    let mut out = Vec::new();
    for &a in sources::ALL {
        let m = source(a, &default_env(a));
        let cap = capture_pipeline(a.name(), &m, &rc, REDUCE_ROUNDS)
            .unwrap_or_else(|e| panic!("capture of {} failed: {e}", a.name()));
        out.push((a.name().to_string(), cap));
    }
    // The webserver capture: an open-loop schedule contributes arrival
    // ops; its handler table holds code pointers, so the
    // interpreter-globals oracle does not apply and reduction is
    // skipped (reduce_rounds = 0).
    let ws = r2c_workloads::webserver_module(ServerKind::Nginx, WEBSRV_REQUESTS);
    let sched = Schedule::generate_open_loop(7, 1, WEBSRV_REQUESTS as usize, 0, 2_000);
    let arrivals = schedule_arrivals(&sched);
    let cap =
        capture_pipeline_with_arrivals("cap-websrv", &ws, &RecordConfig::default(), 0, &arrivals)
            .unwrap_or_else(|e| panic!("capture of cap-websrv failed: {e}"));
    out.push(("cap-websrv".to_string(), cap));
    out
}

fn bless() {
    for (name, cap) in build_all() {
        let file = r2c_replay::workload_file(&cap, &name);
        std::fs::write(workload_path(&name), &file).expect("write workload");
        std::fs::write(trace_path(&name), cap.trace.encode()).expect("write trace");
        println!(
            "blessed {name}: {} ops ({} expanded), {} insns, {} funcs ({} reduced away)",
            cap.trace.ops.len(),
            cap.trace.expanded_len(),
            cap.trace.summary.instructions,
            cap.module.funcs.len(),
            cap.reduced_away
        );
        if name == "cap-churn" {
            // Admit the captured program to the fuzz corpus so the
            // mutation engine evolves it like any other entry.
            let entry = format!(
                "# r2c-fuzz corpus entry\n# energy: 4\n{}",
                r2c_ir::print_module(&cap.module)
            );
            let path = repo_root().join("crates/fuzz/corpus/captured-churn.r2cir");
            std::fs::write(path, entry).expect("write corpus entry");
            println!("blessed crates/fuzz/corpus/captured-churn.r2cir");
        }
    }
}

/// One three-way replay of `module` on `machine`: fused, unfused, and
/// traced stats must be identical, and the run must exit cleanly.
fn replay_three_way(module: &Module, machine: MachineKind) -> Result<ExecStats, String> {
    let image = R2cCompiler::new(R2cConfig::baseline(0))
        .build(module)
        .map_err(|e| format!("build: {e:?}"))?;
    let run = |no_fuse: bool, traced: bool| -> Result<(ExecStats, i64, Vec<i64>), String> {
        let mut cfg = VmConfig::new(machine.config());
        cfg.no_fuse = no_fuse;
        let mut vm = Vm::new(&image, cfg);
        if traced {
            vm.enable_trace(&image, TraceConfig::default());
        }
        let out = vm.run();
        match out.status {
            ExitStatus::Exited(code) => Ok((out.stats, code, vm.output.clone())),
            other => Err(format!("did not exit: {other:?}")),
        }
    };
    let fused = run(false, false)?;
    let unfused = run(true, false)?;
    let traced = run(false, true)?;
    if fused != unfused || fused != traced {
        return Err(format!(
            "{machine:?}: three-way stats diverge\n  fused:   {:?}\n  unfused: {:?}\n  traced:  {:?}",
            fused, unfused, traced
        ));
    }
    Ok(fused.0)
}

fn verify(smoke: bool) {
    let mut failures: Vec<String> = Vec::new();
    let mut rows = Vec::new();

    // 1. Re-reduce the cap-interp golden from source; the pipeline is
    // deterministic, so the artifact bytes must match exactly.
    let rc = RecordConfig::default();
    let a = sources::Archetype::Interp;
    let m = source(a, &default_env(a));
    match capture_pipeline(a.name(), &m, &rc, REDUCE_ROUNDS) {
        Ok(cap) => {
            let fresh = r2c_replay::workload_file(&cap, a.name());
            let on_disk = std::fs::read_to_string(workload_path(a.name())).unwrap_or_default();
            if fresh != on_disk {
                failures.push(
                    "cap-interp re-reduction differs from checked-in workload (run `capture --bless`)"
                        .into(),
                );
            }
            let golden = std::fs::read(trace_path(a.name())).unwrap_or_default();
            if cap.trace.encode() != golden {
                failures.push(
                    "cap-interp re-recorded trace differs from golden .r2ct (run `capture --bless`)"
                        .into(),
                );
            } else {
                println!(
                    "golden re-reduction: cap-interp ok ({} ops)",
                    cap.trace.ops.len()
                );
            }
        }
        Err(e) => failures.push(format!("cap-interp re-reduction failed: {e}")),
    }

    // 2. Replay every checked-in workload: golden trace replays
    // bit-exactly under the record config, and ExecStats are
    // three-way-identical per machine.
    let machines: &[MachineKind] = if smoke {
        &[MachineKind::EpycRome]
    } else {
        &MachineKind::ALL
    };
    for w in captured_workloads() {
        let golden = std::fs::read(trace_path(w.name)).unwrap_or_default();
        match CapturedTrace::decode(&golden) {
            Ok(trace) => {
                if let Err(errs) = verify_trace(&trace, &w.module, &rc) {
                    failures.push(format!(
                        "{}: golden trace does not replay: {}",
                        w.name, errs[0]
                    ));
                }
                let _ = ReplayStub::from_trace(&trace);
            }
            Err(e) => failures.push(format!("{}: golden trace unreadable: {e}", w.name)),
        }
        let mut per_machine = Vec::new();
        for &mk in machines {
            match replay_three_way(&w.module, mk) {
                Ok(stats) => per_machine.push((mk, stats)),
                Err(e) => failures.push(format!("{}: {e}", w.name)),
            }
        }
        if let Some((mk, stats)) = per_machine.first() {
            println!(
                "replayed {}: {} insns, {} cycles on {:?} ({} machines, three-way identical)",
                w.name,
                stats.instructions,
                stats.cycles,
                mk,
                per_machine.len()
            );
            rows.push(obj! {
                "name": w.name, "machines": per_machine.len(),
                "instructions": stats.instructions, "calls": stats.calls,
            });
        }
    }
    let report = obj! { "workloads": Json::Arr(rows), "smoke": smoke, "failures": failures.len() };
    std::fs::write("BENCH_replay.json", report.render()).expect("write BENCH_replay.json");

    if !failures.is_empty() {
        eprintln!("capture --verify FAILED:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
    println!(
        "capture --verify ok ({} machines per workload)",
        machines.len()
    );
}

/// Runs a module under the census tracer, folding its executed
/// adjacent-pair counts into `total`.
fn census_run(module: &Module, total: &mut Option<PairCensus>) -> (u64, f64) {
    let image = R2cCompiler::new(R2cConfig::baseline(0))
        .build(module)
        .expect("build");
    let mut vm = Vm::new(&image, VmConfig::new(MachineKind::EpycRome.config()));
    vm.enable_trace(&image, TraceConfig::default());
    vm.tracer_mut().unwrap().enable_pair_census(&image);
    let out = vm.run();
    assert!(matches!(out.status, ExitStatus::Exited(_)));
    let census = vm.pair_census().expect("census enabled").clone();
    let pairs = census.total_pairs();
    let cov = census.coverage();
    match total {
        Some(t) => t.merge(&census),
        None => *total = Some(census),
    }
    (pairs, cov)
}

fn census() {
    println!("Dynamic adjacent-pair census (DESIGN.md §11 / §14)\n");
    let t = TablePrinter::new(&[12, 16, 10]);
    t.row(&[
        "workload".into(),
        "adjacent pairs".into(),
        "coverage".into(),
    ]);
    t.sep();
    let mut total: Option<PairCensus> = None;
    for w in spec_workloads(Scale::Test)
        .into_iter()
        .chain(captured_workloads())
    {
        let (pairs, cov) = census_run(&w.module, &mut total);
        t.row(&[
            w.name.into(),
            pairs.to_string(),
            format!("{:.1}%", cov * 100.0),
        ]);
    }
    let total = total.expect("at least one workload");
    println!(
        "\naggregate: {} executed adjacent pairs, {} covered by the 15-pair catalogue ({:.1}%)",
        total.total_pairs(),
        total.covered_pairs(),
        total.coverage() * 100.0
    );
    println!("\ntop pairs (catalogue membership marked *):");
    for (name, count, in_catalogue) in total.rows().into_iter().take(12) {
        println!(
            "  {:>12}  {}{}",
            count,
            name,
            if in_catalogue { "  *" } else { "" }
        );
    }
}

fn main() {
    let args = r2c_bench::cli::parse("usage: capture --bless | --verify [--smoke] | --census");
    match () {
        _ if args.flag("--bless") => bless(),
        _ if args.flag("--verify") => verify(args.flag("--smoke")),
        _ if args.flag("--census") => census(),
        _ => args.fail("expected --bless, --verify or --census"),
    }
}
