//! The r2c-trace profiler driver: builds a workload with compile
//! telemetry, runs it twice per machine model — once untraced, once
//! under the execution tracer — and writes `PROFILE_<workload>.json`
//! with the per-pass compile report, per-function cycle attribution,
//! heap telemetry and the bounded event trace.
//!
//! Every profile run doubles as a three-way self-check of the
//! execution engine: fused decoding (superinstructions and block runs),
//! per-instruction decoding (`no_fuse`), and the traced run of the same
//! fused engine must produce [`ExecStats`] that agree in *every* field,
//! or the binary exits non-zero — so CI catches both a tracer that
//! perturbs the simulation and a fused decoding that drifts from the
//! per-instruction semantics. Folded stacks are additionally written
//! to `PROFILE_<workload>_<machine>.folded`, ready for `flamegraph.pl`.
//!
//! ```text
//! profile [--workload <name>] [--preset baseline|full|push]
//!         [--machine <name>|all] [--scale test|bench|large]
//!         [--requests N] [--seed N]
//! ```
//!
//! `<name>` is `nginx`/`apache`, one of the 12 SPEC-style workloads
//! (e.g. `omnetpp`) or one of the captured `cap-*` workloads (which run
//! at their recorded size, whatever `--scale`). Defaults: `nginx`,
//! `full`, all machines, `--scale bench`, 500 requests, seed 1.

use r2c_bench::cli::{self, Args};
use r2c_bench::{json::Json, obj};
use r2c_core::{R2cCompiler, R2cConfig};
use r2c_ir::Module;
use r2c_vm::{ExecStats, ExitStatus, MachineKind, TraceConfig, Vm, VmConfig};
use r2c_workloads::{captured_workloads, spec_workloads, Scale, ServerKind};

const USAGE: &str = "usage: profile [--workload <name>] [--preset baseline|full|push] \
     [--machine <name>|all] [--scale test|bench|large] [--requests N] [--seed N]";

fn machine_slug(m: MachineKind) -> String {
    m.name()
        .to_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

fn find_workload(args: &Args, name: &str, scale: Scale, requests: u64) -> Module {
    match name {
        "nginx" => r2c_workloads::webserver_module(ServerKind::Nginx, requests),
        "apache" => r2c_workloads::webserver_module(ServerKind::Apache, requests),
        _ => {
            let mut workloads = spec_workloads(scale);
            workloads.extend(captured_workloads());
            match workloads.iter().position(|w| w.name == name) {
                Some(i) => workloads.swap_remove(i).module,
                None => args.fail(&format!(
                    "unknown workload {name:?}; expected nginx, apache, or one of {:?}",
                    workloads.iter().map(|w| w.name).collect::<Vec<_>>()
                )),
            }
        }
    }
}

/// One field-by-field line per divergence, so a broken tracer is
/// diagnosable from the CI log alone.
fn explain_divergence(untraced: &ExecStats, traced: &ExecStats) {
    let pairs = [
        ("instructions", untraced.instructions, traced.instructions),
        ("cycles", untraced.cycles, traced.cycles),
        ("calls", untraced.calls, traced.calls),
        ("rets", untraced.rets, traced.rets),
        ("native_calls", untraced.native_calls, traced.native_calls),
        (
            "icache_misses",
            untraced.icache_misses,
            traced.icache_misses,
        ),
        ("icache_hits", untraced.icache_hits, traced.icache_hits),
        (
            "max_rss_pages",
            untraced.max_rss_pages as u64,
            traced.max_rss_pages as u64,
        ),
        (
            "avx_transitions",
            untraced.avx_transitions,
            traced.avx_transitions,
        ),
    ];
    for (name, u, t) in pairs {
        if u != t {
            eprintln!("  {name}: untraced {u} != traced {t}");
        }
    }
}

fn main() {
    let args = cli::parse(USAGE);
    let workload = args.value("--workload").unwrap_or("nginx");
    let preset = args.value("--preset").unwrap_or("full");
    let seed: u64 = args.get_or("--seed", 1);
    let requests: u64 = args.get_or("--requests", 500);
    let scale = match args.value("--scale") {
        Some("test") => Scale::Test,
        Some("large") => Scale::Large,
        None | Some("bench") => Scale::Bench,
        Some(other) => args.fail(&format!("unknown scale {other:?}")),
    };
    let cfg = match preset {
        "baseline" => R2cConfig::baseline(seed),
        "full" => R2cConfig::full(seed),
        "push" => R2cConfig::full_push(seed),
        other => args.fail(&format!(
            "unknown preset {other:?}; expected baseline, full or push"
        )),
    };
    let machines: Vec<MachineKind> = match args.value("--machine") {
        None | Some("all") => MachineKind::ALL.to_vec(),
        Some(name) => {
            let want = name.to_lowercase().replace('-', "_");
            match MachineKind::ALL
                .into_iter()
                .find(|m| machine_slug(*m).contains(&want))
            {
                Some(m) => vec![m],
                None => args.fail(&format!("unknown machine {name:?}")),
            }
        }
    };

    let module = find_workload(&args, workload, scale, requests);
    let (image, _info, report) = R2cCompiler::new(cfg)
        .build_with_report(&module)
        .expect("workload must compile");
    println!(
        "compiled {workload}/{preset} (seed {seed}): {} passes, {} us, text {} -> {} bytes",
        report.passes.len(),
        report.total_wall_us(),
        report.prelink_text_bytes,
        report.image_text_bytes
    );

    let mut entries = Vec::new();
    for machine in &machines {
        let vm_cfg = VmConfig::new(machine.config());

        let mut plain = Vm::new(&image, vm_cfg);
        let untraced = plain.run();
        assert!(
            matches!(untraced.status, ExitStatus::Exited(_)),
            "untraced run crashed: {:?}",
            untraced.status
        );

        // Second leg of the three-way engine check: the same image on
        // per-instruction decoding (no superinstruction fusion, no
        // block runs) must produce the same simulation bit-for-bit.
        let mut unfused_vm = Vm::new(
            &image,
            VmConfig {
                no_fuse: true,
                ..vm_cfg
            },
        );
        let unfused = unfused_vm.run();
        assert_eq!(unfused.status, untraced.status, "exit status diverged");
        if unfused.stats != untraced.stats {
            eprintln!(
                "FAIL: fused and unfused engines disagree on {} — the \
                 decoded engine's bit-identical contract is broken:",
                machine.name()
            );
            explain_divergence(&untraced.stats, &unfused.stats);
            std::process::exit(1);
        }

        let mut vm = Vm::new(&image, vm_cfg);
        vm.enable_trace(&image, TraceConfig::default());
        let traced = vm.run();
        assert_eq!(traced.status, untraced.status, "exit status diverged");
        if traced.stats != untraced.stats {
            eprintln!(
                "FAIL: tracing perturbed the simulation on {} — the \
                 zero-overhead-when-off contract is broken:",
                machine.name()
            );
            explain_divergence(&untraced.stats, &traced.stats);
            std::process::exit(1);
        }

        let profile = vm.trace_profile().expect("tracer was enabled");
        println!(
            "\n{} — {} cycles, {} insns (traced == untraced == unfused):",
            machine.name(),
            traced.stats.cycles,
            traced.stats.instructions
        );
        println!("  top functions by self cycles:");
        for f in profile.funcs.iter().take(10) {
            println!(
                "    {:<28} {:>14} cycles  {:>11} insns  {:>8} calls  {:>7} i$ miss",
                f.name, f.self_cycles, f.instructions, f.calls, f.icache_misses
            );
        }
        println!(
            "  heap: peak {} live bytes / {} resident pages, end {} bytes / {} pages, \
             {} allocs {} frees, {} pages released, {} quarantined",
            profile.heap.peak_live_bytes,
            profile.heap.peak_resident_pages,
            profile.heap.end_live_bytes,
            profile.heap.end_resident_pages,
            profile.heap.allocs,
            profile.heap.frees,
            profile.heap.released_pages,
            profile.heap.quarantined_pages
        );

        let folded_path = format!("PROFILE_{workload}_{}.folded", machine_slug(*machine));
        std::fs::write(&folded_path, profile.folded_stacks()).expect("write folded stacks");
        println!("  wrote {folded_path}");

        entries.push(obj! { "machine": machine.name(), "exec": &profile });
    }

    let json = obj! {
        "workload": workload,
        "preset": preset,
        "seed": seed,
        "compile": &report,
        "machines": Json::Arr(entries),
    };
    let out = format!("PROFILE_{workload}.json");
    std::fs::write(&out, json.render()).expect("write profile json");
    println!("\nwrote {out}");
}
