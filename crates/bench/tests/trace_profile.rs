//! Integration tests for the r2c-trace layer: the tracer must be
//! invisible to the simulation (bit-identical [`ExecStats`]), its
//! attribution must be complete (self cycles sum to the total), and the
//! heap-page-lifetime fix must show up in end-of-run residency (the
//! golden check behind the re-derived §6.2.5 numbers).

use r2c_core::{R2cCompiler, R2cConfig};
use r2c_vm::{ExitStatus, MachineKind, Perms, TraceConfig, Vm, VmConfig, PAGE_SIZE};
use r2c_workloads::{spec_workloads, Scale, ServerKind};

/// Runs the image twice on `machine` — untraced and traced — asserting
/// bit-identical stats, and returns the traced VM for inspection.
fn run_traced_checked(image: &r2c_vm::Image, machine: MachineKind) -> Vm {
    let cfg = VmConfig::new(machine.config());
    let mut plain = Vm::new(image, cfg);
    let untraced = plain.run();
    assert!(matches!(untraced.status, ExitStatus::Exited(_)));

    let mut vm = Vm::new(image, cfg);
    vm.enable_trace(image, TraceConfig::default());
    let traced = vm.run();
    assert_eq!(traced.status, untraced.status);
    assert_eq!(
        traced.stats,
        untraced.stats,
        "tracing must not perturb the simulation ({})",
        machine.name()
    );
    vm
}

/// Zero-overhead-when-off contract, spec-style workload, all machines.
#[test]
fn tracing_is_invisible_on_spec_workload() {
    let w = &spec_workloads(Scale::Test)[4]; // omnetpp: call-heavy
    let image = R2cCompiler::new(R2cConfig::full(7))
        .build(&w.module)
        .unwrap();
    for machine in MachineKind::ALL {
        run_traced_checked(&image, machine);
    }
}

/// Same contract on the web server, whose BTDP constructor exercises
/// the malloc/free/mprotect natives the tracer hooks.
#[test]
fn tracing_is_invisible_on_webserver() {
    let module = r2c_workloads::webserver_module(ServerKind::Nginx, 100);
    let image = R2cCompiler::new(R2cConfig::full(3)).build(&module).unwrap();
    let vm = run_traced_checked(&image, MachineKind::I9_9900K);
    let p = vm.trace_profile().unwrap();
    assert!(p.heap.allocs > 0, "ctor allocations must be observed");
    assert!(p.heap.frees > 0, "ctor frees must be observed");
}

/// Attribution completeness: every cycle and instruction lands in
/// exactly one per-function row, and the folded stacks account for the
/// same cycle total.
#[test]
fn attribution_is_complete() {
    let w = &spec_workloads(Scale::Test)[3]; // lbm
    let image = R2cCompiler::new(R2cConfig::full(11))
        .build(&w.module)
        .unwrap();
    let vm = run_traced_checked(&image, MachineKind::EpycRome);
    let p = vm.trace_profile().unwrap();
    let cycle_sum: u64 = p.funcs.iter().map(|f| f.self_cycles).sum();
    let insn_sum: u64 = p.funcs.iter().map(|f| f.instructions).sum();
    assert_eq!(cycle_sum, p.totals.cycles, "self cycles must sum to total");
    assert_eq!(insn_sum, p.totals.instructions);
    let folded_sum: u64 = p.folded.iter().map(|(_, c)| c).sum();
    assert_eq!(
        folded_sum, p.totals.cycles,
        "folded stacks must cover all cycles"
    );
    assert!(!p.folded_stacks().is_empty());
    // Function rows are sorted for the report: hottest first.
    for w in p.funcs.windows(2) {
        assert!(w[0].self_cycles >= w[1].self_cycles);
    }
}

/// The golden check behind the re-derived memory numbers (§6.2.5,
/// EXPERIMENTS.md): after a full-R²C web-server run, the freed BTDP
/// pool pages must no longer be resident — end-of-run heap residency is
/// kept guards + quarantine + live data, strictly below the pool size —
/// while the kept guard pages are still mapped with no permissions.
#[test]
fn freed_btdp_pool_pages_are_not_resident_after_run() {
    let module = r2c_workloads::webserver_module(ServerKind::Nginx, 100);
    let cfg = R2cConfig::full(1);
    let btdp = cfg.diversify.btdp.unwrap();
    let (image, info) = R2cCompiler::new(cfg).build_with_info(&module).unwrap();
    let mut vm = Vm::new(&image, VmConfig::new(MachineKind::I9_9900K.config()));
    let out = vm.run();
    assert!(matches!(out.status, ExitStatus::Exited(_)));

    let heap_pages = vm
        .mem
        .mapped_pages_in(image.layout.heap_base, image.layout.heap_size);
    let guard_pages = heap_pages
        .iter()
        .filter(|&&(_, p)| p == Perms::NONE)
        .count();
    // All kept chunks (and the quarantine tail) are guard pages...
    assert!(
        guard_pages >= btdp.kept_pages as usize,
        "kept BTDP chunks must stay mapped as guards: {guard_pages} < {}",
        btdp.kept_pages
    );
    // ...but the freed pool pages have been released: total heap
    // residency stays below the pool the constructor cycled through.
    let live_pages = vm
        .heap
        .live_allocations()
        .map(|(a, s)| ((a + s).div_ceil(PAGE_SIZE) - a / PAGE_SIZE) as usize)
        .sum::<usize>();
    assert!(
        heap_pages.len() <= live_pages + r2c_vm::heap::DEFAULT_QUARANTINE_PAGES,
        "resident heap pages {} exceed live {} + quarantine — freed pool \
         pages leaked back into the resident set",
        heap_pages.len(),
        live_pages
    );
    assert!(
        heap_pages.len() < btdp.pool_pages as usize + live_pages - btdp.kept_pages as usize,
        "freed pool pages still resident"
    );
    let _ = info;
    vm.heap.check_invariants(&vm.mem).unwrap();
}

/// Path of the traced-attribution golden.
fn attribution_golden_path() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/trace_profile_golden.txt")
}

/// FNV-1a over a string, for digesting the full retained event ring.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// Renders everything a traced run attributes — per-function rows,
/// folded stacks, the event ring, heap counters and the dynamic-pair
/// census — for nginx and omnetpp on every machine model, one
/// `kind cell=<workload>/<machine> key=value...` record per line.
fn render_attribution() -> String {
    use std::fmt::Write as _;
    let omnetpp = spec_workloads(Scale::Test)
        .into_iter()
        .find(|w| w.name == "omnetpp")
        .unwrap();
    let cells = [
        (
            "nginx",
            r2c_workloads::webserver_module(ServerKind::Nginx, 20),
            R2cConfig::full(3),
        ),
        ("omnetpp", omnetpp.module, R2cConfig::full(7)),
    ];
    let mut s = String::from("# r2c traced-attribution golden v1\n");
    for (name, module, cfg) in cells {
        let image = R2cCompiler::new(cfg).build(&module).unwrap();
        for machine in MachineKind::ALL {
            let mut vm = Vm::new(&image, VmConfig::new(machine.config()));
            vm.enable_trace(&image, TraceConfig::default());
            vm.tracer_mut().unwrap().enable_pair_census(&image);
            let out = vm.run();
            assert!(matches!(out.status, ExitStatus::Exited(_)));
            let p = vm.trace_profile().unwrap();
            let cell = format!("{name}/{}", machine.name().replace(' ', "_"));
            let t = &p.totals;
            let _ = writeln!(
                s,
                "cell cell={cell} insns={} cycles={} misses={} calls={} rets={}",
                t.instructions, t.cycles, t.icache_misses, t.calls, t.rets
            );
            for f in &p.funcs {
                let _ = writeln!(
                    s,
                    "func cell={cell} name={} self={} insns={} misses={} calls={}",
                    f.name, f.self_cycles, f.instructions, f.icache_misses, f.calls
                );
            }
            for (stack, cycles) in &p.folded {
                let _ = writeln!(s, "fold cell={cell} stack={stack} cycles={cycles}");
            }
            let h = &p.heap;
            let _ = writeln!(
                s,
                "heap cell={cell} allocs={} frees={} peak_live={} peak_resident={} \
                 end_live={} end_resident={} released={} quarantined={} timeline={}",
                h.allocs,
                h.frees,
                h.peak_live_bytes,
                h.peak_resident_pages,
                h.end_live_bytes,
                h.end_resident_pages,
                h.released_pages,
                h.quarantined_pages,
                h.timeline.len()
            );
            let ring: String = p.events.iter().map(|e| format!("{e:?}\n")).collect();
            let _ = writeln!(
                s,
                "events cell={cell} kept={} dropped={} fnv={:016x}",
                p.events.len(),
                p.dropped_events,
                fnv1a(&ring)
            );
            for e in p.events.iter().rev().take(8).rev() {
                let _ = writeln!(s, "event cell={cell} {e:?}");
            }
            let census = vm.pair_census().unwrap();
            let _ = writeln!(
                s,
                "census cell={cell} total={} covered={}",
                census.total_pairs(),
                census.covered_pairs()
            );
            for (pair, count, _) in census.rows() {
                let _ = writeln!(s, "pair cell={cell} pair={pair} count={count}");
            }
        }
    }
    s
}

/// Pins what the tracer attributes, not just that it is invisible: the
/// per-function rows, folded stacks, event ring, heap counters and pair
/// census must stay exactly as recorded. To re-record after an
/// intentional change:
/// `R2C_BLESS=1 cargo test -p r2c-bench --test trace_profile`
#[test]
fn traced_attribution_matches_golden() {
    let got = render_attribution();
    let path = attribution_golden_path();
    if std::env::var_os("R2C_BLESS").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {}: {e} (run with R2C_BLESS=1 to record)",
            path.display()
        )
    });
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} of {} differs", i + 1, path.display());
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "record count changed"
    );
}
