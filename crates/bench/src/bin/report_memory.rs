//! Regenerates the **§6.2.5 memory-overhead measurement**: maximum
//! resident set size of the SPEC-like workloads and the web servers
//! under full R²C versus baseline, with the BTDP guard-page share
//! broken out.
//!
//! Paper: SPEC memory overhead 1–3%; web servers ≈ 100%, of which
//! about 55% stems from BTDP page allocations (the rest from BTRA
//! arrays and the larger binary).

use r2c_bench::{measure_once, parallel_map, TablePrinter};
use r2c_core::{R2cCompiler, R2cConfig};
use r2c_vm::{ExitStatus, MachineKind, Vm, VmConfig, PAGE_SIZE};
use r2c_workloads::{
    captured_workloads, spec_workloads, webserver::run_webserver, Scale, ServerKind,
};

/// End-of-run residency of one server build: (total resident pages,
/// resident pages within the heap region). Distinct from maxrss: freed
/// BTDP pool pages peak in maxrss but are released again, so only the
/// kept guard chunks and live data stay resident.
fn steady_state(kind: ServerKind, cfg: R2cConfig, machine: MachineKind) -> (usize, usize) {
    let module = r2c_workloads::webserver_module(kind, 2_000);
    let image = R2cCompiler::new(cfg).build(&module).expect("compile");
    let mut vm = Vm::new(&image, VmConfig::new(machine.config()));
    let out = vm.run();
    assert!(matches!(out.status, ExitStatus::Exited(_)));
    let heap = vm
        .mem
        .resident_pages_in(image.layout.heap_base, image.layout.heap_size);
    (vm.mem.resident_pages(), heap)
}

fn main() {
    let large = r2c_bench::cli::parse("usage: report_memory [--large]").flag("--large");
    let scale = if large { Scale::Large } else { Scale::Bench };
    let machine = MachineKind::I9_9900K;

    // The paper's aggregate covers its 12 SPEC profiles; the
    // replay-captured workloads (`cap-*`, minted by `capture --bless`
    // from recorded traces) follow in a section with their own geomean.
    let mut workloads = spec_workloads(scale);
    let n_spec = workloads.len();
    workloads.extend(captured_workloads());
    let rss_pairs = parallel_map(&workloads, |w| {
        let base = measure_once(&w.module, R2cConfig::baseline(0), machine, 1);
        let prot = measure_once(&w.module, R2cConfig::full(0), machine, 1);
        (base.stats.max_rss_bytes(), prot.stats.max_rss_bytes())
    });
    let t = TablePrinter::new(&[11, 14, 14, 10]);
    let sections = [
        (
            "Memory overhead (maxrss, paper §6.2.5)",
            0..n_spec,
            "\npaper: SPEC memory overhead 1-3%\n",
        ),
        (
            "Captured workloads (cap-*, not in the paper's set):",
            n_spec..workloads.len(),
            "",
        ),
    ];
    for (heading, rows, footer) in sections {
        println!("{heading}\n");
        t.row(&["benchmark", "baseline rss", "R2C rss", "overhead"].map(String::from));
        t.sep();
        let mut ratios = Vec::new();
        for wi in rows {
            let (b, p) = rss_pairs[wi];
            ratios.push(p as f64 / b as f64);
            t.row(&[
                workloads[wi].name.into(),
                format!("{} KiB", b / 1024),
                format!("{} KiB", p / 1024),
                format!("+{:.1}%", 100.0 * (p as f64 / b as f64 - 1.0)),
            ]);
        }
        t.sep();
        let geo = r2c_bench::geomean(&ratios);
        t.row(&[
            "geomean".into(),
            String::new(),
            String::new(),
            format!("+{:.1}%", 100.0 * (geo - 1.0)),
        ]);
        println!("{footer}");
    }
    println!("Webserver memory overhead:\n");
    let t2 = TablePrinter::new(&[8, 14, 14, 12, 18]);
    t2.row(&[
        "server".into(),
        "baseline rss".into(),
        "R2C rss".into(),
        "overhead".into(),
        "BTDP guard share".into(),
    ]);
    t2.sep();
    let kinds = [ServerKind::Nginx, ServerKind::Apache];
    let server_pairs = parallel_map(&kinds, |&kind| {
        let base = run_webserver(kind, 2_000, R2cConfig::baseline(1), machine);
        let prot = run_webserver(kind, 2_000, R2cConfig::full(1), machine);
        (base, prot)
    });
    for (&kind, (base, prot)) in kinds.iter().zip(&server_pairs) {
        // Guard-page contribution to the *peak*: the whole pool the
        // BTDP constructor cycles through is mapped at once before the
        // non-kept chunks are freed, so maxrss carries all pool pages
        // (the paper verified experimentally that ~55% of the overhead
        // came from these allocations). The freed remainder is released
        // again — see the steady-state table below.
        let btdp_cfg = R2cConfig::full(1).diversify.btdp.unwrap();
        let guard_bytes = btdp_cfg.pool_pages as u64 * PAGE_SIZE;
        let delta = prot.max_rss_bytes.saturating_sub(base.max_rss_bytes).max(1);
        let share = 100.0 * guard_bytes as f64 / delta as f64;
        t2.row(&[
            kind.name().into(),
            format!("{} KiB", base.max_rss_bytes / 1024),
            format!("{} KiB", prot.max_rss_bytes / 1024),
            format!(
                "+{:.0}%",
                100.0 * (prot.max_rss_bytes as f64 / base.max_rss_bytes as f64 - 1.0)
            ),
            format!("{share:.0}% of delta"),
        ]);
    }
    println!("\npaper: webserver memory overhead ~100%, ~55% of it from BTDP guard pages.");

    // Steady state: with the heap releasing wholly-freed pages, only
    // the kept guard chunks (plus the small quarantine) and live data
    // stay resident once the constructor has freed the rest of the
    // pool. Before the page-lifetime fix every pool page stayed
    // resident forever and this table equalled the peak.
    println!("\nSteady-state residency (end of run, not maxrss):\n");
    let t3 = TablePrinter::new(&[8, 16, 16, 17, 14]);
    t3.row(&[
        "server".into(),
        "baseline pages".into(),
        "R2C pages".into(),
        "R2C heap pages".into(),
        "kept guards".into(),
    ]);
    t3.sep();
    let steady = parallel_map(&kinds, |&kind| {
        let base = steady_state(kind, R2cConfig::baseline(1), machine);
        let prot = steady_state(kind, R2cConfig::full(1), machine);
        (base, prot)
    });
    let btdp_cfg = R2cConfig::full(1).diversify.btdp.unwrap();
    for (&kind, &((base_total, _), (prot_total, prot_heap))) in kinds.iter().zip(&steady) {
        t3.row(&[
            kind.name().into(),
            format!("{base_total}"),
            format!("{prot_total}"),
            format!("{prot_heap}"),
            format!("{}", btdp_cfg.kept_pages),
        ]);
    }
    println!(
        "\nfreed BTDP pool pages ({} of {}) are released after the constructor;\n\
         steady-state residency tracks live data + kept guards, not the pool peak.",
        btdp_cfg.pool_pages - btdp_cfg.kept_pages,
        btdp_cfg.pool_pages
    );
}
