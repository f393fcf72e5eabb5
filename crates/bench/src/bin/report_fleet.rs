//! Regenerates the **fleet-scaling evaluation**: copy-on-write worker
//! forking driven to 1000+ workers under an open-loop (Poisson) arrival
//! process, with request-latency tail percentiles and a fork-cost table
//! proving that CoW forks and resets are O(dirty pages) — independent
//! of image size — while the pre-CoW deep copy scales with the image.
//!
//! ```text
//! cargo run --release -p r2c-bench --bin report_fleet -- \
//!     [--smoke] [--verify-determinism]
//! ```
//!
//! * `--smoke` — CI sizes (smaller fleets and schedules, same
//!   structure and the same exit-code gates).
//! * `--verify-determinism` — re-run every fleet scenario serially and
//!   fail unless the monitor log, metrics and per-request latencies are
//!   bit-identical to the work-stealing parallel run.
//!
//! Writes `BENCH_fleet.json` with a `deterministic` section (scaling
//! curve, tail percentiles, CoW-vs-deep equivalence — pure functions of
//! the seeds) and a `host` section (wall-clock throughput and the
//! fork-cost table, which depend on the machine running the report).
//!
//! Exits non-zero if a scaling invariant fails:
//! * a warm CoW fork of a large image must cost no more than 10x a CoW
//!   fork of a small image (floored at 1 us — forks must not scale
//!   with image size);
//! * the deep copy must visibly scale with the image (the contrast that
//!   makes the CoW number meaningful);
//! * a CoW fork must copy zero private frames up front;
//! * the fleet must produce bit-identical logs, metrics and latencies
//!   with CoW disabled (`no_cow`), proving CoW is guest-invisible.

use std::process::ExitCode;
use std::time::Instant;

use r2c_attacks::victim::victim_module;
use r2c_bench::{json::Json, obj, run_fleet_verified, TablePrinter};
use r2c_core::R2cConfig;
use r2c_serve::{run_fleet, ExecMode, FleetConfig, FleetRun, ReactionPolicy, Schedule};
use r2c_vm::image::{Image, NativeKind, SectionLayout, Symbol, SymbolKind};
use r2c_vm::machine::MachineKind;
use r2c_vm::{Insn, Vm, VmConfig, PAGE_SIZE};

struct Sizes {
    /// Fleet sizes for the workers-vs-throughput curve.
    fleets: Vec<u32>,
    /// Open-loop events per worker in each scaling run.
    events_per_worker: usize,
    /// Workers in the tail-latency scenario.
    tail_workers: u32,
    /// Events in the tail-latency scenario.
    tail_events: usize,
    /// Timing iterations per fork-cost cell.
    fork_iters: usize,
}

/// Served requests per host second (0 for a run that took no time).
fn req_per_s(run: &FleetRun, wall_ms: f64) -> f64 {
    if wall_ms > 0.0 {
        run.metrics.served as f64 / (wall_ms / 1e3)
    } else {
        0.0
    }
}

/// Nearest-rank percentile (q in [0,1]) over simulated-cycle latencies.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Synthesizes a bootable image whose initialized data section spans
/// `data_pages` pages, so fork cost can be measured against image size.
fn synthetic_image(data_pages: u64) -> Image {
    let text_base = 0x40_0000u64;
    let data_base = 0x6000_0000u64;
    let data_len = data_pages * PAGE_SIZE;
    Image {
        insns: vec![Insn::Ret],
        insn_addrs: vec![text_base],
        layout: SectionLayout {
            text_base,
            text_end: text_base + PAGE_SIZE,
            data_base,
            data_end: data_base + data_len,
            heap_base: 0x10_0000_0000,
            heap_size: 16 * 1024 * 1024,
            stack_top: 0x7fff_ffff_f000,
            stack_size: 1024 * 1024,
        },
        entry: text_base,
        constructors: vec![],
        data_init: vec![(data_base, vec![0xA5u8; data_len as usize])],
        xom: true,
        symbols: vec![Symbol {
            name: "main".into(),
            addr: text_base,
            size: 0,
            kind: SymbolKind::Function,
        }],
        natives: vec![NativeKind::Malloc, NativeKind::Free],
        unwind: Default::default(),
    }
}

/// Median of timing samples, in microseconds.
fn median_us(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

struct ForkRow {
    image_pages: usize,
    cow_fork_us: f64,
    cow_reset_us: f64,
    deep_fork_us: f64,
    private_after_cow_fork: usize,
}

/// Times CoW fork, CoW reset (8 dirty pages) and the pre-CoW deep fork
/// for one image size.
fn fork_cost(data_pages: u64, iters: usize) -> ForkRow {
    let image = synthetic_image(data_pages);
    let cfg = VmConfig {
        no_cow: false,
        ..VmConfig::new(MachineKind::EpycRome.config())
    };
    let vm = Vm::new(&image, cfg);
    let image_pages = vm.mem.resident_pages();

    // Warm CoW fork: O(regions), no page copies.
    let mut cow_fork = Vec::with_capacity(iters);
    let mut private_after = usize::MAX;
    for _ in 0..iters + 2 {
        let t0 = Instant::now();
        let child = vm.fork_from_image();
        let dt = t0.elapsed().as_secs_f64() * 1e6;
        private_after = private_after.min(child.mem.private_frames());
        cow_fork.push(dt);
        drop(child);
    }
    cow_fork.drain(..2); // warmup

    // CoW reset with a fixed dirty set: O(dirty pages), not O(image).
    let mut worker = vm.fork_from_image();
    let data_base = image.layout.data_base;
    let mut cow_reset = Vec::with_capacity(iters);
    for i in 0..iters {
        for p in 0..8u64 {
            worker
                .mem
                .write_u64(data_base + p * PAGE_SIZE, i as u64)
                .expect("dirtying data page");
        }
        let t0 = Instant::now();
        worker.reset_to_image();
        cow_reset.push(t0.elapsed().as_secs_f64() * 1e6);
    }

    // The pre-CoW path: every fork deep-copies the whole image.
    let deep_cfg = VmConfig {
        no_cow: true,
        ..cfg
    };
    let deep_vm = Vm::new(&image, deep_cfg);
    let mut deep_fork = Vec::with_capacity(iters);
    for _ in 0..iters + 2 {
        let t0 = Instant::now();
        let child = deep_vm.fork_from_image();
        let dt = t0.elapsed().as_secs_f64() * 1e6;
        deep_fork.push(dt);
        drop(child);
    }
    deep_fork.drain(..2);

    ForkRow {
        image_pages,
        cow_fork_us: median_us(cow_fork),
        cow_reset_us: median_us(cow_reset),
        deep_fork_us: median_us(deep_fork),
        private_after_cow_fork: private_after,
    }
}

fn main() -> ExitCode {
    let args = r2c_bench::cli::parse("usage: report_fleet [--smoke] [--verify-determinism]");
    let (smoke, verify) = (args.flag("--smoke"), args.flag("--verify-determinism"));
    let sizes = if smoke {
        Sizes {
            fleets: vec![8, 32, 128, 256],
            events_per_worker: 2,
            tail_workers: 128,
            tail_events: 512,
            fork_iters: 8,
        }
    } else {
        Sizes {
            fleets: vec![8, 64, 256, 1024],
            events_per_worker: 4,
            tail_workers: 256,
            tail_events: 2048,
            fork_iters: 32,
        }
    };
    let mut errors: Vec<String> = Vec::new();
    let victim = victim_module();
    let build = R2cConfig::full(0);

    // Calibrate the open-loop arrival rate from the deterministic
    // cost of a request, targeting ~50% fleet utilization: with mean
    // service time S cycles and W workers, a global mean gap of
    // 2S/W keeps the fleet half loaded on average.
    let calib_sched = Schedule::generate(0xCA11, 4, 64, 0);
    let calib = run_fleet(
        &victim,
        &FleetConfig::new(build, ReactionPolicy::RespawnFreshVariant),
        &calib_sched,
        ExecMode::Serial,
    );
    let service_cycles = calib.metrics.cycles_per_request().max(1.0);
    let gap_for = |workers: u32| ((2.0 * service_cycles / workers as f64) as u64).max(1);

    // -- 1. Workers vs throughput (open-loop, light probe load) -------
    println!("== Fleet scaling: workers vs throughput (open-loop arrivals) ==\n");
    let t = TablePrinter::new(&[9, 8, 12, 8, 10, 10, 11]);
    t.row(&[
        "workers".into(),
        "events".into(),
        "served".into(),
        "avail".into(),
        "cyc/req".into(),
        "wall ms".into(),
        "req/s".into(),
    ]);
    t.sep();
    struct ScaleRow {
        workers: u32,
        events: usize,
        run: FleetRun,
        wall_ms: f64,
    }
    let mut scaling: Vec<ScaleRow> = Vec::new();
    for &workers in &sizes.fleets {
        let events = workers as usize * sizes.events_per_worker;
        let sched = Schedule::generate_open_loop(0x51ED, workers, events, 50, gap_for(workers));
        let fc = FleetConfig {
            fleet_seed: 42,
            ..FleetConfig::new(build, ReactionPolicy::RespawnFreshVariant).sized_for(workers)
        };
        let (run, wall_ms) = run_fleet_verified(
            &victim,
            &fc,
            &sched,
            verify,
            &format!("scale/{workers}"),
            &mut errors,
        );
        let m = &run.metrics;
        t.row(&[
            workers.to_string(),
            events.to_string(),
            format!("{}/{}", m.served, m.requests),
            format!("{:.3}", m.availability()),
            format!("{:.0}", m.cycles_per_request()),
            format!("{wall_ms:.1}"),
            format!("{:.0}", req_per_s(&run, wall_ms)),
        ]);
        scaling.push(ScaleRow {
            workers,
            events,
            run,
            wall_ms,
        });
    }
    let served_small = scaling.first().map_or(0, |r| r.run.metrics.served);
    let served_large = scaling.last().map_or(0, |r| r.run.metrics.served);
    if served_large <= served_small {
        errors.push(format!(
            "throughput curve is flat: {served_small} served at {} workers vs {served_large} at {}",
            scaling.first().map_or(0, |r| r.workers),
            scaling.last().map_or(0, |r| r.workers),
        ));
    }

    // -- 2. Tail latency under probe load -----------------------------
    println!("\n== Request-latency percentiles under probe load (open-loop) ==\n");
    let tail_gap = gap_for(sizes.tail_workers);
    let tail_sched =
        Schedule::generate_open_loop(0x7A11, sizes.tail_workers, sizes.tail_events, 150, tail_gap);
    let tail_fc = FleetConfig {
        fleet_seed: 7,
        ..FleetConfig::new(build, ReactionPolicy::RespawnFreshVariant).sized_for(sizes.tail_workers)
    };
    let (tail_run, tail_wall_ms) = run_fleet_verified(
        &victim,
        &tail_fc,
        &tail_sched,
        verify,
        "tail/probe-load",
        &mut errors,
    );
    let mut lat = tail_run.request_latencies.clone();
    lat.sort_unstable();
    let (p50, p99, p999) = (
        percentile(&lat, 0.50),
        percentile(&lat, 0.99),
        percentile(&lat, 0.999),
    );
    println!(
        "{} workers, {} events (15% probes), mean gap {} cycles:",
        sizes.tail_workers, sizes.tail_events, tail_gap
    );
    println!(
        "  served {}  p50 {} cycles  p99 {} cycles  p99.9 {} cycles  max {} cycles",
        lat.len(),
        p50,
        p99,
        p999,
        lat.last().copied().unwrap_or(0)
    );
    if lat.is_empty() {
        errors.push("tail-latency scenario served no requests".into());
    }

    // -- 3. CoW must be guest-invisible at fleet scale ----------------
    // The same tail scenario with the pre-CoW deep-copy memory path
    // must produce bit-identical logs, metrics and latencies.
    let deep_fc = FleetConfig {
        no_cow: true,
        ..tail_fc.clone()
    };
    let deep_run = run_fleet(&victim, &deep_fc, &tail_sched, ExecMode::Parallel);
    let cow_log_ok = deep_run.log == tail_run.log;
    let cow_metrics_ok = deep_run.metrics == tail_run.metrics;
    let cow_lat_ok = deep_run.request_latencies == tail_run.request_latencies;
    if cow_log_ok && cow_metrics_ok && cow_lat_ok {
        println!("\ncow-vs-deep: logs, metrics and latencies bit-identical");
    } else {
        errors.push(format!(
            "CoW leaked into guest state: log identical = {cow_log_ok}, \
             metrics identical = {cow_metrics_ok}, latencies identical = {cow_lat_ok}"
        ));
    }

    // -- 4. Fork cost vs image size -----------------------------------
    println!("\n== Fork cost vs image size (warm CoW vs deep copy) ==\n");
    let fork_pages: [u64; 3] = [16, 256, 4096];
    let t = TablePrinter::new(&[13, 13, 14, 14, 12]);
    t.row(&[
        "image pages".into(),
        "cow fork us".into(),
        "cow reset us".into(),
        "deep fork us".into(),
        "cow frames".into(),
    ]);
    t.sep();
    let rows: Vec<ForkRow> = fork_pages
        .iter()
        .map(|&p| fork_cost(p, sizes.fork_iters))
        .collect();
    for r in &rows {
        t.row(&[
            r.image_pages.to_string(),
            format!("{:.2}", r.cow_fork_us),
            format!("{:.2}", r.cow_reset_us),
            format!("{:.2}", r.deep_fork_us),
            r.private_after_cow_fork.to_string(),
        ]);
    }
    let small = &rows[0];
    let large = &rows[rows.len() - 1];
    // The gate: warm fork/reset cost must not scale with image size
    // (10x slack over a 1 us floor absorbs timer noise on tiny medians).
    let cow_budget = |small_us: f64| 10.0 * small_us.max(1.0);
    if large.cow_fork_us > cow_budget(small.cow_fork_us) {
        errors.push(format!(
            "CoW fork scales with image size: {:.2} us at {} pages vs {:.2} us at {} pages",
            large.cow_fork_us, large.image_pages, small.cow_fork_us, small.image_pages
        ));
    }
    if large.cow_reset_us > cow_budget(small.cow_reset_us) {
        errors.push(format!(
            "CoW reset scales with image size: {:.2} us at {} pages vs {:.2} us at {} pages",
            large.cow_reset_us, large.image_pages, small.cow_reset_us, small.image_pages
        ));
    }
    if large.deep_fork_us < 3.0 * small.deep_fork_us {
        errors.push(format!(
            "deep fork does not scale with image size ({:.2} us vs {:.2} us) — \
             the CoW comparison is not measuring anything",
            large.deep_fork_us, small.deep_fork_us
        ));
    }
    if let Some(r) = rows.iter().find(|r| r.private_after_cow_fork != 0) {
        errors.push(format!(
            "CoW fork copied {} private frames up front at {} image pages",
            r.private_after_cow_fork, r.image_pages
        ));
    }
    println!(
        "\ncow fork {:.2} -> {:.2} us across a {}x image-size increase; \
         deep fork {:.2} -> {:.2} us",
        small.cow_fork_us,
        large.cow_fork_us,
        large.image_pages / small.image_pages.max(1),
        small.deep_fork_us,
        large.deep_fork_us
    );

    // -- BENCH_fleet.json ---------------------------------------------
    let scaling_det = scaling.iter().map(|r| {
        let m = &r.run.metrics;
        obj! {
            "workers": r.workers, "events": r.events, "served": m.served, "requests": m.requests,
            "availability": Json::Fixed(m.availability(), 4),
            "cycles_per_request": Json::Fixed(m.cycles_per_request(), 1), "respawns": m.respawns,
        }
    });
    let scaling_wall = scaling.iter().map(|r| {
        obj! {
            "workers": r.workers, "wall_ms": Json::Fixed(r.wall_ms, 2),
            "requests_per_sec": Json::Fixed(req_per_s(&r.run, r.wall_ms), 0),
        }
    });
    let fork_cost = rows.iter().map(|r| {
        obj! {
            "image_pages": r.image_pages, "cow_fork_us": Json::Fixed(r.cow_fork_us, 3),
            "cow_reset_us": Json::Fixed(r.cow_reset_us, 3),
            "deep_fork_us": Json::Fixed(r.deep_fork_us, 3),
            "private_frames_after_cow_fork": r.private_after_cow_fork,
        }
    });
    let json = obj! {
        "smoke": smoke,
        "verified_determinism": verify,
        "deterministic": obj! {
            "service_cycles_per_request": Json::Fixed(service_cycles, 1),
            "scaling": Json::arr(scaling_det),
            "tail_latency": obj! {
                "workers": sizes.tail_workers, "events": sizes.tail_events,
                "probe_per_mille": 150u32, "mean_gap_cycles": tail_gap, "served": lat.len(),
                "p50_cycles": p50, "p99_cycles": p99, "p999_cycles": p999,
                "max_cycles": lat.last().copied().unwrap_or(0),
            },
            "cow_equivalence": obj! {
                "log_identical": cow_log_ok, "metrics_identical": cow_metrics_ok,
                "latencies_identical": cow_lat_ok,
            },
        },
        "host": obj! {
            "scaling_wall": Json::arr(scaling_wall),
            "tail_wall_ms": Json::Fixed(tail_wall_ms, 2),
            "fork_cost": Json::arr(fork_cost),
        },
    };
    std::fs::write("BENCH_fleet.json", json.render()).expect("write BENCH_fleet.json");
    println!("\nwrote BENCH_fleet.json");

    if errors.is_empty() {
        println!("ok: all fleet-scaling invariants hold");
        ExitCode::SUCCESS
    } else {
        for e in &errors {
            eprintln!("FAIL: {e}");
        }
        ExitCode::FAILURE
    }
}
