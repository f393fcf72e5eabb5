//! Regenerates the **§7.3 reactive-serving evaluation**: a deterministic
//! server fleet (r2c-serve) probed by a Blind-ROP attacker, compared
//! across reaction policies, plus the host-side cost of load-time
//! re-randomization with and without the warm variant pool.
//!
//! ```text
//! cargo run --release -p r2c-bench --bin report_serve -- \
//!     [--smoke] [--verify-determinism]
//! ```
//!
//! * `--smoke` — CI sizes (shorter schedules, same structure).
//! * `--verify-determinism` — additionally re-run every fleet scenario
//!   serially and fail unless the monitor log and metrics are
//!   bit-identical to the parallel run.
//!
//! Writes `BENCH_serve.json`: a `deterministic` section (availability,
//! throughput, probes-to-compromise — pure functions of the seeds) and
//! a `host` section (respawn-latency distributions, which depend on the
//! machine running the report).
//!
//! Exits non-zero if a §7.3 invariant fails: `RespawnFreshVariant` must
//! strictly outlast `RestartSameImage` under probe load, and a warm
//! respawn must be cheaper than a cold compile.

use std::process::ExitCode;
use std::time::Duration;

use r2c_attacks::victim::victim_module;
use r2c_bench::TablePrinter;
use r2c_core::{R2cConfig, TakeKind};
use r2c_serve::{run_fleet, ExecMode, FleetConfig, FleetRun, ReactionPolicy, Schedule};
use r2c_workloads::{webserver_module, ServerKind};

const POLICIES: [ReactionPolicy; 3] = [
    ReactionPolicy::Ignore,
    ReactionPolicy::RestartSameImage,
    ReactionPolicy::RespawnFreshVariant,
];

struct Sizes {
    /// Events in the mixed request/probe serving schedule.
    serve_events: usize,
    /// Events in the pure-probe compromise schedule.
    probe_events: usize,
    /// Events in the webserver-fleet schedule.
    web_events: usize,
}

struct Args {
    smoke: bool,
    verify: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        verify: false,
    };
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--verify-determinism" => args.verify = true,
            other => r2c_bench::usage_exit(
                &format!("unknown argument {other:?}"),
                "report_serve [--smoke] [--verify-determinism]",
            ),
        }
    }
    args
}

/// Runs a scenario in parallel mode; with `verify`, re-runs serially
/// and records any log/metric divergence in `errors`.
fn run_verified(
    module: &r2c_ir::Module,
    fc: &FleetConfig,
    sched: &Schedule,
    verify: bool,
    label: &str,
    errors: &mut Vec<String>,
) -> FleetRun {
    let parallel = run_fleet(module, fc, sched, ExecMode::Parallel);
    if verify {
        let serial = run_fleet(module, fc, sched, ExecMode::Serial);
        if serial.log != parallel.log {
            errors.push(format!("{label}: parallel log diverged from serial"));
        }
        if serial.metrics != parallel.metrics {
            errors.push(format!("{label}: parallel metrics diverged from serial"));
        }
    }
    parallel
}

struct LatencyStats {
    n: usize,
    mean_us: f64,
    min_us: f64,
    max_us: f64,
}

fn latency_stats(xs: &[Duration]) -> LatencyStats {
    if xs.is_empty() {
        return LatencyStats {
            n: 0,
            mean_us: 0.0,
            min_us: 0.0,
            max_us: 0.0,
        };
    }
    let us: Vec<f64> = xs.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    LatencyStats {
        n: us.len(),
        mean_us: us.iter().sum::<f64>() / us.len() as f64,
        min_us: us.iter().cloned().fold(f64::INFINITY, f64::min),
        max_us: us.iter().cloned().fold(0.0, f64::max),
    }
}

fn fmt_policy_metrics(run: &FleetRun) -> Vec<String> {
    let m = &run.metrics;
    vec![
        format!("{:.3}", m.availability()),
        format!("{}/{}", m.served, m.requests),
        format!("{:.0}", m.cycles_per_request()),
        m.detections.to_string(),
        (m.restarts + m.respawns).to_string(),
        m.compromises.to_string(),
    ]
}

fn main() -> ExitCode {
    let args = parse_args();
    let sizes = if args.smoke {
        Sizes {
            serve_events: 160,
            probe_events: 400,
            web_events: 60,
        }
    } else {
        Sizes {
            serve_events: 800,
            probe_events: 1200,
            web_events: 200,
        }
    };
    let mut errors: Vec<String> = Vec::new();
    let victim = victim_module();
    let build = R2cConfig::full(0);

    // -- 1. Serving under probe load (mixed schedule, per policy) -----
    println!("== Fleet serving under attack-probe load (15% probes) ==\n");
    let sched_noisy = Schedule::generate(0x5EED, 4, sizes.serve_events, 150);
    let sched_quiet = sched_noisy.requests_only();
    let quiet = run_verified(
        &victim,
        &FleetConfig {
            fleet_seed: 42,
            ..FleetConfig::new(build, ReactionPolicy::RespawnFreshVariant)
        },
        &sched_quiet,
        args.verify,
        "serve/quiet",
        &mut errors,
    );
    let quiet_cpr = quiet.metrics.cycles_per_request();

    let t = TablePrinter::new(&[14, 8, 10, 10, 6, 9, 6]);
    t.row(&[
        "policy".into(),
        "avail".into(),
        "served".into(),
        "cyc/req".into(),
        "det".into(),
        "react".into(),
        "comp".into(),
    ]);
    t.sep();
    let mut serving_rows: Vec<(String, FleetRun)> = Vec::new();
    for policy in POLICIES {
        let fc = FleetConfig {
            fleet_seed: 42,
            ..FleetConfig::new(build, policy)
        };
        let run = run_verified(
            &victim,
            &fc,
            &sched_noisy,
            args.verify,
            &format!("serve/{}", policy.name()),
            &mut errors,
        );
        let mut cells = vec![policy.name().to_string()];
        cells.extend(fmt_policy_metrics(&run));
        t.row(&cells);
        serving_rows.push((policy.name().to_string(), run));
    }
    println!(
        "\nprobe-free baseline: availability 1.000, {quiet_cpr:.0} cycles/request \
         (degradation = cyc/req above / {quiet_cpr:.0})"
    );

    // -- 2. Probes to compromise (pure probe load, per policy) --------
    println!("\n== Blind-ROP probes to compromise (paper §7.3) ==\n");
    let sched_probe = Schedule::generate(1, 2, sizes.probe_events, 1000);
    let t = TablePrinter::new(&[14, 16, 8, 8, 10]);
    t.row(&[
        "policy".into(),
        "compromised at".into(),
        "det".into(),
        "react".into(),
        "crashes".into(),
    ]);
    t.sep();
    let mut p2c: Vec<(String, Option<u64>, FleetRun)> = Vec::new();
    for policy in POLICIES {
        let fc = FleetConfig::new(build, policy);
        let run = run_verified(
            &victim,
            &fc,
            &sched_probe,
            args.verify,
            &format!("probe/{}", policy.name()),
            &mut errors,
        );
        let m = &run.metrics;
        t.row(&[
            policy.name().into(),
            m.first_compromise_probe
                .map(|k| format!("probe {k}"))
                .unwrap_or_else(|| format!("never (of {})", m.probes)),
            m.detections.to_string(),
            (m.restarts + m.respawns).to_string(),
            m.probe_crashes.to_string(),
        ]);
        p2c.push((policy.name().to_string(), m.first_compromise_probe, run));
    }
    let same_k = p2c
        .iter()
        .find(|(n, _, _)| n == "restart-same")
        .and_then(|(_, k, _)| *k);
    let fresh_k = p2c
        .iter()
        .find(|(n, _, _)| n == "respawn-fresh")
        .and_then(|(_, k, _)| *k);
    match (same_k, fresh_k) {
        (Some(k), None) => println!(
            "\nrestart-same compromised at probe {k}; respawn-fresh never (>= {} probes)",
            sizes.probe_events
        ),
        (Some(k), Some(kf)) if kf > k => {
            println!("\nrestart-same compromised at probe {k}; respawn-fresh held until {kf}")
        }
        (same, fresh) => errors.push(format!(
            "§7.3 violated: restart-same compromised at {same:?}, respawn-fresh at {fresh:?} \
             (fresh must strictly outlast same-image)"
        )),
    }

    // -- 3. Webserver fleet (realistic workload, throughput focus) ----
    println!("\n== Webserver fleet (nginx-like workload, 10% probes) ==\n");
    let ws = webserver_module(ServerKind::Nginx, 4);
    let ws_fc = FleetConfig {
        fleet_seed: 7,
        ..FleetConfig::new(build, ReactionPolicy::RespawnFreshVariant).entry_service()
    };
    let ws_noisy = Schedule::generate(0xEB, 2, sizes.web_events, 100);
    let ws_quiet = ws_noisy.requests_only();
    let wq = run_verified(
        &ws,
        &ws_fc,
        &ws_quiet,
        args.verify,
        "web/quiet",
        &mut errors,
    );
    let wn = run_verified(
        &ws,
        &ws_fc,
        &ws_noisy,
        args.verify,
        "web/noisy",
        &mut errors,
    );
    println!(
        "quiet: {:.3} availability, {:.0} cycles/request",
        wq.metrics.availability(),
        wq.metrics.cycles_per_request()
    );
    println!(
        "noisy: {:.3} availability, {:.0} cycles/request, {} respawns",
        wn.metrics.availability(),
        wn.metrics.cycles_per_request(),
        wn.metrics.respawns
    );

    // -- 4. Respawn latency: warm pool vs cold compile ----------------
    println!("\n== Respawn latency: warm variant pool vs cold compile ==\n");
    let fresh_run = &p2c
        .iter()
        .find(|(n, _, _)| n == "respawn-fresh")
        .expect("respawn-fresh row")
        .2;
    let warm: Vec<Duration> = fresh_run
        .respawn_latencies
        .iter()
        .filter(|l| l.kind == TakeKind::Warm)
        .map(|l| l.latency)
        .collect();
    let cold_fc = FleetConfig {
        pool_threads: 0,
        ..FleetConfig::new(build, ReactionPolicy::RespawnFreshVariant)
    };
    let cold_run = run_verified(
        &victim,
        &cold_fc,
        &sched_probe,
        args.verify,
        "probe/respawn-cold",
        &mut errors,
    );
    let cold: Vec<Duration> = cold_run
        .respawn_latencies
        .iter()
        .filter(|l| l.kind == TakeKind::Cold)
        .map(|l| l.latency)
        .collect();
    let ws_stats = latency_stats(&warm);
    let cs_stats = latency_stats(&cold);
    let boot_stats = latency_stats(&cold_run.boot_compiles);
    println!(
        "warm takes: n={} mean {:.1} us (min {:.1}, max {:.1})",
        ws_stats.n, ws_stats.mean_us, ws_stats.min_us, ws_stats.max_us
    );
    println!(
        "cold compiles: n={} mean {:.1} us (min {:.1}, max {:.1})",
        cs_stats.n, cs_stats.mean_us, cs_stats.min_us, cs_stats.max_us
    );
    println!(
        "gen-0 boot compiles: n={} mean {:.1} us",
        boot_stats.n, boot_stats.mean_us
    );
    if ws_stats.n == 0 || cs_stats.n == 0 {
        errors.push(format!(
            "latency sample missing: {} warm takes, {} cold compiles",
            ws_stats.n, cs_stats.n
        ));
    } else if ws_stats.mean_us >= cs_stats.mean_us {
        errors.push(format!(
            "warm respawn ({:.1} us mean) not cheaper than cold compile ({:.1} us mean)",
            ws_stats.mean_us, cs_stats.mean_us
        ));
    } else {
        println!(
            "warm pool speedup: {:.1}x",
            cs_stats.mean_us / ws_stats.mean_us
        );
    }
    let guest_equal = fresh_run.metrics == cold_run.metrics && fresh_run.log == cold_run.log;
    if !guest_equal {
        errors.push("pooled and unpooled runs disagree on guest state".into());
    }

    // -- BENCH_serve.json ---------------------------------------------
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"smoke\": {}, \"verified_determinism\": {},\n",
        args.smoke, args.verify
    ));
    json.push_str("  \"deterministic\": {\n");
    json.push_str("    \"serving\": [\n");
    for (i, (name, run)) in serving_rows.iter().enumerate() {
        let m = &run.metrics;
        json.push_str(&format!(
            "      {{\"policy\": \"{name}\", \"availability\": {:.4}, \"served\": {}, \
             \"requests\": {}, \"dropped\": {}, \"cycles_per_request\": {:.1}, \
             \"throughput_degradation\": {:.4}, \"detections\": {}, \"reactions\": {}, \
             \"compromises\": {}}}{}\n",
            m.availability(),
            m.served,
            m.requests,
            m.dropped,
            m.cycles_per_request(),
            if quiet_cpr > 0.0 {
                m.cycles_per_request() / quiet_cpr
            } else {
                1.0
            },
            m.detections,
            m.restarts + m.respawns,
            m.compromises,
            if i + 1 == serving_rows.len() { "" } else { "," }
        ));
    }
    json.push_str("    ],\n");
    json.push_str("    \"probes_to_compromise\": [\n");
    for (i, (name, k, run)) in p2c.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"policy\": \"{name}\", \"first_compromise_probe\": {}, \"probes\": {}, \
             \"detections\": {}, \"reactions\": {}}}{}\n",
            k.map(|k| k.to_string()).unwrap_or_else(|| "null".into()),
            run.metrics.probes,
            run.metrics.detections,
            run.metrics.restarts + run.metrics.respawns,
            if i + 1 == p2c.len() { "" } else { "," }
        ));
    }
    json.push_str("    ],\n");
    json.push_str(&format!(
        "    \"webserver\": {{\"quiet_availability\": {:.4}, \"noisy_availability\": {:.4}, \
         \"quiet_cycles_per_request\": {:.1}, \"noisy_cycles_per_request\": {:.1}, \
         \"respawns\": {}}}\n",
        wq.metrics.availability(),
        wn.metrics.availability(),
        wq.metrics.cycles_per_request(),
        wn.metrics.cycles_per_request(),
        wn.metrics.respawns
    ));
    json.push_str("  },\n");
    json.push_str("  \"host\": {\n");
    json.push_str(&format!(
        "    \"warm_take\": {{\"n\": {}, \"mean_us\": {:.2}, \"min_us\": {:.2}, \"max_us\": {:.2}}},\n",
        ws_stats.n, ws_stats.mean_us, ws_stats.min_us, ws_stats.max_us
    ));
    json.push_str(&format!(
        "    \"cold_compile\": {{\"n\": {}, \"mean_us\": {:.2}, \"min_us\": {:.2}, \"max_us\": {:.2}}},\n",
        cs_stats.n, cs_stats.mean_us, cs_stats.min_us, cs_stats.max_us
    ));
    json.push_str(&format!(
        "    \"boot_compile\": {{\"n\": {}, \"mean_us\": {:.2}}},\n",
        boot_stats.n, boot_stats.mean_us
    ));
    json.push_str(&format!(
        "    \"warm_speedup\": {:.3}\n",
        if ws_stats.mean_us > 0.0 {
            cs_stats.mean_us / ws_stats.mean_us
        } else {
            0.0
        }
    ));
    json.push_str("  }\n}\n");
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("\nwrote BENCH_serve.json");

    if errors.is_empty() {
        println!("ok: all §7.3 invariants hold");
        ExitCode::SUCCESS
    } else {
        for e in &errors {
            eprintln!("FAIL: {e}");
        }
        ExitCode::FAILURE
    }
}
