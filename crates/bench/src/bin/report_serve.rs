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
use r2c_bench::{json::Json, obj, run_fleet_verified, TablePrinter};
use r2c_core::{R2cConfig, TakeKind};
use r2c_serve::{FleetConfig, FleetRun, ReactionPolicy, Schedule};
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
    let args = r2c_bench::cli::parse("usage: report_serve [--smoke] [--verify-determinism]");
    let (smoke, verify) = (args.flag("--smoke"), args.flag("--verify-determinism"));
    let sizes = if smoke {
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
    let (quiet, _) = run_fleet_verified(
        &victim,
        &FleetConfig {
            fleet_seed: 42,
            ..FleetConfig::new(build, ReactionPolicy::RespawnFreshVariant)
        },
        &sched_quiet,
        verify,
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
        let (run, _) = run_fleet_verified(
            &victim,
            &fc,
            &sched_noisy,
            verify,
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
        let (run, _) = run_fleet_verified(
            &victim,
            &fc,
            &sched_probe,
            verify,
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
    let (wq, _) = run_fleet_verified(&ws, &ws_fc, &ws_quiet, verify, "web/quiet", &mut errors);
    let (wn, _) = run_fleet_verified(&ws, &ws_fc, &ws_noisy, verify, "web/noisy", &mut errors);
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
    let (cold_run, _) = run_fleet_verified(
        &victim,
        &cold_fc,
        &sched_probe,
        verify,
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
    let serving = serving_rows.iter().map(|(name, run)| {
        let m = &run.metrics;
        let degradation = if quiet_cpr > 0.0 {
            m.cycles_per_request() / quiet_cpr
        } else {
            1.0
        };
        obj! {
            "policy": name.as_str(), "availability": Json::Fixed(m.availability(), 4),
            "served": m.served, "requests": m.requests, "dropped": m.dropped,
            "cycles_per_request": Json::Fixed(m.cycles_per_request(), 1),
            "throughput_degradation": Json::Fixed(degradation, 4), "detections": m.detections,
            "reactions": m.restarts + m.respawns, "compromises": m.compromises,
        }
    });
    let p2c_rows = p2c.iter().map(|(name, k, run)| {
        let m = &run.metrics;
        obj! {
            "policy": name.as_str(), "first_compromise_probe": *k, "probes": m.probes,
            "detections": m.detections, "reactions": m.restarts + m.respawns,
        }
    });
    let latency = |l: &LatencyStats| {
        obj! {
            "n": l.n, "mean_us": Json::Fixed(l.mean_us, 2), "min_us": Json::Fixed(l.min_us, 2),
            "max_us": Json::Fixed(l.max_us, 2),
        }
    };
    let warm_speedup = if ws_stats.mean_us > 0.0 {
        cs_stats.mean_us / ws_stats.mean_us
    } else {
        0.0
    };
    let (wq, wn) = (&wq.metrics, &wn.metrics);
    let json = obj! {
        "smoke": smoke,
        "verified_determinism": verify,
        "deterministic": obj! {
            "serving": Json::arr(serving),
            "probes_to_compromise": Json::arr(p2c_rows),
            "webserver": obj! {
                "quiet_availability": Json::Fixed(wq.availability(), 4),
                "noisy_availability": Json::Fixed(wn.availability(), 4),
                "quiet_cycles_per_request": Json::Fixed(wq.cycles_per_request(), 1),
                "noisy_cycles_per_request": Json::Fixed(wn.cycles_per_request(), 1),
                "respawns": wn.respawns,
            },
        },
        "host": obj! {
            "warm_take": latency(&ws_stats),
            "cold_compile": latency(&cs_stats),
            "boot_compile": obj! { "n": boot_stats.n, "mean_us": Json::Fixed(boot_stats.mean_us, 2) },
            "warm_speedup": Json::Fixed(warm_speedup, 3),
        },
    };
    std::fs::write("BENCH_serve.json", json.render()).expect("write BENCH_serve.json");
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
