//! `fleet-respawn`: the serving fleet under Blind-ROP probing with
//! load-time re-randomization (§7.3).
//!
//! `run_fleet` serves the `r2c-attacks` victim with 64 workers and
//! `RespawnFreshVariant` under open-loop Poisson arrivals (5% probes).
//! Compiles run in the variant pool's background threads; execution is
//! thousands of short `Vm::call`s; every respawn is a decode miss.

use r2c_attacks::victim::victim_module;
use r2c_core::{R2cConfig, TakeKind};
use r2c_ir::{InterpResult, Module};
use r2c_serve::{
    run_fleet, variant_seed, ExecMode, FleetConfig, FleetRun, ReactionPolicy, Schedule,
};
use std::time::Instant;

use r2c_vm::ExitStatus;

use crate::run::{OpTime, Workload};
use crate::stats::{median, percentile, percentile_u64};
use crate::steady::matches_reference;
use crate::trace::Tracer;
use crate::{calls, sub_seed, Checks, Metric};

/// Simulated p99 request latency the capacity search must stay within,
/// in deci-cycles (the VM's cycle unit).
pub const CAPACITY_P99_LIMIT: u64 = 100_000;

/// Doubling the schedule may grow p99 by at most this factor before
/// the load counts as a growing backlog.
pub const CAPACITY_GROWTH: f64 = 1.2;

/// Workers in the fleet.
pub const WORKERS: u32 = 64;

/// Events of the served schedule.
pub const EVENTS: usize = 16_000;

/// Probes per thousand events.
pub const PROBE_PER_MILLE: u32 = 50;

/// Mean arrival gap of the served schedule, in deci-cycles.
pub const MEAN_GAP: u64 = 96;

/// Events of the shorter schedule in the capacity search.
pub const CAPACITY_EVENTS: usize = 4096;

pub struct FleetRespawn {
    pub seed: u64,
}

impl FleetRespawn {
    fn config(&self) -> FleetConfig {
        FleetConfig {
            fleet_seed: sub_seed(self.seed, 5),
            ..FleetConfig::new(R2cConfig::full(0), ReactionPolicy::RespawnFreshVariant)
        }
    }

    fn schedule(&self, len: usize, gap: u64) -> Schedule {
        Schedule::generate_open_loop(
            sub_seed(self.seed, 6),
            WORKERS,
            len,
            PROBE_PER_MILLE,
            gap,
        )
    }

    /// Simulated p99 request latency of a run, in deci-cycles.
    fn p99(run: &FleetRun) -> u64 {
        percentile_u64(&run.request_latencies, 0.99)
    }

    /// True if the fleet keeps up with arrivals at mean gap `gap`: p99
    /// within the limit, and not growing when the schedule doubles.
    fn sustains(&self, st: &State, gap: u64) -> bool {
        let run = |len| {
            run_fleet(
                &st.victim,
                &st.fc,
                &self.schedule(len, gap),
                ExecMode::Parallel,
            )
        };
        let short = Self::p99(&run(CAPACITY_EVENTS));
        if short > CAPACITY_P99_LIMIT {
            return false;
        }
        let long = Self::p99(&run(2 * CAPACITY_EVENTS));
        long as f64 <= short as f64 * CAPACITY_GROWTH
    }

    /// Boots every worker: `run_fleet` on an empty schedule.
    fn boot(&self, st: &State, mode: ExecMode, tr: &mut Tracer, checks: &mut Checks) {
        let empty = Schedule {
            workers: WORKERS,
            events: Vec::new(),
        };
        let boot = tr.leaf("serve.boot", || run_fleet(&st.victim, &st.fc, &empty, mode));
        let ok = boot.log.len() == WORKERS as usize
            && boot.log.iter().all(|l| l.ends_with("status=ok"));
        checks.check(ok, || "a worker failed to boot".into());
    }

    /// The smallest mean gap (highest arrival rate) the fleet sustains,
    /// by bisection over integer gaps in deci-cycles.
    fn capacity_gap(&self, st: &State) -> u64 {
        let (mut lo, mut hi) = (1u64, 4 * MEAN_GAP);
        if !self.sustains(st, hi) {
            return hi;
        }
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.sustains(st, mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }
}

pub struct State {
    victim: Module,
    reference: InterpResult,
    fc: FleetConfig,
    schedule: Schedule,
    /// Per timed operation: schedule run minus empty-schedule run, s.
    serve_s: Vec<f64>,
    /// The first timed run; every later run must reproduce it exactly.
    first: Option<FleetRun>,
    takes: Vec<(TakeKind, f64)>,
    boot_compile_us: Vec<f64>,
}

/// Log, counters and simulated latencies of two runs are identical.
fn same_run(a: &FleetRun, b: &FleetRun) -> bool {
    a.metrics == b.metrics && a.request_latencies == b.request_latencies && a.log == b.log
}

impl Workload for FleetRespawn {
    type State = State;

    fn setup(&self, tr: &mut Tracer, checks: &mut Checks) -> State {
        let victim = tr.leaf("workloads.gen", victim_module);
        let schedule = tr.leaf("workloads.gen", || {
            self.schedule(EVENTS, MEAN_GAP)
        });
        let reference = calls::interpret(tr, &victim, 10_000_000)
            .unwrap_or_else(|e| panic!("reference interpretation of the victim failed: {e}"));
        let fc = self.config();
        let st = State {
            victim,
            reference,
            fc,
            schedule,
            serve_s: Vec::new(),
            first: None,
            takes: Vec::new(),
            boot_compile_us: Vec::new(),
        };
        // Serial: a parallel boot of ~50 ms is four threads (two shard,
        // two pool) on two vCPUs, and its time is mostly how the host
        // schedules them; a serial boot does the same work with less of
        // that noise.
        self.boot(&st, ExecMode::Serial, tr, checks);
        st
    }

    /// One boot of every worker (an empty schedule), then the schedule.
    /// Both are timed, so the boot can be taken out of the rate.
    fn op(&self, st: &mut State, _i: u64, tr: &mut Tracer, checks: &mut Checks) {
        let t0 = Instant::now();
        self.boot(st, ExecMode::Parallel, tr, checks);
        let t1 = Instant::now();
        let run = tr.leaf("serve.run_fleet", || {
            run_fleet(&st.victim, &st.fc, &st.schedule, ExecMode::Parallel)
        });
        st.serve_s
            .push(t1.elapsed().as_secs_f64() - (t1 - t0).as_secs_f64());
        if tr.enabled() {
            st.takes.extend(
                run.respawn_latencies
                    .iter()
                    .map(|r| (r.kind, r.latency.as_secs_f64() * 1e6)),
            );
            st.boot_compile_us
                .extend(run.boot_compiles.iter().map(|d| d.as_secs_f64() * 1e6));
        }
        match &st.first {
            Some(first) => checks.check(same_run(first, &run), || {
                "fleet run differs from the first run of the same schedule".into()
            }),
            None => {
                checks.check(run.metrics.requests > 0, || "fleet served nothing".into());
                st.first = Some(run);
            }
        }
    }

    /// Schedule events per second, with the boot of every worker taken
    /// out: each operation's schedule run minus its empty-schedule run.
    fn rates(&self, st: &State, ops: &[OpTime]) -> (f64, Vec<Metric>) {
        let serve = |norm: bool| -> f64 {
            let s: Vec<f64> = ops
                .iter()
                .zip(&st.serve_s)
                .map(|(op, s)| if norm { s * op.speed } else { *s })
                .collect();
            EVENTS as f64 / median(&s)
        };
        let rate = serve(true);
        (
            rate,
            vec![
                Metric::new("fleet_events_per_s", rate, "1/s"),
                Metric::new("fleet_events_per_s_wall", serve(false), "1/s"),
            ],
        )
    }

    fn probe(&self, st: &mut State, tr: &mut Tracer, checks: &mut Checks) {
        for w in 0..4 {
            let cfg = st.fc.build.with_seed(variant_seed(st.fc.fleet_seed, w, 1));
            let Ok(image) = calls::build(tr, &st.victim, cfg) else {
                checks.check(false, || "victim variant build failed".into());
                continue;
            };
            calls::check_variant(tr, checks, &st.victim, cfg, &image);
            let mut template = calls::load(tr, "vm.load", &image);
            drop(calls::load(tr, "vm.load_hit", &image));
            let boot = calls::run(tr, &mut template);
            checks.check(
                matches_reference(boot.status, &template.output, &st.reference),
                || "victim boot disagrees with the reference".into(),
            );
            let handler = image.symbol("handler").expect("victim has a handler").addr;
            for f in 0..4u64 {
                let mut worker = tr.leaf("vm.fork", || template.fork_from_image());
                for round in 0..2u64 {
                    calls::run(tr, &mut worker);
                    for k in 0..16u64 {
                        let out = calls::call(tr, &mut worker, handler, &[f * 64 + round * 16 + k]);
                        checks.check(matches!(out.status, ExitStatus::Exited(_)), || {
                            "victim handler call faulted".into()
                        });
                    }
                    calls::reset(tr, &mut worker);
                }
            }
        }
    }

    fn exact(&self, st: &mut State, checks: &mut Checks) -> Vec<Metric> {
        let first = st.first.as_ref().expect("at least one timed run");
        let serial = run_fleet(&st.victim, &st.fc, &st.schedule, ExecMode::Serial);
        checks.check(same_run(first, &serial), || {
            "serial fleet run differs from the parallel run".into()
        });
        let m = &first.metrics;
        let gap = self.capacity_gap(st);
        vec![
            Metric::new(
                "fleet_sim_p99_kcycles",
                Self::p99(first) as f64 / 1e4,
                "kcycles",
            ),
            Metric::new("fleet_availability", m.availability(), "ratio"),
            Metric::new("fleet_compromises", m.compromises as f64, "count"),
            Metric::new("fleet_sim_capacity", 1e4 / gap as f64, "1/kcycle"),
            Metric::new(
                "serve.respawns_per_kevent",
                1e3 * m.respawns as f64 / EVENTS as f64,
                "count",
            ),
            Metric::new(
                "serve.sim_cycles_per_request",
                m.cycles_per_request(),
                "decicycles",
            ),
        ]
    }

    fn layer_details(&self, st: &State, tr: &Tracer) -> Vec<Metric> {
        let mut out = Vec::new();
        for name in ["vm.call", "vm.fork", "vm.reset", "vm.load_hit"] {
            out.push(Metric::new(format!("{name}_us.p50"), tr.p50_us(name), "us"));
            out.push(Metric::new(format!("{name}_us.p99"), tr.p99_us(name), "us"));
        }
        let kinds = [
            (TakeKind::Warm, "warm"),
            (TakeKind::InFlight, "in_flight"),
            (TakeKind::Cold, "cold"),
        ];
        for (kind, label) in kinds {
            let us: Vec<f64> = st
                .takes
                .iter()
                .filter(|t| t.0 == kind)
                .map(|t| t.1)
                .collect();
            out.push(Metric::new(
                format!("core.pool_take.{label}"),
                us.len() as f64,
                "count",
            ));
            if !us.is_empty() {
                out.push(Metric::new(
                    format!("core.pool_take_us.{label}.p50"),
                    median(&us),
                    "us",
                ));
                out.push(Metric::new(
                    format!("core.pool_take_us.{label}.p99"),
                    percentile(&us, 0.99),
                    "us",
                ));
            }
        }
        let warm = st.takes.iter().filter(|t| t.0 == TakeKind::Warm).count();
        out.push(Metric::new(
            "core.pool_warm_ratio",
            warm as f64 / st.takes.len().max(1) as f64,
            "ratio",
        ));
        out.push(Metric::new(
            "serve.boot_ms",
            tr.p50_us("serve.boot") / 1e3,
            "ms",
        ));
        out.push(Metric::new(
            "serve.boot_compile_us.p50",
            median(&st.boot_compile_us),
            "us",
        ));
        out
    }
}
