//! The measurement loop shared by every workload: repeated set-up,
//! a timed window of operations, and — in a traced run — a replay of
//! the same operations with spans on, followed by layer probes.

use std::time::{Duration, Instant};

use crate::stats::median;
use crate::trace::{Reconciliation, Tracer};
use crate::{host, Checks, Metric};

/// A benchmark workload.
pub trait Workload {
    type State;

    /// Fewest timed operations in a window (default one).
    fn min_ops(&self) -> usize {
        1
    }

    /// Workload generation, compiles, first loads and warm-up.
    fn setup(&self, tr: &mut Tracer, checks: &mut Checks) -> Self::State;

    /// One timed operation (a pass, a fleet run, a case). Operation `i`
    /// does the same work every time it runs, so a traced replay of
    /// `0..n` repeats the untraced window exactly.
    fn op(&self, st: &mut Self::State, i: u64, tr: &mut Tracer, checks: &mut Checks);

    /// From the untraced timed operations: the workload's units of work
    /// per second at the reference host speed (`ops_per_s`), plus the
    /// same rate under the workload's own name and unit.
    fn rates(&self, st: &Self::State, ops: &[OpTime]) -> (f64, Vec<Metric>);

    /// Traced run only: layer calls the workload's opaque operations
    /// make internally, repeated from the benchmark on the same inputs.
    fn probe(&self, st: &mut Self::State, tr: &mut Tracer, checks: &mut Checks);

    /// Exact simulated-clock results (pure functions of the seed) and
    /// once-per-run checks.
    fn exact(&self, st: &mut Self::State, checks: &mut Checks) -> Vec<Metric>;

    /// Traced run only: workload-specific per-layer numbers.
    fn layer_details(&self, st: &Self::State, tr: &Tracer) -> Vec<Metric>;
}

/// Host time of one timed operation.
#[derive(Clone, Copy, Debug)]
pub struct OpTime {
    /// Wall time, in seconds.
    pub wall_s: f64,
    /// Host speed around the operation: the mean of the calibration
    /// runs just before and just after it (see [`host::Calibration`]).
    pub speed: f64,
}

impl OpTime {
    /// Wall time at the reference host speed, in seconds.
    pub fn norm_s(&self) -> f64 {
        self.wall_s * self.speed
    }
}

/// Everything one run measured.
pub struct Outcome {
    /// Each set-up's wall time at the reference host speed, in seconds.
    pub setup_samples: Vec<f64>,
    /// The untraced timed operations.
    pub ops: Vec<OpTime>,
    pub ops_per_s: f64,
    /// The workload's own names for its rate.
    pub rates: Vec<Metric>,
    pub exact: Vec<Metric>,
    /// Traced run only: the per-layer metrics every workload reports.
    pub layers: Vec<Metric>,
    /// Traced run only: workload-specific per-layer numbers.
    pub details: Vec<Metric>,
    pub reconciliations: Vec<Reconciliation>,
    pub checks: Checks,
    /// Peak resident memory over the set-ups and the untraced timed
    /// window, in MiB. The traced replay, probes and exact checks that
    /// follow are the benchmark's own work and are not counted.
    pub peak_rss_mib: f64,
}

impl Outcome {
    /// Median set-up time at the reference host speed.
    pub fn setup_s(&self) -> f64 {
        median(&self.setup_samples)
    }
}

/// Set-up repeats until it has run at least [`SETUP_MIN_REPS`] times
/// and for at least [`SETUP_MIN_S`] seconds of wall time in total, so
/// a cheap set-up gets many samples; `setup_s` is their median.
pub const SETUP_MIN_REPS: usize = 3;
pub const SETUP_MIN_S: f64 = 1.0;

pub const SETUP_ROOT: &str = "perfbench.setup";
pub const TIMED_ROOT: &str = "perfbench.timed";
pub const PROBE_ROOT: &str = "perfbench.probe";

/// Runs `w` for `window`. Every set-up and every timed operation is
/// bracketed by calibration runs, so its wall time can be converted to
/// the reference host speed. With `trace`, the untraced window is half
/// as long and is then replayed with spans on; the ratio of the two is
/// the tracing overhead.
pub fn execute<W: Workload>(w: &W, window: Duration, trace: bool) -> Outcome {
    let mut checks = Checks::default();
    let mut tr = Tracer::new(false);
    let mut calibration = host::Calibration::default();
    let mut speed = calibration.speed();
    let mut timed = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        let wall_s = t0.elapsed().as_secs_f64();
        let after = calibration.speed();
        let op = OpTime {
            wall_s,
            speed: (speed + after) / 2.0,
        };
        speed = after;
        op
    };

    let mut setup_samples = Vec::new();
    let mut setup_wall_s = 0.0;
    let mut state = None;
    while setup_samples.len() < SETUP_MIN_REPS || setup_wall_s < SETUP_MIN_S {
        drop(state.take());
        let t = timed(&mut || {
            tr.enter(SETUP_ROOT);
            state = Some(w.setup(&mut tr, &mut checks));
            tr.exit();
        });
        setup_samples.push(t.norm_s());
        setup_wall_s += t.wall_s;
    }
    if trace {
        // One more set-up with spans on; its time is not a sample.
        drop(state.take());
        tr.set_enabled(true);
        tr.enter(SETUP_ROOT);
        state = Some(w.setup(&mut tr, &mut checks));
        tr.exit();
        tr.set_enabled(false);
    }
    let mut st = state.expect("at least one set-up");

    let untraced_window = if trace { window / 2 } else { window };
    let mut ops = Vec::new();
    let t0 = Instant::now();
    while ops.len() < w.min_ops().max(1) || t0.elapsed() < untraced_window {
        let i = ops.len() as u64;
        ops.push(timed(&mut || w.op(&mut st, i, &mut tr, &mut checks)));
    }
    let peak_rss_mib = host::peak_rss_mib();
    let (ops_per_s, rates) = w.rates(&st, &ops);

    let mut layers = Vec::new();
    let mut details = Vec::new();
    let mut reconciliations = Vec::new();
    if trace {
        // The replay runs without calibration in between, so the timed
        // root's self time is only the benchmark's own loop.
        tr.set_enabled(true);
        let t0 = Instant::now();
        tr.enter(TIMED_ROOT);
        for i in 0..ops.len() as u64 {
            w.op(&mut st, i, &mut tr, &mut checks);
        }
        tr.exit();
        let traced_s = t0.elapsed().as_secs_f64();
        tr.enter(PROBE_ROOT);
        w.probe(&mut st, &mut tr, &mut checks);
        tr.exit();
        tr.set_enabled(false);
        let untraced_s: f64 = ops.iter().map(|op| op.wall_s).sum();
        let overhead_pct = 100.0 * (traced_s / untraced_s - 1.0);
        reconciliations = [SETUP_ROOT, TIMED_ROOT, PROBE_ROOT]
            .iter()
            .filter_map(|r| tr.reconcile(r))
            .collect();
        layers = layer_metrics(&tr, overhead_pct);
        details = w.layer_details(&st, &tr);
    }
    let exact = w.exact(&mut st, &mut checks);
    drop(st);
    Outcome {
        setup_samples,
        ops,
        ops_per_s,
        rates,
        exact,
        layers,
        details,
        reconciliations,
        checks,
        peak_rss_mib,
    }
}

/// The per-layer metrics of `BENCHMARK.json`, in its order. Every
/// workload's traced run makes each of these calls.
pub const LAYER_METRICS: [(&str, &str); 16] = [
    ("workloads.gen_ms", "ms"),
    ("ir.interp_ms", "ms"),
    ("core.build_us.p50", "us"),
    ("core.build_us.p99", "us"),
    ("ir.verify_us", "us"),
    ("core.inject_btdp_us", "us"),
    ("codegen.lower_us", "us"),
    ("codegen.link_us", "us"),
    ("check.program_us", "us"),
    ("check.image_us", "us"),
    ("check.decode_us", "us"),
    ("vm.load_miss_us", "us"),
    ("vm.exec_mips", "MIPS"),
    ("vm.icache_miss_rate", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.other_pct", "%"),
];

/// Computes [`LAYER_METRICS`] from a finished trace.
fn layer_metrics(tr: &Tracer, overhead_pct: f64) -> Vec<Metric> {
    let setup_total_ms = |name: &str| tr.total_us_under(name, SETUP_ROOT) / 1e3;
    let pass_p50 = |pass: &str| median(tr.samples(&format!("pass.{pass}")));
    let exec_us = tr.total_us("vm.run") + tr.total_us("vm.call");
    let (miss, hit) = (tr.counter("vm.icache_misses"), tr.counter("vm.icache_hits"));
    let other_pct = tr.reconcile(TIMED_ROOT).map_or(f64::NAN, |r| r.other_pct());
    let values = [
        setup_total_ms("workloads.gen"),
        setup_total_ms("ir.interp"),
        tr.p50_us("core.build"),
        tr.p99_us("core.build"),
        pass_p50("verify"),
        pass_p50("inject-btdp"),
        pass_p50("lower"),
        pass_p50("link"),
        tr.p50_us("check.program"),
        tr.p50_us("check.image"),
        tr.p50_us("check.decode"),
        tr.p50_us("vm.load"),
        tr.counter("vm.insns") / exec_us,
        miss / (miss + hit),
        overhead_pct,
        other_pct,
    ];
    LAYER_METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| Metric::new(name, v, unit))
        .collect()
}
