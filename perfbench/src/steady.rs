//! `steady-exec`: the execute layer alone.
//!
//! 12 SPEC profiles plus the 5 captured `cap-*` workloads, each built
//! as baseline and full R²C for EPYC Rome. Set-up generates, compiles,
//! loads and warms up every cell; the timed part repeats
//! `reset_to_image` + `run` over all cells.

use r2c_core::R2cConfig;
use r2c_ir::{InterpResult, Module};
use r2c_vm::{ExecStats, ExitStatus, Image, Vm};
use r2c_workloads::{build_workload, captured_workloads, spec_profiles, Scale};

use crate::run::{OpTime, Workload};
use crate::stats::{geomean, median};
use crate::trace::Tracer;
use crate::{calls, sub_seed, Checks, Metric};

/// Interpreter fuel for the reference run of one module.
pub const REFERENCE_FUEL: u64 = 4_000_000_000;

/// The static-check probe covers modules `0, PROBE_STRIDE, ...`.
pub const PROBE_STRIDE: usize = 6;

/// Size of the SPEC profiles.
pub const SCALE: Scale = Scale::Bench;

pub struct SteadyExec {
    pub seed: u64,
}

/// A compiled, loaded and warmed-up (module, config) cell.
pub struct Cell {
    pub name: String,
    /// One of the paper's 12 SPEC profiles (not a `cap-*` capture).
    pub spec: bool,
    pub full: bool,
    module: usize,
    cfg: R2cConfig,
    image: Image,
    vm: Vm,
    /// Statistics of the warm-up run; every timed run must match them.
    pub warm: ExecStats,
    run_s: Vec<f64>,
}

pub struct State {
    modules: Vec<(String, Module)>,
    refs: Vec<InterpResult>,
    pub cells: Vec<Cell>,
}

/// Status and output of a run against the reference interpretation.
pub fn matches_reference(status: ExitStatus, output: &[i64], reference: &InterpResult) -> bool {
    status == ExitStatus::Exited(reference.ret) && output == reference.output.as_slice()
}

impl SteadyExec {
    fn generate(&self, tr: &mut Tracer) -> Vec<(String, Module)> {
        let mut modules = Vec::new();
        for p in spec_profiles() {
            let calls = SCALE.calls(p.table2_calls);
            let m = tr.leaf("workloads.gen", || build_workload(&p, calls));
            modules.push((p.name.to_string(), m));
        }
        let captured = tr.leaf("workloads.gen", captured_workloads);
        modules.extend(captured.into_iter().map(|w| (w.name.to_string(), w.module)));
        modules
    }
}

/// `(full / baseline - 1)` in percent, as a geomean over the SPEC cells
/// only: the `cap-*` captures are not part of the paper's workload set
/// and must not leak into its aggregate. `value` picks the statistic.
pub fn spec_overhead_pct(cells: &[Cell], value: impl Fn(&ExecStats) -> f64) -> f64 {
    let ratios: Vec<f64> = cells
        .iter()
        .filter(|c| c.spec && c.full)
        .map(|full| {
            let base = cells
                .iter()
                .find(|b| b.module == full.module && !b.full)
                .expect("every full cell has a baseline cell");
            value(&full.warm) / value(&base.warm)
        })
        .collect();
    100.0 * (geomean(&ratios) - 1.0)
}

impl Workload for SteadyExec {
    type State = State;

    fn setup(&self, tr: &mut Tracer, checks: &mut Checks) -> State {
        let modules = self.generate(tr);
        let mut refs = Vec::new();
        for (name, m) in &modules {
            match calls::interpret(tr, m, REFERENCE_FUEL) {
                Ok(r) => refs.push(r),
                Err(e) => panic!("reference interpretation of {name} failed: {e}"),
            }
        }
        let variant_seed = sub_seed(self.seed, 1);
        let mut cells = Vec::new();
        for (mi, (name, module)) in modules.iter().enumerate() {
            for full in [false, true] {
                let cfg = if full {
                    R2cConfig::full(variant_seed)
                } else {
                    R2cConfig::baseline(variant_seed)
                };
                let image = calls::build(tr, module, cfg)
                    .unwrap_or_else(|e| panic!("{name}: build failed: {e}"));
                let mut vm = calls::load(tr, "vm.load", &image);
                let out = calls::run(tr, &mut vm);
                checks.check(matches_reference(out.status, &vm.output, &refs[mi]), || {
                    format!("{name}: warm-up run disagrees with the reference")
                });
                cells.push(Cell {
                    name: format!("{name}/{}", if full { "full" } else { "baseline" }),
                    spec: !name.starts_with("cap-"),
                    full,
                    module: mi,
                    cfg,
                    image,
                    vm,
                    warm: out.stats,
                    run_s: Vec::new(),
                });
            }
        }
        State {
            modules,
            refs,
            cells,
        }
    }

    fn op(&self, st: &mut State, _i: u64, tr: &mut Tracer, checks: &mut Checks) {
        for c in &mut st.cells {
            calls::reset(tr, &mut c.vm);
            let t0 = std::time::Instant::now();
            let out = calls::run(tr, &mut c.vm);
            c.run_s.push(t0.elapsed().as_secs_f64());
            let ok = out.stats == c.warm
                && matches_reference(out.status, &c.vm.output, &st.refs[c.module]);
            checks.check(ok, || format!("{}: timed run disagrees", c.name));
        }
    }

    /// Geomean over cells of guest instructions per host second, so
    /// every program weighs the same (the aggregate would be dominated
    /// by nab and mcf).
    /// Each cell's run time is its median over the timed passes, at the
    /// reference host speed.
    fn rates(&self, st: &State, ops: &[OpTime]) -> (f64, Vec<Metric>) {
        let per_cell = |norm: bool| -> f64 {
            let ips: Vec<f64> = st
                .cells
                .iter()
                .map(|c| {
                    let runs: Vec<f64> = ops
                        .iter()
                        .zip(&c.run_s)
                        .map(|(op, s)| if norm { s * op.speed } else { *s })
                        .collect();
                    c.warm.instructions as f64 / median(&runs)
                })
                .collect();
            geomean(&ips)
        };
        let rate = per_cell(true);
        (
            rate,
            vec![
                Metric::new("exec_mips_geomean", rate / 1e6, "MIPS"),
                Metric::new("exec_mips_geomean_wall", per_cell(false) / 1e6, "MIPS"),
            ],
        )
    }

    /// Translation validation costs ~0.2 s per image, so the static
    /// checks run on the cells of every [`PROBE_STRIDE`]th module only.
    fn probe(&self, st: &mut State, tr: &mut Tracer, checks: &mut Checks) {
        for c in st.cells.iter().filter(|c| c.module % PROBE_STRIDE == 0) {
            let module = &st.modules[c.module].1;
            calls::check_variant(tr, checks, module, c.cfg, &c.image);
            // The cell's own VM keeps the decode cached.
            drop(calls::load(tr, "vm.load_hit", &c.image));
        }
    }

    fn exact(&self, st: &mut State, _checks: &mut Checks) -> Vec<Metric> {
        let cells = &st.cells;
        let cap_ratios: Vec<f64> = cells
            .iter()
            .filter(|c| !c.spec && c.full)
            .map(|f| {
                let b = cells
                    .iter()
                    .find(|b| b.module == f.module && !b.full)
                    .unwrap();
                f.warm.cycles as f64 / b.warm.cycles as f64
            })
            .collect();
        vec![
            Metric::new(
                "sim_overhead_pct",
                spec_overhead_pct(cells, |s| s.cycles as f64),
                "%",
            ),
            Metric::new(
                "sim_rss_overhead_pct",
                spec_overhead_pct(cells, |s| s.max_rss_pages as f64),
                "%",
            ),
            Metric::new(
                "cap_sim_overhead_pct",
                100.0 * (geomean(&cap_ratios) - 1.0),
                "%",
            ),
        ]
    }

    fn layer_details(&self, st: &State, tr: &Tracer) -> Vec<Metric> {
        let mut out = vec![
            Metric::new("vm.reset_us.p50", tr.p50_us("vm.reset"), "us"),
            Metric::new("vm.reset_us.p99", tr.p99_us("vm.reset"), "us"),
            Metric::new("vm.load_hit_us.p50", tr.p50_us("vm.load_hit"), "us"),
        ];
        for c in &st.cells {
            let run_s = median(&c.run_s);
            let n = &c.name;
            out.push(Metric::new(format!("vm.run_ms.{n}"), run_s * 1e3, "ms"));
            out.push(Metric::new(
                format!("vm.cell_mips.{n}"),
                c.warm.instructions as f64 / run_s / 1e6,
                "MIPS",
            ));
            out.push(Metric::new(
                format!("vm.sim_cycles.{n}"),
                c.warm.cycles as f64,
                "decicycles",
            ));
            out.push(Metric::new(
                format!("vm.guest_insns.{n}"),
                c.warm.instructions as f64,
                "count",
            ));
            out.push(Metric::new(
                format!("vm.icache_miss_rate.{n}"),
                c.warm.icache_miss_rate(),
                "ratio",
            ));
            out.push(Metric::new(
                format!("vm.max_rss_pages.{n}"),
                c.warm.max_rss_pages as f64,
                "pages",
            ));
            out.push(Metric::new(
                format!("codegen.image_text_bytes.{n}"),
                c.image.text_size() as f64,
                "bytes",
            ));
        }
        out
    }
}
