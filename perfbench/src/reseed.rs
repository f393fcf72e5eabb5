//! `reseed-sweep`: the paper's §6.2 method — every measurement is a
//! freshly diversified variant.
//!
//! The 12 SPEC profiles at `Scale::Test`, as baseline and full R²C,
//! each cell with a fresh seed: `build` → `Vm::new` (a decode-cache
//! miss, since the image is new) → `run` → output check. Compile and
//! decode dominate; execution is a small share.

use r2c_core::R2cConfig;
use r2c_ir::{InterpResult, Module};
use r2c_vm::ExecStats;
use r2c_workloads::{build_workload, spec_profiles, Scale};

use crate::run::{OpTime, Workload};
use crate::stats::{geomean, median};
use crate::steady::{matches_reference, PROBE_STRIDE, REFERENCE_FUEL};
use crate::trace::Tracer;
use crate::{calls, sub_seed, Checks, Metric};

/// Passes over the 24 cells per timed operation.
pub const PASSES_PER_OP: u64 = 4;

/// Size of the SPEC profiles.
pub const SCALE: Scale = Scale::Test;

pub struct ReseedSweep {
    pub seed: u64,
}

pub struct State {
    modules: Vec<(&'static str, Module)>,
    refs: Vec<InterpResult>,
    /// `(baseline, full)` statistics and text sizes of pass 0, per profile.
    pass0: Vec<Option<(ExecStats, u64)>>,
}

impl ReseedSweep {
    /// The build configuration of `(pass, module, full)`: a fresh
    /// variant seed for every cell of every pass.
    fn config(&self, pass: u64, module: usize, full: bool) -> R2cConfig {
        let seed = sub_seed(
            self.seed,
            (pass << 16) | ((module as u64) << 1) | full as u64,
        );
        if full {
            R2cConfig::full(seed)
        } else {
            R2cConfig::baseline(seed)
        }
    }

    /// One pass over every cell; `record` keeps pass-0 statistics.
    fn pass(&self, st: &mut State, pass: u64, tr: &mut Tracer, checks: &mut Checks, record: bool) {
        for mi in 0..st.modules.len() {
            for full in [false, true] {
                let (name, module) = &st.modules[mi];
                let cfg = self.config(pass, mi, full);
                let Ok(image) = calls::build(tr, module, cfg) else {
                    checks.check(false, || format!("{name}: build failed"));
                    continue;
                };
                let mut vm = calls::load(tr, "vm.load", &image);
                let out = calls::run(tr, &mut vm);
                checks.check(
                    matches_reference(out.status, &vm.output, &st.refs[mi]),
                    || format!("{name} pass {pass}: run disagrees with the reference"),
                );
                if record {
                    st.pass0[2 * mi + full as usize] = Some((out.stats, image.text_size()));
                }
            }
        }
    }

    fn pass0(&self, st: &State, full: bool, mi: usize) -> (ExecStats, u64) {
        st.pass0[2 * mi + full as usize].expect("pass 0 ran")
    }
}

impl Workload for ReseedSweep {
    type State = State;

    fn setup(&self, tr: &mut Tracer, checks: &mut Checks) -> State {
        let mut modules = Vec::new();
        for p in spec_profiles() {
            let calls = SCALE.calls(p.table2_calls);
            modules.push((
                p.name,
                tr.leaf("workloads.gen", || build_workload(&p, calls)),
            ));
        }
        let refs = modules
            .iter()
            .map(|(name, m)| {
                calls::interpret(tr, m, REFERENCE_FUEL)
                    .unwrap_or_else(|e| panic!("reference interpretation of {name} failed: {e}"))
            })
            .collect();
        let pass0 = vec![None; 2 * modules.len()];
        let mut st = State {
            modules,
            refs,
            pass0,
        };
        // Warm-up pass on seeds no timed pass uses.
        self.pass(&mut st, u64::MAX >> 16, tr, checks, false);
        st
    }

    /// [`PASSES_PER_OP`] passes, so an operation lasts long enough for
    /// the calibration runs around it to cost little.
    fn op(&self, st: &mut State, i: u64, tr: &mut Tracer, checks: &mut Checks) {
        for p in 0..PASSES_PER_OP {
            let pass = i * PASSES_PER_OP + p;
            self.pass(st, pass, tr, checks, pass == 0);
        }
    }

    /// Cells built, loaded, run and checked per second (median op).
    fn rates(&self, st: &State, ops: &[OpTime]) -> (f64, Vec<Metric>) {
        let cells = (PASSES_PER_OP as usize * 2 * st.modules.len()) as f64;
        let norm: Vec<f64> = ops.iter().map(OpTime::norm_s).collect();
        let wall: Vec<f64> = ops.iter().map(|o| o.wall_s).collect();
        let rate = cells / median(&norm);
        (
            rate,
            vec![
                Metric::new("reseed_variants_per_s", rate, "1/s"),
                Metric::new("reseed_variants_per_s_wall", cells / median(&wall), "1/s"),
            ],
        )
    }

    fn probe(&self, st: &mut State, tr: &mut Tracer, checks: &mut Checks) {
        let probed = st.modules.iter().enumerate().step_by(PROBE_STRIDE);
        for (mi, (_, module)) in probed {
            for full in [false, true] {
                let cfg = self.config(0, mi, full);
                let Ok(image) = calls::build(tr, module, cfg) else {
                    checks.check(false, || "probe build failed".into());
                    continue;
                };
                calls::check_variant(tr, checks, module, cfg, &image);
                let vm = calls::load(tr, "vm.load", &image);
                drop(calls::load(tr, "vm.load_hit", &image));
                drop(vm);
            }
        }
    }

    /// §6.2 overheads of pass 0: full over baseline simulated cycles and
    /// peak resident pages, geomean over the 12 profiles.
    fn exact(&self, st: &mut State, _checks: &mut Checks) -> Vec<Metric> {
        let ratio = |f: &dyn Fn(&ExecStats) -> f64| {
            let rs: Vec<f64> = (0..st.modules.len())
                .map(|mi| f(&self.pass0(st, true, mi).0) / f(&self.pass0(st, false, mi).0))
                .collect();
            100.0 * (geomean(&rs) - 1.0)
        };
        vec![
            Metric::new("reseed_sim_overhead_pct", ratio(&|s| s.cycles as f64), "%"),
            Metric::new(
                "reseed_sim_rss_overhead_pct",
                ratio(&|s| s.max_rss_pages as f64),
                "%",
            ),
        ]
    }

    fn layer_details(&self, st: &State, tr: &Tracer) -> Vec<Metric> {
        let text = |full: bool| -> f64 {
            (0..st.modules.len())
                .map(|mi| self.pass0(st, full, mi).1 as f64)
                .sum()
        };
        let mut out = vec![
            Metric::new("codegen.image_text_bytes.baseline", text(false), "bytes"),
            Metric::new("codegen.image_text_bytes.full", text(true), "bytes"),
            Metric::new("vm.load_hit_us.p50", tr.p50_us("vm.load_hit"), "us"),
        ];
        for (mi, (name, _)) in st.modules.iter().enumerate() {
            for full in [false, true] {
                let (s, _) = self.pass0(st, full, mi);
                let n = format!("{name}/{}", if full { "full" } else { "baseline" });
                out.push(Metric::new(
                    format!("vm.sim_cycles.{n}"),
                    s.cycles as f64,
                    "decicycles",
                ));
                out.push(Metric::new(
                    format!("vm.guest_insns.{n}"),
                    s.instructions as f64,
                    "count",
                ));
                out.push(Metric::new(
                    format!("vm.max_rss_pages.{n}"),
                    s.max_rss_pages as f64,
                    "pages",
                ));
            }
        }
        out
    }
}
