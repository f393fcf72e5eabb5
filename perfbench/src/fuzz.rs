//! `fuzz-oracle`: generated cases through the quick oracle matrix.
//!
//! Release builds turn the static checks off inside `build`, so this is
//! the workload that loads the `check` layer (the `tv` cell's
//! translation validation), `ir::interpret` and traced execution (the
//! `replay` cell). Cases run serially through `run_case`.
//!
//! Generated cases differ in cost by up to 3x, and a case cannot be
//! timed against itself unless it repeats. So a run draws a fixed set
//! of cases from its seed and checks them round-robin: each case's
//! cost is the median of its repetitions, and the headline rate counts
//! work in [`case_work`] units, which keeps the rate comparable across
//! seeds. The unit is computed from the generated module alone, so no
//! change to the compiler moves it. Cases per second are reported next
//! to it.

use std::collections::BTreeMap;

use r2c_core::R2cConfig;
use r2c_fuzz::oracle::{check_cell, REFERENCE_FUEL, VARIANT_INSN_BUDGET};
use r2c_fuzz::{gen, run_case, CaseVerdict, OracleMatrix};
use r2c_ir::Module;
use r2c_vm::Vm;

use crate::run::{OpTime, Workload};
use crate::stats::median;
use crate::steady::matches_reference;
use crate::trace::Tracer;
use crate::{calls, sub_seed, vm_config, Checks, Metric};

/// Distinct cases per run, checked round-robin.
pub const CASES: u64 = 32;

/// Cases the traced run's layer probe compiles and runs itself.
pub const PROBE_CASES: u64 = 4;

/// The fixed part of a case's cost, in IR instructions.
pub const CASE_BASE_INSNS: usize = 600;

/// The work in one case: its module's IR instructions plus
/// [`CASE_BASE_INSNS`]. Every matrix cell compiles, checks or
/// interprets the whole module, so part of a case's cost grows with
/// its size; the rest (linking the runtime, booting VMs and fleets) is
/// the same for every case. On 72 generated cases, case time fitted
/// 0.24 s + 0.38 ms per IR instruction, so the fixed part is about 600
/// instructions' worth. Over random 32-case sets, this unit left a
/// third of the seed-to-seed spread that cases alone or IR
/// instructions alone do (IQR/median 0.035 against 0.062 and 0.072).
pub fn case_work(module: &Module) -> f64 {
    let insns: usize = module.funcs.iter().map(|f| f.inst_count()).sum();
    (insns + CASE_BASE_INSNS) as f64
}

pub struct FuzzOracle {
    pub seed: u64,
}

impl FuzzOracle {
    fn case_seed(&self, i: u64) -> u64 {
        sub_seed(self.seed, i)
    }
}

pub struct State {
    matrix: OracleMatrix,
    /// [`case_work`] of each case.
    sizes: Vec<f64>,
    /// Per quick-matrix configuration: wall time of each cell run, ms.
    cell_ms: BTreeMap<String, Vec<f64>>,
}

impl Workload for FuzzOracle {
    type State = State;

    fn min_ops(&self) -> usize {
        CASES as usize
    }

    /// Builds the matrix, then generates, reference-interprets and
    /// sizes the run's cases (a generator or interpreter failure is a
    /// failed operation).
    fn setup(&self, tr: &mut Tracer, checks: &mut Checks) -> State {
        let matrix = OracleMatrix::quick();
        let mut sizes = Vec::new();
        for i in 0..CASES {
            let module = tr.leaf("workloads.gen", || gen::generate(self.case_seed(i)));
            let reference = calls::interpret(tr, &module, REFERENCE_FUEL);
            checks.check(reference.is_ok(), || format!("case {i}: reference failed"));
            sizes.push(case_work(&module));
        }
        State {
            matrix,
            sizes,
            cell_ms: BTreeMap::new(),
        }
    }

    /// One case. Untraced: `run_case`. Traced: the same steps with a
    /// span around each — generation, the reference interpretation and
    /// every matrix cell.
    fn op(&self, st: &mut State, i: u64, tr: &mut Tracer, checks: &mut Checks) {
        let i = i % CASES;
        let case_seed = self.case_seed(i);
        if !tr.enabled() {
            let (_, report) = run_case(case_seed, &st.matrix);
            let pass = matches!(report.verdict, CaseVerdict::Pass { .. });
            checks.check(pass, || format!("case {i}: {:?}", report.verdict));
            return;
        }
        tr.enter("fuzz.case");
        let module = tr.leaf("workloads.gen", || gen::generate(case_seed));
        let pass = match calls::interpret(tr, &module, REFERENCE_FUEL) {
            Ok(reference) => {
                let mut pass = true;
                for cell in st.matrix.cells() {
                    let t0 = std::time::Instant::now();
                    let span = format!("fuzz.cell.{}", cell.config_name);
                    let diverged = tr.leaf(&span, || check_cell(&module, &reference, &cell));
                    st.cell_ms
                        .entry(cell.config_name.clone())
                        .or_default()
                        .push(t0.elapsed().as_secs_f64() * 1e3);
                    pass &= diverged.is_none();
                }
                pass
            }
            Err(_) => false,
        };
        tr.exit();
        checks.check(pass, || {
            format!("case {i}: traced oracle verdict is not Pass")
        });
    }

    /// Work units (and cases) checked through the quick matrix per
    /// second, each case at the median of its repetitions.
    fn rates(&self, st: &State, ops: &[OpTime]) -> (f64, Vec<Metric>) {
        let k = CASES as usize;
        let total_s: f64 = (0..k)
            .map(|c| {
                let reps: Vec<f64> = ops.iter().skip(c).step_by(k).map(OpTime::norm_s).collect();
                median(&reps)
            })
            .sum();
        let work: f64 = st.sizes.iter().sum();
        (
            work / total_s,
            vec![Metric::new("fuzz_cases_per_s", k as f64 / total_s, "1/s")],
        )
    }

    /// Compiles, checks, loads and runs a full R²C variant of the first
    /// cases from the benchmark itself: the layer calls the matrix
    /// cells make internally.
    fn probe(&self, _st: &mut State, tr: &mut Tracer, checks: &mut Checks) {
        for i in 0..PROBE_CASES {
            let module = tr.leaf("workloads.gen", || gen::generate(self.case_seed(i)));
            let Ok(reference) = calls::interpret(tr, &module, REFERENCE_FUEL) else {
                checks.check(false, || format!("case {i}: reference failed"));
                continue;
            };
            let cfg = R2cConfig::full(sub_seed(self.seed, 1 << 32 | i));
            let Ok(image) = calls::build(tr, &module, cfg) else {
                checks.check(false, || format!("case {i}: probe build failed"));
                continue;
            };
            calls::check_variant(tr, checks, &module, cfg, &image);
            let mut vm = tr.leaf("vm.load", || {
                Vm::new(
                    &image,
                    r2c_vm::VmConfig {
                        insn_budget: VARIANT_INSN_BUDGET,
                        ..vm_config()
                    },
                )
            });
            let out = calls::run(tr, &mut vm);
            checks.check(
                matches_reference(out.status, &vm.output, &reference),
                || format!("case {i}: probe run disagrees with the reference"),
            );
        }
    }

    fn exact(&self, st: &mut State, _checks: &mut Checks) -> Vec<Metric> {
        vec![Metric::new(
            "fuzz.cells_per_case",
            st.matrix.cells().len() as f64,
            "count",
        )]
    }

    fn layer_details(&self, st: &State, _tr: &Tracer) -> Vec<Metric> {
        st.cell_ms
            .iter()
            .map(|(name, ms)| Metric::new(format!("fuzz.cell_ms.{name}"), median(ms), "ms"))
            .collect()
    }
}
