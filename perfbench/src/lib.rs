//! Repeatable host benchmark of the R²C stack.
//!
//! Four workloads load the compile → decode → execute → serve layers
//! in different proportions (see `README.md` in this directory). Every
//! layer is measured from outside: the benchmark times its own calls
//! into each crate's public functions and never instruments the
//! crates themselves. One process drives all load; the benchmark's own
//! calls stay on one thread.

pub mod calls;
pub mod cli;
pub mod fleet;
pub mod fuzz;
pub mod host;
pub mod reseed;
pub mod run;
pub mod stats;
pub mod steady;
pub mod trace;

use r2c_vm::{MachineKind, VmConfig};

/// splitmix64 finalizer: derives independent sub-seeds from `--seed`.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Sub-seed `i` of `seed`.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    mix(seed ^ mix(i))
}

/// The VM configuration every workload runs on: EPYC Rome, fusion and
/// copy-on-write on (the knob guard in [`host`] has already refused
/// `R2C_NO_FUSE` / `R2C_NO_COW`).
pub fn vm_config() -> VmConfig {
    VmConfig::new(MachineKind::EpycRome.config())
}

/// One named value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Output checks: every checked operation counts as attempted; a
/// mismatch counts as failed and keeps a note for the report.
#[derive(Default, Debug)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 16 {
                self.notes.push(what());
            }
        }
    }
}
