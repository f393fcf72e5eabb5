//! Compile-time telemetry: what each R²C pass cost and what it emitted.
//!
//! [`CompileReport`] is the build half of the r2c-trace observability
//! layer (the execution half lives in [`r2c_vm::trace`]). It records
//! per-pass wall time, per-function instrumentation counts (NOPs,
//! prolog traps, BTDP stores, BTRA sites) and the code growth from the
//! pre-link program to the linked image. Every field is public; the
//! bench harness serializes it (`r2c_bench::json`).

use r2c_codegen::{FuncKind, Program};
use r2c_vm::{Image, Insn};

/// Wall time of one compiler pass.
#[derive(Clone, Debug)]
pub struct PassTiming {
    /// Pass name (`"verify"`, `"inject-btdp"`, `"lower"`,
    /// `"check-program"`, `"link"`, `"check-image"`).
    pub pass: &'static str,
    /// Host wall time in microseconds.
    pub wall_us: u64,
}

/// Static per-function emission statistics, taken from the pre-link
/// program (booby-trap padding functions are generated at link time and
/// appear only in the image totals).
#[derive(Clone, Debug)]
pub struct FuncReport {
    /// Function name.
    pub name: String,
    /// `"normal"`, `"booby-trap"` or `"constructor"`.
    pub kind: &'static str,
    /// Emitted instruction count.
    pub insns: u64,
    /// Encoded size in bytes.
    pub bytes: u64,
    /// NOPs inserted by call-site NOP insertion.
    pub nops: u32,
    /// Trap instructions (prolog traps; booby-trap bodies).
    pub traps: u32,
    /// BTDP stack stores inserted.
    pub btdp_stores: u32,
    /// Call sites instrumented with BTRA windows.
    pub btra_sites: u32,
}

/// Telemetry for one [`R2cCompiler::build_with_report`] invocation.
///
/// [`R2cCompiler::build_with_report`]: crate::R2cCompiler::build_with_report
#[derive(Clone, Debug, Default)]
pub struct CompileReport {
    /// Diversification seed of this variant.
    pub seed: u64,
    /// Wall time per pass, in execution order.
    pub passes: Vec<PassTiming>,
    /// Per-function emission statistics (pre-link).
    pub funcs: Vec<FuncReport>,
    /// Total text bytes of the pre-link program (compiled functions
    /// only, before booby traps and layout padding).
    pub prelink_text_bytes: u64,
    /// Text bytes of the linked image (includes generated booby traps
    /// and shuffle padding).
    pub image_text_bytes: u64,
    /// Instruction count of the linked image.
    pub image_insns: u64,
    /// Booby-trap functions the linker interspersed.
    pub booby_traps: u32,
}

impl CompileReport {
    /// Records per-function statistics from the pre-link program.
    pub fn record_program(&mut self, program: &Program) {
        self.prelink_text_bytes = program.text_bytes();
        self.booby_traps = program.booby_trap_funcs;
        self.funcs = program
            .funcs
            .iter()
            .map(|f| FuncReport {
                name: f.name.clone(),
                kind: match f.kind {
                    FuncKind::Normal => "normal",
                    FuncKind::BoobyTrap => "booby-trap",
                    FuncKind::Constructor => "constructor",
                },
                insns: f.insns.len() as u64,
                bytes: f.byte_size(),
                nops: f
                    .insns
                    .iter()
                    .filter(|i| matches!(i, Insn::Nop { .. }))
                    .count() as u32,
                traps: f.insns.iter().filter(|i| matches!(i, Insn::Trap)).count() as u32,
                btdp_stores: f.btdp_stores,
                btra_sites: f.btra_sites,
            })
            .collect();
    }

    /// Records image-level totals from the linked image.
    pub fn record_image(&mut self, image: &Image) {
        self.image_text_bytes = image.text_size();
        self.image_insns = image.insns.len() as u64;
    }

    /// Total compile wall time across all timed passes, in microseconds.
    pub fn total_wall_us(&self) -> u64 {
        self.passes.iter().map(|p| p.wall_us).sum()
    }

    /// Code growth of the linked image over the pre-link program text
    /// (booby traps, shuffle padding), in bytes.
    pub fn link_growth_bytes(&self) -> u64 {
        self.image_text_bytes
            .saturating_sub(self.prelink_text_bytes)
    }

    /// Compile-side coverage features for the fuzzer's coverage map:
    /// which passes ran, and order-of-magnitude buckets of every
    /// instrumentation counter the pipeline emitted. Counters are
    /// bucketed (log2) so the feature space stays small and a case only
    /// counts as *new* coverage when it moves a counter into a new
    /// magnitude class, not on every ±1 wobble.
    pub fn coverage_features(&self) -> Vec<String> {
        let mut f: Vec<String> = self
            .passes
            .iter()
            .map(|p| format!("pass:{}", p.pass))
            .collect();
        let (mut nops, mut traps, mut stores, mut sites) = (0u64, 0u64, 0u64, 0u64);
        for fr in &self.funcs {
            nops += fr.nops as u64;
            traps += fr.traps as u64;
            stores += fr.btdp_stores as u64;
            sites += fr.btra_sites as u64;
        }
        for (name, v) in [
            ("nops", nops),
            ("traps", traps),
            ("btdp-stores", stores),
            ("btra-sites", sites),
            ("booby-traps", self.booby_traps as u64),
            ("link-growth", self.link_growth_bytes()),
            ("image-insns", self.image_insns),
            ("funcs", self.funcs.len() as u64),
        ] {
            f.push(format!("compile:{name}:{}", coverage_bucket(v)));
        }
        f
    }
}

/// Log2 magnitude bucket used by every coverage feature that wraps a
/// counter: 0 stays 0, otherwise `1 + floor(log2(v))` — so 1, 2-3,
/// 4-7, 8-15, … each form one bucket.
pub fn coverage_bucket(v: u64) -> u32 {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_bucket_is_log2() {
        assert_eq!(coverage_bucket(0), 0);
        assert_eq!(coverage_bucket(1), 1);
        assert_eq!(coverage_bucket(2), 2);
        assert_eq!(coverage_bucket(3), 2);
        assert_eq!(coverage_bucket(4), 3);
        assert_eq!(coverage_bucket(1023), 10);
    }
}
