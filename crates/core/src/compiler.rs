//! The R²C compiler facade.

use r2c_check::CheckError;
use r2c_codegen::{link, mix_seed, CompileError, CompileOptions, FuncKind, LinkOptions, Program};
use r2c_ir::Module;
use r2c_vm::Image;

use crate::config::R2cConfig;
use crate::report::{CompileReport, PassTiming};
use crate::runtime::{inject_btdp_runtime, BtdpRuntime};

/// Runs `f`, appending its wall time to `timings` (when telemetry is
/// requested) under the given pass name.
fn timed<T>(
    timings: &mut Option<&mut Vec<PassTiming>>,
    pass: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let start = std::time::Instant::now();
    let out = f();
    if let Some(t) = timings.as_deref_mut() {
        t.push(PassTiming {
            pass,
            wall_us: start.elapsed().as_micros() as u64,
        });
    }
    out
}

/// A failed [`R2cCompiler::build`]: either the backend rejected the
/// module, or the `r2c-check` static analyzer found the emitted code in
/// violation of a checked invariant.
#[derive(Clone, Debug)]
pub enum BuildError {
    /// IR verification or lowering failed.
    Compile(CompileError),
    /// The static checker flagged the compiled output.
    Check {
        /// Which artifact was rejected: `"program"` or `"image"`.
        stage: &'static str,
        /// Every finding, in pass order.
        errors: Vec<CheckError>,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Compile(e) => write!(f, "{e}"),
            BuildError::Check { stage, errors } => {
                write!(
                    f,
                    "static checker rejected the {stage} ({} finding(s))",
                    errors.len()
                )?;
                for e in errors.iter().take(8) {
                    write!(f, "\n  {e}")?;
                }
                if errors.len() > 8 {
                    write!(f, "\n  ... and {} more", errors.len() - 8)?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for BuildError {}

impl From<CompileError> for BuildError {
    fn from(e: CompileError) -> BuildError {
        BuildError::Compile(e)
    }
}

/// Static information about one built variant, for reports and tests.
#[derive(Clone, Debug, Default)]
pub struct VariantInfo {
    /// Total text bytes of the compiled functions (before booby traps).
    pub text_bytes: u64,
    /// Number of call sites instrumented with BTRA windows.
    pub btra_sites: u32,
    /// Number of BTDP stack stores across all functions.
    pub btdp_stores: u32,
    /// Number of booby-trap functions interspersed in the text.
    pub booby_traps: u32,
    /// Number of BTDP array entries (0 when BTDPs are disabled).
    pub btdp_array_len: u32,
    /// Details of the injected BTDP runtime, if any.
    pub btdp_runtime: Option<BtdpRuntime>,
}

/// Compiles IR modules into R²C-protected images.
///
/// The compiler is deterministic: the same `(module, config)` always
/// produces the same image; changing only the seed produces a fresh
/// diversified variant.
#[derive(Clone, Debug)]
pub struct R2cCompiler {
    config: R2cConfig,
}

impl R2cCompiler {
    /// Creates a compiler with the given configuration.
    pub fn new(config: R2cConfig) -> R2cCompiler {
        R2cCompiler { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &R2cConfig {
        &self.config
    }

    /// Compiles and links `module` into an image.
    pub fn build(&self, module: &Module) -> Result<Image, BuildError> {
        self.build_with_info(module).map(|(image, _)| image)
    }

    /// Compiles and links, also returning static variant information.
    ///
    /// When [`R2cConfig::check`] is set, the `r2c-check` static
    /// analyzer validates both the pre-link program and the linked
    /// image; any finding fails the build with
    /// [`BuildError::Check`].
    pub fn build_with_info(&self, module: &Module) -> Result<(Image, VariantInfo), BuildError> {
        self.build_inner(module, &mut None)
    }

    /// Like [`R2cCompiler::build_with_info`], additionally collecting
    /// compile telemetry — per-pass wall time, per-function
    /// instrumentation counts and link-time code growth — into a
    /// [`CompileReport`].
    ///
    /// Telemetry collection only *observes* the passes; the produced
    /// image is identical to the one [`R2cCompiler::build`] returns for
    /// the same `(module, config)`.
    pub fn build_with_report(
        &self,
        module: &Module,
    ) -> Result<(Image, VariantInfo, CompileReport), BuildError> {
        let mut report = CompileReport {
            seed: self.config.seed,
            ..CompileReport::default()
        };
        let (image, info) = self.build_inner(module, &mut Some(&mut report))?;
        report.record_image(&image);
        Ok((image, info, report))
    }

    /// Shared build pipeline; `report` is `Some` when telemetry was
    /// requested.
    fn build_inner(
        &self,
        module: &Module,
        report: &mut Option<&mut CompileReport>,
    ) -> Result<(Image, VariantInfo), BuildError> {
        let mut timings: Option<Vec<PassTiming>> = report.as_ref().map(|_| Vec::new());
        let mut tref = timings.as_mut();
        let (program, opts, rt) = self.compile_program_timed(module, &mut tref)?;
        if self.config.check {
            let errors = timed(&mut tref, "check-program", || {
                r2c_check::check_program(&program, &opts.diversify)
            });
            if !errors.is_empty() {
                if let Some(r) = report.as_deref_mut() {
                    r.passes = timings.unwrap_or_default();
                    r.record_program(&program);
                }
                return Err(BuildError::Check {
                    stage: "program",
                    errors,
                });
            }
        }
        let image = timed(&mut tref, "link", || {
            link(
                &program,
                &LinkOptions::from_config(&opts.diversify, opts.seed),
            )
        });
        let check_image_errors = if self.config.check {
            timed(&mut tref, "check-image", || {
                r2c_check::check_image(&image, &opts.diversify)
            })
        } else {
            Vec::new()
        };
        // Decode translation validation only makes sense on an image
        // that already passed the structural checks.
        let check_decode_errors = if self.config.check_decode && check_image_errors.is_empty() {
            timed(&mut tref, "check-decode", || {
                r2c_check::check_decode(&image)
            })
        } else {
            Vec::new()
        };
        if let Some(r) = report.as_deref_mut() {
            r.passes = timings.unwrap_or_default();
            r.record_program(&program);
        }
        if !check_image_errors.is_empty() {
            return Err(BuildError::Check {
                stage: "image",
                errors: check_image_errors,
            });
        }
        if !check_decode_errors.is_empty() {
            return Err(BuildError::Check {
                stage: "decode",
                errors: check_decode_errors,
            });
        }
        let mut info = VariantInfo {
            text_bytes: program.text_bytes(),
            booby_traps: program.booby_trap_funcs,
            btdp_array_len: rt.as_ref().map(|r| r.array_len).unwrap_or(0),
            btdp_runtime: rt,
            ..VariantInfo::default()
        };
        for f in &program.funcs {
            if f.kind == FuncKind::Normal {
                info.btra_sites += f.btra_sites;
                info.btdp_stores += f.btdp_stores;
            }
        }
        Ok((image, info))
    }

    /// Compiles to the pre-link [`Program`] (exposed so tests and the
    /// security analysis can inspect relocations, e.g. to verify the
    /// BTRA properties of §4.1).
    pub fn compile_program(
        &self,
        module: &Module,
    ) -> Result<(Program, CompileOptions, Option<BtdpRuntime>), CompileError> {
        self.compile_program_timed(module, &mut None)
    }

    /// [`R2cCompiler::compile_program`] with optional per-pass timing.
    fn compile_program_timed(
        &self,
        module: &Module,
        timings: &mut Option<&mut Vec<PassTiming>>,
    ) -> Result<(Program, CompileOptions, Option<BtdpRuntime>), CompileError> {
        // Verify the *input* module up front so IR errors are reported
        // against the user's code, not the runtime-injected clone
        // (which `r2c_codegen::compile` re-verifies).
        timed(timings, "verify", || r2c_ir::verify_module(module)).map_err(CompileError::Verify)?;
        let mut m = module.clone();
        let mut diversify = self.config.diversify;
        let mut ctors = Vec::new();
        let mut runtime = None;
        if let Some(mut b) = diversify.btdp {
            let rt = timed(timings, "inject-btdp", || {
                inject_btdp_runtime(&mut m, &b, mix_seed(self.config.seed, 0xD07))
            });
            b.ptr_global = rt.ptr_global.0;
            b.array_len = rt.array_len;
            diversify.btdp = Some(b);
            ctors.push(rt.ctor_name.clone());
            runtime = Some(rt);
        }
        let opts = CompileOptions {
            diversify,
            seed: self.config.seed,
            entry: "main".into(),
            ctors,
        };
        let program = timed(timings, "lower", || r2c_codegen::compile(&m, &opts))?;
        Ok((program, opts, runtime))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::R2cConfig;
    use r2c_ir::parse_module;
    use r2c_vm::{ExitStatus, MachineKind, Vm, VmConfig};

    const SRC: &str = r#"
func @work(1) {
entry:
  %0 = param 0
  %1 = alloca 16 align 8
  store %1 + 0, %0
  %2 = load %1 + 0
  %3 = add %2, %2
  ret %3
}
func @main(0) {
entry:
  %0 = const 21
  %1 = call @work(%0)
  %2 = extern print(%1)
  ret %1
}
"#;

    #[test]
    fn full_build_runs_and_prints() {
        let m = parse_module(SRC).unwrap();
        let (image, info) = R2cCompiler::new(R2cConfig::full(5))
            .build_with_info(&m)
            .unwrap();
        let mut vm = Vm::new(&image, VmConfig::new(MachineKind::EpycRome.config()));
        let out = vm.run();
        assert_eq!(out.status, ExitStatus::Exited(42));
        assert_eq!(vm.output, vec![42]);
        assert!(info.btra_sites >= 2, "print + work call sites: {info:?}");
        assert!(info.booby_traps > 0);
        assert!(info.btdp_array_len > 0);
    }

    #[test]
    fn baseline_has_no_instrumentation() {
        let m = parse_module(SRC).unwrap();
        let (_, info) = R2cCompiler::new(R2cConfig::baseline(5))
            .build_with_info(&m)
            .unwrap();
        assert_eq!(info.btra_sites, 0);
        assert_eq!(info.btdp_stores, 0);
        assert_eq!(info.booby_traps, 0);
    }

    #[test]
    fn btdp_constructor_creates_guard_pages() {
        let m = parse_module(SRC).unwrap();
        let (image, info) = R2cCompiler::new(R2cConfig::full(9))
            .build_with_info(&m)
            .unwrap();
        let mut vm = Vm::new(&image, VmConfig::new(MachineKind::EpycRome.config()));
        let out = vm.run();
        assert!(out.status.is_exit());
        // The kept pages must now be guard pages: the published BTDP
        // array entries all point into permission-less pages.
        let ptr_addr = image.func_addr("__r2c_btdp_ptr");
        let arr = vm.mem.peek_u64(ptr_addr);
        assert!(arr >= image.layout.heap_base, "array must live on the heap");
        let len = info.btdp_array_len as u64;
        for k in 0..len {
            let btdp = vm.mem.peek_u64(arr + 8 * k);
            let perms = vm.perms_at(btdp).expect("BTDP target mapped");
            assert_eq!(perms, r2c_vm::Perms::NONE, "BTDP {k} not a guard page");
        }
    }

    #[test]
    fn report_captures_passes_and_instrumentation() {
        let m = parse_module(SRC).unwrap();
        // Force the checkers on: they default off in release builds,
        // and the test pins the full pass list.
        let cfg = R2cConfig::full(5).with_check(true).with_check_decode(true);
        let (image, info, report) = R2cCompiler::new(cfg).build_with_report(&m).unwrap();
        // Telemetry must not change the build product.
        let plain = R2cCompiler::new(cfg).build(&m).unwrap();
        assert_eq!(image.insn_addrs, plain.insn_addrs);
        assert_eq!(image.entry, plain.entry);
        // Every pipeline stage is timed, in execution order.
        let names: Vec<&str> = report.passes.iter().map(|p| p.pass).collect();
        assert_eq!(
            names,
            [
                "verify",
                "inject-btdp",
                "lower",
                "check-program",
                "link",
                "check-image",
                "check-decode"
            ]
        );
        // Per-function counts agree with the aggregate VariantInfo.
        let (stores, sites): (u32, u32) = report
            .funcs
            .iter()
            .filter(|f| f.kind == "normal")
            .fold((0, 0), |(s, b), f| (s + f.btdp_stores, b + f.btra_sites));
        assert_eq!(stores, info.btdp_stores);
        assert_eq!(sites, info.btra_sites);
        assert_eq!(report.booby_traps, info.booby_traps);
        assert_eq!(report.seed, 5);
        // Full R²C inserts NOPs and prolog traps, and link-time booby
        // traps plus padding grow the text.
        let nops: u32 = report.funcs.iter().map(|f| f.nops).sum();
        let traps: u32 = report.funcs.iter().map(|f| f.traps).sum();
        assert!(nops > 0, "expected call-site NOPs: {report:?}");
        assert!(traps > 0, "expected prolog traps: {report:?}");
        assert!(report.image_insns > 0);
        assert!(
            report.link_growth_bytes() > 0,
            "booby traps must grow the image: {report:?}"
        );
    }

    #[test]
    fn baseline_report_shows_no_instrumentation() {
        let m = parse_module(SRC).unwrap();
        let (_, _, report) = R2cCompiler::new(R2cConfig::baseline(3))
            .build_with_report(&m)
            .unwrap();
        assert!(report.passes.iter().all(|p| p.pass != "inject-btdp"));
        for f in &report.funcs {
            assert_eq!(f.nops, 0, "{}", f.name);
            assert_eq!(f.btdp_stores, 0, "{}", f.name);
            assert_eq!(f.btra_sites, 0, "{}", f.name);
        }
        assert_eq!(report.booby_traps, 0);
    }

    #[test]
    fn variants_differ_across_seeds() {
        let m = parse_module(SRC).unwrap();
        let a = R2cCompiler::new(R2cConfig::full(1)).build(&m).unwrap();
        let b = R2cCompiler::new(R2cConfig::full(2)).build(&m).unwrap();
        assert_ne!(a.func_addr("main"), b.func_addr("main"));
        assert_ne!(
            a.func_addr("work") - a.layout.text_base,
            b.func_addr("work") - b.layout.text_base,
            "intra-section layout must differ, not just the ASLR base"
        );
    }

    #[test]
    fn deterministic_for_same_seed() {
        let m = parse_module(SRC).unwrap();
        let a = R2cCompiler::new(R2cConfig::full(33)).build(&m).unwrap();
        let b = R2cCompiler::new(R2cConfig::full(33)).build(&m).unwrap();
        assert_eq!(a.insn_addrs, b.insn_addrs);
        assert_eq!(a.entry, b.entry);
    }
}
