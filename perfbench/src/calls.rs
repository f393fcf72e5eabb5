//! The benchmark's calls into each layer, each wrapped in its span.

use r2c_core::{BuildError, R2cCompiler, R2cConfig};
use r2c_ir::Module;
use r2c_vm::{Image, RunOutcome, VAddr, Vm};

use crate::trace::Tracer;
use crate::{vm_config, Checks};

/// `R2cCompiler::build`; a traced run calls `build_with_report` instead
/// and records each pass's wall time as a `pass.<name>` sample.
pub fn build(tr: &mut Tracer, module: &Module, cfg: R2cConfig) -> Result<Image, BuildError> {
    let compiler = R2cCompiler::new(cfg);
    if !tr.enabled() {
        return compiler.build(module);
    }
    let (image, _, report) = tr.leaf("core.build", || compiler.build_with_report(module))?;
    for p in &report.passes {
        tr.sample(&format!("pass.{}", p.pass), p.wall_us as f64);
    }
    Ok(image)
}

/// `Vm::new`, in span `span`: `vm.load` for an image whose decode is
/// not cached (a decode miss), `vm.load_hit` for one some live VM has
/// already decoded (a cache hit).
pub fn load(tr: &mut Tracer, span: &str, image: &Image) -> Vm {
    tr.leaf(span, || Vm::new(image, vm_config()))
}

/// `Vm::run` from the image entry.
pub fn run(tr: &mut Tracer, vm: &mut Vm) -> RunOutcome {
    let before = vm.stats();
    let out = tr.leaf("vm.run", || vm.run());
    count_exec(tr, vm, before);
    out
}

/// `Vm::call` of `target` with `args`.
pub fn call(tr: &mut Tracer, vm: &mut Vm, target: VAddr, args: &[u64]) -> RunOutcome {
    let before = vm.stats();
    let out = tr.leaf("vm.call", || vm.call(target, args));
    count_exec(tr, vm, before);
    out
}

fn count_exec(tr: &mut Tracer, vm: &Vm, before: r2c_vm::ExecStats) {
    if tr.enabled() {
        let after = vm.stats();
        tr.count(
            "vm.insns",
            (after.instructions - before.instructions) as f64,
        );
        tr.count(
            "vm.icache_misses",
            (after.icache_misses - before.icache_misses) as f64,
        );
        tr.count(
            "vm.icache_hits",
            (after.icache_hits - before.icache_hits) as f64,
        );
    }
}

/// `Vm::reset_to_image`.
pub fn reset(tr: &mut Tracer, vm: &mut Vm) {
    tr.leaf("vm.reset", || vm.reset_to_image());
}

/// `r2c_ir::interpret` of `main`.
pub fn interpret(
    tr: &mut Tracer,
    module: &Module,
    fuel: u64,
) -> Result<r2c_ir::InterpResult, r2c_ir::InterpError> {
    tr.leaf("ir.interp", || r2c_ir::interpret(module, "main", fuel))
}

/// The static checks of the `check` layer on one variant: the
/// pre-link program, the linked image and the decoded engine
/// (translation validation). Release builds run none of them inside
/// `build`, so the benchmark calls them itself. Every finding fails.
pub fn check_variant(
    tr: &mut Tracer,
    checks: &mut Checks,
    module: &Module,
    cfg: R2cConfig,
    image: &Image,
) {
    let compiler = R2cCompiler::new(cfg);
    let compiled = tr.leaf("core.compile_program", || compiler.compile_program(module));
    let Ok((program, opts, _)) = compiled else {
        checks.check(false, || "compile_program failed".into());
        return;
    };
    let findings = tr.leaf("check.program", || {
        r2c_check::check_program(&program, &opts.diversify)
    });
    checks.check(findings.is_empty(), || {
        format!("check_program: {findings:?}")
    });
    let findings = tr.leaf("check.image", || {
        r2c_check::check_image(image, &opts.diversify)
    });
    checks.check(findings.is_empty(), || format!("check_image: {findings:?}"));
    let findings = tr.leaf("check.decode", || r2c_check::check_decode(image));
    checks.check(findings.is_empty(), || {
        format!("check_decode: {findings:?}")
    });
}
