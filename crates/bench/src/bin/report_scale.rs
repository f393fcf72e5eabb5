//! Regenerates the **§6.3 scalability result**: R²C compiles large,
//! complex programs correctly. The paper builds WebKit (4.5 MLoC) and
//! Chromium (32 MLoC) and runs their test suites; at this substrate's
//! scale we generate programs of increasing size (thousands of
//! functions, hundreds of thousands of IR instructions), compile them
//! with full protection, and verify their self-checking output against
//! the reference interpreter — the same "the built artifact passes its
//! tests" criterion.

use std::time::Instant;

use r2c_bench::{parallel_map, TablePrinter};
use r2c_core::{R2cCompiler, R2cConfig};
use r2c_ir::interpret;
use r2c_vm::{ExitStatus, MachineKind, Vm, VmConfig};
use r2c_workloads::{build_workload, Profile};

fn main() {
    let large = r2c_bench::cli::parse("usage: report_scale [--large]").flag("--large");
    println!("Scalability (paper §6.3): compiling and validating large programs\n");
    let t = TablePrinter::new(&[10, 10, 12, 12, 12, 10]);
    t.row(&[
        "funcs".into(),
        "IR insts".into(),
        "text bytes".into(),
        "compile ms".into(),
        "output".into(),
        "status".into(),
    ]);
    t.sep();
    let sizes: &[u32] = if large {
        &[100, 400, 1600, 6400, 12800]
    } else {
        &[100, 400, 1600, 4000]
    };
    // Module generation and the reference interpretation are untimed
    // and independent per size — fan them out. The *timed* compiles
    // below stay serial so `compile ms` is not skewed by contention.
    let prepared = parallel_map(sizes, |&funcs| {
        let profile = Profile {
            name: "scale",
            table2_calls: funcs as u64,
            chain_len: 32,
            work: 12,
            inner_loop: 1,
            funcs,
            array_kb: 64,
            indirect_every: 2,
            recursion: 4,
            chase: 16,
            heap_mb: 0,
        };
        let module = build_workload(&profile, 4000);
        let expected = interpret(&module, "main", 1_000_000_000).expect("interp");
        (module, expected)
    });
    for (&funcs, (module, expected)) in sizes.iter().zip(&prepared) {
        let ir_insts: usize = module.funcs.iter().map(|f| f.inst_count()).sum();
        let start = Instant::now();
        let (image, _info) = R2cCompiler::new(R2cConfig::full(7))
            .build_with_info(module)
            .expect("compile");
        let compile_ms = start.elapsed().as_millis();
        let mut vm = Vm::new(&image, VmConfig::new(MachineKind::EpycRome.config()));
        let out = vm.run();
        let ok = out.status == ExitStatus::Exited(expected.ret) && vm.output == expected.output;
        t.row(&[
            format!("{funcs}"),
            format!("{ir_insts}"),
            format!("{}", image.text_size()),
            format!("{compile_ms}"),
            format!("{:?}", vm.output),
            if ok { "OK".into() } else { "MISMATCH".into() },
        ]);
        assert!(ok, "scalability validation failed at {funcs} functions");
    }
    println!("\nAll sizes compiled with full R2C and validated against the reference");
    println!("interpreter (the paper's equivalent: WebKit/Chromium test suites pass).");
}
