//! Sweeps the `r2c-check` static analyzer over every workload ×
//! configuration cell: each SPEC-profile module and both webserver
//! models, compiled under every preset and Table 1 component config
//! with a handful of seeds, must produce a pre-link program and a
//! linked image with **zero** findings.
//!
//! This is the release-mode counterpart of the debug-build default
//! (`R2cConfig::check` is on in debug builds): CI runs this binary so
//! the checker also validates the exact artifacts the performance
//! reports measure. Exits non-zero on any finding.
//!
//! With `--decode`, the sweep instead runs the decode translation
//! validator ([`r2c_check::check_decode`]) over every linked image:
//! each cell symbolically proves the pre-decoded execution-engine
//! program equivalent to the image's reference semantics under **all
//! four machine models, fusion on and off** (the release-mode
//! counterpart of `R2cConfig::check_decode`).

use std::process::ExitCode;

use r2c_bench::{parallel_map, TablePrinter};
use r2c_check::{check_decode, check_image, check_program};
use r2c_codegen::{link, LinkOptions};
use r2c_core::{Component, DiversifyConfig, R2cCompiler, R2cConfig};
use r2c_ir::Module;
use r2c_workloads::{spec_workloads, webserver_module, Scale, ServerKind};

fn configs(seed: u64) -> Vec<(String, R2cConfig)> {
    let mut out = vec![
        ("baseline".to_string(), R2cConfig::baseline(seed)),
        ("full".to_string(), R2cConfig::full(seed)),
        ("full-push".to_string(), R2cConfig::full_push(seed)),
        (
            "hardened".to_string(),
            R2cConfig {
                diversify: DiversifyConfig::hardened(2),
                seed,
                check: false,
                check_decode: false,
            },
        ),
    ];
    for c in Component::TABLE1.into_iter().chain([Component::Oia]) {
        out.push((format!("comp-{}", c.name()), R2cConfig::component(c, seed)));
    }
    out
}

/// Checks one (module, config) cell; returns the findings rendered as
/// strings (empty = clean). In decode mode the cell runs the decode
/// translation validator over the linked image (all machines, fusion
/// on and off) instead of the program/image structural passes.
fn check_cell(module: &Module, cfg: R2cConfig, decode: bool) -> Vec<String> {
    let compiler = R2cCompiler::new(cfg.with_check(false));
    let (program, opts, _) = match compiler.compile_program(module) {
        Ok(r) => r,
        Err(e) => return vec![format!("compile error: {e}")],
    };
    let image = link(
        &program,
        &LinkOptions::from_config(&opts.diversify, opts.seed),
    );
    if decode {
        return check_decode(&image)
            .into_iter()
            .map(|e| format!("decode: {e}"))
            .collect();
    }
    let mut findings: Vec<String> = check_program(&program, &opts.diversify)
        .into_iter()
        .map(|e| format!("program: {e}"))
        .collect();
    findings.extend(
        check_image(&image, &opts.diversify)
            .into_iter()
            .map(|e| format!("image: {e}")),
    );
    findings
}

fn main() -> ExitCode {
    let args = r2c_bench::cli::parse("usage: check [--decode] [--large]");
    let decode = args.flag("--decode");
    let seeds: &[u64] = if args.flag("--large") {
        &[0, 1, 2, 3, 4, 5, 6, 7]
    } else {
        &[0, 1, 2]
    };

    let mut modules: Vec<(String, Module)> = spec_workloads(Scale::Test)
        .into_iter()
        .map(|w| (w.name.to_string(), w.module))
        .collect();
    for kind in [ServerKind::Nginx, ServerKind::Apache] {
        modules.push((kind.name().to_string(), webserver_module(kind, 16)));
    }

    let cfg_names: Vec<String> = configs(0).iter().map(|(n, _)| n.clone()).collect();
    println!(
        "{}: {} workloads x {} configs x {} seeds\n",
        if decode {
            "Decode translation-validation sweep (all machines, fusion on/off)"
        } else {
            "Static checker sweep"
        },
        modules.len(),
        cfg_names.len(),
        seeds.len()
    );

    // One cell per (workload, config); each cell sweeps all seeds.
    let cells: Vec<(usize, usize)> = (0..modules.len())
        .flat_map(|wi| (0..cfg_names.len()).map(move |ci| (wi, ci)))
        .collect();
    let results = parallel_map(&cells, |&(wi, ci)| {
        let mut findings = Vec::new();
        for &seed in seeds {
            let (name, cfg) = configs(seed).swap_remove(ci);
            debug_assert_eq!(name, cfg_names[ci]);
            for f in check_cell(&modules[wi].1, cfg, decode) {
                findings.push(format!("seed {seed}: {f}"));
            }
        }
        findings
    });

    let t = TablePrinter::new(&[12, 11, 9]);
    t.row(&["workload".into(), "config".into(), "findings".into()]);
    t.sep();
    let mut total = 0usize;
    for (&(wi, ci), findings) in cells.iter().zip(&results) {
        total += findings.len();
        t.row(&[
            modules[wi].0.clone(),
            cfg_names[ci].clone(),
            if findings.is_empty() {
                "clean".into()
            } else {
                format!("{} !!", findings.len())
            },
        ]);
    }

    if total > 0 {
        println!("\n{total} findings:");
        for (&(wi, ci), findings) in cells.iter().zip(&results) {
            for f in findings {
                println!("  {} / {}: {f}", modules[wi].0, cfg_names[ci]);
            }
        }
        return ExitCode::FAILURE;
    }
    println!("\nall cells clean");
    ExitCode::SUCCESS
}
