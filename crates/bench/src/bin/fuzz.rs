//! Differential fuzzing campaign driver (`r2c-fuzz` front end).
//!
//! Two modes share one binary:
//!
//! **Smoke mode** (default) generates structure-aware IR modules and
//! pushes each through the differential oracle: reference
//! interpretation vs compiled + diversified execution across a
//! configuration matrix, with `r2c-check` forced on. Divergences are
//! minimized by the delta reducer and persisted as `.r2cir`
//! reproducers in the divergence directory, which is replayed at the
//! start of every later run.
//!
//! **Campaign mode** (`--campaign`) runs the coverage-guided,
//! corpus-evolving campaign from `r2c_fuzz::campaign`: it loads the
//! checked-in corpus, evolves it (energy-weighted mutation vs fresh
//! generation), records a coverage-over-time curve, and can enforce a
//! coverage floor against a checked-in baseline. This is the nightly
//! CI entry point.
//!
//! ```text
//! cargo run --release -p r2c-bench --bin fuzz -- \
//!     --cases 500 --seed 1 [--preset quick|full|<config-name>] \
//!     [--div-dir DIR] \
//!     [--campaign [--corpus DIR] [--blind] [--mutate-ratio R] \
//!      [--minimize] [--refresh] [--time-budget SECS] \
//!      [--coverage-json PATH] [--baseline PATH] [--write-baseline]]
//! ```
//!
//! * `--cases N`        — case budget (default 200; 0 replays only).
//! * `--seed S`         — base seed (smoke: case `i` uses `S + i`;
//!   campaign: seed ladder base).
//! * `--preset P`       — oracle matrix: `quick` (default), `full`, or
//!   one named build config (e.g. `full-push`, `comp-BTDP`).
//! * `--div-dir D`      — divergence-reproducer directory (default
//!   `fuzz-corpus`; kept separate from the coverage corpus).
//! * `--corpus D`       — coverage corpus directory (campaign mode,
//!   default `crates/fuzz/corpus`).
//! * `--blind`          — disable coverage feedback (A/B control arm).
//! * `--mutate-ratio R` — corpus-mutation probability (default 0.5).
//! * `--minimize`       — delta-reduce coverage keepers on admission.
//! * `--refresh`        — run corpus hygiene after the campaign (drop
//!   entries whose bits are subsumed, re-score energies).
//! * `--time-budget S`  — wall-clock cap in seconds (nightly CI).
//! * `--coverage-json P`— write the campaign report JSON to `P`.
//! * `--baseline P`     — fail if the seed-corpus coverage population
//!   drops below the integer stored in `P`.
//! * `--write-baseline` — rewrite `--baseline` with this run's value.
//!
//! Exits non-zero if any case (generated, mutated, or replayed)
//! diverges, or the coverage baseline regresses.

use std::path::PathBuf;
use std::process::ExitCode;

use r2c_bench::{cli, json::Json, parallel_map, TablePrinter};
use r2c_fuzz::{
    divergence_report, named_configs, reduce_divergence, run_case, run_oracle,
    summarize_divergences, CaseVerdict, Corpus, Divergence, OracleMatrix,
};
use r2c_ir::Module;
use r2c_vm::MachineKind;

struct Args {
    cases: u64,
    seed: u64,
    preset: String,
    matrix: OracleMatrix,
    div_dir: PathBuf,
    campaign: bool,
    corpus: PathBuf,
    blind: bool,
    mutate_ratio: f64,
    minimize: bool,
    refresh: bool,
    time_budget: Option<u64>,
    coverage_json: Option<PathBuf>,
    baseline: Option<PathBuf>,
    write_baseline: bool,
}

fn parse_args() -> Args {
    let cli = cli::parse(
        "usage: fuzz [--cases N] [--seed S] [--preset quick|full|<config-name>] \
         [--div-dir DIR] [--campaign [--corpus DIR] [--blind] [--mutate-ratio R] [--minimize] \
         [--refresh] [--time-budget SECS] [--coverage-json PATH] [--baseline PATH] \
         [--write-baseline]]",
    );
    let preset = cli.value("--preset").unwrap_or("quick").to_string();
    Args {
        cases: cli.get_or("--cases", 200),
        seed: cli.get_or("--seed", 1),
        matrix: matrix_for(&cli, &preset),
        preset,
        div_dir: cli.get_or("--div-dir", PathBuf::from("fuzz-corpus")),
        campaign: cli.flag("--campaign"),
        corpus: cli.get_or("--corpus", PathBuf::from("crates/fuzz/corpus")),
        blind: cli.flag("--blind"),
        mutate_ratio: cli.get_or("--mutate-ratio", 0.5),
        minimize: cli.flag("--minimize"),
        refresh: cli.flag("--refresh"),
        time_budget: cli.get("--time-budget"),
        coverage_json: cli.get("--coverage-json"),
        baseline: cli.get("--baseline"),
        write_baseline: cli.flag("--write-baseline"),
    }
}

fn matrix_for(cli: &cli::Args, preset: &str) -> OracleMatrix {
    match preset {
        "quick" => OracleMatrix::quick(),
        "full" => OracleMatrix::full(),
        // Fleet determinism cell only (serial vs parallel r2c-serve).
        "fleet-respawn" => OracleMatrix {
            configs: vec![("fleet-respawn".to_string(), r2c_core::R2cConfig::full(0))],
            machines: vec![MachineKind::EpycRome],
            build_seeds: vec![1, 2],
        },
        name => {
            let cfg = named_configs()
                .into_iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| {
                    let known: Vec<String> = named_configs().into_iter().map(|(n, _)| n).collect();
                    cli.fail(&format!(
                        "unknown preset {name:?}; known: quick, full, fleet-respawn, {known:?}"
                    ))
                })
                .1;
            OracleMatrix {
                configs: vec![(name.to_string(), cfg)],
                machines: vec![MachineKind::EpycRome],
                build_seeds: vec![1, 2],
            }
        }
    }
}

/// Replays persisted divergence reproducers; returns the names of any
/// that still diverge.
fn replay_divergences(div_dir: &PathBuf, matrix: &OracleMatrix) -> Vec<String> {
    let Ok(entries) = std::fs::read_dir(div_dir) else {
        return Vec::new();
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "r2cir"))
        .collect();
    paths.sort();
    let mut still_diverging = Vec::new();
    for p in &paths {
        let src = std::fs::read_to_string(p).expect("read reproducer file");
        let module = match r2c_ir::parse_module(&src) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("reproducer {:?}: unparsable ({e:?}); skipping", p);
                continue;
            }
        };
        if let CaseVerdict::Diverged(divs) = run_oracle(&module, matrix) {
            eprintln!(
                "reproducer {:?} STILL diverges: {}",
                p,
                summarize_divergences(&divs)
            );
            for div in &divs {
                for d in &div.details {
                    eprintln!("    [{}] {d}", div.cell.config_name);
                }
            }
            still_diverging.push(p.display().to_string());
        }
    }
    if !paths.is_empty() {
        println!(
            "divergence corpus: replayed {} reproducer(s), {} still diverging",
            paths.len(),
            still_diverging.len()
        );
    }
    still_diverging
}

/// Reduces and persists one diverging case; returns the reproducer
/// path.
fn persist_divergence(
    div_dir: &PathBuf,
    case_seed: u64,
    module: &Module,
    divs: &[Divergence],
) -> PathBuf {
    let div = &divs[0];
    eprintln!(
        "case seed {case_seed}: DIVERGENCE — {}",
        summarize_divergences(divs)
    );
    for d in &div.details {
        eprintln!("    {d}");
    }
    eprintln!("  reducing (against cell {})…", div.cell.config_name);
    let reduced = reduce_divergence(module, div, 8);
    eprintln!(
        "  reduced to {} function(s), {} block(s) ({} candidate(s), {} accepted)",
        reduced.module.funcs.len(),
        reduced
            .module
            .funcs
            .iter()
            .map(|f| f.blocks.len())
            .sum::<usize>(),
        reduced.stats.candidates,
        reduced.stats.accepted,
    );
    let report = divergence_report(case_seed, div, &reduced.module);
    std::fs::create_dir_all(div_dir).expect("create divergence dir");
    let path = div_dir.join(format!(
        "div-case{case_seed}-{}-s{}.r2cir",
        div.cell.config_name, div.cell.build_seed
    ));
    std::fs::write(&path, report).expect("write reproducer");
    eprintln!("  reproducer: {}", path.display());
    path
}

fn run_campaign_mode(args: &Args) -> ExitCode {
    let mut corpus = Corpus::load(&args.corpus);
    println!(
        "campaign: {} case(s) from seed {}, preset {:?}, corpus {:?} ({} seed entr{})",
        args.cases,
        args.seed,
        args.preset,
        args.corpus,
        corpus.entries.len(),
        if corpus.entries.len() == 1 {
            "y"
        } else {
            "ies"
        },
    );
    let cfg = r2c_fuzz::CampaignConfig {
        cases: args.cases,
        base_seed: args.seed,
        guided: !args.blind,
        matrix: args.matrix.clone(),
        coverage_build_seed: 1,
        mutate_ratio: args.mutate_ratio,
        fresh_gen: None,
        minimize: args.minimize,
        stop_on_divergence: false,
        corpus_dir: Some(args.corpus.clone()),
        wall_clock_limit: args.time_budget.map(std::time::Duration::from_secs),
    };
    let report = r2c_fuzz::run_campaign(&cfg, &mut corpus);

    for rec in &report.divergences {
        persist_divergence(
            &args.div_dir,
            args.seed.wrapping_add(rec.case_index),
            &rec.module,
            &rec.divergences,
        );
    }

    if args.refresh {
        let dropped = corpus
            .refresh(cfg.coverage_build_seed, Some(&args.corpus))
            .expect("corpus refresh");
        println!(
            "refresh: dropped {} subsumed entr{}{}",
            dropped.len(),
            if dropped.len() == 1 { "y" } else { "ies" },
            if dropped.is_empty() {
                String::new()
            } else {
                format!(" ({})", dropped.join(", "))
            }
        );
    }

    if let Some(p) = &args.coverage_json {
        std::fs::write(p, Json::from(&report).render()).expect("write coverage JSON");
        println!("coverage report: {}", p.display());
    }

    let mut baseline_regressed = false;
    if let Some(p) = &args.baseline {
        if args.write_baseline {
            std::fs::write(p, format!("{}\n", report.seed_corpus_population))
                .expect("write baseline");
            println!(
                "baseline {} <- {}",
                p.display(),
                report.seed_corpus_population
            );
        } else {
            let floor: u64 = std::fs::read_to_string(p)
                .expect("read baseline")
                .trim()
                .parse()
                .expect("baseline: integer");
            if report.seed_corpus_population < floor {
                eprintln!(
                    "COVERAGE REGRESSION: seed corpus population {} < baseline {}",
                    report.seed_corpus_population, floor
                );
                baseline_regressed = true;
            } else {
                println!(
                    "baseline ok: seed corpus population {} >= {}",
                    report.seed_corpus_population, floor
                );
            }
        }
    }

    let t = TablePrinter::new(&[22, 10]);
    t.sep();
    t.row(&["cases run".into(), report.cases_run.to_string()]);
    t.row(&["passed".into(), report.passed.to_string()]);
    t.row(&["skipped".into(), report.skipped.to_string()]);
    t.row(&["mutated".into(), report.mutated_cases.to_string()]);
    t.row(&["diverged".into(), report.divergences.len().to_string()]);
    t.row(&["admitted".into(), report.admitted.to_string()]);
    t.row(&[
        "seed population".into(),
        report.seed_corpus_population.to_string(),
    ]);
    t.row(&["final population".into(), report.population.to_string()]);
    t.sep();

    if !report.divergences.is_empty() || report.skipped > 0 || baseline_regressed {
        ExitCode::FAILURE
    } else {
        println!("ok: no divergences, coverage {} bits", report.population);
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.campaign {
        return run_campaign_mode(&args);
    }
    let matrix = &args.matrix;
    let cells_per_case = matrix.cells().len();
    println!(
        "r2c-fuzz: {} case(s) from seed {}, preset {:?} ({} variant cell(s) per case)",
        args.cases, args.seed, args.preset, cells_per_case
    );

    let replay_failures = replay_divergences(&args.div_dir, matrix);

    let case_seeds: Vec<u64> = (0..args.cases).map(|i| args.seed + i).collect();
    let reports = parallel_map(&case_seeds, |&s| run_case(s, matrix));

    let mut passed = 0u64;
    let mut skipped = 0u64;
    let mut divergences = Vec::new();
    for (module, report) in reports {
        match report.verdict {
            CaseVerdict::Pass { .. } => passed += 1,
            CaseVerdict::Skipped { reason } => {
                skipped += 1;
                eprintln!(
                    "case seed {}: skipped ({reason}) — generator bug, please report",
                    report.case_seed
                );
            }
            CaseVerdict::Diverged(divs) => divergences.push((report.case_seed, module, divs)),
        }
    }

    for (case_seed, module, divs) in &divergences {
        persist_divergence(&args.div_dir, *case_seed, module, divs);
    }

    let t = TablePrinter::new(&[14, 10]);
    t.sep();
    t.row(&["cases".into(), args.cases.to_string()]);
    t.row(&["passed".into(), passed.to_string()]);
    t.row(&["skipped".into(), skipped.to_string()]);
    t.row(&["diverged".into(), divergences.len().to_string()]);
    t.row(&[
        "variant runs".into(),
        (passed as usize * cells_per_case).to_string(),
    ]);
    t.sep();

    if !divergences.is_empty() || !replay_failures.is_empty() || skipped > 0 {
        ExitCode::FAILURE
    } else {
        println!("ok: no divergences");
        ExitCode::SUCCESS
    }
}
