//! Coverage-guided campaign driver.
//!
//! A campaign is a deterministic function of its configuration: a
//! fixed case budget is drawn from a seed ladder (case seeds derive
//! from `base_seed` through one `SmallRng` stream), and each case is
//! either a *fresh* generated module or — in guided mode, once the
//! corpus is non-empty — a verify-gated mutant of an energy-weighted
//! corpus pick. Every case runs through the full differential oracle
//! matrix; passing cases have their coverage extracted
//! ([`crate::coverage::case_coverage`]) and merged into the campaign
//! map, and cases that light new bits are admitted to the corpus
//! (optionally minimized first with the delta-debug reducer, under a
//! predicate that preserves the new bits *and* the clean verdict, so
//! corpus entries always replay clean).
//!
//! Blind mode (`guided: false`) runs the identical pipeline minus the
//! feedback: no mutation, no admission — fresh generation only. The
//! coverage map is still tracked, which is what makes guided-vs-blind
//! A/B comparisons (equal case budget, same matrix) meaningful.

use std::path::PathBuf;

use r2c_ir::Module;
use rand::{rngs::SmallRng, Rng, SeedableRng};

use crate::corpus::Corpus;
use crate::coverage::{case_coverage, feature_index, CoverageMap};
use crate::gen::{generate, generate_with, GenConfig};
use crate::mutate::mutate;
use crate::oracle::{run_oracle, CaseVerdict, Divergence, OracleMatrix};
use crate::reduce::reduce;

/// Everything a campaign run depends on. Same config ⇒ same campaign.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Case budget.
    pub cases: u64,
    /// Base of the seed ladder; all randomness derives from it.
    pub base_seed: u64,
    /// Coverage feedback on (corpus evolution + mutation) or off
    /// (blind: fresh generation only).
    pub guided: bool,
    /// The oracle matrix every case runs through.
    pub matrix: OracleMatrix,
    /// Build seed of the instrumented coverage cell.
    pub coverage_build_seed: u64,
    /// Probability of mutating a corpus entry instead of generating
    /// fresh (guided mode, non-empty corpus).
    pub mutate_ratio: f64,
    /// Fixed generator shape for fresh cases; `None` samples a shape
    /// per case seed (the default fuzzing behavior).
    pub fresh_gen: Option<GenConfig>,
    /// Minimize coverage-admitted modules with the delta-debug reducer
    /// before admission (preserving new bits and the clean verdict).
    /// Costs one coverage extraction per reducer candidate.
    pub minimize: bool,
    /// Stop at the first diverging case (detection-latency A/B runs).
    pub stop_on_divergence: bool,
    /// Directory to mirror admitted entries into (`None` = in-memory).
    pub corpus_dir: Option<PathBuf>,
    /// Wall-clock cap for nightly CI runs: the campaign stops before
    /// starting a case once this much time has elapsed. `None` (the
    /// default everywhere except CI) keeps the run a pure function of
    /// the config.
    pub wall_clock_limit: Option<std::time::Duration>,
}

impl CampaignConfig {
    /// A guided campaign over the quick matrix.
    pub fn guided_quick(cases: u64, base_seed: u64) -> CampaignConfig {
        CampaignConfig {
            cases,
            base_seed,
            guided: true,
            matrix: OracleMatrix::quick(),
            coverage_build_seed: 1,
            mutate_ratio: 0.5,
            fresh_gen: None,
            minimize: false,
            stop_on_divergence: false,
            corpus_dir: None,
            wall_clock_limit: None,
        }
    }

    /// The same campaign with feedback disabled.
    pub fn blind(mut self) -> CampaignConfig {
        self.guided = false;
        self
    }
}

/// One point of the coverage-over-time curve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoveragePoint {
    /// Case index (0-based, after the case ran).
    pub case_index: u64,
    /// Map population after merging that case.
    pub population: u64,
}

/// A diverging case, kept whole for downstream reduction.
#[derive(Clone, Debug)]
pub struct DivergenceRecord {
    /// Case index within the campaign.
    pub case_index: u64,
    /// The diverging module.
    pub module: Module,
    /// Every divergent cell of the matrix.
    pub divergences: Vec<Divergence>,
}

/// Campaign outcome.
#[derive(Clone, Debug, Default)]
pub struct CampaignReport {
    /// Cases actually run (≤ budget when stopped early).
    pub cases_run: u64,
    /// Cases whose whole matrix agreed.
    pub passed: u64,
    /// Cases the reference interpreter rejected (generator bugs).
    pub skipped: u64,
    /// Cases produced by corpus mutation rather than fresh generation.
    pub mutated_cases: u64,
    /// Modules admitted to the corpus.
    pub admitted: u64,
    /// Map population after replaying the seed corpus, before any new
    /// case ran. The nightly baseline check compares this against the
    /// checked-in floor — it is deterministic even under a wall-clock
    /// cap.
    pub seed_corpus_population: u64,
    /// Final coverage-map population.
    pub population: u64,
    /// Case index of the first divergence, if any.
    pub first_divergence_case: Option<u64>,
    /// All diverging cases.
    pub divergences: Vec<DivergenceRecord>,
    /// Population after every case.
    pub curve: Vec<CoveragePoint>,
}

fn fresh_module(cfg: &CampaignConfig, rng: &mut SmallRng) -> Module {
    let seed: u64 = rng.gen();
    match &cfg.fresh_gen {
        Some(g) => generate_with(g, &mut SmallRng::seed_from_u64(seed)),
        None => generate(seed),
    }
}

/// Runs one campaign. `corpus` carries seed entries in and evolved
/// entries out; pass `Corpus::new()` for a from-scratch run.
pub fn run_campaign(cfg: &CampaignConfig, corpus: &mut Corpus) -> CampaignReport {
    let mut rng = SmallRng::seed_from_u64(cfg.base_seed);
    let mut map = CoverageMap::new();
    let mut report = CampaignReport::default();

    // Pre-merge the seed corpus so its bits don't count as new again
    // (and so population reflects what the corpus already covers).
    if cfg.guided {
        for e in &corpus.entries {
            map.merge(&case_coverage(&e.module, cfg.coverage_build_seed));
        }
    }
    report.seed_corpus_population = map.population() as u64;

    let started = std::time::Instant::now();
    for case_index in 0..cfg.cases {
        if let Some(limit) = cfg.wall_clock_limit {
            if started.elapsed() >= limit {
                break;
            }
        }
        let mut mutated = false;
        let module = if cfg.guided && !corpus.entries.is_empty() && rng.gen_bool(cfg.mutate_ratio) {
            let idx = corpus.pick(&mut rng).expect("non-empty corpus");
            match mutate(&corpus.entries[idx].module, &mut rng, 8) {
                Some((m, _kind)) => {
                    mutated = true;
                    m
                }
                None => fresh_module(cfg, &mut rng),
            }
        } else {
            fresh_module(cfg, &mut rng)
        };
        if mutated {
            report.mutated_cases += 1;
        }
        report.cases_run = case_index + 1;

        match run_oracle(&module, &cfg.matrix) {
            CaseVerdict::Skipped { .. } => report.skipped += 1,
            CaseVerdict::Diverged(divergences) => {
                if report.first_divergence_case.is_none() {
                    report.first_divergence_case = Some(case_index);
                }
                report.divergences.push(DivergenceRecord {
                    case_index,
                    module,
                    divergences,
                });
                if cfg.stop_on_divergence {
                    report.curve.push(CoveragePoint {
                        case_index,
                        population: map.population() as u64,
                    });
                    break;
                }
            }
            CaseVerdict::Pass { .. } => {
                report.passed += 1;
                let cov = case_coverage(&module, cfg.coverage_build_seed);
                let needed: Vec<usize> = {
                    let mut seen = std::collections::HashSet::new();
                    cov.features
                        .iter()
                        .map(|f| feature_index(f))
                        .filter(|&i| !map.contains(i) && seen.insert(i))
                        .collect()
                };
                let fresh_bits = map.merge(&cov) as u64;
                if cfg.guided && fresh_bits > 0 {
                    let admitted = if cfg.minimize {
                        minimize_keeper(&module, &needed, cfg)
                    } else {
                        module
                    };
                    report.admitted += 1;
                    let name = format!("s{}-c{case_index:04}", cfg.base_seed);
                    corpus
                        .admit(admitted, fresh_bits, name, cfg.corpus_dir.as_deref())
                        .expect("corpus admission");
                }
            }
        }
        report.curve.push(CoveragePoint {
            case_index,
            population: map.population() as u64,
        });
    }
    report.population = map.population() as u64;
    report
}

/// Shrinks a coverage keeper with the delta-debug reducer while it (a)
/// still lights every one of its `needed` new bits and (b) still passes
/// the whole matrix — corpus entries must replay clean forever.
fn minimize_keeper(module: &Module, needed: &[usize], cfg: &CampaignConfig) -> Module {
    let needed = needed.to_vec();
    let matrix = cfg.matrix.clone();
    let coverage_build_seed = cfg.coverage_build_seed;
    let still_interesting = move |m: &Module| {
        if !matches!(run_oracle(m, &matrix), CaseVerdict::Pass { .. }) {
            return false;
        }
        let cov = case_coverage(m, coverage_build_seed);
        let got: std::collections::HashSet<usize> =
            cov.features.iter().map(|f| feature_index(f)).collect();
        needed.iter().all(|b| got.contains(b))
    };
    reduce(module, &still_interesting, 2).module
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2c_vm::MachineKind;

    /// A small single-cell matrix keeps campaign tests fast.
    fn tiny_matrix() -> OracleMatrix {
        OracleMatrix::single(
            "full",
            r2c_core::R2cConfig::full(0),
            MachineKind::EpycRome,
            1,
        )
    }

    #[test]
    fn campaign_is_deterministic() {
        let cfg = CampaignConfig {
            matrix: tiny_matrix(),
            ..CampaignConfig::guided_quick(6, 11)
        };
        let a = run_campaign(&cfg, &mut Corpus::new());
        let b = run_campaign(&cfg, &mut Corpus::new());
        assert_eq!(a.population, b.population);
        assert_eq!(a.curve, b.curve);
        assert_eq!(a.passed, b.passed);
        assert_eq!(a.admitted, b.admitted);
    }

    #[test]
    fn coverage_grows_monotonically() {
        let cfg = CampaignConfig {
            matrix: tiny_matrix(),
            ..CampaignConfig::guided_quick(8, 5)
        };
        let report = run_campaign(&cfg, &mut Corpus::new());
        assert!(report.population > 0);
        let mut last = 0;
        for p in &report.curve {
            assert!(
                p.population >= last,
                "coverage curve dipped: {:?}",
                report.curve
            );
            last = p.population;
        }
        assert_eq!(last, report.population);
    }
}
