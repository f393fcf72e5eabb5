//! Regenerates **Table 3**: comparison of R²C with related
//! randomization-based defenses.
//!
//! The SPEC-overhead column quotes the published numbers (they come
//! from incomparable testbeds — the paper makes the same caveat); the
//! attack-resistance columns are **measured** by mounting this
//! reproduction's ROP / JIT-ROP / PIROP / AOCR attacks against an
//! executable model of each defense (see `r2c-baselines`). A filled
//! circle (●) means the defense stopped every attempt.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use r2c_attacks::victim::{build_victim, run_victim};
use r2c_attacks::{aocr, jitrop, pirop, rop, AttackerKnowledge, Outcome};
use r2c_baselines::DefenseKind;
use r2c_bench::{parallel_map, TablePrinter};

fn main() {
    let large = r2c_bench::cli::parse("usage: report_table3 [--large]").flag("--large");
    let trials: u64 = if large { 48 } else { 16 };
    println!("Table 3: defense comparison (attack columns measured over {trials} variants each)\n");
    let t = TablePrinter::new(&[12, 22, 4, 4, 5, 8, 6, 5]);
    t.row(&[
        "defense".into(),
        "SPEC overhead (publ.)".into(),
        "C".into(),
        "C++".into(),
        "ROP".into(),
        "JIT-ROP".into(),
        "PIROP".into(),
        "AOCR".into(),
    ]);
    t.sep();

    // One row per defense; each row seeds its own attack RNG, so rows
    // are independent cells that can be measured concurrently.
    let rows = parallel_map(&DefenseKind::ALL, |&defense| {
        let cfg = defense.config(0);
        let k = AttackerKnowledge::profile(&cfg, 0xFACE);
        let mut rng = SmallRng::seed_from_u64(33);

        let mut stopped = |attack: &mut dyn FnMut(
            &mut r2c_vm::Vm,
            &r2c_vm::Image,
            &AttackerKnowledge,
            &mut SmallRng,
        ) -> Outcome| {
            let mut successes = 0;
            for seed in 0..trials {
                let v = build_victim(cfg.with_seed(seed));
                let mut vm = run_victim(&v.image);
                if attack(&mut vm, &v.image, &k, &mut rng).is_success() {
                    successes += 1;
                }
            }
            if successes == 0 {
                "●".to_string()
            } else {
                format!("○{}", if successes as u64 == trials { "" } else { "~" })
            }
        };

        let rop_cell = stopped(&mut |vm, img, k, _| rop::classic_rop(vm, img, k, 4));
        let jitrop_cell = {
            // JIT-ROP column: direct if readable text, else indirect.
            let mut s = stopped(&mut |vm, img, _, _| jitrop::direct_jitrop(vm, img));
            if s.starts_with('●') {
                // Direct disclosure stopped; score the indirect variant.
                let s2 = stopped(&mut |vm, img, k, rng| jitrop::indirect_jitrop(vm, img, k, rng));
                s = s2;
            }
            s
        };
        let pirop_cell = stopped(&mut |vm, img, k, _| pirop::pirop_attack(vm, img, k));
        // AOCR column: the attacker adapts — against code-pointer
        // hiding the leaked (trampoline) pointer is *called* directly
        // (§2.2); otherwise the default-parameter corruption path runs.
        // Score ○ if either variant gets through.
        let aocr_cell = {
            let a = stopped(&mut |vm, img, k, rng| aocr::aocr_attack(vm, img, k, rng));
            if a.starts_with('●') {
                stopped(&mut |vm, img, k, _| aocr::aocr_direct_fp(vm, img, k))
            } else {
                a
            }
        };
        let (c, cpp) = defense.language_support();
        vec![
            defense.name().into(),
            defense.published_overhead().into(),
            if c { "●" } else { "○" }.to_string(),
            if cpp { "●" } else { "○" }.to_string(),
            rop_cell,
            jitrop_cell,
            pirop_cell,
            aocr_cell,
        ]
    });
    for row in &rows {
        t.row(row);
    }
    println!("\n● = all attack attempts stopped; ○ = attack succeeded (○~ = sometimes).");
    println!("Language columns and published overheads quoted from the respective papers;");
    println!("attack columns measured against the executable defense models.");
}
