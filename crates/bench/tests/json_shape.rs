//! Shape of the JSON the bench harness writes for the library crates'
//! reports: the compile report, the traced-run profile and the fuzz
//! campaign report. Key names, nesting and order are what downstream
//! scripts read.

use r2c_bench::json::Json;
use r2c_core::{CompileReport, FuncReport, PassTiming, R2cCompiler, R2cConfig};
use r2c_fuzz::{run_campaign, CampaignConfig, Corpus, OracleMatrix};
use r2c_ir::parse_module;
use r2c_vm::{MachineKind, TraceConfig, Vm, VmConfig};

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

fn assert_has(json: &str, keys: &[&str]) {
    for key in keys {
        assert!(json.contains(key), "missing {key} in:\n{json}");
    }
}

#[test]
fn compile_report_shape_is_stable() {
    let mut r = CompileReport {
        seed: 7,
        passes: vec![
            PassTiming {
                pass: "lower",
                wall_us: 120,
            },
            PassTiming {
                pass: "link",
                wall_us: 30,
            },
        ],
        ..CompileReport::default()
    };
    r.funcs.push(FuncReport {
        name: "main".into(),
        kind: "normal",
        insns: 10,
        bytes: 40,
        nops: 2,
        traps: 1,
        btdp_stores: 3,
        btra_sites: 1,
    });
    r.prelink_text_bytes = 40;
    r.image_text_bytes = 100;
    assert_eq!(r.total_wall_us(), 150);
    assert_eq!(r.link_growth_bytes(), 60);
    let j = Json::from(&r).render();
    assert_has(
        &j,
        &[
            "\"seed\": 7",
            "\"total_wall_us\": 150",
            "\"pass\": \"lower\"",
            "\"link_growth_bytes\": 60",
            "\"name\": \"main\"",
            "\"btdp_stores\": 3",
        ],
    );
}

#[test]
fn built_variant_report_names_passes_and_functions() {
    let m = parse_module(SRC).unwrap();
    let (_, _, report) = R2cCompiler::new(R2cConfig::full(5))
        .build_with_report(&m)
        .unwrap();
    let j = Json::from(&report).render();
    assert_has(&j, &["\"pass\": \"lower\"", "\"name\": \"main\""]);
}

#[test]
fn exec_profile_shape_is_stable() {
    let m = parse_module(SRC).unwrap();
    let image = R2cCompiler::new(R2cConfig::full(5)).build(&m).unwrap();
    let mut vm = Vm::new(&image, VmConfig::new(MachineKind::EpycRome.config()));
    vm.enable_trace(&image, TraceConfig::default());
    let out = vm.run();
    let j = Json::from(&vm.trace_profile().unwrap()).render();
    assert_has(
        &j,
        &[
            &format!("\"instructions\": {}", out.stats.instructions),
            &format!("\"cycles_deci\": {}", out.stats.cycles),
            "\"functions\": [",
            "\"name\": \"main\"",
            "\"folded\": [",
            "\"stack\": \"main\"",
            "\"heap\": {",
            "\"timeline\": [",
            "\"events\": [",
            "{\"kind\": \"call\", \"at\": ",
            "\"dropped_events\": 0",
        ],
    );
}

#[test]
fn campaign_report_shape_is_stable() {
    let cfg = CampaignConfig {
        matrix: OracleMatrix::single("full", R2cConfig::full(0), MachineKind::EpycRome, 1),
        ..CampaignConfig::guided_quick(3, 2)
    };
    let j = Json::from(&run_campaign(&cfg, &mut Corpus::new())).render();
    assert_has(
        &j,
        &[
            "\"cases_run\": 3",
            "\"population\": ",
            "\"first_divergence_case\": null",
            "\"curve\": [\n    [0, ",
        ],
    );
}
