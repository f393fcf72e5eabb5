//! Differential suite for the decoded execution engine: every program
//! runs three times from the same [`Image`] — with superinstruction
//! fusion and block runs (`no_fuse: false`), on per-instruction
//! decoding (`no_fuse: true`), and fused again with a tracer attached
//! (the engine's traced hook instantiation) — and everything observable
//! must be bit-identical: exit status, [`ExecStats`] (instructions,
//! cycles, icache hits/misses, rss), printed output, all sixteen GPRs,
//! the data section's bytes, and heap/rss accounting. The traced run's
//! per-function instruction counts must also sum to the total.
//!
//! The programs are built to pin the tricky corners of the fused
//! engine, not just the happy path: every pattern in the fusion
//! catalogue, the 4-instruction lowerer template that becomes a quad
//! superinstruction, faults in the middle of a fused pair and in the
//! middle of a block run (exercising the batch-charge rollback),
//! budget exhaustion inside a run, and indirect jumps into the middle
//! of fused pairs and runs (which must fall back to standalone member
//! execution).

use r2c_vm::insn::AluOp;
use r2c_vm::unwind::UnwindTable;
use r2c_vm::{
    Cond, ExitStatus, Fault, Gpr, Image, Insn, MachineKind, MemRef, NativeKind, RunOutcome,
    SectionLayout, Symbol, SymbolKind, TraceConfig, Vm, VmConfig, PAGE_SIZE,
};

const TEXT_BASE: u64 = 0x40_0000;
const DATA_BASE: u64 = 0x60_0000;
const DATA_END: u64 = 0x60_4000;

/// Hand-assembles an image from instructions laid out contiguously,
/// mirroring the compiler's section layout.
fn asm(insns: Vec<Insn>, natives: Vec<NativeKind>) -> Image {
    let mut addrs = Vec::new();
    let mut a = TEXT_BASE;
    for i in &insns {
        addrs.push(a);
        a += i.len();
    }
    let text_end = a.div_ceil(PAGE_SIZE) * PAGE_SIZE;
    Image {
        insns,
        insn_addrs: addrs,
        layout: SectionLayout {
            text_base: TEXT_BASE,
            text_end,
            data_base: DATA_BASE,
            data_end: DATA_END,
            heap_base: 0x10_0000_0000,
            heap_size: 16 * 1024 * 1024,
            stack_top: 0x7fff_ffff_f000,
            stack_size: 1024 * 1024,
        },
        entry: TEXT_BASE,
        constructors: vec![],
        data_init: vec![],
        xom: true,
        symbols: vec![Symbol {
            name: "main".into(),
            addr: TEXT_BASE,
            size: 0,
            kind: SymbolKind::Function,
        }],
        natives,
        unwind: UnwindTable::default(),
    }
}

/// Address of instruction `i` under the contiguous layout `asm` uses.
fn addr_of(insns: &[Insn], i: usize) -> u64 {
    TEXT_BASE + insns[..i].iter().map(|x| x.len()).sum::<u64>()
}

/// Runs `insns` on a fused, an unfused and a traced fused VM and
/// asserts every observable agrees. Returns the shared outcome for
/// extra assertions.
fn run_both(insns: Vec<Insn>, natives: Vec<NativeKind>) -> (ExitStatus, r2c_vm::ExecStats) {
    run_both_with(insns, natives, |_| {})
}

/// [`run_both`] with a configuration hook (budget, etc.) applied to
/// every VM before running.
fn run_both_with(
    insns: Vec<Insn>,
    natives: Vec<NativeKind>,
    prep: impl Fn(&mut Vm),
) -> (ExitStatus, r2c_vm::ExecStats) {
    let image = asm(insns, natives);
    let cfg = VmConfig::new(MachineKind::EpycRome.config());
    let fused_cfg = VmConfig {
        no_fuse: false,
        ..cfg
    };
    let mut fused = Vm::new(&image, fused_cfg);
    let mut unfused = Vm::new(
        &image,
        VmConfig {
            no_fuse: true,
            ..cfg
        },
    );
    // The tracer sees a function start at every fifth instruction, so
    // block runs straddle function starts and the traced engine's
    // split path (op-by-op dispatch of such a run) runs too.
    let mut symbols = image.clone();
    for (i, &addr) in image.insn_addrs.iter().enumerate().skip(4).step_by(5) {
        symbols.symbols.push(Symbol {
            name: format!("f{i}"),
            addr,
            size: 0,
            kind: SymbolKind::Function,
        });
    }
    let mut traced = Vm::new(&image, fused_cfg);
    traced.enable_trace(&symbols, TraceConfig::default());
    assert!(fused.fusion_enabled());
    assert!(!unfused.fusion_enabled());
    assert_ne!(
        fused.decoded_program_id(),
        unfused.decoded_program_id(),
        "fused and unfused must decode to distinct programs"
    );
    prep(&mut fused);
    prep(&mut unfused);
    prep(&mut traced);
    let a = fused.run();
    let b = unfused.run();
    let c = traced.run();
    assert_same(&fused, &a, &unfused, &b, "unfused");
    assert_same(&fused, &a, &traced, &c, "traced");
    let p = traced.trace_profile().unwrap();
    assert_eq!(
        p.funcs.iter().map(|f| f.instructions).sum::<u64>(),
        c.stats.instructions,
        "traced per-function instructions must sum to the total"
    );
    (a.status, a.stats)
}

/// Asserts the `other` VM (unfused or traced) observed exactly what the
/// fused one did.
fn assert_same(fused: &Vm, a: &RunOutcome, other: &Vm, b: &RunOutcome, what: &str) {
    assert_eq!(a.status, b.status, "{what}: exit status diverged");
    assert_eq!(a.stats, b.stats, "{what}: ExecStats diverged");
    assert_eq!(
        fused.output, other.output,
        "{what}: printed output diverged"
    );
    for g in Gpr::ALL {
        assert_eq!(
            fused.regs.get(g),
            other.regs.get(g),
            "{what}: register {g:?} diverged"
        );
    }
    let mut da = vec![0u8; (DATA_END - DATA_BASE) as usize];
    let mut db = da.clone();
    fused.mem.peek(DATA_BASE, &mut da);
    other.mem.peek(DATA_BASE, &mut db);
    assert_eq!(da, db, "{what}: data section diverged");
    assert_eq!(
        fused.mem.resident_pages(),
        other.mem.resident_pages(),
        "{what}: resident page count diverged"
    );
    assert_eq!(
        fused.heap.in_use(),
        other.heap.in_use(),
        "{what}: heap diverged"
    );
}

/// One long function exercising every pattern in the fusion catalogue:
/// the eight straight-line pairs (which land inside block runs), the
/// four compare-and-branch / flag pairs and the stack pairs (which fuse
/// at the top level), and a callee whose epilogue is the `pop; ret`
/// pair.
#[test]
fn every_fusion_pattern_agrees() {
    let data = MemRef::base(Gpr::Rsi);
    let data8 = MemRef {
        base: Gpr::Rsi,
        index: None,
        disp: 8,
    };
    let mut insns = vec![
        Insn::MovImm {
            dst: Gpr::Rax,
            imm: 0,
        },
        Insn::MovImm {
            dst: Gpr::Rcx,
            imm: 7,
        },
        Insn::MovImm {
            dst: Gpr::Rdx,
            imm: 9,
        },
        Insn::MovAbs {
            dst: Gpr::Rsi,
            imm: DATA_BASE,
        },
        Insn::MovImm {
            dst: Gpr::Rdi,
            imm: 5,
        },
        // MovReg + AluReg, then AluReg + MovReg (the two ~22% pairs).
        Insn::MovReg {
            dst: Gpr::Rbx,
            src: Gpr::Rcx,
        },
        Insn::AluReg {
            op: AluOp::Add,
            dst: Gpr::Rax,
            src: Gpr::Rbx,
        },
        Insn::AluReg {
            op: AluOp::Add,
            dst: Gpr::Rax,
            src: Gpr::Rdx,
        },
        Insn::MovReg {
            dst: Gpr::R8,
            src: Gpr::Rax,
        },
        // MovImm + MovReg and MovReg + MovImm.
        Insn::MovImm {
            dst: Gpr::R9,
            imm: 0x1234,
        },
        Insn::MovReg {
            dst: Gpr::R10,
            src: Gpr::R9,
        },
        Insn::MovReg {
            dst: Gpr::R11,
            src: Gpr::Rax,
        },
        Insn::MovImm {
            dst: Gpr::R12,
            imm: 42,
        },
        // MovReg + Store, Load + MovReg, Store + Load (spill/reload).
        Insn::MovReg {
            dst: Gpr::R13,
            src: Gpr::Rdx,
        },
        Insn::Store {
            mem: data,
            src: Gpr::R13,
        },
        Insn::Load {
            dst: Gpr::R14,
            mem: data,
        },
        Insn::MovReg {
            dst: Gpr::R15,
            src: Gpr::R14,
        },
        Insn::Store {
            mem: data8,
            src: Gpr::Rax,
        },
        Insn::Load {
            dst: Gpr::Rbx,
            mem: data8,
        },
        // Lea + MovReg.
        Insn::Lea {
            dst: Gpr::Rcx,
            mem: MemRef {
                base: Gpr::Rsi,
                index: Some((Gpr::Rdi, 1)),
                disp: 16,
            },
        },
        Insn::MovReg {
            dst: Gpr::Rdx,
            src: Gpr::Rcx,
        },
        // CmpReg + SetCc (boolean materialization makes the flag state
        // an architecturally visible register value).
        Insn::CmpReg {
            a: Gpr::Rax,
            b: Gpr::R8,
        },
        Insn::SetCc {
            cond: Cond::Le,
            dst: Gpr::R9,
        },
        // Push + Push then Pop + Pop (values deliberately swap).
        Insn::Push { src: Gpr::Rax },
        Insn::Push { src: Gpr::Rcx },
        Insn::Pop { dst: Gpr::Rax },
        Insn::Pop { dst: Gpr::Rcx },
    ];
    // The three compare-and-branch pairs, each jumping over a poison
    // instruction that would corrupt Rax if the branch misbehaved.
    for (cmp, cond, poison) in [
        (
            Insn::CmpReg {
                a: Gpr::R14,
                b: Gpr::R15,
            },
            Cond::Eq,
            1000,
        ),
        (
            Insn::CmpImm {
                a: Gpr::Rdi,
                imm: 5,
            },
            Cond::Eq,
            2000,
        ),
        (Insn::Test { a: Gpr::Rdi }, Cond::Ne, 3000),
    ] {
        let here = insns.len();
        let skip_to = {
            // cmp (len) + jcc (len) + poison AluImm — compute after
            // pushing, using placeholder targets first.
            let mut probe = insns.clone();
            probe.push(cmp);
            probe.push(Insn::Jcc { cond, target: 0 });
            probe.push(Insn::AluImm {
                op: AluOp::Add,
                dst: Gpr::Rax,
                imm: poison,
            });
            addr_of(&probe, here + 3)
        };
        insns.push(cmp);
        insns.push(Insn::Jcc {
            cond,
            target: skip_to,
        });
        insns.push(Insn::AluImm {
            op: AluOp::Add,
            dst: Gpr::Rax,
            imm: poison,
        });
    }
    // Call a function whose epilogue is the Pop + Ret pair.
    let call_at = insns.len();
    // main tail: call f; ret — f sits right after main's ret.
    let f_addr = {
        let mut probe = insns.clone();
        probe.push(Insn::Call { target: 0 });
        probe.push(Insn::Ret);
        addr_of(&probe, call_at + 2)
    };
    insns.push(Insn::Call { target: f_addr });
    insns.push(Insn::Ret);
    insns.push(Insn::Push { src: Gpr::Rbp });
    insns.push(Insn::MovImm {
        dst: Gpr::Rbp,
        imm: 0x77,
    });
    insns.push(Insn::Pop { dst: Gpr::Rbp });
    insns.push(Insn::Ret);

    let (status, _) = run_both(insns, vec![]);
    // Rax: the pop-swap leaves it holding the Lea result
    // (`data + rdi + 16`), untouched by the branch poison.
    assert_eq!(status, ExitStatus::Exited((DATA_BASE + 5 + 16) as i64));
}

/// The lowerer's 4-instruction ALU-with-immediate template, both in
/// the operand-chained shape that collapses to a single ALU-immediate
/// quad and in the generic shape, repeated inside a counted loop so
/// the quads execute as run members (and chain into quad pairs).
#[test]
fn quad_template_agrees() {
    let mut insns = vec![
        Insn::MovImm {
            dst: Gpr::R10,
            imm: 11,
        },
        Insn::MovImm {
            dst: Gpr::R13,
            imm: 5,
        },
        Insn::MovImm {
            dst: Gpr::Rsi,
            imm: 3,
        },
        Insn::MovImm {
            dst: Gpr::Rcx,
            imm: 0,
        },
    ];
    let loop_head = addr_of(&insns, insns.len());
    for (op, imm) in [
        (AluOp::Add, 3u64),
        (AluOp::Xor, 0x5a),
        (AluOp::And, 0xff),
        (AluOp::Sub, 1),
    ] {
        // Chained shape (specializes): a=R8, scratch=R9, src=R10,
        // dst=R11 — `bd == cd`, `cs == a`, `ds == cd`.
        insns.push(Insn::MovImm { dst: Gpr::R8, imm });
        insns.push(Insn::MovReg {
            dst: Gpr::R9,
            src: Gpr::R10,
        });
        insns.push(Insn::AluReg {
            op,
            dst: Gpr::R9,
            src: Gpr::R8,
        });
        insns.push(Insn::MovReg {
            dst: Gpr::R11,
            src: Gpr::R9,
        });
        // Generic shape (stays a 4-register quad): the final move
        // copies an unrelated register.
        insns.push(Insn::MovImm {
            dst: Gpr::Rax,
            imm: 7,
        });
        insns.push(Insn::MovReg {
            dst: Gpr::Rbx,
            src: Gpr::Rdx,
        });
        insns.push(Insn::AluReg {
            op,
            dst: Gpr::R12,
            src: Gpr::R13,
        });
        insns.push(Insn::MovReg {
            dst: Gpr::R14,
            src: Gpr::Rsi,
        });
    }
    insns.push(Insn::AluImm {
        op: AluOp::Add,
        dst: Gpr::Rcx,
        imm: 1,
    });
    insns.push(Insn::CmpImm {
        a: Gpr::Rcx,
        imm: 50,
    });
    insns.push(Insn::Jcc {
        cond: Cond::Lt,
        target: loop_head,
    });
    insns.push(Insn::MovReg {
        dst: Gpr::Rax,
        src: Gpr::R11,
    });
    insns.push(Insn::Ret);

    let (status, stats) = run_both(insns, vec![]);
    assert_eq!(status, ExitStatus::Exited(10)); // (11 - 1) from the last template
    assert!(stats.instructions > 1000, "loop actually ran");
}

/// A store to an unmapped page in the middle of a long straight-line
/// block: the fused engine batch-charges the whole run up front and
/// must roll back exactly the members that never executed.
#[test]
fn mid_run_fault_agrees() {
    let mut insns = vec![Insn::MovAbs {
        dst: Gpr::R15,
        imm: 0x1000,
    }];
    for i in 0..6 {
        insns.push(Insn::MovImm {
            dst: Gpr::Rax,
            imm: i,
        });
        insns.push(Insn::AluImm {
            op: AluOp::Add,
            dst: Gpr::Rbx,
            imm: 1,
        });
    }
    insns.push(Insn::Store {
        mem: MemRef::base(Gpr::R15),
        src: Gpr::Rax,
    });
    for _ in 0..6 {
        insns.push(Insn::AluImm {
            op: AluOp::Add,
            dst: Gpr::Rcx,
            imm: 1,
        });
    }
    insns.push(Insn::Ret);
    let (status, _) = run_both(insns, vec![]);
    assert!(
        matches!(status, ExitStatus::Faulted(_)),
        "expected the mid-run store to fault, got {status:?}"
    );
}

/// A `store; load` pair whose *second* half faults: the rollback must
/// attribute one completed instruction to the pair (`half = 1`), both
/// at top level and inside a run.
#[test]
fn mid_pair_second_half_fault_agrees() {
    // Inside a run: enough straight-line context around the pair.
    let mut insns = vec![
        Insn::MovAbs {
            dst: Gpr::Rsi,
            imm: DATA_BASE,
        },
        Insn::MovAbs {
            dst: Gpr::R15,
            imm: 0x1000,
        },
        Insn::MovImm {
            dst: Gpr::Rax,
            imm: 1,
        },
        Insn::MovImm {
            dst: Gpr::Rbx,
            imm: 2,
        },
        Insn::Store {
            mem: MemRef::base(Gpr::Rsi),
            src: Gpr::Rax,
        },
        Insn::Load {
            dst: Gpr::Rcx,
            mem: MemRef::base(Gpr::R15),
        },
        Insn::MovImm {
            dst: Gpr::Rdx,
            imm: 3,
        },
        Insn::Ret,
    ];
    let (status, _) = run_both(insns.clone(), vec![]);
    assert!(matches!(
        status,
        ExitStatus::Faulted(Fault::Unmapped { .. } | Fault::Protection { .. })
    ));

    // Top level: a two-instruction stretch (below the run threshold)
    // ending in a jump, so the pair fuses outside any run.
    insns = vec![
        Insn::MovAbs {
            dst: Gpr::Rsi,
            imm: DATA_BASE,
        },
        Insn::MovAbs {
            dst: Gpr::R15,
            imm: 0x1000,
        },
        Insn::Jmp { target: 0 }, // patched below
        Insn::Store {
            mem: MemRef::base(Gpr::Rsi),
            src: Gpr::Rax,
        },
        Insn::Load {
            dst: Gpr::Rcx,
            mem: MemRef::base(Gpr::R15),
        },
        Insn::Ret,
    ];
    let tgt = addr_of(&insns, 3);
    insns[2] = Insn::Jmp { target: tgt };
    let (status, _) = run_both(insns, vec![]);
    assert!(matches!(status, ExitStatus::Faulted(_)));
}

/// Budget exhaustion landing in the middle of a block run: the fused
/// engine must go on dispatching the tail one op at a time and stop at
/// exactly the same instruction count.
#[test]
fn budget_exhaustion_mid_run_agrees() {
    let mut insns = vec![Insn::MovImm {
        dst: Gpr::Rcx,
        imm: 0,
    }];
    let loop_head = addr_of(&insns, insns.len());
    for _ in 0..10 {
        insns.push(Insn::AluImm {
            op: AluOp::Add,
            dst: Gpr::Rax,
            imm: 1,
        });
    }
    insns.push(Insn::AluImm {
        op: AluOp::Add,
        dst: Gpr::Rcx,
        imm: 1,
    });
    insns.push(Insn::CmpImm {
        a: Gpr::Rcx,
        imm: 1000,
    });
    insns.push(Insn::Jcc {
        cond: Cond::Lt,
        target: loop_head,
    });
    insns.push(Insn::Ret);
    // 47 lands mid-run on the fourth iteration, not at a boundary.
    for budget in [47u64, 48, 53, 200] {
        let (status, stats) = run_both_with(insns.clone(), vec![], |vm| {
            vm.set_insn_budget(budget);
        });
        assert_eq!(status, ExitStatus::Faulted(Fault::BudgetExhausted));
        assert_eq!(stats.instructions, budget);
    }
}

/// An indirect jump into the middle of a block run (a non-leader
/// member): the decoded program keeps members standalone-decodable,
/// so execution falls back to per-instruction dispatch for the tail.
#[test]
fn indirect_jump_into_run_middle_agrees() {
    let mut insns = vec![
        Insn::MovAbs {
            dst: Gpr::R15,
            imm: 0,
        }, // patched: mid-run target
        Insn::JmpInd { target: Gpr::R15 },
    ];
    let body_start = insns.len();
    for i in 0..12 {
        insns.push(Insn::MovImm {
            dst: Gpr::ALL[(i % 8) + 8],
            imm: i as u64,
        });
    }
    insns.push(Insn::MovImm {
        dst: Gpr::Rax,
        imm: 99,
    });
    insns.push(Insn::Ret);
    // Land on the 6th member of the straight-line body — with fusion
    // that address is the middle of a run (and of a fused pair).
    let tgt = addr_of(&insns, body_start + 5);
    insns[0] = Insn::MovAbs {
        dst: Gpr::R15,
        imm: tgt,
    };
    let (status, stats) = run_both(insns, vec![]);
    assert_eq!(status, ExitStatus::Exited(99));
    // Entry movabs + jmp + members 6..12 + tail mov + ret.
    assert_eq!(stats.instructions, 2 + 7 + 2);
}

// --- Static/dynamic agreement: every corruption class in the decode
// --- translation validator's mutation corpus, demonstrated live.
//
// The validator (`r2c_check::check_decoded_program`) claims its static
// verdicts predict dynamic behavior: a flagged decode really executes
// differently from the reference, and a clean decode doesn't. These
// tests close the loop by running each corrupted `DecodedProgram` on a
// real VM (via the `Vm::from_decoded` test hook, which bypasses the
// self-verifying decode cache) and asserting the static finding and
// the observed divergence appear together.

use r2c_vm::decode_inspect::{decode_program, DecodedProgram, Op};
use std::sync::Arc;

/// Everything observable about one run of a decoded program.
#[derive(Debug, PartialEq)]
struct Observed {
    status: ExitStatus,
    stats: r2c_vm::ExecStats,
    output: Vec<i64>,
    regs: Vec<u64>,
}

fn run_decoded(prog: DecodedProgram) -> Observed {
    let cfg = VmConfig::new(MachineKind::EpycRome.config());
    let mut vm = Vm::from_decoded(Arc::new(prog), cfg);
    let out = vm.run();
    Observed {
        status: out.status,
        stats: out.stats,
        output: vm.output.clone(),
        regs: Gpr::ALL.iter().map(|&g| vm.regs.get(g)).collect(),
    }
}

/// Decodes `image` (EPYC Rome, fused), asserts the pristine decode is
/// statically clean and captures its behavior, then applies `corrupt`
/// and asserts BOTH that the validator flags the result statically AND
/// that the corrupted program observably diverges when executed.
fn assert_static_dynamic_agree(image: &Image, corrupt: impl FnOnce(&mut DecodedProgram)) {
    let machine = MachineKind::EpycRome.config();
    let clean = decode_program(image, &machine, true);
    assert_eq!(
        r2c_check::check_decoded_program(&clean, image),
        vec![],
        "pristine decode must validate cleanly"
    );
    let baseline = run_decoded(clean);

    let mut bad = decode_program(image, &machine, true);
    corrupt(&mut bad);
    let findings = r2c_check::check_decoded_program(&bad, image);
    assert!(
        !findings.is_empty(),
        "static validator missed a dynamically observable corruption"
    );
    let observed = run_decoded(bad);
    assert_ne!(
        baseline, observed,
        "statically flagged corruption must be dynamically observable"
    );
}

/// Straight-line body (leader + MovReg/AluReg pair inside a run) ending
/// in a fused compare-and-branch over a poison instruction.
fn tv_branch_program() -> Image {
    let mut insns = vec![
        Insn::MovAbs {
            dst: Gpr::Rsi,
            imm: DATA_BASE,
        },
        Insn::MovImm {
            dst: Gpr::Rax,
            imm: 0,
        },
        Insn::MovImm {
            dst: Gpr::Rcx,
            imm: 7,
        },
        Insn::MovImm {
            dst: Gpr::Rdx,
            imm: 9,
        },
        // Separator: AluImm fuses with nothing, so the MovReg+AluReg
        // pair below forms regardless of pairing parity.
        Insn::AluImm {
            op: AluOp::Or,
            dst: Gpr::Rbp,
            imm: 0,
        },
        Insn::MovReg {
            dst: Gpr::Rbx,
            src: Gpr::Rcx,
        },
        Insn::AluReg {
            op: AluOp::Add,
            dst: Gpr::Rax,
            src: Gpr::Rbx,
        },
        Insn::MovImm {
            dst: Gpr::R8,
            imm: 1,
        },
        Insn::MovImm {
            dst: Gpr::R9,
            imm: 2,
        },
        Insn::MovImm {
            dst: Gpr::R10,
            imm: 3,
        },
        Insn::CmpImm {
            a: Gpr::Rcx,
            imm: 7,
        },
        Insn::Jcc {
            cond: Cond::Eq,
            target: 0, // patched: skip the poison
        },
        Insn::AluImm {
            op: AluOp::Add,
            dst: Gpr::Rax,
            imm: 1000,
        },
        Insn::Ret,
    ];
    let tgt = addr_of(&insns, 13);
    insns[11] = Insn::Jcc {
        cond: Cond::Eq,
        target: tgt,
    };
    let image = asm(insns, vec![]);
    // The corpus below relies on these decode shapes existing.
    let prog = decode_program(&image, &MachineKind::EpycRome.config(), true);
    assert!(
        prog.run_ops
            .iter()
            .any(|e| matches!(e.op, Op::MovRegAluReg { .. })),
        "MovReg+AluReg pair must land in a run"
    );
    assert!(
        prog.ops
            .iter()
            .any(|d| matches!(d.op, Op::CmpImmJcc { .. })),
        "CmpImm+Jcc pair must fuse at top level"
    );
    image
}

/// Mid-run store fault: exercises the positional rollback metadata.
fn tv_fault_program() -> Image {
    let mut insns = vec![Insn::MovAbs {
        dst: Gpr::R15,
        imm: 0x1000,
    }];
    for i in 0..6 {
        insns.push(Insn::MovImm {
            dst: Gpr::Rax,
            imm: i,
        });
        insns.push(Insn::AluImm {
            op: AluOp::Add,
            dst: Gpr::Rbx,
            imm: 1,
        });
    }
    insns.push(Insn::Store {
        mem: MemRef::base(Gpr::R15),
        src: Gpr::Rax,
    });
    for _ in 0..6 {
        insns.push(Insn::AluImm {
            op: AluOp::Add,
            dst: Gpr::Rcx,
            imm: 1,
        });
    }
    insns.push(Insn::Ret);
    asm(insns, vec![])
}

/// Mid-run divide-by-zero: the fault carries the *instruction* address
/// rebuilt from the entry's segment line + offset, so fault-attribution
/// corruption is observable in the exit status.
fn tv_div_program() -> Image {
    let mut insns = vec![
        Insn::MovImm {
            dst: Gpr::Rax,
            imm: 5,
        },
        Insn::MovImm {
            dst: Gpr::Rbx,
            imm: 0,
        },
        Insn::MovImm {
            dst: Gpr::Rcx,
            imm: 1,
        },
        Insn::Div {
            dst: Gpr::Rax,
            src: Gpr::Rbx,
        },
    ];
    for _ in 0..4 {
        insns.push(Insn::AluImm {
            op: AluOp::Add,
            dst: Gpr::Rcx,
            imm: 1,
        });
    }
    insns.push(Insn::Ret);
    asm(insns, vec![])
}

/// Corrupted operand chaining in an in-run fused pair: the ALU half
/// reads the wrong source register.
#[test]
fn tv_agreement_pair_operand_chaining() {
    assert_static_dynamic_agree(&tv_branch_program(), |prog| {
        let src2 = prog
            .run_ops
            .iter_mut()
            .find_map(|e| match &mut e.op {
                Op::MovRegAluReg { src2, .. } => Some(src2),
                _ => None,
            })
            .expect("no MovRegAluReg in any run");
        *src2 = Gpr::Rdx; // adds 9 instead of 7
    });
}

/// Skipped rollback slot on the faulting member: the batch-charge
/// rollback unwinds one member too few, inflating the instruction
/// count at the fault.
#[test]
fn tv_agreement_rollback_slot() {
    assert_static_dynamic_agree(&tv_fault_program(), |prog| {
        let e = prog
            .run_ops
            .iter_mut()
            .find(|e| matches!(e.op, Op::Store { .. }))
            .expect("faulting store must be a run member");
        e.k += 1;
    });
}

/// Off-by-one batched run cost: the single batched `cycles` add no
/// longer equals the per-member sum.
#[test]
fn tv_agreement_members_cost() {
    assert_static_dynamic_agree(&tv_branch_program(), |prog| {
        prog.runs[0].members_cost += 1;
    });
}

/// Mis-resolved direct branch: the pre-resolved taken target of the
/// fused compare-and-branch points at the poison instruction.
#[test]
fn tv_agreement_branch_target() {
    assert_static_dynamic_agree(&tv_branch_program(), |prog| {
        let (tgt_ref, want) = prog
            .ops
            .iter_mut()
            .enumerate()
            .find_map(|(i, d)| match &mut d.op {
                Op::CmpImmJcc { tgt, .. } => Some((tgt, i)),
                _ => None,
            })
            .expect("no top-level CmpImmJcc");
        // Redirect the taken edge to the instruction right after the
        // pair — the poison AluImm.
        *tgt_ref = want as u32 + 2;
    });
}

/// Wrong pre-baked second-half cost on a top-level fused pair: the
/// `second!` charge diverges from the reference interpreter's.
#[test]
fn tv_agreement_second_half_cost() {
    assert_static_dynamic_agree(&tv_branch_program(), |prog| {
        let f2 = prog
            .ops
            .iter_mut()
            .find_map(|d| match &mut d.op {
                Op::CmpImmJcc { f2, .. } => Some(f2),
                _ => None,
            })
            .expect("no top-level CmpImmJcc");
        f2.cost2 += 1;
    });
}

/// Corrupted fault-attribution offset on a fallible run member: the
/// divide-by-zero fault reports the wrong instruction address.
#[test]
fn tv_agreement_fault_attribution() {
    assert_static_dynamic_agree(&tv_div_program(), |prog| {
        let e = prog
            .run_ops
            .iter_mut()
            .find(|e| matches!(e.op, Op::Div { .. }))
            .expect("div must be a run member");
        e.off += 1;
    });
}

/// Off-by-one pre-baked leader cost: the dispatch preamble charges the
/// wrong base cycles.
#[test]
fn tv_agreement_prebaked_cost() {
    assert_static_dynamic_agree(&tv_branch_program(), |prog| {
        prog.ops[0].cost += 1;
    });
}
