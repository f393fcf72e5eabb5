//! Translation validation for the decoded execution engine.
//!
//! [`check_decoded_program`] proves, statically, that a
//! [`DecodedProgram`] means the same thing as the [`Image`] it claims
//! to decode — for every instruction, every fused superinstruction,
//! every quad template, and every block run — under three obligation
//! classes (surfaced as [`DecodeTvClass`]):
//!
//! * **State** — per decoded unit, the symbolic final state (register
//!   file, YMM file, flags, `ymm_dirty`, ordered memory-effect
//!   sequence with fault-half attribution) of the decoded op equals
//!   that of the source instruction slice it covers, and run-entry
//!   positional-rollback metadata (`ROp::k`, the line-relative
//!   fault-attribution address `ROp::off`) names the exact member, so
//!   a mid-run fault unwinds to precisely the reference state.
//! * **Cost** — every pre-baked constant equals what the reference
//!   interpreter would charge: `DOp::cost` and `F2::cost2` against
//!   [`MachineConfig::base_cost`], fused second-half icache addresses
//!   against the real second-instruction address, `Jcc` `taken_extra`
//!   against `taken_branch_cost - branch_cost`, a run's batched
//!   `members_cost` against the per-member sum, and icache segment
//!   lines against the members' `addr / line_size`.
//! * **Target** — the dense dispatch table is exactly the
//!   text-offset → index map of the image, and every pre-resolved
//!   direct branch index equals an independently rebuilt resolution of
//!   the original target address.
//!
//! Anything structurally unverifiable (truncated tables, fused ops in
//! an unfused decode, quads outside run streams, control flow inside a
//! run) is a **Shape** finding. An empty result is a proof that the
//! decoded program, executed by the decoded engine, is observably
//! identical — states, faults, and stats — to the reference
//! interpreter on the original image, for all inputs.
//!
//! [`check_decode`] sweeps all four machine models with fusion both on
//! and off; it is the `R2cConfig::check_decode` compiler pass and the
//! `check --decode` CI sweep.

use std::collections::HashMap;

use r2c_vm::decode_inspect::{decode_program, DecodedProgram, Op, F2, NO_INSN};
use r2c_vm::{Image, Insn, MachineKind, SymbolKind, VAddr};

use crate::sym::{sym_exec_insn, sym_exec_op, Effect, SymCtrl, SymCtx, SymState};
use crate::{CheckError, CheckKind};

/// Which proof obligation a decode translation-validation finding
/// violates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeTvClass {
    /// Structural well-formedness of the decoded tables.
    Shape,
    /// Pre-baked cost/accounting conformance.
    Cost,
    /// Branch-target / dispatch-table integrity.
    Target,
    /// Symbolic state equivalence (registers, flags, memory effects,
    /// successors, rollback metadata).
    State,
}

impl std::fmt::Display for DecodeTvClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeTvClass::Shape => write!(f, "shape"),
            DecodeTvClass::Cost => write!(f, "cost"),
            DecodeTvClass::Target => write!(f, "target"),
            DecodeTvClass::State => write!(f, "state"),
        }
    }
}

/// Validates `image`'s decode under every machine model, with fusion
/// on and off. An empty result proves every decoded program the VM
/// could build for this image equivalent to the reference semantics.
pub fn check_decode(image: &Image) -> Vec<CheckError> {
    let mut errs = Vec::new();
    for kind in MachineKind::ALL {
        for fuse in [true, false] {
            let prog = decode_program(image, &kind.config(), fuse);
            errs.extend(check_decoded_program(&prog, image));
        }
    }
    errs
}

/// Validates one decoded program (already built, possibly corrupted —
/// this is the mutation-test entry point) against the image it claims
/// to represent, under its own recorded machine model and fusion flag.
pub fn check_decoded_program(prog: &DecodedProgram, image: &Image) -> Vec<CheckError> {
    Tv::new(prog, image).run()
}

/// Dispatch class of a decoded op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OpClass {
    /// Standalone op covering one instruction.
    Single,
    /// Fused pair covering two instructions.
    Pair,
    /// Quad template covering four instructions (run streams only).
    Quad,
    /// Quad pair head (run streams only; partner entry follows).
    QuadPair,
    /// Block run.
    Run,
}

fn class_of(op: &Op) -> OpClass {
    match op {
        Op::MovRegAluReg { .. }
        | Op::AluRegMovReg { .. }
        | Op::MovImmMovReg { .. }
        | Op::MovRegMovImm { .. }
        | Op::MovRegStore { .. }
        | Op::LoadMovReg { .. }
        | Op::StoreLoad { .. }
        | Op::LeaMovReg { .. }
        | Op::CmpRegJcc { .. }
        | Op::CmpImmJcc { .. }
        | Op::TestJcc { .. }
        | Op::CmpRegSetCc { .. }
        | Op::PushPush { .. }
        | Op::PopPop { .. }
        | Op::PopRet { .. } => OpClass::Pair,
        Op::MovImmAluQuad { .. } | Op::AluImmQuad { .. } => OpClass::Quad,
        Op::MovImmAluQuadPair { .. } | Op::AluImmQuadPair { .. } => OpClass::QuadPair,
        Op::Run { .. } => OpClass::Run,
        _ => OpClass::Single,
    }
}

/// Second-half metadata of a top-level fused pair.
fn f2_of(op: &Op) -> Option<F2> {
    match *op {
        Op::MovRegAluReg { f2, .. }
        | Op::AluRegMovReg { f2, .. }
        | Op::MovImmMovReg { f2, .. }
        | Op::MovRegMovImm { f2, .. }
        | Op::MovRegStore { f2, .. }
        | Op::LoadMovReg { f2, .. }
        | Op::StoreLoad { f2, .. }
        | Op::LeaMovReg { f2, .. }
        | Op::CmpRegJcc { f2, .. }
        | Op::CmpImmJcc { f2, .. }
        | Op::TestJcc { f2, .. }
        | Op::CmpRegSetCc { f2, .. }
        | Op::PushPush { f2, .. }
        | Op::PopPop { f2, .. }
        | Op::PopRet { f2, .. } => Some(f2),
        _ => None,
    }
}

/// Pre-baked taken-branch surcharge, where the op carries one.
fn taken_extra_of(op: &Op) -> Option<u16> {
    match *op {
        Op::Jcc { taken_extra, .. }
        | Op::CmpRegJcc { taken_extra, .. }
        | Op::CmpImmJcc { taken_extra, .. }
        | Op::TestJcc { taken_extra, .. } => Some(taken_extra),
        _ => None,
    }
}

/// Mirror of the decoder's straight-line predicate: instructions a
/// block run may cover (`exec_member` has no control arms).
fn is_straight(insn: &Insn) -> bool {
    !matches!(
        insn,
        Insn::Call { .. }
            | Insn::CallInd { .. }
            | Insn::CallNative { .. }
            | Insn::Ret
            | Insn::Jmp { .. }
            | Insn::JmpInd { .. }
            | Insn::Jcc { .. }
            | Insn::Trap
            | Insn::Halt
    )
}

struct Tv<'a> {
    prog: &'a DecodedProgram,
    image: &'a Image,
    /// Independently rebuilt address → instruction-index map.
    addr_to_idx: HashMap<VAddr, u32>,
    /// Function symbols, sorted by address, for finding attribution.
    funcs: Vec<(VAddr, String)>,
    /// `taken_branch_cost - branch_cost` under the program's machine.
    taken_extra: u16,
    line_size: u64,
    errs: Vec<CheckError>,
}

impl<'a> Tv<'a> {
    fn new(prog: &'a DecodedProgram, image: &'a Image) -> Tv<'a> {
        let addr_to_idx = image
            .insn_addrs
            .iter()
            .enumerate()
            .map(|(i, &a)| (a, i as u32))
            .collect();
        let mut funcs: Vec<(VAddr, String)> = image
            .symbols
            .iter()
            .filter(|s| s.kind == SymbolKind::Function)
            .map(|s| (s.addr, s.name.clone()))
            .collect();
        funcs.sort();
        Tv {
            prog,
            image,
            addr_to_idx,
            funcs,
            taken_extra: (prog.machine.taken_branch_cost - prog.machine.branch_cost) as u16,
            line_size: prog.machine.icache.line as u64,
            errs: Vec::new(),
        }
    }

    /// The decoder's target resolution, rebuilt from the image alone.
    fn resolve(&self, target: VAddr) -> u32 {
        let l = self.image.layout;
        if target >= l.text_base && target < l.text_end {
            self.addr_to_idx.get(&target).copied().unwrap_or(NO_INSN)
        } else {
            NO_INSN
        }
    }

    fn err(&mut self, insn: Option<usize>, class: DecodeTvClass, detail: String) {
        let func_name = insn
            .and_then(|i| self.image.insn_addrs.get(i))
            .and_then(|&a| {
                let at = self.funcs.partition_point(|(fa, _)| *fa <= a);
                self.funcs.get(at.checked_sub(1)?).map(|(_, n)| n.clone())
            });
        self.errs.push(CheckError {
            func: None,
            func_name,
            insn,
            kind: CheckKind::DecodeTv {
                machine: self.prog.machine.kind.name(),
                fused: self.prog.fused,
                class,
                detail,
            },
        });
    }

    fn run(mut self) -> Vec<CheckError> {
        self.check_copies();
        self.check_dispatch();
        let n = self.image.insns.len();
        if self.image.insn_addrs.len() != n {
            self.err(
                None,
                DecodeTvClass::Shape,
                format!(
                    "image has {} addresses for {n} instructions",
                    self.image.insn_addrs.len()
                ),
            );
            return self.errs;
        }
        if self.prog.ops.len() != n {
            self.err(
                None,
                DecodeTvClass::Shape,
                format!(
                    "ops table has {} entries for {n} instructions",
                    self.prog.ops.len()
                ),
            );
            return self.errs;
        }
        for i in 0..n {
            self.check_op(i);
        }
        self.errs
    }

    /// The decoded program's verbatim image copies must match the
    /// image being validated — otherwise every downstream proof would
    /// be about a different program.
    fn check_copies(&mut self) {
        if let Some(mm) = self
            .prog
            .mismatch(self.image, &self.prog.machine, self.prog.fused)
        {
            self.err(
                None,
                DecodeTvClass::Shape,
                format!("decoded copy diverges from image at {mm}"),
            );
        }
        if self.prog.text_base != self.image.layout.text_base {
            self.err(
                None,
                DecodeTvClass::Shape,
                format!(
                    "text_base {:#x} != layout.text_base {:#x}",
                    self.prog.text_base, self.image.layout.text_base
                ),
            );
        }
    }

    /// Target integrity of the dense dispatch table: it must be exactly
    /// the text-offset → instruction-index map of the image, with
    /// [`NO_INSN`] on every hole.
    fn check_dispatch(&mut self) {
        let l = self.image.layout;
        let text_len = (l.text_end - l.text_base) as usize;
        if self.prog.dispatch.len() != text_len {
            self.err(
                None,
                DecodeTvClass::Target,
                format!(
                    "dispatch table has {} entries for a {text_len}-byte text section",
                    self.prog.dispatch.len()
                ),
            );
            return;
        }
        let mut expected = vec![NO_INSN; text_len];
        for (i, &a) in self.image.insn_addrs.iter().enumerate() {
            let off = a.wrapping_sub(l.text_base);
            if off < text_len as u64 {
                expected[off as usize] = i as u32;
            }
        }
        let diverging: Vec<usize> = (0..text_len)
            .filter(|&off| self.prog.dispatch[off] != expected[off])
            .collect();
        if let Some(&off) = diverging.first() {
            let want = expected[off];
            let got = self.prog.dispatch[off];
            let insn = (want != NO_INSN).then_some(want as usize);
            self.err(
                insn,
                DecodeTvClass::Target,
                format!(
                    "dispatch[{off:#x}] is {got:#x}, expected {want:#x} ({} entries diverge)",
                    diverging.len()
                ),
            );
        }
    }

    fn check_op(&mut self, i: usize) {
        let dop = self.prog.ops[i];
        if dop.addr != self.image.insn_addrs[i] {
            self.err(
                Some(i),
                DecodeTvClass::Shape,
                format!(
                    "op addr {:#x} != instruction addr {:#x}",
                    dop.addr, self.image.insn_addrs[i]
                ),
            );
        }
        let base = self.prog.machine.base_cost(&self.image.insns[i]);
        if dop.cost as u64 != base {
            self.err(
                Some(i),
                DecodeTvClass::Cost,
                format!("pre-baked cost {} != base cost {base}", dop.cost),
            );
        }
        if let Some(te) = taken_extra_of(&dop.op) {
            if te != self.taken_extra {
                self.err(
                    Some(i),
                    DecodeTvClass::Cost,
                    format!(
                        "taken_extra {te} != taken_branch_cost - branch_cost = {}",
                        self.taken_extra
                    ),
                );
            }
        }
        match class_of(&dop.op) {
            OpClass::Single => self.check_unit(i, 1, &dop.op),
            OpClass::Pair => {
                if !self.prog.fused {
                    self.err(
                        Some(i),
                        DecodeTvClass::Shape,
                        "fused pair in an unfused decode".into(),
                    );
                    return;
                }
                self.check_pair_f2(i, &dop.op);
                self.check_unit(i, 2, &dop.op);
            }
            OpClass::Quad | OpClass::QuadPair => self.err(
                Some(i),
                DecodeTvClass::Shape,
                "quad entry outside a run effect stream".into(),
            ),
            OpClass::Run => {
                if !self.prog.fused {
                    self.err(
                        Some(i),
                        DecodeTvClass::Shape,
                        "block run in an unfused decode".into(),
                    );
                    return;
                }
                if let Op::Run { run } = dop.op {
                    self.check_run(i, run);
                }
            }
        }
    }

    /// Cost conformance of a top-level pair's second half: `charge_second`
    /// charges `cost2` deci-cycles and touches the icache at
    /// `addr + a2off`, which must be the second instruction's own base
    /// cost and real address.
    fn check_pair_f2(&mut self, i: usize, op: &Op) {
        let Some(f2) = f2_of(op) else { return };
        if i + 1 >= self.image.insns.len() {
            self.err(
                Some(i),
                DecodeTvClass::Shape,
                "fused pair at the last instruction".into(),
            );
            return;
        }
        let cost2 = self.prog.machine.base_cost(&self.image.insns[i + 1]);
        if f2.cost2 as u64 != cost2 {
            self.err(
                Some(i),
                DecodeTvClass::Cost,
                format!("second-half cost {} != base cost {cost2}", f2.cost2),
            );
        }
        let got = self.image.insn_addrs[i] + f2.a2off as u64;
        if got != self.image.insn_addrs[i + 1] {
            self.err(
                Some(i),
                DecodeTvClass::Cost,
                format!(
                    "second-half icache address {got:#x} != instruction addr {:#x}",
                    self.image.insn_addrs[i + 1]
                ),
            );
        }
    }

    /// State equivalence of one decoded unit against the `width`
    /// source instructions it covers: symbolically execute both sides
    /// in a shared arena and require identical final state, effect
    /// sequence, and successor.
    fn check_unit(&mut self, i: usize, width: usize, op: &Op) {
        let n = self.image.insns.len();
        if i + width > n {
            self.err(
                Some(i),
                DecodeTvClass::Shape,
                format!("unit of width {width} extends past the last instruction"),
            );
            return;
        }
        let mut cx = SymCtx::new();
        let mut src = SymState::fresh(&mut cx);
        let mut src_ctrl: SymCtrl<VAddr> = SymCtrl::Next;
        for k in 0..width {
            if k > 0 && src_ctrl != SymCtrl::Next {
                self.err(
                    Some(i + k - 1),
                    DecodeTvClass::Shape,
                    "control instruction in a non-final unit slot".into(),
                );
                return;
            }
            src.set_ord(k as u8);
            src_ctrl = sym_exec_insn(
                &mut cx,
                &mut src,
                &self.image.insns[i + k],
                self.image.insn_addrs[i + k],
                &self.image.natives,
            );
        }
        let mut dec = SymState::fresh(&mut cx);
        let dec_ctrl = match sym_exec_op(&mut cx, &mut dec, op) {
            Ok(c) => c,
            Err(e) => {
                self.err(Some(i), DecodeTvClass::Shape, e);
                return;
            }
        };
        if let Some(diff) = state_diff(&cx, &src, &dec) {
            self.err(Some(i), DecodeTvClass::State, diff);
        }
        let mapped = src_ctrl.map_target(|t| self.resolve(t));
        if mapped != dec_ctrl {
            let class = if mapped.same_shape(&dec_ctrl) {
                DecodeTvClass::Target
            } else {
                DecodeTvClass::State
            };
            self.err(
                Some(i),
                class,
                format!("successor diverges: source {mapped:?}, decoded {dec_ctrl:?}"),
            );
        }
    }

    /// Full validation of a block run: leader, batched cost, icache
    /// segmentation, effect-stream coverage, rollback metadata, and
    /// per-entry state equivalence.
    fn check_run(&mut self, i: usize, run: u32) {
        let n = self.image.insns.len();
        let Some(&ri) = self.prog.runs.get(run as usize) else {
            self.err(
                Some(i),
                DecodeTvClass::Shape,
                format!(
                    "run index {run} out of range ({} runs)",
                    self.prog.runs.len()
                ),
            );
            return;
        };
        let count = ri.n as usize;
        if count < 2 {
            self.err(Some(i), DecodeTvClass::Shape, "run with no members".into());
            return;
        }
        if i + count > n {
            self.err(
                Some(i),
                DecodeTvClass::Shape,
                format!("run of {count} instructions extends past the last instruction"),
            );
            return;
        }
        // Leader: a standalone, straight-line op equivalent to the
        // leading instruction (the run loop executes it through
        // `exec_member`, which has no control arms).
        if class_of(&ri.leader) != OpClass::Single {
            self.err(
                Some(i),
                DecodeTvClass::Shape,
                "run leader is not a standalone op".into(),
            );
        } else {
            self.check_unit(i, 1, &ri.leader);
        }
        if !is_straight(&self.image.insns[i]) {
            self.err(
                Some(i),
                DecodeTvClass::Shape,
                "control instruction leads a block run".into(),
            );
        }
        // Batched cost: `members_cost` is charged in one add; it must
        // be exactly the per-member base-cost sum.
        let nmem = count - 1;
        let want: u64 = self.image.insns[i + 1..i + count]
            .iter()
            .map(|insn| self.prog.machine.base_cost(insn))
            .sum();
        if ri.members_cost != want {
            self.err(
                Some(i),
                DecodeTvClass::Cost,
                format!(
                    "batched members_cost {} != per-member sum {want}",
                    ri.members_cost
                ),
            );
        }
        // Segments partition the members in order, each on one line.
        let s0 = ri.seg_start as usize;
        let sc = ri.seg_count as usize;
        if s0 + sc > self.prog.run_segs.len() {
            self.err(
                Some(i),
                DecodeTvClass::Shape,
                format!(
                    "segment range {s0}..{} out of bounds ({} segments)",
                    s0 + sc,
                    self.prog.run_segs.len()
                ),
            );
            return;
        }
        let segs = &self.prog.run_segs[s0..s0 + sc];
        let covered: usize = segs.iter().map(|s| s.count as usize).sum();
        if covered != nmem {
            self.err(
                Some(i),
                DecodeTvClass::Shape,
                format!("segments cover {covered} of {nmem} members"),
            );
            return;
        }
        let mut mi = i + 1; // absolute index of the segment's first member
        let mut next_entry: Option<usize> = None;
        let mut k_expect = 0usize; // member offset within the run
        for seg in segs {
            if seg.count == 0 {
                self.err(Some(i), DecodeTvClass::Shape, "empty icache segment".into());
            }
            for mj in mi..mi + seg.count as usize {
                let line = self.image.insn_addrs[mj] / self.line_size;
                if line != seg.line {
                    self.err(
                        Some(mj),
                        DecodeTvClass::Cost,
                        format!(
                            "member at {:#x} is on icache line {line}, segment claims {}",
                            self.image.insn_addrs[mj], seg.line
                        ),
                    );
                }
            }
            let first = seg.first as usize;
            let n_ops = seg.n_ops as usize;
            if let Some(want_first) = next_entry {
                if first != want_first {
                    self.err(
                        Some(i),
                        DecodeTvClass::Shape,
                        format!("segment effect stream starts at {first}, expected {want_first}"),
                    );
                }
            }
            if first + n_ops > self.prog.run_ops.len() {
                self.err(
                    Some(i),
                    DecodeTvClass::Shape,
                    format!(
                        "effect stream {first}..{} out of bounds ({} entries)",
                        first + n_ops,
                        self.prog.run_ops.len()
                    ),
                );
                return;
            }
            next_entry = Some(first + n_ops);
            let seg_lo = mi - (i + 1);
            let seg_hi = seg_lo + seg.count as usize;
            let entries = &self.prog.run_ops[first..first + n_ops];
            for (t, e) in entries.iter().enumerate() {
                let cls = class_of(&e.op);
                let width = match cls {
                    OpClass::Single => 1,
                    OpClass::Pair => 2,
                    OpClass::Quad | OpClass::QuadPair => 4,
                    OpClass::Run => {
                        self.err(
                            Some(i),
                            DecodeTvClass::Shape,
                            "nested Op::Run in a run effect stream".into(),
                        );
                        return;
                    }
                };
                if k_expect + width > nmem {
                    self.err(
                        Some(i),
                        DecodeTvClass::Shape,
                        format!(
                            "effect stream overruns the run ({} of {nmem} members left, entry covers {width})",
                            nmem - k_expect
                        ),
                    );
                    return;
                }
                let at = i + 1 + k_expect;
                // Positional-rollback metadata: `k` names the member a
                // fault in this entry starts rolling back from.
                if e.k as usize != k_expect {
                    self.err(
                        Some(at),
                        DecodeTvClass::State,
                        format!("rollback slot k={} but entry covers member {k_expect}", e.k),
                    );
                }
                if !(seg_lo..seg_hi).contains(&k_expect) {
                    self.err(
                        Some(at),
                        DecodeTvClass::Shape,
                        format!(
                            "entry for member {k_expect} assigned to segment covering {seg_lo}..{seg_hi}"
                        ),
                    );
                }
                // Rollback stays segment-local only if a fallible
                // pair's two members share the segment.
                if cls == OpClass::Pair && k_expect + 1 >= seg_hi {
                    self.err(
                        Some(at),
                        DecodeTvClass::Shape,
                        "fallible pair straddles an icache segment boundary".into(),
                    );
                }
                // Fault-attribution address rebuilt from line + offset.
                let got = seg.line * self.line_size + e.off as u64;
                if got != self.image.insn_addrs[at] {
                    self.err(
                        Some(at),
                        DecodeTvClass::State,
                        format!(
                            "fault-attribution address {got:#x} != member address {:#x}",
                            self.image.insn_addrs[at]
                        ),
                    );
                }
                // A pair head executes the next entry under its own
                // dispatch; the partner must exist, in this segment,
                // and be a plain quad.
                if cls == OpClass::QuadPair {
                    match entries.get(t + 1).map(|p| class_of(&p.op)) {
                        Some(OpClass::Quad) => {}
                        other => self.err(
                            Some(at),
                            DecodeTvClass::Shape,
                            format!(
                                "quad pair head without a quad partner (next entry: {other:?})"
                            ),
                        ),
                    }
                }
                // Runs cover straight-line code only; `exec_member`
                // cannot execute control instructions.
                if self.image.insns[at..at + width]
                    .iter()
                    .any(|x| !is_straight(x))
                {
                    self.err(
                        Some(at),
                        DecodeTvClass::Shape,
                        "control instruction covered by a run effect entry".into(),
                    );
                } else {
                    self.check_unit(at, width, &e.op);
                }
                k_expect += width;
            }
            mi += seg.count as usize;
        }
        if k_expect != nmem {
            self.err(
                Some(i),
                DecodeTvClass::Shape,
                format!("effect stream covers {k_expect} of {nmem} members"),
            );
        }
    }
}

/// First divergence between the two sides' final symbolic states.
fn state_diff(cx: &SymCtx, src: &SymState, dec: &SymState) -> Option<String> {
    use r2c_vm::Gpr;
    for r in 0..16 {
        if src.gpr[r] != dec.gpr[r] {
            return Some(format!(
                "{:?}: source {}, decoded {}",
                Gpr::from_index(r),
                cx.describe(src.gpr[r]),
                cx.describe(dec.gpr[r])
            ));
        }
    }
    for r in 0..16 {
        if src.ymm[r] != dec.ymm[r] {
            return Some(format!(
                "ymm{r}: source {}, decoded {}",
                cx.describe(src.ymm[r]),
                cx.describe(dec.ymm[r])
            ));
        }
    }
    if src.flags != dec.flags {
        return Some(format!(
            "flags: source {}, decoded {}",
            cx.describe(src.flags),
            cx.describe(dec.flags)
        ));
    }
    if src.dirty != dec.dirty {
        return Some(format!(
            "ymm_dirty: source {:?}, decoded {:?}",
            src.dirty, dec.dirty
        ));
    }
    if src.effects != dec.effects {
        let k = src
            .effects
            .iter()
            .zip(&dec.effects)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| src.effects.len().min(dec.effects.len()));
        return Some(format!(
            "memory effect #{k}: source {}, decoded {}",
            fmt_effect(cx, src.effects.get(k)),
            fmt_effect(cx, dec.effects.get(k))
        ));
    }
    None
}

fn fmt_effect(cx: &SymCtx, e: Option<&Effect>) -> String {
    let Some(e) = e else {
        return "<none>".into();
    };
    let addr = e.addr.map_or("-".into(), |a| cx.describe(a));
    let val = e.val.map_or("-".into(), |v| cx.describe(v));
    format!("{:?}@{}(addr {addr}, val {val})", e.kind, e.ord)
}
