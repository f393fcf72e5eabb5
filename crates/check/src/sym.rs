//! Hash-consed symbolic semantics for the decode translation validator.
//!
//! Two independent evaluators over a shared term arena:
//!
//! * [`sym_exec_insn`] gives the meaning of a source [`Insn`], written
//!   independently from the ISA (it shares no code with the VM, which
//!   is what makes it an oracle);
//! * [`sym_exec_op`] gives the meaning of a decoded [`Op`], mirroring
//!   the VM's single semantics function for non-control ops
//!   (`Vm::exec_single`, which `Vm::exec_member` composes into fused
//!   pairs and quads, plus `alu_imm_quad_effects`) and the control arms
//!   of `Vm::exec`.
//!
//! Both produce a [`SymState`]: the final symbolic register file, YMM
//! file, flags term, YMM-dirty tri-state, and the ordered sequence of
//! memory [`Effect`]s, plus a [`SymCtrl`] successor. Terms are
//! hash-consed in a [`SymCtx`], so two computations are equal iff their
//! [`Id`]s are equal — structural comparison is O(1) per slot and the
//! validator never walks a term DAG.
//!
//! Memory is modelled positionally: the k-th read performed by an
//! evaluation yields the opaque term `Load(k)` (or `LoadVec(k)`).
//! Because the validator also requires the *effect sequences* of the
//! two sides to be identical (same kinds, same symbolic addresses, same
//! written values, in the same order), positional naming is sound: when
//! the effect lists agree, the k-th read on either side denotes the
//! same concrete value in every concrete execution, faults included.
//! The per-entry `ord` tag records which original instruction of a
//! fused pair an effect belongs to, which is exactly the fault-
//! attribution metadata (`exec_member`'s "half", the position of the
//! `Vm::charge_second` accounting boundary) that mid-pair faults
//! depend on.

use std::collections::HashMap;

use r2c_vm::decode_inspect::Op;
use r2c_vm::insn::AluOp;
use r2c_vm::{Cond, Gpr, Insn, MemRef, NativeKind, VAddr, Ymm};

/// Handle of a hash-consed term: equal ids ⇔ equal terms.
pub(crate) type Id = u32;

/// One node of the term DAG.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum Node {
    /// Initial (pre-evaluation) value of a general-purpose register.
    InitGpr(u8),
    /// Initial value of a YMM register.
    InitYmm(u8),
    /// Initial flags.
    InitFlags,
    /// Constant.
    Imm(u64),
    /// `alu(op, a, b)` with the interpreter's wrapping semantics.
    Alu(AluOp, Id, Id),
    /// Signed wrapping quotient (divisor already checked non-zero).
    Div(Id, Id),
    /// Signed wrapping remainder.
    Rem(Id, Id),
    /// Result of the k-th memory read (8-byte word).
    Load(u32),
    /// Result of the k-th memory read (32-byte vector).
    LoadVec(u32),
    /// `vzeroupper` applied to a YMM value.
    ZeroUpper(Id),
    /// `cond_holds(cond, flags) as u64`.
    CondVal(Cond, Id),
    /// Flags after `set_cmp(a, b)`.
    FlagsCmp(Id, Id),
    /// Flags after `set_test(x, x)`.
    FlagsTest(Id),
    /// Flags after `set_result(r)`.
    FlagsResult(Id),
}

/// Hash-consing arena. One context is shared by both sides of every
/// comparison, so identical computations intern to identical ids.
pub(crate) struct SymCtx {
    nodes: Vec<Node>,
    memo: HashMap<Node, Id>,
}

impl SymCtx {
    pub(crate) fn new() -> SymCtx {
        SymCtx {
            nodes: Vec::new(),
            memo: HashMap::new(),
        }
    }

    pub(crate) fn node(&mut self, n: Node) -> Id {
        if let Some(&id) = self.memo.get(&n) {
            return id;
        }
        let id = self.nodes.len() as Id;
        self.nodes.push(n);
        self.memo.insert(n, id);
        id
    }

    fn imm(&mut self, v: u64) -> Id {
        self.node(Node::Imm(v))
    }

    /// Bounded-depth rendering of a term, for error details.
    pub(crate) fn describe(&self, id: Id) -> String {
        self.desc(id, 4)
    }

    fn desc(&self, id: Id, depth: u32) -> String {
        if depth == 0 {
            return format!("#{id}");
        }
        let d = |i: Id| self.desc(i, depth - 1);
        match self.nodes[id as usize] {
            Node::InitGpr(r) => format!("{:?}₀", Gpr::from_index(r as usize)),
            Node::InitYmm(r) => format!("ymm{r}₀"),
            Node::InitFlags => "flags₀".into(),
            Node::Imm(v) => format!("{v:#x}"),
            Node::Alu(op, a, b) => format!("{op:?}({}, {})", d(a), d(b)),
            Node::Div(a, b) => format!("div({}, {})", d(a), d(b)),
            Node::Rem(a, b) => format!("rem({}, {})", d(a), d(b)),
            Node::Load(k) => format!("load#{k}"),
            Node::LoadVec(k) => format!("vload#{k}"),
            Node::ZeroUpper(a) => format!("zeroupper({})", d(a)),
            Node::CondVal(c, f) => format!("{c:?}({})", d(f)),
            Node::FlagsCmp(a, b) => format!("cmp({}, {})", d(a), d(b)),
            Node::FlagsTest(a) => format!("test({})", d(a)),
            Node::FlagsResult(a) => format!("result({})", d(a)),
        }
    }
}

/// What kind of memory interaction an [`Effect`] is. Push/pop are kept
/// distinct from plain writes/reads: they additionally move `rsp` and
/// pushes fault on the stack limit before the write, so decoding one
/// into the other is never equivalent.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum EffectKind {
    /// 8-byte data read.
    Read,
    /// 8-byte data write.
    Write,
    /// `push_word`: stack-limit check + 8-byte write at `rsp - 8`.
    PushWrite,
    /// `pop_word`: 8-byte read at `rsp`.
    PopRead,
    /// 32-byte vector read.
    ReadVec,
    /// 32-byte vector write.
    WriteVec,
    /// Divide-by-zero check on the divisor (in `val`).
    DivCheck,
    /// 32-byte alignment check on the address.
    AlignCheck,
}

/// One memory-visible step, in program order. Equal effect sequences
/// (kind, symbolic address, written value, and fault-attribution `ord`)
/// mean both sides touch memory identically — and fault identically —
/// in every concrete execution.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Effect {
    pub kind: EffectKind,
    /// Symbolic address (absent for [`EffectKind::DivCheck`]).
    pub addr: Option<Id>,
    /// Written value / checked divisor, when the kind has one.
    pub val: Option<Id>,
    /// Ordinal of the original instruction this effect belongs to
    /// within the evaluated unit (the pair "half" of `exec_member`, the
    /// side of the `charge_second` boundary at top level).
    pub ord: u8,
}

/// Tri-state for `ymm_dirty`: `Inherit` means the evaluated unit never
/// touched it, so the dynamic value is whatever it was before.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum YmmDirty {
    Inherit,
    Dirty,
    Clean,
}

/// Successor of an evaluated unit. The target type is the side's
/// native representation — virtual addresses on the source side,
/// pre-resolved instruction indices on the decoded side — unified by
/// the validator through an independently rebuilt resolver.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum SymCtrl<T: Copy + Eq> {
    /// Fall through to the next instruction after the unit.
    Next,
    Jmp(T),
    Jcc {
        cond: Cond,
        flags: Id,
        tgt: T,
    },
    Call {
        tgt: T,
        ra: u64,
    },
    CallInd {
        target: Id,
        ra: u64,
    },
    CallNative {
        native: u16,
        is_probe: bool,
    },
    Ret {
        ra: Id,
    },
    JmpInd {
        target: Id,
    },
    Trap,
    Halt,
}

impl<T: Copy + Eq> SymCtrl<T> {
    /// Rewrites the direct-branch target through `f`, leaving every
    /// other component untouched.
    pub(crate) fn map_target<U: Copy + Eq>(self, f: impl Fn(T) -> U) -> SymCtrl<U> {
        match self {
            SymCtrl::Next => SymCtrl::Next,
            SymCtrl::Jmp(t) => SymCtrl::Jmp(f(t)),
            SymCtrl::Jcc { cond, flags, tgt } => SymCtrl::Jcc {
                cond,
                flags,
                tgt: f(tgt),
            },
            SymCtrl::Call { tgt, ra } => SymCtrl::Call { tgt: f(tgt), ra },
            SymCtrl::CallInd { target, ra } => SymCtrl::CallInd { target, ra },
            SymCtrl::CallNative { native, is_probe } => SymCtrl::CallNative { native, is_probe },
            SymCtrl::Ret { ra } => SymCtrl::Ret { ra },
            SymCtrl::JmpInd { target } => SymCtrl::JmpInd { target },
            SymCtrl::Trap => SymCtrl::Trap,
            SymCtrl::Halt => SymCtrl::Halt,
        }
    }

    /// True when `self` and `other` are the same control shape and
    /// differ at most in the direct-branch target.
    pub(crate) fn same_shape<U: Copy + Eq>(&self, other: &SymCtrl<U>) -> bool {
        match (self, other) {
            (SymCtrl::Next, SymCtrl::Next)
            | (SymCtrl::Jmp(_), SymCtrl::Jmp(_))
            | (SymCtrl::Trap, SymCtrl::Trap)
            | (SymCtrl::Halt, SymCtrl::Halt) => true,
            (
                SymCtrl::Jcc { cond, flags, .. },
                SymCtrl::Jcc {
                    cond: c2,
                    flags: f2,
                    ..
                },
            ) => cond == c2 && flags == f2,
            (SymCtrl::Call { ra, .. }, SymCtrl::Call { ra: r2, .. }) => ra == r2,
            (SymCtrl::CallInd { target, ra }, SymCtrl::CallInd { target: t2, ra: r2 }) => {
                target == t2 && ra == r2
            }
            (
                SymCtrl::CallNative { native, is_probe },
                SymCtrl::CallNative {
                    native: n2,
                    is_probe: p2,
                },
            ) => native == n2 && is_probe == p2,
            (SymCtrl::Ret { ra }, SymCtrl::Ret { ra: r2 }) => ra == r2,
            (SymCtrl::JmpInd { target }, SymCtrl::JmpInd { target: t2 }) => target == t2,
            _ => false,
        }
    }
}

/// Symbolic machine state threaded through an evaluation.
pub(crate) struct SymState {
    pub gpr: [Id; 16],
    pub ymm: [Id; 16],
    pub flags: Id,
    pub dirty: YmmDirty,
    pub effects: Vec<Effect>,
    reads: u32,
    ord: u8,
}

impl SymState {
    pub(crate) fn fresh(cx: &mut SymCtx) -> SymState {
        SymState {
            gpr: std::array::from_fn(|i| cx.node(Node::InitGpr(i as u8))),
            ymm: std::array::from_fn(|i| cx.node(Node::InitYmm(i as u8))),
            flags: cx.node(Node::InitFlags),
            dirty: YmmDirty::Inherit,
            effects: Vec::new(),
            reads: 0,
            ord: 0,
        }
    }

    /// Marks the start of the `ord`-th original instruction within the
    /// unit; subsequent effects carry this attribution.
    pub(crate) fn set_ord(&mut self, ord: u8) {
        self.ord = ord;
    }

    fn get(&self, r: Gpr) -> Id {
        self.gpr[r.index()]
    }

    fn set(&mut self, r: Gpr, v: Id) {
        self.gpr[r.index()] = v;
    }

    /// `Vm::ea`: `base + index*scale + sext(disp)`, wrapping.
    fn ea(&self, cx: &mut SymCtx, m: &MemRef) -> Id {
        let mut a = self.get(m.base);
        if let Some((idx, scale)) = m.index {
            let s = cx.imm(scale as u64);
            let mul = cx.node(Node::Alu(AluOp::Imul, self.get(idx), s));
            a = cx.node(Node::Alu(AluOp::Add, a, mul));
        }
        let disp = cx.imm(m.disp as i64 as u64);
        cx.node(Node::Alu(AluOp::Add, a, disp))
    }

    fn effect(&mut self, kind: EffectKind, addr: Option<Id>, val: Option<Id>) {
        self.effects.push(Effect {
            kind,
            addr,
            val,
            ord: self.ord,
        });
    }

    fn read_word(&mut self, cx: &mut SymCtx, kind: EffectKind, addr: Id) -> Id {
        self.effect(kind, Some(addr), None);
        let v = cx.node(Node::Load(self.reads));
        self.reads += 1;
        v
    }

    fn read_vec(&mut self, cx: &mut SymCtx, addr: Id) -> Id {
        self.effect(EffectKind::ReadVec, Some(addr), None);
        let v = cx.node(Node::LoadVec(self.reads));
        self.reads += 1;
        v
    }

    /// `Vm::push_word`: limit check + write at `rsp - 8`, then
    /// `rsp -= 8`.
    fn push_val(&mut self, cx: &mut SymCtx, val: Id) {
        let eight = cx.imm(8);
        let nrsp = cx.node(Node::Alu(AluOp::Sub, self.get(Gpr::Rsp), eight));
        self.effect(EffectKind::PushWrite, Some(nrsp), Some(val));
        self.set(Gpr::Rsp, nrsp);
    }

    /// `Vm::pop_word`: read at `rsp`, then `rsp += 8`.
    fn pop_val(&mut self, cx: &mut SymCtx) -> Id {
        let rsp = self.get(Gpr::Rsp);
        let v = self.read_word(cx, EffectKind::PopRead, rsp);
        let eight = cx.imm(8);
        let nrsp = cx.node(Node::Alu(AluOp::Add, rsp, eight));
        self.set(Gpr::Rsp, nrsp);
        v
    }

    // --- shared micro-semantics: each helper is the effect of exactly
    // one original instruction, used verbatim by both evaluators -----

    fn m_mov_imm(&mut self, cx: &mut SymCtx, dst: Gpr, imm: u64) {
        let v = cx.imm(imm);
        self.set(dst, v);
    }

    fn m_mov_reg(&mut self, dst: Gpr, src: Gpr) {
        let v = self.get(src);
        self.set(dst, v);
    }

    fn m_load(&mut self, cx: &mut SymCtx, dst: Gpr, mem: &MemRef) {
        let a = self.ea(cx, mem);
        let v = self.read_word(cx, EffectKind::Read, a);
        self.set(dst, v);
    }

    fn m_store(&mut self, cx: &mut SymCtx, mem: &MemRef, src: Gpr) {
        let a = self.ea(cx, mem);
        let v = self.get(src);
        self.effect(EffectKind::Write, Some(a), Some(v));
    }

    fn m_store_imm(&mut self, cx: &mut SymCtx, mem: &MemRef, imm: i32) {
        let a = self.ea(cx, mem);
        let v = cx.imm(imm as i64 as u64);
        self.effect(EffectKind::Write, Some(a), Some(v));
    }

    fn m_lea(&mut self, cx: &mut SymCtx, dst: Gpr, mem: &MemRef) {
        let a = self.ea(cx, mem);
        self.set(dst, a);
    }

    fn m_alu(&mut self, cx: &mut SymCtx, op: AluOp, dst: Gpr, b: Id) {
        let r = cx.node(Node::Alu(op, self.get(dst), b));
        self.set(dst, r);
        self.flags = cx.node(Node::FlagsResult(r));
    }

    fn m_divrem(&mut self, cx: &mut SymCtx, dst: Gpr, src: Gpr, rem: bool) {
        let b = self.get(src);
        self.effect(EffectKind::DivCheck, None, Some(b));
        let a = self.get(dst);
        let r = cx.node(if rem {
            Node::Rem(a, b)
        } else {
            Node::Div(a, b)
        });
        self.set(dst, r);
    }

    fn m_cmp(&mut self, cx: &mut SymCtx, a: Id, b: Id) {
        self.flags = cx.node(Node::FlagsCmp(a, b));
    }

    fn m_test(&mut self, cx: &mut SymCtx, a: Gpr) {
        let x = self.get(a);
        self.flags = cx.node(Node::FlagsTest(x));
    }

    fn m_setcc(&mut self, cx: &mut SymCtx, cond: Cond, dst: Gpr) {
        let v = cx.node(Node::CondVal(cond, self.flags));
        self.set(dst, v);
    }

    fn m_load_abs(&mut self, cx: &mut SymCtx, dst: Gpr, addr: VAddr) {
        let a = cx.imm(addr);
        let v = self.read_word(cx, EffectKind::Read, a);
        self.set(dst, v);
    }

    fn m_vload_abs(&mut self, cx: &mut SymCtx, dst: Ymm, addr: VAddr) {
        let a = cx.imm(addr);
        self.effect(EffectKind::AlignCheck, Some(a), None);
        let v = self.read_vec(cx, a);
        self.ymm[dst.index()] = v;
        self.dirty = YmmDirty::Dirty;
    }

    fn m_vload(&mut self, cx: &mut SymCtx, dst: Ymm, mem: &MemRef, aligned: bool) {
        let a = self.ea(cx, mem);
        if aligned {
            self.effect(EffectKind::AlignCheck, Some(a), None);
        }
        let v = self.read_vec(cx, a);
        self.ymm[dst.index()] = v;
        self.dirty = YmmDirty::Dirty;
    }

    fn m_vstore(&mut self, cx: &mut SymCtx, mem: &MemRef, src: Ymm, aligned: bool) {
        let a = self.ea(cx, mem);
        if aligned {
            self.effect(EffectKind::AlignCheck, Some(a), None);
        }
        let v = self.ymm[src.index()];
        self.effect(EffectKind::WriteVec, Some(a), Some(v));
        self.dirty = YmmDirty::Dirty;
    }

    fn m_vzeroupper(&mut self, cx: &mut SymCtx) {
        for slot in &mut self.ymm {
            *slot = cx.node(Node::ZeroUpper(*slot));
        }
        self.dirty = YmmDirty::Clean;
    }

    /// `quad_effects`: the expanded mov/mov/alu/mov template.
    #[allow(clippy::too_many_arguments)]
    fn m_quad_expanded(
        &mut self,
        cx: &mut SymCtx,
        imm: u64,
        a: Gpr,
        bd: Gpr,
        bs: Gpr,
        op: AluOp,
        cd: Gpr,
        cs: Gpr,
        dd: Gpr,
        ds: Gpr,
    ) {
        self.m_mov_imm(cx, a, imm);
        self.m_mov_reg(bd, bs);
        let r = cx.node(Node::Alu(op, self.get(cd), self.get(cs)));
        self.set(cd, r);
        self.flags = cx.node(Node::FlagsResult(r));
        self.m_mov_reg(dd, ds);
    }

    /// `alu_imm_quad_effects`: the collapsed operand-chained quad.
    #[allow(clippy::too_many_arguments)] // mirrors the Op variant's fields
    fn m_quad_collapsed(
        &mut self,
        cx: &mut SymCtx,
        imm: u64,
        a: Gpr,
        scratch: Gpr,
        op: AluOp,
        src: Gpr,
        dst: Gpr,
    ) {
        let iv = cx.imm(imm);
        let r = cx.node(Node::Alu(op, self.get(src), iv));
        self.set(a, iv);
        self.set(scratch, r);
        self.flags = cx.node(Node::FlagsResult(r));
        self.set(dst, r);
    }
}

/// Whether a native index is the stack-probe hypercall — the property
/// `Op::CallNative::is_probe` pre-bakes at decode time.
fn probe_of(natives: &[NativeKind], native: u16) -> bool {
    natives.get(native as usize) == Some(&NativeKind::StackProbe)
}

/// Symbolic meaning of one source instruction, mirroring the reference
/// interpreter. `addr` is the instruction's own address (return-address
/// computation); `natives` resolves probe-ness of native calls.
pub(crate) fn sym_exec_insn(
    cx: &mut SymCtx,
    st: &mut SymState,
    insn: &Insn,
    addr: VAddr,
    natives: &[NativeKind],
) -> SymCtrl<VAddr> {
    match *insn {
        Insn::MovImm { dst, imm } | Insn::MovAbs { dst, imm } => st.m_mov_imm(cx, dst, imm),
        Insn::MovReg { dst, src } => st.m_mov_reg(dst, src),
        Insn::Load { dst, mem } => st.m_load(cx, dst, &mem),
        Insn::Store { mem, src } => st.m_store(cx, &mem, src),
        Insn::StoreImm { mem, imm } => st.m_store_imm(cx, &mem, imm),
        Insn::Lea { dst, mem } => st.m_lea(cx, dst, &mem),
        Insn::Push { src } => {
            let v = st.get(src);
            st.push_val(cx, v);
        }
        Insn::PushImm { imm } => {
            let v = cx.imm(imm);
            st.push_val(cx, v);
        }
        Insn::Pop { dst } => {
            let v = st.pop_val(cx);
            st.set(dst, v);
        }
        Insn::AluReg { op, dst, src } => {
            let b = st.get(src);
            st.m_alu(cx, op, dst, b);
        }
        Insn::AluImm { op, dst, imm } => {
            let b = cx.imm(imm as i64 as u64);
            st.m_alu(cx, op, dst, b);
        }
        Insn::Div { dst, src } => st.m_divrem(cx, dst, src, false),
        Insn::Rem { dst, src } => st.m_divrem(cx, dst, src, true),
        Insn::CmpReg { a, b } => {
            let (x, y) = (st.get(a), st.get(b));
            st.m_cmp(cx, x, y);
        }
        Insn::CmpImm { a, imm } => {
            let x = st.get(a);
            let y = cx.imm(imm as i64 as u64);
            st.m_cmp(cx, x, y);
        }
        Insn::Test { a } => st.m_test(cx, a),
        Insn::SetCc { cond, dst } => st.m_setcc(cx, cond, dst),
        Insn::LoadAbs { dst, addr } => st.m_load_abs(cx, dst, addr),
        Insn::VLoadAbs { dst, addr } => st.m_vload_abs(cx, dst, addr),
        Insn::Call { target } => {
            let ra = addr + insn.len();
            let v = cx.imm(ra);
            st.push_val(cx, v);
            return SymCtrl::Call { tgt: target, ra };
        }
        Insn::CallInd { target } => {
            let ra = addr + insn.len();
            let t = st.get(target);
            let v = cx.imm(ra);
            st.push_val(cx, v);
            return SymCtrl::CallInd { target: t, ra };
        }
        Insn::CallNative { native } => {
            return SymCtrl::CallNative {
                native,
                is_probe: probe_of(natives, native),
            };
        }
        Insn::Ret => {
            let ra = st.pop_val(cx);
            return SymCtrl::Ret { ra };
        }
        Insn::Jmp { target } => return SymCtrl::Jmp(target),
        Insn::JmpInd { target } => {
            return SymCtrl::JmpInd {
                target: st.get(target),
            };
        }
        Insn::Jcc { cond, target } => {
            return SymCtrl::Jcc {
                cond,
                flags: st.flags,
                tgt: target,
            };
        }
        Insn::Nop { .. } => {}
        Insn::Trap => return SymCtrl::Trap,
        Insn::VLoad { dst, mem, aligned } => st.m_vload(cx, dst, &mem, aligned),
        Insn::VStore { mem, src, aligned } => st.m_vstore(cx, &mem, src, aligned),
        Insn::VZeroUpper => st.m_vzeroupper(cx),
        Insn::Halt => return SymCtrl::Halt,
    }
    SymCtrl::Next
}

/// Symbolic meaning of one decoded op, mirroring the decoded engine.
/// Fused variants advance the effect attribution (`set_ord`) between
/// their halves exactly where the engine places the
/// `Vm::charge_second` accounting boundary and `exec_member` switches
/// its fault half.
/// `Op::Run` has no local meaning (the validator walks run tables
/// itself) and is rejected.
pub(crate) fn sym_exec_op(
    cx: &mut SymCtx,
    st: &mut SymState,
    op: &Op,
) -> Result<SymCtrl<u32>, String> {
    match *op {
        Op::MovImm { dst, imm } => st.m_mov_imm(cx, dst, imm),
        Op::MovReg { dst, src } => st.m_mov_reg(dst, src),
        Op::Load { dst, mem } => st.m_load(cx, dst, &mem),
        Op::Store { mem, src } => st.m_store(cx, &mem, src),
        Op::StoreImm { mem, imm } => st.m_store_imm(cx, &mem, imm),
        Op::Lea { dst, mem } => st.m_lea(cx, dst, &mem),
        Op::Push { src } => {
            let v = st.get(src);
            st.push_val(cx, v);
        }
        Op::PushImm { imm } => {
            let v = cx.imm(imm);
            st.push_val(cx, v);
        }
        Op::Pop { dst } => {
            let v = st.pop_val(cx);
            st.set(dst, v);
        }
        Op::AluReg { op, dst, src } => {
            let b = st.get(src);
            st.m_alu(cx, op, dst, b);
        }
        Op::AluImm { op, dst, imm } => {
            let b = cx.imm(imm as i64 as u64);
            st.m_alu(cx, op, dst, b);
        }
        Op::Div { dst, src } => st.m_divrem(cx, dst, src, false),
        Op::Rem { dst, src } => st.m_divrem(cx, dst, src, true),
        Op::CmpReg { a, b } => {
            let (x, y) = (st.get(a), st.get(b));
            st.m_cmp(cx, x, y);
        }
        Op::CmpImm { a, imm } => {
            let x = st.get(a);
            let y = cx.imm(imm as i64 as u64);
            st.m_cmp(cx, x, y);
        }
        Op::Test { a } => st.m_test(cx, a),
        Op::SetCc { cond, dst } => st.m_setcc(cx, cond, dst),
        Op::LoadAbs { dst, addr } => st.m_load_abs(cx, dst, addr),
        Op::VLoadAbs { dst, addr } => st.m_vload_abs(cx, dst, addr),
        Op::Call { tgt, ra } => {
            let v = cx.imm(ra);
            st.push_val(cx, v);
            return Ok(SymCtrl::Call { tgt, ra });
        }
        Op::CallInd { target, ra } => {
            let t = st.get(target);
            let v = cx.imm(ra);
            st.push_val(cx, v);
            return Ok(SymCtrl::CallInd { target: t, ra });
        }
        Op::CallNative { native, is_probe } => {
            return Ok(SymCtrl::CallNative { native, is_probe });
        }
        Op::Ret => {
            let ra = st.pop_val(cx);
            return Ok(SymCtrl::Ret { ra });
        }
        Op::Jmp { tgt } => return Ok(SymCtrl::Jmp(tgt)),
        Op::JmpInd { target } => {
            return Ok(SymCtrl::JmpInd {
                target: st.get(target),
            });
        }
        Op::Jcc { cond, tgt, .. } => {
            return Ok(SymCtrl::Jcc {
                cond,
                flags: st.flags,
                tgt,
            });
        }
        Op::Nop => {}
        Op::Trap => return Ok(SymCtrl::Trap),
        Op::VLoad { dst, mem, aligned } => st.m_vload(cx, dst, &mem, aligned),
        Op::VStore { mem, src, aligned } => st.m_vstore(cx, &mem, src, aligned),
        Op::VZeroUpper => st.m_vzeroupper(cx),
        Op::Halt => return Ok(SymCtrl::Halt),

        // --- fused pairs ---------------------------------------------
        Op::MovRegAluReg {
            dst1,
            src1,
            op,
            dst2,
            src2,
            ..
        } => {
            st.m_mov_reg(dst1, src1);
            st.set_ord(1);
            let b = st.get(src2);
            st.m_alu(cx, op, dst2, b);
        }
        Op::AluRegMovReg {
            op,
            dst1,
            src1,
            dst2,
            src2,
            ..
        } => {
            let b = st.get(src1);
            st.m_alu(cx, op, dst1, b);
            st.set_ord(1);
            st.m_mov_reg(dst2, src2);
        }
        Op::MovImmMovReg {
            dst1,
            imm,
            dst2,
            src2,
            ..
        } => {
            st.m_mov_imm(cx, dst1, imm);
            st.set_ord(1);
            st.m_mov_reg(dst2, src2);
        }
        Op::MovRegMovImm {
            dst1,
            src1,
            dst2,
            imm,
            ..
        } => {
            st.m_mov_reg(dst1, src1);
            st.set_ord(1);
            st.m_mov_imm(cx, dst2, imm);
        }
        Op::MovRegStore {
            dst1,
            src1,
            mem,
            src2,
            ..
        } => {
            st.m_mov_reg(dst1, src1);
            st.set_ord(1);
            st.m_store(cx, &mem, src2);
        }
        Op::LoadMovReg {
            dst1,
            mem,
            dst2,
            src2,
            ..
        } => {
            st.m_load(cx, dst1, &mem);
            st.set_ord(1);
            st.m_mov_reg(dst2, src2);
        }
        Op::StoreLoad {
            smem,
            src,
            dst,
            lmem,
            ..
        } => {
            st.m_store(cx, &smem, src);
            st.set_ord(1);
            st.m_load(cx, dst, &lmem);
        }
        Op::LeaMovReg {
            dst1,
            mem,
            dst2,
            src2,
            ..
        } => {
            st.m_lea(cx, dst1, &mem);
            st.set_ord(1);
            st.m_mov_reg(dst2, src2);
        }
        Op::CmpRegJcc {
            a, b, cond, tgt, ..
        } => {
            let (x, y) = (st.get(a), st.get(b));
            st.m_cmp(cx, x, y);
            st.set_ord(1);
            return Ok(SymCtrl::Jcc {
                cond,
                flags: st.flags,
                tgt,
            });
        }
        Op::CmpImmJcc {
            a, imm, cond, tgt, ..
        } => {
            let x = st.get(a);
            let y = cx.imm(imm as i64 as u64);
            st.m_cmp(cx, x, y);
            st.set_ord(1);
            return Ok(SymCtrl::Jcc {
                cond,
                flags: st.flags,
                tgt,
            });
        }
        Op::TestJcc { a, cond, tgt, .. } => {
            st.m_test(cx, a);
            st.set_ord(1);
            return Ok(SymCtrl::Jcc {
                cond,
                flags: st.flags,
                tgt,
            });
        }
        Op::CmpRegSetCc {
            a, b, cond, dst, ..
        } => {
            let (x, y) = (st.get(a), st.get(b));
            st.m_cmp(cx, x, y);
            st.set_ord(1);
            st.m_setcc(cx, cond, dst);
        }
        Op::PushPush { s1, s2, .. } => {
            let v = st.get(s1);
            st.push_val(cx, v);
            st.set_ord(1);
            let v = st.get(s2);
            st.push_val(cx, v);
        }
        Op::PopPop { d1, d2, .. } => {
            let v = st.pop_val(cx);
            st.set(d1, v);
            st.set_ord(1);
            let v = st.pop_val(cx);
            st.set(d2, v);
        }
        Op::PopRet { d1, .. } => {
            let v = st.pop_val(cx);
            st.set(d1, v);
            st.set_ord(1);
            let ra = st.pop_val(cx);
            return Ok(SymCtrl::Ret { ra });
        }

        // --- quad templates (pair heads share their fields' meaning;
        // the partner entry is evaluated separately by the validator) --
        Op::MovImmAluQuad {
            imm,
            a,
            bd,
            bs,
            op,
            cd,
            cs,
            dd,
            ds,
        }
        | Op::MovImmAluQuadPair {
            imm,
            a,
            bd,
            bs,
            op,
            cd,
            cs,
            dd,
            ds,
        } => st.m_quad_expanded(cx, imm, a, bd, bs, op, cd, cs, dd, ds),
        Op::AluImmQuad {
            imm,
            a,
            scratch,
            op,
            src,
            dst,
        }
        | Op::AluImmQuadPair {
            imm,
            a,
            scratch,
            op,
            src,
            dst,
        } => st.m_quad_collapsed(cx, imm, a, scratch, op, src, dst),

        Op::Run { run } => return Err(format!("Op::Run({run}) has no local semantics")),
    }
    Ok(SymCtrl::Next)
}
