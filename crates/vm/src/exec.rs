//! The virtual-machine interpreter.
//!
//! [`Vm`] loads an [`Image`], runs its constructors and entry point, and
//! accounts per-instruction costs against a [`MachineConfig`]. It also
//! exposes the *attacker primitives* the paper's threat model grants
//! (§3): permission-checked arbitrary read/write (a memory-corruption
//! vulnerability), stack-frame leaks, and control-flow hijacking. Every
//! booby-trap execution and guard-page access is recorded as a
//! [`Detection`] event for the reactive-defense monitor.
//!
//! Execution runs one engine over the pre-decoded, superinstruction-
//! fused program from [`crate::decode`]: a single loop, generic over its
//! observation [`Hooks`], instantiated twice — with `()` for untraced
//! runs and with the [`Tracer`] for traced ones, so profiles, captures
//! and the pair census observe exactly the engine untraced runs use.
//! The effect of every non-control instruction is written once
//! ([`Vm::exec_single`]), and [`Vm::exec_member`] composes it into the
//! non-control fused pairs and quads; only control transfers keep their
//! own dispatch arms.
//!
//! Simulated [`ExecStats`] are bit-identical per seed between fused and
//! unfused decoding (`VmConfig::no_fuse`: one op per instruction, the
//! per-instruction reference the differential suites compare against)
//! and between traced and untraced runs — the engine re-checks the
//! instruction budget and touches the simulated icache once per
//! *original* instruction in original order, even inside fused pairs.

use std::sync::Arc;

use crate::decode::{self, DecodedProgram, Op, RunInfo, F2, NO_INSN};
use crate::fault::{Detection, Fault};
use crate::heap::Heap;
use crate::image::{Image, NativeKind};
use crate::insn::{AluOp, Cond, Insn, MemRef};
use crate::machine::{ICache, MachineConfig};
use crate::mem::{Memory, Perms};
use crate::regs::{Gpr, RegFile, Ymm};
use crate::stats::ExecStats;
use crate::trace::{CaptureLog, ExecProfile, TraceConfig, Tracer};
use crate::VAddr;

/// Sentinel return address: `ret`ing to it ends the current activation
/// (used for the entry point, constructors, and attacker-driven calls).
pub const EXIT_SENTINEL: VAddr = 0xE0D0_0000_0000;

/// How a run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExitStatus {
    /// The guest exited normally with this status value.
    Exited(i64),
    /// The guest died with a fault.
    Faulted(Fault),
    /// Execution paused at a `StackProbe` (only with
    /// [`VmConfig::break_on_probe`]); resume with [`Vm::resume`].
    /// This models Malicious Thread Blocking precisely: the victim
    /// thread is *held* at a known point while the attacker reads and
    /// writes its memory, then released (§2.3).
    Probed,
}

impl ExitStatus {
    /// True for a normal exit.
    pub fn is_exit(&self) -> bool {
        matches!(self, ExitStatus::Exited(_))
    }
}

/// A stack snapshot captured at a `StackProbe` hypercall: the state a
/// Malicious-Thread-Blocking attacker observes while the victim thread
/// is blocked.
#[derive(Clone, Debug)]
pub struct StackSnapshot {
    /// Program counter of the probe call (where the thread "blocks").
    pub pc: VAddr,
    /// Stack pointer at the probe.
    pub rsp: VAddr,
    /// Contents of `[rsp, rsp + 2 pages)`.
    pub bytes: Vec<u8>,
}

/// Result of running a guest activation to completion.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Exit status or fault.
    pub status: ExitStatus,
    /// Statistics accumulated so far (cumulative over the VM lifetime).
    pub stats: ExecStats,
}

/// VM configuration.
#[derive(Clone, Copy, Debug)]
pub struct VmConfig {
    /// Cost model.
    pub machine: MachineConfig,
    /// Maximum dynamically executed instructions before the run is
    /// aborted with [`Fault::BudgetExhausted`].
    pub insn_budget: u64,
    /// Pause execution (returning [`ExitStatus::Probed`]) at every
    /// `StackProbe` native, so a Malicious-Thread-Blocking attacker can
    /// act on the live frame before [`Vm::resume`] releases the thread.
    pub break_on_probe: bool,
    /// Debug knob: disable superinstruction fusion in the decoded
    /// engine. Off in [`VmConfig::new`]; the fused-vs-unfused
    /// differential suites and `profile` set it. Fusion is a pure
    /// host-side optimization, so this must never change guest-visible
    /// behavior or [`ExecStats`] — that is exactly what the suites
    /// assert.
    pub no_fuse: bool,
    /// Debug knob: disable copy-on-write page sharing, so building or
    /// resetting a VM deep-copies the load-time image
    /// ([`Memory::from_snapshot_deep`] / [`Memory::restore_deep`]) the
    /// way the pre-CoW implementation did. Off in [`VmConfig::new`].
    /// CoW is a pure host-side optimization — guest-visible behavior,
    /// [`ExecStats`] and monitor logs must be bit-identical either way,
    /// which the CoW differential suites and `report_fleet` assert.
    pub no_cow: bool,
}

impl VmConfig {
    /// Config with the given machine, a generous default budget, and
    /// fusion and copy-on-write on. The configuration never depends on
    /// the environment.
    pub fn new(machine: MachineConfig) -> VmConfig {
        VmConfig {
            machine,
            insn_budget: 2_000_000_000,
            break_on_probe: false,
            no_fuse: false,
            no_cow: false,
        }
    }
}

/// The virtual machine.
pub struct Vm {
    cfg: VmConfig,
    /// The decoded program: instructions, pre-decoded ops, dispatch
    /// table, native table, layout and the load-time memory image —
    /// shared (via the decode cache) with every other VM running the
    /// same image on the same machine model.
    pub(crate) prog: Arc<DecodedProgram>,
    /// Guest memory. Public for tests and analysis tooling; attacks must
    /// use the permission-checked primitives instead.
    pub mem: Memory,
    /// Architectural registers.
    pub regs: RegFile,
    /// Guest heap allocator state.
    pub heap: Heap,
    pub(crate) icache: ICache,
    pub(crate) stats: ExecStats,
    edges: crate::stats::EdgeStats,
    stack_limit: VAddr,
    /// Values printed by the guest (`PrintI64` / `PutChar` natives), the
    /// "program output" used for differential correctness checks.
    pub output: Vec<i64>,
    detections: Vec<Detection>,
    /// Stack snapshots taken at `StackProbe` natives — the window
    /// Malicious Thread Blocking lets an attacker observe (§2.3).
    /// AOCR's analysis uses two pages of stack values, so that is what
    /// each snapshot covers.
    pub probes: Vec<StackSnapshot>,
    ymm_dirty: bool,
    pending_resume: Option<u32>,
    /// Execution tracer (`None` by default). While a traced VM runs, the
    /// tracer is lent to the execution loop as its [`Hooks`]. Tracing
    /// only *observes* state — cycle counts stay bit-identical either
    /// way, which the `profile` binary enforces.
    tracer: Option<Box<Tracer>>,
}

impl Vm {
    /// Loads an image into a fresh address space.
    ///
    /// Decoding is cached: constructing many VMs from the same image on
    /// the same machine (bench repetitions, fleet workers, pool
    /// variants) decodes once and clones the load-time memory snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the image fails [`Image::validate`].
    pub fn new(image: &Image, cfg: VmConfig) -> Vm {
        let prog = decode::decoded(image, &cfg.machine, !cfg.no_fuse);
        Vm::from_decoded(prog, cfg)
    }

    /// Builds a VM directly on an already-decoded program, bypassing
    /// the decode cache. Test hook for the translation validator's
    /// mutation corpus: a deliberately corrupted [`DecodedProgram`] can
    /// be executed to demonstrate the dynamic divergence the static
    /// verdict predicts (a corrupted program could never come out of
    /// the cache, which verifies field-by-field against the image).
    #[doc(hidden)]
    pub fn from_decoded(prog: Arc<DecodedProgram>, cfg: VmConfig) -> Vm {
        let mem = if cfg.no_cow {
            Memory::from_snapshot_deep(&prog.init_mem)
        } else {
            Memory::from_snapshot(&prog.init_mem)
        };
        let l = prog.layout;
        let heap = Heap::new(l.heap_base, l.heap_size);
        let mut regs = RegFile::new();
        regs.set(Gpr::Rsp, l.stack_top - 64);
        Vm {
            cfg,
            prog,
            mem,
            regs,
            heap,
            icache: ICache::new(cfg.machine.icache),
            stats: ExecStats::default(),
            edges: crate::stats::EdgeStats::default(),
            stack_limit: l.stack_top - l.stack_size,
            output: Vec::new(),
            detections: Vec::new(),
            probes: Vec::new(),
            ymm_dirty: false,
            pending_resume: None,
            tracer: None,
        }
    }

    /// Replaces the loaded module: semantically identical to building a
    /// fresh `Vm::new(image, cfg)` with this VM's config. The previous
    /// program (and anything decoded from it) is unreachable afterwards
    /// — a reused VM can never execute stale decoded blocks from the
    /// module it ran before.
    pub fn load_image(&mut self, image: &Image) {
        *self = Vm::new(image, self.cfg);
    }

    /// Resets the VM to the state [`Vm::new`] left it in, without
    /// rebuilding the image: memory is rolled back to the load-time
    /// snapshot (constructors have *not* run again), the heap allocator
    /// and register file are reinitialized, and every piece of observable
    /// run state — [`ExecStats`], recorded [`Detection`]s, stack-probe
    /// snapshots, guest output, the icache — is cleared. The decoded
    /// program is untouched (it is a pure function of the image).
    ///
    /// This is the fast worker-restart primitive for crash-restarting
    /// server pools: restarting on the *same* image preserves the layout
    /// an attacker has been probing (the Blind-ROP-vulnerable
    /// configuration), while a re-randomizing pool builds a fresh image
    /// and a fresh `Vm` instead. A reset VM is indistinguishable from a
    /// newly constructed one; nothing leaks across the restart (an
    /// attached tracer is dropped).
    pub fn reset_to_image(&mut self) {
        if self.cfg.no_cow {
            self.mem.restore_deep(&self.prog.init_mem);
        } else {
            self.mem.restore(&self.prog.init_mem);
        }
        self.heap = Heap::new(self.prog.layout.heap_base, self.prog.layout.heap_size);
        self.regs = RegFile::new();
        self.regs.set(Gpr::Rsp, self.prog.layout.stack_top - 64);
        self.icache = ICache::new(self.cfg.machine.icache);
        self.stats = ExecStats::default();
        self.edges = crate::stats::EdgeStats::default();
        self.output.clear();
        self.detections.clear();
        self.probes.clear();
        self.ymm_dirty = false;
        self.pending_resume = None;
        self.tracer = None;
    }

    /// Forks a fresh worker off this VM's load-time image: a new VM in
    /// the exact state [`Vm::new`] would produce for the same image and
    /// config, sharing the decoded program and — copy-on-write — every
    /// untouched page of the image with its parent. O(regions), not
    /// O(image): a fleet spinning up 1000 workers from one loaded
    /// template VM copies no page bytes at all. Nothing of the parent's
    /// *run* state (registers, heap, stats, output, probes) carries
    /// over.
    pub fn fork_from_image(&self) -> Vm {
        Vm::from_decoded(Arc::clone(&self.prog), self.cfg)
    }

    /// Attaches an execution tracer built from `image`'s symbol table.
    /// Call before [`Vm::run`]; tracing observes execution without
    /// changing it (cycle counts stay bit-identical to untraced runs).
    pub fn enable_trace(&mut self, image: &Image, cfg: TraceConfig) {
        self.tracer = Some(Box::new(Tracer::new(image, cfg)));
    }

    /// Mutable access to the attached tracer (for capture-mode setup:
    /// boundary spans, the dynamic-pair census), or `None` if tracing is
    /// off.
    pub fn tracer_mut(&mut self) -> Option<&mut Tracer> {
        self.tracer.as_deref_mut()
    }

    /// The capture-mode boundary log, or `None` when tracing is off or
    /// [`TraceConfig::capture`] was not set.
    pub fn capture_log(&self) -> Option<&CaptureLog> {
        self.tracer.as_deref()?.capture_log()
    }

    /// The dynamic-pair census accumulated by a traced run, if one was
    /// enabled via [`Tracer::enable_pair_census`].
    pub fn pair_census(&self) -> Option<&crate::census::PairCensus> {
        self.tracer.as_deref()?.pair_census()
    }

    /// Snapshot of the traced run, or `None` if tracing is off.
    pub fn trace_profile(&self) -> Option<ExecProfile> {
        let tr = self.tracer.as_deref()?;
        let mut p = tr.profile(self.stats());
        p.heap.end_live_bytes = self.heap.in_use();
        p.heap.end_resident_pages = self.mem.resident_pages() as u64;
        p.heap.released_pages = self.heap.released_pages;
        p.heap.quarantined_pages = self.heap.quarantined_pages() as u64;
        // The allocator-event samples can miss the true residency peak;
        // the address-space high-water mark never does.
        p.heap.peak_resident_pages = p
            .heap
            .peak_resident_pages
            .max(self.mem.max_resident_pages() as u64);
        Some(p)
    }

    /// Runs constructors, then the entry point, to completion.
    pub fn run(&mut self) -> RunOutcome {
        for i in 0..self.prog.constructors.len() {
            let ctor = self.prog.constructors[i];
            let out = self.call(ctor, &[]);
            if let ExitStatus::Faulted(_) = out.status {
                return out;
            }
        }
        self.call(self.prog.entry, &[])
    }

    /// Adjusts the instruction budget. The budget is cumulative over
    /// the VM's lifetime (and reset together with [`ExecStats`] by
    /// [`Vm::reset_to_image`]), so a long-lived server worker that
    /// wants a *per-request* watchdog sets
    /// `stats().instructions + per_request_budget` before each call.
    pub fn set_insn_budget(&mut self, budget: u64) {
        self.cfg.insn_budget = budget;
    }

    /// Resumes execution after an [`ExitStatus::Probed`] pause (the
    /// blocked thread is released).
    ///
    /// # Panics
    ///
    /// Panics if the VM is not paused at a probe.
    pub fn resume(&mut self) -> RunOutcome {
        let idx = self
            .pending_resume
            .take()
            .expect("resume without a pending probe");
        self.exec_from(idx)
    }

    /// True if the VM is paused at a probe.
    pub fn paused_at_probe(&self) -> bool {
        self.pending_resume.is_some()
    }

    /// Calls the function at `target` with up to six integer arguments,
    /// running until it returns (to the sentinel) or faults.
    ///
    /// This doubles as the whole-function-reuse primitive: an attacker
    /// who has hijacked control flow calls an arbitrary address with
    /// arbitrary arguments.
    pub fn call(&mut self, target: VAddr, args: &[u64]) -> RunOutcome {
        assert!(args.len() <= 6, "register arguments only");
        if let Some(tr) = &mut self.tracer {
            // A fresh activation: the shadow call stack starts over
            // (resuming from a probe does not come through here and
            // keeps its stack).
            tr.on_activation();
        }
        for (i, &a) in args.iter().enumerate() {
            self.regs.set(Gpr::ARGS[i], a);
        }
        // Align rsp so the callee sees the ABI-mandated rsp % 16 == 8.
        let rsp = self.regs.get(Gpr::Rsp) & !15;
        self.regs.set(Gpr::Rsp, rsp - 8);
        if let Err(f) = self.mem.write_u64(rsp - 8, EXIT_SENTINEL) {
            return self.finish(ExitStatus::Faulted(f));
        }
        match self.index_of(target) {
            Some(idx) => self.exec_from(idx),
            None => self.finish(ExitStatus::Faulted(Fault::InvalidJump { target })),
        }
    }

    /// Resolves a jump target to its instruction index via the dense
    /// dispatch table. `None` exactly when the old `HashMap` lookup
    /// missed: outside the text section or between instruction starts.
    #[inline]
    fn index_of(&self, target: VAddr) -> Option<u32> {
        let off = target.wrapping_sub(self.prog.text_base);
        if off < self.prog.dispatch.len() as u64 {
            let idx = self.prog.dispatch[off as usize];
            if idx != NO_INSN {
                return Some(idx);
            }
        }
        None
    }

    fn finish(&mut self, status: ExitStatus) -> RunOutcome {
        if let ExitStatus::Faulted(f) = status {
            self.note_fault(&f);
        }
        let (h, m) = self.icache.stats();
        if let Some(tr) = &mut self.tracer {
            if let ExitStatus::Faulted(f) = &status {
                tr.on_fault(f);
            }
            // Attribute the final instruction's cost; after this the
            // folded map accounts for every cycle charged so far.
            tr.sync(self.stats.instructions, self.stats.cycles, m);
        }
        self.stats.icache_hits = h;
        self.stats.icache_misses = m;
        self.stats.max_rss_pages = self.mem.max_resident_pages();
        RunOutcome {
            status,
            stats: self.stats,
        }
    }

    fn note_fault(&mut self, f: &Fault) {
        match f {
            Fault::BoobyTrap { addr } => self.detections.push(Detection::BoobyTrap { addr: *addr }),
            Fault::Protection { addr, perms, .. } if *perms == Perms::NONE => {
                self.detections.push(Detection::GuardPage { addr: *addr })
            }
            _ => {}
        }
    }

    /// Detection events recorded so far (booby traps, guard pages).
    pub fn detections(&self) -> &[Detection] {
        &self.detections
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ExecStats {
        let mut s = self.stats;
        let (h, m) = self.icache.stats();
        s.icache_hits = h;
        s.icache_misses = m;
        s.max_rss_pages = self.mem.max_resident_pages();
        s
    }

    /// Execution-edge telemetry snapshot (engine-path counters for the
    /// coverage-guided fuzzer; see [`crate::stats::EdgeStats`] for why
    /// these live outside [`ExecStats`]).
    pub fn edge_stats(&self) -> crate::stats::EdgeStats {
        self.edges
    }

    /// Decoded-op kind histogram of the program this VM executes —
    /// the fusion-pattern / lowering-template coverage surface. See
    /// [`DecodedProgram::op_kind_counts`].
    pub fn op_kind_counts(&self) -> Vec<(&'static str, u64)> {
        self.prog.op_kind_counts()
    }

    /// Whether the decoded program this VM executes was built with
    /// superinstruction fusion. Test hook for the fused-vs-unfused
    /// differential suites.
    #[doc(hidden)]
    pub fn fusion_enabled(&self) -> bool {
        self.prog.fused
    }

    /// Identity of the decoded program (stable for its lifetime). Test
    /// hook: two VMs share decode work iff this is equal, and a reload
    /// with a mutated image must change it.
    #[doc(hidden)]
    pub fn decoded_program_id(&self) -> usize {
        Arc::as_ptr(&self.prog) as usize
    }

    #[inline]
    fn ea(&self, m: &MemRef) -> VAddr {
        let mut a = self.regs.get(m.base);
        if let Some((idx, scale)) = m.index {
            a = a.wrapping_add(self.regs.get(idx).wrapping_mul(scale as u64));
        }
        a.wrapping_add_signed(m.disp as i64)
    }

    #[inline]
    fn push_word(&mut self, val: u64) -> Result<(), Fault> {
        let rsp = self.regs.get(Gpr::Rsp).wrapping_sub(8);
        if rsp < self.stack_limit {
            return Err(Fault::StackOverflow { rsp });
        }
        self.mem.write_u64(rsp, val)?;
        self.regs.set(Gpr::Rsp, rsp);
        Ok(())
    }

    #[inline]
    fn pop_word(&mut self) -> Result<u64, Fault> {
        let rsp = self.regs.get(Gpr::Rsp);
        let v = self.mem.read_u64(rsp)?;
        self.regs.set(Gpr::Rsp, rsp.wrapping_add(8));
        Ok(v)
    }

    #[inline]
    fn cond_holds(&self, c: Cond) -> bool {
        let f = self.regs.flags;
        match c {
            Cond::Eq => f.zf,
            Cond::Ne => !f.zf,
            Cond::Lt => f.sf != f.of,
            Cond::Le => f.zf || f.sf != f.of,
            Cond::Gt => !f.zf && f.sf == f.of,
            Cond::Ge => f.sf == f.of,
            Cond::B => f.cf,
            Cond::Ae => !f.cf,
        }
    }

    /// Executes starting at instruction index `idx` until the activation
    /// returns to the sentinel, the guest halts, or a fault occurs. A
    /// traced VM lends its tracer to the loop as its [`Hooks`]; an
    /// untraced one runs the no-op instantiation.
    fn exec_from(&mut self, idx: u32) -> RunOutcome {
        let end = match self.tracer.take() {
            None => self.exec(&mut (), idx),
            Some(mut tr) => {
                let end = self.exec(&mut *tr, idx);
                self.tracer = Some(tr);
                end
            }
        };
        self.finish(end.unwrap_or_else(ExitStatus::Faulted))
    }

    /// The execution loop over the decoded program: pre-baked costs,
    /// pre-resolved direct branch targets, fused superinstructions and
    /// block runs.
    ///
    /// Exactness protocol (enforced by the differential suites against
    /// the unfused, one-op-per-instruction decoding): per original
    /// instruction, in original order — budget check, then
    /// `instructions += 1`, then `cycles += base_cost +
    /// icache.access(insn_addr)`, then the instruction's effect (which
    /// may fault, ending the run with exactly the partial stats a
    /// per-instruction run would report). A fused pair runs this
    /// sequence twice under a single dispatch ([`Vm::charge_second`]
    /// between its halves); a block run batch-charges its members.
    fn exec<H: Hooks>(&mut self, h: &mut H, mut idx: u32) -> Result<ExitStatus, Fault> {
        let prog = Arc::clone(&self.prog);
        let ops = &prog.ops[..];
        loop {
            if self.stats.instructions >= self.cfg.insn_budget {
                return Err(Fault::BudgetExhausted);
            }
            let dop = &ops[idx as usize];
            h.dispatch(self, idx);
            self.stats.instructions += 1;
            self.stats.cycles += dop.cost as u64 + self.icache.access(dop.addr);

            // Indirect transfer: resolve through the dispatch table.
            macro_rules! jump_to {
                ($t:expr) => {{
                    let t = $t;
                    match self.index_of(t) {
                        Some(i) => {
                            idx = i;
                            continue;
                        }
                        None => return Err(Fault::InvalidJump { target: t }),
                    }
                }};
            }
            // Direct transfer: the target index was resolved at decode
            // time; NO_INSN recovers the faulting address from the
            // undecoded instruction at `$src` (cold path).
            macro_rules! direct_jump {
                ($tgt:expr, $src:expr) => {{
                    let t = $tgt;
                    if t == NO_INSN {
                        return Err(Fault::InvalidJump {
                            target: prog.insns[$src as usize]
                                .branch_target()
                                .expect("unresolved target is a direct branch"),
                        });
                    }
                    idx = t;
                    continue;
                }};
            }
            macro_rules! jcc {
                ($cond:expr, $tgt:expr, $taken_extra:expr, $src:expr) => {
                    if self.cond_holds($cond) {
                        self.stats.cycles += $taken_extra as u64;
                        direct_jump!($tgt, $src);
                    }
                };
            }
            // `ret` at instruction `$at`.
            macro_rules! ret {
                ($at:expr) => {{
                    self.charge_avx_transition();
                    self.stats.rets += 1;
                    let ra = self.pop_word()?;
                    h.ret(self, $at);
                    if ra == EXIT_SENTINEL {
                        return Ok(ExitStatus::Exited(self.regs.get(Gpr::Rax) as i64));
                    }
                    jump_to!(ra);
                }};
            }
            // The straight-line first half of a control pair, then the
            // charge of its second half.
            macro_rules! first_half {
                ($op:expr, $f2:expr) => {
                    self.exec_single(&$op, dop.addr)?;
                    self.charge_second(h, idx, dop.addr, $f2)?;
                };
            }

            match dop.op {
                Op::Call { tgt, ra } => {
                    self.charge_avx_transition();
                    self.stats.calls += 1;
                    self.push_word(ra)?;
                    h.call(self, idx, None);
                    direct_jump!(tgt, idx);
                }
                Op::CallInd { target, ra } => {
                    self.charge_avx_transition();
                    self.stats.calls += 1;
                    let t = self.regs.get(target);
                    self.push_word(ra)?;
                    h.call(self, idx, Some(t));
                    jump_to!(t);
                }
                Op::CallNative { native, is_probe } => {
                    self.stats.native_calls += 1;
                    self.do_native(native, dop.addr)?;
                    h.native(self, native);
                    if self.cfg.break_on_probe && is_probe {
                        self.pending_resume = Some(idx + 1);
                        return Ok(ExitStatus::Probed);
                    }
                }
                Op::Ret => ret!(idx),
                Op::Jmp { tgt } => direct_jump!(tgt, idx),
                Op::JmpInd { target } => jump_to!(self.regs.get(target)),
                Op::Jcc {
                    cond,
                    tgt,
                    taken_extra,
                } => jcc!(cond, tgt, taken_extra, idx),
                Op::Trap => return Err(Fault::BoobyTrap { addr: dop.addr }),
                Op::Halt => return Ok(ExitStatus::Exited(self.regs.get(Gpr::Rdi) as i64)),

                // --- control pairs ----------------------------------
                Op::CmpRegJcc {
                    a,
                    b,
                    cond,
                    tgt,
                    taken_extra,
                    f2,
                } => {
                    first_half!(Op::CmpReg { a, b }, f2);
                    jcc!(cond, tgt, taken_extra, idx + 1);
                    idx += 1;
                }
                Op::CmpImmJcc {
                    a,
                    imm,
                    cond,
                    tgt,
                    taken_extra,
                    f2,
                } => {
                    first_half!(Op::CmpImm { a, imm }, f2);
                    jcc!(cond, tgt, taken_extra, idx + 1);
                    idx += 1;
                }
                Op::TestJcc {
                    a,
                    cond,
                    tgt,
                    taken_extra,
                    f2,
                } => {
                    first_half!(Op::Test { a }, f2);
                    jcc!(cond, tgt, taken_extra, idx + 1);
                    idx += 1;
                }
                Op::PopRet { d1, f2 } => {
                    first_half!(Op::Pop { dst: d1 }, f2);
                    ret!(idx + 1);
                }

                // --- block run: the straight-line tail of a basic
                // block under one dispatch ---------------------------
                Op::Run { run } => {
                    self.edges.runs_entered += 1;
                    let ri = &prog.runs[run as usize];
                    // The loop preamble charged the leader like any
                    // other op; execute its (standalone) effect.
                    self.exec_single(&ri.leader, dop.addr)?;
                    let m = ri.n as u64 - 1;
                    // Budget edge: the members would cross the budget
                    // mark mid-run. Go on dispatching them one decoded
                    // op at a time — each checks the budget itself
                    // (cold — reached at most once per execution). A
                    // tracer that needs per-function exactness splits a
                    // run straddling a function start the same way.
                    if self.stats.instructions + m > self.cfg.insn_budget {
                        self.edges.slow_path_handoffs += 1;
                    } else if !h.split_run(self, idx, ri.n) {
                        self.exec_run_members(h, &prog, ri, idx)?;
                        idx += ri.n as u32 - 1;
                    }
                }
                op => match self.exec_member::<H, true>(h, &op, dop.addr, idx) {
                    Ok(n) => idx += n - 1,
                    Err((f, _)) => return Err(f),
                },
            }
            idx += 1;
            if idx as usize >= ops.len() {
                // Fell off the end of text: the faulting "target" is one
                // past the last *executed* instruction (the second half
                // for fused ops, since they advanced `idx` once already).
                let last = (idx - 1) as usize;
                return Err(Fault::InvalidJump {
                    target: prog.insn_addrs[last] + prog.insns[last].len(),
                });
            }
        }
    }

    /// Runs the members of a block run led by instruction `idx` under
    /// one dispatch. Every member is batch-charged up front and the
    /// icache is touched once per same-line segment as that segment is
    /// reached. Both are exact: intermediate stamp values inside a
    /// same-line span are dead, and the (rare) fault path un-books
    /// precisely the charges of members that were never reached.
    #[inline(always)]
    fn exec_run_members<H: Hooks>(
        &mut self,
        h: &mut H,
        prog: &DecodedProgram,
        ri: &RunInfo,
        idx: u32,
    ) -> Result<(), Fault> {
        let m = ri.n as u64 - 1;
        self.stats.instructions += m;
        self.stats.cycles += ri.members_cost;
        let base = idx as usize + 1;
        let segs =
            &prog.run_segs[ri.seg_start as usize..ri.seg_start as usize + ri.seg_count as usize];
        let line_size = self.icache.line_size();
        let mut done = 0u64;
        for seg in segs {
            self.stats.cycles += self.icache.access_span(seg.line, seg.count as u64);
            let seg_base = seg.line * line_size;
            let mut rest =
                &prog.run_ops[seg.first as usize..seg.first as usize + seg.n_ops as usize];
            while let [e, tail @ ..] = rest {
                match e.op {
                    // Pair head: this quad plus the next entry's quad,
                    // one dispatch. Neither can fault. A pair head
                    // always has its partner entry behind it.
                    Op::AluImmQuadPair { .. } => {
                        self.alu_imm_quad_effects(&e.op);
                        self.quad_effects(&tail[0].op);
                        rest = &tail[1..];
                        continue;
                    }
                    Op::MovImmAluQuadPair { .. } => {
                        self.quad_effects(&e.op);
                        self.quad_effects(&tail[0].op);
                        rest = &tail[1..];
                        continue;
                    }
                    _ => {}
                }
                rest = tail;
                if let Err((f, half)) =
                    self.exec_member::<H, false>(h, &e.op, seg_base + e.off as u64, 0)
                {
                    // Un-book the members past the faulting one — they
                    // never ran. Its own charges stay: every instruction
                    // is charged count/cost/icache before its effect.
                    let k = e.k as u64 + half;
                    self.edges.run_rollbacks += 1;
                    self.stats.instructions -= m - (k + 1);
                    for u in &prog.ops[base + k as usize + 1..base + m as usize] {
                        self.stats.cycles -= u.cost as u64;
                    }
                    self.icache
                        .rollback_pending(seg.count as u64 - 1 - (k - done));
                    return Err(f);
                }
            }
            done += seg.count as u64;
        }
        Ok(())
    }

    /// Register/flag effects of a [`Op::MovImmAluQuad`] (or a pair
    /// head, whose own fields are an identical quad): its four
    /// instructions' single effects in order. Cannot fault.
    #[inline(always)]
    fn quad_effects(&mut self, op: &Op) {
        let (Op::MovImmAluQuad {
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
        }) = *op
        else {
            return self.alu_imm_quad_effects(op);
        };
        let _ = self.exec_single(&Op::MovImm { dst: a, imm }, 0);
        let _ = self.exec_single(&Op::MovReg { dst: bd, src: bs }, 0);
        let _ = self.exec_single(
            &Op::AluReg {
                op,
                dst: cd,
                src: cs,
            },
            0,
        );
        let _ = self.exec_single(&Op::MovReg { dst: dd, src: ds }, 0);
    }

    /// Effects of the operand-chained quad: same final register, flag,
    /// and write-order-visible state as the four-instruction original
    /// (`a` then `scratch` then `dst`), with the dead intermediate
    /// moves folded away. Cannot fault.
    #[inline(always)]
    fn alu_imm_quad_effects(&mut self, op: &Op) {
        let (Op::AluImmQuad {
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
        }) = *op
        else {
            unreachable!("quad_effects on a non-quad entry")
        };
        let r = alu(op, self.regs.get(src), imm);
        self.regs.set(a, imm);
        self.regs.set(scratch, r);
        self.regs.flags.set_result(r);
        self.regs.set(dst, r);
    }

    /// Executes one entry of the effect path — a straight-line single,
    /// a non-control fused pair (its two singles' effects in order), or
    /// a run-stream quad — and returns the number of original
    /// instructions executed. This is the function every dispatch of a
    /// non-control op goes through: top-level ops, run leaders and run
    /// effect streams.
    ///
    /// With `CHARGE`, a pair charges its second half between the halves
    /// ([`Vm::charge_second`], which needs `idx`, the first half's
    /// instruction index); without it (block runs, which batch-charge)
    /// no accounting happens here. On a fault, the second tuple element
    /// is the number of the entry's instructions that completed before
    /// it (0, or 1 when the second half of a pair faulted), so a run
    /// can roll back to the exact member.
    #[inline(always)]
    fn exec_member<H: Hooks, const CHARGE: bool>(
        &mut self,
        h: &mut H,
        op: &Op,
        addr: VAddr,
        idx: u32,
    ) -> Result<u32, (Fault, u64)> {
        macro_rules! pair {
            ($first:expr, $f2:expr, $second:expr) => {{
                self.exec_single(&$first, addr).map_err(|f| (f, 0))?;
                if CHARGE {
                    self.charge_second(h, idx, addr, $f2).map_err(|f| (f, 1))?;
                }
                let addr2 = addr + $f2.a2off as u64;
                self.exec_single(&$second, addr2).map_err(|f| (f, 1))?;
                Ok(2)
            }};
        }
        match *op {
            Op::MovRegAluReg {
                dst1,
                src1,
                op,
                dst2,
                src2,
                f2,
            } => pair!(
                Op::MovReg {
                    dst: dst1,
                    src: src1
                },
                f2,
                Op::AluReg {
                    op,
                    dst: dst2,
                    src: src2
                }
            ),
            Op::AluRegMovReg {
                op,
                dst1,
                src1,
                dst2,
                src2,
                f2,
            } => pair!(
                Op::AluReg {
                    op,
                    dst: dst1,
                    src: src1
                },
                f2,
                Op::MovReg {
                    dst: dst2,
                    src: src2
                }
            ),
            Op::MovImmMovReg {
                dst1,
                imm,
                dst2,
                src2,
                f2,
            } => pair!(
                Op::MovImm { dst: dst1, imm },
                f2,
                Op::MovReg {
                    dst: dst2,
                    src: src2
                }
            ),
            Op::MovRegMovImm {
                dst1,
                src1,
                dst2,
                imm,
                f2,
            } => pair!(
                Op::MovReg {
                    dst: dst1,
                    src: src1
                },
                f2,
                Op::MovImm { dst: dst2, imm }
            ),
            Op::MovRegStore {
                dst1,
                src1,
                mem,
                src2,
                f2,
            } => pair!(
                Op::MovReg {
                    dst: dst1,
                    src: src1
                },
                f2,
                Op::Store { mem, src: src2 }
            ),
            Op::LoadMovReg {
                dst1,
                mem,
                dst2,
                src2,
                f2,
            } => pair!(
                Op::Load { dst: dst1, mem },
                f2,
                Op::MovReg {
                    dst: dst2,
                    src: src2
                }
            ),
            Op::StoreLoad {
                smem,
                src,
                dst,
                lmem,
                f2,
            } => pair!(
                Op::Store { mem: smem, src },
                f2,
                Op::Load { dst, mem: lmem }
            ),
            Op::LeaMovReg {
                dst1,
                mem,
                dst2,
                src2,
                f2,
            } => pair!(
                Op::Lea { dst: dst1, mem },
                f2,
                Op::MovReg {
                    dst: dst2,
                    src: src2
                }
            ),
            Op::CmpRegSetCc {
                a,
                b,
                cond,
                dst,
                f2,
            } => pair!(Op::CmpReg { a, b }, f2, Op::SetCc { cond, dst }),
            Op::PushPush { s1, s2, f2 } => {
                pair!(Op::Push { src: s1 }, f2, Op::Push { src: s2 })
            }
            Op::PopPop { d1, d2, f2 } => pair!(Op::Pop { dst: d1 }, f2, Op::Pop { dst: d2 }),
            // Effect-only quad entries (run streams only).
            Op::MovImmAluQuad { .. } | Op::AluImmQuad { .. } => {
                self.quad_effects(op);
                Ok(4)
            }
            Op::MovImmAluQuadPair { .. } | Op::AluImmQuadPair { .. } => {
                unreachable!("quad pair heads are handled by the run entry loop")
            }
            _ => self.exec_single(op, addr).map(|()| 1).map_err(|f| (f, 0)),
        }
    }

    /// The effect of one non-control instruction at `addr` — the one
    /// copy of the single-instruction semantics, which every fused pair
    /// and quad composes. No accounting happens here.
    #[inline(always)]
    fn exec_single(&mut self, op: &Op, addr: VAddr) -> Result<(), Fault> {
        match *op {
            Op::MovImm { dst, imm } => self.regs.set(dst, imm),
            Op::MovReg { dst, src } => {
                let v = self.regs.get(src);
                self.regs.set(dst, v);
            }
            Op::Load { dst, mem } => {
                let v = self.mem.read_u64(self.ea(&mem))?;
                self.regs.set(dst, v);
            }
            Op::Store { mem, src } => {
                let a = self.ea(&mem);
                let v = self.regs.get(src);
                self.mem.write_u64(a, v)?;
            }
            Op::StoreImm { mem, imm } => {
                let a = self.ea(&mem);
                self.mem.write_u64(a, imm as i64 as u64)?;
            }
            Op::Lea { dst, mem } => {
                let a = self.ea(&mem);
                self.regs.set(dst, a);
            }
            Op::Push { src } => {
                let v = self.regs.get(src);
                self.push_word(v)?;
            }
            Op::PushImm { imm } => self.push_word(imm)?,
            Op::Pop { dst } => {
                let v = self.pop_word()?;
                self.regs.set(dst, v);
            }
            Op::AluReg { op, dst, src } => {
                let r = alu(op, self.regs.get(dst), self.regs.get(src));
                self.regs.set(dst, r);
                self.regs.flags.set_result(r);
            }
            Op::AluImm { op, dst, imm } => {
                let r = alu(op, self.regs.get(dst), imm as i64 as u64);
                self.regs.set(dst, r);
                self.regs.flags.set_result(r);
            }
            Op::Div { dst, src } | Op::Rem { dst, src } => {
                let b = self.regs.get(src) as i64;
                if b == 0 {
                    return Err(Fault::DivideByZero { addr });
                }
                let a = self.regs.get(dst) as i64;
                let r = if matches!(op, Op::Div { .. }) {
                    a.wrapping_div(b)
                } else {
                    a.wrapping_rem(b)
                };
                self.regs.set(dst, r as u64);
            }
            Op::CmpReg { a, b } => {
                let (x, y) = (self.regs.get(a), self.regs.get(b));
                self.regs.flags.set_cmp(x, y);
            }
            Op::CmpImm { a, imm } => {
                let x = self.regs.get(a);
                self.regs.flags.set_cmp(x, imm as i64 as u64);
            }
            Op::Test { a } => {
                let x = self.regs.get(a);
                self.regs.flags.set_test(x, x);
            }
            Op::SetCc { cond, dst } => {
                let v = self.cond_holds(cond) as u64;
                self.regs.set(dst, v);
            }
            Op::LoadAbs { dst, addr: a } => {
                let v = self.mem.read_u64(a)?;
                self.regs.set(dst, v);
            }
            Op::VLoadAbs { dst, addr: a } => self.vload(dst, a, true)?,
            Op::VLoad { dst, mem, aligned } => self.vload(dst, self.ea(&mem), aligned)?,
            Op::VStore { mem, src, aligned } => {
                let a = self.ea(&mem);
                if aligned && !a.is_multiple_of(32) {
                    return Err(Fault::Misaligned { addr: a, align: 32 });
                }
                let buf = self.regs.get_ymm(src);
                self.mem.write(a, &buf)?;
                self.ymm_dirty = true;
            }
            Op::VZeroUpper => {
                self.regs.vzeroupper();
                self.ymm_dirty = false;
            }
            Op::Nop => {}
            _ => unreachable!("control or fused op in the single-effect path"),
        }
        Ok(())
    }

    /// 32-byte vector load into `dst` (`aligned`: `vmovdqa`, which
    /// faults on a misaligned address).
    #[inline(always)]
    fn vload(&mut self, dst: Ymm, a: VAddr, aligned: bool) -> Result<(), Fault> {
        if aligned && !a.is_multiple_of(32) {
            return Err(Fault::Misaligned { addr: a, align: 32 });
        }
        let mut buf = [0u8; 32];
        self.mem.read(a, &mut buf)?;
        self.regs.set_ymm(dst, buf);
        self.ymm_dirty = true;
        Ok(())
    }

    /// Charges the second half of a fused top-level pair exactly as its
    /// own dispatch would: budget check, hook, instruction count, base
    /// cost + icache at the second instruction's own address.
    #[inline(always)]
    fn charge_second<H: Hooks>(
        &mut self,
        h: &mut H,
        idx: u32,
        addr: VAddr,
        f2: F2,
    ) -> Result<(), Fault> {
        if self.stats.instructions >= self.cfg.insn_budget {
            return Err(Fault::BudgetExhausted);
        }
        h.dispatch(self, idx + 1);
        self.stats.instructions += 1;
        self.stats.cycles += f2.cost2 as u64 + self.icache.access(addr + f2.a2off as u64);
        Ok(())
    }

    #[inline]
    fn charge_avx_transition(&mut self) {
        if self.ymm_dirty {
            self.stats.cycles += self.cfg.machine.avx_transition_penalty;
            self.stats.avx_transitions += 1;
        }
    }

    fn do_native(&mut self, native: u16, probe_pc: VAddr) -> Result<(), Fault> {
        let kind = *self
            .prog
            .natives
            .get(native as usize)
            .ok_or(Fault::NativeError { native })?;
        match kind {
            NativeKind::Malloc => {
                let size = self.regs.get(Gpr::Rdi);
                let p = self.heap.malloc(&mut self.mem, size).unwrap_or(0);
                self.regs.set(Gpr::Rax, p);
            }
            NativeKind::Free => {
                let p = self.regs.get(Gpr::Rdi);
                self.heap.free(&mut self.mem, p)?;
            }
            NativeKind::Memalign => {
                let align = self.regs.get(Gpr::Rdi);
                let size = self.regs.get(Gpr::Rsi);
                let p = self.heap.memalign(&mut self.mem, align, size).unwrap_or(0);
                self.regs.set(Gpr::Rax, p);
            }
            NativeKind::Mprotect => {
                let addr = self.regs.get(Gpr::Rdi);
                let len = self.regs.get(Gpr::Rsi);
                let perms = Perms::from_prot(self.regs.get(Gpr::Rdx));
                let rc = if self.mem.protect(addr, len, perms).is_ok() {
                    0u64
                } else {
                    u64::MAX
                };
                self.regs.set(Gpr::Rax, rc);
            }
            NativeKind::PrintI64 => {
                let v = self.regs.get(Gpr::Rdi);
                self.output.push(v as i64);
            }
            NativeKind::PutChar => {
                let v = self.regs.get(Gpr::Rdi) & 0xff;
                self.output.push(v as i64);
            }
            NativeKind::StackProbe => {
                let rsp = self.regs.get(Gpr::Rsp);
                let len = (2 * crate::mem::PAGE_SIZE) as usize;
                let mut buf = vec![0u8; len];
                self.mem.peek(rsp, &mut buf);
                self.probes.push(StackSnapshot {
                    pc: probe_pc,
                    rsp,
                    bytes: buf,
                });
            }
        }
        Ok(())
    }

    // --- Attacker primitives (threat model of paper §3) ---------------

    /// Arbitrary-read primitive: permission-checked read of `len` bytes.
    ///
    /// A denied read is what the process would experience as a segfault;
    /// guard-page hits are additionally recorded as detections, which is
    /// the reactive component of R²C.
    pub fn attacker_read(&mut self, addr: VAddr, len: usize) -> Result<Vec<u8>, Fault> {
        let mut buf = vec![0u8; len];
        match self.mem.read(addr, &mut buf) {
            Ok(()) => Ok(buf),
            Err(f) => {
                self.note_fault(&f);
                Err(f)
            }
        }
    }

    /// Arbitrary-read of one 64-bit word.
    pub fn attacker_read_u64(&mut self, addr: VAddr) -> Result<u64, Fault> {
        let b = self.attacker_read(addr, 8)?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Arbitrary-write primitive (permission-checked).
    pub fn attacker_write(&mut self, addr: VAddr, bytes: &[u8]) -> Result<(), Fault> {
        match self.mem.write(addr, bytes) {
            Ok(()) => Ok(()),
            Err(f) => {
                self.note_fault(&f);
                Err(f)
            }
        }
    }

    /// Arbitrary-write of one 64-bit word.
    pub fn attacker_write_u64(&mut self, addr: VAddr, val: u64) -> Result<(), Fault> {
        self.attacker_write(addr, &val.to_le_bytes())
    }

    /// Leaks a window of the stack, as Malicious Thread Blocking allows
    /// (paper §2.3): returns `words` 64-bit values starting at `addr`.
    pub fn leak_stack(&mut self, addr: VAddr, words: usize) -> Result<Vec<u64>, Fault> {
        let bytes = self.attacker_read(addr, words * 8)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Control-flow hijack: transfers control to `target` (e.g. a gadget
    /// address or function entry) and runs until return/halt/fault. The
    /// return lands on the exit sentinel, modelling an attack payload
    /// that regains control afterwards.
    pub fn hijack(&mut self, target: VAddr) -> RunOutcome {
        self.call(target, &[])
    }

    /// Executes a full ROP chain: writes the gadget addresses to the
    /// stack (last entry is where control goes when the final gadget
    /// returns — the exit sentinel is appended automatically) and
    /// transfers control to the first gadget. Each gadget's terminating
    /// `ret` pops the next entry, exactly like a real chain.
    pub fn hijack_chain(&mut self, gadgets: &[VAddr]) -> RunOutcome {
        assert!(!gadgets.is_empty());
        if let Some(tr) = &mut self.tracer {
            tr.on_activation();
        }
        let mut rsp = self.regs.get(Gpr::Rsp) & !15;
        // Push sentinel first (bottom of chain), then the gadgets in
        // reverse so that gadgets[0] is on top.
        rsp -= 8;
        if let Err(f) = self.mem.write_u64(rsp, EXIT_SENTINEL) {
            return self.finish(ExitStatus::Faulted(f));
        }
        for &g in gadgets[1..].iter().rev() {
            rsp -= 8;
            if let Err(f) = self.mem.write_u64(rsp, g) {
                return self.finish(ExitStatus::Faulted(f));
            }
        }
        self.regs.set(Gpr::Rsp, rsp);
        match self.index_of(gadgets[0]) {
            Some(idx) => self.exec_from(idx),
            None => self.finish(ExitStatus::Faulted(Fault::InvalidJump {
                target: gadgets[0],
            })),
        }
    }

    /// Reads the current stack pointer.
    pub fn rsp(&self) -> VAddr {
        self.regs.get(Gpr::Rsp)
    }

    /// Address-space introspection for evaluation (ground truth, not an
    /// attacker capability): permissions at an address.
    pub fn perms_at(&self, addr: VAddr) -> Option<Perms> {
        self.mem.perms_at(addr)
    }

    /// Decodes the instruction at `addr` *if the attacker can read it*,
    /// modelling direct code disclosure for JIT-ROP. With execute-only
    /// text this fails with a protection fault.
    pub fn attacker_disassemble(&mut self, addr: VAddr) -> Result<Insn, Fault> {
        // Reading one byte is enough to trigger the permission check.
        self.attacker_read(addr, 1)?;
        match self.index_of(addr) {
            Some(i) => Ok(self.prog.insns[i as usize]),
            None => Err(Fault::InvalidJump { target: addr }),
        }
    }

    /// The YMM scratch register reserved for the AVX2 BTRA setup.
    pub fn btra_scratch_ymm() -> Ymm {
        Ymm(15)
    }
}

/// What the execution loop reports to an observer. The untraced
/// instantiation uses `()`, whose hooks are empty and compile away; a
/// traced VM lends the loop its [`Tracer`]. Hooks only read the VM —
/// they cannot change the execution they observe.
pub(crate) trait Hooks {
    /// Called before a dispatch is charged — and before the second half
    /// of a fused pair — with the index of the first original
    /// instruction it executes. The instructions it covered are exactly
    /// those the instruction counter advances by until the next call.
    #[inline(always)]
    fn dispatch(&mut self, _vm: &Vm, _idx: u32) {}
    /// Whether the `n`-instruction block run led by `idx` must go on one
    /// decoded op at a time instead of under one dispatch.
    #[inline(always)]
    fn split_run(&self, _vm: &Vm, _idx: u32, _n: u16) -> bool {
        false
    }
    /// A call at `idx` pushed its return address; `indirect` carries the
    /// resolved target of a `callind`.
    #[inline(always)]
    fn call(&mut self, _vm: &Vm, _idx: u32, _indirect: Option<VAddr>) {}
    /// A `ret` at `idx` popped its return address.
    #[inline(always)]
    fn ret(&mut self, _vm: &Vm, _idx: u32) {}
    /// A native call completed without faulting.
    #[inline(always)]
    fn native(&mut self, _vm: &Vm, _native: u16) {}
}

impl Hooks for () {}

#[inline]
fn alu(op: AluOp, a: u64, b: u64) -> u64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Imul => a.wrapping_mul(b),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => a.wrapping_shl(b as u32 & 63),
        AluOp::Shr => a.wrapping_shr(b as u32 & 63),
        AluOp::Sar => ((a as i64).wrapping_shr(b as u32 & 63)) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{SectionLayout, Symbol, SymbolKind};
    use crate::machine::MachineKind;
    use crate::mem::PAGE_SIZE;
    use crate::unwind::UnwindTable;

    /// Hand-assembles an image from instructions laid out contiguously.
    fn asm(insns: Vec<Insn>, natives: Vec<NativeKind>) -> Image {
        let text_base = 0x40_0000u64;
        let mut addrs = Vec::new();
        let mut a = text_base;
        for i in &insns {
            addrs.push(a);
            a += i.len();
        }
        let text_end = a.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        Image {
            insns,
            insn_addrs: addrs,
            layout: SectionLayout {
                text_base,
                text_end,
                data_base: 0x60_0000,
                data_end: 0x60_4000,
                heap_base: 0x10_0000_0000,
                heap_size: 16 * 1024 * 1024,
                stack_top: 0x7fff_ffff_f000,
                stack_size: 1024 * 1024,
            },
            entry: text_base,
            constructors: vec![],
            data_init: vec![],
            xom: true,
            symbols: vec![Symbol {
                name: "main".into(),
                addr: text_base,
                size: 0,
                kind: SymbolKind::Function,
            }],
            natives,
            unwind: UnwindTable::default(),
        }
    }

    fn vm(insns: Vec<Insn>) -> Vm {
        Vm::new(
            &asm(insns, vec![NativeKind::Malloc, NativeKind::PrintI64]),
            VmConfig::new(MachineKind::EpycRome.config()),
        )
    }

    #[test]
    fn mov_and_exit() {
        let mut v = vm(vec![
            Insn::MovImm {
                dst: Gpr::Rax,
                imm: 42,
            },
            Insn::Ret,
        ]);
        let out = v.run();
        assert_eq!(out.status, ExitStatus::Exited(42));
        assert_eq!(out.stats.instructions, 2);
    }

    #[test]
    fn arithmetic_loop() {
        // Sum 1..=10 via a loop: rax = acc, rcx = i.
        let base = 0x40_0000u64;
        let insns = vec![
            Insn::MovImm {
                dst: Gpr::Rax,
                imm: 0,
            }, // +0, len 5
            Insn::MovImm {
                dst: Gpr::Rcx,
                imm: 1,
            }, // +5, len 5
            Insn::AluReg {
                op: AluOp::Add,
                dst: Gpr::Rax,
                src: Gpr::Rcx,
            }, // +10, len 3
            Insn::AluImm {
                op: AluOp::Add,
                dst: Gpr::Rcx,
                imm: 1,
            }, // +13, len 4
            Insn::CmpImm {
                a: Gpr::Rcx,
                imm: 10,
            }, // +17, len 4
            Insn::Jcc {
                cond: Cond::Le,
                target: base + 10,
            }, // +21
            Insn::Ret,
        ];
        let mut v = vm(insns);
        assert_eq!(v.run().status, ExitStatus::Exited(55));
    }

    #[test]
    fn call_and_return() {
        let base = 0x40_0000u64;
        // main: call f (at base+10); ret. f: mov rax, 7; ret.
        let insns = vec![
            Insn::Call { target: base + 6 }, // len 5
            Insn::Ret,                       // +5
            Insn::MovImm {
                dst: Gpr::Rax,
                imm: 7,
            }, // +6  <- f
            Insn::Ret,
        ];
        let mut v = vm(insns);
        let out = v.run();
        assert_eq!(out.status, ExitStatus::Exited(7));
        assert_eq!(out.stats.calls, 1);
        assert_eq!(out.stats.rets, 2);
    }

    #[test]
    fn trap_faults_and_detects() {
        let mut v = vm(vec![Insn::Trap]);
        let out = v.run();
        assert!(matches!(
            out.status,
            ExitStatus::Faulted(Fault::BoobyTrap { .. })
        ));
        assert_eq!(v.detections().len(), 1);
    }

    #[test]
    fn invalid_jump_faults() {
        let mut v = vm(vec![
            Insn::MovImm {
                dst: Gpr::Rax,
                imm: 0xdead,
            },
            Insn::JmpInd { target: Gpr::Rax },
        ]);
        assert!(matches!(
            v.run().status,
            ExitStatus::Faulted(Fault::InvalidJump { target: 0xdead })
        ));
    }

    #[test]
    fn native_malloc_gives_heap_pointer() {
        let insns = vec![
            Insn::MovImm {
                dst: Gpr::Rdi,
                imm: 128,
            },
            Insn::CallNative { native: 0 },
            Insn::Ret,
        ];
        let mut v = vm(insns);
        let out = v.run();
        let ExitStatus::Exited(p) = out.status else {
            panic!()
        };
        assert!(p as u64 >= 0x10_0000_0000);
        assert_eq!(out.stats.native_calls, 1);
    }

    #[test]
    fn print_output_collected() {
        let insns = vec![
            Insn::MovImm {
                dst: Gpr::Rdi,
                imm: 99,
            },
            Insn::CallNative { native: 1 },
            Insn::Ret,
        ];
        let mut v = vm(insns);
        v.run();
        assert_eq!(v.output, vec![99]);
    }

    #[test]
    fn attacker_cannot_read_xom_text() {
        let mut v = vm(vec![Insn::Ret]);
        let err = v.attacker_read(0x40_0000, 8).unwrap_err();
        assert!(matches!(err, Fault::Protection { .. }));
        // XoM read denial is a crash but not a booby-trap detection.
        assert!(v.detections().is_empty());
    }

    #[test]
    fn attacker_disassemble_works_without_xom() {
        let mut img = asm(vec![Insn::Ret], vec![]);
        img.xom = false;
        let mut v = Vm::new(&img, VmConfig::new(MachineKind::EpycRome.config()));
        assert_eq!(v.attacker_disassemble(0x40_0000).unwrap(), Insn::Ret);
    }

    #[test]
    fn guard_page_hit_is_detected() {
        let mut v = vm(vec![Insn::Ret]);
        // Forge a guard page on the heap.
        v.mem.map(0x10_0000_0000, PAGE_SIZE, Perms::NONE);
        assert!(v.attacker_read_u64(0x10_0000_0100).is_err());
        assert_eq!(v.detections().len(), 1);
        assert!(matches!(v.detections()[0], Detection::GuardPage { .. }));
    }

    #[test]
    fn budget_exhaustion() {
        let base = 0x40_0000u64;
        let mut v = Vm::new(
            &asm(vec![Insn::Jmp { target: base }], vec![]),
            VmConfig {
                insn_budget: 1000,
                ..VmConfig::new(MachineKind::EpycRome.config())
            },
        );
        assert!(matches!(
            v.run().status,
            ExitStatus::Faulted(Fault::BudgetExhausted)
        ));
    }

    #[test]
    fn vector_roundtrip_through_stack() {
        let insns = vec![
            // Write 32 bytes of pattern into ymm1 via memory.
            Insn::MovImm {
                dst: Gpr::Rax,
                imm: 0x0102030405060708,
            },
            Insn::Push { src: Gpr::Rax },
            Insn::Push { src: Gpr::Rax },
            Insn::Push { src: Gpr::Rax },
            Insn::Push { src: Gpr::Rax },
            Insn::VLoad {
                dst: Ymm(1),
                mem: MemRef::base(Gpr::Rsp),
                aligned: false,
            },
            Insn::VStore {
                mem: MemRef::base_disp(Gpr::Rsp, -64),
                src: Ymm(1),
                aligned: false,
            },
            Insn::Load {
                dst: Gpr::Rax,
                mem: MemRef::base_disp(Gpr::Rsp, -64),
            },
            Insn::AluImm {
                op: AluOp::Add,
                dst: Gpr::Rsp,
                imm: 32,
            },
            Insn::Ret,
        ];
        let mut v = vm(insns);
        assert_eq!(v.run().status, ExitStatus::Exited(0x0102030405060708));
    }

    #[test]
    fn vmovdqa_misalignment_faults() {
        let insns = vec![
            // rsp is 16-aligned at entry minus 8; rsp+4 is misaligned.
            Insn::VLoad {
                dst: Ymm(0),
                mem: MemRef::base_disp(Gpr::Rsp, 4),
                aligned: true,
            },
            Insn::Ret,
        ];
        let mut v = vm(insns);
        assert!(matches!(
            v.run().status,
            ExitStatus::Faulted(Fault::Misaligned { .. })
        ));
    }

    #[test]
    fn avx_transition_penalty_without_vzeroupper() {
        let base = 0x40_0000u64;
        let f = |with_vzu: bool| {
            let mut insns = vec![Insn::VLoad {
                dst: Ymm(0),
                mem: MemRef::base_disp(Gpr::Rsp, -32),
                aligned: false,
            }];
            if with_vzu {
                insns.push(Insn::VZeroUpper);
            }
            insns.push(Insn::Ret);
            let mut v = Vm::new(
                &asm(insns, vec![]),
                VmConfig::new(MachineKind::EpycRome.config()),
            );
            let _ = base;
            let out = v.run();
            (out.stats.avx_transitions, out.stats.cycles)
        };
        let (trans_no, _) = f(false);
        let (trans_yes, _) = f(true);
        assert_eq!(trans_no, 1);
        assert_eq!(trans_yes, 0);
    }

    #[test]
    fn division_by_zero_faults() {
        let insns = vec![
            Insn::MovImm {
                dst: Gpr::Rax,
                imm: 10,
            },
            Insn::MovImm {
                dst: Gpr::Rcx,
                imm: 0,
            },
            Insn::Div {
                dst: Gpr::Rax,
                src: Gpr::Rcx,
            },
            Insn::Ret,
        ];
        let mut v = vm(insns);
        assert!(matches!(
            v.run().status,
            ExitStatus::Faulted(Fault::DivideByZero { .. })
        ));
    }

    #[test]
    fn stack_overflow_detected() {
        let base = 0x40_0000u64;
        // Infinite recursion.
        let insns = vec![Insn::Call { target: base }];
        let mut v = vm(insns);
        assert!(matches!(
            v.run().status,
            ExitStatus::Faulted(Fault::StackOverflow { .. })
        ));
    }

    #[test]
    fn div_and_rem_semantics() {
        let insns = vec![
            Insn::MovImm {
                dst: Gpr::Rax,
                imm: (-17i64) as u64,
            },
            Insn::MovImm {
                dst: Gpr::Rcx,
                imm: 5,
            },
            Insn::Rem {
                dst: Gpr::Rax,
                src: Gpr::Rcx,
            },
            Insn::Ret,
        ];
        let mut v = vm(insns);
        assert_eq!(v.run().status, ExitStatus::Exited(-2));
    }

    #[test]
    fn reset_to_image_matches_fresh_vm() {
        let insns = vec![
            Insn::MovImm {
                dst: Gpr::Rax,
                imm: 7,
            },
            Insn::Ret,
        ];
        let image = asm(insns, vec![NativeKind::Malloc, NativeKind::PrintI64]);
        let cfg = VmConfig::new(MachineKind::EpycRome.config());
        let mut fresh = Vm::new(&image, cfg);
        let fresh_out = fresh.run();

        let mut v = Vm::new(&image, cfg);
        assert_eq!(v.run().status, ExitStatus::Exited(7));
        // Dirty everything a restart must not leak: data writes, faults
        // (an invalid hijack), output, probe snapshots.
        v.mem.poke_u64(0x60_0008, 0xDEAD_BEEF);
        assert!(matches!(
            v.call(0x1234, &[]).status,
            ExitStatus::Faulted(Fault::InvalidJump { .. })
        ));
        v.output.push(99);

        v.reset_to_image();
        assert_eq!(v.mem.peek_u64(0x60_0008), 0);
        assert!(v.detections().is_empty());
        assert!(v.output.is_empty());
        assert!(v.probes.is_empty());
        assert!(!v.paused_at_probe());
        assert_eq!(v.stats().instructions, 0);
        assert_eq!(v.stats().cycles, 0);
        assert_eq!(v.heap.in_use(), 0);
        assert_eq!(v.heap.alloc_count, 0);
        let out = v.run();
        assert_eq!(out.status, fresh_out.status);
        assert_eq!(out.stats, fresh_out.stats);
    }

    #[test]
    fn reset_to_image_restores_unmapped_and_reprotected_pages() {
        let image = asm(vec![Insn::Ret], vec![NativeKind::Malloc]);
        let cfg = VmConfig::new(MachineKind::EpycRome.config());
        let mut v = Vm::new(&image, cfg);
        // Unmap a data page and revoke the stack's write bit; a restart
        // must undo both or the next request faults spuriously.
        v.mem.unmap(0x60_0000, PAGE_SIZE);
        let stack_page = image.layout.stack_top - PAGE_SIZE;
        v.mem.protect(stack_page, PAGE_SIZE, Perms::R).unwrap();
        assert_eq!(v.mem.perms_at(0x60_0000), None);
        v.reset_to_image();
        assert_eq!(v.mem.perms_at(0x60_0000), Some(Perms::RW));
        assert_eq!(v.mem.perms_at(stack_page), Some(Perms::RW));
        assert_eq!(v.run().status, ExitStatus::Exited(0));
    }

    #[test]
    fn fused_and_unfused_vms_share_nothing_but_agree() {
        // Same image, fusion on vs off: different decoded programs,
        // identical observable execution.
        let base = 0x40_0000u64;
        let insns = vec![
            Insn::MovImm {
                dst: Gpr::Rax,
                imm: 0,
            },
            Insn::MovImm {
                dst: Gpr::Rcx,
                imm: 1,
            },
            Insn::AluReg {
                op: AluOp::Add,
                dst: Gpr::Rax,
                src: Gpr::Rcx,
            },
            Insn::AluImm {
                op: AluOp::Add,
                dst: Gpr::Rcx,
                imm: 1,
            },
            Insn::CmpImm {
                a: Gpr::Rcx,
                imm: 100,
            },
            Insn::Jcc {
                cond: Cond::Le,
                target: base + 10,
            },
            Insn::Ret,
        ];
        let image = asm(insns, vec![]);
        let cfg = VmConfig::new(MachineKind::EpycRome.config());
        let mut fused = Vm::new(
            &image,
            VmConfig {
                no_fuse: false,
                ..cfg
            },
        );
        let mut unfused = Vm::new(
            &image,
            VmConfig {
                no_fuse: true,
                ..cfg
            },
        );
        assert!(fused.fusion_enabled());
        assert!(!unfused.fusion_enabled());
        assert_ne!(fused.decoded_program_id(), unfused.decoded_program_id());
        let a = fused.run();
        let b = unfused.run();
        assert_eq!(a.status, b.status);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn decode_is_shared_across_vms_on_same_image() {
        let image = asm(vec![Insn::Ret], vec![]);
        let cfg = VmConfig {
            no_fuse: false,
            ..VmConfig::new(MachineKind::EpycRome.config())
        };
        let a = Vm::new(&image, cfg);
        let b = Vm::new(&image, cfg);
        assert_eq!(a.decoded_program_id(), b.decoded_program_id());
    }
}
