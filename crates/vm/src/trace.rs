//! Execution tracing: per-function cycle attribution, heap telemetry
//! and a bounded event trace.
//!
//! The tracer is the VM half of the `r2c-trace` observability layer. It
//! answers "where did the cycles of this run go, and what did the heap
//! do while they went there" — per function, with flamegraph-ready
//! folded stacks — without perturbing the run:
//!
//! * **Zero-overhead-when-off contract.** A [`Vm`](crate::Vm) without a
//!   tracer runs the execution loop's no-op hook instantiation, whose
//!   hooks compile away. With a tracer attached, the same loop runs
//!   with the tracer as its hooks; the tracer *observes* the cost
//!   model — it never feeds back into it. Cycle counts, instruction
//!   counts, icache behaviour, heap layout and program output are
//!   bit-identical between traced and untraced runs; the profiler smoke
//!   in CI asserts this on every machine model.
//! * **Attribution is exact, not sampled.** The engine calls
//!   [`Tracer::step`] once per dispatch (each half of a fused pair
//!   counting as one) with the instruction, cycle and icache-miss
//!   counters *before* the dispatch is charged; the delta since the
//!   previous step is the full cost of the previous dispatch (base
//!   costs, icache misses, taken-branch extra, AVX transition penalty —
//!   whatever the cost model added), attributed to the function that
//!   executed it. No dispatch straddles a function start: the engine
//!   splits a block run that would. Function identity comes from the
//!   image's symbol table; a shadow call stack maintained from the
//!   interpreter's own call/ret stream keys the folded-stack map.
//! * **Bounded memory.** The event ring keeps the newest
//!   [`TraceConfig::event_capacity`] events (dropping the oldest, and
//!   counting drops); the heap timeline adaptively halves its sampling
//!   rate when it reaches [`TraceConfig::heap_timeline_capacity`], so
//!   arbitrarily long runs cannot grow the tracer without bound.
//! * **Capture mode is lossless.** With [`TraceConfig::capture`] set,
//!   the tracer is the *record* half of the record-reduce-replay
//!   pipeline (`r2c-replay`): the event ring grows instead of evicting
//!   (a silently thinned trace cannot be replayed), and a
//!   [`CaptureLog`] additionally records every environment-boundary
//!   event a replay needs — extern (native) calls with their argument
//!   registers and results, resolved indirect-call targets, and
//!   call/return crossings of caller-declared boundary functions
//!   (`no_instrument` spans).

use std::collections::HashMap;
use std::collections::VecDeque;

use crate::census::PairCensus;
use crate::exec::{Hooks, Vm};
use crate::fault::Fault;
use crate::image::{Image, NativeKind, SymbolKind};
use crate::mem::Perms;
use crate::regs::Gpr;
use crate::stats::ExecStats;
use crate::VAddr;

/// Tracer configuration.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Capacity of the bounded event ring; the newest events win and
    /// evicted ones are counted in [`ExecProfile::dropped_events`].
    ///
    /// Ignored in capture mode: a replayable trace must be complete, so
    /// [`TraceConfig::capture`] makes the ring grow without bound and
    /// guarantees `dropped_events == 0`.
    pub event_capacity: usize,
    /// Maximum retained heap-timeline samples. When full, every other
    /// sample is dropped and the sampling stride doubles.
    pub heap_timeline_capacity: usize,
    /// Record mode for `r2c-replay`: keep *every* event (the ring grows
    /// instead of evicting) and additionally log environment-boundary
    /// events into a [`CaptureLog`].
    pub capture: bool,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            event_capacity: 1024,
            heap_timeline_capacity: 2048,
            capture: false,
        }
    }
}

/// One environment-boundary event recorded in capture mode: exactly the
/// information a standalone replay needs to stub the environment with
/// recorded answers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundaryEvent {
    /// A native (extern) call completed. `args` are the System V
    /// argument registers the native reads (`rdi`, `rsi`, `rdx`; unused
    /// ones carry whatever the register held) and `ret` is `rax` after
    /// the call — the recorded answer a replay stub serves back.
    Extern {
        /// Which native ran.
        kind: NativeKind,
        /// `[rdi, rsi, rdx]` at the call.
        args: [u64; 3],
        /// `rax` after the call.
        ret: u64,
    },
    /// An indirect call at `at` resolved to `target`.
    Indirect {
        /// Address of the `callind` instruction.
        at: VAddr,
        /// The runtime-resolved callee address.
        target: VAddr,
    },
    /// A direct or indirect call crossed into a declared boundary
    /// function (a `no_instrument` span — code the diversifier leaves
    /// alone, the moral equivalent of an uninstrumented library).
    BoundaryCall {
        /// Address of the call instruction.
        at: VAddr,
        /// Entry address of the boundary function.
        target: VAddr,
    },
    /// A `ret` executed inside a declared boundary function.
    BoundaryRet {
        /// Address of the `ret` instruction.
        at: VAddr,
    },
}

/// The environment-boundary log a capture-mode run accumulates
/// ([`TraceConfig::capture`]); consumed by `r2c-replay` to build its
/// versioned on-disk trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CaptureLog {
    /// Boundary events in execution order.
    pub boundary: Vec<BoundaryEvent>,
}

/// One entry of the bounded event trace.
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum TraceEvent {
    /// A `call`/`callind` executed at `at`, targeting `target`.
    Call { at: VAddr, target: VAddr },
    /// A `ret` executed at `at`.
    Ret { at: VAddr },
    /// A heap allocation returned `ptr` (0 on exhaustion).
    Alloc { ptr: VAddr, size: u64 },
    /// A heap free of `ptr`.
    Free { ptr: VAddr },
    /// A guest `mprotect` changed page permissions.
    Protect { addr: VAddr, len: u64, perms: Perms },
    /// The run ended with a fault (rendered via its `Display`).
    Fault { desc: String },
}

/// One heap-telemetry sample, taken at allocator activity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeapSample {
    /// Dynamic instruction count at the sample.
    pub instructions: u64,
    /// Bytes live in the allocator.
    pub live_bytes: u64,
    /// Pages resident in the whole address space.
    pub resident_pages: u64,
}

/// Heap telemetry accumulated over a traced run.
#[derive(Clone, Debug, Default)]
pub struct HeapTelemetry {
    /// Successful allocations observed (malloc + memalign).
    pub allocs: u64,
    /// Frees observed.
    pub frees: u64,
    /// High-water mark of live heap bytes at allocator events.
    pub peak_live_bytes: u64,
    /// High-water mark of resident pages at allocator events.
    pub peak_resident_pages: u64,
    /// Live heap bytes when the profile was taken.
    pub end_live_bytes: u64,
    /// Resident pages when the profile was taken.
    pub end_resident_pages: u64,
    /// Pages the heap unmapped after quarantine (cumulative).
    pub released_pages: u64,
    /// Pages sitting in the no-access quarantine at profile time.
    pub quarantined_pages: u64,
    /// High-water timeline (possibly thinned — see [`TraceConfig`]).
    pub timeline: Vec<HeapSample>,
}

/// Per-function attribution row.
#[derive(Clone, Debug)]
pub struct FuncProfile {
    /// Function (or booby-trap) symbol name; `"?"` for addresses
    /// outside any known function span.
    pub name: String,
    /// Deci-cycles attributed to instructions of this function.
    pub self_cycles: u64,
    /// Instructions executed inside this function.
    pub instructions: u64,
    /// Icache misses charged while executing this function.
    pub icache_misses: u64,
    /// Calls issued from this function.
    pub calls: u64,
}

/// Snapshot of everything a traced run learned.
#[derive(Clone, Debug)]
pub struct ExecProfile {
    /// The run's execution statistics (identical to the untraced run).
    pub totals: ExecStats,
    /// Per-function rows, sorted by descending self cycles.
    pub funcs: Vec<FuncProfile>,
    /// Folded call stacks (`"main;f;g"`) → deci-cycles, sorted by
    /// descending cycles. One line each in [`ExecProfile::folded_stacks`].
    pub folded: Vec<(String, u64)>,
    /// Heap telemetry.
    pub heap: HeapTelemetry,
    /// Newest events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events evicted from the ring.
    pub dropped_events: u64,
}

impl ExecProfile {
    /// Renders the folded-stack map in the `stackcollapse` format
    /// consumed by `flamegraph.pl` and compatible viewers: one
    /// `frame;frame;frame count` line per stack.
    pub fn folded_stacks(&self) -> String {
        let mut out = String::new();
        for (stack, cycles) in &self.folded {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&cycles.to_string());
            out.push('\n');
        }
        out
    }
}

/// Index of the pseudo-function covering addresses outside every known
/// function span.
const UNKNOWN: usize = usize::MAX;

#[derive(Clone, Copy, PartialEq, Eq)]
enum PendingStack {
    None,
    Push,
    Pop,
}

/// The live tracer state attached to a [`Vm`](crate::Vm).
///
/// All hooks are called *by* the interpreter and only ever read VM
/// state — the tracer cannot change the execution it observes.
pub struct Tracer {
    cfg: TraceConfig,
    /// Function span starts, sorted; span `i` covers
    /// `[starts[i], starts[i+1])` (the last one ends at `text_end`).
    /// Padding between functions is attributed to the preceding one.
    starts: Vec<VAddr>,
    names: Vec<String>,
    text_end: VAddr,
    // --- attribution state -------------------------------------------
    cur: usize,
    /// First instruction of the dispatch being attributed (the census
    /// reads the instructions it covered from there).
    cur_addr: VAddr,
    last_insns: u64,
    last_cycles: u64,
    last_misses: u64,
    /// Deci-cycles attributed to the current folded stack but not yet
    /// flushed into `folded` (flushed on any stack/function change).
    pending_fold: u64,
    pending_stack: PendingStack,
    stack: Vec<usize>,
    folded: HashMap<String, u64>,
    // Per-function accumulators, parallel to `starts`, plus one trailing
    // slot for UNKNOWN.
    self_cycles: Vec<u64>,
    insns: Vec<u64>,
    misses: Vec<u64>,
    calls: Vec<u64>,
    // --- heap telemetry ----------------------------------------------
    allocs: u64,
    frees: u64,
    peak_live: u64,
    peak_resident: u64,
    timeline: Vec<HeapSample>,
    timeline_stride: u64,
    heap_events: u64,
    // --- event ring --------------------------------------------------
    events: VecDeque<TraceEvent>,
    dropped_events: u64,
    // --- capture mode ------------------------------------------------
    capture: Option<CaptureLog>,
    /// Sorted `(start, end)` spans of declared boundary functions
    /// (capture mode only; empty otherwise).
    boundary_spans: Vec<(VAddr, VAddr)>,
    // --- dynamic-pair census -----------------------------------------
    census: Option<Box<PairCensus>>,
}

impl Tracer {
    /// Builds a tracer for `image`, deriving function spans from its
    /// symbol table (functions and booby traps).
    pub fn new(image: &Image, cfg: TraceConfig) -> Tracer {
        let mut funcs: Vec<(VAddr, String)> = image
            .symbols
            .iter()
            .filter(|s| matches!(s.kind, SymbolKind::Function | SymbolKind::BoobyTrap))
            .map(|s| (s.addr, s.name.clone()))
            .collect();
        funcs.sort_unstable_by_key(|&(a, _)| a);
        funcs.dedup_by_key(|&mut (a, _)| a);
        let (starts, names): (Vec<_>, Vec<_>) = funcs.into_iter().unzip();
        let slots = starts.len() + 1;
        Tracer {
            cfg,
            starts,
            names,
            text_end: image.layout.text_end,
            cur: UNKNOWN,
            cur_addr: 0,
            last_insns: 0,
            last_cycles: 0,
            last_misses: 0,
            pending_fold: 0,
            pending_stack: PendingStack::None,
            stack: Vec::with_capacity(64),
            folded: HashMap::new(),
            self_cycles: vec![0; slots],
            insns: vec![0; slots],
            misses: vec![0; slots],
            calls: vec![0; slots],
            allocs: 0,
            frees: 0,
            peak_live: 0,
            peak_resident: 0,
            timeline: Vec::new(),
            timeline_stride: 1,
            heap_events: 0,
            events: VecDeque::new(),
            dropped_events: 0,
            capture: if cfg.capture {
                Some(CaptureLog::default())
            } else {
                None
            },
            boundary_spans: Vec::new(),
            census: None,
        }
    }

    /// Declares the boundary-function spans capture mode reports
    /// call/return crossings for (sorted by start address). `r2c-replay`
    /// derives these from the module's `no_instrument` functions and the
    /// image symbol table. No effect outside capture mode.
    pub fn set_capture_boundaries(&mut self, mut spans: Vec<(VAddr, VAddr)>) {
        spans.sort_unstable_by_key(|&(s, _)| s);
        self.boundary_spans = spans;
    }

    /// The capture-mode boundary log, if capture is on.
    pub fn capture_log(&self) -> Option<&CaptureLog> {
        self.capture.as_ref()
    }

    /// Attaches a dynamic-pair census (DESIGN.md §11/§14) counting
    /// executed fall-through-adjacent instruction-class pairs against
    /// the fusion catalogue. The census observes [`Tracer::step`], so it
    /// shares the tracer's exactness and zero-feedback properties.
    pub fn enable_pair_census(&mut self, image: &Image) {
        self.census = Some(Box::new(PairCensus::new(image)));
    }

    /// The attached dynamic-pair census, if any.
    pub fn pair_census(&self) -> Option<&PairCensus> {
        self.census.as_deref()
    }

    /// True when a boundary span contains `addr`.
    fn in_boundary(&self, addr: VAddr) -> bool {
        match self.boundary_spans.partition_point(|&(s, _)| s <= addr) {
            0 => false,
            i => addr < self.boundary_spans[i - 1].1,
        }
    }

    fn span_of(&self, addr: VAddr) -> usize {
        if addr >= self.text_end {
            return UNKNOWN;
        }
        match self.starts.partition_point(|&s| s <= addr) {
            0 => UNKNOWN,
            i => i - 1,
        }
    }

    fn slot(&self, idx: usize) -> usize {
        if idx == UNKNOWN {
            self.names.len()
        } else {
            idx
        }
    }

    fn name(&self, idx: usize) -> &str {
        if idx == UNKNOWN {
            "?"
        } else {
            &self.names[idx]
        }
    }

    fn fold_key(&self) -> String {
        let mut key = String::new();
        for &f in &self.stack {
            key.push_str(self.name(f));
            key.push(';');
        }
        key.push_str(self.name(self.cur));
        key
    }

    fn flush_fold(&mut self) {
        if self.pending_fold > 0 {
            let key = self.fold_key();
            *self.folded.entry(key).or_insert(0) += self.pending_fold;
            self.pending_fold = 0;
        }
    }

    /// Per-dispatch hook: called with the address of the first
    /// instruction the dispatch is about to execute and the counters
    /// *before* it is charged, so the deltas since the last call are the
    /// instructions and full cost of the previous dispatch.
    #[inline]
    pub fn step(&mut self, addr: VAddr, instructions: u64, cycles: u64, icache_misses: u64) {
        self.settle(instructions, cycles, icache_misses);
        match self.pending_stack {
            PendingStack::Push => {
                self.flush_fold();
                self.stack.push(self.cur);
            }
            PendingStack::Pop => {
                self.flush_fold();
                self.stack.pop();
            }
            PendingStack::None => {}
        }
        self.pending_stack = PendingStack::None;
        let f = self.span_of(addr);
        if f != self.cur {
            self.flush_fold();
            self.cur = f;
        }
        self.cur_addr = addr;
    }

    /// Attributes everything the counters advanced by since the last
    /// call — one dispatch, or the tail of a run — to the current
    /// function, and feeds its instructions to the census.
    fn settle(&mut self, instructions: u64, cycles: u64, icache_misses: u64) {
        let di = instructions - self.last_insns;
        let dc = cycles - self.last_cycles;
        let dm = icache_misses - self.last_misses;
        self.last_insns = instructions;
        self.last_cycles = cycles;
        self.last_misses = icache_misses;
        if let Some(c) = &mut self.census {
            c.note(self.cur_addr, di);
        }
        let slot = self.slot(self.cur);
        self.insns[slot] += di;
        self.self_cycles[slot] += dc;
        self.misses[slot] += dm;
        self.pending_fold += dc;
    }

    /// Hook for an executed `call`/`callind` at `at` targeting `target`.
    /// The shadow-stack push takes effect at the next [`Tracer::step`]
    /// (the callee's first instruction), after the call instruction's
    /// own cost lands on the caller.
    pub fn on_call(&mut self, at: VAddr, target: VAddr) {
        let slot = self.slot(self.cur);
        self.calls[slot] += 1;
        self.pending_stack = PendingStack::Push;
        self.record_event(TraceEvent::Call { at, target });
        if self.capture.is_some()
            && self
                .boundary_spans
                .binary_search_by_key(&target, |&(s, _)| s)
                .is_ok()
        {
            if let Some(c) = &mut self.capture {
                c.boundary.push(BoundaryEvent::BoundaryCall { at, target });
            }
        }
    }

    /// Hook for an executed `ret` at `at`.
    pub fn on_ret(&mut self, at: VAddr) {
        self.pending_stack = PendingStack::Pop;
        self.record_event(TraceEvent::Ret { at });
        if self.capture.is_some() && self.in_boundary(at) {
            if let Some(c) = &mut self.capture {
                c.boundary.push(BoundaryEvent::BoundaryRet { at });
            }
        }
    }

    /// Capture hook for a resolved indirect call (called alongside
    /// [`Tracer::on_call`] for `callind`). No-op outside capture mode.
    pub fn on_indirect(&mut self, at: VAddr, target: VAddr) {
        if let Some(c) = &mut self.capture {
            c.boundary.push(BoundaryEvent::Indirect { at, target });
        }
    }

    /// Capture hook for a completed native (extern) call: the argument
    /// registers it could have read and its `rax` answer. No-op outside
    /// capture mode.
    pub fn on_extern(&mut self, kind: NativeKind, args: [u64; 3], ret: u64) {
        if let Some(c) = &mut self.capture {
            c.boundary.push(BoundaryEvent::Extern { kind, args, ret });
        }
    }

    /// Hook for the start of an activation (entry call, constructor,
    /// attacker-driven call): resets the shadow stack.
    pub fn on_activation(&mut self) {
        self.flush_fold();
        self.stack.clear();
        self.pending_stack = PendingStack::None;
        self.cur = UNKNOWN;
    }

    /// Attributes all outstanding cost (called when a run finishes, so
    /// the final dispatch's cost is not lost).
    pub fn sync(&mut self, instructions: u64, cycles: u64, icache_misses: u64) {
        self.settle(instructions, cycles, icache_misses);
        self.flush_fold();
    }

    /// Hook for a successful allocation (`ptr` is 0 on exhaustion).
    pub fn on_alloc(&mut self, ptr: VAddr, size: u64, live: u64, resident: u64, insns: u64) {
        if ptr != 0 {
            self.allocs += 1;
        }
        self.record_event(TraceEvent::Alloc { ptr, size });
        self.heap_sample(live, resident, insns);
    }

    /// Hook for a free.
    pub fn on_free(&mut self, ptr: VAddr, live: u64, resident: u64, insns: u64) {
        self.frees += 1;
        self.record_event(TraceEvent::Free { ptr });
        self.heap_sample(live, resident, insns);
    }

    /// Hook for a guest `mprotect`.
    pub fn on_protect(&mut self, addr: VAddr, len: u64, perms: Perms) {
        self.record_event(TraceEvent::Protect { addr, len, perms });
    }

    /// Hook for a fault ending the run.
    pub fn on_fault(&mut self, f: &Fault) {
        self.record_event(TraceEvent::Fault {
            desc: f.to_string(),
        });
    }

    fn heap_sample(&mut self, live: u64, resident: u64, insns: u64) {
        self.peak_live = self.peak_live.max(live);
        self.peak_resident = self.peak_resident.max(resident);
        self.heap_events += 1;
        if !self.heap_events.is_multiple_of(self.timeline_stride) {
            return;
        }
        self.timeline.push(HeapSample {
            instructions: insns,
            live_bytes: live,
            resident_pages: resident,
        });
        if self.timeline.len() >= self.cfg.heap_timeline_capacity.max(2) {
            // Thin: keep every other sample and sample half as often.
            let mut i = 0;
            self.timeline.retain(|_| {
                i += 1;
                i % 2 == 1
            });
            self.timeline_stride *= 2;
        }
    }

    fn record_event(&mut self, e: TraceEvent) {
        // Capture mode is lossless: the ring grows past `event_capacity`
        // instead of silently evicting (a thinned trace cannot be
        // replayed), and `dropped_events` provably stays 0 — the replay
        // recorder fails loudly on any nonzero count.
        if self.capture.is_some() {
            self.events.push_back(e);
            return;
        }
        if self.cfg.event_capacity == 0 {
            self.dropped_events += 1;
            return;
        }
        if self.events.len() >= self.cfg.event_capacity {
            self.events.pop_front();
            self.dropped_events += 1;
        }
        self.events.push_back(e);
    }

    /// Builds the profile snapshot. `totals` are the run's statistics
    /// (taken from the VM, identical to an untraced run).
    pub fn profile(&self, totals: ExecStats) -> ExecProfile {
        let mut funcs: Vec<FuncProfile> = Vec::new();
        for slot in 0..self.self_cycles.len() {
            if self.self_cycles[slot] == 0 && self.insns[slot] == 0 && self.calls[slot] == 0 {
                continue;
            }
            let name = if slot == self.names.len() {
                "?".to_string()
            } else {
                self.names[slot].clone()
            };
            funcs.push(FuncProfile {
                name,
                self_cycles: self.self_cycles[slot],
                instructions: self.insns[slot],
                icache_misses: self.misses[slot],
                calls: self.calls[slot],
            });
        }
        funcs.sort_by(|a, b| b.self_cycles.cmp(&a.self_cycles).then(a.name.cmp(&b.name)));
        let mut folded: Vec<(String, u64)> =
            self.folded.iter().map(|(k, &v)| (k.clone(), v)).collect();
        // Any cost not yet flushed belongs to the current stack.
        if self.pending_fold > 0 {
            let key = self.fold_key();
            match folded.iter_mut().find(|(k, _)| *k == key) {
                Some(row) => row.1 += self.pending_fold,
                None => folded.push((key, self.pending_fold)),
            }
        }
        folded.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ExecProfile {
            totals,
            funcs,
            folded,
            heap: HeapTelemetry {
                allocs: self.allocs,
                frees: self.frees,
                peak_live_bytes: self.peak_live,
                peak_resident_pages: self.peak_resident,
                end_live_bytes: 0,
                end_resident_pages: 0,
                released_pages: 0,
                quarantined_pages: 0,
                timeline: self.timeline.clone(),
            },
            events: self.events.iter().cloned().collect(),
            dropped_events: self.dropped_events,
        }
    }
}

/// The tracer as the execution loop's observation hooks: a traced VM
/// lends it to [`Vm`]'s loop for the duration of a run.
impl Hooks for Tracer {
    fn dispatch(&mut self, vm: &Vm, idx: u32) {
        self.step(
            vm.prog.insn_addrs[idx as usize],
            vm.stats.instructions,
            vm.stats.cycles,
            vm.icache.stats().1,
        );
    }

    /// Per-function attribution is exact only if no dispatch straddles
    /// a function start, so such a run goes op by op.
    fn split_run(&self, vm: &Vm, idx: u32, n: u16) -> bool {
        let addrs = &vm.prog.insn_addrs;
        self.span_of(addrs[idx as usize]) != self.span_of(addrs[idx as usize + n as usize - 1])
    }

    fn call(&mut self, vm: &Vm, idx: u32, indirect: Option<VAddr>) {
        let at = vm.prog.insn_addrs[idx as usize];
        match indirect {
            Some(target) => {
                self.on_call(at, target);
                self.on_indirect(at, target);
            }
            None => {
                let target = vm.prog.insns[idx as usize]
                    .branch_target()
                    .expect("direct call has a target");
                self.on_call(at, target);
            }
        }
    }

    fn ret(&mut self, vm: &Vm, idx: u32) {
        self.on_ret(vm.prog.insn_addrs[idx as usize]);
    }

    /// Heap telemetry, protect events and (in capture mode) the
    /// native's argument registers and answer.
    fn native(&mut self, vm: &Vm, native: u16) {
        let Some(&kind) = vm.prog.natives.get(native as usize) else {
            return;
        };
        let live = vm.heap.in_use();
        let resident = vm.mem.resident_pages() as u64;
        let insns = vm.stats.instructions;
        let r = |g| vm.regs.get(g);
        let (rax, rdi, rsi, rdx) = (r(Gpr::Rax), r(Gpr::Rdi), r(Gpr::Rsi), r(Gpr::Rdx));
        self.on_extern(kind, [rdi, rsi, rdx], rax);
        match kind {
            NativeKind::Malloc => self.on_alloc(rax, rdi, live, resident, insns),
            NativeKind::Memalign => self.on_alloc(rax, rsi, live, resident, insns),
            NativeKind::Free => self.on_free(rdi, live, resident, insns),
            NativeKind::Mprotect => self.on_protect(rdi, rsi, Perms::from_prot(rdx)),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{Image, SectionLayout};
    use crate::insn::Insn;

    fn tiny_image() -> Image {
        Image {
            insns: vec![Insn::Ret],
            insn_addrs: vec![0x40_0000],
            layout: SectionLayout {
                text_base: 0x40_0000,
                text_end: 0x40_1000,
                data_base: 0x60_0000,
                data_end: 0x60_1000,
                heap_base: 0x10_0000_0000,
                heap_size: 1 << 20,
                stack_top: 0x7fff_ffff_f000,
                stack_size: 1 << 20,
            },
            entry: 0x40_0000,
            constructors: vec![],
            data_init: vec![],
            xom: true,
            symbols: vec![],
            natives: vec![],
            unwind: Default::default(),
        }
    }

    #[test]
    fn event_ring_is_bounded() {
        let mut t = Tracer::new(
            &tiny_image(),
            TraceConfig {
                event_capacity: 4,
                ..Default::default()
            },
        );
        for i in 0..10 {
            t.on_ret(i);
        }
        let p = t.profile(ExecStats::default());
        assert_eq!(p.events.len(), 4);
        assert_eq!(p.dropped_events, 6);
        assert_eq!(p.events[0], TraceEvent::Ret { at: 6 });
    }

    #[test]
    fn capture_mode_ring_grows_instead_of_dropping() {
        // Regression: before capture mode existed, a full ring silently
        // evicted the oldest events. A capture-mode trace must keep all
        // of them — overflow the configured capacity by 25x and assert
        // nothing was lost.
        let mut t = Tracer::new(
            &tiny_image(),
            TraceConfig {
                event_capacity: 4,
                capture: true,
                ..Default::default()
            },
        );
        for i in 0..100 {
            t.on_ret(i);
        }
        let p = t.profile(ExecStats::default());
        assert_eq!(p.events.len(), 100, "capture ring must not evict");
        assert_eq!(p.dropped_events, 0, "capture mode must not drop");
        assert_eq!(p.events[0], TraceEvent::Ret { at: 0 });
        assert_eq!(p.events[99], TraceEvent::Ret { at: 99 });
    }

    #[test]
    fn capture_mode_overrides_zero_capacity() {
        // Even the "events off" configuration keeps everything once
        // capture is requested: replay correctness beats ring tuning.
        let mut t = Tracer::new(
            &tiny_image(),
            TraceConfig {
                event_capacity: 0,
                capture: true,
                ..Default::default()
            },
        );
        for i in 0..10 {
            t.on_ret(i);
        }
        let p = t.profile(ExecStats::default());
        assert_eq!(p.events.len(), 10);
        assert_eq!(p.dropped_events, 0);
    }

    #[test]
    fn capture_log_records_boundary_events() {
        let mut t = Tracer::new(
            &tiny_image(),
            TraceConfig {
                capture: true,
                ..Default::default()
            },
        );
        t.set_capture_boundaries(vec![(0x40_0100, 0x40_0200)]);
        t.on_call(0x40_0000, 0x40_0100); // into a boundary span
        t.on_call(0x40_0010, 0x40_0300); // ordinary call: ring only
        t.on_indirect(0x40_0020, 0x40_0300);
        t.on_ret(0x40_0150); // inside the boundary span
        t.on_ret(0x40_0030); // outside
        t.on_extern(NativeKind::Malloc, [64, 0, 0], 0x10_0000_0000);
        let log = t.capture_log().unwrap();
        assert_eq!(
            log.boundary,
            vec![
                BoundaryEvent::BoundaryCall {
                    at: 0x40_0000,
                    target: 0x40_0100
                },
                BoundaryEvent::Indirect {
                    at: 0x40_0020,
                    target: 0x40_0300
                },
                BoundaryEvent::BoundaryRet { at: 0x40_0150 },
                BoundaryEvent::Extern {
                    kind: NativeKind::Malloc,
                    args: [64, 0, 0],
                    ret: 0x10_0000_0000
                },
            ]
        );
        // Outside capture mode the same hooks log nothing.
        let mut off = Tracer::new(&tiny_image(), TraceConfig::default());
        off.on_extern(NativeKind::Malloc, [64, 0, 0], 1);
        off.on_indirect(1, 2);
        assert!(off.capture_log().is_none());
    }

    #[test]
    fn heap_timeline_thins_but_keeps_peaks() {
        let mut t = Tracer::new(
            &tiny_image(),
            TraceConfig {
                event_capacity: 0,
                heap_timeline_capacity: 8,
                capture: false,
            },
        );
        for i in 0..1000u64 {
            t.on_alloc(16, 16, i * 10, i, i);
        }
        assert!(
            t.timeline.len() < 8,
            "timeline kept {} samples",
            t.timeline.len()
        );
        assert_eq!(t.peak_live, 999 * 10);
        assert_eq!(t.peak_resident, 999);
    }
}
