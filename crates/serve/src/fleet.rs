//! The serving fleet: workers, the monitor, and reaction policies.
//!
//! A fleet is a set of independent workers, each a [`Vm`] running its
//! own diversified variant of the served module. A [`Schedule`] drives
//! the fleet: benign requests call the service function, attack-probe
//! events run one step of a Blind-ROP-style campaign against the
//! targeted worker (reusing the `r2c-attacks` threat model: hijack a
//! candidate address with the magic argument, watch the output for the
//! privileged marker). The **monitor** observes every worker death and
//! applies the configured [`ReactionPolicy`]:
//!
//! * [`ReactionPolicy::Ignore`] — detections are discarded; the plain
//!   supervisor restarts the worker on the same image.
//! * [`ReactionPolicy::RestartSameImage`] — the monitor reacts (the
//!   restart shows up as a reaction in the event log) but restarts on
//!   the **same** image: the Blind-ROP-vulnerable pool of paper §4.1.
//! * [`ReactionPolicy::RespawnFreshVariant`] — load-time
//!   re-randomization (§7.3): every restart boots a freshly
//!   diversified variant, served warm from the [`VariantPool`] when
//!   background pre-compilation won the race.
//!
//! ## Determinism contract
//!
//! Workers share no guest-visible state, every variant seed is derived
//! from `(fleet_seed, worker, generation)`, and warm-vs-cold pool
//! outcomes change only host-side latency. Therefore the monitor event
//! log and [`FleetMetrics`] of a run are a pure function of
//! `(module, FleetConfig, Schedule)` — [`ExecMode::Parallel`] must
//! produce bit-identical logs to [`ExecMode::Serial`], which the tests
//! and the `report_serve --smoke` CI step enforce.

use std::time::Duration;

use r2c_attacks::victim::{MAGIC_ARG, PRIV_MARKER};
use r2c_core::pool::{TakeKind, VariantPool};
use r2c_core::{R2cCompiler, R2cConfig};
use r2c_ir::Module;
use r2c_vm::image::Region;
use r2c_vm::{ExitStatus, Image, MachineKind, VAddr, Vm, VmConfig};

use crate::schedule::{Event, Op, Schedule};

/// What the monitor does when a worker dies (crash or detection).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReactionPolicy {
    /// No monitor: the supervisor silently restarts on the same image.
    Ignore,
    /// Monitor reacts, but the pool restarts workers on the same image
    /// (crash-restarting pool, vulnerable to Blind ROP — §4.1).
    RestartSameImage,
    /// Monitor respawns a freshly diversified variant (load-time
    /// re-randomization — §7.3).
    RespawnFreshVariant,
}

impl ReactionPolicy {
    /// Stable short name used in logs, JSON and tables.
    pub fn name(self) -> &'static str {
        match self {
            ReactionPolicy::Ignore => "ignore",
            ReactionPolicy::RestartSameImage => "restart-same",
            ReactionPolicy::RespawnFreshVariant => "respawn-fresh",
        }
    }
}

/// Serial or parallel fleet execution (guest-identical by contract).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Workers run one after another on the calling thread.
    Serial,
    /// A fixed pool of host threads work-steals shards of
    /// [`FleetConfig::shard_size`] workers each. Scales to 1000+
    /// workers where the previous thread-per-worker design exhausted
    /// host threads.
    Parallel,
}

/// Fleet configuration.
#[derive(Clone)]
pub struct FleetConfig {
    /// Base build configuration; the seed is overridden per variant.
    pub build: R2cConfig,
    /// Monitor reaction policy.
    pub policy: ReactionPolicy,
    /// Root of the per-`(worker, generation)` variant-seed derivation.
    pub fleet_seed: u64,
    /// Function called per benign request; the image entry if `None`.
    pub service: Option<String>,
    /// Argument attack probes smuggle into hijacked calls.
    pub probe_arg: u64,
    /// Output pair that proves a probe compromised the worker.
    pub compromise_marker: (i64, i64),
    /// Cost model for all workers.
    pub machine: MachineKind,
    /// Per-event instruction watchdog (requests and probes).
    pub event_budget: u64,
    /// Instruction budget for a worker boot (constructors + warmup).
    pub boot_budget: u64,
    /// Background compile threads in the variant pool (0 = no
    /// background pre-compilation; every respawn compiles cold).
    pub pool_threads: usize,
    /// Bounded capacity of the variant pool's ready cache.
    pub pool_capacity: usize,
    /// Workers per work-stealing shard in [`ExecMode::Parallel`]. Small
    /// enough to balance load, large enough to amortize the steal.
    pub shard_size: usize,
    /// Debug knob: boot and reset workers with copy-on-write page
    /// sharing disabled (the pre-CoW deep-copy path). Guest-visible
    /// behavior and monitor logs must be bit-identical either way —
    /// `report_fleet` proves it per seed. Off in [`FleetConfig::new`].
    pub no_cow: bool,
}

impl FleetConfig {
    /// Defaults tuned for the `r2c-attacks` victim served by
    /// `handler`: probes carry [`MAGIC_ARG`] and a compromise is
    /// `privileged` printing [`PRIV_MARKER`] followed by it.
    pub fn new(build: R2cConfig, policy: ReactionPolicy) -> FleetConfig {
        FleetConfig {
            build,
            policy,
            fleet_seed: 0,
            service: Some("handler".into()),
            probe_arg: MAGIC_ARG as u64,
            compromise_marker: (PRIV_MARKER, MAGIC_ARG),
            machine: MachineKind::EpycRome,
            event_budget: 2_000_000,
            boot_budget: 2_000_000_000,
            pool_threads: 2,
            pool_capacity: 8,
            shard_size: 8,
            no_cow: false,
        }
    }

    /// Scales the variant pool for a fleet of `workers` workers: under
    /// a respawn storm every worker can have a respawn in flight, so
    /// the ready cache grows to hold one variant per 8 workers (at
    /// least the default 8) and the background compile pool gains a
    /// thread per 256 workers. Latency only — determinism is
    /// unaffected by pool sizing.
    pub fn sized_for(mut self, workers: u32) -> FleetConfig {
        self.pool_capacity = self.pool_capacity.max((workers as usize).div_ceil(8));
        self.pool_threads = self.pool_threads.max((workers as usize).div_ceil(256));
        self
    }

    /// Serve via the image entry point instead of a named function
    /// (generated fuzz modules have no `handler`).
    pub fn entry_service(mut self) -> FleetConfig {
        self.service = None;
        self
    }
}

/// Deterministic per-run counters (bit-identical serial vs. parallel).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetMetrics {
    /// Benign requests scheduled.
    pub requests: u64,
    /// Requests served to a clean exit.
    pub served: u64,
    /// Requests dropped because the worker was restarting.
    pub dropped: u64,
    /// Requests that faulted (corrupted worker state).
    pub request_faults: u64,
    /// Simulated cycles spent serving successful requests.
    pub request_cycles: u64,
    /// Probe events executed.
    pub probes: u64,
    /// Probes that crashed the worker without detection.
    pub probe_crashes: u64,
    /// Probes caught by a booby trap or guard page.
    pub detections: u64,
    /// Probes that ran the privileged function with the magic argument.
    pub compromises: u64,
    /// Same-image worker restarts (Ignore / RestartSameImage).
    pub restarts: u64,
    /// Fresh-variant respawns (RespawnFreshVariant).
    pub respawns: u64,
    /// 1-based ordinal, among probe events in schedule order, of the
    /// first compromising probe. `None` when the fleet was never
    /// compromised — the probes-to-compromise of the golden table.
    pub first_compromise_probe: Option<u64>,
}

impl FleetMetrics {
    /// Fraction of scheduled requests that were served.
    pub fn availability(&self) -> f64 {
        if self.requests == 0 {
            return 1.0;
        }
        self.served as f64 / self.requests as f64
    }

    /// Mean simulated cycles per served request.
    pub fn cycles_per_request(&self) -> f64 {
        if self.served == 0 {
            return 0.0;
        }
        self.request_cycles as f64 / self.served as f64
    }
}

/// Host-side latency of one fresh-variant respawn.
#[derive(Clone, Copy, Debug)]
pub struct RespawnLatency {
    /// Worker that respawned.
    pub worker: u32,
    /// Generation booted.
    pub generation: u32,
    /// Warm cache hit, in-flight wait, or cold inline compile.
    pub kind: TakeKind,
    /// Wall-clock time to obtain the image.
    pub latency: Duration,
}

/// Result of a fleet run.
pub struct FleetRun {
    /// The monitor event log: per-worker boot lines (worker order)
    /// followed by per-event lines in schedule order. Bit-identical
    /// between [`ExecMode::Serial`] and [`ExecMode::Parallel`].
    pub log: Vec<String>,
    /// Deterministic counters.
    pub metrics: FleetMetrics,
    /// Per-served-request latency in simulated cycles (queueing behind
    /// the worker's backlog + service), in schedule order. Deterministic
    /// — a pure function of guest cycles and arrival times, so serial
    /// and parallel runs produce identical vectors. All-zero queueing
    /// for closed-loop schedules (`at == 0` means latency equals the
    /// worker-clock completion time and only relative comparisons are
    /// meaningful); percentile reporting targets open-loop schedules.
    pub request_latencies: Vec<u64>,
    /// Host-side: image-acquisition latency of every fresh-variant
    /// respawn (warm and cold).
    pub respawn_latencies: Vec<RespawnLatency>,
    /// Host-side: wall-clock compile time of each worker's initial
    /// (generation-0) variant — the cold-boot reference.
    pub boot_compiles: Vec<Duration>,
}

/// splitmix64 finalizer.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The diversification seed of `(worker, generation)` under
/// `fleet_seed`. Pure function: parallel and serial runs, and the
/// background pool, all agree on which variant a respawn boots.
pub fn variant_seed(fleet_seed: u64, worker: u32, generation: u32) -> u64 {
    mix(fleet_seed ^ mix(((worker as u64) << 32) | (generation as u64 + 1)))
}

/// Why a worker died (drives the monitor's reaction).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DeathCause {
    Detected,
    Crashed,
}

struct Worker<'a> {
    id: u32,
    fc: &'a FleetConfig,
    module: &'a Module,
    pool: Option<&'a VariantPool>,
    image: Image,
    vm: Vm,
    generation: u32,
    dead: Option<DeathCause>,
    service_addr: Option<VAddr>,
    attack_start: Option<VAddr>,
    attack_step: i64,
    checked_output: usize,
    boot_line: String,
    entries: Vec<(u64, String)>,
    metrics: FleetMetrics,
    first_compromise_idx: Option<u64>,
    respawn_latencies: Vec<RespawnLatency>,
    boot_compile: Duration,
    /// Simulated-cycle clock: when this worker finishes its current
    /// backlog. Advanced by boots, restarts, requests and probes; an
    /// event arriving at `at > clock` idles the worker forward.
    clock: u64,
    /// `(event idx, latency)` of every served request, in simulated
    /// cycles from arrival to completion.
    latencies: Vec<(u64, u64)>,
}

/// Worker VM config: the fleet's machine model plus the CoW toggle.
fn vm_config(fc: &FleetConfig) -> VmConfig {
    VmConfig {
        no_cow: fc.no_cow,
        ..VmConfig::new(fc.machine.config())
    }
}

impl<'a> Worker<'a> {
    /// Compiles generation 0, boots it, and records the boot line.
    fn spawn(
        id: u32,
        module: &'a Module,
        fc: &'a FleetConfig,
        pool: Option<&'a VariantPool>,
    ) -> Worker<'a> {
        let seed = variant_seed(fc.fleet_seed, id, 0);
        let t0 = std::time::Instant::now();
        let image = R2cCompiler::new(fc.build.with_seed(seed))
            .build(module)
            .expect("fleet variant must compile");
        let boot_compile = t0.elapsed();
        let mut w = Worker {
            id,
            fc,
            module,
            pool,
            vm: Vm::new(&image, vm_config(fc)),
            image,
            generation: 0,
            dead: None,
            service_addr: None,
            attack_start: None,
            attack_step: 0,
            checked_output: 0,
            boot_line: String::new(),
            entries: Vec::new(),
            metrics: FleetMetrics::default(),
            first_compromise_idx: None,
            respawn_latencies: Vec::new(),
            boot_compile,
            clock: 0,
            latencies: Vec::new(),
        };
        let status = w.boot();
        w.boot_line = format!("boot w{id} g0 seed={seed} status={status}");
        w
    }

    /// Runs constructors + entry as worker warmup; resolves the service
    /// function against the (possibly fresh) image.
    fn boot(&mut self) -> String {
        self.service_addr = match &self.fc.service {
            Some(name) => self.image.symbol(name).map(|s| s.addr),
            None => None,
        };
        self.checked_output = 0;
        self.vm.set_insn_budget(self.fc.boot_budget);
        let before = self.vm.stats().cycles;
        let out = self.vm.run();
        // Booting occupies the worker: requests arriving meanwhile
        // queue behind it (restart windows show up in tail latency).
        self.clock += out.stats.cycles - before;
        // Boot output is not request output; skip it when scanning for
        // compromise markers.
        self.checked_output = self.vm.output.len();
        match out.status {
            ExitStatus::Exited(_) => "ok".into(),
            ExitStatus::Faulted(f) => format!("fault:{f:?}"),
            ExitStatus::Probed => "probed".into(),
        }
    }

    /// Monitor/supervisor reaction to a dead worker, performed when the
    /// scheduler next touches it (the restart window).
    fn restart(&mut self, idx: u64) {
        let cause = self.dead.take().expect("restart of a live worker");
        self.generation += 1;
        let g = self.generation;
        let line;
        match self.fc.policy {
            ReactionPolicy::Ignore | ReactionPolicy::RestartSameImage => {
                self.vm.reset_to_image();
                self.metrics.restarts += 1;
                let status = self.boot();
                let kind = if self.fc.policy == ReactionPolicy::Ignore {
                    // Plain supervisor restart: the monitor saw nothing.
                    "restart"
                } else {
                    "react restart-same"
                };
                line = format!(
                    "#{idx} w{} {kind} g{g} cause={cause:?} boot={status}",
                    self.id
                );
            }
            ReactionPolicy::RespawnFreshVariant => {
                let seed = variant_seed(self.fc.fleet_seed, self.id, g);
                let (image, kind, latency) = match self.pool {
                    Some(pool) => {
                        let v = pool.take(seed);
                        // Announce the *next* respawn so the background
                        // threads stay ahead of the monitor.
                        pool.prefetch(variant_seed(self.fc.fleet_seed, self.id, g + 1));
                        (v.image, v.kind, v.latency)
                    }
                    None => {
                        let t0 = std::time::Instant::now();
                        let image = R2cCompiler::new(self.fc.build.with_seed(seed))
                            .build(self.module)
                            .expect("fleet variant must compile");
                        (image, TakeKind::Cold, t0.elapsed())
                    }
                };
                self.respawn_latencies.push(RespawnLatency {
                    worker: self.id,
                    generation: g,
                    kind,
                    latency,
                });
                self.vm = Vm::new(&image, vm_config(self.fc));
                self.image = image;
                self.metrics.respawns += 1;
                let status = self.boot();
                line = format!(
                    "#{idx} w{} react respawn-fresh g{g} seed={seed} cause={cause:?} boot={status}",
                    self.id
                );
            }
        }
        self.entries.push((idx, line));
    }

    /// True if the compromise marker appeared in output produced since
    /// the last check.
    fn compromised_since(&mut self) -> bool {
        let (m0, m1) = self.fc.compromise_marker;
        let start = self.checked_output.saturating_sub(1);
        let hit = self.vm.output[start..].windows(2).any(|w| w == [m0, m1]);
        self.checked_output = self.vm.output.len();
        hit
    }

    /// The attacker's scan anchor: a code pointer leaked from the most
    /// recent stack-probe snapshot (or the text base as a fallback).
    /// Leaked once per campaign — restarts do not refresh it, which is
    /// exactly why same-image restarts are vulnerable and fresh-variant
    /// respawns are not.
    fn ensure_attack_start(&mut self) -> VAddr {
        if let Some(s) = self.attack_start {
            return s;
        }
        let layout = self.image.layout;
        let start = self
            .vm
            .probes
            .last()
            .and_then(|snap| {
                snap.bytes
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                    .find(|&w| layout.region_of(w) == Some(Region::Text))
            })
            .unwrap_or(layout.text_base);
        self.attack_start = Some(start);
        start
    }

    fn handle(&mut self, idx: u64, ev: Event) {
        if self.dead.is_some() {
            self.restart(idx);
            if let Op::Request { .. } = ev.op {
                // The restart window swallows this request.
                self.metrics.requests += 1;
                self.metrics.dropped += 1;
                self.entries.push((
                    idx,
                    format!("#{idx} w{} g{} request dropped", self.id, self.generation),
                ));
                return;
            }
        }
        let g = self.generation;
        let id = self.id;
        // Open-loop clock: the event starts when the worker drains its
        // backlog or when it arrives, whichever is later.
        let begin = self.clock.max(ev.at);
        self.vm
            .set_insn_budget(self.vm.stats().instructions + self.fc.event_budget);
        match ev.op {
            Op::Request { payload } => {
                self.metrics.requests += 1;
                let target = self.service_addr.unwrap_or(self.image.entry);
                let before = self.vm.stats().cycles;
                let out = self.vm.call(target, &[payload]);
                let cycles = out.stats.cycles - before;
                self.clock = begin + cycles;
                match out.status {
                    ExitStatus::Exited(_) => {
                        self.metrics.served += 1;
                        self.metrics.request_cycles += cycles;
                        self.latencies.push((idx, self.clock - ev.at));
                        self.entries.push((
                            idx,
                            format!("#{idx} w{id} g{g} request served cycles={cycles}"),
                        ));
                        // A benign request must never fire the marker;
                        // keep the scan window bounded anyway.
                        self.checked_output = self.vm.output.len();
                    }
                    ExitStatus::Faulted(f) => {
                        self.metrics.request_faults += 1;
                        self.dead = Some(if f.is_detection() {
                            DeathCause::Detected
                        } else {
                            DeathCause::Crashed
                        });
                        self.entries
                            .push((idx, format!("#{idx} w{id} g{g} request fault={f:?}")));
                    }
                    ExitStatus::Probed => unreachable!("break_on_probe is off"),
                }
            }
            Op::Probe => {
                self.metrics.probes += 1;
                let start = self.ensure_attack_start();
                let candidate = (start & !15).wrapping_add_signed(16 * self.attack_step);
                self.attack_step = if self.attack_step >= 0 {
                    -(self.attack_step + 1)
                } else {
                    -self.attack_step
                };
                let before = self.vm.stats().cycles;
                let out = self.vm.call(candidate, &[self.fc.probe_arg]);
                // Probes occupy the worker too — requests queued behind
                // an attack session pay for it in the tail.
                self.clock = begin + (out.stats.cycles - before);
                let outcome = match out.status {
                    ExitStatus::Exited(_) if self.compromised_since() => {
                        self.metrics.compromises += 1;
                        self.first_compromise_idx.get_or_insert(idx);
                        "compromised".to_string()
                    }
                    ExitStatus::Exited(_) => {
                        // Survived without the marker: nothing learned.
                        "miss".to_string()
                    }
                    ExitStatus::Faulted(f) if f.is_detection() => {
                        self.metrics.detections += 1;
                        self.dead = Some(DeathCause::Detected);
                        format!("detected fault={f:?}")
                    }
                    ExitStatus::Faulted(f) => {
                        self.metrics.probe_crashes += 1;
                        self.dead = Some(DeathCause::Crashed);
                        format!("crash fault={f:?}")
                    }
                    ExitStatus::Probed => unreachable!("break_on_probe is off"),
                };
                self.entries.push((
                    idx,
                    format!("#{idx} w{id} g{g} probe target={candidate:#x} outcome={outcome}"),
                ));
            }
        }
    }
}

/// Runs `schedule` against a fleet serving `module` and returns the
/// merged monitor log plus metrics. See the module docs for the
/// determinism contract between the two [`ExecMode`]s.
pub fn run_fleet(
    module: &Module,
    fc: &FleetConfig,
    schedule: &Schedule,
    mode: ExecMode,
) -> FleetRun {
    let pool = (fc.policy == ReactionPolicy::RespawnFreshVariant && fc.pool_threads > 0)
        .then(|| VariantPool::new(module, fc.build, fc.pool_capacity, fc.pool_threads));
    let pool = pool.as_ref();

    // Partition the schedule per worker; workers share nothing, so each
    // can run its slice independently in any interleaving.
    let mut per_worker: Vec<Vec<(u64, Event)>> = vec![Vec::new(); schedule.workers as usize];
    for (i, e) in schedule.events.iter().enumerate() {
        per_worker[e.worker as usize].push((i as u64, *e));
    }
    // Announce every worker's first respawn before the run starts.
    if let Some(p) = pool {
        for w in 0..schedule.workers {
            p.prefetch(variant_seed(fc.fleet_seed, w, 1));
        }
    }

    let run_one = |id: u32, events: &[(u64, Event)]| -> Worker<'_> {
        let mut w = Worker::spawn(id, module, fc, pool);
        for &(idx, ev) in events {
            w.handle(idx, ev);
        }
        w
    };

    let workers: Vec<Worker<'_>> = match mode {
        ExecMode::Serial => per_worker
            .iter()
            .enumerate()
            .map(|(id, evs)| run_one(id as u32, evs))
            .collect(),
        ExecMode::Parallel => {
            // Work stealing over shards: a 1000-worker fleet cannot
            // afford a host thread per worker, so a fixed pool of
            // threads claims `shard_size`-worker shards off a shared
            // cursor. Workers share nothing, so any thread may run any
            // shard; results land in per-shard slots and are
            // reassembled in worker order, keeping the merged log
            // bit-identical to the serial run.
            use std::sync::atomic::{AtomicUsize, Ordering};
            let shard = fc.shard_size.max(1);
            let nshards = per_worker.len().div_ceil(shard);
            let cursor = AtomicUsize::new(0);
            let slots: Vec<std::sync::Mutex<Option<Vec<Worker<'_>>>>> =
                (0..nshards).map(|_| std::sync::Mutex::new(None)).collect();
            let nthreads = std::thread::available_parallelism()
                .map_or(4, |n| n.get())
                .min(nshards.max(1));
            std::thread::scope(|s| {
                for _ in 0..nthreads {
                    s.spawn(|| loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= nshards {
                            break;
                        }
                        let lo = i * shard;
                        let hi = (lo + shard).min(per_worker.len());
                        let ws: Vec<Worker<'_>> = (lo..hi)
                            .map(|id| run_one(id as u32, &per_worker[id]))
                            .collect();
                        *slots[i].lock().unwrap() = Some(ws);
                    });
                }
            });
            slots
                .into_iter()
                .flat_map(|slot| {
                    slot.into_inner()
                        .unwrap()
                        .expect("every shard claimed and completed")
                })
                .collect()
        }
    };

    // Merge: boot header in worker order, then event lines in schedule
    // order (indices are disjoint across workers).
    let mut log: Vec<String> = workers.iter().map(|w| w.boot_line.clone()).collect();
    let mut entries: Vec<(u64, String)> = Vec::new();
    let mut metrics = FleetMetrics::default();
    let mut first_idx: Option<u64> = None;
    let mut respawn_latencies = Vec::new();
    let mut boot_compiles = Vec::new();
    let mut latencies: Vec<(u64, u64)> = Vec::new();
    for w in workers {
        entries.extend(w.entries);
        latencies.extend(w.latencies);
        metrics.requests += w.metrics.requests;
        metrics.served += w.metrics.served;
        metrics.dropped += w.metrics.dropped;
        metrics.request_faults += w.metrics.request_faults;
        metrics.request_cycles += w.metrics.request_cycles;
        metrics.probes += w.metrics.probes;
        metrics.probe_crashes += w.metrics.probe_crashes;
        metrics.detections += w.metrics.detections;
        metrics.compromises += w.metrics.compromises;
        metrics.restarts += w.metrics.restarts;
        metrics.respawns += w.metrics.respawns;
        if let Some(i) = w.first_compromise_idx {
            first_idx = Some(first_idx.map_or(i, |j: u64| j.min(i)));
        }
        respawn_latencies.extend(w.respawn_latencies);
        boot_compiles.push(w.boot_compile);
    }
    entries.sort_by_key(|(i, _)| *i);
    log.extend(entries.into_iter().map(|(_, line)| line));
    latencies.sort_by_key(|(i, _)| *i);

    // Probes-to-compromise: the ordinal of the compromising probe among
    // all probe events, counted in schedule order.
    metrics.first_compromise_probe = first_idx.map(|i| {
        schedule.events[..=i as usize]
            .iter()
            .filter(|e| e.op == Op::Probe)
            .count() as u64
    });

    FleetRun {
        log,
        metrics,
        request_latencies: latencies.into_iter().map(|(_, l)| l).collect(),
        respawn_latencies,
        boot_compiles,
    }
}
