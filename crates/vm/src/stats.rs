//! Execution statistics collected by the VM.

/// Counters accumulated during a run.
///
/// `cycles` is the cost-model output (deci-cycles internally, exposed in
/// deci-cycles so overhead ratios keep full precision); `calls` counts
/// executed `call` instructions the way the paper's Table 2
/// instrumentation does (tail calls never appear because the code
/// generator does not emit them — the paper likewise excludes tail calls
/// since they push no return address).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Dynamically executed instructions.
    pub instructions: u64,
    /// Accumulated cost in deci-cycles.
    pub cycles: u64,
    /// Executed `call`/`callind` instructions (native hypercalls are
    /// counted separately).
    pub calls: u64,
    /// Executed native (hypercall) invocations.
    pub native_calls: u64,
    /// Executed `ret` instructions.
    pub rets: u64,
    /// Instruction-cache misses.
    pub icache_misses: u64,
    /// Instruction-cache hits.
    pub icache_hits: u64,
    /// Maximum resident set size in pages (maxrss analogue, §6.2.5).
    pub max_rss_pages: usize,
    /// AVX/SSE transition penalties incurred (missing `vzeroupper`).
    pub avx_transitions: u64,
}

impl ExecStats {
    /// Cycles as a floating-point number of core cycles.
    pub fn cycles_f64(&self) -> f64 {
        self.cycles as f64 / 10.0
    }

    /// Maximum resident set size in bytes.
    pub fn max_rss_bytes(&self) -> u64 {
        self.max_rss_pages as u64 * crate::mem::PAGE_SIZE
    }

    /// Instruction-cache miss rate in [0, 1].
    pub fn icache_miss_rate(&self) -> f64 {
        let total = self.icache_hits + self.icache_misses;
        if total == 0 {
            0.0
        } else {
            self.icache_misses as f64 / total as f64
        }
    }
}

/// Execution-*edge* telemetry: which engine paths a run took, exported
/// for the coverage-guided fuzzer.
///
/// Deliberately **not** part of [`ExecStats`]: `ExecStats` is the
/// bit-identical semantic contract (fused == unfused == traced,
/// enforced by the differential suites), whereas edge counters describe
/// which *implementation* paths ran — a fused run legitimately takes
/// block runs and rollbacks an unfused run never sees. Keeping them
/// separate preserves the equality contracts while still letting the
/// fuzzer observe rare engine edges (mid-run fault rollback, budget-
/// edge fallback to per-op dispatch) as coverage features.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EdgeStats {
    /// Block runs entered by the decoded engine (`Op::Run` dispatches).
    pub runs_entered: u64,
    /// Mid-run faults that took the positional rollback path (member
    /// charges un-booked, icache pending rolled back).
    pub run_rollbacks: u64,
    /// Budget-edge fallbacks: block runs whose members would cross the
    /// instruction budget, so the engine dispatched them one decoded op
    /// at a time instead of batch-charging them. (The name stays so the
    /// fuzz coverage feature `slow-path-handoffs`, and with it the
    /// coverage map, stays stable.)
    pub slow_path_handoffs: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let s = ExecStats {
            cycles: 125,
            icache_hits: 90,
            icache_misses: 10,
            max_rss_pages: 3,
            ..Default::default()
        };
        assert!((s.cycles_f64() - 12.5).abs() < 1e-9);
        assert!((s.icache_miss_rate() - 0.1).abs() < 1e-9);
        assert_eq!(s.max_rss_bytes(), 3 * 4096);
    }

    #[test]
    fn zero_accesses_zero_miss_rate() {
        assert_eq!(ExecStats::default().icache_miss_rate(), 0.0);
    }
}
