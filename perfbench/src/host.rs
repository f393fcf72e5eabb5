//! Host fingerprint, peak memory and the reference-path knob guard.

use std::path::Path;
use std::process::Command;

/// Environment variables that switch the VM and the fleet onto their
/// reference paths (`VmConfig::new` and `FleetConfig::new` read them).
/// A run with either set would silently measure the slow reference
/// engine, so the benchmark refuses to start.
pub const REFERENCE_KNOBS: [&str; 2] = ["R2C_NO_FUSE", "R2C_NO_COW"];

/// The first reference-path knob set in the environment, if any.
pub fn reference_knob_set() -> Option<&'static str> {
    REFERENCE_KNOBS
        .into_iter()
        .find(|k| std::env::var_os(k).is_some())
}

/// CPU model, CPU count, compiler and source revision.
pub struct Fingerprint {
    pub cpu: String,
    pub nproc: usize,
    pub rustc: String,
    pub git: String,
}

impl Fingerprint {
    pub fn collect() -> Fingerprint {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
        // Only ask git inside a checkout that is a repository itself;
        // otherwise git would report some enclosing repository.
        let git = if Path::new(".git").exists() {
            command_line("git", &["rev-parse", "HEAD"])
        } else {
            None
        }
        .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            cpu,
            nproc,
            rustc,
            git,
        }
    }

    pub fn line(&self) -> String {
        format!(
            "host cpu=\"{}\" nproc={} rustc=\"{}\" git={}",
            self.cpu, self.nproc, self.rustc, self.git
        )
    }
}

/// First line of a command's standard output; waits for it to exit.
fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8(out.stdout).ok()?;
    s.lines().next().map(|l| l.trim().to_string())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Iterations of one calibration-kernel run.
const KERNEL_ITERS: u64 = 1_000_000;

/// Typical wall time of one kernel run between operations on the
/// reference host (2-vCPU Intel Xeon VM; median over the runs that set
/// the bounds). Speeds are relative to it, so normalized times read as
/// seconds on that host at its usual load.
pub const KERNEL_REFERENCE_S: f64 = 0.020;

/// A fixed CPU and memory kernel in the benchmark's own code, run
/// between operations to measure how fast the host is right now.
///
/// Co-tenants on the shared host slow every operation by up to 2x for
/// seconds to minutes at a time, which no statistic within one run can
/// remove. Dividing each operation's wall time by the kernel's
/// slowdown measured around it cancels most of that drift. The kernel
/// calls no code of the repository, so a change to the program never
/// moves it.
pub struct Calibration {
    table: Vec<u64>,
}

impl Default for Calibration {
    fn default() -> Calibration {
        // 16 MiB: beyond the per-core L2, like the guest memory and
        // decoded programs of the larger workloads.
        Calibration {
            table: vec![1; 1 << 21],
        }
    }
}

impl Calibration {
    /// Runs the kernel once; returns the host speed relative to the
    /// reference (1.0 = quiet reference host, 0.5 = half as fast).
    pub fn speed(&mut self) -> f64 {
        let t0 = std::time::Instant::now();
        std::hint::black_box(kernel(&mut self.table, KERNEL_ITERS));
        KERNEL_REFERENCE_S / t0.elapsed().as_secs_f64()
    }
}

/// xorshift-driven random reads and writes over `table`, with a
/// data-dependent branch: a little of what an interpreter does.
fn kernel(table: &mut [u64], iters: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    let n = table.len() as u64;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x % n) as usize;
        acc = acc.wrapping_add(table[i]).rotate_left(5) ^ x;
        table[i] = acc;
        if acc & 7 == 0 {
            acc = acc.wrapping_mul(0x2545_F491_4F6C_DD1D);
        }
    }
    acc
}
