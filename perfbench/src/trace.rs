//! Spans around the benchmark's own calls into each layer.
//!
//! A span records a name, start, end and parent. Names are
//! `<module>.<call>` (`core.build`, `vm.run`, ...); the module prefix
//! groups self-times for the reconciliation rows. Spans stay in memory
//! and are summarized when the run ends. With tracing off every call
//! is a no-op apart from one branch, so the end-to-end run measures the
//! program and not the tracer.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::{median, percentile};

/// One recorded layer call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder plus named samples (values observed at a layer
/// boundary, such as per-pass compile times from a `CompileReport`)
/// and counters (work counts, such as guest instructions).
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    samples: BTreeMap<String, Vec<f64>>,
    counters: BTreeMap<String, f64>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            samples: BTreeMap::new(),
            counters: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "tracing toggled inside a span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; its parent is the innermost open span.
    pub fn enter(&mut self, name: &str) {
        if !self.on {
            return;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let id = self.stack.pop().expect("exit without enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn leaf<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Records a sample under `name` (no-op when tracing is off).
    pub fn sample(&mut self, name: &str, value: f64) {
        if self.on {
            self.samples
                .entry(name.to_string())
                .or_default()
                .push(value);
        }
    }

    /// Adds to the counter `name` (no-op when tracing is off).
    pub fn count(&mut self, name: &str, value: f64) {
        if self.on {
            *self.counters.entry(name.to_string()).or_default() += value;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], |v| v.as_slice())
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Durations in microseconds of every closed span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Total duration of the spans named `name` that descend from the
    /// first span named `root`, in microseconds.
    pub fn total_us_under(&self, name: &str, root: &str) -> f64 {
        let Some(root_id) = self.spans.iter().position(|s| s.name == root) else {
            return 0.0;
        };
        self.spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.name == name && self.descends_from(*i, root_id))
            .map(|(_, s)| s.dur_ns() as f64 / 1e3)
            .sum()
    }

    /// p50 of the spans named `name`, in microseconds.
    pub fn p50_us(&self, name: &str) -> f64 {
        median(&self.durations_us(name))
    }

    /// p99 of the spans named `name`, in microseconds.
    pub fn p99_us(&self, name: &str) -> f64 {
        percentile(&self.durations_us(name), 0.99)
    }

    /// Total duration of the spans named `name`, in microseconds.
    pub fn total_us(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum()
    }

    /// Self time of every span: its duration minus the part covered by
    /// its children (children never overlap on the benchmark thread).
    fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Reconciliation of the root span named `root`: its wall time, the
    /// self time of its descendants grouped by module, and the root's
    /// own self time (the benchmark's code between layer calls),
    /// reported as `perfbench.other`. The rows sum to the wall time.
    pub fn reconcile(&self, root: &str) -> Option<Reconciliation> {
        let root_id = self.spans.iter().position(|s| s.name == root)?;
        let self_ns = self.self_ns();
        let mut by_module: BTreeMap<String, f64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if i == root_id || !self.descends_from(i, root_id) {
                continue;
            }
            let module = s.name.split('.').next().unwrap_or(&s.name).to_string();
            *by_module.entry(module).or_default() += self_ns[i] as f64 / 1e6;
        }
        Some(Reconciliation {
            root: root.to_string(),
            wall_ms: self.spans[root_id].dur_ns() as f64 / 1e6,
            layers_ms: by_module,
            other_ms: self_ns[root_id] as f64 / 1e6,
        })
    }

    fn descends_from(&self, mut i: usize, root: usize) -> bool {
        while let Some(p) = self.spans[i].parent {
            if p == root {
                return true;
            }
            i = p;
        }
        false
    }
}

/// One reconciliation row: layer self-times against the wall time of a
/// benchmark phase.
#[derive(Clone, Debug)]
pub struct Reconciliation {
    pub root: String,
    pub wall_ms: f64,
    pub layers_ms: BTreeMap<String, f64>,
    pub other_ms: f64,
}

impl Reconciliation {
    pub fn layer_sum_ms(&self) -> f64 {
        self.layers_ms.values().sum()
    }

    /// Share of the wall time not inside any layer call, in percent.
    pub fn other_pct(&self) -> f64 {
        100.0 * self.other_ms / self.wall_ms
    }

    /// One report line.
    pub fn line(&self) -> String {
        let mut s = format!(
            "reconcile {} wall_ms={:.3} layers_ms={:.3}",
            self.root,
            self.wall_ms,
            self.layer_sum_ms()
        );
        for (m, v) in &self.layers_ms {
            s.push_str(&format!(" {m}={v:.3}"));
        }
        s.push_str(&format!(
            " perfbench.other={:.3} ({:.2}%)",
            self.other_ms,
            self.other_pct()
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_reconcile_to_wall() {
        let mut tr = Tracer::new(true);
        tr.enter("perfbench.timed");
        tr.leaf("core.build", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.enter("serve.run");
        tr.leaf("vm.run", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        tr.exit();
        tr.exit();
        let r = tr.reconcile("perfbench.timed").unwrap();
        assert!((r.layer_sum_ms() + r.other_ms - r.wall_ms).abs() < 1e-6);
        assert!(r.layers_ms["core"] >= 2.0);
        assert!(r.layers_ms["vm"] >= 1.0);
        assert_eq!(tr.durations_us("vm.run").len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        tr.enter("a");
        tr.leaf("b", || ());
        tr.sample("c", 1.0);
        tr.exit();
        assert!(tr.spans().is_empty());
        assert!(tr.samples("c").is_empty());
    }
}
