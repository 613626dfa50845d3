//! End-to-end benchmark of the TSC-NTP stack.
//!
//! Three workloads drive the repository's crates through their public API
//! only, each in one process with at most two threads:
//!
//! - [`serve_udp`]: a closed-loop load generator against the batched UDP
//!   serve daemon on `127.0.0.1`, with the discipline loop resealing the
//!   published snapshot between sends.
//! - [`fleet_replay`]: batch replay of a seeded fleet of clocks on a
//!   two-lane worker pool.
//! - [`population`]: on-demand replay of a lifecycle-client population
//!   with checkpointing and injected crashes.
//!
//! A run measures for a fixed number of seconds, checks that the outputs
//! are correct, and reports either the end-to-end metrics ([`END_TO_END`])
//! or, in a traced run, the per-layer metrics ([`PER_LAYER`]), which come
//! from spans the benchmark records around its own calls into each layer.

pub mod fleet_replay;
pub mod population;
pub mod serve_udp;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One reported metric: its name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Metrics of an untraced run, reported by every workload.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("ops_per_s", "1/s"),
    m("lat_p50_us", "us"),
    m("lat_p99_us", "us"),
    m("err_p50_us", "us"),
    m("err_p99_us", "us"),
];

/// Metrics of a traced run. Every workload prints all of them; a layer the
/// workload does not run reads 0.
pub const PER_LAYER: &[Metric] = &[
    m("serve.transport.recv_ns_per_dgram", "ns"),
    m("serve.transport.send_ns_per_dgram", "ns"),
    m("serve.transport.empty_recvs", "count"),
    m("serve.transport.batch_fill", "dgram/batch"),
    m("serve.plane.ns_per_dgram", "ns"),
    m("serve.plane.refusals", "count"),
    m("serve.plane.malformed", "count"),
    m("serve.cell.read_ns", "ns"),
    m("serve.publish.seal_ns", "ns"),
    m("serve.publish.count", "count"),
    m("serve.daemon.busy_share", "ratio"),
    m("gen.busy_share", "ratio"),
    m("gen.send_ns", "ns"),
    m("gen.recv_ns", "ns"),
    m("serve.share.transport", "ratio"),
    m("serve.share.plane", "ratio"),
    m("serve.share.cell", "ratio"),
    m("netsim.stream.ns_per_exchange", "ns"),
    m("core.clock.ns_per_exchange", "ns"),
    m("netsim.share", "ratio"),
    m("core.share", "ratio"),
    m("core.clock.rebuilds", "count"),
    m("core.clock.shift_events", "count"),
    m("fleet.pool.busy_share", "ratio"),
    m("fleet.pool.skew_ms", "ms"),
    m("fleet.population.client_ms_p50", "ms"),
    m("fleet.population.client_ms_max", "ms"),
    m("fleet.recovery.checkpoints", "count"),
    m("fleet.recovery.crashes", "count"),
    m("fleet.recovery.warm_restores", "count"),
    m("fleet.recovery.cold_restarts", "count"),
    m("fleet.recovery.replayed", "count"),
    m("core.snapshot.seal_ns", "ns"),
    m("core.snapshot.restore_ns", "ns"),
    m("core.snapshot.bytes", "bytes"),
    m("fleet.lifecycle.accept_ratio", "ratio"),
    m("fleet.lifecycle.timeouts", "count"),
    m("trace.ops_per_s", "1/s"),
    m("trace.untraced_ops_per_s", "1/s"),
    m("trace.overhead_pct", "%"),
];

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: &[&str] = &["serve_udp", "fleet_replay", "population_recovery"];

/// Threads a workload runs on: the serve daemon plus the generator, or a
/// two-lane worker pool (the caller plus one worker).
pub const THREADS: usize = 2;

/// Input size of a run: `Full` for measurement, `Tiny` for the
/// benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    /// `full` for a measurement run, `tiny` for a smoke run.
    pub fn pick<T>(self, full: T, tiny: T) -> T {
        match self {
            Size::Full => full,
            Size::Tiny => tiny,
        }
    }

    /// How often set-up is repeated in a run; `setup_s` is the median.
    /// `serve_udp` cuts its run into this many slices, one set-up each.
    pub fn setup_reps(self) -> usize {
        self.pick(21, 1)
    }
}

/// Options of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// `serve_udp` only: requests the generator keeps outstanding.
    pub window: usize,
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted, correctness checks included.
    pub attempted: u64,
    /// Operations that failed or were refused, and failed checks.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    /// Human-readable context: sample counts, sizes.
    pub notes: Vec<String>,
}

impl Report {
    /// Records `value` for the metric `name`.
    ///
    /// # Panics
    /// Panics if `name` is in neither metric table: a benchmark bug.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|x| x.name == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts one correctness check.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// `true` when every operation and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The metrics a run prints, in table order: every end-to-end metric
    /// untraced, every per-layer metric traced (0 where the workload does
    /// not run the layer).
    ///
    /// # Panics
    /// Panics if an end-to-end metric was never set: a benchmark bug.
    pub fn metrics(&self, trace: bool) -> Vec<(Metric, f64)> {
        if trace {
            PER_LAYER
                .iter()
                .map(|x| (*x, self.get(x.name).unwrap_or(0.0)))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|x| {
                    let v = self.get(x.name);
                    (
                        *x,
                        v.unwrap_or_else(|| panic!("{} was not measured", x.name)),
                    )
                })
                .collect()
        }
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// `metrics`. A non-finite value would not be valid JSON; it is
    /// printed as 0 and counted as a failed check.
    pub fn result_json(&mut self, trace: bool) -> String {
        let metrics = self.metrics(trace);
        let mut parts = Vec::with_capacity(metrics.len());
        for (x, v) in metrics {
            let v = if v.is_finite() {
                v
            } else {
                self.check(false);
                0.0
            };
            parts.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, v, x.unit
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            parts.join(", ")
        )
    }
}

/// Runs workload `name`; `None` for an unknown name.
pub fn run_workload(name: &str, opts: &RunOpts) -> Option<Report> {
    Some(match name {
        "serve_udp" => serve_udp::run(opts),
        "fleet_replay" => fleet_replay::run(opts),
        "population_recovery" => population::run(opts),
        _ => return None,
    })
}

/// Sorts `v` ascending (finite values; NaN sorts last).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Nearest-rank quantile of an ascending slice; 0 for an empty one.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `v` (nearest rank).
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// Times `reps` set-ups and keeps the last one: the median set-up time in
/// seconds and its result. Earlier results are dropped outside the timed
/// region.
pub fn timed_setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let r = f();
        times.push(t0.elapsed().as_secs_f64());
        drop(last.replace(r));
    }
    (median(&times), last.expect("at least one set-up"))
}

/// Calls `round` until `seconds` have passed (at least once).
pub fn for_seconds(seconds: f64, mut round: impl FnMut()) {
    let t0 = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    loop {
        round();
        if t0.elapsed() >= budget {
            return;
        }
    }
}

/// Records the traced/untraced throughput pair and the tracing overhead.
pub fn set_trace_overhead(r: &mut Report, untraced_ops_per_s: f64, traced_ops_per_s: f64) {
    r.set("trace.ops_per_s", traced_ops_per_s);
    r.set("trace.untraced_ops_per_s", untraced_ops_per_s);
    r.set(
        "trace.overhead_pct",
        100.0 * (untraced_ops_per_s - traced_ops_per_s) / untraced_ops_per_s,
    );
}

/// Evenly spaced sample of `k` indices out of `0..n`, first and last
/// included.
pub fn spread_sample(n: usize, k: usize) -> Vec<usize> {
    if n == 0 || k == 0 {
        return Vec::new();
    }
    let k = k.min(n);
    let mut v: Vec<usize> = (0..k)
        .map(|j| if k == 1 { 0 } else { j * (n - 1) / (k - 1) })
        .collect();
    v.dedup();
    v
}

/// CPU time the calling thread has used, in nanoseconds. Unlike a wall
/// clock span it excludes time spent blocked, so a span around a
/// blocking receive measures the receive's own cost.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library's, which std links on
    // Linux; on 64-bit Linux `struct timespec` is two 64-bit fields, which
    // `Timespec` mirrors with `repr(C)`, and `ts` is a valid, writable
    // local for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "thread CPU clock unavailable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Fallback where the thread CPU clock is not wired up: reads 0, so CPU
/// spans and busy shares read 0.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu_ns() -> u64 {
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v = sorted((1..=100).map(f64::from).collect());
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn spread_sample_covers_both_ends() {
        assert_eq!(spread_sample(32, 4), vec![0, 10, 20, 31]);
        assert_eq!(spread_sample(2, 4), vec![0, 1]);
        assert_eq!(spread_sample(1, 4), vec![0]);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<_> = END_TO_END.iter().chain(PER_LAYER).map(|x| x.name).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn thread_cpu_clock_advances_with_work() {
        let t0 = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu_ns() > t0);
    }
}
