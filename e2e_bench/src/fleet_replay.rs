//! `fleet_replay`: the discipline side at fleet scale — exchanges in,
//! estimates out, across many clocks.
//!
//! [`replay_fleet`] replays a seeded baseline fleet (poll 64 s) with the
//! default [`FleetConfig`] on a two-lane [`WorkerPool`], one pass per
//! round, until the time is up. No socket or serve code runs.
//!
//! Checks: every round must reproduce the set-up pass exactly, and the
//! digests of a sample of clocks must equal a sequential [`replay_clock`].
//! Accuracy (|Ca(Tf) − true Tf| after warm-up) comes from the fleet's
//! clocks replayed with netsim truth outside the timed region.
//!
//! The traced loop mirrors `replay_clock` per clock — netsim
//! `fill_batch`, then core `process_batch` — with a span around each. Its
//! untraced baseline runs `replay_clock` itself on the same pool, one
//! clock per claim, in passes that alternate with the traced ones, so the
//! tracing overhead is the spans' cost (and the digest fold the mirror
//! skips, which `tsc-fleet` keeps private). The
//! per-layer figures therefore describe that per-clock path, not the
//! stripe engine `replay_fleet` runs with the default `FleetConfig`.

use crate::{median, quantile, sorted, spread_sample, timed_setup, Report, RunOpts, Size};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::{Duration, Instant};
use tsc_fleet::{
    replay_clock, replay_fleet, total_delivered, ClockSummary, FleetConfig, WorkerPool,
};
use tsc_netsim::Scenario;
use tscclock::clock::ClockEvent;
use tscclock::{ClockConfig, ProcessOutput, RawExchange, TscNtpClock};

const POLL: f64 = 64.0;

/// The fleet of `seed`: 128 clocks over six hours; clock `i` replays the
/// baseline scenario with seed `seed + i`. Many short clocks give the pool
/// 16 stripes to balance, so a lane the host stalls delays a pass by
/// about half the stall, not all of it. A pass takes ~30 ms on a 2-vCPU
/// VM, so a 30 s run times ~1000 passes and its pass-time p99 has ~10
/// passes beyond it.
pub fn config(seed: u64, size: Size) -> FleetConfig {
    let scenario = Scenario::baseline(0)
        .with_poll_period(POLL)
        .with_duration(6.0 * 3600.0);
    FleetConfig::new(
        size.pick(128, 4),
        seed,
        scenario,
        ClockConfig::paper_defaults(POLL),
    )
}

/// Compares the summaries of the `sample` clocks with a sequential
/// [`replay_clock`]; returns `(checked, failed)`.
pub fn check_digests(
    cfg: &FleetConfig,
    summaries: &[ClockSummary],
    sample: &[usize],
) -> (u64, u64) {
    let mut failed = 0;
    for &i in sample {
        let seq = replay_clock(
            i,
            &cfg.scenario,
            cfg.base_seed.wrapping_add(i as u64),
            &cfg.clock,
            cfg.ingest_batch,
        );
        failed += u64::from(summaries.get(i) != Some(&seq));
    }
    (sample.len() as u64, failed)
}

/// |Ca(Tf) − true Tf| at every delivered exchange after warm-up, for the
/// `sample` clocks, ascending.
pub fn sample_errors(cfg: &FleetConfig, sample: &[usize]) -> Vec<f64> {
    let mut errors = Vec::new();
    for &i in sample {
        let mut scenario = cfg.scenario.clone();
        scenario.seed = cfg.base_seed.wrapping_add(i as u64);
        let mut clock = TscNtpClock::new(cfg.clock);
        for e in scenario.build().filter(|e| !e.lost) {
            clock.process(RawExchange {
                ta_tsc: e.ta_tsc,
                tb: e.tb,
                te: e.te,
                tf_tsc: e.tf_tsc,
            });
            if clock.status().warmed_up {
                if let Some(ca) = clock.absolute_time(e.tf_tsc) {
                    errors.push((ca - e.truth.tf).abs());
                }
            }
        }
    }
    sorted(errors)
}

/// Spans of one traced clock replay.
#[derive(Debug, Clone, Copy)]
struct ItemTrace {
    gen_ns: u64,
    core_ns: u64,
    delivered: u64,
    rebuilds: u64,
    shifts: u64,
    /// Offsets from the round start (ns) and the lane that ran it.
    start_ns: u64,
    end_ns: u64,
    lane: ThreadId,
    /// Final state, compared with the untraced replay.
    packets: u64,
    p_hat: Option<f64>,
    theta_hat: Option<f64>,
}

/// `replay_clock`'s loop with a span around each layer call.
fn traced_clock(cfg: &FleetConfig, i: usize, round: Instant) -> ItemTrace {
    let start_ns = round.elapsed().as_nanos() as u64;
    let batch = cfg.ingest_batch.max(1);
    let mut clock = TscNtpClock::new(cfg.clock);
    let mut stream = cfg
        .scenario
        .stream_with_seed(cfg.base_seed.wrapping_add(i as u64))
        .raw();
    let mut buf = Vec::with_capacity(batch);
    let mut out: Vec<ProcessOutput> = Vec::with_capacity(batch);
    let (mut gen_ns, mut core_ns, mut delivered, mut rebuilds, mut shifts) = (0, 0, 0, 0, 0);
    loop {
        buf.clear();
        let t0 = Instant::now();
        stream.fill_batch(&mut buf, batch);
        let t1 = Instant::now();
        gen_ns += (t1 - t0).as_nanos() as u64;
        if buf.is_empty() {
            break;
        }
        delivered += buf.len() as u64;
        out.clear();
        clock.process_batch(&buf, &mut out);
        core_ns += t1.elapsed().as_nanos() as u64;
        for o in &out {
            rebuilds += u64::from(o.events.contains(ClockEvent::WindowSlid));
            shifts += u64::from(o.events.contains(ClockEvent::UpwardShift));
        }
    }
    let status = clock.status();
    ItemTrace {
        gen_ns,
        core_ns,
        delivered,
        rebuilds,
        shifts,
        start_ns,
        end_ns: round.elapsed().as_nanos() as u64,
        lane: std::thread::current().id(),
        packets: status.packets,
        p_hat: status.p_hat,
        theta_hat: status.theta_hat,
    }
}

/// One untraced `pass` over the fleet, checked against `reference`: its
/// rate (exchanges/s) and time (µs).
fn timed_pass(
    r: &mut Report,
    pool: &mut WorkerPool,
    reference: &[ClockSummary],
    pass: impl FnOnce(&mut WorkerPool) -> Vec<ClockSummary>,
) -> (f64, f64) {
    let t0 = Instant::now();
    let got = pass(pool);
    let dt = t0.elapsed().as_secs_f64();
    let delivered = total_delivered(&got);
    r.attempted += delivered;
    for (a, b) in got.iter().zip(reference) {
        if a != b {
            r.failed += a.delivered.max(1);
        }
    }
    if got.len() != reference.len() {
        r.check(false);
    }
    (delivered as f64 / dt, dt * 1e6)
}

/// Runs the workload.
pub fn run(opts: &RunOpts) -> Report {
    let mut r = Report::default();
    let (setup_s, (mut pool, cfg, reference)) = timed_setup(opts.size.setup_reps(), || {
        let mut pool = WorkerPool::new(crate::THREADS);
        let cfg = config(opts.seed, opts.size);
        // The warm-up pass fills caches; its result is the reference
        // every timed round must reproduce.
        let reference = replay_fleet(&mut pool, &cfg);
        (pool, cfg, reference)
    });
    let sample = spread_sample(cfg.clocks, 4);
    let (checked, failed) = check_digests(&cfg, &reference, &sample);
    r.attempted += checked;
    r.failed += failed;

    if !opts.trace {
        let (mut rates, mut lat_us) = (Vec::new(), Vec::new());
        crate::for_seconds(opts.seconds, || {
            let (rate, us) = timed_pass(&mut r, &mut pool, &reference, |pool| {
                replay_fleet(pool, &cfg)
            });
            rates.push(rate);
            lat_us.push(us);
        });
        let all: Vec<usize> = (0..cfg.clocks).collect();
        let err_us: Vec<f64> = sample_errors(&cfg, &all).iter().map(|e| e * 1e6).collect();
        let lat_us = sorted(lat_us);
        r.set("setup_s", setup_s);
        r.set("ops_per_s", median(&rates));
        r.set("lat_p50_us", quantile(&lat_us, 0.5));
        r.set("lat_p99_us", quantile(&lat_us, 0.99));
        r.set("err_p50_us", quantile(&err_us, 0.5));
        r.set("err_p99_us", quantile(&err_us, 0.99));
        r.note(format!(
            "fleet_replay: {} clocks x {} exchanges per pass; {} passes timed; \
             error over {} exchanges of all {} clocks",
            cfg.clocks,
            total_delivered(&reference) / cfg.clocks as u64,
            lat_us.len(),
            err_us.len(),
            cfg.clocks
        ));
        return r;
    }

    // Untraced and traced passes alternate, each first in turn, so drift
    // of the host's speed falls on both alike. The untraced pass runs
    // `replay_clock` itself, the loop the traced pass mirrors.
    let shared = Arc::new(cfg.clone());
    let scalar = |pool: &mut WorkerPool| {
        let cfg = Arc::clone(&shared);
        pool.run(cfg.clocks, 1, move |i| {
            let seed = cfg.base_seed.wrapping_add(i as u64);
            replay_clock(i, &cfg.scenario, seed, &cfg.clock, cfg.ingest_batch)
        })
    };
    let mut untraced = Vec::new();
    let mut round_no = 0u64;
    let main_lane = std::thread::current().id();
    let (mut rates, mut busy, mut skew_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut gen_ns, mut core_ns, mut delivered) = (0u64, 0u64, 0u64);
    let (mut rebuilds, mut shifts) = (0u64, 0u64);
    crate::for_seconds(opts.seconds, || {
        round_no += 1;
        if !round_no.is_multiple_of(2) {
            untraced.push(timed_pass(&mut r, &mut pool, &reference, scalar).0);
        }
        let cfg = Arc::clone(&shared);
        let round = Instant::now();
        let items = pool.run(cfg.clocks, 1, move |i| traced_clock(&cfg, i, round));
        let wall = round.elapsed();
        let round_delivered: u64 = items.iter().map(|t| t.delivered).sum();
        rates.push(round_delivered as f64 / wall.as_secs_f64());
        let item_ns: u64 = items.iter().map(|t| t.end_ns - t.start_ns).sum();
        busy.push(item_ns as f64 / (wall.as_nanos() as f64 * crate::THREADS as f64));
        let lane_end = |main: bool| {
            items
                .iter()
                .filter(|t| (t.lane == main_lane) == main)
                .map(|t| t.end_ns)
                .max()
                .unwrap_or(0)
        };
        let skew = Duration::from_nanos(lane_end(true).abs_diff(lane_end(false)));
        skew_ms.push(skew.as_secs_f64() * 1e3);
        for (t, s) in items.iter().zip(&reference) {
            let same = t.delivered == s.delivered
                && t.packets == s.packets
                && t.p_hat == s.p_hat
                && t.theta_hat == s.theta_hat;
            r.check(same);
        }
        r.attempted += round_delivered;
        gen_ns += items.iter().map(|t| t.gen_ns).sum::<u64>();
        core_ns += items.iter().map(|t| t.core_ns).sum::<u64>();
        delivered += round_delivered;
        rebuilds = items.iter().map(|t| t.rebuilds).sum();
        shifts = items.iter().map(|t| t.shifts).sum();
        if round_no.is_multiple_of(2) {
            untraced.push(timed_pass(&mut r, &mut pool, &reference, scalar).0);
        }
    });
    let per = delivered.max(1) as f64;
    let layers = (gen_ns + core_ns).max(1) as f64;
    r.set("netsim.stream.ns_per_exchange", gen_ns as f64 / per);
    r.set("core.clock.ns_per_exchange", core_ns as f64 / per);
    r.set("netsim.share", gen_ns as f64 / layers);
    r.set("core.share", core_ns as f64 / layers);
    r.set("core.clock.rebuilds", rebuilds as f64);
    r.set("core.clock.shift_events", shifts as f64);
    r.set("fleet.pool.busy_share", median(&busy));
    r.set("fleet.pool.skew_ms", median(&skew_ms));
    crate::set_trace_overhead(&mut r, median(&untraced), median(&rates));
    r.note(format!(
        "fleet_replay traced: {} traced and {} untraced passes, alternating; \
         rebuilds and shift events are per pass",
        rates.len(),
        untraced.len()
    ));
    r
}
