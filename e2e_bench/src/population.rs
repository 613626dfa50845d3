//! `population_recovery`: the same core estimator and pool used on demand
//! — lifecycle clients handling one exchange at a time through
//! `LifecycleClient`, with snapshot sealing and crash restores beside
//! ingest.
//!
//! [`replay_population_checkpointed`] replays a consumer-mix population
//! with a mid-run server outage, a checkpoint cadence and a seeded
//! [`CrashPlan`] on a two-lane [`WorkerPool`], one pass per round.
//!
//! Checks: every round must reproduce the set-up pass exactly, and the
//! crash-recovered summaries of a sample of clients must equal an
//! uninterrupted [`replay_population_client`]. Accuracy is the
//! accepted-exchange errors `ClientSummary.errors` records, pooled over a
//! larger population of the same configuration ([`ERR_CLIENTS`] clients,
//! of which the timed ones are the first), replayed outside the timed
//! region: the error tail depends on how many mobile and satellite
//! clients the mix draws, which a 48-client population leaves to chance.
//!
//! The traced run alternates untraced passes with passes that time each
//! client's replay as one pool item, in the library's chunk, and seals
//! and restores sampled clients' `LifecycleClient` snapshots on a
//! separate drive of the same client.

use crate::{median, quantile, sorted, spread_sample, timed_setup, Report, RunOpts, Size};
use std::sync::Arc;
use std::time::Instant;
use tsc_fleet::{
    replay_population, replay_population_checkpointed, replay_population_client,
    replay_population_client_checkpointed, ClientSummary, CrashPlan, LatestCheckpoint,
    LifecycleClient, LifecycleConfig, PopulationConfig, PopulationSummary, RecoveryStats,
    WorkerPool,
};
use tsc_netsim::{OnDemandSim, Scenario};
use tscclock::{ClockConfig, RawExchange};

const POLL: f64 = 64.0;

/// Clients whose errors make the accuracy sample.
pub const ERR_CLIENTS: usize = 4096;

/// One population replay's inputs.
#[derive(Debug, Clone)]
pub struct Setup {
    pub cfg: PopulationConfig,
    pub checkpoint_every: u64,
    pub crash: CrashPlan,
}

/// The population of `seed`: 48 consumer-mix clients over six hours, a
/// one-hour outage at 40 % of the horizon, a checkpoint every 64
/// requests, and half the clients crashing up to three times. The
/// library's default chunk makes that 16 claims of 3 clients. With 32
/// clients (16 claims of 2) the order in which the lanes drew the costly
/// clients set the pass time, and the pass-time p99 spread twice as much
/// between runs. A pass takes ~27 ms on a 2-vCPU VM, so a 30 s run times
/// ~1100 passes and its pass-time p99 has ~11 passes beyond it.
pub fn config(seed: u64, size: Size) -> Setup {
    let duration = size.pick(6.0 * 3600.0, 3.0 * 3600.0);
    let outage = 0.4 * duration;
    let scenario = Scenario::baseline(0)
        .with_poll_period(POLL)
        .with_duration(duration)
        .with_outage(outage, outage + 3600.0);
    Setup {
        cfg: PopulationConfig::new(
            size.pick(48, 4),
            seed,
            scenario,
            ClockConfig::paper_defaults(POLL),
        ),
        checkpoint_every: 64,
        crash: CrashPlan {
            seed: seed ^ 0xC4A5_11ED,
            crash_frac: 0.5,
            max_crashes: 3,
            horizon_packets: (duration / POLL) as u64,
        },
    }
}

/// Compares the crash-recovered summaries of the `sample` clients with an
/// uninterrupted replay; returns `(checked, failed)`.
pub fn check_recovered(
    cfg: &PopulationConfig,
    summary: &PopulationSummary,
    sample: &[usize],
) -> (u64, u64) {
    let mut failed = 0;
    for &i in sample {
        let clean = replay_population_client(cfg, i);
        failed += u64::from(summary.clients.get(i) != Some(&clean));
    }
    (sample.len() as u64, failed)
}

/// Clients to check: up to three that crash, plus one that does not.
fn recovery_sample(s: &Setup) -> Vec<usize> {
    let n = s.cfg.clients;
    let mut v: Vec<usize> = (0..n)
        .filter(|&i| !s.crash.points(i).is_empty())
        .take(3)
        .collect();
    v.extend((0..n).find(|&i| s.crash.points(i).is_empty()));
    v
}

fn requests(clients: &[ClientSummary]) -> u64 {
    clients.iter().map(|c| c.counters.0).sum()
}

/// One untraced pass, checked against `reference`: its rate (requests/s)
/// and time (µs).
fn timed_pass(
    r: &mut Report,
    pool: &mut WorkerPool,
    s: &Setup,
    reference: &(PopulationSummary, RecoveryStats),
) -> (f64, f64) {
    let t0 = Instant::now();
    let got = replay_population_checkpointed(pool, &s.cfg, s.checkpoint_every, &s.crash);
    let dt = t0.elapsed().as_secs_f64();
    let n = requests(&got.0.clients);
    r.attempted += n;
    for (a, b) in got.0.clients.iter().zip(&reference.0.clients) {
        if a != b {
            r.failed += a.counters.0.max(1);
        }
    }
    r.check(got.1 == reference.1 && got.0.clients.len() == reference.0.clients.len());
    (n as f64 / dt, dt * 1e6)
}

/// Seal and restore timings of client `i`'s `LifecycleClient`, taken every
/// `every` requests along a drive of the client (the same construction as
/// the population replay). Returns `(seal_ns, restore_ns, bytes, ok)`;
/// `ok` is `false` if a restored client re-seals to different bytes.
fn snapshot_probe(
    cfg: &PopulationConfig,
    i: usize,
    every: u64,
) -> (Vec<f64>, Vec<f64>, Vec<f64>, bool) {
    let seed = cfg.base_seed.wrapping_add(i as u64);
    let profile = cfg.mix.assign(cfg.base_seed, i);
    let scenario = profile.apply(&cfg.scenario, seed);
    let lc = LifecycleConfig::for_profile(profile, scenario.poll_period);
    let mut client = LifecycleClient::new(lc, cfg.clock, seed, 0.0);
    let mut sim = OnDemandSim::new(&scenario);
    let nominal_period = 1.0 / sim.tsc_freq_hz();
    let (mut seal, mut restore, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    let mut ok = true;
    let mut n = 0u64;
    loop {
        let t = client.next_send().max(sim.earliest_next());
        if t >= scenario.duration {
            return (seal, restore, bytes, ok);
        }
        client.end_cooldown(t);
        client.note_request();
        let e = sim.exchange_at(t);
        if e.lost || e.truth.tf - t > lc.timeout {
            client.on_timeout(t + lc.timeout);
        } else {
            let raw = RawExchange {
                ta_tsc: e.ta_tsc,
                tb: e.tb,
                te: e.te,
                tf_tsc: e.tf_tsc,
            };
            client.on_response(e.truth.tf, raw, nominal_period);
        }
        n += 1;
        if n.is_multiple_of(every) {
            let t0 = Instant::now();
            let blob = client.snapshot();
            let t1 = Instant::now();
            let restored = LifecycleClient::restore(&blob);
            let t2 = Instant::now();
            seal.push((t1 - t0).as_nanos() as f64);
            restore.push((t2 - t1).as_nanos() as f64);
            bytes.push(blob.len() as f64);
            match restored {
                Ok(c) => {
                    ok &= c.snapshot() == blob;
                    client = c;
                }
                Err(_) => ok = false,
            }
        }
    }
}

/// Runs the workload.
pub fn run(opts: &RunOpts) -> Report {
    let mut r = Report::default();
    let (setup_s, (mut pool, s, reference)) = timed_setup(opts.size.setup_reps(), || {
        let mut pool = WorkerPool::new(crate::THREADS);
        let s = config(opts.seed, opts.size);
        // The warm-up pass fills caches; its result is the reference
        // every timed round must reproduce.
        let reference =
            replay_population_checkpointed(&mut pool, &s.cfg, s.checkpoint_every, &s.crash);
        (pool, s, reference)
    });
    let (checked, failed) = check_recovered(&s.cfg, &reference.0, &recovery_sample(&s));
    r.attempted += checked;
    r.failed += failed;

    if !opts.trace {
        let (mut rates, mut lat_us) = (Vec::new(), Vec::new());
        crate::for_seconds(opts.seconds, || {
            let (rate, us) = timed_pass(&mut r, &mut pool, &s, &reference);
            rates.push(rate);
            lat_us.push(us);
        });
        let err_cfg = PopulationConfig {
            clients: opts.size.pick(ERR_CLIENTS, 8),
            ..s.cfg.clone()
        };
        let err_pop = replay_population(&mut pool, &err_cfg);
        r.check(err_pop.clients[..s.cfg.clients] == reference.0.clients[..]);
        let err_us = sorted(
            err_pop
                .clients
                .iter()
                .flat_map(|c| c.errors.iter().map(|e| e * 1e6))
                .collect(),
        );
        r.set("setup_s", setup_s);
        r.set("ops_per_s", median(&rates));
        let lat_us = sorted(lat_us);
        r.set("lat_p50_us", quantile(&lat_us, 0.5));
        r.set("lat_p99_us", quantile(&lat_us, 0.99));
        r.set("err_p50_us", quantile(&err_us, 0.5));
        r.set("err_p99_us", quantile(&err_us, 0.99));
        r.note(format!(
            "population_recovery: {} clients, {} requests per pass, {:?}; {} passes timed; \
             error over {} accepted exchanges of {} clients",
            s.cfg.clients,
            requests(&reference.0.clients),
            reference.1,
            lat_us.len(),
            err_us.len(),
            err_cfg.clients
        ));
        return r;
    }

    // Untraced and traced passes alternate, each first in turn, so drift
    // of the host's speed falls on both alike.
    let mut untraced = Vec::new();
    let mut round_no = 0u64;
    let shared = Arc::new(s.clone());
    // The chunk `replay_population_checkpointed` picks for its default 0.
    let chunk = (s.cfg.clients / (8 * pool.threads())).max(1);
    let (mut rates, mut busy, mut client_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut stats = RecoveryStats::default();
    let (mut req, mut acc, mut timeouts) = (0u64, 0u64, 0u64);
    crate::for_seconds(opts.seconds, || {
        round_no += 1;
        if !round_no.is_multiple_of(2) {
            untraced.push(timed_pass(&mut r, &mut pool, &shared, &reference).0);
        }
        let s = Arc::clone(&shared);
        let round = Instant::now();
        let items = pool.run(s.cfg.clients, chunk, move |i| {
            let t0 = Instant::now();
            let points = s.crash.points(i);
            let mut store = LatestCheckpoint::default();
            let out = replay_population_client_checkpointed(
                &s.cfg,
                i,
                s.checkpoint_every,
                &points,
                &mut store,
            );
            (out, t0.elapsed())
        });
        let wall = round.elapsed();
        let busy_ns: u128 = items.iter().map(|(_, d)| d.as_nanos()).sum();
        busy.push(busy_ns as f64 / (wall.as_nanos() as f64 * crate::THREADS as f64));
        client_ms.extend(items.iter().map(|(_, d)| d.as_secs_f64() * 1e3));
        stats = RecoveryStats::default();
        (req, acc, timeouts) = (0, 0, 0);
        for (((c, st), _), want) in items.iter().zip(&reference.0.clients) {
            r.check(c == want);
            stats.merge(*st);
            req += c.counters.0;
            acc += c.counters.1;
            timeouts += c.counters.3;
        }
        r.attempted += req;
        rates.push(req as f64 / wall.as_secs_f64());
        if round_no.is_multiple_of(2) {
            untraced.push(timed_pass(&mut r, &mut pool, &shared, &reference).0);
        }
    });
    let (mut seal, mut restore, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    for i in spread_sample(s.cfg.clients, 4) {
        let (a, b, c, ok) = snapshot_probe(&s.cfg, i, s.checkpoint_every);
        seal.extend(a);
        restore.extend(b);
        bytes.extend(c);
        r.check(ok);
    }
    let client_ms = sorted(client_ms);
    r.set("fleet.population.client_ms_p50", quantile(&client_ms, 0.5));
    r.set("fleet.population.client_ms_max", quantile(&client_ms, 1.0));
    r.set("fleet.recovery.checkpoints", stats.checkpoints as f64);
    r.set("fleet.recovery.crashes", stats.crashes as f64);
    r.set("fleet.recovery.warm_restores", stats.warm_restores as f64);
    r.set("fleet.recovery.cold_restarts", stats.cold_restarts as f64);
    r.set("fleet.recovery.replayed", stats.replayed as f64);
    r.set("core.snapshot.seal_ns", median(&seal));
    r.set("core.snapshot.restore_ns", median(&restore));
    r.set("core.snapshot.bytes", median(&bytes));
    r.set(
        "fleet.lifecycle.accept_ratio",
        acc as f64 / req.max(1) as f64,
    );
    r.set("fleet.lifecycle.timeouts", timeouts as f64);
    r.set("fleet.pool.busy_share", median(&busy));
    crate::set_trace_overhead(&mut r, median(&untraced), median(&rates));
    r.note(format!(
        "population_recovery traced: {} traced and {} untraced passes, alternating; \
         recovery and lifecycle counts are per pass; {} snapshot seals timed",
        rates.len(),
        untraced.len(),
        seal.len()
    ));
    r
}
