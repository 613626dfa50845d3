//! Fleet parity: parallel replay must equal sequential per-clock replay,
//! bit for bit, for every clock, at every thread count and shard geometry.
//!
//! The digest in [`ClockSummary`] folds the bit pattern of every
//! per-packet output, so digest equality here means the parallel engine
//! reproduced each clock's entire output stream exactly — not just its
//! final estimates.

use proptest::prelude::*;
use tsc_fleet::{
    compare_herd, replay_fleet, replay_population, replay_population_sequential, replay_quorum_fleet,
    replay_quorum_sequential, replay_sequential, ChurnPlan, FleetConfig, PopulationConfig,
    QuorumFleetConfig, WorkerPool,
};
use tsc_netsim::{
    LevelShift, MultiServerScenario, PathProfile, ProfileMix, Scenario, ServerKind, ServerPath,
};
use tsc_quorum::QuorumConfig;
use tscclock::ClockConfig;

/// Thread counts to exercise: env `FLEET_PARITY_THREADS` (e.g. "1,4"), or
/// {1, 2, 4, 8} by default — at least three counts, per the PR acceptance
/// criteria.
fn parity_thread_counts() -> Vec<usize> {
    match std::env::var("FLEET_PARITY_THREADS") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("FLEET_PARITY_THREADS: bad count"))
            .collect(),
        Err(_) => vec![1, 2, 4, 8],
    }
}

fn eventful_fleet(clocks: usize) -> FleetConfig {
    // A scenario with enough going on to exercise loss, outage recovery and
    // level-shift re-basing inside every clock's replay.
    let scenario = Scenario::baseline(0)
        .with_poll_period(64.0)
        .with_duration(64.0 * 600.0)
        .with_server(ServerKind::Int)
        .with_outage(64.0 * 200.0, 64.0 * 230.0)
        .with_shift(LevelShift::forward_only(64.0 * 350.0, None, 0.9e-3));
    let mut cfg = FleetConfig::new(clocks, 7, scenario, ClockConfig::paper_defaults(64.0));
    cfg.ingest_batch = 97; // deliberately not a divisor of the stream length
    cfg
}

#[test]
fn fleet_parallel_replay_is_bit_exact_at_every_thread_count() {
    let cfg = eventful_fleet(24);
    let expected = replay_sequential(&cfg);
    assert_eq!(expected.len(), 24);
    // sanity: the scenario actually produced work for every clock
    for s in &expected {
        assert!(s.delivered > 500, "clock {}: {}", s.clock, s.delivered);
        assert!(s.p_hat.is_some() && s.theta_hat.is_some());
    }
    let counts = parity_thread_counts();
    assert!(counts.len() >= 2 || std::env::var("FLEET_PARITY_THREADS").is_ok());
    for threads in counts {
        let mut pool = WorkerPool::new(threads);
        let got = replay_fleet(&mut pool, &cfg);
        assert_eq!(got.len(), expected.len(), "threads {threads}");
        for (g, e) in got.iter().zip(&expected) {
            // ClockSummary is PartialEq, but compare digests explicitly so
            // a mismatch names the clock and both digests
            assert_eq!(
                g.digest, e.digest,
                "clock {} diverged at {} threads",
                e.clock, threads
            );
            assert_eq!(g, e, "summary mismatch at {threads} threads");
        }
    }
}

#[test]
fn chunk_size_cannot_change_results() {
    let cfg0 = eventful_fleet(10);
    let expected = replay_sequential(&cfg0);
    for chunk in [1, 2, 3, 7, 10, 1000] {
        let mut cfg = cfg0.clone();
        cfg.chunk = chunk;
        let mut pool = WorkerPool::new(3);
        assert_eq!(replay_fleet(&mut pool, &cfg), expected, "chunk {chunk}");
    }
}

/// Multi-source replay: one fleet entry = K clocks + health + combiner.
/// An eventful template (per-server outage, one silently-asymmetric
/// server, loss) exercises demotion and exclusion inside every entry.
fn eventful_quorum_fleet(entries: usize) -> QuorumFleetConfig {
    let scenario = MultiServerScenario::baseline(3, 0)
        .with_poll_period(64.0)
        .with_duration(64.0 * 500.0)
        .with_server_path(
            1,
            ServerPath::new(ServerKind::Int).with_outage(64.0 * 150.0, 64.0 * 250.0),
        )
        .with_server_path(
            2,
            ServerPath::new(ServerKind::Ext)
                .with_shift(LevelShift::asymmetric(64.0 * 300.0, None, 2e-3)),
        );
    QuorumFleetConfig::new(entries, 99, scenario, QuorumConfig::paper_defaults(64.0))
}

#[test]
fn quorum_fleet_replay_is_bit_exact_at_every_thread_count() {
    let cfg = eventful_quorum_fleet(12);
    let expected = replay_quorum_sequential(&cfg);
    assert_eq!(expected.len(), 12);
    for s in &expected {
        assert_eq!(s.rounds, 500, "entry {}", s.entry);
        assert!(s.combined_rounds > 400, "entry {}", s.entry);
        assert!(s.p_hat.is_some());
    }
    // the scenario's faults actually bite: the dark and lying servers are
    // demoted in (at least most) entries
    let demotions = expected.iter().filter(|s| s.demoted_mask != 0).count();
    assert!(demotions > 8, "faults inert in {demotions}/12 entries");
    for threads in parity_thread_counts() {
        let mut pool = WorkerPool::new(threads);
        let got = replay_quorum_fleet(&mut pool, &cfg);
        assert_eq!(got.len(), expected.len(), "threads {threads}");
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(
                g.digest, e.digest,
                "entry {} diverged at {} threads",
                e.entry, threads
            );
            assert_eq!(g, e, "summary mismatch at {threads} threads");
        }
    }
}

/// The paper's Table-2 testbed (Loc + Int + Ext,
/// `MultiServerScenario::paper_testbed`) as a fleet template, with a
/// silent asymmetry step on the Ext path: every entry's quorum must
/// demote the faulted far server while the heterogeneous-but-healthy
/// Loc/Int pair keeps its vote, and replay must stay bit-exact across
/// thread counts.
#[test]
fn paper_testbed_quorum_fleet_excludes_faulted_ext() {
    let scenario = MultiServerScenario::paper_testbed(0)
        .with_duration(16.0 * 600.0)
        .with_server_path(
            2,
            ServerPath::new(ServerKind::Ext)
                .with_shift(LevelShift::asymmetric(16.0 * 300.0, None, 2e-3)),
        );
    let cfg = QuorumFleetConfig::new(6, 7, scenario, QuorumConfig::paper_defaults(16.0));
    let expected = replay_quorum_sequential(&cfg);
    assert_eq!(expected.len(), 6);
    let demoted = expected
        .iter()
        .filter(|s| s.demoted_mask & 0b100 != 0)
        .count();
    assert!(demoted >= 5, "Ext fault demoted in only {demoted}/6 entries");
    for s in &expected {
        assert_eq!(
            s.demoted_mask & 0b011,
            0,
            "healthy Loc/Int demoted in entry {}",
            s.entry
        );
        assert!(s.combined_rounds > 500, "entry {}", s.entry);
    }
    for threads in parity_thread_counts() {
        let mut pool = WorkerPool::new(threads);
        assert_eq!(replay_quorum_fleet(&mut pool, &cfg), expected, "threads {threads}");
    }
}

#[test]
fn quorum_fleet_chunk_size_cannot_change_results() {
    let cfg0 = eventful_quorum_fleet(6);
    let expected = replay_quorum_sequential(&cfg0);
    for chunk in [1, 2, 5, 100] {
        let mut cfg = cfg0.clone();
        cfg.chunk = chunk;
        let mut pool = WorkerPool::new(3);
        assert_eq!(replay_quorum_fleet(&mut pool, &cfg), expected, "chunk {chunk}");
    }
}

/// An eventful lifecycle population: heterogeneous profiles, a server
/// outage mid-replay (backoff + cooldown churn inside every client), and
/// join/leave churn on top.
fn eventful_population(clients: usize) -> PopulationConfig {
    let scenario = Scenario::baseline(0)
        .with_poll_period(16.0)
        .with_duration(3.0 * 3600.0)
        .with_outage(3600.0, 3600.0 + 900.0)
        .with_shift(LevelShift::forward_only(2.0 * 3600.0, None, 0.9e-3));
    let mut cfg = PopulationConfig::new(clients, 31, scenario, ClockConfig::paper_defaults(16.0));
    cfg.churn = ChurnPlan {
        join_frac: 0.3,
        join_window: (600.0, 1800.0),
        leave_frac: 0.2,
        leave_window: (2.0 * 3600.0, 2.5 * 3600.0),
    };
    cfg
}

#[test]
fn population_replay_is_bit_exact_at_every_thread_count() {
    let cfg = eventful_population(16);
    let expected = replay_population_sequential(&cfg);
    assert_eq!(expected.clients.len(), 16);
    // sanity: the scenario bites — outage timeouts happened fleet-wide,
    // and churn actually moved some member windows
    let timeouts: u64 = expected.clients.iter().map(|c| c.counters.3).sum();
    assert!(timeouts > 16, "outage inert: {timeouts} timeouts");
    assert!(expected.clients.iter().any(|c| c.joined_at > 0.0));
    assert!(expected.clients.iter().any(|c| c.left_at < cfg.scenario.duration));
    for threads in parity_thread_counts() {
        let mut pool = WorkerPool::new(threads);
        let got = replay_population(&mut pool, &cfg);
        assert_eq!(got.clients.len(), expected.clients.len(), "threads {threads}");
        for (g, e) in got.clients.iter().zip(&expected.clients) {
            assert_eq!(
                g.digest, e.digest,
                "client {} diverged at {} threads",
                e.client, threads
            );
            assert_eq!(g, e, "summary mismatch at {threads} threads");
        }
        assert_eq!(got.digest(), expected.digest(), "threads {threads}");
    }
}

#[test]
fn population_chunk_size_cannot_change_results() {
    let cfg0 = eventful_population(8);
    let expected = replay_population_sequential(&cfg0);
    for chunk in [1, 2, 3, 7, 8, 1000] {
        let mut cfg = cfg0.clone();
        cfg.chunk = chunk;
        let mut pool = WorkerPool::new(3);
        let got = replay_population(&mut pool, &cfg);
        assert_eq!(got, expected, "chunk {chunk}");
    }
}

proptest! {
    /// Shard geometry — fleet size, chunk size, ingest batch, thread
    /// count — must never influence any clock's replay.
    #[test]
    fn parity_over_shard_geometry(
        clocks in 1usize..7,
        chunk in 1usize..9,
        ingest_batch in 1usize..80,
        threads in 1usize..5,
        seed in 0u64..1000,
    ) {
        let scenario = Scenario::baseline(0)
            .with_poll_period(1024.0)
            .with_duration(1024.0 * 150.0);
        let mut cfg = FleetConfig::new(
            clocks,
            seed,
            scenario,
            ClockConfig::paper_defaults(1024.0),
        );
        cfg.chunk = chunk;
        cfg.ingest_batch = ingest_batch;
        let expected = replay_sequential(&cfg);
        let mut pool = WorkerPool::new(threads);
        let got = replay_fleet(&mut pool, &cfg);
        prop_assert_eq!(got, expected);
    }
}

// ---------------------------------------------------------------------------
// Golden digests
//
// The parity tests above compare one engine against another, so they would
// still pass if every engine drifted together. These constants pin the
// absolute digests of the same small configurations, so any change to the
// clock's floating-point operation order shows up here as a mismatch.

const GOLDEN_FLEET: [u64; 24] = [
    0x22140e1f94a401bb, 0xeecf5dfb65ec5641, 0xeae0934158e7ef31, 0x8573a7f2f78f1e71,
    0x93c3c212fca5ec59, 0xfdad2ff05b21ef41, 0x5aba23fecbb40f33, 0x766be9387d8a7853,
    0xf51f0a67274de63f, 0x42a8bd989ea8f145, 0x5c18fa2cc868ea65, 0x525b494fdd72933d,
    0x8a0bfe522fdfb0d4, 0x6c3dd8763c5dea09, 0x461b72e4b8aa465c, 0x9d07e50eb3642bdf,
    0xdd7117a581debc4b, 0x200e189e6e9765b6, 0x269bc610d2287159, 0x0b9e847d1c7c064b,
    0x1b6d7f84b7af495d, 0x436014266da44d0e, 0xc9b64989084a687d, 0x25f3fb68c3143c03,
];

const GOLDEN_QUORUM: [u64; 12] = [
    0x4f4f1070e659fc4b, 0xfb4a5960ffb283b2, 0x9adb8ba380660711, 0x7d4c5470d9ca4b8f,
    0xba193cc0844f57e9, 0xdcc3def53d10f494, 0xc47dda6ae5a446a3, 0xd7bcf6876d078950,
    0xe2a4960a2063130f, 0x3152864de2938160, 0x21322a2a930055e4, 0xbaf59350ba64018d,
];

const GOLDEN_TESTBED: [u64; 6] = [
    0x4e39fab6eec2cfa1, 0xa66b35f790f1ba5b, 0x499a4e96dd3c6f55, 0x9ccb1e0304da96bd,
    0x8321ac8ffeb55984, 0xf435c39ee8bc629d,
];

const GOLDEN_POPULATION: u64 = 0xa43a6f955c540783;

/// `(naive, jittered)` population digests of the herd ablation
/// configuration the lifecycle and crash-recovery suites build.
const GOLDEN_HERD: (u64, u64) = (0xde71e89251d273f7, 0xccfd7ae71df434a7);

#[test]
fn golden_fleet_digests_are_pinned() {
    let cfg = eventful_fleet(24);
    let seq: Vec<u64> = replay_sequential(&cfg).iter().map(|s| s.digest).collect();
    assert_eq!(seq, GOLDEN_FLEET, "sequential fleet digests drifted");
    let mut pool = WorkerPool::new(2);
    let par: Vec<u64> = replay_fleet(&mut pool, &cfg).iter().map(|s| s.digest).collect();
    assert_eq!(par, GOLDEN_FLEET, "pooled fleet digests drifted");
}

#[test]
fn golden_quorum_digests_are_pinned() {
    let got: Vec<u64> = replay_quorum_sequential(&eventful_quorum_fleet(12))
        .iter()
        .map(|s| s.digest)
        .collect();
    assert_eq!(got, GOLDEN_QUORUM, "quorum fleet digests drifted");
    let scenario = MultiServerScenario::paper_testbed(0)
        .with_duration(16.0 * 600.0)
        .with_server_path(
            2,
            ServerPath::new(ServerKind::Ext)
                .with_shift(LevelShift::asymmetric(16.0 * 300.0, None, 2e-3)),
        );
    let cfg = QuorumFleetConfig::new(6, 7, scenario, QuorumConfig::paper_defaults(16.0));
    let got: Vec<u64> = replay_quorum_sequential(&cfg).iter().map(|s| s.digest).collect();
    assert_eq!(got, GOLDEN_TESTBED, "paper-testbed quorum digests drifted");
}

#[test]
fn golden_population_digests_are_pinned() {
    let got = replay_population_sequential(&eventful_population(16)).digest();
    assert_eq!(got, GOLDEN_POPULATION, "population digest drifted");
    let scenario = Scenario::baseline(0)
        .with_poll_period(16.0)
        .with_duration(2.0 * 3600.0)
        .with_outage(3600.0, 3600.0 + 600.0);
    let mut cfg = PopulationConfig::new(64, 5, scenario, ClockConfig::paper_defaults(16.0));
    cfg.mix = ProfileMix::single(PathProfile::Wifi);
    cfg.naive_retry = 2.0;
    let mut pool = WorkerPool::new(2);
    let herd = compare_herd(&mut pool, &cfg, 16.0);
    assert_eq!(
        (herd.naive.digest(), herd.jittered.digest()),
        GOLDEN_HERD,
        "herd ablation digests drifted"
    );
}
