//! The benchmark's own tests: tiny runs print every metric with its unit,
//! `BENCHMARK.json` declares the same metrics, and the correctness checks
//! count a wrong served time and a wrong digest as failures.

use e2e_bench::serve_udp::{connect, drive, Counter, Discipline, WINDOW};
use e2e_bench::{fleet_replay, run_workload, RunOpts, Size, END_TO_END, PER_LAYER, WORKLOADS};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tsc_fleet::{replay_fleet, WorkerPool};
use tsc_ntp::packet::NtpPacket;
use tsc_ntp::timestamp::NtpTimestamp;
use tsc_serve::{BatchBufs, DatagramBatch, ServeConfig, ServePlane, UdpBatchTransport};

fn tiny(trace: bool) -> RunOpts {
    RunOpts {
        seed: 7,
        seconds: 0.3,
        trace,
        size: Size::Tiny,
        window: WINDOW,
    }
}

fn assert_prints_every_metric(workload: &str, trace: bool) {
    let mut report = run_workload(workload, &tiny(trace)).expect("known workload");
    let line = report.result_json(trace);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{workload}: {line}"
    );
    let table = if trace { PER_LAYER } else { END_TO_END };
    for m in table {
        let needle = format!("\"{}\": {{\"value\": ", m.name);
        let at = line
            .find(&needle)
            .unwrap_or_else(|| panic!("{workload}: no {}", m.name));
        let unit = format!("\"unit\": \"{}\"}}", m.unit);
        assert!(line[at..].starts_with(&needle) && line[at..].contains(&unit));
        let rest = &line[at + needle.len()..];
        let value: f64 = rest[..rest.find(',').expect("value ends")]
            .parse()
            .expect("a number");
        assert!(value.is_finite());
        if !trace {
            assert!(value > 0.0, "{workload}: {} is {value}", m.name);
        }
    }
}

#[test]
fn serve_udp_prints_every_metric() {
    assert_prints_every_metric("serve_udp", false);
    assert_prints_every_metric("serve_udp", true);
}

#[test]
fn fleet_replay_prints_every_metric() {
    assert_prints_every_metric("fleet_replay", false);
    assert_prints_every_metric("fleet_replay", true);
}

#[test]
fn population_recovery_prints_every_metric() {
    assert_prints_every_metric("population_recovery", false);
    assert_prints_every_metric("population_recovery", true);
}

#[test]
fn benchmark_json_declares_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
        assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        spec.matches("\"unit\": ").count(),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json declares a metric the benchmark does not print"
    );
    for w in WORKLOADS {
        assert!(spec.contains(&format!("{{\"name\": \"{w}\", \"why\": ")));
    }
}

#[test]
fn unknown_workload_is_refused() {
    assert!(run_workload("no_such_workload", &tiny(false)).is_none());
}

/// A responder that serves from the real plane, then moves every `Tb`
/// one second later — far past its bound.
#[test]
fn shifted_served_time_counts_as_failure() {
    let mut disc = Discipline::warmed(3, 256);
    let counter = Counter::new(disc.last_tsc());
    let cell = disc.cell();
    let mut transport = UdpBatchTransport::bind("127.0.0.1:0", 64).expect("bind");
    let addr = transport.local_addr().expect("addr");
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let responder = std::thread::spawn(move || {
        let mut plane = ServePlane::new(cell, ServeConfig::default());
        let (mut rx, mut tx) = (BatchBufs::new(64), BatchBufs::new(64));
        let mut tsc = move || counter.now();
        while !stop2.load(Ordering::SeqCst) {
            let n = transport.recv_batch(&mut rx, 64).expect("recv");
            plane.serve_batch(&rx, n, &mut tx, &mut tsc);
            for i in 0..n {
                if tx.len(i) == 0 {
                    continue;
                }
                let mut p = NtpPacket::decode(tx.slot(i)).expect("own response decodes");
                p.receive_ts =
                    NtpTimestamp::from_unix_seconds(p.receive_ts.to_unix_seconds() + 1.0);
                p.encode_into(tx.slot_mut(i));
            }
            transport.send_batch(&tx, n).expect("send");
        }
    });
    disc.publish(&counter);
    let sock = connect(addr).expect("responder answers");
    let g = drive(&sock, &mut disc, &counter, 0.2, WINDOW, false).expect("drive");
    stop.store(true, Ordering::SeqCst);
    responder.join().expect("responder");
    assert!(g.sent > 0);
    assert_eq!(g.valid, 0);
    assert_eq!(g.out_of_bound, g.sent - g.lost);
    assert!(g.failed() >= g.out_of_bound && g.out_of_bound > 0);
}

#[test]
fn honest_responder_passes_the_bound_check() {
    let mut disc = Discipline::warmed(3, 256);
    let counter = Counter::new(disc.last_tsc());
    let daemon = tsc_serve::spawn_udp(
        "127.0.0.1:0",
        disc.cell(),
        ServeConfig::default(),
        move || counter.now(),
    )
    .expect("daemon");
    disc.publish(&counter);
    let sock = connect(daemon.addr()).expect("daemon answers");
    let g = drive(&sock, &mut disc, &counter, 0.2, WINDOW, false).expect("drive");
    assert!(g.valid > 0);
    assert_eq!(g.failed(), 0);
    assert_eq!(g.valid, g.sent);
}

#[test]
fn tampered_digest_counts_as_failure() {
    let cfg = fleet_replay::config(5, Size::Tiny);
    let mut pool = WorkerPool::new(2);
    let mut summaries = replay_fleet(&mut pool, &cfg);
    assert_eq!(
        fleet_replay::check_digests(&cfg, &summaries, &[0, 3]),
        (2, 0)
    );
    summaries[3].digest ^= 1;
    assert_eq!(
        fleet_replay::check_digests(&cfg, &summaries, &[0, 3]),
        (2, 1)
    );
}

#[test]
fn tampered_recovered_client_counts_as_failure() {
    let s = e2e_bench::population::config(5, Size::Tiny);
    let mut pool = WorkerPool::new(2);
    let (mut summary, _) =
        tsc_fleet::replay_population_checkpointed(&mut pool, &s.cfg, s.checkpoint_every, &s.crash);
    let all: Vec<usize> = (0..s.cfg.clients).collect();
    assert_eq!(
        e2e_bench::population::check_recovered(&s.cfg, &summary, &all),
        (4, 0)
    );
    summary.clients[1].digest ^= 1;
    assert_eq!(
        e2e_bench::population::check_recovered(&s.cfg, &summary, &all),
        (4, 1)
    );
}
