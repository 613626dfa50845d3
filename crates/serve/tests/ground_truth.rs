//! Served-timestamp correctness against netsim ground truth.
//!
//! A day-long simulated run drives the full serving pipeline: the
//! discipline loop ingests each delivered exchange and republishes the
//! snapshot; *before* every ingest, a simulated client asks the serving
//! plane for the time at that exchange's `Tf` counter reading (so every
//! answer comes from the previous seal, one poll period stale — the
//! steady-state worst case). For **every** served response we assert
//!
//! ```text
//! |served Tb − true time at the read| ≤ wire-reported bound
//! ```
//!
//! where the truth is the scenario's DAG-corrected reference timestamp
//! (`SimExchange::tg`), the same oracle the accuracy suites use. A
//! mid-day 10 000 s outage then proves the staleness horizon: the first
//! request after the gap is *refused* (`STAL` Kiss-o'-Death), never
//! answered silently stale, and serving resumes after re-sync. A
//! counter-regression arm makes the client read the counter *behind* the
//! last seal: a backstep of seconds (TSC reset, suspend, migration) is
//! refused (`STEP`), while a reader a few µs behind (one that raced a
//! republish) is served within the widened bound.

use std::sync::Arc;
use tsc_netsim::{Scenario, SimExchange};
use tsc_ntp::packet::{NtpPacket, PacketError};
use tsc_ntp::timestamp::NtpTimestamp;
use tsc_serve::{
    BatchBufs, DatagramBatch, PublishPolicy, Publisher, ServeConfig, ServePlane, SimTransport,
    SnapshotCell, REFUSE_STALE, REFUSE_STEP,
};
use tscclock::{ClockConfig, RawExchange, TscNtpClock};

fn to_raw(e: &SimExchange) -> RawExchange {
    RawExchange {
        ta_tsc: e.ta_tsc,
        tb: e.tb,
        te: e.te,
        tf_tsc: e.tf_tsc,
    }
}

/// Where the simulated client's counter reads when it queries.
#[derive(Clone, Copy)]
enum Read {
    /// At each exchange's own `Tf` reading, one poll period after the seal.
    AtTf,
    /// From poll time `from` on, `back` seconds *behind* the last seal's
    /// counter reading.
    BehindSeal { from: f64, back: f64 },
}

struct Outcome {
    served: u64,
    refused: u64,
    violations: Vec<(f64, f64, f64)>, // (poll_time, |err|, bound)
    stale_refusal_times: Vec<f64>,
    step_refusal_times: Vec<f64>,
    served_times: Vec<f64>,
    worst_margin: f64, // max |err| / bound over all served responses
}

fn run(sc: &Scenario, horizon: f64, read: Read) -> Outcome {
    let mut clock = TscNtpClock::new(ClockConfig::paper_defaults(16.0));
    let cell = Arc::new(SnapshotCell::new());
    let mut publisher = Publisher::new(Arc::clone(&cell), PublishPolicy::default());
    let mut plane = ServePlane::new(
        Arc::clone(&cell),
        ServeConfig {
            stale_horizon: horizon,
            ..ServeConfig::default()
        },
    );
    let mut transport = SimTransport::new();
    let mut rx = BatchBufs::new(4);
    let mut tx = BatchBufs::new(4);

    let mut out = Outcome {
        served: 0,
        refused: 0,
        violations: Vec::new(),
        stale_refusal_times: Vec::new(),
        step_refusal_times: Vec::new(),
        served_times: Vec::new(),
        worst_margin: 0.0,
    };
    // The last seal's counter reading and true time.
    let mut last_seal: Option<(u64, f64)> = None;

    let mut stream = sc.stream();
    while let Some(e) = stream.step() {
        if e.lost {
            continue;
        }
        // 1. A client queries at this exchange's Tf reading — served off
        //    the *previous* seal (one poll period of staleness) — or, in
        //    the regression arm, at a reading behind that seal.
        let (read_tsc, truth) = match (read, last_seal, clock.p_hat()) {
            (Read::BehindSeal { from, back }, Some((seal_tsc, seal_tg)), Some(p))
                if e.poll_time >= from =>
            {
                (seal_tsc - (back / p).round() as u64, seal_tg - back)
            }
            _ => (e.tf_tsc, e.tg),
        };
        let request = NtpPacket::client_request(NtpTimestamp::from_unix_seconds(truth), 4);
        transport.push_request(&request.encode());
        let n = transport.recv_batch(&mut rx, 4).unwrap();
        let mut tsc = || read_tsc;
        plane.serve_batch(&rx, n, &mut tx, &mut tsc);
        transport.send_batch(&tx, n).unwrap();
        let (resp, len) = transport.pop_response().unwrap();
        let resp = NtpPacket::decode(&resp[..len]).unwrap();
        match resp.validate_response(&request) {
            Ok(()) => {
                let served_tb = resp.receive_ts.to_unix_seconds();
                let bound = resp.root_dispersion.to_seconds();
                let err = (served_tb - truth).abs();
                out.served += 1;
                out.served_times.push(e.poll_time);
                out.worst_margin = out.worst_margin.max(err / bound);
                if err > bound {
                    out.violations.push((e.poll_time, err, bound));
                }
            }
            Err(PacketError::KissOfDeath(code)) => {
                out.refused += 1;
                if code == REFUSE_STALE {
                    out.stale_refusal_times.push(e.poll_time);
                }
                if code == REFUSE_STEP {
                    out.step_refusal_times.push(e.poll_time);
                }
            }
            Err(other) => panic!("unexpected response error {other:?}"),
        }
        // 2. The discipline loop ingests the exchange and republishes.
        if let Some(o) = clock.process(to_raw(&e)) {
            publisher.observe(&o);
        }
        publisher.publish_clock(&clock, e.tf_tsc);
        last_seal = Some((e.tf_tsc, e.tg));
    }
    out
}

#[test]
fn day_long_run_every_served_bound_holds() {
    let sc = Scenario::baseline(4242)
        .with_poll_period(16.0)
        .with_duration(86_400.0);
    let out = run(&sc, 600.0, Read::AtTf);
    assert!(
        out.violations.is_empty(),
        "{} of {} served responses exceeded their bound; worst: {:?}",
        out.violations.len(),
        out.served,
        out.violations
            .iter()
            .take(5)
            .map(|(t, e, b)| format!("t={t:.0}s err={:.1}µs bound={:.1}µs", e * 1e6, b * 1e6))
            .collect::<Vec<_>>()
    );
    // The run really served (warmup refusals aside, a day at poll 16 is
    // ~5400 exchanges).
    assert!(out.served > 4_000, "only {} served", out.served);
    assert!(out.refused > 0, "warmup must refuse, not serve");
    // Bounds are not vacuous: the worst served error used a real fraction
    // of its bound.
    assert!(
        out.worst_margin > 0.01,
        "worst served error at {:.4} of bound — bound looks inflated",
        out.worst_margin
    );
}

#[test]
fn outage_past_horizon_refuses_then_recovers() {
    let sc = Scenario::baseline(77)
        .with_poll_period(16.0)
        .with_duration(86_400.0)
        .with_outage(40_000.0, 50_000.0);
    let out = run(&sc, 600.0, Read::AtTf);
    assert!(out.violations.is_empty(), "bound violations: {:?}", out.violations);
    // The first delivered exchange after the 10 000 s gap sees a snapshot
    // far beyond the 600 s horizon → STAL refusal, not a stale answer.
    assert!(
        out.stale_refusal_times
            .iter()
            .any(|&t| (50_000.0..50_600.0).contains(&t)),
        "no STAL refusal right after the outage: {:?}",
        &out.stale_refusal_times[..out.stale_refusal_times.len().min(5)]
    );
    // Serving resumes once the loop republishes on fresh exchanges.
    assert!(
        out.served_times.iter().any(|&t| t > 50_600.0),
        "serving never resumed after the outage"
    );
}

#[test]
fn counter_stepped_back_past_the_limit_is_refused_never_served() {
    let sc = Scenario::baseline(4242)
        .with_poll_period(16.0)
        .with_duration(86_400.0);
    let from = 40_000.0;
    let out = run(&sc, 600.0, Read::BehindSeal { from, back: 1000.0 });
    assert!(out.violations.is_empty(), "bound violations: {:?}", out.violations);
    // Every query from the regression on is refused with STEP: nothing is
    // served base − 1000 s under a tight bound.
    assert!(
        out.served_times.iter().all(|&t| t < from),
        "served with the counter 1000 s behind the seal"
    );
    assert!(
        out.step_refusal_times.len() > 2_000,
        "only {} STEP refusals",
        out.step_refusal_times.len()
    );
    assert!(out.step_refusal_times.iter().all(|&t| t >= from));
}

#[test]
fn reads_just_behind_the_seal_are_served_within_the_widened_bound() {
    let sc = Scenario::baseline(4242)
        .with_poll_period(16.0)
        .with_duration(86_400.0);
    let from = 20_000.0;
    let out = run(&sc, 600.0, Read::BehindSeal { from, back: 5e-6 });
    assert!(
        out.violations.is_empty(),
        "{} of {} served responses exceeded their bound: {:?}",
        out.violations.len(),
        out.served,
        &out.violations[..out.violations.len().min(5)]
    );
    assert!(out.step_refusal_times.is_empty(), "benign backstep refused");
    let after = out.served_times.iter().filter(|&&t| t >= from).count();
    assert!(after > 3_000, "only {after} served behind the seal");
}
