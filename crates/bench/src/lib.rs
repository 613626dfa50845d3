//! Criterion benchmark harness for the IMC'04 reproduction.
//!
//! `bench_experiments` regenerates every paper table and figure (one
//! benchmark group per artifact, see DESIGN.md's experiment index) at a
//! reduced-but-representative scale, so `cargo bench` both exercises every
//! experiment end-to-end and tracks the performance of the simulator and
//! the synchronization algorithms themselves.
//!
//! The algorithm-level benches (`bench_clock_pipeline`, `bench_codec`)
//! measure the per-packet cost of the online clock and the NTP packet
//! codec — the numbers that matter for a production daemon.

use std::sync::Arc;
use tsc_fleet::WorkerPool;
use tsc_telemetry as telemetry;
use tscclock::{ClockConfig, RawExchange, TscNtpClock};

/// Exchanges handed to [`TscNtpClock::process_batch`] per call by
/// [`ingest_shared_stream`] (the `FleetConfig` default).
pub const INGEST_BATCH: usize = 256;

/// The `fleet_ingest_*` workload: `clocks` fresh clocks each filter the
/// same pre-generated `exchanges` stream on `pool`, one work item per
/// clock, [`INGEST_BATCH`] exchanges per `process_batch` call, with the
/// per-batch telemetry fleet replay records. Returns the number of
/// outputs produced across the fleet.
pub fn ingest_shared_stream(
    pool: &mut WorkerPool,
    exchanges: &Arc<Vec<RawExchange>>,
    clocks: usize,
    cc: ClockConfig,
) -> u64 {
    let exchanges = Arc::clone(exchanges);
    let chunk = (clocks / (8 * pool.threads())).max(1);
    let produced = pool.run(clocks, chunk, move |_| {
        let mut clock = TscNtpClock::new(cc);
        let mut out = Vec::with_capacity(INGEST_BATCH);
        let mut produced = 0u64;
        for batch in exchanges.chunks(INGEST_BATCH) {
            out.clear();
            let tm = telemetry::StageTimer::start(telemetry::Hist::IngestBatchNs);
            produced += clock.process_batch(batch, &mut out) as u64;
            tm.stop();
            telemetry::add(telemetry::Ctr::PacketsIngested, batch.len() as u64);
            telemetry::add(telemetry::Ctr::BatchesIngested, 1);
        }
        produced
    });
    produced.iter().sum()
}
