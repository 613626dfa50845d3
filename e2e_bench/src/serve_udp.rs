//! `serve_udp`: the real-socket serving path, from a request on a UDP
//! socket to a stamped response.
//!
//! The serve daemon ([`tsc_serve::spawn_udp`]) answers on `127.0.0.1`.
//! One generator thread keeps [`WINDOW`] requests outstanding on one
//! client socket in a closed loop: each in-flight request stands for one
//! client waiting on its reply, and a reply is answered by the next
//! request. Between sends the same thread runs the discipline side: a
//! warmed [`TscNtpClock`] ingests a seeded netsim stream and
//! [`Publisher::publish_clock`] reseals the [`SnapshotCell`] once per
//! [`PUBLISH_PERIOD`], so snapshot writes sit beside the daemon's reads.
//!
//! The daemon and the generator read one [`Counter`]: nanoseconds since a
//! shared `Instant` origin, offset into the served clock's counter range.
//! Every response is checked: mode 4, origin echoed, no Kiss-o'-Death,
//! and `Tb` within `[Ca(send) − b, Ca(recv) + b]`, where `Ca` is evaluated
//! on each snapshot published while the request was in flight at the
//! generator's own counter readings around the exchange, and `b` is the
//! response's wire bound.
//!
//! The served-time error is `|Tb − Ca(mid)|`, with `Ca` from the snapshot
//! the daemon stamped with (the one whose `Ca(t0)` the response carries as
//! its reference time) at the midpoint of the generator's two counter
//! readings: the error the serving path adds to the clock it serves, as a
//! client that assumes symmetric paths would see it. The clock's own
//! accuracy against netsim truth is the replay workloads' measure.
//!
//! The traced run replaces `spawn_udp` with the same loop built from the
//! public parts it composes ([`UdpBatchTransport`], [`ServePlane`],
//! [`SnapshotCell::read`]) and a span around each call. It alternates
//! slices of the library daemon and of the traced loop, each on a fresh
//! rig, so the two throughputs give the tracing overhead.

use crate::{median, quantile, sorted, thread_cpu_ns, Report, RunOpts, Size};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tsc_netsim::{ExchangeSimulator, Scenario};
use tsc_ntp::packet::NtpPacket;
use tsc_ntp::timestamp::NtpTimestamp;
use tsc_serve::{
    spawn_udp, BatchBufs, ClockSnapshot, DatagramBatch, PublishPolicy, Publisher, ServeConfig,
    ServeDaemonHandle, ServePlane, SnapshotCell, UdpBatchTransport,
};
use tscclock::{ClockConfig, RawExchange, TscNtpClock};

/// Requests the generator keeps outstanding, by default: the knee of the
/// window sweep in `METRICS.md`, the smallest window at which throughput
/// reached its plateau; larger windows only add queueing delay.
pub const WINDOW: usize = 8;
/// Time between two discipline steps (ingest + reseal): ~2 kHz, the pace
/// of the republisher in `crates/bench/benches/bench_serve.rs`.
pub const PUBLISH_PERIOD: Duration = Duration::from_micros(500);
/// Poll period of the served clock's netsim stream (seconds).
const POLL: f64 = 16.0;
/// A request unanswered for this long counts as lost.
const LOSS_AFTER: Duration = Duration::from_secs(1);
/// Throughput is the median of the rates over windows of this length.
const RATE_WINDOW: Duration = Duration::from_millis(100);
/// Published snapshots kept for the bound check, indexed by era.
const RING: usize = 256;
/// A traced run alternates untraced and traced slices of about this many
/// seconds.
const TRACE_SLICE_S: f64 = 1.0;

/// The counter both sides read: the served clock's counter value at the
/// origin plus nanoseconds since the origin `Instant`.
#[derive(Debug, Clone, Copy)]
pub struct Counter {
    origin: Instant,
    base: u64,
}

impl Counter {
    pub fn new(base: u64) -> Self {
        Self {
            origin: Instant::now(),
            base,
        }
    }

    #[inline]
    pub fn now(&self) -> u64 {
        self.base + self.origin.elapsed().as_nanos() as u64
    }
}

/// The discipline side: the served clock, its netsim stream, and the
/// publisher sealing it into the cell the daemon reads.
pub struct Discipline {
    clock: TscNtpClock,
    sim: ExchangeSimulator,
    publisher: Publisher,
    ring: Vec<Option<ClockSnapshot>>,
    last_tsc: u64,
    /// Time spent in `publish_clock` (ns) and the number of seals.
    pub seal_ns: u64,
    pub seals: u64,
}

impl Discipline {
    /// The served clock for `seed`, warmed on `warm` delivered exchanges.
    pub fn warmed(seed: u64, warm: usize) -> Self {
        let scenario = Scenario::baseline(seed).with_duration(30.0 * 86_400.0);
        let mut d = Self {
            clock: TscNtpClock::new(ClockConfig::paper_defaults(POLL)),
            sim: scenario.build(),
            publisher: Publisher::new(Arc::new(SnapshotCell::new()), PublishPolicy::default()),
            ring: vec![None; RING],
            last_tsc: 0,
            seal_ns: 0,
            seals: 0,
        };
        for _ in 0..warm {
            if !d.ingest() {
                break;
            }
        }
        d
    }

    /// The cell this discipline loop publishes into.
    pub fn cell(&self) -> Arc<SnapshotCell> {
        Arc::clone(self.publisher.cell())
    }

    /// Counter value of the last ingested exchange.
    pub fn last_tsc(&self) -> u64 {
        self.last_tsc
    }

    /// Ingests the next delivered exchange; `false` once the stream ends.
    fn ingest(&mut self) -> bool {
        let e = loop {
            match self.sim.step() {
                None => return false,
                Some(e) if e.lost => continue,
                Some(e) => break e,
            }
        };
        let raw = RawExchange {
            ta_tsc: e.ta_tsc,
            tb: e.tb,
            te: e.te,
            tf_tsc: e.tf_tsc,
        };
        if let Some(out) = self.clock.process(raw) {
            self.publisher.observe(&out);
        }
        self.last_tsc = e.tf_tsc;
        true
    }

    /// Reseals the clock at the counter's current reading.
    pub fn publish(&mut self, counter: &Counter) {
        let t0 = Instant::now();
        self.publisher.publish_clock(&self.clock, counter.now());
        self.seal_ns += t0.elapsed().as_nanos() as u64;
        self.seals += 1;
        let snap = self
            .publisher
            .cell()
            .read()
            .expect("the cell was just published");
        self.ring[snap.era as usize % RING] = Some(snap);
    }

    /// One discipline step: ingest the next exchange, then reseal.
    pub fn step(&mut self, counter: &Counter) {
        self.ingest();
        self.publish(counter);
    }

    /// Era of the latest seal.
    pub fn era(&self) -> u64 {
        self.publisher.era()
    }

    /// The snapshot sealed as `era`, while it is still in the ring.
    pub fn snapshot(&self, era: u64) -> Option<&ClockSnapshot> {
        self.ring[era as usize % RING]
            .as_ref()
            .filter(|s| s.era == era)
    }

    /// The snapshot of eras `eras.0..=eras.1` whose `Ca(t0)` is the
    /// response's reference time: the one the daemon stamped with.
    pub fn stamped_with(
        &self,
        eras: (u64, u64),
        reference: NtpTimestamp,
    ) -> Option<&ClockSnapshot> {
        (eras.0..=eras.1)
            .filter_map(|era| self.snapshot(era))
            .find(|s| NtpTimestamp::from_unix_seconds(s.base) == reference)
    }

    /// `true` when `tb` lies within `[Ca(c_send) − b, Ca(c_recv) + b]` for
    /// the snapshots of eras `era_lo..=era_hi`, the ones the daemon may
    /// have read while the request was in flight.
    pub fn within_bound(
        &self,
        eras: (u64, u64),
        c_send: u64,
        c_recv: u64,
        tb: f64,
        b: f64,
    ) -> bool {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for era in eras.0..=eras.1 {
            let Some(s) = self.snapshot(era) else {
                return false;
            };
            lo = lo.min(s.time_at(c_send));
            hi = hi.max(s.time_at(c_recv));
        }
        lo - b <= tb && tb <= hi + b
    }
}

struct Req {
    id: u64,
    c_send: u64,
    t_send: Instant,
    era: u64,
}

/// What the generator saw.
#[derive(Debug, Default)]
pub struct GenStats {
    /// Requests sent.
    pub sent: u64,
    /// Responses that passed every check.
    pub valid: u64,
    /// Requests never answered.
    pub lost: u64,
    /// Answers that were not a valid server response to the request.
    pub invalid: u64,
    /// Kiss-o'-Death answers.
    pub refused: u64,
    /// Answers whose `Tb` lay outside its bound.
    pub out_of_bound: u64,
    /// Datagrams that matched no outstanding request.
    pub stray: u64,
    /// Round-trip time of each valid response (ns).
    pub rtt_ns: Vec<u32>,
    /// Served-time error `|Tb − Ca(mid)|` of each valid response (s).
    pub err_s: Vec<f32>,
    /// Valid responses per second in each rate window.
    pub window_rates: Vec<f64>,
    /// Time the generator kept sending.
    pub elapsed: Duration,
    /// Traced only: time in `send` (ns), CPU time in `recv` (ns), receive
    /// calls, and the generator's own CPU time (ns).
    pub send_ns: u64,
    pub recv_cpu_ns: u64,
    pub recvs: u64,
    pub cpu_ns: u64,
}

impl GenStats {
    /// Adds the counts, samples and times of `o`, a later drive.
    pub fn absorb(&mut self, o: GenStats) {
        self.sent += o.sent;
        self.valid += o.valid;
        self.lost += o.lost;
        self.invalid += o.invalid;
        self.refused += o.refused;
        self.out_of_bound += o.out_of_bound;
        self.stray += o.stray;
        self.rtt_ns.extend(o.rtt_ns);
        self.err_s.extend(o.err_s);
        self.window_rates.extend(o.window_rates);
        self.elapsed += o.elapsed;
        self.send_ns += o.send_ns;
        self.recv_cpu_ns += o.recv_cpu_ns;
        self.recvs += o.recvs;
        self.cpu_ns += o.cpu_ns;
    }

    pub fn failed(&self) -> u64 {
        self.lost + self.invalid + self.refused + self.out_of_bound
    }

    /// Valid responses per second: the median window rate, or the whole
    /// run's rate when it was shorter than one window.
    pub fn ops_per_s(&self) -> f64 {
        if self.window_rates.is_empty() {
            self.valid as f64 / self.elapsed.as_secs_f64()
        } else {
            median(&self.window_rates)
        }
    }
}

fn send(
    sock: &UdpSocket,
    slot: &mut Option<Req>,
    id: u64,
    counter: &Counter,
    era: u64,
    g: &mut GenStats,
    trace: bool,
) -> io::Result<()> {
    let req = NtpPacket::client_request(NtpTimestamp::from_bits(id), 4).encode();
    let c_send = counter.now();
    let t_send = Instant::now();
    sock.send(&req)?;
    if trace {
        g.send_ns += t_send.elapsed().as_nanos() as u64;
    }
    *slot = Some(Req {
        id,
        c_send,
        t_send,
        era,
    });
    g.sent += 1;
    Ok(())
}

/// Drives the responder `sock` is connected to for `seconds` in a closed
/// loop of `window` outstanding requests, checking every answer and
/// stepping `disc` once per [`PUBLISH_PERIOD`]. After the deadline it
/// stops sending and waits for the outstanding answers.
pub fn drive(
    sock: &UdpSocket,
    disc: &mut Discipline,
    counter: &Counter,
    seconds: f64,
    window: usize,
    trace: bool,
) -> io::Result<GenStats> {
    let mut g = GenStats::default();
    let mut slots: Vec<Option<Req>> = (0..window.max(1)).map(|_| None).collect();
    let mut next_id = 0x8000_0000_0000_0000u64;
    let cpu0 = if trace { thread_cpu_ns() } else { 0 };
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let (mut win_start, mut win_valid) = (start, 0u64);
    let mut last_step = start;
    let mut sending = true;
    for slot in slots.iter_mut() {
        next_id += 1;
        send(sock, slot, next_id, counter, disc.era(), &mut g, trace)?;
    }
    let mut buf = [0u8; 128];
    loop {
        if sending && Instant::now() >= deadline {
            sending = false;
            g.elapsed = start.elapsed();
        }
        if !sending && slots.iter().all(Option::is_none) {
            break;
        }
        let c0 = if trace { thread_cpu_ns() } else { 0 };
        let got = sock.recv(&mut buf);
        let c_recv = counter.now();
        let t_recv = Instant::now();
        if trace {
            g.recv_cpu_ns += thread_cpu_ns() - c0;
            g.recvs += 1;
        }
        let len = match got {
            Ok(len) => len,
            Err(e) if tsc_serve::plane::is_idle_kind(e.kind()) => {
                for slot in slots.iter_mut() {
                    if slot
                        .as_ref()
                        .is_some_and(|r| r.t_send.elapsed() > LOSS_AFTER)
                    {
                        g.lost += 1;
                        *slot = None;
                        if sending {
                            next_id += 1;
                            send(sock, slot, next_id, counter, disc.era(), &mut g, trace)?;
                        }
                    }
                }
                continue;
            }
            Err(e) => return Err(e),
        };
        let Ok(resp) = NtpPacket::decode(&buf[..len]) else {
            g.stray += 1;
            continue;
        };
        let origin = resp.origin_ts.to_bits();
        let Some(k) = slots
            .iter()
            .position(|s| s.as_ref().is_some_and(|r| r.id == origin))
        else {
            g.stray += 1;
            continue;
        };
        let req = slots[k].take().expect("matched slot is occupied");
        let request = NtpPacket::client_request(NtpTimestamp::from_bits(req.id), 4);
        match resp.validate_response(&request) {
            Err(tsc_ntp::packet::PacketError::KissOfDeath(_)) => g.refused += 1,
            Err(_) => g.invalid += 1,
            Ok(()) => {
                let eras = (req.era, disc.era());
                let tb = resp.receive_ts.to_unix_seconds();
                let b = resp.root_dispersion.to_seconds();
                if !disc.within_bound(eras, req.c_send, c_recv, tb, b) {
                    g.out_of_bound += 1;
                } else if let Some(snap) = disc.stamped_with(eras, resp.reference_ts) {
                    let mid = req.c_send + (c_recv - req.c_send) / 2;
                    g.err_s.push((tb - snap.time_at(mid)).abs() as f32);
                    let rtt = t_recv.duration_since(req.t_send).as_nanos();
                    g.rtt_ns.push(rtt.min(u32::MAX as u128) as u32);
                    g.valid += 1;
                    win_valid += 1;
                } else {
                    // Stamped with no snapshot published while in flight.
                    g.invalid += 1;
                }
            }
        }
        if sending {
            if t_recv.duration_since(last_step) >= PUBLISH_PERIOD {
                last_step = t_recv;
                disc.step(counter);
            }
            let dt = t_recv.duration_since(win_start);
            if dt >= RATE_WINDOW {
                g.window_rates.push(win_valid as f64 / dt.as_secs_f64());
                (win_start, win_valid) = (t_recv, 0);
            }
            next_id += 1;
            send(
                sock,
                &mut slots[k],
                next_id,
                counter,
                disc.era(),
                &mut g,
                trace,
            )?;
        }
    }
    if trace {
        g.cpu_ns = thread_cpu_ns() - cpu0;
    }
    Ok(g)
}

/// Spans of the traced daemon loop. Receive time is the thread's CPU time
/// inside `recv_batch`, so the wait for the first datagram is excluded;
/// the other spans are wall time. `cpu_ns` and `wall_ns` run from the
/// first non-empty receive to the end of the last batch.
#[derive(Debug, Default, Clone, Copy)]
pub struct DaemonTrace {
    pub recv_cpu_ns: u64,
    pub dgrams: u64,
    pub batches: u64,
    pub empty_recvs: u64,
    pub cell_ns: u64,
    pub plane_ns: u64,
    pub send_ns: u64,
    pub cpu_ns: u64,
    pub wall_ns: u64,
    pub refusals: u64,
    pub malformed: u64,
}

impl DaemonTrace {
    /// Adds the spans and counts of `o`, a later loop.
    pub fn absorb(&mut self, o: DaemonTrace) {
        self.recv_cpu_ns += o.recv_cpu_ns;
        self.dgrams += o.dgrams;
        self.batches += o.batches;
        self.empty_recvs += o.empty_recvs;
        self.cell_ns += o.cell_ns;
        self.plane_ns += o.plane_ns;
        self.send_ns += o.send_ns;
        self.cpu_ns += o.cpu_ns;
        self.wall_ns += o.wall_ns;
        self.refusals += o.refusals;
        self.malformed += o.malformed;
    }
}

/// The serve loop of `spawn_udp`, rebuilt from its public parts with a
/// span around each call. Stops and joins on drop.
pub struct TracedDaemon {
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<DaemonTrace>>,
}

impl TracedDaemon {
    /// Binds on `127.0.0.1` and serves `cell` at `counter`'s readings.
    pub fn spawn(cell: Arc<SnapshotCell>, counter: Counter) -> io::Result<(Self, SocketAddr)> {
        let cfg = ServeConfig::default();
        let mut transport = UdpBatchTransport::bind("127.0.0.1:0", cfg.batch)?;
        let addr = transport.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let join = std::thread::Builder::new()
            .name("bench-serve".into())
            .spawn(move || {
                let mut plane = ServePlane::new(cell, cfg);
                let (mut rx, mut tx) = (BatchBufs::new(cfg.batch), BatchBufs::new(cfg.batch));
                let mut tsc = move || counter.now();
                let mut t = DaemonTrace::default();
                let mut first: Option<(u64, Instant)> = None;
                while !stop2.load(Ordering::SeqCst) {
                    let c0 = thread_cpu_ns();
                    let n = transport.recv_batch(&mut rx, cfg.batch);
                    let c1 = thread_cpu_ns();
                    let n = match n {
                        Ok(0) => {
                            t.empty_recvs += 1;
                            continue;
                        }
                        Ok(n) => n,
                        Err(_) => {
                            std::thread::sleep(Duration::from_millis(1));
                            continue;
                        }
                    };
                    let (cpu_first, wall_first) = *first.get_or_insert((c1, Instant::now()));
                    t.recv_cpu_ns += c1 - c0;
                    t.dgrams += n as u64;
                    t.batches += 1;
                    let s0 = Instant::now();
                    std::hint::black_box(plane.cell().read());
                    let s1 = Instant::now();
                    plane.serve_batch(&rx, n, &mut tx, &mut tsc);
                    let s2 = Instant::now();
                    let _ = transport.send_batch(&tx, n);
                    let s3 = Instant::now();
                    t.cell_ns += (s1 - s0).as_nanos() as u64;
                    t.plane_ns += (s2 - s1).as_nanos() as u64;
                    t.send_ns += (s3 - s2).as_nanos() as u64;
                    t.cpu_ns = thread_cpu_ns() - cpu_first;
                    t.wall_ns = wall_first.elapsed().as_nanos() as u64;
                }
                t.refusals = plane.stats.refusals;
                t.malformed = plane.stats.malformed;
                t
            })?;
        Ok((
            Self {
                stop,
                join: Some(join),
            },
            addr,
        ))
    }

    /// Stops the loop and returns its spans.
    pub fn finish(mut self) -> DaemonTrace {
        self.stop.store(true, Ordering::SeqCst);
        let join = self.join.take().expect("joined only here or on drop");
        join.join().expect("traced serve loop panicked")
    }
}

impl Drop for TracedDaemon {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// A client socket connected to `addr`, after one answered request has
/// shown that the responder serves.
pub fn connect(addr: SocketAddr) -> io::Result<UdpSocket> {
    let sock = UdpSocket::bind("127.0.0.1:0")?;
    sock.connect(addr)?;
    sock.set_read_timeout(Some(Duration::from_secs(2)))?;
    let req = NtpPacket::client_request(NtpTimestamp::from_bits(1), 4);
    sock.send(&req.encode())?;
    let mut buf = [0u8; 128];
    let len = sock.recv(&mut buf)?;
    NtpPacket::decode(&buf[..len])
        .and_then(|p| p.validate_response(&req))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
    sock.set_read_timeout(Some(Duration::from_millis(20)))?;
    Ok(sock)
}

/// The library daemon or the traced loop; either stops on drop.
enum Daemon {
    Library(#[allow(dead_code)] ServeDaemonHandle),
    Traced(TracedDaemon),
}

/// Everything a drive needs: the discipline side, the shared counter, the
/// daemon and a connected client socket.
struct Rig {
    disc: Discipline,
    counter: Counter,
    daemon: Daemon,
    sock: UdpSocket,
}

/// Set-up: warm the served clock, bind the daemon, seal the first
/// snapshot, connect the client.
fn setup(seed: u64, size: Size, traced: bool) -> io::Result<Rig> {
    let mut disc = Discipline::warmed(seed, size.pick(5400, 256));
    let counter = Counter::new(disc.last_tsc());
    let (daemon, addr) = if traced {
        let (d, addr) = TracedDaemon::spawn(disc.cell(), counter)?;
        (Daemon::Traced(d), addr)
    } else {
        let cfg = ServeConfig::default();
        let d = spawn_udp("127.0.0.1:0", disc.cell(), cfg, move || counter.now())?;
        let addr = d.addr();
        (Daemon::Library(d), addr)
    };
    disc.publish(&counter);
    let sock = connect(addr)?;
    Ok(Rig {
        disc,
        counter,
        daemon,
        sock,
    })
}

fn count(r: &mut Report, g: &GenStats) {
    r.attempted += g.sent;
    r.failed += g.failed();
}

/// Runs the workload.
///
/// The run is cut into slices, each driven on a freshly set-up rig whose
/// set-up is timed. So the set-ups sample the host across the whole run,
/// as the throughput windows do, and `setup_s` is their median. A traced
/// run alternates untraced and traced slices, each first in turn, so
/// drift of the host's speed falls on both alike.
pub fn run(opts: &RunOpts) -> Report {
    let mut r = Report::default();
    let slices = if opts.trace {
        2 * (opts.seconds / (2.0 * TRACE_SLICE_S)).ceil().max(1.0) as u64
    } else {
        opts.size.setup_reps() as u64
    };
    let slice = opts.seconds / slices as f64;
    let mut setup_s = Vec::new();
    let (mut g0, mut g) = (GenStats::default(), GenStats::default());
    let mut d = DaemonTrace::default();
    let (mut seal_ns, mut seals, mut untraced_seals) = (0u64, 0u64, 0u64);
    for k in 0..slices {
        let traced_first = !(k / 2).is_multiple_of(2);
        let traced = opts.trace && (k.is_multiple_of(2) == traced_first);
        let t0 = Instant::now();
        let mut rig = setup(opts.seed, opts.size, traced).expect("serve_udp set-up");
        setup_s.push(t0.elapsed().as_secs_f64());
        rig.disc.seal_ns = 0;
        rig.disc.seals = 0;
        let gs = drive(
            &rig.sock,
            &mut rig.disc,
            &rig.counter,
            slice,
            opts.window,
            traced,
        )
        .expect("serve_udp generator");
        count(&mut r, &gs);
        if !traced {
            g0.absorb(gs);
            untraced_seals += rig.disc.seals;
            continue;
        }
        g.absorb(gs);
        seal_ns += rig.disc.seal_ns;
        seals += rig.disc.seals;
        let Daemon::Traced(daemon) = rig.daemon else {
            unreachable!("traced set-up spawns the traced loop")
        };
        d.absorb(daemon.finish());
    }

    if !opts.trace {
        let rtt_us = sorted(g0.rtt_ns.iter().map(|&n| n as f64 / 1e3).collect());
        let err_us = sorted(g0.err_s.iter().map(|&e| e as f64 * 1e6).collect());
        r.set("setup_s", median(&setup_s));
        r.set("ops_per_s", g0.ops_per_s());
        r.set("lat_p50_us", quantile(&rtt_us, 0.5));
        r.set("lat_p99_us", quantile(&rtt_us, 0.99));
        r.set("err_p50_us", quantile(&err_us, 0.5));
        r.set("err_p99_us", quantile(&err_us, 0.99));
        r.note(format!(
            "serve_udp: window {}, {} slices of {:.2} s; {} requests, {} valid, {} lost, \
             {} invalid, {} refused, {} out of bound, {} stray; {} seals; RTT and error \
             over {} samples (RTT p999 {:.1} us); throughput over {} windows of {} ms",
            opts.window,
            slices,
            slice,
            g0.sent,
            g0.valid,
            g0.lost,
            g0.invalid,
            g0.refused,
            g0.out_of_bound,
            g0.stray,
            untraced_seals,
            rtt_us.len(),
            quantile(&rtt_us, 0.999),
            g0.window_rates.len(),
            RATE_WINDOW.as_millis()
        ));
        return r;
    }

    let dgrams = d.dgrams.max(1) as f64;
    let mean_rtt_ns =
        g.rtt_ns.iter().map(|&n| n as f64).sum::<f64>() / g.rtt_ns.len().max(1) as f64;
    let recv = d.recv_cpu_ns as f64 / dgrams;
    let send = d.send_ns as f64 / dgrams;
    let plane = d.plane_ns as f64 / dgrams;
    r.set("serve.transport.recv_ns_per_dgram", recv);
    r.set("serve.transport.send_ns_per_dgram", send);
    r.set("serve.transport.empty_recvs", d.empty_recvs as f64);
    r.set(
        "serve.transport.batch_fill",
        d.dgrams as f64 / d.batches.max(1) as f64,
    );
    r.set("serve.plane.ns_per_dgram", plane);
    r.set("serve.plane.refusals", d.refusals as f64);
    r.set("serve.plane.malformed", d.malformed as f64);
    r.set(
        "serve.cell.read_ns",
        d.cell_ns as f64 / d.batches.max(1) as f64,
    );
    r.set(
        "serve.publish.seal_ns",
        seal_ns as f64 / seals.max(1) as f64,
    );
    r.set("serve.publish.count", seals as f64);
    r.set(
        "serve.daemon.busy_share",
        d.cpu_ns as f64 / d.wall_ns.max(1) as f64,
    );
    r.set(
        "gen.busy_share",
        g.cpu_ns as f64 / g.elapsed.as_nanos().max(1) as f64,
    );
    r.set("gen.send_ns", g.send_ns as f64 / g.sent.max(1) as f64);
    r.set("gen.recv_ns", g.recv_cpu_ns as f64 / g.recvs.max(1) as f64);
    r.set("serve.share.transport", (recv + send) / mean_rtt_ns);
    r.set("serve.share.plane", plane / mean_rtt_ns);
    r.set("serve.share.cell", d.cell_ns as f64 / dgrams / mean_rtt_ns);
    crate::set_trace_overhead(&mut r, g0.ops_per_s(), g.ops_per_s());
    r.note(format!(
        "serve_udp traced: window {}, {} alternating slices of {:.2} s; \
         {} datagrams in {} batches; {} seals; mean RTT {:.1} us",
        opts.window,
        slices,
        slice,
        d.dgrams,
        d.batches,
        seals,
        mean_rtt_ns / 1e3
    ));
    r
}
