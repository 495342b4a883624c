//! Open-loop load generator with write-loss accounting.
//!
//! One [`run_load`] call drives one *phase* of load (the chaos harness runs
//! several phases around kills and restarts). Requests are due on a fixed
//! schedule, whatever the server does: request `i` of a phase at rate `r`
//! is due `i / r` after the phase starts and goes out on connection
//! `i mod conns`; its operation and address are a stateless hash of the
//! seed and its index. Each connection thread sends everything that is
//! due, then waits for a response or the next due time with
//! [`Stream::wait_readable`]. Every latency is timed from the request's due
//! time, also for a request resent after a reconnect, so a stall in the
//! server or in the generator is charged to every request it delays; the
//! generator reports its own lateness (send time minus due time) so that
//! a generator that fell behind is visible rather than hidden.
//!
//! # Write-loss audit model
//!
//! * Connection `c` of `n` only ever addresses `la % n == c`, so every
//!   address has a single writer and "last write" is well defined.
//! * Every write carries a unique tag (its phase-global index plus one) as
//!   its [`LineData::Mixed`] payload.
//! * Every request on the wire at a disconnect is resent, in issue order
//!   and with its original due time, after the reconnect; a write is also
//!   resent after a retryable error (with the `srbsg-serve` backoff
//!   schedule, read in microseconds). The same backoff paces reconnects.
//! * The report records, per address, the tag of the **last
//!   acknowledged** write, plus the tags of writes that were issued but
//!   never acknowledged (`unresolved` — the server may or may not have
//!   applied them; both outcomes are legal).
//! * The audit (after the final restart) reads every recorded address
//!   back: the device must hold either the last acked tag or an
//!   unresolved tag. Anything else — in particular an *older* acked tag —
//!   is a lost acknowledged write.

use std::collections::{HashMap, VecDeque};
use std::io::Write as _;
use std::time::{Duration, Instant};

use srbsg_pcm::LineData;
use srbsg_serve::{backoff_ns, percentile_ns, ServeConfig};
use srbsg_workloads::splitmix64;

use crate::client::{Endpoint, Stream};
use crate::os;
use crate::proto::{
    encode_request, ErrCode, FrameReader, RequestFrame, ResponseFrame, WireRequest, WireResponse,
};

/// Load-phase configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server endpoint.
    pub endpoint: Endpoint,
    /// Concurrent connections.
    pub conns: usize,
    /// Requests to issue per connection.
    pub requests_per_conn: usize,
    /// Logical device size (addresses are drawn below this).
    pub lines: u64,
    /// Fraction of requests that are writes.
    pub write_ratio: f64,
    /// Offered load, requests per second over all connections.
    pub rate: f64,
    /// Seed of the address and operation draws.
    pub seed: u64,
    /// Index of the phase's first request. Tags derive from indices, so
    /// phases of one server run that continue the indices share no tag.
    pub first_index: u64,
    /// Give up on the whole phase after this long.
    pub wall_deadline: Duration,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            endpoint: Endpoint::Tcp("127.0.0.1:0".into()),
            conns: 1,
            requests_per_conn: 1000,
            lines: 1024,
            write_ratio: 0.5,
            rate: 1000.0,
            seed: 0x10AD_6E4E,
            first_index: 0,
            wall_deadline: Duration::from_secs(60),
        }
    }
}

impl LoadConfig {
    /// Reject a configuration the schedule cannot run.
    pub fn check(&self) -> Result<(), String> {
        if !(1..=1024).contains(&self.conns) || self.lines < self.conns as u64 {
            return Err("need 1 to 1024 connections and a line per connection".into());
        }
        let span = self.conns.saturating_mul(self.requests_per_conn) as f64 / self.rate;
        if self.rate.is_nan() || self.rate <= 0.0 || Duration::try_from_secs_f64(span).is_err() {
            return Err("the rate must be positive, and the schedule a valid duration".into());
        }
        if !(0.0..=1.0).contains(&self.write_ratio) {
            return Err("the write ratio must be in [0, 1]".into());
        }
        Ok(())
    }
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Planned {
    /// When it is due, from the phase start.
    due: Duration,
    /// The request itself.
    req: WireRequest,
}

/// Request `i` of a phase (`i` counts from 0 over all connections; it
/// goes out on connection `i mod conns`).
pub(crate) fn planned(cfg: &LoadConfig, i: u64) -> Planned {
    let conns = cfg.conns as u64;
    let conn = i % conns;
    let index = cfg.first_index + i;
    let h = splitmix64(cfg.seed ^ splitmix64(index));
    let la = conn + conns * ((h >> 11) % (cfg.lines / conns));
    let req = if ((h & 0x3FF) as f64) < cfg.write_ratio * 1024.0 {
        WireRequest::Write {
            la,
            data: LineData::Mixed((index as u32).wrapping_add(1)),
        }
    } else {
        WireRequest::Read { la }
    };
    Planned {
        due: Duration::from_secs_f64(i as f64 / cfg.rate),
        req,
    }
}

/// Outcome of one load phase (merged over connections).
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Requests issued (first sends only; resends not counted).
    pub sent: u64,
    /// Writes acknowledged durable.
    pub acked_writes: u64,
    /// Reads answered.
    pub ok_reads: u64,
    /// Typed error responses received, plus reads still unanswered at the
    /// end of the phase.
    pub errors: u64,
    /// Reconnects performed.
    pub reconnects: u64,
    /// Every successful request: (due instant, latency from it).
    pub samples: Vec<(Instant, Duration)>,
    /// Send time minus due time of every first send, sorted.
    pub late: Vec<Duration>,
    /// Last acknowledged write tag per address.
    pub acked: HashMap<u64, u32>,
    /// Issued-but-never-acknowledged write tags per address.
    pub unresolved: HashMap<u64, Vec<u32>>,
}

/// Percentile `pct` of `sorted`, in µs, only when at least ten samples lie
/// beyond it: a percentile with fewer is no tail.
fn tail_us(sorted: &[Duration], pct: f64) -> Option<u64> {
    if (sorted.len() as f64) * (1.0 - pct / 100.0) < 10.0 {
        return None;
    }
    let ns: Vec<u128> = sorted.iter().map(Duration::as_nanos).collect();
    Some((percentile_ns(&ns, pct) / 1000) as u64)
}

impl LoadReport {
    /// The phase's results by name, in µs where timed: latency from the
    /// due time, then the generator's lateness. A percentile without ten
    /// samples beyond it is `None`.
    pub fn summary(&self) -> Vec<(&'static str, Option<String>)> {
        let mut lat: Vec<Duration> = self.samples.iter().map(|s| s.1).collect();
        lat.sort_unstable();
        let us = |v: Option<u64>| v.map(|v| v.to_string());
        vec![
            ("sent", Some(self.sent.to_string())),
            ("samples", Some(self.samples.len().to_string())),
            ("acked_writes", Some(self.acked_writes.to_string())),
            ("ok_reads", Some(self.ok_reads.to_string())),
            ("errors", Some(self.errors.to_string())),
            ("reconnects", Some(self.reconnects.to_string())),
            ("p50_us", us(tail_us(&lat, 50.0))),
            ("p99_us", us(tail_us(&lat, 99.0))),
            ("p999_us", us(tail_us(&lat, 99.9))),
            ("late_p50_us", us(tail_us(&self.late, 50.0))),
            (
                "late_max_us",
                self.late.last().map(|d| d.as_micros().to_string()),
            ),
        ]
    }

    fn merge(&mut self, other: LoadReport) {
        self.sent += other.sent;
        self.acked_writes += other.acked_writes;
        self.ok_reads += other.ok_reads;
        self.errors += other.errors;
        self.reconnects += other.reconnects;
        self.samples.extend(other.samples);
        self.late.extend(other.late);
        // Addresses are partitioned by connection, so plain extends are
        // collision-free.
        self.acked.extend(other.acked);
        for (la, tags) in other.unresolved {
            self.unresolved.entry(la).or_default().extend(tags);
        }
    }
}

/// The [`LoadReport::summary`] as one line of `key=value` pairs, `-` for
/// an absent percentile.
impl std::fmt::Display for LoadReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pairs: Vec<String> = (self.summary().into_iter())
            .map(|(k, v)| format!("{k}={}", v.as_deref().unwrap_or("-")))
            .collect();
        f.write_str(&pairs.join(" "))
    }
}

/// A request on its way, with the instant it was due.
struct Job {
    req: WireRequest,
    due: Instant,
}

/// The address and tag of a write request.
fn write_of(req: WireRequest) -> Option<(u64, u32)> {
    match req {
        WireRequest::Write {
            la,
            data: LineData::Mixed(tag),
        } => Some((la, tag)),
        _ => None,
    }
}

/// One connection's state across reconnects.
struct Conn<'a> {
    cfg: &'a LoadConfig,
    id: usize,
    stream: Option<Stream>,
    reader: FrameReader,
    buf: Vec<u8>,
    next_req_id: u64,
    /// Requests on the wire, in send order.
    outstanding: VecDeque<(u64, Job)>,
    /// Requests awaiting a resend, in issue order.
    resend: VecDeque<Job>,
    /// Failed connects or retryable errors since the last success.
    attempt: u32,
    /// No reconnect or resend before this instant.
    retry_at: Instant,
    /// Successful connects; all but the first are reconnects, even one
    /// that needed no backoff (a fast drain–restart cycle).
    connects: u64,
    rep: LoadReport,
}

impl Conn<'_> {
    fn back_off(&mut self, now: Instant) {
        self.attempt = self.attempt.saturating_add(1);
        let backoff = ServeConfig::default();
        // The serve-crate backoff schedule, ns read as µs.
        let us = backoff_ns(&backoff, self.id as u64, self.attempt).min(50_000) as u64;
        self.retry_at = now + Duration::from_micros(us);
    }

    fn connect(&mut self, now: Instant) {
        match self.cfg.endpoint.connect(Duration::from_millis(500)) {
            Ok(s) if s.set_write_timeout(Some(Duration::from_secs(2))).is_ok() => {
                self.stream = Some(s);
                self.connects += 1;
                self.attempt = 0;
                self.retry_at = now;
            }
            _ => self.back_off(now),
        }
    }

    /// Outstanding requests go back to the front of the resend queue *in
    /// order*, keeping their due times.
    fn disconnect(&mut self) {
        if let Some(s) = self.stream.take() {
            s.shutdown();
        }
        self.reader = FrameReader::new();
        while let Some((_, job)) = self.outstanding.pop_back() {
            self.resend.push_front(job);
        }
    }

    /// Queue `job` in the send buffer.
    fn push(&mut self, job: Job) {
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        encode_request(
            &mut self.buf,
            &RequestFrame {
                req_id,
                req: job.req,
            },
        );
        self.outstanding.push_back((req_id, job));
    }

    fn on_response(&mut self, frame: ResponseFrame, recv: Instant) {
        let Some(pos) = self.outstanding.iter().position(|o| o.0 == frame.req_id) else {
            return; // stale or unsolicited; ignore
        };
        let (_, job) = self.outstanding.remove(pos).expect("position is in range");
        let sample = (job.due, recv.saturating_duration_since(job.due));
        match (frame.resp, write_of(job.req)) {
            (WireResponse::WriteOk { .. }, Some((la, tag))) => {
                self.rep.acked_writes += 1;
                self.rep.acked.insert(la, tag);
                self.rep.samples.push(sample);
                self.attempt = 0;
            }
            (WireResponse::ReadOk { .. }, None) => {
                self.rep.ok_reads += 1;
                self.rep.samples.push(sample);
            }
            (WireResponse::Err { code, .. }, write) => {
                self.rep.errors += 1;
                match write {
                    Some(_) if code.retryable() => {
                        self.resend.push_back(job);
                        self.back_off(recv);
                    }
                    Some((la, tag)) => self.rep.unresolved.entry(la).or_default().push(tag),
                    None => {}
                }
                if code == ErrCode::ShuttingDown {
                    // The server is draining; let it finish, then retry.
                    self.disconnect();
                    self.retry_at = recv + Duration::from_millis(20);
                }
            }
            _ => self.rep.errors += 1,
        }
    }
}

fn run_conn(cfg: &LoadConfig, id: usize, start: Instant) -> LoadReport {
    os::tighten_timer_slack();
    let deadline = start + cfg.wall_deadline;
    let n = cfg.requests_per_conn;
    let plan = |k: usize| planned(cfg, (k * cfg.conns + id) as u64);
    let mut c = Conn {
        cfg,
        id,
        stream: None,
        reader: FrameReader::new(),
        buf: Vec::with_capacity(4096),
        next_req_id: 1,
        outstanding: VecDeque::new(),
        resend: VecDeque::new(),
        attempt: 0,
        retry_at: start,
        connects: 0,
        rep: LoadReport::default(),
    };
    // Requests of this connection sent at least once.
    let mut next = 0;
    loop {
        let now = Instant::now();
        if next == n && c.outstanding.is_empty() && c.resend.is_empty() || now >= deadline {
            break;
        }
        if c.stream.is_none() {
            if now < c.retry_at {
                std::thread::sleep(c.retry_at.min(deadline) - now);
            } else {
                c.connect(now);
            }
            continue;
        }

        // Send everything due: pending resends first, then new requests.
        c.buf.clear();
        if now >= c.retry_at {
            while let Some(job) = c.resend.pop_front() {
                c.push(job);
            }
        }
        while next < n {
            let p = plan(next);
            let due = start + p.due;
            if due > now {
                break;
            }
            c.rep.late.push(now - due);
            c.rep.sent += 1;
            c.push(Job { req: p.req, due });
            next += 1;
        }
        let stream = c.stream.as_mut().expect("connected above");
        if !c.buf.is_empty() && stream.write_all(&c.buf).is_err() {
            c.disconnect();
            continue;
        }

        // Wait for a response until the next send is due.
        let mut wake = if next < n {
            start + plan(next).due
        } else {
            deadline
        };
        if !c.resend.is_empty() {
            wake = wake.min(c.retry_at);
        }
        let now = Instant::now();
        if wake <= now {
            continue;
        }
        let got = match stream.wait_readable(wake - now) {
            Ok(false) => continue,
            Ok(true) => c.reader.fill_from(stream),
            Err(e) => Err(e),
        };
        match got {
            Ok(read) if read > 0 => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            _ => {
                // Closed by the server, or a socket error.
                c.disconnect();
                continue;
            }
        }
        let recv = Instant::now();
        loop {
            match c.reader.next_response() {
                Ok(Some(frame)) => c.on_response(frame, recv),
                Ok(None) => break,
                Err(_) => break c.disconnect(),
            }
        }
    }

    // A write never acknowledged is unresolved; a read never answered is
    // an error.
    let mut rep = c.rep;
    for job in c.outstanding.into_iter().map(|o| o.1).chain(c.resend) {
        match write_of(job.req) {
            Some((la, tag)) => rep.unresolved.entry(la).or_default().push(tag),
            None => rep.errors += 1,
        }
    }
    rep.reconnects = c.connects.saturating_sub(1);
    rep
}

/// Run one load phase: one thread per connection, merged report.
/// Panics on a configuration [`LoadConfig::check`] rejects.
pub fn run_load(cfg: &LoadConfig) -> LoadReport {
    if let Err(e) = cfg.check() {
        panic!("invalid load configuration: {e}");
    }
    let start = Instant::now();
    let mut merged = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.conns)
            .map(|c| s.spawn(move || run_conn(cfg, c, start)))
            .collect();
        let mut merged = LoadReport::default();
        for h in handles {
            merged.merge(h.join().expect("load connection thread panicked"));
        }
        merged
    });
    merged.late.sort_unstable();
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::encode_response;

    #[test]
    fn schedule_partitions_addresses_is_deterministic_and_honours_the_write_ratio() {
        let cfg = |seed, write_ratio| LoadConfig {
            conns: 3,
            lines: 1000,
            write_ratio,
            rate: 500.0,
            seed,
            first_index: 100,
            ..LoadConfig::default()
        };
        let plan = |cfg: LoadConfig| (0..6000).map(|i| planned(&cfg, i)).collect::<Vec<_>>();
        let writes = |plan: &[Planned]| plan.iter().filter_map(|p| write_of(p.req)).count();
        let a = plan(cfg(7, 0.3));
        for (i, p) in a.iter().enumerate() {
            let (WireRequest::Read { la } | WireRequest::Write { la, .. }) = p.req else {
                panic!("the schedule planned {:?}", p.req);
            };
            assert_eq!(la % 3, (i % 3) as u64, "address {la} of request {i}");
            assert!(la < 1000);
            assert_eq!(p.due, Duration::from_secs_f64(i as f64 / 500.0));
            if let Some((_, tag)) = write_of(p.req) {
                assert_eq!(tag, 100 + i as u32 + 1, "tag = index + 1");
            }
        }
        assert_eq!(a, plan(cfg(7, 0.3)));
        assert_ne!(a, plan(cfg(8, 0.3)));
        // 1 800 expected; the bounds are four standard deviations out.
        assert!((1650..1950).contains(&writes(&a)), "{} writes", writes(&a));
        assert_eq!(writes(&plan(cfg(7, 0.0))), 0);
        assert_eq!(writes(&plan(cfg(7, 1.0))), 6000);
        assert!(cfg(7, 0.3).check().is_ok());
        for bad in [
            cfg(7, 1.5),
            LoadConfig {
                rate: 0.0,
                ..cfg(7, 0.3)
            },
        ] {
            assert!(bad.check().is_err(), "{bad:?} accepted");
        }
    }

    /// Answer requests on `stream` at once until the client closes it or
    /// `limit` have been answered.
    fn answer(stream: &mut Stream, limit: usize) {
        let mut reader = FrameReader::new();
        let mut buf = Vec::new();
        let mut answered = 0;
        while answered < limit && matches!(reader.fill_from(stream), Ok(n) if n > 0) {
            buf.clear();
            while let Some(frame) = reader.next_request().expect("well-formed requests") {
                let resp = match frame.req {
                    WireRequest::Read { .. } => WireResponse::ReadOk {
                        data: LineData::Zeros,
                        latency_ns: 0,
                    },
                    _ => WireResponse::WriteOk {
                        retries: 0,
                        latency_ns: 0,
                    },
                };
                let req_id = frame.req_id;
                encode_response(&mut buf, &ResponseFrame { req_id, resp });
                answered += 1;
            }
            if stream.write_all(&buf).is_err() {
                return;
            }
        }
    }

    /// A server that goes away for 50 ms is a stall the generator cannot
    /// send through: requests due during it go out only after the
    /// reconnect. Timed from the due time, each is charged the rest of the
    /// stall; timed from the send, each would read a round trip.
    #[test]
    fn a_stall_is_charged_to_every_request_due_during_it() {
        let sock = std::env::temp_dir().join(format!("srbsg_lg_stall_{}.sock", std::process::id()));
        let ep = Endpoint::Uds(sock.clone());
        let (listener, _) = ep.listen().unwrap();
        let cfg = LoadConfig {
            endpoint: ep.clone(),
            requests_per_conn: 300,
            lines: 64,
            rate: 1000.0,
            wall_deadline: Duration::from_secs(30),
            ..LoadConfig::default()
        };
        let (rep, (stall_from, stall_to)) = std::thread::scope(|s| {
            let server = s.spawn(move || {
                let mut conn = listener.accept().unwrap();
                answer(&mut conn, 100);
                // Leave ~20 requests, reads among them, on the wire
                // unanswered; the client must resend them all.
                std::thread::sleep(Duration::from_millis(20));
                // Unreachable first, then closed: the client's reconnects
                // fail until the listener is back.
                drop(listener);
                std::fs::remove_file(&sock).unwrap();
                conn.shutdown();
                let from = Instant::now();
                std::thread::sleep(Duration::from_millis(50));
                let (listener, _) = ep.listen().unwrap();
                let to = Instant::now();
                answer(&mut listener.accept().unwrap(), usize::MAX);
                let _ = std::fs::remove_file(&sock);
                (from, to)
            });
            let rep = run_load(&cfg);
            (rep, server.join().unwrap())
        });
        assert_eq!(rep.reconnects, 1);
        assert!(rep.unresolved.is_empty(), "every write resent until acked");
        assert_eq!(rep.errors, 0, "every read resent until answered");
        assert_eq!(rep.samples.len() as u64, rep.sent);
        let mut during = 0;
        for &(due, latency) in &rep.samples {
            if due >= stall_from && due <= stall_to {
                during += 1;
                assert!(
                    due + latency + Duration::from_millis(1) >= stall_to,
                    "a request due {:?} into the stall reported {latency:?}",
                    due - stall_from
                );
            }
        }
        assert!(
            during >= 40,
            "only {during} samples were due during the stall"
        );
        let late_max = *rep.late.last().unwrap();
        assert!(late_max >= stall_to - stall_from - Duration::from_millis(1));
    }
}
