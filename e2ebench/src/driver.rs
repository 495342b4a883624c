//! The open-loop load driver.
//!
//! Requests are due on a fixed schedule, whatever the server does: request
//! `i` of a phase at rate `r` is due `i / r` seconds after the phase starts
//! and goes out on connection `i mod conns`. Each connection is served by
//! one thread that sends everything due, then blocks on its socket until
//! the next request is due. The wait is a `ppoll` with a nanosecond
//! timeout: `SO_RCVTIMEO` and `poll` both round the wait up to a scheduler
//! tick or a millisecond, which at a 4 ms tick would make the driver itself
//! the bottleneck. Every latency is timed from the request's
//! *scheduled* send time, so a stall in the server or in the driver itself
//! is charged to every request it delays, and the driver reports its own
//! lateness (send time minus due time) so a generator that fell behind is
//! visible rather than hidden.
//!
//! Addresses are partitioned by connection (`la mod conns == conn`), so
//! every address has exactly one writer and the last acknowledged write to
//! it is well defined for the read-back audit.

use std::collections::HashMap;
use std::io::{self, Write as _};
use std::time::{Duration, Instant};

use srbsg_pcm::LineData;
use srbsg_server::client::read_response;
use srbsg_server::{
    encode_request, Endpoint, FrameReader, RequestFrame, Stream, WireRequest, WireResponse,
};

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planned {
    /// Phase-global request index (also the wire request id).
    pub index: u64,
    /// When the request is due, from the phase start.
    pub due: Duration,
    /// The request itself.
    pub req: WireRequest,
}

/// The request mix of a phase.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Logical lines of the device.
    pub lines: u64,
    /// Fraction of requests that are writes.
    pub write_frac: f64,
    /// Seed of the address and operation draws.
    pub seed: u64,
    /// Index of the phase's first request. Indices (and the write tags
    /// derived from them) grow across the phases of one server run.
    pub index_base: u64,
}

/// SplitMix64 finaliser: a stateless hash of one counter value.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Build a phase's schedule: `n` requests at `rate` per second, split
/// round-robin over `conns` connections. Returns one plan per connection,
/// each in due order.
pub fn schedule(n: u64, rate: f64, conns: usize, mix: &Mix) -> Vec<Vec<Planned>> {
    assert!(rate > 0.0 && conns >= 1 && mix.lines >= conns as u64);
    let per_conn_lines = mix.lines / conns as u64;
    let mut plans: Vec<Vec<Planned>> = vec![Vec::new(); conns];
    for i in 0..n {
        let index = mix.index_base + i;
        let conn = (i % conns as u64) as usize;
        let h = mix64(mix.seed ^ mix64(index));
        let la = conn as u64 + conns as u64 * ((h >> 11) % per_conn_lines);
        let is_write = ((h & 0x3FF) as f64) < mix.write_frac * 1024.0;
        let req = if is_write {
            WireRequest::Write {
                la,
                data: LineData::Mixed(index as u32 + 1),
            }
        } else {
            WireRequest::Read { la }
        };
        plans[conn].push(Planned {
            index,
            due: Duration::from_secs_f64(i as f64 / rate),
            req,
        });
    }
    plans
}

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1); 0 for an
/// empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// What one phase observed, merged over its connections.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// Requests scheduled.
    pub sent: u64,
    /// Successful requests: (due time from the phase start, latency from
    /// the due time), ns.
    pub ok: Vec<(u64, u64)>,
    /// Send time minus due time of every request, ns, sorted.
    pub late_ns: Vec<u64>,
    /// Typed error responses (refusals, sheds, faults).
    pub errors: u64,
    /// Requests with no response by the phase's drain deadline.
    pub timeouts: u64,
    /// Acknowledged writes: address → (request index, tag).
    pub acked: HashMap<u64, (u64, u32)>,
    /// Writes answered with an error: address → tags (the server may or
    /// may not have applied them; they are legal audit outcomes only if
    /// sent after the last ack).
    pub unacked: HashMap<u64, Vec<(u64, u32)>>,
}

impl PhaseResult {
    /// Failed requests (errors plus timeouts).
    pub fn failed(&self) -> u64 {
        self.errors + self.timeouts
    }

    /// Latencies of the successful requests due at or after `from_ns`,
    /// ascending.
    pub fn latencies_from(&self, from_ns: u64) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .ok
            .iter()
            .filter(|s| s.0 >= from_ns)
            .map(|s| s.1)
            .collect();
        v.sort_unstable();
        v
    }

    /// Percentile `q` of each run of `window` consecutive requests (in due
    /// order; a short remainder joins the last run), and the median of
    /// those. With `window` = 1000, each run's p99 has ten samples beyond
    /// it, and one slow burst moves one run's p99, not the result.
    pub fn window_percentile(&self, q: f64, window: usize) -> u64 {
        let runs = (self.ok.len() / window).max(1);
        let values: Vec<f64> = (0..runs)
            .map(|k| {
                let end = if k + 1 == runs {
                    self.ok.len()
                } else {
                    (k + 1) * window
                };
                let mut w: Vec<u64> = self.ok[k * window..end].iter().map(|s| s.1).collect();
                w.sort_unstable();
                percentile(&w, q) as f64
            })
            .collect();
        median(&values) as u64
    }

    fn merge(&mut self, other: PhaseResult) {
        self.sent += other.sent;
        self.ok.extend(other.ok);
        self.late_ns.extend(other.late_ns);
        self.errors += other.errors;
        self.timeouts += other.timeouts;
        self.acked.extend(other.acked);
        for (la, v) in other.unacked {
            self.unacked.entry(la).or_default().extend(v);
        }
    }
}

/// Run one phase: every connection's plan on its own thread (the calling
/// thread serves connection 0), each request sent when due. Requests still
/// unanswered `drain` after the last one was due count as timeouts.
pub fn run_phase(
    ep: &Endpoint,
    plans: &[Vec<Planned>],
    drain: Duration,
) -> io::Result<PhaseResult> {
    // Each connection answers a Ping before the clock starts, so the
    // server's accept-loop poll and thread start-up are not charged to the
    // first requests.
    let streams = plans
        .iter()
        .map(|_| {
            let mut stream = ep.connect(Duration::from_secs(5))?;
            let mut buf = Vec::new();
            encode_request(
                &mut buf,
                &RequestFrame {
                    req_id: u64::MAX,
                    req: WireRequest::Ping,
                },
            );
            stream.write_all(&buf)?;
            let deadline = Instant::now() + Duration::from_secs(5);
            match read_response(&mut stream, &mut FrameReader::new(), deadline)?.resp {
                WireResponse::Pong => Ok(stream),
                other => Err(io::Error::other(format!("warm-up Ping answered {other:?}"))),
            }
        })
        .collect::<io::Result<Vec<_>>>()?;
    let start = Instant::now() + Duration::from_millis(2);
    let mut results = std::thread::scope(|s| {
        let mut streams = streams.into_iter();
        let first = streams.next().expect("at least one connection");
        let handles: Vec<_> = streams
            .zip(&plans[1..])
            .map(|(stream, plan)| s.spawn(move || run_conn(stream, plan, start, drain)))
            .collect();
        let mut out = vec![run_conn(first, &plans[0], start, drain)];
        for h in handles {
            out.push(h.join().expect("driver connection thread panicked"));
        }
        out
    })
    .into_iter();
    let mut merged = results.next().expect("one result per connection")?;
    for r in results {
        merged.merge(r?);
    }
    merged.ok.sort_unstable();
    merged.late_ns.sort_unstable();
    Ok(merged)
}

fn run_conn(
    mut stream: Stream,
    plan: &[Planned],
    start: Instant,
    drain: Duration,
) -> io::Result<PhaseResult> {
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    tighten_timer_slack();
    // The socket stays blocking: `ppoll` says when a read will not block,
    // and a send blocks only while the server is not reading at all.
    let fd = raw_fd(&stream);
    let mut res = PhaseResult {
        sent: plan.len() as u64,
        ..PhaseResult::default()
    };
    let slot_of: HashMap<u64, usize> = plan.iter().enumerate().map(|(k, p)| (p.index, k)).collect();
    let mut answered = vec![false; plan.len()];
    let mut outstanding = 0usize;
    let mut reader = FrameReader::new();
    let mut buf = Vec::with_capacity(4096);
    let deadline = start + plan.last().map_or(Duration::ZERO, |p| p.due) + drain;
    let mut next = 0;
    loop {
        let now = Instant::now();
        buf.clear();
        while next < plan.len() && start + plan[next].due <= now {
            let p = &plan[next];
            encode_request(
                &mut buf,
                &RequestFrame {
                    req_id: p.index,
                    req: p.req,
                },
            );
            res.late_ns.push((now - (start + p.due)).as_nanos() as u64);
            next += 1;
            outstanding += 1;
        }
        if !buf.is_empty() {
            stream.write_all(&buf)?;
        }
        if next == plan.len() && outstanding == 0 {
            break;
        }
        let wake = if next < plan.len() {
            start + plan[next].due
        } else {
            deadline
        };
        let now = Instant::now();
        if now >= wake {
            if next == plan.len() {
                res.timeouts = outstanding as u64;
                // An unanswered write may still be applied after the phase.
                for (p, _) in plan.iter().zip(&answered).filter(|(_, a)| !**a) {
                    if let WireRequest::Write { la, data } = p.req {
                        res.unacked
                            .entry(la)
                            .or_default()
                            .push((p.index, tag_of(data)));
                    }
                }
                break;
            }
            continue;
        }
        if !wait_readable(fd, wake - now)? {
            continue;
        }
        match reader.fill_from(&mut stream) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ))
            }
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(e) => return Err(e),
        }
        let recv = Instant::now();
        while let Some(frame) = reader
            .next_response()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
        {
            let k = *slot_of.get(&frame.req_id).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown request id {}", frame.req_id),
                )
            })?;
            if std::mem::replace(&mut answered[k], true) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "duplicate response",
                ));
            }
            outstanding -= 1;
            let p = &plan[k];
            let ok = match (frame.resp, p.req) {
                (WireResponse::ReadOk { .. }, WireRequest::Read { .. }) => true,
                (WireResponse::WriteOk { .. }, WireRequest::Write { la, data }) => {
                    let tag = tag_of(data);
                    let e = res.acked.entry(la).or_insert((p.index, tag));
                    if p.index >= e.0 {
                        *e = (p.index, tag);
                    }
                    true
                }
                (WireResponse::Err { .. }, WireRequest::Write { la, data }) => {
                    res.unacked
                        .entry(la)
                        .or_default()
                        .push((p.index, tag_of(data)));
                    false
                }
                (WireResponse::Err { .. }, _) => false,
                (other, req) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("response {other:?} does not answer {req:?}"),
                    ))
                }
            };
            if ok {
                let ns = recv.saturating_duration_since(start + p.due).as_nanos() as u64;
                res.ok.push((p.due.as_nanos() as u64, ns));
            } else {
                res.errors += 1;
            }
        }
    }
    Ok(res)
}

fn raw_fd(stream: &Stream) -> i32 {
    use std::os::fd::AsRawFd;
    match stream {
        Stream::Tcp(s) => s.as_raw_fd(),
        Stream::Unix(s) => s.as_raw_fd(),
    }
}

/// Drop this thread's timer slack from the default 50 µs to 1 ns, so a
/// wait for the next due request wakes when asked, not up to 50 µs late.
fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes a plain integer and touches no
    // caller memory; a failure only leaves the default slack in place.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Block until `fd` is readable or `timeout` passes; `Ok(false)` on
/// timeout or signal interruption.
fn wait_readable(fd: i32, timeout: Duration) -> io::Result<bool> {
    const POLLIN: i16 = 0x1;
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: timeout.subsec_nanos() as i64,
    };
    // SAFETY: `pfd` and `ts` are valid for the duration of the call, nfds
    // is 1 to match the single entry, and a null sigmask leaves the signal
    // mask unchanged.
    let n = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    if n < 0 {
        let e = io::Error::last_os_error();
        return if e.kind() == io::ErrorKind::Interrupted {
            Ok(false)
        } else {
            Err(e)
        };
    }
    Ok(n > 0)
}

fn tag_of(data: LineData) -> u32 {
    match data {
        LineData::Mixed(t) => t,
        _ => 0,
    }
}

/// Every write the driver ever had answered, across the phases of one
/// server run: the audit's ledger.
#[derive(Debug, Default)]
pub struct Ledger {
    acked: HashMap<u64, (u64, u32)>,
    unacked: HashMap<u64, Vec<(u64, u32)>>,
}

impl Ledger {
    /// Fold a phase in. Request indices must grow across phases.
    pub fn absorb(&mut self, phase: &PhaseResult) {
        for (&la, &(idx, tag)) in &phase.acked {
            let e = self.acked.entry(la).or_insert((idx, tag));
            if idx >= e.0 {
                *e = (idx, tag);
            }
        }
        for (la, v) in &phase.unacked {
            self.unacked.entry(*la).or_default().extend(v);
        }
    }

    /// The audit rule: an address must hold its last acknowledged tag, or
    /// the tag of an unacknowledged write sent after it (which the server
    /// may have applied); a never-acked address may also still hold its
    /// initial zeros. Anything else is a lost acknowledged write.
    pub fn admits(&self, la: u64, got: LineData) -> bool {
        let last = self.acked.get(&la).copied();
        let later_unacked = |tag: u32| {
            self.unacked.get(&la).is_some_and(|v| {
                v.iter()
                    .any(|&(i, t)| t == tag && last.is_none_or(|(li, _)| i > li))
            })
        };
        match (last, got) {
            (Some((_, tag)), LineData::Mixed(t)) => t == tag || later_unacked(t),
            (None, LineData::Zeros) => true,
            (None, LineData::Mixed(t)) => later_unacked(t),
            _ => false,
        }
    }
}

/// Read every address `0..lines` back over one connection (pipelined in
/// chunks) and count the addresses the ledger does not admit.
pub fn audit(ep: &Endpoint, lines: u64, ledger: &Ledger) -> io::Result<u64> {
    let mut stream = ep.connect(Duration::from_secs(5))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut reader = FrameReader::new();
    let mut buf = Vec::new();
    let mut lost = 0;
    const CHUNK: u64 = 256;
    let mut la = 0;
    while la < lines {
        let end = (la + CHUNK).min(lines);
        buf.clear();
        for a in la..end {
            encode_request(
                &mut buf,
                &RequestFrame {
                    req_id: a,
                    req: WireRequest::Read { la: a },
                },
            );
        }
        stream.write_all(&buf)?;
        for _ in la..end {
            let frame = read_response(
                &mut stream,
                &mut reader,
                Instant::now() + Duration::from_secs(10),
            )?;
            match frame.resp {
                WireResponse::ReadOk { data, .. } => {
                    if !ledger.admits(frame.req_id, data) {
                        lost += 1;
                    }
                }
                other => {
                    return Err(io::Error::other(format!(
                        "audit read of {} refused: {other:?}",
                        frame.req_id
                    )))
                }
            }
        }
        la = end;
    }
    Ok(lost)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(write_frac: f64) -> Mix {
        Mix {
            lines: 1 << 12,
            write_frac,
            seed: 7,
            index_base: 100,
        }
    }

    #[test]
    fn schedule_paces_requests_at_the_rate_round_robin() {
        let plans = schedule(1000, 500.0, 2, &mix(0.5));
        assert_eq!(plans.len(), 2);
        assert_eq!(plans[0].len() + plans[1].len(), 1000);
        for (c, plan) in plans.iter().enumerate() {
            for p in plan {
                assert_eq!(p.index % 2, c as u64);
                // Request i is due exactly i / rate after the start.
                let i = p.index - 100;
                assert_eq!(p.due, Duration::from_secs_f64(i as f64 / 500.0));
            }
            assert!(plan.windows(2).all(|w| w[0].due < w[1].due));
        }
        let last = plans.iter().flatten().map(|p| p.due).max().unwrap();
        assert_eq!(last, Duration::from_secs_f64(999.0 / 500.0));
    }

    #[test]
    fn schedule_gives_each_address_a_single_writer() {
        let plans = schedule(4000, 1000.0, 2, &mix(0.5));
        for (c, plan) in plans.iter().enumerate() {
            for p in plan {
                let la = match p.req {
                    WireRequest::Read { la } | WireRequest::Write { la, .. } => la,
                    _ => unreachable!(),
                };
                assert_eq!(la % 2, c as u64, "address {la} on connection {c}");
                assert!(la < 1 << 12);
            }
        }
    }

    #[test]
    fn schedule_is_seeded_and_honours_the_write_fraction() {
        let a = schedule(4000, 1000.0, 2, &mix(0.5));
        assert_eq!(a, schedule(4000, 1000.0, 2, &mix(0.5)));
        let other = Mix {
            seed: 8,
            ..mix(0.5)
        };
        assert_ne!(a, schedule(4000, 1000.0, 2, &other));
        let writes = a
            .iter()
            .flatten()
            .filter(|p| matches!(p.req, WireRequest::Write { .. }))
            .count();
        assert!((1800..2200).contains(&writes), "{writes} writes of 4000");
        let reads_only = schedule(4000, 1000.0, 2, &mix(0.0));
        assert!(reads_only
            .iter()
            .flatten()
            .all(|p| matches!(p.req, WireRequest::Read { .. })));
        // Tags are unique and start after the base.
        let mut tags: Vec<u32> = a
            .iter()
            .flatten()
            .filter_map(|p| match p.req {
                WireRequest::Write {
                    data: LineData::Mixed(t),
                    ..
                } => Some(t),
                _ => None,
            })
            .collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), writes);
        assert!(tags[0] > 100);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
        let w: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&w, 0.99), 990);
    }

    #[test]
    fn window_percentile_is_the_median_of_per_window_percentiles() {
        let mut r = PhaseResult::default();
        // Three windows of 100 samples: latencies 1..=100, plus 1000 in
        // every sample of the middle window.
        for w in 0..3u64 {
            for k in 1..=100u64 {
                let lat = if w == 1 { 1000 + k } else { k };
                r.ok.push((w * 1_000 + k, lat));
            }
        }
        r.ok.sort_unstable();
        assert_eq!(r.window_percentile(0.99, 100), 99);
        assert_eq!(r.window_percentile(0.5, 100), 50);
        // Fewer samples than one window: the plain percentile.
        assert_eq!(
            r.window_percentile(0.99, 1000),
            percentile(&r.latencies_from(0), 0.99)
        );
        // A remainder joins the last window: 300 samples in windows of 120
        // make two, [0, 120) with median 60 and [120, 300) with median 90.
        assert_eq!(r.window_percentile(0.5, 120), (60 + 90) / 2);
        assert_eq!(r.latencies_from(2_000).len(), 100);
        assert_eq!(percentile(&r.latencies_from(0), 0.99), 1097);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn ledger_admits_only_the_last_ack_or_a_later_unacked_write() {
        let mut phase = PhaseResult::default();
        phase.acked.insert(4, (10, 1));
        phase.unacked.insert(4, vec![(5, 9), (12, 2)]);
        let mut ledger = Ledger::default();
        ledger.absorb(&phase);
        let mut newer = PhaseResult::default();
        newer.acked.insert(6, (20, 3));
        ledger.absorb(&newer);
        assert!(ledger.admits(4, LineData::Mixed(1)));
        assert!(
            ledger.admits(4, LineData::Mixed(2)),
            "unacked after the ack"
        );
        assert!(
            !ledger.admits(4, LineData::Mixed(9)),
            "unacked before the ack"
        );
        assert!(!ledger.admits(4, LineData::Zeros), "lost ack");
        assert!(ledger.admits(6, LineData::Mixed(3)));
        assert!(ledger.admits(8, LineData::Zeros));
        assert!(!ledger.admits(8, LineData::Mixed(3)));
    }
}
