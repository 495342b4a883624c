//! The live server under test: spawn the release `srbsg-server`, read its
//! counters from outside (`/proc/<pid>` and the Stats opcode), and stop it.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use srbsg_server::{os, Client, Endpoint, StatsWire};

use crate::driver::{audit, percentile, run_phase, schedule, Ledger, Mix, PhaseResult, Planned};

/// Banks of the served device.
pub const BANKS: u64 = 4;
/// Address width per bank: 2^12 lines each.
pub const WIDTH: u32 = 12;
/// Logical lines of the served device.
pub const LINES: u64 = BANKS << WIDTH;

/// A running server process, killed on drop if not stopped cleanly.
pub struct ServerProc {
    child: Option<Child>,
    /// Where it listens (a Unix socket inside its run directory).
    pub ep: Endpoint,
}

/// Counters of the server process read from `/proc/<pid>`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User plus system CPU time, ms.
    pub cpu_ms: f64,
    /// Bytes the process caused to be sent to the storage layer.
    pub write_bytes: u64,
    /// Peak resident set size, MB.
    pub peak_rss_mb: f64,
}

impl ServerProc {
    /// Spawn a server on a fresh data directory under `dir` and wait until
    /// it answers a Ping. Returns the process and the seconds from spawn to
    /// the first Pong.
    pub fn spawn(bin: &Path, dir: &Path) -> std::io::Result<(Self, f64)> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir)?;
        // A relative socket path keeps clear of the 108-byte limit on Unix
        // socket addresses wherever the checkout lives.
        let sock: PathBuf = dir.join("sock");
        let t0 = Instant::now();
        let child = Command::new(bin)
            .arg("--listen")
            .arg(format!("uds:{}", sock.display()))
            .arg("--data-dir")
            .arg(dir.join("data"))
            .args(["--banks", &BANKS.to_string(), "--width", &WIDTH.to_string()])
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut srv = ServerProc {
            child: Some(child),
            ep: Endpoint::Uds(sock),
        };
        let deadline = t0 + Duration::from_secs(60);
        loop {
            if let Ok(mut c) = Client::connect(&srv.ep, Duration::from_secs(5)) {
                if c.ping().is_ok() {
                    return Ok((srv, t0.elapsed().as_secs_f64()));
                }
            }
            if let Some(status) = srv.child.as_mut().and_then(|c| c.try_wait().ok().flatten()) {
                return Err(std::io::Error::other(format!(
                    "server exited during start-up: {status}"
                )));
            }
            if Instant::now() > deadline {
                return Err(std::io::Error::other(
                    "server did not answer a Ping within 60 s",
                ));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The server's pid.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("server running").id()
    }

    /// A Stats snapshot over a fresh connection.
    pub fn stats(&self) -> std::io::Result<StatsWire> {
        let mut c = Client::connect(&self.ep, Duration::from_secs(5))?;
        let s = c.stats();
        c.close();
        s
    }

    /// Read CPU time, storage writes and peak RSS from `/proc/<pid>`.
    pub fn sample(&self) -> std::io::Result<ProcSample> {
        proc_sample(self.pid())
    }

    /// SIGTERM, then wait for the graceful drain; a non-zero exit is an
    /// error.
    pub fn stop(mut self) -> std::io::Result<()> {
        // On any early return the child stays in `self`, and drop kills
        // and reaps it.
        let child = self.child.as_mut().expect("server running");
        os::send_signal(child.id(), os::SIGTERM)?;
        let deadline = Instant::now() + Duration::from_secs(60);
        let status = loop {
            if let Some(status) = child.try_wait()? {
                break status;
            }
            if Instant::now() > deadline {
                return Err(std::io::Error::other("server did not drain within 60 s"));
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        self.child = None;
        if status.success() {
            Ok(())
        } else {
            Err(std::io::Error::other(format!(
                "server drain exited with {status}"
            )))
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn clock_ticks_per_sec() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf has no preconditions; it only reads a constant.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

/// CPU time, storage writes and peak RSS of process `pid`.
pub fn proc_sample(pid: u32) -> std::io::Result<ProcSample> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').map_or(0, |i| i + 2)..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    let cpu_ms = (ticks(11) + ticks(12)) * 1000.0 / clock_ticks_per_sec();
    let write_bytes = std::fs::read_to_string(format!("/proc/{pid}/io"))
        .ok()
        .and_then(|io| field(&io, "write_bytes:"))
        .unwrap_or(0);
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let hwm_kb = field(&status, "VmHWM:").unwrap_or(0);
    Ok(ProcSample {
        cpu_ms,
        write_bytes,
        peak_rss_mb: hwm_kb as f64 / 1024.0,
    })
}

/// The peak RSS of this process, MB.
pub fn own_peak_rss_mb() -> f64 {
    proc_sample(std::process::id()).map_or(0.0, |s| s.peak_rss_mb)
}

fn field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// A server workload: a request mix, its latency limit and reference rate.
#[derive(Debug, Clone, Copy)]
pub struct ServerWorkload {
    /// Fraction of requests that are writes.
    pub write_frac: f64,
    /// The p99 latency limit of `sustained_rps`.
    pub limit: Duration,
    /// The fixed rate `p50_ms` and `p99_ms` are measured at.
    pub ref_rate: f64,
    /// Length of one probe of the sustained-rate search.
    pub probe: Duration,
}

/// `server-mixed`: 50% writes, each acked only after a shelf save.
pub const MIXED: ServerWorkload = ServerWorkload {
    write_frac: 0.5,
    limit: Duration::from_millis(500),
    ref_rate: 200.0,
    probe: Duration::from_millis(1500),
};

/// `server-read`: reads only, so no batch saves the shelf.
pub const READ: ServerWorkload = ServerWorkload {
    write_frac: 0.0,
    limit: Duration::from_millis(5),
    ref_rate: 20_000.0,
    probe: Duration::from_secs(1),
};

/// Geometric bisection steps after the doubling search brackets the limit:
/// the final bracket is 2^(1/32) wide, about 2%.
const BISECT_STEPS: usize = 5;
/// Requests per p99 window: each window's p99 has ten samples beyond it.
pub const P99_WINDOW: usize = 1000;

/// Set-up samples per run: spawn-to-Pong includes the server's 5 ms
/// accept poll, so one sample is noisy.
pub const SETUP_SAMPLES: usize = 9;

/// Driver connections (and threads): at most the host's cores, at most 2,
/// so the same seed gives the same schedule on any host with ≥ 2 cores.
pub fn conns() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// A live server with the driver's bookkeeping for one run.
pub struct Session {
    /// The server.
    pub srv: ServerProc,
    /// Every answered write, for the audit.
    pub ledger: Ledger,
    next_index: u64,
    accounted: u64,
    seed: u64,
    workload: ServerWorkload,
}

impl Session {
    /// Spawn the server `samples` times on a fresh data directory under
    /// `dir` (draining all but the last) and return the last one with
    /// every spawn-to-first-Pong time.
    pub fn start(
        bin: &Path,
        dir: &Path,
        workload: ServerWorkload,
        seed: u64,
        samples: usize,
    ) -> std::io::Result<(Self, Vec<f64>)> {
        // Write back what earlier runs left dirty, so their writeback does
        // not queue ahead of this run's shelf saves.
        extern "C" {
            fn sync();
        }
        // SAFETY: sync(2) takes no arguments and cannot fail.
        unsafe { sync() };
        let mut setup = Vec::with_capacity(samples);
        let mut last = None;
        for k in 0..samples {
            let (srv, secs) = ServerProc::spawn(bin, dir)?;
            setup.push(secs);
            if k + 1 < samples {
                srv.stop()?;
            } else {
                last = Some(srv);
            }
        }
        let srv = last.expect("at least one set-up sample");
        Ok((
            Session {
                srv,
                ledger: Ledger::default(),
                next_index: 0,
                accounted: 0,
                seed,
                workload,
            },
            setup,
        ))
    }

    /// Run one open-loop phase of `secs` at `rate`, then wait until the
    /// server has accounted for every request sent.
    pub fn phase(&mut self, rate: f64, secs: f64, drain: Duration) -> std::io::Result<PhaseResult> {
        Ok(self.phase_with_plan(rate, secs, drain)?.0)
    }

    /// [`Session::phase`], also returning the requests it sent in due
    /// order.
    pub fn phase_with_plan(
        &mut self,
        rate: f64,
        secs: f64,
        drain: Duration,
    ) -> std::io::Result<(PhaseResult, Vec<Planned>)> {
        let n = ((rate * secs).round() as u64).max(1);
        let mix = Mix {
            lines: LINES,
            write_frac: self.workload.write_frac,
            seed: self.seed,
            index_base: self.next_index,
        };
        self.next_index += n;
        let plans = schedule(n, rate, conns(), &mix);
        let res = run_phase(&self.srv.ep, &plans, drain)?;
        self.ledger.absorb(&res);
        self.accounted += n;
        self.quiesce()?;
        let mut sent: Vec<Planned> = plans.into_iter().flatten().collect();
        sent.sort_by_key(|p| p.index);
        Ok((res, sent))
    }

    /// Wait until the server's counters cover every request sent, so one
    /// phase's backlog never runs into the next.
    fn quiesce(&self) -> std::io::Result<()> {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let s = self.srv.stats()?;
            let done = s.served_reads + s.served_writes + sheds(&s);
            if done >= self.accounted {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(std::io::Error::other("server did not settle within 60 s"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Read every address back; the count of lost acknowledged writes.
    pub fn audit(&self) -> std::io::Result<u64> {
        audit(&self.srv.ep, LINES, &self.ledger)
    }
}

/// Requests the server refused or shed, all causes.
pub fn sheds(s: &StatsWire) -> u64 {
    s.shed_queue_full
        + s.shed_deadline
        + s.shed_quarantine
        + s.shed_retries
        + s.shed_fault
        + s.shed_overload
        + s.shed_read_only
}

/// One probe of the sustained-rate search.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Offered rate, requests/s.
    pub rate: f64,
    /// p99 latency from the due time, ns.
    pub p99_ns: u64,
    /// Whether the probe met the limit with no failure and no backlog.
    pub pass: bool,
}

impl Session {
    /// Probe `rate`; a failing probe is repeated once, so a single stall of
    /// the host (not of the server) cannot end the search early.
    fn probe(&mut self, rate: f64) -> std::io::Result<Probe> {
        let w = self.workload;
        let mut p = Probe {
            rate,
            p99_ns: 0,
            pass: false,
        };
        for _ in 0..2 {
            let res = self.phase(rate, w.probe.as_secs_f64(), 2 * w.limit)?;
            p = self.judge(rate, &res);
            if p.pass {
                break;
            }
        }
        Ok(p)
    }

    /// Whether a phase at `rate` met the limit: no failure, p99 (per 1000
    /// requests, median over the phase) within the limit, and no backlog
    /// growing through its last fifth.
    pub fn judge(&self, rate: f64, res: &PhaseResult) -> Probe {
        let limit = self.workload.limit.as_nanos() as u64;
        let p99_ns = res.window_percentile(0.99, P99_WINDOW);
        let last_due = res.ok.last().map_or(0, |s| s.0);
        let tail_ok = percentile(&res.latencies_from(last_due / 5 * 4), 0.5) <= limit;
        Probe {
            rate,
            p99_ns,
            pass: res.failed() == 0 && p99_ns <= limit && tail_ok,
        }
    }

    /// The highest offered rate whose p99 stays within the limit with no
    /// failure and no growing backlog: the geometric middle of the final
    /// bracket. Doubling (or halving) from the already-judged `start`
    /// phase brackets it, and [`BISECT_STEPS`] geometric bisections narrow
    /// it.
    pub fn sustained(&mut self, start: Probe, probes: &mut Vec<Probe>) -> std::io::Result<f64> {
        const MAX_RATE: f64 = 4.0e6;
        let mut lo: Option<Probe> = None;
        let mut hi: Option<Probe> = None;
        let mut r = start.rate;
        let mut p = start;
        // Bracket: double up from a passing rate, or halve down to one.
        loop {
            if p.pass {
                lo = Some(p);
                if hi.is_some() || r * 2.0 > MAX_RATE {
                    break;
                }
                r *= 2.0;
            } else {
                hi = Some(p);
                if lo.is_some() || r / 2.0 < 1.0 {
                    break;
                }
                r /= 2.0;
            }
            p = self.probe(r)?;
            probes.push(p);
        }
        let (Some(mut lo), Some(mut hi)) = (lo, hi) else {
            return Ok(lo.map_or(1.0, |p| p.rate));
        };
        for _ in 0..BISECT_STEPS {
            let p = self.probe((lo.rate * hi.rate).sqrt())?;
            probes.push(p);
            if p.pass {
                lo = p;
            } else {
                hi = p;
            }
        }
        Ok((lo.rate * hi.rate).sqrt())
    }
}
