//! `experiments servebin` — the kill–restart chaos harness for the
//! `srbsg-server` binary. Unlike `serve`/`crashfuzz`, which exercise the
//! in-process front-end, this harness drives a **real server process**:
//! it launches `srbsg-server`, aims the open-loop load generator
//! (`srbsg_server::loadgen`, on threads of this process) at it over the
//! wire, and injects failures from the outside. Only the server is a
//! separate process, because it has to be `SIGKILL`ed.
//!
//! Phases, in order, all over one durable data directory:
//!
//! 1. **fuzz (TCP)** — five classes of malformed frames against a live
//!    TCP server: oversized length prefix, undersized length prefix,
//!    bit-flipped payload, unknown opcode with a valid checksum, and a
//!    truncated frame followed by an abrupt close. Every class must
//!    produce a typed error (or a clean drop for the truncation) and
//!    leave the server answering pings; then a `SIGTERM` drain must
//!    exit 0.
//! 2. **steady bench (UDS)** — open-loop load at 1/2/4 connections, every
//!    phase offering [`RATE`] in all; latency from each request's due time
//!    and the generator's own lateness recorded per phase.
//! 3. **SIGKILL chaos** — load runs while, once enough writes are
//!    acknowledged, the server is killed with `SIGKILL` and restarted on
//!    the same endpoint; the phase runs to completion across the gap
//!    (client-side backoff + resend).
//! 4. **SIGTERM-under-load chaos** — same, but the server is asked to
//!    drain gracefully mid-load and must exit 0 before the restart.
//! 5. **post-restart bench** — 1/2/4 connections again, on the
//!    recovered, re-keyed instance; at the same offered rate, its latency
//!    compares directly with the steady bench.
//! 6. **audit** — final drain + restart, then every address that ever
//!    carried an acknowledged write is read back: the device must hold
//!    the last acked tag, or an unresolved (never-acknowledged) tag from
//!    the same phase or later. Anything else is a lost acked write, and
//!    the harness panics — that is the CI gate.
//!
//! Results go to `results/servebin.csv` and `results/BENCH_server.json`,
//! with the host's core count, filesystem type and fsync mode. The server
//! binary is found next to the `experiments` binary, or via
//! `SRBSG_SERVER_BIN`.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use srbsg_persist::crc64;
use srbsg_server::{os, run_load, Client, Endpoint, ErrCode, LoadConfig, LoadReport, WireResponse};

use crate::table::Table;
use crate::Opts;

/// Offered load of every phase, requests per second over all connections:
/// the reference rate of e2ebench's `server-mixed` workload (`MIXED.ref_rate`
/// in `e2ebench/src/server.rs`), the rate at which that benchmark measures
/// the p50 and p99 of the same 50 % write mix. It is an operating point, not
/// a capacity: an open loop below capacity serves what it is offered, so
/// the harness reports no goodput.
const RATE: f64 = 200.0;

/// Harness scale, derived from `--quick`.
struct Scale {
    banks: usize,
    width: u32,
    lines: u64,
    /// Requests per bench phase, over all connections.
    bench_requests: usize,
    /// Requests per chaos phase, over all connections.
    chaos_requests: usize,
    chaos_conns: usize,
    kill_after_writes: u64,
}

impl Scale {
    fn new(quick: bool) -> Self {
        if quick {
            Self {
                banks: 2,
                width: 6,
                lines: 2 << 6,
                bench_requests: 200,
                chaos_requests: 800,
                chaos_conns: 2,
                kill_after_writes: 150,
            }
        } else {
            Self {
                banks: 4,
                width: 8,
                lines: 4 << 8,
                bench_requests: 2000,
                chaos_requests: 3000,
                chaos_conns: 4,
                kill_after_writes: 600,
            }
        }
    }
}

/// Locate the server binary: explicit env override, else a sibling of the
/// running `experiments` binary (same target profile).
fn server_bin() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running binary");
    let p = std::env::var_os("SRBSG_SERVER_BIN")
        .map_or_else(|| exe.with_file_name("srbsg-server"), PathBuf::from);
    assert!(
        p.is_file(),
        "srbsg-server not found at {} — build it first \
         (cargo build --release -p srbsg-server) or set SRBSG_SERVER_BIN",
        p.display()
    );
    p
}

struct Server {
    child: Child,
}

/// A panic anywhere in the harness must not leak an orphaned server
/// (which would also hold the harness's inherited stderr open).
impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn start_server(bin: &Path, scale: &Scale, dir: &Path, listen: &str) -> Server {
    let child = Command::new(bin)
        .args([
            "--listen",
            listen,
            "--data-dir",
            dir.to_str().unwrap(),
            "--banks",
            &scale.banks.to_string(),
            "--width",
            &scale.width.to_string(),
            "--sub-regions",
            "4",
            "--seed",
            "0xC4A05",
            "--checkpoint-every",
            "64",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn srbsg-server");
    Server { child }
}

fn wait_ready(ep: &Endpoint) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(mut c) = Client::connect(ep, Duration::from_millis(200)) {
            if c.ping().is_ok() {
                return;
            }
        }
        assert!(Instant::now() < deadline, "server never came up on {ep}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

impl Server {
    fn sigkill(&mut self) {
        self.child.kill().expect("SIGKILL");
        let _ = self.child.wait();
    }

    fn sigterm_expect_clean_exit(&mut self, what: &str) {
        os::send_signal(self.child.id(), os::SIGTERM).expect("SIGTERM");
        let status = self.child.wait().expect("wait for server");
        assert_eq!(status.code(), Some(0), "{what}: drain must exit 0");
    }
}

/// One finished load phase.
struct Phase {
    name: String,
    cfg: LoadConfig,
    report: LoadReport,
}

/// Run one load phase on threads of this process; `during` runs on the
/// calling thread meanwhile (the chaos phases kill and restart the server
/// from it).
fn phase(name: &str, cfg: LoadConfig, during: impl FnOnce()) -> Phase {
    let report = std::thread::scope(|s| {
        let load = s.spawn(|| run_load(&cfg));
        during();
        load.join().expect("load generator panicked")
    });
    println!("  {name}: rate_rps={} {report}", cfg.rate);
    let name = name.to_string();
    Phase { name, cfg, report }
}

/// Current acked-write count as seen over the wire; `None` while the
/// server is down or restarting.
fn served_writes(ep: &Endpoint) -> Option<u64> {
    let mut c = Client::connect(ep, Duration::from_millis(300)).ok()?;
    c.stats().ok().map(|s| s.served_writes)
}

fn wait_for_writes(ep: &Endpoint, threshold: u64, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(90);
    while served_writes(ep).is_none_or(|w| w < threshold) {
        assert!(
            Instant::now() < deadline,
            "{what}: never reached {threshold} served writes"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Phase 1: the malformed-frame fuzz corpus against a live TCP server.
/// Returns the malformed-frame count the server itself reported.
fn fuzz_phase(bin: &Path, scale: &Scale, root: &Path) -> u64 {
    let dir = root.join("tcp");
    std::fs::create_dir_all(&dir).unwrap();
    let mut srv = start_server(bin, scale, &dir, "tcp:127.0.0.1:0");
    // The kernel picks the port; the server writes the bound endpoint to
    // a sidecar for exactly this kind of discovery.
    let ep = {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(s) = std::fs::read_to_string(dir.join("endpoint")) {
                if let Ok(ep) = Endpoint::parse(s.trim()) {
                    break ep;
                }
            }
            assert!(Instant::now() < deadline, "endpoint sidecar never appeared");
            std::thread::sleep(Duration::from_millis(20));
        }
    };
    wait_ready(&ep);

    let valid_ping: Vec<u8> = {
        let mut buf = Vec::new();
        srbsg_server::encode_request(
            &mut buf,
            &srbsg_server::RequestFrame {
                req_id: 1,
                req: srbsg_server::proto::WireRequest::Ping,
            },
        );
        buf
    };
    let mut flipped = valid_ping.clone();
    let idx = flipped.len() - 9; // inside the body, before the CRC
    flipped[idx] ^= 0x40;
    let bad_opcode: Vec<u8> = {
        let mut body = vec![1u8, 0x7F];
        body.extend_from_slice(&7u64.to_le_bytes());
        let crc = crc64(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        let mut f = (body.len() as u32).to_le_bytes().to_vec();
        f.extend_from_slice(&body);
        f
    };
    let corpus: [(&str, &[u8]); 4] = [
        ("oversized length", &u32::MAX.to_le_bytes()),
        ("undersized length", &2u32.to_le_bytes()),
        ("bit-flipped payload", &flipped),
        ("bad opcode, valid crc", &bad_opcode),
    ];
    for (what, bytes) in corpus {
        let mut c = Client::connect(&ep, Duration::from_secs(5)).expect("connect");
        c.send_raw(bytes).expect("send");
        match c.recv() {
            Ok(resp) => assert!(
                matches!(
                    resp.resp,
                    WireResponse::Err {
                        code: ErrCode::BadFrame,
                        ..
                    }
                ),
                "{what}: expected BadFrame, got {resp:?}"
            ),
            Err(e) => panic!("{what}: expected a BadFrame response, got {e}"),
        }
        println!("  fuzz: {what} -> typed BadFrame, connection closed");
    }
    // Class 5 — truncated frame, then abrupt close: no response owed.
    {
        let mut c = Client::connect(&ep, Duration::from_secs(5)).expect("connect");
        c.send_raw(&valid_ping[..valid_ping.len() - 3])
            .expect("send partial");
        drop(c);
        println!("  fuzz: truncated frame + abrupt close -> dropped");
    }
    let mut c = Client::connect(&ep, Duration::from_secs(5)).expect("connect");
    c.ping().expect("server must survive the fuzz corpus");
    let malformed = c.stats().expect("stats").malformed_frames;
    assert!(
        malformed >= 4,
        "server counted only {malformed} malformed frames"
    );
    srv.sigterm_expect_clean_exit("tcp fuzz server");
    malformed
}

/// The cross-phase zero-lost-acked-writes audit. For every address that
/// ever carried an acked write, the device must hold the last acked tag
/// or an unresolved tag from the same phase or later (an in-flight write
/// the server applied without the ack reaching the client).
fn audit(phases: &[Phase], ep: &Endpoint) -> (usize, usize) {
    let mut last_ack: HashMap<u64, (usize, u32)> = HashMap::new();
    let mut unresolved: HashMap<u64, Vec<(usize, u32)>> = HashMap::new();
    for (pi, phase) in phases.iter().enumerate() {
        for (&la, &tag) in &phase.report.acked {
            last_ack.insert(la, (pi, tag));
        }
        for (&la, tags) in &phase.report.unresolved {
            let e = unresolved.entry(la).or_default();
            e.extend(tags.iter().map(|&t| (pi, t)));
        }
    }
    let mut c = Client::connect(ep, Duration::from_secs(10)).expect("audit connect");
    let empty = Vec::new();
    let mut lost = 0usize;
    for (&la, &(api, atag)) in &last_ack {
        let got = c
            .read(la)
            .expect("audit read io")
            .unwrap_or_else(|r| panic!("audit read of la={la} rejected: {r:?}"));
        let ok = match got {
            srbsg_pcm::LineData::Mixed(t) => {
                t == atag
                    || unresolved
                        .get(&la)
                        .unwrap_or(&empty)
                        .iter()
                        .any(|&(pi, tag)| tag == t && pi >= api)
            }
            other => {
                eprintln!("AUDIT: la={la} holds {other:?}, expected a tagged write");
                false
            }
        };
        if !ok {
            eprintln!(
                "AUDIT: lost acked write at la={la}: device={got:?}, last ack tag={atag} \
                 (phase {})",
                phases[api].name
            );
            lost += 1;
        }
    }
    (lost, last_ack.len())
}

/// Run the full harness. Panics (failing the process, and CI) on any
/// robustness violation.
pub fn run(opts: &Opts) {
    let scale = Scale::new(opts.quick);
    let bin = server_bin();
    let root = std::env::temp_dir().join(format!("srbsg_servebin_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();

    println!("== servebin: malformed-frame fuzz over TCP ==");
    let malformed = fuzz_phase(&bin, &scale, &root);

    // Everything else runs against one durable data dir over UDS, so the
    // endpoint survives restarts (no TIME_WAIT rebind races).
    let dir = root.join("main");
    std::fs::create_dir_all(&dir).unwrap();
    let ep_str = format!("uds:{}", dir.join("srv.sock").display());
    let ep = Endpoint::parse(&ep_str).unwrap();

    // Request indices, and so write tags and draws, continue across phases.
    let mut next_index = 0u64;
    let mut load = |conns: usize, requests: usize, write_ratio: f64| {
        let requests_per_conn = requests / conns;
        let cfg = LoadConfig {
            endpoint: ep.clone(),
            conns,
            requests_per_conn,
            lines: scale.lines,
            write_ratio,
            rate: RATE,
            seed: 0x10AD_0000,
            first_index: next_index,
            wall_deadline: Duration::from_secs(180),
        };
        next_index += (conns * requests_per_conn) as u64;
        cfg
    };
    let mut phases: Vec<Phase> = Vec::new();

    let mut srv = start_server(&bin, &scale, &dir, &ep_str);
    wait_ready(&ep);

    println!("== servebin: steady bench (1/2/4 connections) ==");
    for conns in [1usize, 2, 4] {
        let cfg = load(conns, scale.bench_requests, 0.5);
        phases.push(phase(&format!("steady-{conns}c"), cfg, || {}));
    }

    for (name, drain) in [("chaos-sigkill", false), ("chaos-sigterm", true)] {
        println!("== servebin: {name}: stop the server mid-load, restart, finish ==");
        let base = served_writes(&ep).expect("stats before chaos");
        let cfg = load(scale.chaos_conns, scale.chaos_requests, 0.7);
        let p = phase(name, cfg, || {
            wait_for_writes(&ep, base + scale.kill_after_writes, name);
            if drain {
                srv.sigterm_expect_clean_exit("drain under load");
            } else {
                srv.sigkill();
            }
            srv = start_server(&bin, &scale, &dir, &ep_str);
            wait_ready(&ep);
        });
        assert!(
            p.report.reconnects > 0,
            "{name}: the load generator must have reconnected across the restart"
        );
        phases.push(p);
    }

    println!("== servebin: post-restart bench (1/2/4 connections) ==");
    for conns in [1usize, 2, 4] {
        let cfg = load(conns, scale.bench_requests, 0.5);
        phases.push(phase(&format!("restart-{conns}c"), cfg, || {}));
    }

    println!("== servebin: final drain + audit restart ==");
    srv.sigterm_expect_clean_exit("final drain");
    let mut srv = start_server(&bin, &scale, &dir, &ep_str);
    wait_ready(&ep);
    let generation = Client::connect(&ep, Duration::from_secs(5))
        .expect("audit connect")
        .stats()
        .expect("stats")
        .generation;
    assert_eq!(
        generation, 3,
        "audit boot must be generation 3 (fresh + 3 restarts)"
    );
    let (lost, audited) = audit(&phases, &ep);
    srv.sigterm_expect_clean_exit("audit server");
    assert_eq!(
        lost, 0,
        "{lost} acknowledged writes were lost across kill/restart"
    );
    println!(
        "audit: {audited} acked addresses verified across {} phases, 0 lost \
         (generation {generation}, {malformed} malformed frames fuzzed)",
        phases.len()
    );

    // Table + CSV, and the same columns as JSON with the host facts a
    // server number needs to be evidence. Latencies are from each
    // request's due time; a percentile without ten samples beyond it is
    // left out (`-`, `null`).
    let mut t = Table::keyed("servebin: real-process chaos phases");
    let mut entries = Vec::new();
    for p in &phases {
        let mut cols = vec![
            ("conns", Some(p.cfg.conns.to_string())),
            ("rate_rps", Some(p.cfg.rate.to_string())),
        ];
        cols.extend(p.report.summary());
        let cells = cols
            .iter()
            .map(|(k, v)| (*k, v.clone().unwrap_or("-".into())));
        t.row_keyed(
            [("phase", p.name.clone())]
                .into_iter()
                .chain(cells)
                .collect(),
        );
        let fields: Vec<String> = (cols.iter())
            .map(|(k, v)| format!("\"{k}\": {}", v.as_deref().unwrap_or("null")))
            .collect();
        entries.push(format!(
            "{{\"phase\": \"{}\", {}}}",
            p.name,
            fields.join(", ")
        ));
    }
    t.print();
    t.write_csv(&opts.out_dir, "servebin");

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fs = os::fs_type(&dir).unwrap_or_else(|e| format!("unknown ({e})"));
    let summary = format!(
        "{{\"bench\": \"srbsg_server\", \"quick\": {}, \"nproc\": {cores}, \
         \"fs_type\": \"{fs}\", \"fsync\": false, \"latency_from\": \"due time\", \
         \"banks\": {}, \"lines\": {}, \"malformed_frames_fuzzed\": {malformed}, \
         \"audited_addresses\": {audited}, \"lost_acked_writes\": {lost}, \
         \"final_generation\": {generation}, \"phases\": [{}]}}\n",
        opts.quick,
        scale.banks,
        scale.lines,
        entries.join(", ")
    );
    let path = PathBuf::from(&opts.out_dir).join("BENCH_server.json");
    std::fs::write(&path, summary).expect("write bench summary");
    eprintln!("[wrote {}]", path.display());

    let _ = std::fs::remove_dir_all(&root);
}
