//! `srbsg-e2ebench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <server-mixed|server-read|raa-lifetime|trace-sim> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run measures the workload's end-to-end metrics; with
//! `--trace 1` it runs the traced layer profile instead ([`trace`]). The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Every run also writes
//! its metrics and the host's facts to `.bench_run/runs/`. `--workload all`
//! runs every workload in turn. `record` instead of the flags prints the
//! recorded simulation outputs that `src/expected.rs` holds. See
//! `e2ebench/README.md`.

mod driver;
mod expected;
mod server;
mod sim;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{exit, Command};
use std::time::Duration;

use driver::{median, percentile};
use server::{Session, MIXED, READ};

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run reports.
pub struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    notes: Vec<String>,
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const WORKLOADS: [&str; 4] = ["server-mixed", "server-read", "raa-lifetime", "trace-sim"];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be \"all\" or one of {WORKLOADS:?}"
        ));
    }
    let seconds_ok = args.seconds > 0.0 && args.seconds <= 86_400.0;
    if !seconds_ok {
        return Err("--seconds must be in (0, 86400]".into());
    }
    Ok(args)
}

/// The repository root: the benchmark package's parent directory.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Build the release `srbsg-server` from the repository's sources and
/// return the path of the executable cargo reports.
fn build_server() -> Result<PathBuf, String> {
    let out = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args([
            "build",
            "--release",
            "--offline",
            "-p",
            "srbsg-server",
            "--bin",
            "srbsg-server",
        ])
        .args(["--message-format", "json-render-diagnostics"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building srbsg-server failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .filter(|l| l.contains("\"compiler-artifact\"") && l.contains("\"name\":\"srbsg-server\""))
        .find_map(|l| {
            let start = l.find("\"executable\":\"")? + "\"executable\":\"".len();
            let end = start + l[start..].find('"')?;
            Some(PathBuf::from(&l[start..end]))
        })
        .ok_or_else(|| "cargo reported no srbsg-server executable".into())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run_server(args: &Args, bin: &Path, which: server::ServerWorkload) -> std::io::Result<Outcome> {
    let dir = Path::new(".bench_run").join(&args.workload);
    let (mut sess, setup) = Session::start(bin, &dir, which, args.seed, server::SETUP_SAMPLES)?;
    let drain = 4 * which.limit + Duration::from_secs(1);
    let reference = sess.phase(which.ref_rate, 0.5 * args.seconds, drain)?;
    // Peak memory at the reference load: the overload probes below grow
    // the server's queues to whatever the search happens to offer.
    let rss = sess.srv.sample()?.peak_rss_mb;
    let mut probes = vec![sess.judge(which.ref_rate, &reference)];
    let sustained = sess.sustained(probes[0], &mut probes)?;
    let lost = sess.audit()?;
    sess.srv.stop()?;
    let ms = |ns: u64| ns as f64 / 1e6;
    let failed = reference.failed() + lost;
    let mut notes = vec![format!(
        "reference phase: {} requests at {} rps, {} ok, {} failed; audit: {} addresses, {} lost acked writes",
        reference.sent,
        which.ref_rate,
        reference.ok.len(),
        reference.failed(),
        server::LINES,
        lost
    )];
    for p in &probes {
        notes.push(format!(
            "probe {:>10.1} rps: p99 {:>10.3} ms {}",
            p.rate,
            ms(p.p99_ns),
            if p.pass { "pass" } else { "FAIL" }
        ));
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted: reference.sent + server::LINES,
        failed,
        metrics: vec![
            metric("throughput_per_s", sustained, "1/s"),
            metric(
                "p50_ms",
                ms(percentile(&reference.latencies_from(0), 0.5)),
                "ms",
            ),
            metric(
                "p99_ms",
                ms(reference.window_percentile(0.99, server::P99_WINDOW)),
                "ms",
            ),
            metric(
                "ok_frac",
                1.0 - reference.failed() as f64 / reference.sent as f64,
                "frac",
            ),
            metric("setup_s", median(&setup), "s"),
            metric("peak_rss_mb", rss, "MB"),
        ],
        notes,
    })
}

fn sim_outcome(run: sim::SimRun, unit: &str) -> Outcome {
    let (throughput, p50, p99) = sim::summary(&run);
    Outcome {
        correct: run.failed == 0,
        attempted: run.attempted,
        failed: run.failed,
        metrics: vec![
            metric("throughput_per_s", throughput, "1/s"),
            metric("p50_ms", p50, "ms"),
            metric("p99_ms", p99, "ms"),
            metric(
                "ok_frac",
                1.0 - run.failed as f64 / run.attempted as f64,
                "frac",
            ),
            metric("setup_s", median(&run.setup_s), "s"),
            metric("peak_rss_mb", server::own_peak_rss_mb(), "MB"),
        ],
        notes: vec![format!(
            "{} {unit} checked against recorded outputs, {} mismatched; {} timed units",
            run.attempted,
            run.failed,
            run.unit_ms.len()
        )],
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let budget = Duration::from_secs_f64(args.seconds);
    let io = |e: std::io::Error| e.to_string();
    if args.trace {
        let bin = build_server()?;
        return trace::profile(&args.workload, args.seed, budget, &bin).map_err(io);
    }
    match args.workload.as_str() {
        "server-mixed" => run_server(args, &build_server()?, MIXED).map_err(io),
        "server-read" => run_server(args, &build_server()?, READ).map_err(io),
        "raa-lifetime" => Ok(sim_outcome(
            sim::run_raa(args.seed, budget, nproc()),
            "trials",
        )),
        "trace-sim" => Ok(sim_outcome(
            sim::run_trace(args.seed, budget, nproc()),
            "simulated accesses",
        )),
        _ => unreachable!("workload validated by parse_args"),
    }
}

/// Run every workload, each in its own process so each peak RSS is its
/// own, forwarding their reports; the exit code is 0 only if every run
/// exited cleanly and passed its correctness check.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("srbsg-e2ebench: cannot locate this executable: {e}");
            return 1;
        }
    };
    let mut bad = Vec::new();
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stderr(std::process::Stdio::inherit())
            .output();
        match out {
            Ok(o) => {
                let text = String::from_utf8_lossy(&o.stdout);
                print!("{text}");
                let correct = text
                    .lines()
                    .last()
                    .is_some_and(|l| l.contains("\"correct\": true"));
                if !o.status.success() || !correct {
                    bad.push(w);
                }
            }
            Err(e) => {
                eprintln!("srbsg-e2ebench: cannot run {w}: {e}");
                bad.push(w);
            }
        }
    }
    if bad.is_empty() {
        println!(
            "all {} workloads ran and passed their correctness checks",
            WORKLOADS.len()
        );
        0
    } else {
        println!("FAILED: {}", bad.join(", "));
        1
    }
}

/// Facts about the host a result was measured on.
fn host_facts() -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|k| k.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("nproc", nproc().to_string()),
        ("cpu", cpu),
        ("kernel", kernel),
        ("data_dir_fs", fs_type(Path::new(".bench_run"))),
        ("fsync", "off".into()),
        ("rustc", rustc),
    ]
}

/// The `statfs` filesystem type of `path`, by magic number.
fn fs_type(path: &Path) -> String {
    use std::os::unix::ffi::OsStrExt;
    extern "C" {
        fn statfs(path: *const std::ffi::c_char, buf: *mut u64) -> i32;
    }
    let Ok(c) = std::ffi::CString::new(path.as_os_str().as_bytes()) else {
        return "unknown".into();
    };
    // `struct statfs` is 120 bytes on 64-bit Linux; its first field is the
    // filesystem magic.
    let mut buf = [0u64; 32];
    // SAFETY: `c` is a NUL-terminated path and `buf` is larger than the
    // kernel's `struct statfs`, so the call writes only inside it.
    if unsafe { statfs(c.as_ptr(), buf.as_mut_ptr()) } != 0 {
        return "unknown".into();
    }
    match buf[0] as u32 {
        0xEF53 => "ext2/3/4".into(),
        0x0102_1994 => "tmpfs".into(),
        0x5846_5342 => "xfs".into(),
        0x9123_683E => "btrfs".into(),
        0x794C_7630 => "overlayfs".into(),
        other => format!("0x{other:x}"),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {:?}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("record") {
        expected::record();
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("srbsg-e2ebench: {e}");
            exit(2);
        }
    };
    if let Err(e) = std::env::set_current_dir(repo_root()) {
        eprintln!("srbsg-e2ebench: cannot enter the repository root: {e}");
        exit(1);
    }
    let runs = Path::new(".bench_run").join("runs");
    if let Err(e) = std::fs::create_dir_all(&runs) {
        eprintln!("srbsg-e2ebench: cannot create {}: {e}", runs.display());
        exit(1);
    }
    if args.workload == "all" {
        exit(run_all(&args));
    }
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("srbsg-e2ebench: {} failed: {e}", args.workload);
            exit(1);
        }
    };
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("srbsg-e2ebench: metric {} is not a finite number", m.name);
        exit(1);
    }
    let host = host_facts();
    println!(
        "== {} seed={} seconds={} trace={} ==",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "host: {}",
        host.iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for n in &outcome.notes {
        println!("{n}");
    }
    for m in &outcome.metrics {
        println!("{:<28} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.metrics)
    );
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {{{}}}, \"result\": {}}}\n",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace as u8,
        host.iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect::<Vec<_>>()
            .join(", "),
        result
    );
    let file = runs.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    if let Err(e) = std::fs::write(&file, record) {
        eprintln!("srbsg-e2ebench: cannot write {}: {e}", file.display());
        exit(1);
    }
    println!("{result}");
}
