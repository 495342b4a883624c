//! The `srbsg-loadgen` binary: one open-loop load phase against a
//! running `srbsg-server`, summarised in one line.

use std::process::exit;
use std::str::FromStr;
use std::time::Duration;

use srbsg_server::{run_load, Endpoint, LoadConfig};

const USAGE: &str = "\
srbsg-loadgen — open-loop load generator with write-loss accounting

USAGE:
    srbsg-loadgen --connect ENDPOINT --lines N [FLAGS]

FLAGS:
    --connect ENDPOINT   tcp:HOST:PORT or uds:PATH (required)
    --lines N            logical device size (required)
    --conns N            concurrent connections           [1]
    --requests N         requests per connection          [1000]
    --write-ratio F      fraction of writes in [0,1]      [0.5]
    --rate R             offered requests/s, all conns    [1000]
    --seed S             deterministic mix seed           [279801422]
    --wall-deadline-s S  give up after S seconds          [60]
    -h, --help           this text

Prints one `key=value` summary line. Latencies are timed from each
request's due time; p99/p999 print `-` without ten samples beyond them.
";

fn parse<T: FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag}: cannot parse {raw:?}"))
}

fn parse_args() -> Result<LoadConfig, String> {
    let mut cfg = LoadConfig::default();
    let (mut endpoint, mut lines) = (None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "-h" || flag == "--help" {
            print!("{USAGE}");
            exit(0);
        }
        let raw = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--connect" => endpoint = Some(Endpoint::parse(&raw)?),
            "--lines" => lines = Some(parse(&flag, &raw)?),
            "--conns" => cfg.conns = parse(&flag, &raw)?,
            "--requests" => cfg.requests_per_conn = parse(&flag, &raw)?,
            "--write-ratio" => cfg.write_ratio = parse(&flag, &raw)?,
            "--rate" => cfg.rate = parse(&flag, &raw)?,
            "--seed" => cfg.seed = parse(&flag, &raw)?,
            "--wall-deadline-s" => cfg.wall_deadline = Duration::from_secs(parse(&flag, &raw)?),
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    cfg.endpoint = endpoint.ok_or("--connect is required")?;
    cfg.lines = lines.ok_or("--lines is required")?;
    cfg.check()?;
    Ok(cfg)
}

fn main() {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("srbsg-loadgen: {e}");
            exit(2);
        }
    };
    // Unresolved writes are legal (the phase may have ended mid-drain);
    // losing *acked* state is what the auditing restart detects.
    println!("srbsg-loadgen: rate_rps={} {}", cfg.rate, run_load(&cfg));
}
