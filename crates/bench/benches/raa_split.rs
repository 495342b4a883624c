//! RAA lifetime throughput of the round engine
//! (`srbsg_raa_lifetime_split`) at 1, 2, 4, and 8 workers — one trial
//! fanned over all cores instead of trials fanned over seeds.
//!
//! Besides the criterion report, the bench writes a machine-readable
//! summary (median trials/sec per worker count, the jobs=2 / jobs=1
//! ratio, and the core count the numbers were taken on) to
//! `BENCH_raa_split.json` — override
//! the path with the `BENCH_RAA_SPLIT_JSON` environment variable. The
//! committed copy lives at `results/BENCH_raa_split.json`; like
//! `BENCH_sharded.json`, speedup only shows on multi-core hosts (the CI
//! artifact carries the multi-core numbers), while the output is
//! byte-identical at any worker count either way — that part is what the
//! determinism gates check. Knobs:
//!
//! - `RAA_SPLIT_BENCH_QUICK=1` — smaller platform, fewer repetitions
//!   (CI smoke mode).
//! - `SRBSG_BENCH_ASSERT=1` — fail unless jobs=2 is at least as fast as
//!   jobs=1 when the host has ≥2 cores, jobs=4 ≥2× jobs=1 when it has
//!   ≥4, and jobs=8 ≥3× jobs=1 when it has ≥8.

use criterion::{black_box, Criterion};
use srbsg_lifetime::{srbsg_raa_lifetime_split, PcmParams, SrbsgParams};
use std::time::Instant;

const JOB_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn platform(quick: bool) -> (PcmParams, SrbsgParams) {
    let params = if quick {
        PcmParams::small(14, 500_000)
    } else {
        PcmParams::small(16, 2_000_000)
    };
    let cfg = SrbsgParams {
        sub_regions: 64,
        inner_interval: 16,
        outer_interval: 32,
        stages: 7,
    };
    (params, cfg)
}

fn median_rate(mut f: impl FnMut(u64) -> u128, reps: usize) -> f64 {
    let mut rates: Vec<f64> = (0..reps)
        .map(|i| {
            let t0 = Instant::now();
            black_box(f(i as u64));
            1.0 / t0.elapsed().as_secs_f64()
        })
        .collect();
    rates.sort_by(|a, b| a.total_cmp(b));
    rates[rates.len() / 2]
}

fn main() {
    let quick = std::env::var("RAA_SPLIT_BENCH_QUICK").is_ok_and(|v| v == "1");
    let assert_gate = std::env::var("SRBSG_BENCH_ASSERT").is_ok_and(|v| v == "1");
    let reps = if quick { 3 } else { 5 };
    let (params, cfg) = platform(quick);

    let mut c = Criterion::default();
    let mut g = c.benchmark_group("raa_split_lifetime");
    g.sample_size(10);
    for &jobs in &JOB_COUNTS {
        g.bench_function(format!("split_jobs{jobs}"), |b| {
            b.iter(|| black_box(srbsg_raa_lifetime_split(&params, &cfg, 1, jobs)))
        });
    }
    g.finish();

    // Self-timed medians for the JSON artifact (the criterion shim keeps
    // its samples internal). Seeds vary per repetition so the median is
    // not one trial's lucky early failure.
    let rates: Vec<(usize, f64)> = JOB_COUNTS
        .iter()
        .map(|&jobs| {
            let rate = median_rate(
                |s| srbsg_raa_lifetime_split(&params, &cfg, s, jobs).writes,
                reps,
            );
            (jobs, rate)
        })
        .collect();
    let serial = rates[0].1;
    for &(jobs, rate) in &rates {
        println!(
            "raa_split_lifetime/split_jobs{jobs}: {rate:.2} trials/sec ({:.2}x vs jobs=1)",
            rate / serial
        );
    }
    let entries: Vec<String> = rates
        .iter()
        .map(|(jobs, rate)| {
            format!("{{\"engine\": \"split\", \"jobs\": {jobs}, \"trials_per_sec\": {rate:.2}}}")
        })
        .collect();
    let rate_at = |jobs: usize| rates.iter().find(|(j, _)| *j == jobs).unwrap().1;
    let j2_over_j1 = rate_at(2) / serial;

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\"bench\": \"raa_split_lifetime\", \"width\": {}, \"endurance\": {}, \
         \"reps\": {reps}, \"cores\": {cores}, \"jobs2_over_jobs1\": {j2_over_j1:.2}, \
         \"results\": [{}]}}\n",
        params.width(),
        params.endurance,
        entries.join(", ")
    );
    let path = std::env::var("BENCH_RAA_SPLIT_JSON")
        .unwrap_or_else(|_| "BENCH_raa_split.json".to_string());
    std::fs::write(&path, json).expect("write bench summary");
    println!("[wrote {path}]");

    let mut gate_ok = true;
    for (min_cores, jobs, min_speedup) in [(2usize, 2usize, 1.0f64), (4, 4, 2.0), (8, 8, 3.0)] {
        if cores < min_cores {
            println!("(skipping jobs={jobs} scaling gate: only {cores} core(s) available)");
            continue;
        }
        let speedup = rate_at(jobs) / serial;
        if speedup < min_speedup {
            eprintln!(
                "GATE: jobs={jobs} only {speedup:.2}x vs jobs=1 \
                 (need >= {min_speedup}x on a {cores}-core host)"
            );
            gate_ok = false;
        }
    }
    if assert_gate {
        assert!(
            gate_ok,
            "raa_split bench gate failed (see GATE lines above)"
        );
    }
}
