//! Fig. 16: normalized accumulated writes over the address space under RAA,
//! for increasing total write counts.
//!
//! Uses the streaming wear profile ([`srbsg_raa_wear_profile_split_with`]):
//! totals run one at a time, each fanned over all workers by round range,
//! and every worker holds a fixed-size region accumulator instead of a
//! dense per-line wear vector, so memory stays O(points + regions) per
//! worker regardless of the bank size. The cumulative-wear curve is
//! bit-identical to the dense computation; the Gini column is computed
//! over `MAX_REGIONS` equal-width address regions (exact for the curve's
//! granularity, and within the region width of the per-line value).

use srbsg_lifetime::{srbsg_raa_wear_profile_split_with, SrbsgParams};

use crate::table::Table;
use crate::Opts;

/// Equal-width address regions the streaming accumulator tracks; bounds the
/// per-worker memory and sets the granularity of the Gini column.
const MAX_REGIONS: u64 = 4096;

pub fn run(opts: &Opts) {
    // The paper plots 10^10 .. 10^13 total writes on the 2^22-line bank;
    // quick mode scales down proportionally to its smaller bank.
    let totals: Vec<u128> = if opts.quick {
        vec![1 << 26, 1 << 30, 1 << 34]
    } else {
        vec![
            10_000_000_000,
            100_000_000_000,
            1_000_000_000_000,
            10_000_000_000_000,
        ]
    };
    let cfg = SrbsgParams::paper_default();
    let points = 20;

    let mut headers = vec!["total_writes".to_string()];
    headers.extend((1..=points).map(|p| format!("x={:.2}", p as f64 / points as f64)));
    headers.push("gini".to_string());
    let mut t = Table::new_owned(
        "Fig. 16 — normalized cumulative wear (x = address-space fraction)",
        headers,
    );
    // Progress lines are strictly ordered: total by total, round ranges
    // within a total — never interleaved across totals.
    for &total in &totals {
        let mut last_quarter = 0;
        let profile = srbsg_raa_wear_profile_split_with(
            &opts.params,
            &cfg,
            total,
            1,
            points,
            MAX_REGIONS,
            opts.jobs,
            |done, rounds| {
                let quarter = (4 * done) / rounds.max(1);
                if quarter > last_quarter && quarter < 4 {
                    last_quarter = quarter;
                    eprintln!("[fig16] total={total} rounds {done}/{rounds}");
                }
            },
        );
        eprintln!("[fig16] total={total} done");
        let mut row = vec![format!("{total:e}")];
        row.extend(profile.curve().iter().map(|y| format!("{y:.3}")));
        row.push(format!("{:.3}", profile.region_gini()));
        t.row(row);
    }
    t.print();
    t.write_csv(&opts.out_dir, "fig16");
    println!(
        "paper reference: at 10^13 writes the curve is approximately the diagonal \
         (perfectly even wear); Gini → 0 as writes accumulate \
         (Gini over {MAX_REGIONS} equal-width address regions)"
    );
}
