//! Fig. 14: Security RBSG lifetime vs the number of DFN stages, under RAA
//! and BPA, against the two-level-SR-under-RAA reference and the ideal
//! lifetime.

use srbsg_attacks::detection_margin;
use srbsg_lifetime::{
    sr2_raa_lifetime, srbsg_bpa_lifetime_analytic, srbsg_raa_lifetime_split, SrbsgParams,
};

use crate::table::Table;
use crate::Opts;

pub fn run(opts: &Opts) {
    let stages: Vec<usize> = if opts.quick {
        vec![3, 7, 14, 20]
    } else {
        (3..=20).collect()
    };
    let ideal = opts.params.ideal_lifetime();
    let seeds: Vec<u64> = (0..opts.seeds).collect();
    let params = opts.params;
    let sr2 = srbsg_parallel::par_map(seeds.clone(), opts.jobs, move |s| {
        sr2_raa_lifetime(&params, 512, 64, 128, s)
    });
    let sr2_ref = sr2.iter().map(|l| l.ns as f64).sum::<f64>() / opts.seeds as f64;

    let mut t = Table::new(
        "Fig. 14 — Security RBSG lifetime vs DFN stages (days)",
        &[
            "stages",
            "raa_days",
            "raa_frac_ideal",
            "bpa_days",
            "bpa_frac_ideal",
            "margin(S·B/ψ_out)",
        ],
    );
    // One work item per (stage, seed), each trial on one worker; folded
    // per stage in seed order.
    let items: Vec<(usize, u64)> = stages
        .iter()
        .flat_map(|&s| seeds.iter().map(move |&sd| (s, sd)))
        .collect();
    let params = opts.params;
    let raa: Vec<f64> = srbsg_parallel::par_map(items, opts.jobs, move |(s, sd)| {
        let cfg = SrbsgParams {
            stages: s,
            ..SrbsgParams::paper_default()
        };
        srbsg_raa_lifetime_split(&params, &cfg, sd, 1).ns as f64
    });
    for (i, chunk) in raa.chunks(opts.seeds as usize).enumerate() {
        let s = stages[i];
        let cfg = SrbsgParams {
            stages: s,
            ..SrbsgParams::paper_default()
        };
        let raa_ns: f64 = chunk.iter().sum::<f64>() / opts.seeds as f64;
        let bpa = srbsg_bpa_lifetime_analytic(&opts.params, &cfg);
        t.row(vec![
            s.to_string(),
            format!("{:.0}", raa_ns * 1e-9 / 86_400.0),
            format!("{:.2}", raa_ns / ideal.ns as f64),
            format!("{:.0}", bpa.days()),
            format!("{:.2}", bpa.ns as f64 / ideal.ns as f64),
            format!(
                "{:.2}",
                detection_margin(opts.params.width(), cfg.outer_interval, s as u64)
            ),
        ]);
        eprintln!("[fig14] stages={s} done");
    }
    t.print();
    t.write_csv(&opts.out_dir, "fig14");
    println!(
        "references: ideal {:.0} days; two-level SR under RAA {:.0} days; paper reports \
         67.2% (RAA) / 66.4% (BPA) of ideal at 7 stages, BPA flat in stages",
        ideal.days(),
        sr2_ref * 1e-9 / 86_400.0
    );
}
