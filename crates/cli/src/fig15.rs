//! Fig. 15: Security RBSG lifetime under RAA across the Table I grid.

use srbsg_lifetime::{srbsg_raa_lifetime_split, SrbsgParams};

use crate::table::Table;
use crate::Opts;

pub fn run(opts: &Opts) {
    let (subs, inners, outers) = crate::fig12::grid(opts.quick);
    let ideal = opts.params.ideal_lifetime();

    let mut t = Table::new(
        "Fig. 15 — Security RBSG lifetime under RAA (days)",
        &[
            "sub_regions",
            "inner",
            "outer",
            "lifetime_days",
            "frac_of_ideal",
        ],
    );
    // One work item per (config, seed), each trial on one worker;
    // per-config fold in seed order keeps the float accumulation identical
    // to the serial loop.
    let mut items: Vec<(u64, u64, u64, u64)> = Vec::new();
    for &r in &subs {
        for &pi in &inners {
            for &po in &outers {
                for s in 0..opts.seeds {
                    items.push((r, pi, po, s));
                }
            }
        }
    }
    let params = opts.params;
    let last_seed = opts.seeds - 1;
    let ns: Vec<f64> = srbsg_parallel::par_map(items, opts.jobs, move |(r, pi, po, s)| {
        let cfg = SrbsgParams {
            sub_regions: r,
            inner_interval: pi,
            outer_interval: po,
            stages: 7,
        };
        let n = srbsg_raa_lifetime_split(&params, &cfg, s, 1).ns as f64;
        if s == last_seed {
            eprintln!("[fig15] r={r} inner={pi} outer={po} done");
        }
        n
    });
    for (i, chunk) in ns.chunks(opts.seeds as usize).enumerate() {
        let per_r = inners.len() * outers.len();
        let (r, pi, po) = (
            subs[i / per_r],
            inners[(i / outers.len()) % inners.len()],
            outers[i % outers.len()],
        );
        let avg_ns: f64 = chunk.iter().sum::<f64>() / opts.seeds as f64;
        t.row(vec![
            r.to_string(),
            pi.to_string(),
            po.to_string(),
            format!("{:.0}", avg_ns * 1e-9 / 86_400.0),
            format!("{:.2}", avg_ns / ideal.ns as f64),
        ]);
    }
    t.print();
    t.write_csv(&opts.out_dir, "fig15");
    println!(
        "paper observations: lifetime grows with inner interval and region count, and \
         (unlike SR) grows with the outer interval; recommended config endures >108 months"
    );
}
