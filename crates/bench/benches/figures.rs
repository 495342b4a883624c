//! One bench per paper table/figure, at a reduced scale that preserves each
//! experiment's structure — so regressions in any experiment pipeline are
//! caught by `cargo bench`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use srbsg_lifetime::{
    rbsg_raa_lifetime, rbsg_rta_lifetime, sr2_raa_lifetime, sr2_rta_lifetime,
    srbsg_bpa_lifetime_analytic, srbsg_raa_lifetime_split, srbsg_raa_wear_profile_split, PcmParams,
    SrbsgParams,
};

fn small() -> PcmParams {
    PcmParams::small(12, 100_000)
}

fn cfg() -> SrbsgParams {
    SrbsgParams {
        sub_regions: 16,
        inner_interval: 16,
        outer_interval: 32,
        stages: 7,
    }
}

fn fig11(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig11");
    g.sample_size(10);
    g.bench_function("rta_rbsg", |b| {
        b.iter(|| black_box(rbsg_rta_lifetime(&small(), 4, 8, 0)))
    });
    g.bench_function("raa_rbsg_closed_form", |b| {
        b.iter(|| black_box(rbsg_raa_lifetime(&small(), 4, 8)))
    });
    g.finish();
}

fn fig12_13(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig12_13");
    g.sample_size(10);
    g.bench_function("sr2_rta", |b| {
        b.iter(|| black_box(sr2_rta_lifetime(&small(), 16, 16, 32, 0)))
    });
    g.bench_function("sr2_raa", |b| {
        b.iter(|| black_box(sr2_raa_lifetime(&small(), 16, 16, 32, 0)))
    });
    g.finish();
}

fn fig14_15(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig14_15");
    g.sample_size(10);
    g.bench_function("srbsg_raa", |b| {
        b.iter(|| black_box(srbsg_raa_lifetime_split(&small(), &cfg(), 0, 1)))
    });
    g.bench_function("srbsg_bpa_analytic", |b| {
        b.iter(|| black_box(srbsg_bpa_lifetime_analytic(&small(), &cfg())))
    });
    g.finish();
}

fn fig16(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig16");
    g.sample_size(10);
    g.bench_function("wear_profile", |b| {
        b.iter(|| {
            black_box(srbsg_raa_wear_profile_split(
                &small(),
                &cfg(),
                1 << 24,
                0,
                20,
                4096,
                1,
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, fig11, fig12_13, fig14_15, fig16);
criterion_main!(benches);
