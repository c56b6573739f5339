//! Criterion bench for Table 1: GuBPI vs the [56] baseline on the
//! probability-estimation suite (timings column of the table).

use std::hint::black_box;

use bench::models;
use bench::{baseline56_bounds, BaselineOptions, Run};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_table1(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1");
    group.sample_size(10);
    // One run for the whole group: its query cache stays warm across
    // iterations, as in a `repro table1` session.
    let mut run = Run::default();
    // A representative, cheap subset; `repro table1` runs the full suite.
    for b in models::table1() {
        if !matches!(b.name, "example4" | "example5" | "ex-book-s" | "tug-of-war") {
            continue;
        }
        let id = format!("gubpi/{}/{}", b.name, b.query_label);
        group.bench_function(&id, |bencher| {
            bencher.iter(|| black_box(run.prob_benchmark(&b)));
        });
        let id = format!("baseline56/{}/{}", b.name, b.query_label);
        group.bench_function(&id, |bencher| {
            bencher.iter(|| {
                black_box(baseline56_bounds(b.source, b.u, BaselineOptions::default()).ok())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_table1);
criterion_main!(benches);
