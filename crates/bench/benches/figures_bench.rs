//! Criterion bench for the figure models (Fig. 5 and Fig. 6 histogram
//! computations, plus the pedestrian of Fig. 1/7 at a small depth).

use std::hint::black_box;

use bench::{models, Run};
use criterion::{criterion_group, criterion_main, Criterion};
use gubpi_core::AnalysisOptions;
use gubpi_interval::Interval;
use gubpi_symbolic::SymExecOptions;

fn bench_figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures");
    group.sample_size(10);
    // One run for the whole group: its query cache stays warm across
    // iterations, as in a `repro fig5 fig6` session.
    let mut run = Run::default();
    for b in models::figure5().into_iter().chain(models::figure6()) {
        // Keep the bench loop affordable: drop the split resolution.
        let mut cheap = b.clone();
        cheap.splits = cheap.splits.min(12);
        cheap.bins = cheap.bins.min(8);
        group.bench_function(format!("fig{}", b.id), |bencher| {
            bencher.iter(|| {
                let a = run.figure_analyzer(&cheap);
                black_box(a.histogram(cheap.domain, cheap.bins))
            });
        });
    }
    group.bench_function("pedestrian_depth3", |bencher| {
        bencher.iter(|| {
            let mut opts = AnalysisOptions {
                sym: SymExecOptions {
                    max_fix_unfoldings: 3,
                    ..Default::default()
                },
                ..Default::default()
            };
            opts.bounds.splits = 12;
            let a = gubpi_core::Analyzer::from_source(models::PEDESTRIAN, opts)
                .expect("pedestrian compiles");
            black_box(a.histogram(Interval::new(0.0, 3.0), 8))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
