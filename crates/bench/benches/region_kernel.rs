//! Compiled interval-tape kernel vs the tree-walking interpreter.
//!
//! Three evaluation modes over identical region sweeps:
//!
//! * **interpreter** — the four recursive tree walks per cell
//!   (`use_kernel: false`), allocating a `Vec<Interval>` per `Prim`
//!   node;
//! * **tape** — the compiled tape evaluated cell by cell
//!   (`Tape::eval_cell`): hash-consed CSE, constant pre-folding,
//!   constraint short-circuiting, zero per-cell allocations;
//! * **batched** — the production path (`use_kernel: true`): the same
//!   tape evaluated in structure-of-arrays lane blocks with incremental
//!   odometer cell decoding.
//!
//! Bounds are bit-identical across all three (asserted below and
//! enforced by `tests/kernel_differential.rs`); only cells/sec may
//! differ. The summary writes a `BENCH_kernel.json` snapshot at the
//! workspace root so the perf trajectory is tracked across PRs.

use std::hint::black_box;
use std::time::Instant;

use bench::models;
use criterion::{criterion_group, criterion_main, Criterion};
use gubpi_core::{
    bound_path_grid_only, grid_splits, AnalysisOptions, Analyzer, PathBoundOptions, Region,
};
use gubpi_interval::Interval;
use gubpi_symbolic::{SymExecOptions, SymPath, Tape, LANES};

/// One named workload: a set of paths swept under the grid semantics.
struct Workload {
    name: &'static str,
    paths: Vec<SymPath>,
    opts: PathBoundOptions,
}

fn grass_grid() -> Workload {
    let grass = models::table2()
        .into_iter()
        .find(|b| b.name == "grass")
        .expect("table2 has grass")
        .source;
    let a = Analyzer::from_source(
        grass,
        AnalysisOptions {
            sym: SymExecOptions {
                max_fix_unfoldings: 8,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("grass compiles");
    let opts = PathBoundOptions {
        splits: 8,
        ..Default::default()
    };
    Workload {
        name: "table2-grass-grid",
        paths: a.paths().to_vec(),
        opts,
    }
}

fn pedestrian_dominant() -> Workload {
    let a = Analyzer::from_source(
        models::PEDESTRIAN,
        AnalysisOptions {
            sym: SymExecOptions {
                max_fix_unfoldings: 4,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("pedestrian compiles");
    let dominant = a
        .paths()
        .iter()
        .max_by_key(|p| p.n_samples)
        .expect("pedestrian has paths")
        .clone();
    let opts = PathBoundOptions {
        splits: 8,
        ..Default::default()
    };
    Workload {
        name: "pedestrian-dominant-path",
        paths: vec![dominant],
        opts,
    }
}

/// Total grid cells the workload sweeps (the denominator of cells/sec).
fn total_cells(w: &Workload) -> u64 {
    w.paths
        .iter()
        .map(|p| {
            let k = grid_splits(w.opts.splits, p.n_samples, w.opts.region_budget);
            (k as u64).pow(p.n_samples as u32)
        })
        .sum()
}

/// Sweeps every path through the plan machinery (interpreter or batched
/// kernel, per `use_kernel`).
fn sweep_plans(w: &Workload, use_kernel: bool) -> Vec<Region> {
    let opts = PathBoundOptions {
        use_kernel,
        ..w.opts
    };
    let mut out: Vec<Region> = Vec::new();
    for p in &w.paths {
        bound_path_grid_only(p, opts, &mut out);
    }
    out
}

/// Sweeps every path through the scalar tape evaluator (`eval_cell`
/// per cell, odometer-free reference loop).
fn sweep_scalar_tape(w: &Workload) -> Vec<Region> {
    let mut out: Vec<Region> = Vec::new();
    for p in &w.paths {
        let tape = Tape::for_path(p);
        let mut scratch = tape.scratch();
        let n = p.n_samples;
        let k = grid_splits(w.opts.splits, n, w.opts.region_budget);
        let edges: Vec<Interval> = Interval::UNIT.split(k);
        let widths: Vec<f64> = edges.iter().map(Interval::width).collect();
        let total = k.pow(n as u32);
        let mut dims = vec![Interval::ZERO; n];
        for mut ci in 0..total {
            let mut vol = 1.0;
            for d in dims.iter_mut() {
                let e = ci % k;
                ci /= k;
                *d = edges[e];
                vol *= widths[e];
            }
            if let Some(cell) = tape.eval_cell(&dims, &mut scratch) {
                let lo = if cell.definite {
                    vol * cell.weight.lo()
                } else {
                    0.0
                };
                out.push((cell.value, lo, vol * cell.weight.hi()));
            }
        }
    }
    out
}

fn assert_streams_equal(a: &[Region], b: &[Region], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: stream lengths");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.0, y.0, "{ctx}: value range");
        assert_eq!(x.1.to_bits(), y.1.to_bits(), "{ctx}: lower mass bits");
        assert_eq!(x.2.to_bits(), y.2.to_bits(), "{ctx}: upper mass bits");
    }
}

fn bench_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("region_kernel");
    group.sample_size(10);

    let grass = grass_grid();
    group.bench_function("table2-grass-grid/interpreter", |b| {
        b.iter(|| black_box(sweep_plans(&grass, false)))
    });
    group.bench_function("table2-grass-grid/tape", |b| {
        b.iter(|| black_box(sweep_scalar_tape(&grass)))
    });
    group.bench_function("table2-grass-grid/batched", |b| {
        b.iter(|| black_box(sweep_plans(&grass, true)))
    });
    group.finish();

    summary();
}

/// Headline numbers + the `BENCH_kernel.json` snapshot.
fn summary() {
    let mut rows = Vec::new();
    for w in [grass_grid(), pedestrian_dominant()] {
        // Sanity first: all three modes must emit identical streams.
        let interp_stream = sweep_plans(&w, false);
        assert_streams_equal(&interp_stream, &sweep_scalar_tape(&w), w.name);
        assert_streams_equal(&interp_stream, &sweep_plans(&w, true), w.name);
        drop(interp_stream);

        let cells = total_cells(&w);
        let time = |f: &dyn Fn() -> Vec<Region>| {
            let _ = f(); // warm-up
            let reps = 5;
            let t0 = Instant::now();
            for _ in 0..reps {
                black_box(f());
            }
            t0.elapsed().as_secs_f64() / reps as f64
        };
        let t_interp = time(&|| sweep_plans(&w, false));
        let t_tape = time(&|| sweep_scalar_tape(&w));
        let t_batched = time(&|| sweep_plans(&w, true));
        let rate = |t: f64| cells as f64 / t.max(1e-12);
        println!(
            "{}: {} cells | interpreter {:.0} cells/s | tape {:.0} cells/s ({:.2}x) | \
             batched (LANES={LANES}) {:.0} cells/s ({:.2}x)",
            w.name,
            cells,
            rate(t_interp),
            rate(t_tape),
            t_interp / t_tape.max(1e-12),
            rate(t_batched),
            t_interp / t_batched.max(1e-12),
        );
        rows.push(format!(
            "    {{\n      \"name\": \"{}\",\n      \"cells\": {},\n      \
             \"interpreter_cells_per_sec\": {:.1},\n      \"tape_cells_per_sec\": {:.1},\n      \
             \"batched_cells_per_sec\": {:.1},\n      \"speedup_tape\": {:.3},\n      \
             \"speedup_batched\": {:.3}\n    }}",
            w.name,
            cells,
            rate(t_interp),
            rate(t_tape),
            rate(t_batched),
            t_interp / t_tape.max(1e-12),
            t_interp / t_batched.max(1e-12),
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"region_kernel\",\n  \"lanes\": {LANES},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernel.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_kernel);
criterion_main!(benches);
