//! Running a model's queries: once through `Analyzer` (the untraced,
//! measured path) and once layer call by layer call under a
//! [`Tracer`] (the traced replay behind the per-layer metrics).
//!
//! The replay rebuilds `Analyzer::from_program_with` and its query
//! methods from the public functions of each crate, so every layer
//! call gets its own span. It computes no shortcut: its bounds must
//! equal the `Analyzer` bounds bit for bit, and the benchmark aborts
//! when they do not.

use std::hint::black_box;

use gubpi_analysis::ProgramFacts;
use gubpi_core::{
    linear_applicable, plan_path_grid_only_seeded, plan_path_query_seeded, plan_path_seeded,
    run_adaptive_refinement, tail_substituted, AnalysisOptions, Analyzer, BoundSink, GridRefiner,
    HistogramBounds, Method, QueryError, QueryFold, RefineOptions, Region, SharedQueryCache,
    WorkerPool,
};
use gubpi_interval::{next_after_down, next_after_up, Interval};
use gubpi_pool::{run_jobs_with, PathJob};
use gubpi_symbolic::{symbolic_paths_report_cancellable, KernelSeed, SymPath, Tape};

use crate::trace::Tracer;
use crate::workloads::{Ask, Model};

/// The bounds one query returns: one pair for a denotation or a
/// posterior, one unnormalised pair per bin for a histogram.
pub type Bounds = Vec<(f64, f64)>;

/// Answers `ask` through the analyzer's public query methods.
pub fn ask_analyzer(a: &Analyzer, ask: Ask) -> Result<Bounds, QueryError> {
    Ok(match ask {
        Ask::Denotation(u) => vec![a.try_denotation_bounds(u.lo(), u.hi())?],
        Ask::Posterior(u) => vec![a.try_posterior_probability(u.lo(), u.hi())?],
        Ask::Histogram(d, bins) => bin_bounds(&a.try_histogram(d.lo(), d.hi(), bins)?),
    })
}

fn bin_bounds(h: &HistogramBounds) -> Bounds {
    (0..h.bins()).map(|i| h.unnormalized(i)).collect()
}

/// Builds the analyzer for `m` on a fresh per-model cache.
pub fn analyzer(m: &Model, pool: &WorkerPool) -> Result<(Analyzer, SharedQueryCache), String> {
    let cache = SharedQueryCache::new();
    let program = gubpi_lang::parse(m.source).map_err(|e| e.to_string())?;
    let a =
        Analyzer::from_program_with(program, m.opts, &cache, pool).map_err(|e| e.to_string())?;
    Ok((a, cache))
}

/// The analyzer state the replay rebuilds from the layers.
struct Prepared {
    opts: AnalysisOptions,
    paths: Vec<SymPath>,
    seed: KernelSeed,
}

/// Replays `m`'s queries layer by layer; returns one [`Bounds`] per
/// query. `query` is the span id of the model's first query.
pub fn replay_model(
    m: &Model,
    pool: &WorkerPool,
    width: usize,
    query: u32,
    tr: &mut Tracer,
) -> Result<Vec<Bounds>, String> {
    tr.span("query", query, |tr| {
        let prep = prepare(m.source, m.opts, pool, width, query, tr)?;
        Ok(m.queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let qid = query + i as u32;
                match q.ask {
                    Ask::Denotation(u) => vec![denote(&prep, u, pool, width, qid, tr)],
                    Ask::Posterior(u) => vec![posterior(&prep, u, pool, width, qid, tr)],
                    Ask::Histogram(d, bins) => histogram(&prep, d, bins, pool, width, qid, tr),
                }
            })
            .collect())
    })
}

/// Replays one serve request (template source at the server's default
/// options).
pub fn replay_request(
    source: &str,
    ask: Ask,
    pool: &WorkerPool,
    width: usize,
    query: u32,
    tr: &mut Tracer,
) -> Result<(f64, f64), String> {
    tr.span("query", query, |tr| {
        let prep = prepare(source, AnalysisOptions::default(), pool, width, query, tr)?;
        Ok(match ask {
            Ask::Denotation(u) => denote(&prep, u, pool, width, query, tr),
            Ask::Posterior(u) => posterior(&prep, u, pool, width, query, tr),
            Ask::Histogram(..) => return Err("serve requests are never histograms".to_string()),
        })
    })
}

/// The front end of `Analyzer::from_program_with`: parse, simple and
/// interval types, static facts, symbolic execution.
fn prepare(
    source: &str,
    opts: AnalysisOptions,
    pool: &WorkerPool,
    width: usize,
    query: u32,
    tr: &mut Tracer,
) -> Result<Prepared, String> {
    let program = tr.span("lang.parse", query, |_| {
        gubpi_lang::parse(source).map_err(|e| e.to_string())
    })?;
    let typing = tr.span("types.infer", query, |_| {
        let simple = gubpi_lang::infer(&program).map_err(|e| e.to_string())?;
        Ok::<_, String>(gubpi_types::infer_interval_types(&program, &simple))
    })?;
    let facts = tr.span("analysis.facts", query, |_| {
        ProgramFacts::compute(&program, &typing)
    });
    let (paths, _report) = tr.span("symbolic.exec", query, |_| {
        let mut sym = opts.sym;
        sym.frontier_workers = width;
        let prune = opts.prune.then_some(&facts);
        symbolic_paths_report_cancellable(&program, &typing, prune, Some(&facts), sym, pool, None)
    });
    tr.count("symbolic.paths", paths.len() as f64);
    tr.count(
        "symbolic.top_paths",
        paths.iter().filter(|p| p.truncated).count() as f64,
    );
    let seed = KernelSeed::from_facts(&facts);
    Ok(Prepared { opts, paths, seed })
}

/// `Analyzer::denotation_bounds`: per-path plans or refiners, the
/// sweeps, and the path-order fold.
fn denote(
    p: &Prepared,
    u: Interval,
    pool: &WorkerPool,
    width: usize,
    query: u32,
    tr: &mut Tracer,
) -> (f64, f64) {
    let bounds = p.opts.bounds;
    let method = p.opts.method;
    let refine = RefineOptions {
        refine: p.opts.refine,
        gap_target: p.opts.gap_target,
        max_refine_depth: p.opts.max_refine_depth,
    };
    let seed = Some(&p.seed);
    let tailed: Vec<Option<SymPath>> = p
        .paths
        .iter()
        .map(|x| tail_substituted(x, &bounds))
        .collect();
    let path = |i: usize| tailed[i].as_ref().unwrap_or(&p.paths[i]);
    let refinable = |i: usize| {
        let x = &p.paths[i];
        refine.refine
            && x.n_samples > 0
            && match method {
                Method::Auto => !linear_applicable(x),
                Method::Grid => true,
            }
    };
    let mut computed = vec![(0.0, 0.0); p.paths.len()];
    let mut refiners: Vec<GridRefiner<'_>> = Vec::new();
    let mut refiner_at: Vec<usize> = Vec::new();
    let mut linear: Vec<usize> = Vec::new();
    let mut grid: Vec<usize> = Vec::new();
    tr.span("core.refine", query, |_| {
        for i in 0..p.paths.len() {
            if refinable(i) {
                if let Some(r) =
                    GridRefiner::new(path(i), QueryFold::Filter(u), bounds, &refine, seed)
                {
                    refiners.push(r);
                    refiner_at.push(i);
                    continue;
                }
            }
            let x = path(i);
            if method == Method::Auto && x.n_samples > 0 && linear_applicable(x) {
                linear.push(i);
            } else {
                grid.push(i);
            }
        }
    });
    lower(
        p,
        grid.iter().chain(&refiner_at).map(|&i| path(i)),
        query,
        tr,
    );
    sweep(
        tr,
        "core.sweep_linear",
        "core.linear_regions",
        query,
        pool,
        width,
        &linear,
        &mut computed,
        |i| plan_path_query_seeded(path(i), u, bounds, seed),
    );
    sweep(
        tr,
        "core.sweep_grid",
        "core.grid_cells",
        query,
        pool,
        width,
        &grid,
        &mut computed,
        |i| match method {
            Method::Auto => plan_path_query_seeded(path(i), u, bounds, seed),
            Method::Grid => (
                plan_path_grid_only_seeded(path(i), bounds, seed),
                QueryFold::Filter(u),
            ),
        },
    );
    if !refiners.is_empty() {
        tr.span("core.refine", query, |tr| {
            let refined = run_adaptive_refinement(pool, width, &mut refiners, refine.gap_target);
            for (&i, b) in refiner_at.iter().zip(refined) {
                computed[i] = b;
            }
            let cells: usize = refiners.iter().map(GridRefiner::cells_used).sum();
            tr.count("core.refine_cells", cells as f64);
        });
    }
    tr.span("core.fold", query, |_| {
        let mut acc = (0.0, 0.0);
        for (l, h) in computed {
            acc.0 += l;
            acc.1 += h;
        }
        acc
    })
}

/// Lowers every grid-destined path to its compiled tape once more, in
/// a span of its own: the plan functions lower internally, so this is
/// the only way to see the lowering cost from outside.
fn lower<'a>(p: &Prepared, paths: impl Iterator<Item = &'a SymPath>, query: u32, tr: &mut Tracer) {
    if !p.opts.bounds.use_kernel {
        return;
    }
    tr.span("symbolic.lower", query, |tr| {
        for x in paths {
            black_box(Tape::for_path_seeded(x, Some(&p.seed)));
            tr.count("symbolic.tapes", 1.0);
        }
    });
}

/// Plans `at`'s paths with `plan` and sweeps them on the pool inside
/// span `name`, folding each region into `computed` in region order.
#[allow(clippy::too_many_arguments)]
fn sweep<'a>(
    tr: &mut Tracer,
    name: &'static str,
    counter: &'static str,
    query: u32,
    pool: &WorkerPool,
    width: usize,
    at: &[usize],
    computed: &mut [(f64, f64)],
    plan: impl Fn(usize) -> (PathJob<'a, Region>, QueryFold),
) {
    if at.is_empty() {
        return;
    }
    tr.span(name, query, |tr| {
        let (jobs, folds): (Vec<_>, Vec<_>) = at.iter().map(|&i| plan(i)).unzip();
        tr.count(counter, jobs.iter().map(job_size).sum::<usize>() as f64);
        run_jobs_with(pool, width, jobs, |j, region| {
            folds[j].apply(&mut computed[at[j]], region)
        });
    });
}

fn job_size<T>(job: &PathJob<'_, T>) -> usize {
    match job {
        PathJob::Ready(items) => items.len(),
        PathJob::Sweep { total, .. } => *total,
    }
}

/// `Analyzer::posterior_probability`: the five denotation sub-queries
/// and the normalisation `m / (m + r)`.
fn posterior(
    p: &Prepared,
    u: Interval,
    pool: &WorkerPool,
    width: usize,
    query: u32,
    tr: &mut Tracer,
) -> (f64, f64) {
    let (m_lo, m_hi) = denote(p, u, pool, width, query, tr);
    let left_open = Interval::new(f64::NEG_INFINITY, next_after_down(u.lo()));
    let right_open = Interval::new(next_after_up(u.hi()), f64::INFINITY);
    let left_closed = Interval::new(f64::NEG_INFINITY, u.lo());
    let right_closed = Interval::new(u.hi(), f64::INFINITY);
    let ll = denote(p, left_open, pool, width, query, tr).0;
    let rl = denote(p, right_open, pool, width, query, tr).0;
    let lh = denote(p, left_closed, pool, width, query, tr).1;
    let rh = denote(p, right_closed, pool, width, query, tr).1;
    tr.span("core.fold", query, |_| {
        let (r_lo, r_hi) = (ll + rl, lh + rh);
        let lo = if m_lo <= 0.0 {
            0.0
        } else {
            m_lo / (m_lo + r_hi)
        };
        let hi = if m_hi <= 0.0 {
            0.0
        } else if r_lo <= 0.0 {
            1.0
        } else {
            (m_hi / (m_hi + r_lo)).min(1.0)
        };
        (lo, hi)
    })
}

/// `Analyzer::histogram`, reported as its per-bin bounds.
fn histogram(
    p: &Prepared,
    domain: Interval,
    bins: usize,
    pool: &WorkerPool,
    width: usize,
    query: u32,
    tr: &mut Tracer,
) -> Bounds {
    let bounds = p.opts.bounds;
    let method = p.opts.method;
    let seed = Some(&p.seed);
    let tailed: Vec<Option<SymPath>> = p
        .paths
        .iter()
        .map(|x| tail_substituted(x, &bounds))
        .collect();
    let path = |i: usize| tailed[i].as_ref().unwrap_or(&p.paths[i]);
    let (linear, grid): (Vec<usize>, Vec<usize>) = (0..p.paths.len()).partition(|&i| {
        method == Method::Auto && path(i).n_samples > 0 && linear_applicable(path(i))
    });
    lower(p, grid.iter().map(|&i| path(i)), query, tr);
    let mut partials: Vec<HistogramBounds> = p
        .paths
        .iter()
        .map(|_| HistogramBounds::new(domain, bins))
        .collect();
    let buckets = [
        ("core.sweep_linear", "core.linear_regions", &linear),
        ("core.sweep_grid", "core.grid_cells", &grid),
    ];
    for (name, counter, at) in buckets {
        if at.is_empty() {
            continue;
        }
        tr.span(name, query, |tr| {
            let jobs: Vec<PathJob<'_, Region>> = at
                .iter()
                .map(|&i| match method {
                    Method::Auto => plan_path_seeded(path(i), bounds, seed),
                    Method::Grid => plan_path_grid_only_seeded(path(i), bounds, seed),
                })
                .collect();
            tr.count(counter, jobs.iter().map(job_size).sum::<usize>() as f64);
            run_jobs_with(pool, width, jobs, |j, (v, lo, hi)| {
                partials[at[j]].add(v, lo, hi)
            });
        });
    }
    tr.span("core.fold", query, |_| {
        let mut h = HistogramBounds::new(domain, bins);
        for part in &partials {
            h.merge_from(part);
        }
        bin_bounds(&h)
    })
}
