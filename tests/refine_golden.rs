//! Golden values of gap-driven adaptive refinement.
//!
//! The refiner's output is a pure function of its worklist order:
//! score descending (`f64::total_cmp`), then canonical sequence number
//! ascending, bisecting the widest finite dimension with the last
//! maximum winning ties. The thread-count and Monte-Carlo tests cannot
//! see a slip in that order — a different tie-break still yields sound,
//! thread-independent bounds — so this file pins the exact refinement
//! trees: the bit patterns of every refined path's bounds, the cells it
//! evaluated and the cells it bisected, on the `repro gap-report` rows
//! (table2 grass, the noisyOr dominant path, fig6a) at default
//! [`RefineOptions`].
//!
//! A change that moves these numbers changes which cells get refined.
//! That may be intended, but it is never a refactoring.

use gubpi_core::{
    run_adaptive_refinement, tail_substituted, AnalysisOptions, Analyzer, GridRefiner, Method,
    PathBoundOptions, QueryFold, RefineOptions, Threads, WorkerPool,
};
use gubpi_interval::Interval;
use gubpi_symbolic::{SymExecOptions, SymPath};

/// `repro gap-report`'s grass source (table2).
const GRASS: &str = r#"
    let rain = flip(0.5) in
    let sprinkler = flip(0.3) in
    let wet_rain = if rain >= 1 then flip(0.9) else 0 in
    let wet_spr = if sprinkler >= 1 then flip(0.8) else 0 in
    let wet = max(wet_rain, wet_spr) in
    if wet >= 1 then rain else fail"#;

/// `repro gap-report`'s noisyOr source (table2).
const NOISY_OR: &str = r#"
    let cause1 = flip(0.4) in
    let cause2 = flip(0.3) in
    let s1 = if cause1 >= 1 then flip(0.7) else 0 in
    let s2 = if cause2 >= 1 then flip(0.6) else 0 in
    let symptom = max(s1, s2) in
    if symptom >= 1 then cause1 else fail"#;

/// `repro gap-report`'s fig6a source (cav-example-7).
const FIG6A: &str = r#"
    let rec go x =
      if sample <= 0.6 then x else go (x + sample uniform(0, 1))
    in go 0"#;

/// One refined path: `(lo bits, hi bits, cells_used, splits)`.
type Leaf = (u64, u64, usize, u64);

/// The gap-report options at default refinement: unfolding depth 8,
/// `Method::Grid`, `region_budget` 400 000 and the row's `splits`.
fn options(splits: usize) -> AnalysisOptions {
    let mut opts = AnalysisOptions {
        sym: SymExecOptions {
            max_fix_unfoldings: 8,
            ..Default::default()
        },
        method: Method::Grid,
        threads: Threads::Off,
        ..Default::default()
    };
    opts.bounds.splits = splits;
    opts.bounds.region_budget = 400_000;
    opts
}

/// Refines every path in one lockstep run, the way the analyzer does,
/// and reports each refiner's golden tuple in path order.
fn refine_all(paths: &[SymPath], u: Interval, bounds: PathBoundOptions) -> Vec<Leaf> {
    let tailed: Vec<Option<SymPath>> = paths.iter().map(|p| tail_substituted(p, &bounds)).collect();
    let refine = RefineOptions::default();
    let mut refiners: Vec<GridRefiner<'_>> = paths
        .iter()
        .zip(&tailed)
        .filter_map(|(p, t)| {
            let p = t.as_ref().unwrap_or(p);
            GridRefiner::new(p, QueryFold::Filter(u), bounds, &refine, None)
        })
        .collect();
    let pool = WorkerPool::new();
    let bounds = run_adaptive_refinement(&pool, 1, &mut refiners, refine.gap_target);
    bounds
        .iter()
        .zip(&refiners)
        .map(|(&(lo, hi), r)| (lo.to_bits(), hi.to_bits(), r.cells_used(), r.splits()))
        .collect()
}

/// A whole-model gap-report row: the analyzer's adaptive bounds, plus
/// every path's refinement.
fn model_row(src: &str, splits: usize, u: Interval) -> ((u64, u64), Vec<Leaf>) {
    let opts = options(splits);
    let a = Analyzer::from_source(src, opts).expect("model compiles");
    let (lo, hi) = a.denotation_bounds(u);
    (
        (lo.to_bits(), hi.to_bits()),
        refine_all(a.paths(), u, opts.bounds),
    )
}

#[test]
fn grass_refinement_is_golden() {
    let (bounds, leaves) = model_row(GRASS, 24, Interval::new(0.5, 1.5));
    assert_eq!(
        bounds,
        (4601698380581894098, 4602709946550443215),
        "grass model bounds"
    );
    assert_eq!(
        leaves,
        vec![
            (4592116991921538979, 4593399429706067431, 325524, 162114),
            (4582717552074245993, 4584616205042134769, 122854, 60779),
            (4576699721322167256, 4579094539092771051, 84652, 41678),
            (4599220651490026900, 4599749231524415790, 13824, 6804),
            (0, 0, 216, 0),
        ],
        "grass refinement trees"
    );
}

#[test]
fn fig6a_refinement_is_golden() {
    let (bounds, leaves) = model_row(FIG6A, 24, Interval::REAL);
    assert_eq!(
        bounds,
        (4606577817113931067, 4608030591722459910),
        "fig6a model bounds"
    );
    assert_eq!(
        leaves,
        vec![
            (4603578952691919530, 4603581884722926933, 24, 9),
            (4597635725839913964, 4598075856272246408, 13824, 6804),
            (4590143336876503185, 4592483170016228945, 112241, 55999),
            (4580723770989215744, 4590293920197378048, 72048, 35960),
            (4568901821967368192, 4585790320570007552, 165344, 82416),
        ],
        "fig6a refinement trees"
    );
}

#[test]
fn noisy_or_dominant_path_refinement_is_golden() {
    // The gap-report row: the terminated path with the most samples,
    // on a `splits` 20 grid.
    let a = Analyzer::from_source(NOISY_OR, options(20)).expect("model compiles");
    let dominant = a
        .paths()
        .iter()
        .filter(|p| !p.budget_truncated)
        .max_by_key(|p| p.n_samples)
        .expect("model has terminated paths");
    let bounds = options(20).bounds;
    let leaves = refine_all(
        std::slice::from_ref(dominant),
        Interval::new(0.5, 1.5),
        bounds,
    );
    assert_eq!(
        leaves,
        vec![(4581126392795902702, 4582823349135491950, 51317, 25346)],
        "noisyOr dominant-path refinement tree"
    );
}
