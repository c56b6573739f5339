//! The benchmark's inputs: the batch models of `paper-corpus` and
//! `grid-refine`, and the query templates of `serve-mix`.
//!
//! Every model comes from the paper's evaluation as `gubpi-bench`
//! ships it (`bench::models`), at the options the `repro` binary uses.

use bench::models::{self, FigureBenchmark};
use gubpi_core::{AnalysisOptions, Method};
use gubpi_interval::Interval;
use gubpi_serve::QueryKind;
use gubpi_symbolic::SymExecOptions;

/// The indicator event `result = 1` of the Table 1 and Table 2 programs.
pub fn event() -> Interval {
    Interval::new(0.5, 1.5)
}

/// What one query asks of a model.
#[derive(Copy, Clone, Debug)]
pub enum Ask {
    /// Bounds on the unnormalised denotation `⟦P⟧(U)`.
    Denotation(Interval),
    /// Bounds on the posterior probability of `U`.
    Posterior(Interval),
    /// Bounds on the unnormalised denotation of every bin of a
    /// histogram (`Analyzer::histogram`).
    Histogram(Interval, usize),
}

impl Ask {
    /// The `(kind, U)` pairs whose references a result is checked
    /// against: one per bound the query returns.
    pub fn targets(self) -> Vec<(&'static str, Interval)> {
        match self {
            Ask::Denotation(u) => vec![("denotation", u)],
            Ask::Posterior(u) => vec![("posterior", u)],
            Ask::Histogram(domain, bins) => bins_of(domain, bins)
                .into_iter()
                .map(|b| ("denotation", b))
                .collect(),
        }
    }
}

/// The closed bins of a histogram over `domain`.
pub fn bins_of(domain: Interval, bins: usize) -> Vec<Interval> {
    let h = gubpi_core::HistogramBounds::new(domain, bins);
    (0..bins).map(|i| h.bin(i)).collect()
}

/// One query plus its exact answer when one is known.
#[derive(Clone, Debug)]
pub struct Query {
    pub ask: Ask,
    /// Exact rational answer `(num, den)` (Table 2 posteriors).
    pub exact: Option<(i128, i128)>,
}

/// A program analysed once and asked one or more queries.
#[derive(Clone, Debug)]
pub struct Model {
    /// The source's label; references are keyed by it.
    pub label: String,
    pub source: &'static str,
    pub opts: AnalysisOptions,
    pub queries: Vec<Query>,
}

fn unfold(n: u32) -> AnalysisOptions {
    AnalysisOptions {
        sym: SymExecOptions {
            max_fix_unfoldings: n,
            ..SymExecOptions::default()
        },
        ..AnalysisOptions::default()
    }
}

fn figure_opts(b: &FigureBenchmark) -> AnalysisOptions {
    let mut o = unfold(b.unfold);
    o.bounds.splits = b.splits;
    o
}

fn query(ask: Ask) -> Query {
    Query { ask, exact: None }
}

/// `t1/<name>/<query label>`, the label of a Table 1 source.
fn table1_label(b: &models::ProbBenchmark) -> String {
    format!("t1/{}/{}", b.name, b.query_label)
}

/// `paper-corpus`: the 18 Table 1 queries, the 12 Table 2 posteriors,
/// the Fig. 5 and Fig. 6 histograms and the Fig. 7 pedestrian
/// histogram at unfolding depth 4.
pub fn paper_corpus() -> Vec<Model> {
    let mut out = Vec::new();
    for b in models::table1() {
        out.push(Model {
            label: table1_label(&b),
            source: b.source,
            opts: unfold(b.unfold),
            queries: vec![query(Ask::Denotation(b.u))],
        });
    }
    for b in models::table2() {
        out.push(Model {
            label: format!("t2/{}", b.name),
            source: b.source,
            opts: unfold(8),
            queries: vec![Query {
                ask: Ask::Posterior(event()),
                exact: Some(b.exact),
            }],
        });
    }
    for b in models::figure5().into_iter().chain(models::figure6()) {
        out.push(Model {
            label: format!("fig{}", b.id),
            source: b.source,
            opts: figure_opts(&b),
            queries: vec![query(Ask::Histogram(b.domain, b.bins))],
        });
    }
    let mut pedestrian = unfold(4);
    pedestrian.bounds.splits = 16;
    out.push(Model {
        label: "pedestrian".to_string(),
        source: models::PEDESTRIAN,
        opts: pedestrian,
        queries: vec![query(Ask::Histogram(Interval::new(0.0, 3.0), 12))],
    });
    out
}

/// Bins per figure in the `grid-refine` per-bin posterior queries.
pub const GRID_REFINE_BINS: usize = 8;

/// `grid-refine`: queries whose paths go to the grid semantics with
/// adaptive refinement on — per-bin posteriors on the nonlinear
/// figures 5b–5d and 6e, the two ex-ckd-epi-s posteriors, and the
/// `Method::Grid` gap-report rows for grass, noisyOr and fig6a at a
/// region budget of 400 000.
pub fn grid_refine() -> Vec<Model> {
    let mut out = Vec::new();
    let figures = models::figure5().into_iter().chain(models::figure6());
    for b in figures.filter(|b| ["5b", "5c", "5d", "6e"].contains(&b.id)) {
        out.push(Model {
            label: format!("fig{}", b.id),
            source: b.source,
            opts: figure_opts(&b),
            queries: bins_of(b.domain, GRID_REFINE_BINS)
                .into_iter()
                .map(|bin| query(Ask::Posterior(bin)))
                .collect(),
        });
    }
    for b in models::table1()
        .into_iter()
        .filter(|b| b.name == "ex-ckd-epi-s")
    {
        out.push(Model {
            label: table1_label(&b),
            source: b.source,
            opts: unfold(b.unfold),
            queries: vec![query(Ask::Posterior(b.u))],
        });
    }
    let gap_row = |label: String, source: &'static str, u: Interval| {
        let mut o = unfold(8);
        o.method = Method::Grid;
        o.bounds.splits = 24;
        o.bounds.region_budget = 400_000;
        o.refine = true;
        o.gap_target = 0.0;
        o.max_refine_depth = 40;
        Model {
            label,
            source,
            opts: o,
            queries: vec![query(Ask::Denotation(u))],
        }
    };
    for b in models::table2() {
        if b.name == "grass" || b.name == "noisyOr" {
            out.push(gap_row(format!("t2/{}", b.name), b.source, event()));
        }
    }
    let fig6a = models::figure6()
        .into_iter()
        .find(|b| b.id == "6a")
        .expect("fig6a is in the zoo");
    out.push(gap_row("fig6a".to_string(), fig6a.source, Interval::REAL));
    out
}

/// A `serve-mix` request template at the server's default options.
#[derive(Clone, Debug)]
pub struct Template {
    pub label: String,
    pub source: &'static str,
    pub kind: QueryKind,
    /// The template's hot interval: requests on it hit the cache.
    pub hot: Interval,
    /// Exact answer on the hot interval, when known.
    pub exact: Option<(i128, i128)>,
}

impl Template {
    /// A fresh interval: the hot one widened by `a` and `b` quarters of
    /// its width (`0 ≤ a, b < 1`) on either side. It asks nearly the
    /// same question at nearly the same cost, but misses the cache,
    /// which keys on the exact endpoints.
    pub fn fresh(&self, a: f64, b: f64) -> Interval {
        let quarter = self.hot.width() / 4.0;
        Interval::new(self.hot.lo() - a * quarter, self.hot.hi() + b * quarter)
    }

    /// The reference kind of this template's replies.
    pub fn ref_kind(&self) -> &'static str {
        match self.kind {
            QueryKind::Denotation => "denotation",
            QueryKind::Posterior => "posterior",
        }
    }
}

/// The Table 1, Table 2 and Fig. 5 templates, interleaved so that the
/// Zipf head covers all three kinds.
pub fn templates() -> Vec<Template> {
    let t1: Vec<Template> = models::table1()
        .iter()
        .map(|b| Template {
            label: table1_label(b),
            source: b.source,
            kind: QueryKind::Denotation,
            hot: b.u,
            exact: None,
        })
        .collect();
    let t2: Vec<Template> = models::table2()
        .into_iter()
        .map(|b| Template {
            label: format!("t2/{}", b.name),
            source: b.source,
            kind: QueryKind::Posterior,
            hot: event(),
            exact: Some(b.exact),
        })
        .collect();
    let f5: Vec<Template> = models::figure5()
        .into_iter()
        .map(|b| {
            let quarter = b.domain.width() / 4.0;
            Template {
                label: format!("fig{}", b.id),
                source: b.source,
                kind: QueryKind::Posterior,
                hot: Interval::new(b.domain.lo() + quarter, b.domain.hi() - quarter),
                exact: None,
            }
        })
        .collect();
    let mut lists = [t1.into_iter(), t2.into_iter(), f5.into_iter()];
    let mut out = Vec::new();
    loop {
        let before = out.len();
        for l in &mut lists {
            out.extend(l.next());
        }
        if out.len() == before {
            return out;
        }
    }
}
