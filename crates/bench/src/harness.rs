//! Shared benchmark runners.

use gubpi_core::{
    AnalysisOptions, Analyzer, CancelToken, ExecReport, QueryOutcome, Severity, SharedQueryCache,
};
use gubpi_interval::Interval;
use gubpi_symbolic::SymExecOptions;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::models::{FigureBenchmark, ProbBenchmark};

/// One benchmark run: the engine configuration every analyzer of the
/// run starts from, the state the run's analyzers share, and the census
/// the `repro --stats` report prints.
///
/// `repro` builds one from its flags; [`Run::default`] (library
/// defaults, unbounded cache, no deadline) serves tests and benches.
/// Runs share nothing but the process-global worker pool, so two runs
/// in one process keep separate caches and counts.
#[derive(Default)]
pub struct Run {
    /// Base options; per-benchmark settings spread from these, so a
    /// `repro` flag reaches every analyzer the run builds.
    pub opts: AnalysisOptions,
    /// The query cache shared by every analyzer of the run (a whole
    /// `repro` run reuses warm per-path bounds — sound across unrelated
    /// models because hits re-verify paths structurally).
    pub cache: SharedQueryCache,
    /// One cooperative deadline over the whole run (`repro
    /// --timeout-ms`): once it fires, every later query degrades to its
    /// coarse anytime bounds instead of blocking.
    pub deadline: Option<CancelToken>,
    /// Print each program's lints as its analyzer is built (`--lint`).
    pub lint: bool,
    census: Census,
}

/// What the run's analyzers and deadline-scoped queries saw so far.
#[derive(Clone, Copy, Debug)]
struct Census {
    exec: ExecReport,
    lint_warnings: usize,
    timed_queries: u64,
    degraded_queries: u64,
    min_completeness: f64,
}

impl Default for Census {
    fn default() -> Census {
        Census {
            exec: ExecReport::default(),
            lint_warnings: 0,
            timed_queries: 0,
            degraded_queries: 0,
            min_completeness: 1.0,
        }
    }
}

impl Census {
    fn note(&mut self, o: &QueryOutcome) {
        self.timed_queries += 1;
        if o.degraded {
            self.degraded_queries += 1;
        }
        self.min_completeness = self.min_completeness.min(o.completeness.max(0.0));
    }
}

impl Run {
    /// Builds an analyzer attached to the run's cache (and therefore the
    /// process-global persistent worker pool), adding its execution
    /// report to the census and, in lint mode, printing its lints.
    pub fn analyzer(&mut self, source: &str, opts: AnalysisOptions) -> Analyzer {
        let a = Analyzer::from_source_with_cache(source, opts, &self.cache)
            .expect("benchmark must compile");
        let r = a.exec_report();
        let e = &mut self.census.exec;
        e.pruned_branches += r.pruned_branches;
        e.zero_score_drops += r.zero_score_drops;
        e.budget_truncated_paths += r.budget_truncated_paths;
        e.depth_truncated_paths += r.depth_truncated_paths;
        e.tail_enclosed_paths += r.tail_enclosed_paths;
        e.ranked_tail_paths += r.ranked_tail_paths;
        if self.lint {
            for lint in a.lints() {
                if lint.severity == Severity::Warning {
                    self.census.lint_warnings += 1;
                }
                println!("lint: {}", lint.render(source));
            }
        }
        a
    }

    /// The [`ExecReport`] counters summed over every analyzer the run
    /// built (one symbolic execution per analyzer).
    pub fn exec_report(&self) -> ExecReport {
        self.census.exec
    }

    /// Number of `Severity::Warning` lints printed in lint mode;
    /// `repro --lint --deny-warnings` fails if nonzero.
    pub fn lint_warnings(&self) -> usize {
        self.census.lint_warnings
    }

    /// Records one deadline-scoped query outcome in the census (the
    /// timed queries call this; `repro query` calls it directly because
    /// it needs the full [`QueryOutcome`] for its report line and exit
    /// code).
    pub fn note_outcome(&mut self, o: &QueryOutcome) {
        self.census.note(o);
    }

    /// `(timed, degraded, min_completeness)` across every timed query so
    /// far; `None` when the run has no deadline.
    pub fn deadline_report(&self) -> Option<(u64, u64, f64)> {
        self.deadline.as_ref()?;
        let c = &self.census;
        Some((c.timed_queries, c.degraded_queries, c.min_completeness))
    }

    /// [`Analyzer::denotation_bounds`] under the run's deadline: past it
    /// the bounds degrade to sound coarse enclosures instead of
    /// blocking. Without a deadline this is exactly `denotation_bounds`.
    pub fn denotation_bounds(&mut self, a: &Analyzer, u: Interval) -> (f64, f64) {
        match &self.deadline {
            None => a.denotation_bounds(u),
            Some(token) => {
                let o = a.denotation_outcome(u, Some(token));
                self.census.note(&o);
                o.bounds()
            }
        }
    }

    /// [`Analyzer::posterior_probability`] under the run's deadline; see
    /// [`Run::denotation_bounds`].
    pub fn posterior_probability(&mut self, a: &Analyzer, u: Interval) -> (f64, f64) {
        match &self.deadline {
            None => a.posterior_probability(u),
            Some(token) => {
                let o = a.posterior_outcome(u, Some(token));
                self.census.note(&o);
                o.bounds()
            }
        }
    }

    /// Runs the GuBPI analyzer on a Table 1 benchmark, returning the
    /// guaranteed bounds on `P(result ∈ U)`.
    pub fn prob_benchmark(&mut self, b: &ProbBenchmark) -> (f64, f64) {
        let opts = AnalysisOptions {
            sym: SymExecOptions {
                max_fix_unfoldings: b.unfold,
                ..self.opts.sym
            },
            ..self.opts
        };
        let a = self.analyzer(b.source, opts);
        self.denotation_bounds(&a, b.u)
    }

    /// Builds an analyzer configured for a figure benchmark.
    pub fn figure_analyzer(&mut self, b: &FigureBenchmark) -> Analyzer {
        let mut opts = AnalysisOptions {
            sym: SymExecOptions {
                max_fix_unfoldings: b.unfold,
                ..self.opts.sym
            },
            ..self.opts
        };
        opts.bounds.splits = b.splits;
        self.analyzer(b.source, opts)
    }
}

/// Monte-Carlo estimate of `P(result ∈ U)` by likelihood weighting —
/// the statistical cross-check used in tests and EXPERIMENTS.md.
pub fn mc_probability(source: &str, u: Interval, samples: usize, seed: u64) -> f64 {
    let program = gubpi_lang::parse(source).expect("benchmark must parse");
    let mut rng = StdRng::seed_from_u64(seed);
    let ws = gubpi_inference::importance_sample(
        &program,
        samples,
        gubpi_inference::ImportanceOptions::default(),
        &mut rng,
    );
    ws.probability_in(u.lo(), u.hi())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;

    #[test]
    fn table1_first_row_runs_end_to_end() {
        let b = &models::table1()[3]; // ex-book-s, count >= 2 (cheap)
        let (lo, hi) = Run::default().prob_benchmark(b);
        // Binomial(5, 1/2): P(count ≥ 2) = 1 − 6/32 = 0.8125, and the
        // discrete model should be computed (near-)exactly.
        assert!(lo <= 0.8125 && 0.8125 <= hi, "[{lo}, {hi}]");
        assert!(hi - lo < 1e-6, "[{lo}, {hi}]");
    }

    #[test]
    fn mc_agrees_with_bounds_on_example4() {
        let b = models::table1()
            .into_iter()
            .find(|b| b.name == "example4")
            .unwrap();
        let (lo, hi) = Run::default().prob_benchmark(&b);
        let mc = mc_probability(b.source, b.u, 40_000, 7);
        assert!(
            lo - 0.01 <= mc && mc <= hi + 0.01,
            "mc={mc} outside [{lo}, {hi}]"
        );
        // Exact value 0.18 = (6²/2)/100 up to float rounding.
        assert!(lo <= 0.18 + 1e-12 && 0.18 <= hi + 1e-12);
    }

    #[test]
    fn runs_keep_separate_census_counts() {
        // twoCoins scores a static zero, so each build drops paths.
        let two_coins = models::table2()
            .into_iter()
            .find(|b| b.name == "twoCoins")
            .expect("twoCoins is in table2");
        let mut a = Run {
            lint: true,
            ..Run::default()
        };
        let mut b = Run {
            deadline: Some(CancelToken::new()),
            ..Run::default()
        };
        let opts = a.opts;
        a.analyzer(two_coins.source, opts);
        a.analyzer(two_coins.source, opts);
        let analyzer = b.analyzer(two_coins.source, opts);
        b.posterior_probability(&analyzer, Interval::new(0.5, 1.5));
        let (pa, pb) = (a.exec_report(), b.exec_report());
        assert!(pb.zero_score_drops > 0, "{pb:?}");
        assert_eq!(pa.zero_score_drops, 2 * pb.zero_score_drops);
        assert_eq!(pa.pruned_branches, 2 * pb.pruned_branches);
        assert_eq!(a.deadline_report(), None, "a has no deadline");
        assert_eq!(b.deadline_report(), Some((1, 0, 1.0)));
        assert_eq!(a.lint_warnings(), 0, "the catalog is warning-clean");
        assert_eq!(Run::default().exec_report(), ExecReport::default());
    }
}
