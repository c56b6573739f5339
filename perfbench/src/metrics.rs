//! Metric values and the per-layer numbers derived from a trace.

use gubpi_pool::PoolStats;
use gubpi_serve::json::{obj, Json};

use crate::sys::median;
use crate::trace::Tracer;

/// One named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }

    /// The per-name median over several runs of the same metric list.
    pub fn medians(runs: &[Vec<Metric>]) -> Vec<Metric> {
        let Some(first) = runs.first() else {
            return Vec::new();
        };
        first
            .iter()
            .map(|m| {
                let values: Vec<f64> = runs
                    .iter()
                    .filter_map(|r| r.iter().find(|x| x.name == m.name).map(|x| x.value))
                    .collect();
                Metric::new(&m.name, median(&values), &m.unit)
            })
            .collect()
    }

    /// `{"name": {"value": v, "unit": u}, ...}`, the result line's shape.
    pub fn to_json(ms: &[Metric]) -> Json {
        Json::Obj(
            ms.iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        obj(vec![
                            ("value", Json::Num(m.value)),
                            ("unit", Json::Str(m.unit.clone())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The inverse of [`Metric::to_json`]; skips malformed entries.
    pub fn from_json(j: &Json) -> Vec<Metric> {
        let Json::Obj(pairs) = j else {
            return Vec::new();
        };
        pairs
            .iter()
            .filter_map(|(name, v)| {
                let value = v.get("value").and_then(Json::as_f64)?;
                let unit = v.get("unit").and_then(Json::as_str)?;
                Some(Metric::new(name, value, unit))
            })
            .collect()
    }
}

/// What a workload run reports back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub gap_sum: f64,
    /// Results with an infinite upper bound (counted, not summed).
    pub infinite_results: u64,
    /// Extra numbers for the run record (sample counts and the like).
    pub notes: Vec<(&'static str, f64)>,
    /// The last traced pass's spans.
    pub spans: Option<Json>,
}

/// The per-layer metrics of one traced pass: self time per layer, the
/// layers' work counts and the pool's counter deltas, each divided by
/// `units` (the passes or request rounds the trace covers).
pub fn layer_metrics(
    tr: &Tracer,
    before: &PoolStats,
    after: &PoolStats,
    units: f64,
) -> Vec<Metric> {
    let own = tr.self_ms();
    let ms = |span: &str| own.get(span).copied().unwrap_or(0.0) / units;
    let count = |name: &str| tr.counter(name) / units;
    let per_kcell = |t: f64, cells: f64| if cells > 0.0 { t / (cells / 1e3) } else { 0.0 };
    let (grid_ms, grid_cells) = (ms("core.sweep_grid"), count("core.grid_cells"));
    let (refine_ms, refine_cells) = (ms("core.refine"), count("core.refine_cells"));
    let delta = |f: fn(&PoolStats) -> u64| (f(after) - f(before)) as f64 / units;
    vec![
        Metric::new("lang.parse_ms", ms("lang.parse"), "ms"),
        Metric::new("types.infer_ms", ms("types.infer"), "ms"),
        Metric::new("analysis.facts_ms", ms("analysis.facts"), "ms"),
        Metric::new("symbolic.exec_ms", ms("symbolic.exec"), "ms"),
        Metric::new("symbolic.paths", count("symbolic.paths"), "count"),
        Metric::new("symbolic.top_paths", count("symbolic.top_paths"), "count"),
        Metric::new("symbolic.lower_ms", ms("symbolic.lower"), "ms"),
        Metric::new("symbolic.tapes", count("symbolic.tapes"), "count"),
        Metric::new("core.sweep_linear_ms", ms("core.sweep_linear"), "ms"),
        Metric::new("core.linear_regions", count("core.linear_regions"), "count"),
        Metric::new("core.sweep_grid_ms", grid_ms, "ms"),
        Metric::new("core.grid_cells", grid_cells, "count"),
        Metric::new(
            "core.grid_cells_per_s",
            if grid_ms > 0.0 {
                grid_cells / (grid_ms / 1e3)
            } else {
                0.0
            },
            "1/s",
        ),
        Metric::new(
            "core.sweep_grid_ms_per_kcell",
            per_kcell(grid_ms, grid_cells),
            "ms/kcell",
        ),
        Metric::new("core.refine_ms", refine_ms, "ms"),
        Metric::new("core.refine_cells", refine_cells, "count"),
        Metric::new(
            "core.refine_ms_per_kcell",
            per_kcell(refine_ms, refine_cells),
            "ms/kcell",
        ),
        Metric::new("core.fold_ms", ms("core.fold"), "ms"),
        Metric::new("pool.dispatches", delta(|s| s.dispatches), "count"),
        Metric::new("pool.path_steals", delta(|s| s.path_steals), "count"),
        Metric::new("pool.region_steals", delta(|s| s.region_steals), "count"),
        Metric::new("pool.inline_runs", delta(|s| s.inline_runs), "count"),
    ]
}
