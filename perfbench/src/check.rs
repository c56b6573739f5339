//! The correctness gate: every bound must enclose its reference.
//!
//! Table 2 posteriors are checked against their exact rationals
//! (`bench::models::table2().exact`). Every other result is checked
//! against a Monte-Carlo reference computed once by likelihood-weighted
//! importance sampling and committed in `references.json`; references
//! are never recomputed inside a run. A violation aborts the run.

use std::collections::{BTreeMap, HashMap};

use gubpi_interval::Interval;
use gubpi_serve::json::{self, obj, Json};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::workloads::{grid_refine, paper_corpus, templates};

/// The committed references, next to this crate's manifest.
pub const REFERENCES: &str = include_str!("../references.json");

/// Samples per reference program.
const SAMPLES: usize = 1_000_000;
/// Seed of the reference sampler.
const SEED: u64 = 2022;
/// Standard errors of slack around each Monte-Carlo estimate.
const SIGMAS: f64 = 6.0;
/// Largest-weight samples of slack added to every Monte-Carlo
/// tolerance. A result whose proposal probability is `p` gets no hit in
/// `N` runs with probability about `e^(−Np)`; below `p = 10/N` the
/// sample says too little for the standard error to bound it, and each
/// hit it missed is worth at most the largest weight.
const ZERO_HIT: f64 = 10.0;
/// Relative slack for the float rounding of an exact rational.
const EXACT_SLACK: f64 = 1e-12;

type Key = (String, String, u64, u64);

fn key(label: &str, kind: &str, u: Interval) -> Key {
    (
        label.to_string(),
        kind.to_string(),
        u.lo().to_bits(),
        u.hi().to_bits(),
    )
}

/// Monte-Carlo estimates with their tolerances.
pub struct References {
    map: HashMap<Key, (f64, f64)>,
}

impl References {
    /// Parses the committed reference file.
    pub fn load() -> Result<References, String> {
        let doc = json::parse(REFERENCES)?;
        let Some(Json::Arr(refs)) = doc.get("refs") else {
            return Err("references.json: missing 'refs' array".to_string());
        };
        let mut map = HashMap::new();
        for r in refs {
            let s = |k: &str| {
                r.get(k)
                    .and_then(Json::as_str)
                    .ok_or(format!("reference without '{k}'"))
            };
            let n = |k: &str| {
                r.get(k)
                    .and_then(Json::as_f64)
                    .ok_or(format!("reference without '{k}'"))
            };
            let u = Interval::new(n("lo")?, n("hi")?);
            map.insert(key(s("label")?, s("kind")?, u), (n("estimate")?, n("tol")?));
        }
        Ok(References { map })
    }

    /// Checks one bound `(lo, hi)` on `kind` of `U` for the program
    /// labelled `label`.
    pub fn check(
        &self,
        label: &str,
        kind: &str,
        u: Interval,
        exact: Option<(i128, i128)>,
        (lo, hi): (f64, f64),
    ) -> Result<(), String> {
        let what = || format!("{label} {kind} [{}, {}]", u.lo(), u.hi());
        if lo.is_nan() || hi.is_nan() || lo > hi {
            return Err(format!("{}: malformed bound [{lo}, {hi}]", what()));
        }
        if let Some((num, den)) = exact {
            let x = num as f64 / den as f64;
            let slack = EXACT_SLACK * x.abs().max(1.0);
            if lo > x + slack || x > hi + slack {
                return Err(format!(
                    "{}: [{lo}, {hi}] excludes the exact {num}/{den}",
                    what()
                ));
            }
            return Ok(());
        }
        let Some(&(est, tol)) = self.map.get(&key(label, kind, u)) else {
            return Err(format!("{}: no committed reference", what()));
        };
        if lo - tol > est || est > hi + tol {
            return Err(format!(
                "{}: [{lo}, {hi}] excludes the Monte-Carlo reference {est} ± {tol}",
                what()
            ));
        }
        Ok(())
    }
}

/// A program's source and the `(kind, U)` pairs checked against it.
type Needed = (&'static str, Vec<(&'static str, Interval)>);

/// Every `label → (source, [(kind, U)])` a workload checks against
/// Monte Carlo.
fn needed() -> BTreeMap<String, Needed> {
    let mut out: BTreeMap<String, Needed> = BTreeMap::new();
    for m in paper_corpus().into_iter().chain(grid_refine()) {
        for q in m.queries.iter().filter(|q| q.exact.is_none()) {
            let entry = out.entry(m.label.clone()).or_insert((m.source, Vec::new()));
            entry.1.extend(q.ask.targets());
        }
    }
    for t in templates().into_iter().filter(|t| t.exact.is_none()) {
        let entry = out.entry(t.label.clone()).or_insert((t.source, Vec::new()));
        entry.1.push((t.ref_kind(), t.hot));
    }
    out
}

/// Estimate and tolerance of `kind` on `U` from weighted samples.
///
/// A denotation is the mean of `w·1[v ∈ U]` over every run, rejected
/// runs counting as weight 0; a posterior is the self-normalised ratio,
/// whose standard error comes from the delta method. The tolerance is
/// `SIGMAS` standard errors plus `ZERO_HIT` times the largest weight
/// over the estimate's denominator (the run count, or the weight total).
fn estimate(ws: &gubpi_inference::WeightedSamples, kind: &str, u: Interval) -> (f64, f64) {
    let inside = |v: f64| v >= u.lo() && v <= u.hi();
    let w: Vec<f64> = ws.log_weights.iter().map(|lw| lw.exp()).collect();
    let w_max = w.iter().copied().fold(0.0, f64::max);
    let (est, se, quantum) = if kind == "denotation" {
        let n = (ws.len() + ws.rejected) as f64;
        let xs: Vec<f64> = ws
            .values
            .iter()
            .zip(&w)
            .map(|(&v, &w)| if inside(v) { w } else { 0.0 })
            .collect();
        let mean = xs.iter().sum::<f64>() / n;
        // Rejected runs contribute (0 − mean)² each.
        let var = (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>()
            + ws.rejected as f64 * mean * mean)
            / n;
        (mean, (var / n).sqrt(), w_max / n)
    } else {
        let total: f64 = w.iter().sum();
        let p = ws
            .values
            .iter()
            .zip(&w)
            .filter(|(&v, _)| inside(v))
            .map(|(_, &w)| w)
            .sum::<f64>()
            / total;
        let var = ws
            .values
            .iter()
            .zip(&w)
            .map(|(&v, &w)| (w * (f64::from(u8::from(inside(v))) - p)).powi(2))
            .sum::<f64>()
            / (total * total);
        (p, var.sqrt(), w_max / total)
    };
    (est, SIGMAS * se + ZERO_HIT * quantum)
}

/// Recomputes every reference and renders `references.json`. Runs
/// only on request (`--make-references`), never inside a measured run.
pub fn make_references() -> String {
    let mut refs = Vec::new();
    for (label, (source, targets)) in needed() {
        let program = gubpi_lang::parse(source).expect("corpus programs parse");
        let mut rng = StdRng::seed_from_u64(SEED);
        let ws = gubpi_inference::importance_sample(
            &program,
            SAMPLES,
            gubpi_inference::ImportanceOptions::default(),
            &mut rng,
        );
        let mut seen = Vec::new();
        for (kind, u) in targets {
            if seen.contains(&(kind, u)) {
                continue;
            }
            seen.push((kind, u));
            let (est, tol) = estimate(&ws, kind, u);
            refs.push(obj(vec![
                ("label", Json::Str(label.clone())),
                ("kind", Json::Str(kind.to_string())),
                ("lo", Json::Num(u.lo())),
                ("hi", Json::Num(u.hi())),
                ("estimate", Json::Num(est)),
                ("tol", Json::Num(tol)),
            ]));
        }
        eprintln!("references: {label} done");
    }
    let doc = obj(vec![
        (
            "method",
            Json::Str("likelihood-weighted importance sampling (gubpi_inference)".to_string()),
        ),
        ("samples", Json::Num(SAMPLES as f64)),
        ("seed", Json::Num(SEED as f64)),
        (
            "tolerance",
            Json::Str(format!(
                "{SIGMAS} standard errors + {ZERO_HIT} x largest weight / weight total"
            )),
        ),
        ("refs", Json::Arr(refs)),
    ]);
    // One reference per line keeps the committed file diffable.
    doc.to_wire().replace("},{", "},\n{") + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn targets(label: &str) -> Vec<(&'static str, Interval)> {
        paper_corpus()
            .into_iter()
            .chain(grid_refine())
            .filter(|m| m.label == label)
            .flat_map(|m| m.queries)
            .flat_map(|q| q.ask.targets())
            .collect()
    }

    /// `[0, 0]` fails on every fig5a bin and rare Table 1 event that
    /// holds mass: the tolerance scales with the sample.
    #[test]
    fn empty_bounds_fail_where_the_sample_sees_mass() {
        let refs = References::load().expect("references parse");
        let mut rejected = 0;
        for label in [
            "fig5a",
            "t1/ex-cart/count >= 4",
            "t1/ex-ckd-epi-s/f1 <= 4.4 and f >= 4.6",
        ] {
            for (kind, u) in targets(label) {
                let (est, _) = refs.map[&key(label, kind, u)];
                if est >= 1e-6 {
                    let verdict = refs.check(label, kind, u, None, (0.0, 0.0));
                    assert!(verdict.is_err(), "[0, 0] passes on {label} {kind} {u:?}");
                    rejected += 1;
                }
            }
        }
        assert!(rejected >= 18, "only {rejected} results hold mass");
    }

    /// Every reference passes a point bound on its own estimate.
    #[test]
    fn point_bounds_on_the_estimate_pass() {
        let refs = References::load().expect("references parse");
        for ((label, kind, lo, hi), &(est, _)) in &refs.map {
            let u = Interval::new(f64::from_bits(*lo), f64::from_bits(*hi));
            assert!(refs.check(label, kind, u, None, (est, est)).is_ok());
        }
    }
}
