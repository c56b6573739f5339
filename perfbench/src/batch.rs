//! The batch workloads, `paper-corpus` and `grid-refine`: every model
//! of the batch is analysed from source text to bounds, in an order the
//! seed shuffles, as many passes as fit in the measured time.
//!
//! Each pass runs in a fresh child process (this binary with
//! `--pass K`), which sets up, runs the pass, checks every bound and
//! reports back one JSON line. A process's peak memory and its memory
//! layout differ from process to process, so the run reports medians
//! over several processes instead of one process's numbers.

use std::process::Command;
use std::time::Instant;

use gubpi_core::{AnalysisOptions, Threads, WorkerPool};
use gubpi_interval::Interval;
use gubpi_serve::json::{self, obj, Json};

use crate::check::References;
use crate::metrics::{layer_metrics, Metric, Outcome};
use crate::replay::{analyzer, ask_analyzer, replay_model, Bounds};
use crate::sys::{cpu_seconds, median, peak_rss_mb, quantile, SplitMix};
use crate::trace::Tracer;
use crate::workloads::{self, Ask, Model, Query};
use crate::Args;

/// The workload's models.
pub fn models(workload: &str) -> Vec<Model> {
    match workload {
        "paper-corpus" => workloads::paper_corpus(),
        _ => workloads::grid_refine(),
    }
}

/// Spawns `n` pool workers now instead of at the first query: each
/// level of the recursion ships a short sleep to a worker while the
/// caller recurses, so no worker is idle when the next fork asks.
fn spin_up(pool: &WorkerPool, n: usize) {
    if n > 0 {
        pool.fork_join(
            || spin_up(pool, n - 1),
            || std::thread::sleep(std::time::Duration::from_millis(1)),
        );
    }
}

/// A small program analysed once during set-up, so that the first
/// timed model of a fresh process does not pay for faulting in code and
/// growing the heap. It is not part of any workload.
const WARM_UP: &str = "let x = sample in let y = sample normal(0, 1) in \
                       score(x); if x <= 0.5 then y else x";

fn warm_up(pool: &WorkerPool) -> Result<(), String> {
    let ask = |ask| Query { ask, exact: None };
    let m = Model {
        label: "warm-up".to_string(),
        source: WARM_UP,
        opts: AnalysisOptions::default(),
        queries: vec![
            ask(Ask::Posterior(Interval::new(0.0, 0.5))),
            ask(Ask::Histogram(Interval::new(-2.0, 2.0), 8)),
        ],
    };
    let (a, _) = analyzer(&m, pool)?;
    for q in &m.queries {
        ask_analyzer(&a, q.ask).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// One untraced pass over the whole batch.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    /// Time to each bound, `[model][query]`; the first query of a
    /// model includes its analyzer build.
    latencies_ms: Vec<Vec<f64>>,
    /// `results[model][query]`, in the batch's canonical order.
    results: Vec<Vec<Bounds>>,
    attempted: u64,
    failed: u64,
    cache_hits: u64,
    cache_lookups: u64,
}

fn run_pass(models: &[Model], order: &[usize], pool: &WorkerPool) -> Pass {
    let mut results = vec![Vec::new(); models.len()];
    let mut latencies_ms = vec![Vec::new(); models.len()];
    let (mut attempted, mut failed, mut cache_hits, mut cache_lookups) = (0, 0, 0, 0);
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    for &mi in order {
        let m = &models[mi];
        let mut tq = Instant::now();
        attempted += m.queries.len() as u64;
        let (a, cache) = match analyzer(m, pool) {
            Ok(built) => built,
            Err(_) => {
                failed += m.queries.len() as u64;
                continue;
            }
        };
        for q in &m.queries {
            match ask_analyzer(&a, q.ask) {
                Ok(b) => results[mi].push(b),
                Err(_) => {
                    failed += 1;
                    results[mi].push(Vec::new());
                }
            }
            latencies_ms[mi].push(tq.elapsed().as_secs_f64() * 1e3);
            tq = Instant::now();
        }
        let s = cache.stats();
        cache_hits += s.hits;
        cache_lookups += s.hits + s.misses;
    }
    Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: cpu_seconds() - cpu0,
        latencies_ms,
        results,
        attempted,
        failed,
        cache_hits,
        cache_lookups,
    }
}

/// Checks every bound of a pass against its reference; returns the
/// gap sum over finite results and the number of infinite ones.
fn check(
    models: &[Model],
    results: &[Vec<Bounds>],
    refs: &References,
) -> Result<(f64, u64), String> {
    let mut gap_sum = 0.0;
    let mut infinite = 0;
    for (m, per_query) in models.iter().zip(results) {
        for (q, bounds) in m.queries.iter().zip(per_query) {
            let targets = q.ask.targets();
            if bounds.len() != targets.len() {
                return Err(format!(
                    "{}: {} bounds for {} targets",
                    m.label,
                    bounds.len(),
                    targets.len()
                ));
            }
            for (&(kind, u), &b) in targets.iter().zip(bounds) {
                refs.check(&m.label, kind, u, q.exact, b)?;
                if b.1.is_finite() {
                    gap_sum += b.1 - b.0;
                } else {
                    infinite += 1;
                }
            }
        }
    }
    Ok((gap_sum, infinite))
}

/// FNV-1a over every bound's bits, in canonical order: passes in
/// different processes must agree on it.
fn fingerprint(results: &[Vec<Bounds>]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(lo, hi) in results.iter().flatten().flatten() {
        for word in [lo.to_bits(), hi.to_bits()] {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    format!("{h:016x}")
}

fn bits(results: &[Vec<Bounds>]) -> Vec<(u64, u64)> {
    results
        .iter()
        .flatten()
        .flatten()
        .map(|&(lo, hi)| (lo.to_bits(), hi.to_bits()))
        .collect()
}

/// The body of a `--pass K` child: set up, run pass `K` (and its traced
/// replay when tracing), check it, and report it as one JSON object.
pub fn child_pass(args: &Args, index: u64) -> Result<Json, String> {
    let t0 = Instant::now();
    let width = Threads::Auto.worker_count(usize::MAX);
    let pool = WorkerPool::new();
    pool.reserve(width);
    spin_up(&pool, width - 1);
    warm_up(&pool)?;
    let refs = References::load()?;
    let models = models(&args.workload);
    let setup_s = t0.elapsed().as_secs_f64();

    let mut order: Vec<usize> = (0..models.len()).collect();
    SplitMix::new(args.seed, 1000 + index).shuffle(&mut order);
    let pass = run_pass(&models, &order, &pool);
    let (gap_sum, infinite) = check(&models, &pass.results, &refs)?;
    // Read before a traced replay can raise it.
    let peak_rss = peak_rss_mb();
    let mut layers = Vec::new();
    let mut spans = Json::Null;
    if args.trace {
        // The same replay twice: under a tracer that records nothing,
        // then under the recording one.
        let replay = |tr: &mut Tracer| -> Result<(Vec<Vec<Bounds>>, f64), String> {
            let t0 = Instant::now();
            let mut out = vec![Vec::new(); models.len()];
            let mut qid = 0u32;
            for &mi in &order {
                out[mi] = replay_model(&models[mi], &pool, width, qid, tr)?;
                qid += models[mi].queries.len() as u32;
            }
            Ok((out, t0.elapsed().as_secs_f64()))
        };
        let (plain, plain_wall) = replay(&mut Tracer::off())?;
        let stats0 = pool.stats();
        let mut tr = Tracer::new();
        let (traced, traced_wall) = replay(&mut tr)?;
        if bits(&pass.results) != bits(&traced) || bits(&plain) != bits(&traced) {
            return Err("traced replay bounds differ from the Analyzer bounds".to_string());
        }
        let ratio = pass.cache_hits as f64 / pass.cache_lookups.max(1) as f64;
        layers = layer_metrics(&tr, &stats0, &pool.stats(), 1.0);
        layers.push(Metric::new("core.cache_hit_ratio", ratio, "ratio"));
        layers.push(Metric::new("serve.wire_ms", 0.0, "ms"));
        layers.push(Metric::new("serve.frontend_ms", 0.0, "ms"));
        layers.push(Metric::new("serve.overloaded_ratio", 0.0, "ratio"));
        layers.push(Metric::new(
            "trace.overhead_ratio",
            traced_wall / plain_wall,
            "ratio",
        ));
        spans = tr.to_json();
    }
    let num = |x: f64| Json::Num(x);
    Ok(obj(vec![
        ("setup_s", num(setup_s)),
        ("wall_s", num(pass.wall_s)),
        ("cpu_s", num(pass.cpu_s)),
        ("peak_rss_mb", num(peak_rss)),
        ("gap_sum", num(gap_sum)),
        ("infinite_results", num(infinite as f64)),
        ("attempted", num(pass.attempted as f64)),
        ("failed", num(pass.failed as f64)),
        ("cache_hits", num(pass.cache_hits as f64)),
        ("cache_lookups", num(pass.cache_lookups as f64)),
        ("fingerprint", Json::Str(fingerprint(&pass.results))),
        (
            "latencies_ms",
            Json::Arr(
                pass.latencies_ms
                    .iter()
                    .flatten()
                    .map(|&t| num(t))
                    .collect(),
            ),
        ),
        ("layers", Metric::to_json(&layers)),
        ("spans", spans),
    ]))
}

/// Runs one pass in a child process and parses its report.
fn spawn_pass(args: &Args, index: u64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(["--pass", &index.to_string()])
        .output()
        .map_err(|e| format!("spawn pass {index}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "pass {index} failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    json::parse(line).map_err(|e| format!("pass {index} report: {e}"))
}

/// Runs a batch workload: passes in child processes until `--seconds`
/// has elapsed, then the medians.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut out = Outcome::default();
    let mut reports: Vec<Json> = Vec::new();
    while reports.is_empty() || started.elapsed().as_secs_f64() < args.seconds as f64 {
        let r = spawn_pass(args, reports.len() as u64)?;
        let same = |a: &Json, b: &Json| a.get("fingerprint") == b.get("fingerprint");
        if reports.first().is_some_and(|first| !same(first, &r)) {
            return Err("bounds differ between passes".to_string());
        }
        reports.push(r);
    }
    let field = |r: &Json, k: &str| r.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let all = |k: &str| -> Vec<f64> { reports.iter().map(|r| field(r, k)).collect() };
    let sum = |k: &str| all(k).iter().sum::<f64>() as u64;

    // Each query's mean time over the passes, then quantiles over the
    // batch's queries. The mean, not the median: a 30-70 ms query varies
    // by about 20 % from pass to pass, and the slowest few trade places,
    // so over six or seven passes the median moved `latency_p95_ms` far
    // more from run to run than the mean does.
    let per_pass: Vec<&[Json]> = reports
        .iter()
        .filter_map(|r| match r.get("latencies_ms") {
            Some(Json::Arr(ts)) => Some(ts.as_slice()),
            _ => None,
        })
        .collect();
    let queries = per_pass.first().map_or(0, |ts| ts.len());
    let query_ms: Vec<f64> = (0..queries)
        .map(|q| {
            let samples: Vec<f64> = per_pass
                .iter()
                .filter_map(|ts| ts.get(q).and_then(Json::as_f64))
                .collect();
            samples.iter().sum::<f64>() / samples.len() as f64
        })
        .collect();

    let walls = all("wall_s");
    out.setup_s = median(&all("setup_s"));
    out.peak_rss_mb = median(&all("peak_rss_mb"));
    out.gap_sum = field(&reports[0], "gap_sum");
    out.infinite_results = field(&reports[0], "infinite_results") as u64;
    out.attempted = sum("attempted");
    out.failed = sum("failed");
    out.end_to_end = vec![
        Metric::new("wall_s", median(&walls), "s"),
        Metric::new("cpu_s", median(&all("cpu_s")), "s"),
        Metric::new("latency_p50_ms", median(&query_ms), "ms"),
        Metric::new("latency_p95_ms", quantile(&query_ms, 0.95), "ms"),
        Metric::new("throughput_qps", queries as f64 / median(&walls), "1/s"),
    ];
    if args.trace {
        let runs: Vec<Vec<Metric>> = reports
            .iter()
            .map(|r| Metric::from_json(r.get("layers").unwrap_or(&Json::Null)))
            .collect();
        out.per_layer = Metric::medians(&runs);
        out.spans = reports.last().and_then(|r| r.get("spans")).cloned();
    }
    out.notes.push(("passes", reports.len() as f64));
    out.notes
        .push(("latency_samples", (queries * reports.len()) as f64));
    out.notes.push((
        "cache_hit_ratio",
        sum("cache_hits") as f64 / sum("cache_lookups").max(1) as f64,
    ));
    Ok(out)
}
