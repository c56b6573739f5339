//! `perfbench`: the GuBPI benchmark. One command runs one workload,
//! checks every bound it produces, and prints every metric by name and
//! unit; the last line of standard output is the result as JSON.
//!
//! ```text
//! perfbench --workload <paper-corpus|grid-refine|serve-mix> --seed N
//!           --seconds S --trace <0|1> [--out DIR]
//! perfbench --make-references FILE
//! ```
//!
//! See `README.md` next to this crate for the metrics, the workloads
//! and the engine entry points the benchmark calls.

mod batch;
mod check;
mod metrics;
mod replay;
mod serve_mix;
mod sys;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use gubpi_core::{Method, Threads};
use gubpi_serve::json::{obj, Json};

use crate::check::References;
use crate::metrics::{Metric, Outcome};
use crate::sys::median;
use crate::workloads::Model;

/// serve-mix set-ups per run; `setup_s` is their median. A batch run
/// sets up once in every pass process.
const SERVE_SETUPS: usize = 3;

/// The parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub out: Option<PathBuf>,
    /// Internal: run batch pass `K` in this process and report it.
    pub pass: Option<u64>,
}

const USAGE: &str = "usage: perfbench --workload <paper-corpus|grid-refine|serve-mix> \
                     --seed N --seconds S --trace <0|1> [--out DIR]\n       \
                     perfbench --make-references FILE";

enum Command {
    Run(Args),
    MakeReferences(PathBuf),
}

fn parse_args() -> Result<Command, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    let (mut workload, mut seed, mut seconds, mut trace, mut out, mut pass) =
        (None, None, None, None, None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--make-references" => return Ok(Command::MakeReferences(PathBuf::from(value()?))),
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--pass" => {
                pass = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--pass: {e}"))?,
                )
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["paper-corpus", "grid-refine", "serve-mix"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Command::Run(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
        out,
        pass,
    }))
}

/// The library resolves `GUBPI_*` variables inside `Default` impls and
/// `Threads::Auto`, so a run under any of them would not measure the
/// configuration it reports.
fn refuse_gubpi_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("GUBPI_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("refusing to run with {} set", set.join(", ")))
    }
}

fn model_options(models: &[Model]) -> Json {
    Json::Arr(
        models
            .iter()
            .map(|m| {
                let o = &m.opts;
                obj(vec![
                    ("label", Json::Str(m.label.clone())),
                    ("queries", Json::Num(m.queries.len() as f64)),
                    ("unfold", Json::Num(o.sym.max_fix_unfoldings as f64)),
                    ("splits", Json::Num(o.bounds.splits as f64)),
                    ("region_budget", Json::Num(o.bounds.region_budget as f64)),
                    ("grid", Json::Bool(o.method == Method::Grid)),
                    ("refine", Json::Bool(o.refine)),
                    ("max_refine_depth", Json::Num(o.max_refine_depth as f64)),
                ])
            })
            .collect(),
    )
}

fn run(args: &Args) -> Result<(Outcome, Json), String> {
    if args.workload != "serve-mix" {
        let out = batch::run(args)?;
        return Ok((out, model_options(&batch::models(&args.workload))));
    }
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..SERVE_SETUPS {
        if let Some((daemon, _, _)) = last.take() {
            serve_mix::Daemon::stop(daemon);
        }
        let t0 = Instant::now();
        let refs = References::load()?;
        let templates = workloads::templates();
        let daemon = serve_mix::Daemon::start(&templates)?;
        setups.push(t0.elapsed().as_secs_f64());
        last = Some((daemon, refs, templates));
    }
    let (daemon, refs, templates) = last.expect("at least one set-up");
    let options = obj(vec![
        ("clients", Json::Num(serve_mix::CLIENTS as f64)),
        (
            "requests_per_client_round",
            Json::Num(serve_mix::ROUND as f64),
        ),
        ("p_hot", Json::Num(serve_mix::P_HOT)),
        ("zipf_s", Json::Num(serve_mix::ZIPF_S)),
        (
            "templates",
            Json::Arr(
                templates
                    .iter()
                    .map(|t| Json::Str(t.label.clone()))
                    .collect(),
            ),
        ),
        (
            "server",
            Json::Str("ServeConfig::default(), AnalysisOptions::default()".to_string()),
        ),
    ]);
    let mut out = serve_mix::run(args, &templates, daemon, &refs)?;
    out.setup_s = median(&setups);
    Ok((out, options))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Command::Run(args)) => args,
        Ok(Command::MakeReferences(path)) => {
            return match std::fs::write(&path, check::make_references()) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: write {}: {e}", path.display());
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = refuse_gubpi_env() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    if let Some(index) = args.pass {
        return match batch::child_pass(&args, index) {
            Ok(report) => {
                println!("{}", report.to_wire());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let (mut out, options) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: correctness gate failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut end_to_end = vec![Metric::new("setup_s", out.setup_s, "s")];
    end_to_end.append(&mut out.end_to_end);
    end_to_end.push(Metric::new("peak_rss_mb", out.peak_rss_mb, "MB"));
    end_to_end.push(Metric::new("gap_sum", out.gap_sum, "mass"));
    let fail_ratio = out.failed as f64 / out.attempted.max(1) as f64;

    let width = Threads::Auto.worker_count(usize::MAX);
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} commit={} nproc={nproc} width={width}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::git_commit()
    );
    for m in end_to_end.iter().chain(&out.per_layer) {
        println!("# {:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "# {:<30} {:>16.6} ratio ({} of {})",
        "fail_ratio", fail_ratio, out.failed, out.attempted
    );
    println!("# {:<30} {:>16}", "infinite_results", out.infinite_results);
    for (k, v) in &out.notes {
        println!("# {k:<30} {v:>16.6}");
    }

    if let Some(dir) = &args.out {
        let record = obj(vec![
            ("workload", Json::Str(args.workload.clone())),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds as f64)),
            ("trace", Json::Bool(args.trace)),
            ("commit", Json::Str(sys::git_commit())),
            ("nproc", Json::Num(nproc as f64)),
            ("width", Json::Num(width as f64)),
            ("options", options),
            ("end_to_end", Metric::to_json(&end_to_end)),
            ("per_layer", Metric::to_json(&out.per_layer)),
            ("attempted", Json::Num(out.attempted as f64)),
            ("failed", Json::Num(out.failed as f64)),
            ("fail_ratio", Json::Num(fail_ratio)),
            ("infinite_results", Json::Num(out.infinite_results as f64)),
            (
                "notes",
                Json::Obj(
                    out.notes
                        .iter()
                        .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            ("spans", out.spans.take().unwrap_or(Json::Null)),
        ]);
        let file = dir.join(format!(
            "{}-seed{}-trace{}.json",
            args.workload,
            args.seed,
            u8::from(args.trace)
        ));
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, record.to_wire()))
        {
            eprintln!("perfbench: write {}: {e}", file.display());
            return ExitCode::FAILURE;
        }
    }

    let reported = if args.trace {
        &out.per_layer
    } else {
        &end_to_end
    };
    let result = obj(vec![
        ("correct", Json::Bool(true)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", Metric::to_json(reported)),
    ]);
    println!("{}", result.to_wire());
    ExitCode::SUCCESS
}
