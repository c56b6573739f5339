//! `repro` — regenerates every table and figure of the GuBPI paper.
//!
//! ```text
//! repro table1        Table 1/4: probability estimation, GuBPI vs [56]
//! repro table2        Table 2: discrete models vs exact posteriors
//! repro table3        Table 3: GuBPI vs SBC running times
//! repro pedestrian    Fig. 1/7: pedestrian bounds vs IS vs (wrong) HMC
//! repro fig5          Fig. 5a–5d: non-recursive histogram bounds
//! repro fig6          Fig. 6a–6f: recursive histogram bounds
//! repro ablation      linear (§6.4) vs grid (§6.3) semantics; depth sweep
//! repro query M L H   one-shot query with typed exit codes (see --help)
//! repro serve-report  daemon robustness exercise; writes BENCH_serve.json
//! repro all           everything above
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use bench::models;
use bench::{baseline56_bounds, mc_probability, Run};
use gubpi_core::{
    bound_path_grid_only_threaded, lint_program, render_histogram, run_adaptive_refinement,
    tail_substituted, AnalysisOptions, Analyzer, CancelToken, GridRefiner, Method,
    PathBoundOptions, ProgramFacts, QueryError, QueryFold, QueryOutcome, RefineOptions, Severity,
    SharedQueryCache, SingleQuery, Threads, WorkerPool,
};
use gubpi_inference::hmc::{hmc_sample, HmcOptions};
use gubpi_inference::importance::{importance_sample, ImportanceOptions};
use gubpi_inference::sbc::{run_sbc, SbcConfig};
use gubpi_interval::Interval;
use gubpi_pool::{set_fault_plan, FaultKind, FaultPlan};
use gubpi_serve::{start_with_cache, Client, QueryKind, QueryRequest, ServeConfig};
use gubpi_symbolic::SymExecOptions;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn main() {
    // The last line of the panic-containment audit: no input may leave
    // this binary via an unwind. Anything that does slip through every
    // inner boundary is caught here and mapped to the documented exit
    // code 70 with a one-line message (the default hook has already
    // printed the panic location to stderr by the time we land here).
    if catch_unwind(run).is_err() {
        eprintln!("repro: internal panic reached main; this is a bug (exit 70)");
        std::process::exit(70);
    }
}

fn run() {
    let t_start = Instant::now();
    // Deterministic chaos, same knob as the daemon: an armed
    // `GUBPI_FAULT=panic@N|delay@N|cancel@N` fires at the N-th task
    // boundary of the run (the exit-code smoke tests drive `panic@0`
    // through `repro query` and must get the typed exit 68, not an
    // unwind).
    if let Some(plan) = gubpi_pool::arm_fault_from_env() {
        eprintln!("repro: fault injection armed: {plan:?}");
    }
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Flags may appear anywhere in the argument list; each is stripped
    // before command dispatch and lands in the run's configuration.
    let mut run = Run::default();
    // `--threads N|auto|off` pins the parallel engine's worker count for
    // every analysis below. Bounds are bit-identical across all
    // settings; only wall time changes.
    if let Some(threads) = take_value(
        &mut args,
        "--threads",
        "a positive worker count, `auto` or `off`",
        "use `off` for sequential execution, not `0`",
        Threads::parse,
    ) {
        run.opts.threads = threads;
    }
    // `--cache-cap N` bounds the run's per-path query cache at N entries
    // (coarse-LRU eviction). Results are bit-identical (bounding is
    // pure); only recompute time changes.
    if let Some(cap) = take_value(
        &mut args,
        "--cache-cap",
        "a positive entry count",
        "omit the flag for an unbounded cache",
        |v| v.trim().parse::<usize>().ok().filter(|&cap| cap > 0),
    ) {
        run.cache = SharedQueryCache::with_capacity(cap);
    }
    // `--no-kernel` forces the tree-walking interpreter instead of the
    // compiled interval-tape kernel. Bounds are bit-identical either
    // way; the flag exists so kernel regressions are diagnosable in the
    // field with one switch.
    if take_flag(&mut args, "--no-kernel") {
        run.opts.bounds.use_kernel = false;
    }
    // `--no-prune` disables static dead-branch pruning in the symbolic
    // executor. Bounds are bit-identical either way (pruned paths carry
    // an exactly-zero score factor); only the explored path count
    // changes.
    if take_flag(&mut args, "--no-prune") {
        run.opts.prune = false;
    }
    // `--no-tail` disables the geometric tail enclosures on budget-⊤
    // paths. Upper bounds revert to the bare `[0, ∞]` score placeholder
    // (+∞ whenever a ⊤ path exists); lower bounds are bit-identical.
    if take_flag(&mut args, "--no-tail") {
        run.opts.bounds.use_tail = false;
    }
    // `--no-refine` disables gap-driven adaptive region refinement.
    // Every grid query falls back to the one-shot uniform sweep,
    // bit-identical to the pre-refinement engine.
    if take_flag(&mut args, "--no-refine") {
        run.opts.refine = false;
    }
    // `--gap-target X` stops adaptive refinement early once the summed
    // upper−lower gap of a query drops to X. 0 (the default) refines to
    // the full cell budget.
    if let Some(gap) = take_value(
        &mut args,
        "--gap-target",
        "a finite gap >= 0",
        "use 0 to refine to the full cell budget",
        |v| {
            v.trim()
                .parse::<f64>()
                .ok()
                .filter(|g| g.is_finite() && *g >= 0.0)
        },
    ) {
        run.opts.gap_target = gap;
    }
    // `--timeout-ms N` puts the whole run under one cooperative
    // deadline. Queries that outlive it return *anytime sound* degraded
    // enclosures (unswept work contributes its coarse whole-box bound)
    // instead of blocking; `--stats` reports how many degraded and the
    // worst completeness.
    if let Some(ms) = take_value(
        &mut args,
        "--timeout-ms",
        "a millisecond count",
        "omit the flag for an unlimited run",
        |v| v.trim().parse::<u64>().ok(),
    ) {
        run.deadline = Some(CancelToken::with_timeout(Duration::from_millis(ms)));
    }
    // `--lint` prints the static-analysis findings for every model a
    // command analyzes, as the analyzers are built.
    run.lint = take_flag(&mut args, "--lint");
    // `--deny-warnings` makes warning-severity lints fatal (exit 1) —
    // with `analyze`, or with `--lint` on any other command.
    let deny_warnings = take_flag(&mut args, "--deny-warnings");
    // `--stats` prints cache, pool and kernel counters after the run.
    let print_stats = take_flag(&mut args, "--stats");
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    match cmd {
        "--help" | "-h" | "help" => {
            println!(
                "repro — regenerates the tables and figures of the GuBPI paper\n\n\
                 USAGE: repro [--threads N|auto|off] [--cache-cap N] [--no-kernel] [--no-prune]\n       \
                 [--no-tail] [--no-refine] [--gap-target X] [--lint] [--deny-warnings]\n       \
                 [--stats] [COMMAND]\n\n\
                 COMMANDS:\n  \
                 table1        Table 1/4: probability estimation, GuBPI vs [56]\n  \
                 table2        Table 2: discrete models vs exact posteriors\n  \
                 table3        Table 3: GuBPI vs SBC running times\n  \
                 pedestrian    Fig. 1/7: pedestrian bounds vs IS vs (wrong) HMC\n  \
                 fig5          Fig. 5a-5d: non-recursive histogram bounds\n  \
                 fig6          Fig. 6a-6f: recursive histogram bounds\n  \
                 ablation      linear (§6.4) vs grid (§6.3) semantics; depth sweep\n  \
                 analyze [F]   static analysis only: facts + lints for every built-in\n                \
                 model (or those whose label contains F); no execution\n  \
                 prune-report  path counts with pruning on vs off for every Table 2\n                \
                 model; writes the BENCH_prune.json snapshot\n  \
                 tail-report   upper−lower gap on Z for truncated recursions, tail\n                \
                 enclosures on vs off; writes the BENCH_tail.json snapshot\n  \
                 gap-report    bound gap at equal cell budget, uniform sweep vs\n                \
                 gap-driven adaptive refinement; writes BENCH_gap.json\n  \
                 smoke         one tiny model end to end (seconds; for diagnosing\n                \
                 an installation together with --stats / --no-kernel)\n  \
                 query M L H   one query on catalog model M (or inline source) over\n                \
                 [L, H]; add --posterior for the normalized probability.\n                \
                 Typed failures exit 64-69 (invalid-interval, invalid-\n                \
                 domain, no-bins, deadline-exceeded, worker-panicked,\n                \
                 overloaded); a panic reaching main exits 70\n  \
                 serve-report  exercise the gubpi-serve daemon in process (deadline\n                \
                 degradation, admission control, injected panic) and\n                \
                 write the BENCH_serve.json latency/robustness snapshot\n  \
                 all           everything above (the default)\n\n\
                 OPTIONS:\n  \
                 --threads N|auto|off   worker threads for the bounding engine (N > 0;\n                         \
                 results are bit-identical)\n  \
                 --cache-cap N          bound the shared per-path query cache at N entries\n                         \
                 (coarse-LRU eviction)\n  \
                 --no-kernel            force the tree-walking interpreter instead of the\n                         \
                 compiled interval-tape kernel (bounds are\n                         \
                 bit-identical, only speed changes)\n  \
                 --no-prune             disable static dead-branch pruning in the symbolic\n                         \
                 executor (bounds are bit-identical, only the\n                         \
                 explored path count changes)\n  \
                 --no-tail              disable geometric tail enclosures on budget-⊤ paths\n                         \
                 (upper bounds revert to +∞ where a ⊤ path exists,\n                         \
                 lower bounds are bit-identical)\n  \
                 --no-refine            disable gap-driven adaptive region refinement (grid\n                         \
                 queries fall back to the one-shot uniform sweep,\n                         \
                 bit-identically)\n  \
                 --gap-target X         stop refining a query once its summed bound gap\n                         \
                 reaches X (0 = refine to the full cell budget)\n  \
                 --timeout-ms N         run under one cooperative deadline of N ms; queries\n                         \
                 that outlive it return anytime sound degraded\n                         \
                 enclosures instead of blocking\n  \
                 --lint                 print static-analysis findings for every model a\n                         \
                 command analyzes\n  \
                 --deny-warnings        exit 1 on warning-severity lints (with `analyze`,\n                         \
                 or with --lint on any other command)\n  \
                 --stats                print cache, worker-pool, prune and kernel counters\n                         \
                 after the run (tape length, CSE savings, cells/sec)"
            );
        }
        "table1" | "table4" => table1(&mut run),
        "table2" => table2(&mut run),
        "table3" => table3(&mut run),
        "smoke" => smoke(&mut run),
        "query" => {
            let code = query_cmd(&mut run, &args[1..]);
            if code != 0 {
                std::process::exit(code);
            }
        }
        "serve-report" => serve_report(&run),
        "analyze" => analyze(args.get(1).map(String::as_str), deny_warnings),
        "prune-report" => prune_report(&run),
        "tail-report" => tail_report(&run),
        "gap-report" => gap_report(&run),
        "pedestrian" | "fig1" | "fig7" => pedestrian(&mut run),
        "fig5" => fig5(&mut run),
        "fig6" => fig6(&mut run),
        "ablation" | "ablation-linear" | "ablation-depth" => ablation(&mut run),
        "all" => {
            table1(&mut run);
            table2(&mut run);
            fig5(&mut run);
            fig6(&mut run);
            ablation(&mut run);
            pedestrian(&mut run);
            table3(&mut run);
        }
        other => {
            eprintln!("unknown command `{other}`; run `repro --help` for usage");
            std::process::exit(2);
        }
    }
    if print_stats {
        stats(&run, t_start.elapsed().as_secs_f64());
    }
    if run.lint && deny_warnings {
        let warnings = run.lint_warnings();
        if warnings > 0 {
            eprintln!("--deny-warnings: {warnings} warning-severity lints");
            std::process::exit(1);
        }
    }
}

/// Removes a boolean flag from `args`, reporting whether it was there.
fn take_flag(args: &mut Vec<String>, name: &str) -> bool {
    let at = args.iter().position(|a| a == name);
    if let Some(i) = at {
        args.remove(i);
    }
    at.is_some()
}

/// Removes `name VALUE` from `args` and parses VALUE; `None` when the
/// flag is absent. A missing or rejected value is a usage error (exit
/// 2) naming what the flag `expects` and how to `fix` the call.
fn take_value<T>(
    args: &mut Vec<String>,
    name: &str,
    expects: &str,
    fix: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Option<T> {
    let i = args.iter().position(|a| a == name)?;
    match args.get(i + 1).and_then(|v| parse(v)) {
        Some(value) => {
            args.drain(i..=i + 1);
            Some(value)
        }
        None => {
            let got = args.get(i + 1).map(String::as_str).unwrap_or("<missing>");
            eprintln!("{name} expects {expects}; got `{got}` ({fix})");
            std::process::exit(2);
        }
    }
}

/// `analyze [FILTER]`: static analysis only — no symbolic execution, no
/// bounding. Runs the pre-execution abstract interpreter over every
/// built-in model (or those whose label contains FILTER) and prints the
/// facts summary plus each lint at its `line:col` source location. With
/// `--deny-warnings`, any warning-severity finding fails the run — the
/// repository's models must stay warning-clean (notes are expected:
/// recursion without weight contraction is deliberate here).
fn analyze(filter: Option<&str>, deny_warnings: bool) {
    println!("== Static analysis: interval/weight facts and lints ==================");
    let mut matched = 0usize;
    let mut findings = 0usize;
    let mut warnings = 0usize;
    for (label, src) in models::catalog() {
        if let Some(f) = filter {
            if !label.contains(f) {
                continue;
            }
        }
        matched += 1;
        let program = gubpi_lang::parse(src).expect("built-in model parses");
        let simple = gubpi_lang::infer(&program).expect("built-in model type-checks");
        let typing = gubpi_types::infer_interval_types(&program, &simple);
        let facts = ProgramFacts::compute(&program, &typing);
        let lints = lint_program(&program, &typing, &facts);
        println!(
            "-- {label}: {} dead branches, {} zero-weight scores, {} pooled constants, \
             {} findings",
            facts.dead_branch_count(),
            facts.zero_score_count(),
            facts.constant_pool().len(),
            lints.len()
        );
        for l in &lints {
            if l.severity == Severity::Warning {
                warnings += 1;
            }
            println!("   {}", l.render(src));
        }
        findings += lints.len();
    }
    if matched == 0 {
        eprintln!(
            "no built-in model matches `{}`; run `repro analyze` to list all",
            filter.unwrap_or("")
        );
        std::process::exit(2);
    }
    println!("\n{matched} models analyzed: {findings} findings, {warnings} warnings");
    if deny_warnings && warnings > 0 {
        eprintln!("--deny-warnings: {warnings} warning-severity lints");
        std::process::exit(1);
    }
    println!();
}

/// `prune-report`: symbolic path counts for every Table 2 model with
/// dead-branch pruning on vs off, plus the executor's prune counters.
/// Bounds are bit-identical either way (the differential tests assert
/// it); the report shows how much exploration pruning saves, and writes
/// the `BENCH_prune.json` snapshot to the working directory.
fn prune_report(run: &Run) {
    println!("== Prune report: symbolic path counts, pruning on vs off =============");
    println!(
        "{:<16} {:>9} {:>9} {:>15} {:>11}",
        "model", "unpruned", "pruned", "branches cut", "zero-drops"
    );
    let mut rows = Vec::new();
    for b in models::table2() {
        let opts = |prune: bool| AnalysisOptions {
            sym: SymExecOptions {
                max_fix_unfoldings: 8,
                ..run.opts.sym
            },
            prune,
            ..run.opts
        };
        let off = Analyzer::from_source(b.source, opts(false)).expect("table2 model compiles");
        let on = Analyzer::from_source(b.source, opts(true)).expect("table2 model compiles");
        let r = on.exec_report();
        println!(
            "{:<16} {:>9} {:>9} {:>15} {:>11}",
            b.name,
            off.paths().len(),
            on.paths().len(),
            r.pruned_branches,
            r.zero_score_drops
        );
        rows.push(format!(
            "    {{\n      \"name\": \"{}\",\n      \"paths_unpruned\": {},\n      \
             \"paths_pruned\": {},\n      \"pruned_branches\": {},\n      \
             \"zero_score_drops\": {}\n    }}",
            b.name,
            off.paths().len(),
            on.paths().len(),
            r.pruned_branches,
            r.zero_score_drops
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"prune\",\n  \"models\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = "BENCH_prune.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    println!();
}

/// A finite f64 as a JSON number, anything else as `null` (JSON has no
/// infinities; a bare-⊤ upper bound is `+∞`).
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// Quotes a string as a JSON literal (the verdict texts only need the
/// standard escapes; they are plain prose with math symbols).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `tail-report`: bounds on the normalising constant `Z` for models
/// with truncated recursions, with the geometric tail enclosures on vs
/// off (`--no-tail`), and the gap between them. Writes the
/// `BENCH_tail.json` snapshot to the working directory.
///
/// Lower bounds are asserted bit-identical across the two modes — the
/// enclosure only tightens the ⊤ placeholder's upper end. Each row also
/// records the ranking pass's verdict for the model's recursion:
/// `plain-geometric` loops were already tail-bounded by the per-step
/// contraction alone, `synthesized` ones needed an eventually-geometric
/// certificate (pedestrian's data-guarded walk sits here — its upper
/// bound is finite only because of the escape-mass argument, and this
/// function asserts that it is), `none` rows keep the bare ⊤.
fn tail_report(run: &Run) {
    println!("== Tail report: Z bounds with tail enclosures vs --no-tail ===========");
    let fig6a = models::figure6()
        .into_iter()
        .find(|b| b.id == "6a")
        .expect("fig6a is in the zoo");
    // (name, source, max_fix_unfoldings, max_paths): budgets tight
    // enough that every model leaves ⊤ paths behind.
    let entries: Vec<(&str, &str, u32, usize)> = vec![
        ("geometric", models::GEOMETRIC, 16, 6),
        ("scored-geometric", models::SCORED_GEOMETRIC, 16, 6),
        ("fig6a", fig6a.source, 16, 6),
        ("pedestrian", models::PEDESTRIAN, 4, 48),
    ];
    println!(
        "{:<18} {:>7} {:>6} {:>11} {:>12} {:>12}  ranking",
        "model", "top", "tails", "lo", "hi (tails)", "hi (bare)"
    );
    let mut rows = Vec::new();
    for (name, source, unfold, max_paths) in entries {
        let opts = |use_tail: bool| {
            let mut o = AnalysisOptions {
                sym: SymExecOptions {
                    max_fix_unfoldings: unfold,
                    max_paths,
                    ..run.opts.sym
                },
                ..run.opts
            };
            o.bounds.splits = 8;
            o.bounds.use_tail = use_tail;
            o
        };
        let on = Analyzer::from_source(source, opts(true)).expect("zoo model compiles");
        let off = Analyzer::from_source(source, opts(false)).expect("zoo model compiles");
        let r = on.exec_report();
        let (lo_on, hi_on) = on.denotation_bounds(Interval::REAL);
        let (lo_off, hi_off) = off.denotation_bounds(Interval::REAL);
        assert_eq!(
            lo_on.to_bits(),
            lo_off.to_bits(),
            "{name}: tails must not move lower bounds"
        );
        // The ranking pass's verdict for the model's recursion (every
        // zoo model here has exactly one `μ` node).
        let mut verdict: Option<&gubpi_core::RankVerdict> = None;
        on.program().root.walk(&mut |e| {
            if matches!(e.kind, gubpi_lang::ExprKind::Fix(..)) && verdict.is_none() {
                verdict = on.facts().ranking_verdict(e.id);
            }
        });
        let (ranking, ranking_reason) = match verdict {
            Some(v) => (v.label(), v.describe()),
            None => ("none", "no recursion facts for this model".to_owned()),
        };
        if name == "pedestrian" {
            // The CI smoke assertion of the ranking pass: the
            // pedestrian walk has no per-step contraction (c = 1), so a
            // finite upper bound here means the synthesized
            // eventually-geometric certificate actually fired.
            assert_eq!(ranking, "synthesized", "pedestrian: {ranking_reason}");
            assert!(
                hi_on.is_finite(),
                "pedestrian: ranked tail must give a finite upper bound, got {hi_on}"
            );
        }
        println!(
            "{:<18} {:>7} {:>6} {:>11.6} {:>12.6} {:>12.6}  {}",
            name, r.budget_truncated_paths, r.tail_enclosed_paths, lo_on, hi_on, hi_off, ranking
        );
        rows.push(format!(
            "    {{\n      \"name\": \"{name}\",\n      \"top_paths\": {},\n      \
             \"tail_enclosed_paths\": {},\n      \"ranked_tail_paths\": {},\n      \
             \"lo\": {},\n      \"hi_tail\": {},\n      \
             \"hi_no_tail\": {},\n      \"gap_tail\": {},\n      \"gap_no_tail\": {},\n      \
             \"ranking\": \"{ranking}\",\n      \"ranking_reason\": {}\n    }}",
            r.budget_truncated_paths,
            r.tail_enclosed_paths,
            r.ranked_tail_paths,
            json_num(lo_on),
            json_num(hi_on),
            json_num(hi_off),
            json_num(hi_on - lo_on),
            json_num(hi_off - lo_off),
            json_str(&ranking_reason),
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"tail\",\n  \"models\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = "BENCH_tail.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    println!();
}

/// `gap-report`: the upper−lower bound gap at an equal cell budget,
/// one-shot uniform sweep vs gap-driven adaptive refinement. Writes the
/// `BENCH_gap.json` snapshot to the working directory.
///
/// Two whole-model comparisons run the full analyzer twice with
/// identical options (same splits, same region budget, `Method::Grid`)
/// and only the `refine` switch flipped; the pedestrian row isolates the
/// model's dominant path (most sample dimensions) and drives one
/// `GridRefiner` directly against `bound_path_query_threaded`. The
/// headline metric is gap-per-second — how fast each engine buys bound
/// tightness — not cells-per-second. The ≥2× gap-shrink assertions on
/// the grass grid and the pedestrian dominant path are the CI smoke
/// gate for the refinement engine.
fn gap_report(run: &Run) {
    println!("== Gap report: uniform sweep vs adaptive refinement (equal cells) ====");
    let grass = models::table2()
        .into_iter()
        .find(|b| b.name == "grass")
        .expect("grass is in table2");
    let fig6a = models::figure6()
        .into_iter()
        .find(|b| b.id == "6a")
        .expect("fig6a is in the zoo");
    println!(
        "{:<26} {:>12} {:>12} {:>7} {:>10} {:>9} {:>9}",
        "workload", "gap uniform", "gap adaptive", "ratio", "gap/s", "t_uni(s)", "t_ada(s)"
    );
    let mut rows = Vec::new();
    let mut push_row = |name: &str,
                        (ulo, uhi, ut): (f64, f64, f64),
                        (alo, ahi, at): (f64, f64, f64),
                        min_ratio: f64| {
        let gap_u = uhi - ulo;
        let gap_a = ahi - alo;
        let ratio = gap_u / gap_a.max(f64::MIN_POSITIVE);
        // Gap closed per second of refinement: the report's headline.
        let gps = (gap_u - gap_a) / at.max(1e-12);
        println!(
            "{:<26} {:>12.6} {:>12.6} {:>6.1}x {:>10.3} {:>9.3} {:>9.3}",
            name, gap_u, gap_a, ratio, gps, ut, at
        );
        if min_ratio > 0.0 {
            assert!(
                ratio >= min_ratio,
                "{name}: adaptive refinement must shrink the gap ≥{min_ratio}x at equal \
                 cell budget (uniform {gap_u}, adaptive {gap_a})"
            );
        }
        rows.push(format!(
            "    {{\n      \"name\": \"{name}\",\n      \"lo_uniform\": {},\n      \
             \"hi_uniform\": {},\n      \"lo_adaptive\": {},\n      \"hi_adaptive\": {},\n      \
             \"gap_uniform\": {},\n      \"gap_adaptive\": {},\n      \"gap_ratio\": {},\n      \
             \"uniform_secs\": {:.4},\n      \"adaptive_secs\": {:.4},\n      \
             \"gap_closed_per_sec\": {}\n    }}",
            json_num(ulo),
            json_num(uhi),
            json_num(alo),
            json_num(ahi),
            json_num(gap_u),
            json_num(gap_a),
            json_num(ratio),
            ut,
            at,
            json_num(gps),
        ));
    };
    // Whole-model rows: Method::Grid pins the grid semantics (the one
    // refinement accelerates) even where the linear semantics would
    // apply, so uniform-vs-adaptive is an apples-to-apples sweep. The
    // bound gap lives on the cells straddling branch thresholds — a
    // measure-zero surface — so adaptive's edge over the uniform grid
    // grows with the cell budget; the splits below give refinement room
    // to out-resolve the uniform grid within the same budget.
    let entries: Vec<(&str, &str, u32, Interval, f64)> = vec![
        (
            "table2-grass-grid",
            grass.source,
            8,
            Interval::new(0.5, 1.5),
            2.0,
        ),
        ("fig6a-grid", fig6a.source, 8, Interval::REAL, 0.0),
    ];
    for (name, source, unfold, u, min_ratio) in entries {
        let measure = |refine: bool| {
            let mut o = AnalysisOptions {
                sym: SymExecOptions {
                    max_fix_unfoldings: unfold,
                    ..run.opts.sym
                },
                method: Method::Grid,
                ..run.opts
            };
            o.bounds.splits = 24;
            o.bounds.region_budget = 400_000;
            o.refine = refine;
            o.gap_target = 0.0;
            o.max_refine_depth = 40;
            let a = Analyzer::from_source(source, o).expect("zoo model compiles");
            let t0 = Instant::now();
            let (lo, hi) = a.denotation_bounds(u);
            (lo, hi, t0.elapsed().as_secs_f64())
        };
        push_row(name, measure(false), measure(true), min_ratio);
    }
    // Dominant-path rows: the single terminated symbolic path with the
    // most sample dimensions, bounded through the grid semantics in
    // both modes (uniform `bound_path_grid_only_threaded` vs one
    // `GridRefiner`), so the row measures the refinement engine itself
    // — not path enumeration and not the linear semantics.
    //
    // The pedestrian row carries no ratio floor: its walk is closed off
    // by `approxFix`, so the dominant path's score ranges over an
    // interval containing ⊤ contributions that no amount of cell
    // refinement can shrink — the row records the honest gap-per-second
    // on the paper's headline model. The noisyOr row is the enforced
    // dominant-path witness: its gap lives entirely on branch-threshold
    // faces, which the worklist resolves far past the uniform grid.
    let noisy_or = models::table2()
        .into_iter()
        .find(|b| b.name == "noisyOr")
        .expect("noisyOr is in table2");
    let path_rows: Vec<(&str, &str, u32, usize, Interval, f64)> = vec![
        (
            "noisyor-dominant-path",
            noisy_or.source,
            8,
            20,
            Interval::new(0.5, 1.5),
            2.0,
        ),
        (
            "pedestrian-dominant-path",
            models::PEDESTRIAN,
            2,
            12,
            Interval::new(1.0, 1.25),
            0.0,
        ),
    ];
    let width = run.opts.threads.worker_count(usize::MAX);
    for (name, source, unfold, splits, u, min_ratio) in path_rows {
        let a = Analyzer::from_source(
            source,
            AnalysisOptions {
                sym: SymExecOptions {
                    max_fix_unfoldings: unfold,
                    ..run.opts.sym
                },
                ..run.opts
            },
        )
        .expect("zoo model compiles");
        let dominant = a
            .paths()
            .iter()
            .filter(|p| !p.budget_truncated)
            .max_by_key(|p| p.n_samples)
            .expect("model has terminated paths")
            .clone();
        let bopts = PathBoundOptions {
            splits,
            region_budget: 400_000,
            ..run.opts.bounds
        };
        let t0 = Instant::now();
        let mut sink = SingleQuery::new(u);
        bound_path_grid_only_threaded(&dominant, bopts, run.opts.threads, &mut sink);
        let ut = t0.elapsed().as_secs_f64();
        let tailed = tail_substituted(&dominant, &bopts);
        let path = tailed.as_ref().unwrap_or(&dominant);
        let refine = RefineOptions {
            refine: true,
            gap_target: 0.0,
            max_refine_depth: 40,
        };
        let t0 = Instant::now();
        let mut refiners = vec![
            GridRefiner::new(path, QueryFold::Filter(u), bopts, &refine, None)
                .expect("the dominant path is grid-refinable"),
        ];
        let b = run_adaptive_refinement(WorkerPool::global(), width, &mut refiners, 0.0);
        let at = t0.elapsed().as_secs_f64();
        push_row(
            name,
            (sink.lo, sink.hi, ut),
            (b[0].0, b[0].1, at),
            min_ratio,
        );
    }
    let json = format!(
        "{{\n  \"bench\": \"gap\",\n  \"workloads\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = "BENCH_gap.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    println!();
}

/// `--stats`: per-path cache, persistent-pool and compiled-kernel
/// counters for the run.
fn stats(run: &Run, elapsed_s: f64) {
    let cache = &run.cache;
    let s = cache.stats();
    println!("== Run statistics ====================================================");
    let cap = match cache.capacity() {
        Some(cap) => format!("{cap}"),
        None => "unbounded".to_owned(),
    };
    println!(
        "cache: {} hits, {} misses, {} evictions, {} entries resident (cap {cap})",
        s.hits,
        s.misses,
        s.evictions,
        cache.entry_count()
    );
    if let Some((timed, degraded, minc)) = run.deadline_report() {
        let verdict = if degraded == 0 {
            "complete"
        } else {
            "degraded"
        };
        println!(
            "deadline: {timed} timed queries, {degraded} degraded ({verdict}), \
             min completeness {minc:.3}"
        );
    }
    let p = WorkerPool::global().stats();
    println!(
        "pool:  {} workers spawned, {} dispatches, {} inline runs, last chunk width {}",
        p.spawned_workers, p.dispatches, p.inline_runs, p.last_chunk_width
    );
    if p.refine_rounds == 0 {
        println!("refine: no adaptive rounds (uniform sweeps only; see --no-refine)");
    } else {
        println!(
            "refine: {} adaptive rounds, {} cell splits, last query gap {:.6}",
            p.refine_rounds,
            p.refine_splits,
            p.last_refine_gap()
        );
    }
    println!(
        "tasks: {} path, {} region chunks; steals: {} path, {} region; forks: {} pooled, {} inline",
        p.path_tasks,
        p.region_tasks,
        p.path_steals,
        p.region_steals,
        p.forks_parallel,
        p.forks_inline
    );
    let r = run.exec_report();
    println!(
        "prune: {} dead branches skipped, {} zero-score continuations dropped",
        r.pruned_branches, r.zero_score_drops
    );
    // Three-way ⊤ census: ranked ⊆ tail-enclosed ⊆ budget-truncated,
    // so the plain-tail and bare-⊤ counts are the set differences.
    println!(
        "trunc: {} budget-truncated (top) paths ({} with eventually-geometric tails, \
         {} with plain geometric tails, {} bare ⊤), {} approxFix-depth-truncated paths",
        r.budget_truncated_paths,
        r.ranked_tail_paths,
        r.tail_enclosed_paths.saturating_sub(r.ranked_tail_paths),
        r.budget_truncated_paths
            .saturating_sub(r.tail_enclosed_paths),
        r.depth_truncated_paths
    );
    let k = gubpi_symbolic::kernel_stats();
    if k.tapes == 0 {
        println!("kernel: disabled (tree-walking interpreter; --no-kernel)");
    } else {
        let saved = k.tree_nodes.saturating_sub(k.tape_instrs);
        let pct = if k.tree_nodes > 0 {
            100.0 * saved as f64 / k.tree_nodes as f64
        } else {
            0.0
        };
        println!(
            "kernel: {} tapes, {} instrs (CSE + folding saved {} of {} tree ops, {:.1}%), \
             {} cells at {:.0} cells/s over the whole run",
            k.tapes,
            k.tape_instrs,
            saved,
            k.tree_nodes,
            pct,
            k.cells,
            k.cells as f64 / elapsed_s.max(1e-9),
        );
        println!(
            "seed:  {} of {} tapes compiled from a static constant pool, \
             {} constant slots preloaded",
            k.seeded_tapes, k.tapes, k.seed_const_hits
        );
    }
}

/// `smoke`: one tiny model end to end — seconds even in debug builds,
/// so `repro [--no-kernel] --stats smoke` is the cheapest way to check
/// an installation (and whether the compiled kernel is active).
fn smoke(run: &mut Run) {
    println!("== Smoke: one tiny model end to end ==================================");
    let src = "let x = sample in let y = sample in score(x + y); if x * y <= 0.25 then x else y";
    let a = run.analyzer(src, run.opts);
    let (lo, hi) = run.denotation_bounds(&a, Interval::new(0.0, 0.5));
    println!(
        "{} paths; unnormalised mass of [0, 0.5] in [{lo:.5}, {hi:.5}]",
        a.paths().len()
    );
    assert!(lo <= hi && hi > 0.0, "smoke bounds must be non-trivial");
    println!();
}

/// Maps every typed query failure onto its own documented exit code, in
/// a sysexits-style range clear of the generic codes (0 ok, 1 denied
/// warnings, 2 usage): 64 invalid-interval, 65 invalid-domain, 66
/// no-bins, 67 deadline-exceeded, 68 worker-panicked, 69 overloaded. A
/// panic that reaches `main` exits 70 (see `main`).
fn query_error_exit(e: QueryError) -> i32 {
    match e {
        QueryError::InvalidInterval { .. } => 64,
        QueryError::InvalidDomain { .. } => 65,
        QueryError::NoBins => 66,
        QueryError::DeadlineExceeded => 67,
        QueryError::WorkerPanicked => 68,
        QueryError::Overloaded => 69,
    }
}

/// `query MODEL|SOURCE LO HI [--posterior]` — one query against a
/// catalog model (by label) or inline SPCF source, with every failure
/// mapped to a typed exit code (`query_error_exit`). The endpoints are
/// parsed leniently — a malformed number becomes `NaN` so the
/// analyzer's own validation rejects it as `InvalidInterval`: the audit
/// wants every bad input to flow through `QueryError`, not ad-hoc CLI
/// checks. Honours `--timeout-ms` (degraded
/// results print their completeness; a deadline that expired before any
/// work starts is the one case reported as an error, exit 67).
fn query_cmd(run: &mut Run, rest: &[String]) -> i32 {
    let mut rest: Vec<&str> = rest.iter().map(String::as_str).collect();
    let posterior = if let Some(i) = rest.iter().position(|a| *a == "--posterior") {
        rest.remove(i);
        true
    } else {
        false
    };
    let [target, lo_s, hi_s] = rest[..] else {
        eprintln!("usage: repro [--timeout-ms N] query MODEL|SOURCE LO HI [--posterior]");
        return 2;
    };
    let catalog = models::catalog();
    let source = catalog
        .iter()
        .find(|(label, _)| label.as_str() == target)
        .map(|(_, src)| *src)
        .unwrap_or(target);
    let lo = lo_s.trim().parse::<f64>().unwrap_or(f64::NAN);
    let hi = hi_s.trim().parse::<f64>().unwrap_or(f64::NAN);
    let program = match gubpi_lang::parse(source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("repro query: `{target}` is not a catalog label and does not parse: {e}");
            return 2;
        }
    };
    let token = run.deadline.clone();
    let token = token.as_ref();
    if token.is_some_and(|t| t.is_cancelled()) {
        eprintln!("repro query: {}", QueryError::DeadlineExceeded);
        return query_error_exit(QueryError::DeadlineExceeded);
    }
    // Panic containment at the query boundary, mirroring the serving
    // daemon: a worker panic becomes the typed `WorkerPanicked` exit,
    // not an unwind into `main`.
    let computed = catch_unwind(AssertUnwindSafe(
        || -> Result<Result<QueryOutcome, QueryError>, String> {
            let a = Analyzer::from_program_cancellable(
                program,
                run.opts,
                &run.cache,
                WorkerPool::global(),
                token,
            )
            .map_err(|e| e.to_string())?;
            Ok(if posterior {
                a.try_posterior_outcome(lo, hi, token)
            } else {
                a.try_denotation_outcome(lo, hi, token)
            })
        },
    ));
    match computed {
        Err(_) => {
            eprintln!("repro query: {}", QueryError::WorkerPanicked);
            query_error_exit(QueryError::WorkerPanicked)
        }
        Ok(Err(msg)) => {
            eprintln!("repro query: {msg}");
            2
        }
        Ok(Ok(Err(e))) => {
            eprintln!("repro query: {e}");
            query_error_exit(e)
        }
        Ok(Ok(Ok(o))) => {
            if token.is_some() {
                run.note_outcome(&o);
            }
            println!(
                "{} of [{lo}, {hi}]: [{:.6}, {:.6}] ({}, completeness {:.3})",
                if posterior {
                    "posterior probability"
                } else {
                    "unnormalised mass"
                },
                o.lo,
                o.hi,
                if o.degraded { "degraded" } else { "complete" },
                o.completeness
            );
            0
        }
    }
}

/// `serve-report`: an in-process robustness exercise of the serving
/// daemon under a mixed workload — sequential small queries (latency
/// census), one over-budget query under a tiny deadline (must come back
/// *degraded but sound*, never torn), an admission-control probe
/// against `max_inflight`, and one injected worker panic (the daemon
/// must answer `worker_panicked` and stay serviceable). Writes the
/// `BENCH_serve.json` snapshot to the working directory; any
/// unsound or torn response aborts the run.
fn serve_report(run: &Run) {
    println!("== Serve report: daemon robustness under mixed workload ==============");
    let handle = start_with_cache(
        ServeConfig {
            max_inflight: 2,
            ..ServeConfig::default()
        },
        run.cache.clone(),
    )
    .expect("serve-report: bind 127.0.0.1:0");
    let addr = handle.local_addr();
    let check = |o: &QueryOutcome| {
        assert!(o.lo <= o.hi, "torn bound [{}, {}]", o.lo, o.hi);
        assert!(
            (0.0..=1.0).contains(&o.completeness),
            "completeness {} outside [0, 1]",
            o.completeness
        );
    };
    let small_src =
        "let x = sample in let y = sample in score(x + y); if x * y <= 0.25 then x else y";
    let small = |kind: QueryKind| QueryRequest {
        kind,
        source: small_src.to_string(),
        lo: 0.0,
        hi: 0.5,
        timeout_ms: None,
        region_budget: None,
    };

    // Latency census: sequential small queries, alternating kinds.
    let mut client = Client::connect(addr).expect("serve-report: connect");
    let mut lat_ms: Vec<f64> = Vec::new();
    for i in 0..24u32 {
        let kind = if i % 2 == 0 {
            QueryKind::Denotation
        } else {
            QueryKind::Posterior
        };
        let t0 = Instant::now();
        let o = client
            .query(small(kind))
            .expect("serve-report: transport")
            .expect("serve-report: small query must succeed");
        lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        check(&o);
        assert!(!o.degraded, "undeadlined small query must not degrade");
    }
    lat_ms.sort_by(f64::total_cmp);
    let pct = |p: f64| lat_ms[((lat_ms.len() - 1) as f64 * p).round() as usize];
    let (p50, p99) = (pct(0.50), pct(0.99));

    // Over-budget query: the pedestrian at the server's default options
    // runs far past a 5 ms deadline, so the reply must be the anytime
    // degraded enclosure — still a guaranteed superset of the true
    // posterior probability, which the Monte-Carlo estimate probes.
    let heavy = |timeout_ms: Option<u64>| QueryRequest {
        kind: QueryKind::Posterior,
        source: models::PEDESTRIAN.to_string(),
        lo: 1.0,
        hi: 1.25,
        timeout_ms,
        region_budget: None,
    };
    let o = client
        .query(heavy(Some(5)))
        .expect("serve-report: transport")
        .expect("serve-report: deadline must degrade, not fail");
    check(&o);
    assert!(o.degraded, "5 ms pedestrian query must be degraded");
    let mc = mc_probability(models::PEDESTRIAN, Interval::new(1.0, 1.25), 20_000, 77);
    assert!(
        o.lo - 0.01 <= mc && mc <= o.hi + 0.01,
        "degraded bounds [{}, {}] exclude the MC estimate {mc}",
        o.lo,
        o.hi
    );
    let min_completeness = o.completeness;
    println!(
        "deadline: degraded pedestrian reply [{:.4}, {:.4}], completeness {:.3}, \
         contains MC {mc:.4}",
        o.lo, o.hi, min_completeness
    );

    // Admission control: occupy both inflight slots with deadlined
    // heavy queries, then probe from a third connection while they run.
    // A 400 ms deadline keeps each slot busy long enough that at least
    // one probe inside the window must be rejected.
    let occupiers: Vec<_> = (0..2)
        .map(|_| {
            let req = heavy(Some(400));
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("serve-report: connect");
                c.query(req).expect("serve-report: transport")
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(100));
    let mut overloaded_seen = 0u64;
    for _ in 0..10 {
        match client.query(small(QueryKind::Denotation)) {
            Ok(Ok(o)) => check(&o),
            Ok(Err(e)) => {
                assert_eq!(e.code, "overloaded", "unexpected rejection: {e:?}");
                overloaded_seen += 1;
            }
            Err(e) => panic!("serve-report: transport: {e}"),
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    for t in occupiers {
        let o = t
            .join()
            .expect("occupier thread")
            .expect("deadlined heavy query must degrade, not fail");
        check(&o);
    }
    assert!(
        overloaded_seen > 0,
        "admission control never rejected while both slots were held"
    );
    println!("admission: {overloaded_seen} of 10 probes rejected while both slots were busy");

    // Injected panic: the very next task boundary is this request's
    // entry hook, so the fault fires inside the daemon's catch_unwind.
    // The reply must be the typed error and the daemon must keep
    // serving afterwards.
    set_fault_plan(Some(FaultPlan {
        kind: FaultKind::Panic,
        at: 0,
    }));
    let panicked = client
        .query(small(QueryKind::Denotation))
        .expect("serve-report: transport");
    set_fault_plan(None);
    let err = panicked.expect_err("injected panic must yield a typed error");
    assert_eq!(err.code, "worker_panicked", "got {err:?}");
    let o = client
        .query(small(QueryKind::Denotation))
        .expect("serve-report: transport")
        .expect("daemon must stay serviceable after a contained panic");
    check(&o);
    println!(
        "panic: injected panic contained ({}), daemon still serving",
        err.code
    );

    let s = handle.stats();
    handle.shutdown();
    println!(
        "served {} (degraded {}), overloaded {}, deadline-exceeded {}, panics {}, \
         p50 {p50:.2} ms, p99 {p99:.2} ms",
        s.served, s.degraded, s.overloaded, s.deadline_exceeded, s.panics
    );
    assert_eq!(s.panics, 1, "exactly the injected panic");
    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"small_queries\": {},\n  \"p50_ms\": {},\n  \
         \"p99_ms\": {},\n  \"served\": {},\n  \"degraded_queries\": {},\n  \
         \"overloaded\": {},\n  \"deadline_exceeded\": {},\n  \"panics\": {},\n  \
         \"errors\": {},\n  \"min_completeness\": {}\n}}\n",
        lat_ms.len(),
        json_num(p50),
        json_num(p99),
        s.served,
        s.degraded,
        s.overloaded,
        s.deadline_exceeded,
        s.panics,
        s.errors,
        json_num(min_completeness),
    );
    let path = "BENCH_serve.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    println!();
}

/// Table 1 / Table 4: per-query bounds and times, baseline vs GuBPI,
/// with a Monte-Carlo cross-check column.
fn table1(run: &mut Run) {
    println!("== Table 1 / Table 4: probability estimation =========================");
    println!(
        "{:<14} {:<22} {:>8} {:>19} {:>8} {:>19} {:>8}",
        "program", "query", "t[56]", "result [56]", "tGuBPI", "result GuBPI", "MC"
    );
    for b in models::table1() {
        let t0 = Instant::now();
        let base = baseline56_bounds(b.source, b.u, Default::default());
        let t_base = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let (lo, hi) = run.prob_benchmark(&b);
        let t_gubpi = t1.elapsed().as_secs_f64();
        let mc = mc_probability(b.source, b.u, 30_000, 12345);
        let base_str = match base {
            Ok((bl, bh)) => format!("[{bl:.4}, {bh:.4}]"),
            Err(_) => "(rejected)".to_owned(),
        };
        println!(
            "{:<14} {:<22} {:>7.2}s {:>19} {:>7.2}s [{:.4}, {:.4}] {:>8.4}",
            b.name, b.query_label, t_base, base_str, t_gubpi, lo, hi, mc
        );
    }
    println!();
}

/// Table 2: discrete models — GuBPI bounds vs exact rational posteriors.
fn table2(run: &mut Run) {
    println!("== Table 2: discrete models vs exact posterior =======================");
    println!(
        "{:<16} {:>16} {:>25} {:>9} {:>6}",
        "instance", "exact", "GuBPI bounds", "t", "tight"
    );
    for b in models::table2() {
        let exact = b.exact.0 as f64 / b.exact.1 as f64;
        let t0 = Instant::now();
        let opts = AnalysisOptions {
            sym: SymExecOptions {
                max_fix_unfoldings: 8,
                ..run.opts.sym
            },
            ..run.opts
        };
        let a = run.analyzer(b.source, opts);
        let (lo, hi) = run.posterior_probability(&a, Interval::new(0.5, 1.5));
        let t = t0.elapsed().as_secs_f64();
        let tight = if hi - lo < 1e-3 { "yes" } else { "~" };
        println!(
            "{:<16} {:>7}={:.4} [{:.6}, {:.6}] {:>8.2}s {:>6}",
            b.name,
            format!("{}/{}", b.exact.0, b.exact.1),
            exact,
            lo,
            hi,
            t,
            tight
        );
        assert!(
            lo <= exact + 1e-9 && exact <= hi + 1e-9,
            "{}: exact {exact} outside [{lo}, {hi}]",
            b.name
        );
    }
    println!();
}

/// Table 3: running time of GuBPI bounds vs SBC on the same model.
fn table3(run: &mut Run) {
    println!("== Table 3: GuBPI vs simulation-based calibration ====================");
    // Binary GMM (1-dimensional).
    let fig5_models = models::figure5();
    let gmm = &fig5_models[2];
    let t0 = Instant::now();
    let a = run.figure_analyzer(gmm);
    let h = a.histogram(gmm.domain, gmm.bins);
    let (zlo, zhi) = h.z_bounds();
    let t_gubpi = t0.elapsed().as_secs_f64();
    println!("Binary GMM: GuBPI {t_gubpi:.2}s (Z in [{zlo:.4}, {zhi:.4}])");

    // SBC for an importance sampler on a conjugate-style model.
    let t1 = Instant::now();
    let mut rng = StdRng::seed_from_u64(99);
    let cfg = SbcConfig {
        simulations: 200,
        posterior_samples: 31,
        bins: 8,
    };
    let r = run_sbc(
        |rng| rng.random::<f64>(),
        |theta, rng| theta + (rng.random::<f64>() - 0.5) * 0.2,
        |y, l, rng| {
            // Posterior sampling by importance resampling on the program.
            let lo = (y - 0.1).max(0.0);
            let hi = (y + 0.1).min(1.0);
            if hi <= lo {
                return Vec::new();
            }
            let src = format!("let t = sample in observe t from uniform({lo}, {hi}); t");
            let p = gubpi_lang::parse(&src).expect("model parses");
            let ws = importance_sample(&p, 4 * l, ImportanceOptions::default(), rng);
            systematic_resample(&ws, l)
        },
        cfg,
        &mut rng,
    );
    let t_sbc = t1.elapsed().as_secs_f64();
    println!(
        "SBC (importance sampler): {t_sbc:.2}s, chi2 = {:.2}, p = {:.3} ({})",
        r.chi2,
        r.p_value,
        if r.is_miscalibrated() {
            "MISCALIBRATED"
        } else {
            "calibrated"
        }
    );
    println!();
}

/// Systematic resampling of a weighted sample set.
fn systematic_resample(ws: &gubpi_inference::WeightedSamples, l: usize) -> Vec<f64> {
    let max_lw = ws
        .log_weights
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    if !max_lw.is_finite() {
        return Vec::new();
    }
    let weights: Vec<f64> = ws
        .log_weights
        .iter()
        .map(|lw| (lw - max_lw).exp())
        .collect();
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(l);
    for k in 0..l {
        let target = (k as f64 + 0.5) / l as f64 * total;
        let mut acc = 0.0;
        for (v, w) in ws.values.iter().zip(&weights) {
            acc += w;
            if acc >= target {
                out.push(*v);
                break;
            }
        }
    }
    out
}

/// Fig. 1 / Fig. 7: pedestrian — GuBPI bounds, IS histogram, wrong HMC.
fn pedestrian(run: &mut Run) {
    println!("== Fig. 1 / Fig. 7: the pedestrian example ===========================");
    let src = models::PEDESTRIAN;
    let domain = Interval::new(0.0, 3.0);
    let bins = 12;

    let t0 = Instant::now();
    let mut opts = AnalysisOptions {
        sym: SymExecOptions {
            max_fix_unfoldings: 5,
            ..run.opts.sym
        },
        ..run.opts
    };
    opts.bounds.splits = 16;
    let a = run.analyzer(src, opts);
    let h = a.histogram(domain, bins);
    println!(
        "GuBPI bounds ({} paths, {:.1}s):",
        a.paths().len(),
        t0.elapsed().as_secs_f64()
    );
    print!("{}", render_histogram(&h, 40));

    // Importance sampling (the *correct* stochastic answer).
    let program = gubpi_lang::parse(src).expect("pedestrian parses");
    let mut rng = StdRng::seed_from_u64(4);
    let is = importance_sample(&program, 30_000, ImportanceOptions::default(), &mut rng);
    let is_hist = is.histogram(domain.lo(), domain.hi(), bins);

    // Fixed-truncation HMC (the *wrong* answer of Fig. 1).
    let mut rng = StdRng::seed_from_u64(5);
    let hmc = hmc_sample(
        &program,
        1_500,
        HmcOptions {
            dim: 9,
            step_size: 0.12,
            leapfrog_steps: 8,
            burn_in: 150,
            ..Default::default()
        },
        &mut rng,
    );
    let mut hmc_hist = vec![0.0f64; bins];
    for v in &hmc.values {
        if *v >= domain.lo() && *v < domain.hi() {
            let b = (((v - domain.lo()) / domain.width()) * bins as f64) as usize;
            hmc_hist[b.min(bins - 1)] += 1.0;
        }
    }
    let total: f64 = hmc_hist.iter().sum::<f64>().max(1.0);
    for x in &mut hmc_hist {
        *x /= total;
    }

    println!(
        "\n{:<16} {:>21} {:>8} {:>8} {:>9}",
        "bin", "GuBPI", "IS", "HMC", "HMC ok?"
    );
    let norm = h.normalized();
    let mut is_viol = 0;
    let mut hmc_viol = 0;
    for (i, nb) in norm.iter().enumerate() {
        // 0.002 of slack absorbs Monte-Carlo noise in the samplers'
        // histograms without masking genuine violations.
        let ok_is = is_hist[i] >= nb.lo - 0.002 && is_hist[i] <= nb.hi + 0.002;
        let ok_hmc = hmc_hist[i] >= nb.lo - 0.002 && hmc_hist[i] <= nb.hi + 0.002;
        if !ok_is {
            is_viol += 1;
        }
        if !ok_hmc {
            hmc_viol += 1;
        }
        println!(
            "[{:5.2}, {:5.2})  [{:.4}, {:.4}] {:>8.4} {:>8.4} {:>9}",
            nb.bin.lo(),
            nb.bin.hi(),
            nb.lo,
            nb.hi,
            is_hist[i],
            hmc_hist[i],
            if ok_hmc { "ok" } else { "VIOLATES" }
        );
    }
    println!(
        "\nIS violates {is_viol} bins; fixed-truncation HMC violates {hmc_viol} bins \
         (the Fig. 1 separation)."
    );
    println!();
}

/// Fig. 5: non-recursive models.
fn fig5(run: &mut Run) {
    println!("== Fig. 5: guaranteed bounds for non-recursive models ================");
    for b in models::figure5() {
        run_figure(run, &b);
    }
}

/// Fig. 6: recursive models.
fn fig6(run: &mut Run) {
    println!("== Fig. 6: guaranteed bounds for recursive models ====================");
    for b in models::figure6() {
        run_figure(run, &b);
    }
}

fn run_figure(run: &mut Run, b: &models::FigureBenchmark) {
    let t0 = Instant::now();
    let a = run.figure_analyzer(b);
    let h = a.histogram(b.domain, b.bins);
    let t = t0.elapsed().as_secs_f64();
    println!(
        "-- Fig. {} ({}) — {} paths, {:.1}s",
        b.id,
        b.description,
        a.paths().len(),
        t
    );
    print!("{}", render_histogram(&h, 40));
    println!();
}

/// Ablations: linear vs grid semantics; depth sweep on the pedestrian.
fn ablation(run: &mut Run) {
    println!("== Ablation: linear (§6.4) vs grid (§6.3) semantics ==================");
    let src = "let x = sample in let y = sample in score(x + y); x";
    for (label, method) in [("linear", Method::Auto), ("grid", Method::Grid)] {
        let t0 = Instant::now();
        let a = run.analyzer(src, AnalysisOptions { method, ..run.opts });
        let (lo, hi) = run.denotation_bounds(&a, Interval::new(0.0, 0.5));
        println!(
            "{label:>7}: [{lo:.5}, {hi:.5}] width {:.5} in {:.2}s",
            hi - lo,
            t0.elapsed().as_secs_f64()
        );
    }

    println!("\n== Ablation: unfolding depth vs tightness (pedestrian Z bounds) =====");
    for depth in [2u32, 3, 4, 5] {
        let t0 = Instant::now();
        let mut opts = AnalysisOptions {
            sym: SymExecOptions {
                max_fix_unfoldings: depth,
                ..run.opts.sym
            },
            ..run.opts
        };
        opts.bounds.splits = 16;
        let a = run.analyzer(models::PEDESTRIAN, opts);
        let (zlo, zhi) = a.normalizing_constant();
        println!(
            "depth {depth}: Z in [{zlo:.4}, {zhi:.4}] ({} paths, {:.1}s)",
            a.paths().len(),
            t0.elapsed().as_secs_f64()
        );
    }
    println!();
}
