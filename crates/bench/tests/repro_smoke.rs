//! Smoke tests for the workspace wiring: the `repro` binary must start,
//! answer `--help`, and a tiny model must run end to end through the
//! same harness entry point the benches use. This is the canary that
//! keeps the binary, the bench harness and the analyzer linked together.

use std::process::Command;

use bench::models::ProbBenchmark;
use bench::Run;
use gubpi_interval::Interval;

/// Path to the compiled `repro` binary (provided by Cargo for
/// integration tests of the package that owns the binary).
const REPRO: &str = env!("CARGO_BIN_EXE_repro");

#[test]
fn repro_help_exits_zero_and_prints_usage() {
    let out = Command::new(REPRO)
        .arg("--help")
        .output()
        .expect("repro binary runs");
    assert!(out.status.success(), "--help must exit 0: {:?}", out.status);
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in ["USAGE", "table1", "pedestrian", "ablation", "all"] {
        assert!(
            text.contains(needle),
            "usage text missing {needle:?}:\n{text}"
        );
    }
}

#[test]
fn repro_rejects_unknown_commands() {
    let out = Command::new(REPRO)
        .arg("no-such-table")
        .output()
        .expect("repro binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"), "stderr: {err}");
}

#[test]
fn repro_rejects_zero_threads() {
    // Regression: `--threads 0` used to be accepted as Fixed(0) and
    // silently clamped to one sequential worker. It must now be a hard
    // usage error pointing at `off`.
    let out = Command::new(REPRO)
        .args(["--threads", "0", "table2"])
        .output()
        .expect("repro binary runs");
    assert_eq!(out.status.code(), Some(2), "zero workers must be rejected");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("positive worker count") && err.contains("`off`"),
        "stderr must explain the fix: {err}"
    );
}

#[test]
fn tiny_model_end_to_end() {
    // The smallest interesting model: a uniform prior scored to the
    // upper half. The unnormalised mass of [0.5, 1] is exactly 1/2, and
    // the analyzer's guaranteed bounds must bracket it.
    let b = ProbBenchmark {
        name: "smoke",
        query_label: "x in [0.5, 1]",
        source: "let x = sample in score(if x <= 0.5 then 0 else 1); x",
        u: Interval::new(0.5, 1.0),
        unfold: 2,
    };
    let (lo, hi) = Run::default().prob_benchmark(&b);
    assert!(
        lo <= 0.5 && 0.5 <= hi,
        "bounds [{lo}, {hi}] must contain 0.5"
    );
    assert!(lo >= 0.0 && hi <= 1.0, "weights are a sub-probability here");
    assert!(hi - lo < 0.45, "bounds [{lo}, {hi}] should be informative");
}

#[test]
fn repro_rejects_invalid_cache_caps() {
    // `--cache-cap 0` would be a cache that evicts every insert
    // immediately; like `--threads 0` it must be a hard usage error, as
    // must non-numeric caps. Both exit before any analysis starts.
    for bad in ["0", "lots"] {
        let out = Command::new(REPRO)
            .args(["--cache-cap", bad, "table2"])
            .output()
            .expect("repro binary runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "--cache-cap {bad} must be rejected"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("positive entry count"),
            "stderr must explain the fix: {err}"
        );
    }
    // A missing value is also a usage error, not a silent default.
    let out = Command::new(REPRO)
        .arg("--cache-cap")
        .output()
        .expect("repro binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn repro_help_documents_the_new_flags() {
    let out = Command::new(REPRO)
        .arg("--help")
        .output()
        .expect("repro binary runs");
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "--cache-cap",
        "--stats",
        "--no-kernel",
        "--no-prune",
        "--lint",
        "--deny-warnings",
        "analyze",
        "prune-report",
    ] {
        assert!(text.contains(needle), "usage text missing {needle:?}");
    }
}

#[test]
fn repro_analyze_is_warning_clean_over_all_builtin_models() {
    // The CI lint gate: every built-in model must stay free of
    // warning-severity findings (notes are expected — the recursive
    // models deliberately lack weight contraction).
    let out = Command::new(REPRO)
        .args(["analyze", "--deny-warnings"])
        .output()
        .expect("repro binary runs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "analyze --deny-warnings must exit 0:\n{text}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        text.contains("models analyzed") && text.contains("0 warnings"),
        "analyze must print a warning-free summary:\n{text}"
    );
    // The static facts must actually see through the models: the
    // fail-conditioned discrete models have statically-dead score zeros.
    assert!(
        text.contains("table2/twoCoins: 1 dead branches, 1 zero-weight scores"),
        "facts summary missing:\n{text}"
    );
}

#[test]
fn repro_analyze_filters_and_rejects_unknown_models() {
    let out = Command::new(REPRO)
        .args(["analyze", "pedestrian"])
        .output()
        .expect("repro binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("1 models analyzed"),
        "filter must match exactly the pedestrian:\n{text}"
    );
    assert!(
        text.contains("truncation-risk-recursion"),
        "the pedestrian's recursion note must render:\n{text}"
    );
    let out = Command::new(REPRO)
        .args(["analyze", "no-such-model"])
        .output()
        .expect("repro binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "unknown model filter is a usage error"
    );
}

#[test]
fn repro_no_prune_and_stats_report_prune_counters() {
    // `--no-prune --stats smoke` must run and report zero prune activity;
    // the counters line must be present either way.
    let out = Command::new(REPRO)
        .args(["--no-prune", "--stats", "smoke"])
        .output()
        .expect("repro binary runs");
    assert!(out.status.success(), "status: {:?}", out.status);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("prune: 0 dead branches skipped"),
        "--no-prune must zero the prune counters:\n{text}"
    );
    assert!(
        text.contains("seed:") && text.contains("constant slots preloaded"),
        "stats must report kernel seeding:\n{text}"
    );
}

#[test]
fn repro_accepts_no_kernel_and_reports_kernel_stats() {
    // `--no-kernel` must be accepted anywhere in the argument list (it
    // is stripped before command dispatch) ...
    let out = Command::new(REPRO)
        .args(["--no-kernel", "--help"])
        .output()
        .expect("repro binary runs");
    assert!(out.status.success(), "--no-kernel --help must exit 0");
    // ... and force the tree-walking interpreter: the kernel line of
    // `--stats` reports it disabled after a real (tiny) analysis run.
    let out = Command::new(REPRO)
        .args(["--no-kernel", "--stats", "smoke"])
        .output()
        .expect("repro binary runs");
    assert!(out.status.success(), "status: {:?}", out.status);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("kernel: disabled"),
        "stats must report the interpreter fallback:\n{text}"
    );
    // With the kernel on, the same command reports tape statistics.
    // Flags are the only switch: an inherited `GUBPI_NO_KERNEL` (the
    // removed environment mirror of `--no-kernel`) must not turn it off.
    for env in [None, Some(("GUBPI_NO_KERNEL", "1"))] {
        let mut cmd = Command::new(REPRO);
        cmd.args(["--stats", "smoke"]);
        if let Some((key, value)) = env {
            cmd.env(key, value);
        }
        let out = cmd.output().expect("repro binary runs");
        assert!(out.status.success());
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            text.contains("kernel:") && text.contains("tapes") && text.contains("cells/s"),
            "stats must report tape length / CSE / cells-per-second (env {env:?}):\n{text}"
        );
    }
}
