//! Process-boundary pins for the four campaign binaries — `campaign`,
//! `mc_campaign`, `optimize` and `baseline_suite`: stdout and report
//! goldens, cold/warm `--store` parity with the expected store-hit
//! counts, `--limit` stop-and-resume, and the argument errors.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const CAMPAIGN: &str = env!("CARGO_BIN_EXE_campaign");
const MC_CAMPAIGN: &str = env!("CARGO_BIN_EXE_mc_campaign");
const OPTIMIZE: &str = env!("CARGO_BIN_EXE_optimize");
const BASELINE_SUITE: &str = env!("CARGO_BIN_EXE_baseline_suite");

/// The smoke arguments each binary is pinned under.
const CAMPAIGN_QUICK: &[&str] = &["--quick", "--workers", "2"];
const QUICK: &[&str] = &["--quick"];

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .env_remove("GCCO_WORKERS")
        .env_remove("GCCO_STORE")
        .output()
        .unwrap_or_else(|e| panic!("{bin}: {e}"))
}

/// Runs `bin`, asserts it exits with `code`, and returns its stdout.
fn stdout(bin: &str, args: &[&str], code: i32) -> String {
    let out = run(bin, args);
    assert_eq!(
        out.status.code(),
        Some(code),
        "{bin} {args:?}:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("binaries print UTF-8")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gcco-campaign-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn path_arg(path: &Path) -> &str {
    path.to_str().expect("UTF-8 temp path")
}

/// The value of the `RESULT {key} = …` line in `stdout`.
fn result<'a>(stdout: &'a str, key: &str) -> &'a str {
    let prefix = format!("RESULT {key} = ");
    stdout
        .lines()
        .find_map(|line| line.strip_prefix(prefix.as_str()))
        .unwrap_or_else(|| panic!("no RESULT {key} line in:\n{stdout}"))
}

/// A successful run with `--report {dir}/{tag}.txt`: its stdout and the
/// report bytes.
fn report_run(bin: &str, args: &[&str], dir: &Path, tag: &str) -> (String, String) {
    let path = dir.join(format!("{tag}.txt"));
    let args = [args, &["--report", path_arg(&path)]].concat();
    let out = stdout(bin, &args, 0);
    let report = std::fs::read_to_string(&path).expect("report written");
    (out, report)
}

/// Stdout of a run without `--report`, and the report of a second run.
fn check_golden(bin: &str, args: &[&str], golden_stdout: &str, golden_report: &str, tag: &str) {
    assert_eq!(stdout(bin, args, 0), golden_stdout, "{tag}: stdout");
    let dir = scratch(tag);
    let (_, report) = report_run(bin, args, &dir, "report");
    assert_eq!(report, golden_report, "{tag}: report bytes");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cold and a warm `--store` run both write the store-less report;
/// returns the warm run's stdout.
fn cold_warm(bin: &str, args: &[&str], tag: &str) -> String {
    let dir = scratch(tag);
    let (_, plain) = report_run(bin, args, &dir, "plain");
    let store = dir.join("store");
    let args = [args, &["--store", path_arg(&store)]].concat();
    let (_, cold) = report_run(bin, &args, &dir, "cold");
    let (warm_out, warm) = report_run(bin, &args, &dir, "warm");
    assert_eq!(cold, plain, "{tag}: a cold store changed the report");
    assert_eq!(warm, plain, "{tag}: a warm store changed the report");
    let _ = std::fs::remove_dir_all(&dir);
    warm_out
}

/// A `--limit` run stops with exit code 3, no report and no store hits;
/// resuming it on the same store writes `golden_report` and replays the
/// `limit` finished requests.
fn limit_and_resume(
    bin: &str,
    limited: &[&str],
    resume: &[&str],
    limit: &str,
    hits_key: &str,
    golden_report: &str,
    tag: &str,
) {
    let dir = scratch(tag);
    let store = dir.join("store");
    let report = dir.join("limited.txt");
    let store_args = ["--store", path_arg(&store)];
    let args = [
        limited,
        &["--limit", limit, "--report", path_arg(&report)],
        &store_args,
    ]
    .concat();
    let out = stdout(bin, &args, 3);
    assert!(!report.exists(), "{tag}: a --limit run wrote a report");
    assert_eq!(result(&out, hits_key), "0", "{tag}: limited run hits");
    let (out, resumed) = report_run(bin, &[resume, &store_args].concat(), &dir, "resumed");
    assert_eq!(resumed, golden_report, "{tag}: resumed report bytes");
    assert_eq!(result(&out, hits_key), limit, "{tag}: resumed run hits");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_quick_output_and_report_are_golden() {
    check_golden(
        CAMPAIGN,
        CAMPAIGN_QUICK,
        include_str!("golden/campaign.txt"),
        include_str!("golden/campaign_report.txt"),
        "campaign-golden",
    );
}

#[test]
fn mc_campaign_quick_output_and_report_are_golden() {
    check_golden(
        MC_CAMPAIGN,
        CAMPAIGN_QUICK,
        include_str!("golden/mc_campaign.txt"),
        include_str!("golden/mc_campaign_report.txt"),
        "mc-golden",
    );
}

#[test]
fn optimize_quick_output_and_report_are_golden() {
    check_golden(
        OPTIMIZE,
        QUICK,
        include_str!("golden/optimize.txt"),
        include_str!("golden/optimize_report.txt"),
        "optimize-golden",
    );
}

#[test]
fn campaign_store_runs_replay_every_corner() {
    let warm = cold_warm(CAMPAIGN, CAMPAIGN_QUICK, "campaign-store");
    assert_eq!(result(&warm, "campaign_store_hits"), "9");
}

#[test]
fn mc_campaign_store_runs_replay_every_cell() {
    let warm = cold_warm(MC_CAMPAIGN, CAMPAIGN_QUICK, "mc-store");
    assert_eq!(result(&warm, "mc_store_hits"), "4");
}

#[test]
fn optimize_store_runs_replay_every_probe() {
    let warm = cold_warm(OPTIMIZE, QUICK, "optimize-store");
    assert_eq!(result(&warm, "opt_probes"), "24");
    assert_eq!(result(&warm, "opt_store_hits"), "24");
}

#[test]
fn baseline_suite_store_runs_replay_every_row() {
    let warm = cold_warm(BASELINE_SUITE, QUICK, "baseline-store");
    assert_eq!(result(&warm, "baseline_store_hits"), "17");
}

#[test]
fn campaign_limit_stops_then_resumes_to_the_reference() {
    limit_and_resume(
        CAMPAIGN,
        &["--quick", "--workers", "1"],
        CAMPAIGN_QUICK,
        "3",
        "campaign_store_hits",
        include_str!("golden/campaign_report.txt"),
        "campaign-limit",
    );
}

#[test]
fn optimize_limit_stops_then_resumes_to_the_reference() {
    limit_and_resume(
        OPTIMIZE,
        QUICK,
        QUICK,
        "5",
        "opt_store_hits",
        include_str!("golden/optimize_report.txt"),
        "optimize-limit",
    );
}

#[test]
fn flags_outside_the_usage_line_exit_2_with_it() {
    for (bin, flag, usage) in [
        (
            OPTIMIZE,
            "--workers",
            "optimize [--store DIR] [--report FILE] [--quick] [--limit N] \
             [--throttle-ms N] [--remote ADDR]",
        ),
        (
            BASELINE_SUITE,
            "--limit",
            "baseline_suite [--store DIR] [--report FILE] [--quick] [--remote ADDR]",
        ),
        (
            CAMPAIGN,
            "--remote",
            "campaign [--store DIR] [--report FILE] [--workers N] [--limit N] \
             [--quick] [--throttle-ms N]",
        ),
        (
            MC_CAMPAIGN,
            "--remote",
            "mc_campaign [--store DIR] [--report FILE] [--workers N] [--limit N] \
             [--quick] [--throttle-ms N]",
        ),
    ] {
        let out = run(bin, &[flag, "1"]);
        let name = usage.split(' ').next().expect("usage names the binary");
        assert_eq!(out.status.code(), Some(2), "{name} {flag}");
        assert!(out.stdout.is_empty(), "{name} {flag} started work");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("{name}: unknown argument \"{flag}\"\nusage: {usage}\n")
        );
    }
}

#[test]
fn bad_flag_values_exit_2_before_any_work() {
    let dir = scratch("bad-values");
    let unused = dir.join("never-created");
    let unused = path_arg(&unused);
    let remote = "127.0.0.1:1";
    for (bin, args) in [
        (CAMPAIGN, &["--workers", "0"][..]),
        (CAMPAIGN, &["--limit", "0"]),
        (MC_CAMPAIGN, &["--limit", "x"]),
        (MC_CAMPAIGN, &["--throttle-ms", "-1"]),
        (OPTIMIZE, &["--store"]),
        (BASELINE_SUITE, &["--report"]),
        (OPTIMIZE, &["--remote", remote, "--store", unused]),
        (OPTIMIZE, &["--remote", remote, "--limit", "2"]),
        (OPTIMIZE, &["--remote", remote, "--throttle-ms", "5"]),
        (BASELINE_SUITE, &["--remote", remote, "--store", unused]),
    ] {
        let out = run(bin, args);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} started work");
        assert!(!out.stderr.is_empty(), "{bin} {args:?} gave no reason");
    }
    assert!(!Path::new(unused).exists(), "a rejected --store was opened");
    let _ = std::fs::remove_dir_all(&dir);
}
