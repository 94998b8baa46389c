//! `loadgen` — end-to-end and per-layer benchmark of the gcco serving
//! path: `gcco-router` → `gcco-serve` → `Engine` → `gcco-store`.
//!
//! ```text
//! loadgen [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` (the default) measures the end-to-end metrics with no
//! tracing; `--trace 1` is the separate traced run that gives the
//! per-layer metrics. Without `--workload`, every workload runs in turn.
//! Run from the repository root after
//! `cargo build --release -p gcco-api -p gcco-router --bins`; the cluster
//! binaries are taken from `$CARGO_TARGET_DIR/release` (default
//! `target/release`). Each workload prints its metrics and, as its last
//! line, one JSON object `{"correct","attempted","failed","metrics"}`;
//! the exit code is non-zero when any check fails.

mod cluster;
mod gen;
mod report;
mod stats;
mod timed;
mod trace;

use gen::Workload;
use std::path::{Path, PathBuf};
use std::time::SystemTime;

/// What every workload run needs to know.
pub struct Ctx {
    /// Directory holding the release `gcco-serve` and `gcco-router`.
    pub bin_dir: PathBuf,
    /// Scratch stores and trace files.
    pub out_dir: PathBuf,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
}

struct Options {
    trace: bool,
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
}

const USAGE: &str = "usage: loadgen [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n\
                     workloads: hit_cluster hit_single";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        trace: false,
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 30.0,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace needs 0 or 1, got {other}")),
                }
            }
            "--workload" => {
                let name = value()?;
                opts.workloads =
                    vec![Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?];
            }
            "--seed" => {
                opts.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs an unsigned integer".to_string())?;
            }
            "--seconds" => {
                opts.seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| "--seconds needs a positive number".to_string())?;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(opts)
}

fn modified(path: &Path) -> Result<SystemTime, String> {
    std::fs::metadata(path)
        .and_then(|m| m.modified())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Refuses binaries that are missing or older than any source file cargo
/// built them from (the list cargo records in `<binary>.d`).
fn check_binaries(bin_dir: &Path) -> Result<(), String> {
    const BUILD: &str = "cargo build --release -p gcco-api -p gcco-router --bins";
    for name in ["gcco-serve", "gcco-router"] {
        let bin = bin_dir.join(name);
        let built =
            modified(&bin).map_err(|_| format!("{} is missing; run `{BUILD}`", bin.display()))?;
        let depinfo = std::fs::read_to_string(bin.with_extension("d"))
            .map_err(|_| format!("{} has no dep-info file; run `{BUILD}`", bin.display()))?;
        let sources = depinfo.split_once(": ").map_or("", |(_, s)| s);
        for source in sources.replace("\\ ", "\u{0}").split_whitespace() {
            let source = PathBuf::from(source.replace('\u{0}', " "));
            if modified(&source).map_or(true, |m| m > built) {
                return Err(format!(
                    "{} is older than {}; run `{BUILD}`",
                    bin.display(),
                    source.display()
                ));
            }
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("loadgen: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if !Path::new("loadgen/Cargo.toml").is_file() {
        eprintln!("loadgen: run from the repository root (no loadgen/Cargo.toml here)");
        std::process::exit(2);
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let ctx = Ctx {
        bin_dir: PathBuf::from(target).join("release"),
        out_dir: PathBuf::from("loadgen/out"),
        seed: opts.seed,
        seconds: opts.seconds,
    };
    let ready = std::fs::create_dir_all(&ctx.out_dir)
        .map_err(|e| format!("create {}: {e}", ctx.out_dir.display()))
        .and_then(|()| check_binaries(&ctx.bin_dir));
    if let Err(e) = ready {
        eprintln!("loadgen: {e}");
        std::process::exit(1);
    }
    let mut all_correct = true;
    for workload in opts.workloads {
        let result = if opts.trace {
            trace::run(&ctx, workload)
        } else {
            timed::run(&ctx, workload)
        };
        match result {
            Ok(mut report) => {
                let mode = if opts.trace { "traced" } else { "timed" };
                report.print(&format!("{mode} {} seed {}", workload.name(), ctx.seed));
                all_correct &= report.correct();
            }
            Err(e) => {
                eprintln!("loadgen: {}: {e}", workload.name());
                std::process::exit(1);
            }
        }
    }
    std::process::exit(if all_correct { 0 } else { 1 });
}
