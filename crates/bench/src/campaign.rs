//! The one runner under the campaign binaries — `campaign`,
//! `mc_campaign`, `optimize` and `baseline_suite`.
//!
//! Each binary keeps its own grid or search, request construction,
//! response match, report text and `RESULT` lines. [`Campaign`] owns what
//! they share: the flag parser, the evaluation backend (a local engine
//! with an optional persistent store, or a pooled remote endpoint),
//! `--workers` fan-out, `--throttle-ms`, the `--limit` stop, the
//! store-hit count and the `--report` writer. A binary accepts exactly
//! the flags its usage line names:
//!
//! ```text
//!   --store DIR      attach a persistent gcco-store journal: every
//!                    finished request is journaled under its canonical
//!                    cache key, so a killed run resumes where it stopped
//!                    (journaled requests replay as store hits,
//!                    bit-identically) and the final report is
//!                    byte-identical to an uninterrupted run
//!   --report FILE    write the binary's deterministic report to FILE
//!   --workers N      evaluate N requests at once, each on one engine
//!                    worker (default: GCCO_WORKERS or available
//!                    parallelism); a binary without the flag evaluates one
//!                    request at a time on an engine with default workers
//!   --limit N        evaluate at most N requests, then exit with code 3
//!                    without a report — simulates an interrupted run
//!   --quick          the binary's cut-down smoke grid or search
//!   --throttle-ms N  sleep N ms after each request the store did not
//!                    already hold — lets the CI resume jobs kill a run
//!                    deterministically mid-way
//!   --remote ADDR    evaluate over TCP against a gcco-serve or
//!                    gcco-router endpoint (incompatible with --store,
//!                    --limit and --throttle-ms, which are local concerns)
//! ```

use crate::result_line;
use gcco_api::json::{Envelope, PROTOCOL_VERSION};
use gcco_api::serve::{ConnectionPool, RetryPolicy};
use gcco_api::{Engine, EngineConfig, EvalRequest, EvalResponse, GccoError};
use gcco_stat::{available_workers, par_map_grid};
use gcco_store::Store;
use std::fmt::Display;
use std::net::ToSocketAddrs;
use std::sync::Arc;
use std::time::Duration;

/// A campaign binary's parsed command line and, once [`Campaign::open`]
/// ran, its evaluation backend.
pub struct Campaign {
    name: &'static str,
    hits_key: &'static str,
    /// `--quick`: run the binary's cut-down smoke grid or search.
    pub quick: bool,
    /// Requests evaluated at once: `--workers` for a binary with the flag,
    /// 1 otherwise.
    pub workers: usize,
    /// Whether the binary has `--workers`, i.e. parallelism runs across
    /// requests rather than inside one.
    fan_out: bool,
    store: Option<String>,
    report: Option<String>,
    remote: Option<String>,
    limit: Option<usize>,
    throttle_ms: u64,
    /// Requests evaluated so far — what `--limit` counts.
    done: usize,
    backend: Option<Backend>,
}

enum Backend {
    Local(Engine),
    /// A `gcco-serve` or `gcco-router` endpoint and the pool holding its
    /// one persistent connection.
    Remote {
        addr: String,
        pool: ConnectionPool,
    },
}

/// How long one `--remote` batch attempt may take.
const REMOTE_TIMEOUT: Duration = Duration::from_secs(3600);

impl Campaign {
    /// Parses the process arguments against `usage`, the binary's usage
    /// line after its name, accepting exactly the flags it names.
    /// `hits_key` is the binary's store-hits `RESULT` key, printed when
    /// `--limit` stops the run. On a bad command line prints
    /// `{name}: {reason}` to stderr and exits with code 2.
    pub fn from_args(name: &'static str, usage: &str, hits_key: &'static str) -> Campaign {
        Campaign::parse(name, usage, hits_key, std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{name}: {e}");
            std::process::exit(2)
        })
    }

    fn parse(
        name: &'static str,
        usage: &str,
        hits_key: &'static str,
        args: impl IntoIterator<Item = String>,
    ) -> Result<Campaign, String> {
        let fan_out = usage.contains("[--workers N]");
        let mut campaign = Campaign {
            name,
            hits_key,
            quick: false,
            workers: if fan_out { available_workers() } else { 1 },
            fan_out,
            store: None,
            report: None,
            remote: None,
            limit: None,
            throttle_ms: 0,
            done: 0,
            backend: None,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let unknown = format!("unknown argument \"{arg}\"\nusage: {name} {usage}");
            if !usage.split(['[', ']', ' ']).any(|word| word == arg) {
                return Err(unknown);
            }
            let mut value = |what: &str| args.next().ok_or_else(|| format!("{arg} needs {what}"));
            let positive = |v: String| {
                v.parse()
                    .ok()
                    .filter(|&n: &usize| n >= 1)
                    .ok_or_else(|| format!("{arg} needs a positive integer"))
            };
            match arg.as_str() {
                "--quick" => campaign.quick = true,
                "--store" => campaign.store = Some(value("a directory")?),
                "--report" => campaign.report = Some(value("a file path")?),
                "--remote" => campaign.remote = Some(value("an ADDR:PORT")?),
                "--workers" => campaign.workers = positive(value("a positive integer")?)?,
                "--limit" => campaign.limit = Some(positive(value("a positive integer")?)?),
                "--throttle-ms" => {
                    campaign.throttle_ms = value("an integer")?
                        .parse()
                        .map_err(|_| format!("{arg} needs an integer"))?;
                }
                _ => return Err(unknown),
            }
        }
        if campaign.remote.is_some()
            && (campaign.store.is_some() || campaign.limit.is_some() || campaign.throttle_ms > 0)
        {
            return Err("--remote evaluates server-side; --store, --limit and \
                        --throttle-ms only apply locally"
                .to_string());
        }
        Ok(campaign)
    }

    /// Builds the evaluation backend and prints its line: the `--remote`
    /// endpoint, or a local engine with the `--store` journal attached
    /// and what its recovery found. Call it after the binary's banner.
    /// Exits with code 2 when the store does not open or the address does
    /// not resolve.
    pub fn open(&mut self) {
        let backend = if let Some(addr) = &self.remote {
            // Nothing connects until the first batch.
            let resolved = addr.to_socket_addrs().ok().and_then(|mut all| all.next());
            let resolved = resolved
                .unwrap_or_else(|| self.fail(2, format_args!("--remote: {addr}: cannot resolve")));
            println!("evaluating through {addr}");
            Backend::Remote {
                addr: addr.clone(),
                pool: ConnectionPool::new(resolved, 1),
            }
        } else {
            // With --workers the parallelism is across requests, so nested
            // parallelism inside one request would only oversubscribe.
            let engine = Engine::with_config(EngineConfig {
                workers: self.fan_out.then_some(1),
                ..EngineConfig::default()
            });
            Backend::Local(match &self.store {
                None => engine,
                Some(dir) => {
                    let store = Store::open(dir)
                        .unwrap_or_else(|e| self.fail(2, format_args!("--store {dir}: {e}")));
                    let recovery = store.recovery();
                    println!(
                        "store {dir}: {} records recovered, {} torn bytes truncated",
                        recovery.intact_records, recovery.torn_bytes
                    );
                    engine.with_store(Arc::new(store))
                }
            })
        };
        self.backend = Some(backend);
    }

    /// How many of the next `n` requests `--limit` lets through.
    pub fn budget(&self, n: usize) -> usize {
        self.limit.map_or(n, |limit| n.min(limit - self.done))
    }

    /// Evaluates `requests` and returns the responses in request order:
    /// over `--remote` as one wire batch, locally `workers` requests at a
    /// time (deterministically ordered, whatever the worker count). When
    /// `--limit` leaves room for fewer than all of `requests`, evaluates
    /// those that fit, prints the stop line and the store-hits `RESULT`
    /// line, and exits with code 3 without a report.
    ///
    /// # Errors
    ///
    /// The first failed request's error; over `--remote`, the transport
    /// error once the retry budget is spent, or the first request the
    /// server answered with an error.
    ///
    /// # Panics
    ///
    /// Panics when called before [`Campaign::open`].
    pub fn evaluate(&mut self, requests: &[EvalRequest]) -> Result<Vec<EvalResponse>, GccoError> {
        let fit = self.budget(requests.len());
        let throttle = Duration::from_millis(self.throttle_ms);
        let responses = match self.backend.as_ref().expect("Campaign::open first") {
            Backend::Remote { addr, pool } => remote_batch(addr, pool, requests)?,
            Backend::Local(engine) => par_map_grid(&requests[..fit], self.workers, |_, request| {
                // Journaled requests replay instantly even under
                // --throttle-ms: the throttle models computation cost,
                // and a resumed run's whole point is not paying it twice.
                let journaled = !throttle.is_zero()
                    && engine
                        .store()
                        .is_some_and(|s| s.contains(&request.cache_key()));
                let response = engine.evaluate(request);
                if !throttle.is_zero() && !journaled {
                    std::thread::sleep(throttle);
                }
                response
            })
            .into_iter()
            .collect::<Result<_, _>>()?,
        };
        self.done += fit;
        if fit < requests.len() {
            println!(
                "stopped after {} requests (--limit); no report written",
                self.done
            );
            result_line(self.hits_key, self.store_hits());
            std::process::exit(3);
        }
        Ok(responses)
    }

    /// Requests answered from the local store (the engine's
    /// `gcco_store_hits_total`); 0 over `--remote`, where any journal is
    /// the server's to count.
    pub fn store_hits(&self) -> u64 {
        match &self.backend {
            Some(Backend::Local(engine)) => engine.obs().counter("gcco_store_hits_total").get(),
            _ => 0,
        }
    }

    /// Writes `report` to the `--report` file, if one was given, and says
    /// so. Exits with code 2 when the file cannot be written.
    pub fn write_report(&self, report: &str) {
        if let Some(path) = &self.report {
            if let Err(e) = std::fs::write(path, report) {
                self.fail(2, format_args!("--report {path}: {e}"));
            }
            println!("report written to {path}");
        }
    }

    /// Prints `{name}: {error}` to stderr and exits with `code`.
    pub fn fail(&self, code: i32, error: impl Display) -> ! {
        eprintln!("{}: {error}", self.name);
        std::process::exit(code)
    }
}

/// Evaluates `requests` over `pool` as one wire batch (envelope ids
/// `1..=n`) with the default retry policy, returning the responses in
/// request order.
fn remote_batch(
    addr: &str,
    pool: &ConnectionPool,
    requests: &[EvalRequest],
) -> Result<Vec<EvalResponse>, GccoError> {
    let envelopes: Vec<Envelope> = requests
        .iter()
        .enumerate()
        .map(|(i, request)| Envelope {
            id: i as u64 + 1,
            v: Some(PROTOCOL_VERSION),
            deadline_ms: None,
            request: request.clone(),
        })
        .collect();
    pool.submit_batch_with_retry(&envelopes, REMOTE_TIMEOUT, &RetryPolicy::default())?
        .into_iter()
        .map(|line| {
            line.result.map_err(|(kind, detail)| {
                GccoError::Io(format!(
                    "{addr}: request {} failed: {kind}: {detail}",
                    line.id
                ))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAMPAIGN: &str =
        "[--store DIR] [--report FILE] [--workers N] [--limit N] [--quick] [--throttle-ms N]";
    const OPTIMIZE: &str =
        "[--store DIR] [--report FILE] [--quick] [--limit N] [--throttle-ms N] [--remote ADDR]";
    const BASELINE: &str = "[--store DIR] [--report FILE] [--quick] [--remote ADDR]";

    fn parse(usage: &str, args: &[&str]) -> Result<Campaign, String> {
        Campaign::parse("bin", usage, "hits", args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn every_flag_in_the_usage_line_parses() {
        let campaign = parse(
            CAMPAIGN,
            &[
                "--store",
                "s",
                "--report",
                "r",
                "--workers",
                "3",
                "--limit",
                "4",
                "--quick",
                "--throttle-ms",
                "0",
            ],
        )
        .unwrap();
        assert_eq!(campaign.store.as_deref(), Some("s"));
        assert_eq!(campaign.report.as_deref(), Some("r"));
        assert_eq!((campaign.workers, campaign.limit), (3, Some(4)));
        assert!(campaign.quick && campaign.fan_out);
        let remote = parse(OPTIMIZE, &["--remote", "host:1", "--throttle-ms", "0"]).unwrap();
        assert_eq!(remote.remote.as_deref(), Some("host:1"));
        assert_eq!(remote.workers, 1);
        assert!(!remote.fan_out);
    }

    #[test]
    fn a_flag_outside_the_usage_line_fails_with_it() {
        for (usage, flag) in [
            (OPTIMIZE, "--workers"),
            (BASELINE, "--limit"),
            (BASELINE, "--throttle-ms"),
            (CAMPAIGN, "--remote"),
            (CAMPAIGN, "N"),
            (CAMPAIGN, "--quic"),
        ] {
            let err = parse(usage, &[flag, "1"]).err().expect("must fail");
            assert_eq!(
                err,
                format!("unknown argument \"{flag}\"\nusage: bin {usage}")
            );
        }
    }

    #[test]
    fn bad_values_fail() {
        for args in [
            &["--workers", "0"][..],
            &["--workers"],
            &["--limit", "0"],
            &["--limit", "x"],
            &["--limit", "-1"],
            &["--throttle-ms", "1.5"],
            &["--throttle-ms"],
            &["--store"],
            &["--report"],
        ] {
            assert!(parse(CAMPAIGN, args).is_err(), "{args:?} must fail");
        }
        assert!(parse(OPTIMIZE, &["--remote"]).is_err());
    }

    #[test]
    fn remote_rejects_every_local_only_flag() {
        for local in [
            &["--store", "s"][..],
            &["--limit", "2"],
            &["--throttle-ms", "5"],
        ] {
            let args = [&["--remote", "host:1"][..], local].concat();
            let err = parse(OPTIMIZE, &args).err().expect("must fail");
            assert!(err.starts_with("--remote"), "{err}");
        }
        assert!(parse(BASELINE, &["--store", "s", "--remote", "host:1"]).is_err());
    }

    #[test]
    fn the_limit_budget_counts_down() {
        let mut campaign = parse(CAMPAIGN, &["--limit", "5"]).unwrap();
        assert_eq!(campaign.budget(3), 3);
        campaign.done = 3;
        assert_eq!(campaign.budget(3), 2);
        campaign.done = 5;
        assert_eq!(campaign.budget(3), 0);
        assert_eq!(parse(CAMPAIGN, &[]).unwrap().budget(7), 7);
    }
}
