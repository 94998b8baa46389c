//! `optimize` — re-derives the paper's quad-channel design with the
//! design-space optimizer service.
//!
//! The binary asks the paper's own question: given the Table 1 jitter
//! environment, BER ≤ 1e-12, and the 5 mW/Gbit/s channel budget, which
//! sampling tap, line-code CID bound, and oscillator-jitter budget should
//! the receiver use? [`gcco_api::run_optimize`] drives the deterministic
//! search; this binary supplies the oracle — a local [`Engine`] (each
//! probe journaled in the `--store` journal under its canonical cache
//! key, so a killed search resumes without recomputing), or a remote
//! `gcco-serve`/`gcco-router` endpoint fanning probe batches across a
//! cluster. Both oracles answer the same BERs, so the final report is
//! byte-identical either way.
//!
//! ```text
//! optimize [--store DIR] [--report FILE] [--quick] [--limit N]
//!          [--throttle-ms N] [--remote ADDR]
//!
//!   --store DIR    attach a persistent gcco-store journal: every probe
//!                  is journaled, so a killed search resumes from where
//!                  it stopped and the final report is byte-identical to
//!                  an uninterrupted run
//!   --report FILE  write the deterministic design report to FILE
//!   --quick        the cut-down smoke search (one CID bound, coarser
//!                  tolerance) instead of the full paper flow
//!   --limit N      evaluate at most N probes, then exit with code 3
//!                  without a report — simulates an interrupted search
//!   --throttle-ms N  sleep N ms after each computed probe (store hits
//!                  are not throttled) — lets the CI resume job kill the
//!                  search deterministically mid-run
//!   --remote ADDR  evaluate probes over TCP against a gcco-serve or
//!                  gcco-router endpoint instead of a local engine
//!                  (incompatible with --store/--limit/--throttle-ms,
//!                  which are local-oracle concerns)
//! ```

use gcco_api::json::tap_name;
use gcco_api::{
    run_optimize, Engine, EvalRequest, EvalResponse, GccoError, ModelSpec, OptimizeOut,
    OptimizeSpec, ProbeOracle,
};
use gcco_bench::{fmt_ber, header, metrics, result_line, Remote};
use gcco_store::Store;
use std::fmt::Write as _;
use std::sync::Arc;

fn opt_f64(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:?}"),
        None => "none".to_string(),
    }
}

/// The local oracle: every probe is an ordinary `ber_point` request
/// through the engine (and its store tier, when attached).
struct EngineOracle<'a> {
    engine: &'a Engine,
    hits: u64,
    computed: u64,
    throttle_ms: u64,
    limit: Option<u64>,
    limited: bool,
}

impl ProbeOracle for EngineOracle<'_> {
    fn probe_batch(&mut self, specs: &[ModelSpec]) -> Result<Vec<f64>, GccoError> {
        let mut bers = Vec::with_capacity(specs.len());
        for spec in specs {
            if self.limit.is_some_and(|n| self.hits + self.computed >= n) {
                self.limited = true;
                return Err(GccoError::Io("probe limit reached".to_string()));
            }
            let request = EvalRequest::BerPoint {
                spec: spec.clone(),
                sj: None,
            };
            let journaled = self
                .engine
                .store()
                .is_some_and(|s| s.contains(&request.cache_key()));
            let value = match self.engine.evaluate(&request)? {
                EvalResponse::Scalar { value } => value,
                other => {
                    return Err(GccoError::Io(format!(
                        "a ber_point probe answered with a {} response",
                        other.kind()
                    )))
                }
            };
            if journaled {
                self.hits += 1;
            } else {
                self.computed += 1;
                // Journaled probes replay instantly even under
                // --throttle-ms: the throttle models computation cost,
                // and a resumed search's whole point is not paying it
                // twice.
                if self.throttle_ms > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(self.throttle_ms));
                }
            }
            bers.push(value);
        }
        Ok(bers)
    }

    fn store_hits(&self) -> u64 {
        self.hits
    }
}

/// The remote oracle: each probe batch becomes one wire batch of
/// `ber_point` envelopes against a `gcco-serve` or `gcco-router`
/// endpoint.
struct RemoteOracle(Remote);

impl ProbeOracle for RemoteOracle {
    fn probe_batch(&mut self, specs: &[ModelSpec]) -> Result<Vec<f64>, GccoError> {
        let requests: Vec<EvalRequest> = specs
            .iter()
            .map(|spec| EvalRequest::BerPoint {
                spec: spec.clone(),
                sj: None,
            })
            .collect();
        self.0
            .evaluate_all(&requests)?
            .into_iter()
            .map(|response| match response {
                EvalResponse::Scalar { value } => Ok(value),
                other => Err(GccoError::Io(format!(
                    "a ber_point probe answered with a {} response",
                    other.kind()
                ))),
            })
            .collect()
    }

    // The remote store tier (if any) is the server's to count; the
    // search-side statistic stays zero.
    fn store_hits(&self) -> u64 {
        0
    }
}

struct Args {
    store: Option<String>,
    report: Option<String>,
    quick: bool,
    limit: Option<u64>,
    throttle_ms: u64,
    remote: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        store: None,
        report: None,
        quick: false,
        limit: None,
        throttle_ms: 0,
        remote: None,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--store" => {
                args.store = Some(
                    it.next()
                        .ok_or_else(|| "--store needs a directory".to_string())?
                        .clone(),
                );
            }
            "--report" => {
                args.report = Some(
                    it.next()
                        .ok_or_else(|| "--report needs a file path".to_string())?
                        .clone(),
                );
            }
            "--quick" => args.quick = true,
            "--limit" => {
                args.limit = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| "--limit needs a positive integer".to_string())?,
                );
            }
            "--throttle-ms" => {
                args.throttle_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| "--throttle-ms needs an integer".to_string())?;
            }
            "--remote" => {
                args.remote = Some(
                    it.next()
                        .ok_or_else(|| "--remote needs an ADDR:PORT".to_string())?
                        .clone(),
                );
            }
            other => {
                return Err(format!(
                    "unknown argument \"{other}\"\nusage: optimize [--store DIR] \
                     [--report FILE] [--quick] [--limit N] [--throttle-ms N] [--remote ADDR]"
                ));
            }
        }
    }
    if args.remote.is_some()
        && (args.store.is_some() || args.limit.is_some() || args.throttle_ms > 0)
    {
        return Err(
            "--remote evaluates probes server-side; --store, --limit and \
                    --throttle-ms only apply to the local oracle"
                .to_string(),
        );
    }
    Ok(args)
}

/// The deterministic design report: corner order is search order, floats
/// are `{:?}` (shortest exact form), and the run-local store-hit count is
/// excluded — so two runs that answered the same probes produce the same
/// bytes, resumed or not, serial or sharded.
fn render_report(opt: &OptimizeSpec, out: &OptimizeOut, quick: bool) -> String {
    let mut report = String::new();
    let _ = writeln!(report, "GCCO design optimizer v1");
    let _ = writeln!(report, "flow {}", if quick { "quick" } else { "paper" });
    let _ = writeln!(report, "target_ber {:?}", opt.target_ber);
    let _ = writeln!(report, "budget_mw_per_gbps {:?}", opt.budget_mw_per_gbps);
    for combo in &out.per_combo {
        let _ = writeln!(
            report,
            "combo tap={} cid={} ckj_rms={} mw_per_gbps={} worst_ber={} probes={}",
            tap_name(combo.tap),
            combo.cid_max,
            opt_f64(combo.ckj_rms),
            opt_f64(combo.mw_per_gbps),
            opt_f64(combo.worst_ber),
            combo.probes
        );
    }
    match &out.best {
        Some(best) => {
            let _ = writeln!(
                report,
                "best tap={} cid={} ckj_rms={:?} mw_per_gbps={:?} worst_ber={:?} \
                 margin={:?} settling_ui={:?}",
                tap_name(best.spec.tap),
                best.spec.cid_max,
                best.spec.ckj_rms,
                best.mw_per_gbps,
                best.worst_ber,
                best.margin,
                best.settling_ui
            );
        }
        None => {
            let _ = writeln!(report, "best none");
        }
    }
    let _ = writeln!(report, "probes {}", out.probes);
    let _ = writeln!(report, "converged {}", out.converged);
    report
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("optimize: {e}");
        std::process::exit(2);
    });
    header(
        "optimize",
        "top-down design-space search (tap x CID x jitter budget x margin)",
        "the §2/§3 flow picks the improved tap, CID-bounded coding, and a \
         bias current that lands the channel under 5 mW/Gbit/s at BER 1e-12",
    );

    let opt = if args.quick {
        OptimizeSpec::quick_flow()
    } else {
        OptimizeSpec::paper_flow()
    };
    println!(
        "searching {} corners (target BER {:e}, budget {} mW/Gbit/s, probe cap {})\n",
        opt.combos().len(),
        opt.target_ber,
        opt.budget_mw_per_gbps,
        opt.max_probes
    );

    let (out, store_hits) = if let Some(addr) = &args.remote {
        let mut oracle = RemoteOracle(Remote::new(addr).unwrap_or_else(|e| {
            eprintln!("optimize: --remote: {e}");
            std::process::exit(2);
        }));
        println!("probing through {addr}");
        let out = run_optimize(&opt, &mut oracle).unwrap_or_else(|e| {
            eprintln!("optimize: {e}");
            std::process::exit(1);
        });
        (out, 0)
    } else {
        let mut engine = Engine::new();
        if let Some(dir) = &args.store {
            let store = Store::open(dir).unwrap_or_else(|e| {
                eprintln!("optimize: --store {dir}: {e}");
                std::process::exit(2);
            });
            let recovery = store.recovery();
            println!(
                "store {dir}: {} records recovered, {} torn bytes truncated",
                recovery.intact_records, recovery.torn_bytes
            );
            engine = engine.with_store(Arc::new(store));
        }
        let mut oracle = EngineOracle {
            engine: &engine,
            hits: 0,
            computed: 0,
            throttle_ms: args.throttle_ms,
            limit: args.limit,
            limited: false,
        };
        match run_optimize(&opt, &mut oracle) {
            Ok(out) => {
                let hits = out.store_hits;
                (out, hits)
            }
            Err(_) if oracle.limited => {
                println!(
                    "stopped after {} probes (--limit); no report written",
                    oracle.hits + oracle.computed
                );
                result_line(metrics::OPT_STORE_HITS, oracle.hits);
                std::process::exit(3);
            }
            Err(e) => {
                eprintln!("optimize: {e}");
                std::process::exit(1);
            }
        }
    };

    let report = render_report(&opt, &out, args.quick);
    print!("{report}");

    result_line(metrics::OPT_PROBES, out.probes);
    result_line(metrics::OPT_STORE_HITS, store_hits);
    result_line(metrics::OPT_CONVERGED, out.converged);
    if let Some(best) = &out.best {
        result_line(
            metrics::OPT_BEST_MW_PER_GBPS,
            format!("{:.3}", best.mw_per_gbps),
        );
        result_line(
            metrics::OPT_BEST_CKJ_UIRMS,
            format!("{:.4}", best.spec.ckj_rms),
        );
        result_line(
            metrics::OPT_BEST_WORST_BER,
            fmt_ber(best.worst_ber).trim().to_string(),
        );
    }

    if let Some(path) = &args.report {
        std::fs::write(path, &report).unwrap_or_else(|e| {
            eprintln!("optimize: --report {path}: {e}");
            std::process::exit(2);
        });
        println!("report written to {path}");
    }

    match &out.best {
        Some(best) => println!(
            "\nOK: recovered tap={} cid={} at {:.3} mW/Gbit/s (budget {}) in {} probes.",
            tap_name(best.spec.tap),
            best.spec.cid_max,
            best.mw_per_gbps,
            opt.budget_mw_per_gbps,
            out.probes
        ),
        None => {
            println!("\nFAIL: no corner produced a feasible design under the budget.");
            std::process::exit(1);
        }
    }
}
