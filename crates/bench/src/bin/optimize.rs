//! `optimize` — re-derives the paper's quad-channel design with the
//! design-space optimizer service.
//!
//! The binary asks the paper's own question: given the Table 1 jitter
//! environment, BER ≤ 1e-12, and the 5 mW/Gbit/s channel budget, which
//! sampling tap, line-code CID bound, and oscillator-jitter budget should
//! the receiver use? [`gcco_api::run_optimize`] drives the deterministic
//! search; this binary supplies the oracle — every probe batch is a batch
//! of `ber_point` requests through the [`gcco_bench::campaign`] runner:
//! a local engine (each probe journaled in the `--store` journal under
//! its canonical cache key, so a killed search resumes without
//! recomputing), or a remote `gcco-serve`/`gcco-router` endpoint fanning
//! probe batches across a cluster. Both answer the same BERs, so the
//! final report is byte-identical either way.
//!
//! ```text
//! optimize [--store DIR] [--report FILE] [--quick] [--limit N]
//!          [--throttle-ms N] [--remote ADDR]
//! ```
//!
//! The flags are the runner's; `--quick` is the cut-down smoke search
//! (one CID bound, coarser tolerance) instead of the full paper flow, and
//! `--limit` counts probes.

use gcco_api::json::tap_name;
use gcco_api::{
    run_optimize, EvalRequest, EvalResponse, GccoError, ModelSpec, OptimizeOut, OptimizeSpec,
    ProbeOracle,
};
use gcco_bench::{fmt_ber, fmt_opt, header, metrics, result_line, Campaign};
use std::fmt::Write as _;

/// The search's oracle: each probe batch is one batch of `ber_point`
/// requests through the campaign runner.
struct Probes<'a>(&'a mut Campaign);

impl ProbeOracle for Probes<'_> {
    fn probe_batch(&mut self, specs: &[ModelSpec]) -> Result<Vec<f64>, GccoError> {
        let requests: Vec<EvalRequest> =
            specs.iter().cloned().map(EvalRequest::ber_point).collect();
        self.0
            .evaluate(&requests)?
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

    fn store_hits(&self) -> u64 {
        self.0.store_hits()
    }
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
            fmt_opt(combo.ckj_rms),
            fmt_opt(combo.mw_per_gbps),
            fmt_opt(combo.worst_ber),
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
    let mut campaign = Campaign::from_args(
        "optimize",
        "[--store DIR] [--report FILE] [--quick] [--limit N] [--throttle-ms N] [--remote ADDR]",
        metrics::OPT_STORE_HITS,
    );
    header(
        "optimize",
        "top-down design-space search (tap x CID x jitter budget x margin)",
        "the §2/§3 flow picks the improved tap, CID-bounded coding, and a \
         bias current that lands the channel under 5 mW/Gbit/s at BER 1e-12",
    );

    let opt = if campaign.quick {
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
    campaign.open();
    let searched = run_optimize(&opt, &mut Probes(&mut campaign));
    let out = searched.unwrap_or_else(|e| campaign.fail(1, e));

    let report = render_report(&opt, &out, campaign.quick);
    print!("{report}");

    result_line(metrics::OPT_PROBES, out.probes);
    result_line(metrics::OPT_STORE_HITS, out.store_hits);
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

    campaign.write_report(&report);

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
