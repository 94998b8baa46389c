//! `campaign` — the resumable multi-channel corner-yield campaign.
//!
//! The paper's multi-channel claim (Fig. 2: eight plesiochronous channels,
//! one shared frequency reference) lives or dies on per-channel corners:
//! every channel sees its own CCO mismatch ε, its own line-code CID, and
//! its own deterministic/random jitter spread. This binary sweeps that
//! corner grid — ε × CID × DJ/RJ severity — evaluates each corner's BER
//! through the shared [`gcco_api::Engine`], and reports **yield**: the
//! fraction of corners meeting BER ≤ 1e-12.
//!
//! ```text
//! campaign [--store DIR] [--report FILE] [--workers N] [--limit N] [--quick]
//!          [--throttle-ms N]
//! ```
//!
//! The flags are the [`gcco_bench::campaign`] runner's; `--quick` is the
//! 9-corner smoke grid instead of the full 45 corners. Corners are
//! sharded over `--workers` in deterministic order (results are
//! worker-count invariant), with the engine pinned to one internal worker
//! per corner to avoid oversubscription.

use gcco_api::{EvalRequest, EvalResponse, ModelSpec};
use gcco_bench::{fmt_ber, header, metrics, result_line, Campaign};
use std::fmt::Write as _;

/// The BER every corner must meet — the paper's target.
const TARGET_BER: f64 = 1e-12;

/// One campaign corner: a channel condition to certify.
#[derive(Clone, Copy)]
struct Corner {
    /// Per-channel CCO mismatch ε = (f_osc − f_data)/f_data.
    eps: f64,
    /// Line-code CID bound for this channel's data.
    cid: u32,
    /// DJ/RJ severity scale on the Table 1 channel jitter.
    djrj: f64,
}

impl Corner {
    /// The spec this corner evaluates: Table 1 jitter scaled by the
    /// corner severity, at the corner's mismatch and CID.
    fn spec(&self) -> ModelSpec {
        let base = ModelSpec::paper_table1();
        ModelSpec::builder()
            .dj_pp(base.dj_pp * self.djrj)
            .rj_rms(base.rj_rms * self.djrj)
            .cid_max(self.cid)
            .freq_offset(self.eps)
            .build()
            .expect("corner grid stays in-range")
    }

    fn request(&self) -> EvalRequest {
        EvalRequest::ber_point(self.spec())
    }

    /// The corner's report line — `{:?}` floats, so the bytes are exact.
    fn report_line(&self, ber: f64) -> String {
        format!(
            "corner eps={:?} cid={} djrj={:?} ber={:?} pass={}\n",
            self.eps,
            self.cid,
            self.djrj,
            ber,
            ber <= TARGET_BER
        )
    }
}

/// The declarative corner grid: mismatch × CID × DJ/RJ severity.
fn corner_grid(quick: bool) -> Vec<Corner> {
    let (eps, cids, scales): (&[f64], &[u32], &[f64]) = if quick {
        (&[-0.01, 0.0, 0.01], &[5], &[0.8, 1.0, 1.2])
    } else {
        (
            &[-0.02, -0.01, 0.0, 0.01, 0.02],
            &[4, 5, 6],
            &[0.8, 1.0, 1.2],
        )
    };
    let mut corners = Vec::with_capacity(eps.len() * cids.len() * scales.len());
    for &eps in eps {
        for &cid in cids {
            for &djrj in scales {
                corners.push(Corner { eps, cid, djrj });
            }
        }
    }
    corners
}

fn main() {
    let mut campaign = Campaign::from_args(
        "campaign",
        "[--store DIR] [--report FILE] [--workers N] [--limit N] [--quick] [--throttle-ms N]",
        metrics::CAMPAIGN_STORE_HITS,
    );
    header(
        "Campaign",
        "multi-channel corner yield (CCO mismatch x CID x DJ/RJ severity)",
        "every plesiochronous channel corner must hold BER 1e-12 \
         (Fig. 2 multi-channel operation, Table 1 jitter)",
    );

    let corners = corner_grid(campaign.quick);
    let total = corners.len();
    campaign.open();
    println!(
        "evaluating {} of {total} corners on {} workers\n",
        campaign.budget(total),
        campaign.workers
    );
    let requests: Vec<EvalRequest> = corners.iter().map(Corner::request).collect();
    let bers: Vec<f64> = campaign
        .evaluate(&requests)
        // Corner specs are constructed in-range; any failure here is a
        // bug, not an operating condition.
        .unwrap_or_else(|e| panic!("corner evaluation failed: {e}"))
        .into_iter()
        .map(|response| match response {
            EvalResponse::Scalar { value } => value,
            other => unreachable!("a BER point yields a scalar, got {}", other.kind()),
        })
        .collect();

    // The deterministic report: corner order is grid order, floats are
    // `{:?}` (shortest exact form), so two runs that computed the same
    // BERs produce the same bytes — resumed or not.
    let mut report = String::new();
    let _ = writeln!(report, "GCCO corner-yield campaign v1");
    let _ = writeln!(report, "corners {total}");
    let _ = writeln!(report, "target_ber {TARGET_BER:?}");
    let mut pass = 0usize;
    let mut worst = 0.0f64;
    for (corner, &ber) in corners.iter().zip(&bers) {
        report.push_str(&corner.report_line(ber));
        if ber <= TARGET_BER {
            pass += 1;
        }
        worst = worst.max(ber);
    }
    let yield_pct = 100.0 * pass as f64 / total as f64;
    let _ = writeln!(report, "pass {pass}");
    let _ = writeln!(report, "yield_pct {yield_pct:?}");
    let _ = writeln!(report, "worst_ber {worst:?}");
    print!("{report}");

    result_line(metrics::CAMPAIGN_CORNERS, total);
    result_line(metrics::CAMPAIGN_PASS, pass);
    result_line(metrics::CAMPAIGN_YIELD_PCT, format!("{yield_pct:.1}"));
    result_line(
        metrics::CAMPAIGN_WORST_BER,
        fmt_ber(worst).trim().to_string(),
    );
    result_line(metrics::CAMPAIGN_STORE_HITS, campaign.store_hits());
    campaign.write_report(&report);
    println!("\nOK: {pass}/{total} corners hold BER {TARGET_BER:e} (yield {yield_pct:.1}%).");
}
