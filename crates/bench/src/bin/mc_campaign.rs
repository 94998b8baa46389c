//! `mc_campaign` — the resumable multi-channel yield-grid campaign.
//!
//! Where `campaign` certifies single-channel corners, this binary drives
//! the first-class [`EvalRequest::MultiChannel`] scenario: each grid cell
//! is a whole receiver — N plesiochronous channels drawing per-channel
//! CCO mismatch from a seeded distribution, sharing control-current
//! ripple — evaluated in one request that reports per-channel BER and
//! settling, aggregate yield against BER ≤ 1e-12, and the channel power
//! roll-up against the paper's 5 mW/Gbit/s budget. The grid sweeps
//! channel count × mismatch spread σ(ε) × line-code CID.
//!
//! ```text
//! mc_campaign [--store DIR] [--report FILE] [--workers N] [--limit N]
//!             [--quick] [--throttle-ms N]
//! ```
//!
//! The flags are the [`gcco_bench::campaign`] runner's; `--quick` is the
//! 4-cell smoke grid instead of the full 27 cells. Under `--store` each
//! cell journals its per-channel sub-results too, so a kill can land
//! mid-cell and the resume still replays every finished channel. Cells
//! are sharded over `--workers` in deterministic order (results are
//! worker-count invariant), with the engine pinned to one internal worker
//! per cell to avoid oversubscription.

use gcco_api::{EvalRequest, EvalResponse, ModelSpec, MultiChannelSpec};
use gcco_bench::{fmt_ber, header, metrics, result_line, Campaign};
use std::fmt::Write as _;

/// The BER every channel of every cell must meet — the paper's target.
const TARGET_BER: f64 = 1e-12;

/// One campaign cell: a whole multi-channel receiver configuration.
#[derive(Clone, Copy)]
struct Cell {
    /// Channel count (the paper's Fig. 2 receiver is a quad; we sweep it).
    channels: u32,
    /// Per-channel CCO mismatch spread σ(ε).
    sigma: f64,
    /// Line-code CID bound shared by every channel's data.
    cid: u32,
}

/// What one cell evaluation reports into the yield table.
struct CellOut {
    yield_pct: f64,
    worst_ber: f64,
    max_settling_ui: f64,
    mw_per_gbps: Option<f64>,
    within_budget: bool,
}

impl Cell {
    /// The scenario this cell evaluates: Table 1 jitter at the cell's
    /// CID, with mismatch drawn from the cell's σ(ε) and the shared
    /// control-ripple default, seeded by grid position so the draws are
    /// reproducible and distinct across cells.
    fn mc(&self, seed: u64) -> MultiChannelSpec {
        let mut mc = MultiChannelSpec::paper_quad();
        mc.channels = self.channels;
        mc.mismatch_sigma = self.sigma;
        mc.seed = seed;
        mc.target_ber = TARGET_BER;
        mc.spec = ModelSpec::builder()
            .cid_max(self.cid)
            .build()
            .expect("cell grid stays in-range");
        mc
    }

    fn request(&self, seed: u64) -> EvalRequest {
        EvalRequest::multi_channel(self.mc(seed))
    }

    /// The cell's report line — `{:?}` floats, so the bytes are exact.
    fn report_line(&self, out: &CellOut) -> String {
        let mw = match out.mw_per_gbps {
            Some(m) => format!("{m:?}"),
            None => "none".to_string(),
        };
        format!(
            "cell ch={} sigma={:?} cid={} yield_pct={:?} worst_ber={:?} \
             max_settling_ui={:?} mw_per_gbps={mw} within_budget={} pass={}\n",
            self.channels,
            self.sigma,
            self.cid,
            out.yield_pct,
            out.worst_ber,
            out.max_settling_ui,
            out.within_budget,
            out.yield_pct >= 100.0
        )
    }
}

/// The declarative cell grid: channel count × mismatch spread × CID.
fn cell_grid(quick: bool) -> Vec<Cell> {
    let (channels, sigmas, cids): (&[u32], &[f64], &[u32]) = if quick {
        (&[2, 4], &[0.002], &[5, 7])
    } else {
        (&[2, 4, 8], &[0.001, 0.002, 0.004], &[5, 7, 9])
    };
    let mut cells = Vec::with_capacity(channels.len() * sigmas.len() * cids.len());
    for &ch in channels {
        for &sigma in sigmas {
            for &cid in cids {
                cells.push(Cell {
                    channels: ch,
                    sigma,
                    cid,
                });
            }
        }
    }
    cells
}

fn main() {
    let mut campaign = Campaign::from_args(
        "mc_campaign",
        "[--store DIR] [--report FILE] [--workers N] [--limit N] [--quick] [--throttle-ms N]",
        metrics::MC_STORE_HITS,
    );
    header(
        "MC campaign",
        "multi-channel receiver yield (channels x mismatch spread x CID)",
        "eight plesiochronous channels from one frequency reference hold \
         BER 1e-12 under 5 mW/Gbit/s (Fig. 2, Table 1, the power headline)",
    );

    let cells = cell_grid(campaign.quick);
    let total = cells.len();
    campaign.open();
    println!(
        "evaluating {} of {total} cells on {} workers\n",
        campaign.budget(total),
        campaign.workers
    );
    // Seed by grid position: reproducible, distinct per cell, and stable
    // under --limit (the evaluated prefix keeps its seeds).
    let requests: Vec<EvalRequest> = cells
        .iter()
        .enumerate()
        .map(|(i, cell)| cell.request(i as u64 + 1))
        .collect();
    let outs: Vec<CellOut> = campaign
        .evaluate(&requests)
        // Cell specs are constructed in-range; any failure here is a bug,
        // not an operating condition.
        .unwrap_or_else(|e| panic!("cell evaluation failed: {e}"))
        .into_iter()
        .map(|response| match response {
            EvalResponse::MultiChannel {
                channels,
                worst_ber,
                yield_pct,
                mw_per_gbps,
                within_budget,
            } => CellOut {
                yield_pct,
                worst_ber,
                max_settling_ui: channels.iter().map(|c| c.settling_ui).fold(0.0, f64::max),
                mw_per_gbps,
                within_budget,
            },
            other => unreachable!(
                "a multi-channel request yields a multi-channel response, got {}",
                other.kind()
            ),
        })
        .collect();

    // The deterministic report: cell order is grid order, floats are
    // `{:?}` (shortest exact form), so two runs that computed the same
    // scenarios produce the same bytes — resumed or not.
    let mut report = String::new();
    let _ = writeln!(report, "GCCO multi-channel yield campaign v1");
    let _ = writeln!(report, "cells {total}");
    let _ = writeln!(report, "target_ber {TARGET_BER:?}");
    let mut pass = 0usize;
    let mut worst = 0.0f64;
    let mut min_yield = 100.0f64;
    let mut worst_cell_mw: Option<f64> = None;
    for (cell, out) in cells.iter().zip(&outs) {
        report.push_str(&cell.report_line(out));
        if out.yield_pct >= 100.0 {
            pass += 1;
        }
        worst = worst.max(out.worst_ber);
        if out.yield_pct < min_yield || worst_cell_mw.is_none() {
            min_yield = min_yield.min(out.yield_pct);
            worst_cell_mw = out.mw_per_gbps;
        }
    }
    let _ = writeln!(report, "pass {pass}");
    let _ = writeln!(report, "min_yield_pct {min_yield:?}");
    let _ = writeln!(report, "worst_ber {worst:?}");
    print!("{report}");

    result_line(metrics::MC_CELLS, total);
    result_line(metrics::MC_PASS, pass);
    result_line(metrics::MC_MIN_YIELD_PCT, format!("{min_yield:.1}"));
    result_line(metrics::MC_WORST_BER, fmt_ber(worst).trim().to_string());
    if let Some(mw) = worst_cell_mw {
        result_line(metrics::MC_MW_PER_GBPS, format!("{mw:.3}"));
    }
    result_line(metrics::MC_STORE_HITS, campaign.store_hits());
    campaign.write_report(&report);
    println!(
        "\nOK: {pass}/{total} cells hold every channel at BER {TARGET_BER:e} \
         (min yield {min_yield:.1}%)."
    );
}
