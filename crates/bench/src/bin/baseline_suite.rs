//! `baseline_suite` — the behavioral CDR bake-off: the paper's gated
//! oscillator against the four conventional clock-recovery loops the
//! workspace models behaviorally (bang-bang, Mueller–Müller, Gardner,
//! phase interpolator) and the frequency-detector-assisted bang-bang
//! variant.
//!
//! Every number is an [`gcco_api::EvalRequest`] evaluated through the
//! [`gcco_bench::campaign`] runner — locally (with an optional persistent
//! `--store` journal, so a re-run replays every row from disk
//! bit-identically) or against a `gcco-serve`/`gcco-router` endpoint with
//! `--remote` (the acceptance contract: serial, store-warmed and
//! router-sharded runs print the same report bytes).
//!
//! ```text
//! baseline_suite [--store DIR] [--report FILE] [--quick] [--remote ADDR]
//! ```
//!
//! The flags are the runner's; `--quick` runs 20 kbit instead of
//! 100 kbit per tracking run, for smoke jobs — still fully deterministic.

use gcco_api::{
    BaselineMetric, BaselineOut, BaselineSpec, CdrArchKind, EvalRequest, EvalResponse, ModelSpec,
};
use gcco_bench::{fmt_opt, header, metrics, result_line, Campaign};
use std::fmt::Write as _;

/// The SJ frequency (normalized to the bit rate) every JTOL column probes.
const JTOL_FREQ_NORM: f64 = 0.01;
/// The bracket top for every capture-range bisection, as |freq offset|.
const CAPTURE_HI: f64 = 0.1;

fn arch_label(arch: CdrArchKind) -> &'static str {
    match arch {
        CdrArchKind::BangBang => "bang-bang",
        CdrArchKind::MuellerMuller => "mueller-muller",
        CdrArchKind::Gardner => "gardner",
        CdrArchKind::BangBangFd => "bang-bang+fd",
        CdrArchKind::PhaseInterp => "phase-interp",
    }
}

/// One architecture's row: the Track / CaptureRange / JtolPoint triple.
struct ArchRow {
    arch: CdrArchKind,
    track: BaselineOut,
    capture: BaselineOut,
    jtol: BaselineOut,
}

/// The deterministic comparison report. Floats print as `{:?}` (shortest
/// exact form) and the run-local store-hit count is excluded, so serial,
/// store-warmed and router-sharded runs produce the same bytes.
fn render_report(rows: &[ArchRow], gcco_jtol_pp: f64, gcco_ftol: f64, quick: bool) -> String {
    let mut report = String::new();
    let _ = writeln!(report, "GCCO baseline suite v1");
    let _ = writeln!(report, "flow {}", if quick { "quick" } else { "paper" });
    let _ = writeln!(
        report,
        "gcco jtol_0p01fb_uipp={gcco_jtol_pp:?} ftol_frac={gcco_ftol:?} lock_bits=1"
    );
    for row in rows {
        let _ = writeln!(
            report,
            "arch {} lock_bits={} residual_uirms={} errors={} updates={} \
             capture_frac={} jtol_0p01fb_uipp={}",
            arch_label(row.arch),
            fmt_opt(row.track.lock_bits),
            fmt_opt(row.track.residual_rms_ui),
            row.track.errors,
            row.track.updates,
            fmt_opt(row.capture.capture_range),
            fmt_opt(row.jtol.jtol_amp_pp),
        );
    }
    report
}

fn main() {
    let mut campaign = Campaign::from_args(
        "baseline_suite",
        "[--store DIR] [--report FILE] [--quick] [--remote ADDR]",
        metrics::BASELINE_STORE_HITS,
    );
    header(
        "baseline_suite",
        "GCCO vs bang-bang vs Mueller-Muller vs Gardner (behavioral loops)",
        "the GCCO needs no acquisition and tracks past the loop slew corners; \
         the behavioral baselines quantify what the loops actually achieve",
    );

    let bits: u32 = if campaign.quick { 20_000 } else { 100_000 };
    println!(
        "tracking {bits} PRBS7 bits per run, JTOL at {JTOL_FREQ_NORM} f_b, \
         capture bracket +/-{CAPTURE_HI} of f_b\n"
    );

    // The request list, in deterministic order: the GCCO pair first, then
    // the Track / CaptureRange / JtolPoint triple per architecture.
    let gcco_spec = ModelSpec::paper_table1();
    let mut requests = vec![
        EvalRequest::JtolCurve {
            spec: gcco_spec.clone(),
            freqs_norm: vec![JTOL_FREQ_NORM],
            target_ber: 1e-12,
        },
        EvalRequest::FtolSearch {
            spec: gcco_spec,
            target_ber: 1e-12,
        },
    ];
    for arch in CdrArchKind::ALL {
        let spec = BaselineSpec {
            bits,
            ..BaselineSpec::typical(arch)
        };
        for metric in [
            BaselineMetric::Track,
            BaselineMetric::CaptureRange { hi: CAPTURE_HI },
            BaselineMetric::JtolPoint {
                freq_norm: JTOL_FREQ_NORM,
            },
        ] {
            requests.push(EvalRequest::baseline(arch, spec, metric));
        }
    }

    campaign.open();
    let responses = campaign
        .evaluate(&requests)
        .unwrap_or_else(|e| campaign.fail(1, e));

    let mut it = responses.into_iter();
    let gcco_jtol_pp = match it.next() {
        Some(EvalResponse::Jtol { points }) => points[0].amplitude_pp,
        other => panic!("jtol_curve answered {other:?}"),
    };
    let gcco_ftol = match it.next() {
        Some(EvalResponse::Ftol { value }) => value,
        other => panic!("ftol_search answered {other:?}"),
    };
    let baseline_out = |r: Option<EvalResponse>| match r {
        Some(EvalResponse::Baseline { out }) => out,
        other => panic!("baseline request answered {other:?}"),
    };
    let rows: Vec<ArchRow> = CdrArchKind::ALL
        .into_iter()
        .map(|arch| ArchRow {
            arch,
            track: baseline_out(it.next()),
            capture: baseline_out(it.next()),
            jtol: baseline_out(it.next()),
        })
        .collect();

    println!("  arch           | lock bits | resid UIrms | capture   | JTOL@0.01fb");
    println!(
        "  GCCO           | {:>9} | {:>11} | {:>9} | {:>8.2} UI",
        1,
        "-",
        format!("+/-{:.1}%", gcco_ftol * 100.0),
        gcco_jtol_pp,
    );
    for row in rows.iter() {
        println!(
            "  {:<14} | {:>9} | {:>11} | {:>9} | {:>8} UI",
            arch_label(row.arch),
            row.track
                .lock_bits
                .map_or("no lock".to_string(), |b| b.to_string()),
            row.track
                .residual_rms_ui
                .map_or("-".to_string(), |r| format!("{r:.4}")),
            row.capture
                .capture_range
                .map_or("-".to_string(), |c| format!("+/-{:.2}%", c * 100.0)),
            row.jtol
                .jtol_amp_pp
                .map_or("-".to_string(), |a| format!("{a:.2}")),
        );
    }

    let report = render_report(&rows, gcco_jtol_pp, gcco_ftol, campaign.quick);

    result_line(metrics::BASELINE_STORE_HITS, campaign.store_hits());
    result_line(
        metrics::BASELINE_GCCO_JTOL_0P01FB,
        format!("{gcco_jtol_pp:.2}"),
    );
    for row in &rows {
        let (lock_key, jtol_key, capture_key) = match row.arch {
            CdrArchKind::BangBang => (
                metrics::BASELINE_BB_LOCK_BITS,
                metrics::BASELINE_BB_JTOL_0P01FB,
                metrics::BASELINE_BB_CAPTURE_PCT,
            ),
            CdrArchKind::MuellerMuller => (
                metrics::BASELINE_MM_LOCK_BITS,
                metrics::BASELINE_MM_JTOL_0P01FB,
                metrics::BASELINE_MM_CAPTURE_PCT,
            ),
            CdrArchKind::Gardner => (
                metrics::BASELINE_GARDNER_LOCK_BITS,
                metrics::BASELINE_GARDNER_JTOL_0P01FB,
                metrics::BASELINE_GARDNER_CAPTURE_PCT,
            ),
            CdrArchKind::BangBangFd => (
                metrics::BASELINE_FD_LOCK_BITS,
                metrics::BASELINE_FD_JTOL_0P01FB,
                metrics::BASELINE_FD_CAPTURE_PCT,
            ),
            CdrArchKind::PhaseInterp => (
                metrics::BASELINE_PI_LOCK_BITS,
                metrics::BASELINE_PI_JTOL_0P01FB,
                metrics::BASELINE_PI_CAPTURE_PCT,
            ),
        };
        result_line(lock_key, fmt_opt(row.track.lock_bits));
        result_line(
            jtol_key,
            row.jtol
                .jtol_amp_pp
                .map_or("none".to_string(), |a| format!("{a:.2}")),
        );
        result_line(
            capture_key,
            row.capture
                .capture_range
                .map_or("none".to_string(), |c| format!("{:.2}", c * 100.0)),
        );
    }

    campaign.write_report(&report);

    // The architectural claims the table must support: every loop locks
    // on the clean run, and the open-loop GCCO out-tracks every loop at
    // 0.01 f_b.
    for row in &rows {
        assert!(
            row.track.lock_bits.is_some(),
            "{} failed to lock on clean data",
            arch_label(row.arch)
        );
    }
    for row in &rows {
        if let Some(amp) = row.jtol.jtol_amp_pp {
            assert!(
                gcco_jtol_pp > amp,
                "the GCCO must out-track {} at {JTOL_FREQ_NORM} f_b",
                arch_label(row.arch)
            );
        }
    }
    println!(
        "\nOK: every behavioral loop locks on clean data; the GCCO tracks \
         {gcco_jtol_pp:.2} UIpp at {JTOL_FREQ_NORM} f_b, above every loop baseline."
    );
}
