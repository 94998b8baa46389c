//! The paper's headline: a complete **top-down design flow** for the
//! gated-oscillator CDR, executed end to end.
//!
//! 1. statistical feasibility (JTOL/FTOL vs the InfiniBand mask),
//! 2. phase-noise-driven bias sizing (Hajimiri, Fig. 11),
//! 3. power budget (< 5 mW/Gbit/s),
//! 4. behavioral gate-level verification,
//! 5. the loop closed: the `optimize` request re-derives the operating
//!    point from nothing but the targets and the jitter environment.
//!
//! Run with: `cargo run --release --example design_flow`

use gcco::api::json::tap_name;
use gcco::api::{Engine, EvalRequest, EvalResponse, ModelSpec, OptimizeSpec};
use gcco::cdr::{run_design_flow, FlowSpec};
use gcco::noise::{power_noise_tradeoff, PhaseNoiseModel};
use gcco::units::{Current, Freq, Voltage};

fn main() {
    let spec = FlowSpec::paper();
    println!("specification:");
    println!("  bit rate        : {}", spec.bit_rate);
    println!("  target BER      : {:.0e}", spec.target_ber);
    println!("  channel jitter  : {}", spec.jitter);
    println!("  tolerance mask  : {}", spec.mask);
    println!(
        "  power budget    : {} mW/Gbit/s",
        spec.power_budget_mw_per_gbps
    );
    println!();

    // The Fig. 11 trade-off the sizing step walks on.
    println!("phase-noise / power trade-off (Hajimiri, 4-stage 2.5 GHz ring):");
    println!("   I_SS     | ring power | kappa        | sigma @ CID5");
    let points = power_noise_tradeoff(
        PhaseNoiseModel::Hajimiri { eta: 0.75 },
        Voltage::from_volts(0.4),
        Freq::from_ghz(2.5),
        4,
        5,
        (Current::from_microamps(2.0), Current::from_microamps(500.0)),
        7,
    );
    for p in &points {
        println!(
            "  {:>8} | {:>9} | {} | {:.5} UIrms{}",
            p.iss.to_string(),
            p.ring_power.to_string(),
            p.kappa,
            p.sigma_ui,
            if p.sigma_ui <= 0.01 {
                "  <- meets spec"
            } else {
                ""
            }
        );
    }
    println!();

    let report = run_design_flow(&spec);
    println!("=== top-down flow ===");
    println!("{report}");
    if let Some(cell) = report.cell {
        println!("\nsized cell: {cell}");
    }
    if let Some(eff) = report.mw_per_gbps {
        println!("channel efficiency: {eff:.2} mW/Gbit/s");
    }
    if let Some(f) = report.ftol {
        println!("frequency tolerance: ±{:.3} %", f * 100.0);
    }
    assert!(report.all_passed());

    // Close the loop: hand the same design question — environment,
    // targets, budget — to the optimizer service and let it re-derive
    // the operating point the steps above walked to by hand. The
    // environment is assembled with the validated builder (no raw
    // struct literals), and the quick flow keeps the search to a few
    // dozen probes.
    let base = ModelSpec::builder()
        .cid_max(5) // the 8b10b run-length bound the paper codes for
        .build()
        .expect("the paper environment is in range");
    let opt = OptimizeSpec {
        base,
        ..OptimizeSpec::quick_flow()
    };
    println!("\n=== closing the loop: the optimize request ===");
    println!(
        "searching {} corners for BER <= {:e} under {} mW/Gbit/s...",
        opt.combos().len(),
        opt.target_ber,
        opt.budget_mw_per_gbps
    );
    let engine = Engine::new();
    let out = match engine
        .evaluate(&EvalRequest::optimize(opt.clone()))
        .expect("the shipped quick flow is valid")
    {
        EvalResponse::Optimize { out } => out,
        other => unreachable!("an optimize request answers in kind, got {}", other.kind()),
    };
    for combo in &out.per_combo {
        println!(
            "  corner tap={:<8} cid={}: {}",
            tap_name(combo.tap),
            combo.cid_max,
            match (combo.ckj_rms, combo.mw_per_gbps) {
                (Some(ckj), Some(mw)) =>
                    format!("feasible up to {ckj:.4} UIrms ({mw:.2} mW/Gbit/s)"),
                _ => "infeasible".to_string(),
            }
        );
    }
    let best = out.best.expect("the paper's design space has a winner");
    println!(
        "recovered design: tap={} cid={} ckj={:.4} UIrms -> {:.2} mW/Gbit/s, \
         worst BER {:.1e}, margin ±{:.2} %, settling {:.0} UI \
         ({} probes, converged: {})",
        tap_name(best.spec.tap),
        best.spec.cid_max,
        best.spec.ckj_rms,
        best.mw_per_gbps,
        best.worst_ber,
        best.margin * 100.0,
        best.settling_ui,
        out.probes,
        out.converged
    );
    assert!(best.worst_ber <= opt.target_ber);
    assert!(best.mw_per_gbps < opt.budget_mw_per_gbps);
}
