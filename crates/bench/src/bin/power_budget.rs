//! §1/§2 claim — power consumption below 5 mW/Gbit/s, and the comparison
//! against the conventional per-channel PLL-based and phase-interpolator
//! CDRs the paper avoids.
//!
//! The analytic sizing and the Fig. 11 I_SS scan are one
//! [`EvalRequest::PowerScan`] evaluated through the [`Engine`]; the sized
//! cell comes back exactly (amps + integer femtoseconds), so the budget
//! arithmetic below is bit-identical to sizing in-process.

use gcco_api::{EvalRequest, EvalResponse, PowerScanSpec};
use gcco_bench::{engine_from_env, header, metrics, result_line};
use gcco_noise::ChannelPowerBudget;
use gcco_units::{Current, Freq, Voltage};

fn main() {
    header(
        "Power budget",
        "Channel power at the noise-sized bias point",
        "power consumption as low as 5 mW/Gbit/s",
    );

    let bit_rate = Freq::from_gbps(2.5);
    let scan_spec = PowerScanSpec::paper_design();
    let engine = engine_from_env();
    let response = engine
        .evaluate(&EvalRequest::power_scan(scan_spec.clone()))
        .expect("the paper design point is a valid scan");
    let EvalResponse::Power { sized, points } = response else {
        unreachable!("a power scan yields a power response")
    };
    let cell = sized.expect("reachable").to_cell();
    println!("\nsized cell: {cell}");

    let budget = ChannelPowerBudget::paper_channel(cell);
    println!(
        "\nGCCO channel breakdown ({} identical CML cells):",
        budget.total_cells()
    );
    println!("  ring oscillator  : {} cells", budget.osc_stages);
    println!("  delay line       : {} cells", budget.delay_line_cells);
    println!("  XOR/dummy/sampler: {} cells", budget.misc_cells);
    println!("  per-cell power   : {}", budget.cell.power());
    println!("  channel power    : {}", budget.power());
    let eff = budget.mw_per_gbps(bit_rate);
    println!("  efficiency       : {eff:.2} mW/Gbit/s (target < 5)");
    result_line(metrics::GCCO_MW_PER_GBPS, format!("{eff:.3}"));
    assert!(eff < 5.0);

    // Cross-check the sizing against the brute-force Fig. 11 I_SS scan
    // from the same response: the cheapest bias on the grid that still
    // meets 0.01 UIrms must cost no less than the sized point.
    // The speed floor binds as well: below it the cell cannot drive the
    // parasitic load at the 50 ps stage delay (same constraint as the
    // analytic sizing).
    let iss_floor = Voltage::from_volts(scan_spec.swing_v).volts()
        * std::f64::consts::LN_2
        * gcco_noise::PARASITIC_CL_FLOOR_FARADS
        / cell.delay().secs();
    let cheapest = points
        .iter()
        .find(|p| p.sigma_ui <= scan_spec.sigma_ui_target && p.iss_a >= iss_floor)
        .expect("scan range must reach the jitter target");
    let cheapest_iss = Current::from_amps(cheapest.iss_a);
    let scan_eff = ChannelPowerBudget::paper_channel(gcco_noise::CmlCell::sized_for_delay(
        cheapest_iss,
        Voltage::from_volts(scan_spec.swing_v),
        cell.delay(),
    ))
    .mw_per_gbps(bit_rate);
    println!(
        "  I_SS scan check  : cheapest grid bias meeting 0.01 UIrms is {cheapest_iss} -> {scan_eff:.2} mW/Gbit/s",
    );
    result_line(metrics::SCAN_MW_PER_GBPS, format!("{scan_eff:.3}"));
    assert!(
        scan_eff >= eff * 0.99,
        "the analytic sizing must not be beaten by the grid scan"
    );
    assert!(scan_eff < 5.0, "the scanned bias also meets the headline");

    // The conventional alternative: a per-channel PLL-based CDR needs the
    // full loop per channel — phase detector bank, charge pump/DAC, loop
    // filter, its own full-rate VCO and dividers. Counted in the same CML
    // cell currency, that is roughly 3x the gates, plus a per-channel VCO
    // running regardless of data activity.
    let pll_cdr = ChannelPowerBudget {
        cell: budget.cell,
        osc_stages: 4,       // its own VCO
        delay_line_cells: 8, // phase-detector sampling bank
        misc_cells: 36,      // PD logic, CP/DAC, filter, dividers, retimers
    };
    let pll_eff = pll_cdr.mw_per_gbps(bit_rate);
    println!("\nper-channel PLL-based CDR (same cell currency):");
    println!("  cells            : {}", pll_cdr.total_cells());
    println!("  efficiency       : {pll_eff:.2} mW/Gbit/s");
    result_line(metrics::PLL_CDR_MW_PER_GBPS, format!("{pll_eff:.3}"));
    result_line(
        metrics::GCCO_VS_PLL_POWER_RATIO,
        format!("{:.2}", pll_eff / eff),
    );
    assert!(
        pll_eff / eff > 2.0,
        "the paper's motivation: GCCO is the low-power option"
    );

    // The other alternative §1 names: a phase-interpolator CDR has no
    // per-channel VCO, but it distributes multi-phase clocks to every
    // channel and pays for the interpolator, its DAC and the loop logic.
    let pi_cdr = ChannelPowerBudget {
        cell: budget.cell,
        osc_stages: 0,        // no per-channel VCO…
        delay_line_cells: 16, // …but 8-phase clock distribution buffers
        misc_cells: 24,       // interpolator + DAC + PD + logic
    };
    let pi_eff = pi_cdr.mw_per_gbps(bit_rate);
    println!("\nper-channel phase-interpolator CDR (same cell currency):");
    println!("  cells            : {}", pi_cdr.total_cells());
    println!("  efficiency       : {pi_eff:.2} mW/Gbit/s");
    result_line(metrics::PI_CDR_MW_PER_GBPS, format!("{pi_eff:.3}"));
    result_line(
        metrics::GCCO_VS_PI_POWER_RATIO,
        format!("{:.2}", pi_eff / eff),
    );
    assert!(
        pi_eff / eff > 2.0,
        "the phase interpolator also costs more than 2x the GCCO"
    );

    println!(
        "\nOK: GCCO {eff:.2} mW/Gbit/s — under the 5 mW/Gbit/s budget and {:.1}x\n\
         below the conventional per-channel PLL approach.",
        pll_eff / eff
    );
}
