//! Engine-versus-direct parity: every number the [`Engine`] returns for
//! the rewired figures must be bit-identical to calling the sweep kernels
//! directly — the contract that let `fig09`/`fig10`/`fig17`/`ftol`/
//! `power_budget` move onto `EvalRequest` without a golden-output change.

use gcco_api::{
    Engine, EngineConfig, EvalRequest, EvalResponse, ModelSpec, OptimizeSpec, PowerScanSpec,
    SjOverride,
};
use gcco_noise::{iss_log_grid, size_for_jitter, tradeoff_point, PhaseNoiseModel};
use gcco_opt::ProbePoint;
use gcco_stat::{ftol, GccoStatModel, JitterSpec, QTable, SamplingTap, SweepContext};
use gcco_units::{Current, Freq, Ui, Voltage};

/// The Fig. 9 axes — small enough for a test, dense enough to cross the
/// tracked/untracked boundary.
const FREQS: [f64; 4] = [1e-3, 0.05, 0.2, 0.4];
const AMPS: [f64; 3] = [0.2, 0.6, 1.0];

#[test]
fn ber_grid_is_bit_identical_to_direct_sweep() {
    let engine = Engine::new();
    let got = engine
        .evaluate(&EvalRequest::BerGrid {
            spec: ModelSpec::paper_table1(),
            amps_pp: AMPS.to_vec(),
            freqs_norm: FREQS.to_vec(),
        })
        .expect("valid request");
    let EvalResponse::Grid { rows } = got else {
        panic!("grid request must yield a grid")
    };

    let ctx = SweepContext::new(GccoStatModel::new(JitterSpec::paper_table1()));
    let direct = ctx.ber_grid(&AMPS, &FREQS);
    assert_eq!(rows.len(), direct.len());
    for (row, drow) in rows.iter().zip(&direct) {
        for (a, b) in row.iter().zip(drow) {
            assert_eq!(a.to_bits(), b.to_bits(), "grid cell drifted");
        }
    }
}

#[test]
fn jtol_curve_is_bit_identical_to_direct_sweep() {
    let spec = ModelSpec::paper_table1().with_freq_offset(-0.01);
    let engine = Engine::new();
    let got = engine
        .evaluate(&EvalRequest::JtolCurve {
            spec,
            freqs_norm: FREQS.to_vec(),
            target_ber: 1e-12,
        })
        .expect("valid request");
    let EvalResponse::Jtol { points } = got else {
        panic!("jtol request must yield a curve")
    };

    let ctx =
        SweepContext::new(GccoStatModel::new(JitterSpec::paper_table1()).with_freq_offset(-0.01));
    let direct = ctx.jtol_curve(&FREQS, 1e-12);
    assert_eq!(points.len(), direct.len());
    for (p, d) in points.iter().zip(&direct) {
        assert_eq!(p.freq_norm.to_bits(), d.freq_norm.to_bits());
        assert_eq!(
            p.amplitude_pp.to_bits(),
            d.amplitude_pp.value().to_bits(),
            "tolerance at f={} drifted",
            p.freq_norm
        );
        assert_eq!(p.censored, d.censored);
    }
}

#[test]
fn ber_point_ftol_and_power_match_the_direct_calls() {
    let engine = Engine::new();

    // BerPoint with an SJ override = the cached grid kernel.
    let spec = ModelSpec::paper_table1();
    let EvalResponse::Scalar { value } = engine
        .evaluate(&EvalRequest::BerPoint {
            spec: spec.clone(),
            sj: Some(SjOverride {
                amplitude_pp: 0.6,
                freq_norm: 0.2,
            }),
        })
        .expect("valid request")
    else {
        panic!("point request must yield a scalar")
    };
    let ctx = SweepContext::new(GccoStatModel::new(JitterSpec::paper_table1()));
    assert_eq!(value.to_bits(), ctx.ber_at_sj(Ui::new(0.6), 0.2).to_bits());

    // FtolSearch = the exact-Q bisection on the built model.
    let imp = spec.with_tap(SamplingTap::Improved);
    let EvalResponse::Ftol { value: f } = engine
        .evaluate(&EvalRequest::FtolSearch {
            spec: imp,
            target_ber: 1e-12,
        })
        .expect("valid request")
    else {
        panic!("ftol request must yield an offset")
    };
    let direct = ftol(
        &GccoStatModel::new(JitterSpec::paper_table1()).with_tap(SamplingTap::Improved),
        1e-12,
    );
    assert_eq!(f.to_bits(), direct.to_bits());

    // PowerScan = sizing + the Fig. 11 trade-off grid.
    let scan = PowerScanSpec::paper_design();
    let EvalResponse::Power { sized, points } = engine
        .evaluate(&EvalRequest::PowerScan { scan: scan.clone() })
        .expect("valid request")
    else {
        panic!("power request must yield a power response")
    };
    let bit_rate = Freq::from_gbps(scan.bit_rate_gbps);
    let cell = size_for_jitter(
        PhaseNoiseModel::Hajimiri { eta: scan.eta },
        Voltage::from_volts(scan.swing_v),
        bit_rate,
        scan.n_stages,
        scan.cid,
        scan.sigma_ui_target,
        Current::from_amps(scan.iss_sizing_max_a),
    )
    .expect("the paper point is sizable");
    let sized = sized.expect("the paper point is sizable").to_cell();
    assert_eq!(sized, cell, "sized cell must reconstruct bit-identically");

    let grid = iss_log_grid(
        (
            Current::from_microamps(scan.iss_min_ua),
            Current::from_microamps(scan.iss_max_ua),
        ),
        scan.steps as usize,
    );
    assert_eq!(points.len(), grid.len());
    for (p, iss) in points.iter().zip(&grid) {
        let d = tradeoff_point(
            PhaseNoiseModel::Hajimiri { eta: scan.eta },
            Voltage::from_volts(scan.swing_v),
            bit_rate,
            scan.n_stages,
            scan.cid,
            *iss,
        );
        assert_eq!(p.iss_a.to_bits(), d.iss.amps().to_bits());
        assert_eq!(
            p.ring_power_mw.to_bits(),
            d.ring_power.milliwatts().to_bits()
        );
        assert_eq!(p.sigma_ui.to_bits(), d.sigma_ui.to_bits());
    }
}

#[test]
fn shared_specs_build_exactly_one_context() {
    let engine = Engine::new();
    let spec = ModelSpec::paper_table1();
    let requests = [
        EvalRequest::BerPoint {
            spec: spec.clone(),
            sj: None,
        },
        EvalRequest::BerGrid {
            spec: spec.clone(),
            amps_pp: vec![0.4],
            freqs_norm: vec![0.1],
        },
        EvalRequest::JtolCurve {
            spec,
            freqs_norm: vec![0.1],
            target_ber: 1e-12,
        },
    ];
    for r in engine.evaluate_batch(&requests) {
        r.expect("valid request");
    }
    assert_eq!(
        engine.context_builds(),
        1,
        "three requests over one spec must share one context build"
    );

    // A different spec is a different key — and evictions re-build.
    let engine = Engine::with_config(EngineConfig {
        cache_capacity: 1,
        workers: Some(1),
    });
    for offset in [0.0, 0.01, 0.0] {
        engine
            .evaluate(&EvalRequest::BerPoint {
                spec: ModelSpec::paper_table1().with_freq_offset(offset),
                sj: None,
            })
            .expect("valid request");
    }
    assert_eq!(
        engine.context_builds(),
        3,
        "capacity-1 cache must rebuild after eviction"
    );
}

#[test]
fn cold_probes_on_the_shared_q_table_match_a_fresh_table() {
    // Every probe is a cold context build that borrows the process-wide
    // Q-table; each must answer exactly what the model gives with a table
    // of its own. The specs are `paper_flow` probe corners: tap × CID ×
    // oscillator jitter × signed frequency margin.
    let opt = OptimizeSpec::paper_flow();
    let mut specs = Vec::new();
    for tap in 0..opt.taps.len() as u8 {
        for &cid_max in &opt.cids {
            for ckj_rms in [opt.ckj_lo, 4e-3, 0.015, opt.ckj_hi] {
                for freq_offset in [opt.freq_margin, -0.01, 0.02, -opt.margin_hi] {
                    specs.push(opt.probe_spec(&ProbePoint {
                        tap,
                        cid_max,
                        ckj_rms,
                        freq_offset,
                    }));
                }
            }
        }
    }
    assert_eq!(specs.len(), 64);
    let engine = Engine::with_config(EngineConfig {
        cache_capacity: 8,
        workers: Some(1),
    });
    let fresh = QTable::new();
    for spec in &specs {
        let EvalResponse::Scalar { value } = engine
            .evaluate(&EvalRequest::ber_point(spec.clone()))
            .expect("valid probe")
        else {
            panic!("point request must yield a scalar")
        };
        let direct = spec.build().expect("valid probe").ber_cached(&fresh);
        assert_eq!(value.to_bits(), direct.to_bits(), "{spec:?}");
    }
    assert_eq!(
        engine.context_builds(),
        64,
        "64 distinct specs are 64 cold builds"
    );
}
