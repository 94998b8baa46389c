//! The `optimize` request: the paper's top-down design loop as one
//! evaluation.
//!
//! [`OptimizeSpec`] configures a [`gcco_opt::DesignSearch`] over the
//! `ModelSpec` knobs the paper's flow actually turns — sampling tap,
//! line-code CID bound, oscillator-jitter budget (which the §3.2 sizing
//! chain converts to bias current and channel power), and the required
//! frequency-offset margin. [`run_optimize`] drives the search against a
//! [`ProbeOracle`]: every abstract probe point becomes an ordinary
//! BER-point `ModelSpec`, so an engine-backed oracle journals each probe
//! under its canonical cache key (kill-resumable, shareable) and a
//! router-backed oracle shards them across a cluster — both replaying the
//! exact same probe sequence, because the search itself is deterministic.

use crate::error::GccoError;
use crate::request::check_bit_rate_gbps;
use crate::spec::{ModelSpec, RunDistSpec};
use gcco_noise::PAPER_MW_PER_GBPS_BUDGET;
use gcco_opt::{Combo, DesignSearch, PowerModel, ProbePoint, SearchOutcome, SearchStep};
use gcco_stat::{settling_time_ui, SamplingTap};

/// Maps a tap to the plain index `gcco-opt` combos carry (that crate sits
/// below the API layer and owns no enum types).
pub(crate) fn tap_index(tap: SamplingTap) -> u8 {
    match tap {
        SamplingTap::Standard => 0,
        SamplingTap::Improved => 1,
    }
}

fn tap_from_index(i: u8) -> SamplingTap {
    if i == 1 {
        SamplingTap::Improved
    } else {
        SamplingTap::Standard
    }
}

/// Configuration of one design-space optimization: the jitter environment
/// to design for, the targets to meet, and the search space to look in.
///
/// The search derives every probe from `base` by overriding exactly four
/// knobs — `tap`, `cid_max` (with the geometric run distribution
/// re-derived from it, the same invariant [`ModelSpec::builder`] keeps),
/// `ckj_rms`, and `freq_offset` — so the rest of `base` (input jitter,
/// edge model, grid step, …) defines the fixed environment.
#[derive(Clone, Debug, PartialEq)]
pub struct OptimizeSpec {
    /// The jitter environment every probe derives from.
    pub base: ModelSpec,
    /// The BER every accepted design point must meet.
    pub target_ber: f64,
    /// Power budget the winning design must come in under, mW/Gbit/s.
    pub budget_mw_per_gbps: f64,
    /// Channel data rate for the power roll-up, Gbit/s.
    pub bit_rate_gbps: f64,
    /// Required frequency-offset margin: every jitter candidate must meet
    /// the BER target at `±freq_margin`.
    pub freq_margin: f64,
    /// Cap of the final margin climb (`freq_margin ≤ margin_hi < 0.5`).
    pub margin_hi: f64,
    /// Sampling taps to search, in order.
    pub taps: Vec<SamplingTap>,
    /// CID bounds to search, in order.
    pub cids: Vec<u32>,
    /// Lower edge of the oscillator-jitter climb, UI RMS.
    pub ckj_lo: f64,
    /// Upper edge of the oscillator-jitter climb, UI RMS.
    pub ckj_hi: f64,
    /// Relative bracket width the climbs converge to.
    pub rel_tol: f64,
    /// Seed of the per-combination starting guesses.
    pub seed: u64,
    /// Hard cap on oracle probes across the whole search.
    pub max_probes: u64,
}

impl OptimizeSpec {
    /// The paper's own design question: Table 1 input jitter, BER 1e-12,
    /// the 5 mW/Gbit/s budget at 2.5 Gbit/s, both taps crossed with CID
    /// bounds 4 and 5, and a required offset margin matching the
    /// quad-channel mismatch scale (0.2 %).
    pub fn paper_flow() -> OptimizeSpec {
        OptimizeSpec {
            base: ModelSpec::paper_table1(),
            target_ber: 1e-12,
            budget_mw_per_gbps: PAPER_MW_PER_GBPS_BUDGET,
            bit_rate_gbps: 2.5,
            freq_margin: 0.002,
            margin_hi: 0.05,
            taps: vec![SamplingTap::Standard, SamplingTap::Improved],
            cids: vec![4, 5],
            ckj_lo: 1e-3,
            ckj_hi: 0.05,
            rel_tol: 0.05,
            seed: 1,
            max_probes: 512,
        }
    }

    /// A cut-down [`OptimizeSpec::paper_flow`] for smoke tests and the
    /// `optimize --quick` bench mode: one CID bound, coarser tolerance,
    /// shorter margin climb, tighter probe cap. Still answers the paper's
    /// tap question, in a few dozen probes.
    pub fn quick_flow() -> OptimizeSpec {
        OptimizeSpec {
            cids: vec![5],
            margin_hi: 0.01,
            ckj_lo: 2e-3,
            ckj_hi: 0.04,
            rel_tol: 0.1,
            max_probes: 128,
            ..OptimizeSpec::paper_flow()
        }
    }

    /// The discrete corners of the search, taps crossed with CID bounds
    /// in declaration order.
    pub fn combos(&self) -> Vec<Combo> {
        self.taps
            .iter()
            .flat_map(|&tap| {
                self.cids.iter().map(move |&cid_max| Combo {
                    tap: tap_index(tap),
                    cid_max,
                })
            })
            .collect()
    }

    /// The [`gcco_opt::SearchSpace`] this spec describes, with the power
    /// objective fixed to the paper's §3.2 operating conditions at
    /// `bit_rate_gbps` (the same constants the engine's multi-channel
    /// power roll-up uses).
    pub fn search_space(&self) -> gcco_opt::SearchSpace {
        gcco_opt::SearchSpace {
            combos: self.combos(),
            ckj_lo: self.ckj_lo,
            ckj_hi: self.ckj_hi,
            rel_tol: self.rel_tol,
            freq_margin: self.freq_margin,
            margin_hi: self.margin_hi,
            target_ber: self.target_ber,
            budget_mw_per_gbps: self.budget_mw_per_gbps,
            power: PowerModel::paper(self.bit_rate_gbps),
            seed: self.seed,
            max_probes: self.max_probes,
        }
    }

    /// The `ModelSpec` one abstract probe point evaluates: `base` with the
    /// probe's tap, CID bound (geometric run distribution re-derived),
    /// jitter budget, and frequency offset applied.
    pub fn probe_spec(&self, p: &ProbePoint) -> ModelSpec {
        ModelSpec {
            ckj_rms: p.ckj_rms,
            cid_max: p.cid_max,
            run_dist: RunDistSpec::Geometric(p.cid_max.max(1)),
            tap: tap_from_index(p.tap),
            freq_offset: p.freq_offset,
            ..self.base.clone()
        }
    }

    /// Validates the optimizer configuration as data, including that every
    /// corner probe the search could issue is itself a valid `ModelSpec`.
    ///
    /// # Errors
    ///
    /// [`GccoError::InvalidSpec`] naming the first offence.
    pub fn validate(&self) -> Result<(), GccoError> {
        self.base.validate()?;
        // The CID bound is the knob that shapes the run distribution; a
        // measured-counts base would silently pin it and make the search
        // dimension a no-op, so it is rejected up front.
        if !matches!(self.base.run_dist, RunDistSpec::Geometric(_)) {
            return Err(GccoError::InvalidSpec(
                "optimize searches the line-code CID bound, so the base spec must use a \
                 geometric run distribution (got measured counts)"
                    .to_string(),
            ));
        }
        if !(self.target_ber > 0.0 && self.target_ber < 1.0) {
            return Err(GccoError::InvalidSpec(format!(
                "target_ber must lie in (0, 1), got {}",
                self.target_ber
            )));
        }
        if !(self.budget_mw_per_gbps > 0.0 && self.budget_mw_per_gbps.is_finite()) {
            return Err(GccoError::InvalidSpec(format!(
                "budget_mw_per_gbps must be a positive finite number, got {}",
                self.budget_mw_per_gbps
            )));
        }
        check_bit_rate_gbps(self.bit_rate_gbps)?;
        if !(self.ckj_lo > 0.0 && self.ckj_lo < self.ckj_hi && self.ckj_hi.is_finite()) {
            return Err(GccoError::InvalidSpec(format!(
                "jitter bracket needs 0 < ckj_lo < ckj_hi, got [{}, {}]",
                self.ckj_lo, self.ckj_hi
            )));
        }
        if !(self.rel_tol > 0.0 && self.rel_tol <= 1.0) {
            return Err(GccoError::InvalidSpec(format!(
                "rel_tol must lie in (0, 1], got {}",
                self.rel_tol
            )));
        }
        if !(self.freq_margin > 0.0 && self.freq_margin <= self.margin_hi && self.margin_hi < 0.5) {
            return Err(GccoError::InvalidSpec(format!(
                "margins need 0 < freq_margin <= margin_hi < 0.5, got {} and {}",
                self.freq_margin, self.margin_hi
            )));
        }
        if self.taps.is_empty() || self.cids.is_empty() {
            return Err(GccoError::InvalidSpec(
                "taps and cids must each name at least one value".to_string(),
            ));
        }
        let combos = self.combos();
        if combos.len() > 64 {
            return Err(GccoError::InvalidSpec(format!(
                "search space has {} corners; the cap is 64",
                combos.len()
            )));
        }
        for (i, c) in combos.iter().enumerate() {
            if combos[..i].contains(c) {
                return Err(GccoError::InvalidSpec(format!(
                    "duplicate search corner (tap {}, cid_max {})",
                    c.tap, c.cid_max
                )));
            }
        }
        if !(2..=100_000).contains(&self.max_probes) {
            return Err(GccoError::InvalidSpec(format!(
                "max_probes must lie in [2, 100000], got {}",
                self.max_probes
            )));
        }
        // Every probe the search could issue lives on a corner of the
        // (combo × jitter bracket × margin) box; the spec checks are all
        // interval constraints, so validating the corners covers the
        // interior.
        for combo in &combos {
            for ckj_rms in [self.ckj_lo, self.ckj_hi] {
                for freq_offset in [self.freq_margin, self.margin_hi] {
                    let probe = ProbePoint {
                        tap: combo.tap,
                        cid_max: combo.cid_max,
                        ckj_rms,
                        freq_offset,
                    };
                    self.probe_spec(&probe).validate().map_err(|e| {
                        GccoError::InvalidSpec(format!(
                            "probe at (tap {}, cid {}, ckj {}, offset {}): {}",
                            combo.tap,
                            combo.cid_max,
                            ckj_rms,
                            freq_offset,
                            e.detail()
                        ))
                    })?;
                }
            }
        }
        Ok(())
    }
}

/// Answers probe batches for [`run_optimize`]. Implementations range from
/// a closure over a warm [`crate::Engine`] (journaling each probe through
/// the store tier) to a TCP client fanning the batch out across a
/// `gcco-router` cluster — the search cannot tell them apart, which is
/// the shardability contract.
pub trait ProbeOracle {
    /// Evaluates the BER of each probe spec, in order — exactly the value
    /// a `ber_point` request (no SJ override) for that spec returns.
    ///
    /// # Errors
    ///
    /// Any [`GccoError`]; it aborts the optimization as-is.
    fn probe_batch(&mut self, specs: &[ModelSpec]) -> Result<Vec<f64>, GccoError>;

    /// How many probes so far were answered from a persistent store
    /// (0 when the oracle does not track that).
    fn store_hits(&self) -> u64;
}

/// One corner's result in an [`OptimizeOut`].
#[derive(Clone, Debug, PartialEq)]
pub struct ComboReportOut {
    /// The corner's sampling tap.
    pub tap: SamplingTap,
    /// The corner's CID bound.
    pub cid_max: u32,
    /// Largest oscillator-jitter budget demonstrated feasible at the
    /// required margin, or `None` when even `ckj_lo` failed.
    pub ckj_rms: Option<f64>,
    /// Channel power at that budget, or `None` when infeasible or
    /// unsizeable.
    pub mw_per_gbps: Option<f64>,
    /// Worst BER observed at the accepted budget's probe pair.
    pub worst_ber: Option<f64>,
    /// Oracle probes this corner consumed.
    pub probes: u64,
}

/// The recovered design, with its evidence.
#[derive(Clone, Debug, PartialEq)]
pub struct BestDesignOut {
    /// The complete recovered operating point: `base` with the winning
    /// tap, CID bound, and jitter budget applied, at the base frequency
    /// offset. Feed it straight back into any other request kind.
    pub spec: ModelSpec,
    /// Channel power at the operating point, mW/Gbit/s.
    pub mw_per_gbps: f64,
    /// Worst BER over the winning `±freq_margin` evidence pair.
    pub worst_ber: f64,
    /// Largest frequency-offset margin demonstrated feasible.
    pub margin: f64,
    /// Closed-form settling time of the recovered design at `margin`
    /// offset, in UI — the lock-time evidence.
    pub settling_ui: f64,
}

/// The optimizer's response payload.
#[derive(Clone, Debug, PartialEq)]
pub struct OptimizeOut {
    /// The cheapest feasible design under the power budget, or `None`
    /// when no corner produced one.
    pub best: Option<BestDesignOut>,
    /// Every corner's result, in search order (corners never reached
    /// before probe exhaustion are absent).
    pub per_combo: Vec<ComboReportOut>,
    /// Total oracle probes consumed.
    pub probes: u64,
    /// Probes answered from a persistent store — a run-local statistic
    /// (it depends on what was journaled before the run), deliberately
    /// excluded from deterministic report files.
    pub store_hits: u64,
    /// `false` when the probe cap ran out before the search finished.
    pub converged: bool,
}

/// Runs the full optimization: validates `spec`, drives the deterministic
/// search, evaluates every probe batch through `oracle`, and assembles
/// the evidence-carrying report.
///
/// Two oracles that answer the same BERs produce byte-identical
/// `OptimizeOut`s up to `store_hits` — serial or sharded, cold or warm.
///
/// # Errors
///
/// [`GccoError::InvalidSpec`] on a bad configuration; any oracle error
/// propagates as-is.
pub fn run_optimize(
    spec: &OptimizeSpec,
    oracle: &mut dyn ProbeOracle,
) -> Result<OptimizeOut, GccoError> {
    spec.validate()?;
    let mut search = DesignSearch::new(spec.search_space());
    let outcome = loop {
        match search.next_step() {
            SearchStep::Done(outcome) => break outcome,
            SearchStep::Probes(batch) => {
                let specs: Vec<ModelSpec> = batch.iter().map(|p| spec.probe_spec(p)).collect();
                let bers = oracle.probe_batch(&specs)?;
                if bers.len() != batch.len() {
                    return Err(GccoError::Io(format!(
                        "oracle answered {} of {} probes",
                        bers.len(),
                        batch.len()
                    )));
                }
                search.tell(&bers);
            }
        }
    };
    assemble(spec, outcome, oracle.store_hits())
}

fn assemble(
    spec: &OptimizeSpec,
    outcome: SearchOutcome,
    store_hits: u64,
) -> Result<OptimizeOut, GccoError> {
    let best = match outcome.best {
        None => None,
        Some(b) => {
            let recovered = spec.probe_spec(&ProbePoint {
                tap: b.tap,
                cid_max: b.cid_max,
                ckj_rms: b.ckj_rms,
                freq_offset: spec.base.freq_offset,
            });
            // Lock-time evidence at the demonstrated margin: the worst
            // offset the design was shown to tolerate.
            let at_margin = ModelSpec {
                freq_offset: b.margin,
                ..recovered.clone()
            };
            let settling_ui = settling_time_ui(&at_margin.build()?);
            Some(BestDesignOut {
                spec: recovered,
                mw_per_gbps: b.mw_per_gbps,
                worst_ber: b.worst_ber,
                margin: b.margin,
                settling_ui,
            })
        }
    };
    let per_combo = outcome
        .per_combo
        .into_iter()
        .map(|r| ComboReportOut {
            tap: tap_from_index(r.tap),
            cid_max: r.cid_max,
            ckj_rms: r.ckj_rms,
            mw_per_gbps: r.mw_per_gbps,
            worst_ber: r.worst_ber,
            probes: r.probes,
        })
        .collect();
    Ok(OptimizeOut {
        best,
        per_combo,
        probes: outcome.probes,
        store_hits,
        converged: outcome.converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic oracle with a per-tap feasibility edge, like the one
    /// the `gcco-opt` unit tests use — here expressed over `ModelSpec`s.
    struct EdgeOracle {
        batches: u64,
    }

    impl ProbeOracle for EdgeOracle {
        fn probe_batch(&mut self, specs: &[ModelSpec]) -> Result<Vec<f64>, GccoError> {
            self.batches += 1;
            Ok(specs
                .iter()
                .map(|s| {
                    let lim = if s.tap == SamplingTap::Improved {
                        0.022
                    } else {
                        0.010
                    };
                    if s.ckj_rms <= lim && s.freq_offset.abs() <= 0.03 {
                        1e-13
                    } else {
                        1e-3
                    }
                })
                .collect())
        }

        fn store_hits(&self) -> u64 {
            0
        }
    }

    #[test]
    fn paper_flow_validates_and_enumerates_corners() {
        let spec = OptimizeSpec::paper_flow();
        spec.validate().expect("the shipped default must be valid");
        assert_eq!(
            spec.combos(),
            vec![
                Combo { tap: 0, cid_max: 4 },
                Combo { tap: 0, cid_max: 5 },
                Combo { tap: 1, cid_max: 4 },
                Combo { tap: 1, cid_max: 5 },
            ]
        );
        OptimizeSpec::quick_flow().validate().expect("quick too");
    }

    #[test]
    fn probe_specs_re_derive_the_run_dist_and_keep_the_environment() {
        let spec = OptimizeSpec::paper_flow();
        let p = ProbePoint {
            tap: 1,
            cid_max: 7,
            ckj_rms: 0.02,
            freq_offset: -0.003,
        };
        let derived = spec.probe_spec(&p);
        assert_eq!(derived.tap, SamplingTap::Improved);
        assert_eq!(derived.cid_max, 7);
        assert_eq!(derived.run_dist, RunDistSpec::Geometric(7));
        assert_eq!(derived.ckj_rms, 0.02);
        assert_eq!(derived.freq_offset, -0.003);
        // The environment rides along untouched.
        assert_eq!(derived.dj_pp, spec.base.dj_pp);
        assert_eq!(derived.rj_rms, spec.base.rj_rms);
        assert_eq!(derived.grid_step, spec.base.grid_step);
    }

    #[test]
    fn run_optimize_recovers_the_synthetic_edge() {
        let spec = OptimizeSpec::quick_flow();
        let mut oracle = EdgeOracle { batches: 0 };
        let out = run_optimize(&spec, &mut oracle).expect("runs");
        assert!(out.converged);
        assert_eq!(out.probes % 2, 0, "probes always come in ± pairs");
        let best = out.best.expect("the improved tap is feasible");
        assert_eq!(best.spec.tap, SamplingTap::Improved);
        assert!(best.spec.ckj_rms <= 0.022 && 0.022 <= best.spec.ckj_rms * (1.0 + spec.rel_tol));
        assert!(best.margin >= spec.freq_margin);
        assert!(best.settling_ui > 0.0);
        assert!(best.mw_per_gbps < spec.budget_mw_per_gbps);
        // Both taps were explored and reported.
        assert_eq!(out.per_combo.len(), 2);
        assert_eq!(out.per_combo[0].tap, SamplingTap::Standard);
        assert!(out.per_combo.iter().map(|c| c.probes).sum::<u64>() <= out.probes);
    }

    #[test]
    fn identical_oracles_replay_bit_identical_reports() {
        let spec = OptimizeSpec::quick_flow();
        let run = || {
            let mut oracle = EdgeOracle { batches: 0 };
            run_optimize(&spec, &mut oracle).expect("runs")
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn validation_names_the_offence() {
        let ok = OptimizeSpec::paper_flow();
        let cases: Vec<(OptimizeSpec, &str)> = vec![
            (
                OptimizeSpec {
                    base: ModelSpec {
                        run_dist: RunDistSpec::Counts(vec![0, 3]),
                        ..ModelSpec::paper_table1()
                    },
                    ..ok.clone()
                },
                "geometric",
            ),
            (
                OptimizeSpec {
                    target_ber: 0.0,
                    ..ok.clone()
                },
                "target_ber",
            ),
            (
                OptimizeSpec {
                    ckj_lo: 0.1,
                    ckj_hi: 0.05,
                    ..ok.clone()
                },
                "jitter bracket",
            ),
            (
                OptimizeSpec {
                    freq_margin: 0.2,
                    margin_hi: 0.1,
                    ..ok.clone()
                },
                "margins",
            ),
            (
                OptimizeSpec {
                    margin_hi: 0.6,
                    ..ok.clone()
                },
                "margins",
            ),
            (
                OptimizeSpec {
                    cids: vec![],
                    ..ok.clone()
                },
                "at least one",
            ),
            (
                OptimizeSpec {
                    cids: vec![5, 5],
                    ..ok.clone()
                },
                "duplicate",
            ),
            (
                OptimizeSpec {
                    max_probes: 1,
                    ..ok.clone()
                },
                "max_probes",
            ),
            (
                OptimizeSpec {
                    cids: vec![0],
                    ..ok.clone()
                },
                "probe at",
            ),
        ];
        for (bad, needle) in cases {
            let err = bad.validate().expect_err("must be rejected");
            assert!(
                err.detail().contains(needle),
                "expected {needle:?} in {:?}",
                err.detail()
            );
        }
    }
}
