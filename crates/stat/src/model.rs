//! The statistical BER model of the gated-oscillator CDR (paper §3.1).
//!
//! # Model
//!
//! The gated oscillator resynchronizes on **every data transition**, so the
//! analysis is per *run* of identical bits. Take the transition opening a
//! run of length `L` as the time origin. The recovered clock then produces
//! rising (sampling) edges at
//!
//! ```text
//! X_k = (k − 1/2 + φ_tap) / (1 + ε) + N(0, σ_osc(k))        [UI]
//! ```
//!
//! where `φ_tap` is the sampling-tap offset (0 standard, −1/8 improved),
//! `ε = (f_osc − f_data)/f_data` the relative frequency offset, and
//! `σ_osc(k) = ckj·√(k/CIDmax)` the random-walk oscillator jitter.
//!
//! The run ends with the next transition at
//!
//! ```text
//! B = L + ΔJ,   ΔJ = DJ ⊕ SJdrift ⊕ N(0, σ_rj)              [UI]
//! ```
//!
//! Correct recovery of the run requires exactly `L` sampling edges before
//! `B`: the `L`-th edge must come **before** the closing transition
//! (otherwise the last bit of the run is swallowed — a *missing pulse*) and
//! the `(L+1)`-th edge **after** it (otherwise an extra bit is inserted —
//! a *bit slip*):
//!
//! ```text
//! P_err(L) = P(X_L ≥ B) + P(X_{L+1} ≤ B)
//! ```
//!
//! Both probabilities are evaluated by convolving the bounded jitter PDFs
//! on a grid and folding the Gaussian parts in analytically
//! ([`Pdf::gaussian_exceed_above`]), which keeps 10⁻¹²-class tails exact.
//! The BER weights each run length by its frequency:
//! `BER = Σ_L P_run(L)/E[L] · P_err(L)`.
//!
//! ## Edge-correlation convention
//!
//! [`EdgeModel::ResyncReferenced`] (the default, and the convention the
//! paper's Fig. 9/10/17 are only reproducible with) references the closing
//! transition's DJ/RJ to the opening one — i.e. the bounded DJ applies once
//! with its specified peak-to-peak value, reflecting that low-frequency
//! deterministic effects are common to adjacent edges. SJ is *always*
//! handled with the exact drift term `A_pp·|sin(π·f_norm·L)|`.
//! [`EdgeModel::IndependentEdges`] treats the two transitions' DJ/RJ as
//! independent (DJ difference = triangular of twice the width, RJ variance
//! doubled) — a pessimistic bound useful for sensitivity studies.

use crate::erf::QTable;
use crate::pdf::{ConvScratch, Pdf};
use crate::spec::{JitterSpec, SamplingTap};
use gcco_units::Ui;
use std::cell::RefCell;
use std::fmt;

/// Per-thread reusable buffers for the BER hot path: the sinusoidal
/// component PDF, the box-convolution intermediates, and the prefix-sum
/// workspace. One instance lives in a thread-local so repeated `ber()`
/// evaluations — and every worker thread of a parallel sweep — perform no
/// per-call allocation. Contents never affect results.
#[derive(Debug, Default)]
struct BerScratch {
    sin: Pdf,
    tmp: Pdf,
    bounded: Pdf,
    /// Coarse-grid DJ base for the adaptive-step path (wide sinusoids),
    /// rebuilt in place instead of allocating a fresh `Pdf` per run length.
    coarse: Pdf,
    conv: ConvScratch,
}

thread_local! {
    static SCRATCH: RefCell<BerScratch> = RefCell::new(BerScratch::default());
}

/// How the two transitions bounding a run share their DJ/RJ (see module
/// docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EdgeModel {
    /// Closing-edge jitter referenced to the resync edge (paper convention).
    #[default]
    ResyncReferenced,
    /// Opening and closing transitions jittered independently (pessimistic).
    IndependentEdges,
}

/// Distribution of run lengths (consecutive identical digits) in the data.
#[derive(Clone, Debug, PartialEq)]
pub struct RunDist {
    /// `probs[l]` = P(run length = l); index 0 unused (zero).
    probs: Vec<f64>,
    mean: f64,
}

impl RunDist {
    /// Geometric run-length distribution `P(L) ∝ 2^−L` truncated at
    /// `max_len` — the distribution of uncoded random data, truncated at
    /// the line code's CID bound.
    ///
    /// # Panics
    ///
    /// Panics if `max_len` is zero.
    pub fn geometric(max_len: u32) -> RunDist {
        assert!(max_len >= 1, "max_len must be at least 1");
        let mut probs = vec![0.0; max_len as usize + 1];
        let mut total = 0.0;
        for (l, p) in probs.iter_mut().enumerate().skip(1) {
            *p = 0.5f64.powi(l as i32);
            total += *p;
        }
        for p in &mut probs {
            *p /= total;
        }
        let mean = probs
            .iter()
            .enumerate()
            .map(|(l, p)| l as f64 * p)
            .sum::<f64>();
        RunDist { probs, mean }
    }

    /// Builds the distribution from measured run-length counts
    /// (`counts[l]` = number of runs of length `l`).
    ///
    /// # Panics
    ///
    /// Panics if all counts are zero, or with "run-length counts sum past
    /// u64::MAX" if their total does not fit a `u64` (in every build
    /// profile: a wrapped total would give run probabilities above 1).
    pub fn from_counts(counts: &[u64]) -> RunDist {
        let total = counts
            .iter()
            .try_fold(0u64, |total, &c| total.checked_add(c))
            .expect("run-length counts sum past u64::MAX");
        assert!(total > 0, "no runs in the input");
        let probs: Vec<f64> = counts.iter().map(|&c| c as f64 / total as f64).collect();
        let mean = probs
            .iter()
            .enumerate()
            .map(|(l, p)| l as f64 * p)
            .sum::<f64>();
        RunDist { probs, mean }
    }

    /// Builds the distribution from a measured [`gcco_signal::RunLengths`]
    /// histogram.
    pub fn from_run_lengths(runs: &gcco_signal::RunLengths) -> RunDist {
        let counts: Vec<u64> = (0..=runs.max()).map(|l| runs.count(l)).collect();
        RunDist::from_counts(&counts)
    }

    /// The longest run with non-zero probability.
    pub fn max_len(&self) -> u32 {
        (self.probs.len() - 1) as u32
    }

    /// `P(run length = l)`.
    pub fn prob(&self, l: u32) -> f64 {
        self.probs.get(l as usize).copied().unwrap_or(0.0)
    }

    /// Mean run length `E[L]` (= bits per transition).
    pub fn mean(&self) -> f64 {
        self.mean
    }
}

impl Default for RunDist {
    fn default() -> RunDist {
        RunDist::geometric(5)
    }
}

/// Per-run-length error decomposition returned by
/// [`GccoStatModel::run_error_prob`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunErrorProb {
    /// Probability the `L`-th sampling edge arrives after the closing
    /// transition (last bit of the run swallowed).
    pub missing: f64,
    /// Probability the `(L+1)`-th sampling edge arrives before the closing
    /// transition (extra bit inserted).
    pub slip: f64,
}

impl RunErrorProb {
    /// Total error probability for the run.
    pub fn total(&self) -> f64 {
        self.missing + self.slip
    }
}

/// Statistical BER model of the gated-oscillator CDR.
///
/// # Examples
///
/// ```
/// use gcco_stat::{GccoStatModel, JitterSpec, SamplingTap};
/// use gcco_units::Ui;
///
/// // Paper Fig. 10 vs Fig. 17 conditions: Table 1 jitter, 1 % frequency
/// // offset (oscillator slow, as in Fig. 14), slip term excluded exactly
/// // as Fig. 17 states.
/// let spec = JitterSpec::paper_table1().with_sj(Ui::new(0.3), 0.4);
/// let standard = GccoStatModel::new(spec.clone())
///     .with_freq_offset(-0.01)
///     .with_slip_term(false);
/// let improved = standard.clone().with_tap(SamplingTap::Improved);
/// assert!(improved.ber() < standard.ber(),
///         "the improved tap must lower the BER under frequency offset");
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct GccoStatModel {
    spec: JitterSpec,
    tap: SamplingTap,
    freq_offset: f64,
    run_dist: RunDist,
    edge_model: EdgeModel,
    include_slip: bool,
    gating_tau_ui: Option<f64>,
    grid_step: f64,
    /// Cached amplitude/offset-independent core: the DJ base PDF at the
    /// nominal grid step (uniform, or self-convolved for independent edges)
    /// and the per-edge RJ variance. Rebuilt by the builders that can
    /// change it; every other sweep axis (SJ amplitude/frequency, frequency
    /// offset, phase, tap) reuses it untouched.
    dj_base: Pdf,
    rj_var: f64,
}

impl GccoStatModel {
    /// Creates a model with the given jitter spec, standard tap, zero
    /// frequency offset, and a geometric run-length distribution truncated
    /// at the spec's `cid_max`.
    pub fn new(spec: JitterSpec) -> GccoStatModel {
        let run_dist = RunDist::geometric(spec.cid_max.max(1));
        let grid_step = 1e-3;
        let (dj_base, rj_var) = Self::build_dj_base(&spec, EdgeModel::ResyncReferenced, grid_step);
        GccoStatModel {
            spec,
            tap: SamplingTap::Standard,
            freq_offset: 0.0,
            run_dist,
            edge_model: EdgeModel::ResyncReferenced,
            include_slip: true,
            gating_tau_ui: None,
            grid_step,
            dj_base,
            rj_var,
        }
    }

    /// DJ base PDF (per the edge-correlation convention) at `step`, plus
    /// the per-edge Gaussian variance to fold in analytically.
    fn build_dj_base(spec: &JitterSpec, edge_model: EdgeModel, step: f64) -> (Pdf, f64) {
        let dj_pp = spec.dj_pp.value();
        match edge_model {
            EdgeModel::ResyncReferenced => (Pdf::uniform(dj_pp, step), spec.rj_rms.value().powi(2)),
            EdgeModel::IndependentEdges => (
                Pdf::uniform(dj_pp, step).convolve_box(dj_pp),
                2.0 * spec.rj_rms.value().powi(2),
            ),
        }
    }

    /// Rebuilds the cached DJ core after a builder changed one of its
    /// inputs (spec, edge model or grid step).
    fn refresh_dj_base(&mut self) {
        let (dj_base, rj_var) = Self::build_dj_base(&self.spec, self.edge_model, self.grid_step);
        self.dj_base = dj_base;
        self.rj_var = rj_var;
    }

    /// Replaces the jitter specification, keeping every other setting
    /// (tap, offset, run distribution, …).
    pub fn with_spec(mut self, spec: JitterSpec) -> GccoStatModel {
        self.spec = spec;
        self.refresh_dj_base();
        self
    }

    /// Selects the recovered-clock tap (standard or improved).
    pub fn with_tap(mut self, tap: SamplingTap) -> GccoStatModel {
        self.tap = tap;
        self
    }

    /// Sets the relative oscillator frequency offset
    /// `ε = (f_osc − f_data)/f_data` (e.g. `0.01` for +1 %).
    ///
    /// # Panics
    ///
    /// Panics unless `−0.5 < ε < 0.5`.
    pub fn with_freq_offset(mut self, epsilon: f64) -> GccoStatModel {
        assert!(
            epsilon.is_finite() && epsilon.abs() < 0.5,
            "unreasonable frequency offset {epsilon}"
        );
        self.freq_offset = epsilon;
        self
    }

    /// Replaces the run-length distribution (e.g. with a measured PRBS7 or
    /// 8b10b histogram).
    pub fn with_run_dist(mut self, run_dist: RunDist) -> GccoStatModel {
        self.run_dist = run_dist;
        self
    }

    /// Selects the edge-correlation convention.
    pub fn with_edge_model(mut self, edge_model: EdgeModel) -> GccoStatModel {
        self.edge_model = edge_model;
        self.refresh_dj_base();
        self
    }

    /// Enables or disables the bit-slip term `P(X_{L+1} ≤ B)`.
    ///
    /// The paper's Fig. 17 explicitly excludes "erroneous sampling of the
    /// next bit due to frequency offset"; disable this to replicate that
    /// figure exactly.
    pub fn with_slip_term(mut self, include: bool) -> GccoStatModel {
        self.include_slip = include;
        self
    }

    /// Enables the **gating kill margin** with the given edge-detector
    /// delay, expressed in oscillator unit intervals (the paper's design
    /// point is `τ = 0.75`).
    ///
    /// The paper's Matlab model (and this model's default) treats the
    /// closing transition itself as the missing-pulse boundary. The
    /// gate-level model shows the real boundary is earlier: when the
    /// closing edge freezes the ring, any clock edge whose wavefront has
    /// not yet left the gating stage — everything within `T_osc/2` of the
    /// freeze — is killed, so the last usable sampling instant is
    ///
    /// ```text
    /// B_eff = B − (τ − 1/2)·T_osc
    /// ```
    ///
    /// i.e. `τ − 0.5` oscillator UI of right-side eye margin is lost
    /// (0.25 UI at the paper's τ = 0.75). Enabling this reconciles the
    /// statistical model with the event-driven simulation; it also shows
    /// why shorter delay lines (τ → T/2⁺) and the improved −T/8 tap widen
    /// the usable eye. See `EXPERIMENTS.md` for the full discussion.
    ///
    /// # Panics
    ///
    /// Panics unless `0.5 ≤ tau_ui < 1.0` (the paper's validity window).
    pub fn with_gating_margin(mut self, tau_ui: f64) -> GccoStatModel {
        assert!(
            (0.5..1.0).contains(&tau_ui),
            "tau {tau_ui} outside the [0.5, 1.0) design window"
        );
        self.gating_tau_ui = Some(tau_ui);
        self
    }

    /// Overrides the PDF grid step (UI). Smaller is more accurate and
    /// slower.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < step ≤ 0.01`.
    pub fn with_grid_step(mut self, step: f64) -> GccoStatModel {
        assert!(step > 0.0 && step <= 0.01, "grid step {step} out of range");
        self.grid_step = step;
        self.refresh_dj_base();
        self
    }

    /// The jitter specification.
    pub fn spec(&self) -> &JitterSpec {
        &self.spec
    }

    /// The sampling tap.
    pub fn tap(&self) -> SamplingTap {
        self.tap
    }

    /// The relative frequency offset.
    pub fn freq_offset(&self) -> f64 {
        self.freq_offset
    }

    /// The run-length distribution.
    pub fn run_dist(&self) -> &RunDist {
        &self.run_dist
    }

    /// The edge-correlation convention.
    pub fn edge_model(&self) -> EdgeModel {
        self.edge_model
    }

    /// Error probabilities for a run of length `l` under explicit SJ and
    /// frequency-offset values — the shared core behind every public BER
    /// entry point. `tab` selects the exact `Q` (None) or the precomputed
    /// table fast path (Some); `scratch` supplies reusable buffers.
    ///
    /// The bounded (gridded) closing-edge displacement PDF combines the
    /// cached DJ base with the run-dependent sinusoidal drift via a box
    /// convolution; the grid step adapts to the total bounded width
    /// (≤ 2048 bins) so wide sinusoidal sweeps stay cheap, and the deep
    /// tails are exact anyway because the Gaussian part is folded in
    /// analytically.
    #[allow(clippy::too_many_arguments)]
    fn run_error_prob_eval(
        &self,
        l: u32,
        extra_phase: f64,
        sj_pp: f64,
        sj_freq: f64,
        freq_offset: f64,
        tab: Option<&QTable>,
        scratch: &mut BerScratch,
    ) -> RunErrorProb {
        assert!(l >= 1, "run length must be at least 1");
        let dj_pp = self.spec.dj_pp.value();
        let sj_amp = sj_pp * (std::f64::consts::PI * sj_freq * l as f64).sin().abs();
        let dj_width = match self.edge_model {
            EdgeModel::ResyncReferenced => dj_pp,
            EdgeModel::IndependentEdges => 2.0 * dj_pp,
        };
        let width = dj_width + 2.0 * sj_amp;
        let step = self.grid_step.max(width / 2048.0);
        let rj_var = self.rj_var;

        // DJ base: cached at the nominal step, rebuilt only when a very
        // wide sinusoid forces a coarser adaptive grid — and then into the
        // reusable scratch buffers rather than fresh allocations (this path
        // runs once per run length per JTOL bisection probe). The in-place
        // builders produce exactly what `build_dj_base` produces.
        let dj_base: &Pdf = if step > self.grid_step {
            match self.edge_model {
                EdgeModel::ResyncReferenced => {
                    scratch.coarse.set_uniform(dj_pp, step);
                }
                EdgeModel::IndependentEdges => {
                    scratch.tmp.set_uniform(dj_pp, step);
                    scratch
                        .tmp
                        .convolve_box_into(dj_pp, &mut scratch.conv, &mut scratch.coarse);
                }
            }
            &scratch.coarse
        } else {
            &self.dj_base
        };
        let bounded: &Pdf = if sj_amp > step {
            scratch.sin.set_sinusoidal(2.0 * sj_amp, step);
            match self.edge_model {
                EdgeModel::ResyncReferenced => {
                    scratch
                        .sin
                        .convolve_box_into(dj_pp, &mut scratch.conv, &mut scratch.bounded);
                }
                EdgeModel::IndependentEdges => {
                    scratch
                        .sin
                        .convolve_box_into(dj_pp, &mut scratch.conv, &mut scratch.tmp);
                    scratch
                        .tmp
                        .convolve_box_into(dj_pp, &mut scratch.conv, &mut scratch.bounded);
                }
            }
            &scratch.bounded
        } else {
            dj_base
        };

        // Effective boundary: the closing transition, pulled in by the
        // gating kill margin when that refinement is enabled. The margin
        // depends on the tap: a clock edge survives the freeze only if its
        // wavefront has already left the gating stage, i.e. the edge lies
        // within `k/8·T_osc` of the freeze for a tap `k` stages after the
        // gate (4 standard, 3 improved). The improved tap therefore gains
        // kill margin (+T/8) at exactly the rate it samples earlier — its
        // missing-pulse rate is unchanged, only its jitter margins and
        // slip exposure move (which is what Figs. 16/17 show and what the
        // event-driven model confirms).
        let kill = self.gating_tau_ui.map_or(0.0, |tau| {
            (tau - 0.5 - self.tap.phase_offset_ui()) / (1.0 + freq_offset)
        });
        let boundary = l as f64 - kill;
        let edge_position = |k: u32| {
            (k as f64 - 0.5 + self.tap.phase_offset_ui() + extra_phase) / (1.0 + freq_offset)
        };

        let mu_l = edge_position(l);
        let sigma_l = (self.spec.osc_sigma_ui(l).powi(2) + rj_var).sqrt();
        // Missing pulse: X_L ≥ B_eff + ΔJ  ⇔  ΔJ − N(0,σ) ≤ μ_L − B_eff.
        let missing = match tab {
            None => bounded.gaussian_exceed_below(mu_l - boundary, sigma_l),
            Some(t) => bounded.gaussian_exceed_below_with(mu_l - boundary, sigma_l, t),
        };

        let slip = if self.include_slip {
            let mu_next = edge_position(l + 1);
            let sigma_next = (self.spec.osc_sigma_ui(l + 1).powi(2) + rj_var).sqrt();
            // Bit slip: X_{L+1} ≤ B_eff + ΔJ  ⇔  ΔJ + N(0,σ) ≥ μ_{L+1} − B_eff.
            match tab {
                None => bounded.gaussian_exceed_above(mu_next - boundary, sigma_next),
                Some(t) => bounded.gaussian_exceed_above_with(mu_next - boundary, sigma_next, t),
            }
        } else {
            0.0
        };

        RunErrorProb { missing, slip }
    }

    /// Error probabilities for a run of length `l` with an additional
    /// sampling-phase offset (used for bathtub scans).
    pub fn run_error_prob_at_phase(&self, l: u32, extra_phase: f64) -> RunErrorProb {
        SCRATCH.with(|s| {
            self.run_error_prob_eval(
                l,
                extra_phase,
                self.spec.sj_pp.value(),
                self.spec.sj_freq_norm,
                self.freq_offset,
                None,
                &mut s.borrow_mut(),
            )
        })
    }

    /// Error probabilities for a run of length `l`.
    pub fn run_error_prob(&self, l: u32) -> RunErrorProb {
        self.run_error_prob_at_phase(l, 0.0)
    }

    /// The weighted sum over run lengths behind every `ber*` entry point.
    fn ber_eval(
        &self,
        extra_phase: f64,
        sj_pp: f64,
        sj_freq: f64,
        freq_offset: f64,
        tab: Option<&QTable>,
    ) -> f64 {
        let runs_per_bit = 1.0 / self.run_dist.mean();
        SCRATCH.with(|s| {
            let scratch = &mut s.borrow_mut();
            let mut ber = 0.0;
            for l in 1..=self.run_dist.max_len() {
                let p_run = self.run_dist.prob(l);
                if p_run == 0.0 {
                    continue;
                }
                ber += p_run
                    * runs_per_bit
                    * self
                        .run_error_prob_eval(
                            l,
                            extra_phase,
                            sj_pp,
                            sj_freq,
                            freq_offset,
                            tab,
                            scratch,
                        )
                        .total();
            }
            ber.min(1.0)
        })
    }

    /// Bit error ratio with an additional sampling-phase offset in UI
    /// (positive = later sampling).
    pub fn ber_at_phase(&self, extra_phase: f64) -> f64 {
        self.ber_eval(
            extra_phase,
            self.spec.sj_pp.value(),
            self.spec.sj_freq_norm,
            self.freq_offset,
            None,
        )
    }

    /// Bit error ratio under the configured conditions.
    pub fn ber(&self) -> f64 {
        self.ber_at_phase(0.0)
    }

    /// Bit error ratio with the sinusoidal jitter overridden to
    /// `amplitude_pp` at `freq_norm`, **without cloning the model** —
    /// returns exactly what
    /// `self.clone().with_spec(spec.with_sj(amplitude_pp, freq_norm)).ber()`
    /// would, but reuses the cached DJ core. This is the JTOL bisection
    /// workhorse (tens of evaluations per tolerance point).
    ///
    /// `tab` selects the Gaussian-tail path: `None` evaluates the exact
    /// `Q` sum, `Some` uses the precomputed [`QTable`] fast path (~1e-9
    /// relative deviation; see [`Pdf::gaussian_exceed_above_with`]).
    ///
    /// # Panics
    ///
    /// Panics on a non-positive/non-finite `freq_norm` (mirroring
    /// [`JitterSpec::with_sj`]).
    pub fn ber_at_sj(&self, amplitude_pp: Ui, freq_norm: f64, tab: Option<&QTable>) -> f64 {
        assert!(
            freq_norm > 0.0 && freq_norm.is_finite(),
            "invalid normalized SJ frequency {freq_norm}"
        );
        self.ber_eval(0.0, amplitude_pp.value(), freq_norm, self.freq_offset, tab)
    }

    /// Bit error ratio with the oscillator frequency offset overridden to
    /// `epsilon`, without cloning the model (the FTOL bisection workhorse).
    ///
    /// # Panics
    ///
    /// Panics unless `−0.5 < ε < 0.5` (mirroring
    /// [`GccoStatModel::with_freq_offset`]).
    pub fn ber_at_offset(&self, epsilon: f64) -> f64 {
        assert!(
            epsilon.is_finite() && epsilon.abs() < 0.5,
            "unreasonable frequency offset {epsilon}"
        );
        self.ber_eval(
            0.0,
            self.spec.sj_pp.value(),
            self.spec.sj_freq_norm,
            epsilon,
            None,
        )
    }

    /// [`GccoStatModel::ber`] with the [`QTable`] fast path (used by sweep
    /// grids where the same model is evaluated at thousands of points).
    pub fn ber_cached(&self, tab: &QTable) -> f64 {
        self.ber_eval(
            0.0,
            self.spec.sj_pp.value(),
            self.spec.sj_freq_norm,
            self.freq_offset,
            Some(tab),
        )
    }
}

impl fmt::Display for GccoStatModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "GccoStatModel({}, tap {}, ε = {:+.4}%)",
            self.spec,
            self.tap,
            self.freq_offset * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcco_units::Ui;

    fn table1() -> JitterSpec {
        JitterSpec::paper_table1()
    }

    #[test]
    fn clean_spec_has_zero_ber() {
        let model = GccoStatModel::new(JitterSpec::clean());
        assert_eq!(model.ber(), 0.0);
    }

    #[test]
    fn table1_no_sj_meets_target() {
        // Paper: with Table 1 jitter and no SJ / no offset, the CDR is far
        // below the 1e-12 target.
        let ber = GccoStatModel::new(table1()).ber();
        assert!(ber < 1e-12, "BER {ber}");
    }

    #[test]
    fn ber_monotone_in_sj_amplitude() {
        let mut prev = 0.0;
        for amp in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
            let ber = GccoStatModel::new(table1().with_sj(Ui::new(amp), 0.4)).ber();
            assert!(ber >= prev, "BER must grow with SJ amplitude ({amp})");
            prev = ber;
        }
        assert!(prev > 1e-12, "large SJ near Nyquist must break the link");
    }

    #[test]
    fn low_frequency_sj_is_tracked() {
        // The defining property of the gated-oscillator CDR (Fig. 9): large
        // low-frequency SJ is tolerated, the same amplitude near the data
        // rate is not.
        let slow = GccoStatModel::new(table1().with_sj(Ui::new(1.0), 1e-4)).ber();
        let fast = GccoStatModel::new(table1().with_sj(Ui::new(1.0), 0.4)).ber();
        assert!(slow < 1e-12, "slow SJ BER {slow}");
        assert!(fast > 1e-3, "fast SJ BER {fast}");
    }

    #[test]
    fn ber_monotone_in_frequency_offset() {
        let spec = table1().with_sj(Ui::new(0.25), 0.3);
        let mut prev = 0.0;
        for eps in [0.0, 0.005, 0.01, 0.02, 0.04] {
            let ber = GccoStatModel::new(spec.clone()).with_freq_offset(eps).ber();
            assert!(
                ber >= prev * 0.999,
                "BER must not improve with offset (ε={eps}: {ber} < {prev})"
            );
            prev = ber;
        }
    }

    #[test]
    fn frequency_offset_hurts_long_runs_most() {
        let model = GccoStatModel::new(table1().with_sj(Ui::new(0.2), 0.25)).with_freq_offset(0.02);
        let p1 = model.run_error_prob(1).total();
        let p5 = model.run_error_prob(5).total();
        assert!(p5 > p1, "L=5 ({p5}) must err more than L=1 ({p1})");
    }

    #[test]
    fn improved_tap_beats_standard_under_offset() {
        // Fig. 17 vs Fig. 10: improved sampling point raises tolerance when
        // the oscillator runs slow (negative offset collapses the right
        // eye edge).
        for eps in [0.01, 0.02] {
            let spec = table1().with_sj(Ui::new(0.3), 0.35);
            let std_ber = GccoStatModel::new(spec.clone())
                .with_freq_offset(eps)
                .with_slip_term(false)
                .ber();
            let imp_ber = GccoStatModel::new(spec)
                .with_freq_offset(eps)
                .with_slip_term(false)
                .with_tap(SamplingTap::Improved)
                .ber();
            assert!(
                imp_ber < std_ber,
                "ε={eps}: improved {imp_ber} vs standard {std_ber}"
            );
        }
    }

    #[test]
    fn improved_tap_increases_slip_risk() {
        // The paper's own caveat on Fig. 17: the earlier sampling point can
        // mis-sample the *next* bit when the oscillator runs fast.
        let spec = table1().with_sj(Ui::new(0.3), 0.35);
        let std_slip = GccoStatModel::new(spec.clone())
            .with_freq_offset(0.03)
            .run_error_prob(5)
            .slip;
        let imp_slip = GccoStatModel::new(spec)
            .with_freq_offset(0.03)
            .with_tap(SamplingTap::Improved)
            .run_error_prob(5)
            .slip;
        assert!(
            imp_slip > std_slip,
            "improved slip {imp_slip} vs standard {std_slip}"
        );
    }

    #[test]
    fn independent_edges_is_pessimistic() {
        let spec = table1().with_sj(Ui::new(0.2), 0.3);
        let resync = GccoStatModel::new(spec.clone()).ber();
        let indep = GccoStatModel::new(spec)
            .with_edge_model(EdgeModel::IndependentEdges)
            .ber();
        assert!(indep > resync, "independent {indep} vs resync {resync}");
    }

    #[test]
    fn run_dist_geometric() {
        let d = RunDist::geometric(5);
        assert_eq!(d.max_len(), 5);
        let total: f64 = (1..=5).map(|l| d.prob(l)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((d.prob(1) / d.prob(2) - 2.0).abs() < 1e-12);
        assert!(d.mean() > 1.8 && d.mean() < 2.0);
        assert_eq!(d.prob(9), 0.0);
    }

    #[test]
    fn run_dist_from_prbs7_measurement() {
        let bits = gcco_signal::Prbs::new(gcco_signal::PrbsOrder::P7).take_bits(127 * 20);
        let runs = gcco_signal::RunLengths::of(bits.bits());
        let d = RunDist::from_run_lengths(&runs);
        assert_eq!(d.max_len(), 7);
        assert!((d.prob(1) - 0.5).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "run-length counts sum past u64::MAX")]
    fn run_dist_rejects_counts_that_overflow() {
        // Unchecked, this total wraps to 1 in release builds and gives
        // P(L = 1) = 2^64 − 1.
        let _ = RunDist::from_counts(&[0, u64::MAX, 2]);
    }

    #[test]
    fn prbs7_errs_more_than_8b10b_under_offset() {
        // PRBS7 "exhibits more consecutive identical digits than an
        // 8bit/10bit encoded stream" (paper §3.3b) — so it must be the
        // harsher stimulus under frequency offset. Use a low SJ frequency
        // so the drift grows monotonically with run length (no aliasing).
        let spec = table1().with_sj(Ui::new(0.2), 0.05);
        let coded = GccoStatModel::new(spec.clone())
            .with_freq_offset(-0.04)
            .ber();
        let prbs = GccoStatModel::new(spec)
            .with_run_dist(RunDist::geometric(7))
            .with_freq_offset(-0.04)
            .ber();
        assert!(prbs > coded, "prbs {prbs} vs 8b10b {coded}");
    }

    #[test]
    fn bathtub_shape_around_nominal_point() {
        // Sampling much too late must be worse than nominal.
        let model = GccoStatModel::new(table1().with_sj(Ui::new(0.2), 0.3));
        let nominal = model.ber_at_phase(0.0);
        let late = model.ber_at_phase(0.45);
        assert!(
            late > nominal.max(1e-15) * 10.0,
            "late {late} nominal {nominal}"
        );
    }

    #[test]
    fn gating_margin_predicts_the_behavioral_missing_pulse() {
        // The event-driven model loses the 7th bit of PRBS7 runs at a
        // −5 % oscillator offset (see the Fig. 14 experiment); the
        // paper-faithful model misses this, the gating-margin model
        // catches it.
        let spec = JitterSpec::clean();
        let faithful = GccoStatModel::new(spec.clone())
            .with_run_dist(RunDist::geometric(7))
            .with_freq_offset(-0.05);
        let gated = faithful.clone().with_gating_margin(0.75);
        assert!(faithful.ber() < 1e-12, "paper model: {}", faithful.ber());
        assert!(gated.ber() > 1e-3, "gated model: {}", gated.ber());
        // The dominant mechanism must be the missing pulse at L = 7.
        let p7 = gated.run_error_prob(7);
        assert!(p7.missing > 0.5, "missing {} at L=7", p7.missing);
    }

    #[test]
    fn gating_margin_keeps_nominal_operation_clean() {
        // At the design point the extra 0.25 UI margin loss must not break
        // the BER target — but only under the *correlated-DJ* convention
        // the behavioral stimulus uses: over a ≤5-bit run, block-correlated
        // DJ (0.4 UIpp over 16-bit blocks) drifts at most 0.4·5/16 ≈
        // 0.125 UI between the opening and closing transitions.
        let mut spec = table1();
        spec.dj_pp = Ui::new(0.125);
        let model = GccoStatModel::new(spec).with_gating_margin(0.75);
        let ber = model.ber();
        assert!(ber < 1e-12, "BER {ber}");

        // With fully uncorrelated per-edge DJ the same margin does break —
        // the design genuinely depends on DJ being slow (see EXPERIMENTS.md).
        let uncorrelated = GccoStatModel::new(table1()).with_gating_margin(0.75).ber();
        assert!(uncorrelated > 1e-6, "{uncorrelated}");
    }

    #[test]
    fn shorter_delay_line_shrinks_the_kill_margin() {
        let spec = table1().with_sj(Ui::new(0.3), 0.3);
        let tau_small = GccoStatModel::new(spec.clone())
            .with_freq_offset(-0.02)
            .with_gating_margin(0.625)
            .ber();
        let tau_large = GccoStatModel::new(spec)
            .with_freq_offset(-0.02)
            .with_gating_margin(0.875)
            .ber();
        assert!(
            tau_small < tau_large,
            "τ=0.625: {tau_small} vs τ=0.875: {tau_large}"
        );
    }

    #[test]
    fn gating_missing_pulse_rate_is_tap_independent() {
        // The launch-time cancellation: sampling T/8 earlier from a tap
        // one stage closer to the gate leaves the missing-pulse rate
        // untouched (the event-driven model shows the same).
        let base = GccoStatModel::new(JitterSpec::clean())
            .with_run_dist(RunDist::geometric(7))
            .with_freq_offset(-0.05)
            .with_gating_margin(0.75);
        let std_miss = base.run_error_prob(7).missing;
        let imp_miss = base
            .clone()
            .with_tap(SamplingTap::Improved)
            .run_error_prob(7)
            .missing;
        assert!(
            (std_miss - imp_miss).abs() < 1e-9,
            "standard {std_miss} vs improved {imp_miss}"
        );
    }

    #[test]
    #[should_panic(expected = "design window")]
    fn gating_margin_rejects_tau_outside_window() {
        let _ = GccoStatModel::new(table1()).with_gating_margin(0.4);
    }

    #[test]
    fn ber_at_sj_matches_clone_path() {
        let model = GccoStatModel::new(table1()).with_freq_offset(-0.005);
        for (amp, freq) in [(0.05, 0.3), (0.4, 0.1), (1.5, 0.02), (6.0, 0.001)] {
            let borrowed = model.ber_at_sj(Ui::new(amp), freq, None);
            let cloned = model
                .clone()
                .with_spec(model.spec().clone().with_sj(Ui::new(amp), freq))
                .ber();
            assert_eq!(borrowed, cloned, "amp={amp} freq={freq}");
        }
    }

    #[test]
    fn ber_at_offset_matches_clone_path() {
        let model = GccoStatModel::new(table1().with_sj(Ui::new(0.2), 0.25));
        for eps in [-0.02, -0.005, 0.0, 0.01] {
            let borrowed = model.ber_at_offset(eps);
            let cloned = model.clone().with_freq_offset(eps).ber();
            assert_eq!(borrowed, cloned, "eps={eps}");
        }
    }

    #[test]
    fn cached_q_path_tracks_exact_path() {
        let tab = crate::QTable::new();
        let model = GccoStatModel::new(table1()).with_freq_offset(-0.01);
        for (amp, freq) in [(0.1, 0.4), (0.6, 0.2), (2.0, 0.01)] {
            let exact = model.ber_at_sj(Ui::new(amp), freq, None);
            let fast = model.ber_at_sj(Ui::new(amp), freq, Some(&tab));
            assert!(
                (fast - exact).abs() <= 1e-6 * exact + 1e-30,
                "amp={amp} freq={freq}: {fast} vs {exact}"
            );
        }
        let exact = model.ber();
        let fast = model.ber_cached(&tab);
        assert!(
            (fast - exact).abs() <= 1e-6 * exact + 1e-30,
            "{fast} vs {exact}"
        );
    }

    #[test]
    #[should_panic(expected = "invalid normalized SJ frequency")]
    fn ber_at_sj_rejects_bad_frequency() {
        let _ = GccoStatModel::new(table1()).ber_at_sj(Ui::new(0.1), 0.0, None);
    }

    #[test]
    fn display_contains_settings() {
        let m = GccoStatModel::new(table1()).with_freq_offset(0.01);
        let s = m.to_string();
        assert!(s.contains("+1.0000%"), "{s}");
    }

    #[test]
    #[should_panic(expected = "unreasonable frequency offset")]
    fn rejects_huge_offset() {
        let _ = GccoStatModel::new(table1()).with_freq_offset(0.9);
    }

    #[test]
    #[should_panic(expected = "run length")]
    fn run_error_rejects_zero() {
        let _ = GccoStatModel::new(table1()).run_error_prob(0);
    }
}
