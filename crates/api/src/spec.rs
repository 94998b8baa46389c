//! [`ModelSpec`] — a plain-data, fully serializable description of a
//! [`GccoStatModel`], canonicalizable into a cache key.

use crate::error::GccoError;
use gcco_stat::{EdgeModel, GccoStatModel, JitterSpec, RunDist, SamplingTap};
use gcco_units::Ui;

/// The longest run length, in bits, a `cid_max` or geometric `max_len`
/// may name. The model allocates one slot per run length, so 4e9 would
/// abort the process on a 32 GB allocation; past ~1075 bits `0.5^l` is
/// exactly 0 anyway.
const MAX_RUN_LENGTH: u32 = 1024;

/// The largest sinusoidal-jitter amplitude, UI peak-to-peak, any spec or
/// request accepts. The BER model's bounded grid spans the DJ plus twice
/// the amplitude, which overflows to infinity near 1e308 and would panic
/// a worker; JTOL's own search caps at 20 UIpp.
const MAX_SJ_AMPLITUDE_PP: f64 = 1e6;

/// The most DJ grid bins (`dj_pp / grid_step`) a spec may ask for. The
/// model allocates the DJ density at the nominal step: `dj_pp` 1e6 would
/// abort the process on an 8 GB allocation, and `grid_step` 1e-300 would
/// wrap the bin count to 0 and panic a worker.
const MAX_DJ_BINS: f64 = 65_536.0;

/// Checks a run-length bound: one shared range for `cid_max` and a
/// geometric `max_len`.
fn check_run_length(field: &str, v: u32) -> Result<(), GccoError> {
    if (1..=MAX_RUN_LENGTH).contains(&v) {
        Ok(())
    } else {
        Err(GccoError::InvalidSpec(format!(
            "{field} must lie in [1, {MAX_RUN_LENGTH}], got {v}"
        )))
    }
}

/// Checks a sinusoidal-jitter amplitude: one shared range for a spec's
/// `sj_pp`, a `ber_point` override and every `ber_grid` amplitude.
pub(crate) fn check_sj_amplitude_pp(field: &str, v: f64) -> Result<(), GccoError> {
    if (0.0..=MAX_SJ_AMPLITUDE_PP).contains(&v) {
        Ok(())
    } else {
        Err(GccoError::InvalidSpec(format!(
            "{field} must lie in [0, {MAX_SJ_AMPLITUDE_PP:e}] UIpp, got {v:?}"
        )))
    }
}

/// Serializable description of a run-length distribution.
#[derive(Clone, Debug, PartialEq)]
pub enum RunDistSpec {
    /// Geometric `P(L) ∝ 2^−L` truncated at the given maximum run length
    /// (uncoded random data under a line-code CID bound).
    Geometric(u32),
    /// Measured run-length counts: `counts[l]` = number of runs of
    /// length `l` (index 0 unused).
    Counts(Vec<u64>),
}

impl RunDistSpec {
    fn validate(&self) -> Result<(), GccoError> {
        match self {
            RunDistSpec::Geometric(max_len) => check_run_length("geometric max_len", *max_len),
            // BER cost grows with the entry count: one slot per run length,
            // 0 to the shared bound.
            RunDistSpec::Counts(counts) if counts.len() > MAX_RUN_LENGTH as usize + 1 => {
                Err(GccoError::InvalidSpec(format!(
                    "run-length counts must have at most {} entries (run lengths 0 to \
                     {MAX_RUN_LENGTH}), got {}",
                    MAX_RUN_LENGTH + 1,
                    counts.len()
                )))
            }
            // The model divides by the total, which must not wrap.
            RunDistSpec::Counts(counts) => match counts
                .iter()
                .try_fold(0u64, |total, &c| total.checked_add(c))
            {
                Some(0) => Err(GccoError::InvalidSpec(
                    "run-length counts must contain at least one run".to_string(),
                )),
                Some(_) => Ok(()),
                None => Err(GccoError::InvalidSpec(
                    "run-length counts must sum to at most 2^64 - 1".to_string(),
                )),
            },
        }
    }

    fn build(&self) -> RunDist {
        match self {
            RunDistSpec::Geometric(max_len) => RunDist::geometric(*max_len),
            RunDistSpec::Counts(counts) => RunDist::from_counts(counts),
        }
    }
}

/// A complete, plain-data description of a [`GccoStatModel`]: the Table 1
/// jitter quantities plus every builder knob (tap, frequency offset, run
/// distribution, edge-correlation convention, slip term, gating margin,
/// grid step).
///
/// Unlike the model's builders — which `panic!` on out-of-range input —
/// a `ModelSpec` is validated as data via [`ModelSpec::validate`] /
/// [`ModelSpec::build`], returning [`GccoError::InvalidSpec`], which is
/// what lets remote callers submit arbitrary specs safely.
///
/// Two specs with equal [`ModelSpec::cache_key`]s build models with
/// bit-identical behavior; the engine uses the key to share one warm
/// [`gcco_stat::SweepContext`] across requests.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelSpec {
    /// Deterministic input jitter, peak-to-peak UI.
    pub dj_pp: f64,
    /// Random input jitter, RMS UI.
    pub rj_rms: f64,
    /// Sinusoidal input jitter, peak-to-peak UI.
    pub sj_pp: f64,
    /// Sinusoidal-jitter frequency normalized to the data rate.
    pub sj_freq_norm: f64,
    /// Oscillator (sampling-clock) jitter at `cid_max`, RMS UI.
    pub ckj_rms: f64,
    /// Maximum consecutive identical digits the line code guarantees.
    pub cid_max: u32,
    /// Run-length distribution of the data.
    pub run_dist: RunDistSpec,
    /// Recovered-clock sampling tap.
    pub tap: SamplingTap,
    /// Relative oscillator frequency offset `ε = (f_osc − f_data)/f_data`.
    pub freq_offset: f64,
    /// Edge-correlation convention for DJ/RJ of the two run-bounding
    /// transitions.
    pub edge_model: EdgeModel,
    /// Whether the bit-slip term `P(X_{L+1} ≤ B)` is included.
    pub include_slip: bool,
    /// Gating kill margin: edge-detector delay in oscillator UI, or `None`
    /// for the paper-faithful boundary.
    pub gating_tau_ui: Option<f64>,
    /// PDF grid step in UI.
    pub grid_step: f64,
}

/// The model's default PDF grid step (what `GccoStatModel::new` uses).
pub const DEFAULT_GRID_STEP: f64 = 1e-3;

impl ModelSpec {
    /// The paper's Table 1 jitter with every knob at the model default:
    /// standard tap, zero offset, geometric run distribution truncated at
    /// `cid_max`, resync-referenced edges, slip term on.
    pub fn paper_table1() -> ModelSpec {
        ModelSpec::from_jitter_spec(&JitterSpec::paper_table1())
    }

    /// A spec with the given jitter quantities and default knobs.
    pub fn from_jitter_spec(spec: &JitterSpec) -> ModelSpec {
        ModelSpec {
            dj_pp: spec.dj_pp.value(),
            rj_rms: spec.rj_rms.value(),
            sj_pp: spec.sj_pp.value(),
            sj_freq_norm: spec.sj_freq_norm,
            ckj_rms: spec.ckj_rms.value(),
            cid_max: spec.cid_max,
            run_dist: RunDistSpec::Geometric(spec.cid_max.max(1)),
            tap: SamplingTap::Standard,
            freq_offset: 0.0,
            edge_model: EdgeModel::ResyncReferenced,
            include_slip: true,
            gating_tau_ui: None,
            grid_step: DEFAULT_GRID_STEP,
        }
    }

    /// Returns a copy with the given sinusoidal jitter.
    pub fn with_sj(mut self, amplitude_pp: f64, freq_norm: f64) -> ModelSpec {
        self.sj_pp = amplitude_pp;
        self.sj_freq_norm = freq_norm;
        self
    }

    /// Returns a copy with the given frequency offset.
    pub fn with_freq_offset(mut self, epsilon: f64) -> ModelSpec {
        self.freq_offset = epsilon;
        self
    }

    /// Returns a copy with the given sampling tap.
    pub fn with_tap(mut self, tap: SamplingTap) -> ModelSpec {
        self.tap = tap;
        self
    }

    /// Returns a copy with the slip term enabled or disabled.
    pub fn with_slip_term(mut self, include: bool) -> ModelSpec {
        self.include_slip = include;
        self
    }

    /// Returns a copy with the given run-length distribution.
    pub fn with_run_dist(mut self, run_dist: RunDistSpec) -> ModelSpec {
        self.run_dist = run_dist;
        self
    }

    /// Checks every field against the ranges the model builders enforce,
    /// without building anything.
    ///
    /// # Errors
    ///
    /// [`GccoError::InvalidSpec`] naming the first offending field.
    pub fn validate(&self) -> Result<(), GccoError> {
        let finite_nonneg = [
            ("dj_pp", self.dj_pp),
            ("rj_rms", self.rj_rms),
            ("ckj_rms", self.ckj_rms),
        ];
        for (name, v) in finite_nonneg {
            if !v.is_finite() || v < 0.0 {
                return Err(GccoError::InvalidSpec(format!(
                    "{name} must be finite and non-negative, got {v}"
                )));
            }
        }
        check_sj_amplitude_pp("sj_pp", self.sj_pp)?;
        if !(self.sj_freq_norm > 0.0 && self.sj_freq_norm.is_finite()) {
            return Err(GccoError::InvalidSpec(format!(
                "sj_freq_norm must be a positive finite number, got {}",
                self.sj_freq_norm
            )));
        }
        check_run_length("cid_max", self.cid_max)?;
        if !(self.freq_offset.is_finite() && self.freq_offset.abs() < 0.5) {
            return Err(GccoError::InvalidSpec(format!(
                "freq_offset must satisfy |ε| < 0.5, got {}",
                self.freq_offset
            )));
        }
        if let Some(tau) = self.gating_tau_ui {
            if !(0.5..1.0).contains(&tau) {
                return Err(GccoError::InvalidSpec(format!(
                    "gating_tau_ui must lie in [0.5, 1.0), got {tau}"
                )));
            }
        }
        // A subnormal step overflows the density of a one-bin (zero-DJ)
        // grid, `1 / grid_step`, which would panic a worker.
        if !(self.grid_step.is_normal() && self.grid_step > 0.0 && self.grid_step <= 0.01) {
            return Err(GccoError::InvalidSpec(format!(
                "grid_step must be a normal number in (0, 0.01], got {:?}",
                self.grid_step
            )));
        }
        let dj_bins = self.dj_pp / self.grid_step;
        if dj_bins > MAX_DJ_BINS {
            return Err(GccoError::InvalidSpec(format!(
                "dj_pp / grid_step must be at most {MAX_DJ_BINS} bins, got {:?} / {:?} = {dj_bins:?}",
                self.dj_pp, self.grid_step
            )));
        }
        self.run_dist.validate()
    }

    /// The jitter quantities as the stat crate's [`JitterSpec`].
    pub fn jitter_spec(&self) -> JitterSpec {
        JitterSpec {
            dj_pp: Ui::new(self.dj_pp),
            rj_rms: Ui::new(self.rj_rms),
            sj_pp: Ui::new(self.sj_pp),
            sj_freq_norm: self.sj_freq_norm,
            ckj_rms: Ui::new(self.ckj_rms),
            cid_max: self.cid_max,
        }
    }

    /// Validates the spec and builds the described [`GccoStatModel`].
    ///
    /// # Errors
    ///
    /// [`GccoError::InvalidSpec`] when any field is out of range.
    pub fn build(&self) -> Result<GccoStatModel, GccoError> {
        self.validate()?;
        let mut model = GccoStatModel::new(self.jitter_spec());
        if self.grid_step != DEFAULT_GRID_STEP {
            model = model.with_grid_step(self.grid_step);
        }
        // `GccoStatModel::new` already installs geometric(cid_max); only
        // replace the run distribution when the spec asks for something
        // else, so the default path builds the identical model.
        if self.run_dist != RunDistSpec::Geometric(self.cid_max.max(1)) {
            model = model.with_run_dist(self.run_dist.build());
        }
        if self.tap != SamplingTap::Standard {
            model = model.with_tap(self.tap);
        }
        if self.freq_offset != 0.0 {
            model = model.with_freq_offset(self.freq_offset);
        }
        if self.edge_model != EdgeModel::ResyncReferenced {
            model = model.with_edge_model(self.edge_model);
        }
        if !self.include_slip {
            model = model.with_slip_term(false);
        }
        if let Some(tau) = self.gating_tau_ui {
            model = model.with_gating_margin(tau);
        }
        Ok(model)
    }

    /// Canonical cache key: two specs that build behaviorally identical
    /// models map to the same key. Floats are keyed by their exact bit
    /// patterns (no formatting round-trip), so "close" specs never alias.
    pub fn cache_key(&self) -> String {
        use std::fmt::Write;
        let mut key = String::with_capacity(128);
        for v in [
            self.dj_pp,
            self.rj_rms,
            self.sj_pp,
            self.sj_freq_norm,
            self.ckj_rms,
            self.freq_offset,
            self.grid_step,
        ] {
            let _ = write!(key, "{:016x}.", v.to_bits());
        }
        let _ = write!(
            key,
            "c{}.t{}.e{}.s{}.",
            self.cid_max,
            match self.tap {
                SamplingTap::Standard => 0,
                SamplingTap::Improved => 1,
            },
            match self.edge_model {
                EdgeModel::ResyncReferenced => 0,
                EdgeModel::IndependentEdges => 1,
            },
            u8::from(self.include_slip),
        );
        match self.gating_tau_ui {
            None => key.push_str("g-."),
            Some(tau) => {
                let _ = write!(key, "g{:016x}.", tau.to_bits());
            }
        }
        match &self.run_dist {
            RunDistSpec::Geometric(n) => {
                let _ = write!(key, "rg{n}");
            }
            RunDistSpec::Counts(counts) => {
                key.push_str("rc");
                for c in counts {
                    let _ = write!(key, ":{c}");
                }
            }
        }
        key
    }
}

impl Default for ModelSpec {
    fn default() -> ModelSpec {
        ModelSpec::paper_table1()
    }
}

impl ModelSpec {
    /// A validated builder starting from [`ModelSpec::paper_table1`] — the
    /// struct-literal-free way to assemble a spec. Unlike `ModelSpec { ..
    /// base }` update syntax, [`ModelSpecBuilder::build`] validates the
    /// result, and [`ModelSpecBuilder::cid_max`] keeps the run
    /// distribution consistent with the new CID bound unless one was set
    /// explicitly.
    pub fn builder() -> ModelSpecBuilder {
        ModelSpecBuilder {
            spec: ModelSpec::paper_table1(),
            explicit_run_dist: false,
        }
    }
}

/// Builder for [`ModelSpec`] with validated output and paper-Table-1
/// defaults. See [`ModelSpec::builder`].
///
/// # Examples
///
/// ```
/// use gcco_api::ModelSpec;
///
/// let spec = ModelSpec::builder()
///     .cid_max(7)
///     .freq_offset(-0.01)
///     .build()
///     .expect("in range");
/// assert_eq!(spec.cid_max, 7);
/// // cid_max also re-derived the default geometric run distribution.
/// assert_eq!(spec.run_dist, gcco_api::RunDistSpec::Geometric(7));
/// ```
#[derive(Clone, Debug)]
pub struct ModelSpecBuilder {
    spec: ModelSpec,
    /// Whether [`ModelSpecBuilder::run_dist`] was called: an explicit run
    /// distribution survives later `cid_max` changes; the implicit
    /// geometric default tracks them.
    explicit_run_dist: bool,
}

impl ModelSpecBuilder {
    /// Sets the deterministic input jitter, peak-to-peak UI.
    pub fn dj_pp(mut self, v: f64) -> ModelSpecBuilder {
        self.spec.dj_pp = v;
        self
    }

    /// Sets the random input jitter, RMS UI.
    pub fn rj_rms(mut self, v: f64) -> ModelSpecBuilder {
        self.spec.rj_rms = v;
        self
    }

    /// Sets the sinusoidal jitter (amplitude pp UI, normalized frequency).
    pub fn sj(mut self, amplitude_pp: f64, freq_norm: f64) -> ModelSpecBuilder {
        self.spec.sj_pp = amplitude_pp;
        self.spec.sj_freq_norm = freq_norm;
        self
    }

    /// Sets the oscillator (sampling-clock) jitter at `cid_max`, RMS UI.
    pub fn ckj_rms(mut self, v: f64) -> ModelSpecBuilder {
        self.spec.ckj_rms = v;
        self
    }

    /// Sets the CID bound — and, unless a run distribution was set
    /// explicitly, re-derives the default geometric distribution truncated
    /// at the new bound (the invariant `paper_table1` establishes).
    pub fn cid_max(mut self, n: u32) -> ModelSpecBuilder {
        self.spec.cid_max = n;
        if !self.explicit_run_dist {
            self.spec.run_dist = RunDistSpec::Geometric(n.max(1));
        }
        self
    }

    /// Sets an explicit run-length distribution (pinned against later
    /// [`ModelSpecBuilder::cid_max`] calls).
    pub fn run_dist(mut self, run_dist: RunDistSpec) -> ModelSpecBuilder {
        self.spec.run_dist = run_dist;
        self.explicit_run_dist = true;
        self
    }

    /// Sets the recovered-clock sampling tap.
    pub fn tap(mut self, tap: SamplingTap) -> ModelSpecBuilder {
        self.spec.tap = tap;
        self
    }

    /// Sets the relative oscillator frequency offset ε.
    pub fn freq_offset(mut self, epsilon: f64) -> ModelSpecBuilder {
        self.spec.freq_offset = epsilon;
        self
    }

    /// Sets the edge-correlation convention.
    pub fn edge_model(mut self, edge_model: EdgeModel) -> ModelSpecBuilder {
        self.spec.edge_model = edge_model;
        self
    }

    /// Enables or disables the bit-slip term.
    pub fn include_slip(mut self, include: bool) -> ModelSpecBuilder {
        self.spec.include_slip = include;
        self
    }

    /// Sets the gating kill margin (`None` = paper-faithful boundary).
    pub fn gating_tau_ui(mut self, tau: Option<f64>) -> ModelSpecBuilder {
        self.spec.gating_tau_ui = tau;
        self
    }

    /// Sets the PDF grid step in UI.
    pub fn grid_step(mut self, step: f64) -> ModelSpecBuilder {
        self.spec.grid_step = step;
        self
    }

    /// Validates and returns the assembled spec.
    ///
    /// # Errors
    ///
    /// [`GccoError::InvalidSpec`] naming the first offending field.
    pub fn build(self) -> Result<ModelSpec, GccoError> {
        self.spec.validate()?;
        Ok(self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_builds_the_model_default() {
        let spec = ModelSpec::paper_table1();
        let built = spec.build().expect("valid");
        let direct = GccoStatModel::new(JitterSpec::paper_table1());
        assert_eq!(built, direct);
        assert_eq!(built.ber(), direct.ber());
    }

    #[test]
    fn full_knob_build_matches_builder_chain() {
        let spec = ModelSpec::paper_table1()
            .with_sj(0.3, 0.35)
            .with_freq_offset(-0.01)
            .with_tap(SamplingTap::Improved)
            .with_slip_term(false)
            .with_run_dist(RunDistSpec::Geometric(7));
        let built = spec.build().expect("valid");
        let direct = GccoStatModel::new(JitterSpec::paper_table1().with_sj(Ui::new(0.3), 0.35))
            .with_freq_offset(-0.01)
            .with_tap(SamplingTap::Improved)
            .with_slip_term(false)
            .with_run_dist(RunDist::geometric(7));
        assert_eq!(built, direct);
    }

    #[test]
    fn counts_run_dist_matches_from_counts() {
        let counts = vec![0u64, 10, 5, 2, 1];
        let spec = ModelSpec::paper_table1().with_run_dist(RunDistSpec::Counts(counts.clone()));
        let built = spec.build().expect("valid");
        assert_eq!(built.run_dist(), &RunDist::from_counts(&counts));
    }

    #[test]
    fn validation_catches_each_field() {
        let ok = ModelSpec::paper_table1();
        assert!(ok.validate().is_ok());
        let cases = [
            ModelSpec {
                dj_pp: -0.1,
                ..ok.clone()
            },
            ModelSpec {
                rj_rms: f64::NAN,
                ..ok.clone()
            },
            ModelSpec {
                sj_freq_norm: 0.0,
                ..ok.clone()
            },
            ModelSpec {
                cid_max: 0,
                ..ok.clone()
            },
            ModelSpec {
                freq_offset: 0.7,
                ..ok.clone()
            },
            ModelSpec {
                gating_tau_ui: Some(0.4),
                ..ok.clone()
            },
            ModelSpec {
                grid_step: 0.5,
                ..ok.clone()
            },
            ModelSpec {
                run_dist: RunDistSpec::Geometric(0),
                ..ok.clone()
            },
            ModelSpec {
                run_dist: RunDistSpec::Counts(vec![0, 0]),
                ..ok.clone()
            },
        ];
        for (i, bad) in cases.iter().enumerate() {
            let err = bad.validate().expect_err("must be rejected");
            assert!(
                matches!(err, GccoError::InvalidSpec(_)),
                "case {i}: {err:?}"
            );
            assert!(bad.build().is_err(), "case {i} must not build");
        }
    }

    #[test]
    fn builder_defaults_are_paper_table1() {
        let built = ModelSpec::builder().build().expect("valid");
        assert_eq!(built, ModelSpec::paper_table1());
        assert_eq!(
            built.cache_key(),
            ModelSpec::paper_table1().cache_key(),
            "default builder output must alias the paper spec in the cache"
        );
    }

    #[test]
    fn builder_cid_max_tracks_run_dist_unless_pinned() {
        let tracked = ModelSpec::builder().cid_max(9).build().expect("valid");
        assert_eq!(tracked.cid_max, 9);
        assert_eq!(tracked.run_dist, RunDistSpec::Geometric(9));

        let pinned = ModelSpec::builder()
            .run_dist(RunDistSpec::Geometric(3))
            .cid_max(9)
            .build()
            .expect("valid");
        assert_eq!(pinned.cid_max, 9);
        assert_eq!(
            pinned.run_dist,
            RunDistSpec::Geometric(3),
            "explicit run_dist must survive a later cid_max change"
        );
    }

    #[test]
    fn builder_run_dist_pinning_edge_cases() {
        // Pinning is positional-independent: an explicit run_dist set
        // *after* a cid_max call still survives a further cid_max call.
        let spec = ModelSpec::builder()
            .cid_max(4)
            .run_dist(RunDistSpec::Geometric(6))
            .cid_max(11)
            .build()
            .expect("valid");
        assert_eq!(spec.cid_max, 11);
        assert_eq!(spec.run_dist, RunDistSpec::Geometric(6));

        // A measured-counts distribution pins just like a geometric one.
        let counts = RunDistSpec::Counts(vec![0, 8, 4, 2]);
        let spec = ModelSpec::builder()
            .run_dist(counts.clone())
            .cid_max(9)
            .build()
            .expect("valid");
        assert_eq!(spec.run_dist, counts);

        // Without an explicit distribution, repeated cid_max calls each
        // re-derive it — only the last one sticks.
        let spec = ModelSpec::builder()
            .cid_max(3)
            .cid_max(8)
            .build()
            .expect("valid");
        assert_eq!(spec.run_dist, RunDistSpec::Geometric(8));
    }

    /// Property test: for random knob settings, the builder chain and the
    /// equivalent struct-update literal produce equal specs with equal
    /// cache keys — the builder adds validation, never a key-visible
    /// difference — and perturbing any one knob separates the keys.
    #[test]
    fn builder_and_literal_cache_keys_agree_on_random_specs() {
        /// SplitMix64: tiny, seedable, and good enough to sweep knobs.
        struct SplitMix64(u64);
        impl SplitMix64 {
            fn next(&mut self) -> u64 {
                self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            }
            fn unit(&mut self) -> f64 {
                (self.next() >> 11) as f64 / (1u64 << 53) as f64
            }
            fn below(&mut self, n: u64) -> u64 {
                self.next() % n
            }
        }

        let mut rng = SplitMix64(0x6cc0_0919);
        for case in 0..200 {
            let base = ModelSpec::paper_table1();
            let dj_pp = 0.5 * rng.unit();
            let rj_rms = 0.001 + 0.03 * rng.unit();
            let ckj_rms = 0.001 + 0.03 * rng.unit();
            let cid_max = 1 + rng.below(11) as u32;
            let freq_offset = 0.08 * (rng.unit() - 0.5);
            let tap = if rng.below(2) == 0 {
                SamplingTap::Standard
            } else {
                SamplingTap::Improved
            };
            let include_slip = rng.below(2) == 0;
            let pinned =
                (rng.below(2) == 0).then(|| RunDistSpec::Geometric(1 + rng.below(9) as u32));

            let mut builder = ModelSpec::builder()
                .dj_pp(dj_pp)
                .rj_rms(rj_rms)
                .ckj_rms(ckj_rms)
                .tap(tap)
                .include_slip(include_slip)
                .freq_offset(freq_offset);
            if let Some(run_dist) = &pinned {
                builder = builder.run_dist(run_dist.clone());
            }
            let built = builder.cid_max(cid_max).build().expect("in range");

            let literal = ModelSpec {
                dj_pp,
                rj_rms,
                ckj_rms,
                cid_max,
                run_dist: pinned.unwrap_or(RunDistSpec::Geometric(cid_max)),
                tap,
                include_slip,
                freq_offset,
                ..base
            };
            assert_eq!(built, literal, "case {case}");
            assert_eq!(built.cache_key(), literal.cache_key(), "case {case}");

            // One-knob perturbations must separate the keys.
            let bumped = ModelSpec {
                cid_max: cid_max + 1,
                ..literal.clone()
            };
            assert_ne!(literal.cache_key(), bumped.cache_key(), "case {case}");
        }
    }

    #[test]
    fn builder_matches_struct_update_and_validates() {
        let djrj = 1.5;
        let base = ModelSpec::paper_table1();
        let literal = ModelSpec {
            dj_pp: base.dj_pp * djrj,
            rj_rms: base.rj_rms * djrj,
            cid_max: 7,
            run_dist: RunDistSpec::Geometric(7),
            freq_offset: -0.01,
            ..base.clone()
        };
        let built = ModelSpec::builder()
            .dj_pp(base.dj_pp * djrj)
            .rj_rms(base.rj_rms * djrj)
            .cid_max(7)
            .freq_offset(-0.01)
            .build()
            .expect("valid");
        assert_eq!(built, literal);
        assert_eq!(built.cache_key(), literal.cache_key());

        let err = ModelSpec::builder()
            .rj_rms(f64::NAN)
            .build()
            .expect_err("NaN must be rejected");
        assert!(matches!(err, GccoError::InvalidSpec(_)), "{err:?}");
    }

    #[test]
    fn cache_keys_separate_and_join_correctly() {
        let a = ModelSpec::paper_table1();
        let b = a.clone();
        assert_eq!(a.cache_key(), b.cache_key());
        assert_ne!(a.cache_key(), a.clone().with_freq_offset(0.01).cache_key());
        assert_ne!(
            a.cache_key(),
            a.clone().with_tap(SamplingTap::Improved).cache_key()
        );
        assert_ne!(
            a.cache_key(),
            a.clone()
                .with_run_dist(RunDistSpec::Geometric(7))
                .cache_key()
        );
        assert_ne!(
            a.cache_key(),
            a.clone()
                .with_run_dist(RunDistSpec::Counts(vec![0, 1]))
                .cache_key()
        );
        // Negative zero and zero are different bit patterns — and the
        // key must not conflate a gating tau with its float neighbour.
        assert_ne!(
            ModelSpec {
                freq_offset: -0.0,
                ..a.clone()
            }
            .cache_key(),
            a.cache_key()
        );
    }
}
