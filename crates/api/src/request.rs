//! Typed evaluation requests and responses — the one entry point every
//! figure, search, and scan of this workspace goes through.

use crate::baseline::{BaselineMetric, BaselineOut, BaselineSpec, CdrArchKind};
use crate::error::GccoError;
use crate::optimize::{OptimizeOut, OptimizeSpec};
use crate::spec::{check_sj_amplitude_pp, ModelSpec};
use gcco_faults::SplitMix64;
use gcco_noise::compose_ripple_jitter;
use gcco_stat::{q_inverse, SamplingTap};

/// The data rates, in Gbit/s, every request kind with a `bit_rate_gbps`
/// field accepts. Far outside this range the frequency and time unit
/// conversions overflow, and a serve worker would panic.
const BIT_RATE_GBPS: std::ops::RangeInclusive<f64> = 0.001..=1000.0;

/// Checks a `bit_rate_gbps` field: one shared range for every request kind.
pub(crate) fn check_bit_rate_gbps(v: f64) -> Result<(), GccoError> {
    if BIT_RATE_GBPS.contains(&v) {
        Ok(())
    } else {
        Err(GccoError::InvalidSpec(format!(
            "bit_rate_gbps must lie in [0.001, 1000], got {v:?}"
        )))
    }
}

/// An explicit sinusoidal-jitter override for a single BER point: the BER
/// is evaluated as if the spec's SJ were `(amplitude_pp, freq_norm)`,
/// without rebuilding (or re-keying) the model — exactly the
/// `GccoStatModel::ber_at_sj` borrow path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SjOverride {
    /// Sinusoidal-jitter amplitude, peak-to-peak UI.
    pub amplitude_pp: f64,
    /// Sinusoidal-jitter frequency normalized to the data rate.
    pub freq_norm: f64,
}

/// Parameters of a Fig. 11 power/phase-noise scan plus the §3.2 analytic
/// bias sizing it cross-checks.
#[derive(Clone, Debug, PartialEq)]
pub struct PowerScanSpec {
    /// Data rate (= ring frequency in the GCCO architecture), Gbit/s.
    pub bit_rate_gbps: f64,
    /// CML swing, volts.
    pub swing_v: f64,
    /// Ring-oscillator stages.
    pub n_stages: u32,
    /// Design CID the sampling-jitter target is referenced to.
    pub cid: u32,
    /// Hajimiri phase-noise proportionality constant η.
    pub eta: f64,
    /// Sampling-jitter target, UI RMS at `cid`.
    pub sigma_ui_target: f64,
    /// Lower edge of the logarithmic tail-current grid, microamps.
    pub iss_min_ua: f64,
    /// Upper edge of the logarithmic tail-current grid, microamps.
    pub iss_max_ua: f64,
    /// Number of grid points.
    pub steps: u32,
    /// Current ceiling for the analytic sizing bisection, amps.
    pub iss_sizing_max_a: f64,
}

impl PowerScanSpec {
    /// The paper's §3.2 / Fig. 11 design point: 2.5 Gbit/s, 0.4 V swing,
    /// 4 stages, CID 5, η = 0.75, 0.01 UIrms, 2–2000 µA scan in 25 steps.
    pub fn paper_design() -> PowerScanSpec {
        PowerScanSpec {
            bit_rate_gbps: 2.5,
            swing_v: 0.4,
            n_stages: 4,
            cid: 5,
            eta: 0.75,
            sigma_ui_target: 0.01,
            iss_min_ua: 2.0,
            iss_max_ua: 2000.0,
            steps: 25,
            iss_sizing_max_a: 0.01,
        }
    }

    pub(crate) fn validate(&self) -> Result<(), GccoError> {
        check_bit_rate_gbps(self.bit_rate_gbps)?;
        let positives = [
            ("swing_v", self.swing_v),
            ("eta", self.eta),
            ("sigma_ui_target", self.sigma_ui_target),
            ("iss_min_ua", self.iss_min_ua),
            ("iss_max_ua", self.iss_max_ua),
            ("iss_sizing_max_a", self.iss_sizing_max_a),
        ];
        for (name, v) in positives {
            if !(v > 0.0 && v.is_finite()) {
                return Err(GccoError::InvalidSpec(format!(
                    "{name} must be a positive finite number, got {v}"
                )));
            }
        }
        if self.iss_max_ua <= self.iss_min_ua {
            return Err(GccoError::InvalidSpec(format!(
                "current range [{}, {}] µA is empty",
                self.iss_min_ua, self.iss_max_ua
            )));
        }
        if self.n_stages < 2 {
            return Err(GccoError::InvalidSpec(
                "need at least 2 ring stages".to_string(),
            ));
        }
        if self.cid < 1 {
            return Err(GccoError::InvalidSpec("cid must be at least 1".to_string()));
        }
        if self.steps < 2 {
            return Err(GccoError::InvalidSpec(
                "need at least 2 scan steps".to_string(),
            ));
        }
        Ok(())
    }
}

/// Parameters of an event-driven ring-oscillator run: the free-running
/// gated-oscillator core simulated at femtosecond resolution.
#[derive(Clone, Debug, PartialEq)]
pub struct DsimRunSpec {
    /// Kernel seed (runs are deterministic per seed).
    pub seed: u64,
    /// Ring stages (one buffer + `stages − 1` inverters; must be ≥ 2 with
    /// an odd net inversion, i.e. even stage count).
    pub stages: u32,
    /// Per-stage transport delay, picoseconds.
    pub stage_delay_ps: f64,
    /// Relative Gaussian delay jitter per stage evaluation (0 = noiseless).
    pub jitter_rel: f64,
    /// Simulated duration, nanoseconds.
    pub duration_ns: f64,
}

impl DsimRunSpec {
    /// The paper's ring: 4 stages of 50 ps (2.5 GHz), noiseless, 100 ns.
    pub fn paper_ring() -> DsimRunSpec {
        DsimRunSpec {
            seed: 1,
            stages: 4,
            stage_delay_ps: 50.0,
            jitter_rel: 0.0,
            duration_ns: 100.0,
        }
    }

    pub(crate) fn validate(&self) -> Result<(), GccoError> {
        if self.stages < 2 || !self.stages.is_multiple_of(2) {
            return Err(GccoError::InvalidSpec(format!(
                "ring needs an even stage count >= 2, got {}",
                self.stages
            )));
        }
        // Outside this range the delay's femtosecond conversion or the
        // gate model panics.
        if !(0.001..=1e6).contains(&self.stage_delay_ps) {
            return Err(GccoError::InvalidSpec(format!(
                "stage_delay_ps must lie in [0.001, 1e6], got {:?}",
                self.stage_delay_ps
            )));
        }
        if !(self.jitter_rel >= 0.0 && self.jitter_rel < 0.3) {
            return Err(GccoError::InvalidSpec(format!(
                "jitter_rel must lie in [0, 0.3), got {}",
                self.jitter_rel
            )));
        }
        if !(self.duration_ns > 0.0 && self.duration_ns <= 1e6) {
            return Err(GccoError::InvalidSpec(format!(
                "duration_ns must lie in (0, 1e6], got {}",
                self.duration_ns
            )));
        }
        Ok(())
    }
}

/// A multi-channel GCCO receiver scenario: `channels` gated-oscillator
/// lanes hanging off one shared PLL, each lane carrying the base `spec`
/// perturbed by a deterministic per-channel frequency mismatch and the
/// PLL's control-current ripple.
///
/// The per-channel mismatch is drawn from a Gaussian of RMS
/// `mismatch_sigma` via the seeded [`SplitMix64`] stream and the
/// workspace's own deterministic normal inverse ([`q_inverse`]), so the
/// derived lane specs — and therefore every BER, settling time, and
/// cache key downstream — are bit-identical across platforms, worker
/// counts, and store generations. The ripple is *shared* (the PLL is
/// common), so it enters every lane as the same correlated jitter term,
/// composed with the lane's own oscillator jitter in RSS
/// ([`compose_ripple_jitter`]).
#[derive(Clone, Debug, PartialEq)]
pub struct MultiChannelSpec {
    /// Number of gated-oscillator lanes sharing the PLL.
    pub channels: u32,
    /// RMS of the per-channel relative frequency mismatch (the PLL
    /// replica-bias spread), as a fraction of the data rate.
    pub mismatch_sigma: f64,
    /// Shared control-current ripple, RMS UI, injected into every lane's
    /// sampling-clock jitter.
    pub ripple_rms_ui: f64,
    /// Seed of the mismatch draw (scenarios are deterministic per seed).
    pub seed: u64,
    /// Per-channel data rate, Gbit/s (the paper's 2.5).
    pub bit_rate_gbps: f64,
    /// BER a lane must meet to count toward the aggregate yield.
    pub target_ber: f64,
    /// The base channel model every lane starts from.
    pub spec: ModelSpec,
}

impl MultiChannelSpec {
    /// The paper-shaped default group: 4 lanes at 2.5 Gbit/s off one PLL,
    /// 0.2 % RMS frequency mismatch, 0.005 UI RMS shared ripple, Table 1
    /// jitter, yield counted against BER 1e-12.
    pub fn paper_quad() -> MultiChannelSpec {
        MultiChannelSpec {
            channels: 4,
            mismatch_sigma: 0.002,
            ripple_rms_ui: 0.005,
            seed: 1,
            bit_rate_gbps: 2.5,
            target_ber: 1e-12,
            spec: ModelSpec::paper_table1(),
        }
    }

    /// Derives the per-lane [`ModelSpec`]s: lane `i` gets
    /// `freq_offset = base + mismatch_sigma · z_i` with `z_i` the `i`-th
    /// deterministic standard-normal draw of the seeded stream, and
    /// `ckj_rms = RSS(base ckj, ripple)` identical across lanes (the
    /// ripple is common-mode from the shared PLL).
    ///
    /// This is a pure function of the spec — the engine, the validator,
    /// and the tests all call it and must agree bit-for-bit.
    pub fn channel_specs(&self) -> Vec<ModelSpec> {
        let mut rng = SplitMix64::new(self.seed);
        let ckj = compose_ripple_jitter(self.spec.ckj_rms, self.ripple_rms_ui);
        (0..self.channels)
            .map(|_| {
                // Uniform draw strictly inside (0, 1): the +0.5 offset on
                // the 53-bit integer keeps both endpoints out, so the
                // normal inverse below is always finite.
                let u = ((rng.next_u64() >> 11) as f64 + 0.5) * 2f64.powi(-53);
                let z = q_inverse(u);
                ModelSpec {
                    ckj_rms: ckj,
                    freq_offset: self.spec.freq_offset + self.mismatch_sigma * z,
                    ..self.spec.clone()
                }
            })
            .collect()
    }

    pub(crate) fn validate(&self) -> Result<(), GccoError> {
        if !(1..=1024).contains(&self.channels) {
            return Err(GccoError::InvalidSpec(format!(
                "channels must lie in [1, 1024], got {}",
                self.channels
            )));
        }
        if !(self.mismatch_sigma.is_finite() && (0.0..=0.1).contains(&self.mismatch_sigma)) {
            return Err(GccoError::InvalidSpec(format!(
                "mismatch_sigma must lie in [0, 0.1], got {}",
                self.mismatch_sigma
            )));
        }
        if !(self.ripple_rms_ui.is_finite() && (0.0..=0.5).contains(&self.ripple_rms_ui)) {
            return Err(GccoError::InvalidSpec(format!(
                "ripple_rms_ui must lie in [0, 0.5], got {}",
                self.ripple_rms_ui
            )));
        }
        check_bit_rate_gbps(self.bit_rate_gbps)?;
        if !(self.target_ber > 0.0 && self.target_ber < 1.0) {
            return Err(GccoError::InvalidSpec(format!(
                "target_ber must lie in (0, 1), got {}",
                self.target_ber
            )));
        }
        self.spec.validate()?;
        // Every derived lane must itself be evaluable — a wild mismatch
        // draw that walks a lane's |ε| past 0.5 is a spec problem, and it
        // is better named here than deep inside a worker thread.
        for (i, lane) in self.channel_specs().iter().enumerate() {
            lane.validate()
                .map_err(|e| GccoError::InvalidSpec(format!("channel {i}: {}", e.detail())))?;
        }
        Ok(())
    }
}

/// One typed evaluation request: everything the workspace can compute,
/// as data. Submit to an [`crate::Engine`] directly or over the wire via
/// `gcco-serve`.
#[derive(Clone, Debug, PartialEq)]
pub enum EvalRequest {
    /// A single BER evaluation of `spec`, optionally with the sinusoidal
    /// jitter overridden per point (the grid/JTOL inner kernel).
    BerPoint {
        /// The model under evaluation.
        spec: ModelSpec,
        /// Optional SJ override (amplitude, frequency).
        sj: Option<SjOverride>,
    },
    /// A BER map over SJ amplitude × frequency — the Fig. 9/10/17 shape.
    BerGrid {
        /// The model under evaluation.
        spec: ModelSpec,
        /// SJ amplitudes, peak-to-peak UI (grid rows).
        amps_pp: Vec<f64>,
        /// Normalized SJ frequencies (grid columns).
        freqs_norm: Vec<f64>,
    },
    /// A jitter-tolerance curve: one amplitude bisection per frequency.
    JtolCurve {
        /// The model under evaluation.
        spec: ModelSpec,
        /// Normalized SJ frequencies to search at.
        freqs_norm: Vec<f64>,
        /// The BER the tolerance is defined against.
        target_ber: f64,
    },
    /// The §2.3 frequency-tolerance bisection.
    FtolSearch {
        /// The model under evaluation.
        spec: ModelSpec,
        /// The BER the tolerance is defined against.
        target_ber: f64,
    },
    /// The Fig. 11 power/phase-noise trade-off scan with analytic sizing.
    PowerScan {
        /// Scan parameters.
        scan: PowerScanSpec,
    },
    /// An event-driven ring-oscillator simulation.
    DsimRun {
        /// Run parameters.
        run: DsimRunSpec,
    },
    /// A multi-channel scenario: per-lane BER + settling, worst-lane BER,
    /// aggregate yield, and the mW/Gbit/s power roll-up.
    MultiChannel {
        /// Scenario parameters.
        mc: MultiChannelSpec,
    },
    /// The paper's top-down design loop as one request: a deterministic
    /// seeded search over `(tap, cid_max, ckj_rms, freq_offset)` whose
    /// probes are ordinary [`EvalRequest::BerPoint`] sub-requests — and
    /// therefore memoized, resumable, and shardable like any other.
    Optimize {
        /// Optimizer configuration.
        opt: OptimizeSpec,
    },
    /// A competing-CDR baseline evaluation: one behavioral loop
    /// ([`CdrArchKind`]) measured under one [`BaselineMetric`] — the
    /// quantitative backing for the paper's §1 architecture comparison.
    Baseline {
        /// Which CDR architecture to run.
        arch: CdrArchKind,
        /// The loop and jitter environment.
        spec: BaselineSpec,
        /// What to measure.
        metric: BaselineMetric,
    },
}

impl EvalRequest {
    /// The model spec the request evaluates, when it has one (for
    /// [`EvalRequest::MultiChannel`], the *base* spec the lanes derive
    /// from).
    pub fn model_spec(&self) -> Option<&ModelSpec> {
        match self {
            EvalRequest::BerPoint { spec, .. }
            | EvalRequest::BerGrid { spec, .. }
            | EvalRequest::JtolCurve { spec, .. }
            | EvalRequest::FtolSearch { spec, .. } => Some(spec),
            EvalRequest::MultiChannel { mc } => Some(&mc.spec),
            EvalRequest::Optimize { opt } => Some(&opt.base),
            EvalRequest::PowerScan { .. }
            | EvalRequest::DsimRun { .. }
            | EvalRequest::Baseline { .. } => None,
        }
    }

    /// A single-point BER request with the spec's own sinusoidal jitter.
    pub fn ber_point(spec: ModelSpec) -> EvalRequest {
        EvalRequest::BerPoint { spec, sj: None }
    }

    /// A single-point BER request with the sinusoidal jitter overridden
    /// to `(amplitude_pp, freq_norm)` for this point only.
    pub fn ber_point_at(spec: ModelSpec, amplitude_pp: f64, freq_norm: f64) -> EvalRequest {
        EvalRequest::BerPoint {
            spec,
            sj: Some(SjOverride {
                amplitude_pp,
                freq_norm,
            }),
        }
    }

    /// A BER map over SJ amplitude × frequency (the Fig. 9/10/17 shape).
    pub fn ber_grid(spec: ModelSpec, amps_pp: Vec<f64>, freqs_norm: Vec<f64>) -> EvalRequest {
        EvalRequest::BerGrid {
            spec,
            amps_pp,
            freqs_norm,
        }
    }

    /// A jitter-tolerance curve against `target_ber`.
    pub fn jtol_curve(spec: ModelSpec, freqs_norm: Vec<f64>, target_ber: f64) -> EvalRequest {
        EvalRequest::JtolCurve {
            spec,
            freqs_norm,
            target_ber,
        }
    }

    /// The §2.3 frequency-tolerance bisection against `target_ber`.
    pub fn ftol_search(spec: ModelSpec, target_ber: f64) -> EvalRequest {
        EvalRequest::FtolSearch { spec, target_ber }
    }

    /// The Fig. 11 power/phase-noise trade-off scan.
    pub fn power_scan(scan: PowerScanSpec) -> EvalRequest {
        EvalRequest::PowerScan { scan }
    }

    /// An event-driven ring-oscillator run.
    pub fn dsim_run(run: DsimRunSpec) -> EvalRequest {
        EvalRequest::DsimRun { run }
    }

    /// A multi-channel scenario evaluation.
    pub fn multi_channel(mc: MultiChannelSpec) -> EvalRequest {
        EvalRequest::MultiChannel { mc }
    }

    /// A design-space optimization run.
    pub fn optimize(opt: OptimizeSpec) -> EvalRequest {
        EvalRequest::Optimize { opt }
    }

    /// A competing-CDR baseline evaluation.
    pub fn baseline(arch: CdrArchKind, spec: BaselineSpec, metric: BaselineMetric) -> EvalRequest {
        EvalRequest::Baseline { arch, spec, metric }
    }

    /// Canonical content key for the whole request — the persistence
    /// analogue of [`ModelSpec::cache_key`], extended to every variant.
    ///
    /// Two requests that would compute bit-identical responses map to the
    /// same key; any semantic difference (a float one ULP apart, a grid
    /// point more, a different seed) yields a different key. Like the
    /// spec key, floats are keyed by their exact `to_bits` patterns, so
    /// the key is immune to formatting and field-order differences on the
    /// wire: parse → `cache_key` is the canonicalization.
    ///
    /// The `gcco-store` journal uses this string directly as the record
    /// key, which keeps collisions structurally impossible rather than
    /// merely improbable.
    pub fn cache_key(&self) -> String {
        use std::fmt::Write;
        fn push_f64s(key: &mut String, tag: char, values: &[f64]) {
            key.push('|');
            key.push(tag);
            for (i, v) in values.iter().enumerate() {
                if i > 0 {
                    key.push(',');
                }
                let _ = write!(key, "{:016x}", v.to_bits());
            }
        }
        let mut key = String::with_capacity(256);
        key.push_str(self.kind());
        if let Some(spec) = self.model_spec() {
            key.push('|');
            key.push_str(&spec.cache_key());
        }
        match self {
            EvalRequest::BerPoint { sj, .. } => match sj {
                None => key.push_str("|sj-"),
                Some(sj) => push_f64s(&mut key, 's', &[sj.amplitude_pp, sj.freq_norm]),
            },
            EvalRequest::BerGrid {
                amps_pp,
                freqs_norm,
                ..
            } => {
                push_f64s(&mut key, 'a', amps_pp);
                push_f64s(&mut key, 'f', freqs_norm);
            }
            EvalRequest::JtolCurve {
                freqs_norm,
                target_ber,
                ..
            } => {
                push_f64s(&mut key, 'f', freqs_norm);
                push_f64s(&mut key, 't', &[*target_ber]);
            }
            EvalRequest::FtolSearch { target_ber, .. } => {
                push_f64s(&mut key, 't', &[*target_ber]);
            }
            EvalRequest::PowerScan { scan } => {
                push_f64s(
                    &mut key,
                    'p',
                    &[
                        scan.bit_rate_gbps,
                        scan.swing_v,
                        scan.eta,
                        scan.sigma_ui_target,
                        scan.iss_min_ua,
                        scan.iss_max_ua,
                        scan.iss_sizing_max_a,
                    ],
                );
                let _ = write!(key, "|n{}.c{}.k{}", scan.n_stages, scan.cid, scan.steps);
            }
            EvalRequest::DsimRun { run } => {
                push_f64s(
                    &mut key,
                    'd',
                    &[run.stage_delay_ps, run.jitter_rel, run.duration_ns],
                );
                let _ = write!(key, "|x{:016x}.n{}", run.seed, run.stages);
            }
            EvalRequest::MultiChannel { mc } => {
                push_f64s(
                    &mut key,
                    'm',
                    &[
                        mc.mismatch_sigma,
                        mc.ripple_rms_ui,
                        mc.bit_rate_gbps,
                        mc.target_ber,
                    ],
                );
                let _ = write!(key, "|x{:016x}.n{}", mc.seed, mc.channels);
            }
            EvalRequest::Optimize { opt } => {
                push_f64s(
                    &mut key,
                    'o',
                    &[
                        opt.target_ber,
                        opt.budget_mw_per_gbps,
                        opt.bit_rate_gbps,
                        opt.freq_margin,
                        opt.margin_hi,
                        opt.ckj_lo,
                        opt.ckj_hi,
                        opt.rel_tol,
                    ],
                );
                let _ = write!(key, "|x{:016x}.p{}|t", opt.seed, opt.max_probes);
                for tap in &opt.taps {
                    key.push(match tap {
                        SamplingTap::Standard => '0',
                        SamplingTap::Improved => '1',
                    });
                }
                key.push_str("|c");
                for (i, cid) in opt.cids.iter().enumerate() {
                    if i > 0 {
                        key.push(',');
                    }
                    let _ = write!(key, "{cid}");
                }
            }
            EvalRequest::Baseline { arch, spec, metric } => {
                push_f64s(
                    &mut key,
                    'l',
                    &[
                        spec.bit_rate_gbps,
                        spec.freq_offset,
                        spec.kp,
                        spec.ki,
                        spec.sj_amp_pp,
                        spec.sj_freq_norm,
                        spec.rj_rms_ui,
                    ],
                );
                let _ = write!(
                    key,
                    "|x{:016x}.n{}.a{}",
                    spec.seed,
                    spec.bits,
                    arch.key_char()
                );
                match metric {
                    BaselineMetric::Track => key.push_str("|mt"),
                    BaselineMetric::CaptureRange { hi } => {
                        key.push_str("|mc");
                        push_f64s(&mut key, 'h', &[*hi]);
                    }
                    BaselineMetric::JtolPoint { freq_norm } => {
                        key.push_str("|mj");
                        push_f64s(&mut key, 'f', &[*freq_norm]);
                    }
                }
            }
        }
        key
    }

    /// Validates the request as data (spec ranges, grid shapes, targets).
    ///
    /// # Errors
    ///
    /// [`GccoError::InvalidSpec`] naming the first offence.
    pub fn validate(&self) -> Result<(), GccoError> {
        fn check_target_ber(t: f64) -> Result<(), GccoError> {
            if t > 0.0 && t < 1.0 {
                Ok(())
            } else {
                Err(GccoError::InvalidSpec(format!(
                    "target_ber must lie in (0, 1), got {t}"
                )))
            }
        }
        fn check_freqs(freqs: &[f64]) -> Result<(), GccoError> {
            if freqs.is_empty() {
                return Err(GccoError::InvalidSpec(
                    "frequency list must not be empty".to_string(),
                ));
            }
            for &f in freqs {
                if !(f > 0.0 && f.is_finite()) {
                    return Err(GccoError::InvalidSpec(format!(
                        "normalized frequencies must be positive and finite, got {f}"
                    )));
                }
            }
            Ok(())
        }
        // The spec check is variant-independent: one lookup instead of a
        // `spec.validate()?` line repeated per arm. (For `MultiChannel`
        // the base spec is checked here and the derived lanes below.)
        if let Some(spec) = self.model_spec() {
            spec.validate()?;
        }
        match self {
            EvalRequest::BerPoint { sj, .. } => {
                if let Some(sj) = sj {
                    check_sj_amplitude_pp("sj.amplitude_pp", sj.amplitude_pp)?;
                    check_freqs(&[sj.freq_norm])?;
                }
                Ok(())
            }
            EvalRequest::BerGrid {
                amps_pp,
                freqs_norm,
                ..
            } => {
                if amps_pp.is_empty() {
                    return Err(GccoError::InvalidSpec(
                        "amplitude list must not be empty".to_string(),
                    ));
                }
                for &a in amps_pp {
                    check_sj_amplitude_pp("amps_pp", a)?;
                }
                check_freqs(freqs_norm)
            }
            EvalRequest::JtolCurve {
                freqs_norm,
                target_ber,
                ..
            } => {
                check_freqs(freqs_norm)?;
                check_target_ber(*target_ber)
            }
            EvalRequest::FtolSearch { target_ber, .. } => check_target_ber(*target_ber),
            EvalRequest::PowerScan { scan } => scan.validate(),
            EvalRequest::DsimRun { run } => run.validate(),
            EvalRequest::MultiChannel { mc } => mc.validate(),
            // `opt.validate()` re-checks the base spec the lookup above
            // already covered; harmless, and it keeps OptimizeSpec
            // self-contained for non-request callers.
            EvalRequest::Optimize { opt } => opt.validate(),
            EvalRequest::Baseline { arch, spec, metric } => {
                spec.validate_for(*arch)?;
                metric.validate()
            }
        }
    }
}

/// One point of a jitter-tolerance curve, as plain response data.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JtolPointOut {
    /// Normalized SJ frequency.
    pub freq_norm: f64,
    /// Maximum tolerable SJ amplitude, peak-to-peak UI.
    pub amplitude_pp: f64,
    /// `true` when the search hit the amplitude cap.
    pub censored: bool,
}

impl From<gcco_stat::JtolPoint> for JtolPointOut {
    fn from(p: gcco_stat::JtolPoint) -> JtolPointOut {
        JtolPointOut {
            freq_norm: p.freq_norm,
            amplitude_pp: p.amplitude_pp.value(),
            censored: p.censored,
        }
    }
}

/// The analytically sized CML cell of a power scan, carried exactly
/// (current in amps, delay in integer femtoseconds) so callers can
/// reconstruct the identical `CmlCell`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SizedCellOut {
    /// Tail current, amps.
    pub iss_a: f64,
    /// Swing, volts.
    pub swing_v: f64,
    /// Stage delay, femtoseconds.
    pub delay_fs: i64,
}

impl SizedCellOut {
    /// Reconstructs the sized cell (bit-identical to the engine's).
    pub fn to_cell(self) -> gcco_noise::CmlCell {
        gcco_noise::CmlCell::sized_for_delay(
            gcco_units::Current::from_amps(self.iss_a),
            gcco_units::Voltage::from_volts(self.swing_v),
            gcco_units::Time::from_fs(self.delay_fs),
        )
    }
}

/// One point of the Fig. 11 trade-off scan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerPointOut {
    /// Tail current, amps.
    pub iss_a: f64,
    /// Whole-ring power, milliwatts.
    pub ring_power_mw: f64,
    /// Accumulated sampling-clock jitter at the design CID, UI RMS.
    pub sigma_ui: f64,
}

/// Summary statistics of an event-driven ring run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DsimRunOut {
    /// Mean measured oscillation period, picoseconds.
    pub period_ps_mean: f64,
    /// RMS deviation of the period, picoseconds.
    pub period_ps_rms: f64,
    /// Rising edges observed on the probed stage.
    pub rising_edges: u64,
    /// Kernel events processed.
    pub events: u64,
}

/// One lane of a multi-channel scenario result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChannelOut {
    /// Lane index (the position of its mismatch draw in the seeded
    /// stream).
    pub index: u32,
    /// The lane's drawn relative frequency offset.
    pub freq_offset: f64,
    /// The lane's BER under the composed (oscillator + ripple) jitter.
    pub ber: f64,
    /// Expected lock/settling time of the lane, in UI.
    pub settling_ui: f64,
}

/// The typed result of an [`EvalRequest`], one variant per request kind.
#[derive(Clone, Debug, PartialEq)]
pub enum EvalResponse {
    /// A single BER.
    Scalar {
        /// The value.
        value: f64,
    },
    /// `rows[a][f]` = BER at `amps_pp[a]`, `freqs_norm[f]`.
    Grid {
        /// The BER map rows.
        rows: Vec<Vec<f64>>,
    },
    /// A jitter-tolerance curve.
    Jtol {
        /// One point per requested frequency, in request order.
        points: Vec<JtolPointOut>,
    },
    /// The frequency tolerance (fractional offset).
    Ftol {
        /// The value.
        value: f64,
    },
    /// Power-scan results.
    Power {
        /// The analytically sized cell, when the sizing target was
        /// reachable.
        sized: Option<SizedCellOut>,
        /// The trade-off scan, one point per grid current.
        points: Vec<PowerPointOut>,
    },
    /// Ring-simulation summary.
    Dsim {
        /// The run statistics.
        run: DsimRunOut,
    },
    /// Multi-channel scenario roll-up.
    MultiChannel {
        /// Per-lane results, in lane order.
        channels: Vec<ChannelOut>,
        /// The worst (largest) per-lane BER.
        worst_ber: f64,
        /// Percentage of lanes meeting the scenario's target BER.
        yield_pct: f64,
        /// Per-channel power efficiency from the §3.2 sizing, mW per
        /// Gbit/s, when the jitter budget was reachable.
        mw_per_gbps: Option<f64>,
        /// Whether the roll-up comes in under the paper's 5 mW/Gbit/s
        /// budget ([`gcco_noise::PAPER_MW_PER_GBPS_BUDGET`]).
        within_budget: bool,
    },
    /// Design-space optimization report.
    Optimize {
        /// The recovered design, evidence, and probe accounting.
        out: OptimizeOut,
    },
    /// Competing-CDR baseline measurement.
    Baseline {
        /// The measured trace summary and bisected metric value.
        out: BaselineOut,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_cover_all_variants() {
        let spec = ModelSpec::paper_table1();
        let reqs = [
            EvalRequest::BerPoint {
                spec: spec.clone(),
                sj: None,
            },
            EvalRequest::BerGrid {
                spec: spec.clone(),
                amps_pp: vec![0.1],
                freqs_norm: vec![0.1],
            },
            EvalRequest::JtolCurve {
                spec: spec.clone(),
                freqs_norm: vec![0.1],
                target_ber: 1e-12,
            },
            EvalRequest::FtolSearch {
                spec,
                target_ber: 1e-12,
            },
            EvalRequest::PowerScan {
                scan: PowerScanSpec::paper_design(),
            },
            EvalRequest::DsimRun {
                run: DsimRunSpec::paper_ring(),
            },
            EvalRequest::MultiChannel {
                mc: MultiChannelSpec::paper_quad(),
            },
            EvalRequest::Optimize {
                opt: OptimizeSpec::paper_flow(),
            },
            EvalRequest::Baseline {
                arch: CdrArchKind::BangBang,
                spec: BaselineSpec::typical(CdrArchKind::BangBang),
                metric: BaselineMetric::Track,
            },
        ];
        let kinds: Vec<_> = reqs.iter().map(|r| r.kind()).collect();
        assert_eq!(
            kinds,
            [
                "ber_point",
                "ber_grid",
                "jtol_curve",
                "ftol_search",
                "power_scan",
                "dsim_run",
                "multi_channel",
                "optimize",
                "baseline"
            ]
        );
        for r in &reqs {
            assert!(r.validate().is_ok(), "{:?}", r.kind());
        }
    }

    #[test]
    fn constructor_helpers_build_the_same_requests_as_literals() {
        let spec = ModelSpec::paper_table1();
        assert_eq!(
            EvalRequest::ber_point(spec.clone()),
            EvalRequest::BerPoint {
                spec: spec.clone(),
                sj: None
            }
        );
        assert_eq!(
            EvalRequest::ber_point_at(spec.clone(), 0.5, 1e-3),
            EvalRequest::BerPoint {
                spec: spec.clone(),
                sj: Some(SjOverride {
                    amplitude_pp: 0.5,
                    freq_norm: 1e-3
                })
            }
        );
        assert_eq!(
            EvalRequest::ber_grid(spec.clone(), vec![0.1], vec![0.2]),
            EvalRequest::BerGrid {
                spec: spec.clone(),
                amps_pp: vec![0.1],
                freqs_norm: vec![0.2]
            }
        );
        assert_eq!(
            EvalRequest::jtol_curve(spec.clone(), vec![0.2], 1e-12),
            EvalRequest::JtolCurve {
                spec: spec.clone(),
                freqs_norm: vec![0.2],
                target_ber: 1e-12
            }
        );
        assert_eq!(
            EvalRequest::ftol_search(spec.clone(), 1e-12),
            EvalRequest::FtolSearch {
                spec,
                target_ber: 1e-12
            }
        );
        assert_eq!(
            EvalRequest::power_scan(PowerScanSpec::paper_design()),
            EvalRequest::PowerScan {
                scan: PowerScanSpec::paper_design()
            }
        );
        assert_eq!(
            EvalRequest::dsim_run(DsimRunSpec::paper_ring()),
            EvalRequest::DsimRun {
                run: DsimRunSpec::paper_ring()
            }
        );
        assert_eq!(
            EvalRequest::multi_channel(MultiChannelSpec::paper_quad()),
            EvalRequest::MultiChannel {
                mc: MultiChannelSpec::paper_quad()
            }
        );
        assert_eq!(
            EvalRequest::optimize(OptimizeSpec::paper_flow()),
            EvalRequest::Optimize {
                opt: OptimizeSpec::paper_flow()
            }
        );
        assert_eq!(
            EvalRequest::baseline(
                CdrArchKind::Gardner,
                BaselineSpec::typical(CdrArchKind::Gardner),
                BaselineMetric::Track
            ),
            EvalRequest::Baseline {
                arch: CdrArchKind::Gardner,
                spec: BaselineSpec::typical(CdrArchKind::Gardner),
                metric: BaselineMetric::Track
            }
        );
    }

    #[test]
    fn channel_specs_are_deterministic_and_carry_the_composed_ripple() {
        let mc = MultiChannelSpec::paper_quad();
        let lanes = mc.channel_specs();
        assert_eq!(lanes.len(), 4);
        // Bit-identical on every call — the derivation is a pure function.
        for (a, b) in lanes.iter().zip(mc.channel_specs().iter()) {
            assert_eq!(a.cache_key(), b.cache_key());
        }
        // The ripple composes in RSS identically across lanes (shared
        // PLL), and strictly exceeds the base oscillator jitter.
        let ckj = compose_ripple_jitter(mc.spec.ckj_rms, mc.ripple_rms_ui);
        for lane in &lanes {
            assert_eq!(lane.ckj_rms.to_bits(), ckj.to_bits());
            assert!(lane.ckj_rms > mc.spec.ckj_rms);
        }
        // Distinct lanes draw distinct offsets; a different seed draws a
        // different set.
        assert_ne!(lanes[0].freq_offset, lanes[1].freq_offset);
        let reseeded = MultiChannelSpec {
            seed: 2,
            ..MultiChannelSpec::paper_quad()
        };
        assert_ne!(
            reseeded.channel_specs()[0].freq_offset,
            lanes[0].freq_offset
        );
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        let spec = ModelSpec::paper_table1();
        let bad = [
            EvalRequest::BerGrid {
                spec: spec.clone(),
                amps_pp: vec![],
                freqs_norm: vec![0.1],
            },
            EvalRequest::BerGrid {
                spec: spec.clone(),
                amps_pp: vec![0.1],
                freqs_norm: vec![-0.1],
            },
            EvalRequest::JtolCurve {
                spec: spec.clone(),
                freqs_norm: vec![0.1],
                target_ber: 0.0,
            },
            EvalRequest::FtolSearch {
                spec: spec.clone(),
                target_ber: 1.5,
            },
            EvalRequest::BerPoint {
                spec,
                sj: Some(SjOverride {
                    amplitude_pp: f64::INFINITY,
                    freq_norm: 0.1,
                }),
            },
            EvalRequest::PowerScan {
                scan: PowerScanSpec {
                    steps: 1,
                    ..PowerScanSpec::paper_design()
                },
            },
            EvalRequest::DsimRun {
                run: DsimRunSpec {
                    stages: 3,
                    ..DsimRunSpec::paper_ring()
                },
            },
            EvalRequest::MultiChannel {
                mc: MultiChannelSpec {
                    channels: 0,
                    ..MultiChannelSpec::paper_quad()
                },
            },
            EvalRequest::MultiChannel {
                mc: MultiChannelSpec {
                    mismatch_sigma: -0.001,
                    ..MultiChannelSpec::paper_quad()
                },
            },
            EvalRequest::MultiChannel {
                mc: MultiChannelSpec {
                    ripple_rms_ui: f64::NAN,
                    ..MultiChannelSpec::paper_quad()
                },
            },
            EvalRequest::MultiChannel {
                mc: MultiChannelSpec {
                    target_ber: 0.0,
                    ..MultiChannelSpec::paper_quad()
                },
            },
            EvalRequest::Optimize {
                opt: OptimizeSpec {
                    taps: vec![],
                    ..OptimizeSpec::paper_flow()
                },
            },
            EvalRequest::Optimize {
                opt: OptimizeSpec {
                    freq_margin: 0.02,
                    margin_hi: 0.01,
                    ..OptimizeSpec::paper_flow()
                },
            },
            EvalRequest::Baseline {
                arch: CdrArchKind::BangBang,
                spec: BaselineSpec {
                    kp: 0.0,
                    ..BaselineSpec::typical(CdrArchKind::BangBang)
                },
                metric: BaselineMetric::Track,
            },
            EvalRequest::Baseline {
                arch: CdrArchKind::BangBang,
                spec: BaselineSpec {
                    freq_offset: f64::NAN,
                    ..BaselineSpec::typical(CdrArchKind::BangBang)
                },
                metric: BaselineMetric::Track,
            },
            EvalRequest::Baseline {
                arch: CdrArchKind::BangBang,
                spec: BaselineSpec::typical(CdrArchKind::BangBang),
                metric: BaselineMetric::CaptureRange { hi: 0.0 },
            },
        ];
        for r in &bad {
            assert!(r.validate().is_err(), "{r:?} must be rejected");
        }
    }
}
