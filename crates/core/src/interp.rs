//! Second baseline comparator: a phase-interpolator (PI) CDR.
//!
//! The third alternative the paper's §1 names ("popular PLL, DLL or phase
//! interpolation techniques"): a digital loop that steers a finite-step
//! phase interpolator fed with multi-phase clocks from the shared PLL.
//! Compared with the bang-bang VCO loop it has no per-channel oscillator,
//! but it pays with **phase quantization** (the interpolator has a finite
//! number of steps per UI) and the same slew-limited jitter tracking —
//! and the interpolator, its thermometer DAC and the multi-phase clock
//! distribution are exactly the power the paper's gated oscillator avoids.

use crate::cdr_arch::{CdrArch, CdrTrace, LockDetector};
use gcco_signal::{BitStream, EdgeStream, JitterConfig};
use gcco_units::Freq;

/// Early/late decisions majority-voted into one loop update.
const DECIMATION: u32 = 8;
/// Interpolator steps the code moves per loop update.
const STEPS_PER_UPDATE: i64 = 1;

/// Phase-interpolator CDR parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PiConfig {
    /// Interpolator phase step, in UI (1/64 is a common design point).
    pub step_ui: f64,
    /// Local reference offset versus the data rate (fraction); the PI must
    /// rotate continuously to absorb it.
    pub freq_offset: f64,
}

impl PiConfig {
    /// A conventional design point: 64 steps/UI (the loop moves one step
    /// per update, majority-voting 8 decisions into each).
    pub fn typical() -> PiConfig {
        PiConfig {
            step_ui: 1.0 / 64.0,
            freq_offset: 0.0,
        }
    }
}

impl Default for PiConfig {
    fn default() -> PiConfig {
        PiConfig::typical()
    }
}

/// A phase-interpolator CDR operating on edge displacements.
///
/// # Examples
///
/// ```
/// use gcco_core::{CdrArch, PhaseInterpCdr, PiConfig};
/// use gcco_signal::{JitterConfig, Prbs, PrbsOrder};
/// use gcco_units::Freq;
///
/// let bits = Prbs::new(PrbsOrder::P7).take_bits(20_000);
/// let cdr = PhaseInterpCdr::new(PiConfig::typical());
/// let trace = cdr.track(&bits, Freq::from_gbps(2.5), &JitterConfig::none(), 1);
/// assert_eq!(trace.errors, 0);
/// // Quantization floor: the PI can never sit still, it dithers ±1 step.
/// assert!(trace.residual_rms().expect("locked") >= 0.5 / 64.0 * 0.5);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct PhaseInterpCdr {
    config: PiConfig,
}

impl PhaseInterpCdr {
    /// Creates a PI CDR.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < step_ui <= 0.25` (at least 4 steps per UI).
    pub fn new(config: PiConfig) -> PhaseInterpCdr {
        assert!(
            config.step_ui > 0.0 && config.step_ui <= 0.25,
            "need at least 4 steps/UI (0 < step_ui <= 0.25), got step_ui = {}",
            config.step_ui
        );
        PhaseInterpCdr { config }
    }

    /// The configuration.
    pub fn config(&self) -> &PiConfig {
        &self.config
    }
}

impl CdrArch for PhaseInterpCdr {
    fn name(&self) -> &'static str {
        "phase-interp"
    }

    /// Tracks a jittered stream, starting half a UI off.
    fn track(
        &self,
        bits: &BitStream,
        bit_rate: Freq,
        jitter: &JitterConfig,
        seed: u64,
    ) -> CdrTrace {
        let cfg = &self.config;
        let stream = EdgeStream::synthesize(bits, bit_rate, jitter, seed);
        let ui = bit_rate.period();
        let step = cfg.step_ui;
        // Interpolator code (phase offset in steps) and residual frequency
        // rotation.
        let mut code: i64 = (0.5 / step) as i64;
        let mut vote: i32 = 0;
        let mut votes_seen: u32 = 0;
        let mut last_edge_bit = 0.0f64;
        let mut frac_rotation = 0.0f64;
        let mut trace = CdrTrace::with_capacity(stream.edges().len());
        let mut lock = LockDetector::new();

        for edge in stream.edges() {
            let edge_bit = edge.time / ui;
            let elapsed = (edge_bit - last_edge_bit).max(0.0);
            last_edge_bit = edge_bit;
            // The fixed reference rotates against the data by the ppm
            // offset; the PI must counter-rotate in integer steps.
            frac_rotation += cfg.freq_offset * elapsed;

            let theta = code as f64 * step + frac_rotation;
            let displacement = edge_bit - edge_bit.round();
            let error = displacement - theta;
            trace.updates += 1;
            if error.abs() > 0.5 {
                trace.record_error(trace.updates - 1);
            }
            trace.phase_error.push(error);
            lock.observe(error, edge_bit.round().max(0.0) as usize, trace.updates - 1);

            // Decimated majority-vote bang-bang update.
            vote += if error > 0.0 { 1 } else { -1 };
            votes_seen += 1;
            if votes_seen == DECIMATION {
                if vote > 0 {
                    code += STEPS_PER_UPDATE;
                } else if vote < 0 {
                    code -= STEPS_PER_UPDATE;
                }
                vote = 0;
                votes_seen = 0;
            }
        }
        if let Some((update, bit)) = lock.lock() {
            trace.lock_update = Some(update);
            trace.lock_bits = Some(bit);
        }
        trace
    }

    /// The rotation-rate cap: the code moves at most one step per 8
    /// transitions (the decimation) against an offset slipping `ε` UI per
    /// bit, so `ε ≤ ρ·step/8` with ρ ≈ 0.5.
    fn capture_range(&self) -> f64 {
        0.5 * self.config.step_ui / DECIMATION as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcco_signal::{Prbs, PrbsOrder, SinusoidalJitter};
    use gcco_units::Ui;

    fn rate() -> Freq {
        Freq::from_gbps(2.5)
    }

    fn bits(n: usize) -> BitStream {
        Prbs::new(PrbsOrder::P7).take_bits(n)
    }

    #[test]
    fn acquires_and_tracks_clean_data() {
        let cdr = PhaseInterpCdr::new(PiConfig::typical());
        let result = cdr.track(&bits(30_000), rate(), &JitterConfig::none(), 1);
        assert_eq!(result.errors, 0, "{result}");
        // Settled error bounded by a few interpolator steps.
        let tail = &result.phase_error[result.phase_error.len() * 3 / 4..];
        assert!(tail.iter().all(|e| e.abs() < 4.0 / 64.0), "{result}");
    }

    #[test]
    fn quantization_floor_exists() {
        // Unlike the gated oscillator (continuous resync), the PI dithers
        // around the lock point by at least a step.
        let cdr = PhaseInterpCdr::new(PiConfig::typical());
        let result = cdr.track(&bits(30_000), rate(), &JitterConfig::none(), 2);
        assert!(result.residual_rms().unwrap() >= 0.25 / 64.0, "{result}");
    }

    #[test]
    fn finer_interpolator_reduces_the_floor() {
        let coarse = PhaseInterpCdr::new(PiConfig {
            step_ui: 1.0 / 16.0,
            ..PiConfig::typical()
        });
        let fine = PhaseInterpCdr::new(PiConfig {
            step_ui: 1.0 / 128.0,
            ..PiConfig::typical()
        });
        let data = bits(30_000);
        let rc = coarse.track(&data, rate(), &JitterConfig::none(), 3);
        let rf = fine.track(&data, rate(), &JitterConfig::none(), 3);
        assert!(
            rf.residual_rms().unwrap() < rc.residual_rms().unwrap(),
            "{rc} vs {rf}"
        );
    }

    #[test]
    fn ppm_offset_is_absorbed_by_continuous_rotation() {
        let cdr = PhaseInterpCdr::new(PiConfig {
            freq_offset: 200e-6,
            ..PiConfig::typical()
        });
        let result = cdr.track(&bits(60_000), rate(), &JitterConfig::none(), 4);
        // A handful of decisions can cross ±0.5 UI during the worst-case
        // 0.5 UI acquisition; post-lock there must be none.
        assert!(result.errors < 20, "{result}");
        let tail = &result.phase_error[result.phase_error.len() / 2..];
        assert!(tail.iter().all(|e| e.abs() < 0.5), "post-lock errors");
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(mean.abs() < 0.05, "residual {mean}");
    }

    #[test]
    fn excess_offset_outruns_the_rotation() {
        // The PI can rotate at most one step per decimated update, step/8
        // UI per transition ≈ 1/(8·64) ≈ 0.2 % per transition → with ~0.5
        // transition density, offsets beyond ~0.1 % start slipping.
        let cdr = PhaseInterpCdr::new(PiConfig {
            freq_offset: 0.01,
            ..PiConfig::typical()
        });
        let result = cdr.track(&bits(60_000), rate(), &JitterConfig::none(), 5);
        assert!(result.errors > 0, "{result}");
    }

    #[test]
    fn slow_jitter_tracked_fast_jitter_not() {
        let cdr = PhaseInterpCdr::new(PiConfig::typical());
        let slow =
            JitterConfig::none().with_sj(SinusoidalJitter::new(Ui::new(0.4), Freq::from_khz(50.0)));
        let ok = cdr.track(&bits(60_000), rate(), &slow, 6);
        assert_eq!(ok.errors, 0, "{ok}");
        let fast = JitterConfig::none()
            .with_sj(SinusoidalJitter::new(Ui::new(1.4), Freq::from_mhz(625.0)));
        let bad = cdr.track(&bits(60_000), rate(), &fast, 7);
        assert!(bad.errors > 0, "{bad}");
    }

    #[test]
    #[should_panic(expected = "at least 4 steps")]
    fn rejects_tiny_interpolator() {
        let _ = PhaseInterpCdr::new(PiConfig {
            step_ui: 1.0 / 2.0,
            ..PiConfig::typical()
        });
    }
}
