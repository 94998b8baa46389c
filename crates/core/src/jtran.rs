//! Jitter transfer: how much of the input jitter appears on the recovered
//! clock.
//!
//! The classic companion figure to jitter tolerance. Loop-based CDRs are
//! low-pass (they *filter* input jitter above the loop bandwidth at the
//! cost of not tracking it); the gated oscillator is the opposite extreme:
//! it re-times on every transition, so its recovered clock *follows* the
//! input jitter at all frequencies (transfer ≈ 0 dB) and never filters —
//! which is exactly why it tolerates unlimited low-frequency jitter and
//! needs no jitter-peaking analysis.

use crate::baseline::BangBangCdr;
use crate::cdr::{build_cdr, CdrConfig};
use crate::cdr_arch::CdrArch;
use gcco_dsim::Simulator;
use gcco_signal::{BitStream, EdgeStream, JitterConfig, SinusoidalJitter};
use gcco_stat::tone_amplitude;
use gcco_units::{Freq, Time, Ui};

/// Measures the GCCO's jitter transfer gain at the given normalized SJ
/// frequency: the amplitude of the SJ tone on the recovered clock's TIE
/// divided by the injected amplitude.
///
/// Uses alternating data (one transition per bit, so the recovered clock
/// is resynchronized every UI and yields one TIE sample per bit).
///
/// # Panics
///
/// Panics unless `0 < f_norm < 0.5` and `n_bits ≥ 512`.
pub fn gcco_jitter_transfer(
    config: &CdrConfig,
    bit_rate: Freq,
    f_norm: f64,
    amplitude_pp: Ui,
    n_bits: usize,
    seed: u64,
) -> f64 {
    assert!(f_norm > 0.0 && f_norm < 0.5, "invalid frequency {f_norm}");
    assert!(n_bits >= 512, "need at least 512 bits");
    let bits = BitStream::alternating(n_bits);
    let jitter =
        JitterConfig::none().with_sj(SinusoidalJitter::new(amplitude_pp, bit_rate * f_norm));
    let stream = EdgeStream::synthesize(&bits, bit_rate, &jitter, seed);

    let mut sim = Simulator::new(seed ^ 0x77);
    let handles = build_cdr(&mut sim, "jt", config);
    sim.probe(handles.clock);
    let changes: Vec<(Time, bool)> = stream
        .edges()
        .iter()
        .map(|e| (e.time + bit_rate.period(), e.rising))
        .collect();
    sim.drive(handles.ed.din, &changes);
    sim.run_until(stream.duration() + bit_rate.period() * 4);

    // Recovered-clock TIE, one sample per UI, detrended.
    let rising = sim.trace(handles.clock).unwrap().rising_edges();
    let skip = 16.min(rising.len() / 4);
    let ui = bit_rate.period();
    let tie: Vec<f64> = rising[skip..]
        .iter()
        .enumerate()
        .map(|(k, &t)| (t - rising[skip]) / ui - k as f64)
        .collect();
    let detrended = detrend(&tie);
    let out_pp = 2.0 * tone_amplitude(&detrended, f_norm);
    out_pp / amplitude_pp.value()
}

/// Measures the bang-bang loop's jitter transfer gain at the given
/// normalized frequency (tone on the tracked sampling phase over the
/// injected tone).
///
/// # Panics
///
/// Panics unless `0 < f_norm < 0.5`.
pub fn bang_bang_jitter_transfer(
    cdr: &BangBangCdr,
    bit_rate: Freq,
    f_norm: f64,
    amplitude_pp: Ui,
    n_bits: usize,
    seed: u64,
) -> f64 {
    assert!(f_norm > 0.0 && f_norm < 0.5, "invalid frequency {f_norm}");
    let bits = BitStream::alternating(n_bits);
    let jitter =
        JitterConfig::none().with_sj(SinusoidalJitter::new(amplitude_pp, bit_rate * f_norm));
    let trace = cdr.track(&bits, bit_rate, &jitter, seed);
    // Recovered clock phase θ = displacement − error; alternating data
    // gives one sample per bit.
    let skip = trace.updates / 4;
    let theta: Vec<f64> = trace.phase_error[skip..]
        .iter()
        .enumerate()
        .map(|(k, &e)| {
            // Reconstruct the input displacement at this transition: with
            // alternating data, transition i sits at bit i + 1 (the first
            // transition is between bits 0 and 1).
            let a = amplitude_pp.value() / 2.0;
            let displacement =
                a * (2.0 * std::f64::consts::PI * f_norm * (skip + k + 1) as f64).sin();
            displacement - e
        })
        .collect();
    let detrended = detrend(&theta);
    let out_pp = 2.0 * tone_amplitude(&detrended, f_norm);
    out_pp / amplitude_pp.value()
}

/// Removes mean and linear trend (static phase and frequency offset).
fn detrend(samples: &[f64]) -> Vec<f64> {
    let n = samples.len() as f64;
    let mean_x = (n - 1.0) / 2.0;
    let mean_y = samples.iter().sum::<f64>() / n;
    let mut num = 0.0;
    let mut den = 0.0;
    for (i, &y) in samples.iter().enumerate() {
        let dx = i as f64 - mean_x;
        num += dx * (y - mean_y);
        den += dx * dx;
    }
    let slope = if den > 0.0 { num / den } else { 0.0 };
    samples
        .iter()
        .enumerate()
        .map(|(i, &y)| y - mean_y - slope * (i as f64 - mean_x))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn default_bang_bang() -> BangBangCdr {
        BangBangCdr::new(crate::BangBangConfig::typical())
    }

    fn rate() -> Freq {
        Freq::from_gbps(2.5)
    }

    #[test]
    fn gcco_transfer_is_all_pass() {
        // The defining property: the gated oscillator follows input jitter
        // at every frequency (gain ≈ 1).
        for f in [0.01, 0.05, 0.2] {
            let gain = gcco_jitter_transfer(&CdrConfig::paper(), rate(), f, Ui::new(0.08), 4096, 1);
            assert!(
                (gain - 1.0).abs() < 0.25,
                "f = {f}: gain {gain} should be ~1"
            );
        }
    }

    #[test]
    fn bang_bang_transfer_is_low_pass() {
        // Bang-bang loops are slew-limited, so their effective bandwidth
        // shrinks with amplitude: pick an amplitude whose slope exceeds the
        // kp slew at the high frequency (π·A·f ≫ kp).
        let cdr = default_bang_bang();
        let amp = Ui::new(0.4);
        let low = bang_bang_jitter_transfer(&cdr, rate(), 0.0005, amp, 16384, 2);
        let high = bang_bang_jitter_transfer(&cdr, rate(), 0.05, amp, 16384, 2);
        assert!(low > 0.7, "in-band gain {low}");
        assert!(high < 0.5, "out-of-band gain {high}");
        assert!(low > 2.0 * high, "{low} vs {high}");
    }

    #[test]
    fn small_amplitudes_sneak_through_the_bang_bang_loop() {
        // The flip side of slew limiting: jitter small enough to stay
        // inside the per-transition step is tracked even at frequencies a
        // linear loop would reject — gain stays near 1.
        let cdr = default_bang_bang();
        let gain = bang_bang_jitter_transfer(&cdr, rate(), 0.05, Ui::new(0.05), 16384, 3);
        assert!(gain > 0.7, "{gain}");
    }

    #[test]
    fn detrend_removes_offset_and_slope() {
        let samples: Vec<f64> = (0..100).map(|i| 3.0 + 0.25 * i as f64).collect();
        let out = detrend(&samples);
        assert!(out.iter().all(|v| v.abs() < 1e-9), "{:?}", &out[..4]);
    }

    #[test]
    #[should_panic(expected = "invalid frequency")]
    fn rejects_nyquist() {
        let _ = gcco_jitter_transfer(&CdrConfig::paper(), rate(), 0.6, Ui::new(0.1), 1024, 0);
    }
}
