//! Error function, Gaussian tail (Q) and related special functions.
//!
//! BER targets of 10⁻¹² live ~7σ into the Gaussian tail, far beyond where
//! naive series expansions or `1 − erf(x)` cancellation are usable, so we
//! implement `erfc` directly with the classic Cody-style rational
//! approximations (double precision, relative error < 1e-13 over the whole
//! range) and build everything else on top of it.

use std::sync::OnceLock;

/// Complementary error function `erfc(x) = 2/√π ∫ₓ^∞ e^(−t²) dt`.
///
/// Accurate to better than 1e-13 relative error for all finite inputs;
/// underflows to 0 around `x ≈ 27`.
///
/// ```
/// use gcco_stat::erfc;
/// assert!((erfc(0.0) - 1.0).abs() < 1e-15);
/// assert!((erfc(1.0) - 0.15729920705028513).abs() < 1e-13);
/// ```
pub fn erfc(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    if x < 2.0 {
        // The scaled series has no cancellation and erfc(2) ≈ 4.7e-3, so the
        // 1 − erf subtraction still leaves ~13 good digits at the crossover.
        return 1.0 - erf_small(x);
    }
    // Continued-fraction (Lentz) evaluation of the scaled erfcx, then
    // multiply by exp(-x²). Converges fast for x ≥ 0.5.
    let x2 = x * x;
    let e = (-x2).exp();
    if e == 0.0 {
        return 0.0;
    }
    // erfc(x) = e^{-x²}/(x√π) · 1/(1 + 1/(2x²)·CF) via the standard
    // asymptotic continued fraction:
    // erfc(x) = e^{-x²}/√π · 1/(x + 1/2/(x + 1/(x + 3/2/(x + …))))
    let mut f = x;
    let mut c = x;
    let mut d = 0.0;
    let mut k = 0.5;
    for _ in 0..200 {
        // a_k = k/2 terms alternate structure: b = x, a = k/2.
        d = x + k * d;
        c = x + k / c;
        if d == 0.0 {
            d = f64::MIN_POSITIVE;
        }
        d = 1.0 / d;
        let delta = c * d;
        f *= delta;
        if (delta - 1.0).abs() < 1e-16 {
            break;
        }
        k += 0.5;
    }
    e / (f * core::f64::consts::PI.sqrt())
}

/// `erf(x)` for small |x| via the *scaled* Maclaurin series
/// `erf(x) = 2x·e^(−x²)/√π · Σₙ (2x²)ⁿ/(2n+1)!!`, whose terms are all
/// positive (no alternating-sign cancellation), so it stays accurate and
/// cheap out to the |x| < 2 crossover: one multiply-divide-add per term and
/// ~10–45 terms depending on |x|.
fn erf_small(x: f64) -> f64 {
    let t = 2.0 * x * x;
    let mut term = 1.0;
    let mut sum = 1.0;
    let mut denom = 1.0;
    for _ in 0..200 {
        denom += 2.0;
        term *= t / denom;
        sum += term;
        if term < 1e-17 * sum {
            break;
        }
    }
    2.0 * x * (-x * x).exp() * sum / core::f64::consts::PI.sqrt()
}

/// Error function `erf(x) = 1 − erfc(x)`.
///
/// ```
/// use gcco_stat::erf;
/// assert!((erf(1.0) - 0.8427007929497149).abs() < 1e-13);
/// assert!((erf(-1.0) + 0.8427007929497149).abs() < 1e-13);
/// ```
pub fn erf(x: f64) -> f64 {
    if x.abs() < 2.0 {
        erf_small(x)
    } else {
        1.0 - erfc(x)
    }
}

/// Gaussian tail probability `Q(x) = P(N(0,1) > x) = erfc(x/√2)/2`.
///
/// ```
/// use gcco_stat::q_function;
/// assert!((q_function(0.0) - 0.5).abs() < 1e-15);
/// // The classic BER=1e-12 point sits at Q(7.034…).
/// assert!((q_function(7.034) - 1e-12).abs() < 3e-14);
/// ```
pub fn q_function(x: f64) -> f64 {
    0.5 * erfc(x / core::f64::consts::SQRT_2)
}

/// Standard normal PDF.
pub fn norm_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * core::f64::consts::PI).sqrt()
}

/// Inverse of [`q_function`]: returns `x` with `Q(x) = p`, via bisection +
/// Newton polish.
///
/// # Panics
///
/// Panics unless `0 < p < 1`.
///
/// ```
/// use gcco_stat::{q_function, q_inverse};
/// let x = q_inverse(1e-12);
/// assert!((q_function(x) / 1e-12 - 1.0).abs() < 1e-9);
/// ```
pub fn q_inverse(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "q_inverse domain: 0 < p < 1, got {p}");
    // Bracket: Q(−40)≈1, Q(40)≈0.
    let (mut lo, mut hi) = (-40.0f64, 40.0f64);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if q_function(mid) > p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let mut x = 0.5 * (lo + hi);
    // Newton polish on log Q for conditioning.
    for _ in 0..4 {
        let q = q_function(x);
        let dq = -norm_pdf(x);
        if q > 0.0 && dq != 0.0 {
            let step = (q - p) / dq;
            if step.is_finite() {
                x -= step.clamp(-1.0, 1.0);
            }
        }
    }
    x
}

/// Precomputed Gaussian-tail lookup table: `Q(z)` via cubic interpolation of
/// `ln Q` on a uniform grid, for sweep workloads where [`q_function`] calls
/// dominate the runtime (BER grids evaluate it tens of thousands of times per
/// point with the same machinery).
///
/// `ln Q(z)` is smooth and nearly quadratic, so a 4-point Lagrange stencil at
/// 1/128 spacing keeps the *relative* error on `Q` below ~1e-10 across the
/// whole tabulated range — deep tails included, which matters because BER
/// targets live at `Q ≈ 1e-12` and beyond. Outside the table the exact
/// [`q_function`] (cheap there) or the saturated value 1 is used, so the
/// table never degrades far-tail behaviour.
///
/// ```
/// use gcco_stat::{q_function, QTable};
/// let tab = QTable::new();
/// let (exact, fast) = (q_function(7.034), tab.q(7.034));
/// assert!((fast / exact - 1.0).abs() < 1e-9);
/// ```
#[derive(Clone, Debug)]
pub struct QTable {
    ln_q: Vec<f64>,
}

/// Lower edge of the tabulated `z` range; below this `Q(z)` is 1 to within
/// a few ulps.
const QTAB_Z_LO: f64 = -8.0;
/// Upper edge of the interpolated range; above this the exact function is
/// used directly (its continued fraction converges in a handful of terms
/// there, and it underflows to 0 near z ≈ 38.6 anyway).
const QTAB_Z_HI: f64 = 37.5;
/// Table resolution: samples per unit `z`.
const QTAB_PER_UNIT: f64 = 128.0;

impl QTable {
    /// Block width of [`QTable::q_batch`]'s all-in-band fast path. This is
    /// a branch-amortization granularity, not a SIMD register width (the
    /// `exp` calls stay scalar either way), so it is deliberately wider
    /// than [`crate::lanes::LANES`]: callers batching `z` arguments should
    /// feed slices in multiples of it to stay on the fast path.
    pub const BATCH: usize = 8;

    /// Builds the table (~6k entries, ~48 KiB) by sampling [`q_function`],
    /// which takes ~0.8 ms. The table is a pure function of constants, so
    /// readers should borrow [`QTable::shared`] rather than build their
    /// own.
    pub fn new() -> QTable {
        let n = ((QTAB_Z_HI - QTAB_Z_LO + 1.0) * QTAB_PER_UNIT) as usize + 4;
        let ln_q = (0..n)
            .map(|i| {
                let z = QTAB_Z_LO + i as f64 / QTAB_PER_UNIT;
                q_function(z).ln()
            })
            .collect();
        QTable { ln_q }
    }

    /// The process-wide table: built by the first caller, borrowed by
    /// every later one. Bit-identical to [`QTable::new`].
    pub fn shared() -> &'static QTable {
        static SHARED: OnceLock<QTable> = OnceLock::new();
        SHARED.get_or_init(QTable::new)
    }

    /// Interpolated `Q(z)`, matching [`q_function`] to ~1e-10 relative error.
    #[inline]
    pub fn q(&self, z: f64) -> f64 {
        if z <= QTAB_Z_LO {
            // Q(-8) differs from 1 by ~6e-16; saturating keeps the sum exact
            // to double precision.
            return 1.0;
        }
        if z >= QTAB_Z_HI {
            return q_function(z);
        }
        let u = (z - QTAB_Z_LO) * QTAB_PER_UNIT;
        // Centre the 4-point stencil on the containing interval, clamped so
        // the first interval reuses the stencil anchored at index 1.
        let i = (u as usize).max(1);
        let s = u - i as f64;
        let (a, b, c, d) = (
            self.ln_q[i - 1],
            self.ln_q[i],
            self.ln_q[i + 1],
            self.ln_q[i + 2],
        );
        let (s1, sm1, sm2) = (s + 1.0, s - 1.0, s - 2.0);
        let v = -a * s * sm1 * sm2 / 6.0 + b * s1 * sm1 * sm2 / 2.0 - c * s1 * s * sm2 / 2.0
            + d * s1 * s * sm1 / 6.0;
        v.exp()
    }

    /// Batch form of [`QTable::q`]: `out[i] = q(zs[i])`, bit-identical.
    ///
    /// Used by the lane-batched tail sums in [`crate::Pdf`]: the stencil
    /// index math and the Lagrange polynomial are evaluated chunk-wise in
    /// straight-line code (per-element expressions unchanged, so the bits
    /// match the scalar path exactly), which lets them pipeline across
    /// elements instead of serializing behind each `exp` call. Values
    /// outside the interpolated band take the same per-element saturation /
    /// exact-`q_function` branches the scalar path takes.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn q_batch(&self, zs: &[f64], out: &mut [f64]) {
        assert_eq!(zs.len(), out.len(), "q_batch length mismatch");
        const B: usize = QTable::BATCH;
        let (zc, zrem) = zs.as_chunks::<B>();
        let (oc, orem) = out.as_chunks_mut::<B>();
        for (z, o) in zc.iter().zip(oc) {
            if z.iter().all(|&v| v > QTAB_Z_LO && v < QTAB_Z_HI) {
                // All lanes in-band: branch-free interpolation, then the
                // (scalar) exponentials.
                let mut ln = [0.0f64; B];
                for l in 0..B {
                    let u = (z[l] - QTAB_Z_LO) * QTAB_PER_UNIT;
                    let i = (u as usize).max(1);
                    let s = u - i as f64;
                    let (a, b, c, d) = (
                        self.ln_q[i - 1],
                        self.ln_q[i],
                        self.ln_q[i + 1],
                        self.ln_q[i + 2],
                    );
                    let (s1, sm1, sm2) = (s + 1.0, s - 1.0, s - 2.0);
                    ln[l] = -a * s * sm1 * sm2 / 6.0 + b * s1 * sm1 * sm2 / 2.0
                        - c * s1 * s * sm2 / 2.0
                        + d * s1 * s * sm1 / 6.0;
                }
                for l in 0..B {
                    o[l] = ln[l].exp();
                }
            } else {
                for l in 0..B {
                    o[l] = self.q(z[l]);
                }
            }
        }
        for (&z, o) in zrem.iter().zip(orem) {
            *o = self.q(z);
        }
    }
}

impl Default for QTable {
    fn default() -> Self {
        QTable::new()
    }
}

/// The *crest factor* `2·Q⁻¹(ber)`: ratio between the peak-to-peak extent of
/// Gaussian random jitter at a given BER and its RMS (≈ 14.069 at 10⁻¹²).
///
/// ```
/// use gcco_stat::rj_crest_factor;
/// assert!((rj_crest_factor(1e-12) - 14.069).abs() < 0.01);
/// ```
pub fn rj_crest_factor(ber: f64) -> f64 {
    2.0 * q_inverse(ber)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_reference_values() {
        // Reference values from standard tables / mpmath.
        let cases = [
            (0.0, 1.0),
            (0.1, 0.8875370839817152),
            (0.5, 0.4795001221869535),
            (1.0, 0.15729920705028513),
            (2.0, 0.004677734981047266),
            (3.0, 2.209049699858544e-5),
            (5.0, 1.5374597944280351e-12),
            (7.0, 4.183825607779414e-23),
        ];
        for (x, expected) in cases {
            let got = erfc(x);
            assert!(
                (got / expected - 1.0).abs() < 1e-12,
                "erfc({x}) = {got}, want {expected}"
            );
        }
    }

    #[test]
    fn erfc_negative_symmetry() {
        for x in [0.3, 1.7, 4.2] {
            assert!((erfc(-x) - (2.0 - erfc(x))).abs() < 1e-14);
        }
    }

    #[test]
    fn erf_plus_erfc_is_one() {
        for i in 0..100 {
            let x = -5.0 + 0.1 * i as f64;
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-13, "x = {x}");
        }
    }

    #[test]
    fn q_function_deep_tail() {
        // Q(7.034) ≈ 1e-12 (the jitter-analysis staple).
        assert!((q_function(7.034).log10() + 12.0).abs() < 0.01);
        // Monotone decreasing.
        let mut prev = 1.0;
        for i in 0..300 {
            let q = q_function(i as f64 * 0.1);
            assert!(q < prev);
            prev = q;
        }
    }

    #[test]
    fn q_inverse_round_trips() {
        for p in [0.4, 0.1, 1e-3, 1e-6, 1e-9, 1e-12, 1e-15] {
            let x = q_inverse(p);
            assert!(
                (q_function(x) / p - 1.0).abs() < 1e-8,
                "p = {p}, x = {x}, Q(x) = {}",
                q_function(x)
            );
        }
    }

    #[test]
    fn crest_factor_table() {
        // Published dual-Dirac crest factors.
        assert!((rj_crest_factor(1e-9) - 11.996).abs() < 0.01);
        assert!((rj_crest_factor(1e-12) - 14.069).abs() < 0.01);
        assert!((rj_crest_factor(1e-15) - 15.883).abs() < 0.01);
    }

    #[test]
    fn norm_pdf_peak_and_symmetry() {
        assert!((norm_pdf(0.0) - 0.3989422804014327).abs() < 1e-15);
        assert!((norm_pdf(1.5) - norm_pdf(-1.5)).abs() < 1e-18);
    }

    #[test]
    #[should_panic(expected = "domain")]
    fn q_inverse_rejects_zero() {
        let _ = q_inverse(0.0);
    }

    #[test]
    fn nan_propagates() {
        assert!(erfc(f64::NAN).is_nan());
    }

    /// The original (pre-speedup) erfc: alternating Maclaurin series below
    /// 1.0, Lentz continued fraction above. Kept as a regression oracle for
    /// the faster scaled-series implementation.
    fn erfc_legacy(x: f64) -> f64 {
        if x < 0.0 {
            return 2.0 - erfc_legacy(-x);
        }
        if x < 1.0 {
            let x2 = x * x;
            let mut term = x;
            let mut sum = x;
            for n in 1..40 {
                term *= -x2 / n as f64;
                let contrib = term / (2 * n + 1) as f64;
                sum += contrib;
                if contrib.abs() < 1e-18 * sum.abs() {
                    break;
                }
            }
            return 1.0 - sum * 2.0 / core::f64::consts::PI.sqrt();
        }
        let x2 = x * x;
        let e = (-x2).exp();
        if e == 0.0 {
            return 0.0;
        }
        let mut f = x;
        let mut c = x;
        let mut d = 0.0;
        let mut k = 0.5;
        for _ in 0..200 {
            d = x + k * d;
            c = x + k / c;
            if d == 0.0 {
                d = f64::MIN_POSITIVE;
            }
            d = 1.0 / d;
            let delta = c * d;
            f *= delta;
            if (delta - 1.0).abs() < 1e-16 {
                break;
            }
            k += 0.5;
        }
        e / (f * core::f64::consts::PI.sqrt())
    }

    #[test]
    fn erfc_matches_legacy_implementation() {
        for i in 0..=3200 {
            let x = -8.0 + i as f64 * 0.005;
            let (new, old) = (erfc(x), erfc_legacy(x));
            assert!(
                (new - old).abs() <= 5e-13 * old.abs(),
                "erfc({x}): new {new} vs legacy {old}"
            );
        }
    }

    #[test]
    fn q_table_matches_q_function() {
        let tab = QTable::new();
        // Dense bulk sweep plus deep-tail spot checks.
        for i in 0..=4000 {
            let z = -10.0 + i as f64 * 0.004_321;
            let (fast, exact) = (tab.q(z), q_function(z));
            assert!(
                (fast - exact).abs() <= 1e-9 * exact + 1e-15,
                "Q({z}): table {fast} vs exact {exact}"
            );
        }
        for z in [7.034, 12.0, 20.0, 30.0, 37.0] {
            let (fast, exact) = (tab.q(z), q_function(z));
            assert!(
                (fast / exact - 1.0).abs() < 1e-8,
                "deep tail Q({z}): table {fast} vs exact {exact}"
            );
        }
        // Outside the table: saturation below, exact passthrough above.
        assert_eq!(tab.q(-15.0), 1.0);
        assert_eq!(tab.q(40.0), q_function(40.0));
    }

    #[test]
    fn shared_q_table_is_the_fresh_table_bit_for_bit() {
        let (shared, fresh) = (QTable::shared(), QTable::new());
        assert_eq!(shared.ln_q.len(), fresh.ln_q.len());
        for (i, (s, f)) in shared.ln_q.iter().zip(&fresh.ln_q).enumerate() {
            assert_eq!(s.to_bits(), f.to_bits(), "entry {i}");
        }
    }

    #[test]
    fn q_batch_is_bitwise_identical_to_scalar() {
        let tab = QTable::new();
        // Mixed in-band / saturated / exact-tail values at every chunk
        // alignment, including the exact band edges.
        let zs: Vec<f64> = (0..203)
            .map(|i| -12.0 + i as f64 * 0.25)
            .chain([QTAB_Z_LO, QTAB_Z_HI, 0.0, 7.034])
            .collect();
        for start in 0..8 {
            let slice = &zs[start..];
            let mut out = vec![0.0; slice.len()];
            tab.q_batch(slice, &mut out);
            for (&z, &got) in slice.iter().zip(&out) {
                assert_eq!(got.to_bits(), tab.q(z).to_bits(), "z = {z}");
            }
        }
    }
}
