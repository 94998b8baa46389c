//! Gridded probability density functions and convolution.
//!
//! The paper's §3.1: *"In statistical models, the exact contributions of
//! different types of timing jitter can be accurately combined. Deterministic
//! jitter is modeled with a uniform probability density function, random
//! jitter with a normal PDF and sinusoidal jitter leads to a sine wave
//! histogram distribution."* This module is that machinery: each jitter
//! component becomes a [`Pdf`] on a uniform grid and components are combined
//! by [`Pdf::convolve`].

use crate::erf::{q_function, QTable};
use crate::lanes;
use std::fmt;

/// Reusable workspace for [`Pdf::convolve_box_into`] and
/// [`Pdf::set_sinusoidal`], so sweep hot loops (thousands of convolutions
/// per BER grid) perform no per-call allocation.
#[derive(Clone, Debug, Default)]
pub struct ConvScratch {
    prefix: Vec<f64>,
}

impl ConvScratch {
    /// An empty workspace; buffers grow on first use and are then reused.
    pub fn new() -> ConvScratch {
        ConvScratch::default()
    }
}

/// A probability density sampled on a uniform grid.
///
/// The grid is defined by `origin` (the coordinate of sample 0) and `step`.
/// Densities are stored per-unit (not per-bin); `integral()` of a freshly
/// constructed PDF is 1 up to discretization error.
///
/// # Examples
///
/// ```
/// use gcco_stat::Pdf;
/// let dj = Pdf::uniform(0.4, 1e-3);   // DJ: 0.4 pp
/// let rj = Pdf::gaussian(0.021, 1e-3, 8.0);
/// let total = dj.convolve(&rj);
/// assert!((total.integral() - 1.0).abs() < 1e-6);
/// assert!(total.std_dev() > 0.021);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Pdf {
    origin: f64,
    step: f64,
    density: Vec<f64>,
}

impl Pdf {
    /// Creates a PDF from raw samples.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not positive/finite or `density` is empty or
    /// contains negative/non-finite values.
    pub fn from_samples(origin: f64, step: f64, density: Vec<f64>) -> Pdf {
        assert!(step > 0.0 && step.is_finite(), "invalid step {step}");
        assert!(!density.is_empty(), "empty density");
        assert!(
            density.iter().all(|d| d.is_finite() && *d >= 0.0),
            "density must be finite and non-negative"
        );
        Pdf {
            origin,
            step,
            density,
        }
    }

    /// A Dirac impulse at `at`, represented as a single full bin.
    pub fn dirac(at: f64, step: f64) -> Pdf {
        Pdf::from_samples(at, step, vec![1.0 / step])
    }

    /// Uniform density of total width `pp` centred on zero (the
    /// deterministic-jitter model).
    ///
    /// # Panics
    ///
    /// Panics if `pp` is negative.
    pub fn uniform(pp: f64, step: f64) -> Pdf {
        assert!(pp >= 0.0, "negative width {pp}");
        if pp < step {
            return Pdf::dirac(0.0, step);
        }
        let n = (pp / step).round() as usize + 1;
        let d = 1.0 / (n as f64 * step);
        Pdf::from_samples(-0.5 * (n - 1) as f64 * step, step, vec![d; n])
    }

    /// Zero-mean Gaussian of standard deviation `sigma`, truncated at
    /// `±n_sigma·σ` (the random-jitter model).
    pub fn gaussian(sigma: f64, step: f64, n_sigma: f64) -> Pdf {
        assert!(sigma >= 0.0, "negative sigma {sigma}");
        if sigma == 0.0 {
            return Pdf::dirac(0.0, step);
        }
        let half = (n_sigma * sigma / step).ceil() as i64;
        let norm = 1.0 / (sigma * (2.0 * std::f64::consts::PI).sqrt());
        let density: Vec<f64> = (-half..=half)
            .map(|i| {
                let x = i as f64 * step / sigma;
                norm * (-0.5 * x * x).exp()
            })
            .collect();
        let mut pdf = Pdf::from_samples(-(half as f64) * step, step, density);
        pdf.renormalize();
        pdf
    }

    /// Arcsine ("sine-wave histogram") density of peak-to-peak width `pp`,
    /// centred on zero — the distribution of a sampled sinusoid (the
    /// sinusoidal-jitter model).
    pub fn sinusoidal(pp: f64, step: f64) -> Pdf {
        let mut pdf = Pdf::dirac(0.0, step);
        pdf.set_sinusoidal(pp, step);
        pdf
    }

    /// Dual-Dirac density: two impulses at `±pp/2` (the asymptotic DJ model
    /// used in jitter decomposition).
    pub fn dual_dirac(pp: f64, step: f64) -> Pdf {
        if pp < step {
            return Pdf::dirac(0.0, step);
        }
        let half = (0.5 * pp / step).round() as usize;
        let mut density = vec![0.0; 2 * half + 1];
        density[0] = 0.5 / step;
        density[2 * half] = 0.5 / step;
        Pdf::from_samples(-(half as f64) * step, step, density)
    }

    /// The grid step.
    pub fn step(&self) -> f64 {
        self.step
    }

    /// The coordinate of the first grid sample.
    pub fn origin(&self) -> f64 {
        self.origin
    }

    /// The density samples.
    pub fn samples(&self) -> &[f64] {
        &self.density
    }

    /// The coordinate of sample `i`.
    pub fn x(&self, i: usize) -> f64 {
        self.origin + i as f64 * self.step
    }

    /// Total integral (≈ 1 for a normalized PDF).
    pub fn integral(&self) -> f64 {
        self.density.iter().sum::<f64>() * self.step
    }

    /// Rescales so the integral is exactly 1.
    ///
    /// # Panics
    ///
    /// Panics if the density is identically zero.
    pub fn renormalize(&mut self) {
        let total = self.integral();
        assert!(total > 0.0, "cannot normalize a zero density");
        for d in &mut self.density {
            *d /= total;
        }
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        let mut m = 0.0;
        for (i, d) in self.density.iter().enumerate() {
            m += self.x(i) * d;
        }
        m * self.step
    }

    /// Standard deviation of the distribution.
    pub fn std_dev(&self) -> f64 {
        let mean = self.mean();
        let mut v = 0.0;
        for (i, d) in self.density.iter().enumerate() {
            let dx = self.x(i) - mean;
            v += dx * dx * d;
        }
        (v * self.step).max(0.0).sqrt()
    }

    /// Convolution of two densities (the distribution of the *sum* of the
    /// two independent random variables).
    ///
    /// # Panics
    ///
    /// Panics if the grid steps differ by more than 1 ppm.
    pub fn convolve(&self, other: &Pdf) -> Pdf {
        assert!(
            (self.step / other.step - 1.0).abs() < 1e-6,
            "grid mismatch: {} vs {}",
            self.step,
            other.step
        );
        let n = self.density.len() + other.density.len() - 1;
        let m = other.density.len();
        let rows = self.density.len();
        let mut out = vec![0.0; n];
        // Row-wise accumulation: each source bin scatters a scaled copy of
        // the other density. Rows are applied in index order and each
        // output element is a same-order sum of `a·b` products, so both
        // the fused row blocks and the single-row remainder are
        // bit-identical to the scalar nested loop (densities are
        // non-negative, so the block kernel's `+ 0.0` terms for zero rows
        // inside a block are bitwise no-ops — see [`lanes::axpy_rows`]).
        // Blocks that are all zeros or nearly so (dual-Dirac densities)
        // skip or fall back to the row-at-a-time kernel.
        const R: usize = lanes::ROWS;
        let mut i = 0;
        if m >= R {
            while i + R <= rows {
                let a: &[f64; R] = self.density[i..i + R].try_into().expect("block of R");
                let nz = a.iter().filter(|&&v| v != 0.0).count();
                if nz == 0 {
                    i += R;
                    continue;
                }
                if nz <= 2 {
                    for (r, &ar) in a.iter().enumerate() {
                        if ar != 0.0 {
                            lanes::axpy(&mut out[i + r..i + r + m], ar, &other.density);
                        }
                    }
                } else {
                    lanes::axpy_rows(&mut out[i..i + m + R - 1], a, &other.density);
                }
                i += R;
            }
        }
        for (r, &a) in self.density[i..].iter().enumerate() {
            if a != 0.0 {
                lanes::axpy(&mut out[i + r..i + r + m], a, &other.density);
            }
        }
        lanes::scale(&mut out, self.step);
        Pdf::from_samples(self.origin + other.origin, self.step, out)
    }

    /// Rebuilds `self` in place as [`Pdf::uniform`]`(pp, step)`, reusing the
    /// existing sample allocation — the allocation-free form used by the
    /// BER hot path when an adaptive grid step forces a coarser DJ base
    /// than the model's cached one.
    ///
    /// # Panics
    ///
    /// Panics if `pp` is negative or `step` is not positive/finite.
    pub fn set_uniform(&mut self, pp: f64, step: f64) {
        assert!(pp >= 0.0, "negative width {pp}");
        assert!(step > 0.0 && step.is_finite(), "invalid step {step}");
        self.step = step;
        self.density.clear();
        if pp < step {
            self.origin = 0.0;
            self.density.push(1.0 / step);
            return;
        }
        let n = (pp / step).round() as usize + 1;
        let d = 1.0 / (n as f64 * step);
        self.origin = -0.5 * (n - 1) as f64 * step;
        self.density.resize(n, d);
    }

    /// Rebuilds `self` in place as [`Pdf::sinusoidal`]`(pp, step)`, reusing
    /// the existing sample allocation (the constructor delegates here, so
    /// the two are identical by construction).
    ///
    /// Each bin integrates the arcsine density to tame the endpoint
    /// singularities — `P(bin) = (asin(hi/a) − asin(lo/a))/π` — and
    /// adjacent bins share an edge, so one `asin` per bin suffices.
    pub fn set_sinusoidal(&mut self, pp: f64, step: f64) {
        assert!(pp >= 0.0, "negative width {pp}");
        assert!(step > 0.0 && step.is_finite(), "invalid step {step}");
        self.step = step;
        self.density.clear();
        if pp < 2.0 * step {
            self.origin = 0.0;
            self.density.push(1.0 / step);
            return;
        }
        let a = pp / 2.0;
        let half = (a / step).ceil() as i64;
        self.origin = -(half as f64) * step;
        let norm = 1.0 / (std::f64::consts::PI * step);
        // The arcsine density is even and `asin` is odd to the last bit
        // (`asin(-x) == -asin(x)`, verified by `asin_is_odd_bitwise`), so
        // the negative-side bin edges are exact sign flips of the positive
        // ones: evaluate `asin` only for edges ≥ 0 and mirror. This halves
        // the dominant cost of the kernel while producing the identical
        // bits the full sweep produced — `(-e_prev) - (-e) ≡ e - e_prev`
        // and `e0 - (-e0) ≡ e0 + e0` exactly in IEEE arithmetic.
        let h = half as usize;
        self.density.resize(2 * h + 1, 0.0);
        let e0 = (0.5 * step / a).clamp(-1.0, 1.0).asin();
        self.density[h] = (e0 - (-e0)) * norm;
        let mut prev = e0;
        for j in 1..=h {
            let e = ((j as f64 + 0.5) * step / a).clamp(-1.0, 1.0).asin();
            let d = (e - prev) * norm;
            self.density[h + j] = d;
            self.density[h - j] = d;
            prev = e;
        }
        self.renormalize();
    }

    /// Convolution with a centred uniform ("box") density of width `pp` —
    /// equivalent to `self.convolve(&Pdf::uniform(pp, self.step()))` but
    /// computed in O(n + m) with prefix sums instead of the O(n·m) direct
    /// product: a box convolution is exactly a windowed mean.
    ///
    /// The box is discretized identically to [`Pdf::uniform`], so the result
    /// matches the generic path to floating-point summation order.
    pub fn convolve_box(&self, pp: f64) -> Pdf {
        let mut out = Pdf::dirac(0.0, self.step);
        self.convolve_box_into(pp, &mut ConvScratch::new(), &mut out);
        out
    }

    /// Allocation-free form of [`Pdf::convolve_box`]: writes the result into
    /// `out` (its buffer is reused) using `scratch` for the prefix sums.
    pub fn convolve_box_into(&self, pp: f64, scratch: &mut ConvScratch, out: &mut Pdf) {
        assert!(pp >= 0.0, "negative width {pp}");
        out.step = self.step;
        out.density.clear();
        if pp < self.step {
            // The box collapses to a Dirac: convolution is the identity.
            out.origin = self.origin;
            out.density.extend_from_slice(&self.density);
            return;
        }
        let n = self.density.len();
        let m = (pp / self.step).round() as usize + 1;
        let inv_m = 1.0 / m as f64;
        let prefix = &mut scratch.prefix;
        prefix.clear();
        prefix.reserve(n + 1);
        prefix.push(0.0);
        let mut acc = 0.0;
        for &d in &self.density {
            acc += d;
            prefix.push(acc);
        }
        out.origin = self.origin - 0.5 * (m - 1) as f64 * self.step;
        // Output bin k is the window mean (prefix[hi] − prefix[lo])·inv_m
        // with hi = min(k+1, n) and lo = max(k+1−m, 0). Instead of clamping
        // per element, split the k range into the regions where each clamp
        // is constant — every region body is then a branch-free elementwise
        // pass over offset views of `prefix` that the lane kernels turn
        // into SIMD. The arithmetic per element is exactly the clamped
        // expression, so the output is bit-identical.
        let dens = &mut out.density;
        dens.resize(n + m - 1, 0.0);
        let ramp = (m - 1).min(n); // k < ramp: lo = 0, hi = k + 1
        lanes::diff_const_scale(&mut dens[..ramp], &prefix[1..ramp + 1], prefix[0], inv_m);
        if m - 1 > n {
            // Wide box: a flat plateau where the window covers everything.
            let v = (prefix[n] - prefix[0]) * inv_m;
            dens[ramp..m - 1].fill(v);
        } else {
            // k in [m−1, n): both window edges slide — the steady state.
            lanes::diff_scale(
                &mut dens[m - 1..n],
                &prefix[m..n + 1],
                &prefix[..n + 1 - m],
                inv_m,
            );
        }
        // Tail ramp-down: hi pinned at n, lo slides to the end.
        let tail = n.max(m - 1);
        let lo0 = tail + 1 - m;
        lanes::const_diff_scale(&mut dens[tail..], prefix[n], &prefix[lo0..n], inv_m);
    }

    /// Probability mass at or beyond `threshold`: `P(X ≥ threshold)`.
    ///
    /// Linear interpolation inside the crossing bin keeps the result smooth
    /// for optimizers that bisect on it.
    pub fn tail_above(&self, threshold: f64) -> f64 {
        let mut p = 0.0;
        for (i, &d) in self.density.iter().enumerate() {
            let lo = self.x(i) - 0.5 * self.step;
            let hi = self.x(i) + 0.5 * self.step;
            if lo >= threshold {
                p += d * self.step;
            } else if hi > threshold {
                p += d * (hi - threshold);
            }
        }
        p.min(1.0)
    }

    /// Probability mass at or below `threshold`: `P(X ≤ threshold)`.
    pub fn tail_below(&self, threshold: f64) -> f64 {
        let mut p = 0.0;
        for (i, &d) in self.density.iter().enumerate() {
            let lo = self.x(i) - 0.5 * self.step;
            let hi = self.x(i) + 0.5 * self.step;
            if hi <= threshold {
                p += d * self.step;
            } else if lo < threshold {
                p += d * (threshold - lo);
            }
        }
        p.min(1.0)
    }

    /// Expected Gaussian exceedance: `E[Q((threshold − X)/σ)]`.
    ///
    /// This is the precise way to add an *analytic* Gaussian component to a
    /// gridded bounded one — the deep tail comes from `Q` rather than from a
    /// truncated grid, so probabilities below the grid resolution (1e-12 and
    /// beyond) remain exact.
    pub fn gaussian_exceed_above(&self, threshold: f64, sigma: f64) -> f64 {
        if sigma <= 0.0 {
            return self.tail_above(threshold);
        }
        let mut p = 0.0;
        for (i, &d) in self.density.iter().enumerate() {
            if d == 0.0 {
                continue;
            }
            p += d * self.step * q_function((threshold - self.x(i)) / sigma);
        }
        p.min(1.0)
    }

    /// Expected Gaussian shortfall: `E[Q((X − threshold)/σ)]`
    /// (probability that `X + N(0,σ²) ≤ threshold`).
    ///
    /// `Q` falls along the loop, so the sum stops after the first bin at
    /// which `d_max·Q`, `d_max` being the largest `d·step`, is below a
    /// quarter of the gap from the running sum to the next float up:
    /// every later term then rounds away, and the result is the full
    /// loop's `f64` (DESIGN.md § *Shortfall early exit*).
    pub fn gaussian_exceed_below(&self, threshold: f64, sigma: f64) -> f64 {
        if sigma <= 0.0 {
            return self.tail_below(threshold);
        }
        let d_max = max_density(&self.density) * self.step;
        let mut p = 0.0;
        for (i, &d) in self.density.iter().enumerate() {
            if d == 0.0 {
                continue;
            }
            let q = q_function((self.x(i) - threshold) / sigma);
            p += d * self.step * q;
            if absorbs(p, d_max * q) {
                break;
            }
        }
        p.min(1.0)
    }

    /// Bin-index range whose `z` values land strictly inside `(z_lo, z_hi)`
    /// given `z_i = sign·(x_i − threshold)/σ` — both saturated tails of a
    /// `Q` sum are contiguous index ranges because `x_i` is affine in `i`.
    fn z_band(
        &self,
        threshold: f64,
        sigma: f64,
        sign: f64,
        z_lo: f64,
        z_hi: f64,
    ) -> (usize, usize) {
        let n = self.density.len();
        let clamp_idx = |v: f64| (v.ceil().max(0.0) as usize).min(n);
        // x at which z equals the band edge; sign flips which edge is first.
        let (x_at_lo, x_at_hi) = (
            threshold + sign * z_lo * sigma,
            threshold + sign * z_hi * sigma,
        );
        let (x_first, x_last) = if sign > 0.0 {
            (x_at_lo, x_at_hi)
        } else {
            (x_at_hi, x_at_lo)
        };
        let i_lo = clamp_idx((x_first - self.origin) / self.step);
        let i_hi = clamp_idx((x_last - self.origin) / self.step);
        (i_lo, i_hi.max(i_lo))
    }

    /// [`Pdf::gaussian_exceed_above`] with `Q` drawn from a precomputed
    /// [`QTable`] — the sweep-context fast path (~1e-9 relative deviation
    /// from the exact sum).
    ///
    /// Bins whose `z` is beyond the table saturate exactly: `Q = 1` below
    /// `z = −8` (cheap mass sum, no lookup) and `Q = 0` above `z = 37.5`
    /// (skipped; the exact value there is < 1e-306, far below anything the
    /// model resolves). For wide PDFs against a narrow Gaussian most bins
    /// fall in one of the two saturated ranges, so this prunes the bulk of
    /// the lookups.
    pub fn gaussian_exceed_above_with(&self, threshold: f64, sigma: f64, tab: &QTable) -> f64 {
        if sigma <= 0.0 {
            return self.tail_above(threshold);
        }
        let inv_sigma = 1.0 / sigma;
        // z_i = (threshold − x_i)/σ decreases with i: the interpolated band
        // is (i_lo, i_hi), everything after it has Q = 1.
        let (i_lo, i_hi) = self.z_band(threshold, sigma, -1.0, -8.0, 37.5);
        let mut p =
            self.q_weighted_band(0.0, i_lo, i_hi, tab, |x| (threshold - x) * inv_sigma, false);
        p += self.density[i_hi..].iter().sum::<f64>();
        (p * self.step).min(1.0)
    }

    /// The interpolated-band inner sum `p0 + Σ d_i · Q(z(x_i))` shared by
    /// the two table-based exceedance kernels, batched: `z` values and
    /// table interpolations are computed in [`QTable::BATCH`]-wide blocks
    /// ([`QTable::q_batch`]), while the weighted accumulation itself runs
    /// in the original serial index order onto the caller's accumulator —
    /// term values and addition order both match the scalar loop, so the
    /// sum is bit-identical. All-zero density blocks (dual-Dirac PDFs are
    /// mostly zeros) skip the table work entirely, exactly as the scalar
    /// `d == 0` guard did.
    ///
    /// With `q_falls` (`z` rises along the band: the shortfall sums) the
    /// sum stops after the first block at which `absorbs(p, d_max·q)`
    /// holds, `q` being the block's smallest `Q` and `d_max` the band's
    /// largest density: no later term can change a bit of `p`. The slip
    /// sums pass `false`: their `Q` rises along the band, so every term
    /// counts.
    fn q_weighted_band(
        &self,
        p0: f64,
        i_lo: usize,
        i_hi: usize,
        tab: &QTable,
        z_of_x: impl Fn(f64) -> f64,
        q_falls: bool,
    ) -> f64 {
        const B: usize = QTable::BATCH;
        let d_max = q_falls.then(|| max_density(&self.density[i_lo..i_hi]));
        let mut zs = [0.0f64; B];
        let mut qs = [0.0f64; B];
        let mut p = p0;
        let mut i = i_lo;
        while i < i_hi {
            let len = (i_hi - i).min(B);
            let d = &self.density[i..i + len];
            if d.iter().all(|&v| v == 0.0) {
                i += len;
                continue;
            }
            for (l, z) in zs[..len].iter_mut().enumerate() {
                *z = z_of_x(self.x(i + l));
            }
            tab.q_batch(&zs[..len], &mut qs[..len]);
            for (l, &dv) in d.iter().enumerate() {
                if dv == 0.0 {
                    continue;
                }
                p += dv * qs[l];
            }
            i += len;
            if let Some(d_max) = d_max {
                let q = qs[..len].iter().copied().fold(f64::INFINITY, f64::min);
                if absorbs(p, d_max * q) {
                    break;
                }
            }
        }
        p
    }

    /// [`Pdf::gaussian_exceed_below`] with `Q` drawn from a precomputed
    /// [`QTable`] (see [`Pdf::gaussian_exceed_above_with`] for the
    /// saturation pruning). Like [`Pdf::gaussian_exceed_below`], the band
    /// sum stops after the first [`QTable::BATCH`] block at which
    /// `d_max·Q`, `d_max` being the band's largest density, is below a
    /// quarter of the gap from the running sum to the next float up, and
    /// returns the full band sum's `f64`.
    pub fn gaussian_exceed_below_with(&self, threshold: f64, sigma: f64, tab: &QTable) -> f64 {
        if sigma <= 0.0 {
            return self.tail_below(threshold);
        }
        let inv_sigma = 1.0 / sigma;
        // z_i = (x_i − threshold)/σ increases with i: everything before the
        // band has Q = 1, everything after it Q = 0.
        let (i_lo, i_hi) = self.z_band(threshold, sigma, 1.0, -8.0, 37.5);
        let head = self.density[..i_lo].iter().sum::<f64>();
        let p = self.q_weighted_band(head, i_lo, i_hi, tab, |x| (x - threshold) * inv_sigma, true);
        (p * self.step).min(1.0)
    }
}

/// The largest density sample (0 for an empty slice).
fn max_density(density: &[f64]) -> f64 {
    density.iter().copied().fold(0.0, f64::max)
}

/// Whether the running tail sum `p` absorbs every remaining term no
/// larger than `bound`, i.e. `p + term` rounds back to `p`.
///
/// A non-negative term below half the gap from `p` to the next float up
/// rounds away. The test uses a quarter of the gap, so a later `Q` that
/// rounding in `exp`/`erfc` leaves slightly above the tested one still
/// rounds away: the cut needs `Q` to fall along the loop, not to be
/// computed monotone to the last bit. `p` must be positive and below
/// `f64::MAX` (where the gap is finite and `p + term` cannot overflow).
#[inline]
fn absorbs(p: f64, bound: f64) -> bool {
    p > 0.0 && p < f64::MAX && bound < 0.25 * (p.next_up() - p)
}

impl Default for Pdf {
    /// A unit Dirac at the origin — the identity element of convolution,
    /// used to seed reusable output buffers.
    fn default() -> Pdf {
        Pdf::dirac(0.0, 1.0)
    }
}

impl fmt::Display for Pdf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Pdf({} bins, [{:.4}, {:.4}], σ={:.4})",
            self.density.len(),
            self.origin,
            self.x(self.density.len() - 1),
            self.std_dev()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STEP: f64 = 1e-3;

    #[test]
    fn uniform_moments() {
        let pdf = Pdf::uniform(0.4, STEP);
        assert!((pdf.integral() - 1.0).abs() < 1e-9);
        assert!(pdf.mean().abs() < 1e-12);
        // Uniform σ = pp/√12.
        assert!((pdf.std_dev() - 0.4 / 12f64.sqrt()).abs() < 1e-3);
    }

    #[test]
    fn gaussian_moments() {
        let pdf = Pdf::gaussian(0.021, STEP / 10.0, 8.0);
        assert!((pdf.integral() - 1.0).abs() < 1e-9);
        assert!((pdf.std_dev() - 0.021).abs() < 1e-4);
    }

    #[test]
    fn sinusoidal_moments() {
        let pdf = Pdf::sinusoidal(0.2, STEP);
        assert!((pdf.integral() - 1.0).abs() < 1e-9);
        // Sine σ = A/√2 = pp/(2√2).
        assert!((pdf.std_dev() - 0.2 / (2.0 * 2f64.sqrt())).abs() < 1e-3);
    }

    #[test]
    fn dual_dirac_moments() {
        let pdf = Pdf::dual_dirac(0.4, STEP);
        assert!((pdf.integral() - 1.0).abs() < 1e-9);
        assert!((pdf.std_dev() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn dirac_collapse_for_tiny_widths() {
        assert_eq!(Pdf::uniform(0.0, STEP).samples().len(), 1);
        assert_eq!(Pdf::gaussian(0.0, STEP, 8.0).samples().len(), 1);
        assert_eq!(Pdf::sinusoidal(0.0, STEP).samples().len(), 1);
    }

    #[test]
    fn convolution_adds_variances() {
        let a = Pdf::uniform(0.4, STEP);
        let b = Pdf::gaussian(0.021, STEP, 8.0);
        let c = a.convolve(&b);
        assert!((c.integral() - 1.0).abs() < 1e-6);
        let expected = (a.std_dev().powi(2) + b.std_dev().powi(2)).sqrt();
        assert!((c.std_dev() - expected).abs() < 1e-4);
        // Convolution is commutative.
        let c2 = b.convolve(&a);
        assert!((c2.std_dev() - c.std_dev()).abs() < 1e-12);
    }

    /// Bitwise oracle for the laned convolve: the pre-lane nested loop.
    #[test]
    fn convolve_matches_nested_loop_bitwise() {
        // Dense × dense, sparse (dual-Dirac) × dense — exercising the
        // fused row blocks, the sparse-block fallback and the all-zero
        // block skip — and a kernel shorter than a row block.
        let cases = [
            (Pdf::sinusoidal(0.23, STEP), Pdf::gaussian(0.021, STEP, 8.0)),
            (Pdf::dual_dirac(0.31, STEP), Pdf::gaussian(0.021, STEP, 8.0)),
            (Pdf::sinusoidal(0.23, STEP), Pdf::uniform(3.0 * STEP, STEP)),
            // Zeros *inside* dense row blocks: the fused kernel's `+ 0.0`
            // terms must be bitwise no-ops against the row-skipping oracle.
            (
                Pdf::from_samples(
                    0.0,
                    STEP,
                    (0..40)
                        .map(|i| if i % 3 == 0 { 0.0 } else { 0.1 + i as f64 })
                        .collect(),
                ),
                Pdf::gaussian(0.021, STEP, 8.0),
            ),
        ];
        for (a, b) in &cases {
            let fast = a.convolve(b);
            let n = a.samples().len() + b.samples().len() - 1;
            let mut want = vec![0.0; n];
            for (i, &av) in a.samples().iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                for (j, &bv) in b.samples().iter().enumerate() {
                    want[i + j] += av * bv;
                }
            }
            for d in &mut want {
                *d *= STEP;
            }
            for (i, (got, exp)) in fast.samples().iter().zip(&want).enumerate() {
                assert_eq!(got.to_bits(), exp.to_bits(), "bin {i}");
            }
        }
    }

    #[test]
    fn convolution_of_uniforms_is_triangular() {
        let u = Pdf::uniform(0.2, STEP);
        let tri = u.convolve(&u);
        // Peak at the centre with density 1/pp = 5.
        let mid = tri.samples().len() / 2;
        assert!((tri.samples()[mid] - 5.0).abs() < 0.1);
        assert!((tri.tail_above(0.0) - 0.5).abs() < 1e-2);
    }

    #[test]
    fn tails_are_complementary() {
        let pdf = Pdf::uniform(0.4, STEP).convolve(&Pdf::sinusoidal(0.1, STEP));
        for t in [-0.3, -0.1, 0.0, 0.05, 0.27] {
            let sum = pdf.tail_above(t) + pdf.tail_below(t);
            assert!((sum - 1.0).abs() < 1e-6, "t = {t}: {sum}");
        }
    }

    #[test]
    fn uniform_tail_is_linear() {
        let pdf = Pdf::uniform(0.4, STEP);
        assert!((pdf.tail_above(0.0) - 0.5).abs() < 5e-3);
        assert!((pdf.tail_above(0.1) - 0.25).abs() < 5e-3);
        assert!(pdf.tail_above(0.25) < 1e-12);
        assert!((pdf.tail_above(-0.25) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gaussian_exceed_matches_q_for_dirac() {
        let dirac = Pdf::dirac(0.0, STEP);
        let sigma = 0.021;
        for t in [0.0, 0.05, 0.1, 0.147] {
            let direct = crate::q_function(t / sigma);
            let via_pdf = dirac.gaussian_exceed_above(t, sigma);
            assert!(
                (via_pdf / direct - 1.0).abs() < 1e-12,
                "t = {t}: {via_pdf} vs {direct}"
            );
        }
    }

    #[test]
    fn gaussian_exceed_reaches_deep_tails() {
        // Uniform DJ 0.4pp + RJ σ=0.021: P(cross 0.5-UI boundary) should be
        // tiny but non-zero — the 1e-12 regime the paper works in.
        let dj = Pdf::uniform(0.4, 1e-4);
        let p = dj.gaussian_exceed_above(0.5, 0.021);
        assert!(p > 1e-50 && p < 1e-10, "p = {p}");
    }

    #[test]
    fn exceed_below_mirrors_above() {
        let pdf = Pdf::uniform(0.3, STEP);
        let a = pdf.gaussian_exceed_above(0.2, 0.01);
        let b = pdf.gaussian_exceed_below(-0.2, 0.01);
        assert!((a / b - 1.0).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn box_convolution_matches_generic_convolve() {
        let sj = Pdf::sinusoidal(0.37, STEP);
        for pp in [0.0, 0.0004, 0.013, 0.4, 1.7] {
            let generic = sj.convolve(&Pdf::uniform(pp, STEP));
            let fast = sj.convolve_box(pp);
            assert_eq!(fast.samples().len(), generic.samples().len(), "pp = {pp}");
            assert!(
                (fast.origin() - generic.origin()).abs() < 1e-12,
                "pp = {pp}"
            );
            for (a, b) in fast.samples().iter().zip(generic.samples()) {
                assert!((a - b).abs() <= 1e-11 * b.max(1.0), "pp = {pp}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn box_convolution_into_reuses_buffers() {
        let sj = Pdf::sinusoidal(0.2, STEP);
        let mut scratch = ConvScratch::new();
        let mut out = Pdf::dirac(0.0, STEP);
        sj.convolve_box_into(0.4, &mut scratch, &mut out);
        let expected = sj.convolve_box(0.4);
        assert_eq!(out, expected);
        // Second call with a different width reuses the same buffers.
        sj.convolve_box_into(0.1, &mut scratch, &mut out);
        assert_eq!(out, sj.convolve_box(0.1));
    }

    #[test]
    fn set_sinusoidal_matches_constructor() {
        let mut pdf = Pdf::dirac(0.0, STEP);
        for pp in [0.0, 0.001, 0.05, 0.73] {
            pdf.set_sinusoidal(pp, STEP);
            assert_eq!(pdf, Pdf::sinusoidal(pp, STEP), "pp = {pp}");
        }
    }

    /// The mirrored sinusoidal kernel assumes libm's `asin` is odd to the
    /// last bit. Verify that over the exact bin-edge arguments the kernel
    /// evaluates, plus a dense sweep of the domain.
    #[test]
    fn asin_is_odd_bitwise() {
        let (pp, step) = (0.73, STEP);
        let a = pp / 2.0;
        let half = (a / step).ceil() as i64;
        for j in 0..=half {
            let x: f64 = ((j as f64 + 0.5) * step / a).clamp(-1.0, 1.0);
            assert_eq!((-x).asin().to_bits(), (-x.asin()).to_bits(), "x = {x}");
        }
        for i in 0..=10_000 {
            let x = i as f64 / 10_000.0;
            assert_eq!((-x).asin().to_bits(), (-x.asin()).to_bits(), "x = {x}");
        }
    }

    /// Bitwise oracle for the mirrored `set_sinusoidal`: the pre-mirror
    /// implementation evaluated `asin` at every bin edge, negative side
    /// included. The halved kernel must reproduce those bits exactly.
    #[test]
    fn set_sinusoidal_matches_full_sweep_oracle() {
        let oracle = |pp: f64, step: f64| -> Pdf {
            let a = pp / 2.0;
            let half = (a / step).ceil() as i64;
            let norm = 1.0 / (std::f64::consts::PI * step);
            let mut prev = (((-half) as f64 - 0.5) * step / a).clamp(-1.0, 1.0).asin();
            let density: Vec<f64> = (-half..=half)
                .map(|i| {
                    let hi = ((i as f64 + 0.5) * step / a).clamp(-1.0, 1.0).asin();
                    let d = (hi - prev) * norm;
                    prev = hi;
                    d
                })
                .collect();
            let mut pdf = Pdf::from_samples(-(half as f64) * step, step, density);
            pdf.renormalize();
            pdf
        };
        let mut pdf = Pdf::dirac(0.0, STEP);
        for pp in [0.002, 0.0031, 0.05, 0.37, 0.73, 2.4] {
            pdf.set_sinusoidal(pp, STEP);
            let want = oracle(pp, STEP);
            assert_eq!(pdf.samples().len(), want.samples().len(), "pp = {pp}");
            for (i, (got, exp)) in pdf.samples().iter().zip(want.samples()).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    exp.to_bits(),
                    "pp = {pp}, bin {i}: {got} vs {exp}"
                );
            }
        }
    }

    /// Bitwise oracle for the region-split box convolution: the pre-split
    /// implementation clamped the window edges per element.
    #[test]
    fn convolve_box_matches_clamped_oracle_bitwise() {
        let sj = Pdf::sinusoidal(0.37, STEP);
        for pp in [0.0004, 0.013, 0.1, 0.4, 1.7] {
            let fast = sj.convolve_box(pp);
            // Per-element clamped window expression (the original loop).
            let n = sj.samples().len();
            let m = (pp / STEP).round() as usize + 1;
            if m < 2 {
                continue;
            }
            let inv_m = 1.0 / m as f64;
            let mut prefix = vec![0.0];
            let mut acc = 0.0;
            for &d in sj.samples() {
                acc += d;
                prefix.push(acc);
            }
            let want: Vec<f64> = (0..n + m - 1)
                .map(|k| {
                    let lo = (k + 1).saturating_sub(m);
                    let hi = (k + 1).min(n);
                    (prefix[hi] - prefix[lo]) * inv_m
                })
                .collect();
            assert_eq!(fast.samples().len(), want.len(), "pp = {pp}");
            for (i, (got, exp)) in fast.samples().iter().zip(&want).enumerate() {
                assert_eq!(got.to_bits(), exp.to_bits(), "pp = {pp}, bin {i}");
            }
        }
    }

    #[test]
    fn set_uniform_matches_constructor() {
        let mut pdf = Pdf::sinusoidal(0.2, STEP);
        for pp in [0.0, 0.0004, 0.013, 0.4, 1.7] {
            for step in [STEP, 2.7e-3] {
                pdf.set_uniform(pp, step);
                assert_eq!(pdf, Pdf::uniform(pp, step), "pp = {pp}, step = {step}");
            }
        }
    }

    /// The laned band sum must be bitwise identical to a scalar replica of
    /// the pre-lane loop — including PDFs with embedded zeros (dual-Dirac)
    /// at every chunk alignment.
    #[test]
    fn table_exceed_is_bitwise_stable() {
        let tab = crate::QTable::new();
        let scalar_above = |pdf: &Pdf, threshold: f64, sigma: f64| -> f64 {
            let inv_sigma = 1.0 / sigma;
            let (i_lo, i_hi) = pdf.z_band(threshold, sigma, -1.0, -8.0, 37.5);
            let mut p = 0.0;
            for (i, &d) in pdf.samples()[i_lo..i_hi].iter().enumerate() {
                if d == 0.0 {
                    continue;
                }
                p += d * tab.q((threshold - pdf.x(i_lo + i)) * inv_sigma);
            }
            p += pdf.samples()[i_hi..].iter().sum::<f64>();
            (p * pdf.step()).min(1.0)
        };
        let scalar_below = |pdf: &Pdf, threshold: f64, sigma: f64| -> f64 {
            let inv_sigma = 1.0 / sigma;
            let (i_lo, i_hi) = pdf.z_band(threshold, sigma, 1.0, -8.0, 37.5);
            let mut p = pdf.samples()[..i_lo].iter().sum::<f64>();
            for (i, &d) in pdf.samples()[i_lo..i_hi].iter().enumerate() {
                if d == 0.0 {
                    continue;
                }
                p += d * tab.q((pdf.x(i_lo + i) - threshold) * inv_sigma);
            }
            (p * pdf.step()).min(1.0)
        };
        let pdfs = [
            Pdf::uniform(0.4, STEP).convolve(&Pdf::sinusoidal(0.1, STEP)),
            Pdf::dual_dirac(0.4, STEP),
            Pdf::uniform(0.013, STEP),
        ];
        for pdf in &pdfs {
            for t in [-0.4, 0.0, 0.05, 0.21, 0.6] {
                for sigma in [0.004, 0.021] {
                    let fast = pdf.gaussian_exceed_above_with(t, sigma, &tab);
                    let want = scalar_above(pdf, t, sigma);
                    assert_eq!(fast.to_bits(), want.to_bits(), "above t={t} σ={sigma}");
                    let fast = pdf.gaussian_exceed_below_with(t, sigma, &tab);
                    let want = scalar_below(pdf, t, sigma);
                    assert_eq!(fast.to_bits(), want.to_bits(), "below t={t} σ={sigma}");
                }
            }
        }
    }

    #[test]
    fn table_exceed_matches_exact() {
        let tab = crate::QTable::new();
        let pdf = Pdf::uniform(0.4, STEP).convolve(&Pdf::sinusoidal(0.1, STEP));
        for t in [0.0, 0.2, 0.35, 0.6] {
            for sigma in [0.01, 0.021] {
                let exact = pdf.gaussian_exceed_above(t, sigma);
                let fast = pdf.gaussian_exceed_above_with(t, sigma, &tab);
                assert!(
                    (fast - exact).abs() <= 1e-8 * exact + 1e-30,
                    "t={t} σ={sigma}: {fast} vs {exact}"
                );
                let exact_b = pdf.gaussian_exceed_below(-t, sigma);
                let fast_b = pdf.gaussian_exceed_below_with(-t, sigma, &tab);
                assert!(
                    (fast_b - exact_b).abs() <= 1e-8 * exact_b + 1e-30,
                    "t={t} σ={sigma}: {fast_b} vs {exact_b}"
                );
            }
        }
        // σ = 0 falls back to the sharp tail in both paths.
        assert_eq!(
            pdf.gaussian_exceed_above_with(0.1, 0.0, &tab),
            pdf.tail_above(0.1)
        );
    }

    #[test]
    fn display_formatting() {
        let pdf = Pdf::uniform(0.4, STEP);
        let s = pdf.to_string();
        assert!(s.starts_with("Pdf(") && s.contains("σ="), "{s}");
    }

    #[test]
    #[should_panic(expected = "grid mismatch")]
    fn convolve_rejects_mismatched_grids() {
        let a = Pdf::uniform(0.1, 1e-3);
        let b = Pdf::uniform(0.1, 2e-3);
        let _ = a.convolve(&b);
    }

    #[test]
    #[should_panic(expected = "invalid step")]
    fn rejects_bad_step() {
        let _ = Pdf::from_samples(0.0, 0.0, vec![1.0]);
    }
}
