//! The shortfall (missing-pulse) kernels stop summing once no remaining
//! term can change a bit of the running total. This checks that contract
//! directly: `Pdf::gaussian_exceed_below` and
//! `Pdf::gaussian_exceed_below_with` against plain full-length sums
//! written here, bit for bit, over seeded random PDFs, grid steps,
//! Gaussian widths and thresholds. Each test also asserts that its cases
//! include sums whose tail leaves the total unchanged, where the kernels
//! may stop early, and sums whose last term still counts, where they
//! must not.

use gcco_stat::{q_function, Pdf, QTable};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Random cases per test.
const CASES: usize = 1500;

/// A full sum and how many of its trailing nonzero terms left the total
/// unchanged: where a kernel may stop early.
struct FullSum {
    value: f64,
    frozen_tail: usize,
}

/// Adds `terms` in order onto `p0`, counting the nonzero terms after the
/// last one that changed the running total.
fn sum_in_order(p0: f64, terms: impl Iterator<Item = f64>) -> (f64, usize) {
    let mut p = p0;
    let mut frozen_tail = 0;
    for t in terms {
        let next = p + t;
        frozen_tail = if next == p { frozen_tail + 1 } else { 0 };
        p = next;
    }
    (p, frozen_tail)
}

/// `E[Q((X − t)/σ)]` with the exact `Q` over every nonzero bin.
fn full_exact(pdf: &Pdf, t: f64, sigma: f64) -> FullSum {
    let step = pdf.step();
    let terms = pdf
        .samples()
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d != 0.0)
        .map(|(i, &d)| d * step * q_function((pdf.x(i) - t) / sigma));
    let (p, frozen_tail) = sum_in_order(0.0, terms);
    FullSum {
        value: p.min(1.0),
        frozen_tail,
    }
}

/// The table kernel's sum over its whole band: the head below `z = −8`
/// counts with `Q = 1`, every nonzero bin of the band with the table's
/// `Q`, and nothing past `z = 37.5`.
fn full_table(pdf: &Pdf, t: f64, sigma: f64, tab: &QTable) -> FullSum {
    let inv_sigma = 1.0 / sigma;
    let d = pdf.samples();
    let n = d.len();
    let idx = |x: f64| (((x - pdf.origin()) / pdf.step()).ceil().max(0.0) as usize).min(n);
    let i_lo = idx(t + -8.0 * sigma);
    let i_hi = idx(t + 37.5 * sigma).max(i_lo);
    let head = d[..i_lo].iter().sum::<f64>();
    let terms = (i_lo..i_hi)
        .filter(|&i| d[i] != 0.0)
        .map(|i| d[i] * tab.q((pdf.x(i) - t) * inv_sigma));
    let (p, frozen_tail) = sum_in_order(head, terms);
    FullSum {
        value: (p * pdf.step()).min(1.0),
        frozen_tail,
    }
}

/// One random case: a PDF of one of six shapes on a grid step in
/// [1e-4, 1e-2], a Gaussian σ in [1e-4, 1] UI and a threshold anywhere
/// from 40σ below the support to 40σ above it.
fn random_case(rng: &mut SmallRng) -> (String, Pdf, f64, f64) {
    let step = log_uniform(rng, 1e-4, 1e-2);
    // Widths capped at 1,500 bins keep the exact sums quick in debug
    // builds.
    let width = |rng: &mut SmallRng, hi: f64| rng.gen_range(0.0..hi).min(1500.0 * step);
    let (name, pdf) = match rng.gen_range(0..6u32) {
        0 => ("uniform", Pdf::uniform(width(rng, 0.6), step)),
        1 => {
            let sin = Pdf::sinusoidal(width(rng, 1.2), step);
            ("sinusoidal * box", sin.convolve_box(width(rng, 0.4)))
        }
        2 => {
            let b = Pdf::uniform(width(rng, 0.4), step);
            ("box * box", b.convolve(&b))
        }
        3 => ("dual-Dirac", Pdf::dual_dirac(width(rng, 0.6), step)),
        4 => {
            let s = log_uniform(rng, step, 0.05);
            ("grid Gaussian", Pdf::gaussian(s, step, 8.0))
        }
        _ => ("samples with zeros", samples_with_zeros(rng, step)),
    };
    let sigma = log_uniform(rng, 1e-4, 1.0);
    let (lo, hi) = (pdf.origin(), pdf.x(pdf.samples().len() - 1));
    let t = lo - 40.0 * sigma + rng.gen_range(0.0..1.0) * (hi - lo + 80.0 * sigma);
    (
        format!("{name}, {} bins", pdf.samples().len()),
        pdf,
        t,
        sigma,
    )
}

/// Densities with zero runs both inside and across `QTable::BATCH`
/// blocks, unnormalized: bin masses `d·step` reach 16, past any
/// normalized PDF's, so the cut's `d_max` factor is exercised above 1.
fn samples_with_zeros(rng: &mut SmallRng, step: f64) -> Pdf {
    let n = rng.gen_range(1..1500usize);
    let top = log_uniform(rng, 1.0 / n as f64, 16.0) / step;
    let mut density = Vec::with_capacity(n);
    while density.len() < n {
        if rng.gen_bool(0.2) {
            let run = rng.gen_range(1..20usize).min(n - density.len());
            density.extend(std::iter::repeat_n(0.0, run));
        } else {
            density.push(rng.gen_range(0.0..top));
        }
    }
    Pdf::from_samples(rng.gen_range(-0.5..0.5), step, density)
}

fn log_uniform(rng: &mut SmallRng, lo: f64, hi: f64) -> f64 {
    lo * (hi / lo).powf(rng.gen_range(0.0..1.0))
}

/// Runs `CASES` seeded cases of `kernel` against `full`, bit for bit, and
/// checks both kinds of case were drawn.
fn check_against_full_sum(
    seed: u64,
    kernel: impl Fn(&Pdf, f64, f64) -> f64,
    full: impl Fn(&Pdf, f64, f64) -> FullSum,
) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (mut can_stop, mut must_not) = (0, 0);
    for case in 0..CASES {
        let (what, pdf, t, sigma) = random_case(&mut rng);
        let want = full(&pdf, t, sigma);
        let got = kernel(&pdf, t, sigma);
        assert_eq!(
            got.to_bits(),
            want.value.to_bits(),
            "case {case} ({what}, step {}, t {t:?}, σ {sigma:?}): {got:e} vs full sum {:e}",
            pdf.step(),
            want.value
        );
        // Two QTable::BATCH blocks of trailing no-op terms leave room for
        // a stop; none means the last term counts.
        if want.frozen_tail >= 2 * QTable::BATCH {
            can_stop += 1;
        } else if want.frozen_tail == 0 {
            must_not += 1;
        }
    }
    assert!(
        can_stop >= CASES / 5 && must_not >= CASES / 10,
        "case mix: {can_stop} with a long no-op tail, {must_not} whose last term counts"
    );
}

#[test]
fn exact_shortfall_matches_the_full_sum_bitwise() {
    check_against_full_sum(
        0x5407_7fa1,
        |pdf, t, sigma| pdf.gaussian_exceed_below(t, sigma),
        full_exact,
    );
}

#[test]
fn table_shortfall_matches_the_full_sum_bitwise() {
    let tab = QTable::shared();
    check_against_full_sum(
        0x7ab1_e5c0,
        |pdf, t, sigma| pdf.gaussian_exceed_below_with(t, sigma, tab),
        |pdf, t, sigma| full_table(pdf, t, sigma, tab),
    );
}
