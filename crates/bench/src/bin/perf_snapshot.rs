//! Performance snapshot of the sweep engine and the simulation kernels —
//! times the representative sweeps behind the headline figures against
//! their pre-engine (serial, uncached, clone-per-point) equivalents, the
//! lane-batched statistical kernels against scalar replicas of the code
//! they replaced, and the calendar-queue event scheduler against the
//! binary-heap scheduler it replaced. Writes the machine-readable record
//! to `BENCH_sweep.json`.
//!
//! `cargo run --release -p gcco-bench --bin perf_snapshot [-- --quick]`
//!
//! `--quick` shrinks the workloads (short PRBS run, fewer JTOL points,
//! fewer repetitions) and skips the hard speedup gates so CI can run the
//! snapshot as a smoke test; every bit-identity cross-check still applies
//! at full strength in both modes.
//!
//! The measurements:
//!
//! * the Fig. 9 BER grid (7 amplitudes × 9 frequencies), naive fresh-model
//!   serial map vs [`SweepContext::ber_grid`];
//! * a JTOL curve, seed-style fixed-iteration clone-per-eval bisection vs
//!   [`SweepContext::jtol_curve`];
//! * 64 cold BER probes of a `paper_flow` search, one thread: a model plus
//!   a freshly built [`QTable`] per probe vs [`SweepContext::new`] on the
//!   process-wide table;
//! * the four lane-batched statistical kernels (sinusoidal PDF build, box
//!   convolution, direct convolution, table-driven Gaussian exceedance)
//!   vs bit-identical scalar replicas of the pre-lane code, single thread;
//! * a free-running GCCO and a full PRBS31 CDR channel on the discrete
//!   event kernel, calendar-queue scheduler vs heap scheduler.
//!
//! Every optimized/baseline pair is checked for agreement before its
//! timing is recorded: the kernel pairs bit-for-bit, the scheduler pairs
//! by event count and recovered bit stream.

use gcco_api::{ModelSpec, OptimizeSpec, RunDistSpec};
use gcco_bench::runner::{time_best_of, BenchReport, Timed};
use gcco_bench::{header, result_line};
use gcco_core::{build_cdr, CcoParams, CdrConfig, GatedOscillator};
use gcco_dsim::Simulator;
use gcco_signal::{EdgeStream, JitterConfig, Prbs, PrbsOrder};
use gcco_stat::{log_freq_grid, ConvScratch, GccoStatModel, JitterSpec, Pdf, QTable, SweepContext};
use gcco_units::{Freq, Time, Ui};
use std::path::Path;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    header(
        "Perf snapshot",
        "Sweep-engine and kernel timing vs the serial scalar paths",
        "(engineering record, not a paper figure)",
    );
    if quick {
        println!("\n--quick: smoke-test workloads, speedup gates not enforced");
    }

    let model = GccoStatModel::new(JitterSpec::paper_table1());
    let ctx = SweepContext::new(model.clone());
    let workers = ctx.workers();
    let mut report = BenchReport {
        workers,
        ..Default::default()
    };
    println!("\nworkers: {workers}\n");

    // --- Fig. 9 BER grid -------------------------------------------------
    let amps = [0.1, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2];
    let freqs = [1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5];
    let naive = time_best_of(if quick { 1 } else { 2 }, || {
        amps.iter()
            .map(|&a| {
                freqs
                    .iter()
                    .map(|&f| {
                        GccoStatModel::new(JitterSpec::paper_table1().with_sj(Ui::new(a), f)).ber()
                    })
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    });
    let fast = time_best_of(2, || ctx.ber_grid(&amps, &freqs));
    // Worker-count invariance, checked on the real artifact: the parallel
    // grid must be bit-identical to the single-worker grid.
    let serial_grid = ctx.clone().with_workers(1).ber_grid(&amps, &freqs);
    assert_eq!(
        fast.value, serial_grid,
        "parallel grid must be bit-identical to serial"
    );
    for (naive_row, fast_row) in naive.value.iter().zip(&fast.value) {
        for (n, f) in naive_row.iter().zip(fast_row) {
            assert!(
                (n - f).abs() <= 1e-6 * n.abs() + 1e-30,
                "cached grid diverged: {n} vs {f}"
            );
        }
    }
    let grid_speedup = naive.secs / fast.secs;
    println!(
        "fig09 BER grid ({}x{}): naive {:.1} ms | sweep {:.1} ms | {grid_speedup:.2}x",
        amps.len(),
        freqs.len(),
        naive.secs * 1e3,
        fast.secs * 1e3
    );
    result_line("grid_speedup", format!("{grid_speedup:.2}"));
    report.push_comparison(
        "fig09_ber_grid",
        naive.secs * 1e3,
        fast.secs * 1e3,
        &[("shape", format!("{}x{}", amps.len(), freqs.len()))],
    );

    // --- JTOL curve ------------------------------------------------------
    let jtol_points = if quick { 7 } else { 25 };
    let jfreqs = log_freq_grid(1e-4, 0.5, jtol_points);
    let jnaive = time_best_of(1, || {
        jfreqs
            .iter()
            .map(|&f| jtol_seed_style(&model, f))
            .collect::<Vec<_>>()
    });
    let jfast = time_best_of(2, || ctx.jtol_curve(&jfreqs, 1e-12));
    let serial_curve = ctx.clone().with_workers(1).jtol_curve(&jfreqs, 1e-12);
    assert_eq!(
        jfast.value, serial_curve,
        "parallel curve must be bit-identical to serial"
    );
    for (s, f) in jnaive.value.iter().zip(&jfast.value) {
        assert!(
            (s - f.amplitude_pp.value()).abs() < 2e-4 || *s >= 20.0,
            "jtol diverged: {s} vs {f}"
        );
    }
    let jtol_speedup = jnaive.secs / jfast.secs;
    println!(
        "JTOL curve ({jtol_points} pts):    naive {:.1} ms | sweep {:.1} ms | {jtol_speedup:.2}x",
        jnaive.secs * 1e3,
        jfast.secs * 1e3
    );
    result_line("jtol_speedup", format!("{jtol_speedup:.2}"));
    report.push_comparison(
        "jtol_curve_25pt",
        jnaive.secs * 1e3,
        jfast.secs * 1e3,
        &[("points", jfreqs.len().to_string())],
    );

    // --- Cold BER probes, single thread ---------------------------------
    bench_cold_ber_probe(&mut report, quick);

    // --- Lane-batched statistical kernels, single thread -----------------
    let kernel_speedup = bench_stat_kernels(&mut report, quick);
    result_line("stat_kernel_speedup", format!("{kernel_speedup:.2}"));

    // --- Discrete-event kernel: calendar queue vs heap scheduler ---------
    // Free-running GCCO: the scheduler sees the pure T/8 ring cadence.
    let cycles = if quick { 5_000.0 } else { 25_000.0 };
    let free_run = |heap: bool| {
        let cco = CcoParams::paper();
        let mut sim = Simulator::new(25);
        if heap {
            sim = sim.with_heap_scheduler();
        }
        let osc = GatedOscillator::new("gcco", cco).build(&mut sim, cco.i_mid);
        sim.probe(osc.ck_standard);
        // Trigger stays high: free-running cycles at 2.5 GHz.
        sim.run_until(Time::from_ns(cycles * 0.4));
        sim.events_processed()
    };
    let dsim_heap = time_best_of(2, || free_run(true));
    let dsim = time_best_of(2, || free_run(false));
    assert_eq!(
        dsim.value, dsim_heap.value,
        "calendar and heap schedulers must process the same event count"
    );
    let events = dsim.value;
    let meps = events as f64 / dsim.secs / 1e6;
    let free_speedup = dsim_heap.secs / dsim.secs;
    println!(
        "dsim free-run {cycles:.0} cycles: heap {:.1} ms | calendar {:.1} ms ({events} events, {meps:.1} Mevents/s) | {free_speedup:.2}x",
        dsim_heap.secs * 1e3,
        dsim.secs * 1e3
    );
    result_line("dsim_mevents_per_s", format!("{meps:.1}"));
    report.push_comparison(
        "dsim_25k_cycles",
        dsim_heap.secs * 1e3,
        dsim.secs * 1e3,
        &[
            ("cycles", format!("{cycles:.0}")),
            ("events", events.to_string()),
            ("mevents_per_s", format!("{meps:.1}")),
        ],
    );

    // Full CDR channel on PRBS31 data: edge detector, gated oscillators,
    // elastic buffer and sampler all live, with jittered input edges — the
    // scheduler workload the paper's time-domain runs actually generate.
    let bits = if quick { 20_000 } else { 1_000_000 };
    let data = Prbs::new(PrbsOrder::P31).take_bits(bits);
    let stream = EdgeStream::synthesize(&data, Freq::from_gbps(2.5), &JitterConfig::table1(), 3);
    let changes: Vec<(Time, bool)> = stream
        .edges()
        .iter()
        .map(|e| (e.time + Time::from_ps(400.0), e.rising))
        .collect();
    let cdr_run = |heap: bool| {
        let mut sim = Simulator::new(31);
        if heap {
            sim = sim.with_heap_scheduler();
        }
        let handles = build_cdr(&mut sim, "cdr", &CdrConfig::paper());
        sim.drive(handles.ed.din, &changes);
        sim.run_until(stream.duration() + Time::from_ns(2.0));
        (sim.events_processed(), handles.samples.bits())
    };
    let reps = if quick { 2 } else { 1 };
    let cdr_heap = time_best_of(reps, || cdr_run(true));
    let cdr_cal = time_best_of(reps, || cdr_run(false));
    assert_eq!(
        cdr_cal.value.0, cdr_heap.value.0,
        "calendar and heap schedulers must process the same event count"
    );
    assert_eq!(
        cdr_cal.value.1, cdr_heap.value.1,
        "calendar and heap schedulers must recover the same bit stream"
    );
    let (cdr_events, _) = cdr_cal.value;
    let cdr_meps = cdr_events as f64 / cdr_cal.secs / 1e6;
    let cdr_speedup = cdr_heap.secs / cdr_cal.secs;
    println!(
        "dsim PRBS31 CDR {bits} bits: heap {:.1} ms | calendar {:.1} ms ({cdr_events} events, {cdr_meps:.1} Mevents/s) | {cdr_speedup:.2}x",
        cdr_heap.secs * 1e3,
        cdr_cal.secs * 1e3
    );
    result_line("dsim_cdr_speedup", format!("{cdr_speedup:.2}"));
    result_line("dsim_cdr_mevents_per_s", format!("{cdr_meps:.1}"));
    report.push_comparison(
        "dsim_prbs31_cdr",
        cdr_heap.secs * 1e3,
        cdr_cal.secs * 1e3,
        &[
            ("bits", bits.to_string()),
            ("events", cdr_events.to_string()),
            ("mevents_per_s", format!("{cdr_meps:.1}")),
        ],
    );

    // The sweep contexts above reported into the process-global registry;
    // embed its snapshot (grid counts, per-kind wall-time summaries,
    // worker gauge) alongside the timing entries.
    report.record_obs(gcco_obs::global());

    let path = Path::new("BENCH_sweep.json");
    report.write(path).expect("write BENCH_sweep.json");
    println!("\nwrote {}", path.display());

    if quick {
        println!("OK (quick): cross-checks passed, speedup gates skipped.");
        return;
    }
    assert!(
        grid_speedup >= 3.0,
        "sweep engine must keep the BER grid >= 3x over the naive path ({grid_speedup:.2}x)"
    );
    assert!(
        jtol_speedup >= 3.0,
        "sweep engine must keep the JTOL curve >= 3x over the naive path ({jtol_speedup:.2}x)"
    );
    assert!(
        kernel_speedup >= 1.5,
        "lane-batched kernels must keep the BER/JTOL workload mix >= 1.5x over the \
         scalar replicas ({kernel_speedup:.2}x)"
    );
    assert!(
        cdr_speedup >= 2.0,
        "calendar queue must keep the PRBS31 CDR run >= 2x over the heap scheduler ({cdr_speedup:.2}x)"
    );
    println!(
        "OK: grid {grid_speedup:.2}x, JTOL {jtol_speedup:.2}x, kernels {kernel_speedup:.2}x, \
         CDR scheduler {cdr_speedup:.2}x, parallel output bit-identical to serial."
    );
}

/// Times one cold BER probe per spec, the path every new design point of
/// an optimizer search takes: a model build, then one cached-Q BER. The
/// baseline builds a Q-table per probe, as every cold context did before
/// the table was shared per process; the optimized path is a
/// [`SweepContext`] on [`QTable::shared`]. Asserted bit-identical per
/// probe; no speedup gate.
fn bench_cold_ber_probe(report: &mut BenchReport, quick: bool) {
    let opt = OptimizeSpec::paper_flow();
    let mut specs = Vec::new();
    for &tap in &opt.taps {
        for &cid_max in &opt.cids {
            for ckj_rms in [opt.ckj_lo, 4e-3, 0.015, opt.ckj_hi] {
                for freq_offset in [opt.freq_margin, -0.01, 0.02, -opt.margin_hi] {
                    specs.push(ModelSpec {
                        ckj_rms,
                        cid_max,
                        run_dist: RunDistSpec::Geometric(cid_max),
                        tap,
                        freq_offset,
                        ..opt.base.clone()
                    });
                }
            }
        }
    }
    let reps = if quick { 2 } else { 5 };
    let base = time_best_of(reps, || {
        specs
            .iter()
            .map(|spec| {
                let model = spec.build().expect("valid probe");
                model.ber_cached(&QTable::new())
            })
            .collect::<Vec<_>>()
    });
    let fast = time_best_of(reps, || {
        specs
            .iter()
            .map(|spec| SweepContext::new(spec.build().expect("valid probe")).ber())
            .collect::<Vec<_>>()
    });
    assert_bits_eq(&base.value, &fast.value, "cold BER probe");
    let speedup = base.secs / fast.secs;
    println!(
        "cold BER probe ({} specs, 1 thread): per-probe Q-table {:.1} ms | shared {:.1} ms | {speedup:.2}x",
        specs.len(),
        base.secs * 1e3,
        fast.secs * 1e3
    );
    report.push_comparison(
        "cold_ber_probe",
        base.secs * 1e3,
        fast.secs * 1e3,
        &[
            ("threads", "1".to_string()),
            ("probes", specs.len().to_string()),
        ],
    );
}

/// Times the four lane-batched statistical kernels against scalar replicas
/// of the code they replaced, on one thread, at the grid sizes the BER
/// model and JTOL search actually use, then times the composite
/// run-length kernel sequence (the real BER/JTOL workload mix). Every
/// pair is asserted bit-identical before its timing is recorded. Returns
/// the composite speedup (baseline time over optimized time).
fn bench_stat_kernels(report: &mut BenchReport, quick: bool) -> f64 {
    let tab = QTable::new();
    // Representative SJ amplitudes: small (fixed 1e-3 grid), the Fig. 9
    // sweet spot, and a wide JTOL probe on its coarsened adaptive grid.
    let cases: &[(f64, f64)] = &[(0.25, 1e-3), (1.2, 1e-3), (8.0, 8.0 / 2048.0)];
    let reps = if quick { 4 } else { 20 };

    // Sinusoidal PDF build: one asin per bin edge (replica) vs the
    // mirrored builder (one asin per half, reflected).
    let base = time_best_of(3, || {
        let mut acc = 0.0;
        for _ in 0..reps {
            for &(pp, step) in cases {
                acc += sinusoidal_seed_style(pp, step).samples()[0];
            }
        }
        acc
    });
    let opt = time_best_of(3, || {
        let mut pdf = Pdf::dirac(0.0, 1.0);
        let mut acc = 0.0;
        for _ in 0..reps {
            for &(pp, step) in cases {
                pdf.set_sinusoidal(pp, step);
                acc += pdf.samples()[0];
            }
        }
        acc
    });
    for &(pp, step) in cases {
        assert_bits_eq(
            sinusoidal_seed_style(pp, step).samples(),
            Pdf::sinusoidal(pp, step).samples(),
            "sinusoidal kernel",
        );
    }
    let mut total_base = base.secs;
    let mut total_opt = opt.secs;
    report_kernel(
        report,
        "kernel_sinusoidal_pdf",
        &base,
        &opt,
        reps * cases.len(),
    );

    // Box convolution: clamped-index windowed mean (replica) vs the
    // region-split lane kernel. Input: the sinusoidal PDFs above; box
    // width = the paper's DJ budget.
    let inputs: Vec<Pdf> = cases
        .iter()
        .map(|&(pp, step)| Pdf::sinusoidal(pp, step))
        .collect();
    let dj_pp = 0.37;
    let base = time_best_of(3, || {
        let mut acc = 0.0;
        for _ in 0..reps {
            for p in &inputs {
                acc += convolve_box_seed_style(p, dj_pp).samples()[0];
            }
        }
        acc
    });
    let opt = time_best_of(3, || {
        let mut scratch = ConvScratch::new();
        let mut out = Pdf::dirac(0.0, 1.0);
        let mut acc = 0.0;
        for _ in 0..reps {
            for p in &inputs {
                p.convolve_box_into(dj_pp, &mut scratch, &mut out);
                acc += out.samples()[0];
            }
        }
        acc
    });
    for p in &inputs {
        assert_bits_eq(
            convolve_box_seed_style(p, dj_pp).samples(),
            p.convolve_box(dj_pp).samples(),
            "box-convolution kernel",
        );
    }
    total_base += base.secs;
    total_opt += opt.secs;
    report_kernel(
        report,
        "kernel_box_convolve",
        &base,
        &opt,
        reps * inputs.len(),
    );

    // Direct convolution: scalar nested loop (replica) vs lane-batched
    // rows. Input: sinusoidal against the DJ box, the model's base-PDF
    // product shape.
    let boxes: Vec<Pdf> = inputs
        .iter()
        .map(|p| Pdf::uniform(dj_pp, p.step()))
        .collect();
    let base = time_best_of(3, || {
        let mut acc = 0.0;
        for _ in 0..reps {
            for (p, b) in inputs.iter().zip(&boxes) {
                acc += convolve_seed_style(p, b).samples()[0];
            }
        }
        acc
    });
    let opt = time_best_of(3, || {
        let mut acc = 0.0;
        for _ in 0..reps {
            for (p, b) in inputs.iter().zip(&boxes) {
                acc += p.convolve(b).samples()[0];
            }
        }
        acc
    });
    for (p, b) in inputs.iter().zip(&boxes) {
        assert_bits_eq(
            convolve_seed_style(p, b).samples(),
            p.convolve(b).samples(),
            "convolution kernel",
        );
    }
    total_base += base.secs;
    total_opt += opt.secs;
    report_kernel(
        report,
        "kernel_pdf_convolve",
        &base,
        &opt,
        reps * inputs.len(),
    );

    // Table-driven Gaussian exceedance: scalar Q lookups (replica) vs the
    // chunked batch evaluator, over a bathtub-style threshold scan.
    let scan: Vec<Pdf> = inputs.iter().map(|p| p.convolve_box(dj_pp)).collect();
    let thresholds: Vec<f64> = (0..40).map(|i| -0.6 + 0.03 * i as f64).collect();
    let sigma = 0.0208;
    let base = time_best_of(3, || {
        let mut acc = 0.0;
        for _ in 0..reps {
            for p in &scan {
                for &t in &thresholds {
                    acc += exceed_above_seed_style(p, t, sigma, &tab)
                        + exceed_below_seed_style(p, -t, sigma, &tab);
                }
            }
        }
        acc
    });
    let opt = time_best_of(3, || {
        let mut acc = 0.0;
        for _ in 0..reps {
            for p in &scan {
                for &t in &thresholds {
                    acc += p.gaussian_exceed_above_with(t, sigma, &tab)
                        + p.gaussian_exceed_below_with(-t, sigma, &tab);
                }
            }
        }
        acc
    });
    for p in &scan {
        for &t in &thresholds {
            let (b0, o0) = (
                exceed_above_seed_style(p, t, sigma, &tab),
                p.gaussian_exceed_above_with(t, sigma, &tab),
            );
            assert!(
                b0.to_bits() == o0.to_bits(),
                "exceed-above diverged: {b0} vs {o0}"
            );
            let (b1, o1) = (
                exceed_below_seed_style(p, -t, sigma, &tab),
                p.gaussian_exceed_below_with(-t, sigma, &tab),
            );
            assert!(
                b1.to_bits() == o1.to_bits(),
                "exceed-below diverged: {b1} vs {o1}"
            );
        }
    }
    total_base += base.secs;
    total_opt += opt.secs;
    report_kernel(
        report,
        "kernel_gaussian_exceed",
        &base,
        &opt,
        reps * scan.len() * thresholds.len() * 2,
    );

    let agg = total_base / total_opt;
    println!("stat kernels aggregate (1 thread): {agg:.2}x");

    // Composite: the exact kernel sequence `run_error_prob_eval` issues per
    // run length — sinusoidal drift build, DJ box convolution, then one
    // missing-pulse and one slip exceedance — weighted as the BER model
    // weights them (one PDF build feeds exactly two exceedance sums). The
    // isolated entries above attribute a regression to a specific kernel;
    // this one is the single-thread BER/JTOL workload mix, and is the
    // number the kernel speedup gate watches.
    let sj_pp = 1.2;
    let sj_freq = 0.01;
    let step = 1e-3;
    let sigma1 = 0.0208;
    let run_lens: Vec<u32> = (1..=31).collect();
    let sj_amp_of = |l: u32| sj_pp * (std::f64::consts::PI * sj_freq * l as f64).sin().abs();
    let sigma_of = |l: u32| sigma1 * (l as f64).sqrt();
    let (thr_miss, thr_slip) = (-0.45, 0.55);
    let base = time_best_of(3, || {
        let mut acc = 0.0;
        for _ in 0..reps {
            for &l in &run_lens {
                let sin = sinusoidal_seed_style(2.0 * sj_amp_of(l), step);
                let bounded = convolve_box_seed_style(&sin, dj_pp);
                let sigma_l = sigma_of(l);
                acc += exceed_below_seed_style(&bounded, thr_miss, sigma_l, &tab)
                    + exceed_above_seed_style(&bounded, thr_slip, sigma_l, &tab);
            }
        }
        acc
    });
    let opt = time_best_of(3, || {
        let mut scratch = ConvScratch::new();
        let mut sin = Pdf::dirac(0.0, 1.0);
        let mut bounded = Pdf::dirac(0.0, 1.0);
        let mut acc = 0.0;
        for _ in 0..reps {
            for &l in &run_lens {
                sin.set_sinusoidal(2.0 * sj_amp_of(l), step);
                sin.convolve_box_into(dj_pp, &mut scratch, &mut bounded);
                let sigma_l = sigma_of(l);
                acc += bounded.gaussian_exceed_below_with(thr_miss, sigma_l, &tab)
                    + bounded.gaussian_exceed_above_with(thr_slip, sigma_l, &tab);
            }
        }
        acc
    });
    for &l in &run_lens {
        let sin = sinusoidal_seed_style(2.0 * sj_amp_of(l), step);
        let bounded = convolve_box_seed_style(&sin, dj_pp);
        let fast = Pdf::sinusoidal(2.0 * sj_amp_of(l), step).convolve_box(dj_pp);
        let sigma_l = sigma_of(l);
        let (b0, o0) = (
            exceed_below_seed_style(&bounded, thr_miss, sigma_l, &tab),
            fast.gaussian_exceed_below_with(thr_miss, sigma_l, &tab),
        );
        assert!(
            b0.to_bits() == o0.to_bits(),
            "composite missing diverged at l={l}: {b0} vs {o0}"
        );
        let (b1, o1) = (
            exceed_above_seed_style(&bounded, thr_slip, sigma_l, &tab),
            fast.gaussian_exceed_above_with(thr_slip, sigma_l, &tab),
        );
        assert!(
            b1.to_bits() == o1.to_bits(),
            "composite slip diverged at l={l}: {b1} vs {o1}"
        );
    }
    report_kernel(
        report,
        "kernel_ber_composite",
        &base,
        &opt,
        reps * run_lens.len(),
    );
    base.secs / opt.secs
}

fn report_kernel(
    report: &mut BenchReport,
    id: &str,
    base: &Timed<f64>,
    opt: &Timed<f64>,
    calls: usize,
) {
    println!(
        "{id}: scalar {:.1} ms | laned {:.1} ms | {:.2}x",
        base.secs * 1e3,
        opt.secs * 1e3,
        base.secs / opt.secs
    );
    report.push_comparison(
        id,
        base.secs * 1e3,
        opt.secs * 1e3,
        &[("threads", "1".to_string()), ("calls", calls.to_string())],
    );
}

fn assert_bits_eq(base: &[f64], opt: &[f64], what: &str) {
    assert_eq!(base.len(), opt.len(), "{what}: length diverged");
    for (i, (b, o)) in base.iter().zip(opt).enumerate() {
        assert!(
            b.to_bits() == o.to_bits(),
            "{what}: bin {i} diverged: {b} vs {o}"
        );
    }
}

/// Replica of the seed's `jtol_at`: fixed 48 iterations plus 2 probes,
/// cloning the model on every evaluation — the pre-engine baseline.
fn jtol_seed_style(model: &GccoStatModel, freq: f64) -> f64 {
    let ber_at = |amp: f64| {
        let spec = model.spec().clone().with_sj(Ui::new(amp), freq);
        model.clone().with_spec(spec).ber()
    };
    if ber_at(20.0) <= 1e-12 {
        return 20.0;
    }
    if ber_at(0.0) > 1e-12 {
        return 0.0;
    }
    let (mut lo, mut hi) = (0.0f64, 20.0f64);
    for _ in 0..48 {
        let mid = 0.5 * (lo + hi);
        if ber_at(mid) <= 1e-12 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Replica of the pre-lane sinusoidal builder: one `asin` per bin edge,
/// full sweep (the optimized builder computes one half and mirrors it).
fn sinusoidal_seed_style(pp: f64, step: f64) -> Pdf {
    if pp < 2.0 * step {
        return Pdf::from_samples(0.0, step, vec![1.0 / step]);
    }
    let a = pp / 2.0;
    let half = (a / step).ceil() as i64;
    let origin = -(half as f64) * step;
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
    let mut pdf = Pdf::from_samples(origin, step, density);
    pdf.renormalize();
    pdf
}

/// Replica of the pre-lane box convolution: per-element clamped window
/// indices (the optimized kernel splits the output into branch-free
/// ramp/steady/tail regions).
fn convolve_box_seed_style(p: &Pdf, pp: f64) -> Pdf {
    let step = p.step();
    if pp < step {
        return Pdf::from_samples(p.origin(), step, p.samples().to_vec());
    }
    let n = p.samples().len();
    let m = (pp / step).round() as usize + 1;
    let inv_m = 1.0 / m as f64;
    let mut prefix = Vec::with_capacity(n + 1);
    prefix.push(0.0);
    let mut acc = 0.0;
    for &d in p.samples() {
        acc += d;
        prefix.push(acc);
    }
    let origin = p.origin() - 0.5 * (m - 1) as f64 * step;
    let density: Vec<f64> = (0..n + m - 1)
        .map(|k| {
            let lo = (k + 1).saturating_sub(m);
            let hi = (k + 1).min(n);
            (prefix[hi] - prefix[lo]) * inv_m
        })
        .collect();
    Pdf::from_samples(origin, step, density)
}

/// Replica of the pre-lane direct convolution: scalar nested product loop.
fn convolve_seed_style(a: &Pdf, b: &Pdf) -> Pdf {
    let n = a.samples().len() + b.samples().len() - 1;
    let mut out = vec![0.0; n];
    for (i, &x) in a.samples().iter().enumerate() {
        if x == 0.0 {
            continue;
        }
        for (j, &y) in b.samples().iter().enumerate() {
            out[i + j] += x * y;
        }
    }
    for d in &mut out {
        *d *= a.step();
    }
    Pdf::from_samples(a.origin() + b.origin(), a.step(), out)
}

/// Bin-index range whose `z` values land strictly inside `(z_lo, z_hi)` —
/// same formula as the crate-private band computation the exceedance
/// kernels prune with.
fn z_band(p: &Pdf, threshold: f64, sigma: f64, sign: f64, z_lo: f64, z_hi: f64) -> (usize, usize) {
    let n = p.samples().len();
    let clamp_idx = |v: f64| (v.ceil().max(0.0) as usize).min(n);
    let (x_at_lo, x_at_hi) = (
        threshold + sign * z_lo * sigma,
        threshold + sign * z_hi * sigma,
    );
    let (x_first, x_last) = if sign > 0.0 {
        (x_at_lo, x_at_hi)
    } else {
        (x_at_hi, x_at_lo)
    };
    let i_lo = clamp_idx((x_first - p.origin()) / p.step());
    let i_hi = clamp_idx((x_last - p.origin()) / p.step());
    (i_lo, i_hi.max(i_lo))
}

/// Replica of the pre-batch `gaussian_exceed_above_with`: one scalar
/// `QTable::q` lookup per in-band bin.
fn exceed_above_seed_style(p: &Pdf, threshold: f64, sigma: f64, tab: &QTable) -> f64 {
    if sigma <= 0.0 {
        return p.tail_above(threshold);
    }
    let inv_sigma = 1.0 / sigma;
    let (i_lo, i_hi) = z_band(p, threshold, sigma, -1.0, -8.0, 37.5);
    let mut acc = 0.0;
    for (i, &d) in p.samples()[i_lo..i_hi].iter().enumerate() {
        if d == 0.0 {
            continue;
        }
        acc += d * tab.q((threshold - p.x(i_lo + i)) * inv_sigma);
    }
    acc += p.samples()[i_hi..].iter().sum::<f64>();
    (acc * p.step()).min(1.0)
}

/// Replica of the pre-batch `gaussian_exceed_below_with`.
fn exceed_below_seed_style(p: &Pdf, threshold: f64, sigma: f64, tab: &QTable) -> f64 {
    if sigma <= 0.0 {
        return p.tail_below(threshold);
    }
    let inv_sigma = 1.0 / sigma;
    let (i_lo, i_hi) = z_band(p, threshold, sigma, 1.0, -8.0, 37.5);
    let mut acc = p.samples()[..i_lo].iter().sum::<f64>();
    for (i, &d) in p.samples()[i_lo..i_hi].iter().enumerate() {
        if d == 0.0 {
            continue;
        }
        acc += d * tab.q((p.x(i_lo + i) - threshold) * inv_sigma);
    }
    (acc * p.step()).min(1.0)
}
