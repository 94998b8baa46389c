//! The sweep engine's central contract: parallel execution is
//! **bit-identical** to serial execution, for the real headline artifacts
//! (the Fig. 9 BER grid and the JTOL curve), at every worker count we can
//! exercise — 1, 2, and whatever the machine reports.

use gcco_stat::{
    available_workers, log_freq_grid, par_map_grid, GccoStatModel, JitterSpec, SweepContext,
};

/// Worker counts under test: serial, two workers, and the machine's own
/// parallelism (deduplicated, in case the machine reports 1 or 2).
fn worker_counts() -> Vec<usize> {
    let mut counts = vec![1, 2, available_workers()];
    counts.sort_unstable();
    counts.dedup();
    counts
}

#[test]
fn fig09_grid_is_bit_identical_across_worker_counts() {
    let ctx = SweepContext::new(GccoStatModel::new(JitterSpec::paper_table1()));
    // The actual Fig. 9 axes.
    let amps = [0.1, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2];
    let freqs = [1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5];
    let reference = ctx.clone().with_workers(1).ber_grid(&amps, &freqs);
    assert_eq!(reference.len(), amps.len());
    for workers in worker_counts() {
        let grid = ctx.clone().with_workers(workers).ber_grid(&amps, &freqs);
        // assert_eq! on f64 vectors: bitwise-equal values or bust.
        assert_eq!(grid, reference, "grid diverged at workers = {workers}");
    }
}

#[test]
fn jtol_curve_is_bit_identical_across_worker_counts() {
    let ctx = SweepContext::new(GccoStatModel::new(JitterSpec::paper_table1()));
    let freqs = log_freq_grid(1e-4, 0.5, 9);
    let reference = ctx.clone().with_workers(1).jtol_curve(&freqs, 1e-12);
    for workers in worker_counts() {
        let curve = ctx.clone().with_workers(workers).jtol_curve(&freqs, 1e-12);
        assert_eq!(curve, reference, "curve diverged at workers = {workers}");
    }
}

#[test]
fn par_map_grid_is_order_preserving_under_uneven_load() {
    // Skewed per-item cost (the JTOL situation: censored points cost 2
    // probes, interior points cost ~20) must not perturb output order.
    let items: Vec<usize> = (0..61).collect();
    let serial: Vec<f64> = items
        .iter()
        .map(|&i| {
            let mut acc = 0.0f64;
            for k in 0..(i % 7) * 1000 {
                acc += (k as f64).sqrt();
            }
            acc + i as f64
        })
        .collect();
    for workers in worker_counts() {
        let par = par_map_grid(&items, workers, |_, &i| {
            let mut acc = 0.0f64;
            for k in 0..(i % 7) * 1000 {
                acc += (k as f64).sqrt();
            }
            acc + i as f64
        });
        assert_eq!(par, serial, "workers = {workers}");
    }
}

#[test]
fn gcco_workers_env_override_is_respected() {
    // `available_workers` must honour an explicit override; the contexts
    // built above rely on it for reproducible CI runs. The machine's
    // parallelism is looked up once per process, so the override must
    // still win when it is set after that first lookup.
    std::env::remove_var("GCCO_WORKERS");
    let machine = available_workers();
    assert!(machine >= 1);
    std::env::set_var("GCCO_WORKERS", "3");
    assert_eq!(available_workers(), 3);
    std::env::set_var("GCCO_WORKERS", "not-a-number");
    assert_eq!(
        available_workers(),
        machine,
        "garbage override must fall back"
    );
    std::env::remove_var("GCCO_WORKERS");
    assert_eq!(available_workers(), machine);
}
