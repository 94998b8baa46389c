//! Parallel sweep execution engine with cached statistical-model state.
//!
//! Every headline artifact of this repository — BER grids (Figs. 9/10/17),
//! JTOL/FTOL searches, power-budget scans — is an embarrassingly parallel
//! map over a parameter grid where each point re-evaluates the same
//! statistical machinery. This module supplies the two halves of making
//! that fast:
//!
//! * [`par_map_grid`] — a dependency-free data-parallel map built on
//!   `std::thread::scope` and a shared atomic work cursor (chunked
//!   self-scheduling). Output ordering is deterministic and results are
//!   **bit-identical for any worker count**, because each grid point is
//!   evaluated independently of scheduling order.
//! * [`SweepContext`] — a reusable evaluation context bundling the model
//!   with its amplitude/offset-independent precomputed state (the DJ base
//!   PDF cached inside [`GccoStatModel`]) and the process-wide
//!   [`QTable::shared`] for Gaussian-tail lookups, so each grid point pays
//!   only for what actually changes along the sweep axes. The table does
//!   not depend on the model, so it is built once per process, not once
//!   per context: a cold context costs only its model build.
//!
//! Worker count comes from [`available_workers`]: the `GCCO_WORKERS`
//! environment variable when set, otherwise
//! [`std::thread::available_parallelism`], resolved once per process.

use crate::erf::QTable;
use crate::jtol::{jtol_at_impl, JtolPoint};
use crate::model::GccoStatModel;
use gcco_obs::Registry;
use gcco_units::Ui;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Number of sweep workers to use: the `GCCO_WORKERS` environment variable
/// (when set to a positive integer), else the machine's available
/// parallelism, else 1.
///
/// The variable is read on every call, so a later override takes effect.
/// The machine's parallelism is looked up once per process: on Linux that
/// lookup reads cgroup files, tens of microseconds that every cold context
/// would otherwise pay.
pub fn available_workers() -> usize {
    if let Ok(v) = std::env::var("GCCO_WORKERS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    static PARALLELISM: OnceLock<usize> = OnceLock::new();
    *PARALLELISM.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Data-parallel map over a grid with deterministic output ordering.
///
/// `f(i, &items[i])` is evaluated for every index, distributed over
/// `workers` scoped threads that claim chunks of indices from a shared
/// atomic cursor (self-scheduling balances uneven per-point cost, e.g.
/// censored-cap JTOL probes next to cheap near-Nyquist points). Results are
/// returned in input order regardless of completion order, so the output is
/// **bit-identical** to the serial `items.iter().map(...)` path for any
/// worker count — asserted by this crate's determinism tests.
///
/// # Panics
///
/// Propagates a panic from `f` (the offending worker's panic payload).
///
/// # Examples
///
/// ```
/// use gcco_stat::par_map_grid;
/// let squares = par_map_grid(&[1u64, 2, 3, 4], 2, |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn par_map_grid<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if workers <= 1 || n <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let workers = workers.min(n);
    // ~4 chunks per worker: coarse enough to keep cursor contention
    // negligible, fine enough to balance uneven point costs.
    let chunk = (n / (4 * workers)).max(1);
    let cursor = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        let end = (start + chunk).min(n);
                        for (i, item) in items.iter().enumerate().take(end).skip(start) {
                            local.push((i, f(i, item)));
                        }
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(local) => indexed.extend(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    indexed.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(indexed.len(), n);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// A statistical model packaged with its precomputed sweep state and a
/// worker pool size: the entry point for multicore BER grids and tolerance
/// curves.
///
/// The context owns the model (whose DJ base PDF is already cached
/// per-construction) and borrows the process-wide [`QTable::shared`];
/// worker threads borrow both immutably, and per-thread convolution
/// scratch lives in thread-locals inside the model. Grid evaluations are
/// therefore allocation-light and cold per point — no cross-point state —
/// which is what makes the parallel output bit-identical to the serial
/// one.
///
/// # Examples
///
/// ```
/// use gcco_stat::{JitterSpec, GccoStatModel, SweepContext};
///
/// let ctx = SweepContext::new(GccoStatModel::new(JitterSpec::paper_table1()));
/// let grid = ctx.ber_grid(&[0.1, 0.5], &[0.01, 0.1, 0.4]);
/// assert_eq!((grid.len(), grid[0].len()), (2, 3));
/// // More SJ amplitude can only hurt:
/// assert!(grid[1][2] >= grid[0][2]);
/// ```
#[derive(Clone, Debug)]
pub struct SweepContext {
    model: GccoStatModel,
    qtab: &'static QTable,
    workers: usize,
    obs: Registry,
}

impl SweepContext {
    /// Wraps a model with the process-wide Q-table and
    /// [`available_workers`] workers, recording sweep metrics into the
    /// [`gcco_obs::global`] registry (override with
    /// [`SweepContext::with_obs`]).
    pub fn new(model: GccoStatModel) -> SweepContext {
        SweepContext {
            model,
            qtab: QTable::shared(),
            workers: available_workers(),
            obs: gcco_obs::global().clone(),
        }
    }

    /// Overrides the worker count (1 = serial).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is 0.
    pub fn with_workers(mut self, workers: usize) -> SweepContext {
        assert!(workers >= 1, "worker count must be at least 1");
        self.workers = workers;
        self
    }

    /// Records this context's sweep metrics (per-grid wall time, worker
    /// count) into `obs` instead of the global registry. Instrumentation
    /// is timing-only — it never changes a computed value.
    pub fn with_obs(mut self, obs: Registry) -> SweepContext {
        self.obs = obs;
        self
    }

    /// Starts the timing span for one grid/curve evaluation of `kind` and
    /// publishes the worker gauge. The returned span records on drop.
    fn grid_span(&self, kind: &str) -> gcco_obs::Span {
        self.obs
            .counter_with("gcco_sweep_grids_total", "kind", kind)
            .inc();
        self.obs
            .gauge("gcco_sweep_workers")
            .set(self.workers as i64);
        self.obs
            .histogram_with("gcco_sweep_grid_seconds", "kind", kind)
            .span()
    }

    /// The wrapped model.
    pub fn model(&self) -> &GccoStatModel {
        &self.model
    }

    /// The worker count used by the grid methods.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The process-wide Gaussian-tail lookup table ([`QTable::shared`]).
    pub fn q_table(&self) -> &QTable {
        self.qtab
    }

    /// [`par_map_grid`] with this context's worker count.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        par_map_grid(items, self.workers, f)
    }

    /// BER of the wrapped model via the cached fast path.
    pub fn ber(&self) -> f64 {
        self.model.ber_cached(self.qtab)
    }

    /// Single-point cached BER with overridden sinusoidal jitter (the
    /// [`GccoStatModel::ber_at_sj`] fast path with this context's Q-table).
    pub fn ber_at_sj(&self, amplitude_pp: Ui, freq_norm: f64) -> f64 {
        self.model
            .ber_at_sj(amplitude_pp, freq_norm, Some(self.qtab))
    }

    /// BER over an SJ amplitude × frequency grid: `grid[a][f]` is the BER
    /// at `amps_pp[a]` UIpp and `freqs_norm[f]` (the Fig. 9/10/17 map).
    /// Points are evaluated in parallel; the flattened work list keeps all
    /// workers busy even when one axis is short.
    pub fn ber_grid(&self, amps_pp: &[f64], freqs_norm: &[f64]) -> Vec<Vec<f64>> {
        let _span = self.grid_span("ber_grid");
        let cells: Vec<(f64, f64)> = amps_pp
            .iter()
            .flat_map(|&a| freqs_norm.iter().map(move |&f| (a, f)))
            .collect();
        let flat = self.map(&cells, |_, &(a, f)| {
            self.model.ber_at_sj(Ui::new(a), f, Some(self.qtab))
        });
        flat.chunks(freqs_norm.len().max(1))
            .map(|row| row.to_vec())
            .collect()
    }

    /// One cold jitter-tolerance bisection at `freq_norm` with the cached
    /// Q fast path — the per-point kernel of [`SweepContext::jtol_curve`],
    /// exposed so request engines can interleave deadline checks between
    /// points without changing any value.
    pub fn jtol_point(&self, freq_norm: f64, target_ber: f64) -> JtolPoint {
        jtol_at_impl(&self.model, freq_norm, target_ber, None, Some(self.qtab))
    }

    /// Jitter-tolerance curve over `freqs_norm`, one bisection per point,
    /// evaluated in parallel with the cached Q fast path. Every point is
    /// searched cold (no cross-point warm start), so the result is
    /// independent of worker count and scheduling; the serial warm-started
    /// [`crate::jtol_curve`] agrees to within
    /// [`crate::JTOL_AMPLITUDE_TOL`].
    pub fn jtol_curve(&self, freqs_norm: &[f64], target_ber: f64) -> Vec<JtolPoint> {
        let _span = self.grid_span("jtol_curve");
        self.map(freqs_norm, |_, &f| self.jtol_point(f, target_ber))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jtol::log_freq_grid;
    use crate::spec::JitterSpec;

    #[test]
    fn par_map_matches_serial_for_any_worker_count() {
        let items: Vec<u64> = (0..97).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for workers in [1, 2, 3, 8, 64] {
            let par = par_map_grid(&items, workers, |_, &x| x * x + 1);
            assert_eq!(par, serial, "workers = {workers}");
        }
    }

    #[test]
    fn par_map_handles_degenerate_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(par_map_grid(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(par_map_grid(&[7u32], 4, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_passes_indices() {
        let items = vec!["a", "b", "c"];
        let got = par_map_grid(&items, 2, |i, &s| format!("{i}{s}"));
        assert_eq!(got, vec!["0a", "1b", "2c"]);
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn par_map_propagates_worker_panics() {
        let items: Vec<u32> = (0..32).collect();
        let _ = par_map_grid(&items, 2, |_, &x| {
            assert!(x != 17, "deliberate");
            x
        });
    }

    #[test]
    fn context_grid_is_worker_count_invariant() {
        let ctx = SweepContext::new(GccoStatModel::new(JitterSpec::paper_table1()));
        let amps = [0.1, 0.4, 1.0];
        let freqs = [0.01, 0.1, 0.3, 0.45];
        let serial = ctx.clone().with_workers(1).ber_grid(&amps, &freqs);
        for workers in [2, 4] {
            let par = ctx.clone().with_workers(workers).ber_grid(&amps, &freqs);
            assert_eq!(par, serial, "workers = {workers}");
        }
    }

    #[test]
    fn context_grid_matches_naive_model_closely() {
        // The cached path (Q-table) must track the exact per-point path.
        let model = GccoStatModel::new(JitterSpec::paper_table1());
        let ctx = SweepContext::new(model.clone()).with_workers(2);
        let grid = ctx.ber_grid(&[0.2, 0.8], &[0.05, 0.25]);
        for (i, &a) in [0.2, 0.8].iter().enumerate() {
            for (j, &f) in [0.05, 0.25].iter().enumerate() {
                let exact = model.ber_at_sj(Ui::new(a), f, None);
                let fast = grid[i][j];
                assert!(
                    (fast - exact).abs() <= 1e-6 * exact + 1e-30,
                    "({a}, {f}): {fast} vs {exact}"
                );
            }
        }
    }

    #[test]
    fn contexts_borrow_one_process_wide_q_table() {
        let a = SweepContext::new(GccoStatModel::new(JitterSpec::paper_table1()));
        let b = SweepContext::new(GccoStatModel::new(
            JitterSpec::paper_table1().with_sj(Ui::new(0.3), 0.1),
        ));
        assert!(std::ptr::eq(a.q_table(), b.q_table()));
        assert!(std::ptr::eq(a.q_table(), QTable::shared()));
        assert_eq!(
            b.ber().to_bits(),
            b.model().ber_cached(&QTable::new()).to_bits()
        );
    }

    #[test]
    fn instrumentation_records_without_changing_values() {
        let ctx = SweepContext::new(GccoStatModel::new(JitterSpec::paper_table1()));
        let bare = ctx.ber_grid(&[0.2, 0.8], &[0.05, 0.25]);
        let reg = gcco_obs::Registry::new();
        let instrumented = ctx.clone().with_obs(reg.clone());
        assert_eq!(
            instrumented.ber_grid(&[0.2, 0.8], &[0.05, 0.25]),
            bare,
            "metrics recording must not change a single computed number"
        );
        assert_eq!(reg.counter_sum("gcco_sweep_grids_total"), 1);
        assert_eq!(
            reg.histogram_with("gcco_sweep_grid_seconds", "kind", "ber_grid")
                .count(),
            1
        );
        assert_eq!(
            reg.gauge("gcco_sweep_workers").get(),
            instrumented.workers() as i64
        );
        instrumented.jtol_curve(&[0.1], 1e-12);
        assert_eq!(reg.counter_sum("gcco_sweep_grids_total"), 2);
    }

    #[test]
    fn context_jtol_curve_is_worker_count_invariant() {
        let ctx = SweepContext::new(GccoStatModel::new(JitterSpec::paper_table1()));
        let freqs = log_freq_grid(1e-3, 0.45, 5);
        let serial = ctx.clone().with_workers(1).jtol_curve(&freqs, 1e-12);
        let par = ctx.clone().with_workers(4).jtol_curve(&freqs, 1e-12);
        assert_eq!(par, serial);
        // And it must agree with the public serial API within tolerance.
        let warm = crate::jtol_curve(ctx.model(), &freqs, 1e-12);
        for (p, w) in par.iter().zip(&warm) {
            assert_eq!(p.censored, w.censored);
            assert!(
                (p.amplitude_pp.value() - w.amplitude_pp.value()).abs()
                    <= 2.0 * crate::JTOL_AMPLITUDE_TOL,
                "{p} vs {w}"
            );
        }
    }
}
