//! The evaluation engine: dispatches [`EvalRequest`] batches onto the
//! sweep machinery with an LRU cache of warm [`SweepContext`]s and
//! cooperative per-request deadlines.
//!
//! # Value guarantees
//!
//! Every dispatch path calls the exact same per-point kernels the figure
//! binaries used to call directly (`SweepContext::ber_at_sj`,
//! `SweepContext::jtol_point`, `gcco_stat::ftol`,
//! `gcco_noise::tradeoff_point`, …), so engine results are **bit-identical**
//! to the direct calls — asserted by `tests/engine_parity.rs` and by the
//! golden-output comparison of the rewired binaries. Deadlines are checked
//! *between* independent grid cells, curve points, scan points, lanes and
//! baseline tracking runs, never inside a kernel, and with or without a
//! deadline the same parallel map does the work, so a deadline changes
//! when an evaluation may abort but never what it computes.
//!
//! # Caching
//!
//! Contexts are shared across requests whose [`ModelSpec::cache_key`]s
//! match; [`Engine::context_builds`] counts cold builds so tests (and
//! operators) can assert cache hits.

use crate::error::GccoError;
use crate::optimize::{run_optimize, OptimizeSpec, ProbeOracle};
use crate::request::{
    ChannelOut, DsimRunOut, DsimRunSpec, EvalRequest, EvalResponse, MultiChannelSpec,
    PowerPointOut, PowerScanSpec, SizedCellOut,
};
use crate::spec::ModelSpec;
use gcco_dsim::{GateFunc, LogicGate, Simulator};
use gcco_noise::{
    iss_log_grid, size_for_jitter, tradeoff_point, PhaseNoiseModel, PAPER_MW_PER_GBPS_BUDGET,
};
use gcco_obs::{Counter, Registry};
use gcco_opt::PowerModel;
use gcco_stat::{available_workers, par_map_grid, settling_time_ui, SweepContext};
use gcco_store::Store;
use gcco_units::{Current, Freq, Time, Ui, Voltage};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How often a single-flight follower wakes to re-check its own deadline
/// while parked on the leader's slot. Purely a latency bound on follower
/// deadline trips — the leader's `notify_all` wakes followers immediately.
const SINGLEFLIGHT_POLL: Duration = Duration::from_millis(5);

/// Engine tuning knobs.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Maximum number of warm [`SweepContext`]s kept alive (LRU evicted).
    pub cache_capacity: usize,
    /// Worker threads for grid/curve parallelism; `None` uses
    /// [`available_workers`] (the `GCCO_WORKERS` override included).
    pub workers: Option<usize>,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            cache_capacity: 8,
            workers: None,
        }
    }
}

/// A cooperative deadline: dispatch paths call [`DeadlineGuard::check`]
/// between independent units of work and abort with
/// [`GccoError::DeadlineExceeded`] once the wall clock passes the mark.
///
/// A zero-millisecond deadline is guaranteed to trip at the first check,
/// which is what the serve loopback test leans on.
#[derive(Clone, Copy, Debug)]
pub struct DeadlineGuard {
    deadline: Option<(Instant, u64)>,
}

impl DeadlineGuard {
    /// A guard that never trips.
    pub fn unlimited() -> DeadlineGuard {
        DeadlineGuard { deadline: None }
    }

    /// A guard tripping `deadline_ms` milliseconds from now.
    pub fn after_ms(deadline_ms: u64) -> DeadlineGuard {
        DeadlineGuard {
            deadline: Some((
                Instant::now() + Duration::from_millis(deadline_ms),
                deadline_ms,
            )),
        }
    }

    /// `after_ms` when a deadline is given, else `unlimited`.
    pub fn from_opt_ms(deadline_ms: Option<u64>) -> DeadlineGuard {
        match deadline_ms {
            Some(ms) => DeadlineGuard::after_ms(ms),
            None => DeadlineGuard::unlimited(),
        }
    }

    /// Fails once the deadline has passed.
    ///
    /// # Errors
    ///
    /// [`GccoError::DeadlineExceeded`] carrying the original budget.
    pub fn check(&self) -> Result<(), GccoError> {
        match self.deadline {
            Some((at, deadline_ms)) if Instant::now() >= at => {
                Err(GccoError::DeadlineExceeded { deadline_ms })
            }
            _ => Ok(()),
        }
    }
}

/// The engine's persistent second cache tier: a shared [`Store`] plus the
/// counters that account for it. Created only by [`Engine::with_store`],
/// so store metrics appear in the registry exactly when a store is
/// attached.
struct StoreTier {
    store: Arc<Store>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    appends: Arc<Counter>,
    /// Individual store I/O failures (a degraded request can raise this
    /// more than once: a failed lookup *and* a failed append).
    errors: Arc<Counter>,
    /// Requests answered despite a store failure — degraded to cache-only
    /// evaluation instead of failing the request (at most one per
    /// request).
    degraded: Arc<Counter>,
}

/// Typed evaluation engine with warm-context caching.
///
/// One engine is meant to be shared: interior mutability covers the cache
/// and the build counter, so `&Engine` is all a worker thread needs.
///
/// # Examples
///
/// ```
/// use gcco_api::{Engine, EvalRequest, EvalResponse, ModelSpec};
///
/// let engine = Engine::new();
/// let req = EvalRequest::FtolSearch {
///     spec: ModelSpec::paper_table1(),
///     target_ber: 1e-12,
/// };
/// let resp = engine.evaluate(&req).expect("valid request");
/// assert!(matches!(resp, EvalResponse::Ftol { value } if value > 0.0));
/// ```
pub struct Engine {
    config: EngineConfig,
    workers: usize,
    /// MRU-ordered (key, context) pairs; front = most recently used.
    cache: Mutex<Vec<(String, Arc<SweepContext>)>>,
    store: Option<StoreTier>,
    builds: AtomicU64,
    /// Single-flight slots: one entry per canonical cache key currently
    /// being computed; followers park on the slot instead of recomputing.
    inflight: Mutex<HashMap<String, Arc<InflightSlot>>>,
    obs: Registry,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_builds: Arc<Counter>,
    cache_evictions: Arc<Counter>,
    deadline_trips: Arc<Counter>,
    singleflight_leaders: Arc<Counter>,
    singleflight_waits: Arc<Counter>,
}

/// One in-flight computation other threads can wait on: the leader
/// publishes its result (success *or* error) exactly once and wakes every
/// parked follower.
struct InflightSlot {
    done: Mutex<Option<Result<EvalResponse, GccoError>>>,
    cv: Condvar,
}

impl InflightSlot {
    fn new() -> InflightSlot {
        InflightSlot {
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }
}

/// Leadership over one single-flight slot. Publishing removes the slot
/// from the map and wakes followers; if the leader unwinds without
/// publishing (a panicking kernel), `Drop` publishes an `Io` error so
/// followers fail instead of parking forever.
struct SingleflightLead<'a> {
    engine: &'a Engine,
    key: &'a str,
    published: bool,
}

impl SingleflightLead<'_> {
    fn publish(&mut self, result: Result<EvalResponse, GccoError>) {
        self.published = true;
        let slot = self
            .engine
            .inflight
            .lock()
            .expect("inflight lock poisoned")
            .remove(self.key);
        if let Some(slot) = slot {
            *slot.done.lock().expect("slot lock poisoned") = Some(result);
            slot.cv.notify_all();
        }
    }
}

impl Drop for SingleflightLead<'_> {
    fn drop(&mut self) {
        if !self.published {
            self.publish(Err(GccoError::Io(
                "single-flight leader unwound without publishing".to_string(),
            )));
        }
    }
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new()
    }
}

impl Engine {
    /// An engine with [`EngineConfig::default`].
    pub fn new() -> Engine {
        Engine::with_config(EngineConfig::default())
    }

    /// An engine with explicit tuning and its own fresh metrics registry.
    pub fn with_config(config: EngineConfig) -> Engine {
        Engine::with_config_and_obs(config, Registry::new())
    }

    /// An engine with explicit tuning recording into `obs` — engine
    /// dispatch, cache, and sweep metrics all land in that registry.
    ///
    /// A `cache_capacity` of 0 is clamped to 1: a zero-capacity cache
    /// would evict on every build and thrash warm contexts, which is
    /// never what an operator wants.
    pub fn with_config_and_obs(mut config: EngineConfig, obs: Registry) -> Engine {
        config.cache_capacity = config.cache_capacity.max(1);
        let workers = config.workers.unwrap_or_else(available_workers).max(1);
        Engine {
            config,
            workers,
            cache: Mutex::new(Vec::new()),
            store: None,
            builds: AtomicU64::new(0),
            inflight: Mutex::new(HashMap::new()),
            cache_hits: obs.counter("gcco_engine_cache_hits_total"),
            cache_misses: obs.counter("gcco_engine_cache_misses_total"),
            cache_builds: obs.counter("gcco_engine_cache_builds_total"),
            cache_evictions: obs.counter("gcco_engine_cache_evictions_total"),
            deadline_trips: obs.counter("gcco_engine_deadline_trips_total"),
            singleflight_leaders: obs.counter("gcco_singleflight_leaders_total"),
            singleflight_waits: obs.counter("gcco_singleflight_waits_total"),
            obs,
        }
    }

    /// Attaches a persistent result store as the second cache tier behind
    /// the warm-context LRU: a request whose [`EvalRequest::cache_key`]
    /// is journaled returns the stored response **bit-identically** (the
    /// wire codec round-trips every `f64` exactly); a miss computes,
    /// appends, and returns. Only successful responses are stored, so
    /// errors (deadline trips, invalid specs) re-evaluate every time.
    ///
    /// Attaching registers the `gcco_store_*` counters in this engine's
    /// registry — including the store's recovery tallies
    /// (`gcco_store_recovered_records`, `gcco_store_torn_bytes`) — so
    /// store health is visible wherever engine metrics are exposed.
    ///
    /// The store is an accelerator, never a dependency: a store I/O error
    /// (disk failure, injected fault) **degrades** the request to
    /// cache-only evaluation instead of failing it — the response is
    /// computed as if no store were attached, `gcco_store_errors_total`
    /// counts each failing store operation, and
    /// `gcco_store_degraded_total` counts each request answered that way.
    #[must_use]
    pub fn with_store(mut self, store: Arc<Store>) -> Engine {
        let recovery = store.recovery();
        self.obs
            .counter("gcco_store_recovered_records")
            .add(recovery.intact_records);
        self.obs
            .counter("gcco_store_torn_bytes")
            .add(recovery.torn_bytes);
        self.store = Some(StoreTier {
            store,
            hits: self.obs.counter("gcco_store_hits_total"),
            misses: self.obs.counter("gcco_store_misses_total"),
            appends: self.obs.counter("gcco_store_appends_total"),
            errors: self.obs.counter("gcco_store_errors_total"),
            degraded: self.obs.counter("gcco_store_degraded_total"),
        });
        self
    }

    /// The attached persistent store, when there is one.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.as_ref().map(|tier| &tier.store)
    }

    /// The metrics registry this engine (and every context it builds)
    /// records into.
    pub fn obs(&self) -> &Registry {
        &self.obs
    }

    /// Worker threads used for grids and curves.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Number of cold [`SweepContext`] builds so far — stays flat across
    /// requests that share a [`ModelSpec::cache_key`].
    pub fn context_builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Returns the warm context for `spec`, building (and caching) it on
    /// the first sight of its cache key.
    ///
    /// # Errors
    ///
    /// [`GccoError::InvalidSpec`] when the spec does not validate.
    pub fn context_for(&self, spec: &ModelSpec) -> Result<Arc<SweepContext>, GccoError> {
        let key = spec.cache_key();
        let warm = move_to_front(&mut self.cache.lock().expect("cache lock poisoned"), &key);
        if let Some(ctx) = warm {
            self.cache_hits.inc();
            return Ok(ctx);
        }
        self.cache_misses.inc();
        // Build outside the lock: context construction convolves PDFs and
        // must not serialize unrelated requests behind it.
        let _span = self
            .obs
            .histogram("gcco_engine_context_build_seconds")
            .span();
        let model = spec.build()?;
        let ctx = Arc::new(
            SweepContext::new(model)
                .with_workers(self.workers)
                .with_obs(self.obs.clone()),
        );
        let mut cache = self.cache.lock().expect("cache lock poisoned");
        // A racing builder may have inserted the same key meanwhile; keep
        // the incumbent so all holders share one context (and don't count
        // the discarded duplicate, so `context_builds` reflects exactly
        // the contexts that entered the cache).
        if let Some(ctx) = move_to_front(&mut cache, &key) {
            return Ok(ctx);
        }
        self.builds.fetch_add(1, Ordering::Relaxed);
        self.cache_builds.inc();
        cache.insert(0, (key, Arc::clone(&ctx)));
        let before = cache.len();
        cache.truncate(self.config.cache_capacity);
        self.cache_evictions.add((before - cache.len()) as u64);
        Ok(ctx)
    }

    /// Evaluates one request with no deadline.
    ///
    /// # Errors
    ///
    /// [`GccoError::InvalidSpec`] when the request fails validation.
    pub fn evaluate(&self, req: &EvalRequest) -> Result<EvalResponse, GccoError> {
        self.evaluate_with_deadline(req, DeadlineGuard::unlimited())
    }

    /// Evaluates a batch in order, one result per request. Requests
    /// sharing a model spec share one warm context; each request is
    /// internally parallel, so batches run sequentially for deterministic
    /// resource use.
    pub fn evaluate_batch(&self, reqs: &[EvalRequest]) -> Vec<Result<EvalResponse, GccoError>> {
        reqs.iter().map(|r| self.evaluate(r)).collect()
    }

    /// Evaluates one request under a cooperative deadline.
    ///
    /// # Errors
    ///
    /// [`GccoError::InvalidSpec`] on validation failure,
    /// [`GccoError::DeadlineExceeded`] when the guard trips between work
    /// units.
    pub fn evaluate_with_deadline(
        &self,
        req: &EvalRequest,
        guard: DeadlineGuard,
    ) -> Result<EvalResponse, GccoError> {
        let kind = req.kind();
        self.obs
            .counter_with("gcco_engine_requests_total", "kind", kind)
            .inc();
        let _span = self
            .obs
            .histogram_with("gcco_engine_request_seconds", "kind", kind)
            .span();
        let result = self.dispatch_coalesced(req, guard);
        if matches!(result, Err(GccoError::DeadlineExceeded { .. })) {
            self.deadline_trips.inc();
        }
        result
    }

    /// Single-flight coalescing around [`Engine::dispatch_stored`]:
    /// concurrent requests with the same canonical [`EvalRequest::cache_key`]
    /// perform exactly one computation. The first arrival (the *leader*)
    /// registers a slot, computes, and publishes its result — success or
    /// error — to every thread that arrived meanwhile (the *followers*,
    /// counted by `gcco_singleflight_waits_total`). Followers receive the
    /// leader's result by clone, which is bit-identical: `EvalResponse`
    /// holds plain `f64`s, and cloning copies bits.
    ///
    /// This is the one place a client request is validated and keyed: the
    /// key found here is the single-flight slot and the store key both.
    ///
    /// Error semantics: validation runs *before* coalescing (an invalid
    /// request never occupies a slot), and every leader error — deadline
    /// trip included — propagates to followers as-is rather than leaving
    /// them hung or silently recomputing. A follower's *own* deadline is
    /// still honored while it waits: the park re-checks its guard every
    /// [`SINGLEFLIGHT_POLL`].
    fn dispatch_coalesced(
        &self,
        req: &EvalRequest,
        guard: DeadlineGuard,
    ) -> Result<EvalResponse, GccoError> {
        req.validate()?;
        let key = req.cache_key();
        let existing = {
            let mut map = self.inflight.lock().expect("inflight lock poisoned");
            match map.get(&key) {
                Some(slot) => Some(Arc::clone(slot)),
                None => {
                    map.insert(key.clone(), Arc::new(InflightSlot::new()));
                    None
                }
            }
        };
        let Some(slot) = existing else {
            self.singleflight_leaders.inc();
            let mut lead = SingleflightLead {
                engine: self,
                key: &key,
                published: false,
            };
            let result = self.dispatch_stored(req, &key, guard).map(|(resp, _)| resp);
            lead.publish(result.clone());
            return result;
        };
        self.singleflight_waits.inc();
        let mut done = slot.done.lock().expect("slot lock poisoned");
        loop {
            if let Some(result) = done.as_ref() {
                return result.clone();
            }
            guard.check()?;
            done = slot
                .cv
                .wait_timeout(done, SINGLEFLIGHT_POLL)
                .expect("slot lock poisoned")
                .0;
        }
    }

    /// Dispatch through the persistent tier when one is attached, under
    /// the request's canonical `key`: store hit → parse and return the
    /// journaled response; miss → compute via [`Engine::dispatch`],
    /// append, return. The flag is `true` exactly when the store answered.
    /// The deadline runs *before* the lookup (and validation before that,
    /// in the caller), so attaching a store never changes which requests
    /// are accepted — only whether they recompute.
    ///
    /// The store can only ever help: a failing lookup (I/O error, or a
    /// stored value that no longer parses) falls through to computation,
    /// and a failing append is swallowed — either way the request is
    /// answered from the cache/compute tiers and the failure is visible
    /// only in `gcco_store_errors_total` / `gcco_store_degraded_total`.
    fn dispatch_stored(
        &self,
        req: &EvalRequest,
        key: &str,
        guard: DeadlineGuard,
    ) -> Result<(EvalResponse, bool), GccoError> {
        guard.check()?;
        let tier = match &self.store {
            // Optimizer responses are never journaled as one record: each
            // of their probes is an ordinary ber_point sub-request that
            // journals individually (which is exactly what makes a killed
            // run resumable), and the report's `store_hits` is a run-local
            // statistic that a stored blob would freeze into the cache.
            Some(tier) if !matches!(req, EvalRequest::Optimize { .. }) => tier,
            _ => return Ok((self.dispatch(req, guard)?, false)),
        };
        let mut degraded = match tier.store.get(key).map(|v| v.map(|b| decode_stored(&b))) {
            Ok(Some(Ok(resp))) => {
                tier.hits.inc();
                return Ok((resp, true));
            }
            Ok(None) => {
                tier.misses.inc();
                false
            }
            // A failed read, or a checksummed value that no longer
            // decodes: recompute, and the append below re-journals a fresh
            // value under the same key, healing it.
            Ok(Some(Err(_))) | Err(_) => {
                tier.errors.inc();
                true
            }
        };
        let resp = self.dispatch(req, guard)?;
        match tier
            .store
            .append(key, crate::json::encode_response(&resp).as_bytes())
        {
            Ok(()) => tier.appends.inc(),
            Err(_) => {
                tier.errors.inc();
                degraded = true;
            }
        }
        if degraded {
            tier.degraded.inc();
        }
        Ok((resp, false))
    }

    /// The uninstrumented dispatch body — kernels only, no metrics, so
    /// counting and timing provably cannot perturb a computed value.
    /// The request arrives validated and its deadline checked once; arms
    /// that build a context re-check after the build.
    fn dispatch(&self, req: &EvalRequest, guard: DeadlineGuard) -> Result<EvalResponse, GccoError> {
        match req {
            EvalRequest::BerPoint { spec, sj } => {
                let ctx = self.context_for(spec)?;
                guard.check()?;
                let value = match sj {
                    None => ctx.ber(),
                    Some(sj) => ctx.ber_at_sj(Ui::new(sj.amplitude_pp), sj.freq_norm),
                };
                Ok(EvalResponse::Scalar { value })
            }
            EvalRequest::BerGrid {
                spec,
                amps_pp,
                freqs_norm,
            } => {
                // The flattened cell list of `SweepContext::ber_grid`, cut
                // back into rows of `freqs_norm.len()` (never 0: validated).
                let ctx = self.context_for(spec)?;
                let cells: Vec<(f64, f64)> = amps_pp
                    .iter()
                    .flat_map(|&a| freqs_norm.iter().map(move |&f| (a, f)))
                    .collect();
                let flat =
                    self.par_map(&cells, guard, |_, &(a, f)| Ok(ctx.ber_at_sj(Ui::new(a), f)))?;
                let rows = flat.chunks(freqs_norm.len()).map(<[f64]>::to_vec).collect();
                Ok(EvalResponse::Grid { rows })
            }
            EvalRequest::JtolCurve {
                spec,
                freqs_norm,
                target_ber,
            } => {
                let ctx = self.context_for(spec)?;
                let points = self.par_map(freqs_norm, guard, |_, &f| {
                    Ok(ctx.jtol_point(f, *target_ber).into())
                })?;
                Ok(EvalResponse::Jtol { points })
            }
            EvalRequest::FtolSearch { spec, target_ber } => {
                let ctx = self.context_for(spec)?;
                guard.check()?;
                // Exact-Q path, same as calling `gcco_stat::ftol` directly.
                let value = gcco_stat::ftol(ctx.model(), *target_ber);
                Ok(EvalResponse::Ftol { value })
            }
            EvalRequest::PowerScan { scan } => self.power_scan(scan, guard),
            EvalRequest::DsimRun { run } => Ok(EvalResponse::Dsim { run: dsim_run(run) }),
            EvalRequest::MultiChannel { mc } => self.multi_channel(mc, guard),
            EvalRequest::Optimize { opt } => self.optimize(opt, guard),
            EvalRequest::Baseline { arch, spec, metric } => {
                self.obs
                    .counter_with("gcco_baseline_runs_total", "arch", arch.wire_name())
                    .inc();
                Ok(EvalResponse::Baseline {
                    out: crate::baseline::run_baseline(*arch, spec, metric, guard)?,
                })
            }
        }
    }

    /// [`par_map_grid`] over the engine's workers with a deadline check
    /// before every item — the one map behind grids, curves, scans and
    /// lanes. Items are independent and come back in input order, so a
    /// deadline changes when a map may abort, never what it computes.
    fn par_map<T: Sync, R: Send>(
        &self,
        items: &[T],
        guard: DeadlineGuard,
        f: impl Fn(usize, &T) -> Result<R, GccoError> + Sync,
    ) -> Result<Vec<R>, GccoError> {
        par_map_grid(items, self.workers, |i, item| {
            guard.check()?;
            f(i, item)
        })
        .into_iter()
        .collect()
    }

    /// Evaluates the BER of `spec` as a [`EvalRequest::BerPoint`]
    /// sub-request **through [`Engine::dispatch_stored`]** — the one probe
    /// behind optimizer probes and multi-channel lanes, so with a store
    /// attached each is journaled under its own canonical key. Returns the
    /// BER and whether the store answered it. The spec is validated where
    /// it was derived, and `ModelSpec::build` checks it again before any
    /// computation.
    fn probe_ber(&self, spec: &ModelSpec, guard: DeadlineGuard) -> Result<(f64, bool), GccoError> {
        let sub = EvalRequest::ber_point(spec.clone());
        match self.dispatch_stored(&sub, &sub.cache_key(), guard)? {
            (EvalResponse::Scalar { value }, from_store) => Ok((value, from_store)),
            // Only reachable if a store journaled a non-scalar value under
            // a ber_point key — corruption, not a client mistake.
            (other, _) => Err(GccoError::Io(format!(
                "stored ber_point value has kind \"{}\"",
                other.kind()
            ))),
        }
    }

    /// Runs the design-space optimizer with this engine as the probe
    /// oracle: every probe the deterministic search asks for is one
    /// [`Engine::probe_ber`], so a killed run re-probes from disk, a warm
    /// store answers the whole search without recomputing, and a router
    /// can shard the very same probes.
    fn optimize(
        &self,
        opt: &OptimizeSpec,
        guard: DeadlineGuard,
    ) -> Result<EvalResponse, GccoError> {
        struct EngineOracle<'a> {
            engine: &'a Engine,
            guard: DeadlineGuard,
            hits: u64,
            batches: u64,
        }
        impl ProbeOracle for EngineOracle<'_> {
            fn probe_batch(&mut self, specs: &[ModelSpec]) -> Result<Vec<f64>, GccoError> {
                self.batches += 1;
                specs
                    .iter()
                    .map(|probe| {
                        // This run's warm starts, counted as the store
                        // answers them: the tier's own hit counter is
                        // cumulative across the engine's lifetime, while
                        // the report wants the per-run ratio.
                        let (ber, from_store) = self.engine.probe_ber(probe, self.guard)?;
                        self.hits += u64::from(from_store);
                        Ok(ber)
                    })
                    .collect()
            }

            fn store_hits(&self) -> u64 {
                self.hits
            }
        }
        let mut oracle = EngineOracle {
            engine: self,
            guard,
            hits: 0,
            batches: 0,
        };
        let out = run_optimize(opt, &mut oracle)?;
        self.obs.counter("gcco_opt_runs_total").inc();
        self.obs.counter("gcco_opt_probes_total").add(out.probes);
        self.obs
            .counter("gcco_opt_probe_batches_total")
            .add(oracle.batches);
        self.obs
            .counter("gcco_opt_store_hits_total")
            .add(out.store_hits);
        if !out.converged {
            self.obs.counter("gcco_opt_exhausted_total").inc();
        }
        Ok(EvalResponse::Optimize { out })
    }

    /// Evaluates a multi-channel scenario: every lane's BER is one
    /// [`Engine::probe_ber`], so with a store attached a campaign killed
    /// mid-group resumes from the finished lanes; settling time is the
    /// closed-form [`settling_time_ui`] on the lane's model (no context
    /// needed, so a fully warm replay builds nothing). Lanes go through
    /// [`Engine::par_map`], so the lane vector does not depend on worker
    /// count or deadline.
    fn multi_channel(
        &self,
        mc: &MultiChannelSpec,
        guard: DeadlineGuard,
    ) -> Result<EvalResponse, GccoError> {
        let channels = self.par_map(&mc.channel_specs(), guard, |i, lane| {
            Ok(ChannelOut {
                index: i as u32,
                freq_offset: lane.freq_offset,
                ber: self.probe_ber(lane, guard)?.0,
                settling_ui: settling_time_ui(&lane.build()?),
            })
        })?;
        let worst_ber = channels.iter().map(|c| c.ber).fold(0.0_f64, f64::max);
        let passing = channels.iter().filter(|c| c.ber <= mc.target_ber).count();
        let yield_pct = 100.0 * passing as f64 / channels.len() as f64;
        // Power roll-up: the §3.2 analytic chain packaged as
        // [`gcco_opt::PowerModel`] — the same objective the optimizer
        // minimizes, so a recovered design and a multi-channel scenario
        // report bit-identical power numbers. The sizing sees the *base*
        // oscillator jitter budget (the control-current ripple is shared
        // across lanes, not a per-cell thermal contribution); a noiseless
        // spec reports no roll-up.
        let mw_per_gbps =
            PowerModel::paper(mc.bit_rate_gbps).mw_per_gbps(mc.spec.cid_max, mc.spec.ckj_rms);
        let within_budget = mw_per_gbps.is_some_and(|m| m < PAPER_MW_PER_GBPS_BUDGET);
        Ok(EvalResponse::MultiChannel {
            channels,
            worst_ber,
            yield_pct,
            mw_per_gbps,
            within_budget,
        })
    }

    fn power_scan(
        &self,
        scan: &PowerScanSpec,
        guard: DeadlineGuard,
    ) -> Result<EvalResponse, GccoError> {
        let f_ring = Freq::from_gbps(scan.bit_rate_gbps);
        let pn = PhaseNoiseModel::Hajimiri { eta: scan.eta };
        let swing = Voltage::from_volts(scan.swing_v);
        // The pinned design delay `1/(2·n·f)` — carried to the wire in
        // integer femtoseconds so `SizedCellOut::to_cell` reconstructs the
        // engine's cell bit-identically.
        let design_delay = Time::from_secs(1.0 / (2.0 * f64::from(scan.n_stages) * f_ring.hz()));
        let sized = size_for_jitter(
            pn,
            swing,
            f_ring,
            scan.n_stages,
            scan.cid,
            scan.sigma_ui_target,
            Current::from_amps(scan.iss_sizing_max_a),
        )
        .map(|cell| SizedCellOut {
            iss_a: cell.iss.amps(),
            swing_v: scan.swing_v,
            delay_fs: design_delay.fs(),
        });
        let grid = iss_log_grid(
            (
                Current::from_microamps(scan.iss_min_ua),
                Current::from_microamps(scan.iss_max_ua),
            ),
            scan.steps as usize,
        );
        let points = self.par_map(&grid, guard, |_, &iss| {
            let p = tradeoff_point(pn, swing, f_ring, scan.n_stages, scan.cid, iss);
            Ok(PowerPointOut {
                iss_a: p.iss.amps(),
                ring_power_mw: p.ring_power.milliwatts(),
                sigma_ui: p.sigma_ui,
            })
        })?;
        Ok(EvalResponse::Power { sized, points })
    }
}

/// Moves `key`'s entry to the front of an MRU-ordered context list and
/// returns its context, or `None` when the key is not cached.
fn move_to_front(
    cache: &mut [(String, Arc<SweepContext>)],
    key: &str,
) -> Option<Arc<SweepContext>> {
    let pos = cache.iter().position(|(k, _)| k == key)?;
    cache[..=pos].rotate_right(1);
    Some(Arc::clone(&cache[0].1))
}

/// Decodes one journaled wire-codec response.
fn decode_stored(bytes: &[u8]) -> Result<EvalResponse, GccoError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| GccoError::Io(format!("stored response is not UTF-8: {e}")))?;
    crate::json::parse_response(&crate::json::Json::parse(text)?)
}

/// Runs the event-driven ring: one buffer plus `stages − 1` inverters
/// (odd net inversion), every stage at the same transport delay, with
/// optional Gaussian delay jitter. Deterministic per seed.
fn dsim_run(run: &DsimRunSpec) -> DsimRunOut {
    let mut sim = Simulator::new(run.seed);
    let stages = run.stages as usize;
    // Initial values consistent with every gate except the closing
    // inverter, so exactly one edge is injected at init — multiple
    // simultaneous mismatches would launch several circulating waves and
    // divide the measured period.
    let sigs: Vec<_> = (0..stages)
        .map(|i| sim.add_signal(format!("ring{i}"), i >= 2 && i % 2 == 0))
        .collect();
    let delay = Time::from_secs(run.stage_delay_ps * 1e-12);
    for i in 0..stages {
        let func = if i == 0 { GateFunc::Buf } else { GateFunc::Inv };
        let mut gate = LogicGate::new(
            format!("stage{i}"),
            func,
            vec![sigs[i]],
            sigs[(i + 1) % stages],
            delay,
        );
        if run.jitter_rel > 0.0 {
            gate = gate.with_jitter(run.jitter_rel);
        }
        sim.add_component(gate);
    }
    sim.probe(sigs[0]);
    sim.run_until(Time::from_secs(run.duration_ns * 1e-9));
    let events = sim.events_processed();
    // Stream the rising edges straight into the period list — the edge
    // times themselves are never needed, only consecutive differences.
    let mut rise_count = 0u64;
    let mut periods: Vec<f64> = Vec::new();
    if let Some(trace) = sim.trace(sigs[0]) {
        let mut prev: Option<Time> = None;
        for r in trace.rising_edges_iter() {
            if let Some(p) = prev {
                periods.push((r - p).ps());
            }
            prev = Some(r);
            rise_count += 1;
        }
    }
    let (mean, rms) = if periods.is_empty() {
        (0.0, 0.0)
    } else {
        let mean = periods.iter().sum::<f64>() / periods.len() as f64;
        let var =
            periods.iter().map(|p| (p - mean) * (p - mean)).sum::<f64>() / periods.len() as f64;
        (mean, var.sqrt())
    };
    DsimRunOut {
        period_ps_mean: mean,
        period_ps_rms: rms,
        rising_edges: rise_count,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{BaselineMetric, BaselineSpec, CdrArchKind};
    use crate::request::SjOverride;

    #[test]
    fn cache_shares_contexts_and_counts_builds() {
        let engine = Engine::with_config(EngineConfig {
            cache_capacity: 2,
            workers: Some(1),
        });
        let spec = ModelSpec::paper_table1();
        let a = engine.context_for(&spec).unwrap();
        let b = engine.context_for(&spec).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same key must share one context");
        assert_eq!(engine.context_builds(), 1);
        let other = spec.clone().with_freq_offset(0.01);
        engine.context_for(&other).unwrap();
        assert_eq!(engine.context_builds(), 2);
        // Capacity 2: touch `other` so `spec` is the LRU entry, then a
        // third distinct spec must evict `spec` but keep `other` warm.
        engine.context_for(&other).unwrap();
        engine
            .context_for(&spec.clone().with_freq_offset(-0.01))
            .unwrap();
        assert_eq!(engine.context_builds(), 3);
        engine.context_for(&other).unwrap();
        assert_eq!(engine.context_builds(), 3, "other stayed warm");
        engine.context_for(&spec).unwrap();
        assert_eq!(engine.context_builds(), 4, "spec was evicted and rebuilt");
    }

    #[test]
    fn zero_cache_capacity_clamps_to_one_instead_of_thrashing() {
        let engine = Engine::with_config(EngineConfig {
            cache_capacity: 0,
            workers: Some(1),
        });
        let spec = ModelSpec::paper_table1();
        engine.context_for(&spec).unwrap();
        let again = engine.context_for(&spec).unwrap();
        assert_eq!(
            engine.context_builds(),
            1,
            "capacity 0 must behave as capacity 1, not evict every build"
        );
        assert!(Arc::ptr_eq(&engine.context_for(&spec).unwrap(), &again));
        assert_eq!(
            engine
                .obs()
                .counter("gcco_engine_cache_evictions_total")
                .get(),
            0
        );
    }

    #[test]
    fn obs_counters_track_cache_requests_and_deadlines() {
        let engine = Engine::with_config(EngineConfig {
            cache_capacity: 1,
            workers: Some(1),
        });
        let spec = ModelSpec::paper_table1();
        let req = EvalRequest::BerPoint {
            spec: spec.clone(),
            sj: None,
        };
        engine.evaluate(&req).unwrap();
        engine.evaluate(&req).unwrap();
        let obs = engine.obs();
        assert_eq!(obs.counter("gcco_engine_cache_misses_total").get(), 1);
        assert_eq!(obs.counter("gcco_engine_cache_hits_total").get(), 1);
        assert_eq!(obs.counter("gcco_engine_cache_builds_total").get(), 1);
        assert_eq!(
            obs.counter_with("gcco_engine_requests_total", "kind", "ber_point")
                .get(),
            2
        );
        assert_eq!(
            obs.histogram_with("gcco_engine_request_seconds", "kind", "ber_point")
                .count(),
            2
        );
        // A distinct spec into a capacity-1 cache evicts the incumbent.
        engine
            .evaluate(&EvalRequest::BerPoint {
                spec: spec.with_freq_offset(0.01),
                sj: None,
            })
            .unwrap();
        assert_eq!(obs.counter("gcco_engine_cache_evictions_total").get(), 1);
        // A tripped deadline is counted.
        let err = engine
            .evaluate_with_deadline(&req, DeadlineGuard::after_ms(0))
            .expect_err("zero deadline trips");
        assert_eq!(err.kind(), "deadline_exceeded");
        assert_eq!(obs.counter("gcco_engine_deadline_trips_total").get(), 1);
    }

    #[test]
    fn zero_deadline_trips_and_reports_budget() {
        let engine = Engine::with_config(EngineConfig {
            cache_capacity: 2,
            workers: Some(1),
        });
        let req = EvalRequest::BerGrid {
            spec: ModelSpec::paper_table1(),
            amps_pp: vec![0.1],
            freqs_norm: vec![0.1],
        };
        let err = engine
            .evaluate_with_deadline(&req, DeadlineGuard::after_ms(0))
            .expect_err("zero deadline must trip");
        assert_eq!(err, GccoError::DeadlineExceeded { deadline_ms: 0 });
        // And an unlimited guard still computes.
        assert!(engine.evaluate(&req).is_ok());
    }

    #[test]
    fn deadline_path_matches_unlimited_path() {
        let engine = Engine::with_config(EngineConfig {
            cache_capacity: 8,
            workers: Some(2),
        });
        let bang_bang = CdrArchKind::BangBang;
        let baseline = BaselineSpec {
            bits: 20_000,
            ..BaselineSpec::typical(bang_bang)
        };
        let requests = [
            EvalRequest::BerGrid {
                spec: ModelSpec::paper_table1(),
                amps_pp: vec![0.2, 0.8],
                freqs_norm: vec![0.01, 0.1, 0.4],
            },
            EvalRequest::JtolCurve {
                spec: ModelSpec::paper_table1(),
                freqs_norm: vec![0.01, 0.1],
                target_ber: 1e-12,
            },
            EvalRequest::PowerScan {
                scan: PowerScanSpec::paper_design(),
            },
            EvalRequest::MultiChannel {
                mc: MultiChannelSpec {
                    channels: 2,
                    ..MultiChannelSpec::paper_quad()
                },
            },
            EvalRequest::baseline(bang_bang, baseline, BaselineMetric::Track),
            EvalRequest::baseline(
                bang_bang,
                baseline,
                BaselineMetric::CaptureRange { hi: 0.1 },
            ),
            EvalRequest::baseline(
                bang_bang,
                baseline,
                BaselineMetric::JtolPoint { freq_norm: 0.01 },
            ),
        ];
        for (i, req) in requests.iter().enumerate() {
            let what = format!("request {i} ({})", req.kind());
            let free = engine.evaluate(req).unwrap();
            let timed = engine
                .evaluate_with_deadline(req, DeadlineGuard::after_ms(600_000))
                .unwrap();
            assert_eq!(
                free, timed,
                "{what}: deadline checks must not change values"
            );
            let err = engine
                .evaluate_with_deadline(req, DeadlineGuard::after_ms(0))
                .expect_err("zero deadline must trip");
            assert_eq!(
                err,
                GccoError::DeadlineExceeded { deadline_ms: 0 },
                "{what}"
            );
        }
    }

    #[test]
    fn ber_point_uses_the_cached_kernel() {
        let engine = Engine::with_config(EngineConfig {
            cache_capacity: 2,
            workers: Some(1),
        });
        let spec = ModelSpec::paper_table1();
        let resp = engine
            .evaluate(&EvalRequest::BerPoint {
                spec: spec.clone(),
                sj: Some(SjOverride {
                    amplitude_pp: 1.0,
                    freq_norm: 1e-4,
                }),
            })
            .unwrap();
        let ctx = engine.context_for(&spec).unwrap();
        let direct = ctx.ber_at_sj(Ui::new(1.0), 1e-4);
        assert_eq!(resp, EvalResponse::Scalar { value: direct });
        assert_eq!(engine.context_builds(), 1, "point + direct share a context");
    }

    #[test]
    fn store_errors_degrade_to_cache_only_evaluation() {
        use gcco_faults::{ScriptedFaults, When};
        use gcco_store::StoreConfig;

        let dir = std::env::temp_dir().join(format!(
            "gcco-engine-degrade-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // Script: the 1st append fails, and the 2nd value read fails
        // (gets are only consulted for keys the index actually holds, so
        // misses don't advance the get sequence).
        let faults = ScriptedFaults::new()
            .fail_append(When::Nth(0))
            .fail_get(When::Nth(1));
        let store =
            Store::open_with(&dir, StoreConfig::default().with_faults(Box::new(faults))).unwrap();
        let engine = Engine::with_config(EngineConfig {
            cache_capacity: 2,
            workers: Some(1),
        })
        .with_store(Arc::new(store));
        let reference = Engine::with_config(EngineConfig {
            cache_capacity: 2,
            workers: Some(1),
        });
        let req = EvalRequest::BerPoint {
            spec: ModelSpec::paper_table1(),
            sj: None,
        };
        let expected = reference.evaluate(&req).expect("reference");

        // 1: miss, compute, append fails → degraded but answered.
        // 2: miss (nothing journaled), compute, append lands.
        // 3: get #0 proceeds → a real store hit.
        // 4: get #1 fails → degraded, recompute, re-append heals the key.
        for _ in 0..4 {
            assert_eq!(
                engine.evaluate(&req).expect("every request answered"),
                expected,
                "degraded evaluation must stay bit-identical"
            );
        }
        let counter = |name: &str| engine.obs().counter(name).get();
        assert_eq!(counter("gcco_store_errors_total"), 2);
        assert_eq!(counter("gcco_store_degraded_total"), 2);
        assert_eq!(counter("gcco_store_hits_total"), 1);
        assert_eq!(counter("gcco_store_misses_total"), 2);
        assert_eq!(counter("gcco_store_appends_total"), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalid_spec_is_an_error_not_a_panic() {
        let engine = Engine::new();
        let req = EvalRequest::FtolSearch {
            spec: ModelSpec {
                freq_offset: 0.9,
                ..ModelSpec::paper_table1()
            },
            target_ber: 1e-12,
        };
        let err = engine.evaluate(&req).expect_err("must reject");
        assert_eq!(err.kind(), "invalid_spec");
    }

    #[test]
    fn out_of_range_rates_and_stage_delays_are_rejected_not_panics() {
        // Each value used to pass validation and then panic a worker in a
        // frequency or time conversion (or the gate model).
        let mut cases: Vec<(&str, EvalRequest)> = Vec::new();
        for rate in [1e300, 1e-300] {
            let arch = CdrArchKind::BangBang;
            let spec = BaselineSpec {
                bit_rate_gbps: rate,
                ..BaselineSpec::typical(arch)
            };
            cases.push((
                "bit_rate_gbps",
                EvalRequest::baseline(arch, spec, BaselineMetric::Track),
            ));
            let mc = MultiChannelSpec {
                bit_rate_gbps: rate,
                ..MultiChannelSpec::paper_quad()
            };
            cases.push(("bit_rate_gbps", EvalRequest::multi_channel(mc)));
            let scan = PowerScanSpec {
                bit_rate_gbps: rate,
                ..PowerScanSpec::paper_design()
            };
            cases.push(("bit_rate_gbps", EvalRequest::power_scan(scan)));
            let opt = OptimizeSpec {
                bit_rate_gbps: rate,
                ..OptimizeSpec::paper_flow()
            };
            cases.push(("bit_rate_gbps", EvalRequest::optimize(opt)));
        }
        for stage_delay_ps in [1e30, 1e-6] {
            let run = DsimRunSpec {
                stage_delay_ps,
                ..DsimRunSpec::paper_ring()
            };
            cases.push(("stage_delay_ps", EvalRequest::dsim_run(run)));
        }
        let engine = Engine::with_config(EngineConfig {
            cache_capacity: 2,
            workers: Some(1),
        });
        for (field, req) in cases {
            let err = req.validate().expect_err(field);
            assert_eq!(err.kind(), "invalid_spec", "{field}");
            assert!(err.detail().contains(field), "{field}: {}", err.detail());
            let err = engine.evaluate(&req).expect_err(field);
            assert_eq!(err.kind(), "invalid_spec", "{field}");
        }
    }

    #[test]
    fn oversized_jitter_grids_are_rejected_not_panics() {
        // The upper-end values used to pass validation and then, while the
        // context was built, panic a worker (SJ 1e308, grid step 1e-300 or
        // subnormal) or abort the whole process on a multi-GB allocation
        // (DJ 1e6, run length 4e9); run counts whose total wraps gave run
        // probabilities far above 1, and a count list of any length cost
        // BER time linear in it. Each case names the field it breaks.
        use crate::spec::RunDistSpec;
        let base = ModelSpec::paper_table1();
        let point = |f: &dyn Fn(&mut ModelSpec)| {
            let mut spec = base.clone();
            f(&mut spec);
            EvalRequest::ber_point(spec)
        };
        let sj_override = |amplitude_pp: f64| EvalRequest::BerPoint {
            spec: base.clone(),
            sj: Some(SjOverride {
                amplitude_pp,
                freq_norm: 0.1,
            }),
        };
        let grid = |a: f64| EvalRequest::ber_grid(base.clone(), vec![0.1, a], vec![0.1]);
        let geometric = |n: u32| point(&move |s| s.run_dist = RunDistSpec::Geometric(n));
        let counts = |c: Vec<u64>| point(&move |s| s.run_dist = RunDistSpec::Counts(c.clone()));
        let bad: Vec<(&str, EvalRequest)> = vec![
            ("sj_pp", point(&|s| s.sj_pp = -0.1)),
            ("sj_pp", point(&|s| s.sj_pp = 1.000_001e6)),
            ("sj_pp", point(&|s| s.sj_pp = 1e308)),
            ("sj.amplitude_pp", sj_override(-0.1)),
            ("sj.amplitude_pp", sj_override(1e308)),
            ("amps_pp", grid(-0.1)),
            ("amps_pp", grid(1e308)),
            ("dj_pp", point(&|s| s.dj_pp = -0.1)),
            ("dj_pp", point(&|s| s.dj_pp = 65.537)),
            ("dj_pp", point(&|s| s.dj_pp = 1e6)),
            ("grid_step", point(&|s| s.grid_step = 1e-300)),
            ("grid_step", point(&|s| s.grid_step = 0.011)),
            (
                "grid_step",
                point(&|s| {
                    s.dj_pp = 0.0;
                    s.grid_step = 5e-324;
                }),
            ),
            ("cid_max", point(&|s| s.cid_max = 0)),
            ("cid_max", point(&|s| s.cid_max = 1025)),
            ("cid_max", point(&|s| s.cid_max = 4_000_000_000)),
            ("max_len", geometric(0)),
            ("max_len", geometric(4_000_000_000)),
            ("counts", counts(vec![0, 0])),
            ("counts", counts(vec![0, u64::MAX, 2])),
            ("counts", counts(vec![1; 1026])),
        ];
        let engine = Engine::with_config(EngineConfig {
            cache_capacity: 2,
            workers: Some(1),
        });
        for (field, req) in &bad {
            let err = req.validate().expect_err(field);
            assert_eq!(err.kind(), "invalid_spec", "{field}");
            assert!(err.detail().contains(field), "{field}: {}", err.detail());
            let err = engine.evaluate(req).expect_err(field);
            assert_eq!(err.kind(), "invalid_spec", "{field}");
        }
        // The bounds themselves are accepted and evaluate.
        let edge = [
            point(&|s| s.sj_pp = 1e6),
            sj_override(1e6),
            grid(1e6),
            point(&|s| {
                s.dj_pp = 64.0;
                s.grid_step = 1.0 / 1024.0;
            }),
            point(&|s| {
                s.dj_pp = 0.0;
                s.grid_step = f64::MIN_POSITIVE;
            }),
            point(&|s| {
                s.cid_max = 1024;
                s.run_dist = RunDistSpec::Geometric(1024);
            }),
            counts(vec![1; 1025]),
        ];
        for req in &edge {
            req.validate().expect("in range");
            let bers = match engine.evaluate(req).expect("evaluates") {
                EvalResponse::Scalar { value } => vec![value],
                EvalResponse::Grid { rows } => rows.concat(),
                other => panic!("unexpected response {other:?}"),
            };
            assert!(bers.iter().all(|b| (0.0..=1.0).contains(b)), "{bers:?}");
        }
    }

    #[test]
    fn dsim_ring_oscillates_at_the_expected_period() {
        let engine = Engine::new();
        let resp = engine
            .evaluate(&EvalRequest::DsimRun {
                run: DsimRunSpec::paper_ring(),
            })
            .unwrap();
        match resp {
            EvalResponse::Dsim { run } => {
                // 4 stages × 50 ps per half-period ⇒ 400 ps period.
                assert!(
                    (run.period_ps_mean - 400.0).abs() < 1.0,
                    "period {} ps",
                    run.period_ps_mean
                );
                assert!(run.period_ps_rms < 1e-9, "noiseless ring");
                assert!(run.rising_edges > 200, "100 ns of 2.5 GHz");
                assert!(run.events > 0);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn dsim_is_deterministic_per_seed() {
        let engine = Engine::new();
        let run = DsimRunSpec {
            jitter_rel: 0.05,
            duration_ns: 50.0,
            ..DsimRunSpec::paper_ring()
        };
        let a = engine
            .evaluate(&EvalRequest::DsimRun { run: run.clone() })
            .unwrap();
        let b = engine
            .evaluate(&EvalRequest::DsimRun { run: run.clone() })
            .unwrap();
        assert_eq!(a, b, "same seed, same run");
        let c = engine
            .evaluate(&EvalRequest::DsimRun {
                run: DsimRunSpec { seed: 2, ..run },
            })
            .unwrap();
        assert_ne!(a, c, "different seed, different jittered run");
    }

    #[test]
    fn multi_channel_matches_direct_per_lane_evaluation() {
        let parallel = Engine::with_config(EngineConfig {
            cache_capacity: 8,
            workers: Some(2),
        });
        let serial = Engine::with_config(EngineConfig {
            cache_capacity: 8,
            workers: Some(1),
        });
        let mc = MultiChannelSpec::paper_quad();
        let req = EvalRequest::MultiChannel { mc: mc.clone() };
        let par = parallel.evaluate(&req).unwrap();
        let ser = serial.evaluate(&req).unwrap();
        assert_eq!(par, ser, "lane fan-out must not depend on worker count");
        let EvalResponse::MultiChannel {
            channels,
            worst_ber,
            yield_pct,
            mw_per_gbps,
            within_budget,
        } = par
        else {
            panic!("unexpected response shape");
        };
        assert_eq!(channels.len(), mc.channels as usize);
        for (i, (lane, out)) in mc.channel_specs().iter().zip(&channels).enumerate() {
            assert_eq!(out.index as usize, i);
            assert_eq!(out.freq_offset.to_bits(), lane.freq_offset.to_bits());
            let direct_ber = serial.context_for(lane).unwrap().ber();
            assert_eq!(out.ber.to_bits(), direct_ber.to_bits(), "lane {i} BER");
            let direct_settling = settling_time_ui(&lane.build().unwrap());
            assert_eq!(
                out.settling_ui.to_bits(),
                direct_settling.to_bits(),
                "lane {i} settling"
            );
        }
        let expected_worst = channels.iter().map(|c| c.ber).fold(0.0_f64, f64::max);
        assert_eq!(worst_ber.to_bits(), expected_worst.to_bits());
        let expected_yield = 100.0
            * channels.iter().filter(|c| c.ber <= mc.target_ber).count() as f64
            / channels.len() as f64;
        assert_eq!(yield_pct.to_bits(), expected_yield.to_bits());
        let mw = mw_per_gbps.expect("paper jitter budget is positive");
        assert!(mw > 0.0, "{mw}");
        assert_eq!(within_budget, mw < PAPER_MW_PER_GBPS_BUDGET);
    }

    #[test]
    fn multi_channel_deadline_path_matches_unlimited() {
        let engine = Engine::with_config(EngineConfig {
            cache_capacity: 8,
            workers: Some(2),
        });
        let req = EvalRequest::MultiChannel {
            mc: MultiChannelSpec {
                channels: 2,
                ..MultiChannelSpec::paper_quad()
            },
        };
        let free = engine.evaluate(&req).unwrap();
        let timed = engine
            .evaluate_with_deadline(&req, DeadlineGuard::after_ms(600_000))
            .unwrap();
        assert_eq!(free, timed, "guarded serial loop must not change values");
        let err = engine
            .evaluate_with_deadline(&req, DeadlineGuard::after_ms(0))
            .expect_err("zero deadline trips");
        assert_eq!(err, GccoError::DeadlineExceeded { deadline_ms: 0 });
    }

    #[test]
    fn power_scan_round_trips_the_sized_cell() {
        let engine = Engine::new();
        let resp = engine
            .evaluate(&EvalRequest::PowerScan {
                scan: PowerScanSpec::paper_design(),
            })
            .unwrap();
        match resp {
            EvalResponse::Power { sized, points } => {
                let sized = sized.expect("paper target reachable");
                let direct = size_for_jitter(
                    PhaseNoiseModel::Hajimiri { eta: 0.75 },
                    Voltage::from_volts(0.4),
                    Freq::from_gbps(2.5),
                    4,
                    5,
                    0.01,
                    Current::from_amps(0.01),
                )
                .expect("reachable");
                assert_eq!(sized.to_cell(), direct, "wire round-trip is exact");
                assert_eq!(points.len(), 25);
                assert!(points.windows(2).all(|w| w[0].iss_a < w[1].iss_a));
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn optimize_quick_flow_recovers_a_design_under_budget() {
        let engine = Engine::with_config(EngineConfig {
            cache_capacity: 8,
            workers: Some(2),
        });
        let opt = OptimizeSpec::quick_flow();
        let resp = engine
            .evaluate(&EvalRequest::Optimize { opt: opt.clone() })
            .unwrap();
        let EvalResponse::Optimize { out } = resp else {
            panic!("unexpected response shape");
        };
        assert!(out.converged, "quick flow must fit its probe cap");
        assert_eq!(out.store_hits, 0, "no store attached");
        assert_eq!(out.probes % 2, 0, "probes come in ± pairs");
        let best = out.best.expect("the paper environment is solvable");
        assert!(
            best.mw_per_gbps < opt.budget_mw_per_gbps,
            "{} mW/Gbit/s must beat the budget",
            best.mw_per_gbps
        );
        assert!(best.worst_ber <= opt.target_ber, "{}", best.worst_ber);
        assert!(best.margin >= opt.freq_margin);
        assert!(best.settling_ui > 0.0);
        // The recovered spec really is the evidence point: re-evaluating
        // it at the demonstrated margin reproduces a BER within target.
        let at_margin = ModelSpec {
            freq_offset: best.margin,
            ..best.spec.clone()
        };
        let direct = engine.evaluate(&EvalRequest::ber_point(at_margin)).unwrap();
        assert!(matches!(direct, EvalResponse::Scalar { value } if value <= opt.target_ber));
        // The run is accounted in the optimizer metrics.
        let counter = |name: &str| engine.obs().counter(name).get();
        assert_eq!(counter("gcco_opt_runs_total"), 1);
        assert_eq!(counter("gcco_opt_probes_total"), out.probes);
        assert!(counter("gcco_opt_probe_batches_total") > 0);
        assert_eq!(counter("gcco_opt_store_hits_total"), 0);
        assert_eq!(counter("gcco_opt_exhausted_total"), 0);
    }

    #[test]
    fn optimize_with_warm_store_replays_without_recomputing() {
        let dir = std::env::temp_dir().join(format!(
            "gcco-engine-opt-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let req = EvalRequest::Optimize {
            opt: OptimizeSpec::quick_flow(),
        };
        let run = || {
            let store = Arc::new(Store::open(&dir).unwrap());
            let engine = Engine::with_config(EngineConfig {
                cache_capacity: 8,
                workers: Some(1),
            })
            .with_store(store);
            let resp = engine.evaluate(&req).unwrap();
            let appends = engine.obs().counter("gcco_store_appends_total").get();
            let EvalResponse::Optimize { out } = resp else {
                panic!("unexpected response shape");
            };
            (out, appends)
        };
        let (cold, cold_appends) = run();
        assert_eq!(cold.store_hits, 0, "first run starts from nothing");
        assert_eq!(
            cold_appends, cold.probes,
            "every probe journals exactly once"
        );
        let (warm, warm_appends) = run();
        assert_eq!(
            warm.store_hits, warm.probes,
            "a fully warm store answers every probe"
        );
        assert_eq!(warm_appends, 0, "zero recomputed probes on replay");
        // Everything except the run-local hit count replays identically.
        assert_eq!(warm.best, cold.best);
        assert_eq!(warm.per_combo, cold.per_combo);
        assert_eq!(warm.probes, cold.probes);
        assert_eq!(warm.converged, cold.converged);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn optimize_counts_a_failed_store_read_as_a_recompute_not_a_hit() {
        use gcco_faults::{ScriptedFaults, When};
        use gcco_store::StoreConfig;

        let dir = std::env::temp_dir().join(format!(
            "gcco-engine-opt-failed-get-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let req = EvalRequest::Optimize {
            opt: OptimizeSpec::quick_flow(),
        };
        let engine = |store: Store| {
            Engine::with_config(EngineConfig {
                cache_capacity: 8,
                workers: Some(1),
            })
            .with_store(Arc::new(store))
        };
        // Journal every probe, then replay with the first value read
        // failing: that probe recomputes, the other 23 are store hits.
        engine(Store::open(&dir).unwrap()).evaluate(&req).unwrap();
        let faults = ScriptedFaults::new().fail_get(When::Nth(0));
        let warm = engine(
            Store::open_with(&dir, StoreConfig::default().with_faults(Box::new(faults))).unwrap(),
        );
        let EvalResponse::Optimize { out } = warm.evaluate(&req).unwrap() else {
            panic!("unexpected response shape");
        };
        let counter = |name: &str| warm.obs().counter(name).get();
        assert_eq!(out.store_hits, out.probes - 1);
        assert_eq!(out.store_hits, 23);
        assert_eq!(counter("gcco_opt_store_hits_total"), 23);
        assert_eq!(counter("gcco_store_hits_total"), 23);
        assert_eq!(counter("gcco_store_degraded_total"), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
