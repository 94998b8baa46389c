//! `gcco-router`: a sharded cluster front for `gcco-serve`.
//!
//! The router speaks the exact same line-delimited-JSON TCP protocol as
//! the backends it fronts, so every `gcco-serve` client mode (`demo`,
//! `send`, `metrics`, `shutdown`) works against a router unmodified. What
//! it adds is horizontal scale:
//!
//! * **Consistent hashing** — every envelope is placed on a hash ring by
//!   its [`EvalRequest::cache_key`] (FNV-1a-64 over the canonical key,
//!   with virtual nodes for spread), so identical requests always land on
//!   the same backend and its warm-context cache / store journal absorbs
//!   them. An incoming batch is split into one sub-batch per backend and
//!   each sub-batch is queued for a pool of dispatch threads. The threads
//!   start on demand, park between sub-batches and are reused, so a
//!   request wakes a thread instead of spawning one. At most
//!   [`MAX_IN_FLIGHT`] sub-batches are admitted at once, router-wide, and
//!   there are never more dispatch threads than that; a sub-batch over
//!   the bound is answered `queue_full`, as a full `gcco-serve` queue is.
//! * **Health checking** — a prober pings every backend on an interval;
//!   a failing backend is *ejected* (routes fall through to the next live
//!   backend on the ring) and *rejoins* automatically once it answers
//!   again.
//! * **Failover** — a sub-batch whose backend fails transport-level
//!   (through the full [`ConnectionPool::submit_batch_with_retry`]
//!   budget) is re-sent to the next live backend in ring order.
//!   Re-sending is safe because backends replay: responses are
//!   deterministic, bit-identical functions of the request through the
//!   cache and store tiers. A backend still answering `queue_full` when
//!   the budget runs out is busy, not dead: those lines are forwarded and
//!   the backend stays in the ring.
//! * **Pooled backend connections** — sub-batches travel over persistent
//!   connections, up to [`BACKEND_POOL_CAP`] idle ones per backend
//!   ([`ConnectionPool`]). A transport error or an ejection drops every
//!   idle connection to that backend.
//! * **Byte transparency** — backend response lines are parsed (to learn
//!   the outcome) and re-encoded with
//!   [`gcco_api::json::encode_parsed_result_line`], which is the identity
//!   on every line a backend emits — a batch routed through the cluster
//!   is byte-identical to the same batch against a single server, modulo
//!   completion order.
//!
//! What is **not** replicated: backend stores and caches. Each backend
//! owns the keys the ring assigns it; after a failover or a ring change
//! the substitute backend recomputes (or replays from its own store) and
//! the answer is bit-identical either way — replication would buy
//! latency, never correctness.
//!
//! The server side of the protocol — connections, commands, `metrics`,
//! shutdown and the handle — is `gcco-serve`'s own transport
//! ([`gcco_api::serve::start`]); the router plugs into it as a
//! [`Frontend`]. So observability mirrors `gcco-serve`: `{"cmd":"stats"}`
//! returns a one-line summary, `{"cmd":"metrics"}` the Prometheus-style
//! exposition of the router's own registry (`gcco_router_*` series,
//! per-backend request/latency/failover counters included).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gcco_api::json::{encode_parsed_result_line, encode_result_line, Envelope};
use gcco_api::serve::{client_roundtrip, start, ConnectionPool, Frontend, Handle, RetryPolicy};
use gcco_api::GccoError;
use gcco_obs::{Counter, Gauge, Registry};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How often the prober's sleep re-checks the shutdown flag.
const POLL: Duration = Duration::from_millis(25);

/// Most idle connections the router keeps open to one backend.
pub const BACKEND_POOL_CAP: usize = 8;

/// Most sub-batches the router admits at once, over all connections, and
/// so the most dispatch threads it runs: `gcco-serve`'s default queue
/// capacity. A sub-batch over the bound is answered `queue_full`, as a
/// full serve queue would.
pub const MAX_IN_FLIGHT: usize = 64;

/// Router tuning knobs.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Backend `gcco-serve` addresses. Must be non-empty.
    pub backends: Vec<SocketAddr>,
    /// Virtual nodes per backend on the hash ring — more nodes, smoother
    /// key spread.
    pub vnodes: usize,
    /// Health-probe period.
    pub probe_interval: Duration,
    /// Per-probe ping timeout.
    pub probe_timeout: Duration,
    /// Overall timeout for one sub-batch submission attempt.
    pub attempt_timeout: Duration,
    /// Retry budget used per backend before failing a sub-batch over.
    pub retry: RetryPolicy,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            backends: Vec::new(),
            vnodes: 64,
            probe_interval: Duration::from_millis(500),
            probe_timeout: Duration::from_secs(2),
            attempt_timeout: Duration::from_secs(120),
            retry: RetryPolicy::default(),
        }
    }
}

/// A consistent-hash ring over backend indices: each backend contributes
/// `vnodes` points (FNV-1a-64 of a stable label), and a key routes to the
/// first point clockwise from its own hash. Pure data — health is layered
/// on top by the router, so the ring never changes while backends flap
/// and a rejoined backend gets its original keys back.
#[derive(Clone, Debug)]
pub struct HashRing {
    /// Sorted (point, backend index) pairs.
    points: Vec<(u64, usize)>,
    backends: usize,
}

/// The ring's point hash: FNV-1a-64 pushed through a murmur3-style
/// 64-bit finalizer. Raw FNV of short, near-identical labels
/// (`backend-0/vnode-1`, `backend-0/vnode-2`, …) clusters badly in the
/// high bits the ring orders by — one backend ended up owning two thirds
/// of the key space; the avalanche step spreads the points uniformly.
fn ring_hash(bytes: &[u8]) -> u64 {
    let mut h = gcco_store::fnv1a_64(bytes);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

impl HashRing {
    /// A ring over `backends` backends with `vnodes` points each (both
    /// clamped to at least 1).
    pub fn new(backends: usize, vnodes: usize) -> HashRing {
        let backends = backends.max(1);
        let mut points = Vec::with_capacity(backends * vnodes.max(1));
        for b in 0..backends {
            for v in 0..vnodes.max(1) {
                points.push((ring_hash(format!("backend-{b}/vnode-{v}").as_bytes()), b));
            }
        }
        points.sort_unstable();
        HashRing { points, backends }
    }

    /// The backend a key routes to first.
    pub fn primary(&self, key: &str) -> usize {
        self.order(key)[0]
    }

    /// All backends in failover order for `key`: the primary first, then
    /// each subsequent *distinct* backend walking the ring clockwise —
    /// deterministic, and different keys spread their failover load over
    /// different substitutes.
    pub fn order(&self, key: &str) -> Vec<usize> {
        let h = ring_hash(key.as_bytes());
        let start = self.points.partition_point(|&(p, _)| p < h) % self.points.len();
        let mut out = Vec::with_capacity(self.backends);
        let mut seen = vec![false; self.backends];
        for i in 0..self.points.len() {
            let b = self.points[(start + i) % self.points.len()].1;
            if !seen[b] {
                seen[b] = true;
                out.push(b);
                if out.len() == self.backends {
                    break;
                }
            }
        }
        out
    }
}

/// One backend's routing state. `alive` is the prober's latest verdict;
/// the dispatch path also flips it off the moment a sub-batch spends its
/// retry budget there on transport failures, so routing reacts faster
/// than the probe period.
struct Backend {
    pool: ConnectionPool,
    alive: AtomicBool,
}

/// Pre-resolved router metric handles.
struct RouterObs {
    registry: Registry,
    requests_total: Arc<Counter>,
    failovers_total: Arc<Counter>,
    no_backend_total: Arc<Counter>,
    probe_failures_total: Arc<Counter>,
    ejections_total: Arc<Counter>,
    rejoins_total: Arc<Counter>,
    backends_alive: Arc<Gauge>,
    dispatch_threads: Arc<Gauge>,
}

impl RouterObs {
    fn new(registry: Registry) -> RouterObs {
        RouterObs {
            requests_total: registry.counter("gcco_router_requests_total"),
            failovers_total: registry.counter("gcco_router_failovers_total"),
            no_backend_total: registry.counter("gcco_router_no_backend_total"),
            probe_failures_total: registry.counter("gcco_router_probe_failures_total"),
            ejections_total: registry.counter("gcco_router_ejections_total"),
            rejoins_total: registry.counter("gcco_router_rejoins_total"),
            backends_alive: registry.gauge("gcco_router_backends_alive"),
            dispatch_threads: registry.gauge("gcco_router_dispatch_threads"),
            registry,
        }
    }
}

/// The part of one request line that goes to one backend.
struct SubBatch {
    backend: usize,
    envelopes: Vec<Envelope>,
    reply: mpsc::Sender<String>,
}

/// The dispatch pool's state, under the router's dispatch lock.
#[derive(Default)]
struct Dispatch {
    /// Admitted sub-batches no thread has taken yet.
    queue: VecDeque<SubBatch>,
    /// Sub-batches queued or dispatching, bounded by [`MAX_IN_FLIGHT`].
    admitted: usize,
    /// Live dispatch threads, counted from just before their spawn.
    threads: usize,
    /// Threads not holding a sub-batch: parked, or started and not yet
    /// at the queue.
    idle: usize,
}

/// `gcco-router`'s [`Frontend`]: splits each request line along the hash
/// ring and queues one sub-batch per backend for the dispatch threads.
pub struct Router {
    backends: Vec<Backend>,
    ring: HashRing,
    attempt_timeout: Duration,
    retry: RetryPolicy,
    probe_interval: Duration,
    probe_timeout: Duration,
    shutdown: AtomicBool,
    dispatch: Mutex<Dispatch>,
    dispatch_ready: Condvar,
    obs: RouterObs,
}

impl Router {
    fn alive_count(&self) -> usize {
        self.backends
            .iter()
            .filter(|b| b.alive.load(Ordering::SeqCst))
            .count()
    }

    /// Marks a backend dead (idempotent), counting the ejection only on
    /// the live→dead transition, and drops its idle connections.
    fn eject(&self, index: usize) {
        self.backends[index].pool.clear();
        if self.backends[index].alive.swap(false, Ordering::SeqCst) {
            self.obs.ejections_total.inc();
        }
        self.obs.backends_alive.set(self.alive_count() as i64);
    }

    /// One probe sweep: ping every backend, eject on failure, rejoin on
    /// success.
    fn probe_all(&self) {
        for (i, b) in self.backends.iter().enumerate() {
            // A fresh connection, not a pooled one: the probe checks that
            // the backend still accepts.
            let ok = client_roundtrip(&b.pool.addr(), "{\"cmd\":\"ping\"}", 1, self.probe_timeout)
                .is_ok();
            if ok {
                if !b.alive.swap(true, Ordering::SeqCst) {
                    self.obs.rejoins_total.inc();
                }
            } else {
                self.obs.probe_failures_total.inc();
                self.eject(i);
            }
        }
        self.obs.backends_alive.set(self.alive_count() as i64);
    }

    fn probe_loop(&self) {
        // Probe immediately so a backend that was down before the router
        // started is ejected before the first request, then on the
        // configured period (sleeping in POLL steps to stay responsive to
        // shutdown).
        loop {
            self.probe_all();
            let until = Instant::now() + self.probe_interval;
            while Instant::now() < until {
                if self.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(POLL.min(self.probe_interval));
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
        }
    }

    /// Dispatches one sub-batch, failing over through the backends in
    /// rotation order starting at `first` until one answers. Only
    /// transport-level exhaustion (`io`/`parse` after the full retry
    /// budget) moves on — anything a backend *answers* is the answer,
    /// `queue_full` included.
    fn dispatch_group(&self, first: usize, envs: &[Envelope], reply: &mpsc::Sender<String>) {
        let n = self.backends.len();
        let mut last_failure = String::new();
        let mut tried = 0usize;
        for offset in 0..n {
            let candidate = (first + offset) % n;
            // Skip known-dead substitutes; `first` itself is always tried
            // (it was the best choice at split time).
            if offset > 0 && !self.backends[candidate].alive.load(Ordering::SeqCst) {
                continue;
            }
            // Every candidate after the first is a failover.
            if tried > 0 {
                self.obs.failovers_total.inc();
            }
            tried += 1;
            let pool = &self.backends[candidate].pool;
            let label = pool.addr().to_string();
            self.obs
                .registry
                .counter_with("gcco_router_backend_requests_total", "backend", &label)
                .add(envs.len() as u64);
            let span = self
                .obs
                .registry
                .histogram_with("gcco_router_backend_seconds", "backend", &label)
                .span();
            match pool.submit_batch_with_retry(envs, self.attempt_timeout, &self.retry) {
                Ok(lines) => {
                    for line in lines {
                        let _ = reply.send(encode_parsed_result_line(&line));
                    }
                    return;
                }
                Err(GccoError::Io(detail)) | Err(GccoError::Parse(detail)) => {
                    drop(span);
                    self.eject(candidate);
                    last_failure = format!("{label}: {detail}");
                }
                // Not transport trouble (e.g. `duplicate_id`): answer
                // every envelope with it rather than hammering the next
                // backend with a batch that will fail the same way.
                Err(e) => {
                    for env in envs {
                        let _ = reply.send(encode_result_line(env.id, &Err(e.clone())));
                    }
                    return;
                }
            }
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
        }
        // Every candidate exhausted its budget: answer each envelope with
        // a structured transport error so the client's own retry layer can
        // decide — the router never leaves an envelope unanswered.
        self.obs.no_backend_total.add(envs.len() as u64);
        let err = GccoError::Io(format!(
            "no live backend answered (last failure: {last_failure})"
        ));
        for env in envs {
            let _ = reply.send(encode_result_line(env.id, &Err(err.clone())));
        }
    }

    fn lock_dispatch(&self) -> std::sync::MutexGuard<'_, Dispatch> {
        self.dispatch.lock().expect("dispatch lock poisoned")
    }

    /// Admits one sub-batch and queues it for a dispatch thread, starting
    /// one more thread when queued sub-batches outnumber the idle ones. A
    /// sub-batch past [`MAX_IN_FLIGHT`] is answered `queue_full` instead.
    fn admit(self: &Arc<Self>, sub: SubBatch) {
        let mut pool = self.lock_dispatch();
        if pool.admitted >= MAX_IN_FLIGHT {
            drop(pool);
            let full = Err(GccoError::QueueFull {
                capacity: MAX_IN_FLIGHT,
            });
            for env in &sub.envelopes {
                let _ = sub.reply.send(encode_result_line(env.id, &full));
            }
            return;
        }
        pool.admitted += 1;
        pool.queue.push_back(sub);
        // Every thread is idle or holds an admitted sub-batch, so starting
        // one only while `queue > idle` never takes `threads` past
        // `admitted`, nor so past `MAX_IN_FLIGHT`.
        let start = pool.queue.len() > pool.idle;
        if start {
            pool.threads += 1;
            pool.idle += 1;
            self.obs.dispatch_threads.inc();
        }
        drop(pool);
        self.dispatch_ready.notify_one();
        if start {
            self.start_dispatch_thread();
        }
    }

    fn start_dispatch_thread(self: &Arc<Self>) {
        let router = Arc::clone(self);
        let spawned = std::thread::Builder::new()
            .name("gcco-router-dispatch".to_string())
            .spawn(move || router.dispatch_loop());
        let Err(e) = spawned else { return };
        let mut pool = self.lock_dispatch();
        pool.threads -= 1;
        pool.idle -= 1;
        self.obs.dispatch_threads.dec();
        // A live thread drains the queue; with none, nothing would, so
        // answer what is queued rather than leave it unanswered.
        if pool.threads > 0 {
            return;
        }
        let stranded: Vec<SubBatch> = pool.queue.drain(..).collect();
        pool.admitted -= stranded.len();
        drop(pool);
        let err = Err(GccoError::Io(format!(
            "cannot start a dispatch thread: {e}"
        )));
        for sub in stranded {
            for env in &sub.envelopes {
                let _ = sub.reply.send(encode_result_line(env.id, &err));
            }
        }
    }

    /// A dispatch thread's body: take a queued sub-batch or park, until
    /// shutdown finds the queue empty.
    fn dispatch_loop(&self) {
        let mut pool = self.lock_dispatch();
        loop {
            if let Some(sub) = pool.queue.pop_front() {
                pool.idle -= 1;
                drop(pool);
                // A panicking dispatch still gives its slot back.
                let _ = panic::catch_unwind(AssertUnwindSafe(|| {
                    self.dispatch_group(sub.backend, &sub.envelopes, &sub.reply);
                }));
                // The connection's writer, which the transport joins, runs
                // until every clone of its sender is gone.
                drop(sub);
                pool = self.lock_dispatch();
                pool.admitted -= 1;
                pool.idle += 1;
            } else if self.shutdown.load(Ordering::SeqCst) {
                pool.threads -= 1;
                pool.idle -= 1;
                self.obs.dispatch_threads.dec();
                return;
            } else {
                pool = self
                    .dispatch_ready
                    .wait(pool)
                    .expect("dispatch lock poisoned");
            }
        }
    }
}

impl Frontend for Router {
    const NAME: &'static str = "gcco-router";

    /// Splits the envelopes into per-backend sub-batches along the ring
    /// (skipping ejected backends) and queues each for a dispatch thread,
    /// which forwards every response line.
    fn on_requests(self: &Arc<Self>, envelopes: Vec<Envelope>, reply: &mpsc::Sender<String>) {
        self.obs.requests_total.add(envelopes.len() as u64);
        let mut groups: HashMap<usize, Vec<Envelope>> = HashMap::new();
        for env in envelopes {
            let order = self.ring.order(&env.request.cache_key());
            let target = order
                .iter()
                .copied()
                .find(|&b| self.backends[b].alive.load(Ordering::SeqCst))
                // With every backend ejected, still try the primary: it
                // may have just come back, and the alternative is failing
                // without asking anyone.
                .unwrap_or(order[0]);
            groups.entry(target).or_default().push(env);
        }
        for (backend, envelopes) in groups {
            self.admit(SubBatch {
                backend,
                envelopes,
                reply: reply.clone(),
            });
        }
    }

    /// Cluster topology and routing counters.
    fn stats_fields(&self) -> String {
        format!(
            "\"backends\":{},\"backends_alive\":{},\
             \"requests_total\":{},\"failovers_total\":{},\"no_backend_total\":{},\
             \"ejections_total\":{},\"rejoins_total\":{},\"probe_failures_total\":{}",
            self.backends.len(),
            self.alive_count(),
            self.obs.requests_total.get(),
            self.obs.failovers_total.get(),
            self.obs.no_backend_total.get(),
            self.obs.ejections_total.get(),
            self.obs.rejoins_total.get(),
            self.obs.probe_failures_total.get(),
        )
    }

    /// The router's own `gcco_router_*` series.
    fn registry(&self) -> &Registry {
        &self.obs.registry
    }

    fn shutdown_flag(&self) -> &AtomicBool {
        &self.shutdown
    }

    /// Flips the shutdown flag under the dispatch lock and wakes the
    /// parked dispatch threads, which drain the queue and exit.
    fn request_shutdown(&self) -> bool {
        let pool = self.lock_dispatch();
        let already = self.shutdown.swap(true, Ordering::SeqCst);
        drop(pool);
        self.dispatch_ready.notify_all();
        already
    }
}

/// A running router. [`Handle::shutdown`] stops intake, delivers the
/// responses of in-flight sub-batches, and joins the accept, connection
/// and prober threads; merely dropping the handle does the same. The
/// dispatch threads are woken and exit once the queue is empty. Shutting
/// the router down does **not** shut its backends down.
pub type RouterHandle = Handle<Router>;

/// Binds the router and spawns its accept loop and health prober.
///
/// # Errors
///
/// [`GccoError::InvalidSpec`] when `config.backends` is empty,
/// [`GccoError::Io`] when the address cannot be bound.
pub fn route(config: &RouterConfig) -> Result<RouterHandle, GccoError> {
    if config.backends.is_empty() {
        return Err(GccoError::InvalidSpec(
            "router needs at least one backend".to_string(),
        ));
    }
    let listener = TcpListener::bind(&config.addr)?;
    let obs = RouterObs::new(Registry::new());
    obs.backends_alive.set(config.backends.len() as i64);
    let router = Arc::new(Router {
        backends: config
            .backends
            .iter()
            .map(|&addr| Backend {
                pool: ConnectionPool::new(addr, BACKEND_POOL_CAP),
                // Optimistic until the first probe sweep corrects it.
                alive: AtomicBool::new(true),
            })
            .collect(),
        ring: HashRing::new(config.backends.len(), config.vnodes),
        attempt_timeout: config.attempt_timeout,
        retry: config.retry.clone(),
        probe_interval: config.probe_interval,
        probe_timeout: config.probe_timeout,
        shutdown: AtomicBool::new(false),
        dispatch: Mutex::new(Dispatch::default()),
        dispatch_ready: Condvar::new(),
        obs,
    });
    let probe = Arc::clone(&router);
    let prober = std::thread::Builder::new()
        .name("gcco-router-probe".to_string())
        .spawn(move || probe.probe_loop())?;
    start(listener, router, vec![prober])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_deterministic_and_covers_every_backend() {
        let a = HashRing::new(4, 64);
        let b = HashRing::new(4, 64);
        for key in [
            "alpha",
            "beta",
            "gamma",
            "a-much-longer-cache-key|with|fields",
        ] {
            assert_eq!(a.primary(key), b.primary(key), "{key}");
            let order = a.order(key);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(
                sorted,
                vec![0, 1, 2, 3],
                "{key}: order must cover all backends"
            );
            assert_eq!(order[0], a.primary(key));
        }
    }

    #[test]
    fn ring_spreads_keys_across_backends() {
        let ring = HashRing::new(3, 64);
        let mut hits = [0usize; 3];
        for i in 0..600 {
            hits[ring.primary(&format!("key-{i}"))] += 1;
        }
        for (b, &n) in hits.iter().enumerate() {
            // A ruined ring sends everything to one backend; even a rough
            // spread keeps every backend well off zero for 600 keys.
            assert!(n > 60, "backend {b} got only {n}/600 keys: {hits:?}");
        }
    }

    #[test]
    fn ring_assignment_is_stable_under_vnode_count() {
        // Same backend count, same vnode count → identical assignment on
        // every run (no RandomState anywhere in the path).
        let ring = HashRing::new(2, 16);
        let assignments: Vec<usize> = (0..50)
            .map(|i| ring.primary(&format!("stable-{i}")))
            .collect();
        assert_eq!(
            assignments,
            (0..50)
                .map(|i| HashRing::new(2, 16).primary(&format!("stable-{i}")))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn router_refuses_an_empty_backend_list() {
        assert!(matches!(
            route(&RouterConfig::default()),
            Err(GccoError::InvalidSpec(_))
        ));
    }
}
