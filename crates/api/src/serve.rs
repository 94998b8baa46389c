//! `gcco-serve` internals: a line-delimited-JSON TCP evaluation service
//! on `std::net` alone — no async runtime, no serialization crate.
//!
//! ## Protocol
//!
//! One JSON document per line. Clients submit either a single envelope
//! `{"id":N,"v":2,"deadline_ms":M,"request":{...}}`, a batch
//! `{"batch":[envelope,...]}`, or a command `{"cmd":"ping"|"stats"|
//! "metrics"|"shutdown"}`. The server answers every envelope with exactly
//! one line, `{"id":N,"ok":{...}}` or `{"id":N,"err":{"kind":...,
//! "detail":...}}`, in completion order (ids are the correlation
//! mechanism, not ordering). Ids must be unique within a batch; a batch
//! that reuses an id is rejected whole with a `duplicate_id` error.
//!
//! The `"v"` field declares the envelope's protocol version (see
//! [`crate::json::PROTOCOL_VERSION`]): `2` is current and required. Any
//! other version — including `1` or an absent field, the pre-versioning
//! format whose deprecation window has closed — is rejected with a
//! structured `unsupported_version` error before the request payload is
//! even examined.
//!
//! A line the server cannot correlate to any envelope — malformed JSON,
//! an unknown command — is answered with an **id-less** error object
//! `{"err":{"kind":...,"detail":...}}`, never with a made-up id (an id
//! of 0 would collide with a legitimate envelope using `"id":0`).
//!
//! ## Observability
//!
//! Every hot path records into the engine's [`gcco_obs::Registry`]:
//! queue depth and wait time, responses by outcome kind, per-connection
//! request counts, `queue_full` rejections, plus the engine's own cache
//! and latency series. `{"cmd":"stats"}` returns a one-line JSON summary;
//! `{"cmd":"metrics"}` returns the full Prometheus-style text exposition
//! as a JSON string: `{"metrics":"# TYPE ...\n..."}`.
//!
//! ## Semantics
//!
//! * **Backpressure** — the request queue is bounded; a submission that
//!   finds it full is answered immediately with a `queue_full` error
//!   instead of blocking the connection.
//! * **Deadlines** — `deadline_ms` covers queue wait *plus* evaluation
//!   (the guard starts at enqueue). A tripped deadline fails that request
//!   with `deadline_exceeded`; the worker and server carry on.
//! * **Graceful drain** — shutdown stops intake (new requests get
//!   `shutting_down`) but every already-queued job is evaluated and its
//!   response delivered before the workers exit.
//!
//! ## Transport
//!
//! Written once for `gcco-serve` and `gcco-router`. [`start`] runs the
//! accept loop and one reader plus one writer thread per connection, and
//! answers the commands, unknown commands and malformed lines itself; a
//! [`Frontend`] supplies only what differs: what a request line's
//! envelopes do, the `stats` fields, the registry `metrics` renders, and
//! the shutdown flag. [`Handle`] is the running server for either.
//!
//! Every socket runs with `TCP_NODELAY` and sends each line (plus any
//! replies already queued behind it) in one write, so no reply waits on
//! the peer's delayed ACK. The accept loop blocks in `accept()` and is
//! woken at the first shutdown by one loopback connect. Clients talk
//! through [`LineConnection`], which [`ConnectionPool`] keeps open across
//! exchanges.

use crate::engine::{DeadlineGuard, Engine};
use crate::error::GccoError;
use crate::json::{
    check_unique_ids, encode_batch, encode_error_line, encode_result_line, json_string,
    parse_client_line, parse_result_line, ClientLine, Envelope, ResultLine,
};
use crate::request::{EvalRequest, EvalResponse};
use gcco_obs::{Counter, Gauge, Histogram, Registry};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serve tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Bounded queue capacity; submissions beyond it get `queue_full`.
    pub queue_capacity: usize,
    /// Evaluation worker threads draining the queue.
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_capacity: 64,
            workers: 2,
        }
    }
}

/// How often blocking reads and waits re-check the shutdown flag.
const POLL: Duration = Duration::from_millis(25);

/// How long a shutdown waits to connect to its own listener.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

struct Job {
    id: u64,
    guard: DeadlineGuard,
    request: EvalRequest,
    reply: mpsc::Sender<String>,
    enqueued_at: Instant,
}

/// Pre-resolved serve-layer metric handles (all living in the engine's
/// registry, so one `metrics` read covers the whole service).
struct ServeObs {
    registry: Registry,
    requests_total: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    queue_wait: Arc<Histogram>,
    queue_full_total: Arc<Counter>,
}

impl ServeObs {
    fn new(registry: Registry) -> ServeObs {
        ServeObs {
            requests_total: registry.counter("gcco_serve_requests_total"),
            queue_depth: registry.gauge("gcco_serve_queue_depth"),
            queue_wait: registry.histogram("gcco_serve_queue_wait_seconds"),
            queue_full_total: registry.counter("gcco_serve_queue_full_total"),
            registry,
        }
    }

    /// Counts one delivered envelope response by outcome kind
    /// (`ok` / the error's stable wire kind).
    fn count_outcome(&self, result: &Result<EvalResponse, GccoError>) {
        let outcome = match result {
            Ok(_) => "ok",
            Err(e) => e.kind(),
        };
        self.registry
            .counter_with("gcco_serve_responses_total", "outcome", outcome)
            .inc();
    }
}

/// `gcco-serve`'s [`Frontend`]: a bounded queue in front of the engine,
/// drained by the serve workers.
pub struct ServeFrontend {
    engine: Engine,
    queue: Mutex<VecDeque<Job>>,
    work_ready: Condvar,
    shutdown: AtomicBool,
    queue_capacity: usize,
    /// Threads draining the serve queue — distinct from the engine's own
    /// sweep-parallelism pool, and reported separately in `stats`.
    serve_workers: usize,
    obs: ServeObs,
}

impl ServeFrontend {
    /// Answers one envelope immediately (rejections and failures that
    /// never reach a worker), counting the outcome.
    fn answer(
        &self,
        id: u64,
        result: &Result<EvalResponse, GccoError>,
        reply: &mpsc::Sender<String>,
    ) {
        self.obs.count_outcome(result);
        let _ = reply.send(encode_result_line(id, result));
    }

    /// Enqueues one envelope, or answers it immediately on backpressure /
    /// shutdown. The deadline clock starts here, so queue wait counts.
    ///
    /// The shutdown check happens *under the queue lock* — the same lock
    /// the workers' exit decision holds. Checking the flag before taking
    /// the lock opened a race: a submit could observe `shutdown == false`,
    /// lose the CPU, and enqueue after the last worker saw an empty queue
    /// and exited, leaving the job accepted but never answered. With the
    /// check under the lock (and the flag only ever *set* under the same
    /// lock, see [`ServeFrontend::request_shutdown`]) every job enqueued
    /// while the flag read false is guaranteed to be drained.
    fn submit(&self, env: Envelope, reply: &mpsc::Sender<String>) {
        self.obs.requests_total.inc();
        let mut queue = self.queue.lock().expect("queue lock poisoned");
        if self.shutdown.load(Ordering::SeqCst) {
            drop(queue);
            self.answer(env.id, &Err(GccoError::ShuttingDown), reply);
            return;
        }
        if queue.len() >= self.queue_capacity {
            drop(queue);
            self.obs.queue_full_total.inc();
            self.answer(
                env.id,
                &Err(GccoError::QueueFull {
                    capacity: self.queue_capacity,
                }),
                reply,
            );
            return;
        }
        queue.push_back(Job {
            id: env.id,
            guard: DeadlineGuard::from_opt_ms(env.deadline_ms),
            request: env.request,
            reply: reply.clone(),
            enqueued_at: Instant::now(),
        });
        self.obs.queue_depth.inc();
        drop(queue);
        self.work_ready.notify_one();
    }

    /// Worker body: evaluate jobs until shutdown *and* the queue is dry —
    /// the drain guarantee.
    fn work(&self) {
        loop {
            let job = {
                let mut queue = self.queue.lock().expect("queue lock poisoned");
                loop {
                    if let Some(job) = queue.pop_front() {
                        break Some(job);
                    }
                    if self.shutdown.load(Ordering::SeqCst) {
                        break None;
                    }
                    let (q, _) = self
                        .work_ready
                        .wait_timeout(queue, POLL)
                        .expect("queue lock poisoned");
                    queue = q;
                }
            };
            let Some(job) = job else { return };
            self.obs.queue_depth.dec();
            self.obs
                .queue_wait
                .observe(job.enqueued_at.elapsed().as_secs_f64());
            let result = self.engine.evaluate_with_deadline(&job.request, job.guard);
            self.obs.count_outcome(&result);
            let _ = job.reply.send(encode_result_line(job.id, &result));
        }
    }
}

impl Frontend for ServeFrontend {
    const NAME: &'static str = "gcco-serve";

    fn on_requests(self: &Arc<Self>, envelopes: Vec<Envelope>, reply: &mpsc::Sender<String>) {
        for env in envelopes {
            self.submit(env, reply);
        }
    }

    /// Queue, cache and outcome series.
    fn stats_fields(&self) -> String {
        let queue_len = self.queue.lock().expect("queue lock poisoned").len();
        let reg = &self.obs.registry;
        let counter = |name: &str| reg.counter(name).get();
        format!(
            "\"queue_len\":{},\"queue_capacity\":{},\
             \"serve_workers\":{},\"engine_workers\":{},\
             \"context_builds\":{},\"cache_hits\":{},\"cache_misses\":{},\
             \"cache_evictions\":{},\"deadline_trips\":{},\"requests_total\":{},\
             \"responses_total\":{},\"responses_ok\":{},\"queue_full_total\":{}",
            queue_len,
            self.queue_capacity,
            self.serve_workers,
            self.engine.workers(),
            self.engine.context_builds(),
            counter("gcco_engine_cache_hits_total"),
            counter("gcco_engine_cache_misses_total"),
            counter("gcco_engine_cache_evictions_total"),
            counter("gcco_engine_deadline_trips_total"),
            self.obs.requests_total.get(),
            reg.counter_sum("gcco_serve_responses_total"),
            reg.counter_with("gcco_serve_responses_total", "outcome", "ok")
                .get(),
            self.obs.queue_full_total.get(),
        )
    }

    /// The engine's registry, so one `metrics` read covers the whole
    /// service.
    fn registry(&self) -> &Registry {
        &self.obs.registry
    }

    fn shutdown_flag(&self) -> &AtomicBool {
        &self.shutdown
    }

    /// Flips the shutdown flag under the queue lock and wakes the workers.
    ///
    /// Setting the flag under the same lock `ServeFrontend::submit`
    /// checks it under makes the drain proof two-state: a submit either
    /// ran before this (its job is in the queue, and workers only exit on
    /// empty-queue-with-flag-set, so it drains) or after (it observes the
    /// flag and answers `shutting_down`). There is no third interleaving.
    fn request_shutdown(&self) -> bool {
        let queue = self.queue.lock().expect("queue lock poisoned");
        let already = self.shutdown.swap(true, Ordering::SeqCst);
        drop(queue);
        self.work_ready.notify_all();
        already
    }
}

/// A running `gcco-serve`. [`Handle::shutdown`] is the explicit drain
/// path; merely dropping the handle also requests shutdown and joins
/// every thread (no leaks), draining queued work on the way out.
pub type ServerHandle = Handle<ServeFrontend>;

impl ServerHandle {
    /// The engine behind the service (e.g. for build-counter assertions).
    pub fn engine(&self) -> &Engine {
        &self.server.frontend.engine
    }
}

/// Binds the service and spawns its accept loop and worker pool.
///
/// # Errors
///
/// [`GccoError::Io`] when the address cannot be bound.
pub fn serve(config: &ServeConfig, engine: Engine) -> Result<ServerHandle, GccoError> {
    let listener = TcpListener::bind(&config.addr)?;
    let frontend = Arc::new(ServeFrontend {
        obs: ServeObs::new(engine.obs().clone()),
        engine,
        queue: Mutex::new(VecDeque::new()),
        work_ready: Condvar::new(),
        shutdown: AtomicBool::new(false),
        queue_capacity: config.queue_capacity.max(1),
        serve_workers: config.workers.max(1),
    });
    let mut workers = Vec::new();
    for i in 0..frontend.serve_workers {
        let frontend = Arc::clone(&frontend);
        workers.push(
            std::thread::Builder::new()
                .name(format!("gcco-serve-worker-{i}"))
                .spawn(move || frontend.work())?,
        );
    }
    start(listener, frontend, workers)
}

// ---------------------------------------------------------------------
// Transport (shared with gcco-router)
// ---------------------------------------------------------------------

/// What one line-protocol server does beyond the shared transport.
///
/// The transport reads each connection's lines, answers `ping`, `stats`,
/// `metrics` and `shutdown`, unknown commands and malformed lines itself,
/// and hands the envelopes of every request line to
/// [`Frontend::on_requests`].
pub trait Frontend: Send + Sync + 'static {
    /// The server's name (`gcco-serve`): it prefixes the transport's
    /// thread names and, with `_` for `-`, its connection series
    /// (`gcco_serve_connections_total`, `_active_connections`,
    /// `_connection_request_count`).
    const NAME: &'static str;

    /// Takes the envelopes of one request line. Each must be answered
    /// exactly once on `reply`, now or later from a thread holding a clone
    /// of it: the connection stays open until every clone is dropped.
    fn on_requests(self: &Arc<Self>, envelopes: Vec<Envelope>, reply: &mpsc::Sender<String>);

    /// The `{"cmd":"stats"}` fields ahead of the transport's
    /// `connections_total` and `active_connections`, as `"name":value`
    /// pairs.
    fn stats_fields(&self) -> String;

    /// The registry `{"cmd":"metrics"}` renders, which also holds the
    /// transport's connection series.
    fn registry(&self) -> &Registry;

    /// The flag that stops intake once set.
    fn shutdown_flag(&self) -> &AtomicBool;

    /// Sets the shutdown flag and returns whether it was already set.
    fn request_shutdown(&self) -> bool {
        self.shutdown_flag().swap(true, Ordering::SeqCst)
    }
}

/// One server's transport state, shared by its accept loop, its
/// connections and its [`Handle`].
struct Server<F> {
    frontend: Arc<F>,
    /// The listener's bound address, which the first shutdown connects to
    /// once to wake the blocking accept loop.
    local_addr: SocketAddr,
    connections_total: Arc<Counter>,
    active_connections: Arc<Gauge>,
    connection_requests: Arc<Histogram>,
}

impl<F: Frontend> Server<F> {
    fn is_shutting_down(&self) -> bool {
        self.frontend.shutdown_flag().load(Ordering::SeqCst)
    }

    /// Sets the frontend's shutdown flag and, on the first call, wakes the
    /// accept loop.
    fn request_shutdown(&self) {
        if !self.frontend.request_shutdown() {
            wake_listener(self.local_addr);
        }
    }

    fn handle_connection(&self, stream: TcpStream) {
        let Ok(write_half) = stream.try_clone() else {
            return;
        };
        self.connections_total.inc();
        self.active_connections.inc();
        let (reply_tx, reply_rx) = mpsc::channel::<String>();
        // The writer exits when every sender (the reader's and those the
        // frontend holds for work in flight) is gone, i.e. after all of
        // this connection's work has been answered.
        let writer = std::thread::Builder::new()
            .name(format!("{}-write", F::NAME))
            .spawn(move || write_replies(write_half, &reply_rx));
        let _ = stream.set_read_timeout(Some(POLL));
        let mut reader = BufReader::new(stream);
        let mut acc: Vec<u8> = Vec::new();
        let mut submitted: u64 = 0;
        loop {
            match reader.read_until(b'\n', &mut acc) {
                Ok(0) => break, // EOF
                Ok(_) => {
                    let at_eof = acc.last() != Some(&b'\n');
                    let line = String::from_utf8_lossy(&acc).trim().to_string();
                    acc.clear();
                    if !line.is_empty() {
                        submitted += self.handle_line(&line, &reply_tx);
                    }
                    if at_eof || self.is_shutting_down() {
                        break;
                    }
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    // Partial data (if any) stays in `acc`; just re-check
                    // the shutdown flag and keep reading.
                    if self.is_shutting_down() {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
        self.connection_requests.observe(submitted as f64);
        self.active_connections.dec();
        drop(reply_tx);
        if let Ok(writer) = writer {
            let _ = writer.join();
        }
    }

    /// Handles one client line and returns how many envelopes it submitted
    /// (0 for commands and rejected lines).
    fn handle_line(&self, line: &str, reply: &mpsc::Sender<String>) -> u64 {
        let answer = match parse_client_line(line) {
            Ok(ClientLine::Requests(envelopes)) => {
                let n = envelopes.len() as u64;
                self.frontend.on_requests(envelopes, reply);
                return n;
            }
            Ok(ClientLine::Command(cmd)) => match cmd.as_str() {
                "ping" => "{\"pong\":true}".to_string(),
                "stats" => format!(
                    "{{\"stats\":{{{},\"connections_total\":{},\"active_connections\":{}}}}}",
                    self.frontend.stats_fields(),
                    self.connections_total.get(),
                    self.active_connections.get(),
                ),
                "metrics" => format!(
                    "{{\"metrics\":{}}}",
                    json_string(&self.frontend.registry().render_prometheus())
                ),
                "shutdown" => {
                    // Flag first, ack second: a client that receives the
                    // acknowledgement must observe `is_shutting_down()`
                    // (the ack is its linearization point).
                    self.request_shutdown();
                    "{\"ok\":\"shutting_down\"}".to_string()
                }
                // Unknown commands carry no envelope id to answer on;
                // reply with the id-less error shape.
                other => {
                    encode_error_line(&GccoError::Parse(format!("unknown command \"{other}\"")))
                }
            },
            // No id is recoverable from a malformed (or duplicate-id)
            // line; answer with an id-less error object so the reply can
            // never be confused with a response to a real envelope.
            Err(e) => encode_error_line(&e),
        };
        let _ = reply.send(answer);
        0
    }
}

/// A running line-protocol server. [`Handle::shutdown`] stops intake,
/// lets the frontend drain the work it accepted, and joins every thread;
/// merely dropping the handle does the same, so a forgotten handle never
/// leaks a thread.
pub struct Handle<F: Frontend> {
    server: Arc<Server<F>>,
    threads: Vec<JoinHandle<()>>,
}

impl<F: Frontend> Handle<F> {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr
    }

    /// The frontend's metrics registry.
    pub fn obs(&self) -> &Registry {
        self.server.frontend.registry()
    }

    /// True once shutdown has been requested (locally or over the wire).
    pub fn is_shutting_down(&self) -> bool {
        self.server.is_shutting_down()
    }

    fn stop_and_join(&mut self) {
        self.server.request_shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Requests shutdown, drains the accepted work, and joins every
    /// thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Blocks until a wire `shutdown` command flips the flag, then drains
    /// and joins exactly like [`Handle::shutdown`].
    pub fn run_until_shutdown(self) {
        while !self.is_shutting_down() {
            std::thread::sleep(POLL);
        }
        self.shutdown();
    }
}

impl<F: Frontend> Drop for Handle<F> {
    /// After an explicit `shutdown` this is a no-op: the thread list is
    /// already empty.
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Serves `frontend` on `listener`: spawns the accept loop and returns
/// the handle that stops it and joins it together with the frontend's
/// own `threads`.
///
/// # Errors
///
/// [`GccoError::Io`] when the listener has no local address or the
/// accept thread cannot be spawned.
pub fn start<F: Frontend>(
    listener: TcpListener,
    frontend: Arc<F>,
    threads: Vec<JoinHandle<()>>,
) -> Result<Handle<F>, GccoError> {
    let prefix = F::NAME.replace('-', "_");
    let registry = frontend.registry();
    let server = Arc::new(Server {
        local_addr: listener.local_addr()?,
        connections_total: registry.counter(&format!("{prefix}_connections_total")),
        active_connections: registry.gauge(&format!("{prefix}_active_connections")),
        connection_requests: registry.histogram(&format!("{prefix}_connection_request_count")),
        frontend,
    });
    // Built before the accept thread, so a failed spawn still stops and
    // joins the frontend's threads.
    let mut handle = Handle {
        server: Arc::clone(&server),
        threads,
    };
    let accept = std::thread::Builder::new()
        .name(format!("{}-accept", F::NAME))
        .spawn(move || accept_connections(listener, &server))?;
    handle.threads.push(accept);
    Ok(handle)
}

/// Accepts connections until shutdown, serving each on its own thread
/// with `TCP_NODELAY` on, then joins every connection thread. The loop
/// blocks in `accept()`, so a connect is served the moment it lands;
/// [`Server::request_shutdown`] wakes it to see the flag.
fn accept_connections<F: Frontend>(listener: TcpListener, server: &Arc<Server<F>>) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        if server.is_shutting_down() {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                let server = Arc::clone(server);
                if let Ok(thread) = std::thread::Builder::new()
                    .name(format!("{}-conn", F::NAME))
                    .spawn(move || server.handle_connection(stream))
                {
                    connections.push(thread);
                }
            }
            // Out of descriptors and the like: back off, don't spin.
            Err(_) => std::thread::sleep(POLL),
        }
        connections.retain(|c| !c.is_finished());
    }
    // Connection threads observe the flag within one read timeout; their
    // writers flush every drained response before exiting.
    for c in connections {
        let _ = c.join();
    }
}

/// Wakes the [`accept_connections`] loop listening on `local` after its
/// shutdown flag was set: one throwaway connect, over loopback when the
/// listener is bound to an unspecified address.
fn wake_listener(local: SocketAddr) {
    let mut addr = local;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, WAKE_TIMEOUT);
}

/// A connection's writer loop: sends every reply queued on `replies` as
/// `line + "\n"`, folding replies already waiting into the same write.
/// Returns once every sender is gone or the peer stops reading.
fn write_replies(mut out: TcpStream, replies: &mpsc::Receiver<String>) {
    let mut buf = Vec::new();
    while let Ok(first) = replies.recv() {
        buf.clear();
        for line in std::iter::once(first).chain(replies.try_iter()) {
            buf.extend_from_slice(line.as_bytes());
            buf.push(b'\n');
        }
        if out.write_all(&buf).is_err() {
            return;
        }
    }
}

/// One persistent client connection speaking the line protocol:
/// `TCP_NODELAY`, each request line sent in a single write, replies read
/// line by line before a deadline. [`client_roundtrip`] and
/// [`submit_batch`] use a fresh one per call; [`ConnectionPool`] keeps
/// them open across calls.
pub struct LineConnection {
    reader: BufReader<TcpStream>,
    /// The bytes of a reply line read so far.
    partial: Vec<u8>,
    /// The peer closed its end.
    closed: bool,
}

impl LineConnection {
    /// Connects within `timeout`.
    ///
    /// # Errors
    ///
    /// [`GccoError::Io`] when the connect fails or times out.
    pub fn connect(addr: &SocketAddr, timeout: Duration) -> Result<LineConnection, GccoError> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(POLL))?;
        Ok(LineConnection {
            reader: BufReader::new(stream),
            partial: Vec::new(),
            closed: false,
        })
    }

    /// Sends one raw line and reads `expect` response lines within
    /// `timeout`. A final response delivered without a trailing newline
    /// right before the peer closes the connection still counts — the
    /// partial line is flushed at EOF before deciding between success and
    /// a closed-connection error.
    ///
    /// # Errors
    ///
    /// [`GccoError::Io`] on write failure, when the peer closes, or when
    /// the deadline passes before all expected lines arrive.
    pub fn exchange(
        &mut self,
        line: &str,
        expect: usize,
        timeout: Duration,
    ) -> Result<Vec<String>, GccoError> {
        let mut request = Vec::with_capacity(line.len() + 1);
        request.extend_from_slice(line.as_bytes());
        request.push(b'\n');
        self.reader.get_mut().write_all(&request)?;
        let deadline = Instant::now() + timeout;
        let mut lines = Vec::with_capacity(expect);
        while lines.len() < expect {
            if self.closed {
                return Err(GccoError::Io(format!(
                    "connection closed with {}/{expect} responses",
                    lines.len()
                )));
            }
            if Instant::now() >= deadline {
                return Err(GccoError::Io(format!(
                    "timed out with {}/{expect} responses",
                    lines.len()
                )));
            }
            match self.reader.read_until(b'\n', &mut self.partial) {
                Ok(n) => {
                    // `0` is EOF, which completes a final unterminated line.
                    self.closed = n == 0;
                    if self.closed || self.partial.last() == Some(&b'\n') {
                        let text = String::from_utf8_lossy(&self.partial).trim().to_string();
                        self.partial.clear();
                        if !text.is_empty() {
                            lines.push(text);
                        }
                    }
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(lines)
    }

    /// Submits the envelopes as one batch line and collects one response
    /// per envelope (any order), within `timeout`.
    ///
    /// # Errors
    ///
    /// As [`submit_batch`].
    pub fn submit_batch(
        &mut self,
        envelopes: &[Envelope],
        timeout: Duration,
    ) -> Result<Vec<ResultLine>, GccoError> {
        check_unique_ids(envelopes)?;
        self.exchange(&encode_batch(envelopes), envelopes.len(), timeout)?
            .iter()
            .map(|l| parse_result_line(l))
            .collect()
    }

    /// True when the last exchange left nothing behind — no partial or
    /// unread reply bytes, peer still connected — so the next exchange
    /// starts clean.
    pub fn is_idle(&self) -> bool {
        !self.closed && self.partial.is_empty() && self.reader.buffer().is_empty()
    }
}

/// Idle [`LineConnection`]s to one server, reused across batches so a
/// steady client pays the connect (and the server its connection-thread
/// spawn) once instead of per batch.
///
/// Reuse never changes what a batch is answered with: a connection goes
/// back to the pool only after an exchange whose ids passed the retry
/// audit and that left nothing buffered, and any transport error drops
/// every idle connection, since the server behind them is suspect.
pub struct ConnectionPool {
    addr: SocketAddr,
    cap: usize,
    idle: Mutex<Vec<LineConnection>>,
}

impl ConnectionPool {
    /// A pool to `addr` keeping at most `cap` idle connections; with
    /// `cap == 0` every attempt connects afresh.
    pub fn new(addr: SocketAddr, cap: usize) -> ConnectionPool {
        ConnectionPool {
            addr,
            cap,
            idle: Mutex::new(Vec::new()),
        }
    }

    /// The server this pool connects to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Drops every idle connection.
    pub fn clear(&self) {
        self.idle.lock().expect("pool lock poisoned").clear();
    }

    fn take(&self, timeout: Duration) -> Result<LineConnection, GccoError> {
        let pooled = self.idle.lock().expect("pool lock poisoned").pop();
        match pooled {
            Some(conn) => Ok(conn),
            None => LineConnection::connect(&self.addr, timeout),
        }
    }

    fn put(&self, conn: LineConnection) {
        let mut idle = self.idle.lock().expect("pool lock poisoned");
        if conn.is_idle() && idle.len() < self.cap {
            idle.push(conn);
        }
    }

    /// [`submit_batch_with_retry`] over this pool's connections, with the
    /// same retry, audit and ordering semantics: envelopes still rejected
    /// `queue_full` when the budget runs out come back with that answer,
    /// and only a budget spent on transport failures is an error.
    ///
    /// # Errors
    ///
    /// As [`submit_batch_with_retry`].
    pub fn submit_batch_with_retry(
        &self,
        envelopes: &[Envelope],
        timeout: Duration,
        policy: &RetryPolicy,
    ) -> Result<Vec<ResultLine>, GccoError> {
        check_unique_ids(envelopes)?;
        let mut rng = gcco_faults::SplitMix64::new(policy.seed);
        let mut pending: Vec<Envelope> = envelopes.to_vec();
        let mut done: HashMap<u64, ResultLine> = HashMap::new();
        let mut sleep = policy.base;
        let mut last_failure = String::new();
        let attempts = policy.attempts.max(1);
        for attempt in 1..=attempts {
            let exchanged = self.take(timeout).and_then(|mut conn| {
                let results = conn.submit_batch(&pending, timeout)?;
                Ok((conn, results))
            });
            match exchanged {
                // Audit the attempt's id mapping before consuming anything:
                // the returned ids must be exactly the pending ids, each
                // answered once. A parseable-but-mangled exchange (chaos
                // proxy, buggy middlebox, hostile server) that answers a
                // foreign id or the same id twice counts as a failed attempt
                // and leaves `pending`/`done` untouched — otherwise a foreign
                // id would pollute the result map while a real envelope goes
                // unanswered, and the final reassembly below would have no
                // line for it. Its connection is not reused.
                Ok((_, results)) if !ids_match_pending(&results, &pending) => {
                    last_failure = format!(
                        "response ids do not match the {} submitted envelopes",
                        pending.len()
                    );
                }
                Ok((conn, results)) => {
                    self.put(conn);
                    let mut rejected: HashSet<u64> = HashSet::new();
                    for line in results {
                        // The last attempt's `queue_full` is the answer: the
                        // server is busy, not unreachable.
                        if attempt < attempts
                            && matches!(&line.result, Err((kind, _)) if kind == "queue_full")
                        {
                            rejected.insert(line.id);
                        } else {
                            done.insert(line.id, line);
                        }
                    }
                    pending.retain(|env| rejected.contains(&env.id));
                    if pending.is_empty() {
                        let mut out = Vec::with_capacity(envelopes.len());
                        for env in envelopes {
                            // Unreachable by construction: every attempt's
                            // ids were audited against `pending` above, so
                            // the union of answered ids is exactly the
                            // input ids.
                            out.push(
                                done.remove(&env.id)
                                    .expect("audited attempt answered every id"),
                            );
                        }
                        return Ok(out);
                    }
                    last_failure = format!("{} envelopes rejected queue_full", pending.len());
                }
                // A transport failure may have lost responses for envelopes
                // the server *did* evaluate; re-sending them is safe because
                // the server replays bit-identically (see
                // `submit_batch_with_retry`).
                Err(e @ (GccoError::Io(_) | GccoError::Parse(_))) => {
                    self.clear();
                    last_failure = e.to_string();
                }
                Err(e) => return Err(e),
            }
            if attempt < attempts {
                std::thread::sleep(sleep);
                sleep = policy.next_sleep(&mut rng, sleep);
            }
        }
        Err(GccoError::Io(format!(
            "retry budget exhausted after {attempts} attempts with {} of {} envelopes unanswered \
             (last failure: {last_failure})",
            pending.len(),
            envelopes.len(),
        )))
    }
}

// ---------------------------------------------------------------------
// Client helpers (used by the binary's client modes, the CI smoke step,
// and the loopback test)
// ---------------------------------------------------------------------

/// Connects, submits the envelopes as one batch line, and collects one
/// response per envelope (any order), within `timeout` overall.
///
/// # Errors
///
/// [`GccoError::DuplicateId`] before anything is sent when the batch
/// reuses an id (the responses would be uncorrelatable),
/// [`GccoError::Io`] on connection/transport trouble or timeout,
/// [`GccoError::Parse`] when a response line is malformed.
pub fn submit_batch(
    addr: &SocketAddr,
    envelopes: &[Envelope],
    timeout: Duration,
) -> Result<Vec<ResultLine>, GccoError> {
    LineConnection::connect(addr, timeout)?.submit_batch(envelopes, timeout)
}

/// Backoff and budget knobs for [`submit_batch_with_retry`]: bounded
/// attempts with decorrelated-jitter exponential backoff — each sleep is
/// drawn uniformly from `[base, prev * 3]` and clamped to `cap` (the AWS
/// "decorrelated jitter" schedule), so concurrent retrying clients spread
/// out instead of thundering back in lockstep.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts, including the first (clamped to at least 1).
    pub attempts: u32,
    /// Smallest sleep between attempts and the jitter floor.
    pub base: Duration,
    /// Largest sleep between attempts.
    pub cap: Duration,
    /// Seed for the jitter stream. The default is fixed so test schedules
    /// reproduce; give each concurrent client its own seed to decorrelate.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 5,
            base: Duration::from_millis(25),
            cap: Duration::from_secs(1),
            seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl RetryPolicy {
    /// The next sleep: `min(cap, uniform(base, prev * 3))`, computed in
    /// whole microseconds with a 1 µs floor whenever `base > 0` — a
    /// sub-millisecond policy must still back off, never degrade into a
    /// zero-sleep hot spin. A `base` of zero keeps zero sleeps (an
    /// explicit no-backoff policy). When `cap < base` every sleep is
    /// exactly `cap`: the draw is at least `base`, and the clamp wins.
    fn next_sleep(&self, rng: &mut gcco_faults::SplitMix64, prev: Duration) -> Duration {
        let base = duration_to_micros(self.base);
        let hi = duration_to_micros(prev)
            .saturating_mul(3)
            .max(base.saturating_add(1));
        let mut us = rng.between(base, hi).min(duration_to_micros(self.cap));
        if us == 0 && self.base > Duration::ZERO {
            us = 1;
        }
        Duration::from_micros(us)
    }
}

/// Whole microseconds of `d`, saturating at `u64::MAX` (~584k years).
fn duration_to_micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// [`submit_batch`] wrapped in a retry loop, for transports that may
/// fault mid-exchange (see `gcco_faults::ChaosProxy`) and servers that
/// may shed load.
///
/// Retried: transport-level failures (`io` — connect refused/reset,
/// timeout, connection closed short; `parse` — a response line mangled in
/// flight), which re-send the *whole* outstanding batch; and per-envelope
/// `queue_full` rejections, which re-send only the rejected envelopes.
/// Everything else — `shutting_down`, `invalid_spec`, `duplicate_id`,
/// `deadline_exceeded`, evaluation errors — is a real answer and is
/// returned, never retried. So is a `queue_full` from the last attempt:
/// a server that answered every attempt is busy, not unreachable.
///
/// Re-sending is safe precisely because the server replays: responses are
/// deterministic functions of the request (bit-identical through the
/// engine's cache and store tiers), and duplicate work is absorbed as a
/// cache or store hit rather than recomputed state.
///
/// Results are returned in the order of `envelopes`, whatever order the
/// attempts delivered them in.
///
/// # Errors
///
/// [`GccoError::DuplicateId`] before anything is sent when the batch
/// reuses an id; [`GccoError::Io`] when the last attempt failed in
/// transport or in the id audit and left envelopes unanswered (carrying
/// its detail).
pub fn submit_batch_with_retry(
    addr: &SocketAddr,
    envelopes: &[Envelope],
    timeout: Duration,
    policy: &RetryPolicy,
) -> Result<Vec<ResultLine>, GccoError> {
    ConnectionPool::new(*addr, 0).submit_batch_with_retry(envelopes, timeout, policy)
}

/// True when `results` answers exactly the ids in `pending`, each once.
fn ids_match_pending(results: &[ResultLine], pending: &[Envelope]) -> bool {
    let mut unanswered: HashSet<u64> = pending.iter().map(|env| env.id).collect();
    results.len() == pending.len() && results.iter().all(|line| unanswered.remove(&line.id))
}

/// Connects, sends one raw line and reads `expect` response lines within
/// `timeout` ([`LineConnection::exchange`] on a fresh connection).
///
/// # Errors
///
/// [`GccoError::Io`] on connect/write failure or when the deadline passes
/// before all expected lines arrive.
pub fn client_roundtrip(
    addr: &SocketAddr,
    line: &str,
    expect: usize,
    timeout: Duration,
) -> Result<Vec<String>, GccoError> {
    LineConnection::connect(addr, timeout)?.exchange(line, expect, timeout)
}

/// Sends the `shutdown` command and waits for the acknowledgement line.
///
/// # Errors
///
/// [`GccoError::Io`] when the server cannot be reached in `timeout`.
pub fn send_shutdown(addr: &SocketAddr, timeout: Duration) -> Result<(), GccoError> {
    client_roundtrip(addr, "{\"cmd\":\"shutdown\"}", 1, timeout)?;
    Ok(())
}

/// Fetches the Prometheus-style metrics exposition over the wire
/// (`{"cmd":"metrics"}`) and returns the unescaped multi-line text.
///
/// # Errors
///
/// [`GccoError::Io`] on transport trouble, [`GccoError::Parse`] when the
/// reply is not the expected `{"metrics":"..."}` object.
pub fn fetch_metrics(addr: &SocketAddr, timeout: Duration) -> Result<String, GccoError> {
    let lines = client_roundtrip(addr, "{\"cmd\":\"metrics\"}", 1, timeout)?;
    let v = crate::json::Json::parse(&lines[0])?;
    Ok(v.field("metrics")?.as_str("metrics")?.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::request::DsimRunSpec;
    use std::sync::Barrier;

    fn shared_with_workers(workers: usize) -> (Arc<ServeFrontend>, Vec<JoinHandle<()>>) {
        let engine = Engine::with_config(EngineConfig {
            cache_capacity: 4,
            workers: Some(1),
        });
        let obs = ServeObs::new(engine.obs().clone());
        let shared = Arc::new(ServeFrontend {
            engine,
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            queue_capacity: 64,
            serve_workers: workers,
            obs,
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || shared.work())
            })
            .collect();
        (shared, handles)
    }

    /// A v1 envelope (explicit `"v":1` or the field-less pre-versioning
    /// shape) no longer reaches the queue: the wire gate rejects it with
    /// a structured version error. A v2 envelope still serves, with no
    /// advisory note attached.
    #[test]
    fn v1_envelopes_are_rejected_with_a_version_error() {
        let run = DsimRunSpec {
            seed: 1,
            stages: 4,
            stage_delay_ps: 50.0,
            jitter_rel: 0.0,
            duration_ns: 1.0,
        };
        let request = crate::json::encode_request(&EvalRequest::DsimRun { run: run.clone() });
        for line in [
            format!("{{\"id\":0,\"request\":{request}}}"),
            format!("{{\"id\":0,\"v\":1,\"request\":{request}}}"),
        ] {
            let err = parse_client_line(&line).expect_err("retired versions are rejected");
            assert!(
                matches!(err, GccoError::UnsupportedVersion { v: 1 }),
                "{line}: {err:?}"
            );
            // The id-less error line the connection answers with.
            assert!(
                encode_error_line(&err).contains("unsupported_version"),
                "{err:?}"
            );
        }

        let (shared, workers) = shared_with_workers(1);
        let (tx, rx) = mpsc::channel::<String>();
        shared.submit(
            Envelope {
                id: 1,
                v: Some(crate::json::PROTOCOL_VERSION),
                deadline_ms: None,
                request: EvalRequest::DsimRun { run },
            },
            &tx,
        );
        shared.request_shutdown();
        for w in workers {
            w.join().expect("worker panicked");
        }
        let parsed = parse_result_line(&rx.try_recv().expect("envelope answered")).unwrap();
        assert!(parsed.result.is_ok(), "current-version requests evaluate");
        assert_eq!(parsed.note, None, "responses carry no advisory note");
    }

    /// Regression for the submit-vs-shutdown race: `submit` used to check
    /// the shutdown flag *before* taking the queue lock, so a submitter
    /// could pass the check, stall, and enqueue after the last worker had
    /// already seen an empty queue and exited — an accepted envelope that
    /// was never answered. With the check (and the flag's only store)
    /// under the queue lock, every envelope gets exactly one reply: an
    /// evaluation result if it won the race, `shutting_down` if it lost.
    #[test]
    fn submit_racing_shutdown_always_answers() {
        const ITERATIONS: u64 = 1000;
        const SUBMITTERS: u64 = 4;
        for iter in 0..ITERATIONS {
            let (shared, workers) = shared_with_workers(2);
            let barrier = Arc::new(Barrier::new(SUBMITTERS as usize + 1));
            let mut receivers = Vec::new();
            let mut submitters = Vec::new();
            for id in 0..SUBMITTERS {
                let shared = Arc::clone(&shared);
                let barrier = Arc::clone(&barrier);
                let (tx, rx) = mpsc::channel::<String>();
                receivers.push(rx);
                submitters.push(std::thread::spawn(move || {
                    let env = Envelope {
                        id,
                        v: Some(crate::json::PROTOCOL_VERSION),
                        deadline_ms: None,
                        request: EvalRequest::DsimRun {
                            run: DsimRunSpec {
                                seed: iter,
                                stages: 4,
                                stage_delay_ps: 50.0,
                                jitter_rel: 0.0,
                                duration_ns: 1.0,
                            },
                        },
                    };
                    barrier.wait();
                    shared.submit(env, &tx);
                }));
            }
            let stopper = {
                let shared = Arc::clone(&shared);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    shared.request_shutdown();
                })
            };
            for t in submitters {
                t.join().expect("submitter panicked");
            }
            stopper.join().expect("stopper panicked");
            for w in workers {
                w.join().expect("worker panicked");
            }
            for (id, rx) in receivers.iter().enumerate() {
                let line = rx.try_recv().unwrap_or_else(|_| {
                    panic!("iteration {iter}: envelope {id} never answered — job lost to the race")
                });
                let parsed = parse_result_line(&line).expect("well-formed reply");
                assert_eq!(parsed.id, id as u64);
                assert!(
                    rx.try_recv().is_err(),
                    "iteration {iter}: envelope {id} answered more than once"
                );
            }
        }
    }

    /// Draws the full backoff schedule a retry loop would sleep, starting
    /// from `prev = base` exactly as `submit_batch_with_retry` does.
    fn schedule(policy: &RetryPolicy, steps: usize) -> Vec<Duration> {
        let mut rng = gcco_faults::SplitMix64::new(policy.seed);
        let mut prev = policy.base;
        let mut out = Vec::with_capacity(steps);
        for _ in 0..steps {
            prev = policy.next_sleep(&mut rng, prev);
            out.push(prev);
        }
        out
    }

    /// Regression for the sub-millisecond hot spin: `next_sleep` used to
    /// compute in whole milliseconds, so `base`, `cap`, and `prev` below
    /// 1 ms all truncated to 0 and every sleep in the schedule was zero —
    /// a retry loop that was supposed to back off for hundreds of
    /// microseconds instead spun flat out. Microsecond arithmetic keeps
    /// every sleep strictly positive for any `base > 0`.
    #[test]
    fn sub_millisecond_policy_never_sleeps_zero() {
        let policy = RetryPolicy {
            attempts: 16,
            base: Duration::from_micros(300),
            cap: Duration::from_micros(900),
            ..RetryPolicy::default()
        };
        for (i, sleep) in schedule(&policy, 64).iter().enumerate() {
            assert!(
                *sleep > Duration::ZERO,
                "step {i}: sub-ms policy degenerated into a zero sleep"
            );
            assert!(*sleep <= policy.cap, "step {i}: {sleep:?} exceeds cap");
            assert!(
                *sleep >= policy.base.min(policy.cap),
                "step {i}: {sleep:?} under floor"
            );
        }
    }

    /// The schedule is a pure function of the seed — two policies with the
    /// same knobs sleep the identical sequence, which is what lets chaos
    /// tests pin timing-sensitive scenarios.
    #[test]
    fn backoff_schedule_is_deterministic_and_bounded() {
        let policy = RetryPolicy::default();
        let a = schedule(&policy, 32);
        assert_eq!(a, schedule(&policy, 32));
        for (i, sleep) in a.iter().enumerate() {
            assert!(*sleep >= policy.base, "step {i}: {sleep:?} under base");
            assert!(*sleep <= policy.cap, "step {i}: {sleep:?} over cap");
        }
        assert!(
            a.iter().any(|s| *s > policy.base),
            "jitter never left the floor — the decorrelated draw is broken"
        );
    }

    /// `cap < base` edge: the uniform draw is always at least `base`, so
    /// the clamp wins and every sleep is exactly `cap` — still positive,
    /// never zero, never above the configured ceiling.
    #[test]
    fn cap_below_base_clamps_every_sleep_to_cap() {
        let policy = RetryPolicy {
            attempts: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(2),
            ..RetryPolicy::default()
        };
        for sleep in schedule(&policy, 16) {
            assert_eq!(sleep, policy.cap);
        }
    }

    /// `prev == 0` edge: a positive `base` recovers on the next draw (the
    /// uniform range is `[base, base + 1µs)` when `prev * 3 < base`), and
    /// an explicit zero-backoff policy (`base == 0`) keeps zero sleeps
    /// rather than being silently floored.
    #[test]
    fn zero_prev_and_zero_base_edges() {
        let positive = RetryPolicy {
            base: Duration::from_micros(250),
            ..RetryPolicy::default()
        };
        let mut rng = gcco_faults::SplitMix64::new(positive.seed);
        let next = positive.next_sleep(&mut rng, Duration::ZERO);
        assert!(
            next >= positive.base,
            "prev == 0 must not drag the draw under base"
        );

        let zero = RetryPolicy {
            base: Duration::ZERO,
            ..RetryPolicy::default()
        };
        let mut rng = gcco_faults::SplitMix64::new(zero.seed);
        assert_eq!(
            zero.next_sleep(&mut rng, Duration::ZERO),
            Duration::ZERO,
            "base == 0 is an explicit no-backoff policy, not a bug to floor away"
        );
    }

    /// The id audit behind `submit_batch_with_retry`: an attempt whose
    /// response ids drift from the submitted envelopes (foreign id,
    /// duplicated id, short or long count) is rejected wholesale.
    #[test]
    fn id_audit_rejects_foreign_duplicate_and_miscounted_ids() {
        let env = |id| Envelope {
            id,
            v: Some(crate::json::PROTOCOL_VERSION),
            deadline_ms: None,
            request: EvalRequest::DsimRun {
                run: DsimRunSpec {
                    seed: id,
                    stages: 4,
                    stage_delay_ps: 50.0,
                    jitter_rel: 0.0,
                    duration_ns: 1.0,
                },
            },
        };
        let line = |id| ResultLine {
            id,
            note: None,
            result: Err(("queue_full".into(), "test".into())),
        };
        let pending = [env(1), env(2)];
        assert!(ids_match_pending(&[line(1), line(2)], &pending));
        assert!(
            ids_match_pending(&[line(2), line(1)], &pending),
            "order is free"
        );
        assert!(
            !ids_match_pending(&[line(1), line(3)], &pending),
            "foreign id"
        );
        assert!(
            !ids_match_pending(&[line(1), line(1)], &pending),
            "duplicate id"
        );
        assert!(!ids_match_pending(&[line(1)], &pending), "short count");
        assert!(
            !ids_match_pending(&[line(1), line(2), line(2)], &pending),
            "long count"
        );
    }
}
