//! Cluster-level acceptance tests: a mixed batch routed over two
//! `gcco-serve` backends must be **byte-identical** to the same batch
//! against a single server — cold store, warm store, and with a backend
//! going dark mid-cluster (failover) — plus eject/rejoin health-checking
//! and the all-backends-dead error contract.
//!
//! Byte parity is asserted on the raw wire lines (sorted — completion
//! order across backends is the one legitimately nondeterministic thing),
//! which the exact f64 codec makes meaningful: any perturbation anywhere
//! in the route → split → forward → re-encode pipeline shows up as a
//! byte diff.

use gcco_api::json::{
    encode_batch, encode_error_line, encode_request, parse_client_line, parse_result_line,
    Envelope, Json, PROTOCOL_VERSION,
};
use gcco_api::serve::{
    client_roundtrip, serve, LineConnection, RetryPolicy, ServeConfig, ServerHandle,
};
use gcco_api::{
    DsimRunSpec, Engine, EvalRequest, GccoError, ModelSpec, MultiChannelSpec, PowerScanSpec,
    SjOverride,
};
use gcco_faults::{ChaosProxy, ConnFault, ProxyPlan};
use gcco_router::{route, RouterConfig, RouterHandle, BACKEND_POOL_CAP, MAX_IN_FLIGHT};
use gcco_store::Store;
use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(120);

/// A per-test scratch directory for backend stores.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gcco-cluster-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn backend() -> ServerHandle {
    serve(&ServeConfig::default(), Engine::new()).expect("backend binds")
}

fn backend_with_store(dir: &PathBuf) -> ServerHandle {
    let engine = Engine::new().with_store(Arc::new(Store::open(dir).expect("store opens")));
    serve(&ServeConfig::default(), engine).expect("backend binds")
}

fn router_over(backends: Vec<SocketAddr>) -> RouterHandle {
    route(&RouterConfig {
        backends,
        ..RouterConfig::default()
    })
    .expect("router binds")
}

fn envelope(id: u64, request: EvalRequest) -> Envelope {
    Envelope {
        id,
        v: Some(PROTOCOL_VERSION),
        deadline_ms: None,
        request,
    }
}

/// One envelope of every request kind, plus an SJ-override BER point —
/// the full wire surface.
fn mixed_batch() -> Vec<Envelope> {
    let spec = ModelSpec::paper_table1();
    let mut batch = vec![
        envelope(1, EvalRequest::ber_point_at(spec.clone(), 1.0, 1e-4)),
        envelope(
            2,
            EvalRequest::ber_grid(spec.clone(), vec![0.2, 0.6], vec![1e-3, 0.2]),
        ),
        envelope(
            3,
            EvalRequest::jtol_curve(spec.clone(), vec![1e-3, 0.3], 1e-12),
        ),
        envelope(4, EvalRequest::ftol_search(spec.clone(), 1e-12)),
        envelope(5, EvalRequest::power_scan(PowerScanSpec::paper_design())),
        envelope(6, EvalRequest::dsim_run(DsimRunSpec::paper_ring())),
        envelope(
            7,
            EvalRequest::multi_channel(MultiChannelSpec::paper_quad()),
        ),
    ];
    batch.push(envelope(
        8,
        EvalRequest::BerPoint {
            spec,
            sj: Some(SjOverride {
                amplitude_pp: 0.4,
                freq_norm: 0.01,
            }),
        },
    ));
    batch
}

/// Submits `batch` as one line and returns the raw response lines sorted
/// (ids make every line self-contained; order across backends is free).
fn raw_sorted(addr: &SocketAddr, batch: &[Envelope]) -> Vec<String> {
    let mut lines =
        client_roundtrip(addr, &encode_batch(batch), batch.len(), TIMEOUT).expect("batch answered");
    lines.sort_unstable();
    lines
}

/// Polls `get` until it returns true or the deadline passes.
fn wait_until(what: &str, get: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !get() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn mixed_batch_through_router_matches_single_server_cold_and_warm() {
    let (ref_dir, a_dir, b_dir) = (
        temp_dir("ref"),
        temp_dir("backend-a"),
        temp_dir("backend-b"),
    );
    let batch = mixed_batch();
    // Cold pass: every store is empty, everything computes.
    let reference = backend_with_store(&ref_dir);
    let a = backend_with_store(&a_dir);
    let b = backend_with_store(&b_dir);
    let router = router_over(vec![a.local_addr(), b.local_addr()]);
    let single_cold = raw_sorted(&reference.local_addr(), &batch);
    let routed_cold = raw_sorted(&router.local_addr(), &batch);
    assert_eq!(
        routed_cold, single_cold,
        "cold-store cluster run must be byte-identical to a single server"
    );
    // Both backends must have seen work: the ring splits an 8-envelope
    // batch rather than funneling everything to one shard.
    let backend_requests = router
        .obs()
        .counter_sum("gcco_router_backend_requests_total");
    assert_eq!(backend_requests, batch.len() as u64);
    for handle in [&a, &b] {
        assert!(
            handle.obs().counter("gcco_serve_requests_total").get() > 0,
            "the ring must spread the batch over both backends"
        );
    }
    // Warm pass: same processes, same stores — replies now come from the
    // warm-context caches and store journals, still byte-identical.
    let single_warm = raw_sorted(&reference.local_addr(), &batch);
    let routed_warm = raw_sorted(&router.local_addr(), &batch);
    assert_eq!(single_warm, single_cold, "single-server replay drifted");
    assert_eq!(
        routed_warm, single_cold,
        "warm-store cluster run must be byte-identical to a single server"
    );
    router.shutdown();
    a.shutdown();
    b.shutdown();
    reference.shutdown();
    for dir in [ref_dir, a_dir, b_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn router_fails_a_sub_batch_over_when_its_backend_goes_dark() {
    let reference = backend();
    let a = backend();
    let b = backend();
    // Backend B sits behind a chaos proxy that lets the router's startup
    // probe through (connection 0) and resets every connection after it —
    // from the router's side, B answers its health check and then drops
    // dead mid-cluster.
    let mut plan = vec![ConnFault::Reset; 16];
    plan[0] = ConnFault::None;
    let proxy = ChaosProxy::spawn(b.local_addr(), ProxyPlan::Cycle(plan)).expect("proxy binds");
    let router = route(&RouterConfig {
        backends: vec![a.local_addr(), proxy.local_addr()],
        // One initial sweep only: this test exercises the dispatch-path
        // failover, not the prober.
        probe_interval: Duration::from_secs(3600),
        attempt_timeout: Duration::from_secs(5),
        retry: RetryPolicy {
            attempts: 2,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(50),
            ..RetryPolicy::default()
        },
        ..RouterConfig::default()
    })
    .expect("router binds");
    // Don't submit until the startup probe has burned connection 0 —
    // otherwise the sub-batch would slip through the fault-free slot.
    wait_until("startup probe to reach backend B", || {
        proxy.connections() >= 1
    });
    let batch = mixed_batch();
    let routed = raw_sorted(&router.local_addr(), &batch);
    let single = raw_sorted(&reference.local_addr(), &batch);
    assert_eq!(
        routed, single,
        "batch surviving a dark backend must still be byte-identical"
    );
    let counter = |name: &str| router.obs().counter(name).get();
    assert!(
        counter("gcco_router_failovers_total") >= 1,
        "the dark backend's sub-batch must have failed over"
    );
    assert!(counter("gcco_router_ejections_total") >= 1);
    assert_eq!(
        router.obs().gauge("gcco_router_backends_alive").get(),
        1,
        "the dark backend must be ejected"
    );
    router.shutdown();
    proxy.shutdown();
    a.shutdown();
    b.shutdown();
    reference.shutdown();
}

#[test]
fn prober_ejects_a_dead_backend_and_rejoins_it() {
    let a = backend();
    let b = backend();
    let b_addr = b.local_addr();
    let router = route(&RouterConfig {
        backends: vec![a.local_addr(), b_addr],
        probe_interval: Duration::from_millis(50),
        attempt_timeout: Duration::from_secs(5),
        retry: RetryPolicy {
            attempts: 2,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(50),
            ..RetryPolicy::default()
        },
        ..RouterConfig::default()
    })
    .expect("router binds");
    let alive = || router.obs().gauge("gcco_router_backends_alive").get();
    wait_until("both backends probed alive", || alive() == 2);
    // Traffic to both backends leaves pooled connections to B behind.
    let batch = mixed_batch();
    assert!(raw_sorted(&router.local_addr(), &batch)
        .iter()
        .all(|l| l.contains("\"ok\":")));
    // Kill B: the prober must eject it, and traffic must keep flowing.
    b.shutdown();
    wait_until("dead backend ejection", || alive() == 1);
    assert!(
        router
            .obs()
            .counter("gcco_router_probe_failures_total")
            .get()
            >= 1
    );
    let lines = raw_sorted(&router.local_addr(), &batch);
    assert_eq!(lines.len(), batch.len());
    assert!(
        lines.iter().all(|l| l.contains("\"ok\":")),
        "with B ejected every envelope must still be answered from A: {lines:?}"
    );
    // Resurrect a backend on B's old address: the prober must rejoin it.
    // (Rebinding a just-released local port can transiently fail; retry.)
    let resurrected = {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match serve(
                &ServeConfig {
                    addr: b_addr.to_string(),
                    ..ServeConfig::default()
                },
                Engine::new(),
            ) {
                Ok(handle) => break handle,
                Err(e) => {
                    assert!(Instant::now() < deadline, "could not rebind {b_addr}: {e}");
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    };
    wait_until("backend rejoin", || alive() == 2);
    assert!(router.obs().counter("gcco_router_rejoins_total").get() >= 1);
    // The connections pooled to the old B died with it. The rejoined B
    // must be reached afresh, not through a stale connection that burns
    // the retry budget and fails the sub-batch over.
    let failovers = router.obs().counter("gcco_router_failovers_total").get();
    let lines = raw_sorted(&router.local_addr(), &batch);
    assert!(
        lines.iter().all(|l| l.contains("\"ok\":")),
        "after the rejoin every envelope must be answered: {lines:?}"
    );
    assert!(
        resurrected.obs().counter("gcco_serve_requests_total").get() > 0,
        "the rejoined backend must take its keys back"
    );
    assert_eq!(
        router.obs().counter("gcco_router_failovers_total").get(),
        failovers,
        "no sub-batch may fail over after the rejoin"
    );
    router.shutdown();
    resurrected.shutdown();
    a.shutdown();
}

#[test]
fn all_backends_dead_answers_every_envelope_with_a_structured_error() {
    // A port that was bound and released: connections are refused.
    let dead_addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind probe port");
        listener.local_addr().expect("addr")
    };
    let router = route(&RouterConfig {
        backends: vec![dead_addr],
        attempt_timeout: Duration::from_secs(2),
        retry: RetryPolicy {
            attempts: 2,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(10),
            ..RetryPolicy::default()
        },
        ..RouterConfig::default()
    })
    .expect("router binds");
    let batch: Vec<Envelope> = (0..3)
        .map(|i| envelope(10 + i, EvalRequest::dsim_run(DsimRunSpec::paper_ring())))
        .collect();
    let lines = raw_sorted(&router.local_addr(), &batch);
    assert_eq!(lines.len(), 3, "no envelope may go unanswered");
    for (i, line) in lines.iter().enumerate() {
        assert!(
            line.contains(&format!("\"id\":{}", 10 + i)),
            "every error must carry its envelope's id: {line}"
        );
        assert!(
            line.contains("\"kind\":\"io_error\""),
            "dead-cluster answers must be structured io errors: {line}"
        );
    }
    assert_eq!(
        router.obs().counter("gcco_router_no_backend_total").get(),
        3
    );
    router.shutdown();
}

/// Sends `script` on a fresh connection, closes the sending side, and
/// returns everything the server wrote before closing its own.
fn raw_session(addr: &SocketAddr, script: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(TIMEOUT))
        .expect("read timeout");
    stream.write_all(script.as_bytes()).expect("write script");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read to EOF");
    out
}

/// The id-less error line a server answers an unparseable `line` with.
fn error_reply(line: &str) -> String {
    let err = parse_client_line(line).expect_err("the line must be rejected");
    format!("{}\n", encode_error_line(&err))
}

#[test]
fn router_speaks_the_serve_command_protocol() {
    let a = backend();
    let router = router_over(vec![a.local_addr()]);
    let servers = [("serve", a.local_addr()), ("route", router.local_addr())];
    let ping = "{\"cmd\":\"ping\"}";
    let pong = "{\"pong\":true}\n".to_string();
    let unknown = "{\"cmd\":\"reboot\"}";
    let malformed = "{\"batch\":[";
    let env = envelope(5, EvalRequest::dsim_run(DsimRunSpec::paper_ring()));
    let v1 = format!(
        "{{\"id\":5,\"v\":1,\"request\":{}}}",
        encode_request(&env.request)
    );
    let duplicate = encode_batch(&[env.clone(), env]);
    let cases: [(&str, String, String); 7] = [
        ("ping", format!("{ping}\n"), pong.clone()),
        (
            "unknown command",
            format!("{unknown}\n"),
            format!(
                "{}\n",
                encode_error_line(&GccoError::Parse("unknown command \"reboot\"".into()))
            ),
        ),
        (
            "malformed JSON",
            format!("{malformed}\n"),
            error_reply(malformed),
        ),
        (
            "duplicate ids",
            format!("{duplicate}\n"),
            error_reply(&duplicate),
        ),
        ("v1 envelope", format!("{v1}\n"), error_reply(&v1)),
        ("blank lines", format!("\n  \n{ping}\n"), pong.clone()),
        ("no final newline", ping.to_string(), pong),
    ];
    for (case, script, expected) in &cases {
        for (server, addr) in servers {
            assert_eq!(&raw_session(&addr, script), expected, "{server}: {case}");
        }
    }
    for (server, addr) in servers {
        let reply = |line: &str| {
            let lines = client_roundtrip(&addr, line, 1, TIMEOUT).expect("command answered");
            Json::parse(&lines[0]).expect("reply is JSON")
        };
        let stats = reply("{\"cmd\":\"stats\"}");
        assert!(matches!(stats.field("stats"), Ok(Json::Obj(_))), "{server}");
        let metrics = reply("{\"cmd\":\"metrics\"}");
        assert!(
            matches!(metrics.field("metrics"), Ok(Json::Str(_))),
            "{server}"
        );
    }
    let stats =
        client_roundtrip(&router.local_addr(), "{\"cmd\":\"stats\"}", 1, TIMEOUT).expect("stats");
    assert!(stats[0].contains("\"backends\":1"), "{}", stats[0]);
    // gcco-serve's own metrics client works against a router unmodified.
    let metrics = gcco_api::serve::fetch_metrics(&router.local_addr(), TIMEOUT).expect("metrics");
    for series in [
        "gcco_router_requests_total",
        "gcco_router_connections_total",
        "gcco_router_connection_request_count",
    ] {
        assert!(
            metrics.contains(series),
            "router metrics must expose {series}"
        );
    }
    // Wire shutdown stops the router (run_until_shutdown would return) —
    // and must not shut the backend down.
    gcco_api::serve::send_shutdown(&router.local_addr(), TIMEOUT).expect("shutdown ack");
    assert!(router.is_shutting_down(), "the ack follows the flag");
    router.shutdown();
    let still_up =
        client_roundtrip(&a.local_addr(), "{\"cmd\":\"ping\"}", 1, TIMEOUT).expect("backend ping");
    assert_eq!(still_up, vec!["{\"pong\":true}".to_string()]);
    a.shutdown();
}

/// Regression for the router's shutdown race (fixed in gcco-serve
/// earlier): the router used to send its acknowledgement *before* setting
/// the flag, so a client holding the ack could still see a live router.
#[test]
fn router_shutdown_ack_follows_the_flag() {
    let a = backend();
    for _ in 0..20 {
        let router = router_over(vec![a.local_addr()]);
        gcco_api::serve::send_shutdown(&router.local_addr(), TIMEOUT).expect("shutdown ack");
        assert!(
            router.is_shutting_down(),
            "a client holding the ack must observe the shutdown"
        );
        router.shutdown();
    }
    a.shutdown();
}

/// Regression for the delayed-ACK stall, through the router: 50 pings on
/// one persistent connection took ~2 s when replies went out as two
/// writes with Nagle on.
#[test]
fn sequential_pings_through_the_router_do_not_wait_on_delayed_acks() {
    let a = backend();
    let router = router_over(vec![a.local_addr()]);
    let mut conn = LineConnection::connect(&router.local_addr(), TIMEOUT).expect("connect");
    let start = Instant::now();
    for _ in 0..50 {
        let pong = conn
            .exchange("{\"cmd\":\"ping\"}", 1, TIMEOUT)
            .expect("pong");
        assert_eq!(pong, ["{\"pong\":true}"]);
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "50 pings took {elapsed:?}"
    );
    router.shutdown();
    a.shutdown();
}

/// Dropping an idle router returns promptly: shutdown wakes the blocking
/// accept with one loopback connect.
#[test]
fn dropping_an_idle_router_wakes_the_blocking_accept() {
    let a = backend();
    let router = router_over(vec![a.local_addr()]);
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let dropper = std::thread::spawn(move || {
        drop(router);
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(1))
        .expect("dropping the router must not hang on the blocked accept");
    dropper.join().expect("dropper thread");
    a.shutdown();
}

/// Sequential batches reuse the router's pooled backend connections: the
/// backend sees at most the pool cap of new connections, not one per
/// batch as when every sub-batch connected afresh.
#[test]
fn sequential_batches_reuse_pooled_backend_connections() {
    let a = backend();
    let router = route(&RouterConfig {
        backends: vec![a.local_addr()],
        // Only the startup probe: later probes would add connections.
        probe_interval: Duration::from_secs(3600),
        ..RouterConfig::default()
    })
    .expect("router binds");
    let connections = || a.obs().counter("gcco_serve_connections_total").get();
    wait_until("startup probe", || connections() >= 1);
    let before = connections();
    let mut client = LineConnection::connect(&router.local_addr(), TIMEOUT).expect("connect");
    for i in 0..20 {
        let batch = [envelope(
            i,
            EvalRequest::ber_point_at(ModelSpec::paper_table1(), 0.1 * i as f64, 1e-4),
        )];
        let lines = client
            .submit_batch(&batch, TIMEOUT)
            .expect("batch answered");
        assert!(lines[0].result.is_ok(), "batch {i}: {:?}", lines[0].result);
    }
    let opened = connections() - before;
    assert!(
        opened <= BACKEND_POOL_CAP as u64,
        "20 batches opened {opened} backend connections"
    );
    router.shutdown();
    a.shutdown();
}

/// A short `dsim_run` with its own seed (about 5 ms in release).
fn short_dsim(id: u64) -> Envelope {
    envelope(
        id,
        EvalRequest::dsim_run(DsimRunSpec {
            seed: id,
            duration_ns: 2000.0,
            ..DsimRunSpec::paper_ring()
        }),
    )
}

/// Regression for unbounded router threads: 200 pipelined lines used to
/// spawn a thread per line plus one per sub-batch, about 400 at peak.
/// Now at most `MAX_IN_FLIGHT` sub-batches dispatch at once, the rest are
/// answered `queue_full` by the router, and the backend stays in the
/// ring.
#[test]
fn pipelined_lines_beyond_the_in_flight_bound_get_queue_full() {
    const LINES: u64 = 200;
    // A backend queue deeper than the script: every `queue_full` below
    // is the router's bound, not the backend's.
    let a = serve(
        &ServeConfig {
            workers: 1,
            queue_capacity: LINES as usize,
            ..ServeConfig::default()
        },
        Engine::new(),
    )
    .expect("backend binds");
    let router = router_over(vec![a.local_addr()]);
    let script: Vec<String> = (0..LINES).map(|i| encode_batch(&[short_dsim(i)])).collect();
    let mut conn = LineConnection::connect(&router.local_addr(), TIMEOUT).expect("connect");
    let replies = conn
        .exchange(&script.join("\n"), LINES as usize, TIMEOUT)
        .expect("every line answered");
    let mut ids = HashSet::new();
    let mut queue_full = 0;
    for reply in &replies {
        let line = parse_result_line(reply).expect("a result line");
        assert!(ids.insert(line.id), "id {} answered twice", line.id);
        match &line.result {
            Ok(_) => {}
            Err((kind, detail)) if kind == "queue_full" => {
                assert!(detail.contains(&MAX_IN_FLIGHT.to_string()), "{detail}");
                queue_full += 1;
            }
            Err(other) => panic!("id {}: {other:?}", line.id),
        }
    }
    assert_eq!(ids, (0..LINES).collect::<HashSet<_>>());
    // Nothing is left to arrive: the next reply is the ping's.
    assert_eq!(
        conn.exchange("{\"cmd\":\"ping\"}", 1, TIMEOUT)
            .expect("pong"),
        ["{\"pong\":true}"]
    );
    assert!(queue_full >= 1, "200 pipelined lines must exceed the bound");
    assert_eq!(router.obs().counter("gcco_router_ejections_total").get(), 0);
    router.shutdown();
    a.shutdown();
}

/// Regression for ejecting a busy backend: a sub-batch whose backend
/// still answered `queue_full` when the retry budget ran out used to
/// count as transport failure, so the router ejected a healthy backend
/// and answered `io_error` "no live backend answered".
#[test]
fn a_busy_backend_answers_queue_full_and_is_not_ejected() {
    let a = serve(
        &ServeConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServeConfig::default()
        },
        Engine::new(),
    )
    .expect("backend binds");
    let router = route(&RouterConfig {
        backends: vec![a.local_addr()],
        retry: RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        },
        ..RouterConfig::default()
    })
    .expect("router binds");
    let slow = |id| {
        envelope(
            id,
            EvalRequest::dsim_run(DsimRunSpec {
                seed: id,
                duration_ns: 100_000.0,
                ..DsimRunSpec::paper_ring()
            }),
        )
    };
    let wedge = [slow(1), slow(2)];
    let addr = a.local_addr();
    let wedger = std::thread::spawn(move || {
        gcco_api::serve::submit_batch(&addr, &wedge, TIMEOUT).expect("wedge answered")
    });
    // Both wedge envelopes are in: the worker is busy with the first, and
    // the second holds the one queue slot (or was bounced, leaving one).
    wait_until("wedge submitted", || {
        a.obs().counter("gcco_serve_requests_total").get() >= 2
    });
    let batch: Vec<Envelope> = (10..13).map(short_dsim).collect();
    let lines = raw_sorted(&router.local_addr(), &batch);
    assert!(
        lines.iter().any(|l| l.contains("\"kind\":\"queue_full\"")),
        "a busy backend answers queue_full: {lines:?}"
    );
    assert!(
        lines.iter().all(|l| !l.contains("io_error")),
        "a busy backend is not a dead one: {lines:?}"
    );
    assert_eq!(router.obs().counter("gcco_router_ejections_total").get(), 0);
    wedger.join().expect("wedger");
    router.shutdown();
    a.shutdown();
}
