//! TCP loopback tests for `gcco-serve`'s server core: mixed concurrent
//! batches, per-request deadlines that fail without killing the server,
//! backpressure, and the graceful shutdown drain.

use gcco_api::json::{encode_batch, Envelope, PROTOCOL_VERSION};
use gcco_api::serve::{
    client_roundtrip, send_shutdown, serve, submit_batch, LineConnection, ServeConfig,
};
use gcco_api::{
    BaselineMetric, BaselineSpec, CdrArchKind, DsimRunSpec, Engine, EvalRequest, EvalResponse,
    ModelSpec, PowerScanSpec, SjOverride,
};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(120);

fn mixed_requests() -> Vec<EvalRequest> {
    let spec = ModelSpec::paper_table1();
    vec![
        EvalRequest::BerPoint {
            spec: spec.clone(),
            sj: None,
        },
        EvalRequest::BerPoint {
            spec: spec.clone(),
            sj: Some(SjOverride {
                amplitude_pp: 1.0,
                freq_norm: 0.4,
            }),
        },
        EvalRequest::BerGrid {
            spec: spec.clone(),
            amps_pp: vec![0.2, 0.8],
            freqs_norm: vec![0.01, 0.3],
        },
        EvalRequest::JtolCurve {
            spec: spec.clone(),
            freqs_norm: vec![0.1, 0.4],
            target_ber: 1e-12,
        },
        EvalRequest::FtolSearch {
            spec,
            target_ber: 1e-12,
        },
        EvalRequest::PowerScan {
            scan: PowerScanSpec::paper_design(),
        },
        EvalRequest::DsimRun {
            run: DsimRunSpec::paper_ring(),
        },
        EvalRequest::BerPoint {
            spec: ModelSpec::paper_table1().with_freq_offset(100e-6),
            sj: None,
        },
    ]
}

#[test]
fn concurrent_mixed_batch_round_trips() {
    let handle = serve(&ServeConfig::default(), Engine::new()).expect("bind loopback");
    let addr = handle.local_addr();

    // Two client threads, each submitting the full mixed batch (8
    // requests each, 16 concurrent total) on its own connection.
    let clients: Vec<_> = (0..2)
        .map(|c| {
            std::thread::spawn(move || {
                let envelopes: Vec<Envelope> = mixed_requests()
                    .into_iter()
                    .enumerate()
                    .map(|(i, request)| Envelope {
                        id: (c * 100 + i) as u64,
                        v: Some(PROTOCOL_VERSION),
                        deadline_ms: None,
                        request,
                    })
                    .collect();
                submit_batch(&addr, &envelopes, TIMEOUT).expect("batch round-trips")
            })
        })
        .collect();
    for (c, client) in clients.into_iter().enumerate() {
        let results = client.join().expect("client thread");
        assert_eq!(results.len(), 8);
        let ids: HashSet<u64> = results.iter().map(|r| r.id).collect();
        assert_eq!(ids.len(), 8, "every id answered exactly once");
        for r in results {
            let resp = r
                .result
                .unwrap_or_else(|e| panic!("client {c} id {} failed: {e:?}", r.id));
            match (r.id % 100, resp) {
                (0 | 1 | 7, EvalResponse::Scalar { .. })
                | (2, EvalResponse::Grid { .. })
                | (3, EvalResponse::Jtol { .. })
                | (4, EvalResponse::Ftol { .. })
                | (5, EvalResponse::Power { .. })
                | (6, EvalResponse::Dsim { .. }) => {}
                (i, other) => panic!("request {i} got {:?}", other.kind()),
            }
        }
    }
    // Both clients submitted the same specs: the shared engine must not
    // have built more contexts than distinct cache keys (2).
    assert!(
        handle.engine().context_builds() <= 2,
        "context cache must be shared across connections, built {}",
        handle.engine().context_builds()
    );
    handle.shutdown();
}

#[test]
fn tripped_deadline_fails_the_request_not_the_server() {
    let handle = serve(&ServeConfig::default(), Engine::new()).expect("bind loopback");
    let addr = handle.local_addr();

    let spec = ModelSpec::paper_table1();
    let envelopes = [
        Envelope {
            id: 1,
            v: Some(PROTOCOL_VERSION),
            // A deadline of 0 ms is guaranteed already expired at enqueue.
            deadline_ms: Some(0),
            request: EvalRequest::BerGrid {
                spec: spec.clone(),
                amps_pp: vec![0.2, 0.8],
                freqs_norm: vec![0.01, 0.3],
            },
        },
        Envelope {
            id: 2,
            v: Some(PROTOCOL_VERSION),
            deadline_ms: None,
            request: EvalRequest::BerPoint { spec, sj: None },
        },
    ];
    let results = submit_batch(&addr, &envelopes, TIMEOUT).expect("batch round-trips");
    assert_eq!(results.len(), 2);
    for r in results {
        match r.id {
            1 => {
                let (kind, _) = r.result.expect_err("0 ms deadline must trip");
                assert_eq!(kind, "deadline_exceeded");
            }
            2 => {
                r.result.expect("undeadlined request survives");
            }
            other => panic!("unexpected id {other}"),
        }
    }

    // The server is still alive and serving after the deadline error.
    let pong = client_roundtrip(&addr, "{\"cmd\":\"ping\"}", 1, TIMEOUT).expect("still serving");
    assert_eq!(pong, ["{\"pong\":true}"]);
    handle.shutdown();
}

#[test]
fn overflow_gets_queue_full_and_malformed_lines_get_parse_errors() {
    // One slow worker and a tiny queue force backpressure deterministically.
    let config = ServeConfig {
        queue_capacity: 1,
        workers: 1,
        ..ServeConfig::default()
    };
    let handle = serve(&config, Engine::new()).expect("bind loopback");
    let addr = handle.local_addr();

    let envelopes: Vec<Envelope> = (0..6)
        .map(|i| Envelope {
            id: i,
            v: Some(PROTOCOL_VERSION),
            deadline_ms: None,
            request: EvalRequest::JtolCurve {
                spec: ModelSpec::paper_table1(),
                freqs_norm: vec![0.01, 0.1, 0.3],
                target_ber: 1e-12,
            },
        })
        .collect();
    let results = submit_batch(&addr, &envelopes, TIMEOUT).expect("all answered");
    assert_eq!(results.len(), 6);
    let full = results
        .iter()
        .filter(|r| matches!(&r.result, Err((kind, _)) if kind == "queue_full"))
        .count();
    let ok = results.iter().filter(|r| r.result.is_ok()).count();
    assert_eq!(ok + full, 6);
    assert!(
        full >= 1,
        "six instant submissions into a 1-deep queue with one worker must overflow"
    );
    assert!(ok >= 1, "the worker must still drain accepted work");

    let err = client_roundtrip(&addr, "this is not json", 1, TIMEOUT).expect("answered");
    assert!(err[0].contains("\"kind\":\"parse_error\""), "{}", err[0]);
    // Uncorrelatable lines are answered with the id-less error shape —
    // never a fabricated id that could collide with a real envelope's.
    assert!(err[0].starts_with("{\"err\":"), "{}", err[0]);
    assert!(!err[0].contains("\"id\""), "{}", err[0]);
    let err = client_roundtrip(&addr, "{\"cmd\":\"frobnicate\"}", 1, TIMEOUT).expect("answered");
    assert!(err[0].starts_with("{\"err\":"), "{}", err[0]);
    assert!(!err[0].contains("\"id\""), "{}", err[0]);
    assert!(err[0].contains("frobnicate"), "{}", err[0]);
    handle.shutdown();
}

/// Regression: a bit rate of 1e300 Gbit/s used to pass validation and
/// panic the worker in its frequency conversion, so the line was never
/// answered, and with one worker no later line was either.
#[test]
fn an_out_of_range_rate_is_refused_and_the_worker_keeps_serving() {
    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let handle = serve(&config, Engine::new()).expect("bind loopback");
    let addr = handle.local_addr();
    let timeout = Duration::from_secs(20);
    let arch = CdrArchKind::BangBang;
    let track = |id: u64, bit_rate_gbps: f64| Envelope {
        id,
        v: Some(PROTOCOL_VERSION),
        deadline_ms: None,
        request: EvalRequest::baseline(
            arch,
            BaselineSpec {
                bits: 1_000,
                bit_rate_gbps,
                ..BaselineSpec::typical(arch)
            },
            BaselineMetric::Track,
        ),
    };

    let bad = submit_batch(&addr, &[track(1, 1e300)], timeout).expect("the bad line is answered");
    let (kind, detail) = bad[0].result.clone().expect_err("1e300 Gbit/s is refused");
    assert_eq!(kind, "invalid_spec");
    assert!(detail.contains("bit_rate_gbps"), "{detail}");

    let good = submit_batch(&addr, &[track(2, 2.5)], timeout).expect("the next line is answered");
    assert!(good[0].result.is_ok(), "{:?}", good[0].result);
    handle.shutdown();
}

#[test]
fn an_oversized_jitter_grid_is_refused_and_the_worker_keeps_serving() {
    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let handle = serve(&config, Engine::new()).expect("bind loopback");
    let addr = handle.local_addr();
    let timeout = Duration::from_secs(20);
    let point = |id: u64, sj_pp: f64| Envelope {
        id,
        v: Some(PROTOCOL_VERSION),
        deadline_ms: None,
        request: EvalRequest::ber_point(ModelSpec {
            sj_pp,
            ..ModelSpec::paper_table1()
        }),
    };

    // SJ 1e308 UIpp used to pass validation and then panic the only
    // worker while it built the jitter grid.
    let bad = submit_batch(&addr, &[point(1, 1e308)], timeout).expect("the bad line is answered");
    let (kind, detail) = bad[0].result.clone().expect_err("1e308 UIpp is refused");
    assert_eq!(kind, "invalid_spec");
    assert!(detail.contains("sj_pp"), "{detail}");

    let good = submit_batch(&addr, &[point(2, 0.0)], timeout).expect("the next line is answered");
    assert!(good[0].result.is_ok(), "{:?}", good[0].result);
    handle.shutdown();
}

#[test]
fn duplicate_batch_ids_are_rejected_before_any_evaluation() {
    let handle = serve(&ServeConfig::default(), Engine::new()).expect("bind loopback");
    let addr = handle.local_addr();

    let env = |id: u64| Envelope {
        id,
        v: Some(PROTOCOL_VERSION),
        deadline_ms: None,
        request: EvalRequest::BerPoint {
            spec: ModelSpec::paper_table1(),
            sj: None,
        },
    };

    // Client-side: submit_batch refuses to send an uncorrelatable batch.
    let err = submit_batch(&addr, &[env(3), env(3)], TIMEOUT).expect_err("duplicate ids");
    assert_eq!(err, gcco_api::GccoError::DuplicateId { id: 3 });

    // Wire-side: a raw duplicate-id batch line is rejected whole with the
    // id-less error (answering on either id would be ambiguous).
    let raw = encode_batch(&[env(3), env(3)]);
    let reply = client_roundtrip(&addr, &raw, 1, TIMEOUT).expect("answered");
    assert!(reply[0].starts_with("{\"err\":"), "{}", reply[0]);
    assert!(
        reply[0].contains("\"kind\":\"duplicate_id\""),
        "{}",
        reply[0]
    );
    assert!(!reply[0].contains("\"id\""), "{}", reply[0]);

    // Nothing was evaluated or enqueued; the server still serves.
    let results = submit_batch(&addr, &[env(1), env(2)], TIMEOUT).expect("distinct ids fine");
    assert_eq!(results.len(), 2);
    assert!(results.iter().all(|r| r.result.is_ok()));
    handle.shutdown();
}

#[test]
fn dropping_the_handle_shuts_down_and_joins_instead_of_leaking() {
    let addr;
    {
        let handle = serve(&ServeConfig::default(), Engine::new()).expect("bind loopback");
        addr = handle.local_addr();
        // Prove it is live, then drop without calling shutdown().
        let pong = client_roundtrip(&addr, "{\"cmd\":\"ping\"}", 1, TIMEOUT).expect("live");
        assert_eq!(pong, ["{\"pong\":true}"]);
    }
    // Drop returned, so the accept/worker threads joined. The listener is
    // gone with them: a fresh round-trip must now fail (connection refused
    // or closed before a response arrives).
    assert!(
        client_roundtrip(&addr, "{\"cmd\":\"ping\"}", 1, Duration::from_secs(2)).is_err(),
        "dropped server must stop serving"
    );
}

#[test]
fn client_roundtrip_keeps_final_response_without_trailing_newline() {
    // A peer that flushes its last line and closes without the trailing
    // newline: the partial line must be counted at EOF, not dropped.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut line = String::new();
        BufReader::new(stream.try_clone().expect("clone"))
            .read_line(&mut line)
            .expect("request line");
        stream
            .write_all(b"{\"pong\":true}") // no trailing newline
            .and_then(|()| stream.flush())
            .expect("reply");
        // Dropping the stream closes the connection right after the flush.
    });
    let lines = client_roundtrip(&addr, "{\"cmd\":\"ping\"}", 1, TIMEOUT).expect("flushed at EOF");
    assert_eq!(lines, ["{\"pong\":true}"]);
    server.join().expect("server thread");
}

#[test]
fn wire_shutdown_drains_in_flight_work() {
    let handle = serve(&ServeConfig::default(), Engine::new()).expect("bind loopback");
    let addr = handle.local_addr();

    // Submit work, wait for proof the batch was accepted (the first
    // response), then request shutdown from a second connection: every
    // already-accepted job must still be answered.
    let envelopes: Vec<Envelope> = (0..4)
        .map(|i| Envelope {
            id: 10 + i,
            v: Some(PROTOCOL_VERSION),
            deadline_ms: None,
            request: EvalRequest::BerGrid {
                spec: ModelSpec::paper_table1(),
                amps_pp: vec![0.2, 0.6, 1.0],
                freqs_norm: vec![0.01, 0.1, 0.3],
            },
        })
        .collect();
    let stream = TcpStream::connect_timeout(&addr, TIMEOUT).expect("connect");
    {
        let mut out = stream.try_clone().expect("clone write half");
        out.write_all(encode_batch(&envelopes).as_bytes())
            .and_then(|()| out.write_all(b"\n"))
            .expect("submit batch");
    }
    let mut reader = BufReader::new(stream);
    let mut results = Vec::new();
    let mut read_line = |reader: &mut BufReader<TcpStream>| {
        let mut line = String::new();
        reader.read_line(&mut line).expect("response line");
        assert!(!line.is_empty(), "server closed before draining");
        results.push(line.trim().to_string());
    };
    // One response in hand means handle_line enqueued the whole batch.
    read_line(&mut reader);
    send_shutdown(&addr, TIMEOUT).expect("shutdown acknowledged");
    for _ in 0..3 {
        read_line(&mut reader);
    }
    assert_eq!(results.len(), 4);
    for line in &results {
        assert!(
            line.contains("\"ok\":"),
            "accepted work must be drained with a real response: {line}"
        );
    }
    // `run_until_shutdown` returns because the wire command flipped the
    // flag; here the handle observes it too.
    assert!(handle.is_shutting_down());
    handle.shutdown();
}

/// Regression for the delayed-ACK stall: replies used to go out as the
/// line, then the newline, with Nagle on, so every reply on a persistent
/// connection waited ~40 ms for the client's delayed ACK (50 pings took
/// ~2 s). One write per line with `TCP_NODELAY` answers each in well
/// under a millisecond on loopback.
#[test]
fn sequential_pings_on_one_connection_do_not_wait_on_delayed_acks() {
    let handle = serve(&ServeConfig::default(), Engine::new()).expect("bind loopback");
    let mut conn = LineConnection::connect(&handle.local_addr(), TIMEOUT).expect("connect");
    let start = Instant::now();
    for _ in 0..50 {
        let pong = conn
            .exchange("{\"cmd\":\"ping\"}", 1, TIMEOUT)
            .expect("pong");
        assert_eq!(pong, ["{\"pong\":true}"]);
        assert!(conn.is_idle(), "one reply per ping, nothing left over");
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "50 pings took {elapsed:?}"
    );
    handle.shutdown();
}

/// Dropping an idle server returns promptly even though its accept loop
/// blocks in `accept()`: shutdown wakes it with one loopback connect. An
/// idle client connection left open does not hold the drop up either.
#[test]
fn dropping_an_idle_handle_wakes_the_blocking_accept() {
    let handle = serve(&ServeConfig::default(), Engine::new()).expect("bind loopback");
    let idle_client = TcpStream::connect(handle.local_addr()).expect("connect");
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let dropper = std::thread::spawn(move || {
        drop(handle);
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(1))
        .expect("dropping the handle must not hang on the blocked accept");
    dropper.join().expect("dropper thread");
    drop(idle_client);
}
