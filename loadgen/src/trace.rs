//! The traced run: per-layer metrics as p50 self times of spans recorded
//! around public calls, from the benchmark's own code (the programs
//! themselves carry no spans).
//!
//! Both workloads send the same stream and differ only in the router, so
//! the traced run of either starts the two-backend cluster and measures
//! both paths:
//! 1. the first [`REPLAY`] requests through the router, closed loop, with
//!    the cluster's counters scraped before and after (`hit_cluster`'s
//!    path);
//! 2. as many of the following requests sent straight to the backend
//!    that owns each key on the ring (`hit_single`'s path), every probe a
//!    store hit like phase 1's;
//! 3. the phase-1 requests in-process, through the public functions in
//!    the order a request takes them, each result checked byte for byte
//!    against the router's reply, then answered once more by
//!    `Engine::evaluate` over a store holding what the backends held.
//!
//! Spans are kept in memory and written to `trace-<workload>.jsonl`.

use crate::cluster::{Conn, TempDir, BACKENDS};
use crate::gen::{envelope_id, envelopes, Line, Stream, Workload};
use crate::report::Report;
use crate::stats::{median, percentile, sorted};
use crate::timed::{by_probe, check_replies, closed_loop, start_cluster, Sample, Scraped};
use crate::Ctx;
use gcco_api::json::{
    encode_batch, encode_parsed_result_line, encode_result_line, parse_client_line, parse_response,
    parse_result_line, ClientLine, Json,
};
use gcco_api::{Engine, EngineConfig, EvalResponse, GccoError};
use gcco_router::{HashRing, RouterConfig};
use gcco_store::Store;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Requests replayed per pass.
const REPLAY: u64 = 300;

/// Share of `--seconds` each wire pass may take.
const PASS_SHARE: f64 = 0.3;

/// Round trips of the ping probe.
const PINGS: u64 = 30;

/// The per-layer metrics read from spans: `(metric, span, unit)`, each the
/// p50 self time of the spans of that name.
#[rustfmt::skip]
const SPAN_METRICS: [(&str, &str, &str); 12] = [
    ("router.ring_order_us",              "router.ring_order",              "us"),
    ("serve.ping_rtt_ms",                 "serve.ping",                     "ms"),
    ("json.encode_batch_us",              "json.encode_batch",              "us"),
    ("json.parse_client_line_us",         "json.parse_client_line",         "us"),
    ("json.decode_stored_us",             "json.decode_stored",             "us"),
    ("json.encode_result_line_us",        "json.encode_result_line",        "us"),
    ("json.parse_result_line_us",         "json.parse_result_line",         "us"),
    ("json.encode_parsed_result_line_us", "json.encode_parsed_result_line", "us"),
    ("request.validate_us",               "request.validate",               "us"),
    ("request.cache_key_us",              "request.cache_key",              "us"),
    ("engine.evaluate_store_hit_us",      "engine.evaluate_store_hit",      "us"),
    ("store.get_us",                      "store.get",                      "us"),
];

/// One timed interval.
struct Span {
    id: u64,
    parent: Option<u64>,
    request: u64,
    name: String,
    start_us: f64,
    end_us: f64,
}

/// In-memory span recorder.
struct Tracer {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Records an interval that has already happened.
    fn record(&self, name: &str, request: u64, parent: Option<u64>, start: Instant, end: Instant) {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.push(id, name, request, parent, start, end);
    }

    /// Runs `f` inside a span; `f` receives the span's id so it can
    /// parent child spans.
    fn span<T>(
        &self,
        name: &str,
        request: u64,
        parent: Option<u64>,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = std::hint::black_box(f(id));
        self.push(id, name, request, parent, start, Instant::now());
        out
    }

    fn push(
        &self,
        id: u64,
        name: &str,
        request: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans
            .lock()
            .expect("span list lock poisoned")
            .push(Span {
                id,
                parent,
                request,
                name: name.to_string(),
                start_us: us(start),
                end_us: us(end),
            });
    }

    /// Self time (µs) of every span, grouped by name: its duration minus
    /// the part of it that its children cover.
    fn self_times(&self) -> HashMap<String, Vec<f64>> {
        let spans = self.spans.lock().expect("span list lock poisoned");
        let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_us, s.end_us));
            }
        }
        let mut out: HashMap<String, Vec<f64>> = HashMap::new();
        for s in spans.iter() {
            let covered = children
                .get_mut(&s.id)
                .map_or(0.0, |c| covered(c, s.start_us, s.end_us));
            out.entry(s.name.clone())
                .or_default()
                .push(s.end_us - s.start_us - covered);
        }
        out
    }

    fn write_jsonl(&self, path: &std::path::Path) -> Result<(), String> {
        let spans = self.spans.lock().expect("span list lock poisoned");
        let mut text = String::new();
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            text.push_str(&format!(
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}\n",
                s.id, s.request, s.name, s.start_us, s.end_us
            ));
        }
        std::fs::File::create(path)
            .and_then(|mut f| f.write_all(text.as_bytes()))
            .map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Phase 3: request `k` through the public functions in the order the
/// system calls them on a store hit, against a store mirroring the
/// backends' journal, then through `Engine::evaluate` on the same store.
/// Returns one encoded result line per probe.
fn in_process(
    tracer: &Tracer,
    k: u64,
    line: Line,
    ring: &HashRing,
    engine: &Engine,
    mirror: &Store,
) -> Result<Vec<String>, String> {
    let out = tracer.span("request", k, None, |root| {
        let p = Some(root);
        let text = tracer.span("json.encode_batch", k, p, |_| {
            encode_batch(&envelopes(k, line.clone()))
        });
        let envs = match tracer.span("json.parse_client_line", k, p, |_| parse_client_line(&text)) {
            Ok(ClientLine::Requests(envs)) => envs,
            other => return Err(format!("request {k} parsed as {other:?}")),
        };
        let mut out = Vec::with_capacity(envs.len());
        for env in envs {
            let req = env.request;
            tracer
                .span("request.validate", k, p, |_| req.validate())
                .map_err(|e| format!("request {k}: {e}"))?;
            let key = tracer.span("request.cache_key", k, p, |_| req.cache_key());
            tracer.span("router.ring_order", k, p, |_| ring.order(&key));
            let bytes = match tracer.span("store.get", k, p, |_| mirror.get(&key)) {
                Ok(Some(bytes)) => bytes,
                other => return Err(format!("request {k}: journal lookup gave {other:?}")),
            };
            let result: Result<EvalResponse, GccoError> =
                tracer.span("json.decode_stored", k, p, |_| {
                    std::str::from_utf8(&bytes)
                        .map_err(|e| GccoError::Io(e.to_string()))
                        .and_then(Json::parse)
                        .and_then(|v| parse_response(&v))
                });
            let encoded = tracer.span("json.encode_result_line", k, p, |_| {
                encode_result_line(env.id, &result)
            });
            let parsed = tracer
                .span("json.parse_result_line", k, p, |_| {
                    parse_result_line(&encoded)
                })
                .map_err(|e| format!("request {k}: {e}"))?;
            let again = tracer.span("json.encode_parsed_result_line", k, p, |_| {
                encode_parsed_result_line(&parsed)
            });
            if again != encoded {
                return Err(format!("request {k}: re-encoded result line differs"));
            }
            out.push(encoded);
        }
        Ok(out)
    })?;
    for (j, req) in line.iter().enumerate() {
        let whole = tracer.span("engine.evaluate_store_hit", k, None, |_| {
            engine.evaluate(req)
        });
        if encode_result_line(envelope_id(k, j), &whole) != out[j] {
            return Err(format!(
                "request {k}: Engine::evaluate disagrees with the chain"
            ));
        }
    }
    Ok(out)
}

/// The traced run of one workload.
pub fn run(ctx: &Ctx, workload: Workload) -> Result<Report, String> {
    let tracer = Tracer::new();
    let stream = Stream::new(ctx.seed);
    let mut report = Report::default();
    let budget = ctx.seconds * PASS_SHARE;
    let ring = HashRing::new(BACKENDS, RouterConfig::default().vnodes);

    // Phases 1 and 2 on the wire.
    let cluster = start_cluster(ctx, Workload::HitCluster, &stream)?;
    let before = cluster.scrape()?;
    let router = cluster.front();
    let (via_router, _) = closed_loop(&stream, 0..REPLAY, budget, &|_| router);
    let scraped = Scraped::over(&[(before, cluster.scrape()?)]);
    let n = via_router.len() as u64;
    let backends = cluster.backends.clone();
    let (direct, _) = closed_loop(&stream, n..2 * n, budget, &|req| {
        backends[ring.order(&req.cache_key())[0]]
    });
    let mut conn = Conn::connect(&cluster.backends[0])?;
    for i in 0..PINGS {
        let t0 = Instant::now();
        let pong = conn.roundtrip("{\"cmd\":\"ping\"}")?;
        tracer.record("serve.ping", i, None, t0, Instant::now());
        if pong != "{\"pong\":true}" {
            return Err(format!("backend answered ping with {pong}"));
        }
    }
    drop(conn);
    drop(cluster);
    if direct.is_empty() || via_router.is_empty() {
        return Err("a wire pass sent no request".to_string());
    }
    for (name, samples) in [("wire.router", &via_router), ("wire.direct", &direct)] {
        for s in samples.iter() {
            let end = s.sent + std::time::Duration::from_secs_f64(s.latency_ms / 1e3);
            tracer.record(name, s.k, None, s.sent, end);
        }
    }
    let checked = check_replies(&stream, &direct);

    // Phase 3 in-process, on one thread, against a store holding what
    // the backends held.
    let mirror_dir = TempDir::new(&ctx.out_dir, "mirror")?;
    let mirror = Arc::new(Store::open(mirror_dir.path()).map_err(|e| format!("open store: {e}"))?);
    let engine = Engine::with_config(EngineConfig {
        workers: Some(1),
        ..EngineConfig::default()
    })
    .with_store(Arc::clone(&mirror));
    for req in stream.pool().iter().flatten() {
        engine.evaluate(req).map_err(|e| e.to_string())?;
    }
    let mut chain_failures = 0;
    for s in &via_router {
        let local = in_process(&tracer, s.k, stream.request(s.k), &ring, &engine, &mirror)?;
        let same = s.reply.as_ref().is_ok_and(|replies| {
            by_probe(s.k, local.len(), replies)
                .is_some_and(|got| got.into_iter().zip(&local).all(|(wire, mine)| wire == mine))
        });
        if !same {
            chain_failures += 1;
        }
    }

    report.attempted = n + direct.len() as u64 + PINGS;
    report.failed = checked.failed() + chain_failures;
    report.note(format!(
        "{n} requests via the router, {} direct; {chain_failures} router replies differ from \
         the in-process chain",
        direct.len()
    ));
    checked.note("direct pass", &mut report);
    scraped.note(&mut report);
    scraped.check(&mut report);

    let times = tracer.self_times();
    let p50 = |span: &str| -> Result<f64, String> {
        times
            .get(span)
            .filter(|v| !v.is_empty())
            .map(|v| percentile(&sorted(v.clone()), 50))
            .ok_or_else(|| format!("no {span} spans recorded"))
    };
    let lat = |samples: &[Sample]| median(samples.iter().map(|s| s.latency_ms).collect());
    let replies: Vec<usize> = via_router
        .iter()
        .filter_map(|s| s.reply.as_ref().ok())
        .flatten()
        .map(String::len)
        .collect();

    for (metric, span, unit) in SPAN_METRICS {
        let us = p50(span)?;
        report.metric(metric, if unit == "ms" { us / 1e3 } else { us }, unit);
    }
    report.metric("router.forward_ms", lat(&via_router) - lat(&direct), "ms");
    report.metric(
        "router.backend_mean_ms",
        scraped.router_backend_mean_ms,
        "ms",
    );
    report.metric("serve.queue_wait_mean_ms", scraped.queue_wait_mean_ms, "ms");
    report.metric(
        "json.reply_bytes",
        replies.iter().sum::<usize>() as f64 / replies.len().max(1) as f64,
        "bytes",
    );
    report.metric(
        "engine.request_mean_ms",
        scraped.engine_request_mean_ms,
        "ms",
    );
    report.metric("store.hit_ratio", scraped.store_hit_ratio, "ratio");
    // The traced counterpart of the timed run's latency_p50_ms: the pass
    // that takes this workload's path.
    let own = match workload {
        Workload::HitCluster => &via_router,
        Workload::HitSingle => &direct,
    };
    report.metric("trace.latency_p50_ms", lat(own), "ms");

    let path = ctx.out_dir.join(format!("trace-{}.jsonl", workload.name()));
    tracer.write_jsonl(&path)?;
    report.note(format!("spans written to {}", path.display()));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut kids = vec![(12.0, 20.0), (10.0, 15.0), (30.0, 50.0)];
        // [10,20] inside, [30,40] clipped to the parent's end.
        assert_eq!(covered(&mut kids, 5.0, 40.0), 20.0);
        let tracer = Tracer::new();
        tracer.span("root", 0, None, |root| {
            tracer.span("child", 0, Some(root), |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let times = tracer.self_times();
        assert!(times["child"][0] >= 20_000.0);
        assert!(
            times["root"][0] < 10_000.0,
            "root self time excludes its child"
        );
    }
}
