//! The timed run: end-to-end metrics with no tracing, and the output
//! checks that keep every workload what its name says.

use crate::cluster::{peak_rss_kib, Cluster, Conn};
use crate::gen::{envelope_id, envelopes, Line, Stream, Workload};
use crate::report::Report;
use crate::stats::{median, percentile, samples_beyond, sorted, Exposition};
use crate::Ctx;
use gcco_api::json::{encode_batch, encode_result_line, parse_result_line, Envelope};
use gcco_api::{Engine, EvalRequest, EvalResponse, GccoError};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Closed-loop client connections: one per core of the 2-core machine
/// the benchmark is sized for.
pub const CLIENTS: usize = 2;

/// A run measures this many segments of equal length, each on a freshly
/// started deployment, and `setup_s` is the median of their set-ups. A
/// deployment's latency depends on when its processes started: each
/// backend's accept loop polls on its own 25 ms clock, and a routed pair
/// can wait on both. With one deployment per run, `hit_cluster`'s
/// `latency_p50_ms` moved by up to 8 % between runs of the same seed;
/// with six, its ten-seed spread is under 0.02.
const SEGMENTS: usize = 6;

/// Envelopes per journaling line: each backend receives at most this many
/// at once, half its 64-slot queue, so set-up is never refused.
const JOURNAL_BATCH: usize = 32;

/// Starts `workload`'s deployment and prepares it for `stream`: every
/// process must answer a ping, then the stream's pool is journaled
/// through the front. All of it is what `setup_s` times.
///
/// The backends are pinged before the router. Each answers its first
/// ping when its 25 ms accept poll first wakes, a fixed time after it
/// started. The router, started last, sometimes accepts before its poll
/// first sleeps; pinged alone it made set-up flip between 4 and 28 ms
/// from run to run, and behind the backends it adds at most ~2 ms.
pub fn start_cluster(ctx: &Ctx, workload: Workload, stream: &Stream) -> Result<Cluster, String> {
    let cluster = Cluster::start(&ctx.bin_dir, &ctx.out_dir, workload)?;
    for addr in cluster.addrs() {
        let pong = Conn::connect(&addr)?.roundtrip("{\"cmd\":\"ping\"}")?;
        if pong != "{\"pong\":true}" {
            return Err(format!("{addr} answered ping with {pong}"));
        }
    }
    let envs: Vec<Envelope> = (0..)
        .zip(stream.pool())
        .flat_map(|(i, line)| envelopes(i, line.clone()))
        .collect();
    let mut conn = Conn::connect(&cluster.front())?;
    for chunk in envs.chunks(JOURNAL_BATCH) {
        conn.send(&encode_batch(chunk))?;
        for _ in chunk {
            let line = conn.recv()?;
            if !line.contains("\"ok\"") {
                return Err(format!("journaling failed: {line}"));
            }
        }
    }
    Ok(cluster)
}

/// One measured request: a line of envelopes and every reply to it.
pub struct Sample {
    pub k: u64,
    pub sent: Instant,
    pub latency_ms: f64,
    /// The reply lines in arrival order.
    pub reply: Result<Vec<String>, String>,
}

/// Sends request `k`'s envelopes, grouped into one line per address that
/// `route` picks, all before reading any reply; returns every reply line.
fn exchange(
    conns: &mut HashMap<SocketAddr, Conn>,
    envs: &[Envelope],
    route: &(dyn Fn(&EvalRequest) -> SocketAddr + Sync),
) -> Result<Vec<String>, String> {
    let mut groups: Vec<(SocketAddr, Vec<Envelope>)> = Vec::new();
    for env in envs {
        let addr = route(&env.request);
        match groups.iter_mut().find(|(a, _)| *a == addr) {
            Some((_, group)) => group.push(env.clone()),
            None => groups.push((addr, vec![env.clone()])),
        }
    }
    for (addr, group) in &groups {
        let conn = match conns.entry(*addr) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(Conn::connect(addr)?),
        };
        conn.send(&encode_batch(group))?;
    }
    let mut replies = Vec::with_capacity(envs.len());
    for (addr, group) in &groups {
        let conn = conns.get_mut(addr).expect("connected");
        for _ in group {
            replies.push(conn.recv()?);
        }
    }
    Ok(replies)
}

/// Sends requests `ks` of `stream`, in order, from [`CLIENTS`]
/// closed-loop clients, each pausing its [`Stream::think_time`] between
/// requests, until they run out or `seconds` pass; returns the samples
/// and the phase's wall time. `route` picks the address each envelope
/// goes to; a client keeps one persistent connection per address.
pub fn closed_loop(
    stream: &Stream,
    ks: Range<u64>,
    seconds: f64,
    route: &(dyn Fn(&EvalRequest) -> SocketAddr + Sync),
) -> (Vec<Sample>, f64) {
    let next = AtomicU64::new(ks.start);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let per_client: Vec<Vec<Sample>> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut conns = HashMap::new();
                    let mut out = Vec::new();
                    while Instant::now() < end {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= ks.end {
                            break;
                        }
                        let envs = envelopes(k, stream.request(k));
                        let sent = Instant::now();
                        let reply = exchange(&mut conns, &envs, route);
                        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                        if reply.is_err() {
                            conns.clear();
                        }
                        out.push(Sample {
                            k,
                            sent,
                            latency_ms,
                            reply,
                        });
                        std::thread::sleep(stream.think_time(k));
                    }
                    out
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut samples: Vec<Sample> = per_client.into_iter().flatten().collect();
    samples.sort_by_key(|s| s.k);
    (samples, elapsed)
}

/// Matches the reply lines of request `k` to its probes by envelope id:
/// `Some(lines)` in probe order when every probe has exactly one reply.
pub fn by_probe(k: u64, probes: usize, replies: &[String]) -> Option<Vec<&String>> {
    let mut slots = vec![None; probes];
    for line in replies {
        let id = parse_result_line(line).ok()?.id;
        let slot = (0..probes).find(|&j| envelope_id(k, j) == id)?;
        if slots[slot].replace(line).is_some() {
            return None;
        }
    }
    slots.into_iter().collect()
}

/// How the replies of a pass compare with the in-process engine.
#[derive(Default)]
pub struct Checked {
    pub transport: u64,
    pub errors: u64,
    pub mismatches: u64,
    /// The first failing reply, for the report.
    pub example: Option<String>,
}

impl Checked {
    /// Requests with any failure.
    pub fn failed(&self) -> u64 {
        self.transport + self.errors + self.mismatches
    }

    pub fn note(&self, pass: &str, report: &mut Report) {
        report.note(format!(
            "{pass}: {} transport failures, {} errors, {} byte mismatches against the in-process engine",
            self.transport, self.errors, self.mismatches
        ));
        if let Some(example) = &self.example {
            report.note(format!("first failure: {example:.300}"));
        }
    }
}

/// Recomputes every distinct probe in-process and counts the requests
/// whose replies never arrived, include an error, or are not
/// byte-identical to `encode_result_line` of the in-process results.
pub fn check_replies(stream: &Stream, samples: &[Sample]) -> Checked {
    let engine = Engine::new();
    let mut expected: HashMap<String, Result<EvalResponse, GccoError>> = HashMap::new();
    let mut checked = Checked::default();
    for s in samples {
        let line: Line = stream.request(s.k);
        let replies = match &s.reply {
            Err(e) => {
                checked.transport += 1;
                checked.example.get_or_insert(e.clone());
                continue;
            }
            Ok(replies) => replies,
        };
        if let Some(bad) = replies.iter().find(|r| r.contains("\"err\"")) {
            checked.errors += 1;
            checked.example.get_or_insert(bad.clone());
            continue;
        }
        let matches = by_probe(s.k, line.len(), replies).is_some_and(|got| {
            line.iter().zip(got).enumerate().all(|(j, (req, reply))| {
                let want = expected
                    .entry(req.cache_key())
                    .or_insert_with(|| engine.evaluate(req));
                *reply == encode_result_line(envelope_id(s.k, j), want)
            })
        });
        if !matches {
            checked.mismatches += 1;
            checked.example.get_or_insert(replies.join(" | "));
        }
    }
    checked
}

/// Adds the latency metrics of `latencies` (milliseconds).
fn latency_metrics(report: &mut Report, latencies: Vec<f64>) {
    let n = latencies.len();
    let lat = sorted(latencies);
    if n == 0 {
        report.problem("no request completed");
        return;
    }
    if samples_beyond(n, 90) < 10 {
        report.note(format!(
            "latency_p90_ms rests on {n} samples, fewer than 10 beyond it"
        ));
    }
    report.note(format!("n = {n} latency samples"));
    report.metric("latency_p50_ms", percentile(&lat, 50), "ms");
    report.metric("latency_p90_ms", percentile(&lat, 90), "ms");
}

/// The scraped counters a run reports and checks, as deltas over the
/// measured phases, summed over every process.
pub struct Scraped {
    pub router_backend_mean_ms: f64,
    pub failovers: f64,
    pub queue_wait_mean_ms: f64,
    pub queue_full: f64,
    pub engine_request_mean_ms: f64,
    pub store_hit_ratio: f64,
    pub store_errors: f64,
}

impl Scraped {
    /// The counters' growth over every `(before, after)` pair of scrapes.
    pub fn over(scrapes: &[(Exposition, Exposition)]) -> Scraped {
        let d = |name: &str| -> f64 {
            scrapes
                .iter()
                .map(|(before, after)| after.sum(name) - before.sum(name))
                .sum()
        };
        let mean_ms =
            |base: &str| 1e3 * d(&format!("{base}_sum")) / d(&format!("{base}_count")).max(1.0);
        let hits = d("gcco_store_hits_total");
        Scraped {
            router_backend_mean_ms: mean_ms("gcco_router_backend_seconds"),
            failovers: d("gcco_router_failovers_total"),
            queue_wait_mean_ms: mean_ms("gcco_serve_queue_wait_seconds"),
            queue_full: d("gcco_serve_queue_full_total"),
            engine_request_mean_ms: mean_ms("gcco_engine_request_seconds"),
            store_hit_ratio: hits / (hits + d("gcco_store_misses_total")).max(1.0),
            store_errors: d("gcco_store_errors_total"),
        }
    }

    /// The checks that keep a workload what its name says: nothing fails
    /// over or is refused, and every probe is answered from the store. A
    /// later cache-key change, for example, must not quietly turn the
    /// hit workloads into miss workloads.
    pub fn check(&self, report: &mut Report) {
        for (name, value) in [
            ("router.failovers", self.failovers),
            ("serve.queue_full", self.queue_full),
            ("store.errors", self.store_errors),
        ] {
            if value > 0.0 {
                report.problem(format!("{name} = {value} (must be 0)"));
            }
        }
        if self.store_hit_ratio < 1.0 {
            report.problem(format!(
                "store.hit_ratio = {} (must be 1)",
                self.store_hit_ratio
            ));
        }
    }

    pub fn note(&self, report: &mut Report) {
        report.note(format!(
            "scraped: router.backend_mean_ms {:.4}, router.failovers {}, \
             serve.queue_wait_mean_ms {:.4}, serve.queue_full {}",
            self.router_backend_mean_ms, self.failovers, self.queue_wait_mean_ms, self.queue_full
        ));
        report.note(format!(
            "scraped: engine.request_mean_ms {:.4}, store.hit_ratio {:.4}, store.errors {}",
            self.engine_request_mean_ms, self.store_hit_ratio, self.store_errors
        ));
    }
}

/// One workload: [`SEGMENTS`] times, start and set up a deployment, then
/// measure it for an equal share of `ctx.seconds`; the stream continues
/// from one segment to the next. Then check every reply against the
/// in-process engine.
pub fn run(ctx: &Ctx, workload: Workload) -> Result<Report, String> {
    let stream = Stream::new(ctx.seed);
    let mut report = Report::default();
    let mut setups = Vec::with_capacity(SEGMENTS);
    let mut scrapes = Vec::with_capacity(SEGMENTS);
    let mut rss_mb = Vec::with_capacity(SEGMENTS);
    let mut samples: Vec<Sample> = Vec::new();
    let mut measured = 0.0;
    for _ in 0..SEGMENTS {
        let t0 = Instant::now();
        let cluster = start_cluster(ctx, workload, &stream)?;
        setups.push(t0.elapsed().as_secs_f64());
        let before = cluster.scrape()?;
        let front = cluster.front();
        let next = samples.last().map_or(0, |s| s.k + 1);
        let (segment, elapsed) = closed_loop(
            &stream,
            next..u64::MAX,
            ctx.seconds / SEGMENTS as f64,
            &|_| front,
        );
        scrapes.push((before, cluster.scrape()?));
        let rss_kib = cluster
            .pids()
            .iter()
            .map(|&p| peak_rss_kib(p))
            .sum::<Result<u64, String>>()?;
        rss_mb.push(rss_kib as f64 / 1024.0);
        samples.extend(segment);
        measured += elapsed;
    }
    let scraped = Scraped::over(&scrapes);

    let checked = check_replies(&stream, &samples);
    report.attempted = samples.len() as u64;
    report.failed = checked.failed();
    let setups = sorted(setups);
    report.note(format!(
        "{SEGMENTS} deployments: set-up min {:.4} s, median {:.4} s, max {:.4} s",
        setups[0],
        percentile(&setups, 50),
        setups[SEGMENTS - 1]
    ));
    checked.note(&format!("{} requests", samples.len()), &mut report);
    scraped.note(&mut report);
    scraped.check(&mut report);
    let ok: Vec<f64> = samples
        .iter()
        .filter(|s| s.reply.is_ok())
        .map(|s| s.latency_ms)
        .collect();
    report.metric("setup_s", percentile(&setups, 50), "s");
    report.metric(
        "req_per_s",
        (report.attempted - report.failed) as f64 / measured,
        "1/s",
    );
    latency_metrics(&mut report, ok);
    report.metric("rss_peak_mb", median(rss_mb), "MB");
    Ok(report)
}
