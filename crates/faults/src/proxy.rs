//! A chaos TCP proxy for loopback tests: sits between a client and an
//! upstream service and injects transport faults on a deterministic
//! per-connection schedule.
//!
//! The proxy is transparent for clean connections (bytes flow both ways
//! unmodified) and applies exactly one [`ConnFault`] to each accepted
//! connection, chosen by the [`ProxyPlan`]:
//!
//! * [`ConnFault::Delay`] — forward normally, but sleep before the first
//!   response byte (queue-wait / slow-network shaped latency);
//! * [`ConnFault::Truncate`] — forward the request upstream, then cut the
//!   response off mid-stream after N bytes and close. The upstream *does*
//!   evaluate the request — the client just never sees the whole answer,
//!   which is precisely the case that makes retries need a replay-safe
//!   server (the store/cache tiers replay responses bit-identically);
//! * [`ConnFault::Reset`] — close the client connection immediately,
//!   before anything reaches the upstream (the request was never seen);
//! * [`ConnFault::BlackHole`] — accept and read the client's bytes but
//!   forward nothing and answer nothing until the client gives up.
//!
//! Connections are numbered in accept order; a [`ProxyPlan::Cycle`] is
//! exact per index, while [`ProxyPlan::Seeded`] derives each decision
//! from the seed and the index alone — so concurrent clients racing to
//! connect see a deterministic *multiset* of faults even when their
//! arrival order varies.

use crate::SplitMix64;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often blocking proxy loops re-check the shutdown flag.
const POLL: Duration = Duration::from_millis(10);

/// How long the proxy waits for the upstream to accept.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// The fault applied to one proxied connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnFault {
    /// Forward untouched.
    None,
    /// Forward, but delay the first response byte by `millis`.
    Delay {
        /// Milliseconds of added response latency.
        millis: u64,
    },
    /// Forward the request, then close after `bytes` response bytes —
    /// a mid-line cut.
    Truncate {
        /// Response bytes let through before the cut.
        bytes: usize,
    },
    /// Close the client immediately; the upstream never sees the request.
    Reset,
    /// Swallow the request and never answer; the client's own timeout is
    /// its only way out.
    BlackHole,
}

/// Relative weights for [`ProxyPlan::Seeded`] fault selection (all zero
/// acts like all-clean).
#[derive(Clone, Copy, Debug)]
pub struct FaultWeights {
    /// Weight of [`ConnFault::None`].
    pub none: u32,
    /// Weight of [`ConnFault::Delay`] (5–50 ms, drawn per connection).
    pub delay: u32,
    /// Weight of [`ConnFault::Truncate`] (1–48 bytes, drawn per
    /// connection).
    pub truncate: u32,
    /// Weight of [`ConnFault::Reset`].
    pub reset: u32,
    /// Weight of [`ConnFault::BlackHole`].
    pub black_hole: u32,
}

impl FaultWeights {
    /// A mildly hostile default mix: mostly clean, every fault kind
    /// represented.
    #[must_use]
    pub fn default_mix() -> FaultWeights {
        FaultWeights {
            none: 5,
            delay: 2,
            truncate: 1,
            reset: 1,
            black_hole: 1,
        }
    }
}

/// How the proxy picks each connection's fault.
#[derive(Clone, Debug)]
pub enum ProxyPlan {
    /// Connection `i` gets `faults[i % len]` — exact and order-dependent,
    /// for tests that script a sequence ("reset, then clean").
    Cycle(Vec<ConnFault>),
    /// Connection `i`'s fault is a pure function of `(seed, i)` under the
    /// given weights — reproducible chaos.
    Seeded {
        /// The schedule seed; the whole campaign reproduces from it.
        seed: u64,
        /// Relative fault weights.
        weights: FaultWeights,
    },
}

impl ProxyPlan {
    /// The fault connection number `index` (0-based, accept order) gets.
    /// Pure: calling it never advances any state.
    #[must_use]
    pub fn decide(&self, index: u64) -> ConnFault {
        match self {
            ProxyPlan::Cycle(faults) => {
                if faults.is_empty() {
                    ConnFault::None
                } else {
                    faults[(index % faults.len() as u64) as usize]
                }
            }
            ProxyPlan::Seeded { seed, weights } => {
                // Decorrelate the per-connection stream from the seed so
                // consecutive indices do not see consecutive raw outputs.
                let mut rng = SplitMix64::new(seed ^ SplitMix64::new(index).next_u64());
                let total = u64::from(weights.none)
                    + u64::from(weights.delay)
                    + u64::from(weights.truncate)
                    + u64::from(weights.reset)
                    + u64::from(weights.black_hole);
                if total == 0 {
                    return ConnFault::None;
                }
                let mut pick = rng.below(total);
                for (weight, fault) in [
                    (u64::from(weights.none), ConnFault::None),
                    (
                        u64::from(weights.delay),
                        ConnFault::Delay {
                            millis: rng.between(5, 50),
                        },
                    ),
                    (
                        u64::from(weights.truncate),
                        ConnFault::Truncate {
                            bytes: rng.between(1, 48) as usize,
                        },
                    ),
                    (u64::from(weights.reset), ConnFault::Reset),
                    (u64::from(weights.black_hole), ConnFault::BlackHole),
                ] {
                    if pick < weight {
                        return fault;
                    }
                    pick -= weight;
                }
                ConnFault::None
            }
        }
    }
}

struct Shared {
    upstream: SocketAddr,
    plan: ProxyPlan,
    stop: AtomicBool,
    connections: AtomicU64,
    faults_injected: AtomicU64,
}

/// A running chaos proxy. Dropping the handle stops the accept loop and
/// joins every connection thread.
pub struct ChaosProxy {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds a loopback port and starts proxying to `upstream` under
    /// `plan`.
    ///
    /// # Errors
    ///
    /// Any I/O failure binding the listener or spawning the accept
    /// thread.
    pub fn spawn(upstream: SocketAddr, plan: ProxyPlan) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            upstream,
            plan,
            stop: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            faults_injected: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("gcco-chaos-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        Ok(ChaosProxy {
            shared,
            local_addr,
            accept: Some(accept),
        })
    }

    /// The proxy's client-facing address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections accepted so far.
    #[must_use]
    pub fn connections(&self) -> u64 {
        self.shared.connections.load(Ordering::Relaxed)
    }

    /// Connections that received a fault other than [`ConnFault::None`].
    #[must_use]
    pub fn faults_injected(&self) -> u64 {
        self.shared.faults_injected.load(Ordering::Relaxed)
    }

    /// Stops accepting and joins every proxy thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    let mut index: u64 = 0;
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((client, _)) => {
                let fault = shared.plan.decide(index);
                index += 1;
                shared.connections.fetch_add(1, Ordering::Relaxed);
                if fault != ConnFault::None {
                    shared.faults_injected.fetch_add(1, Ordering::Relaxed);
                }
                let shared = Arc::clone(shared);
                if let Ok(handle) = std::thread::Builder::new()
                    .name("gcco-chaos-conn".to_string())
                    .spawn(move || relay_connection(client, fault, &shared))
                {
                    handlers.push(handle);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
        handlers.retain(|h| !h.is_finished());
    }
    for h in handlers {
        let _ = h.join();
    }
}

fn relay_connection(client: TcpStream, fault: ConnFault, shared: &Arc<Shared>) {
    match fault {
        ConnFault::Reset => {
            // Dropping without reading closes the socket while the
            // client's request bytes may still be in flight — the peer
            // sees an abrupt close (EOF or ECONNRESET).
            let _ = client.shutdown(Shutdown::Both);
        }
        ConnFault::BlackHole => black_hole(&client, shared),
        ConnFault::None => forward(client, None, None, shared),
        ConnFault::Delay { millis } => {
            forward(client, Some(Duration::from_millis(millis)), None, shared);
        }
        ConnFault::Truncate { bytes } => forward(client, None, Some(bytes), shared),
    }
}

/// Reads and discards the client's bytes forever (until the client hangs
/// up or the proxy stops); nothing is forwarded, nothing answered.
fn black_hole(client: &TcpStream, shared: &Arc<Shared>) {
    let _ = client.set_read_timeout(Some(POLL));
    let mut sink = [0u8; 1024];
    let mut client = client;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match client.read(&mut sink) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => return,
        }
    }
}

/// Full bidirectional forward; `delay` and `limit` apply to the
/// upstream→client (response) direction only.
fn forward(client: TcpStream, delay: Option<Duration>, limit: Option<usize>, shared: &Arc<Shared>) {
    let Ok(upstream) = TcpStream::connect_timeout(&shared.upstream, CONNECT_TIMEOUT) else {
        let _ = client.shutdown(Shutdown::Both);
        return;
    };
    // Extra handles so both directions can be force-closed once either
    // pump finishes (EOF, error, or the truncation limit).
    let (Ok(client_r), Ok(upstream_w), Ok(client_c), Ok(upstream_c)) = (
        client.try_clone(),
        upstream.try_clone(),
        client.try_clone(),
        upstream.try_clone(),
    ) else {
        return;
    };
    let request_shared = Arc::clone(shared);
    let request_pump = std::thread::Builder::new()
        .name("gcco-chaos-pump".to_string())
        .spawn(move || pump(client_r, upstream_w, None, None, &request_shared));
    pump(upstream, client, delay, limit, shared);
    let _ = client_c.shutdown(Shutdown::Both);
    let _ = upstream_c.shutdown(Shutdown::Both);
    if let Ok(handle) = request_pump {
        let _ = handle.join();
    }
}

/// Copies `from` → `to` until EOF, error, shutdown, or `limit` forwarded
/// bytes; sleeps `delay` once, before the first forwarded byte.
fn pump(
    mut from: TcpStream,
    mut to: TcpStream,
    delay: Option<Duration>,
    mut limit: Option<usize>,
    shared: &Arc<Shared>,
) {
    let _ = from.set_read_timeout(Some(POLL));
    let mut first = true;
    let mut buf = [0u8; 4096];
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match from.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => {
                if first {
                    if let Some(d) = delay {
                        std::thread::sleep(d);
                    }
                    first = false;
                }
                let take = limit.map_or(n, |remaining| n.min(remaining));
                if to
                    .write_all(&buf[..take])
                    .and_then(|()| to.flush())
                    .is_err()
                {
                    return;
                }
                if let Some(remaining) = &mut limit {
                    *remaining -= take;
                    if *remaining == 0 {
                        return;
                    }
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::time::Instant;

    /// A minimal line-echo upstream: echoes each received line back.
    fn spawn_echo() -> (SocketAddr, Arc<AtomicBool>, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind echo");
        let addr = listener.local_addr().expect("echo addr");
        listener.set_nonblocking(true).expect("nonblocking");
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut conns = Vec::new();
            while !stop2.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        conns.push(std::thread::spawn(move || {
                            let mut out = stream.try_clone().expect("clone");
                            let mut reader = BufReader::new(stream);
                            let mut line = String::new();
                            while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
                                if out.write_all(line.as_bytes()).is_err() {
                                    break;
                                }
                                line.clear();
                            }
                        }));
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
                    Err(_) => break,
                }
            }
            for c in conns {
                let _ = c.join();
            }
        });
        (addr, stop, handle)
    }

    fn roundtrip(addr: SocketAddr) -> std::io::Result<String> {
        let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
        stream.set_read_timeout(Some(Duration::from_secs(2)))?;
        stream.write_all(b"hello chaos\n")?;
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line)?;
        if line.is_empty() {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "closed before a full line",
            ));
        }
        Ok(line)
    }

    #[test]
    fn clean_connections_forward_transparently() {
        let (upstream, stop, echo) = spawn_echo();
        let proxy =
            ChaosProxy::spawn(upstream, ProxyPlan::Cycle(vec![ConnFault::None])).expect("proxy");
        assert_eq!(
            roundtrip(proxy.local_addr()).expect("echoed"),
            "hello chaos\n"
        );
        assert_eq!(proxy.connections(), 1);
        assert_eq!(proxy.faults_injected(), 0);
        proxy.shutdown();
        stop.store(true, Ordering::SeqCst);
        echo.join().expect("echo thread");
    }

    #[test]
    fn delay_slows_the_response_without_corrupting_it() {
        let (upstream, stop, echo) = spawn_echo();
        let proxy = ChaosProxy::spawn(
            upstream,
            ProxyPlan::Cycle(vec![ConnFault::Delay { millis: 150 }]),
        )
        .expect("proxy");
        let start = Instant::now();
        assert_eq!(
            roundtrip(proxy.local_addr()).expect("echoed"),
            "hello chaos\n"
        );
        assert!(
            start.elapsed() >= Duration::from_millis(120),
            "delay fault must add latency, took {:?}",
            start.elapsed()
        );
        assert_eq!(proxy.faults_injected(), 1);
        proxy.shutdown();
        stop.store(true, Ordering::SeqCst);
        echo.join().expect("echo thread");
    }

    #[test]
    fn truncate_cuts_the_response_mid_line() {
        let (upstream, stop, echo) = spawn_echo();
        let proxy = ChaosProxy::spawn(
            upstream,
            ProxyPlan::Cycle(vec![ConnFault::Truncate { bytes: 5 }]),
        )
        .expect("proxy");
        let mut stream =
            TcpStream::connect_timeout(&proxy.local_addr(), Duration::from_secs(2)).expect("conn");
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        stream.write_all(b"hello chaos\n").expect("send");
        let mut got = Vec::new();
        let _ = stream.read_to_end(&mut got);
        assert_eq!(got, b"hello", "exactly 5 bytes pass before the cut");
        proxy.shutdown();
        stop.store(true, Ordering::SeqCst);
        echo.join().expect("echo thread");
    }

    #[test]
    fn reset_and_black_hole_deny_service_in_distinct_ways() {
        let (upstream, stop, echo) = spawn_echo();
        let proxy = ChaosProxy::spawn(
            upstream,
            ProxyPlan::Cycle(vec![
                ConnFault::Reset,
                ConnFault::BlackHole,
                ConnFault::None,
            ]),
        )
        .expect("proxy");
        // Reset: abrupt close, no data.
        assert!(roundtrip(proxy.local_addr()).is_err(), "reset must fail");
        // Black hole: the client's own read timeout is the only way out.
        let mut stream =
            TcpStream::connect_timeout(&proxy.local_addr(), Duration::from_secs(2)).expect("conn");
        stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .expect("timeout");
        stream.write_all(b"hello chaos\n").expect("send");
        let mut buf = [0u8; 8];
        let got = stream.read(&mut buf);
        assert!(
            matches!(got, Err(ref e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)),
            "black hole must starve the read, got {got:?}"
        );
        drop(stream);
        // The cycle wraps back to a clean connection: service recovered.
        assert_eq!(
            roundtrip(proxy.local_addr()).expect("clean"),
            "hello chaos\n"
        );
        assert_eq!(proxy.connections(), 3);
        assert_eq!(proxy.faults_injected(), 2);
        proxy.shutdown();
        stop.store(true, Ordering::SeqCst);
        echo.join().expect("echo thread");
    }

    #[test]
    fn seeded_plans_are_pure_functions_of_seed_and_index() {
        let plan = ProxyPlan::Seeded {
            seed: 42,
            weights: FaultWeights::default_mix(),
        };
        let a: Vec<ConnFault> = (0..64).map(|i| plan.decide(i)).collect();
        let b: Vec<ConnFault> = (0..64).map(|i| plan.decide(i)).collect();
        assert_eq!(a, b, "decide is pure");
        let other = ProxyPlan::Seeded {
            seed: 43,
            weights: FaultWeights::default_mix(),
        };
        let c: Vec<ConnFault> = (0..64).map(|i| other.decide(i)).collect();
        assert_ne!(a, c, "the seed matters");
        assert!(
            a.iter().any(|f| *f != ConnFault::None),
            "the default mix must inject something in 64 draws"
        );
        assert!(
            a.contains(&ConnFault::None),
            "and must leave some connections clean"
        );
    }
}
