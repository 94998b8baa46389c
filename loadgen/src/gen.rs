//! The seeded request stream. Request `k` is a pure function of
//! `(seed, k)`: two runs with one seed send identical bytes, client
//! threads can share the stream through an atomic cursor, and the traced
//! run replays exactly the requests the timed run started with.
//!
//! The traffic is what the repository's one wire client,
//! `optimize --remote`, sends: one line per probe pair, each pair the
//! optimizer's environment at one design point, evaluated as a
//! `ber_point` at `+margin` and `-margin`. Set-up journals a pool of
//! pairs and the measured phase draws from it, so every probe is a store
//! hit, as when a search is re-run against a warm deployment.

use gcco_api::json::{Envelope, PROTOCOL_VERSION};
use gcco_api::{EvalRequest, OptimizeSpec};
use gcco_faults::SplitMix64;
use gcco_opt::ProbePoint;
use std::collections::HashSet;
use std::time::Duration;

/// Distinct probe pairs set-up journals: 256 probes, four `paper_flow`
/// searches' worth.
pub const JOURNAL_PAIRS: usize = 128;

/// The two deployments the stream is sent to; see the README for why
/// each exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One `gcco-router` in front of two `gcco-serve` backends.
    HitCluster,
    /// One `gcco-serve`, no router.
    HitSingle,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 2] = [Workload::HitCluster, Workload::HitSingle];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HitCluster => "hit_cluster",
            Workload::HitSingle => "hit_single",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One wire line: the envelopes a client sends at once.
pub type Line = Vec<EvalRequest>;

/// The request stream for one seed.
pub struct Stream {
    seed: u64,
    /// The distinct lines the stream draws from, which set-up journals.
    pool: Vec<Line>,
}

impl Stream {
    pub fn new(seed: u64) -> Stream {
        Stream {
            seed,
            pool: journal(seed),
        }
    }

    /// The lines set-up journals; every request is one of them.
    pub fn pool(&self) -> &[Line] {
        &self.pool
    }

    fn rng(&self, k: u64, salt: u64) -> SplitMix64 {
        SplitMix64::new(
            self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ k.wrapping_mul(0xD1B5_4A32_D192_ED03)
                ^ salt,
        )
    }

    /// Request `k` of the stream: a uniform draw from the pool.
    pub fn request(&self, k: u64) -> Line {
        let mut rng = self.rng(k, 0);
        self.pool[rng.below(self.pool.len() as u64) as usize].clone()
    }

    /// The pause a client takes after request `k` before sending its
    /// next one, uniform in [0, 25) ms. Without it, back-to-back requests
    /// phase-lock with the servers' 25 ms accept poll and the kernel's
    /// 4 ms timer tick, and latency becomes a comb of 4 ms steps whose
    /// percentiles jump a step from run to run.
    pub fn think_time(&self, k: u64) -> Duration {
        Duration::from_secs_f64(0.025 * self.rng(k, 1).next_f64())
    }
}

/// The envelope id of probe `j` of request `k`: unique within a run, so
/// replies that arrive in completion order are matched by id.
pub fn envelope_id(k: u64, j: usize) -> u64 {
    2 * k + j as u64
}

/// A protocol-v2 envelope with no deadline.
pub fn envelope(id: u64, request: EvalRequest) -> Envelope {
    Envelope {
        id,
        v: Some(PROTOCOL_VERSION),
        deadline_ms: None,
        request,
    }
}

/// The envelopes of request `k`.
pub fn envelopes(k: u64, line: Line) -> Vec<Envelope> {
    line.into_iter()
        .enumerate()
        .map(|(j, req)| envelope(envelope_id(k, j), req))
        .collect()
}

/// One probe pair of a `paper_flow` search: a tap and CID corner, an
/// oscillator-jitter budget in the climb's bracket and a margin in the
/// margin climb's, drawn log-uniformly (both climbs are geometric), at
/// `+margin` and `-margin`. The search visits a path through this box;
/// drawing over the whole box gives every seed the same kind of probe.
fn probe_pair(rng: &mut SplitMix64) -> Line {
    let opt = OptimizeSpec::paper_flow();
    let log_uniform = |rng: &mut SplitMix64, lo: f64, hi: f64| lo * (hi / lo).powf(rng.next_f64());
    let tap = rng.below(opt.taps.len() as u64) as u8;
    let cid_max = opt.cids[rng.below(opt.cids.len() as u64) as usize];
    let ckj_rms = log_uniform(rng, opt.ckj_lo, opt.ckj_hi);
    let margin = log_uniform(rng, opt.freq_margin, opt.margin_hi);
    [margin, -margin]
        .into_iter()
        .map(|freq_offset| EvalRequest::BerPoint {
            spec: opt.probe_spec(&ProbePoint {
                tap,
                cid_max,
                ckj_rms,
                freq_offset,
            }),
            sj: None,
        })
        .collect()
}

/// The [`JOURNAL_PAIRS`] distinct probe pairs of a seed.
fn journal(seed: u64) -> Vec<Line> {
    let mut rng = SplitMix64::new(seed ^ 0x6a6f_7572_6e61_6c00);
    let mut keys = HashSet::new();
    let mut out = Vec::with_capacity(JOURNAL_PAIRS);
    while out.len() < JOURNAL_PAIRS {
        let pair = probe_pair(&mut rng);
        if pair.iter().all(|req| keys.insert(req.cache_key())) {
            out.push(pair);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcco_api::json::{encode_batch, parse_client_line, ClientLine};

    fn wire(seed: u64, n: u64) -> Vec<String> {
        let stream = Stream::new(seed);
        (0..n)
            .map(|k| encode_batch(&envelopes(k, stream.request(k))))
            .collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(wire(7, 300), wire(7, 300));
        assert_ne!(wire(7, 300), wire(8, 300));
    }

    #[test]
    fn every_generated_request_validates_and_survives_the_wire() {
        let stream = Stream::new(3);
        for (k, line) in stream.pool().iter().cloned().enumerate() {
            for req in &line {
                if let Err(e) = req.validate() {
                    panic!("{req:?} fails validation: {e}");
                }
            }
            let text = encode_batch(&envelopes(k as u64, line.clone()));
            match parse_client_line(&text) {
                Ok(ClientLine::Requests(envs)) => {
                    let parsed: Line = envs.into_iter().map(|e| e.request).collect();
                    assert_eq!(parsed, line);
                }
                other => panic!("{text} parses as {other:?}"),
            }
        }
    }

    #[test]
    fn stream_stays_inside_its_distinct_journal() {
        let stream = Stream::new(5);
        let keys: HashSet<String> = stream
            .pool()
            .iter()
            .flatten()
            .map(EvalRequest::cache_key)
            .collect();
        assert_eq!(keys.len(), 2 * JOURNAL_PAIRS);
        assert!((0..1000)
            .flat_map(|k| stream.request(k))
            .all(|req| keys.contains(&req.cache_key())));
    }
}
