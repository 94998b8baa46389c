//! Persistent-tier parity tests (ISSUE 4 acceptance): for **every**
//! `EvalRequest` kind, a response served from the disk store compares
//! byte-identical — via the wire codec — to a freshly computed one, both
//! within one process and across a store reopen (the restart case the
//! tier exists for).

use gcco_api::json::encode_response;
use gcco_api::{
    BaselineMetric, BaselineSpec, CdrArchKind, DeadlineGuard, DsimRunSpec, Engine, EngineConfig,
    EvalRequest, ModelSpec, MultiChannelSpec, PowerScanSpec, SjOverride,
};
use gcco_store::Store;
use std::path::PathBuf;
use std::sync::Arc;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gcco-store-parity-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn engine() -> Engine {
    Engine::with_config(EngineConfig {
        cache_capacity: 4,
        workers: Some(1),
    })
}

/// One cheap request per kind — every dispatch arm crosses the store.
fn one_request_per_kind() -> Vec<EvalRequest> {
    let spec = ModelSpec::paper_table1();
    vec![
        EvalRequest::BerPoint {
            spec: spec.clone(),
            sj: Some(SjOverride {
                amplitude_pp: 0.5,
                freq_norm: 1e-3,
            }),
        },
        EvalRequest::BerGrid {
            spec: spec.clone(),
            amps_pp: vec![0.2, 0.8],
            freqs_norm: vec![1e-3, 0.1],
        },
        EvalRequest::JtolCurve {
            spec: spec.clone(),
            freqs_norm: vec![1e-3, 0.3],
            target_ber: 1e-12,
        },
        EvalRequest::FtolSearch {
            spec,
            target_ber: 1e-12,
        },
        EvalRequest::PowerScan {
            scan: PowerScanSpec {
                steps: 5,
                ..PowerScanSpec::paper_design()
            },
        },
        EvalRequest::DsimRun {
            run: DsimRunSpec {
                duration_ns: 20.0,
                ..DsimRunSpec::paper_ring()
            },
        },
        EvalRequest::Baseline {
            arch: CdrArchKind::BangBang,
            spec: BaselineSpec {
                bits: 5_000,
                ..BaselineSpec::typical(CdrArchKind::BangBang)
            },
            metric: BaselineMetric::Track,
        },
    ]
}

#[test]
fn every_kind_round_trips_bit_exactly_through_the_store() {
    let dir = tmp_dir("kinds");
    let requests = one_request_per_kind();

    // Reference: a store-less engine.
    let plain = engine();
    let fresh: Vec<String> = requests
        .iter()
        .map(|r| encode_response(&plain.evaluate(r).expect("fresh evaluation")))
        .collect();

    // Cold store: every request misses, computes, appends.
    let cold = engine().with_store(Arc::new(Store::open(&dir).unwrap()));
    for (req, want) in requests.iter().zip(&fresh) {
        let got = encode_response(&cold.evaluate(req).expect("cold evaluation"));
        assert_eq!(&got, want, "{}: cold store changed the bytes", req.kind());
    }
    let obs = cold.obs();
    assert_eq!(
        obs.counter("gcco_store_misses_total").get(),
        requests.len() as u64
    );
    assert_eq!(
        obs.counter("gcco_store_appends_total").get(),
        requests.len() as u64
    );
    assert_eq!(obs.counter("gcco_store_hits_total").get(), 0);
    // Re-evaluating in-process now hits the journal, bit-identically.
    for (req, want) in requests.iter().zip(&fresh) {
        let got = encode_response(&cold.evaluate(req).expect("hit"));
        assert_eq!(&got, want, "{}: in-process hit drifted", req.kind());
    }
    assert_eq!(
        obs.counter("gcco_store_hits_total").get(),
        requests.len() as u64
    );
    drop(cold);

    // Reopened store in a fresh engine: pure disk hits — the engine never
    // builds a context, proving the values came from the journal.
    let warm = engine().with_store(Arc::new(Store::open(&dir).unwrap()));
    for (req, want) in requests.iter().zip(&fresh) {
        let got = encode_response(&warm.evaluate(req).expect("warm evaluation"));
        assert_eq!(&got, want, "{}: reopened store drifted", req.kind());
    }
    let obs = warm.obs();
    assert_eq!(
        obs.counter("gcco_store_hits_total").get(),
        requests.len() as u64
    );
    assert_eq!(obs.counter("gcco_store_misses_total").get(), 0);
    assert_eq!(
        warm.context_builds(),
        0,
        "a fully warm store must never build a context"
    );
    assert_eq!(
        obs.counter("gcco_store_recovered_records").get(),
        requests.len() as u64
    );
    assert_eq!(obs.counter("gcco_store_torn_bytes").get(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The multi-channel tentpole's store contract: each lane is journaled
/// under its own canonical `ber_point` key *in addition to* the outer
/// `multi_channel` response, so a campaign killed mid-group resumes from
/// the finished lanes — and every replay path is byte-identical to the
/// store-less reference.
#[test]
fn multi_channel_journals_per_lane_and_resumes_partially() {
    let dir = tmp_dir("mc");
    let mc = MultiChannelSpec::paper_quad();
    let req = EvalRequest::MultiChannel { mc: mc.clone() };

    // Reference: a store-less engine.
    let plain = engine();
    let want = encode_response(&plain.evaluate(&req).expect("fresh evaluation"));

    // Cold store: the outer response plus one BerPoint per lane land in
    // the journal, each under its canonical key.
    let cold = engine().with_store(Arc::new(Store::open(&dir).unwrap()));
    let got = encode_response(&cold.evaluate(&req).expect("cold evaluation"));
    assert_eq!(got, want, "cold store changed the bytes");
    {
        let store = cold.store().expect("store attached");
        assert_eq!(store.len(), mc.channels as usize + 1);
        for lane in mc.channel_specs() {
            let key = EvalRequest::BerPoint {
                spec: lane,
                sj: None,
            }
            .cache_key();
            assert!(
                store.contains(&key),
                "every lane journaled under its canonical ber_point key"
            );
        }
        assert!(store.contains(&req.cache_key()), "outer response journaled");
    }
    drop(cold);

    // Partial resume: a fresh store pre-seeded with only two lane results
    // (a campaign killed mid-group). The group completes, replays the
    // finished lanes from disk, and still matches the reference bytes.
    let dir2 = tmp_dir("mc-partial");
    {
        let pre = engine().with_store(Arc::new(Store::open(&dir2).unwrap()));
        for lane in mc.channel_specs().into_iter().take(2) {
            pre.evaluate(&EvalRequest::BerPoint {
                spec: lane,
                sj: None,
            })
            .expect("pre-seeded lane");
        }
    }
    let resumed = engine().with_store(Arc::new(Store::open(&dir2).unwrap()));
    let got = encode_response(&resumed.evaluate(&req).expect("resumed evaluation"));
    assert_eq!(got, want, "partial resume must replay bit-identically");
    assert_eq!(
        resumed.obs().counter("gcco_store_hits_total").get(),
        2,
        "the two pre-journaled lanes replay from disk"
    );
    assert_eq!(
        resumed.context_builds(),
        2,
        "only the two missing lanes compute"
    );

    // Warm reopen of the complete journal: one outer hit, zero builds.
    let warm = engine().with_store(Arc::new(Store::open(&dir).unwrap()));
    let got = encode_response(&warm.evaluate(&req).expect("warm evaluation"));
    assert_eq!(got, want, "reopened store drifted");
    assert_eq!(warm.obs().counter("gcco_store_hits_total").get(), 1);
    assert_eq!(
        warm.context_builds(),
        0,
        "a fully warm multi-channel replay must never build a context"
    );
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&dir2).unwrap();
}

/// Baseline responses replay bit-identically through the journal, for
/// every architecture and metric shape — including the bisected metrics,
/// whose dozens of internal runs collapse into one journaled record.
#[test]
fn baseline_responses_replay_bit_identically() {
    let dir = tmp_dir("baseline");
    let requests: Vec<EvalRequest> = CdrArchKind::ALL
        .into_iter()
        .flat_map(|arch| {
            let spec = BaselineSpec {
                bits: 5_000,
                ..BaselineSpec::typical(arch)
            };
            [
                EvalRequest::Baseline {
                    arch,
                    spec,
                    metric: BaselineMetric::Track,
                },
                EvalRequest::Baseline {
                    arch,
                    spec,
                    metric: BaselineMetric::JtolPoint { freq_norm: 0.01 },
                },
            ]
        })
        .collect();

    let plain = engine();
    let fresh: Vec<String> = requests
        .iter()
        .map(|r| encode_response(&plain.evaluate(r).expect("fresh evaluation")))
        .collect();

    let cold = engine().with_store(Arc::new(Store::open(&dir).unwrap()));
    for (req, want) in requests.iter().zip(&fresh) {
        let got = encode_response(&cold.evaluate(req).expect("cold evaluation"));
        assert_eq!(&got, want, "cold store changed the bytes");
        assert!(
            cold.store().unwrap().contains(&req.cache_key()),
            "journaled under the canonical key"
        );
    }
    drop(cold);

    let warm = engine().with_store(Arc::new(Store::open(&dir).unwrap()));
    for (req, want) in requests.iter().zip(&fresh) {
        let got = encode_response(&warm.evaluate(req).expect("warm evaluation"));
        assert_eq!(&got, want, "reopened store drifted");
    }
    let obs = warm.obs();
    assert_eq!(
        obs.counter("gcco_store_hits_total").get(),
        requests.len() as u64
    );
    assert_eq!(
        obs.counter_with("gcco_baseline_runs_total", "arch", "bang_bang")
            .get(),
        0,
        "warm replays never rerun a loop"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_rotted_journal_value_is_recomputed_and_healed() {
    let dir = tmp_dir("rot");
    let request = EvalRequest::ber_point(ModelSpec::paper_table1());
    let truth = encode_response(&engine().evaluate(&request).unwrap());
    let engine = engine().with_store(Arc::new(Store::open(&dir).unwrap()));
    engine.evaluate(&request).unwrap();

    // Change one digit of the journaled value after open: the value
    // still decodes, to a different BER.
    let journal = engine.store().unwrap().journal_path().to_path_buf();
    let mut bytes = std::fs::read(&journal).unwrap();
    let value_at = bytes
        .windows(truth.len())
        .position(|w| w == truth.as_bytes())
        .expect("the value is journaled verbatim");
    let digit = value_at
        + truth
            .find(|c: char| c.is_ascii_digit())
            .expect("a BER has digits");
    bytes[digit] = if bytes[digit] == b'1' { b'2' } else { b'1' };
    std::fs::write(&journal, &bytes).unwrap();

    let counter = |name: &str| engine.obs().counter(name).get();
    let answer = encode_response(&engine.evaluate(&request).unwrap());
    assert_eq!(answer, truth, "a rotted value must never be served");
    assert_eq!(counter("gcco_store_errors_total"), 1);
    assert_eq!(counter("gcco_store_degraded_total"), 1);
    // The recomputed value was re-journaled: the next answer is a hit.
    let hits = counter("gcco_store_hits_total");
    let answer = encode_response(&engine.evaluate(&request).unwrap());
    assert_eq!(answer, truth);
    assert_eq!(counter("gcco_store_hits_total"), hits + 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn errors_are_never_journaled() {
    let dir = tmp_dir("errors");
    let engine = engine().with_store(Arc::new(Store::open(&dir).unwrap()));
    let bad = EvalRequest::FtolSearch {
        spec: ModelSpec {
            freq_offset: 0.9,
            ..ModelSpec::paper_table1()
        },
        target_ber: 1e-12,
    };
    assert_eq!(
        engine.evaluate(&bad).expect_err("must reject").kind(),
        "invalid_spec"
    );
    // A tripped deadline aborts before (or instead of) the append.
    let slow = EvalRequest::BerGrid {
        spec: ModelSpec::paper_table1(),
        amps_pp: vec![0.2],
        freqs_norm: vec![1e-3],
    };
    assert_eq!(
        engine
            .evaluate_with_deadline(&slow, DeadlineGuard::after_ms(0))
            .expect_err("zero deadline trips")
            .kind(),
        "deadline_exceeded"
    );
    let store = engine.store().expect("store attached");
    assert!(store.is_empty(), "no failed evaluation may be journaled");
    assert_eq!(engine.obs().counter("gcco_store_appends_total").get(), 0);
    // After the deadline trip, the same request under no deadline
    // computes and journals normally.
    engine.evaluate(&slow).expect("unlimited evaluation");
    assert_eq!(engine.store().unwrap().len(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn store_metrics_absent_without_a_store() {
    let plain = engine();
    plain
        .evaluate(&EvalRequest::DsimRun {
            run: DsimRunSpec {
                duration_ns: 10.0,
                ..DsimRunSpec::paper_ring()
            },
        })
        .unwrap();
    let text = plain.obs().render_prometheus();
    assert!(
        !text.contains("gcco_store_"),
        "store counters must only exist once a store is attached:\n{text}"
    );
}
