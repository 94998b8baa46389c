//! Property-style wire-format tests: randomly generated specs, requests
//! and envelopes survive encode → parse → encode with value *and* text
//! identity (text identity is the stronger claim: every `f64` must
//! round-trip bit-exactly through the shortest-representation encoder).
//!
//! A seeded LCG stands in for a property-testing framework so the cases
//! are deterministic and dependency-free.

use gcco_api::json::{
    check_unique_ids, encode_batch, encode_envelope, encode_model_spec, encode_request,
    encode_response, encode_result_line, parse_client_line, parse_model_spec, parse_request,
    parse_response, parse_result_line, ClientLine, Envelope, Json, PROTOCOL_VERSION,
};
use gcco_api::{
    BaselineMetric, BaselineOut, BaselineSpec, BestDesignOut, CdrArchKind, ChannelOut,
    ComboReportOut, DsimRunSpec, EvalRequest, EvalResponse, GccoError, JtolPointOut, ModelSpec,
    MultiChannelSpec, OptimizeOut, OptimizeSpec, PowerPointOut, PowerScanSpec, RunDistSpec,
    SizedCellOut, SjOverride,
};
use gcco_stat::{EdgeModel, SamplingTap};
use gcco_store::fnv1a_64;

/// Deterministic 64-bit LCG (Knuth's MMIX constants).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A finite f64 with a wide dynamic range (plus occasional exact
    /// decimals and denormal-ish magnitudes) — the values the encoder
    /// must reproduce bit-exactly.
    fn f64(&mut self) -> f64 {
        match self.below(5) {
            0 => (self.below(2001) as f64 - 1000.0) / 1000.0,
            1 => f64::from_bits(self.next() >> 12) * 1e-9,
            2 => (self.below(1 << 20) as f64) * 1e-15,
            3 => (self.below(100) as f64) / 7.0,
            _ => {
                let exp = self.below(61) as i32 - 30;
                (self.below(1000) as f64 + 1.0) * 10f64.powi(exp)
            }
        }
    }

    fn spec(&mut self) -> ModelSpec {
        let mut spec = ModelSpec::paper_table1();
        spec.dj_pp = self.f64().abs().min(0.9);
        spec.rj_rms = self.f64().abs().min(0.1);
        spec.ckj_rms = self.f64().abs().min(0.05);
        spec.cid_max = 1 + self.below(9) as u32;
        spec.grid_step = 1e-3 + (self.below(90) as f64) * 1e-4;
        spec.sj_pp = self.f64().abs().min(2.0);
        spec.sj_freq_norm = (self.f64().abs() + 1e-6).min(0.5);
        spec.freq_offset = self.f64() * 1e-2;
        spec.tap = if self.below(2) == 0 {
            SamplingTap::Standard
        } else {
            SamplingTap::Improved
        };
        spec.edge_model = if self.below(2) == 0 {
            EdgeModel::ResyncReferenced
        } else {
            EdgeModel::IndependentEdges
        };
        spec.include_slip = self.below(2) == 0;
        spec.run_dist = if self.below(2) == 0 {
            RunDistSpec::Geometric(1 + self.below(9) as u32)
        } else {
            let len = 1 + self.below(6) as usize;
            RunDistSpec::Counts((0..=len).map(|_| self.below(1000)).collect())
        };
        spec.gating_tau_ui = if self.below(3) == 0 {
            None
        } else {
            Some(0.5 + self.f64().abs().min(0.49))
        };
        spec
    }

    fn tap(&mut self) -> SamplingTap {
        if self.below(2) == 0 {
            SamplingTap::Standard
        } else {
            SamplingTap::Improved
        }
    }

    fn opt_f64(&mut self) -> Option<f64> {
        if self.below(3) == 0 {
            None
        } else {
            Some(self.f64().abs())
        }
    }

    /// One of the first four architectures. The pinned corpus predates
    /// `phase_interp` (appended fifth), and a draw over all five would
    /// change it; `json.rs`'s own round-trip test covers every arch.
    fn arch(&mut self) -> CdrArchKind {
        CdrArchKind::ALL[self.below(4) as usize]
    }

    fn request(&mut self) -> EvalRequest {
        match self.below(9) {
            0 => EvalRequest::BerPoint {
                spec: self.spec(),
                sj: if self.below(2) == 0 {
                    None
                } else {
                    Some(SjOverride {
                        amplitude_pp: self.f64().abs(),
                        freq_norm: self.f64().abs() + 1e-9,
                    })
                },
            },
            1 => EvalRequest::BerGrid {
                spec: self.spec(),
                amps_pp: (0..1 + self.below(5)).map(|_| self.f64().abs()).collect(),
                freqs_norm: (0..1 + self.below(5))
                    .map(|_| self.f64().abs() + 1e-9)
                    .collect(),
            },
            2 => EvalRequest::JtolCurve {
                spec: self.spec(),
                freqs_norm: (0..1 + self.below(5))
                    .map(|_| self.f64().abs() + 1e-9)
                    .collect(),
                target_ber: 10f64.powi(-(1 + self.below(14) as i32)),
            },
            3 => EvalRequest::FtolSearch {
                spec: self.spec(),
                target_ber: 10f64.powi(-(1 + self.below(14) as i32)),
            },
            4 => EvalRequest::PowerScan {
                scan: PowerScanSpec {
                    bit_rate_gbps: self.f64().abs() + 0.1,
                    swing_v: self.f64().abs() + 0.1,
                    n_stages: 2 + self.below(6) as u32,
                    cid: 1 + self.below(7) as u32,
                    eta: self.f64().abs() + 0.1,
                    sigma_ui_target: self.f64().abs() + 1e-4,
                    iss_min_ua: 1.0 + self.f64().abs(),
                    iss_max_ua: 1000.0 + self.f64().abs(),
                    steps: 2 + self.below(30) as u32,
                    iss_sizing_max_a: self.f64().abs() + 1e-3,
                },
            },
            5 => EvalRequest::DsimRun {
                run: DsimRunSpec {
                    seed: self.below(1 << 53),
                    stages: 2 * (1 + self.below(4) as u32),
                    stage_delay_ps: self.f64().abs() + 1.0,
                    jitter_rel: (self.f64().abs() * 1e-3).min(0.29),
                    duration_ns: self.f64().abs().min(1e5) + 1.0,
                },
            },
            6 => EvalRequest::Optimize {
                opt: OptimizeSpec {
                    base: self.spec(),
                    target_ber: 10f64.powi(-(1 + self.below(14) as i32)),
                    budget_mw_per_gbps: self.f64().abs() + 0.1,
                    bit_rate_gbps: self.f64().abs() + 0.1,
                    freq_margin: 1e-3 + self.f64().abs().min(0.01),
                    margin_hi: 0.05 + self.f64().abs().min(0.4),
                    taps: match self.below(3) {
                        0 => vec![SamplingTap::Standard],
                        1 => vec![SamplingTap::Improved],
                        _ => vec![SamplingTap::Standard, SamplingTap::Improved],
                    },
                    cids: (0..1 + self.below(3)).map(|i| 3 + i as u32).collect(),
                    ckj_lo: 1e-3 + self.f64().abs().min(1e-3),
                    ckj_hi: 0.01 + self.f64().abs().min(0.04),
                    rel_tol: 0.01 + self.f64().abs().min(0.5),
                    seed: self.below(1 << 53),
                    max_probes: 2 + self.below(1000),
                },
            },
            7 => EvalRequest::MultiChannel {
                mc: MultiChannelSpec {
                    channels: 1 + self.below(16) as u32,
                    mismatch_sigma: self.f64().abs().min(0.09),
                    ripple_rms_ui: self.f64().abs().min(0.4),
                    seed: self.below(1 << 53),
                    bit_rate_gbps: self.f64().abs() + 0.1,
                    target_ber: 10f64.powi(-(1 + self.below(14) as i32)),
                    spec: self.spec(),
                },
            },
            _ => EvalRequest::Baseline {
                arch: self.arch(),
                spec: BaselineSpec {
                    bits: 1000 + self.below(100_000) as u32,
                    seed: self.below(1 << 53),
                    bit_rate_gbps: self.f64().abs() + 0.1,
                    freq_offset: (self.f64() * 1e-2).clamp(-0.2, 0.2),
                    kp: (self.f64().abs() + 1e-4).min(0.5),
                    ki: self.f64().abs().min(0.1),
                    sj_amp_pp: self.f64().abs().min(2.0),
                    sj_freq_norm: (self.f64().abs() + 1e-6).min(0.5),
                    rj_rms_ui: self.f64().abs().min(0.2),
                },
                metric: match self.below(3) {
                    0 => BaselineMetric::Track,
                    1 => BaselineMetric::CaptureRange {
                        hi: (self.f64().abs() + 1e-4).min(0.2),
                    },
                    _ => BaselineMetric::JtolPoint {
                        freq_norm: (self.f64().abs() + 1e-6).min(0.5),
                    },
                },
            },
        }
    }

    /// One to four envelopes: the batch corpus of
    /// `envelopes_batches_and_result_lines_round_trip`.
    fn envelopes(&mut self) -> Vec<Envelope> {
        (0..1 + self.below(4))
            .map(|_| Envelope {
                id: self.below(1 << 53),
                // The version gate accepts only the current protocol, so
                // the round-trip space is v:2 envelopes.
                v: Some(PROTOCOL_VERSION),
                deadline_ms: if self.below(2) == 0 {
                    None
                } else {
                    Some(self.below(100_000))
                },
                request: self.request(),
            })
            .collect()
    }

    fn response(&mut self) -> EvalResponse {
        match self.below(9) {
            0 => EvalResponse::Scalar { value: self.f64() },
            1 => EvalResponse::Grid {
                rows: (0..1 + self.below(4))
                    .map(|_| (0..1 + self.below(4)).map(|_| self.f64()).collect())
                    .collect(),
            },
            2 => EvalResponse::Jtol {
                points: (0..1 + self.below(5))
                    .map(|_| JtolPointOut {
                        freq_norm: self.f64().abs(),
                        amplitude_pp: self.f64().abs(),
                        censored: self.below(2) == 0,
                    })
                    .collect(),
            },
            3 => EvalResponse::Ftol { value: self.f64() },
            4 => EvalResponse::Power {
                sized: if self.below(3) == 0 {
                    None
                } else {
                    Some(SizedCellOut {
                        iss_a: self.f64().abs(),
                        swing_v: self.f64().abs(),
                        delay_fs: self.below(1_000_000) as i64,
                    })
                },
                points: (0..self.below(5))
                    .map(|_| PowerPointOut {
                        iss_a: self.f64().abs(),
                        ring_power_mw: self.f64().abs(),
                        sigma_ui: self.f64().abs(),
                    })
                    .collect(),
            },
            5 => EvalResponse::Dsim {
                run: gcco_api::DsimRunOut {
                    period_ps_mean: self.f64().abs(),
                    period_ps_rms: self.f64().abs(),
                    rising_edges: self.below(100_000),
                    events: self.below(10_000_000),
                },
            },
            6 => EvalResponse::Optimize {
                out: OptimizeOut {
                    best: if self.below(3) == 0 {
                        None
                    } else {
                        Some(BestDesignOut {
                            spec: self.spec(),
                            mw_per_gbps: self.f64().abs(),
                            worst_ber: self.f64().abs().min(1.0),
                            margin: self.f64().abs().min(0.4),
                            settling_ui: self.f64().abs(),
                        })
                    },
                    per_combo: (0..self.below(5))
                        .map(|_| ComboReportOut {
                            tap: self.tap(),
                            cid_max: 1 + self.below(8) as u32,
                            ckj_rms: self.opt_f64(),
                            mw_per_gbps: self.opt_f64(),
                            worst_ber: self.opt_f64(),
                            probes: self.below(1000),
                        })
                        .collect(),
                    probes: self.below(10_000),
                    store_hits: self.below(10_000),
                    converged: self.below(2) == 0,
                },
            },
            7 => EvalResponse::Baseline {
                out: BaselineOut {
                    lock_bits: if self.below(3) == 0 {
                        None
                    } else {
                        Some(self.below(1 << 40))
                    },
                    errors: self.below(1 << 40),
                    updates: self.below(1 << 40),
                    residual_rms_ui: self.opt_f64(),
                    capture_range: self.opt_f64(),
                    jtol_amp_pp: self.opt_f64(),
                },
            },
            _ => EvalResponse::MultiChannel {
                channels: (0..self.below(8))
                    .map(|i| ChannelOut {
                        index: i as u32,
                        freq_offset: self.f64() * 1e-2,
                        ber: self.f64().abs().min(1.0),
                        settling_ui: self.f64().abs(),
                    })
                    .collect(),
                worst_ber: self.f64().abs().min(1.0),
                yield_pct: (self.below(101)) as f64,
                mw_per_gbps: if self.below(3) == 0 {
                    None
                } else {
                    Some(self.f64().abs())
                },
                within_budget: self.below(2) == 0,
            },
        }
    }
}

const CASES: u64 = 300;

#[test]
fn model_specs_round_trip_bit_exactly() {
    let mut rng = Lcg(0x5eed_0001);
    for case in 0..CASES {
        let spec = rng.spec();
        let text = encode_model_spec(&spec);
        let parsed = parse_model_spec(&Json::parse(&text).expect("self-encoded JSON parses"))
            .unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
        assert_eq!(parsed, spec, "case {case}: value drift\n{text}");
        assert_eq!(
            encode_model_spec(&parsed),
            text,
            "case {case}: text not a fixed point"
        );
        assert_eq!(parsed.cache_key(), spec.cache_key(), "case {case}");
    }
}

#[test]
fn requests_round_trip_bit_exactly() {
    let mut rng = Lcg(0x5eed_0002);
    for case in 0..CASES {
        let req = rng.request();
        let text = encode_request(&req);
        let parsed = parse_request(&Json::parse(&text).expect("self-encoded JSON parses"))
            .unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
        assert_eq!(parsed, req, "case {case}: value drift\n{text}");
        assert_eq!(
            encode_request(&parsed),
            text,
            "case {case}: text not a fixed point"
        );
    }
}

#[test]
fn responses_round_trip_bit_exactly() {
    let mut rng = Lcg(0x5eed_0003);
    for case in 0..CASES {
        let resp = rng.response();
        let text = encode_response(&resp);
        let parsed = parse_response(&Json::parse(&text).expect("self-encoded JSON parses"))
            .unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
        assert_eq!(parsed, resp, "case {case}: value drift\n{text}");
        assert_eq!(
            encode_response(&parsed),
            text,
            "case {case}: text not a fixed point"
        );
    }
}

#[test]
fn envelopes_batches_and_result_lines_round_trip() {
    let mut rng = Lcg(0x5eed_0004);
    for case in 0..50 {
        let envs = rng.envelopes();

        // Single envelope line.
        let one = parse_client_line(&encode_envelope(&envs[0])).expect("envelope parses");
        assert_eq!(
            one,
            ClientLine::Requests(vec![envs[0].clone()]),
            "case {case}"
        );

        // Batch line.
        let batch = parse_client_line(&encode_batch(&envs)).expect("batch parses");
        assert_eq!(batch, ClientLine::Requests(envs.clone()), "case {case}");

        // Result lines, both arms.
        let ok_line = encode_result_line(envs[0].id, &Ok(rng.response()));
        let ok = parse_result_line(&ok_line).expect("ok line parses");
        assert_eq!(ok.id, envs[0].id);
        assert!(ok.result.is_ok(), "case {case}: {ok_line}");

        let err_line = encode_result_line(7, &Err(GccoError::QueueFull { capacity: 3 }));
        let err = parse_result_line(&err_line).expect("err line parses");
        let (kind, detail) = err.result.expect_err("an err line decodes to Err");
        assert_eq!(kind, "queue_full");
        assert!(detail.contains('3'), "case {case}: {detail}");
    }
}

/// Known-answer FNV-1a-64 of the encoded text of every corpus above:
/// 300 model specs, 300 requests, 300 responses, and 50 cases of
/// envelope, batch and result lines.
///
/// The round-trip tests only check that encode and parse agree with each
/// other; a change to both at once would still pass them. This pin is
/// the reference for the wire bytes themselves: every store journal and
/// router hop depends on them. If it fires, the wire format changed.
#[test]
fn encoded_corpora_hash_is_pinned() {
    let mut text = String::new();
    let mut rng = Lcg(0x5eed_0001);
    for _ in 0..CASES {
        text.push_str(&encode_model_spec(&rng.spec()));
        text.push('\n');
    }
    let mut rng = Lcg(0x5eed_0002);
    for _ in 0..CASES {
        text.push_str(&encode_request(&rng.request()));
        text.push('\n');
    }
    let mut rng = Lcg(0x5eed_0003);
    for _ in 0..CASES {
        text.push_str(&encode_response(&rng.response()));
        text.push('\n');
    }
    let mut rng = Lcg(0x5eed_0004);
    for _ in 0..50 {
        let envs = rng.envelopes();
        for line in [
            encode_envelope(&envs[0]),
            encode_batch(&envs),
            encode_result_line(envs[0].id, &Ok(rng.response())),
            encode_result_line(7, &Err(GccoError::QueueFull { capacity: 3 })),
        ] {
            text.push_str(&line);
            text.push('\n');
        }
    }
    assert_eq!(
        fnv1a_64(text.as_bytes()),
        0xd3e1_5949_d93f_9630,
        "wire text drifted"
    );
}

#[test]
fn hostile_lines_error_without_panicking() {
    let hostile = [
        "",
        "{",
        "}",
        "null",
        "[1,2,",
        "{\"batch\":[]}",
        "{\"id\":1}",
        "{\"id\":-1,\"request\":{\"type\":\"ber_point\"}}",
        "{\"request\":{\"type\":\"nope\"}}",
        "{\"cmd\":3}",
        "\u{0}\u{0}\u{0}",
        "{\"id\":1,\"request\":{\"type\":\"ber_grid\",\"spec\":{}}}",
        "{\"id\":1,\"v\":1,\"request\":{\"type\":\"dsim_run\"}}",
        "{\"id\":1,\"v\":3,\"request\":{\"type\":\"dsim_run\"}}",
        "{\"id\":1,\"v\":\"two\",\"request\":{\"type\":\"dsim_run\"}}",
        "{\"id\":1,\"v\":-1,\"request\":{\"type\":\"dsim_run\"}}",
        "{\"id\":1,\"v\":2.5,\"request\":{\"type\":\"dsim_run\"}}",
    ];
    for line in hostile {
        assert!(
            parse_client_line(line).is_err(),
            "{line:?} must be rejected"
        );
    }

    // A u32 field one wrap past u32::MAX must not be read as its low 32
    // bits: each base line parses, and the same line with the field
    // raised by 2^32 is a parse error.
    let envelope = |request| {
        encode_envelope(&Envelope {
            id: 1,
            v: Some(PROTOCOL_VERSION),
            deadline_ms: None,
            request,
        })
    };
    for (base, field, wrapped) in [
        (
            envelope(EvalRequest::ber_point(ModelSpec::paper_table1())),
            "\"cid_max\":5",
            "\"cid_max\":4294967301",
        ),
        (
            envelope(EvalRequest::baseline(
                CdrArchKind::BangBang,
                BaselineSpec {
                    bits: 1000,
                    ..BaselineSpec::typical(CdrArchKind::BangBang)
                },
                BaselineMetric::Track,
            )),
            "\"bits\":1000",
            "\"bits\":4294968296",
        ),
        (
            envelope(EvalRequest::multi_channel(MultiChannelSpec::paper_quad())),
            "\"channels\":4",
            "\"channels\":4294967300",
        ),
    ] {
        assert!(base.contains(field), "{base}");
        assert!(parse_client_line(&base).is_ok(), "{base}");
        let line = base.replacen(field, wrapped, 1);
        let err = parse_client_line(&line).expect_err("out-of-range u32 must be rejected");
        assert_eq!(err.kind(), "parse_error", "{line}: {err:?}");
    }
}

/// One MiB of text, the size at which a parse that rescans the rest of
/// the line per character takes tens of seconds in a debug build.
const MIB: usize = 1 << 20;

#[test]
fn a_one_mebibyte_command_parses_in_linear_time() {
    let line = format!("{{\"cmd\":\"{}\"}}", "x".repeat(MIB));
    let started = std::time::Instant::now();
    let parsed = parse_client_line(&line).expect("a valid command line");
    let took = started.elapsed();
    assert_eq!(parsed, ClientLine::Command("x".repeat(MIB)));
    assert!(took.as_secs_f64() < 2.0, "1 MiB command took {took:?}");
}

#[test]
fn a_one_mebibyte_unknown_field_is_ignored() {
    let env = Envelope {
        id: 7,
        v: Some(PROTOCOL_VERSION),
        deadline_ms: None,
        request: EvalRequest::ber_point(ModelSpec::paper_table1()),
    };
    let plain = encode_envelope(&env);
    let padded = plain.replacen('{', &format!("{{\"pad\":\"{}\",", "x".repeat(MIB)), 1);
    assert_eq!(padded.len(), plain.len() + MIB + "\"pad\":\"\",".len());
    let started = std::time::Instant::now();
    let parsed = parse_client_line(&padded).expect("a valid envelope line");
    let took = started.elapsed();
    assert_eq!(parsed, ClientLine::Requests(vec![env]));
    assert!(took.as_secs_f64() < 2.0, "padded envelope took {took:?}");
}

/// Parsed values and error texts, offsets included, recorded from the
/// character-at-a-time string parser: a faster scan must reproduce each.
#[test]
fn string_cases_parse_as_pinned() {
    let cases: &[(&str, Result<&str, &str>)] = &[
        // Raw 2-, 3- and 4-byte UTF-8, alone and between ASCII runs.
        (
            "\"a\u{df}b\u{20ac}c\u{1d11e}d\"",
            Ok("a\u{df}b\u{20ac}c\u{1d11e}d"),
        ),
        ("\"\u{df}\u{20ac}\u{1d11e}\"", Ok("\u{df}\u{20ac}\u{1d11e}")),
        // Every one-character escape.
        (
            "\"q\\\"b\\\\s\\/b\\bf\\fn\\nr\\rt\\t\"",
            Ok("q\"b\\s/b\u{8}f\u{c}n\nr\rt\t"),
        ),
        ("\"\\u00e9\"", Ok("\u{e9}")),
        ("\"caf\\u00e9!\"", Ok("caf\u{e9}!")),
        ("\"\\ud834\\udd1e\"", Ok("\u{1d11e}")),
        ("\"\"", Ok("")),
        ("\"\u{7f}\"", Ok("\u{7f}")),
        // A lone high surrogate, then a bad low one.
        ("\"x\\ud834\"", Err("unpaired surrogate at byte 8")),
        ("\"x\\ud834y\"", Err("unpaired surrogate at byte 8")),
        (
            "\"x\\ud834\\u0041\"",
            Err("invalid low surrogate at byte 14"),
        ),
        ("\"x\\udc00\"", Err("invalid unicode escape at byte 8")),
        // Raw control bytes mid-string, after ASCII and after UTF-8.
        (
            "\"ab\u{1}cd\"",
            Err("unescaped control character at byte 3"),
        ),
        (
            "\"\u{e9}\u{1f}\"",
            Err("unescaped control character at byte 3"),
        ),
        (
            "\"tab\tinside\"",
            Err("unescaped control character at byte 4"),
        ),
        // Unterminated strings and broken escapes.
        ("\"abc", Err("unterminated string at byte 4")),
        ("\"\u{20ac}abc", Err("unterminated string at byte 7")),
        ("\"ab\\x\"", Err("unknown escape at byte 5")),
        ("\"ab\\", Err("dangling escape at byte 4")),
        ("\"ab\\u12\"", Err("truncated \\u escape at byte 5")),
        ("\"ab\\u12g4\"", Err("invalid \\u escape at byte 5")),
    ];
    for &(text, expected) in cases {
        match (Json::parse(text), expected) {
            (Ok(parsed), Ok(want)) => assert_eq!(parsed, Json::Str(want.to_string()), "{text:?}"),
            (Err(e), Err(want)) => {
                assert_eq!(e.kind(), "parse_error", "{text:?}");
                assert_eq!(e.detail(), want, "{text:?}");
            }
            (got, want) => panic!("{text:?}: got {got:?}, want {want:?}"),
        }
    }
}

/// Regression for a quadratic duplicate-id check: 50,001 ids took about
/// 13 s in a debug build.
#[test]
fn check_unique_ids_is_linear_and_names_the_first_repeat() {
    let envelope = |id| Envelope {
        id,
        v: Some(PROTOCOL_VERSION),
        deadline_ms: None,
        request: EvalRequest::ber_point(ModelSpec::paper_table1()),
    };
    let mut envelopes: Vec<Envelope> = (0..50_000).map(envelope).collect();
    assert!(check_unique_ids(&envelopes).is_ok());
    envelopes.push(envelope(49_998));
    let started = std::time::Instant::now();
    let result = check_unique_ids(&envelopes);
    let took = started.elapsed();
    assert!(
        matches!(result, Err(GccoError::DuplicateId { id: 49_998 })),
        "{result:?}"
    );
    assert!(took.as_secs_f64() < 1.0, "50,001 ids took {took:?}");
    // With two ids repeated, the one whose second copy comes first is
    // named.
    let batch: Vec<Envelope> = [1, 2, 3, 3, 1].into_iter().map(envelope).collect();
    assert!(matches!(
        check_unique_ids(&batch),
        Err(GccoError::DuplicateId { id: 3 })
    ));
}
