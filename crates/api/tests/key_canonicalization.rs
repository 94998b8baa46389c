//! Canonicalization property tests for the content keys the persistent
//! store depends on (ISSUE 4, satellite 3).
//!
//! The store's correctness rests on two properties of
//! `ModelSpec::cache_key` / `EvalRequest::cache_key`:
//!
//! 1. **Invariance** — wire-level noise that cannot change semantics
//!    (JSON field order, float formatting such as `1e-1` vs `0.1`) maps
//!    to the identical key, so a client re-encoding a request never
//!    forces a recompute.
//! 2. **Separation** — semantically distinct specs/requests never share
//!    a key (keys embed exact float bit patterns, so collisions are
//!    structurally impossible, not merely improbable).
//!
//! Known-answer FNV-1a-64 hashes of the paper-default spec key and of one
//! request key per variant and payload are pinned so any accidental change
//! to the canonicalization fails loudly here instead of silently orphaning
//! every existing journal.

use gcco_api::json::{encode_model_spec, encode_request, parse_model_spec, parse_request, Json};
use gcco_api::{
    BaselineMetric, BaselineSpec, CdrArchKind, DsimRunSpec, EvalRequest, ModelSpec,
    MultiChannelSpec, OptimizeSpec, PowerScanSpec, RunDistSpec,
};
use gcco_stat::SamplingTap;
use gcco_store::fnv1a_64;
use std::collections::HashMap;
use std::fmt::Write;

/// Deterministic 64-bit LCG (Knuth's MMIX constants) — the same
/// dependency-free stand-in for a property-testing framework that
/// `json_roundtrip.rs` uses.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

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
}

/// Re-encodes a spec's canonical JSON with its top-level fields in
/// **reversed** order and every number re-formatted in scientific
/// notation — the two wire-level liberties JSON grants a client. Values
/// are untouched: Rust's `{:e}` prints the shortest scientific form,
/// which parses back to the identical bits.
fn reorder_and_reformat(spec: &ModelSpec) -> String {
    let canonical = encode_model_spec(spec);
    let parsed = Json::parse(&canonical).expect("self-encoded JSON parses");
    let mut fields: Vec<(String, String)> = match &parsed {
        Json::Obj(fields) => fields
            .iter()
            .map(|(name, value)| (name.clone(), emit_sci(value)))
            .collect(),
        other => panic!("spec must encode to an object, got {other:?}"),
    };
    fields.reverse();
    let mut out = String::from("{");
    for (i, (name, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{value}");
    }
    out.push('}');
    out
}

/// Emits `v` as JSON text with every number in `{:e}` scientific form.
fn emit_sci(v: &Json) -> String {
    match v {
        Json::Null => "null".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Num(x) => {
            // JSON has no standalone exponent-less integer constraint, but
            // `1e0`-style output must stay a valid JSON number: `{:e}`
            // yields e.g. `4e-1`, which JSON accepts.
            format!("{x:e}")
        }
        Json::Str(s) => format!("{s:?}"),
        Json::Arr(items) => {
            let inner: Vec<String> = items.iter().map(emit_sci).collect();
            format!("[{}]", inner.join(","))
        }
        Json::Obj(fields) => {
            let inner: Vec<String> = fields
                .iter()
                .map(|(name, value)| format!("\"{name}\":{}", emit_sci(value)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
    }
}

const CASES: u64 = 400;

#[test]
fn field_order_and_float_formatting_never_change_the_key() {
    let mut rng = Lcg(0x5eed_0010);
    for case in 0..CASES {
        let spec = rng.spec();
        let noisy = reorder_and_reformat(&spec);
        let reparsed = parse_model_spec(&Json::parse(&noisy).expect("reformatted JSON parses"))
            .unwrap_or_else(|e| panic!("case {case}: {e}\n{noisy}"));
        assert_eq!(
            reparsed.cache_key(),
            spec.cache_key(),
            "case {case}: wire noise changed the key\n{noisy}"
        );
        // And the same through a full request round-trip.
        let req = EvalRequest::FtolSearch {
            spec,
            target_ber: 1e-12,
        };
        let text = encode_request(&req);
        let req2 = parse_request(&Json::parse(&text).expect("request parses")).expect("parses");
        assert_eq!(req2.cache_key(), req.cache_key(), "case {case}");
    }
}

#[test]
fn distinct_specs_never_collide() {
    let mut rng = Lcg(0x5eed_0011);
    let mut seen: HashMap<String, ModelSpec> = HashMap::new();
    for case in 0..CASES {
        let spec = rng.spec();
        let key = spec.cache_key();
        if let Some(prior) = seen.get(&key) {
            assert_eq!(
                prior, &spec,
                "case {case}: two distinct specs share key {key}"
            );
        }
        seen.insert(key, spec);
    }
    assert!(
        seen.len() > CASES as usize / 2,
        "corpus must actually be diverse, got {} distinct keys",
        seen.len()
    );
}

#[test]
fn single_field_perturbations_separate_keys() {
    let base = ModelSpec::paper_table1();
    let key = base.cache_key();
    // One ULP on one float is a different model and must be a different key.
    let mut ulp = base.clone();
    ulp.dj_pp = f64::from_bits(ulp.dj_pp.to_bits() + 1);
    assert_ne!(ulp.cache_key(), key);
    // A request differing only in its non-spec payload separates too.
    let a = EvalRequest::FtolSearch {
        spec: base.clone(),
        target_ber: 1e-12,
    };
    let b = EvalRequest::FtolSearch {
        spec: base,
        target_ber: f64::from_bits(1e-12f64.to_bits() + 1),
    };
    assert_ne!(a.cache_key(), b.cache_key());
}

/// Pinned known-answer hash of the paper-default spec's canonical key.
///
/// If this assertion fires you have changed the canonicalization: every
/// journal written by an earlier build becomes unreachable (the store
/// would silently recompute everything). Either revert the key change or
/// bump the store's journal magic and re-pin this constant deliberately.
#[test]
fn paper_default_key_hash_is_pinned() {
    let key = ModelSpec::paper_table1().cache_key();
    assert_eq!(
        fnv1a_64(key.as_bytes()),
        0x31b2_4875_49d1_75ab,
        "canonical key drifted: {key}"
    );
}

/// One request per variant plus single-payload perturbations of several,
/// each with the pinned FNV-1a-64 of its `cache_key()`.
fn pinned_requests() -> Vec<(EvalRequest, u64)> {
    let spec = ModelSpec::paper_table1();
    let bang_bang = BaselineSpec::typical(CdrArchKind::BangBang);
    vec![
        (EvalRequest::ber_point(spec.clone()), 0x3917_c750_9a7c_af27),
        (
            EvalRequest::ber_point_at(spec.clone(), 0.1, 0.1),
            0xc1ab_5543_be4f_b912,
        ),
        (
            EvalRequest::ber_grid(spec.clone(), vec![0.1], vec![0.1]),
            0x637e_1916_c916_236a,
        ),
        (
            EvalRequest::ber_grid(spec.clone(), vec![0.1, 0.2], vec![0.1]),
            0xb6cd_de41_c783_83ef,
        ),
        (
            EvalRequest::jtol_curve(spec.clone(), vec![0.1], 1e-12),
            0xd59e_59d0_6b0c_aa16,
        ),
        (EvalRequest::ftol_search(spec, 1e-12), 0x26af_ed8c_5208_e679),
        (
            EvalRequest::power_scan(PowerScanSpec::paper_design()),
            0x3ae7_0e47_8d0a_b2ef,
        ),
        (
            EvalRequest::dsim_run(DsimRunSpec::paper_ring()),
            0x8a2e_23c3_9d8e_d16a,
        ),
        (
            EvalRequest::dsim_run(DsimRunSpec {
                seed: 2,
                ..DsimRunSpec::paper_ring()
            }),
            0x03e7_c7ba_338f_8655,
        ),
        (
            EvalRequest::multi_channel(MultiChannelSpec::paper_quad()),
            0x2e11_fd1f_e152_23ac,
        ),
        (
            EvalRequest::multi_channel(MultiChannelSpec {
                seed: 2,
                ..MultiChannelSpec::paper_quad()
            }),
            0x846c_7138_964e_9ae3,
        ),
        (
            EvalRequest::multi_channel(MultiChannelSpec {
                channels: 8,
                ..MultiChannelSpec::paper_quad()
            }),
            0x2e12_011f_e152_2a78,
        ),
        (
            EvalRequest::optimize(OptimizeSpec::paper_flow()),
            0xf2c8_5bce_2285_6df4,
        ),
        (
            EvalRequest::optimize(OptimizeSpec {
                seed: 2,
                ..OptimizeSpec::paper_flow()
            }),
            0x1234_978c_226b_45c1,
        ),
        (
            EvalRequest::optimize(OptimizeSpec {
                taps: vec![SamplingTap::Improved],
                ..OptimizeSpec::paper_flow()
            }),
            0xb5b3_9949_485f_159a,
        ),
        (
            EvalRequest::optimize(OptimizeSpec {
                cids: vec![4, 5, 6],
                ..OptimizeSpec::paper_flow()
            }),
            0xb667_07aa_b375_7b5a,
        ),
        (
            EvalRequest::baseline(CdrArchKind::BangBang, bang_bang, BaselineMetric::Track),
            0x0868_8a8e_9aa8_f146,
        ),
        (
            EvalRequest::baseline(CdrArchKind::BangBangFd, bang_bang, BaselineMetric::Track),
            0x0e22_8ab1_f290_5a02,
        ),
        (
            EvalRequest::baseline(
                CdrArchKind::BangBang,
                BaselineSpec {
                    seed: 2,
                    ..bang_bang
                },
                BaselineMetric::Track,
            ),
            0xf813_b95b_6a5f_8957,
        ),
        (
            EvalRequest::baseline(
                CdrArchKind::BangBang,
                bang_bang,
                BaselineMetric::CaptureRange { hi: 0.1 },
            ),
            0x9d23_7642_ef15_8cff,
        ),
        (
            EvalRequest::baseline(
                CdrArchKind::BangBang,
                bang_bang,
                BaselineMetric::JtolPoint { freq_norm: 0.01 },
            ),
            0x5701_3dbd_cd57_1482,
        ),
        (
            EvalRequest::baseline(
                CdrArchKind::PhaseInterp,
                BaselineSpec::typical(CdrArchKind::PhaseInterp),
                BaselineMetric::Track,
            ),
            0x3a9a_9b21_9db8_cb98,
        ),
    ]
}

/// Every request key is distinct, prefixed by its kind, a pure content
/// function, and pinned: the store journals responses under these keys,
/// so a drift orphans every journal an earlier build wrote.
#[test]
fn request_keys_are_distinct_and_pinned() {
    let pinned = pinned_requests();
    let keys: Vec<String> = pinned.iter().map(|(r, _)| r.cache_key()).collect();
    for (i, a) in keys.iter().enumerate() {
        assert!(a.starts_with(pinned[i].0.kind()), "{a}");
        for b in &keys[i + 1..] {
            assert_ne!(a, b, "distinct requests must never share a key");
        }
    }
    for ((req, pin), key) in pinned.iter().zip(&keys) {
        assert_eq!(req.clone().cache_key(), *key);
        assert_eq!(
            fnv1a_64(key.as_bytes()),
            *pin,
            "canonical key drifted: {key}"
        );
    }
}
