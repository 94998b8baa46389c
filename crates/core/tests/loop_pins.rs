//! Known-answer pins for the bang-bang and phase-interpolator loops.
//!
//! Each case tracks 20 kbit of PRBS7 from the worst-case half-UI start
//! and pins the update count, the sampling-error count, the lock bit
//! (bang-bang only) and an FNV-1a-64 over the bit patterns of the whole
//! phase-error trace. A change to either loop's arithmetic — or to the
//! order in which it records updates — moves at least one pin.

use gcco_core::{BangBangCdr, BangBangConfig, CdrArch, PhaseInterpCdr, PiConfig};
use gcco_signal::{BitStream, JitterConfig, Prbs, PrbsOrder, SinusoidalJitter};
use gcco_units::{Freq, Ui};

const SEEDS: [u64; 3] = [1, 2, 3];
const CASES: [&str; 4] = ["clean", "sj", "rj", "offset_200ppm"];

fn fnv1a_64(values: &[f64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn rate() -> Freq {
    Freq::from_gbps(2.5)
}

fn bits() -> BitStream {
    Prbs::new(PrbsOrder::P7).take_bits(20_000)
}

/// The jitter environment and frequency offset of one case.
fn case(name: &str) -> (JitterConfig, f64) {
    match name {
        "clean" => (JitterConfig::none(), 0.0),
        "sj" => (
            JitterConfig::none().with_sj(SinusoidalJitter::new(Ui::new(0.3), rate() * 0.001)),
            0.0,
        ),
        "rj" => (
            JitterConfig {
                rj_rms: Ui::new(0.03),
                ..JitterConfig::none()
            },
            0.0,
        ),
        "offset_200ppm" => (JitterConfig::none(), 200e-6),
        other => unreachable!("unknown case {other}"),
    }
}

/// `(updates, errors, lock bit, FNV-1a-64 of the phase-error bits)`.
type Pin = (usize, usize, Option<usize>, u64);

fn check(loop_name: &str, got: Vec<(String, Pin)>, want: &[Pin]) {
    assert_eq!(got.len(), want.len());
    for ((label, got), want) in got.iter().zip(want) {
        assert_eq!(got, want, "{loop_name} {label}");
    }
}

#[test]
fn bang_bang_traces_are_pinned() {
    let bits = bits();
    let mut got = Vec::new();
    for name in CASES {
        for seed in SEEDS {
            let (jitter, freq_offset) = case(name);
            let cdr = BangBangCdr::new(BangBangConfig {
                freq_offset,
                ..BangBangConfig::typical()
            });
            let r = cdr.track(&bits, rate(), &jitter, seed);
            let pin = (
                r.phase_error.len(),
                r.errors,
                r.lock_bits,
                fnv1a_64(&r.phase_error),
            );
            got.push((format!("{name} seed {seed}"), pin));
        }
    }
    check(
        "bang-bang",
        got,
        &[
            (10075, 0, Some(78), 0xfac5_7458_c91b_ff10),
            (10075, 0, Some(78), 0xfac5_7458_c91b_ff10),
            (10075, 0, Some(78), 0xfac5_7458_c91b_ff10),
            (10075, 0, Some(69), 0x516e_006c_326f_69bf),
            (10075, 0, Some(69), 0x516e_006c_326f_69bf),
            (10075, 0, Some(69), 0x516e_006c_326f_69bf),
            (10075, 2, Some(79), 0xe748_db55_6471_106b),
            (10075, 0, Some(80), 0x2c00_32b4_0a63_2a98),
            (10075, 3, Some(79), 0xfd83_29fd_9b6f_34f1),
            (10075, 1, Some(79), 0x2ddd_85c9_0313_b7e6),
            (10075, 1, Some(79), 0x2ddd_85c9_0313_b7e6),
            (10075, 1, Some(79), 0x2ddd_85c9_0313_b7e6),
        ],
    );
}

#[test]
fn phase_interp_traces_are_pinned() {
    let bits = bits();
    let mut got = Vec::new();
    for name in CASES {
        for seed in SEEDS {
            let (jitter, freq_offset) = case(name);
            let cdr = PhaseInterpCdr::new(PiConfig {
                freq_offset,
                ..PiConfig::typical()
            });
            let r = cdr.track(&bits, rate(), &jitter, seed);
            let pin = (
                r.phase_error.len(),
                r.errors,
                None,
                fnv1a_64(&r.phase_error),
            );
            got.push((format!("{name} seed {seed}"), pin));
        }
    }
    check(
        "phase-interp",
        got,
        &[
            (10075, 0, None, 0x6655_1f45_865e_dc38),
            (10075, 0, None, 0x6655_1f45_865e_dc38),
            (10075, 0, None, 0x6655_1f45_865e_dc38),
            (10075, 0, None, 0x17d6_8294_b8dd_aae9),
            (10075, 0, None, 0x17d6_8294_b8dd_aae9),
            (10075, 0, None, 0x17d6_8294_b8dd_aae9),
            (10075, 8, None, 0x0672_0411_3b3f_f62a),
            (10075, 7, None, 0xf94c_10c8_bec7_5f0c),
            (10075, 9, None, 0xa9f8_1ebe_afc5_d1a1),
            (10075, 8, None, 0xe6cc_e936_5672_6405),
            (10075, 8, None, 0xe6cc_e936_5672_6405),
            (10075, 8, None, 0xe6cc_e936_5672_6405),
        ],
    );
}
