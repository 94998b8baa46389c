//! Hand-rolled line-JSON codec for the evaluation API.
//!
//! The workspace deliberately has no serialization dependency (the build
//! is offline; `vendor/` holds only stubs), so the wire format is written
//! and parsed here by hand: a small recursive-descent JSON parser, one
//! field table per request and response type from which its encoder and
//! parser are derived, and the `gcco-serve` envelopes. Floats are emitted
//! with Rust's shortest round-trip formatting (`{:?}`), so **encode →
//! parse is exact** — the round-trip property tests in
//! `tests/json_roundtrip.rs` assert equality, not approximation.

use crate::baseline::{BaselineMetric, BaselineOut, BaselineSpec, CdrArchKind};
use crate::error::GccoError;
use crate::optimize::{BestDesignOut, ComboReportOut, OptimizeOut, OptimizeSpec};
use crate::request::{
    ChannelOut, DsimRunOut, DsimRunSpec, EvalRequest, EvalResponse, JtolPointOut, MultiChannelSpec,
    PowerPointOut, PowerScanSpec, SizedCellOut, SjOverride,
};
use crate::spec::{ModelSpec, RunDistSpec};
use gcco_stat::{EdgeModel, SamplingTap};
use std::collections::HashSet;
use std::fmt::Write as _;

/// The protocol version this build speaks. Every envelope must declare it
/// in a top-level `"v"` field; see [`parse_envelope`]'s gate in
/// [`parse_client_line`] for the acceptance policy:
///
/// * `"v": 2` — current, accepted.
/// * anything else — including `"v": 1` and an absent `"v"` field, the
///   pre-versioning wire format whose one-release deprecation window has
///   closed — is rejected with [`GccoError::UnsupportedVersion`] (wire
///   kind `"unsupported_version"`), so a stale or future client gets a
///   structured version error instead of a confusing field-level parse
///   failure.
pub const PROTOCOL_VERSION: u64 = 2;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document; trailing non-whitespace is an
    /// error.
    ///
    /// # Errors
    ///
    /// [`GccoError::Parse`] describing the first offence and its byte
    /// offset.
    pub fn parse(text: &str) -> Result<Json, GccoError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float.
    ///
    /// # Errors
    ///
    /// [`GccoError::Parse`] when the value is not a number.
    pub fn as_f64(&self, what: &str) -> Result<f64, GccoError> {
        f64::parse(self).map_err(|e| in_field(what, e))
    }

    /// The value as an unsigned integer (rejects fractions and negatives).
    ///
    /// # Errors
    ///
    /// [`GccoError::Parse`] when the value is not a non-negative integer.
    pub fn as_u64(&self, what: &str) -> Result<u64, GccoError> {
        u64::parse(self).map_err(|e| in_field(what, e))
    }

    /// The value as a signed integer.
    ///
    /// # Errors
    ///
    /// [`GccoError::Parse`] when the value is not an integer.
    pub fn as_i64(&self, what: &str) -> Result<i64, GccoError> {
        i64::parse(self).map_err(|e| in_field(what, e))
    }

    /// The value as a bool.
    ///
    /// # Errors
    ///
    /// [`GccoError::Parse`] when the value is not a boolean.
    pub fn as_bool(&self, what: &str) -> Result<bool, GccoError> {
        bool::parse(self).map_err(|e| in_field(what, e))
    }

    /// The value as a string slice.
    ///
    /// # Errors
    ///
    /// [`GccoError::Parse`] when the value is not a string.
    pub fn as_str(&self, what: &str) -> Result<&str, GccoError> {
        expect_str(self).map_err(|e| in_field(what, e))
    }

    /// The value as an array slice.
    ///
    /// # Errors
    ///
    /// [`GccoError::Parse`] when the value is not an array.
    pub fn as_arr(&self, what: &str) -> Result<&[Json], GccoError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(in_field(what, type_err("an array", other))),
        }
    }

    /// Required object field.
    ///
    /// # Errors
    ///
    /// [`GccoError::Parse`] when the field is missing or `self` is not an
    /// object.
    pub fn field(&self, key: &str) -> Result<&Json, GccoError> {
        self.get(key)
            .ok_or_else(|| GccoError::Parse(format!("missing field \"{key}\"")))
    }
}

fn type_err(expected: &str, got: &Json) -> GccoError {
    let tag = match got {
        Json::Null => "null",
        Json::Bool(_) => "a boolean",
        Json::Num(_) => "a number",
        Json::Str(_) => "a string",
        Json::Arr(_) => "an array",
        Json::Obj(_) => "an object",
    };
    GccoError::Parse(format!("expected {expected}, got {tag}"))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> GccoError {
        GccoError::Parse(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), GccoError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, GccoError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, GccoError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, GccoError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number bytes"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| GccoError::Parse(format!("invalid number \"{text}\" at byte {start}")))
    }

    fn string(&mut self) -> Result<String, GccoError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(ch.ok_or_else(|| self.err("invalid unicode escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("unescaped control character")),
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control byte in one step. Each of those is ASCII, so
                    // the run ends on a character boundary of the source
                    // text and is valid UTF-8.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| matches!(b, b'"' | b'\\' | 0..=0x1f))
                        .unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, GccoError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn array(&mut self) -> Result<Json, GccoError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, GccoError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Escapes and quotes a string for JSON output.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_string(&mut out, s);
    out
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Formats a float with Rust's shortest round-trip representation
/// (`5.0`, `0.021`, `1e-12`, …) — exact under encode → parse. Non-finite
/// values (which validation keeps out of every payload) become `null`.
pub fn json_f64(x: f64) -> String {
    to_json(&x)
}

// ---------------------------------------------------------------------
// The wire tables
// ---------------------------------------------------------------------

/// A value with one JSON wire form. The leaf types implement it by hand
/// below; every request and response type gets its impl from one table
/// row, so its field list is written once.
///
/// Parse semantics, shared by every table: a missing field is an error,
/// `null` is accepted only for an `Option`, unknown fields are ignored,
/// and the first of two duplicate keys wins.
trait Wire: Sized {
    /// Appends the value's JSON text to `out`.
    fn encode(&self, out: &mut String);
    /// Reads the value from its parsed JSON.
    fn parse(v: &Json) -> Result<Self, GccoError>;
}

fn to_json<T: Wire>(value: &T) -> String {
    let mut out = String::new();
    value.encode(&mut out);
    out
}

/// Parses the required field `name` of the object `v`.
fn field<T: Wire>(v: &Json, name: &str) -> Result<T, GccoError> {
    T::parse(v.field(name)?).map_err(|e| in_field(name, e))
}

/// Prefixes a parse error with the field it occurred in, outermost
/// field first: `spec: dj_pp: expected a number, got a string`.
fn in_field(name: &str, e: GccoError) -> GccoError {
    match e {
        GccoError::Parse(detail) => GccoError::Parse(format!("{name}: {detail}")),
        other => other,
    }
}

fn expect_str(v: &Json) -> Result<&str, GccoError> {
    match v {
        Json::Str(s) => Ok(s),
        other => Err(type_err("a string", other)),
    }
}

impl Wire for f64 {
    fn encode(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self:?}");
        } else {
            out.push_str("null");
        }
    }

    fn parse(v: &Json) -> Result<f64, GccoError> {
        match v {
            Json::Num(x) => Ok(*x),
            other => Err(type_err("a number", other)),
        }
    }
}

impl Wire for u64 {
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn parse(v: &Json) -> Result<u64, GccoError> {
        match v {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => Ok(*x as u64),
            other => Err(type_err("a non-negative integer", other)),
        }
    }
}

impl Wire for u32 {
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn parse(v: &Json) -> Result<u32, GccoError> {
        let n = u64::parse(v)?;
        u32::try_from(n).map_err(|_| {
            GccoError::Parse(format!("expected an integer at most {}, got {n}", u32::MAX))
        })
    }
}

impl Wire for i64 {
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn parse(v: &Json) -> Result<i64, GccoError> {
        match v {
            Json::Num(x) if x.fract() == 0.0 && x.abs() <= 2f64.powi(53) => Ok(*x as i64),
            other => Err(type_err("an integer", other)),
        }
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }

    fn parse(v: &Json) -> Result<bool, GccoError> {
        match v {
            Json::Bool(b) => Ok(*b),
            other => Err(type_err("a boolean", other)),
        }
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut String) {
        match self {
            Some(x) => x.encode(out),
            None => out.push_str("null"),
        }
    }

    fn parse(v: &Json) -> Result<Option<T>, GccoError> {
        match v {
            Json::Null => Ok(None),
            v => T::parse(v).map(Some),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut String) {
        out.push('[');
        for (i, x) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            x.encode(out);
        }
        out.push(']');
    }

    fn parse(v: &Json) -> Result<Vec<T>, GccoError> {
        match v {
            Json::Arr(items) => items.iter().map(T::parse).collect(),
            other => Err(type_err("an array", other)),
        }
    }
}

/// `RunDistSpec` is externally tagged: `{"geometric":5}` or
/// `{"counts":[…]}`.
impl Wire for RunDistSpec {
    fn encode(&self, out: &mut String) {
        match self {
            RunDistSpec::Geometric(max_len) => {
                out.push_str("{\"geometric\":");
                max_len.encode(out);
            }
            RunDistSpec::Counts(counts) => {
                out.push_str("{\"counts\":");
                counts.encode(out);
            }
        }
        out.push('}');
    }

    fn parse(v: &Json) -> Result<RunDistSpec, GccoError> {
        if v.get("geometric").is_some() {
            field(v, "geometric").map(RunDistSpec::Geometric)
        } else if v.get("counts").is_some() {
            field(v, "counts").map(RunDistSpec::Counts)
        } else {
            Err(GccoError::Parse(
                "expected a \"geometric\" or \"counts\" field".to_string(),
            ))
        }
    }
}

/// The wire name of a sampling tap, as model specs, optimizer requests
/// and optimizer reports spell it.
pub fn tap_name(tap: SamplingTap) -> &'static str {
    match tap {
        SamplingTap::Standard => "standard",
        SamplingTap::Improved => "improved",
    }
}

fn tap_from_name(s: &str) -> Option<SamplingTap> {
    [SamplingTap::Standard, SamplingTap::Improved]
        .into_iter()
        .find(|&tap| tap_name(tap) == s)
}

fn edge_model_name(model: EdgeModel) -> &'static str {
    match model {
        EdgeModel::ResyncReferenced => "resync_referenced",
        EdgeModel::IndependentEdges => "independent_edges",
    }
}

fn edge_model_from_name(s: &str) -> Option<EdgeModel> {
    [EdgeModel::ResyncReferenced, EdgeModel::IndependentEdges]
        .into_iter()
        .find(|&model| edge_model_name(model) == s)
}

/// Enums that travel as one string per value: `$name` spells a value
/// and `$from_name` reads it back.
macro_rules! wire_names {
    ($($ty:ty: $what:literal, $name:path, $from_name:path;)+) => {$(
        impl Wire for $ty {
            fn encode(&self, out: &mut String) {
                push_json_string(out, $name(*self));
            }

            fn parse(v: &Json) -> Result<Self, GccoError> {
                let s = expect_str(v)?;
                $from_name(s).ok_or_else(|| {
                    GccoError::Parse(format!(concat!("unknown ", $what, " \"{}\""), s))
                })
            }
        }
    )+};
}

wire_names! {
    SamplingTap: "tap", tap_name, tap_from_name;
    EdgeModel: "edge_model", edge_model_name, edge_model_from_name;
    CdrArchKind: "baseline arch", CdrArchKind::wire_name, CdrArchKind::from_wire;
}

/// A wire struct's fields without the surrounding braces, so that a
/// tagged variant can carry them inline.
trait WireFields {
    fn encode_fields(&self, out: &mut String);
}

/// Wire structs: each is a JSON object whose keys are its field names,
/// in the listed order. Encode destructures without `..` and parse builds
/// a struct literal, so a field left out of a row does not compile.
macro_rules! wire_structs {
    ($($ty:ident { $first:ident $(, $rest:ident)* $(,)? })+) => {$(
        impl WireFields for $ty {
            fn encode_fields(&self, out: &mut String) {
                let $ty { $first $(, $rest)* } = self;
                out.push_str(concat!("\"", stringify!($first), "\":"));
                $first.encode(out);
                $(
                    out.push_str(concat!(",\"", stringify!($rest), "\":"));
                    $rest.encode(out);
                )*
            }
        }

        impl Wire for $ty {
            fn encode(&self, out: &mut String) {
                out.push('{');
                self.encode_fields(out);
                out.push('}');
            }

            fn parse(v: &Json) -> Result<Self, GccoError> {
                Ok($ty {
                    $first: field(v, stringify!($first))?,
                    $($rest: field(v, stringify!($rest))?,)*
                })
            }
        }
    )+};
}

wire_structs! {
    ModelSpec {
        dj_pp, rj_rms, sj_pp, sj_freq_norm, ckj_rms, cid_max, run_dist, tap, freq_offset,
        edge_model, include_slip, gating_tau_ui, grid_step,
    }
    SjOverride { amplitude_pp, freq_norm }
    PowerScanSpec {
        bit_rate_gbps, swing_v, n_stages, cid, eta, sigma_ui_target, iss_min_ua, iss_max_ua,
        steps, iss_sizing_max_a,
    }
    DsimRunSpec { seed, stages, stage_delay_ps, jitter_rel, duration_ns }
    MultiChannelSpec {
        channels, mismatch_sigma, ripple_rms_ui, seed, bit_rate_gbps, target_ber, spec,
    }
    OptimizeSpec {
        base, target_ber, budget_mw_per_gbps, bit_rate_gbps, freq_margin, margin_hi, taps, cids,
        ckj_lo, ckj_hi, rel_tol, seed, max_probes,
    }
    BaselineSpec {
        bits, seed, bit_rate_gbps, freq_offset, kp, ki, sj_amp_pp, sj_freq_norm, rj_rms_ui,
    }
    JtolPointOut { freq_norm, amplitude_pp, censored }
    SizedCellOut { iss_a, swing_v, delay_fs }
    PowerPointOut { iss_a, ring_power_mw, sigma_ui }
    DsimRunOut { period_ps_mean, period_ps_rms, rising_edges, events }
    ChannelOut { index, freq_offset, ber, settling_ui }
    BestDesignOut { spec, mw_per_gbps, worst_ber, margin, settling_ui }
    ComboReportOut { tap, cid_max, ckj_rms, mw_per_gbps, worst_ber, probes }
    OptimizeOut { best, per_combo, probes, store_hits, converged }
    BaselineOut { lock_bits, errors, updates, residual_rms_ui, capture_range, jtol_amp_pp }
}

/// Tagged enums: a JSON object whose `$tag` key holds the variant's wire
/// name, then the variant's fields in the listed order. A trailing
/// `..field` puts that struct's fields inline instead of nesting them.
/// The same rows give `kind()`.
macro_rules! wire_enum {
    ($vis:vis $ty:ident, $tag:literal, $what:literal {
        $($variant:ident => $name:literal { $($field:ident),* $(..$inline:ident)? },)+
    }) => {
        impl $ty {
            #[doc = concat!("The variant's wire name (its `\"", $tag, "\"` field).")]
            $vis fn kind(&self) -> &'static str {
                match self {
                    $($ty::$variant { .. } => $name,)+
                }
            }
        }

        impl Wire for $ty {
            fn encode(&self, out: &mut String) {
                out.push_str(concat!("{\"", $tag, "\":\""));
                out.push_str(self.kind());
                out.push('"');
                match self {
                    $($ty::$variant { $($field,)* $($inline)? } => {
                        $(
                            out.push_str(concat!(",\"", stringify!($field), "\":"));
                            $field.encode(out);
                        )*
                        $(
                            out.push(',');
                            $inline.encode_fields(out);
                        )?
                    })+
                }
                out.push('}');
            }

            fn parse(v: &Json) -> Result<Self, GccoError> {
                match v.field($tag)?.as_str($tag)? {
                    $($name => Ok($ty::$variant {
                        $($field: field(v, stringify!($field))?,)*
                        $($inline: Wire::parse(v)?)?
                    }),)+
                    other => Err(GccoError::Parse(format!(
                        concat!("unknown ", $what, " \"{}\""),
                        other
                    ))),
                }
            }
        }
    };
}

wire_enum!(pub EvalRequest, "type", "request type" {
    BerPoint => "ber_point" { spec, sj },
    BerGrid => "ber_grid" { spec, amps_pp, freqs_norm },
    JtolCurve => "jtol_curve" { spec, freqs_norm, target_ber },
    FtolSearch => "ftol_search" { spec, target_ber },
    PowerScan => "power_scan" { scan },
    DsimRun => "dsim_run" { run },
    MultiChannel => "multi_channel" { mc },
    Optimize => "optimize" { opt },
    Baseline => "baseline" { arch, spec, metric },
});

wire_enum!(pub EvalResponse, "type", "response type" {
    Scalar => "scalar" { value },
    Grid => "grid" { rows },
    Jtol => "jtol" { points },
    Ftol => "ftol" { value },
    Power => "power" { sized, points },
    Dsim => "dsim" { run },
    MultiChannel => "multi_channel" { channels, worst_ber, yield_pct, mw_per_gbps, within_budget },
    Optimize => "optimize" { ..out },
    Baseline => "baseline" { out },
});

wire_enum!(BaselineMetric, "kind", "baseline metric" {
    Track => "track" {},
    CaptureRange => "capture_range" { hi },
    JtolPoint => "jtol_point" { freq_norm },
});

/// Encodes a [`ModelSpec`] as a JSON object.
pub fn encode_model_spec(spec: &ModelSpec) -> String {
    to_json(spec)
}

/// Parses a [`ModelSpec`] from its JSON object.
///
/// # Errors
///
/// [`GccoError::Parse`] on a missing/mistyped field or unknown tag.
pub fn parse_model_spec(v: &Json) -> Result<ModelSpec, GccoError> {
    ModelSpec::parse(v)
}

/// Encodes an [`EvalRequest`] as a JSON object (the envelope's
/// `"request"` payload).
pub fn encode_request(req: &EvalRequest) -> String {
    to_json(req)
}

/// Parses an [`EvalRequest`] from its JSON object.
///
/// # Errors
///
/// [`GccoError::Parse`] on malformed input.
pub fn parse_request(v: &Json) -> Result<EvalRequest, GccoError> {
    EvalRequest::parse(v)
}

/// Encodes an [`EvalResponse`] as a JSON object.
pub fn encode_response(resp: &EvalResponse) -> String {
    to_json(resp)
}

/// Parses an [`EvalResponse`] from its JSON object.
///
/// # Errors
///
/// [`GccoError::Parse`] on malformed input.
pub fn parse_response(v: &Json) -> Result<EvalResponse, GccoError> {
    EvalResponse::parse(v)
}

// ---------------------------------------------------------------------
// gcco-serve wire envelopes
// ---------------------------------------------------------------------

/// One submitted request with its wire id and optional deadline.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// Client-chosen request id, echoed on the response line.
    pub id: u64,
    /// Declared protocol version; `None` means the field was absent.
    /// Only `Some(`[`PROTOCOL_VERSION`]`)` passes the parse gate — the
    /// `Option` survives so a client can encode (and a test can exercise)
    /// the rejected shapes.
    pub v: Option<u64>,
    /// Optional per-request deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// The request payload.
    pub request: EvalRequest,
}

/// One parsed client line.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientLine {
    /// One or more requests (a bare envelope, or `{"batch": [...]}`).
    Requests(Vec<Envelope>),
    /// A control command (`{"cmd": "..."}`): `ping`, `stats`, `shutdown`.
    Command(String),
}

fn parse_envelope(v: &Json) -> Result<Envelope, GccoError> {
    let version = match v.get("v") {
        None | Some(Json::Null) => None,
        Some(x) => Some(x.as_u64("v")?),
    };
    // Version gate before touching the payload: a request from another
    // protocol generation should fail with a structured version error,
    // not a field-level parse error inside a request shape this build
    // has never heard of. An absent field is the retired v1 format.
    if version != Some(PROTOCOL_VERSION) {
        return Err(GccoError::UnsupportedVersion {
            v: version.unwrap_or(1),
        });
    }
    let deadline_ms = match v.get("deadline_ms") {
        None | Some(Json::Null) => None,
        Some(d) => Some(d.as_u64("deadline_ms")?),
    };
    Ok(Envelope {
        id: v.field("id")?.as_u64("id")?,
        v: version,
        deadline_ms,
        request: field(v, "request")?,
    })
}

/// Rejects a batch whose envelopes reuse a request id: ids are the only
/// correlation mechanism on the wire (responses arrive in completion
/// order), so a duplicated id would make its responses ambiguous.
///
/// # Errors
///
/// [`GccoError::DuplicateId`] naming the first repeated id.
pub fn check_unique_ids(envelopes: &[Envelope]) -> Result<(), GccoError> {
    let mut seen = HashSet::with_capacity(envelopes.len());
    match envelopes.iter().find(|env| !seen.insert(env.id)) {
        Some(env) => Err(GccoError::DuplicateId { id: env.id }),
        None => Ok(()),
    }
}

/// Parses one client line: a single envelope, a batch, or a command.
///
/// # Errors
///
/// [`GccoError::Parse`] on malformed input, [`GccoError::DuplicateId`]
/// when a batch reuses a request id.
pub fn parse_client_line(line: &str) -> Result<ClientLine, GccoError> {
    let v = Json::parse(line)?;
    if let Some(cmd) = v.get("cmd") {
        return Ok(ClientLine::Command(cmd.as_str("cmd")?.to_string()));
    }
    if let Some(batch) = v.get("batch") {
        let envelopes = batch
            .as_arr("batch")?
            .iter()
            .map(parse_envelope)
            .collect::<Result<Vec<_>, _>>()?;
        if envelopes.is_empty() {
            return Err(GccoError::Parse("empty batch".to_string()));
        }
        check_unique_ids(&envelopes)?;
        return Ok(ClientLine::Requests(envelopes));
    }
    Ok(ClientLine::Requests(vec![parse_envelope(&v)?]))
}

/// Encodes an [`Envelope`] as one client line (no trailing newline).
/// A `v: None` envelope is emitted without a `"v"` field — a shape the
/// parse gate rejects, kept encodable for tests and version probes.
pub fn encode_envelope(env: &Envelope) -> String {
    let mut out = String::new();
    push_envelope(&mut out, env);
    out
}

fn push_envelope(out: &mut String, env: &Envelope) {
    let _ = write!(out, "{{\"id\":{},", env.id);
    if let Some(v) = env.v {
        let _ = write!(out, "\"v\":{v},");
    }
    out.push_str("\"deadline_ms\":");
    env.deadline_ms.encode(out);
    out.push_str(",\"request\":");
    env.request.encode(out);
    out.push('}');
}

/// Encodes a batch of envelopes as one client line (no trailing newline).
pub fn encode_batch(envs: &[Envelope]) -> String {
    let mut out = String::from("{\"batch\":[");
    for (i, env) in envs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_envelope(&mut out, env);
    }
    out.push_str("]}");
    out
}

/// Encodes one response line for the given request id (no trailing
/// newline): `{"id":N,"ok":{...}}` or `{"id":N,"err":{...}}`.
pub fn encode_result_line(id: u64, result: &Result<EvalResponse, GccoError>) -> String {
    encode_result_line_with_note(id, None, result)
}

/// Like [`encode_result_line`], with an optional advisory `"note"` field
/// between the id and the payload — the slot a server or proxy tier uses
/// to attach out-of-band warnings without disturbing the `ok`/`err`
/// shape (and which [`ResultLine`] preserves when forwarding).
pub fn encode_result_line_with_note(
    id: u64,
    note: Option<&str>,
    result: &Result<EvalResponse, GccoError>,
) -> String {
    match result {
        Ok(resp) => result_line(id, note, Ok(resp)),
        Err(e) => result_line(id, note, Err((e.kind(), &e.detail()))),
    }
}

/// Re-encodes a parsed [`ResultLine`] (no trailing newline),
/// **byte-identically** to the line the server emitted: field order is
/// fixed and the float codec is exact (`f64`s round-trip through their
/// shortest decimal form), so `parse_result_line` → this function is the
/// identity on every line `gcco-serve` produces. This is what lets a
/// proxy tier — `gcco-router` — forward responses without perturbing a
/// byte, keeping cluster results comparable to a single-server run with
/// `==` on the raw wire text.
pub fn encode_parsed_result_line(line: &ResultLine) -> String {
    let result = match &line.result {
        Ok(resp) => Ok(resp),
        Err((kind, detail)) => Err((kind.as_str(), detail.as_str())),
    };
    result_line(line.id, line.note.as_deref(), result)
}

/// The one writer of response lines, freshly encoded or forwarded.
fn result_line(id: u64, note: Option<&str>, result: Result<&EvalResponse, (&str, &str)>) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"id\":{id},");
    if let Some(note) = note {
        out.push_str("\"note\":");
        push_json_string(&mut out, note);
        out.push(',');
    }
    match result {
        Ok(resp) => {
            out.push_str("\"ok\":");
            resp.encode(&mut out);
        }
        Err((kind, detail)) => {
            out.push_str("\"err\":");
            push_err(&mut out, kind, detail);
        }
    }
    out.push('}');
    out
}

/// Writes a wire error object: `{"kind":...,"detail":...}`.
fn push_err(out: &mut String, kind: &str, detail: &str) {
    out.push_str("{\"kind\":");
    push_json_string(out, kind);
    out.push_str(",\"detail\":");
    push_json_string(out, detail);
    out.push('}');
}

/// Encodes an **id-less** error line (no trailing newline):
/// `{"err":{"kind":...,"detail":...}}`. This is the reply to input the
/// server cannot correlate to any envelope — a malformed line or an
/// unknown command — and is deliberately shaped so it can never be
/// mistaken for the response to a legitimate request (every envelope
/// response carries an `"id"` field; this line has none).
pub fn encode_error_line(e: &GccoError) -> String {
    let mut out = String::from("{\"err\":");
    push_err(&mut out, e.kind(), &e.detail());
    out.push('}');
    out
}

/// A response line parsed from the wire, error side kept as
/// `(kind, detail)` strings.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultLine {
    /// The echoed request id.
    pub id: u64,
    /// Advisory server note, if any (preserved byte-faithfully when a
    /// proxy tier forwards the line).
    pub note: Option<String>,
    /// The response or the wire error.
    pub result: Result<EvalResponse, (String, String)>,
}

/// Parses one server response line.
///
/// # Errors
///
/// [`GccoError::Parse`] on malformed input.
pub fn parse_result_line(line: &str) -> Result<ResultLine, GccoError> {
    let v = Json::parse(line)?;
    let id = v.field("id")?.as_u64("id")?;
    let note = match v.get("note") {
        None | Some(Json::Null) => None,
        Some(n) => Some(n.as_str("note")?.to_string()),
    };
    if let Some(ok) = v.get("ok") {
        return Ok(ResultLine {
            id,
            note,
            result: Ok(parse_response(ok)?),
        });
    }
    let err = v.field("err")?;
    Ok(ResultLine {
        id,
        note,
        result: Err((
            err.field("kind")?.as_str("kind")?.to_string(),
            err.field("detail")?.as_str("detail")?.to_string(),
        )),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_the_json_zoo() {
        let v = Json::parse(
            r#"{"a": [1, -2.5, 1e-12], "b": {"c": "x\n\"y\u00e9\ud83d\ude00"}, "d": null, "e": true}"#,
        )
        .expect("parses");
        assert_eq!(v.field("a").unwrap().as_arr("a").unwrap().len(), 3);
        assert_eq!(
            v.field("b")
                .unwrap()
                .field("c")
                .unwrap()
                .as_str("c")
                .unwrap(),
            "x\n\"yé😀"
        );
        assert_eq!(v.field("d").unwrap(), &Json::Null);
        assert!(v.field("e").unwrap().as_bool("e").unwrap());
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "nul",
            "{\"a\":1} x",
            "\"\\q\"",
            "1e",
            "{\"a\" 1}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn f64_formatting_round_trips_exactly() {
        for x in [
            0.0,
            -0.0,
            1.0,
            0.1,
            1e-12,
            2.5,
            0.021,
            f64::MIN_POSITIVE,
            f64::MAX,
            -123.456e-7,
        ] {
            let text = json_f64(x);
            let back = Json::parse(&text).unwrap().as_f64("x").unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {text}");
        }
        assert_eq!(json_f64(f64::NAN), "null");
    }

    #[test]
    fn spec_round_trips() {
        let spec = ModelSpec::paper_table1()
            .with_sj(0.3, 0.25)
            .with_freq_offset(-0.01)
            .with_run_dist(RunDistSpec::Counts(vec![0, 7, 3]));
        let text = encode_model_spec(&spec);
        let back = parse_model_spec(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn envelope_and_result_lines_round_trip() {
        let env = Envelope {
            id: 7,
            v: Some(PROTOCOL_VERSION),
            deadline_ms: Some(250),
            request: EvalRequest::FtolSearch {
                spec: ModelSpec::paper_table1(),
                target_ber: 1e-12,
            },
        };
        let line = encode_envelope(&env);
        match parse_client_line(&line).unwrap() {
            ClientLine::Requests(envs) => assert_eq!(envs, vec![env.clone()]),
            other => panic!("{other:?}"),
        }
        let mut second = env.clone();
        second.id = 8;
        let batch = encode_batch(&[env.clone(), second]);
        match parse_client_line(&batch).unwrap() {
            ClientLine::Requests(envs) => assert_eq!(envs.len(), 2),
            other => panic!("{other:?}"),
        }
        let ok_line = encode_result_line(7, &Ok(EvalResponse::Ftol { value: 0.033 }));
        let parsed = parse_result_line(&ok_line).unwrap();
        assert_eq!(parsed.id, 7);
        assert_eq!(parsed.result, Ok(EvalResponse::Ftol { value: 0.033 }));
        let err_line = encode_result_line(8, &Err(GccoError::QueueFull { capacity: 4 }));
        let parsed = parse_result_line(&err_line).unwrap();
        assert_eq!(parsed.id, 8);
        let (kind, detail) = parsed.result.unwrap_err();
        assert_eq!(kind, "queue_full");
        assert!(detail.contains('4'));
    }

    #[test]
    fn duplicate_batch_ids_are_rejected() {
        let env = Envelope {
            id: 7,
            v: Some(PROTOCOL_VERSION),
            deadline_ms: None,
            request: EvalRequest::FtolSearch {
                spec: ModelSpec::paper_table1(),
                target_ber: 1e-12,
            },
        };
        let batch = encode_batch(&[env.clone(), env.clone()]);
        let err = parse_client_line(&batch).expect_err("duplicate ids must be rejected");
        assert_eq!(err, GccoError::DuplicateId { id: 7 });
        assert_eq!(err.kind(), "duplicate_id");
        // Distinct ids are fine.
        let ok = encode_batch(&[env.clone(), Envelope { id: 8, ..env }]);
        assert!(parse_client_line(&ok).is_ok());
    }

    #[test]
    fn idless_error_lines_carry_no_id_field() {
        let line = encode_error_line(&GccoError::Parse("bad".to_string()));
        let v = Json::parse(&line).unwrap();
        assert!(v.get("id").is_none(), "{line}");
        assert_eq!(
            v.field("err")
                .unwrap()
                .field("kind")
                .unwrap()
                .as_str("kind")
                .unwrap(),
            "parse_error"
        );
        // It is not an envelope response, so the envelope parser refuses it.
        assert!(parse_result_line(&line).is_err());
    }

    #[test]
    fn commands_parse() {
        assert_eq!(
            parse_client_line("{\"cmd\":\"shutdown\"}").unwrap(),
            ClientLine::Command("shutdown".to_string())
        );
    }

    #[test]
    fn multi_channel_request_and_response_round_trip() {
        let req = EvalRequest::MultiChannel {
            mc: MultiChannelSpec::paper_quad(),
        };
        let text = encode_request(&req);
        let back = parse_request(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, req);

        let resp = EvalResponse::MultiChannel {
            channels: vec![
                ChannelOut {
                    index: 0,
                    freq_offset: 0.0013,
                    ber: 1e-15,
                    settling_ui: 9.25,
                },
                ChannelOut {
                    index: 1,
                    freq_offset: -0.002,
                    ber: 2.5e-13,
                    settling_ui: 11.0,
                },
            ],
            worst_ber: 2.5e-13,
            yield_pct: 100.0,
            mw_per_gbps: Some(3.8),
            within_budget: true,
        };
        let text = encode_response(&resp);
        let back = parse_response(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, resp);

        // The null side of the optional power roll-up.
        let resp = EvalResponse::MultiChannel {
            channels: vec![],
            worst_ber: 1.0,
            yield_pct: 0.0,
            mw_per_gbps: None,
            within_budget: false,
        };
        let text = encode_response(&resp);
        assert!(text.contains("\"mw_per_gbps\":null"), "{text}");
        assert_eq!(parse_response(&Json::parse(&text).unwrap()).unwrap(), resp);
    }

    #[test]
    fn baseline_request_and_response_round_trip() {
        for arch in CdrArchKind::ALL {
            for metric in [
                BaselineMetric::Track,
                BaselineMetric::CaptureRange { hi: 0.1 },
                BaselineMetric::JtolPoint { freq_norm: 0.01 },
            ] {
                let req = EvalRequest::Baseline {
                    arch,
                    spec: BaselineSpec {
                        freq_offset: 0.0015,
                        rj_rms_ui: 0.01,
                        ..BaselineSpec::typical(arch)
                    },
                    metric,
                };
                let text = encode_request(&req);
                let back = parse_request(&Json::parse(&text).unwrap()).unwrap();
                assert_eq!(back, req);
            }
        }

        let resp = EvalResponse::Baseline {
            out: BaselineOut {
                lock_bits: Some(207),
                errors: 3,
                updates: 14_975,
                residual_rms_ui: Some(0.0123),
                capture_range: None,
                jtol_amp_pp: Some(0.75),
            },
        };
        let text = encode_response(&resp);
        let back = parse_response(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, resp);

        // The no-lock side: every optional field rides as null.
        let resp = EvalResponse::Baseline {
            out: BaselineOut {
                lock_bits: None,
                errors: 991,
                updates: 14_975,
                residual_rms_ui: None,
                capture_range: None,
                jtol_amp_pp: None,
            },
        };
        let text = encode_response(&resp);
        assert!(text.contains("\"lock_bits\":null"), "{text}");
        assert!(text.contains("\"residual_rms_ui\":null"), "{text}");
        assert_eq!(parse_response(&Json::parse(&text).unwrap()).unwrap(), resp);

        // Unknown arch and metric names are structured parse errors.
        let bad = "{\"type\":\"baseline\",\"arch\":\"pll\",\"spec\":{},\"metric\":{}}";
        assert!(matches!(
            parse_request(&Json::parse(bad).unwrap()),
            Err(GccoError::Parse(_))
        ));
    }

    #[test]
    fn version_gate_accepts_only_the_current_version() {
        let request = "{\"type\":\"ftol_search\",\"spec\":SPEC,\"target_ber\":1e-12}"
            .replace("SPEC", &encode_model_spec(&ModelSpec::paper_table1()));

        // Current version: accepted and re-encoded with its version.
        let line = format!("{{\"id\":1,\"v\":{PROTOCOL_VERSION},\"request\":{request}}}");
        let ClientLine::Requests(envs) = parse_client_line(&line).unwrap() else {
            panic!("not requests");
        };
        assert_eq!(envs[0].v, Some(PROTOCOL_VERSION));
        let reencoded = encode_envelope(&envs[0]);
        assert!(
            reencoded.contains(&format!("\"v\":{PROTOCOL_VERSION}")),
            "{reencoded}"
        );

        // Everything else gets the structured error: the retired v1
        // format (explicit or as an absent field) and unknown future
        // versions alike — even when the payload would not parse, the
        // version gate fires first.
        for (line, want_v) in [
            (format!("{{\"id\":1,\"request\":{request}}}"), 1),
            (format!("{{\"id\":1,\"v\":1,\"request\":{request}}}"), 1),
            (format!("{{\"id\":1,\"v\":3,\"request\":{request}}}"), 3),
            (
                "{\"id\":1,\"v\":99,\"request\":{\"type\":\"from_the_future\"}}".to_string(),
                99,
            ),
        ] {
            let err = parse_client_line(&line).expect_err("wrong v must be rejected");
            assert!(
                matches!(err, GccoError::UnsupportedVersion { v } if v == want_v),
                "{line}: {err:?}"
            );
            assert_eq!(err.kind(), "unsupported_version");
        }

        // A non-integer version is a parse error, not a crash.
        let bad = format!("{{\"id\":1,\"v\":\"two\",\"request\":{request}}}");
        assert!(matches!(parse_client_line(&bad), Err(GccoError::Parse(_))));
    }

    #[test]
    fn result_line_notes_round_trip_and_default_off() {
        let plain = encode_result_line(4, &Ok(EvalResponse::Scalar { value: 1.0 }));
        assert!(!plain.contains("note"), "{plain}");
        assert_eq!(parse_result_line(&plain).unwrap().note, None);

        let advisory = "served from a draining backend";
        let noted = encode_result_line_with_note(
            4,
            Some(advisory),
            &Ok(EvalResponse::Scalar { value: 1.0 }),
        );
        let parsed = parse_result_line(&noted).unwrap();
        assert_eq!(parsed.id, 4);
        assert_eq!(parsed.note.as_deref(), Some(advisory));
        assert_eq!(parsed.result, Ok(EvalResponse::Scalar { value: 1.0 }));

        // Notes ride on error lines too.
        let err_line =
            encode_result_line_with_note(5, Some(advisory), &Err(GccoError::ShuttingDown));
        let parsed = parse_result_line(&err_line).unwrap();
        assert_eq!(parsed.note.as_deref(), Some(advisory));
        assert_eq!(parsed.result.unwrap_err().0, "shutting_down");
    }

    /// `parse_result_line` → `encode_parsed_result_line` is the identity
    /// on every line shape the server emits — ok, error, noted, awkward
    /// floats — the byte-forwarding contract the router tier leans on.
    #[test]
    fn parsed_result_lines_re_encode_byte_identically() {
        let lines = [
            encode_result_line(0, &Ok(EvalResponse::Scalar { value: 1e-12 })),
            encode_result_line(
                7,
                &Ok(EvalResponse::Grid {
                    rows: vec![vec![0.1, f64::MIN_POSITIVE], vec![-0.0, 2.5e-308]],
                }),
            ),
            encode_result_line(3, &Err(GccoError::QueueFull { capacity: 4 })),
            encode_result_line_with_note(
                9,
                Some("served from a draining backend"),
                &Ok(EvalResponse::Scalar { value: 0.021 }),
            ),
            encode_result_line_with_note(
                11,
                Some("weird \"note\"\n"),
                &Err(GccoError::Parse("x".into())),
            ),
        ];
        for line in lines {
            let parsed = parse_result_line(&line).expect("well-formed");
            assert_eq!(encode_parsed_result_line(&parsed), line);
        }
    }
}
