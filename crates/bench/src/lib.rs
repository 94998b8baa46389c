//! Shared helpers for the experiment binaries that regenerate every table
//! and figure of the DATE'05 GCCO paper.
//!
//! Each figure/table has a binary under `src/bin/` (`fig09`, `table1`, …)
//! that prints the same rows/series the paper reports; `EXPERIMENTS.md` at
//! the workspace root records the paper-versus-measured comparison. The
//! Criterion performance benches live under `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod metrics;
pub mod runner;

pub use campaign::Campaign;

/// Builds the engine every experiment binary evaluates through, honoring
/// the `GCCO_STORE` environment variable: when set, a persistent
/// `gcco-store` journal at that directory is attached as the engine's
/// second cache tier, so re-running a figure binary replays journaled
/// responses bit-identically instead of recomputing (the golden tests
/// assert byte-identical stdout with and without it).
///
/// # Panics
///
/// Panics when `GCCO_STORE` names a path that cannot be opened as a
/// store — a figure run against a corrupt/foreign journal should fail
/// loudly, not silently recompute.
pub fn engine_from_env() -> gcco_api::Engine {
    let engine = gcco_api::Engine::new();
    match std::env::var("GCCO_STORE") {
        Ok(dir) if !dir.is_empty() => {
            let store =
                gcco_store::Store::open(&dir).unwrap_or_else(|e| panic!("GCCO_STORE={dir}: {e}"));
            engine.with_store(std::sync::Arc::new(store))
        }
        _ => engine,
    }
}

/// Prints the standard experiment header.
pub fn header(id: &str, title: &str, paper_claim: &str) {
    println!("================================================================");
    println!("{id}: {title}");
    println!("paper: {paper_claim}");
    println!("================================================================");
}

/// Prints a `key = value` result line in a grep-friendly format.
pub fn result_line(key: &str, value: impl std::fmt::Display) {
    println!("RESULT {key} = {value}");
}

/// Formats a BER for tables: `<1e-15` floor so log-scale columns align.
pub fn fmt_ber(ber: f64) -> String {
    if ber < 1e-15 {
        "<1e-15 ".to_string()
    } else {
        format!("{ber:.1e}")
    }
}

/// Formats an optional report field: `{:?}` (shortest exact form for
/// floats) or `none`.
pub fn fmt_opt<T: std::fmt::Debug>(value: Option<T>) -> String {
    value.map_or_else(|| "none".to_string(), |v| format!("{v:?}"))
}

/// An ASCII log-scale sparkline for BER rows (deeper = more dashes).
pub fn ber_bar(ber: f64) -> String {
    let floor = 1e-15f64;
    let clamped = ber.max(floor).min(1.0);
    let depth = (-clamped.log10()).round() as usize; // 0..15
    let mut bar = String::new();
    for _ in 0..depth {
        bar.push('-');
    }
    bar.push('|');
    bar
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ber_formatting() {
        assert_eq!(fmt_ber(1e-20), "<1e-15 ");
        assert_eq!(fmt_ber(3.2e-5), "3.2e-5");
    }

    #[test]
    fn optional_fields_print_exactly_or_none() {
        assert_eq!(fmt_opt(Some(0.1f64)), "0.1");
        assert_eq!(fmt_opt(Some(1.0f64)), "1.0");
        assert_eq!(fmt_opt(Some(42u64)), "42");
        assert_eq!(fmt_opt::<f64>(None), "none");
    }

    #[test]
    fn ber_bar_depth() {
        assert_eq!(ber_bar(1e-3).len(), 4);
        assert_eq!(ber_bar(1.0), "|");
        assert_eq!(ber_bar(0.0).len(), 16);
    }
}
