//! Unified evaluation-request API for the GCCO workspace.
//!
//! Everything this repository can compute — BER points and grids
//! (Figs. 9/10/17), jitter-tolerance curves, the §2.3 frequency-tolerance
//! search, the Fig. 11 power/phase-noise scan, event-driven ring runs,
//! multi-channel yield scenarios ([`MultiChannelSpec`]), and the paper's
//! whole top-down design loop as a single optimization ([`OptimizeSpec`])
//! — is expressible as one typed value, [`EvalRequest`], evaluated
//! through one entry point, [`Engine`]:
//!
//! * [`ModelSpec`] — a plain-data, serializable, *validated* description
//!   of a [`gcco_stat::GccoStatModel`] (the builders panic; specs return
//!   [`GccoError::InvalidSpec`]), canonicalized into a cache key;
//! * [`Engine`] — dispatches requests onto the sweep machinery with an
//!   LRU cache of warm [`gcco_stat::SweepContext`]s, cooperative
//!   per-request deadlines, and deterministic parallelism — results are
//!   bit-identical to calling the underlying kernels directly;
//! * [`json`] — a hand-rolled line-JSON codec (the workspace builds
//!   offline with no serialization dependency) with exact float
//!   round-tripping;
//! * [`serve`] — the `gcco-serve` TCP service: batch submission, bounded
//!   queue with backpressure, request timeouts, graceful drain.
//!
//! Attaching a [`gcco_store::Store`] via [`Engine::with_store`] adds a
//! persistent second cache tier behind the warm-context LRU: every
//! successful response is journaled under its [`EvalRequest::cache_key`],
//! and a byte-identical request is served from disk bit-identically —
//! across process restarts (`gcco-serve --store DIR`, resumable
//! campaigns).
//!
//! # Examples
//!
//! A Fig. 9-shaped BER grid as data:
//!
//! ```
//! use gcco_api::{Engine, EvalRequest, EvalResponse, ModelSpec};
//!
//! let engine = Engine::new();
//! let req = EvalRequest::BerGrid {
//!     spec: ModelSpec::paper_table1(),
//!     amps_pp: vec![0.1, 1.0],
//!     freqs_norm: vec![1e-3, 0.1],
//! };
//! match engine.evaluate(&req).expect("valid") {
//!     EvalResponse::Grid { rows } => {
//!         assert_eq!((rows.len(), rows[0].len()), (2, 2));
//!         assert!(rows[1][1] >= rows[0][1], "more SJ cannot help");
//!     }
//!     other => panic!("unexpected {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
mod engine;
mod error;
pub mod json;
mod optimize;
mod request;
pub mod serve;
mod spec;

pub use baseline::{run_baseline, BaselineMetric, BaselineOut, BaselineSpec, CdrArchKind};
pub use engine::{DeadlineGuard, Engine, EngineConfig};
pub use error::GccoError;
pub use optimize::{
    run_optimize, BestDesignOut, ComboReportOut, OptimizeOut, OptimizeSpec, ProbeOracle,
};
pub use request::{
    ChannelOut, DsimRunOut, DsimRunSpec, EvalRequest, EvalResponse, JtolPointOut, MultiChannelSpec,
    PowerPointOut, PowerScanSpec, SizedCellOut, SjOverride,
};
pub use spec::{ModelSpec, ModelSpecBuilder, RunDistSpec, DEFAULT_GRID_STEP};
