#![forbid(unsafe_code)]
//! The WASABI campaign engine: parallel execution of fault-injection
//! campaigns with a deterministic result merge.
//!
//! The paper's dynamic workflow is embarrassingly parallel — every
//! `{unit test, retry location, exception, K}` injection run is an
//! independent interpreter execution — and this crate owns running them:
//!
//! - [`campaign::run_campaign`] — a fixed-size `std::thread` worker pool
//!   whose workers claim runs in [`wasabi_planner::plan::RunKey`] order
//!   from one shared cursor, with per-run interpreter isolation, an
//!   optional per-run wall-clock budget (graceful cancellation →
//!   [`RunOutcome::TimedOut`]), and a merge that orders results by key so
//!   reports are byte-identical for any `jobs` value;
//! - a **resilience layer**: per-run panic containment
//!   ([`RunOutcome::Crashed`]), deterministic retries under a
//!   [`wasabi_util::backoff::Policy`] (see [`campaign::retry_delay`])
//!   with quarantine for runs that exhaust it, and a durable [`journal`]
//!   for checkpoint/resume — a resumed campaign's report is
//!   byte-identical to an uninterrupted one. Whole-process crashes are
//!   the [`shard`] supervisor's to recover;
//! - [`observer::EngineObserver`] — structured progress events, with a
//!   stderr reporter ([`StderrProgress`]);
//! - an **observability layer**: per-run host timings ([`RunTiming`]),
//!   phase/run span recording ([`MetricsObserver`]), and a
//!   schema-versioned JSON-lines trace format ([`spans`]) behind
//!   `--trace-out` and `wasabi stats`.
//!
//! `wasabi-core`'s `run_dynamic` delegates here; serial execution is just
//! `jobs = 1` through the same code path.

pub mod campaign;
pub mod journal;
pub mod metrics;
pub mod observer;
pub mod shard;
pub mod spans;

pub use campaign::{
    run_campaign, CampaignOptions, CampaignResult, CampaignStats, ChaosConfig, RunOutcome,
    RunRecord,
};
pub use metrics::{MetricsObserver, RunTiming};
pub use observer::{EngineEvent, EngineObserver, NullObserver, StderrProgress, Tee};
pub use spans::{load_trace, render_stats, validate_trace, write_trace, TraceFile};
