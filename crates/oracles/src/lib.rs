#![forbid(unsafe_code)]
//! Retry-specific test oracles and bug deduplication (§3.1.3 of the paper).
//!
//! Existing unit tests' assertions were written without retry in mind, so
//! WASABI judges injected runs with three application-agnostic oracles —
//! missing cap, missing delay, and different exception — implemented in
//! [`judge`], and groups the resulting reports into distinct bugs in
//! [`dedup`].

pub mod dedup;
pub mod judge;

pub use dedup::{count_by_kind, dedup_reports, DistinctBug};
pub use judge::{judge_run, BugKind, OracleReport, RunVerdict};
