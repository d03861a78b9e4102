#![forbid(unsafe_code)]
//! Test preparation and fault-injection planning (§3.1.4 of the paper).
//!
//! Three stages turn a project's existing unit tests into an efficient
//! fault-injection campaign:
//!
//! 1. [`configfix`] — find tests that restrict retry via configuration
//!    overrides and pin those keys back to their declared defaults;
//! 2. [`coverage`] — run the whole suite once with instrumented retry
//!    locations to learn which test covers which location;
//! 3. [`plan`] — pair every coverable location with exactly one test
//!    (spreading across distinct tests), then expand each pair into concrete
//!    injection runs (one per trigger exception and K value).

pub mod adaptive;
pub mod configfix;
pub mod coverage;
pub mod plan;

pub use adaptive::{probe_k, select_widen_runs, split_waves, AdaptivePlan, ProbeSignal};
pub use configfix::{is_retry_key, restore_retry_configs, ConfigRestoration};
pub use coverage::{profile_coverage, CoverageProfile};
pub use plan::{expand_plan, naive_run_count, plan, targeted_runs, InjectionRun, PlanEntry, TestPlan};
