#![forbid(unsafe_code)]
//! Dependency-free utilities shared across the WASABI workspace.
//!
//! The workspace must build and test with **zero network access** (the
//! tier-1 gate is `cargo build --release && cargo test -q` on an offline
//! machine), so everything that used to come from crates.io lives here
//! instead:
//!
//! - [`rng`] — a seeded SplitMix64/xorshift generator replacing `rand`,
//!   used by the randomized property tests and anywhere the corpus or the
//!   simulated LLM needs reproducible pseudo-randomness;
//! - [`json`] — a minimal JSON value model and writer replacing
//!   `serde`/`serde_json` for report emission.

//! - [`metrics`] — log2-bucketed mergeable histograms, saturating
//!   `Duration` → ms/us conversions, and a clock abstraction for the
//!   campaign observability layer (deterministic under test).

//! - [`backoff`] — the one retry [`backoff::Policy`] (capped exponential
//!   with equal jitter) shared by the campaign engine, the shard
//!   supervisor, and the submit client (callers keep their own
//!   jitter-stream derivations).

//! - [`atomic`] — temp-then-rename file replacement for the profile
//!   cache, the shard manifest, and the repair report.

pub mod atomic;
pub mod backoff;
pub mod json;
pub mod metrics;
pub mod rng;

pub use atomic::write_atomic;
pub use json::Json;
pub use metrics::{saturating_ms, saturating_us, Histogram};
pub use rng::Rng;
