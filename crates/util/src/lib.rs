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

//! - [`metrics`] — saturating `Duration` → ms/us conversions and a clock
//!   abstraction for the campaign observability layer (deterministic
//!   under test).

//! - [`backoff`] — the one retry [`backoff::Policy`] (capped exponential
//!   with equal jitter) shared by the campaign engine, the shard
//!   supervisor, and the submit client (callers keep their own
//!   jitter-stream derivations).

//! - [`atomic`] — temp-then-rename file replacement for the shard
//!   manifest, traces, the repair report and lint baselines.

//! - [`fanout`] — the one ordered fan-out ([`fanout::map_beside`]): the
//!   parse, the link's validation, the LLM sweep and the coverage profile
//!   map their files or tests on scoped workers and get the results back
//!   in input order, while the index build beside the validation, or the
//!   checkers or the control-flow query beside the sweep, run on the
//!   caller's thread.

pub mod atomic;
pub mod backoff;
pub mod fanout;
pub mod json;
pub mod metrics;
pub mod rng;

pub use atomic::write_atomic;
pub use json::Json;
pub use metrics::{saturating_ms, saturating_us};
pub use rng::Rng;
