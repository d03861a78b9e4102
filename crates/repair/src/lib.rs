#![forbid(unsafe_code)]
//! Auto-repair for confirmed retry bugs — the loop-closing back half of
//! the WASABI pipeline (`wasabi repair`).
//!
//! The paper's tooling stops at *detection*: lint anchors a WHEN or
//! amplification finding, the fault-injection campaign confirms it. This
//! crate takes the next step and synthesizes a source patch per finding,
//! then proves the patch with the same machinery that found the bug:
//!
//! - **W001 (missing cap)** — insert a `retryGuard` counter before the
//!   loop and a `retryGuard >= 3` exit guard into each retrying catch
//!   ([`templates::Template::CapRethrow`] rethrows the caught exception,
//!   [`templates::Template::CapBreak`] breaks out of the loop);
//! - **W002 (missing delay)** — add a `sleep` to each retrying catch,
//!   either backoff-shaped from the loop counter
//!   ([`templates::Template::SleepBackoff`]) or constant at catch entry
//!   ([`templates::Template::SleepConst`]);
//! - **A001 (retry amplification)** — flatten one of the two nested
//!   retry loops to a single attempt
//!   ([`templates::Template::FlattenInner`] /
//!   [`templates::Template::FlattenOuter`]).
//!
//! Patches are **span-based text splices**, not whole-file reprints: the
//! simulated LLM's identification error modes key on file byte size, so
//! reprinting (which drops comments) would silently change what the
//! pipeline identifies. Splicing keeps every unmodified byte identical,
//! and the synthesized statements themselves are in the canonical form
//! of the AST printer ([`wasabi_lang::printer::print_stmt`], which a test
//! holds them to), so a patched file re-parses to exactly the spliced
//! shape.
//!
//! Validation re-runs the *targeted* slice of the fault-injection
//! campaign — only the runs whose retry location lives in a patched
//! method ([`wasabi_planner::plan::targeted_runs`]) — and accepts a
//! candidate only if the target diagnostic is gone, no new W/A
//! diagnostic appeared, and every targeted run is green (passed, a
//! filtered give-up rethrow, or byte-for-byte the baseline outcome).
//! Rejected candidates feed their failing run's trace into the next
//! template choice; the driver iterates up to `--max-fix-attempts`.
//!
//! Everything is deterministic: [`driver::repair`] visits targets in
//! diagnostic order, campaigns merge in key order, and the emitted
//! `repair_report.json` is byte-identical for any `--jobs` value.

pub mod driver;
pub mod report;
pub mod templates;

pub use driver::{repair, RepairOptions, RepairOutcome, TargetResult};
pub use report::{render_report, score_against_truth};
pub use templates::{synthesize, templates_for, PatchedFile, Template};
