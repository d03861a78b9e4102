#![forbid(unsafe_code)]
//! Static analysis for retry detection: the CodeQL substitute.
//!
//! This crate implements the query side of WASABI (§3.1.1 first technique and
//! §3.2.2 of the paper) over Javelin ASTs:
//!
//! - [`cfg`] — per-method control-flow graphs with deliberately
//!   over-approximate, syntactic edges;
//! - [`loops`] — the retry-loop query (catch-reaches-header + naming
//!   conventions) and retry-location triplet extraction;
//! - [`ifratio`] — application-wide retry-ratio analysis flagging
//!   inconsistent IF-retry policies;
//! - [`absint`] — per-method interval abstract interpretation of attempt
//!   counters and delay expressions (widening at loop heads, one
//!   narrowing pass), feeding the `W005`/`W006` policy checkers;
//! - [`lattice`] — the transient-vs-fatal exception classification
//!   behind the `W004` retry-on-non-retriable checker;
//! - [`resolve`] — dispatch-table-backed callee resolution and project
//!   indexes;
//! - [`callgraph`] — the deterministic interprocedural call graph
//!   (receiver typing + dispatch fanout over subtypes);
//! - [`summaries`] — per-method may-throw / may-sleep / may-retry /
//!   attempt-bound facts, solved by fixpoint over call-graph SCCs;
//! - [`checkers`] — the interprocedural lint (`W001`/`W002`/`W003` WHEN
//!   checks and the `A001` nested-retry amplification detector);
//! - [`diag`] — ordered diagnostics with canonical text/JSON rendering
//!   and baseline suppression.
//!
//! # Examples
//!
//! ```
//! use wasabi_analysis::loops::{find_retry_loops, LoopQueryOptions};
//! use wasabi_analysis::resolve::ProjectIndex;
//! use wasabi_lang::project::Project;
//!
//! let src = r#"
//! exception ConnectException;
//! class Client {
//!     method connect() throws ConnectException { return 1; }
//!     method run() {
//!         for (var retry = 0; retry < 3; retry = retry + 1) {
//!             try { return this.connect(); } catch (ConnectException e) { sleep(100); }
//!         }
//!         return null;
//!     }
//! }
//! "#;
//! let project = Project::compile("demo", vec![("c.jav", src)]).unwrap();
//! let index = ProjectIndex::build(&project);
//! let loops = find_retry_loops(&index, &LoopQueryOptions::default());
//! assert_eq!(loops.len(), 1);
//! ```

/// Checked dense-id indexing (the journal-cast convention): converting a
/// `u32` id for slice indexing panics with a message when the id does not
/// fit the address space, instead of silently wrapping into a
/// valid-looking small index.
pub(crate) fn idx(id: u32, what: &str) -> usize {
    usize::try_from(id).unwrap_or_else(|_| panic!("{what}: dense id {id} does not fit in usize"))
}

pub mod absint;
pub mod callgraph;
pub mod cfg;
pub mod lattice;
pub mod checkers;
pub mod diag;
pub mod ifratio;
pub mod loops;
pub mod patchsite;
pub mod resolve;
pub mod summaries;

pub use absint::{analyze_method, Interval, LoopObs, MethodAbs};
pub use callgraph::{sccs, CallGraph, ResolvedCall, Sccs};
pub use lattice::{ExcLattice, Transience};
pub use checkers::{lint_project, LintOptions};
pub use diag::{render_json, render_text, Diagnostic, Severity};
pub use ifratio::{if_ratio_reports, IfOptions, IfReport, OutlierKind};
pub use loops::{
    all_retry_locations, find_retry_loops, LoopQueryOptions, Mechanism, RetryLocation, RetryLoop,
};
pub use resolve::ProjectIndex;
pub use summaries::{AttemptBound, MethodSummary, Summaries};
