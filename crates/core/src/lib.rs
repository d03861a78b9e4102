#![forbid(unsafe_code)]
//! The WASABI orchestrator: identification, the dynamic testing workflow,
//! static checking, and ground-truth scoring.
//!
//! - [`identify`](mod@identify) merges retry locations from the
//!   control-flow query and the LLM technique (§3.1.1);
//! - [`dynamic`] runs the repurposed-unit-testing workflow end to end
//!   (Figure 1): config restoration, coverage profiling, planning, fault
//!   injection, oracles, and deduplication;
//! - the static workflow is the LLM sweep (carried in the identification
//!   result) plus `wasabi_analysis::ifratio`;
//! - [`score`] turns all reports into the paper's tables using the corpus
//!   ground truth.
//!
//! # Examples
//!
//! ```
//! use wasabi_core::dynamic::{run_dynamic, DynamicOptions};
//! use wasabi_core::identify::identify;
//! use wasabi_lang::project::Project;
//! use wasabi_llm::simulated::SimulatedLlm;
//!
//! let src = r#"
//! exception E;
//! class C {
//!     method op() throws E { return "ok"; }
//!     method run() {
//!         while (true) {
//!             try { return this.op(); } catch (E e) { log("retrying"); }
//!         }
//!     }
//!     test tRun() { assert(this.run() == "ok"); }
//! }
//! "#;
//! let project = Project::compile("demo", vec![("c.jav", src)]).unwrap();
//! let mut llm = SimulatedLlm::with_seed(1);
//! let identified = identify(&project, &mut llm);
//! let result = run_dynamic(&project, &identified.locations, &DynamicOptions::default());
//! assert_eq!(result.bugs.len(), 2, "missing cap + missing delay");
//! ```

pub mod api;
pub mod dynamic;
pub mod identify;
pub mod lint;
pub mod score;
pub mod sharded;

pub use api::{compile_app, report_json, run_app_job, source_digest, AppJob};
pub use dynamic::{run_dynamic, AdaptiveSummary, DynamicOptions, DynamicResult};
pub use identify::{identify, identify_with_sweep, Identified};
pub use lint::{cross_check, lint_with_overlap, CrossCheck, CrossCheckCell, LintReport, Tier, WhenOverlap};
pub use score::{evaluate_app, Aggregate, AppEvaluation, Cell};
