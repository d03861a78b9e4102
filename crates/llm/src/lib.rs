#![forbid(unsafe_code)]
//! LLM-informed retry detection: prompts, the `LanguageModel` trait, the
//! deterministic simulated model, and the static WHEN-bug detector.
//!
//! The paper uses GPT-4 for two jobs that traditional program analysis
//! handles poorly: *identifying* retry implemented as queues, state
//! machines, or unnamed loops (§3.1.1, second technique), and *statically
//! detecting* WHEN bugs (§3.2.1). Both run here against any
//! [`model::LanguageModel`]; the shipped [`simulated::SimulatedLlm`] is a
//! deterministic fuzzy-text model with GPT-4's documented error modes (see
//! its module docs), so the whole pipeline runs offline and reproducibly.
//!
//! # Examples
//!
//! ```
//! use wasabi_lang::project::Project;
//! use wasabi_llm::detector::sweep_project;
//! use wasabi_llm::simulated::SimulatedLlm;
//!
//! let src = r#"
//! exception ConnectException;
//! class Client {
//!     // Retries the connection on transient errors, forever and with no
//!     // backoff — a WHEN bug on both axes.
//!     method connect() throws ConnectException { return 1; }
//!     method run() {
//!         while (true) {
//!             try { return this.connect(); }
//!             catch (ConnectException e) { log("retrying"); }
//!         }
//!     }
//! }
//! "#;
//! let project = Project::compile("demo", vec![("client.jav", src)]).unwrap();
//! let mut llm = SimulatedLlm::with_seed(1);
//! let sweep = sweep_project(&project, &mut llm);
//! assert_eq!(sweep.retry_files.len(), 1);
//! assert_eq!(sweep.findings.len(), 2); // missing delay + missing cap
//! ```

pub mod detector;
pub mod model;
pub mod prompts;
pub mod simulated;

pub use detector::{
    sweep_file, sweep_files, sweep_files_beside, sweep_project, FileSweep, LlmSweep,
    LlmWhenFinding, LlmWhenKind,
};
pub use model::{Answer, LanguageModel, Usage};
pub use prompts::{Prompt, Question};
pub use simulated::{SimProfile, SimulatedLlm, TextSignals};
