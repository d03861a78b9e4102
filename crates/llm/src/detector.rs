//! The LLM static-checking workflow (§3.2.1): retry identification plus
//! WHEN-bug detection across a whole project.
//!
//! Per file ([`sweep_file`]): Q1 (performs retry?) → Q4 (poll/spin
//! exclusion) → Q1 follow-up (which methods) → Q2 (delay?) → Q3 (cap?). A
//! flagged retry method in a file answering No to Q2 yields a
//! missing-delay finding; No to Q3 yields a missing-cap finding.
//! [`sweep_files`] sweeps every file on [`fanout::width`] workers, each
//! with its own [`LanguageModel::fork`], and returns the files' answers in
//! file order; [`sweep_project`] folds them, and [`sweep_files_beside`]
//! runs an independent task on the caller's thread beside the sweep. Every prompt about a file
//! names that file, so a model whose answers depend only on the file's own
//! path and text (as [`SimulatedLlm`](crate::simulated::SimulatedLlm)'s
//! do) answers a file the same way whether it sweeps the whole project,
//! a share of it on one worker, or that file alone.

use crate::model::{LanguageModel, Usage};
use crate::prompts;
use wasabi_lang::project::{FileId, Project, SourceFile};
use wasabi_util::fanout;

/// WHEN-bug categories the LLM detector reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LlmWhenKind {
    /// No cap or time limit on retry attempts.
    MissingCap,
    /// No delay between retry attempts.
    MissingDelay,
}

impl std::fmt::Display for LlmWhenKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LlmWhenKind::MissingCap => write!(f, "missing-cap"),
            LlmWhenKind::MissingDelay => write!(f, "missing-delay"),
        }
    }
}

/// The per-file answers gathered by the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileReport {
    /// File id in the project.
    pub file: FileId,
    /// File path.
    pub path: String,
    /// Q1 answer.
    pub performs_retry: bool,
    /// Q4: excluded as poll/spin behaviour.
    pub poll_excluded: bool,
    /// Q1 follow-up: methods implementing retry.
    pub retry_methods: Vec<String>,
    /// Q2 answer (only meaningful when retry was identified).
    pub sleeps_before_retry: bool,
    /// Q3 answer (only meaningful when retry was identified).
    pub has_cap: bool,
}

/// One WHEN-bug finding from the LLM detector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LlmWhenFinding {
    /// File id.
    pub file: FileId,
    /// File path.
    pub path: String,
    /// Flagged method name.
    pub method: String,
    /// What is missing.
    pub kind: LlmWhenKind,
}

/// The result of an LLM static sweep over a project.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LlmSweep {
    /// Per-file reports for files where Q1 answered Yes.
    pub retry_files: Vec<FileReport>,
    /// WHEN-bug findings.
    pub findings: Vec<LlmWhenFinding>,
    /// API usage for the whole sweep: the account of the sweep's calls.
    /// The sweep's prompts go to forks of the caller's model, so the
    /// caller's own [`LanguageModel::usage`] does not count them.
    pub usage: Usage,
}

/// Folds per-file answers, given in project file order, into a sweep.
impl FromIterator<FileSweep> for LlmSweep {
    fn from_iter<I: IntoIterator<Item = FileSweep>>(files: I) -> Self {
        let mut sweep = LlmSweep::default();
        for file in files {
            sweep.retry_files.extend(file.report);
            sweep.findings.extend(file.findings);
            sweep.usage.absorb(&file.usage);
        }
        sweep
    }
}

/// The sweep's answers for one file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FileSweep {
    /// The file's report when Q1 answered Yes.
    pub report: Option<FileReport>,
    /// WHEN-bug findings in the file.
    pub findings: Vec<LlmWhenFinding>,
    /// API usage for the file's prompts.
    pub usage: Usage,
}

/// Runs the LLM static-checking workflow over one file.
pub fn sweep_file(file_id: FileId, file: &SourceFile, llm: &mut dyn LanguageModel) -> FileSweep {
    let usage_before = llm.usage();
    let mut sweep = FileSweep::default();
    sweep.report = ask_file(file_id, file, llm, &mut sweep.findings);
    let usage_after = llm.usage();
    sweep.usage = Usage {
        calls: usage_after.calls - usage_before.calls,
        bytes_sent: usage_after.bytes_sent - usage_before.bytes_sent,
        tokens: usage_after.tokens - usage_before.tokens,
    };
    sweep
}

/// Asks Q1–Q4 about one file, pushing its WHEN findings; returns its
/// report when Q1 answered Yes.
fn ask_file(
    file_id: FileId,
    file: &SourceFile,
    llm: &mut dyn LanguageModel,
    findings: &mut Vec<LlmWhenFinding>,
) -> Option<FileReport> {
    let q1 = prompts::q1_performs_retry(&file.path, &file.source);
    if !llm.ask_yes_no(&q1).is_yes() {
        return None;
    }
    let poll_excluded = llm
        .ask_yes_no(&prompts::q4_poll_or_spin(&file.path))
        .is_yes();
    if poll_excluded {
        return Some(FileReport {
            file: file_id,
            path: file.path.clone(),
            performs_retry: true,
            poll_excluded: true,
            retry_methods: Vec::new(),
            sleeps_before_retry: false,
            has_cap: false,
        });
    }
    let mut retry_methods = llm.ask_methods(&prompts::q1_which_methods(&file.path));
    if retry_methods.is_empty() {
        // The model said "this file performs retry" but could not name a
        // method — attribute the finding to the file as a whole.
        retry_methods.push(format!("<file:{}>", file.path));
    }
    let sleeps = llm
        .ask_yes_no(&prompts::q2_sleeps_before_retry(&file.path))
        .is_yes();
    let has_cap = llm.ask_yes_no(&prompts::q3_has_cap(&file.path)).is_yes();
    for method in &retry_methods {
        if !sleeps {
            findings.push(LlmWhenFinding {
                file: file_id,
                path: file.path.clone(),
                method: method.clone(),
                kind: LlmWhenKind::MissingDelay,
            });
        }
        if !has_cap {
            findings.push(LlmWhenFinding {
                file: file_id,
                path: file.path.clone(),
                method: method.clone(),
                kind: LlmWhenKind::MissingCap,
            });
        }
    }
    Some(FileReport {
        file: file_id,
        path: file.path.clone(),
        performs_retry: true,
        poll_excluded: false,
        retry_methods,
        sleeps_before_retry: sleeps,
        has_cap,
    })
}

/// Runs [`sweep_file`] over every file of the project, largest first, on
/// [`fanout::width`] workers with one fork of `llm` each, and returns the
/// answers in file order.
pub fn sweep_files(project: &Project, llm: &dyn LanguageModel) -> Vec<FileSweep> {
    sweep_files_beside(project, llm, || ()).0
}

/// [`sweep_files`] with `beside` run on the caller's thread first (see
/// [`fanout::map_beside`]): the other workers start sweeping at once, so
/// a task that reads the same project, such as the static checkers,
/// overlaps the sweep without a thread of its own.
pub fn sweep_files_beside<B>(
    project: &Project,
    llm: &dyn LanguageModel,
    beside: impl FnOnce() -> B,
) -> (Vec<FileSweep>, B) {
    let forks = (0..fanout::width()).map(|_| llm.fork()).collect();
    fanout::map_beside(
        forks,
        project.files.iter().enumerate().collect(),
        |(_, file)| file.source.len(),
        |llm, (fidx, file)| sweep_file(FileId(fidx as u32), file, &mut **llm),
        beside,
    )
}

/// Runs the full LLM static-checking workflow over every file: the fold of
/// [`sweep_files`]. The sweep asks forks of `llm`, not `llm` itself.
pub fn sweep_project(project: &Project, llm: &mut dyn LanguageModel) -> LlmSweep {
    sweep_files(project, llm).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulated::SimulatedLlm;
    use wasabi_lang::project::Project;

    fn project(files: Vec<(&str, String)>) -> Project {
        Project::compile("t", files).expect("compile")
    }

    fn retry_file(delay: bool, cap: bool) -> String {
        let sleep = if delay { "sleep(100);" } else { "log(\"again\");" };
        let cond = if cap {
            "var retry = 0; retry < this.maxAttempts; retry = retry + 1"
        } else {
            "var retry = 0; true; retry = retry + 1"
        };
        format!(
            "exception ConnectException;\n\
             class Client {{\n\
               field maxAttempts = 5;\n\
               // Retry the connection on transient errors.\n\
               method connect() throws ConnectException {{ return 1; }}\n\
               method run() {{\n\
                 for ({cond}) {{\n\
                   try {{ return this.connect(); }} catch (ConnectException e) {{ {sleep} }}\n\
                 }}\n\
                 return null;\n\
               }}\n\
             }}"
        )
    }

    #[test]
    fn clean_retry_file_yields_no_findings() {
        let p = project(vec![("client.jav", retry_file(true, true))]);
        let mut llm = SimulatedLlm::with_seed(7);
        let sweep = sweep_project(&p, &mut llm);
        assert_eq!(sweep.retry_files.len(), 1);
        assert_eq!(sweep.retry_files[0].retry_methods, vec!["run"]);
        assert!(sweep.findings.is_empty(), "findings: {:?}", sweep.findings);
    }

    #[test]
    fn missing_delay_and_cap_are_found() {
        let p = project(vec![("client.jav", retry_file(false, false))]);
        let mut llm = SimulatedLlm::with_seed(7);
        let sweep = sweep_project(&p, &mut llm);
        let kinds: Vec<LlmWhenKind> = sweep.findings.iter().map(|f| f.kind).collect();
        assert!(kinds.contains(&LlmWhenKind::MissingDelay));
        assert!(kinds.contains(&LlmWhenKind::MissingCap));
    }

    #[test]
    fn non_retry_files_cost_one_call_each() {
        let files: Vec<(String, String)> = (0..10)
            .map(|i| {
                (
                    format!("util{i}.jav"),
                    format!("class Util{i} {{ method add(a, b) {{ return a + b; }} }}"),
                )
            })
            .collect();
        let p = Project::compile("t", files).unwrap();
        let mut llm = SimulatedLlm::with_seed(7);
        let sweep = sweep_project(&p, &mut llm);
        assert!(sweep.retry_files.is_empty());
        assert_eq!(sweep.usage.calls, 10, "one Q1 call per file");
        assert!(sweep.usage.tokens > 0);
    }

    #[test]
    fn queue_reenqueue_is_identified_without_retry_keyword() {
        let src = "exception TaskException;\n\
             class Processor {\n\
               field taskQueue;\n\
               method run() {\n\
                 while (!this.taskQueue.isEmpty()) {\n\
                   var task = this.taskQueue.take();\n\
                   try { task.execute(); } catch (TaskException e) { this.taskQueue.put(task); }\n\
                 }\n\
               }\n\
             }\n\
             class Task { method execute() throws TaskException { return 1; } }";
        let p = project(vec![("proc.jav", src.to_string())]);
        let mut llm = SimulatedLlm::with_seed(7);
        let sweep = sweep_project(&p, &mut llm);
        assert_eq!(sweep.retry_files.len(), 1);
        assert!(sweep.retry_files[0].retry_methods.contains(&"run".to_string()));
    }

    #[test]
    fn sweep_is_deterministic_for_a_seed() {
        let p = project(vec![("client.jav", retry_file(false, true))]);
        let run = |seed| {
            let mut llm = SimulatedLlm::with_seed(seed);
            sweep_project(&p, &mut llm).findings
        };
        assert_eq!(run(42), run(42));
    }
}
