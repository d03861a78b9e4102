//! The repair loop: confirm → synthesize → validate → iterate.
//!
//! [`repair`] runs the full pipeline once to establish a baseline (lint
//! diagnostics, full fault-injection campaign), then visits each W001 /
//! W002 / A001 diagnostic **in diagnostic order** and tries templates
//! until one validates or the attempt budget runs out. Validation is the
//! detection machinery re-aimed at the candidate:
//!
//! 1. the candidate must compile;
//! 2. re-linting must show the target diagnostic gone and no *new*
//!    W/A-class diagnostic (fingerprints ⊆ the pre-patch set — the
//!    subset check is scoped to retry-bug codes so an unrelated checker
//!    family cannot veto a correct retry fix);
//! 3. the *targeted* campaign — only the runs whose retry location lives
//!    in a patched coordinator, selected by
//!    [`wasabi_planner::plan::targeted_runs`] over the same key-sorted
//!    plan — must come back green: every record passed, was a filtered
//!    give-up rethrow, was not a trigger, or reproduced its baseline
//!    outcome kind; no record may time out, crash, or carry an oracle
//!    report absent from the baseline; and the target's own bug kind
//!    must no longer fire at the patched coordinator.
//!
//! A rejected candidate's failing-run trace is fed into the next
//! template choice ([`select_template`]); run keys are splice-stable
//! (insertions add no calls, and flattening removes none), so baseline
//! outcomes stay addressable across candidates.
//!
//! Targets are keyed by `(code, coordinator, chain)`, not by position,
//! so a diagnostic that disappears as a side effect of an earlier fix
//! (e.g. one flatten killing two amplification chains) is recorded as
//! fixed with zero attempts.
//!
//! Every candidate splices exactly one file, so validation re-parses and
//! re-sweeps only that file ([`Compiled::patched`]): the other files'
//! parses and LLM answers carry over from the current state, and linking,
//! identification and lint then run over the whole patched project as a
//! full compile would.

use crate::templates::{synthesize, templates_for, PatchedFile, Template};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use wasabi_analysis::checkers::{lint_project, LintOptions, LintResult};
use wasabi_analysis::diag::Diagnostic;
use wasabi_analysis::loops::LoopQueryOptions;
use wasabi_analysis::patchsite::{amp_sites_for, patch_site_for, PatchSite};
use wasabi_core::dynamic::{prepare_campaign, DynamicOptions, PreparedCampaign};
use wasabi_core::identify::{identify_with_sweep, Identified};
use wasabi_engine::campaign::{run_campaign, CampaignOptions, RunOutcome, RunRecord};
use wasabi_engine::observer::outcome_kind;
use wasabi_engine::NullObserver;
use wasabi_lang::project::{FileId, Project, SourceFile};
use wasabi_llm::detector::{sweep_file, sweep_files, FileSweep};
use wasabi_llm::simulated::SimulatedLlm;
use wasabi_oracles::OracleConfig;
use wasabi_planner::plan::{targeted_runs, RunKey};
use wasabi_util::fanout;

/// Configuration for one repair session.
#[derive(Debug, Clone)]
pub struct RepairOptions {
    /// Campaign worker count; the emitted report is identical for any
    /// value.
    pub jobs: usize,
    /// Maximum validated candidate patches per target.
    pub max_fix_attempts: u32,
    /// Seed for the simulated LLM's identification pass (corpus mode
    /// uses the app spec's seed, file mode 0 — same as `wasabi test`).
    pub llm_seed: u64,
    /// Oracle thresholds for baseline and validation campaigns.
    pub oracle: OracleConfig,
    /// Injection budgets (the paper's K = 1 and K = 100).
    pub ks: Vec<u32>,
    /// Retry-loop query options for lint and site resolution.
    pub loops: LoopQueryOptions,
}

impl Default for RepairOptions {
    fn default() -> Self {
        RepairOptions {
            jobs: 1,
            max_fix_attempts: 3,
            llm_seed: 0,
            oracle: OracleConfig::default(),
            ks: vec![1, 100],
            loops: LoopQueryOptions::default(),
        }
    }
}

/// One template tried against one target.
#[derive(Debug, Clone)]
pub struct TemplateAttempt {
    /// Template name (see [`Template::name`]).
    pub template: &'static str,
    /// Whether the candidate validated and was committed.
    pub accepted: bool,
    /// Rejection reason (empty when accepted).
    pub reason: String,
}

/// The outcome for one diagnostic target.
#[derive(Debug, Clone)]
pub struct TargetResult {
    /// Diagnostic code (`W001` / `W002` / `A001`).
    pub code: String,
    /// Coordinator method string.
    pub coordinator: String,
    /// Interprocedural chain (empty for intraprocedural findings).
    pub chain: Vec<String>,
    /// File the baseline diagnostic anchored at.
    pub file: String,
    /// Whether a baseline oracle report of the matching kind confirmed
    /// the finding dynamically (A001 is a static-only finding and is
    /// always `false`).
    pub dynamically_confirmed: bool,
    /// Whether the diagnostic is gone in the final sources.
    pub fixed: bool,
    /// Validated candidate patches tried (0 = fixed as a side effect of
    /// an earlier target's patch).
    pub attempts: u32,
    /// Every template tried, in order.
    pub tried: Vec<TemplateAttempt>,
    /// Why the target stayed unfixed (empty when fixed).
    pub reason: String,
}

/// The result of a repair session.
#[derive(Debug)]
pub struct RepairOutcome {
    /// App name (report header).
    pub app: String,
    /// Per-target results, in baseline diagnostic order.
    pub targets: Vec<TargetResult>,
    /// Final `(path, source)` pairs, in input order, with all accepted
    /// patches applied.
    pub sources: Vec<(String, String)>,
    /// Runs in the baseline campaign.
    pub baseline_runs: usize,
    /// Total runs executed across all validation campaigns.
    pub validation_runs: usize,
    /// `max_fix_attempts` echoed for the report.
    pub max_fix_attempts: u32,
}

/// Identity of a target across re-lints: positions move as patches land,
/// `(code, coordinator, chain)` does not.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct TargetKey {
    code: String,
    coordinator: String,
    chain: Vec<String>,
}

impl TargetKey {
    fn of(diag: &Diagnostic) -> TargetKey {
        TargetKey {
            code: diag.code.to_string(),
            coordinator: diag.coordinator.clone(),
            chain: diag.chain.clone(),
        }
    }
}

/// The oracle kind that dynamically confirms a lint code (`A001` has no
/// dynamic counterpart).
fn oracle_kind(code: &str) -> Option<&'static str> {
    match code {
        "W001" => Some("missing-cap"),
        "W002" => Some("missing-delay"),
        _ => None,
    }
}

fn is_retry_code(code: &str) -> bool {
    matches!(code, "W001" | "W002" | "A001")
}

/// Compiled state for the current source set: the project, each file's
/// LLM answers, and the identification and lint results over them.
struct Compiled {
    project: Project,
    sweeps: Vec<FileSweep>,
    identified: Identified,
    lint: LintResult,
}

fn compile_error(diags: Vec<wasabi_lang::error::Diagnostic>) -> String {
    let first = diags
        .first()
        .map(|d| d.to_string())
        .unwrap_or_else(|| "unknown error".to_string());
    format!("candidate does not compile: {first}")
}

impl Compiled {
    /// Compiles and sweeps every file, as `wasabi_core::compile_app`
    /// does, then lints.
    fn full(
        name: &str,
        sources: Vec<(String, String)>,
        llm_seed: u64,
        lint_opts: &LintOptions,
    ) -> Result<Compiled, String> {
        let project = Project::compile(name, sources).map_err(compile_error)?;
        let sweeps = sweep_files(&project, &SimulatedLlm::with_seed(llm_seed));
        Ok(Compiled::identify_and_lint(project, sweeps, lint_opts))
    }

    /// This state with `patch` applied. Only the patched file is parsed
    /// and swept again; the project relinks the other files' shared
    /// parses. A fresh model answers the file as the shared one did: the
    /// simulated LLM's draws and memory are per file path.
    fn patched(
        &self,
        patch: &PatchedFile,
        llm_seed: u64,
        lint_opts: &LintOptions,
    ) -> Result<Compiled, String> {
        let fidx = self
            .project
            .files
            .iter()
            .position(|file| file.path == patch.path)
            .expect("templates patch a file of the project");
        let file = SourceFile::parse(patch.path.as_str(), patch.source.as_str())
            .map_err(|err| compile_error(vec![err]))?;
        let mut files = self.project.files.clone();
        files[fidx] = Arc::new(file);
        let project = Project::link(self.project.name.as_str(), files, fanout::width())
            .map_err(compile_error)?;
        let mut sweeps = self.sweeps.clone();
        sweeps[fidx] = sweep_file(
            FileId(fidx as u32),
            &project.files[fidx],
            &mut SimulatedLlm::with_seed(llm_seed),
        );
        Ok(Compiled::identify_and_lint(project, sweeps, lint_opts))
    }

    fn identify_and_lint(
        project: Project,
        sweeps: Vec<FileSweep>,
        lint_opts: &LintOptions,
    ) -> Compiled {
        let identified = identify_with_sweep(&project, sweeps.iter().cloned().collect());
        let lint = lint_project(&project, lint_opts);
        Compiled {
            project,
            sweeps,
            identified,
            lint,
        }
    }
}

fn dynamic_options(options: &RepairOptions) -> DynamicOptions {
    DynamicOptions {
        ks: options.ks.clone(),
        jobs: options.jobs,
        oracle: options.oracle,
        capture_timing: false,
        ..DynamicOptions::default()
    }
}

fn campaign_options(prepared: &PreparedCampaign, options: &RepairOptions) -> CampaignOptions {
    CampaignOptions {
        jobs: options.jobs,
        run_options: prepared.run_options.clone(),
        oracle: options.oracle,
        capture_timing: false,
        ..CampaignOptions::default()
    }
}

/// One failing run rendered for the rejection log and the next template
/// choice — the record's key, outcome, and any oracle findings.
fn describe_record(record: &RunRecord) -> String {
    let mut out = format!(
        "{} site {:?}/{:?} {} k={} -> {}",
        record.key.test,
        record.key.site.file,
        record.key.site.call,
        record.key.exception,
        record.key.k,
        outcome_kind(&record.outcome),
    );
    if let RunOutcome::Completed(test_outcome) = &record.outcome {
        out.push_str(&format!(" ({test_outcome:?})"));
    }
    for report in &record.reports {
        out.push_str(&format!("; {}: {}", report.kind, report.detail));
    }
    out
}

/// Picks the next untried template. The previous rejection's trace
/// re-ranks the remainder: an assertion failure means the give-up path's
/// result is observed, so prefer rethrowing over breaking; a surviving
/// missing-delay report means the handler's tail is skipped on some
/// path, so prefer the unconditional catch-entry sleep.
fn select_template(code: &str, tried: &[TemplateAttempt], trace: &str) -> Option<Template> {
    let remaining: Vec<Template> = templates_for(code)
        .iter()
        .copied()
        .filter(|t| !tried.iter().any(|a| a.template == t.name()))
        .collect();
    let trace = trace.to_lowercase();
    if trace.contains("assert") {
        if let Some(t) = remaining.iter().find(|t| **t == Template::CapRethrow) {
            return Some(*t);
        }
    }
    if trace.contains("missing-delay") {
        if let Some(t) = remaining.iter().find(|t| **t == Template::SleepConst) {
            return Some(*t);
        }
    }
    remaining.first().copied()
}

/// The loop(s) a target's patch splices around: the anchor loop, plus
/// the inner loop for `A001`.
fn patch_sites(
    project: &Project,
    diag: &Diagnostic,
    loops: &LoopQueryOptions,
) -> Option<(PatchSite, Option<PatchSite>)> {
    if diag.code == "A001" {
        amp_sites_for(project, diag, loops).map(|(outer, inner)| (outer, Some(inner)))
    } else {
        patch_site_for(project, diag, loops).map(|site| (site, None))
    }
}

/// W/A-class fingerprints of a lint result — the set the no-new-findings
/// subset check runs over.
fn retry_fingerprints(lint: &LintResult) -> BTreeSet<String> {
    lint.diagnostics
        .iter()
        .filter(|d| is_retry_code(d.code))
        .map(|d| d.fingerprint())
        .collect()
}

struct Validated {
    compiled: Compiled,
    runs_executed: usize,
}

/// Validates `patch` applied to `current`. `Err` carries `(reason,
/// failing-run trace)`.
#[allow(clippy::too_many_arguments)]
fn validate_candidate(
    current: &Compiled,
    patch: &PatchedFile,
    target: &TargetKey,
    coordinators: &BTreeSet<String>,
    options: &RepairOptions,
    lint_opts: &LintOptions,
    baseline_outcomes: &BTreeMap<RunKey, String>,
    baseline_reports: &BTreeSet<(String, String)>,
) -> Result<Validated, (String, String)> {
    let compiled = current
        .patched(patch, options.llm_seed, lint_opts)
        .map_err(|e| (e, String::new()))?;
    let pre_patch_fingerprints = retry_fingerprints(&current.lint);

    if compiled
        .lint
        .diagnostics
        .iter()
        .any(|d| TargetKey::of(d) == *target)
    {
        return Err((
            "target diagnostic survives the patch".to_string(),
            String::new(),
        ));
    }
    let fresh: Vec<String> = compiled
        .lint
        .diagnostics
        .iter()
        .filter(|d| is_retry_code(d.code))
        .map(|d| d.fingerprint())
        .filter(|fp| !pre_patch_fingerprints.contains(fp))
        .collect();
    if let Some(first) = fresh.first() {
        return Err((format!("patch introduces a new finding: {first}"), String::new()));
    }

    let dyn_opts = dynamic_options(options);
    let prepared = prepare_campaign(
        &compiled.project,
        &compiled.identified.locations,
        &dyn_opts,
        &mut NullObserver,
    );
    let runs = targeted_runs(&prepared.runs, coordinators);
    let result = run_campaign(
        &compiled.project,
        &runs,
        &campaign_options(&prepared, options),
        &mut NullObserver,
    );

    let target_kind = oracle_kind(&target.code);
    for record in &result.records {
        let kind = outcome_kind(&record.outcome);
        let trace = describe_record(record);
        if matches!(record.outcome, RunOutcome::Crashed { .. }) {
            return Err(("validation run did not complete".to_string(), trace));
        }
        if let Some(bug) = target_kind {
            let still_fires = record.reports.iter().any(|r| {
                r.kind.to_string() == bug
                    && coordinators.contains(&r.location.coordinator.to_string())
            });
            if still_fires {
                return Err((format!("{bug} oracle still fires"), trace));
            }
        }
        for report in &record.reports {
            let key = (report.kind.to_string(), report.dedup_key.clone());
            if !baseline_reports.contains(&key) {
                return Err((
                    format!("patch introduces a new {} report", report.kind),
                    trace,
                ));
            }
        }
        let acceptable = kind == "passed"
            || record.rethrow_filtered
            || record.not_a_trigger
            || baseline_outcomes.get(&record.key).map(String::as_str) == Some(kind);
        if !acceptable {
            return Err((format!("run regressed to {kind}"), trace));
        }
    }

    Ok(Validated {
        compiled,
        runs_executed: runs.len(),
    })
}

/// Runs the repair loop over `sources`. See the module docs for the
/// protocol; the returned outcome is deterministic in `(name, sources,
/// options)` — `jobs` never changes it.
pub fn repair(
    name: &str,
    sources: Vec<(String, String)>,
    options: &RepairOptions,
) -> Result<RepairOutcome, String> {
    let lint_opts = LintOptions {
        loops: options.loops.clone(),
        // Repair only targets retry codes; IF-ratio info findings would
        // just be recomputed on every candidate for nothing.
        ifratio: false,
    };
    let mut compiled = Compiled::full(name, sources, options.llm_seed, &lint_opts)
        .map_err(|e| e.replace("candidate does not compile", "sources do not compile"))?;

    // Baseline campaign: outcome kinds and report keys per run key, the
    // reference every validation compares against.
    let dyn_opts = dynamic_options(options);
    let prepared = prepare_campaign(
        &compiled.project,
        &compiled.identified.locations,
        &dyn_opts,
        &mut NullObserver,
    );
    let baseline = run_campaign(
        &compiled.project,
        &prepared.runs,
        &campaign_options(&prepared, options),
        &mut NullObserver,
    );
    let baseline_runs = prepared.runs.len();
    let baseline_outcomes: BTreeMap<RunKey, String> = baseline
        .records
        .iter()
        .map(|r| (r.key.clone(), outcome_kind(&r.outcome).to_string()))
        .collect();
    let baseline_reports: BTreeSet<(String, String)> = baseline
        .records
        .iter()
        .flat_map(|r| {
            r.reports
                .iter()
                .map(|rep| (rep.kind.to_string(), rep.dedup_key.clone()))
        })
        .collect();
    let confirmed_coordinators: BTreeSet<(String, String)> = baseline
        .records
        .iter()
        .flat_map(|r| {
            r.reports
                .iter()
                .map(|rep| (rep.kind.to_string(), rep.location.coordinator.to_string()))
        })
        .collect();

    // Targets, in baseline diagnostic (= sorted) order.
    let targets: Vec<(TargetKey, String)> = compiled
        .lint
        .diagnostics
        .iter()
        .filter(|d| is_retry_code(d.code))
        .map(|d| (TargetKey::of(d), d.file.clone()))
        .collect();

    let mut results = Vec::new();
    let mut validation_runs = 0usize;
    for (target, file) in targets {
        let dynamically_confirmed = oracle_kind(&target.code)
            .map(|kind| {
                confirmed_coordinators.contains(&(kind.to_string(), target.coordinator.clone()))
            })
            .unwrap_or(false);
        let mut tried: Vec<TemplateAttempt> = Vec::new();
        let mut attempts = 0u32;
        let mut fixed = false;
        let mut reason = String::new();
        let mut last_trace = String::new();

        loop {
            let live = compiled
                .lint
                .diagnostics
                .iter()
                .find(|d| TargetKey::of(d) == target)
                .cloned();
            let Some(diag) = live else {
                fixed = true;
                break;
            };
            if attempts >= options.max_fix_attempts {
                reason = "attempt budget exhausted".to_string();
                break;
            }
            let Some(template) = select_template(&target.code, &tried, &last_trace) else {
                reason = if tried.is_empty() {
                    "no template for this code".to_string()
                } else {
                    "all templates rejected".to_string()
                };
                break;
            };

            // Resolve the patch site(s) against the *current* sources —
            // positions move as earlier fixes land.
            let Some((site, inner)) = patch_sites(&compiled.project, &diag, &options.loops) else {
                reason = "could not resolve the diagnostic to a loop".to_string();
                break;
            };

            match synthesize(template, &compiled.project, &site, inner.as_ref()) {
                Err(why) => {
                    tried.push(TemplateAttempt {
                        template: template.name(),
                        accepted: false,
                        reason: format!("inapplicable: {why}"),
                    });
                }
                Ok(patch) => {
                    attempts += 1;
                    let mut coordinators = BTreeSet::new();
                    coordinators.insert(target.coordinator.clone());
                    if let Some(inner) = &inner {
                        coordinators.insert(inner.method.to_string());
                    }
                    match validate_candidate(
                        &compiled,
                        &patch,
                        &target,
                        &coordinators,
                        options,
                        &lint_opts,
                        &baseline_outcomes,
                        &baseline_reports,
                    ) {
                        Ok(validated) => {
                            validation_runs += validated.runs_executed;
                            tried.push(TemplateAttempt {
                                template: template.name(),
                                accepted: true,
                                reason: String::new(),
                            });
                            compiled = validated.compiled;
                            fixed = true;
                            break;
                        }
                        Err((why, trace)) => {
                            let detail = if trace.is_empty() {
                                why
                            } else {
                                format!("{why}: {trace}")
                            };
                            last_trace = detail.clone();
                            tried.push(TemplateAttempt {
                                template: template.name(),
                                accepted: false,
                                reason: detail,
                            });
                        }
                    }
                }
            }
        }

        results.push(TargetResult {
            code: target.code.clone(),
            coordinator: target.coordinator.clone(),
            chain: target.chain.clone(),
            file,
            dynamically_confirmed,
            fixed,
            attempts,
            tried,
            reason,
        });
    }

    Ok(RepairOutcome {
        app: name.to_string(),
        targets: results,
        sources: compiled
            .project
            .files
            .iter()
            .map(|file| (file.path.clone(), file.source.clone()))
            .collect(),
        baseline_runs,
        validation_runs,
        max_fix_attempts: options.max_fix_attempts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasabi_analysis::diag::render_json;
    use wasabi_core::api::compile_app;
    use wasabi_corpus::spec::{paper_apps, Scale};
    use wasabi_corpus::synth::generate_app_with_amp;

    /// The incremental candidate state against the slow path: on every
    /// corpus app, for the first applicable template of every retry
    /// target, replacing the patched file in the baseline state must give
    /// what compiling, identifying and linting the patched sources anew
    /// gives. A patch that does not parse fails both ways with
    /// the same error.
    #[test]
    fn patched_state_equals_a_full_compile_of_the_patched_sources() {
        let options = RepairOptions::default();
        let lint_opts = LintOptions {
            ifratio: false,
            ..LintOptions::default()
        };
        let planned = |project: &Project, identified: &Identified| {
            let prepared = prepare_campaign(
                project,
                &identified.locations,
                &dynamic_options(&options),
                &mut NullObserver,
            );
            format!("{:?}", prepared.runs)
        };
        let mut patches = 0;
        for spec in paper_apps() {
            let app = generate_app_with_amp(&spec, Scale::Tiny);
            let seed = spec.seed;
            let baseline = Compiled::full(spec.short, app.files.clone(), seed, &lint_opts)
                .expect("corpus compiles");
            let patched_sources = |patch: &PatchedFile| -> Vec<(String, String)> {
                app.files
                    .iter()
                    .map(|(path, source)| {
                        let source = if *path == patch.path {
                            &patch.source
                        } else {
                            source
                        };
                        (path.clone(), source.clone())
                    })
                    .collect()
            };
            for diag in baseline
                .lint
                .diagnostics
                .iter()
                .filter(|d| is_retry_code(d.code))
            {
                let Some((site, inner)) = patch_sites(&baseline.project, diag, &options.loops)
                else {
                    continue;
                };
                let Some(patch) = templates_for(diag.code).iter().find_map(|template| {
                    synthesize(*template, &baseline.project, &site, inner.as_ref()).ok()
                }) else {
                    continue;
                };
                patches += 1;
                let what = format!("{}: {} patched {}", spec.short, diag.render(), patch.path);
                let incremental = baseline
                    .patched(&patch, seed, &lint_opts)
                    .unwrap_or_else(|err| panic!("{what}: {err}"));
                let full = compile_app(spec.short, patched_sources(&patch), seed)
                    .unwrap_or_else(|err| panic!("{what}: {err:?}"));
                let full_lint = lint_project(&full.project, &lint_opts);
                assert_eq!(
                    incremental.identified.locations, full.identified.locations,
                    "{what}: locations"
                );
                assert_eq!(
                    incremental.identified.llm_sweep, full.identified.llm_sweep,
                    "{what}: sweep"
                );
                assert_eq!(
                    render_json(&incremental.lint.diagnostics),
                    render_json(&full_lint.diagnostics),
                    "{what}: lint"
                );
                assert_eq!(
                    planned(&incremental.project, &incremental.identified),
                    planned(&full.project, &full.identified),
                    "{what}: planned runs"
                );
            }

            let (path, source) = &app.files[0];
            let broken = PatchedFile {
                path: path.clone(),
                source: format!("{source}\nclass {{"),
            };
            let incremental = baseline.patched(&broken, seed, &lint_opts).err();
            let full = compile_app(spec.short, patched_sources(&broken), seed)
                .err()
                .map(compile_error);
            assert!(
                incremental.is_some(),
                "{}: broken patch compiles",
                spec.short
            );
            assert_eq!(incremental, full, "{}: broken patch", spec.short);
        }
        assert!(patches >= 80, "only {patches} patches exercised");
    }

    #[test]
    fn template_selection_skips_rejected_and_honors_trace() {
        let tried = vec![TemplateAttempt {
            template: "cap-rethrow",
            accepted: false,
            reason: "x".to_string(),
        }];
        assert_eq!(
            select_template("W001", &tried, ""),
            Some(Template::CapBreak)
        );
        assert_eq!(select_template("W001", &[], ""), Some(Template::CapRethrow));
        // Assertion trace pins the rethrow variant when still available.
        let tried_break = vec![TemplateAttempt {
            template: "cap-break",
            accepted: false,
            reason: "run regressed: AssertionFailed".to_string(),
        }];
        assert_eq!(
            select_template("W001", &tried_break, "run regressed: AssertionFailed"),
            Some(Template::CapRethrow)
        );
        // Surviving missing-delay prefers the unconditional entry sleep.
        let tried_backoff = vec![TemplateAttempt {
            template: "sleep-backoff",
            accepted: false,
            reason: "missing-delay oracle still fires".to_string(),
        }];
        assert_eq!(
            select_template("W002", &tried_backoff, "missing-delay oracle still fires"),
            Some(Template::SleepConst)
        );
        let exhausted = vec![
            TemplateAttempt {
                template: "cap-rethrow",
                accepted: false,
                reason: String::new(),
            },
            TemplateAttempt {
                template: "cap-break",
                accepted: false,
                reason: String::new(),
            },
        ];
        assert_eq!(select_template("W001", &exhausted, "assert"), None);
        assert_eq!(select_template("X999", &[], ""), None);
    }

    #[test]
    fn repair_fixes_when_bugs_end_to_end() {
        // Flaky has an uncapped, undelayed retry loop with a covering
        // test; Solid is a clean capped+delayed loop that must stay
        // byte-identical.
        let flaky = "exception IOException;\n\
            class Flaky {\n\
                field attempts = 0;\n\
                method fetch() throws IOException {\n\
                    for (var retry = 0; true; retry = retry + 1) {\n\
                        try { return this.pull(); } catch (IOException e) { log(\"retrying\"); }\n\
                    }\n\
                }\n\
                method pull() throws IOException {\n\
                    this.attempts = this.attempts + 1;\n\
                    return this.attempts;\n\
                }\n\
                test fetchWorks() {\n\
                    var flaky = new Flaky();\n\
                    assert(flaky.fetch() > 0, \"fetch returns a value\");\n\
                }\n\
            }";
        let solid = "class Solid {\n\
                method get() throws IOException {\n\
                    for (var retry = 0; retry < 3; retry = retry + 1) {\n\
                        try { return this.read(); } catch (IOException e) { sleep(100); }\n\
                    }\n\
                    throw new IOException(\"gave up\");\n\
                }\n\
                method read() throws IOException { return 7; }\n\
                test getWorks() {\n\
                    var solid = new Solid();\n\
                    assert(solid.get() == 7, \"read value\");\n\
                }\n\
            }";
        let sources = vec![
            ("Flaky.jav".to_string(), flaky.to_string()),
            ("Solid.jav".to_string(), solid.to_string()),
        ];
        let outcome = repair("driver-test", sources, &RepairOptions::default()).expect("repair");

        assert_eq!(outcome.targets.len(), 2, "W001 + W002 on Flaky.fetch");
        for target in &outcome.targets {
            assert_eq!(target.coordinator, "Flaky.fetch");
            assert!(
                target.fixed,
                "{} unfixed: {} ({:?})",
                target.code, target.reason, target.tried
            );
            assert!(target.attempts <= 3);
            assert!(target.dynamically_confirmed, "{} confirmed", target.code);
        }
        let solid_out = outcome
            .sources
            .iter()
            .find(|(p, _)| p == "Solid.jav")
            .expect("solid present");
        assert_eq!(solid_out.1, solid, "clean file untouched");
        let flaky_out = outcome
            .sources
            .iter()
            .find(|(p, _)| p == "Flaky.jav")
            .expect("flaky present");
        assert!(flaky_out.1.contains("retryGuard"), "cap inserted");
        assert!(flaky_out.1.contains("sleep("), "delay inserted");
        assert!(outcome.baseline_runs > 0);
        assert!(outcome.validation_runs > 0, "validation actually ran");
    }
}
